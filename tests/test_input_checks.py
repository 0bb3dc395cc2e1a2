"""The 0/1 entry checks of truth tables and masks, and the bit-string checks
of the five functions that take a string of 0s and 1s."""

import math

import pytest

from thermoquery.detuning import ExperimentConfig
from thermoquery.problems import BVInstance
from thermoquery.query import QueryMask, swap_query
from thermoquery.thermal import (
    BooleanFunctionTable,
    Classification,
    ThermalQubit,
    bits_to_index,
    build_bv_oracle,
    build_custom_oracle,
)

ENTRY_CHECKS = [
    (lambda entries: BooleanFunctionTable(2, entries), "outputs must be 0/1"),
    (QueryMask, "mask bits must be 0/1"),
]


@pytest.mark.parametrize("make, message", ENTRY_CHECKS, ids=["table", "mask"])
@pytest.mark.parametrize("bad", [2, math.nan, "1", None, [1]], ids=repr)
def test_entry_other_than_0_or_1_is_rejected(make, message, bad):
    with pytest.raises(ValueError) as raised:
        make((0, 1, bad, 1))
    assert str(raised.value) == message


def test_entries_equal_to_0_or_1_are_accepted_as_their_values():
    entries = (True, 1.0, 0, 0.0)
    assert BooleanFunctionTable(2, entries).classification is Classification.BALANCED
    assert QueryMask(entries).dot((1.0, 2.0, 4.0, 8.0)) == 3.0


CONFIG = ExperimentConfig(machine_gaps=(1.0, 1.1, 1.3), bias=0.05, coupling=4.0)
PROBE = ThermalQubit(1.0, 1.0)
ORACLE = build_custom_oracle([1.0] * 8, 1.0)

BIT_STRING_CHECKS = [
    (bits_to_index, "not a bit string: {!r}"),
    (lambda s: build_bv_oracle(s, 1.0, 1.0), "secret must be a nonempty bit string, got {!r}"),
    (lambda s: swap_query(PROBE, ORACLE, s), "not a bit string: {!r}"),
    (BVInstance, "secret must be a nonempty bit string, got {!r}"),
    (CONFIG.gaps_for_secret, "secret must be a 3-bit string, got {!r}"),
]
SITES = ["bits_to_index", "build_bv_oracle", "swap_query", "BVInstance", "gaps_for_secret"]


@pytest.mark.parametrize("check, message", BIT_STRING_CHECKS, ids=SITES)
@pytest.mark.parametrize("text", ["", "0a1", "0 1", "0\n1"], ids=repr)
def test_string_other_than_0s_and_1s_is_rejected(check, message, text):
    with pytest.raises(ValueError) as raised:
        check(text)
    assert str(raised.value) == message.format(text)


@pytest.mark.parametrize("check", [check for check, _ in BIT_STRING_CHECKS], ids=SITES)
def test_bit_string_is_accepted(check):
    check("101")
