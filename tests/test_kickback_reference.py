"""The analytic kickback and regime boundary against perfbench's 50-digit
reference where the double-precision closed forms are known to fail.

Each assertion that fails today is marked ``xfail(strict=True)``, so it
turns into a failure, and its marker has to go, once the fault is mended:
- from N = 1024 unit gaps the two exchanged populations underflow, so
  Delta p0 comes out 0.0, labelled NEUTRAL, with no post-query temperature,
  where the regime is cooling or heating and beta' is defined;
- at beta_M = -800 the difference of two exponentials leaves p0' < 0;
- at exact resonance, omega = N g, the gap sum misses |G| by an ulp and an
  absolute tolerance of 1e-14 reads the miss as cooling or heating.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

import mpmath as mp
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference as ref  # noqa: E402
from thermoquery.query import Regime, classify_regime, kickback_outcome  # noqa: E402
from thermoquery.thermal import ThermalQubit, build_custom_oracle  # noqa: E402

UNDERFLOW = pytest.mark.xfail(strict=True, raises=AssertionError, reason="Delta p0 underflows to 0.0")
CANCELLATION = pytest.mark.xfail(strict=True, raises=AssertionError, reason="p0' from a difference of exponentials")
RESONANCE = pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="|G| is not correctly rounded and the tolerance is absolute")

# Unit gaps at beta_S = beta_M = 1, probes 0.1 % below and above resonance.
LARGE = [(1 << k, factor) for k in (10, 12, 16) for factor in (0.999, 1.001)]


@lru_cache(maxsize=None)
def large_machine(n: int, factor: float):
    """(kickback outcome, classify_regime, reference) of ``n`` unit gaps at
    beta_M = 1 and a probe of gap factor * n at beta_S = 1."""
    probe, oracle = ThermalQubit(factor * n, 1.0), build_custom_oracle([1.0] * n, 1.0)
    expected = ref.kickback(probe.gap, 1.0, 1.0, [(1.0, n)])
    return kickback_outcome(probe, oracle), classify_regime(probe, oracle), expected


@pytest.mark.parametrize("n, factor", LARGE)
def test_large_machine_populations(n, factor):
    outcome, _, expected = large_machine(n, factor)
    assert ref.population_ok(outcome.p0_before, expected.p0)
    assert ref.population_ok(outcome.p0_after, expected.p0_after)
    assert ref.delta_ok(outcome.delta_p0, expected)


@pytest.mark.parametrize("n, factor", LARGE)
def test_large_machine_classify_regime(n, factor):
    _, regime, expected = large_machine(n, factor)
    assert ref.regime_ok(regime.value, expected.sign)


@UNDERFLOW
@pytest.mark.parametrize("n, factor", LARGE)
def test_large_machine_kickback_regime(n, factor):
    outcome, _, expected = large_machine(n, factor)
    assert ref.regime_ok(outcome.regime.value, expected.sign)


@UNDERFLOW
@pytest.mark.parametrize("n, factor", LARGE)
def test_large_machine_beta_after(n, factor):
    outcome, _, expected = large_machine(n, factor)
    assert ref.beta_ok(outcome.beta_after, expected.beta_after)


@lru_cache(maxsize=None)
def inverted_machine():
    """Four unit gaps at beta_M = -800, omega = beta_S = 1. The true p0' is
    about 1e-347: 50 digits cancel to a negative value, 600 do not."""
    probe, oracle = ThermalQubit(1.0, 1.0), build_custom_oracle([1.0] * 4, -800.0)
    with mp.workdps(600):
        expected = ref.kickback(1.0, 1.0, -800.0, [(1.0, 4)])
    return kickback_outcome(probe, oracle), expected


def test_inverted_machine_populations_and_regime():
    outcome, expected = inverted_machine()
    assert expected.p0_after > 0
    assert ref.population_ok(outcome.p0_before, expected.p0)
    assert ref.population_ok(outcome.p0_after, expected.p0_after)
    assert ref.delta_ok(outcome.delta_p0, expected)
    assert ref.regime_ok(outcome.regime.value, expected.sign)


@CANCELLATION
def test_inverted_machine_p0_after_is_a_probability():
    outcome, _ = inverted_machine()
    assert 0.0 <= outcome.p0_after <= 1.0


@CANCELLATION
def test_inverted_machine_beta_after():
    outcome, expected = inverted_machine()
    assert ref.beta_ok(outcome.beta_after, expected.beta_after)


RESONANT = [(n, gap) for n in (1 << 10, 1 << 16) for gap in (0.1, 0.3, 0.7)]


@pytest.mark.parametrize("n, gap", RESONANT)
def test_exact_resonance_reference_is_neutral(n, gap):
    """omega = n * gap is exact for n a power of two, and equals the true |G|."""
    assert ref.kickback(n * gap, 1.0, 1.0, [(gap, n)]).sign == 0


@RESONANCE
@pytest.mark.parametrize("n, gap", RESONANT)
def test_exact_resonance_is_neutral(n, gap):
    assert classify_regime(ThermalQubit(n * gap, 1.0), build_custom_oracle([gap] * n, 1.0)) is Regime.NEUTRAL
