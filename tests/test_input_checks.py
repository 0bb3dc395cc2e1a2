"""The 0/1 entry checks of truth tables and masks, the bit-string checks of
the five functions that take a string of 0s and 1s, and one table for each
refusal rule: the gap rule, the scale rule, the machine-totals rule and
verify's run sizes. Each table names every site of its rule, the CLI's
flags included, with the message it gives."""

import contextlib
import io
import math

import pytest

from thermoquery import exactsim, problems, verify
from thermoquery.cli import main
from thermoquery.detuning import ExperimentConfig, flip_probability, suppression_factor
from thermoquery.problems import BVInstance, hamming_weight_population
from thermoquery.query import QueryMask, swap_query
from thermoquery.thermal import (
    BooleanFunctionTable,
    Classification,
    GapVector,
    ThermalQubit,
    bits_to_index,
    build_bv_oracle,
    build_custom_oracle,
    build_dj_oracle,
    ground_state_population,
    inverse_temperature_from_population,
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


def cli(*argv):
    """A site that runs the CLI with ``argv``, each ``{}`` filled with the
    value, and raises its exit-1 line as a ValueError."""
    def run(value):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(value) for arg in argv])
        if code == 1:
            raise ValueError(err.getvalue().removeprefix("thermoquery: error: ").removesuffix("\n"))
        assert code == 0
    return run


def refusal(check, *args):
    with pytest.raises(ValueError) as raised:
        check(*args)
    return str(raised.value)


# The gap rule, thermal.check_positive: a gap or a coupling must be positive
# and finite. A message that names one value quotes it. A gap past the float
# maximum is the inf row.
GAP_CHECKS = [
    (lambda v: ground_state_population(v, 1.0), "gap must be positive and finite, got {}"),
    (lambda v: inverse_temperature_from_population(0.3, v), "gap must be positive and finite, got {}"),
    (lambda v: ThermalQubit(v, 1.0), "gap must be positive and finite, got {}"),
    (lambda v: flip_probability(v, 0.1, 1.0), "coupling g must be positive and finite, got {}"),
    (lambda v: suppression_factor(v, 0.1), "coupling g must be positive and finite, got {}"),
    (lambda v: ExperimentConfig((1.0, v, 1.0), 0.05, 4.0), "machine gaps must be positive and finite"),
    (lambda v: ExperimentConfig((1.0, 1.0, 1.0), 0.05, v), "coupling must be positive and finite, got {}"),
    (lambda v: ExperimentConfig((1.0, 1.0, 1.0), 0.05, 4.0, v), "probe gap must be positive and finite, got {}"),
    (lambda v: hamming_weight_population(BVInstance("101"), v, PROBE, 1.0), "gamma must be positive and finite, got {}"),
    (lambda v: build_bv_oracle("101", v, 1.0), "gamma must be positive and finite, got {}"),
    (lambda v: build_dj_oracle(BooleanFunctionTable(1, (0, 1)), 1.0, v, 1.0),
     "both encoding gaps must be positive and finite"),
    (cli("dj-kickback", "--e1={}"), "--e1 must be positive and finite, got {}"),
    (cli("dj-kickback", "--e2={}"), "--e2 must be positive and finite, got {}"),
    (cli("dj-kickback", "--omega={}"), "--omega must be positive and finite, got {}"),
    (cli("detuning-sweep", "--gamma=1,{},1"), "machine gaps must be positive and finite"),
    (cli("detuning-sweep", "--g={}"), "coupling must be positive and finite, got {}"),
    (cli("detuning-sweep", "--omega={}"), "probe gap must be positive and finite, got {}"),
]
GAP_SITES = ["ground_state_population", "inverse_temperature_from_population", "ThermalQubit",
             "flip_probability", "suppression_factor", "ExperimentConfig.machine_gaps", "ExperimentConfig.coupling",
             "ExperimentConfig.probe_gap", "hamming_weight_population", "build_bv_oracle", "build_dj_oracle",
             "dj-kickback --e1", "dj-kickback --e2", "dj-kickback --omega", "detuning-sweep --gamma",
             "detuning-sweep --g", "detuning-sweep --omega"]


@pytest.mark.parametrize("check, message", GAP_CHECKS, ids=GAP_SITES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0], ids=repr)
def test_gap_or_coupling_not_positive_and_finite_is_refused(check, message, value):
    assert refusal(check, value) == message.format(value)


@pytest.mark.parametrize("check", [check for check, _ in GAP_CHECKS], ids=GAP_SITES)
def test_positive_gap_or_coupling_is_accepted(check):
    check(1.0)


# The scale rule, thermal.check_scale: beta times a gap must be a finite
# float, and beta is named alone only when it is not finite itself. Every
# site takes the gap 8e307 (two of them sum to a finite |G|), so beta = 10
# puts the product past the largest double; beta = 0 and -1 are accepted.
GAP = 8e307
SCALE_CHECKS = [
    (lambda b: ThermalQubit(GAP, b), "inverse temperature", "inverse temperature times gap"),
    (lambda b: ground_state_population(GAP, b), "beta", "inverse temperature times gap"),
]
SCALE_SITES = ["ThermalQubit", "ground_state_population"]

# The machine-totals rule, thermal.check_machine_totals: a machine's |G|,
# beta_M times its largest gap (by the scale rule) and log Z_f must be
# finite floats, tested in that order. Every site builds two qubits of one
# gap, so the CLI's classes at --n 1 are the same machine.
MACHINE_CHECKS = [
    (lambda g, b: build_custom_oracle([g, g], b), "machine inverse temperature", "inverse temperature times gap"),
    (lambda g, b: build_dj_oracle(BooleanFunctionTable(1, (0, 1)), g, g, b),
     "machine inverse temperature", "inverse temperature times gap"),
    (lambda g, b: build_bv_oracle("11", g, b), "machine inverse temperature", "inverse temperature times gap"),
    (lambda g, b: hamming_weight_population(BVInstance("11"), g, PROBE, b),
     "machine inverse temperature", "inverse temperature times gap"),
    (lambda g, b: cli("dj-kickback", "--n", "1", f"--e1={g}", f"--e2={g}", "--beta-m={}")(b),
     "--beta-m", "--beta-m times --e1"),
]
MACHINE_SITES = ["build_custom_oracle", "build_dj_oracle", "build_bv_oracle", "hamming_weight_population",
                 "dj-kickback"]
SCALE_ROWS = [
    (math.nan, "{beta} must be finite, got nan"),
    (math.inf, "{beta} must be finite, got inf"),
    (-math.inf, "{beta} must be finite, got -inf"),
    (10.0, "{product} must be finite, got 10.0 * 8e+307"),
    (-10.0, "{product} must be finite, got -10.0 * 8e+307"),
]
SCALE_ROW_IDS = ["beta-nan", "beta-inf", "beta-minus-inf", "product", "minus-product"]
MACHINE_ROWS = [(GAP, beta, message) for beta, message in SCALE_ROWS] + [
    (1e308, 1e-300, "gap total must be finite, got inf"),
    (10.0, -1e307, "log partition function is not finite, got inf"),
]
MACHINE_ROW_IDS = SCALE_ROW_IDS + ["gap-total", "log-partition"]


@pytest.mark.parametrize("check, beta_name, product_name", SCALE_CHECKS, ids=SCALE_SITES)
@pytest.mark.parametrize("beta, message", SCALE_ROWS, ids=SCALE_ROW_IDS)
def test_scale_past_the_float_range_is_refused(check, beta_name, product_name, beta, message):
    assert refusal(check, beta) == message.format(beta=beta_name, product=product_name)


@pytest.mark.parametrize("check, beta_name, product_name", MACHINE_CHECKS, ids=MACHINE_SITES)
@pytest.mark.parametrize("gap, beta, message", MACHINE_ROWS, ids=MACHINE_ROW_IDS)
def test_machine_past_the_float_range_is_refused(check, beta_name, product_name, gap, beta, message):
    assert refusal(check, gap, beta) == message.format(beta=beta_name, product=product_name)


def test_gap_vector_refuses_an_overflowing_total():
    """The |G| row for the one site that takes no beta."""
    assert refusal(GapVector, (1e308, 1e308)) == "gap total must be finite, got inf"


@pytest.mark.parametrize("beta", [0.0, -1.0, 1.0])
def test_finite_scale_and_machine_totals_are_accepted(beta):
    for check, _, _ in SCALE_CHECKS:
        check(beta)
    for check, _, _ in MACHINE_CHECKS:
        check(1.0, beta)


# The run-size rule, verify.check_run_sizes: every size is at least 1, the
# Deutsch-Jozsa and secret-string sizes are at most what the enumeration and
# the exact simulator take, and the seed is at least 0. The CLI's flags parse
# as integers, so its rows are integers.
RUN = dict(max_dj_n=1, max_bv_n=1, tuples_per_instance=1, mask_cases=1, regime_cases=1, seed=0)
LIMITS = {"max_dj_n": problems.MAX_EXHAUSTIVE_N, "max_bv_n": exactsim.DEFAULT_MAX_QUBITS - 1,
          "--max-n": problems.MAX_EXHAUSTIVE_N, "--bv-max-n": exactsim.DEFAULT_MAX_QUBITS - 1}
RUN_CHECKS = [(lambda v, name=name: verify.run_verification(**{**RUN, name: v}), name) for name in RUN if name != "seed"]
RUN_CHECKS += [(cli("verify", flag, "{}"), flag) for flag in ("--max-n", "--bv-max-n", "--trials")]
BELOW_ONE = [(check, name, value) for check, name in RUN_CHECKS
             for value in ([0, -1] if name.startswith("--") else [0, -1, math.nan, -math.inf])]
PAST_LIMIT = [(check, name, value) for check, name in RUN_CHECKS if name in LIMITS
              for value in ([LIMITS[name] + 1] if name.startswith("--") else [LIMITS[name] + 1, math.inf])]
BELOW_ZERO = [(lambda v: verify.run_verification(**{**RUN, "seed": v}), "seed", value)
              for value in (-1, math.nan, -math.inf)] + [(cli("verify", "--seed", "{}"), "seed", -1)]


def row_id(row):
    return f"{row[1]}={row[2]!r}"


@pytest.mark.parametrize("check, name, value", BELOW_ONE, ids=map(row_id, BELOW_ONE))
def test_run_size_below_one_is_refused(check, name, value):
    assert refusal(check, value) == f"{name} must be >= 1, got {value}"


@pytest.mark.parametrize("check, name, value", PAST_LIMIT, ids=map(row_id, PAST_LIMIT))
def test_run_size_past_its_limit_is_refused(check, name, value):
    assert refusal(check, value) == f"{name} must be <= {LIMITS[name]}, got {value}"


@pytest.mark.parametrize("check, name, value", BELOW_ZERO, ids=["seed=-1", "seed=nan", "seed=-inf", "--seed=-1"])
def test_seed_below_zero_is_refused(check, name, value):
    assert refusal(check, value) == f"{name} must be >= 0, got {value}"
