import math

import numpy as np
import pytest

from thermoquery import exactsim, verify
from thermoquery.query import QueryMask
from thermoquery.thermal import GapVector

DJ_CASES = 100 * (4 + 8 + 72)  # 100 tuples for each constant or balanced table with n <= 3

SENSITIVITY = "sensitivity-closed-form-agreement"
EXPECTED_CASES = {
    "dj-kickback-population-vs-exact": DJ_CASES,
    "dj-kickback-delta-vs-exact": DJ_CASES,
    "dj-kickback-temperature-vs-exact": DJ_CASES,
    "dj-log-partition-vs-direct-sum": DJ_CASES,
    "general-mask-dj-vs-exact": 200,
    "general-mask-bv-vs-exact": 200,
    "all-ones-mask-reduction": 400,
    "bv-hamming-population-vs-exact": 150,
    "bv-hamming-vs-kickback": 150,
    "mixed-query-vs-exact": 100,
    "swap-query-marginal-vs-exact": 100,
    "regime-sign-consistency": 10000,
    SENSITIVITY: 2187,
    "well-definedness-flag-consistency": 10000,
    "temperature-roundtrip": 10000,
    "reset-energy-bookkeeping": 200,
    "detuning-eta1-vs-kickback": 100,
    "flip-probability-envelope": 100,
    "balanced-partition-permutation-invariance": 3,
}


def test_default_run_is_pinned():
    report = verify.run_verification(seed=1234)
    assert [c.name for c in report.checks] == list(EXPECTED_CASES)
    assert {c.name: c.cases for c in report.checks} == EXPECTED_CASES
    assert report.passed
    worst = {c["name"]: c["worst_case"] for c in report.to_dict()["checks"]}
    assert worst["dj-kickback-population-vs-exact"].startswith("instance=")
    assert worst["regime-sign-consistency"] == ""  # no case has an error above 0
    assert worst["general-mask-dj-vs-exact"].startswith("mask=(")
    assert " machine=(" in worst["general-mask-bv-vs-exact"]
    assert worst["all-ones-mask-reduction"] == ""


@pytest.mark.parametrize("seed", (7, 99))
def test_default_run_at_other_seeds(seed):
    """Every case count but the sensitivity check's is fixed by the parameters;
    that one depends on the draws and is pinned at seed 1234 only."""
    report = verify.run_verification(seed=seed)
    assert report.passed
    assert [c.name for c in report.checks] == list(EXPECTED_CASES)
    cases = {c.name: c.cases for c in report.checks}
    assert cases == {**EXPECTED_CASES, SENSITIVITY: cases[SENSITIVITY]}


def test_general_mask_errors_follow_each_mask(monkeypatch):
    """Grouped by machine size, every case keeps its own mask: the errors
    are rounding-sized, and complementing the exact side's masks fails
    every case where that changes X.G."""
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(60):
        oracle = verify._random_dj_oracle(rng, int(rng.integers(1, 4)))
        probe = verify._sample_probe(rng)
        mask = QueryMask(tuple(int(b) for b in rng.integers(0, 2, oracle.n_machine_qubits)))
        cases.append(verify._mask_case(oracle, probe, mask))
    errors, reduction = verify._general_mask_errors(cases)
    assert errors.shape == reduction.shape == (60,)
    assert errors.max() < 1e-13 and reduction.max() == 0.0

    kickback_batch = exactsim.kickback_batch
    monkeypatch.setattr(
        exactsim, "kickback_batch",
        lambda omega, beta_s, gaps, beta_m, masks: kickback_batch(omega, beta_s, gaps, beta_m, 1 - masks),
    )
    errors, _ = verify._general_mask_errors(cases)
    changed = [
        abs(sum(g if bit else -g for g, bit in zip(gaps, mask))) > 1e-9
        for gaps, _, _, _, mask, *_ in cases
    ]
    assert sum(changed) > 40
    assert (errors > 1e-6).tolist() == changed


MASK_CHECKS = ("general-mask-dj-vs-exact", "general-mask-bv-vs-exact", "all-ones-mask-reduction")


@pytest.mark.parametrize("owner, name", [(QueryMask, "dot"), (GapVector, "total")])
def test_mask_section_checks_the_library_mask_path(monkeypatch, owner, name):
    """X.G and |G| come from the library: a slightly wrong masked sum or gap
    total fails the general-mask checks and the all-ones reduction."""
    def report():
        return verify.run_verification(
            max_dj_n=2, max_bv_n=3, tuples_per_instance=1, mask_cases=30, regime_cases=1, seed=5
        )

    def failed(checks):
        return {c.name for c in checks.checks if not c.passed} & set(MASK_CHECKS)

    assert failed(report()) == set()
    original = owner.__dict__[name]
    if isinstance(original, property):
        monkeypatch.setattr(owner, name, property(lambda self: original.fget(self) * (1.0 + 1e-9)))
    else:
        monkeypatch.setattr(owner, name, lambda self, gaps: original(self, gaps) * (1.0 + 1e-9))
    assert failed(report()) == set(MASK_CHECKS)


def scalar_uniforms(rng, keys, rows):
    return np.array([[verify._uniform(rng, key) for key in keys] for _ in range(rows)])


def test_block_draws_equal_scalar_draws():
    keys = ("omega", "beta_s", "gap", "gap", "beta_m")
    scalar_rng, block_rng = np.random.default_rng(99), np.random.default_rng(99)
    scalar = scalar_uniforms(scalar_rng, keys, 1000)
    block = np.column_stack(verify._scaled(block_rng.random((1000, 5)), keys))
    assert np.array_equal(block, scalar)
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    assert block_rng.uniform() == scalar_rng.uniform()


def law_regime_draws(rng, rows, max_n):
    """The regime section's block of draws written out as its three numpy
    calls, the class of each table mapped by the promise law one row at a time."""
    n = rng.integers(1, max_n + 1, rows)
    u = rng.random(rows)
    draws = rng.random((rows, 6))
    sizes, ones = 1 << n, np.empty(rows, dtype=np.int64)
    for i, (size, x) in enumerate(zip(sizes.tolist(), u.tolist())):
        scaled = x * (math.comb(size, size // 2) + 2)
        ones[i] = 0 if scaled < 1.0 else size if scaled < 2.0 else size // 2
    return sizes, ones, draws


@pytest.mark.parametrize("seed", (0, 11, 2024))
@pytest.mark.parametrize("rows", (1, 2, 7, 301))
@pytest.mark.parametrize("max_n", (1, 3, 5))
@pytest.mark.parametrize("kept_half", (False, True))
def test_raw_word_draws_equal_numpy_calls(seed, rows, max_n, kept_half):
    """The regime draws give the values of their numpy calls and leave the
    generator's raw-word stream where those calls leave it, a kept 32-bit
    half included, so a seed fixes every later draw of the run."""
    law_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if kept_half:
        law_rng.integers(0, 2, 3)
        block_rng.integers(0, 2, 3)
        assert block_rng.bit_generator.state["has_uint32"] == 1
    expected = law_regime_draws(law_rng, rows, max_n)
    actual = verify._regime_draws(block_rng, rows, max_n)
    for a, b in zip(actual, expected):
        assert np.array_equal(a, b)
    assert block_rng.bit_generator.state == law_rng.bit_generator.state
    assert block_rng.integers(0, 2, 5).tolist() == law_rng.integers(0, 2, 5).tolist()
    assert block_rng.random() == law_rng.random()
    assert block_rng.integers(1, 6) == law_rng.integers(1, 6)
    assert block_rng.bit_generator.state == law_rng.bit_generator.state


def test_promise_law():
    """Regime tables follow the promise law: at size s = 2^n, 0 and s ones
    each with probability 1/(C + 2) and s/2 ones with C/(C + 2), C = C(s, s/2).
    A balanced table of _random_dj_oracle is any of the C(4, 2) = 6 at n = 2
    alike. Every frequency is within 5 standard deviations."""
    def within(count, total, p):
        assert abs(count - total * p) <= 5.0 * math.sqrt(total * p * (1.0 - p))

    sizes, ones, draws = verify._regime_draws(np.random.default_rng(2024), 240_000, 3)
    assert set(sizes.tolist()) == {2, 4, 8} and draws.shape == (240_000, 6)
    for size in (2, 4, 8):
        counts = ones[sizes == size]
        balanced = math.comb(size, size // 2)
        assert set(counts.tolist()) <= {0, size // 2, size}
        for value, weight in ((0, 1), (size, 1), (size // 2, balanced)):
            within(np.count_nonzero(counts == value), counts.size, weight / (balanced + 2))

    rng = np.random.default_rng(11)
    tables = [verify._random_dj_oracle(rng, 2).problem.function.outputs for _ in range(8000)]
    balanced = [t for t in tables if sum(t) == 2]
    assert {sum(t) for t in tables} == {0, 2, 4} and len(set(balanced)) == 6
    within(len(balanced), len(tables), 6 / 8)
    for table in set(balanced):
        within(balanced.count(table), len(balanced), 1 / 6)


def test_scalar_promise_law_equals_arrays():
    """A float draw and an int n give the count of ones of the array branch,
    at the class boundaries u (C + 2) = 1 and 2 too."""
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        weight = math.comb(1 << n, 1 << (n - 1)) + 2
        edges = np.array([1.0, 2.0]) / weight
        u = np.concatenate((rng.random(2000), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)))
        scalar = [verify._promise_ones(x, n) for x in u.tolist()]
        assert all(type(ones) is int for ones in scalar)
        assert scalar == verify._promise_ones(u, np.full(u.size, n)).tolist()


class TestTrackerBlocks:
    def test_block_matches_one_by_one(self):
        errors = [0.5, math.nan, 2.0, 3.0, 1.5, math.inf, 0.1]
        one, block = verify._Tracker("x", 1.0), verify._Tracker("x", 1.0)
        for i, error in enumerate(errors):
            one.record(error, f"row{i}")
        block.record_block(np.array(errors[:4]), lambda i: f"row{i}")
        block.record_block(np.array(errors[4:]), lambda i: f"row{i + 4}")
        assert repr(one.result()) == repr(block.result())  # NaN != NaN, so compare as text
        result = block.result()
        assert result.cases == 7 and math.isnan(result.max_error) and not result.passed
        assert result.first_failure == "row1 (error nan)"
        assert result.worst_case == "row1 (error nan)"

    def test_context_only_for_reported_rows(self):
        asked = []
        tracker = verify._Tracker("x", 1e-3)

        def context(i):
            asked.append(i)
            return f"row{i}"

        tracker.record_block(np.array([1e-5, 4e-3, 2e-4, 9e-3, 1e-6]), context)
        tracker.record_block(np.array([]), context)
        assert sorted(asked) == [1, 3]
        assert tracker.result().first_failure == "row1 (error 4.000e-03)"
        assert tracker.result().worst_case == "row3 (error 9.000e-03)"

    def test_nan_alone_is_a_failure(self):
        tracker = verify._Tracker("x", 0.0)
        tracker.record_block(np.array([0.0, math.nan, math.nan]), lambda i: f"row{i}")
        result = tracker.result()
        assert not result.passed and result.cases == 3 and math.isnan(result.max_error)
        assert result.first_failure == result.worst_case == "row1 (error nan)"
