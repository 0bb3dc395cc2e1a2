import math

import numpy as np

from thermoquery import verify

DJ_CASES = 100 * (4 + 8 + 72)  # 100 tuples for each constant or balanced table with n <= 3

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
    "sensitivity-closed-form-agreement": 2255,
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


def test_regime_draws_equal_scalar_draws():
    """The chunked draws of the regime section take the values, in the order,
    of one scalar draw after another, integer draws in between included."""
    scalar_rng, chunk_rng = np.random.default_rng(7), np.random.default_rng(7)
    expected = []
    for _ in range(300):
        oracle = verify._random_dj_oracle(scalar_rng, int(scalar_rng.integers(1, 4)))
        probe = verify._sample_probe(scalar_rng)
        problem = oracle.problem
        expected.append((
            len(problem.function.outputs), sum(problem.function.outputs),
            problem.gap_one, problem.gap_zero, oracle.machine_inverse_temperature,
            probe.gap, probe.inverse_temperature, float(scalar_rng.random()),
        ))
    sizes, ones, draws = verify._regime_draws(chunk_rng, 300, 3)
    scaled = verify._scaled(draws, ("gap", "gap", "beta_m", "omega", "beta_s"))
    actual = np.column_stack((sizes, ones, *scaled, draws[:, 5]))
    assert np.array_equal(actual, np.array(expected))
    assert chunk_rng.bit_generator.state == scalar_rng.bit_generator.state


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
