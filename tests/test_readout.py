import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoquery import readout
from thermoquery.cli import build_parser, main, parse_int_list, parse_values
from thermoquery.query import kickback_outcome
from thermoquery.readout import (
    BinaryDistribution,
    Decision,
    HypothesisTestReport,
    chernoff_stein_samples,
    classical_sample_complexity,
    classical_with_replacement_error,
    classical_without_replacement_error,
    crossover_analysis,
    deterministic_classical_queries,
    distinguishability_report,
    likelihood_ratio_test,
    monte_carlo_readout,
    relative_entropy,
    sample_bound_from_threshold,
    total_variation,
)
from thermoquery.thermal import BooleanFunctionTable, ThermalQubit, build_dj_oracle


def exact_lrt_error(true_p0, hyp_p0, other_p0, n, decide_hyp_when):
    """Exact decision-error probability by binomial enumeration (independent path)."""
    from scipy.stats import binom

    l0 = math.log(hyp_p0 / other_p0)
    l1 = math.log((1.0 - hyp_p0) / (1.0 - other_p0))
    ks = np.arange(n + 1)
    llr = ks * l0 + (n - ks) * l1
    region = llr >= 0 if decide_hyp_when == "ge" else llr < 0
    return float(binom.pmf(ks, n, true_p0)[region].sum())


def uniform_samples(rng, n_samples, p1):
    return (rng.random(n_samples) < p1).astype(np.uint8)


def count_samples(rng, n_samples, p1):
    """A trial's samples from its count of excited outcomes, one ``rng.binomial`` draw."""
    n1 = int(rng.binomial(n_samples, p1))
    return np.repeat(np.array([0, 1], dtype=np.uint8), [n_samples - n1, n1])


def reference_readout(draw, true_dist, hyp_balanced, hyp_constant, n_samples, trials, seed, delta=0.1):
    """Reference Monte Carlo readout: one ``draw(rng, n_samples, p1)`` and one
    likelihood-ratio test per trial."""
    rng = np.random.default_rng(seed)
    balanced_decisions = 0
    for _ in range(trials):
        samples = draw(rng, n_samples, true_dist.p1)
        if likelihood_ratio_test(samples, hyp_balanced, hyp_constant) is Decision.BALANCED:
            balanced_decisions += 1
    balanced_fraction = balanced_decisions / trials
    if true_dist.p0 == hyp_constant.p0 or true_dist.p0 != hyp_balanced.p0:
        error_rate = balanced_fraction
    else:
        error_rate = 1.0 - balanced_fraction
    divergence = relative_entropy(hyp_balanced, hyp_constant)
    tv = total_variation(hyp_balanced, hyp_constant)
    return HypothesisTestReport(
        n_samples=n_samples,
        trials=trials,
        decision=Decision.BALANCED if 2 * balanced_decisions >= trials else Decision.CONSTANT,
        divergence=divergence,
        pinsker_lower=2.0 * tv * tv,
        chernoff_stein_bound=chernoff_stein_samples(delta, divergence),
        empirical_false_positive=error_rate,
        seed=seed,
    )


# Every sample drawn as a uniform, and each trial's count drawn at once.
per_trial_readout = functools.partial(reference_readout, uniform_samples)
per_trial_count_readout = functools.partial(reference_readout, count_samples)


class TestDivergences:
    def test_identical_distributions(self):
        p = BinaryDistribution(0.3)
        assert relative_entropy(p, p) == 0.0

    def test_projector_vs_three_quarters(self):
        value = relative_entropy(BinaryDistribution(1.0), BinaryDistribution(0.75))
        assert value == pytest.approx(math.log(4.0 / 3.0), abs=1e-15)

    def test_infinite_when_support_violated(self):
        assert relative_entropy(BinaryDistribution(0.5), BinaryDistribution(1.0)) == math.inf

    def test_nearly_equal_distributions_not_negative(self):
        # The two p*log(p/q) terms cancel here and their float sum rounds below zero.
        p, q = BinaryDistribution(0.5), BinaryDistribution(0.5 + 1e-12)
        assert relative_entropy(p, q) >= 0.0
        report = monte_carlo_readout(p, p, q, n_samples=10, trials=100, seed=1)
        assert report.divergence == 0.0
        assert report.chernoff_stein_bound == math.inf

    def test_total_variation(self):
        assert total_variation(BinaryDistribution(0.9), BinaryDistribution(0.6)) == pytest.approx(0.3)
        p, q = BinaryDistribution(0.7), BinaryDistribution(0.2)
        l1 = abs(p.p0 - q.p0) + abs(p.p1 - q.p1)
        assert total_variation(p, q) == pytest.approx(l1 / 2.0)

    def test_pinsker_bulk_sweep(self):
        rng = np.random.default_rng(99)
        p0 = rng.uniform(1e-9, 1 - 1e-9, 100_000)
        q0 = rng.uniform(1e-9, 1 - 1e-9, 100_000)
        with np.errstate(divide="ignore", invalid="ignore"):
            kl = p0 * np.log(p0 / q0) + (1 - p0) * np.log((1 - p0) / (1 - q0))
        tv = np.abs(p0 - q0)
        assert np.all(kl >= 2.0 * tv * tv - 1e-12)

    @given(p0=st.floats(0.001, 0.999), q0=st.floats(0.001, 0.999))
    def test_pinsker_property(self, p0, q0):
        p, q = BinaryDistribution(p0), BinaryDistribution(q0)
        assert relative_entropy(p, q) >= 2.0 * total_variation(p, q) ** 2 - 1e-12


class TestSampleBounds:
    def test_mixed_query_bound(self):
        assert chernoff_stein_samples(0.1, math.log(4.0 / 3.0)) == 9

    def test_single_sample(self):
        assert chernoff_stein_samples(0.5, math.log(2.0)) == 1

    def test_log_linear_scaling(self):
        d = math.log(4.0 / 3.0)
        assert abs(chernoff_stein_samples(0.01, d) - 2 * chernoff_stein_samples(0.1, d)) <= 1

    def test_zero_divergence_unbounded(self):
        assert chernoff_stein_samples(0.1, 0.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_stein_samples(1.5, 1.0)
        with pytest.raises(ValueError):
            chernoff_stein_samples(0.1, -1.0)

    def test_infinite_divergence_needs_one_sample(self):
        assert chernoff_stein_samples(0.1, math.inf) == 1
        assert chernoff_stein_samples(1e-12, math.inf) == 1

    def test_nan_divergence_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            chernoff_stein_samples(0.1, math.nan)

    def test_threshold_bound_at_one_tenth(self):
        assert sample_bound_from_threshold(0.1, 0.1) == 116

    def test_threshold_bound_edges(self):
        assert sample_bound_from_threshold(0.1, 0.5) == 5
        with pytest.raises(ValueError):
            sample_bound_from_threshold(0.1, 0.6)
        with pytest.raises(ValueError):
            sample_bound_from_threshold(0.0, 0.1)

    def test_bound_independent_of_problem_size(self):
        # Nothing in the bound depends on n; spot-check it is a pure (delta, t) function.
        assert sample_bound_from_threshold(0.2, 0.3) == math.ceil(math.log(5.0) / 0.18)

    @pytest.mark.parametrize("t", [1e-200, 1e-160])
    def test_threshold_whose_bound_passes_the_float_range_rejected_by_name(self, t):
        """2 t^2 underflowing to 0, or a quotient past the largest double, is
        a ValueError naming t, not a ZeroDivisionError or an OverflowError."""
        with pytest.raises(ValueError, match=f"^t {t} with delta 0.1 gives"):
            sample_bound_from_threshold(0.1, t)
        with pytest.raises(ValueError, match=f"^t {t} with delta 0.1 gives"):
            crossover_analysis([0.1], [0.3, t])

    def test_divergence_whose_bound_passes_the_float_range_rejected_by_name(self):
        with pytest.raises(ValueError, match="^divergence 1e-320 with delta 0.1 gives"):
            chernoff_stein_samples(0.1, 1e-320)

    @given(delta=st.floats(0.01, 0.9), tv=st.floats(0.01, 0.5))
    def test_two_bound_paths_consistent(self, delta, tv):
        assert chernoff_stein_samples(delta, 2.0 * tv * tv) == sample_bound_from_threshold(delta, tv)


class TestDistinguishability:
    def test_degenerate_gaps(self):
        report = distinguishability_report(1.0, 1.0, 1.0, 4, 0.1)
        assert report.lhs == 0.0
        assert not report.satisfied

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            distinguishability_report(0.5, 1.0, 1.0, 4, 0.1)

    def test_odd_machine_rejected(self):
        with pytest.raises(ValueError):
            distinguishability_report(1.0, 0.5, 1.0, 3, 0.1)

    def test_closed_form(self):
        e1, e2, beta_m, n = 2.0, 0.5, 1.0, 4
        report = distinguishability_report(e1, e2, beta_m, n, 0.1)
        z1 = 1.0 + math.exp(-beta_m * e1)
        z2 = 1.0 + math.exp(-beta_m * e2)
        expected = z1 ** -n - (z1 ** (-n / 2)) * (z2 ** (-n / 2))
        assert report.lhs == pytest.approx(expected, abs=1e-15)

    def test_population_gap_identity_at_maximally_mixed_probe(self):
        # lhs differs from twice the population gap by exactly chi/(Zc*Zb).
        e1, e2, beta_m, n = 2.0, 0.8, 1.0, 4
        report = distinguishability_report(e1, e2, beta_m, n, 0.05)
        probe = ThermalQubit(1.0, 0.0)
        const = build_dj_oracle(BooleanFunctionTable.constant(2, 1), e1, e2, beta_m)
        table = BooleanFunctionTable(2, (0, 0, 1, 1))
        balanced = build_dj_oracle(table, e1, e2, beta_m)
        gap = kickback_outcome(probe, const).delta_p0 - kickback_outcome(probe, balanced).delta_p0
        z_product = math.exp(const.log_partition_function + balanced.log_partition_function)
        assert 2.0 * gap == pytest.approx(report.lhs + report.chi / z_product, abs=1e-15)
        assert abs(report.lhs - 2.0 * gap) <= abs(report.chi)

    def test_satisfied_implies_population_gap(self):
        e1, e2, beta_m, n, t = 2.8, 0.45, 1.0, 4, 0.2
        report = distinguishability_report(e1, e2, beta_m, n, t)
        assert report.satisfied
        probe = ThermalQubit(1.0, 0.0)
        const = build_dj_oracle(BooleanFunctionTable.constant(2, 1), e1, e2, beta_m)
        table = BooleanFunctionTable(2, (0, 0, 1, 1))
        balanced = build_dj_oracle(table, e1, e2, beta_m)
        gap = kickback_outcome(probe, const).p0_after - kickback_outcome(probe, balanced).p0_after
        assert gap > t - abs(report.chi)

    def test_scalar_fields_are_python_scalars(self):
        report = distinguishability_report(2.0, 0.5, 1.0, 4, 0.1)
        assert (type(report.lhs), type(report.chi), type(report.satisfied)) == (float, float, bool)

    @pytest.mark.parametrize("beta_m", [1.0, -1.0])
    def test_array_call_equals_scalar_calls(self, beta_m):
        """One call over the default figure grid gives each cell's scalar report bit for bit."""
        defaults = build_parser().parse_args(["distinguishability"])
        e1_values = parse_values(defaults.e1_grid)
        e2_values = parse_values(defaults.e2_grid)
        n, e1, e2 = np.meshgrid(parse_int_list(defaults.n_qubits), e1_values, e2_values, indexing="ij")
        keep = e1 >= e2
        n, e1, e2 = n[keep], e1[keep], e2[keep]
        t = defaults.t
        report = distinguishability_report(e1, e2, beta_m, n, t)
        assert report.t_threshold == t
        scalar = [distinguishability_report(a, b, beta_m, int(m), t)
                  for m, a, b in zip(n.tolist(), e1.tolist(), e2.tolist())]
        assert report.lhs == [r.lhs for r in scalar]
        assert report.chi == [r.chi for r in scalar]
        assert report.satisfied == [r.satisfied for r in scalar]
        assert len(report.lhs) == keep.sum() > 0

    def test_array_call_reports_every_cell_of_the_broadcast_shape(self):
        report = distinguishability_report(np.array([1.0, 2.0]), 0.5, 1.0, np.array([[2], [4]]), 0.1)
        assert report.lhs[1][0] == distinguishability_report(1.0, 0.5, 1.0, 4, 0.1).lhs
        assert np.shape(report.chi) == np.shape(report.satisfied) == (2, 2)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.inf, 1.0, 1.0, 4, 0.1), "e1"),
            ((math.nan, 1.0, 1.0, 4, 0.1), "e1"),
            ((1.0, math.nan, 1.0, 4, 0.1), "e2"),
            ((np.array([1.0, math.inf]), 0.5, 1.0, 4, 0.1), "e1"),
            ((1.0, 0.5, math.nan, 4, 0.1), "beta_m"),
            ((1.0, 0.5, 1.0, 4, math.inf), "t"),
        ],
    )
    def test_non_finite_input_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            distinguishability_report(*args)

    def test_overflowing_chi_rejects_the_whole_call(self):
        with pytest.raises(ValueError, match="chi overflows a double at beta_m = -800.0"):
            distinguishability_report(np.array([1.0, 2.0]), 0.5, -800.0, 2, 0.1)


class TestLikelihoodRatioTest:
    def test_tie_goes_to_balanced(self):
        h = BinaryDistribution(0.5)
        assert likelihood_ratio_test([0], h, h) is Decision.BALANCED

    def test_zero_likelihood_elimination(self):
        constant = BinaryDistribution(1.0)  # point mass on ground
        balanced = BinaryDistribution(0.75)
        assert likelihood_ratio_test([0, 0, 1], balanced, constant) is Decision.BALANCED

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            likelihood_ratio_test([], BinaryDistribution(0.5), BinaryDistribution(0.6))

    def test_counts_drive_decision(self):
        balanced = BinaryDistribution(0.6)
        constant = BinaryDistribution(0.9)
        assert likelihood_ratio_test([0] * 9 + [1], balanced, constant) is Decision.CONSTANT
        assert likelihood_ratio_test([0, 1] * 5, balanced, constant) is Decision.BALANCED

    @pytest.mark.parametrize("samples", [[0, 2, 1], [-1, 0], [0.5], [math.nan], [0, 1, math.nan]])
    def test_non_binary_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="0 .ground. or 1 .excited."):
            likelihood_ratio_test(samples, BinaryDistribution(0.6), BinaryDistribution(0.9))

    def test_booleans_accepted(self):
        balanced = BinaryDistribution(0.6)
        constant = BinaryDistribution(0.9)
        for samples in ([0] * 9 + [1], [0, 1] * 5):
            assert likelihood_ratio_test(np.array(samples, dtype=bool), balanced, constant) is (
                likelihood_ratio_test(samples, balanced, constant)
            )


class TestMonteCarloReadout:
    # (true p0, balanced p0, constant p0, n_samples, trials): hypotheses at the
    # support edges, equal hypotheses, a truth matching neither, large and
    # small sample counts and a range of trial counts.
    BLOCK_CASES = [
        (0.85, 0.8, 0.9, 116, 1000),
        (0.9, 0.8, 0.9, 116, 70),
        (0.8, 0.8, 1.0, 5, 300),
        (1.0, 0.6, 1.0, 4, 100),
        (0.0, 0.0, 0.3, 3, 50),
        (0.3, 0.0, 0.3, 3, 50),
        (0.2, 1.0, 0.0, 2, 40),
        (0.7, 0.7, 0.7, 10, 100),
        (0.5, 0.8, 0.9, 40, 333),
        (0.85, 0.8, 0.9, 1, 10_000),
        (0.85, 0.8, 0.9, 8191, 3),
        (0.85, 0.8, 0.9, 8192, 3),
        (0.52, 0.5, 0.55, 9000, 4),
        (0.5, 0.5, 0.51, 300, 61),
    ]

    @pytest.mark.parametrize("true_p0,bal_p0,const_p0,n_samples,trials", BLOCK_CASES)
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
    def test_block_path_matches_per_trial_loop(self, true_p0, bal_p0, const_p0, n_samples, trials, seed):
        """The report equals a loop that draws each trial's count alone and
        tests the samples that count spells out."""
        args = (BinaryDistribution(true_p0), BinaryDistribution(bal_p0), BinaryDistribution(const_p0),
                n_samples, trials, seed)
        assert monte_carlo_readout(*args) == per_trial_count_readout(*args)

    @pytest.mark.parametrize("block", [1, 7, 99, 100, 101])
    def test_counts_across_block_boundaries(self, monkeypatch, block):
        """Blocks of any size draw the counts of one rng.binomial call."""
        bal, const = BinaryDistribution(0.8), BinaryDistribution(0.9)
        n1 = np.random.default_rng(5).binomial(40, const.p1, 100)
        log_bal, log_const = ((40 - n1) * math.log(h.p0) + n1 * math.log(h.p1) for h in (bal, const))
        balanced = np.count_nonzero(log_bal >= log_const)
        whole = monte_carlo_readout(const, bal, const, n_samples=40, trials=100, seed=5)
        monkeypatch.setattr(readout, "_BLOCK_TRIALS", block)
        blocked = monte_carlo_readout(const, bal, const, n_samples=40, trials=100, seed=5)
        assert blocked == whole
        assert blocked.empirical_false_positive == balanced / 100

    def test_both_readouts_match_the_exact_error(self):
        """At n* = 116 and 10^4 trials, the count draw and the per-sample
        uniform draw both lie within 5 sigma of the exact binomial error."""
        bal, const = BinaryDistribution(0.8), BinaryDistribution(0.9)
        n, trials = sample_bound_from_threshold(0.1, 0.1), 10_000
        assert n == 116
        exact = exact_lrt_error(const.p0, bal.p0, const.p0, n, decide_hyp_when="ge")
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        for report in (monte_carlo_readout(const, bal, const, n, trials, seed=41),
                       per_trial_readout(const, bal, const, n, trials, seed=41)):
            assert abs(report.empirical_false_positive - exact) <= 5.0 * sigma

    @pytest.mark.parametrize("n_samples", [2**63, 10**30])
    def test_sample_count_past_int64_rejected(self, n_samples):
        args = (BinaryDistribution(0.85), BinaryDistribution(0.8), BinaryDistribution(0.9))
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_readout(*args, n_samples=n_samples, trials=10, seed=1)
        report = monte_carlo_readout(*args, n_samples=2**63 - 1, trials=10, seed=1)
        assert report.n_samples == 2**63 - 1

    @pytest.mark.parametrize("field,value", [
        ("n_samples", True), ("n_samples", 3.0), ("n_samples", "5"),
        ("trials", False), ("trials", 3.7), ("trials", np.float64(4.0)),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = dict(true_dist=BinaryDistribution(0.85), hyp_balanced=BinaryDistribution(0.8),
                      hyp_constant=BinaryDistribution(0.9), n_samples=5, trials=10, seed=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            monte_carlo_readout(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        args = (BinaryDistribution(0.85), BinaryDistribution(0.8), BinaryDistribution(0.9))
        report = monte_carlo_readout(*args, n_samples=np.int64(20), trials=np.int32(30), seed=3)
        assert report == per_trial_count_readout(*args, 20, 30, 3)

    def test_point_mass_hypothesis_bound_is_one_sample(self):
        report = monte_carlo_readout(BinaryDistribution(0.8), BinaryDistribution(0.8),
                                     BinaryDistribution(1.0), n_samples=5, trials=50, seed=2)
        assert report.divergence == math.inf
        assert report.chernoff_stein_bound == 1

    def test_identical_seeds_identical_reports(self):
        kwargs = dict(
            true_dist=BinaryDistribution(0.85),
            hyp_balanced=BinaryDistribution(0.8),
            hyp_constant=BinaryDistribution(0.9),
            n_samples=50,
            trials=200,
            seed=11,
        )
        assert monte_carlo_readout(**kwargs) == monte_carlo_readout(**kwargs)

    def test_indistinguishable_hypotheses_artifact(self):
        d = BinaryDistribution(0.7)
        report = monte_carlo_readout(d, d, d, n_samples=10, trials=100, seed=4)
        # Every trial ties, the tie rule answers BALANCED, and with the truth
        # labelled constant that counts as an error every time.
        assert report.empirical_false_positive == 1.0
        assert report.divergence == 0.0
        assert report.chernoff_stein_bound == math.inf

    def test_report_invariants(self):
        report = monte_carlo_readout(
            BinaryDistribution(0.9),
            BinaryDistribution(0.8),
            BinaryDistribution(0.9),
            n_samples=116,
            trials=500,
            seed=5,
            delta=0.1,
        )
        assert report.divergence >= report.pinsker_lower >= 0.0
        assert report.chernoff_stein_bound == math.ceil(math.log(10.0) / report.divergence)

    def test_false_positive_matches_exact_binomial(self):
        bal, const = 0.8, 0.9
        n, trials = 116, 4000
        report = monte_carlo_readout(
            BinaryDistribution(const),
            BinaryDistribution(bal),
            BinaryDistribution(const),
            n_samples=n,
            trials=trials,
            seed=21,
        )
        exact = exact_lrt_error(const, bal, const, n, decide_hyp_when="ge")
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(report.empirical_false_positive - exact) <= 4.0 * sigma

    def test_false_negative_matches_exact_binomial(self):
        bal, const = 0.8, 0.9
        n, trials = 60, 4000
        report = monte_carlo_readout(
            BinaryDistribution(bal),
            BinaryDistribution(bal),
            BinaryDistribution(const),
            n_samples=n,
            trials=trials,
            seed=22,
        )
        exact = exact_lrt_error(bal, bal, const, n, decide_hyp_when="lt")
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(report.empirical_false_positive - exact) <= 4.0 * sigma

    def test_error_rate_controlled_at_chernoff_stein_bound(self):
        # Sampling from the balanced hypothesis with the bound-sized sample:
        # the empirical error stays below twice the target rate.
        bal, const = BinaryDistribution(0.8), BinaryDistribution(0.9)
        delta = 0.1
        bound = chernoff_stein_samples(delta, relative_entropy(bal, const))
        report = monte_carlo_readout(
            bal, bal, const, n_samples=bound, trials=10_000, seed=31, delta=delta
        )
        exact = exact_lrt_error(bal.p0, bal.p0, const.p0, bound, decide_hyp_when="lt")
        assert exact < 2.0 * delta
        assert report.empirical_false_positive < 2.0 * delta


class TestClassicalBaselines:
    def test_with_replacement_values(self):
        assert classical_with_replacement_error(1) == 1.0
        assert classical_with_replacement_error(2) == 0.5
        assert classical_with_replacement_error(11) == 2.0 ** -10

    def test_without_replacement_hand_enumeration(self):
        assert classical_without_replacement_error(2, 2) == 1.0 / 3.0

    def test_pigeonhole_zero(self):
        for n in (2, 3, 5):
            assert classical_without_replacement_error(n, (1 << (n - 1)) + 1) == 0.0

    def test_without_replacement_below_with_replacement(self):
        for n in range(2, 21):
            for k in range(1, min(10, 1 << n) + 1):
                delta = classical_with_replacement_error(k)
                delta_prime = classical_without_replacement_error(n, k)
                assert delta_prime <= delta + 1e-15

    def test_gap_shrinks_monotonically_in_n(self):
        for k in range(1, 11):
            gaps = [
                classical_with_replacement_error(k) - classical_without_replacement_error(n, k)
                for n in range(2, 21)
                if k <= (1 << n)
            ]
            assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_converges_to_with_replacement(self):
        delta = classical_with_replacement_error(10)
        delta_prime = classical_without_replacement_error(20, 10)
        assert delta_prime == pytest.approx(delta, rel=1e-3)

    def test_sample_complexity(self):
        assert classical_sample_complexity(0.5) == 2
        assert classical_sample_complexity(0.1) == 5
        assert classical_sample_complexity(2.0 ** -10) == 11

    def test_large_n_log_gamma_path(self):
        value = classical_without_replacement_error(30, 5)
        assert 0.0 < value <= classical_with_replacement_error(5)


class TestCrossoverAnalysis:
    def test_crossover_at_one_tenth(self):
        row = crossover_analysis([0.1], [0.1])[0]
        assert row.n_star == 116
        assert row.k_classical == 5
        assert row.n_crossover == 8
        assert deterministic_classical_queries(8) == 129
        assert not row.thermal_beats_probabilistic

    def test_thermal_never_beats_at_small_t(self):
        for row in crossover_analysis([0.01, 0.1, 0.3], [0.1]):
            assert row.n_star > 10 * row.k_classical

    def test_asymptotic_crossover_near_announced_threshold(self):
        t_star = math.sqrt(math.log(2.0) / 2.0)  # ~0.5887
        row = crossover_analysis([1e-6], [t_star])[0]
        assert abs(row.n_star - row.k_classical) <= 1

    def test_moderate_delta_crossover_location(self):
        ts = [round(0.50 + 0.01 * i, 2) for i in range(11)]
        table = crossover_analysis([0.1], ts)
        winning = [row.t for row in table if row.thermal_beats_probabilistic]
        assert winning, "expected a crossover inside the grid"
        assert 0.52 < min(winning) < 0.56

    def test_csv_format(self, tmp_path):
        # The table's CSV form is the sample-complexity subcommand's output.
        out = tmp_path / "table.csv"
        assert main(["sample-complexity", "--delta-grid", "0.1", "--t-grid", "0.1,0.55",
                     "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == ("delta,t,n_star,k_classical,n_mixed_query,"
                            "n_crossover,thermal_beats_probabilistic")
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "116"

    def test_crossover_is_the_smallest_size_where_n_star_wins(self):
        table = crossover_analysis(np.linspace(0.001, 0.999, 37), np.linspace(0.001, 0.99, 41))
        for row in table:
            assert deterministic_classical_queries(row.n_crossover) > row.n_star
            assert row.n_crossover == 1 or deterministic_classical_queries(row.n_crossover - 1) <= row.n_star

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            crossover_analysis([], [0.1])
        with pytest.raises(ValueError):
            crossover_analysis([0.1], [1.2])
