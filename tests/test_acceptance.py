"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Randomized criteria use fixed seeds and the documented parameter
ranges so every run is reproducible.
"""

import math
import time
from itertools import islice

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom

import thermoquery.exactsim as exactsim
from thermoquery.cli import build_parser, parse_int_list, parse_values
from thermoquery.detuning import (
    ExperimentConfig,
    bv3_sweep,
    detuned_probe_temperature,
    flip_probability,
    suppression_factor,
)
from thermoquery.problems import constant_functions, enumerate_balanced_functions
from thermoquery.query import (
    QueryMask,
    Regime,
    classify_regime,
    kickback_outcome,
    sensitivity_check,
    swap_query,
)
from thermoquery.readout import (
    BinaryDistribution,
    classical_sample_complexity,
    classical_with_replacement_error,
    classical_without_replacement_error,
    crossover_analysis,
    distinguishability_report,
    monte_carlo_readout,
    relative_entropy,
    sample_bound_from_threshold,
    total_variation,
)
from thermoquery.thermal import (
    BooleanFunctionTable,
    ThermalQubit,
    build_bv_oracle,
    build_dj_oracle,
    inverse_temperature_from_population,
)
from thermoquery.verify import PARAMETER_RANGES

SEED = 20251015


def _uniform(rng, key):
    low, high = PARAMETER_RANGES[key]
    return float(rng.uniform(low, high))


def _sample_probe(rng):
    return ThermalQubit(_uniform(rng, "omega"), _uniform(rng, "beta_s"))


def _exact_kickback_p0(probe, oracle, mask):
    state = exactsim.build_joint_state(probe, oracle)
    a, b = exactsim.kickback_level_indices(mask, oracle.n_machine_qubits)
    return exactsim.probe_marginal(exactsim.apply_level_exchange(state, a, b)).p0


def _passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_oracle_equivalence_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = {"p0": 0.0, "delta": 0.0, "beta": 0.0}
    cases = 0
    for n in (1, 2, 3):
        instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
        for instance in instances:
            for _ in range(100):
                probe = _sample_probe(rng)
                oracle = build_dj_oracle(
                    instance.function, _uniform(rng, "gap"), _uniform(rng, "gap"),
                    _uniform(rng, "beta_m"),
                )
                outcome = kickback_outcome(probe, oracle)
                state = exactsim.build_joint_state(probe, oracle)
                mask = QueryMask.all_ones(oracle.n_machine_qubits)
                a, b = exactsim.kickback_level_indices(mask, oracle.n_machine_qubits)
                after = exactsim.apply_level_exchange(state, a, b)
                exact_p0 = exactsim.probe_marginal(after).p0
                exact_before = exactsim.probe_marginal(state).p0
                worst["p0"] = max(worst["p0"], abs(outcome.p0_after - exact_p0))
                worst["delta"] = max(
                    worst["delta"], abs(outcome.delta_p0 - (exact_p0 - exact_before))
                )
                if outcome.beta_after is not None:
                    exact_beta = inverse_temperature_from_population(exact_p0, probe.gap)
                    worst["beta"] = max(worst["beta"], abs(outcome.beta_after - exact_beta))
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == (2 + 2) * 100 + (6 + 2) * 100 + (70 + 2) * 100
    assert worst["p0"] <= 1e-12
    assert worst["delta"] <= 1e-12
    assert worst["beta"] <= 1e-12
    assert elapsed < 10.0
    _passed(1, f"{cases} cases, max errors p0={worst['p0']:.2e} "
               f"delta={worst['delta']:.2e} beta={worst['beta']:.2e}, {elapsed:.2f}s")


def test_criterion_01_oracle_equivalence_at_n4():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    instances = list(constant_functions(4)) + list(islice(enumerate_balanced_functions(4), 64))
    worst = {"kickback": 0.0, "mask": 0.0, "swap": 0.0}
    for instance in instances:
        probe = _sample_probe(rng)
        oracle = build_dj_oracle(
            instance.function, _uniform(rng, "gap"), _uniform(rng, "gap"), _uniform(rng, "beta_m")
        )
        state = exactsim.build_joint_state(probe, oracle)
        assert state.size == 1 << 17
        random_mask = QueryMask(tuple(int(b) for b in rng.integers(0, 2, 16)))
        cases = (
            ("kickback", QueryMask.all_ones(16), kickback_outcome(probe, oracle)),
            ("mask", random_mask, kickback_outcome(probe, oracle, random_mask)),
        )
        for key, mask, closed_form in cases:
            a, b = exactsim.kickback_level_indices(mask, 16)
            exact_p0 = exactsim.probe_marginal(exactsim.apply_level_exchange(state, a, b)).p0
            worst[key] = max(worst[key], abs(closed_form.p0_after - exact_p0))
        x = int(rng.integers(0, 16))
        swapped = exactsim.probe_marginal(exactsim.apply_swap_with_machine_qubit(state, x)).p0
        taken = swap_query(probe, oracle, x).probe.ground_population
        worst["swap"] = max(worst["swap"], abs(taken - swapped))
    elapsed = time.perf_counter() - started
    assert len(instances) == 66
    assert max(worst.values()) <= 1e-12
    assert elapsed < 10.0
    _passed("1 (n=4)", f"{len(instances)} 17-qubit tables, max errors kickback="
                       f"{worst['kickback']:.2e} mask={worst['mask']:.2e} "
                       f"swap={worst['swap']:.2e}, {elapsed:.2f}s")


def test_criterion_02_general_mask_suite():
    rng = np.random.default_rng(SEED + 1)
    worst_exact = 0.0
    worst_reduction = 0.0
    for kind in ("dj", "bv"):
        for _ in range(200):
            if kind == "dj":
                n = int(rng.integers(1, 4))
                instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
                instance = instances[int(rng.integers(0, len(instances)))]
                oracle = build_dj_oracle(
                    instance.function, _uniform(rng, "gap"), _uniform(rng, "gap"),
                    _uniform(rng, "beta_m"),
                )
            else:
                n = int(rng.integers(1, 7))
                secret = "".join(str(b) for b in rng.integers(0, 2, n))
                oracle = build_bv_oracle(secret, _uniform(rng, "gamma"), _uniform(rng, "beta_m"))
            probe = _sample_probe(rng)
            n_machine = oracle.n_machine_qubits
            mask = QueryMask(tuple(int(b) for b in rng.integers(0, 2, n_machine)))
            outcome = kickback_outcome(probe, oracle, mask)
            exact_p0 = _exact_kickback_p0(probe, oracle, mask)
            worst_exact = max(worst_exact, abs(outcome.p0_after - exact_p0))
            if outcome.beta_after is not None:
                exact_beta = inverse_temperature_from_population(exact_p0, probe.gap)
                worst_exact = max(worst_exact, abs(outcome.beta_after - exact_beta))
            specialized = kickback_outcome(probe, oracle)
            general = kickback_outcome(probe, oracle, QueryMask.all_ones(n_machine))
            worst_reduction = max(worst_reduction, abs(specialized.p0_after - general.p0_after))
            if specialized.beta_after is not None:
                worst_reduction = max(
                    worst_reduction, abs(specialized.beta_after - general.beta_after)
                )
    assert worst_exact <= 1e-12
    assert worst_reduction <= 1e-14
    _passed(2, f"400 masked exchanges, max vs exact {worst_exact:.2e}, "
               f"all-ones reduction {worst_reduction:.2e}")


def test_criterion_03_sample_bound_and_crossover():
    assert sample_bound_from_threshold(0.1, 0.1) == 116
    row = crossover_analysis([0.1], [0.1])[0]
    # First problem size where the thermal sample count beats the
    # deterministic classical query count: 2^{8-1}+1 = 129 > 116 while
    # 2^{7-1}+1 = 65 <= 116, so the crossover integer recorded here is 8
    # ("advantage for n > 8" counts strictly beyond it; both readings pin
    # the same boundary).
    assert row.n_crossover in (8, 9)
    assert row.n_crossover == 8
    assert (1 << 7) + 1 == 129 > 116 > (1 << 6) + 1
    _passed(3, "sample bound 116 at delta=t=0.1; crossover recorded at n=8 (129 > 116)")


def test_criterion_04_mixed_query_divergence():
    value = relative_entropy(BinaryDistribution(1.0), BinaryDistribution(0.75))
    assert abs(value - math.log(4.0 / 3.0)) <= 1e-14
    _passed(4, f"D((1,0)||(3/4,1/4)) = {value:.15f} = log(4/3)")


def test_criterion_05_monte_carlo_achievability():
    started = time.perf_counter()
    # Two-bit instance tuned so the constant/balanced population gap is
    # exactly t = 0.1: maximally mixed probe, beta_M = 1, E1 = 3, E2 solved.
    probe = ThermalQubit(1.0, 0.0)
    const_instance = constant_functions(2)[1]
    balanced_instance = next(enumerate_balanced_functions(2))

    def populations(gap_zero):
        o_const = build_dj_oracle(const_instance.function, 3.0, gap_zero, 1.0)
        o_bal = build_dj_oracle(balanced_instance.function, 3.0, gap_zero, 1.0)
        return (
            kickback_outcome(probe, o_const).p0_after,
            kickback_outcome(probe, o_bal).p0_after,
        )

    gap_zero = brentq(lambda e2: populations(e2)[0] - populations(e2)[1] - 0.1, 0.3, 2.95,
                      xtol=1e-14)
    p_const, p_bal = populations(gap_zero)
    hyp_constant = BinaryDistribution(p_const)
    hyp_balanced = BinaryDistribution(p_bal)
    assert abs(total_variation(hyp_balanced, hyp_constant) - 0.1) <= 1e-12

    n_samples = sample_bound_from_threshold(0.1, 0.1)
    assert n_samples == 116
    trials = 10_000
    report = monte_carlo_readout(
        true_dist=hyp_constant,
        hyp_balanced=hyp_balanced,
        hyp_constant=hyp_constant,
        n_samples=n_samples,
        trials=trials,
        seed=SEED,
        delta=0.1,
    )
    sigma = math.sqrt(0.1 * 0.9 / trials)
    assert report.empirical_false_positive <= 0.1 + 3.0 * sigma

    # Independent oracle: exact decision-error by binomial enumeration.
    l0 = math.log(p_bal / p_const)
    l1 = math.log((1.0 - p_bal) / (1.0 - p_const))
    ks = np.arange(n_samples + 1)
    deciding_balanced = ks * l0 + (n_samples - ks) * l1 >= 0
    exact = float(binom.pmf(ks, n_samples, p_const)[deciding_balanced].sum())
    assert exact <= 0.1
    exact_sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(report.empirical_false_positive - exact) <= 4.0 * exact_sigma

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(5, f"false-positive {report.empirical_false_positive:.4f} "
               f"(exact {exact:.4f}) <= 0.1 + 3 sigma, {elapsed:.1f}s")


def test_criterion_06_classical_baseline_identities():
    for k in range(1, 12):
        assert classical_with_replacement_error(k) == 2.0 ** (-(k - 1))
    assert classical_without_replacement_error(2, 2) == 1.0 / 3.0
    for k in range(1, 11):
        gaps = []
        # Sweep restricted to the operation's domain: without replacement one
        # cannot draw more than 2^n distinct strings, so k <= 2^n.
        for n in range(2, 21):
            if k > (1 << n):
                continue
            delta = classical_with_replacement_error(k)
            delta_prime = classical_without_replacement_error(n, k)
            assert delta_prime <= delta + 1e-15
            gaps.append(delta - delta_prime)
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    _passed(6, "2^{-(k-1)} exact, delta'(2,2)=1/3 exact, delta' <= delta with "
               "monotone convergence over n in [2,20], k in [1,10] (k <= 2^n)")


def test_criterion_07_distinguishability_figure():
    defaults = build_parser().parse_args(["distinguishability"])
    e1_values = parse_values(defaults.e1_grid)
    e2_values = parse_values(defaults.e2_grid)
    t = defaults.t
    max_lhs = 0.0
    worst_chi_ratio = 0.0
    satisfied_cells = 0
    for n in parse_int_list(defaults.n_qubits):
        for e1 in e1_values:
            for e2 in e2_values:
                if e1 < e2:
                    continue
                report = distinguishability_report(e1, e2, defaults.beta_m, n, t)
                max_lhs = max(max_lhs, report.lhs)
                if report.satisfied:
                    satisfied_cells += 1
                    worst_chi_ratio = max(worst_chi_ratio, abs(report.chi) / (2.0 * t))
    assert max_lhs <= 0.5
    assert max_lhs >= 0.4
    assert satisfied_cells > 0
    assert worst_chi_ratio < 0.10
    _passed(7, f"max lhs {max_lhs:.4f} in [0.4, 0.5]; "
               f"|chi|/(2t) <= {worst_chi_ratio:.4%} on {satisfied_cells} satisfied cells")


def test_criterion_08_regime_and_sensitivity_consistency():
    rng = np.random.default_rng(SEED + 8)
    checked_sensitivity = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 3))
        instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
        instance = instances[int(rng.integers(0, len(instances)))]
        oracle = build_dj_oracle(
            instance.function, _uniform(rng, "gap"), _uniform(rng, "gap"), _uniform(rng, "beta_m")
        )
        probe = _sample_probe(rng)
        outcome = kickback_outcome(probe, oracle)
        label = classify_regime(probe, oracle)
        if outcome.delta_p0 > 0:
            assert label is Regime.COOLING
        elif outcome.delta_p0 < 0:
            assert label is Regime.HEATING
        else:
            assert label is Regime.NEUTRAL
        ceiling = 1.0 - outcome.p0_before
        report = sensitivity_check(probe, oracle, float(rng.uniform(0.25, 0.75)) * ceiling)
        if report.closed_form_precondition:
            assert report.tests_agree
            checked_sensitivity += 1
    assert checked_sensitivity > 500
    _passed(8, f"10000 tuples: regime == sign(delta_p0); closed-form sensitivity agreed "
               f"on all {checked_sensitivity} tuples where its precondition held")


def test_criterion_09_detuning_model():
    assert suppression_factor(1.0, 0.0) == 1.0
    for g in (0.3, 1.0, 3.0):
        for delta in np.linspace(-3.0, 3.0, 25):
            eta = suppression_factor(g, float(delta))
            for t in np.linspace(0.0, 20.0, 41):
                assert flip_probability(g, float(delta), float(t)) <= eta + 1e-12

    defaults = build_parser().parse_args(["detuning-sweep"])
    config = ExperimentConfig(
        machine_gaps=tuple(parse_values(defaults.gamma)),
        bias=defaults.epsilon,
        coupling=defaults.g,
        machine_inverse_temperature=defaults.beta_m,
    )
    sweep = bv3_sweep(config, np.linspace(0.0, 3.0, 61))
    assert len(sweep.secrets()) == 8
    assert sweep.min_pairwise_separation > 0.0

    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
        instance = instances[int(rng.integers(0, len(instances)))]
        oracle = build_dj_oracle(
            instance.function, _uniform(rng, "gap"), _uniform(rng, "gap"), _uniform(rng, "beta_m")
        )
        probe = _sample_probe(rng)
        outcome = kickback_outcome(probe, oracle)
        value = detuned_probe_temperature(probe, oracle, 1.0)
        if outcome.beta_after is not None and value is not None:
            worst = max(worst, abs(outcome.beta_after - value))
    assert worst <= 1e-10
    _passed(9, f"eta(0)=1, envelope holds on grid, 8 separated curves "
               f"(min separation {sweep.min_pairwise_separation:.2e}), "
               f"eta=1 path within {worst:.2e} of the kickback")


def test_criterion_10_kickback_figure_reproduction():
    const0, const1 = constant_functions(2)
    balanced = next(enumerate_balanced_functions(2))
    grid = np.linspace(0.0, 2.0, 41)
    separations = {}
    for beta_m in (2.0, 0.25):
        oracles = {
            name: build_dj_oracle(inst.function, 1.0, 0.5, beta_m)
            for name, inst in (("c0", const0), ("c1", const1), ("bal", balanced))
        }
        largest = 0.0
        for beta_s in grid:
            probe = ThermalQubit(1.0, float(beta_s))
            values = {
                name: kickback_outcome(probe, oracle).beta_after
                for name, oracle in oracles.items()
            }
            assert values["c0"] < values["bal"] < values["c1"]
            largest = max(largest, values["c1"] - values["c0"])
        separations[beta_m] = largest
    assert separations[0.25] < separations[2.0]
    _passed(10, f"balanced curve strictly between constants; max separation "
                f"{separations[0.25]:.4f} at beta_M=0.25 < {separations[2.0]:.4f} at beta_M=2")
