import math

import pytest

from conftest import reference_kickback_ground_population
from thermoquery.problems import (
    BVInstance,
    ClassicalSolveResult,
    DJInstance,
    PromiseViolationError,
    constant_functions,
    dj_gap_magnitude,
    enumerate_balanced_functions,
    hamming_weight_population,
    solve_dj_deterministic_classical,
)
from thermoquery.query import QueryMask, kickback_outcome
from thermoquery.readout import deterministic_classical_queries
from thermoquery.thermal import (
    BooleanFunctionTable,
    Classification,
    ThermalQubit,
    build_bv_oracle,
    build_dj_oracle,
)


class TestEnumeration:
    def test_one_bit(self):
        tables = [inst.function.outputs for inst in enumerate_balanced_functions(1)]
        assert sorted(tables) == [(0, 1), (1, 0)]

    def test_counts(self):
        assert sum(1 for _ in enumerate_balanced_functions(2)) == 6
        assert sum(1 for _ in enumerate_balanced_functions(3)) == 70

    def test_limit(self):
        assert sum(1 for _ in enumerate_balanced_functions(3, limit=5)) == 5

    def test_every_instance_is_balanced(self):
        for inst in enumerate_balanced_functions(2):
            assert inst.classification is Classification.BALANCED

    def test_too_large(self):
        with pytest.raises(ValueError):
            list(enumerate_balanced_functions(5))

    def test_constants(self):
        c0, c1 = constant_functions(2)
        assert c0.classification is Classification.CONSTANT0
        assert c1.function.outputs == (1, 1, 1, 1)


class TestInstances:
    def test_dj_instance_validates_classification(self):
        table = BooleanFunctionTable(1, (0, 1))
        with pytest.raises(ValueError):
            DJInstance(table, Classification.CONSTANT0)

    def test_dj_instance_rejects_promise_violation(self):
        table = BooleanFunctionTable(2, (1, 0, 0, 0))
        with pytest.raises(PromiseViolationError):
            DJInstance.from_table(table)

    def test_bv_instance_weight(self):
        assert BVInstance.from_secret("1011").hamming_weight == 3
        with pytest.raises(ValueError):
            BVInstance("101", 1)


class TestGapMagnitude:
    def test_values(self):
        assert dj_gap_magnitude(Classification.CONSTANT1, 4, 1.0, 0.5) == 4.0
        assert dj_gap_magnitude(Classification.CONSTANT0, 4, 1.0, 0.5) == 2.0
        assert dj_gap_magnitude(Classification.BALANCED, 4, 1.0, 0.5) == 3.0

    def test_odd_balanced_rejected(self):
        with pytest.raises(ValueError):
            dj_gap_magnitude(Classification.BALANCED, 3, 1.0, 0.5)

    def test_agrees_with_built_oracles(self):
        # Dyadic gaps make every partial sum exact, so the two totals must be equal.
        for n in (1, 2, 3):
            instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
            for gap_one, gap_zero in ((2.0, 1.0), (0.75, 1.5), (0.125, 3.25)):
                for inst in instances:
                    oracle = build_dj_oracle(inst.function, gap_one, gap_zero, 1.0)
                    expected = dj_gap_magnitude(inst.classification, 1 << n, gap_one, gap_zero)
                    assert oracle.gap_vector.total == expected


class TestHammingWeightPopulation:
    def test_zero_secret_maximally_mixed_probe(self):
        probe = ThermalQubit(1.0, 0.0)
        value = hamming_weight_population(BVInstance.from_secret("000"), 1.0, probe, 1.0)
        assert value == 0.5

    def test_full_secret_closed_form(self):
        probe = ThermalQubit(1.0, 0.0)
        value = hamming_weight_population(BVInstance.from_secret("111"), 1.0, probe, 1.0)
        zf = (1.0 + math.exp(-1.0)) ** 3
        expected = (1.0 + (1.0 - math.exp(-3.0)) / zf) / 2.0
        assert value == pytest.approx(expected, abs=1e-14)
        oracle = build_bv_oracle("111", 1.0, 1.0)
        assert value == pytest.approx(
            reference_kickback_ground_population(probe, oracle, (1, 1, 1)), abs=1e-12
        )

    def test_monotone_in_weight_under_cooling(self):
        probe = ThermalQubit(1.0, 0.0)
        values = [
            hamming_weight_population(BVInstance.from_secret(s), 1.0, probe, 1.0)
            for s in ("000", "100", "110", "111")
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_kickback_specialization(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            secret = "".join(str(b) for b in rng.integers(0, 2, n))
            gamma = float(rng.uniform(0.2, 1.5))
            beta_m = float(rng.uniform(0.1, 1.5))
            probe = ThermalQubit(float(rng.uniform(0.25, 2.0)), float(rng.uniform(-1.2, 1.2)))
            analytic = hamming_weight_population(BVInstance.from_secret(secret), gamma, probe, beta_m)
            oracle = build_bv_oracle(secret, gamma, beta_m)
            outcome = kickback_outcome(probe, oracle, QueryMask.all_ones(n))
            assert abs(analytic - outcome.p0_after) <= 1e-14

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            hamming_weight_population(BVInstance.from_secret("1"), 0.0, ThermalQubit(1.0, 0.0), 1.0)


class TestClassicalSolver:
    def test_constant_worst_case(self):
        result = solve_dj_deterministic_classical(BooleanFunctionTable.constant(3, 0))
        assert result == ClassicalSolveResult(Classification.CONSTANT0, 5)

    def test_early_exit(self):
        table = BooleanFunctionTable(3, (0, 1, 0, 1, 0, 1, 0, 1))
        result = solve_dj_deterministic_classical(table)
        assert result.classification is Classification.BALANCED
        assert result.queries == 2

    def test_exhaustive_small_instances(self):
        # The worst case over every table is the paper's 2^{n-1} + 1. A balanced
        # table reaches it only when its first 2^{n-1} outputs agree.
        for n in (1, 2, 3, 4):
            worst = deterministic_classical_queries(n)
            most = 0
            instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
            for inst in instances:
                result = solve_dj_deterministic_classical(inst.function)
                assert result.classification is inst.classification
                first_half_agrees = len(set(inst.function.outputs[: worst - 1])) == 1
                assert (result.queries == worst) == first_half_agrees
                most = max(most, result.queries)
            assert most == worst

    def test_promise_violation_flagged(self):
        with pytest.raises(PromiseViolationError):
            solve_dj_deterministic_classical(BooleanFunctionTable(2, (1, 0, 0, 0)))

