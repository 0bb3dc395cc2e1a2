import math
from itertools import combinations, islice

import pytest

from conftest import reference_kickback_ground_population
from thermoquery.problems import (
    BVInstance,
    DJInstance,
    PromiseViolationError,
    constant_functions,
    enumerate_balanced_functions,
    hamming_weight_population,
)
from thermoquery.query import QueryMask, kickback_outcome
from thermoquery.thermal import (
    BooleanFunctionTable,
    Classification,
    ThermalQubit,
    build_bv_oracle,
    build_dj_oracle,
    two_gap_machine,
)


class TestEnumeration:
    def test_one_bit(self):
        tables = [inst.function.outputs for inst in enumerate_balanced_functions(1)]
        assert sorted(tables) == [(0, 1), (1, 0)]

    def test_counts(self):
        assert sum(1 for _ in enumerate_balanced_functions(2)) == 6
        assert sum(1 for _ in enumerate_balanced_functions(3)) == 70

    def test_limit(self):
        """A prefix taken with islice is the first tables in lexicographic order of their ones."""
        prefix = [inst.function.outputs for inst in islice(enumerate_balanced_functions(3), 5)]
        expected = [tuple(int(i in ones) for i in range(8)) for ones in islice(combinations(range(8), 4), 5)]
        assert prefix == expected

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
        """The classification is read off the table; it cannot be stated."""
        for outputs, expected in (((0, 1), Classification.BALANCED), ((1, 1), Classification.CONSTANT1)):
            assert DJInstance(BooleanFunctionTable(1, outputs)).classification is expected
        with pytest.raises(TypeError):
            DJInstance(BooleanFunctionTable(1, (0, 1)), Classification.CONSTANT0)

    def test_dj_instance_rejects_promise_violation(self):
        table = BooleanFunctionTable(2, (1, 0, 0, 0))
        with pytest.raises(PromiseViolationError):
            DJInstance(table)

    def test_bv_instance_weight(self):
        """The weight is derived from the secret, once; it cannot be stated."""
        instance = BVInstance("1011")
        assert instance.hamming_weight == 3
        assert instance.__dict__["hamming_weight"] == 3
        assert BVInstance.from_secret("1011") == instance
        with pytest.raises(TypeError):
            BVInstance("101", 1)


class TestGapMagnitude:
    def test_agrees_with_built_oracles(self):
        # Dyadic gaps make every partial sum exact, so the two totals must be equal.
        for n in (1, 2, 3):
            instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
            for gap_one, gap_zero in ((2.0, 1.0), (0.75, 1.5), (0.125, 3.25)):
                for inst in instances:
                    oracle = build_dj_oracle(inst.function, gap_one, gap_zero, 1.0)
                    ones = sum(inst.function.outputs)
                    expected = two_gap_machine(ones, 1 << n, gap_one, gap_zero, 1.0)[0]
                    assert oracle.gap_vector.total == expected


class TestHammingWeightPopulation:
    def test_zero_secret_maximally_mixed_probe(self):
        probe = ThermalQubit(1.0, 0.0)
        value = hamming_weight_population(BVInstance("000"), 1.0, probe, 1.0)
        assert value == 0.5

    def test_full_secret_closed_form(self):
        probe = ThermalQubit(1.0, 0.0)
        value = hamming_weight_population(BVInstance("111"), 1.0, probe, 1.0)
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
            hamming_weight_population(BVInstance(s), 1.0, probe, 1.0)
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
            analytic = hamming_weight_population(BVInstance(secret), gamma, probe, beta_m)
            oracle = build_bv_oracle(secret, gamma, beta_m)
            outcome = kickback_outcome(probe, oracle, QueryMask.all_ones(n))
            assert abs(analytic - outcome.p0_after) <= 1e-14

    def test_zero_secret_takes_any_finite_beta(self):
        """As its oracle does: a zero secret has no gap for beta_M to multiply."""
        probe, oracle = ThermalQubit(1.0, 1.0), build_bv_oracle("0", 10.0, 1e308)
        value = hamming_weight_population(BVInstance("0"), 10.0, probe, 1e308)
        assert value == kickback_outcome(probe, oracle).p0_after

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            hamming_weight_population(BVInstance("1"), 0.0, ThermalQubit(1.0, 0.0), 1.0)

    @pytest.mark.parametrize(
        "gamma, beta_m, name",
        [
            (math.inf, 1.0, "gamma"),
            (math.nan, 1.0, "gamma"),
            (1.0, math.nan, "inverse temperature"),
            (1.0, math.inf, "inverse temperature"),
            (1.0, -math.inf, "inverse temperature"),
            (10.0, -1e308, r"^inverse temperature times gap must be finite, got -1e\+308 \* 10.0$"),
        ],
    )
    def test_non_finite_input_rejected(self, gamma, beta_m, name):
        """The same inputs that build_bv_oracle rejects, not a NaN or a finite value."""
        with pytest.raises(ValueError):
            build_bv_oracle("101", gamma, beta_m)
        with pytest.raises(ValueError, match=name):
            hamming_weight_population(BVInstance("101"), gamma, ThermalQubit(1.0, 0.5), beta_m)
