import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_kickback_ground_population, reference_swap, reference_swap_ground_population
from thermoquery.problems import constant_functions, enumerate_balanced_functions
from thermoquery.query import (
    NEUTRAL_TOLERANCE,
    QueryMask,
    Regime,
    classify_regime,
    kickback_outcome,
    kickback_shift,
    mixed_input_query,
    regime_sign,
    reset_costs,
    sensitivity_bound,
    sensitivity_check,
    shift_outcome,
    swap_query,
    temperature_defined,
)
from thermoquery.thermal import (
    BooleanFunctionTable,
    ThermalQubit,
    build_bv_oracle,
    build_custom_oracle,
    build_dj_oracle,
    inverse_temperature_from_population,
)

BALANCED_1BIT = BooleanFunctionTable(1, (0, 1))


def worked_example():
    """n=1 balanced, omega=1, beta_S=0, beta_M=1, E1=1, E2=0.5."""
    probe = ThermalQubit(1.0, 0.0)
    oracle = build_dj_oracle(BALANCED_1BIT, 1.0, 0.5, 1.0)
    return probe, oracle


def random_dj_case(rng):
    n = int(rng.integers(1, 4))
    instances = list(constant_functions(n)) + list(enumerate_balanced_functions(n))
    instance = instances[int(rng.integers(0, len(instances)))]
    oracle = build_dj_oracle(
        instance.function,
        float(rng.uniform(0.2, 2.0)),
        float(rng.uniform(0.2, 2.0)),
        float(rng.uniform(0.1, 1.5)),
    )
    probe = ThermalQubit(float(rng.uniform(0.25, 2.0)), float(rng.uniform(-1.2, 1.2)))
    return probe, oracle


class TestQueryMask:
    def test_all_ones(self):
        mask = QueryMask.all_ones(3)
        assert mask.bits == (1, 1, 1)

    def test_dot(self):
        assert QueryMask((1, 0, 1)).dot([1.0, 2.0, 4.0]) == 5.0

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryMask((1, 0)).dot([1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryMask(())
        with pytest.raises(ValueError):
            QueryMask((1, 2))


class TestSwapQuery:
    def test_returns_machine_qubit_verbatim(self):
        oracle = build_dj_oracle(BooleanFunctionTable.constant(1, 1), 1.0, 0.5, 0.8)
        result = swap_query(ThermalQubit(2.0, 0.3), oracle, 1)
        assert result.probe.gap == 1.0
        assert result.probe.inverse_temperature == 0.8

    def test_balanced_zero_input(self):
        table = BooleanFunctionTable(2, (0, 0, 1, 1))
        oracle = build_dj_oracle(table, 1.0, 0.5, 0.8)
        result = swap_query(ThermalQubit(2.0, 0.3), oracle, "00")
        assert result.probe.gap == 0.5  # f(00) = 0

    def test_swap_is_an_involution(self):
        probe, oracle = worked_example()
        first = swap_query(probe, oracle, 1)
        # Swapping again exchanges the same two states back.
        second_probe = first.displaced
        assert second_probe.gap == probe.gap
        assert second_probe.inverse_temperature == probe.inverse_temperature

    def test_marginal_matches_reference(self, rng):
        for _ in range(20):
            probe, oracle = random_dj_case(rng)
            x = int(rng.integers(0, oracle.n_machine_qubits))
            expected = reference_swap_ground_population(probe, oracle, x)
            assert swap_query(probe, oracle, x).probe.ground_population == pytest.approx(
                expected, abs=1e-12
            )

    def test_index_out_of_range(self):
        probe, oracle = worked_example()
        with pytest.raises(IndexError):
            swap_query(probe, oracle, 5)


class TestMixedInputQuery:
    def test_constant_collapses_the_mixture(self):
        oracle = build_dj_oracle(BooleanFunctionTable.constant(2, 1), 1.0, 0.5, 0.8)
        expected = 1.0 / (1.0 + math.exp(-0.8))
        assert mixed_input_query(ThermalQubit(1.0, 0.0), oracle).p0 == pytest.approx(expected)

    def test_projector_and_maximally_mixed_limit(self):
        # tau_1 -> ground projector, tau_2 -> maximally mixed: mixture 3/4.
        table = BooleanFunctionTable(1, (0, 1))
        oracle = build_dj_oracle(table, 100.0, 1e-9, 1.0)
        assert mixed_input_query(ThermalQubit(1.0, 0.0), oracle).p0 == pytest.approx(0.75, abs=1e-9)

    def test_balanced_average(self):
        probe, oracle = worked_example()
        expected = (1.0 / (1.0 + math.exp(-1.0)) + 1.0 / (1.0 + math.exp(-0.5))) / 2.0
        assert mixed_input_query(probe, oracle).p0 == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_swap_average(self, rng):
        for _ in range(10):
            probe, oracle = random_dj_case(rng)
            branches = [p0 for p0, _ in reference_swap(probe, oracle)]
            assert mixed_input_query(probe, oracle).p0 == pytest.approx(
                float(np.mean(branches)), abs=1e-12
            )

    def test_any_positive_gap_oracle_matches_reference_swap_average(self):
        """A secret-string oracle without a zero bit, and a custom one, are
        mixtures of thermal qubits as a Deutsch-Jozsa oracle is."""
        probe = ThermalQubit(0.9, 0.4)
        for oracle in (build_bv_oracle("111", 1.3, 0.7), build_custom_oracle([0.3, 1.7, 0.8], -1.1)):
            branches = [p0 for p0, _ in reference_swap(probe, oracle)]
            assert mixed_input_query(probe, oracle).p0 == pytest.approx(float(np.mean(branches)), abs=1e-12)

    @pytest.mark.parametrize("oracle", [build_bv_oracle("101", 1.0, 1.0), build_custom_oracle([1.0, 0.0], 0.5)])
    def test_zero_gap_machine_qubit_refused(self, oracle):
        with pytest.raises(ValueError, match="machine qubit 1 has zero gap; it is not a valid thermal qubit"):
            mixed_input_query(ThermalQubit(1.0, 0.0), oracle)


class TestKickbackOutcome:
    def test_no_net_exchange_at_equal_boltzmann_factors(self):
        oracle = build_custom_oracle([1.0, 0.5], 1.0)  # |G| = 1.5
        probe = ThermalQubit(1.5, 1.0)  # beta_S*omega = beta_M*|G|
        outcome = kickback_outcome(probe, oracle)
        assert outcome.delta_p0 == 0.0
        assert outcome.regime is Regime.NEUTRAL
        assert outcome.beta_after == pytest.approx(1.0, abs=1e-12)

    def test_worked_example(self):
        probe, oracle = worked_example()
        outcome = kickback_outcome(probe, oracle)
        expected_delta = (1.0 - math.exp(-1.5)) / (
            2.0 * (1.0 + math.exp(-1.0)) * (1.0 + math.exp(-0.5))
        )
        assert outcome.delta_p0 == pytest.approx(expected_delta, abs=1e-15)
        assert outcome.delta_p0 == pytest.approx(0.17676, abs=5e-6)
        assert outcome.p0_after == pytest.approx(0.5 + expected_delta, abs=1e-15)
        assert outcome.p0_after == pytest.approx(0.67676, abs=5e-6)
        assert outcome.regime is Regime.COOLING
        reference = reference_kickback_ground_population(probe, oracle, (1, 1))
        assert outcome.p0_after == pytest.approx(reference, abs=1e-12)

    def test_constant_cools_further_than_balanced_for_larger_gap(self):
        probe = ThermalQubit(1.0, 0.0)
        balanced = build_dj_oracle(BALANCED_1BIT, 1.0, 0.5, 1.0)
        constant = build_dj_oracle(BooleanFunctionTable.constant(1, 1), 1.0, 0.5, 1.0)
        assert (
            kickback_outcome(probe, constant).p0_after
            > kickback_outcome(probe, balanced).p0_after
        )

    def test_p0_after_is_before_plus_delta(self, rng):
        for _ in range(20):
            probe, oracle = random_dj_case(rng)
            outcome = kickback_outcome(probe, oracle)
            assert outcome.p0_after == outcome.p0_before + outcome.delta_p0

    def test_general_mask_matches_reference(self, rng):
        for _ in range(30):
            probe, oracle = random_dj_case(rng)
            bits = tuple(int(b) for b in rng.integers(0, 2, oracle.n_machine_qubits))
            outcome = kickback_outcome(probe, oracle, QueryMask(bits))
            expected = reference_kickback_ground_population(probe, oracle, bits)
            assert outcome.p0_after == pytest.approx(expected, abs=1e-12)

    def test_bv_mask_matches_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            secret = "".join(str(b) for b in rng.integers(0, 2, n))
            oracle = build_bv_oracle(secret, float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.1, 1.5)))
            probe = ThermalQubit(float(rng.uniform(0.25, 2.0)), float(rng.uniform(-1.2, 1.2)))
            bits = tuple(int(b) for b in rng.integers(0, 2, n))
            outcome = kickback_outcome(probe, oracle, QueryMask(bits))
            expected = reference_kickback_ground_population(probe, oracle, bits)
            assert outcome.p0_after == pytest.approx(expected, abs=1e-12)

    def test_all_ones_mask_reduces_to_closed_form(self, rng):
        for _ in range(30):
            probe, oracle = random_dj_case(rng)
            specialized = kickback_outcome(probe, oracle)
            general = kickback_outcome(probe, oracle, QueryMask.all_ones(oracle.n_machine_qubits))
            assert abs(specialized.p0_after - general.p0_after) <= 1e-14
            assert abs(specialized.delta_p0 - general.delta_p0) <= 1e-14
            if specialized.beta_after is not None:
                assert abs(specialized.beta_after - general.beta_after) <= 1e-14

    def test_beta_after_is_population_roundtrip(self, rng):
        for _ in range(30):
            probe, oracle = random_dj_case(rng)
            outcome = kickback_outcome(probe, oracle)
            if outcome.beta_after is None:
                continue
            recomputed = inverse_temperature_from_population(outcome.p0_after, probe.gap)
            assert outcome.beta_after == pytest.approx(recomputed, abs=1e-10)

    def test_mask_length_mismatch(self):
        probe, oracle = worked_example()
        with pytest.raises(ValueError):
            kickback_outcome(probe, oracle, QueryMask((1, 0, 1)))


class TestClassifyRegime:
    def test_cooling(self):
        # omega/T_S = 1 < |G|/T_M = 2
        oracle = build_custom_oracle([2.0], 1.0)
        assert classify_regime(ThermalQubit(1.0, 1.0), oracle) is Regime.COOLING

    def test_heating(self):
        oracle = build_custom_oracle([0.5], 1.0)
        assert classify_regime(ThermalQubit(1.0, 1.0), oracle) is Regime.HEATING

    def test_neutral_on_equality(self):
        oracle = build_custom_oracle([1.0, 0.5], 1.0)
        probe = ThermalQubit(1.5, 1.0)
        assert classify_regime(probe, oracle) is Regime.NEUTRAL
        assert kickback_outcome(probe, oracle).delta_p0 == 0.0

    def test_matches_delta_sign_on_sweep(self, rng):
        for _ in range(2000):
            probe, oracle = random_dj_case(rng)
            label = classify_regime(probe, oracle)
            delta = kickback_outcome(probe, oracle).delta_p0
            if label is Regime.COOLING:
                assert delta > 0.0
            elif label is Regime.HEATING:
                assert delta < 0.0
            else:
                exponent_gap = abs(
                    probe.inverse_temperature * probe.gap
                    - oracle.machine_inverse_temperature * oracle.gap_vector.total
                )
                assert exponent_gap <= NEUTRAL_TOLERANCE


class TestSensitivity:
    def test_tiny_threshold_detects_any_exchange(self):
        probe, oracle = worked_example()
        report = sensitivity_check(probe, oracle, 1e-12)
        assert report.satisfied and report.closed_form_satisfied and report.tests_agree

    def test_worked_example_thresholds(self):
        probe, oracle = worked_example()
        assert sensitivity_check(probe, oracle, 0.1).satisfied
        assert not sensitivity_check(probe, oracle, 0.2).satisfied

    def test_unsatisfiable_closed_form_bound(self):
        # c*Z_S*Z_f + e^{-beta_M*|G|} > 1: the closed-form right side is
        # negative, the bound cannot hold, and the direct test is false too.
        probe = ThermalQubit(1.0, 0.0)
        oracle = build_dj_oracle(BALANCED_1BIT, 1.0, 0.5, 0.1)
        report = sensitivity_check(probe, oracle, 0.2)
        assert not report.closed_form_precondition
        assert not report.satisfied
        assert not report.closed_form_satisfied
        assert report.tests_agree

    def test_neutral_exchange_fails_the_bound_with_its_precondition(self):
        # beta_S*omega == beta_M*|G|: delta_p0 is exactly 0, so neither test
        # holds, and the precondition holds although the heating-form log
        # argument e^{-beta_M|G|} - c*Z_S*Z_f is negative here.
        report = sensitivity_check(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5], 1.0), 0.3)
        assert report.delta_p0 == 0.0 and report.regime is Regime.NEUTRAL
        assert report.closed_form_precondition
        assert not report.closed_form_satisfied and not report.satisfied

    def test_agreement_on_sweep(self, rng):
        checked = 0
        for _ in range(2000):
            probe, oracle = random_dj_case(rng)
            outcome = kickback_outcome(probe, oracle)
            ceiling = 1.0 - outcome.p0_before
            c = float(rng.uniform(0.25, 0.75)) * ceiling
            report = sensitivity_check(probe, oracle, c)
            if report.closed_form_precondition:
                assert report.tests_agree
                checked += 1
        assert checked > 100

    def test_threshold_out_of_range(self):
        probe, oracle = worked_example()
        with pytest.raises(ValueError):
            sensitivity_check(probe, oracle, 0.9)


class TestWellDefinedTemperature:
    def test_neutral_is_well_defined(self):
        oracle = build_custom_oracle([1.0, 0.5], 1.0)
        probe = ThermalQubit(1.5, 1.0)
        assert temperature_defined(1.5, kickback_outcome(probe, oracle).delta_p0)  # a = beta_S*omega

    def test_heating_always_well_defined(self, rng):
        # Directed construction: probe exponent strictly above the machine's.
        for _ in range(200):
            _, oracle = random_dj_case(rng)
            omega = float(rng.uniform(0.25, 2.0))
            machine_exponent = oracle.machine_inverse_temperature * oracle.gap_vector.total
            beta_s = (machine_exponent + float(rng.uniform(0.05, 2.0))) / omega
            probe = ThermalQubit(omega, beta_s)
            outcome = kickback_outcome(probe, oracle)
            assert outcome.regime is Regime.HEATING
            assert temperature_defined(beta_s * omega, outcome.delta_p0)

    def test_flag_matches_beta_after(self, rng):
        # The last probe's excited population underflows: delta_p0 = 0.0 and beta' is undefined.
        cases = [random_dj_case(rng) for _ in range(500)]
        for probe, oracle in [*cases, (ThermalQubit(800.0, 1.0), build_custom_oracle([900.0], 1.0))]:
            outcome = kickback_outcome(probe, oracle)
            a = probe.inverse_temperature * probe.gap
            assert temperature_defined(a, outcome.delta_p0) == (outcome.beta_after is not None)


class TestResetCosts:
    def test_zero_exchange(self):
        oracle = build_custom_oracle([1.0, 0.5], 1.0)
        probe = ThermalQubit(1.5, 1.0)
        costs = reset_costs(kickback_outcome(probe, oracle), oracle, probe)
        assert costs.dissipation == 0.0 and costs.reset_work == 0.0

    def test_worked_example(self):
        probe, oracle = worked_example()
        outcome = kickback_outcome(probe, oracle)
        costs = reset_costs(outcome, oracle, probe)
        assert costs.dissipation == pytest.approx(outcome.delta_p0 * 1.5, abs=1e-15)
        assert costs.dissipation == pytest.approx(0.26514, abs=5e-5)
        assert costs.reset_work == pytest.approx(0.17676, abs=5e-6)

    def test_signs_follow_delta(self, rng):
        for _ in range(100):
            probe, oracle = random_dj_case(rng)
            outcome = kickback_outcome(probe, oracle)
            costs = reset_costs(outcome, oracle, probe)
            assert math.copysign(1.0, costs.dissipation) == math.copysign(1.0, outcome.delta_p0) or (
                costs.dissipation == 0.0 and outcome.delta_p0 == 0.0
            )


class TestWarmOracleDegradesDistinguishability:
    def test_monotone_separation_in_machine_temperature(self):
        # Two-bit setup, omega = 1: the constant/balanced temperature gap
        # shrinks as the machine warms (smaller beta_M).
        const1 = BooleanFunctionTable.constant(2, 1)
        balanced = next(enumerate_balanced_functions(2)).function
        grid = np.linspace(0.0, 2.0, 21)
        separations = []
        for beta_m in (2.0, 1.0, 0.5, 0.25):
            o_const = build_dj_oracle(const1, 1.0, 0.5, beta_m)
            o_bal = build_dj_oracle(balanced, 1.0, 0.5, beta_m)
            gap = 0.0
            for beta_s in grid:
                probe = ThermalQubit(1.0, float(beta_s))
                b_const = kickback_outcome(probe, o_const).beta_after
                b_bal = kickback_outcome(probe, o_bal).beta_after
                gap = max(gap, abs(b_const - b_bal))
            separations.append(gap)
        assert separations == sorted(separations, reverse=True)


@given(
    omega=st.floats(0.25, 2.0),
    beta_s=st.floats(-1.2, 1.2),
    beta_m=st.floats(0.1, 1.5),
    gap_one=st.floats(0.2, 2.0),
    gap_zero=st.floats(0.2, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_property_kickback_population_is_probability(omega, beta_s, beta_m, gap_one, gap_zero):
    oracle = build_dj_oracle(BALANCED_1BIT, gap_one, gap_zero, beta_m)
    outcome = kickback_outcome(ThermalQubit(omega, beta_s), oracle)
    assert 0.0 < outcome.p0_after < 1.0
    assert outcome.beta_after is not None


class TestArrayKernel:
    """The array functions on a vector equal the scalar wrappers element by element."""

    @staticmethod
    def cases(rng):
        cases = [random_dj_case(rng) for _ in range(60)]
        # Neutral (a = b exactly), and a temperature undefined because both
        # probe populations of the excited level underflow (delta = 0).
        cases.append((ThermalQubit(1.0, 0.5), build_custom_oracle([0.5], 1.0)))
        cases.append((ThermalQubit(800.0, 1.0), build_custom_oracle([900.0], 1.0)))
        return cases

    @staticmethod
    def columns(cases):
        probes, oracles = zip(*cases)
        omega = np.array([p.gap for p in probes])
        a = np.array([p.inverse_temperature for p in probes]) * omega
        beta_m = np.array([o.machine_inverse_temperature for o in oracles])
        total = np.array([o.gap_vector.total for o in oracles])
        log_zf = np.array([o.log_partition_function for o in oracles])
        return omega, a, beta_m, total, log_zf

    def test_kickback_outcome(self, rng):
        cases = self.cases(rng)
        omega, a, beta_m, total, log_zf = self.columns(cases)
        delta = kickback_shift(a, beta_m, total, 0.0, log_zf)
        p0, p0_after, beta_after = shift_outcome(a, omega, delta)
        assert np.isnan(beta_after[-1]) and delta[-1] == 0.0
        for i, (probe, oracle) in enumerate(cases):
            outcome = kickback_outcome(probe, oracle)
            assert outcome.delta_p0 == delta[i]
            assert outcome.p0_before == p0[i]
            assert outcome.p0_after == p0_after[i]
            if outcome.beta_after is None:
                assert np.isnan(beta_after[i])
            else:
                assert outcome.beta_after == beta_after[i]
            assert outcome.regime is Regime.from_sign(delta[i])

    def test_regime_sensitivity_and_well_definedness(self, rng):
        cases = self.cases(rng)
        omega, a, beta_m, total, log_zf = self.columns(cases)
        b = beta_m * total
        delta = kickback_shift(a, beta_m, total, 0.0, log_zf)
        p0, _, _ = shift_outcome(a, omega, delta)
        c = (0.25 + 0.5 * rng.random(len(cases))) * (1.0 - p0)
        labels = regime_sign(a, b)
        closed, precondition = sensitivity_bound(a, b, log_zf, c, delta)
        flags = temperature_defined(a, delta)
        assert labels[-2] == 0.0
        for i, (probe, oracle) in enumerate(cases):
            assert classify_regime(probe, oracle) is Regime.from_sign(labels[i])
            outcome = kickback_outcome(probe, oracle)
            if c[i] > 0.0:
                report = sensitivity_check(probe, oracle, float(c[i]))
                assert report.closed_form_satisfied == closed[i]
                assert report.closed_form_precondition == precondition[i]
            assert temperature_defined(probe.inverse_temperature * probe.gap, outcome.delta_p0) == flags[i]

    def test_scalar_arguments_give_scalars(self):
        delta = kickback_shift(0.5, 1.0, 2.0, 0.0, 1.2)
        assert np.ndim(delta) == 0
        assert all(np.ndim(x) == 0 for x in shift_outcome(0.5, 1.0, delta))

    def test_overflowing_exponents_give_the_float_values_silently(self):
        """beta_M*X.G or beta_M*(|G| - X.G) overflowing to inf is meant, as
        e^{-inf} = 0: an array call returns each float call's value and, like
        the float calls, raises no overflow warning."""
        a = np.array([0.5, 1.0, 2.0])
        beta_m = np.array([1e300, 2.0, 1e308])
        masked_sum = np.array([1e10, 1.0, 0.0])
        remainder = np.array([0.0, 0.0, 1e10])
        log_zf = np.array([0.0, math.log1p(math.exp(-2.0)), 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = kickback_shift(a, beta_m, masked_sum, remainder, log_zf)
            floats = [kickback_shift(*map(float, row)) for row in zip(a, beta_m, masked_sum, remainder, log_zf)]
        assert delta.tolist() == floats
        assert delta[0] > 0.0 and delta[2] < 0.0
