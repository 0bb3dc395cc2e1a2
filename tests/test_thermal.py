import math
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thermoquery.problems import constant_functions, enumerate_balanced_functions
from thermoquery.query import kickback_outcome
from thermoquery.thermal import (
    BooleanFunctionTable,
    Classification,
    GapVector,
    PureStatePopulationError,
    ThermalQubit,
    bits_to_index,
    build_bv_oracle,
    build_custom_oracle,
    build_dj_oracle,
    ground_state_population,
    inverse_temperature_from_population,
    two_gap_machine,
)


def brute_force_machine_partition(gaps, beta_m):
    """Direct sum over all 2^N machine levels, no log tricks."""
    total = 0.0
    for bits in product((0, 1), repeat=len(gaps)):
        total += math.exp(-beta_m * sum(b * g for b, g in zip(bits, gaps)))
    return total


class TestGroundStatePopulation:
    def test_maximally_mixed(self):
        assert ground_state_population(1.0, 0.0) == 0.5

    def test_pure_ground_limit(self):
        assert ground_state_population(1.0, 50.0) == pytest.approx(1.0, abs=1e-15)

    def test_direct_value(self):
        assert ground_state_population(1.0, 1.0) == pytest.approx(
            1.0 / (1.0 + math.exp(-1.0)), abs=1e-15
        )

    def test_population_inversion(self):
        assert ground_state_population(2.0, -1.0) < 0.5

    @pytest.mark.parametrize("gap", [0.0, -1.0])
    def test_invalid_gap(self, gap):
        with pytest.raises(ValueError):
            ground_state_population(gap, 1.0)

    def test_extreme_arguments_do_not_overflow(self):
        assert ground_state_population(10.0, 200.0) == 1.0
        assert ground_state_population(10.0, -200.0) == 0.0

    @pytest.mark.parametrize(
        "gap, beta, message",
        [
            (1.0, math.nan, "beta must be finite, got nan"),
            (1.0, math.inf, "beta must be finite, got inf"),
            (math.inf, 1.0, "gap must be positive and finite, got inf"),
            (math.nan, 1.0, "gap must be positive and finite, got nan"),
        ],
    )
    def test_non_finite_argument_rejected_by_name(self, gap, beta, message):
        with pytest.raises(ValueError) as raised:
            ground_state_population(gap, beta)
        assert str(raised.value) == message


class TestInverseTemperature:
    def test_maximally_mixed(self):
        assert inverse_temperature_from_population(0.5, 3.0) == 0.0

    def test_roundtrip_unit(self):
        p0 = 1.0 / (1.0 + math.exp(-1.0))
        assert inverse_temperature_from_population(p0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_inverted_population_gives_negative_beta(self):
        beta = inverse_temperature_from_population(0.25, 1.0)
        assert beta == pytest.approx(math.log(1.0 / 3.0), abs=1e-14)
        assert beta < 0.0

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_pure_state_flagged(self, p0):
        with pytest.raises(PureStatePopulationError):
            inverse_temperature_from_population(p0, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            inverse_temperature_from_population(1.5, 1.0)

    @pytest.mark.parametrize("gap", [math.inf, math.nan, 0.0])
    def test_gap_not_positive_and_finite_rejected_by_name(self, gap):
        with pytest.raises(ValueError) as raised:
            inverse_temperature_from_population(0.3, gap)
        assert str(raised.value) == f"gap must be positive and finite, got {gap}"

    # The full rectangle beta in [-20, 20] x gap in (0, 50] is not invertible
    # through a float64 population (it saturates once |beta*gap| ~ 37 and the
    # log derivative amplifies one ulp beyond 1e-10 well before that), so the
    # roundtrip property is asserted on the invertible region.
    @given(
        beta=st.floats(-20.0, 20.0, allow_nan=False),
        gap=st.floats(0.001, 50.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_roundtrip_property(self, beta, gap):
        assume(abs(beta) * gap <= 12.0)
        p0 = ground_state_population(gap, beta)
        assert inverse_temperature_from_population(p0, gap) == pytest.approx(beta, abs=1e-10)


class TestThermalQubit:
    def test_population_and_partition(self):
        qubit = ThermalQubit(2.0, 0.5)
        assert qubit.ground_population == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))
        assert qubit.ground_population == pytest.approx(math.exp(-qubit.log_partition_function))
        assert qubit.log_partition_function == pytest.approx(math.log1p(math.exp(-1.0)))

    def test_zero_beta_is_exactly_half(self):
        assert ThermalQubit(7.0, 0.0).ground_population == 0.5

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            ThermalQubit(0.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gap_or_beta_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ThermalQubit(value, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ThermalQubit(1.0, value)

    @pytest.mark.parametrize("beta", [10.0, -10.0])
    def test_overflowing_exponent_rejected_by_name(self, beta):
        """A beta * gap past the largest double is refused by name, where a
        kickback used to return a NaN population labelled NEUTRAL."""
        with pytest.raises(ValueError, match=rf"^inverse temperature times gap must be finite, got {beta} \* 1e\+308$"):
            ThermalQubit(1e308, beta)

    @pytest.mark.parametrize("beta", [10.0, -10.0])
    def test_overflowing_numpy_scalars_rejected_by_name(self, beta):
        """numpy scalars whose product overflows get the same ValueError, not
        numpy's overflow RuntimeWarning (an error under the test filter)."""
        with pytest.raises(ValueError, match=rf"^inverse temperature times gap must be finite, got {beta} \* 1e\+308$"):
            ThermalQubit(np.float64(1e308), np.float64(beta))
        with pytest.raises(ValueError, match=r"^inverse temperature must be finite, got nan$"):
            ThermalQubit(np.float64(1.0), np.float64(math.nan))

    @pytest.mark.parametrize("beta, p0", [(1.5, 1.0), (-1.5, 0.0)])
    def test_largest_finite_exponent_kept(self, beta, p0):
        assert ThermalQubit(1e308, beta).ground_population == p0


class TestNonFiniteMachineTemperature:
    @pytest.mark.parametrize("beta_m", [math.nan, math.inf, -math.inf])
    def test_every_builder_rejects_it(self, beta_m):
        with pytest.raises(ValueError, match="finite"):
            build_dj_oracle(BooleanFunctionTable(1, (0, 1)), 1.0, 0.5, beta_m)
        with pytest.raises(ValueError, match="finite"):
            build_bv_oracle("101", 1.0, beta_m)
        with pytest.raises(ValueError, match="finite"):
            build_custom_oracle([0.5, 1.0], beta_m)


class TestGapVector:
    def test_total(self):
        vec = GapVector((0.5, 1.0, 0.0))
        assert len(vec) == 3
        assert vec.total == 1.5

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            GapVector((1.0, -0.1))

    def test_overflowing_total_rejected_at_construction(self):
        """Finite gaps whose sum is not are refused by name, with no overflow
        warning; the largest finite sum is kept."""
        for gaps in ((1e308,) * 4, (1.7e308, 1.7e308)):
            with pytest.raises(ValueError, match="^gap total must be finite, got inf$"):
                GapVector(gaps)
        with pytest.raises(ValueError, match="gap total"):
            build_custom_oracle([1e308] * 4, 1.0)
        assert GapVector((1e308, 7e307)).total == 1.7e308

    def test_small_vectors_take_no_sum_at_construction(self, monkeypatch):
        """Only a largest gap times the length past the largest double needs the sum."""
        def forbidden(self):
            raise AssertionError("the total was summed")

        monkeypatch.setattr(GapVector, "total", property(forbidden))
        GapVector((0.5, 1.0, 0.0) * 1000)
        GapVector((8e307, 0.0))
        with pytest.raises(AssertionError):
            GapVector((1e308, 1e308))

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_bad_entry_among_repeats_rejected_by_one_message(self, bad):
        """Each distinct gap is checked once; a bad one among thousands of
        repeats is still found, with the same message."""
        with pytest.raises(ValueError, match="^every gap must be finite and >= 0$"):
            GapVector((0.5,) * 4096 + (bad,) + (0.0, 1.0) * 2048)

    def test_repeated_gaps_accepted(self):
        assert GapVector((0.25, 0.0, -0.0) * 1000).total == 250.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GapVector(())


class TestBooleanFunctionTable:
    def test_classifications(self):
        assert BooleanFunctionTable(1, (0, 0)).classification is Classification.CONSTANT0
        assert BooleanFunctionTable(1, (1, 1)).classification is Classification.CONSTANT1
        assert BooleanFunctionTable(2, (0, 1, 1, 0)).classification is Classification.BALANCED
        assert BooleanFunctionTable(2, (1, 0, 0, 0)).classification is Classification.OTHER

    def test_bit_string_and_integer_pick_the_same_output(self):
        # Big-endian: "01" is input 1, whose output 1 gets gap_one.
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 1, 0)), 2.0, 1.0, 1.0)
        assert oracle.machine_qubit("01").gap == oracle.machine_qubit(1).gap == 2.0
        assert oracle.machine_qubit("11").gap == oracle.machine_qubit(3).gap == 1.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            BooleanFunctionTable(2, (0, 1))


class TestBitStrings:
    def test_roundtrip(self):
        assert bits_to_index("101") == 5
        assert format(bits_to_index("0101"), "04b") == "0101"

    def test_big_endian(self):
        assert bits_to_index("100") == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            bits_to_index("10x")


class TestDJOracle:
    def test_constant_one(self):
        oracle = build_dj_oracle(BooleanFunctionTable.constant(1, 1), 1.0, 0.5, 1.0)
        assert oracle.gap_vector.gaps == (1.0, 1.0)
        assert oracle.gap_vector.total == 2.0

    def test_balanced_single_bit(self):
        table = BooleanFunctionTable(1, (0, 1))
        oracle = build_dj_oracle(table, 1.0, 0.5, 1.0)
        assert oracle.gap_vector.gaps == (0.5, 1.0)
        assert oracle.gap_vector.total == 1.5

    def test_partition_function_against_direct_sum(self):
        table = BooleanFunctionTable(2, (0, 0, 1, 1))
        beta_m = 0.7
        oracle = build_dj_oracle(table, 2.0, 1.0, beta_m)
        assert oracle.gap_vector.total == 6.0
        direct = brute_force_machine_partition(oracle.gap_vector.gaps, beta_m)
        assert math.exp(oracle.log_partition_function) == pytest.approx(direct, rel=1e-12)
        closed = 2.0 * math.log(1.0 + math.exp(-2.0 * beta_m)) + 2.0 * math.log(
            1.0 + math.exp(-beta_m)
        )
        assert oracle.log_partition_function == pytest.approx(closed, abs=1e-14)

    def test_gap_sum_trichotomy(self):
        # Dyadic gaps keep every float sum exact, so equality is literal.
        gap_one, gap_zero = 1.0, 0.5
        for instance in enumerate_balanced_functions(2):
            oracle = build_dj_oracle(instance.function, gap_one, gap_zero, 1.0)
            assert oracle.gap_vector.total == 2.0 * (gap_one + gap_zero)
        const1 = build_dj_oracle(BooleanFunctionTable.constant(2, 1), gap_one, gap_zero, 1.0)
        const0 = build_dj_oracle(BooleanFunctionTable.constant(2, 0), gap_one, gap_zero, 1.0)
        assert const1.gap_vector.total == 4.0 * gap_one
        assert const0.gap_vector.total == 4.0 * gap_zero

    def test_partition_depends_only_on_gap_multiset(self):
        values = {
            build_dj_oracle(inst.function, 1.3, 0.4, 0.9).log_partition_function
            for inst in enumerate_balanced_functions(2)
        }
        assert max(values) - min(values) <= 1e-13
        # The count form gives every built oracle's log Z_f, at either sign of beta_M.
        for n in (1, 2, 3):
            for inst in [*constant_functions(n), *enumerate_balanced_functions(n)]:
                for beta_m in (0.9, -2.5, 0.0):
                    oracle = build_dj_oracle(inst.function, 1.3, 0.4, beta_m)
                    _, log_zf = two_gap_machine(sum(inst.function.outputs), 1 << n, 1.3, 0.4, beta_m)
                    assert abs(log_zf - oracle.log_partition_function) <= 1e-14

    def test_requires_positive_gaps(self):
        with pytest.raises(ValueError):
            build_dj_oracle(BooleanFunctionTable.constant(1, 0), 1.0, 0.0, 1.0)


class TestNonFiniteLogPartition:
    """A log Z_f that overflows a double is rejected by name when the oracle
    is built, and the kickback that needs it raises instead of returning
    p0' = NaN labelled NEUTRAL."""

    # Four gaps of 4e307 sum to a finite |G| (1.6e308); four of 1e308 do not
    # and are refused by GapVector before log Z_f is read. Every beta_M * g
    # is finite, or the oracle is refused for that first
    # (TestMachineQubitDomain).
    @pytest.mark.parametrize("gaps, beta_m", [([1e307] * 4, -10.0), ([4e307] * 4, -2.0), ([1.0] * 3, -1e308),
                                              ([1.0] * 4, -1e308)])
    def test_rejected_by_name(self, gaps, beta_m):
        for _ in range(2):  # a failed cached_property stores nothing
            with pytest.raises(ValueError, match="log partition function is not finite, got inf"):
                build_custom_oracle(gaps, beta_m)

    def test_bound_passes_only_near_the_float_maximum(self):
        """log Z_f <= N (|beta_M| g_max + log 2): below the largest double the
        oracle is built without evaluating it, and its first read is finite."""
        oracle = build_custom_oracle([4e307] * 4, -1.0)
        assert "log_partition_function" not in vars(oracle)
        assert oracle.log_partition_function == 1.6e308

    def test_kickback_raises(self):
        with pytest.raises(ValueError, match="log partition function"):
            kickback_outcome(ThermalQubit(1.0, 1.0), build_custom_oracle([4e307] * 4, -2.0))

    def test_largest_finite_sums_kept(self):
        assert build_custom_oracle([4e307] * 4, 1.0).log_partition_function == 0.0
        assert build_custom_oracle([1e300] * 4, -1.0).log_partition_function == 4e300


class TestMachineQubitDomain:
    """An oracle accepts exactly the beta_M and gaps its machine qubits
    accept: beta_M times its largest gap must be finite, refused with the
    wording of ThermalQubit."""

    @pytest.mark.parametrize("gaps, beta_m", [([1e308, 1.0], 10.0), ([1.0, 1e308], -10.0), ([2.0] * 3, -1e308)])
    def test_overflowing_product_refused_at_construction(self, gaps, beta_m):
        largest = max(gaps)
        message = rf"^inverse temperature times gap must be finite, got {beta_m} \* {largest}$".replace("+", r"\+")
        with pytest.raises(ValueError, match=message):
            build_custom_oracle(gaps, beta_m)
        with pytest.raises(ValueError, match=message):
            build_custom_oracle(gaps, np.float64(beta_m))
        with pytest.raises(ValueError, match=message):
            ThermalQubit(largest, beta_m)

    def test_every_builder_refuses_it(self):
        with pytest.raises(ValueError, match="inverse temperature times gap"):
            build_dj_oracle(BooleanFunctionTable(1, (0, 1)), 1e308, 0.5, 10.0)
        with pytest.raises(ValueError, match="inverse temperature times gap"):
            build_bv_oracle("100", 1e308, -10.0)

    def test_kickback_and_machine_qubit_agree(self):
        """The largest finite product is kept by the oracle, its machine
        qubits and the kickback alike."""
        oracle = build_custom_oracle([1e308, 1.0], 1.5)
        assert oracle.machine_qubit(0) == ThermalQubit(1e308, 1.5)
        assert math.isfinite(kickback_outcome(ThermalQubit(1.0, 1.0), oracle).p0_after)

    def test_zero_gaps_take_any_finite_beta(self):
        assert build_custom_oracle([0.0, 0.0], 1e308).n_machine_qubits == 2


class TestBVOracle:
    def test_zero_secret(self):
        oracle = build_bv_oracle("000", 1.0, 1.0)
        assert oracle.gap_vector.gaps == (0.0, 0.0, 0.0)
        assert oracle.gap_vector.total == 0.0

    def test_hamming_weight_two(self):
        assert build_bv_oracle("101", 2.0, 1.0).gap_vector.total == 4.0

    def test_partition_function(self):
        oracle = build_bv_oracle("111", 1.0, 1.0)
        assert oracle.log_partition_function == pytest.approx(
            3.0 * math.log(1.0 + math.exp(-1.0)), abs=1e-14
        )
        direct = brute_force_machine_partition(oracle.gap_vector.gaps, 1.0)
        assert math.exp(oracle.log_partition_function) == pytest.approx(direct, rel=1e-12)
        # The count form: the secret's ones carry gamma, the rest gap 0.
        for length in (1, 2, 3, 4):
            for bits in product("01", repeat=length):
                secret = "".join(bits)
                for gamma, beta_m in ((1.0, 1.0), (0.7, -1.8), (2.3, 0.0)):
                    oracle = build_bv_oracle(secret, gamma, beta_m)
                    _, log_zf = two_gap_machine(secret.count("1"), length, gamma, 0.0, beta_m)
                    assert abs(log_zf - oracle.log_partition_function) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            build_bv_oracle("", 1.0, 1.0)
        with pytest.raises(ValueError):
            build_bv_oracle("101", 0.0, 1.0)

    def test_zero_gap_machine_qubit_is_not_thermal(self):
        oracle = build_bv_oracle("10", 1.0, 1.0)
        oracle.machine_qubit(0)
        with pytest.raises(ValueError):
            oracle.machine_qubit(1)


class TestOracleIsItsGapsAndTemperature:
    def test_two_fields(self):
        oracle = build_custom_oracle([1.0], 0.5)
        assert [f.name for f in fields(oracle)] == ["gap_vector", "machine_inverse_temperature"]

    def test_equal_gaps_and_beta_compare_and_hash_equal(self):
        """Oracles built from different inputs but with the same gaps and
        beta_M are one oracle."""
        balanced = build_dj_oracle(BooleanFunctionTable(1, (0, 1)), 1.0, 1.0, 0.8)
        constant = build_dj_oracle(BooleanFunctionTable.constant(1, 0), 1.0, 1.0, 0.8)
        custom = build_custom_oracle([1.0, 1.0], 0.8)
        assert balanced == constant == custom
        assert len({balanced, constant, custom}) == 1
        secret = build_bv_oracle("101", 2.0, -0.3)
        assert secret == build_custom_oracle([2.0, 0.0, 2.0], -0.3)
        assert hash(secret) == hash(build_custom_oracle([2.0, 0.0, 2.0], -0.3))
        assert secret != build_custom_oracle([2.0, 0.0, 2.0], 0.3)
