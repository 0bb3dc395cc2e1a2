import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import reference_joint_populations, reference_swap_ground_population
from thermoquery import exactsim, query, thermal
from thermoquery.exactsim import (
    apply_level_exchange,
    apply_swap_with_machine_qubit,
    build_joint_state,
    kickback_level_indices,
    machine_mean_energy,
    probe_mean_energy,
    probe_marginal,
)
from thermoquery.query import QueryMask, kickback_outcome, reset_costs
from thermoquery.thermal import (
    BooleanFunctionTable,
    ThermalMachineOracle,
    ThermalQubit,
    build_bv_oracle,
    build_custom_oracle,
    build_dj_oracle,
)

BALANCED_1BIT = BooleanFunctionTable(1, (0, 1))


def worked_state():
    probe = ThermalQubit(1.0, 0.0)
    oracle = build_dj_oracle(BALANCED_1BIT, 1.0, 0.5, 1.0)
    return probe, oracle, build_joint_state(probe, oracle)


class TestBuildJointState:
    def test_infinite_temperature_is_uniform(self):
        probe = ThermalQubit(1.0, 0.0)
        oracle = build_custom_oracle([0.7], 0.0)
        state = build_joint_state(probe, oracle)
        assert state.size == 4
        assert np.allclose(state.populations, 0.25, atol=1e-15)

    def test_populations_match_reference_products(self):
        probe, oracle, state = worked_state()
        reference = reference_joint_populations(probe, oracle)
        for (s_bit, machine), expected in reference.items():
            index = (s_bit << 2) | (machine[0] << 1) | machine[1]
            assert state.populations[index] == pytest.approx(expected, abs=1e-14)

    def test_normalization(self):
        _, _, state = worked_state()
        assert float(state.populations.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(state.populations >= 0.0)

    def test_partition_sum_is_product_of_partition_functions(self):
        probe = ThermalQubit(0.8, 0.6)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 1, 0)), 1.3, 0.4, 0.9)
        state = build_joint_state(probe, oracle)
        expected = probe.log_partition_function + oracle.log_partition_function
        assert state.log_partition_sum == pytest.approx(expected, abs=1e-12)

    def test_gibbs_ordering_at_common_temperature(self):
        beta = 0.8
        probe = ThermalQubit(1.0, beta)
        oracle = build_custom_oracle([0.3, 1.1, 0.6], beta)
        state = build_joint_state(probe, oracle)
        order = np.argsort(state.level_energies)
        sorted_pops = state.populations[order]
        assert np.all(np.diff(sorted_pops) <= 1e-15)

    def test_size_limit(self):
        oracle = build_custom_oracle([1.0] * 20, 1.0)
        with pytest.raises(ValueError):
            build_joint_state(ThermalQubit(1.0, 0.5), oracle)
        build_joint_state(ThermalQubit(1.0, 0.5), oracle, max_qubits=21)

    def test_fresh_marginal_is_initial_probe(self):
        probe = ThermalQubit(1.4, -0.7)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 0, 1)), 0.9, 0.4, 1.2)
        state = build_joint_state(probe, oracle)
        assert probe_marginal(state).p0 == pytest.approx(probe.ground_population, abs=1e-14)


class TestLevelExchange:
    def test_swap_and_restore(self):
        _, _, state = worked_state()
        once = apply_level_exchange(state, 1, 6)
        twice = apply_level_exchange(once, 1, 6)
        assert np.array_equal(twice.populations, state.populations)
        assert once.populations[1] == state.populations[6]

    def test_trace_preserved(self):
        _, _, state = worked_state()
        after = apply_level_exchange(state, 0, 7)
        assert float(after.populations.sum()) == pytest.approx(
            float(state.populations.sum()), abs=1e-14
        )

    def test_identical_indices_rejected(self):
        _, _, state = worked_state()
        with pytest.raises(ValueError):
            apply_level_exchange(state, 3, 3)

    def test_out_of_range(self):
        _, _, state = worked_state()
        with pytest.raises(IndexError):
            apply_level_exchange(state, 0, 8)

    def test_full_mask_exchange_matches_closed_form(self):
        probe, oracle, state = worked_state()
        level_a, level_b = kickback_level_indices(QueryMask.all_ones(2), 2)
        assert (level_a, level_b) == (0b011, 0b100)
        after = apply_level_exchange(state, level_a, level_b)
        zs = 2.0
        zf = (1.0 + math.exp(-1.0)) * (1.0 + math.exp(-0.5))
        expected = (1.0 + (1.0 - math.exp(-1.5)) / zf) / zs
        assert probe_marginal(after).p0 == pytest.approx(expected, abs=1e-12)

    def test_random_masks_match_reference(self, rng):
        probe = ThermalQubit(1.2, 0.4)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 1, 0)), 1.1, 0.6, 0.8)
        state = build_joint_state(probe, oracle)
        from conftest import reference_kickback_ground_population

        for _ in range(10):
            bits = tuple(int(b) for b in rng.integers(0, 2, 4))
            a, b = kickback_level_indices(QueryMask(bits), 4)
            after = apply_level_exchange(state, a, b)
            expected = reference_kickback_ground_population(probe, oracle, bits)
            assert probe_marginal(after).p0 == pytest.approx(expected, abs=1e-13)

    def test_level_indices_of_mask_rows(self, rng):
        """Rows of masks give, row by row, |0_S, X> and |1_S, X xor 1> in big-endian order."""
        masks = rng.integers(0, 2, (40, 5))
        level_a, level_b = kickback_level_indices(masks, 5)
        for bits, a, b in zip(masks.tolist(), level_a.tolist(), level_b.tolist()):
            x = int("".join(map(str, bits)), 2)
            assert (a, b) == (x, 0b100000 | (x ^ 0b11111))
            assert kickback_level_indices(QueryMask(tuple(bits)), 5) == (a, b)
        with pytest.raises(ValueError, match="does not match"):
            kickback_level_indices(masks, 4)
        with pytest.raises(ValueError, match="does not match"):
            kickback_level_indices(QueryMask.all_ones(3), 4)
        with pytest.raises(ValueError, match="0/1"):
            kickback_level_indices(masks + 1, 5)


def dense_exchanges(populations, pairs):
    """The populations after each prefix of ``pairs``, by a dense copy per exchange."""
    chain = [populations]
    for a, b in pairs:
        after = chain[-1].copy()
        after[[a, b]] = after[[b, a]]
        chain.append(after)
    return chain


def dense_swap(populations, n, index):
    """The populations after swapping the probe bit with machine bit ``index``,
    by flipping both bits of every level where they differ."""
    levels = np.arange(populations.size)
    both = (1 << n) | (1 << (n - 1 - index))
    differ = ((levels >> n) ^ (levels >> (n - 1 - index))) & 1
    return populations[levels ^ (differ * both)]


def fresh_from_populations(state):
    """A state that moves and swaps nothing, built from ``state``'s materialised populations."""
    return replace(state, dense_populations=state.populations, moved=(), swapped=None)


def assert_reads_like_fresh(state):
    """Marginals and mean energies of ``state`` agree with a fresh state over its populations."""
    fresh = fresh_from_populations(state)
    assert abs(probe_marginal(state).p0 - probe_marginal(fresh).p0) <= 1e-15
    assert abs(probe_mean_energy(state) - probe_mean_energy(fresh)) <= 1e-15
    # A dot product over reordered terms rounds differently: allow an ulp of
    # the energy where it exceeds 1.
    assert machine_mean_energy(state) == pytest.approx(machine_mean_energy(fresh), rel=1e-15, abs=1e-15)


class TestSharedExchange:
    """An exchange shares its parent's dense array and records the moved levels;
    reading it must agree with the dense copy it replaces."""

    @staticmethod
    def exchange_chains(rng, size):
        a, b, c, d = (int(level) for level in rng.choice(size, 4, replace=False))
        return (
            [(a, b)],
            [(a, b), (b, c)],  # overlapping pairs
            [(a, b), (b, c), (c, a)],
            [(a, b), (c, d), (a, c)],
            [(a, b), (a, b)],  # swap and restore
            [(a, b), (b, a), (a, c)],
        )

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_chains_match_dense_copies(self, n, rng):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        for pairs in self.exchange_chains(rng, state.size):
            expected = dense_exchanges(state.populations, pairs)
            each = state
            for pair, populations in zip(pairs, expected[1:]):
                each = apply_level_exchange(each, *pair)
                assert np.shares_memory(each.dense_populations, state.populations)
                assert each._dense_sums is state._dense_sums  # summed once for the chain
                assert np.array_equal(each.populations, populations)
                assert_reads_like_fresh(each)
                fresh = fresh_from_populations(each)
                for index in range(n):
                    swapped = apply_swap_with_machine_qubit(each, index)
                    assert np.array_equal(swapped.populations,
                                          apply_swap_with_machine_qubit(fresh, index).populations)

    def test_restored_levels_are_dropped(self):
        _, _, state = worked_state()
        once = apply_level_exchange(state, 1, 6)
        assert once.moved == ((1, 6), (6, 1))
        assert apply_level_exchange(once, 6, 1).moved == ()
        assert apply_level_exchange(once, 6, 2).moved == ((1, 6), (2, 1), (6, 2))

    def test_shared_array_is_read_only(self):
        _, _, state = worked_state()
        exchanged = apply_level_exchange(state, 1, 6)
        for each in (state, apply_swap_with_machine_qubit(state, 0), exchanged,
                     apply_swap_with_machine_qubit(exchanged, 0)):
            with pytest.raises(ValueError):
                each.populations[0] = 0.5

    def test_twenty_qubit_exchange_makes_no_copy(self):
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
        a, b = kickback_level_indices(QueryMask.all_ones(n), n)
        tracemalloc.start()
        try:
            after = apply_level_exchange(state, a, b)
            probe_marginal(after)
            machine_mean_energy(after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert after.populations[a] == state.populations[b]

    def test_fresh_state_takes_its_own_sums(self):
        """A fresh state over an exchanged state's populations sums that array,
        whether or not the parent's sums were read before the exchange."""
        probe, oracle = reference_case(5)
        half = 1 << 5
        for read_first in (True, False):
            state = build_joint_state(probe, oracle)
            if read_first:
                probe_marginal(state), machine_mean_energy(state)
            after = apply_level_exchange(state, *kickback_level_indices(QueryMask.all_ones(5), 5))
            probe_marginal(after), machine_mean_energy(after)
            fresh = fresh_from_populations(after)
            populations = fresh.populations
            assert probe_marginal(fresh).p0 == np.sum(populations[:half])
            assert probe_marginal(fresh).p0 != probe_marginal(state).p0
            energies = state.machine_energies
            assert machine_mean_energy(fresh) == (
                np.dot(populations[:half], energies) + np.dot(populations[half:], energies))
            assert machine_mean_energy(fresh) != machine_mean_energy(state)


class TestLazySwap:
    """A swap shares its parent's dense array and records the swapped bit;
    reading it must agree with the dense copy it replaces."""

    @staticmethod
    def mixed_chains(rng, n, size):
        a, b, c = (int(level) for level in rng.choice(size, 3, replace=False))
        i, j = (int(index) for index in rng.choice(n, 2, replace=False))
        return (
            *([("swap", index)] for index in range(n)),
            [("swap", i), ("exchange", a, b)],
            [("exchange", a, b), ("swap", i)],
            [("swap", i), ("swap", j)],
            [("swap", i), ("swap", i)],
            [("exchange", a, b), ("swap", i), ("exchange", b, c), ("swap", j)],
        )

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_chains_match_dense_copies(self, n, rng):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        for steps in self.mixed_chains(rng, n, state.size):
            each, populations = state, state.populations
            for step in steps:
                if step[0] == "swap":
                    each = apply_swap_with_machine_qubit(each, step[1])
                    populations = dense_swap(populations, n, step[1])
                else:
                    each = apply_level_exchange(each, *step[1:])
                    populations = dense_exchanges(populations, [step[1:]])[-1]
                assert np.array_equal(each.populations, populations)
                assert_reads_like_fresh(each)

    def test_twenty_qubit_swap_makes_no_copy(self):
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
        for index in (0, n // 2, n - 1):
            tracemalloc.start()
            try:
                swapped = apply_swap_with_machine_qubit(state, index)
                p0 = probe_marginal(swapped).p0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert swapped.dense_populations is state.dense_populations
            assert p0 == pytest.approx(ThermalQubit(0.5, 0.8).ground_population, abs=1e-12)


class TestSwapWithMachineQubit:
    def test_marginal_is_machine_qubit(self):
        probe, oracle, state = worked_state()
        after = apply_swap_with_machine_qubit(state, 1)
        expected = ThermalQubit(1.0, 1.0).ground_population  # f(1)=1 -> gap E1 at beta_M
        assert probe_marginal(after).p0 == pytest.approx(expected, abs=1e-14)

    def test_identical_parties_leave_state_unchanged(self):
        probe = ThermalQubit(0.9, 0.7)
        oracle = build_custom_oracle([0.9, 1.4], 0.7)
        state = build_joint_state(probe, oracle)
        after = apply_swap_with_machine_qubit(state, 0)
        assert np.allclose(after.populations, state.populations, atol=1e-15)

    def test_double_application_restores(self):
        _, _, state = worked_state()
        twice = apply_swap_with_machine_qubit(apply_swap_with_machine_qubit(state, 0), 0)
        assert np.array_equal(twice.populations, state.populations)

    def test_out_of_range(self):
        _, _, state = worked_state()
        with pytest.raises(IndexError):
            apply_swap_with_machine_qubit(state, 2)


class TestEnergyBookkeeping:
    def test_resonant_exchange_conserves_total_energy(self):
        # omega equals |G|: the exchanged levels are degenerate in energy.
        probe = ThermalQubit(1.5, 0.4)
        oracle = build_custom_oracle([1.0, 0.5], 0.9)
        state = build_joint_state(probe, oracle)
        a, b = kickback_level_indices(QueryMask.all_ones(2), 2)
        after = apply_level_exchange(state, a, b)
        before_total = probe_mean_energy(state) + machine_mean_energy(state)
        after_total = probe_mean_energy(after) + machine_mean_energy(after)
        assert after_total == pytest.approx(before_total, abs=1e-14)

    def test_reset_costs_match_population_weighted_changes(self):
        probe = ThermalQubit(1.0, 0.3)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (1, 0, 0, 1)), 1.2, 0.5, 0.8)
        outcome = kickback_outcome(probe, oracle)
        costs = reset_costs(outcome, oracle, probe)
        state = build_joint_state(probe, oracle)
        a, b = kickback_level_indices(QueryMask.all_ones(4), 4)
        after = apply_level_exchange(state, a, b)
        assert machine_mean_energy(after) - machine_mean_energy(state) == pytest.approx(
            costs.dissipation, abs=1e-12
        )
        assert probe_mean_energy(after) - probe_mean_energy(state) == pytest.approx(
            -costs.reset_work, abs=1e-12
        )


class TestMarginalAndDump:
    def test_uniform_marginal(self):
        state = build_joint_state(ThermalQubit(1.0, 0.0), build_custom_oracle([0.7], 0.0))
        marginal = probe_marginal(state)
        assert marginal.p0 == pytest.approx(0.5, abs=1e-15)


def reference_case(n):
    """Random probe and n-qubit machine whose gaps 0, 3, 6 are zero, as in secret-string machines."""
    rng = np.random.default_rng(20251015 + n)
    gaps = rng.uniform(0.2, 2.0, n)
    gaps[::3] = 0.0
    probe = ThermalQubit(float(rng.uniform(0.25, 2.0)), float(rng.uniform(-1.2, 1.2)))
    return probe, build_custom_oracle(gaps, float(rng.uniform(-1.5, 1.5)))


def reference_machine_energy(machine, gaps):
    return sum(b * g for b, g in zip(machine, gaps))


@pytest.mark.parametrize("n", range(1, 9))
class TestAgainstReference:
    def test_levels_in_big_endian_order(self, n):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        reference = reference_joint_populations(probe, oracle)
        assert state.size == len(reference) == 1 << (n + 1)
        for (s_bit, machine), expected in reference.items():
            index = int("".join(str(b) for b in (s_bit, *machine)), 2)
            energy = s_bit * probe.gap + reference_machine_energy(machine, oracle.gap_vector.gaps)
            assert state.populations[index] == pytest.approx(expected, abs=1e-14)
            assert state.level_energies[index] == pytest.approx(energy, abs=1e-13)

    def test_excited_energies_add_the_probe_gap(self, n):
        probe, oracle = reference_case(n)
        energies = build_joint_state(probe, oracle).level_energies
        half = 1 << n
        assert energies.size == 2 * half
        assert np.array_equal(energies[half:], energies[:half] + probe.gap)

    def test_swap_with_every_machine_qubit(self, n):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        for index in range(n):
            once = apply_swap_with_machine_qubit(state, index)
            expected = reference_swap_ground_population(probe, oracle, index)
            assert probe_marginal(once).p0 == pytest.approx(expected, abs=1e-13)
            assert not np.shares_memory(once.populations, state.populations)
            twice = apply_swap_with_machine_qubit(once, index)
            assert np.array_equal(twice.populations, state.populations)

    def test_machine_mean_energy(self, n):
        probe, oracle = reference_case(n)
        expected = sum(
            p * reference_machine_energy(machine, oracle.gap_vector.gaps)
            for (_, machine), p in reference_joint_populations(probe, oracle).items()
        )
        state = build_joint_state(probe, oracle)
        assert machine_mean_energy(state) == pytest.approx(expected, abs=1e-12)


class TestExtremeTemperatures:
    # At |beta| = 500 the unshifted log weights reach 1,000 (probe) and at
    # least 1,200 (machine), past the 709 at which exp overflows.
    @pytest.mark.parametrize("beta_s", (-500.0, -50.0, 50.0, 500.0))
    @pytest.mark.parametrize("beta_m", (-500.0, -50.0, 50.0, 500.0))
    def test_populations_and_partition_sum(self, beta_s, beta_m, rng):
        probe = ThermalQubit(2.0, beta_s)
        oracle = build_custom_oracle(rng.uniform(0.2, 2.0, 12), beta_m)
        state = build_joint_state(probe, oracle)
        populations = state.populations
        assert np.all(np.isfinite(populations))
        assert np.all(populations >= 0.0)
        assert float(populations.sum()) == pytest.approx(1.0, abs=1e-12)
        expected = probe.log_partition_function + oracle.log_partition_function
        assert abs(state.log_partition_sum - expected) <= 1e-12 * max(1.0, abs(expected))


class TestIndependenceFromAnalyticCode:
    def test_exact_path_never_calls_the_closed_forms(self, monkeypatch):
        analytic = {"thermoquery.query", "thermoquery.thermal"}
        imported = {
            name
            for name, value in vars(exactsim).items()
            if value is query or value is thermal or getattr(value, "__module__", None) in analytic
        }
        assert imported <= {"QueryMask", "ThermalMachineOracle", "ThermalQubit"}

        def forbidden(*args, **kwargs):
            raise AssertionError("the exact simulator called the analytic code")

        for name in ("kickback_shift", "oracle_shift", "shift_outcome", "kickback_outcome"):
            monkeypatch.setattr(query, name, forbidden)
        monkeypatch.setattr(thermal, "population_inverse_temperature", forbidden)
        monkeypatch.setattr(ThermalMachineOracle, "log_partition_function", property(forbidden))
        probe = ThermalQubit(1.2, 0.4)
        dj = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 1, 0)), 1.1, 0.6, 0.8)
        secret_string = build_bv_oracle("1011", 0.7, 0.9)
        with pytest.raises(AssertionError):
            dj.log_partition_function
        for oracle in (dj, secret_string):
            n = oracle.n_machine_qubits
            state = build_joint_state(probe, oracle)
            exchanged = apply_level_exchange(state, *kickback_level_indices(QueryMask.all_ones(n), n))
            swapped = apply_swap_with_machine_qubit(state, n - 1)
            for each in (state, exchanged, swapped):
                probe_marginal(each)
                probe_mean_energy(each)
                machine_mean_energy(each)
            gaps = np.array([oracle.gap_vector.gaps] * 3)
            masks = np.array([[1] * n, [0] * n, [i % 2 for i in range(n)]])  # one mask per state
            exactsim.kickback_batch(
                np.full(3, probe.gap), np.linspace(-1.0, 1.0, 3), gaps,
                np.full(3, oracle.machine_inverse_temperature), masks,
            )


class TestKickbackBatch:
    @staticmethod
    def rows_against_single_states(rng, n, rows, masks=None, beta_s=None, beta_m=None):
        """Every row against build_joint_state and apply_level_exchange; a
        random mask and random temperatures per row unless given."""
        omega = rng.uniform(0.25, 2.0, rows)
        if beta_s is None:
            beta_s = rng.uniform(-1.2, 1.2, rows)
        if beta_m is None:
            beta_m = rng.uniform(0.1, 1.5, rows)
        gaps = rng.uniform(0.2, 2.0, (rows, n))
        if masks is None:
            masks = rng.integers(0, 2, (rows, n))
        p0, p0_after, log_z = exactsim.kickback_batch(omega, beta_s, gaps, beta_m, masks)
        assert np.all(np.isfinite(p0)) and np.all(np.isfinite(p0_after)) and np.all(np.isfinite(log_z))
        for t in range(rows):
            state = build_joint_state(ThermalQubit(omega[t], beta_s[t]), build_custom_oracle(gaps[t], beta_m[t]))
            a, b = kickback_level_indices(QueryMask(tuple(int(bit) for bit in masks[t])), n)
            assert p0[t] == probe_marginal(state).p0
            assert log_z[t] == state.log_partition_sum
            assert p0_after[t] == pytest.approx(
                probe_marginal(apply_level_exchange(state, a, b)).p0, rel=0.0, abs=1e-15
            )

    def test_rows_across_chunk_boundaries(self, rng):
        """One chunk holds 2^15 machine levels: 128 rows of 8 machine qubits,
        32 rows of 10 (300 and 70 rows need two full chunks and a part of the
        buffer)."""
        for n, rows in ((1, 20), (6, 20), (8, 300), (10, 70)):
            self.rows_against_single_states(rng, n, rows)

    def test_all_ones_and_all_zeros_rows(self, rng):
        """The extreme masks exchange the first and last levels of each half."""
        masks = np.array([[1] * 5, [0] * 5] * 40)
        self.rows_against_single_states(rng, 5, 80, masks)

    def test_boolean_mask_rows(self, rng):
        self.rows_against_single_states(rng, 4, 9, rng.integers(0, 2, (9, 4)).astype(bool))

    # At |beta| = 500 the unshifted log weights pass the 709 at which exp
    # overflows; 14 machine qubits make two rows a chunk.
    @pytest.mark.parametrize("beta_s", (-500.0, -50.0, 50.0, 500.0))
    @pytest.mark.parametrize("beta_m", (-500.0, -50.0, 50.0, 500.0))
    def test_extreme_and_negative_temperatures(self, beta_s, beta_m, rng):
        self.rows_against_single_states(rng, 14, 5, beta_s=np.full(5, beta_s), beta_m=np.full(5, beta_m))

    def test_seventeen_qubit_rows_one_chunk_each(self, rng):
        """A 17-qubit state exceeds a chunk: each row is written over the last."""
        self.rows_against_single_states(rng, 16, 3)

    def test_mask_rows_validated(self):
        ones = np.ones(2)
        with pytest.raises(ValueError, match="do not match"):
            exactsim.kickback_batch(ones, ones, np.ones((2, 3)), ones, np.ones((2, 2), dtype=int))
        with pytest.raises(ValueError, match="0/1"):
            exactsim.kickback_batch(ones, ones, np.ones((2, 3)), ones, np.full((2, 3), 2))

    def test_qubit_limit(self):
        n = exactsim.DEFAULT_MAX_QUBITS
        with pytest.raises(ValueError, match="exceed"):
            exactsim.kickback_batch(np.ones(1), np.ones(1), np.ones((1, n)), np.ones(1), np.ones((1, n)))
