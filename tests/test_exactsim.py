import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    reference_joint_populations,
    reference_kickback,
    reference_level_energies,
    reference_machine_ground_populations,
    reference_swap,
)
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


def built_populations(state):
    """The 2^(N+1) populations of a built state: its weights times each probe factor."""
    row = state.row
    return np.concatenate((row.weights * row.k_g, row.weights * row.k_e))


class TestBuildJointState:
    def test_infinite_temperature_is_uniform(self):
        probe = ThermalQubit(1.0, 0.0)
        oracle = build_custom_oracle([0.7], 0.0)
        state = build_joint_state(probe, oracle)
        assert state.size == 4
        assert np.allclose(built_populations(state), 0.25, atol=1e-15)

    def test_populations_match_reference_products(self):
        probe, oracle, state = worked_state()
        reference = reference_joint_populations(probe, oracle)
        populations = built_populations(state)
        for (s_bit, machine), expected in reference.items():
            index = (s_bit << 2) | (machine[0] << 1) | machine[1]
            assert populations[index] == pytest.approx(expected, abs=1e-14)

    def test_normalization(self):
        populations = built_populations(worked_state()[2])
        assert float(populations.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(populations >= 0.0)

    def test_partition_sum_is_product_of_partition_functions(self):
        probe = ThermalQubit(0.8, 0.6)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 1, 0)), 1.3, 0.4, 0.9)
        state = build_joint_state(probe, oracle)
        expected = probe.log_partition_function + oracle.log_partition_function
        assert state.row.log_partition_sum == pytest.approx(expected, abs=1e-12)

    def test_gibbs_ordering_at_common_temperature(self):
        beta = 0.8
        probe = ThermalQubit(1.0, beta)
        oracle = build_custom_oracle([0.3, 1.1, 0.6], beta)
        state = build_joint_state(probe, oracle)
        order = np.argsort(reference_level_energies((probe.gap, *oracle.gap_vector.gaps)))
        sorted_pops = built_populations(state)[order]
        assert np.all(np.diff(sorted_pops) <= 1e-15)

    def test_size_limit(self):
        oracle = build_custom_oracle([1.0] * 20, 1.0)
        with pytest.raises(ValueError):
            build_joint_state(ThermalQubit(1.0, 0.5), oracle)

    def test_fresh_marginal_is_initial_probe(self):
        probe = ThermalQubit(1.4, -0.7)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 0, 1)), 0.9, 0.4, 1.2)
        state = build_joint_state(probe, oracle)
        assert probe_marginal(state).p0 == pytest.approx(probe.ground_population, abs=1e-14)


class TestProductWeights:
    """The weights doubled as a product of per-qubit factors."""

    # The 2.0 gap puts |beta_M g| at 800, past the 709 at which e^x
    # overflows a double; the small gaps keep the other levels populated.
    @pytest.mark.parametrize("beta_m", (-400.0, 400.0))
    @pytest.mark.parametrize("beta_s", (-1.0, 0.5))
    def test_weights_match_reference_past_the_overflow(self, beta_s, beta_m):
        probe = ThermalQubit(0.8, beta_s)
        oracle = build_custom_oracle([0.0025, 2.0, 0.001, 0.0, 0.003], beta_m)
        state = build_joint_state(probe, oracle)
        weights = state.row.weights
        assert weights.max() == 1.0 and np.all(weights >= 0.0)
        for (s_bit, machine), expected in reference_joint_populations(probe, oracle).items():
            level = int("".join(str(b) for b in machine), 2)
            population = weights[level] * (state.row.k_g, state.row.k_e)[s_bit]
            assert population == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta_m", (-0.8, 0.8))
    def test_nineteen_qubit_build_holds_only_its_weights(self, beta_m):
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        probe, oracle = ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, beta_m)
        tracemalloc.start()
        try:
            state = build_joint_state(probe, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << n) + (1 << 20)
        assert probe_marginal(state).p0 == pytest.approx(probe.ground_population, abs=1e-14)

    def test_nineteen_qubit_mean_energy_makes_no_copy(self):
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
        tracemalloc.start()
        try:
            energy = machine_mean_energy(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert energy == pytest.approx(n * 0.5 * (1.0 - ThermalQubit(0.5, 0.8).ground_population), rel=1e-13)


class TestLevelExchange:
    def test_trace_preserved(self):
        """An exchange across the halves moves p[b] - p[a] into the probe's
        ground half, and what leaves it goes to the excited half."""
        _, _, state = worked_state()
        populations = built_populations(state)
        after = probe_marginal(apply_level_exchange(state, 0, 7))
        assert after.p0 == pytest.approx(populations[:4].sum() - populations[0] + populations[7], abs=1e-15)
        assert after.p1 == pytest.approx(populations[4:].sum() - populations[7] + populations[0], abs=1e-15)

    def test_identical_indices_rejected(self):
        _, _, state = worked_state()
        with pytest.raises(ValueError, match=re.escape("levels (3, 3) are not a kickback pair")):
            apply_level_exchange(state, 3, 3)

    # Two machine qubits: the kickback pairs are (0, 7), (1, 6), (2, 5) and (3, 4).
    @pytest.mark.parametrize("pair", ((0, 1), (4, 7), (7, 0), (4, 3), (1, 5)),
                             ids=("two-ground", "two-excited", "reversed", "excited-first", "not-partners"))
    def test_other_pairs_rejected(self, pair):
        """Two ground levels, two excited levels, a kickback pair in reverse
        order, and an excited level that is not the ground level's partner."""
        _, _, state = worked_state()
        with pytest.raises(ValueError, match=re.escape(f"levels {pair} are not a kickback pair")):
            apply_level_exchange(state, *pair)

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
        a, b = kickback_level_indices(QueryMask((True, 0, 1.0, False, 1)), 5)
        assert (type(a), type(b), a, b) == (int, int, 0b10101, 0b101010)
        with pytest.raises(ValueError, match="0/1"):
            kickback_level_indices(masks + 1, 5)


def dense_swap(populations, n, index):
    """The populations after swapping the probe bit with machine bit ``index``,
    by flipping both bits of every level where they differ."""
    levels = np.arange(populations.size)
    both = (1 << n) | (1 << (n - 1 - index))
    differ = ((levels >> n) ^ (levels >> (n - 1 - index))) & 1
    return populations[levels ^ (differ * both)]


def assert_reads_like_dense(state, populations):
    """The marginal and mean energies of ``state`` agree with sums over
    ``populations``, a dense copy of its levels."""
    half = populations.size // 2
    energies = reference_level_energies(state.row.machine_gaps)
    p0 = populations[:half].sum()
    assert abs(probe_marginal(state).p0 - p0) <= 1e-15
    assert abs(probe_mean_energy(state) - state.row.probe_gap * (1.0 - p0)) <= 1e-15
    assert machine_mean_energy(state) == pytest.approx(
        np.dot(populations[:half], energies) + np.dot(populations[half:], energies), rel=1e-14, abs=1e-15)


class TestSharedExchange:
    """An exchange of a built state's kickback pair shares its row and
    records the pair; reading it must agree with the dense copy it replaces.
    A chain's second step is refused: a step starts from a built state."""

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_chains_match_dense_copies(self, n, rng):
        """The pairs of the all-ones, the all-zeros and four random masks,
        each followed by another's, the first last."""
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        masks = np.vstack([np.ones((1, n), dtype=int), np.zeros((1, n), dtype=int), rng.integers(0, 2, (4, n))])
        pairs = [(int(a), int(b)) for a, b in zip(*kickback_level_indices(masks, n))]
        for (a, b), second in zip(pairs, pairs[1:] + pairs[:1]):
            exchanged = apply_level_exchange(state, a, b)
            assert exchanged.row is state.row
            populations = built_populations(state)
            populations[[a, b]] = populations[[b, a]]
            assert_reads_like_dense(exchanged, populations)
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_level_exchange(exchanged, *second)
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_swap_with_machine_qubit(exchanged, 0)

    def test_shared_array_is_read_only(self):
        _, _, state = worked_state()
        for each in (state, apply_swap_with_machine_qubit(state, 0), apply_level_exchange(state, 1, 6)):
            assert each.row is state.row
            with pytest.raises(ValueError):
                each.row.weights[0] = 0.5

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
        assert after.row is state.row


class TestLazySwap:
    """A swap shares its parent's row and records the swapped bit; reading
    it must agree with the dense copy it replaces. A chain's second step is
    refused."""

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_chains_match_dense_copies(self, n, rng):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        a, b = kickback_level_indices(QueryMask(tuple(int(bit) for bit in rng.integers(0, 2, n))), n)
        for index in range(n):
            swapped = apply_swap_with_machine_qubit(state, index)
            assert swapped.row is state.row
            assert_reads_like_dense(swapped, dense_swap(built_populations(state), n, index))
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_swap_with_machine_qubit(swapped, index)  # swap back
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_level_exchange(swapped, a, b)

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
            assert swapped.row is state.row
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
        assert_reads_like_dense(apply_swap_with_machine_qubit(state, 0), built_populations(state))

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


def assert_swapped_energies_to_relative_precision(n, beta_s, rng):
    """After a SWAP with qubit j the machine holds the probe's excitation
    at gap j: at beta_S = 50 a one-qubit machine holds about e^{-50} of
    energy, which a difference of energies of order 1 would lose."""
    probe = ThermalQubit(1.0, beta_s)
    oracle = build_custom_oracle(rng.uniform(0.2, 2.0, n), 1.0)
    state = build_joint_state(probe, oracle)
    for index, (_, energy) in enumerate(reference_swap(probe, oracle)):
        swapped = apply_swap_with_machine_qubit(state, index)
        assert machine_mean_energy(swapped) == pytest.approx(energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(1, 9))
class TestAgainstReference:
    def test_levels_in_big_endian_order(self, n):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        populations = built_populations(state)
        reference = reference_joint_populations(probe, oracle)
        energies = reference_level_energies((probe.gap, *oracle.gap_vector.gaps))
        assert state.size == len(reference) == len(energies) == len(populations) == 1 << (n + 1)
        for (s_bit, machine), expected in reference.items():
            index = int("".join(str(b) for b in (s_bit, *machine)), 2)
            energy = s_bit * probe.gap + reference_machine_energy(machine, oracle.gap_vector.gaps)
            assert populations[index] == pytest.approx(expected, abs=1e-14)
            assert energies[index] == pytest.approx(energy, abs=1e-13)
        mean = probe_mean_energy(state) + machine_mean_energy(state)
        assert mean == pytest.approx(np.dot(populations, energies), abs=1e-13)

    def test_excited_energies_add_the_probe_gap(self, n, rng):
        """The kickback exchange of a ground level a with the excited level b
        of a random mask moves (p[a] - p[b]) (E(b) - E(a)) of energy, E(b)
        holding the probe gap."""
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        populations = built_populations(state)
        energies = reference_level_energies((probe.gap, *oracle.gap_vector.gaps))
        mean = probe_mean_energy(state) + machine_mean_energy(state)
        for a, b in zip(*(levels.tolist() for levels in kickback_level_indices(rng.integers(0, 2, (4, n)), n))):
            after = apply_level_exchange(state, a, b)
            transferred = (populations[a] - populations[b]) * (energies[b] - energies[a])
            assert probe_mean_energy(after) + machine_mean_energy(after) - mean == pytest.approx(transferred, abs=1e-13)

    def test_swap_with_every_machine_qubit(self, n):
        """The probe marginal and the machine mean energy, at 40 digits."""
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        for index, (p0, energy) in enumerate(reference_swap(probe, oracle)):
            once = apply_swap_with_machine_qubit(state, index)
            assert probe_marginal(once).p0 == pytest.approx(p0, abs=1e-13)
            assert machine_mean_energy(once) == pytest.approx(energy, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("beta_s", (-50.0, 50.0))
    def test_swapped_machine_energy_to_relative_precision(self, n, beta_s, rng):
        assert_swapped_energies_to_relative_precision(n, beta_s, rng)

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
        populations = built_populations(state)
        assert np.all(np.isfinite(populations))
        assert np.all(populations >= 0.0)
        assert float(populations.sum()) == pytest.approx(1.0, abs=1e-12)
        expected = probe.log_partition_function + oracle.log_partition_function
        assert abs(state.row.log_partition_sum - expected) <= 1e-12 * max(1.0, abs(expected))


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


def draw(rng, n, rows, beta_s=None, beta_m=None, scale=1.5):
    """Probe gaps, beta_S, machine gaps and beta_M of ``rows`` states: beta_S
    in [-1.2, 1.2] and beta_M of alternating sign, |beta_M| up to ``scale``,
    unless given."""
    omega = rng.uniform(0.25, 2.0, rows)
    if beta_s is None:
        beta_s = rng.uniform(-1.2, 1.2, rows)
    if beta_m is None:
        beta_m = rng.uniform(0.1, scale, rows) * np.resize([1.0, -1.0], rows)
    return omega, beta_s, rng.uniform(0.2, 2.0, (rows, n)), beta_m


def cases(omega, beta_s, gaps, beta_m):
    for t in range(len(omega)):
        yield t, ThermalQubit(omega[t], beta_s[t]), build_custom_oracle(gaps[t], beta_m[t])


def kickback_rows_against_reference(columns, masks):
    """kickback_batch with its machine energies against the 40-digit
    reference of conftest, row by row; the kickback outputs bit-identical
    to a call without energies."""
    outputs = exactsim.kickback_batch(*columns, masks, energies=True)
    for plain, with_energies in zip(exactsim.kickback_batch(*columns, masks), outputs[:3], strict=True):
        assert np.array_equal(plain, with_energies)
    for t, probe, oracle in cases(*columns):
        expected = reference_kickback(probe, oracle, tuple(masks[t].tolist()))
        p0, p0_after, log_z, energy, energy_after = (values[t] for values in outputs)
        assert p0 == pytest.approx(expected.p0, rel=0.0, abs=1e-14)
        assert p0_after == pytest.approx(expected.p0_after, rel=0.0, abs=1e-14)
        assert log_z == pytest.approx(expected.log_partition_sum, rel=1e-14, abs=1e-14)
        assert energy == pytest.approx(expected.energy, rel=1e-13, abs=1e-14)
        assert energy_after == pytest.approx(expected.energy_after, rel=1e-13, abs=1e-14)


def swap_rows_against_reference(columns):
    """swap_batch against the 40-digit reference of conftest, row by row."""
    p0 = exactsim.swap_batch(*columns)
    rows, n = columns[2].shape
    assert p0.shape == (rows, n)
    for t, probe, oracle in cases(*columns):
        expected = [swapped_p0 for swapped_p0, _ in reference_swap(probe, oracle)]
        assert p0[t] == pytest.approx(expected, rel=0.0, abs=1e-14)


class TestKickbackBatch:
    @staticmethod
    def rows_against_single_states(rng, n, rows):
        """Every row of a random mask and random temperatures against
        build_joint_state and apply_level_exchange: the same arithmetic,
        whichever chunk holds the row."""
        omega = rng.uniform(0.25, 2.0, rows)
        beta_s = rng.uniform(-1.2, 1.2, rows)
        beta_m = rng.uniform(0.1, 1.5, rows)
        gaps = rng.uniform(0.2, 2.0, (rows, n))
        masks = rng.integers(0, 2, (rows, n))
        p0, p0_after, log_z = exactsim.kickback_batch(omega, beta_s, gaps, beta_m, masks)
        for t in range(rows):
            state = build_joint_state(ThermalQubit(omega[t], beta_s[t]), build_custom_oracle(gaps[t], beta_m[t]))
            a, b = kickback_level_indices(QueryMask(tuple(int(bit) for bit in masks[t])), n)
            assert p0[t] == probe_marginal(state).p0
            assert log_z[t] == state.row.log_partition_sum
            assert p0_after[t] == probe_marginal(apply_level_exchange(state, a, b)).p0

    def test_rows_across_chunk_boundaries(self, rng):
        """One chunk holds 2^16 machine levels: 256 rows of 8 machine qubits,
        64 rows of 10 (300 and 70 rows need a full chunk and a part of the
        buffer)."""
        for n, rows in ((1, 20), (6, 20), (8, 300), (10, 70)):
            self.rows_against_single_states(rng, n, rows)

    def test_all_ones_and_all_zeros_rows(self, rng):
        """The extreme masks exchange the first and last levels of each half."""
        kickback_rows_against_reference(draw(rng, 5, 8), np.array([[1] * 5, [0] * 5] * 4))

    def test_boolean_mask_rows(self, rng):
        kickback_rows_against_reference(draw(rng, 4, 9), rng.integers(0, 2, (9, 4)).astype(bool))

    # At |beta| = 500 the unshifted log weights pass the 709 at which exp
    # overflows.
    @pytest.mark.parametrize("beta_s", (-500.0, -50.0, 50.0, 500.0))
    @pytest.mark.parametrize("beta_m", (-500.0, -50.0, 50.0, 500.0))
    def test_extreme_and_negative_temperatures(self, beta_s, beta_m, rng):
        columns = draw(rng, 6, 5, beta_s=np.full(5, beta_s), beta_m=np.full(5, beta_m))
        kickback_rows_against_reference(columns, rng.integers(0, 2, (5, 6)))

    def test_seventeen_qubit_rows_one_chunk_each(self, rng):
        """A 17-qubit state fills a chunk: each row is written over the last."""
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


class TestBatchesAgainstReference:
    """kickback_batch, with its machine energies, and swap_batch against the
    40-digit Decimal reference of conftest: no state-path call on either side."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kickback_rows(self, n, rng):
        kickback_rows_against_reference(draw(rng, n, 8), rng.integers(0, 2, (8, n)))

    def test_kickback_rows_at_extreme_temperatures(self, rng):
        """|beta_M| up to 50, so the weights span up to e^{+-500} and the
        rows of negative beta_M scale their factors; the extreme masks and
        random ones."""
        columns = draw(rng, 5, 12, scale=50.0)
        masks = np.vstack([np.ones((4, 5), dtype=int), np.zeros((4, 5), dtype=int), rng.integers(0, 2, (4, 5))])
        kickback_rows_against_reference(columns, masks)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_swap_rows(self, n, rng):
        swap_rows_against_reference(draw(rng, n, 6))


class TestSwapAndEnergyBatches:
    """swap_batch and kickback_batch with its machine energies against the
    state path (build_joint_state, then a step and a read), bit for bit:
    the same kernels on one row, whichever chunk holds it, at every grid
    width; and against the 40-digit reference at extreme temperatures."""

    @staticmethod
    def swap_rows_against_states(columns):
        """The swap marginals of every row equal to its state's."""
        p0 = exactsim.swap_batch(*columns)
        rows, n = columns[2].shape
        assert p0.shape == (rows, n)
        for t, probe, oracle in cases(*columns):
            state = build_joint_state(probe, oracle)
            expected = [probe_marginal(apply_swap_with_machine_qubit(state, j)).p0 for j in range(n)]
            assert p0[t].tolist() == expected

    @staticmethod
    def energy_rows_against_states(columns, masks):
        """p0, p0', the log weight sum and the machine mean energy before and
        after V(masks[t]) of every row equal to its state's, and the kickback
        outputs bit-identical to a call without energies."""
        n = masks.shape[1]
        plain = exactsim.kickback_batch(*columns, masks)
        *kickback, before, after = exactsim.kickback_batch(*columns, masks, energies=True)
        for a, b in zip(plain, kickback, strict=True):
            assert np.array_equal(a, b)
        p0, p0_after, log_z = kickback
        for t, probe, oracle in cases(*columns):
            state = build_joint_state(probe, oracle)
            exchanged = apply_level_exchange(state, *kickback_level_indices(QueryMask(tuple(masks[t])), n))
            assert (p0[t], p0_after[t], log_z[t]) == (probe_marginal(state).p0, probe_marginal(exchanged).p0,
                                                      state.row.log_partition_sum)
            assert (before[t], after[t]) == (machine_mean_energy(state), machine_mean_energy(exchanged))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_swap_rows(self, n, rng):
        self.swap_rows_against_states(draw(rng, n, 12))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_energy_rows(self, n, rng):
        self.energy_rows_against_states(draw(rng, n, 12), rng.integers(0, 2, (12, n)))

    def test_rows_across_chunk_boundaries(self, rng):
        """256 rows of 8 machine qubits fill a chunk; 64 of 10 do."""
        for n, rows in ((8, 300), (10, 70)):
            columns = draw(rng, n, rows)
            self.swap_rows_against_states(columns)
            self.energy_rows_against_states(columns, rng.integers(0, 2, (rows, n)))

    @pytest.mark.parametrize("beta_s", (-50.0, 50.0))
    @pytest.mark.parametrize("beta_m", (-50.0, 50.0))
    def test_extreme_and_negative_temperatures(self, beta_s, beta_m, rng):
        columns = draw(rng, 6, 5, beta_s=np.full(5, beta_s), beta_m=np.full(5, beta_m))
        swap_rows_against_reference(columns)
        kickback_rows_against_reference(columns, np.ones((5, 6), dtype=int))
        self.swap_rows_against_states(columns)
        self.energy_rows_against_states(columns, rng.integers(0, 2, (5, 6)))

    # Grids of 2 (h = 1) and 16 rows, and the 17- and 20-qubit states of the
    # exact benchmark: random rows, then rows at |beta_S| = |beta_M| = 50 of
    # both signs, whose weights span up to e^{+-50 g}.
    @pytest.mark.parametrize("n", (9, 12, 16, 19))
    def test_grid_widths(self, n, rng):
        rows = 4 if n <= 12 else 2
        signs = np.resize([1.0, -1.0], rows)
        for columns in (draw(rng, n, rows), draw(rng, n, rows, beta_s=50.0 * signs, beta_m=-50.0 * signs[::-1])):
            self.swap_rows_against_states(columns)
            self.energy_rows_against_states(columns, rng.integers(0, 2, (rows, n)))

    def test_all_ones_exchange_energy_is_the_reset_cost(self, rng):
        """The all-ones exchange moves delta_p0 machine excitations of |G|."""
        columns = draw(rng, 5, 20)
        p0, p0_after, _, before, after = exactsim.kickback_batch(*columns, np.ones((20, 5)), energies=True)
        assert after - before == pytest.approx((p0_after - p0) * columns[2].sum(axis=1), rel=1e-12, abs=1e-15)

    def test_batches_never_call_the_closed_forms(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact simulator called the analytic code")

        for name in ("kickback_shift", "oracle_shift", "shift_outcome", "kickback_outcome"):
            monkeypatch.setattr(query, name, forbidden)
        monkeypatch.setattr(ThermalMachineOracle, "log_partition_function", property(forbidden))
        columns = draw(rng, 4, 6)
        assert np.all(np.isfinite(exactsim.swap_batch(*columns)))
        outputs = exactsim.kickback_batch(*columns, np.ones((6, 4)), energies=True)
        assert len(outputs) == 5 and all(np.all(np.isfinite(values)) for values in outputs)

    def test_qubit_limit(self):
        n = exactsim.DEFAULT_MAX_QUBITS
        with pytest.raises(ValueError, match="exceed"):
            exactsim.swap_batch(np.ones(1), np.ones(1), np.ones((1, n)), np.ones(1))


def dense_machine_energies(gaps):
    """E(x) of every machine level x, big-endian, as an explicit 2^N array."""
    n = len(gaps)
    levels = np.arange(1 << n)
    energies = np.zeros(1 << n)
    for j, gap in enumerate(gaps):
        energies += gap * ((levels >> (n - 1 - j)) & 1)
    return energies


def strided_zero_sum(weights, bit):
    """A row's weights summed directly over the machine levels whose ``bit`` is 0."""
    return weights.reshape(1 << bit, 2, -1)[:, 0, :].sum()


# Up to 8 machine qubits the weight grid has one row (h = 0), at 9 two and at
# 12 sixteen. 16 and 19 machine qubits, 256 x 256 and 512 x 1024 grids, are the
# 17- and 20-qubit states of the exact benchmark, too large for the Decimal
# populations.
GRID_SIZES = (*range(1, 13), 16, 19)


@pytest.mark.parametrize("n", GRID_SIZES)
class TestGridReads:
    """The reads taken from the row and column sums of the 2^h by 2^l
    weight grid, by swap_batch and kickback_batch and by the state path,
    against direct sums over the dense weights and 40-digit references."""

    @staticmethod
    def draw_rows(rng, n):
        return draw(rng, n, 3 if n <= 8 else 1)

    def test_bit_marginals(self, n, rng):
        columns = self.draw_rows(rng, n)
        p0 = exactsim.swap_batch(*columns)
        for t, probe, oracle in cases(*columns):
            state = build_joint_state(probe, oracle)
            factor = state.row.k_g + state.row.k_e
            if n <= 12:
                reference = [swapped_p0 for swapped_p0, _ in reference_swap(probe, oracle)]
            else:  # a product state: the probe takes bit j's ground population
                reference = reference_machine_ground_populations(oracle)
            for j in range(n):
                direct = strided_zero_sum(state.row.weights, j) * factor
                read = probe_marginal(apply_swap_with_machine_qubit(state, j)).p0
                for value in (p0[t, j], read):
                    assert value == pytest.approx(direct, rel=1e-13, abs=1e-15)
                    assert value == pytest.approx(reference[j], rel=0.0, abs=1e-14)

    def test_mean_energies(self, n, rng):
        """Before and after a random mask's exchange and after a SWAP with
        each machine qubit, against dense dot products with the level energies."""
        columns = self.draw_rows(rng, n)
        masks = rng.integers(0, 2, (len(columns[0]), n))
        *_, before, after = exactsim.kickback_batch(*columns, masks, energies=True)
        for t, probe, oracle in cases(*columns):
            state = build_joint_state(probe, oracle)
            energies = np.tile(dense_machine_energies(oracle.gap_vector.gaps), 2)
            populations = built_populations(state)
            a, b = kickback_level_indices(QueryMask(tuple(masks[t].tolist())), n)
            exchanged = populations.copy()
            exchanged[[a, b]] = populations[[b, a]]
            expected = np.dot(populations, energies), np.dot(exchanged, energies)
            reads = machine_mean_energy(state), machine_mean_energy(apply_level_exchange(state, a, b))
            for batch, read, dense in zip((before[t], after[t]), reads, expected):
                assert batch == pytest.approx(dense, rel=1e-12)
                assert read == pytest.approx(dense, rel=1e-12)
            for j in (range(n) if n <= 12 else (0, n // 2, n - 1)):
                swapped = apply_swap_with_machine_qubit(state, j)
                dense = np.dot(dense_swap(populations, n, j), energies)
                assert machine_mean_energy(swapped) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", range(9, 13))
@pytest.mark.parametrize("beta_s", (-50.0, 50.0))
def test_swapped_machine_energy_to_relative_precision_on_grids(n, beta_s, rng):
    """The relative precision pinned for 1-8 machine qubits, on grids of 2 to 32 rows."""
    assert_swapped_energies_to_relative_precision(n, beta_s, rng)


@pytest.mark.parametrize("n", range(1, 10))
def test_small_machines_total_their_row_in_one_pairwise_sum(n, rng):
    """Up to 9 machine qubits the grid has at most two rows, the halves in
    which numpy's pairwise sum of a row takes it: the total is bit-identical
    to a plain sum of the weights."""
    for t, probe, oracle in cases(*draw(rng, n, 3)):
        row = build_joint_state(probe, oracle).row
        assert row.sums.shape == (2 if n == 9 else 1,)
        assert row.total == row.weights.sum()


def test_column_sums_taken_only_for_a_read_that_needs_them():
    """A 20-qubit build takes the row sums alone; p0, an exchange and a SWAP
    with a high bit read them. A SWAP with a low bit or an energy read takes
    the column sums, once per built row."""
    n = exactsim.DEFAULT_MAX_QUBITS - 1
    state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
    high = state.row.high
    assert state.row.sums.shape == (1 << high,) and high == 9
    a, b = kickback_level_indices(QueryMask.all_ones(n), n)
    for each in (state, apply_level_exchange(state, a, b), apply_swap_with_machine_qubit(state, high - 1)):
        probe_marginal(each)
    assert "columns" not in vars(state.row)
    probe_marginal(apply_swap_with_machine_qubit(state, high))
    columns = vars(state.row)["columns"]
    machine_mean_energy(state)
    assert vars(state.row)["columns"] is columns and columns.shape == (1 << (n - high),)
