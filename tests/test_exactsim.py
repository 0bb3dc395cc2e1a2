import inspect
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
# Every public function of query: the closed forms the exact simulator must not call.
CLOSED_FORMS = [name for name in query.__all__ if inspect.isfunction(getattr(query, name))]


def worked_state():
    probe = ThermalQubit(1.0, 0.0)
    oracle = build_dj_oracle(BALANCED_1BIT, 1.0, 0.5, 1.0)
    return probe, oracle, build_joint_state(probe, oracle)


def dense_factors(probe, oracle):
    """The machine weights w of all 2^N levels, doubled over the whole row
    from exactsim's per-qubit factors, one machine qubit at a time, the last
    first: the dense row that a state must match bit for bit. With them the
    probe's ground and excited factors and the sum of the scale exponents."""
    gaps = np.array(oracle.gap_vector.gaps, dtype=float)
    excited, ground, scaled, shift_sum = exactsim._factors(probe.gap, probe.inverse_temperature, gaps,
                                                           oracle.machine_inverse_temperature)
    weights = np.ones(1)
    for column in range(gaps.size, 0, -1):
        cleared = weights * ground[column] if scaled[column] else weights
        weights = np.concatenate((cleared, weights * excited[column]))
    return weights, ground[0], excited[0], shift_sum


def dense_weights(probe, oracle):
    return dense_factors(probe, oracle)[0]


def dense_populations(probe, oracle):
    """The 2^(N+1) normalized populations of the dense row: w times the
    probe's ground factor, then w times its excited factor."""
    weights, ground, excited, _ = dense_factors(probe, oracle)
    return np.concatenate((weights * ground, weights * excited)) / (weights.sum() * (ground + excited))


class TestBuildJointState:
    def test_infinite_temperature_is_uniform(self):
        """Every level holds 1/4: p0 is 1/2 before and after the exchange
        and the SWAP, and the machine holds half its gap."""
        probe = ThermalQubit(1.0, 0.0)
        oracle = build_custom_oracle([0.7], 0.0)
        state = build_joint_state(probe, oracle)
        assert state.size == 4
        for each in (state, apply_level_exchange(state, 0, 3), apply_swap_with_machine_qubit(state, 0)):
            assert probe_marginal(each).p0 == pytest.approx(0.5, abs=1e-15)
        assert machine_mean_energy(state) == pytest.approx(0.35, abs=1e-15)

    def test_populations_match_reference_products(self):
        """p0 and the machine energy before and after the exchange of every
        mask, which moves p[b] - p[a] into the probe's ground half, against
        the 40-digit populations."""
        probe, oracle, state = worked_state()
        expected = reference_kickback(probe, oracle, (0, 0))
        assert probe_marginal(state).p0 == pytest.approx(expected.p0, abs=1e-14)
        assert machine_mean_energy(state) == pytest.approx(expected.energy, abs=1e-14)
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            expected = reference_kickback(probe, oracle, bits)
            after = apply_level_exchange(state, *kickback_level_indices(QueryMask(bits), 2))
            assert probe_marginal(after).p0 == pytest.approx(expected.p0_after, abs=1e-14)
            assert machine_mean_energy(after) == pytest.approx(expected.energy_after, abs=1e-14)

    def test_normalization(self):
        """The log weight sum normalizes the dense row: the dense weights
        times both probe factors, scaled back, sum to its exponential."""
        probe, oracle, state = worked_state()
        weights, ground, excited, shift_sum = dense_factors(probe, oracle)
        assert np.all(weights >= 0.0)
        assert state.row.log_partition_sum == pytest.approx(
            float(shift_sum + np.log(weights.sum() * (ground + excited))), abs=1e-15)

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
        populations = dense_populations(probe, oracle)
        assert np.all(np.diff(populations[order]) <= 1e-15)
        assert probe_marginal(state).p0 == pytest.approx(populations[:8].sum(), abs=1e-15)

    def test_size_limit(self):
        oracle = build_custom_oracle([1.0] * 20, 1.0)
        with pytest.raises(ValueError):
            build_joint_state(ThermalQubit(1.0, 0.5), oracle)

    def test_fresh_marginal_is_initial_probe(self):
        probe = ThermalQubit(1.4, -0.7)
        oracle = build_dj_oracle(BooleanFunctionTable(2, (0, 1, 0, 1)), 0.9, 0.4, 1.2)
        state = build_joint_state(probe, oracle)
        assert probe_marginal(state).p0 == pytest.approx(probe.ground_population, abs=1e-14)


# A 20-qubit build or batch row: its first block of 2^16 machine levels, the
# half block it sweeps the row in, and 64 KiB for the grid sums, the sweep's
# column-sum row and small arrays.
SWEEP_BYTES = (8 << 16) + (8 << 15) + (1 << 16)
# What a built state keeps: its grid sums and factors, an eighth of one block.
KEPT_BYTES = 1 << 16


class TestProductWeights:
    """The weights doubled as a product of per-qubit factors."""

    # The 2.0 gap puts |beta_M g| at 800, past the 709 at which e^x
    # overflows a double; the small gaps keep the other levels populated.
    @pytest.mark.parametrize("beta_m", (-400.0, 400.0))
    @pytest.mark.parametrize("beta_s", (-1.0, 0.5))
    def test_weights_match_reference_past_the_overflow(self, beta_s, beta_m):
        """The factors keep every weight at most 1, and the dense row's
        populations and the state's p0 hold their relative precision."""
        probe = ThermalQubit(0.8, beta_s)
        oracle = build_custom_oracle([0.0025, 2.0, 0.001, 0.0, 0.003], beta_m)
        state = build_joint_state(probe, oracle)
        weights = dense_weights(probe, oracle)
        assert weights.max() == 1.0 and np.all(weights >= 0.0)
        populations = dense_populations(probe, oracle)
        reference = reference_joint_populations(probe, oracle)
        for (s_bit, machine), expected in reference.items():
            level = int("".join(str(b) for b in (s_bit, *machine)), 2)
            assert populations[level] == pytest.approx(expected, rel=1e-14, abs=0.0)
        p0 = sum(p for (s_bit, _), p in reference.items() if s_bit == 0)
        assert probe_marginal(state).p0 == pytest.approx(p0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", (16, exactsim.DEFAULT_MAX_QUBITS - 1))
    @pytest.mark.parametrize("beta_m", (-0.8, 0.8))
    def test_build_keeps_only_its_grid_sums(self, n, beta_m):
        """A 17- or 20-qubit build holds at most one block of 2^16 machine
        levels (512 KiB), half a block to sweep a wider row and the grid
        sums, not the 4 MiB of 2^19 weights; the state it returns keeps an
        eighth of one block, and its steps and reads add nothing to that."""
        probe, oracle = ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, beta_m)
        a, b = kickback_level_indices(QueryMask.all_ones(n), n)
        tracemalloc.start()
        try:
            state = build_joint_state(probe, oracle)
            kept, peak = tracemalloc.get_traced_memory()
            exchanged = apply_level_exchange(state, a, b)
            swapped = apply_swap_with_machine_qubit(state, n - 1)
            reads = [f(each) for each in (state, exchanged, swapped) for f in (probe_marginal, probe_mean_energy)]
            reads += [machine_mean_energy(state), machine_mean_energy(exchanged)]
            stepped = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak <= SWEEP_BYTES
        assert kept <= KEPT_BYTES and stepped <= KEPT_BYTES
        assert probe_marginal(state).p0 == pytest.approx(probe.ground_population, abs=1e-14)

    def test_nineteen_qubit_mean_energy_makes_no_copy(self):
        """The build and the energy read together stay within the build's bound."""
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        tracemalloc.start()
        try:
            state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
            energy = machine_mean_energy(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SWEEP_BYTES
        assert energy == pytest.approx(n * 0.5 * (1.0 - ThermalQubit(0.5, 0.8).ground_population), rel=1e-13)


class TestLevelExchange:
    def test_trace_preserved(self):
        """An exchange across the halves moves p[b] - p[a] into the probe's
        ground half, and what leaves it goes to the excited half."""
        probe, oracle, state = worked_state()
        populations = dense_populations(probe, oracle)
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


def assert_reads_like_dense(state, populations, probe, oracle):
    """The marginal and mean energies of ``state`` agree with sums over
    ``populations``, a dense copy of its levels; a swapped state refuses
    its machine energy."""
    half = populations.size // 2
    energies = reference_level_energies(oracle.gap_vector.gaps)
    p0 = populations[:half].sum()
    assert abs(probe_marginal(state).p0 - p0) <= 1e-15
    assert abs(probe_mean_energy(state) - probe.gap * (1.0 - p0)) <= 1e-15
    if state.swapped is not None:
        with pytest.raises(ValueError, match="a swapped state has no machine mean energy"):
            machine_mean_energy(state)
        return
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
            populations = dense_populations(probe, oracle)
            populations[[a, b]] = populations[[b, a]]
            assert_reads_like_dense(exchanged, populations, probe, oracle)
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_level_exchange(exchanged, *second)
            with pytest.raises(ValueError, match="a step starts from a built state"):
                apply_swap_with_machine_qubit(exchanged, 0)

    def test_steps_share_the_row_and_leave_its_reads(self):
        """A step shares the built row and leaves the built state's reads
        as they were, bit for bit."""
        _, _, state = worked_state()
        before = probe_marginal(state).p0, machine_mean_energy(state)
        for each in (state, apply_swap_with_machine_qubit(state, 0), apply_level_exchange(state, 1, 6)):
            assert each.row is state.row
            assert (probe_marginal(state).p0, machine_mean_energy(state)) == before

    def test_twenty_qubit_exchange_makes_no_copy(self):
        """The build, the exchange and its reads together stay within the build's bound."""
        n = exactsim.DEFAULT_MAX_QUBITS - 1
        a, b = kickback_level_indices(QueryMask.all_ones(n), n)
        tracemalloc.start()
        try:
            state = build_joint_state(ThermalQubit(1.0, 0.5), build_custom_oracle([0.5] * n, 0.8))
            after = apply_level_exchange(state, a, b)
            probe_marginal(after)
            machine_mean_energy(after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SWEEP_BYTES
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
            assert_reads_like_dense(swapped, dense_swap(dense_populations(probe, oracle), n, index), probe, oracle)
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
        swapped = apply_swap_with_machine_qubit(state, 0)
        assert_reads_like_dense(swapped, dense_populations(probe, oracle), probe, oracle)

    def test_out_of_range(self):
        _, _, state = worked_state()
        with pytest.raises(IndexError):
            apply_swap_with_machine_qubit(state, 2)

    def test_machine_energy_is_refused(self):
        """No kernel computes a swapped state's machine energy; its probe reads stay."""
        _, _, state = worked_state()
        swapped = apply_swap_with_machine_qubit(state, 0)
        with pytest.raises(ValueError, match="^a swapped state has no machine mean energy: only its probe marginal"):
            machine_mean_energy(swapped)
        assert probe_mean_energy(swapped) == pytest.approx(1.0 - probe_marginal(swapped).p0, abs=1e-15)


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


def assert_swapped_reads_at_an_extreme_probe(n, beta_s, rng):
    """At beta_S = +-50 one probe factor is about e^{-50} of the other:
    after a SWAP with each qubit the probe's p0, the zero-sum of the
    swapped bit times both, keeps its relative precision; the machine
    energy is refused."""
    probe = ThermalQubit(1.0, beta_s)
    oracle = build_custom_oracle(rng.uniform(0.2, 2.0, n), 1.0)
    state = build_joint_state(probe, oracle)
    for index, (p0, _) in enumerate(reference_swap(probe, oracle)):
        swapped = apply_swap_with_machine_qubit(state, index)
        assert probe_marginal(swapped).p0 == pytest.approx(p0, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="a swapped state has no machine mean energy"):
            machine_mean_energy(swapped)


@pytest.mark.parametrize("n", range(1, 9))
class TestAgainstReference:
    def test_levels_in_big_endian_order(self, n):
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        populations = dense_populations(probe, oracle)
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
        populations = dense_populations(probe, oracle)
        energies = reference_level_energies((probe.gap, *oracle.gap_vector.gaps))
        mean = probe_mean_energy(state) + machine_mean_energy(state)
        for a, b in zip(*(levels.tolist() for levels in kickback_level_indices(rng.integers(0, 2, (4, n)), n))):
            after = apply_level_exchange(state, a, b)
            transferred = (populations[a] - populations[b]) * (energies[b] - energies[a])
            assert probe_mean_energy(after) + machine_mean_energy(after) - mean == pytest.approx(transferred, abs=1e-13)

    def test_swap_with_every_machine_qubit(self, n):
        """The probe marginal at 40 digits; the machine energy is refused."""
        probe, oracle = reference_case(n)
        state = build_joint_state(probe, oracle)
        for index, (p0, _) in enumerate(reference_swap(probe, oracle)):
            once = apply_swap_with_machine_qubit(state, index)
            assert probe_marginal(once).p0 == pytest.approx(p0, abs=1e-13)
            with pytest.raises(ValueError, match="a swapped state has no machine mean energy"):
                machine_mean_energy(once)

    @pytest.mark.parametrize("beta_s", (-50.0, 50.0))
    def test_swapped_reads_at_an_extreme_probe(self, n, beta_s, rng):
        assert_swapped_reads_at_an_extreme_probe(n, beta_s, rng)

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
        populations = dense_populations(probe, oracle)
        assert np.all(np.isfinite(populations))
        assert np.all(populations >= 0.0)
        assert float(populations.sum()) == pytest.approx(1.0, abs=1e-12)
        assert probe_marginal(state).p0 == pytest.approx(float(populations[: 1 << 12].sum()), abs=1e-12)
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

        for name in CLOSED_FORMS:
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
            machine_mean_energy(state)
            machine_mean_energy(exchanged)
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
        """256 rows of 8 machine qubits fill a chunk; 64 of 10 do. 257 rows
        leave a last chunk of one row, which is doubled on its 1-D views."""
        for n, rows in ((8, 300), (8, 257), (10, 70)):
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

        for name in CLOSED_FORMS:
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
            weights = dense_weights(probe, oracle)
            for j in range(n):
                direct = strided_zero_sum(weights, j) * factor
                read = probe_marginal(apply_swap_with_machine_qubit(state, j)).p0
                for value in (p0[t, j], read):
                    assert value == pytest.approx(direct, rel=1e-13, abs=1e-15)
                    assert value == pytest.approx(reference[j], rel=0.0, abs=1e-14)

    def test_mean_energies(self, n, rng):
        """Before and after a random mask's exchange, against dense dot
        products with the level energies."""
        columns = self.draw_rows(rng, n)
        masks = rng.integers(0, 2, (len(columns[0]), n))
        *_, before, after = exactsim.kickback_batch(*columns, masks, energies=True)
        for t, probe, oracle in cases(*columns):
            state = build_joint_state(probe, oracle)
            energies = np.tile(dense_machine_energies(oracle.gap_vector.gaps), 2)
            populations = dense_populations(probe, oracle)
            a, b = kickback_level_indices(QueryMask(tuple(masks[t].tolist())), n)
            exchanged = populations.copy()
            exchanged[[a, b]] = populations[[b, a]]
            expected = np.dot(populations, energies), np.dot(exchanged, energies)
            reads = machine_mean_energy(state), machine_mean_energy(apply_level_exchange(state, a, b))
            for batch, read, dense in zip((before[t], after[t]), reads, expected):
                assert batch == pytest.approx(dense, rel=1e-12)
                assert read == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n", range(9, 13))
@pytest.mark.parametrize("beta_s", (-50.0, 50.0))
def test_swapped_reads_at_an_extreme_probe_on_grids(n, beta_s, rng):
    """The relative precision pinned for 1-8 machine qubits, on grids of 2 to 32 rows."""
    assert_swapped_reads_at_an_extreme_probe(n, beta_s, rng)


@pytest.mark.parametrize("n", range(1, 10))
def test_small_machines_total_their_row_in_one_pairwise_sum(n, rng):
    """Up to 9 machine qubits the grid has at most two rows, the halves in
    which numpy's pairwise sum of a row takes it: the total is bit-identical
    to a plain sum of the weights."""
    for t, probe, oracle in cases(*draw(rng, n, 3)):
        row = build_joint_state(probe, oracle).row
        assert row.sums.shape == (2 if n == 9 else 1,)
        assert row.total == dense_weights(probe, oracle).sum()


# 17 to 19 machine qubits: rows of 2, 4 and 8 blocks of 2^16 levels. beta_M
# of either sign, negative ones scaling every factor, and |beta_M| = 400,
# whose weights reach e^{-800} past the smallest double at the 2.0 gap.
@pytest.mark.parametrize("beta_m", (0.9, -0.7, 400.0, -400.0))
@pytest.mark.parametrize("n", (17, 18, 19))
class TestBlockSweep:
    """A row past 2^16 machine levels is built and reduced in blocks, from
    its first block: its sums, its weights and every read must equal, bit
    for bit, those of a dense doubling of the whole row."""

    @staticmethod
    def rows(rng, n, beta_m):
        """One row per block, with gaps up to 2.0, and each row's mask puts
        a in that block and b in the mirror one."""
        blocks = 1 << (n - 16)
        omega, beta_s, gaps, _ = draw(rng, n, blocks)
        gaps[:, n // 2] = 2.0
        masks = rng.integers(0, 2, (blocks, n))
        masks[:, : n - 16] = (np.arange(blocks)[:, None] >> np.arange(n - 17, -1, -1)) & 1
        return (omega, beta_s, gaps, np.full(blocks, beta_m)), masks

    def test_state_matches_dense_row(self, n, beta_m, rng):
        columns, masks = self.rows(rng, n, beta_m)
        high = exactsim._high_bits(n)
        for t, probe, oracle in cases(*columns):
            weights = dense_weights(probe, oracle)
            grid = weights.reshape(1 << high, -1)
            sums = grid.sum(axis=-1)
            row = build_joint_state(probe, oracle).row
            assert np.array_equal(row.sums, sums) and row.total == sums.sum()
            assert np.array_equal(row.columns, grid.sum(axis=-2))
            levels = np.concatenate([np.arange(m << 16, (m << 16) + 4) for m in range(1 << (n - 16))])
            levels = np.concatenate((levels, rng.integers(0, 1 << n, 64), (1 << np.arange(n)) - 1))
            assert [row.weight(int(x)) for x in levels] == weights[levels].tolist()

    def test_kickback_batch_matches_dense_rows(self, n, beta_m, rng):
        """p0 and p0' of masks whose a and b fall in every block, from the
        dense row's total and weights; the energies equal the state path's."""
        columns, masks = self.rows(rng, n, beta_m)
        p0, p0_after, log_z, before, after = exactsim.kickback_batch(*columns, masks, energies=True)
        level_a, level_b = kickback_level_indices(masks, n)
        for t, probe, oracle in cases(*columns):
            weights = dense_weights(probe, oracle)
            state = build_joint_state(probe, oracle)
            k_g, k_e, total = state.row.k_g, state.row.k_e, state.row.total
            assert total == weights.reshape(1 << exactsim._high_bits(n), -1).sum(axis=-1).sum()
            ground_total = total * k_g
            expected = ground_total - weights[level_a[t]] * k_g + weights[level_b[t] - (1 << n)] * k_e
            assert (p0[t], p0_after[t]) == (min(ground_total, 1.0), min(expected, 1.0))
            exchanged = apply_level_exchange(state, int(level_a[t]), int(level_b[t]))
            assert (log_z[t], before[t], after[t]) == (state.row.log_partition_sum, machine_mean_energy(state),
                                                       machine_mean_energy(exchanged))
            assert probe_marginal(exchanged).p0 == p0_after[t]

    def test_swap_batch_matches_dense_rows(self, n, beta_m, rng):
        """Every bit's marginal from the dense row's grid sums."""
        columns, _ = self.rows(rng, n, beta_m)
        p0 = exactsim.swap_batch(*columns)
        high = exactsim._high_bits(n)
        for t, probe, oracle in cases(*columns):
            grid = dense_weights(probe, oracle).reshape(1 << high, -1)
            sums, column_sums = grid.sum(axis=-1), grid.sum(axis=-2)
            state = build_joint_state(probe, oracle)
            row = state.row
            for j in range(n):
                zero = exactsim._zero_sums(sums, column_sums, j, high)
                assert p0[t, j] == min(zero * row.k_g + zero * row.k_e, 1.0)
                assert probe_marginal(apply_swap_with_machine_qubit(state, j)).p0 == p0[t, j]


def test_twenty_qubit_batch_rows_sweep_in_bounded_memory(rng):
    """kickback_batch and swap_batch on 20-qubit rows hold the build's bound, not 4 MiB."""
    columns = draw(rng, 19, 2)
    tracemalloc.start()
    try:
        exactsim.kickback_batch(*columns, rng.integers(0, 2, (2, 19)), energies=True)
        exactsim.swap_batch(*columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SWEEP_BYTES
