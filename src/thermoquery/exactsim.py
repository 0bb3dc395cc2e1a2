"""Brute-force verification oracle over the full diagonal joint state.

Holds every population of probe + machine in one dense array, applies
exchanges as exact permutations, and extracts marginals. Ground truth for the
analytic formulas; capped at a configurable qubit count (20 by default) since
the array is dense.

For a probe and N machine qubits, building a state costs O(2^N) time: the
2^N machine level energies are built by doubling and stored once (the probe's
excited half is the same energies plus omega, built only when read). A level
exchange and a SWAP are O(1) in time and memory: the new state shares its
parent's dense array and records which levels moved or which machine bit
trades places with the probe bit, and the permuted array is built only when
it is read. A marginal or a mean energy sums the dense array once per shared
array, then adds the change at the few moved levels; the marginal of a
swapped state sums a strided view of the shared array.
The 2^N machine weights are built in one pass each of multiply, shift, ``exp``
and sum, with no normalising pass: the shift is an O(N) bound on the largest
log weight, and the probe's two factors and 1/total fold into one scalar per
probe level.
The weight kernel takes a leading batch axis of T states; a single state is
its T = 1 row. :func:`kickback_batch` runs the kickback on T states at once,
with the machine mean energies on request, and :func:`swap_batch` gives the
probe marginal after a SWAP with each machine qubit of T states. Nothing
here calls the analytic kickback code in ``query`` or the closed-form
partition functions of ``thermal``.

Index convention: the probe bit is the most significant bit; machine bit
strings are big-endian, as in ``thermal.bits_to_index`` (machine qubit 0 is
the leftmost, most significant machine bit).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .query import QueryMask
from .readout import BinaryDistribution
from .thermal import ThermalMachineOracle, ThermalQubit

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "DiagonalJointState",
    "build_joint_state",
    "kickback_batch",
    "swap_batch",
    "apply_level_exchange",
    "apply_swap_with_machine_qubit",
    "probe_marginal",
    "kickback_level_indices",
    "probe_mean_energy",
    "machine_mean_energy",
]

DEFAULT_MAX_QUBITS = 20
# Machine levels built at once by kickback_batch and swap_batch: one 256 KiB array.
_BATCH_LEVELS = 1 << 15


class _DenseSums:
    """The ground-half sum and the machine-energy dot product of one dense
    population array, each taken on first read and kept; shared by every
    state that shares the array."""

    def __init__(self, populations: np.ndarray, machine_energies: np.ndarray):
        self._populations = populations
        self._energies = machine_energies

    @cached_property
    def ground(self) -> float:
        return np.sum(self._populations[: self._energies.size])

    @cached_property
    def energy(self) -> float:
        half = self._energies.size
        return np.dot(self._populations[:half], self._energies) + np.dot(self._populations[half:], self._energies)


@dataclass(frozen=True, eq=False)
class DiagonalJointState:
    """Populations over the 2^(N+1) (probe bit, machine string) levels.

    ``dense_populations`` is a dense array that the state shares with the
    states exchanged or swapped from it. ``moved`` lists the (level, source)
    pairs, by level, at which this state's populations differ from it: level
    holds ``dense_populations[source]``. ``swapped`` is the machine qubit
    whose bit trades places with the probe bit in the dense array, or None.
    A state moves levels or swaps a bit, never both; a built state does
    neither. ``machine_energies`` holds the 2^N machine level energies, which
    are the energies of the probe's ground half; its excited half adds
    ``probe_gap``. ``populations`` (the dense array with the moves or the
    swap applied, read-only) and ``level_energies`` (all 2^(N+1) energies)
    are built on first read and kept. The dense array's ground-half sum and
    energy dot product are also taken on first read; a state exchanged from
    this one shares them, and any other new state, ``replace`` included,
    takes its own.

    ``log_partition_sum`` is the log of the unnormalized weight sum at
    construction time and equals log(Z_S) + log(Z_f); it is carried through
    permutations unchanged (they preserve the trace).
    """

    dense_populations: np.ndarray
    machine_energies: np.ndarray
    n_machine: int
    probe_gap: float
    log_partition_sum: float
    moved: tuple[tuple[int, int], ...] = ()
    swapped: int | None = None

    @property
    def size(self) -> int:
        return 2 << self.n_machine

    @cached_property
    def populations(self) -> np.ndarray:
        if self.swapped is not None:
            populations = _swap_axes(self).transpose(2, 1, 0, 3).reshape(-1)
        elif self.moved:
            levels, sources = np.array(self.moved).T
            populations = self.dense_populations.copy()
            populations[levels] = self.dense_populations[sources]
        else:
            return self.dense_populations
        # Read-only like the dense array: a swap or an exchange of a swapped
        # state starts from this array.
        populations.flags.writeable = False
        return populations

    @cached_property
    def level_energies(self) -> np.ndarray:
        return np.concatenate((self.machine_energies, self.machine_energies + self.probe_gap))

    @cached_property
    def _dense_sums(self) -> _DenseSums:
        return _DenseSums(self.dense_populations, self.machine_energies)


def _swap_axes(state: DiagonalJointState) -> np.ndarray:
    """A view of a swapped state's dense array with axes: probe bit, machine
    bits above the swapped one, swapped bit, bits below."""
    return state.dense_populations.reshape(2, 1 << state.swapped, 2, -1)


def _joint_levels(n_machine: int, max_qubits: int) -> int:
    """Number of levels of a probe and ``n_machine`` machine qubits, within the limit."""
    if n_machine + 1 > max_qubits:
        raise ValueError(f"{n_machine + 1} qubits exceed the configured limit of {max_qubits}")
    return 2 << n_machine


def _level_energies(gaps: np.ndarray, energies: np.ndarray) -> None:
    """Write the (T, 2^k) level energies of T rows of k gaps, by doubling. The
    last gap is added first, so column 0 becomes the most significant bit."""
    energies[:, 0] = 0.0
    size = 1
    for column in range(gaps.shape[1] - 1, -1, -1):
        np.add(energies[:, :size], gaps[:, column:column + 1], out=energies[:, size:2 * size])
        size *= 2


def _machine_weights(omega, beta_s, gaps, beta_m, energies, weights):
    """Write the machine weights w of T joint states into ``weights`` (which
    may be ``energies``, their (T, 2^N) machine level energies); return k_g
    and k_e, with populations w k_g and w k_e, and the log weight sums.

    Row t is a probe with gap ``omega[t]`` at ``beta_s[t]`` and machine gaps
    ``gaps[t]`` at ``beta_m[t]``. w(x) = e^{-beta_M E(x) - s}, where
    s = sum_j max(0, -beta_M g_j) is the largest log weight, so no weight
    exceeds 1 at any sign of beta_M; the probe factors are shifted alike.
    """
    np.multiply(energies, -beta_m[:, None], out=weights)
    machine_shift = np.maximum(0.0, -beta_m[:, None] * gaps).sum(axis=1)
    weights -= machine_shift[:, None]
    np.exp(weights, out=weights)
    probe_exponent = -beta_s * omega
    probe_shift = np.maximum(0.0, probe_exponent)
    ground, excited = np.exp(-probe_shift), np.exp(probe_exponent - probe_shift)
    total = weights.sum(axis=1) * (ground + excited)
    return ground / total, excited / total, machine_shift + probe_shift + np.log(total)


def build_joint_state(
    probe: ThermalQubit,
    oracle: ThermalMachineOracle,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f)."""
    levels = _joint_levels(oracle.n_machine_qubits, max_qubits)
    gaps = np.array([(probe.gap, *oracle.gap_vector.gaps)])
    betas = np.array([[probe.inverse_temperature, oracle.machine_inverse_temperature]])
    energies, populations = np.empty((1, levels // 2)), np.empty((1, levels))
    _level_energies(gaps[:, 1:], energies)
    ground, excited = np.split(populations, 2, axis=1)
    k_g, k_e, log_partition_sum = _machine_weights(
        gaps[:, 0], betas[:, 0], gaps[:, 1:], betas[:, 1], energies, excited
    )
    np.multiply(excited, k_g[:, None], out=ground)
    excited *= k_e[:, None]
    populations.flags.writeable = False  # shared by every exchange of the state
    return DiagonalJointState(
        dense_populations=populations[0],
        machine_energies=energies[0],
        n_machine=oracle.n_machine_qubits,
        probe_gap=probe.gap,
        log_partition_sum=float(log_partition_sum[0]),
    )


def _weight_chunks(omega, beta_s, gaps, beta_m, keep_energies=False):
    """Machine weights of T joint states, a chunk of rows at a time, in one
    array of at most 2^15 machine levels or one row: yields the chunk's
    slice, its (rows, 2^N) weights w, k_g, k_e and log weight sums as
    :func:`_machine_weights` gives them, and its level energies, which are
    written over by the weights unless ``keep_energies``."""
    rows, n = gaps.shape
    levels = _joint_levels(n, DEFAULT_MAX_QUBITS) // 2
    step = max(1, min(rows, _BATCH_LEVELS // levels))
    buffer = np.empty((step, levels))
    energy_buffer = np.empty((step, levels)) if keep_energies else buffer
    for start in range(0, rows, step):
        chunk = slice(start, min(start + step, rows))
        weights, energies = buffer[: chunk.stop - start], energy_buffer[: chunk.stop - start]
        _level_energies(gaps[chunk], energies)
        k_g, k_e, log_sum = _machine_weights(
            omega[chunk], beta_s[chunk], gaps[chunk], beta_m[chunk], energies, weights
        )
        yield chunk, weights, k_g, k_e, log_sum, energies


def kickback_batch(
    omega: np.ndarray,
    beta_s: np.ndarray,
    gaps: np.ndarray,
    beta_m: np.ndarray,
    masks: np.ndarray,
    energies: bool = False,
) -> tuple[np.ndarray, ...]:
    """Probe ground population before and after the kickback V(masks[t]), and
    the log weight sum, of T joint states: row t is a probe with gap
    ``omega[t]`` at ``beta_s[t]`` and machine gaps ``gaps[t]`` at ``beta_m[t]``,
    and ``masks`` holds one 0/1 mask row per state, shaped like ``gaps``.
    With ``energies``, the machine mean energy before and after follow.

    The exchange touches two levels a and b of each row
    (:func:`kickback_level_indices`), so p0' = p0 - p[a] + p[b] without a
    copy of the state; both are clamped at 1 as :func:`probe_marginal` is.
    Only the machine weights w are built (:func:`_weight_chunks`): p[b] is
    w[b - 2^N] k_e, read before the ground half w k_g is written over w for
    p0. The machine mean energy is sum_x w(x) E(x) times k_g plus the same
    times k_e, as :func:`machine_mean_energy` sums the two halves, and the
    exchange adds (p[b] - p[a]) (E(a) - E(b - 2^N)).
    """
    rows, n = gaps.shape
    masks = np.asarray(masks)
    if masks.shape != gaps.shape:
        raise ValueError("mask rows do not match the machines")
    level_a, level_b = kickback_level_indices(masks, n)
    level_b = level_b - (1 << n)  # the machine level of b
    p0, p0_after, log_partition_sum = np.empty(rows), np.empty(rows), np.empty(rows)
    energy, energy_after = np.empty(rows), np.empty(rows)
    chunks = _weight_chunks(omega, beta_s, gaps, beta_m, keep_energies=energies)
    for chunk, weights, k_g, k_e, log_sum, level_energies in chunks:
        log_partition_sum[chunk] = log_sum
        row = np.arange(weights.shape[0])
        excited_b = weights[row, level_b[chunk]] * k_e
        if energies:
            # Read before the energies are written over by w E.
            exchanged = (excited_b - weights[row, level_a[chunk]] * k_g) * (
                level_energies[row, level_a[chunk]] - level_energies[row, level_b[chunk]]
            )
            level_energies *= weights
            weighted = level_energies.sum(axis=1)
            energy[chunk] = weighted * k_g + weighted * k_e
            energy_after[chunk] = energy[chunk] + exchanged
        weights *= k_g[:, None]
        p0[chunk] = np.minimum(weights.sum(axis=1), 1.0)
        p0_after[chunk] = np.minimum(p0[chunk] - weights[row, level_a[chunk]] + excited_b, 1.0)
    if energies:
        return p0, p0_after, log_partition_sum, energy, energy_after
    return p0, p0_after, log_partition_sum


def swap_batch(
    omega: np.ndarray, beta_s: np.ndarray, gaps: np.ndarray, beta_m: np.ndarray
) -> np.ndarray:
    """Probe ground population after a SWAP with each machine qubit, of T
    joint states laid out as in :func:`kickback_batch`: entry (t, j) is row
    t's after a SWAP with machine qubit j, clamped at 1 as
    :func:`probe_marginal` is.

    The probe takes machine bit j's value, so its p0 is the population of
    the levels whose bit j is 0 in both probe halves: the machine weights w
    summed over them, times k_g + k_e.
    """
    rows, n = gaps.shape
    p0 = np.empty((rows, n))
    for chunk, weights, k_g, k_e, _, _ in _weight_chunks(omega, beta_s, gaps, beta_m):
        for j in range(n):
            bit_j = weights.reshape(weights.shape[0], 1 << j, 2, -1)[:, :, 0, :]
            p0[chunk, j] = bit_j.sum(axis=(1, 2))
        p0[chunk] *= (k_g + k_e)[:, None]
    return np.minimum(p0, 1.0)


def apply_level_exchange(state: DiagonalJointState, level_a: int, level_b: int) -> DiagonalJointState:
    """Swap the populations of two distinct levels; everything else untouched.

    O(1): the result shares ``state``'s dense array and its sums, and records
    where the two levels now read from; a level moved back to its own source
    is dropped. An exchange of a swapped state starts from its populations.
    """
    size = state.size
    if not (0 <= level_a < size and 0 <= level_b < size):
        raise IndexError(f"level indices ({level_a}, {level_b}) out of range for size {size}")
    if level_a == level_b:
        raise ValueError("level indices must be distinct")
    if state.swapped is not None:
        state = replace(state, dense_populations=state.populations, swapped=None)
    moved = dict(state.moved)
    moved[level_a], moved[level_b] = moved.get(level_b, level_b), moved.get(level_a, level_a)
    exchanged = replace(state, moved=tuple(sorted(pair for pair in moved.items() if pair[0] != pair[1])))
    # Stored as cached_property stores it: the two states share one dense array.
    vars(exchanged)["_dense_sums"] = state._dense_sums
    return exchanged


def apply_swap_with_machine_qubit(state: DiagonalJointState, machine_index: int) -> DiagonalJointState:
    """Permute populations exchanging the probe bit with machine bit ``machine_index``.

    O(1): the result shares the populations of ``state``, which are its dense
    array unless it already moves levels or swaps a bit, and records the
    swapped bit.
    """
    if not 0 <= machine_index < state.n_machine:
        raise IndexError(f"machine index {machine_index} out of range")
    return replace(state, dense_populations=state.populations, moved=(), swapped=machine_index)


def probe_marginal(state: DiagonalJointState) -> BinaryDistribution:
    """Sum populations over the machine for each probe bit: the dense ground
    half, then p0 - p[level] + p[source] at each moved ground level; for a
    swapped state, the dense levels whose swapped bit is 0. Rounding can
    carry the sum past 1 when nearly all weight is in the probe's ground
    level."""
    if state.swapped is not None:
        return BinaryDistribution(min(1.0, float(np.sum(_swap_axes(state)[:, :, 0, :]))))
    half = 1 << state.n_machine
    dense = state.dense_populations
    p0 = state._dense_sums.ground
    for level, source in state.moved:
        if level < half:
            p0 = p0 - dense[level] + dense[source]
    return BinaryDistribution(min(1.0, float(p0)))


def kickback_level_indices(mask, n_machine: int):
    """Joint level indices (|0_S, X>, |1_S, X xor 1>) exchanged by the kickback V(X).

    ``mask`` is a :class:`QueryMask`, which gives two ints, or an array of
    0/1 mask rows shaped (T, n_machine), which gives two index arrays: the
    big-endian machine index a of every row and b = 2^(N+1) - 1 - a.
    """
    single = isinstance(mask, QueryMask)
    masks = np.array(mask.bits) if single else np.asarray(mask)
    if masks.ndim != (1 if single else 2) or masks.shape[-1] != n_machine:
        raise ValueError("mask length does not match the machine")
    # A QueryMask has checked its own bits.
    if not single and np.any((masks != 0) & (masks != 1)):
        raise ValueError("mask bits must be 0/1")
    level_a = masks.astype(np.int64) @ (1 << np.arange(n_machine - 1, -1, -1, dtype=np.int64))
    level_b = (2 << n_machine) - 1 - level_a
    return (int(level_a), int(level_b)) if single else (level_a, level_b)


def probe_mean_energy(state: DiagonalJointState) -> float:
    return state.probe_gap * (1.0 - probe_marginal(state).p0)


def machine_mean_energy(state: DiagonalJointState) -> float:
    """Dot products of the dense halves with the machine energies, plus the
    change of population times energy at each moved level; a swapped state
    reads its populations."""
    if state.swapped is not None:
        state = replace(state, dense_populations=state.populations, swapped=None)
    half = 1 << state.n_machine
    energies = state.machine_energies
    dense = state.dense_populations
    energy = state._dense_sums.energy
    for level, source in state.moved:
        energy += (dense[source] - dense[level]) * energies[level % half]
    return float(energy)
