"""Brute-force verification oracle over the full diagonal joint state.

Holds every population of probe + machine, applies exchanges as exact
permutations, and extracts marginals. Ground truth for the analytic formulas;
capped at ``DEFAULT_MAX_QUBITS`` = 20 qubits, probe included, since the 2^N
machine weights are dense.

A state is stored in product form: 2^N machine weights w and two probe
factors k_g and k_e, so level (i_S, x) holds w(x) k_{i_S}. The weights are
doubled one machine qubit at a time as a product of per-qubit factors, none
above 1: 2^N multiplications and 2(N + 1) exponentials. Every kernel takes
one row as 1-D arrays or a chunk of rows as 2-D ones, a row's values on the
last axis. :func:`kickback_batch` runs the kickback on T states at once,
with the machine mean energies on request, and :func:`swap_batch` gives the
probe marginal after a SWAP with each machine qubit of T states; both take
each row's factors and results once per call over all T rows, and build
only the weights a chunk of rows at a time.

Every sum over a row's weights views them as a grid of 2^h rows, the h most
significant machine bits, by 2^l columns, with l = min(N, max(8, ceil(N/2)))
and h = N - l: 256 x 256 at 16 machine qubits, 512 x 1024 at 19. Machines of
up to 8 qubits, which verify runs by the thousand, keep the whole row as one
plain sum (h = 0); up to 9, the grid rows are the halves in which numpy's
pairwise sum takes a row, so the total is the same double as a plain sum. A
build is the doubling plus one row-sum pass, whose sum is the total. An
energy or a SWAP read adds one column-sum pass, taken once per row and kept,
and O(2^(N/2)) further work: the mean energy is sum_i E_high(i) s_i +
sum_j E_low(j) c_j over the row sums s and the column sums c, with two
half-width energy tables, and bit j's zero-sum comes from s for a high bit
and from c for a low one, so all N marginals of :func:`swap_batch` come from
the two passes. Each row is reduced along its own axes, so its reads do not
depend on the other rows of its chunk.

:func:`build_joint_state` builds one 1-D row with the same kernels. A
:class:`DiagonalJointState` is that row plus at most one step, O(1) in time
and memory: a SWAP with a machine qubit, or the exchange of a kickback pair,
the only pair taken (:func:`kickback_level_indices`). A built or exchanged
state is read with the one formula :func:`kickback_batch` reads a row with,
in Python floats, and numpy only for the exponentials, the logarithm and the
sums whose rounding must match the batch's. A swapped state's probe
marginal is one bit's zero-sum, and its machine energy the grid energy with
the swapped gap set to 0 in its half table, so that no difference cancels.
Nothing here calls the analytic kickback code in ``query`` or the
closed-form partition functions of ``thermal``.

Index convention: the probe bit is the most significant bit; machine bit
strings are big-endian, as in ``thermal.bits_to_index`` (machine qubit 0 is
the leftmost, most significant machine bit).
"""

from __future__ import annotations

from dataclasses import dataclass
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
# Machine levels built at once by kickback_batch and swap_batch: one 512 KiB array.
_BATCH_LEVELS = 1 << 16


@dataclass(frozen=True, eq=False)
class _Row:
    """One built joint state: ``weights`` is w, a read-only 2^N array, one
    row of the batch kernels, level (i_S, x) holds w(x) times ``k_g`` or
    ``k_e``, ``sums`` is w's 2^h row sums over its weight grid
    (:func:`_row_sums`) and ``total`` their sum. The column sums and the
    ``energy``, sum_x w(x) E(x), are taken on first read and kept."""

    weights: np.ndarray
    sums: np.ndarray
    k_g: float
    k_e: float
    total: float
    log_partition_sum: float
    machine_gaps: np.ndarray
    probe_gap: float

    @property
    def high(self) -> int:
        return _high_bits(self.machine_gaps.size)

    @cached_property
    def columns(self) -> np.ndarray:
        return _column_sums(self.weights, self.high)

    @cached_property
    def energy(self) -> float:
        return float(_mean_energies(self.sums, self.columns, self.machine_gaps, self.high))


@dataclass(frozen=True, eq=False)
class DiagonalJointState:
    """Populations over the 2^(N+1) (probe bit, machine string) levels: a
    built ``row`` in product form, plus at most one step. A built state
    records no step; a state one step from it shares its row and records
    the step: ``exchanged``, the kickback pair (a, b) whose populations
    trade places, or ``swapped``, the machine qubit whose bit trades places
    with the probe bit. A stepped state takes no further step.

    ``row.log_partition_sum`` is the log of the unnormalized weight sum and
    equals log(Z_S) + log(Z_f); a step preserves the trace.
    """

    row: _Row
    exchanged: tuple[int, int] | None = None
    swapped: int | None = None

    @property
    def n_machine(self) -> int:
        return self.row.machine_gaps.size

    @property
    def size(self) -> int:
        return 2 << self.n_machine


def _built_row(state: DiagonalJointState) -> _Row:
    """The row of ``state``, which must be built: a stepped state takes no step."""
    if state.exchanged is not None or state.swapped is not None:
        raise ValueError("a step starts from a built state")
    return state.row


def _machine_levels(n_machine: int) -> int:
    """Number of levels of ``n_machine`` machine qubits, with the probe within the limit."""
    if n_machine + 1 > DEFAULT_MAX_QUBITS:
        raise ValueError(f"{n_machine + 1} qubits exceed the limit of {DEFAULT_MAX_QUBITS}")
    return 1 << n_machine


def _high_bits(n_machine: int) -> int:
    """h of the 2^h by 2^l grid of a row's weights, l = min(N, max(8, ceil(N/2)))."""
    return n_machine - min(n_machine, max(8, (n_machine + 1) // 2))


def _row_sums(weights: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid's row sums s of a row of ``weights`` or of each row of a
    chunk, (..., 2^high), and their totals: one pass, a plain sum where h = 0."""
    sums = weights.reshape(*weights.shape[:-1], 1 << high, -1).sum(axis=-1)
    return sums, sums.sum(axis=-1)


def _column_sums(weights: np.ndarray, high: int) -> np.ndarray:
    """The grid's column sums c of a row of ``weights`` or of each row of a
    chunk, (..., 2^l): one pass, or the weights themselves where h = 0."""
    return weights if high == 0 else weights.reshape(*weights.shape[:-1], 1 << high, -1).sum(axis=-2)


def _energy_table(gaps: np.ndarray) -> np.ndarray:
    """E(x) of every level of the qubits of ``gaps`` (..., k), (..., 2^k),
    doubled as :func:`_double` doubles the weights, with sums for products."""
    table = np.empty((*gaps.shape[:-1], 1 << gaps.shape[-1]))
    levels, gaps = table.T, gaps.T
    levels[0] = 0.0
    size = 1
    for column in range(len(gaps) - 1, -1, -1):
        np.add(levels[:size], gaps[column], out=levels[size:2 * size])
        size *= 2
    return table


def _mean_energies(sums: np.ndarray, columns: np.ndarray, gaps: np.ndarray, high: int) -> np.ndarray:
    """sum_x w(x) E(x) of a row or of each row of a chunk from its grid sums:
    with x's high bits i and low bits j, sum_i E_high(i) s_i + sum_j
    E_low(j) c_j, every term nonnegative, from one energy table per half."""
    return ((_energy_table(gaps[..., :high]) * sums).sum(axis=-1)
            + (_energy_table(gaps[..., high:]) * columns).sum(axis=-1))


def _zero_sums(grid_sums: np.ndarray, bit: int) -> np.ndarray:
    """The sum of a row of ``grid_sums``, or of each row, over the entries
    whose ``bit``, from the most significant, is 0: the weight of the levels
    whose machine bit is 0, from s for a high bit and c for a low one (bit - h)."""
    return grid_sums.reshape(*grid_sums.shape[:-1], 1 << bit, 2, -1)[..., 0, :].sum(axis=(-2, -1))


def _exchange_reads(k_g, k_e, total, weight_a, weight_b, weighted=None, signed_gaps=None) -> tuple:
    """p0 = k_g sum(w) and p0' = p0 - w[a] k_g + w[b - 2^N] k_e around the
    exchange of the kickback pair a and b, in Python floats or arrays,
    unclamped: the caller clamps them at 1, past which rounding carries them
    when nearly all weight is in the probe's ground level. With ``weighted``
    (sum_x w(x) E(x)), the machine mean energy before follows, and with
    ``signed_gaps``, E(a) - E(b - 2^N) = sum_j (2 m_j - 1) g_j over a's mask
    bits m, the energy after: the exchange adds (p[b] - p[a]) times it."""
    ground_a, excited_b, ground_total = weight_a * k_g, weight_b * k_e, total * k_g
    reads = (ground_total, ground_total - ground_a + excited_b)
    if weighted is None:
        return reads
    energy = weighted * k_g + weighted * k_e
    return (*reads, energy, None if signed_gaps is None else energy + (excited_b - ground_a) * signed_gaps)


def _factors(omega, beta_s, gaps, beta_m):
    """Per-qubit factors of one joint state or of T: the excited and ground
    factors, each (..., N + 1) with the probe first, the qubits whose
    factors are scaled in some row, and each row's sum of the scale exponents.

    A row is a probe with gap ``omega`` at ``beta_s`` and machine gaps
    ``gaps`` (..., N) at ``beta_m``: floats and a 1-D array for one state,
    (T,) arrays and a (T, N) array for T. Qubit j, the probe first, has the
    log weight x_j = -beta g_j when excited and factors e^{-s_j} (ground)
    and e^{x_j - s_j} (excited), both at most 1 with s_j = max(0, x_j):
    2(N + 1) exponentials a row, not 2^N.
    """
    exponent = np.empty((*gaps.shape[:-1], gaps.shape[-1] + 1))
    exponent[..., 0] = beta_s * omega
    np.multiply(gaps.T, beta_m, out=exponent.T[1:])  # see _double
    np.negative(exponent, out=exponent)
    shift = np.maximum(exponent, 0.0)
    scaled = shift.reshape(-1, shift.shape[-1]).any(axis=0).tolist()
    return np.exp(exponent - shift), np.exp(-shift), scaled, shift.sum(axis=-1)


def _double(excited, ground, scaled, weights):
    """Write the machine weights w of the row, or rows, of ``excited`` and
    ``ground`` into ``weights``, (..., 2^N): w(x) is doubled as a product of
    the machine qubits' factors, the last qubit first so that qubit 0
    becomes the most significant bit. A qubit not ``scaled`` has ground
    factor 1 in every row and is not multiplied. The transposed views put
    the level axis first: a factor, a float for one row and a (rows,) array
    for a chunk, broadcasts over it."""
    levels, excited, ground = weights.T, excited.T, ground.T
    levels[0] = 1.0
    size = 1
    for column in range(len(excited) - 1, 0, -1):
        np.multiply(levels[:size], excited[column], out=levels[size:2 * size])
        if scaled[column]:
            levels[:size] *= ground[column]
        size *= 2


def _probe_factors(excited, ground, total):
    """k_g and k_e of a row or of each row, with populations w k_g and w k_e,
    and the partition sum they divide by, from the probe's factors and sum(w)."""
    partition = total * (ground[..., 0] + excited[..., 0])
    return ground[..., 0] / partition, excited[..., 0] / partition, partition


def _weight_chunks(excited, ground, scaled):
    """Machine weights of T joint states from their :func:`_factors`, a chunk
    of rows at a time, in one array of at most 2^16 machine levels or one
    row: yields the chunk's slice and its (rows, 2^N) weights w."""
    rows, columns = excited.shape
    levels = _machine_levels(columns - 1)
    step = max(1, min(rows, _BATCH_LEVELS // levels))
    buffer = np.empty((step, levels))
    for start in range(0, rows, step):
        chunk = slice(start, min(start + step, rows))
        weights = buffer[: chunk.stop - start]
        _double(excited[chunk], ground[chunk], scaled, weights)
        yield chunk, weights


def build_joint_state(probe: ThermalQubit, oracle: ThermalMachineOracle) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f),
    built as one 1-D row by the batch kernels."""
    gaps = np.array(oracle.gap_vector.gaps, dtype=float)
    excited, ground, scaled, shift_sum = _factors(probe.gap, probe.inverse_temperature,
                                                  gaps, oracle.machine_inverse_temperature)
    weights = np.empty(_machine_levels(gaps.size))
    _double(excited, ground, scaled, weights)
    sums, total = _row_sums(weights, _high_bits(gaps.size))
    k_g, k_e, partition = _probe_factors(excited, ground, total)
    weights.flags.writeable = False  # shared by every state one step from this one
    return DiagonalJointState(_Row(weights, sums, float(k_g), float(k_e), float(total),
                                   float(shift_sum + np.log(partition)), gaps, probe.gap))


def kickback_batch(omega: np.ndarray, beta_s: np.ndarray, gaps: np.ndarray, beta_m: np.ndarray,
                   masks: np.ndarray, energies: bool = False) -> tuple[np.ndarray, ...]:
    """Probe ground population before and after the kickback V(masks[t]), and
    the log weight sum, of T joint states: row t is a probe with gap
    ``omega[t]`` at ``beta_s[t]`` and machine gaps ``gaps[t]`` at ``beta_m[t]``,
    and ``masks`` holds one 0/1 mask row per state, shaped like ``gaps``.
    With ``energies``, the machine mean energy before and after follow.

    Each row's weights w and factors k_g, k_e are built as
    :func:`build_joint_state` builds them, and read as a built or exchanged
    state is (:func:`_exchange_reads`). Only the weights are built a chunk
    at a time; every other step runs once over all T rows.
    """
    rows, n = gaps.shape
    masks = np.asarray(masks)
    if masks.shape != gaps.shape:
        raise ValueError("mask rows do not match the machines")
    level_a, level_b = kickback_level_indices(masks, n)
    level_b = level_b - (1 << n)  # the machine level of b
    excited, ground, scaled, shift_sum = _factors(omega, beta_s, gaps, beta_m)
    high = _high_bits(n)
    total, weight_a, weight_b, weighted = (np.empty(rows) for _ in range(4))
    for chunk, weights in _weight_chunks(excited, ground, scaled):
        row = np.arange(len(weights))
        sums, total[chunk] = _row_sums(weights, high)
        weight_a[chunk] = weights[row, level_a[chunk]]
        weight_b[chunk] = weights[row, level_b[chunk]]
        if energies:
            weighted[chunk] = _mean_energies(sums, _column_sums(weights, high), gaps[chunk], high)
    k_g, k_e, partition = _probe_factors(excited, ground, total)
    terms = (weighted, ((2 * masks - 1) * gaps).sum(axis=-1)) if energies else ()
    p0, p0_after, *energy = _exchange_reads(k_g, k_e, total, weight_a, weight_b, *terms)
    return (np.minimum(p0, 1.0), np.minimum(p0_after, 1.0), shift_sum + np.log(partition), *energy)


def swap_batch(omega: np.ndarray, beta_s: np.ndarray, gaps: np.ndarray, beta_m: np.ndarray) -> np.ndarray:
    """Probe ground population after a SWAP with each machine qubit, of T
    joint states laid out as in :func:`kickback_batch`: entry (t, j) is row
    t's after a SWAP with machine qubit j, clamped at 1 as
    :func:`probe_marginal` is.

    The probe takes machine bit j's value, so its p0 is the population of
    the levels whose bit j is 0 in both probe halves: the machine weights w
    summed over them (:func:`_zero_sums`, every bit from one row-sum and
    one column-sum pass), times k_g plus the same times k_e.
    """
    rows, n = gaps.shape
    excited, ground, scaled, _ = _factors(omega, beta_s, gaps, beta_m)
    high = _high_bits(n)
    total, zero = np.empty(rows), np.empty((rows, n))
    for chunk, weights in _weight_chunks(excited, ground, scaled):
        sums, total[chunk] = _row_sums(weights, high)
        columns = _column_sums(weights, high)
        for j in range(n):
            zero[chunk, j] = _zero_sums(sums, j) if j < high else _zero_sums(columns, j - high)
    k_g, k_e, _ = _probe_factors(excited, ground, total)
    return np.minimum(zero * k_g[..., None] + zero * k_e[..., None], 1.0)


def apply_level_exchange(state: DiagonalJointState, level_a: int, level_b: int) -> DiagonalJointState:
    """Swap the populations of the kickback pair of a built state, as
    :func:`kickback_level_indices` gives it: ``level_a`` = |0_S, X> in the
    probe's ground half and ``level_b`` = 2^(N+1) - 1 - ``level_a``;
    everything else untouched. O(1): the result shares the row and records
    the pair, and is read with :func:`kickback_batch`'s formula."""
    row = _built_row(state)
    size = state.size
    if not (0 <= level_a < size and 0 <= level_b < size):
        raise IndexError(f"level indices ({level_a}, {level_b}) out of range for size {size}")
    if level_a >= size // 2 or level_b != size - 1 - level_a:
        raise ValueError(f"levels ({level_a}, {level_b}) are not a kickback pair (|0_S, X>, |1_S, X xor 1>)")
    return DiagonalJointState(row, exchanged=(level_a, level_b))


def apply_swap_with_machine_qubit(state: DiagonalJointState, machine_index: int) -> DiagonalJointState:
    """Permute the populations of a built state, exchanging the probe bit with
    machine bit ``machine_index``. O(1): the result shares the row and
    records the swapped bit."""
    row = _built_row(state)
    if not 0 <= machine_index < state.n_machine:
        raise IndexError(f"machine index {machine_index} out of range")
    return DiagonalJointState(row, swapped=machine_index)


def _reads(state: DiagonalJointState, energies: bool = False) -> tuple:
    """p0, and with ``energies`` the machine mean energy, of a built or
    exchanged state in Python floats: its row's :func:`_exchange_reads`
    after the recorded exchange, or before any exchange for a built state."""
    row, n, exchanged = state.row, state.n_machine, state.exchanged is not None
    a = state.exchanged[0] if exchanged else 0
    mask = (a >> np.arange(n - 1, -1, -1)) & 1 if energies and exchanged else None
    signed_gaps = None if mask is None else float(((2 * mask - 1) * row.machine_gaps).sum())
    reads = _exchange_reads(row.k_g, row.k_e, row.total, row.weights.item(a), row.weights.item((1 << n) - 1 - a),
                            row.energy if energies else None, signed_gaps)
    return reads[int(exchanged)::2]


def probe_marginal(state: DiagonalJointState) -> BinaryDistribution:
    """Sum populations over the machine for each probe bit, clamped at 1 as
    :func:`kickback_batch` clamps it; for a swapped state, the weights whose
    swapped bit is 0 times each probe factor."""
    row = state.row
    if state.swapped is not None:  # the column sums are taken for a low bit only
        bit, high = state.swapped, row.high
        zero = float(_zero_sums(row.sums, bit) if bit < high else _zero_sums(row.columns, bit - high))
        return BinaryDistribution(min(1.0, zero * row.k_g + zero * row.k_e))
    return BinaryDistribution(min(_reads(state)[0], 1.0))


def kickback_level_indices(mask, n_machine: int):
    """Joint level indices (|0_S, X>, |1_S, X xor 1>) exchanged by the kickback V(X).

    ``mask`` is a :class:`QueryMask`, which gives two ints, or an array of
    0/1 mask rows shaped (T, n_machine), which gives two index arrays: the
    big-endian machine index a of every row and b = 2^(N+1) - 1 - a.
    """
    if isinstance(mask, QueryMask):
        if len(mask.bits) != n_machine:
            raise ValueError("mask length does not match the machine")
        level_a = 0
        for bit in mask.bits:  # a QueryMask has checked its own bits
            level_a = 2 * level_a + (1 if bit else 0)
        return level_a, (2 << n_machine) - 1 - level_a
    masks = np.asarray(mask)
    if masks.ndim != 2 or masks.shape[-1] != n_machine:
        raise ValueError("mask length does not match the machine")
    if np.any((masks != 0) & (masks != 1)):
        raise ValueError("mask bits must be 0/1")
    level_a = masks.astype(np.int64) @ (1 << np.arange(n_machine - 1, -1, -1, dtype=np.int64))
    return level_a, (2 << n_machine) - 1 - level_a


def probe_mean_energy(state: DiagonalJointState) -> float:
    return state.row.probe_gap * (1.0 - probe_marginal(state).p0)


def machine_mean_energy(state: DiagonalJointState) -> float:
    """sum_x w(x) E(x) times each probe factor, read as :func:`kickback_batch`
    reads a row; after a SWAP with machine qubit j, whose bit then holds the
    probe's, sum_x w(x) E_j(x) (k_g + k_e) + g_j P(probe excited), E_j with
    g_j set to 0: from the row's grid sums, every term nonnegative."""
    row = state.row
    if state.swapped is None:
        return _reads(state, energies=True)[1]
    others = row.machine_gaps.copy()
    others[state.swapped] = 0.0
    swapped = float(_mean_energies(row.sums, row.columns, others, row.high)) * (row.k_g + row.k_e)
    return swapped + row.machine_gaps.item(state.swapped) * row.total * row.k_e
