"""Brute-force verification oracle over the full diagonal joint state.

Every population of probe + machine is a product of per-qubit Boltzmann
weights, an exchange is an exact permutation and a marginal an exact sum:
the ground truth for the analytic formulas. Nothing here calls the analytic
kickback code in ``query`` or the closed-form partition functions of
``thermal``; the module imports only the value types it is given.

Index convention: the probe bit is the most significant bit; machine bit
strings are big-endian, as in ``thermal.bits_to_index`` (machine qubit 0 is
the leftmost, most significant machine bit).

Batches. :func:`kickback_batch` takes T states, each a probe gap, beta_S,
a row of N machine gaps and beta_M, of either sign, and one 0/1 mask row
per state; it returns p0 before and after the kickback V(mask), the log
weight sum log(Z_S Z_f) and, on request, the machine mean energy before
and after. :func:`swap_batch` returns p0 after a SWAP with each machine
qubit. A state past ``DEFAULT_MAX_QUBITS`` = 20 qubits, probe included, a
mask row of another shape or an entry other than 0/1 is a ValueError. A
row's reads are the same doubles whichever batch or chunk holds it.

Single states. :func:`build_joint_state` builds a probe and an oracle as a
batch of one row. A :class:`DiagonalJointState` is that row plus at most
one step from it: :func:`apply_level_exchange` of the kickback pair of
:func:`kickback_level_indices` (a level out of range is an IndexError, any
other pair a ValueError) or :func:`apply_swap_with_machine_qubit` (an index
out of range is an IndexError). A stepped state refuses a further step with
a ValueError. Each state computes its reads when it is made and keeps them,
its row's grid sums and its factors: O(2^(N/2)) floats, never the 2^N
weights. :func:`probe_marginal` and :func:`probe_mean_energy` of any state,
and :func:`machine_mean_energy` of a built or exchanged one, are bit for
bit the batches' reads of the same row. A swapped state's machine energy is
a ValueError: no kernel computes it.

Precision. Every sum is of nonnegative products in double precision, at
any sign and size of beta: each qubit's factors are scaled to at most 1, so
no weight overflows, and a weight below the smallest double is 0. An
exchange adds one signed term to p0 and to the machine energy. p0 is
clamped at 1, past which rounding can carry it when nearly all weight is in
the probe's ground level. The tests hold p0 and p0' to 1e-14 absolute, the
log weight sum to 1e-14 and the machine energies to 1e-13 relative of a
40-digit reference.

Method. A row is 2^N machine weights w and two probe factors k_g and k_e,
level (i_S, x) holding w(x) k_{i_S}. w is doubled one machine qubit at a
time, the last first, as a product of per-qubit factors: about 2^N
multiplications and 2(N + 1) exponentials. Weights are built in blocks of
at most 2^16 machine levels: a chunk of rows of up to 16 machine qubits in
one reused array, and a wider row (17 to 19) one block at a time, block m
being the row's first block times the factors of m's top bits in the
doubling's order, so that every weight is the same double as a doubling of
the whole row. Every sum views a row as a grid of 2^h rows, the h most
significant machine bits, by 2^l columns, l = min(N, max(8, ceil(N/2))):
one pass gives the row sums s, whose sum is the total, and one the column
sums c. The mean energy is sum_i E_high(i) s_i + sum_j E_low(j) c_j, and the
weight of the levels whose bit j is 0 comes from s for a high bit and from c
for a low one. Up to 9 machine qubits the total is the same double as a
plain sum of the row.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Machine levels built at once, a chunk of rows or a block of one wide row: 512 KiB.
_BATCH_LEVELS = 1 << 16


@dataclass(frozen=True, eq=False)
class _Row:
    """One built joint state in product form, level (i_S, x) holding w(x)
    times ``k_g`` or ``k_e``, kept as w's grid sums, not as w: the 2^h row
    sums ``sums``, the 2^l column sums ``columns``, their ``total``, the
    ``weighted`` sum_x w(x) E(x), and each machine qubit's (ground, excited)
    factor pair in ``qubit_factors``, the last qubit first."""

    sums: np.ndarray
    columns: np.ndarray
    k_g: float
    k_e: float
    total: float
    weighted: float
    log_partition_sum: float
    machine_gaps: np.ndarray
    probe_gap: float
    qubit_factors: tuple

    def weight(self, level: int) -> float:
        """w at machine ``level``: 1.0 times its qubits' factors one after
        another in :func:`_double`'s order, the last qubit first, so the
        same double as the doubling gives (an unscaled qubit's ground factor
        is exactly 1.0). A loop fixes that order; ``np.prod`` would not."""
        value = 1.0
        for pair in self.qubit_factors:
            value *= pair[level & 1]
            level >>= 1
        return value


@dataclass(frozen=True, eq=False)
class DiagonalJointState:
    """Populations over the 2^(N+1) (probe bit, machine string) levels: a
    built ``row`` in product form, plus at most one step, and the reads
    taken when the state was made: ``p0``, the probe's ground population,
    and ``machine_energy``, the machine mean energy (None after a SWAP). A
    built state records no step; a state one step from it shares its row
    and records the step: ``exchanged``, the kickback pair (a, b) whose
    populations trade places, or ``swapped``, the machine qubit whose bit
    trades places with the probe bit. A stepped state takes no further step.

    ``row.log_partition_sum`` is the log of the unnormalized weight sum and
    equals log(Z_S) + log(Z_f); a step preserves the trace.
    """

    row: _Row
    p0: float
    machine_energy: float | None
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


def _row_sums(weights: np.ndarray, high: int) -> np.ndarray:
    """The grid's row sums s of a row of ``weights`` or of each row of a
    chunk, (..., 2^high): one pass, a plain sum where h = 0. Their sum over
    the last axis is the total."""
    return weights.reshape(*weights.shape[:-1], 1 << high, -1).sum(axis=-1)


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


def _zero_sums(sums: np.ndarray, columns: np.ndarray, bit: int, high: int) -> np.ndarray:
    """The weight of the levels whose machine ``bit`` is 0, of a row or of
    each row: its grid sums summed over the entries whose bit is 0, the row
    sums s for a high bit (bit < h) and the column sums c for a low one."""
    grid_sums, bit = (sums, bit) if bit < high else (columns, bit - high)
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
    """Write the weights of the last k machine qubits of the row, or rows,
    of ``excited`` and ``ground`` into ``weights``, (..., 2^k): the whole
    row's w where k = N. w(x) is doubled as a product of the machine
    qubits' factors, the last qubit first so that qubit 0 becomes the most
    significant bit. A qubit not ``scaled`` has ground factor 1 in every row
    and is not multiplied. The transposed views put the level axis first: a
    factor, a float for one row and a (rows,) array for a chunk, broadcasts
    over it."""
    levels, excited, ground = weights.T, excited.T, ground.T
    levels[0] = 1.0
    size, column = 1, len(excited) - 1
    while size < len(levels):
        np.multiply(levels[:size], excited[column], out=levels[size:2 * size])
        if scaled[column]:
            levels[:size] *= ground[column]
        size, column = 2 * size, column - 1


def _probe_factors(excited, ground, total):
    """k_g and k_e of a row or of each row, with populations w k_g and w k_e,
    and the partition sum they divide by, from the probe's factors and sum(w)."""
    partition = total * (ground[..., 0] + excited[..., 0])
    return ground[..., 0] / partition, excited[..., 0] / partition, partition


def _block_factors(excited, ground, scaled, blocks: int) -> tuple:
    """The factors that carry a row's first block to each of its ``blocks``
    blocks of 2^16 machine levels, from the row's :func:`_factors`: block m
    holds the levels whose t top machine bits spell m, t = log2(blocks),
    and its factors are those of its top qubits in the doubling's order,
    qubit t - 1 first: e_q for a set bit, and g_q for a clear one only where
    qubit q is ``scaled``."""
    top = blocks.bit_length() - 1
    return tuple(tuple(float(excited[top - bit] if m >> bit & 1 else ground[top - bit])
                       for bit in range(top) if m >> bit & 1 or scaled[top - bit])
                 for m in range(blocks))


def _sweep_buffer(n_machine: int) -> np.ndarray:
    """The reused array of :func:`_sweep`: half a block of a wide row as grid
    rows 1:, (2^15 / 2^l + 1, 2^l), and the running column sums in row 0.
    With the first block, a build holds one and a half blocks: below the two
    past which malloc hands freed arrays back to the system, so that each
    build would fault them in again, page by page."""
    width = 1 << (n_machine - _high_bits(n_machine))
    return np.empty((_BATCH_LEVELS // 2 // width + 1, width))


def _sweep(first, buffer, factors, high, columns: bool, levels=()) -> tuple:
    """The grid sums of a wide row, in one pass over its blocks of 2^16
    machine levels: block m is ``first``, the row's first block, times
    ``factors[m]`` in order (:func:`_block_factors`), so every weight is the
    same double as the whole row's doubling gives. Each half block is
    written into rows 1: of ``buffer`` (:func:`_sweep_buffer`), whose row 0
    carries the running column sums, so that summing the buffer's rows
    continues the whole grid's sequential sum. Returns the row sums s
    (2^h), the column sums c (2^l) if ``columns`` else None, and the
    weights at the machine ``levels``, Python ints, as floats."""
    grid = buffer[1:]
    piece = grid.reshape(-1)
    step, size = len(grid), piece.size
    halves = first.reshape(-1, size)
    sums = np.empty(1 << high)
    carried = np.zeros(buffer.shape[-1]) if columns else None
    found = [0.0] * len(levels)
    for p in range(len(factors) * len(halves)):
        multipliers, source = factors[p // len(halves)], halves[p % len(halves)]
        if multipliers:
            np.multiply(source, multipliers[0], out=piece)
            for factor in multipliers[1:]:
                piece *= factor
        else:
            piece[...] = source
        np.sum(grid, axis=-1, out=sums[p * step:(p + 1) * step])
        if columns:
            buffer[0] = carried
            np.sum(buffer, axis=-2, out=carried)
        for index, level in enumerate(levels):
            if level // size == p:
                found[index] = piece.item(level % size)
    return sums, carried, found


def _grids(excited, ground, scaled, columns: bool, *levels):
    """The grid sums of T rows from their :func:`_factors`, a chunk of rows
    at a time: yields the chunk's slice, its row sums s (rows, 2^h), its
    column sums c (rows, 2^l) if ``columns`` else None, and its weights at
    each of the (T,) arrays of machine ``levels``. A chunk is built in one
    reused array of at most 2^16 machine levels; a wider row is a chunk of
    its own, built and reduced a block of 2^16 levels at a time
    (:func:`_sweep`)."""
    rows, n = excited.shape[0], excited.shape[1] - 1
    size, high = _machine_levels(n), _high_bits(n)
    if size > _BATCH_LEVELS:
        first, buffer = np.empty(_BATCH_LEVELS), _sweep_buffer(n)
        for t in range(rows):
            _double(excited[t], ground[t], scaled, first)
            factors = _block_factors(excited[t], ground[t], scaled, size // _BATCH_LEVELS)
            sums, carried, found = _sweep(first, buffer, factors, high, columns, [int(each[t]) for each in levels])
            yield slice(t, t + 1), sums[None], None if carried is None else carried[None], found
        return
    step = max(1, min(rows, _BATCH_LEVELS // size))
    buffer = np.empty((step, size))
    for start in range(0, rows, step):
        chunk = slice(start, min(start + step, rows))
        weights = buffer[: chunk.stop - start]
        if len(weights) == 1:  # on the row's 1-D views, a factor is a scalar, not a (1,) array
            _double(excited[start], ground[start], scaled, weights[0])
        else:
            _double(excited[chunk], ground[chunk], scaled, weights)
        row = np.arange(len(weights))
        yield (chunk, _row_sums(weights, high), _column_sums(weights, high) if columns else None,
               [weights[row, each[chunk]] for each in levels])


def build_joint_state(probe: ThermalQubit, oracle: ThermalMachineOracle) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f),
    built as a batch of one row: one pass of :func:`_grids` gives its grid
    sums, and p0 and the machine mean energy are read as :func:`kickback_batch`
    reads a row before its exchange."""
    gaps = np.array(oracle.gap_vector.gaps, dtype=float)
    excited, ground, scaled, shift_sum = _factors(probe.gap, probe.inverse_temperature, gaps[None],
                                                  oracle.machine_inverse_temperature)
    (_, sums, columns, _), = _grids(excited, ground, scaled, True)
    sums, columns, excited, ground = sums[0], columns[0], excited[0], ground[0]
    total = sums.sum()
    k_g, k_e, partition = _probe_factors(excited, ground, total)
    weighted = _mean_energies(sums, columns, gaps, _high_bits(gaps.size))
    row = _Row(sums, columns, float(k_g), float(k_e), float(total), float(weighted),
               float(shift_sum[0] + np.log(partition)), gaps, probe.gap,
               tuple(zip(ground[:0:-1].tolist(), excited[:0:-1].tolist())))
    p0, _, energy, _ = _exchange_reads(row.k_g, row.k_e, row.total, 0.0, 0.0, row.weighted)
    return DiagonalJointState(row, min(p0, 1.0), energy)


def kickback_batch(omega: np.ndarray, beta_s: np.ndarray, gaps: np.ndarray, beta_m: np.ndarray,
                   masks: np.ndarray, energies: bool = False) -> tuple[np.ndarray, ...]:
    """Probe ground population before and after the kickback V(masks[t]), and
    the log weight sum, of T joint states: row t is a probe with gap
    ``omega[t]`` at ``beta_s[t]`` and machine gaps ``gaps[t]`` at ``beta_m[t]``,
    and ``masks`` holds one 0/1 mask row per state, shaped like ``gaps``.
    With ``energies``, the machine mean energy before and after follow.

    Each row's weights w and factors k_g, k_e are built as
    :func:`build_joint_state` builds them, and read as a built or exchanged
    state is (:func:`_exchange_reads`). Only the weights are built and
    reduced piecewise, a chunk of rows or a block of a wide row at a time
    (:func:`_grids`); every other step runs once over all T rows.
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
    for chunk, sums, columns, (at_a, at_b) in _grids(excited, ground, scaled, energies, level_a, level_b):
        total[chunk] = sums.sum(axis=-1)
        weight_a[chunk], weight_b[chunk] = at_a, at_b
        if energies:
            weighted[chunk] = _mean_energies(sums, columns, gaps[chunk], high)
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
    for chunk, sums, columns, _ in _grids(excited, ground, scaled, True):
        total[chunk] = sums.sum(axis=-1)
        for j in range(n):
            zero[chunk, j] = _zero_sums(sums, columns, j, high)
    k_g, k_e, _ = _probe_factors(excited, ground, total)
    return np.minimum(zero * k_g[..., None] + zero * k_e[..., None], 1.0)


def apply_level_exchange(state: DiagonalJointState, level_a: int, level_b: int) -> DiagonalJointState:
    """Swap the populations of the kickback pair of a built state, as
    :func:`kickback_level_indices` gives it: ``level_a`` = |0_S, X> in the
    probe's ground half and ``level_b`` = 2^(N+1) - 1 - ``level_a``;
    everything else untouched. The result shares the row and records the
    pair; its p0 and machine energy are read with :func:`kickback_batch`'s
    formula from the pair's two weights."""
    row = _built_row(state)
    size = state.size
    if not (0 <= level_a < size and 0 <= level_b < size):
        raise IndexError(f"level indices ({level_a}, {level_b}) out of range for size {size}")
    if level_a >= size // 2 or level_b != size - 1 - level_a:
        raise ValueError(f"levels ({level_a}, {level_b}) are not a kickback pair (|0_S, X>, |1_S, X xor 1>)")
    mask = (level_a >> np.arange(state.n_machine - 1, -1, -1)) & 1
    signed_gaps = float(((2 * mask - 1) * row.machine_gaps).sum())
    pair = row.weight(level_a), row.weight(size // 2 - 1 - level_a)  # w[a] and w[b - 2^N]
    _, p0, _, energy = _exchange_reads(row.k_g, row.k_e, row.total, *pair, row.weighted, signed_gaps)
    return DiagonalJointState(row, min(p0, 1.0), energy, exchanged=(level_a, level_b))


def apply_swap_with_machine_qubit(state: DiagonalJointState, machine_index: int) -> DiagonalJointState:
    """Permute the populations of a built state, exchanging the probe bit with
    machine bit ``machine_index``. The result shares the row and records the
    swapped bit; its p0 is the weights whose swapped bit is 0 times each
    probe factor, clamped at 1 as :func:`swap_batch` clamps it."""
    row = _built_row(state)
    if not 0 <= machine_index < state.n_machine:
        raise IndexError(f"machine index {machine_index} out of range")
    zero = float(_zero_sums(row.sums, row.columns, machine_index, _high_bits(state.n_machine)))
    return DiagonalJointState(row, min(1.0, zero * row.k_g + zero * row.k_e), None, swapped=machine_index)


def probe_marginal(state: DiagonalJointState) -> BinaryDistribution:
    """Sum populations over the machine for each probe bit, clamped at 1 as
    :func:`kickback_batch` and :func:`swap_batch` clamp it."""
    return BinaryDistribution(state.p0)


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
    return state.row.probe_gap * (1.0 - state.p0)


def machine_mean_energy(state: DiagonalJointState) -> float:
    """sum_x w(x) E(x) times each probe factor, of a built or an exchanged
    state, as :func:`kickback_batch` reads it with ``energies``. A swapped
    state raises ValueError: no kernel computes its machine energy."""
    if state.machine_energy is None:
        raise ValueError("a swapped state has no machine mean energy: only its probe marginal is read")
    return state.machine_energy
