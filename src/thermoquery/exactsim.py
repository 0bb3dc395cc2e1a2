"""Brute-force verification oracle over the full diagonal joint state.

Every population of probe + machine is defined by product weights, exchanges
are exact permutations, and marginals are exact sums. Ground truth for the
analytic formulas; capped at ``DEFAULT_MAX_QUBITS`` = 20 qubits, probe
included, since every read sums all 2^N machine weights.

A state is in product form: 2^N machine weights w and two probe factors
k_g and k_e, so level (i_S, x) holds w(x) k_{i_S}. The weights are doubled
one machine qubit at a time as a product of per-qubit factors, none above
1: about 2^N multiplications and 2(N + 1) exponentials. Every kernel takes
one row as 1-D arrays or a chunk of rows as 2-D ones, a row's values on the
last axis. :func:`kickback_batch` runs the kickback on T states at once,
with the machine mean energies on request, and :func:`swap_batch` gives the
probe marginal after a SWAP with each machine qubit of T states; both take
each row's factors and results once per call over all T rows.

Memory does not grow with 2^N. Weights are built in blocks of at most 2^16
machine levels, 512 KiB: a chunk of rows of up to 16 machine qubits in one
reused array, and a wider row (17 to 19) one block at a time. Block m of a
wide row is its first block, the doubling of its last 16 machine qubits,
times the factors of m's top bits in the doubling's order, so each weight is
the same double as a doubling of the whole row. Each block is written, half
at a time, into one reused array whose first row carries the running column
sums, and its row sums, column sums and the gathers of w[a] and w[b] are
taken there: one sweep, at most one and a half blocks held.

Every sum over a row's weights views them as a grid of 2^h rows, the h most
significant machine bits, by 2^l columns, with l = min(N, max(8, ceil(N/2)))
and h = N - l: 256 x 256 at 16 machine qubits, 512 x 1024 at 19. Machines of
up to 8 qubits, which verify runs by the thousand, keep the whole row as one
plain sum (h = 0); up to 9, the grid rows are the halves in which numpy's
pairwise sum takes a row, so the total is the same double as a plain sum. A
build is the doubling plus one row-sum pass, whose sum is the total. An
energy or a SWAP read adds one column-sum pass, taken once per row and kept
(a wide row's sweep takes it at once), and O(2^(N/2)) further work: the
mean energy is sum_i E_high(i) s_i + sum_j E_low(j) c_j over the row sums s
and the column sums c, with two half-width energy tables, and bit j's
zero-sum comes from s for a high bit and from c for a low one, so all N
marginals of :func:`swap_batch` come from the two passes. Each row is
reduced along its own axes, so its reads do not depend on the other rows of
its chunk.

:func:`build_joint_state` builds one 1-D row with the same kernels. A
:class:`DiagonalJointState` is that row plus at most one step, O(1) in time
and memory: a SWAP with a machine qubit, or the exchange of a kickback pair,
the only pair taken (:func:`kickback_level_indices`). The row keeps its
first block and its grid sums, not its weights: a weight past the first
block is formed from it with at most N - 16 multiplies, in the doubling's order.
A built or exchanged state is read with the one formula
:func:`kickback_batch` reads a row with, in Python floats, and numpy only
for the exponentials, the logarithm and the sums whose rounding must match
the batch's. A swapped state's probe marginal is one bit's zero-sum, and its
machine energy the grid energy with the swapped gap set to 0 in its half
table, so that no difference cancels. Nothing here calls the analytic
kickback code in ``query`` or the closed-form partition functions of
``thermal``.

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
# Machine levels built at once, a chunk of rows or a block of one wide row: 512 KiB.
_BATCH_LEVELS = 1 << 16


@dataclass(frozen=True, eq=False)
class _Row:
    """One built joint state: level (i_S, x) holds w(x) times ``k_g`` or
    ``k_e``. ``block`` is w's first block, read-only: the whole row up to
    2^16 machine levels, and for a wider row the doubling of its last 16
    machine qubits, which ``factors`` carries to every block
    (:func:`_block_factors`, :meth:`weight`; None for a row of one block).
    ``sums`` is w's 2^h row sums over its weight grid and ``total`` their
    sum. ``swept`` holds a wide row's column sums, which its build's sweep
    takes; a row of one block takes them on first read. The ``energy``,
    sum_x w(x) E(x), is taken on first read and kept."""

    block: np.ndarray
    sums: np.ndarray
    k_g: float
    k_e: float
    total: float
    log_partition_sum: float
    machine_gaps: np.ndarray
    probe_gap: float
    factors: tuple | None
    swept: np.ndarray | None

    @property
    def high(self) -> int:
        return _high_bits(self.machine_gaps.size)

    def weight(self, level: int) -> float:
        """w at machine ``level``: its entry of the first block times its
        block's factors, in the doubling's order, so the same double as the
        whole row's doubling gives; at most N - 16 multiplies."""
        if self.factors is None:  # one block: the whole row
            return self.block.item(level)
        index, offset = divmod(level, self.block.size)
        value = self.block.item(offset)
        for factor in self.factors[index]:
            value *= factor
        return value

    @cached_property
    def columns(self) -> np.ndarray:
        return _column_sums(self.block, self.high) if self.swept is None else self.swept

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
        _double(excited[chunk], ground[chunk], scaled, weights)
        row = np.arange(len(weights))
        yield (chunk, _row_sums(weights, high), _column_sums(weights, high) if columns else None,
               [weights[row, each[chunk]] for each in levels])


def build_joint_state(probe: ThermalQubit, oracle: ThermalMachineOracle) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f),
    built as one 1-D row by the batch kernels."""
    gaps = np.array(oracle.gap_vector.gaps, dtype=float)
    n, high = gaps.size, _high_bits(gaps.size)
    excited, ground, scaled, shift_sum = _factors(probe.gap, probe.inverse_temperature,
                                                  gaps, oracle.machine_inverse_temperature)
    block = np.empty(min(_machine_levels(n), _BATCH_LEVELS))
    _double(excited, ground, scaled, block)
    if block.size < 1 << n:  # the weights past the first block are not kept
        factors = _block_factors(excited, ground, scaled, (1 << n) // block.size)
        sums, swept, _ = _sweep(block, _sweep_buffer(n), factors, high, True)
    else:
        factors, sums, swept = None, _row_sums(block, high), None
    total = sums.sum()
    k_g, k_e, partition = _probe_factors(excited, ground, total)
    block.flags.writeable = False  # shared by every state one step from this one
    return DiagonalJointState(_Row(block, sums, float(k_g), float(k_e), float(total),
                                   float(shift_sum + np.log(partition)), gaps, probe.gap, factors, swept))


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
    pair = (row.weight(a), row.weight((1 << n) - 1 - a)) if exchanged else (0.0, 0.0)  # unread when built
    reads = _exchange_reads(row.k_g, row.k_e, row.total, *pair, row.energy if energies else None, signed_gaps)
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
