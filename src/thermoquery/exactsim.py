"""Brute-force verification oracle over the full diagonal joint state.

Materializes every population of probe + machine, applies exchanges as exact
permutations, and extracts marginals. Ground truth for the analytic formulas;
capped at a configurable qubit count (20 by default) since the vector is dense.

Every operation is O(2^N) in time and memory for N joint qubits: level
energies are built by doubling, one ``exp`` covers the machine half, a SWAP is
one reshape-transpose copy, and mean energies are dot products over the two
halves. Nothing here calls the analytic kickback code in ``query`` or the
closed-form partition functions of ``thermal``.

Index convention: the probe bit is the most significant bit; machine bit
strings are big-endian, matching the oracle serialization (machine qubit 0 is
the leftmost, most significant machine bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .query import QueryMask
from .readout import BinaryDistribution
from .thermal import ThermalMachineOracle, ThermalQubit

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "DiagonalJointState",
    "build_joint_state",
    "apply_level_exchange",
    "apply_swap_with_machine_qubit",
    "probe_marginal",
    "kickback_level_indices",
    "probe_mean_energy",
    "machine_mean_energy",
]

DEFAULT_MAX_QUBITS = 20


@dataclass(frozen=True, eq=False)
class DiagonalJointState:
    """Dense population vector over (probe bit, machine string) levels.

    ``log_partition_sum`` is the log of the unnormalized weight sum at
    construction time and equals log(Z_S) + log(Z_f); it is carried through
    permutations unchanged (they preserve the trace).
    """

    populations: np.ndarray
    level_energies: np.ndarray
    n_machine: int
    probe_gap: float
    log_partition_sum: float

    @property
    def size(self) -> int:
        return self.populations.size


def _level_energies(gaps: tuple[float, ...]) -> np.ndarray:
    """Energies of every level of independent qubits with these gaps, built by doubling.

    The last gap is added first, so it becomes the least significant bit and
    qubit 0 the most significant one.
    """
    energies = np.empty(1 << len(gaps))
    energies[0] = 0.0
    size = 1
    for gap in reversed(gaps):
        np.add(energies[:size], gap, out=energies[size:2 * size])
        size *= 2
    return energies


def build_joint_state(
    probe: ThermalQubit,
    oracle: ThermalMachineOracle,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f)."""
    n = oracle.n_machine_qubits
    if n + 1 > max_qubits:
        raise ValueError(f"{n + 1} qubits exceed the configured limit of {max_qubits}")
    # The probe is the most significant qubit of the joint index.
    energies = _level_energies((probe.gap, *oracle.gap_vector.gaps))
    half = 1 << n
    # Fresh arrays cost page faults; every step below writes into the output.
    populations = np.empty(2 * half)
    ground, excited = populations[:half], populations[half:]
    np.multiply(energies[:half], -oracle.machine_inverse_temperature, out=ground)
    probe_exponent = -probe.inverse_temperature * probe.gap
    # Shifting by the largest log weight of either probe level keeps both
    # probe factors <= 1 whatever the signs of beta_S and beta_M.
    machine_shift = float(ground.max())
    probe_shift = max(0.0, probe_exponent)
    ground -= machine_shift
    np.exp(ground, out=ground)
    np.multiply(ground, math.exp(probe_exponent - probe_shift), out=excited)
    ground *= math.exp(-probe_shift)
    total = float(populations.sum())
    populations /= total
    return DiagonalJointState(
        populations=populations,
        level_energies=energies,
        n_machine=n,
        probe_gap=probe.gap,
        log_partition_sum=machine_shift + probe_shift + math.log(total),
    )


def apply_level_exchange(state: DiagonalJointState, level_a: int, level_b: int) -> DiagonalJointState:
    """Swap the populations of two distinct levels; everything else untouched."""
    size = state.size
    if not (0 <= level_a < size and 0 <= level_b < size):
        raise IndexError(f"level indices ({level_a}, {level_b}) out of range for size {size}")
    if level_a == level_b:
        raise ValueError("level indices must be distinct")
    populations = state.populations.copy()
    populations[level_a], populations[level_b] = populations[level_b], populations[level_a]
    return DiagonalJointState(
        populations=populations,
        level_energies=state.level_energies,
        n_machine=state.n_machine,
        probe_gap=state.probe_gap,
        log_partition_sum=state.log_partition_sum,
    )


def apply_swap_with_machine_qubit(state: DiagonalJointState, machine_index: int) -> DiagonalJointState:
    """Permute populations exchanging the probe bit with machine bit ``machine_index``."""
    n = state.n_machine
    if not 0 <= machine_index < n:
        raise IndexError(f"machine index {machine_index} out of range")
    # Axes: probe bit, machine bits above the swapped one, swapped bit, bits below.
    above = 1 << machine_index
    below = 1 << (n - 1 - machine_index)
    populations = state.populations.reshape(2, above, 2, below).transpose(2, 1, 0, 3).reshape(-1)
    return DiagonalJointState(
        populations=populations,
        level_energies=state.level_energies,
        n_machine=state.n_machine,
        probe_gap=state.probe_gap,
        log_partition_sum=state.log_partition_sum,
    )


def probe_marginal(state: DiagonalJointState) -> BinaryDistribution:
    """Sum populations over the machine for each probe bit."""
    half = 1 << state.n_machine
    return BinaryDistribution(float(np.sum(state.populations[:half])))


def kickback_level_indices(mask: QueryMask, n_machine: int) -> tuple[int, int]:
    """Joint level indices (|0_S, X>, |1_S, X xor 1>) exchanged by the kickback V(X)."""
    if len(mask.bits) != n_machine:
        raise ValueError("mask length does not match the machine")
    machine_index = 0
    for bit in mask.bits:
        machine_index = (machine_index << 1) | bit
    full = (1 << n_machine) - 1
    return machine_index, (1 << n_machine) | (machine_index ^ full)


def probe_mean_energy(state: DiagonalJointState) -> float:
    return state.probe_gap * (1.0 - probe_marginal(state).p0)


def machine_mean_energy(state: DiagonalJointState) -> float:
    half = 1 << state.n_machine
    machine_energies = state.level_energies[:half]
    populations = state.populations
    return float(
        np.dot(populations[:half], machine_energies) + np.dot(populations[half:], machine_energies)
    )
