"""Brute-force verification oracle over the full diagonal joint state.

Materializes every population of probe + machine, applies exchanges as exact
permutations, and extracts marginals. Ground truth for the analytic formulas;
capped at a configurable qubit count since the vector is dense.

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


def _machine_level_energies(oracle: ThermalMachineOracle) -> np.ndarray:
    n = oracle.n_machine_qubits
    idx = np.arange(1 << n)
    shifts = np.arange(n - 1, -1, -1)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return bits @ oracle.gap_vector.as_array()


def build_joint_state(
    probe: ThermalQubit,
    oracle: ThermalMachineOracle,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> DiagonalJointState:
    """Normalized product populations e^{-beta_S*omega*i_S} e^{-beta_M*(i_M.G)} / (Z_S Z_f)."""
    n = oracle.n_machine_qubits
    if n + 1 > max_qubits:
        raise ValueError(f"{n + 1} qubits exceed the configured limit of {max_qubits}")
    machine_energies = _machine_level_energies(oracle)
    log_w_machine = -oracle.machine_inverse_temperature * machine_energies
    probe_exponent = -probe.inverse_temperature * probe.gap
    log_w = np.concatenate([log_w_machine, log_w_machine + probe_exponent])
    shift = float(log_w.max())
    weights = np.exp(log_w - shift)
    total = float(weights.sum())
    populations = weights / total
    energies = np.concatenate([machine_energies, machine_energies + probe.gap])
    return DiagonalJointState(
        populations=populations,
        level_energies=energies,
        n_machine=n,
        probe_gap=probe.gap,
        log_partition_sum=shift + math.log(total),
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
    idx = np.arange(state.size)
    probe_bits = (idx >> n) & 1
    machine_shift = n - 1 - machine_index
    machine_bits = (idx >> machine_shift) & 1
    differ = probe_bits ^ machine_bits
    partner = idx ^ (differ << n) ^ (differ << machine_shift)
    return DiagonalJointState(
        populations=state.populations[partner],
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
    machine_energies = state.level_energies.copy()
    machine_energies[half:] -= state.probe_gap
    return float(np.dot(state.populations, machine_energies))

