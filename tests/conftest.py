"""Shared fixtures and an independent reference model for cross-checking.

The reference implementation below is intentionally written with plain Python
dicts and decimal exp products (no numpy, no log-domain tricks, no shared code
with the package) so that agreement with the library is meaningful. Decimal
arithmetic holds e^x far past the 709 at which a double overflows.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from thermoquery.thermal import ThermalMachineOracle, ThermalQubit


def _reference_populations(probe: ThermalQubit, oracle: ThermalMachineOracle):
    """Normalized populations over (probe bit, machine bit tuple) as
    Decimals, and log(Z_S Z_f), by direct products at 40 significant digits."""
    gaps = [Decimal(g) for g in oracle.gap_vector.gaps]
    beta_m = Decimal(oracle.machine_inverse_temperature)
    probe_exponent = -Decimal(probe.inverse_temperature) * Decimal(probe.gap)
    weights: dict[tuple[int, tuple[int, ...]], Decimal] = {}
    with localcontext() as context:
        context.prec = 40
        for s_bit in (0, 1):
            for machine in product((0, 1), repeat=len(gaps)):
                energy = sum((g for b, g in zip(machine, gaps) if b), Decimal(0))
                weights[(s_bit, machine)] = (probe_exponent * s_bit).exp() * (-beta_m * energy).exp()
        total = sum(weights.values())
        return {level: w / total for level, w in weights.items()}, total.ln()


def reference_joint_populations(
    probe: ThermalQubit, oracle: ThermalMachineOracle
) -> dict[tuple[int, tuple[int, ...]], float]:
    """Normalized populations over (probe bit, machine bit tuple), by direct
    products at 40 significant digits."""
    return {level: float(p) for level, p in _reference_populations(probe, oracle)[0].items()}


class ReferenceKickback(NamedTuple):
    """Probe ground population, log(Z_S Z_f) and machine mean energy around
    one kickback, the order in which ``exactsim.kickback_batch`` returns them."""

    p0: float
    p0_after: float
    log_partition_sum: float
    energy: float
    energy_after: float


def reference_kickback(
    probe: ThermalQubit, oracle: ThermalMachineOracle, mask_bits: tuple[int, ...]
) -> ReferenceKickback:
    """Exchange |0_S, X> with |1_S, X xor 1> in the 40-digit populations and
    sum them: p0 over the probe's ground half, the machine energy as
    sum p(i_S, x) x.G."""
    populations, log_partition_sum = _reference_populations(probe, oracle)
    gaps = [Decimal(g) for g in oracle.gap_vector.gaps]
    level_a = (0, tuple(mask_bits))
    level_b = (1, tuple(1 - b for b in mask_bits))
    exchanged = dict(populations)
    exchanged[level_a], exchanged[level_b] = populations[level_b], populations[level_a]
    with localcontext() as context:
        context.prec = 40

        def sums(levels):
            p0 = sum((p for (s_bit, _), p in levels.items() if s_bit == 0), Decimal(0))
            energy = sum(
                (p * sum((g for b, g in zip(machine, gaps) if b), Decimal(0)) for (_, machine), p in levels.items()),
                Decimal(0),
            )
            return p0, energy

        (p0, energy), (p0_after, energy_after) = sums(populations), sums(exchanged)
    return ReferenceKickback(float(p0), float(p0_after), float(log_partition_sum), float(energy), float(energy_after))


def reference_kickback_ground_population(
    probe: ThermalQubit, oracle: ThermalMachineOracle, mask_bits: tuple[int, ...]
) -> float:
    """Probe ground population after exchanging |0_S, X> with |1_S, X xor 1>."""
    return reference_kickback(probe, oracle, mask_bits).p0_after


def reference_swap(probe: ThermalQubit, oracle: ThermalMachineOracle) -> list[tuple[float, float]]:
    """Probe ground population and machine mean energy after a full SWAP
    with each machine qubit, at 40 digits from one build of the
    populations: the probe takes the machine bit's value and the machine
    bit the probe's."""
    populations, _ = _reference_populations(probe, oracle)
    gaps = [Decimal(g) for g in oracle.gap_vector.gaps]
    swaps = []
    with localcontext() as context:
        context.prec = 40
        for machine_index in range(len(gaps)):
            p0 = energy = Decimal(0)
            for (s_bit, machine), p in populations.items():
                swapped = list(machine)
                swapped[machine_index] = s_bit
                if machine[machine_index] == 0:
                    p0 += p
                energy += p * sum((g for b, g in zip(swapped, gaps) if b), Decimal(0))
            swaps.append((float(p0), float(energy)))
    return swaps


def reference_machine_ground_populations(oracle: ThermalMachineOracle) -> list[float]:
    """Each machine qubit's ground population 1/(1 + e^{-beta_M g}) at 40
    digits: in a product state, the probe's p0 after a SWAP with that qubit,
    for machines too large for the populations of :func:`reference_swap`."""
    beta_m = Decimal(oracle.machine_inverse_temperature)
    with localcontext() as context:
        context.prec = 40
        return [float(1 / (1 + (-beta_m * Decimal(g)).exp())) for g in oracle.gap_vector.gaps]


def reference_swap_ground_population(
    probe: ThermalQubit, oracle: ThermalMachineOracle, machine_index: int
) -> float:
    """Probe ground population after a full SWAP with one machine qubit."""
    return reference_swap(probe, oracle)[machine_index][0]


def reference_level_energies(gaps) -> np.ndarray:
    """Energy of every bit string of the qubits with ``gaps``, big-endian:
    index i holds the sum of the gaps of the 1 bits of i, the first gap's
    bit the most significant. With the probe gap first, the joint levels."""
    return np.array([sum(g for b, g in zip(bits, gaps) if b) for bits in product((0, 1), repeat=len(gaps))])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20251015)
