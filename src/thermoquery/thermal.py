"""Thermal qubits, gap vectors, and thermal-machine oracles for Boolean functions.

Units: k_B = hbar = 1. Energies are dimensionless, inverse temperatures carry
units of 1/energy, and every qubit's ground level sits at energy 0. Inverse
temperatures may be zero (maximally mixed) or negative (population inverted)
but must be finite; qubit gaps must be positive and finite.

Partition functions are accumulated and stored in log-domain throughout, so
machines with exponentially many qubits never overflow or underflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "PureStatePopulationError",
    "Classification",
    "BooleanFunctionTable",
    "ThermalQubit",
    "GapVector",
    "ThermalMachineOracle",
    "two_gap_machine",
    "logistic",
    "bits_to_index",
    "only_zeros_and_ones",
    "ground_state_population",
    "inverse_temperature_from_population",
    "population_inverse_temperature",
    "build_dj_oracle",
    "build_bv_oracle",
    "build_custom_oracle",
]


class PureStatePopulationError(ValueError):
    """A ground population of exactly 0 or 1 has no finite inverse temperature."""


_LOG_2 = math.log(2.0)


def _log1pexp(x: float) -> float:
    """log(1 + e^x), stable for any finite x."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def only_zeros_and_ones(values) -> bool:
    """Whether every entry of ``values`` equals 0 or 1, as ``True`` and ``1.0``
    do: the entry check of truth tables and query masks, one set inclusion
    tested in C. An unhashable entry is neither."""
    try:
        return set(values) <= {0, 1}
    except TypeError:
        return False


def two_gap_machine(ones, size, gap_one, gap_zero, beta_m):
    """|G| and log Z_f of ``size`` machine qubits, ``ones`` of gap ``gap_one`` and
    the rest of gap ``gap_zero``, from the counts alone; floats or arrays that broadcast."""
    zeros = size - ones
    total = ones * gap_one + zeros * gap_zero
    log_zf = ones * np.logaddexp(0.0, -beta_m * gap_one) + zeros * np.logaddexp(0.0, -beta_m * gap_zero)
    return total, log_zf


def logistic(x: float) -> float:
    """1 / (1 + e^{-x}), stable for any finite x."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def bits_to_index(bits: str) -> int:
    """Integer value of a big-endian bit string (leftmost character is the most significant bit)."""
    if not bits or bits.strip("01"):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def _check_gap(gap: float) -> None:
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be positive and finite, got {gap}")


def ground_state_population(gap: float, beta: float) -> float:
    """Ground-state population 1/(1 + e^{-beta*gap}) of a thermal qubit.

    Parameters
    ----------
    gap : positive, finite energy splitting between the two levels.
    beta : inverse temperature; any finite value is allowed.
    """
    _check_gap(gap)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    return logistic(beta * gap)


def inverse_temperature_from_population(p0: float, gap: float) -> float:
    """Invert the ground-state population: beta = log(p0/(1-p0)) / gap.

    Exact inverse of :func:`ground_state_population`. A population of exactly
    0 or 1 corresponds to an infinite temperature parameter and raises
    :class:`PureStatePopulationError`.
    """
    _check_gap(gap)
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"population must lie in [0, 1], got {p0}")
    if p0 == 0.0 or p0 == 1.0:
        raise PureStatePopulationError(
            f"population {p0} is a pure state; no finite inverse temperature exists"
        )
    return float(population_inverse_temperature(p0, gap))


def population_inverse_temperature(p0, gap):
    """log(p0/(1-p0)) / gap for floats or arrays of populations in (0, 1),
    unvalidated; :func:`inverse_temperature_from_population` checks its input."""
    return (np.log(p0) - np.log1p(-p0)) / gap


@dataclass(frozen=True, slots=True)
class ThermalQubit:
    """Two-level system with ground energy 0 and excited energy ``gap``."""

    gap: float
    inverse_temperature: float

    def __post_init__(self) -> None:
        _check_gap(self.gap)
        # A finite beta * gap needs a finite beta, so beta is tested only when
        # the product fails. math.fabs gives Python floats, whose product
        # overflows to inf silently where numpy scalars' warns.
        if not math.isfinite(math.fabs(self.inverse_temperature) * math.fabs(self.gap)):
            if not math.isfinite(self.inverse_temperature):
                raise ValueError(f"inverse temperature must be finite, got {self.inverse_temperature}")
            raise ValueError("inverse temperature times gap must be finite, got "
                             f"{self.inverse_temperature} * {self.gap}")

    @property
    def ground_population(self) -> float:
        return ground_state_population(self.gap, self.inverse_temperature)

    @property
    def log_partition_function(self) -> float:
        return _log1pexp(-self.inverse_temperature * self.gap)


@dataclass(frozen=True, slots=True)
class GapVector:
    """Ordered machine-qubit energy gaps. Entries may be zero but not negative.
    The largest gap is kept for the oracle's check of beta_M times it."""

    gaps: tuple[float, ...]
    _largest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gaps) == 0:
            raise ValueError("gap vector must have at least one entry")
        distinct = set(self.gaps)
        if any(not (g >= 0.0 and math.isfinite(g)) for g in distinct):
            raise ValueError("every gap must be finite and >= 0")
        largest = float(max(distinct))
        object.__setattr__(self, "_largest", largest)
        # Only a vector whose largest gap times its length passes the largest
        # double can sum to inf: others skip the sum.
        if largest * len(self.gaps) > sys.float_info.max:
            with np.errstate(over="ignore"):
                total = self.total
            if not math.isfinite(total):
                raise ValueError(f"gap total must be finite, got {total}")

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def total(self) -> float:
        """Sum of all gaps; the exponent scale of the full-machine Boltzmann factor."""
        return float(np.add.reduce(np.asarray(self.gaps, dtype=float)))


class Classification(Enum):
    CONSTANT0 = "constant0"
    CONSTANT1 = "constant1"
    BALANCED = "balanced"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class BooleanFunctionTable:
    """Truth table of an n-bit Boolean function, indexed by the big-endian input string."""

    n: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one input bit")
        if len(self.outputs) != (1 << self.n):
            raise ValueError(
                f"expected {1 << self.n} outputs for n={self.n}, got {len(self.outputs)}"
            )
        if not only_zeros_and_ones(self.outputs):
            raise ValueError("outputs must be 0/1")

    @classmethod
    def constant(cls, n: int, value: int) -> "BooleanFunctionTable":
        return cls(n, tuple([int(value)] * (1 << n)))

    @property
    def classification(self) -> Classification:
        ones = sum(self.outputs)
        size = len(self.outputs)
        if ones == 0:
            return Classification.CONSTANT0
        if ones == size:
            return Classification.CONSTANT1
        if 2 * ones == size:
            return Classification.BALANCED
        return Classification.OTHER


@dataclass(frozen=True)
class ThermalMachineOracle:
    """Product of thermal qubits at a common machine temperature.

    Stored in product form (gap vector + inverse temperature); the full
    2^N-entry population vector is only ever materialized by the exact
    simulator. Which problem's gaps these are is known only to the caller
    that built the oracle.
    """

    gap_vector: GapVector
    machine_inverse_temperature: float

    def __post_init__(self) -> None:
        # Each machine qubit must be a ThermalQubit: beta_M times every gap
        # finite. As there, beta_M is tested only when the product fails.
        beta, largest = self.machine_inverse_temperature, self.gap_vector._largest
        scale = math.fabs(beta) * largest
        if not math.isfinite(scale):
            if not math.isfinite(beta):
                raise ValueError(f"machine inverse temperature must be finite, got {beta}")
            raise ValueError(f"inverse temperature times gap must be finite, got {beta} * {largest}")
        # Each term of log Z_f is at most |beta_M g| + log 2: only an oracle
        # whose bound passes the largest double can overflow, and it is
        # refused here, by log Z_f's own check, rather than on first read.
        if len(self.gap_vector) * (scale + _LOG_2) > sys.float_info.max:
            self.log_partition_function  # raises when log Z_f is not finite

    @property
    def n_machine_qubits(self) -> int:
        return len(self.gap_vector)

    @cached_property
    def log_partition_function(self) -> float:
        """log Z_f; a sum that overflows a double (gaps near the float
        maximum, or |beta_M g| past it) raises instead of returning inf."""
        beta = self.machine_inverse_temperature
        log_zf = float(sum(_log1pexp(-beta * g) for g in self.gap_vector.gaps))
        if not math.isfinite(log_zf):
            raise ValueError(f"log partition function is not finite, got {log_zf}")
        return log_zf

    def machine_qubit(self, index: int | str) -> ThermalQubit:
        """Thermal qubit at machine position ``index`` (big-endian bit string or integer)."""
        idx = bits_to_index(index) if isinstance(index, str) else index
        if not 0 <= idx < len(self.gap_vector):
            raise IndexError(f"machine index {index!r} out of range")
        gap = self.gap_vector.gaps[idx]
        if gap <= 0.0:
            raise ValueError(f"machine qubit {idx} has zero gap; it is not a valid thermal qubit")
        return ThermalQubit(gap, self.machine_inverse_temperature)


def build_dj_oracle(
    function: BooleanFunctionTable, gap_one: float, gap_zero: float, beta_m: float
) -> ThermalMachineOracle:
    """Oracle with one machine qubit per input string x, gap chosen by f(x)."""
    if not (gap_one > 0.0 and gap_zero > 0.0):
        raise ValueError("both encoding gaps must be positive")
    gaps = tuple(gap_one if out else gap_zero for out in function.outputs)
    return ThermalMachineOracle(GapVector(gaps), beta_m)


def build_bv_oracle(secret: str, gamma: float, beta_m: float) -> ThermalMachineOracle:
    """Oracle with one machine qubit per secret bit, gap secret[i]*gamma."""
    if not secret or secret.strip("01"):
        raise ValueError(f"secret must be a nonempty bit string, got {secret!r}")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    gaps = tuple(gamma if c == "1" else 0.0 for c in secret)
    return ThermalMachineOracle(GapVector(gaps), beta_m)


def build_custom_oracle(gaps: Sequence[float], beta_m: float) -> ThermalMachineOracle:
    return ThermalMachineOracle(GapVector(tuple(float(g) for g in gaps)), beta_m)
