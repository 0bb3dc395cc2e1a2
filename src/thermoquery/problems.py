"""Deutsch-Jozsa and secret-string problem instances, and the Hamming-weight readout.

The classical baselines the thermal readout is compared with are closed forms
in :mod:`thermoquery.readout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .query import kickback_shift, shift_outcome
from .thermal import (
    BooleanFunctionTable,
    Classification,
    ThermalQubit,
    two_gap_machine,
)

__all__ = [
    "PromiseViolationError",
    "DJInstance",
    "BVInstance",
    "enumerate_balanced_functions",
    "constant_functions",
    "hamming_weight_population",
]

MAX_EXHAUSTIVE_N = 4


class PromiseViolationError(ValueError):
    """The function is neither balanced nor constant."""


@dataclass(frozen=True)
class DJInstance:
    function: BooleanFunctionTable
    classification: Classification

    def __post_init__(self) -> None:
        actual = self.function.classification
        if actual is Classification.OTHER:
            raise PromiseViolationError("function is neither balanced nor constant")
        if actual is not self.classification:
            raise ValueError(
                f"stated classification {self.classification} does not match table ({actual})"
            )

    @classmethod
    def from_table(cls, function: BooleanFunctionTable) -> "DJInstance":
        return cls(function, function.classification)


@dataclass(frozen=True)
class BVInstance:
    secret: str
    hamming_weight: int

    def __post_init__(self) -> None:
        if not self.secret or self.secret.strip("01"):
            raise ValueError(f"secret must be a nonempty bit string, got {self.secret!r}")
        if self.hamming_weight != self.secret.count("1"):
            raise ValueError("hamming_weight does not match the secret")

    @classmethod
    def from_secret(cls, secret: str) -> "BVInstance":
        return cls(secret, secret.count("1"))


def enumerate_balanced_functions(n: int, limit: int | None = None) -> Iterator[DJInstance]:
    """Yield every balanced truth table on n bits, C(2^n, 2^{n-1}) in total.

    Deterministic order: lexicographic in the positions mapped to 1.
    Exhaustive enumeration is capped at n = 4 (12870 tables).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {MAX_EXHAUSTIVE_N}")
    size = 1 << n
    emitted = 0
    for ones in combinations(range(size), size // 2):
        if limit is not None and emitted >= limit:
            return
        outputs = [0] * size
        for position in ones:
            outputs[position] = 1
        yield DJInstance(BooleanFunctionTable(n, tuple(outputs)), Classification.BALANCED)
        emitted += 1


def constant_functions(n: int) -> tuple[DJInstance, DJInstance]:
    """The two constant instances (f == 0, f == 1) on n bits."""
    return (
        DJInstance(BooleanFunctionTable.constant(n, 0), Classification.CONSTANT0),
        DJInstance(BooleanFunctionTable.constant(n, 1), Classification.CONSTANT1),
    )


def hamming_weight_population(
    instance: BVInstance, gamma: float, probe: ThermalQubit, beta_m: float
) -> float:
    """Probe ground population after the all-ones kickback on the secret-string oracle.

    p0' = (1 + Z_f^{-1}(e^{-beta_S*omega} - e^{-beta_M*#(s)*gamma})) / Z_S,
    so the probe temperature reveals the Hamming weight #(s).
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(beta_m):
        raise ValueError(f"machine inverse temperature must be finite, got {beta_m}")
    total, log_zf = two_gap_machine(instance.hamming_weight, len(instance.secret), gamma, 0.0, beta_m)
    a = probe.inverse_temperature * probe.gap
    delta = kickback_shift(a, beta_m, total, 0.0, log_zf)
    return float(shift_outcome(a, probe.gap, delta)[1])
