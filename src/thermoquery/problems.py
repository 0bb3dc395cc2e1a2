"""Deutsch-Jozsa and secret-string problem instances, and the Hamming-weight readout.

The classical baselines the thermal readout is compared with are closed forms
in :mod:`thermoquery.readout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

from .query import kickback
from .thermal import (
    BooleanFunctionTable,
    Classification,
    ThermalQubit,
    check_machine_totals,
    check_positive,
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


@dataclass(frozen=True, slots=True)
class DJInstance:
    """A truth table that keeps the promise: constant or balanced."""

    function: BooleanFunctionTable

    def __post_init__(self) -> None:
        if self.classification is Classification.OTHER:
            raise PromiseViolationError("function is neither balanced nor constant")

    @property
    def classification(self) -> Classification:
        return self.function.classification


@dataclass(frozen=True)
class BVInstance:
    secret: str

    def __post_init__(self) -> None:
        if not self.secret or self.secret.strip("01"):
            raise ValueError(f"secret must be a nonempty bit string, got {self.secret!r}")

    @classmethod
    def from_secret(cls, secret: str) -> "BVInstance":
        return cls(secret)

    @cached_property
    def hamming_weight(self) -> int:
        return self.secret.count("1")


def enumerate_balanced_functions(n: int) -> Iterator[DJInstance]:
    """Yield every balanced truth table on n bits, C(2^n, 2^{n-1}) in total.

    Deterministic order: lexicographic in the positions mapped to 1.
    Exhaustive enumeration is capped at n = 4 (12870 tables).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {MAX_EXHAUSTIVE_N}")
    size = 1 << n
    for ones in combinations(range(size), size // 2):
        outputs = [0] * size
        for position in ones:
            outputs[position] = 1
        yield DJInstance(BooleanFunctionTable(n, tuple(outputs)))


def constant_functions(n: int) -> tuple[DJInstance, DJInstance]:
    """The two constant instances (f == 0, f == 1) on n bits."""
    return (
        DJInstance(BooleanFunctionTable.constant(n, 0)),
        DJInstance(BooleanFunctionTable.constant(n, 1)),
    )


def hamming_weight_population(
    instance: BVInstance, gamma: float, probe: ThermalQubit, beta_m: float
) -> float:
    """Probe ground population after the all-ones kickback on the secret-string oracle.

    p0' = (1 + Z_f^{-1}(e^{-beta_S*omega} - e^{-beta_M*#(s)*gamma})) / Z_S,
    so the probe temperature reveals the Hamming weight #(s).
    """
    check_positive("gamma", gamma)
    # The oracle's refusals, in its words, with no RuntimeWarning on the way.
    size, weight = len(instance.secret), instance.hamming_weight
    with np.errstate(over="ignore", invalid="ignore"):
        total, log_zf = two_gap_machine(weight, size, gamma, 0.0, beta_m)
    check_machine_totals(size, gamma if weight else 0.0, beta_m, total=total, log_zf=log_zf)
    a = probe.inverse_temperature * probe.gap
    return float(kickback(a, probe.gap, beta_m, total, 0.0, log_zf)[2])
