"""Problem-instance generation and classification, plus the classical baseline solver."""

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
    log1pexp,
)

__all__ = [
    "PromiseViolationError",
    "DJInstance",
    "BVInstance",
    "ClassicalSolveResult",
    "enumerate_balanced_functions",
    "constant_functions",
    "dj_gap_magnitude",
    "hamming_weight_population",
    "solve_dj_deterministic_classical",
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
        if not self.secret or any(c not in "01" for c in self.secret):
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


def dj_gap_magnitude(
    classification: Classification, n_machine: int, gap_one: float, gap_zero: float
) -> float:
    """Total machine gap by promise class: N*E1, N*E2, or (N/2)(E1+E2)."""
    if classification is Classification.CONSTANT1:
        return n_machine * gap_one
    if classification is Classification.CONSTANT0:
        return n_machine * gap_zero
    if classification is Classification.BALANCED:
        if n_machine % 2 != 0:
            raise ValueError("balanced functions need an even machine size")
        return (n_machine // 2) * (gap_one + gap_zero)
    raise ValueError(f"no gap magnitude for classification {classification}")


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
    k = instance.hamming_weight
    n = len(instance.secret)
    log_zf = k * log1pexp(-beta_m * gamma) + (n - k) * math.log(2.0)
    a = probe.inverse_temperature * probe.gap
    delta = kickback_shift(a, beta_m, k * gamma, 0.0, log_zf)
    return float(shift_outcome(a, probe.gap, delta)[1])


@dataclass(frozen=True)
class ClassicalSolveResult:
    classification: Classification
    queries: int


def solve_dj_deterministic_classical(function: BooleanFunctionTable) -> ClassicalSolveResult:
    """Evaluate f input by input until the promise class is decided.

    Stops at the first differing pair of outputs (balanced) or after
    2^{n-1} + 1 identical ones (constant), the worst case. A table violating
    the promise raises before any evaluation.
    """
    if function.classification is Classification.OTHER:
        raise PromiseViolationError("function is neither balanced nor constant")
    worst_case = (1 << (function.n - 1)) + 1
    first = function.outputs[0]
    for i in range(1, worst_case):
        if function.outputs[i] != first:
            return ClassicalSolveResult(Classification.BALANCED, i + 1)
    constant = Classification.CONSTANT1 if first else Classification.CONSTANT0
    return ClassicalSolveResult(constant, worst_case)
