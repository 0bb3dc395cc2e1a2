"""Detuned Rabi flip-flop model for the 3-bit secret-string experiment.

The machine gaps are biased by the secret: bit 0 multiplies gamma_i by 1-eps,
bit 1 by 1+eps, so the total machine transition energy misses the probe gap by
a per-secret detuning delta(s). A detuning suppresses the population transfer
of the kickback by eta = g^2/(g^2 + delta^2), the short-time envelope of the
flip-flop probability.

The post-query inverse temperature under suppression is the kickback's,
with delta_p0 -> eta*delta_p0 substituted before the population is turned
into a temperature; at eta = 1 it is the undetuned kickback temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .query import oracle_shift, shift_outcome
from .thermal import ThermalMachineOracle, ThermalQubit, build_custom_oracle

__all__ = [
    "ExperimentConfig",
    "SweepPoint",
    "DetuningSweep",
    "flip_probability",
    "suppression_factor",
    "detuned_probe_temperature",
    "bv3_sweep",
]


def _check_coupling(g: float, **finite: float) -> None:
    """Reject a coupling ``g`` that is not positive and finite, and any other
    named argument that is not finite."""
    if not (g > 0.0 and math.isfinite(g)):
        raise ValueError(f"coupling g must be positive and finite, got {g}")
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def flip_probability(g: float, detuning: float, time: float) -> float:
    """Rabi flip-flop probability g^2/(g^2+d^2) * sin^2(sqrt(g^2+d^2)*t/2)."""
    _check_coupling(g, detuning=detuning, time=time)
    rabi = math.hypot(g, detuning)
    amplitude = (g / rabi) ** 2
    return amplitude * math.sin(0.5 * rabi * time) ** 2


def suppression_factor(g: float, detuning: float) -> float:
    """Short-time population-transfer envelope eta = g^2/(g^2 + d^2), in (0, 1]."""
    _check_coupling(g, detuning=detuning)
    return g * g / (g * g + detuning * detuning)


def detuned_probe_temperature(
    probe: ThermalQubit, oracle: ThermalMachineOracle, eta: float
) -> float | None:
    """Post-query inverse temperature with the population transfer scaled by eta.

    beta' = (1/omega) log((p0 + eta*delta_p0) / (1 - p0 - eta*delta_p0)) for
    the all-ones kickback shift delta_p0; at eta = 1 it equals the kickback
    temperature exactly. Returns None when the log argument is non-positive.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    beta_after = float(_detuned_inverse_temperatures(oracle, probe.gap, probe.inverse_temperature, eta))
    return None if math.isnan(beta_after) else beta_after


def _detuned_inverse_temperatures(oracle: ThermalMachineOracle, omega: float, beta_s, eta: float):
    """detuned_probe_temperature for a float or an array of ``beta_s``, NaN where undefined."""
    delta = oracle_shift(oracle, omega, beta_s)
    return shift_outcome(beta_s * omega, omega, eta * delta)[2]


@dataclass(frozen=True)
class ExperimentConfig:
    """Three biased machine qubits plus a probe, all pairwise couplings via ``coupling``.

    ``bias`` is eps in the multipliers 1-eps (secret bit 0) and 1+eps (bit 1);
    eps = 0 makes every secret produce the same machine. ``probe_gap`` defaults
    to the unbiased total gap so detunings are symmetric around zero.
    """

    machine_gaps: tuple[float, float, float]
    bias: float
    coupling: float
    probe_gap: float | None = None
    machine_inverse_temperature: float = 1.0

    def __post_init__(self) -> None:
        if len(self.machine_gaps) != 3:
            raise ValueError("the experiment models exactly three machine qubits")
        if any(not (g > 0.0 and math.isfinite(g)) for g in self.machine_gaps):
            raise ValueError("machine gaps must be positive and finite")
        if not math.isfinite(self.machine_inverse_temperature):
            raise ValueError("machine inverse temperature must be finite")
        if not 0.0 <= self.bias < 1.0:
            raise ValueError("bias must lie in [0, 1) so both multipliers stay positive")
        if not self.coupling > 0.0:
            raise ValueError("coupling must be positive")
        if self.probe_gap is not None and not self.probe_gap > 0.0:
            raise ValueError("probe gap must be positive")

    @property
    def omega(self) -> float:
        if self.probe_gap is not None:
            return self.probe_gap
        return float(sum(self.machine_gaps))

    def bias_multiplier(self, bit: str) -> float:
        return 1.0 + self.bias if bit == "1" else 1.0 - self.bias

    def gaps_for_secret(self, secret: str) -> tuple[float, float, float]:
        if len(secret) != 3 or any(c not in "01" for c in secret):
            raise ValueError(f"secret must be a 3-bit string, got {secret!r}")
        return tuple(
            self.bias_multiplier(bit) * gap for bit, gap in zip(secret, self.machine_gaps)
        )

    def detuning_for_secret(self, secret: str) -> float:
        return float(sum(self.gaps_for_secret(secret))) - self.omega

    def oracle_for_secret(self, secret: str) -> ThermalMachineOracle:
        return build_custom_oracle(self.gaps_for_secret(secret), self.machine_inverse_temperature)


@dataclass(frozen=True)
class SweepPoint:
    secret: str
    beta_s: float
    delta_s: float
    eta: float
    beta_s_prime: float | None


@dataclass(frozen=True)
class DetuningSweep:
    """One post-query temperature curve per secret, plus their closest approach."""

    points: tuple[SweepPoint, ...]
    beta_s_grid: tuple[float, ...]
    min_pairwise_separation: float

    def curve(self, secret: str) -> list[float | None]:
        return [p.beta_s_prime for p in self.points if p.secret == secret]

    def secrets(self) -> list[str]:
        seen: list[str] = []
        for p in self.points:
            if p.secret not in seen:
                seen.append(p.secret)
        return seen


def _min_separation(curves: np.ndarray) -> float:
    """Smallest finite |curve_i - curve_j| over pairs i < j of rows of ``curves``.

    ``curves`` holds NaN where a temperature is undefined; NaN when no pair is defined.
    """
    i, j = np.triu_indices(len(curves), 1)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN and is dropped with it
        gaps = np.abs(curves[i] - curves[j])
    gaps = gaps[gaps < math.inf]
    return float(gaps.min()) if gaps.size else math.nan


def bv3_sweep(config: ExperimentConfig, beta_s_grid: Sequence[float]) -> DetuningSweep:
    """Post-query temperature of the probe for every 3-bit secret over a probe-temperature grid.

    Pure evaluation: deterministic and seed-free. Secrets are swept in
    lexicographic order; curve separation is the smallest pointwise gap
    between any two curves, over grid points where both are defined.
    """
    grid = tuple(float(b) for b in beta_s_grid)
    if len(grid) == 0:
        raise ValueError("beta_s grid must be nonempty")
    for beta_s in grid:
        ThermalQubit(config.omega, beta_s)  # rejects a non-finite probe gap or temperature
    points: list[SweepPoint] = []
    curves = []
    for bits in product("01", repeat=3):
        secret = "".join(bits)
        delta_s = config.detuning_for_secret(secret)
        eta = suppression_factor(config.coupling, delta_s)
        oracle = config.oracle_for_secret(secret)
        betas = _detuned_inverse_temperatures(oracle, config.omega, np.array(grid), eta)
        values = [None if b != b else b for b in betas.tolist()]
        points += [SweepPoint(secret, b, delta_s, eta, v) for b, v in zip(grid, values)]
        curves.append(betas)
    return DetuningSweep(
        points=tuple(points),
        beta_s_grid=grid,
        min_pairwise_separation=_min_separation(np.array(curves)),
    )
