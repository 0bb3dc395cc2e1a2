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
from .thermal import ThermalMachineOracle, ThermalQubit, build_custom_oracle, check_positive

__all__ = [
    "ExperimentConfig",
    "DetuningSweep",
    "flip_probability",
    "suppression_factor",
    "detuned_probe_temperature",
    "bv3_sweep",
]


def _check_finite(**values: float) -> None:
    """Reject the first named argument that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def flip_probability(g: float, detuning: float, time: float) -> float:
    """Rabi flip-flop probability g^2/(g^2+d^2) * sin^2(sqrt(g^2+d^2)*t/2)."""
    check_positive("coupling g", g)
    _check_finite(detuning=detuning, time=time)
    rabi = math.hypot(g, detuning)
    amplitude = (g / rabi) ** 2
    phase = 0.5 * rabi * time
    if not math.isfinite(phase):
        raise ValueError(f"time must keep the phase sqrt(g^2 + d^2) * time / 2 finite, got {time}")
    return amplitude * math.sin(phase) ** 2


def suppression_factor(g: float, detuning: float) -> float:
    """Short-time population-transfer envelope eta = g^2/(g^2 + d^2), in (0, 1].

    Written in the ratio of the smaller to the larger of g and |d|, so that
    no square overflows or underflows on its own: 1/(1 + r^2) with r = d/g
    where |d| <= g, s^2/(1 + s^2) with s = g/d otherwise. Only a ratio below
    about 1e-154 rounds eta to 1 or to 0.
    """
    check_positive("coupling g", g)
    _check_finite(detuning=detuning)
    if abs(detuning) <= g:
        r = detuning / g
        return 1.0 / (1.0 + r * r)
    s = g / detuning
    return s * s / (1.0 + s * s)


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
        check_positive("machine gaps", *self.machine_gaps)
        if not math.isfinite(self.machine_inverse_temperature):
            raise ValueError("machine inverse temperature must be finite")
        if not 0.0 <= self.bias < 1.0:
            raise ValueError("bias must lie in [0, 1) so both multipliers stay positive")
        check_positive("coupling", self.coupling)
        check_positive("probe gap", self.omega)

    @property
    def omega(self) -> float:
        if self.probe_gap is not None:
            return self.probe_gap
        return float(sum(self.machine_gaps))

    def bias_multiplier(self, bit: str) -> float:
        return 1.0 + self.bias if bit == "1" else 1.0 - self.bias

    def gaps_for_secret(self, secret: str) -> tuple[float, float, float]:
        if len(secret) != 3 or secret.strip("01"):
            raise ValueError(f"secret must be a 3-bit string, got {secret!r}")
        return tuple(
            self.bias_multiplier(bit) * gap for bit, gap in zip(secret, self.machine_gaps)
        )

    def detuning_for_secret(self, secret: str) -> float:
        return float(sum(self.gaps_for_secret(secret))) - self.omega

    def oracle_for_secret(self, secret: str) -> ThermalMachineOracle:
        return build_custom_oracle(self.gaps_for_secret(secret), self.machine_inverse_temperature)


# Every 3-bit secret, in lexicographic order.
_SECRETS = tuple("".join(bits) for bits in product("01", repeat=3))


@dataclass(frozen=True)
class DetuningSweep:
    """One post-query temperature curve per secret, plus their closest approach.

    ``delta_s``, ``eta`` and ``curves`` hold one entry per secret of ``secrets()``;
    ``curves[i][j]`` is beta' at ``beta_s_grid[j]``, None where undefined."""

    beta_s_grid: tuple[float, ...]
    delta_s: tuple[float, ...]
    eta: tuple[float, ...]
    curves: tuple[tuple[float | None, ...], ...]
    min_pairwise_separation: float

    def secrets(self) -> list[str]:
        return list(_SECRETS)


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
    beta_s = np.array(grid)
    if not np.isfinite(beta_s).all():
        raise ValueError("every probe inverse temperature must be finite")
    if not math.isfinite(float(np.abs(beta_s).max()) * config.omega):
        raise ValueError(f"every probe inverse temperature times the probe gap {config.omega} must be finite")
    delta_s = [config.detuning_for_secret(secret) for secret in _SECRETS]
    eta = [suppression_factor(config.coupling, delta) for delta in delta_s]
    curves = np.array([
        _detuned_inverse_temperatures(config.oracle_for_secret(secret), config.omega, beta_s, factor)
        for secret, factor in zip(_SECRETS, eta)
    ])
    return DetuningSweep(
        beta_s_grid=grid,
        delta_s=tuple(delta_s),
        eta=tuple(eta),
        curves=tuple(tuple([None if b != b else b for b in curve]) for curve in curves.tolist()),
        min_pairwise_separation=_min_separation(curves),
    )
