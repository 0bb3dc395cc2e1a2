"""Heat-exchange queries on a probe qubit and the analytic post-query quantities.

Three query types act on a probe at inverse temperature beta_S with gap omega:
a plain SWAP with a single machine qubit, a uniform classical mixture of such
swaps, and the level-exchange kickback V(X) which swaps the joint level
|0_S, X> with |1_S, X xor 1>. For the kickback the ground-population change is

    delta_p0(X) = (e^{-beta_S*omega - beta_M*(|G| - X.G)} - e^{-beta_M*X.G}) / (Z_S Z_f)

which for the all-ones mask (the virtual-qubit subspace swap) reduces to
(e^{-beta_S*omega} - e^{-beta_M*|G|}) / (Z_S Z_f). All exponent sums are
evaluated in log-domain and exponentiated once, in :func:`kickback_shift`,
which the detuned and Hamming-weight closed forms call too;
:meth:`QueryOutcome.from_shift` turns a shift into the post-query population
and temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .readout import BinaryDistribution
from .thermal import (
    DJProblem,
    ThermalMachineOracle,
    ThermalQubit,
    bits_to_index,
    log1pexp,
    logistic,
)

__all__ = [
    "NEUTRAL_TOLERANCE",
    "Regime",
    "QueryMask",
    "QueryOutcome",
    "SwapResult",
    "ResetCosts",
    "SensitivityReport",
    "swap_query",
    "mixed_input_query",
    "kickback_shift",
    "kickback_outcome",
    "classify_regime",
    "sensitivity_check",
    "temperature_well_defined",
    "reset_costs",
    "outcome_to_dict",
]

# Equality convention for the measure-zero boundary beta_S*omega == beta_M*|G|.
NEUTRAL_TOLERANCE = 1e-14


class Regime(Enum):
    COOLING = "cooling"
    HEATING = "heating"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class QueryMask:
    """One bit per machine qubit, selecting which excitations the exchange targets."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("mask must be nonempty")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("mask bits must be 0/1")

    @classmethod
    def all_ones(cls, n: int) -> "QueryMask":
        return cls(tuple([1] * n))

    @classmethod
    def from_string(cls, bits: str) -> "QueryMask":
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(tuple(int(c) for c in bits))

    def dot(self, gaps: Sequence[float]) -> float:
        """Masked gap sum X.G; summed with the same reduction as GapVector.total."""
        g = np.asarray(gaps, dtype=float)
        if len(self.bits) != g.size:
            raise ValueError("mask length does not match gap vector")
        b = np.asarray(self.bits, dtype=bool)
        return float(np.sum(np.where(b, g, 0.0)))

    def complement(self) -> "QueryMask":
        return QueryMask(tuple(1 - b for b in self.bits))


@dataclass(frozen=True)
class QueryOutcome:
    """Probe populations around one heat exchange; ``beta_after`` is None when
    the post-query temperature is undefined (non-positive log argument)."""

    p0_before: float
    p0_after: float
    delta_p0: float
    beta_after: float | None
    regime: Regime

    @classmethod
    def from_shift(cls, a: float, omega: float, delta: float) -> "QueryOutcome":
        """Outcome of moving ``delta`` into the ground level of a probe with
        gap ``omega`` and a = beta_S*omega."""
        p0 = logistic(a)
        p0_after = p0 + delta
        # logistic(-a) is 1 - p0 without cancellation; the log argument of the
        # post-query temperature is p0_after / (that - delta).
        excited_after = logistic(-a) - delta
        if p0_after > 0.0 and excited_after > 0.0:
            beta_after = (math.log(p0_after) - math.log(excited_after)) / omega
        else:
            beta_after = None
        if delta > 0.0:
            regime = Regime.COOLING
        elif delta < 0.0:
            regime = Regime.HEATING
        else:
            regime = Regime.NEUTRAL
        return cls(p0, p0_after, delta, beta_after, regime)


def outcome_to_dict(outcome: QueryOutcome) -> dict:
    return {
        "p0_before": outcome.p0_before,
        "p0_after": outcome.p0_after,
        "delta_p0": outcome.delta_p0,
        "beta_after": outcome.beta_after,
        "regime": outcome.regime.value,
    }


class SwapResult(NamedTuple):
    probe: ThermalQubit
    displaced: ThermalQubit


class ResetCosts(NamedTuple):
    dissipation: float
    reset_work: float


def swap_query(probe: ThermalQubit, oracle: ThermalMachineOracle, x: int | str) -> SwapResult:
    """Full SWAP between the probe and machine qubit ``x``.

    The probe walks away holding the machine qubit's thermal state (returned
    verbatim as a qubit with that gap at the machine temperature); the probe's
    old state is handed to the machine and returned for bookkeeping. Applying
    the swap twice restores both parties.
    """
    idx = bits_to_index(x) if isinstance(x, str) else x
    taken = oracle.machine_qubit(idx)
    return SwapResult(probe=taken, displaced=ThermalQubit(probe.gap, probe.inverse_temperature))


def mixed_input_query(probe: ThermalQubit, oracle: ThermalMachineOracle) -> BinaryDistribution:
    """Probe ground-population after a uniform classical mixture of swaps.

    For a constant function the mixture collapses to the single machine-qubit
    distribution; for a balanced one it averages the two.
    """
    if not isinstance(oracle.problem, DJProblem):
        raise ValueError("mixed-input query is defined for Deutsch-Jozsa oracles only")
    beta_m = oracle.machine_inverse_temperature
    p0 = float(np.mean([logistic(beta_m * g) for g in oracle.gap_vector.gaps]))
    return BinaryDistribution(p0)


def kickback_shift(
    a: float, beta_m: float, masked_sum: float, remainder: float, log_zf: float
) -> float:
    """Probe ground-population change of the kickback, from scalars only.

    (e^{-a - beta_M*remainder} - e^{-beta_M*X.G}) / (Z_S Z_f) with
    a = beta_S*omega, X.G = ``masked_sum``, remainder = |G| - X.G and
    log Z_f = ``log_zf``.
    """
    log_norm = log1pexp(-a) + log_zf
    gained = math.exp(-(a + beta_m * remainder) - log_norm)
    lost = math.exp(-beta_m * masked_sum - log_norm)
    return gained - lost


def kickback_outcome(
    probe: ThermalQubit, oracle: ThermalMachineOracle, mask: QueryMask | None = None
) -> QueryOutcome:
    """Outcome of the level-exchange kickback V(mask); default mask is all ones.

    The default is the virtual-qubit subspace swap, with X.G = |G| and no
    remainder; an explicit mask contributes X.G and |G| - X.G. An undefined
    post-query temperature is flagged, not raised.
    """
    if mask is None:
        masked_sum, remainder = oracle.gap_vector.total, 0.0
    else:
        masked_sum = mask.dot(oracle.gap_vector.gaps)
        remainder = oracle.gap_vector.total - masked_sum
    a = probe.inverse_temperature * probe.gap
    delta = kickback_shift(
        a, oracle.machine_inverse_temperature, masked_sum, remainder, oracle.log_partition_function
    )
    return QueryOutcome.from_shift(a, probe.gap, delta)


def classify_regime(probe: ThermalQubit, oracle: ThermalMachineOracle) -> Regime:
    """Cooling iff omega/T_S < |G|/T_M, heating for >, neutral on equality.

    Equality is taken with an absolute tolerance of NEUTRAL_TOLERANCE on the
    difference of the two Boltzmann exponents.
    """
    probe_exponent = probe.inverse_temperature * probe.gap
    machine_exponent = oracle.machine_inverse_temperature * oracle.gap_vector.total
    if abs(probe_exponent - machine_exponent) <= NEUTRAL_TOLERANCE:
        return Regime.NEUTRAL
    return Regime.COOLING if probe_exponent < machine_exponent else Regime.HEATING


@dataclass(frozen=True)
class SensitivityReport:
    """Direct sensitivity test |delta_p0| > c and the equivalent closed-form log bound.

    ``closed_form_precondition`` records when the closed form's argument is in
    the range where its right-hand side is a meaningful positive bound
    (cooling: c*Z_S*Z_f + e^{-beta_M|G|} <= 1; heating: the log argument is
    positive). The two tests agree wherever the precondition holds.
    """

    satisfied: bool
    delta_p0: float
    threshold: float
    regime: Regime
    closed_form_satisfied: bool
    closed_form_precondition: bool
    tests_agree: bool


def sensitivity_check(
    probe: ThermalQubit, oracle: ThermalMachineOracle, c: float
) -> SensitivityReport:
    outcome = kickback_outcome(probe, oracle)
    if not 0.0 < c < 1.0 - outcome.p0_before:
        raise ValueError(f"threshold c={c} must lie in (0, 1 - p0) = (0, {1.0 - outcome.p0_before})")
    direct = abs(outcome.delta_p0) > c
    a = probe.inverse_temperature * probe.gap
    b = oracle.machine_inverse_temperature * oracle.gap_vector.total
    scaled_threshold = c * math.exp(log1pexp(-a) + oracle.log_partition_function)
    if outcome.delta_p0 > 0.0:
        arg = scaled_threshold + math.exp(-b)
        closed = a < -math.log(arg)
        precondition = arg <= 1.0
    elif outcome.delta_p0 < 0.0:
        arg = math.exp(-b) - scaled_threshold
        precondition = arg > 0.0
        closed = precondition and a > -math.log(arg)
    else:
        closed = False
        precondition = True
    return SensitivityReport(
        satisfied=direct,
        delta_p0=outcome.delta_p0,
        threshold=c,
        regime=outcome.regime,
        closed_form_satisfied=closed,
        closed_form_precondition=precondition,
        tests_agree=direct == closed,
    )


def temperature_well_defined(outcome: QueryOutcome, probe: ThermalQubit) -> bool:
    """Whether the post-query state admits a temperature at the probe gap.

    Cooling needs e^{-beta_S*omega} > Z_S*delta_p0; heating needs
    1 + Z_S*delta_p0 > 0 (always true in this model). Equivalent to the
    log argument of the post-query inverse temperature being positive.
    """
    a = probe.inverse_temperature * probe.gap
    scaled_delta = (1.0 + math.exp(-a)) * outcome.delta_p0
    if outcome.delta_p0 > 0.0:
        return math.exp(-a) > scaled_delta
    if outcome.delta_p0 < 0.0:
        return 1.0 + scaled_delta > 0.0
    return True


def reset_costs(
    outcome: QueryOutcome, oracle: ThermalMachineOracle, probe: ThermalQubit
) -> ResetCosts:
    """Energy to rethermalize the machine (delta_p0*|G|) and to re-bias the probe (delta_p0*omega)."""
    return ResetCosts(
        dissipation=outcome.delta_p0 * oracle.gap_vector.total,
        reset_work=outcome.delta_p0 * probe.gap,
    )
