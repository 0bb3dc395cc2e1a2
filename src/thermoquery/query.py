"""Heat-exchange queries on a probe qubit and the analytic post-query quantities.

Three query types act on a probe at inverse temperature beta_S with gap omega:
a plain SWAP with a single machine qubit, a uniform classical mixture of such
swaps, and the level-exchange kickback V(X) which swaps the joint level
|0_S, X> with |1_S, X xor 1>. For the kickback the ground-population change is

    delta_p0(X) = (e^{-beta_S*omega - beta_M*(|G| - X.G)} - e^{-beta_M*X.G}) / (Z_S Z_f)

which for the all-ones mask (the virtual-qubit subspace swap) reduces to
(e^{-beta_S*omega} - e^{-beta_M*|G|}) / (Z_S Z_f). :func:`kickback_shift`,
which the detuned and Hamming-weight closed forms call too, takes log Z_f
and the exponent sums, but exponentiates the two terms separately and
subtracts them: where they nearly cancel the difference keeps few correct
digits, and where both underflow (700 unit gaps at beta_M = 1 and a probe
near resonance) the shift is 0.0. :func:`shift_outcome` turns a shift into
the post-query population and temperature.

The arithmetic is written once, over numpy arrays: :func:`kickback_shift`,
:func:`shift_outcome`, :func:`regime_sign`, :func:`sensitivity_bound` and
:func:`temperature_defined` take floats or arrays that broadcast together,
and an undefined temperature is NaN; :func:`oracle_shift` evaluates one
oracle for an array of probe temperatures. The functions on probe and oracle
objects (:func:`kickback_outcome`, :func:`classify_regime`,
:func:`sensitivity_check`) read scalars off the objects, call them, and
convert the result to ``float``, ``None``, ``bool`` and :class:`Regime`; a
probe has a post-query temperature exactly where ``beta_after`` is not None.
The verify suite and the figure sweeps call the array functions on whole
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .readout import BinaryDistribution
from .thermal import (
    ThermalMachineOracle,
    ThermalQubit,
    logistic,
    only_zeros_and_ones,
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
    "oracle_shift",
    "shift_outcome",
    "regime_sign",
    "sensitivity_bound",
    "temperature_defined",
    "kickback_outcome",
    "classify_regime",
    "sensitivity_check",
    "reset_costs",
]

# Equality convention for the measure-zero boundary beta_S*omega == beta_M*|G|.
NEUTRAL_TOLERANCE = 1e-14

# Indexed by a condition: NaN where it is false, 0.0 where it is true. Adding
# it before a log marks a non-positive argument as NaN without a floating-point
# warning; indexing costs less than np.where on the scalars of a single query.
_NAN_UNLESS = np.array([np.nan, 0.0])


class Regime(Enum):
    COOLING = "cooling"
    HEATING = "heating"
    NEUTRAL = "neutral"

    @classmethod
    def from_sign(cls, sign: float) -> "Regime":
        """Cooling for a positive sign (a gain in ground population), heating for a negative one."""
        if sign > 0.0:
            return cls.COOLING
        if sign < 0.0:
            return cls.HEATING
        return cls.NEUTRAL


@dataclass(frozen=True, slots=True)
class QueryMask:
    """One bit per machine qubit, selecting which excitations the exchange targets."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("mask must be nonempty")
        if not only_zeros_and_ones(self.bits):
            raise ValueError("mask bits must be 0/1")

    @classmethod
    def all_ones(cls, n: int) -> "QueryMask":
        return cls(tuple([1] * n))

    def dot(self, gaps: Sequence[float]) -> float:
        """Masked gap sum X.G; summed with the same reduction as GapVector.total."""
        g = np.asarray(gaps, dtype=float)
        if len(self.bits) != g.size:
            raise ValueError("mask length does not match gap vector")
        b = np.asarray(self.bits, dtype=bool)
        return float(np.add.reduce(np.where(b, g, 0.0)))


@dataclass(frozen=True, slots=True)
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
        p0, p0_after, beta_after = shift_outcome(a, omega, delta)
        delta, beta_after = float(delta), float(beta_after)
        return cls(
            float(p0),
            float(p0_after),
            delta,
            None if math.isnan(beta_after) else beta_after,
            Regime.from_sign(delta),
        )


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
    return SwapResult(probe=oracle.machine_qubit(x), displaced=ThermalQubit(probe.gap, probe.inverse_temperature))


def mixed_input_query(probe: ThermalQubit, oracle: ThermalMachineOracle) -> BinaryDistribution:
    """Probe ground-population after a uniform classical mixture of swaps.

    Defined for any oracle whose every machine qubit is a thermal qubit,
    that is, has a positive gap: each swap in the mixture takes one. A zero
    gap is refused as :meth:`ThermalMachineOracle.machine_qubit` refuses it.
    For a constant Deutsch-Jozsa function the mixture collapses to the single
    machine-qubit distribution; for a balanced one it averages the two.
    """
    gaps = oracle.gap_vector.gaps
    if 0.0 in gaps:
        oracle.machine_qubit(gaps.index(0.0))  # raises: a zero gap is no thermal qubit
    beta_m = oracle.machine_inverse_temperature
    p0 = float(np.mean([logistic(beta_m * g) for g in gaps]))
    return BinaryDistribution(p0)


def kickback_shift(a, beta_m, masked_sum, remainder, log_zf):
    """Probe ground-population change of the kickback, from floats or arrays.

    (e^{-a - beta_M*remainder} - e^{-beta_M*X.G}) / (Z_S Z_f) with
    a = beta_S*omega, X.G = ``masked_sum``, remainder = |G| - X.G and
    log Z_f = ``log_zf``. A product beta_M*X.G or beta_M*remainder that
    overflows to inf gives e^{-inf} = 0 as meant, with no warning for floats
    and arrays alike.
    """
    log_norm = np.logaddexp(0.0, -a) + log_zf
    with np.errstate(over="ignore"):
        gained = np.exp(-(a + beta_m * remainder) - log_norm)
        lost = np.exp(-beta_m * masked_sum - log_norm)
    return gained - lost


def shift_outcome(a, omega, delta):
    """(p0, p0', beta') of a probe with a = beta_S*omega and gap ``omega``
    after ``delta`` moves into its ground level; floats or arrays.

    p0 = 1/Z_S and p1 = e^{-a}/Z_S, and beta' = (log p0' - log p1')/omega is
    NaN where p0' or p1' = p1 - delta is not positive.
    """
    log_zs = np.logaddexp(0.0, -a)
    p0 = np.exp(-log_zs)
    p0_after = p0 + delta
    excited_after = np.exp(-a - log_zs) - delta
    defined = (p0_after > 0.0) & (excited_after > 0.0)
    undefined = _NAN_UNLESS[defined.astype(np.intp)]
    beta_after = (np.log(p0_after + undefined) - np.log(excited_after + undefined)) / omega
    return p0, p0_after, beta_after


def regime_sign(a, b):
    """+1 (cooling) where a = beta_S*omega < b = beta_M*|G|, -1 (heating) where
    a > b, 0 where they differ by at most NEUTRAL_TOLERANCE; floats or arrays."""
    difference = b - a
    return np.sign(difference) * (np.abs(difference) > NEUTRAL_TOLERANCE)


def sensitivity_bound(a, b, log_zf, c, delta):
    """Closed-form log test of |delta_p0| > c and whether its precondition
    holds, as two boolean arrays (or numpy bools for floats).

    a = beta_S*omega, b = beta_M*|G|; the sign of ``delta`` picks the cooling
    (a < -log(c Z_S Z_f + e^{-b})) or heating (a > -log(e^{-b} - c Z_S Z_f))
    form; at delta = 0 the test fails and its precondition holds.
    """
    scaled_threshold = c * np.exp(np.logaddexp(0.0, -a) + log_zf)
    boltzmann = np.exp(-b)
    # numpy comparisons, so that ~ is a logical not for a float delta too.
    cooling, heating = np.greater(delta, 0.0), np.less(delta, 0.0)
    arg = np.where(cooling, scaled_threshold + boltzmann, boltzmann - scaled_threshold)
    positive = arg > 0.0
    log_arg = np.log(arg + _NAN_UNLESS[positive.astype(np.intp)])
    closed = np.where(cooling, a < -log_arg, heating & (a > -log_arg))
    precondition = np.where(cooling, arg <= 1.0, ~heating | positive)
    return closed, precondition


def temperature_defined(a, delta):
    """Whether a probe with a = beta_S*omega has a temperature after the
    shift ``delta``: e^{-a} > Z_S*delta when delta >= 0, 1 + Z_S*delta > 0
    otherwise; floats or arrays."""
    boltzmann = np.exp(-a)
    scaled_delta = (1.0 + boltzmann) * delta
    return np.where(delta >= 0.0, boltzmann > scaled_delta, 1.0 + scaled_delta > 0.0)


def oracle_shift(
    oracle: ThermalMachineOracle, omega, beta_s, mask: QueryMask | None = None
):
    """Kickback shift delta_p0 of ``oracle`` under V(mask) for probes of gap
    ``omega`` at inverse temperatures ``beta_s``, floats or arrays.

    The default mask is all ones, with X.G = |G| and no remainder; an
    explicit mask contributes X.G and |G| - X.G.
    """
    if mask is None:
        masked_sum, remainder = oracle.gap_vector.total, 0.0
    else:
        masked_sum = mask.dot(oracle.gap_vector.gaps)
        remainder = oracle.gap_vector.total - masked_sum
    return kickback_shift(
        beta_s * omega,
        oracle.machine_inverse_temperature,
        masked_sum,
        remainder,
        oracle.log_partition_function,
    )


def kickback_outcome(
    probe: ThermalQubit, oracle: ThermalMachineOracle, mask: QueryMask | None = None
) -> QueryOutcome:
    """Outcome of the level-exchange kickback V(mask); default mask is all ones
    (the virtual-qubit subspace swap). An undefined post-query temperature is
    flagged, not raised.
    """
    delta = oracle_shift(oracle, probe.gap, probe.inverse_temperature, mask)
    return QueryOutcome.from_shift(probe.inverse_temperature * probe.gap, probe.gap, delta)


def classify_regime(probe: ThermalQubit, oracle: ThermalMachineOracle) -> Regime:
    """Cooling iff omega/T_S < |G|/T_M, heating for >, neutral on equality.

    Equality is taken with an absolute tolerance of NEUTRAL_TOLERANCE on the
    difference of the two Boltzmann exponents.
    """
    sign = regime_sign(
        probe.inverse_temperature * probe.gap,
        oracle.machine_inverse_temperature * oracle.gap_vector.total,
    )
    return Regime.from_sign(sign)


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
    closed, precondition = sensitivity_bound(
        probe.inverse_temperature * probe.gap,
        oracle.machine_inverse_temperature * oracle.gap_vector.total,
        oracle.log_partition_function,
        c,
        outcome.delta_p0,
    )
    closed, precondition = bool(closed), bool(precondition)
    return SensitivityReport(
        satisfied=direct,
        delta_p0=outcome.delta_p0,
        threshold=c,
        regime=outcome.regime,
        closed_form_satisfied=closed,
        closed_form_precondition=precondition,
        tests_agree=direct == closed,
    )


def reset_costs(
    outcome: QueryOutcome, oracle: ThermalMachineOracle, probe: ThermalQubit
) -> ResetCosts:
    """Energy to rethermalize the machine (delta_p0*|G|) and to re-bias the probe (delta_p0*omega)."""
    return ResetCosts(
        dissipation=outcome.delta_p0 * oracle.gap_vector.total,
        reset_work=outcome.delta_p0 * probe.gap,
    )
