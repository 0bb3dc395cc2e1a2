"""Statistical readout layer: divergences, sample-complexity bounds, and hypothesis tests.

The probe measurement statistics are binary distributions over the energy
basis, so everything here is classical binary hypothesis testing. Divergences
are in nats; only :func:`classical_sample_complexity` uses log2, matching the
base its closed form is usually quoted in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .thermal import two_gap_machine

__all__ = [
    "BinaryDistribution",
    "Decision",
    "HypothesisTestReport",
    "DistinguishabilityReport",
    "CrossoverRow",
    "relative_entropy",
    "total_variation",
    "chernoff_stein_samples",
    "sample_bound_from_threshold",
    "distinguishability_report",
    "likelihood_ratio_test",
    "monte_carlo_readout",
    "classical_with_replacement_error",
    "classical_without_replacement_error",
    "classical_sample_complexity",
    "deterministic_classical_queries",
    "crossover_analysis",
]

# Cap on the trials one Monte Carlo block draws: 2^14 counts, 128 KiB.
_BLOCK_TRIALS = 2**14


@dataclass(frozen=True)
class BinaryDistribution:
    """Distribution over a qubit energy measurement: ``p0`` ground, ``1 - p0`` excited."""

    p0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must lie in [0, 1], got {self.p0}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0


class Decision(Enum):
    BALANCED = "balanced"
    CONSTANT = "constant"


def _kl_term(p: float, q: float) -> float:
    if p == 0.0:
        return 0.0
    if q == 0.0:
        return math.inf
    return p * math.log(p / q)


def relative_entropy(p: BinaryDistribution, q: BinaryDistribution) -> float:
    """KL divergence D(p||q) in nats; infinite when q lacks support where p has mass."""
    divergence = _kl_term(p.p0, q.p0) + _kl_term(p.p1, q.p1)
    # Gibbs' inequality makes D >= 0, so a negative sum is the two terms
    # cancelling in rounding for nearly equal distributions.
    return 0.0 if divergence < 0.0 else divergence


def total_variation(p: BinaryDistribution, q: BinaryDistribution) -> float:
    """Total variation distance; on two outcomes this is just |p0 - q0|."""
    return abs(p.p0 - q.p0)


def chernoff_stein_samples(delta: float, divergence: float) -> int | float:
    """Sample lower bound ceil(log(1/delta)/divergence) for error rate ``delta``.

    Returns ``math.inf`` when the divergence is zero (the hypotheses are
    indistinguishable and no sample count suffices) and 1 when it is infinite
    (one sample can rule a hypothesis out, but none decides nothing). A
    positive divergence so small that the quotient is not a finite float
    raises a ValueError naming it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if math.isnan(divergence):
        raise ValueError("divergence must not be NaN")
    if divergence < 0.0:
        raise ValueError("divergence must be >= 0")
    if divergence == 0.0:
        return math.inf
    if divergence == math.inf:
        return 1
    return _sample_bound(delta, divergence, "divergence", divergence)


def _sample_bound(delta: float, divergence: float, name: str, value: float) -> int:
    # ceil(log(1/delta)/divergence), where a quotient that is not a finite
    # float (a divergence that underflowed to 0 included) names ``name``.
    bound = math.log(1.0 / delta) / divergence if divergence else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"{name} {value} with delta {delta} gives a sample bound that is not a finite float")
    return math.ceil(bound)


def sample_bound_from_threshold(delta: float, t: float) -> int:
    """Problem-size-independent sample bound ceil(log(1/delta) / (2 t^2)).

    ``t`` is the population-distinguishability threshold; a qubit probe
    supports t up to 0.5, which is the enforced range.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < t <= 0.5:
        raise ValueError("t must lie in (0, 0.5]")
    # Chernoff-Stein with the divergence replaced by its Pinsker lower bound 2 t^2.
    return _sample_bound(delta, 2.0 * t * t, "t", t)


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Machine ground-population gap between the constant and balanced oracles.

    ``lhs`` is 1/Z_const - 1/Z_balanced; the threshold ``t`` on probe
    populations is reachable only if lhs > 2 t. ``chi`` is the exponentially
    suppressed cross term dropped from that condition; it is reported, never
    silently absorbed. A report of array input holds ``lhs``, ``chi`` and
    ``satisfied`` as lists with one entry per cell of the broadcast shape
    (nested lists for more than one axis); ``t_threshold`` is ``t`` as given.
    """

    t_threshold: float
    lhs: float
    chi: float
    satisfied: bool


def distinguishability_report(e1, e2, beta_m: float, n_machine, t: float) -> DistinguishabilityReport:
    """Evaluate the distinguishability condition for machines of ``n_machine`` qubits.

    ``e1``, ``e2`` and ``n_machine`` are floats or arrays that broadcast. The
    constant machine is ``two_gap_machine(n, n, e1, e2, beta_m)`` and the
    balanced one ``two_gap_machine(n // 2, n, e1, e2, beta_m)``. Requires
    finite inputs, e1 >= e2 > 0 (the sign of the condition is derived under
    that ordering; the degenerate case e1 == e2 gives lhs exactly 0) and even
    machine sizes so that balanced functions exist. A chi past the float
    range in any cell is a ValueError for the whole call.
    """
    if np.any((n_machine < 2) | (n_machine % 2 != 0)):
        raise ValueError("machine size must be even and >= 2")
    for name, value in (("e1", e1), ("e2", e2), ("beta_m", beta_m), ("t", t)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if not (np.all(e2 > 0.0) and np.all(e1 > 0.0)):
        raise ValueError("gaps must be positive")
    if np.any(e1 < e2):
        raise ValueError("requires e1 >= e2; swap the gaps")
    if not t > 0.0:
        raise ValueError("t must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        gamma_const, log_z_const = two_gap_machine(n_machine, n_machine, e1, e2, beta_m)
        gamma_bal, log_z_bal = two_gap_machine(n_machine // 2, n_machine, e1, e2, beta_m)
        chi = np.exp(log_z_const - beta_m * gamma_bal) - np.exp(log_z_bal - beta_m * gamma_const)
    if not np.all(np.isfinite(chi)):
        raise ValueError(f"chi overflows a double at beta_m = {beta_m}")
    lhs = np.exp(-log_z_const) - np.exp(-log_z_bal)
    return DistinguishabilityReport(t, lhs.tolist(), chi.tolist(), (lhs > 2.0 * t).tolist())


def _log_likelihood(n0, n1, hypothesis: BinaryDistribution):
    """Log-likelihood of ``n0`` ground and ``n1`` excited outcomes; counts may be arrays.

    A zero count adds nothing and a positive count on a zero probability
    gives -inf, so no 0 * log(0) is ever formed.
    """
    total = 0.0
    for count, prob in ((n0, hypothesis.p0), (n1, hypothesis.p1)):
        if prob == 0.0:
            total = total + np.where(count > 0, -math.inf, 0.0)
        else:
            total = total + count * math.log(prob)
    return total


def _prefers_balanced(n0, n1, hyp_balanced: BinaryDistribution, hyp_constant: BinaryDistribution):
    """The likelihood-ratio rule on outcome counts (arrays allowed); ties go to BALANCED."""
    return _log_likelihood(n0, n1, hyp_balanced) >= _log_likelihood(n0, n1, hyp_constant)


def likelihood_ratio_test(
    samples: Sequence[int] | np.ndarray,
    hyp_balanced: BinaryDistribution,
    hyp_constant: BinaryDistribution,
) -> Decision:
    """Decide between the two hypotheses by comparing product likelihoods.

    Samples are energy outcomes (0 = ground, 1 = excited; booleans are
    accepted) and any other value is rejected. Ties go to BALANCED,
    deterministically.
    """
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    n0 = int(np.count_nonzero(arr == 0))
    n1 = int(np.count_nonzero(arr == 1))
    if n0 + n1 != arr.size:
        raise ValueError("samples must be 0 (ground) or 1 (excited)")
    balanced = _prefers_balanced(n0, n1, hyp_balanced, hyp_constant)
    return Decision.BALANCED if balanced else Decision.CONSTANT


@dataclass(frozen=True)
class HypothesisTestReport:
    """Summary of a Monte Carlo likelihood-ratio experiment.

    ``empirical_false_positive`` is the observed error rate of the hypothesis
    matching the sampling distribution: the fraction of BALANCED decisions
    when the truth is the constant hypothesis, and the fraction of CONSTANT
    decisions when the truth is the balanced one. When the sampling
    distribution matches neither hypothesis the fraction of BALANCED
    decisions is reported.
    """

    n_samples: int
    trials: int
    decision: Decision
    divergence: float
    pinsker_lower: float
    chernoff_stein_bound: int | float
    empirical_false_positive: float
    seed: int


def monte_carlo_readout(
    true_dist: BinaryDistribution,
    hyp_balanced: BinaryDistribution,
    hyp_constant: BinaryDistribution,
    n_samples: int,
    trials: int,
    seed: int,
    delta: float = 0.1,
) -> HypothesisTestReport:
    """Repeat sampling + likelihood-ratio testing; deterministic under a fixed seed.

    The likelihood-ratio rule reads only a trial's count of excited
    outcomes, so each trial draws that count, ``rng.binomial(n_samples, p1)``,
    and not its samples: a readout costs O(trials) at any ``n_samples`` up
    to 2^63 - 1. Counts are drawn in blocks of at most ``_BLOCK_TRIALS``,
    the same sequence as one ``rng.binomial`` call for all trials.

    ``delta`` only parameterizes the Chernoff-Stein bound echoed in the
    report; it does not affect the decisions.
    """
    for name, value in (("n_samples", n_samples), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if n_samples > 2**63 - 1:
        raise ValueError(f"n_samples must be at most 2**63 - 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    balanced_decisions = 0
    for start in range(0, trials, _BLOCK_TRIALS):
        n1 = rng.binomial(n_samples, true_dist.p1, min(_BLOCK_TRIALS, trials - start))
        balanced = _prefers_balanced(n_samples - n1, n1, hyp_balanced, hyp_constant)
        balanced_decisions += int(np.count_nonzero(balanced))
    error_rate = balanced_decisions / trials
    if true_dist.p0 == hyp_balanced.p0 != hyp_constant.p0:
        error_rate = 1.0 - error_rate
    divergence = relative_entropy(hyp_balanced, hyp_constant)
    tv = total_variation(hyp_balanced, hyp_constant)
    return HypothesisTestReport(
        n_samples=n_samples,
        trials=trials,
        decision=Decision.BALANCED if 2 * balanced_decisions >= trials else Decision.CONSTANT,
        divergence=divergence,
        pinsker_lower=2.0 * tv * tv,
        chernoff_stein_bound=chernoff_stein_samples(delta, divergence),
        empirical_false_positive=error_rate,
        seed=seed,
    )


def classical_with_replacement_error(k: int) -> float:
    """False-positive rate 2^{-(k-1)} of uniform sampling with replacement."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2.0 ** (-(k - 1))


def classical_without_replacement_error(n: int, k: int) -> float:
    """False-positive rate 2*C(2^{n-1}, k)/C(2^n, k) of sampling without replacement.

    Exact integer arithmetic for n <= 20, log-gamma beyond that.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= k <= (1 << n):
        raise ValueError(f"k must lie in [1, 2^{n}]")
    half = 1 << (n - 1)
    if k > half:
        return 0.0
    if n <= 20:
        return 2 * math.comb(half, k) / math.comb(1 << n, k)
    log_ratio = _log_comb(half, k) - _log_comb(1 << n, k)
    return math.exp(math.log(2.0) + log_ratio)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def classical_sample_complexity(delta: float) -> int:
    """Samples k = ceil(log2(1/delta) + 1) for the with-replacement strategy."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(math.log2(1.0 / delta) + 1.0)


def deterministic_classical_queries(n: int) -> int:
    """Worst-case query count 2^{n-1} + 1 of the deterministic classical solver."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << (n - 1)) + 1


class CrossoverRow(NamedTuple):
    delta: float
    t: float
    n_star: int
    k_classical: int
    n_crossover: int
    thermal_beats_probabilistic: bool


def crossover_analysis(delta_grid: Iterable[float], t_grid: Iterable[float]) -> tuple[CrossoverRow, ...]:
    """Compare the thermal sample bound with classical baselines over a (delta, t) grid.

    Per cell: the Pinsker-weakened thermal bound n*, the classical
    probabilistic count k, the smallest problem size where n* beats the
    deterministic classical query count, and whether n* < k. The grid may
    probe t beyond the qubit-achievable 0.5 to locate the asymptotic
    crossover, so the bound formula is evaluated directly here.
    """
    deltas = sorted(set(float(d) for d in delta_grid))
    ts = sorted(set(float(t) for t in t_grid))
    if not deltas or not ts:
        raise ValueError("grids must be nonempty")
    if any(not 0.0 < d < 1.0 for d in deltas):
        raise ValueError("delta values must lie in (0, 1)")
    if any(not 0.0 < t < 1.0 for t in ts):
        raise ValueError("t values must lie in (0, 1)")
    rows = []
    for delta in deltas:
        k = classical_sample_complexity(delta)
        for t in ts:
            n_star = _sample_bound(delta, 2.0 * t * t, "t", t)
            rows.append(
                CrossoverRow(
                    delta=delta,
                    t=t,
                    n_star=n_star,
                    k_classical=k,
                    # The smallest n with 2^(n-1) + 1 > n*.
                    n_crossover=(n_star - 1).bit_length() + 1,
                    thermal_beats_probabilistic=n_star < k,
                )
            )
    return tuple(rows)
