"""High-precision references for the benchmark's correctness checks.

Everything here is computed with mpmath at 50 significant digits from the
paper's closed forms, written out again from the formulas rather than taken
from thermoquery, so that agreement with the program means something. The
module imports neither thermoquery nor numpy.

Machines are described by gap multiplicities: a list of (gap, count) pairs
for the whole machine and the same for the masked part, so a reference costs
O(number of distinct gaps), not O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

mp.mp.dps = 50

# Absolute tolerance on populations (p0, p0', marginals, energies).
POPULATION_TOL = 1e-12
# Relative tolerance on delta_p0, taken against the larger of the two
# exchanged populations: delta_p0 is their difference, so its own relative
# error is unbounded near the cooling/heating boundary.
DELTA_RTOL = 1e-10
# Below this a double cannot carry a population difference; such values are
# compared absolutely.
DELTA_ATOL = 1e-300
# Absolute tolerance on inverse temperatures (beta', eta-scaled beta').
BETA_TOL = 1e-9
# Smallest positive normal double: a reference population below it has no
# faithful double representation, which is where the known underflow lives.
SMALLEST_NORMAL = 2.2250738585072014e-308


def _log1pexp(x):
    return mp.log1p(mp.exp(x))


def log_partition(beta_m, gap_counts):
    """log Z_f = sum over qubits of log(1 + e^{-beta_M g})."""
    beta_m = mp.mpf(beta_m)
    return mp.fsum(count * _log1pexp(-beta_m * mp.mpf(g)) for g, count in gap_counts)


def gap_sum(gap_counts):
    return mp.fsum(mp.mpf(g) * count for g, count in gap_counts)


def logistic(x):
    return 1 / (1 + mp.exp(-mp.mpf(x)))


@dataclass(frozen=True)
class Kickback:
    """Reference values of one level-exchange kickback V(X)."""

    p0: object
    gained: object  # population of |1_S, X xor 1>, moved into the ground state
    lost: object  # population of |0_S, X>, moved out of it
    delta: object
    p0_after: object
    excited_after: object  # 1 - p0', computed without cancellation
    beta_after: object  # None when the post-query temperature is undefined
    sign: int  # sign of beta_M (2 X.G - |G|) - beta_S omega
    omega: object
    beta_s: object

    @property
    def scale(self):
        """The larger exchanged population, the scale of delta_p0's error."""
        return max(self.gained, self.lost)

    @property
    def underflows(self) -> bool:
        """Whether a double cannot hold the exchanged or the excited populations."""
        return self.scale < SMALLEST_NORMAL or self.excited_after < SMALLEST_NORMAL

    def eta_beta(self, eta):
        """beta' with the population transfer scaled by eta (the detuned closed form)."""
        a = self.omega * self.beta_s
        shift = self.delta * (1 + mp.exp(-a))
        numerator = 1 + eta * shift
        denominator = mp.exp(-a) - eta * shift
        if numerator <= 0 or denominator <= 0:
            return None
        return (mp.log(numerator) - mp.log(denominator)) / self.omega


def kickback(omega, beta_s, beta_m, gap_counts, masked_counts=None) -> Kickback:
    """Closed-form kickback on a machine given by gap multiplicities.

    ``masked_counts`` lists the gaps under the mask; None means the all-ones
    mask. delta_p0 = (e^{-beta_S omega - beta_M (|G| - X.G)} - e^{-beta_M X.G}) / (Z_S Z_f).
    """
    omega, beta_s, beta_m = mp.mpf(omega), mp.mpf(beta_s), mp.mpf(beta_m)
    total = gap_sum(gap_counts)
    masked = total if masked_counts is None else gap_sum(masked_counts)
    log_zf = log_partition(beta_m, gap_counts)
    a = beta_s * omega
    log_norm = _log1pexp(-a) + log_zf
    gained = mp.exp(-(a + beta_m * (total - masked)) - log_norm)
    lost = mp.exp(-beta_m * masked - log_norm)
    delta = gained - lost
    p0 = logistic(a)
    p0_after = p0 + delta
    # Taken as 1 - p0', the excited population would cancel to nothing at 50
    # digits once beta_S omega exceeds about 115.
    excited_after = logistic(-a) - delta
    beta_after = None
    if p0_after > 0 and excited_after > 0:
        beta_after = (mp.log(p0_after) - mp.log(excited_after)) / omega
    quantity = beta_m * (2 * masked - total) - a
    sign = 1 if quantity > 0 else (-1 if quantity < 0 else 0)
    return Kickback(p0, gained, lost, delta, p0_after, excited_after, beta_after, sign, omega, beta_s)


# --- comparisons -----------------------------------------------------------


def population_ok(value, reference, tol: float = POPULATION_TOL) -> bool:
    """Absolute comparison; a missing or non-finite value never matches."""
    if value is None or not math.isfinite(value):
        return False
    return abs(mp.mpf(value) - reference) <= tol


def relative_ok(value, reference, scale, rtol: float = DELTA_RTOL) -> bool:
    """|value - reference| within rtol of ``scale``, the larger of two cancelling terms."""
    if value is None or not math.isfinite(value):
        return False
    return abs(mp.mpf(value) - reference) <= rtol * scale + DELTA_ATOL


def delta_ok(value, kickback: Kickback) -> bool:
    return relative_ok(value, kickback.delta, kickback.scale)


def beta_ok(value, reference, tol: float = BETA_TOL) -> bool:
    """An inverse temperature matches when both are undefined or both agree to ``tol``."""
    if reference is None or value is None:
        return reference is None and value is None
    return population_ok(value, reference, tol)


def regime_ok(label: str, sign: int) -> bool:
    return label == {1: "cooling", -1: "heating", 0: "neutral"}[sign]


# --- statistics and sample counts -----------------------------------------


def pinsker_samples(delta: float, t: float) -> int:
    """n* = ceil(ln(1/delta) / (2 t^2)) from the exact binary values of delta and t."""
    return int(mp.ceil(mp.log(1 / mp.mpf(delta)) / (2 * mp.mpf(t) ** 2)))


def classical_samples(delta: float) -> int:
    """k = ceil(log2(1/delta) + 1)."""
    return int(mp.ceil(mp.log(1 / mp.mpf(delta), 2) + 1))


def chernoff_stein(delta: float, divergence: float) -> int:
    return int(mp.ceil(mp.log(1 / mp.mpf(delta)) / mp.mpf(divergence)))


def crossover_size(n_star: int) -> int:
    """Smallest n >= 1 whose deterministic classical count 2^(n-1) + 1 exceeds n*."""
    n = 1
    while (1 << (n - 1)) + 1 <= n_star:
        n += 1
    return n


def lr_error_probability(n: int, truth_p1: float, bal_p0: float, const_p0: float, truth_is_constant: bool):
    """Exact error probability of the likelihood-ratio rule on n samples.

    The rule decides BALANCED when n0 ln P_bal(0) + n1 ln P_bal(1) >=
    n0 ln P_const(0) + n1 ln P_const(1), ties going to BALANCED. The error is
    a BALANCED decision when the truth is constant, and a CONSTANT decision
    when it is balanced. Returns (low, high): counts whose decision is a tie
    to within 1e-9 are ambiguous in double precision, and their binomial
    mass is left out of ``low`` and put into ``high``.
    """
    # The complements are taken in double precision, as the program takes them.
    pb0, pb1 = mp.mpf(bal_p0), mp.mpf(1.0 - bal_p0)
    pc0, pc1 = mp.mpf(const_p0), mp.mpf(1.0 - const_p0)
    q1 = mp.mpf(truth_p1)
    q0 = 1 - q1
    low = high = mp.mpf(0)
    for n1 in range(n + 1):
        n0 = n - n1
        margin = _loglik(n0, n1, pb0, pb1) - _loglik(n0, n1, pc0, pc1)
        mass = mp.binomial(n, n1) * q1**n1 * q0**n0
        ambiguous = abs(margin) <= mp.mpf("1e-9") * (1 + abs(_loglik(n0, n1, pb0, pb1)))
        balanced = margin >= 0
        error = balanced if truth_is_constant else not balanced
        if ambiguous:
            high += mass
        elif error:
            low += mass
            high += mass
    return float(low), float(high)


def _loglik(n0, n1, p0, p1):
    total = mp.mpf(0)
    for count, prob in ((n0, p0), (n1, p1)):
        if count == 0:
            continue
        if prob == 0:
            return -mp.inf
        total += count * mp.log(prob)
    return total


def binomial_band_ok(observed_rate: float, trials: int, low: float, high: float) -> bool:
    """Whether an observed error count lies within 6 sigma + 6 counts of its exact mean.

    The band |k - T p| <= 6 sqrt(T p (1 - p)) + 6 is stated on the count k;
    the additive 6 keeps it honest when T p is small and the count Poisson-like.
    """
    count = observed_rate * trials
    for p in (low, high):
        width = 6.0 * math.sqrt(trials * p * (1.0 - p)) + 6.0
        if abs(count - trials * p) <= width:
            return True
    return low <= count / trials <= high
