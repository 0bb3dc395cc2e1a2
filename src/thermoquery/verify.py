"""Cross-check suite: every analytic formula against the exact diagonal simulator.

Parameter tuples are drawn from documented ranges chosen so that the 1e-12
comparisons are honestly attainable in double precision: post-query
populations stay away from 0 and 1, where the log amplification of rounding
error would exceed the tolerance.

Random Deutsch-Jozsa tables come from the promise law: a uniform table
conditioned on being constant or balanced (:func:`_promise_ones`). At table
size s each constant table has weight 1 and the balanced class C(s, s/2), so
no table is ever drawn and rejected.

A seed fixes the cases whatever the evaluation. The Deutsch-Jozsa,
general-mask and Hamming-weight sections draw tuples one scalar draw after
another and evaluate them as arrays. The regime section draws each block of
tuples in three bulk calls (:func:`_regime_draws`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import exactsim
from .detuning import detuned_probe_temperature, flip_probability, suppression_factor
from .problems import (
    BVInstance,
    constant_functions,
    enumerate_balanced_functions,
    hamming_weight_population,
)
from .query import (
    QueryMask,
    Regime,
    kickback_outcome,
    kickback_shift,
    mixed_input_query,
    regime_sign,
    reset_costs,
    sensitivity_bound,
    shift_outcome,
    swap_query,
    temperature_defined,
)
from .thermal import (
    BooleanFunctionTable,
    ThermalQubit,
    build_bv_oracle,
    build_dj_oracle,
    population_inverse_temperature,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification", "PARAMETER_RANGES"]

# Tuples evaluated together in the Deutsch-Jozsa and the regime sections.
_BLOCK_ROWS = 512

# Sampling ranges for randomized tuples (omega, beta_S, beta_M, gaps).
PARAMETER_RANGES = {
    "omega": (0.25, 2.0),
    "beta_s": (-1.2, 1.2),
    "beta_m": (0.1, 1.5),
    "gap": (0.2, 2.0),
    "gamma": (0.2, 1.5),
}


@dataclass
class CheckResult:
    name: str
    cases: int
    max_error: float
    tolerance: float
    passed: bool
    first_failure: str = ""
    worst_case: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"[{status}] {self.name}: {self.cases} cases, "
            f"max error {self.max_error:.3e} (tolerance {self.tolerance:.0e})"
        )
        if not self.passed and self.first_failure:
            text += f"\n       first failure: {self.first_failure}"
        return text


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"verification {'PASSED' if self.passed else 'FAILED'} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "cases": c.cases,
                    "max_error": c.max_error,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "first_failure": c.first_failure,
                    "worst_case": c.worst_case,
                }
                for c in self.checks
            ],
        }


class _Tracker:
    """Accumulates the max error of a check and remembers the first offender
    and the case with the largest error."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.cases = 0
        self.max_error = 0.0
        self.first_failure = ""
        self.worst_case = ""

    def record(self, error: float, context: str) -> None:
        self.record_block(np.array([error]), lambda _: context)

    def record_block(self, errors: np.ndarray, context) -> None:
        """Record one case per entry of ``errors``; ``context(i)`` describes
        case i and is called only for the first failure and a new worst case.
        A NaN error fails the check and is worse than any number."""
        if errors.size == 0:
            return
        self.cases += errors.size
        worst = int(errors.argmax())  # the first NaN, if there is one
        error = float(errors[worst])
        if error > self.max_error or (math.isnan(error) and not math.isnan(self.max_error)):
            self.max_error = error
            self.worst_case = f"{context(worst)} (error {error:.3e})"
        if not error <= self.tolerance and not self.first_failure:
            first = int((~(errors <= self.tolerance)).argmax())
            self.first_failure = f"{context(first)} (error {errors[first]:.3e})"

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            cases=self.cases,
            max_error=self.max_error,
            tolerance=self.tolerance,
            passed=self.max_error <= self.tolerance,
            first_failure=self.first_failure,
            worst_case=self.worst_case,
        )


def _uniform(rng: np.random.Generator, key: str) -> float:
    low, high = PARAMETER_RANGES[key]
    return float(rng.uniform(low, high))


def _scaled(block: np.ndarray, keys: tuple[str, ...]) -> list[np.ndarray]:
    """Columns of uniform [0, 1) draws, column j scaled into PARAMETER_RANGES[keys[j]].

    ``_scaled(rng.random((T, k)), keys)`` gives, row by row, the values of
    T*k scalar ``_uniform`` calls over ``keys`` and leaves the generator in
    the same state: both scale the same doubles by low + (high - low) * u.
    """
    columns = []
    for j, key in enumerate(keys):
        low, high = PARAMETER_RANGES[key]
        columns.append(low + (high - low) * block[:, j])
    return columns


def _sample_probe(rng: np.random.Generator) -> ThermalQubit:
    return ThermalQubit(_uniform(rng, "omega"), _uniform(rng, "beta_s"))


def _dj_table_blocks(max_n: int, tuples_per_instance: int):
    """Every constant and balanced truth table with n <= max_n, in lists of
    tables of one n holding at most _BLOCK_ROWS tuples (or one table)."""
    per_block = max(1, _BLOCK_ROWS // max(1, tuples_per_instance))
    for n in range(1, max_n + 1):
        block = []
        for instance in chain(constant_functions(n), enumerate_balanced_functions(n)):
            block.append(instance.function.outputs)
            if len(block) == per_block:
                yield block
                block = []
        if block:
            yield block


def _promise_ones(u, n):
    """Counts of ones of truth tables on n bits, uniform among the constant
    and balanced tables, from uniform [0, 1) draws ``u``; arrays or scalars.

    At size s = 2^n the balanced class holds C = C(s, s/2) tables, so a
    table is all zeros with probability 1/(C + 2), all ones with 1/(C + 2)
    and balanced with C/(C + 2). Both branches round u * (C + 2) alike.
    """
    if isinstance(n, int):
        scaled = u * (float(math.comb(1 << n, 1 << (n - 1))) + 2.0)
        return 0 if scaled < 1.0 else (1 << n) if scaled < 2.0 else 1 << (n - 1)
    n = np.asarray(n)
    balanced = np.array([float(math.comb(2 << k, 1 << k)) for k in range(int(n.max()))])[n - 1]
    size, scaled = 1 << n, u * (balanced + 2.0)
    return np.where(scaled < 1.0, 0, np.where(scaled < 2.0, size, size >> 1))


def _random_dj_oracle(rng: np.random.Generator, n: int):
    size = 1 << n
    ones = _promise_ones(rng.random(), n)
    outputs = np.arange(size) < ones
    if 2 * ones == size:
        outputs = rng.permutation(outputs)
    table = BooleanFunctionTable(n, tuple(int(b) for b in outputs))
    gap_one = _uniform(rng, "gap")
    gap_zero = _uniform(rng, "gap")
    return build_dj_oracle(table, gap_one, gap_zero, _uniform(rng, "beta_m"))


def _regime_draws(
    rng: np.random.Generator, rows: int, max_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table sizes, counts of ones and (rows, 6) uniform draws of regime tuples.

    Three calls draw a block: n in 1..max_n, the table's class
    (:func:`_promise_ones`), then, per tuple, gap_one, gap_zero, beta_M,
    omega and beta_S (unscaled, for :func:`_scaled`) and the draw for the
    sensitivity threshold.
    """
    n = rng.integers(1, max_n + 1, rows)
    return 1 << n, _promise_ones(rng.random(rows), n), rng.random((rows, 6))


def _dj_machine(ones, size, gap_one, gap_zero, beta_m):
    """|G| and log Z_f of Deutsch-Jozsa machines whose tables have ``ones``
    ones among ``size`` outputs; floats or arrays."""
    zeros = size - ones
    total = ones * gap_one + zeros * gap_zero
    log_zf = ones * np.logaddexp(0.0, -beta_m * gap_one) + zeros * np.logaddexp(0.0, -beta_m * gap_zero)
    return total, log_zf


def _mask_case(oracle, probe, mask: QueryMask) -> tuple:
    """A general-mask case: machine gaps, beta_M, omega, beta_S and mask
    bits, then the library's X.G, |G|, log Z_f and all-ones X.G."""
    gaps = oracle.gap_vector
    return (
        gaps.gaps, oracle.machine_inverse_temperature, probe.gap, probe.inverse_temperature,
        mask.bits, mask.dot(gaps.gaps), gaps.total, oracle.log_partition_function,
        QueryMask.all_ones(len(mask.bits)).dot(gaps.gaps),
    )


def _general_mask_errors(cases) -> tuple[np.ndarray, np.ndarray]:
    """Errors of the general-mask check and of the all-ones reduction, one per
    :func:`_mask_case`, in case order.

    The cases are evaluated a machine size at a time, with X.G and
    |G| - X.G as ``oracle_shift`` passes them. The general-mask error
    is the larger of the p0' and beta' errors against the exact simulator
    (the p0' error alone where beta' is undefined); the reduction compares
    the kernel with |G| and no remainder against the kernel with an all-ones
    mask, where both temperatures are defined.
    """
    errors, reduction = np.empty(len(cases)), np.empty(len(cases))
    by_size: dict[int, list[int]] = {}
    for i, case in enumerate(cases):
        by_size.setdefault(len(case[0]), []).append(i)
    for rows in by_size.values():
        gaps, beta_m, omega, beta_s, masks, masked_sum, total, log_zf, all_ones_sum = (
            np.array(column) for column in zip(*(cases[i] for i in rows))
        )
        a = beta_s * omega

        def outcome(masked_sum, remainder):
            delta = kickback_shift(a, beta_m, masked_sum, remainder, log_zf)
            return shift_outcome(a, omega, delta)[1:]

        p0_after, beta_after = outcome(masked_sum, total - masked_sum)
        _, exact_p0, _ = exactsim.kickback_batch(omega, beta_s, gaps, beta_m, masks)
        error = np.abs(p0_after - exact_p0)
        defined = np.flatnonzero(~np.isnan(beta_after))
        exact_beta = population_inverse_temperature(exact_p0[defined], omega[defined])
        error[defined] = np.maximum(error[defined], np.abs(beta_after[defined] - exact_beta))
        errors[rows] = error

        specialized_p0, specialized_beta = outcome(total, 0.0)
        generalized_p0, generalized_beta = outcome(all_ones_sum, total - all_ones_sum)
        # fmax skips the NaN of an undefined temperature on either side.
        reduction[rows] = np.fmax(
            np.abs(specialized_p0 - generalized_p0), np.abs(specialized_beta - generalized_beta)
        )
    return errors, reduction


def run_verification(
    max_dj_n: int = 3,
    max_bv_n: int = 6,
    tuples_per_instance: int = 100,
    mask_cases: int = 200,
    regime_cases: int = 10000,
    seed: int = 1234,
) -> VerificationReport:
    rng = np.random.default_rng(seed)
    report = VerificationReport()

    # Kickback populations, shifts, and temperatures vs the exact permutation.
    pop = _Tracker("dj-kickback-population-vs-exact", 1e-12)
    shift = _Tracker("dj-kickback-delta-vs-exact", 1e-12)
    temp = _Tracker("dj-kickback-temperature-vs-exact", 1e-12)
    partition = _Tracker("dj-log-partition-vs-direct-sum", 1e-12)
    for tables in _dj_table_blocks(max_dj_n, tuples_per_instance):
        # Each table's tuples are consecutive rows, drawn as scalar draws would be.
        rows = len(tables) * tuples_per_instance
        outputs = np.repeat(np.array(tables, dtype=bool), tuples_per_instance, axis=0)
        size = outputs.shape[1]
        omega, beta_s, gap_one, gap_zero, beta_m = _scaled(
            rng.random((rows, 5)), ("omega", "beta_s", "gap", "gap", "beta_m")
        )
        total, log_zf = _dj_machine(np.count_nonzero(outputs, axis=1), size, gap_one, gap_zero, beta_m)
        a = beta_s * omega
        delta = kickback_shift(a, beta_m, total, 0.0, log_zf)
        _, p0_after, beta_after = shift_outcome(a, omega, delta)
        gaps = np.where(outputs, gap_one[:, None], gap_zero[:, None])
        exact_before, exact_p0, log_partition_sum = exactsim.kickback_batch(
            omega, beta_s, gaps, beta_m, np.ones_like(outputs)
        )

        def context(i: int) -> str:
            table = tables[i // tuples_per_instance]
            return f"instance={table} probe=({omega[i]:.4f},{beta_s[i]:.4f})"

        pop.record_block(np.abs(p0_after - exact_p0), context)
        shift.record_block(np.abs(delta - (exact_p0 - exact_before)), context)
        defined = np.flatnonzero(~np.isnan(beta_after))
        exact_beta = population_inverse_temperature(exact_p0[defined], omega[defined])
        temp.record_block(np.abs(beta_after[defined] - exact_beta), lambda i: context(defined[i]))
        log_zs = np.logaddexp(0.0, -a)
        partition.record_block(np.abs(np.expm1(log_partition_sum - (log_zs + log_zf))), context)
    report.checks += [pop.result(), shift.result(), temp.result(), partition.result()]

    # General-mask kickback on DJ and BV oracles, plus the all-ones reduction.
    general_dj = _Tracker("general-mask-dj-vs-exact", 1e-12)
    general_bv = _Tracker("general-mask-bv-vs-exact", 1e-12)
    reduction = _Tracker("all-ones-mask-reduction", 1e-14)
    for tracker, is_bv in ((general_dj, False), (general_bv, True)):
        cases = []
        for _ in range(mask_cases):
            if is_bv:
                n = int(rng.integers(1, max_bv_n + 1))
                secret = "".join(str(b) for b in rng.integers(0, 2, n))
                if "1" not in secret:
                    secret = secret[:-1] + "1"
                oracle = build_bv_oracle(secret, _uniform(rng, "gamma"), _uniform(rng, "beta_m"))
            else:
                oracle = _random_dj_oracle(rng, int(rng.integers(1, max_dj_n + 1)))
            probe = _sample_probe(rng)
            mask = QueryMask(tuple(int(b) for b in rng.integers(0, 2, oracle.n_machine_qubits)))
            cases.append(_mask_case(oracle, probe, mask))
        errors, reduction_errors = _general_mask_errors(cases)
        tracker.record_block(errors, lambda i: f"mask={cases[i][4]} machine={cases[i][0]}")
        reduction.record_block(reduction_errors, lambda i: f"machine={cases[i][0]}")
    report.checks += [general_dj.result(), general_bv.result(), reduction.result()]

    # Hamming-weight readout formula vs exact, and vs the kickback path.
    hamming = _Tracker("bv-hamming-population-vs-exact", 1e-12)
    hamming_vs_kickback = _Tracker("bv-hamming-vs-kickback", 1e-14)
    for n in range(1, max_bv_n + 1):
        cases = []
        for _ in range(tuples_per_instance // 4 or 1):
            secret = "".join(str(b) for b in rng.integers(0, 2, n))
            gamma = _uniform(rng, "gamma")
            beta_m = _uniform(rng, "beta_m")
            probe = _sample_probe(rng)
            oracle = build_bv_oracle(secret, gamma, beta_m)
            cases.append((secret, probe.gap, probe.inverse_temperature, oracle.gap_vector.gaps, beta_m,
                          hamming_weight_population(BVInstance.from_secret(secret), gamma, probe, beta_m),
                          kickback_outcome(probe, oracle, QueryMask.all_ones(n)).p0_after))
        secrets, *columns = zip(*cases)
        omega, beta_s, gaps, beta_m, analytic, kickback = (np.array(column) for column in columns)
        _, exact_p0, _ = exactsim.kickback_batch(omega, beta_s, gaps, beta_m, np.ones_like(gaps))
        hamming.record_block(np.abs(analytic - exact_p0), lambda i: f"secret={secrets[i]}")
        hamming_vs_kickback.record_block(np.abs(analytic - kickback), lambda i: f"secret={secrets[i]}")
    report.checks += [hamming.result(), hamming_vs_kickback.result()]

    # Mixture of swaps and single-swap marginals vs exact permutations.
    mixture = _Tracker("mixed-query-vs-exact", 1e-12)
    swap = _Tracker("swap-query-marginal-vs-exact", 1e-12)
    for _ in range(tuples_per_instance):
        n = int(rng.integers(1, min(max_dj_n, 2) + 1))
        oracle = _random_dj_oracle(rng, n)
        probe = _sample_probe(rng)
        state = exactsim.build_joint_state(probe, oracle)
        branches = [
            exactsim.probe_marginal(exactsim.apply_swap_with_machine_qubit(state, x)).p0
            for x in range(oracle.n_machine_qubits)
        ]
        analytic = mixed_input_query(probe, oracle).p0
        mixture.record(abs(analytic - float(np.mean(branches))), f"gaps={oracle.gap_vector.gaps}")
        x = int(rng.integers(0, oracle.n_machine_qubits))
        taken = swap_query(probe, oracle, x).probe
        swap.record(abs(taken.ground_population - branches[x]), f"x={x}")
    report.checks += [mixture.result(), swap.result()]

    # Regime label vs the sign of the population shift, in chunks of tuples.
    regime = _Tracker("regime-sign-consistency", 0.0)
    sensitivity = _Tracker("sensitivity-closed-form-agreement", 0.0)
    well_defined = _Tracker("well-definedness-flag-consistency", 0.0)
    roundtrip = _Tracker("temperature-roundtrip", 1e-10)
    for start in range(0, regime_cases, _BLOCK_ROWS):
        sizes, ones, draws = _regime_draws(rng, min(_BLOCK_ROWS, regime_cases - start), max_dj_n)
        gap_one, gap_zero, beta_m, omega, beta_s = _scaled(
            draws, ("gap", "gap", "beta_m", "omega", "beta_s")
        )
        total, log_zf = _dj_machine(ones, sizes, gap_one, gap_zero, beta_m)
        a, b = beta_s * omega, beta_m * total
        delta = kickback_shift(a, beta_m, total, 0.0, log_zf)
        p0, p0_after, beta_after = shift_outcome(a, omega, delta)

        label = regime_sign(a, b)
        regime.record_block(
            (label != np.sign(delta)).astype(float),
            lambda i: f"label={Regime.from_sign(label[i])} delta={delta[i]:.3e}",
        )
        ceiling = 1.0 - p0
        c = 0.5 * ceiling * draws[:, 5] + 0.25 * ceiling
        closed, precondition = sensitivity_bound(a, b, log_zf, c, delta)
        compared = np.flatnonzero(precondition)
        sensitivity.record_block(
            ((np.abs(delta) > c) != closed)[compared].astype(float),
            lambda i: f"c={c[compared[i]]:.4f}",
        )
        defined = ~np.isnan(beta_after)
        well_defined.record_block(
            (temperature_defined(a, delta) != defined).astype(float),
            lambda i: f"delta={delta[i]:.3e}",
        )
        # A finite temperature with a population outside (0, 1) is a
        # contradiction; count it as a hard mismatch.
        rows_defined = np.flatnonzero(defined)
        p = p0_after[rows_defined]
        inside = (p > 0.0) & (p < 1.0)
        recomputed = population_inverse_temperature(np.where(inside, p, 0.5), omega[rows_defined])
        roundtrip.record_block(
            np.where(inside, np.abs(beta_after[rows_defined] - recomputed), np.inf),
            lambda i: "roundtrip" if inside[i] else f"p0_after={p[i]}",
        )
    report.checks += [regime.result(), sensitivity.result(), well_defined.result(), roundtrip.result()]

    # Reset energetics vs the exact population-weighted energy changes.
    energy = _Tracker("reset-energy-bookkeeping", 1e-12)
    for _ in range(tuples_per_instance):
        oracle = _random_dj_oracle(rng, int(rng.integers(1, max_dj_n + 1)))
        probe = _sample_probe(rng)
        outcome = kickback_outcome(probe, oracle)
        costs = reset_costs(outcome, oracle, probe)
        state = exactsim.build_joint_state(probe, oracle)
        mask = QueryMask.all_ones(oracle.n_machine_qubits)
        a, b = exactsim.kickback_level_indices(mask, oracle.n_machine_qubits)
        after = exactsim.apply_level_exchange(state, a, b)
        machine_gain = exactsim.machine_mean_energy(after) - exactsim.machine_mean_energy(state)
        probe_gain = exactsim.probe_mean_energy(after) - exactsim.probe_mean_energy(state)
        energy.record(abs(machine_gain - costs.dissipation), "machine energy")
        energy.record(abs(probe_gain + costs.reset_work), "probe energy")
    report.checks.append(energy.result())

    # Detuning layer: eta = 1 must match the plain kickback; flip probability
    # must stay under its envelope.
    eta_one = _Tracker("detuning-eta1-vs-kickback", 1e-10)
    envelope = _Tracker("flip-probability-envelope", 1e-12)
    for _ in range(tuples_per_instance):
        oracle = _random_dj_oracle(rng, int(rng.integers(1, max_dj_n + 1)))
        probe = _sample_probe(rng)
        outcome = kickback_outcome(probe, oracle)
        detuned = detuned_probe_temperature(probe, oracle, 1.0)
        if outcome.beta_after is not None and detuned is not None:
            eta_one.record(abs(outcome.beta_after - detuned), "eta=1")
        g = float(rng.uniform(0.1, 3.0))
        delta = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        excess = flip_probability(g, delta, t) - suppression_factor(g, delta)
        envelope.record(max(0.0, excess), f"g={g:.3f}")
    report.checks += [eta_one.result(), envelope.result()]

    # Partition function of a balanced oracle depends only on the gap multiset.
    permutation = _Tracker("balanced-partition-permutation-invariance", 1e-12)
    for n in range(1, max_dj_n + 1):
        beta_m = _uniform(rng, "beta_m")
        gap_one = _uniform(rng, "gap")
        gap_zero = _uniform(rng, "gap")
        values = [
            build_dj_oracle(inst.function, gap_one, gap_zero, beta_m).log_partition_function
            for inst in enumerate_balanced_functions(n)
        ]
        spread = max(values) - min(values)
        permutation.record(abs(spread), f"n={n}")
    report.checks.append(permutation.result())

    return report
