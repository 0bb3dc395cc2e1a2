"""Cross-check suite: every analytic formula against the exact diagonal simulator.

Parameter tuples are drawn from documented ranges chosen so that the 1e-12
comparisons are honestly attainable in double precision: post-query
populations stay away from 0 and 1, where the log amplification of rounding
error would exceed the tolerance.

Random Deutsch-Jozsa tables come from the promise law: a uniform table
conditioned on being constant or balanced (:func:`_promise_ones`). At table
size s each constant table has weight 1 and the balanced class C(s, s/2), so
no table is ever drawn and rejected.

The checks come in sections, one function each, listed in ``_SECTIONS`` in
the order of the report. A seed fixes the cases whatever the evaluation:
section i draws from child i of ``np.random.SeedSequence(seed)``, so the
number of draws one section makes moves no other section's draws, and a
section appended to ``_SECTIONS`` moves none. Each section draws its tuples
in a few bulk calls (:func:`_random_dj_machines`,
:func:`_random_bv_machines`, :func:`_promise_ones`). The library function
that a check tests is called once per case, on probe and oracle objects; the
arithmetic that needs no library object and the exact side run as arrays,
the exact side through :func:`exactsim.kickback_batch` and
:func:`exactsim.swap_batch`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import exactsim
from .detuning import detuned_probe_temperature, flip_probability, suppression_factor
from .problems import (
    MAX_EXHAUSTIVE_N,
    BVInstance,
    constant_functions,
    enumerate_balanced_functions,
    hamming_weight_population,
)
from .query import (
    QueryMask,
    Regime,
    kickback,
    kickback_outcome,
    mixed_input_query,
    regime_sign,
    reset_costs,
    sensitivity_bound,
    swap_query,
    temperature_defined,
)
from .thermal import (
    BooleanFunctionTable,
    ThermalMachineOracle,
    ThermalQubit,
    build_bv_oracle,
    build_dj_oracle,
    population_inverse_temperature,
    two_gap_machine,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification", "PARAMETER_RANGES"]

# Tuples evaluated together in the Deutsch-Jozsa and the regime sections.
_BLOCK_ROWS = 2048
# Regime tuples drawn by one _regime_draws call. _BLOCK_ROWS is a multiple of
# it, so a seed's regime cases are those of 512-row draws.
_REGIME_DRAW_ROWS = 512

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
    """One check's case count, largest error, first case over the tolerance
    and case with the largest error, accumulated by :meth:`record_block`."""

    name: str
    tolerance: float
    cases: int = 0
    max_error: float = 0.0
    first_failure: str = ""
    worst_case: str = ""

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

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


def _scaled(block: np.ndarray, keys: tuple[str, ...]) -> list[np.ndarray]:
    """Columns of uniform [0, 1) draws, column j scaled into PARAMETER_RANGES[keys[j]].

    ``_scaled(rng.random((T, k)), keys)`` gives, row by row, the values of
    T*k scalar ``rng.uniform(low, high)`` calls over ``keys`` and leaves the
    generator in the same state: both scale the same doubles by
    low + (high - low) * u.
    """
    columns = []
    for j, key in enumerate(keys):
        low, high = PARAMETER_RANGES[key]
        columns.append(low + (high - low) * block[:, j])
    return columns


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


def _promise_ones(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Counts of ones of truth tables on n[t] bits, uniform among the constant
    and balanced tables, from uniform [0, 1) draws ``u``.

    At size s = 2^n the balanced class holds C = C(s, s/2) tables, so a
    table is all zeros with probability 1/(C + 2), all ones with 1/(C + 2)
    and balanced with C/(C + 2).
    """
    balanced = np.array([float(math.comb(2 << k, 1 << k)) for k in range(int(n.max(initial=0)))])[n - 1]
    size, scaled = 1 << n, u * (balanced + 2.0)
    return np.where(scaled < 1.0, 0, np.where(scaled < 2.0, size, size >> 1))


@dataclass
class _Machines:
    """Drawn machines and probes, row t the t-th case: ``gaps[t, :sizes[t]]``
    are its machine gaps (entries past them are not read), ``oracles[t]``
    its oracle, ``sources[t]`` what the oracle was built from (a truth
    table, or a secret and gamma), and ``probes[t]`` its probe, built on
    first read."""

    sizes: np.ndarray
    gaps: np.ndarray
    beta_m: np.ndarray
    omega: np.ndarray
    beta_s: np.ndarray
    oracles: list[ThermalMachineOracle]
    sources: list

    @cached_property
    def probes(self) -> list[ThermalQubit]:
        return [ThermalQubit(w, b) for w, b in zip(self.omega.tolist(), self.beta_s.tolist())]

    def cases(self):
        return zip(self.oracles, self.probes)

    def by_size(self):
        """(size, rows) of each machine size, for the exact side's rectangular batches."""
        for size in sorted(set(self.sizes.tolist())):
            yield size, np.flatnonzero(self.sizes == size)

    def exact_kickback(self, masks: np.ndarray | None = None, energies: bool = False) -> list[np.ndarray]:
        """:func:`exactsim.kickback_batch` of every row, a machine size at a
        time, in row order; all-ones masks unless ``masks`` are given."""
        if masks is None:
            masks = np.ones(self.gaps.shape, dtype=np.int64)
        outputs = [np.empty(self.sizes.size) for _ in range(5 if energies else 3)]
        for size, rows in self.by_size():
            batch = exactsim.kickback_batch(
                self.omega[rows], self.beta_s[rows], self.gaps[rows, :size], self.beta_m[rows],
                masks[rows, :size], energies=energies,
            )
            for out, values in zip(outputs, batch):
                out[rows] = values
        return outputs


def _random_dj_machines(rng: np.random.Generator, rows: int, max_n: int) -> _Machines:
    """``rows`` random Deutsch-Jozsa machines of 1 to ``max_n`` input bits,
    and probes, in four bulk calls: n, the class of each table
    (:func:`_promise_ones`), a random key per output, then gap_one, gap_zero,
    beta_M, omega and beta_S (:func:`_scaled`).

    A table's ones are the outputs whose keys rank below its count of ones,
    so a balanced table is any of its class alike. An output's rank is the
    number of keys below its own, counted without a sort: nothing else in a
    run sorts, and a first sort pages in about 0.6 MiB of numpy's code.
    """
    n = rng.integers(1, max_n + 1, rows)
    sizes = 1 << n
    ones = _promise_ones(rng.random(rows), n)
    keys = rng.random((rows, 1 << max_n))
    keys[np.arange(1 << max_n) >= sizes[:, None]] = 1.0  # outputs past the table rank last
    tables = np.count_nonzero(keys[:, None, :] < keys[:, :, None], axis=2) < ones[:, None]
    gap_one, gap_zero, beta_m, omega, beta_s = _scaled(
        rng.random((rows, 5)), ("gap", "gap", "beta_m", "omega", "beta_s")
    )
    functions = [
        BooleanFunctionTable(k, tuple(table[:size]))
        for k, size, table in zip(n.tolist(), sizes.tolist(), tables.astype(int).tolist())
    ]
    oracles = [
        build_dj_oracle(function, one, zero, beta)
        for function, one, zero, beta in zip(functions, gap_one.tolist(), gap_zero.tolist(), beta_m.tolist())
    ]
    gaps = np.where(tables, gap_one[:, None], gap_zero[:, None])
    return _Machines(sizes, gaps, beta_m, omega, beta_s, oracles, functions)


def _random_bv_machines(rng: np.random.Generator, n: np.ndarray, nonzero: bool) -> _Machines:
    """Secret-string machines of ``n[t]`` secret bits, and probes, in two bulk
    calls: the secret bits, then gamma, beta_M, omega and beta_S
    (:func:`_scaled`). With ``nonzero``, an all-zero secret's last bit is set."""
    widest = int(n.max(initial=1))
    bits = rng.integers(0, 2, (n.size, widest)) * (np.arange(widest) < n[:, None])
    if nonzero:
        empty = np.flatnonzero(~bits.any(axis=1))
        bits[empty, n[empty] - 1] = 1
    gamma, beta_m, omega, beta_s = _scaled(rng.random((n.size, 4)), ("gamma", "beta_m", "omega", "beta_s"))
    sources = [
        ("".join(map(str, secret[:k])), g) for k, secret, g in zip(n.tolist(), bits.tolist(), gamma.tolist())
    ]
    oracles = [build_bv_oracle(secret, g, beta) for (secret, g), beta in zip(sources, beta_m.tolist())]
    return _Machines(n, bits * gamma[:, None], beta_m, omega, beta_s, oracles, sources)


def _mask_draws(rng: np.random.Generator, cases: int, max_dj_n: int, max_bv_n: int):
    """The general-mask section's Deutsch-Jozsa machines, then its
    secret-string machines (never an all-zero secret), each with one 0/1
    mask row per machine, read up to the machine's size."""
    dj = _random_dj_machines(rng, cases, max_dj_n)
    bv = _random_bv_machines(rng, rng.integers(1, max_bv_n + 1, cases), nonzero=True)
    return [(machines, rng.integers(0, 2, machines.gaps.shape)) for machines in (dj, bv)]


def _swap_draws(rng: np.random.Generator, rows: int, max_n: int):
    """The mixture section's Deutsch-Jozsa machines and the machine qubit
    that each one's single swap takes."""
    machines = _random_dj_machines(rng, rows, max_n)
    # u * size is exact for a power-of-two size, so its floor is uniform.
    return machines, (rng.random(rows) * machines.sizes).astype(np.int64)


def _library_columns(values, width: int) -> np.ndarray:
    """Library results, one tuple of ``width`` floats per case, as ``width``
    arrays; None becomes NaN."""
    return np.array(values, dtype=float).reshape(-1, width).T


def _general_mask_errors(machines: _Machines, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Errors of the general-mask check and of the all-ones reduction, one per
    machine, in row order.

    The library gives each case's X.G (:meth:`QueryMask.dot`), |G|
    (``GapVector.total``), log Z_f and all-ones X.G, which the kernel takes
    as ``oracle_kickback`` passes them: X.G and |G| - X.G. The general-mask
    error is the larger of the p0' and beta' errors against the exact
    simulator (the p0' error alone where beta' is undefined); the reduction
    compares the kernel with |G| and no remainder against the kernel with an
    all-ones mask, where both temperatures are defined.
    """
    masked_sum, total, log_zf, all_ones_sum = _library_columns(
        [
            (QueryMask(tuple(mask[:size])).dot(oracle.gap_vector.gaps), oracle.gap_vector.total,
             oracle.log_partition_function, QueryMask.all_ones(size).dot(oracle.gap_vector.gaps))
            for size, mask, oracle in zip(machines.sizes.tolist(), masks.tolist(), machines.oracles)
        ],
        4,
    )
    omega, beta_m = machines.omega, machines.beta_m
    a = machines.beta_s * omega

    def outcome(masked_sum, remainder):
        return kickback(a, omega, beta_m, masked_sum, remainder, log_zf)[2:]

    p0_after, beta_after = outcome(masked_sum, total - masked_sum)
    _, exact_p0, _ = machines.exact_kickback(masks)
    errors = np.abs(p0_after - exact_p0)
    defined = np.flatnonzero(~np.isnan(beta_after))
    exact_beta = population_inverse_temperature(exact_p0[defined], omega[defined])
    errors[defined] = np.maximum(errors[defined], np.abs(beta_after[defined] - exact_beta))

    specialized_p0, specialized_beta = outcome(total, 0.0)
    generalized_p0, generalized_beta = outcome(all_ones_sum, total - all_ones_sum)
    # fmax skips the NaN of an undefined temperature on either side.
    reduction = np.fmax(np.abs(specialized_p0 - generalized_p0), np.abs(specialized_beta - generalized_beta))
    return errors, reduction


class _Sizes(NamedTuple):
    """The sizes of a run, as :func:`run_verification` takes them."""

    max_dj_n: int
    max_bv_n: int
    tuples_per_instance: int
    mask_cases: int
    regime_cases: int


def _dj_kickback_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Kickback populations, shifts and temperatures vs the exact permutation, and log Z vs its sum."""
    pop = CheckResult("dj-kickback-population-vs-exact", 1e-12)
    shift = CheckResult("dj-kickback-delta-vs-exact", 1e-12)
    temp = CheckResult("dj-kickback-temperature-vs-exact", 1e-12)
    partition = CheckResult("dj-log-partition-vs-direct-sum", 1e-12)
    for tables in _dj_table_blocks(sizes.max_dj_n, sizes.tuples_per_instance):
        # Each table's tuples are consecutive rows, and each block draws the
        # next rows of one stream, so the block size moves no draw.
        rows = len(tables) * sizes.tuples_per_instance
        outputs = np.repeat(np.array(tables, dtype=bool), sizes.tuples_per_instance, axis=0)
        size = outputs.shape[1]
        omega, beta_s, gap_one, gap_zero, beta_m = _scaled(
            rng.random((rows, 5)), ("omega", "beta_s", "gap", "gap", "beta_m")
        )
        total, log_zf = two_gap_machine(np.count_nonzero(outputs, axis=1), size, gap_one, gap_zero, beta_m)
        a = beta_s * omega
        delta, _, p0_after, beta_after = kickback(a, omega, beta_m, total, 0.0, log_zf)
        gaps = np.where(outputs, gap_one[:, None], gap_zero[:, None])
        exact_before, exact_p0, log_partition_sum = exactsim.kickback_batch(
            omega, beta_s, gaps, beta_m, np.ones_like(outputs)
        )

        def context(i: int) -> str:
            table = tables[i // sizes.tuples_per_instance]
            return f"instance={table} probe=({omega[i]:.4f},{beta_s[i]:.4f})"

        pop.record_block(np.abs(p0_after - exact_p0), context)
        shift.record_block(np.abs(delta - (exact_p0 - exact_before)), context)
        defined = np.flatnonzero(~np.isnan(beta_after))
        exact_beta = population_inverse_temperature(exact_p0[defined], omega[defined])
        temp.record_block(np.abs(beta_after[defined] - exact_beta), lambda i: context(defined[i]))
        log_zs = np.logaddexp(0.0, -a)
        partition.record_block(np.abs(np.expm1(log_partition_sum - (log_zs + log_zf))), context)
    return [pop, shift, temp, partition]


def _general_mask_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """General-mask kickback on Deutsch-Jozsa and secret-string oracles vs exact, and the all-ones reduction."""
    general = [CheckResult("general-mask-dj-vs-exact", 1e-12), CheckResult("general-mask-bv-vs-exact", 1e-12)]
    reduction = CheckResult("all-ones-mask-reduction", 1e-14)
    draws = _mask_draws(rng, sizes.mask_cases, sizes.max_dj_n, sizes.max_bv_n)
    for check, (machines, masks) in zip(general, draws):
        errors, reduction_errors = _general_mask_errors(machines, masks)

        def machine(i: int) -> str:
            return f"machine={machines.oracles[i].gap_vector.gaps}"

        check.record_block(
            errors, lambda i: f"mask={tuple(masks[i, :machines.sizes[i]].tolist())} {machine(i)}"
        )
        reduction.record_block(reduction_errors, machine)
    return [*general, reduction]


def _hamming_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Hamming-weight readout formula vs exact, and vs the kickback path."""
    hamming = CheckResult("bv-hamming-population-vs-exact", 1e-12)
    hamming_vs_kickback = CheckResult("bv-hamming-vs-kickback", 1e-14)
    per_n = sizes.tuples_per_instance // 4 or 1
    machines = _random_bv_machines(rng, np.repeat(np.arange(1, sizes.max_bv_n + 1), per_n), nonzero=False)
    analytic, kickback = _library_columns(
        [
            (hamming_weight_population(BVInstance(secret), gamma, probe, oracle.machine_inverse_temperature),
             kickback_outcome(probe, oracle, QueryMask.all_ones(oracle.n_machine_qubits)).p0_after)
            for (secret, gamma), (oracle, probe) in zip(machines.sources, machines.cases())
        ],
        2,
    )
    _, exact_p0, _ = machines.exact_kickback()
    secrets = [secret for secret, _ in machines.sources]
    hamming.record_block(np.abs(analytic - exact_p0), lambda i: f"secret={secrets[i]}")
    hamming_vs_kickback.record_block(np.abs(analytic - kickback), lambda i: f"secret={secrets[i]}")
    return [hamming, hamming_vs_kickback]


def _swap_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Mixture of swaps and single-swap marginals vs exact permutations."""
    mixture = CheckResult("mixed-query-vs-exact", 1e-12)
    swap = CheckResult("swap-query-marginal-vs-exact", 1e-12)
    machines, taken = _swap_draws(rng, sizes.tuples_per_instance, min(sizes.max_dj_n, 2))
    exact_mixed, exact_swap = np.empty(taken.size), np.empty(taken.size)
    for size, rows in machines.by_size():
        branches = exactsim.swap_batch(
            machines.omega[rows], machines.beta_s[rows], machines.gaps[rows, :size], machines.beta_m[rows]
        )
        exact_mixed[rows] = branches.mean(axis=1)
        exact_swap[rows] = branches[np.arange(rows.size), taken[rows]]
    analytic, swapped = _library_columns(
        [
            (mixed_input_query(probe, oracle).p0, swap_query(probe, oracle, x).probe.ground_population)
            for (oracle, probe), x in zip(machines.cases(), taken.tolist())
        ],
        2,
    )
    mixture.record_block(np.abs(analytic - exact_mixed), lambda i: f"gaps={machines.oracles[i].gap_vector.gaps}")
    swap.record_block(np.abs(swapped - exact_swap), lambda i: f"x={taken[i]}")
    return [mixture, swap]


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


def _regime_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Regime label vs the sign of the population shift, the sensitivity closed
    form, the well-definedness flag and the temperature round trip, in blocks."""
    regime = CheckResult("regime-sign-consistency", 0.0)
    sensitivity = CheckResult("sensitivity-closed-form-agreement", 0.0)
    well_defined = CheckResult("well-definedness-flag-consistency", 0.0)
    roundtrip = CheckResult("temperature-roundtrip", 1e-10)
    for start in range(0, sizes.regime_cases, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, sizes.regime_cases)
        size, ones, draws = map(np.concatenate, zip(*(
            _regime_draws(rng, min(_REGIME_DRAW_ROWS, stop - first), sizes.max_dj_n)
            for first in range(start, stop, _REGIME_DRAW_ROWS)
        )))
        gap_one, gap_zero, beta_m, omega, beta_s = _scaled(draws, ("gap", "gap", "beta_m", "omega", "beta_s"))
        total, log_zf = two_gap_machine(ones, size, gap_one, gap_zero, beta_m)
        a, b = beta_s * omega, beta_m * total
        delta, p0, p0_after, beta_after = kickback(a, omega, beta_m, total, 0.0, log_zf)

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
    return [regime, sensitivity, well_defined, roundtrip]


def _energy_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Reset energetics vs the exact population-weighted energy changes."""
    energy = CheckResult("reset-energy-bookkeeping", 1e-12)
    machines = _random_dj_machines(rng, sizes.tuples_per_instance, sizes.max_dj_n)
    dissipation, reset_work = _library_columns(
        [reset_costs(kickback_outcome(probe, oracle), oracle, probe) for oracle, probe in machines.cases()], 2
    )
    p0, p0_after, _, machine_before, machine_after = machines.exact_kickback(energies=True)
    probe_gain = machines.omega * (1.0 - p0_after) - machines.omega * (1.0 - p0)
    energy.record_block(np.abs(machine_after - machine_before - dissipation), lambda _: "machine energy")
    energy.record_block(np.abs(probe_gain + reset_work), lambda _: "probe energy")
    return [energy]


def _detuning_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Detuning layer: eta = 1 must match the plain kickback; the flip probability must stay
    under its envelope and touch it at the peak time pi / sqrt(g^2 + delta^2)."""
    eta_one = CheckResult("detuning-eta1-vs-kickback", 1e-10)
    envelope = CheckResult("flip-probability-envelope", 1e-12)
    machines = _random_dj_machines(rng, sizes.tuples_per_instance, sizes.max_dj_n)
    low, high = np.array([0.1, -3.0, 0.0]), np.array([3.0, 3.0, 20.0])
    g, delta, t = (low + (high - low) * rng.random((sizes.tuples_per_instance, 3))).T
    kickback, detuned = _library_columns(
        [
            (kickback_outcome(probe, oracle).beta_after, detuned_probe_temperature(probe, oracle, 1.0))
            for oracle, probe in machines.cases()
        ],
        2,
    )
    compared = np.flatnonzero(~np.isnan(kickback) & ~np.isnan(detuned))
    eta_one.record_block(np.abs(kickback - detuned)[compared], lambda _: "eta=1")
    flip, peak, eta = _library_columns(
        [
            (flip_probability(coupling, detuning, time),
             flip_probability(coupling, detuning, math.pi / math.hypot(coupling, detuning)),
             suppression_factor(coupling, detuning))
            for coupling, detuning, time in zip(g.tolist(), delta.tolist(), t.tolist())
        ],
        3,
    )
    envelope.record_block(np.maximum(flip - eta, np.abs(peak - eta)), lambda i: f"g={g[i]:.3f}")
    return [eta_one, envelope]


def _permutation_section(rng: np.random.Generator, sizes: _Sizes) -> list[CheckResult]:
    """Log Z of a balanced oracle depends only on its gap multiset: its spread over the tables of each n."""
    permutation = CheckResult("balanced-partition-permutation-invariance", 1e-12)
    draws = np.column_stack(_scaled(rng.random((sizes.max_dj_n, 3)), ("beta_m", "gap", "gap")))
    spreads = [
        np.ptp([
            build_dj_oracle(inst.function, gap_one, gap_zero, beta_m).log_partition_function
            for inst in enumerate_balanced_functions(n)
        ])
        for n, (beta_m, gap_one, gap_zero) in enumerate(draws.tolist(), start=1)
    ]
    permutation.record_block(np.array(spreads), lambda i: f"n={i + 1}")
    return [permutation]


_SECTIONS = (
    _dj_kickback_section, _general_mask_section, _hamming_section, _swap_section,
    _regime_section, _energy_section, _detuning_section, _permutation_section,
)


def check_run_sizes(sizes: dict[str, int], seed: int) -> None:
    """The run-size rule: refuse a verify run with a size in ``sizes`` (name to
    value) below 1 or a seed below 0. The first two sizes, the Deutsch-Jozsa
    and the secret-string size, are bounded too: tables are enumerated up to
    MAX_EXHAUSTIVE_N bits, and an n-bit secret and the probe take n + 1
    qubits of the exact simulator. Last, a size that is not an integer (a
    bool is none; a numpy integer is one) is refused."""
    for name, value in sizes.items():
        if not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    for (name, value), most in zip(sizes.items(), (MAX_EXHAUSTIVE_N, exactsim.DEFAULT_MAX_QUBITS - 1)):
        if value > most:
            raise ValueError(f"{name} must be <= {most}, got {value}")
    if not seed >= 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def run_verification(
    max_dj_n: int = 3,
    max_bv_n: int = 6,
    tuples_per_instance: int = 100,
    mask_cases: int = 200,
    regime_cases: int = 10000,
    seed: int = 1234,
) -> VerificationReport:
    sizes = _Sizes(max_dj_n, max_bv_n, tuples_per_instance, mask_cases, regime_cases)
    check_run_sizes(sizes._asdict(), seed)
    report = VerificationReport()
    for section, child in zip(_SECTIONS, np.random.SeedSequence(seed).spawn(len(_SECTIONS))):
        report.checks += section(np.random.default_rng(child), sizes)
    return report
