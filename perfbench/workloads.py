"""The benchmark's four workloads: inputs, timed items and correctness checks.

A workload makes its inputs from a seed, runs items in whole rounds (every
round has the same cost classes in the same shares), and afterwards checks
every recorded output against ``reference``. Items call thermoquery's public
functions through their modules, so that the traced mode sees every call.

Import this module only after ``import thermoquery``: the worker times the
package import as part of set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from thermoquery import cli, detuning, exactsim, problems, query, readout, thermal, verify

import reference as ref

@dataclass
class Verdict:
    """Outcome of checking one run: ``failed`` items hit the known fault,
    ``wrong`` lists the items that failed for any other reason."""

    failed: int = 0
    wrong: list[str] = field(default_factory=list)


# --- kickback-scan ----------------------------------------------------------

# Gaps are dyadic, so every gap sum is exact in double precision, and the
# seed only chooses positions: whether a curve underflows does not depend on
# the seed.
E1, E2, GAMMA, BETA_M, ETA = 1.0, 0.5, 1.0, 1.0, 0.75
# Probe gap omega = |G| and beta_M = 1 put the cooling/heating boundary of the
# all-ones mask at beta_S = 1; the general masks keep 7/8 of the masked gap
# sum, which puts theirs at beta_S = 0.75. No grid point lies on either.
BETA_S_GRID = tuple(0.5 + (i + 0.5) / 8 for i in range(8))
GENERAL_MASK_POINTS = frozenset(range(0, 8, 2))


@dataclass(frozen=True)
class Curve:
    kind: str  # "balanced" or "secret"
    size: int
    table: object  # BooleanFunctionTable (balanced) or BVInstance (secret)
    mask: object  # general QueryMask
    gap_counts: tuple
    masked_counts: tuple

    @property
    def key(self) -> tuple:
        return (self.kind, self.size)


class KickbackScan:
    """Closed-form curves over a beta_S grid on machines of 2^4 ... 2^16 qubits."""

    name = "kickback-scan"

    def __init__(self, seed: int, toy: bool = False):
        rng = np.random.default_rng(seed)
        exponents = range(4, 12 if toy else 17)
        self.curves = []
        for k in exponents:
            self.curves += [self._balanced(rng, k), self._secret(rng, k)]
        # 26 cost classes of equal share would put the median on the border
        # between the two N = 1024 classes. One more balanced curve there and
        # one more secret curve at the cheapest size keep the halves equal and
        # move the median into the middle of the balanced N = 1024 class.
        middle = (exponents.start + exponents.stop - 1) // 2
        self.curves += [self._balanced(rng, middle), self._secret(rng, exponents.start)]
        self.curves.sort(key=lambda c: (c.size, c.kind))

    @staticmethod
    def _balanced(rng, k: int) -> Curve:
        n = 1 << k
        outputs = _half_ones(rng, n)
        table = thermal.BooleanFunctionTable(k, tuple(int(o) for o in outputs))
        cleared = n // 2 - n // 16
        return Curve("balanced", n, table, _general_mask(rng, outputs),
                     ((E1, n // 2), (E2, n // 2)), ((E1, cleared), (E2, cleared)))

    @staticmethod
    def _secret(rng, k: int) -> Curve:
        n = 1 << k
        bits = _half_ones(rng, n)
        instance = problems.BVInstance.from_secret("".join("1" if b else "0" for b in bits))
        cleared = n // 2 - n // 16
        return Curve("secret", n, instance, _general_mask(rng, bits),
                     ((GAMMA, n // 2), (0.0, n // 2)), ((GAMMA, cleared), (0.0, cleared)))

    def round(self, index: int) -> list:
        return self.curves

    def run(self, curve: Curve):
        if curve.kind == "balanced":
            oracle = thermal.build_dj_oracle(curve.table, E1, E2, BETA_M)
        else:
            oracle = thermal.build_bv_oracle(curve.table.secret, GAMMA, BETA_M)
        omega = oracle.gap_vector.total
        points = []
        for i, beta_s in enumerate(BETA_S_GRID):
            probe = thermal.ThermalQubit(omega, beta_s)
            full = query.kickback_outcome(probe, oracle)
            general = (
                query.kickback_outcome(probe, oracle, curve.mask)
                if i in GENERAL_MASK_POINTS else None
            )
            label = query.classify_regime(probe, oracle)
            eta_beta = detuning.detuned_probe_temperature(probe, oracle, ETA)
            hamming = (
                problems.hamming_weight_population(curve.table, GAMMA, probe, BETA_M)
                if curve.kind == "secret" else None
            )
            points.append((omega, _outcome(full), _outcome(general), label.value, eta_beta, hamming))
        return points

    def check(self, records) -> Verdict:
        verdict = Verdict()
        cache: dict = {}
        for curve, points in records:
            if curve.key not in cache:
                cache[curve.key] = self.reference(curve)
            bad = check_curve(points, cache[curve.key])
            if bad is None:
                continue
            if bad:
                verdict.wrong.append(f"{curve.kind} N={curve.size}: {bad}")
            else:
                verdict.failed += 1
        return verdict

    @staticmethod
    def reference(curve: Curve) -> list:
        omega = float(ref.gap_sum(curve.gap_counts))
        out = []
        for i, beta_s in enumerate(BETA_S_GRID):
            full = ref.kickback(omega, beta_s, BETA_M, curve.gap_counts)
            general = (
                ref.kickback(omega, beta_s, BETA_M, curve.gap_counts, curve.masked_counts)
                if i in GENERAL_MASK_POINTS else None
            )
            out.append((omega, full, general, full.eta_beta(ETA)))
        return out


def _half_ones(rng, n: int) -> np.ndarray:
    bits = np.zeros(n, dtype=np.int64)
    bits[rng.permutation(n)[: n // 2]] = 1
    return bits


def _general_mask(rng, bits: np.ndarray):
    """All ones except n/16 cleared among the set bits and n/16 among the clear ones."""
    n = bits.size
    mask = np.ones(n, dtype=np.int64)
    for value in (1, 0):
        mask[rng.choice(np.flatnonzero(bits == value), n // 16, replace=False)] = 0
    return query.QueryMask(tuple(int(b) for b in mask))


def _outcome(outcome):
    if outcome is None:
        return None
    return (outcome.p0_before, outcome.p0_after, outcome.delta_p0, outcome.beta_after,
            outcome.regime.value)


def check_kickback(outcome, expected: "ref.Kickback") -> list[tuple[str, bool]]:
    """Mismatches of one recorded kickback outcome against its reference, each
    with whether the known fault explains it.

    Where the reference populations underflow a double, the fault in
    ``query._exchange_outcome`` gives delta_p0 = 0.0, the regime NEUTRAL and
    an undefined or rounded beta'. Those symptoms, and only those, are
    explained; p0 and p0' are held to the normal check everywhere.
    """
    p0, p0_after, delta, beta_after, regime = outcome
    fault = expected.underflows
    bad = []
    if not ref.population_ok(p0, expected.p0):
        bad.append(("p0", False))
    if not ref.population_ok(p0_after, expected.p0_after):
        bad.append(("p0'", False))
    if not ref.delta_ok(delta, expected):
        bad.append(("delta_p0", fault and delta == 0.0))
    if not ref.beta_ok(beta_after, expected.beta_after):
        bad.append(("beta'", fault))
    if not ref.regime_ok(regime, expected.sign):
        bad.append((f"regime {regime}", fault and regime == "neutral"))
    return bad


def check_curve(points, expected) -> list[str] | None:
    """None when a curve is right; [] when its only mismatches are the known
    fault's symptoms; else the unexplained mismatches."""
    unexplained, failed = [], False
    for beta_s, point, reference in zip(BETA_S_GRID, points, expected):
        omega, full, general, label, eta_beta, hamming = point
        ref_omega, ref_full, ref_general, ref_eta = reference
        bad = check_kickback(full, ref_full)
        if ref_general is not None:
            bad += check_kickback(general, ref_general) if general else [("general mask missing", False)]
        if not ref.beta_ok(eta_beta, ref_eta):
            bad.append(("eta beta'", ref_full.underflows))
        # The gap sum, the regime from exponents and the Hamming-weight
        # population involve no difference of underflowing terms.
        if omega != ref_omega:
            bad.append(("omega", False))
        if not ref.regime_ok(label, ref_full.sign):
            bad.append((f"classify_regime {label}", False))
        if hamming is not None and not ref.population_ok(hamming, ref_full.p0_after):
            bad.append(("hamming p0'", False))
        if bad:
            failed = True
        wrong = [name for name, explained in bad if not explained]
        if wrong:
            unexplained.append(f"beta_S={beta_s}: {', '.join(wrong)}")
    if not failed:
        return None
    return unexplained


# --- exact-n4 --------------------------------------------------------------


def _uniform(rng, key: str) -> float:
    low, high = verify.PARAMETER_RANGES[key]
    return float(rng.uniform(low, high))


@dataclass(frozen=True)
class ExactItem:
    kind: str  # "dj" or "bv"
    outputs: tuple  # truth table (dj) or secret bits (bv)
    table: object  # BooleanFunctionTable or secret string
    gap_one: float  # E1 (dj) or gamma (bv)
    gap_zero: float  # E2 (dj) or 0 (bv)
    beta_m: float
    omega: float
    beta_s: float
    mask: object  # general QueryMask
    swap_index: int


class ExactN4:
    """Dense 17-qubit Deutsch-Jozsa checks, with one 20-qubit secret-string item in eight."""

    name = "exact-n4"

    def __init__(self, seed: int, toy: bool = False):
        self.rng = np.random.default_rng(seed)
        self.dj_n = 2 if toy else 4
        self.bv_n = 7 if toy else exactsim.DEFAULT_MAX_QUBITS - 1
        pool = list(problems.enumerate_balanced_functions(self.dj_n))
        pool += list(problems.constant_functions(self.dj_n))
        self.pool = [inst.function for inst in pool]

    def round(self, index: int) -> list:
        return [self._dj_item() for _ in range(7)] + [self._bv_item()]

    def _common(self, n: int):
        mask = query.QueryMask(tuple(int(b) for b in self.rng.integers(0, 2, n)))
        return _uniform(self.rng, "beta_m"), _uniform(self.rng, "omega"), _uniform(self.rng, "beta_s"), mask

    def _dj_item(self) -> ExactItem:
        table = self.pool[int(self.rng.integers(len(self.pool)))]
        gap_one, gap_zero = _uniform(self.rng, "gap"), _uniform(self.rng, "gap")
        beta_m, omega, beta_s, mask = self._common(len(table.outputs))
        swap = int(self.rng.integers(len(table.outputs)))
        return ExactItem("dj", table.outputs, table, gap_one, gap_zero, beta_m, omega, beta_s, mask, swap)

    def _bv_item(self) -> ExactItem:
        bits = self.rng.integers(0, 2, self.bv_n)
        bits[int(self.rng.integers(self.bv_n))] = 1
        secret = "".join(str(int(b)) for b in bits)
        gamma = _uniform(self.rng, "gamma")
        beta_m, omega, beta_s, mask = self._common(self.bv_n)
        # Zero-gap qubits are not thermal qubits; swap with a gapped one.
        swap = int(self.rng.choice(np.flatnonzero(bits)))
        return ExactItem("bv", tuple(int(b) for b in bits), secret, gamma, 0.0, beta_m, omega, beta_s, mask, swap)

    def run(self, item: ExactItem):
        if item.kind == "dj":
            oracle = thermal.build_dj_oracle(item.table, item.gap_one, item.gap_zero, item.beta_m)
        else:
            oracle = thermal.build_bv_oracle(item.table, item.gap_one, item.beta_m)
        probe = thermal.ThermalQubit(item.omega, item.beta_s)
        n = oracle.n_machine_qubits
        state = exactsim.build_joint_state(probe, oracle)
        p0_before = exactsim.probe_marginal(state).p0
        a, b = exactsim.kickback_level_indices(query.QueryMask.all_ones(n), n)
        after = exactsim.apply_level_exchange(state, a, b)
        p0_after = exactsim.probe_marginal(after).p0
        machine_gain = exactsim.machine_mean_energy(after) - exactsim.machine_mean_energy(state)
        probe_gain = exactsim.probe_mean_energy(after) - exactsim.probe_mean_energy(state)
        a, b = exactsim.kickback_level_indices(item.mask, n)
        general_p0 = exactsim.probe_marginal(exactsim.apply_level_exchange(state, a, b)).p0
        swap_p0 = exactsim.probe_marginal(exactsim.apply_swap_with_machine_qubit(state, item.swap_index)).p0
        analytic = query.kickback_outcome(probe, oracle)
        analytic_general = query.kickback_outcome(probe, oracle, item.mask)
        swapped = query.swap_query(probe, oracle, item.swap_index).probe.ground_population
        costs = query.reset_costs(analytic, oracle, probe)
        return {
            "exact_p0": p0_before, "exact_p0_after": p0_after, "exact_general_p0": general_p0,
            "exact_swap_p0": swap_p0, "machine_gain": machine_gain, "probe_gain": probe_gain,
            "analytic_p0_after": analytic.p0_after, "analytic_general_p0": analytic_general.p0_after,
            "analytic_swap_p0": swapped, "dissipation": costs.dissipation, "reset_work": costs.reset_work,
        }

    def check(self, records) -> Verdict:
        verdict = Verdict()
        for item, out in records:
            bad = check_exact(item, out)
            if bad:
                verdict.wrong.append(f"{item.kind} {item.outputs}: {', '.join(bad)}")
        return verdict


def exact_reference(item: ExactItem) -> dict:
    ones = sum(item.outputs)
    gap_counts = ((item.gap_one, ones), (item.gap_zero, len(item.outputs) - ones))
    masked_one = sum(o and m for o, m in zip(item.outputs, item.mask.bits))
    masked_zero = sum((not o) and m for o, m in zip(item.outputs, item.mask.bits))
    masked = ((item.gap_one, masked_one), (item.gap_zero, masked_zero))
    full = ref.kickback(item.omega, item.beta_s, item.beta_m, gap_counts)
    general = ref.kickback(item.omega, item.beta_s, item.beta_m, gap_counts, masked)
    swap_gap = item.gap_one if item.outputs[item.swap_index] else item.gap_zero
    total = ref.gap_sum(gap_counts)
    return {
        "exact_p0": full.p0, "exact_p0_after": full.p0_after, "exact_general_p0": general.p0_after,
        "exact_swap_p0": ref.logistic(ref.mp.mpf(item.beta_m) * swap_gap),
        "machine_gain": full.delta * total, "probe_gain": -full.delta * full.omega,
        "analytic_p0_after": full.p0_after, "analytic_general_p0": general.p0_after,
        "analytic_swap_p0": ref.logistic(ref.mp.mpf(item.beta_m) * swap_gap),
        "dissipation": full.delta * total, "reset_work": full.delta * full.omega,
    }


def check_exact(item: ExactItem, out: dict) -> list[str]:
    expected = exact_reference(item)
    return [key for key, value in expected.items() if not ref.population_ok(out[key], value)]


# --- verify-suite -----------------------------------------------------------

MASK_CASES, REGIME_CASES = 200, 10000  # run_verification's fixed case counts


def expected_cases(max_n: int, bv_max_n: int, trials: int) -> dict[str, tuple[int, int]]:
    """(least, most) case count of every verify check, implied by its parameters.

    Within ``verify.PARAMETER_RANGES`` every exponent is at most about 30 in
    size, so no population underflows and every post-query temperature is
    defined: checks that skip undefined temperatures still count every tuple.
    Only the sensitivity check's count depends on the draws, through its
    closed-form precondition, which holds for 21-22 % of the tuples over 24
    seeds; its floor is a tenth of the tuples.
    """
    dj = sum(math.comb(1 << n, 1 << (n - 1)) + 2 for n in range(1, max_n + 1)) * trials
    hamming = bv_max_n * (trials // 4 or 1)
    exact = lambda k: (k, k)  # noqa: E731
    return {
        "dj-kickback-population-vs-exact": exact(dj),
        "dj-kickback-delta-vs-exact": exact(dj),
        "dj-kickback-temperature-vs-exact": exact(dj),
        "dj-log-partition-vs-direct-sum": exact(dj),
        "general-mask-dj-vs-exact": exact(MASK_CASES),
        "general-mask-bv-vs-exact": exact(MASK_CASES),
        "all-ones-mask-reduction": exact(2 * MASK_CASES),
        "bv-hamming-population-vs-exact": exact(hamming),
        "bv-hamming-vs-kickback": exact(hamming),
        "mixed-query-vs-exact": exact(trials),
        "swap-query-marginal-vs-exact": exact(trials),
        "regime-sign-consistency": exact(REGIME_CASES),
        "sensitivity-closed-form-agreement": (REGIME_CASES // 10, REGIME_CASES),
        "well-definedness-flag-consistency": exact(REGIME_CASES),
        "temperature-roundtrip": exact(REGIME_CASES),
        "reset-energy-bookkeeping": exact(2 * trials),
        "detuning-eta1-vs-kickback": exact(trials),
        "flip-probability-envelope": exact(trials),
        "balanced-partition-permutation-invariance": exact(max_n),
    }


class VerifySuite:
    """``thermoquery verify`` at its default settings, over seeds drawn from the run's seed."""

    name = "verify-suite"

    def __init__(self, seed: int, toy: bool = False, workdir: str = "."):
        self.rng = np.random.default_rng(seed)
        # (--max-n, --bv-max-n, --trials); the real workload leaves them at their defaults.
        self.settings = (1, 2, 4) if toy else (3, 6, 100)
        max_n, bv_max_n, trials = self.settings
        self.options = ["--max-n", str(max_n), "--bv-max-n", str(bv_max_n), "--trials", str(trials)] if toy else []
        self.path = f"{workdir}/verify.json"

    def round(self, index: int) -> list:
        return [int(self.rng.integers(1, 2**31))]

    def run(self, seed: int):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["verify", "--seed", str(seed), "--out", self.path, *self.options])
        return code, printed.getvalue()

    def collect(self, seed, out):
        code, printed = out
        with open(self.path, encoding="utf-8") as stream:
            return code, printed, json.load(stream)

    def check(self, records) -> Verdict:
        verdict = Verdict()
        expected = expected_cases(*self.settings)
        for seed, (code, printed, report) in records:
            bad = check_verify_report(code, printed, report, seed, expected)
            if bad:
                verdict.wrong.append(f"seed {seed}: {'; '.join(bad)}")
        return verdict


def check_verify_report(code, printed, report, seed, expected) -> list[str]:
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if report.get("seed") != seed or report.get("passed") is not True:
        bad.append("report not passed for this seed")
    if not printed.rstrip().endswith(f"verification PASSED ({len(expected)}/{len(expected)} checks)"):
        bad.append("printed summary")
    checks = {c["name"]: c for c in report.get("checks", [])}
    if set(checks) != set(expected):
        bad.append(f"check names {sorted(set(checks) ^ set(expected))}")
    for name, (least, most) in expected.items():
        check = checks.get(name)
        if check is None:
            continue
        if not check["passed"] or not check["max_error"] <= check["tolerance"]:
            bad.append(f"{name} failed")
        if not least <= check["cases"] <= most:
            bad.append(f"{name} has {check['cases']} cases, expected {least}..{most}")
    return bad


# --- figures ----------------------------------------------------------------


def parse_grid(text: str) -> list[float]:
    """The CLI's value grammar: ``start:stop:count`` (inclusive) or a comma list."""
    text = text.strip()
    if ":" in text:
        start, stop, count = text.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return [float(v) for v in text.split(",") if v.strip()]


def read_output(data: bytes, fmt: str) -> tuple[dict, list[dict]]:
    """(config, rows) of a CLI figure output, with CSV cells typed back."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["config"], doc["rows"]
    config, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            if key:
                config[key] = value
        else:
            body.append(line)
    rows = []
    for row in csv.DictReader(body):
        rows.append({k: v if k in TEXT_COLUMNS else _cell(v) for k, v in row.items()})
    return config, rows


TEXT_COLUMNS = ("secret", "case")


def _cell(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _list(value) -> list[float]:
    if isinstance(value, list):
        return [float(v) for v in value]
    return [float(v) for v in value.strip("[]").split(",")]


def check_dj_kickback(config: dict, rows: list[dict]) -> list[str]:
    n = int(config["n"])
    e1, e2, omega = float(config["E1"]), float(config["E2"]), float(config["omega"])
    beta_m_values = sorted(_list(config["beta_M"]))
    beta_s_values = parse_grid(str(config["beta_S"]))
    size = 1 << n
    machines = {
        "balanced": ((e1, size // 2), (e2, size // 2)),
        "constant0": ((e2, size),),
        "constant1": ((e1, size),),
    }
    expected_keys = [(bm, bs, case) for bm in beta_m_values for bs in beta_s_values for case in sorted(machines)]
    if [(r["beta_M"], r["beta_S"], r["case"]) for r in rows] != expected_keys:
        return ["row keys differ from the echoed grid"]
    bad = []
    for row in rows:
        expected = ref.kickback(omega, row["beta_S"], row["beta_M"], machines[row["case"]])
        if not (ref.delta_ok(row["delta_p0"], expected)
                and ref.population_ok(row["p0_after"], expected.p0_after)
                and ref.beta_ok(row["beta_S_prime"], expected.beta_after)):
            bad.append(f"row {row}")
    return bad


def check_distinguishability(config: dict, rows: list[dict]) -> list[str]:
    beta_m, t = float(config["beta_M"]), float(config["t"])
    sizes = sorted(int(v) for v in _list(config["N"]))
    e1_values = sorted(parse_grid(str(config["E1_grid"])))
    e2_values = sorted(parse_grid(str(config["E2_grid"])))
    expected_keys = [(n, a, b) for n in sizes for a in e1_values for b in e2_values if a >= b]
    if [(r["N"], r["E1"], r["E2"]) for r in rows] != expected_keys:
        return ["row keys differ from the echoed grid"]
    bad = []
    mp = ref.mp
    for row in rows:
        n, e1, e2 = row["N"], mp.mpf(row["E1"]), mp.mpf(row["E2"])
        log_z1 = mp.log1p(mp.exp(-beta_m * e1))
        log_z2 = mp.log1p(mp.exp(-beta_m * e2))
        const, bal = mp.exp(-n * log_z1), mp.exp(-(n // 2) * (log_z1 + log_z2))
        lhs = const - bal if e1 != e2 else mp.mpf(0)
        chi_a = mp.exp(n * log_z1 - beta_m * (mp.mpf(n) / 2) * (e1 + e2))
        chi_b = mp.exp((n // 2) * (log_z1 + log_z2) - beta_m * n * e1)
        ok = (ref.relative_ok(row["lhs"], lhs, max(const, bal))
              and ref.relative_ok(row["chi"], chi_a - chi_b, max(chi_a, chi_b)))
        if abs(lhs - 2 * t) > 1e-12 and row["satisfied"] != bool(lhs > 2 * t):
            ok = False
        if not ok:
            bad.append(f"row {row}")
    return bad


def check_sample_complexity(config: dict, rows: list[dict]) -> list[str]:
    deltas = sorted(set(parse_grid(str(config["delta_grid"]))))
    ts = sorted(set(parse_grid(str(config["t_grid"]))))
    divergence = float(config["mixed_query_divergence"])
    if [(r["delta"], r["t"]) for r in rows] != [(d, t) for d in deltas for t in ts]:
        return ["row keys differ from the echoed grid"]
    bad = []
    for row in rows:
        bad += check_sample_row(row, divergence)
    return bad


def check_sample_row(row: dict, divergence: float) -> list[str]:
    n_star = ref.pinsker_samples(row["delta"], row["t"])
    k = ref.classical_samples(row["delta"])
    expected = {
        "n_star": n_star,
        "k_classical": k,
        "n_mixed_query": ref.chernoff_stein(row["delta"], divergence),
        "n_crossover": ref.crossover_size(n_star),
        "thermal_beats_probabilistic": n_star < k,
    }
    return [f"{key} at delta={row['delta']} t={row['t']}" for key, value in expected.items() if row[key] != value]


def check_detuning_sweep(config: dict, rows: list[dict]) -> list[str]:
    gammas = _list(config["gamma"])
    epsilon, g, omega = float(config["epsilon"]), float(config["g"]), float(config["omega"])
    beta_m = float(config["beta_M"])
    beta_s_values = sorted(parse_grid(str(config["beta_S"])))
    secrets = [format(i, "03b") for i in range(8)]
    if [(r["secret"], r["beta_S"]) for r in rows] != [(s, b) for s in secrets for b in beta_s_values]:
        return ["row keys differ from the echoed grid"]
    bad, curves = [], {}
    mp = ref.mp
    for row in rows:
        secret = row["secret"]
        gaps = [gamma * (1.0 + epsilon if bit == "1" else 1.0 - epsilon) for bit, gamma in zip(secret, gammas)]
        delta_s = mp.fsum(mp.mpf(x) for x in gaps) - omega
        eta = g * g / (g * g + delta_s * delta_s)
        expected = ref.kickback(omega, row["beta_S"], beta_m, [(x, 1) for x in gaps]).eta_beta(eta)
        curves.setdefault(secret, []).append(expected)
        if not (ref.population_ok(row["delta_s"], delta_s) and ref.population_ok(row["eta"], eta)
                and ref.beta_ok(row["beta_S_prime"], expected)):
            bad.append(f"row {row}")
    separation = min(
        abs(x - y)
        for i, a in enumerate(secrets) for b in secrets[i + 1:]
        for x, y in zip(curves[a], curves[b]) if x is not None and y is not None
    )
    if not ref.beta_ok(float(config["min_pairwise_separation"]), separation):
        bad.append("min_pairwise_separation")
    return bad


FIGURE_CHECKS = {
    "dj-kickback": check_dj_kickback,
    "distinguishability": check_distinguishability,
    "sample-complexity": check_sample_complexity,
    "detuning-sweep": check_detuning_sweep,
}


@dataclass(frozen=True)
class CliRun:
    label: str
    args: tuple
    fmt: str


@dataclass(frozen=True)
class Readout:
    label: str
    beta_m: float
    beta_s: float
    delta: float
    t: float
    truth: str  # "constant" or "balanced"
    trials: int
    seed: int


KICKBACK_N, KICKBACK_E1, KICKBACK_E2, KICKBACK_OMEGA = 2, 1.0, 0.5, 1.0


def enlarged_args(sub: str, u, points) -> list[str]:
    """Options of an enlarged figure run; ``u(lo, hi)`` draws a value,
    ``points(csv, json)`` gives the grid size for the run's format."""
    if sub == "dj-kickback":
        return [
            "--n", "3", "--e1", str(u(0.8, 1.6)), "--e2", str(u(0.2, 0.7)),
            "--beta-m", ",".join(str(u(0.2, 2.5)) for _ in range(4)),
            # The "=" form: a grid starting with a minus sign would otherwise
            # be read as an option.
            f"--beta-s={u(-1.0, 0.0)}:{u(1.5, 3.0)}:{points(161, 161)}",
            "--omega", str(u(0.5, 1.5)),
        ]
    if sub == "distinguishability":
        # Every E1 lies above every E2, so no grid pair is skipped.
        return [
            "--beta-m", str(u(0.5, 1.5)), "--n-qubits", "2,4,8,16",
            "--e1-grid", f"{u(2.05, 2.2)}:{u(2.8, 3.0)}:{points(30, 30)}",
            "--e2-grid", f"{u(0.4, 0.5)}:{u(1.8, 2.0)}:{points(30, 30)}",
            "--t", str(u(0.05, 0.3)),
        ]
    if sub == "sample-complexity":
        return [
            "--delta-grid", f"{u(0.005, 0.02)}:{u(0.2, 0.4)}:{points(40, 40)}",
            "--t-grid", f"{u(0.05, 0.1)}:{u(0.5, 0.6)}:{points(15, 15)}",
        ]
    return [
        "--gamma", ",".join(str(u(0.8, 1.5)) for _ in range(3)),
        "--epsilon", str(u(0.02, 0.08)), "--g", str(u(3.0, 5.0)),
        f"--beta-s={u(-0.5, 0.0)}:{u(2.5, 3.5)}:{points(201, 301)}",
    ]


class Figures:
    """Figure-data runs through ``cli.main`` and Monte Carlo readouts at n*."""

    name = "figures"

    def __init__(self, seed: int, toy: bool = False, workdir: str = "."):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.outputs: dict = {}
        u = lambda lo, hi: round(float(rng.uniform(lo, hi)), 6)  # noqa: E731
        points = lambda fmt, csv_points, json_points: max(  # noqa: E731
            3, (csv_points if fmt == "csv" else json_points) // (8 if toy else 1)
        )
        self.items = []
        for sub in FIGURE_CHECKS:
            for fmt in ("csv", "json"):
                self.items.append(CliRun(f"{sub} default {fmt}", (sub,), fmt))
        # Enlarged grids: the seed picks the values, the sizes are fixed, so
        # each run's cost does not depend on the seed. Their costs form a
        # ladder with the detuning-sweep CSV in the middle; two more of those
        # on other seeded configurations make that class three items per
        # round, and the median item lies in its middle.
        enlarged = [(sub, fmt) for fmt in ("csv", "json") for sub in FIGURE_CHECKS]
        enlarged += [("detuning-sweep", "csv")] * 2
        for i, (sub, fmt) in enumerate(enlarged):
            args = enlarged_args(sub, u, lambda csv_points, json_points: points(fmt, csv_points, json_points))
            self.items.append(CliRun(f"{sub} enlarged {fmt} {i}", (sub, *args), fmt))
        # Readouts are the dearest items. Their (delta, t) pairs are fixed so
        # that their cost, which grows with n*, is the same for every seed.
        trials = 200 if toy else 10_000
        for i, (delta, t) in enumerate(READOUT_PAIRS):
            self.items.append(Readout(
                f"readout {i}", u(0.5, 2.0), u(0.0, 2.0), delta, t,
                "constant" if i % 2 == 0 else "balanced", trials, int(rng.integers(1, 2**31)),
            ))

    def round(self, index: int) -> list:
        return self.items

    def run(self, item):
        if isinstance(item, CliRun):
            return cli.main([*item.args, "--format", item.fmt, "--out", self._path(item)])
        return run_readout(item)

    def _path(self, item: CliRun) -> str:
        return f"{self.workdir}/{item.label.replace(' ', '_')}.{item.fmt}"

    def collect(self, item, out):
        if not isinstance(item, CliRun):
            return out
        with open(self._path(item), "rb") as stream:
            data = stream.read()
        # Rounds repeat the same runs: keep one copy of identical outputs, so
        # memory does not grow with the number of rounds.
        data = self.outputs.setdefault((item.label, data), data)
        return out, data

    def check(self, records) -> Verdict:
        verdict = Verdict()
        checked: dict = {}
        for item, out in records:
            key = (item.label, out)  # identical outputs share one bytes object and its hash
            if key in checked:
                bad = checked[key]
            else:
                bad = checked[key] = (
                    check_cli_run(item, *out) if isinstance(item, CliRun) else check_readout(item, out)
                )
            if bad:
                verdict.wrong.append(f"{item.label}: {'; '.join(bad[:3])}")
        return verdict


# (delta, t) of the readouts; n* = 116, 87, 38, 26, 66.
READOUT_PAIRS = ((0.1, 0.1), (0.02, 0.15), (0.05, 0.2), (0.01, 0.3), (0.15, 0.12))


def readout_hypotheses(item: Readout):
    """Probe distributions after the kickback on the first balanced and the f = 1 machine."""
    balanced = next(problems.enumerate_balanced_functions(KICKBACK_N))
    constant = problems.constant_functions(KICKBACK_N)[1]
    probe = thermal.ThermalQubit(KICKBACK_OMEGA, item.beta_s)
    hyps = []
    for instance in (balanced, constant):
        oracle = thermal.build_dj_oracle(instance.function, KICKBACK_E1, KICKBACK_E2, item.beta_m)
        hyps.append(readout.BinaryDistribution(query.kickback_outcome(probe, oracle).p0_after))
    return hyps


def run_readout(item: Readout):
    balanced, constant = readout_hypotheses(item)
    n_star = readout.sample_bound_from_threshold(item.delta, item.t)
    truth = constant if item.truth == "constant" else balanced
    report = readout.monte_carlo_readout(
        truth, balanced, constant, n_star, item.trials, item.seed, delta=item.delta
    )
    return (balanced.p0, constant.p0, n_star, report.empirical_false_positive)


def check_readout(item: Readout, out) -> list[str]:
    bal_p0, const_p0, n_star, rate = out
    size = 1 << KICKBACK_N
    machines = {"balanced": ((KICKBACK_E1, size // 2), (KICKBACK_E2, size // 2)), "constant": ((KICKBACK_E1, size),)}
    bad = []
    for name, value in (("balanced", bal_p0), ("constant", const_p0)):
        expected = ref.kickback(KICKBACK_OMEGA, item.beta_s, item.beta_m, machines[name])
        if not ref.population_ok(value, expected.p0_after):
            bad.append(f"{name} hypothesis p0'")
    if n_star != ref.pinsker_samples(item.delta, item.t):
        bad.append(f"n* = {n_star}")
        return bad
    truth_p0 = const_p0 if item.truth == "constant" else bal_p0
    low, high = ref.lr_error_probability(n_star, 1.0 - truth_p0, bal_p0, const_p0, item.truth == "constant")
    if not ref.binomial_band_ok(rate, item.trials, low, high):
        bad.append(f"error rate {rate} outside the band around {low}..{high}")
    return bad


def check_cli_run(item: CliRun, code: int, data: bytes) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    config, rows = read_output(data, item.fmt)
    if config.get("subcommand") != item.args[0] or not rows:
        return ["config echo or rows missing"]
    return FIGURE_CHECKS[item.args[0]](config, rows)


def make(name: str, seed: int, toy: bool, workdir: str):
    if name == "kickback-scan":
        return KickbackScan(seed, toy)
    if name == "exact-n4":
        return ExactN4(seed, toy)
    if name == "verify-suite":
        return VerifySuite(seed, toy, workdir)
    if name == "figures":
        return Figures(seed, toy, workdir)
    raise ValueError(f"unknown workload {name!r}")
