"""Smoke test of the benchmark at toy sizes; not a timing gate.

Runs every workload end to end through run.py, runs the traced mode once,
and shows that each checker rejects a perturbed value.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _stream:
    BENCHMARK = json.load(_stream)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_every_workload_runs_and_checks_at_toy_sizes():
    proc = run_bench("--workload", "all", "--seed", "5", "--seconds", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])["workloads"]
    assert set(results) == {w["name"] for w in BENCHMARK["workloads"]}
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, result in results.items():
        assert result["correct"], (name, proc.stderr)
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
    # Toy kickback-scan rounds hold 18 curves, of which the four at
    # N = 1024 and 2048 hit the known underflow.
    scan = results["kickback-scan"]
    assert scan["failed"] * 18 == scan["attempted"] * 4
    assert all(results[w]["failed"] == 0 for w in ("exact-n4", "verify-suite", "figures"))


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "exact-n4", "--seed", "5", "--seconds", "0", "--toy", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["exactsim.build_joint_state.calls"]["value"] > 0
    assert metrics["exactsim.levels_built"]["value"] > 0
    assert metrics["problems.enumerate_balanced.calls"]["value"] == 1
    assert set(tracing.metric_units()) < set(metrics)

    with open(os.path.join(ROOT, ".bench_out", "trace-exact-n4-5.json"), encoding="utf-8") as stream:
        spans = {span[0]: span for span in json.load(stream)["spans"]}
    nested = [span for span in spans.values() if span[4] != -1]
    assert nested, "no nested spans recorded"
    for _, _, start, end, parent in nested:
        assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_fails_without_a_checkout(tmp_path):
    proc = run_bench("--workload", "figures", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- checkers reject perturbed values ---------------------------------------


@pytest.fixture(scope="module")
def scan():
    return workloads.KickbackScan(3, toy=True)


def _curve(scan, kind, size):
    return next(c for c in scan.curves if c.kind == kind and c.size == size)


def test_kickback_checker_accepts_then_rejects_perturbations(scan):
    curve = _curve(scan, "balanced", 64)
    points, expected = scan.run(curve), scan.reference(curve)
    assert workloads.check_curve(points, expected) is None

    omega, full, general, label, eta_beta, hamming = points[2]
    p0, p0_after, delta, beta_after, regime = full
    shifted = (p0, p0_after + 1e-9, delta, beta_after, regime)
    assert ("p0'", False) in workloads.check_kickback(shifted, expected[2][1])
    flipped = (p0, p0_after, delta, beta_after, "heating" if regime == "cooling" else "cooling")
    assert any(name.startswith("regime") and not explained
               for name, explained in workloads.check_kickback(flipped, expected[2][1]))
    bad = list(points)
    bad[2] = (omega, full, general, "neutral", eta_beta, hamming)
    assert workloads.check_curve(bad, expected)


def test_kickback_checker_names_only_underflow_as_known_fault(scan):
    curve = _curve(scan, "secret", 1024)
    points, expected = scan.run(curve), scan.reference(curve)
    assert workloads.check_curve(points, expected) == []
    assert all(point[1][4] == "neutral" for point in points)

    # The fault excuses only its own symptoms: a shifted p0' is still wrong.
    omega, full, general, label, eta_beta, hamming = points[3]
    p0, p0_after, delta, beta_after, regime = full
    bad = list(points)
    bad[3] = (omega, (p0, p0_after + 1e-9, delta, beta_after, regime), general, label, eta_beta, hamming)
    assert workloads.check_curve(bad, expected) == [f"beta_S={workloads.BETA_S_GRID[3]}: p0'"]


def test_exact_checker_rejects_a_shifted_population():
    exact = workloads.ExactN4(4, toy=True)
    item = exact.round(0)[0]
    out = exact.run(item)
    assert workloads.check_exact(item, out) == []
    for key in ("exact_p0_after", "analytic_p0_after"):
        assert key in workloads.check_exact(item, {**out, key: out[key] + 1e-9})


def test_sample_checkers_reject_n_star_off_by_one():
    row = {"delta": 0.1, "t": 0.1, "n_star": 116, "k_classical": 5, "n_mixed_query": 9,
           "n_crossover": 8, "thermal_beats_probabilistic": False}
    divergence = 0.28768207245178085
    assert workloads.check_sample_row(row, divergence) == []
    assert workloads.check_sample_row({**row, "n_star": 117}, divergence)
    assert ref.pinsker_samples(0.1, 0.1) == 116

    item = workloads.Readout("r", 1.0, 0.5, 0.1, 0.1, "constant", 200, 7)
    out = workloads.run_readout(item)
    assert workloads.check_readout(item, out) == []
    assert workloads.check_readout(item, (out[0], out[1], out[2] + 1, out[3]))


def test_verify_checker_rejects_a_wrong_case_count():
    expected = workloads.expected_cases(3, 6, 100)
    assert expected["dj-kickback-population-vs-exact"] == (8400, 8400)
    report = {"seed": 1, "passed": True, "checks": [
        {"name": name, "cases": most, "max_error": 0.0, "tolerance": 0.0, "passed": True}
        for name, (_, most) in expected.items()
    ]}
    printed = f"verification PASSED ({len(expected)}/{len(expected)} checks)\n"
    assert workloads.check_verify_report(0, printed, report, 1, expected) == []
    report["checks"][0]["cases"] -= 1
    assert workloads.check_verify_report(0, printed, report, 1, expected)
    report["checks"][0]["cases"] += 1
    sensitivity = next(c for c in report["checks"] if c["name"] == "sensitivity-closed-form-agreement")
    sensitivity["cases"] = 0
    assert workloads.check_verify_report(0, printed, report, 1, expected)
