#!/usr/bin/env python3
"""Self-checking benchmark of thermoquery.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kickback-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own process with one compute thread (the
thread-pool variables below are fixed for every process this command
starts). Set-up is measured in ``SETUP_REPEATS`` processes and reported as
their median. Times are scaled by the machine's speed at the moment they were
taken (calibration.py); the unscaled times go to standard error. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
human-readable summary goes to standard error. See README.md in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (imports nothing of thermoquery)

WORKLOADS = ("kickback-scan", "exact-n4", "verify-suite", "figures")
SETUP_REPEATS = 3
# All processes of one workload must end within this many seconds.
BUDGET_S = 170
THREAD_POOL_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_POOL_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # No bytecode is written under src/, and hashing is the same in every run.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: str, name: str, args, phase: str, deadline: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase,
    ]
    if args.toy:
        command.append("--toy")
    try:
        proc = subprocess.run(
            command, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: workload exceeded {BUDGET_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(root: str, name: str, args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(root, name, args, "setup", deadline)["setup_s"])
    full = run_child(root, name, args, "full", deadline)
    setups.append(full["setup_s"])
    if args.trace:
        values = dict(full["layers"])
        units = tracing.metric_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        # Against the untraced items_per_s, this gives the tracing overhead.
        metrics["bench.traced_items_per_s"] = {"value": full["items_per_s"], "unit": "1/s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": full["items_per_s"],
            "item_p50_ms": full["item_p50_ms"],
            "peak_rss_mib": full["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    summary = {
        "correct": full["wrong_count"] == 0,
        "attempted": full["items"],
        "failed": full["failed"],
        "metrics": metrics,
    }
    report(name, full, summary, setups)
    return summary


def report(name: str, full: dict, summary: dict, setups: list) -> None:
    err = sys.stderr
    print(f"{name}: {full['items']} items in {full['rounds']} rounds, "
          f"{full['elapsed_s']:.2f} s timed; failed {full['failed']}; "
          f"correct {summary['correct']}", file=err)
    if len(setups) > 1:
        print(f"  set-up runs (scaled): {', '.join(f'{s:.3f}' for s in setups)} s", file=err)
    print(f"  unscaled: setup {full['setup_wall_s']:.3f} s, "
          f"items_per_s {full['wall_items_per_s']:.4f} 1/s", file=err)
    if "layers" in full:
        print(f"  traced items_per_s {full['items_per_s']:.4f} 1/s; spans in {full['trace_file']}", file=err)
    for metric, entry in summary["metrics"].items():
        if entry["value"]:
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}", file=err)
    for line in full["wrong"]:
        print(f"  WRONG {line}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermoquery", "__init__.py")):
        print("run.py: no src/thermoquery here; run from the root of a thermoquery checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(root, name, args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results)
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


def print_table(results: dict) -> None:
    metrics = list(next(iter(results.values()))["metrics"])
    header = ["workload", "attempted", "failed", "correct"] + metrics
    print(" | ".join(header))
    for name, summary in results.items():
        cells = [name, str(summary["attempted"]), str(summary["failed"]), str(summary["correct"])]
        cells += [f"{summary['metrics'][m]['value']:.6g} {summary['metrics'][m]['unit']}" for m in metrics]
        print(" | ".join(cells))


if __name__ == "__main__":
    sys.exit(main())
