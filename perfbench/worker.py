"""One workload in one process: set-up, the timed region, then the checks.

Started by ``run.py`` with one compute thread and with bytecode writing off,
from the root of a checkout whose ``src`` is on ``PYTHONPATH``. Prints one
JSON object on its last line of standard output.

``--phase setup`` stops after set-up and reports only ``setup_s``; run.py
starts several such processes to take a median of the set-up time.

Every reported time is scaled by the reference kernel of ``calibration``,
which runs after set-up and after every timed item; the wall-clock figures
are reported alongside as ``setup_wall_s`` and ``wall_items_per_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

# mpmath is imported here, before the set-up clock starts: the references are
# the benchmark's own cost, not the program's.
import reference  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "full"), default="full")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    scratch = os.path.join(os.getcwd(), ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir: str) -> dict:
    start = perf_counter()
    import thermoquery  # noqa: F401  (set-up time starts just before this import)

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    workload = workloads.make(args.workload, args.seed, args.toy, workdir)
    collect = getattr(workload, "collect", lambda item, out: out)
    current = workload.round(0)
    collect(current[0], workload.run(current[0]))  # untimed warm-up item
    setup_wall_s = perf_counter() - start
    # numpy is loaded by now, so importing the reference kernel adds nothing
    # to the set-up it scales.
    import calibration

    last_burst = calibration.burst(calibration.SETUP_SHARE * setup_wall_s)
    setup_s = setup_wall_s * calibration.factor(*last_burst)
    if args.phase == "setup":
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}

    at_setup = tracer.snapshot() if tracer else None
    latencies, wall, records, rounds = [], 0.0, [], 0
    begin = perf_counter()
    deadline = begin + args.seconds
    while True:
        # The reference kernel runs after every item; the items of a round
        # are scaled by its speed over the bursts of the round and the burst
        # just before it, so that a round of one long item is measured on
        # both sides.
        took, (units, burst_s) = [], last_burst
        for item in current:
            t0 = perf_counter()
            out = workload.run(item)
            took.append(perf_counter() - t0)
            last_burst = calibration.burst(calibration.SHARE * took[-1])
            units, burst_s = units + last_burst[0], burst_s + last_burst[1]
            records.append((item, collect(item, out)))
        scale = calibration.factor(units, burst_s)
        latencies += [t * scale for t in took]
        wall += math.fsum(took)
        rounds += 1
        if perf_counter() >= deadline:
            break
        current = workload.round(rounds)
    elapsed = perf_counter() - begin
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = workload.check(records)
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "items": len(records),
        "rounds": rounds,
        "elapsed_s": elapsed,
        # Times scaled to the nominal machine (see calibration.py).
        "items_per_s": len(records) / math.fsum(latencies),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        # The same, unscaled: the items' own wall-clock time.
        "wall_items_per_s": len(records) / wall,
        "peak_rss_mib": peak_rss_mib,
        "failed": verdict.failed,
        "wrong": verdict.wrong[:20],
        "wrong_count": len(verdict.wrong),
    }
    if tracer is not None:
        # Per-layer values cover set-up once plus one average round of the
        # timed region, so they do not grow with the run length.
        at_end = tracer.snapshot()
        result["layers"] = {
            key: at_setup[key] + (at_end[key] - at_setup[key]) / rounds for key in at_end
        }
        path = os.path.join(os.getcwd(), ".bench_out", f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        result["trace_file"] = os.path.relpath(path)
    return result


if __name__ == "__main__":
    sys.exit(main())
