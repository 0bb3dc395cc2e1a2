"""Traced mode: wrap thermoquery's public functions and record spans and counters.

Each wrapped function ``F`` yields ``F.calls``, ``F.busy_s`` (inclusive time)
and ``F.self_s`` (time minus the wrapped calls nested inside it). A wrapper
replaces the function everywhere thermoquery's modules bind it: ``verify``
and ``cli`` import names such as ``kickback_outcome`` at import time, so the
module attribute alone would miss their calls. ``GapVector.total``,
``QueryMask.all_ones`` and ``ThermalMachineOracle.log_partition_function``
are class attributes and are wrapped on their classes.

Spans are kept in memory, up to ``MAX_SPANS``, and written out by
:meth:`Tracer.write` when the run ends; the per-function totals cover every
call, including those past the span cap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from time import perf_counter

# (metric name, module, attribute) for every wrapped module-level function.
FUNCTIONS = (
    ("thermal.build_oracle", "thermal", "build_dj_oracle"),
    ("thermal.build_oracle", "thermal", "build_bv_oracle"),
    ("thermal.build_oracle", "thermal", "build_custom_oracle"),
    ("query.kickback_outcome", "query", "kickback_outcome"),
    ("query.classify_regime", "query", "classify_regime"),
    ("query.sensitivity_check", "query", "sensitivity_check"),
    ("query.swap_query", "query", "swap_query"),
    ("problems.enumerate_balanced", "problems", "enumerate_balanced_functions"),
    ("problems.hamming_weight_population", "problems", "hamming_weight_population"),
    ("detuning.detuned_probe_temperature", "detuning", "detuned_probe_temperature"),
    ("detuning.bv3_sweep", "detuning", "bv3_sweep"),
    ("readout.monte_carlo_readout", "readout", "monte_carlo_readout"),
    ("readout.likelihood_ratio_test", "readout", "likelihood_ratio_test"),
    ("readout.distinguishability_report", "readout", "distinguishability_report"),
    ("readout.crossover_analysis", "readout", "crossover_analysis"),
    ("exactsim.build_joint_state", "exactsim", "build_joint_state"),
    ("exactsim.apply_level_exchange", "exactsim", "apply_level_exchange"),
    ("exactsim.apply_swap_with_machine_qubit", "exactsim", "apply_swap_with_machine_qubit"),
    ("exactsim.probe_marginal", "exactsim", "probe_marginal"),
    ("exactsim.mean_energy", "exactsim", "probe_mean_energy"),
    ("exactsim.mean_energy", "exactsim", "machine_mean_energy"),
    ("verify.run_verification", "verify", "run_verification"),
    ("cli.main", "cli", "main"),
)
CLASS_ATTRIBUTES = ("thermal.log_partition", "thermal.gap_total", "query.all_ones_mask")
SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in FUNCTIONS] + list(CLASS_ATTRIBUTES)))
COUNTERS = {
    "exactsim.levels_built": "count",
    "verify.cases": "count",
    "readout.trials": "count",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "query.zero_shift_evals": "count",
}
MAX_SPANS = 100_000


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced mode reports, with its unit."""
    units = {}
    for name in sorted(SPAN_NAMES):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        # One frame per open span: [span id, time spent in wrapped children].
        self._stack: list[list] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        elapsed = end - start
        total = self.totals[name]
        total[1] += elapsed
        total[2] += elapsed - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else -1))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.totals[name][0] += 1
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, perf_counter())
            if after is not None:
                after(self.counters, result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator's work happens while it is advanced, so each step is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.totals[name][0] += 1
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    frame = self._enter()
                    start = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, frame, start, perf_counter())
                    yield value

            return steps()

        return traced

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        values = {}
        for name, (calls, busy, own) in self.totals.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.busy_s"] = busy
            values[f"{name}.self_s"] = own
        values.update(self.counters)
        return values

    def write(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({**header, "dropped_spans": self.dropped,
                       "fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, stream)
            stream.write("\n")


# --- counter hooks ----------------------------------------------------------


def _count_levels(counters, state, args, kwargs) -> None:
    counters["exactsim.levels_built"] += state.size


def _count_cases(counters, report, args, kwargs) -> None:
    counters["verify.cases"] += sum(check.cases for check in report.checks)


def _count_trials(counters, report, args, kwargs) -> None:
    counters["readout.trials"] += report.trials


def _count_zero_shift(counters, outcome, args, kwargs) -> None:
    """A delta_p0 of exactly 0.0 where beta_M (2 X.G - |G|) - beta_S omega is not 0."""
    if outcome.delta_p0 != 0.0:
        return
    probe, oracle = args[0], args[1]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    gaps = oracle.gap_vector.gaps
    total = math.fsum(gaps)
    masked = total if mask is None else math.fsum(g for g, b in zip(gaps, mask.bits) if b)
    quantity = oracle.machine_inverse_temperature * (2 * masked - total) - probe.inverse_temperature * probe.gap
    if quantity != 0.0:
        counters["query.zero_shift_evals"] += 1


def _count_output(counters, code, args, kwargs) -> None:
    argv = list(args[0]) if args and args[0] is not None else []
    path = _option(argv, "--out")
    if code != 0 or path is None or path == "-" or not os.path.isfile(path):
        return
    counters["cli.bytes_written"] += os.path.getsize(path)
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    if argv and argv[0] == "verify":
        counters["cli.rows_written"] += len(json.loads(text)["checks"])
    elif _option(argv, "--format") == "json":
        counters["cli.rows_written"] += len(json.loads(text)["rows"])
    else:
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        counters["cli.rows_written"] += max(0, len(lines) - 1)


def _option(argv: list[str], flag: str) -> str | None:
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


HOOKS = {
    "exactsim.build_joint_state": _count_levels,
    "verify.run_verification": _count_cases,
    "readout.monte_carlo_readout": _count_trials,
    "query.kickback_outcome": _count_zero_shift,
    "cli.main": _count_output,
}


def install() -> Tracer:
    """Wrap every traced function in the loaded thermoquery modules."""
    from thermoquery import query, thermal

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "thermoquery" or name.startswith("thermoquery.")]
    for name, module_name, attribute in FUNCTIONS:
        original = getattr(sys.modules[f"thermoquery.{module_name}"], attribute)
        if name == "problems.enumerate_balanced":
            wrapped = tracer.wrap_generator(name, original)
        else:
            wrapped = tracer.wrap(name, original, HOOKS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    gap_total = thermal.GapVector.__dict__["total"]
    thermal.GapVector.total = property(tracer.wrap("thermal.gap_total", gap_total.fget))
    all_ones = query.QueryMask.__dict__["all_ones"]
    query.QueryMask.all_ones = classmethod(tracer.wrap("query.all_ones_mask", all_ones.__func__))
    log_partition = thermal.ThermalMachineOracle.__dict__["log_partition_function"]
    replacement = functools.cached_property(tracer.wrap("thermal.log_partition", log_partition.func))
    replacement.__set_name__(thermal.ThermalMachineOracle, "log_partition_function")
    thermal.ThermalMachineOracle.log_partition_function = replacement
    return tracer
