"""Command-line surface: figure-data emitters and the verification suite.

Grammar: ``thermoquery <subcommand> [--param value]... --out PATH --format csv|json``;
``verify`` takes ``--seed INT`` and no ``--format``: its ``--out`` report is JSON.
Exit codes: 0 success, 1 validation error, 2 verification failure. A value
grid that starts with a minus sign may follow its flag after a space or an
``=`` (``--beta-s -1:1:5`` or ``--beta-s=-1:1:5``).

Every output starts with a config echo (CSV comment lines / a JSON "config"
object) so runs are reproducible from their artifacts alone. The figure
subcommands are deterministic under their config, and ``verify`` under its
seed and config; sweep rows are emitted in canonical sorted order.

Each subcommand passes its table by columns, not row tuples: a list of
computed values, or a grid axis (values, picks) whose values are rendered once
per run. Rows are written a few hundred at a time, each through one ``%``
template. The CSV is what ``csv.writer`` writes; the JSON is exactly the layout
of ``json.dump(..., indent=2)`` followed by a newline. No output document is
ever held as one string.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii
from typing import IO, Sequence

import numpy as np

from . import __version__
from .detuning import ExperimentConfig, bv3_sweep
from .query import kickback
from .readout import (
    chernoff_stein_samples,
    crossover_analysis,
    distinguishability_report,
    sample_bound_from_threshold,
)
from .thermal import check_finite, check_machine_totals, check_positive, check_scale, two_gap_machine
from .verify import check_run_sizes, run_verification

__all__ = ["main"]

MIXED_QUERY_DIVERGENCE = math.log(4.0 / 3.0)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Value grids such as -1:1:5, -0.5,1 and -.5 are values, not options.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # noqa: D102  (argparse hook)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_values(text: str) -> list[float]:
    """Parse ``start:stop:count`` (inclusive linspace) or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError
            return [float(v) for v in np.linspace(start, stop, count)]
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"cannot parse value grid {text!r}; use start:stop:count or v1,v2,...")
    if not values:
        raise ValueError(f"value grid {text!r} is empty")
    return values


def parse_int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"cannot parse integer list {text!r}")
    if not values:
        raise ValueError(f"integer list {text!r} is empty")
    return values


@contextlib.contextmanager
def _open_out(path: str | None):
    """Yield the stream to write: standard output for no path or '-', else ``path``.

    Subcommands validate their inputs and then open their output before the
    work, so an unwritable path fails at once. The work comes next, and only
    then the writing: the new bytes are written over the old ones from the
    first byte, and when the block exits, normally or by an exception, a
    regular file that was written to is cut at the last byte written. A run
    that fails before it writes a byte keeps the bytes of an existing file. A
    process killed while writing can leave the old tail after the new prefix;
    its exit code tells.
    """
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", newline="") as stream:
        try:
            yield stream
        finally:
            # What O_TRUNC would have done, done last: a device, a pipe or an
            # unwritten file is not truncated.
            if stat.S_ISREG(os.fstat(stream.fileno()).st_mode) and stream.tell():
                stream.truncate()


# Rows are rendered and written this many at a time, so no output document is
# ever held as one string.
_CHUNK_ROWS = 256

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# json.dumps text keyed on a value's exact type; any other type (a numpy float
# included) goes through json.dumps itself, which raises for unsupported types.
_JSON_SCALARS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value) -> str:
    if type(value) is float:
        text = float.__repr__(value)
        return _JSON_NON_FINITE.get(text, text)
    return _JSON_SCALARS.get(type(value), json.dumps)(value)


_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_text(value) -> str:
    """The field csv.writer writes: nothing for None, else the value's str,
    quoted if it holds a comma, a quote or a line break."""
    kind = type(value)
    if kind is float or kind is int or kind is bool:
        return kind.__repr__(value)  # the str of these types, which needs no quotes
    text = "" if value is None else str(value)
    return '"' + text.replace('"', '""') + '"' if _CSV_QUOTED.search(text) else text


def _chunk_texts(values: list, render) -> list[str]:
    """The texts of a chunk of a computed column: by ``float.__repr__`` in C when
    every value is an exact float and, for JSON, which spells a NaN or an
    infinity otherwise, finite (then their sum is finite, barring an overflow)."""
    if set(map(type, values)) == {float} and (render is not _json_text or math.isfinite(sum(values))):
        return list(map(float.__repr__, values))
    return list(map(render, values))


def _emit(stream: IO[str], fmt: str, config: dict, fieldnames: Sequence[str], columns: Sequence) -> None:
    """Write the config echo and the table held by ``columns``, one per field, as CSV or JSON.

    A column is a list of values, one per row; a grid axis is a tuple
    ``(values, picks)`` whose row i holds ``values[picks[i]]``, each value
    rendered once. Values must be scalars: a container would not get the
    nested indent. JSON is ``json.dump({"version", "config", "rows"}, stream,
    indent=2)`` and a newline; CSV is the comment lines and what ``csv.writer``
    writes for two or more fields (it quotes a lone empty field, which no
    subcommand writes). Each row fills one ``%`` template, ``_CHUNK_ROWS``
    rows at a time.
    """
    if fmt == "json":
        head = json.dumps({"version": __version__, "config": config}, indent=2)
        stream.write(head[: -len("\n}")] + ',\n  "rows": [')
        keys = [encode_basestring_ascii(name).replace("%", "%%") for name in fieldnames]
        template = ",\n    {" + ",".join(f"\n      {key}: %s" for key in keys) + "\n    }"
        render, skip = _json_text, 1  # the first row has no leading comma
    else:
        stream.write(f"# thermoquery {__version__}\n")
        for key in sorted(config):
            stream.write(f"# {key} = {config[key]}\n")
        template = ",".join(["%s"] * len(fieldnames)) + "\r\n"
        render, skip = _csv_text, 0
        stream.write(template % tuple(map(render, fieldnames)))
    axes = [list(map(render, column[0])) if isinstance(column, tuple) else None for column in columns]
    n_rows = len(columns[0][1] if axes[0] is not None else columns[0])
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        texts = [_chunk_texts(column[start:stop], render) if axis is None
                 else list(map(axis.__getitem__, column[1][start:stop]))
                 for axis, column in zip(axes, columns)]
        cells = tuple(itertools.chain.from_iterable(zip(*texts)))
        stream.write((template * len(texts[0]) % cells)[skip:])
        skip = 0
    if fmt == "json":
        stream.write("\n  ]\n}\n" if n_rows else "]\n}\n")


def cmd_dj_kickback(args: argparse.Namespace) -> int:
    beta_m_values = sorted(parse_values(args.beta_m))
    beta_s_values = parse_values(args.beta_s)
    for flag, value in (("--e1", args.e1), ("--e2", args.e2), ("--omega", args.omega)):
        check_positive(flag, value)
    check_finite("--beta-m", *beta_m_values)
    check_finite("--beta-s", *beta_s_values)
    check_scale(max(beta_s_values, key=abs), args.omega, "--beta-s", "--beta-s times --omega")
    if not 1 <= args.n < sys.float_info.max_exp:
        raise ValueError(f"n = {args.n} is outside [1, {sys.float_info.max_exp - 1}], "
                         "where 2^n is a finite float")
    # Each class's 2^n qubits enter only through |G| and log Z_f (one per beta_M),
    # taken from gap counts and refused as an oracle refuses them.
    size, cases = 2.0 ** args.n, ["balanced", "constant0", "constant1"]
    with np.errstate(over="ignore", invalid="ignore"):
        totals, log_zfs = two_gap_machine(np.array([size / 2, 0.0, size]), size, args.e1, args.e2,
                                          np.array(beta_m_values)[:, None])
    gap_flag = "--e1" if args.e1 >= args.e2 else "--e2"
    check_machine_totals(size, max(args.e1, args.e2), max(beta_m_values, key=abs), total=totals, log_zf=log_zfs,
                         beta_name="--beta-m", product_name=f"--beta-m times {gap_flag}")
    config = {
        "subcommand": "dj-kickback",
        "n": args.n,
        "E1": args.e1,
        "E2": args.e2,
        "omega": args.omega,
        "beta_M": beta_m_values,
        "beta_S": args.beta_s,
    }
    # Rows run over (beta_M, beta_S, case): one kickback call broadcasts over all three.
    a = (np.array(beta_s_values) * args.omega)[:, None]
    with _open_out(args.out) as stream:
        delta, _, p0_after, beta_after = kickback(a, args.omega, np.array(beta_m_values)[:, None, None],
                                                  totals, 0.0, log_zfs[:, None, :])
        picks = np.indices(delta.shape).reshape(3, -1).tolist()
        delta, p0_after, beta_after = (v.ravel().tolist() for v in (delta, p0_after, beta_after))
        columns = [(beta_m_values, picks[0]), (beta_s_values, picks[1]), (cases, picks[2]),
                   delta, p0_after, [None if b != b else b for b in beta_after]]
        _emit(stream, args.format, config,
              ["beta_M", "beta_S", "case", "delta_p0", "p0_after", "beta_S_prime"], columns)
    return 0


def cmd_distinguishability(args: argparse.Namespace) -> int:
    n_values = sorted(parse_int_list(args.n_qubits))
    e1_values = sorted(parse_values(args.e1_grid))
    e2_values = sorted(parse_values(args.e2_grid))
    if any(n < 2 or n % 2 for n in n_values):
        raise ValueError("machine sizes must be even and >= 2")
    for flag, values in (("--e1-grid", e1_values), ("--e2-grid", e2_values), ("--t", [args.t]),
                         ("--beta-m", [args.beta_m])):
        check_finite(flag, *values)
    if any(v <= 0 for v in e1_values + e2_values):
        raise ValueError("grid energies must be positive")
    if not args.t > 0:
        raise ValueError("t must be positive")
    config = {
        "subcommand": "distinguishability",
        "beta_M": args.beta_m,
        "N": n_values,
        "E1_grid": args.e1_grid,
        "E2_grid": args.e2_grid,
        "t": args.t,
    }
    # The (N, E1, E2) grid's indices in row order, with the cells E1 < E2 dropped.
    n_grid, e1_grid, e2_grid = (np.array(v, dtype=float) for v in (n_values, e1_values, e2_values))
    picks = np.indices((n_grid.size, e1_grid.size, e2_grid.size)).reshape(3, -1)
    picks = picks[:, e1_grid[picks[1]] >= e2_grid[picks[2]]]
    with _open_out(args.out) as stream:
        report = distinguishability_report(e1_grid[picks[1]], e2_grid[picks[2]], args.beta_m,
                                           n_grid[picks[0]], args.t)
        n, e1, e2 = picks.tolist()
        # satisfied is a list of bools, which pick False or True.
        columns = [(n_values, n), (e1_values, e1), (e2_values, e2), report.lhs, report.chi,
                   ((False, True), report.satisfied)]
        _emit(stream, args.format, config, ["N", "E1", "E2", "lhs", "chi", "satisfied"], columns)
    return 0


def cmd_sample_complexity(args: argparse.Namespace) -> int:
    deltas = parse_values(args.delta_grid)
    ts = parse_values(args.t_grid)
    if any(not 0.0 < v < 1.0 for v in deltas + ts):
        raise ValueError("delta and t values must lie in (0, 1)")
    # Every count is largest at the smallest delta and t, where the library
    # refuses an n* that is not a finite float; a t past 0.5 only lowers it.
    sample_bound_from_threshold(min(deltas), min(*ts, 0.5))
    config = {
        "subcommand": "sample-complexity",
        "delta_grid": args.delta_grid,
        "t_grid": args.t_grid,
        "mixed_query_divergence": MIXED_QUERY_DIVERGENCE,
    }
    with _open_out(args.out) as stream:
        table = crossover_analysis(deltas, ts)
        # Rows run over the sorted, de-duplicated (delta, t) grid; k and the
        # mixed-query count are delta's.
        n_t = len(set(ts))
        firsts = table[::n_t]
        delta, t = np.indices((len(firsts), n_t)).reshape(2, -1).tolist()
        columns = [([row.delta for row in firsts], delta), ([row.t for row in table[:n_t]], t),
                   [row.n_star for row in table], ([row.k_classical for row in firsts], delta),
                   ([chernoff_stein_samples(row.delta, MIXED_QUERY_DIVERGENCE) for row in firsts], delta),
                   [row.n_crossover for row in table],
                   ((False, True), [row.thermal_beats_probabilistic for row in table])]
        _emit(stream, args.format, config, ["delta", "t", "n_star", "k_classical", "n_mixed_query",
                                             "n_crossover", "thermal_beats_probabilistic"], columns)
    return 0


def cmd_detuning_sweep(args: argparse.Namespace) -> int:
    gammas = parse_values(args.gamma)
    if len(gammas) != 3:
        raise ValueError("exactly three machine gaps are required")
    beta_s_values = parse_values(args.beta_s)
    config_obj = ExperimentConfig(
        machine_gaps=tuple(gammas),
        bias=args.epsilon,
        coupling=args.g,
        probe_gap=args.omega,
        machine_inverse_temperature=args.beta_m,
    )
    check_finite("--beta-s", *beta_s_values)
    check_scale(max(beta_s_values, key=abs), config_obj.omega, "--beta-s", "--beta-s times --omega")
    with _open_out(args.out) as stream:
        sweep = bv3_sweep(config_obj, sorted(beta_s_values))
        # Rows run over (secret, beta_S); delta_s and eta are the secret's.
        secret, beta_s = np.indices((len(sweep.curves), len(sweep.beta_s_grid))).reshape(2, -1).tolist()
        columns = [(sweep.secrets(), secret), (sweep.beta_s_grid, beta_s), (sweep.delta_s, secret),
                   (sweep.eta, secret), list(itertools.chain.from_iterable(sweep.curves))]
        config = {
            "subcommand": "detuning-sweep",
            "gamma": gammas,
            "epsilon": args.epsilon,
            "g": args.g,
            "omega": config_obj.omega,
            "beta_M": args.beta_m,
            "beta_S": args.beta_s,
            "min_pairwise_separation": sweep.min_pairwise_separation,
        }
        _emit(stream, args.format, config,
              ["secret", "beta_S", "delta_s", "eta", "beta_S_prime"], columns)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    check_run_sizes({"--max-n": args.max_n, "--bv-max-n": args.bv_max_n, "--trials": args.trials}, args.seed)
    # The report goes to standard output; --out adds it as JSON.
    with _open_out(args.out) as stream:
        report = run_verification(
            max_dj_n=args.max_n,
            max_bv_n=args.bv_max_n,
            tuples_per_instance=args.trials,
            seed=args.seed,
        )
        for line in report.lines():
            print(line)
        if stream is not sys.stdout:
            json.dump({"version": __version__, "seed": args.seed, **report.to_dict()}, stream, indent=2)
            stream.write("\n")
    return 0 if report.passed else 2


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path ('-' or omitted for stdout)")


def _add_figure_common(parser: argparse.ArgumentParser) -> None:
    """``--out`` and ``--format``, which only the figure subcommands take;
    none of them draws a random number, so none takes ``--seed``."""
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(parser)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it.
    Its ``add_argument`` calls hold the one copy of every default."""
    parser = _Parser(prog="thermoquery",
                     description="Thermal-machine oracle queries: figure data and verification")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Kickback figure: the two-bit problem, probe gap 1.
    p = sub.add_parser("dj-kickback", help="post-query temperature curves per promise class")
    p.add_argument("--n", type=int, default=2,
                   help="function input bits, from 1 while 2^n and each class's |G| and log Z_f are "
                        "finite floats (n <= 1023): the machine enters only through its gap counts")
    p.add_argument("--e1", type=float, default=1.0, help="machine gap encoding output 1")
    p.add_argument("--e2", type=float, default=0.5, help="machine gap encoding output 0")
    p.add_argument("--beta-m", default="2.0,1.0,0.5", help="machine inverse temperatures (list or grid)")
    p.add_argument("--beta-s", default="0:2:41", help="probe inverse-temperature grid")
    p.add_argument("--omega", type=float, default=1.0)
    _add_figure_common(p)
    p.set_defaults(func=cmd_dj_kickback)

    # Grid bounds chosen so the achievable threshold spans [0, 0.5] over the
    # default machine sizes.
    p = sub.add_parser("distinguishability", help="machine ground-population gap over an energy grid")
    p.add_argument("--beta-m", type=float, default=1.0)
    p.add_argument("--n-qubits", default="2,4", help="machine sizes (comma list, even)")
    p.add_argument("--e1-grid", default="0.5:2.8:24")
    p.add_argument("--e2-grid", default="0.45:2.0:24")
    p.add_argument("--t", type=float, default=0.2)
    _add_figure_common(p)
    p.set_defaults(func=cmd_distinguishability)

    p = sub.add_parser("sample-complexity", help="thermal vs classical sample-count table")
    p.add_argument("--delta-grid", default="0.01:0.2:20")
    p.add_argument("--t-grid", default="0.1,0.2,0.3,0.4,0.5,0.55,0.589")
    _add_figure_common(p)
    p.set_defaults(func=cmd_sample_complexity)

    # The coupling sits well above the largest detuning so the suppression
    # factors stay close enough to 1 that they cannot invert the
    # partition-function ordering of the curves (which would make equal-weight
    # secrets cross).
    p = sub.add_parser("detuning-sweep", help="per-secret detuned temperature curves")
    p.add_argument("--gamma", default="1.0,1.13,1.31", help="three machine gaps")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--g", type=float, default=4.0, help="coupling strength")
    p.add_argument("--omega", type=float, default=None,
                   help="probe gap (defaults to the unbiased total machine gap)")
    p.add_argument("--beta-m", type=float, default=1.0)
    p.add_argument("--beta-s", default="0:3:61")
    _add_figure_common(p)
    p.set_defaults(func=cmd_detuning_sweep)

    # The defaults, --seed's too, are run_verification's; a test keeps them equal.
    p = sub.add_parser("verify", help="analytic formulas vs the exact diagonal simulator")
    p.add_argument("--max-n", type=int, default=3, help="largest Deutsch-Jozsa bit count")
    p.add_argument("--bv-max-n", type=int, default=6, help="largest secret-string length")
    p.add_argument("--trials", type=int, default=100, help="random tuples per instance")
    p.add_argument("--seed", type=int, default=1234)
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"thermoquery: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
