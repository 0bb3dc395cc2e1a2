import csv
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoquery.verify
from thermoquery import __version__, cli
from thermoquery.cli import _emit, main, parse_values
from thermoquery.readout import distinguishability_report

# The benchmark's 50-digit closed forms, which import neither thermoquery nor numpy.
_spec = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
)
reference = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def read_csv(path):
    comments, rows = [], []
    with open(path, newline="", encoding="utf-8") as stream:
        header = None
        for line in stream:
            if line.startswith("#"):
                comments.append(line.strip())
            elif header is None:
                header = [c.strip() for c in line.strip().split(",")]
            else:
                rows.append(dict(zip(header, next(csv.reader([line])))))
    return comments, rows


def dictwriter_csv(config, fieldnames, rows):
    """The CSV form through csv.DictWriter, one dict per row (reference)."""
    stream = io.StringIO(newline="")
    stream.write(f"# thermoquery {__version__}\n")
    for key in sorted(config):
        stream.write(f"# {key} = {config[key]}\n")
    writer = csv.DictWriter(stream, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in zip(fieldnames, row)})
    return stream.getvalue()


def json_dump_reference(config, fieldnames, rows):
    document = {"version": __version__, "config": config, "rows": [dict(zip(fieldnames, r)) for r in rows]}
    return json.dumps(document, indent=2) + "\n"


def emitted(fmt, config, fieldnames, rows):
    """``_emit``'s output for ``rows`` (tuples in ``fieldnames`` order), passed as columns."""
    return emitted_columns(fmt, config, fieldnames, [[row[i] for row in rows] for i in range(len(fieldnames))])


def emitted_columns(fmt, config, fieldnames, columns):
    stream = io.StringIO(newline="")
    _emit(stream, fmt, config, fieldnames, columns)
    return stream.getvalue()


WRITER_REFERENCES = {"csv": dictwriter_csv, "json": json_dump_reference}

WRITER_CONFIG = {"subcommand": "test", "grid": [1.0, 2.5], "name": "caf\u00e9", "seed": 7}
WRITER_FIELDS = ["value", "quote\"d", "caf\u00e9", "n"]
WRITER_ROWS = [
    (None, True, False, 3),
    (math.nan, math.inf, -math.inf, -12),
    (np.float64(0.1), 1e-300, -0.0, 2**70),
    ('tab\t "quote" back\\slash\n\x01', "\u00e9t\u00e9 \u2603 \U0001d11e", "", 0),
    (0.1 + 0.2, 1.0, 5e-324, True),
]


# The argv lists of the subcommand layout and byte tests.
SUBCOMMAND_ARGVS = [
    ["dj-kickback"],
    ["dj-kickback", "--beta-m=-2:2:5", "--beta-s=-300:300:61", "--omega", "3"],
    ["distinguishability"],
    ["distinguishability", "--n-qubits", "2,4,8", "--e1-grid", "0.5:3:30", "--e2-grid", "0.4:2:30"],
    ["distinguishability", "--e1-grid", "0.1", "--e2-grid", "1,2"],
    ["sample-complexity"],
    ["sample-complexity", "--delta-grid", "0.001:0.999:40", "--t-grid", "0.001:0.99:15"],
    ["detuning-sweep"],
    ["detuning-sweep", "--beta-s=-0.5:3.5:201", "--epsilon", "0.08"],
]

OUTPUT_SHA256 = {
    ("dj-kickback", "csv"):
        "726298767cfd9596698e0c79c5b0a1f39a1dcc83663b8ba1c07e0e80b34dab2f",
    ("dj-kickback", "json"):
        "fe90ddb42ea64300aa411dcc64be3dabe93752bd31a6b76be7a0b421749494ac",
    ("dj-kickback --beta-m=-2:2:5 --beta-s=-300:300:61 --omega 3", "csv"):
        "f8de6f95e4254c74b35ed4ff37e5f91a35c3ae1ab58c3ce32b01367e893c44a7",
    ("dj-kickback --beta-m=-2:2:5 --beta-s=-300:300:61 --omega 3", "json"):
        "4c50295fa8609edd83bff0d2eeb535c8306c6c2481acb03c8b52b131fde6ed2c",
    ("distinguishability", "csv"):
        "fd48812de6ca07b6b4f152acf20a68e3b3c36edbd91421e188efda1240d588f3",
    ("distinguishability", "json"):
        "51f11e0ef214ef3d92f2a31561386a6939ad319717f71f4083cbf7d89c686beb",
    ("distinguishability --n-qubits 2,4,8 --e1-grid 0.5:3:30 --e2-grid 0.4:2:30", "csv"):
        "e9806ab4c617efe6c6cbf6a770f77c93a4e73823d12916e3a8cea3c064b93ca9",
    ("distinguishability --n-qubits 2,4,8 --e1-grid 0.5:3:30 --e2-grid 0.4:2:30", "json"):
        "3cb0e69094619ed18f5d6f87c0b8075145b5ee42f670da2b210809e81319bfbe",
    ("distinguishability --e1-grid 0.1 --e2-grid 1,2", "csv"):
        "a9cf596549f395f017b473adb5eb4a1de036263bb69479127dcffdc1bae243e8",
    ("distinguishability --e1-grid 0.1 --e2-grid 1,2", "json"):
        "c06e44d5f9ca75c59a232f50f49f89865fd617587e5728ed087fe0a02b9b7045",
    ("sample-complexity", "csv"):
        "fd880b70e0fb810ec4b2f2e2f529098d212327670f2a7cb15437a18e9838db43",
    ("sample-complexity", "json"):
        "fc51c9fb518dc826e877921713469331bea849608c2ee6a2d26573da49833d03",
    ("sample-complexity --delta-grid 0.001:0.999:40 --t-grid 0.001:0.99:15", "csv"):
        "dc44be26cb4133196faeba8070dc54f7ed75e708ddeeb0d3b6bf10002bacc5ed",
    ("sample-complexity --delta-grid 0.001:0.999:40 --t-grid 0.001:0.99:15", "json"):
        "50dbb36944bb638a33b04f01fc1b150ff54f2dca8d16c70ccd97bb634936136f",
    ("detuning-sweep", "csv"):
        "4f1e47aa7cb9f4b261efba1f90c098b3123fbc85077ec5f26ece69abd52490dd",
    ("detuning-sweep", "json"):
        "bd1cd1b5e62ea9c46a8949124e1f62bda5ef40f20fcb669d38bbebb6b3b64cb2",
    ("detuning-sweep --beta-s=-0.5:3.5:201 --epsilon 0.08", "csv"):
        "32959b0edf0c21839911cd21769c608ca9ae5f6d32b4e2b21841b8784b941c67",
    ("detuning-sweep --beta-s=-0.5:3.5:201 --epsilon 0.08", "json"):
        "434a67ebfadfe0d059e163756717b8e9c3a6a3c37206b250c2ccc7438d0be9cc",
}


class TestWriters:
    def test_json_rows_match_json_dumps(self):
        assert emitted("json", WRITER_CONFIG, WRITER_FIELDS, WRITER_ROWS) == json_dump_reference(
            WRITER_CONFIG, WRITER_FIELDS, WRITER_ROWS
        )

    def test_json_each_value_alone(self):
        for value in [v for row in WRITER_ROWS for v in row]:
            rows = [(value,)]
            assert emitted("json", WRITER_CONFIG, ["x"], rows) == json_dump_reference(WRITER_CONFIG, ["x"], rows)

    def test_json_zero_rows(self):
        out = emitted("json", WRITER_CONFIG, WRITER_FIELDS, [])
        assert out == json_dump_reference(WRITER_CONFIG, WRITER_FIELDS, [])
        assert '"rows": []' in out

    def test_json_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            emitted("json", WRITER_CONFIG, ["x"], [(object(),)])

    def test_csv_matches_dictwriter(self):
        assert emitted("csv", WRITER_CONFIG, WRITER_FIELDS, WRITER_ROWS) == dictwriter_csv(
            WRITER_CONFIG, WRITER_FIELDS, WRITER_ROWS
        )
        assert emitted("csv", WRITER_CONFIG, WRITER_FIELDS, []) == dictwriter_csv(
            WRITER_CONFIG, WRITER_FIELDS, []
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_across_chunk_boundaries(self, fmt):
        """Two full chunks and one row: the JSON commas and CSV line ends at each boundary."""
        rows = [(i * 0.5, i, f"r{i}", i % 3 == 0) for i in range(2 * cli._CHUNK_ROWS + 1)]
        assert emitted(fmt, WRITER_CONFIG, WRITER_FIELDS, rows) == WRITER_REFERENCES[fmt](
            WRITER_CONFIG, WRITER_FIELDS, rows
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_and_equal_objects_keep_their_own_text(self, fmt):
        """Cells are rendered once per object: an equal object of another text
        (-0.0 beside 0.0), or a NaN that equals nothing, keeps its own."""
        shared = 0.1 + 0.2
        equal = float(repr(shared))
        zero, negative_zero = 0.0, -0.0
        nans = [float("nan") for _ in range(3)]
        column = [shared] * 700 + [equal, zero, negative_zero, shared, *nans, negative_zero, zero, shared]
        assert equal == shared and equal is not shared
        rows = [(value, i) for i, value in enumerate(column)]
        text = emitted(fmt, WRITER_CONFIG, ["x", "i"], rows)
        assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["x", "i"], rows)
        assert text.count("-0.0") == 2 and text.count("0.30000000000000004") == 703

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_field_name_with_percent_sign(self, fmt):
        fields = ["100%", "%s", "%%d", "x"]
        rows = [(1.5, -0.0, "%s", None), (2, True, "50%", math.nan)]
        assert emitted(fmt, WRITER_CONFIG, fields, rows) == WRITER_REFERENCES[fmt](WRITER_CONFIG, fields, rows)

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=lambda argv: " ".join(argv))
    def test_subcommand_json_is_json_dump_layout(self, tmp_path, argv):
        out = tmp_path / "out.json"
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS, ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_subcommand_output_bytes(self, tmp_path, argv, fmt):
        """Every output byte of each subcommand, pinned by its SHA-256. A
        deliberate change of the output or of the version updates these."""
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[(" ".join(argv), fmt)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axis_matches_its_plain_column(self, fmt):
        """An axis writes the bytes of the column its picks spell out, for
        values of every type, both zeros and every non-finite float."""
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 2**70, -3, None, "a,\"b\"", "", True, False]
        picks = [(7 * i) % len(values) for i in range(3 * len(values))]
        spelled = [values[i] for i in picks]
        other = [float(i) for i in range(len(picks))]
        text = emitted_columns(fmt, WRITER_CONFIG, ["x", "y"], [(values, picks), other])
        assert text == emitted_columns(fmt, WRITER_CONFIG, ["x", "y"], [spelled, other])
        assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["x", "y"], list(zip(spelled, other)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axis_and_float_column_keep_each_value_text(self, fmt):
        """-0.0 beside 0.0, and a NaN or an infinity among finite floats, keep
        their own text in an axis and in a column of floats alike."""
        column = [0.0, -0.0, 1.5, math.nan, 2.0, math.inf, -0.0, -math.inf, 0.0]
        axis = ([0.0, -0.0, math.nan, math.inf], [1, 0, 2, 1, 3, 0])
        spelled = [axis[0][i] for i in axis[1]]
        for columns, rows in (([column], [(v,) for v in column]), ([axis], [(v,) for v in spelled])):
            text = emitted_columns(fmt, WRITER_CONFIG, ["x"], columns)
            assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["x"], rows)
            assert text.count("-0.0") == sum(math.copysign(1.0, v) < 0 for v, in rows if v == 0.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_json_float_chunk_with_a_non_finite_value(self, fmt):
        """A chunk of exact floats that holds one NaN, one infinity or a sum
        that overflows is written as the reference writes it."""
        for odd in (math.nan, math.inf, -math.inf, 1e308):
            column = [1e308, 0.5, odd] * 100
            rows = [(v, i) for i, v in enumerate(column)]
            text = emitted_columns(fmt, WRITER_CONFIG, ["x", "i"], [column, list(range(len(column)))])
            assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["x", "i"], rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axis_picks_across_chunk_boundaries(self, fmt):
        rows_count = 2 * cli._CHUNK_ROWS + 1
        axis = ([-0.5, "s", 3, None], [(i * i) % 4 for i in range(rows_count)])
        column = [i / 3 for i in range(rows_count)]
        rows = [(axis[0][pick], value) for pick, value in zip(axis[1], column)]
        text = emitted_columns(fmt, WRITER_CONFIG, ["a", "b"], [axis, column])
        assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["a", "b"], rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axes_with_zero_rows(self, fmt):
        columns = [([1.0, 2.0], []), (["a"], []), []]
        text = emitted_columns(fmt, WRITER_CONFIG, ["x", "y", "z"], columns)
        assert text == WRITER_REFERENCES[fmt](WRITER_CONFIG, ["x", "y", "z"], [])


class TestParseValues:
    def test_linspace(self):
        values = parse_values("0:2:5")
        assert values == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_comma_list(self):
        assert parse_values("2,1,0.5") == [2.0, 1.0, 0.5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_values("a:b:c")


class TestDJKickback:
    def test_curve_ordering_and_header(self, tmp_path):
        out = tmp_path / "kickback.csv"
        assert main(["dj-kickback", "--beta-m", "2.0", "--beta-s", "0:2:9",
                     "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        assert any("subcommand = dj-kickback" in c for c in comments)
        assert not any("seed" in c for c in comments)  # no figure draws a random number
        by_beta_s = {}
        for row in rows:
            by_beta_s.setdefault(row["beta_S"], {})[row["case"]] = float(row["beta_S_prime"])
        assert len(by_beta_s) == 9
        for values in by_beta_s.values():
            assert values["constant0"] < values["balanced"] < values["constant1"]

    def test_warm_oracle_collapses_curves(self, tmp_path):
        out = tmp_path / "warm.csv"
        assert main(["dj-kickback", "--beta-m", "0.001", "--beta-s", "0:1:11",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        by_beta_s = {}
        for row in rows:
            by_beta_s.setdefault(row["beta_S"], []).append(float(row["beta_S_prime"]))
        for values in by_beta_s.values():
            assert max(values) - min(values) < 1e-3

    def test_degenerate_gaps_identical_curves(self, tmp_path):
        out = tmp_path / "degenerate.csv"
        assert main(["dj-kickback", "--e1", "0.8", "--e2", "0.8", "--beta-m", "1.0",
                     "--beta-s", "0:1:5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        by_beta_s = {}
        for row in rows:
            by_beta_s.setdefault(row["beta_S"], set()).add(row["beta_S_prime"])
        assert all(len(values) == 1 for values in by_beta_s.values())

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dj-kickback", "--beta-s", "0:2:5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_error_exit_code(self, tmp_path):
        assert main(["dj-kickback", "--e1", "-1.0", "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["dj-kickback", "--beta-s", "junk", "--out", str(tmp_path / "y.csv")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["dj-kickback", "--beta-m", ","],
            ["dj-kickback", "--beta-s", ""],
            ["distinguishability", "--n-qubits", ","],
            ["sample-complexity", "--delta-grid", ","],
        ],
    )
    def test_empty_grid_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 1
        assert "is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert main(["dj-kickback", "--beta-s", "0:1:3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("thermoquery: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--beta-s", "--beta-m", "--omega", "--e1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input_exits_one(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["dj-kickback", "--n", "2", f"{flag}={value}", "--out", str(out)]) == 1
        # Every input is checked before the output is opened.
        assert not out.exists()
        assert "thermoquery: error:" in capsys.readouterr().err

    def test_beyond_exhaustive_enumeration(self, tmp_path):
        out = tmp_path / "n5.csv"
        assert main(["dj-kickback", "--n", "5", "--beta-m", "1,2", "--beta-s", "0:1:4",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 2 * 4

    @pytest.mark.parametrize("n", (1, 3, 10, 20, 60, 1023))
    def test_rows_match_the_reference_by_gap_counts(self, tmp_path, n):
        """Every row at the default gaps and temperatures agrees with the 50-digit
        reference on the class's (gap, count) pairs, up to n = 1023."""
        out = tmp_path / "k.csv"
        assert main(["dj-kickback", "--n", str(n), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        size = 1 << n
        machines = {
            "balanced": ((1.0, size // 2), (0.5, size // 2)),
            "constant0": ((0.5, size),),
            "constant1": ((1.0, size),),
        }
        assert len(rows) == 3 * 41 * 3
        for row in rows:
            expected = reference.kickback(1.0, float(row["beta_S"]), float(row["beta_M"]), machines[row["case"]])
            beta_after = float(row["beta_S_prime"]) if row["beta_S_prime"] else None
            assert reference.delta_ok(float(row["delta_p0"]), expected), row
            assert reference.population_ok(float(row["p0_after"]), expected.p0_after), row
            assert reference.beta_ok(beta_after, expected.beta_after), row

    def test_negative_grid_in_either_form(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["dj-kickback", "--beta-s", "-1:1:5", "--out", str(spaced)]) == 0
        assert main(["dj-kickback", "--beta-s=-1:1:5", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        for grid in ("-0.5,1", "-.5"):
            assert main(["dj-kickback", "--beta-s", grid, "--out", str(tmp_path / "x.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["dj-kickback", "--flag", "--out", str(tmp_path / "y.csv")])
        assert exc.value.code == 1


class TestDistinguishability:
    def test_diagonal_cells_are_zero(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["distinguishability", "--e1-grid", "0.5,1.0", "--e2-grid", "0.5,1.0",
                     "--n-qubits", "4", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        diagonal = [row for row in rows if row["E1"] == row["E2"]]
        assert len(diagonal) == 2
        assert all(float(row["lhs"]) == 0.0 for row in diagonal)
        assert all(float(row["lhs"]) >= 0.0 for row in rows)

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "grid.json"
        assert main(["distinguishability", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["subcommand"] == "distinguishability"
        assert {"N", "E1", "E2", "lhs", "chi", "satisfied"} <= set(data["rows"][0])

    def test_odd_machine_rejected(self, tmp_path):
        assert main(["distinguishability", "--n-qubits", "3",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_one_report_call_per_run(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return distinguishability_report(*args)

        monkeypatch.setattr(cli, "distinguishability_report", counted)
        out = tmp_path / "grid.csv"
        assert main(["distinguishability", "--n-qubits", "2,4,8", "--out", str(out)]) == 0
        assert len(calls) == 1
        _, rows = read_csv(out)
        assert len(rows) == len(calls[0][0]) > 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_with_every_e1_below_e2_is_an_empty_table(self, tmp_path, fmt):
        out = tmp_path / f"grid.{fmt}"
        assert main(["distinguishability", "--e1-grid", "0.1,0.2", "--e2-grid", "1,2",
                     "--format", fmt, "--out", str(out)]) == 0
        if fmt == "csv":
            comments, rows = read_csv(out)
            assert comments and rows == []
            assert out.read_bytes().endswith(b"\nN,E1,E2,lhs,chi,satisfied\r\n")
        else:
            data = json.loads(out.read_text())
            assert data["config"]["subcommand"] == "distinguishability" and data["rows"] == []

    @pytest.mark.parametrize("beta_m", ("-800", "-700"))
    def test_overflowing_chi_exits_one(self, tmp_path, capsys, beta_m):
        """A chi past the float range is a one-line error naming beta_M, not a traceback."""
        assert main(["distinguishability", f"--beta-m={beta_m}", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"thermoquery: error: chi overflows a double at beta_m = {float(beta_m)}\n"


class TestSampleComplexity:
    def test_reference_row_values(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(["sample-complexity", "--delta-grid", "0.1", "--t-grid", "0.1,0.5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        row = next(r for r in rows if float(r["t"]) == 0.1)
        assert int(row["n_star"]) == 116
        assert int(row["k_classical"]) == 5
        assert int(row["n_mixed_query"]) == 9
        assert int(row["n_crossover"]) == 8
        assert row["thermal_beats_probabilistic"] == "False"

    def test_default_grid_runs(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(["sample-complexity", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 20 * 7

    @pytest.mark.parametrize(
        "argv", [["--t-grid", "1e-200"], ["--t-grid", "0.3,1e-160"], ["--delta-grid", "0.1,1e-320"]]
    )
    def test_count_past_the_float_range_exits_one(self, tmp_path, capsys, argv):
        """A grid whose n* is not a finite float is one stderr line and exit 1,
        before the output is opened: no traceback and no file left behind."""
        out = tmp_path / "new.csv"
        assert main(["sample-complexity", *argv, "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("thermoquery: error: t ") and captured.err.count("\n") == 1


class TestDetuningSweep:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["detuning-sweep", "--beta-s", "0:3:13", "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        assert len(rows) == 8 * 13
        assert len({row["secret"] for row in rows}) == 8
        separation = next(
            float(c.split("=")[1]) for c in comments if "min_pairwise_separation" in c
        )
        assert separation > 0.0

    def test_zero_bias_single_curve(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert main(["detuning-sweep", "--gamma", "1.0,1.0,1.0", "--epsilon", "0.0",
                     "--beta-s", "0:2:5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        curves = {}
        for row in rows:
            curves.setdefault(row["secret"], []).append(row["beta_S_prime"])
        assert len({tuple(v) for v in curves.values()}) == 1

    def test_gamma_count_validated(self, tmp_path):
        assert main(["detuning-sweep", "--gamma", "1.0,2.0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--epsilon", "1.5"], "bias must lie in [0, 1) so both multipliers stay positive"),
            (["--g", "0"], "coupling must be positive and finite, got 0.0"),
            (["--omega=-1"], "probe gap must be positive and finite, got -1.0"),
            (["--beta-m=nan"], "machine inverse temperature must be finite"),
            (["--gamma=1,0,1"], "machine gaps must be positive and finite"),
        ],
    )
    def test_config_error_is_one_stderr_line(self, tmp_path, capsys, argv, message):
        """ExperimentConfig's ValueError reaches main, which prints it as it prints a rejected flag."""
        out = tmp_path / "x.csv"
        assert main(["detuning-sweep", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"thermoquery: error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["dj-kickback"], "kickback_shift"),
        (["distinguishability"], "distinguishability_report"),
        (["sample-complexity"], "crossover_analysis"),
        (["detuning-sweep"], "bv3_sweep"),
    ],
)
def test_figure_out_path_opened_before_the_work(tmp_path, capsys, monkeypatch, argv, work):
    def forbidden(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, work, forbidden)
    assert main(argv + ["--out", str(tmp_path / "no" / "such" / "x.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("thermoquery: error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dj-kickback", "--beta-m=1,nan"],
        ["dj-kickback", "--e2=inf"],
        ["dj-kickback", "--n", "1024"],
        ["sample-complexity", "--delta-grid=0.5,1.5"],
        ["sample-complexity", "--t-grid=nan"],
        ["detuning-sweep", "--beta-s=0,inf"],
        ["detuning-sweep", "--beta-m=nan"],
        ["distinguishability", "--beta-m=nan"],
        ["distinguishability", "--beta-m=-inf"],
        ["distinguishability", "--e1-grid=1,inf"],
        ["distinguishability", "--e2-grid=nan"],
        ["distinguishability", "--t=inf"],
        ["detuning-sweep", "--gamma=1,inf,1"],
        ["verify", "--max-n", "5", "--trials", "1"],
        ["verify", "--max-n", "1", "--bv-max-n", "30", "--trials", "4"],
        ["verify", "--bv-max-n", "20"],
        ["detuning-sweep", "--omega=inf"],
        ["dj-kickback", "--beta-s=0,nan"],
    ],
)
def test_rejected_input_leaves_the_out_path_alone(tmp_path, capsys, argv):
    """Inputs the work would reject are rejected before the output is opened."""
    out = tmp_path / "x.csv"
    out.write_bytes(b"kept\n")
    assert main(argv + ["--out", str(out)]) == 1
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr().err.startswith("thermoquery: error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["dj-kickback", "--omega", "1e308", "--beta-s=-10"],
        ["dj-kickback", "--omega", "1e308", "--beta-s", "10"],
        ["detuning-sweep", "--omega", "1e308", "--beta-s", "0:3:5"],
    ],
)
def test_overflowing_probe_exponent_exits_one(tmp_path, capsys, argv):
    """A --beta-s value whose product with --omega passes the largest double
    exits 1 naming both flags, before the output is opened: no NaN rows and
    no numpy overflow warning."""
    out = tmp_path / "x.csv"
    out.write_bytes(b"kept\n")
    assert main(argv + ["--out", str(out)]) == 1
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr() == ("", "thermoquery: error: --beta-s times --omega must be finite, got inf\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0"], "n = 0 is outside [1, 1023], where 2^n is a finite float"),
        (["--n", "1024"], "n = 1024 is outside [1, 1023], where 2^n is a finite float"),
        (["--n", "1023", "--e1", "4"], "gap total must be finite, got inf"),
        (["--n", "1023", "--beta-m=-2"], "log partition function is not finite, got inf"),
    ],
    ids=["empty", "size-overflows", "total-overflows", "log-partition-overflows"],
)
def test_dj_kickback_size_limit_is_the_float_range(tmp_path, capsys, monkeypatch, argv, message):
    """n is limited where 2^n, a class's |G| or its log Z_f stops being a
    finite float: such an n exits 1 with one line, the oracle's words for a
    machine total, before the output is opened or any kickback evaluated,
    and with no traceback."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a kickback was evaluated")

    monkeypatch.setattr(cli, "kickback_shift", forbidden)
    out = tmp_path / "p"
    out.write_bytes(b"kept\n")
    assert main(["dj-kickback", *argv, "--out", str(out)]) == 1
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr().err == f"thermoquery: error: {message}\n"


def test_failed_work_keeps_the_out_path_bytes(tmp_path, capsys):
    """An existing file is written over only once the work is done: a run
    that fails during the work leaves its bytes as they were."""
    out = tmp_path / "grid.csv"
    out.write_bytes(b"kept\n")
    assert main(["distinguishability", "--beta-m=-800", "--out", str(out)]) == 1
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr().err.startswith("thermoquery: error:")


@pytest.mark.parametrize("sub", ["sample-complexity", "verify"])
def test_out_path_may_be_a_device(capsys, sub):
    """A path that cannot be truncated, such as the null device, is written."""
    argv = [sub, "--out", os.devnull]
    if sub == "verify":
        argv += ["--max-n", "1", "--bv-max-n", "1", "--trials", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_failed_work_never_removes_the_out_path(tmp_path, monkeypatch):
    """A failure during the work leaves the path, here a symlink, in place."""
    def failing(*args, **kwargs):
        raise ValueError("the work failed")

    monkeypatch.setattr(cli, "kickback_shift", failing)
    target = tmp_path / "target.csv"
    target.write_bytes(b"")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["dj-kickback", "--out", str(link)]) == 1
    assert link.is_symlink() and target.exists()


@pytest.mark.parametrize("old", [None, b"old\n" * 25_000, b"old\n"],
                         ids=["fresh-path", "output-shorter", "output-longer"])
def test_out_path_holds_exactly_the_new_bytes(tmp_path, old):
    """A fresh path is written; an existing file is written over from its
    first byte and then cut at the output's end, so no old byte is left."""
    out = tmp_path / "table.csv"
    if old is not None:
        out.write_bytes(old)
    assert main(["sample-complexity", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_SHA256[("sample-complexity", "csv")]


def test_failure_before_writing_keeps_the_out_path_bytes(tmp_path, capsys, monkeypatch):
    """A run that fails before it writes its first byte leaves an existing
    file's bytes as they were: the file is cut only once it was written to."""
    def failing_emit(stream, *args):
        raise ValueError("the writing failed")

    monkeypatch.setattr(cli, "_emit", failing_emit)
    out = tmp_path / "grid.csv"
    out.write_bytes(b"old bytes\n" * 1000)
    assert main(["distinguishability", "--out", str(out)]) == 1
    assert out.read_bytes() == b"old bytes\n" * 1000
    assert capsys.readouterr().err == "thermoquery: error: the writing failed\n"


def test_failure_while_writing_leaves_the_new_prefix_only(tmp_path, capsys, monkeypatch):
    """A run that fails after it started writing cuts the file at the last
    byte written: the new prefix stays, the old tail does not."""
    def failing_emit(stream, *args):
        stream.write("new prefix\n")
        raise ValueError("the writing failed")

    monkeypatch.setattr(cli, "_emit", failing_emit)
    out = tmp_path / "grid.csv"
    out.write_bytes(b"old bytes\n" * 1000)
    assert main(["distinguishability", "--out", str(out)]) == 1
    assert out.read_bytes() == b"new prefix\n"
    assert capsys.readouterr().err == "thermoquery: error: the writing failed\n"


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--max-n", "2", "--bv-max-n", "2", "--trials", "4",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "verification PASSED" in captured
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["seed"] == 7

    @staticmethod
    def forbid_run(monkeypatch):
        def run_verification(**kwargs):
            raise AssertionError("the verification ran")

        monkeypatch.setattr(cli, "run_verification", run_verification)

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys, monkeypatch):
        """The output is opened before the run: nothing is computed or printed."""
        self.forbid_run(monkeypatch)
        out = tmp_path / "no" / "such" / "report.json"
        code = main(["verify", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("thermoquery: error:") and captured.err.count("\n") == 1

    def test_format_flag_is_refused(self, tmp_path, capsys, monkeypatch):
        """The report file is always JSON, so verify takes no --format:
        argparse exits 1 before the output is opened or the run starts."""
        self.forbid_run(monkeypatch)
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exited:
            main(["verify", "--format", "json", "--out", str(out)])
        assert exited.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("thermoquery: error: unrecognized arguments: --format json\n")
        assert not out.exists()

    def test_defaults_are_run_verifications(self):
        """--max-n, --bv-max-n, --trials and --seed default to run_verification's
        own defaults, whose case counts perfbench's verify-suite expects."""
        args = cli.build_parser().parse_args(["verify"])
        defaults = inspect.signature(thermoquery.verify.run_verification).parameters
        names = ("max_dj_n", "max_bv_n", "tuples_per_instance", "seed")
        assert (args.max_n, args.bv_max_n, args.trials, args.seed) == tuple(defaults[n].default for n in names)
        assert (args.max_n, args.bv_max_n, args.trials, args.seed) == (3, 6, 100, 1234)

    @pytest.mark.parametrize("flag", ["--max-n", "--bv-max-n", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_counts_below_one_exit_one(self, tmp_path, capsys, monkeypatch, flag, value):
        self.forbid_run(monkeypatch)
        out = tmp_path / "report.json"
        assert main(["verify", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"thermoquery: error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_negative_seed_exits_one_by_name(self, tmp_path, capsys):
        """The seed is checked before any section runs and before the output
        is opened: one stderr line naming it, nothing printed, an existing
        output keeps its bytes and a new one is not created."""
        out, new = tmp_path / "report.json", tmp_path / "new.json"
        out.write_bytes(b"old report\n")
        for path in (out, new):
            assert main(["verify", "--seed", "-1", "--out", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "thermoquery: error: seed must be >= 0, got -1\n"
        assert out.read_bytes() == b"old report\n"
        assert not new.exists()

    def test_report_bytes_on_stdout_and_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--max-n", "1", "--bv-max-n", "2", "--trials", "3", "--seed", "5"]
        assert main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        report = thermoquery.verify.run_verification(
            max_dj_n=1, max_bv_n=2, tuples_per_instance=3, seed=5
        )
        assert printed == "".join(line + "\n" for line in report.lines())
        expected = json.dumps({"version": __version__, "seed": 5, **report.to_dict()}, indent=2) + "\n"
        assert out.read_bytes() == expected.encode("utf-8")
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out == printed

    def test_fixed_seed_reproducible(self):
        a = thermoquery.verify.run_verification(
            max_dj_n=1, max_bv_n=2, tuples_per_instance=3, mask_cases=3, regime_cases=20, seed=5
        )
        b = thermoquery.verify.run_verification(
            max_dj_n=1, max_bv_n=2, tuples_per_instance=3, mask_cases=3, regime_cases=20, seed=5
        )
        assert a.to_dict() == b.to_dict()

    def test_detects_injected_sign_flip(self, monkeypatch):
        import dataclasses

        true_kickback = thermoquery.verify.kickback_outcome

        def corrupted(probe, oracle, mask=None):
            outcome = true_kickback(probe, oracle, mask)
            return dataclasses.replace(outcome, delta_p0=-outcome.delta_p0,
                                        p0_after=outcome.p0_before - outcome.delta_p0)

        monkeypatch.setattr(thermoquery.verify, "kickback_outcome", corrupted)
        report = thermoquery.verify.run_verification(
            max_dj_n=1, max_bv_n=2, tuples_per_instance=3, mask_cases=3, regime_cases=20, seed=5
        )
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing and failing[0].first_failure


class TestConsoleEntry:
    def test_module_invocation_and_stdout(self):
        result = subprocess.run(
            [sys.executable, "-m", "thermoquery", "sample-complexity",
             "--delta-grid", "0.1", "--t-grid", "0.1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "116" in result.stdout
        assert result.stdout.startswith("# thermoquery")

    def test_unknown_subcommand_exits_one(self):
        result = subprocess.run(
            [sys.executable, "-m", "thermoquery", "unknown-thing"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1

    @pytest.mark.parametrize("sub", ["dj-kickback", "distinguishability", "sample-complexity", "detuning-sweep"])
    def test_figures_take_no_seed(self, tmp_path, capsys, sub):
        """Only verify draws random numbers: a figure subcommand refuses
        --seed as argparse refuses any unknown flag, before --out is opened."""
        out = tmp_path / "figure.csv"
        with pytest.raises(SystemExit) as exited:
            main([sub, "--seed", "1234", "--out", str(out)])
        assert exited.value.code == 1
        assert capsys.readouterr().err.endswith("thermoquery: error: unrecognized arguments: --seed 1234\n")
        assert not out.exists()
