"""CLI commands, CSV round trips, parse errors, and exit codes."""

import csv
import io
import json
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from trendfactors.cli import (
    _config_from_args,
    _is_number,
    _write_json,
    build_parser,
    main,
    read_panel_csv,
    write_csv,
)
from trendfactors.errors import CsvParseError, IllConditionedError
from trendfactors.forecast import evaluate_forecasts
from trendfactors.pipeline import PipelineConfig
from trendfactors.simgen import DgpSpec, derive_seed, draw_mixing, draw_panel, generate


def _reference_csv(matrix) -> bytes:
    """The cell-by-cell writer: csv.writer rows of 17-significant-digit cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in np.atleast_2d(np.asarray(matrix, dtype=float)):
        writer.writerow([f"{float(v):.17g}" for v in row])
    return buf.getvalue().encode()


_SPECIAL = np.array([
    [-0.0, 5e-324, 2.5e-310, 1e308],
    [-1e308, 1.0, -7.0, 123456789.0],
    [0.0, 2.0**52, 0.1, 1.0 / 3.0],
])
_SPANNING = (np.random.default_rng(11).normal(size=(30, 5))
             * 10.0 ** np.linspace(-8, 8, 30)[:, None])
_FORMAT_CASES = {
    "special": _SPECIAL,
    "spanning": _SPANNING,
    "non-finite": np.array([[np.nan, np.inf, -np.inf]]),
    "one-dim": np.array([1.5, -0.0, 1e-8, 3.0]),
    "no-columns": np.empty((4, 0)),
}


class TestCsvIo:
    @pytest.mark.parametrize("case", list(_FORMAT_CASES))
    def test_bytes_match_reference_writer(self, case, tmp_path):
        matrix = _FORMAT_CASES[case]
        path = tmp_path / "out.csv"
        write_csv(path, matrix)
        assert path.read_bytes() == _reference_csv(matrix)

    @pytest.mark.parametrize("case", ["special", "spanning"])
    def test_lf_and_crlf_read_identically(self, case):
        matrix = _FORMAT_CASES[case]
        buf = io.StringIO(newline="")
        write_csv(buf, matrix)
        crlf = buf.getvalue()
        assert "\r\n" in crlf
        from_crlf = read_panel_csv(io.StringIO(crlf, newline="")).data
        from_lf = read_panel_csv(io.StringIO(crlf.replace("\r\n", "\n"), newline="")).data
        assert np.array_equal(from_crlf, matrix)
        assert np.array_equal(from_lf, from_crlf)
        assert np.array_equal(np.signbit(from_lf), np.signbit(matrix))

    def test_quoted_and_padded_cells(self):
        panel = read_panel_csv(io.StringIO('"1.5", 2\n 3 ,"4e0"\n\t-0.5\t,"  7 "\n'))
        assert np.array_equal(panel.data, [[1.5, 2.0], [3.0, 4.0], [-0.5, 7.0]])

    def test_non_numeric_cell_in_wide_panel(self):
        rows = [",".join(["1.25"] * 300)] * 600
        cells = rows[499].split(",")
        cells[122] = "n/a"
        rows[499] = ",".join(cells)
        with pytest.raises(CsvParseError) as err:
            read_panel_csv(io.StringIO("\n".join(rows) + "\n"))
        assert (err.value.row, err.value.column) == (500, 123)

    def test_error_rows_count_blank_lines(self):
        with pytest.raises(CsvParseError) as err:
            read_panel_csv(io.StringIO("1,2\n\n3,oops\n"))
        assert (err.value.row, err.value.column) == (3, 2)

    def test_ragged_row_counts_blank_lines(self):
        with pytest.raises(CsvParseError) as err:
            read_panel_csv(io.StringIO("a,b\n1,2\n\n\n3\n"))
        assert err.value.row == 5

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 8, size=(40, 6))
        buf = io.StringIO()
        write_csv(buf, data)
        buf.seek(0)
        panel = read_panel_csv(buf)
        assert np.array_equal(panel.data, data)

    def test_round_trip_relative_tolerance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(25, 3))
        buf = io.StringIO("s0,s1,s2\r\n")
        buf.seek(0, io.SEEK_END)
        write_csv(buf, data)
        buf.seek(0)
        panel = read_panel_csv(buf)
        assert np.max(np.abs(panel.data - data)) <= 1e-12 * np.abs(data).max()

    def test_header_detected(self):
        buf = io.StringIO("a,b\n1,2\n3,4\n")
        panel = read_panel_csv(buf)
        assert panel.data.shape == (2, 2)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts with a BOM
        text = "\ufeff1.5,2.5\r\n3.5,4.5\r\n5.5,6.5\r\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]]
        assert np.array_equal(read_panel_csv(path).data, expected)
        assert np.array_equal(read_panel_csv(io.StringIO(text, newline="")).data, expected)
        with_header = read_panel_csv(io.StringIO("\ufeffa,b\n1,2\n3,4\n"))
        assert np.array_equal(with_header.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file(self):
        with pytest.raises(CsvParseError):
            read_panel_csv(io.StringIO(""))
        with pytest.raises(CsvParseError, match="header but no data rows"):
            read_panel_csv(io.StringIO("a,b\n\n"))

    def test_empty_cell_in_first_row_is_data(self):
        # only a non-empty cell that float() rejects makes the first row a header
        with pytest.raises(CsvParseError, match="non-numeric cell ''") as err:
            read_panel_csv(io.StringIO("1,,3\n4,5,6\n7,8,9\n"))
        assert (err.value.row, err.value.column) == (1, 2)

    def test_header_of_another_width_rejected(self):
        for text in ("a,b\n1,2,3\n4,5,6\n", "a,b,c,d\n1,2,3\n4,5,6\n"):
            with pytest.raises(CsvParseError, match="header has") as err:
                read_panel_csv(io.StringIO(text))
            assert err.value.row == 1

    def test_non_finite_cell_rejected(self):
        for cell in ("inf", "nan"):
            with pytest.raises(CsvParseError, match="non-finite"):
                read_panel_csv(io.StringIO(f"1,2\n3,{cell}\n5,6\n"))

    def test_ragged_row_location(self):
        with pytest.raises(CsvParseError) as err:
            read_panel_csv(io.StringIO("1,2\n3\n"))
        assert err.value.row == 2

    def test_non_numeric_cell_location(self):
        with pytest.raises(CsvParseError) as err:
            read_panel_csv(io.StringIO("1,2\n3,oops\n"))
        assert (err.value.row, err.value.column) == (2, 2)


@pytest.fixture()
def example_csv(tmp_path):
    panel, _ = generate(DgpSpec(p=5, n=300, example=1, seed=17))
    path = tmp_path / "panel.csv"
    write_csv(path, panel.data)
    return path


class TestCommands:
    def test_decompose_writes_report(self, example_csv, tmp_path, capsys):
        out = tmp_path / "dec"
        code = main(["decompose", str(example_csv), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "decompose.json").read_text())
        assert report["schema_version"] == 1
        assert report["r1_hat"] == 2
        assert report["r2_hat"] + report["v_hat"] == 5 - report["r1_hat"]
        a1 = read_panel_csv(out / "loadings_A1.csv")
        assert a1.data.shape == (5, report["r1_hat"])
        x1 = read_panel_csv(out / "factors_x1.csv")
        assert x1.data.shape == (300, report["r1_hat"])

    def test_decompose_roundtrip_from_simulate(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--example", "1", "--p", "6", "--n", "400",
                     "--seed", "3", "--out-dir", str(sim)]) == 0
        dec = tmp_path / "dec"
        assert main(["decompose", str(sim / "panel.csv"), "--out-dir", str(dec)]) == 0
        report = json.loads((dec / "decompose.json").read_text())
        assert report["r1_hat"] == 2

    def test_single_column_random_walk(self, tmp_path):
        rng = np.random.default_rng(77)
        walk = np.cumsum(rng.normal(size=600))[:, None]
        path = tmp_path / "walk.csv"
        write_csv(path, walk)
        out = tmp_path / "dec"
        assert main(["decompose", str(path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "decompose.json").read_text())
        assert report["r1_hat"] == 1
        assert report["r2_hat"] == 0

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--p", "5", "--n", "120", "--seed", "42",
                         "--out-dir", str(out)]) == 0
        assert (a / "panel.csv").read_text() == (b / "panel.csv").read_text()

    def test_simulate_invalid_spec_exit_1(self, tmp_path):
        code = main(["simulate", "--p", "4", "--n", "100", "--r1", "3", "--r2", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_negative_seed_exit_1(self, command, tmp_path, capsys):
        # numpy's seeding rejects a negative seed with a ValueError of its own
        code = main([command, "--p", "6", "--n", "100", "--seed", "-1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and "seed must be" in err and "Traceback" not in err

    def test_forecast_report(self, example_csv, tmp_path):
        out = tmp_path / "fc"
        code = main(["forecast", str(example_csv), "--window-start", "280",
                     "--horizons", "1", "2", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "forecast.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["fe"]) == {"gt", "dfar", "pca_levels", "pca_diff"}
        assert (out / "fe.csv").exists() and (out / "dm.csv").exists()
        assert (out / "rmsfe.csv").exists()

    @pytest.mark.parametrize("panel", ["example", "constant"])
    def test_forecast_tables_match_reference(self, panel, example_csv, tmp_path):
        # the constant panel's DM statistics are infinite
        if panel == "constant":
            example_csv = tmp_path / "const.csv"
            write_csv(example_csv, np.ones((120, 3)))
        config = PipelineConfig(horizons=(1, 2), window_start=280 if panel == "example" else 100)
        out = tmp_path / "fc"
        assert main(["forecast", str(example_csv), "--window-start", str(config.window_start),
                     "--horizons", "1", "2", "--out-dir", str(out)]) == 0
        report = evaluate_forecasts(read_panel_csv(example_csv), config)
        hs, methods = report.horizons, report.methods

        def cell(x):
            return f"{float(x):.17g}"

        tables = {
            "fe.csv": [["method", *(f"h{h}" for h in hs)]]
            + [[m, *(cell(report.fe[m][h]) for h in hs)] for m in methods],
            "rmsfe.csv": [["method", "series", *(f"h{h}" for h in hs)]]
            + [[m, i, *map(cell, report.rmsfe_series[m][:, i])]
               for m in methods for i in range(report.rmsfe_series[m].shape[1])],
            "dm.csv": [["method_a", "method_b", "h", "statistic", "lrv", "pvalue"]]
            + [[a, b, h, cell(r.statistic), cell(r.lrv), cell(r.pvalue)]
               for (a, b), per_h in report.dm.items() for h, r in per_h.items()],
        }
        for name, rows in tables.items():
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows(rows)
            assert (out / name).read_bytes() == buf.getvalue().encode()

    def test_forecast_json_is_standard_json(self, tmp_path):
        # on a constant panel every method forecasts the constant, so every loss
        # is 0 and every DM result degenerate with statistic 0
        path = tmp_path / "const.csv"
        write_csv(path, np.ones((120, 3)))
        out = tmp_path / "fc"
        assert main(["forecast", str(path), "--window-start", "100", "--out-dir", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "forecast.json").read_text(), parse_constant=refuse)
        for m in report["methods"]:
            assert np.array_equal(np.loadtxt(out / f"forecasts_{m}.csv", delimiter=","),
                                  np.ones((4, 3)))
            assert set(report["fe"][m].values()) == {0.0}
        results = [r for per_h in report["dm"].values() for r in per_h.values()]
        assert len(results) == 12
        assert all(r["statistic"] == 0.0 and r["degenerate"] is True for r in results)

    def test_non_finite_json_values_written_as_null(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json(path, {"nan": np.nan, "inf": [np.inf, -np.float64(np.inf)],
                           "finite": np.float64(2.5)})

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(path.read_text(), parse_constant=refuse)
        assert report["nan"] is None and report["inf"] == [None, None]
        assert report["finite"] == 2.5

    def test_numerical_failure_exit_2(self, example_csv, tmp_path, monkeypatch, capsys):
        from trendfactors import cli

        def fail(*args, **kwargs):
            raise IllConditionedError("V2'U1 is numerically singular")

        monkeypatch.setattr(cli, "decompose", fail)
        code = main(["decompose", str(example_csv), "--out-dir", str(tmp_path / "dec")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("numerical failure: ") and "Traceback" not in err

    def test_forecast_window_too_short_exit_1(self, example_csv, tmp_path):
        code = main(["forecast", str(example_csv), "--window-start", "300",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_forecast_window_too_short_for_the_trend_var1_exit_1(self, tmp_path, capsys):
        # the 29-row first window gives r1_hat = 28 trends, whose VAR(1) needs 31 rows
        panel = tmp_path / "walk.csv"
        write_csv(panel, np.cumsum(np.random.default_rng(0).normal(size=(40, 60)), axis=0))
        code = main(["forecast", str(panel), "--c0", "1e-6", "--l", "1", "--m", "5",
                     "--window-start", "29", "--methods", "gt", "--out-dir", str(tmp_path / "fc")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "needs r1_hat + 3 = 31 rows, got 29 rows with r1_hat = 28" in err
        assert not (tmp_path / "fc" / "forecast.json").exists()

    def test_forecast_repeated_method_exit_1(self, example_csv, tmp_path, capsys):
        code = main(["forecast", str(example_csv), "--window-start", "280",
                     "--methods", "dfar", "dfar", "--out-dir", str(tmp_path / "fc")])
        assert code == 1
        assert "each once" in capsys.readouterr().err
        assert not (tmp_path / "fc" / "forecast.json").exists()

    def test_benchmark_emits_rows(self, tmp_path, capsys):
        out = tmp_path / "bm"
        code = main(["benchmark", "--example", "1", "--p", "5", "--n", "150",
                     "--reps", "2", "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        text = (out / "benchmark.txt").read_text()
        assert "P(r1_hat=2)" in text
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert len(lines) > 3
        header = lines[0].split(",")
        assert header[header.index("failures") + 1] == "failure_reasons"

    def test_benchmark_summaries_rebuilt_from_replications(self, tmp_path, monkeypatch):
        # replications.csv has one row per cell x replication, and every count
        # probability and metric quartile of benchmark.csv is a function of it;
        # a forced failure is left out of both
        from trendfactors import simgen

        real = simgen._replication

        def fail_cell0_rep2(panel, truth, spec, *args):
            # keyed on the replication (cell 0 has n = 150, and rep 2's seed
            # draws its panel), not on the call order, which threads do not fix
            if spec.n == 150 and np.array_equal(panel.data, draw_panel(
                    spec, draw_mixing(spec, derive_seed(1, 0)), derive_seed(1, 0, 2))[0].data):
                raise IllConditionedError("forced failure")
            return real(panel, truth, spec, *args)

        monkeypatch.setattr(simgen, "_replication", fail_cell0_rep2)
        out = tmp_path / "bm"
        assert main(["benchmark", "--example", "1", "--p", "5", "--n", "150", "300",
                     "--reps", "4", "--seed", "1", "--out-dir", str(out)]) == 0
        with open(out / "replications.csv", newline="") as fh:
            reps = list(csv.DictReader(fh))
        with open(out / "benchmark.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["cell"], r["n"], r["rep"]) for r in reps] == [
            (str(ci), n, str(rep)) for ci, n in enumerate(("150", "300")) for rep in range(4)]
        errors = [""] * 8
        errors[2] = "IllConditionedError: forced failure"
        assert [r["error"] for r in reps] == errors
        assert len(summary) == 2 * (2 * 3 + 5 * 3)
        for row in summary:
            ok = [r for r in reps if r["n"] == row["n"] and not r["error"]]
            assert int(row["failures"]) == 4 - len(ok)
            method, stat, value = row["method"], row["statistic"], float(row["value"])
            if stat in ("r1", "r2", "total"):
                r1, r2 = (np.array([int(r[f"{method}_{c}_hat"]) for r in ok])
                          for c in ("r1", "r2"))
                hits = {"r1": r1 == int(row["r1"]), "r2": r2 == int(row["r2"]),
                        "total": r1 + r2 == int(row["r1"]) + int(row["r2"])}[stat]
                assert value == np.mean(hits)
            else:
                name, q = stat.rsplit("_", 1)
                quartiles = np.nanquantile([float(r[name]) for r in ok], [0.25, 0.5, 0.75])
                assert value == quartiles[("q25", "median", "q75").index(q)]

    def test_benchmark_deterministic(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["benchmark", "--p", "5", "--n", "150", "--reps", "2",
                         "--seed", "9", "--out-dir", str(out)]) == 0
            outs.append((out / "benchmark.csv").read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("delta", ["0", "0.5"])
    def test_benchmark_tables_share_one_float_format(self, delta, tmp_path):
        # benchmark.csv and replications.csv come from one table writer: every
        # float cell is its own %.17g text, and a cell's spec columns read the
        # same in both tables
        out = tmp_path / "bm"
        assert main(["benchmark", "--example", "2", "--p", "8", "--n", "150", "--delta", delta,
                     "--reps", "2", "--seed", "1", "--out-dir", str(out)]) == 0
        with open(out / "benchmark.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        with open(out / "replications.csv", newline="") as fh:
            reps = list(csv.DictReader(fh))
        floats = [c for row in summary for c in row.values() if _is_number(c)]
        assert any("." in c for c in floats)
        assert all(c == format(float(c), ".17g") for c in floats)
        spec = ("example", "p", "n", "delta", "r1", "r2", "K")
        assert ({tuple(r[k] for k in spec) for r in summary}
                == {tuple(r[k] for k in spec) for r in reps}
                == {("2", "8", "150", delta, "2", "2", "0")})

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.csv")]) == 1

    def test_directory_input_exit_1(self, tmp_path, capsys):
        assert main(["decompose", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_below_a_file_exit_1(self, example_csv, capsys):
        code = main(["simulate", "--p", "5", "--n", "100", "--out-dir", str(example_csv / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_dir_checked_before_the_run(self, example_csv, monkeypatch, capsys):
        from trendfactors import cli

        calls = []
        monkeypatch.setattr(cli, "run_montecarlo", lambda *a, **k: calls.append(a))
        code = main(["benchmark", "--p", "5", "--n", "100", "--reps", "2",
                     "--out-dir", str(example_csv / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_undecodable_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff1,2\n3,4\n")
        with pytest.raises(CsvParseError, match="not UTF-8"):
            read_panel_csv(bad)
        assert main(["decompose", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--definitely-not-a-flag"])
        assert exc.value.code == 1

    def test_malformed_csv_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,zzz\n")
        assert main(["decompose", str(bad), "--out-dir", str(tmp_path)]) == 1

    def test_wide_panel_completes_without_warnings(self, tmp_path):
        rng = np.random.default_rng(5)
        wide = tmp_path / "wide.csv"
        # n barely above the probed-lag requirement, p > n: the p - n + 1
        # null-space components are constant by construction, so they neither
        # warn as constant nor make the recovery fall back
        data = np.cumsum(rng.normal(size=(40, 45)), axis=0)
        write_csv(wide, data)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["decompose", str(wide), "--m", "5", "--l", "2",
                         "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "decompose.json").read_text())
        assert report["r1_hat"] + report["r2_hat"] + report["v_hat"] == 45
        assert report["diagnostics"]["v2_fallback"] is False

    @staticmethod
    def _decompose_recording_warnings(data, tmp_path, *flags):
        path = tmp_path / "panel.csv"
        write_csv(path, data)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["decompose", str(path), "--out-dir", str(out), *flags])
        assert code == 0
        report = json.loads((out / "decompose.json").read_text())
        return report, [str(w.message) for w in caught]

    def test_no_truncation_warning_when_stationary_block_fits(self, tmp_path):
        # n <= p, but d = p - r1 < n, so every component is tested
        spec = DgpSpec(p=260, n=258, r1=4, r2=6, K=2, example=2, seed=0)
        report, messages = self._decompose_recording_warnings(generate(spec)[0].data, tmp_path)
        assert report["p"] - report["r1_hat"] < report["n"]
        assert report["diagnostics"]["truncated_components"] == 0
        assert report["diagnostics"]["v2_fallback"] is False
        assert not [m for m in messages if "white-noise testing" in m]

    def test_truncation_warning_names_count(self, tmp_path):
        data = np.random.default_rng(6).normal(size=(40, 45))
        report, messages = self._decompose_recording_warnings(
            data, tmp_path, "--m", "5", "--l", "2")
        truncated = report["diagnostics"]["truncated_components"]
        assert report["p"] - report["r1_hat"] >= report["n"] and truncated > 0
        scanned = report["diagnostics"]["scanned_components"]
        assert 0 < scanned <= report["p"] - report["r1_hat"] - truncated
        assert [m for m in messages
                if f"{truncated} components were left out of white-noise testing" in m]

    @pytest.mark.parametrize("command", ["decompose", "forecast"])
    def test_default_flags_are_config_defaults(self, command):
        args = build_parser().parse_args([command, "panel.csv"])
        assert _config_from_args(args) == PipelineConfig()


# one non-default value per PipelineConfig field: its flags and the value
CONFIG_FLAGS = {
    "k0": (["--k0", "3"], 3),
    "j0": (["--j0", "1"], 1),
    "c0": (["--c0", "0.4"], 0.4),
    "l": (["--l", "2"], 2),
    "m": (["--m", "8"], 8),
    "alpha": (["--alpha", "0.1"], 0.1),
    "epsilon": (["--epsilon", "0.5"], 0.5),
    "K_override": (["--K", "1"], 1),
    "absolute_acf": (["--no-absolute-acf"], False),
    "reorder": (["--no-reorder"], False),
    "horizons": (["--horizons", "1", "3"], (1, 3)),
    "window_start": (["--window-start", "260"], 260),
}
FORECAST_ONLY = ("horizons", "window_start")

# one non-default generator setting per DgpSpec field, on top of SPEC_BASE
SPEC_BASE = ["--p", "8", "--n", "60"]
SPEC_FLAGS = {
    "p": (["--p", "9"], {"p": 9}),
    "n": (["--n", "70"], {"n": 70}),
    "r1": (["--r1", "3"], {"r1": 3}),
    "r2": (["--r2", "1"], {"r2": 1}),
    "K": (["--example", "2", "--K-true", "1"], {"example": 2, "K": 1}),
    "delta": (["--example", "2", "--delta", "0.3"], {"example": 2, "delta": 0.3}),
    "example": (["--example", "2"], {"example": 2}),
    "seed": (["--seed", "7"], {"seed": 7}),
}


class TestFlagBinding:
    def test_every_field_has_a_case(self):
        assert list(CONFIG_FLAGS) == [f.name for f in fields(PipelineConfig)]
        assert list(SPEC_FLAGS) == [f.name for f in fields(DgpSpec)]

    @pytest.mark.parametrize("command,field", [
        (command, field) for field in CONFIG_FLAGS for command in ("decompose", "forecast")
        if command == "forecast" or field not in FORECAST_ONLY
    ])
    def test_config_flag_sets_its_field(self, command, field, example_csv, tmp_path):
        flags, value = CONFIG_FLAGS[field]
        expected = replace(PipelineConfig(), **{field: value})
        args = build_parser().parse_args([command, str(example_csv), *flags])
        assert _config_from_args(args) == expected
        if command == "decompose":
            out = tmp_path / "dec"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main([command, str(example_csv), *flags, "--out-dir", str(out)]) == 0
            report = json.loads((out / "decompose.json").read_text())
            written = {k: v for k, v in asdict(expected).items() if k not in FORECAST_ONLY}
            assert report["config"] == written
            assert list(report["config"]) == list(written)

    @pytest.mark.parametrize("field", list(SPEC_FLAGS))
    def test_simulate_flag_sets_its_field(self, field, tmp_path):
        flags, changes = SPEC_FLAGS[field]
        expected = replace(DgpSpec(p=8, n=60), **changes)
        out = tmp_path / "sim"
        assert main(["simulate", *SPEC_BASE, *flags, "--out-dir", str(out)]) == 0
        spec = json.loads((out / "truth.json").read_text())["spec"]
        assert spec == asdict(expected)
        assert list(spec) == [f.name for f in fields(DgpSpec)]
