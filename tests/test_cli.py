"""CLI commands, CSV round trips, parse errors, and exit codes."""

import io
import json
import warnings

import numpy as np
import pytest

from trendfactors.cli import _config_from_args, build_parser, main, read_panel_csv, write_csv
from trendfactors.errors import CsvParseError
from trendfactors.pipeline import PipelineConfig
from trendfactors.simgen import DgpSpec, generate


class TestCsvIo:
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
        buf = io.StringIO()
        write_csv(buf, data, header=[f"s{i}" for i in range(3)])
        buf.seek(0)
        panel = read_panel_csv(buf)
        assert np.max(np.abs(panel.data - data)) <= 1e-12 * np.abs(data).max()

    def test_header_detected(self):
        buf = io.StringIO("a,b\n1,2\n3,4\n")
        panel = read_panel_csv(buf)
        assert panel.data.shape == (2, 2)

    def test_empty_file(self):
        with pytest.raises(CsvParseError):
            read_panel_csv(io.StringIO(""))

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

    def test_forecast_window_too_short_exit_1(self, example_csv, tmp_path):
        code = main(["forecast", str(example_csv), "--window-start", "300",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_benchmark_emits_rows(self, tmp_path, capsys):
        out = tmp_path / "bm"
        code = main(["benchmark", "--example", "1", "--p", "5", "--n", "150",
                     "--reps", "2", "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        text = (out / "benchmark.txt").read_text()
        assert "P(r1_hat=2)" in text
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert len(lines) > 3

    def test_benchmark_deterministic(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            assert main(["benchmark", "--p", "5", "--n", "150", "--reps", "2",
                         "--seed", "9", "--out-dir", str(out)]) == 0
            outs.append((out / "benchmark.csv").read_text())
        assert outs[0] == outs[1]

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.csv")]) == 1

    def test_bad_flag_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--definitely-not-a-flag"])
        assert exc.value.code == 1

    def test_malformed_csv_exit_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,zzz\n")
        assert main(["decompose", str(bad), "--out-dir", str(tmp_path)]) == 1

    def test_wide_panel_warns_and_completes(self, tmp_path):
        rng = np.random.default_rng(5)
        wide = tmp_path / "wide.csv"
        # n barely above the probed-lag requirement, p > n
        data = np.cumsum(rng.normal(size=(40, 45)), axis=0)
        write_csv(wide, data)
        out = tmp_path / "out"
        with pytest.warns(UserWarning):
            code = main(["decompose", str(wide), "--m", "5", "--l", "2",
                         "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "decompose.json").read_text())
        assert report["r1_hat"] + report["r2_hat"] + report["v_hat"] == 45

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
        assert [m for m in messages
                if f"{truncated} components were left out of white-noise testing" in m]

    @pytest.mark.parametrize("command", ["decompose", "forecast"])
    def test_default_flags_are_config_defaults(self, command):
        args = build_parser().parse_args([command, "panel.csv"])
        assert _config_from_args(args) == PipelineConfig()
