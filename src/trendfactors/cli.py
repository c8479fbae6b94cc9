"""Command-line interface: decompose, forecast, simulate, benchmark.

CSV panels are comma-separated with one time point per row.  Matrices are
written with no header, 17 significant digits per cell (so a round trip is
exact) and CRLF line ends; the forecast tables add a header row.  Input is
UTF-8 text with an optional byte-order mark, LF or CRLF line ends and one
optional header row; blank lines are skipped, and parse errors name the row
of the file (1-based, counting the header and blank lines).  Reports are
JSON with a top-level ``schema_version``.  ``--out-dir`` is created before
the command runs, so a run that fails can leave it empty.  Each flag's
argparse ``dest`` is the name of its :class:`PipelineConfig` or
:class:`DgpSpec` field.  Exit codes: 0 on success, 1 on argument errors,
malformed or undecodable input and paths that cannot be read or written, 2
on numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import ArgumentError, CsvParseError, NumericalError
from .forecast import FORECAST_METHODS, evaluate_forecasts
from .pipeline import PipelineConfig, decompose
from .simgen import VARIANTS, DgpSpec, generate, run_montecarlo
from .tsstats import TimeSeriesPanel

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path_or_buf, matrix: np.ndarray) -> None:
    """Write a 2-D array as CSV with round-trip-exact float formatting.

    Each cell is ``%.17g`` (the text of :func:`format_float`) and each line
    ends in CRLF, as ``csv.writer`` writes them; a 1-D input is one row.
    """
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_format = ",".join(["%.17g"] * mat.shape[1]) + "\r\n"
    lines = (row_format % tuple(row) for row in mat.tolist())
    if hasattr(path_or_buf, "write"):
        path_or_buf.writelines(lines)
    else:
        with open(path_or_buf, "w", newline="") as fh:
            fh.writelines(lines)


def read_panel_csv(path_or_buf) -> TimeSeriesPanel:
    """Parse a CSV panel, tolerating one optional header row.

    A path is read as UTF-8; a leading byte-order mark is skipped, in a path
    or a text buffer.  Cells are read as Python's ``float`` reads them;
    blank lines are skipped.  Undecodable bytes, ragged rows and non-numeric
    cells raise :class:`CsvParseError`, the last two with the offending
    row/column (1-based, counting the header and blank lines).
    """

    def _rows(fh):
        lines = iter(fh)
        first = next(lines, "").removeprefix("\ufeff")
        return list(csv.reader(itertools.chain([first], lines)))

    try:
        if hasattr(path_or_buf, "read"):
            rows = _rows(path_or_buf)
        else:
            with open(path_or_buf, newline="", encoding="utf-8") as fh:
                rows = _rows(fh)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8 text: {exc}") from None
    row_nos = [i for i, row in enumerate(rows, start=1) if any(cell.strip() for cell in row)]
    rows = [rows[i - 1] for i in row_nos]
    if not rows:
        raise CsvParseError("empty CSV input")
    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1
        if len(rows) == 1:
            raise CsvParseError("CSV has a header but no data rows")
    body, row_nos = rows[start:], row_nos[start:]
    try:
        data = np.array(body, dtype=float)
    except ValueError:
        # ragged rows and cells float() rejects both land here; report the
        # first of either in file order
        width = len(body[0])
        for row_no, row in zip(row_nos, body):
            if len(row) != width:
                raise CsvParseError(
                    f"ragged row: expected {width} columns, got {len(row)}", row=row_no
                ) from None
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric cell {cell!r}", row=row_no, column=j + 1
                    ) from None
        raise
    try:
        return TimeSeriesPanel(data)
    except ArgumentError as exc:
        raise CsvParseError(str(exc)) from None


def _config_from_args(args) -> PipelineConfig:
    # decompose has no --horizons or --window-start: those keep their defaults
    values = {f.name: getattr(args, f.name, f.default) for f in fields(PipelineConfig)}
    return PipelineConfig(**{**values, "horizons": tuple(values["horizons"])})


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig
    parser.add_argument("--k0", type=int, default=defaults.k0,
                        help="lags in the first-stage matrix")
    parser.add_argument("--j0", type=int, default=defaults.j0,
                        help="lags in the second-stage matrix")
    parser.add_argument("--c0", type=float, default=defaults.c0, help="unit-root ACF threshold")
    parser.add_argument("--l", type=int, default=defaults.l, help="gap between probed ACF lags")
    parser.add_argument("--m", type=int, default=defaults.m,
                        help="number of probed lags / portmanteau lag")
    parser.add_argument("--alpha", type=float, default=defaults.alpha,
                        help="white-noise test level")
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon,
                        help="kept fraction of components when the panel is wide")
    parser.add_argument("--K", dest="K_override", type=int, default=defaults.K_override,
                        help="override the prominent-noise count")
    parser.add_argument("--no-absolute-acf", dest="absolute_acf", action="store_false",
                        help="use signed instead of absolute autocorrelations")
    parser.add_argument("--no-reorder", dest="reorder", action="store_false",
                        help="skip p-value reordering before white-noise testing")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")


def _add_spec_flags(parser: argparse.ArgumentParser, nargs=None) -> None:
    """Generator flags; ``nargs="+"`` lets ``--p`` and ``--n`` list a grid."""
    defaults = DgpSpec
    parser.add_argument("--example", type=int, default=defaults.example, choices=(1, 2))
    parser.add_argument("--p", type=int, nargs=nargs, required=True)
    parser.add_argument("--n", type=int, nargs=nargs, required=True)
    parser.add_argument("--r1", type=int, default=defaults.r1)
    parser.add_argument("--r2", type=int, default=defaults.r2)
    parser.add_argument("--K-true", dest="K", type=int, default=defaults.K,
                        help="prominent noise directions in the generator")
    parser.add_argument("--delta", type=float, default=defaults.delta)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--out-dir", type=Path, default=Path("."))


def _spec_values(args) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(DgpSpec)}


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")


def cmd_decompose(args) -> int:
    config = _config_from_args(args)
    panel = read_panel_csv(args.input)
    dec = decompose(panel, config)
    diag = dec.diagnostics
    if diag["truncated_components"]:
        warnings.warn(
            f"stationary block is wide (p - r1 = {panel.p - dec.r1_hat} >= n = {panel.n}); "
            f"{diag['truncated_components']} components were left out of white-noise "
            f"testing and counted as white noise"
        )
    out = args.out_dir
    for name, mat in [
        ("loadings_A1", dec.A1), ("loadings_A2", dec.A2), ("loadings_U1", dec.U1),
        ("loadings_V1", dec.V1), ("loadings_V2", dec.V2),
        ("factors_x1", dec.x1), ("factors_x2", dec.x2), ("factors_z2", dec.z2),
    ]:
        write_csv(out / f"{name}.csv", mat)
    _write_json(out / "decompose.json", {
        "r1_hat": dec.r1_hat,
        "r2_hat": dec.r2_hat,
        "v_hat": dec.v_hat,
        "K_hat": dec.K_hat,
        "n": panel.n,
        "p": panel.p,
        "config": {k: v for k, v in asdict(config).items()
                   if k not in ("horizons", "window_start")},
        "diagnostics": diag,
    })
    print(f"r1={dec.r1_hat} r2={dec.r2_hat} v={dec.v_hat} K={dec.K_hat} -> {out}")
    return 0


def cmd_forecast(args) -> int:
    config = _config_from_args(args)
    panel = read_panel_csv(args.input)
    report = evaluate_forecasts(
        panel,
        config,
        methods=tuple(args.methods),
        pca_nfac_levels=args.pca_nfac_levels,
        pca_nfac_diff=args.pca_nfac_diff,
    )
    out = args.out_dir
    fe_rows = [[m] + [format_float(report.fe[m][h]) for h in report.horizons]
               for m in report.methods]
    with open(out / "fe.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + [f"h{h}" for h in report.horizons])
        writer.writerows(fe_rows)
    with open(out / "rmsfe.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "series"] + [f"h{h}" for h in report.horizons])
        for m in report.methods:
            arr = report.rmsfe_series[m]
            for i in range(arr.shape[1]):
                writer.writerow([m, i] + [format_float(v) for v in arr[:, i]])
    with open(out / "dm.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method_a", "method_b", "h", "statistic", "lrv", "pvalue"])
        for (ma, mb), per_h in report.dm.items():
            for h, res in per_h.items():
                writer.writerow([ma, mb, h, format_float(res.statistic),
                                 format_float(res.lrv), format_float(res.pvalue)])
    for m in report.methods:
        write_csv(out / f"forecasts_{m}.csv", report.forecasts[m])
    _write_json(out / "forecast.json", {
        "horizons": list(report.horizons),
        "methods": list(report.methods),
        "window_start": report.window_start,
        "origins": {str(h): c for h, c in report.origins.items()},
        "fe": {m: {str(h): report.fe[m][h] for h in report.horizons} for m in report.methods},
        "dm": {
            f"{ma}-{mb}": {
                str(h): {"statistic": r.statistic, "lrv": r.lrv, "pvalue": r.pvalue,
                         "degenerate": r.degenerate}
                for h, r in per_h.items()
            }
            for (ma, mb), per_h in report.dm.items()
        },
        "pca_nfac": report.meta,
    })
    lead = report.methods[0]
    print("FE by horizon:")
    for m in report.methods:
        cells = "  ".join(f"h{h}={report.fe[m][h]:.4g}" for h in report.horizons)
        print(f"  {m:>11}: {cells}")
    if report.dm:
        print(f"DM p-values ({lead} vs others):")
        for (ma, mb), per_h in report.dm.items():
            cells = "  ".join(f"h{h}={per_h[h].pvalue:.3g}" for h in report.horizons)
            print(f"  {ma}-{mb}: {cells}")
    return 0


def cmd_simulate(args) -> int:
    spec = DgpSpec(**_spec_values(args))
    panel, truth = generate(spec)
    out = args.out_dir
    write_csv(out / "panel.csv", panel.data)
    _write_json(out / "truth.json", {
        "spec": asdict(spec),
        "A1": truth.A1,
        "A2_U22_1": truth.A2 @ truth.U22_1,
        "phi": truth.phi,
    })
    print(f"panel {spec.n}x{spec.p} -> {out / 'panel.csv'}")
    return 0


def _format_benchmark_table(result) -> str:
    """Aligned text table: one block per (example, delta, p), columns by n."""
    from collections import defaultdict

    groups: dict = defaultdict(dict)
    for cell in result.cells:
        s = cell.spec
        groups[(s.example, s.delta, s.p)][s.n] = cell
    methods = result.methods
    label = {"r1": "P(r1_hat={r1})", "r2": "P(r2_hat={r2})", "total": "P(total=r)"}
    lines = []
    for (example, delta, p), by_n in sorted(groups.items()):
        ns = sorted(by_n)
        any_cell = by_n[ns[0]]
        head = f"example {example}  p={p}" + (f"  delta={delta:g}" if example == 2 else "")
        lines.append(head)
        method_note = methods[0] + "".join(f"({m})" for m in methods[1:2])
        lines.append(f"  statistic [{method_note}]" + "".join(f"{f'n={n}':>16}" for n in ns))
        for key in ("r1", "r2", "total"):
            name = label[key].format(r1=any_cell.spec.r1, r2=any_cell.spec.r2)
            row = f"  {name:<22}"
            for n in ns:
                v, *w = (by_n[n].probs[m][key] for m in methods[:2])
                row += (f"{v:.3f}" + "".join(f"({x:.3f})" for x in w)).rjust(16)
            lines.append(row)
        lines.append("")
    return "\n".join(lines)


def cmd_benchmark(args) -> int:
    # --seed is the base seed of the replications, not a field of the cells
    grid = [
        DgpSpec(**{**_spec_values(args), "p": p, "n": n, "seed": DgpSpec.seed})
        for p in args.p
        for n in args.n
    ]
    result = run_montecarlo(
        grid, reps=args.reps, methods=tuple(args.methods), base_seed=args.seed,
    )
    out = args.out_dir
    rows = result.rows()
    with open(out / "benchmark.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    table = _format_benchmark_table(result)
    (out / "benchmark.txt").write_text(table + "\n")
    print(table)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for
    # numerical failures, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trendfactors",
                     description="Unit-root trends, stationary factors, white noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", parents=[], help="decompose a CSV panel")
    p_dec.add_argument("input", type=Path, help="input CSV panel")
    _add_config_flags(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_fc = sub.add_parser("forecast", help="expanding-window forecast evaluation")
    p_fc.add_argument("input", type=Path, help="input CSV panel")
    _add_config_flags(p_fc)
    p_fc.add_argument("--horizons", type=int, nargs="+",
                      default=list(PipelineConfig.horizons))
    p_fc.add_argument("--window-start", type=int, default=None,
                      help="training length at the first forecast origin")
    p_fc.add_argument("--methods", nargs="+", default=list(FORECAST_METHODS),
                      choices=list(FORECAST_METHODS))
    p_fc.add_argument("--pca-nfac-levels", type=int, default=None,
                      help="factor count for the levels PCA baseline")
    p_fc.add_argument("--pca-nfac-diff", type=int, default=None,
                      help="factor count for the differences PCA baseline")
    p_fc.set_defaults(func=cmd_forecast)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel")
    _add_spec_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bm = sub.add_parser("benchmark", help="Monte Carlo benchmark over a grid")
    _add_spec_flags(p_bm, nargs="+")
    p_bm.add_argument("--reps", type=int, default=100)
    p_bm.add_argument("--methods", nargs="+", default=["a*w*", "aw"],
                      choices=list(VARIANTS))
    p_bm.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
