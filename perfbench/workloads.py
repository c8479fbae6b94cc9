"""The four benchmark workloads and the output checks run on every operation.

Each workload is a closed loop with one caller: the next public call is issued
after the previous one returns.  Inputs come from ``simgen.derive_seed(seed,
cell, rep)``; the library receives only the generated arrays or CSV files.
Only public entry points are called (``decompose``, ``evaluate_forecasts``,
``run_montecarlo``, ``cli.main`` and the generators), so the workloads survive
refactors of the internals they measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from trendfactors import cli, forecast, pipeline, simgen

EX2 = dict(r1=4, r2=6, K=2, example=2)
TOL = 1e-8

# Host speed.  On the 2-vCPU VM these bounds were set on, the same call runs up
# to twice as slowly for seconds to minutes at a time (most likely another guest
# sharing the cores; no steal time is reported), and no run length averages that
# out.
# So on the workloads with ``host_scaled`` every timed interval is bracketed by
# a fixed reference kernel, and its time is scaled to a host on which that
# kernel takes REFERENCE_S, its time on an uncontended core of that VM.  After
# a long interval the kernel is repeated for REFERENCE_SHARE of it, as one
# sample is noisy.  The raw times are reported alongside.
REFERENCE_S = 0.0105
REFERENCE_SHARE = 0.03
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_REFERENCE_MATRIX += _REFERENCE_MATRIX.T


def reference_s() -> float:
    """Time of a fixed mix of interpreter work and one small dense ``eigh``."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    np.linalg.eigh(_REFERENCE_MATRIX)
    return time.perf_counter() - t0


def reference_samples(interval_s: float) -> list[float]:
    """Reference times, repeated until they add up to REFERENCE_SHARE of the interval."""
    samples = [reference_s()]
    while sum(samples) < REFERENCE_SHARE * interval_s:
        samples.append(reference_s())
    return samples


def host_scale(samples: list[float]) -> float:
    """Factor that scales an interval bracketed by these reference times."""
    return REFERENCE_S / statistics.median(samples)


class Phase:
    """Timed calls, operation counts, output checks and samples of one phase.

    ``durations`` holds the host-scaled times of the calls that returned (the
    wall times unless ``scaled``) and ``raw_durations`` their wall times;
    ``busy_s`` (wall) and ``scaled_busy_s`` count every call, so a call that
    raises costs its time but adds no operation.
    """

    def __init__(self, scaled: bool, tracer=None):
        self.scaled = scaled
        self.tracer = tracer
        self.durations: list[float] = []
        self.raw_durations: list[float] = []
        self.busy_s = 0.0
        self.scaled_busy_s = 0.0
        self.host_slowdown: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: dict = {}
        self.samples: dict = {}
        self.errors: list[str] = []

    def call(self, ops: int, fn, *args):
        """Time one public call that performs ``ops`` operations; None if it raised."""
        self.attempted += ops
        error = None
        before = reference_samples(0.0) if self.scaled else []
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            result, error = None, exc
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        scale = 1.0
        if self.scaled:
            scale = host_scale(before + reference_samples(elapsed))
            self.host_slowdown.append(1.0 / scale)
        self.busy_s += elapsed
        self.scaled_busy_s += elapsed * scale
        if self.check("call_returned", error is None):
            self.durations.append(elapsed * scale)
            self.raw_durations.append(elapsed)
            return result
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception(error, limit=4)))
        return None

    def check(self, name: str, ok) -> bool:
        passed, total = self.checks.get(name, (0, 0))
        self.checks[name] = (passed + bool(ok), total + 1)
        return bool(ok)

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(float(value))


def check_decomposition(phase: Phase, y: np.ndarray, dec) -> bool:
    """Counts add up, [A1 A2] is orthonormal, y reconstructs, z2 is finite."""
    n, p = y.shape
    a = np.hstack([dec.A1, dec.A2])
    scale = max(1.0, float(np.abs(y).max()))
    results = [
        phase.check("counts_sum_to_p", dec.r1_hat + dec.r2_hat + dec.v_hat == p),
        phase.check("A_orthonormal",
                    a.shape == (p, p) and np.abs(a.T @ a - np.eye(p)).max() <= TOL),
        phase.check("y_reconstructs",
                    np.abs(dec.x1 @ dec.A1.T + dec.x2 @ dec.A2.T - y).max() <= TOL * scale),
        phase.check("z2_finite_shaped",
                    dec.z2.shape == (n, dec.r2_hat) and np.isfinite(dec.z2).all()),
    ]
    return all(results)


class Wide:
    """decompose on wide example-2 panels (drop loop and large eigh bound).

    A round is (2000, 500), (900, 1000), (2000, 500), each on a fresh panel.
    The (900, 1000) time follows the estimated r2, which ranges from 6 to over
    800 across seeds (about 2 to 6 s); weighting the data-independent,
    eigh-bound (2000, 500) shape twice keeps the run-to-run spread small.
    Its times are not host-scaled: the large BLAS calls slow far less than
    the reference kernel when the host is contended, so scaling by it would
    add spread (perfbench/README.md).
    """

    name = "wide"
    host_scaled = False
    SPECS = (simgen.DgpSpec(p=2000, n=500, **EX2), simgen.DgpSpec(p=900, n=1000, **EX2))
    ROUND = (0, 1, 0)  # indices into SPECS
    WARM = simgen.DgpSpec(p=60, n=300, **EX2)

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def _panels(self, r: int) -> list[np.ndarray]:
        panels = []
        for i, ci in enumerate(self.ROUND):
            rep = r * len(self.ROUND) + i
            seed = simgen.derive_seed(self.seed, ci, rep)
            panels.append(simgen.draw_panel(self.SPECS[ci], self.mixings[ci], seed)[0].data)
        return panels

    def setup(self) -> None:
        self.mixings = [simgen.draw_mixing(spec, simgen.derive_seed(self.seed, ci))
                        for ci, spec in enumerate(self.SPECS)]
        warm = simgen.derive_seed(self.seed, len(self.SPECS))
        pipeline.decompose(simgen.generate(replace(self.WARM, seed=warm))[0])

    def round(self, r: int, phase: Phase) -> None:
        for ci, y in zip(self.ROUND, self._panels(r)):
            spec = self.SPECS[ci]
            dec = phase.call(1, pipeline.decompose, y)
            if dec is None:
                continue
            fallback = bool(dec.diagnostics.get("v2_fallback"))
            phase.check("v2_no_fallback", not fallback)
            if not check_decomposition(phase, y, dec) or fallback:
                phase.failed += 1
            phase.sample("r1_hit_rate", dec.r1_hat == spec.r1)
            phase.sample("r2_hit_rate", dec.r2_hat == spec.r2)


class Forecast:
    """evaluate_forecasts on example-1 panels with p=10, n=1000 from origin 900."""

    name = "forecast"
    host_scaled = True
    SPEC = simgen.DgpSpec(p=10, n=1000, example=1)
    CONFIG = pipeline.PipelineConfig(horizons=(1, 2, 3, 4), window_start=900)
    WARM = simgen.DgpSpec(p=10, n=200, example=1)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.origins = self.SPEC.n - min(self.CONFIG.horizons) + 1 - self.CONFIG.window_start

    def _panel(self, rep: int) -> np.ndarray:
        seed = simgen.derive_seed(self.seed, 0, rep)
        return simgen.draw_panel(self.SPEC, self.mixing, seed)[0].data

    def setup(self) -> None:
        self.mixing = simgen.draw_mixing(self.SPEC, simgen.derive_seed(self.seed, 0))
        panel, _ = simgen.generate(replace(self.WARM, seed=simgen.derive_seed(self.seed, 1)))
        forecast.evaluate_forecasts(panel, replace(self.CONFIG, window_start=180))

    def round(self, r: int, phase: Phase) -> None:
        y = self._panel(r)
        report = phase.call(self.origins, forecast.evaluate_forecasts, y, self.CONFIG)
        if report is None:
            return
        horizons = self.CONFIG.horizons
        shape = (len(horizons), self.SPEC.p)
        ok = [
            phase.check("origins", all(report.origins[h] == self.origins - h + 1
                                       for h in horizons)),
            phase.check("forecasts_finite_shaped",
                        set(report.forecasts) == set(forecast.FORECAST_METHODS)
                        and all(f.shape == shape and np.isfinite(f).all()
                                for f in report.forecasts.values())),
            phase.check("fe_finite", all(np.isfinite(report.fe[m][h]) and report.fe[m][h] > 0
                                         for m in report.methods for h in horizons)),
            phase.check("rmsfe_finite_shaped",
                        all(a.shape == shape and np.isfinite(a).all()
                            for a in report.rmsfe_series.values())),
            phase.check("dm_complete", len(report.dm) == len(report.methods) - 1
                        and all(set(per_h) == set(horizons)
                                and not any(np.isnan(t.statistic) for t in per_h.values())
                                for per_h in report.dm.values())),
        ]
        if not all(ok):
            phase.failed += self.origins
        phase.sample("fe_ratio_h1", report.fe["gt"][1] / report.fe["dfar"][1])


class MonteCarlo:
    """run_montecarlo over the acceptance cells, one call per round.

    Each call runs every cell with the same number of replications, as the
    acceptance suite does (tests/test_acceptance.py, 200 per cell), scaled
    down so that a call takes about a third of a second.  The example-2 cell
    therefore takes most of the time, as it does in that suite.
    """

    name = "montecarlo"
    host_scaled = True
    METHODS = ("a*w*", "aw")
    REPS = 8  # replications per cell per call
    CELLS = (
        simgen.DgpSpec(p=6, n=200, example=1),
        simgen.DgpSpec(p=6, n=3000, example=1),
        simgen.DgpSpec(p=50, n=2000, **EX2),
    )

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.records: dict = {}  # round -> [(cell, r1 hits, r2 hits, failures)]

    def setup(self) -> None:
        simgen.run_montecarlo(self.CELLS, 1, self.METHODS, simgen.derive_seed(self.seed, 1))

    def round(self, r: int, phase: Phase) -> None:
        reps = self.REPS
        base = simgen.derive_seed(self.seed, 0, r)
        result = phase.call(reps * len(self.CELLS), simgen.run_montecarlo,
                            self.CELLS, reps, self.METHODS, base)
        if result is None:
            return
        records = []
        for ci, (spec, cell) in enumerate(zip(self.CELLS, result.cells)):
            good = reps - cell.failures
            probs = [v for per_method in cell.probs.values() for v in per_method.values()]
            ok = [
                phase.check("reps_accounted", cell.spec == spec and cell.reps == reps
                            and 0 <= cell.failures <= reps),
                phase.check("replications_succeeded", cell.failures == 0),
                phase.check("probs_in_unit_interval",
                            good == 0 or all(0.0 <= v <= 1.0 for v in probs)),
            ]
            if not all(ok):
                phase.failed += reps
                continue
            hits = [round(cell.probs["a*w*"][k] * good) for k in ("r1", "r2")]
            for name, count in zip(("r1_hit_rate", "r2_hit_rate"), hits):
                phase.samples.setdefault(name, []).extend([1.0] * count + [0.0] * (reps - count))
            records.append((ci, *hits, cell.failures))
        self.records[r] = records

    def path_mismatch(self) -> tuple[int, int]:
        """Re-draw the recorded replications and run ``decompose`` on them.

        Returns ``(mismatch, replications)``: the summed absolute difference
        between run_montecarlo's "a*w*" r1 hits, r2 hits and failures and the
        library's, over every recorded round.
        """
        mismatch = compared = 0
        for r, records in self.records.items():
            base = simgen.derive_seed(self.seed, 0, r)
            for ci, hits_r1, hits_r2, failures in records:
                spec = self.CELLS[ci]
                cell_seed = simgen.derive_seed(base, ci)
                mixing = simgen.draw_mixing(replace(spec, seed=cell_seed), cell_seed)
                lib = [0, 0, 0]
                for rep in range(self.REPS):
                    rep_seed = simgen.derive_seed(base, ci, rep)
                    panel, _ = simgen.draw_panel(replace(spec, seed=rep_seed), mixing, rep_seed)
                    try:
                        dec = pipeline.decompose(panel)
                    except Exception:  # counted as run_montecarlo counts a failed replication
                        lib[2] += 1
                        continue
                    lib[0] += dec.r1_hat == spec.r1
                    lib[1] += dec.r2_hat == spec.r2
                mismatch += sum(abs(a - b) for a, b in zip(lib, (hits_r1, hits_r2, failures)))
                compared += self.REPS
        return mismatch, compared


class Cli:
    """In-process ``trendfactors decompose`` on example-2 (300, 1000) CSVs.

    A round is one call on each of PANELS panels.  The output size follows
    each panel's estimated r2 (from about 10 to 18 MB), so one panel alone
    would make the time a function of the seed; with eight, the median call
    still followed the seeds' mean output size (IQR over median up to 0.2).
    """

    name = "cli"
    host_scaled = True
    SPEC = simgen.DgpSpec(p=300, n=1000, **EX2)
    PANELS = 12
    WARM = simgen.DgpSpec(p=20, n=200, **EX2)
    LOADINGS = ("A1", "A2", "U1", "V1", "V2")

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    @staticmethod
    def _write_panel(spec, seed: int, path: Path) -> np.ndarray:
        panel, _ = simgen.generate(replace(spec, seed=seed))
        np.savetxt(path, panel.data, delimiter=",", fmt="%.17g")
        return panel.data

    @staticmethod
    def _main(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self) -> None:
        self.panels = []  # (csv path, the same panel as an array)
        for i in range(self.PANELS):
            csv = self.work / f"panel{i}.csv"
            seed = simgen.derive_seed(self.seed, 0, i)
            self.panels.append((csv, self._write_panel(self.SPEC, seed, csv)))
        warm_csv = self.work / "warm.csv"
        self._write_panel(self.WARM, simgen.derive_seed(self.seed, 1), warm_csv)
        self._main(["decompose", str(warm_csv), "--out-dir", str(self.work / "warm")])
        shutil.rmtree(self.work / "warm")
        self.references: dict = {}  # panel index -> library decompose, made untimed on first use

    def round(self, r: int, phase: Phase) -> None:
        for i, (csv, y) in enumerate(self.panels):
            out = self.work / f"out{r}-{i}"
            code = phase.call(1, self._main, ["decompose", str(csv), "--out-dir", str(out)])
            if code is not None:
                if i not in self.references:
                    self.references[i] = pipeline.decompose(y)
                self._check(phase, out, code, self.references[i])
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, phase: Phase, out: Path, code: int, ref) -> None:
        ok = [phase.check("exit_code_0", code == 0)]
        if code == 0:
            report = json.loads((out / "decompose.json").read_text())
            counts = tuple(report[k] for k in ("r1_hat", "r2_hat", "v_hat", "K_hat"))
            ok.append(phase.check("counts_match_library",
                                  counts == (ref.r1_hat, ref.r2_hat, ref.v_hat, ref.K_hat)))
            ok.append(phase.check("counts_sum_to_p", sum(counts[:3]) == self.SPEC.p))
            ok.append(phase.check("loadings_round_trip", all(
                self._read(out / f"loadings_{name}.csv", getattr(ref, name))
                for name in self.LOADINGS)))
            phase.sample("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))
        if not all(ok):
            phase.failed += 1

    @staticmethod
    def _read(path: Path, expected: np.ndarray) -> bool:
        if expected.size == 0:
            return path.is_file()
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        return back.shape == expected.shape and np.array_equal(back, expected)


WORKLOADS = {w.name: w for w in (Wide, Forecast, MonteCarlo, Cli)}


def accuracy_cells(seed: int, reps: int) -> dict:
    """P(r2 = 6) for the example-2 cells where the r2 count breaks down."""
    grid = [simgen.DgpSpec(p=p, n=1000, **EX2) for p in (200, 300)]
    result = simgen.run_montecarlo(grid, reps, ("a*w*",), seed)
    return {f"simgen.p_r2.ex2_p{c.spec.p}_n{c.spec.n}": float(c.probs["a*w*"]["r2"])
            for c in result.cells}
