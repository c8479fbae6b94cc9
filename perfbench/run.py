"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in its own
process.  With ``--trace 0`` the run prints the end-to-end metrics named in
``BENCHMARK.json`` (plus ungated ones such as hit rates and the call tail);
with ``--trace 1`` it runs the workload untraced, then traced with spans
around every layer, and prints the per-layer metrics.  The last line of
standard output is the JSON result; a detail record (environment, checks,
all metrics) and, for traced runs, the spans go to ``.perfbench_out/``.

BLAS is pinned to one thread before numpy is imported, so every run is the
single-threaded baseline.  The library is imported from ``src/`` of the
checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("wide", "forecast", "montecarlo", "cli")
SETUP_REPEATS = 3
ACCURACY_REPS = 20  # replications per example-2 accuracy cell in traced montecarlo runs
UNGATED_UNITS = {
    "fail_frac": "frac", "call_tail_s": "s", "r1_hit_rate": "frac", "r2_hit_rate": "frac",
    "fe_ratio_h1": "ratio", "cli.bytes_written": "B/op", "raw.ops_per_s": "1/s",
    "raw.call_p50_s": "s", "raw.setup_s": "s", "host_slowdown": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "seed": seed,
        "commit": git_commit(),
    }


def measure(workload, seconds: float, phase):
    """Issue rounds 0, 1, ... of calls until the timed calls add up to ``seconds``."""
    start = time.perf_counter()
    for r in itertools.count():
        if phase.busy_s >= seconds or time.perf_counter() - start >= 2 * seconds + 30:
            return phase
        workload.round(r, phase)


def ops_per_s(phase) -> float:
    return (phase.attempted - phase.failed) / phase.scaled_busy_s


def ungated(phase) -> dict:
    """Workload-specific metrics as (value, samples): fail rate, tail, accuracy."""
    out = {"fail_frac": (phase.failed / phase.attempted, phase.attempted)}
    durations = sorted(phase.durations)
    if len(durations) >= 20:
        # the highest percentile that still has ten samples beyond it
        out["call_tail_s"] = (durations[-11], len(durations))
    for name, values in phase.samples.items():
        out[name] = (statistics.fmean(values), len(values))
    out["raw.ops_per_s"] = ((phase.attempted - phase.failed) / phase.busy_s, phase.attempted)
    if phase.raw_durations:
        out["raw.call_p50_s"] = (statistics.median(phase.raw_durations),
                                 len(phase.raw_durations))
    if phase.host_slowdown:
        out["host_slowdown"] = (statistics.median(phase.host_slowdown),
                                len(phase.host_slowdown))
    return out


def run_plain(wl_cls, args, work: Path, import_s: float) -> dict:
    from workloads import Phase, host_scale, reference_s, reference_samples

    reference_s()  # the first eigh call pays lazy set-up
    setups, scales = [], []
    for _ in range(SETUP_REPEATS):
        workload = wl_cls(args.seed, work)
        before = reference_samples(0.0) if workload.host_scaled else []
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        scales.append(host_scale(before + reference_samples(setups[-1]))
                      if workload.host_scaled else 1.0)
    phase = measure(workload, args.seconds, Phase(workload.host_scaled))
    n_calls = len(phase.durations)
    raw_setup_s = import_s + statistics.median(setups)
    gated = {
        "setup_s": (statistics.median(scales) * import_s
                    + statistics.median(t * k for t, k in zip(setups, scales)), SETUP_REPEATS),
        "ops_per_s": (ops_per_s(phase), phase.attempted - phase.failed),
        "call_p50_s": (statistics.median(phase.durations), n_calls),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    extra = ungated(phase)
    extra["raw.setup_s"] = (raw_setup_s, SETUP_REPEATS)
    return {"metrics": gated, "ungated": extra, "phases": {"timed": phase},
            "setup_runs_s": setups, "import_s": import_s}


def run_traced(wl_cls, args, work: Path) -> dict:
    import spans
    from workloads import MonteCarlo, Phase, accuracy_cells

    tracer = spans.Tracer()
    workload = wl_cls(args.seed, work)
    tracer.install()
    tracer.active = True
    try:
        workload.setup()
    finally:
        tracer.active = False
        tracer.uninstall()
    setup_spans, _ = tracer.take()
    # both phases run the same rounds, so they time the same inputs
    plain = measure(workload, args.seconds, Phase(workload.host_scaled))
    tracer.install()
    try:
        traced = measure(workload, args.seconds, Phase(workload.host_scaled, tracer))
    finally:
        tracer.uninstall()
    timed_spans, counters = tracer.take()

    ops = traced.attempted
    calls, self_s, covered = spans.span_totals(timed_spans)
    _, setup_self, _ = spans.span_totals(setup_spans)
    metrics = {}
    for name, _, _ in spans.HOOKS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, calls.get(name, 0))
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, calls.get(name, 0))
    for name, value in counters.items():
        metrics[name] = (value / ops, ops)
    metrics["simgen.draw_mixing.self_s"] = (setup_self.get("simgen.draw_mixing", 0.0), 1)
    bytes_written = traced.samples.get("cli.bytes_written", [])
    metrics["cli.bytes_written"] = (sum(bytes_written) / ops, len(bytes_written))
    metrics["trace.coverage_frac"] = (covered / traced.busy_s, len(traced.durations))
    metrics["trace.overhead_frac"] = (ops_per_s(plain) / ops_per_s(traced) - 1.0, ops)

    # montecarlo only, untimed and unhooked: library-vs-Monte-Carlo agreement
    # over the rounds just timed, and the example-2 accuracy cells; the other
    # workloads report 0 with a sample count of 0
    mismatch, compared, accuracy = 0, 0, {}
    if isinstance(workload, MonteCarlo):
        mismatch, compared = workload.path_mismatch()
        accuracy = accuracy_cells(args.seed, ACCURACY_REPS)
    metrics["simgen.path_mismatch"] = (mismatch / max(compared, 1), compared)
    for name in ("simgen.p_r2.ex2_p200_n1000", "simgen.p_r2.ex2_p300_n1000"):
        metrics[name] = (accuracy.get(name, 0.0), ACCURACY_REPS if accuracy else 0)
    return {"metrics": metrics, "ungated": ungated(traced),
            "phases": {"untraced": plain, "traced": traced},
            "missing_hooks": tracer.missing_hooks,
            "spans": {"setup": setup_spans, "timed": timed_spans}}


def run_one(args) -> int:
    if not (SRC / "trendfactors" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'trendfactors'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (import cost is part of set-up)
    import trendfactors
    import workloads

    import_s = time.perf_counter() - t0
    if Path(trendfactors.__file__).resolve().parent != (SRC / "trendfactors").resolve():
        print(f"perfbench: imported trendfactors from {trendfactors.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    wl_cls = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            record = run_traced(wl_cls, args, work)
        else:
            record = run_plain(wl_cls, args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    phases = record.pop("phases")
    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    checks: dict = {}
    for phase in phases.values():
        for name, (passed, total) in phase.checks.items():
            prev = checks.get(name, (0, 0))
            checks[name] = (prev[0] + passed, prev[1] + total)
    correct = all(passed == total for passed, total in checks.values())

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for m in wanted:
        value, n = record["metrics"][m["name"]]
        bound = f" bound={m['bound']}" if "bound" in m else ""
        print(f"metric {m['name']} = {value:.6g} {m['unit']} (n={n}, {m['better']} is better"
              f"{bound})")
    for name, (value, n) in sorted(record["ungated"].items()):
        print(f"ungated {name} = {value:.6g} {UNGATED_UNITS.get(name, '')} (n={n})")
    for name, (passed, total) in sorted(checks.items()):
        print(f"check {name}: {passed}/{total} pass")
    for phase_name, phase in phases.items():
        for error in phase.errors:
            print(f"error in {phase_name} phase:\n{error}", file=sys.stderr)
    print(f"ops attempted={attempted} failed={failed} correct={correct}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recorded_spans = record.pop("spans", None)
    if recorded_spans is not None:
        # per group, a list of [name, start_s, end_s, parent index or -1]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(recorded_spans))
    detail = {"workload": args.workload, "seconds": args.seconds, "env": env,
              "correct": correct, "attempted": attempted, "failed": failed,
              "checks": {k: list(v) for k, v in checks.items()},
              "calls_s": {k: p.durations for k, p in phases.items()},
              "raw_calls_s": {k: p.raw_durations for k, p in phases.items()}, **record}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=float))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, allow_nan=False))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
