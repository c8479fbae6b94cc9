"""Spans around the library's layer functions, for the traced benchmark run.

Every hook wraps the function object that a consumer module looks up at call
time (``pipeline.sym_eigen``, ``forecast.decompose``, ``simgen._replication``
...), so nothing under ``src/`` changes and the untraced run executes the
library untouched.  Spans are kept in memory as ``[name, start, end, parent]``
and written out when the run ends; a layer's self time is its span minus the
spans nested inside it.

A hook whose target no longer exists (renamed or deleted by a refactor) is
skipped with a notice on stderr; its metrics then read 0 and the hook is listed
under ``missing_hooks`` in the run's detail record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


def _count_eigen(counters, args, kwargs, result):
    # dense symmetric eigendecomposition with vectors: about 9 p^3 flops
    p = result.vectors.shape[0]
    counters["tsstats.sym_eigen.flops_computed"] += 9.0 * p**3


def _count_drop(counters, args, kwargs, result):
    ordered, m = args[0], args[1]
    kept = ordered.shape[1]
    # the loop evaluates one statistic per dropped component plus the final pass
    counters["whitenoise.drop_count.steps"] += min(int(result) + 1, kept)
    counters["whitenoise.drop_count.tensor_mb_computed"] += m * kept * kept * 8 / 1e6


def _count_decompose(counters, args, kwargs, result):
    if result.diagnostics.get("v2_fallback"):
        counters["stationary.v2_fallback.count"] += 1


def _count_cells(counters, args, kwargs, result):
    counters["cli.write_csv.cells"] += np.asarray(args[1]).size


# (span name, consumer lookups "module.attribute" under trendfactors, counter)
HOOKS = (
    ("tsstats.sym_eigen",
     ("pipeline.sym_eigen", "stationary.sym_eigen", "unitroot.sym_eigen",
      "simgen.sym_eigen", "forecast.sym_eigen"), _count_eigen),
    ("unitroot.build_M1", ("pipeline.build_M1", "unitroot.build_M1", "simgen.build_M1"), None),
    ("unitroot.acf_profile",
     ("pipeline.acf_profile", "unitroot.acf_profile", "simgen.acf_profile"), None),
    ("stationary.build_M2", ("pipeline.build_M2", "simgen.build_M2"), None),
    ("stationary.projected_S", ("pipeline.projected_S", "simgen.projected_S"), None),
    ("stationary.estimate_V2", ("pipeline.estimate_V2", "simgen.estimate_V2"), None),
    ("stationary.recover_z2", ("pipeline.recover_z2", "simgen.recover_z2"), None),
    ("whitenoise.lb_order", ("pipeline.lb_order", "whitenoise.lb_order"), None),
    ("whitenoise.ljung_box",
     ("pipeline.ljung_box_pvalues", "simgen.ljung_box_pvalues",
      "whitenoise.ljung_box_pvalues"), None),
    ("whitenoise.r2_small",
     ("pipeline.estimate_r2_small", "simgen.estimate_r2_small"), None),
    ("whitenoise.drop_count", ("pipeline._drop_count", "whitenoise._drop_count"), _count_drop),
    ("pipeline.decompose",
     ("pipeline.decompose", "forecast.decompose", "cli.decompose"), _count_decompose),
    ("forecast.gt", ("forecast._gt_forecast",), None),
    ("forecast.baseline_dfar", ("forecast.baseline_dfar",), None),
    ("forecast.baseline_pca", ("forecast.baseline_pca",), None),
    ("forecast.dm_test", ("forecast.dm_test",), None),
    ("simgen.draw_mixing", ("simgen.draw_mixing",), None),
    ("simgen.draw_panel", ("simgen.draw_panel",), None),
    ("simgen.replication", ("simgen._replication",), None),
    ("simgen.stage2_counts", ("simgen._stage2_counts",), None),
    ("simgen.metric_Dbar", ("simgen.metric_Dbar",), None),
    ("cli.read_panel_csv", ("cli.read_panel_csv",), None),
    ("cli.write_csv", ("cli.write_csv",), _count_cells),
    ("cli.write_json", ("cli._write_json",), None),
)


COUNTERS = (
    "tsstats.sym_eigen.flops_computed",
    "whitenoise.drop_count.steps",
    "whitenoise.drop_count.tensor_mb_computed",
    "stationary.v2_fallback.count",
    "cli.write_csv.cells",
)


class Tracer:
    """In-memory span recorder; hooks record only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)
        self.missing_hooks: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every hook target that exists; note the hooks with none."""
        missing = []
        for name, targets, counter in HOOKS:
            found = 0
            for target in targets:
                mod_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"trendfactors.{mod_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
                found += 1
            if not found:
                missing.append(name)
        if missing and not self.missing_hooks:
            for name in missing:
                print(f"perfbench: hook {name} has no target; its metrics read 0",
                      file=sys.stderr)
        self.missing_hooks = missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self) -> tuple[list, dict]:
        """Return and clear the spans and counters recorded so far."""
        spans = self.spans
        counters = {name: float(self.counters.get(name, 0.0)) for name in COUNTERS}
        self.spans, self.counters = [], defaultdict(float)
        return spans, counters


def span_totals(spans: list) -> tuple[dict, dict, float]:
    """Per-name call counts and self times, plus the time covered by root spans."""
    if not spans:
        return {}, {}, 0.0
    names = [s[0] for s in spans]
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans])
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))
    self_time = dur - child
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for name, t in zip(names, self_time):
        calls[name] += 1
        self_s[name] += float(t)
    return dict(calls), dict(self_s), float(dur[~nested].sum())
