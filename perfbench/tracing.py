"""Spans and work counts at the layer boundaries of ``eigenbound``.

The package itself records nothing, so the traced run wraps its public
functions and methods from the outside: one span (name, start, end,
parent, operation) per call, kept in memory and written out when the run
ends.  A span's self time is its duration minus the durations of its
direct children, so every second of an operation is charged to exactly
one layer.  Work counts come from the same wrappers (calls, and integrator
steps read off the kernels' return values).

Names bound with ``from .x import y`` are patched in every module that
holds them (for example ``report.universal_bracket`` and
``correction.integrate``), so no caller bypasses the wrapper.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.operation = -1  # index of the running benchmark operation, -1 between them

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, perf(), 0.0, parent, self.operation]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            rec[2] = perf()

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args) adds work counts inside operations."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if after is not None and self.operation >= 0:
                after(out, args)
            return out

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, calls) per span name, over spans inside operations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, operation), inner in zip(self.spans, child):
            if operation >= 0:
                seconds[name] += end - start - inner
                calls[name] += 1
        return seconds, calls

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], s - t0, e - t0, p, op] for n, s, e, p, op in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "operation"], "spans": rows}, fh)


def _replace_everywhere(old, new) -> None:
    """Rebind every eigenbound module attribute that is old to new."""
    for modname, mod in list(sys.modules.items()):
        if modname == "eigenbound" or modname.startswith("eigenbound."):
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported eigenbound package."""
    from eigenbound import classical, correction, geometry, kernels, oracle, quadrature, report, searches, universal

    counts = tracer.counts

    def patch_function(module, attr, name, after=None, adapt=None):
        orig = getattr(module, attr)
        inner = adapt(orig) if adapt is not None else orig
        _replace_everywhere(orig, tracer.wrap(name, inner, after))

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def profile_built(_, args):
        seg = args[0].seg
        counts["geometry.lattice_points"] += (seg.n - 1) + seg.sub.size

    def shot(out, _):
        counts["kernels.shot_steps"] += int(out[4])

    def path(out, _):
        counts["kernels.path_steps"] += int(out[4])
        if tracer.stack and tracer.spans[tracer.stack[-1]][0] == "oracle.principal_eigenvalue":
            counts["oracle.solve_paths"] += 1

    def counting_golden(orig):
        def golden_max(f, *args, **kwargs):
            def counted(x):
                counts["searches.golden_evals"] += 1
                return f(x)

            return orig(counted, *args, **kwargs)

        return golden_max

    patch_method(geometry.CoefficientProfile, "__init__", "geometry.CoefficientProfile", profile_built)
    for attr in (
        "segment_integrals",
        "build_cumulative",
        "build_reverse",
        "tail_eval",
        "interp_sub",
        "_interp_pages",
        "cumulative_from_sub",
        "reverse_from_sub",
        "locate",
        "cum_eval",
    ):
        patch_method(quadrature.Segmentation, attr, f"quadrature.Segmentation.{attr}")
    patch_function(quadrature, "integrate", "quadrature.integrate")
    for attr in ("functional_sup", "universal_bracket", "iterate_lower", "iterate_upper", "variational_ratio"):
        patch_function(universal, attr, f"universal.{attr}")
    patch_function(searches, "golden_max", "searches.golden_max", adapt=counting_golden)
    patch_function(correction, "combined_lower_bound", "correction.combined_lower_bound")
    patch_function(correction, "curvature_multiplier", "correction.curvature_multiplier")
    patch_method(classical.Estimate, "__call__", "classical.Estimate")
    for attr in ("solve_lambda_bar", "principal_eigenvalue", "beta_eigenvalue"):
        patch_function(oracle, attr, f"oracle.{attr}")
    patch_function(kernels, "shoot", "kernels.shoot", shot)
    patch_function(kernels, "shoot_path", "kernels.shoot_path", path)
    patch_function(report, "build_report", "report.build_report")


#: Per-layer time metrics: the span names whose self time each one sums.
SELF_TIME = {
    "geometry.profile": ("geometry.CoefficientProfile",),
    "quadrature.table": (
        "quadrature.Segmentation.build_cumulative",
        "quadrature.Segmentation.build_reverse",
        "quadrature.Segmentation.segment_integrals",
    ),
    "quadrature.page": (
        "quadrature.Segmentation.cumulative_from_sub",
        "quadrature.Segmentation.reverse_from_sub",
        "quadrature.Segmentation._interp_pages",
        "quadrature.Segmentation.interp_sub",
    ),
    "quadrature.panel": (
        "quadrature.Segmentation.cum_eval",
        "quadrature.Segmentation.tail_eval",
        "quadrature.Segmentation.locate",
    ),
    "quadrature.adaptive": ("quadrature.integrate",),
    "universal.bracket": ("universal.universal_bracket", "universal.functional_sup"),
    "universal.iterate_lower": ("universal.iterate_lower",),
    "universal.iterate_upper": ("universal.iterate_upper",),
    "universal.variational": ("universal.variational_ratio",),
    "searches.golden": ("searches.golden_max",),
    "correction.combined": ("correction.combined_lower_bound",),
    "correction.multiplier": ("correction.curvature_multiplier",),
    "classical.estimate": ("classical.Estimate",),
    "oracle.solve": ("oracle.solve_lambda_bar", "oracle.principal_eigenvalue", "oracle.beta_eigenvalue"),
    "kernels.path": ("kernels.shoot_path",),
    "kernels.shot": ("kernels.shoot",),
    "report.build": ("report.build_report",),
}

#: Per-layer call counts: metric name -> span name.
CALLS = {
    "geometry.profiles": "geometry.CoefficientProfile",
    "quadrature.pages": "quadrature.Segmentation._interp_pages",
    "quadrature.adaptive_calls": "quadrature.integrate",
    "universal.sups": "universal.functional_sup",
    "correction.multiplier_calls": "correction.curvature_multiplier",
    "classical.estimates": "classical.Estimate",
    "oracle.solves": "oracle.principal_eigenvalue",
    "kernels.paths": "kernels.shoot_path",
    "kernels.shots": "kernels.shoot",
    "report.reports": "report.build_report",
}


def layer_metrics(tracer: Tracer, op_seconds: float, segmentation_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Self times are shares of the traced operations' wall time, so a layer
    that a workload never enters reads 0 %; the wall time itself is
    trace.op_s.
    """
    seconds, calls = tracer.self_times()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME.items():
        out[f"{metric}_pct"] = (100.0 * sum(seconds[n] for n in names) / op_seconds, "%")
    for metric, name in CALLS.items():
        out[metric] = (calls[name], "count")
    out["quadrature.tables"] = (
        calls["quadrature.Segmentation.build_cumulative"] + calls["quadrature.Segmentation.build_reverse"],
        "count",
    )
    out["quadrature.panel_evals"] = (
        calls["quadrature.Segmentation.cum_eval"] + calls["quadrature.Segmentation.tail_eval"],
        "count",
    )
    for name in ("geometry.lattice_points", "searches.golden_evals", "kernels.path_steps", "kernels.shot_steps"):
        out[name] = (c[name], "count")
    solves = calls["oracle.principal_eigenvalue"]
    out["oracle.paths_per_solve"] = (c["oracle.solve_paths"] / solves if solves else 0.0, "1")
    kernel_s = seconds["kernels.shoot"] + seconds["kernels.shoot_path"]
    steps = c["kernels.path_steps"] + c["kernels.shot_steps"]
    out["kernels.steps_per_s"] = (steps / kernel_s if kernel_s else 0.0, "1/s")
    out["quadrature.segmentation_s"] = (segmentation_s, "s")
    out["trace.op_s"] = (op_seconds, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
