"""The benchmark tracer still wraps the package it traces.

`perfbench/tracing.py` patches package functions by name and reads the
integrator's step count off element 4 of `kernels.shoot` and
`kernels.shoot_path`, so renaming a patched function or reshaping either
return breaks `perfbench/run.py --trace 1` with nothing in the package's
own tests noticing.  The tracer patches module attributes process-wide,
so traced runs go in a child process.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from eigenbound import oracle, report
from eigenbound.geometry import Alpha, GeometryTriple

tracer = tracing.Tracer()
tracing.install(tracer)
tracer.operation = 0
{body}
print(json.dumps(dict(tracer.counts)))
"""


def traced_counts(body):
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"), body=body)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def patched_names():
    """Every dotted eigenbound name the tracer's layer tables refer to."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    names = {n for group in tracing.SELF_TIME.values() for n in group}
    return sorted(names | set(tracing.CALLS.values()))


@pytest.mark.parametrize("name", patched_names())
def test_patched_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"eigenbound.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_tracer_counts_shot_and_path_steps():
    counts = traced_counts(
        "report.build_report(GeometryTriple(3, 2.0, -1.0), oracle=True)\n"
        "oracle.variational_consistency(2, Alpha.zero())"
    )
    assert counts.get("kernels.shot_steps", 0) > 0
    assert counts.get("kernels.path_steps", 0) > 0


def test_traced_report_counts_lattice_points_and_no_panels():
    # One profile's lattice: the interior nodes and the 15 sub-nodes of
    # each segment.  No sup of this report sits in a paged row and the
    # profile pages none, so nothing integrates a partial-segment panel.
    counts = traced_counts(
        "report.build_report(GeometryTriple(3, 2.0, -1.0))\n"
        "tracer.counts.update({'calls.' + k: v for k, v in tracer.self_times()[1].items()})"
    )
    from eigenbound.quadrature import get_segmentation

    n = get_segmentation().n
    assert counts["geometry.lattice_points"] == (n - 1) + 15 * n
    assert counts["calls.report.build_report"] == 1
    assert counts.get("calls.quadrature.Segmentation.cum_eval", 0) == 0
    assert counts.get("calls.quadrature.Segmentation.tail_eval", 0) == 0
    # A flat negative-branch report fills every row; its sups' off-lattice
    # reads in the rows the integral tables page read nan, not panels.
    counts = traced_counts(
        "report.build_report(GeometryTriple(63, 2.0, -433.32403533989765))\n"
        "tracer.counts.update({'calls.' + k: v for k, v in tracer.self_times()[1].items()})"
    )
    assert counts["calls.report.build_report"] == 1
    assert counts.get("calls.quadrature.Segmentation.cum_eval", 0) == 0
    assert counts.get("calls.quadrature.Segmentation.tail_eval", 0) == 0


def test_traced_report_counts_its_profile_sups_and_tables():
    # The sup tables fill only the rows the node-level bounds keep, through
    # the same wrapped Segmentation methods, so the tracer still sees them.
    # Five sups come from the bracket and one more from the correction's
    # delta1_star, which reads the profile's cached solve.
    counts = traced_counts(
        "report.build_report(GeometryTriple(5, 2.0, -4.0))\n"
        "tracer.counts.update({'metric.' + k: v for k, (v, _) in tracing.layer_metrics(tracer, 1.0, 0.0).items()})"
    )
    assert counts["metric.geometry.profiles"] == 1
    assert counts["metric.universal.sups"] == 6
    assert counts["metric.quadrature.tables"] > 0


def test_traced_myers_edge_report_counts_shot_steps():
    # The round sphere of dimension 10: D = pi, K = d - 1.
    counts = traced_counts("report.build_report(GeometryTriple(10, 3.141592653589793, 9.0), oracle=True)")
    assert 0 < counts.get("kernels.shot_steps", 0) <= 20_000
    assert counts.get("kernels.path_steps", 0) == 0


def test_traced_myers_edge_report_pages_only_fallback_rows():
    # At the d = 20 edge the profile pages 133 rows, where phi and psi take
    # panels; the sups' node-level bounds prune all of them, so the report
    # takes none.  Nested panels on every paged row took 6 calls.
    counts = traced_counts(
        "report.build_report(GeometryTriple(20, 3.141592653589793, 19.0))\n"
        "tracer.counts.update({'calls.' + k: v for k, v in tracer.self_times()[1].items()})"
    )
    panels = sum(counts.get(f"calls.quadrature.Segmentation.{attr}", 0) for attr in ("cum_eval", "tail_eval"))
    assert counts["calls.report.build_report"] == 1
    assert panels == 0
