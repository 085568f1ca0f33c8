"""The benchmark tracer still wraps the package it traces.

`perfbench/tracing.py` patches package functions by name and reads the
integrator's step count off element 4 of `kernels.shoot` and
`kernels.shoot_path`, so reshaping either breaks `perfbench/run.py
--trace 1` with nothing in the package's own tests noticing.  The tracer
patches module attributes process-wide, so it runs in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

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
report.build_report(GeometryTriple(3, 2.0, -1.0), oracle=True)
oracle.variational_consistency(2, Alpha.zero())
print(json.dumps(dict(tracer.counts)))
"""


def test_tracer_counts_shot_and_path_steps():
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.splitlines()[-1])
    assert counts.get("kernels.shot_steps", 0) > 0
    assert counts.get("kernels.path_steps", 0) > 0
