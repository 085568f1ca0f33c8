"""Benchmark of eigenbound: one workload, one seed, checked outputs, one JSON line.

    python3 perfbench/run.py --workload bound --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and nothing else.  Workloads (see README.md):

    bound    build_report without the oracle at seed-drawn and anchor triples
    oracle   build_report with the oracle, and beta_eigenvalue(beta)
    sharpen  iterate_lower, iterate_upper and variational_consistency on
             fixed shared profiles

Every operation's output is checked against the independent reference
(``reference.py``, cached in ``reference.json``) or a property the method
must have (``checks.py``).  An operation fails when it raises or breaks a
check.  ``correct`` is false when an operation fails that is not one of the
named faults in ``points.py``; those fail on every seed and are counted in
``failed``.

A run does a fixed number of whole rounds: ``--seconds`` over a round's
nominal duration on the reference machine, rounded, at least one.  So the
work, the failed share and the traced counts of a run depend only on the
workload, the seed and ``--seconds``.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the same rounds run with every layer
boundary wrapped in a span (``tracing.py``) and the last line carries the
per-layer metrics, while the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the operations are single-threaded Python over small
# matrices, and a second BLAS thread on a two-core machine only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import points as P  # noqa: E402

#: Seconds one round took on the reference machine (2 cores, no numba).
NOMINAL_ROUND_S = {"bound": 26.0, "oracle": 32.0, "sharpen": 37.0}

#: No new round starts after this many seconds, so a run ends in time even
#: on a much slower commit.
ROUND_CUTOFF_S = 120.0

SETUP_PROBES = 7


def import_package():
    """Import eigenbound from this checkout's src/, or stop with an error."""
    if not (SRC / "eigenbound" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'eigenbound'} not found; run inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eigenbound

    return eigenbound


def setup() -> float:
    """Import, build the shared segmentation and warm the jit; seconds of the build."""
    import_package()
    from eigenbound import kernels
    from eigenbound.quadrature import get_segmentation

    t0 = time.perf_counter()
    get_segmentation()
    seg_s = time.perf_counter() - t0
    if kernels.NUMBA_ENABLED:
        kernels.warmup()
    return seg_s


def measure_setup() -> float:
    """Median wall time from process start to ready, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return statistics.median(times)


# -- operations -------------------------------------------------------------------


class Op:
    """One timed call with its check; quality(output) gives (lower gap, bracket width)."""

    def __init__(self, label, call, check, *, fault=False, quality=None):
        self.label = label
        self.call = call
        self.check = check
        self.fault = fault
        self.quality = quality


def report_op(eb, pt: P.Point, lam_ref: float, *, oracle=False, fault=False, panel=False) -> Op:
    g = eb.GeometryTriple(pt.d, pt.D, pt.K)
    flat = pt.alpha == 0.0
    edge = pt.alpha == P.HALF_PI

    def quality(rep):
        best = rep.best_lower[1] / rep.scale
        b = rep.bracket
        return (lam_ref - best) / lam_ref, (b.upper - b.lower) / lam_ref

    return Op(
        pt.label or f"report d={pt.d} alpha={pt.alpha:.6g} D={pt.D:.4g}",
        lambda: eb.build_report(g, oracle=oracle),
        lambda rep: checks.check_report(rep, lam_ref, flat=flat, edge=edge),
        fault=fault,
        quality=quality if panel else None,
    )


def beta_op(eb, beta: float, lam_ref: float) -> Op:
    return Op(
        f"beta={beta:.4g}",
        lambda: eb.beta_eigenvalue(beta),
        lambda res: checks.check_beta(res.eigenvalue, lam_ref, eb.beta_quadratic_bound(beta)),
    )


def signed_alpha(eb, alpha: float):
    if alpha < 0.0:
        return eb.Alpha.negative(-alpha)
    return eb.Alpha.positive(alpha) if alpha > 0.0 else eb.Alpha.zero()


def bound_round(eb, ref, rng):
    curv, _ = ref
    ops = []
    for d in P.DIMS:
        for stratum in P.STRATA:
            a = rng.choice(stratum)
            ops.append(report_op(eb, P.point(d, a, P.log_uniform(rng, 0.01, 100.0)), curv[(d, a)]))
        for a in P.PANEL:
            pt = P.point(d, a, P.log_uniform(rng, 0.01, 100.0))
            ops.append(report_op(eb, pt, curv[(d, a)], panel=True))
        ops.append(report_op(eb, P.flat(d, P.log_uniform(rng, 0.01, 100.0)), curv[(d, 0.0)], panel=True))
        ops.append(report_op(eb, P.edge(d), curv[(d, P.HALF_PI)], panel=True))
    ops += [report_op(eb, pt, curv[(pt.d, pt.alpha)], fault=True) for pt in P.BOUND_FAULTS]
    return ops, None


def oracle_round(eb, ref, rng):
    curv, beta = ref
    ops = []
    for d in P.ORACLE_DIMS:
        admitted = [a for a in P.ALPHA_GRID if P.oracle_admits(d, curv[(d, a)])]
        n = P.ORACLE_STRATA
        for k in range(n):
            a = rng.choice(admitted[k * len(admitted) // n : (k + 1) * len(admitted) // n])
            pt = P.point(d, a, P.log_uniform(rng, 0.1, 10.0))
            ops.append(report_op(eb, pt, curv[(d, a)], oracle=True))
        for a in P.ORACLE_PANEL:
            pt = P.point(d, a, P.log_uniform(rng, 0.1, 10.0))
            ops.append(report_op(eb, pt, curv[(d, a)], oracle=True, panel=True))
    for d in P.ORACLE_EDGE_DIMS:
        ops.append(report_op(eb, P.edge(d), curv[(d, P.HALF_PI)], oracle=True, panel=True))
    n = P.BETA_DRAWS
    for k in range(n):
        b = rng.choice(P.BETA_GRID[k * 40 // n : (k + 1) * 40 // n + 1])
        ops.append(beta_op(eb, b, beta[b]))
    ops += [report_op(eb, pt, curv[(pt.d, pt.alpha)], oracle=True, fault=True) for pt in P.ORACLE_FAULTS]
    return ops, None


class SharpenProfile:
    """One shared profile of a sharpen round and the outputs its figures need."""

    def __init__(self, eb, d: int, a: float, lam_ref: float):
        self.eb, self.d, self.lam = eb, d, lam_ref
        self.alpha = signed_alpha(eb, a)
        self.profile = eb.CoefficientProfile(d, self.alpha)
        self.lower = self.upper = None

    def iterate_lower(self):
        self.lower = self.eb.iterate_lower(self.profile, 5)
        return self.lower

    def iterate_upper(self):
        self.upper = self.eb.iterate_upper(self.profile, 2)
        return self.upper

    def consistency(self):
        return self.eb.variational_consistency(self.d, self.alpha, profile=self.profile)

    def quality(self):
        """Gap of the last lower iterate and width of the sharpened bracket."""
        low = 1.0 / self.lower.lower_sequence[-1]
        up = min(1.0 / self.upper.upper_sequence[-1], 1.0 / self.upper.rayleigh_sequence[-1])
        return (self.lam - low) / self.lam, (up - low) / self.lam


def sharpen_round(eb, ref, rng):
    """The profiles are built here, outside the timed operations they share.

    Nothing here depends on the seed.  The order of the operations is fixed
    in every workload: iterate_upper takes 4.5 s or 7 s depending on what
    ran before it in the process, through the allocator's state.
    """
    curv, _ = ref
    shared = [SharpenProfile(eb, d, a, curv[(d, a)]) for d, a in P.SHARPEN_PROFILES]
    ops = []
    for sp in shared:
        tag = f"d={sp.d} alpha={sp.alpha.signed_x:+.6g}"

        def check_lower(tr, sp=sp):
            flat = sp.alpha.magnitude == 0.0
            return checks.check_profile(sp.profile, flat) + checks.check_lower_sequence(tr, sp.lam)

        ops += [
            Op(f"iterate_lower {tag}", sp.iterate_lower, check_lower),
            Op(f"iterate_upper {tag}", sp.iterate_upper, lambda tr, lam=sp.lam: checks.check_upper_sequences(tr, lam)),
        ]
        # Three consistency calls a profile put op_p50_s in the middle of
        # twelve like operations rather than between two single ones.
        ops += [
            Op(f"variational_consistency {tag}", sp.consistency, lambda rep, lam=sp.lam: checks.check_consistency(rep, lam))
            for _ in range(3)
        ]

    def quality():
        return [sp.quality() for sp in shared if sp.lower is not None and sp.upper is not None]

    return ops, quality


WORKLOADS = {"bound": bound_round, "oracle": oracle_round, "sharpen": sharpen_round}


# -- the run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    eb = import_package()
    seg_s = setup()
    import reference

    ref = reference.load()
    setup_s = None if trace else measure_setup()
    # Untimed warm-up, so the first timed operation does not pay for
    # first-call allocations.
    eb.build_report(eb.GeometryTriple(3, 2.0, -1.0))
    eb.beta_eigenvalue(0.0)

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rng = random.Random(seed)
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    latencies, gaps, widths = [], [], []
    attempted = failed = 0
    unexpected = []
    op_seconds = 0.0
    done = 0
    t_start = time.perf_counter()
    while done < rounds and not (done and time.perf_counter() - t_start > ROUND_CUTOFF_S):
        done += 1
        ops, round_quality = WORKLOADS[workload](eb, ref, rng)
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.operation = attempted
            t0 = time.perf_counter()
            try:
                out = op.call() if tracer is None else tracer.span("op", op.call)
                err = None
            except Exception as exc:  # an operation that raises is a failed operation
                err = [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            op_seconds += dt
            if tracer is not None:
                tracer.operation = -1
            fails = err if err is not None else op.check(out)
            if fails:
                failed += 1
                tag = "known fault" if op.fault else "UNEXPECTED"
                print(f"[{tag}] {op.label}: {'; '.join(fails)}")
                if not op.fault:
                    unexpected.append(op.label)
                continue
            latencies.append(dt)
            if op.quality is not None:
                gap, width = op.quality(out)
                gaps.append(gap)
                widths.append(width)
        if round_quality is not None:
            for gap, width in round_quality():
                gaps.append(gap)
                widths.append(width)
    wall = time.perf_counter() - t_start

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload}-seed{seed}.json.gz")
        metrics = tracing.layer_metrics(tracer, op_seconds, seg_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / wall, "op/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "lower_gap_rel": (statistics.median(gaps), "1"),
            "bracket_width_rel": (statistics.median(widths), "1"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"rounds {done}, attempted {attempted}, failed {failed}, wall {wall:.2f} s")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv == ["--setup-probe"]:
        setup()
        print("ready", flush=True)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
