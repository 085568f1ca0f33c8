"""Command-line front door.

Four subcommands: ``bound`` renders the full report for one geometry
triple, ``figure`` emits the curve-data CSVs behind the nine standard
plots, ``sweep`` tabulates selected estimates over a parameter grid, and
``verify`` runs the library's cross-validation suites.

CSV output is deterministic for fixed flags and version: '#'-prefixed
metadata lines (tool version, canonical command, value scale), then a
column-name row, then data rows with floats at 17 significant digits and
per-point domain failures as empty cells.  Reduced-scale values (unit
diameter) are converted to the manifold scale only inside ``bound``
reports; every CSV declares its scale in the header.

The figure and sweep x-axis follows the signed-magnitude convention:
x < 0 encodes negative curvature with |alpha| = -x, x > 0 positive
curvature with |alpha| = x, so the Myers edge sits exactly at x = pi/2.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checks import run_suite, suite_names
from .classical import ESTIMATE_NAMES, beta_quadratic_bound, get_estimate
from .correction import combined_lower_bound, curvature_multiplier, middle_term
from .errors import EigenboundError
from .geometry import (
    Alpha,
    CoefficientProfile,
    GeometryTriple,
    HALF_PI,
    alpha_to_curvature,
    check_dimension,
)
from .oracle import beta_eigenvalue, solve_lambda_bar
from .report import build_report, render_table, report_records
from .universal import (
    delta,
    delta1,
    delta1_prime,
    delta1_star,
    delta1_star_prime,
)

REDUCED_SCALE = "reduced (unit diameter)"
MANIFOLD_SCALE = "manifold (4/D^2 applied)"


def _alpha_from_axis(x: float) -> Alpha:
    """Signed-magnitude axis: x < 0 is the negative-curvature branch."""
    if x == 0.0:
        return Alpha.zero()
    if x < 0.0:
        return Alpha.negative(-x)
    return Alpha.positive(x)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return f"{v:.17g}"
    return str(v)


def _write_csv(out: str | None, meta: list[str], columns: list[str], rows) -> None:
    lines = [f"# {m}" for m in meta]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _meta(command: str, scale: str) -> list[str]:
    return [f"eigenbound {__version__}", f"command: {command}", f"scale: {scale}"]


# -- reduced-scale estimators for sweeps and figures --------------------------


def _canonical_triple(d: int, alpha: Alpha) -> GeometryTriple:
    """Diameter-2 triple whose manifold scale equals the reduced scale."""
    return GeometryTriple(d, 2.0, alpha_to_curvature(alpha, d, 2.0))


def _classical_reduced(name: str):
    """The named estimate at the canonical triple; its refusal is an empty cell."""
    est = get_estimate(name)
    return lambda d, alpha, p: est(_canonical_triple(d, alpha))


SWEEP_ESTIMATORS = {
    "delta_inv": lambda d, a, p: 1.0 / delta(p),
    "delta1_inv": lambda d, a, p: 1.0 / delta1(p),
    "delta1_prime_inv": lambda d, a, p: 1.0 / delta1_prime(p),
    "delta1_star_inv": lambda d, a, p: 1.0 / delta1_star(p),
    "delta1_star_prime_inv": lambda d, a, p: 1.0 / delta1_star_prime(p),
    "star_ratio": lambda d, a, p: delta1_star(p) / delta1_star_prime(p),
    "middle": lambda d, a, p: middle_term(d, a)[0],
    "multiplier": lambda d, a, p: curvature_multiplier(a),
    "combined": lambda d, a, p: combined_lower_bound(_canonical_triple(d, a), profile=p).value,
}
for _name in ESTIMATE_NAMES:
    SWEEP_ESTIMATORS[_name] = _classical_reduced(_name)


DEFAULT_SWEEP = (
    "delta1_inv,delta1_star_inv,delta1_prime_inv,delta1_star_prime_inv,middle,combined"
)


def _sweep_point(d: int, x: float, alpha: Alpha, names, estimators: dict) -> list:
    """[x, then each estimate named in names at (d, alpha)], None where it fails."""
    try:
        p = CoefficientProfile(d, alpha)
    except EigenboundError:
        return [x] + [None] * len(names)
    row: list = [x]
    for name in names:
        try:
            row.append(estimators[name](d, alpha, p))
        except EigenboundError:
            row.append(None)
    return row


# -- bound --------------------------------------------------------------------


def cmd_bound(args) -> int:
    if args.alpha is not None:
        alpha = _alpha_from_axis(args.alpha)
        check_dimension(args.d, alpha)
        K = alpha_to_curvature(alpha, args.d, args.D)
    else:
        K = args.K
    g = GeometryTriple(args.d, args.D, K)
    report = build_report(g, oracle=args.oracle, tol=args.tol)
    if args.format == "table":
        text = render_table(report) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    else:
        command = f"bound -d {args.d} -D {args.D:.17g} -K {K:.17g}"
        if args.oracle:
            command += " --oracle"
        _write_csv(
            args.out,
            _meta(command, MANIFOLD_SCALE),
            ["name", "value", "valid", "clamped"],
            report_records(report),
        )
    bad = report.sandwich_violations() or report.upper_violation() is not None
    return 1 if bad else 0


# -- figure -------------------------------------------------------------------


def _beta_grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 0.5, n + 1)[1:]


def _figure_beta_levels(args):
    betas = _beta_grid(args.grid)
    rows = []
    for b in betas:
        lam = beta_eigenvalue(float(b), tol=args.tol).eigenvalue
        rows.append([float(b), lam, beta_quadratic_bound(float(b))])
    return ["beta", "lambda0", "quadratic"], rows


def _figure_beta_gap(args):
    betas = _beta_grid(args.grid)
    rows = []
    for b in betas:
        lam = beta_eigenvalue(float(b), tol=args.tol).eigenvalue
        rows.append([float(b), lam - beta_quadratic_bound(float(b))])
    return ["beta", "gap"], rows


def _figure_multiplier(args):
    xs = np.union1d(np.linspace(-10.0, HALF_PI, args.grid), [0.0])
    rows = [[float(x), curvature_multiplier(_alpha_from_axis(float(x)))] for x in xs]
    return ["x", "multiplier"], rows


_POS_CURVES = (
    "delta1_star_inv",
    "delta1_star_prime_inv",
    "middle",
    "chen_wang_sphere",
)
_NEG_CURVES = (
    "delta1_inv",
    "delta1_prime_inv",
    "delta1_star_inv",
    "delta1_star_prime_inv",
    "middle",
    "chen_wang_negative",
    "sech_fixed_point",
)
_MIXED_CURVES = (
    "delta1_inv",
    "delta1_prime_inv",
    "delta1_star_inv",
    "delta1_star_prime_inv",
    "middle",
    "chen_wang_sphere",
    "chen_wang_negative",
    "sech_fixed_point",
)


def _figure_curves(d: int, lo: float, hi: float, names, branch: str, closed: bool):
    """Curve-family figure builder.

    branch "signed" reads the x axis with the signed-magnitude convention;
    "negative" reads it as a plain |alpha| axis on the K < 0 branch, the
    way the hyperbolic-case plot is drawn.
    """

    def to_alpha(x: float) -> Alpha:
        if branch == "negative":
            return Alpha.zero() if x == 0.0 else Alpha.negative(x)
        return _alpha_from_axis(x)

    def build(args):
        if closed:
            xs = np.linspace(lo, hi, args.grid)
        else:
            xs = np.linspace(lo, hi, args.grid + 2)[1:-1]
        rows = [_sweep_point(d, float(x), to_alpha(float(x)), names, SWEEP_ESTIMATORS) for x in xs]
        return ["x"] + list(names), rows

    return build


FIGURES = {
    1: _figure_beta_levels,
    2: _figure_beta_levels,
    3: _figure_beta_levels,
    4: _figure_beta_gap,
    5: _figure_beta_gap,
    6: _figure_multiplier,
    7: _figure_curves(2, 0.0, HALF_PI, _POS_CURVES, "signed", closed=True),
    8: _figure_curves(2, 0.0, 6.0, _NEG_CURVES, "negative", closed=True),
    9: _figure_curves(5, -2.5, HALF_PI, _MIXED_CURVES, "signed", closed=False),
}


def cmd_figure(args) -> int:
    if args.id not in FIGURES:
        raise EigenboundError(f"figure id must be in 1..9, got {args.id}")
    columns, rows = FIGURES[args.id](args)
    command = f"figure {args.id} --grid {args.grid}"
    _write_csv(args.out, _meta(command, REDUCED_SCALE), columns, rows)
    return 0


# -- sweep --------------------------------------------------------------------


def _sweep_out(template: str | None, d: int, many: bool) -> str | None:
    if template is None:
        return None
    if not many:
        return template
    path = Path(template)
    return str(path.with_name(f"{path.stem}_d{d}{path.suffix or '.csv'}"))


def cmd_sweep(args) -> int:
    dims = [int(tok) for tok in args.dims.split(",") if tok]
    names = [tok for tok in (args.estimates or DEFAULT_SWEEP).split(",") if tok]
    estimators = {
        **SWEEP_ESTIMATORS,
        "oracle": lambda d, a, p: solve_lambda_bar(d, a, profile=p, tol=args.tol).eigenvalue,
    }
    unknown = [n for n in names if n not in estimators]
    if unknown:
        raise EigenboundError(
            f"unknown estimates {unknown}; known: {', '.join(sorted(estimators))}"
        )
    if args.xmax > HALF_PI:
        raise EigenboundError(
            f"positive-branch axis values cap at pi/2 = {HALF_PI:.6f}, got {args.xmax}"
        )
    xs = np.linspace(args.xmin, args.xmax, args.grid)
    many = len(dims) > 1
    if many and args.out is None:
        raise EigenboundError("--out is required when sweeping several dimensions")
    for d in dims:
        rows = [_sweep_point(d, float(x), _alpha_from_axis(float(x)), names, estimators) for x in xs]
        command = (
            f"sweep --dims {d} --xmin {args.xmin:.17g} --xmax {args.xmax:.17g}"
            f" --grid {args.grid} --estimates {','.join(names)}"
        )
        _write_csv(
            _sweep_out(args.out, d, many),
            _meta(command, REDUCED_SCALE),
            ["x"] + names,
            rows,
        )
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed ({args.suite} suite)")
    if args.out is not None:
        payload = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 1 if failed else 0


# -- parser -------------------------------------------------------------------


def _grid(text: str) -> int:
    """A --grid value: points per axis, at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3 as a negative number, not an option.

    argparse before Python 3.13 takes only -N and -N.N for numbers, so
    "-K -1e-3" failed with "expected one argument".  Subparsers are built
    with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="eigenbound",
        description="Certified lower bounds for the first nontrivial Laplacian"
        " eigenvalue from dimension, diameter, and a Ricci curvature bound.",
    )
    top.add_argument("--version", action="version", version=f"eigenbound {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="full bound report for one (d, D, K) triple")
    b.add_argument("-d", type=int, required=True, help="manifold dimension")
    b.add_argument("-D", type=float, default=2.0, help="diameter (default 2)")
    b.add_argument("-K", type=float, default=0.0, help="Ricci curvature lower bound")
    b.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="signed curvature-diameter parameter (negative values mean K < 0);"
        " overrides -K",
    )
    b.add_argument("--oracle", action="store_true", help="add the shooting solve")
    b.add_argument("--tol", type=float, default=1e-11, help="oracle relative tolerance")
    b.add_argument("--format", choices=("table", "csv"), default="table")
    b.add_argument("--out", default=None, help="output path (default stdout)")
    b.set_defaults(func=cmd_bound)

    f = sub.add_parser("figure", help="emit curve data behind the standard plots")
    f.add_argument("id", type=int, help="figure number, 1..9")
    f.add_argument("--grid", type=_grid, default=200, help="points per axis")
    f.add_argument("--tol", type=float, default=1e-11, help="oracle relative tolerance")
    f.add_argument("--out", default=None, help="output path (default stdout)")
    f.set_defaults(func=cmd_figure)

    s = sub.add_parser("sweep", help="tabulate estimates over a signed-alpha grid")
    s.add_argument("--dims", default="2", help="comma-separated dimensions")
    s.add_argument("--xmin", type=float, default=-2.5)
    s.add_argument("--xmax", type=float, default=HALF_PI)
    s.add_argument("--grid", type=_grid, default=200, help="points per axis")
    s.add_argument(
        "--estimates",
        default=None,
        help=f"comma-separated estimate names (default {DEFAULT_SWEEP})",
    )
    s.add_argument("--tol", type=float, default=1e-11, help="oracle relative tolerance")
    s.add_argument("--out", default=None, help="output path or per-dimension template")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the cross-validation suite")
    v.add_argument("suite", nargs="?", default="fast", choices=suite_names())
    v.add_argument("--out", default=None, help="write machine-readable results (JSON)")
    v.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except EigenboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
