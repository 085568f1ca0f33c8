"""Self-contained verification checks behind the `verify` command.

Each check `_check_<name>` exercises one cross-cutting invariant of the
library at desk scale and returns (passed, one-line detail); `run_suite`
names each result after its check.  The fast suite runs in well under a
minute; the full suite adds the d = 63 and Myers-edge cases.  A check that
raises is reported as failed with the exception, never aborting the
suite.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from .classical import beta_quadratic_bound
from .correction import curvature_kernel, curvature_multiplier
from .geometry import PI2, Alpha, CoefficientProfile, GeometryTriple, HALF_PI
from .oracle import (
    beta_eigenvalue,
    derivative_identity_residual,
    duality_gap,
    solve_lambda_bar,
)
from .report import build_report
from .universal import iterate_lower, iterate_upper, universal_bracket

__all__ = ["CheckResult", "run_suite", "suite_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# -- individual checks --------------------------------------------------------


def _check_flat_exact_values() -> tuple[bool, str]:
    p = CoefficientProfile(2, Alpha.zero())
    b = universal_bracket(2, Alpha.zero(), profile=p)
    lam = solve_lambda_bar(2, Alpha.zero(), profile=p).eigenvalue
    errs = {
        "delta": abs(b.delta - 0.25),
        "delta1": abs(b.delta1 - 5.0 ** (1.0 / 3.0) / 4.0),
        "delta1_star": abs(b.delta1_star - 5.0 ** (1.0 / 3.0) / 4.0),
        "delta1_prime": abs(b.delta1_prime - 0.375),
        "delta1_star_prime": abs(b.delta1_star_prime - 0.375),
        "lambda": abs(lam - PI2 / 4.0),
    }
    inv = 1.0 / lam
    chain = 0.25 < 0.375 < inv < 0.427 < 1.0
    worst = max(errs, key=errs.get)
    return (
        max(errs.values()) < 1e-6 and chain,
        f"worst {worst} err {errs[worst]:.2e}; chain {'ok' if chain else 'BROKEN'}",
    )


def _check_beta_anchors() -> tuple[bool, str]:
    anchors = [(0.0, PI2 / 4.0), (0.5, 3.0), (-0.5, 2.0)]
    errs = [abs(beta_eigenvalue(b).eigenvalue - v) for b, v in anchors]
    return (
        max(errs) < 1e-8,
        "lambda0 at beta=0, 1/2, -1/2: errors "
        + ", ".join(f"{e:.2e}" for e in errs),
    )


def _check_beta_gap_sign() -> tuple[bool, str]:
    grid = np.linspace(0.02, 0.5, 25)
    gaps = [
        beta_eigenvalue(float(b)).eigenvalue - beta_quadratic_bound(float(b))
        for b in grid
    ]
    worst = min(gaps)
    return (
        worst >= -1e-8,
        f"min(lambda0 - quadratic estimate) = {worst:.3e} on 25-point grid",
    )


def _check_multiplier_signs() -> tuple[bool, str]:
    m0 = curvature_multiplier(Alpha.zero())
    neg = [curvature_multiplier(Alpha.negative(a)) for a in (0.3, 0.8, 1.5, 3.0)]
    pos = [curvature_multiplier(Alpha.positive(a)) for a in (0.3, 0.8, 1.2, 1.5)]
    ok = (
        abs(m0 - 1.0) < 1e-10
        and all(m < 1.0 for m in neg)
        and all(m > 1.0 for m in pos)
    )
    return (
        ok,
        f"M(0)-1 = {m0 - 1.0:.2e}; M<1 on K<0 {'ok' if all(m < 1 for m in neg) else 'BROKEN'},"
        f" M>1 on K>0 {'ok' if all(m > 1 for m in pos) else 'BROKEN'}",
    )


def _check_kernel_identity() -> tuple[bool, str]:
    errs = []
    for alpha in (Alpha.negative(1.0), Alpha.positive(1.0)):
        lhs = curvature_kernel(alpha, 0.0) * PI2 / 4.0
        rhs = curvature_multiplier(alpha)
        errs.append(abs(lhs - rhs))
    return (
        max(errs) < 1e-9,
        f"kernel-at-0 times pi^2/4 vs multiplier: errors {errs[0]:.2e}, {errs[1]:.2e}",
    )


def _check_duality() -> tuple[bool, str]:
    # (20, -10/3) has lambda_bar ~ 1.2e-19, where only relative tolerances
    # keep the two families together.
    pairs = [(d, a) for d in (2, 5) for a in (Alpha.negative(1.0), Alpha.positive(0.8))]
    pairs.append((20, Alpha.negative(10.0 / 3.0)))
    worst = max(duality_gap(d, alpha)[2] for d, alpha in pairs)
    return (
        worst < 1e-9,
        f"max relative primal-dual gap {worst:.2e} on {len(pairs)} pairs",
    )


def _check_sandwich() -> tuple[bool, str]:
    triples = [
        GeometryTriple(2, 1.0, 0.0),
        GeometryTriple(2, 3.14159265, 1.0),
        GeometryTriple(5, 2.0, -4.0),
        GeometryTriple(3, 1.0, 2.0),
    ]
    bad: list[str] = []
    count = 0
    for g in triples:
        rep = build_report(g, oracle=True)
        count += sum(1 for r in rep.rows if r.valid)
        bad.extend(f"{g.d},{g.D},{g.K}:{n}" for n, _ in rep.sandwich_violations())
        if rep.upper_violation() is not None:
            bad.append(f"{g.d},{g.D},{g.K}:upper")
    return (
        not bad,
        f"{count} valid bounds and the certified upper bound vs oracle on 4 triples;"
        f" violations: {bad or 'none'}",
    )


def _check_chain() -> tuple[bool, str]:
    cases = [(2, Alpha.zero()), (2, Alpha.positive(1.0)), (5, Alpha.negative(1.5))]
    broken = [
        f"d={d},x={a.signed_x:+g}"
        for d, a in cases
        if not universal_bracket(d, a).chain_ok()
    ]
    return (
        not broken,
        f"bracket chain on 3 profiles; broken: {broken or 'none'}",
    )


def _check_iteration_monotone() -> tuple[bool, str]:
    p = CoefficientProfile(2, Alpha.zero())
    lows = [1.0 / v for v in iterate_lower(p, 3).lower_sequence]
    ups = iterate_upper(p, 3)
    highs = [1.0 / v for v in ups.upper_sequence]
    inc = all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
    dec = all(b <= a * (1.0 + 1e-12) for a, b in zip(highs, highs[1:]))
    ordered = all(hi >= lo for lo, hi in zip(lows, highs))
    gap = abs(ups.upper_sequence[0] - universal_bracket(2, Alpha.zero()).delta1_prime)
    return (
        inc and dec and ordered and gap < 1e-6,
        f"lower sequence {'nondecreasing' if inc else 'NOT MONOTONE'};"
        f" upper sequence {'nonincreasing' if dec else 'NOT MONOTONE'};"
        f" upper {'above' if ordered else 'NOT ABOVE'} lower at every n;"
        f" first upper vs prime functional gap {gap:.2e}",
    )


def _check_identity_residual() -> tuple[bool, str]:
    rep = derivative_identity_residual(2, Alpha.negative(1.0), 0.5)
    worst = max(rep.residual, abs(rep.g_slope_origin), abs(rep.g_end))
    return (
        worst < 1e-6,
        f"integral identity residual {rep.residual:.2e},"
        f" boundary defects {rep.g_slope_origin:.2e}/{rep.g_end:.2e}",
    )


def _check_edge_ratios() -> tuple[bool, str]:
    targets = {2: 1.2, 5: 1.27, 63: 1.334}
    errs = {}
    for d, want in targets.items():
        b = universal_bracket(d, Alpha.positive(HALF_PI))
        errs[d] = abs(b.delta1_star / b.delta1_star_prime - want)
    worst = max(errs.values())
    return (
        worst < 0.01,
        "psi-route ratio at the Myers edge, d=2/5/63 errors "
        + ", ".join(f"{errs[d]:.4f}" for d in (2, 5, 63)),
    )


def _check_edge_eigenvalue() -> tuple[bool, str]:
    lam = solve_lambda_bar(63, Alpha.positive(HALF_PI)).eigenvalue
    return (
        abs(lam - 63.0 * PI2 / 4.0) < 1.0,
        f"reduced eigenvalue at d=63, Myers edge: {lam:.4f} (sphere value"
        f" {63.0 * PI2 / 4.0:.4f})",
    )


def _check_edge_duality() -> tuple[bool, str]:
    worst = max(duality_gap(d, Alpha.positive(HALF_PI))[2] for d in (2, 5))
    return worst < 1e-8, f"max relative primal-dual gap at the edge {worst:.2e}"


def _check_sphere_sharp() -> tuple[bool, str]:
    rep = build_report(GeometryTriple(2, 3.14159265, 1.0), oracle=True)
    _, best = rep.best_lower
    lam = rep.oracle_value
    return (
        abs(best - 2.0) < 1e-6 and abs(lam - 2.0) < 1e-6,
        f"unit 2-sphere: best lower {best:.8f}, oracle {lam:.8f} (exact 2)",
    )


FAST_CHECKS = (
    _check_flat_exact_values,
    _check_beta_anchors,
    _check_beta_gap_sign,
    _check_multiplier_signs,
    _check_kernel_identity,
    _check_duality,
    _check_sandwich,
    _check_chain,
    _check_iteration_monotone,
    _check_identity_residual,
)

FULL_CHECKS = FAST_CHECKS + (
    _check_edge_ratios,
    _check_edge_eigenvalue,
    _check_edge_duality,
    _check_sphere_sharp,
)

_SUITES = {"fast": FAST_CHECKS, "full": FULL_CHECKS}


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(suite: str) -> list[CheckResult]:
    """Run every check in the suite, trapping per-check failures."""
    try:
        checks = _SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {suite_names()}")
    results = []
    for fn in checks:
        try:
            passed, detail = fn()
        except Exception:
            tail = traceback.format_exc().strip().splitlines()[-1]
            passed, detail = False, f"raised: {tail}"
        results.append(CheckResult(fn.__name__.removeprefix("_check_"), bool(passed), detail))
    return results
