"""Independent reference for the reduced principal eigenvalue lambda_bar.

This module imports nothing from ``eigenbound``.  It solves

    (C f')' + lam C f = 0  on (0, 1),   f(0) = 0,   (C f')(1) = 0

for the three coefficient families the benchmark uses,

    C(s) = cosh(|alpha| s)^(d-1)   alpha < 0
         = 1                       alpha = 0
         = cos(alpha s)^(d-1)      alpha > 0   (vanishes at s = 1 on the Myers edge)
         = exp(-beta s^2)          the linear-drift model f'' - 2 beta s f' + lam f = 0

with a Pruefer angle in the flux variables f = rho sin(theta), u = C f' =
rho cos(theta):

    theta' = cos(theta)^2 / C + lam C sin(theta)^2.

theta starts at 0 on the left (Dirichlet); on the right the complement
psi = pi/2 - theta starts at 0 (Neumann) and is integrated backwards.  The
two meet at s = 1/2, where the mismatch

    D(lam) = theta_left(1/2) + psi_right(1/2) - pi/2

is strictly increasing in lam, negative at lam = 0 and equal to k pi at the
k-th eigenvalue (Sturm oscillation).  So the single root of D is the
principal eigenvalue, and the solver also counts the zeros of f on (0, 1)
from the two angles: a principal eigenfunction has none.  Everything is
done in log(lam) and log(C), so lambda_bar from 1e-60 up to hundreds
resolves with relative tolerances only.

On the Myers edge C(1) = 0 and the right end is singular.  The integration
then starts at 1 - EDGE_OFFSET with the recessive (bounded) solution's
leading term psi = lam * int C, which is the Friedrichs condition the
Neumann problem reduces to there.

Run ``python3 perfbench/reference.py --rebuild`` to recompute the cached
table ``perfbench/reference.json`` from scratch (about a minute), or
``--check`` to print the closed-form cases.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

HALF_PI = math.pi / 2.0
MATCH = 0.5
EDGE_OFFSET = 1e-4
RTOL = 1e-12
ATOL = 1e-15

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, "reference.json")


class Coefficient:
    """log C on [0, 1] for one family, evaluated without overflow."""

    def __init__(self, d: int = 1, alpha: float = 0.0, beta: float | None = None):
        self.d = d
        self.alpha = float(alpha)
        self.beta = beta
        self.singular_end = beta is None and d >= 2 and self.alpha == HALF_PI

    def log(self, s: float) -> float:
        if self.beta is not None:
            return -self.beta * s * s
        if self.d == 1 or self.alpha == 0.0:
            return 0.0
        a = abs(self.alpha)
        if self.alpha < 0.0:
            t = a * s
            return (self.d - 1) * (t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0))
        # cos(a s) in complement form: no cancellation as a s -> pi/2.
        u = 1.0 - s
        c = math.cos(a) * math.cos(a * u) + math.sin(a) * math.sin(a * u)
        return (self.d - 1) * math.log(c) if c > 0.0 else -math.inf

    def value(self, s: float) -> float:
        return math.exp(self.log(s))


def _left_angle(coef: Coefficient, log_lam: float) -> float:
    def rhs(s, y):
        lc = coef.log(s)
        c, sn = math.cos(y[0]), math.sin(y[0])
        return [c * c * math.exp(-lc) + sn * sn * math.exp(log_lam + lc)]

    sol = solve_ivp(rhs, (0.0, MATCH), [0.0], method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"left integration failed: {sol.message}")
    return float(sol.y[0, -1])


def _right_angle(coef: Coefficient, log_lam: float) -> float:
    def rhs(s, y):
        lc = coef.log(s)
        sn, c = math.sin(y[0]), math.cos(y[0])
        flux = 0.0 if sn == 0.0 else math.exp(2.0 * math.log(abs(sn)) - lc)
        return [-flux - c * c * math.exp(log_lam + lc)]

    start, psi0 = 1.0, 0.0
    if coef.singular_end:
        start = 1.0 - EDGE_OFFSET
        psi0 = math.exp(log_lam) * quad(coef.value, start, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    sol = solve_ivp(rhs, (start, MATCH), [psi0], method="DOP853", rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"right integration failed: {sol.message}")
    return float(sol.y[0, -1])


def mismatch(coef: Coefficient, log_lam: float) -> tuple[float, float, float]:
    """(D, theta_left, theta_right) at lam = exp(log_lam), all at s = MATCH."""
    th = _left_angle(coef, log_lam)
    psi = _right_angle(coef, log_lam)
    return th + psi - HALF_PI, th, HALF_PI - psi


def node_count(theta_left: float, theta_right: float) -> int:
    """Zeros of f on (0, 1) from the two angles at the matching point.

    theta crosses multiples of pi only upwards, so f has floor(theta_L/pi)
    zeros on (0, MATCH] and one more for every multiple of pi strictly
    between theta_R and pi/2 on [MATCH, 1).
    """
    left = math.floor(theta_left / math.pi)
    right = max(0, -math.floor(theta_right / math.pi))
    return left + right


def _crude_window(coef: Coefficient) -> tuple[float, float]:
    """log of the crude bracket 1/(4 delta) <= lam <= 1/delta, delta = sup phi psi.

    A trapezoid estimate is enough: it only places the root search where
    the angles wind less than a few turns.  C is divided by its maximum,
    which leaves lam unchanged.
    """
    s = np.linspace(0.0, 1.0, 4001)
    lc = np.array([coef.log(x) for x in s])
    lc -= np.max(lc)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = np.exp(lc)
        ci = np.exp(np.minimum(-lc, 700.0))
        h = s[1] - s[0]
        phi = np.concatenate(([0.0], np.cumsum(0.5 * h * (ci[1:] + ci[:-1]))))
        tail = np.cumsum(0.5 * h * (c[1:] + c[:-1])[::-1])[::-1]
        psi = np.concatenate((tail, [0.0]))
        prod = phi[1:-1] * psi[1:-1]
    delta = float(np.max(prod[np.isfinite(prod)]))
    return math.log(0.25 / delta), math.log(1.0 / delta)


def solve(coef: Coefficient) -> tuple[float, int]:
    """(lambda_bar, zeros of the eigenfunction on (0, 1))."""
    lo, hi = _crude_window(coef)
    lo -= 1.0
    hi += 1.0
    while mismatch(coef, lo)[0] >= 0.0:
        lo -= 1.0
    while mismatch(coef, hi)[0] <= 0.0:
        hi += 1.0
    t = brentq(lambda x: mismatch(coef, x)[0], lo, hi, xtol=1e-14)
    _, th, thr = mismatch(coef, t)
    return math.exp(t), node_count(th, thr)


def lambda_bar(d: int, alpha: float) -> tuple[float, int]:
    """Reduced principal eigenvalue for (d, signed alpha) and its node count."""
    return solve(Coefficient(d, alpha))


def beta_lambda(beta: float) -> tuple[float, int]:
    """Principal eigenvalue of f'' - 2 beta s f' + lam f = 0 and its node count."""
    return solve(Coefficient(beta=float(beta)))


# -- the cached table -----------------------------------------------------------


def rebuild() -> dict:
    """Recompute every reference value the workloads need and write CACHE."""
    sys.path.insert(0, HERE)
    import points

    table = {"curvature": [], "beta": []}
    for d, a in points.reference_curvature_points():
        table["curvature"].append([d, a, _principal(lambda_bar(d, a), f"d={d} alpha={a!r}")])
    for b in points.BETA_GRID:
        table["beta"].append([b, _principal(beta_lambda(b), f"beta={b!r}")])
    with open(CACHE, "w") as fh:
        for i, (name, rows) in enumerate(table.items()):
            fh.write(("{" if i == 0 else ",\n") + json.dumps(name) + ": [\n")
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]")
        fh.write("}\n")
    return table


def _principal(solved: tuple[float, int], label: str) -> float:
    lam, nodes = solved
    if nodes != 0:
        raise RuntimeError(f"{label}: eigenfunction has {nodes} interior zeros")
    return lam


def load() -> tuple[dict, dict]:
    """({(d, alpha): lambda_bar}, {beta: lambda_bar}) from the cached table."""
    with open(CACHE) as fh:
        table = json.load(fh)
    curv = {(int(d), float(a)): float(lam) for d, a, lam in table["curvature"]}
    beta = {float(b): float(lam) for b, lam in table["beta"]}
    return curv, beta


def _closed_forms():
    pi2 = math.pi**2
    for d in (2, 3, 5, 10, 20, 63):
        yield f"d={d} alpha=0", lambda_bar(d, 0.0), pi2 / 4.0
        yield f"d={d} Myers edge", lambda_bar(d, HALF_PI), d * pi2 / 4.0
    for b, exact in ((0.0, pi2 / 4.0), (0.5, 3.0), (-0.5, 2.0)):
        yield f"beta={b}", beta_lambda(b), exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rebuild", action="store_true", help="recompute reference.json")
    ap.add_argument("--check", action="store_true", help="print the closed-form cases")
    args = ap.parse_args(argv)
    if args.rebuild:
        table = rebuild()
        print(f"wrote {CACHE}: {len(table['curvature'])} curvature, {len(table['beta'])} beta values")
    if args.check:
        for label, (lam, nodes), exact in _closed_forms():
            print(f"{label:22s} {lam:.15g}  exact {exact:.15g}  rel {abs(lam / exact - 1):.2e}  nodes {nodes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
