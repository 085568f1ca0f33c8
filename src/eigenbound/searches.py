"""Golden-section search and Brent root finding on intervals."""

from __future__ import annotations

import math

import numpy as np

from .errors import NoRoot

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


def golden_max(f, a: float, b: float, tol: float = 1e-10,
               max_iter: int = 200) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [a, b]."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, float(f(x))
    x1 = a + INV_PHI2 * h
    x2 = a + INV_PHI * h
    f1 = float(f(x1))
    f2 = float(f(x2))
    for _ in range(max_iter):
        if h <= tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = a + INV_PHI2 * h
            f1 = float(f(x1))
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + INV_PHI * h
            f2 = float(f(x2))
    if f1 >= f2:
        return x1, f1
    return x2, f2


def brent_root(f, a: float, b: float, fa: float, fb: float,
               tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    Inverse quadratic interpolation and secant steps, with a bisection
    whenever they fail to shrink the bracket fast enough (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4).  It
    stops when the bracket is at most tol wide, plus rounding of its ends,
    and returns the end with the smaller |f|.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoRoot(f"brent_root: no sign change on [{a}, {b}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(f(b))
    raise NoRoot(f"brent_root: no convergence in {max_iter} iterations")
