"""Grid-plus-golden-section searches and root bracketing on intervals."""

from __future__ import annotations

import math

import numpy as np

from .errors import NoRoot

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


def _eval_grid(f, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop."""
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
        return vals
    except (TypeError, ValueError):
        return np.array([float(f(x)) for x in xs])


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


def sup_on_unit_interval(f, resolution: int = 2001) -> tuple[float, float]:
    """Supremum of f over the open interval (0, 1).

    Dense interior grid scan (`resolution` points) followed by golden-section
    refinement around the best grid point.  Returns (argsup, sup).  A +inf
    evaluation short-circuits to (that point, +inf); nan evaluations are
    ignored (they can only arise from guarded 0*inf endpoint degeneracies).
    """
    xs = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    vals = _eval_grid(f, xs)
    if np.isposinf(vals).any():
        idx = int(np.argmax(np.isposinf(vals)))
        return float(xs[idx]), math.inf
    finite = np.where(np.isnan(vals), -math.inf, vals)
    k = int(np.argmax(finite))
    lo = xs[k - 1] if k > 0 else xs[0] / 2.0
    hi = xs[k + 1] if k < resolution - 1 else 0.5 * (xs[-1] + 1.0)

    def safe(x):
        try:
            v = float(f(x))
        except (TypeError, ValueError, IndexError):
            v = float(np.asarray(f(np.asarray([x])), dtype=float).ravel()[0])
        return -math.inf if math.isnan(v) else v

    x_best, v_best = golden_max(safe, lo, hi, tol=1e-12)
    if v_best >= finite[k]:
        return float(x_best), float(v_best)
    return float(xs[k]), float(finite[k])


def first_sign_change(f, xs: np.ndarray, f0: float) -> tuple[float, float, float, float]:
    """First interval along xs where sign(f) departs from sign(f0).

    Returns (a, b, fa, fb).  Raises NoRoot when no change occurs.
    """
    s0 = math.copysign(1.0, f0)
    prev_x = None
    prev_f = f0
    for x in xs:
        fx = float(f(x))
        if fx == 0.0 or math.copysign(1.0, fx) != s0:
            a = prev_x if prev_x is not None else 0.0
            return a, float(x), prev_f, fx
        prev_x = float(x)
        prev_f = fx
    raise NoRoot("no sign change over the scan grid")


def bisect_root(f, a: float, b: float, fa: float, fb: float,
                tol: float = 1e-12, max_iter: int = 200) -> float:
    """Bisect to a bracket no wider than tol, then return the root of the
    line through its two end values.

    That root lies in the final bracket; an infinite end value puts it at
    the other, finite end.  The midpoint is the fallback when the line
    gives no root inside the bracket.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise NoRoot(f"bisect_root: no sign change on [{a}, {b}]")
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        fm = float(f(m))
        if fm == 0.0:
            return m
        if math.copysign(1.0, fm) == math.copysign(1.0, fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    # Linear interpolation inside the final bracket.
    if fb != fa:
        x = a - fa * (b - a) / (fb - fa)
        if a <= x <= b:
            return x
    return 0.5 * (a + b)


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
