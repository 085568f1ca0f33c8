"""Integration kernel for the shooting oracle.

One loop integrates the first-order system

    f' = g,    g' = -lam * f - F(r) * g

from r = 0 with a Dormand-Prince 5(4) embedded pair.  The drift is encoded
by an integer:

    kind 0: F(r) = c1 * r
    kind 1: F(r) = c1 * tanh(c2 * r)
    kind 2: F(r) = c1 * tan(c2 * r)

`shoot` returns the end state only.  `shoot_path` also records the state at
a set of sample points, read off the pair's free quartic continuous
extension (Shampine, Math. Comp. 46, 1986) instead of stepping onto each
sample; its steps are capped at r_end / PATH_STEPS so the interpolant stays
well below the integration tolerance.  The system is linear, so whenever
the state grows past RENORM the pair (f, g) is rescaled and the log of the
accumulated factor is returned; signs and zero crossings are unaffected.
"""

import math

import numpy as np

#: Always False: the kernel is plain Python.  Kept as a constant because
#: perfbench/run.py reads it.
NUMBA_ENABLED = False

# Dormand-Prince 5(4) tableau.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# 4th-order weights (b-hat), for the embedded error estimate.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)
# Continuous extension: over an accepted step of size h from r,
# y(r + x h) = y + h * sum_j (sum_i k_i * _P[i][j]) * x^(j + 1), i over the
# stages k1, k3, k4, k5, k6, k7 (k2's row is zero).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

#: A path takes at least this many steps; coarser steps let the
#: interpolated samples drift by ~1e-10 relative.
PATH_STEPS = 512

RENORM = 1e250

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2


def _deriv(kind, c1, c2, lam, r, f, g):
    if kind == 0:
        dg = -lam * f - (c1 * r) * g
    elif kind == 1:
        dg = -lam * f - (c1 * math.tanh(c2 * r)) * g
    else:
        dg = -lam * f - (c1 * math.tan(c2 * r)) * g
    return g, dg


def _extension(h, k1, k3, k4, k5, k6, k7):
    """Coefficients (q1..q4) of h * (q1 x + q2 x^2 + q3 x^3 + q4 x^4)."""
    return tuple(
        h * (k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7)
        for p1, p3, p4, p5, p6, p7 in zip(*_P)
    )


def _integrate(kind, c1, c2, lam, r1, f, g, atol, rtol, max_steps, rs=None):
    """March (f, g) from 0 to r1.

    Returns (f, g, log_scale, status, steps).  With rs (increasing, from 0
    to r1) f, g and log_scale are arrays of the state at every rs[i] instead,
    equal to (f[i], g[i]) * exp(log_scale[i]); the last entry is the end
    state itself.
    """
    r = 0.0
    h = r1 / 100.0
    hmax = math.inf
    log_scale = 0.0
    steps = 0
    status = STATUS_OK
    hmin = 1e-15 * r1 + 1e-300
    if rs is not None:
        hmax = r1 / PATH_STEPS
        ts = rs.tolist()
        fs = np.empty(len(ts))
        gs = np.empty(len(ts))
        ls = np.empty(len(ts))
        fs[0], gs[0], ls[0] = f, g, 0.0
        j = 1
    while r < r1:
        if steps >= max_steps:
            status = STATUS_MAX_STEPS
            break
        if h > hmax:
            h = hmax
        if h > r1 - r:
            h = r1 - r
        k1f, k1g = _deriv(kind, c1, c2, lam, r, f, g)
        k2f, k2g = _deriv(
            kind, c1, c2, lam, r + _A21 * h, f + h * _A21 * k1f, g + h * _A21 * k1g
        )
        k3f, k3g = _deriv(
            kind,
            c1,
            c2,
            lam,
            r + 0.3 * h,
            f + h * (_A31 * k1f + _A32 * k2f),
            g + h * (_A31 * k1g + _A32 * k2g),
        )
        k4f, k4g = _deriv(
            kind,
            c1,
            c2,
            lam,
            r + 0.8 * h,
            f + h * (_A41 * k1f + _A42 * k2f + _A43 * k3f),
            g + h * (_A41 * k1g + _A42 * k2g + _A43 * k3g),
        )
        k5f, k5g = _deriv(
            kind,
            c1,
            c2,
            lam,
            r + (8.0 / 9.0) * h,
            f + h * (_A51 * k1f + _A52 * k2f + _A53 * k3f + _A54 * k4f),
            g + h * (_A51 * k1g + _A52 * k2g + _A53 * k3g + _A54 * k4g),
        )
        k6f, k6g = _deriv(
            kind,
            c1,
            c2,
            lam,
            r + h,
            f + h * (_A61 * k1f + _A62 * k2f + _A63 * k3f + _A64 * k4f + _A65 * k5f),
            g + h * (_A61 * k1g + _A62 * k2g + _A63 * k3g + _A64 * k4g + _A65 * k5g),
        )
        fn = f + h * (_B1 * k1f + _B3 * k3f + _B4 * k4f + _B5 * k5f + _B6 * k6f)
        gn = g + h * (_B1 * k1g + _B3 * k3g + _B4 * k4g + _B5 * k5g + _B6 * k6g)
        k7f, k7g = _deriv(kind, c1, c2, lam, r + h, fn, gn)
        ef = h * (
            _E1 * k1f + _E3 * k3f + _E4 * k4f + _E5 * k5f + _E6 * k6f + _E7 * k7f
        )
        eg = h * (
            _E1 * k1g + _E3 * k3g + _E4 * k4g + _E5 * k5g + _E6 * k6g + _E7 * k7g
        )
        sf = atol + rtol * max(abs(f), abs(fn))
        sg = atol + rtol * max(abs(g), abs(gn))
        err = math.sqrt(0.5 * ((ef / sf) ** 2 + (eg / sg) ** 2))
        if err <= 1.0:
            if rs is not None and j < len(ts) and ts[j] <= r + h:
                qf1, qf2, qf3, qf4 = _extension(h, k1f, k3f, k4f, k5f, k6f, k7f)
                qg1, qg2, qg3, qg4 = _extension(h, k1g, k3g, k4g, k5g, k6g, k7g)
                while j < len(ts) and ts[j] <= r + h:
                    x = (ts[j] - r) / h
                    fs[j] = f + x * (qf1 + x * (qf2 + x * (qf3 + x * qf4)))
                    gs[j] = g + x * (qg1 + x * (qg2 + x * (qg3 + x * qg4)))
                    ls[j] = log_scale
                    j += 1
            r = r + h
            f = fn
            g = gn
            mag = abs(f) + abs(g)
            if mag > RENORM:
                f /= RENORM
                g /= RENORM
                log_scale += math.log(RENORM)
        if err > 0.0:
            fac = 0.9 * err ** (-0.2)
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
            h *= fac
        else:
            h *= 5.0
        # Capped steps can leave a last sliver of a step below hmin; only
        # a step with ground still to cover counts as an underflow.
        if h < hmin and r < r1:
            status = STATUS_STEP_UNDERFLOW
            break
        steps += 1
    if rs is None:
        return f, g, log_scale, status, steps
    if status == STATUS_OK:
        fs[-1], gs[-1], ls[-1] = f, g, log_scale
    return fs, gs, ls, status, steps


def shoot(kind, c1, c2, lam, r_end, f0, g0, atol=1e-11, rtol=1e-11,
          max_steps=2_000_000):
    """Integrate to r_end and return (f, g, log_scale, status, steps)."""
    return _integrate(
        kind, c1, c2, float(lam), float(r_end), float(f0), float(g0),
        atol, rtol, max_steps,
    )


def shoot_path(kind, c1, c2, lam, rs, f0, g0, atol=1e-11, rtol=1e-11,
               max_steps=2_000_000):
    """Integrate along the sample points rs, which run from 0 up to r_end.

    Returns (f_arr, g_arr, logscale_arr, status, steps); see _integrate.
    """
    rs = np.asarray(rs, dtype=float)
    if rs[0] != 0.0:
        raise ValueError("a path starts at r = 0")
    return _integrate(
        kind, c1, c2, float(lam), float(rs[-1]), float(f0), float(g0),
        atol, rtol, max_steps, rs,
    )
