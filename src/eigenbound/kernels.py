"""Hot integration kernels for the shooting oracle.

The two entry points integrate the first-order system

    f' = g,    g' = -lam * f - F(r) * g

with a Dormand-Prince 5(4) embedded pair.  The drift is encoded by an
integer so the whole loop stays jittable:

    kind 0: F(r) = c1 * r
    kind 1: F(r) = c1 * tanh(c2 * r)
    kind 2: F(r) = c1 * tan(c2 * r)

When numba is importable and EIGENBOUND_NO_NUMBA is unset the kernels are
compiled with @njit; otherwise the same functions run as plain Python.
`benchmarks/bench_kernels.py` compares the two paths on an identical
workload.  The system is linear, so whenever the state grows past RENORM
the pair (f, g) is rescaled and the log of the accumulated factor is
returned; signs and zero crossings are unaffected.
"""

import math
import os

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag instead
    numba = None
    _HAVE_NUMBA = False


def _env_disabled() -> bool:
    return os.environ.get("EIGENBOUND_NO_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


NUMBA_ENABLED = _HAVE_NUMBA and not _env_disabled()


def _jit(fn):
    if NUMBA_ENABLED:
        # nogil lets sweep worker threads integrate concurrently.
        return numba.njit(cache=True, nogil=True)(fn)
    return fn


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


def _integrate(kind, c1, c2, lam, r0, r1, f, g, h0, atol, rtol, max_steps):
    """March (f, g) from r0 to r1.  Returns (f, g, log_scale, h_last, status, steps)."""
    r = r0
    span = r1 - r0
    h = h0
    if h <= 0.0 or h > span:
        h = span / 100.0
    log_scale = 0.0
    steps = 0
    hmin = 1e-15 * span + 1e-300
    while r < r1:
        if steps >= max_steps:
            return f, g, log_scale, h, STATUS_MAX_STEPS, steps
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
        if h < hmin:
            return f, g, log_scale, h, STATUS_STEP_UNDERFLOW, steps
        steps += 1
    return f, g, log_scale, h, STATUS_OK, steps


def _integrate_path(kind, c1, c2, lam, rs, f0, g0, atol, rtol, max_steps):
    """Like _integrate, but records the state at every point of rs.

    rs must be increasing with rs[0] the starting abscissa.  Returns
    (f_arr, g_arr, logscale_arr, status, steps); the state at rs[i] equals
    (f_arr[i], g_arr[i]) * exp(logscale_arr[i]).
    """
    n = rs.shape[0]
    fs = np.empty(n)
    gs = np.empty(n)
    ls = np.empty(n)
    fs[0] = f0
    gs[0] = g0
    ls[0] = 0.0
    f = f0
    g = g0
    total_log = 0.0
    total_steps = 0
    h = (rs[n - 1] - rs[0]) / 100.0
    for i in range(1, n):
        f, g, dlog, h, status, steps = _integrate(
            kind, c1, c2, lam, rs[i - 1], rs[i], f, g, h, atol, rtol,
            max_steps - total_steps,
        )
        total_log += dlog
        total_steps += steps
        fs[i] = f
        gs[i] = g
        ls[i] = total_log
        if status != STATUS_OK:
            return fs, gs, ls, status, total_steps
    return fs, gs, ls, STATUS_OK, total_steps


# Compiled (or plain) entry points; the *_impl names keep the pure-Python
# versions reachable so the two paths can be compared in tests.
_integrate_impl = _integrate
_integrate_path_impl = _integrate_path
_deriv = _jit(_deriv)
_integrate = _jit(_integrate)
_integrate_path = _jit(_integrate_path)


def shoot(kind, c1, c2, lam, r_end, f0, g0, atol=1e-11, rtol=1e-11,
          max_steps=2_000_000):
    """Integrate to r_end and return (f, g, log_scale, status, steps)."""
    f, g, log_scale, _h, status, steps = _integrate(
        kind, c1, c2, float(lam), 0.0, float(r_end), float(f0), float(g0),
        0.0, atol, rtol, max_steps,
    )
    return f, g, log_scale, status, steps


def shoot_path(kind, c1, c2, lam, rs, f0, g0, atol=1e-11, rtol=1e-11,
               max_steps=4_000_000):
    """Integrate along the sample points rs; see _integrate_path."""
    rs = np.ascontiguousarray(rs, dtype=np.float64)
    return _integrate_path(
        kind, c1, c2, float(lam), rs, float(f0), float(g0), atol, rtol, max_steps
    )


def warmup():
    """Trigger jit compilation once so timings elsewhere stay honest."""
    shoot(1, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1e-8, 1e-8, 10000)
    shoot_path(0, 0.0, 0.0, 1.0, np.array([0.0, 0.5, 1.0]), 0.0, 1.0, 1e-8, 1e-8, 10000)
