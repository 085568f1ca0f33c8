"""Integration kernels for the shooting oracle.

One Dormand-Prince 5(4) march of the Pruefer angle serves both the
eigenvalue shots (`shoot`) and the eigenfunction (`shoot_path`).  Every
problem is a flux-form Sturm-Liouville problem

    (C f')' + lam C f = 0,    log C(r) = int_0^r F,

whose drift F is encoded by an integer:

    kind 0: F(r) = c1 * r,             log C = c1 r^2 / 2
    kind 1: F(r) = c1 * tanh(c2 * r),  log C = (c1 / c2) log cosh(c2 r)
    kind 2: F(r) = c1 * tan(c2 * r),   log C = -(c1 / c2) log cos(c2 r)

Negating c1 gives 1/C, the adjoint family's coefficient.

`shoot` integrates the Pruefer angle in flux variables, f = rho sin(theta)
and C f' = rho cos(theta):

    theta' = cos(theta)^2 / C + lam C sin(theta)^2,

with C and lam C evaluated from log C, so no state overflows and the
angle carries the Sturm count: it crosses each multiple of pi once,
upwards, at a zero of f (Pryce, *Numerical Solution of Sturm-Liouville
Problems*, 1993).  It runs in either direction from either end.  The angle
is its only state, and its rate writes log C inline, in the arithmetic of
log_coeff, which stays the one definition of log C.

`shoot_path` is `shoot` recording every accepted step: its start, width
and stage angles.  After the march it integrates the log of the amplitude
rho over the same stages,

    (log rho)' = (1/C - lam C) sin(theta) cos(theta),

so f and C f' come back at every step end with no state that overflows.
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
# 5th-order weights of stages 1 and 3-6; b2 = b7 = 0.
_B = np.array((35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
               11.0 / 84.0))
_B1, _B3, _B4, _B5, _B6 = _B.tolist()
# 4th-order weights (b-hat), for the embedded error estimate.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)
# Fractions of a step at which the 5th-order weights take stages 1, 3-6.
_C = np.array((0.0, 0.3, 0.8, 8.0 / 9.0, 1.0))

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2

_LOG2 = math.log(2.0)


def log_coeff(kind, c1, c2, xp=math):
    """The function r -> log C(r) of one drift encoding, scalar or, with xp=np, on arrays.

    kind 1 uses the overflow-free form of log cosh; kind 2 takes cos(c2 r)
    as cos(c2) cos(c2 u) + sin(c2) sin(c2 u) with u = 1 - r, whose terms
    are nonnegative for c2 <= pi/2, so C keeps its relative accuracy where
    it vanishes at the Myers edge.
    """
    if kind == 0:
        half = 0.5 * c1
        return lambda r: half * r * r
    p = c1 / c2
    if kind == 1:
        exp, log1p = xp.exp, xp.log1p

        def lc(r):
            t = c2 * r
            return p * (t + log1p(exp(-2.0 * t)) - _LOG2)

        return lc
    ca, sa = math.cos(c2), math.sin(c2)
    cos, sin, log = xp.cos, xp.sin, xp.log

    def lc(r):
        u = c2 * (1.0 - r)
        return -p * log(ca * cos(u) + sa * sin(u))

    return lc


def _angle_rate(kind, c1, c2, lam, shift, r0, sign):
    """The angle's rate (t, theta) -> theta' of `shoot`, at r = r0 + sign t.

    log C~ = log C + shift is written inline, in the same arithmetic as
    log_coeff, so it rounds as log_coeff(kind, c1, c2)(r) + shift does.
    """
    ll = math.log(lam)
    cos, sin, exp = math.cos, math.sin, math.exp
    if kind == 0:
        half = 0.5 * c1

        def rate(t, y):
            r = r0 + sign * t
            L = half * r * r + shift
            c = cos(y)
            s = sin(y)
            return exp(-L) * c * c + exp(ll + L) * s * s
    elif kind == 1:
        p = c1 / c2
        log1p, log2 = math.log1p, _LOG2

        def rate(t, y):
            x = c2 * (r0 + sign * t)
            L = p * (x + log1p(exp(-2.0 * x)) - log2) + shift
            c = cos(y)
            s = sin(y)
            return exp(-L) * c * c + exp(ll + L) * s * s
    else:
        mp = -(c1 / c2)
        ca, sa = math.cos(c2), math.sin(c2)
        log = math.log

        def rate(t, y):
            u = c2 * (1.0 - (r0 + sign * t))
            L = mp * log(ca * cos(u) + sa * sin(u)) + shift
            c = cos(y)
            s = sin(y)
            return exp(-L) * c * c + exp(ll + L) * s * s
    return rate


def _march_angle(rate, t1, y, atol, rtol, max_steps, record=None):
    """March the angle y under y' = rate(t, y) from t = 0 to t1.

    The error norm is sqrt(0.5 (e / s)^2), a two-state norm with a zero
    second state; another norm would move every step, and with them every
    eigenvalue, by rounding.  record, if given, is called on each accepted
    step with (t, h, y, y3, y4, y5, y6): its start, width and the states of
    the stages the 5th-order weights read.  Returns (y, t, status, steps),
    t being where the march stopped.
    """
    # Locals: the loop reads each tableau weight a few times a step.
    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    sqrt = math.sqrt
    t = 0.0
    h = t1 / 100.0
    steps = 0
    status = STATUS_OK
    hmin = 1e-15 * t1 + 1e-300
    # First same as last: an accepted step's k7 is the next step's k1.
    k1 = rate(t, y)
    while t < t1:
        if steps >= max_steps:
            status = STATUS_MAX_STEPS
            break
        if h > t1 - t:
            h = t1 - t
        k2 = rate(t + a21 * h, y + h * a21 * k1)
        y3 = y + h * (a31 * k1 + a32 * k2)
        k3 = rate(t + 0.3 * h, y3)
        y4 = y + h * (a41 * k1 + a42 * k2 + a43 * k3)
        k4 = rate(t + 0.8 * h, y4)
        y5 = y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
        k5 = rate(t + (8.0 / 9.0) * h, y5)
        y6 = y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = rate(t + h, y6)
        yn = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = rate(t + h, yn)
        e = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        # max(a, b) without the call: b only when b > a.
        s, sn = abs(y), abs(yn)
        s = atol + rtol * (sn if sn > s else s)
        err = sqrt(0.5 * (e / s) ** 2)
        if err <= 1.0:
            if record is not None:
                record((t, h, y, y3, y4, y5, y6))
            t = t + h
            y, k1 = yn, k7
        if err > 0.0:
            fac = 0.9 * err ** (-0.2)
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
            h *= fac
        else:
            h *= 5.0
        # The step cut to land on t1 can leave h below hmin; only a march
        # with ground still to cover has underflowed.
        if h < hmin and t < t1:
            status = STATUS_STEP_UNDERFLOW
            break
        steps += 1
    return y, t, status, steps


def shoot(kind, c1, c2, lam, shift, r0, r1, theta0=0.0, atol=1e-11,
          rtol=1e-11, max_steps=2_000_000):
    """Pruefer angle from r0 to r1; r1 < r0 runs backwards.

    Integrates theta' = cos(theta)^2 / C~ + lam C~ sin(theta)^2 in the
    distance t = |r - r0|, with log C~ = log C + shift, from theta0.  A
    constant shift rescales the flux and leaves every eigenvalue where it
    is.  The angle is measured from a Dirichlet condition at r0; measured
    from a Neumann one (theta - pi/2) it obeys the same equation with
    log C~ replaced by -log C~ - log(lam), that is with c1 negated and the
    shift moved.  Returns (theta, 0.0, t, status, steps), t being the
    distance covered; the 0.0 keeps the tuple callers unpack.
    """
    r0 = float(r0)
    sign = 1.0 if r1 >= r0 else -1.0
    rate = _angle_rate(kind, c1, c2, float(lam), shift, r0, sign)
    theta, t, status, steps = _march_angle(
        rate, abs(float(r1) - r0), float(theta0), atol, rtol, max_steps
    )
    return theta, 0.0, t, status, steps


def shoot_path(kind, c1, c2, lam, shift, r0, r1, theta0=0.0, atol=1e-11,
               rtol=1e-11, max_steps=2_000_000):
    """`shoot` with the same arguments, recording every accepted step.

    Returns (theta, log_rho, t, status, steps): theta, log_rho and t at
    each step end, from r0 to where the march stopped, t being the
    distance from r0.  The last angle is `shoot`'s, to the bit.  log_rho
    starts from 0 at r0 and is integrated with the march's 5th-order
    weights at its own stage angles, where f = rho sin(theta) and
    C~ f' = rho cos(theta) in the shot's frame.
    """
    r0, lam = float(r0), float(lam)
    sign = 1.0 if r1 >= r0 else -1.0
    rows = []
    theta, t, status, steps = _march_angle(
        _angle_rate(kind, c1, c2, lam, shift, r0, sign),
        abs(float(r1) - r0), float(theta0), atol, rtol, max_steps, rows.append,
    )
    start, h, *ys = np.array(rows, dtype=float).reshape(-1, 7).T
    L = log_coeff(kind, c1, c2, np)(r0 + sign * (start + _C[:, None] * h)) + shift
    slope = (np.exp(-L) - np.exp(math.log(lam) + L)) * np.sin(ys) * np.cos(ys)
    log_rho = np.append(0.0, np.cumsum(h * (_B @ slope)))
    return np.append(ys[0], theta), log_rho, np.append(start, t), status, steps
