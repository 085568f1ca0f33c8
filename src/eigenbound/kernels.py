"""Integration kernels for the shooting oracle.

Two Dormand-Prince 5(4) marches share one tableau and one step control: a
scalar one for the Pruefer angle of `shoot`, and one for the pair of states
of `shoot_path`.  Every problem is a flux-form Sturm-Liouville problem

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
log_coeff, which stays the one scalar definition of log C.

`shoot_path` integrates the drift form f' = g, g' = -lam f - F g from
r = 0 and records every accepted step: its start, width and state, and the
quartic coefficients of the pair's free continuous extension (Shampine,
Math. Comp. 46, 1986), which give the solution anywhere inside the step.
Its steps are capped at r_end / PATH_STEPS so the quartic stays well below
the integration tolerance.  The system is linear, so whenever the state
grows past RENORM the pair (f, g) is rescaled and the log of the
accumulated factor is recorded; signs and zero crossings are unaffected.
The march keeps only each accepted step's start state and stage slopes,
taken before any rescale; the quartics are assembled from them after it,
in one numpy pass whose elementwise sums round every coefficient exactly
as the scalar sum would.
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

#: A path takes at least this many steps; coarser steps let the quartic
#: between step ends drift by ~1e-10 relative.
PATH_STEPS = 512

RENORM = 1e250

STATUS_OK = 0
STATUS_MAX_STEPS = 1
STATUS_STEP_UNDERFLOW = 2

_LOG2 = math.log(2.0)


def log_coeff(kind, c1, c2):
    """The scalar function r -> log C(r) of one drift encoding.

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
        def lc(r):
            t = c2 * r
            return p * (t + math.log1p(math.exp(-2.0 * t)) - _LOG2)

        return lc
    ca, sa = math.cos(c2), math.sin(c2)

    def lc(r):
        u = c2 * (1.0 - r)
        return -p * math.log(ca * math.cos(u) + sa * math.sin(u))

    return lc


def _drift_rhs(kind, c1, c2, lam):
    if kind == 0:
        def rhs(r, f, g):
            return g, -lam * f - (c1 * r) * g
    elif kind == 1:
        def rhs(r, f, g):
            return g, -lam * f - (c1 * math.tanh(c2 * r)) * g
    else:
        def rhs(r, f, g):
            return g, -lam * f - (c1 * math.tan(c2 * r)) * g
    return rhs


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


def _march_angle(rate, t1, y, atol, rtol, max_steps):
    """March the angle y under y' = rate(t, y) from t = 0 to t1.

    The pair march's tableau and step control on one state.  Its error
    norm is the pair's with a zero second term, so every step is accepted
    or rejected as a pair march carrying a zero would.  Returns
    (y, t, status, steps), t being where the march stopped.
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
        k3 = rate(t + 0.3 * h, y + h * (a31 * k1 + a32 * k2))
        k4 = rate(t + 0.8 * h, y + h * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = rate(
            t + (8.0 / 9.0) * h,
            y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4),
        )
        k6 = rate(
            t + h,
            y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5),
        )
        yn = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = rate(t + h, yn)
        e = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        # max(a, b) without the call: b only when b > a.
        s, sn = abs(y), abs(yn)
        s = atol + rtol * (sn if sn > s else s)
        err = sqrt(0.5 * (e / s) ** 2)
        if err <= 1.0:
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


def _integrate(rhs, r1, f, g, atol, rtol, max_steps):
    """March the pair (f, g) under (f, g)' = rhs(r, f, g) from r = 0 to r1.

    Steps are capped at r1 / PATH_STEPS, and (f, g) is rescaled whenever
    it grows past RENORM.  Returns (f, g, log_scale, status, steps, r, h),
    with one row per accepted step, of start r and width h, and a closing
    row for the state where the march stopped.  Row i of f is
    (f_i, q1..q4) with f = f_i + q1 x + ... + q4 x^4 at r_i + x h_i,
    0 <= x <= 1, likewise for g, both at the scale exp(log_scale[i]); the
    closing row has zero coefficients.  The march only records each
    accepted step's start, scale and stage slopes; the quartics are formed
    from them in one numpy pass after it.
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
    r = 0.0
    h = r1 / 100.0
    hmax = r1 / PATH_STEPS
    log_scale = 0.0
    steps = 0
    status = STATUS_OK
    hmin = 1e-15 * r1 + 1e-300
    rows = []
    # First same as last: an accepted step's k7 is the next step's k1.
    k1f, k1g = rhs(r, f, g)
    while r < r1:
        if steps >= max_steps:
            status = STATUS_MAX_STEPS
            break
        if h > hmax:
            h = hmax
        if h > r1 - r:
            h = r1 - r
        k2f, k2g = rhs(r + a21 * h, f + h * a21 * k1f, g + h * a21 * k1g)
        k3f, k3g = rhs(
            r + 0.3 * h,
            f + h * (a31 * k1f + a32 * k2f),
            g + h * (a31 * k1g + a32 * k2g),
        )
        k4f, k4g = rhs(
            r + 0.8 * h,
            f + h * (a41 * k1f + a42 * k2f + a43 * k3f),
            g + h * (a41 * k1g + a42 * k2g + a43 * k3g),
        )
        k5f, k5g = rhs(
            r + (8.0 / 9.0) * h,
            f + h * (a51 * k1f + a52 * k2f + a53 * k3f + a54 * k4f),
            g + h * (a51 * k1g + a52 * k2g + a53 * k3g + a54 * k4g),
        )
        k6f, k6g = rhs(
            r + h,
            f + h * (a61 * k1f + a62 * k2f + a63 * k3f + a64 * k4f + a65 * k5f),
            g + h * (a61 * k1g + a62 * k2g + a63 * k3g + a64 * k4g + a65 * k5g),
        )
        fn = f + h * (b1 * k1f + b3 * k3f + b4 * k4f + b5 * k5f + b6 * k6f)
        gn = g + h * (b1 * k1g + b3 * k3g + b4 * k4g + b5 * k5g + b6 * k6g)
        k7f, k7g = rhs(r + h, fn, gn)
        ef = h * (e1 * k1f + e3 * k3f + e4 * k4f + e5 * k5f + e6 * k6f + e7 * k7f)
        eg = h * (e1 * k1g + e3 * k3g + e4 * k4g + e5 * k5g + e6 * k6g + e7 * k7g)
        # max(a, b) without the call: b only when b > a.
        sf, sn = abs(f), abs(fn)
        sf = atol + rtol * (sn if sn > sf else sf)
        sg, sn = abs(g), abs(gn)
        sg = atol + rtol * (sn if sn > sg else sg)
        err = sqrt(0.5 * ((ef / sf) ** 2 + (eg / sg) ** 2))
        if err <= 1.0:
            rows.append((
                r, h, log_scale, f, g,
                k1f, k3f, k4f, k5f, k6f, k7f,
                k1g, k3g, k4g, k5g, k6g, k7g,
            ))
            r = r + h
            f, g, k1f, k1g = fn, gn, k7f, k7g
            if abs(f) + abs(g) > RENORM:
                f /= RENORM
                g /= RENORM
                k1f /= RENORM
                k1g /= RENORM
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
    # The closing row is the end state with zero slopes, hence zero
    # coefficients, so any width serves.
    rows.append((r, 1.0, log_scale, f, g) + (0.0,) * 12)
    cols = np.array(rows).T
    fq = np.empty((len(rows), 5))
    gq = np.empty((len(rows), 5))
    # Each coefficient is h * (k1 p1 + k3 p3 + ... + k7 p7), summed left
    # to right elementwise, so it rounds as the scalar sum would.
    for q, state, (k1, k3, k4, k5, k6, k7) in (
        (fq, cols[3], cols[5:11]), (gq, cols[4], cols[11:17])
    ):
        q[:, 0] = state
        for j, (p1, p3, p4, p5, p6, p7) in enumerate(zip(*_P), 1):
            q[:, j] = cols[1] * (
                k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7
            )
    return (
        fq, gq, cols[2].copy(), status, steps, cols[0].copy(), cols[1].copy()
    )


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


def shoot_path(kind, c1, c2, lam, r_end, f0, g0, atol=1e-11, rtol=1e-11,
               max_steps=2_000_000):
    """Integrate the drift form to r_end, recording every step.

    Returns (f, g, log_scale, status, steps, r, h); see _integrate.
    """
    return _integrate(
        _drift_rhs(kind, c1, c2, float(lam)), float(r_end), float(f0),
        float(g0), atol, rtol, max_steps,
    )
