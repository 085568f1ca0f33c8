"""Shooting oracle for the one-dimensional reduced eigenvalue problems.

Everything downstream of a coefficient profile can be cross-checked here,
with no reference to the quadrature lattice.  Each family is the flux-form
problem (C f')' + lam C f = 0 with one Dirichlet and one Neumann end, and
an eigenvalue is located by a two-sided Pruefer shot (Pryce, *Numerical
Solution of Sturm-Liouville Problems*, 1993; Bailey-Everitt-Zettl,
SLEIGN2, ACM TOMS 27, 2001): the angle of (f, C f') is integrated from each
end, measured from that end's condition, to a matching point m.  The
mismatch

    M(lam) = theta_left(m) + theta_right(m) - pi/2

is continuous and strictly increasing in lam, negative at lam = 0, and
equal to k pi at the k-th eigenvalue, so its one root is the ground state
and the Sturm count needs no node counter.  Brent's method finds that root
in log(lam), so the tolerance is relative.

At the Myers edge C vanishes at r = 1 like (1 - r)^(d-1).  The right half
then starts EDGE_OFFSET inside the end, from the leading term of the
bounded solution: the angle is int e^(-L) over the offset, which is
lam int C for the primal family and int C for the dual.

The eigenfunction (`EigenPath`) comes from the same march: each half is
shot again, recording its steps, and the halves meet at m.  The eigenvalue
and its eigenfunction share one integrator and one frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import (
    DegenerateDerivative,
    DomainError,
    NoBracket,
    StiffIntegration,
)
from .geometry import (
    HALF_PI,
    Alpha,
    CoefficientProfile,
    CurvatureSign,
    check_dimension,
    resolve_profile,
)
from .quadrature import integrate
from .searches import brent_root
from .universal import universal_bracket

#: Distance from a vanishing-coefficient end where the right half starts.
EDGE_OFFSET = 1e-4

#: Intervals of the trapezoid scan that places the matching point and the
#: crude window.
CRUDE_INTERVALS = 256

#: Narrowest starting window, as a width in log(lam).
MIN_WINDOW = 1e-6

#: Smallest relative tolerance a solve accepts.  Its half shots run at a
#: tenth of it, near the rounding of an angle of size pi/2 (2.2e-16); below
#: that the shot's step control cannot meet its tolerance and marches to
#: its step cap instead (404k steps at shot tolerance 1e-22, all 2,000,000
#: at 1e-24).
MIN_TOL = 1e-15

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

KIND_LINEAR = 0  # F(r) = c1 r
KIND_TANH = 1    # F(r) = c1 tanh(c2 r)
KIND_TAN = 2     # F(r) = c1 tan(c2 r)


@dataclass(frozen=True)
class EigenProblem:
    """One shooting family: (C f')' + lam C f = 0 on [0, 1], C = exp(int_0^r F).

    kind (KIND_LINEAR, KIND_TANH or KIND_TAN), c1 and c2 select the drift F
    inside the integration kernel, which marches the Pruefer angle on log C;
    F itself serves the drift form f'' = -lam f - F f' of the eigenfunction's
    second derivative and of the derivative identity.  One end is Dirichlet
    and the other Neumann.
    """

    kind: int
    c1: float
    c2: float
    bc_left: str
    bc_right: str

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_TANH, KIND_TAN):
            raise DomainError(f"unknown kernel kind {self.kind}")
        for bc in (self.bc_left, self.bc_right):
            if bc not in (DIRICHLET, NEUMANN):
                raise DomainError(
                    f"boundary condition must be {DIRICHLET!r} or {NEUMANN!r}, got {bc!r}"
                )
        if self.bc_left == self.bc_right:
            raise DomainError("one end must be Dirichlet and the other Neumann")
        if self.kind != KIND_LINEAR and not self.c2 > 0.0:
            raise DomainError(f"c2 must be positive, got {self.c2}")
        if self.kind == KIND_TAN and self.c2 > HALF_PI:
            raise DomainError("the tangent drift has a pole inside the domain")

    @property
    def singular_end(self) -> bool:
        """Whether C vanishes at r = 1 (the Myers edge)."""
        return self.kind == KIND_TAN and self.c2 == HALF_PI

    def drift(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == KIND_LINEAR:
            return self.c1 * r
        if self.kind == KIND_TANH:
            return self.c1 * np.tanh(self.c2 * r)
        return self.c1 * np.tan(self.c2 * r)

    def drift_slope(self, r):
        """dF/dr, needed by the derivative-identity checker."""
        r = np.asarray(r, dtype=float)
        if self.kind == KIND_LINEAR:
            return np.full_like(r, self.c1)
        if self.kind == KIND_TANH:
            return self.c1 * self.c2 / np.cosh(self.c2 * r) ** 2
        return self.c1 * self.c2 / np.cos(self.c2 * r) ** 2


def reduced_problem(d: int, alpha: Alpha) -> EigenProblem:
    """Dirichlet-at-0 / Neumann-at-1 drift problem for the diameter-scale bound.

    The drift is the logarithmic derivative of the model coefficient; at the
    borderline positive parameter C vanishes at r = 1.
    """
    check_dimension(d, alpha)
    if alpha.sign is CurvatureSign.ZERO:
        return EigenProblem(KIND_LINEAR, 0.0, 0.0, DIRICHLET, NEUMANN)
    a = alpha.magnitude
    if alpha.sign is CurvatureSign.NEGATIVE_K:
        return EigenProblem(KIND_TANH, (d - 1) * a, a, DIRICHLET, NEUMANN)
    return EigenProblem(KIND_TAN, -(d - 1) * a, a, DIRICHLET, NEUMANN)


def dual_problem(d: int, alpha: Alpha) -> EigenProblem:
    """Adjoint family: drift sign flipped, boundary conditions swapped."""
    base = reduced_problem(d, alpha)
    return EigenProblem(base.kind, -base.c1, base.c2, NEUMANN, DIRICHLET)


def beta_problem(beta: float) -> EigenProblem:
    """Polynomial-model drift F(r) = -2 beta r, Dirichlet at 0, Neumann at 1."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    return EigenProblem(KIND_LINEAR, -2.0 * beta, 0.0, DIRICHLET, NEUMANN)


#: Relative tolerance of an eigenfunction march.  Its absolute tolerance is
#: next to nothing, so the angle keeps its relative accuracy where it
#: starts from 0 at a Dirichlet end.
PATH_TOL = 1e-13


class EigenPath:
    """The eigenfunction from the eigenvalue shots' own Pruefer march.

    Each half is marched from its end's condition to the matching point m
    of `_landmarks`, in the frame the solve's shots use, at relative
    tolerance PATH_TOL; the right half is scaled so its amplitude meets the
    left one's at m.  m = 1 marches the left half alone, for a lam off
    the spectrum, where the halves would not meet.  r, f and fp are the step
    ends from 0 to 1, f and C f' read off each step end's angle and log
    rho, with the left end's normalization: unit slope after a Dirichlet
    start, unit value after a Neumann one.  So f = 0 at a Dirichlet end and
    f' = 0 at a Neumann end, exactly.

    Between step ends f is the quintic through f, f' and f'' = -lam f - F f'
    at both ends of its step, and f' is that quintic's derivative.  Each
    half step is summed from its nearer end, so a step end reads its stored
    values exactly and f keeps its relative accuracy next to a Dirichlet
    end.
    """

    def __init__(self, prob: EigenProblem, lam: float, m: float | None = None):
        if prob.singular_end:
            raise DomainError(
                "the eigenfunction has no path at the Myers edge, where the"
                " drift blows up"
            )
        m_star, log_kappa, _, _ = _landmarks(prob)
        m = m_star if m is None else m
        ll = math.log(lam)
        r, la, s, c = _half_march(prob, prob.bc_left, ll, log_kappa, 0.0, m)
        if prob.bc_left == DIRICHLET:
            la += log_kappa  # f'(0) = e^(la - log_kappa) = 1
        halves = [(r, la, s, c)]
        if m < 1.0:
            rr, lr, sr, cr = _half_march(prob, prob.bc_right, ll, log_kappa, 1.0, m)
            lr += la[-1] - lr[-1]
            halves.append((rr[::-1], lr[::-1], sr[::-1], cr[::-1]))
        r, la, s, c = (np.concatenate(a) for a in zip(*halves))
        lc = kernels.log_coeff(prob.kind, prob.c1, prob.c2, np)
        f = np.exp(la) * s
        fp = c * np.exp(la - log_kappa - lc(r))
        ends = np.stack((f, fp, -lam * f - prob.drift(r) * fp))
        # m ends both halves; the step-end arrays keep the right half's.
        seam = [halves[0][0].size - 1] if len(halves) > 1 else []
        self.r, self.f, self.fp = (np.delete(v, seam) for v in (r, f, fp))
        lo = np.delete(np.arange(r.size - 1), seam)
        hi = lo + 1
        w = r[hi] - r[lo]
        # Half step 2i runs from r[lo_i] to the step's midpoint, anchored
        # there; half step 2i + 1 on to r[hi_i], anchored at r[hi_i].
        self._start = np.stack((r[lo], r[lo] + 0.5 * w), axis=1).ravel()
        self._anchor = np.stack((r[lo], r[hi]), axis=1).ravel()
        self._w = np.stack((w, -w), axis=1).ravel()
        about = (
            _hermite(ends[:, lo], ends[:, hi], w),
            _hermite(ends[:, hi], ends[:, lo], -w),
        )
        self._fq, self._gq = (
            np.stack(pair, axis=2).reshape(len(pair[0]), -1)
            for pair in zip(*about)
        )

    def _eval(self, q, x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        i = np.searchsorted(self._start, flat, side="right") - 1
        np.clip(i, 0, self._start.size - 1, out=i)
        t = (flat - self._anchor[i]) / self._w[i]
        c = q[:, i]
        out = c[-1]
        for row in c[-2::-1]:
            out = row + t * out
        return out.reshape(x.shape)

    def __call__(self, x):
        return self._eval(self._fq, x)

    def deriv(self, x):
        return self._eval(self._gq, x)


def _half_march(prob, bc, ll, log_kappa, r0, r1):
    """One half's step ends from the condition bc at r0 to r1, at lam = e^ll.

    Returns (r, log rho, sin, cos) in march order, the angle taken back to
    the Dirichlet frame and cos signed by the direction, so that f = rho sin
    and kappa C f' = rho cos.
    """
    c1, shift = _frame(prob, bc, ll, log_kappa)
    theta, log_rho, t, status, steps = kernels.shoot_path(
        prob.kind, c1, prob.c2, math.exp(ll), shift, r0, r1, 0.0, 1e-300,
        PATH_TOL,
    )
    if status != kernels.STATUS_OK:
        raise StiffIntegration(
            f"path integration failed at {_lam_text(ll)} (status {status}, {steps} steps)"
        )
    sin, cos = np.sin(theta), np.cos(theta)
    if bc == NEUMANN:
        sin, cos = cos, -sin
    sign = 1.0 if r1 >= r0 else -1.0
    return r0 + sign * t, log_rho, sin, sign * cos


def _hermite(a, b, w):
    """Quintic through (f, f', f'') at a and at b = a + w, summed about a.

    Returns its coefficient rows in s = (x - a) / w, and its derivative's.
    """
    (f0, d0, s0), (f1, d1, s1) = a, b
    c1 = w * d0
    c2 = 0.5 * (w * w) * s0
    e0 = f1 - (f0 + c1 + c2)
    e1 = w * d1 - (c1 + 2.0 * c2)
    e2 = (w * w) * s1 - 2.0 * c2
    c3 = 10.0 * e0 - 4.0 * e1 + 0.5 * e2
    c4 = -15.0 * e0 + 7.0 * e1 - e2
    c5 = 6.0 * e0 - 3.0 * e1 + 0.5 * e2
    return (
        np.array((f0, c1, c2, c3, c4, c5)),
        np.array((d0, w * s0, 3.0 * c3 / w, 4.0 * c4 / w, 5.0 * c5 / w)),
    )


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Solved principal eigenvalue; `path`, its eigenfunction, is marched on first read."""

    problem: EigenProblem
    eigenvalue: float

    @cached_property
    def path(self) -> EigenPath:
        return EigenPath(self.problem, self.eigenvalue)


@lru_cache(maxsize=1024)
def _landmarks(prob: EigenProblem) -> tuple[float, float, float, float]:
    """(m, log kappa, log lo, log hi) from a trapezoid scan of log C, cached per problem.

    With phi = int 1/C from the Dirichlet end and psi = int C from the
    Neumann end, delta = sup phi psi gives Chen's crude bracket
    1/(4 delta) <= lam <= 1/delta; the eigenfunction changes over from
    f ~ phi to f ~ const at its argmax m, where f / (C f') ~ phi(m).
    Scaling C by kappa = phi(m) puts the angle near pi/4 there, where it
    moves fastest with lam.  Sums run in logs, so no scale overflows.
    """
    lc = kernels.log_coeff(prob.kind, prob.c1, prob.c2)
    r = np.linspace(0.0, 1.0, CRUDE_INTERVALS + 1)
    v = np.array([lc(x) for x in r.tolist()])
    half = math.log(0.5 / CRUDE_INTERVALS)
    inv = half + np.logaddexp(-v[:-1], -v[1:])
    coef = half + np.logaddexp(v[:-1], v[1:])
    acc = np.logaddexp.accumulate
    if prob.bc_left == DIRICHLET:
        lphi, lpsi = acc(inv)[:-1], acc(coef[::-1])[::-1][1:]
    else:
        lphi, lpsi = acc(inv[::-1])[::-1][1:], acc(coef)[:-1]
    k = int(np.argmax(lphi + lpsi))
    log_delta = float(lphi[k] + lpsi[k])
    return float(r[k + 1]), float(lphi[k]), -log_delta - math.log(4.0), -log_delta


def _frame(prob, bc, ll, log_kappa):
    """(c1, shift) of the shots' frame for an angle measured from the condition bc.

    Measured from a Neumann condition the angle obeys the Dirichlet-frame
    equation with log C~ replaced by -log C~ - log(lam) (`kernels.shoot`).
    """
    if bc == DIRICHLET:
        return prob.c1, log_kappa
    return -prob.c1, -ll - log_kappa


def _half_angle(prob, bc, ll, log_kappa, r0, r1, tol):
    """Angle from the condition bc at r0, integrated to r1, at lam = e^ll."""
    c1, shift = _frame(prob, bc, ll, log_kappa)
    theta0 = 0.0
    if r0 == 1.0 and prob.singular_end:
        # e^(-L) ~ (1 - r)^q near the end: integrate its leading term.
        r0 = 1.0 - EDGE_OFFSET
        lc = kernels.log_coeff(prob.kind, c1, prob.c2)(r0)
        theta0 = EDGE_OFFSET * math.exp(-lc - shift) / (1.0 + abs(prob.c1 / prob.c2))
    try:
        theta, _, _, status, steps = kernels.shoot(
            prob.kind, c1, prob.c2, math.exp(ll), shift, r0, r1, theta0, tol, tol
        )
    except OverflowError as exc:
        raise StiffIntegration(f"angle rates overflow at {_lam_text(ll)}") from exc
    if status != kernels.STATUS_OK:
        raise StiffIntegration(
            f"integrator gave up at {_lam_text(ll)} (status {status}, {steps} steps)"
        )
    return theta


def _lam_text(ll: float) -> str:
    """lam = e^ll for a message; log lam where e^ll overflows a double."""
    if ll < math.log(np.finfo(float).max):
        return f"lambda = {math.exp(ll):.6g}"
    return f"log lambda = {ll:.6g}"


def principal_eigenvalue(
    prob: EigenProblem,
    tol: float = 1e-11,
    *,
    window: tuple[float, float] | None = None,
) -> EigenResult:
    """Smallest positive eigenvalue of one shooting family.

    Finds the root of the mismatch of the module docstring by Brent's
    method in log(lam), to a bracket of relative width tol; each half shot
    runs at tol / 10, so tol may not fall below MIN_TOL.  The search starts
    from window (lo, hi), by default the crude bracket of _landmarks, and
    widens outward until the mismatch changes sign, so a window that misses
    the eigenvalue costs shots but never the answer.  The eigenfunction is
    marched, at PATH_TOL, only when the result's path is first read.
    """
    if not (MIN_TOL <= tol < 1.0):
        raise DomainError(f"tol must lie in [{MIN_TOL:g}, 1), got {tol}")
    m, log_kappa, a, b = _landmarks(prob)
    if window is not None:
        lo, hi = sorted(float(x) for x in window)
        if not (lo > 0.0 and math.isfinite(hi)):
            raise DomainError(f"window must be finite and positive, got {window}")
        a, b = math.log(lo), math.log(hi)
    if b - a < MIN_WINDOW:
        a, b = 0.5 * (a + b - MIN_WINDOW), 0.5 * (a + b + MIN_WINDOW)
    shot_tol = 0.1 * tol

    def mismatch(ll):
        left = _half_angle(prob, prob.bc_left, ll, log_kappa, 0.0, m, shot_tol)
        right = _half_angle(prob, prob.bc_right, ll, log_kappa, 1.0, m, shot_tol)
        return left + right - HALF_PI

    fa, fb = mismatch(a), mismatch(b)
    width = b - a
    while fa > 0.0 or fb < 0.0:
        if not (-700.0 < a and b < 700.0):
            raise NoBracket(
                "no sign change of the mismatch for lambda in"
                f" [{math.exp(a):.6g}, {math.exp(b):.6g}]"
            )
        if fa > 0.0:
            b, fb, a = a, fa, a - width
            fa = mismatch(a)
        else:
            a, fa, b = b, fb, b + width
            fb = mismatch(b)
        width *= 2.0
    return EigenResult(prob, math.exp(brent_root(mismatch, a, b, fa, fb, tol)))


def _bracket_window(d, alpha, profile):
    """The certified bracket cached on profile, as a search window."""
    b = universal_bracket(d, alpha, profile=profile)
    if b.lower > 0.0 and math.isfinite(b.upper):
        return b.lower, b.upper
    return None


def solve_lambda_bar(
    d: int,
    alpha: Alpha,
    *,
    dual: bool = False,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> EigenResult:
    """Principal eigenvalue of the reduced problem (or its dual form).

    With a profile the search starts from its certified bracket.
    """
    prob = dual_problem(d, alpha) if dual else reduced_problem(d, alpha)
    window = None if profile is None else _bracket_window(d, alpha, profile)
    return principal_eigenvalue(prob, tol=tol, window=window)


def duality_gap(
    d: int,
    alpha: Alpha,
    *,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> tuple[EigenResult, EigenResult, float]:
    """(primal, dual, relative gap): both families share one eigenvalue.

    The gap is |primal - dual| / max(|primal|, |dual|), so it reads the
    same at every eigenvalue scale.
    """
    primal_prob, dual_prob = reduced_problem(d, alpha), dual_problem(d, alpha)
    window = None if profile is None else _bracket_window(d, alpha, profile)
    primal = principal_eigenvalue(primal_prob, tol=tol, window=window)
    adjoint = principal_eigenvalue(dual_prob, tol=tol, window=window)
    p_val, d_val = primal.eigenvalue, adjoint.eigenvalue
    return primal, adjoint, abs(p_val - d_val) / max(abs(p_val), abs(d_val))


def beta_eigenvalue(beta: float, tol: float = 1e-11) -> EigenResult:
    """Principal eigenvalue of the polynomial-model drift problem."""
    return principal_eigenvalue(beta_problem(beta), tol=tol)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the weighted derivative identity and their defects."""

    s: float
    eigenvalue: float
    ell: float
    lhs: float
    rhs: float
    residual: float
    g_slope_origin: float
    g_end: float


#: Relative lift applied to the eigenvalue so f' crosses zero inside [0, 1].
_IDENTITY_LIFT = 3e-7


def derivative_identity_residual(
    d: int,
    alpha: Alpha,
    s: float,
    *,
    tol: float = 1e-11,
) -> IdentityReport:
    """Residual of 4s(1-s) int g'^2 = int (lam + s F') g^2 for g = (f')^(1/(2(1-s))).

    For the true eigenfunction f' vanishes only at the Neumann endpoint, where
    the finite shooting tolerance leaves a defect that fractional powers
    amplify.  Lifting lambda by a whisker moves the zero of f' to an interior
    point ell, and the lifted pair restricted to [0, ell] is an exact
    eigenpair: g(ell) = 0 and g'(0) = 0 hold by construction, so the identity
    can be tested cleanly.

    The left side is integrated in the variable v = f': with f'' < 0 on
    (0, ell] the substitution is exact, the coefficient collapses, and after
    flattening the remaining power the integrand is just |f''| at the radius
    where f' takes a prescribed value, so no fractional-power singularity
    ever reaches the quadrature.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"the exponent parameter must lie in (0, 1), got {s}")
    prob = reduced_problem(d, alpha)
    base = principal_eigenvalue(prob, tol=tol)
    lam = base.eigenvalue * (1.0 + _IDENTITY_LIFT)
    path = EigenPath(prob, lam, m=1.0)
    rs, fp = path.r, path.fp

    nonpos = np.nonzero(fp <= 0.0)[0]
    if nonpos.size == 0:
        raise DegenerateDerivative(
            "f' never crosses zero; the eigenvalue lift was too small"
        )
    k = int(nonpos[0])
    if k == 0:
        raise DegenerateDerivative("f' is not positive up to its first zero")
    ell = brent_root(
        path.deriv, rs[k - 1], rs[k], fp[k - 1], fp[k], tol=1e-15, max_iter=120
    )

    def second(x):
        x = np.asarray(x, dtype=float)
        return -lam * path(x) - prob.drift(x) * path.deriv(x)

    # Step ends and step midpoints on (0, ell], the last step cut at ell.
    ends = np.append(rs[1:k], ell)
    body = second(np.concatenate((rs[1:k], 0.5 * (rs[:k] + ends))))
    if np.any(body >= 0.0):
        raise DegenerateDerivative(
            "f'' changes sign on (0, ell]; the exponent substitution needs"
            " a strictly decreasing f'"
        )

    v0 = float(fp[0])
    b = s / (1.0 - s)

    def radius_of_slope(v):
        """Invert the strictly decreasing f' on [0, ell] by vector bisection."""
        lo = np.zeros_like(v)
        hi = np.full_like(v, ell)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            take = path.deriv(mid) > v
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        return 0.5 * (lo + hi)

    def lhs_flat(y):
        v = v0 * np.power(y, 1.0 / b)
        return -second(radius_of_slope(v))

    lhs = v0**b * integrate(lhs_flat, 0.0, 1.0, tol=1e-12)

    two_t = 1.0 / (1.0 - s)

    def rhs_integrand(x):
        slope = np.maximum(path.deriv(x), 0.0)
        return (lam + s * prob.drift_slope(x)) * np.power(slope, two_t)

    rhs = integrate(rhs_integrand, 0.0, ell, tol=1e-12)

    t = 0.5 * two_t
    g_slope_origin = t * v0 ** (t - 1.0) * float(second(np.array([0.0]))[0])
    g_end = max(float(path.deriv(np.array([ell]))[0]), 0.0) ** t
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        s=s,
        eigenvalue=lam,
        ell=ell,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        g_slope_origin=g_slope_origin,
        g_end=g_end,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Solved eigenvalue against both lattice Rayleigh ratios."""

    eigenvalue: float
    primal_ratio: float
    dual_ratio: float

    @property
    def worst_gap(self) -> float:
        return max(
            abs(self.primal_ratio - self.eigenvalue),
            abs(self.dual_ratio - self.eigenvalue),
        )


def variational_consistency(
    d: int,
    alpha: Alpha,
    *,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> ConsistencyReport:
    """Feed both solved eigenfunctions back through the lattice ratios.

    The primal eigenfunction is admissible for the primal ratio and the dual
    one for the dual ratio; each infimum equals the eigenvalue, so any
    systematic lattice error shows up as a gap.  Each path's right half
    starts from its end's condition, so the dual eigenfunction reads 0 at
    r = 1 exactly.
    """
    from .universal import variational_ratio

    p = resolve_profile(d, alpha, profile)
    if reduced_problem(d, alpha).singular_end:
        raise DomainError(
            "the consistency check needs the eigenfunctions, which have no"
            " path at the Myers edge; move off the borderline positive parameter"
        )
    primal, adjoint, _ = duality_gap(d, alpha, profile=p, tol=tol)
    pr = variational_ratio(primal.path, p, form="primal")
    du = variational_ratio(adjoint.path, p, form="dual")
    return ConsistencyReport(primal.eigenvalue, pr, du)
