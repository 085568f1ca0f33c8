"""Curvature-corrected lower bounds and their combination.

The drift correction multiplies the curvature bound K by

    M = (pi^2 / 4) int_0^1 (1 - y) cos(pi y / 2) sech^2(alpha y) dy

(sech^2 becomes sec^2 on the positive branch), which is < 1 for K < 0 and
> 1 for K > 0, so the corrected parabola sup

    sup_{s in (0,1)} s [(1 - s) pi^2 + kappa],   kappa = (d-1) x M,

with x the signed square of alpha, improves on the uncorrected one in both
directions.  An independent route to the same multiplier goes through the
comparison kernel of the iterate ratio f_2/f_1 for a(x)^{-1} d^2/dx^2:
(pi^2/4) * curvature_kernel(alpha, 0) equals the multiplier.  Both routes
are kept separate and cross-checked in tests.

combined_lower_bound takes the max of 1/delta1_star, the corrected
parabola term, and (for K > 0) the sphere branch, all on the reduced
lambda_bar scale, then returns to lambda_1 scale with the 4/D^2 factor.
On the positive branch the parabola term is only trustworthy while
a(r) = lambda_bar - s (d-1) |alpha|^2 sec^2(|alpha| r) stays positive;
past the first root of the positivity condition alpha is frozen at that
root (see classical.alpha_clamp_root), which keeps the term finite and
continuous up to pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    alpha_clamp_root,
    chen_wang_sphere_reduced,
    csy_quadratic,
    parabola_sup,
)
from .errors import DomainError, NonPositiveCoefficient
from .geometry import (
    HALF_PI,
    PI2,
    Alpha,
    CoefficientProfile,
    CurvatureSign,
    GeometryTriple,
    make_alpha,
    resolve_profile,
)
from .quadrature import integrate
from .universal import delta1_star, delta1_star_prime

# Inside this distance of x = 1 the kernel is evaluated by extrapolation:
# sec(pi x / 2) amplifies quadrature noise by 2/(pi (1 - x)) while the
# bracket it multiplies vanishes, so direct evaluation loses digits.
_NEAR_ONE = 1.0 - 2.0**-20

#: Absolute tolerance of the adaptive integrals behind the multiplier and
#: both kernels.
_TOL = 1e-12

# gamma chosen so the convex mean of the two dual bounds is exactly
# pi^2/4 at alpha = 0 (where they are 8/3 and 4 / 5^{1/3}).
GAMMA_ZERO = (PI2 / 4.0 - 4.0 * 5.0 ** (-1.0 / 3.0)) / (
    8.0 / 3.0 - 4.0 * 5.0 ** (-1.0 / 3.0)
)


def curvature_multiplier(alpha: Alpha) -> float:
    """M = (pi^2/4) int_0^1 (1-y) cos(pi y/2) / cosh(alpha y)^2 dy.

    cosh swaps to cos on the positive branch, where the y = 1 endpoint at
    |alpha| = pi/2 is a removable singularity: (1-y) cos(pi y/2) sec^2
    tends to 2/pi, and the open quadrature panels never evaluate at 1.
    M = 1 at alpha = 0, < 1 on the negative branch, > 1 on the positive.
    """
    a = alpha.magnitude
    if alpha.sign is CurvatureSign.POSITIVE_K:
        f = lambda y: (1.0 - y) * np.cos(HALF_PI * y) / np.cos(a * y) ** 2
    else:
        f = lambda y: (1.0 - y) * np.cos(HALF_PI * y) / np.cosh(a * y) ** 2
    return (PI2 / 4.0) * integrate(f, 0.0, 1.0, tol=_TOL)


@dataclass(frozen=True)
class KernelMaps:
    """The branch coefficient a = sech^2 / sec^2 with its derivative chain.

    negative branch:  p(y) = sech^2(ay) tanh(ay),
                      q(y) = sech^4(ay) [2 - cosh(2ay)],
                      a' = -2 alpha p,  a'' = -2 alpha^2 q.
    positive branch:  p(y) = sec^2(ay) tan(ay),
                      q(y) = sec^4(ay) [2 - cos(2ay)],
                      a' = +2 alpha p,  a'' = +2 alpha^2 q.
    At alpha = 0: a = 1, p = 0, q = 1, both derivatives vanish.
    """

    alpha: Alpha

    @property
    def _pos(self) -> bool:
        return self.alpha.sign is CurvatureSign.POSITIVE_K

    def a(self, y):
        m = self.alpha.magnitude
        if self._pos:
            return 1.0 / np.cos(m * np.asarray(y)) ** 2
        return 1.0 / np.cosh(m * np.asarray(y)) ** 2

    def p(self, y):
        m = self.alpha.magnitude
        if self._pos:
            return np.tan(m * np.asarray(y)) / np.cos(m * np.asarray(y)) ** 2
        return np.tanh(m * np.asarray(y)) / np.cosh(m * np.asarray(y)) ** 2

    def q(self, y):
        m = self.alpha.magnitude
        if self._pos:
            c = np.cos(m * np.asarray(y))
            return (2.0 - np.cos(2.0 * m * np.asarray(y))) / c**4
        c = np.cosh(m * np.asarray(y))
        return (2.0 - np.cosh(2.0 * m * np.asarray(y))) / c**4

    def da(self, y):
        s = 2.0 if self._pos else -2.0
        return s * self.alpha.magnitude * self.p(y)

    def dda(self, y):
        s = 2.0 if self._pos else -2.0
        return s * self.alpha.magnitude**2 * self.q(y)


def _limit_at_one(raw) -> float:
    """One-sided limit x -> 1 by polynomial extrapolation over x = 1 - 2^-k."""
    ts = [2.0**-k for k in range(6, 12)]
    vals = [raw(1.0 - t) for t in ts]
    for m in range(1, len(ts)):
        for i in range(len(ts) - m):
            vals[i] = (ts[i] * vals[i + 1] - ts[i + m] * vals[i]) / (
                ts[i] - ts[i + m]
            )
    return vals[0]


def comparison_kernel(a, da, dda, x: float) -> float:
    """The iterate-ratio kernel h(x) for the operator a(x)^{-1} d^2/dx^2.

    h(x) = (2/pi)^2 { a(x) - sec(pi x/2) [ (1-x) a'(0)
             + (1-x) int_0^x a''(y) cos(pi y/2) dy
             + int_x^1 (-2 a'(y) + (1-y) a''(y)) cos(pi y/2) dy ] }

    The principal eigenvalue with Neumann-at-0 / Dirichlet-at-1 data lies
    between inf 1/h and sup 1/h; for constant a the kernel is exactly
    (2/pi)^2 a.  a, da, dda are vectorized callables on [0, 1]; a must be
    positive (checked at every quadrature node).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"kernel argument must lie in [0, 1], got {x}")

    def probe(y):
        av = np.asarray(a(y), dtype=float)
        if np.any(av <= 0.0) or not np.all(np.isfinite(av)):
            raise NonPositiveCoefficient(
                "comparison kernel needs a > 0 on (0, 1)"
            )
        return av

    def head(y):
        probe(y)
        return np.asarray(dda(y)) * np.cos(HALF_PI * y)

    def tail(y):
        probe(y)
        return (-2.0 * np.asarray(da(y)) + (1.0 - y) * np.asarray(dda(y))) * np.cos(
            HALF_PI * y
        )

    da0 = float(np.asarray(da(np.zeros(1)), dtype=float).ravel()[0])

    def raw(xx: float) -> float:
        bracket = (1.0 - xx) * da0
        if xx > 0.0:
            bracket += (1.0 - xx) * integrate(head, 0.0, xx, tol=_TOL)
        bracket += integrate(tail, xx, 1.0, tol=_TOL)
        ax = float(probe(np.asarray([xx]))[0])
        return (4.0 / PI2) * (ax - bracket / math.cos(HALF_PI * xx))

    if x > _NEAR_ONE:
        return _limit_at_one(raw)
    return raw(x)


def curvature_kernel(alpha: Alpha, x: float) -> float:
    """Closed-form kernel for the sech^2 / sec^2 coefficient family.

    (pi^2/4) h(x) = sech^2(ax) + 2a sec(pi x/2) [ a (1-x) int_0^x q cos(pi y/2)
                    + int_x^1 (-2p + a (1-y) q) cos(pi y/2) ]

    with the sign of the correction flipped (and sech -> sec) on the
    positive branch.  Real for every curvature sign.  At x = 0 the value
    times pi^2/4 equals curvature_multiplier(alpha) -- an independent
    integral, cross-checked in tests.  The positive branch needs
    |alpha| < pi/2 strictly: at pi/2 the tail integral diverges.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"kernel argument must lie in [0, 1], got {x}")
    if alpha.at_half_pi:
        raise DomainError(
            "curvature kernel diverges at |alpha| = pi/2; combined bounds"
            " clamp alpha below this point"
        )
    if alpha.sign is CurvatureSign.ZERO:
        return 4.0 / PI2
    maps = KernelMaps(alpha)
    a = alpha.magnitude
    sgn = 1.0 if alpha.sign is CurvatureSign.POSITIVE_K else -1.0

    def raw(xx: float) -> float:
        inner = 0.0
        if xx > 0.0:
            inner += a * (1.0 - xx) * integrate(
                lambda y: maps.q(y) * np.cos(HALF_PI * y), 0.0, xx, tol=_TOL
            )
        inner += integrate(
            lambda y: (-2.0 * maps.p(y) + a * (1.0 - y) * maps.q(y))
            * np.cos(HALF_PI * y),
            xx, 1.0, tol=_TOL,
        )
        base = float(maps.a(np.asarray([xx]))[0])
        return (4.0 / PI2) * (
            base - sgn * 2.0 * a * inner / math.cos(HALF_PI * xx)
        )

    if x > _NEAR_ONE:
        return _limit_at_one(raw)
    return raw(x)


# -- corrected parabola term and the combined bound ---------------------------


@dataclass(frozen=True)
class CurvatureCorrection:
    """The multiplier actually used, after any positivity clamp."""

    multiplier: float
    alpha_used: Alpha
    clamped: bool


def clamped_correction(d: int, alpha: Alpha) -> CurvatureCorrection:
    """Evaluate the multiplier, freezing alpha at the positivity root when
    the positive branch runs past it."""
    if alpha.sign is CurvatureSign.POSITIVE_K and d >= 2:
        root = alpha_clamp_root(d)
        if alpha.magnitude > root:
            used = Alpha.positive(root)
            return CurvatureCorrection(curvature_multiplier(used), used, True)
    return CurvatureCorrection(curvature_multiplier(alpha), alpha, False)


def middle_term(d: int, alpha: Alpha) -> tuple[float, CurvatureCorrection]:
    """parabola_sup(kappa) on the reduced scale, kappa = (d-1) x M."""
    corr = clamped_correction(d, alpha)
    kappa = (d - 1) * corr.alpha_used.signed_x * corr.multiplier
    return parabola_sup(kappa), corr


@dataclass(frozen=True)
class CombinedBound:
    """Max of the three certified terms, lambda_1 scale."""

    value: float
    winner: str
    terms: dict[str, float]
    dimension_free: float | None
    correction: CurvatureCorrection


def combined_lower_bound(
    g: GeometryTriple, profile: CoefficientProfile | None = None
) -> CombinedBound:
    """max{ 1/delta1_star, corrected parabola, sphere branch } * 4/D^2.

    The sphere branch participates only for K > 0.  terms["middle"] is the
    corrected parabola sup on the lambda_1 scale: the uncorrected one at
    K = 0 (multiplier 1), above it for K < 0, and for K > 0 past the
    positivity root evaluated at the root, which keeps it continuous there.
    Also carries the dimension-free quadratic bound wherever its hypothesis
    |K| D^2 <= 4 holds (better than the parabola term for d >= 10, worse for
    d <= 7 -- reported, never maxed in, so the three-term certificate stays
    exactly as stated).
    """
    alpha = make_alpha(g)
    prof = resolve_profile(g.d, alpha, profile)
    scale = 4.0 / g.D**2
    mid, corr = middle_term(g.d, alpha)
    terms = {
        "delta1_star": scale / delta1_star(prof),
        "middle": scale * mid,
    }
    if alpha.sign is CurvatureSign.POSITIVE_K:
        terms["sphere"] = scale * chen_wang_sphere_reduced(g.d, alpha)
    else:
        terms["sphere"] = 0.0
    winner = max(("delta1_star", "middle", "sphere"), key=lambda k: terms[k])
    try:
        free = csy_quadratic(g)
    except DomainError:
        free = None
    return CombinedBound(terms[winner], winner, terms, free, corr)


# -- convex means of the two dual-route bounds --------------------------------


@dataclass(frozen=True)
class ConvexMean:
    """gamma-weighted mean of 1/delta1_star' and 1/delta1_star."""

    gamma: float
    value: float
    anchor: str


def convex_mean(
    d: int,
    alpha: Alpha,
    anchor: str = "at_zero",
    profile: CoefficientProfile | None = None,
    edge_profile: CoefficientProfile | None = None,
) -> ConvexMean:
    """gamma / delta1_star' + (1 - gamma) / delta1_star at the given alpha.

    anchor "at_zero" uses the d-independent weight that makes the mean
    exactly pi^2/4 at alpha = 0; "at_half_pi" solves the weight from the
    exact sphere value d pi^2/4 at |alpha| = pi/2 for this d (edge_profile
    may supply that profile).  With gamma in [0, 1] the mean lies between
    1/delta1_star and 1/delta1_star', and at its anchor point it equals the
    exact eigenvalue.  Elsewhere it only approximates lambda_bar: it is
    neither a lower nor an upper certificate, and it lands on either side
    of lambda_bar (see criterion 9 in the acceptance tests).
    """
    if anchor == "at_zero":
        gamma = GAMMA_ZERO
    elif anchor == "at_half_pi":
        ep = resolve_profile(d, Alpha.positive(HALF_PI), edge_profile)
        inv_s = 1.0 / delta1_star(ep)
        inv_p = 1.0 / delta1_star_prime(ep)
        gamma = (d * PI2 / 4.0 - inv_s) / (inv_p - inv_s)
    else:
        raise DomainError(f"anchor must be at_zero or at_half_pi, got {anchor!r}")
    prof = resolve_profile(d, alpha, profile)
    value = gamma / delta1_star_prime(prof) + (1.0 - gamma) / delta1_star(prof)
    return ConvexMean(gamma, value, anchor)
