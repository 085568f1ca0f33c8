"""Closed-form lower bounds for the first nontrivial eigenvalue.

Ten results from the comparison-geometry literature, each evaluated on the
manifold scale (so values are directly comparable to lambda_1) from a
geometry triple (d, D, K).  Negative values of the curvature-linear family
are returned raw; clamping to 0 happens only in report aggregation so
dominance relations stay exact.

The module also carries the one-parameter linear-drift model bound (the
quadratic in beta that is exact at beta = 0 and beta = 1/2) and the
positive-branch clamp threshold used by the corrected curvature bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, NoConvergence, NoRoot
from .geometry import PI2, Alpha, CurvatureSign, GeometryTriple, log_cosh, make_alpha
from .quadrature import integrate
from .searches import brent_root

import numpy as np


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _mag(g: GeometryTriple) -> float:
    return make_alpha(g).magnitude


# -- nonnegative curvature ----------------------------------------------------


def lichnerowicz(g: GeometryTriple) -> float:
    """d K / (d - 1); sharp on round spheres, vanishes at K = 0."""
    _require(g.d > 1, "needs d > 1")
    _require(g.K >= 0.0, "needs K >= 0")
    return g.d * g.K / (g.d - 1)


def _cos_power_integral(x: float, d: int) -> float:
    return integrate(lambda t: np.cos(t) ** (d - 1), 0.0, x, tol=1e-13)


def bbg(g: GeometryTriple) -> float:
    """Volume-comparison refinement of lichnerowicz.

    Stated in the literature at the normalization K = d - 1; general K > 0
    is reached by metric rescaling, which multiplies the eigenvalue by
    K/(d-1) and leaves alpha fixed.
    """
    _require(g.d > 1, "needs d > 1")
    _require(g.K > 0.0, "needs K > 0")
    a = _mag(g)
    full = _cos_power_integral(math.pi / 2, g.d)
    part = _cos_power_integral(a, g.d)
    return (g.K / (g.d - 1)) * g.d * (full / part) ** (2.0 / g.d)


def _one_minus_cos_pow(d: int, a: float) -> float:
    """1 - cos(a)^d without cancellation, accurate down to a -> 0.

    cos(a) - 1 = -2 sin^2(a/2) keeps full relative accuracy where cos(a)
    itself has already rounded to 1, so the a^2-sized denominator of the
    sphere branch survives arbitrarily small a.
    """
    if a >= math.pi / 2:
        return 1.0
    return -math.expm1(d * math.log1p(-2.0 * math.sin(0.5 * a) ** 2))


def chen_wang_sphere(g: GeometryTriple) -> float:
    """4 d |alpha|^2 / (D^2 (1 - cos^d|alpha|)), with the limit 8/D^2 at alpha=0."""
    _require(g.d > 1, "needs d > 1")
    _require(g.K >= 0.0, "needs K >= 0")
    return 4.0 / g.D**2 * chen_wang_sphere_reduced(g.d, make_alpha(g))


def zhong_yang(g: GeometryTriple) -> float:
    """pi^2 / D^2; sharp for the circle, valid for all K >= 0."""
    _require(g.K >= 0.0, "needs K >= 0")
    return PI2 / g.D**2


# -- nonpositive curvature ----------------------------------------------------


def exp_decay(g: GeometryTriple) -> float:
    """(pi^2/D^2) exp(-(d-1)|alpha|)."""
    _require(g.K <= 0.0, "needs K <= 0")
    return PI2 / g.D**2 * math.exp(-(g.d - 1) * _mag(g))


def chen_wang_negative(g: GeometryTriple) -> float:
    """sqrt(pi^4 + 8(d-1)alpha^2) cosh^{1-d}(alpha) / D^2."""
    _require(g.d > 1, "needs d > 1")
    _require(g.K <= 0.0, "needs K <= 0")
    a = _mag(g)
    return (
        math.sqrt(PI2 * PI2 + 8.0 * (g.d - 1) * a * a)
        * math.exp((1 - g.d) * float(log_cosh(a)))
        / g.D**2
    )


@dataclass(frozen=True)
class SechIterationState:
    """Trace of the damped fixed-point iteration theta_n = theta1 tanh(theta_{n-1})."""

    theta1: float
    iterates: tuple[float, ...]
    theta: float


def sech_fixed_point(g: GeometryTriple) -> tuple[float, SechIterationState]:
    """((d-1) alpha tanh(alpha) sech(theta))^2 / D^2, theta the iteration limit.

    theta1 = (d-1) alpha tanh(alpha) / 2.  For theta1 <= 1 the map
    theta1 tanh(theta) is strictly below the identity on (0, inf), so the
    limit is exactly 0; the iteration is still run briefly so the trace
    shows the decay, but the limit does not wait for it (the approach is
    only power-law when theta1 is close to 1).
    """
    _require(g.d > 1, "needs d > 1")
    _require(g.K <= 0.0, "needs K <= 0")
    a = _mag(g)
    theta1 = 0.5 * (g.d - 1) * a * math.tanh(a)
    iterates = [theta1]
    theta = theta1
    if theta1 <= 1.0:
        for _ in range(5000):
            theta = theta1 * math.tanh(theta)
            iterates.append(theta)
            if theta < 1e-10:
                break
        theta = 0.0
    else:
        for n in range(10**6):
            nxt = theta1 * math.tanh(theta)
            iterates.append(nxt)
            if abs(nxt - theta) < 1e-13:
                theta = nxt
                break
            theta = nxt
        else:
            raise NoConvergence(
                f"sech fixed point did not settle from theta1 = {theta1}"
            )
    e = math.exp(-theta)  # 1 / cosh(theta) overflows past theta ~ 710
    sech = 2.0 * e / (1.0 + e * e)
    bound = ((g.d - 1) * a * math.tanh(a) * sech) ** 2 / g.D**2
    return bound, SechIterationState(theta1, tuple(iterates), theta)


# -- curvature-linear family --------------------------------------------------


def linear_combo(g: GeometryTriple) -> float:
    """pi^2/D^2 + K/2 for any real K; may be negative."""
    return PI2 / g.D**2 + 0.5 * g.K


def parabola_sup(kappa: float) -> float:
    """sup over s in (0, 1) of s [(1 - s) pi^2 + kappa], in closed form.

    The sup of the downward parabola sits at an interior vertex,
    (pi/2 + kappa/(2 pi))^2, for |kappa| <= pi^2, runs off to s -> 1
    (value kappa) above that, and off to s -> 0 (value 0) below -pi^2.
    """
    if abs(kappa) <= PI2:
        return (0.5 * math.pi + kappa / (2.0 * math.pi)) ** 2
    if kappa > PI2:
        return kappa
    return 0.0


def shi_zhang(g: GeometryTriple) -> float:
    """sup over s in (0,1) of s [4(1-s) pi^2/D^2 + K]: parabola_sup(K D^2/4) * 4/D^2."""
    x = g.K * g.D**2
    if g.K > 0.0 and x > (g.d - 1) * PI2 * (1.0 + 1e-12):
        raise DomainError("K D^2 beyond the diameter cap for positive curvature")
    return 4.0 / g.D**2 * parabola_sup(0.25 * x)


def csy_quadratic(g: GeometryTriple) -> float:
    """pi^2/D^2 + K/2 + (10 - pi^2) K^2 D^2 / 16, for |K| D^2 <= 4."""
    x = abs(g.K) * g.D**2
    _require(x <= 4.0 + 1e-12, "needs |K| D^2 <= 4")
    return PI2 / g.D**2 + 0.5 * g.K + (10.0 - PI2) * g.K**2 * g.D**2 / 16.0


# -- one-parameter linear-drift model -----------------------------------------


def beta_quadratic_bound(beta: float) -> float:
    """pi^2/4 + beta + (10 - pi^2) beta^2 on |beta| <= 1/2.

    Lower bound for the principal eigenvalue of f'' - 2 beta r f' on
    (0, 1); exact at beta = 0 and beta = 1/2.
    """
    if not abs(beta) <= 0.5 + 1e-12:
        raise DomainError(f"beta must satisfy |beta| <= 1/2, got {beta}")
    return PI2 / 4.0 + beta + (10.0 - PI2) * beta * beta


# -- positive-branch clamp threshold ------------------------------------------


def _clamp_gap(a, s: float):
    """(pi/(2 s a) + s a/(2 pi)) cos a - 1, for a float or an array of a."""
    return (math.pi / (2.0 * s * a) + s * a / (2.0 * math.pi)) * np.cos(a) - 1.0


# Typed, so a non-int d that equals a cached one is still refused.
@functools.lru_cache(maxsize=None, typed=True)
def alpha_clamp_root(d: int) -> float:
    """First root in (0, pi/2) of (pi/(2 s a) + s a/(2 pi)) cos a = 1, s = sqrt(d-1).

    This is the largest |alpha| up to which the corrected curvature bound
    is used at face value on the positive branch; beyond it the expression
    is evaluated at the root instead.  Bracketed by one sign scan of 1000
    cells, then solved by Brent's method to 1e-15, within a few ulps of the
    root; cached per d.
    """
    if not isinstance(d, int) or d < 2:
        raise DomainError("needs integer d >= 2")
    s = math.sqrt(d - 1.0)
    lo, hi = 1e-6, math.pi / 2 - 1e-9
    xs = np.linspace(lo, hi, 1001)
    fx = _clamp_gap(xs, s)
    change = np.flatnonzero((fx[1:] == 0.0) | (np.signbit(fx[1:]) != np.signbit(fx[0])))
    if not change.size:
        raise NoRoot(
            f"no sign change for the clamp threshold at d={d} "
            f"on ({lo}, {hi}) with 1000 cells"
        )
    i = int(change[0])
    a, b, fa, fb = (float(v) for v in (xs[i], xs[i + 1], fx[i], fx[i + 1]))
    return brent_root(lambda x: _clamp_gap(x, s), a, b, fa, fb, tol=1e-15)


def chen_wang_sphere_reduced(d: int, alpha: Alpha) -> float:
    """The sphere-branch term on the reduced scale: d |alpha|^2 / (1 - cos^d).

    chen_wang_sphere is this times 4/D^2; the combined bound takes a max
    against other reduced-scale terms before that factor is applied.
    Limit 2 at alpha = 0.
    """
    if alpha.sign is CurvatureSign.NEGATIVE_K:
        raise DomainError("sphere branch needs K >= 0")
    a = alpha.magnitude
    if a == 0.0:
        return 2.0
    return d * a * a / _one_minus_cos_pow(d, a)


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """One named closed-form bound with its validity predicate."""

    name: str
    label: str
    requires: object  # GeometryTriple -> bool
    compute: object  # GeometryTriple -> float

    def valid_for(self, g: GeometryTriple) -> bool:
        return bool(self.requires(g))

    def __call__(self, g: GeometryTriple) -> float:
        return float(self.compute(g))


def _csy_ok(g: GeometryTriple) -> bool:
    return abs(g.K) * g.D**2 <= 4.0 + 1e-12


ESTIMATES: tuple[Estimate, ...] = (
    Estimate(
        "lichnerowicz",
        "Lichnerowicz (1958)",
        lambda g: g.d > 1 and g.K >= 0.0,
        lichnerowicz,
    ),
    Estimate(
        "bbg",
        "Berard-Besson-Gallot (1985)",
        lambda g: g.d > 1 and g.K > 0.0,
        bbg,
    ),
    Estimate(
        "chen_wang_sphere",
        "Chen-Wang sphere branch (1997)",
        lambda g: g.d > 1 and g.K >= 0.0,
        chen_wang_sphere,
    ),
    Estimate(
        "zhong_yang",
        "Zhong-Yang (1984)",
        lambda g: g.K >= 0.0,
        zhong_yang,
    ),
    Estimate(
        "exp_decay",
        "exponential decay (Yang 1990, Jia 1991)",
        lambda g: g.K <= 0.0,
        exp_decay,
    ),
    Estimate(
        "chen_wang_negative",
        "Chen-Wang hyperbolic branch (1997)",
        lambda g: g.d > 1 and g.K <= 0.0,
        chen_wang_negative,
    ),
    Estimate(
        "sech_fixed_point",
        "sech fixed point (1994, corrected)",
        lambda g: g.d > 1 and g.K <= 0.0,
        lambda g: sech_fixed_point(g)[0],
    ),
    Estimate(
        "linear_combo",
        "linear curvature combination",
        lambda g: True,
        linear_combo,
    ),
    Estimate(
        "shi_zhang",
        "Shi-Zhang parabola sup (2007)",
        lambda g: True,
        shi_zhang,
    ),
    Estimate(
        "csy_quadratic",
        "Chen-Scacciatelli-Yao quadratic (2001)",
        _csy_ok,
        csy_quadratic,
    ),
)

ESTIMATE_NAMES: tuple[str, ...] = tuple(e.name for e in ESTIMATES)


def get_estimate(name: str) -> Estimate:
    for e in ESTIMATES:
        if e.name == name:
            return e
    raise DomainError(f"unknown estimate {name!r}; known: {', '.join(ESTIMATE_NAMES)}")
