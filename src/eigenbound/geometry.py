"""Geometric input data and the one-dimensional comparison coefficient.

A triple (d, D, K) -- dimension, diameter, Ricci lower bound -- reduces to
the dimensionless parameter

    alpha = (D / 2) * sqrt(|K| / (d - 1)),

carried here as a magnitude plus a curvature-sign tag so no complex
arithmetic ever happens: cosh(i t) = cos(t) and friends are baked into the
branch tables.  On the normalized interval [0, 1] the comparison
coefficient is

    C(s) = cosh(alpha s)**(d-1)   (K < 0)
         = 1                      (alpha = 0)
         = cos(|alpha| s)**(d-1)  (K > 0),

and the two monotone primitives are phi(r) = int_0^r 1/C and
psi(r) = int_r^1 C.  CoefficientProfile caches cumulative tables for both
on a shared Chebyshev segmentation; off-node queries re-integrate the
local panel, so they stay quadrature-exact rather than interpolated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegral, DomainError, MyersViolation
from .quadrature import Segmentation, get_segmentation

HALF_PI = math.pi / 2.0
PI2 = math.pi**2
MYERS_SLACK = 1e-12


class CurvatureSign(enum.Enum):
    NEGATIVE_K = "negative_K"
    ZERO = "zero"
    POSITIVE_K = "positive_K"


@dataclass(frozen=True)
class Alpha:
    """Dimensionless curvature-diameter parameter with a sign tag."""

    sign: CurvatureSign
    magnitude: float

    def __post_init__(self):
        if not math.isfinite(self.magnitude) or self.magnitude < 0.0:
            raise DomainError(f"alpha magnitude must be finite >= 0, got {self.magnitude}")
        if self.sign is CurvatureSign.ZERO and self.magnitude != 0.0:
            raise DomainError("zero-curvature alpha must have magnitude 0")
        if self.sign is not CurvatureSign.ZERO and self.magnitude == 0.0:
            raise DomainError("signed alpha must have positive magnitude")

    @staticmethod
    def zero() -> "Alpha":
        return Alpha(CurvatureSign.ZERO, 0.0)

    @staticmethod
    def negative(magnitude: float) -> "Alpha":
        return Alpha(CurvatureSign.NEGATIVE_K, float(magnitude))

    @staticmethod
    def positive(magnitude: float) -> "Alpha":
        magnitude = float(magnitude)
        if magnitude > HALF_PI + MYERS_SLACK:
            raise MyersViolation(
                f"|alpha| = {magnitude} exceeds pi/2 for positive curvature"
            )
        return Alpha(CurvatureSign.POSITIVE_K, min(magnitude, HALF_PI))

    @staticmethod
    def from_signed_x(x: float) -> "Alpha":
        """Signed-square convention: x < 0 means K < 0 with |alpha| = sqrt(-x)."""
        x = float(x)
        if x == 0.0:
            return Alpha.zero()
        if x < 0.0:
            return Alpha.negative(math.sqrt(-x))
        return Alpha.positive(math.sqrt(x))

    @property
    def signed_x(self) -> float:
        if self.sign is CurvatureSign.NEGATIVE_K:
            return -self.magnitude**2
        if self.sign is CurvatureSign.POSITIVE_K:
            return self.magnitude**2
        return 0.0

    @property
    def at_half_pi(self) -> bool:
        return self.sign is CurvatureSign.POSITIVE_K and self.magnitude == HALF_PI


@dataclass(frozen=True)
class GeometryTriple:
    """Dimension d, diameter D, Ricci lower bound K (Ric >= K(d-1) normalization
    is NOT used; K is the raw lower bound constant)."""

    d: int
    D: float
    K: float

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {self.d!r}")
        if not (math.isfinite(self.D) and self.D > 0.0):
            raise DomainError(f"diameter must be finite > 0, got {self.D}")
        if not math.isfinite(self.K):
            raise DomainError(f"curvature bound must be finite, got {self.K}")
        if self.K > 0.0 and self.d >= 2:
            mag = (self.D / 2.0) * math.sqrt(self.K / (self.d - 1))
            if mag > HALF_PI + MYERS_SLACK:
                raise MyersViolation(
                    f"(d={self.d}, D={self.D}, K={self.K}) gives |alpha| = {mag}"
                    " > pi/2; no such manifold exists"
                )


def make_alpha(g: GeometryTriple) -> Alpha:
    """Reduce a triple to its sign-tagged alpha (d = 1 and K = 0 give zero)."""
    if g.d == 1 or g.K == 0.0:
        return Alpha.zero()
    mag = (g.D / 2.0) * math.sqrt(abs(g.K) / (g.d - 1))
    if g.K < 0.0:
        return Alpha.negative(mag)
    return Alpha.positive(mag)


def alpha_to_curvature(alpha: Alpha, d: int, D: float) -> float:
    """Invert make_alpha: the K a given alpha encodes at dimension d, diameter D."""
    if alpha.sign is CurvatureSign.ZERO or d == 1:
        return 0.0
    k = 4.0 * (d - 1) * alpha.magnitude**2 / D**2
    return k if alpha.sign is CurvatureSign.POSITIVE_K else -k


def log_cosh(t):
    """log cosh t without overflow, for scalars and arrays."""
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


class CoefficientProfile:
    """C, phi, psi for one (d, alpha), with cached cumulative tables."""

    def __init__(self, d: int, alpha: Alpha, segments: int = 4096):
        if not isinstance(d, int) or d < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {d!r}")
        self.d = d
        self.alpha = alpha
        self.seg: Segmentation = get_segmentation(segments)
        seg = self.seg
        # Coordinates near r = 1 are rounded to half an ulp of 1, so values
        # of an integrand with log-slope ~(d-1)/(1-r) there carry relative
        # noise up to (d-1) * ulp(1) / w for the narrowest segment width w.
        # Tail-table entries below this level (times a safety margin) are
        # unresolvable and get flushed by build_reverse.
        self.tail_floor = (
            16.0 * max(self.d - 1, 1) * np.spacing(1.0) / float(seg.width.min())
        )
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            c_sub, ci_sub = self._coeff_pair(seg.sub)
            # paged: the segments whose phi and psi rows come from direct pages
            (c_means, ci_means), self.paged = seg.pointwise_means(
                (c_sub, ci_sub), self._coeff_pair
            )
            self.c_sub = c_sub
            self.cinv_sub = ci_sub
            self.phi_nodes, self.phi_sub = seg.build_cumulative(ci_sub, ci_means)
            self.psi_nodes, self.psi_sub = seg.build_reverse(c_sub, c_means, self.tail_floor)
        self.phi_total = float(self.phi_nodes[-1])
        self.psi_total = float(self.psi_nodes[0])
        self._cache: dict[str, object] = {}

    # -- pointwise coefficient ------------------------------------------------

    def _log_coeff(self, x: np.ndarray) -> np.ndarray:
        """log C(x); -inf where C underflows or vanishes."""
        x = np.asarray(x, dtype=float)
        if self.d == 1 or self.alpha.sign is CurvatureSign.ZERO:
            return np.zeros_like(x)
        a = self.alpha.magnitude
        if self.alpha.sign is CurvatureSign.NEGATIVE_K:
            return (self.d - 1) * log_cosh(a * x)
        # cos(a*x) loses relative accuracy near its zero: the argument a*x
        # carries absolute rounding ~ulp(pi/2), which is huge relative to a
        # value of cos that is about to vanish, and the (d-1) power multiplies
        # the damage.  The angle-sum form in the complement u = 1 - x has all
        # four factors nonnegative for a <= pi/2, so no cancellation, and u
        # itself is exact where it matters (x near 1).
        # Evaluated in place to spare full-lattice temporaries; `out=` keeps
        # a 0-d input a 0-d array, which the in-place ufuncs need.
        c = np.subtract(1.0, x, out=np.empty_like(x))  # u, then a * u
        c *= a
        s = np.sin(c)
        s *= math.sin(a)
        np.cos(c, out=c)
        c *= math.cos(a)
        c += s
        np.maximum(c, 0.0, out=c)
        with np.errstate(divide="ignore"):
            np.log(c, out=c)
        c *= self.d - 1
        return c

    def _coeff_pair(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(C(x), 1/C(x)) from one evaluation of log C."""
        lc = self._log_coeff(x)
        c = np.exp(lc)
        np.negative(lc, out=lc)
        return c, np.exp(lc, out=lc)

    def coeff(self, x) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self._log_coeff(x))

    def coeff_inv(self, x) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self._log_coeff(x))

    # -- primitives -----------------------------------------------------------

    @property
    def phi_diverges(self) -> bool:
        return self.alpha.at_half_pi and self.d >= 2

    def phi_at(self, x) -> np.ndarray:
        """int_0^x 1/C without divergence reporting (inf propagates as inf)."""
        x = np.asarray(x, dtype=float)
        shape = x.shape
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = self.seg.cum_eval(self.phi_nodes, self.coeff_inv, x.ravel())
        return out.reshape(shape)

    def psi_at(self, x) -> np.ndarray:
        """int_x^1 C via the right-tail table."""
        x = np.asarray(x, dtype=float)
        shape = x.shape
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = self.seg.tail_eval(self.psi_nodes, self.coeff, x.ravel())
        return out.reshape(shape)

    def phi(self, r: float) -> float:
        """Scalar phi with the divergent endpoint reported as an error."""
        r = float(r)
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"phi argument must lie in [0, 1], got {r}")
        if r == 1.0 and self.phi_diverges:
            raise DivergentIntegral(
                "phi(1) = +inf at |alpha| = pi/2 with d >= 2", math.inf
            )
        if r == 0.0:
            return 0.0
        return float(self.phi_at(np.array([r]))[0])

    def psi(self, r: float) -> float:
        r = float(r)
        if not 0.0 <= r <= 1.0:
            raise DomainError(f"psi argument must lie in [0, 1], got {r}")
        if r == 1.0:
            return 0.0
        return float(self.psi_at(np.array([r]))[0])


def resolve_profile(
    d: int, alpha: Alpha, profile: CoefficientProfile | None
) -> CoefficientProfile:
    """profile if it was built for (d, alpha), a fresh profile if it is None.

    The magnitudes may differ by rounding, as when alpha is recovered from a
    triple through (D, K); anything more raises DomainError.
    """
    if profile is None:
        return CoefficientProfile(d, alpha)
    got = profile.alpha
    if (
        profile.d != d
        or got.sign is not alpha.sign
        or not math.isclose(got.magnitude, alpha.magnitude, rel_tol=1e-12)
    ):
        raise DomainError(
            f"profile is for d = {profile.d}, alpha = {got.signed_x:+.6g} (signed"
            f" square), not the requested d = {d}, alpha = {alpha.signed_x:+.6g}"
        )
    return profile
