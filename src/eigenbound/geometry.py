"""Geometric input data and the one-dimensional comparison coefficient.

A triple (d, D, K) -- dimension, diameter, Ricci lower bound -- reduces to
the dimensionless parameter

    alpha = (D / 2) * sqrt(|K| / (d - 1)),

carried here as a magnitude plus a curvature-sign tag so no complex
arithmetic ever happens: cosh(i t) = cos(t) and friends are baked into the
branch tables.  Two rules on the inputs live here once each: the Myers cap
|alpha| <= pi/2 on the positive branch (`Alpha.positive`, which
`GeometryTriple` reaches through `make_alpha`), and the dimension rule
(`check_dimension`), which the triple, the profile and the oracle share.
On the normalized interval [0, 1] the comparison coefficient is

    C(s) = cosh(alpha s)**(d-1)   (K < 0)
         = 1                      (alpha = 0)
         = cos(|alpha| s)**(d-1)  (K > 0),

and the two monotone primitives are phi(r) = int_0^r 1/C and
psi(r) = int_r^1 C.  CoefficientProfile caches cumulative tables for both
on a shared graded segmentation.  Off the lattice, `phi_at`/`psi_at`
re-integrate the local panel; `primitives_at` and `subsub_primitives`
read the integral of the in-segment interpolant the tables hold.  On the
rows the profile pages directly (the Myers edge, where C and 1/C span many
orders of magnitude inside a segment), judged once (`is_paged`) and handed
to the one means builder (`Segmentation.pointwise_means`), that integral is
not what the tables hold: `primitives_at` reads nan there, and
`subsub_primitives`, which serves the integral tables' own direct pages at
sub-sub points built for their rows only, takes the panels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MyersViolation
from .quadrature import (
    INTERP_T,
    SUBSUB_HEAD,
    SUBSUB_TAIL,
    SUBSUB_TAU,
    Segmentation,
    get_segmentation,
    needs_clip,
)

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
                f"|alpha| = {magnitude} > pi/2 for positive curvature;"
                " no such manifold exists"
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
        # make_alpha gives alpha = 0 at d = 1 for every K.
        check_dimension(self.d, Alpha.zero())
        if not (math.isfinite(self.D) and self.D > 0.0):
            raise DomainError(f"diameter must be finite > 0, got {self.D}")
        if not math.isfinite(self.K):
            raise DomainError(f"curvature bound must be finite, got {self.K}")
        make_alpha(self)  # the Myers cap, in Alpha.positive


def check_dimension(d: int, alpha: Alpha) -> None:
    """The dimension rule: d is an int, not a bool, at least 1, and d = 1 takes only alpha = 0."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {d!r}")
    if d == 1 and alpha.sign is not CurvatureSign.ZERO:
        raise DomainError("d = 1 admits only the zero-curvature parameter")


def make_alpha(g: GeometryTriple) -> Alpha:
    """Reduce a triple to its sign-tagged alpha (d = 1 and K = 0 give zero)."""
    if g.d == 1 or g.K == 0.0:
        return Alpha.zero()
    mag = (g.D / 2.0) * math.sqrt(abs(g.K) / (g.d - 1))
    if g.K < 0.0:
        return Alpha.negative(mag)
    return Alpha.positive(mag)


def alpha_to_curvature(alpha: Alpha, d: int, D: float) -> float:
    """Invert make_alpha: the K a given alpha encodes at dimension d, diameter D.

    The pair (d, alpha) must pass check_dimension.
    """
    check_dimension(d, alpha)
    if alpha.sign is CurvatureSign.ZERO:
        return 0.0
    k = 4.0 * (d - 1) * alpha.magnitude**2 / D**2
    return k if alpha.sign is CurvatureSign.POSITIVE_K else -k


def log_cosh(t):
    """log cosh t without overflow, for scalars and arrays."""
    a = np.abs(t)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


class CoefficientProfile:
    """C, phi, psi for one (d, alpha), with cached cumulative tables.

    The tables live on `get_segmentation(segments)`: the nodes of
    chebyshev_nodes(segments) with index i <= 64, i >= segments - 64 or
    i % 4 == 0 (`quadrature.lattice_nodes`), 1,120 segments for the default
    4096.  The 64 end segments on each side keep the full grid's widths,
    where the integrands vary fastest, so `tail_floor`, the Myers-edge rows
    and the rows the spectral guard pages are those of the full grid;
    between them a segment spans four grid segments.  Over the 401
    (d, alpha) points of `perfbench/reference.json` with d < 1000, the
    2,005 functional sups on this lattice stay within 1.8e-14 relative of
    the full grid's (median 9.7e-16), none below its own lattice max.  The
    sups fill the sub-node rows of their tables only on the segments whose
    node-level bounds leave room for a max (`universal._lattice_maxes`), a
    median of 10 of the 1,120 over those points, with the same maxes.

    C and 1/C at the sub-nodes are one (2, n, 15) stack, `coeff_sub`, whose
    means take one `pointwise_means` call, paged where `needs_clip` flags
    either (`is_paged`); phi and psi there are another, `prim_sub`.  c_sub,
    cinv_sub, phi_sub and psi_sub are views into them.
    """

    def __init__(self, d: int, alpha: Alpha, segments: int = 4096):
        check_dimension(d, alpha)
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
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            self.coeff_sub = self._coeff_pair(seg.sub)
            # is_paged: the (n,) mask of segments whose phi and psi rows come from direct pages
            self.is_paged = needs_clip(self.coeff_sub.reshape(-1, 15)).reshape(2, -1).any(axis=0)
            c_means, ci_means = seg.pointwise_means(self.coeff_sub, self.subsub_coefficients, self.is_paged)
            self.c_sub, self.cinv_sub = self.coeff_sub
            self.phi_nodes, phi_sub = seg.build_cumulative(self.cinv_sub, ci_means)
            self.psi_nodes, psi_sub = seg.build_reverse(self.c_sub, c_means, self.tail_floor)
            self.prim_sub = np.stack((phi_sub, psi_sub))
            self.phi_sub, self.psi_sub = self.prim_sub
        self.phi_total = float(self.phi_nodes[-1])
        self.psi_total = float(self.psi_nodes[0])
        self._cache: dict[str, object] = {}

    # -- pointwise coefficient ------------------------------------------------

    def _log_coeff(self, x: np.ndarray) -> np.ndarray:
        """log C(x); -inf where C underflows or vanishes."""
        x = np.asarray(x, dtype=float)
        if self.alpha.sign is CurvatureSign.ZERO:
            return np.zeros_like(x)
        a = self.alpha.magnitude
        if self.alpha.sign is CurvatureSign.NEGATIVE_K:
            return (self.d - 1) * log_cosh(a * x)
        # cos(a*x) loses relative accuracy near its zero: the argument a*x
        # carries absolute rounding ~ulp(pi/2), which is huge relative to a
        # value of cos that is about to vanish, and the (d-1) power multiplies
        # the damage.  In the complement u = 1 - x, exact where it matters
        # (x near 1), the half-angle tangent t = tan(a u / 2) gives
        #     cos(a - a u) = (cos a (1 - t^2) + 2 sin a t) / (1 + t^2),
        # and a u / 2 <= pi/4 for a <= pi/2, so t <= 1 and every term is
        # nonnegative: no cancellation.  One tangent costs a fraction of a
        # sine and a cosine.
        t = np.tan((0.5 * a) * np.subtract(1.0, x))
        t2 = t * t
        with np.errstate(divide="ignore"):
            c = np.log(math.cos(a) * (1.0 - t2) + (2.0 * math.sin(a)) * t)
        return (self.d - 1) * (c - np.log1p(t2))

    def _coeff_pair(self, x) -> np.ndarray:
        """C(x) and 1/C(x) stacked on a new first axis, from one evaluation of log C."""
        pair = np.multiply.outer([1.0, -1.0], self._log_coeff(x))
        return np.exp(pair, out=pair)

    def coeff(self, x) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(self._log_coeff(x))

    def coeff_inv(self, x) -> np.ndarray:
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(-self._log_coeff(x))

    # -- primitives -----------------------------------------------------------

    def phi_at(self, x) -> np.ndarray:
        """int_0^x 1/C via the cumulative table (inf propagates as inf)."""
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

    def primitives_at(self, x, weights=None) -> tuple[np.ndarray, np.ndarray]:
        """(phi, psi) at the points x from the in-segment interpolant, nan in the rows paged directly.

        Each is its node table plus the integral of the segment's degree-14
        interpolant through the sub-node values of 1/C or C over the partial
        segment (`Segmentation.partial_weights`, or weights when the caller
        has them for x.ravel() already), which is what the tables hold at
        the sub-nodes.  In the rows paged directly (`is_paged`) the tables are
        not that integral, so points there read nan, which every extremum
        solve skips.
        """
        x = np.asarray(x, dtype=float)
        k, head, tail = self.seg.partial_weights(x.ravel()) if weights is None else weights
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.phi_nodes[k] + np.einsum("ij,ij->i", head, self.cinv_sub[k])
            psi = self.psi_nodes[k + 1] + np.einsum("ij,ij->i", tail, self.c_sub[k])
        own = self.is_paged[k]
        phi[own] = psi[own] = math.nan
        return phi.reshape(x.shape), psi.reshape(x.shape)

    def subsub_primitives(self, rows: np.ndarray) -> np.ndarray:
        """phi and psi at the sub-sub points of the segments rows, stacked as (2, m, 15, 15).

        The in-segment interpolant's integrals, as in `primitives_at`, with
        the partial weights of the fixed fractions XI[j] * XI[m] of each
        segment (`quadrature.SUBSUB_HEAD`/`SUBSUB_TAIL`) in one product per
        row.  A sub-sub point (`Segmentation.subsub_points`) sits up to half
        an ulp off its fraction, which near r = 1 is ~1e-11 of psi there, so
        both integrals move to the point to first order: by the shift times the
        interpolated integrand (`quadrature.INTERP_T`).  The rows paged
        directly (`is_paged`) take `phi_at`/`psi_at` panels instead: these are
        the points the integral tables' direct pages read.
        """
        seg = self.seg
        w = seg.width[rows][:, None]
        y = seg.subsub_points(rows).reshape(rows.size, -1)
        shift = (y - seg.nodes[rows][:, None]) - w * SUBSUB_TAU
        ci, c = self.cinv_sub[rows], self.c_sub[rows]
        # einsum, not BLAS: a row's values must not depend on how many rows
        # share the call, so paging in blocks gives what one page would.
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.phi_nodes[rows][:, None] + w * np.einsum("nq,qc->nc", ci, SUBSUB_HEAD)
            phi += shift * np.einsum("nq,qc->nc", ci, INTERP_T)
            psi = self.psi_nodes[rows + 1][:, None] + w * np.einsum("nq,qc->nc", c, SUBSUB_TAIL)
            psi -= shift * np.einsum("nq,qc->nc", c, INTERP_T)
        own = np.flatnonzero(self.is_paged[rows])
        if own.size:
            phi[own] = self.phi_at(y[own])
            psi[own] = self.psi_at(y[own])
        return np.stack((phi, psi)).reshape(2, -1, 15, 15)

    def subsub_coefficients(self, rows: np.ndarray) -> np.ndarray:
        """C and 1/C at the sub-sub points of the segments rows, stacked as (2, m, 15, 15)."""
        with np.errstate(over="ignore", under="ignore"):
            return self._coeff_pair(self.seg.subsub_points(rows))


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
