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
on a shared graded segmentation.  Off the lattice, `phi_at`/`psi_at`
re-integrate the local panel; `primitives_at` and `subsub_primitives`
read the integral of the in-segment interpolant the tables hold.  On the
rows the profile pages directly (the Myers edge, where C and 1/C span many
orders of magnitude inside a segment) that integral is not what the tables
hold, so both read the flux forms phi C and psi / C instead, which stay
bounded and smooth there, from their interpolant, and divide by C and 1/C
at the point.  Only the paged rows whose flux rows the interpolant cannot
carry, the last few at the edge, keep the panels.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MyersViolation
from .quadrature import (
    DIFF_T,
    DINTERP_T,
    INTERP_T,
    SUBSUB_HEAD,
    SUBSUB_TAIL,
    SUBSUB_TAU,
    WH,
    XI,
    Segmentation,
    _lagrange_matrix,
    get_segmentation,
    needs_clip,
    page_means,
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
    the full grid's (median 9.7e-16), none below its own lattice max.
    """

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
            pages = []

            def coeff_pages(rows):
                pages.append(self._coeff_pair(seg.subsub[rows]))
                return pages[-1]

            # paged: the segments whose phi and psi rows come from direct pages
            (c_means, ci_means), self.paged = seg.pointwise_means((c_sub, ci_sub), coeff_pages)
            self.c_sub = c_sub
            self.cinv_sub = ci_sub
            self.phi_nodes, self.phi_sub = seg.build_cumulative(ci_sub, ci_means)
            self.psi_nodes, self.psi_sub = seg.build_reverse(c_sub, c_means, self.tail_floor)
            # C and 1/C at the paged rows' sub-sub points, kept so that no
            # later read of those points takes log C again.
            self.c_pages, self.cinv_pages = (
                np.concatenate([np.empty((0, 15, 15)), *(page[i] for page in pages)]) for i in (0, 1)
            )
        self.phi_total = float(self.phi_nodes[-1])
        self.psi_total = float(self.psi_nodes[0])
        self._cache: dict[str, object] = {}

    @functools.cached_property
    def flux_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi C, psi / C) at the fractions XI of each paged row, and the mask of rows the flux read may take.

        Both are bounded and smooth where phi and psi span many orders of
        magnitude.  Each comes from the node tables and the kept pages, not
        from phi_sub and psi_sub: a stored sub-node or sub-sub point sits up
        to half an ulp off its fraction of the segment, ~3e-11 of a
        Myers-edge row's width, which moves C there by (d - 1) ulp / (1 - r)
        relative.  Read off phi_sub and psi_sub, the flux rows put phi 1.8x
        and psi 3.4x as far from the integral as `phi_at`/`psi_at` panels at
        the d = 5 edge.  So every value of C and 1/C, in the row and in its
        pages, moves to its fraction to first order, by (log C)' from the
        interpolant of the row's log C, before the Gauss-Legendre sums; the
        flux read then inherits only the node tables' error, as the panels
        do.  A row may take the flux read if both its flux rows are
        positive and left alone by the guard of `needs_clip`.  Built on the
        first read that lands in a paged row.
        """
        seg, rows = self.seg, self.paged
        w = seg.width[rows][:, None]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lc = np.log(self.c_sub[rows])
            move = (seg.offs[rows] - w * XI) * np.einsum("nq,qc->nc", lc, DIFF_T) / w
            page_move = (self._subsub_shift(rows) * np.einsum("nq,qc->nc", lc, DINTERP_T) / w).reshape(-1, 15, 15)
            c = self.c_sub[rows] * (1.0 - move)
            head_ci = w * XI * page_means(self.cinv_pages * (1.0 + page_move))
            head_c = w * XI * page_means(self.c_pages * (1.0 - page_move))
            phi_flux = (self.phi_nodes[rows][:, None] + head_ci) * c
            psi = self.psi_nodes[rows + 1][:, None] + w * (c @ WH)[:, None] - head_c
            psi_flux = psi * (self.cinv_sub[rows] * (1.0 + move))
            flux = ~(needs_clip(phi_flux) | needs_clip(psi_flux))
            flux &= np.all(phi_flux > 0.0, axis=1) & np.all(psi_flux > 0.0, axis=1)
        return phi_flux, psi_flux, flux

    def _subsub_shift(self, rows: np.ndarray) -> np.ndarray:
        """(m, 225) offsets of the stored sub-sub points of the segments rows from their fractions SUBSUB_TAU."""
        seg = self.seg
        return (seg.subsub[rows] - seg.nodes[rows][:, None, None]).reshape(-1, SUBSUB_TAU.size) - seg.width[rows][:, None] * SUBSUB_TAU

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
        """(phi, psi) at the points x from the in-segment interpolant.

        Each is its node table plus the integral of the segment's degree-14
        interpolant through the sub-node values of 1/C or C over the partial
        segment (`Segmentation.partial_weights`, or weights when the caller
        has them for x.ravel() already), which is what the tables hold at
        the sub-nodes.  In the rows paged directly (`paged`) the tables are
        not that integral; there the flux rows phi C and psi / C, bounded
        where phi and psi are not, are interpolated to the point by the
        Lagrange row at its fraction tau of the segment and divided by C
        and 1/C from one log C at the point.  A point on a node reads the
        node tables instead of the interpolant extrapolated to tau = 0.  The
        paged rows the guard of `flux_rows` rejects take `phi_at`/`psi_at`
        panels: the last 4 at the Myers edge (7 at d = 63), whose flux rows
        fall toward 0 across the row or underflow.
        """
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        seg = self.seg
        k, head, tail = seg.partial_weights(flat) if weights is None else weights
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.phi_nodes[k] + np.einsum("ij,ij->i", head, self.cinv_sub[k])
            psi = self.psi_nodes[k + 1] + np.einsum("ij,ij->i", tail, self.c_sub[k])
        own, j = self._paged_split(k, phi, psi, lambda i: flat[i])
        if own.size:
            phi_flux, psi_flux, _ = self.flux_rows
            y, ko = flat[own], k[own]
            lagrange = _lagrange_matrix((y - seg.nodes[ko]) / seg.width[ko])
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                c, ci = self._coeff_pair(y)
                phi[own] = np.einsum("ij,ij->i", lagrange, phi_flux[j]) * ci
                psi[own] = np.einsum("ij,ij->i", lagrange, psi_flux[j]) * c
            on = own[y == seg.nodes[ko]]
            phi[on] = self.phi_nodes[k[on]]
            psi[on] = self.psi_nodes[k[on]]
        return phi.reshape(x.shape), psi.reshape(x.shape)

    def subsub_primitives(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, psi) at the sub-sub points of the segments rows, (m, 15, 15) each.

        `primitives_at` on seg.subsub[rows], with the partial weights of the
        fixed fractions XI[j] * XI[m] of each segment
        (`quadrature.SUBSUB_HEAD`/`SUBSUB_TAIL`) in one product per row.
        A stored sub-sub point sits up to half an ulp off its fraction,
        which near r = 1 is ~1e-11 of psi there, so both integrals move to
        the stored point to first order: by the shift times the
        interpolated integrand (`quadrature.INTERP_T`).  The paged rows
        read the flux rows as `primitives_at` does, interpolated to the
        fractions (`INTERP_T`) and moved by the shift times the
        interpolant's derivative (`quadrature.DINTERP_T`), with C and 1/C
        from the pages the profile's tables were built from (`c_pages`);
        rows the guard of `flux_rows` rejects take panels.
        """
        seg = self.seg
        w = seg.width[rows][:, None]
        shift = self._subsub_shift(rows)
        ci, c = self.cinv_sub[rows], self.c_sub[rows]
        # einsum, not BLAS: a row's values must not depend on how many rows
        # share the call, so paging in blocks gives what one page would.
        with np.errstate(over="ignore", invalid="ignore"):
            phi = self.phi_nodes[rows][:, None] + w * np.einsum("nq,qc->nc", ci, SUBSUB_HEAD)
            phi += shift * np.einsum("nq,qc->nc", ci, INTERP_T)
            psi = self.psi_nodes[rows + 1][:, None] + w * np.einsum("nq,qc->nc", c, SUBSUB_TAIL)
            psi -= shift * np.einsum("nq,qc->nc", c, INTERP_T)
        own, j = self._paged_split(rows, phi, psi, lambda i: seg.subsub[rows[i]].reshape(i.size, -1))
        if own.size:
            phi_flux, psi_flux, _ = self.flux_rows
            step = shift[own] / w[own]

            def moved(v):
                return np.einsum("nq,qc->nc", v, INTERP_T) + step * np.einsum("nq,qc->nc", v, DINTERP_T)

            with np.errstate(over="ignore", invalid="ignore"):
                phi[own] = moved(phi_flux[j]) * self.cinv_pages[j].reshape(-1, SUBSUB_TAU.size)
                psi[own] = moved(psi_flux[j]) * self.c_pages[j].reshape(-1, SUBSUB_TAU.size)
        return phi.reshape(-1, 15, 15), psi.reshape(-1, 15, 15)

    def _paged_split(self, k, phi, psi, points) -> tuple[np.ndarray, np.ndarray]:
        """Panels for the entries of phi and psi in the paged rows that fail the flux guard.

        k holds the segment of each entry and points(i) the points of the
        entries i.  Returns the indices of the entries in flux rows and
        their rows of `paged`, for the caller's flux read.
        """
        own = np.flatnonzero(np.isin(k, self.paged))
        if not own.size:
            return own, own
        j = np.searchsorted(self.paged, k[own])
        flux = self.flux_rows[2][j]
        panel = own[~flux]
        if panel.size:
            y = points(panel)
            phi[panel] = self.phi_at(y)
            psi[panel] = self.psi_at(y)
        return own[flux], j[flux]

    def subsub_coefficients(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(C, 1/C) at the sub-sub points of the segments rows, (m, 15, 15) each.

        Paged rows read `c_pages`/`cinv_pages`, so log C is taken once per
        sub-sub point of a paged row; other rows take it here.
        """
        own = np.isin(rows, self.paged)
        if not own.any():
            with np.errstate(over="ignore", under="ignore"):
                return self._coeff_pair(self.seg.subsub[rows])
        j = np.searchsorted(self.paged, rows[own])
        c = np.empty((rows.size, 15, 15))
        ci = np.empty_like(c)
        c[own], ci[own] = self.c_pages[j], self.cinv_pages[j]
        with np.errstate(over="ignore", under="ignore"):
            c[~own], ci[~own] = self._coeff_pair(self.seg.subsub[rows[~own]])
        return c, ci


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
