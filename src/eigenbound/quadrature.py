"""Adaptive Gauss-Legendre quadrature and segmented cumulative tables.

Two layers live here.

`integrate` is a globally adaptive composite 15-point Gauss-Legendre rule:
panels sit in a worst-first heap, the error of a panel is the difference
between its one-panel value and the sum over its two halves, and panels are
split until the total estimated error drops below the absolute tolerance.
Nodes are interior, so integrable endpoint singularities (u**-0.5 and the
like) are handled by geometric refinement toward the endpoint rather than
by evaluating at it.

`Segmentation` carries a fixed graded partition of [0, 1] (a Chebyshev
grid, quadratic clustering at both endpoints, thinned between its ends)
together with the Gauss-Legendre sub-nodes of every segment, and builds
the sub-sub-nodes needed to integrate up to a sub-node exactly for the
rows asked for (`subsub_points`).  Cumulative tables built on it give
F(x) = int_0^x f at every partition node and every sub-node with
panel-exact accuracy.
`cum_eval` and `tail_eval` extend that to arbitrary interior points by
re-integrating the integrand over part of one segment;
`partial_weights` does it with no integrand at all, integrating the
in-segment interpolant of a row's sub-node values (`partial_means`).  All
heavy evaluation is vectorized; integrands must accept numpy arrays.

The tables take the within-segment means of the integrand: row k, column j
holds the GL15 mean of f over [node_k, sub_kj].  A row's means are one
product of its sub-node values with the 15x15 spectral integration matrix
`SPECTRAL[q, j] = sum_m INTERP[15j+m, q] WH[m]` (Greengard, SIAM J.
Numer. Anal. 28, 1991), the means of its degree-14 in-segment interpolant.
A row whose interpolant may overshoot its conditioning cap (`needs_clip`)
takes sub-sub pages instead.  One means builder (`pointwise_means`) does
both, on the rows its caller judged: with direct pages when f can be
evaluated pointwise, with clipped interpolated ones (`interp_means`) when
f is known only at the sub-nodes.  The same interpolant integrated to any
tau in [0, 1] gives W(tau) = tau * partial_means(tau), with
W(XI[j]) = XI[j] * SPECTRAL[:, j] and W(1) = WH, so off-lattice values on
a spectral row continue the table between its sub-nodes.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from .errors import DivergentIntegral, NoConvergence

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# Reference data on [0, 1]: node positions XI and weights WH (sum to 1).
XI = 0.5 * (_GL_NODES + 1.0)
WH = 0.5 * _GL_WEIGHTS


def gl15(f, a: float, b: float) -> float:
    """One 15-point Gauss-Legendre panel over [a, b]."""
    x = a + (b - a) * XI
    v = np.asarray(f(x), dtype=float)
    return float((b - a) * np.dot(WH, v))


def integrate(f, a: float, b: float, tol: float = 1e-10,
              max_panels: int = 20000) -> float:
    """Adaptive integral of f over [a, b] to absolute tolerance tol.

    f must accept a numpy array of abscissas.  Raises NoConvergence when
    the panel budget runs out and DivergentIntegral when refinement drives
    a non-finite panel below representable width.
    """
    a = float(a)
    b = float(b)
    if b == a:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol=tol, max_panels=max_panels)

    seq = 0

    def split(lo, hi, q1):
        """Evaluate the two halves of [lo, hi]; heap entry with refined value."""
        nonlocal seq
        mid = 0.5 * (lo + hi)
        ql = gl15(f, lo, mid)
        qr = gl15(f, mid, hi)
        q2 = ql + qr
        if math.isfinite(q1) and math.isfinite(q2):
            err = abs(q1 - q2)
        else:
            err = math.inf
        seq += 1
        return (-err, seq, lo, mid, hi, ql, qr, q2)

    entry = split(a, b, gl15(f, a, b))
    heap = [entry]
    total = entry[7]
    total_err = -entry[0]
    n_panels = 3
    width_floor = 1e-15 * (b - a)
    while total_err > tol:
        if n_panels >= max_panels:
            raise NoConvergence(
                f"integrate: {n_panels} panels, est err {total_err:.3e} > tol {tol:.3e}"
            )
        neg, _s, lo, mid, hi, ql, qr, q2 = heapq.heappop(heap)
        err = -neg
        total -= q2
        total_err -= err
        if hi - lo < width_floor:
            if not math.isfinite(q2):
                raise DivergentIntegral(
                    f"integrate: non-finite panel at [{lo}, {hi}]"
                )
            # Width exhausted; freeze this panel at its refined value.
            total += q2
            heapq.heappush(heap, (0.0, seq, lo, mid, hi, ql, qr, q2))
            seq += 1
            continue
        for (l2, h2, q1c) in ((lo, mid, ql), (mid, hi, qr)):
            child = split(l2, h2, q1c)
            heapq.heappush(heap, child)
            total += child[7]
            total_err += -child[0]
            n_panels += 2
    return float(total)


def chebyshev_nodes(n_segments: int) -> np.ndarray:
    """n_segments + 1 Chebyshev-spaced nodes on [0, 1], endpoints included."""
    i = np.arange(n_segments + 1)
    return 0.5 * (1.0 - np.cos(np.pi * i / n_segments))


#: Segments of the Chebyshev grid that the lattice keeps at each end, and
#: the stride of the grid nodes it keeps between them (`lattice_nodes`).
END_SEGMENTS = 64
STRIDE = 4


def lattice_nodes(n_segments: int) -> np.ndarray:
    """The nodes i of chebyshev_nodes(n_segments) with i <= END_SEGMENTS,
    i >= n_segments - END_SEGMENTS or i % STRIDE == 0 (see `Segmentation`)."""
    i = np.arange(n_segments + 1)
    keep = (i <= END_SEGMENTS) | (i >= n_segments - END_SEGMENTS) | (i % STRIDE == 0)
    return chebyshev_nodes(n_segments)[keep]


def _lagrange_matrix(points: np.ndarray) -> np.ndarray:
    """Rows evaluate the degree-14 interpolant through (XI, values) at `points`."""
    m = np.empty((points.size, XI.size))
    for q in range(XI.size):
        num = np.ones_like(points)
        den = 1.0
        for p in range(XI.size):
            if p == q:
                continue
            num *= points - XI[p]
            den *= XI[q] - XI[p]
        m[:, q] = num / den
    return m


#: (225,) fractions XI[j] * XI[m] of its segment at which sub-sub point
#: 15j+m sits: GL node m of [0, XI[j]] on the reference segment.
SUBSUB_TAU = (XI[:, None] * XI[None, :]).ravel()
#: (225, 15) degree-14 interpolation from a segment's 15 sub-nodes to its
#: sub-sub points, and its contiguous transpose.
INTERP = _lagrange_matrix(SUBSUB_TAU)
INTERP_T = np.ascontiguousarray(INTERP.T)
#: (15, 15) derivative in tau of the degree-14 interpolant at the sub-nodes:
#: row @ DIFF_T is the derivative of row's interpolant at XI (the barycentric
#: differentiation matrix, Berrut and Trefethen, SIAM Review 46, 2004,
#: section 9).
_BARY = 1.0 / np.prod(XI[:, None] - XI[None, :] + np.eye(15), axis=1)
_DIFF = _BARY[None, :] / _BARY[:, None] / (XI[:, None] - XI[None, :] + np.eye(15)) * (1.0 - np.eye(15))
DIFF_T = np.ascontiguousarray((_DIFF - np.diag(_DIFF.sum(axis=1))).T)
#: (15, 15) spectral integration matrix: v_sub @ SPECTRAL equals the
#: WH-weighted page means of the interpolated row, without the page.
SPECTRAL = INTERP.T.reshape(15, 15, 15) @ WH
#: Lebesgue constant of the sub-sub positions (largest absolute row sum of
#: INTERP, ~6.604), padded so the guard in `needs_clip` also covers the
#: rounding of the page values it vouches for.
LEBESGUE = float(np.max(np.sum(np.abs(INTERP), axis=1))) * (1.0 + 1e-12)


#: Chebyshev points of the second kind on [0, 1], both ends included, their
#: barycentric weights, and the partial means of the degree-14 Lagrange basis
#: through XI at each of them (row i, column q: the mean of basis polynomial q
#: over [0, _CHEB[i]]).  The partial means are polynomials of degree 14 in
#: the upper limit, so these 16 samples carry them exactly.
_CHEB = 0.5 * (1.0 - np.cos(np.pi * np.arange(16) / 15))
_CHEB_WEIGHTS = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
_CHEB_WEIGHTS[[0, -1]] *= 0.5
_CHEB_MEANS = (_lagrange_matrix((_CHEB[:, None] * XI[None, :]).ravel()).T.reshape(15, 16, 15) @ WH).T


def partial_means(tau: np.ndarray) -> np.ndarray:
    """(m, 15) means over [0, tau] of the degree-14 Lagrange basis through XI.

    Row i times tau[i] is W(tau[i]), the antiderivative from 0 of every basis
    polynomial, so a segment row's values v give the integral of its
    in-segment interpolant over [0, tau] as tau * (partial_means(tau) @ v)
    on the reference segment.  partial_means(XI[j]) is SPECTRAL[:, j] and
    partial_means(1) is WH: on the lattice this is the integral the tables
    already hold.  Evaluated by the barycentric formula on 16 Chebyshev
    points (Berrut and Trefethen, SIAM Review 46, 2004), which is stable in
    floating point and keeps the relative accuracy of W for small tau; a tau
    on one of those points takes that point's tabulated row, where the
    formula would divide by zero.
    """
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _CHEB_WEIGHTS / (tau[:, None] - _CHEB)
        out = (q @ _CHEB_MEANS) / q.sum(axis=1, keepdims=True)
    bad = np.isinf(q)
    if bad.any():
        i, j = np.nonzero(bad)
        out[i] = _CHEB_MEANS[j]
    return out


#: (15, 225) integrals of the degree-14 Lagrange basis through XI over
#: [0, tau] (SUBSUB_HEAD) and [tau, 1] (SUBSUB_TAIL) at tau = SUBSUB_TAU: a
#: segment's sub-node row times SUBSUB_HEAD, times its width, integrates the
#: row's interpolant from the segment's left node up to each of its sub-sub
#: points.  The tail is the mirrored head, as in
#: `Segmentation.partial_weights`.
SUBSUB_HEAD = np.ascontiguousarray((SUBSUB_TAU[:, None] * partial_means(SUBSUB_TAU)).T)
SUBSUB_TAIL = np.ascontiguousarray(((1.0 - SUBSUB_TAU)[:, None] * partial_means(1.0 - SUBSUB_TAU)[:, ::-1]).T)


#: Most rows per product with SPECTRAL in `pointwise_means`.  OpenBLAS
#: splits a product of more than ~262,144 multiply-adds (1,165 rows of 15 by
#: 15) across threads, whose spin-waits then cost more CPU than the split
#: saves on a few cores; 1,120 rows, a whole table of the default lattice,
#: stay on one thread.
PRODUCT_ROWS = 1120

#: Flagged rows per block of direct sub-sub evaluations in `pointwise_means`.
#: A block's pages are reduced to means and dropped before the next, so peak
#: memory follows the block, not the number of flagged rows: 64 rows are
#: 14,400 points, whose 15-point phi/psi panels take ~2 MB per temporary.
PAGE_BLOCK = 64


def page_means(pages: np.ndarray) -> np.ndarray:
    """(n, 15) within-segment means from (n, 15, 15) sub-sub pages."""
    return np.einsum("njm,m->nj", pages, WH)


def needs_clip(v_sub: np.ndarray) -> np.ndarray:
    """Rows whose interpolated page might exceed the cap 2 * max|row|.

    Interpolation reproduces constants, so every page value of a row lies
    within mid +- LEBESGUE * half, where mid and half are the row's
    midrange and half-range.  Rows that keep that interval inside the cap
    are provably untouched by the clip; non-finite rows are always
    flagged.
    """
    # Reduced along the first axis of a transposed copy: numpy reduces
    # 15-value rows one at a time, which would cost more than the matrix
    # product this guard serves.
    cols = np.ascontiguousarray(v_sub.T)
    hi = cols.max(axis=0)
    lo = cols.min(axis=0)
    cap = 2.0 * np.maximum(hi, -lo)
    with np.errstate(invalid="ignore", over="ignore"):
        reach = np.abs(0.5 * (hi + lo)) + LEBESGUE * (0.5 * (hi - lo))
        return ~(np.isfinite(cap) & (reach <= cap))


class Segmentation:
    """Shared graded partition with nested Gauss-Legendre structure.

    nodes:    (n+1,) partition of [0, 1], `lattice_nodes(n_segments)`
    sub:      (n, 15) GL nodes of each segment
    offs:     (n, 15) offsets of the sub-nodes from their segment's left node,
              from which `subsub_points` builds the rows a page needs

    The partition keeps the END_SEGMENTS = 64 end segments of the
    n_segments Chebyshev grid at full resolution and every STRIDE = 4th
    grid node between them (`lattice_nodes`): 1,120 segments for the
    default 4096, with the full grid's end widths.  Those are where the
    integrands vary fastest (tail powers vanishing at r = 1, the Myers
    edge); a plain 1,024-segment grid, 4x wider at the ends, breaks
    `iterate_lower` at the d = 10 and d = 63 Myers edges.  The functional
    sups on this partition stay within 1.8e-14 relative of the full
    grid's (`CoefficientProfile`).

    Every table takes its means from one builder, `pointwise_means`: one
    product with SPECTRAL, except on the rows flagged by `needs_clip` (a
    few per table in practice, where a row changes sign or varies by a
    large factor), which the caller judges once and hands over.  Integrands
    that can be evaluated pointwise get direct sub-sub pages on those rows;
    integrands known only at the sub-nodes (`cumulative_from_sub`,
    `reverse_from_sub`) take pages interpolated from their rows
    (`interp_sub`) and clipped (`_interp_pages`) instead (`interp_means`).
    """

    def __init__(self, n_segments: int = 4096):
        self.nodes = lattice_nodes(int(n_segments))
        self.n = self.nodes.size - 1
        self.width = np.diff(self.nodes)
        a = self.nodes[:-1]
        self.sub = a[:, None] + self.width[:, None] * XI[None, :]
        # Panel lengths measured between stored coordinates, not w * XI[j]:
        # near r = 1 the rounded sub coordinate sits up to half an ulp of 1
        # away from the ideal point, which is 1e-16 absolute -- huge against
        # a tail integral of order 1e-9.  Subtraction is exact there.
        self.offs = self.sub - a[:, None]
        # Freeing a block of all n rows' sub-sub points raises glibc's mmap and
        # heap-trim thresholds past the tables' 134 KB temporaries, which then
        # reuse heap pages instead of fresh ones: a report takes 1.4x without.
        np.empty((self.n, 225))

    def subsub_points(self, rows: np.ndarray) -> np.ndarray:
        """(m, 15, 15) sub-sub points of the segments rows: [i, j] holds the GL nodes of [node_k, sub_kj], k = rows[i]."""
        return self.nodes[:-1][rows][:, None, None] + self.offs[rows][:, :, None] * XI

    def segment_integrals(self, v_sub: np.ndarray) -> np.ndarray:
        """(..., n) integrals over each segment from integrand values at sub, (..., n, 15).

        Leading axes stack integrands: each one's integrals are those of a
        call on it alone.  A stack goes through as one 2-d matrix-vector
        product; numpy's stacked product runs on OpenBLAS threads (see
        PRODUCT_ROWS).
        """
        return self.width * (v_sub.reshape(-1, 15) @ WH).reshape(v_sub.shape[:-1])

    def build_cumulative(self, v_sub: np.ndarray, means: np.ndarray, rows=slice(None), nodes=None, segments=None):
        """Cumulative integral tables from integrand values.

        v_sub holds the integrand at the sub-nodes of every segment, and
        means the (m, 15) within-segment means over [node_k, sub_kj] of the
        segments rows, all of them by default.  Returns (cum_nodes,
        cum_sub): the running integral from 0 at every node, and at the
        sub-nodes of rows, row i of cum_sub for segment rows[i].  Both
        levels are GL15 values, and a row's entries do not depend on which
        other rows are filled.  nodes is cum_nodes from an earlier call on
        the same v_sub, and segments is segment_integrals(v_sub), when the
        caller has them; v_sub is not read then.  Leading axes of v_sub,
        means, nodes and segments stack integrands, each of whose tables is
        that of a call on it alone.
        """
        if nodes is None:
            if segments is None:
                segments = self.segment_integrals(v_sub)
            start = np.zeros(segments.shape[:-1] + (1,))
            nodes = np.concatenate((start, np.cumsum(segments, axis=-1)), axis=-1)
        sub = self.offs[rows] * means
        sub += nodes[..., :-1][..., rows, None]
        return nodes, sub

    def build_reverse(
        self, v_sub: np.ndarray, means: np.ndarray, rel_floor: float = 0.0, rows=slice(None), nodes=None, segments=None
    ):
        """Tail integral tables: int_x^1 f at nodes and sub-nodes.

        Takes v_sub, means, rows, nodes, segments and stacks as
        `build_cumulative` does, and fills the sub-node entries of rows
        only.

        Accumulated from the right end so small tails never come out of a
        catastrophic total-minus-cumulative subtraction.

        seg - within still cancels catastrophically when the integrand
        vanishes to high order at the right end (cos^{d-1} at the Myers
        edge): the true remainder can sit far below the noise of the two
        operands, leaving garbage entries that poison sup searches through
        expressions like psi^{-1/2}.  Entries below the noise level of
        their own accumulation are flushed to an exact 0, which every
        consumer already treats as a degenerate/excluded point.  The base
        noise is summation rounding; callers whose integrand has a steep
        log-slope p near 1 should pass rel_floor ~ p * ulp(1) / width_min,
        the value noise induced by half-ulp coordinate rounding there.
        """
        seg = self.segment_integrals(v_sub) if segments is None else segments
        if nodes is None:
            tails = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
            nodes = np.concatenate((tails, np.zeros(seg.shape[:-1] + (1,))), axis=-1)
        # node + (seg - within), in place: whole stacked tables would
        # otherwise hold several temporaries of their size at once
        tail_sub = self.offs[rows] * means
        np.subtract(seg[..., rows, None], tail_sub, out=tail_sub)
        tail_sub += nodes[..., 1:][..., rows, None]
        rel = max(64.0 * np.finfo(float).eps, rel_floor)
        tail_sub[np.abs(tail_sub) < rel * np.abs(nodes[..., :-1][..., rows, None])] = 0.0
        return nodes, tail_sub

    def tail_eval(self, tail_nodes: np.ndarray, f, x) -> np.ndarray:
        """Evaluate int_x^1 f at arbitrary x from a right-tail node table."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.locate(x)
        hi = self.nodes[k + 1]
        t = hi - x
        pts = x[:, None] + t[:, None] * XI[None, :]
        vals = np.asarray(f(pts), dtype=float)
        return tail_nodes[k + 1] + t * np.einsum("im,m->i", vals, WH)

    def interp_sub(self, v_sub: np.ndarray) -> np.ndarray:
        """Values at sub-sub points interpolated from values at sub-nodes."""
        out = v_sub @ INTERP_T
        return out.reshape(-1, 15, 15)

    def _interp_pages(self, v_sub: np.ndarray) -> np.ndarray:
        """Interpolated sub-sub pages, clamped to each row's conditioning cap.

        A degree-14 interpolant through a row spanning many orders of
        magnitude (an integrand blowing up toward a segment edge at the
        Myers boundary) oscillates at amplitudes far beyond the row values,
        which would poison the within-segment partial integrals.  A genuine
        quadrature of the row can never see values past ~max|row|, so the
        pages are clipped there; resolved rows sit far inside the cap.
        """
        pages = self.interp_sub(v_sub)
        cap = 2.0 * np.max(np.abs(v_sub), axis=1)[:, None, None]
        return np.clip(pages, -cap, cap)

    def interp_means(self, v_sub: np.ndarray) -> np.ndarray:
        """Within-segment means of the in-segment interpolant of each row: page_means(self._interp_pages(v_sub)) up to rounding.

        `pointwise_means` pages and clips only the rows `needs_clip` flags,
        which the clip provably leaves alone.
        """
        return self.pointwise_means(v_sub[None], lambda rows: self._interp_pages(v_sub[rows])[None], needs_clip(v_sub))[0]

    def pointwise_means(self, v_subs, pages_at, paged: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Within-segment means of integrands, from sub-sub pages on the rows paged.

        v_subs stacks each integrand's (n, 15) values at the sub-nodes, and
        pages_at(segments) returns all of them at the sub-sub points of
        those segments (`subsub_points`), in the same order.  Only the rows
        of the segments rows, all of them by default, are computed, and the
        caller's flags paged mark those among them that take pages for all
        the integrands, PAGE_BLOCK rows at a time; the others take
        v_sub @ SPECTRAL.  Returns the (k, m, 15) means of rows.
        """
        segments = np.arange(self.n)[rows]
        part = np.asarray(v_subs)[:, rows]
        # The integrands' rows go through as few products as PRODUCT_ROWS
        # allows.  Each row of a product of two or more rows rounds as in
        # the product of all n; a lone row would go down numpy's
        # matrix-vector path, which rounds differently.
        means = np.empty(part.shape)
        step = max(1, PRODUCT_ROWS // max(segments.size, 1))
        # Non-finite rows turn to nan here; `needs_clip` flags them all.
        with np.errstate(invalid="ignore"):
            for lo in range(0, part.shape[0], step):
                np.matmul(part[lo : lo + step].reshape(-1, 15), SPECTRAL, out=means[lo : lo + step].reshape(-1, 15))
        flagged = np.flatnonzero(paged)
        for lo in range(0, flagged.size, PAGE_BLOCK):
            block = flagged[lo : lo + PAGE_BLOCK]
            for m, pages in zip(means, pages_at(segments[block])):
                m[block] = page_means(pages)
        return means

    def cumulative_from_sub(self, v_sub: np.ndarray):
        """build_cumulative with the sub-sub level filled by interpolation.

        Appropriate when the integrand is only known at sub-nodes (iterated
        test functions); the integrand restricted to one segment is smooth,
        so the degree-14 in-segment interpolant is panel-exact in practice.
        """
        return self.build_cumulative(v_sub, self.interp_means(v_sub))

    def reverse_from_sub(self, v_sub: np.ndarray, rel_floor: float = 0.0):
        """build_reverse with the sub-sub level filled by interpolation."""
        return self.build_reverse(v_sub, self.interp_means(v_sub), rel_floor)

    def locate(self, x: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.nodes, x, side="right") - 1
        return np.clip(k, 0, self.n - 1)

    def partial_weights(self, x: np.ndarray):
        """(k, head, tail): the segment of each x and its partial-segment weights.

        head @ row integrates segment k's degree-14 interpolant through the
        sub-node values row over [node_k, x], and tail @ row over
        [x, node_{k+1}].  Both scale the means of `partial_means` by the
        exact partial length, as `cum_eval` and `tail_eval` scale their
        panels; the tail reads the head of the mirrored segment (XI is
        symmetric about 1/2), so a short tail keeps its relative accuracy
        instead of coming out of WH - W(tau).
        """
        k = self.locate(x)
        t = x - self.nodes[k]
        u = self.nodes[k + 1] - x
        w = self.width[k]
        means = partial_means(np.concatenate((t / w, u / w)))
        return k, t[:, None] * means[: x.size], u[:, None] * means[x.size :, ::-1]

    def interpolate(self, x: np.ndarray, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Values at the points x of the degree-14 interpolants through rows[..., i, :], a sub-node row of segment k[i].

        By the barycentric formula, as in `partial_means`; a point on a
        sub-node's fraction of its segment reads that sub-node's value.
        Leading axes of rows stack row sets, which share one set of
        weights and read as each set alone would.
        """
        tau = (x - self.nodes[k]) / self.width[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = _BARY / (tau[:, None] - XI)
            out = np.einsum("ij,...ij->...i", q, rows) / q.sum(axis=1)
        i, j = np.nonzero(np.isinf(q))
        out[..., i] = rows[..., i, j]
        return out

    @functools.cached_property
    def lattice(self) -> np.ndarray:
        """(n - 1 + 15 n,) the interior lattice: the interior nodes, then the sub-nodes of each segment row by row."""
        return np.concatenate((self.nodes[1:-1], self.sub.ravel()))

    def cum_eval(self, cum_nodes: np.ndarray, f, x) -> np.ndarray:
        """Evaluate int_0^x f at arbitrary x from a node table plus a local panel.

        f is the integrand callable (vectorized); the partial segment
        [node_k, x] is integrated with a fresh 15-point panel, so off-node
        queries carry full panel accuracy.  The panel sums go through
        einsum, whose value at a point does not depend on how many points
        share the call (a BLAS product's can); so does `tail_eval`.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self.locate(x)
        t = x - self.nodes[k]
        pts = self.nodes[k][:, None] + t[:, None] * XI[None, :]
        vals = np.asarray(f(pts), dtype=float)
        return cum_nodes[k] + t * np.einsum("im,m->i", vals, WH)


_SEGMENTATIONS: dict[int, Segmentation] = {}


def get_segmentation(n_segments: int = 4096) -> Segmentation:
    seg = _SEGMENTATIONS.get(n_segments)
    if seg is None:
        seg = Segmentation(n_segments)
        _SEGMENTATIONS[n_segments] = seg
    return seg
