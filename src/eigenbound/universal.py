"""Sup-of-integral functionals bracketing the reduced principal eigenvalue.

The coefficient profile (C, phi, psi) of a geometry determines five
functionals whose reciprocals pin the principal eigenvalue lam of the
reduced problem on (0, 1) from both sides:

    1/(4 delta) <= max(1/delta1, 1/delta1_star)
                <= lam
                <= min(1/delta1_prime, 1/delta1_star_prime)
                <= 1/delta

The same weighted double integral that generates these functionals also
generates monotone approximating sequences (iterate_lower, iterate_upper)
converging to lam from both sides, and variational_ratio turns any
positive test function into a certified lower bound for lam.

Everything here works on the shared graded Gauss-Legendre lattice of the
profile.  Every sup and inf starts from the max or min over the ~18k
interior lattice points, where the tables are exact, and one solver
(`_stationary_points`) then solves its stationarity condition between the
lattice neighbours of the argmax, in two rounds of off-lattice reads shared
by all the extrema of a call.  Every read of a round goes through one
reader (`_Reads`): a table off the lattice is its node entry plus the
integral of the in-segment interpolant through its integrand rows, whose
interpolant is the table's derivative in the conditions.  The six
integrands behind the five sups live in one stack (`_integrand_stack`),
whose tables take one call per step for all six.  Their lattice maxes fill
sub-node rows only on the segments whose node-level bounds (`_BOUNDS`)
leave room for a max (`_lattice_maxes`); their tables take direct sub-sub
pages on the rows the spectral guard flags (`_clip_flags`), where the sups
and iterate_upper read nan and the others read through.  The iteration
sequences read the smoothing step's tables (`_smooth_step`) and the clamped
moments' (`_clamped_moments`), and variational_ratio the step's.  No
off-lattice read takes a panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, EigenboundError, InvalidTestFunction
from .geometry import Alpha, CoefficientProfile, CurvatureSign, log_cosh, resolve_profile
from .quadrature import DIFF_T, needs_clip

MAX_ITERATIONS = 10


# -- the five functionals -----------------------------------------------------

#: The six weighted integrals behind the functionals, as name -> its
#: (direction, power) slot in the integrand stack (`_integrand_stack`).  The
#: integrand is k * x**power with (k, x) = (C, phi) for the A's and
#: (1/C, psi) for the B's, at powers 1/2, 3/2 and 2 in slots 0, 1 and 2.
#: Direction 0 holds the forward integrals, over (0, r), and direction 1 the
#: tail integrals, over (r, 1), so neither side ever comes out of a
#: catastrophic subtraction, and each direction's tables are built in one
#: call.
_INTEGRANDS = {
    "B2": (0, 0),
    "A1": (0, 1),
    "A3": (0, 2),
    "A2": (1, 0),
    "B1": (1, 1),
    "B3": (1, 2),
}

#: name -> the functional as an expression over a view of phi, psi and the
#: integrals; its sup over r in (0, 1) is the bracketing value.
_FUNCTIONALS = {
    "delta": lambda v: v.phi * v.psi,
    "delta1": lambda v: v.A1 / v.sqrt_phi + v.sqrt_phi * v.A2,
    "delta1_prime": lambda v: v.A3 / v.phi + v.phi * v.psi,
    "delta1_star": lambda v: v.B1 / v.sqrt_psi + v.sqrt_psi * v.B2,
    "delta1_star_prime": lambda v: v.B3 / v.psi + v.phi * v.psi,
}

DELTA_NAMES = tuple(_FUNCTIONALS)

#: name -> an expression with the sign of the functional's derivative in r,
#: over a view that also holds C and 1/C.  With phi' = 1/C, psi' = -C and
#: each integral's derivative its integrand, signed by its direction, the
#: derivatives are this times (1/(2C)) phi^{-3/2}, 1/(C phi^2),
#: (C/2) psi^{-3/2} and C / psi^2 from delta1 on.
_CONDITIONS = {
    "delta": lambda v: v.psi * v.Cinv - v.phi * v.C,
    "delta1": lambda v: v.A2 * v.phi - v.A1,
    "delta1_prime": lambda v: v.psi * v.phi * v.phi - v.A3,
    "delta1_star": lambda v: v.B1 - v.psi * v.B2,
    "delta1_star_prime": lambda v: v.B3 - v.phi * v.psi * v.psi,
}

#: name -> bounds of the functional on each segment [a, b], from views a
#: and b of its end nodes and e of what all five share, each quantity's
#: span (`_Span`) among it: (end-safe, edge, m_hi).  phi, A1, A3 and B2 rise and psi, A2, B1 and B3 fall, so the
#: end-safe bound reads each factor at its favourable end, and it stays
#: finite where phi(0) = 0 or psi(1) = 0: it follows from
#: A1 <= phi^{3/2} int_0^r C, A3 <= phi^2 int_0^r C and their duals
#: B1 <= psi^{3/2} int_r^1 1/C, B3 <= psi^2 int_r^1 1/C (delta has none,
#: inf).  m_hi bounds the positive factor m of F' = m g from above, with C
#: and 1/C between their end values (C is monotone on each branch), for the
#: mean-value bound of `_segment_bounds`.
#:
#: The edge bound holds where C does not increase (the positive branch),
#: and stays finite at r = 1 on the Myers edge, where phi(1) = inf and
#: C(1) = 0 leave the others none.  With U = 1 - a and w = b - a, for r in
#: [a, b] and C non-increasing:
#:   phi C <= 1, as phi(s) = int_0^s 1/C <= s / C(s); and psi / C <= 1 - s,
#:   as psi(s) = int_s^1 C <= C(s) (1 - s).
#:   delta:  phi psi = (phi C)(psi / C) <= 1 - r <= U.
#:   delta1: A1(r) / sqrt(phi(r)) <= A1(a) / sqrt(phi(a))
#:           + int_a^r (phi C)(s) sqrt(phi(s) / phi(r)) ds
#:           <= A1(a) / sqrt(phi(a)) + w, and sqrt(phi(r)) A2(r)
#:           <= int_r^1 (phi C)(s) ds <= U, phi rising.
#:   delta1_prime: likewise A3 / phi <= A3(a) / phi(a) + w, and phi psi <= U.
#:   delta1_star: B1(r) / sqrt(psi(r)) <= int_r^1 (psi / C)(s) ds <= U^2 / 2,
#:           and sqrt(psi(r)) B2(r) <= sqrt(psi(a)) B2(a)
#:           + int_a^r (psi / C)(s) ds <= sqrt(psi(a)) B2(a) + w U, psi falling.
#:   delta1_star_prime: B3 / psi <= U^2 / 2 likewise, and phi psi <= U.
_BOUNDS = {
    "delta": lambda a, b, e: (math.inf, e.u, 1.0),
    "delta1": lambda a, b, e: (
        b.phi * e.head_c + b.sqrt_phi * a.A2,
        a.A1 / a.sqrt_phi + e.w + e.u,
        e.Cinv.hi / (2.0 * a.phi * a.sqrt_phi),
    ),
    "delta1_prime": lambda a, b, e: (
        b.phi * e.head_c + (e.phi * e.psi).hi,
        a.A3 / a.phi + e.w + e.u,
        e.Cinv.hi / (a.phi * a.phi),
    ),
    "delta1_star": lambda a, b, e: (
        a.psi * e.tail_cinv + a.sqrt_psi * b.B2,
        a.sqrt_psi * a.B2 + e.w * e.u + 0.5 * e.u * e.u,
        e.C.hi / (2.0 * b.psi * b.sqrt_psi),
    ),
    "delta1_star_prime": lambda a, b, e: (
        a.psi * e.tail_cinv + (e.phi * e.psi).hi,
        e.u + 0.5 * e.u * e.u,
        e.C.hi / (b.psi * b.psi),
    ),
}


class _Span:
    """A range lo <= x <= hi on each segment; a condition of `_CONDITIONS` evaluated on spans bounds itself.

    The conditions multiply only nonnegative quantities, whose products
    span the products of their ends, and subtract.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi

    def __mul__(self, other: "_Span") -> "_Span":
        return _Span(self.lo * other.lo, self.hi * other.hi)

    def __sub__(self, other: "_Span") -> "_Span":
        return _Span(self.lo - other.hi, self.hi - other.lo)


class _View:
    """Named quantities at a set of points, each computed by read(name) on first use.

    sqrt_x is the square root of x, taken once.
    """

    def __init__(self, read):
        self._read = read

    def __getattr__(self, name):
        value = np.sqrt(getattr(self, name[5:])) if name.startswith("sqrt_") else self._read(name)
        setattr(self, name, value)
        return value


def _named(tables) -> dict[str, np.ndarray]:
    """name -> its entry of a pair (forward, tail) of stacked integral quantities, by `_INTEGRANDS` slot."""
    return {name: tables[d][q] for name, (d, q) in _INTEGRANDS.items()}


def _integrand_stack(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The six integrands, (2, 3, ...) in the slots of `_INTEGRANDS`, from (C, 1/C) stacked in k and (phi, psi) in x.

    The tail integrals pair C with phi and 1/C with psi in the order of k
    and x, and so do the forward ones at powers 3/2 and 2; the forward
    power 1/2 is the other pairing.  Powers are spelled with sqrt and
    products, not x**power, so the tables keep their rounding.
    """
    root = np.sqrt(x)
    kx = k * x
    out = np.empty((2, 3) + x.shape[1:])
    np.multiply(k[::-1], root[::-1], out=out[:, 0])
    np.multiply(kx, root, out=out[:, 1])
    np.multiply(kx, x, out=out[:, 2])
    return out


def _scrub(p: CoefficientProfile, vals: np.ndarray) -> np.ndarray:
    """Zero float-collapse artifacts in products of paired over/underflow.

    On the positive branch near |alpha| = pi/2 the coefficient C underflows
    in the same region where phi (and powers of it) overflow, so products
    like C * phi^{3/2} come out nan or inf although their true size there
    is below 1e-150 relative to the rest of the table.  The collapse zone
    is confined to 1 - u < ~1e-3 and every bracketing functional decays
    like (1 - u)^2 of its own sup inside it, so zeroing cannot move a sup
    or an inf.  On the negative branch the tables overflow once
    L = log C(1) = (d - 1) log cosh|alpha| passes ~360, as psi(0) grows like
    e^L; at alpha = 0 a non-finite value is a bug.  Both are raised as such.
    """
    bad = ~np.isfinite(vals)
    if not bad.any():
        return vals
    if p.alpha.sign is CurvatureSign.NEGATIVE_K:
        raise EigenboundError(f"the integrand tables overflow the double range past L = (d - 1) log cosh|alpha| ~ 360, and "
                              f"L = {(p.d - 1) * float(log_cosh(p.alpha.magnitude)):.4g} here (ROADMAP.md, item 10)")
    if p.alpha.sign is not CurvatureSign.POSITIVE_K:
        raise EigenboundError(
            "non-finite integrand table or functional value on a branch where "
            "the coefficient cannot underflow; this indicates a bug in the profile"
        )
    out = vals.copy()
    out[bad] = 0.0
    return out


def _flat(table) -> np.ndarray:
    """Lattice-aligned view of a cumulative or tail table pair (`Segmentation.lattice`)."""
    nodes, sub = table
    return np.concatenate((nodes[1:-1], sub.ravel()))


def _integrand_rows(p: CoefficientProfile) -> np.ndarray:
    """The (2, 3, n, 15) scrubbed integrand stack at the sub-nodes of every segment, cached per profile."""
    vals = p._cache.get("integrand_rows")
    if vals is None:
        with np.errstate(all="ignore"):
            vals = _scrub(p, _integrand_stack(p.coeff_sub, p.prim_sub))
        p._cache["integrand_rows"] = vals
    return vals


def _clip_flags(p: CoefficientProfile, k: np.ndarray) -> np.ndarray:
    """Whether `needs_clip` flags any of the six integrand rows of segment k[i], the rows `_tables` pages; each judged once per profile."""
    flags = p._cache.setdefault("clip_flags", np.full(p.seg.n, -1, dtype=np.int8))
    new = np.unique(k[flags[k] < 0])
    if new.size:
        flags[new] = needs_clip(_integrand_rows(p)[:, :, new].reshape(-1, 15)).reshape(6, -1).any(axis=0)
    return flags[k] == 1


def _integrand_pages(p: CoefficientProfile, rows: np.ndarray) -> np.ndarray:
    """The six scrubbed integrands at the sub-sub points of the segments rows, as (6, m, 15, 15).

    phi and psi are the in-segment interpolant's integrals at the fixed
    fractions of each segment (`CoefficientProfile.subsub_primitives`), as
    `_Reads` reads them anywhere else in the segment, and C and 1/C
    there come from one log C (`CoefficientProfile.subsub_coefficients`).
    """
    with np.errstate(all="ignore"):
        pages = _integrand_stack(p.subsub_coefficients(rows), p.subsub_primitives(rows))
        return _scrub(p, pages).reshape(6, -1, 15, 15)


def _node_tables(p: CoefficientProfile) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(segment integrals, node tables) of the integrand stack, cached per profile.

    The (2, 3, n) segment integrals come from one product, and the
    (forward, tail) pair of (3, n + 1) node tables from one build per
    direction with no sub-node row filled.
    """
    cached = p._cache.get("node_tables")
    if cached is None:
        vals = _integrand_rows(p)
        seg = p.seg
        none = np.empty(0, dtype=int)
        with np.errstate(all="ignore"):
            ints = seg.segment_integrals(vals)
            forward, _ = seg.build_cumulative(vals[0], np.empty((3, 0, 15)), none, segments=ints[0])
            tail, _ = seg.build_reverse(vals[1], np.empty((3, 0, 15)), rows=none, segments=ints[1])
        cached = p._cache["node_tables"] = ints, (forward, tail)
    return cached


def _tables(p: CoefficientProfile, rows=slice(None)) -> tuple:
    """(node tables, sub-node rows of the segments rows) of the six integrals, each a (forward, tail) pair.

    Node tables are (3, n + 1) and sub-node rows (3, m, 15) per direction,
    in the slots of `_INTEGRANDS`.  rows defaults to every segment.  All
    six integrands' rows go through one `Segmentation.pointwise_means`
    call; the rows `_clip_flags` flags, which an in-segment interpolant
    cannot represent, take their means from direct sub-sub values.  At the
    Myers edge the forward integrands C phi^{3/2}, C phi^2 and
    C^{-1} psi^{1/2} blow up toward r = 1 hard enough to span dozens of
    orders of magnitude inside the final graded segments; on those rows the
    panel quadratures then see genuine (positive, monotone) values and stay
    bounded and sane.  The tail rows reuse the node step's segment
    integrals.
    """
    seg = p.seg
    vals = _integrand_rows(p)
    ints, nodes = _node_tables(p)
    with np.errstate(all="ignore"):
        paged = _clip_flags(p, np.arange(seg.n)[rows])
        means = seg.pointwise_means(vals.reshape(6, seg.n, 15), lambda k: _integrand_pages(p, k), paged, rows)
        means = means.reshape(2, 3, -1, 15)
        _, forward = seg.build_cumulative(vals[0], means[0], rows, nodes[0])
        _, tail = seg.build_reverse(vals[1], means[1], p.tail_floor, rows, nodes[1], ints[1])
    return nodes, (forward, tail)


class _Reads(_View):
    """Every off-lattice read of one round of `_stationary_points`, at the points x, each taken at first use.

    A table is its node entry plus the integral of its segment's degree-14
    interpolant through its integrand rows up to the point, or for a tail
    table from the point (`table`); its derivative is that interpolant's
    value (`values`).  As a `_View` it holds phi and psi
    (`CoefficientProfile.primitives_at`), C and 1/C, the integrals of
    `_INTEGRANDS`, and the points in rows `_clip_flags` flags (clipped).
    In the rows the profile pages phi and psi read nan, and so does every
    quantity read from them.
    """

    def __init__(self, p: CoefficientProfile, x: np.ndarray):
        self.p, self.x = p, x
        self.k, self._head, self._tail = p.seg.partial_weights(x)

    def _read(self, name):
        p, k = self.p, self.k
        if name in ("phi", "psi"):
            self.phi, self.psi = p.primitives_at(self.x, (k, self._head, self._tail))
        elif name in ("C", "Cinv"):
            self.C, self.Cinv = p._coeff_pair(self.x)
        elif name == "clipped":
            return _clip_flags(p, k)
        else:
            d, q = _INTEGRANDS[name]
            return self.table(_node_tables(p)[1][d][q], _integrand_rows(p)[d, q], tail=d == 1)
        return getattr(self, name)

    def rows(self, table: np.ndarray, of=()) -> np.ndarray:
        """Each point's segment entry of table (..., n, ...), after the per-point leading indices of."""
        return table[(*of, self.k)]

    def table(self, nodes: np.ndarray, rows: np.ndarray, tail: bool = False, of=()) -> np.ndarray:
        """A node table (..., n + 1) at the points, from its integrand rows (..., n, 15), leading axes indexed as in `rows`."""
        at, weights = (self.k + 1, self._tail) if tail else (self.k, self._head)
        return nodes[(*of, at)] + np.einsum("ij,ij->i", weights, self.rows(rows, of))

    def values(self, rows: np.ndarray) -> np.ndarray:
        """The interpolants through rows (..., points, 15), each point's row of its segment (`rows`), at the points."""
        return self.p.seg.interpolate(self.x, self.k, rows)


def _point_views(p: CoefficientProfile, rs, names) -> np.ndarray:
    """F and its condition g (`_CONDITIONS`) of functional names[i] at off-lattice points rs[i], as (rows, S, 2).

    One round of reads (`_Reads`) for an (rows, S) array rs: each quantity
    is read once for all of rs, and functional i keeps row i of its values.
    """
    rs = np.asarray(rs, dtype=float)
    reads = _Reads(p, rs.ravel())
    out = np.empty(rs.shape + (2,))
    with np.errstate(all="ignore"):
        for i, name in enumerate(names):
            out[i, :, 0] = _FUNCTIONALS[name](reads).reshape(rs.shape)[i]
            out[i, :, 1] = _CONDITIONS[name](reads).reshape(rs.shape)[i]
    # nan in clipped rows, as every functional and condition already reads
    # in paged rows through phi or psi: a high read there could push an
    # upper bound below lam; the solve keeps the lattice max (`_safe_batch`)
    out[reads.clipped.reshape(rs.shape)] = math.nan
    return out


def _safe_batch(point, rs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """point(rs, rows) as rs.shape + (2,) values, with every non-finite value, or raising point, as -inf.

    Row i of rs holds the points of extremum rows[i].  A batch that raises
    is read again one point at a time, so only the points that raise on
    their own count as -inf.
    """
    with np.errstate(all="ignore"):
        try:
            v = np.asarray(point(rs, rows), dtype=float).reshape(rs.shape + (2,))
        except (ValueError, OverflowError, ZeroDivisionError):
            if rs.size == 1:
                return np.full(rs.shape + (2,), -math.inf)
            one = [[_safe_batch(point, np.array([[x]]), rows[i : i + 1])[0, 0] for x in r] for i, r in enumerate(rs)]
            return np.array(one)
    return np.where(np.isfinite(v), v, -math.inf)


def _lattice_neighbours(p: CoefficientProfile, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lattice points either side, in r order, of the lattice points j.

    The lattice lists the interior nodes and then the m = 15 sub-nodes of
    each segment row by row (`Segmentation.lattice`).  In r order segment k
    holds node k at position (m + 1) k and its sub-node i at
    (m + 1) k + 1 + i, so each neighbour is one position away; the ends 0
    and 1 give way to 1e-12 and 1 - 1e-12.
    """
    seg = p.seg
    m = seg.sub.shape[1]
    q = j - (seg.n - 1)
    pos = np.where(q < 0, (m + 1) * (j + 1), (m + 1) * (q // m) + 1 + q % m)

    def at(pos):
        k, i = np.divmod(pos, m + 1)
        return np.where(i == 0, seg.nodes[k], seg.sub[np.minimum(k, seg.n - 1), i - 1])

    return np.maximum(at(pos - 1), 1e-12), np.minimum(at(pos + 1), 1.0 - 1e-12)


def _node_view(p: CoefficientProfile) -> _View:
    """phi, psi, C, 1/C and the integrals at every node, 0 and 1 included."""
    tables = {"phi": p.phi_nodes, "psi": p.psi_nodes, **_named(_node_tables(p)[1])}

    def read(name):
        if name not in tables:
            with np.errstate(over="ignore", under="ignore"):
                tables["C"], tables["Cinv"] = p._coeff_pair(p.seg.nodes)
        return tables[name]

    return _View(read)


_TINY = np.finfo(float).tiny


def _segment_bounds(p: CoefficientProfile, view: _View, at_nodes: list[np.ndarray]) -> list[np.ndarray]:
    """An upper bound of each functional on each segment, or nan where none is finite.

    view holds the node quantities (`_node_view`) and at_nodes each
    functional at every node.  Each bound is the least of the end-safe and,
    on the positive branch, edge bounds of `_BOUNDS` and the mean-value
    bound

        min(F(a) + w m_hi max(0, g_hi), F(b) + w m_hi max(0, -g_lo))

    on a segment [a, b] of width w, since F' = m g, where g, the condition
    of `_CONDITIONS`, is evaluated on the spans of its quantities (`_Span`).
    A bound that comes out nan (inf - inf, 0 / 0, an m_hi lost to
    underflow) drops out of the least, so it cannot prune.
    """
    seg = p.seg
    w = seg.width
    out = []
    with np.errstate(all="ignore"):
        a = _View(lambda name: getattr(view, name)[:-1])
        b = _View(lambda name: getattr(view, name)[1:])
        e = SimpleNamespace(
            # each quantity of a condition is monotone in r: on a segment it spans its end values
            **{q: _Span(np.minimum(getattr(a, q), getattr(b, q)), np.maximum(getattr(a, q), getattr(b, q)))
               for q in ("phi", "psi", "C", "Cinv", *_INTEGRANDS)},
            # int_0^b C and int_a^1 1/C
            head_c=p.psi_total - b.psi,
            tail_cinv=p.phi_total - a.phi,
            w=w,
            u=1.0 - seg.nodes[:-1],
        )
        edge = p.alpha.sign is CurvatureSign.POSITIVE_K
        for name, f in zip(DELTA_NAMES, at_nodes):
            end, at_edge, m_hi = _BOUNDS[name](a, b, e)
            g = _CONDITIONS[name](e)
            # m > 0: an m_hi below the normal range lost its digits to a
            # power of phi or psi past the double range, and bounds nothing
            wm = w * np.where(m_hi >= _TINY, m_hi, math.nan)
            mean = np.fmin(f[:-1] + wm * np.maximum(g.hi, 0.0), f[1:] + wm * np.maximum(-g.lo, 0.0))
            bound = np.fmin(end, mean)
            out.append(np.fmin(bound, at_edge) if edge else bound)
    return out


#: Share of the segments past which the sub-node step fills every row: on
#: views of the whole tables, which cost less than gathers of most rows.
FILL_ALL = 0.25


def _lattice_maxes(p: CoefficientProfile) -> tuple[np.ndarray, np.ndarray]:
    """(j, max) of each functional over `Segmentation.lattice`, in DELTA_NAMES order.

    The node step evaluates the functionals at every node from the node
    tables, and bounds each on every segment (`_segment_bounds`).  Only the
    segments whose bound reaches the best interior node value, less
    1e-12 relative, can hold a larger lattice value; the sub-node step fills
    the tables' rows of those segments (`_tables`), or of all of them past
    FILL_ALL, and evaluates the functionals there.  A bound holds its end
    nodes' values to rounding far inside the 1e-12, so a node that reaches
    the best keeps both its segments.  The lattice lists the nodes first and
    the rows in order, so the first max among the filled points is
    np.argmax's over the whole lattice: the same index and value.
    """
    n = p.seg.n
    view = _node_view(p)
    with np.errstate(all="ignore"):
        at_nodes = [expr(view) for expr in _FUNCTIONALS.values()]
        inner = [_scrub(p, f[1:-1]) for f in at_nodes]
    keep = np.zeros(n, dtype=bool)
    for bound, f in zip(_segment_bounds(p, view, at_nodes), inner):
        keep |= ~(bound < np.max(f) * (1.0 - 1e-12))
    rows = np.flatnonzero(keep) if np.count_nonzero(keep) <= FILL_ALL * n else slice(None)
    sub = _View({"phi": p.phi_sub[rows], "psi": p.psi_sub[rows], **_named(_tables(p, rows)[1])}.get)
    filled = np.arange(n)[rows]
    j, top = [], []
    with np.errstate(all="ignore"):
        for expr, f in zip(_FUNCTIONALS.values(), inner):
            vals = np.concatenate((f, _scrub(p, expr(sub)).ravel()))
            i = int(np.argmax(vals))
            top.append(vals[i])
            q = i - (n - 1)
            j.append(i if q < 0 else (n - 1) + 15 * filled[q // 15] + q % 15)
    return np.array(j), np.array(top, dtype=float)


#: Points per bracket, ends included, in the first round of `_stationary_points`.
SAMPLES = 33


def _stationary_points(p: CoefficientProfile, j: np.ndarray, best_v: np.ndarray, point) -> list[tuple[float, float, float, float]]:
    """Each extremum's max from its stationarity condition, starting from its lattice max.

    Extremum i has its lattice max best_v[i] at `Segmentation.lattice`
    point j[i], bracketed by that point's lattice neighbours
    (`_lattice_neighbours`).  point(rs, rows) reads, at the (rows, S) points
    rs, row i's those of extremum rows[i], the function F and a condition g
    with the sign of F', as rs.shape + (2,).  One round reads every
    extremum at SAMPLES points across its bracket, ends included.  The + to
    - sign change of g nearest the best sample holds the stationary point;
    one secant step of g inside it gives x*, and one more round reads F
    there.  The max is the best of the lattice max, the samples and F(x*).
    A bracket with no sign change (a max at an end, a peak flat to
    rounding, C underflowing at the Myers edge) keeps its best sample; an
    infinite lattice max is not read; a non-finite or raising point counts
    as -inf (`_safe_batch`).  Returns (argmax, max, lo, hi) per extremum,
    (lo, hi) the samples either side of the sign change, or the bracket.
    """
    best_x = p.seg.lattice[j]
    lo, hi = _lattice_neighbours(p, j)
    rows = np.flatnonzero(best_v != math.inf)

    def keep(rows, x, v):
        up = v > best_v[rows]
        best_x[rows[up]] = x[up]
        best_v[rows[up]] = v[up]

    if rows.size:
        rs = np.linspace(lo[rows], hi[rows], SAMPLES, axis=1)
        f, g = np.moveaxis(_safe_batch(point, rs, rows), -1, 0)
        i = np.arange(rows.size)
        top = np.argmax(f, axis=1)
        keep(rows, rs[i, top], f[i, top])
        # a non-finite condition reads -inf, so it ends no sign change
        change = (g[:, :-1] > 0.0) & (g[:, 1:] <= 0.0) & (g[:, 1:] > -math.inf)
        c = np.argmin(np.where(change, np.abs(np.arange(SAMPLES - 1) + 0.5 - top[:, None]), math.inf), axis=1)
        i, c = i[change[i, c]], c[change[i, c]]
        solved = rows[i]
        a, b, ga, gb = rs[i, c], rs[i, c + 1], g[i, c], g[i, c + 1]
        lo[solved], hi[solved] = a, b
        if solved.size:
            x = np.minimum(a + (b - a) * (ga / (ga - gb)), b)
            keep(solved, x, _safe_batch(point, x[:, None], solved)[:, 0, 0])
    return [tuple(float(t) for t in row) for row in zip(best_x, best_v, lo, hi)]


def functional_sup(p: CoefficientProfile, name: str) -> tuple[float, float]:
    """(argsup, sup) of one bracketing functional over r in (0, 1).

    The sup starts from the max over the profile lattice (exact table
    values, no interpolation), found with the sub-node tables filled only on
    the segments whose node-level bounds leave room for it
    (`_lattice_maxes`), and is polished off the lattice by a two-round
    solve of the functional's stationarity condition (`_stationary_points`).
    The first call on a profile solves all five sups at once and caches
    them: each round reads the partial weights, phi and psi of all five
    functionals' points in one call.
    """
    if name not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {name!r}; expected one of {DELTA_NAMES}")
    sups = p._cache.get("delta_sups")
    if sups is None:
        polished = _stationary_points(
            p, *_lattice_maxes(p), lambda rs, rows: _point_views(p, rs, [DELTA_NAMES[r] for r in rows])
        )
        sups = {name: (x, v) for name, (x, v, _, _) in zip(DELTA_NAMES, polished)}
        p._cache["delta_sups"] = sups
    return sups[name]


def delta(p: CoefficientProfile) -> float:
    """sup of phi * psi; 1/delta and 1/(4 delta) are the crude bracket."""
    return functional_sup(p, "delta")[1]


def delta1(p: CoefficientProfile) -> float:
    """sup of (1/sqrt(phi)) int_0^r C phi^{3/2} + sqrt(phi) int_r^1 C phi^{1/2}."""
    return functional_sup(p, "delta1")[1]


def delta1_prime(p: CoefficientProfile) -> float:
    """sup of (1/phi) int_0^r C phi^2 + phi psi."""
    return functional_sup(p, "delta1_prime")[1]


def delta1_star(p: CoefficientProfile) -> float:
    """Dual of delta1: psi and 1/C take the roles of phi and C."""
    return functional_sup(p, "delta1_star")[1]


def delta1_star_prime(p: CoefficientProfile) -> float:
    """Dual of delta1_prime."""
    return functional_sup(p, "delta1_star_prime")[1]


# -- the bracket --------------------------------------------------------------


def _recip(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


@dataclass(frozen=True)
class BoundBracket:
    """The five functional values and the eigenvalue bracket they imply.

    All values live on the reduced scale (unit interval); multiply the
    bounds by 4/D^2 to reach the manifold eigenvalue scale.
    """

    delta: float
    delta1: float
    delta1_prime: float
    delta1_star: float
    delta1_star_prime: float

    @property
    def lower(self) -> float:
        """Certified lower bound max(1/delta1, 1/delta1_star).

        If one functional overflowed to +inf its reciprocal contributes 0
        and the other carries the bound alone.
        """
        return max(_recip(self.delta1), _recip(self.delta1_star))

    @property
    def upper(self) -> float:
        """Certified upper bound min(1/delta1_prime, 1/delta1_star_prime)."""
        return min(_recip(self.delta1_prime), _recip(self.delta1_star_prime))

    @property
    def crude_lower(self) -> float:
        return 0.25 * _recip(self.delta)

    @property
    def crude_upper(self) -> float:
        return _recip(self.delta)

    def chain(self) -> tuple[float, float, float, float]:
        return (self.crude_lower, self.lower, self.upper, self.crude_upper)

    def chain_ok(self) -> bool:
        """Whether each link of the chain holds up to a relative slack of 1e-9."""
        a, b, c, d = self.chain()
        s = 1.0 + 1e-9
        return a <= b * s and b <= c * s and c <= d * s


def universal_bracket(
    d: int, alpha: Alpha, *, profile: CoefficientProfile | None = None
) -> BoundBracket:
    """Assemble all five functionals into the two-sided bracket."""
    profile = resolve_profile(d, alpha, profile)
    return BoundBracket(**{name: functional_sup(profile, name)[1] for name in DELTA_NAMES})


# -- iteration sequences ------------------------------------------------------


@dataclass(frozen=True)
class IterationTrace:
    """Monotone approximation sequences from the smoothing double integral.

    lower_sequence[n-1] holds the n-th ratio sup whose reciprocals increase
    toward the reduced eigenvalue; upper_sequence[n-1] and
    rayleigh_sequence[n-1] hold the n-th clamped sup-inf ratio and clamped
    Rayleigh quotient at their best clamp radii, whose reciprocals decrease
    toward it; each solved off the lattice (`_stationary_points`).
    test_functions carries coarse node samples of the lower iterates
    (normalized by each step's lattice max), or, as "clamp_radius", the
    radius where the last sup-inf ratio peaks.
    """

    n: int
    lower_sequence: tuple[float, ...]
    upper_sequence: tuple[float, ...]
    rayleigh_sequence: tuple[float, ...]
    test_functions: dict[str, np.ndarray]


_SAMPLE_STRIDE = 64


def _check_n_max(n_max: int) -> None:
    if not isinstance(n_max, int) or n_max < 1 or n_max > MAX_ITERATIONS:
        raise DomainError(f"n_max must be an integer in [1, {MAX_ITERATIONS}]")


def _smooth_step(p: CoefficientProfile, f_sub: np.ndarray, form: str = "primal"):
    """K f = int_0^r 1/C int_s^1 C f on the lattice, or K* f = int_r^1 C int_0^s f / C for "dual".

    Returns the step's (nodes, sub-nodes) table and the sub-node rows h of
    its outer integrand (g / C or C u), which `_Reads` integrates
    between lattice points.
    """
    seg = p.seg
    with np.errstate(all="ignore"):
        if form == "primal":
            _, g_sub = seg.reverse_from_sub(_scrub(p, p.c_sub * f_sub), p.tail_floor)
            h_sub = _scrub(p, p.cinv_sub * g_sub)
            return seg.cumulative_from_sub(h_sub), h_sub
        _, u_sub = seg.cumulative_from_sub(_scrub(p, p.cinv_sub * f_sub))
        h_sub = _scrub(p, p.c_sub * u_sub)
        return seg.reverse_from_sub(h_sub, p.tail_floor), h_sub


def iterate_lower(p: CoefficientProfile, n_max: int) -> IterationTrace:
    """Ratio sups delta_n of K f_n / f_n for successive iterates from f_1 = sqrt(phi).

    Each step divides the new iterate by its ratio's lattice max, so the
    stored samples stay O(1).  Then all n sups are solved off the lattice
    at once (`_stationary_points`): K f_n is the step's table read off its
    outer integrand rows h_n, with (K f_n)' = h_n off their interpolant
    (`_Reads`), and f_n = K f_{n-1} / delta_{n-1} the same way, or
    sqrt(phi) with f_1' = (1/C) / (2 f_1).  The condition
    h_n f_n - (K f_n) f_n' has the sign of the ratio's slope.
    """
    _check_n_max(n_max)
    with np.errstate(all="ignore"):
        f_nodes = np.sqrt(p.phi_nodes)
        f_sub = np.sqrt(p.phi_sub)
    samples = {"f1": f_nodes[::_SAMPLE_STRIDE].copy()}
    tables, rows_h, j, deltas = [], [], [], []
    for n in range(1, n_max + 1):
        (nf_nodes, nf_sub), h_sub = _smooth_step(p, f_sub)
        with np.errstate(all="ignore"):
            rat = _scrub(p, _flat((nf_nodes, nf_sub)) / _flat((f_nodes, f_sub)))
        j.append(int(np.argmax(rat)))
        deltas.append(float(rat[j[-1]]))
        tables.append(nf_nodes)
        rows_h.append(h_sub)
        f_nodes = nf_nodes / deltas[-1]
        f_sub = nf_sub / deltas[-1]
        samples[f"f{n + 1}"] = f_nodes[::_SAMPLE_STRIDE].copy()
    tables, rows_h, scale = np.array(tables), np.array(rows_h), np.array(deltas)

    def point(rs, rows):
        # read through: a high read only lowers 1/delta_n, a low one is not kept
        reads = _Reads(p, rs.ravel())
        step = np.repeat(rows, rs.shape[1])
        prev = np.maximum(step - 1, 0)
        kf = reads.table(tables, rows_h, of=(step,))
        f = reads.table(tables, rows_h, of=(prev,)) / scale[prev]
        dh, h = reads.values(reads.rows(rows_h, (np.stack((prev, step)),)))
        df = dh / scale[prev]
        first = step == 0
        f[first] = np.sqrt(reads.phi[first])
        df[first] = reads.Cinv[first] / (2.0 * f[first])
        return np.stack((kf / f, h * f - kf * df), axis=-1)

    polished = _stationary_points(p, np.array(j), scale.copy(), point)  # point reads scale
    return IterationTrace(
        n=n_max,
        lower_sequence=tuple(v for _, v, _, _ in polished),
        upper_sequence=(),
        rayleigh_sequence=(),
        test_functions=samples,
    )


def _clamped_moments(p: CoefficientProfile, n_max: int):
    """The clamped moments mu_1..mu_{2 n_max}: their scale, lattice values and tables.

    Clamping the smoothing operator at r gives K_r, whose kernel
    min(phi(x), phi(u), phi(r)) is symmetric in L^2(C du).  Its iterates
    f_1 = min(phi, phi(r)), f_{m+1} = K_r f_m are constant past r, where the
    clamped inf of f_{n+1}/f_n sits, so both bounds are ratios of the
    moments mu_m(r) = f_m(r):

        delta_n'(r) = mu_{n+1} / mu_n,    Rayleigh_n(r) = mu_{2n} / mu_{2n-1}.

    Differentiating the kernel chain in phi(r) gives mu_1 = phi and

        d mu_m / dr = (1/C) sum_{j=0}^{m-1} A_j A_{m-1-j},  A_0 = 1,  A_j = psi mu_j,

    so each mu_m is one cumulative table of a positive integrand: no
    cancellation and no search over radii.  The tables carry
    mu_m / s^(m-1), with psi / s in place of psi and s the largest finite
    phi psi on the nodes, so that deep moments neither under- nor overflow;
    the ratios are multiplied back by s.  Returns s, the (2 n_max,
    lattice.size) moments on `Segmentation.lattice`, nan at the sub-nodes
    of rows `needs_clip` flags (their tables come from clipped pages), and
    (node table, integrand rows, flagged rows) of each from mu_2 on.
    """
    with np.errstate(all="ignore"):
        scale = p.phi_nodes * p.psi_nodes
        s = float(np.max(scale[np.isfinite(scale)]))
        psi_s = p.psi_sub / s
        mu = [_flat((p.phi_nodes, p.phi_sub))]
        tables = []
        a_sub = [np.ones_like(psi_s), psi_s * p.phi_sub]
        for m in range(2, 2 * n_max + 1):
            inner = _scrub(p, p.cinv_sub * sum(a_sub[j] * a_sub[m - 1 - j] for j in range(m)))
            nodes, sub = p.seg.cumulative_from_sub(inner)
            flagged = needs_clip(inner)
            a_sub.append(psi_s * sub)
            mu.append(_flat((nodes, np.where(flagged[:, None], math.nan, sub))))
            tables.append((nodes, inner, flagged))
    return s, np.array(mu), tables


def iterate_upper(p: CoefficientProfile, n_max: int) -> IterationTrace:
    """Clamped sup-inf ratios and Rayleigh quotients, each at its best clamp radius.

    Both are ratios mu_t / mu_{t-1} of `_clamped_moments`, t = n for
    delta_n' and 2n - 1 for Rayleigh_n, each maxed once over the lattice and
    solved off it (`_stationary_points`) with mu_1 = phi the profile's
    and the other moments off their tables (`_Reads`), the derivatives of
    `_clamped_moments`, and the condition
    mu_t' mu_{t-1} - mu_t mu_{t-1}'.
    Per radius both sequences are non-decreasing in n.
    """
    _check_n_max(n_max)
    s, mu, tables = _clamped_moments(p, n_max)
    ts = np.union1d(np.arange(1, n_max + 1), np.arange(1, 2 * n_max, 2))
    with np.errstate(all="ignore"):
        rat = s * mu[ts] / mu[ts - 1]
    rat = np.where(np.isfinite(rat), rat, -math.inf)
    j = np.argmax(rat, axis=1)

    def point(rs, rows):
        reads = _Reads(p, rs.ravel())
        phi, psi_s, cinv = reads.phi, reads.psi / s, reads.Cinv
        at, slope, a = [phi], [cinv], [np.ones_like(phi), psi_s * phi]
        for m, (nodes, inner, flagged) in enumerate(tables, start=2):
            v = reads.table(nodes, inner)
            slope.append(cinv * sum(a[i] * a[m - 1 - i] for i in range(m)))
            a.append(psi_s * v)
            # nan in the moment's clipped rows: a high read could push an upper bound below lam
            at.append(np.where(reads.rows(flagged), math.nan, v))
        t, i = np.repeat(ts[rows], rs.shape[1]), np.arange(phi.size)
        (num, den), (dnum, dden) = np.array(at)[[t, t - 1], i], np.array(slope)[[t, t - 1], i]
        return np.stack((s * num / den, dnum * den - num * dden), axis=-1)

    best = dict(zip(ts.tolist(), _stationary_points(p, j, rat.max(axis=1), point)))
    return IterationTrace(
        n=n_max,
        lower_sequence=(),
        upper_sequence=tuple(best[n][1] for n in range(1, n_max + 1)),
        rayleigh_sequence=tuple(best[2 * n - 1][1] for n in range(1, n_max + 1)),
        test_functions={"clamp_radius": np.array([best[n_max][0]])},
    )


# -- variational lower bounds -------------------------------------------------


def _vectorized(f):
    """Adapt a scalar-or-vector test function to arbitrary array input."""

    def call(x):
        arr = np.asarray(x, dtype=float)
        try:
            out = np.asarray(f(arr), dtype=float)
            if out.shape == arr.shape:
                return out
        except (TypeError, ValueError):
            pass
        flat = np.array([float(f(float(t))) for t in arr.ravel()])
        return flat.reshape(arr.shape)

    return call


def variational_ratio(f, p: CoefficientProfile, form: str = "primal") -> float:
    """Certified lower bound for the reduced eigenvalue from a test function.

    For any f continuous and strictly positive on (0, 1),

        primal:  inf_r f(r) / (int_0^r 1/C int_s^1 C f)
        dual:    inf_r f(r) / (int_r^1 C   int_0^s 1/C f)

    is at most the reduced eigenvalue, so whatever this returns is a valid
    lower bound; better test functions just give better bounds.

    The inf is the lattice min of f over the denominator's table
    (`_smooth_step`), solved off the lattice as the max of -f / den
    (`_stationary_points`), with den read off its integrand rows h and
    den' = h, or -h for the dual, off their interpolant (`_Reads`, no
    panel).  f has no derivative, so f' is the interpolant's through f's
    sub-node values (`quadrature.DIFF_T`).
    """
    if form not in ("primal", "dual"):
        raise DomainError(f"form must be 'primal' or 'dual', got {form!r}")
    seg = p.seg
    fv = _vectorized(f)
    f_sub = fv(seg.sub)
    f_nodes = fv(seg.nodes)
    inner = _flat((f_nodes, f_sub))
    if not np.all(np.isfinite(inner)) or np.any(inner <= 0.0):
        raise InvalidTestFunction(
            "test function must be finite and strictly positive on (0, 1)"
        )

    (den_nodes, den_sub), h_sub = _smooth_step(p, f_sub, form)
    with np.errstate(all="ignore"):
        rat = inner / _flat((den_nodes, den_sub))
    neg = np.where(np.isfinite(rat), -rat, -math.inf)
    j = int(np.argmax(neg))
    sign = 1.0 if form == "primal" else -1.0

    def point(rs, rows):
        # read through: the solve keeps the lattice min, so a misread only lowers the inf
        reads = _Reads(p, rs.ravel())
        dv, fvv = reads.table(den_nodes, h_sub, tail=form == "dual"), fv(reads.x)
        dfw, h = reads.values(np.stack((reads.rows(f_sub) @ DIFF_T, reads.rows(h_sub))))
        df = dfw / reads.rows(seg.width)
        # a point where either factor degenerates cannot improve the inf
        ok = (0.0 < dv) & (dv < math.inf) & (fvv > 0.0)
        cond = fvv * sign * h - df * dv
        return np.stack((np.where(ok, -fvv / dv, -math.inf), cond), axis=-1)

    return -_stationary_points(p, np.array([j]), np.array([neg[j]]), point)[0][1]
