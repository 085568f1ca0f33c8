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
profile: sups and infs are taken over the ~18k interior lattice points
where the cumulative tables are exact, then polished by a local zoom whose
rounds each evaluate ZOOM off-lattice points per maximum at once; the five
sups polish in lock-step.  The six integral tables take their
within-segment means from the spectral product on the sub-node values, and
from direct sub-sub pages only on the rows the spectral guard flags
(`Segmentation.pointwise_means`), the Myers edge included; those pages read
phi and psi off the in-segment interpolant too, in flux form on the rows
the profile pages itself (`CoefficientProfile.subsub_primitives`).  Off
the lattice, the five sups read the integral of each segment's degree-14
interpolant, which the spectral tables already hold at the sub-nodes; only
points in directly paged rows re-integrate the integrand with
partial-segment panels.  variational_ratio polishes its inf the same way,
with no panel, on the smoothing step it shares with iterate_lower.  The
iteration sequences are lattice maxes with no polish; the upper ones are
read off moment tables at every interior node of the full Chebyshev grid
the lattice thins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigenboundError, InvalidTestFunction
from .geometry import Alpha, CoefficientProfile, CurvatureSign, resolve_profile
from .quadrature import needs_clip

MAX_ITERATIONS = 10

#: Interior points per round of the off-lattice polish.
ZOOM = 32


# -- the five functionals -----------------------------------------------------

#: The six weighted integrals behind the functionals, as name -> (weight,
#: power, forward).  The integrand is k * x**power with (k, x) = (C, phi)
#: for weight "C" and (1/C, psi) for weight "Cinv".  Forward integrals run
#: over (0, r) and tail integrals over (r, 1), so neither side ever comes
#: out of a catastrophic subtraction.
_INTEGRANDS = {
    "A1": ("C", 1.5, True),
    "A2": ("C", 0.5, False),
    "A3": ("C", 2.0, True),
    "B1": ("Cinv", 1.5, False),
    "B2": ("Cinv", 0.5, True),
    "B3": ("Cinv", 2.0, False),
}

#: name -> the functional as an expression over a view of phi, psi and the
#: integrals; its sup over r in (0, 1) is the bracketing value.
_FUNCTIONALS = {
    "delta": lambda v: v.phi * v.psi,
    "delta1": lambda v: v.A1 / np.sqrt(v.phi) + np.sqrt(v.phi) * v.A2,
    "delta1_prime": lambda v: v.A3 / v.phi + v.phi * v.psi,
    "delta1_star": lambda v: v.B1 / np.sqrt(v.psi) + np.sqrt(v.psi) * v.B2,
    "delta1_star_prime": lambda v: v.B3 / v.psi + v.phi * v.psi,
}

DELTA_NAMES = tuple(_FUNCTIONALS)


class _View:
    """Named quantities at a set of points, each computed by read(name) on first use."""

    def __init__(self, read):
        self._read = read

    def __getattr__(self, name):
        value = self._read(name)
        setattr(self, name, value)
        return value


def _coefficients(p: CoefficientProfile, y, primitives=None, coefficients=None) -> _View:
    """C, 1/C, phi and psi at the points y.

    C and 1/C share one log C, or come from coefficients() when the caller
    has them already.  phi and psi share one read of the in-segment
    interpolant (`CoefficientProfile.primitives_at`), or come from
    primitives() when the caller has a cheaper route to them.
    """
    pair = []
    prims = []

    def read(name):
        if name in ("phi", "psi"):
            if not prims:
                prims.extend(p.primitives_at(y) if primitives is None else primitives())
            return prims[name == "psi"]
        if not pair:
            with np.errstate(over="ignore", under="ignore"):
                pair.extend(p._coeff_pair(y) if coefficients is None else coefficients())
        c, cinv = pair
        return cinv if name == "Cinv" else c

    return _View(read)


def _integrand(name: str, v: _View) -> np.ndarray:
    """Integrand `name` from a view holding C, Cinv, phi and psi.

    Powers are spelled with sqrt and products, not x**power, so the tables
    keep their rounding.
    """
    weight, power, _ = _INTEGRANDS[name]
    x, k = (v.phi, v.C) if weight == "C" else (v.psi, v.Cinv)
    if power == 0.5:
        return k * np.sqrt(x)
    if power == 1.5:
        return k * x * np.sqrt(x)
    return k * x * x


def _scrub(p: CoefficientProfile, vals: np.ndarray) -> np.ndarray:
    """Zero float-collapse artifacts in products of paired over/underflow.

    On the positive branch near |alpha| = pi/2 the coefficient C underflows
    in the same region where phi (and powers of it) overflow, so products
    like C * phi^{3/2} come out nan or inf although their true size there
    is below 1e-150 relative to the rest of the table.  The collapse zone
    is confined to 1 - u < ~1e-3 and every bracketing functional decays
    like (1 - u)^2 of its own sup inside it, so zeroing cannot move a sup
    or an inf.  On the other branches a non-finite value is a bug and is
    raised as such.
    """
    bad = ~np.isfinite(vals)
    if not bad.any():
        return vals
    if p.alpha.sign is not CurvatureSign.POSITIVE_K:
        raise EigenboundError(
            "non-finite integrand table or functional value on a branch where "
            "the coefficient cannot underflow; this indicates a bug in the profile"
        )
    out = vals.copy()
    out[bad] = 0.0
    return out


def _integrands(p: CoefficientProfile, at: _View) -> list[np.ndarray]:
    """All six integrands from a view holding C, Cinv, phi and psi, scrubbed."""
    return [_scrub(p, _integrand(name, at)) for name in _INTEGRANDS]


def _lattice(p: CoefficientProfile):
    """Interior evaluation lattice: all interior nodes plus all sub-nodes."""
    lat = p._cache.get("lattice")
    if lat is None:
        seg = p.seg
        xs = np.concatenate((seg.nodes[1:-1], seg.sub.ravel()))
        phi_l = np.concatenate((p.phi_nodes[1:-1], p.phi_sub.ravel()))
        psi_l = np.concatenate((p.psi_nodes[1:-1], p.psi_sub.ravel()))
        lat = (xs, phi_l, psi_l)
        p._cache["lattice"] = lat
    return lat


def _flat(table) -> np.ndarray:
    """Lattice-aligned view of a cumulative or tail table pair."""
    nodes, sub = table
    return np.concatenate((nodes[1:-1], sub.ravel()))


def _sub_view(p: CoefficientProfile, s: slice = slice(None)) -> _View:
    """C, 1/C, phi and psi at the sub-nodes of the segments s."""
    return _View({"C": p.c_sub[s], "Cinv": p.cinv_sub[s], "phi": p.phi_sub[s], "psi": p.psi_sub[s]}.get)


def _subsub_view(p: CoefficientProfile, rows: np.ndarray) -> _View:
    """C, 1/C, phi and psi at the sub-sub points of the segments rows.

    phi and psi are the in-segment interpolant's integrals at the fixed
    fractions of each segment (`CoefficientProfile.subsub_primitives`), as
    `_point_views` reads them anywhere else in the segment.  C and 1/C on
    the rows the profile paged are the pages it kept
    (`CoefficientProfile.subsub_coefficients`).
    """
    return _coefficients(p, None, lambda: p.subsub_primitives(rows), lambda: p.subsub_coefficients(rows))


def _tables(p: CoefficientProfile):
    """The six integral tables (nodes, sub-nodes), cached per profile.

    Also caches "panel_rows", the mask of segments paged directly for these
    tables or for phi and psi.
    """
    tabs = p._cache.get("delta_tables")
    if tabs is not None:
        return tabs
    rows = _sub_view(p)
    with np.errstate(all="ignore"):
        # Rows an in-segment interpolant cannot represent take their means
        # from direct sub-sub values.  At the Myers edge the forward
        # integrands C phi^{3/2}, C phi^2 and C^{-1} psi^{1/2} blow up
        # toward r = 1 hard enough to span dozens of orders of magnitude
        # inside the final graded segments; on those rows the panel
        # quadratures then see genuine (positive, monotone) values and
        # stay bounded and sane.
        vals = _integrands(p, rows)
        means, paged = p.seg.pointwise_means(vals, lambda rows: _integrands(p, _subsub_view(p, rows)))
        panel = np.zeros(p.seg.n, dtype=bool)
        panel[paged] = True
        panel[p.paged] = True
        p._cache["panel_rows"] = panel
        tabs = {}
        for (name, (_, _, forward)), v, m in zip(_INTEGRANDS.items(), vals, means):
            if forward:
                tabs[name] = p.seg.build_cumulative(v, m)
            else:
                tabs[name] = p.seg.build_reverse(v, m, p.tail_floor)
    p._cache["delta_tables"] = tabs
    return tabs


def _lattice_view(p: CoefficientProfile) -> _View:
    """phi, psi and the integrals on the interior lattice, as arrays."""
    _, phi_l, psi_l = _lattice(p)
    tabs = _tables(p)
    known = {"phi": phi_l, "psi": psi_l}
    return _View(lambda name: known[name] if name in known else _flat(tabs[name]))


def _window_rows(p: CoefficientProfile, cache: dict, name: str, ks: np.ndarray) -> np.ndarray:
    """Sub-node values of integrand `name` on the segments ks, as (m, 15) rows.

    cache holds one contiguous block of rows per integrand and grows it when
    ks reaches past it, so a polish computes the rows of its few segments
    once instead of once per round or once for the whole lattice.
    """
    lo, hi = int(ks.min()), int(ks.max()) + 1
    got = cache.get(name)
    if got is not None:
        start, block = got
        if start <= lo and hi <= start + len(block):
            return block[ks - start]
        lo, hi = min(lo, start), max(hi, start + len(block))
    with np.errstate(all="ignore"):
        block = _scrub(p, _integrand(name, _sub_view(p, slice(lo, hi))))
    cache[name] = (lo, block)
    return block[ks - lo]


def _panel_integral(p: CoefficientProfile, name: str, rs: np.ndarray) -> np.ndarray:
    """Integral `name` at rs from its node table plus a partial-segment panel.

    The panel's integrand reads phi and psi off the in-segment interpolant
    (`CoefficientProfile.primitives_at`), as the tables' direct pages do.
    """
    seg = p.seg

    def integrand(y):
        return _integrand(name, _coefficients(p, y))

    evaluate = seg.cum_eval if _INTEGRANDS[name][2] else seg.tail_eval
    return evaluate(_tables(p)[name][0], integrand, rs)


def _point_views(p: CoefficientProfile, rs, cache: dict, parts) -> list[_View]:
    """phi, psi and the integrals at off-lattice points rs[s], one view per slice s in parts.

    Each value is its node table plus the integral, over the partial segment,
    of the segment's degree-14 interpolant through the sub-node values
    (`Segmentation.partial_weights`, one call for all of rs): the integral
    the tables already hold at the sub-nodes, continued between them with no
    coefficient evaluated.  phi and psi are read once for all of rs
    (`CoefficientProfile.primitives_at`, which reads the flux form in the
    rows the profile paged); each integral only for the slices that use
    it.  On the segments `pointwise_means` paged directly the integral
    tables are not the interpolant's integral, so integrals at points there
    take partial-segment panels instead (`_panel_integral`).  cache carries
    the integrand rows from one call to the next of the same polish
    (`_window_rows`).
    """
    tabs = _tables(p)
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    weights = p.seg.partial_weights(rs)
    prims = []

    def view(s):
        x = rs[s]
        k, head, tail = (w[s] for w in weights)
        panel = p._cache["panel_rows"][k]

        def interpolant(name, k, head, tail):
            row = _window_rows(p, cache, name, k)
            if _INTEGRANDS[name][2]:
                return tabs[name][0][k] + np.einsum("ij,ij->i", head, row)
            return tabs[name][0][k + 1] + np.einsum("ij,ij->i", tail, row)

        def read(name):
            if name in ("phi", "psi"):
                if not prims:
                    prims.extend(p.primitives_at(rs, weights))
                return prims[name == "psi"][s]
            if not panel.any():
                return interpolant(name, k, head, tail)
            keep = ~panel
            out = np.empty(x.size)
            out[panel] = _panel_integral(p, name, x[panel])
            if keep.any():
                out[keep] = interpolant(name, k[keep], head[keep], tail[keep])
            return out

        return _View(read)

    return [view(s) for s in parts]


def _safe_batch(point, rs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """point(rs, rows) with every non-finite value, or raising point, as -inf.

    A batch that raises is re-evaluated one maximum at a time, and a
    maximum's batch that raises one point at a time, so only the points
    that raise on their own count as -inf.
    """
    with np.errstate(all="ignore"):
        try:
            v = np.asarray(point(rs, rows), dtype=float).reshape(rs.shape)
        except (ValueError, OverflowError, ZeroDivisionError):
            if rs.size == 1:
                return np.full(rs.shape, -math.inf)
            if rows.size > 1:
                return np.concatenate([_safe_batch(point, rs[i : i + 1], rows[i : i + 1]) for i in range(rows.size)])
            return np.concatenate([_safe_batch(point, rs[:, j : j + 1], rows) for j in range(rs.shape[1])], axis=1)
    return np.where(np.isfinite(v), v, -math.inf)


def _polish(p: CoefficientProfile, xs, vals, point) -> list[tuple[float, float]]:
    """Zoom polish of each row's max near its lattice argmax; never worse than the grid.

    vals holds one array of lattice values per maximum, and the maxima are
    polished in lock-step.  point(rs, rows) evaluates the maxima rows off the
    lattice, row i of the (rows.size, n) points rs for maximum rows[i], and
    returns values of the same shape; a point where it is non-finite or
    raises counts as -inf (`_safe_batch`).  Each round evaluates ZOOM
    interior points of every open bracket [a, b] in one call and narrows
    each bracket to the two grid neighbours of its round's argmax; a bracket
    closes at b - a <= 1e-12, and an infinite lattice max is not polished.
    Returns (argmax, max) per row.
    """
    k = [int(np.argmax(v)) for v in vals]
    best_x = np.asarray(xs, dtype=float)[k]
    best_v = np.array([v[j] for v, j in zip(vals, k)], dtype=float)
    w = p.seg.width[p.seg.locate(best_x)]
    a = np.maximum(best_x - w, 1e-12)
    b = np.minimum(best_x + w, 1.0 - 1e-12)
    grid = np.arange(1, ZOOM + 1) / (ZOOM + 1)
    rows = np.flatnonzero((best_v != math.inf) & (b - a > 1e-12))
    while rows.size:
        lo, width = a[rows], b[rows] - a[rows]
        rs = lo[:, None] + width[:, None] * grid
        v = _safe_batch(point, rs, rows)
        i = np.arange(rows.size)
        j = np.argmax(v, axis=1)
        top = v[i, j]
        up = top > best_v[rows]
        best_x[rows[up]] = rs[i, j][up]
        best_v[rows[up]] = top[up]
        a[rows] = np.where(j > 0, rs[i, j - 1], lo)
        b[rows] = np.where(j + 1 < ZOOM, rs[i, np.minimum(j + 1, ZOOM - 1)], b[rows])
        rows = rows[b[rows] - a[rows] > 1e-12]
    return [(float(x), float(v)) for x, v in zip(best_x, best_v)]


def functional_sup(p: CoefficientProfile, name: str) -> tuple[float, float]:
    """(argsup, sup) of one bracketing functional over r in (0, 1).

    The sup is taken over the full profile lattice (exact table values, no
    interpolation) and polished locally with off-lattice evaluations.  The
    first call on a profile polishes all five sups in lock-step and caches
    them: each round reads the partial weights, phi and psi of all open
    brackets' points in one call and evaluates each functional on its own
    ZOOM points.  No integrand belongs to two functionals, so one
    `_window_rows` cache serves them all.
    """
    if name not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {name!r}; expected one of {DELTA_NAMES}")
    sups = p._cache.get("delta_sups")
    if sups is None:
        exprs = list(_FUNCTIONALS.values())
        xs, _, _ = _lattice(p)
        lattice = _lattice_view(p)
        with np.errstate(all="ignore"):
            vals = [_scrub(p, expr(lattice)) for expr in exprs]
        cache = {}

        def point(rs, rows):
            n = rs.shape[1]
            views = _point_views(p, rs.ravel(), cache, [slice(i * n, (i + 1) * n) for i in range(rows.size)])
            return [exprs[row](view) for row, view in zip(rows, views)]

        sups = dict(zip(DELTA_NAMES, _polish(p, xs, vals, point)))
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

    d: int
    alpha: Alpha
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

    def chain_ok(self, slack: float = 1e-9) -> bool:
        """Whether each link of the chain holds up to a relative slack."""
        a, b, c, d = self.chain()
        return a <= b * (1 + slack) and b <= c * (1 + slack) and c <= d * (1 + slack)


def universal_bracket(
    d: int, alpha: Alpha, *, profile: CoefficientProfile | None = None
) -> BoundBracket:
    """Assemble all five functionals into the two-sided bracket."""
    profile = resolve_profile(d, alpha, profile)
    return BoundBracket(
        d=d,
        alpha=alpha,
        delta=delta(profile),
        delta1=delta1(profile),
        delta1_prime=delta1_prime(profile),
        delta1_star=delta1_star(profile),
        delta1_star_prime=delta1_star_prime(profile),
    )


# -- iteration sequences ------------------------------------------------------


@dataclass(frozen=True)
class IterationTrace:
    """Monotone approximation sequences from the smoothing double integral.

    lower_sequence[n-1] holds the n-th ratio sup whose reciprocals increase
    toward the reduced eigenvalue; upper_sequence[n-1] and
    rayleigh_sequence[n-1] hold the n-th clamped sup-inf ratio and clamped
    Rayleigh quotient, each maxed over the interior grid radii, whose
    reciprocals decrease toward it.  test_functions carries coarse node
    samples of the lower iterates (normalized by each step's ratio value),
    or, as "clamp_radius", the grid radius where the last sup-inf ratio
    peaks.
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
    its outer integrand (g / C or C u), which `partial_weights` integrates
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
    """Ratio sups of successive iterates starting from sqrt(phi).

    Each step divides the new iterate by the fresh ratio sup, so the
    stored samples stay O(1) while the ratios themselves are exact.
    """
    _check_n_max(n_max)
    with np.errstate(all="ignore"):
        f_nodes = np.sqrt(p.phi_nodes)
        f_sub = np.sqrt(p.phi_sub)
    samples = {"f1": f_nodes[::_SAMPLE_STRIDE].copy()}
    deltas = []
    for n in range(1, n_max + 1):
        (nf_nodes, nf_sub), _ = _smooth_step(p, f_sub)
        with np.errstate(all="ignore"):
            rat = _scrub(p, _flat((nf_nodes, nf_sub)) / _flat((f_nodes, f_sub)))
        d_n = float(np.max(rat))
        deltas.append(d_n)
        f_nodes = nf_nodes / d_n
        f_sub = nf_sub / d_n
        samples[f"f{n + 1}"] = f_nodes[::_SAMPLE_STRIDE].copy()
    return IterationTrace(
        n=n_max,
        lower_sequence=tuple(deltas),
        upper_sequence=(),
        rayleigh_sequence=(),
        test_functions=samples,
    )


def _clamped_moments(p: CoefficientProfile, n_max: int):
    """delta_n' and Rayleigh values at every clamp radius r in grid[1:-1].

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
    the ratios are multiplied back by s.  The radii are the interior nodes
    of the full Chebyshev grid (`Segmentation.grid`), not only the
    lattice's: a lattice node reads its table entry, any other radius the
    table plus the integral of its segment's in-segment interpolant, or nan
    where `needs_clip` pages the segment's row.  Returns two
    (n_max, grid.size - 2) arrays, non-finite where a moment collapsed.
    """
    seg = p.seg
    radii = seg.grid[1:-1]
    weights = seg.grid_weights
    k, head, _ = weights
    off_node = radii != seg.nodes[k]

    def at_radii(nodes, v_sub):
        vals = nodes[k] + np.einsum("ij,ij->i", head, v_sub[k])
        vals[off_node & needs_clip(v_sub)[k]] = math.nan
        return vals

    with np.errstate(all="ignore"):
        scale = p.phi_nodes * p.psi_nodes
        s = float(np.max(scale[np.isfinite(scale)]))
        psi_s = p.psi_sub / s
        mu = [None, p.primitives_at(radii, weights)[0]]
        a_sub = [np.ones_like(psi_s), psi_s * p.phi_sub]
        for m in range(2, 2 * n_max + 1):
            inner = _scrub(p, p.cinv_sub * sum(a_sub[j] * a_sub[m - 1 - j] for j in range(m)))
            nodes, sub = seg.cumulative_from_sub(inner)
            mu.append(at_radii(nodes, inner))
            a_sub.append(psi_s * sub)
        primes = np.array([s * mu[n + 1] / mu[n] for n in range(1, n_max + 1)])
        rayleigh = np.array([s * mu[2 * n] / mu[2 * n - 1] for n in range(1, n_max + 1)])
    return primes, rayleigh


def iterate_upper(p: CoefficientProfile, n_max: int) -> IterationTrace:
    """Clamped sup-inf ratios and Rayleigh quotients, maxed over every grid radius.

    The 2 n_max - 1 moment tables of `_clamped_moments` give both values at
    every interior node of the full Chebyshev grid at once, and each depth
    reports the largest finite one over all of them.  Per radius both
    sequences are non-decreasing in n, so their maxes are too.
    """
    _check_n_max(n_max)
    primes, rayleigh = _clamped_moments(p, n_max)
    primes = np.where(np.isfinite(primes), primes, -math.inf)
    rayleigh = np.where(np.isfinite(rayleigh), rayleigh, -math.inf)
    best_k = 1 + int(np.argmax(primes[-1]))
    return IterationTrace(
        n=n_max,
        lower_sequence=(),
        upper_sequence=tuple(float(v) for v in primes.max(axis=1)),
        rayleigh_sequence=tuple(float(v) for v in rayleigh.max(axis=1)),
        test_functions={"clamp_radius": np.array([p.seg.grid[best_k]])},
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
    (`_smooth_step`), polished off the lattice as the five sups are, on the
    node table plus the integral of the in-segment interpolant through the
    denominator's integrand rows h (`partial_weights`), with no panel.  The
    polish keeps the lattice min, so a misread can only lower the inf; and
    the rows `needs_clip` flags in h sit at an end where h -> 0, so there
    the denominator is its node table to within an ulp.
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
    rat = np.where(np.isfinite(rat), rat, math.inf)
    xs, _, _ = _lattice(p)

    def neg_ratio(rs, rows):
        k, head, tail = seg.partial_weights(rs[0])
        if form == "primal":
            dv = den_nodes[k] + np.einsum("ij,ij->i", head, h_sub[k])
        else:
            dv = den_nodes[k + 1] + np.einsum("ij,ij->i", tail, h_sub[k])
        fvv = fv(rs[0])
        # a point where either factor degenerates cannot improve the inf
        ok = (0.0 < dv) & (dv < math.inf) & (fvv > 0.0)
        return np.where(ok, -fvv / dv, -math.inf)[None]

    return -_polish(p, xs, [-rat], neg_ratio)[0][1]
