"""Weighted-integral functionals, the two-sided bracket, and iteration."""

import dataclasses
import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FULL, get_lambda, get_profile
from eigenbound.errors import DomainError, InvalidTestFunction
from eigenbound.geometry import Alpha, CoefficientProfile, GeometryTriple, HALF_PI, alpha_to_curvature
from eigenbound import quadrature, universal
from eigenbound.quadrature import Segmentation, needs_clip, page_means
from eigenbound.report import build_report
from eigenbound.searches import golden_max
from eigenbound.universal import (
    DELTA_NAMES,
    delta,
    delta1,
    delta1_prime,
    delta1_star,
    delta1_star_prime,
    iterate_lower,
    iterate_upper,
    universal_bracket,
    variational_ratio,
)

PI2 = math.pi**2
CBRT5_4 = 5.0 ** (1.0 / 3.0) / 4.0


class TestFlatExactValues:
    """At alpha = 0 every functional has a closed form."""

    def test_delta(self):
        assert delta(get_profile(2, Alpha.zero())) == pytest.approx(0.25, abs=1e-12)

    def test_delta1_pair(self):
        p = get_profile(2, Alpha.zero())
        assert delta1(p) == pytest.approx(CBRT5_4, abs=1e-9)
        assert delta1_star(p) == pytest.approx(CBRT5_4, abs=1e-9)

    def test_prime_pair(self):
        p = get_profile(2, Alpha.zero())
        assert delta1_prime(p) == pytest.approx(0.375, abs=1e-9)
        assert delta1_star_prime(p) == pytest.approx(0.375, abs=1e-9)

    def test_flat_values_dimension_independent(self):
        # At alpha = 0 the coefficient is identically 1 for every d.
        for d in (3, 10):
            p = get_profile(d, Alpha.zero())
            assert delta(p) == pytest.approx(0.25, abs=1e-12)
            assert delta1_prime(p) == pytest.approx(0.375, abs=1e-9)

    def test_star_swap_symmetry_exact_at_flat(self):
        # The coefficient is its own reciprocal at alpha = 0, so each
        # starred functional must agree with its partner to rounding.
        p = get_profile(2, Alpha.zero())
        assert delta1(p) == pytest.approx(delta1_star(p), abs=5e-13)
        assert delta1_prime(p) == pytest.approx(delta1_star_prime(p), abs=5e-13)


class TestPointView:
    """The polish path's contract: evaluated at a lattice point, the
    off-lattice point view of each functional reproduces its lattice value."""

    @pytest.mark.parametrize("name", DELTA_NAMES)
    @pytest.mark.parametrize(
        "d, alpha",
        [
            (2, Alpha.zero()),
            (3, Alpha.negative(1.5)),
            (5, Alpha.positive(1.0)),
            (63, Alpha.positive(HALF_PI)),
        ],
        ids=["flat", "neg", "pos", "edge63"],
    )
    def test_point_view_matches_lattice(self, name, d, alpha):
        p = get_profile(d, alpha)
        xs = p.seg.lattice
        expr = universal._FUNCTIONALS[name]
        with np.errstate(all="ignore"):
            # scrubbed as functional_sup scrubs it: at the edge C underflows
            # where powers of phi overflow
            lattice = universal._scrub(p, expr(_lattice_view(p)))
        n_nodes = p.seg.n - 1
        picks = {
            int(np.argmax(lattice)),  # where the polish starts
            n_nodes // 4,  # interior partition nodes
            n_nodes // 2,
            n_nodes + 15 * (p.seg.n // 3) + 4,  # sub-nodes
            n_nodes + 15 * (2 * p.seg.n // 3) + 11,
        }
        for j in sorted(picks):
            point = float(universal._point_views(p, xs[None, j : j + 1], [name])[0, 0, 0])
            assert point == pytest.approx(lattice[j], rel=1e-12), (name, float(xs[j]))

    @pytest.mark.parametrize("name", ["phi", "psi", *universal._INTEGRANDS])
    def test_flagged_rows_match_lattice(self, name):
        # The first and last nine rows are paged directly at (3, -1): there
        # the tables are not the interpolant's integrals (whose A1 is 32%
        # off in row 0), so every functional that reads name reads nan at
        # their points, in one batch with a point of an unflagged row that
        # still reads its lattice value.
        p = get_profile(3, Alpha.negative(1.0))
        n = p.seg.n
        xs = p.seg.lattice
        flagged = needs_clip(universal._integrand_rows(p).reshape(-1, 15)).reshape(6, n).any(axis=0)
        assert np.flatnonzero(flagged).tolist() == [*range(9), *range(n - 9, n)]
        rows = np.array([0, 0, 4, 8, n // 2, n - 9, n - 8, n - 7])
        picks = p.seg.n - 1 + 15 * rows + np.array([0, 3, 7, 14, 9, 0, 7, 11])
        names = [f for f in DELTA_NAMES if name in _reads_of(f)]
        with np.errstate(all="ignore"):
            lattice = [universal._FUNCTIONALS[f](_lattice_view(p))[picks] for f in names]
            point = universal._point_views(p, np.tile(xs[picks], (len(names), 1)), names)
        middle = rows == n // 2
        for f, want, got in zip(names, lattice, point):
            assert np.isnan(got[~middle]).all(), f
            assert got[middle, 0] == pytest.approx(want[middle], rel=1e-12, abs=0.0), f


def _reads_of(name):
    """The quantities functional name and its condition read, recorded off a view that reads each as 1."""
    seen = set()

    def read(q):
        seen.add(q)
        return np.ones(1)

    view = universal._View(read)
    universal._FUNCTIONALS[name](view)
    universal._CONDITIONS[name](view)
    return seen


#: The four sharpen profiles and the d = 20 Myers edge.
READ_PROFILES = [(2, Alpha.zero()), (3, Alpha.negative(1.0)), (5, Alpha.negative(1.5)), (5, Alpha.positive(1.0)),
                 (20, Alpha.positive(HALF_PI))]


def _stationary_point_functions(monkeypatch, *calls):
    """The point function `_stationary_points` receives in each of calls, in order."""
    points = []
    solve = universal._stationary_points

    def spy(p, j, best_v, point):
        points.append(point)
        return solve(p, j, best_v, point)

    monkeypatch.setattr(universal, "_stationary_points", spy)
    for call in calls:
        call()
    return points


class TestReads:
    """The one off-lattice reader: at lattice points it reads what the tables hold."""

    @pytest.mark.parametrize("d, alpha", READ_PROFILES, ids=["flat", "neg", "neg5", "pos", "edge20"])
    def test_reads_match_the_lattice(self, d, alpha):
        p = get_profile(d, alpha)
        seg = p.seg
        n_nodes = seg.n - 1
        rows = np.array([seg.n // 3, seg.n // 2, 2 * seg.n // 3])
        subs = n_nodes + 15 * rows + np.array([4, 0, 11])
        picks = np.concatenate(([n_nodes // 4, n_nodes // 2], subs))
        reads = universal._Reads(p, seg.lattice[picks])
        assert not (reads.clipped | reads.paged).any()
        lattice = _lattice_view(p)
        with np.errstate(all="ignore"):
            for name in ("phi", "psi", *universal._INTEGRANDS):
                want = getattr(lattice, name)[picks]
                np.testing.assert_allclose(getattr(reads, name), want, rtol=1e-12, atol=0.0, err_msg=name)
            # a table's derivative is its integrand: at the sub-nodes, the rows themselves
            at_subs = universal._Reads(p, seg.lattice[subs])
            stack = np.concatenate((universal._integrand_rows(p).reshape(6, seg.n, 15), p.coeff_sub[::-1]))
            got = at_subs.values(at_subs.rows(stack, (np.arange(8)[:, None],)))
            np.testing.assert_allclose(got, stack[:, rows, [4, 0, 11]], rtol=1e-12, atol=0.0)

    def test_each_caller_reads_flagged_rows_by_its_rule(self, monkeypatch):
        # At (3, -1) the sups' integrand rows are flagged in the first and
        # last nine segments, the clamped moments' in at least the first and
        # last four, and the smoothing step's outer integrand h in the last
        # four.  In one batch with a point of a clean row, the sups and
        # iterate_upper read nan in their flagged rows; iterate_lower and
        # variational_ratio read through.
        p = CoefficientProfile(3, Alpha.negative(1.0))
        seg = p.seg
        rows = np.array([1, seg.n - 3, seg.n // 2])
        left, right, clean = seg.sub[rows, 7]
        assert universal._clip_flags(p, rows).tolist() == [True, True, False]
        assert all(flagged[rows].tolist() == [True, True, False] for _, _, flagged in universal._clamped_moments(p, 2)[2])
        with np.errstate(all="ignore"):
            for f_sub in (np.sqrt(p.phi_sub), 1.0 + seg.sub * (1.0 - seg.sub)):
                assert needs_clip(universal._smooth_step(p, f_sub)[1])[rows].tolist() == [False, True, False]
            sups = universal._point_views(p, np.tile([left, right, clean], (5, 1)), DELTA_NAMES)
        assert np.isnan(sups[:, :2]).all() and np.isfinite(sups[:, 2]).all()
        upper, lower, primal = _stationary_point_functions(
            monkeypatch,
            lambda: iterate_upper(p, 2),
            lambda: iterate_lower(p, 2),
            lambda: variational_ratio(lambda r: 1.0 + r * (1.0 - r), p),
        )
        with np.errstate(all="ignore"):
            got = upper(np.array([[left, right, clean]] * 3), np.arange(3)).reshape(3, 3, 2)
            assert np.isnan(got[:, :2]).all() and np.isfinite(got[:, 2]).all()
            # the second iterate: f_2 and K f_2 both off the step's tables
            assert np.isfinite(lower(np.array([[right, clean]]), np.array([1]))).all()
            assert np.isfinite(primal(np.array([[right, clean]]), np.array([0]))).all()

    @pytest.mark.parametrize("d, alpha", READ_PROFILES, ids=["flat", "neg", "neg5", "pos", "edge20"])
    def test_clip_flags_are_the_rows_the_tables_page(self, d, alpha):
        p = CoefficientProfile(d, alpha)
        with np.errstate(all="ignore"):
            _, paged = p.seg.pointwise_means(_sub_values(p), _integrand_pages(p))
        flags = universal._clip_flags(p, np.arange(p.seg.n))
        np.testing.assert_array_equal(np.flatnonzero(flags), paged)

    def test_each_segment_is_judged_once_per_profile(self, monkeypatch):
        # Both rounds of the five sups read their flags; the second round's
        # points lie in segments the first already judged.
        judged = []

        def counted(v_sub):
            judged.append(v_sub.shape[0])
            return needs_clip(v_sub)

        monkeypatch.setattr(universal, "needs_clip", counted)
        p = CoefficientProfile(3, Alpha.negative(1.0))
        for name in DELTA_NAMES:
            universal.functional_sup(p, name)
        assert len(judged) == 1
        assert judged[0] == 6 * np.count_nonzero(p._cache["clip_flags"] >= 0)


def _panel_point_view(p, rs):
    """The polish's point view before it read the in-segment interpolant.

    phi, psi and each integral come from the node tables plus a
    partial-segment panel of the pointwise integrand
    (`Segmentation.cum_eval`/`tail_eval`), whose phi and psi are panels too.
    """
    seg = p.seg
    nodes = universal._named(universal._tables(p)[0])

    def read(name):
        if name == "phi":
            return seg.cum_eval(p.phi_nodes, p.coeff_inv, rs)
        if name == "psi":
            return seg.tail_eval(p.psi_nodes, p.coeff, rs)
        direction, power = universal._INTEGRANDS[name]

        def integrand(y):
            with np.errstate(over="ignore", under="ignore"):
                k = p._coeff_pair(y)
            return universal._integrand_stack(k, np.stack((p.phi_at(y), p.psi_at(y))))[direction, power]

        evaluate = seg.cum_eval if direction == 0 else seg.tail_eval
        return evaluate(nodes[name], integrand, rs)

    return universal._View(read)


class TestPanelReference:
    """The interpolant polish against the panel polish it replaced."""

    @pytest.mark.parametrize(
        "d, alpha",
        [
            (2, Alpha.zero()),
            (3, Alpha.negative(1.5)),
            (5, Alpha.positive(1.0)),
            (20, Alpha.negative(10.0 / 3.0)),
            (10, Alpha.positive(HALF_PI)),
            (20, Alpha.positive(HALF_PI)),
            (63, Alpha.positive(HALF_PI)),
            # d = 2 and d = 3 page 4 and 9 rows, read on panels
            (2, Alpha.positive(HALF_PI)),
            (3, Alpha.positive(HALF_PI)),
            (5, Alpha.positive(HALF_PI)),
        ],
    )
    def test_sups_match_the_panel_polish(self, d, alpha):
        p = get_profile(d, alpha)
        xs = p.seg.lattice
        for name in DELTA_NAMES:
            expr = universal._FUNCTIONALS[name]
            with np.errstate(all="ignore"):
                lattice = universal._scrub(p, expr(_lattice_view(p)))
            _, want = _polish(p, xs, lattice, lambda rs: expr(_panel_point_view(p, rs)))
            _, got = universal.functional_sup(p, name)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), name
            assert got >= np.max(lattice), name


class TestPolish:
    """The stationarity solve: batched, never below the lattice, blind to bad points."""

    X0 = 0.5

    def _start(self, p):
        """The lattice point j nearest X0 and its bracket (lo, hi) of lattice neighbours."""
        j = int(np.argmin(np.abs(p.seg.lattice - self.X0)))
        lo, hi = universal._lattice_neighbours(p, np.array([j]))
        return j, float(lo[0]), float(hi[0])

    def test_finds_max_among_finite_points_of_a_mixed_batch(self):
        p = get_profile(2, Alpha.zero())
        j, lo, hi = self._start(p)
        w = hi - lo
        peak = lo + 0.6 * w
        calls = []

        def point(rs, rows):
            calls.append(rs.size)
            if np.any(rs < lo + 0.25 * w):
                raise ValueError("left quarter of the bracket")
            f = 1.0 - ((rs - peak) / w) ** 2
            f[(rs > lo + 0.3 * w) & (rs < lo + 0.4 * w)] = math.nan
            f[rs > lo + 0.9 * w] = math.inf
            return np.stack((f, -2.0 * (rs - peak) / w**2), axis=-1)

        [(x, v, a, b)] = universal._stationary_points(p, np.array([j]), np.array([-1.0]), point)
        assert x == pytest.approx(peak, abs=1e-12 * w)
        assert v == pytest.approx(1.0, abs=1e-15)
        assert lo + 0.25 * w < a < peak < b < lo + 0.9 * w
        # the first batch raised and was read again point by point; the
        # secant step read one point
        samples = universal.SAMPLES
        assert calls == [samples] + [1] * samples + [1]

    def test_never_below_the_lattice_max(self):
        p = get_profile(2, Alpha.zero())
        j, _, _ = self._start(p)
        x0 = float(p.seg.lattice[j])

        def below(rs, rows):
            # a sign change in every bracket, so the secant round reads too
            return np.stack((np.ones_like(rs), self.X0 - rs), axis=-1)

        def raising(rs, rows):
            raise OverflowError

        def nan(rs, rows):
            return np.full(rs.shape + (2,), math.nan)

        for point in (below, raising, nan):
            [(x, v, _, _)] = universal._stationary_points(p, np.array([j]), np.array([2.0]), point)
            assert (x, v) == (x0, 2.0)

    def test_infinite_lattice_max_returns_at_once(self):
        p = get_profile(2, Alpha.zero())
        j, lo, hi = self._start(p)

        def point(rs, rows):
            raise AssertionError("read an infinite lattice max")

        got = universal._stationary_points(p, np.array([j]), np.array([math.inf]), point)
        assert got == [(float(p.seg.lattice[j]), math.inf, lo, hi)]

    def test_agrees_with_golden_section_on_a_smooth_peak(self):
        p = get_profile(2, Alpha.zero())
        j, lo, hi = self._start(p)
        w = hi - lo
        peak = lo + 0.37 * w

        def f(r):
            return 1.0 + np.cos((r - peak) / w)

        def point(rs, rows):
            return np.stack((f(rs), -np.sin((rs - peak) / w)), axis=-1)

        start = f(p.seg.lattice[j])
        [(_, v, _, _)] = universal._stationary_points(p, np.array([j]), np.array([start]), point)
        _, want = golden_max(f, lo, hi, tol=1e-12)
        assert v == pytest.approx(want, rel=1e-15)
        assert v >= start

    def test_report_panel_evaluations_bounded(self, monkeypatch):
        # No sup of this report sits in a directly paged row, so the polish
        # reads the in-segment interpolant and evaluates no panel, and the
        # profile pages no row, so the integral tables' direct sub-sub pages
        # read phi and psi off the interpolant too.  A panel polish took
        # ~250 calls here, and phi/psi panels on those pages took 2.
        calls = []
        for attr in ("cum_eval", "tail_eval"):
            orig = getattr(Segmentation, attr)

            def counted(self, *args, _orig=orig, **kwargs):
                calls.append(1)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(Segmentation, attr, counted)
        build_report(GeometryTriple(3, 2.0, -1.0))
        assert len(calls) == 0
        # A flat negative-branch report fills every row, and here its sups'
        # off-lattice reads land in rows the integral tables page directly,
        # where they read nan.
        build_report(GeometryTriple(63, 2.0, -433.32403533989765))
        assert len(calls) == 0


def sup_on_unit_interval(f, resolution: int = 2001) -> tuple[float, float]:
    """Supremum of a vectorized f over the open interval (0, 1), as (argsup, sup).

    Dense interior grid scan (`resolution` points) followed by golden-section
    refinement around the best grid point: a reference for the sups that
    shares none of their lattice.  A +inf evaluation short-circuits to (that
    point, +inf); nan evaluations are ignored.
    """
    xs = np.arange(1, resolution + 1, dtype=float) / (resolution + 1)
    vals = np.asarray(f(xs), dtype=float)
    if np.isposinf(vals).any():
        idx = int(np.argmax(np.isposinf(vals)))
        return float(xs[idx]), math.inf
    finite = np.where(np.isnan(vals), -math.inf, vals)
    k = int(np.argmax(finite))
    lo = xs[k - 1] if k > 0 else xs[0] / 2.0
    hi = xs[k + 1] if k < resolution - 1 else 0.5 * (xs[-1] + 1.0)

    def safe(x):
        v = float(f(x))
        return -math.inf if math.isnan(v) else v

    x_best, v_best = golden_max(safe, lo, hi, tol=1e-12)
    if v_best >= finite[k]:
        return float(x_best), float(v_best)
    return float(xs[k]), float(finite[k])


class TestUnitIntervalSup:
    def test_smooth_interior_maximum(self):
        x, v = sup_on_unit_interval(lambda t: np.sin(math.pi * t))
        assert v == pytest.approx(1.0, abs=1e-10)
        assert x == pytest.approx(0.5, abs=1e-6)

    def test_boundary_supremum_approached(self):
        # sup of t over (0, 1) is 1, attained only in the limit; the scan
        # must get within grid resolution of it.
        _, v = sup_on_unit_interval(lambda t: np.asarray(t))
        assert 0.999 < v < 1.0

    def test_infinite_value_short_circuits(self):
        x, v = sup_on_unit_interval(
            lambda t: np.where(np.asarray(t) > 0.7, np.inf, 0.0)
        )
        assert math.isinf(v)
        assert x > 0.7

    def test_nan_values_ignored(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = np.sin(math.pi * t)
            return np.where(t < 0.1, np.nan, out)

        _, v = sup_on_unit_interval(f)
        assert v == pytest.approx(1.0, abs=1e-10)


class TestBruteForceCrossCheck:
    def test_delta_matches_dense_scan(self):
        # delta = sup phi psi; check the table-driven sup against a dense
        # direct-evaluation scan.
        p = get_profile(3, Alpha.negative(1.2))
        _, brute = sup_on_unit_interval(
            lambda t: p.phi_at(np.asarray(t)) * p.psi_at(np.asarray(t)),
            resolution=4001,
        )
        assert delta(p) == pytest.approx(brute, rel=1e-10)

    def test_delta1_matches_semi_analytic_flat(self):
        # At alpha = 0: sup over r of [int_0^r sqrt(s) C-weighted terms]
        # collapses to sup (2/3) r^{3/2} sqrt(r)... the known closed form
        # 5^{1/3}/4; crosscheck against a literal two-level quadrature sup.
        from eigenbound.quadrature import integrate

        def inner(r):
            head = integrate(lambda s: s**1.5, 0.0, r, tol=1e-12) / math.sqrt(r)
            tail = math.sqrt(r) * integrate(
                lambda s: np.sqrt(s), r, 1.0, tol=1e-12
            )
            return head + tail

        xs = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        brute = max(inner(float(r)) for r in xs)
        assert delta1(get_profile(2, Alpha.zero())) == pytest.approx(
            brute, rel=1e-6
        )


class TestFrozenProfiles:
    def test_hyperbolic_profile_frozen(self):
        b = universal_bracket(3, Alpha.negative(1.5), profile=get_profile(3, Alpha.negative(1.5)))
        assert b.delta == pytest.approx(0.667401906504555, rel=1e-11)
        assert b.delta1 == pytest.approx(0.9394868386469475, rel=1e-11)
        assert b.delta1_prime == pytest.approx(0.8862495615239789, rel=1e-11)
        assert b.delta1_star == pytest.approx(0.938541937602676, rel=1e-11)
        assert b.delta1_star_prime == pytest.approx(0.8815274983792827, rel=1e-11)

    @pytest.mark.slow
    def test_high_dimension_edge_frozen(self):
        b = universal_bracket(
            63, Alpha.positive(HALF_PI), profile=get_profile(63, Alpha.positive(HALF_PI))
        )
        assert b.delta == pytest.approx(0.0030973584993663553, rel=1e-9)
        assert b.delta1 == pytest.approx(0.007362210617544581, rel=1e-9)
        assert b.delta1_prime == pytest.approx(0.005149596528448121, rel=1e-9)
        assert b.delta1_star == pytest.approx(0.007189546869864744, rel=1e-9)
        assert b.delta1_star_prime == pytest.approx(0.005389167326166233, rel=1e-9)

    def test_edge_ratio_anchors(self):
        for d, want in ((2, 1.2032378905344498), (5, 1.2726823545154387)):
            p = get_profile(d, Alpha.positive(HALF_PI))
            assert delta1_star(p) / delta1_star_prime(p) == pytest.approx(
                want, rel=1e-10
            )


def _sub_values(p):
    """The six scrubbed integrands at the sub-nodes, as `_tables` builds them."""
    return universal._integrand_rows(p).reshape(6, p.seg.n, 15)


def _integrand_pages(p):
    return lambda rows: universal._integrand_pages(p, rows)


def _coefficient_pages(p):
    return lambda rows: p._coeff_pair(p.seg.subsub[rows])


def _flagged(v_subs):
    return np.logical_or.reduce([needs_clip(v) for v in v_subs])


class TestEdgeTables:
    """Direct sub-sub pages on the rows the spectral guard flags."""

    def test_blocks_match_whole_pages(self):
        # 202 of this profile's 352 rows are flagged, several blocks' worth.
        p = CoefficientProfile(63, Alpha.positive(HALF_PI), segments=1024)
        vals = _sub_values(p)
        flagged = np.flatnonzero(_flagged(vals))
        assert flagged.size > 3 * quadrature.PAGE_BLOCK
        pages = _integrand_pages(p)
        with np.errstate(all="ignore"):
            got, paged = p.seg.pointwise_means(vals, pages)
            whole = pages(flagged)
        np.testing.assert_array_equal(paged, flagged)
        for means, want in zip(got, whole):
            np.testing.assert_array_equal(means[flagged], page_means(want))

    def test_peak_memory(self):
        p = CoefficientProfile(10, Alpha.positive(HALF_PI))
        tracemalloc.start()
        try:
            universal._tables(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_flagged_rows_take_direct_pages(self):
        # Clipped interpolated pages on the flagged rows move this lattice
        # argmax by 0.79 and the sup by a factor ~1e12.  The argmax, from the
        # stationarity condition's secant step, sits 9.9e-10 relative from the
        # full 4096-segment grid's 0.20515414534396853 (the zoom's sat 1.7e-8
        # away), on a peak flat enough that the sup agrees to 1e-12.
        x, v = universal.functional_sup(get_profile(20, Alpha.positive(HALF_PI)), "delta1_prime")
        assert x == pytest.approx(0.20515414554788022, rel=1e-12)
        assert v == pytest.approx(0.01635696466086855, rel=1e-12)

    @pytest.mark.parametrize(
        "d,alpha",
        [
            (3, Alpha.negative(1.0)),
            (63, Alpha.negative(3.0)),
            (20, Alpha.positive(1.5)),
            (5, Alpha.positive(0.8)),
            (2, Alpha.negative(10.0 / 3.0)),
            (20, Alpha.negative(10.0 / 3.0)),
            (10, Alpha.positive(HALF_PI)),
            (63, Alpha.positive(HALF_PI)),
        ],
    )
    def test_spectral_means_match_direct_pages(self, d, alpha):
        # On every row the guard leaves alone, the spectral means of C, 1/C
        # and the six integrands stand in for whole direct pages.
        p = get_profile(d, alpha)
        for vals, pages in (
            ((p.c_sub, p.cinv_sub), _coefficient_pages(p)),
            (_sub_values(p), _integrand_pages(p)),
        ):
            with np.errstate(all="ignore"):
                got, _ = p.seg.pointwise_means(vals, pages)
                kept = np.flatnonzero(~_flagged(vals))
                for lo in range(0, kept.size, 512):
                    rows = kept[lo : lo + 512]
                    for means, v, want in zip(got, vals, pages(rows)):
                        scale = np.max(np.abs(v[rows]), axis=1, keepdims=True)
                        err = np.abs(means[rows] - page_means(want))
                        assert np.all(err <= 5e-11 * scale)

    def test_log_coefficient_work_bounded(self, monkeypatch):
        # Whole direct pages cost 30,873,600 log C points at the edge and
        # 1,382,400 off it.  A report takes 64,275 at the d = 10 edge and
        # 96,000 at d = 63; with phi and psi from nested panels on the rows
        # the profile pages itself it took 483,675 and 2,181,750.
        points = []
        orig = CoefficientProfile._log_coeff

        def counted(self, x):
            points.append(np.size(x))
            return orig(self, x)

        monkeypatch.setattr(CoefficientProfile, "_log_coeff", counted)
        for g, cap in (
            (GeometryTriple(10, math.pi, 9.0), 100_000),
            (GeometryTriple(63, math.pi, 62.0), 250_000),
            (GeometryTriple(3, 2.0, -1.0), 1_000_000),
        ):
            points.clear()
            build_report(g)
            assert 0 < sum(points) <= cap


class TestBracket:
    @pytest.mark.parametrize(
        "d,alpha",
        [
            (2, Alpha.zero()),
            (2, Alpha.positive(1.0)),
            (3, Alpha.negative(1.5)),
            (5, Alpha.positive(HALF_PI)),
            (7, Alpha.negative(0.4)),
        ],
    )
    def test_chain_order(self, d, alpha):
        b = universal_bracket(d, alpha, profile=get_profile(d, alpha))
        lo4, lo, hi, hi4 = b.chain()
        assert lo4 <= lo + 1e-9
        assert lo <= hi + 1e-9
        assert hi <= hi4 + 1e-9

    def test_chain_slack_is_relative(self):
        # lam is ~1.2e-19 here, so an absolute slack would pass any order.
        alpha = Alpha.negative(10.0 / 3.0)
        b = universal_bracket(20, alpha, profile=get_profile(20, alpha))
        assert b.chain_ok()
        swapped = dataclasses.replace(
            b, delta1=0.5 / b.upper, delta1_star=0.5 / b.upper
        )
        assert swapped.lower == pytest.approx(2.0 * b.upper)
        assert not swapped.chain_ok()

    def test_tiny_eigenvalue_inversion_stays_at_rounding(self):
        # lam is ~1.2e-19 here and lower sits 1.7e-15 relative above upper.
        # A change that widens that inversion fails here instead of passing
        # inside chain_ok's 1e-9 slack.
        alpha = Alpha.negative(10.0 / 3.0)
        b = universal_bracket(20, alpha, profile=get_profile(20, alpha))
        assert b.lower <= b.upper * (1.0 + 1e-14)

    @pytest.mark.parametrize(
        "d,alpha",
        [(2, Alpha.zero()), (2, Alpha.positive(1.0)), (3, Alpha.negative(1.5))],
    )
    def test_bracket_contains_oracle_eigenvalue(self, d, alpha):
        b = universal_bracket(d, alpha, profile=get_profile(d, alpha))
        lam = get_lambda(d, alpha).eigenvalue
        assert b.lower <= lam + 1e-6
        assert lam <= b.upper + 1e-6

    def test_mismatched_profile_rejected(self):
        with pytest.raises(DomainError):
            universal_bracket(3, Alpha.zero(), profile=get_profile(2, Alpha.zero()))


#: Profiles on which the clamped iterates are checked radius by radius.
CLAMP_PROFILES = [
    (2, Alpha.zero()),
    (3, Alpha.negative(1.0)),
    (5, Alpha.negative(1.5)),
    (5, Alpha.positive(1.0)),
    (10, Alpha.negative(2.0)),
    (3, Alpha.positive(1.5)),
    (10, Alpha.positive(0.8)),
    (20, Alpha.negative(10.0 / 3.0)),
    (63, Alpha.negative(1.0)),
    (5, Alpha.positive(HALF_PI)),
]

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _grid_alpha(x: float) -> Alpha:
    """Alpha of a signed grid alpha x (not the signed square of from_signed_x)."""
    return Alpha.negative(-x) if x < 0 else (Alpha.positive(x) if x > 0 else Alpha.zero())


def _sup_points():
    """Every 16th reference point (d < 1000) and the Myers edges; all with EIGENBOUND_FULL=1."""
    grid = [(int(d), x) for d, x, _ in json.loads(REFERENCE.read_text())["curvature"] if d < 1000]
    return grid if FULL else [(d, x) for i, (d, x) in enumerate(grid) if i % 16 == 0 or x == HALF_PI]


def _clamped_sequences(p, k: int, n_max: int):
    """delta_n' and Rayleigh values at clamp radius r = nodes[k], by brute force.

    Iterates the clamped smoothing operator on the lattice at this one
    radius.  It integrates only up to r, so iterates stay constant beyond
    it and their derivative is exactly 1/C times the previous tail
    integral, vanishing past r; the Rayleigh denominators use that
    identity instead of numerical differentiation.
    """
    seg = p.seg
    scrub = functools.partial(universal._scrub, p)
    phi_r = float(p.phi_nodes[k])
    f_nodes = np.minimum(p.phi_nodes, phi_r)
    f_sub = np.minimum(p.phi_sub, phi_r)
    g_prev_sub = None
    primes = []
    rayleigh = []
    for _ in range(n_max):
        with np.errstate(all="ignore"):
            num = float(np.sum(seg.segment_integrals(scrub(p.c_sub * f_sub**2))))
            if g_prev_sub is None:
                den = phi_r
            else:
                contrib = seg.segment_integrals(scrub(p.cinv_sub * g_prev_sub**2))
                den = float(np.sum(contrib[:k]))
        rayleigh.append(num / den if den > 0 else math.inf)

        with np.errstate(all="ignore"):
            _, g_sub = seg.reverse_from_sub(scrub(p.c_sub * f_sub), p.tail_floor)
            integrand = scrub(p.cinv_sub * g_sub)
            integrand[k:, :] = 0.0
            nf_nodes, nf_sub = seg.cumulative_from_sub(integrand)
            rat = np.concatenate(
                (nf_nodes[1:-1] / f_nodes[1:-1], (nf_sub / f_sub).ravel())
            )
        rat = np.where(np.isfinite(rat), rat, math.inf)
        d_n = float(np.min(rat))
        primes.append(d_n)
        scale = d_n if d_n > 0 and math.isfinite(d_n) else 1.0
        f_nodes = nf_nodes / scale
        f_sub = nf_sub / scale
        g_prev_sub = g_sub / scale
    return primes, rayleigh


class TestIteration:
    def test_flat_lower_sequence_frozen(self):
        tr = iterate_lower(get_profile(2, Alpha.zero()), 6)
        want = [
            0.4274939866,
            0.4074272173,
            0.4055944056,
            0.4053221289,
            0.4052890131,
            0.4052852150,
        ]
        assert list(tr.lower_sequence) == pytest.approx(want, abs=5e-9)

    def test_lower_reciprocals_nondecreasing(self):
        for d, alpha in ((2, Alpha.zero()), (3, Alpha.negative(1.0))):
            tr = iterate_lower(get_profile(d, alpha), 4)
            inv = [1.0 / v for v in tr.lower_sequence]
            assert all(b >= a - 1e-10 for a, b in zip(inv, inv[1:]))

    def test_upper_reciprocals_nonincreasing(self):
        tr = iterate_upper(get_profile(2, Alpha.positive(0.8)), 3)
        inv = [1.0 / v for v in tr.upper_sequence]
        assert all(b <= a + 1e-10 for a, b in zip(inv, inv[1:]))

    def test_first_upper_matches_prime_functional(self):
        p = get_profile(2, Alpha.zero())
        tr = iterate_upper(p, 1)
        assert tr.upper_sequence[0] == pytest.approx(delta1_prime(p), abs=1e-6)

    def test_sequences_converge_toward_eigenvalue(self):
        p = get_profile(2, Alpha.zero())
        lam = PI2 / 4.0
        lo = 1.0 / iterate_lower(p, 6).lower_sequence[-1]
        hi = 1.0 / iterate_upper(p, 6).upper_sequence[-1]
        assert lo <= lam + 1e-9
        assert hi >= lam - 1e-9
        assert abs(lo - lam) < 1e-3 and abs(hi - lam) < 1e-3

    def test_bad_depth_rejected(self):
        with pytest.raises(DomainError):
            iterate_lower(get_profile(2, Alpha.zero()), 0)


    @pytest.mark.parametrize("d, alpha", CLAMP_PROFILES)
    def test_clamped_infimum_sits_at_the_clamp_radius(self, d, alpha):
        # The clamped operator makes f_{n+1}/f_n non-increasing in r and
        # constant past the clamp node k, so the lattice min that
        # _clamped_sequences takes is the ratio at node k.
        p = get_profile(d, alpha)
        seg = p.seg
        for k in (seg.n // 8, seg.n // 2, 7 * seg.n // 8):
            primes, _ = _clamped_sequences(p, k, 3)
            f_nodes = np.minimum(p.phi_nodes, p.phi_nodes[k])
            f_sub = np.minimum(p.phi_sub, p.phi_nodes[k])
            for prime in primes:
                _, g_sub = seg.reverse_from_sub(p.c_sub * f_sub, p.tail_floor)
                inner = p.cinv_sub * g_sub
                inner[k:, :] = 0.0
                f_nodes_next, f_sub_next = seg.cumulative_from_sub(inner)
                at_k = f_nodes_next[k] / f_nodes[k]
                assert prime == pytest.approx(at_k, rel=1e-14, abs=0.0)
                f_nodes = f_nodes_next / prime
                f_sub = f_sub_next / prime

    @pytest.mark.parametrize("d, alpha", CLAMP_PROFILES)
    def test_moment_tables_match_per_radius_iterates(self, d, alpha):
        # iterate_upper reads every lattice radius off the moment tables; at
        # five radii across (0, 1) they must give what iterating the clamped
        # operator at that one radius gives.
        p = get_profile(d, alpha)
        n = p.seg.n
        s, mu, _ = universal._clamped_moments(p, 3)
        for k in (n // 64, n // 8, n // 2, 7 * n // 8, n - n // 64):
            # node k is point k - 1 of the lattice
            primes = [s * mu[t, k - 1] / mu[t - 1, k - 1] for t in (1, 2, 3)]
            rayleigh = [s * mu[t, k - 1] / mu[t - 1, k - 1] for t in (1, 3, 5)]
            want_primes, want_rayleigh = _clamped_sequences(p, k, 3)
            assert primes == pytest.approx(want_primes, rel=1e-13, abs=0.0)
            assert rayleigh == pytest.approx(want_rayleigh, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d, x", _sup_points(), ids=[f"d{d}{x:+.4f}" for d, x in _sup_points()])
    def test_first_iterates_equal_their_functionals(self, d, x):
        # K sqrt(phi) / sqrt(phi) is the delta1 functional (Fubini), and
        # mu_2 / mu_1 the delta1_prime one (by parts), so the first iterates
        # are those sups, solved from other tables.
        p = CoefficientProfile(d, _grid_alpha(x))
        assert iterate_lower(p, 1).lower_sequence[0] == pytest.approx(delta1(p), rel=1e-12, abs=0.0)
        assert iterate_upper(p, 1).upper_sequence[0] == pytest.approx(delta1_prime(p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, x", [(2, 0.0), (3, -1.0), (5, -1.5), (5, 1.0), (63, 1.418)])
    def test_lower_iterates_do_not_depend_on_the_lattice(self, d, x):
        # As lattice maxes, delta_1..delta_3 moved by up to 6.6e-8 between
        # these two lattices.
        coarse = iterate_lower(CoefficientProfile(d, _grid_alpha(x)), 3).lower_sequence
        fine = iterate_lower(CoefficientProfile(d, _grid_alpha(x), segments=8192), 3).lower_sequence
        assert list(coarse) == pytest.approx(fine, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 20, 63])
    def test_upper_iterates_take_no_panels_at_the_myers_edge(self, d, monkeypatch):
        # phi and psi take panels in the rows the profile pages; the five
        # sups and both sequences read outside them at the edge.
        calls = []
        for attr in ("phi_at", "psi_at"):
            orig = getattr(CoefficientProfile, attr)

            def counted(self, *args, _orig=orig, **kwargs):
                calls.append(1)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(CoefficientProfile, attr, counted)
        p = CoefficientProfile(d, Alpha.positive(HALF_PI))
        for name in DELTA_NAMES:
            universal.functional_sup(p, name)
        iterate_lower(p, 5)
        iterate_upper(p, 2)
        assert not calls

    @pytest.mark.parametrize("n_max", [1, 2, 4])
    def test_upper_iterates_build_two_n_minus_one_tables(self, monkeypatch, n_max):
        p = get_profile(3, Alpha.negative(1.0))
        built = []
        for name in ("build_cumulative", "build_reverse"):
            original = getattr(Segmentation, name)

            def counted(self, *args, _original=original, **kwargs):
                built.append(1)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Segmentation, name, counted)
        iterate_upper(p, n_max)
        assert len(built) == 2 * n_max - 1

    def test_upper_sequences_bound_the_reference_on_the_grid(self):
        # Every 8th (d, alpha) of the benchmark's reference grid; all of
        # them with EIGENBOUND_FULL=1.
        grid = json.loads(REFERENCE.read_text())["curvature"]
        bad = []
        for d, x, lam in grid if FULL else grid[::8]:
            tr = iterate_upper(CoefficientProfile(d, _grid_alpha(x)), 10)
            for name, seq in (("upper", tr.upper_sequence), ("rayleigh", tr.rayleigh_sequence)):
                if not all(math.isfinite(v) for v in seq):
                    bad.append(f"{name} not finite at d={d} x={x}: {seq}")
                    continue
                bounds = [1.0 / v for v in seq]
                if any(b > a * (1.0 + 1e-12) for a, b in zip(bounds, bounds[1:])):
                    bad.append(f"{name} bounds rise at d={d} x={x}: {bounds}")
                if min(bounds) < lam * (1.0 - 5e-12):
                    bad.append(f"{name} bound below lambda {lam!r} at d={d} x={x}: {bounds}")
        assert not bad, bad


class TestNoPanels:
    """No off-lattice read at the reference points integrates a partial-segment panel."""

    def test_reference_points_take_no_panels(self, monkeypatch):
        # Every 8th reference point (d < 1000); all of them with
        # EIGENBOUND_FULL=1.  Fresh profiles, so the integral tables'
        # direct pages are built here too.
        def refuse(self, *args, **kwargs):
            raise AssertionError("a partial-segment panel was integrated")

        for attr in ("cum_eval", "tail_eval"):
            monkeypatch.setattr(Segmentation, attr, refuse)
        grid = [(int(d), x) for d, x, _ in json.loads(REFERENCE.read_text())["curvature"] if d < 1000]
        for d, x in grid if FULL else grid[::8]:
            alpha = _grid_alpha(x)
            p = CoefficientProfile(d, alpha)
            build_report(GeometryTriple(d, 2.0, alpha_to_curvature(alpha, d, 2.0)), profile=p)
            iterate_lower(p, 5)
            iterate_upper(p, 10)
            for form in ("primal", "dual"):
                variational_ratio(lambda r: 1.0 + r * (1.0 - r), p, form)


#: (d, signed alpha) -> the five sups (DELTA_NAMES order) computed on the
#: full 4096-segment Chebyshev grid, every node kept.
FULL_GRID_SUPS = {
    (2, -3.3333333333333335): (
        1.2374380584038815,
        1.5873166931461027,
        1.5343186383514253,
        1.586559882504917,
        1.530928407461427,
    ),
    (2, -1.0): (
        0.314512083355775,
        0.5117592079232023,
        0.4586749266478328,
        0.5116257401045836,
        0.4573898193934009,
    ),
    (2, 0.0): (
        0.25,
        0.42749398666917404,
        0.37499999999999994,
        0.42749398666917493,
        0.37500000000000044,
    ),
    (2, 1.0): (
        0.18975583567250734,
        0.34400517831747013,
        0.29289355030039765,
        0.34398208135063413,
        0.29472704909224146,
    ),
    (2, 1.5707963267948966): (
        0.11285742829989762,
        0.21947859548477766,
        0.1781071498153111,
        0.21829060538407277,
        0.18141932455859855,
    ),
    (5, -3.3333333333333335): (
        580.9435617382846,
        584.6903869379993,
        584.6589531208069,
        584.688949978857,
        584.6546164514604,
    ),
    (5, -1.0): (
        0.6674785910014736,
        0.940270991895501,
        0.8871821301013443,
        0.9391282707317223,
        0.8816117153108096,
    ),
    (5, 0.0): (
        0.25,
        0.42749398666917404,
        0.37499999999999994,
        0.42749398666917493,
        0.37500000000000044,
    ),
    (5, 1.0): (
        0.097900171616981,
        0.2023964036095507,
        0.15849324381808017,
        0.20145134283861316,
        0.1626789730204168,
    ),
    (5, 1.5707963267948966): (
        0.04148730841287579,
        0.09069857860724319,
        0.06766065833343948,
        0.08917225869966447,
        0.07006639039449554,
    ),
    (20, -3.3333333333333335): (
        8.656883206097526e+18,
        8.65688320619431e+18,
        8.656883206194324e+18,
        8.656883206194335e+18,
        8.656883206194323e+18,
    ),
    (20, -1.0): (
        78.58499623824441,
        80.2272386822786,
        80.1911635653208,
        80.2235595262976,
        80.18017468590571,
    ),
    (20, 0.0): (
        0.25,
        0.42749398666917404,
        0.37499999999999994,
        0.42749398666917493,
        0.37500000000000044,
    ),
    (20, 1.0): (
        0.024358964262764727,
        0.05698860489443355,
        0.04035906905077277,
        0.055713714304855805,
        0.04215835463609753,
    ),
    (20, 1.5707963267948966): (
        0.009872340719780047,
        0.023105618590868602,
        0.01635696466086855,
        0.022582978600066667,
        0.017086230314533282,
    ),
    (63, -3.3333333333333335): (
        3.0987536065434864e+67,
        3.098753606543494e+67,
        3.0987536065434954e+67,
        3.0987536065434906e+67,
        3.0987536065434906e+67,
    ),
    (63, -1.0): (
        1640631921.7025294,
        1640634204.4138246,
        1640634204.3973103,
        1640634204.4124088,
        1640634204.3931677,
    ),
    (63, 0.0): (
        0.25,
        0.42749398666917404,
        0.37499999999999994,
        0.42749398666917493,
        0.37500000000000044,
    ),
    (63, 1.0): (
        0.00764242576927445,
        0.018165526572460143,
        0.01270612014025154,
        0.017739495856241967,
        0.013297237390134328,
    ),
    (63, 1.5707963267948966): (
        0.0030973584993663566,
        0.007362210617544582,
        0.005149596528448123,
        0.007189546869864746,
        0.005389167326166237,
    ),
}

#: (d, signed alpha) of the sharpen benchmark's profiles -> delta_5 of
#: iterate_lower(p, 5) and the upper and Rayleigh sequences of
#: iterate_upper(p, 2), on the full 4096-segment grid.
FULL_GRID_ITERATES = {
    (2, 0.0): (0.4052890131101887, (0.37499999183073085, 0.4005090439250226), (0.37499999183073085, 0.40476247804793775)),
    (3, -1.0): (0.5945163193325071, (0.5661915081411005, 0.5917084138507578), (0.5661915081411005, 0.5943148266239218)),
    (5, -1.5): (2.437554898786013, (2.420002116425811, 2.43727365928471), (2.420002116425811, 2.437550568719773)),
    (5, 1.0): (0.18558833764028362, (0.15849323372907037, 0.17667388847033647), (0.15849323372907037, 0.18297911590888552)),
}


class TestThinnedLattice:
    """The lattice keeps what the full 4096-segment grid computed."""

    @pytest.mark.parametrize("d, x", list(FULL_GRID_SUPS))
    def test_sups_match_the_full_grid(self, d, x):
        p = get_profile(d, _grid_alpha(x))
        got = [universal.functional_sup(p, name)[1] for name in DELTA_NAMES]
        assert got == pytest.approx(FULL_GRID_SUPS[(d, x)], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("d, x", list(FULL_GRID_ITERATES))
    def test_iterates_match_the_full_grid(self, d, x):
        # delta_5, the value reported, has converged to a ratio that is flat
        # in r, so it keeps the full grid's value.  The upper values were
        # maxes over the full grid's nodes; solved off the lattice they can
        # only rise, by up to 6.4e-8 here, to the max of a dense scan.
        want_lower, want_upper, want_rayleigh = FULL_GRID_ITERATES[(d, x)]
        p = get_profile(d, _grid_alpha(x))
        assert iterate_lower(p, 5).lower_sequence[-1] == pytest.approx(want_lower, rel=1e-13, abs=0.0)
        tr = iterate_upper(p, 2)
        for got, want, t in zip(tr.upper_sequence + tr.rayleigh_sequence, want_upper + want_rayleigh, (1, 2, 1, 3)):
            assert got >= want * (1.0 - 1e-13), t
            assert got == pytest.approx(_moment_ratio_scan(p, 2, t), rel=1e-12, abs=0.0), t


def _moment_ratio_scan(p, n_max, t):
    """Max of s mu_t / mu_{t-1} of `_clamped_moments` by a dense scan of the three segments around its lattice max.

    Off the lattice each moment from mu_2 on is its node table plus the
    integral of its integrand rows' interpolant over the partial segment
    (`Segmentation.partial_weights`), and mu_1 = phi the profile's.
    """
    seg = p.seg
    s, mu, tables = universal._clamped_moments(p, n_max)
    with np.errstate(all="ignore"):
        lattice = s * mu[t] / mu[t - 1]
    k = int(seg.locate(seg.lattice[np.nanargmax(lattice)]))
    rs = np.linspace(seg.nodes[max(k - 1, 0)], seg.nodes[min(k + 2, seg.n)], 20001)[1:-1]
    j, head, _ = seg.partial_weights(rs)
    moments = [p.primitives_at(rs)[0]] + [nodes[j] + np.einsum("ij,ij->i", head, rows[j]) for nodes, rows, _ in tables]
    return max(float(np.nanmax(lattice)), float(np.max(s * moments[t] / moments[t - 1])))


#: Interior points per round of the zoom polish (`_polish`).
ZOOM = 32


def _safe_values(point, rs):
    """point(rs) with every non-finite value, or point raising at it, as -inf."""
    with np.errstate(all="ignore"):
        try:
            v = np.asarray(point(rs), dtype=float).reshape(rs.shape)
        except (ValueError, OverflowError, ZeroDivisionError):
            if rs.size == 1:
                return np.full(1, -math.inf)
            return np.concatenate([_safe_values(point, rs[i : i + 1]) for i in range(rs.size)])
    return np.where(np.isfinite(v), v, -math.inf)


def _polish(p, xs, vals, point):
    """Zoom polish of a max near its lattice argmax: the search the stationarity solve replaced.

    vals holds the lattice values at xs, and point(rs) the function at the
    off-lattice points rs; a point where it is non-finite or raises counts
    as -inf.  Each round evaluates ZOOM interior points of the bracket
    [a, b] in one call and narrows it to the two grid neighbours of its
    round's argmax, down to b - a <= 1e-12; an infinite lattice max is not
    polished.  Returns (argmax, max).
    """
    k = int(np.argmax(vals))
    best_x, best_v = float(xs[k]), float(vals[k])
    w = p.seg.width[p.seg.locate(best_x)]
    a = max(best_x - w, 1e-12)
    b = min(best_x + w, 1.0 - 1e-12)
    grid = np.arange(1, ZOOM + 1) / (ZOOM + 1)
    while best_v != math.inf and b - a > 1e-12:
        rs = a + (b - a) * grid
        v = _safe_values(point, rs)
        j = int(np.argmax(v))
        if v[j] > best_v:
            best_x, best_v = float(rs[j]), float(v[j])
        a, b = (rs[j - 1] if j > 0 else a), (rs[j + 1] if j + 1 < ZOOM else b)
    return best_x, best_v


def _zoom_sups(p):
    """The five sups by the ZOOM polish over the same off-lattice views."""
    exprs = list(universal._FUNCTIONALS.values())
    xs = p.seg.lattice
    lattice = _lattice_view(p)
    with np.errstate(all="ignore"):
        vals = [universal._scrub(p, expr(lattice)) for expr in exprs]
    polished = [
        _polish(p, xs, v, lambda rs, name=name: universal._point_views(p, rs[None], [name])[0, :, 0])
        for name, v in zip(DELTA_NAMES, vals)
    ]
    return polished, [float(np.max(v)) for v in vals]


class TestStationarySups:
    """The two-round stationarity solve behind functional_sup."""

    @pytest.mark.parametrize(
        "d, alpha",
        [
            (3, Alpha.negative(1.5)),
            (20, Alpha.negative(10.0 / 3.0)),
            (2, Alpha.zero()),
            (5, Alpha.positive(1.0)),
            (10, Alpha.positive(HALF_PI)),
        ],
        ids=["neg", "neg20", "flat", "pos", "edge10"],
    )
    def test_conditions_have_the_sign_of_the_derivative(self, d, alpha):
        # Centred differences of each functional on the interpolant, across
        # (0, 1) and close to every sup, against the closed-form condition
        # at the middle point, wherever the difference stands above 1e3 ulp.
        p = get_profile(d, alpha)
        near = np.array([universal.functional_sup(p, name)[0] for name in DELTA_NAMES])
        offsets = np.array([-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2])
        rs = np.concatenate((np.linspace(0.005, 0.995, 199), (near[:, None] * (1.0 + offsets)).ravel()))
        h = 1e-7
        with np.errstate(all="ignore"):
            for name in DELTA_NAMES:
                lo, mid, hi = universal._point_views(p, np.stack((rs - h, rs, rs + h)), [name] * 3)
                df, cond = hi[:, 0] - lo[:, 0], mid[:, 1]
                big = np.isfinite(df) & np.isfinite(cond) & (np.abs(df) > 1e3 * np.spacing(np.abs(mid[:, 0])))
                assert big.sum() >= 50, name
                np.testing.assert_array_equal(np.sign(cond[big]), np.sign(df[big]), err_msg=name)

    @pytest.mark.parametrize("d, x", _sup_points(), ids=[f"d{d}{x:+.4f}" for d, x in _sup_points()])
    def test_sups_agree_with_the_zoom_polish(self, d, x):
        p = CoefficientProfile(d, _grid_alpha(x))
        zoom, lattice_max = _zoom_sups(p)
        for name, (_, want), floor in zip(DELTA_NAMES, zoom, lattice_max):
            _, got = universal.functional_sup(p, name)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), name
            assert got >= floor, name

    @pytest.mark.parametrize(
        "d, alpha",
        [(3, Alpha.negative(1.0)), (2, Alpha.zero()), (10, Alpha.positive(HALF_PI))],
        ids=["neg", "flat", "edge10"],
    )
    def test_five_sups_take_two_point_rounds(self, d, alpha, monkeypatch):
        # The ZOOM polish took 8 rounds of off-lattice reads for these five
        # sups; the solve takes one round of samples and one at the five x*.
        calls = []
        orig = universal._point_views

        def counted(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(universal, "_point_views", counted)
        p = CoefficientProfile(d, alpha)
        for name in DELTA_NAMES:
            universal.functional_sup(p, name)
        assert 1 <= len(calls) <= 2

    def test_brackets_are_the_lattice_neighbours(self):
        # The neighbours come from the segment layout; sorting the whole
        # lattice is the reference.
        p = get_profile(3, Alpha.negative(1.0))
        xs = p.seg.lattice
        order = np.sort(xs)
        assert np.all(np.diff(order) > 0.0)
        lo, hi = universal._lattice_neighbours(p, np.arange(xs.size))
        pos = np.searchsorted(order, xs)
        np.testing.assert_array_equal(lo, np.concatenate(([1e-12], order[:-1]))[pos])
        np.testing.assert_array_equal(hi, np.concatenate((order[1:], [1.0 - 1e-12]))[pos])


def _prune_points():
    """Flat, off-edge, Myers-edge and flat-to-rounding profiles; every reference point (d < 1000) with EIGENBOUND_FULL=1."""
    if FULL:
        return [(int(d), x) for d, x, _ in json.loads(REFERENCE.read_text())["curvature"] if d < 1000]
    # -10/3 + 2 (pi/2 + 10/3) / 64 = -3.18 is the benchmark's third grid alpha
    return [(2, 0.0), (5, -1.0), (10, 0.8), (2, HALF_PI), (10, HALF_PI), (20, HALF_PI), (63, HALF_PI),
            (20, -10.0 / 3.0 + 2.0 * (HALF_PI + 10.0 / 3.0) / 64.0), (63, -3.0)]


def _lattice_view(p):
    """phi, psi and the integrals at every point of `Segmentation.lattice`, from the full tables."""
    nodes, sub = (universal._named(t) for t in universal._tables(p))
    tabs = {"phi": (p.phi_nodes, p.phi_sub), "psi": (p.psi_nodes, p.psi_sub), **{n: (nodes[n], sub[n]) for n in nodes}}
    return universal._View(lambda name: universal._flat(tabs[name]))


def _functional_rows(p):
    """The five functionals at the sub-nodes of every segment, from the full tables, as (n, 15) rows."""
    sub = universal._View({"phi": p.phi_sub, "psi": p.psi_sub, **universal._named(universal._tables(p)[1])}.get)
    with np.errstate(all="ignore"):
        return [universal._scrub(p, expr(sub)) for expr in universal._FUNCTIONALS.values()]


class TestPrunedLattice:
    """The sub-node rows the node-level bounds leave to fill."""

    @pytest.mark.parametrize("d, x", _prune_points(), ids=[f"d{d}{x:+.4f}" for d, x in _prune_points()])
    def test_argmax_and_max_match_the_full_lattice(self, d, x):
        p = CoefficientProfile(d, _grid_alpha(x))
        j, top = universal._lattice_maxes(p)
        lattice = _lattice_view(p)
        with np.errstate(all="ignore"):
            full = [universal._scrub(p, expr(lattice)) for expr in universal._FUNCTIONALS.values()]
        assert j.tolist() == [int(np.argmax(v)) for v in full]
        assert top.tolist() == [float(np.max(v)) for v in full]

    @pytest.mark.parametrize("d, x", _prune_points(), ids=[f"d{d}{x:+.4f}" for d, x in _prune_points()])
    def test_segment_bounds_hold_the_lattice_values(self, d, x):
        # nan where no bound is finite; such a segment is never pruned
        p = CoefficientProfile(d, _grid_alpha(x))
        view = universal._node_view(p)
        with np.errstate(all="ignore"):
            bounds = universal._segment_bounds(p, view, [expr(view) for expr in universal._FUNCTIONALS.values()])
        for name, bound, rows in zip(DELTA_NAMES, bounds, _functional_rows(p)):
            held = np.isnan(bound) | (bound >= rows.max(axis=1) * (1.0 - 1e-12))
            assert held.all(), (name, np.flatnonzero(~held)[:5])

    @pytest.mark.parametrize("d, x", [(5, -1.0), (10, 0.8), (3, 0.0)])
    def test_sub_node_step_fills_few_rows(self, d, x, monkeypatch):
        # Every row of all six tables took spectral means, and the flagged
        # end rows direct pages, before the node-level bounds pruned them.
        p = CoefficientProfile(d, _grid_alpha(x))
        filled, rounds = [], []
        means, views = Segmentation.pointwise_means, universal._point_views

        def counted_means(self, v_subs, pages_at, rows=slice(None)):
            filled.append(np.arange(self.n)[rows].size)
            return means(self, v_subs, pages_at, rows)

        def counted_views(*args):
            rounds.append(1)
            return views(*args)

        monkeypatch.setattr(Segmentation, "pointwise_means", counted_means)
        monkeypatch.setattr(universal, "_point_views", counted_views)
        for name in DELTA_NAMES:
            universal.functional_sup(p, name)
        assert len(filled) == 1 and filled[0] <= 40
        assert len(rounds) == 2


def _reference_grid(d: int):
    """The signed alphas of the benchmark's reference grid at dimension d."""
    grid = json.loads(REFERENCE.read_text())["curvature"]
    return [x for dd, x, _ in grid if dd == d]


def _lower_reciprocals_rise(d: int, x: float) -> bool:
    """Whether 1/delta_n of iterate_lower(p, 5) never falls by more than rounding."""
    inv = [1.0 / v for v in iterate_lower(CoefficientProfile(d, _grid_alpha(x)), 5).lower_sequence]
    return all(b >= a * (1.0 - 1e-14) for a, b in zip(inv, inv[1:]))


class TestLowerMonotone:
    """iterate_lower's reciprocals rise over the whole reference grid."""

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 20, 63])
    def test_lower_reciprocals_rise_on_the_reference_grid(self, d):
        # Every signed alpha of the reference grid at d, the Myers edge
        # included, except the d = 20 edge below.
        xs = _reference_grid(d)
        assert HALF_PI in xs and min(xs) < -3.0
        bad = [x for x in xs if not (d == 20 and x == HALF_PI) and not _lower_reciprocals_rise(d, x)]
        assert not bad, bad

    @pytest.mark.xfail(
        strict=True,
        reason="at the d = 20 Myers edge delta_2..delta_5 read ~1e20-1e22: the first iterate has 9 "
        "negative sub-node values (min -6.2e45) because _interp_pages clips a nonnegative row to "
        "[-cap, cap]; clipping such rows at 0 removes them, but delta_2 still reads ~5e20, so a "
        "second cause remains",
    )
    def test_lower_reciprocals_rise_at_the_d20_myers_edge(self):
        assert _lower_reciprocals_rise(20, HALF_PI)


class TestVariationalRatio:
    def test_exact_eigenfunction_flat(self):
        # sin(pi r / 2) is the exact reduced eigenfunction at alpha = 0;
        # the ratio is constant pi^2/4, so inf = sup = pi^2/4.
        p = get_profile(2, Alpha.zero())
        got = variational_ratio(lambda r: np.sin(math.pi * r / 2.0), p)
        assert got == pytest.approx(PI2 / 4.0, abs=1e-8)

    def test_dual_form_agrees_for_dual_eigenfunction(self):
        p = get_profile(2, Alpha.zero())
        got = variational_ratio(
            lambda r: np.cos(math.pi * r / 2.0), p, form="dual"
        )
        # The dual denominator rides on interpolated tail tables, which add
        # a few 1e-8 of evaluation noise on top of the quadrature itself.
        assert got == pytest.approx(PI2 / 4.0, abs=5e-7)

    def test_generic_function_gives_valid_lower_bound(self):
        p = get_profile(3, Alpha.negative(1.0))
        lam = get_lambda(3, Alpha.negative(1.0)).eigenvalue
        got = variational_ratio(lambda r: np.asarray(r), p)
        assert got <= lam + 1e-9

    def test_invalid_test_function_rejected(self):
        p = get_profile(2, Alpha.zero())
        with pytest.raises(InvalidTestFunction):
            variational_ratio(lambda r: np.asarray(r) - 0.5, p)

    def test_bad_form_rejected(self):
        with pytest.raises(DomainError):
            variational_ratio(lambda r: np.asarray(r), get_profile(2, Alpha.zero()), form="x")

    @pytest.mark.parametrize(
        "form, want",
        [
            ("primal", lambda r: r * (2.0 - r) / 2.0),
            ("dual", lambda r: (1.0 - r) * (1.0 + r) / 2.0),
        ],
    )
    def test_smooth_step_of_one_at_flat(self, form, want):
        # At alpha = 0, C = 1: K 1 = int_0^r int_s^1 1 = r (2 - r) / 2 and
        # K* 1 = int_r^1 int_0^s 1 = (1 - r)(1 + r) / 2, at every node and
        # sub-node.  Factored, since 1 - r^2 loses 5e-9 relative near r = 1.
        p = get_profile(2, Alpha.zero())
        (nodes, sub), _ = universal._smooth_step(p, np.ones_like(p.seg.sub), form)
        assert nodes == pytest.approx(want(p.seg.nodes), rel=1e-13, abs=0.0)
        assert sub == pytest.approx(want(p.seg.sub), rel=1e-13, abs=0.0)

    def test_test_function_raising_off_the_lattice_loses_only_its_points(self):
        # The primal inf of exp at (3, -1) sits at r = 0.596, 8.3e-10 below
        # the lattice min.  A test function that raises at every point off
        # the lattice right of r = 0.5 leaves the solve only lattice points
        # in that bracket, so the lattice min stands.
        p = get_profile(3, Alpha.negative(1.0))
        seg = p.seg
        lattice = np.concatenate((seg.nodes, seg.sub.ravel()))

        def raising(r):
            r = np.asarray(r, dtype=float)
            if np.any((r > 0.5) & ~np.isin(r, lattice)):
                raise ValueError("off the lattice")
            return np.exp(r)

        (den_nodes, den_sub), _ = universal._smooth_step(p, np.exp(seg.sub))
        lattice_min = float(np.min(np.exp(seg.lattice) / universal._flat((den_nodes, den_sub))))
        assert variational_ratio(raising, p) == lattice_min
        assert variational_ratio(np.exp, p) < lattice_min * (1.0 - 1e-10)

    @pytest.mark.parametrize("form", ["primal", "dual"])
    def test_constant_function_ratio_is_two_at_flat(self, form):
        # 1 / K 1 falls to its inf 2 at r = 1, and 1 / K* 1 at r = 0.
        p = get_profile(2, Alpha.zero())
        got = variational_ratio(lambda r: np.ones_like(np.asarray(r, dtype=float)), p, form=form)
        assert got == pytest.approx(2.0, rel=1e-15, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at the Myers edge f = sqrt(phi) gives negative 'lower bounds': the"
            " dual form -2.44e15 at d = 3, -7.2e10 at d = 5 and -0.156 at d = 10,"
            " the primal form -5.2e17 at d = 20"
        ),
    )
    @pytest.mark.parametrize("d, form", [(3, "dual"), (20, "primal")])
    def test_sqrt_phi_ratio_positive_at_the_myers_edge(self, d, form):
        p = get_profile(d, Alpha.positive(HALF_PI))

        def f(r):
            return np.sqrt(p.phi_at(r))

        assert variational_ratio(f, p, form=form) > 0.0
