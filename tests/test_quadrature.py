"""Segmented Gauss-Legendre table machinery."""

import math

import numpy as np
import pytest

from eigenbound import quadrature
from eigenbound.quadrature import (
    INTERP,
    LEBESGUE,
    SPECTRAL,
    WH,
    XI,
    Segmentation,
    chebyshev_nodes,
    gl15,
    get_segmentation,
    integrate,
    lattice_nodes,
    needs_clip,
    page_means,
    partial_means,
)

SEG = Segmentation(256)


def _sub_values(f):
    return f(SEG.sub)


class TestAdaptiveIntegrate:
    def test_polynomial_exact(self):
        assert integrate(lambda x: 3.0 * x**2, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_oscillatory(self):
        got = integrate(lambda x: np.cos(40.0 * x), 0.0, 1.0, tol=1e-12)
        assert got == pytest.approx(math.sin(40.0) / 40.0, abs=1e-11)

    def test_gl15_degree(self):
        # 15-point Gauss is exact through degree 29.
        got = gl15(lambda x: x**29, 0.0, 1.0)
        assert got == pytest.approx(1.0 / 30.0, rel=1e-14)


class TestNodes:
    def test_chebyshev_endpoints_exact(self):
        nodes = chebyshev_nodes(128)
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0.0)

    def test_grading_clusters_at_both_ends(self):
        nodes = chebyshev_nodes(1024)
        w = np.diff(nodes)
        assert w[0] < 5e-6 and w[-1] < 5e-6
        assert w.max() > 1e-3

    def test_shared_instance_is_cached(self):
        assert get_segmentation(4096) is get_segmentation(4096)

    def test_lattice_keeps_the_end_segments_and_every_fourth_node(self):
        grid = chebyshev_nodes(4096)
        nodes = lattice_nodes(4096)
        assert np.array_equal(nodes, np.concatenate((grid[:65], grid[68:4032:4], grid[4032:])))
        seg = get_segmentation(4096)
        assert seg.n == 1120 and np.array_equal(seg.nodes, nodes)
        # the 64 end segments keep the full grid's widths, the rest span four
        w = np.diff(grid)
        assert np.array_equal(seg.width[:64], w[:64]) and np.array_equal(seg.width[-64:], w[-64:])
        assert seg.width.min() == w.min()
        assert seg.width[64:-64] == pytest.approx(grid[68:4033:4] - grid[64:4029:4], rel=1e-15)


class TestCumulative:
    def test_constant_reproduces_coordinates(self):
        ones = np.ones_like(SEG.sub)
        cum_nodes, cum_sub = SEG.cumulative_from_sub(ones)
        assert cum_nodes == pytest.approx(SEG.nodes, abs=1e-15)
        assert cum_sub == pytest.approx(SEG.sub, abs=1e-15)

    def test_polynomial_cumulative(self):
        cum_nodes, cum_sub = SEG.cumulative_from_sub(4.0 * SEG.sub**3)
        assert cum_nodes == pytest.approx(SEG.nodes**4, abs=1e-13)
        assert cum_sub == pytest.approx(SEG.sub**4, abs=1e-13)

    def test_transcendental_cumulative(self):
        cum_nodes, _ = SEG.cumulative_from_sub(np.exp(SEG.sub))
        assert cum_nodes == pytest.approx(np.expm1(SEG.nodes), rel=1e-12)


class TestReverse:
    def test_constant_tail(self):
        ones = np.ones_like(SEG.sub)
        tail_nodes, tail_sub = SEG.reverse_from_sub(ones)
        assert tail_nodes == pytest.approx(1.0 - SEG.nodes, abs=1e-13)
        assert tail_sub == pytest.approx(1.0 - SEG.sub, abs=1e-13)

    def test_outermost_tail_not_cancelled(self):
        # The last tail values are ~1e-5 for this seg count; a
        # total-minus-cumulative construction would leave only ~1e-11
        # of true signal.  Right-accumulation keeps full precision.
        tail_nodes, tail_sub = SEG.reverse_from_sub(np.ones_like(SEG.sub))
        last = tail_sub[-1, -1]
        want = 1.0 - SEG.sub[-1, -1]
        assert last == pytest.approx(want, rel=1e-10)

    def test_noise_floor_flushes_unresolvable_entries(self):
        # With a relative floor far above the actual values, entries
        # become exact zeros instead of noise.
        vals = np.full_like(SEG.sub, 1e-300)
        _, tail_sub = SEG.reverse_from_sub(vals, 10.0)
        assert np.all(tail_sub == 0.0)

    def test_zero_floor_keeps_smooth_tails(self):
        _, with_floor = SEG.reverse_from_sub(np.exp(SEG.sub), 1e-12)
        _, without = SEG.reverse_from_sub(np.exp(SEG.sub))
        # A smooth integrand is resolvable everywhere except the very
        # last slivers; the floor must not touch the bulk.
        bulk = SEG.sub < 0.99
        assert np.array_equal(with_floor[bulk], without[bulk])


class TestStackedTables:
    """Leading stack axes through the table primitive: each integrand's tables are those of a call on it alone."""

    @staticmethod
    def _stack():
        # (1 - x)^40 falls fast enough toward 1 that the tail flush fires
        x = SEG.sub
        v = np.stack([x**3, np.exp(-x), (1.0 - x) ** 40, np.cos(7.0 * x)])
        return v, np.stack([SEG.interp_means(one) for one in v])

    def test_segment_integrals(self):
        v, _ = self._stack()
        got = SEG.segment_integrals(v.reshape(2, 2, SEG.n, 15)).reshape(4, SEG.n)
        for g, one in zip(got, v):
            np.testing.assert_array_equal(g, SEG.segment_integrals(one))

    @pytest.mark.parametrize(
        "rows",
        [slice(None), np.array([0, 5, 100, SEG.n - 2, SEG.n - 1]), np.empty(0, dtype=int)],
        ids=["all", "rows", "none"],
    )
    @pytest.mark.parametrize("reverse", [False, True], ids=["cumulative", "reverse"])
    def test_builds_match_single_calls(self, rows, reverse):
        v, means = self._stack()
        means = means[:, rows]

        def build(*args, **kwargs):
            if reverse:
                return SEG.build_reverse(*args[:2], 1e-3, *args[2:], **kwargs)
            return SEG.build_cumulative(*args, **kwargs)

        nodes, sub = build(v, means, rows)
        for i, one in enumerate(v):
            one_nodes, one_sub = build(one, means[i], rows)
            np.testing.assert_array_equal(nodes[i], one_nodes)
            np.testing.assert_array_equal(sub[i], one_sub)
        # given the node tables, and the segment integrals
        segments = SEG.segment_integrals(v)
        for kwargs in ({"nodes": nodes}, {"segments": segments}, {"nodes": nodes, "segments": segments}):
            got_nodes, got_sub = build(v, means, rows, **kwargs)
            np.testing.assert_array_equal(got_nodes, nodes)
            np.testing.assert_array_equal(got_sub, sub)
        if reverse and not isinstance(rows, slice) and rows.size:
            assert np.any(sub[2, -1] == 0.0) and not np.any(sub[2, 0] == 0.0)


class TestInterpolation:
    def test_smooth_function_page_accuracy(self):
        pages = SEG.interp_sub(np.sin(3.0 * SEG.sub))
        want = np.sin(3.0 * SEG.subsub)
        assert pages == pytest.approx(want, abs=1e-12)

    def test_page_clamp_bounds_oscillation(self):
        # A row spanning many orders of magnitude drives the degree-14
        # interpolant to oscillate; the clamped pages must stay within
        # twice the row maximum.
        wild = np.geomspace(1.0, 1e30, SEG.sub.shape[1])[None, :].repeat(SEG.n, 0)
        pages = SEG._interp_pages(wild)
        assert np.all(np.abs(pages) <= 2.0 * 1e30 + 1e15)

    def test_stacked_row_sets_read_as_each_alone(self):
        # One set of barycentric weights serves every stacked row set; each
        # reads bit for bit as it would alone.
        x = np.random.default_rng(7).uniform(0.0, 1.0, 200)
        k = SEG.locate(x)
        sets = np.stack((np.sin(3.0 * SEG.sub)[k], np.exp(SEG.sub)[k] * 1e8))
        got = SEG.interpolate(x, k, sets)
        assert got.shape == (2, x.size)
        for rows, row_got in zip(sets, got):
            assert np.array_equal(SEG.interpolate(x, k, rows), row_got)

    def test_consistency_of_direct_and_interpolated_builds(self):
        v_sub = np.cos(2.0 * SEG.sub)
        direct = SEG.build_cumulative(v_sub, page_means(np.cos(2.0 * SEG.subsub)))
        interp = SEG.cumulative_from_sub(v_sub)
        assert direct[1] == pytest.approx(interp[1], abs=1e-12)


class TestSpectralMatrix:
    """The 15x15 matrix path against the clipped-page path it replaces."""

    @staticmethod
    def _clipped_page_means(v_sub):
        return page_means(SEG._interp_pages(v_sub))

    @pytest.mark.parametrize(
        "f",
        [lambda x: np.sin(3.0 * x), np.exp, lambda x: np.cos(2.0 * x), lambda x: 1.0 / (1.0 + x)],
        ids=["sin", "exp", "cos", "rational"],
    )
    def test_matches_clipped_pages_on_smooth_rows(self, f):
        v_sub = f(SEG.sub)
        got = SEG.interp_means(v_sub)
        want = self._clipped_page_means(v_sub)
        scale = np.max(np.abs(v_sub), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    def test_flagged_rows_take_the_clipped_path(self):
        mixed = np.exp(SEG.sub)
        mixed[3] = np.geomspace(1.0, 1e30, SEG.sub.shape[1])
        mixed[7, 4] = np.nan
        mixed[9, 2] = np.inf
        bad = needs_clip(mixed)
        assert np.flatnonzero(bad).tolist() == [3, 7, 9]
        with np.errstate(invalid="ignore"):
            got = SEG.interp_means(mixed)
            want = self._clipped_page_means(mixed)
        np.testing.assert_array_equal(got[bad], want[bad])
        assert np.isnan(got[7]).all()
        scale = np.max(np.abs(mixed[~bad]), axis=1, keepdims=True)
        assert np.all(np.abs(got[~bad] - want[~bad]) <= 1e-14 * scale)

    def test_guard_is_sound_on_the_worst_row(self):
        # The row that attains the Lebesgue constant, offset so that it
        # just passes the guard: its interpolant reaches the cap.
        k = int(np.argmax(np.sum(np.abs(INTERP), axis=1)))
        row = (1.0 + np.sign(INTERP[k]) * (1.0 - 1e-9) / (LEBESGUE - 2.0))[None, :]
        assert not needs_clip(row)[0]
        reach = np.max(np.abs(SEG.interp_sub(row)))
        cap = 2.0 * np.max(np.abs(row))
        assert cap * (1.0 - 1e-8) < reach <= cap

    def test_guard_vouches_for_the_clip(self):
        # Steep exponentials, sign changes and constants: every row the
        # guard lets through interpolates inside the clip's cap.
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coef = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

        @hyp.settings(max_examples=400, deadline=None)
        @hyp.given(st.floats(-200.0, 200.0), coef, coef, coef)
        def check(rate, a, b, c):
            with np.errstate(over="ignore"):
                row = (a * np.exp(rate * XI) + b * XI + c)[None, :]
            hyp.assume(np.all(np.isfinite(row)))
            if not needs_clip(row)[0]:
                assert np.max(np.abs(SEG.interp_sub(row))) <= 2.0 * np.max(np.abs(row))

        check()


class TestEvaluators:
    def test_cum_eval_matches_direct_quadrature(self):
        cum_nodes, _ = SEG.cumulative_from_sub(np.exp(SEG.sub))
        xs = np.array([0.1, 0.37, 0.777, 0.993])
        got = SEG.cum_eval(cum_nodes, lambda t: np.exp(t), xs)
        assert got == pytest.approx(np.expm1(xs), rel=1e-12)

    def test_tail_eval_matches_direct_quadrature(self):
        tail_nodes, _ = SEG.reverse_from_sub(np.exp(SEG.sub))
        xs = np.array([0.2, 0.5, 0.9])
        got = SEG.tail_eval(tail_nodes, lambda t: np.exp(t), xs)
        assert got == pytest.approx(math.e - np.exp(xs), rel=1e-12)

    def test_locate_brackets_coordinates(self):
        xs = np.array([0.0, 1e-9, 0.5, 1.0 - 1e-12, 1.0])
        idx = SEG.locate(xs)
        assert np.all(SEG.nodes[idx] <= xs + 1e-15)
        assert np.all(xs <= SEG.nodes[idx + 1] + 1e-15)


def _antiderivative(tau):
    """W(tau): the integrals over [0, tau] of the degree-14 Lagrange basis."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return tau[:, None] * partial_means(tau)


class TestPartialMeans:
    """W(tau) = tau * partial_means(tau), the in-segment interpolant's integral."""

    def test_sub_nodes_reproduce_the_spectral_matrix(self):
        got = _antiderivative(XI) / XI[:, None]
        assert np.max(np.abs(got - SPECTRAL.T)) <= 1e-15

    def test_segment_ends(self):
        assert np.max(np.abs(_antiderivative(1.0)[0] - WH)) <= 1e-15
        assert np.max(np.abs(_antiderivative(0.0)[0])) <= 1e-15

    def test_matches_gauss_legendre_of_the_basis(self):
        tau = np.random.default_rng(5).uniform(0.0, 1.0, 200)
        want = np.array([t * (WH @ quadrature._lagrange_matrix(t * XI)) for t in tau])
        assert np.max(np.abs(_antiderivative(tau) - want)) <= 1e-15

    def test_interpolation_point_does_not_divide_by_zero(self):
        # The barycentric formula divides by tau - x_i; on x_i itself the
        # tabulated row stands in.
        tau = np.array([quadrature._CHEB[5], 0.3, quadrature._CHEB[11]])
        got = _antiderivative(tau)
        want = np.array([t * (WH @ quadrature._lagrange_matrix(t * XI)) for t in tau])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_partial_weights_split_the_segment(self):
        # head integrates [node_k, x] and tail [x, node_k+1]; the mirrored
        # tail equals w * (WH - W(tau)) and the two add up to the segment.
        xs = np.random.default_rng(6).uniform(0.0, 1.0, 300)
        k, head, tail = SEG.partial_weights(xs)
        w = SEG.width[k][:, None]
        tau = (xs - SEG.nodes[k]) / SEG.width[k]
        assert np.max(np.abs(head - w * _antiderivative(tau)) / w) <= 1e-15
        assert np.max(np.abs(tail - w * (WH - _antiderivative(tau))) / w) <= 1e-15
        assert np.max(np.abs(head + tail - w * WH) / w) <= 1e-15

    def test_continues_the_tables_between_sub_nodes(self):
        v_sub = np.exp(SEG.sub)
        cum_nodes, cum_sub = SEG.cumulative_from_sub(v_sub)
        tail_nodes, tail_sub = SEG.reverse_from_sub(v_sub)
        k, head, tail = SEG.partial_weights(SEG.sub.ravel())
        rows = v_sub[k]
        got = cum_nodes[k] + np.einsum("ij,ij->i", head, rows)
        assert got == pytest.approx(cum_sub.ravel(), rel=1e-15, abs=0.0)
        # The tail table's seg - within loses up to 1 / (1 - XI[14]) ~ 170
        # ulps at a segment's last sub-node; the mirrored weights do not.
        got = tail_nodes[k + 1] + np.einsum("ij,ij->i", tail, rows)
        assert got == pytest.approx(tail_sub.ravel(), rel=1e-13, abs=0.0)

    def test_short_partial_segments_keep_relative_accuracy(self):
        v_sub = np.exp(SEG.sub)
        cum_nodes, _ = SEG.cumulative_from_sub(v_sub)
        tail_nodes, _ = SEG.reverse_from_sub(v_sub)
        xs = np.array([1e-12, 1e-9, 1e-6, 0.1, 0.37, 0.777, 0.993])
        k, head, _ = SEG.partial_weights(xs)
        got = cum_nodes[k] + np.einsum("ij,ij->i", head, v_sub[k])
        assert got == pytest.approx(np.expm1(xs), rel=1e-14, abs=0.0)
        xs = np.array([0.2, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
        k, _, tail = SEG.partial_weights(xs)
        got = tail_nodes[k + 1] + np.einsum("ij,ij->i", tail, v_sub[k])
        assert got == pytest.approx(-math.e * np.expm1(xs - 1.0), rel=1e-14, abs=0.0)
