"""Geometry reduction: alpha encoding, triples, coefficient profiles."""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import get_profile
from eigenbound.errors import DomainError, MyersViolation
from eigenbound.geometry import (
    Alpha,
    CoefficientProfile,
    CurvatureSign,
    GeometryTriple,
    HALF_PI,
    alpha_to_curvature,
    make_alpha,
    resolve_profile,
)
from eigenbound.oracle import solve_lambda_bar


class TestAlpha:
    def test_constructors_and_signs(self):
        assert Alpha.zero().sign is CurvatureSign.ZERO
        assert Alpha.negative(2.0).sign is CurvatureSign.NEGATIVE_K
        assert Alpha.positive(1.0).sign is CurvatureSign.POSITIVE_K

    def test_myers_cap_clamps_within_slack(self):
        a = Alpha.positive(HALF_PI + 1e-13)
        assert a.magnitude == HALF_PI
        assert a.at_half_pi

    def test_myers_cap_raises_beyond_slack(self):
        with pytest.raises(MyersViolation):
            Alpha.positive(HALF_PI + 1e-9)

    def test_invalid_magnitudes(self):
        with pytest.raises(DomainError):
            Alpha.negative(-1.0)
        with pytest.raises(DomainError):
            Alpha(CurvatureSign.ZERO, 0.5)
        with pytest.raises(DomainError):
            Alpha(CurvatureSign.NEGATIVE_K, 0.0)

    def test_signed_x_roundtrip(self):
        for a in (Alpha.zero(), Alpha.negative(1.7), Alpha.positive(0.9)):
            back = Alpha.from_signed_x(a.signed_x)
            assert back.sign is a.sign
            assert back.magnitude == pytest.approx(a.magnitude, rel=1e-15)


class TestGeometryTriple:
    def test_validation(self):
        with pytest.raises(DomainError):
            GeometryTriple(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            GeometryTriple(2, -1.0, 0.0)
        with pytest.raises(DomainError):
            GeometryTriple(2, 1.0, math.inf)

    def test_myers_rejects_impossible_triple(self):
        with pytest.raises(MyersViolation):
            GeometryTriple(2, 7.0, 1.0)

    def test_alpha_curvature_roundtrip(self):
        g = GeometryTriple(5, 2.0, -4.0)
        a = make_alpha(g)
        assert a.sign is CurvatureSign.NEGATIVE_K
        assert a.magnitude == pytest.approx(1.0, rel=1e-15)
        assert alpha_to_curvature(a, 5, 2.0) == pytest.approx(-4.0, rel=1e-15)

    def test_dimension_one_and_flat_reduce_to_zero(self):
        assert make_alpha(GeometryTriple(1, 1.0, 3.0)).sign is CurvatureSign.ZERO
        assert make_alpha(GeometryTriple(4, 1.0, 0.0)).sign is CurvatureSign.ZERO


def _mp_coeff(d, alpha, s):
    if alpha.sign is CurvatureSign.NEGATIVE_K:
        return mp.cosh(alpha.magnitude * s) ** (d - 1)
    if alpha.sign is CurvatureSign.POSITIVE_K:
        return mp.cos(alpha.magnitude * s) ** (d - 1)
    return mp.mpf(1)


def _mp_phi(d, alpha, r):
    return mp.quad(lambda s: 1.0 / _mp_coeff(d, alpha, s), [0, r])


def _mp_psi(d, alpha, r):
    return mp.quad(lambda s: _mp_coeff(d, alpha, s), [r, 1])


class TestCoefficientProfile:
    def test_flat_profile_is_identity(self):
        p = get_profile(3, Alpha.zero())
        xs = np.array([0.0, 0.25, 0.5, 0.99])
        assert p.coeff(xs) == pytest.approx(np.ones(4), abs=0.0)
        assert p.phi_at(xs) == pytest.approx(xs, abs=1e-15)
        # psi accumulates ~6e4 panel sums right to left; 1e-13 is the
        # honest rounding width of that summation.
        assert p.psi_at(xs) == pytest.approx(1.0 - xs, abs=1e-13)

    @pytest.mark.parametrize(
        "d,alpha",
        [
            (2, Alpha.negative(1.5)),
            (5, Alpha.negative(0.7)),
            (3, Alpha.positive(1.2)),
            (6, Alpha.positive(1.5)),
        ],
    )
    def test_phi_psi_match_high_precision_quadrature(self, d, alpha):
        p = get_profile(d, alpha)
        mp.mp.dps = 30
        rs = np.array([0.2, 0.55, 0.9])
        phi, psi = p.phi_at(rs), p.psi_at(rs)
        for i, r in enumerate(rs):
            assert phi[i] == pytest.approx(float(_mp_phi(d, alpha, r)), rel=1e-11)
            assert psi[i] == pytest.approx(float(_mp_psi(d, alpha, r)), rel=1e-11)

    def test_coeff_inverse_identity(self):
        p = get_profile(4, Alpha.negative(2.0))
        xs = np.linspace(0.0, 1.0, 101)
        assert p.coeff(xs) * p.coeff_inv(xs) == pytest.approx(np.ones(101), rel=1e-14)

    def test_edge_coefficient_relative_accuracy(self):
        # Near the vanishing point the complement form keeps full relative
        # accuracy where the naive power of cos has none.
        p = get_profile(6, Alpha.positive(HALF_PI))
        mp.mp.dps = 40
        for x in (0.999, 0.9999, 1.0 - 1e-7):
            want = float(mp.cos(mp.pi / 2 * x) ** 5)
            assert p.coeff(np.array([x]))[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [20, 63])
    def test_tangent_form_against_mpmath_at_the_myers_edge(self, d):
        # log C from the half-angle tangent of a u / 2, u = 1 - x, at 300
        # points with u from 1e-12 to 1/2, against 50 digits at the stored x
        # and a = HALF_PI.  It comes within 1.35 (ulp(log C) + (d - 1) eps)
        # at d = 63 (0.93 at d = 20); the tolerance leaves room for a
        # tangent a few ulp off (a SIMD np.tan), so no bit is pinned.  An
        # error e in log C is a relative error e in C, which underflows past
        # u ~ 1e-5 at d = 63.
        p = get_profile(d, Alpha.positive(HALF_PI))
        mp.mp.dps = 50
        xs = 1.0 - np.geomspace(1e-12, 0.5, 300)
        want = np.array([float((d - 1) * mp.log(mp.cos(mp.mpf(HALF_PI) * mp.mpf(x)))) for x in xs])
        tol = 8.0 * (np.spacing(np.abs(want)) + (d - 1) * np.finfo(float).eps)
        assert np.all(np.abs(p._log_coeff(xs) - want) <= tol)

    @pytest.mark.parametrize(
        "alpha",
        [Alpha.zero(), Alpha.negative(1.5), Alpha.positive(1.2)],
        ids=["flat", "neg", "pos"],
    )
    def test_coefficient_accepts_zero_dimensional_input(self, alpha):
        p = get_profile(4, alpha)
        for x in (np.float64(0.3), np.array(0.3), 0.3):
            assert float(p.coeff(x)) == p.coeff(np.array([0.3]))[0]
            assert float(p.coeff_inv(x)) == p.coeff_inv(np.array([0.3]))[0]

    def test_edge_psi_tail_clean(self):
        # At the Myers edge psi(r) ~ (1 - r)^d near 1; the tail tables must
        # resolve it or flush to exact zero, never leave noise.
        p = get_profile(6, Alpha.positive(HALF_PI))
        mp.mp.dps = 40
        a = mp.pi / 2
        rs = np.array([0.9, 0.99])
        for r, got in zip(rs, p.psi_at(rs)):
            want = float(mp.quad(lambda s: mp.cos(a * s) ** 5, [r, 1]))
            assert got == pytest.approx(want, rel=1e-9)

    def test_tail_floor_scales_with_dimension(self):
        shallow = get_profile(2, Alpha.positive(HALF_PI))
        steep = get_profile(12, Alpha.positive(HALF_PI))
        assert steep.tail_floor > shallow.tail_floor

    def test_profile_rejects_mismatched_alpha_type(self):
        with pytest.raises(DomainError):
            CoefficientProfile(0, Alpha.zero())

    @pytest.mark.parametrize("d, alpha", [(True, Alpha.zero()), (1, Alpha.negative(1.0))])
    def test_profile_takes_the_oracles_dimension_rule(self, d, alpha):
        # A bool is no dimension, and d = 1 admits only alpha = 0.
        with pytest.raises(DomainError):
            CoefficientProfile(d, alpha)
        with pytest.raises(DomainError):
            solve_lambda_bar(d, alpha)


class TestPagedRows:
    """phi and psi in the rows the profile pages itself, where the tables
    are not the in-segment interpolant's integral: the integral tables'
    direct pages take `phi_at`/`psi_at` panels, and off-lattice reads nan."""

    @pytest.mark.parametrize("d", [3, 5, 20])
    def test_reads_take_the_panels(self, d):
        # Sub-sub points of every paged row take the panels bit for bit;
        # sub-node and sub-sub points read through `primitives_at` are nan.
        p = get_profile(d, Alpha.positive(HALF_PI))
        rows = p.paged
        y = p.seg.subsub[rows]
        want = np.stack((p.phi_at(y), p.psi_at(y)))
        np.testing.assert_array_equal(p.subsub_primitives(rows), want)
        assert np.isnan(np.stack(p.primitives_at(y))).all()
        x = np.concatenate((p.seg.sub[rows].ravel(), p.seg.nodes[rows]))
        assert np.isnan(np.stack(p.primitives_at(x))).all()
        # a point of an unpaged row in the same call reads the interpolant
        k = rows[0] - 1
        assert k not in rows
        phi, psi = p.primitives_at(np.append(x, p.seg.sub[k, 7]))
        assert phi[-1] == pytest.approx(p.phi_sub[k, 7], rel=1e-13)
        assert psi[-1] == pytest.approx(p.psi_sub[k, 7], rel=1e-13)

    def test_panels_against_mpmath_at_the_myers_edge(self):
        # Four sub-sub points a row, at both ends of each row and between,
        # on the paged rows before the last four at d = 5.  The panels
        # inherit the node tables' error: 8.0e-12 for phi and 2.4e-11 for
        # psi.
        d, alpha = 5, Alpha.positive(HALF_PI)
        p = get_profile(d, alpha)
        rows = p.paged[:-4]
        assert rows.size == 16 and p.paged[-1] == p.seg.n - 1
        cols = np.linspace(0, 224, 4).astype(int)
        phi, psi = (v.reshape(rows.size, -1)[:, cols] for v in p.subsub_primitives(rows))
        y = p.seg.subsub[rows].reshape(rows.size, -1)[:, cols]
        mp.mp.dps = 30
        want_phi = np.vectorize(lambda r: float(_mp_phi(d, alpha, mp.mpf(r))))(y)
        want_psi = np.vectorize(lambda r: float(_mp_psi(d, alpha, mp.mpf(r))))(y)
        assert np.max(np.abs(phi / want_phi - 1.0)) <= 1.6e-11
        assert np.max(np.abs(psi / want_psi - 1.0)) <= 4.8e-11


class TestResolveProfile:
    def test_builds_or_passes_through(self):
        p = get_profile(3, Alpha.negative(1.0))
        assert resolve_profile(3, Alpha.negative(1.0), p) is p
        fresh = resolve_profile(2, Alpha.zero(), None)
        assert (fresh.d, fresh.alpha) == (2, Alpha.zero())

    def test_accepts_alpha_recovered_through_a_triple(self):
        # alpha -> K -> alpha moves the magnitude by rounding only.
        alpha = Alpha.negative(0.7)
        p = get_profile(5, alpha)
        for D in (0.3, 2.0, 7.1):
            back = make_alpha(GeometryTriple(5, D, alpha_to_curvature(alpha, 5, D)))
            assert resolve_profile(5, back, p) is p

    @pytest.mark.parametrize(
        "d, alpha",
        [(5, Alpha.negative(1.0)), (3, Alpha.positive(1.0)), (3, Alpha.negative(1.001))],
        ids=["dimension", "sign", "magnitude"],
    )
    def test_rejects_another_point(self, d, alpha):
        with pytest.raises(DomainError):
            resolve_profile(d, alpha, get_profile(3, Alpha.negative(1.0)))
