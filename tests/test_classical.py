"""Closed-form eigenvalue estimates and their validity gating."""

import math

import pytest

from eigenbound.classical import (
    ESTIMATE_NAMES,
    ESTIMATES,
    alpha_clamp_root,
    bbg,
    beta_quadratic_bound,
    chen_wang_negative,
    chen_wang_sphere,
    chen_wang_sphere_reduced,
    csy_quadratic,
    exp_decay,
    get_estimate,
    lichnerowicz,
    linear_combo,
    sech_fixed_point,
    shi_zhang,
    zhong_yang,
)
from eigenbound.errors import DomainError, MyersViolation
from eigenbound.geometry import MYERS_SLACK, Alpha, GeometryTriple, HALF_PI
from eigenbound.report import build_report

PI2 = math.pi**2


class TestSphereFamily:
    def test_lichnerowicz_sphere_sharp(self):
        # Unit 2-sphere: d=2, D=pi, K=1 gives exactly lambda_1 = 2.
        g = GeometryTriple(2, math.pi, 1.0)
        assert lichnerowicz(g) == pytest.approx(2.0, rel=1e-15)

    def test_lichnerowicz_flat_is_trivial(self):
        assert lichnerowicz(GeometryTriple(3, 1.0, 0.0)) == 0.0

    def test_bbg_refines_lichnerowicz(self):
        # The volume-comparison factor is >= 1, with equality exactly at
        # the Myers edge.
        g = GeometryTriple(3, 1.0, 2.0)
        assert bbg(g) >= lichnerowicz(g) - 1e-12
        edge = GeometryTriple(3, math.pi, 2.0)
        assert bbg(edge) == pytest.approx(lichnerowicz(edge), rel=1e-9)

    def test_chen_wang_sphere_flat_limit(self):
        # K -> 0 limit of the sphere branch is 8/D^2.
        g = GeometryTriple(4, 2.0, 1e-14)
        assert chen_wang_sphere(g) == pytest.approx(2.0, rel=1e-6)

    def test_chen_wang_sphere_reduced_interpolates(self):
        # Reduced form at the Myers edge equals the sharp sphere value.
        val = chen_wang_sphere_reduced(5, Alpha.positive(HALF_PI))
        assert val == pytest.approx(5.0 * PI2 / 4.0, rel=1e-12)

    def test_zhong_yang_flat(self):
        assert zhong_yang(GeometryTriple(2, 1.0, 0.0)) == pytest.approx(
            PI2, rel=1e-15
        )


class TestNegativeFamily:
    def test_exp_decay_flat_and_decaying(self):
        assert exp_decay(GeometryTriple(2, 1.0, 0.0)) == pytest.approx(
            PI2, rel=1e-15
        )
        # |alpha| = 1 at (2, 1, -4): one e-fold of decay.
        assert exp_decay(GeometryTriple(2, 1.0, -4.0)) == pytest.approx(
            PI2 / math.e, rel=1e-14
        )

    def test_chen_wang_negative_frozen(self):
        # sqrt(pi^4 + 8) * sech(1) at d=2, D=1, |alpha|=1.
        g = GeometryTriple(2, 1.0, -4.0)
        assert chen_wang_negative(g) == pytest.approx(
            6.653503859406569, rel=1e-14
        )
        direct = math.sqrt(PI2**2 + 8.0) / math.cosh(1.0)
        assert chen_wang_negative(g) == pytest.approx(direct, rel=1e-14)

    def test_sech_fixed_point_contracting_case(self):
        # theta1 < 1: the iteration limit is exactly 0 and the bound
        # collapses to the undamped square.
        g = GeometryTriple(2, 2.0, -1.0)
        val, state = sech_fixed_point(g)
        assert state.theta == 0.0
        a = 1.0
        assert val == pytest.approx((a * math.tanh(a)) ** 2 / 4.0, rel=1e-12)

    def test_sech_fixed_point_frozen_supercritical(self):
        # theta1 = 1.9987 > 1: nontrivial interior fixed point.
        g = GeometryTriple(2, 2.0, -16.0)
        val, state = sech_fixed_point(g)
        assert state.theta1 == pytest.approx(1.998658599478134, rel=1e-14)
        assert state.theta == pytest.approx(1.913467069488056, abs=1e-12)
        assert val == pytest.approx(0.3332799712527018, rel=1e-11)
        # The limit solves theta = theta1 tanh(theta).
        assert state.theta == pytest.approx(
            state.theta1 * math.tanh(state.theta), abs=1e-12
        )

    def test_requires_negative_curvature(self):
        with pytest.raises(DomainError):
            chen_wang_negative(GeometryTriple(2, 1.0, 1.0))
        with pytest.raises(DomainError):
            sech_fixed_point(GeometryTriple(2, 1.0, 1.0))


class TestCurvatureLinearFamily:
    def test_linear_combo_flat(self):
        assert linear_combo(GeometryTriple(2, 1.0, 0.0)) == pytest.approx(
            PI2, rel=1e-15
        )

    def test_shi_zhang_flat(self):
        assert shi_zhang(GeometryTriple(2, 1.0, 0.0)) == pytest.approx(
            PI2, rel=1e-15
        )

    def test_csy_quadratic_flat(self):
        assert csy_quadratic(GeometryTriple(2, 1.0, 0.0)) == pytest.approx(
            PI2, rel=1e-15
        )

    def test_shi_zhang_dominates_linear_combo_negative(self):
        # The parabola sup includes the linear combination as one probe.
        for K in (-0.5, -2.0, -8.0):
            g = GeometryTriple(3, 1.5, K)
            assert shi_zhang(g) >= linear_combo(g) - 1e-12


class TestBetaQuadratic:
    def test_anchor_values(self):
        assert beta_quadratic_bound(0.0) == pytest.approx(PI2 / 4.0, rel=1e-15)
        assert beta_quadratic_bound(0.5) == pytest.approx(
            PI2 / 4.0 + 0.5 + (10.0 - PI2) * 0.25, rel=1e-15
        )

    def test_monotone_in_beta(self):
        vals = [beta_quadratic_bound(b) for b in (0.0, 0.1, 0.3, 0.5)]
        assert vals == sorted(vals)


class TestClampRoot:
    def test_frozen_value_and_residual(self):
        root = alpha_clamp_root(2)
        assert root == pytest.approx(0.9711683078901963, abs=1e-12)
        # Defining equation: (pi/(2sa) + sa/(2pi)) cos(a) = 1, s = sqrt(d-1).
        s = 1.0
        resid = (
            math.pi / (2.0 * s * root) + s * root / (2.0 * math.pi)
        ) * math.cos(root) - 1.0
        assert abs(resid) < 1e-10

    def test_root_window(self):
        assert 0.95 <= alpha_clamp_root(2) <= 0.99

    def test_higher_dimensions_have_smaller_roots(self):
        assert alpha_clamp_root(5) < alpha_clamp_root(3) < alpha_clamp_root(2)


class TestRegistry:
    def test_names_unique_and_resolvable(self):
        assert len(set(ESTIMATE_NAMES)) == len(ESTIMATE_NAMES)
        for name in ESTIMATE_NAMES:
            assert get_estimate(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(DomainError):
            get_estimate("nope")

    def test_validity_gating_negative_curvature(self):
        g = GeometryTriple(5, 2.0, -4.0)
        valid = {e.name for e in ESTIMATES if e.valid_for(g)}
        assert "lichnerowicz" not in valid
        assert "bbg" not in valid
        assert "zhong_yang" not in valid
        assert {"exp_decay", "chen_wang_negative", "sech_fixed_point"} <= valid

    def test_csy_window_gating(self):
        inside = GeometryTriple(3, 1.0, -4.0)
        outside = GeometryTriple(3, 1.0, -4.1)
        csy = get_estimate("csy_quadratic")
        assert csy.valid_for(inside)
        assert not csy.valid_for(outside)

    def test_every_accepted_triple_gets_a_report(self):
        # The example sits inside the Myers slack (|alpha| = pi/2 + 9e-13),
        # where shi_zhang once restated the cap more tightly and refused it.
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def triples(draw):
            d = draw(st.integers(2, 63))
            D = math.exp(draw(st.floats(math.log(0.01), math.log(100.0))))
            sign, cap = draw(st.sampled_from([(1.0, HALF_PI + MYERS_SLACK), (-1.0, 5.0)]))
            a = draw(st.floats(0.0, cap))
            return d, D, sign * 4.0 * (d - 1) * a * a / D**2

        @hyp.settings(max_examples=60, deadline=None)
        @hyp.example((3, 2.0, 4.934802200550333))
        @hyp.given(triples())
        def check(triple):
            try:
                g = GeometryTriple(*triple)
            except MyersViolation:
                hyp.reject()
            _, best = build_report(g).best_lower
            assert 0.0 < best < math.inf

        check()
