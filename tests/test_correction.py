"""Tests for the curvature multiplier, comparison kernel, and combined bounds.

The multiplier M and the comparison kernel are defined by different
integrals (a direct weighted average vs. the iterate-ratio kernel of the
coefficient family), so their agreement at x = 0 is a real cross-check,
not a tautology.  Frozen values below were generated from the quadrature
routines at tol=1e-12 and round-trip well under the stated tolerances.
"""

import math

import numpy as np
import pytest

from conftest import get_profile
from eigenbound import classical
from eigenbound.classical import alpha_clamp_root
from eigenbound.correction import (
    GAMMA_ZERO,
    KernelMaps,
    clamped_correction,
    combined_lower_bound,
    comparison_kernel,
    convex_mean,
    curvature_kernel,
    curvature_multiplier,
    middle_term,
)
from eigenbound.errors import DomainError, NonPositiveCoefficient
from eigenbound.geometry import (
    HALF_PI,
    Alpha,
    CoefficientProfile,
    GeometryTriple,
    make_alpha,
)
from eigenbound.report import build_report

PI2 = math.pi**2


class TestCurvatureMultiplier:
    def test_flat_value_is_one(self):
        assert curvature_multiplier(Alpha.zero()) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize(
        "mag, expected",
        [
            (0.5, 0.972662033389326),
            (1.0, 0.9038130157367789),
            (2.0, 0.7334752142895636),
            (4.0, 0.4875143309175938),
        ],
    )
    def test_negative_branch_frozen(self, mag, expected):
        assert curvature_multiplier(Alpha.negative(mag)) == pytest.approx(
            expected, rel=1e-11
        )

    @pytest.mark.parametrize(
        "mag, expected",
        [
            (0.5, 1.0302218349435344),
            (1.0, 1.1454178381904905),
            (1.4, 1.4101344357532166),
            (HALF_PI, 1.831931188354437),
        ],
    )
    def test_positive_branch_frozen(self, mag, expected):
        # The last case sits on the Myers edge itself, where the endpoint
        # singularity of sec^2 is removable.
        assert curvature_multiplier(Alpha.positive(mag)) == pytest.approx(
            expected, rel=1e-11
        )

    def test_strictly_monotone_in_signed_curvature(self):
        neg = [
            curvature_multiplier(Alpha.negative(0.2 * i)) for i in range(1, 21)
        ]
        pos = [
            curvature_multiplier(Alpha.positive(0.07 * i)) for i in range(1, 21)
        ]
        assert all(b < a for a, b in zip(neg, neg[1:]))
        assert all(v < 1.0 for v in neg)
        assert all(b > a for a, b in zip(pos, pos[1:]))
        assert all(v > 1.0 for v in pos)


class TestComparisonKernel:
    def test_constant_coefficient_is_exact(self):
        # For constant a the kernel collapses to (2/pi)^2 a identically.
        a0 = 3.7
        const = lambda y: np.full_like(np.asarray(y, dtype=float), a0)
        zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
        for x in (0.0, 0.25, 0.8, 1.0):
            got = comparison_kernel(const, zero, zero, x)
            assert got == pytest.approx(4.0 * a0 / PI2, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.7])
    def test_matches_closed_form_kernel(self, x):
        # Generic-coefficient route vs. the branch-specialized closed form.
        alpha = Alpha.negative(1.0)
        maps = KernelMaps(alpha)
        generic = comparison_kernel(maps.a, maps.da, maps.dda, x)
        special = curvature_kernel(alpha, x)
        assert generic == pytest.approx(special, rel=1e-12)

    def test_rejects_sign_changing_coefficient(self):
        a = lambda y: 1.0 - 2.0 * np.asarray(y, dtype=float) ** 2
        da = lambda y: -4.0 * np.asarray(y, dtype=float)
        dda = lambda y: np.full_like(np.asarray(y, dtype=float), -4.0)
        with pytest.raises(NonPositiveCoefficient):
            comparison_kernel(a, da, dda, 0.5)

    def test_rejects_argument_outside_unit_interval(self):
        maps = KernelMaps(Alpha.negative(1.0))
        for x in (-0.1, 1.1):
            with pytest.raises(DomainError):
                comparison_kernel(maps.a, maps.da, maps.dda, x)


class TestCurvatureKernel:
    @pytest.mark.parametrize(
        "alpha", [Alpha.negative(1.0), Alpha.positive(1.0)], ids=["neg", "pos"]
    )
    def test_value_at_origin_reproduces_multiplier(self, alpha):
        # Independent-integral identity: (pi^2/4) h(0) = M.
        lhs = curvature_kernel(alpha, 0.0) * PI2 / 4.0
        assert lhs == pytest.approx(curvature_multiplier(alpha), abs=1e-12)

    def test_flat_kernel_is_constant(self):
        for x in (0.0, 0.5, 1.0):
            assert curvature_kernel(Alpha.zero(), x) == 4.0 / PI2

    @pytest.mark.parametrize(
        "alpha", [Alpha.negative(1.0), Alpha.positive(1.2)], ids=["neg", "pos"]
    )
    def test_endpoint_extrapolation_continuous(self, alpha):
        # x = 1 is evaluated by Richardson extrapolation (sec(pi x/2)
        # amplifies noise there); it must join the direct values smoothly.
        at_end = curvature_kernel(alpha, 1.0)
        near = curvature_kernel(alpha, 1.0 - 2.0**-14)
        assert at_end == pytest.approx(near, rel=1e-6)

    def test_rejects_half_pi_and_bad_arguments(self):
        with pytest.raises(DomainError):
            curvature_kernel(Alpha.positive(HALF_PI), 0.0)
        with pytest.raises(DomainError):
            curvature_kernel(Alpha.negative(1.0), 1.5)


class TestMiddleTerm:
    def test_flat_is_quarter_pi_squared(self):
        value, corr = middle_term(4, Alpha.zero())
        assert value == pytest.approx(PI2 / 4.0, abs=1e-12)
        assert corr.multiplier == pytest.approx(1.0, abs=1e-10)
        assert not corr.clamped

    def test_vertex_formula_matches_direct_sup(self):
        # sup_s s[(1-s) pi^2 + kappa] recomputed by dense scan.
        for alpha in (Alpha.negative(1.5), Alpha.positive(0.8)):
            value, corr = middle_term(3, alpha)
            kappa = 2 * corr.alpha_used.signed_x * corr.multiplier
            s = np.linspace(0.0, 1.0, 200001)
            brute = float(np.max(s * ((1.0 - s) * PI2 + kappa)))
            assert value == pytest.approx(brute, rel=1e-8)

    def test_deeply_negative_curvature_floors_at_zero(self):
        value, _ = middle_term(30, Alpha.negative(2.0))
        assert value == 0.0

    def test_positive_branch_clamps_at_positivity_root(self):
        root = alpha_clamp_root(2)
        past, corr_past = middle_term(2, Alpha.positive(1.2))
        at_root, corr_root = middle_term(2, Alpha.positive(root))
        assert corr_past.clamped
        assert not corr_root.clamped
        assert corr_past.alpha_used.magnitude == root
        # Freezing alpha at the root keeps the term continuous there.
        assert past == at_root

    def test_clamp_root_is_scanned_once_per_dimension(self, monkeypatch):
        # alpha = 1.2 at d = 4 lies past the root, so the clamp fires.
        g = GeometryTriple(4, 2.0, 3.0 * 1.2**2)
        first = build_report(g)
        scans = []
        gap = classical._clamp_gap

        def counted(a, s):
            if np.size(a) > 1:
                scans.append(a)
            return gap(a, s)

        monkeypatch.setattr(classical, "_clamp_gap", counted)
        second = build_report(g)
        assert scans == []
        assert alpha_clamp_root(4) == alpha_clamp_root.__wrapped__(4)
        assert len(scans) == 1
        assert second.combined == first.combined

    def test_clamp_only_on_positive_branch(self):
        corr = clamped_correction(2, Alpha.negative(3.0))
        assert not corr.clamped
        assert corr.alpha_used.magnitude == 3.0

    def test_negative_correction_improves_on_uncorrected(self):
        # M < 1 shrinks |kappa| for K < 0, lifting the parabola sup.
        d, alpha = 3, Alpha.negative(1.0)
        value, corr = middle_term(d, alpha)
        raw_kappa = (d - 1) * alpha.signed_x
        uncorrected = (HALF_PI + raw_kappa / (2.0 * math.pi)) ** 2
        assert value > uncorrected


class TestCurvatureCorrectedBound:
    """The corrected parabola sup on the lambda_1 scale, the combined bound's middle term."""

    def test_scales_middle_term_by_four_over_diameter_squared(self):
        g = GeometryTriple(3, 2.0, -1.0)
        combined = combined_lower_bound(g)
        mid, corr_mid = middle_term(3, make_alpha(g))
        assert combined.terms["middle"] == (4.0 / g.D**2) * mid
        assert combined.correction.multiplier == corr_mid.multiplier

    def test_flat_unit_diameter(self):
        value = combined_lower_bound(GeometryTriple(5, 1.0, 0.0)).terms["middle"]
        assert value == pytest.approx(PI2, rel=1e-12)


class TestCombinedBound:
    def test_flat_winner_is_middle_term(self):
        g = GeometryTriple(2, 2.0, 0.0)
        combined = combined_lower_bound(g)
        assert combined.winner == "middle"
        assert combined.value == pytest.approx(PI2 / 4.0, rel=1e-12)
        assert combined.terms["delta1_star"] == pytest.approx(
            4.0 * 5.0 ** (-1.0 / 3.0), rel=1e-8
        )
        assert combined.terms["sphere"] == 0.0

    def test_value_is_max_of_terms_and_winner_consistent(self):
        for g in (
            GeometryTriple(2, 2.0, 0.0),
            GeometryTriple(2, 2.0, 1.0),
            GeometryTriple(3, 2.0, -1.0),
            GeometryTriple(5, 1.0, 4.0),
        ):
            combined = combined_lower_bound(g)
            assert combined.value == max(combined.terms.values())
            assert combined.terms[combined.winner] == combined.value

    def test_sphere_term_only_for_positive_curvature(self):
        pos = combined_lower_bound(GeometryTriple(2, 2.0, 1.0))
        neg = combined_lower_bound(GeometryTriple(2, 2.0, -1.0))
        assert pos.terms["sphere"] > 0.0
        assert neg.terms["sphere"] == 0.0

    def test_dimension_free_reported_only_in_window(self):
        inside = combined_lower_bound(GeometryTriple(3, 2.0, -1.0))
        outside = combined_lower_bound(GeometryTriple(3, 2.0, -1.5))
        assert inside.dimension_free is not None
        assert outside.dimension_free is None
        # Reported, never maxed in: the certificate is the three terms.
        assert inside.value == max(inside.terms.values())

    def test_profile_argument_reuses_tables(self):
        g = GeometryTriple(3, 2.0, -1.0)
        p = get_profile(3, make_alpha(g))
        with_profile = combined_lower_bound(g, profile=p)
        without = combined_lower_bound(g)
        assert with_profile.value == pytest.approx(without.value, rel=1e-12)

    def test_rejects_profile_of_another_point(self):
        # A (5, alpha = -1) profile once read 1.0648 for the delta1_star
        # term at (3, 2, -1), where it is 1.9342.
        g = GeometryTriple(3, 2.0, -1.0)
        with pytest.raises(DomainError):
            combined_lower_bound(g, profile=get_profile(5, Alpha.negative(1.0)))
        with pytest.raises(DomainError):
            combined_lower_bound(g, profile=get_profile(3, Alpha.negative(1.0)))


class TestConvexMean:
    def test_gamma_zero_closed_form(self):
        expected = (PI2 / 4.0 - 4.0 * 5.0 ** (-1.0 / 3.0)) / (
            8.0 / 3.0 - 4.0 * 5.0 ** (-1.0 / 3.0)
        )
        assert GAMMA_ZERO == expected
        assert GAMMA_ZERO == pytest.approx(0.39, abs=0.005)

    def test_at_zero_anchor_hits_flat_eigenvalue(self):
        p = get_profile(2, Alpha.zero())
        mean = convex_mean(2, Alpha.zero(), profile=p)
        assert mean.anchor == "at_zero"
        assert mean.gamma == GAMMA_ZERO
        assert mean.value == pytest.approx(PI2 / 4.0, abs=1e-9)

    @pytest.mark.parametrize("d", [2, 5])
    def test_at_half_pi_anchor_hits_sphere_eigenvalue(self, d):
        edge = get_profile(d, Alpha.positive(HALF_PI))
        mean = convex_mean(
            d,
            Alpha.positive(HALF_PI),
            anchor="at_half_pi",
            profile=edge,
            edge_profile=edge,
        )
        assert mean.value == pytest.approx(d * PI2 / 4.0, rel=1e-10)
        assert 0.0 < mean.gamma < 1.0

    def test_mean_lies_between_the_dual_inverses(self):
        from eigenbound.universal import delta1_star, delta1_star_prime

        p = get_profile(3, Alpha.negative(1.5))
        mean = convex_mean(3, Alpha.negative(1.5), profile=p)
        lo = 1.0 / delta1_star(p)
        hi = 1.0 / delta1_star_prime(p)
        assert lo <= mean.value <= hi

    def test_rejects_profile_of_another_point(self):
        # A (10, alpha = +1) profile once gave a mean of 10.14 at (3, -0.5).
        with pytest.raises(DomainError):
            convex_mean(
                3, Alpha.negative(0.5), profile=get_profile(10, Alpha.positive(1.0))
            )
        with pytest.raises(DomainError):
            convex_mean(
                3,
                Alpha.negative(0.5),
                anchor="at_half_pi",
                edge_profile=get_profile(5, Alpha.positive(HALF_PI)),
            )

    def test_rejects_unknown_anchor(self):
        with pytest.raises(DomainError):
            convex_mean(2, Alpha.zero(), anchor="midpoint")
