"""Tests for the shooting solver for the reduced eigenvalue problems.

The solver is the independent referee for every bound in the package, so
it gets referee treatment itself: frozen regression values at 1e-9, well
above the 1e-11 relative width of the solver's final lambda bracket, exact
analytic anchors where the problem is solvable in closed form, a duality
cross-check (primal and adjoint families must share one eigenvalue), a
fully external reimplementation of the shooting loop on scipy's DOP853,
agreement with the independent table perfbench/reference.json, scipy
references for the eigenvalue and the dual functionals at the points where
the acceptance tier's criterion 9 fails, and bounds on the work a solve
takes.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import FULL, get_lambda, get_profile, requires_full
from eigenbound import kernels, oracle
from eigenbound.correction import convex_mean
from eigenbound.errors import (
    DegenerateDerivative,
    DomainError,
    InvalidTestFunction,
    StiffIntegration,
)
from eigenbound.geometry import HALF_PI, Alpha, CoefficientProfile, CurvatureSign
from eigenbound.oracle import (
    DIRICHLET,
    NEUMANN,
    EigenPath,
    EigenProblem,
    beta_eigenvalue,
    beta_problem,
    derivative_identity_residual,
    dual_problem,
    duality_gap,
    principal_eigenvalue,
    reduced_problem,
    solve_lambda_bar,
    variational_consistency,
)
from eigenbound.quadrature import Segmentation
from eigenbound.universal import delta1_star, delta1_star_prime

PI2 = math.pi**2


class TestFrozenEigenvalues:
    # The solver lands within ~5e-11 relative of the independent reference
    # table everywhere (TestReferenceAgreement), so the regression
    # tolerance is 1e-9.
    @pytest.mark.parametrize(
        "d, alpha, expected",
        [
            (2, Alpha.zero(), 2.46740110027119),
            (3, Alpha.negative(1.5), 1.096922393533319),
            (4, Alpha.positive(1.0), 4.561408332304504),
            (2, Alpha.positive(HALF_PI), 4.934802200443577),
            (5, Alpha.positive(1.2), 7.282230106242057),
        ],
        ids=["flat", "d3-neg", "d4-pos", "d2-edge", "d5-pos"],
    )
    def test_frozen_values(self, d, alpha, expected):
        assert get_lambda(d, alpha).eigenvalue == pytest.approx(
            expected, abs=1e-9
        )

    def test_flat_matches_quarter_pi_squared(self):
        assert get_lambda(2, Alpha.zero()).eigenvalue == pytest.approx(
            PI2 / 4.0, abs=1e-9
        )

    def test_myers_edge_matches_sphere_value(self):
        # At |alpha| = pi/2 the model is the round sphere: lambda = d pi^2/4
        # on the reduced scale, solved on the whole interval.
        assert get_lambda(2, Alpha.positive(HALF_PI)).eigenvalue == pytest.approx(
            2.0 * PI2 / 4.0, abs=5e-9
        )

    def test_strong_negative_drift_collapses_eigenvalue(self):
        # d=12, alpha=-3: the spectral gap closes to ~2.4e-9 but stays
        # strictly positive.  The value is perfbench/reference.py's
        # independent lambda_bar(12, -3.0).
        lam = get_lambda(12, Alpha.negative(3.0)).eigenvalue
        assert 0.0 < lam < 1e-8
        assert lam == pytest.approx(2.363546693391308e-09, rel=1e-9)

    @requires_full
    def test_high_dimensional_edge(self):
        lam = get_lambda(63, Alpha.positive(HALF_PI)).eigenvalue
        assert lam == pytest.approx(155.44626931534356, rel=1e-9)
        assert lam == pytest.approx(63.0 * PI2 / 4.0, rel=1e-6)


class TestBetaAnchors:
    def test_beta_zero_is_flat_problem(self):
        assert beta_eigenvalue(0.0).eigenvalue == pytest.approx(
            PI2 / 4.0, abs=1e-8
        )

    def test_beta_half_is_three(self):
        assert beta_eigenvalue(0.5).eigenvalue == pytest.approx(3.0, abs=1e-8)

    def test_beta_minus_half_is_two(self):
        assert beta_eigenvalue(-0.5).eigenvalue == pytest.approx(2.0, abs=1e-8)

    def test_interior_closed_form_anchor(self):
        # beta = (3 - sqrt 6)/2 solves to exactly 5(3 - sqrt 6).
        beta = (3.0 - math.sqrt(6.0)) / 2.0
        assert beta_eigenvalue(beta).eigenvalue == pytest.approx(
            5.0 * (3.0 - math.sqrt(6.0)), abs=2e-8
        )

    def test_eigenvalue_dominates_quadratic_model(self):
        # lambda0(beta) >= pi^2/4 + beta + (10 - pi^2) beta^2 on (0, 1/2].
        for beta in np.linspace(0.04, 0.5, 12):
            lam = beta_eigenvalue(float(beta)).eigenvalue
            model = PI2 / 4.0 + beta + (10.0 - PI2) * beta * beta
            assert lam - model >= -1e-8

    def test_monotone_in_beta(self):
        vals = [beta_eigenvalue(b).eigenvalue for b in (-0.5, 0.0, 0.25, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDuality:
    @pytest.mark.parametrize(
        "d, alpha",
        [(2, Alpha.zero()), (3, Alpha.negative(1.5)), (4, Alpha.positive(1.0))],
        ids=["flat", "neg", "pos"],
    )
    def test_primal_and_adjoint_share_eigenvalue(self, d, alpha):
        primal, adjoint, gap = duality_gap(d, alpha)
        assert gap < 1e-9
        assert primal.eigenvalue == pytest.approx(
            adjoint.eigenvalue, abs=1e-9
        )

    def test_gap_is_relative(self):
        # lambda_bar ~ 0.019 here: an absolute gap would read ~50x smaller
        # than the relative one and pass any absolute threshold too easily.
        primal, adjoint, gap = duality_gap(10, Alpha.negative(1.5))
        p, q = primal.eigenvalue, adjoint.eigenvalue
        assert gap == abs(p - q) / max(p, q)
        assert gap < 1e-7

    def test_dual_flag_solves_adjoint_family(self):
        res = solve_lambda_bar(3, Alpha.negative(1.5), dual=True)
        assert res.problem.label.startswith("dual")
        assert res.eigenvalue == pytest.approx(
            get_lambda(3, Alpha.negative(1.5)).eigenvalue, abs=1e-9
        )

    def test_adjoint_swaps_conditions_and_drift_sign(self):
        base = reduced_problem(5, Alpha.negative(2.0))
        dual = dual_problem(5, Alpha.negative(2.0))
        assert (base.bc_left, base.bc_right) == (DIRICHLET, NEUMANN)
        assert (dual.bc_left, dual.bc_right) == (NEUMANN, DIRICHLET)
        assert dual.c1 == -base.c1
        assert dual.c2 == base.c2


class TestScipyCrossCheck:
    """Re-derive two eigenvalues with none of the package's machinery.

    scipy's DOP853 integrates the same ODE, brentq bisects the same
    boundary functional; only EigenProblem.drift is shared, as the
    definition of the problem being solved.
    """

    @staticmethod
    def _external_eigenvalue(d, alpha):
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        prob = reduced_problem(d, alpha)

        def mismatch(lam):
            def rhs(r, y):
                return [y[1], -float(prob.drift(r)) * y[1] - lam * y[0]]

            sol = solve_ivp(
                rhs,
                [0.0, prob.r_end],
                [0.0, 1.0],
                method="DOP853",
                rtol=1e-11,
                atol=1e-13,
            )
            return sol.y[1, -1]

        prev_x, prev_m = 1e-6, mismatch(1e-6)
        for x in np.linspace(0.05, 60.0, 241):
            mx = mismatch(float(x))
            if prev_m > 0.0 and mx <= 0.0:
                return brentq(mismatch, prev_x, float(x), xtol=1e-12)
            prev_x, prev_m = float(x), mx
        raise AssertionError("external scan found no sign change")

    @pytest.mark.parametrize(
        "d, alpha",
        [(3, Alpha.negative(1.5)), (4, Alpha.positive(1.0))],
        ids=["neg", "pos"],
    )
    def test_matches_external_solver(self, d, alpha):
        assert self._external_eigenvalue(d, alpha) == pytest.approx(
            get_lambda(d, alpha).eigenvalue, abs=1e-8
        )


# -- independent references for criterion 9 ------------------------------------
#
# Everything below is rebuilt from the definitions alone: C(y) is
# cosh^(d-1)(|alpha| y) or cos^(d-1)(|alpha| y), phi = int_0^r 1/C,
# psi = int_r^1 C, lambda_bar is the principal eigenvalue of
# (C f')' + lam C f = 0 with f(0) = 0, f'(1) = 0, and
#
#   delta1_star       = sup_r  psi^(-1/2) int_r^1 psi^(3/2)/C + psi^(1/2) int_0^r psi^(1/2)/C
#   delta1_star_prime = sup_r  psi^(-1) int_r^1 psi^2/C + phi psi.


def _ref_coeff(d, alpha):
    a = alpha.magnitude
    trig = math.cosh if alpha.sign is CurvatureSign.NEGATIVE_K else math.cos
    return lambda y: trig(a * y) ** (d - 1)


def _ref_integral(g, lo, hi):
    from scipy.integrate import quad

    return quad(g, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _ref_sup(func):
    """sup over (0, 1): a 31-point scan, then bounded search around its max."""
    from scipy.optimize import minimize_scalar

    xs = np.linspace(0.0, 1.0, 33)
    k = 1 + int(np.argmax([func(x) for x in xs[1:-1]]))
    res = minimize_scalar(
        lambda r: -func(r),
        bounds=(xs[k - 1], xs[k + 1]),
        method="bounded",
        options={"xatol": 1e-7},
    )
    return -res.fun


@functools.cache
def _ref_lambda_bar(d, alpha):
    """Flux-form shot (f, u = C f') with DOP853, bisected by brentq.

    u(1) = 1 at lam = 0 and its first sign change in lam is the principal
    eigenvalue; eigenvalue gaps here are far wider than the 0.5 scan step.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    coeff = _ref_coeff(d, alpha)

    def end_flux(lam):
        sol = solve_ivp(
            lambda r, y: [y[1] / coeff(r), -lam * coeff(r) * y[0]],
            [0.0, 1.0],
            [0.0, 1.0],
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
        )
        return sol.y[1, -1]

    lo = 0.0
    for hi in np.arange(0.5, 100.0, 0.5):
        if end_flux(hi) <= 0.0:
            return brentq(end_flux, lo, hi, xtol=1e-15, rtol=1e-15)
        lo = hi
    raise AssertionError("reference scan found no sign change")


@functools.cache
def _ref_star_pair(d, alpha):
    """(delta1_star, delta1_star_prime) by nested quad and bounded search."""
    coeff = _ref_coeff(d, alpha)

    def psi(y):
        return _ref_integral(coeff, y, 1.0)

    def star(r):
        s = psi(r)
        tail = _ref_integral(lambda y: psi(y) ** 1.5 / coeff(y), r, 1.0)
        head = _ref_integral(lambda y: math.sqrt(psi(y)) / coeff(y), 0.0, r)
        return tail / math.sqrt(s) + math.sqrt(s) * head

    def star_prime(r):
        s = psi(r)
        tail = _ref_integral(lambda y: psi(y) ** 2 / coeff(y), r, 1.0)
        phi = _ref_integral(lambda y: 1.0 / coeff(y), 0.0, r)
        return tail / s + phi * s

    return _ref_sup(star), _ref_sup(star_prime)


def _ref_gamma(d, alpha, target):
    """Convex weight on 1/delta1_star' that puts the mean at target."""
    s, sp = _ref_star_pair(d, alpha)
    return (target - 1.0 / s) / (1.0 / sp - 1.0 / s)


class TestCriterion09Reference:
    """Criterion 9's worst points, recomputed with none of the package's machinery.

    The claimed chain lam - 0.056 <= eps_edge <= lam <= eps_zero fails in
    test_acceptance by margins up to 2e-2.  If the oracle or the lattice
    functionals were wrong there, an independent computation would
    disagree; it agrees to better than 1e-10 and reproduces every margin,
    so the failure belongs to the claim.
    """

    # (d, alpha, convex_mean anchor of the violated inequality, eps - lam).
    WORST = [
        (12, Alpha.positive(0.8), "at_half_pi", 0.01992),
        (5, Alpha.negative(1.2), "at_zero", -0.003001),
        (3, Alpha.negative(1.2), "at_zero", -0.004893),
    ]
    IDS = ["d12+0.8", "d5-1.2", "d3-1.2"]

    @pytest.mark.parametrize("d, alpha", [w[:2] for w in WORST], ids=IDS)
    def test_package_matches_reference(self, d, alpha):
        pytest.importorskip("scipy")
        p = get_profile(d, alpha)
        s, sp = _ref_star_pair(d, alpha)
        assert get_lambda(d, alpha).eigenvalue == pytest.approx(
            _ref_lambda_bar(d, alpha), rel=1e-9
        )
        assert delta1_star(p) == pytest.approx(s, rel=1e-8)
        assert delta1_star_prime(p) == pytest.approx(sp, rel=1e-8)

    @pytest.mark.parametrize("d, alpha, anchor, margin", WORST, ids=IDS)
    def test_reference_reproduces_violation(self, d, alpha, anchor, margin):
        # eps_edge - lam > 0 and eps_zero - lam < 0 each break the chain.
        pytest.importorskip("scipy")
        if anchor == "at_half_pi":
            edge = Alpha.positive(HALF_PI)
            gamma = _ref_gamma(d, edge, d * PI2 / 4.0)
            edge_profile = get_profile(d, edge)
        else:
            gamma = _ref_gamma(d, Alpha.zero(), PI2 / 4.0)
            edge_profile = None
        s, sp = _ref_star_pair(d, alpha)
        eps = gamma / sp + (1.0 - gamma) / s
        mean = convex_mean(
            d, alpha, anchor, profile=get_profile(d, alpha), edge_profile=edge_profile
        )
        assert gamma == pytest.approx(mean.gamma, rel=1e-8)
        assert eps == pytest.approx(mean.value, rel=1e-8)
        assert eps - _ref_lambda_bar(d, alpha) == pytest.approx(margin, abs=5e-6)


class TestDerivativeIdentity:
    def test_residual_and_boundary_defects_vanish(self):
        rep = derivative_identity_residual(2, Alpha.negative(1.0), 0.5)
        assert rep.residual < 1e-6
        assert abs(rep.g_slope_origin) < 1e-6
        assert abs(rep.g_end) < 1e-6
        assert rep.residual == pytest.approx(abs(rep.lhs - rep.rhs))
        assert rep.s == 0.5

    def test_eigenvalue_agrees_with_plain_solve(self):
        # The identity run lifts the eigenvalue by a 3e-7 relative nudge so
        # f' crosses zero strictly inside the interval.
        rep = derivative_identity_residual(2, Alpha.negative(1.0), 0.5)
        lam = get_lambda(2, Alpha.negative(1.0)).eigenvalue
        assert rep.eigenvalue == pytest.approx(lam, rel=1e-5)

    def test_curvature_sign_change_between_step_ends_raises(self, monkeypatch):
        # Dent f inside one step only: f'' = -lam f - F f' turns positive
        # there while every step end keeps its true, negative f''.
        class DentedPath(oracle.EigenPath):
            def __call__(self, x):
                x = np.asarray(x, dtype=float)
                lo, hi = self.r[5], self.r[6]
                inside = (x > lo) & (x < hi)
                dent = 10.0 * np.sin(math.pi * (x - lo) / (hi - lo)) ** 2
                return super().__call__(x) - np.where(inside, dent, 0.0)

        monkeypatch.setattr(oracle, "EigenPath", DentedPath)
        with pytest.raises(DegenerateDerivative):
            derivative_identity_residual(2, Alpha.negative(1.0), 0.5)


class TestVariationalConsistency:
    @pytest.mark.parametrize(
        "d, alpha",
        [(2, Alpha.zero()), (3, Alpha.negative(1.5))],
        ids=["flat", "neg"],
    )
    def test_solved_eigenfunctions_reproduce_eigenvalue(self, d, alpha):
        rep = variational_consistency(d, alpha)
        assert rep.worst_gap < 1e-8
        assert rep.eigenvalue == pytest.approx(
            get_lambda(d, alpha).eigenvalue, abs=1e-9
        )

    @pytest.mark.parametrize(
        "d, x, primal, dual",
        [
            # the four profiles of the benchmark's sharpen workload
            (2, 0.0, 2.4674011002708593, 2.467401100272016),
            (3, -1.0, 1.6820433200384497, 1.6820433200384048),
            (5, -1.5, 0.7354412316206848, 0.7354412316195693),
            (5, 1.0, 5.38854801839199, 5.38854801834554),
            (3, 1.5, 4.779923582646933, 4.779923582622764),
            (10, -2.0, 0.03245343169940955, 0.03245343169540875),
            (20, -1.5, 0.0006822823843601132, 0.0006822823843310767),
            (63, -1.0, 6.095203899175256e-10, 6.095203896008009e-10),
        ],
    )
    def test_ratios_frozen(self, d, x, primal, dual):
        # Signed-square alpha.  Frozen from the nested-panel polish; the
        # polish now reads the denominator's in-segment interpolant.
        alpha = Alpha.from_signed_x(x)
        rep = variational_consistency(d, alpha, profile=get_profile(d, alpha))
        assert rep.primal_ratio == pytest.approx(primal, rel=1e-14, abs=0.0)
        assert rep.dual_ratio == pytest.approx(dual, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "d, x", [(2, 0.0), (3, -1.0), (5, -1.5), (5, 1.0), (3, 1.5), (10, -2.0), (20, -1.5), (63, -1.0)]
    )
    def test_polish_takes_no_panels(self, d, x, monkeypatch):
        # The polish reads each denominator off its table and interpolant
        # only, the rows the guard flags in its integrand included (at
        # (3, -1) and (5, +1) the primal inf sits in one of them), so it
        # integrates no partial-segment panel and evaluates no coefficient.
        calls = []
        for cls, attr in (
            (Segmentation, "cum_eval"),
            (Segmentation, "tail_eval"),
            (CoefficientProfile, "coeff"),
            (CoefficientProfile, "coeff_inv"),
        ):
            orig = getattr(cls, attr)

            def counted(self, *args, _orig=orig, **kwargs):
                calls.append(1)
                return _orig(self, *args, **kwargs)

            monkeypatch.setattr(cls, attr, counted)
        alpha = Alpha.from_signed_x(x)
        variational_consistency(d, alpha, profile=get_profile(d, alpha))
        assert len(calls) == 0

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "consistency gap near the Myers edge: primal -8.3e-7 and dual -2.6e-6"
            " relative to lambda at (10, alpha = 1.4), -4.6e-5 and -6.8e-5 at"
            " (20, alpha = 1.2), the same with the path at tol 1e-11 and 1e-13"
            " (a solve at tol 1e-13 shrinks them to -6.5e-9/-3.2e-7 and"
            " -4.5e-7/-8.2e-7).  At (20, 1.2) the primal path reads f(0.9999) ="
            " 0.77000352 > f(1) = 0.77000344, while C f' = lambda int_r^1 C f > 0"
            " forces f to increase, so the drift-form path shot from r = 0 is"
            " the suspect"
        ),
    )
    @pytest.mark.parametrize("d, magnitude", [(10, 1.4), (20, 1.2)])
    def test_gap_near_the_myers_edge(self, d, magnitude):
        alpha = Alpha.positive(magnitude)
        rep = variational_consistency(d, alpha, profile=get_profile(d, alpha))
        assert rep.worst_gap <= 1e-9 * rep.eigenvalue

    @pytest.mark.xfail(
        strict=True,
        raises=InvalidTestFunction,
        reason=(
            "near the Myers edge the solved eigenfunctions are not positive on the"
            " lattice: the drift-form primal path reads as low as -20.3 at"
            " (20, alpha = 1.4), with 2,301 sub-nodes <= 0, and -3.6e3 at"
            " (63, alpha = 1.0); the ramp-corrected dual function reads down to"
            " -1.3e-13 and -7.5e-13 there.  12 of 48 positive-branch profiles at"
            " d in {2, 3, 5, 10, 20, 63} raise: (10, 1.55), (20, >= 1.4) and"
            " (63, >= 1.0)"
        ),
    )
    @pytest.mark.parametrize("d, magnitude", [(20, 1.4), (63, 1.0)])
    def test_runs_near_the_myers_edge(self, d, magnitude):
        alpha = Alpha.positive(magnitude)
        rep = variational_consistency(d, alpha, profile=get_profile(d, alpha))
        assert rep.primal_ratio > 0.0 and rep.dual_ratio > 0.0


class TestGroundStateSearch:
    def test_wide_bracket_finds_ground_state(self):
        # [0.1, 5000] holds 23 eigenvalues of the flat problem; the mismatch
        # reads k pi at the k-th of them and has its one root at the lowest.
        res = principal_eigenvalue(beta_problem(0.0), window=(0.1, 5000.0))
        assert res.eigenvalue == pytest.approx(PI2 / 4.0, rel=1e-10)

    def test_low_ceiling_doubles_up_to_ground_state(self):
        # The window lies wholly below pi^2/4 = 2.47; it widens upward,
        # doubling its log-width, until the mismatch changes sign.
        res = principal_eigenvalue(beta_problem(0.0), window=(0.01, 0.1))
        assert res.eigenvalue == pytest.approx(PI2 / 4.0, rel=1e-10)

    @pytest.mark.parametrize("window", [(30.0, 40.0), (2.5, 2.5)])
    def test_window_above_ground_state_widens_down(self, window):
        # (30, 40) lies between the second and third eigenvalues, 22.2 and
        # 61.7, so the window widens down to the lowest.  A zero-width
        # window just above pi^2/4 is padded, then widened.
        res = principal_eigenvalue(beta_problem(0.0), window=window)
        assert res.eigenvalue == pytest.approx(PI2 / 4.0, rel=1e-10)

    def test_window_seeds_from_profile_bracket(self, monkeypatch):
        # With a profile the first two mismatches are shot at the ends of
        # its certified bracket.
        d, alpha = 3, Alpha.negative(1.5)
        p = get_profile(d, alpha)
        seen = []
        shoot = kernels.shoot

        def counted(kind, c1, c2, lam, *args, **kwargs):
            seen.append(lam)
            return shoot(kind, c1, c2, lam, *args, **kwargs)

        monkeypatch.setattr(kernels, "shoot", counted)
        solve_lambda_bar(d, alpha, profile=p)
        b = oracle.universal_bracket(d, alpha, profile=p)
        assert seen[0] == pytest.approx(b.lower, rel=1e-14)
        assert seen[2] == pytest.approx(b.upper, rel=1e-14)

    def test_eigenfunction_is_integrated_once_on_first_read(self, monkeypatch):
        calls = []
        shoot_path = kernels.shoot_path

        def counted(*args, **kwargs):
            calls.append(args)
            return shoot_path(*args, **kwargs)

        monkeypatch.setattr(kernels, "shoot_path", counted)
        res = solve_lambda_bar(3, Alpha.negative(1.5))
        assert calls == []
        path = res.path
        assert len(calls) == 1
        assert res.path is path
        assert len(path.r) == len(path.fp) == len(path.f)
        assert len(calls) == 1


class TestSolutionSurface:
    def test_primal_satisfies_both_boundary_conditions(self):
        path = solve_lambda_bar(2, Alpha.zero()).path
        scale = float(np.max(np.abs(path.f)))
        assert path.f[0] == 0.0
        assert abs(path.fp[-1]) / float(np.max(np.abs(path.fp))) < 1e-9
        assert scale > 0.0

    def test_path_is_exact_at_step_ends_and_accurate_between(self):
        # Flat dual: f = cos(pi r / 2), which falls to the bisection's
        # residual at its Dirichlet end; the path must keep relative
        # accuracy there, where f is far below its start state's rounding.
        res = solve_lambda_bar(2, Alpha.zero(), dual=True)
        path = res.path
        assert path.r[0] == 0.0 and path.r[-1] == 1.0
        assert np.array_equal(path(path.r), path.f)
        assert np.array_equal(path.deriv(path.r), path.fp)
        k = math.sqrt(res.eigenvalue)
        xs = np.linspace(0.0, 1.0, 7777)
        np.testing.assert_allclose(path(xs), np.cos(k * xs), rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            path.deriv(xs), -k * np.sin(k * xs), rtol=0, atol=1e-10
        )
        near = 1.0 - np.logspace(-13, -5, 41)
        want = path.f[-1] * np.cos(k * (near - 1.0)) + path.fp[-1] / k * np.sin(
            k * (near - 1.0)
        )
        np.testing.assert_allclose(path(near), want, rtol=1e-9)

    def test_positive_edge_is_solved_untrimmed_and_has_no_path(self):
        prob = reduced_problem(2, Alpha.positive(HALF_PI))
        assert prob.r_end == 1.0 and prob.singular_end
        assert not reduced_problem(2, Alpha.positive(1.0)).singular_end
        with pytest.raises(DomainError):
            EigenPath(prob, 2.0 * PI2 / 4.0)
        with pytest.raises(DomainError):
            variational_consistency(2, Alpha.positive(HALF_PI))

    def test_beta_problem_is_linear_drift(self):
        prob = beta_problem(0.5)
        assert float(prob.drift(0.25)) == pytest.approx(-0.25)
        assert float(prob.drift_slope(0.9)) == pytest.approx(-1.0)


class TestValidation:
    def test_rejects_unknown_kernel_kind(self):
        with pytest.raises(DomainError):
            EigenProblem(9, 0.0, 0.0, DIRICHLET, NEUMANN)

    def test_rejects_bad_boundary_condition(self):
        with pytest.raises(DomainError):
            EigenProblem(0, 0.0, 0.0, "robin", NEUMANN)

    def test_rejects_bad_domain_end(self):
        with pytest.raises(DomainError):
            EigenProblem(0, 0.0, 0.0, DIRICHLET, NEUMANN, r_end=0.0)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(DomainError):
            solve_lambda_bar(0, Alpha.zero())
        with pytest.raises(DomainError):
            reduced_problem(True, Alpha.zero())

    def test_rejects_bad_scan_ceiling(self):
        for window in ((1.0, float("inf")), (0.0, 1.0), (-1.0, 2.0)):
            with pytest.raises(DomainError):
                principal_eigenvalue(beta_problem(0.0), window=window)
        with pytest.raises(DomainError):
            principal_eigenvalue(beta_problem(0.0), tol=0.0)

    def test_rejects_unmixed_conditions_and_bad_drift_rates(self):
        with pytest.raises(DomainError):
            EigenProblem(0, 0.0, 0.0, DIRICHLET, DIRICHLET)
        with pytest.raises(DomainError):
            EigenProblem(1, 1.0, 0.0, DIRICHLET, NEUMANN)
        with pytest.raises(DomainError):
            EigenProblem(2, -1.0, 2.0, DIRICHLET, NEUMANN)

    def test_rejects_infinite_beta(self):
        with pytest.raises(DomainError):
            beta_problem(float("nan"))


class TestStiffHalfShots:
    """A half shot the kernel cannot finish raises StiffIntegration."""

    def test_overflowing_angle_rate(self):
        # log C = 750 at r = 1 puts lam C past the largest double, so the
        # rate of a shot from there overflows on its first evaluation.
        prob = EigenProblem(0, 1500.0, 0.0, NEUMANN, DIRICHLET)
        with pytest.raises(StiffIntegration, match="overflow") as info:
            oracle._half_angle(prob, DIRICHLET, 0.0, 0.0, 1.0, 0.5, 1e-11)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_step_underflow(self):
        prob = beta_problem(0.0)
        with pytest.raises(StiffIntegration, match="status 2"):
            oracle._half_angle(prob, prob.bc_left, 0.0, 0.0, 0.0, 0.5, 1e-60)


# -- the independent reference table --------------------------------------------

_TABLE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)
_CURVATURE = [(int(d), float(a), float(lam)) for d, a, lam in _TABLE["curvature"]]
_BETA = [(float(b), float(lam)) for b, lam in _TABLE["beta"]]

#: Points whose lambda_bar is tiny (1e-8 to 1e-19), where an absolute
#: shooting tolerance used to miss the reference, and the d = 63 edge.
_HARD = {(10, -10.0 / 3.0), (20, -2.0), (20, -10.0 / 3.0), (63, HALF_PI)}


def _signed(a):
    if a < 0.0:
        return Alpha.negative(-a)
    return Alpha.positive(a) if a > 0.0 else Alpha.zero()


def _reference_points():
    """Every 8th table point and the hard ones; all with EIGENBOUND_FULL=1."""
    # d = 1000 is the bound workload's overflow fault, not an oracle point.
    rows = [row for row in _CURVATURE if row[0] < 1000]
    if FULL:
        return rows
    return [row for i, row in enumerate(rows) if i % 8 == 0 or row[:2] in _HARD]


class TestReferenceAgreement:
    """solve_lambda_bar and beta_eigenvalue against perfbench/reference.json.

    The table is built by scipy's DOP853 on a Pruefer angle with none of
    the package's code; the oracle's tolerance is relative, so it must
    meet the table at 1e-9 relative whatever the size of lambda_bar.
    """

    def test_hard_points_are_covered(self):
        keys = {row[:2] for row in _reference_points()}
        assert _HARD <= keys

    @pytest.mark.parametrize(
        "d, a, lam_ref",
        _reference_points(),
        ids=[f"d{d}{a:+.4f}" for d, a, _ in _reference_points()],
    )
    def test_primal_and_dual_match_reference(self, d, a, lam_ref):
        alpha = _signed(a)
        p = CoefficientProfile(d, alpha)
        for dual in (False, True):
            lam = solve_lambda_bar(d, alpha, dual=dual, profile=p).eigenvalue
            assert lam == pytest.approx(lam_ref, rel=1e-9), dual

    def test_beta_grid_matches_reference(self):
        for beta, lam_ref in _BETA:
            lam = beta_eigenvalue(beta).eigenvalue
            assert lam == pytest.approx(lam_ref, rel=1e-9), beta


def _count_shots(monkeypatch):
    """Record (shots, steps) of every kernels.shoot call into a list pair."""
    counts = [0, 0]
    shoot = kernels.shoot

    def counted(*args, **kwargs):
        out = shoot(*args, **kwargs)
        counts[0] += 1
        counts[1] += out[4]
        return out

    monkeypatch.setattr(kernels, "shoot", counted)
    return counts


class TestWorkCounts:
    """The shots and integrator steps one solve takes.

    Measured: 6-16 shots a solve from the certified bracket, and ~1,300-
    1,600 steps at the Myers edges.  A bisection from lambda = 0 takes
    42-47 shots, and shooting into the pole at a trimmed edge ~300,000
    steps at d = 10; the bounds sit between.
    """

    @pytest.mark.parametrize("d", [10, 63])
    def test_myers_edge_takes_few_shot_steps(self, d, monkeypatch):
        alpha = Alpha.positive(HALF_PI)
        p = get_profile(d, alpha)
        oracle.universal_bracket(d, alpha, profile=p)
        counts = _count_shots(monkeypatch)
        lam = solve_lambda_bar(d, alpha, profile=p).eigenvalue
        assert lam == pytest.approx(d * PI2 / 4.0, rel=1e-9)
        assert counts[1] <= 20_000

    @pytest.mark.parametrize(
        "d, alpha",
        [
            (2, Alpha.zero()),
            (3, Alpha.negative(1.5)),
            (5, Alpha.positive(1.2)),
            (10, Alpha.negative(10.0 / 3.0)),
            (20, Alpha.negative(2.0)),
        ],
        ids=["flat", "d3-neg", "d5-pos", "d10-tiny", "d20-tiny"],
    )
    def test_off_edge_solves_take_at_most_twenty_shots(self, d, alpha, monkeypatch):
        p = get_profile(d, alpha)
        oracle.universal_bracket(d, alpha, profile=p)
        for dual in (False, True):
            counts = _count_shots(monkeypatch)
            solve_lambda_bar(d, alpha, dual=dual, profile=p)
            assert 0 < counts[0] <= 20, dual
