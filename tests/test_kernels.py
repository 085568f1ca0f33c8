"""Tests for the Dormand-Prince kernel: the Pruefer shot and the recorded path."""

import math

import numpy as np
import pytest

from eigenbound import kernels

FLAT_LAMBDA = math.pi**2 / 4.0

#: Drift encodings (kind, c1, c2) with both signs of c1, the primal and dual
#: families; the tangent drift at c2 = pi/2 reaches the Myers edge at r = 1.
SIGNED_DRIFTS = [
    (0, 2.0, 0.0),
    (0, -2.0, 0.0),
    (1, 2.0, 1.5),
    (1, -2.0, 1.5),
    (2, 2.0 * math.pi, math.pi / 2.0),
    (2, -2.0 * math.pi, math.pi / 2.0),
]

#: Both signs of each drift, the tangent one short of the Myers edge.
PATH_DRIFTS = [
    (kind, c1, 1.2 if kind == 2 else c2) for kind, c1, c2 in SIGNED_DRIFTS
]

#: shoot_path's arguments after the drift: lam, shift, r0, r1, theta0.
PATH_SHOTS = [
    (3.7, 0.0, 0.0, 1.0, 0.0),
    (3.7, -0.4, 1.0, 0.35, 0.0),
    (40.0, 1.3, 0.2, 0.9, 0.3),
]


def angle(kind, c1, c2, lam, r):
    """Pruefer angle at r of the Dirichlet-start solution, from r = 0."""
    theta, _, t, status, _ = kernels.shoot(kind, c1, c2, lam, 0.0, 0.0, r)
    assert status == kernels.STATUS_OK and t == r
    return theta


class TestAngleRate:
    """The shot's rate writes log C inline; log_coeff stays its definition."""

    @pytest.mark.parametrize("kind, c1, c2", SIGNED_DRIFTS)
    @pytest.mark.parametrize("r0, sign", [(0.0, 1.0), (1.0, -1.0)])
    def test_rate_at_zero_angle_is_exp_of_minus_log_coeff(
        self, kind, c1, c2, r0, sign
    ):
        # cos 0 = 1 and sin 0 = 0, so at theta = 0 the rate is e^(-L)
        # exactly, L = log C + shift, on every radius up to r = 1.
        shift = 0.3
        lc = kernels.log_coeff(kind, c1, c2)
        rate = kernels._angle_rate(kind, c1, c2, 3.7, shift, r0, sign)
        for t in np.linspace(0.0, 1.0, 257).tolist():
            assert rate(t, 0.0) == math.exp(-(lc(r0 + sign * t) + shift))


    @pytest.mark.parametrize("kind, c1, c2", SIGNED_DRIFTS)
    def test_array_log_coeff_matches_scalar(self, kind, c1, c2):
        # shoot_path integrates log rho on numpy's log C after the march.
        r = np.linspace(0.0, 1.0, 257)
        want = [kernels.log_coeff(kind, c1, c2)(x) for x in r.tolist()]
        got = kernels.log_coeff(kind, c1, c2, np)(r)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


class TestShooting:
    def test_flat_shot_matches_sine_solution(self):
        # f'' = -lam f, f(0)=0, f'(0)=1: f = sin(k r)/k and C f' = cos(k r),
        # so tan(theta) = tan(k r)/k, and theta(1) = pi/2 at k = pi/2.
        theta, _, t, status, steps = kernels.shoot(
            0, 0.0, 0.0, FLAT_LAMBDA, 0.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert t == 1.0 and steps > 0
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-10)
        k = math.pi / 2.0
        assert angle(0, 0.0, 0.0, FLAT_LAMBDA, 0.3) == pytest.approx(
            math.atan(math.tan(0.3 * k) / k), abs=1e-11
        )

    def test_neumann_form_and_backward_shots(self):
        # From a Neumann start f = cos(k r), C f' = -k sin(k r): the angle
        # less pi/2 is atan(k tan(k r)), which the same equation gives with
        # c1 negated and the shift moved by -log(lam).
        lam = 5.0
        k = math.sqrt(lam)
        chi, *_ = kernels.shoot(0, -0.0, 0.0, lam, -math.log(lam), 0.0, 0.4)
        assert chi == pytest.approx(math.atan(k * math.tan(0.4 * k)), abs=1e-11)
        # C = 1 is symmetric about 1/2: backwards from 1 to 0.3 is forwards
        # from 0 to 0.7, and a shift s scales the flux by e^s, so
        # tan(theta) = tan(0.7 k) / (k e^s) with 0.7 k just below pi/2.
        back, _, t, status, _ = kernels.shoot(0, 0.0, 0.0, lam, 0.7, 1.0, 0.3)
        assert status == kernels.STATUS_OK and t == pytest.approx(0.7)
        want = math.atan(math.tan(0.7 * k) / (k * math.exp(0.7)))
        assert back == pytest.approx(want, abs=1e-10)

    def test_max_steps_status(self):
        *_, status, steps = kernels.shoot(
            1, 2.0, 1.5, 3.7, 0.0, 0.0, 1.0, 0.0, 1e-11, 1e-11, 5
        )
        assert status == kernels.STATUS_MAX_STEPS
        assert steps == 5

    def test_step_underflow_status(self):
        # A tolerance far below the rounding of the angle cannot be met:
        # every trial step is rejected until the step falls below its
        # floor, and the march stops where it started.
        theta, _, t, status, steps = kernels.shoot(
            1, 2.0, 1.5, 3.7, 0.0, 0.0, 1.0, 0.0, 1e-60, 1e-60
        )
        assert status == kernels.STATUS_STEP_UNDERFLOW
        assert theta == t == 0.0
        assert 0 < steps < 100


    def test_path_endpoint_matches_single_shot(self):
        # shoot_path is shoot recording its steps: with the same arguments
        # it ends on the same angle to the bit, after the same steps, and
        # the angle rises from step end to step end.
        for kind, c1, c2 in PATH_DRIFTS:
            for lam, shift, r0, r1, theta0 in PATH_SHOTS:
                args = (kind, c1, c2, lam, shift, r0, r1, theta0, 1e-300, 1e-13)
                theta, log_rho, t, status, steps = kernels.shoot_path(*args)
                shot = kernels.shoot(*args)
                assert status == shot[3] == kernels.STATUS_OK
                assert steps == shot[4]
                assert theta[-1] == shot[0] and t[-1] == shot[2]
                assert theta[0] == theta0 and t[0] == log_rho[0] == 0.0
                assert theta.shape == log_rho.shape == t.shape
                assert np.all(np.diff(t) > 0.0) and np.all(np.diff(theta) > 0.0)

    @pytest.mark.parametrize("kind, c1, c2", PATH_DRIFTS)
    def test_step_end_angles_match_shots_to_them(self, kind, c1, c2):
        # The angle at a step end is the angle a separate shot reaches
        # there; log rho at the path's end barely moves at a 10x tighter
        # tolerance.
        lam, shift, r0, r1, theta0 = PATH_SHOTS[1]
        sign = 1.0 if r1 >= r0 else -1.0
        theta, log_rho, t, status, _ = kernels.shoot_path(
            kind, c1, c2, lam, shift, r0, r1, theta0, 1e-300, 1e-12
        )
        assert status == kernels.STATUS_OK
        for i in range(1, t.size, max(1, t.size // 8)):
            shot = kernels.shoot(
                kind, c1, c2, lam, shift, r0, r0 + sign * t[i], theta0, 1e-300, 1e-13
            )
            assert theta[i] == pytest.approx(shot[0], rel=1e-10)
        fine = kernels.shoot_path(
            kind, c1, c2, lam, shift, r0, r1, theta0, 1e-300, 1e-13
        )[1]
        assert log_rho[-1] == pytest.approx(fine[-1], rel=1e-9, abs=1e-11)

    def test_path_ending_on_a_sliver_step_finishes(self):
        # The step cut to land on this r1 leaves one ulp, below the step
        # floor, for a last step that must not read as an underflow.
        # C = 1: f = sin(k r) / k and C f' = cos(k r) from a Dirichlet
        # start, so the angle and log rho are known at every step end.
        r1 = 0.050475118779694926
        lam = 2.0
        theta, log_rho, t, status, _ = kernels.shoot_path(
            0, 0.0, 0.0, lam, 0.0, 0.0, r1
        )
        assert status == kernels.STATUS_OK
        assert t[-1] == r1 and t[-1] - t[-2] < 1e-15 * r1
        k = math.sqrt(lam)
        s, c = np.sin(k * t) / k, np.cos(k * t)
        np.testing.assert_allclose(theta, np.arctan2(s, c), rtol=1e-10, atol=0)
        np.testing.assert_allclose(log_rho, 0.5 * np.log(s * s + c * c), rtol=0, atol=1e-12)

    def test_path_amplitude_backwards_with_a_shift(self):
        # C~ = e^shift from r0 = 1 back to 0.3: f = e^-shift sin(k x) / k at
        # distance x, C~ f' = cos(k x), so rho^2 = e^-2shift sin^2 / k^2 + cos^2.
        lam, shift = 2.0, 0.7
        theta, log_rho, t, status, _ = kernels.shoot_path(
            0, 0.0, 0.0, lam, shift, 1.0, 0.3, 0.0, 1e-300, 1e-13
        )
        assert status == kernels.STATUS_OK
        k = math.sqrt(lam)
        s, c = np.sin(k * t) / (k * math.exp(shift)), np.cos(k * t)
        np.testing.assert_allclose(theta, np.arctan2(s, c), rtol=1e-12, atol=0)
        np.testing.assert_allclose(log_rho, 0.5 * np.log(s * s + c * c), rtol=0, atol=1e-12)


class TestPathAssembly:
    """The step ends the path records: one per accepted step, and its start."""

    @pytest.mark.parametrize("max_steps", [0, 1, 5])
    def test_stopped_march_keeps_its_rows(self, max_steps):
        theta, log_rho, t, status, steps = kernels.shoot_path(
            1, 2.0, 1.5, 3.7, 0.0, 0.0, 1.0, 0.0, 1e-11, 1e-11, max_steps
        )
        assert status == kernels.STATUS_MAX_STEPS
        assert steps == max_steps
        assert len(t) - 1 <= steps
        assert theta.shape == log_rho.shape == t.shape
        assert t[0] == theta[0] == log_rho[0] == 0.0
        # The last row is where the march stopped.
        assert t[-1] < 1.0

    def test_rejected_steps_leave_no_rows(self):
        # At lam = 3700 some trial steps are rejected; only accepted ones
        # may leave a row, and the rows still rise to the end.
        theta, _, t, status, steps = kernels.shoot_path(
            1, 2.0, 1.5, 3700.0, 0.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert steps > len(t) - 1
        assert t[-1] == 1.0
        assert np.all(np.diff(t) > 0.0) and np.all(np.diff(theta) > 0.0)


class TestNodeCount:
    """The angle crosses each multiple of pi once, upwards, at a zero of f."""

    def test_flat_count_is_number_of_interior_zeros(self):
        # sin(2.5 pi r) vanishes at r = 0.4 and 0.8; sin(pi r / 2) nowhere
        # on (0, 1].
        for lam, want in (((2.5 * math.pi) ** 2, 2), (FLAT_LAMBDA, 0)):
            theta = angle(0, 0.0, 0.0, lam, 1.0)
            assert math.floor(theta / math.pi) == want

    @pytest.mark.parametrize(
        "kind, c1, c2, lam", [(1, 2.0, 1.5, 140.0), (2, -1.0, 1.2, 260.0)]
    )
    def test_count_matches_dense_path(self, kind, c1, c2, lam):
        # Sign changes of f = rho sin(theta) at the recorded step ends: no
        # step crosses two zeros.
        theta, _, _, status, _ = kernels.shoot_path(
            kind, c1, c2, lam, 0.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        changes = int(np.count_nonzero(np.diff(np.signbit(np.sin(theta[1:])))))
        assert changes >= 3
        assert math.floor(theta[-1] / math.pi) == changes
