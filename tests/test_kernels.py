"""Tests for the Dormand-Prince kernel: the Pruefer shot and the recorded path."""

import math

import numpy as np
import pytest

from eigenbound import kernels

FLAT_LAMBDA = math.pi**2 / 4.0

#: One case per drift family: kind, c1, c2, lam.
CASES = [
    (0, 0.0, 0.0, FLAT_LAMBDA),
    (1, 2.0, 1.5, 3.7),
    (2, -1.0, 1.2, 9.0),
]

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

#: Recorded steps checked against a shot to a radius inside them.
PROBES = (0, 1, 7, 100, 255, 400, -2)


def quartic(rows, x):
    """Each recorded row (state, q1..q4) at the step fraction x."""
    return rows[:, 0] + x * (
        rows[:, 1] + x * (rows[:, 2] + x * (rows[:, 3] + x * rows[:, 4]))
    )


def angle(kind, c1, c2, lam, r):
    """Pruefer angle at r of the Dirichlet-start solution, from r = 0."""
    theta, _, t, status, _ = kernels.shoot(kind, c1, c2, lam, 0.0, 0.0, r)
    assert status == kernels.STATUS_OK and t == r
    return theta


def assert_same_angle(theta, f, flux, tol):
    """theta is the polar angle of (f, flux), up to whole turns."""
    rho = math.hypot(f, flux)
    assert abs(math.sin(theta) - f / rho) <= tol
    assert abs(math.cos(theta) - flux / rho) <= tol


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

    def test_renormalization_tracks_log_scale(self):
        # lam = -4e5 grows like sinh(632 r): far past RENORM, so the path
        # must be rescaled while log(f) + log_scale stays the true log.  The
        # rescale falls inside a step near r = 0.91, whose quartic must
        # carry the log-scale from before it.  Every step start from r = 1/8
        # on is checked, the end state, and every step's quartic at its
        # midpoint, before and after the rescale.
        lam = -4.0e5
        rate = math.sqrt(-lam)
        fq, _, ls, status, _, r, h = kernels.shoot_path(
            0, 0.0, 0.0, lam, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        tail = r >= 0.125
        assert ls[tail][0] == 0.0 and ls[-1] > 0.0
        assert abs(fq[-1, 0]) < kernels.RENORM
        true_log = rate - math.log(2.0) - math.log(rate)
        assert math.log(abs(fq[-1, 0])) + ls[-1] == pytest.approx(true_log, rel=1e-8)

        def want(x):
            x = rate * x
            return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0 * rate)

        np.testing.assert_allclose(
            np.log(np.abs(fq[tail, 0])) + ls[tail], want(r[tail]), rtol=1e-8
        )
        tail = tail[:-1]
        mid = quartic(fq[:-1], 0.5)[tail]
        np.testing.assert_allclose(
            np.log(np.abs(mid)) + ls[:-1][tail],
            want(r[:-1][tail] + 0.5 * h[:-1][tail]),
            rtol=1e-8,
        )

    def test_path_endpoint_matches_single_shot(self):
        # The drift-form path and the Pruefer shot are two integrations of
        # one solution: the path's (f, C f') must point along the shot's
        # angle inside any step and at the end.
        for kind, c1, c2, lam in CASES:
            fq, gq, ls, status, steps, r, h = kernels.shoot_path(
                kind, c1, c2, lam, 1.0, 0.0, 1.0
            )
            lc = kernels.log_coeff(kind, c1, c2)
            assert status == kernels.STATUS_OK
            assert fq[0, 0] == 0.0 and gq[0, 0] == 1.0 and ls[0] == 0.0
            assert r[0] == 0.0 and r[-1] == 1.0
            # Steps are capped at 1/PATH_STEPS, not one per evaluation point.
            assert kernels.PATH_STEPS <= len(r) - 1 <= steps <= 600
            # Each step's quartic runs from its start state to the next.
            scale = np.maximum(np.abs(fq[1:, 0]), np.abs(gq[1:, 0]))
            for rows in (fq, gq):
                gap = np.abs(quartic(rows[:-1], 1.0) - rows[1:, 0])
                assert np.all(gap <= 1e-12 * scale)
            for i in PROBES:
                x = r[i] + 0.3 * h[i]
                f = quartic(fq[i : i + 1], 0.3)[0]
                flux = quartic(gq[i : i + 1], 0.3)[0] * math.exp(lc(x))
                assert_same_angle(angle(kind, c1, c2, lam, x), f, flux, 1e-9)
            # The closing row is the end state, with zero coefficients.
            assert not np.any(fq[-1, 1:]) and not np.any(gq[-1, 1:])
            flux = gq[-1, 0] * math.exp(lc(1.0))
            assert_same_angle(angle(kind, c1, c2, lam, 1.0), fq[-1, 0], flux, 1e-9)

    def test_path_ending_on_a_sliver_step_finishes(self):
        # 512 capped steps of 0.67/512 sum to one ulp short of 0.67; the
        # closing step is that ulp and must not read as a step underflow.
        fq, _, _, status, _, r, _ = kernels.shoot_path(
            0, 0.0, 0.0, 2.0, 0.67, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert r[-1] == 0.67
        k = math.sqrt(2.0)
        assert fq[-1, 0] == pytest.approx(math.sin(k * 0.67) / k, rel=1e-9)


class TestPathAssembly:
    """The rows the path assembles after its march: one per accepted step."""

    @pytest.mark.parametrize("max_steps", [0, 1, 5])
    def test_stopped_march_keeps_its_rows(self, max_steps):
        fq, gq, ls, status, steps, r, h = kernels.shoot_path(
            1, 2.0, 1.5, 3.7, 1.0, 0.0, 1.0, 1e-11, 1e-11, max_steps
        )
        assert status == kernels.STATUS_MAX_STEPS
        assert steps == max_steps
        rows = len(r)
        assert rows - 1 <= steps
        assert fq.shape == gq.shape == (rows, 5)
        assert ls.shape == h.shape == (rows,)
        assert r[0] == 0.0 and fq[0, 0] == 0.0 and gq[0, 0] == 1.0
        np.testing.assert_array_equal(r[1:], r[:-1] + h[:-1])
        # The closing row is where the march stopped, with zero coefficients.
        assert not np.any(fq[-1, 1:]) and not np.any(gq[-1, 1:])
        assert r[-1] < 1.0

    def test_rejected_steps_leave_no_rows(self):
        # At lam = 3700 the error control, not the PATH_STEPS cap, sets the
        # step, and some trial steps are rejected; only accepted ones may
        # leave a row, and each row's quartic must still close on the next.
        fq, gq, ls, status, steps, r, h = kernels.shoot_path(
            1, 2.0, 1.5, 3700.0, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert steps > len(r) - 1 > kernels.PATH_STEPS
        assert not np.any(ls)
        np.testing.assert_array_equal(r[1:], r[:-1] + h[:-1])
        assert r[-1] == 1.0
        scale = np.maximum(np.abs(fq[1:, 0]), np.abs(gq[1:, 0]))
        for rows in (fq, gq):
            gap = np.abs(quartic(rows[:-1], 1.0) - rows[1:, 0])
            assert np.all(gap <= 1e-12 * scale)


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
        # Sign changes of the recorded quartics, read at eight points a step.
        fq, _, _, status, _, _, _ = kernels.shoot_path(
            kind, c1, c2, lam, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        fs = np.stack([quartic(fq[:-1], x) for x in np.arange(1, 9) / 8.0], axis=1)
        changes = int(np.count_nonzero(np.diff(np.signbit(fs.ravel()))))
        assert changes >= 3
        theta = angle(kind, c1, c2, lam, 1.0)
        assert math.floor(theta / math.pi) == changes
