"""Tests for the Dormand-Prince shooting kernel and its recorded steps."""

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

#: Recorded steps checked against a shot to a radius inside them.
PROBES = (0, 1, 7, 100, 255, 400, -2)


def quartic(rows, x):
    """Each recorded row (state, q1..q4) at the step fraction x."""
    return rows[:, 0] + x * (
        rows[:, 1] + x * (rows[:, 2] + x * (rows[:, 3] + x * rows[:, 4]))
    )


class TestShooting:
    def test_flat_shot_matches_sine_solution(self):
        # f'' = -lam f, f(0)=0, f'(0)=1  ->  sin(sqrt(lam) r)/sqrt(lam).
        f, g, log_scale, status, steps, _ = kernels.shoot(
            0, 0.0, 0.0, FLAT_LAMBDA, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert log_scale == 0.0
        assert f == pytest.approx(2.0 / math.pi, abs=1e-10)
        assert g == pytest.approx(0.0, abs=1e-10)
        assert steps > 0

    def test_max_steps_status(self):
        _, _, _, status, _, _ = kernels.shoot(
            1, 2.0, 1.5, 3.7, 1.0, 0.0, 1.0, 1e-11, 1e-11, 5
        )
        assert status == kernels.STATUS_MAX_STEPS

    def test_renormalization_tracks_log_scale(self):
        # lam = -4e5 grows like sinh(632 r): far past RENORM, so the state
        # must be rescaled while log(f) + log_scale stays the true log.
        lam = -4.0e5
        rate = math.sqrt(-lam)
        f, g, log_scale, status, _, _ = kernels.shoot(
            0, 0.0, 0.0, lam, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert log_scale > 0.0
        assert abs(f) < kernels.RENORM
        true_log = rate - math.log(2.0) - math.log(rate)
        assert math.log(abs(f)) + log_scale == pytest.approx(
            true_log, rel=1e-8
        )
        # The path carries its own scale per step: sinh(rate r)/rate.  The
        # rescale falls inside a step near r = 0.91, whose quartic must
        # carry the log-scale from before it.  Every step start from r = 1/8
        # on is checked, and every step's quartic at its midpoint, before
        # and after the rescale.
        fq, _, ls, status, _, r, h = kernels.shoot_path(
            0, 0.0, 0.0, lam, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        tail = r >= 0.125
        assert ls[tail][0] == 0.0 and ls[-1] > 0.0

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
        for kind, c1, c2, lam in CASES:
            fq, gq, ls, status, steps, r, h = kernels.shoot_path(
                kind, c1, c2, lam, 1.0, 0.0, 1.0
            )
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
                f, g, log_scale, _, _, _ = kernels.shoot(
                    kind, c1, c2, lam, x, 0.0, 1.0
                )
                bound = 1e-8 * max(abs(f), abs(g))
                w = math.exp(ls[i] - log_scale)
                assert abs(quartic(fq[i : i + 1], 0.3)[0] * w - f) <= bound
                assert abs(quartic(gq[i : i + 1], 0.3)[0] * w - g) <= bound
            # The closing row is the end state, with zero coefficients.  The
            # absolute floor is the kernel's atol: it only bites on the
            # components that cancel to near zero (the flat g(1) = cos(pi/2),
            # kind 2's f(1) = 0.0024), where two step sequences of tolerance
            # 1e-11 differ by ~5e-12.
            assert not np.any(fq[-1, 1:]) and not np.any(gq[-1, 1:])
            f, g, log_scale, _, _, _ = kernels.shoot(kind, c1, c2, lam, 1.0, 0.0, 1.0)
            w = math.exp(ls[-1] - log_scale)
            assert fq[-1, 0] * w == pytest.approx(f, rel=1e-9, abs=1e-11)
            assert gq[-1, 0] * w == pytest.approx(g, rel=1e-9, abs=1e-11)

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


class TestNodeCount:
    def test_flat_count_is_number_of_interior_zeros(self):
        # sin(2.5 pi r) vanishes at r = 0.4 and 0.8; sin(pi r / 2) nowhere
        # on (0, 1].
        for lam, want in (((2.5 * math.pi) ** 2, 2), (FLAT_LAMBDA, 0)):
            *_, status, _, nodes = kernels.shoot(0, 0.0, 0.0, lam, 1.0, 0.0, 1.0)
            assert status == kernels.STATUS_OK
            assert nodes == want

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
        *_, nodes = kernels.shoot(kind, c1, c2, lam, 1.0, 0.0, 1.0)
        assert nodes == changes
