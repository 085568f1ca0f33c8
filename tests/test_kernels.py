"""Tests for the Dormand-Prince shooting kernel and its dense samples."""

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

#: Interior samples checked against a shot to the same radius.
PROBES = (1, 7, 500, 1001, 2048, 3001, 4095)


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
        # The dense path carries its own scale per sample: sinh(rate r)/rate.
        # Its ~26,600 steps are shorter than 4 sample spacings, so samples
        # fall inside the step that triggers the rescale (near r = 0.91):
        # they must carry the log-scale from before it.  Every sample from
        # r = 1/8 on is checked, before and after the rescale.
        rs = np.linspace(0.0, 1.0, 65537)
        fs, _, ls, status, _ = kernels.shoot_path(0, 0.0, 0.0, lam, rs, 0.0, 1.0)
        assert status == kernels.STATUS_OK
        tail = slice(8192, None)
        assert ls[tail][0] == 0.0 and ls[-1] > 0.0
        x = rate * rs[tail]
        want = x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0 * rate)
        np.testing.assert_allclose(
            np.log(np.abs(fs[tail])) + ls[tail], want, rtol=1e-8
        )

    def test_path_endpoint_matches_single_shot(self):
        rs = np.linspace(0.0, 1.0, 4097)
        for kind, c1, c2, lam in CASES:
            fs, gs, ls, status, steps = kernels.shoot_path(
                kind, c1, c2, lam, rs, 0.0, 1.0
            )
            assert status == kernels.STATUS_OK
            assert fs[0] == 0.0 and gs[0] == 1.0 and ls[0] == 0.0
            # Samples come off the continuous extension, not one step each.
            assert steps <= 600
            for i in PROBES:
                f, g, log_scale, _, _, _ = kernels.shoot(
                    kind, c1, c2, lam, rs[i], 0.0, 1.0
                )
                scale = max(abs(f), abs(g))
                w = math.exp(ls[i] - log_scale)
                assert abs(fs[i] * w - f) <= 1e-8 * scale
                assert abs(gs[i] * w - g) <= 1e-8 * scale
            # The last sample is the end state, not an interpolant.  The
            # absolute floor is the kernel's atol: it only bites on the
            # components that cancel to near zero (the flat g(1) = cos(pi/2),
            # kind 2's f(1) = 0.0024), where two step sequences of tolerance
            # 1e-11 differ by ~5e-12.
            f, g, log_scale, _, _, _ = kernels.shoot(kind, c1, c2, lam, 1.0, 0.0, 1.0)
            w = math.exp(ls[-1] - log_scale)
            assert fs[-1] * w == pytest.approx(f, rel=1e-9, abs=1e-11)
            assert gs[-1] * w == pytest.approx(g, rel=1e-9, abs=1e-11)

    def test_path_ending_on_a_sliver_step_finishes(self):
        # 512 capped steps of 0.67/512 sum to one ulp short of 0.67; the
        # closing step is that ulp and must not read as a step underflow.
        rs = np.linspace(0.0, 0.67, 65)
        fs, _, _, status, _ = kernels.shoot_path(0, 0.0, 0.0, 2.0, rs, 0.0, 1.0)
        assert status == kernels.STATUS_OK
        k = math.sqrt(2.0)
        assert fs[-1] == pytest.approx(math.sin(k * 0.67) / k, rel=1e-9)


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
        rs = np.linspace(0.0, 1.0, 4097)
        fs, _, _, status, _ = kernels.shoot_path(kind, c1, c2, lam, rs, 0.0, 1.0)
        assert status == kernels.STATUS_OK
        changes = int(np.count_nonzero(np.diff(np.signbit(fs[1:]))))
        assert changes >= 3
        *_, nodes = kernels.shoot(kind, c1, c2, lam, 1.0, 0.0, 1.0)
        assert nodes == changes
