"""Tests for the jitted integration kernels and their pure-Python fallback.

Both paths execute the same statements on the same floats.  The tableau
arithmetic agrees bit for bit; numba's transcendental intrinsics (tanh,
tan) may round one ulp away from the C library's, so the contract for the
drift families is agreement to a couple of ulps per component
with an identical step count — tight enough that frozen oracle values
cannot move between environments, as the subprocess replay check confirms
at 17 significant digits.  numba is optional: where it is not importable
the agreement tests skip and every other test runs the fallback.
"""

import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from eigenbound import kernels

FLAT_LAMBDA = math.pi**2 / 4.0


class TestConfiguration:
    def test_jit_flag_reflects_environment(self):
        # The jit is on iff numba is importable and EIGENBOUND_NO_NUMBA is
        # not one of its documented "on" spellings.
        value = os.environ.get("EIGENBOUND_NO_NUMBA", "")
        want = importlib.util.find_spec("numba") is not None and (
            value.strip().lower() not in {"1", "true", "yes", "on"}
        )
        assert kernels.NUMBA_ENABLED is want

    @pytest.mark.parametrize(
        "value, disabled",
        [
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            (None, False),
            ("", False),
            ("0", False),
            ("false", False),
            ("no", False),
        ],
    )
    def test_env_flag_spellings(self, monkeypatch, value, disabled):
        if value is None:
            monkeypatch.delenv("EIGENBOUND_NO_NUMBA", raising=False)
        else:
            monkeypatch.setenv("EIGENBOUND_NO_NUMBA", value)
        assert kernels._env_disabled() is disabled

    def test_env_flag_disables_jit_in_subprocess(self):
        env = dict(os.environ, EIGENBOUND_NO_NUMBA="true")
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from eigenbound import kernels; print(kernels.NUMBA_ENABLED)",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_warmup_runs(self):
        kernels.warmup()


class TestShooting:
    def test_flat_shot_matches_sine_solution(self):
        # f'' = -lam f, f(0)=0, f'(0)=1  ->  sin(sqrt(lam) r)/sqrt(lam).
        f, g, log_scale, status, steps = kernels.shoot(
            0, 0.0, 0.0, FLAT_LAMBDA, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert log_scale == 0.0
        assert f == pytest.approx(2.0 / math.pi, abs=1e-10)
        assert g == pytest.approx(0.0, abs=1e-10)
        assert steps > 0

    def test_max_steps_status(self):
        _, _, _, status, _ = kernels.shoot(
            1, 2.0, 1.5, 3.7, 1.0, 0.0, 1.0, 1e-11, 1e-11, 5
        )
        assert status == kernels.STATUS_MAX_STEPS

    def test_renormalization_tracks_log_scale(self):
        # lam = -4e5 grows like sinh(632 r): far past RENORM, so the state
        # must be rescaled while log(f) + log_scale stays the true log.
        lam = -4.0e5
        rate = math.sqrt(-lam)
        f, g, log_scale, status, _ = kernels.shoot(
            0, 0.0, 0.0, lam, 1.0, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert log_scale > 0.0
        assert abs(f) < kernels.RENORM
        true_log = rate - math.log(2.0) - math.log(rate)
        assert math.log(abs(f)) + log_scale == pytest.approx(
            true_log, rel=1e-8
        )

    def test_path_endpoint_matches_single_shot(self):
        rs = np.array([0.0, 0.3, 0.7, 1.0])
        fs, gs, ls, status, _ = kernels.shoot_path(
            1, 2.0, 1.5, 3.7, rs, 0.0, 1.0
        )
        assert status == kernels.STATUS_OK
        assert fs[0] == 0.0 and gs[0] == 1.0 and ls[0] == 0.0
        f, g, _, _, _ = kernels.shoot(1, 2.0, 1.5, 3.7, 1.0, 0.0, 1.0)
        assert fs[-1] == pytest.approx(f, rel=1e-9)
        assert gs[-1] == pytest.approx(g, rel=1e-9)


class TestFallbackAgreement:
    """The *_impl names hold the plain-Python versions of the kernels."""

    CASES = [
        (0, 0.0, 0.0, FLAT_LAMBDA),
        (1, 2.0, 1.5, 3.7),
        (2, -1.0, 1.2, 9.0),
    ]

    @staticmethod
    def _assert_ulp_close(jit, plain):
        # (f, g, log_scale, h, status, steps): solution components to a few
        # ulp and counters exact.  h is only the controller's next-step
        # hint — err^(-1/5) turns a one-ulp error-estimate difference into
        # a visible one — so it is not part of the agreement contract.
        for a, b in zip(jit[:3], plain[:3]):
            assert abs(a - b) <= 8.0 * math.ulp(max(abs(a), abs(b), 1e-300))
        assert jit[4:] == plain[4:]

    @pytest.mark.skipif(
        not kernels.NUMBA_ENABLED, reason="jit path disabled in this process"
    )
    @pytest.mark.parametrize("kind, c1, c2, lam", CASES)
    def test_single_shot_agrees_to_ulp(self, kind, c1, c2, lam):
        jit = kernels._integrate(
            kind, c1, c2, lam, 0.0, 1.0, 0.0, 1.0, 0.0, 1e-11, 1e-11, 2_000_000
        )
        plain = kernels._integrate_impl(
            kind, c1, c2, lam, 0.0, 1.0, 0.0, 1.0, 0.0, 1e-11, 1e-11, 2_000_000
        )
        self._assert_ulp_close(jit, plain)
        if kind == 0:
            # No transcendentals in the flat family: exactly equal.
            assert jit == plain

    @pytest.mark.skipif(
        not kernels.NUMBA_ENABLED, reason="jit path disabled in this process"
    )
    def test_path_agrees_to_ulp(self):
        rs = np.linspace(0.0, 1.0, 17)
        jit = kernels._integrate_path(
            1, 2.0, 1.5, 3.7, rs, 0.0, 1.0, 1e-11, 1e-11, 4_000_000
        )
        plain = kernels._integrate_path_impl(
            1, 2.0, 1.5, 3.7, rs, 0.0, 1.0, 1e-11, 1e-11, 4_000_000
        )
        for a, b in zip(jit[:3], plain[:3]):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
            assert np.all(np.abs(a - b) <= 2.0 * np.spacing(scale))
        assert jit[3:] == plain[3:]

    def test_eigenvalue_stable_across_subprocess_paths(self):
        # Full-stack replay: one subprocess runs jitted, one runs fallback;
        # the solved eigenvalue must agree far below the 1e-9 freeze level
        # (empirically the printed 17 digits coincide).
        code = (
            "from eigenbound.geometry import Alpha\n"
            "from eigenbound.oracle import solve_lambda_bar\n"
            "print('%.17g' % solve_lambda_bar(3, Alpha.negative(1.5)).eigenvalue)\n"
        )
        env_jit = dict(os.environ)
        env_jit.pop("EIGENBOUND_NO_NUMBA", None)
        env_plain = dict(os.environ, EIGENBOUND_NO_NUMBA="1")
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            for env in (env_jit, env_plain)
        ]
        assert abs(float(outs[0]) - float(outs[1])) <= 1e-12
        for text in outs:
            assert float(text) == pytest.approx(1.096922393533319, abs=1e-9)
