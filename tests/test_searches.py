"""Scalar search utilities: golden section and Brent root finding."""

import math

import pytest

from eigenbound.errors import NoRoot
from eigenbound.searches import brent_root, golden_max


class TestGoldenMax:
    def test_parabola(self):
        x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_tiny_interval_short_circuits(self):
        x, v = golden_max(lambda t: t, 0.5, 0.5 + 1e-13)
        assert x == pytest.approx(0.5, abs=1e-12)


class TestBisect:
    """brent_root on a bracket: interpolation steps, with bisection where they stall."""

    def test_root_of_cosine(self):
        root = brent_root(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0))
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_exact_endpoint_roots(self):
        assert brent_root(lambda x: x, 0.0, 1.0, 0.0, 1.0) == 0.0
        assert brent_root(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0

    def test_infinite_end_value_keeps_the_finite_end(self):
        # The oracle marks every lambda above the ground state's node-free
        # range with -inf; the answer must still sit within tol of the root.
        root = 0.3

        def f(x):
            return root - x if x <= root else -math.inf

        x = brent_root(f, 0.0, 1.0, root, -math.inf, tol=1e-12)
        assert 0.0 <= x <= 1.0
        assert abs(x - root) <= 1e-12

    def test_same_sign_raises(self):
        with pytest.raises(NoRoot):
            brent_root(lambda x: 1.0, 0.0, 1.0, 1.0, 1.0)
