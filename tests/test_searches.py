"""Scalar search utilities: sup scans, sign-change walks, bisection."""

import math

import numpy as np
import pytest

from eigenbound.errors import NoRoot
from eigenbound.searches import (
    bisect_root,
    first_sign_change,
    golden_max,
    sup_on_unit_interval,
)


class TestGoldenMax:
    def test_parabola(self):
        x, v = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_tiny_interval_short_circuits(self):
        x, v = golden_max(lambda t: t, 0.5, 0.5 + 1e-13)
        assert x == pytest.approx(0.5, abs=1e-12)


class TestUnitIntervalSup:
    def test_smooth_interior_maximum(self):
        x, v = sup_on_unit_interval(lambda t: np.sin(math.pi * t))
        assert v == pytest.approx(1.0, abs=1e-10)
        assert x == pytest.approx(0.5, abs=1e-6)

    def test_boundary_supremum_approached(self):
        # sup of t over (0, 1) is 1, attained only in the limit; the scan
        # must get within grid resolution of it.
        _, v = sup_on_unit_interval(lambda t: np.asarray(t))
        assert 0.999 < v < 1.0

    def test_infinite_value_short_circuits(self):
        x, v = sup_on_unit_interval(
            lambda t: np.where(np.asarray(t) > 0.7, np.inf, 0.0)
        )
        assert math.isinf(v)
        assert x > 0.7

    def test_nan_values_ignored(self):
        def f(t):
            t = np.asarray(t, dtype=float)
            out = np.sin(math.pi * t)
            return np.where(t < 0.1, np.nan, out)

        _, v = sup_on_unit_interval(f)
        assert v == pytest.approx(1.0, abs=1e-10)


class TestFirstSignChange:
    def test_first_cell_uses_reference_value(self):
        # The reference value anchors the scan at 0, so a root below the
        # first grid point is still caught in the cell [0, xs[0]].
        xs = np.array([0.5, 1.0, 2.0])
        a, b, fa, fb = first_sign_change(lambda x: 0.1 - x, xs, f0=0.1)
        assert (a, b) == (0.0, 0.5)
        assert fa == 0.1 and fb < 0.0

    def test_walks_to_later_cell(self):
        xs = np.linspace(0.1, 3.0, 30)
        a, b, fa, fb = first_sign_change(lambda x: math.cos(x), xs, f0=1.0)
        assert a < math.pi / 2.0 < b

    def test_no_change_raises(self):
        with pytest.raises(NoRoot):
            first_sign_change(lambda x: 1.0 + x, np.linspace(0.1, 1.0, 5), f0=2.0)


class TestBisect:
    def test_root_of_cosine(self):
        root = bisect_root(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0))
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_exact_endpoint_roots(self):
        assert bisect_root(lambda x: x, 0.0, 1.0, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0, -1.0, 0.0) == 1.0

    def test_infinite_end_value_keeps_the_finite_end(self):
        # The oracle marks every lambda above the ground state's node-free
        # range with -inf; the answer must still sit within tol of the root.
        root = 0.3

        def f(x):
            return root - x if x <= root else -math.inf

        x = bisect_root(f, 0.0, 1.0, root, -math.inf, tol=1e-12)
        assert 0.0 <= x <= 1.0
        assert abs(x - root) <= 1e-12

    def test_same_sign_raises(self):
        with pytest.raises(NoRoot):
            bisect_root(lambda x: 1.0, 0.0, 1.0, 1.0, 1.0)
