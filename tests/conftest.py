"""Shared fixtures: session-scoped caches for profiles and oracle solves.

Coefficient profiles memoize their functional sups internally, so
sharing one profile per (d, alpha, segments) across test modules lets
the expensive cases (d = 63, the Myers edge) be paid for once.
"""

from __future__ import annotations

import os
import sys

import pytest

from eigenbound.geometry import Alpha, CoefficientProfile
from eigenbound.oracle import EigenResult, solve_lambda_bar

FULL = os.environ.get("EIGENBOUND_FULL", "").strip() == "1"

requires_full = pytest.mark.skipif(
    not FULL, reason="opt-in long-running check; set EIGENBOUND_FULL=1"
)

_PROFILES: dict = {}
_SOLVES: dict = {}


def get_profile(d: int, alpha: Alpha, segments: int | None = None) -> CoefficientProfile:
    """The shared profile of (d, alpha), on the package's lattice unless segments is given."""
    key = (d, alpha.sign, alpha.magnitude, segments)
    prof = _PROFILES.get(key)
    if prof is None:
        prof = CoefficientProfile(d, alpha) if segments is None else CoefficientProfile(d, alpha, segments=segments)
        _PROFILES[key] = prof
    return prof


def get_lambda(d: int, alpha: Alpha, tol: float = 1e-11) -> EigenResult:
    key = (d, alpha.sign, alpha.magnitude, tol)
    res = _SOLVES.get(key)
    if res is None:
        res = solve_lambda_bar(d, alpha, profile=get_profile(d, alpha), tol=tol)
        _SOLVES[key] = res
    return res


def pytest_collection_modifyitems(config, items):
    if FULL:
        return
    skip = pytest.mark.skip(reason="set EIGENBOUND_FULL=1 to run slow checks")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
