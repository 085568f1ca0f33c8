"""Tests of the benchmark itself: the reference and the output checks.

    python3 -m pytest perfbench/tests -q

The reference must reproduce the closed forms and find the principal
eigenvalue; every check must pass real outputs and flag a planted error.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import points  # noqa: E402
import reference  # noqa: E402

import eigenbound as eb  # noqa: E402

PI2 = math.pi**2


# -- the reference ------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 20])
def test_reference_flat_is_pi2_over_4(d):
    lam, nodes = reference.lambda_bar(d, 0.0)
    assert lam == pytest.approx(PI2 / 4.0, rel=1e-11)
    assert nodes == 0


@pytest.mark.parametrize("d", [2, 5, 63])
def test_reference_myers_edge_is_d_pi2_over_4(d):
    lam, nodes = reference.lambda_bar(d, points.HALF_PI)
    assert lam == pytest.approx(d * PI2 / 4.0, rel=1e-11)
    assert nodes == 0


@pytest.mark.parametrize("beta, exact", [(0.0, PI2 / 4.0), (0.5, 3.0), (-0.5, 2.0)])
def test_reference_beta_closed_forms(beta, exact):
    lam, nodes = reference.beta_lambda(beta)
    assert lam == pytest.approx(exact, rel=1e-11)
    assert nodes == 0


def test_reference_resolves_the_deep_negative_corner():
    # (d = 20, alpha = -10/3): lambda_bar ~ 1.155e-19, where C spans 22 decades.
    lam, nodes = reference.lambda_bar(20, points.ALPHA_MIN)
    assert lam == pytest.approx(1.155e-19, rel=1e-3)
    assert nodes == 0


def test_reference_counts_nodes_of_a_higher_mode():
    # At alpha = 0 the second eigenvalue is 9 pi^2 / 4; its eigenfunction
    # sin(3 pi s / 2) has one zero in (0, 1), and the mismatch there is pi.
    coef = reference.Coefficient(3, 0.0)
    mis, th, thr = reference.mismatch(coef, math.log(9.0 * PI2 / 4.0))
    assert mis == pytest.approx(math.pi, rel=1e-9)
    assert reference.node_count(th, thr) == 1


def test_reference_finds_the_ground_state_near_the_edge():
    # d = 20, alpha = +1.5: lambda_bar = 45 (to the reference's precision),
    # with no interior zero; a coarse scan in lambda can step over it.
    lam, nodes = reference.lambda_bar(20, 1.5)
    assert lam == pytest.approx(45.0, rel=1e-10)
    assert nodes == 0


def test_cached_table_matches_a_fresh_solve():
    curv, beta = reference.load()
    for d, a in [(3, points.ALPHA_GRID[10]), (10, points.ALPHA_GRID[50])]:
        assert curv[(d, a)] == pytest.approx(reference.lambda_bar(d, a)[0], rel=1e-12)
    assert beta[0.25] == pytest.approx(reference.beta_lambda(0.25)[0], rel=1e-12)
    assert set(curv) == set(points.reference_curvature_points())
    assert set(beta) == set(points.BETA_GRID)


def test_reference_imports_nothing_from_the_package():
    text = (HERE / "reference.py").read_text()
    assert "eigenbound" not in text.replace("``eigenbound``", "")


# -- the checks ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def neg_report():
    pt = points.point(3, -1.0, 20.0)
    return eb.build_report(eb.GeometryTriple(pt.d, pt.D, pt.K), oracle=True), reference.lambda_bar(3, -1.0)[0]


def test_real_report_passes(neg_report):
    rep, lam = neg_report
    assert checks.check_report(rep, lam) == []


def test_lower_bound_nudged_above_reference_is_flagged(neg_report):
    rep, lam = neg_report
    rows = list(rep.rows)
    i = next(k for k, r in enumerate(rows) if r.name == "combined")
    rows[i] = dataclasses.replace(rows[i], value=rep.scale * lam * (1.0 + 1e-6))
    planted = dataclasses.replace(rep, rows=tuple(rows))
    fails = checks.check_report(planted, lam)
    assert any("row combined above" in f for f in fails)
    # The report's own verdict (absolute slack 1e-6) misses it: the verdicts disagree.
    assert any("sandwich verdict" in f for f in fails)


def test_oracle_off_by_1e8_is_flagged(neg_report):
    rep, lam = neg_report
    b = rep.bracket
    assert checks.check_oracle_value(lam, lam, b.lower, b.upper) == []
    assert checks.check_oracle_value(lam * (1.0 + 1e-8), lam, b.lower, b.upper)


def test_oracle_outside_bracket_is_flagged():
    assert checks.check_oracle_value(2.0, 2.0, 1.0, 1.5)


def test_bracket_not_containing_reference_is_flagged(neg_report):
    rep, lam = neg_report
    assert any("bracket upper" in f for f in checks.check_report(rep, rep.bracket.upper * 1.001))


def test_flat_functionals_and_edge_value():
    flat = eb.build_report(eb.GeometryTriple(2, 3.0, 0.0))
    assert checks.check_report(flat, PI2 / 4.0, flat=True) == []
    off = dataclasses.replace(flat, bracket=dataclasses.replace(flat.bracket, delta1=flat.bracket.delta1 * (1 + 1e-7)))
    assert any("delta1 =" in f for f in checks.check_report(off, PI2 / 4.0, flat=True))
    edge = points.edge(3)
    rep = eb.build_report(eb.GeometryTriple(edge.d, edge.D, edge.K))
    assert checks.check_report(rep, 3 * PI2 / 4.0, edge=True) == []


def _iteration(lower=(), upper=(), rayleigh=()):
    return eb.IterationTrace(len(lower or upper), tuple(lower), tuple(upper), tuple(rayleigh), {})


def test_lower_sequence_checks():
    lam = PI2 / 4.0
    good = _iteration(lower=[1 / 2.3, 1 / 2.4, 1 / 2.46])
    assert checks.check_lower_sequence(good, lam) == []
    assert checks.check_lower_sequence(_iteration(lower=[1 / 2.4, 1 / 2.3]), lam)
    assert checks.check_lower_sequence(_iteration(lower=[1 / (lam * (1 + 1e-6))]), lam)


def test_upper_sequence_checks():
    lam = PI2 / 4.0
    good = _iteration(upper=[1 / 2.7, 1 / 2.5], rayleigh=[1 / 2.6, 1 / 2.47])
    assert checks.check_upper_sequences(good, lam) == []
    assert checks.check_upper_sequences(_iteration(upper=[1 / 2.5, 1 / 2.7], rayleigh=[1 / 2.6]), lam)
    assert checks.check_upper_sequences(_iteration(upper=[1 / 2.7], rayleigh=[1 / (lam * (1 - 1e-6))]), lam)


def test_consistency_checks():
    lam = 2.0
    rep = eb.oracle.ConsistencyReport(lam, lam * (1 - 1e-10), lam * (1 - 2e-10))
    assert checks.check_consistency(rep, lam) == []
    assert checks.check_consistency(dataclasses.replace(rep, primal_ratio=lam * (1 + 1e-6)), lam)
    assert checks.check_consistency(dataclasses.replace(rep, eigenvalue=lam * (1 + 1e-8)), lam)


def test_beta_checks():
    assert checks.check_beta(3.0, 3.0, 3.0) == []
    assert checks.check_beta(3.0 * (1 + 1e-8), 3.0, 2.9)
    assert checks.check_beta(2.9, 2.9, 3.0)


def test_profile_checks():
    flat = eb.CoefficientProfile(2, eb.Alpha.zero())
    assert checks.check_profile(flat, flat=True) == []
    neg = eb.CoefficientProfile(3, eb.Alpha.negative(1.0))
    assert checks.check_profile(neg, flat=False) == []
    assert checks.check_profile(neg, flat=True)
