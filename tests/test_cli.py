"""End-to-end tests for the command-line interface.

Everything runs in-process through main(argv) so exit codes, stdout, and
written files are all observable without spawning shells.  CSV outputs
are treated as a contract: commented metadata header, declared scale,
%.17g floats, empty cells for out-of-domain values, and byte-identical
reruns of the same command.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from eigenbound import cli
from eigenbound.cli import DEFAULT_SWEEP, main
from eigenbound.geometry import GeometryTriple
from eigenbound.report import ReportRow, build_report, render_table

HALF_PI = math.pi / 2.0


def read_csv(path):
    meta, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def cell(row, columns, name):
    return row[columns.index(name)]


def fcell(row, columns, name):
    return float(cell(row, columns, name))


class TestBound:
    def test_flat_table_report(self, capsys):
        rc = main(["bound", "-d", "2", "-D", "2", "-K", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best lower bound" in out
        assert "zhong_yang" in out
        assert "2.46740110027" in out
        assert "<= eigenvalue <=" in out

    def test_oracle_flag_adds_referee_line(self, capsys):
        rc = main(["bound", "-d", "2", "-D", "2", "-K", "0", "--oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "oracle eigenvalue: 2.46740110027" in out
        assert "at or below the oracle" in out

    def test_tiny_diameter_oracle_report_is_clean(self, capsys):
        # The manifold scale 4/D^2 = 4e12 multiplies reduced-scale rounding;
        # the sandwich check is relative, so rounding stays rounding.
        rc = main(["bound", "-d", "2", "-D", "1e-6", "-K", "-1", "--oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SANDWICH VIOLATION" not in out
        assert "at or below the oracle" in out

    def test_tiny_eigenvalue_oracle_sits_inside_certified_bracket(self, capsys):
        # lambda_bar(10, -10/3) ~ 1.1e-8: an absolute shooting tolerance
        # once put the oracle 3.08% above the certified upper bound here.
        rc = main(["bound", "-d", "10", "-D", "20", "-K", "-1", "--oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "VIOLATION" not in out
        assert "at or below the certified upper bound" in out
        report = build_report(GeometryTriple(10, 20.0, -1.0), oracle=True)
        lam, b = report.oracle.eigenvalue, report.bracket
        assert b.lower * (1.0 - 1e-9) <= lam <= b.upper * (1.0 + 1e-9)

    def test_csv_contract_and_determinism(self, tmp_path):
        args = ["bound", "-d", "3", "-D", "2", "-K", "-1", "--format", "csv"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        meta, columns, rows = read_csv(first)
        assert meta[0].startswith("eigenbound ")
        assert any(m.startswith("command: bound") for m in meta)
        assert any("manifold" in m for m in meta if m.startswith("scale:"))
        assert columns == ["name", "value", "valid", "clamped"]
        byname = {r[0]: r for r in rows}
        # Sphere-only estimates sit out of domain at K < 0: empty value cell.
        assert byname["lichnerowicz"][1] == ""
        assert byname["lichnerowicz"][2] == "false"
        assert float(byname["csy_quadratic"][1]) == pytest.approx(2.0)
        winners = [n for n in byname if n.startswith("best_lower:")]
        assert len(winners) == 1
        best = float(byname[winners[0]][1])
        valid_estimates = [
            float(r[1])
            for r in rows
            if r[2] == "true" and not r[0].startswith(("bracket", "best_lower"))
        ]
        assert best == pytest.approx(max(valid_estimates))

    def test_alpha_flag_matches_equivalent_curvature(self, tmp_path):
        # alpha = -1 at d=2, D=2 is the triple K = -1.
        a = tmp_path / "alpha.csv"
        k = tmp_path / "k.csv"
        assert main(
            ["bound", "-d", "2", "--alpha", "-1", "--format", "csv", "--out", str(a)]
        ) == 0
        assert main(
            ["bound", "-d", "2", "-K", "-1", "--format", "csv", "--out", str(k)]
        ) == 0
        assert a.read_bytes() == k.read_bytes()

    @pytest.mark.parametrize(
        "flag, value",
        [("-K", "-1e-3"), ("--alpha", "-1e-3"), ("-K", "-2.5E+0"), ("-K", "-.5e-1")],
    )
    def test_negative_scientific_values_parse(self, tmp_path, flag, value):
        # argparse before Python 3.13 took "-1e-3" for an option and exited 2
        # with "expected one argument"; the "=" spelling always parsed.
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        common = ["bound", "-d", "2", "-D", "2", "--format", "csv"]
        assert main([*common, flag, value, "--out", str(spaced)]) == 0
        assert main([*common, f"{flag}={value}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_myers_violation_is_a_clean_error(self, capsys):
        rc = main(["bound", "-d", "3", "-D", "4", "-K", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("d, K", [(100, "-39600"), (200, "-159200"), (5000, "-4999"), (1000, "-1000")])
    def test_sech_fixed_point_past_cosh_overflow_is_a_clean_error(self, capsys, d, K):
        # The sech fixed point theta passes ~710 at the first three, where
        # 1 / cosh(theta) raised a bare OverflowError.  At all four the
        # integrand tables overflow first, once L = (d - 1) log cosh|alpha|
        # passes ~360, and the error names L.
        rc = main(["bound", "-d", str(d), "-D", "2", "-K", K])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        L = (d - 1) * math.log(math.cosh(math.sqrt(-float(K) / (d - 1))))
        assert f"L = {L:.4g} here" in err and "bug" not in err

    def test_sphere_edge_solves(self, capsys):
        rc = main(["bound", "-d", "2", "--alpha", str(HALF_PI), "--oracle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best lower bound" in out


class TestSandwich:
    def test_planted_violation_reports_relative_excess(self, capsys, monkeypatch):
        report = build_report(GeometryTriple(2, 2.0, 0.0), oracle=True)
        lam = report.oracle_value
        planted = (
            ReportRow("planted", "above the oracle", lam * (1.0 + 1e-3), True, False),
            ReportRow("rounding", "within the slack", lam * (1.0 + 1e-9), True, False),
        )
        report = replace(report, rows=report.rows + planted)
        bad = report.sandwich_violations()
        assert [n for n, _ in bad] == ["planted"]
        assert bad[0][1] == pytest.approx(1e-3, rel=1e-9)
        assert "SANDWICH VIOLATION: planted (+0.001 relative)" in render_table(report)
        monkeypatch.setattr("eigenbound.cli.build_report", lambda *a, **k: report)
        assert main(["bound", "-d", "2", "-D", "2", "-K", "0", "--oracle"]) == 1
        assert "SANDWICH VIOLATION: planted" in capsys.readouterr().out

    def test_oracle_above_upper_bound_is_flagged(self, capsys, monkeypatch):
        report = build_report(GeometryTriple(2, 2.0, 0.0), oracle=True)
        assert report.sandwich_violations() == []
        upper = report.bracket.upper
        within = replace(report.oracle, eigenvalue=upper * (1.0 + 1e-9))
        assert replace(report, oracle=within).sandwich_violations() == []
        above = replace(report.oracle, eigenvalue=upper * (1.0 + 1e-3))
        report = replace(report, oracle=above)
        bad = report.sandwich_violations()
        assert [n for n, _ in bad] == ["bracket_upper"]
        assert bad[0][1] == pytest.approx(1e-3, rel=1e-9)
        text = render_table(report)
        assert "SANDWICH VIOLATION: bracket_upper (+0.001 relative)" in text
        assert "at or below the oracle" not in text
        monkeypatch.setattr("eigenbound.cli.build_report", lambda *a, **k: report)
        assert main(["bound", "-d", "2", "-D", "2", "-K", "0", "--oracle"]) == 1
        assert "SANDWICH VIOLATION: bracket_upper" in capsys.readouterr().out


class TestFigure:
    def test_multiplier_figure_signs(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["figure", "6", "--grid", "21", "--out", str(out)]) == 0
        meta, columns, rows = read_csv(out)
        assert columns == ["x", "multiplier"]
        assert any("reduced" in m for m in meta if m.startswith("scale:"))
        seen_zero = False
        for row in rows:
            x, m = float(row[0]), float(row[1])
            if x == 0.0:
                seen_zero = True
                assert m == pytest.approx(1.0, abs=1e-10)
            elif x < 0.0:
                assert m < 1.0
            else:
                assert m > 1.0
        assert seen_zero

    def test_beta_gap_figure_nonnegative(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "4", "--grid", "12", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["beta", "gap"]
        for row in rows:
            assert float(row[1]) >= -1e-8

    def test_beta_level_figure_dominates_quadratic(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "1", "--grid", "10", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["beta", "lambda0", "quadratic"]
        for row in rows:
            beta = float(row[0])
            assert 0.0 < beta <= 0.5
            assert float(row[1]) >= float(row[2]) - 1e-8

    def test_mixed_figure_has_branch_dependent_cells(self, tmp_path):
        out = tmp_path / "fig9.csv"
        assert main(["figure", "9", "--grid", "8", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        for row in rows:
            x = float(row[0])
            sphere = cell(row, columns, "chen_wang_sphere")
            hyper = cell(row, columns, "chen_wang_negative")
            if x < 0.0:
                assert sphere == ""
                assert hyper != ""
            elif x > 0.0:
                assert sphere != ""
                assert hyper == ""

    def test_hyperbolic_figure_routes_converge_at_strong_drift(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert main(["figure", "8", "--grid", "13", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        last = rows[-1]
        assert float(last[0]) == pytest.approx(6.0)
        upper_a = fcell(last, columns, "delta1_prime_inv")
        upper_b = fcell(last, columns, "delta1_star_prime_inv")
        assert abs(upper_a - upper_b) / upper_b < 0.05
        # Lower route stays below upper route on every row.
        for row in rows:
            assert fcell(row, columns, "delta1_inv") <= (
                fcell(row, columns, "delta1_prime_inv") + 1e-9
            )

    def test_unknown_figure_id(self, capsys):
        assert main(["figure", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["sweep", "--grid", "-1"], ["figure", "7", "--grid", "-3"], ["sweep", "--grid", "0"]])
    def test_grid_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--grid: must be at least 1" in err and "Traceback" not in err

    def test_figure_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "6", "--grid", "15", "--out", str(a)])
        main(["figure", "6", "--grid", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_default_estimates_and_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--dims", "3", "--xmin", "-1", "--xmax", "1",
                "--grid", "9", "--out", str(out),
            ]
        )
        assert rc == 0
        _, columns, rows = read_csv(out)
        assert columns == ["x"] + DEFAULT_SWEEP.split(",")
        assert len(rows) == 9
        xs = [float(r[0]) for r in rows]
        assert xs == pytest.approx(list(np.linspace(-1.0, 1.0, 9)))
        assert all(c != "" for row in rows for c in row)

    def test_chain_order_holds_along_sweep(self, tmp_path):
        out = tmp_path / "chain.csv"
        names = (
            "delta_inv,delta1_inv,delta1_star_inv,"
            "delta1_prime_inv,delta1_star_prime_inv"
        )
        main(
            [
                "sweep", "--dims", "2", "--xmin", "-1.5", "--xmax", "1.2",
                "--grid", "7", "--estimates", names, "--out", str(out),
            ]
        )
        _, columns, rows = read_csv(out)
        for row in rows:
            inv_delta = fcell(row, columns, "delta_inv")
            lower = max(
                fcell(row, columns, "delta1_inv"),
                fcell(row, columns, "delta1_star_inv"),
            )
            upper = min(
                fcell(row, columns, "delta1_prime_inv"),
                fcell(row, columns, "delta1_star_prime_inv"),
            )
            assert inv_delta / 4.0 <= lower + 1e-9
            assert lower <= upper + 1e-9
            assert upper <= inv_delta + 1e-9

    def test_oracle_estimate_sits_inside_dual_routes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        main(
            [
                "sweep", "--dims", "2", "--xmin", "-1", "--xmax", "1",
                "--grid", "5", "--out", str(out),
                "--estimates", "delta1_star_inv,oracle,delta1_star_prime_inv",
            ]
        )
        _, columns, rows = read_csv(out)
        for row in rows:
            lo = fcell(row, columns, "delta1_star_inv")
            lam = fcell(row, columns, "oracle")
            hi = fcell(row, columns, "delta1_star_prime_inv")
            assert lo - 1e-9 <= lam <= hi + 1e-9

    def test_negative_scientific_xmin_parses(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        common = ["sweep", "--dims", "3", "--xmax", "1", "--grid", "5"]
        assert main([*common, "--xmin", "-2.5e0", "--out", str(spaced)]) == 0
        assert main([*common, "--xmin=-2.5e0", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_multi_dimension_template_expansion(self, tmp_path):
        out = tmp_path / "multi.csv"
        rc = main(
            [
                "sweep", "--dims", "2,3", "--xmin", "0", "--xmax", "1",
                "--grid", "4", "--out", str(out),
            ]
        )
        assert rc == 0
        for d in (2, 3):
            path = tmp_path / f"multi_d{d}.csv"
            assert path.exists()
            meta, _, rows = read_csv(path)
            assert len(rows) == 4
            assert any(f"--dims {d}" in m for m in meta)

    def test_multi_dimension_requires_out(self, capsys):
        assert main(["sweep", "--dims", "2,3", "--grid", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["x", "2,1.5", "", ","])
    def test_malformed_dims_is_a_usage_error(self, capsys, dims):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", dims, "--grid", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--dims" in err and "Traceback" not in err

    def test_unknown_estimate_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--estimates", "not_a_thing", "--grid", "4"])
        assert rc == 2
        assert "not_a_thing" in capsys.readouterr().err

    def test_empty_estimates_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--estimates", ",,", "--grid", "4"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_axis_cap_at_half_pi(self, capsys):
        rc = main(["sweep", "--xmax", "2.0", "--grid", "4"])
        assert rc == 2
        assert "pi/2" in capsys.readouterr().err

    def test_axis_ends_take_the_myers_slack(self, capsys):
        # Both ends go through Alpha.positive, as `bound --alpha` does: a
        # value within MYERS_SLACK above pi/2 is the edge, and a larger one
        # at either end is refused before any point is computed.
        common = ["sweep", "--dims", "2", "--grid", "2", "--estimates", "delta_inv"]
        assert main([*common, "--xmin", "1", "--xmax", repr(HALF_PI + 5e-13)]) == 0
        assert main([*common, "--xmin", "2", "--xmax", "1"]) == 2
        assert "pi/2" in capsys.readouterr().err

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--dims", "4", "--xmin", "-0.8", "--xmax", "0.8",
            "--grid", "6",
        ]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_fast_suite_passes_and_reports(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "fast", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "checks passed (fast suite)" in text
        assert "[FAIL]" not in text
        payload = json.loads(out.read_text())
        assert payload and all(item["passed"] for item in payload)
        names = [item["name"] for item in payload]
        assert len(names) == len(set(names))

    def test_sandwich_check_fails_on_upper_violation(self, monkeypatch):
        from eigenbound import checks

        assert checks._check_sandwich()[0]
        solve = checks.build_report

        def oracle_above_upper(g, **kwargs):
            rep = solve(g, **kwargs)
            above = replace(rep.oracle, eigenvalue=rep.bracket.upper * (1.0 + 1e-3))
            return replace(rep, oracle=above)

        monkeypatch.setattr(checks, "build_report", oracle_above_upper)
        passed, detail = checks._check_sandwich()
        assert not passed
        assert "violations: ['2,1.0,0.0:bracket_upper'," in detail

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "leisurely"])


@pytest.mark.parametrize(
    "argv, work",
    [
        (["bound", "-d", "3"], "build_report"),
        (["figure", "9", "--grid", "3"], "_sweep_point"),
        (["sweep", "--dims", "3", "--grid", "3"], "_sweep_point"),
        (["verify", "fast"], "run_suite"),
    ],
    ids=["bound", "figure", "sweep", "verify"],
)
def test_unwritable_out_is_a_clean_error(capsys, monkeypatch, tmp_path, argv, work):
    # An --out directory that does not exist stops the run before any work.
    def work_started(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, work_started)
    out = tmp_path / "missing" / "out.txt"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.parent.exists()
