"""Assembled bound reports for a single geometry triple.

Everything the library certifies about one (d, D, K) input in one place:
the closed-form estimates, each flagged invalid where it refuses the
triple, the two-route functional bracket, the combined certificate, and
(optionally) the shooting oracle with its one two-sided sandwich check,
`BoundReport.sandwich_violations`: every valid row at or below the oracle,
and the oracle at or below the certified upper bound.  All report values
live on the manifold eigenvalue scale; the only arithmetic performed here
is the 4/D^2 scale conversion and clamping negatives to zero for the
headline lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import ESTIMATES
from .correction import CombinedBound, combined_lower_bound
from .errors import DomainError
from .geometry import Alpha, CoefficientProfile, GeometryTriple, make_alpha, resolve_profile
from .oracle import EigenResult, solve_lambda_bar
from .universal import BoundBracket, universal_bracket

__all__ = [
    "ReportRow",
    "BoundReport",
    "build_report",
    "render_table",
    "report_records",
]

#: Relative slack of both sides of the oracle sandwich: lower bounds over
#: the oracle, and the oracle over the certified upper bound.
_SANDWICH_SLACK = 1e-6


@dataclass(frozen=True)
class ReportRow:
    """One named lower bound on the manifold scale."""

    name: str
    label: str
    value: float
    valid: bool
    clamped: bool


@dataclass(frozen=True)
class BoundReport:
    """All certified bounds for one input triple."""

    input: GeometryTriple
    alpha: Alpha
    rows: tuple[ReportRow, ...]
    bracket: BoundBracket
    combined: CombinedBound
    oracle: EigenResult | None

    @property
    def scale(self) -> float:
        """Conversion factor from the reduced scale to the manifold scale."""
        return 4.0 / self.input.D**2

    @property
    def best_lower(self) -> tuple[str, float]:
        """Largest valid lower bound, negatives clamped to zero."""
        name, value = "trivial", 0.0
        for row in self.rows:
            if row.valid and math.isfinite(row.value) and row.value > value:
                name, value = row.name, row.value
        return name, value

    @property
    def oracle_value(self) -> float | None:
        """Oracle eigenvalue on the manifold scale, if solved."""
        if self.oracle is None:
            return None
        return self.scale * self.oracle.eigenvalue

    def sandwich_violations(self) -> list[tuple[str, float]]:
        """Both sides of the oracle sandwich, each at _SANDWICH_SLACK relative.

        Returns (name, relative excess) pairs: each valid row above the
        oracle eigenvalue, then ("bracket_upper", excess) when the oracle
        sits above the certified upper bound.  Empty without an oracle.
        The comparison is scale-free: rounding on the reduced scale stays
        rounding after the 4/D^2 factor.
        """
        if self.oracle is None:
            return []
        lam = self.oracle_value
        bad = [
            (row.name, (row.value - lam) / lam)
            for row in self.rows
            if row.valid and math.isfinite(row.value) and row.value > lam * (1.0 + _SANDWICH_SLACK)
        ]
        upper = self.scale * self.bracket.upper
        if lam > upper * (1.0 + _SANDWICH_SLACK):
            bad.append(("bracket_upper", (lam - upper) / upper))
        return bad


def build_report(
    g: GeometryTriple,
    *,
    oracle: bool = False,
    tol: float = 1e-11,
    profile: CoefficientProfile | None = None,
) -> BoundReport:
    """Evaluate every applicable bound for the triple.

    Rows hold lower bounds only (the bracket carries the upper side).
    Each estimate is evaluated once; one that refuses the triple with
    DomainError appears flagged invalid with a NaN value rather than a
    misleading number.
    """
    alpha = make_alpha(g)
    prof = resolve_profile(g.d, alpha, profile)
    scale = 4.0 / g.D**2

    rows: list[ReportRow] = []
    for est in ESTIMATES:
        try:
            value, valid = est(g), True
        except DomainError:
            value, valid = math.nan, False
        rows.append(ReportRow(est.name, est.label, value, valid, False))

    bracket = universal_bracket(g.d, alpha, profile=prof)
    rows.append(
        ReportRow(
            "delta1_route",
            "functional route sup(phi-weighted)",
            scale / bracket.delta1,
            True,
            False,
        )
    )
    rows.append(
        ReportRow(
            "delta1_star_route",
            "functional route sup(psi-weighted)",
            scale / bracket.delta1_star,
            True,
            False,
        )
    )

    combined = combined_lower_bound(g, profile=prof)
    rows.append(
        ReportRow(
            "corrected",
            "curvature-corrected parabola sup",
            combined.terms["middle"],
            True,
            combined.correction.clamped,
        )
    )
    rows.append(
        ReportRow(
            "combined",
            "combined certificate (max of three terms)",
            combined.value,
            True,
            combined.correction.clamped,
        )
    )

    result = solve_lambda_bar(g.d, alpha, profile=prof, tol=tol) if oracle else None
    return BoundReport(g, alpha, tuple(rows), bracket, combined, result)


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "-"
    return f"{x:.12g}"


def render_table(report: BoundReport) -> str:
    """Human-readable report; all bound values on the manifold scale."""
    g = report.input
    lines = [
        f"input: d={g.d}  D={_fmt(g.D)}  K={_fmt(g.K)}",
        f"alpha: {report.alpha.sign.name}  |alpha|={_fmt(report.alpha.magnitude)}",
        "",
        "lower bounds (manifold scale):",
    ]
    width = max(len(r.name) for r in report.rows)
    for row in report.rows:
        flags = []
        if not row.valid:
            flags.append("invalid")
        if row.clamped:
            flags.append("clamped")
        tag = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(f"  {row.name:<{width}}  {_fmt(row.value):>18}{tag}")
    name, value = report.best_lower
    lines.append("")
    lines.append(f"best lower bound: {_fmt(value)}  ({name})")

    b = report.bracket
    s = report.scale
    lines.append("")
    lines.append("two-sided bracket (manifold scale):")
    lines.append(
        f"  {_fmt(s * b.crude_lower)} <= {_fmt(s * b.lower)}"
        f" <= eigenvalue <= {_fmt(s * b.upper)} <= {_fmt(s * b.crude_upper)}"
    )
    lines.append(
        "  functionals (reduced scale):"
        f" delta={_fmt(b.delta)} delta1={_fmt(b.delta1)}"
        f" delta1'={_fmt(b.delta1_prime)} delta1*={_fmt(b.delta1_star)}"
        f" delta1*'={_fmt(b.delta1_star_prime)}"
    )

    if report.oracle is not None:
        lines.append("")
        lines.append(f"oracle eigenvalue: {_fmt(report.oracle_value)}")
        bad = report.sandwich_violations()
        if bad:
            worst = ", ".join(f"{n} (+{e:.3g} relative)" for n, e in bad)
            lines.append(f"  SANDWICH VIOLATION: {worst}")
        else:
            lines.append(
                "  all valid lower bounds sit at or below the oracle value,"
                " and the oracle at or below the certified upper bound"
            )
    return "\n".join(lines)


def report_records(report: BoundReport) -> list[tuple[str, float, str, str]]:
    """Flat (name, value, valid, clamped) records for machine output.

    Bracket endpoints and the oracle value are appended as extra rows so
    one table carries the whole report; everything is on the manifold
    scale declared by the caller's metadata header.
    """
    recs = [
        (row.name, row.value, str(row.valid).lower(), str(row.clamped).lower())
        for row in report.rows
    ]
    s = report.scale
    b = report.bracket
    recs.append(("bracket_crude_lower", s * b.crude_lower, "true", "false"))
    recs.append(("bracket_lower", s * b.lower, "true", "false"))
    recs.append(("bracket_upper", s * b.upper, "true", "false"))
    recs.append(("bracket_crude_upper", s * b.crude_upper, "true", "false"))
    name, value = report.best_lower
    recs.append((f"best_lower:{name}", value, "true", "false"))
    if report.oracle is not None:
        recs.append(("oracle", report.oracle_value, "true", "false"))
    return recs
