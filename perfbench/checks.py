"""Checks on every benchmark operation's output.

Each check compares an output of ``eigenbound`` with the independent
reference lambda_bar (``reference.py``) or with a property the method must
have, and returns a list of human-readable failures (empty when it
passes).  Comparisons are relative, so they mean the same at every scale.
Nothing here compares with a stored copy of the package's own output.
"""

from __future__ import annotations

import math

#: Relative slack of every comparison with the reference, and the oracle's
#: accuracy target.
SLACK = 1e-9

PI2 = math.pi**2

#: delta, delta1, delta1', delta1*, delta1*' at alpha = 0 (C = 1).
FLAT_FUNCTIONALS = {
    "delta": 0.25,
    "delta1": 5.0 ** (1.0 / 3.0) / 4.0,
    "delta1_prime": 0.375,
    "delta1_star": 5.0 ** (1.0 / 3.0) / 4.0,
    "delta1_star_prime": 0.375,
}


def _above(x: float, ref: float) -> bool:
    """x exceeds ref by more than the relative slack."""
    return x > ref + SLACK * abs(ref)


def _off(x: float, ref: float) -> bool:
    """x differs from ref by more than the relative slack."""
    return not abs(x - ref) <= SLACK * abs(ref)


def check_profile(profile, flat: bool) -> list[str]:
    """phi(1) and psi(0) finite and positive; both equal 1 when C = 1."""
    fails = []
    for name, total in (("phi(1)", profile.phi_total), ("psi(0)", profile.psi_total)):
        if not (math.isfinite(total) and total > 0.0):
            fails.append(f"{name} = {total!r}")
        elif flat and _off(total, 1.0):
            fails.append(f"{name} = {total!r} at alpha = 0, expected 1")
    return fails


def lower_rows_exceeding(report, lam_ref: float) -> list[str]:
    """Valid report rows above the reference eigenvalue on the manifold scale."""
    top = report.scale * lam_ref
    return [
        row.name
        for row in report.rows
        if row.valid and math.isfinite(row.value) and _above(row.value, top)
    ]


def check_report(report, lam_ref: float, *, flat: bool = False, edge: bool = False) -> list[str]:
    """A bound report (with or without oracle) against lambda_bar_ref."""
    fails = [f"row {n} above lambda_ref" for n in lower_rows_exceeding(report, lam_ref)]
    b = report.bracket
    if _above(b.lower, lam_ref):
        fails.append(f"bracket lower {b.lower!r} above lambda_ref {lam_ref!r}")
    if _above(lam_ref, b.upper):
        fails.append(f"bracket upper {b.upper!r} below lambda_ref {lam_ref!r}")
    chain = b.chain()
    for lo, hi, names in zip(chain, chain[1:], ("crude_lower/lower", "lower/upper", "upper/crude_upper")):
        if _above(lo, hi):
            fails.append(f"chain order {names} broken: {lo!r} > {hi!r}")
    if flat:
        for name, exact in FLAT_FUNCTIONALS.items():
            got = getattr(b, name)
            if _off(got, exact):
                fails.append(f"{name} = {got!r} at alpha = 0, expected {exact!r}")
    if edge:
        exact = report.input.d * PI2 / report.input.D**2
        got = report.best_lower[1]
        if _off(got, exact):
            fails.append(f"best lower {got!r} on the Myers edge, expected {exact!r}")
    if report.oracle is not None:
        fails += check_oracle_value(report.oracle.eigenvalue, lam_ref, b.lower, b.upper)
        independent = bool(lower_rows_exceeding(report, lam_ref))
        own = bool(report.sandwich_violations())
        if own != independent:
            fails.append(f"sandwich verdict {own} disagrees with the reference verdict {independent}")
    return fails


def check_oracle_value(value: float, lam_ref: float, lower: float, upper: float) -> list[str]:
    """Oracle eigenvalue within SLACK of the reference and inside the bracket."""
    fails = []
    if _off(value, lam_ref):
        fails.append(f"oracle {value!r} vs lambda_ref {lam_ref!r} (rel {value / lam_ref - 1:.3g})")
    if _above(lower, value) or _above(value, upper):
        fails.append(f"oracle {value!r} outside the bracket [{lower!r}, {upper!r}]")
    return fails


def check_beta(value: float, lam_ref: float, quadratic: float) -> list[str]:
    """lambda_0(beta) against the reference and above the quadratic bound."""
    fails = []
    if _off(value, lam_ref):
        fails.append(f"beta eigenvalue {value!r} vs lambda_ref {lam_ref!r}")
    if _above(quadratic, value):
        fails.append(f"quadratic bound {quadratic!r} above the eigenvalue {value!r}")
    return fails


def _monotone(seq, increasing: bool) -> bool:
    pairs = zip(seq, seq[1:])
    if increasing:
        return all(not _above(a, b) for a, b in pairs)
    return all(not _above(b, a) for a, b in pairs)


def check_lower_sequence(trace, lam_ref: float) -> list[str]:
    """1/delta_n non-decreasing and never above lambda_ref."""
    bounds = [1.0 / x for x in trace.lower_sequence]
    fails = []
    if not _monotone(bounds, increasing=True):
        fails.append(f"1/delta_n not non-decreasing: {bounds}")
    if any(_above(v, lam_ref) for v in bounds):
        fails.append(f"1/delta_n above lambda_ref {lam_ref!r}: {bounds}")
    return fails


def check_upper_sequences(trace, lam_ref: float) -> list[str]:
    """The clamped sup-inf and Rayleigh bounds non-increasing, never below lambda_ref."""
    fails = []
    for name, seq in (("upper", trace.upper_sequence), ("rayleigh", trace.rayleigh_sequence)):
        bounds = [1.0 / x for x in seq]
        if not _monotone(bounds, increasing=False):
            fails.append(f"{name} bounds not non-increasing: {bounds}")
        if any(_above(lam_ref, v) for v in bounds):
            fails.append(f"{name} bound below lambda_ref {lam_ref!r}: {bounds}")
    return fails


def check_consistency(rep, lam_ref: float) -> list[str]:
    """Both variational ratios at most lambda_ref and within the consistency gap."""
    fails = []
    if _off(rep.eigenvalue, lam_ref):
        fails.append(f"oracle {rep.eigenvalue!r} vs lambda_ref {lam_ref!r}")
    reach = rep.worst_gap + SLACK * lam_ref
    for name, ratio in (("primal", rep.primal_ratio), ("dual", rep.dual_ratio)):
        if _above(ratio, lam_ref):
            fails.append(f"{name} ratio {ratio!r} above lambda_ref {lam_ref!r}")
        if lam_ref - ratio > reach:
            fails.append(f"{name} ratio {ratio!r} further than the gap {rep.worst_gap!r} below lambda_ref")
    return fails
