"""Shooting oracle for the one-dimensional reduced eigenvalue problems.

Everything downstream of a coefficient profile can be cross-checked here:
eigenvalues are located by integrating the initial value problem with the
Dormand-Prince kernel and bisecting a boundary functional in lambda, with
no reference to the quadrature lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DegenerateDerivative,
    DomainError,
    EigenboundError,
    NoBracket,
    NoRoot,
    StiffIntegration,
)
from .geometry import Alpha, CoefficientProfile, CurvatureSign
from .quadrature import integrate
from .searches import bisect_root, first_sign_change
from .universal import delta1_prime, delta1_star_prime

HALF_PI = math.pi / 2.0

#: Domain shortening at the singular endpoint (|alpha| = pi/2 exactly).
SINGULAR_TRIM = 1e-8

#: Scan window when no profile is available to seed one.
DEFAULT_CEILING = 50.0

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

KIND_LINEAR = 0  # F(r) = c1 r
KIND_TANH = 1    # F(r) = c1 tanh(c2 r)
KIND_TAN = 2     # F(r) = c1 tan(c2 r)


@dataclass(frozen=True)
class EigenProblem:
    """One shooting family: f'' + F f' + lam f = 0 on [0, r_end].

    kind (KIND_LINEAR, KIND_TANH or KIND_TAN), c1 and c2 select the drift F
    inside the integration kernel; the boundary conditions fix which end
    states are imposed at 0 and which boundary functional is driven to zero
    at r_end.
    """

    kind: int
    c1: float
    c2: float
    bc_left: str
    bc_right: str
    r_end: float = 1.0
    label: str = ""

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_TANH, KIND_TAN):
            raise DomainError(f"unknown kernel kind {self.kind}")
        for bc in (self.bc_left, self.bc_right):
            if bc not in (DIRICHLET, NEUMANN):
                raise DomainError(
                    f"boundary condition must be {DIRICHLET!r} or {NEUMANN!r}, got {bc!r}"
                )
        if not (0.0 < self.r_end <= 1.0):
            raise DomainError(f"r_end must lie in (0, 1], got {self.r_end}")

    def drift(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == KIND_LINEAR:
            return self.c1 * r
        if self.kind == KIND_TANH:
            return self.c1 * np.tanh(self.c2 * r)
        return self.c1 * np.tan(self.c2 * r)

    def drift_slope(self, r):
        """dF/dr, needed by the derivative-identity checker."""
        r = np.asarray(r, dtype=float)
        if self.kind == KIND_LINEAR:
            return np.full_like(r, self.c1)
        if self.kind == KIND_TANH:
            return self.c1 * self.c2 / np.cosh(self.c2 * r) ** 2
        return self.c1 * self.c2 / np.cos(self.c2 * r) ** 2


def _check_pair(d: int, alpha: Alpha) -> None:
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DomainError(f"dimension must be an integer >= 1, got {d!r}")
    if d == 1 and alpha.sign is not CurvatureSign.ZERO:
        raise DomainError("d = 1 admits only the zero-curvature parameter")


def reduced_problem(d: int, alpha: Alpha) -> EigenProblem:
    """Dirichlet-at-0 / Neumann-at-1 drift problem for the diameter-scale bound.

    The drift is the logarithmic derivative of the model coefficient; at the
    borderline positive parameter the tangent blows up at 1, so the domain is
    trimmed by SINGULAR_TRIM there.
    """
    _check_pair(d, alpha)
    if d == 1 or alpha.sign is CurvatureSign.ZERO:
        return EigenProblem(KIND_LINEAR, 0.0, 0.0, DIRICHLET, NEUMANN, label="flat")
    a = alpha.magnitude
    if alpha.sign is CurvatureSign.NEGATIVE_K:
        return EigenProblem(
            KIND_TANH, (d - 1) * a, a, DIRICHLET, NEUMANN, label="tanh drift"
        )
    r_end = 1.0 - SINGULAR_TRIM if alpha.at_half_pi else 1.0
    return EigenProblem(
        KIND_TAN, -(d - 1) * a, a, DIRICHLET, NEUMANN, r_end=r_end, label="tan drift"
    )


def dual_problem(d: int, alpha: Alpha) -> EigenProblem:
    """Adjoint family: drift sign flipped, boundary conditions swapped."""
    base = reduced_problem(d, alpha)
    return EigenProblem(
        base.kind,
        -base.c1,
        base.c2,
        NEUMANN,
        DIRICHLET,
        r_end=base.r_end,
        label=f"dual {base.label}",
    )


def beta_problem(beta: float) -> EigenProblem:
    """Polynomial-model drift F(r) = -2 beta r, Dirichlet at 0, Neumann at 1."""
    beta = float(beta)
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    return EigenProblem(
        KIND_LINEAR, -2.0 * beta, 0.0, DIRICHLET, NEUMANN, label="linear drift"
    )


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Solved principal eigenvalue with dense eigenfunction samples.

    f and fp share one overall scale.  When the integrator never had to
    renormalize, that scale is the raw one (unit initial slope after a
    Dirichlet start, unit initial value after a Neumann start); otherwise
    the pair is rescaled so the largest magnitude stays representable.
    """

    problem: EigenProblem
    eigenvalue: float
    boundary_mismatch: float
    scan_ceiling: float
    r: np.ndarray
    f: np.ndarray
    fp: np.ndarray

    def interpolant(self) -> "HermitePath":
        return HermitePath(self.r, self.f, self.fp)


class HermitePath:
    """Cubic Hermite interpolant through uniformly spaced (f, f') samples.

    The integrator already paid for a derivative at every node, so each cell
    carries an O(h^4) interpolant with no further solves.
    """

    def __init__(self, r: np.ndarray, f: np.ndarray, fp: np.ndarray):
        self.r = np.asarray(r, dtype=float)
        self.f = np.asarray(f, dtype=float)
        self.fp = np.asarray(fp, dtype=float)
        if self.r.size < 2:
            raise DomainError("an interpolant needs at least two samples")
        self.h = float(self.r[1] - self.r[0])

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip((x - self.r[0]) // self.h, 0, self.r.size - 2).astype(np.intp)
        t = (x - self.r[i]) / self.h
        return i, t

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i, t = self._locate(x.ravel())
        t2 = t * t
        t3 = t2 * t
        out = (
            (2.0 * t3 - 3.0 * t2 + 1.0) * self.f[i]
            + (t3 - 2.0 * t2 + t) * self.h * self.fp[i]
            + (3.0 * t2 - 2.0 * t3) * self.f[i + 1]
            + (t3 - t2) * self.h * self.fp[i + 1]
        )
        return out.reshape(x.shape)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        i, t = self._locate(x.ravel())
        t2 = t * t
        out = (
            (6.0 * t2 - 6.0 * t) / self.h * (self.f[i] - self.f[i + 1])
            + (3.0 * t2 - 4.0 * t + 1.0) * self.fp[i]
            + (3.0 * t2 - 2.0 * t) * self.fp[i + 1]
        )
        return out.reshape(x.shape)


def _left_state(prob: EigenProblem) -> tuple[float, float]:
    if prob.bc_left == DIRICHLET:
        return 0.0, 1.0
    return 1.0, 0.0


def _shoot_once(prob, lam, atol, rtol):
    """Boundary functional at one lambda: (signed value, normalized mismatch)."""
    f0, g0 = _left_state(prob)
    f, g, _, status, steps = kernels.shoot(
        prob.kind, prob.c1, prob.c2, lam, prob.r_end, f0, g0, atol, rtol
    )
    if status != kernels.STATUS_OK:
        raise StiffIntegration(
            f"integrator gave up at lambda = {lam:.6g} (status {status}, {steps} steps)"
        )
    target = g if prob.bc_right == NEUMANN else f
    scale = max(abs(f), abs(g))
    mismatch = abs(target) / scale if scale > 0.0 else abs(target)
    return target, mismatch


def _unfold(fs, gs, ls):
    """Undo the running renormalization with one overall bounded scale.

    The raw left-end normalization is kept whenever the true magnitudes fit
    comfortably in doubles; otherwise everything is rescaled so the largest
    sample sits near one.
    """
    mag = np.maximum(np.abs(fs), np.abs(gs))
    peak = float(np.max(ls + np.log(np.maximum(mag, 1e-300))))
    shift = 0.0 if peak < 100.0 else peak
    w = np.exp(ls - shift)
    return fs * w, gs * w


def _interior_nodes(f: np.ndarray, rel: float = 1e-6) -> bool:
    """True when f changes sign away from the endpoint roundoff layer."""
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        return False
    body = f[np.abs(f) > rel * peak]
    if body.size < 2:
        return False
    return bool(np.any(np.signbit(body[1:]) != np.signbit(body[0])))


def _path_result(prob, lam, ceiling, mismatch, atol, rtol, samples):
    rs = np.linspace(0.0, prob.r_end, samples)
    f0, g0 = _left_state(prob)
    fs, gs, ls, status, steps = kernels.shoot_path(
        prob.kind, prob.c1, prob.c2, lam, rs, f0, g0, atol, rtol
    )
    if status != kernels.STATUS_OK:
        raise StiffIntegration(
            f"path integration failed at lambda = {lam:.6g}"
            f" (status {status}, {steps} steps)"
        )
    f, fp = _unfold(fs, gs, ls)
    return EigenResult(
        problem=prob,
        eigenvalue=lam,
        boundary_mismatch=mismatch,
        scan_ceiling=ceiling,
        r=rs,
        f=f,
        fp=fp,
    )


def principal_eigenvalue(
    prob: EigenProblem,
    tol: float = 1e-11,
    *,
    lam_max: float | None = None,
    atol: float = 1e-11,
    rtol: float = 1e-11,
    scan_steps: int = 64,
    samples: int = 4097,
) -> EigenResult:
    """Smallest positive eigenvalue of one shooting family.

    Scans (0, lam_max] for the first sign change of the boundary functional,
    bisects it to tol, then integrates once more along a dense path.  The
    window doubles a few times when the scan comes up empty, and a denser
    rescan below the root guards against the grid stepping over the ground
    state (two roots inside one scan cell).
    """
    ceiling = float(lam_max) if lam_max is not None else DEFAULT_CEILING
    if not (ceiling > 0.0 and math.isfinite(ceiling)):
        raise DomainError(f"scan ceiling must be finite > 0, got {ceiling}")

    def m(lam):
        return _shoot_once(prob, lam, atol, rtol)[0]

    ref_x = ceiling * 1e-9
    ref = m(ref_x)
    while not ref > 0.0 and ref_x > 1e-250:
        # Strong drift can push the ground state below any fixed reference
        # point; walk down until the functional is positive below the root.
        ref_x *= 1e-3
        ref = m(ref_x)
    if not ref > 0.0:
        raise EigenboundError(
            "boundary functional is not positive near lambda = 0;"
            " the shooting setup is inconsistent"
        )

    lam = None
    for _ in range(5):
        xs = ceiling * np.arange(1, scan_steps + 1) / scan_steps
        try:
            a, b, fa, fb = first_sign_change(m, xs, ref)
        except NoRoot:
            ceiling *= 2.0
            continue
        lam = bisect_root(m, a, b, fa, fb, tol=tol)
        break
    if lam is None:
        raise NoBracket(
            "no sign change of the boundary functional for lambda in"
            f" (0, {ceiling / 2.0:.6g}]"
        )

    mismatch = _shoot_once(prob, lam, atol, rtol)[1]
    result = _path_result(prob, lam, ceiling, mismatch, atol, rtol, samples)
    if not _interior_nodes(result.f):
        return result

    # Landed on a higher mode: look for an earlier crossing below it.
    xs = lam * (1.0 - 1e-12) * np.arange(1, 513) / 512
    try:
        a, b, fa, fb = first_sign_change(m, xs, ref)
    except NoRoot:
        raise NoBracket(
            "eigenfunction has interior zeros but no earlier sign change exists;"
            " the boundary functional is not behaving like a ground-state scan"
        )
    lam = bisect_root(m, a, b, fa, fb, tol=tol)
    mismatch = _shoot_once(prob, lam, atol, rtol)[1]
    result = _path_result(prob, lam, ceiling, mismatch, atol, rtol, samples)
    if _interior_nodes(result.f):
        raise NoBracket("eigenfunction keeps interior zeros after a denser rescan")
    return result


def scan_ceiling(profile: CoefficientProfile) -> float:
    """Four times the lattice route's guaranteed upper bound, plus slack.

    Seeding the scan from the functional machinery means the two independent
    routes meet: the oracle only searches where the lattice says the
    eigenvalue can live.
    """
    upper = min(1.0 / delta1_prime(profile), 1.0 / delta1_star_prime(profile))
    return 4.0 * upper + 10.0


def _resolve_profile(d: int, alpha: Alpha, profile) -> CoefficientProfile:
    if profile is None:
        return CoefficientProfile(d, alpha)
    if profile.d != d or profile.alpha != alpha:
        raise DomainError("profile does not match the requested (d, alpha)")
    return profile


def solve_lambda_bar(
    d: int,
    alpha: Alpha,
    *,
    dual: bool = False,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> EigenResult:
    """Principal eigenvalue of the reduced problem (or its dual form)."""
    _check_pair(d, alpha)
    p = _resolve_profile(d, alpha, profile)
    prob = dual_problem(d, alpha) if dual else reduced_problem(d, alpha)
    return principal_eigenvalue(prob, tol=tol, lam_max=scan_ceiling(p))


def duality_gap(
    d: int,
    alpha: Alpha,
    *,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> tuple[EigenResult, EigenResult, float]:
    """(primal, dual, relative gap): both families share one eigenvalue.

    The gap is |primal - dual| / max(|primal|, |dual|), so it reads the
    same at every eigenvalue scale.
    """
    _check_pair(d, alpha)
    p = _resolve_profile(d, alpha, profile)
    hi = scan_ceiling(p)
    primal = principal_eigenvalue(reduced_problem(d, alpha), tol=tol, lam_max=hi)
    adjoint = principal_eigenvalue(dual_problem(d, alpha), tol=tol, lam_max=hi)
    p_val, d_val = primal.eigenvalue, adjoint.eigenvalue
    return primal, adjoint, abs(p_val - d_val) / max(abs(p_val), abs(d_val))


def beta_eigenvalue(beta: float, tol: float = 1e-11) -> EigenResult:
    """Principal eigenvalue of the polynomial-model drift problem."""
    beta = float(beta)
    hi = 4.0 * (math.pi**2 / 4.0 + 3.0 * abs(beta) + 1.0) + 10.0
    return principal_eigenvalue(beta_problem(beta), tol=tol, lam_max=hi)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the weighted derivative identity and their defects."""

    s: float
    eigenvalue: float
    ell: float
    lhs: float
    rhs: float
    residual: float
    g_slope_origin: float
    g_end: float


#: Relative lift applied to the eigenvalue so f' crosses zero inside [0, 1].
_IDENTITY_LIFT = 3e-7


def derivative_identity_residual(
    d: int,
    alpha: Alpha,
    s: float,
    *,
    tol: float = 1e-11,
    samples: int = 8193,
) -> IdentityReport:
    """Residual of 4s(1-s) int g'^2 = int (lam + s F') g^2 for g = (f')^(1/(2(1-s))).

    For the true eigenfunction f' vanishes only at the Neumann endpoint, where
    the finite shooting tolerance leaves a defect that fractional powers
    amplify.  Lifting lambda by a whisker moves the zero of f' to an interior
    point ell, and the lifted pair restricted to [0, ell] is an exact
    eigenpair: g(ell) = 0 and g'(0) = 0 hold by construction, so the identity
    can be tested cleanly.

    The left side is integrated in the variable v = f': with f'' < 0 on
    (0, ell] the substitution is exact, the coefficient collapses, and after
    flattening the remaining power the integrand is just |f''| at the radius
    where f' takes a prescribed value, so no fractional-power singularity
    ever reaches the quadrature.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"the exponent parameter must lie in (0, 1), got {s}")
    prob = reduced_problem(d, alpha)
    base = principal_eigenvalue(prob, tol=tol, samples=samples)
    lam = base.eigenvalue * (1.0 + _IDENTITY_LIFT)

    rs = np.linspace(0.0, prob.r_end, samples)
    fs, gs, ls, status, steps = kernels.shoot_path(
        prob.kind, prob.c1, prob.c2, lam, rs, 0.0, 1.0, tol, tol
    )
    if status != kernels.STATUS_OK:
        raise StiffIntegration(
            f"path integration failed during the identity check ({steps} steps)"
        )
    f, fp = _unfold(fs, gs, ls)
    path = HermitePath(rs, f, fp)

    nonpos = np.nonzero(fp <= 0.0)[0]
    if nonpos.size == 0:
        raise DegenerateDerivative(
            "f' never crosses zero; the eigenvalue lift was too small"
        )
    k = int(nonpos[0])
    if k == 0 or np.any(fp[:k] <= 0.0):
        raise DegenerateDerivative("f' is not positive up to its first zero")
    ell = bisect_root(
        path.deriv, rs[k - 1], rs[k], fp[k - 1], fp[k], tol=1e-15, max_iter=120
    )

    def second(x):
        x = np.asarray(x, dtype=float)
        return -lam * path(x) - prob.drift(x) * path.deriv(x)

    body = second(rs[1:k])
    if np.any(body >= 0.0):
        raise DegenerateDerivative(
            "f'' changes sign on (0, ell]; the exponent substitution needs"
            " a strictly decreasing f'"
        )

    v0 = float(fp[0])
    b = s / (1.0 - s)

    def radius_of_slope(v):
        """Invert the strictly decreasing f' on [0, ell] by vector bisection."""
        lo = np.zeros_like(v)
        hi = np.full_like(v, ell)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            take = path.deriv(mid) > v
            lo = np.where(take, mid, lo)
            hi = np.where(take, hi, mid)
        return 0.5 * (lo + hi)

    def lhs_flat(y):
        v = v0 * np.power(y, 1.0 / b)
        return -second(radius_of_slope(v))

    lhs = v0**b * integrate(lhs_flat, 0.0, 1.0, tol=1e-12)

    two_t = 1.0 / (1.0 - s)

    def rhs_integrand(x):
        slope = np.maximum(path.deriv(x), 0.0)
        return (lam + s * prob.drift_slope(x)) * np.power(slope, two_t)

    rhs = integrate(rhs_integrand, 0.0, ell, tol=1e-12)

    t = 0.5 * two_t
    g_slope_origin = t * v0 ** (t - 1.0) * float(second(np.array([0.0]))[0])
    g_end = max(float(path.deriv(np.array([ell]))[0]), 0.0) ** t
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(
        s=s,
        eigenvalue=lam,
        ell=ell,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        g_slope_origin=g_slope_origin,
        g_end=g_end,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Solved eigenvalue against both lattice Rayleigh ratios."""

    eigenvalue: float
    primal_ratio: float
    dual_ratio: float

    @property
    def worst_gap(self) -> float:
        return max(
            abs(self.primal_ratio - self.eigenvalue),
            abs(self.dual_ratio - self.eigenvalue),
        )


def resample(result: EigenResult, samples: int) -> EigenResult:
    """Re-integrate the solved eigenfunction on a denser uniform path."""
    return _path_result(
        result.problem,
        result.eigenvalue,
        result.scan_ceiling,
        result.boundary_mismatch,
        1e-11,
        1e-11,
        samples,
    )


def _resolve_layer(result: EigenResult, cells_per_layer: int = 8) -> EigenResult:
    """Resample until the steepest boundary layer spans several cells.

    A strong drift concentrates the eigenfunction's fall near one endpoint;
    interpolating across an unresolved layer overshoots and can even turn
    the samples negative.
    """
    span = float(result.r[-1] - result.r[0])
    peak_slope = float(np.max(np.abs(result.fp)))
    if peak_slope == 0.0:
        return result
    layer = float(np.max(np.abs(result.f))) / peak_slope
    h = float(result.r[1] - result.r[0])
    if h <= layer / cells_per_layer:
        return result
    need = cells_per_layer * span / layer
    if need > float(1 << 20):
        raise DomainError(
            "eigenfunction boundary layer is too thin to sample; the"
            " consistency check does not apply this deep into the drift"
        )
    n = 1 << max(12, math.ceil(math.log2(need)))
    return resample(result, n + 1)


def variational_consistency(
    d: int,
    alpha: Alpha,
    *,
    profile: CoefficientProfile | None = None,
    tol: float = 1e-11,
) -> ConsistencyReport:
    """Feed both solved eigenfunctions back through the lattice ratios.

    The primal eigenfunction is admissible for the primal ratio and the dual
    one for the dual ratio; each infimum equals the eigenvalue, so any
    systematic lattice error shows up as a gap.  The dual test function gets
    the bisection residual at its vanishing end removed by an exact linear
    ramp, since lattice points sit close enough to 1 to see it.
    """
    from .universal import variational_ratio

    p = _resolve_profile(d, alpha, profile)
    if reduced_problem(d, alpha).r_end < 1.0:
        raise DomainError(
            "the consistency check needs the untrimmed domain; move off the"
            " borderline positive parameter"
        )
    primal, adjoint, _ = duality_gap(d, alpha, profile=p, tol=tol)
    primal = _resolve_layer(primal)
    adjoint = _resolve_layer(adjoint)

    fstar = adjoint.interpolant()
    end = float(fstar(np.array([1.0]))[0])

    def corrected(x):
        x = np.asarray(x, dtype=float)
        return fstar(x) - end * x

    pr = variational_ratio(primal.interpolant(), p, form="primal")
    du = variational_ratio(corrected, p, form="dual")
    return ConsistencyReport(primal.eigenvalue, pr, du)
