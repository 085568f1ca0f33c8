"""Certified lower bounds for the first nontrivial Laplacian eigenvalue.

Input is a geometry triple (dimension d, diameter D, Ricci curvature
lower bound K); output is a family of closed-form estimates, a two-sided
bracket built from weighted-integral functionals of the one-dimensional
comparison coefficient, a curvature-corrected combined certificate, and
an independent Sturm-Liouville shooting oracle that cross-validates
every bound.
"""

from .classical import (
    ESTIMATE_NAMES,
    ESTIMATES,
    Estimate,
    alpha_clamp_root,
    bbg,
    beta_quadratic_bound,
    chen_wang_negative,
    chen_wang_sphere,
    chen_wang_sphere_reduced,
    csy_quadratic,
    exp_decay,
    get_estimate,
    lichnerowicz,
    linear_combo,
    sech_fixed_point,
    shi_zhang,
    zhong_yang,
)
from .correction import (
    CombinedBound,
    ConvexMean,
    CurvatureCorrection,
    clamped_correction,
    combined_lower_bound,
    comparison_kernel,
    convex_mean,
    curvature_kernel,
    curvature_multiplier,
    middle_term,
)
from .errors import (
    DegenerateDerivative,
    DivergentIntegral,
    DomainError,
    EigenboundError,
    InvalidTestFunction,
    MyersViolation,
    NoBracket,
    NoConvergence,
    NonPositiveCoefficient,
    NoRoot,
    StiffIntegration,
)
from .geometry import (
    Alpha,
    CoefficientProfile,
    CurvatureSign,
    GeometryTriple,
    alpha_to_curvature,
    make_alpha,
)
from .oracle import (
    EigenResult,
    beta_eigenvalue,
    derivative_identity_residual,
    duality_gap,
    solve_lambda_bar,
    variational_consistency,
)
from .report import BoundReport, build_report, render_table
from .universal import (
    BoundBracket,
    IterationTrace,
    delta,
    delta1,
    delta1_prime,
    delta1_star,
    delta1_star_prime,
    iterate_lower,
    iterate_upper,
    universal_bracket,
    variational_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "Alpha",
    "CoefficientProfile",
    "CurvatureSign",
    "GeometryTriple",
    "alpha_to_curvature",
    "make_alpha",
    # closed-form estimates
    "ESTIMATES",
    "ESTIMATE_NAMES",
    "Estimate",
    "get_estimate",
    "lichnerowicz",
    "bbg",
    "chen_wang_sphere",
    "chen_wang_sphere_reduced",
    "zhong_yang",
    "exp_decay",
    "chen_wang_negative",
    "sech_fixed_point",
    "linear_combo",
    "shi_zhang",
    "csy_quadratic",
    "beta_quadratic_bound",
    "alpha_clamp_root",
    # functional bracket
    "BoundBracket",
    "IterationTrace",
    "delta",
    "delta1",
    "delta1_prime",
    "delta1_star",
    "delta1_star_prime",
    "universal_bracket",
    "iterate_lower",
    "iterate_upper",
    "variational_ratio",
    # curvature correction and combination
    "CombinedBound",
    "ConvexMean",
    "CurvatureCorrection",
    "clamped_correction",
    "combined_lower_bound",
    "comparison_kernel",
    "convex_mean",
    "curvature_kernel",
    "curvature_multiplier",
    "middle_term",
    # oracle
    "EigenResult",
    "beta_eigenvalue",
    "derivative_identity_residual",
    "duality_gap",
    "solve_lambda_bar",
    "variational_consistency",
    # reports
    "BoundReport",
    "build_report",
    "render_table",
    # errors
    "EigenboundError",
    "DomainError",
    "MyersViolation",
    "DivergentIntegral",
    "NoConvergence",
    "NoRoot",
    "NoBracket",
    "StiffIntegration",
    "InvalidTestFunction",
    "NonPositiveCoefficient",
    "DegenerateDerivative",
]
