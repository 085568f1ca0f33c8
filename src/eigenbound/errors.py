"""Exception types shared across the package."""


class EigenboundError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EigenboundError):
    """Inputs lie outside the validity domain of the requested quantity."""


class MyersViolation(DomainError):
    """Positive curvature data incompatible with the diameter restriction.

    For K > 0 and d >= 2 the normalized parameter |alpha| cannot exceed
    pi/2; triples implying a larger value describe no manifold.
    """


class DivergentIntegral(EigenboundError):
    """An adaptive integral met a non-finite panel it cannot narrow further."""


class NoConvergence(EigenboundError):
    """An adaptive routine exhausted its budget before reaching tolerance."""


class NoRoot(EigenboundError):
    """A bracketing scan found no sign change where a root was required."""


class NoBracket(EigenboundError):
    """The eigenvalue scan found no sign change of the boundary functional."""


class StiffIntegration(EigenboundError):
    """The shooting integrator drove its step size below the viable floor."""


class InvalidTestFunction(EigenboundError):
    """A variational test function violates positivity on (0, 1)."""


class NonPositiveCoefficient(EigenboundError):
    """A supplied coefficient profile fails a(x) > 0 on the interval."""


class DegenerateDerivative(EigenboundError):
    """f' lost positivity where the derivative-substitution identity needs it."""
