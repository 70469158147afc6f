"""Exception types shared across the package.

A PointError means the point cannot be used; its category, DomainError
or NumericalError, is what every guard reads to name the cause.
"""


class DualNewtonError(Exception):
    """Base class for all package errors."""


class PointError(DualNewtonError):
    """This point cannot be used; back off from it."""


class DomainError(PointError):
    """The point lies outside the model or its objective."""


class NumericalError(PointError):
    """The arithmetic at the point degenerates."""


class DimensionMismatch(DualNewtonError):
    """Operands have incompatible shapes."""


class NonFiniteValue(NumericalError):
    """A computation produced or received a NaN/Inf."""


class NotPositiveDefinite(NumericalError):
    """Cholesky factorization hit a nonpositive pivot."""


class SingularMatrix(NumericalError):
    """LU factorization found a pivot below the singularity threshold."""


class DomainViolation(DomainError):
    """A point left the chart domain of its model (e.g. sigma <= 0)."""


class DivergenceUndefined(DomainError):
    """The alpha-divergence integral does not converge at this point."""


class MomentInfeasible(DomainError):
    """No natural parameter reproduces the requested moment vector."""


class LineSearchFailure(DualNewtonError):
    """Wolfe bracketing exhausted its evaluation budget."""


class QuadratureUnderflow(DomainError):
    """Model density underflowed at every quadrature node."""


class InsufficientIterations(DualNewtonError):
    """Too few iterates to estimate a convergence order."""
