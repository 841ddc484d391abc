"""Exception hierarchy.

Numerical degeneracy is never silently repaired: operations that detect a
classification ambiguity or a lost rank raise loudly instead of reassigning
values, so Monte Carlo statistics cannot be corrupted by bad draws.
"""


class GsvdistError(Exception):
    """Base class for all package errors."""


class DimensionError(GsvdistError, ValueError):
    """Matrix or problem dimensions violate a precondition."""


class DecompositionError(GsvdistError, ArithmeticError):
    """A matrix factorization failed or the input lost required rank."""


class DegeneracyError(DecompositionError):
    """Singular-value classification hit the dead zone between classes."""


class SingularityError(DecompositionError):
    """A Gram failed the Cholesky rank test, or a ratio eigenvalue is not positive."""


class ParameterError(GsvdistError, ValueError):
    """A scalar setting, such as a test level, lies outside its valid range."""


class ConsistencyError(GsvdistError, ArithmeticError):
    """An internal cross-check failed beyond cancellation tolerance."""


class QuadratureError(GsvdistError, ArithmeticError):
    """Adaptive integration did not reach the requested accuracy."""


class RegimeError(GsvdistError, ValueError):
    """Operation invoked outside its dimension regime."""
