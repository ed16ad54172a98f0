"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes:
- exit 1, validation problems: ``DomainError``, ``ShapeError``,
  ``FlavorError`` (and any other ``RexoscError``);
- exit 2, numerical failures: ``NumericalFailureError`` (including a
  coupled pair's discriminant past the float range) and
  ``IndeterminateError``;
- exit 3, singular or degenerate configurations: ``SingularityError``,
  ``DegenerateTransformError`` (an exceptional point) and
  ``DegenerateDirectionError``.
"""


class RexoscError(Exception):
    """Base class for all package errors."""


class DomainError(RexoscError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ShapeError(RexoscError, ValueError):
    """Array/sequence dimensions inconsistent."""


class FlavorError(RexoscError, ValueError):
    """Coupling flavor incompatible with the requested operation."""


class SingularityError(RexoscError, ValueError):
    """Evaluation at (or across) a pole of a rational potential term."""


class DegenerateTransformError(RexoscError, ValueError):
    """Decoupling transform undefined (vanishing discriminant)."""


class DegenerateDirectionError(RexoscError, ValueError):
    """Coupling direction undefined (normalization vanishes)."""


class NumericalFailureError(RexoscError, RuntimeError):
    """A numerical routine failed: no convergence, or a value past the float
    range."""


class IndeterminateError(RexoscError, RuntimeError):
    """A measured quantity could not be resolved (fit residual too large)."""
