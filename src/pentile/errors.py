"""Exception types shared across the package, and the input checks that
raise one."""
import math

import numpy as np


class PentileError(Exception):
    """Base class for all package-specific errors."""


class AngleSumViolation(PentileError):
    """Interior angles do not sum to three half-turns."""


class NonConvexAngles(PentileError):
    """An interior angle lies outside the open interval (0, pi)."""


class NegativeLength(PentileError):
    """An edge length is zero or negative."""


class ClosureViolation(PentileError):
    """Edge vectors do not return to the starting corner."""


class SingularClosure(PentileError):
    """The two free edge directions are parallel; closure cannot be solved."""


class UnknownType(PentileError):
    """Type id outside the known range 1..15."""


class InfeasibleParams(PentileError):
    """Free parameters admit no convex solution of the type constraints."""


class NonConvergence(PentileError):
    """Newton refinement did not reach the residual target."""


class TypeMismatch(PentileError):
    """Pentagon does not satisfy the constraints of the requested type."""


class RecipeInvalid(PentileError):
    """Recipe fails structural or periodicity verification."""


class DegenerateTile(PentileError):
    """A tile encloses no area."""


class InvalidInnerRadius(PentileError):
    """Coverage radius incompatible with the patch radius."""


class ModeMismatch(PentileError):
    """Operation requires statistics counted in the other mode."""


class EmptyPatch(PentileError):
    """Statistics requested for a patch with no countable content."""


class DegenerateLimit(PentileError):
    """Limit estimate has a vanishing denominator."""


class EmptyModel(PentileError):
    """Valence model evaluated with no vertices."""


class ParseError(PentileError):
    """Malformed input file or expression."""


def number(value) -> float:
    """float(value) for a document's number; TypeError, as float() gives a
    non-number, for a boolean, which float() would read as 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def require_finite(name: str, value) -> None:
    """Raise ParseError unless value, a number or a sequence of numbers, is
    finite throughout."""
    if not all(math.isfinite(x) for x in np.ravel(value)):
        raise ParseError(f"{name} must be finite, got {value}")


def require_positive(name: str, value) -> None:
    """Raise ParseError unless value, a number or a sequence of numbers, is
    finite and greater than zero throughout."""
    if not all(math.isfinite(x) and x > 0 for x in np.ravel(value)):
        raise ParseError(f"{name} must be positive and finite, got {value}")
