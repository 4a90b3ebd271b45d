"""Exception types and the integer-field check shared across the library."""

import numbers


def require_integers(record, *names) -> None:
    """Raise ValueError unless each named field of ``record`` is an integer."""
    for name in names:
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


class CasfitError(Exception):
    """Base class for every error raised by this package."""


class NotAnEllipsoid(CasfitError):
    """Quadric coefficients do not describe a real, bounded ellipsoid."""


class DegenerateQuadric(CasfitError):
    """The quadratic block of the coefficients is numerically rank deficient."""


class RankDeficient(CasfitError):
    """The normal matrix has no isolated smallest eigenvector."""


class InsufficientSupport(CasfitError):
    """Too few points carry non-negligible weight to determine a quadric."""


class ConvergenceFailure(CasfitError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class TooFewPoints(CasfitError):
    """The input point set is smaller than the minimal sample size."""


class NoModelFound(CasfitError):
    """No candidate model validated within the iteration budget."""


class ParseError(CasfitError):
    """A point file, grid description or model document could not be parsed."""
