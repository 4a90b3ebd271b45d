"""Exception types shared across the library."""


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
