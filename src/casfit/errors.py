"""Exception types, and the field checks and text readers shared across the library."""

import json
import numbers


def require_integers(record, *names) -> None:
    """Raise ValueError unless each named field of ``record`` is an integer."""
    _require(record, names, numbers.Integral, "an integer")


def require_reals(record, *names) -> None:
    """Raise ValueError unless each named field of ``record`` is a real number."""
    _require(record, names, numbers.Real, "a real number")


def require_seed(record) -> None:
    """Raise ValueError unless ``record.seed`` is a non-negative integer, as numpy seeds are."""
    require_integers(record, "seed")
    if record.seed < 0:
        raise ValueError(f"seed must be non-negative, got {record.seed}")


def _require(record, names, kind, what: str) -> None:
    for name in names:  # a bool is an Integral, but JSON's true is no number
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")


def read_text(path, newline=None) -> str:
    """``path``'s UTF-8 text, read whole as ``open`` does; ParseError names it and its bad byte."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start}: not UTF-8") from exc


def read_json(path):
    """The JSON document in the UTF-8 file ``path``; raises ParseError naming it."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


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
