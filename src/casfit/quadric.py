"""Quadric and ellipsoid representations.

A quadric surface is stored as a 10-vector ``q`` paired with the design row

    d(x) = [x1^2, x2^2, x3^2, 2*x1*x2, 2*x1*x3, 2*x2*x3, 2*x1, 2*x2, 2*x3, -1]

so that a point lies on the surface iff ``d(x) @ q == 0``.  The matching
symmetric 4x4 matrix ``Q`` satisfies ``xh @ Q @ xh == d(x) @ q`` for the
homogeneous point ``xh = (x1, x2, x3, 1)``; note the (3, 3) entry is ``-q10``.

Coefficient vectors are kept unit-norm with the trace of the 3x3 quadratic
block positive, which removes the overall scale and the q / -q ambiguity.

An ellipsoid can equivalently be described by a rigid map into its own
axis-aligned frame, ``u = R @ x + t``, plus the three semiaxis lengths:
points on the surface satisfy sum((u_i / r_i)^2) == 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs behind np.linalg.eigh, det, solve, cholesky

from .errors import DegenerateQuadric, NotAnEllipsoid, ParseError

# Relative eigenvalue threshold below which the quadratic block is treated
# as rank deficient.
DEGENERACY_TOL = 1e-12

# Largest magnitudes whose squares neither underflow nor overflow, even summed 2^23 at a time.
SQUARE_RANGE = (2.0**-500, 2.0**500)

# Largest entry of |R R^T - I| for which a rotation counts as orthonormal.
ORTHONORMAL_TOL = 1e-9


def as_points(points) -> np.ndarray:
    """Return points as a float64 array of shape (n, 3).

    Accepts a single (3,) point or an (n, 3) stack.  Raises ValueError for
    anything else or for non-finite coordinates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3) if pts.shape == (3,) else pts
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (n, 3) or (3,), got {np.shape(points)}")
    if not np.isfinite(pts).all():
        raise ValueError("points must have finite coordinates")
    return pts


def design_matrix(points) -> np.ndarray:
    """Stack the quadric design rows d(x) of each point, (n, 10) column-major, filled in place."""
    pts = as_points(points)
    rows = np.empty((len(pts), 10), order="F")
    np.square(pts, out=rows[:, :3])
    np.multiply(pts, 2.0, out=rows[:, 6:9])
    np.multiply(rows[:, 6:7], pts[:, 1:], out=rows[:, 3:5])  # (2x) y, (2x) z
    np.multiply(rows[:, 7], pts[:, 2], out=rows[:, 5])  # (2y) z
    rows[:, 9] = -1.0
    return rows


def normalize_coeffs(q) -> np.ndarray:
    """Scale q to unit norm and fix its sign.

    The sign is chosen so that the trace of the quadratic block (q1+q2+q3)
    is positive.  A zero trace is left untouched; such a vector can never
    validate as an ellipsoid anyway.  q is first scaled by the exact power of
    two that takes its largest entry into [1/2, 1), so its squared norm
    neither overflows nor underflows.
    """
    q = np.array(q, dtype=float).reshape(10)  # a copy: normalize_rows scales it in place
    if not np.isfinite(q).all():
        raise ValueError("coefficients must be finite")
    if not q.any():
        raise ValueError("coefficient vector is zero")
    return normalize_rows(q[None])[0]


def normalize_rows(q: np.ndarray) -> np.ndarray:
    """normalize_coeffs for each row of a finite (k, 10) stack with no zero row.  Each row of
    ``q`` is first scaled in place by the power of two that takes its largest entry into
    [1/2, 1), which keeps its layout and so the rounding of its squared norm."""
    np.ldexp(q, -np.frexp(np.abs(q).max(axis=1, keepdims=True))[1], out=q)
    # The stacked dot products round like np.linalg.norm of one row on contiguous rows only:
    # strided ones, as the eigenvector view solve_rows passes, take numpy's own loop, and refit
    # bits depend on that.
    q = q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    return np.negative(q, out=q, where=q[:, :3].sum(axis=1, keepdims=True) < 0.0)


def require_carried(low: float, high: float) -> None:
    """Raise NotAnEllipsoid when a model's smallest magnitude ``low`` lies below
    SQUARE_RANGE or its largest ``high`` above it: its unit-norm coefficients
    would overflow or carry it only in subnormal digits."""
    if low < SQUARE_RANGE[0] or high > SQUARE_RANGE[1]:
        raise NotAnEllipsoid(f"ellipsoid magnitudes {low:.3g} to {high:.3g} leave "
                             "[%.3g, %.3g], the range unit-norm coefficients carry" % SQUARE_RANGE)


# The entries of the quadric matrix Q that q holds, in order; q10 is -Q[3, 3].
_Q_ENTRIES = (np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 3]), np.array([0, 1, 2, 1, 2, 2, 3, 3, 3, 3]))
_Q_SIGNS = np.array([1.0] * 9 + [-1.0])
_Q_INDEX = np.empty((4, 4), dtype=int)  # Q[i, j] == (q * _Q_SIGNS)[_Q_INDEX[i, j]]
_Q_INDEX[_Q_ENTRIES] = _Q_INDEX[_Q_ENTRIES[::-1]] = np.arange(10)


def quadratic_block(q) -> np.ndarray:
    """The symmetric 3x3 block of the quadric matrix; (..., 10) gives (..., 3, 3)."""
    return np.asarray(q, dtype=float)[..., _Q_INDEX[:3, :3]]


@dataclass(frozen=True)
class EllipsoidGeometry:
    """Rigid map into the ellipsoid frame plus semiaxis lengths.

    ``rotation`` maps scene coordinates into the aligned frame via
    u = rotation @ x + translation; the surface there is
    sum((u_i / semiaxes_i)^2) == 1.
    """

    rotation: np.ndarray
    translation: np.ndarray
    semiaxes: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float).reshape(3, 3)
        trans = np.array(self.translation, dtype=float).reshape(3)
        axes = np.array(self.semiaxes, dtype=float).reshape(3)
        if not (np.isfinite(rot).all() and np.isfinite(trans).all() and np.isfinite(axes).all()):
            raise ValueError("geometry fields must be finite")
        if np.abs(rot @ rot.T - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det +1)")
        if (axes <= 0.0).any():
            raise ValueError("semiaxes must be strictly positive")
        for name, val in (("rotation", rot), ("translation", trans), ("semiaxes", axes)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @classmethod
    def _checked(cls, rotation, translation, semiaxes) -> "EllipsoidGeometry":
        """The read-only fields of an ELLIPSOID row of ``check_ellipsoids``, not checked again."""
        geom = object.__new__(cls)
        geom.__dict__.update(rotation=rotation, translation=translation, semiaxes=semiaxes)
        return geom

    def __reduce__(self):  # copies and pickles are checked and read-only too
        return EllipsoidGeometry, (self.rotation, self.translation, self.semiaxes)

    @property
    def center(self) -> np.ndarray:
        """Ellipsoid center in scene coordinates."""
        return -self.rotation.T @ self.translation


def geometry_to_coeffs(geom: EllipsoidGeometry) -> np.ndarray:
    """Quadric coefficients of the ellipsoid described by ``geom``.

    Lengths are squared in units of 2^e (e >= 0) that take the longest into
    [1/2, 1), exact and without overflow; raises NotAnEllipsoid when it lies
    above SQUARE_RANGE, or the shortest semiaxis in those units below it.
    """
    rot, axes = geom.rotation, geom.semiaxes
    longest = max(*axes, *np.abs(geom.translation))
    e = max(math.frexp(longest)[1], 0)
    require_carried(math.ldexp(axes.min(), -e), longest)
    inv_sq, trans = 1.0 / np.square(np.ldexp(axes, -e)), np.ldexp(geom.translation, -e)
    mat = np.empty((4, 4))  # only the entries that q holds are read
    mat[:3, :3] = np.ldexp(rot.T @ (inv_sq[:, None] * rot), -2 * e)
    mat[:3, 3] = np.ldexp(rot.T @ (inv_sq * trans), -e)
    mat[3, 3] = float(trans @ (inv_sq * trans)) - 1.0
    return normalize_coeffs(mat[_Q_ENTRIES] * _Q_SIGNS)


def _nonconvergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _eigh(a: np.ndarray) -> tuple:
    """np.linalg.eigh with its bits and error, without checks that cost more than a 3x3 solve."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve's bits on (k, m, m), (k, m) stacks, but a singular block's row is NaN."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


@np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
def _definite(q: np.ndarray) -> np.ndarray:
    """False for each row of a (k, 10) stack whose quadratic block A LAPACK's Cholesky does not
    factor.  Where q1 = a11 = 1 it keeps every row check_ellipsoids accepts: lmin >= 1e-12 lmax
    there and lmin <= 1 <= lmax, so no square overflows (|a_ij| <= 1e12), an underflow's error is
    far below lmin, and A factors as lmin(D^-1 A D^-1) >= lmin / lmax (D^2 = diag A) is above
    3 gamma_4 / (1 - gamma_4) ~ 1.3e-15 (Demmel's condition: Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.7)."""
    factor = _umath_linalg.cholesky_lo(quadratic_block(q), signature="d->d")
    return np.isfinite(factor).all(axis=(1, 2))


# Verdicts of check_ellipsoids, one per coefficient row.
ELLIPSOID, DEGENERATE, INDEFINITE, UNBOUNDED = range(4)


def check_ellipsoids(q: np.ndarray):
    """Classify each row of a unit-norm (k, 10) coefficient stack.

    Returns ``(verdict, rotation, translation, semiaxes)``.  ``verdict[i]``
    is ELLIPSOID for a real, bounded, non-degenerate ellipsoid, DEGENERATE
    when the quadratic block is rank deficient, INDEFINITE when it is not
    positive definite, and UNBOUNDED when the surface has no real points or
    its geometry overflows.  The other three hold each row's read-only
    EllipsoidGeometry fields (proper rotation, descending semiaxes); those of
    ELLIPSOID rows pass every check of the EllipsoidGeometry constructor.
    Only the semiaxes are tested: ``eigh``'s vectors are orthonormal, and on a definite
    block a translation entry that overflows makes ``scale``, then a semiaxis, infinite.
    """
    evals, evecs = _eigh(quadratic_block(q))  # ascending eigenvalues
    evecs[:, :, -1] *= np.copysign(1.0, _umath_linalg.det(evecs))[:, None]  # proper rotations
    rotation = np.swapaxes(evecs, 1, 2)  # column-major: BLAS rounds a row-major copy otherwise
    proj = (q[:, None, 6:9] @ evecs)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        translation = proj / evals
        scale = np.einsum("ki,ki->k", proj, translation) + q[:, 9]
        semiaxes = np.sqrt(scale[:, None] / evals)
    for field in (rotation, translation, semiaxes):
        field.setflags(write=False)
    verdict = np.fromiter(map(_verdict, evals.tolist(), semiaxes.tolist()), int, len(q))
    return verdict, rotation, translation, semiaxes


def _verdict(evals: list, semiaxes: list) -> int:
    """``check_ellipsoids``' verdict on one row, from its eigenvalues and semiaxes as floats: on
    its short stacks a test on floats costs less than a numpy pass.  On a definite block a scale
    at most 0 leaves a semiaxis NaN or 0, so UNBOUNDED needs no test of the scale."""
    magnitudes = [abs(e) for e in evals]
    top = max(magnitudes)
    if top == 0.0 or min(magnitudes) < DEGENERACY_TOL * top:
        return DEGENERATE
    if min(evals) <= 0.0:
        return INDEFINITE
    return ELLIPSOID if all(0.0 < r < math.inf for r in semiaxes) else UNBOUNDED


# The exception and message that from_coeffs raises for each verdict but ELLIPSOID.
_REJECTIONS = {
    DEGENERATE: (DegenerateQuadric, "quadratic block is rank deficient"),
    INDEFINITE: (NotAnEllipsoid, "quadratic block is not positive definite"),
    UNBOUNDED: (NotAnEllipsoid, "no real bounded surface for these coefficients"),
}


def _ellipsoids(q: np.ndarray, ok=True) -> tuple:
    """The one builder of checked models: ``check_ellipsoids``' verdicts on a unit-norm (k, 10)
    stack ``q``, and each row's EllipsoidModel, None unless it is an ELLIPSOID and ``ok``."""
    verdict, rotation, translation, semiaxes = check_ellipsoids(q)
    return verdict, [EllipsoidModel._paired(q[j], EllipsoidGeometry._checked(
        rotation[j], translation[j], semiaxes[j])) if built else None
        for j, built in enumerate(((verdict == ELLIPSOID) & ok).tolist())]


def decompose(q) -> EllipsoidGeometry:
    """Rotation, translation and semiaxes of quadric coefficients; raises as from_coeffs does."""
    return EllipsoidModel.from_coeffs(q).geometry


def validate_ellipsoid(q) -> bool:
    """True iff the coefficients describe a real, bounded, non-degenerate ellipsoid."""
    try:
        decompose(q)
    except (NotAnEllipsoid, DegenerateQuadric, ValueError):
        return False
    return True


@dataclass(frozen=True, init=False)
class EllipsoidModel:
    """Normalized quadric coefficients bundled with their decomposition, read-only.

    Built only through from_coeffs, from_geometry and from_json_dict, which check and
    canonicalize, so ``geometry`` always has descending semiaxes and a proper rotation.
    """

    coeffs: np.ndarray
    geometry: EllipsoidGeometry

    @classmethod
    def _paired(cls, coeffs: np.ndarray, geometry: EllipsoidGeometry) -> "EllipsoidModel":
        """``coeffs``, made read-only, and ``geometry``, not checked against each other."""
        coeffs.setflags(write=False)
        model = object.__new__(cls)
        model.__dict__.update(coeffs=coeffs, geometry=geometry)
        return model

    def __reduce__(self):  # copies and pickles keep ``coeffs`` read-only too
        return EllipsoidModel._paired, (self.coeffs, self.geometry)

    @classmethod
    def from_coeffs(cls, q) -> "EllipsoidModel":
        """Normalize ``q`` and decompose it.  Raises DegenerateQuadric when the quadratic block
        is rank deficient, NotAnEllipsoid for any other quadric (hyperboloid, cone, empty, ...)."""
        (verdict,), (model,) = _ellipsoids(normalize_coeffs(q)[None])
        if model is None:
            error, message = _REJECTIONS[verdict]
            raise error(message)
        return model

    @classmethod
    def from_geometry(cls, geom: EllipsoidGeometry) -> "EllipsoidModel":
        return cls.from_coeffs(geometry_to_coeffs(geom))

    @property
    def center(self) -> np.ndarray:
        return self.geometry.center

    @property
    def semiaxes(self) -> np.ndarray:
        return self.geometry.semiaxes

    def to_json_dict(self) -> dict:
        """JSON-ready document: q, center, semiaxes (descending), rotation (row-major)."""
        return {
            "q": [float(v) for v in self.coeffs],
            "center": [float(v) for v in self.center],
            "semiaxes": [float(v) for v in self.semiaxes],
            "rotation": [float(v) for v in self.geometry.rotation.reshape(9)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EllipsoidModel":
        """Inverse of to_json_dict; only ``q``, 10 numbers, is read.  Raises ParseError."""
        if not isinstance(doc, dict) or "q" not in doc:
            raise ParseError("model document must be a JSON object with a 'q' field")
        q = doc["q"]
        if not (isinstance(q, list) and len(q) == 10 and all(type(v) in (int, float) for v in q)):
            raise ParseError("bad model field 'q': expected a list of 10 numbers")
        try:
            return cls.from_coeffs(np.array(q, dtype=float))
        except (OverflowError, ValueError) as exc:
            raise ParseError(f"bad model field 'q': {exc}") from None
