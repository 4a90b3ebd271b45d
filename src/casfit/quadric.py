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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuadric, NotAnEllipsoid

# Relative eigenvalue threshold below which the quadratic block is treated
# as rank deficient.
DEGENERACY_TOL = 1e-12

# Absolute floor (relative to the matrix magnitude) for the symmetry check
# in matrix_to_coeffs.
SYMMETRY_TOL = 1e-12


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
    """Stack the quadric design rows d(x) for each point, shape (n, 10)."""
    pts = as_points(points)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    cols = [x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z,
            2 * x, 2 * y, 2 * z, -np.ones_like(x)]
    return np.stack(cols, axis=1)


def normalize_coeffs(q) -> np.ndarray:
    """Scale q to unit norm and fix its sign.

    The sign is chosen so that the trace of the quadratic block (q1+q2+q3)
    is positive.  A zero trace is left untouched; such a vector can never
    validate as an ellipsoid anyway.
    """
    q = np.asarray(q, dtype=float).reshape(10)
    if not np.isfinite(q).all():
        raise ValueError("coefficients must be finite")
    norm = float(np.linalg.norm(q))
    if norm == 0.0:
        raise ValueError("coefficient vector is zero")
    q = q / norm
    trace = q[0] + q[1] + q[2]
    if trace < 0.0:
        q = -q
    return q


def normalize_rows(q: np.ndarray) -> np.ndarray:
    """normalize_coeffs for each row of a finite, non-zero (k, 10) stack."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    return np.where(q[:, :3].sum(axis=1, keepdims=True) < 0.0, -q, q)


def coeffs_to_matrix(q) -> np.ndarray:
    """Symmetric 4x4 matrix Q with xh @ Q @ xh == d(x) @ q."""
    q = np.asarray(q, dtype=float).reshape(10)
    q1, q2, q3, q4, q5, q6, q7, q8, q9, q10 = q
    return np.array([
        [q1, q4, q5, q7],
        [q4, q2, q6, q8],
        [q5, q6, q3, q9],
        [q7, q8, q9, -q10],
    ])


def matrix_to_coeffs(mat) -> np.ndarray:
    """Inverse of coeffs_to_matrix.  Requires a (numerically) symmetric input."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    sym = 0.5 * (mat + mat.T)
    return np.array([
        sym[0, 0], sym[1, 1], sym[2, 2],
        sym[0, 1], sym[0, 2], sym[1, 2],
        sym[0, 3], sym[1, 3], sym[2, 3],
        -sym[3, 3],
    ])


_BLOCK_INDEX = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


def quadratic_block(q) -> np.ndarray:
    """The symmetric 3x3 block of the quadric matrix; (..., 10) gives (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    return q[..., _BLOCK_INDEX].reshape(q.shape[:-1] + (3, 3))


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
        if np.abs(rot @ rot.T - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("rotation must be proper (det +1)")
        if (axes <= 0.0).any():
            raise ValueError("semiaxes must be strictly positive")
        for name, val in (("rotation", rot), ("translation", trans), ("semiaxes", axes)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def center(self) -> np.ndarray:
        """Ellipsoid center in scene coordinates."""
        return -self.rotation.T @ self.translation


def geometry_to_coeffs(geom: EllipsoidGeometry) -> np.ndarray:
    """Quadric coefficients of the ellipsoid described by ``geom``."""
    rot = geom.rotation
    trans = geom.translation
    inv_sq = 1.0 / np.square(geom.semiaxes)
    block = rot.T @ (inv_sq[:, None] * rot)
    linear = rot.T @ (inv_sq * trans)
    const = float(trans @ (inv_sq * trans)) - 1.0
    q = np.array([
        block[0, 0], block[1, 1], block[2, 2],
        block[0, 1], block[0, 2], block[1, 2],
        linear[0], linear[1], linear[2],
        -const,
    ])
    return normalize_coeffs(q)


# Verdicts of check_ellipsoids, one per coefficient row.
ELLIPSOID, DEGENERATE, INDEFINITE, UNBOUNDED = range(4)


def check_ellipsoids(q: np.ndarray):
    """Classify each row of a unit-norm (k, 10) coefficient stack.

    Returns ``(verdict, rotation, translation, semiaxes)``.  ``verdict[i]``
    is ELLIPSOID for a real, bounded, non-degenerate ellipsoid, DEGENERATE
    when the quadratic block is rank deficient, INDEFINITE when it is not
    positive definite, and UNBOUNDED when the surface has no real points.
    The other three hold each row's EllipsoidGeometry fields (proper
    rotation, descending semiaxes) and are meaningful only for ELLIPSOID
    rows.
    """
    evals, evecs = np.linalg.eigh(quadratic_block(q))  # ascending eigenvalues
    abs_evals = np.abs(evals)
    max_abs = abs_evals.max(axis=1)
    degenerate = (max_abs == 0.0) | (abs_evals.min(axis=1) < DEGENERACY_TOL * max_abs)
    evecs[:, :, -1] *= np.copysign(1.0, np.linalg.det(evecs))[:, None]  # proper rotations
    proj = (q[:, None, 6:9] @ evecs)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        translation = proj / evals
        scale = np.einsum("ki,ki->k", proj, translation) + q[:, 9]
        semiaxes = np.sqrt(scale[:, None] / evals)
    verdict = np.full(len(q), ELLIPSOID)
    # later tests take precedence
    verdict[scale <= 0.0] = UNBOUNDED
    verdict[evals[:, 0] <= 0.0] = INDEFINITE
    verdict[degenerate] = DEGENERATE
    return verdict, np.swapaxes(evecs, 1, 2), translation, semiaxes


def decompose(q) -> EllipsoidGeometry:
    """Recover rotation, translation and semiaxes from quadric coefficients.

    Raises DegenerateQuadric when the quadratic block is rank deficient and
    NotAnEllipsoid when the coefficients describe any other quadric type
    (hyperboloid, cone, imaginary surface, ...).
    """
    q = normalize_coeffs(q)
    verdict, rotation, translation, semiaxes = (v[0] for v in check_ellipsoids(q[None]))
    if verdict == DEGENERATE:
        raise DegenerateQuadric("quadratic block is rank deficient")
    if verdict == INDEFINITE:
        raise NotAnEllipsoid("quadratic block is not positive definite")
    if verdict == UNBOUNDED:
        raise NotAnEllipsoid("no real bounded surface for these coefficients")
    return EllipsoidGeometry(rotation=rotation, translation=translation, semiaxes=semiaxes)


def validate_ellipsoid(q) -> bool:
    """True iff the coefficients describe a real, bounded, non-degenerate ellipsoid."""
    try:
        decompose(q)
    except (NotAnEllipsoid, DegenerateQuadric, ValueError):
        return False
    return True


@dataclass(frozen=True)
class EllipsoidModel:
    """Normalized quadric coefficients bundled with their decomposition.

    Construct through from_coeffs or from_geometry; both canonicalize, so
    ``geometry`` always has descending semiaxes and a proper rotation.
    """

    coeffs: np.ndarray
    geometry: EllipsoidGeometry

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float).reshape(10)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, q) -> "EllipsoidModel":
        q = normalize_coeffs(q)
        return cls(coeffs=q, geometry=decompose(q))

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
        return cls.from_coeffs(np.asarray(doc["q"], dtype=float))
