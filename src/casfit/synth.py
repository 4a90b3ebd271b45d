"""Synthetic ellipsoid data: random models, surface samples, noise, outliers.

Random ellipsoids draw semiaxes uniformly from [1, 5], centers uniformly
from [-10, 10]^3 and orientations uniformly over rotations (via unit
quaternions).  Gaussian noise is specified relative to the mean semiaxis,
so instances of different sizes are corrupted comparably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParseError, read_text, require_integers, require_reals, require_seed
from .leastsq import MIN_POINTS
from .quadric import EllipsoidGeometry, EllipsoidModel, as_points

SEMIAXIS_RANGE = (1.0, 5.0)
CENTER_RANGE = (-10.0, 10.0)

# Planted outliers are drawn uniformly inside the truth bounding box
# inflated by this factor.
OUTLIER_BOX_INFLATION = 2.0

DATASET_KINDS = ("gaussian", "outlier")

# save_points and casfit distances format their rows in blocks of this many, one %
# operation per block, so the strings of at most one block are alive at a time.
LOAD_BLOCK_ROWS = 1024


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation matrix drawn uniformly over SO(3) (random unit quaternion)."""
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    qw = a * np.sin(2.0 * np.pi * u2)
    qx = a * np.cos(2.0 * np.pi * u2)
    qy = b * np.sin(2.0 * np.pi * u3)
    qz = b * np.cos(2.0 * np.pi * u3)
    return np.array([
        [1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qw * qz), 2 * (qx * qz + qw * qy)],
        [2 * (qx * qy + qw * qz), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qw * qx)],
        [2 * (qx * qz - qw * qy), 2 * (qy * qz + qw * qx), 1 - 2 * (qx * qx + qy * qy)],
    ])


def random_ellipsoid(rng: np.random.Generator) -> EllipsoidModel:
    """Random ellipsoid with uniform semiaxes, center and orientation."""
    semiaxes = rng.uniform(*SEMIAXIS_RANGE, size=3)
    rotation = random_rotation(rng)
    center = rng.uniform(*CENTER_RANGE, size=3)
    return EllipsoidModel.from_geometry(EllipsoidGeometry(
        rotation=rotation, translation=-rotation @ center, semiaxes=semiaxes))


def sample_surface(model: EllipsoidModel, count: int, rng: np.random.Generator,
                   scale: float = 1.0) -> np.ndarray:
    """Sample points on the surface (or on the concentric member ``scale``).

    Directions are uniform on the sphere and mapped through the semiaxes,
    so the density is not uniform in area; it is symmetric and covers the
    whole surface, which is all the consumers here need.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    geom = model.geometry
    aligned = scale * dirs * geom.semiaxes
    return (aligned - geom.translation) @ geom.rotation


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset cell."""

    kind: str
    point_count: int = 500
    sigma_rel: float = 0.25
    outlier_fraction: float = 0.0
    instance_count: int = 10
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "point_count", "instance_count")
        require_seed(self)
        require_reals(self, "sigma_rel", "outlier_fraction")
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"kind must be one of {DATASET_KINDS}, got {self.kind!r}")
        if self.point_count < MIN_POINTS:
            raise ValueError(f"point_count must be at least {MIN_POINTS}")
        if not 0.0 <= self.sigma_rel < math.inf:
            raise ValueError("sigma_rel must be non-negative and finite")
        if not 0.0 <= self.outlier_fraction <= (1.0 if self.kind == "outlier" else 0.0):
            raise ValueError("outlier_fraction must lie in [0, 1], and be 0 for the gaussian kind")
        if self.instance_count < 1:
            raise ValueError("instance_count must be positive")


@dataclass(frozen=True)
class Instance:
    """One synthetic point cloud with its generating truth."""

    truth: EllipsoidModel
    points: np.ndarray
    is_outlier: np.ndarray  # True for planted outliers
    sigma: float  # absolute noise level used for the inliers

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        mask = np.array(self.is_outlier, dtype=bool)
        pts.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "is_outlier", mask)


def _bounding_half_extents(model: EllipsoidModel) -> np.ndarray:
    # Extent of the surface along scene axis j is the norm of column j of
    # diag(semiaxes) @ rotation.
    geom = model.geometry
    return np.linalg.norm(geom.semiaxes[:, None] * geom.rotation, axis=0)


def make_instance(spec: DatasetSpec, rng: np.random.Generator) -> Instance:
    """Draw a truth ellipsoid and a corrupted point cloud from ``spec``.

    Exactly round(outlier_fraction * point_count) points (0 for the gaussian
    kind) are replaced by uniform draws from the inflated bounding box of
    the truth; the rest are noisy surface points.  Points are ordered with
    the inliers first.
    """
    truth = random_ellipsoid(rng)
    sigma = spec.sigma_rel * float(truth.semiaxes.mean())
    n_out = int(round(spec.outlier_fraction * spec.point_count))
    n_in = spec.point_count - n_out

    points = sample_surface(truth, n_in, rng)
    if sigma > 0.0:
        points = points + rng.normal(scale=sigma, size=(n_in, 3))
    if n_out > 0:
        half = OUTLIER_BOX_INFLATION * _bounding_half_extents(truth)
        outliers = truth.center + rng.uniform(-half, half, size=(n_out, 3))
        points = np.vstack([points, outliers])

    is_outlier = np.zeros(spec.point_count, dtype=bool)
    is_outlier[n_in:] = True
    return Instance(truth=truth, points=points, is_outlier=is_outlier, sigma=sigma)


def save_points(points, path) -> None:
    """Write points as comma-separated text with an x,y,z header."""
    pts = as_points(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        _write_rows(fh, "%.17g,%.17g,%.17g\n", len(pts),
                    lambda a, b: tuple(pts[a:b].ravel().tolist()))


def _write_rows(fh, row: str, count: int, fields) -> None:
    """Write ``count`` rows of the template ``row``: ``row * (b - a) % fields(a, b)`` per block."""
    for a in range(0, count, LOAD_BLOCK_ROWS):
        b = min(a + LOAD_BLOCK_ROWS, count)
        fh.write(row * (b - a) % fields(a, b))


def load_points(path) -> np.ndarray:
    """Read a 3-column text file (comma or whitespace separated) of points.

    Lines starting with '#' and blank lines are skipped; one optional
    header line naming the columns is tolerated, and so is a UTF-8
    byte-order mark.  Raises ParseError with the offending line number
    otherwise.

    A file without comments whose lines after the optional first-line
    header hold only numbers and separators is parsed by ``np.loadtxt``;
    any other file, and any file it does not read as exactly 3 values per
    line, goes through the line reader, which alone builds error messages.
    """
    text = read_text(path).removeprefix("\ufeff")
    arr = _read_plain(path, text)
    if arr is None:
        arr = _read_lines(path, text)
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: non-finite coordinates")
    return arr


# A plain numeric body holds digits and these characters only, and a digit.
_NON_DIGITS = "eE.+-, \t\n"
_PLAIN = b"0123456789" + _NON_DIGITS.encode("ascii")


def _read_plain(path, text: str) -> Optional[np.ndarray]:
    """Points of a plain file parsed in one numpy pass, or None to use the line reader.

    The body is vetted in one byte pass: ``translate`` deletes the plain
    characters, and anything left over is foreign.  numpy reads the file from
    ``path`` in chunks of its own.
    """
    if "#" in text:
        return None
    first, _, rest = text.partition("\n")
    fields = first.replace(",", " ").split()
    header = len(fields) == 3 and not _numeric(fields)
    body = rest if header else text
    plain = body.isascii() and not body.encode("ascii").translate(None, _PLAIN)
    if not plain or not body.strip(_NON_DIGITS):  # stripped of the rest, a plain body keeps digits
        return None
    try:
        arr = np.loadtxt(path, ndmin=2, comments=None, skiprows=int(header),
                         delimiter="," if "," in body else None,
                         encoding="utf-8-sig")
    except ValueError:
        return None
    # numpy skips only blank lines (and whitespace-only ones in a whitespace-separated
    # file), which the line reader skips too
    return arr if arr.shape[1] == 3 else None


def _read_lines(path, text: str) -> np.ndarray:
    """Parse ``text`` line by line, raising at the first line that fails."""
    rows = []
    header_seen = False
    # split("\n"), not splitlines(), which splits on more characters than
    # reading the file does and would renumber the lines
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 columns, got {len(fields)}")
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            if rows or header_seen:
                raise ParseError(f"{path}: line {lineno}: could not parse {line!r}") from None
            header_seen = True  # one leading header line is tolerated
    if not rows:
        raise ParseError(f"{path}: no points found")
    return np.array(rows)


def _numeric(fields: list) -> bool:
    try:
        [float(f) for f in fields]
    except ValueError:
        return False
    return True
