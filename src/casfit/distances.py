"""Point-to-ellipsoid distance metrics.

Every metric accepts a single (3,) point or an (n, 3) stack and returns a
scalar or an (n,) array accordingly.  All metrics are non-negative, zero
exactly on the surface, and invariant under rigid motions applied jointly
to the point and the model.

The axial distance is built on the observation that scaling the semiaxes
of an ellipsoid by a common factor s sweeps out a family of concentric
surfaces covering space; the member through a point p has

    s(p) = sqrt(sum((u_i / r_i)^2)),  u = R @ p + t,

and the axial distance |s - 1| * ||r||_2 / 3 converts the dimensionless
offset from the unit member into a length.  It is exact on every member
surface but insensitive to where on the member the point sits; the Sampson
distance is accurate near the surface but degrades far away.  Blending the
two (``cas``) gives a cheap metric that is useful at both ranges.

The Sampson distance of the model center is returned as +inf: the algebraic
gradient vanishes there, and downstream consumers (energies, weights,
inlier tests) all treat an infinite distance as "infinitely far away".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .quadric import EllipsoidModel, as_points, design_matrix, quadratic_block

# Gradient norms below this (for unit-norm coefficients) count as vanished.
GRADIENT_TOL = 1e-12

# Largest-root solve: iteration cap and residual tolerance.
ROOT_MAX_ITERATIONS = 200
ROOT_TOL = 1e-12

# Aligned coordinates at or below this fraction of the longest semiaxis are
# treated as exact zeros.  Near an axis plane the foot-point equation turns
# stiff; a zeroed coordinate drops out of it exactly, and snapping moves the
# query point by at most this amount.
ZERO_SNAP = 1e-13

_SINGLE_KINDS = ("algebraic", "sampson", "orthogonal", "axial")
_PAIR_KINDS = {
    "cas": ("axial", "sampson"),
    "sampson+orthogonal": ("sampson", "orthogonal"),
    "axial+orthogonal": ("axial", "orthogonal"),
}
METRIC_KINDS = _SINGLE_KINDS + tuple(_PAIR_KINDS)


@dataclass(frozen=True)
class MetricKind:
    """A metric name plus the blend ratio used by the two-term kinds.

    For a pair kind the value is lam * first + (1 - lam) * second, where
    the pair ordering is the one in the kind name ("cas" blends axial
    with Sampson).  ``lam`` is ignored by the four single kinds.
    """

    kind: str
    lam: float = 0.5

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; choose from {METRIC_KINDS}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    @classmethod
    def parse(cls, text: str) -> "MetricKind":
        """Parse 'sampson' or 'cas:0.25' style strings."""
        if not isinstance(text, str):
            raise ValueError(f"metric must be a string, got {text!r}")
        name, sep, ratio = text.partition(":")
        name = name.strip().lower()
        if sep:
            try:
                lam = float(ratio)
            except ValueError:
                raise ValueError(f"bad blend ratio in metric {text!r}") from None
            return cls(name, lam)
        return cls(name)

    def __str__(self) -> str:
        if self.kind in _PAIR_KINDS:
            return f"{self.kind}:{self.lam:g}"
        return self.kind


ALGEBRAIC = MetricKind("algebraic")
SAMPSON = MetricKind("sampson")
ORTHOGONAL = MetricKind("orthogonal")
AXIAL = MetricKind("axial")


def cas(lam: float = 0.5) -> MetricKind:
    """The combined axial / Sampson metric with blend ratio ``lam``."""
    return MetricKind("cas", lam)


def _scalar_in(points) -> bool:
    return np.asarray(points).ndim == 1


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def algebraic_distance(points, model: EllipsoidModel):
    """|d(x) @ q| for unit-norm, sign-normalized coefficients."""
    scalar = _scalar_in(points)
    vals = np.abs(design_matrix(points) @ model.coeffs)
    return _shaped(vals, scalar)


def scaling_factor(points, model: EllipsoidModel):
    """Semiaxis scale s of the concentric member surface through each point.

    s == 0 at the center, s == 1 exactly on the surface.
    """
    scalar = _scalar_in(points)
    pts = as_points(points)
    geom = model.geometry
    aligned = pts @ geom.rotation.T + geom.translation
    vals = np.sqrt(np.square(aligned / geom.semiaxes).sum(axis=1))
    return _shaped(vals, scalar)


def axial_distance(points, model: EllipsoidModel):
    """|s - 1| * ||semiaxes||_2 / 3: member offset converted to a length."""
    scalar = _scalar_in(points)
    s = np.atleast_1d(scaling_factor(points, model))
    vals = np.abs(s - 1.0) * (np.linalg.norm(model.semiaxes) / 3.0)
    return _shaped(vals, scalar)


def sampson_distance(points, model: EllipsoidModel):
    """First-order algebraic distance |F| / ||grad F||.

    Returns +inf where the gradient vanishes (only at the model center).
    """
    scalar = _scalar_in(points)
    pts = as_points(points)
    q = model.coeffs
    values = np.abs(design_matrix(pts) @ q)
    grad = 2.0 * (pts @ quadratic_block(q) + q[6:9])
    norms = np.linalg.norm(grad, axis=1)
    vanished = norms < GRADIENT_TOL * float(np.linalg.norm(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(vanished, np.inf, values / np.where(vanished, 1.0, norms))
    return _shaped(vals, scalar)


def _largest_root(w: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Largest root t of sum((r_i w_i / (r_i^2 + t))^2) == 1, row-wise.

    Returns the shift s = t + min(r)^2 and forms each denominator as
    (r_i^2 - min(r)^2) + s: near the center t approaches -min(r)^2, where
    r_i^2 + t would cancel away most digits of the shortest axes' terms.

    Requires w >= 0 and a positive residual at s = 0 in every row (+inf when
    a shortest axis has w_i > 0).  The root then lies in (0, max(r) * ||w||]:
    the residual decreases from a positive left end, and at the right end
    each term is bounded by (w_i / ||w||)^2, so the row sums to at most one.
    Bisection on that bracket is unconditionally safe.
    """
    excess = np.square(axes) - float(np.square(axes).min())
    rw_sq = np.square(axes * w)
    lo = np.zeros(w.shape[0])
    hi = float(axes.max()) * np.linalg.norm(w, axis=1)

    def residual(s):
        with np.errstate(divide="ignore", over="ignore"):
            return (rw_sq / np.square(excess + s[:, None])).sum(axis=1) - 1.0

    converged = np.zeros(w.shape[0], dtype=bool)
    eps = np.finfo(float).eps
    s = 0.5 * (lo + hi)
    for _ in range(ROOT_MAX_ITERATIONS):
        s = 0.5 * (lo + hi)
        res = residual(s)
        converged |= np.abs(res) < ROOT_TOL
        # Steep roots (point close to an axis plane) cannot meet the residual
        # tolerance; a bracket narrowed to a few ulps is as converged as the
        # arithmetic allows.
        converged |= hi - lo <= 4.0 * eps * hi
        if converged.all():
            break
        above = res > 0.0
        lo = np.where(above, s, lo)
        hi = np.where(above, hi, s)
    else:
        if not converged.all():
            raise ConvergenceFailure(
                f"foot-point root solve did not reach {ROOT_TOL} within "
                f"{ROOT_MAX_ITERATIONS} iterations")
    # Newton polish from the bisection basin pushes s to full precision.
    for _ in range(3):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = residual(s)
            deriv = -2.0 * (rw_sq / (excess + s[:, None]) ** 3).sum(axis=1)
            step = np.where(deriv != 0.0, res / deriv, 0.0)
        s_new = s - step
        ok = np.isfinite(s_new) & (s_new > 0.0)
        s = np.where(ok, s_new, s)
    return s


def orthogonal_distance(points, model: EllipsoidModel):
    """Exact Euclidean distance to the ellipsoid surface (unsigned)."""
    scalar = _scalar_in(points)
    pts = as_points(points)
    geom = model.geometry
    aligned = pts @ geom.rotation.T + geom.translation
    w = np.abs(aligned)
    axes = geom.semiaxes
    w[w <= ZERO_SNAP * float(axes.max())] = 0.0
    r_sq = np.square(axes)
    floor = float(r_sq.min())
    excess = r_sq - floor
    active = w > 0.0

    # A row whose residual at the left end of the bracket is not positive has
    # its root pinned there, at shift 0 (only possible when its coordinates on
    # the shortest axes are all zero, the center included): the nearest point
    # leaves the row's active subspace along a shortest axis, which takes up
    # the missing floor * slack.
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(active, axes * w / excess, 0.0)
    slack = 1.0 - np.square(g).sum(axis=1)
    pinned = slack >= 0.0
    shift = np.zeros(len(pts))
    if not pinned.all():
        shift[~pinned] = _largest_root(w[~pinned], axes)
    with np.errstate(divide="ignore", invalid="ignore"):
        foot = np.where(active, r_sq * w / (excess + shift[:, None]), 0.0)
    gap = np.square(w - foot).sum(axis=1) + floor * np.maximum(slack, 0.0)
    return _shaped(np.sqrt(gap), scalar)


def cas_distance(points, model: EllipsoidModel, lam: float = 0.5):
    """Blend lam * axial + (1 - lam) * sampson."""
    return evaluate_metric(cas(lam), points, model)


def evaluate_metric(kind: MetricKind, points, model: EllipsoidModel):
    """Evaluate any metric kind; blends resolve through their components."""
    single = {
        "algebraic": algebraic_distance,
        "sampson": sampson_distance,
        "orthogonal": orthogonal_distance,
        "axial": axial_distance,
    }
    if kind.kind in single:
        return single[kind.kind](points, model)
    first_name, second_name = _PAIR_KINDS[kind.kind]
    # Endpoints return the component untouched so that lam in {0, 1} is an
    # exact reduction (and 0 * inf never poisons the blend).
    if kind.lam == 0.0:
        return single[second_name](points, model)
    if kind.lam == 1.0:
        return single[first_name](points, model)
    first = single[first_name](points, model)
    second = single[second_name](points, model)
    return kind.lam * first + (1.0 - kind.lam) * second
