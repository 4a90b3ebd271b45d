"""Point-to-ellipsoid distance metrics.

Every metric accepts a single (3,) point or an (n, 3) stack and returns a
scalar or an (n,) array accordingly.  All metrics are non-negative and zero
exactly on the surface.  All but the algebraic one are invariant under
rigid motions applied jointly to the point and the model.  The algebraic
distance |d(x) @ q| of unit-norm coefficients is not: translating both
changes q, so the same point reads a different value (the point (4, 0, 0)
reads 0.54 against the axis-aligned (3, 2, 1) ellipsoid, and 5.7e-7 once
both are moved by 1000 along each axis).

The axial distance is built on the observation that scaling the semiaxes
of an ellipsoid by a common factor s sweeps out a family of concentric
surfaces covering space; the member through a point p has

    s(p) = sqrt(sum((u_i / r_i)^2)),  u = R @ p + t,

and the axial distance |s - 1| * ||r||_2 / 3 converts the dimensionless
offset from the unit member into a length.  It is exact on every member
surface but insensitive to where on the member the point sits; the Sampson
distance is accurate near the surface but degrades far away.  Blending the
two (``cas``) gives a cheap metric that is useful at both ranges.

Both are read off the same coordinates.  With v = u / r, the point in the
model's unit frame, s^2 = ||v||^2.  The unit-norm coefficients of the model
are q = kappa * (R^T diag(r^-2) R, R^T diag(r^-2) t, ...) with
kappa = (q1 + q2 + q3) / sum(r^-2), so the quadric is F = kappa (s^2 - 1),
its gradient is 2 kappa R^T (v / r), and the Sampson distance |F| / ||grad F||
is |s^2 - 1| / (2 ||v / r||).  The algebraic distance |d(x) @ q| = |F| is
kappa |s^2 - 1|.  The algebraic, axial, Sampson and ``cas`` metrics of k models
compute from one (k, 3, n) product v, each row with its model's own bits, and
s^2 adds its three squared rows; no metric builds the design rows d(x) of the
points.  The exact orthogonal distance runs one Newton iteration.  Every
metric takes lengths in units of a power of two, so it stays finite wherever
the true distance does.

The Sampson distance of the model center is returned as +inf: the algebraic
gradient vanishes there, and downstream consumers (energies, weights,
inlier tests) all treat an infinite distance as "infinitely far away".  A
point reads +inf where its unit-frame radius s is at most GRADIENT_TOL.
The test reads only the unit frame, so it does not change when the point
and the model are moved, rotated or scaled together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, require_reals
from .quadric import EllipsoidModel, as_points

# The Sampson gradient counts as vanished at unit-frame radii s at or below
# this, that is within this fraction of the semiaxes of the model center.
GRADIENT_TOL = 1e-12

# Largest-root solve: a safety cap on its Newton steps.
ROOT_MAX_ITERATIONS = 200

# Aligned coordinates at or below this fraction of the longest semiaxis are
# treated as exact zeros, which moves the query point by at most this amount.
# A far smaller coordinate on a shortest axis starts the foot-point Newton
# iteration at a shift so small that its derivative leaves the double range,
# and the iteration stalls; a zeroed coordinate drops out exactly.
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
    with Sampson).  The four single kinds take only the default ``lam``.
    """

    kind: str
    lam: float = 0.5

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; choose from {METRIC_KINDS}")
        require_reals(self, "lam")
        if self.kind in _SINGLE_KINDS and self.lam != MetricKind.lam:
            raise ValueError(f"metric {self.kind!r} takes no blend ratio, got {self.lam}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    @classmethod
    def parse(cls, text: str) -> "MetricKind":
        """Parse 'sampson' or 'cas:0.25' style strings; a single kind takes no ratio."""
        if not isinstance(text, str):
            raise ValueError(f"metric must be a string, got {text!r}")
        name, sep, ratio = text.partition(":")
        try:
            lam = float(ratio) if sep else cls.lam
        except ValueError:
            raise ValueError(f"bad blend ratio in metric {text!r}") from None
        return cls(name.strip().lower(), lam)

    def __str__(self) -> str:
        # the shortest text that parses back to the same ratio
        if self.kind in _PAIR_KINDS:
            return f"{self.kind}:{np.format_float_positional(float(self.lam), trim='-')}"
        return self.kind


ALGEBRAIC = MetricKind("algebraic")
SAMPSON = MetricKind("sampson")
ORTHOGONAL = MetricKind("orthogonal")
AXIAL = MetricKind("axial")


def cas(lam: float = 0.5) -> MetricKind:
    """The combined axial / Sampson metric with blend ratio ``lam``."""
    return MetricKind("cas", lam)


def _shaped(values: np.ndarray, points):
    """A float for a single (3,) point, else the (n,) array itself."""
    return float(values[0]) if np.asarray(points).ndim == 1 else values


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # half the cost of a with block
def _unit_terms(names, pts: np.ndarray, models: list) -> dict:
    """The algebraic, Sampson and axial kinds in ``names``, and s as "scale", at the (n, 3)
    ``pts`` for a list of k models, each (k, n) from one pass, in units of 2^e that take each
    shortest semiaxis into [1, 2); a (model, point) whose squares overflow takes v in units
    that bring s near 2^60, where s - 1 still reads s.  Both scalings are exact."""
    geoms = [model.geometry for model in models]
    if len(geoms) == 1:  # views and floats: (1, 1) columns cost a refit step 10 % (BENCH_28.json)
        g = geoms[0]
        rotation, translation, semiaxes = g.rotation[None], g.translation[None], g.semiaxes[None]
        e = math.frexp(min(g.semiaxes.tolist()))[1] - 1
        r = np.ldexp(semiaxes, -e)  # at least 1
        length, half = math.ldexp(math.sqrt(r[0].dot(r[0])) / 3.0, e), math.ldexp(0.5, e)
    else:  # rotations column-major as models hold them, r.r by matmul: other forms round apart
        rotation = np.array([g.rotation.T for g in geoms]).transpose(0, 2, 1)
        translation = np.array([g.translation for g in geoms])
        semiaxes = np.array([g.semiaxes for g in geoms])
        e = np.frexp(semiaxes.min(axis=1, keepdims=True))[1] - 1  # (k, 1) columns
        r = np.ldexp(semiaxes, -e)
        length, half = np.ldexp(np.sqrt(r[:, None] @ r[:, :, None])[:, 0] / 3, e), np.ldexp(0.5, e)
    squares = (rotation / semiaxes[:, :, None]) @ pts.T  # v = (R x + t) / r, (k, 3, n)
    squares += (translation / semiaxes)[:, :, None]  # in place: unstaged, dense fits ran slower
    np.square(squares, out=squares)
    level = squares[:, 0] + squares[:, 1] + squares[:, 2]  # bounds (1 / r^2) @ squares
    far = ()
    if not level.max(initial=0.0) < np.inf:  # redone model by model
        model, point = far = np.nonzero(~(level < np.inf))
        v = np.concatenate([(pts[point[model == i]] @ rotation[i].T + translation[i]) / r[i]
                            for i in np.unique(model)])
        unit = np.frexp(np.abs(v).max(axis=1))[1] - 60  # v 2^e is finite as r >= 1
        squares[model, :, point] = sq = np.square(np.ldexp(v, -unit[:, None]))
        level[far] = sq.sum(axis=1)
    terms = {}
    if "scale" in names:
        terms["scale"] = np.sqrt(level)
    if "algebraic" in names:
        trace = np.array([model.coeffs[:3].sum() for model in models])[:, None]  # q1 + q2 + q3
        kappa = np.ldexp(trace / (1.0 / np.square(r)).sum(axis=1, keepdims=True), 2 * e)
        terms["algebraic"] = kappa * np.abs(level - 1.0)
    if "sampson" in names:  # |s^2 - 1| / (2 ||v / r||), +inf at the center; half is 2^(e - 1)
        vals = terms["sampson"] = (np.abs(level - 1.0)  # over 2^e ||grad F|| / (2 kappa)
                                   / np.sqrt((1.0 / np.square(r))[:, None] @ squares)[:, 0] * half)
        vals[level <= GRADIENT_TOL ** 2] = np.inf
    if "axial" in names:  # |s - 1| ||semiaxes|| / 3; last: fewer live arrays, fewer faults
        terms["axial"] = np.abs(np.sqrt(level) - 1.0) * length
    for name, vals in terms.items() if len(far) else ():
        shift = unit - np.reshape(e, -1)[model]
        vals[far] = np.ldexp(vals[far], 2 * shift if name == "algebraic" else shift)
    return terms


def algebraic_distance(points, model: EllipsoidModel):
    """|d(x) @ q| for unit-norm, sign-normalized coefficients, as kappa |s^2 - 1|."""
    return evaluate_metric(ALGEBRAIC, points, model)


def scaling_factor(points, model: EllipsoidModel):
    """Semiaxis scale s of the concentric member surface through each point.

    s == 0 at the center, s == 1 exactly on the surface.
    """
    return _shaped(_unit_terms(("scale",), as_points(points), [model])["scale"][0], points)


def axial_distance(points, model: EllipsoidModel):
    """|s - 1| * ||semiaxes||_2 / 3: member offset converted to a length."""
    return evaluate_metric(AXIAL, points, model)


def sampson_distance(points, model: EllipsoidModel):
    """First-order algebraic distance |F| / ||grad F||.

    Returns +inf where the gradient vanishes (only at the model center).
    """
    return evaluate_metric(SAMPSON, points, model)


def orthogonal_distance(points, model: EllipsoidModel):
    """Exact Euclidean distance to the ellipsoid surface (unsigned).

    With w = |R x + t| and e_i = r_i^2 - min(r)^2, the foot point is r_i^2 w_i
    / (e_i + s) at the largest root s >= 0 of the convex, decreasing f(s) =
    sum((r_i w_i / (e_i + s))^2) - 1; shifting the usual root by min(r)^2
    keeps the shortest axes' digits near the center.  Newton's method from
    s0 = max(0, max_i(r_i w_i - e_i)), where one term is at least one or no
    shortest axis has w_i > 0, climbs to it without overshooting; a row stops
    when a step no longer raises s.  A row that stays at 0 has f(0) <= 0 (the
    center included): its nearest point leaves its active subspace along a
    shortest axis, adding min(r)^2 (-f(0)) to the squared distance.  e_i = 1
    where r_i w_i = 0, so an inactive shortest axis reads 0, not 0/0.  Each
    row is in units of 2^k, k the exponent of its largest coordinate or
    semiaxis (exact, and every length below one); terms are squared ratios
    and the distance a hypot, so none overflows.
    """
    geom = model.geometry
    # rows per axis, (3, n): each sum or extreme over the axes is two row operations
    w = np.abs(as_points(points) @ geom.rotation.T + geom.translation).T.copy()
    axes = geom.semiaxes[:, None]
    w[w <= ZERO_SNAP * float(axes.max())] = 0.0
    unit = np.frexp(np.maximum(w.max(axis=0), axes.max()))[1]
    r, r_min = np.ldexp(axes, -unit), np.ldexp(axes.min(), -unit)
    np.ldexp(w, -unit, out=w)
    rw = r * w
    r_sq = np.square(r)
    excess = np.where(rw > 0.0, r_sq - np.square(r_min), 1.0)
    s = np.maximum((rw - excess).max(axis=0), 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # once, not per step
        for _ in range(ROOT_MAX_ITERATIONS):
            d = excess + s
            terms = np.square(rw / d)
            residual = terms.sum(axis=0) - 1.0
            raised = s + residual / (2.0 * (terms / d).sum(axis=0))
            rising = raised > s
            if not rising.any():
                break
            s = np.where(rising, raised, s)
        else:
            raise ConvergenceFailure(
                f"foot-point root solve still rising after {ROOT_MAX_ITERATIONS} iterations")
    gap = w - r_sq * w / d
    pinned = r_min * np.sqrt(np.where(s > 0.0, 0.0, np.maximum(-residual, 0.0)))
    dist = np.hypot(np.hypot(gap[0], gap[1]), np.hypot(gap[2], pinned))
    return _shaped(np.ldexp(dist, unit), points)


def cas_distance(points, model: EllipsoidModel, lam: float = 0.5):
    """Blend lam * axial + (1 - lam) * sampson."""
    return evaluate_metric(cas(lam), points, model)


def _components(kind: MetricKind) -> tuple:
    """The single kinds in ``kind``.  A blend at lam 0 or 1 is its component untouched, so
    that the endpoints are an exact reduction (and 0 * inf never poisons the blend)."""
    names = _PAIR_KINDS.get(kind.kind, (kind.kind,))
    if kind.lam in (0.0, 1.0):  # never for a single kind, whose lam is 0.5
        names = names[:1] if kind.lam == 1.0 else names[1:]
    return names


def _blend(kind: MetricKind, terms: dict) -> np.ndarray:
    """The values of ``kind`` from ``terms``, the (n,) values of its ``_components``."""
    names = _components(kind)
    if len(names) == 1:
        return terms[names[0]]
    blend = kind.lam * terms[names[0]]  # terms stay untouched: casfit distances reuses them
    return np.add(blend, (1.0 - kind.lam) * terms[names[1]], out=blend)


def _evaluate(kind: MetricKind, pts: np.ndarray, models: list) -> np.ndarray:
    """``kind`` at the (n, 3) ``pts`` for a list of k models, (k, n).  The orthogonal distance
    runs first (its temporaries and the unit frame's are never alive at once), model by model,
    outside ``_unit_terms``' errstate and looked up at call time, so its wrappers are called."""
    names, terms = _components(kind), {}
    if "orthogonal" in names:
        terms["orthogonal"] = np.array([orthogonal_distance(pts, model) for model in models])
    if names != ("orthogonal",):
        terms.update(_unit_terms(names, pts, models))
    return _blend(kind, terms)


def evaluate_metric(kind: MetricKind, points, model: EllipsoidModel):
    """Evaluate any metric kind: a float for a (3,) point, an (n,) array for a stack."""
    return _shaped(_evaluate(kind, as_points(points), [model])[0], points)
