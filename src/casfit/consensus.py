"""Sample-consensus ellipsoid fitting with optional local optimization.

The engine repeatedly fits a quadric to a minimal point sample, keeps the
candidate whose Gaussian-kernel score over all points is highest, and runs
a short weighted-refit cascade whenever the sample-consensus best improves.
The number of iterations adapts to the inlier ratio of the best model so
far, with the confidence target ``MU``.

Scoring uses soft per-point energies exp(-d^2 / (2 eps^2)) rather than a
hard inlier count, so models are rewarded for being close to many points,
not just for clearing the threshold.  One metric, the score metric, gives
both the scores and the refit weights.  Each model's distances under it are
evaluated once; its score, its inlier labels and the weights of the refit
that follows it all come from that one array.

``fit`` and ``local_optimize`` each condition their points once
(``leastsq.condition``) and run in that frame with the threshold divided by
the same scale; only the returned model is mapped back, its geometry
exactly.  The refit cascade (``_refine``) runs in the frame it is handed and
neither conditions nor maps.  Every metric but the algebraic one is
similarity invariant, so no decision changes beyond rounding, and the solves
stay well conditioned at any offset.  Minimal samples and refits share one
solve-and-build path: the stacked ``solve_rows`` and ``quadric._ellipsoids``,
with failures as None, not raised.

Design rows depend only on the points, and only the solves read them.
``fit`` builds the rows of the conditioned cloud once for all of its refit
cascades when local optimization is on, ``local_optimize`` once per call,
and ``_candidates`` each chunk's (k, 9, 10) sample rows once for the screen
and the exact solve.  Nothing built here outlives the call that built it.

Everything is deterministic for a fixed seed: the generator is PCG64 and
samples are drawn in a fixed order, single threaded.  Samples are drawn,
solved and validated in chunks, which changes neither the draw order nor
the iteration at which the loop stops.  One ``sample_minimal`` call draws a
whole chunk and yields the rows of one call per sample, so the samples do
not depend on where chunks begin, and chunks grow as the loop runs.  A
batched 9x9 LU solve and closed-form minors screen each chunk ahead of the
exact 10x10 eigen-solve; they skip only rows that are no ellipsoid beyond
rounding, so every candidate still comes from the exact solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .distances import MetricKind, cas, evaluate_metric
from .errors import NoModelFound, TooFewPoints, require_integers, require_reals
# gaussian_weights, lls_fit and wls_fit are not called here but stay module
# attributes: perfbench/tracer.py wraps them by these names.
from .leastsq import (MIN_POINTS, SUPPORT_TOL, condition, decondition,  # noqa: F401
                      gaussian_weights, lls_fit, point_energy, solve_rows, wls_fit)
from .quadric import (SQUARE_RANGE, EllipsoidGeometry, EllipsoidModel, _ellipsoids, as_points,
                      design_matrix, require_carried)

RNG_ALGORITHM = "PCG64"

# Confidence that the adaptive stop has drawn one all-inlier sample.
MU = 0.95

# The refit cascade's LO_STEPS kernel widths run from LO_EPS_START to LO_EPS_END x eps.
LO_STEPS = 5
LO_EPS_START = 1.5
LO_EPS_END = 0.5

# A cloud whose scatter matrix has a smallest eigenvalue at or below this
# fraction of its largest (a relative thickness of 1e-10) is coplanar,
# collinear or a single point.  Every minimal sample drawn from it fails the
# leastsq.EIGENGAP_TOL test, so no fittable cloud is turned away.
FLAT_TOL = 1e-20


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fitting run.

    ``score_metric`` defaults to the combined axial/Sampson metric
    ``cas()``; its blend ratio is part of the kind.  It scores the
    candidates and weights the refits.  Another kind with ``local_opt=False``
    reproduces plain sample consensus under a single distance.  Minimal
    samples always have ``leastsq.MIN_POINTS`` (9) points, the adaptive stop
    targets ``MU`` and the refit cascade has ``LO_STEPS`` steps.
    """

    epsilon: float
    score_metric: MetricKind = cas()
    local_opt: bool = True
    max_iterations: int = 100_000
    min_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "max_iterations", "min_iterations", "seed")
        require_reals(self, "epsilon")
        if not isinstance(self.local_opt, bool):
            raise ValueError(f"local_opt must be a bool, got {self.local_opt!r}")
        if not isinstance(self.score_metric, MetricKind):
            raise ValueError(f"score_metric must be a MetricKind, got {self.score_metric!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.min_iterations < 1 or self.max_iterations < self.min_iterations:
            raise ValueError("iteration bounds must satisfy 1 <= min <= max")


@dataclass(frozen=True)
class FitReport:
    """Result of one fitting run."""

    model: EllipsoidModel
    score: float
    inlier_mask: np.ndarray
    inlier_ratio: float
    iterations: int
    lo_invocations: int
    wall_time: float
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        mask = np.array(self.inlier_mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "inlier_mask", mask)


def model_score(model: EllipsoidModel, points, epsilon: float,
                metric: MetricKind = cas()) -> float:
    """Sum of point energies under ``metric`` (default: combined metric)."""
    d = evaluate_metric(metric, points, model)
    return float(np.sum(point_energy(d, epsilon)))


def required_iterations(v: float, mu: float, n: int,
                        min_iterations: int = 1,
                        max_iterations: int = FitConfig.max_iterations) -> int:
    """Adaptive iteration budget ceil(log(1 - mu) / log(1 - v^n)), clamped.

    ``v`` is the inlier ratio of the best model so far.  v == 0 (or an
    underflowing v^n) yields the upper clamp, v == 1 the lower clamp.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError("inlier ratio must lie in [0, 1]")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("sample size must be positive")
    vn = v ** n
    if vn >= 1.0:
        return min_iterations
    if vn <= 0.0:
        return max_iterations
    denom = math.log1p(-vn)
    raw = math.log1p(-mu) / denom
    if raw >= max_iterations:
        return max_iterations
    return max(min_iterations, math.ceil(raw))


def classify(points, model: EllipsoidModel, epsilon: float,
             metric: MetricKind = cas()) -> np.ndarray:
    """Boolean inlier mask: distance strictly below epsilon."""
    d = np.atleast_1d(evaluate_metric(metric, points, model))
    return d < epsilon


def sample_minimal(point_count: int, sample_size: int, rng: np.random.Generator,
                   count: Optional[int] = None) -> np.ndarray:
    """Uniform minimal sample of distinct point indices; ``count`` of them as rows.

    Every sample takes ``sample_size`` doubles from one ``rng.random`` call,
    row by row, so one call with ``count=k`` returns the rows of k calls
    without it.  Sequential selection maps each row to distinct indices: the
    j-th is the floor(u_j * (point_count - j))-th index not chosen before it
    (floor(u * m) < m for every double u < 1), which makes each subset
    equally likely.
    """
    if point_count < sample_size:
        raise TooFewPoints(f"need at least {sample_size} points, got {point_count}")
    u = rng.random((1 if count is None else count, sample_size))
    idx = (u * (point_count - np.arange(sample_size))).astype(np.intp)
    for j in range(1, sample_size):
        # With the chosen indices sorted, t_i - i of them are free below t_i,
        # so the r-th free index is r plus the count of t_i - i <= r.
        free_below = np.sort(idx[:, :j], axis=1) - np.arange(j)
        idx[:, j] += (free_below <= idx[:, j, None]).sum(axis=1)
    return idx[0] if count is None else idx


def _lo_schedule(epsilon: float) -> np.ndarray:
    return np.linspace(LO_EPS_START * epsilon, LO_EPS_END * epsilon, LO_STEPS)


def _refine(pts: np.ndarray, rows: np.ndarray, cfg: FitConfig, d: np.ndarray) -> Optional[tuple]:
    """Refit cascade from the distances ``d`` in the frame of ``pts``; None when nothing validates.

    ``rows`` is ``design_matrix(pts)[None]``.  Each step weights the points by
    the current model's score-metric distances, ``d`` at the start, with a
    shrinking kernel width and refits them through ``solve_rows``; the refit
    becomes the current model when it is an ellipsoid, and the step is
    skipped when it is not or fewer than MIN_POINTS weights exceed
    SUPPORT_TOL.  Returns (model, score, distances) of the best step.
    """
    best, best_score = None, -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon):
        w = point_energy(d, eps_lo)
        if np.count_nonzero(w > SUPPORT_TOL) < MIN_POINTS:
            continue
        (refit,) = _ellipsoids(*solve_rows(rows, w[None]))[1]
        if refit is None:
            continue
        d = evaluate_metric(cfg.score_metric, pts, refit)
        score = float(point_energy(d, cfg.epsilon).sum())
        if score > best_score:
            best, best_score = (refit, score, d), score
    return best


def local_optimize(model: EllipsoidModel, points, cfg: FitConfig) -> Optional[tuple]:
    """Weighted-refit cascade around ``model``; None when nothing validates.

    The points are conditioned once, ``model`` is mapped into their frame
    and the cascade (``_refine``) runs there on design rows built once.
    Returns (model, score, distances under the score metric) of its
    best-scoring step, with the model mapped back exactly and its distances
    and score evaluated on ``points``.  Identical points give None; it raises
    NotAnEllipsoid up front as ``fit`` does.
    """
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    local, center, scale = condition(pts)
    if scale == 0.0:
        return None
    require_carried(max(scale, SQUARE_RANGE[0]), max(scale, *np.abs(center)))  # upper end
    start = _to_scene(model, -center / scale, 1.0 / scale)
    best = _refine(local, design_matrix(local)[None],
                   replace(cfg, epsilon=cfg.epsilon / scale),
                   evaluate_metric(cfg.score_metric, local, start))
    if best is None:
        return None
    refined = _to_scene(best[0], center, scale)
    d = evaluate_metric(cfg.score_metric, pts, refined)
    return refined, float(np.sum(point_energy(d, cfg.epsilon))), d


ProgressHook = Callable[[int, float, int], None]

# Minimal samples drawn, solved and validated together: CHUNK at first, then as
# many as the loop has run, up to MAX_CHUNK and never past the budget.
CHUNK = 64
MAX_CHUNK = 512

# adj(A)_11, adj(A)_33, adj(A)_12 and adj(A)_13 = q[_ADJ[0]] q[_ADJ[1]] - q[_ADJ[2]] q[_ADJ[3]]
# in q's (a11, a22, a33, a12, a13, a23) layout.
_ADJ = np.array([[1, 0, 4, 3], [2, 1, 5, 5], [5, 3, 3, 4], [5, 3, 2, 1]])
SCREEN_ROUNDING = 16 * 2.0**-53  # above gamma_5, with room for rounding the bound


def _screen(rows: np.ndarray) -> np.ndarray:
    """Mask of the samples whose quadric may be an ellipsoid, from their (k, 9, 10) design rows.

    The design's last column is -1, so where the 9x9 block D[:, :9] is
    regular, q = (x, 1) with D[:, :9] x = 1 spans the row's null space.  One
    batched LU solve and ``_may_be_ellipsoids`` on the quadratic blocks of
    those q stand in for the 10x10 eigen-solve.  Every row is kept when some
    block is exactly singular.  Raises ValueError for rows of any other
    shape, which would otherwise fail the solve and so keep every row.
    """
    if rows.shape[1:] != (MIN_POINTS, 10):
        raise ValueError(f"expected (k, {MIN_POINTS}, 10) design rows, got shape {rows.shape}")
    try:
        x = np.linalg.solve(rows[:, :, :9], np.ones((len(rows), 9, 1)))[:, :, 0]
    except np.linalg.LinAlgError:
        return np.ones(len(rows), dtype=bool)
    return _may_be_ellipsoids(x[:, :6].T.copy())  # contiguous rows: faster than the view


def _may_be_ellipsoids(a: np.ndarray) -> np.ndarray:
    """False for the columns of a (6, k) block stack that are not definite beyond rounding.

    The blocks are in q's (a11, a22, a33, a12, a13, a23) layout.  Definiteness
    alone decides: a quadric with a definite block is an ellipsoid, a single
    point or empty, so a minimal sample's quadric, through nine distinct real
    points, is a real ellipsoid once its block is definite.

    Finite columns are scaled in place by an exact +-2^-e to trace(A) >= 0
    (a definite diagonal shares one sign, which its rounded sum keeps) and
    largest entry in [1/2, 1).  A definite block then has a11, a11 a22 -
    a12^2 and det A positive.  Each is a sum of products with at most 5
    roundings on any path, so its error is below SCREEN_ROUNDING times the
    computed sum over absolute values (gamma_5, Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), plus the smallest normal double.
    A column is False only when one of the three is negative beyond that, so
    no row that is an ellipsoid in exact arithmetic is turned away.
    """
    finite = np.isfinite(a).all(axis=0)
    a[:, ~finite] = 1.0  # and kept
    a *= np.ldexp(np.copysign(1.0, a[0] + a[1] + a[2]), -np.frexp(np.abs(a).max(axis=0))[1])
    left, right = a[_ADJ[0]] * a[_ADJ[1]], a[_ADJ[2]] * a[_ADJ[3]]
    adj, adj_abs = left - right, np.abs(left) + np.abs(right)
    det = np.einsum("ik,ik->k", a[[0, 3, 4]], adj[[0, 2, 3]])  # sum of a_1j adj(A)_1j
    det_abs = np.einsum("ik,ik->k", np.abs(a[[0, 3, 4]]), adj_abs[[0, 2, 3]])
    value = np.stack([a[0], adj[1], det])
    bound = np.stack([np.zeros_like(det), adj_abs[1], det_abs])
    return ~finite | (value >= -(SCREEN_ROUNDING * bound + np.finfo(float).tiny)).all(axis=0)


def _candidates(pts: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Draw ``k`` minimal samples of conditioned points in order, screen them
    (``_screen``) and solve the rows it keeps as one stack; returns each
    sample's ``_ellipsoids`` model, None for a row the screen drops.  The
    samples' design rows are built once for the screen and the solve.
    """
    idx = sample_minimal(len(pts), MIN_POINTS, rng, count=k)
    rows = design_matrix(pts[idx.reshape(-1)]).reshape(k, MIN_POINTS, 10)
    keep = _screen(rows)
    models = iter(_ellipsoids(*solve_rows(rows[keep]))[1])
    return [next(models) if kept else None for kept in keep]


def _to_scene(model: EllipsoidModel, center: np.ndarray, scale: float) -> EllipsoidModel:
    """``model``, fitted to points conditioned with ``center`` and ``scale``, in their frame.

    The geometry maps exactly: with x_l = (x - c) / s, s (R x_l + t) is
    R x + (s t - R c), and the semiaxes scale by s.  Raises NotAnEllipsoid
    when a semiaxis lies below ``quadric.SQUARE_RANGE``, or a semiaxis, the
    translation, ``center`` or ``scale`` above it (``require_carried``).
    """
    geom = model.geometry
    translation = scale * geom.translation - geom.rotation @ center
    semiaxes = scale * geom.semiaxes
    require_carried(semiaxes.min(), max(scale, *np.abs(center), *np.abs(translation), *semiaxes))
    return EllipsoidModel._paired(decondition(model.coeffs, center, scale),
                                  EllipsoidGeometry(geom.rotation, translation, semiaxes))


def fit(points, cfg: FitConfig, progress: Optional[ProgressHook] = None) -> FitReport:
    """Robustly fit an ellipsoid to ``points``.

    Runs adaptive sample consensus with the configured score metric and,
    when ``cfg.local_opt`` is set, a weighted-refit cascade each time the
    sample-consensus best improves.  Raises NoModelFound at once when the
    points are coplanar, collinear or identical, and when no candidate
    validates within the iteration budget; TooFewPoints when fewer than
    ``MIN_POINTS`` (9) points are supplied; NotAnEllipsoid up front when the
    points' spread or mean lies above ``quadric.SQUARE_RANGE``, and when the
    fitted ellipsoid's magnitudes leave it (``_to_scene``).

    The loop runs on the conditioned cloud.  It draws and solves chunks of
    minimal samples (see MAX_CHUNK), then replays them one iteration at a
    time, so the result is that of one sample drawn and solved per iteration.

    The optional ``progress`` hook receives (iteration, best_score,
    required_iterations) after every iteration.
    """
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    start = time.perf_counter()
    local, center, scale = condition(pts)
    require_carried(max(scale, SQUARE_RANGE[0]), max(scale, *np.abs(center)))  # upper end
    spread = np.linalg.eigvalsh(local.T @ local)
    if spread[0] <= FLAT_TOL * spread[-1]:
        raise NoModelFound("points are coplanar, collinear or identical")
    rows = design_matrix(local)[None] if cfg.local_opt else None
    local_cfg = replace(cfg, epsilon=cfg.epsilon / scale)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    best_model: Optional[EllipsoidModel] = None
    best_score = -math.inf
    best_labels: Optional[np.ndarray] = None
    best_sample_score = -math.inf  # best among raw minimal-sample models
    required = cfg.max_iterations
    lo_invocations = 0
    iteration = 0

    while iteration < required:
        chunk = min(max(iteration, CHUNK), MAX_CHUNK, required - iteration)
        for candidate in _candidates(local, chunk, rng):
            iteration += 1
            improved = False
            if candidate is not None:
                d = evaluate_metric(cfg.score_metric, local, candidate)
                score = float(point_energy(d, local_cfg.epsilon).sum())
                if score > best_sample_score:
                    best_sample_score = score
                    if score > best_score:
                        best_model, best_score, best_d = candidate, score, d
                        improved = True
                    if cfg.local_opt:
                        lo_invocations += 1
                        refined = _refine(local, rows, local_cfg, d)
                        if refined is not None and refined[1] > best_score:
                            best_model, best_score, best_d = refined
                            improved = True
            if improved:
                best_labels = best_d < local_cfg.epsilon
                required = required_iterations(float(best_labels.mean()), MU, MIN_POINTS,
                                               cfg.min_iterations, cfg.max_iterations)
            if progress is not None:
                progress(iteration, best_score, required)
            if iteration >= required:
                break

    if best_model is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    return FitReport(
        model=_to_scene(best_model, center, scale),
        score=best_score,
        inlier_mask=best_labels,
        inlier_ratio=float(best_labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=time.perf_counter() - start,
    )
