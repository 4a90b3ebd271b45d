"""Sample-consensus ellipsoid fitting with optional local optimization.

The engine repeatedly fits a quadric to a minimal point sample, keeps the
candidate whose Gaussian-kernel score over all points is highest, and runs
a short weighted-refit cascade whenever the sample-consensus best improves.
The number of iterations adapts to the inlier ratio of the best model so
far, with a confidence target ``mu``.

Scoring uses soft per-point energies exp(-d^2 / (2 eps^2)) rather than a
hard inlier count, so models are rewarded for being close to many points,
not just for clearing the threshold.  Each model's distances under the score
metric are evaluated once; its score, its inlier labels and the weights of
the refit that follows it all come from that one array.

``fit`` conditions the whole cloud once (``leastsq.condition``) and runs
the loop in that frame with the threshold divided by the same scale; only
the returned model is mapped back, its geometry exactly.  ``local_optimize``
conditions its points once per call and maps each refit back the same way.
Every metric but the algebraic one is similarity invariant, so no decision
changes beyond rounding, and the solves stay well conditioned at any offset.
Minimal samples and refits share one solve-and-check path: the stacked
``solve_stack`` and ``check_ellipsoids``, with failures as None, not raised.

Everything is deterministic for a fixed seed: the generator is PCG64 and
samples are drawn in a fixed order, single threaded.  Samples are drawn,
solved and validated in chunks, which changes neither the draw order nor
the iteration at which the loop stops.  One ``sample_minimal`` call draws a
whole chunk and yields the rows of one call per sample, so the samples do
not depend on where chunks begin.  Before the exact 10x10 eigen-solve, a
batched 9x9 LU solve screens each chunk of nine-point samples; it skips
only rows whose quadric is not an ellipsoid, so every candidate still comes
from the exact solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .distances import MetricKind, cas, evaluate_metric
from .errors import NoModelFound, TooFewPoints, require_integers
# gaussian_weights, lls_fit and wls_fit are not called here but stay module
# attributes: perfbench/tracer.py wraps them by these names.
from .leastsq import (MIN_POINTS, SUPPORT_TOL, condition, decondition,  # noqa: F401
                      gaussian_weights, lls_fit, point_energy, solve_stack, wls_fit)
from .quadric import (ELLIPSOID, EllipsoidGeometry, EllipsoidModel, as_points,
                      check_ellipsoids, design_matrix, normalize_rows)

RNG_ALGORITHM = "PCG64"

# Annealing range of the refit kernel width, as multiples of eps.
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

    ``score_metric`` and ``weight_metric`` default to the combined
    axial/Sampson metric ``cas:0.5``; its blend ratio is part of the kind.
    Pass other kinds to reproduce plain sample consensus under a single
    distance (no local optimization) or refits driven by another metric.
    Minimal samples always have ``leastsq.MIN_POINTS`` (9) points.
    """

    epsilon: float
    mu: float = 0.95
    score_metric: MetricKind = cas()
    weight_metric: MetricKind = cas()
    local_opt: bool = True
    lo_steps: int = 5
    max_iterations: int = 100_000
    min_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "lo_steps", "max_iterations", "min_iterations", "seed")
        for name in ("score_metric", "weight_metric"):
            if not isinstance(getattr(self, name), MetricKind):
                raise ValueError(f"{name} must be a MetricKind, got {getattr(self, name)!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie strictly between 0 and 1")
        if self.lo_steps < 1:
            raise ValueError("lo_steps must be at least 1")
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
                        max_iterations: int = 100_000) -> int:
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


def _lo_schedule(epsilon: float, steps: int) -> np.ndarray:
    if steps == 1:
        return np.array([epsilon])
    return np.linspace(LO_EPS_START * epsilon, LO_EPS_END * epsilon, steps)


def local_optimize(model: EllipsoidModel, points, cfg: FitConfig,
                   distances: Optional[np.ndarray] = None) -> Optional[tuple]:
    """Weighted-refit cascade around ``model``; None when nothing validates.

    The points are conditioned once per call.  Each step reweights them
    against the current model with a shrinking kernel width, refits them
    with the minimal samples' ``solve_stack`` and keeps the refit, mapped
    back exactly, as the current model when it is an ellipsoid.  Returns
    (model, score, distances under the score metric) of the best-scoring
    step; a step is skipped when fewer than MIN_POINTS weights exceed
    SUPPORT_TOL or its refit is not an ellipsoid.  ``distances``, when
    given, are ``model``'s distances under the score metric; they stand in
    for the first weights' evaluation when the two metrics are the same.
    """
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    local, center, scale = condition(pts)
    weight_metric, score_metric = cfg.weight_metric, cfg.score_metric
    current, d_weight = model, (distances if weight_metric == score_metric else None)
    best, best_score = None, -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon, cfg.lo_steps):
        if d_weight is None:
            d_weight = evaluate_metric(weight_metric, pts, current)
        w = point_energy(d_weight, eps_lo)
        q, ok = solve_stack(local[None], w[None])
        (refit,) = _models(q, ok & (np.count_nonzero(w > SUPPORT_TOL) >= MIN_POINTS))
        if refit is None:
            continue
        candidate = _to_scene(refit, center, scale)
        d = evaluate_metric(score_metric, pts, candidate)
        score = float(np.sum(point_energy(d, cfg.epsilon)))
        if score > best_score:
            best, best_score = (candidate, score, d), score
        current, d_weight = candidate, (d if weight_metric == score_metric else None)
    return best


ProgressHook = Callable[[int, float, int], None]

# Minimal samples drawn, solved and validated together in one chunk.
CHUNK = 64


def _screen(samples: np.ndarray) -> np.ndarray:
    """Rows of a conditioned (k, 9, 3) sample stack whose quadric may be an ellipsoid.

    The design's last column is -1, so where the 9x9 block D[:, :9] is
    regular, q = (x, 1) with D[:, :9] x = 1 spans the row's null space.  One
    batched LU solve and the ellipsoid check on those q stand in for the
    10x10 eigen-solve: a row whose q is not an ellipsoid is dropped, and a
    row whose q is not finite is kept.  Every row is kept when some block is
    exactly singular.
    """
    k = len(samples)
    block = design_matrix(samples.reshape(k * 9, 3)).reshape(k, 9, 10)[:, :, :9]
    try:
        x = np.linalg.solve(block, np.ones((k, 9, 1)))[:, :, 0]
    except np.linalg.LinAlgError:
        return np.ones(k, dtype=bool)
    finite = np.isfinite(x).all(axis=1)
    q = np.ones((k, 10))
    q[finite, :9] = x[finite]
    return ~finite | (check_ellipsoids(normalize_rows(q))[0] == ELLIPSOID)


def _models(coeffs: np.ndarray, ok: np.ndarray) -> list:
    """Each ``solve_stack`` row as an EllipsoidModel; None where not ``ok`` or not an ellipsoid."""
    verdict, rotation, translation, semiaxes = check_ellipsoids(coeffs)
    return [EllipsoidModel(coeffs[j], EllipsoidGeometry(rotation[j], translation[j], semiaxes[j]))
            if ok[j] and verdict[j] == ELLIPSOID else None for j in range(len(coeffs))]


def _candidates(pts: np.ndarray, k: int, rng: np.random.Generator) -> list:
    """Draw ``k`` minimal samples of conditioned points in order, screen them
    (``_screen``) and solve the rows it keeps as one stack; returns each
    sample's ``_models`` entry, None for a row the screen drops.
    """
    samples = pts[sample_minimal(len(pts), MIN_POINTS, rng, count=k)]
    keep = _screen(samples)
    models = iter(_models(*solve_stack(samples[keep])))
    return [next(models) if kept else None for kept in keep]


def _to_scene(model: EllipsoidModel, center: np.ndarray, scale: float) -> EllipsoidModel:
    """``model``, fitted to points conditioned with ``center`` and ``scale``, in their frame.

    The geometry maps exactly: with x_l = (x - c) / s, s (R x_l + t) is
    R x + (s t - R c), and the semiaxes scale by s.
    """
    geom = model.geometry
    return EllipsoidModel(decondition(model.coeffs, center, scale), EllipsoidGeometry(
        geom.rotation, scale * geom.translation - geom.rotation @ center, scale * geom.semiaxes))


def fit(points, cfg: FitConfig, progress: Optional[ProgressHook] = None) -> FitReport:
    """Robustly fit an ellipsoid to ``points``.

    Runs adaptive sample consensus with the configured score metric and,
    when ``cfg.local_opt`` is set, a weighted-refit cascade each time the
    sample-consensus best improves.  Raises NoModelFound at once when the
    points are coplanar, collinear or identical, and when no candidate
    validates within the iteration budget; TooFewPoints when fewer than
    ``MIN_POINTS`` (9) points are supplied.

    The loop runs on the conditioned cloud.  It draws and solves CHUNK
    minimal samples at a time, then replays them one iteration at a time,
    so the result is that of one sample drawn and solved per iteration.

    The optional ``progress`` hook receives (iteration, best_score,
    required_iterations) after every iteration.
    """
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    start = time.perf_counter()
    local, center, scale = condition(pts)
    spread = np.linalg.eigvalsh(local.T @ local)
    if spread[0] <= FLAT_TOL * spread[-1]:
        raise NoModelFound("points are coplanar, collinear or identical")
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
        for candidate in _candidates(local, min(CHUNK, required - iteration), rng):
            iteration += 1
            improved = False
            if candidate is not None:
                d = evaluate_metric(cfg.score_metric, local, candidate)
                score = float(np.sum(point_energy(d, local_cfg.epsilon)))
                if score > best_sample_score:
                    best_sample_score = score
                    if score > best_score:
                        best_model, best_score, best_d = candidate, score, d
                        improved = True
                    if cfg.local_opt:
                        lo_invocations += 1
                        refined = local_optimize(candidate, local, local_cfg, d)
                        if refined is not None and refined[1] > best_score:
                            best_model, best_score, best_d = refined
                            improved = True
            if improved:
                best_labels = best_d < local_cfg.epsilon
                required = required_iterations(float(best_labels.mean()), cfg.mu, MIN_POINTS,
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
