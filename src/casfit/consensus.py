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

Everything is deterministic for a fixed seed: the generator is PCG64 and
samples are drawn in a fixed order, single threaded.  Samples are drawn,
solved and validated in chunks, which changes neither the draw order nor
the iteration at which the loop stops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distances import MetricKind, cas, evaluate_metric
from .errors import (DegenerateQuadric, InsufficientSupport, NoModelFound,
                     NotAnEllipsoid, RankDeficient, TooFewPoints, require_integers)
# gaussian_weights and lls_fit are not called here but stay module attributes:
# perfbench/tracer.py wraps them by these names.
from .leastsq import (gaussian_weights, lls_fit, point_energy,  # noqa: F401
                      solve_stack, wls_fit)
from .quadric import (ELLIPSOID, EllipsoidGeometry, EllipsoidModel, as_points,
                      check_ellipsoids)

RNG_ALGORITHM = "PCG64"

# Annealing range of the refit kernel width, as multiples of eps.
LO_EPS_START = 1.5
LO_EPS_END = 0.5


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fitting run.

    ``score_metric`` and ``weight_metric`` default to the combined
    axial/Sampson metric with blend ratio ``lam``; pass explicit kinds to
    reproduce plain sample consensus under a single distance (no local
    optimization) or refits driven by another metric.
    """

    epsilon: float
    lam: float = 0.5
    mu: float = 0.95
    sample_size: int = 9
    score_metric: Optional[MetricKind] = None
    weight_metric: Optional[MetricKind] = None
    local_opt: bool = True
    lo_steps: int = 5
    max_iterations: int = 100_000
    min_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "sample_size", "lo_steps", "max_iterations",
                         "min_iterations", "seed")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie strictly between 0 and 1")
        if self.sample_size < 9:
            raise ValueError("sample_size must be at least 9")
        if self.lo_steps < 1:
            raise ValueError("lo_steps must be at least 1")
        if self.min_iterations < 1 or self.max_iterations < self.min_iterations:
            raise ValueError("iteration bounds must satisfy 1 <= min <= max")

    def resolved_score_metric(self) -> MetricKind:
        return self.score_metric if self.score_metric is not None else cas(self.lam)

    def resolved_weight_metric(self) -> MetricKind:
        return self.weight_metric if self.weight_metric is not None else cas(self.lam)


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
                metric: MetricKind | None = None) -> float:
    """Sum of point energies under ``metric`` (default: combined metric)."""
    if metric is None:
        metric = cas()
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
             metric: MetricKind | None = None) -> np.ndarray:
    """Boolean inlier mask: distance strictly below epsilon."""
    if metric is None:
        metric = cas()
    d = np.atleast_1d(evaluate_metric(metric, points, model))
    return d < epsilon


def sample_minimal(point_count: int, sample_size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform minimal sample of distinct point indices."""
    if point_count < sample_size:
        raise TooFewPoints(f"need at least {sample_size} points, got {point_count}")
    return rng.choice(point_count, size=sample_size, replace=False)


def _lo_schedule(epsilon: float, steps: int) -> np.ndarray:
    if steps == 1:
        return np.array([epsilon])
    return np.linspace(LO_EPS_START * epsilon, LO_EPS_END * epsilon, steps)


def local_optimize(model: EllipsoidModel, points, cfg: FitConfig) -> Optional[tuple]:
    """Weighted-refit cascade around ``model``; None when nothing validates.

    Each step reweights all points against the current model with a
    shrinking kernel width, refits, and keeps the refit as the new current
    model when it is a valid ellipsoid.  Returns (model, score, distances
    under the score metric) of the best-scoring step; steps whose refit
    fails or degenerates are skipped.
    """
    pts = as_points(points)
    weight_metric = cfg.resolved_weight_metric()
    score_metric = cfg.resolved_score_metric()
    current, d_weight = model, None
    best, best_score = None, -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon, cfg.lo_steps):
        if d_weight is None:
            d_weight = evaluate_metric(weight_metric, pts, current)
        try:
            candidate = EllipsoidModel.from_coeffs(wls_fit(pts, point_energy(d_weight, eps_lo)))
        except (RankDeficient, InsufficientSupport, NotAnEllipsoid, DegenerateQuadric):
            continue
        d = evaluate_metric(score_metric, pts, candidate)
        score = float(np.sum(point_energy(d, cfg.epsilon)))
        if score > best_score:
            best, best_score = (candidate, score, d), score
        current, d_weight = candidate, (d if weight_metric == score_metric else None)
    return best


ProgressHook = Callable[[int, float, int], None]

# Minimal samples drawn, solved and validated together in one chunk.
CHUNK = 64


def _candidates(pts: np.ndarray, n: int, k: int, rng: np.random.Generator):
    """Draw ``k`` minimal samples in order, solve and check them as one stack.

    Yields, per sample, its EllipsoidModel, or None when the sample is rank
    deficient or its quadric is not an ellipsoid.
    """
    idx = np.stack([sample_minimal(len(pts), n, rng) for _ in range(k)])
    coeffs, ok = solve_stack(pts[idx])
    verdict, rotation, translation, semiaxes = check_ellipsoids(coeffs)
    ok &= verdict == ELLIPSOID
    for i in range(k):
        yield (EllipsoidModel(coeffs[i], EllipsoidGeometry(rotation[i], translation[i],
                                                           semiaxes[i]))
               if ok[i] else None)


def fit(points, cfg: FitConfig, progress: Optional[ProgressHook] = None) -> FitReport:
    """Robustly fit an ellipsoid to ``points``.

    Runs adaptive sample consensus with the configured score metric and,
    when ``cfg.local_opt`` is set, a weighted-refit cascade each time the
    sample-consensus best improves.  Raises NoModelFound when no candidate
    validates within the iteration budget and TooFewPoints when fewer than
    ``cfg.sample_size`` points are supplied.

    Minimal samples are drawn and solved CHUNK at a time; the best-model,
    refit and stopping logic then runs over them one iteration at a time,
    so the result is that of drawing and solving one sample per iteration.

    The optional ``progress`` hook receives (iteration, best_score,
    required_iterations) after every iteration.
    """
    pts = as_points(points)
    n = cfg.sample_size
    if len(pts) < n:
        raise TooFewPoints(f"need at least {n} points, got {len(pts)}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    score_metric = cfg.resolved_score_metric()

    start = time.perf_counter()
    best_model: Optional[EllipsoidModel] = None
    best_score = -math.inf
    best_labels: Optional[np.ndarray] = None
    best_sample_score = -math.inf  # best among raw minimal-sample models
    required = cfg.max_iterations
    lo_invocations = 0
    iteration = 0

    while iteration < required:
        for candidate in _candidates(pts, n, min(CHUNK, required - iteration), rng):
            iteration += 1
            improved = False
            if candidate is not None:
                d = evaluate_metric(score_metric, pts, candidate)
                score = float(np.sum(point_energy(d, cfg.epsilon)))
                if score > best_sample_score:
                    best_sample_score = score
                    if score > best_score:
                        best_model, best_score, best_d = candidate, score, d
                        improved = True
                    if cfg.local_opt:
                        lo_invocations += 1
                        refined = local_optimize(candidate, pts, cfg)
                        if refined is not None and refined[1] > best_score:
                            best_model, best_score, best_d = refined
                            improved = True
            if improved:
                best_labels = best_d < cfg.epsilon
                required = required_iterations(float(best_labels.mean()), cfg.mu, n,
                                               cfg.min_iterations, cfg.max_iterations)
            if progress is not None:
                progress(iteration, best_score, required)
            if iteration >= required:
                break

    if best_model is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    return FitReport(
        model=best_model,
        score=best_score,
        inlier_mask=best_labels,
        inlier_ratio=float(best_labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=time.perf_counter() - start,
    )
