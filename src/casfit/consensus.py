"""Sample-consensus ellipsoid fitting with optional local optimization.

The engine repeatedly fits a quadric to a minimal point sample, keeps the
candidate whose Gaussian-kernel score over all points is highest, and runs
a weighted-refit cascade, up to its first refit that scores no higher,
whenever the sample-consensus best improves.  The number of iterations
adapts to the best model's inlier ratio, with the confidence target ``MU``.

Scoring uses soft per-point energies exp(-d^2 / (2 eps^2)) rather than a
hard inlier count, so models are rewarded for being close to many points,
not just for clearing the threshold.  One metric, the score metric, gives
both the scores and the refit weights.  Each model's distances under it are
evaluated once, stacked for a chunk's candidates (``_scored``) with the bits
of each alone; score, inlier labels and refit weights come from that array.

``fit`` and ``local_optimize`` enter one frame by one path (``_frame``):
it checks and conditions their points once (``leastsq.condition``), turns
flat clouds away and divides the threshold by the same scale.  Only the
returned model is mapped back, its geometry exactly (``quadric.to_scene``).
The refit cascade (``_refine``) runs in the frame it is handed and neither
conditions nor maps.  Every metric but the algebraic one is similarity
invariant, so no decision changes beyond rounding, and the solves stay well
conditioned at any offset.

This module draws, scores and runs the loop; ``quadric`` turns coefficient
rows into models.  A minimal sample is solved once, by LU
(``quadric.solve_samples``), and a refit by ``quadric.solve_rows`` on the
cloud's rows alone, skipped where that is not well posed (None).  Both build
their models with ``quadric._ellipsoids``, failures as None.

Design rows depend only on the points, and only the solves read them.
``fit`` builds the rows of the conditioned cloud once and gathers each
chunk's (k, 9, 10) sample rows from them, bit for bit, for its one solve;
``local_optimize`` builds its rows once per call.  Nothing built here
outlives the call that built it.

Everything is deterministic for a fixed seed: the generator is PCG64 and
samples are drawn in a fixed order, single threaded.  Samples are drawn,
solved and validated in chunks, which changes neither the draw order nor
the iteration at which the loop stops.  One ``sample_minimal`` call draws a
whole chunk and yields the rows of one call per sample, so the samples do
not depend on where chunks begin, and chunks grow as the loop runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distances import MetricKind, _components, _evaluate, cas, evaluate_metric
from .errors import (NoModelFound, NotAnEllipsoid, TooFewPoints, require_integers, require_reals,
                     require_seed)
# gaussian_weights, lls_fit and wls_fit are not called here but stay module
# attributes: perfbench/tracer.py wraps them by these names.
from .leastsq import (MIN_POINTS, SUPPORT_TOL, condition, gaussian_weights,  # noqa: F401
                      lls_fit, point_energy, wls_fit)
from .quadric import (SQUARE_RANGE, EllipsoidModel, _ellipsoids, as_points, design_matrix,
                      require_carried, solve_rows, solve_samples, to_scene)

RNG_ALGORITHM = "PCG64"

# Confidence that the adaptive stop has drawn one all-inlier sample.
MU = 0.95

# The refit cascade's LO_STEPS kernel widths run from LO_EPS_START to LO_EPS_END x eps.
LO_STEPS = 5
LO_EPS_START = 1.5
LO_EPS_END = 0.5

# A cloud whose scatter matrix has a smallest eigenvalue at or below this fraction of its
# largest (a relative thickness t of 1e-10) is coplanar, collinear or a single point.  No minimal
# sample drawn from it gives a candidate, so no fittable cloud is turned away: the out-of-plane
# terms of a sample's quadric meet its design rows only through offsets of size t and their
# squares, so where the LU finds that quadric, its block has eigenvalues ~t^2 <= 1e-20 apart:
# solve_samples' screen may drop it first, and check_ellipsoids finds it DEGENERATE (1e-12).
FLAT_TOL = 1e-20


@dataclass(frozen=True)
class FitConfig:
    """Knobs for one fitting run.

    ``score_metric`` defaults to the combined axial/Sampson metric
    ``cas()``; its blend ratio is part of the kind.  It scores the
    candidates and weights the refits.  Another kind with ``local_opt=False``
    reproduces plain sample consensus under a single distance.  Minimal
    samples always have ``leastsq.MIN_POINTS`` (9) points, the adaptive stop
    targets ``MU`` and the refit cascade has up to ``LO_STEPS`` steps.
    """

    epsilon: float
    score_metric: MetricKind = cas()
    local_opt: bool = True
    max_iterations: int = 100_000
    min_iterations: int = 50
    seed: int = 0

    def __post_init__(self):
        require_integers(self, "max_iterations", "min_iterations")
        require_seed(self)
        require_reals(self, "epsilon")
        if not isinstance(self.local_opt, bool):
            raise ValueError(f"local_opt must be a bool, got {self.local_opt!r}")
        if not isinstance(self.score_metric, MetricKind):
            raise ValueError(f"score_metric must be a MetricKind, got {self.score_metric!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        require_bounds(self.min_iterations, self.max_iterations)


def require_bounds(min_iterations: int, max_iterations: int) -> None:
    """Raise ValueError unless 1 <= min_iterations <= max_iterations."""
    if not 1 <= min_iterations <= max_iterations:
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
    Raises ValueError unless 1 <= min_iterations <= max_iterations.
    """
    require_bounds(min_iterations, max_iterations)
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
    j-th is the r_j = floor(u_j * (point_count - j))-th index not chosen
    before it (floor(u * m) < m for every double u < 1), which makes each
    subset equally likely.  Ranks decode last to first, with no sort: where
    those after j index the points the first j + 1 leave free, adding 1 to
    those at or above r_j makes them index the points the first j leave free.
    """
    if point_count < sample_size:
        raise TooFewPoints(f"need at least {sample_size} points, got {point_count}")
    u = rng.random((1 if count is None else count, sample_size))
    idx = (u * (point_count - np.arange(sample_size))).astype(np.intp)
    for j in range(sample_size - 2, -1, -1):
        tail = idx[:, j + 1:]
        tail += tail >= idx[:, j, None]
    return idx[0] if count is None else idx


def _lo_schedule(epsilon: float) -> np.ndarray:
    return np.linspace(LO_EPS_START * epsilon, LO_EPS_END * epsilon, LO_STEPS)


def _frame(points, epsilon: float) -> tuple:
    """(pts, local, center, scale, epsilon): ``points`` as an (n, 3) array, ``condition``-ed,
    with ``epsilon`` in their frame.  Raises TooFewPoints below MIN_POINTS points, NoModelFound
    on flat ones (``FLAT_TOL``) and NotAnEllipsoid where their spread or mean lies above
    ``SQUARE_RANGE`` or the cascade's kernel widths are not positive finite doubles there."""
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    local, center, scale = condition(pts)
    require_carried(max(scale, SQUARE_RANGE[0]), max(scale, *np.abs(center)))  # upper end
    spread, axes = np.linalg.eigh(local.T @ local)
    if np.sum((local @ axes[:, 0]) ** 2) <= FLAT_TOL * spread[-1]:
        raise NoModelFound("points are coplanar, collinear or identical")
    local_epsilon = epsilon / scale
    if not (LO_EPS_END * local_epsilon > 0.0 and LO_EPS_START * local_epsilon < math.inf):
        raise NotAnEllipsoid(f"epsilon {epsilon:.3g} at scale {scale:.3g} leaves the doubles")
    return pts, local, center, scale, local_epsilon


def _refine(kind: MetricKind, pts: np.ndarray, rows: np.ndarray, epsilon: float, d):
    """Refit cascade from the distances ``d`` in the frame of ``pts``; None when nothing validates.

    ``rows`` is ``design_matrix(pts)``, ``epsilon`` the threshold there.  Each step weights the
    points by the current model's ``kind`` distances (``d`` at first) with a shrinking kernel and
    refits them (``solve_rows``).  A step is skipped when under MIN_POINTS weights exceed
    SUPPORT_TOL or its solve is None (not well posed) or no ellipsoid.  The first refit to score
    no higher than the best so far ends the cascade.  Returns (model, score, distances) of the best.
    """
    best = None
    for eps_lo in _lo_schedule(epsilon):
        w = point_energy(d, eps_lo)
        if np.count_nonzero(w > SUPPORT_TOL) < MIN_POINTS:
            continue
        q = solve_rows(rows, w)
        refit = None if q is None else _ellipsoids(q[None])[1][0]
        if refit is None:
            continue
        d = evaluate_metric(kind, pts, refit)
        score = float(point_energy(d, epsilon).sum())
        if best is not None and score <= best[1]:
            break
        best = (refit, score, d)
    return best


def local_optimize(model: EllipsoidModel, points, cfg: FitConfig) -> Optional[tuple]:
    """Weighted-refit cascade around ``model``; None when nothing validates.

    The points enter ``fit``'s frame with its checks (``_frame``), ``model``
    is mapped into it and the cascade (``_refine``, up to its first refit that
    scores no higher) runs there on design rows built once.  Returns (model,
    score, distances under the score metric) of its best step, with the model
    mapped back exactly and its distances and score evaluated on ``points``.
    Flat points, which ``fit`` turns away with NoModelFound, give None before any refit.
    """
    try:
        pts, local, center, scale, epsilon = _frame(points, cfg.epsilon)
    except NoModelFound:
        return None
    start = to_scene(model, -center / scale, 1.0 / scale)
    best = _refine(cfg.score_metric, local, design_matrix(local), epsilon,
                   evaluate_metric(cfg.score_metric, local, start))
    if best is None:
        return None
    refined = to_scene(best[0], center, scale)
    d = evaluate_metric(cfg.score_metric, pts, refined)
    return refined, float(np.sum(point_energy(d, cfg.epsilon))), d


ProgressHook = Callable[[int, float, int], None]


def _scored(kind: MetricKind, pts: np.ndarray, models: list, epsilon: float):
    """Yield (distances, score) for each of ``models`` but None, with the bits of its one-model
    evaluation, from blocks of at most 2^14 distances (larger ones cost memory, save no time).
    A kind with an orthogonal term takes one model per block: that term runs model by model,
    and a block would also solve for models past the iteration where the loop stops."""
    models = [model for model in models if model is not None]
    size = 1 if "orthogonal" in _components(kind) else max(2**14 // len(pts), 1)
    for start in range(0, len(models), size):
        d = _evaluate(kind, pts, models[start:start + size])
        yield from zip(d, point_energy(d, epsilon).sum(axis=1).tolist())


# Minimal samples drawn, solved and validated together: CHUNK at first, then as
# many as the loop has run, up to MAX_CHUNK and never past the budget.
CHUNK = 64
MAX_CHUNK = 512


def fit(points, cfg: FitConfig, progress: Optional[ProgressHook] = None) -> FitReport:
    """Robustly fit an ellipsoid to ``points``.

    Runs adaptive sample consensus with the configured score metric and,
    when ``cfg.local_opt`` is set, a weighted-refit cascade each time the
    sample-consensus best improves.  Raises up front what ``_frame`` raises:
    TooFewPoints below ``MIN_POINTS`` (9) points, NotAnEllipsoid when their
    spread or mean lies above ``quadric.SQUARE_RANGE`` or epsilon over their
    scale leaves the doubles, NoModelFound when they are coplanar, collinear
    or identical.  Raises NoModelFound when no candidate validates within the
    budget, and NotAnEllipsoid when the fitted ellipsoid's magnitudes leave
    the range (``quadric.to_scene``).

    The loop runs on the conditioned cloud.  It draws and solves chunks of
    minimal samples (see MAX_CHUNK), then replays them one iteration at a
    time, so the result is that of one sample drawn and solved per iteration.

    The optional ``progress`` hook receives (iteration, best score so far,
    required iterations) after every iteration.
    """
    start = time.perf_counter()
    _, local, center, scale, epsilon = _frame(points, cfg.epsilon)
    rows = design_matrix(local)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    best = (None, -math.inf, None)  # (model, score, distances) in the conditioned frame
    best_sample_score = -math.inf  # best among raw minimal-sample models
    required = cfg.max_iterations
    lo_invocations = 0
    iteration = 0

    while iteration < required:
        chunk = min(max(iteration, CHUNK), MAX_CHUNK, required - iteration)
        candidates = solve_samples(rows[sample_minimal(len(rows), MIN_POINTS, rng, count=chunk)])
        scored = _scored(cfg.score_metric, local, candidates, epsilon)
        for candidate in candidates:
            iteration += 1
            if candidate is not None:
                d, score = next(scored)
                if score > best_sample_score:
                    best_sample_score = score
                    found = (candidate, score, d)
                    if cfg.local_opt:
                        lo_invocations += 1
                        refined = _refine(cfg.score_metric, local, rows, epsilon, d)
                        if refined is not None and refined[1] > score:
                            found = refined
                    if found[1] > best[1]:
                        best = found
                        required = required_iterations((best[2] < epsilon).mean(), MU, MIN_POINTS,
                                                       cfg.min_iterations, cfg.max_iterations)
            if progress is not None:
                progress(iteration, best[1], required)
            if iteration >= required:
                break

    if best[0] is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    labels = best[2] < epsilon
    return FitReport(
        model=to_scene(best[0], center, scale),
        score=best[1],
        inlier_mask=labels,
        inlier_ratio=float(labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=time.perf_counter() - start,
    )
