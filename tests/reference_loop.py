"""Sequential sample-consensus loop: one minimal sample drawn and solved per iteration.

This is the loop ``casfit.fit`` ran before it solved minimal samples in
chunks and screened them, kept as the reference the chunked loop is tested
against.  It runs in ``fit``'s frame and with its kernel: it conditions the
cloud once with ``condition``, divides epsilon by the same scale, solves
each sample on its own (``solve_sample``: ``np.linalg.solve`` for the
quadric with q1 = 1, then ``EllipsoidModel.from_coeffs``), sharing no solve
code with ``fit``, and maps only the returned model back with
``_to_scene``.  It draws each sample with its own ``sample_minimal`` call,
scores each candidate with ``score_of`` and classifies the returned model
once more at the end.  Its refit cascade is the one ``casfit.local_optimize``
ran before each model's distances were evaluated only once: every step
recomputes its weights with ``weights_of``, and every model is scored again
by ``score_of``.  A step whose weighted fit fails is skipped, and the first
refit that scores no higher than the best before it ends the cascade.

``score_of``, ``inliers_of`` and ``weights_of`` are one-line forms of the bodies of
``casfit.model_score``, ``classify`` and ``gaussian_weights``: the metric's
distances (``evaluate_metric``), then the sum of their ``point_energy``, a
test against epsilon, or ``point_energy`` itself.  They give those helpers'
bits, so the oracle stays bitwise equal to ``fit``, and it keeps its own
definition of scores, labels and weights if the package drops the helpers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from casfit import (DegenerateQuadric, EllipsoidModel, FitConfig, FitReport,
                    InsufficientSupport, NoModelFound, NotAnEllipsoid, RankDeficient,
                    TooFewPoints, evaluate_metric, point_energy, required_iterations,
                    sample_minimal, wls_fit)
from casfit.consensus import MU, _lo_schedule, _to_scene
from casfit.leastsq import MIN_POINTS, condition
from casfit.quadric import as_points, design_matrix


def score_of(model, pts, eps, metric) -> float:
    return float(np.sum(point_energy(evaluate_metric(metric, pts, model), eps)))


def inliers_of(pts, model, eps, metric) -> np.ndarray:
    return evaluate_metric(metric, pts, model) < eps


def weights_of(pts, model, eps_lo, metric) -> np.ndarray:
    return point_energy(evaluate_metric(metric, pts, model), eps_lo)


def reference_local_optimize(model, points, cfg: FitConfig) -> Optional[EllipsoidModel]:
    pts = as_points(points)
    score_metric = cfg.score_metric
    current = model
    best: Optional[EllipsoidModel] = None
    best_score = -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon):
        w = weights_of(pts, current, eps_lo, score_metric)
        try:
            q = wls_fit(pts, w)
            candidate = EllipsoidModel.from_coeffs(q)
        except (RankDeficient, InsufficientSupport, NotAnEllipsoid, DegenerateQuadric):
            continue
        score = score_of(candidate, pts, cfg.epsilon, score_metric)
        if score <= best_score:
            break
        best, best_score = candidate, score
        current = candidate
    return best


def solve_sample(sample) -> Optional[EllipsoidModel]:
    """The ellipsoid through one conditioned minimal sample, or None: the quadric with
    q1 = 1 from ``np.linalg.solve`` on its design rows, when that solve succeeds."""
    rows = design_matrix(sample)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.linalg.solve(rows[:, 1:], -rows[:, 0])
        return EllipsoidModel.from_coeffs(np.concatenate([[1.0], y]))
    except (np.linalg.LinAlgError, ValueError, NotAnEllipsoid, DegenerateQuadric):
        return None


def reference_fit(points, cfg: FitConfig, progress=None) -> FitReport:
    pts = as_points(points)
    n = MIN_POINTS
    if len(pts) < n:
        raise TooFewPoints(f"need at least {n} points, got {len(pts)}")
    local, center, scale = condition(pts)
    local_cfg = replace(cfg, epsilon=cfg.epsilon / scale)
    eps = local_cfg.epsilon
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    score_metric = cfg.score_metric

    best_model: Optional[EllipsoidModel] = None
    best_score = -math.inf
    best_sample_score = -math.inf
    required = cfg.max_iterations
    lo_invocations = 0
    iteration = 0

    while iteration < required:
        iteration += 1
        candidate = solve_sample(local[sample_minimal(len(local), n, rng)])
        if candidate is None:
            if progress is not None:
                progress(iteration, best_score, required)
            continue
        score = score_of(candidate, local, eps, score_metric)

        improved = False
        if score > best_sample_score:
            best_sample_score = score
            if score > best_score:
                best_model, best_score = candidate, score
                improved = True
            if cfg.local_opt:
                lo_invocations += 1
                refined = reference_local_optimize(candidate, local, local_cfg)
                if refined is not None:
                    refined_score = score_of(refined, local, eps, score_metric)
                    if refined_score > best_score:
                        best_model, best_score = refined, refined_score
                        improved = True
        if improved:
            ratio = float(inliers_of(local, best_model, eps, score_metric).mean())
            required = required_iterations(ratio, MU, n,
                                           cfg.min_iterations, cfg.max_iterations)
        if progress is not None:
            progress(iteration, best_score, required)

    if best_model is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    labels = inliers_of(local, best_model, eps, score_metric)
    return FitReport(
        model=_to_scene(best_model, center, scale),
        score=best_score,
        inlier_mask=labels,
        inlier_ratio=float(labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=0.0,
    )
