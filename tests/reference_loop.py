"""Sequential sample-consensus loop: one minimal sample drawn and solved per iteration.

This is the loop ``casfit.fit`` ran before it solved minimal samples in
chunks and screened them, kept as the reference the chunked loop is tested
against.  It runs in ``fit``'s frame and with its kernel: it conditions the
cloud once with ``condition``, divides epsilon by the same scale, solves
each sample on its own with a one-row ``solve_rows`` and
``check_ellipsoids``, and maps only the returned model back with
``_to_scene``.  It draws each sample with its own ``sample_minimal`` call,
scores each candidate with ``model_score`` and classifies the returned
model once more at the end.  Its refit cascade is the one
``casfit.local_optimize`` ran before each model's distances were evaluated
only once: every step recomputes its weights with ``gaussian_weights``, and
every model is scored again by ``model_score``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from casfit import (DegenerateQuadric, EllipsoidGeometry, EllipsoidModel, FitConfig,
                    FitReport, InsufficientSupport, NoModelFound, NotAnEllipsoid,
                    RankDeficient, TooFewPoints, classify, gaussian_weights,
                    model_score, required_iterations, sample_minimal, wls_fit)
from casfit.consensus import MU, _lo_schedule, _to_scene
from casfit.leastsq import MIN_POINTS, condition, solve_rows
from casfit.quadric import ELLIPSOID, as_points, check_ellipsoids, design_matrix


def reference_local_optimize(model, points, cfg: FitConfig) -> Optional[EllipsoidModel]:
    pts = as_points(points)
    score_metric = cfg.score_metric
    current = model
    best: Optional[EllipsoidModel] = None
    best_score = -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon):
        w = gaussian_weights(pts, current, eps_lo, score_metric)
        try:
            q = wls_fit(pts, w)
            candidate = EllipsoidModel.from_coeffs(q)
        except (RankDeficient, InsufficientSupport, NotAnEllipsoid, DegenerateQuadric):
            continue
        score = model_score(candidate, pts, cfg.epsilon, score_metric)
        if score > best_score:
            best, best_score = candidate, score
        current = candidate
    return best


def solve_sample(sample) -> Optional[EllipsoidModel]:
    """The ellipsoid through one conditioned minimal sample, or None."""
    coeffs, ok = solve_rows(design_matrix(sample)[None])
    verdict, rotation, translation, semiaxes = check_ellipsoids(coeffs)
    if not ok[0] or verdict[0] != ELLIPSOID:
        return None
    return EllipsoidModel(coeffs[0], EllipsoidGeometry(rotation[0], translation[0],
                                                       semiaxes[0]))


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
        score = model_score(candidate, local, eps, score_metric)

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
                    refined_score = model_score(refined, local, eps, score_metric)
                    if refined_score > best_score:
                        best_model, best_score = refined, refined_score
                        improved = True
        if improved:
            ratio = float(classify(local, best_model, eps, score_metric).mean())
            required = required_iterations(ratio, MU, n,
                                           cfg.min_iterations, cfg.max_iterations)
        if progress is not None:
            progress(iteration, best_score, required)

    if best_model is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    labels = classify(local, best_model, eps, score_metric)
    return FitReport(
        model=_to_scene(best_model, center, scale),
        score=best_score,
        inlier_mask=labels,
        inlier_ratio=float(labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=0.0,
    )
