"""Sequential sample-consensus loop: one minimal sample drawn and solved per iteration.

This is the loop ``casfit.fit`` ran before it solved minimal samples in
chunks, kept as the reference the chunked loop is tested against.  It calls
``lls_fit`` and ``EllipsoidModel.from_coeffs`` on each sample and classifies
the returned model once more at the end.  Its refit cascade is likewise the
one ``casfit.local_optimize`` ran before each model's distances were
evaluated only once: every step recomputes its weights with
``gaussian_weights``, and every model is scored again by ``model_score``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from casfit import (DegenerateQuadric, EllipsoidModel, FitConfig, FitReport,
                    InsufficientSupport, NoModelFound, NotAnEllipsoid,
                    RankDeficient, TooFewPoints, classify, gaussian_weights,
                    lls_fit, model_score, required_iterations, sample_minimal,
                    wls_fit)
from casfit.consensus import _lo_schedule
from casfit.quadric import as_points


def reference_local_optimize(model, points, cfg: FitConfig) -> Optional[EllipsoidModel]:
    pts = as_points(points)
    weight_metric = cfg.resolved_weight_metric()
    score_metric = cfg.resolved_score_metric()
    current = model
    best: Optional[EllipsoidModel] = None
    best_score = -math.inf
    for eps_lo in _lo_schedule(cfg.epsilon, cfg.lo_steps):
        w = gaussian_weights(pts, current, eps_lo, weight_metric)
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


def reference_fit(points, cfg: FitConfig, progress=None) -> FitReport:
    pts = as_points(points)
    n = cfg.sample_size
    if len(pts) < n:
        raise TooFewPoints(f"need at least {n} points, got {len(pts)}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    score_metric = cfg.resolved_score_metric()

    best_model: Optional[EllipsoidModel] = None
    best_score = -math.inf
    best_sample_score = -math.inf
    required = cfg.max_iterations
    lo_invocations = 0
    iteration = 0

    while iteration < required:
        iteration += 1
        idx = sample_minimal(len(pts), n, rng)
        try:
            candidate = EllipsoidModel.from_coeffs(lls_fit(pts[idx]))
        except (RankDeficient, NotAnEllipsoid, DegenerateQuadric):
            if progress is not None:
                progress(iteration, best_score, required)
            continue
        score = model_score(candidate, pts, cfg.epsilon, score_metric)

        improved = False
        if score > best_sample_score:
            best_sample_score = score
            if score > best_score:
                best_model, best_score = candidate, score
                improved = True
            if cfg.local_opt:
                lo_invocations += 1
                refined = reference_local_optimize(candidate, pts, cfg)
                if refined is not None:
                    refined_score = model_score(refined, pts, cfg.epsilon, score_metric)
                    if refined_score > best_score:
                        best_model, best_score = refined, refined_score
                        improved = True
        if improved:
            ratio = float(classify(pts, best_model, cfg.epsilon, score_metric).mean())
            required = required_iterations(ratio, cfg.mu, n,
                                           cfg.min_iterations, cfg.max_iterations)
        if progress is not None:
            progress(iteration, best_score, required)

    if best_model is None:
        raise NoModelFound(f"no valid ellipsoid in {iteration} iterations")
    labels = classify(pts, best_model, cfg.epsilon, score_metric)
    return FitReport(
        model=best_model,
        score=best_score,
        inlier_mask=labels,
        inlier_ratio=float(labels.mean()),
        iterations=iteration,
        lo_invocations=lo_invocations,
        wall_time=0.0,
    )
