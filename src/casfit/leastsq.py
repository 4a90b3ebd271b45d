"""Linear and weighted least-squares quadric estimation.

The estimate minimizes sum(w_i^2 * (d(x_i) @ q)^2) subject to ||q|| == 1,
i.e. the weights scale the design rows and therefore enter the normal
matrix squared.  The solution is the eigenvector of the smallest eigenvalue
of the 10x10 normal matrix.

The solve runs on conditioned points (Hartley's normalization):
``condition`` centers them on their mean and scales them isotropically so
the root-mean-square radius is sqrt(3), which keeps the normal matrix well
conditioned far from the origin.  ``solve_stack`` takes conditioned stacks;
``wls_fit`` conditions its own points and maps the quadric back with
``decondition``.  ``fit`` and ``local_optimize`` condition once per call.
"""

from __future__ import annotations

import numpy as np

from .distances import MetricKind, cas, evaluate_metric
from .errors import InsufficientSupport, RankDeficient, TooFewPoints
from .quadric import (EllipsoidModel, as_points, design_matrix, normalize_coeffs,
                      normalize_rows, quadratic_block)

# Minimum number of points (and of usably weighted points) for a quadric.
MIN_POINTS = 9

# Weights at or below this are treated as no support at all.
SUPPORT_TOL = 1e-6

# Relative eigengap below which the smallest eigenvector is not isolated.
EIGENGAP_TOL = 1e-10


def condition(points: np.ndarray):
    """Center an (n, 3) point array on its mean and scale it to RMS radius sqrt(3).

    Returns ``(local, center, scale)`` with ``points == center + scale *
    local`` up to rounding.  Identical points have ``scale`` 0 and an
    all-zero ``local``.
    """
    center = points.mean(axis=0)
    shifted = points - center
    scale = float(np.sqrt(np.square(shifted).sum(axis=1).mean() / 3.0))
    return (shifted / scale if scale > 0.0 else shifted), center, scale


def decondition(q_local: np.ndarray, center: np.ndarray, scale: float) -> np.ndarray:
    """Normalized coefficients, in the original frame, of a quadric fitted to
    ``condition``-ed points with that ``center`` and ``scale``."""
    # With x_local = (x - c) / s, the conditioned quadric x_l^T A x_l +
    # 2 b.x_l - q10, times s^2, is x^T A x + 2 (s b - A c).x
    # - (s^2 q10 + 2 s b.c - c^T A c) in the original frame.
    linear = q_local[6:9]
    block_c = quadratic_block(q_local) @ center
    q = q_local.copy()
    q[6:9] = scale * linear - block_c
    q[9] = scale * scale * q_local[9] + 2.0 * scale * (linear @ center) - block_c @ center
    return normalize_coeffs(q)


def solve_stack(samples: np.ndarray, weights: np.ndarray | None = None):
    """Weighted algebraic quadric fit of every sample in a conditioned (k, m, 3) stack.

    ``weights`` is None (uniform) or a (k, m) array.  Returns the normalized
    coefficients, in the frame of the samples, shape (k, 10), and a boolean
    mask of the rows that are well posed.  A row is not well posed when the
    smallest eigenvector of its normal matrix is not isolated (points with
    no spatial extent included); its coefficients are then meaningless.
    """
    k, m = samples.shape[:2]
    rows = design_matrix(samples.reshape(k * m, 3)).reshape(k, m, 10)
    if weights is not None:
        rows = weights[:, :, None] * rows
    evals, evecs = np.linalg.eigh(np.swapaxes(rows, 1, 2) @ rows)
    ok = evals[:, 1] - evals[:, 0] > EIGENGAP_TOL * np.maximum(evals[:, -1], 1e-300)
    return normalize_rows(evecs[:, :, 0]), ok


def wls_fit(points, weights=None) -> np.ndarray:
    """Weighted algebraic quadric fit; returns normalized coefficients.

    ``weights`` may be None (uniform).  Raises InsufficientSupport when
    fewer than MIN_POINTS weights exceed SUPPORT_TOL and RankDeficient when
    the points have no spatial extent or the smallest eigenvector of the
    normal matrix is not isolated.
    """
    pts = as_points(points)
    if len(pts) < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(pts)}")
    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape != (len(pts),):
            raise ValueError("weights must match the number of points")
        if not np.isfinite(w).all() or (w < 0.0).any():
            raise ValueError("weights must be finite and non-negative")
        if int((w > SUPPORT_TOL).sum()) < MIN_POINTS:
            raise InsufficientSupport(
                f"fewer than {MIN_POINTS} points carry weight above {SUPPORT_TOL}")
        weights = w[None]
    local, center, scale = condition(pts)
    q, ok = solve_stack(local[None], weights)
    if not ok[0]:
        raise RankDeficient("points have no spatial extent or the smallest eigenvector "
                            "of the normal matrix is not isolated")
    return decondition(q[0], center, scale)


def lls_fit(points) -> np.ndarray:
    """Unweighted algebraic quadric fit; returns normalized coefficients."""
    return wls_fit(points, None)


def point_energy(distance, epsilon: float):
    """Gaussian kernel exp(-d^2 / (2 eps^2)); 1 on the surface, 0 at +inf."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    d = np.asarray(distance, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(-np.square(d) / (2.0 * epsilon * epsilon))
    return float(out) if out.ndim == 0 else out


def gaussian_weights(points, model: EllipsoidModel, eps_lo: float,
                     metric: MetricKind = cas()) -> np.ndarray:
    """Per-point weights point_energy(d, eps_lo) under ``metric``.

    Infinite distances produce weight exactly zero.
    """
    return point_energy(np.atleast_1d(evaluate_metric(metric, points, model)), eps_lo)
