"""Linear and weighted least-squares quadric estimation.

The estimate minimizes sum(w_i^2 * (d(x_i) @ q)^2) subject to ||q|| == 1,
i.e. the weights scale the design rows and therefore enter the normal
matrix squared.  The solution is the eigenvector of the smallest eigenvalue
of the 10x10 normal matrix.

The solve runs on conditioned points (Hartley's normalization):
``condition`` centers them on their mean and scales them isotropically so
the root-mean-square radius is sqrt(3), which keeps the normal matrix well
conditioned far from the origin.  ``solve_rows`` takes the design rows of
conditioned stacks; ``wls_fit`` conditions its own points and maps the
quadric back with ``decondition``.  ``fit`` and ``local_optimize`` condition
once per call.

Callers build the design rows (``quadric.design_matrix``) once and hand them
to ``solve_rows``: ``fit`` and ``local_optimize`` build the rows of the
conditioned cloud once per call for all of that call's weighted refits.
Only the refits and ``wls_fit`` use this eigen-solve: ``fit`` solves each
minimal sample once, by LU on rows gathered from the same design rows
(``consensus._candidates``).
"""

from __future__ import annotations

import math

import numpy as np

from .distances import MetricKind, cas, evaluate_metric
from .errors import InsufficientSupport, RankDeficient, TooFewPoints
from .quadric import (EllipsoidModel, _eigh, as_points, design_matrix, normalize_coeffs,
                      normalize_rows, quadratic_block, require_carried)

# Minimum number of points (and of usably weighted points) for a quadric.
MIN_POINTS = 9

# Weights at or below this are treated as no support at all.
SUPPORT_TOL = 1e-6

# Relative eigengap below which the smallest eigenvector is not isolated: the rank test of
# solve_rows, so of refits and wls_fit.  Minimal samples are solved by LU and never meet it.
EIGENGAP_TOL = 1e-10


def condition(points: np.ndarray):
    """Center an (n, 3) point array on its mean and scale it to RMS radius sqrt(3).

    Returns ``(local, center, scale)`` with ``points == center + scale *
    local`` up to rounding.  Identical points have ``scale`` 0 and an
    all-zero ``local``.  Sums and squares are taken in units of the power of
    two that takes the largest magnitude into [1/2, 1): exact, and no overflow.
    """
    unit = math.frexp(float(max(points.max(), -points.min())))[1]
    shifted = np.ldexp(points, -unit)
    center = shifted.mean(axis=0)
    shifted -= center
    scale = float(np.sqrt(np.square(shifted).sum(axis=1).mean() / 3.0))
    local = np.divide(shifted, scale, out=shifted) if scale > 0.0 else shifted
    return local, np.ldexp(center, unit), math.ldexp(scale, unit)


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


def solve_rows(rows: np.ndarray, weights: np.ndarray | None = None):
    """Weighted algebraic quadric fit of k conditioned samples of m points each.

    ``rows`` holds their (k, m, 10) ``design_matrix`` rows and ``weights`` is
    None (uniform) or a (k, m) array.  Returns the normalized coefficients,
    in the frame of the samples, shape (k, 10), and a boolean mask of the
    well-posed rows: a row is not well posed when the smallest eigenvector
    of its normal matrix is not isolated (points with no spatial extent
    included), and its coefficients are then meaningless.  The weights scale
    the columns, so ``design_matrix``'s column-major rows are read contiguously.
    """
    cols = np.swapaxes(rows, 1, 2)
    if weights is not None:
        cols = cols * weights[:, None, :]
    evals, evecs = _eigh(cols @ np.swapaxes(cols, 1, 2))
    ok = evals[:, 1] - evals[:, 0] > EIGENGAP_TOL * np.maximum(evals[:, -1], 1e-300)
    return normalize_rows(evecs[:, :, 0]), ok


def wls_fit(points, weights=None) -> np.ndarray:
    """Weighted algebraic quadric fit; returns normalized coefficients.

    ``weights`` may be None (uniform).  Raises InsufficientSupport when
    fewer than MIN_POINTS weights exceed SUPPORT_TOL, RankDeficient when
    the points have no spatial extent or the smallest eigenvector of the
    normal matrix is not isolated, and NotAnEllipsoid when their RMS spread
    lies below ``quadric.SQUARE_RANGE`` or it or their mean above it
    (``require_carried``).
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
    q, ok = solve_rows(design_matrix(local)[None], weights)
    if not ok[0]:
        raise RankDeficient("points have no spatial extent or the smallest eigenvector "
                            "of the normal matrix is not isolated")
    require_carried(scale, max(scale, *np.abs(center)))
    return decondition(q[0], center, scale)


def lls_fit(points) -> np.ndarray:
    """Unweighted algebraic quadric fit; returns normalized coefficients."""
    return wls_fit(points, None)


@np.errstate(over="ignore")  # half the cost of a with block
def point_energy(distance, epsilon: float):
    """Gaussian kernel exp(-d^2 / (2 eps^2)); 1 on the surface, 0 at +inf."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    eps, unit = math.frexp(epsilon)  # d and eps in units of 2^unit: exact, and eps^2 is normal
    # one temporary at a time: a live (n,) array costs page faults
    out = np.exp(np.square(np.ldexp(np.asarray(distance, dtype=float), -unit))
                 / (-2.0 * eps * eps))  # d^2 / -c is -d^2 / c bitwise, one pass fewer
    return float(out) if out.ndim == 0 else out


def gaussian_weights(points, model: EllipsoidModel, eps_lo: float,
                     metric: MetricKind = cas()) -> np.ndarray:
    """Per-point weights point_energy(d, eps_lo) under ``metric``.

    Infinite distances produce weight exactly zero.
    """
    return point_energy(np.atleast_1d(evaluate_metric(metric, points, model)), eps_lo)
