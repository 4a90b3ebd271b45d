"""Reference distances that share no code with casfit.

``blended_distances`` recomputes the axial / Sampson blend that casfit
scores and classifies with, from the quadric's matrix form.

For a point ``w`` in the closed positive octant of an axis-aligned
ellipsoid with semiaxes ``r``, the nearest surface point lies in the same
octant.  The search samples the surface on a dense grid of angles over that
octant, then repeatedly re-samples a shrinking window of angles around the
best point so far.  Each window keeps the previous best, so the distance
found never grows and settles on the minimum whose basin the grid found.
"""

from __future__ import annotations

import numpy as np

GRID = 181           # angles per axis of the initial octant grid
ZOOM_POINTS = 9      # angles per axis of each refinement window
ZOOM_SHRINK = 0.6    # window half-width factor per refinement step
ZOOM_STEPS = 80


def _surface(theta, phi, r):
    st = np.sin(theta)
    return np.stack([r[0] * st * np.cos(phi), r[1] * st * np.sin(phi),
                     r[2] * np.cos(theta)], axis=-1)


def octant_distances(w, r):
    """Distance from each row of ``w`` (>= 0) to the ellipsoid with semiaxes ``r``.

    The angle grid is degenerate near its pole, where the azimuth barely
    moves the surface point, so the search runs twice, with the pole on the
    third axis and then on the first, and keeps the nearer result.  Both
    are distances to actual surface points, so neither can undercut the
    true distance.
    """
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    return np.minimum(_search(w, r), _search(w[:, ::-1], r[::-1]))


def _search(w, r):
    axis = np.linspace(0.0, 0.5 * np.pi, GRID)
    th, ph = np.meshgrid(axis, axis, indexing="ij")
    grid = _surface(th.ravel(), ph.ravel(), r)                     # (G*G, 3)
    flat_th, flat_ph = th.ravel(), ph.ravel()
    nearest = [int(np.argmin(np.square(grid - p).sum(axis=1))) for p in w]
    best_th, best_ph = flat_th[nearest], flat_ph[nearest]

    half = 2.0 * (axis[1] - axis[0])
    offsets = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    d_th, d_ph = (o.ravel() for o in np.meshgrid(offsets, offsets, indexing="ij"))
    for _ in range(ZOOM_STEPS):
        cand_th = best_th[:, None] + half * d_th[None, :]
        cand_ph = best_ph[:, None] + half * d_ph[None, :]
        d2 = np.square(_surface(cand_th, cand_ph, r) - w[:, None, :]).sum(axis=2)
        k = np.argmin(d2, axis=1)
        rows = np.arange(len(w))
        best_th = cand_th[rows, k]
        best_ph = cand_ph[rows, k]
        half *= ZOOM_SHRINK
    foot = _surface(best_th, best_ph, r)
    return np.sqrt(np.square(foot - w).sum(axis=1))


def blended_distances(points, q, lam):
    """lam * axial + (1 - lam) * Sampson distance of each point to quadric ``q``.

    ``q`` holds casfit's ten coefficients: the quadric is
    x^T A x + 2 b^T x - q[9] with A the symmetric block of q[0:6] and
    b = q[6:9].  With centre c = -A^-1 b it reads (x-c)^T (A/k) (x-c) = 1,
    k = b^T A^-1 b + q[9]; the semiaxes are the inverse square roots of the
    eigenvalues of A/k, and the axial distance is |s - 1| * ||semiaxes|| / 3
    with s^2 = (x-c)^T (A/k) (x-c).  The Sampson distance is |f| / ||grad f||.
    Returns None when ``q`` is not a real ellipsoid.
    """
    q = np.asarray(q, dtype=float)
    pts = np.asarray(points, dtype=float)
    a = np.array([[q[0], q[3], q[4]], [q[3], q[1], q[5]], [q[4], q[5], q[2]]])
    b = q[6:9]
    a_inv_b = np.linalg.solve(a, b)
    shape = a / (b @ a_inv_b + q[9])
    eig = np.linalg.eigvalsh(shape)
    if not np.all(eig > 0.0):
        return None
    y = pts + a_inv_b
    s = np.sqrt(np.einsum("ni,ij,nj->n", y, shape, y))
    axial = np.abs(s - 1.0) * np.linalg.norm(eig ** -0.5) / 3.0
    f = np.einsum("ni,ij,nj->n", pts, a, pts) + 2.0 * pts @ b - q[9]
    grad = np.linalg.norm(2.0 * (pts @ a + b), axis=1)
    with np.errstate(divide="ignore"):
        sampson = np.abs(f) / grad
    return lam * axial + (1.0 - lam) * sampson
