import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casfit import (ALGEBRAIC, AXIAL, METRIC_KINDS, ORTHOGONAL, SAMPSON, ConvergenceFailure,
                    EllipsoidGeometry, EllipsoidModel, MetricKind, algebraic_distance,
                    axial_distance, cas, cas_distance, evaluate_metric, orthogonal_distance,
                    sampson_distance, scaling_factor)
from casfit import distances
from casfit.distances import GRADIENT_TOL, ZERO_SNAP
from casfit.quadric import design_matrix, quadratic_block
from casfit.synth import random_rotation, sample_surface

from conftest import axis_aligned, make_model, unit_sphere

P_OUTSIDE = np.array([2.0, 0.0, 0.0])
SQRT3 = np.sqrt(3.0)


def from_aligned(model, u):
    """Scene coordinates of points given in the model's aligned frame."""
    geom = model.geometry
    return (np.asarray(u, dtype=float) - geom.translation) @ geom.rotation


def rigidly_moved(model, rot, shift):
    """Apply x -> rot @ x + shift to a model (new rotation composes on the right)."""
    from casfit import EllipsoidGeometry, EllipsoidModel
    geom = model.geometry
    new_rot = geom.rotation @ rot.T
    new_center = rot @ geom.center + shift
    return EllipsoidModel.from_geometry(EllipsoidGeometry(
        new_rot, -new_rot @ new_center, geom.semiaxes))


class TestClosedForms:
    def test_unit_sphere_values(self):
        m = unit_sphere()
        assert abs(algebraic_distance(P_OUTSIDE, m) - 1.5) < 1e-12
        assert abs(scaling_factor(P_OUTSIDE, m) - 2.0) < 1e-12
        assert abs(axial_distance(P_OUTSIDE, m) - SQRT3 / 3.0) < 1e-12
        assert abs(sampson_distance(P_OUTSIDE, m) - 0.75) < 1e-12
        assert abs(orthogonal_distance(P_OUTSIDE, m) - 1.0) < 1e-12

    def test_blends(self):
        m = unit_sphere()
        expected_cas = 0.5 * SQRT3 / 3.0 + 0.5 * 0.75
        assert abs(cas_distance(P_OUTSIDE, m, 0.5) - expected_cas) < 1e-12
        kind = MetricKind("axial+orthogonal", 0.5)
        assert abs(evaluate_metric(kind, P_OUTSIDE, m) - (0.5 * SQRT3 / 3.0 + 0.5)) < 1e-12

    def test_scaling_factor_center_and_member(self, rng):
        m = make_model(rng)
        assert abs(scaling_factor(m.center, m)) < 1e-12
        member = sample_surface(m, 100, rng, scale=0.5)
        assert np.allclose(scaling_factor(member, m), 0.5, atol=1e-10)

    def test_axis_point(self):
        m = axis_aligned((1.0, 2.0, 3.0))
        assert abs(orthogonal_distance(np.array([0.0, 0.0, 6.0]), m) - 3.0) < 1e-12


class TestSurfaceZero:
    def test_all_metrics_vanish_on_surface(self, rng):
        for _ in range(10):
            m = make_model(rng)
            pts = sample_surface(m, 200, rng)
            for fn in (algebraic_distance, axial_distance, sampson_distance,
                       orthogonal_distance):
                assert np.abs(fn(pts, m)).max() < 1e-9

    def test_nonnegative_off_surface(self, rng):
        m = make_model(rng)
        pts = m.center + rng.uniform(-12, 12, size=(500, 3))
        for fn in (algebraic_distance, axial_distance, sampson_distance,
                   orthogonal_distance):
            assert (np.asarray(fn(pts, m)) >= 0.0).all()


class TestSampson:
    def test_center_is_infinite(self, rng):
        m = make_model(rng)
        assert sampson_distance(m.center, m) == np.inf

    def test_first_order_agreement(self, rng):
        # points displaced a small step along the surface normal sit at
        # orthogonal distance == step; Sampson must agree to ~1%
        for _ in range(20):
            m = make_model(rng)
            base = sample_surface(m, 50, rng)
            from casfit.quadric import quadratic_block
            grad = 2.0 * (base @ quadratic_block(m.coeffs) + m.coeffs[6:9])
            normals = grad / np.linalg.norm(grad, axis=1, keepdims=True)
            delta = 0.001 * float(m.semiaxes.min())
            sign = np.where(rng.random(len(base)) < 0.5, 1.0, -1.0)
            pts = base + delta * sign[:, None] * normals
            samp = sampson_distance(pts, m)
            orth = orthogonal_distance(pts, m)
            assert np.abs(samp - orth).max() / delta < 0.01

    def test_scale_invariant_in_coefficients(self, rng):
        # |F| / ||grad F|| does not depend on the coefficient scale, so the
        # normalized model and a hand-scaled evaluation agree
        m = make_model(rng)
        pts = m.center + rng.uniform(-8, 8, size=(100, 3))
        vals = design_matrix(pts) @ (3.7 * m.coeffs)
        from casfit.quadric import quadratic_block
        grad = 2.0 * (pts @ quadratic_block(3.7 * m.coeffs) + 3.7 * m.coeffs[6:9])
        by_hand = np.abs(vals) / np.linalg.norm(grad, axis=1)
        assert np.allclose(sampson_distance(pts, m), by_hand, rtol=1e-12)


class TestAxial:
    def test_constant_on_member_surfaces(self, rng):
        for s in (0.3, 0.8, 1.7, 2.5):
            m = make_model(rng)
            pts = sample_surface(m, 200, rng, scale=s)
            vals = np.asarray(axial_distance(pts, m))
            expected = abs(s - 1.0) * np.linalg.norm(m.semiaxes) / 3.0
            assert np.abs(vals - expected).max() < 1e-9

    def test_monotone_in_member_offset(self, rng):
        m = make_model(rng)
        scales = np.linspace(0.0, 3.0, 31)
        dirs = rng.normal(size=3)
        dirs /= np.linalg.norm(dirs)
        geom = m.geometry
        pts = np.array([(s * dirs * geom.semiaxes - geom.translation) @ geom.rotation
                        for s in scales])
        vals = np.asarray(axial_distance(pts, m))
        offsets = np.abs(scales - 1.0)
        order = np.argsort(offsets)
        assert (np.diff(vals[order]) >= -1e-12).all()


class TestOrthogonal:
    def test_brute_force_agreement(self, rng):
        # oracle: dense surface sampling plus parametric refinement, fully
        # independent of the root-finding path under test
        from scipy.optimize import minimize
        cases = []
        for _ in range(8):
            m = make_model(rng)
            cases.append((m, m.center + rng.uniform(-8.0, 8.0, 3)))
        for zeros in ([0], [2], [1, 2], [0, 1]):  # axis planes and axes
            m = make_model(rng)
            u = rng.uniform(-1.5, 1.5, 3) * m.semiaxes
            u[zeros] = 0.0
            cases.append((m, from_aligned(m, u)))
        # inside a spheroid with equal shortest semiaxes, on the long axis:
        # the root is pinned and the nearest points form a circle on the waist
        # (up to x = 8/3, where the circle shrinks onto the axis)
        m = rigidly_moved(axis_aligned((3.0, 1.0, 1.0)), random_rotation(rng),
                          rng.uniform(-5.0, 5.0, 3))
        cases.append((m, from_aligned(m, [2.66, 0.0, 0.0])))
        cases.append((m, from_aligned(m, [0.4, 0.0, 0.0])))
        for m, p in cases:
            ours = orthogonal_distance(p, m)
            geom = m.geometry
            dirs = rng.normal(size=(200_000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            samples = (dirs * geom.semiaxes - geom.translation) @ geom.rotation
            dists = np.linalg.norm(samples - p, axis=1)
            best = int(np.argmin(dists))
            assert ours <= dists[best] + 1e-9

            theta = np.arccos(np.clip(dirs[best, 2], -1.0, 1.0))
            phi = np.arctan2(dirs[best, 1], dirs[best, 0])

            def surface_dist(angles):
                th, ph = angles
                u = np.array([np.sin(th) * np.cos(ph),
                              np.sin(th) * np.sin(ph),
                              np.cos(th)]) * geom.semiaxes
                return float(np.linalg.norm((u - geom.translation) @ geom.rotation - p))

            res = minimize(surface_dist, [theta, phi], method="Nelder-Mead",
                           options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20_000})
            assert abs(ours - res.fun) <= 1e-8 * max(res.fun, 1e-9)

    def test_center_hits_shortest_axis(self, rng):
        for _ in range(20):
            m = make_model(rng)
            assert abs(orthogonal_distance(m.center, m) - m.semiaxes.min()) < 1e-10
            # just off the center along the shortest axis the nearest point is
            # still its vertex; the root then sits a hair above -min(r)^2
            r_min = m.semiaxes.min()
            for offset in (1e-7, 1e-9, 1e-11):
                p = from_aligned(m, [0.0, 0.0, offset * r_min])
                d = orthogonal_distance(p, m)
                assert abs(d - (1.0 - offset) * r_min) < 1e-12 * m.semiaxes.max()

    def test_interior_point_near_long_axis(self):
        # inside a 3:1:1 ellipsoid just off-center along the long axis the
        # nearest point is on the waist, not at the vertex
        m = axis_aligned((3.0, 1.0, 1.0))
        d = orthogonal_distance(np.array([0.1, 0.0, 0.0]), m)
        x = 0.1125  # minimizer of (x - 0.1)^2 + 1 - x^2/9 on the ellipse
        expected = np.sqrt((x - 0.1) ** 2 + 1.0 - x ** 2 / 9.0)
        assert abs(d - expected) < 1e-12

    def test_batch_matches_scalar(self, rng):
        m = make_model(rng)
        pts = m.center + rng.uniform(-6, 6, size=(50, 3))
        batch = orthogonal_distance(pts, m)
        single = np.array([orthogonal_distance(p, m) for p in pts])
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-14)

        # generic points share one batch with axis-plane points, on-axis
        # points (inside and out), the center and points far beyond 1e154,
        # bit for bit
        for semiaxes in (None, (3.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1e3, 1.0, 0.5)):
            m = make_model(rng) if semiaxes is None else rigidly_moved(
                axis_aligned(semiaxes), random_rotation(rng), rng.uniform(-5, 5, 3))
            pts = from_aligned(m, mixed_aligned(m, rng))
            batch = orthogonal_distance(pts, m)
            single = np.array([orthogonal_distance(p, m) for p in pts])
            assert np.array_equal(batch, single)
            assert abs(batch[35] - m.semiaxes.min()) < 1e-12 * m.semiaxes.max()
            assert np.isfinite(batch).all()

    def test_beyond_the_square_range(self):
        # (r w)^2, the squared gap and the unit-frame squares overflow here
        # unless lengths are scaled; algebraic's true values pass the largest double
        m = axis_aligned((3.0, 2.0, 1.0))
        pts = np.array([[1e155, 1e155, 1e155], [1e160, 1.0, 1.0]])
        for metric, want in ((orthogonal_distance, (np.sqrt(3.0) * 1e155, 1e160)),
                             (axial_distance, (1.4550889837454216e155, 4.157397096415490e159)),
                             (sampson_distance, (6.564331821389480e154, 5e159)),
                             (cas_distance, (1.0557610829421848e155, 4.578698548207745e159)),
                             (scaling_factor, (np.sqrt(1 / 9 + 1 / 4 + 1) * 1e155, 1e160 / 3))):
            got = metric(pts, m)
            assert np.all(np.abs(got - want) <= 1e-15 * np.array(want)), metric.__name__
        assert np.array_equal(algebraic_distance(pts, m), [np.inf, np.inf])

    @pytest.mark.parametrize("exponent", [-1000, -600, -300, 300, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        # q cannot carry these models, so the geometry is scaled directly
        m = rigidly_moved(axis_aligned((3.0, 1.5, 1.0)), random_rotation(rng),
                          rng.uniform(-5.0, 5.0, 3))
        geom = m.geometry
        scaled = EllipsoidModel._paired(m.coeffs, EllipsoidGeometry(
            geom.rotation, np.ldexp(geom.translation, exponent),
            np.ldexp(geom.semiaxes, exponent)))
        pts = from_aligned(m, mixed_aligned(m, rng)[:36])
        for metric in (orthogonal_distance, axial_distance, sampson_distance, cas_distance):
            assert np.array_equal(metric(np.ldexp(pts, exponent), scaled),
                                  np.ldexp(metric(pts, m), exponent)), metric.__name__

    def test_iteration_cap_raises(self, monkeypatch):
        # this point's root takes more than one Newton step
        monkeypatch.setattr(distances, "ROOT_MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceFailure, match="after 1 iterations"):
            orthogonal_distance(np.array([4.0, 3.0, 2.0]), axis_aligned((3.0, 2.0, 1.0)))

    def test_zero_snap_keeps_the_derivative_in_range(self):
        # a shortest-axis coordinate of 1e-305 would start the Newton
        # iteration at a shift whose derivative overflows, and stall it; the
        # snapped point reads its long double bisection
        semiaxes = np.array([1.0, 2.2277739e-3, 1.88399981e-4])
        p = np.array([0.208, 0.72 * semiaxes[1], 1e-305])
        d = orthogonal_distance(p, axis_aligned(semiaxes))
        assert abs(d - 1.2420143016360954e-4) <= 1e-12 * d


def mixed_aligned(model, rng):
    """38 aligned points: generic (0-9), on axis planes (10-19), on axes inside
    and out (20-29) and near the center (30-34), the center (35), and two far
    points past 1e154 (36, 37)."""
    u = rng.uniform(-2.0, 2.0, size=(38, 3)) * model.semiaxes
    u[np.arange(10, 20), rng.integers(0, 3, 10)] = 0.0
    u[20:30] *= np.eye(3)[rng.integers(0, 3, 10)]
    u[30:35] *= 0.1 * np.eye(3)[rng.integers(0, 3, 5)]
    u[35] = 0.0
    u[36] = 1e155
    u[37] = (1e160, 1.0, 1.0)
    return u


_coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(log_ratios=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
       r_max=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1),
       coords=st.tuples(_coord, _coord, _coord),
       zeros=st.sets(st.integers(0, 2), min_size=1),
       signs=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 3))
@example(log_ratios=(0.0, 0.0), r_max=0.375, seed=0, coords=(0.0, 0.0, 1e-9),
         zeros={0}, signs=(-1.0, -1.0, -1.0))  # near a sphere's center
def test_axis_plane_distance_is_lipschitz(log_ratios, r_max, seed, coords, zeros, signs):
    # a distance to a set is 1-Lipschitz, so moving a point off its axis
    # planes by delta changes its distance by at most delta; this ties the
    # pinned closed form and the zero-entry root solve to the generic solve
    rng = np.random.default_rng(seed)
    semiaxes = r_max * 10.0 ** -np.array([0.0, *log_ratios])
    m = rigidly_moved(axis_aligned(semiaxes), random_rotation(rng),
                      r_max * rng.uniform(-10.0, 10.0, 3))
    u = np.array(coords) * m.semiaxes
    zeros = sorted(zeros)
    u[zeros] = 0.0
    moved = u.copy()
    moved[zeros] = 1e-6 * r_max * np.array(signs)[zeros]
    p, p_moved = from_aligned(m, u), from_aligned(m, moved)
    gap = abs(orthogonal_distance(p, m) - orthogonal_distance(p_moved, m))
    assert gap <= np.linalg.norm(p - p_moved) + 1e-9 * r_max


def bisected_distance(w, semiaxes):
    """Distance of an aligned point w >= 0 to the axis-aligned ellipsoid, in long double.

    Bisects sum(a_i / (e_i + s)^2) == 1, a_i = (r_i w_i)^2 and
    e_i = r_i^2 - min(r)^2, on [0, max(r) ||w||], where each term is at most
    (w_i / ||w||)^2; a point with no root above 0 is pinned at 0.  Zero terms
    are left out, so that an inactive shortest axis adds nothing.
    """
    r = np.asarray(semiaxes, dtype=np.longdouble)
    w = np.asarray(w, dtype=np.longdouble)
    active = w > 0
    a, excess = np.square(r * w)[active], (np.square(r) - np.square(r).min())[active]

    def residual(s):
        with np.errstate(divide="ignore"):
            return np.sum(a / np.square(excess + s)) - 1

    slack, s = -residual(np.longdouble(0)), np.longdouble(0)
    if slack < 0:
        lo, hi = np.longdouble(0), r.max() * np.sqrt(np.sum(np.square(w)))
        mid = (lo + hi) / 2
        while lo < mid < hi:
            lo, hi = (mid, hi) if residual(mid) > 0 else (lo, mid)
            mid = (lo + hi) / 2
        s = lo
    foot = np.square(r[active]) * w[active] / (excess + s)
    gap = np.sum(np.square(w[active] - foot)) + np.square(r).min() * max(slack, 0)
    return float(np.sqrt(gap))


@settings(max_examples=500, deadline=None)
@given(log_ratios=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
       ties=st.sampled_from(("none", "long", "short", "sphere")),
       order=st.permutations(range(3)),
       r_max=st.floats(1e-3, 1e3),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       zeros=st.sets(st.integers(0, 2), max_size=2),
       level=st.one_of(st.floats(-6.0, 3.0).map(lambda k: 1.0 + 10.0 ** k),
                       st.floats(-6.0, -0.05).map(lambda k: 1.0 - 10.0 ** k),
                       st.floats(-12.0, -1.0).map(lambda k: 10.0 ** k),
                       st.just(0.0)))
@example(log_ratios=(4.0, 4.0), ties="none", order=[0, 1, 2], r_max=1.0,
         direction=(0.0, 0.0, 0.0), zeros=set(), level=0.0)  # the center
@example(log_ratios=(0.2, 0.5), ties="none", order=[0, 1, 2], r_max=1.0,
         direction=(1.0, 1.0, 0.0), zeros=set(), level=0.1)  # pinned inside
@example(log_ratios=(1.0, 0.0), ties="short", order=[0, 1, 2], r_max=397.453125,
         direction=(0.0, 0.0, 0.375), zeros=set(), level=1e-12)  # snapped by the model's r_max
def test_orthogonal_distance_property(log_ratios, ties, order, r_max, direction, zeros, level):
    # points 1e-6 to 1e3 semiaxes off the surface, on axis planes and near the
    # center, of ellipsoids with semiaxis ratios up to 1e4, spheroids and
    # spheres, against the radial bracket and a long double bisection
    exponents = {"none": log_ratios, "long": (0.0, log_ratios[1]),
                 "short": (log_ratios[0], log_ratios[0]), "sphere": (0.0, 0.0)}[ties]
    semiaxes = r_max * 10.0 ** -np.array([0.0, *exponents])[list(order)]
    m = axis_aligned(semiaxes)
    u = np.array(direction)
    u[sorted(zeros)] = 0.0
    scale = np.linalg.norm(u / semiaxes)
    p = level * u / scale if scale > 0.0 else np.zeros(3)
    d = orthogonal_distance(p, m)

    # the distance is that of the point ZERO_SNAP moves (by at most 1e-13 r_max), with the
    # model's r_max: its round trip through q can move the last digit
    w = np.where(np.abs(p) <= ZERO_SNAP * m.semiaxes.max(), 0.0, np.abs(p))
    atol = 1e-15 * np.linalg.norm(w)
    want = bisected_distance(w, semiaxes)
    assert abs(d - want) <= 1e-12 * want + atol

    # on the ellipsoid scaled by s through the point, the distance lies between
    # |s - 1| min(r) and |s - 1| ||u||, u the surface point on the ray through it
    s = np.sqrt(np.sum(np.square(w.astype(np.longdouble) / semiaxes)))
    assert d >= abs(s - 1) * semiaxes.min() * (1 - 1e-12) - atol
    if s > 0:
        assert d <= abs(s - 1) * np.linalg.norm(w) / s * (1 + 1e-12) + atol


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 30),
       lam=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
       at_center=st.booleans())
def test_output_shape_follows_the_points(seed, count, lam, at_center):
    # a scalar for a (3,) point, an (n,) array for an (n, 3) stack
    rng = np.random.default_rng(seed)
    m = make_model(rng)
    pts = m.center + rng.uniform(-8.0, 8.0, size=(count, 3))
    if at_center:
        pts[0] = m.center  # Sampson reads +inf there
    points = pts[0] if count == 1 else pts
    for name in METRIC_KINDS:
        kind = MetricKind(name, lam) if name in distances._PAIR_KINDS else MetricKind(name)
        got = evaluate_metric(kind, points, m)
        if count == 1:
            assert isinstance(got, float)
        else:
            assert isinstance(got, np.ndarray) and got.shape == (count,)


def sampson_by_coefficients(points, model):
    """|d(x) @ q| / ||2 (A x + b)|| from the coefficients; +inf where the gradient vanishes."""
    q = model.coeffs
    norms = np.linalg.norm(2.0 * (points @ quadratic_block(q) + q[6:9]), axis=1)
    with np.errstate(divide="ignore"):
        vals = np.abs(design_matrix(points) @ q) / norms
    vals[norms < GRADIENT_TOL * np.linalg.norm(q)] = np.inf
    return vals


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_r_max=st.floats(-3.0, 3.0),
       log_ratios=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_sampson_matches_the_coefficient_formula(seed, log_r_max, log_ratios):
    # the unit-frame form |s^2 - 1| / (2 ||v / r||) against |F| / ||grad F||
    m, pts, r_max = well_shaped(seed, log_r_max, log_ratios)
    got = sampson_distance(pts, m)
    want = sampson_by_coefficients(pts, m)
    assert got[0] == want[0] == np.inf
    assert np.isfinite(got[1:]).all()
    assert (np.abs(got[1:] - want[1:]) <= np.maximum(1e-12 * r_max, 1e-9 * want[1:])).all()


def well_shaped(seed, log_r_max, log_ratios):
    """A random ellipsoid centered within 2 r_max of the origin, and points near and far."""
    rng = np.random.default_rng(seed)
    r_max = 10.0 ** log_r_max
    rot = random_rotation(rng)
    center = r_max * rng.uniform(-2.0, 2.0, 3)
    m = EllipsoidModel.from_geometry(EllipsoidGeometry(
        rot, -rot @ center, r_max * 10.0 ** -np.array([0.0, *log_ratios])))
    u = rng.normal(size=(10, 3))
    u *= m.semiaxes / np.linalg.norm(u / m.semiaxes, axis=1, keepdims=True)
    near = from_aligned(m, u * (1.0 + 1e-6 * rng.normal(size=(10, 1))))
    pts = np.vstack([m.center, near, m.center + r_max * rng.uniform(-3.0, 3.0, (30, 3))])
    return m, pts, r_max


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_r_max=st.floats(-3.0, 3.0),
       log_ratios=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_algebraic_matches_the_coefficient_formula(seed, log_r_max, log_ratios):
    # the unit-frame form kappa |s^2 - 1| against |d(x) @ q|, to rounding
    # of the terms d_i(x) q_i that the coefficient form sums
    m, pts, _ = well_shaped(seed, log_r_max, log_ratios)
    terms = design_matrix(pts) * m.coeffs
    want = np.abs(terms.sum(axis=1))
    got = algebraic_distance(pts, m)
    assert (np.abs(got - want) <= 1e-13 * np.abs(terms).sum(axis=1)).all()


class TestEuclideanInvariance:
    def test_rigid_motion(self, rng):
        for _ in range(10):
            m = make_model(rng)
            rot = random_rotation(rng)
            shift = rng.uniform(-10, 10, 3)
            moved = rigidly_moved(m, rot, shift)
            pts = m.center + rng.uniform(-8, 8, size=(50, 3))
            moved_pts = pts @ rot.T + shift
            for fn in (axial_distance, sampson_distance, orthogonal_distance):
                a = np.asarray(fn(pts, m))
                b = np.asarray(fn(moved_pts, moved))
                assert np.allclose(a, b, rtol=1e-9, atol=1e-11)


class TestComplementarity:
    def test_equal_algebraic_unequal_orthogonal(self):
        # on an elongated ellipsoid, points of one member surface share the
        # algebraic distance while their true distances differ widely
        m = axis_aligned((3.0, 1.0, 1.0))
        s = 1.5
        flat_end = np.array([3.0 * s, 0.0, 0.0])
        waist = np.array([0.0, s, 0.0])
        alg = algebraic_distance(np.vstack([flat_end, waist]), m)
        assert abs(alg[0] - alg[1]) < 1e-12
        orth_flat = orthogonal_distance(flat_end, m)
        orth_waist = orthogonal_distance(waist, m)
        assert orth_flat / orth_waist >= 2.0


class TestMetricKind:
    def test_parse(self):
        assert MetricKind.parse("sampson") == SAMPSON
        assert MetricKind.parse("cas:0.25") == MetricKind("cas", 0.25)
        assert str(MetricKind.parse("axial+orthogonal:0.75")) == "axial+orthogonal:0.75"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            MetricKind.parse("euclidean")
        with pytest.raises(ValueError):
            MetricKind.parse("cas:nope")
        with pytest.raises(ValueError):
            MetricKind("cas", 1.5)
        # a single kind would drop the ratio, so the text would not name it
        for name in METRIC_KINDS:
            if name not in distances._PAIR_KINDS:
                with pytest.raises(ValueError, match="takes no blend ratio"):
                    MetricKind.parse(f"{name}:0.3")

    def test_single_kinds_take_only_the_default_ratio(self):
        # a ratio would make the kind unequal to its constant and its text
        # parse to another kind, and nothing would read it
        for constant in (ALGEBRAIC, SAMPSON, ORTHOGONAL, AXIAL):
            assert MetricKind(constant.kind, MetricKind.lam) == constant
            assert MetricKind.parse(str(constant)) == constant
            for lam in (0.0, 0.3, 1.0):
                with pytest.raises(ValueError, match="takes no blend ratio"):
                    MetricKind(constant.kind, lam)

    def test_ratio_must_be_a_real_number(self):
        # True read as cas:1, a string raised an untyped TypeError
        for bad in (True, False, "0.5", None):
            with pytest.raises(ValueError, match="lam must be a real number"):
                MetricKind("cas", bad)
        assert str(MetricKind("cas", np.float64(0.25))) == "cas:0.25"

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(distances._PAIR_KINDS)),
           lam=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.1, 0.1234567, 1 / 3, 5e-324, 1e-5]))
    def test_text_round_trips(self, name, lam):
        kind = MetricKind(name, lam)
        assert MetricKind.parse(str(kind)) == kind
        if lam in (0.0, 1.0, 0.5, 0.25, 0.1):  # the text written before
            assert str(kind) == f"{name}:{lam:g}"

    def test_lambda_endpoints_reduce_exactly(self, rng):
        m = make_model(rng)
        pts = m.center + rng.uniform(-6, 6, size=(100, 3))
        assert np.array_equal(np.asarray(cas_distance(pts, m, 0.0)),
                              np.asarray(sampson_distance(pts, m)))
        assert np.array_equal(np.asarray(cas_distance(pts, m, 1.0)),
                              np.asarray(axial_distance(pts, m)))

    @pytest.mark.parametrize("lam", [1e-3, 0.25, 0.5, 0.9])
    def test_cas_is_the_blend_of_its_components(self, rng, lam):
        # cas shares one unit-frame product between its terms, bit for bit
        m = make_model(rng)
        pts = m.center + rng.uniform(-6, 6, size=(200, 3))
        pts[0] = m.center
        expected = lam * np.asarray(axial_distance(pts, m)) \
            + (1 - lam) * np.asarray(sampson_distance(pts, m))
        assert np.array_equal(evaluate_metric(cas(lam), pts, m), expected)
        assert evaluate_metric(cas(lam), pts[1], m) == expected[1]

    def test_blend_arithmetic(self, rng):
        m = make_model(rng)
        pts = m.center + rng.uniform(-6, 6, size=(50, 3))
        lam = 0.25
        blend = evaluate_metric(MetricKind("sampson+orthogonal", lam), pts, m)
        expected = lam * np.asarray(sampson_distance(pts, m)) \
            + (1 - lam) * np.asarray(orthogonal_distance(pts, m))
        assert np.allclose(blend, expected, rtol=1e-14)

    def test_dispatch_single_kinds(self, rng):
        m = make_model(rng)
        pts = m.center + rng.uniform(-6, 6, size=(20, 3))
        pairs = [(ALGEBRAIC, algebraic_distance), (SAMPSON, sampson_distance),
                 (ORTHOGONAL, orthogonal_distance), (AXIAL, axial_distance)]
        for kind, fn in pairs:
            assert np.array_equal(np.asarray(evaluate_metric(kind, pts, m)),
                                  np.asarray(fn(pts, m)))
