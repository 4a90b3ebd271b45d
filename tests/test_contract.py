"""The robustness contract: a finite input gets a model or a typed ``CasfitError``.

One property over adversarial clouds: lattices, near-planes and near-lines, repeated points and
anisotropic scales, moved far from the origin and scaled by powers of two out to 2^+-600, with and
without box outliers, under every metric kind, LO on and off, and thresholds from the smallest
to nearly the largest double.  ``fit`` and ``local_optimize`` must return or raise a
``CasfitError`` (any warning raises too), and what they return must agree with itself.  A flat
cloud (a rotated plane or line, or one point repeated) is turned away with NoModelFound before
any sample is drawn.

``fit``'s labels are recounted as d < epsilon in the conditioned frame it fits in, with its model
mapped back into that frame, wherever the threshold there is at least LABEL_FLOOR.  Below it,
points on the surface read 0 in ``fit`` and ~1e-16 after the back-map, so labels may flip.

Not checked: ``fit``'s score against a recount in the scene frame.  The score is taken in the
conditioned frame, and far from the origin the scene's coordinates have lost the digits that
recount would need.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casfit import (METRIC_KINDS, CasfitError, DatasetSpec, EllipsoidGeometry, EllipsoidModel,
                    FitConfig, MetricKind, NoModelFound, evaluate_metric, fit, local_optimize,
                    make_instance, point_energy, random_ellipsoid, sample_surface)
from casfit import consensus
from casfit.quadric import to_scene
from casfit.synth import random_rotation

MAX_ITERATIONS = 300
SHAPES = ("lattice", "near-plane", "near-line", "repeated", "anisotropic")
FLAT_SHAPES = ("plane", "line", "identical")
TINY, HUGE = 5e-324, 1e308  # the threshold's range, endpoints included
LABEL_FLOOR = 1e-6  # the least threshold, in the conditioned frame, at which labels are recounted
LABEL_SLACK = 1e-9  # points within this share of the threshold of it may take either label


def base_cloud(shape, rng, draw):
    """An (n, 3) cloud of extent ~1 to ~10 around the origin."""
    if shape == "lattice":
        k = draw(st.integers(2, 4))
        axis = np.arange(k) - (k - 1) / 2.0
        return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    if shape in ("near-plane", "near-line", "plane", "line"):
        pts = rng.uniform(-1.0, 1.0, (40, 3))
        if shape.startswith("near"):
            thickness = 10.0 ** draw(st.floats(-12.0, -6.0))
        else:  # flat: at most 1e-11 thick, or exactly flat
            thickness = draw(st.sampled_from([0.0, 1e-16, 1e-13, 1e-11]))
        pts[:, 2 if shape.endswith("plane") else slice(1, None)] *= thickness
        return pts @ random_rotation(rng)
    if shape == "identical":
        return np.tile(rng.uniform(-1.0, 1.0, 3), (40, 1))
    surface = sample_surface(random_ellipsoid(rng), 40, rng)
    if shape == "repeated":
        distinct = draw(st.integers(1, 20))
        return surface[rng.integers(0, distinct, 40)]
    return (surface - surface.mean(axis=0)) * 10.0 ** rng.uniform(-6.0, 6.0, 3)


@st.composite
def cases(draw):
    """(points, flat, start, cfg): a cloud moved by its offset and power of two, whether it is
    flat, a random ellipsoid placed on it (None where it leaves the range) and a config."""
    flat = draw(st.integers(0, 3)) == 0
    shape = draw(st.sampled_from(FLAT_SHAPES if flat else SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = base_cloud(shape, rng, draw)
    if not flat and draw(st.booleans()):  # box outliers
        low, high = base.min(axis=0), base.max(axis=0)
        pad = 0.5 * (high - low)
        base = np.vstack([base, rng.uniform(low - pad, high + pad, (len(base) // 3 + 1, 3))])
    extent = float(np.ptp(base, axis=0).max()) or 1.0
    direction = rng.normal(size=3)
    # a flat cloud far from the origin gains a rounding thickness: ~1e6 extents off it is 3-D
    offset = 10.0 ** draw(st.floats(-3.0, 3.0 if flat else 12.0)) * extent * direction
    offset /= np.linalg.norm(direction)
    # flat clouds stay where their mean is carried (SQUARE_RANGE), so flatness decides first
    power = draw(st.integers(-600, 480 if flat else 600))
    points = np.ldexp(base + offset, power)
    scene_extent = math.ldexp(extent, power)
    epsilon = draw(st.one_of(  # mostly near the extent, where models are found
        st.sampled_from([TINY, HUGE]),
        st.floats(math.log10(TINY), math.log10(HUGE)).map(lambda e: 10.0 ** e),
        *[st.floats(-2.0, 1.0).map(lambda e: scene_extent * 10.0 ** e)] * 3))
    cfg = FitConfig(epsilon=min(max(epsilon, TINY), HUGE),
                    score_metric=MetricKind(draw(st.sampled_from(METRIC_KINDS))),
                    local_opt=draw(st.booleans()), max_iterations=MAX_ITERATIONS,
                    seed=draw(st.integers(0, 2**32 - 1)))
    geom = random_ellipsoid(rng).geometry
    center = np.ldexp(base.mean(axis=0) + offset, power)
    try:
        start = EllipsoidModel.from_geometry(EllipsoidGeometry(
            geom.rotation, -geom.rotation @ center, np.ldexp(geom.semiaxes * extent / 5.0, power)))
    except CasfitError:
        start = None
    return points, flat, start, cfg


def refitted_case():
    """A case whose fit ends on a refit: 200 points 5 % off the surface, 30 % box outliers,
    epsilon 2 sigma.  The refit's labels differ from its sample's on 13 points."""
    inst = make_instance(DatasetSpec(kind="outlier", point_count=200, sigma_rel=0.05,
                                     outlier_fraction=0.3), np.random.default_rng(2))
    cfg = FitConfig(epsilon=2.0 * inst.sigma, max_iterations=MAX_ITERATIONS, seed=2)
    return inst.points, False, inst.truth, cfg


def assert_geometry_accepted(model):
    geom = model.geometry
    EllipsoidGeometry(geom.rotation, geom.translation, geom.semiaxes)


def assert_labels_recount(report, points, cfg):
    """``report.inlier_mask`` is d < epsilon in the conditioned frame, for the fitted model
    mapped back into it, but for points within LABEL_SLACK epsilon of the threshold."""
    _, local, center, scale, epsilon = consensus._frame(points, cfg.epsilon)
    if epsilon < LABEL_FLOOR:
        return
    model = to_scene(report.model, -center / scale, 1.0 / scale)
    d = evaluate_metric(cfg.score_metric, local, model)
    clear = np.abs(d - epsilon) > LABEL_SLACK * epsilon
    assert np.array_equal(report.inlier_mask[clear], (d < epsilon)[clear])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cases())
@example(case=refitted_case())
def test_typed_errors_and_self_consistent_results(case):
    points, flat, start, cfg = case
    n = len(points)
    if flat:
        with mock.patch.object(consensus, "sample_minimal",
                               wraps=consensus.sample_minimal) as draws:
            try:
                fit(points, cfg)
            except NoModelFound:
                pass
            else:
                raise AssertionError("a flat cloud was fitted")
            assert local_optimize(random_ellipsoid(np.random.default_rng(0)), points, cfg) is None
        assert draws.call_count == 0
        return
    try:
        report = fit(points, cfg)
    except CasfitError:
        report = None
    if report is not None:
        assert report.inlier_mask.shape == (n,)
        assert report.inlier_ratio == report.inlier_mask.mean()
        assert 1 <= report.iterations <= MAX_ITERATIONS
        assert report.lo_invocations <= report.iterations
        assert math.isfinite(report.score) and 0.0 <= report.score <= n
        assert_geometry_accepted(report.model)
        assert_labels_recount(report, points, cfg)
    if start is None:
        return
    try:
        refined = local_optimize(start, points, cfg)
    except CasfitError:
        refined = None
    if refined is not None:
        model, score, d = refined
        assert d.shape == (n,)
        assert score == float(np.sum(point_energy(d, cfg.epsilon)))
        assert_geometry_accepted(model)
