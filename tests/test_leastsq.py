import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfit import (AXIAL, SAMPSON, CasfitError, EllipsoidGeometry, EllipsoidModel,
                    InsufficientSupport, RankDeficient, TooFewPoints, algebraic_distance,
                    gaussian_weights, lls_fit, wls_fit)
from casfit.leastsq import condition, decondition, solve_rows
from casfit.quadric import design_matrix, normalize_coeffs
from casfit.synth import random_rotation, sample_surface

from conftest import make_model, unit_sphere


def coeff_gap(a, b):
    a = normalize_coeffs(a)
    b = normalize_coeffs(b)
    return float(np.abs(a - b).sum())


class TestLls:
    def test_minimal_interpolation(self, rng):
        for _ in range(10):
            m = make_model(rng)
            pts = sample_surface(m, 9, rng)
            q = lls_fit(pts)
            assert np.abs(algebraic_distance(pts, EllipsoidModel.from_coeffs(q))).max() < 1e-10

    def test_clean_recovery(self, rng):
        for _ in range(10):
            m = make_model(rng)
            pts = sample_surface(m, 200, rng)
            q = lls_fit(pts)
            assert coeff_gap(q, m.coeffs) < 1e-9
            fitted = EllipsoidModel.from_coeffs(q)
            assert np.abs(fitted.semiaxes - m.semiaxes).max() < 1e-8
            assert np.abs(fitted.center - m.center).max() < 1e-8

    def test_too_few_points(self, rng):
        with pytest.raises(TooFewPoints):
            lls_fit(rng.normal(size=(8, 3)))

    def test_coplanar_is_rank_deficient(self, rng):
        pts = np.zeros((40, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(40, 2))
        with pytest.raises(RankDeficient):
            lls_fit(pts)

    def test_repeated_point_is_rank_deficient(self):
        pts = np.tile([1.0, 2.0, 3.0], (30, 1))
        with pytest.raises(RankDeficient):
            lls_fit(pts)

    def test_optimality_against_probes(self, rng):
        # the fit minimizes the weighted algebraic cost over unit vectors in
        # conditioned coordinates; any random unit quadric must cost more
        m = make_model(rng)
        pts = sample_surface(m, 300, rng)
        pts += 0.02 * rng.normal(size=pts.shape)
        q = lls_fit(pts)
        design = design_matrix(pts)
        cost = float(np.square(design @ q).sum())
        for _ in range(100):
            probe = rng.normal(size=10)
            probe /= np.linalg.norm(probe)
            assert cost <= float(np.square(design @ probe).sum())

    def test_rigid_motion_equivariance(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 150, rng)
        rot = random_rotation(rng)
        shift = rng.uniform(-10, 10, 3)
        moved = lls_fit(pts @ rot.T + shift)
        fitted = EllipsoidModel.from_coeffs(moved)
        base = EllipsoidModel.from_coeffs(lls_fit(pts))
        assert np.abs(np.sort(fitted.semiaxes) - np.sort(base.semiaxes)).max() < 1e-9
        assert np.abs(fitted.center - (rot @ base.center + shift)).max() < 1e-9


class TestCondition:
    def test_zero_mean_and_rms_radius_sqrt3(self, rng):
        pts = 100.0 + 3.0 * rng.normal(size=(200, 3))
        local, center, scale = condition(pts)
        assert np.abs(local.mean(axis=0)).max() < 1e-12
        assert abs(math.sqrt(np.square(local).sum(axis=1).mean()) - math.sqrt(3.0)) < 1e-12
        assert np.abs(center + scale * local - pts).max() <= 1e-12

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        # squares of these coordinates under- or overflow
        pts = 100.0 + 3.0 * rng.normal(size=(200, 3))
        local, center, scale = condition(pts)
        got = condition(np.ldexp(pts, exponent))
        assert np.array_equal(got[0], local)
        assert np.array_equal(got[1], np.ldexp(center, exponent))
        assert got[2] == math.ldexp(scale, exponent)

    def test_identical_points_have_zero_scale(self):
        local, center, scale = condition(np.tile([1.0, 2.0, 3.0], (30, 1)))
        assert scale == 0.0
        assert np.array_equal(center, [1.0, 2.0, 3.0])
        assert not local.any()


class TestSolveRows:
    def test_rows_match_lls_fit(self, rng):
        m = make_model(rng)
        pts = np.vstack([sample_surface(m, 60, rng), rng.uniform(-8, 8, size=(40, 3))])
        samples = [pts[rng.choice(len(pts), 9, replace=False)] for _ in range(50)]
        frames = [condition(sample) for sample in samples]
        coeffs, ok = solve_rows(np.stack([design_matrix(local) for local, _, _ in frames]))
        assert coeffs.shape == (50, 10) and ok.all()
        for sample, (_, center, scale), q in zip(samples, frames, coeffs):
            assert np.abs(decondition(q, center, scale) - lls_fit(sample)).max() <= 1e-15

    def test_rank_deficient_rows_rejected(self, rng):
        m = make_model(rng)
        good = sample_surface(m, 9, rng)
        coplanar = np.zeros((9, 3))
        coplanar[:, :2] = rng.uniform(-5, 5, size=(9, 2))
        repeated = np.tile([1.0, 2.0, 3.0], (9, 1))
        samples = (good, coplanar, repeated, good)
        coeffs, ok = solve_rows(np.stack([design_matrix(sample) for sample in samples]))
        assert ok.tolist() == [True, False, False, True]
        assert np.array_equal(coeffs[0], coeffs[3])
        for bad in (coplanar, repeated):
            with pytest.raises(RankDeficient):
                lls_fit(bad)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), size=st.integers(9, 60),
           weighted=st.booleans())
    def test_a_row_alone_is_its_row_in_the_stack(self, seed, count, size, weighted):
        # bitwise: a refit solves one row, a chunk of minimal samples many
        rng = np.random.default_rng(seed)
        m = make_model(rng)
        pts = np.vstack([sample_surface(m, size * count, rng),
                         rng.uniform(-8, 8, (size * count, 3))])
        rows = np.stack([design_matrix(condition(pts[rng.choice(len(pts), size, replace=False)])[0])
                         for _ in range(count)])
        weights = None
        if weighted:
            weights = rng.uniform(0.0, 1.0, (count, size))
            weights *= 10.0 ** rng.integers(-150, 1, (count, 1))
            weights[rng.random((count, size)) < 0.2] = 0.0
        coeffs, ok = solve_rows(rows, weights)
        for j in range(count):
            alone, ok_alone = solve_rows(rows[j:j + 1],
                                         None if weights is None else weights[j:j + 1])
            assert coeffs[j:j + 1].tobytes() == alone.tobytes() and ok[j] == ok_alone[0]


class TestWls:
    def test_none_means_uniform(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 60, rng)
        assert np.array_equal(wls_fit(pts, None), wls_fit(pts, np.ones(60)))

    def test_weight_scale_cancels(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 60, rng)
        pts += 0.05 * rng.normal(size=pts.shape)
        w = rng.uniform(0.2, 1.0, 60)
        assert coeff_gap(wls_fit(pts, w), wls_fit(pts, 8.0 * w)) < 1e-12

    def test_zero_weight_discards_junk(self, rng):
        m = make_model(rng)
        good = sample_surface(m, 120, rng)
        junk = rng.uniform(-30, 30, size=(40, 3))
        pts = np.vstack([good, junk])
        w = np.concatenate([np.ones(120), np.zeros(40)])
        q = wls_fit(pts, w)
        assert coeff_gap(q, m.coeffs) < 1e-8

    def test_downweighting_beats_uniform_on_contaminated_data(self, rng):
        m = make_model(rng)
        good = sample_surface(m, 150, rng)
        junk = m.center + rng.uniform(-12, 12, size=(50, 3))
        pts = np.vstack([good, junk])
        w = np.concatenate([np.ones(150), np.full(50, 1e-3)])
        weighted = coeff_gap(wls_fit(pts, w), m.coeffs)
        uniform = coeff_gap(wls_fit(pts, None), m.coeffs)
        assert weighted < uniform

    def test_insufficient_support(self, rng):
        pts = rng.normal(size=(30, 3))
        w = np.concatenate([np.ones(8), np.full(22, 1e-8)])
        with pytest.raises(InsufficientSupport):
            wls_fit(pts, w)

    def test_weight_validation(self, rng):
        pts = rng.normal(size=(20, 3))
        with pytest.raises(ValueError):
            wls_fit(pts, -np.ones(20))
        with pytest.raises(ValueError):
            wls_fit(pts, np.ones(19))
        with pytest.raises(ValueError):
            wls_fit(pts, np.full(20, np.nan))


class TestMagnitudes:
    """One clean cloud, scaled with its center: each fit either returns
    coefficients that read back to the unscaled fit's geometry, or raises."""

    def test_every_decade_fits_or_raises_a_typed_error(self):
        truth = EllipsoidModel.from_geometry(EllipsoidGeometry(
            random_rotation(np.random.default_rng(4)), [1.0, -2.0, 0.5], [3.0, 2.0, 1.0]))
        points = sample_surface(truth, 50, np.random.default_rng(0))
        weights = np.random.default_rng(1).uniform(0.5, 1.0, 50)
        unit = EllipsoidModel.from_coeffs(lls_fit(points))
        outcomes = {}
        for k in [*range(-300, 301), 155, 160, -160]:
            scale = 10.0 ** k
            for how, solve in (("lls", lambda: lls_fit(scale * points)),
                               ("wls", lambda: wls_fit(scale * points, weights))):
                try:
                    back = EllipsoidModel.from_coeffs(solve())
                except CasfitError:
                    outcomes[how, k] = "raised"
                    continue
                size = scale * unit.semiaxes
                assert np.all(np.abs(back.semiaxes - size) <= 1e-6 * size), (how, k)
                assert np.all(np.abs(back.center - scale * unit.center)
                              <= 1e-6 * size.min()), (how, k)
                outcomes[how, k] = "fitted"
        # the range README states, 2^-500 to 2^500 for the spread and the mean
        for how in ("lls", "wls"):
            assert all(outcomes[how, k] == "fitted" for k in range(-150, 150))
            assert all(outcomes[how, k] == "raised" for k in (-200, -160, 155, 160, 200))


class TestWeights:
    def test_gaussian_closed_form(self):
        m = unit_sphere()
        p = np.array([2.0, 0.0, 0.0])
        d = math.sqrt(3.0) / 3.0  # axial distance of p
        w = gaussian_weights(p[None, :], m, d / 3.0, metric=AXIAL)
        assert abs(w[0] - math.exp(-4.5)) < 1e-15
        assert abs(gaussian_weights(p[None, :], m, d, metric=AXIAL)[0]
                   - math.exp(-0.5)) < 1e-15

    def test_surface_points_get_unit_weight(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 50, rng)
        w = gaussian_weights(pts, m, 0.1)
        assert np.allclose(w, 1.0, atol=1e-12)

    def test_infinite_distance_gives_zero_weight(self, rng):
        m = make_model(rng)
        w = gaussian_weights(m.center[None, :], m, 0.5, metric=SAMPSON)
        assert w[0] == 0.0

    def test_monotone_in_distance(self, rng):
        m = unit_sphere()
        pts = np.array([[1.0 + 0.1 * k, 0.0, 0.0] for k in range(10)])
        w = gaussian_weights(pts, m, 0.3)
        assert (np.diff(w) < 0.0).all()
        assert (w > 0.0).all() and (w <= 1.0).all()

    def test_eps_validation(self, rng):
        m = unit_sphere()
        with pytest.raises(ValueError):
            gaussian_weights(np.ones((5, 3)), m, 0.0)
        with pytest.raises(ValueError):
            gaussian_weights(np.ones((5, 3)), m, -1.0)
