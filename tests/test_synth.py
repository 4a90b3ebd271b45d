import math

import numpy as np
import pytest

from casfit import (DatasetSpec, ParseError, algebraic_distance, downsample,
                    load_points, make_instance, orthogonal_distance,
                    random_ellipsoid, sample_surface, save_points,
                    scaling_factor)
from casfit.synth import (CENTER_RANGE, OUTLIER_BOX_INFLATION, SEMIAXIS_RANGE,
                          _bounding_half_extents, random_rotation)


class TestRandomRotation:
    def test_proper_orthonormal(self, rng):
        for _ in range(200):
            r = random_rotation(rng)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_covers_orientations(self):
        # the rotated z axis should sweep the whole sphere, both hemispheres
        rng = np.random.default_rng(5)
        zs = np.array([random_rotation(rng)[:, 2] for _ in range(4000)])
        assert zs[:, 2].min() < -0.99 and zs[:, 2].max() > 0.99
        assert abs(zs.mean(axis=0)).max() < 0.05


class TestRandomEllipsoid:
    def test_parameter_ranges(self):
        rng = np.random.default_rng(17)
        lo, hi = SEMIAXIS_RANGE
        clo, chi = CENTER_RANGE
        ratios = []
        for _ in range(10_000):
            m = random_ellipsoid(rng)
            r = m.semiaxes
            assert (r >= lo).all() and (r <= hi).all()
            assert (m.center >= clo).all() and (m.center <= chi).all()
            ratios.append(r.max() / r.min())
        ratios = np.array(ratios)
        # the aspect-ratio spread must cover near-spheres and elongated bodies
        assert ratios.min() < 1.1
        assert ratios.max() > 4.0

    def test_deterministic(self):
        a = random_ellipsoid(np.random.default_rng(3))
        b = random_ellipsoid(np.random.default_rng(3))
        assert np.array_equal(a.coeffs, b.coeffs)


class TestSampleSurface:
    def test_membership(self, rng):
        for _ in range(20):
            m = random_ellipsoid(rng)
            pts = sample_surface(m, 500, rng)
            assert pts.shape == (500, 3)
            assert np.abs(algebraic_distance(pts, m)).max() < 1e-10
            assert np.abs(np.asarray(scaling_factor(pts, m)) - 1.0).max() < 1e-12

    def test_member_scale(self, rng):
        m = random_ellipsoid(rng)
        pts = sample_surface(m, 200, rng, scale=0.5)
        assert np.allclose(scaling_factor(pts, m), 0.5, atol=1e-12)

    def test_count_validation(self, rng):
        m = random_ellipsoid(rng)
        assert sample_surface(m, 0, rng).shape == (0, 3)
        with pytest.raises(ValueError):
            sample_surface(m, -1, rng)


class TestMakeInstance:
    def test_exact_outlier_count_and_ordering(self, rng):
        spec = DatasetSpec(kind="outlier", point_count=500, sigma_rel=0.25,
                           outlier_fraction=0.4)
        inst = make_instance(spec, rng)
        assert len(inst.points) == 500
        assert inst.is_outlier.sum() == 200
        assert not inst.is_outlier[:300].any()
        assert inst.is_outlier[300:].all()

    def test_gaussian_kind_has_no_outliers(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=100, sigma_rel=0.1,
                           outlier_fraction=0.4)  # fraction ignored for this kind
        inst = make_instance(spec, rng)
        assert not inst.is_outlier.any()

    def test_sigma_definition(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=50, sigma_rel=0.2)
        inst = make_instance(spec, rng)
        assert abs(inst.sigma - 0.2 * inst.truth.semiaxes.mean()) < 1e-12

    def test_noise_magnitude(self):
        # surface offsets of noisy inliers are half-normal with mean
        # sigma * sqrt(2 / pi); curvature bias is negligible at this noise
        rng = np.random.default_rng(99)
        spec = DatasetSpec(kind="gaussian", point_count=100_000, sigma_rel=0.01)
        inst = make_instance(spec, rng)
        d = np.asarray(orthogonal_distance(inst.points, inst.truth))
        expected = inst.sigma * math.sqrt(2.0 / math.pi)
        assert abs(d.mean() - expected) < 0.02 * expected

    def test_outliers_confined_to_inflated_box(self, rng):
        spec = DatasetSpec(kind="outlier", point_count=400, sigma_rel=0.1,
                           outlier_fraction=0.5)
        inst = make_instance(spec, rng)
        half = OUTLIER_BOX_INFLATION * _bounding_half_extents(inst.truth)
        off = np.abs(inst.points[inst.is_outlier] - inst.truth.center)
        assert (off <= half + 1e-12).all()
        # and they actually use the inflated region beyond the surface box
        assert (off > _bounding_half_extents(inst.truth)).any()

    def test_noise_free_points_lie_on_surface(self, rng):
        spec = DatasetSpec(kind="gaussian", point_count=64, sigma_rel=0.0)
        inst = make_instance(spec, rng)
        assert inst.sigma == 0.0
        assert np.abs(algebraic_distance(inst.points, inst.truth)).max() < 1e-10

    def test_deterministic(self):
        spec = DatasetSpec(kind="outlier", point_count=80, sigma_rel=0.25,
                           outlier_fraction=0.25)
        a = make_instance(spec, np.random.default_rng(21))
        b = make_instance(spec, np.random.default_rng(21))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.truth.coeffs, b.truth.coeffs)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(kind="torus")
        with pytest.raises(ValueError):
            DatasetSpec(kind="outlier", outlier_fraction=1.5)
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian", point_count=0)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_rel"):
                DatasetSpec(kind="gaussian", sigma_rel=bad)
        with pytest.raises(ValueError):
            DatasetSpec(kind="gaussian", instance_count=0)


class TestDownsample:
    def test_subset_in_order(self, rng):
        pts = rng.normal(size=(100, 3))
        sub = downsample(pts, 30, rng)
        assert sub.shape == (30, 3)
        rows = {tuple(r) for r in pts}
        assert all(tuple(r) in rows for r in sub)
        idx = [int(np.flatnonzero((pts == r).all(axis=1))[0]) for r in sub]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)

    def test_small_input_copied_through(self, rng):
        pts = rng.normal(size=(10, 3))
        out = downsample(pts, 20, rng)
        assert np.array_equal(out, pts)
        out[0, 0] = 42.0
        assert pts[0, 0] != 42.0

    def test_deterministic(self, rng):
        pts = rng.normal(size=(50, 3))
        a = downsample(pts, 12, np.random.default_rng(8))
        b = downsample(pts, 12, np.random.default_rng(8))
        assert np.array_equal(a, b)


class TestPointFiles:
    def test_round_trip_is_exact(self, rng, tmp_path):
        pts = rng.uniform(-50, 50, size=(200, 3))
        pts[0] = [1.0 / 3.0, -2.0 / 7.0, 1e-17]
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)
        text = path.read_text()
        assert text.splitlines()[0] == "x,y,z"

    def test_whitespace_and_comments(self, tmp_path):
        path = tmp_path / "loose.txt"
        path.write_text("# a comment\n1 2 3\n\n  4\t5 6\n# tail comment\n")
        assert np.array_equal(load_points(path),
                              np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    def test_header_tolerated_after_comments(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("# generated\nx,y,z\n1,2,3\n")
        assert np.array_equal(load_points(path), np.array([[1.0, 2.0, 3.0]]))

    def test_parse_errors(self, tmp_path):
        cases = {
            "two_cols.csv": "1,2\n",
            "late_text.csv": "1,2,3\nx,y,z\n",
            "double_header.csv": "x,y,z\na,b,c\n1,2,3\n",
            "empty.csv": "# nothing\n",
            "nonfinite.csv": "1,2,nan\n",
        }
        for name, body in cases.items():
            path = tmp_path / name
            path.write_text(body)
            with pytest.raises(ParseError):
                load_points(path)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_points(path)
