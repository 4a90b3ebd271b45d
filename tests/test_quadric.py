import numpy as np
import pytest

from casfit import (DegenerateQuadric, EllipsoidGeometry, EllipsoidModel,
                    NotAnEllipsoid, coeffs_to_matrix, decompose, design_matrix,
                    geometry_to_coeffs, matrix_to_coeffs, normalize_coeffs,
                    validate_ellipsoid)
from casfit.leastsq import solve_stack
from casfit.quadric import (DEGENERATE, ELLIPSOID, INDEFINITE, UNBOUNDED,
                            check_ellipsoids)
from casfit.synth import random_rotation, sample_surface

from conftest import axis_aligned, make_model

UNIT_SPHERE_RAW = np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0, 1])


def random_coeffs(rng):
    return normalize_coeffs(rng.normal(size=10))


class TestNormalize:
    def test_unit_norm_and_sign(self, rng):
        for _ in range(100):
            q = normalize_coeffs(rng.normal(size=10))
            assert np.isclose(np.linalg.norm(q), 1.0, atol=1e-14)
            assert q[0] + q[1] + q[2] >= 0.0

    def test_sign_flip_is_collapsed(self, rng):
        q = random_coeffs(rng)
        assert np.allclose(normalize_coeffs(-q), q, atol=1e-15)

    def test_idempotent(self, rng):
        q = random_coeffs(rng)
        assert np.array_equal(normalize_coeffs(q), normalize_coeffs(normalize_coeffs(q)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize_coeffs(np.zeros(10))

    def test_nonfinite_rejected(self):
        q = np.ones(10)
        q[3] = np.nan
        with pytest.raises(ValueError):
            normalize_coeffs(q)


class TestMatrixForm:
    def test_matrix_matches_design_row(self, rng):
        # xh @ Q @ xh must equal d(x) @ q for any q and any point
        for _ in range(50):
            q = random_coeffs(rng)
            mat = coeffs_to_matrix(q)
            p = rng.uniform(-5, 5, 3)
            ph = np.append(p, 1.0)
            lhs = float(ph @ mat @ ph)
            rhs = float((design_matrix(p) @ q)[0])
            assert np.isclose(lhs, rhs, atol=1e-10)

    def test_round_trip(self, rng):
        q = random_coeffs(rng)
        assert np.allclose(matrix_to_coeffs(coeffs_to_matrix(q)), q, atol=1e-15)

    def test_asymmetric_rejected(self):
        mat = coeffs_to_matrix(UNIT_SPHERE_RAW)
        mat = mat.copy()
        mat[0, 1] += 1e-6
        with pytest.raises(ValueError):
            matrix_to_coeffs(mat)

    def test_constant_term_sign(self):
        # the (3, 3) entry carries -q10 so the sphere x^2+y^2+z^2 = 1 has
        # matrix diag(1, 1, 1, -1)
        mat = coeffs_to_matrix(UNIT_SPHERE_RAW)
        assert np.allclose(mat, np.diag([1.0, 1.0, 1.0, -1.0]))


class TestDecompose:
    def test_unit_sphere(self):
        geom = decompose(UNIT_SPHERE_RAW)
        assert np.allclose(geom.semiaxes, 1.0, atol=1e-14)
        assert np.allclose(geom.center, 0.0, atol=1e-14)

    def test_translated_sphere(self):
        # sphere radius 2 centered at (1, -2, 0.5), written out by hand
        center = np.array([1.0, -2.0, 0.5])
        q = np.array([0.25, 0.25, 0.25, 0, 0, 0,
                      -0.25 * center[0], -0.25 * center[1], -0.25 * center[2],
                      1.0 - 0.25 * float(center @ center)])
        geom = decompose(q)
        assert np.allclose(geom.semiaxes, 2.0, atol=1e-12)
        assert np.allclose(geom.center, center, atol=1e-12)

    def test_axis_aligned_semiaxes(self):
        geom = EllipsoidGeometry(np.eye(3), np.zeros(3), [1.0, 2.0, 3.0])
        out = decompose(geometry_to_coeffs(geom))
        assert np.allclose(np.sort(out.semiaxes), [1.0, 2.0, 3.0], atol=1e-9)
        # eigenvalues ascend, so recovered semiaxes descend
        assert out.semiaxes[0] >= out.semiaxes[1] >= out.semiaxes[2]

    def test_round_trip_random(self, rng):
        # geometry -> coefficients -> geometry preserves center and semiaxes
        for _ in range(1000):
            semiaxes = rng.uniform(0.5, 6.0, 3)
            rot = random_rotation(rng)
            center = rng.uniform(-10, 10, 3)
            geom = EllipsoidGeometry(rot, -rot @ center, semiaxes)
            out = decompose(geometry_to_coeffs(geom))
            assert np.allclose(out.center, center, atol=1e-9)
            assert np.allclose(np.sort(out.semiaxes), np.sort(semiaxes), rtol=1e-9)

    def test_rotation_is_proper(self, rng):
        for _ in range(200):
            geom = decompose(make_model(rng).coeffs)
            rot = geom.rotation
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-10)
            assert np.linalg.det(rot) > 0.0

    def test_hyperboloid_rejected(self):
        q = np.array([1.0, 1, -1, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(NotAnEllipsoid):
            decompose(q)

    def test_empty_surface_rejected(self):
        # x^2 + y^2 + z^2 + 1 = 0 has no real points
        q = np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0, -1])
        with pytest.raises(NotAnEllipsoid):
            decompose(q)

    def test_cylinder_degenerate(self):
        # x^2 + y^2 = 1: quadratic block has a zero eigenvalue
        q = np.array([1.0, 1, 0, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(DegenerateQuadric):
            decompose(q)

    def test_near_degenerate_block(self):
        q = np.array([1.0, 1, 1e-13, 0, 0, 0, 0, 0, 0, 1])
        with pytest.raises(DegenerateQuadric):
            decompose(q)


class TestValidate:
    def test_true_for_random_ellipsoids(self, rng):
        for _ in range(200):
            assert validate_ellipsoid(make_model(rng).coeffs)

    def test_sign_insensitive(self, rng):
        q = make_model(rng).coeffs
        assert validate_ellipsoid(q) and validate_ellipsoid(-q)

    def test_false_for_other_quadrics(self):
        hyperboloid = np.array([1.0, 1, -1, 0, 0, 0, 0, 0, 0, 1])
        empty = np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0, -1])
        cylinder = np.array([1.0, 1, 0, 0, 0, 0, 0, 0, 0, 1])
        paraboloid = np.array([1.0, 1, 0, 0, 0, 0, 0, 0, 1, 0])
        for q in (hyperboloid, empty, cylinder, paraboloid):
            assert not validate_ellipsoid(q)


def hyperboloid_sample(rng, count=9):
    # x^2/a^2 + y^2/b^2 - z^2/c^2 = 1, rotated and shifted
    u = rng.uniform(-1.5, 1.5, count)
    v = rng.uniform(0.0, 2.0 * np.pi, count)
    a, b, c = rng.uniform(0.5, 3.0, 3)
    local = np.stack([a * np.cosh(u) * np.cos(v), b * np.cosh(u) * np.sin(v),
                      c * np.sinh(u)], axis=1)
    return local @ random_rotation(rng).T + rng.uniform(-5, 5, 3)


class TestCheckEllipsoids:
    def test_verdicts_match_decompose(self):
        rows = {
            ELLIPSOID: UNIT_SPHERE_RAW,
            INDEFINITE: np.array([1.0, 1, -1, 0, 0, 0, 0, 0, 0, 1]),
            UNBOUNDED: np.array([1.0, 1, 1, 0, 0, 0, 0, 0, 0, -1]),
            DEGENERATE: np.array([1.0, 1, 1e-13, 0, 0, 0, 0, 0, 0, 1]),
        }
        stack = np.stack([normalize_coeffs(q) for q in rows.values()])
        assert check_ellipsoids(stack)[0].tolist() == list(rows)
        decompose(rows[ELLIPSOID])
        for verdict, error in ((INDEFINITE, NotAnEllipsoid), (UNBOUNDED, NotAnEllipsoid),
                               (DEGENERATE, DegenerateQuadric)):
            with pytest.raises(error):
                decompose(rows[verdict])

    def test_hyperboloid_samples_fail_exactly_when_from_coeffs_raises(self, rng):
        samples = [hyperboloid_sample(rng) if k % 2 else sample_surface(make_model(rng), 9, rng)
                   for k in range(40)]
        coeffs, ok = solve_stack(np.stack(samples))
        assert ok.all()
        passed = check_ellipsoids(coeffs)[0] == ELLIPSOID
        for q, accepted in zip(coeffs, passed):
            if accepted:
                EllipsoidModel.from_coeffs(q)
            else:
                with pytest.raises(NotAnEllipsoid):
                    EllipsoidModel.from_coeffs(q)
        assert passed[0::2].all() and not passed[1::2].any()


class TestGeometry:
    def test_center_formula(self, rng):
        rot = random_rotation(rng)
        center = rng.uniform(-10, 10, 3)
        geom = EllipsoidGeometry(rot, -rot @ center, [1.0, 2.0, 3.0])
        assert np.allclose(geom.center, center, atol=1e-12)

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            EllipsoidGeometry(2.0 * np.eye(3), np.zeros(3), [1.0, 1.0, 1.0])

    def test_improper_rotation_rejected(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            EllipsoidGeometry(rot, np.zeros(3), [1.0, 1.0, 1.0])

    def test_nonpositive_semiaxes_rejected(self):
        with pytest.raises(ValueError):
            EllipsoidGeometry(np.eye(3), np.zeros(3), [1.0, 0.0, 1.0])


class TestSurfaceMembership:
    def test_sampled_points_satisfy_quadric(self, rng):
        # every sampler output must lie on the zero set of the coefficients
        for _ in range(20):
            model = make_model(rng)
            pts = sample_surface(model, 500, rng)
            residual = np.abs(design_matrix(pts) @ model.coeffs)
            assert residual.max() < 1e-10


class TestModelJson:
    def test_document_fields(self, rng):
        model = make_model(rng)
        doc = model.to_json_dict()
        assert sorted(doc) == ["center", "q", "rotation", "semiaxes"]
        assert len(doc["q"]) == 10 and len(doc["rotation"]) == 9
        assert doc["semiaxes"][0] >= doc["semiaxes"][1] >= doc["semiaxes"][2]

    def test_round_trip_precision(self, rng):
        import json
        for _ in range(20):
            model = make_model(rng)
            text = json.dumps(model.to_json_dict())
            back = EllipsoidModel.from_json_dict(json.loads(text))
            assert np.allclose(back.coeffs, model.coeffs, atol=1e-14)
            assert np.allclose(back.center, model.center, atol=1e-12)
            assert np.allclose(back.semiaxes, model.semiaxes, rtol=1e-12)

    def test_rotation_row_major(self, rng):
        model = make_model(rng)
        doc = model.to_json_dict()
        assert np.allclose(np.array(doc["rotation"]).reshape(3, 3),
                           model.geometry.rotation)
