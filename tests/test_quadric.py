import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casfit import (CasfitError, DegenerateQuadric, EllipsoidGeometry, EllipsoidModel,
                    FitConfig, NotAnEllipsoid, ParseError, coeffs_to_matrix, decompose,
                    design_matrix, fit, geometry_to_coeffs, local_optimize, matrix_to_coeffs,
                    normalize_coeffs, validate_ellipsoid)
from casfit.leastsq import condition, solve_rows
from casfit.quadric import (DEGENERATE, ELLIPSOID, INDEFINITE, UNBOUNDED, _ellipsoids,
                            check_ellipsoids)
from casfit.synth import random_ellipsoid, random_rotation, sample_surface

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

    @pytest.mark.parametrize("exponent", [-1000, -600, 600, 1020])
    def test_scale_free_at_any_magnitude(self, rng, exponent):
        # entries whose squares under- or overflow
        q = rng.normal(size=10)
        assert np.array_equal(normalize_coeffs(np.ldexp(q, exponent)), normalize_coeffs(q))

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

    def test_points_must_be_finite_triples(self):
        for bad, message in (([1.0, 2.0], "shape"), (np.ones((4, 2)), "shape"),
                             ([[0.0, np.inf, 0.0]], "finite")):
            with pytest.raises(ValueError, match=message):
                design_matrix(bad)

    def test_design_rows_follow_the_formula(self, rng):
        # d(x) = (x^2, y^2, z^2, 2xy, 2xz, 2yz, 2x, 2y, 2z, -1), bit for bit
        def by_formula(p):
            x, y, z = p
            return [x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z,
                    2 * x, 2 * y, 2 * z, -1.0]

        pts = rng.normal(scale=1e3, size=(37, 3))
        for points, want in ((pts[0], [by_formula(pts[0])]),
                             (pts, [by_formula(p) for p in pts]),
                             (np.empty((0, 3)), np.empty((0, 10)))):
            rows = design_matrix(points)
            assert rows.shape == np.shape(want)
            assert rows.tobytes() == np.array(want, dtype=float).tobytes()

    def test_round_trip(self, rng):
        q = random_coeffs(rng)
        assert np.allclose(matrix_to_coeffs(coeffs_to_matrix(q)), q, atol=1e-15)

    def test_asymmetric_rejected(self):
        mat = coeffs_to_matrix(UNIT_SPHERE_RAW)
        mat = mat.copy()
        mat[0, 1] += 1e-6
        with pytest.raises(ValueError):
            matrix_to_coeffs(mat)
        with pytest.raises(ValueError, match="4x4"):
            matrix_to_coeffs(mat[:3, :3])

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


class TestFromGeometry:
    @pytest.mark.parametrize("semiaxes, translation", [
        ((1.0, 1e-200, 1e-300), (0.0, 0.0, 0.0)),
        ((1e-100,) * 3, (1e100, 0.0, 0.0)),
        ((3.0, 2.0, 1.0), (1e160, 0.0, 0.0)),
        ((1e200, 1.0, 1.0), (0.0, 0.0, 0.0)),
    ])
    def test_geometry_unit_norm_coefficients_cannot_carry(self, semiaxes, translation):
        # squaring these lengths as they are overflows or underflows; in units of
        # the longest, the shortest semiaxis still leaves the carried range
        geom = EllipsoidGeometry(np.eye(3), translation, semiaxes)
        with pytest.raises(NotAnEllipsoid, match="range unit-norm coefficients carry"):
            EllipsoidModel.from_geometry(geom)

    @pytest.mark.parametrize("exponent", [-400, 400])
    def test_geometry_far_in_the_double_range_reads_back(self, exponent):
        rot = random_rotation(np.random.default_rng(5))
        semiaxes = np.ldexp([3.0, 2.0, 1.0], exponent)
        center = np.ldexp([1.0, -2.0, 0.5], exponent)
        model = EllipsoidModel.from_geometry(EllipsoidGeometry(rot, -rot @ center, semiaxes))
        assert np.allclose(model.semiaxes, semiaxes, rtol=1e-9, atol=0.0)
        assert np.allclose(model.center, center, rtol=0.0, atol=1e-9 * semiaxes[0])

    def test_any_geometry_reads_back_or_raises_typed(self):
        # Semiaxes from 1e-300 to 1e300 with ratios up to 1e30, any rotation
        # and centre: from_geometry returns a model or raises a CasfitError,
        # never warns, and a model reads back within 64 eps (L / r_min)^2,
        # L = max(r_max, |centre|): semiaxes relative to each, the centre
        # relative to L, and the shape R^T diag(r / r_max)^2 R, which the
        # rotation of (near) equal semiaxes leaves well defined.  Ratios past
        # ~1e6 and lengths past ~1e+-150 raise, so the draws favour the range
        # inside, and at least a third of them must read back (worst margin
        # seen: 0.21 of the bound).
        outcomes = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(log_shortest=st.one_of(st.floats(-150, 120), st.floats(-300, 270)),
               log_ratio=st.one_of(st.floats(0, 6), st.floats(0, 30)), middle=st.floats(0, 1),
               log_offset=st.one_of(st.none(), st.floats(-3, 3)), seed=st.integers(0, 2**32 - 1))
        def reads_back(log_shortest, log_ratio, middle, log_offset, seed):
            rng = np.random.default_rng(seed)
            rot = random_rotation(rng)
            semiaxes = 10.0 ** (log_shortest + log_ratio * np.array([1.0, middle, 0.0]))
            direction = rng.normal(size=3)
            offset = 0.0 if log_offset is None else 10.0 ** log_offset
            center = semiaxes[0] * offset * direction / np.linalg.norm(direction)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = EllipsoidModel.from_geometry(
                        EllipsoidGeometry(rot, -rot @ center, semiaxes)).geometry
                except CasfitError:
                    outcomes.append(None)
                    return
            longest = max(semiaxes[0], float(np.linalg.norm(center)))
            bound = 64 * np.finfo(float).eps * (longest / semiaxes[2]) ** 2
            shape, got_shape = (r.T @ (np.square(axes / semiaxes[0])[:, None] * r)
                                for r, axes in ((rot, semiaxes), (got.rotation, got.semiaxes)))
            margin = max(np.abs(got.semiaxes / semiaxes - 1.0).max(),
                         np.abs(got.center - center).max() / longest,
                         np.abs(got_shape - shape).max()) / bound
            outcomes.append(margin)
            assert margin <= 1.0

        reads_back()
        assert sum(m is not None for m in outcomes) >= len(outcomes) / 3


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

    def test_geometry_that_overflows_is_not_an_ellipsoid(self):
        # a unit-norm q whose semiaxes, ~1e320, do not fit in a double
        q = np.array([1e-160, 1e-160, 1e-160, 0, 0, 0, 0.6, 0.8, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            verdict, _, _, semiaxes = check_ellipsoids(q[None])
            assert verdict[0] == UNBOUNDED and not np.isfinite(semiaxes).all()
            with pytest.raises(NotAnEllipsoid):
                decompose(q)
            with pytest.raises(NotAnEllipsoid):
                EllipsoidModel.from_coeffs(q)
            assert not validate_ellipsoid(q)

    def test_ellipsoid_rows_pass_every_geometry_check(self, rng):
        coeffs = np.stack([random_coeffs(rng) for _ in range(400)]
                          + [geometry_to_coeffs(make_model(rng).geometry) for _ in range(40)])
        verdict, rotation, translation, semiaxes = check_ellipsoids(coeffs)
        assert (verdict == ELLIPSOID).sum() >= 40
        # consensus builds geometries from views of these without copying them
        assert not any(f.flags.writeable for f in (rotation, translation, semiaxes))
        for j in np.flatnonzero(verdict == ELLIPSOID):
            EllipsoidGeometry(rotation[j], translation[j], semiaxes[j])  # raises on a failed check

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), span=st.integers(0, 300), definite=st.booleans())
    def test_wide_ellipsoid_rows_pass_the_geometry_constructor(self, seed, span, definite):
        # check_ellipsoids tests only the semiaxes: eigh's vectors must be
        # orthonormal, with the det sign fixed, and an overflowing translation
        # must show as a non-finite semiaxis, whatever the magnitudes of q
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, (256, 10)) * 10.0 ** rng.integers(-span, span + 1, (256, 10))
        if definite:  # eigenvalue ratios up to 1e11, so that many blocks are ellipsoids
            rot = np.linalg.qr(rng.normal(size=(256, 3, 3)))[0]
            evals = 10.0 ** rng.uniform(-11.0, 0.0, (256, 1, 3))
            block = (rot * evals) @ np.swapaxes(rot, 1, 2)
            block *= 10.0 ** rng.integers(-span, span + 1, (256, 1, 1))
            raw[:, :6] = block[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
        verdict, rotation, translation, semiaxes = check_ellipsoids(
            np.stack([normalize_coeffs(q) for q in raw]))
        if definite and span == 0:
            assert (verdict == ELLIPSOID).sum() >= 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in np.flatnonzero(verdict == ELLIPSOID):
                EllipsoidGeometry(rotation[j], translation[j], semiaxes[j])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), span=st.integers(0, 300))
    def test_a_row_alone_is_its_row_in_the_stack(self, seed, count, span):
        # bitwise, whatever the stack around it: a refit's one-row check is a stack's check
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, (count, 10))
        raw *= 10.0 ** rng.integers(-span, span + 1, (count, 10))
        rot = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
        block = (rot * 10.0 ** rng.uniform(-13.0, 0.0, (count, 1, 3))) @ np.swapaxes(rot, 1, 2)
        definite = rng.random(count) < 0.5  # so that many rows are ellipsoids
        raw[definite, :6] = block[definite][:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
        raw[rng.random((count, 10)) < 0.1] = 0.0
        raw[~raw.any(axis=1), 9] = 1.0
        q = np.stack([normalize_coeffs(row) for row in raw])
        ok = rng.random(count) < 0.8
        stacked = check_ellipsoids(q)
        verdicts, models = _ellipsoids(q, ok)
        assert np.array_equal(verdicts, stacked[0])
        for j in range(count):
            alone = check_ellipsoids(q[j:j + 1])
            for field, field_alone in zip(stacked, alone):
                assert field[j:j + 1].tobytes() == field_alone.tobytes()
            (verdict,), (model,) = _ellipsoids(q[j:j + 1], ok[j])
            assert verdict == verdicts[j] and (model is None) == (models[j] is None)
            if model is not None:
                stacked_fields = (models[j].coeffs, *vars(models[j].geometry).values())
                alone_fields = (model.coeffs, *vars(model.geometry).values())
                assert [f.tobytes() for f in stacked_fields] == [f.tobytes() for f in alone_fields]

    def test_hyperboloid_samples_fail_exactly_when_from_coeffs_raises(self, rng):
        samples = [hyperboloid_sample(rng) if k % 2 else sample_surface(make_model(rng), 9, rng)
                   for k in range(40)]
        # solve_rows takes the rows of conditioned samples; raw ones off the
        # origin can fail its eigengap test
        coeffs, ok = solve_rows(np.stack([design_matrix(condition(sample)[0])
                                          for sample in samples]))
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

    def test_nonfinite_fields_rejected(self):
        for trans, axes in (([0.0, np.nan, 0.0], [1.0, 1.0, 1.0]),
                            ([0.0, 0.0, 0.0], [1.0, np.inf, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                EllipsoidGeometry(np.eye(3), trans, axes)


class TestSurfaceMembership:
    def test_sampled_points_satisfy_quadric(self, rng):
        # every sampler output must lie on the zero set of the coefficients
        for _ in range(20):
            model = make_model(rng)
            pts = sample_surface(model, 500, rng)
            residual = np.abs(design_matrix(pts) @ model.coeffs)
            assert residual.max() < 1e-10


class TestModelRoutes:
    def test_no_unchecked_public_constructor(self, rng):
        # a model pairs q with its own decomposition, so neither part can be
        # set alone, nor both together
        model = make_model(rng)
        with pytest.raises(TypeError):
            EllipsoidModel(model.coeffs, model.geometry)
        with pytest.raises(TypeError):
            dataclasses.replace(model, coeffs=-model.coeffs)

    def test_every_route_returns_read_only_fields(self, rng):
        geom = make_model(rng).geometry
        truth = EllipsoidModel.from_geometry(geom)
        points = sample_surface(truth, 200, rng) + 0.01 * rng.normal(size=(200, 3))
        cfg = FitConfig(epsilon=0.03, seed=1)
        for model in (EllipsoidModel.from_coeffs(truth.coeffs.copy()), truth,
                      EllipsoidModel.from_json_dict(truth.to_json_dict()), random_ellipsoid(rng),
                      fit(points, cfg).model, local_optimize(truth, points, cfg)[0]):
            g = model.geometry
            for field in (model.coeffs, g.rotation, g.translation, g.semiaxes):
                assert not field.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    field[0] = 1.0

    def test_copies_are_read_only_and_bitwise_equal(self, rng):
        model = make_model(rng)
        fields = (model.coeffs, *vars(model.geometry).values())
        for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
            assert type(copied) is EllipsoidModel
            copied_fields = (copied.coeffs, *vars(copied.geometry).values())
            for field, original in zip(copied_fields, fields):
                assert field.tobytes() == original.tobytes()
                assert not field.flags.writeable


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

    def test_q_must_be_a_list_of_ten_numbers(self, rng):
        q = make_model(rng).to_json_dict()["q"]
        sphere = [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]  # JSON ints read as the floats they name
        floats = [float(v) for v in sphere]
        assert np.array_equal(EllipsoidModel.from_json_dict({"q": sphere}).coeffs,
                              EllipsoidModel.from_json_dict({"q": floats}).coeffs)
        for bad in ([str(v) for v in q], [True] * 3 + [False] * 6 + [True],
                    [[1, 1, 1, 0, 0], [0, 0, 0, 0, 1]], q[:9], q + [0.0], tuple(q),
                    {"a": 1}, "q", 1.0, None, q[:9] + [None], [10 ** 400] + q[1:]):
            with pytest.raises(ParseError, match="bad model field 'q'"):
                EllipsoidModel.from_json_dict({"q": bad})
