import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from casfit import (ALGEBRAIC, AXIAL, SAMPSON, CasfitError, DatasetSpec, EllipsoidGeometry,
                    EllipsoidModel, FitConfig, NoModelFound, NotAnEllipsoid,
                    TooFewPoints, axial_distance, cas, classify,
                    evaluate_metric, fit, lls_fit, local_optimize, make_instance,
                    model_score, point_energy, random_rotation,
                    required_iterations, sample_minimal, sample_surface, wls_fit)
from casfit import consensus, distances
from casfit.consensus import CHUNK, FLAT_TOL, MAX_CHUNK
from casfit.leastsq import condition, solve_rows
from casfit.quadric import (ELLIPSOID, check_ellipsoids, design_matrix, geometry_to_coeffs,
                            normalize_coeffs, normalize_rows)

from conftest import make_model, unit_sphere
from reference_loop import reference_fit


def contaminated(rng, fraction=0.4, count=400):
    spec = DatasetSpec(kind="outlier", point_count=count, sigma_rel=0.05,
                       outlier_fraction=fraction, seed=0)
    return make_instance(spec, rng)


class TestEnergy:
    def test_closed_forms(self):
        assert point_energy(0.0, 0.5) == 1.0
        assert abs(point_energy(1.0, 1.0) - math.exp(-0.5)) < 1e-15
        assert abs(point_energy(3.0, 1.0) - math.exp(-4.5)) < 1e-15
        assert point_energy(np.inf, 2.0) == 0.0

    def test_vectorized(self):
        d = np.array([0.0, 1.0, np.inf])
        e = point_energy(d, 1.0)
        assert e.shape == (3,)
        assert e[0] == 1.0 and e[2] == 0.0

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            point_energy(1.0, 0.0)

    @pytest.mark.parametrize("exponent", [-700, 700])
    def test_power_of_two_scaling_is_exact(self, rng, exponent):
        # eps^2 under- or overflows here unless d and eps are scaled first
        d = np.concatenate([rng.uniform(0.0, 6.0, 200), [0.0, 1e-300, 1e90, np.inf]])
        assert np.array_equal(point_energy(np.ldexp(d, exponent), math.ldexp(1.0, exponent)),
                              point_energy(d, 1.0))

    def test_tiny_epsilon_fits_without_warning(self):
        # eps^2 underflows unless scaled; only points whose distance rounds
        # to 0 score, 1 each, so the fit spends its whole budget
        inst = contaminated(np.random.default_rng(0), fraction=0.3, count=500)
        report = fit(inst.points, FitConfig(epsilon=1e-200, seed=1, max_iterations=2000))
        assert report.iterations == 2000
        assert report.score == report.inlier_mask.sum() < 50

    def test_score_matches_two_pass_recomputation(self, rng):
        m = make_model(rng)
        pts = np.vstack([sample_surface(m, 150, rng),
                         m.center + rng.uniform(-9, 9, size=(50, 3))])
        eps = 0.4
        got = model_score(m, pts, eps)
        d = np.asarray(evaluate_metric(cas(0.5), pts, m))
        want = math.fsum(math.exp(-0.5 * (x / eps) ** 2) if math.isfinite(x) else 0.0
                         for x in d)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert 150.0 * 0.9 < got < len(pts)


class TestRequiredIterations:
    def test_reference_values(self):
        assert required_iterations(0.5, 0.95, 9) == 1533
        assert required_iterations(0.9, 0.95, 9) == 7

    def test_formula_agreement(self):
        for v in (0.3, 0.45, 0.6, 0.8, 0.95):
            raw = math.log(1.0 - 0.95) / math.log1p(-(v ** 9))
            want = min(100_000, max(1, math.ceil(raw)))
            assert required_iterations(v, 0.95, 9) == want

    def test_degenerate_ratios(self):
        assert required_iterations(1.0, 0.95, 9) == 1
        assert required_iterations(0.0, 0.95, 9) == 100_000
        assert required_iterations(0.01, 0.95, 9) == 100_000

    def test_clamps(self):
        assert required_iterations(0.9, 0.95, 9, min_iterations=200) == 200
        assert required_iterations(0.5, 0.95, 9, max_iterations=500) == 500
        assert required_iterations(1.0, 0.95, 9, min_iterations=25) == 25

    def test_monotone_in_ratio(self):
        vals = [required_iterations(v, 0.95, 9) for v in np.linspace(0.2, 1.0, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_more_confidence_needs_more_draws(self):
        assert required_iterations(0.5, 0.999, 9) > required_iterations(0.5, 0.9, 9)

    def test_bad_arguments_rejected(self):
        for v, mu, n, message in ((1.5, 0.95, 9, "inlier ratio"), (0.5, 1.0, 9, "mu"),
                                  (0.5, 0.95, 0, "sample size")):
            with pytest.raises(ValueError, match=message):
                required_iterations(v, mu, n)


class TestClassify:
    def test_strict_boundary(self):
        m = unit_sphere()
        p = np.array([[2.0, 0.0, 0.0]])
        d = float(axial_distance(p, m)[0])
        assert not classify(p, m, d, metric=AXIAL)[0]
        assert classify(p, m, np.nextafter(d, np.inf), metric=AXIAL)[0]

    def test_surface_points_are_inliers(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 100, rng)
        assert classify(pts, m, 1e-6).all()

    def test_center_is_outlier_under_sampson(self, rng):
        m = make_model(rng)
        assert not classify(m.center[None, :], m, 1e9, metric=SAMPSON)[0]


def sequential_selection(u, point_count):
    """sample_minimal's index mapping, one row and one index at a time."""
    rows = []
    for row in u:
        free = list(range(point_count))
        rows.append([free.pop(int(x * (point_count - j))) for j, x in enumerate(row)])
    return np.array(rows)


class TestSampleMinimal:
    def test_distinct_and_in_range(self, rng):
        for _ in range(50):
            idx = sample_minimal(30, 9, rng)
            assert len(idx) == 9
            assert len(np.unique(idx)) == 9
            assert idx.min() >= 0 and idx.max() < 30
        rows = sample_minimal(30, 9, rng, count=500)
        assert rows.shape == (500, 9)
        assert all(len(np.unique(row)) == 9 for row in rows)
        assert rows.min() >= 0 and rows.max() < 30

    def test_deterministic(self):
        a = sample_minimal(50, 9, np.random.default_rng(7))
        b = sample_minimal(50, 9, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_one_call_equals_one_call_per_row(self):
        rng = np.random.default_rng(7)
        rows = np.stack([sample_minimal(200, 9, rng) for _ in range(37)])
        assert np.array_equal(sample_minimal(200, 9, np.random.default_rng(7), count=37), rows)
        # the chunk boundary does not move the draws
        rng = np.random.default_rng(7)
        parts = [sample_minimal(200, 9, rng, count=c) for c in (5, 1, 31)]
        assert np.array_equal(np.concatenate(parts), rows)

    def test_sequential_selection(self):
        u = np.random.default_rng(3).random((300, 9))
        got = sample_minimal(40, 9, np.random.default_rng(3), count=300)
        assert np.array_equal(got, sequential_selection(u, 40))

    def test_whole_population(self, rng):
        rows = sample_minimal(9, 9, rng, count=200)
        assert np.array_equal(np.sort(rows, axis=1), np.tile(np.arange(9), (200, 1)))
        assert np.array_equal(np.sort(sample_minimal(10, 10, rng)), np.arange(10))

    def test_rejects_undersized_population(self, rng):
        with pytest.raises(TooFewPoints):
            sample_minimal(8, 9, rng)
        with pytest.raises(TooFewPoints):
            sample_minimal(8, 9, rng, count=4)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(123)
        n, k, draws = 100, 9, 20_000
        counts = np.bincount(sample_minimal(n, k, rng, count=draws).ravel(), minlength=n)
        expected = draws * k / n
        sigma = math.sqrt(draws * (k / n) * (1 - k / n))
        assert np.abs(counts - expected).max() < 5 * sigma


class TestLocalOptimize:
    def test_improves_perturbed_model(self):
        # perturb the truth in geometry space so the start is always a
        # valid ellipsoid, just a visibly wrong one
        improved = 0
        trials = 50
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            inst = contaminated(rng, fraction=0.3)
            cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=0)
            geom = inst.truth.geometry
            start = EllipsoidModel.from_geometry(EllipsoidGeometry(
                geom.rotation,
                geom.translation + 0.1 * rng.normal(size=3),
                geom.semiaxes * (1.0 + 0.05 * rng.normal(size=3))))
            result = local_optimize(start, inst.points, cfg)
            assert result is not None
            refined, after, d = result
            metric = cfg.score_metric
            assert after == model_score(refined, inst.points, cfg.epsilon, metric)
            assert np.array_equal(d, evaluate_metric(metric, inst.points, refined))
            if after > model_score(start, inst.points, cfg.epsilon, metric):
                improved += 1
        assert improved >= 0.9 * trials

    def test_one_evaluation_per_model(self, monkeypatch):
        # The cascade, run as fit runs it (conditioned points and their
        # rows), takes the start model's distances from its caller and
        # evaluates each valid refit once, all under the score metric;
        # local_optimize adds one evaluation of the start model and one of
        # the mapped-back winner.
        inst = cloud(0.3, seed=5)
        local, center, scale = condition(inst.points)
        rows = design_matrix(local)[None]
        scene_cfg = FitConfig(epsilon=1.5 * inst.sigma)
        cfg = dataclasses.replace(scene_cfg, epsilon=scene_cfg.epsilon / scale)
        start = consensus._to_scene(inst.truth, -center / scale, 1.0 / scale)
        score_metric = cfg.score_metric
        start_d = evaluate_metric(score_metric, local, start)
        kinds = []
        valid = []

        def counted(kind, points, model):
            kinds.append(kind)
            return evaluate_metric(kind, points, model)

        def models(coeffs, ok):
            found = models_original(coeffs, ok)
            valid.extend(model for model in found if model is not None)
            return found

        models_original = consensus._models
        monkeypatch.setattr(consensus, "evaluate_metric", counted)
        monkeypatch.setattr(consensus, "_models", models)
        for name in ("gaussian_weights", "model_score", "classify"):
            monkeypatch.setattr(consensus, name, None)
        model, _, _ = consensus._refine(start, local, rows, cfg, start_d)
        assert len(valid) == consensus.LO_STEPS
        assert kinds == [score_metric] * len(valid)
        kinds.clear()
        valid.clear()
        refined, _, _ = local_optimize(inst.truth, inst.points, scene_cfg)
        assert len(valid) == consensus.LO_STEPS
        assert kinds == [score_metric] * (len(valid) + 2)
        # it hands the cascade the start model's own distances
        scene = consensus._to_scene(model, center, scale)
        assert np.array_equal(refined.coeffs, scene.coeffs)

    def test_too_few_points(self, rng):
        with pytest.raises(TooFewPoints):
            local_optimize(unit_sphere(), sample_surface(unit_sphere(), 5, rng),
                           FitConfig(epsilon=0.1))

    def test_step_needs_nine_supported_points(self, rng):
        # 8 points on the start model carry weight 1 and 20,000 on a
        # concentric member carry 9e-7 at the widest kernel, below
        # SUPPORT_TOL, and less at every narrower one: each step is skipped
        # although the weighted normal matrix has full rank.
        start = make_model(rng)
        cfg = FitConfig(epsilon=0.01, score_metric=AXIAL)
        widest = consensus.LO_EPS_START * cfg.epsilon
        grow = 3.0 * widest * math.sqrt(-2.0 * math.log(9e-7)) / np.linalg.norm(start.semiaxes)
        center = start.center
        shell = center + (1.0 + grow) * (sample_surface(start, 20_000, rng) - center)
        assert np.allclose(point_energy(axial_distance(shell, start), widest), 9e-7)
        points = np.vstack([sample_surface(start, 8, rng), shell])
        assert local_optimize(start, points, cfg) is None

    def test_translation(self):
        inst = cloud(0.3, seed=5)
        cfg = FitConfig(epsilon=1.5 * inst.sigma)
        offset = np.full(3, 1e3)
        geom = inst.truth.geometry
        moved = EllipsoidModel.from_geometry(EllipsoidGeometry(
            geom.rotation, geom.translation - geom.rotation @ offset, geom.semiaxes))
        want = local_optimize(inst.truth, inst.points, cfg)[0]
        result = local_optimize(moved, inst.points + offset, cfg)
        assert result is not None
        got = result[0]
        assert np.abs(got.semiaxes - want.semiaxes).max() <= 1e-7
        assert np.abs(got.center - offset - want.center).max() <= 1e-7

    @pytest.mark.parametrize("offset", [1e6, 1e7])
    def test_far_from_the_origin(self, offset):
        # one conditioning per call: the cascade runs in the conditioned
        # frame, so moving the cloud and the start model moves the result
        inst = cloud(0.3, seed=3)
        cfg = FitConfig(epsilon=1.5 * inst.sigma)
        shift = offset * np.array([1.0, -0.5, 0.25])
        geom = inst.truth.geometry
        moved = EllipsoidGeometry(geom.rotation, geom.translation - geom.rotation @ shift,
                                  geom.semiaxes)
        want, want_score, _ = local_optimize(inst.truth, inst.points, cfg)
        result = local_optimize(EllipsoidModel(geometry_to_coeffs(moved), moved),
                                inst.points + shift, cfg)
        assert result is not None
        got, score, d = result
        tol = 1e-6 * want.semiaxes.min()
        assert np.abs(got.semiaxes - want.semiaxes).max() <= tol
        assert np.abs(got.center - shift - want.center).max() <= tol
        # the Sampson +inf rule reads the unit frame, so no far point reads +inf
        assert np.isfinite(d).all()
        assert abs(score - want_score) <= 1e-6 * abs(want_score)

    def test_identical_points_yield_none(self):
        # the conditioning scale is 0; nothing is divided by it
        assert local_optimize(unit_sphere(), np.full((20, 3), 2.5), FitConfig(epsilon=0.1)) is None

    def test_far_model_yields_none(self, rng):
        inst = contaminated(rng)
        far = EllipsoidModel.from_coeffs(normalize_coeffs(np.array(
            [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -500.0, -500.0, -500.0, 250_000.0 * 3 - 1.0])))
        cfg = FitConfig(epsilon=0.05 * inst.sigma, seed=0)
        assert local_optimize(far, inst.points, cfg) is None


class TestFit:
    def test_clean_recovery(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 120, rng)
        cfg = FitConfig(epsilon=0.05, min_iterations=5, seed=3)
        report = fit(pts, cfg)
        assert np.abs(report.model.semiaxes - m.semiaxes).max() < 1e-6
        assert np.abs(report.model.center - m.center).max() < 1e-6
        assert report.inlier_ratio == 1.0
        assert report.inlier_mask.all()
        assert abs(report.score - len(pts)) < 1e-6
        assert report.rng_algorithm == "PCG64"
        assert report.wall_time >= 0.0

    def test_deterministic(self, rng):
        inst = contaminated(rng)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, max_iterations=800, seed=11)
        a = fit(inst.points, cfg)
        b = fit(inst.points, cfg)
        assert np.array_equal(a.model.coeffs, b.model.coeffs)
        assert a.score == b.score
        assert a.iterations == b.iterations
        assert a.lo_invocations == b.lo_invocations
        assert np.array_equal(a.inlier_mask, b.inlier_mask)

    def test_planted_outliers_recovered(self):
        ok = 0
        trials = 10
        for t in range(trials):
            rng = np.random.default_rng(400 + t)
            inst = contaminated(rng, fraction=0.4, count=400)
            # 2 sigma keeps ~95% of the noisy inliers below the threshold;
            # tighter epsilons cap recall at the Gaussian tail mass
            cfg = FitConfig(epsilon=2.0 * inst.sigma, max_iterations=2000, seed=t)
            report = fit(inst.points, cfg)
            truth = ~inst.is_outlier
            found = report.inlier_mask
            overlap = (truth & found).sum()
            recall = overlap / truth.sum()
            precision = overlap / max(found.sum(), 1)
            if recall >= 0.9 and precision >= 0.9:
                ok += 1
        assert ok == trials

    def test_progress_monotone_and_bounded(self, rng):
        inst = contaminated(rng)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, max_iterations=500, seed=5)
        scores, requireds = [], []
        report = fit(inst.points, cfg,
                     progress=lambda it, score, req: (scores.append(score),
                                                      requireds.append(req)))
        assert len(scores) == report.iterations
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))
        assert scores[-1] == report.score
        assert report.iterations <= max(cfg.min_iterations, max(requireds))
        assert report.iterations <= cfg.max_iterations

    def test_stops_at_required_budget(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 200, rng)
        cfg = FitConfig(epsilon=0.05, min_iterations=7, max_iterations=10_000, seed=2)
        report = fit(pts, cfg)
        # all-inlier data: the adaptive budget collapses to the minimum
        assert report.iterations == 7

    def test_too_few_points(self):
        cfg = FitConfig(epsilon=0.1)
        with pytest.raises(TooFewPoints):
            fit(np.zeros((5, 3)), cfg)

    def test_no_model_on_degenerate_cloud(self, rng):
        pts = np.zeros((60, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(60, 2))
        cfg = FitConfig(epsilon=0.1, min_iterations=5, max_iterations=20, seed=0)
        with pytest.raises(NoModelFound):
            fit(pts, cfg)

    def test_lambda_endpoint_matches_single_metric(self, rng):
        inst = contaminated(rng, fraction=0.2)
        base = dict(epsilon=1.5 * inst.sigma, max_iterations=400, seed=9,
                    local_opt=False)
        by_blend = fit(inst.points, FitConfig(score_metric=cas(0.0), **base))
        by_name = fit(inst.points, FitConfig(score_metric=SAMPSON, **base))
        assert np.array_equal(by_blend.model.coeffs, by_name.model.coeffs)
        assert by_blend.score == by_name.score
        assert by_blend.iterations == by_name.iterations

    def test_labels_and_score_from_one_evaluation(self, monkeypatch):
        # fit neither rescores nor reclassifies: its score and labels are
        # those of the returned model's distances, evaluated in the
        # conditioned frame, so they agree with the scene frame to rounding
        inst = cloud(0.3, seed=8)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1)
        for name in ("gaussian_weights", "model_score", "classify"):
            monkeypatch.setattr(consensus, name, None)
        report = fit(inst.points, cfg)
        monkeypatch.undo()
        metric = cfg.score_metric
        want = model_score(report.model, inst.points, cfg.epsilon, metric)
        assert abs(report.score - want) <= 1e-12 * abs(want)
        d = np.asarray(evaluate_metric(metric, inst.points, report.model))
        flipped = report.inlier_mask != classify(inst.points, report.model, cfg.epsilon, metric)
        assert np.all(np.abs(d[flipped] - cfg.epsilon) <= 1e-9 * cfg.epsilon)

    def test_refits_start_from_the_candidate_distances(self, monkeypatch):
        inst = cloud(0.3, seed=8)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1)
        metric = cfg.score_metric
        passed = []
        refine = consensus._refine

        def spy(model, points, rows, local_cfg, distances=None):
            passed.append(np.array_equal(distances, evaluate_metric(metric, points, model)))
            return refine(model, points, rows, local_cfg, distances)

        monkeypatch.setattr(consensus, "_refine", spy)
        report = fit(inst.points, cfg)
        assert len(passed) == report.lo_invocations >= 1
        assert all(passed)

    def test_builds_the_cloud_design_once_per_fit_and_per_refit_cascade(self, monkeypatch):
        # no metric reads design rows, only the refit solves do: fit builds
        # the conditioned cloud's rows once for all of its refit cascades
        # when local optimization is on, whatever the metrics, and not at
        # all when it is off; a lone local_optimize builds them once
        assert not hasattr(distances, "design_matrix")
        inst = cloud(0.3, seed=8)
        n = len(inst.points)
        built = []

        def counting(points):
            rows = design_matrix(points)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(consensus, "design_matrix", counting)
        for metric in (cas(), ALGEBRAIC):
            for local_opt in (True, False):
                cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1, score_metric=metric,
                                local_opt=local_opt)
                built.clear()
                report = fit(inst.points, cfg)
                assert (report.lo_invocations >= 1) == local_opt
                assert built.count(n) == local_opt
            built.clear()
            assert local_optimize(inst.truth, inst.points, cfg) is not None
            assert built.count(n) == 1

    def test_local_opt_counts(self, rng):
        inst = contaminated(rng)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, max_iterations=300, seed=4)
        report = fit(inst.points, cfg)
        assert report.lo_invocations >= 1
        off = fit(inst.points, FitConfig(epsilon=1.5 * inst.sigma,
                                         max_iterations=300, seed=4,
                                         local_opt=False))
        assert off.lo_invocations == 0


def cloud(fraction, seed, count=500, sigma_rel=0.25):
    rng = np.random.default_rng(seed)
    spec = DatasetSpec(kind="outlier", point_count=count, sigma_rel=sigma_rel,
                       outlier_fraction=fraction, seed=seed)
    return make_instance(spec, rng)


def fit_both(points, cfg):
    """Run the chunked fit and the sequential reference; assert they agree."""
    calls, ref_calls = [], []
    got = fit(points, cfg, progress=lambda *args: calls.append(args))
    want = reference_fit(points, cfg, progress=lambda *args: ref_calls.append(args))
    assert got.iterations == want.iterations
    assert got.lo_invocations == want.lo_invocations
    assert [(it, req) for it, _, req in calls] == [(it, req) for it, _, req in ref_calls]
    for (_, score, _), (_, ref_score, _) in zip(calls, ref_calls):
        assert score == ref_score or abs(score - ref_score) <= 1e-12 * abs(ref_score)
    assert np.abs(got.model.coeffs - want.model.coeffs).max() <= 1e-12
    assert abs(got.score - want.score) <= 1e-12 * abs(want.score)
    d = np.asarray(evaluate_metric(cfg.score_metric, points, want.model))
    flipped = got.inlier_mask != want.inlier_mask
    assert np.all(np.abs(d[flipped] - cfg.epsilon) <= 1e-9 * cfg.epsilon)
    assert got.inlier_ratio == float(got.inlier_mask.mean())
    return got, ref_calls


class TestChunkedEquivalence:
    """The chunked loop against the sequential one it replaced (reference_loop.py)."""

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("local_opt", [True, False])
    def test_contaminated_clouds(self, fraction, local_opt):
        inst = cloud(fraction, seed=int(10 * fraction) + 31)
        for seed in (0, 1):
            fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=seed,
                                            local_opt=local_opt))

    def test_cap_not_a_multiple_of_chunk(self):
        inst = cloud(0.5, seed=7)
        cap = 2 * CHUNK + 22
        report, _ = fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=3,
                                                    max_iterations=cap))
        assert report.iterations == cap

    def test_min_iterations_below_chunk(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 200, rng)
        report, _ = fit_both(pts, FitConfig(epsilon=0.05, min_iterations=7,
                                            max_iterations=10_000, seed=2))
        assert report.iterations == 7 < CHUNK

    def test_budget_drops_inside_a_chunk(self):
        inst = cloud(0.3, seed=12)
        report, calls = fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=4))
        drops = [it for (it, _, req), (_, _, prev) in zip(calls[1:], calls) if req < prev]
        assert any(it % CHUNK for it in drops)
        assert report.iterations % CHUNK


    @pytest.mark.parametrize("fraction", [0.3, 0.5])
    def test_chunk_of_one_is_bitwise_equal(self, monkeypatch, fraction):
        inst = cloud(fraction, seed=int(10 * fraction) + 51)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=6)
        want = fit_recorded(inst.points, cfg)
        monkeypatch.setattr(consensus, "CHUNK", 1)
        monkeypatch.setattr(consensus, "MAX_CHUNK", 1)
        assert_bitwise_equal(fit_recorded(inst.points, cfg), want)

    def test_chunks_grow(self, monkeypatch):
        inst = cloud(0.5, seed=56)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=6)
        draw, sizes = consensus.sample_minimal, []

        def spy(point_count, sample_size, rng, count=None):
            sizes.append(count)
            return draw(point_count, sample_size, rng, count)

        monkeypatch.setattr(consensus, "sample_minimal", spy)
        want = fit_recorded(inst.points, cfg)
        iterations = want[0].iterations
        assert iterations > 4 * CHUNK
        # CHUNK samples at first, then as many as have run, up to MAX_CHUNK
        done, schedule = 0, []
        for size in sizes[:-1]:
            schedule.append(min(max(done, CHUNK), MAX_CHUNK))
            done += size
        assert sizes[:-1] == schedule and len(set(sizes)) >= 3
        assert 0 < iterations - done <= sizes[-1]
        assert len(sizes) < iterations / CHUNK
        sizes.clear()
        monkeypatch.setattr(consensus, "CHUNK", 1)
        monkeypatch.setattr(consensus, "MAX_CHUNK", 1)
        assert_bitwise_equal(fit_recorded(inst.points, cfg), want)
        assert sizes == [1] * iterations


def fit_recorded(points, cfg):
    """``fit`` and the arguments of every progress call it made."""
    calls = []
    return fit(points, cfg, progress=lambda *args: calls.append(args)), calls


def assert_bitwise_equal(got_run, want_run):
    (got, got_calls), (want, want_calls) = got_run, want_run
    assert got.model.coeffs.tobytes() == want.model.coeffs.tobytes()
    assert got.model.semiaxes.tobytes() == want.model.semiaxes.tobytes()
    assert got.score == want.score
    assert np.array_equal(got.inlier_mask, want.inlier_mask)
    assert (got.iterations, got.lo_invocations) == (want.iterations, want.lo_invocations)
    assert got_calls == want_calls


def exact_candidates(local, n, k, rng):
    """Every row of one draw through solve_rows and check_ellipsoids, unscreened."""
    idx = sample_minimal(len(local), n, rng, count=k)
    coeffs, ok = solve_rows(design_matrix(local[idx.reshape(-1)]).reshape(k, n, 10))
    verdict, rotation, translation, semiaxes = check_ellipsoids(coeffs)
    return [(coeffs[i], rotation[i], translation[i], semiaxes[i])
            if ok[i] and verdict[i] == ELLIPSOID else None for i in range(k)]


def sample_rows(local, count):
    """Design rows, shape (count, 9, 10), of one seeded draw of minimal samples."""
    samples = local[sample_minimal(len(local), 9, np.random.default_rng(5), count=count)]
    return design_matrix(samples.reshape(-1, 3)).reshape(count, 9, 10)


def lattice(m=2):
    axis = np.arange(-m, m + 1, dtype=float)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def exact_ellipsoid(q):
    """Whether q, read exactly, is an ellipsoid: with the sign that makes
    trace(A) positive, a11, a11 a22 - a12^2, det A and
    b^T adj(A) b + q10 det A are all positive."""
    a11, a22, a33, a12, a13, a23, b1, b2, b3, c = (Fraction(float(v)) for v in q)
    trace = a11 + a22 + a33
    if trace == 0:
        return False
    if trace < 0:
        a11, a22, a33, a12, a13, a23, b1, b2, b3, c = (
            -v for v in (a11, a22, a33, a12, a13, a23, b1, b2, b3, c))
    c11, c22, c33 = a22 * a33 - a23 * a23, a11 * a33 - a13 * a13, a11 * a22 - a12 * a12
    c12, c13, c23 = a13 * a23 - a12 * a33, a12 * a23 - a13 * a22, a12 * a13 - a11 * a23
    det = a11 * c11 + a12 * c12 + a13 * c13
    bounded = (c11 * b1 * b1 + c22 * b2 * b2 + c33 * b3 * b3
               + 2 * (c12 * b1 * b2 + c13 * b1 * b3 + c23 * b2 * b3) + c * det)
    return a11 > 0 and c33 > 0 and det > 0 and bounded > 0


def coefficients(block, b, q10):
    """q of x^T A x + 2 b.x - q10."""
    return [*block[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]], *b, q10]


def near_boundary_rows(rng):
    """Coefficient rows with each quantity the screen tests at 0, a few ulps
    either side of it and 1e-6 below it, and near-degenerate ellipsoids
    (smallest eigenvalue ~1e-12 of the largest); also a mask of the rows
    1e-6 past the boundary."""
    rows, clear = [], []
    c0 = 2.0 / 3.0  # det [[2, 1, 1], [1, 2, 1], [1, 1, c]] = 3c - 2
    for k in (-4, -1, 0, 1, 4, -1e-6 * 2**52):
        d = k * 2.0**-52
        rows += [[d, 1, 1, 0, 0, 0, 0, 0, 0, 1],  # a11
                 [1, 1, 1, np.sqrt(1 - d), 0, 0, 0, 0, 0, 1],  # 2x2 minor
                 [2, 2, c0 + d / 4, 1, 1, 1, 0, 0, 0, 1],  # det A
                 [1, 1, 1, 0, 0, 0, 0.75, 0, 0, -0.5625 + d / 2]]  # bounded term
        clear += [k < -1e3] * 4
    # generic blocks: det A and the bounded term swept through 0 ulp by ulp,
    # where rounding alone can flip their computed sign
    for _ in range(20):
        rot = random_rotation(rng)
        block = rot.T @ np.diag(rng.uniform(0.2, 2.0, 3)) @ rot
        b = rng.normal(size=3)
        q10 = -float(b @ np.linalg.solve(block, b))  # b^T A^-1 b + q10 = 0
        flat = block.copy()  # a33 with det = 0
        flat[2, 2] = (block[0, 0] * block[1, 2] ** 2 + block[1, 1] * block[0, 2] ** 2
                      - 2 * block[0, 1] * block[0, 2] * block[1, 2]) / (
                          block[0, 0] * block[1, 1] - block[0, 1] ** 2)
        a33 = flat[2, 2]
        for k in range(-6, 7):
            rows.append(coefficients(block, b, q10 + k * np.spacing(q10)))
            flat[2, 2] = a33 + k * np.spacing(a33)
            rows.append(coefficients(flat, np.zeros(3), 1.0))
            clear += [False, False]
    for ratio in (1e-12 * (1 - 1e-3), 1e-12, 1e-12 * (1 + 1e-6), 1e-12 * (1 + 1e-3)):
        rot = random_rotation(rng)
        block = rot.T @ np.diag([1.0, 0.5, ratio]) @ rot
        rows.append(coefficients(block, 1e-3 * rng.normal(size=3), 1.0))
        clear.append(False)
    return np.array(rows), np.array(clear)


class TestScreen:
    """The 9x9 screen in ``_candidates`` drops rows and changes no candidate."""

    @staticmethod
    def same_candidates(points, chunks=8):
        """Assert ``_candidates`` yields the exact path's candidates; count them."""
        local = condition(points)[0]
        got_rng = np.random.Generator(np.random.PCG64(5))
        want_rng = np.random.Generator(np.random.PCG64(5))
        found = 0
        for _ in range(chunks):
            got = list(consensus._candidates(local, CHUNK, got_rng))
            want = exact_candidates(local, 9, CHUNK, want_rng)
            assert [g is None for g in got] == [w is None for w in want]
            for model, fields in zip(got, want):
                if model is not None:
                    geom = model.geometry
                    for value, field in zip((model.coeffs, geom.rotation, geom.translation,
                                             geom.semiaxes), fields):
                        assert value.tobytes() == field.tobytes()
                    found += 1
        return found

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_contaminated_clouds(self, fraction):
        inst = cloud(fraction, seed=int(10 * fraction) + 61)
        assert self.same_candidates(inst.points) > 0
        # the screen does drop rows: most samples of a noisy cloud are no ellipsoid
        assert consensus._screen(sample_rows(condition(inst.points)[0], 512)).mean() < 0.5

    def test_singular_blocks_take_the_exact_path(self):
        points = lattice()
        rows = sample_rows(condition(points)[0], CHUNK)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(rows[:, :, :9], np.ones((CHUNK, 9, 1)))
        assert consensus._screen(rows).all()
        self.same_candidates(points)

    def test_rows_that_overflow_are_kept(self, monkeypatch):
        rows = sample_rows(condition(cloud(0.5, seed=61).points)[0], CHUNK)
        solve = np.linalg.solve

        def overflowing(a, b):
            x = solve(a, b)
            x[::2, 0] = np.inf
            return x

        monkeypatch.setattr(np.linalg, "solve", overflowing)
        keep = consensus._screen(rows)
        assert keep[::2].all() and not keep[1::2].all()

    def test_rows_near_the_boundary_are_kept(self, rng):
        rows, clear = near_boundary_rows(rng)
        rows = np.concatenate([rows, -rows])  # negative trace
        clear = np.concatenate([clear, clear])
        exact = np.array([exact_ellipsoid(q) for q in rows])
        accepted = check_ellipsoids(normalize_rows(rows))[0] == ELLIPSOID
        assert 0 < accepted.sum() < exact.sum() and not exact[clear].any()
        # powers of two change no sign, but unscaled they would overflow or underflow
        for scale in (1.0, 2.0**600, 2.0**-600):
            kept = consensus._may_be_ellipsoids(scale * rows.T)
            assert kept[exact].all() and kept[accepted].all()
            assert exact.sum() < kept.sum()
            # the slack is small: rows 1e-6 past the boundary are dropped
            assert not kept[clear].any()

    def test_underflow_drops_no_ellipsoid(self):
        # found by search: an ellipsoid whose minors underflow once it is
        # scaled, so that rounding alone makes one of them negative
        q = np.array([float.fromhex(h) for h in (
            "0x1.5245b44038036p-359", "0x1.0dd4d2b23b12cp-358", "0x1.56a082b344a40p-357",
            "-0x1.6e7c34dbd8bc3p-361", "0x1.d04abcd1fdc8cp-362", "-0x1.a6513951bba40p-358",
            "-0x1.7f19198ac45a3p-176", "0x1.c15c47d1e4591p-177", "-0x1.d2089527718d1p-178",
            "0x1.0000000000000p+0")])
        assert exact_ellipsoid(q)
        assert consensus._may_be_ellipsoids(q[:, None].copy()).all()

    def test_seeded_rows_keep_every_accepted_row(self):
        clouds = [cloud(f, seed=71 + i).points for i, f in enumerate((0.0, 0.3, 0.5))]
        clouds.append(cloud(0.05, seed=74, count=10_000, sigma_rel=0.05).points)
        total = kept = accepted = 0
        for c, points in enumerate(clouds):
            local = condition(points)[0]
            rng = np.random.default_rng(c)
            for _ in range(7):
                idx = sample_minimal(len(local), 9, rng, count=4096)
                rows = design_matrix(local[idx.reshape(-1)]).reshape(-1, 9, 10)
                keep = consensus._screen(rows)
                coeffs, ok = solve_rows(rows)
                valid = ok & (check_ellipsoids(coeffs)[0] == ELLIPSOID)
                assert not (valid & ~keep).any()
                total += len(rows)
                kept, accepted = kept + keep.sum(), accepted + valid.sum()
        assert total >= 100_000
        assert 0 < accepted <= kept < total / 4

    @pytest.mark.parametrize("shape", [(CHUNK, 9, 3), (CHUNK, 10, 10), (9, 10)])
    def test_rows_of_another_shape_are_refused(self, shape):
        # a stack of points instead of design rows must not switch the screen off
        with pytest.raises(ValueError, match="design rows"):
            consensus._screen(np.random.default_rng(3).normal(size=shape))


class TestDegenerateInput:
    """Clouds that cannot carry an ellipsoid fail before any sample is drawn."""

    @pytest.mark.parametrize("shape", ["planar", "collinear", "identical"])
    def test_fails_fast_at_the_default_budget(self, rng, shape):
        offset = np.array([3.0, -2.0, 1e4])
        if shape == "planar":
            pts = np.zeros((500, 3))
            pts[:, :2] = rng.uniform(-5, 5, size=(500, 2))
            pts = pts @ random_rotation(rng).T
        elif shape == "collinear":
            pts = np.outer(rng.uniform(-5, 5, 500), [1.0, 2.0, 3.0])
        else:
            pts = np.zeros((500, 3))
        # the message comes from the up-front check, not the exhausted budget
        with pytest.raises(NoModelFound, match="coplanar, collinear or identical"):
            fit(pts + offset, FitConfig(epsilon=0.1))

    def test_just_thicker_than_the_threshold_runs_the_loop(self, rng):
        pts = np.zeros((500, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(500, 2))
        pts[:, 2] = 4e-10 * rng.choice([-1.0, 1.0], 500)
        local = condition(pts)[0]
        spread = np.linalg.eigvalsh(local.T @ local)
        assert FLAT_TOL < spread[0] / spread[-1] < 10 * FLAT_TOL
        with pytest.raises(NoModelFound, match="no valid ellipsoid in 64 iterations"):
            fit(pts, FitConfig(epsilon=0.1, max_iterations=64))


class TestInvariance:
    """One seeded fit of one cloud, moved by similarity transforms.

    The loop runs in the cloud's conditioned frame, so every decision is the
    same up to rounding: iteration and refinement counts match, labels match
    except for points within rounding of the threshold, and the geometry
    maps along with the points.  The weighted refit is equivariant only
    under rotations that permute the axes (its unit-norm constraint counts
    each off-diagonal coefficient once), so a general rotation is checked
    with refinement off.
    """

    @pytest.mark.parametrize("kind, value, local_opt", [
        ("translate", 1e5, True), ("translate", 1e7, True),
        ("scale", 1e-3, True), ("scale", 1e3, True),
        ("rotate", "axes", True), ("rotate", "general", False)])
    def test_same_fit_after_transform(self, kind, value, local_opt):
        inst = cloud(0.3, seed=3)
        points = inst.points
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=0, max_iterations=20_000,
                        local_opt=local_opt)
        want = fit(points, cfg)
        rot, shift, factor = np.eye(3), np.zeros(3), 1.0
        if kind == "translate":
            shift = np.array([value, -0.5 * value, 0.25 * value])
        elif kind == "scale":
            factor = value
        elif value == "axes":
            rot = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        else:
            rot = random_rotation(np.random.default_rng(17))
        got = fit(factor * points @ rot.T + shift,
                  dataclasses.replace(cfg, epsilon=factor * cfg.epsilon))
        assert got.iterations == want.iterations
        assert got.lo_invocations == want.lo_invocations
        d = np.asarray(evaluate_metric(cfg.score_metric, points, want.model))
        flipped = got.inlier_mask != want.inlier_mask
        assert np.all(np.abs(d[flipped] - cfg.epsilon) <= 1e-9 * cfg.epsilon)
        size = factor * want.model.semiaxes
        assert np.all(np.abs(got.model.semiaxes - size) <= 1e-6 * size)
        # relative to the ellipsoid's size, not to the offset
        center = factor * rot @ want.model.center + shift
        assert np.abs(got.model.center - center).max() <= 1e-6 * size.min()


class TestMagnitudes:
    """One clean cloud, scaled with its center: the fit either returns
    coefficients that read back to its geometry, or says it cannot."""

    @staticmethod
    def scaled_fit(scale):
        truth = EllipsoidModel.from_geometry(EllipsoidGeometry(
            random_rotation(np.random.default_rng(4)), [1.0, -2.0, 0.5], [3.0, 2.0, 1.0]))
        points = sample_surface(truth, 50, np.random.default_rng(0))
        return fit(scale * points, FitConfig(epsilon=0.01 * scale, seed=0))

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e150])
    def test_large_models_read_back(self, scale):
        report = self.scaled_fit(scale)
        back = EllipsoidModel.from_json_dict(report.model.to_json_dict())
        size = report.model.semiaxes
        assert np.all(np.abs(back.semiaxes - size) <= 1e-12 * size)

    def test_every_decade_fits_or_raises_a_typed_error(self):
        outcomes = {}
        for k in range(-300, 301):
            try:
                report = self.scaled_fit(10.0 ** k)
            except CasfitError as exc:
                assert "coplanar" not in str(exc)
                outcomes[k] = "raised"
                continue
            back = EllipsoidModel.from_coeffs(report.model.coeffs)
            size = report.model.semiaxes
            assert np.all(np.abs(back.semiaxes - size) <= 1e-6 * size), k
            assert np.all(np.abs(back.center - report.model.center) <= 1e-6 * size.min()), k
            outcomes[k] = "fitted"
        # the range README states, 2^-500 to 2^500 for semiaxes and center
        assert all(outcomes[k] == "fitted" for k in range(-150, 150))
        assert outcomes[-152] == outcomes[151] == "raised"

    def test_coordinate_sums_past_the_double_range(self):
        # finite coordinates whose sum overflows: each entry point names the
        # magnitude instead of failing its eigen-solve, reading the cloud as
        # non-finite, or fitting on an underflowed threshold
        points = np.random.default_rng(0).uniform(1e306, 2e306, (500, 3))
        cfg = FitConfig(epsilon=1e304, seed=0)
        for call in (lambda: fit(points, cfg),
                     lambda: local_optimize(unit_sphere(), points, cfg),
                     lambda: lls_fit(points),
                     lambda: wls_fit(points, np.ones(len(points)))):
            with pytest.raises(NotAnEllipsoid, match="e\\+306"):
                call()


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                FitConfig(epsilon=bad)
        for field in ("min_iterations", "max_iterations", "seed"):
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: 60.5})
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: True})
        assert FitConfig(epsilon=1.0, seed=np.uint32(7)).seed == 7
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, min_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, max_iterations=10, min_iterations=20)
        # the blend ratio is part of the metric kinds, minimal samples
        # always have MIN_POINTS points, the score metric also weights the
        # refits, and the confidence target and refit schedule are constants
        for field, value in (("lam", 0.25), ("sample_size", 10), ("weight_metric", SAMPSON),
                             ("mu", 0.95), ("lo_steps", 5)):
            with pytest.raises(TypeError, match=field):
                FitConfig(epsilon=1.0, **{field: value})

    def test_local_opt_must_be_a_bool(self):
        # its truth value would decide, so "false" would run the refits
        assert FitConfig(epsilon=1.0, local_opt=False).local_opt is False
        for bad in ("false", 0, 1, None):
            with pytest.raises(ValueError, match="local_opt"):
                FitConfig(epsilon=1.0, local_opt=bad)

    def test_metric_defaults(self):
        assert FitConfig(epsilon=1.0).score_metric == cas()
        # a kind, not None or its name, or the loop would fail deep inside
        for bad in (None, "cas:0.5"):
            with pytest.raises(ValueError, match="score_metric"):
                FitConfig(epsilon=1.0, score_metric=bad)
