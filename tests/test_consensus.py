import math

import numpy as np
import pytest

from casfit import (AXIAL, SAMPSON, DatasetSpec, EllipsoidGeometry,
                    EllipsoidModel, FitConfig, MetricKind, NoModelFound,
                    TooFewPoints, axial_distance, cas, classify,
                    evaluate_metric, fit, local_optimize, make_instance,
                    model_score, point_energy, required_iterations,
                    sample_minimal, sample_surface)
from casfit import consensus
from casfit.consensus import CHUNK
from casfit.quadric import normalize_coeffs

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


class TestSampleMinimal:
    def test_distinct_and_in_range(self, rng):
        for _ in range(50):
            idx = sample_minimal(30, 9, rng)
            assert len(idx) == 9
            assert len(np.unique(idx)) == 9
            assert idx.min() >= 0 and idx.max() < 30

    def test_deterministic(self):
        a = sample_minimal(50, 9, np.random.default_rng(7))
        b = sample_minimal(50, 9, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_undersized_population(self, rng):
        with pytest.raises(TooFewPoints):
            sample_minimal(8, 9, rng)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(123)
        n, k, draws = 100, 9, 20_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_minimal(n, k, rng)] += 1
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
            metric = cfg.resolved_score_metric()
            assert after == model_score(refined, inst.points, cfg.epsilon, metric)
            assert np.array_equal(d, evaluate_metric(metric, inst.points, refined))
            if after > model_score(start, inst.points, cfg.epsilon, metric):
                improved += 1
        assert improved >= 0.9 * trials

    @pytest.mark.parametrize("weight_metric", [None, SAMPSON])
    def test_one_evaluation_per_model(self, monkeypatch, weight_metric):
        # The start model is evaluated under the weight metric once; each
        # valid refit once under the score metric, and once more under the
        # weight metric only when the two differ and a later step needs it.
        inst = cloud(0.3, seed=5)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, weight_metric=weight_metric)
        start = inst.truth
        kinds = []
        valid = []

        def counted(kind, points, model):
            kinds.append(kind)
            return evaluate_metric(kind, points, model)

        def from_coeffs(q):
            model = from_coeffs_original(q)
            valid.append(model)
            return model

        from_coeffs_original = EllipsoidModel.from_coeffs
        monkeypatch.setattr(consensus, "evaluate_metric", counted)
        monkeypatch.setattr(consensus.EllipsoidModel, "from_coeffs", from_coeffs)
        for name in ("gaussian_weights", "model_score", "classify"):
            monkeypatch.setattr(consensus, name, None)
        assert local_optimize(start, inst.points, cfg) is not None
        assert len(valid) == cfg.lo_steps
        score_metric = cfg.resolved_score_metric()
        if weight_metric is None:
            assert kinds == [score_metric] * (1 + len(valid))
        else:
            assert kinds.count(score_metric) == kinds.count(weight_metric) == len(valid)

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
        # those of the returned model's distances
        inst = cloud(0.3, seed=8)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1)
        for name in ("gaussian_weights", "model_score", "classify"):
            monkeypatch.setattr(consensus, name, None)
        report = fit(inst.points, cfg)
        monkeypatch.undo()
        metric = cfg.resolved_score_metric()
        assert report.score == model_score(report.model, inst.points, cfg.epsilon, metric)
        assert np.array_equal(report.inlier_mask,
                              classify(inst.points, report.model, cfg.epsilon, metric))

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
    d = np.asarray(evaluate_metric(cfg.resolved_score_metric(), points, want.model))
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

    @pytest.mark.parametrize("fraction", [0.3, 0.5])
    @pytest.mark.parametrize("metrics", [
        dict(weight_metric=SAMPSON),
        dict(score_metric=cas(0.25), weight_metric=MetricKind("axial+orthogonal", 0.5)),
    ])
    def test_weight_metric_differs_from_score_metric(self, fraction, metrics):
        inst = cloud(fraction, seed=int(10 * fraction) + 41)
        report, _ = fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=2,
                                                    **metrics))
        assert report.lo_invocations >= 1

    def test_budget_drops_inside_a_chunk(self):
        inst = cloud(0.3, seed=12)
        report, calls = fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=4))
        drops = [it for (it, _, req), (_, _, prev) in zip(calls[1:], calls) if req < prev]
        assert any(it % CHUNK for it in drops)
        assert report.iterations % CHUNK


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                FitConfig(epsilon=bad)
        for field in ("sample_size", "lo_steps", "min_iterations", "max_iterations", "seed"):
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: 60.5})
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: True})
        assert FitConfig(epsilon=1.0, seed=np.uint32(7)).seed == 7
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, lam=1.5)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, mu=1.0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, sample_size=8)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, lo_steps=0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, min_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(epsilon=1.0, max_iterations=10, min_iterations=20)

    def test_metric_defaults_follow_lam(self):
        cfg = FitConfig(epsilon=1.0, lam=0.25)
        assert cfg.resolved_score_metric() == cas(0.25)
        assert cfg.resolved_weight_metric() == cas(0.25)
        pinned = FitConfig(epsilon=1.0, lam=0.25, score_metric=SAMPSON)
        assert pinned.resolved_score_metric() == SAMPSON
