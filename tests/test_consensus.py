import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casfit import (ALGEBRAIC, AXIAL, SAMPSON, CasfitError, DatasetSpec, EllipsoidGeometry,
                    EllipsoidModel, FitConfig, MetricKind, NoModelFound, NotAnEllipsoid,
                    TooFewPoints, axial_distance, cas, classify,
                    evaluate_metric, fit, gaussian_weights, lls_fit, local_optimize,
                    make_instance, model_score, point_energy, required_iterations,
                    sample_minimal, sample_surface, wls_fit)
from casfit import consensus, distances
from casfit.consensus import CHUNK, FLAT_TOL, MAX_CHUNK
from casfit.leastsq import condition, solve_rows
from casfit.quadric import (DEGENERACY_TOL, DEGENERATE, ELLIPSOID, UNBOUNDED, _definite,
                            check_ellipsoids, design_matrix, geometry_to_coeffs,
                            normalize_coeffs, normalize_rows, quadratic_block)
from casfit.synth import random_rotation

from conftest import axis_aligned, make_model, unit_sphere
from reference_loop import reference_fit, solve_sample


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

    def test_epsilon_must_be_finite(self):
        # at eps = +inf the kernel of a point at +inf read nan, with a warning
        m, pts = unit_sphere(), np.array([[3.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        for bad in (math.inf, math.nan, -1.0):
            for call in (lambda: point_energy(np.inf, bad),
                         lambda: point_energy(np.array([0.0, 1.0, np.inf]), bad),
                         lambda: gaussian_weights(pts, m, bad),
                         lambda: model_score(m, pts, bad)):
                with pytest.raises(ValueError, match="positive and finite"):
                    call()
        assert point_energy(np.inf, np.finfo(float).max) == 0.0

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
        # bounds outside 1 <= min <= max raise FitConfig's error
        bounds = "1 <= min <= max"
        for v, mu, n, clamps, message in ((1.5, 0.95, 9, (), "inlier ratio"),
                                          (0.5, 1.0, 9, (), "mu"),
                                          (0.5, 0.95, 0, (), "sample size"),
                                          (1.0, 0.95, 9, (10, 5), bounds),
                                          (1.0, 0.95, 9, (-3, 100), bounds),
                                          (0.0, 0.95, 9, (1, 0), bounds)):
            with pytest.raises(ValueError, match=message):
                required_iterations(v, mu, n, *clamps)
        assert required_iterations(0.5, 0.95, 9, 5, 5) == 5


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

    @settings(max_examples=300, deadline=None)
    @given(sample_size=st.integers(1, 12), extra=st.integers(0, 5000),
           seed=st.integers(0, 2**32 - 1), count=st.one_of(st.none(), st.integers(0, 70)))
    @example(sample_size=9, extra=0, seed=0, count=0)  # no rows: shape (0, 9)
    @example(sample_size=12, extra=0, seed=1, count=70)  # the whole population
    @example(sample_size=1, extra=4999, seed=2, count=None)
    @example(sample_size=12, extra=4988, seed=3, count=70)
    def test_any_draw_is_the_list_pop_oracle(self, sample_size, extra, seed, count):
        point_count = min(sample_size + extra, 5000)
        u = np.random.default_rng(seed).random((1 if count is None else count, sample_size))
        want = sequential_selection(u, point_count).reshape(u.shape).astype(np.intp)
        got = sample_minimal(point_count, sample_size, np.random.default_rng(seed), count)
        assert got.dtype == np.intp
        assert np.array_equal(got, want[0] if count is None else want)
        assert got.shape == ((sample_size,) if count is None else (count, sample_size))

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
        epsilon = scene_cfg.epsilon / scale
        start = consensus._to_scene(inst.truth, -center / scale, 1.0 / scale)
        score_metric = scene_cfg.score_metric
        start_d = evaluate_metric(score_metric, local, start)
        kinds = []
        valid = []

        def counted(kind, points, model):
            kinds.append(kind)
            return evaluate_metric(kind, points, model)

        def models(coeffs, ok):
            verdict, found = models_original(coeffs, ok)
            valid.extend(model for model in found if model is not None)
            return verdict, found

        models_original = consensus._ellipsoids
        monkeypatch.setattr(consensus, "evaluate_metric", counted)
        monkeypatch.setattr(consensus, "_ellipsoids", models)
        for name in ("gaussian_weights", "model_score", "classify"):
            monkeypatch.setattr(consensus, name, None)
        solved = []
        solve_rows = consensus.solve_rows
        monkeypatch.setattr(consensus, "solve_rows",
                            lambda *args: solved.append(args) or solve_rows(*args))
        model, _, _ = consensus._refine(score_metric, local, rows, epsilon, start_d)
        # every step that ran refitted an ellipsoid here, and each was evaluated once
        assert 1 <= len(valid) == len(solved) <= consensus.LO_STEPS
        assert kinds == [score_metric] * len(valid)
        kinds.clear()
        valid.clear()
        solved.clear()
        refined, _, _ = local_optimize(inst.truth, inst.points, scene_cfg)
        assert 1 <= len(valid) == len(solved) <= consensus.LO_STEPS
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
        result = local_optimize(EllipsoidModel._paired(geometry_to_coeffs(moved), moved),
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


def conditioned_start(inst, start, multiple=1.5):
    """(kind, local, rows, epsilon, d): ``_refine``'s arguments for ``start`` on ``inst``, in the
    frame ``fit`` conditions the cloud into, as ``fit`` hands them to a cascade."""
    local, center, scale = condition(inst.points)
    cfg = FitConfig(epsilon=multiple * inst.sigma)
    start = consensus._to_scene(start, -center / scale, 1.0 / scale)
    return (cfg.score_metric, local, design_matrix(local)[None], cfg.epsilon / scale,
            evaluate_metric(cfg.score_metric, local, start))


def scaled(model, factor):
    geom = model.geometry
    return EllipsoidModel.from_geometry(EllipsoidGeometry(geom.rotation, geom.translation,
                                                          factor * geom.semiaxes))


class TestCascadeStop:
    """The refit cascade stops at its first refit that scores no higher than the best before
    it, and a skipped step (too little support, or a refit that is no ellipsoid) does not stop
    it.  Spies count the refits (``solve_rows``) and the refits that validate."""

    def spy(self, monkeypatch):
        solved, valid = [], []
        solve_rows, ellipsoids = consensus.solve_rows, consensus._ellipsoids

        def models(coeffs, ok):
            verdict, found = ellipsoids(coeffs, ok)
            valid.extend(model for model in found if model is not None)
            return verdict, found

        monkeypatch.setattr(consensus, "solve_rows",
                            lambda *args: solved.append(args) or solve_rows(*args))
        monkeypatch.setattr(consensus, "_ellipsoids", models)
        return solved, valid

    def test_a_lower_second_step_ends_the_cascade(self, monkeypatch):
        # from the truth of this 500-point cloud, step 2 scores 236.4 against step 1's 275.6
        inst = cloud(0.3, seed=1)
        args = conditioned_start(inst, inst.truth)
        solved, valid = self.spy(monkeypatch)
        best = consensus._refine(*args)
        assert len(solved) == len(valid) == 2  # 5 without the stop
        assert best[0] is valid[0]
        kind, local, _, epsilon, _ = args
        second = float(point_energy(evaluate_metric(kind, local, valid[1]), epsilon).sum())
        assert second <= best[1] == float(point_energy(best[2], epsilon).sum())
        solved.clear()
        cfg = FitConfig(epsilon=1.5 * inst.sigma)
        assert local_optimize(inst.truth, inst.points, cfg) is not None
        assert len(solved) == 2

    def test_rising_scores_run_every_step(self, monkeypatch):
        # a dense cloud from its truth with semiaxes 1.2x too long: each step scores higher
        inst = cloud(0.05, seed=85, count=10_000, sigma_rel=0.05)
        kind, local, rows, epsilon, d = conditioned_start(inst, scaled(inst.truth, 1.2))
        solved, valid = self.spy(monkeypatch)
        best = consensus._refine(kind, local, rows, epsilon, d)
        assert len(solved) == len(valid) == consensus.LO_STEPS
        scores = [float(point_energy(evaluate_metric(kind, local, model), epsilon).sum())
                  for model in valid]
        assert scores == sorted(set(scores))
        assert best[0] is valid[-1] and best[1] == scores[-1]

    @pytest.mark.parametrize("skip", ["no support", "no ellipsoid"])
    def test_a_skipped_step_does_not_end_the_cascade(self, monkeypatch, skip):
        # step 1 is skipped, so the cascade is the one of the narrower four widths from the
        # same start distances
        inst = cloud(0.05, seed=85, count=10_000, sigma_rel=0.05)
        kind, local, rows, epsilon, d = conditioned_start(inst, scaled(inst.truth, 1.2))
        widths = consensus._lo_schedule(epsilon)
        monkeypatch.setattr(consensus, "_lo_schedule", lambda eps: widths[1:])
        want = consensus._refine(kind, local, rows, epsilon, d)
        monkeypatch.setattr(consensus, "_lo_schedule", lambda eps: widths)
        if skip == "no support":
            energy = consensus.point_energy
            monkeypatch.setattr(consensus, "point_energy", lambda d, eps: (
                np.zeros_like(d) if eps == widths[0] else energy(d, eps)))
        else:
            ellipsoids, skipped = consensus._ellipsoids, []

            def first_is_none(*args):
                if skipped:
                    return ellipsoids(*args)
                skipped.append(args)
                return None, [None]
            monkeypatch.setattr(consensus, "_ellipsoids", first_is_none)
        solved, valid = self.spy(monkeypatch)
        got = consensus._refine(kind, local, rows, epsilon, d)
        ran = consensus.LO_STEPS - (skip == "no support")
        assert len(solved) == ran and len(valid) == consensus.LO_STEPS - 1
        assert got[0].coeffs.tobytes() == want[0].coeffs.tobytes() and got[1] == want[1]


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
        # each cascade is handed the very array fit evaluated for the
        # candidate it starts from, a row of the stacked pass that scored it,
        # and that array is the candidate's distances, bit for bit
        inst = cloud(0.3, seed=8)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1)
        metric = cfg.score_metric
        blocks, passed = [], []
        refine, evaluate = consensus._refine, consensus._evaluate

        def stacked(kind, points, models):
            d = evaluate(kind, points, models)
            blocks.append((d, models))
            return d

        def spy(kind, points, rows, epsilon, d):
            owners = [model for block, models in blocks
                      for row, model in zip(block, models)
                      if row.ctypes.data == d.ctypes.data and np.shares_memory(row, d)]
            passed.append(len(owners) == 1 and d.tobytes()
                          == np.asarray(evaluate_metric(metric, points, owners[0])).tobytes())
            return refine(kind, points, rows, epsilon, d)

        monkeypatch.setattr(consensus, "_evaluate", stacked)
        monkeypatch.setattr(consensus, "_refine", spy)
        report = fit(inst.points, cfg)
        assert len(passed) == report.lo_invocations >= 1
        assert all(passed)
        assert max(len(models) for _, models in blocks) > 1  # candidates were scored in stacks

    @pytest.mark.parametrize("gain", [0.0, 1.0])
    def test_a_refit_replaces_its_candidate_only_when_it_scores_higher(self, monkeypatch, gain):
        # every cascade returns a decoy scored at its candidate's score plus ``gain``: on a tie
        # the candidate, the earlier record, stays the best, so the fit is the fit without
        # local optimization; one higher, the decoy is the best and is mapped back
        inst = cloud(0.3, seed=8)
        cfg = FitConfig(epsilon=1.5 * inst.sigma, seed=1)
        _, _, center, scale, _ = consensus._frame(inst.points, cfg.epsilon)
        decoy = axis_aligned((1.5, 1.2, 0.9), center=(0.1, -0.2, 0.3))  # in the conditioned frame
        monkeypatch.setattr(consensus, "_refine", lambda kind, pts, rows, epsilon, d: (
            decoy, float(point_energy(d, epsilon).sum()) + gain, d))
        report = fit(inst.points, cfg)
        assert report.lo_invocations >= 1
        if gain:
            want = consensus._to_scene(decoy, center, scale)
        else:
            want = fit(inst.points, dataclasses.replace(cfg, local_opt=False))
            assert (report.score, report.iterations) == (want.score, want.iterations)
            want = want.model
        assert report.model.coeffs.tobytes() == want.coeffs.tobytes()
        assert report.model.geometry.semiaxes.tobytes() == want.geometry.semiaxes.tobytes()

    def test_builds_the_cloud_design_once_per_fit_and_per_refit_cascade(self, monkeypatch):
        # no metric reads design rows, only the solves do: fit builds the
        # conditioned cloud's rows once, whatever the metrics and with local
        # optimization on or off, and gathers every minimal sample's rows
        # from them; a lone local_optimize builds them once
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
                assert built == [n]
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


def with_repeats(points, share, seed):
    """``points`` followed by a second copy of ``share`` of them, drawn without replacement."""
    rng = np.random.default_rng(seed)
    return np.concatenate([points, points[rng.choice(len(points), int(share * len(points)),
                                                     replace=False)]])


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

    @pytest.mark.parametrize("metric", ["sampson", "algebraic", "axial", "cas:0.25",
                                        "sampson+orthogonal"])
    @pytest.mark.parametrize("local_opt", [True, False])
    def test_every_score_metric(self, metric, local_opt):
        # fit scores a chunk's candidates in stacks; the reference scores one
        # model at a time with model_score
        inst = cloud(0.5, seed=73)
        fit_both(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=5, local_opt=local_opt,
                                        score_metric=MetricKind.parse(metric)))

    @pytest.mark.parametrize("local_opt", [True, False])
    def test_repeated_points(self, local_opt):
        # a sample that holds a point twice has an exactly singular 9x9 block
        inst = cloud(0.5, seed=57)
        points = with_repeats(inst.points, 0.05, seed=57)
        for seed in (0, 1):
            fit_both(points, FitConfig(epsilon=1.5 * inst.sigma, seed=seed,
                                       local_opt=local_opt))

    def test_repeated_points_solve_each_sample_once_and_alone(self, monkeypatch):
        # one LU solve per chunk, and no minimal sample reaches the eigen-solve; a sample that
        # holds a point twice solves to a NaN row, and every row gets the bits of its own solve
        inst = cloud(0.5, seed=58)
        points = with_repeats(inst.points, 0.05, seed=58)
        draw, solve, solve_rows = consensus.sample_minimal, consensus._solve, consensus.solve_rows
        drawn, solved, singular, unweighted = [], [], 0, 0

        def solve_spy(a, b):
            nonlocal singular
            x = solve(a, b)
            for i in range(len(a)):
                try:
                    alone = np.linalg.solve(a[i], b[i])
                except np.linalg.LinAlgError:
                    singular += 1
                    assert np.isnan(x[i]).all()
                else:
                    assert x[i].tobytes() == alone.tobytes()
            solved.append(len(a))
            return x

        def solve_rows_spy(rows, weights=None):
            nonlocal unweighted
            unweighted += weights is None
            return solve_rows(rows, weights)

        monkeypatch.setattr(consensus, "sample_minimal",
                            lambda *args, count=None: drawn.append(count) or draw(*args, count))
        monkeypatch.setattr(consensus, "_solve", solve_spy)
        monkeypatch.setattr(consensus, "solve_rows", solve_rows_spy)
        report = fit(points, FitConfig(epsilon=1.5 * inst.sigma, seed=3))
        assert solved == drawn and singular >= 2 and unweighted == 0 < report.lo_invocations

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


def lu_quadrics(rows):
    """q = (1, y) with D[:, 1:] y = -D[:, 0] for each of (k, 9, 10) design rows, as
    ``_candidates`` solves them; a row whose block is exactly singular is NaN."""
    q = np.ones((len(rows), 10))
    q[:, 1:] = consensus._solve(rows[:, :, 1:], -rows[:, :, 0])
    return q


def lattice_draws(m, chunks=20, count=512):
    """The design rows of the conditioned ``lattice(m)``, and the (count, 9, 10) rows of each
    of ``chunks`` draws of PCG64(5): the chunks ``_candidates`` draws with that seed."""
    design = design_matrix(condition(lattice(m))[0])
    rng = np.random.Generator(np.random.PCG64(5))
    return design, [design[sample_minimal(len(design), 9, rng, count=count)]
                    for _ in range(chunks)]


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
    """Coefficient rows with each quantity of ``exact_ellipsoid`` at 0, a few
    ulps either side of it and 1e-6 below it, and near-degenerate ellipsoids
    (smallest eigenvalue ~1e-12 of the largest); also a mask of the rows
    1e-6 past a definiteness boundary.  The screen tests definiteness only,
    so rows past the real-surface boundary are kept and not in the mask."""
    rows, clear = [], []
    c0 = 2.0 / 3.0  # det [[2, 1, 1], [1, 2, 1], [1, 1, c]] = 3c - 2
    for k in (-4, -1, 0, 1, 4, -1e-6 * 2**52):
        d = k * 2.0**-52
        rows += [[d, 1, 1, 0, 0, 0, 0, 0, 0, 1],  # a11
                 [1, 1, 1, np.sqrt(1 - d), 0, 0, 0, 0, 0, 1],  # 2x2 minor
                 [2, 2, c0 + d / 4, 1, 1, 1, 0, 0, 0, 1],  # det A
                 [1, 1, 1, 0, 0, 0, 0.75, 0, 0, -0.5625 + d / 2]]  # bounded term
        clear += [k < -1e3] * 3 + [False]
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


def signed_powers(low, high):
    """Doubles +-10^e with e drawn from [low, high]."""
    return st.tuples(st.booleans(), st.floats(low, high)).map(
        lambda drawn: (-1.0 if drawn[0] else 1.0) * 10.0 ** drawn[1])


def rotation_zxz(a, b, c):
    """The rotation Rz(a) Rx(b) Rz(c)."""
    def about(axis, angle):
        i, j = [k for k in range(3) if k != axis]
        r = np.eye(3)
        r[i, i] = r[j, j] = math.cos(angle)
        r[i, j], r[j, i] = -math.sin(angle), math.sin(angle)
        return r
    return about(2, a) @ about(0, b) @ about(2, c)


class TestScreen:
    """``_candidates`` solves each minimal sample once, by LU with q1 = 1, and screens the
    rows before it checks them; the screen drops no row that ``check_ellipsoids`` accepts."""

    @staticmethod
    def same_candidates(points, chunks=8):
        """Assert ``_candidates`` yields the candidates of the reference's one-sample solve
        (``reference_loop.solve_sample``) bit for bit, near the SVD null vector; count them."""
        local = condition(points)[0]
        got_rng = np.random.Generator(np.random.PCG64(5))
        want_rng = np.random.Generator(np.random.PCG64(5))
        found = 0
        for _ in range(chunks):
            got = consensus._candidates(design_matrix(local), CHUNK, got_rng)
            for model, sample in zip(got, local[sample_minimal(len(local), 9, want_rng,
                                                               count=CHUNK)]):
                want = solve_sample(sample)
                assert (model is None) == (want is None)
                if model is not None:
                    for value, field in zip(
                            (model.coeffs, *dataclasses.astuple(model.geometry)),
                            (want.coeffs, *dataclasses.astuple(want.geometry))):
                        assert value.tobytes() == field.tobytes()
                    null = normalize_coeffs(np.linalg.svd(design_matrix(sample))[2][-1])
                    assert np.abs(model.coeffs - null).max() <= 1e-10
                    found += 1
        return found

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_contaminated_clouds(self, fraction):
        inst = cloud(fraction, seed=int(10 * fraction) + 61)
        assert self.same_candidates(inst.points) > 0
        # the screen does drop rows: most samples of a noisy cloud are no ellipsoid
        rows = sample_rows(condition(inst.points)[0], 512)
        assert _definite(lu_quadrics(rows)).mean() < 0.5

    def test_singular_blocks_are_dropped(self):
        # nine lattice points often make an exactly singular block D[:, 1:]: np.linalg.solve
        # fails the whole chunk, and the LU gives NaN for those rows and solves the others
        rows = sample_rows(condition(lattice())[0], CHUNK)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(rows[:, :, 1:], -rows[:, :, :1])
        singular = np.zeros(CHUNK, dtype=bool)
        for i, row in enumerate(rows):
            try:
                np.linalg.solve(row[:, 1:], -row[:, 0])
            except np.linalg.LinAlgError:
                singular[i] = True
        q = lu_quadrics(rows)
        assert np.isnan(q[singular, 1:]).all() and np.isfinite(q[~singular]).all()
        keep = _definite(q)
        assert singular.sum() == 2 and not keep[singular].any() and keep.sum() == 6
        self.same_candidates(lattice())
        # no row the LU leaves NaN is an ellipsoid on the eigen-solve path either
        dropped = 0
        for m in (2, 3, 4):
            design, chunks = lattice_draws(m)
            rng = np.random.Generator(np.random.PCG64(5))
            for rows in chunks:
                nan = np.isnan(lu_quadrics(rows)).any(axis=1)
                coeffs, ok = solve_rows(rows)
                assert not (nan & ok & (check_ellipsoids(coeffs)[0] == ELLIPSOID)).any()
                models = consensus._candidates(design, len(rows), rng)
                assert all(models[i] is None for i in np.flatnonzero(nan))
                dropped += nan.sum()
        assert dropped > 500

    def test_rows_that_overflow_are_dropped(self, monkeypatch):
        # nine points within 2^-520 of a line: the LU overflows, and the eigen-solve finds
        # no ellipsoid either
        points = np.random.default_rng(3).uniform(-1.0, 1.0, (9, 3)) * [1.0, 2.0**-520, 2.0**-520]
        rows = design_matrix(points)[None]
        assert np.isinf(lu_quadrics(rows)).any()
        coeffs, ok = solve_rows(rows)
        assert not (ok & (check_ellipsoids(coeffs)[0] == ELLIPSOID)).any()
        rng = np.random.Generator(np.random.PCG64(5))
        assert consensus._candidates(design_matrix(points), CHUNK, rng) == [None] * CHUNK
        # each row is decided on its own: rows made infinite give None, the others their model
        design = design_matrix(condition(cloud(0.0, seed=61, sigma_rel=0.0).points)[0])
        want = consensus._candidates(design, CHUNK, np.random.Generator(np.random.PCG64(5)))
        solve = consensus._solve

        def overflowing(a, b):
            x = solve(a, b)
            x[::2, 0] = np.inf
            return x

        monkeypatch.setattr(consensus, "_solve", overflowing)
        got = consensus._candidates(design, CHUNK, np.random.Generator(np.random.PCG64(5)))
        assert got[::2] == [None] * (CHUNK // 2)
        assert [model and model.coeffs.tobytes() for model in got[1::2]] == [
            model and model.coeffs.tobytes() for model in want[1::2]]
        assert any(want[1::2])

    def test_rows_near_the_boundary_are_kept(self, rng):
        rows, clear = near_boundary_rows(rng)
        # the LU's rows have q1 = 1: a row with q1 <= 0 is no ellipsoid, and the others are
        # divided by it, then read exactly
        positive = rows[:, 0] > 0.0
        rows, clear = rows[positive] / rows[positive, :1], clear[positive]
        exact = np.array([exact_ellipsoid(q) for q in rows])
        verdict = check_ellipsoids(normalize_rows(rows.copy()))[0]
        accepted = verdict == ELLIPSOID
        assert 0 < accepted.sum() < exact.sum() and not exact[clear].any() and clear.any()
        kept = _definite(rows)
        assert kept[accepted].all()
        # the screen may drop an exact ellipsoid only where check_ellipsoids would: its block's
        # eigenvalues are too far apart (entries of far-apart sizes: the property test below)
        evals = np.abs(np.linalg.eigvalsh(quadratic_block(rows)))
        ratio = evals.min(axis=1) / evals.max(axis=1)
        assert kept[exact & (ratio >= DEGENERACY_TOL)].all()
        assert (verdict[exact & ~kept] == DEGENERATE).all()
        # the slack is small: rows 1e-6 past a definiteness boundary are dropped
        assert not kept[clear].any()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(log_evals=st.tuples(st.floats(-17.0, 0.0), st.floats(-17.0, 0.0)),
           angles=st.tuples(*[signed_powers(-300.0, 0.5)] * 3),
           scales=st.tuples(*[st.one_of(signed_powers(-2.0, 2.0),
                                        signed_powers(-150.0, 150.0))] * 2),
           center=st.tuples(*[st.one_of(signed_powers(-2.0, 2.0),
                                        signed_powers(-300.0, 300.0))] * 3),
           log_rho=st.one_of(st.floats(-2.0, 2.0), st.floats(-300.0, 300.0)))
    @example(log_evals=(-11.5, -0.5), angles=(0.3, 0.7, 1.1), scales=(1.0, 1.0),
             center=(0.1, 0.2, 0.3), log_rho=0.0)  # accepted, with lmin / lmax 3e-12
    def test_no_accepted_row_is_dropped(self, log_evals, angles, scales, center, log_rho):
        # q1 = 1 rows whose other entries span 1e-300 to 1e300 and whose blocks' eigenvalue
        # ratios reach 1e-17: the ellipsoid (x - c)^T A (x - c) = rho, A = D R L R^T D
        rot = rotation_zxz(*angles)
        block = np.diag([1.0, *scales]) @ rot @ np.diag([1.0, *10.0 ** np.array(log_evals)]) \
            @ rot.T @ np.diag([1.0, *scales])
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            b = -block @ np.array(center)
            row = np.array(coefficients(block, b, 10.0**log_rho + b @ center)) / block[0, 0]
        if not np.isfinite(row).all():
            return  # the LU's rows that are not finite never reach the screen
        assert row[0] == 1.0
        if check_ellipsoids(normalize_rows(row[None].copy()))[0][0] == ELLIPSOID:
            assert _definite(row[None])[0]

    def test_underflow_drops_no_ellipsoid(self):
        # found by search: an ellipsoid whose minors underflow once it is
        # scaled, so that rounding alone makes one of them negative
        q = np.array([float.fromhex(h) for h in (
            "0x1.5245b44038036p-359", "0x1.0dd4d2b23b12cp-358", "0x1.56a082b344a40p-357",
            "-0x1.6e7c34dbd8bc3p-361", "0x1.d04abcd1fdc8cp-362", "-0x1.a6513951bba40p-358",
            "-0x1.7f19198ac45a3p-176", "0x1.c15c47d1e4591p-177", "-0x1.d2089527718d1p-178",
            "0x1.0000000000000p+0")])
        assert exact_ellipsoid(q)
        assert _definite(q[None]).all()

    def test_seeded_rows_keep_every_accepted_row(self):
        # no row that check_ellipsoids accepts, on the LU's quadric or on the SVD null vector,
        # is dropped, and the dropped rows nearest to definite are no exact ellipsoid
        clouds = [cloud(f, seed=71 + i).points for i, f in enumerate((0.0, 0.3, 0.5))]
        clouds.append(cloud(0.05, seed=74, count=10_000, sigma_rel=0.05).points)
        total = kept = accepted = 0
        for c, points in enumerate(clouds):
            local = condition(points)[0]
            rng = np.random.default_rng(c)
            for _ in range(7):
                idx = sample_minimal(len(local), 9, rng, count=4096)
                rows = design_matrix(local[idx.reshape(-1)]).reshape(-1, 9, 10)
                q = lu_quadrics(rows)
                keep = _definite(q)
                assert np.isfinite(q).all()
                q = normalize_rows(q)
                valid = check_ellipsoids(q)[0] == ELLIPSOID
                null = normalize_rows(np.linalg.svd(rows)[2][:, -1])
                assert not ((valid | (check_ellipsoids(null)[0] == ELLIPSOID)) & ~keep).any()
                dropped = q[~keep]
                evals = np.linalg.eigvalsh(quadratic_block(dropped))
                nearest = np.argsort(-evals[:, 0] / np.abs(evals).max(axis=1))[:20]
                assert not any(exact_ellipsoid(row) for row in dropped[nearest])
                total += len(rows)
                kept, accepted = kept + keep.sum(), accepted + valid.sum()
        assert total >= 100_000
        assert 0 < accepted <= kept < total / 4

    def test_definite_minimal_samples_have_real_surfaces(self):
        # the screen tests definiteness only: a quadric through nine real
        # points whose block is definite is a real ellipsoid, so no row it
        # keeps comes back UNBOUNDED
        clouds = [cloud(0.0, seed=81, sigma_rel=0.0), cloud(0.0, seed=82),
                  cloud(0.3, seed=83), cloud(0.5, seed=84),
                  cloud(0.05, seed=85, count=10_000, sigma_rel=0.05)]
        total = definite = 0
        for c, inst in enumerate(clouds):
            local = condition(inst.points)[0]
            rng = np.random.default_rng(c)
            for _ in range(6):
                idx = sample_minimal(len(local), 9, rng, count=4096)
                q = lu_quadrics(design_matrix(local[idx.reshape(-1)]).reshape(-1, 9, 10))
                kept = _definite(q)
                assert not (check_ellipsoids(normalize_rows(q[kept]))[0] == UNBOUNDED).any()
                total, definite = total + len(q), definite + kept.sum()
        assert total >= 100_000 and 0 < definite < total

    def test_samples_on_an_elliptic_cylinder_give_no_candidate(self):
        # sample 507 of the fourth 512-row chunk of PCG64(5) on lattice(2): nine points on
        # the cylinder x^2 - 2xy + 2y^2 + x - 2y = 2, the only quadric through them.  The
        # eigen-solve of D^T D reads its q3 as ~5e-12 and makes an "ellipsoid" with a
        # semiaxis near 3e5 of it; the LU reads ~5e-16, which check_ellipsoids finds degenerate
        _, chunks = lattice_draws(2, chunks=4)
        sample = np.array([[-2, -1, 2], [-2, -1, -1], [2, 1, 0], [2, 2, 0], [-1, 1, 2],
                           [1, 0, 1], [-1, -1, -2], [-1, -1, 2], [-1, 1, -1]])
        x, y = sample[:, 0], sample[:, 1]
        assert (x * x - 2 * x * y + 2 * y * y + x - 2 * y == 2).all()
        rows = chunks[3][507]
        assert rows.tobytes() == design_matrix(sample / np.sqrt(2.0)).tobytes()
        coeffs, ok = solve_rows(rows[None])
        verdict, _, _, semiaxes = check_ellipsoids(coeffs)
        assert ok[0] and verdict[0] == ELLIPSOID and semiaxes[0, 0] > 1e5
        # every order of its points, as sample_minimal draws them from these nine alone
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(4):
            assert consensus._candidates(rows, 512, rng) == [None] * 512


def flat(shape, rng, count=500):
    """A planar, collinear or identical cloud of ``count`` points around the origin."""
    if shape == "collinear":
        return np.outer(rng.uniform(-5, 5, count), [1.0, 2.0, 3.0])
    pts = np.zeros((count, 3))
    if shape == "planar":
        pts[:, :2] = rng.uniform(-5, 5, size=(count, 2))
        pts = pts @ random_rotation(rng).T
    return pts


class TestDegenerateInput:
    """Clouds that cannot carry an ellipsoid fail before any sample is drawn."""

    @pytest.mark.parametrize("shape", ["planar", "collinear", "identical"])
    def test_fails_fast_at_the_default_budget(self, rng, shape):
        offset = np.array([3.0, -2.0, 1e4])
        # the message comes from the up-front check, not the exhausted budget
        with pytest.raises(NoModelFound, match="coplanar, collinear or identical"):
            fit(flat(shape, rng) + offset, FitConfig(epsilon=0.1))

    @pytest.mark.parametrize("shape", ["planar", "collinear"])
    def test_rotated_flat_clouds_are_caught(self, shape):
        # an eigenvalue solver resolves the smallest eigenvalue of the scatter matrix only to
        # ~1e-16 of the largest; the thickness along its axis is resolved to ~1e-31
        for seed in range(40):
            rng = np.random.default_rng(seed)
            points = flat(shape, rng) @ random_rotation(rng).T
            with pytest.raises(NoModelFound, match="coplanar, collinear or identical"):
                fit(points, FitConfig(epsilon=0.1, max_iterations=64))

    @pytest.mark.parametrize("thickness", [4e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    def test_thin_clouds_give_no_candidate(self, thickness):
        # what FLAT_TOL turns away would give no candidate: through nine points this close
        # to a plane, the quadric's block has eigenvalues ~thickness^2 apart, degenerate
        rng = np.random.default_rng(1)
        pts = np.zeros((500, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(500, 2))
        pts[:, 2] = thickness * rng.choice([-1.0, 1.0], 500)
        design = design_matrix(condition(pts @ random_rotation(rng).T)[0])
        draws = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            assert consensus._candidates(design, 512, draws) == [None] * 512

    def test_just_thicker_than_the_threshold_runs_the_loop(self, rng):
        pts = np.zeros((500, 3))
        pts[:, :2] = rng.uniform(-5, 5, size=(500, 2))
        pts[:, 2] = 4e-10 * rng.choice([-1.0, 1.0], 500)
        local = condition(pts)[0]
        spread = np.linalg.eigvalsh(local.T @ local)
        assert FLAT_TOL < spread[0] / spread[-1] < 10 * FLAT_TOL
        with pytest.raises(NoModelFound, match="no valid ellipsoid in 64 iterations"):
            fit(pts, FitConfig(epsilon=0.1, max_iterations=64))


class TestOneFrame:
    """``fit`` and ``local_optimize`` enter the conditioned frame by one checked path
    (``consensus._frame``): the same points and threshold give the same typed outcome, and
    the flat clouds ``fit`` turns away give ``local_optimize`` None before any refit."""

    @pytest.mark.parametrize("case, error", [
        ("eight points", TooFewPoints), ("mean past 2^500", NotAnEllipsoid),
        ("threshold past the doubles", NotAnEllipsoid), ("planar", NoModelFound),
        ("collinear", NoModelFound), ("identical", NoModelFound)])
    def test_fit_and_local_optimize_agree(self, rng, case, error):
        points, epsilon = sample_surface(unit_sphere(), 60, rng), 0.1
        if case == "eight points":
            points = points[:8]
        elif case == "mean past 2^500":
            points = 2.0**480 * points + 2.0**501
        elif case == "threshold past the doubles":
            points, epsilon = 17.0 * points, 5e-324
        elif error is NoModelFound:
            points = flat(case, rng) + np.array([3.0, -2.0, 1e4])
        cfg = FitConfig(epsilon=epsilon)
        with pytest.raises(error):
            fit(points, cfg)
        if error is NoModelFound:
            assert local_optimize(unit_sphere(), points, cfg) is None
        else:
            with pytest.raises(error):
                local_optimize(unit_sphere(), points, cfg)

    @pytest.mark.parametrize("shape", ["planar", "collinear"])
    def test_flat_clouds_are_not_refitted(self, rng, monkeypatch, shape):
        # the start sphere meets the cloud, so enough points carry weight for every step
        offset = np.array([3.0, -2.0, 1e4])
        points, cfg = flat(shape, rng) + offset, FitConfig(epsilon=0.1)
        with pytest.raises(NoModelFound, match="coplanar, collinear or identical"):
            fit(points, cfg)
        calls = []
        solve_rows = consensus.solve_rows
        monkeypatch.setattr(consensus, "solve_rows",
                            lambda *args: calls.append(args) or solve_rows(*args))
        assert local_optimize(axis_aligned((1.0, 1.0, 1.0), offset), points, cfg) is None
        assert calls == []


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

    @pytest.mark.parametrize("size, epsilon", [(17.0, 5e-324), (1e-3, 1e308)])
    def test_threshold_past_the_double_range_in_the_conditioned_frame(self, monkeypatch,
                                                                       size, epsilon):
        # FitConfig takes both thresholds, but epsilon / scale under- or
        # overflows; the fit names them before it draws a sample
        def no_draws(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(consensus, "sample_minimal", no_draws)
        points = sample_surface(unit_sphere(), 60, np.random.default_rng(0)) * size
        cfg = FitConfig(epsilon=epsilon, seed=0)
        for call in (lambda: fit(points, cfg),
                     lambda: local_optimize(axis_aligned((size, size, size)), points, cfg)):
            with pytest.raises(NotAnEllipsoid, match=r"epsilon .*scale"):
                call()


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                FitConfig(epsilon=bad)
        # a bool would fit at epsilon 1, a string raised an untyped TypeError
        for bad in (True, "1", None):
            with pytest.raises(ValueError, match="epsilon must be a real number"):
                FitConfig(epsilon=bad)
        assert FitConfig(epsilon=np.float32(0.5)).epsilon == 0.5
        for field in ("min_iterations", "max_iterations", "seed"):
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: 60.5})
            with pytest.raises(ValueError, match=field):
                FitConfig(epsilon=1.0, **{field: True})
        assert FitConfig(epsilon=1.0, seed=np.uint32(7)).seed == 7
        # numpy's seeding refused a negative seed with an untyped error once the fit began
        for bad in (-1, np.int64(-2**40)):
            with pytest.raises(ValueError, match="seed must be non-negative"):
                FitConfig(epsilon=1.0, seed=bad)
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
