import json

import numpy as np
import pytest

from casfit import (DatasetSpec, EllipsoidGeometry, EllipsoidModel, ExperimentGrid,
                    GridVariant, NoModelFound, ParseError, bench, fitting_errors, load_grid,
                    read_report, residuals, run_grid, sample_surface)
from casfit.bench import CSV_COLUMNS, grid_from_json

from conftest import axis_aligned, make_model


def tiny_grid(variants=None, runs=2):
    if variants is None:
        variants = (GridVariant(name="full", epsilon_rel_sigma=2.0,
                                min_iterations=25, max_iterations=150),)
    dataset = DatasetSpec(kind="outlier", point_count=60, sigma_rel=0.05,
                          outlier_fraction=0.2, instance_count=2, seed=7)
    return ExperimentGrid(variants=variants, datasets=(dataset,),
                          runs_per_instance=runs, seed=3)


def split_pm(cell):
    mean, _, std = cell.partition("±")
    return float(mean), float(std)


class TestErrorTriples:
    def test_self_comparison_is_zero(self, rng):
        m = make_model(rng)
        err = fitting_errors(m, m)
        assert err.parameter_error == 0.0
        assert err.semiaxis_error == 0.0
        assert err.center_error == 0.0

    def test_center_shift(self):
        truth = axis_aligned((2.0, 3.0, 4.0))
        moved = axis_aligned((2.0, 3.0, 4.0), center=(0.1, -0.2, 0.3))
        err = fitting_errors(moved, truth)
        assert abs(err.center_error - 0.6) < 1e-12
        assert err.semiaxis_error < 1e-12

    def test_semiaxes_compared_sorted(self):
        truth = axis_aligned((2.0, 3.0, 4.0))
        relabeled = axis_aligned((4.0, 2.0, 3.0))
        err = fitting_errors(relabeled, truth)
        assert err.semiaxis_error < 1e-12

    def test_semiaxis_growth(self):
        truth = axis_aligned((2.0, 3.0, 4.0))
        bigger = axis_aligned((2.5, 3.0, 4.0))
        assert abs(fitting_errors(bigger, truth).semiaxis_error - 0.5) < 1e-12

    def test_sign_flip_is_free(self, rng):
        # normalized coefficients are sign-canonical, so the builder cannot
        # even produce the flipped twin; parameter error is a true metric
        m = make_model(rng)
        twin = EllipsoidModel.from_coeffs(-m.coeffs)
        assert fitting_errors(twin, m).parameter_error == 0.0


class TestResiduals:
    def test_clean_surface(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 300, rng)
        res = residuals(m, pts)
        assert res.sampson_residual < 1e-10
        assert res.orthogonal_residual < 1e-10
        assert res.axial_residual < 1e-10

    def test_inflated_member(self, rng):
        m = make_model(rng)
        pts = sample_surface(m, 200, rng, scale=1.2)
        res = residuals(m, pts)
        expected_axial = 0.2 * float(np.linalg.norm(m.semiaxes)) / 3.0
        assert abs(res.axial_residual - expected_axial) < 1e-9
        assert res.orthogonal_residual > 0.0


class TestGridConstruction:
    def test_variant_threshold_modes(self):
        rel = GridVariant(name="rel", epsilon_rel_sigma=1.5)
        cfg = rel.make_config(sigma=0.2, seed=1)
        assert abs(cfg.epsilon - 0.3) < 1e-15
        absolute = GridVariant(name="abs", epsilon=0.4, epsilon_rel_sigma=None)
        assert absolute.make_config(sigma=0.0, seed=1).epsilon == 0.4
        with pytest.raises(ValueError):
            rel.make_config(sigma=0.0, seed=1)
        # the threshold given must be a real number, not a bool or a string
        for given in ({"epsilon_rel_sigma": True}, {"epsilon_rel_sigma": "1.5"},
                      {"epsilon": True}, {"epsilon": "0.4"}):
            with pytest.raises(ValueError, match=f"{next(iter(given))} must be a real number"):
                GridVariant(name="bad", **given)

    def test_exactly_one_threshold(self):
        with pytest.raises(ValueError):
            GridVariant(name="both", epsilon=0.1, epsilon_rel_sigma=2.0)
        with pytest.raises(ValueError):
            GridVariant(name="neither", epsilon=None, epsilon_rel_sigma=None)

    def test_absolute_threshold_alone(self):
        doc = {"variants": [{"name": "x", "epsilon": 0.1}], "datasets": [{"kind": "gaussian"}]}
        (variant,) = grid_from_json(doc).variants
        assert (variant.epsilon, variant.epsilon_rel_sigma) == (0.1, None)
        assert GridVariant(name="x", epsilon=0.1).make_config(sigma=0.0, seed=1).epsilon == 0.1
        # a noise-free dataset takes an absolute threshold alone
        doc["datasets"] = [{"kind": "gaussian", "sigma_rel": 0}]
        assert grid_from_json(doc).datasets[0].sigma_rel == 0
        doc["variants"].append({"name": "rel"})
        with pytest.raises(ParseError, match="'rel' needs a noisy dataset"):
            grid_from_json(doc)
        assert GridVariant(name="x").epsilon_rel_sigma == 2.0

    def test_metric_strings_checked_eagerly(self):
        with pytest.raises(ValueError):
            GridVariant(name="bad", score_metric="euclidean")

    def test_unique_variant_names(self):
        v = GridVariant(name="a")
        with pytest.raises(ValueError):
            ExperimentGrid(variants=(v, GridVariant(name="a", local_opt=False)),
                           datasets=(DatasetSpec(kind="gaussian"),))
        # the confidence target and the refit schedule are constants
        for field, value in (("mu", 0.95), ("lo_steps", 5)):
            with pytest.raises(TypeError, match=field):
                GridVariant(name="a", **{field: value})

    def test_json_round_trip(self):
        doc = {
            "variants": [
                {"name": "full", "score_metric": "cas:0.5"},
                {"name": "plain", "score_metric": "sampson", "local_opt": False},
            ],
            "datasets": [
                {"kind": "outlier", "point_count": 80, "sigma_rel": 0.1,
                 "outlier_fraction": 0.3, "instance_count": 2, "seed": 4},
            ],
            "runs_per_instance": 3,
            "seed": 9,
        }
        grid = grid_from_json(doc)
        assert [v.name for v in grid.variants] == ["full", "plain"]
        assert grid.datasets[0].point_count == 80
        assert grid.runs_per_instance == 3
        assert grid.seed == 9

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            grid_from_json([])
        with pytest.raises(ParseError):
            grid_from_json({"datasets": []})
        with pytest.raises(ParseError, match="at least one variant"):
            grid_from_json({"variants": [], "datasets": [{"kind": "gaussian"}]})
        with pytest.raises(ParseError):
            grid_from_json({"variants": [{"name": "x", "bogus_field": 1}],
                            "datasets": [{"kind": "gaussian"}]})
        with pytest.raises(ParseError, match="gaussian"):  # it would report 0.3 and plant none
            grid_from_json({"variants": [{"name": "x"}],
                            "datasets": [{"kind": "gaussian", "outlier_fraction": 0.3}]})
        good = {"variants": [{"name": "x"}], "datasets": [{"kind": "gaussian"}]}
        assert grid_from_json(good).variants[0].name == "x"
        for variant, dataset, top in (
                ({}, {"instance_count": 1.0}, {}),
                ({}, {"point_count": 60.5}, {}),
                ({}, {"seed": "4"}, {}),
                ({"max_iterations": 60.5}, {}, {}),
                ({"max_iterations": True}, {}, {}),
                ({"min_iterations": 0}, {}, {}),
                ({"epsilon": 0.0}, {}, {}),
                ({"score_metric": 5}, {}, {}),
                ({"score_metric": "sampson:0.3"}, {}, {}),
                # removed settings, rejected whatever their value
                ({"weight_metric": "sampson"}, {}, {}),
                ({"sample_size": 9}, {}, {}),
                ({"mu": 0.95}, {}, {}),
                ({"lo_steps": 5}, {}, {}),
                ({"epsilon_rel_sigma": -1.0}, {}, {}),
                ({}, {"sigma_rel": 0.0}, {}),
                ({}, {}, {"runs_per_instance": 2.5}),
                ({}, {}, {"runs_per_instance": 0}),
                ({}, {}, {"seed": 1.0}),
                # numpy's seeding refused a negative seed only once its cells ran
                ({}, {"seed": -4}, {}),
                ({}, {}, {"seed": -1}),
                # a JSON boolean is no real number: true would run, and be reported, as 1
                ({}, {"sigma_rel": True}, {}),
                ({}, {"outlier_fraction": False}, {}),
                ({"epsilon": True}, {}, {}),
                ({"epsilon_rel_sigma": True}, {}, {}),
                ({"epsilon_rel_sigma": "2"}, {}, {}),
                # a name is the report's variant cell: a non-empty string
                ({"name": None}, {}, {}),
                ({"name": 5}, {}, {}),
                ({"name": True}, {}, {}),
                ({"name": ""}, {}, {})):
            # a bad later variant fails on load, before any cell runs
            doc = {"variants": [{"name": "ok"}, {"name": "x", **variant}],
                   "datasets": [{"kind": "gaussian", **dataset}], **top}
            with pytest.raises(ParseError):
                grid_from_json(doc)

    def test_files_that_are_not_utf8_name_the_path_and_byte(self, tmp_path):
        good = {"variants": [{"name": "caf\u00e9"}], "datasets": [{"kind": "gaussian"}]}
        path = tmp_path / "grid.json"
        path.write_bytes(json.dumps(good, ensure_ascii=False).encode("latin-1"))
        offset = path.read_bytes().index(b"\xe9")
        with pytest.raises(ParseError, match=f"grid.json: byte {offset}: not UTF-8"):
            load_grid(path)
        path.write_bytes(json.dumps(good, ensure_ascii=False).encode("utf-8"))
        assert load_grid(path).variants[0].name == "caf\u00e9"

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # every reader drops one leading UTF-8 BOM, as load_points does
        doc = {"variants": [{"name": "v", "local_opt": False}],
               "datasets": [{"kind": "gaussian", "seed": 2}], "seed": 5}
        plain, marked = tmp_path / "grid.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(doc), encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_grid(marked) == load_grid(plain)

    def test_load_grid_errors(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_grid(path)
        path.write_text(json.dumps({"variants": [{"name": "v"}],
                                    "datasets": [{"kind": "gaussian"}]}))
        assert load_grid(path).variants[0].name == "v"


class TestRunGrid:
    def test_shape_and_order(self):
        grid = tiny_grid(runs=2)
        data_rows, aggregate_rows = run_grid(grid)
        assert len(data_rows) == 1 * 1 * 2 * 2
        assert len(aggregate_rows) == 1
        keys = [(r["variant"], r["instance"], r["run"]) for r in data_rows]
        assert keys == [("full", "0", "0"), ("full", "0", "1"),
                        ("full", "1", "0"), ("full", "1", "1")]
        for row in data_rows:
            assert set(row) == set(CSV_COLUMNS)
            assert row["is_ellipsoid"] == "1"
            assert float(row["param_err"]) >= 0.0
            assert int(row["iterations"]) <= 150

    def test_aggregate_recomputation(self):
        grid = tiny_grid(runs=3)
        data_rows, aggregate_rows = run_grid(grid)
        agg = aggregate_rows[0]
        assert agg["instance"] == "all" and agg["run"] == "aggregate"
        for col in ("param_err", "semiaxis_err", "center_err", "iterations"):
            vals = np.array([float(r[col]) for r in data_rows])
            mean, std = split_pm(agg[col])
            assert np.isclose(mean, vals.mean(), rtol=1e-9)
            assert np.isclose(std, vals.std(), rtol=1e-9, atol=1e-12)

    def test_deterministic_apart_from_timing(self):
        grid = tiny_grid(runs=2)
        a, _ = run_grid(grid)
        b, _ = run_grid(grid)
        for ra, rb in zip(a, b):
            for col in CSV_COLUMNS:
                if col != "wall_ms":
                    assert ra[col] == rb[col]

    def test_variants_share_instances_and_seeds(self):
        # two identically configured variants must produce identical rows,
        # proving instances and per-run fit seeds are paired across variants
        twins = (GridVariant(name="first", epsilon_rel_sigma=2.0,
                             min_iterations=25, max_iterations=150),
                 GridVariant(name="second", epsilon_rel_sigma=2.0,
                             min_iterations=25, max_iterations=150))
        data_rows, _ = run_grid(tiny_grid(variants=twins, runs=2))
        half = len(data_rows) // 2
        for ra, rb in zip(data_rows[:half], data_rows[half:]):
            assert ra["variant"] == "first" and rb["variant"] == "second"
            for col in CSV_COLUMNS:
                if col not in ("variant", "wall_ms"):
                    assert ra[col] == rb[col]

    def test_csv_round_trip(self, tmp_path):
        grid = tiny_grid(runs=2)
        out = tmp_path / "report.csv"
        data_rows, aggregate_rows = run_grid(grid, out_path=out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        back_data, back_agg = read_report(out)
        assert back_data == data_rows
        assert back_agg == aggregate_rows

    def test_aggregate_row_follows_its_block(self, tmp_path):
        out = tmp_path / "report.csv"
        run_grid(tiny_grid(runs=2), out_path=out)
        lines = out.read_text().splitlines()
        assert lines[-1].split(",")[5] == "aggregate"
        assert "±" in lines[-1]

    def test_progress_hook_sees_every_row(self):
        seen = []
        data_rows, _ = run_grid(tiny_grid(runs=2), progress=seen.append)
        assert seen == data_rows

    def test_failed_cell_leaves_the_report_alone(self, tmp_path, monkeypatch):
        # the report is written once every cell has run: a cell that raises
        # leaves an earlier report's bytes as they were and creates no file
        calls = []

        def third_fails(points, cfg):
            calls.append(cfg)
            if len(calls) == 3:
                raise NoModelFound("planted")
            return fit(points, cfg)

        fit = bench.fit
        monkeypatch.setattr(bench, "fit", third_fails)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_bytes(b"an earlier report\n")
        for out in (old, new):
            calls.clear()
            with pytest.raises(NoModelFound, match="planted"):
                run_grid(tiny_grid(runs=2), out_path=out)
            assert len(calls) == 3
        assert old.read_bytes() == b"an earlier report\n"
        assert not new.exists()

    def test_unwritable_report_fails_before_any_fit(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "fit", lambda *args: calls.append(args))
        with pytest.raises(FileNotFoundError):
            run_grid(tiny_grid(), out_path=tmp_path / "missing" / "r.csv")
        with pytest.raises(IsADirectoryError):
            run_grid(tiny_grid(), out_path=tmp_path)
        assert calls == [] and not (tmp_path / "missing").exists()

    def test_read_report_names_a_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "report.csv"
        variants = (GridVariant(name="caf\u00e9", min_iterations=25, max_iterations=150),)
        run_grid(tiny_grid(variants, runs=1), out_path=path)
        text = path.read_bytes()
        assert read_report(path)[0][0]["variant"] == "caf\u00e9"
        path.write_bytes(text.decode("utf-8").encode("latin-1"))
        with pytest.raises(ParseError, match=f"report.csv: byte {text.index(b'caf') + 3}: "):
            read_report(path)

    def test_read_report_skips_a_byte_order_mark(self, tmp_path):
        path, marked = tmp_path / "report.csv", tmp_path / "bom.csv"
        run_grid(tiny_grid(runs=1), out_path=path)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_report(marked) == read_report(path)

    def test_read_report_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            read_report(path)
