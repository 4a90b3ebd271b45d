import csv
import dataclasses
import importlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casfit import (METRIC_KINDS, SAMPSON, DatasetSpec, EllipsoidModel, ExperimentGrid,
                    FitConfig, GridVariant, MetricKind, NoModelFound, ParseError, cas,
                    evaluate_metric, fit, grid_from_json, load_points, make_instance,
                    orthogonal_distance, read_report, required_iterations, run_grid,
                    sample_surface, save_points)
from casfit import bench, cli, distances
from casfit.cli import main
from casfit.synth import DATASET_KINDS, LOAD_BLOCK_ROWS

from conftest import make_model


def run_cli(argv):
    """main() plus argparse's SystemExit behavior, folded to an exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


@pytest.fixture()
def points_file(rng, tmp_path):
    m = make_model(rng)
    pts = sample_surface(m, 120, rng)
    pts += 0.01 * rng.normal(size=pts.shape)
    path = tmp_path / "points.csv"
    save_points(pts, path)
    return path, m


class TestFitCommand:
    def test_writes_model_json(self, points_file, tmp_path):
        path, truth = points_file
        out = tmp_path / "model.json"
        code = run_cli(["fit", str(path), "--epsilon", "0.05",
                        "--min-iterations", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        for key in ("q", "center", "semiaxes", "rotation", "score",
                    "inlier_ratio", "labels", "iterations", "lo_invocations",
                    "rng_algorithm", "score_metric", "epsilon", "seed"):
            assert key in doc
        assert len(doc["labels"]) == 120
        assert doc["score_metric"] == "cas:0.5"
        assert np.abs(np.sort(doc["semiaxes"]) - np.sort(truth.semiaxes)).max() < 0.05
        # deliberately no timing field: the document is run-to-run stable
        assert "wall_ms" not in doc and "wall_time" not in doc

    def test_unwritable_out_fails_before_the_fit(self, points_file, tmp_path, monkeypatch, capsys):
        path, _ = points_file
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise NoModelFound("not fitted")
        monkeypatch.setattr(cli, "fit", spy)
        out = tmp_path / "missing" / "model.json"
        assert run_cli(["fit", str(path), "--epsilon", "0.05", "--out", str(out)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("casfit: error: [Errno ") and repr(str(out)) in err

    def test_failed_fit_leaves_an_existing_out_alone(self, tmp_path):
        path = tmp_path / "flat.csv"
        save_points(np.c_[np.random.default_rng(3).uniform(-1, 1, (50, 2)), np.zeros(50)], path)
        out = tmp_path / "model.json"
        out.write_bytes(b"an earlier model")
        assert run_cli(["fit", str(path), "--epsilon", "0.05", "--out", str(out)]) == 2
        assert out.read_bytes() == b"an earlier model"

    def test_output_is_deterministic(self, points_file, tmp_path):
        path, _ = points_file
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(["fit", str(path), "--epsilon", "0.05",
                            "--min-iterations", "5", "--seed", "42",
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_default(self, points_file, capsys):
        path, _ = points_file
        assert run_cli(["fit", str(path), "--epsilon", "0.05",
                        "--min-iterations", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inlier_ratio"] > 0.9

    def test_document_is_the_indented_one_with_labels_on_one_line(self, points_file, tmp_path):
        path, _ = points_file
        out = tmp_path / "model.json"
        assert run_cli(["fit", str(path), "--epsilon", "0.05", "--min-iterations", "5",
                        "--seed", "42", "--out", str(out)]) == 0
        # the document as json.dumps(doc, indent=2) wrote it, one label per line
        report = fit(load_points(path), FitConfig(epsilon=0.05, min_iterations=5, seed=42))
        doc = report.model.to_json_dict()
        doc.update({
            "score": report.score, "inlier_ratio": report.inlier_ratio,
            "labels": report.inlier_mask.astype(int).tolist(),
            "iterations": report.iterations, "lo_invocations": report.lo_invocations,
            "rng_algorithm": report.rng_algorithm, "score_metric": str(cas()),
            "epsilon": 0.05, "seed": 42,
        })
        indented = json.dumps(doc, indent=2)
        text = out.read_text()
        assert text.endswith("}\n")
        got = json.loads(text)
        assert got == json.loads(indented)
        assert list(got) == list(doc)
        labels_line = f'  "labels": {json.dumps(doc["labels"])},'
        assert text.splitlines().count(labels_line) == 1
        head, rest = indented.split('  "labels": [\n', 1)
        tail = rest.split("\n  ],\n", 1)[1]
        assert text == f"{head}{labels_line}\n{tail}\n"

    def test_progress_goes_to_stderr(self, points_file, capsys):
        path, _ = points_file
        assert run_cli(["fit", str(path), "--epsilon", "0.05",
                        "--min-iterations", "5", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "iteration" in captured.err
        json.loads(captured.out)  # stdout stays machine readable


class TestJsonText:
    @pytest.mark.parametrize("mask", [
        np.zeros(9, dtype=bool), np.ones(9, dtype=bool), np.arange(9) % 3 == 0,
        np.zeros(10_000, dtype=bool), np.ones(10_000, dtype=bool),
        np.random.default_rng(4).random(10_000) < 0.05,
    ], ids=["zeros-9", "ones-9", "mixed-9", "zeros-10000", "ones-10000", "mixed-10000"])
    def test_flags_are_the_indented_document_with_the_list_on_one_line(self, mask):
        doc = {"q": [1.0, -0.5], "labels": mask, "seed": 3}
        flags = mask.astype(int).tolist()
        indented = json.dumps({**doc, "labels": flags}, indent=2)
        head, rest = indented.split('  "labels": [\n', 1)
        tail = rest.split("\n  ],\n", 1)[1]
        assert cli._json_text(doc, "labels") == f'{head}  "labels": {json.dumps(flags)},\n{tail}'


class TestSynthCommand:
    def test_writes_instances_with_sidecars(self, tmp_path):
        out = tmp_path / "data"
        code = run_cli(["synth", "--kind", "outlier", "--count", "60",
                        "--fraction", "0.25", "--instances", "3",
                        "--seed", "5", "--out", str(out)])
        assert code == 0
        for i in range(3):
            csv_path = out / f"instance_{i:03d}.csv"
            sidecar = json.loads((out / f"instance_{i:03d}.json").read_text())
            assert csv_path.exists()
            assert len(sidecar["is_outlier"]) == 60
            assert sum(sidecar["is_outlier"]) == 15
            assert sidecar["sigma"] > 0.0
            assert sidecar["spec"]["instance"] == i
            assert len(sidecar["model"]["q"]) == 10

    def test_sidecar_is_the_indented_one_with_is_outlier_on_one_line(self, tmp_path):
        assert run_cli(["synth", "--kind", "outlier", "--count", "40", "--fraction", "0.25",
                        "--instances", "1", "--seed", "3", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "instance_000.json").read_text()
        doc = json.loads(text)
        assert list(doc) == ["model", "is_outlier", "sigma", "spec"]
        indented = json.dumps(doc, indent=2)
        line = f'  "is_outlier": {json.dumps(doc["is_outlier"])},'
        head, rest = indented.split('  "is_outlier": [\n', 1)
        tail = rest.split("\n  ],\n", 1)[1]
        assert text == f"{head}{line}\n{tail}\n"

    def test_deterministic(self, tmp_path):
        for name in ("one", "two"):
            assert run_cli(["synth", "--kind", "gaussian", "--count", "40",
                            "--instances", "2", "--seed", "9",
                            "--out", str(tmp_path / name)]) == 0
        for i in range(2):
            a = (tmp_path / "one" / f"instance_{i:03d}.csv").read_bytes()
            b = (tmp_path / "two" / f"instance_{i:03d}.csv").read_bytes()
            assert a == b

    def test_points_and_truth_are_those_bench_fits(self, tmp_path, monkeypatch):
        spec = DatasetSpec(kind="outlier", point_count=40, sigma_rel=0.1,
                           outlier_fraction=0.25, instance_count=2, seed=11)
        assert run_cli(["synth", "--kind", "outlier", "--count", "40", "--sigma-rel", "0.1",
                        "--fraction", "0.25", "--instances", "2", "--seed", "11",
                        "--out", str(tmp_path)]) == 0
        fitted, truths = [], []

        def fit(points, cfg):
            fitted.append(points)
            return fit_original(points, cfg)

        def fitting_errors(estimated, truth):
            truths.append(truth)
            return errors_original(estimated, truth)

        fit_original, errors_original = bench.fit, bench.fitting_errors
        monkeypatch.setattr(bench, "fit", fit)
        monkeypatch.setattr(bench, "fitting_errors", fitting_errors)
        variant = GridVariant(name="v", min_iterations=5, max_iterations=20)
        run_grid(ExperimentGrid(variants=(variant,), datasets=(spec,), runs_per_instance=1))
        assert len(fitted) == len(truths) == 2
        for i in range(2):
            stem = tmp_path / f"instance_{i:03d}"
            sidecar = json.loads(stem.with_suffix(".json").read_text())
            assert np.array_equal(load_points(stem.with_suffix(".csv")), fitted[i])
            assert sidecar["model"]["q"] == truths[i].coeffs.tolist()
            assert sidecar["spec"] == {"kind": "outlier", "point_count": 40, "sigma_rel": 0.1,
                                       "outlier_fraction": 0.25, "instance_count": 2,
                                       "seed": 11, "instance": i}

    @pytest.mark.parametrize("sigma_rel", ["nan", "inf"])
    def test_non_finite_noise_fails(self, tmp_path, sigma_rel):
        out = tmp_path / "data"
        assert run_cli(["synth", "--kind", "gaussian", "--sigma-rel", sigma_rel,
                        "--out", str(out)]) == 2
        assert not out.exists()

    def test_fraction_on_the_gaussian_kind_fails(self, tmp_path):
        # the kind plants no outliers, so every sidecar would report a fraction it lacks
        out = tmp_path / "data"
        assert run_cli(["synth", "--kind", "gaussian", "--fraction", "0.3",
                        "--out", str(out)]) == 2
        assert not out.exists()


class TestBenchCommand:
    def test_runs_grid_to_csv(self, tmp_path, capsys):
        grid = {
            "variants": [{"name": "full", "min_iterations": 20,
                          "max_iterations": 100}],
            "datasets": [{"kind": "outlier", "point_count": 60,
                          "sigma_rel": 0.05, "outlier_fraction": 0.2,
                          "instance_count": 2, "seed": 1}],
            "runs_per_instance": 2,
            "seed": 0,
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "report.csv"
        assert run_cli(["bench", str(grid_path), "--out", str(out), "--progress"]) == 0
        data_rows, aggregate_rows = read_report(out)
        assert len(data_rows) == 4
        assert len(aggregate_rows) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"full outlier f=0.20000000000000001 instance {i} run {r}"
            for i in range(2) for r in range(2)]

    def test_bad_later_variant_fails_before_any_fit(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "fit", lambda *args: calls.append(args))
        good, noisy = {"name": "good"}, {"kind": "gaussian", "instance_count": 2}
        for variants, dataset, message in (
                # removed settings: the confidence target and the refit
                # schedule are constants, and the score metric weights refits
                ([good, {"name": "bad", "mu": 0.95}], noisy, "mu"),
                ([good, {"name": "bad", "lo_steps": 5}], noisy, "lo_steps"),
                ([good, {"name": "bad", "weight_metric": "sampson"}], noisy, "weight_metric"),
                ([good, {"name": "bad", "min_iterations": 0}], noisy, "iteration bounds"),
                # a relative threshold on a noise-free dataset, after the
                # absolute variant's cells
                ([{"name": "abs", "epsilon": 0.05}, {"name": "rel"}],
                 {"kind": "gaussian", "sigma_rel": 0, "instance_count": 2},
                 "'rel' needs a noisy dataset")):
            grid = {"variants": variants, "datasets": [dataset], "runs_per_instance": 10}
            with pytest.raises(ParseError, match=message):
                grid_from_json(grid)
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps(grid))
            out = tmp_path / "report.csv"
            assert run_cli(["bench", str(grid_path), "--out", str(out)]) == 2
            assert calls == [] and not out.exists()

    @pytest.mark.parametrize("out", ["missing/report.csv", "."])
    def test_unwritable_out_fails_before_any_fit(self, tmp_path, monkeypatch, capsys, out):
        # a missing directory, or a directory: no cell is fitted
        calls = []
        monkeypatch.setattr(bench, "fit", lambda *args: calls.append(args))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"variants": [{"name": "x"}],
                                         "datasets": [{"kind": "gaussian", "instance_count": 3}],
                                         "runs_per_instance": 5}))
        out_path = tmp_path / out
        assert run_cli(["bench", str(grid_path), "--out", str(out_path), "--progress"]) == 2
        assert calls == []
        err = capsys.readouterr().err  # no progress line: no cell ran
        assert err.startswith("casfit: error: [Errno ") and repr(str(out_path)) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]

    def test_string_local_opt_fails_before_any_fit(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "fit", lambda *args: calls.append(args))
        grid = {"variants": [{"name": "x", "local_opt": "false", "max_iterations": 60}],
                "datasets": [{"kind": "gaussian", "instance_count": 1}],
                "runs_per_instance": 1}
        with pytest.raises(ParseError, match="local_opt"):
            grid_from_json(grid)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "report.csv"
        assert run_cli(["bench", str(grid_path), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()


class TestConfigSurfaces:
    """casfit fit, grid variants and FitConfig build the same configuration."""

    def test_defaults_agree(self, points_file, monkeypatch):
        path, _ = points_file
        configs = []

        def capture(points, cfg, progress=None):
            configs.append(cfg)
            return fit(points, cfg, progress)

        monkeypatch.setattr(cli, "fit", capture)
        for extra, want in (([], FitConfig(epsilon=0.05)),
                            (["--metric", "sampson"],
                             FitConfig(epsilon=0.05, score_metric=SAMPSON))):
            configs.clear()
            assert run_cli(["fit", str(path), "--epsilon", "0.05", *extra]) == 0
            assert configs == [want]
        variant = GridVariant(name="v", epsilon=0.05, epsilon_rel_sigma=None)
        assert variant.make_config(sigma=0.3, seed=4) == FitConfig(epsilon=0.05, seed=4)
        relative = GridVariant(name="v", epsilon_rel_sigma=1.5, score_metric="sampson")
        assert relative.make_config(sigma=0.2, seed=4) == FitConfig(
            epsilon=1.5 * 0.2, seed=4, score_metric=SAMPSON)

    # Each FitConfig field: its casfit fit option and its GridVariant field,
    # each with the map from its value to the FitConfig one.  A grid variant
    # takes its seed from the grid.
    SURFACES = {
        "epsilon": (("epsilon", float), ("epsilon", float)),
        "score_metric": (("metric", MetricKind.parse), ("score_metric", MetricKind.parse)),
        "local_opt": (("no_lo", lambda no_lo: not no_lo), ("local_opt", bool)),
        "max_iterations": (("max_iterations", int), ("max_iterations", int)),
        "min_iterations": (("min_iterations", int), ("min_iterations", int)),
        "seed": (("seed", int), None),
    }

    def test_every_default_is_the_fit_config_one(self):
        parser = cli._build_parser()
        fit_parser = parser._subparsers._group_actions[0].choices["fit"]
        options = {action.dest: action for action in fit_parser._actions
                   if action.dest not in ("help", "points", "out", "progress")}
        variant_defaults = {field.name: field.default for field in dataclasses.fields(GridVariant)
                            if field.name not in ("name", "epsilon_rel_sigma")}
        fields = dataclasses.fields(FitConfig)
        assert [field.name for field in fields] == list(self.SURFACES)
        # neither surface has a setting FitConfig lacks
        assert set(options) == {cli_side[0] for cli_side, _ in self.SURFACES.values()}
        assert set(variant_defaults) == {grid_side[0] for _, grid_side in self.SURFACES.values()
                                         if grid_side is not None}
        for field in fields:
            (dest, from_cli), grid_side = self.SURFACES[field.name]
            if field.default is dataclasses.MISSING:
                # no default anywhere: the option is required, and a variant
                # without it takes a relative threshold
                assert options[dest].required, field.name
                assert grid_side is None or variant_defaults[grid_side[0]] is None, field.name
                continue
            assert from_cli(options[dest].default) == field.default, field.name
            if grid_side is not None:
                name, from_grid = grid_side
                assert from_grid(variant_defaults[name]) == field.default, field.name
        budget = inspect.signature(required_iterations).parameters["max_iterations"]
        assert budget.default == FitConfig(epsilon=1.0).max_iterations

    def test_synth_and_distances_defaults_are_the_library_ones(self, capsys):
        parser = cli._build_parser()
        synth = parser._subparsers._group_actions[0].choices["synth"]
        kind = next(action for action in synth._actions if action.dest == "kind")
        assert tuple(kind.choices) == DATASET_KINDS
        for name in DATASET_KINDS:
            args = parser.parse_args(["synth", "--kind", name, "--out", "d"])
            from_cli = DatasetSpec(kind=args.kind, point_count=args.count,
                                   sigma_rel=args.sigma_rel, outlier_fraction=args.fraction,
                                   instance_count=args.instances, seed=args.seed)
            for field in dataclasses.fields(DatasetSpec):
                assert getattr(from_cli, field.name) == getattr(DatasetSpec(name), field.name), \
                    field.name
        # distances writes the library's kinds at their default ratio, which
        # it takes from no option: another ratio is a blend of its own rows
        distances_parser = parser._subparsers._group_actions[0].choices["distances"]
        assert {action.dest for action in distances_parser._actions} == \
            {"help", "points", "model", "out"}
        assert vars(parser.parse_args(["distances", "p", "m"])).keys() == \
            {"command", "func", "points", "model", "out"}
        assert run_cli(["distances", "p", "m", "--lambda", "0.3"]) == 1
        assert "unrecognized arguments: --lambda" in capsys.readouterr().err

    def test_cli_fit_is_the_python_fit(self, tmp_path):
        # a metric other than cas() weights the refits on both surfaces
        inst = make_instance(DatasetSpec("outlier", 500, 0.25, 0.3), np.random.default_rng(3))
        path = tmp_path / "points.csv"
        save_points(inst.points, path)
        eps = 1.5 * inst.sigma
        out = tmp_path / "model.json"
        assert run_cli(["fit", str(path), "--epsilon", repr(eps), "--metric", "sampson",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        report = fit(inst.points, FitConfig(epsilon=eps, score_metric=SAMPSON))
        assert report.lo_invocations >= 1
        assert np.array(doc["q"]).tobytes() == report.model.coeffs.tobytes()
        assert doc["labels"] == report.inlier_mask.astype(int).tolist()


class TestDistancesCommand:
    def test_csv_covers_all_metrics(self, points_file, tmp_path, capsys):
        path, truth = points_file
        pts = np.vstack([truth.center, load_points(path)])  # Sampson reads +inf at the center
        save_points(pts, path)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(truth.to_json_dict()))
        out = tmp_path / "dist.csv"
        assert run_cli(["distances", str(path), str(model_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "point_index,metric,value"
        assert len(lines) == 1 + 7 * 121
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert metrics == {"algebraic", "sampson", "orthogonal", "axial",
                           "cas:0.5", "sampson+orthogonal:0.5",
                           "axial+orthogonal:0.5"}
        assert metrics == {str(MetricKind(name)) for name in METRIC_KINDS}
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= 0.0 for v in values)
        # each block in file order; %.17g reads back exactly
        rows = {}
        for line in lines[1:]:
            index, metric, value = line.split(",")
            assert int(index) == len(rows.setdefault(metric, []))
            rows[metric].append(float(value))
        rows = {metric: np.array(values) for metric, values in rows.items()}
        assert rows["sampson"][0] == np.inf
        # a pair row is 0.5 first + 0.5 second of the same point's single rows, bitwise
        for name, (first, second) in distances._PAIR_KINDS.items():
            blend = 0.5 * rows[first] + 0.5 * rows[second]
            assert rows[f"{name}:0.5"].tobytes() == blend.tobytes(), name
        # and the README recipe for another ratio is the library's blend, bitwise
        model = EllipsoidModel.from_json_dict(json.loads(model_path.read_text()))
        lam = 0.25
        recipe = lam * rows["axial"] + (1 - lam) * rows["sampson"]
        assert recipe.tobytes() == evaluate_metric(cas(lam), load_points(path), model).tobytes()

    def test_bytes_are_those_of_csv_writer(self, points_file, tmp_path, capsys, monkeypatch):
        path, truth = points_file
        pts = np.vstack([truth.center, load_points(path)])  # Sampson reads +inf at the center
        save_points(pts, path)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(truth.to_json_dict()))
        model = EllipsoidModel.from_json_dict(json.loads(model_path.read_text()))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["point_index", "metric", "value"])
        for name in METRIC_KINDS:
            kind = MetricKind(name)
            values = np.atleast_1d(evaluate_metric(kind, load_points(path), model)).tolist()
            writer.writerows([i, str(kind), f"{v:.17g}"] for i, v in enumerate(values))
        want = buf.getvalue()
        assert ",sampson,inf\r\n" in want
        # the blends reuse the orthogonal column: one exact solve per run
        solves = []
        monkeypatch.setattr(distances, "orthogonal_distance",
                            lambda *args: solves.append(1) or orthogonal_distance(*args))
        out = tmp_path / "dist.csv"
        argv = ["distances", str(path), str(model_path)]
        assert run_cli(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()
        capsys.readouterr()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == want
        assert len(solves) == 2

    def test_rows_past_one_block(self, rng, tmp_path, capsys):
        # the writer formats a block of rows at a time: the last, partial
        # block and the Sampson inf at the model center must come out whole
        model = make_model(rng)
        pts = sample_surface(model, 2 * LOAD_BLOCK_ROWS + 5, rng)
        pts[0] = model.center
        pts[1:] += 0.1 * rng.normal(size=(len(pts) - 1, 3))
        path, model_path = tmp_path / "points.csv", tmp_path / "model.json"
        save_points(pts, path)
        model_path.write_text(json.dumps(model.to_json_dict()))
        model = EllipsoidModel.from_json_dict(json.loads(model_path.read_text()))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["point_index", "metric", "value"])
        for name in METRIC_KINDS:
            kind = MetricKind(name)
            values = np.atleast_1d(evaluate_metric(kind, load_points(path), model)).tolist()
            writer.writerows([i, str(kind), f"{v:.17g}"] for i, v in enumerate(values))
        want = buf.getvalue()
        assert want.startswith("point_index,metric,value\r\n0,algebraic,")
        assert "\r\n0,sampson,inf\r\n" in want
        assert want.endswith(f"\r\n{len(pts) - 1},axial+orthogonal:0.5,{values[-1]:.17g}\r\n")
        out = tmp_path / "dist.csv"
        assert run_cli(["distances", str(path), str(model_path), "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()
        capsys.readouterr()
        assert run_cli(["distances", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == want


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        assert run_cli([]) == 1
        assert run_cli(["not-a-command"]) == 1
        assert run_cli(["fit", "pts.csv"]) == 1  # missing --epsilon
        assert run_cli(["synth", "--kind", "gaussian"]) == 1  # missing --out
        assert run_cli(["fit", "pts.csv", "--epsilon", "abc"]) == 1
        # the score metric also weights the refits
        assert run_cli(["fit", "pts.csv", "--epsilon", "1", "--weight-metric", "sampson"]) == 1
        # the confidence target and the refit schedule are constants
        assert run_cli(["fit", "pts.csv", "--epsilon", "1", "--mu", "0.9"]) == 1
        assert run_cli(["fit", "pts.csv", "--epsilon", "1", "--lo-steps", "3"]) == 1
        capsys.readouterr()

    def test_help_and_version_exit_0(self, capsys):
        assert run_cli(["--help"]) == 0
        assert run_cli(["--version"]) == 0
        assert run_cli(["fit", "--help"]) == 0
        out = capsys.readouterr().out
        assert "casfit" in out

    def test_runtime_errors_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert run_cli(["fit", missing, "--epsilon", "0.1"]) == 2

        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n")
        assert run_cli(["fit", str(bad), "--epsilon", "0.1"]) == 2

        few = tmp_path / "few.csv"
        few.write_text("x,y,z\n" + "\n".join("1,2,3" for _ in range(5)) + "\n")
        assert run_cli(["fit", str(few), "--epsilon", "0.1"]) == 2

        ok = tmp_path / "ok.csv"
        ok.write_text("x,y,z\n" + "\n".join("1,2,3" for _ in range(12)) + "\n")
        for metric in ("euclidean", "sampson:0.3"):
            assert run_cli(["fit", str(ok), "--epsilon", "0.1", "--metric", metric]) == 2
        assert run_cli(["fit", str(ok), "--epsilon", "-1.0"]) == 2
        assert run_cli(["fit", str(ok), "--epsilon", "inf"]) == 2

        planar = tmp_path / "planar.csv"
        planar.write_text("x,y,z\n" + "\n".join(f"{i % 8},{i // 8},0" for i in range(64)) + "\n")
        assert run_cli(["fit", str(planar), "--epsilon", "0.1"]) == 2
        assert "coplanar, collinear or identical" in capsys.readouterr().err

        # coordinates whose sum leaves the double range: a typed error naming
        # the magnitude, not a failed eigen-solve
        huge = tmp_path / "huge.csv"
        save_points(np.random.default_rng(0).uniform(1e306, 2e306, (500, 3)), huge)
        assert run_cli(["fit", str(huge), "--epsilon", "1e304"]) == 2
        assert "ellipsoid magnitudes" in capsys.readouterr().err

        not_json = tmp_path / "grid.json"
        not_json.write_text("{oops")
        assert run_cli(["bench", str(not_json), "--out",
                        str(tmp_path / "r.csv")]) == 2

        for variant, dataset in (({}, {"instance_count": 1.0}),
                                 ({"max_iterations": 60.5}, {}),
                                 ({"score_metric": 5}, {})):
            grid = tmp_path / "bad_grid.json"
            grid.write_text(json.dumps({
                "variants": [{"name": "v", "min_iterations": 5, "max_iterations": 20,
                              **variant}],
                "datasets": [{"kind": "gaussian", "point_count": 30,
                              "instance_count": 1, **dataset}],
                "runs_per_instance": 1}))
            assert run_cli(["bench", str(grid), "--out", str(tmp_path / "r.csv")]) == 2

        # a q that is not 10 JSON numbers, even where numpy would read one
        sphere = [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]
        for text in ("{}", "[1, 2]", '{"q": [1, 2]}', '{"q": {"a": 1}}',
                     json.dumps({"q": [str(v) for v in sphere]}),
                     json.dumps({"q": [bool(v) for v in sphere]}),
                     json.dumps({"q": [sphere[:5], sphere[5:]]}),
                     json.dumps({"q": [10 ** 400] + sphere[1:]})):  # past the double range
            model = tmp_path / "model.json"
            model.write_text(text)
            assert run_cli(["distances", str(ok), str(model)]) == 2
        assert "casfit: error: model" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self):
        # pytest's pythonpath setting does not reach the subprocess
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "casfit.cli", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "casfit" in proc.stdout

    def test_console_script_mapping(self, monkeypatch, capsys):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["casfit"]
        assert target == "casfit.cli:main"
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        # an installed script runs sys.exit(entry()) with the command line in sys.argv
        monkeypatch.setattr(sys, "argv", ["casfit", "--version"])
        with pytest.raises(SystemExit) as exc:
            sys.exit(entry())
        assert exc.value.code == 0
        assert "casfit" in capsys.readouterr().out

    @pytest.mark.skipif(shutil.which("casfit") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["casfit", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "casfit" in proc.stdout
