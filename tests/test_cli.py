import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from casfit import (DatasetSpec, ExperimentGrid, GridVariant, load_points,
                    read_report, run_grid, sample_surface, save_points)
from casfit import bench
from casfit.cli import main

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

    def test_progress_goes_to_stderr(self, points_file, capsys):
        path, _ = points_file
        assert run_cli(["fit", str(path), "--epsilon", "0.05",
                        "--min-iterations", "5", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "iteration" in captured.err
        json.loads(captured.out)  # stdout stays machine readable


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


class TestBenchCommand:
    def test_runs_grid_to_csv(self, tmp_path):
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
        assert run_cli(["bench", str(grid_path), "--out", str(out)]) == 0
        data_rows, aggregate_rows = read_report(out)
        assert len(data_rows) == 4
        assert len(aggregate_rows) == 1

    def test_bad_later_variant_fails_before_any_fit(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "fit", lambda *args: calls.append(args))
        grid = {"variants": [{"name": "good"}, {"name": "bad", "mu": 5.0}],
                "datasets": [{"kind": "gaussian", "instance_count": 2}],
                "runs_per_instance": 10}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "report.csv"
        assert run_cli(["bench", str(grid_path), "--out", str(out)]) == 2
        assert calls == [] and not out.exists()


class TestDistancesCommand:
    def test_csv_covers_all_metrics(self, points_file, tmp_path, capsys):
        path, truth = points_file
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(truth.to_json_dict()))
        out = tmp_path / "dist.csv"
        assert run_cli(["distances", str(path), str(model_path),
                        "--lambda", "0.25", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "point_index,metric,value"
        assert len(lines) == 1 + 7 * 120
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert metrics == {"algebraic", "sampson", "orthogonal", "axial",
                           "cas:0.25", "sampson+orthogonal:0.25",
                           "axial+orthogonal:0.25"}
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(v >= 0.0 for v in values)


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        assert run_cli([]) == 1
        assert run_cli(["not-a-command"]) == 1
        assert run_cli(["fit", "pts.csv"]) == 1  # missing --epsilon
        assert run_cli(["synth", "--kind", "gaussian"]) == 1  # missing --out
        assert run_cli(["fit", "pts.csv", "--epsilon", "abc"]) == 1
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
        assert run_cli(["fit", str(ok), "--epsilon", "0.1",
                        "--metric", "euclidean"]) == 2
        assert run_cli(["fit", str(ok), "--epsilon", "-1.0"]) == 2
        assert run_cli(["fit", str(ok), "--epsilon", "inf"]) == 2

        planar = tmp_path / "planar.csv"
        planar.write_text("x,y,z\n" + "\n".join(f"{i % 8},{i // 8},0" for i in range(64)) + "\n")
        assert run_cli(["fit", str(planar), "--epsilon", "0.1"]) == 2
        assert "coplanar, collinear or identical" in capsys.readouterr().err

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

        for text in ("{}", "[1, 2]", '{"q": [1, 2]}', '{"q": {"a": 1}}'):
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

    @pytest.mark.skipif(shutil.which("casfit") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["casfit", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "casfit" in proc.stdout
