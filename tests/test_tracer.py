"""perfbench/tracer.py still installs on the package and leaves it as it was.

The tracer wraps package names by string; a renamed or removed name would
break a traced benchmark run (``perfbench/run.py --trace 1``) long after
the change that removed it.
"""

import importlib.util
from pathlib import Path

import numpy as np

import casfit
from casfit import DatasetSpec, EllipsoidModel, FitConfig, make_instance, save_points
from casfit import bench, cli, consensus, distances, leastsq, quadric, synth

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (casfit, bench, cli, consensus, distances, leastsq, quadric, synth)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    return [dict(vars(owner)) for owner in (*MODULES, EllipsoidModel)]


def test_install_traces_a_fit_and_uninstall_restores_every_name():
    tracing = load_tracer()
    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install(casfit)
    try:
        assert casfit.fit is not before[0]["fit"]
        inst = make_instance(DatasetSpec(kind="outlier", point_count=500, sigma_rel=0.05,
                                         outlier_fraction=0.3, seed=1),
                             np.random.default_rng(1))
        casfit.fit(inst.points, FitConfig(epsilon=1.5 * inst.sigma, seed=1,
                                          max_iterations=200))
    finally:
        tracer.uninstall()
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"consensus.fit", "distances.evaluate_metric.pair"} <= names
    for was, now in zip(before, namespaces()):
        assert was.keys() == now.keys()
        assert all(now[name] is value for name, value in was.items())


def test_a_traced_cli_fit_records_the_reader_and_the_command(tmp_path):
    # synth.load_us_per_point and cli.self_ms are read off these two spans
    tracing = load_tracer()
    inst = make_instance(DatasetSpec(kind="outlier", point_count=300, sigma_rel=0.05,
                                     outlier_fraction=0.05, seed=2),
                         np.random.default_rng(2))
    path = tmp_path / "points.csv"
    save_points(inst.points, path)
    tracer = tracing.Tracer()
    tracer.install(casfit)
    try:
        code = cli.main(["fit", str(path), "--epsilon", repr(1.5 * inst.sigma),
                         "--max-iterations", "200", "--out", str(tmp_path / "model.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"synth.load_points", "cli.main", "consensus.fit"} <= names
