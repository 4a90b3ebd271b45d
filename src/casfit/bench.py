"""Benchmark harness: error metrics, residuals, experiment grids, CSV reports.

A grid crosses method variants with dataset recipes.  Instances are shared
across variants (their synthesis depends only on the dataset seed and the
instance index) and every run of a given (dataset, instance, run) cell uses
the same fit seed for all variants, so comparisons between variants are
paired.  Everything except the wall-clock columns is deterministic for a
fixed grid seed.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .consensus import FitConfig, fit
from .distances import MetricKind, _unit_terms, orthogonal_distance
from .errors import ParseError, read_json, read_text, require_integers, require_reals, require_seed
from .quadric import EllipsoidModel, as_points, validate_ellipsoid
from .synth import DatasetSpec, Instance, make_instance

CSV_COLUMNS = (
    "variant", "dataset_kind", "noise_level", "outlier_fraction", "instance",
    "run", "param_err", "semiaxis_err", "center_err", "sampson_res",
    "orth_res", "axial_res", "iterations", "lo_count", "is_ellipsoid", "wall_ms",
)

# Columns aggregated as mean +/- std in the per-(variant, dataset) rows.
AGGREGATE_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("param_err"):]


@dataclass(frozen=True)
class ErrorTriple:
    """L1 discrepancies between an estimate and the generating truth."""

    parameter_error: float
    semiaxis_error: float
    center_error: float


@dataclass(frozen=True)
class ResidualTriple:
    """Mean point distances under the three geometric metrics."""

    sampson_residual: float
    orthogonal_residual: float
    axial_residual: float


def fitting_errors(estimated: EllipsoidModel, truth: EllipsoidModel) -> ErrorTriple:
    """Coefficient, semiaxis and center discrepancies (all L1 norms).

    Coefficients are compared in their normalized form, semiaxes as the
    descending triples every ``EllipsoidModel`` holds, so the values do not
    depend on axis order or on the q / -q ambiguity.
    """
    param = float(np.abs(estimated.coeffs - truth.coeffs).sum())
    semiaxis = float(np.abs(estimated.semiaxes - truth.semiaxes).sum())
    center = float(np.abs(estimated.center - truth.center).sum())
    return ErrorTriple(param, semiaxis, center)


def residuals(model: EllipsoidModel, points) -> ResidualTriple:
    """Mean Sampson / orthogonal / axial distance of ``points`` to ``model``."""
    unit = _unit_terms(("sampson", "axial"), as_points(points), [model])  # one pass
    return ResidualTriple(
        sampson_residual=float(np.mean(unit["sampson"][0])),
        orthogonal_residual=float(np.mean(orthogonal_distance(points, model))),
        axial_residual=float(np.mean(unit["axial"][0])),
    )


_UNSET = object()  # not None: passing None for both thresholds is an error


@dataclass(frozen=True)
class GridVariant:
    """A named method configuration inside an experiment grid.

    The inlier threshold is either ``epsilon`` (absolute) or
    ``epsilon_rel_sigma`` (a multiple of each instance's planted noise
    level, mirroring per-dataset threshold tuning).  With neither given,
    ``epsilon_rel_sigma`` is 2.0.
    """

    name: str
    score_metric: str = str(FitConfig.score_metric)
    local_opt: bool = FitConfig.local_opt
    epsilon: Optional[float] = None
    epsilon_rel_sigma: Optional[float] = _UNSET  # type: ignore[assignment]
    min_iterations: int = FitConfig.min_iterations
    max_iterations: int = FitConfig.max_iterations

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ValueError(f"variant name must be a non-empty string, got {self.name!r}")
        if self.epsilon_rel_sigma is _UNSET:
            object.__setattr__(self, "epsilon_rel_sigma", 2.0 if self.epsilon is None else None)
        if (self.epsilon is None) == (self.epsilon_rel_sigma is None):
            raise ValueError("set exactly one of epsilon and epsilon_rel_sigma")
        require_reals(self, "epsilon" if self.epsilon_rel_sigma is None else "epsilon_rel_sigma")
        # Every other field is checked by the FitConfig it makes, so a bad
        # value fails when the grid is loaded, not after earlier cells ran.
        self.make_config(sigma=1.0, seed=0)

    def make_config(self, sigma: float, seed: int) -> FitConfig:
        eps = self.epsilon if self.epsilon is not None else self.epsilon_rel_sigma * sigma
        return FitConfig(
            epsilon=eps, score_metric=MetricKind.parse(self.score_metric),
            local_opt=self.local_opt, max_iterations=self.max_iterations,
            min_iterations=self.min_iterations, seed=seed)


@dataclass(frozen=True)
class ExperimentGrid:
    """Variants x datasets x instances x repeated runs."""

    variants: tuple
    datasets: tuple
    runs_per_instance: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if not self.variants or not self.datasets:
            raise ValueError("grid needs at least one variant and one dataset")
        require_integers(self, "runs_per_instance")
        require_seed(self)
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ValueError("variant names must be unique")
        if self.runs_per_instance < 1:
            raise ValueError("runs_per_instance must be positive")
        # sigma is sigma_rel times a mean semiaxis of at least 1: 0 exactly where sigma_rel is
        for v in self.variants:
            if v.epsilon is None and any(d.sigma_rel == 0.0 for d in self.datasets):
                raise ValueError(
                    f"variant {v.name!r} needs a noisy dataset to derive epsilon from")


def grid_from_json(doc) -> ExperimentGrid:
    """Build a grid from a parsed JSON document (see README for the schema)."""
    if not isinstance(doc, dict):
        raise ParseError("grid document must be a JSON object")
    try:
        variants = tuple(GridVariant(**v) for v in doc["variants"])
        datasets = tuple(DatasetSpec(**d) for d in doc["datasets"])
        given = {key: doc[key] for key in ("runs_per_instance", "seed") if key in doc}
        return ExperimentGrid(variants=variants, datasets=datasets, **given)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad grid document: {exc}") from exc


def load_grid(path) -> ExperimentGrid:
    return grid_from_json(read_json(path))


def _instance_rng(dataset: DatasetSpec, instance_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([dataset.seed, instance_index])))


def _fit_seed(grid_seed: int, dataset_index: int, instance_index: int, run_index: int) -> int:
    ss = np.random.SeedSequence([grid_seed, dataset_index, instance_index, run_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _check_writable(path) -> None:
    """Raise the OSError that writing ``path`` would, before any work is done.  It is opened as
    a writer will, but appending, so an existing file keeps its bytes, and no new file stays."""
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(os.path.realpath(path))  # a symlink stays, its new target goes


def run_grid(grid: ExperimentGrid, out_path=None, progress=None):
    """Run every cell of the grid; returns (data_rows, aggregate_rows).

    Rows are dicts keyed by CSV_COLUMNS, in canonical (variant, dataset,
    instance, run) order.  When ``out_path`` is given the report is written
    there as CSV, with each (variant, dataset) block followed by its
    aggregate row (instance 'all', run 'aggregate', cells 'mean±std').
    It is written after the last cell, but one that cannot be written raises before the first.
    """
    if out_path is not None:
        _check_writable(out_path)
    instances = [[make_instance(dataset, _instance_rng(dataset, i))
                  for i in range(dataset.instance_count)] for dataset in grid.datasets]
    blocks = []
    for variant in grid.variants:
        for di, dataset in enumerate(grid.datasets):
            cell = {"variant": variant.name, "dataset_kind": dataset.kind,
                    "noise_level": _fmt(dataset.sigma_rel),
                    "outlier_fraction": _fmt(dataset.outlier_fraction)}
            block = []
            for ii in range(dataset.instance_count):
                inst: Instance = instances[di][ii]
                for ri in range(grid.runs_per_instance):
                    cfg = variant.make_config(inst.sigma, _fit_seed(grid.seed, di, ii, ri))
                    report = fit(inst.points, cfg)
                    err = fitting_errors(report.model, inst.truth)
                    res = residuals(report.model, inst.points)
                    row = {
                        **cell,
                        "instance": str(ii),
                        "run": str(ri),
                        "param_err": _fmt(err.parameter_error),
                        "semiaxis_err": _fmt(err.semiaxis_error),
                        "center_err": _fmt(err.center_error),
                        "sampson_res": _fmt(res.sampson_residual),
                        "orth_res": _fmt(res.orthogonal_residual),
                        "axial_res": _fmt(res.axial_residual),
                        "iterations": str(report.iterations),
                        "lo_count": str(report.lo_invocations),
                        "is_ellipsoid": str(int(validate_ellipsoid(report.model.coeffs))),
                        "wall_ms": f"{1e3 * report.wall_time:.3f}",
                    }
                    block.append(row)
                    if progress is not None:
                        progress(row)
            blocks.append((block, _aggregate(cell, block)))
    data_rows = [row for block, _ in blocks for row in block]
    aggregate_rows = [agg for _, agg in blocks]
    if out_path is not None:
        _write_csv(out_path, blocks)
    return data_rows, aggregate_rows


def _aggregate(cell: dict, block: Sequence[dict]) -> dict:
    agg = {**cell, "instance": "all", "run": "aggregate"}
    for col in AGGREGATE_COLUMNS:
        vals = np.array([float(row[col]) for row in block])
        agg[col] = f"{vals.mean():.15g}±{vals.std():.15g}"
    return agg


def _write_csv(out_path, blocks) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for block, aggregate in blocks:
            writer.writerows(block)
            writer.writerow(aggregate)


def read_report(path):
    """Read a report CSV back into (data_rows, aggregate_rows)."""
    reader = csv.DictReader(io.StringIO(read_text(path, newline=""), newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
        raise ParseError(f"{path}: unexpected columns {reader.fieldnames}")
    data_rows, aggregate_rows = [], []
    for row in reader:
        (aggregate_rows if row["run"] == "aggregate" else data_rows).append(row)
    return data_rows, aggregate_rows
