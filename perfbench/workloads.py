"""The four benchmark workloads.

Each workload is a closed loop with one client: operation ``i`` starts only
after operation ``i - 1`` has returned and been checked.  Inputs come from
the workload seed alone.  ``setup`` builds and writes them and runs one
warm-up operation; it is timed and repeated.  ``reference`` computes what the
checks compare against; it runs once and is not timed.  ``run_op`` is the
timed operation and ``check`` verifies its output, returning whether it
passed and the relative semiaxis error of each fit it holds.

A fit's check holds it to what casfit promises for every fit: a valid
ellipsoid, and a score, labels, inlier ratio and iteration count that agree
with that ellipsoid under an independent recomputation (``check_fit``).
Closeness to the generating ellipsoid is not promised per fit: the
adaptive stop accepts a miss with probability up to 1 - mu (mu = 0.95),
and on heavily contaminated, noisy clouds the scoring objective can rank a
far larger ellipsoid above the generating one.  Where that holds, a fit
whose semiaxis error exceeds ``miss_error`` counts as a miss, and the run
fails when more than ``MISS_LIMIT`` of its fits miss.

casfit is reached through module attributes looked up at call time
(``casfit.fit``, ``casfit.cli.main``), so the tracer's wrappers apply.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import casfit
import casfit.cli
import casfit.synth
from casfit import DatasetSpec, EllipsoidGeometry, EllipsoidModel, FitConfig
from casfit.errors import NoModelFound
from casfit.quadric import decompose, validate_ellipsoid

import oracle

EPS_REL_SIGMA = 1.5   # inlier threshold as a multiple of the planted noise

# Lattice distances must match the reference to this relative tolerance
# (that of the acceptance suite's scipy oracle); values below 1e-3 are
# compared absolutely.
DISTANCE_RTOL = 1e-6
BLEND_RTOL = 1e-12

# casfit's defaults, which every fit of the workloads uses unless stated.
MU = 0.95
SAMPLE_SIZE = 9
MIN_ITERATIONS = 50
MAX_ITERATIONS = 100_000
LAM = 0.5

# Warm-up fits run exactly this many iterations (see Workload.warm_up).
WARM_UP_ITERATIONS = 200

# A fit misses when its relative semiaxis error exceeds a workload's
# ``miss_error``; a run fails when more than this share of its fits miss.
# It is three times the share of misses that mu = 0.95 allows.
MISS_LIMIT = 0.15


def _rng(seed, *keys):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *keys])))


def _fit_seed(seed, tag, i):
    return int(np.random.SeedSequence([seed, tag, i]).generate_state(1, np.uint32)[0])


def semiaxis_rel_error(estimated, truth):
    est = np.sort(np.asarray(estimated, dtype=float))[::-1]
    true = np.sort(np.asarray(truth, dtype=float))[::-1]
    return float(np.abs(est - true).sum() / true.mean())


def required_iterations(ratio, hi=MAX_ITERATIONS):
    """Fewest iterations the adaptive stop may run for a final inlier ratio.

    The loop stops once it has run ceil(log(1 - mu) / log(1 - v^9))
    iterations, clamped to [MIN_ITERATIONS, hi], where v is the inlier
    ratio of the best model at its last improvement: the model it returns.
    """
    vn = ratio ** SAMPLE_SIZE
    if vn >= 1.0:
        return MIN_ITERATIONS
    if vn <= 0.0:
        return hi
    raw = math.log1p(-MU) / math.log1p(-vn)
    return min(hi, max(MIN_ITERATIONS, math.ceil(raw * (1.0 - 1e-9))))


def check_fit(points, q, labels, score, ratio, iterations, epsilon,
              max_iterations=MAX_ITERATIONS):
    """Whether a fit's reported outputs agree with its ellipsoid ``q``.

    Distances come from ``oracle.blended_distances``.  A label may differ
    from ``distance < epsilon`` only where the two distances differ by
    rounding (within 1e-9 epsilon of the threshold).
    """
    d = oracle.blended_distances(points, q, LAM)
    if d is None or not validate_ellipsoid(q):
        return False
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (len(points),):
        return False
    tol = 1e-9 * epsilon
    if np.any((labels != (d < epsilon)) & (np.abs(d - epsilon) > tol)):
        return False
    energy = float(np.exp(-np.square(d) / (2.0 * epsilon * epsilon)).sum())
    if abs(score - energy) > 1e-9 * max(1.0, energy):
        return False
    if abs(ratio - labels.mean()) > 1e-12:
        return False
    return required_iterations(ratio, hi=max_iterations) <= iterations <= max_iterations


def _run_cli(argv):
    code = casfit.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"casfit {argv[0]} exited with {code}")


class Workload:
    name = ""
    tag = 0              # keeps the seed streams of workloads apart
    window = 8           # operations whose exact counts are reported
    # The semiaxis error is the L1 error of the sorted semiaxes divided by
    # the true mean semiaxis.  A fit fails its check when the error exceeds
    # ``semiaxis_bound``, on workloads whose fits are expected to recover
    # the object every time; elsewhere it misses when the error exceeds
    # ``miss_error`` (see the module docstring).
    semiaxis_bound = None
    miss_error = None
    miss_limit = MISS_LIMIT

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        self.build()
        self.warm_up()

    def warm_up(self):
        """One untimed, unchecked operation before the measured ones.

        Where the operation fits, the warm-up runs a fixed number of
        iterations instead: a fit's iteration count varies several-fold with
        the instance and its seed, and set-up time should not depend on the
        luck of one fit.
        """
        self.run_op(0)

    def reference(self):
        pass


class FitContaminated(Workload):
    """``casfit.fit`` on 500-point clouds with 50 % box outliers."""

    name = "fit-contaminated"
    tag = 1
    instances = 256
    window = 12
    miss_error = 10.0    # an order of magnitude

    def build(self):
        spec = DatasetSpec(kind="outlier", point_count=500, sigma_rel=0.25,
                           outlier_fraction=0.5, instance_count=self.instances)
        self.data = [casfit.synth.make_instance(spec, _rng(self.seed, self.tag, k))
                     for k in range(self.instances)]

    def run_op(self, i):
        inst = self.data[i % self.instances]
        return casfit.fit(inst.points, self._config(i))

    def _config(self, i, **limits):
        return FitConfig(epsilon=EPS_REL_SIGMA * self.data[i % self.instances].sigma,
                         seed=_fit_seed(self.seed, self.tag, i), **limits)

    def warm_up(self):
        cfg = self._config(0, min_iterations=WARM_UP_ITERATIONS,
                           max_iterations=WARM_UP_ITERATIONS)
        try:
            casfit.fit(self.data[0].points, cfg)
        except NoModelFound:
            pass  # ~3 % of samples validate here; the code paths still ran

    def check(self, i, report):
        inst = self.data[i % self.instances]
        ok = check_fit(inst.points, report.model.coeffs, report.inlier_mask, report.score,
                       report.inlier_ratio, report.iterations, self._config(i).epsilon)
        return ok, [semiaxis_rel_error(report.model.semiaxes, inst.truth.semiaxes)]


class FitDenseFile(Workload):
    """``casfit fit`` on files of 10,000 noisy surface points, 5 % outliers."""

    name = "fit-dense-file"
    tag = 2
    files = 8
    points = 10_000
    semiaxis_bound = 0.25

    def build(self):
        _run_cli(["synth", "--kind", "outlier", "--count", str(self.points),
                  "--sigma-rel", "0.05", "--fraction", "0.05",
                  "--instances", str(self.files), "--seed", str(self.seed),
                  "--out", self.path("dense")])
        self.truth = []
        for k in range(self.files):
            with open(self.path(f"dense/instance_{k:03d}.json"), encoding="utf-8") as fh:
                side = json.load(fh)
            self.truth.append((np.asarray(side["model"]["semiaxes"]), side["sigma"]))

    def reference(self):
        self.points = [np.loadtxt(self.path(f"dense/instance_{k:03d}.csv"), delimiter=",",
                                  skiprows=1, ndmin=2) for k in range(self.files)]

    def run_op(self, i):
        k = i % self.files
        out = self.path("model.json")
        _run_cli(["fit", self.path(f"dense/instance_{k:03d}.csv"),
                  "--epsilon", repr(EPS_REL_SIGMA * self.truth[k][1]),
                  "--seed", str(_fit_seed(self.seed, self.tag, i)), "--out", out])
        return out

    def check(self, i, out):
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        k = i % self.files
        q = np.asarray(doc["q"], dtype=float)
        if not check_fit(self.points[k], q, doc["labels"], doc["score"], doc["inlier_ratio"],
                         doc["iterations"], EPS_REL_SIGMA * self.truth[k][1]):
            return False, []
        err = semiaxis_rel_error(decompose(q).semiaxes, self.truth[k][0])
        return err <= self.semiaxis_bound, [err]


class DistancesLattice(Workload):
    """``casfit distances`` on axis-aligned 7x7x7 lattices centred on the model.

    Each lattice has one shape per seed; the lattices differ in centre and
    in which scene axis carries which semiaxis.  Every point with a zero
    lattice index on some axis lies on an axis plane of the model:
    7^3 - 6^3 = 127 of 343 points, a share of 37.0 %.  They include the
    centre and the points on the three axes.
    """

    name = "distances-lattice"
    tag = 3
    lattices = 8
    half = 3                 # lattice indices run from -half to half
    extent = 1.25            # outermost index reaches extent * longest semiaxis
    metrics = ("algebraic", "sampson", "orthogonal", "axial", "cas:0.5",
               "sampson+orthogonal:0.5", "axial+orthogonal:0.5")

    def build(self):
        rng = _rng(self.seed, self.tag)
        self.semiaxes = np.sort(rng.uniform(1.0, 5.0, 3))[::-1]
        self.spacing = self.extent * float(self.semiaxes[0]) / self.half
        ticks = np.arange(-self.half, self.half + 1)
        self.index = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"),
                              axis=-1).reshape(-1, 3)
        self.aligned_index = []
        for k in range(self.lattices):
            perm = rng.permutation(3)
            rotation = np.eye(3)[perm]
            if np.linalg.det(rotation) < 0.0:
                rotation[0] *= -1.0
            center = rng.uniform(-10.0, 10.0, 3)
            model = EllipsoidModel.from_geometry(EllipsoidGeometry(
                rotation=rotation, translation=-rotation @ center, semiaxes=self.semiaxes))
            casfit.save_points(center + self.spacing * self.index, self.path(f"lattice_{k}.csv"))
            with open(self.path(f"model_{k}.json"), "w", encoding="utf-8") as fh:
                json.dump(model.to_json_dict(), fh)
            self.aligned_index.append(self.index @ rotation.T)

    def reference(self):
        ticks = np.arange(self.half + 1)
        unique = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
        table = oracle.octant_distances(self.spacing * unique, self.semiaxes).reshape(
            (self.half + 1,) * 3)
        self.expected = []
        for aligned in self.aligned_index:
            a = np.abs(aligned).astype(int)
            u = self.spacing * aligned
            scale = np.sqrt(np.square(u / self.semiaxes).sum(axis=1))
            axial = np.abs(scale - 1.0) * np.linalg.norm(self.semiaxes) / 3.0
            self.expected.append((table[a[:, 0], a[:, 1], a[:, 2]], axial))

    def run_op(self, i):
        k = i % self.lattices
        out = self.path("distances.csv")
        _run_cli(["distances", self.path(f"lattice_{k}.csv"), self.path(f"model_{k}.json"),
                  "--out", out])
        return out

    def check(self, i, out):
        n = len(self.index)
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["point_index", "metric", "value"] or len(rows) != 1 + n * len(self.metrics):
            return False, []
        values = {}
        for j, metric in enumerate(self.metrics):
            block = rows[1 + j * n: 1 + (j + 1) * n]
            if any(r[1] != metric or int(r[0]) != p for p, r in enumerate(block)):
                return False, []
            values[metric] = np.array([float(r[2]) for r in block])
        orth_ref, axial_ref = self.expected[i % self.lattices]

        def close(got, want, rtol):
            # The model centre is a lattice point, and its Sampson distance
            # is +inf by definition; infinities must sit in the same places.
            same_inf = np.array_equal(np.isinf(got), np.isinf(want))
            fin = np.isfinite(want)
            return same_inf and bool(np.all(
                np.abs(got[fin] - want[fin]) <= rtol * np.maximum(np.abs(want[fin]), 1e-3)))

        ok = (all(np.all(v >= 0.0) for v in values.values())
              and np.all(np.isfinite(values["algebraic"]))
              and close(values["orthogonal"], orth_ref, DISTANCE_RTOL)
              and close(values["axial"], axial_ref, 1e-9)
              and close(values["cas:0.5"],
                        0.5 * (values["axial"] + values["sampson"]), BLEND_RTOL)
              and close(values["sampson+orthogonal:0.5"],
                        0.5 * (values["sampson"] + values["orthogonal"]), BLEND_RTOL)
              and close(values["axial+orthogonal:0.5"],
                        0.5 * (values["axial"] + values["orthogonal"]), BLEND_RTOL))
        return ok, []


class BenchGrid(Workload):
    """``casfit bench`` on small grids shaped like the acceptance grids."""

    name = "bench-grid"
    tag = 4
    grids = 64
    window = 4
    miss_error = 10.0    # an order of magnitude
    runs = 2
    max_iterations = 2000
    columns = ["variant", "dataset_kind", "noise_level", "outlier_fraction", "instance",
               "run", "param_err", "semiaxis_err", "center_err", "sampson_res",
               "orth_res", "axial_res", "iterations", "lo_count", "is_ellipsoid", "wall_ms"]

    def _doc(self, k, iterations=None):
        """Grid ``k``; ``iterations`` fixes every fit's iteration count."""
        seeds = np.random.SeedSequence([self.seed, self.tag, k]).generate_state(3, np.uint32)
        variant = {"epsilon_rel_sigma": EPS_REL_SIGMA, "max_iterations": self.max_iterations}
        if iterations is not None:
            variant.update(min_iterations=iterations, max_iterations=iterations)
        return {
            "variants": [dict(variant, name="blended+lo", score_metric="cas:0.5"),
                         dict(variant, name="sampson-plain", score_metric="sampson",
                              local_opt=False)],
            "datasets": [
                {"kind": "gaussian", "point_count": 500, "sigma_rel": 0.2,
                 "instance_count": 1, "seed": int(seeds[0])},
                {"kind": "outlier", "point_count": 500, "sigma_rel": 0.25,
                 "outlier_fraction": 0.3, "instance_count": 1, "seed": int(seeds[1])},
            ],
            "runs_per_instance": self.runs,
            "seed": int(seeds[2]),
        }

    def build(self):
        for k in range(self.grids):
            with open(self.path(f"grid_{k}.json"), "w", encoding="utf-8") as fh:
                json.dump(self._doc(k), fh)
        with open(self.path("grid_warm_up.json"), "w", encoding="utf-8") as fh:
            json.dump(self._doc(0, WARM_UP_ITERATIONS), fh)

    def warm_up(self):
        _run_cli(["bench", self.path("grid_warm_up.json"), "--out", self.path("report.csv")])

    def reference(self):
        # A grid's instance k of a dataset is drawn from SeedSequence([seed, k]).
        self.truth = []
        for k in range(self.grids):
            self.truth.append([
                float(casfit.synth.make_instance(
                    DatasetSpec(**d), _rng(d["seed"], 0)).truth.semiaxes.mean())
                for d in self._doc(k)["datasets"]])

    def run_op(self, i):
        out = self.path("report.csv")
        _run_cli(["bench", self.path(f"grid_{i % self.grids}.json"), "--out", out])
        return out

    def check(self, i, out):
        """Rows in grid order, each a valid fit, and aggregates that match them.

        Each (variant, dataset) block holds one row per run, then an
        aggregate row whose cells are the block's mean and population
        standard deviation, written as 'mean±std'.
        """
        with open(out, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != self.columns:
                return False, []
            rows = list(reader)
        doc = self._doc(i % self.grids)
        truth = self.truth[i % self.grids]
        if len(rows) != len(doc["variants"]) * len(doc["datasets"]) * (self.runs + 1):
            return False, []
        numeric = self.columns[6:]
        errs, ok, pos = [], True, 0
        for variant in doc["variants"]:
            lo = variant.get("local_opt", True)
            for d, dataset in enumerate(doc["datasets"]):
                block, agg = rows[pos:pos + self.runs], rows[pos + self.runs]
                pos += self.runs + 1
                for run, row in enumerate(block):
                    vals = {c: float(row[c]) for c in numeric}
                    ok = ok and (
                        (row["variant"], row["dataset_kind"], row["instance"], row["run"])
                        == (variant["name"], dataset["kind"], "0", str(run))
                        and all(math.isfinite(v) and v >= 0.0 for v in vals.values())
                        and row["is_ellipsoid"] == "1"
                        and MIN_ITERATIONS <= vals["iterations"] <= self.max_iterations
                        and (1 <= vals["lo_count"] <= vals["iterations"] if lo
                             else vals["lo_count"] == 0))
                    errs.append(vals["semiaxis_err"] / truth[d])
                ok = ok and (agg["variant"], agg["run"]) == (variant["name"], "aggregate")
                for c in numeric:
                    vals = np.array([float(row[c]) for row in block])
                    mean, _, std = agg[c].partition("±")
                    ok = ok and bool(np.allclose([float(mean), float(std)],
                                                 [vals.mean(), vals.std()],
                                                 rtol=1e-12, atol=1e-12))
        return ok, errs


WORKLOADS = {w.name: w for w in (FitContaminated, FitDenseFile, DistancesLattice, BenchGrid)}
