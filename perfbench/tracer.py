"""In-memory spans around casfit's layer boundaries, recorded from outside.

The tracer never edits the package.  It replaces the names that the
package's modules look up at call time (``casfit.consensus.lls_fit``,
``casfit.cli.load_points``, ``EllipsoidModel.from_coeffs``, ...) with
wrappers that record one span per call, and puts the originals back when
the run ends.  A span is ``[name, start, end, parent, op, points, error]``:
``parent`` is the index of the enclosing span (-1 for none), ``op`` the
operation id the runner set, ``points`` the number of points the call
handled (0 when it has none) and ``error`` the exception type name if the
call raised.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time

import numpy as np

NAME, START, END, PARENT, OP, POINTS, ERROR = range(7)


def _points_arg(position):
    def count(args, kwargs, result):
        pts = args[position] if len(args) > position else kwargs.get("points")
        return int(np.shape(pts)[0]) if np.ndim(pts) == 2 else 1
    return count


def _result_rows(args, kwargs, result):
    return int(np.shape(result)[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, count=None):
        """Return ``fn`` wrapped so each call records one span.

        ``name`` is a string, or a callable of the call's positional
        arguments returning one.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[POINTS] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name):
        """Open a span by hand; returns its record, closed by ``close``."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec, error=None):
        rec[END] = time.perf_counter()
        rec[ERROR] = error
        self._stack.pop()

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def patch_classmethod(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, classmethod(self.wrap(original.__func__, name)))

    def patch_orthogonal(self, owner, original, zero_snap):
        """Trace ``orthogonal_distance`` with axis-plane and generic points apart.

        A point is on an axis plane when one of its coordinates in the
        model's own frame is within ``zero_snap`` of the longest semiaxis of
        zero, which is the case the exact solver treats point by point.  A
        call holding both kinds is split into one call per kind, each under
        its own child span, and the results are put back in input order.
        """
        def split(points, model):
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2:
                return original(points, model)
            geom = model.geometry
            aligned = np.abs(pts @ geom.rotation.T + geom.translation)
            on_plane = (aligned <= zero_snap * float(geom.semiaxes.max())).any(axis=1)
            out = np.empty(len(pts))
            for mask, sub in ((on_plane, "distances.orthogonal.axisplane"),
                              (~on_plane, "distances.orthogonal.generic")):
                if mask.any():
                    rec = self.span(sub)
                    rec[POINTS] = int(mask.sum())
                    try:
                        out[mask] = original(pts[mask], model)
                    except BaseException as exc:
                        self.close(rec, type(exc).__name__)
                        raise
                    self.close(rec)
            return out

        self._restore.append((owner, "orthogonal_distance",
                              getattr(owner, "orthogonal_distance")))
        setattr(owner, "orthogonal_distance",
                self.wrap(split, "distances.orthogonal_distance", _points_arg(0)))

    def install(self, casfit):
        """Wrap every layer boundary the benchmark reports on."""
        from casfit import bench, cli, consensus, distances, leastsq, quadric, synth

        def metric_name(args):
            kind = args[0].kind if args else ""
            pair = kind not in ("algebraic", "sampson", "orthogonal", "axial")
            return "distances.evaluate_metric.pair" if pair else "distances.evaluate_metric.single"

        for owner in (casfit, consensus, cli, bench):
            self.patch(owner, "fit", "consensus.fit", _points_arg(0))
        self.patch(consensus, "sample_minimal", "consensus.sample_minimal")
        self.patch(consensus, "model_score", "consensus.model_score", _points_arg(1))
        self.patch(consensus, "local_optimize", "consensus.local_optimize", _points_arg(1))
        self.patch(consensus, "classify", "consensus.classify", _points_arg(0))
        self.patch(consensus, "lls_fit", "leastsq.lls_fit", _points_arg(0))
        self.patch(consensus, "wls_fit", "leastsq.wls_fit", _points_arg(0))
        self.patch(consensus, "gaussian_weights", "leastsq.gaussian_weights", _points_arg(0))
        for owner in (consensus, leastsq, cli):
            self.patch(owner, "evaluate_metric", metric_name, _points_arg(1))
        self.patch_classmethod(quadric.EllipsoidModel, "from_coeffs", "quadric.from_coeffs")
        zero_snap = getattr(distances, "ZERO_SNAP", 0.0)
        for owner in (distances, bench):
            self.patch_orthogonal(owner, getattr(owner, "orthogonal_distance"), zero_snap)
        self.patch(synth, "make_instance", "synth.make_instance")
        self.patch(bench, "make_instance", "synth.make_instance")
        self.patch(cli, "make_instance", "synth.make_instance")
        self.patch(cli, "load_points", "synth.load_points", _result_rows)
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "load_grid", "bench.load_grid")
        self.patch(cli, "run_grid", "bench.run_grid")
        self.patch(bench, "residuals", "bench.residuals", _points_arg(1))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# Per-layer metrics and their units.  README.md says which end-to-end
# metric and workload each one should move.
LAYER_UNITS = {
    "consensus.iterations": "count",
    "consensus.sample_us": "us",
    "consensus.loop_self_ms": "ms",
    "consensus.score_calls": "count",
    "consensus.score_us_per_point": "us",
    "consensus.lo_calls": "count",
    "consensus.lo_ms": "ms",
    "consensus.classify_calls": "count",
    "consensus.classify_ms": "ms",
    "leastsq.minimal_us": "us",
    "leastsq.minimal_fail_ratio": "ratio",
    "leastsq.refit_ms": "ms",
    "leastsq.weights_us_per_point": "us",
    "quadric.validate_us": "us",
    "quadric.valid_ratio": "ratio",
    "distances.orthogonal_axisplane_us_per_point": "us",
    "distances.orthogonal_generic_us_per_point": "us",
    "distances.blend_us_per_point": "us",
    "distances.axisplane_share": "ratio",
    "synth.load_us_per_point": "us",
    "synth.instance_ms": "ms",
    "cli.self_ms": "ms",
    "bench.fit_ms": "ms",
    "bench.residuals_ms": "ms",
    "bench.self_ms": "ms",
}

EXACT_COUNTS = ("consensus.iterations", "consensus.score_calls", "consensus.lo_calls",
                "consensus.classify_calls", "quadric.valid_ratio")


def summarize(spans):
    """Per span name: calls, errors, total seconds, self seconds, points."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    table = {}
    for i, rec in enumerate(spans):
        row = table.setdefault(rec[NAME], {"calls": 0, "errors": 0, "total_s": 0.0,
                                           "self_s": 0.0, "points": 0})
        dur = rec[END] - rec[START]
        row["calls"] += 1
        row["errors"] += rec[ERROR] is not None
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        row["points"] += rec[POINTS]
    return table


def layer_metrics(spans, window):
    """Per-layer metrics from recorded spans; returns (metrics, not_run).

    Timings use every span.  Counts and ratios use the spans of the
    operations in ``window`` only, a fixed list of operations that every
    traced run completes, so they repeat exactly at one seed.  A metric
    whose layer made no call reads 0 and is listed in ``not_run``.
    """
    table = summarize(spans)
    in_window = [rec for rec in spans if rec[OP] in window]
    fit_ids = {i for i, rec in enumerate(spans)
               if rec[NAME] == "consensus.fit" and rec[OP] in window}

    def row(name):
        return table.get(name, {"calls": 0, "errors": 0, "total_s": 0.0,
                                "self_s": 0.0, "points": 0})

    def per_call(name, key="total_s", scale=1e3):
        r = row(name)
        return scale * r[key] / r["calls"] if r["calls"] else None

    def per_point(name, key="total_s"):
        r = row(name)
        return 1e6 * r[key] / r["points"] if r["points"] else None

    def window_count(name, parent_is_fit=False, ok=None):
        return sum(1 for rec in in_window if rec[NAME] == name
                   and (not parent_is_fit or rec[PARENT] in fit_ids)
                   and (ok is None or (rec[ERROR] is None) == ok))

    def ratio(num, den):
        return num / den if den else None

    fits = len(fit_ids)
    grids = {i for i, rec in enumerate(spans) if rec[NAME] == "bench.run_grid"}
    cell_fits = [rec[END] - rec[START] for rec in spans
                 if rec[NAME] == "consensus.fit" and rec[PARENT] in grids]
    minimal = window_count("leastsq.lls_fit", parent_is_fit=True)
    plane_pts = sum(rec[POINTS] for rec in in_window
                    if rec[NAME] == "distances.orthogonal.axisplane")
    generic_pts = sum(rec[POINTS] for rec in in_window
                      if rec[NAME] == "distances.orthogonal.generic")
    values = {
        "consensus.iterations": ratio(window_count("consensus.sample_minimal"), fits),
        "consensus.sample_us": per_call("consensus.sample_minimal", "self_s", 1e6),
        "consensus.loop_self_ms": per_call("consensus.fit", "self_s"),
        "consensus.score_calls": ratio(window_count("consensus.model_score"), fits),
        "consensus.score_us_per_point": per_point("consensus.model_score"),
        "consensus.lo_calls": ratio(window_count("consensus.local_optimize"), fits),
        "consensus.lo_ms": per_call("consensus.local_optimize"),
        "consensus.classify_calls": ratio(window_count("consensus.classify"), fits),
        "consensus.classify_ms": per_call("consensus.classify"),
        "leastsq.minimal_us": per_call("leastsq.lls_fit", scale=1e6),
        "leastsq.minimal_fail_ratio": ratio(sum(
            1 for rec in in_window if rec[NAME] == "leastsq.lls_fit"
            and rec[PARENT] in fit_ids and rec[ERROR] == "RankDeficient"), minimal),
        "leastsq.refit_ms": per_call("leastsq.wls_fit"),
        "leastsq.weights_us_per_point": per_point("leastsq.gaussian_weights"),
        "quadric.validate_us": per_call("quadric.from_coeffs", scale=1e6),
        "quadric.valid_ratio": ratio(
            window_count("quadric.from_coeffs", parent_is_fit=True, ok=True), minimal),
        "distances.orthogonal_axisplane_us_per_point":
            per_point("distances.orthogonal.axisplane"),
        "distances.orthogonal_generic_us_per_point": per_point("distances.orthogonal.generic"),
        "distances.blend_us_per_point": per_point("distances.evaluate_metric.pair", "self_s"),
        "distances.axisplane_share": ratio(plane_pts, plane_pts + generic_pts),
        "synth.load_us_per_point": per_point("synth.load_points"),
        "synth.instance_ms": per_call("synth.make_instance"),
        "cli.self_ms": per_call("cli.main", "self_s"),
        "bench.fit_ms": 1e3 * sum(cell_fits) / len(cell_fits) if cell_fits else None,
        "bench.residuals_ms": per_call("bench.residuals"),
        "bench.self_ms": per_call("bench.run_grid", "self_s"),
    }
    not_run = sorted(name for name, value in values.items() if value is None)
    return {name: (0.0 if value is None else value) for name, value in values.items()}, not_run
