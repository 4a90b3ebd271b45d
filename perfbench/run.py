"""casfit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fit-contaminated --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
reports the per-layer metrics, from spans recorded around casfit's layer
boundaries (see tracer.py).  Every operation's output is checked, and an
operation that raises or fails its check counts as failed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``correct`` also fails when more fits miss the generating ellipsoid than
the workload allows (see workloads.py).
The lines before it print every metric by name with its unit, then one JSON
line of details: environment, tail percentile, accuracy, exact counts.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BLAS_THREADS = 1     # one BLAS thread, so single-process numbers mean one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import calibrate  # noqa: E402  (numpy must see the thread cap above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5    # setup_s is the median of this many set-ups
# The kernel runs this many times after each set-up: single kernel times
# vary by about 20 % within a run, and set-ups are too few to average it out.
SETUP_KERNEL_RUNS = 5
# op_ms_tail is this percentile.  It is fixed, not chosen per run, so that a
# faster commit that completes more operations is compared at the same
# percentile.  Every workload completes about 40 or more operations in a
# 28 s run, which leaves about 10 or more beyond it; each run records its
# sample count and the number beyond.
TAIL_PCT = 75.0


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "casfit").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Loop:
    """Closed loop over a workload's operations; records each one.

    The reference kernel runs once before the first operation and once
    after each, so every operation has a kernel time on either side.
    """

    def __init__(self, workload, kernel):
        self.workload = workload
        self.kernel = kernel
        self.times = []       # wall seconds per operation
        self.kernel_s = [kernel.run()]
        self.completed = 0
        self.failures = []
        self.errors = []

    def run(self, i):
        wl = self.workload
        start = time.perf_counter()
        try:
            out = wl.run_op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.times.append(time.perf_counter() - start)
            self.kernel_s.append(self.kernel.run())
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        self.times.append(time.perf_counter() - start)
        self.kernel_s.append(self.kernel.run())
        self.completed += 1
        try:
            ok, errs = wl.check(i, out)
        except Exception as exc:  # an unreadable output fails the check
            ok, errs = False, []
            self.failures.append(f"op {i}: check raised {type(exc).__name__}: {exc}")
        else:
            if not ok:
                self.failures.append(f"op {i}: output check failed")
        self.errors.extend(errs)

    def scaled(self, first=0, last=None):
        """Operation times in seconds at the reference speed."""
        last = len(self.times) if last is None else last
        return [scale(self.times[i], self.kernel_s[i], self.kernel_s[i + 1])
                for i in range(first, last)]


def scale(seconds, kernel_before, kernel_after):
    return seconds * 2e-3 * calibrate.REFERENCE_MS / (kernel_before + kernel_after)


def main(argv=None):
    if not (SRC / "casfit" / "__init__.py").is_file():
        print(f"perfbench: no casfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import casfit
    import workloads
    import tracer as tracing

    if Path(casfit.__file__).resolve().parent != SRC / "casfit":
        print(f"perfbench: imported casfit from {casfit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    args = parse_args(argv, sorted(workloads.WORKLOADS))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload](args.seed, str(workdir)),
                       casfit, tracing, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, wl, casfit, tracing, import_s):
    kernel = calibrate.Kernel()
    tracer = tracing.Tracer() if args.trace else None
    # Set-up is timed SETUP_REPEATS times; the kernel runs before and after
    # each, and the median of all those kernel times scales them.
    setup_raw = []
    kernel_s = [kernel.run() for _ in range(SETUP_KERNEL_RUNS)]
    for rep in range(SETUP_REPEATS):
        traced_setup = tracer is not None and rep == SETUP_REPEATS - 1
        if traced_setup:
            tracer.install(casfit)
            tracer.op = -1
        start = time.perf_counter()
        wl.setup()
        setup_raw.append(time.perf_counter() - start)
        if traced_setup:
            tracer.uninstall()
        kernel_s.extend(kernel.run() for _ in range(SETUP_KERNEL_RUNS))
    setup_kernel = statistics.median(kernel_s)
    setup_s = scale(import_s + statistics.median(setup_raw), setup_kernel, setup_kernel)
    wl.reference()

    loop = Loop(wl, kernel)
    start = time.perf_counter()
    i = 0
    if tracer is not None:
        # Each operation of the window runs twice, untraced and traced, in
        # alternating order, so both runs see the same host speed.  The
        # ratio of their scaled times is the tracing overhead, and the
        # traced runs' counts are the exact ones.
        untraced, traced = [], []
        for i in range(wl.window):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    tracer.install(casfit)
                    tracer.op = i
                loop.run(i)
                if on:
                    tracer.uninstall()
                (traced if on else untraced).append(len(loop.times) - 1)
        times = loop.scaled()
        overhead = sum(times[k] for k in traced) / sum(times[k] for k in untraced)
        tracer.install(casfit)
        i = wl.window
    while time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.op = i
        loop.run(i)
        i += 1
    if tracer is not None:
        tracer.uninstall()

    attempted = len(loop.times)
    failed = len(loop.failures)
    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "env": environment(args.seed),
               "kernel_ms_p50": 1e3 * statistics.median(loop.kernel_s),
               "raw": {"setup_s": import_s + statistics.median(setup_raw),
                       "import_s": import_s, "setup_runs_s": setup_raw,
                       "ops_per_s": loop.completed / sum(loop.times),
                       "op_ms_p50": 1e3 * statistics.median(loop.times)},
               "fail_ratio": failed / attempted, "failures": loop.failures[:10]}
    report = [("fail_ratio", failed / attempted, "ratio")]
    miss_share = 0.0
    if loop.errors:
        details["semiaxis_err_p50"] = statistics.median(loop.errors)
        details["semiaxis_err_max"] = max(loop.errors)
        details["semiaxis_bound"] = wl.semiaxis_bound
        report.append(("semiaxis_err_p50", details["semiaxis_err_p50"], "ratio"))
        if wl.miss_error is not None:
            misses = sum(e > wl.miss_error for e in loop.errors)
            miss_share = misses / len(loop.errors)
            details["misses"] = {"fits": len(loop.errors), "missed": misses,
                                 "miss_error": wl.miss_error, "limit": wl.miss_limit}
            report.append(("miss_share", miss_share, "ratio"))

    if tracer is None:
        times = loop.scaled()
        tail = percentile(times, TAIL_PCT)
        details["op_ms_tail"] = {"percentile": TAIL_PCT, "samples": attempted,
                                 "beyond": sum(t > tail for t in times)}
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (loop.completed / sum(times), "1/s"),
            "op_ms_p50": (1e3 * statistics.median(times), "ms"),
            "op_ms_tail": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        window = set(range(wl.window))
        values, not_run = tracing.layer_metrics(tracer.spans, window)
        # Layer times are scaled to the reference speed by the run's median
        # kernel time, like the end-to-end times.
        typical = statistics.median(loop.kernel_s)
        speed = scale(1.0, typical, typical)
        metrics = {name: (values[name] * (speed if unit in ("us", "ms") else 1.0), unit)
                   for name, unit in tracing.LAYER_UNITS.items()}
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        details["not_run"] = not_run
        details["exact_counts"] = {name: values[name] for name in tracing.EXACT_COUNTS}
        details["spans"] = len(tracer.spans)
        details["span_table"] = {
            name: {k: (round(v, 6) if isinstance(v, float) else v) for k, v in row.items()}
            for name, row in sorted(tracing.summarize(tracer.spans).items())}

    for name, value, unit in [(n, v, u) for n, (v, u) in metrics.items()] + report:
        print(f"{args.workload:18s} {name:45s} {value:14.6g} {unit}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and miss_share <= wl.miss_limit,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
