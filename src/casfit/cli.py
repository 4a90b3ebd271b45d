"""Command line interface: fit, synth, bench and distances subcommands.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import _check_writable, _instance_rng, load_grid, run_grid
from .consensus import FitConfig, fit
from .distances import METRIC_KINDS, ORTHOGONAL, MetricKind, _blend, _unit_terms, evaluate_metric
from .errors import CasfitError, read_json
from .quadric import EllipsoidModel, as_points
from .synth import DATASET_KINDS, DatasetSpec, _write_rows, load_points, make_instance, save_points

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this interface reserves 2
    # for runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fit_options(p_fit) -> None:
    p_fit.add_argument("points", help="3-column text file of points")
    p_fit.add_argument("--epsilon", type=float, required=True,
                       help="inlier distance threshold")
    p_fit.add_argument("--metric", default=str(FitConfig.score_metric),
                       help=f"score and refit weight metric, one of {', '.join(METRIC_KINDS)}"
                            " (blends take :ratio)")
    p_fit.add_argument("--no-lo", action="store_true",
                       help="disable the local-optimization cascade")
    p_fit.add_argument("--min-iterations", type=int, default=FitConfig.min_iterations)
    p_fit.add_argument("--max-iterations", type=int, default=FitConfig.max_iterations)
    p_fit.add_argument("--seed", type=int, default=FitConfig.seed)
    p_fit.add_argument("--out", default=None, help="write the result JSON here")
    p_fit.add_argument("--progress", action="store_true",
                       help="report progress on stderr")
    p_fit.set_defaults(func=_cmd_fit)


def _synth_options(p_synth) -> None:
    p_synth.add_argument("--kind", choices=DATASET_KINDS, required=True)
    p_synth.add_argument("--count", type=int, default=DatasetSpec.point_count,
                         help="points per instance")
    p_synth.add_argument("--sigma-rel", type=float, default=DatasetSpec.sigma_rel,
                         help="noise std relative to the mean semiaxis")
    p_synth.add_argument("--fraction", type=float, default=DatasetSpec.outlier_fraction,
                         help="outlier fraction (outlier kind only)")
    p_synth.add_argument("--instances", type=int, default=DatasetSpec.instance_count)
    p_synth.add_argument("--seed", type=int, default=DatasetSpec.seed)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)


def _bench_options(p_bench) -> None:
    p_bench.add_argument("grid", help="grid description JSON")
    p_bench.add_argument("--out", required=True, help="report CSV path")
    p_bench.add_argument("--progress", action="store_true",
                         help="report finished cells on stderr")
    p_bench.set_defaults(func=_cmd_bench)


def _distances_options(p_dist) -> None:
    p_dist.add_argument("points", help="3-column text file of points")
    p_dist.add_argument("model", help="model JSON (a document with a 'q' field)")
    p_dist.add_argument("--out", default=None, help="write the CSV here (default stdout)")
    p_dist.set_defaults(func=_cmd_distances)


_COMMANDS = {
    "fit": ("fit an ellipsoid to a point file", _fit_options),
    "synth": ("generate synthetic instances", _synth_options),
    "bench": ("run an experiment grid", _bench_options),
    "distances": ("evaluate all metrics for a point file", _distances_options),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casfit",
                     description="Robust ellipsoid fitting and benchmarking.")
    parser.add_argument("--version", action="version", version=f"casfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, add_options) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=text))
    return parser


def _json_text(doc: dict, key: str) -> str:
    """``json.dumps(doc, indent=2)``, but with the boolean array under ``key`` as 0/1 on one line.

    One entry per line would add a line per point and most of the
    pure-Python encoder's time.
    """
    flat = ", ".join((doc[key].view(np.uint8) + ord("0")).tobytes().decode("ascii"))
    return json.dumps({**doc, key: []}, indent=2).replace(f'"{key}": []', f'"{key}": [{flat}]', 1)


def _cmd_fit(args) -> int:
    if args.out:
        _check_writable(args.out)
    score = MetricKind.parse(args.metric)
    cfg = FitConfig(
        epsilon=args.epsilon, score_metric=score, local_opt=not args.no_lo,
        min_iterations=args.min_iterations, max_iterations=args.max_iterations,
        seed=args.seed)
    points = load_points(args.points)  # after the options are checked: a file can be large
    hook = None
    if args.progress:
        def hook(iteration, best_score, required):
            if iteration % 100 == 0 or iteration >= required:
                print(f"iteration {iteration}/{required} best score {best_score:.6g}",
                      file=sys.stderr)
    report = fit(points, cfg, progress=hook)
    doc = report.model.to_json_dict()
    doc.update({
        "score": report.score,
        "inlier_ratio": report.inlier_ratio,
        "labels": report.inlier_mask,
        "iterations": report.iterations,
        "lo_invocations": report.lo_invocations,
        "rng_algorithm": report.rng_algorithm,
        "score_metric": str(score),
        "epsilon": args.epsilon,
        "seed": args.seed,
    })
    text = _json_text(doc, "labels") + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_synth(args) -> int:
    spec = DatasetSpec(kind=args.kind, point_count=args.count,
                       sigma_rel=args.sigma_rel, outlier_fraction=args.fraction,
                       instance_count=args.instances, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i in range(spec.instance_count):
        inst = make_instance(spec, _instance_rng(spec, i))
        stem = os.path.join(args.out, f"instance_{i:03d}")
        save_points(inst.points, stem + ".csv")
        sidecar = {
            "model": inst.truth.to_json_dict(),
            "is_outlier": inst.is_outlier,
            "sigma": inst.sigma,
            "spec": {**dataclasses.asdict(spec), "instance": i},
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            fh.write(_json_text(sidecar, "is_outlier") + "\n")
    print(f"wrote {spec.instance_count} instances to {args.out}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    grid = load_grid(args.grid)
    hook = None
    if args.progress:
        def hook(row):
            print(f"{row['variant']} {row['dataset_kind']} f={row['outlier_fraction']} "
                  f"instance {row['instance']} run {row['run']}", file=sys.stderr)
    run_grid(grid, out_path=args.out, progress=hook)
    return 0


def _cmd_distances(args) -> int:
    if args.out:
        _check_writable(args.out)
    model = EllipsoidModel.from_json_dict(read_json(args.model))
    points = load_points(args.points)  # after the output and model are checked: a file can be large
    kinds = [MetricKind(k) for k in METRIC_KINDS]
    # each single kind once, the unit-frame ones from one pass: the blends are made from these
    singles = {"orthogonal": evaluate_metric(ORTHOGONAL, points, model)}
    unit = _unit_terms(("algebraic", "sampson", "axial"), as_points(points), [model])
    singles.update((name, vals[0]) for name, vals in unit.items())

    # the rows csv.writer would write: no field needs quoting, lines end in \r\n
    def write(fh):
        fh.write("point_index,metric,value\r\n")
        for kind in kinds:
            values = _blend(kind, singles)

            def fields(a, b):  # index, value, index, value, ... of one block
                flat = [0] * (2 * (b - a))
                flat[::2], flat[1::2] = range(a, b), values[a:b].tolist()
                return tuple(flat)
            _write_rows(fh, f"%d,{kind},%.17g\r\n", len(values), fields)

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = rest = None
    if argv and argv[0] in _COMMANDS:
        # the parser the tree hands the rest to; leftovers take the tree, for its message
        parser = _Parser(prog=f"casfit {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or rest:
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CasfitError, OSError, ValueError) as exc:
        print(f"casfit: error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
