"""Command-line front end: cluster, attrs, layout, stats.

Exit codes, set by the error's type: 0 success, 1 write failure or internal
error, 2 usage error or out of memory, 3 bad input file, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields

from .errors import NumericalError, ParseError, UsageError
from .pipeline import (
    _METHOD_KNOBS,
    LAYOUT_ITERATIONS,
    METHODS,
    RunConfig,
    document_bytes,
    run_attribute_summary,
    run_cluster,
    run_layout,
    run_stats,
)


def _grid_arg(text: str) -> tuple[int, int]:
    rows, sep, cols = text.partition("x")
    if not sep or not rows.isdigit() or not cols.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected ROWSxCOLS like 7x7, got {text!r}")
    return int(rows), int(cols)


def _radius_arg(text: str) -> tuple[float, float]:
    head, sep, tail = text.partition(",")
    try:
        if not sep:
            raise ValueError
        return float(head), float(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START,END like 3.5,0.5, got {text!r}") from None


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsom",
        description="Cluster weighted graphs by spectral embedding or heat "
                    "kernel, with k-means or a self-organizing map, and draw "
                    "the results.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each knob's default; every method that takes a knob gives it the same
    default = {name: value for knobs in _METHOD_KNOBS.values()
               for name, value in knobs.items()}

    cluster = sub.add_parser(
        "cluster", help="partition a graph and write the result document")
    cluster.add_argument("--input", required=True,
                         help="tab-separated edge list")
    cluster.add_argument("--method", required=True, choices=METHODS)
    cluster.add_argument("--k", type=int, help="number of clusters "
                         f"(spectral and kernel-kmeans; default {default['k']})")
    cluster.add_argument("--p", type=int, help="embedding width (spectral "
                         "methods; defaults to k, or to the unit count)")
    cluster.add_argument("--beta", type=float, help="heat kernel diffusion "
                         f"time (kernel methods; default {default['beta']})")
    cluster.add_argument("--grid", type=_grid_arg, metavar="RxC",
                         help="map size, required for som methods")
    cluster.add_argument("--epochs", type=int, help="training epochs "
                         f"(som methods; default {default['epochs']})")
    cluster.add_argument("--radius", type=_radius_arg, metavar="START,END",
                         help="neighborhood radius schedule (som methods)")
    cluster.add_argument("--restarts", type=int, help="k-means restarts "
                         f"(default {default['restarts']})")
    cluster.add_argument("--seed", type=_seed_arg, required=True)
    cluster.add_argument("--out", required=True,
                         help="where to write the partition document")
    cluster.add_argument("--report",
                         help="also write a statistics report here")

    attrs = sub.add_parser(
        "attrs", help="summarize per-vertex attributes cluster by cluster")
    attrs.add_argument("--partition", required=True,
                       help="partition document from the cluster command")
    attrs.add_argument("--attributes", required=True,
                       help="tab-separated attribute table")
    attrs.add_argument("--out", required=True,
                       help="where to write the summary document")

    layout = sub.add_parser("layout", help="render a partition or map as SVG")
    layout.add_argument("--mode", required=True, choices=tuple(LAYOUT_ITERATIONS))
    layout.add_argument("--input", required=True,
                        help="tab-separated edge list")
    source = layout.add_mutually_exclusive_group(required=True)
    source.add_argument("--partition", help="partition document to draw")
    source.add_argument("--model", help="partition document with a model "
                        "block (required for map and full modes)")
    layout.add_argument("--svg", required=True, help="output SVG path")
    layout.add_argument("--dot", help="also export DOT here")
    iterations = ", ".join(f"{n} {mode}" for mode, n in LAYOUT_ITERATIONS.items()
                           if n is not None)
    layout.add_argument("--iterations", type=int,
                        help=f"force iterations (default {iterations})")
    layout.add_argument("--seed", type=_seed_arg, required=True)

    stats = sub.add_parser(
        "stats", help="print the statistics report for a stored partition")
    stats.add_argument("--input", required=True,
                       help="tab-separated edge list")
    stats.add_argument("--partition", required=True,
                       help="partition document to score")
    return parser


def _show_warning(message, *_):
    # one line per warning, without the library's file name and source line
    print(f"graphsom: warning: {message}", file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "cluster":
        run_cluster(RunConfig(**{f.name: getattr(args, f.name)
                                 for f in fields(RunConfig)}))
    elif args.command == "attrs":
        run_attribute_summary(args.partition, args.attributes, args.out)
    elif args.command == "layout":
        run_layout(args.mode, args.input, partition_path=args.partition,
                   model_path=args.model, svg_path=args.svg,
                   dot_path=args.dot, iterations=args.iterations,
                   seed=args.seed)
    else:
        text = document_bytes(run_stats(args.input, args.partition)).decode("utf-8")
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise OSError(f"cannot write the report to standard output: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        with warnings.catch_warnings():
            # the library's own warnings, such as a dropped self-loop, are
            # part of the command's output: each one is shown
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _show_warning
            _dispatch(args)
    except (ParseError, UsageError, NumericalError, OSError) as exc:
        print(f"graphsom: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except MemoryError as exc:
        print(f"graphsom: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
