"""Command-line front end: cluster, attrs, layout, stats.

Exit codes, set by the error's type: 0 success, 1 write failure or internal
error, 2 usage or validation error, 3 bad input file, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NumericalError, ParseError, UsageError
from .pipeline import (
    METHODS,
    RunConfig,
    document_bytes,
    run_attribute_summary,
    run_cluster,
    run_layout,
    run_stats,
)

__all__ = ["build_parser", "main", "entry_point"]


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

    cluster = sub.add_parser(
        "cluster", help="partition a graph and write the result document")
    cluster.add_argument("--input", required=True,
                         help="tab-separated edge list")
    cluster.add_argument("--method", required=True, choices=METHODS)
    cluster.add_argument("--k", type=int, help="number of clusters "
                         "(spectral and kernel-kmeans; default 50)")
    cluster.add_argument("--p", type=int, help="embedding width (spectral "
                         "methods; defaults to k, or to the unit count)")
    cluster.add_argument("--beta", type=float, help="heat kernel diffusion "
                         "time (kernel methods; default 0.05)")
    cluster.add_argument("--grid", type=_grid_arg, metavar="RxC",
                         help="map size, required for som methods")
    cluster.add_argument("--epochs", type=int,
                         help="training epochs (som methods; default 100)")
    cluster.add_argument("--radius", type=_radius_arg, metavar="START,END",
                         help="neighborhood radius schedule (som methods)")
    cluster.add_argument("--restarts", type=int,
                         help="k-means restarts (default 10)")
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
    layout.add_argument("--mode", required=True,
                        choices=("summary", "map", "full"))
    layout.add_argument("--input", required=True,
                        help="tab-separated edge list")
    source = layout.add_mutually_exclusive_group(required=True)
    source.add_argument("--partition", help="partition document to draw")
    source.add_argument("--model", help="partition document with a model "
                        "block (required for map and full modes)")
    layout.add_argument("--svg", required=True, help="output SVG path")
    layout.add_argument("--dot", help="also export DOT here")
    layout.add_argument("--iterations", type=int,
                        help="force iterations (default 500 summary, 1000 full)")
    layout.add_argument("--seed", type=_seed_arg, required=True)

    stats = sub.add_parser(
        "stats", help="print the statistics report for a stored partition")
    stats.add_argument("--input", required=True,
                       help="tab-separated edge list")
    stats.add_argument("--partition", required=True,
                       help="partition document to score")
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "cluster":
        config = RunConfig(input=args.input, method=args.method,
                           seed=args.seed, out=args.out, report=args.report,
                           k=args.k, p=args.p, beta=args.beta, grid=args.grid,
                           epochs=args.epochs, radius=args.radius,
                           restarts=args.restarts)
        run_cluster(config)
    elif args.command == "attrs":
        run_attribute_summary(args.partition, args.attributes, args.out)
    elif args.command == "layout":
        run_layout(args.mode, args.input, partition_path=args.partition,
                   model_path=args.model, svg_path=args.svg,
                   dot_path=args.dot, iterations=args.iterations,
                   seed=args.seed)
    else:
        doc = run_stats(args.input, args.partition)
        sys.stdout.write(document_bytes(doc).decode("utf-8"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        _dispatch(args)
    except (ParseError, UsageError, NumericalError, OSError) as exc:
        print(f"graphsom: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    return 0


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
