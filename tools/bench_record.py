"""Benchmark two source trees in alternating order and record every run.

Usage, from the repository root:

    python3 tools/bench_record.py LABEL PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository whose
``BENCHMARK.json`` must be the same; the tool exits 1 before any run if it
is not. Each of ten pairs runs ``perfbench/run.py --all`` once from each
tree, with its ``run_seconds`` and default seed, as its own process with
the tree's own ``perfbench/`` and sources: the parent first in even pairs,
the change first in odd ones, so drift of the host over the runs falls on
both sides alike.

``BENCH_<LABEL>.json`` at the repository root then holds the benchmark
definition, each side's ``src_sha256`` (see :func:`src_sha256`, so a tree
exported without ``.git`` is still named) and ``src_lines`` (the line count
of the same files), the run order, every run's exit
status and the rest of the record ``--all`` wrote (the environment header
with the tree's commit where it is a git checkout, the seed and both
workloads' metrics), and, per side, workload and end-to-end metric, the
median and quartiles over the runs. The exit status is 1 if any run failed.

The summary's ``paired`` entry compares the two sides pair by pair, per
workload and metric: the change/parent ratio of each pair in which both
runs wrote a record, their median and quartiles (``statistics.quantiles``,
default method), the number of pairs the change won (ratio below 1) and
lost (above 1), the median change - parent difference, and a verdict:

- ``setup_s`` times the same input generation on both sides, so its pairs
  show only the host's drift. It is the control, and its verdict is
  ``control``.
- A time metric (``pipeline_s``, ``cluster_s``, ``layout_s``) is
  ``faster`` if the change won at least 9 pairs, the ratios' upper
  quartile is below 1, and the control won at most 7 pairs. It is
  ``slower`` if the change lost at least 9 pairs, the ratios' lower
  quartile is above 1, and the control lost at most 7 pairs.
- ``peak_rss_mb`` moves by a fraction of a megabyte in nearly every pair
  between trees that hold the same arrays, so the pair count alone says
  little. It is ``smaller`` if the change won at least 9 pairs and the
  median difference is at least 1 MB below 0, and ``larger`` if it lost at
  least 9 pairs and the median difference is at least 1 MB above 0.
- Anything else is ``no change shown``.

A verdict is evidence to quote, not a gate: the benchmark's bounds stay as
``BENCHMARK.json`` states them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# pairs of runs: a gain is claimed only if it shows in nine of ten
PAIRS = 10


def benchmark(tree: str) -> dict:
    """The benchmark definition, ``BENCHMARK.json``, of ``tree``."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def src_files(tree: str) -> list[tuple[str, bytes]]:
    """``(path, bytes)`` of the files under ``tree/src``, in sorted order
    of their relative paths. Bytecode caches and ``*.egg-info``
    directories, which running and installing leave behind, are skipped."""
    src = os.path.join(tree, "src")
    files = []
    for top, dirs, names in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__" and not d.endswith(".egg-info")]
        files += [os.path.relpath(os.path.join(top, name), src) for name in names]
    out = []
    for rel in sorted(path.replace(os.sep, "/") for path in files):
        with open(os.path.join(src, rel), "rb") as fh:
            out.append((rel, fh.read()))
    return out


def src_sha256(tree: str) -> str:
    """SHA-256 over :func:`src_files`: each path, its length in bytes and
    its bytes."""
    digest = hashlib.sha256()
    for rel, data in src_files(tree):
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def src_lines(tree: str) -> int:
    """Newlines in :func:`src_files`, the total ``wc -l`` prints for them."""
    return sum(data.count(b"\n") for _, data in src_files(tree))


def run_once(tree: str) -> dict:
    """One ``perfbench/run.py --all`` from ``tree``: its exit status and
    the record it wrote, or None if it wrote none."""
    tree = os.path.abspath(tree)
    results = os.path.join(tree, ".perfbench", "results.json")
    if os.path.exists(results):
        os.remove(results)
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--all"]
    status = subprocess.run(argv, cwd=tree).returncode
    record = None
    if os.path.exists(results):
        with open(results, encoding="utf-8") as fh:
            record = json.load(fh)
    return {"exit_status": status, "record": record}


def _values(runs: list[dict]):
    """``(pair, side, workload, metric, value)`` of every metric of every
    run that wrote a record."""
    for run in runs:
        if run["record"] is not None:
            for workload, result in run["record"]["results"].items():
                for metric, entry in result["metrics"].items():
                    yield run["pair"], run["side"], workload, metric, entry["value"]


def _spread(vals: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"median": statistics.median(vals), "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric, per side and
    workload, over the runs that wrote a record, and under ``paired`` the
    pair-by-pair comparison of :func:`_paired`."""
    values: dict = {}
    for _, side, workload, metric, value in _values(runs):
        values.setdefault(side, {}).setdefault(workload, {}).setdefault(
            metric, []).append(value)
    out: dict = {}
    for side, workloads in values.items():
        for workload, metrics in workloads.items():
            for metric, vals in metrics.items():
                out.setdefault(side, {}).setdefault(workload, {})[metric] = {
                    **_spread(vals), "runs": len(vals)}
    out["paired"] = _paired(runs)
    return out


def _paired(runs: list[dict]) -> dict:
    """Per workload and metric, the change/parent ratios of the pairs in
    which both runs wrote a record, in pair order, with the fields and the
    verdict the module docstring describes."""
    by_pair: dict = {}
    for pair, side, workload, metric, value in _values(runs):
        by_pair.setdefault(workload, {}).setdefault(metric, {}).setdefault(
            pair, {})[side] = value
    out: dict = {}
    for workload, metrics in by_pair.items():
        entries = out[workload] = {}
        for metric, pairs in metrics.items():
            both = [(v["parent"], v["change"]) for _, v in sorted(pairs.items())
                    if len(v) == 2]
            ratios = [change / parent for parent, change in both]
            entries[metric] = {
                "ratios": ratios, **_spread(ratios),
                "pairs_won": sum(r < 1 for r in ratios),
                "pairs_lost": sum(r > 1 for r in ratios),
                "median_difference": statistics.median(c - p for p, c in both)}
        for metric, entry in entries.items():
            entry["verdict"] = _verdict(metric, entry, entries.get("setup_s"))
    return out


def _verdict(metric: str, entry: dict, control: dict | None) -> str:
    """The verdict on one metric's :func:`_paired` entry, beside the
    control's entry of the same workload (None if it has none), by the
    rule of the module docstring."""
    won, lost = entry["pairs_won"] >= 9, entry["pairs_lost"] >= 9
    if metric == "setup_s":
        return "control"
    if metric == "peak_rss_mb":
        if won and entry["median_difference"] <= -1.0:
            return "smaller"
        if lost and entry["median_difference"] >= 1.0:
            return "larger"
    elif control is not None:
        if won and entry["q3"] < 1 and control["pairs_won"] <= 7:
            return "faster"
        if lost and entry["q1"] > 1 and control["pairs_lost"] <= 7:
            return "slower"
    return "no change shown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the record BENCH_<label>.json")
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    spec = benchmark(args.parent)
    if benchmark(args.change) != spec:
        print("the two trees' BENCHMARK.json differ; nothing was run",
              file=sys.stderr)
        return 1
    hashes = {side: src_sha256(tree) for side, tree in trees.items()}
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    runs = []
    for pair in range(PAIRS):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            print(f"pair {pair}: {side}", flush=True)
            runs.append({"pair": pair, "side": side, **run_once(trees[side])})
    # every record repeats its tree's benchmark definition; keep it once
    if any(run["record"].pop("benchmark") != spec
           for run in runs if run["record"]):
        print("a run's benchmark definition changed; no record written",
              file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    record_summary = summary(runs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "benchmark": spec, "src_sha256": hashes,
                   "src_lines": lines,
                   "order": [[run["pair"], run["side"]] for run in runs],
                   "summary": record_summary, "runs": runs}, fh, indent=1)
        fh.write("\n")
    for workload, metrics in record_summary["paired"].items():
        for metric, entry in metrics.items():
            print(f"{workload} {metric}: {entry['verdict']} (won {entry['pairs_won']} "
                  f"of {len(entry['ratios'])} pairs, median ratio {entry['median']:.3f})")
    print(f"wrote {path}")
    return 1 if any(run["exit_status"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
