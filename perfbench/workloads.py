"""Workload inputs, command sequences and output checks.

Every input is a pure function of the benchmark's ``--seed``. The graphs come
from the criterion-10 generator: a random weighted graph whose vertex pairs
are each joined with probability ``density``, drawn pair by pair from
``numpy.random.default_rng(1000 * seed + n)``. With the default seed 10 and
n=615 that is ``default_rng(10615)``, so the default landmark graph is the
criterion-10 landmark graph, written in the same edge-list form.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 10
# criterion 10 uses density 0.0225 at n=615, an average degree of about 13.8;
# larger graphs keep that degree
AVERAGE_DEGREE = 0.0225 * 614


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must leave behind.

    ``kind`` groups commands into the ``cluster_s`` and ``layout_s`` timings.
    ``outputs`` maps each file the command writes (or ``"-"`` for its
    standard output) to the check it must pass.
    """

    kind: str
    argv: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    attributes: bool
    commands: tuple[Command, ...]


def _cluster(method, out, report, *knobs):
    return Command("cluster",
                   ("cluster", "--input", "graph.tsv", "--method", method,
                    *knobs, "--out", out, "--report", report),
                   ((out, "partition"), (report, "report")))


def _layout(mode, source_flag, source, svg, *extra, dot=None, map_svg=False):
    argv = ("layout", "--mode", mode, "--input", "graph.tsv",
            source_flag, source, "--svg", svg, *extra)
    outputs = [(svg, "map-svg" if map_svg else "svg")]
    if dot is not None:
        argv += ("--dot", dot)
        outputs.append((dot, "dot"))
    return Command("layout", argv, tuple(outputs))


def _stats(partition):
    return Command("stats", ("stats", "--input", "graph.tsv",
                             "--partition", partition), (("-", "report"),))


WORKLOADS = {
    w.name: w for w in (
        Workload("landmark-drawing", 615, False, (
            _cluster("kernel-som", "som.json", "som-report.json",
                     "--grid", "7x7", "--beta", "0.05", "--epochs", "100"),
            _stats("som.json"),
            _layout("map", "--model", "som.json", "map.svg", map_svg=True),
            _layout("full", "--model", "som.json", "full.svg",
                    "--iterations", "1000", dot="full.dot"),
            _layout("summary", "--partition", "som.json", "summary.svg"),
        )),
        Workload("clusterings-1500", 1500, True, (
            _cluster("spectral", "spectral.json", "spectral-report.json",
                     "--k", "50"),
            _cluster("kernel-kmeans", "kkm.json", "kkm-report.json",
                     "--k", "50"),
            _stats("kkm.json"),
            Command("attrs", ("attrs", "--partition", "kkm.json",
                              "--attributes", "attrs.tsv",
                              "--out", "attrs.json"),
                    (("attrs.json", "attribute-summary"),)),
            _layout("summary", "--partition", "spectral.json", "summary.svg",
                    dot="summary.dot"),
            _cluster("kernel-som", "ksom.json", "ksom-report.json",
                     "--grid", "7x7"),
            _cluster("spectral-som", "ssom.json", "ssom-report.json",
                     "--grid", "7x7"),
            _layout("map", "--model", "ksom.json", "kmap.svg", map_svg=True),
            _layout("map", "--model", "ssom.json", "smap.svg", map_svg=True),
        )),
    )
}


def command_argv(cmd: Command, seed: int) -> list[str]:
    """The command line of ``cmd``; every graphsom command takes a seed
    except stats and attrs."""
    if cmd.kind in ("stats", "attrs"):
        return list(cmd.argv)
    return [*cmd.argv, "--seed", str(seed)]


def random_edge_weights(n: int, density: float,
                        rng: np.random.Generator) -> np.ndarray:
    """The criterion-10 generator, draw for draw.

    Each pair i < j gets an edge with probability ``density`` and a weight
    uniform in [0.1, 5); a vertex left without edges is joined to its
    successor so that every vertex appears in the edge list.
    """
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i, j] = w[j, i] = rng.uniform(0.1, 5.0)
    for i in range(n):
        if not w[i].any():
            j = (i + 1) % n
            w[i, j] = w[j, i] = rng.uniform(0.1, 5.0)
    return w


def write_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """Generate the workload's inputs from ``seed`` and write them."""
    n = workload.n
    density = AVERAGE_DEGREE / (n - 1)
    w = random_edge_weights(n, density, np.random.default_rng(1000 * seed + n))
    rows, cols = np.nonzero(np.triu(w, 1))
    lines = [f"v{i}\tv{j}\t{float(w[i, j])!r}"
             for i, j in zip(rows.tolist(), cols.tolist())]
    with open(os.path.join(workdir, "graph.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if workload.attributes:
        rng = np.random.default_rng([seed, n, 1])
        scores = rng.normal(50.0, 15.0, n)
        regions = rng.integers(0, 4, n)
        names = ("north", "south", "east", "west")
        lines = ["!schema\tscore:numeric\tregion:categorical"]
        for i in range(n):
            lines.append(f"v{i}\tscore\t{float(scores[i])!r}")
            lines.append(f"v{i}\tregion\t{names[regions[i]]}")
        with open(os.path.join(workdir, "attrs.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


_SCHEMAS = {"partition": "graphsom/partition", "report": "graphsom/report",
            "attribute-summary": "graphsom/attribute-summary"}


def check_output(kind: str, data: bytes | None, n: int) -> str | None:
    """Check one output; return ``None`` when it passes, else the reason."""
    if data is None:
        return "missing"
    if kind in _SCHEMAS:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        if not isinstance(doc, dict) or doc.get("schema") != _SCHEMAS[kind]:
            return f"schema is not {_SCHEMAS[kind]}"
        if kind == "partition":
            table = doc.get("assignment")
            if not isinstance(table, dict) or \
                    set(table) != {f"v{i}" for i in range(n)}:
                return "partition does not cover every vertex"
        return None
    if kind in ("svg", "map-svg"):
        if not data.startswith(b"<?xml"):
            return "SVG does not start with <?xml"
        if kind == "map-svg" and b'class="umatrix"' not in data:
            return 'map SVG lacks class="umatrix"'
        return None
    if kind == "dot":
        return None if data.strip() else "empty DOT file"
    raise ValueError(f"unknown output kind {kind!r}")


def cluster_q(outputs: dict[str, bytes | None], workload: Workload) -> list[float]:
    """Weighted q-modularity from the report of each cluster command."""
    qs = []
    for cmd in workload.commands:
        if cmd.kind == "cluster":
            report = next(path for path, kind in cmd.outputs
                          if kind == "report")
            doc = json.loads(outputs[report])
            qs.append(float(doc["partition"]["q_modularity"]))
    return qs
