"""End-to-end runs: configuration, result documents, and the pipeline stages.

Every output is a JSON document with a ``schema`` name and ``schema_version``
so files are self-describing. Documents are serialized with a fixed key
order, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import IO, Mapping

import numpy as np

from . import graph
from .cluster import kernel_kmeans, partition_stats, q_modularity, spectral_clustering
from .errors import ParseError, UsageError
from .graph import Partition, WeightedGraph, load_edge_list, read_text, summary_graph
from .linalg import heat_kernel
from .som import SomGrid, SomModel, UMatrix, batch_kernel_som, default_radius, \
    som_partition, spectral_som

__all__ = [
    "PARTITION_SCHEMA",
    "REPORT_SCHEMA",
    "ATTRIBUTE_SUMMARY_SCHEMA",
    "SCHEMA_VERSION",
    "PARTITION_SCHEMA_VERSION",
    "RunConfig",
    "AttributeTable",
    "parse_attribute_table",
    "attribute_summary",
    "document_bytes",
    "read_document",
    "load_partition_document",
    "partition_for_graph",
    "model_from_document",
    "run_cluster",
    "run_attribute_summary",
    "run_layout",
    "run_stats",
]

PARTITION_SCHEMA = "graphsom/partition"
REPORT_SCHEMA = "graphsom/report"
ATTRIBUTE_SUMMARY_SCHEMA = "graphsom/attribute-summary"
SCHEMA_VERSION = 1
PARTITION_SCHEMA_VERSION = 2

# each method's knobs and their defaults; anything else is a typo. A None
# default is worked out in RunConfig.resolved(): p from k or from the unit
# count, the radius from the grid; the grid is required.
_METHOD_KNOBS = {
    "spectral": {"k": 50, "p": None, "restarts": 10},
    "kernel-kmeans": {"k": 50, "beta": 0.05, "restarts": 10},
    "spectral-som": {"p": None, "grid": None, "epochs": 100, "radius": None},
    "kernel-som": {"beta": 0.05, "grid": None, "epochs": 100, "radius": None},
}
METHODS = tuple(_METHOD_KNOBS)

# each layout mode's default force iterations; None takes no --iterations
LAYOUT_ITERATIONS = {"summary": 500, "map": None, "full": 1000}


@dataclass(frozen=True)
class RunConfig:
    """One clustering run: input, method, knobs, seed, output paths.

    Optional knobs default to ``None`` meaning "not given"; method-specific
    defaults are filled in by :meth:`resolved`. Knobs that do not apply to
    the chosen method are rejected outright so typos fail loudly. Value
    ranges are checked once, by the library functions that use them.
    """

    input: str
    method: str
    seed: int
    out: str
    report: str | None = None
    # fields 5 on are the knobs, in the order the report lists them
    k: int | None = None
    p: int | None = None
    beta: float | None = None
    grid: tuple[int, int] | None = None
    epochs: int | None = None
    radius: tuple[float, float] | None = None
    restarts: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(
                f"unknown method {self.method!r}; expected one of {', '.join(METHODS)}")
        knobs = _METHOD_KNOBS[self.method]
        for f in fields(self)[5:]:
            if getattr(self, f.name) is not None and f.name not in knobs:
                raise UsageError(f"--{f.name} does not apply to method {self.method}")
        if "grid" in knobs and self.grid is None:
            raise UsageError(f"--grid is required for method {self.method}")

    def resolved(self) -> dict:
        """Full configuration with the method's defaults filled in.

        A knob given takes the type of its default, int or float; p falls
        back to k for spectral clustering and to the unit count for the
        spectral map; the radius schedule falls back to the grid default.
        """
        cfg = {"input": str(self.input), "method": self.method,
               "seed": int(self.seed), "out": str(self.out),
               "report": None if self.report is None else str(self.report)}
        knobs = _METHOD_KNOBS[self.method]
        for f in fields(self)[5:]:
            value, default = getattr(self, f.name), knobs.get(f.name)
            if value is None:
                value = default
            cfg[f.name] = value if default is None else type(default)(value)
        if "grid" in knobs:
            rows, cols = int(self.grid[0]), int(self.grid[1])
            cfg["grid"] = {"rows": rows, "cols": cols}
            radius = (default_radius(SomGrid(rows, cols))
                      if self.radius is None else self.radius)
            cfg["radius"] = [float(radius[0]), float(radius[1])]
        if "p" in knobs:
            fallback = cfg["k"] if "k" in knobs else rows * cols
            cfg["p"] = int(fallback if self.p is None else self.p)
        return cfg


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def document_bytes(doc: dict) -> bytes:
    """Serialize a document dict to its canonical UTF-8 form."""
    return (json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False,
                       default=_json_default) + "\n").encode("utf-8")


def _write_outputs(outputs: list[tuple[object, bytes]]) -> None:
    """Write every ``(path, data)`` pair of one command, or none of them.

    Each output goes to a fresh temporary file in its target's directory;
    only when all of them are written are they renamed over their targets,
    in order. If any write fails, the temporary files are deleted and every
    target keeps its old bytes.
    """
    staged = []
    try:
        for i, (path, data) in enumerate(outputs):
            # the one rename that can still fail once the files are staged
            if os.path.isdir(path):
                raise IsADirectoryError(f"output {path} is a directory")
            head, tail = os.path.split(os.fspath(path))
            tmp = os.path.join(head, f".{tail}.{os.getpid()}-{i}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def read_document(path) -> dict:
    """Read a JSON document file, mapping malformed content to ParseError."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    return doc


def load_partition_document(path) -> dict:
    """Read a partition document; ids, ``num_clusters``, ``method`` and
    ``params`` are checked here, once, for every command that reads one,
    and a missing ``num_clusters`` is set to the largest id + 1."""
    doc = read_document(path)
    if doc.get("schema") != PARTITION_SCHEMA:
        raise ParseError(
            f"not a partition document (schema {doc.get('schema')!r})")
    table = doc.get("assignment")
    if not isinstance(table, dict) or not table:
        raise ParseError("partition document lacks an assignment table")
    for label, cluster in table.items():
        # bool is an int subclass, but JSON true/false is no cluster id
        if not isinstance(cluster, int) or isinstance(cluster, bool) or cluster < 0:
            raise ParseError(f"cluster id for {label!r} must be an integer >= 0")
    k = doc.setdefault("num_clusters", max(table.values()) + 1)
    if not isinstance(k, int) or isinstance(k, bool) or k <= max(table.values()):
        raise ParseError(f"num_clusters must be an integer above every "
                         f"cluster id, got {k!r}")
    if k > graph.MAX_VERTICES:  # larger ids overflow int64 or memory
        raise ParseError(f"partition has {k} clusters (largest id + 1, or "
                         f"num_clusters), above the limit of {graph.MAX_VERTICES}")
    if not isinstance(doc.get("method", ""), str):
        raise ParseError(f"partition method must be a string, got {doc['method']!r}")
    if not isinstance(doc.get("params", {}), dict):
        raise ParseError("partition params must be a JSON object")
    return doc


def partition_for_graph(doc: dict, g: WeightedGraph) -> Partition:
    """Rebuild the Partition of ``g`` recorded in a partition document.

    The document comes from :func:`load_partition_document`, which fills in
    ``num_clusters``. It must cover exactly the graph's vertex labels; a
    vertex on either side without a counterpart is reported by name.
    """
    table = doc["assignment"]
    for label in g.labels:
        if label not in table:
            raise UsageError(f"partition does not cover vertex {label!r}")
    extra = set(table) - set(g.labels)
    if extra:
        raise UsageError(
            f"partition mentions vertex {sorted(extra)[0]!r} not in the graph")
    assignment = np.array([table[label] for label in g.labels], dtype=np.int64)
    return Partition(assignment, doc["num_clusters"], str(doc.get("method", "")),
                     doc.get("params", {}))


def model_from_document(doc: dict) -> SomModel:
    """Rebuild the map under a document's ``model`` key, in label-table order."""
    block = doc.get("model")
    if block is None:
        raise UsageError("document holds no trained map; "
                         "pass a partition produced by a som method")
    try:
        dims = [block["grid"]["rows"], block["grid"]["cols"]]
        # bool is an int subclass, but JSON true is no grid size
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
            raise ValueError(f"grid rows and cols must be integers, got {dims}")
        if len(block["assignment"]) != len(doc["assignment"]):
            raise ValueError("assignment length differs from the label table")
        umatrix = block.get("umatrix")
        return SomModel(SomGrid(*dims), None,
                        np.array(block["assignment"], dtype=np.int64),
                        np.array(block["energy_trace"], dtype=np.float64),
                        block.get("params", {}),
                        None if umatrix is None else UMatrix(umatrix))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model block: {exc}") from exc


def _model_block(model: SomModel) -> dict:
    return {"grid": {"rows": model.grid.rows, "cols": model.grid.cols},
            "params": dict(model.params),
            "energy_trace": model.energy_trace,
            "assignment": model.assignment,
            "umatrix": model.umatrix.values}


def partition_document(g: WeightedGraph, part: Partition, config: dict,
                       model: SomModel | None = None) -> dict:
    doc = {"schema": PARTITION_SCHEMA,
           "schema_version": PARTITION_SCHEMA_VERSION,
           "method": part.method_tag,
           "seed": config.get("seed"),
           "num_clusters": int(part.k),
           "params": dict(part.params),
           "assignment": {label: int(c)
                          for label, c in zip(g.labels, part.assignment)}}
    if model is not None:
        doc["model"] = _model_block(model)
    return doc


def report_document(g: WeightedGraph, part: Partition, config: dict) -> dict:
    """Statistics report: size distribution plus both modularity variants.

    The q scores are rounded to 4 decimals, or None when the graph has no
    edges and q is undefined; everything else is exact.
    """
    stats = partition_stats(g, part)
    q = q_unweighted = None
    if g.total_weight > 0:
        q = round(stats.q_modularity, 4)
        q_unweighted = round(q_modularity(g, part, weighted=False), 4)
    return {
        "schema": REPORT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "graph": {"vertices": g.num_vertices, "edges": g.num_edges,
                  "total_weight": g.total_weight},
        "partition": {
            "num_clusters": stats.num_clusters,
            "num_singletons": stats.num_singletons,
            "max_size": stats.max_size,
            "median_size": stats.median_size,
            "third_quartile_size": stats.third_quartile_size,
            "q_modularity": q,
            "q_modularity_unweighted": q_unweighted,
        },
    }


def run_cluster(config: RunConfig) -> dict:
    """Cluster a graph per the config; write the partition and any report.

    Both documents are written or neither is. Returns
    ``{"partition": doc, "report": doc or None}`` with the documents that
    were written.
    """
    cfg = config.resolved()
    g = load_edge_list(config.input)
    method, seed = config.method, config.seed
    if cfg["grid"] is not None:
        grid = SomGrid(**cfg["grid"])
    # the kernel methods are the ones that take a beta
    if cfg["beta"] is not None:
        kern = heat_kernel(g.laplacian(), cfg["beta"])
    model = None
    if method == "spectral":
        part = spectral_clustering(g, cfg["p"], cfg["k"], seed,
                                   cfg["restarts"]).partition
    elif method == "kernel-kmeans":
        part = kernel_kmeans(kern, cfg["k"], seed, cfg["restarts"]).partition
    elif method == "spectral-som":
        model = spectral_som(g, cfg["p"], grid, cfg["epochs"], cfg["radius"], seed)
    else:
        model = batch_kernel_som(kern, grid, cfg["epochs"], cfg["radius"], seed)
    if model is not None:
        part = som_partition(model)

    pdoc = partition_document(g, part, cfg, model)
    outputs = [(config.out, document_bytes(pdoc))]
    rdoc = None
    if config.report is not None:
        rdoc = report_document(g, part, cfg)
        outputs.append((config.report, document_bytes(rdoc)))
    _write_outputs(outputs)
    return {"partition": pdoc, "report": rdoc}


@dataclass(frozen=True, eq=False)
class AttributeTable:
    """Per-vertex attribute records with keys typed numeric or categorical."""

    numeric_keys: tuple[str, ...]
    categorical_keys: tuple[str, ...]
    records: Mapping[str, Mapping[str, float | str]]

    def __post_init__(self):
        object.__setattr__(self, "records",
                           {v: dict(kv) for v, kv in dict(self.records).items()})


def parse_attribute_table(source: str | os.PathLike | IO) -> AttributeTable:
    """Read a tab-separated attribute table.

    Data lines are ``vertex<TAB>key<TAB>value``. An optional first line
    ``!schema<TAB>key:numeric<TAB>key:categorical...`` declares key types;
    undeclared keys are categorical. Values of numeric keys must parse as
    finite reals. Blank lines and ``#`` comments are skipped.
    """
    text = read_text(source)
    numeric: set[str] = set()
    categorical: set[str] = set()
    records: dict[str, dict[str, float | str]] = {}
    saw_schema = False
    saw_data = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.rstrip("\r\n").split("\t")
        if parts[0] == "!schema":
            if saw_schema or saw_data:
                raise ParseError("!schema must be the first content line",
                                 lineno)
            saw_schema = True
            for entry in parts[1:]:
                key, sep, kind = entry.partition(":")
                if not sep or not key:
                    raise ParseError(f"bad schema entry {entry!r}, "
                                     "expected key:numeric or key:categorical",
                                     lineno)
                if kind == "numeric":
                    numeric.add(key)
                elif kind == "categorical":
                    categorical.add(key)
                else:
                    raise ParseError(f"unknown attribute type {kind!r}", lineno)
                if key in numeric and key in categorical:
                    raise ParseError(f"key {key!r} declared both numeric "
                                     "and categorical", lineno)
            continue
        if len(parts) != 3:
            raise ParseError("expected vertex<TAB>key<TAB>value", lineno)
        vertex, key, raw = parts
        if not vertex.strip() or not key.strip():
            raise ParseError("vertex and key must be nonempty", lineno)
        vertex, key = vertex.strip(), key.strip()
        saw_data = True
        if key in numeric:
            try:
                value: float | str = float(raw)
            except ValueError:
                raise ParseError(f"numeric key {key!r} has non-numeric "
                                 f"value {raw!r}", lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"numeric key {key!r} has non-finite "
                                 f"value {raw!r}", lineno)
        else:
            categorical.add(key)
            value = raw
        record = records.setdefault(vertex, {})
        if key in record:
            raise ParseError(f"duplicate attribute {key!r} for vertex "
                             f"{vertex!r}", lineno)
        record[key] = value
    if not records:
        raise ParseError("attribute table holds no records")
    return AttributeTable(tuple(sorted(numeric)), tuple(sorted(categorical)),
                          records)


def attribute_summary(partition_doc: dict, table: AttributeTable) -> dict:
    """Per-cluster attribute statistics of a loaded partition document.

    Numeric keys get the mean and population standard deviation over the
    cluster members that carry the key; categorical keys get a frequency
    distribution sorted by descending count. Members without a key are
    excluded and counted as missing. Values whose mean or standard deviation
    overflows a float are a :class:`ParseError` naming the key.
    """
    assignment = partition_doc["assignment"]
    unknown = sorted(set(table.records) - set(assignment))
    if unknown:
        raise UsageError(
            f"attribute table mentions vertex {unknown[0]!r} not in the partition")
    k = partition_doc["num_clusters"]
    members: list[list[str]] = [[] for _ in range(k)]
    for label, cluster in assignment.items():
        members[cluster].append(label)

    clusters = []
    for c in range(k):
        labels = members[c]
        size = len(labels)
        numeric = {}
        for key in table.numeric_keys:
            vals = [table.records[lb][key] for lb in labels
                    if key in table.records.get(lb, ())]
            entry: dict[str, object] = {"count": len(vals),
                                        "missing": size - len(vals)}
            if vals:
                arr = np.array(vals, dtype=np.float64)
                with np.errstate(over="ignore", invalid="ignore"):
                    entry["mean"] = float(arr.mean())
                    entry["std"] = float(arr.std())
                if not all(map(math.isfinite, (entry["mean"], entry["std"]))):
                    raise ParseError(f"numeric key {key!r} has values too "
                                     f"large to summarize in cluster {c}")
            else:
                entry["mean"] = None
                entry["std"] = None
            numeric[key] = entry
        categorical = {}
        for key in table.categorical_keys:
            vals = [table.records[lb][key] for lb in labels
                    if key in table.records.get(lb, ())]
            counts = Counter(vals)
            present = len(vals)
            dist = [{"value": value, "count": count,
                     "fraction": count / present}
                    for value, count in sorted(counts.items(),
                                               key=lambda kv: (-kv[1], kv[0]))]
            categorical[key] = {"count": present, "missing": size - present,
                                "distribution": dist}
        clusters.append({"cluster": c, "size": size,
                         "numeric": numeric, "categorical": categorical})
    return {"schema": ATTRIBUTE_SUMMARY_SCHEMA,
            "schema_version": SCHEMA_VERSION,
            "numeric_keys": list(table.numeric_keys),
            "categorical_keys": list(table.categorical_keys),
            "clusters": clusters}


def run_attribute_summary(partition_path, attributes_path, out_path) -> dict:
    """Summarize an attribute table per cluster and write the document."""
    doc = load_partition_document(partition_path)
    table = parse_attribute_table(attributes_path)
    summary = attribute_summary(doc, table)
    _write_outputs([(out_path, document_bytes(summary))])
    return summary


def run_layout(mode: str, input_path, *, partition_path=None, model_path=None,
               svg_path, dot_path=None, iterations=None, seed=0):
    """Render a scene for a graph and a stored partition or map.

    Modes: ``summary`` draws the cluster summary graph force-directed;
    ``map`` draws glyphs on the unit lattice over the u-matrix; ``full``
    draws every vertex inside its unit's cell. ``map`` and ``full`` need a
    document with a model block. Returns the scene that was rendered.
    """
    # only layout draws, so only it imports the drawing modules
    from .layout import Rect, constrained_full_layout, force_directed_layout, \
        som_map_scene
    from .render import export_dot, render_svg

    if mode not in LAYOUT_ITERATIONS:
        raise UsageError(f"unknown mode {mode!r}; expected summary, map, or full")
    if (partition_path is None) == (model_path is None):
        raise UsageError("exactly one of --partition and --model is required")
    if mode in ("map", "full") and model_path is None:
        raise UsageError(f"mode {mode} requires --model")
    if LAYOUT_ITERATIONS[mode] is None and iterations is not None:
        raise UsageError(f"--iterations does not apply to {mode} mode")
    if iterations is None:
        iterations = LAYOUT_ITERATIONS[mode]

    g = load_edge_list(input_path)
    doc = load_partition_document(partition_path or model_path)
    # matches every mode's document to the graph by vertex label
    part = partition_for_graph(doc, g)
    umatrix = None
    if mode == "summary":
        # a partition may skip an id, but an empty glyph has no radius
        empty = np.flatnonzero(part.sizes() == 0)
        if empty.size:
            raise UsageError(f"cluster {empty[0]} has no vertices; the summary "
                             "layout draws every cluster id below num_clusters")
        dot_subject = summary_graph(g, part)
        scene = force_directed_layout(dot_subject, iterations,
                                      Rect(0.0, 0.0, 800.0, 800.0), seed)
    else:
        model = model_from_document(doc)
        units = dict(zip(doc["assignment"], model.assignment))
        model = replace(model, assignment=[units[label] for label in g.labels])
        if mode == "full":
            dot_subject = g
            scene = constrained_full_layout(g, model, iterations, seed)
        elif model.umatrix is None:
            raise UsageError("model holds no u-matrix; re-run cluster "
                             "to draw its map")
        else:
            dot_subject = summary_graph(g, som_partition(model))
            scene = som_map_scene(model, dot_subject)
            umatrix = model.umatrix.upsampled(8)

    outputs = [(svg_path, render_svg(scene, umatrix=umatrix))]
    if dot_path is not None:
        outputs.append((dot_path, export_dot(dot_subject, scene)))
    _write_outputs(outputs)
    return scene


def run_stats(input_path, partition_path) -> dict:
    """Report document for a stored partition against its graph."""
    g = load_edge_list(input_path)
    doc = load_partition_document(partition_path)
    part = partition_for_graph(doc, g)
    config = {"input": str(input_path), "partition": str(partition_path),
              "method": doc.get("method")}
    return report_document(g, part, config)
