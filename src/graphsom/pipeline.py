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
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from typing import IO, Mapping

import numpy as np

from . import graph, linalg
from .cluster import DEFAULT_RESTARTS, _check_kmeans, kmeans, partition_stats, \
    q_modularity
from .errors import ParseError, UsageError
from .graph import Partition, WeightedGraph, _tab_rows, load_edge_list, read_text, \
    summary_graph
from .som import DEFAULT_EPOCHS, SomGrid, SomModel, UMatrix, _check_schedule, \
    batch_som, default_radius, som_partition

PARTITION_SCHEMA = "graphsom/partition"
REPORT_SCHEMA = "graphsom/report"
ATTRIBUTE_SUMMARY_SCHEMA = "graphsom/attribute-summary"
SCHEMA_VERSION = 1
PARTITION_SCHEMA_VERSION = 2

# each method's knobs and their defaults; anything else is a typo. A None
# default is worked out in RunConfig.resolved(): p from k or from the unit
# count, the radius from the grid; the grid is required.
_METHOD_KNOBS = {
    "spectral": {"k": 50, "p": None, "restarts": DEFAULT_RESTARTS},
    "kernel-kmeans": {"k": 50, "beta": 0.05, "restarts": DEFAULT_RESTARTS},
    "spectral-som": {"p": None, "grid": None, "epochs": DEFAULT_EPOCHS,
                     "radius": None},
    "kernel-som": {"beta": 0.05, "grid": None, "epochs": DEFAULT_EPOCHS,
                   "radius": None},
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
    ranges are checked once, by the library's check of each knob.
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


def document_bytes(doc: dict) -> bytes:
    """Serialize a document dict to its canonical UTF-8 form."""
    return (json.dumps(doc, indent=2, ensure_ascii=False,
                       allow_nan=False) + "\n").encode("utf-8")


def _refuse_shared_target(*paths) -> None:
    """Refuse two outputs that name one file, since the later one would
    replace the other; run before any input is read. ``None`` is no output."""
    seen = {}
    for path in paths:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"outputs {seen[real]} and {path} name the same file")
        seen[real] = path


def _refuse_unrecordable(*paths) -> None:
    """Refuse a path that is not valid UTF-8, which a report cannot record."""
    for path in paths:
        if any("\ud800" <= c <= "\udfff" for c in str(path)):  # surrogate escapes
            raise UsageError(f"path {path!r} is not valid UTF-8; a report cannot hold it")


def _write_outputs(outputs: list[tuple[object, bytes]]) -> None:
    """Write every ``(path, data)`` pair of one command, or none of them.

    Each output goes to a fresh temporary file in its target's directory, and
    an existing target is kept under a hard link beside it. Only when all of
    them are written are they renamed over their targets, in order. If any
    write or rename fails, or the run is interrupted, each replaced target is
    put back from its link, or removed if it did not exist; then the
    temporary files and links are deleted. A target that cannot be linked
    keeps the new bytes if a later rename fails.
    """
    staged, kept, replaced = [], [], 0
    try:
        for i, (path, data) in enumerate(outputs):
            if os.path.isdir(path):
                raise IsADirectoryError(f"output {path} is a directory")
            head, tail = os.path.split(os.fspath(path))
            stem = os.path.join(head, f".{tail}.{os.getpid()}-{i}")
            fd = os.open(stem + ".tmp", os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append(stem + ".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            try:  # None: no old target; "": one that cannot be linked
                os.link(path, stem + ".old", follow_symlinks=False)
                kept.append(stem + ".old")
            except FileNotFoundError:
                kept.append(None)
            except OSError:
                kept.append("")
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
            replaced += 1
    except BaseException:
        for (path, _), old in zip(outputs[:replaced], kept):
            with suppress(OSError):
                if old is None:
                    os.unlink(path)
                elif old:
                    os.replace(old, path)
        for tmp in staged:
            with suppress(OSError):
                os.unlink(tmp)
        raise
    finally:
        for old in filter(None, kept):
            with suppress(OSError):
                os.unlink(old)


def _finite_number(literal: str) -> float:
    value = float(literal)  # NaN, Infinity and -Infinity come here too
    if not math.isfinite(value):
        raise ParseError(f"{literal} is not a finite JSON number")
    return value


def read_document(path) -> dict:
    """Read a strict JSON document file; any JSON it cannot use is a ParseError."""
    text = read_text(path)
    try:
        doc = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
        if "\\u" in text:  # only an escape spells a lone surrogate in UTF-8 text
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from exc
    except (RecursionError, ValueError) as exc:  # depth, digit limit, lone surrogate
        raise ParseError(f"JSON that Python cannot hold: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    return doc


def load_partition_document(path) -> dict:
    """Read a partition document; ids, ``num_clusters``, ``method``, ``params``
    and any ``model`` block, which becomes its :class:`SomModel`, are checked
    here, once, for every command that reads one; a missing ``num_clusters``
    is set to the largest id + 1."""
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
    if doc.get("model") is not None:
        doc["model"] = model_from_document(doc)
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
    return Partition(assignment, doc["num_clusters"])


def _json_list(values, kinds, rule: str) -> list:
    """``values`` if it is a JSON list of ``kinds``, else ValueError(rule)."""
    # bool is an int subclass, but JSON true/false is no number
    if not isinstance(values, list) or not all(
            isinstance(v, kinds) and not isinstance(v, bool) for v in values):
        raise ValueError(rule)
    return values


def model_from_document(doc: dict) -> SomModel:
    """Rebuild the map under a document's ``model`` key, in label-table
    order; its clusters must be its nonempty units, cluster c the c-th."""
    try:
        block = doc["model"]
        dims = _json_list([block["grid"]["rows"], block["grid"]["cols"]], int,
                          "grid rows and cols must be integers")
        units = _json_list(block["assignment"], int, "unit ids must be integers")
        trace = _json_list(block["energy_trace"], (int, float),
                           "energy trace entries must be numbers")
        umatrix = block.get("umatrix")
        if umatrix is not None:
            rows = _json_list(umatrix, list, "u-matrix must be a list of rows")
            umatrix = UMatrix([_json_list(row, (int, float),
                                          "u-matrix entries must be numbers")
                               for row in rows])
        model = SomModel(SomGrid(*dims), None, units, trace, umatrix)
        part = som_partition(model)
        if doc.get("num_clusters", part.k) != part.k or not np.array_equal(
                part.assignment, list(doc["assignment"].values())):
            raise ValueError("units disagree with num_clusters or the label table's ids")
        return model
    # OverflowError: a JSON integer beyond int64, or a float's range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed model block: {exc}") from exc


def _model_block(model: SomModel) -> dict:
    return {"grid": {"rows": model.grid.rows, "cols": model.grid.cols},
            "energy_trace": model.energy_trace.tolist(),
            "assignment": model.assignment.tolist(),
            "umatrix": model.umatrix.values.tolist()}


def partition_document(g: WeightedGraph, part: Partition, config: dict,
                       model: SomModel | None = None) -> dict:
    """Partition document of a run: ``method`` and ``seed`` at the top level,
    ``params`` the method's knobs from the resolved ``config``, in table order."""
    doc = {"schema": PARTITION_SCHEMA,
           "schema_version": PARTITION_SCHEMA_VERSION,
           "method": config["method"],
           "seed": config["seed"],
           "num_clusters": int(part.k),
           "params": {knob: config[knob] for knob in _METHOD_KNOBS[config["method"]]},
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

    One eigendecomposition of L (none at beta 0) gives the feature map, and
    L and the decomposition are freed before k-means or the map trains. Both
    documents are written or neither is; returns ``{"partition": doc,
    "report": doc or None}`` with the documents that were written.
    """
    _refuse_shared_target(config.out, config.report)
    if config.report is not None:
        _refuse_unrecordable(config.input, config.out, config.report)
    cfg = config.resolved()
    g = load_edge_list(config.input)
    # range checks that would otherwise wait for the eigensolve
    if cfg["grid"] is not None:
        grid = SomGrid(**cfg["grid"])
        _check_schedule(grid, cfg["epochs"], cfg["radius"])
    else:
        _check_kmeans(cfg["k"], g.num_vertices, cfg["restarts"])
    if cfg["beta"] is None:
        linalg._check_p(cfg["p"], g.num_vertices)
    else:
        linalg._check_beta(cfg["beta"])
    try:
        # OpenBLAS maps a 32 MB work buffer at its first level-3 call and
        # ends the process with status 1 if it cannot. Reserving more than
        # that, then freeing it for a small product that takes the buffer
        # before any n x n array, makes running out of it a MemoryError
        np.empty(40 << 20, dtype=np.uint8)
        np.ones((256, 256)) @ np.ones((256, 256))
        if cfg["beta"] == 0:
            features = linalg.heat_kernel(g.laplacian(), 0.0)  # I, with no eigensolve
        else:  # L is freed when the eigensolve returns, V before the engine runs
            spectrum = linalg.eigendecompose_symmetric(g.laplacian())
            features = (spectrum.eigenvectors[:, :cfg["p"]].copy() if cfg["beta"] is None
                        else linalg._heat_kernel_of(spectrum, cfg["beta"]))
            del spectrum
        model = None
        if cfg["grid"] is None:
            part = kmeans(features, cfg["k"], cfg["seed"], cfg["restarts"]).partition
        else:
            model = batch_som(features, grid, cfg["epochs"], cfg["radius"], cfg["seed"])
            part = som_partition(model)
    except MemoryError:
        # README "Memory": five dense n x n arrays, the edges, and the runtime
        n, m = g.num_vertices, g.num_edges
        peak = (5 * 8 * n * n + 16 * m) / 1e6 + 35
        raise UsageError(f"out of memory clustering {n} vertices and {m} edges; "
                         f"cluster needs about {peak:,.0f} MB") from None

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
    numeric: set[str] = set()
    categorical: set[str] = set()
    records: dict[str, dict[str, float | str]] = {}
    saw_schema = False
    for lineno, parts in _tab_rows(source):
        if parts[0] == "!schema":
            if saw_schema or records:
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
    members: list[list[Mapping]] = [[] for _ in range(k)]
    for label, cluster in assignment.items():
        members[cluster].append(table.records.get(label, {}))

    clusters = []
    for c, records in enumerate(members):
        numeric, categorical = {}, {}
        for key in (*table.numeric_keys, *table.categorical_keys):
            vals = [rec[key] for rec in records if key in rec]
            entry: dict[str, object] = {"count": len(vals),
                                        "missing": len(records) - len(vals)}
            if key in table.categorical_keys:
                counts = sorted(Counter(vals).items(),
                                key=lambda kv: (-kv[1], kv[0]))
                entry["distribution"] = [
                    {"value": value, "count": count,
                     "fraction": count / len(vals)} for value, count in counts]
                categorical[key] = entry
                continue
            mean = std = None
            if vals:
                arr = np.array(vals, dtype=np.float64)
                with np.errstate(over="ignore", invalid="ignore"):
                    mean, std = float(arr.mean()), float(arr.std())
                if not (math.isfinite(mean) and math.isfinite(std)):
                    raise ParseError(f"numeric key {key!r} has values too "
                                     f"large to summarize in cluster {c}")
            numeric[key] = {**entry, "mean": mean, "std": std}
        clusters.append({"cluster": c, "size": len(records),
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
    _refuse_shared_target(svg_path, dot_path)
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
        model = doc.get("model")
        if model is None:
            raise UsageError("document holds no trained map; "
                             "pass a partition produced by a som method")
        if mode == "full":
            # cluster c is the c-th nonempty unit; np.unique would import numpy.ma
            units = np.flatnonzero(model.unit_counts())
            model = replace(model, assignment=units[part.assignment])
            dot_subject = g
            scene = constrained_full_layout(g, model, iterations, seed)
        elif model.umatrix is None:
            raise UsageError("model holds no u-matrix; re-run cluster "
                             "to draw its map")
        else:
            dot_subject = summary_graph(g, part)
            scene = som_map_scene(model, dot_subject)
            umatrix = model.umatrix.upsampled()

    outputs = [(svg_path, render_svg(scene, umatrix=umatrix))]
    if dot_path is not None:
        outputs.append((dot_path, export_dot(dot_subject, scene)))
    _write_outputs(outputs)
    return scene


def run_stats(input_path, partition_path) -> dict:
    """Report document for a stored partition against its graph."""
    _refuse_unrecordable(input_path, partition_path)
    g = load_edge_list(input_path)
    doc = load_partition_document(partition_path)
    part = partition_for_graph(doc, g)
    config = {"input": str(input_path), "partition": str(partition_path),
              "method": doc.get("method")}
    return report_document(g, part, config)
