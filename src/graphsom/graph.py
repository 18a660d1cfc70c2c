"""Weighted-graph data model: ingestion, Laplacian, summaries.

The graph is undirected with symmetric nonnegative weights and no self-loops.
It is held as its edge list, 16 bytes per edge: totals, modularity, the
cluster summary graph and the drawings are sums over edges. A sum per
cluster or per cluster pair is a ``bincount`` over the edges' cluster ids,
O(m + k) for m edges and k clusters. Only the clusterings see an n x n
array, the dense Laplacian, built anew by each call to ``laplacian()``.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import ParseError, UsageError

# Largest vertex count load_edge_list accepts. The Laplacian and the kernel
# are dense n x n float64 arrays of 8 n^2 bytes each, and a cluster command
# holds about five such arrays at its peak (see README, "Memory"): at this
# limit one array takes 800 MB and the peak about 4.0 GB.
MAX_VERTICES = 10_000

# characters that XML 1.0 cannot carry, not even as character references: a
# label holding one could never be drawn in an SVG
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class WeightedGraph:
    """Undirected graph: unique vertex labels plus a symmetric weight matrix.

    Built from a weight matrix W, where ``W[i, j]`` is the nonnegative weight
    of the edge between vertices ``i`` and ``j`` (0 means no edge), exactly
    symmetric with a zero diagonal. The graph keeps only its edges, as the
    read-only arrays ``edge_arrays = (i, j, w)``: int32 vertex indices with
    ``i < j`` in row-major order and their positive float64 weights; it
    holds no n x n array. :meth:`laplacian` and :attr:`weights` build theirs
    from the edges on every call. The caller's W is not kept, changed or
    frozen, and nothing changes a graph after construction.
    """

    def __init__(self, labels: Sequence[str], weights: np.ndarray):
        labels = tuple(str(x) for x in labels)
        w = np.asarray(weights, dtype=np.float64)
        n = len(labels)
        if w.ndim != 2 or w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} labels")
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be distinct")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
        if (w < 0).any():
            raise ValueError("edge weights must be nonnegative")
        if (w != w.T).any():
            raise ValueError("weight matrix must be symmetric")
        if np.diagonal(w).any():
            raise ValueError("diagonal must be zero (no self-loops)")
        i, j = np.nonzero(w)
        i, j = i[i < j], j[i < j]
        self._adopt(labels, i.astype(np.int32), j.astype(np.int32), w[i, j])

    def _adopt(self, labels: tuple[str, ...], *edges: np.ndarray) -> None:
        """Keep new int32 ``i < j``, in row-major order, and float64 ``w``."""
        for a in edges:
            a.setflags(write=False)
        self.labels, self.edge_arrays = labels, edges

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of vertex pairs with positive weight."""
        return int(self.edge_arrays[2].size)

    @property
    def total_weight(self) -> float:
        """Sum of edge weights, each unordered pair counted once."""
        return float(self.edge_arrays[2].sum())

    @property
    def weights(self) -> np.ndarray:
        """The weight matrix W, read-only; a new n x n array on every access."""
        i, j, w = self.edge_arrays
        full = np.zeros((self.num_vertices,) * 2, dtype=np.float64)
        full[i, j] = full[j, i] = w
        full.setflags(write=False)
        return full

    def laplacian(self) -> np.ndarray:
        """Graph Laplacian: degrees on the diagonal, negated weights elsewhere.

        Built from the edges on every call, as a new read-only n x n array
        that the graph does not keep.
        """
        # W negated in place, so a non-edge holds -0.0; its row sums
        # subtracted from +0.0 keep an isolated vertex's degree +0.0
        lap = self.weights
        lap.setflags(write=True)  # a new array that owns its memory
        np.negative(lap, out=lap)
        np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
        lap.setflags(write=False)
        return lap


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one cluster id in ``0..k-1``; the
    method and knobs that produced it are recorded only in its document."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.array(self.assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty 1-D sequence")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if a.min() < 0 or a.max() >= self.k:
            raise ValueError(f"cluster ids must lie in 0..{self.k - 1}")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @property
    def num_vertices(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def read_text(source: str | os.PathLike | IO) -> str:
    """The UTF-8 text of a path or of an open text or binary stream, without
    one leading byte-order mark (U+FEFF) if it has one.

    A path that cannot be read, or bytes that are not UTF-8, are a
    :class:`ParseError`.
    """
    try:
        if hasattr(source, "read"):
            raw = source.read()
        else:
            with open(source, "rb") as fh:
                raw = fh.read()
        if isinstance(raw, str):
            return raw.removeprefix("\ufeff")
        return raw.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc


def _tab_rows(source: str | os.PathLike | IO) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tab-separated fields)`` of each line of a UTF-8 source
    that is neither blank nor a ``#`` comment.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n``, Python's universal newlines;
    the other breaks of :meth:`str.splitlines` (``\\v``, ``\\f``, U+0085,
    U+2028, ...) stay inside their line.
    """
    lineno = 0
    for chunk in read_text(source).split("\n"):
        # a final \r is the first half of \r\n, or ends the text
        for line in chunk.removesuffix("\r").split("\r") if "\r" in chunk else (chunk,):
            lineno += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield lineno, line.split("\t")


def load_edge_list(source: str | os.PathLike | IO) -> WeightedGraph:
    """Read a tab-separated edge list into a :class:`WeightedGraph`.

    Each non-comment line is ``src<TAB>dst<TAB>weight`` with a positive real
    weight; the weight column may be omitted and defaults to 1. Lines starting
    with ``#`` and blank lines are skipped. Labels are stripped of surrounding
    whitespace, and a label left empty is an error. Repeated pairs, in either
    order, have their weights summed. Self-loop lines are dropped with a
    warning, though their vertex is kept. Vertices are indexed by first
    appearance. A graph of more than :data:`MAX_VERTICES` vertices is
    refused with a :class:`UsageError`.

    Args:
        source: path, or an open text/binary stream of UTF-8 content.
    """
    index: dict[str, int] = {}
    pair_weights: dict[tuple[int, int], float] = {}
    for lineno, parts in _tab_rows(source):
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 2 or 3 tab-separated fields, got {len(parts)}",
                             lineno)
        src, dst = parts[0].strip(), parts[1].strip()
        if not src or not dst:
            raise ParseError("empty vertex label", lineno)
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise ParseError(f"unparseable weight {parts[2]!r}", lineno) from None
            if not math.isfinite(weight):
                raise ParseError(f"weight must be finite, got {parts[2]!r}", lineno)
            if weight < 0:
                raise ParseError(f"negative weight {weight!r}", lineno)
            if weight == 0:
                raise ParseError("weight must be positive", lineno)
        else:
            weight = 1.0
        # a self-loop's vertex is still registered
        for lab in (src, dst) if src != dst else (src,):
            if lab not in index:
                bad = _NOT_XML.search(lab)
                if bad:
                    raise ParseError(f"vertex label {lab!r} holds U+{ord(bad[0]):04X}, "
                                     "which XML, and so SVG, cannot carry", lineno)
                index[lab] = len(index)
        if src == dst:
            warnings.warn(f"dropping self-loop on {src!r} (line {lineno})",
                          stacklevel=2)
            continue
        i, j = index[src], index[dst]
        key = (i, j) if i < j else (j, i)
        pair_weights[key] = pair_weights.get(key, 0.0) + weight

    if not index:
        raise ParseError("empty input: no edges or vertices found")
    # q-modularity sums every edge twice; that sum must stay a finite float
    if not math.isfinite(2.0 * sum(pair_weights.values())):
        raise ParseError("edge weights too large: twice their sum overflows a float")
    n = len(index)
    if n > MAX_VERTICES:
        raise UsageError(
            f"graph has {n} vertices, above the limit of {MAX_VERTICES}; "
            f"one dense n x n array would take {8 * n * n:,} bytes")
    pairs = sorted(pair_weights)  # (i, j) with i < j, so row-major
    i, j = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    w = np.fromiter(map(pair_weights.__getitem__, pairs), dtype=np.float64,
                    count=len(pairs))
    g = WeightedGraph.__new__(WeightedGraph)
    g._adopt(tuple(sorted(index, key=index.__getitem__)), i, j, w)
    return g


@dataclass(frozen=True, eq=False)
class ClusterSummaryGraph:
    """One node per cluster id, one edge per connected cluster pair.

    Four read-only arrays: ``sizes`` (k,) holds each cluster's vertex count
    and ``intra`` (k,) its internal weight; ``edges`` (E, 2), int32, holds
    each connected pair of clusters once, with ``a < b``, in ascending
    order, and ``weights`` (E,) the positive weight summed over the edges
    between them. Built by :func:`summary_graph`; the scene built from it
    checks what is drawn.
    """

    sizes: np.ndarray
    intra: np.ndarray
    edges: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for a in (self.sizes, self.intra, self.edges, self.weights):
            a.setflags(write=False)

    @property
    def num_clusters(self) -> int:
        return int(self.sizes.size)


def _edge_clusters(g: WeightedGraph,
                   p: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c[i], c[j], w)``: the cluster ids of each edge's ends, and its weight."""
    if p.num_vertices != g.num_vertices:
        raise ValueError(f"partition covers {p.num_vertices} vertices, "
                         f"graph has {g.num_vertices}")
    i, j, w = g.edge_arrays
    # int32 ids halve the per-edge temporaries; min*k + max keys fit while k*k does
    ids = p.assignment.astype(np.int32 if p.k * p.k <= 2 ** 31 else np.int64)
    return ids[i], ids[j], w


def summary_graph(g: WeightedGraph, p: Partition) -> ClusterSummaryGraph:
    """Collapse a partitioned graph to one node per cluster.

    Node ``c`` carries the vertex count and intra-cluster weight of cluster
    ``c``; an edge joins clusters ``c != c'`` with the summed weight of all
    crossing edges, omitted when that sum is zero. Every array grows with
    the edge count and k, never with k squared.
    """
    ci, cj, w = _edge_clusters(g, p)
    inside = ci == cj
    # astype: a bincount over no keys (no internal or no crossing edge) is int64
    intra = np.bincount(ci[inside], w[inside], p.k).astype(np.float64)
    ci, cj, w = ci[~inside], cj[~inside], w[~inside]
    pairs, at = np.unique(np.minimum(ci, cj) * p.k + np.maximum(ci, cj),
                          return_inverse=True)
    # each direction is summed on its own in edge order, then the two are
    # added: summary drawings and DOT files depend on this order to the bit
    half = np.bincount(2 * at + (ci > cj), w, 2 * pairs.size).astype(np.float64)
    # ids below k fit int32 whatever the dtype of the keys
    edges = np.empty((pairs.size, 2), dtype=np.int32)
    np.divmod(pairs, p.k, out=(edges[:, 0], edges[:, 1]), casting="unsafe")
    return ClusterSummaryGraph(p.sizes(), intra, edges, half[0::2] + half[1::2])
