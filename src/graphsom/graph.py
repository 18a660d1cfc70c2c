"""Weighted-graph data model: ingestion, degrees, Laplacian, summaries.

The graph is undirected with symmetric nonnegative weights and no self-loops.
It is held densely, as its Laplacian alone: at the few-hundred-vertex scale
this package targets, dense storage keeps every downstream eigensolve and
kernel loop simple, and the weights are the Laplacian's negated off-diagonal.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, UsageError

__all__ = [
    "WeightedGraph",
    "Partition",
    "SummaryNode",
    "SummaryEdge",
    "ClusterSummaryGraph",
    "load_edge_list",
    "summary_graph",
]

# Largest vertex count load_edge_list accepts. The Laplacian and the kernel
# are dense n x n float64 arrays of 8 n^2 bytes each, and a cluster command
# holds about five such arrays at its peak (see README, "Memory"): at this
# limit one array takes 800 MB and the peak about 4.0 GB.
MAX_VERTICES = 10_000


class WeightedGraph:
    """Undirected graph: unique vertex labels plus a symmetric weight matrix.

    Built from a weight matrix W, where ``W[i, j]`` is the nonnegative weight
    of the edge between vertices ``i`` and ``j`` (0 means no edge), exactly
    symmetric with a zero diagonal. The graph keeps only its Laplacian
    ``L = D - W``, which every clustering starts from; off the diagonal W is
    ``-L``, so :attr:`weights` rebuilds W on demand. The caller's W is not
    kept, changed or frozen. The Laplacian is marked read-only at
    construction, and nothing changes a graph after it.
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
        self._adopt(labels, np.negative(w))

    def _adopt(self, labels: tuple[str, ...], lap: np.ndarray) -> None:
        """Keep ``lap``, an unshared -W, as the Laplacian: fill in the degrees."""
        # -W's row sums are W's negated bit for bit; subtracting them from
        # +0.0 keeps an isolated vertex's degree +0.0
        np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
        lap.setflags(write=False)
        self.labels = labels
        self._laplacian = lap

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def weights(self) -> np.ndarray:
        """The weight matrix W, read-only; a new n x n array on every access."""
        w = np.negative(self._laplacian)
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        return w

    @cached_property
    def num_edges(self) -> int:
        """Number of vertex pairs with positive weight."""
        # L is symmetric and nonzero off the diagonal exactly at the edges,
        # so each pair is counted twice
        lap = self._laplacian
        return (np.count_nonzero(lap) - np.count_nonzero(np.diagonal(lap))) // 2

    @cached_property
    def total_weight(self) -> float:
        """Sum of edge weights, each unordered pair counted once."""
        # subtracted from +0.0, so an edgeless graph gives +0.0, not -0.0
        return 0.0 - float(np.triu(self._laplacian, 1).sum())

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.diagonal(self._laplacian).copy()
        d.setflags(write=False)
        return d

    def laplacian(self) -> np.ndarray:
        """Graph Laplacian: degrees on the diagonal, negated weights elsewhere.

        The stored read-only array itself, not a copy.
        """
        return self._laplacian

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(i, j, weight)`` with ``i < j`` for every positive-weight edge."""
        # row by row, so no temporary grows with n^2 or with the edge count
        for i, row in enumerate(self._laplacian):
            for j in (np.flatnonzero(row[i + 1:]) + (i + 1)).tolist():
                yield i, j, -float(row[j])


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every vertex to exactly one cluster id in ``0..k-1``."""

    assignment: np.ndarray
    k: int
    method_tag: str = ""
    params: Mapping[str, object] = field(default_factory=dict)

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
        object.__setattr__(self, "params", dict(self.params))

    @property
    def num_vertices(self) -> int:
        return int(self.assignment.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def read_text(source: str | os.PathLike | IO) -> str:
    """The UTF-8 text of a path or of an open text or binary stream.

    A path that cannot be read, or bytes that are not UTF-8, are a
    :class:`ParseError`.
    """
    try:
        if hasattr(source, "read"):
            raw = source.read()
            return raw.decode("utf-8") if isinstance(raw, bytes) else raw
        with open(source, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc


def load_edge_list(source: str | os.PathLike | IO) -> WeightedGraph:
    """Read a tab-separated edge list into a :class:`WeightedGraph`.

    Each non-comment line is ``src<TAB>dst<TAB>weight`` with a positive real
    weight; the weight column may be omitted and defaults to 1. Lines starting
    with ``#`` and blank lines are skipped. Labels are stripped of surrounding
    whitespace, and a label left empty is an error. Repeated pairs, in either
    order, have their weights summed. Self-loop lines are dropped with a
    warning, though their vertex is kept. Vertices are indexed by first
    appearance. A graph of more than :data:`MAX_VERTICES` vertices is
    refused with a :class:`UsageError` before its weight matrix is allocated.

    Args:
        source: path, or an open text/binary stream of UTF-8 content.
    """
    text = read_text(source)

    index: dict[str, int] = {}
    pair_weights: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.rstrip("\r\n").split("\t")
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
        if src == dst:
            warnings.warn(f"dropping self-loop on {src!r} (line {lineno})",
                          stacklevel=2)
            # the vertex itself is still registered
            if src not in index:
                index[src] = len(index)
            continue
        for lab in (src, dst):
            if lab not in index:
                index[lab] = len(index)
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
    w = np.zeros((n, n), dtype=np.float64)
    rows, cols = np.array(list(pair_weights), dtype=np.intp).reshape(-1, 2).T
    weights = np.fromiter(pair_weights.values(), dtype=np.float64,
                          count=len(pair_weights))
    w[rows, cols] = weights
    w[cols, rows] = weights
    # W is valid by construction, so it becomes L in place. No second n x n
    # array is made and none is freed: after freeing one, glibc serves later
    # n x n temporaries from its heap, where they stay resident once freed
    g = WeightedGraph.__new__(WeightedGraph)
    g._adopt(tuple(sorted(index, key=index.__getitem__)), np.negative(w, out=w))
    return g


@dataclass(frozen=True)
class SummaryNode:
    """One cluster glyph: its id, vertex count, and internal edge weight."""

    cluster: int
    vertex_count: int
    intra_weight: float


@dataclass(frozen=True)
class SummaryEdge:
    """Total weight between two clusters, stored once with ``a < b``."""

    a: int
    b: int
    weight: float


@dataclass(frozen=True, eq=False)
class ClusterSummaryGraph:
    """One node per cluster, one edge per connected cluster pair.

    Built by :func:`summary_graph`, which orders nodes by cluster id and
    stores each edge once with ``a < b`` and a positive weight; the scene
    built from it checks what is drawn.
    """

    nodes: tuple[SummaryNode, ...]
    edges: tuple[SummaryEdge, ...]

    @property
    def num_clusters(self) -> int:
        return len(self.nodes)


def _onehot(assign: np.ndarray, k: int) -> np.ndarray:
    z = np.zeros((assign.size, k), dtype=np.float64)
    z[np.arange(assign.size), assign] = 1.0
    return z


def _cluster_blocks(g: WeightedGraph, p: Partition,
                    weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The ids of the clusters that hold vertices, ascending, and their sums.

    Entry (a, b) of the block sums w[i, j] over i in cluster ``ids[a]`` and
    j in cluster ``ids[b]``, or counts the edges if not weighted. An empty
    cluster would add only zeros, so the block is at most n x n whatever
    ``p.k`` is.
    """
    if p.num_vertices != g.num_vertices:
        raise ValueError(f"partition covers {p.num_vertices} vertices, "
                         f"graph has {g.num_vertices}")
    ids = np.flatnonzero(p.sizes())
    if weighted:
        w = g.weights
    else:
        # 1 exactly where L < 0, at the edges, written straight into floats
        lap = g.laplacian()
        w = np.less(lap, 0.0, out=np.empty_like(lap))
    z = _onehot(np.searchsorted(ids, p.assignment), ids.size)
    return ids, z.T @ w @ z


def summary_graph(g: WeightedGraph, p: Partition) -> ClusterSummaryGraph:
    """Collapse a partitioned graph to one node per cluster.

    Node ``c`` carries the vertex count and intra-cluster weight of cluster
    ``c``; an edge joins clusters ``c != c'`` with the summed weight of all
    crossing edges, omitted when that sum is zero.
    """
    ids, block = _cluster_blocks(g, p)
    sizes = p.sizes()
    intra = np.zeros(p.k)
    intra[ids] = np.diagonal(block)
    nodes = tuple(SummaryNode(c, int(sizes[c]), float(intra[c]) / 2.0)
                  for c in range(p.k))
    edges = []
    for a in range(ids.size):
        for b in range(a + 1, ids.size):
            if block[a, b] > 0:
                edges.append(SummaryEdge(int(ids[a]), int(ids[b]),
                                         float(block[a, b])))
    return ClusterSummaryGraph(nodes, tuple(edges))
