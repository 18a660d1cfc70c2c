"""Glyph scenes and force-directed placement for cluster maps.

Three scene builders cover the drawing modes: a force-directed view of the
cluster summary graph, a grid-anchored view of a trained map, and a
whole-graph view where every vertex is confined to the cell of its map unit.
All of them produce a :class:`LayoutScene`, which the SVG/DOT writers accept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graph import ClusterSummaryGraph, WeightedGraph
from .som import SomModel, som_partition

__all__ = [
    "Rect",
    "LayoutScene",
    "force_directed_layout",
    "som_map_scene",
    "constrained_full_layout",
    "CELL_SIDE",
]

# side length of one grid cell in scene units
CELL_SIDE = 100.0

# widest drawn edge; other widths scale linearly with their weight
_MAX_EDGE_WIDTH = 6.0

# distances below this are treated as contact to avoid division blowup
_EPS_DIST = 1e-9

# fraction of a cell kept clear on each side in constrained mode
_CELL_MARGIN = 0.05


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle; the origin is the top-left corner."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self):
        vals = (self.x, self.y, self.width, self.height)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("rectangle coordinates must be finite")
        if self.width < 0 or self.height < 0:
            raise ValueError("rectangle sides must be nonnegative")

    @property
    def x1(self) -> float:
        return self.x + self.width

    @property
    def y1(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))

    def shrunk(self, fraction: float) -> "Rect":
        """Inner rectangle with a margin of ``fraction`` of each side length."""
        if not 0 <= fraction < 0.5:
            raise ValueError("margin fraction must lie in [0, 0.5)")
        mx = self.width * fraction
        my = self.height * fraction
        return Rect(self.x + mx, self.y + my,
                    self.width - 2.0 * mx, self.height - 2.0 * my)

    def contains(self, x: float, y: float) -> bool:
        return bool(self.x <= x <= self.x1 and self.y <= y <= self.y1)


@dataclass(frozen=True, eq=False)
class LayoutScene:
    """Positioned glyphs, weighted edges, and an optional cell grid.

    ``item_groups`` maps every drawn item to a cluster id and ``group_sizes``
    holds the vertex count per cluster; renderers use the pair to decide which
    items are small enough to deserve a text label. In constrained scenes,
    ``cell_regions`` tiles the frame and ``cell_of_item`` pins each item to
    one cell; construction fails if any position escapes its cell.
    """

    positions: np.ndarray
    radii: np.ndarray
    edges: np.ndarray
    edge_widths: np.ndarray
    frame: Rect
    item_labels: tuple[str, ...]
    item_groups: np.ndarray
    group_sizes: np.ndarray
    cell_regions: tuple[Rect, ...] | None = None
    cell_of_item: np.ndarray | None = None

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[0] == 0 or pos.shape[1] != 2:
            raise ValueError("positions must be a nonempty (n, 2) array")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        n = pos.shape[0]

        radii = np.array(self.radii, dtype=np.float64)
        if radii.shape != (n,):
            raise ValueError("radii must have one entry per item")
        if not np.isfinite(radii).all() or (radii <= 0).any():
            raise ValueError("radii must be positive and finite")

        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        widths = np.array(self.edge_widths, dtype=np.float64)
        if widths.shape != (edges.shape[0],):
            raise ValueError("edge_widths must have one entry per edge")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoints out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError("self edges cannot be drawn")
            if not np.isfinite(widths).all() or (widths <= 0).any():
                raise ValueError("edge widths must be positive and finite")

        fr = self.frame
        if fr.width <= 0 or fr.height <= 0:
            raise ValueError("frame must have positive area")
        if (pos[:, 0] < fr.x).any() or (pos[:, 0] > fr.x1).any() \
                or (pos[:, 1] < fr.y).any() or (pos[:, 1] > fr.y1).any():
            raise ValueError("all positions must lie inside the frame")

        labels = tuple(str(s) for s in self.item_labels)
        if len(labels) != n:
            raise ValueError("item_labels must have one entry per item")

        groups = np.array(self.item_groups, dtype=np.int64)
        sizes = np.array(self.group_sizes, dtype=np.int64)
        if groups.shape != (n,):
            raise ValueError("item_groups must have one entry per item")
        if sizes.ndim != 1 or sizes.size == 0 or (sizes < 1).any():
            raise ValueError("group_sizes must be positive")
        if groups.min() < 0 or groups.max() >= sizes.size:
            raise ValueError("item group out of range")

        cells = self.cell_regions
        cell_of = self.cell_of_item
        if (cells is None) != (cell_of is None):
            raise ValueError("cell_regions and cell_of_item must come together")
        if cells is not None:
            cells = tuple(cells)
            cell_of = np.array(cell_of, dtype=np.int64)
            if cell_of.shape != (n,):
                raise ValueError("cell_of_item must have one entry per item")
            if cell_of.min() < 0 or cell_of.max() >= len(cells):
                raise ValueError("cell index out of range")
            # x0, y0, x1, y1 of each item's cell; bounds inclusive as in Rect
            box = np.array([(c.x, c.y, c.x1, c.y1) for c in cells])[cell_of]
            outside = ((pos < box[:, :2]) | (pos > box[:, 2:])).any(axis=1)
            if outside.any():
                i = int(np.flatnonzero(outside)[0])
                raise ValueError(f"item {i} lies outside its cell region")
            cell_of.setflags(write=False)

        for name, arr in (("positions", pos), ("radii", radii),
                          ("edges", edges), ("edge_widths", widths),
                          ("item_groups", groups), ("group_sizes", sizes)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "item_labels", labels)
        object.__setattr__(self, "cell_regions", cells)
        object.__setattr__(self, "cell_of_item", cell_of)

    @property
    def num_items(self) -> int:
        return int(self.positions.shape[0])


def _normalized_widths(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        return w.copy()
    return _MAX_EDGE_WIDTH * (w / w.max())


def _summary_radii(counts: np.ndarray, frame: Rect) -> np.ndarray:
    """Radii proportional to sqrt(count); the largest is 1/8 the short side."""
    counts = np.asarray(counts, dtype=np.float64)
    r0 = min(frame.width, frame.height) / 8.0 / np.sqrt(counts.max())
    return r0 * np.sqrt(counts)


def _repulsion(x, y, k, out_x, out_y):
    """Write the summed k^2/d repulsion on each of the points (x, y).

    ``dx[j, i] = x[i] - x[j]``, so the axis-0 sums run over j in order.
    """
    dx = x - x[:, None]
    dy = y - y[:, None]
    dist = dx * dx
    dist += dy * dy
    np.sqrt(dist, out=dist)
    np.maximum(dist, _EPS_DIST, out=dist)
    np.fill_diagonal(dist, np.inf)
    # (dx, dy) / dist * (k^2 / dist), folded into one factor
    dist *= dist
    f = np.divide(k * k, dist, out=dist)
    dx *= f
    dy *= f
    dx.sum(axis=0, out=out_x)
    dy.sum(axis=0, out=out_y)


def _anneal(pos, edges, norm_weights, iterations, k, lo, hi, temp0,
            repulsion_groups):
    """Cap-and-cool force iteration shared by the free and constrained modes.

    Repels only within each of the disjoint index groups in repulsion_groups,
    attracts along all edges, caps each displacement at a linearly shrinking
    temperature, then clips into [lo, hi] per coordinate.

    The vertices are renumbered so that every group is a contiguous slice,
    and each coordinate is kept in its own array. A vertex still sums its
    repulsion over its group in group order, then its edge pulls in edge
    order, so the renumbering changes no bit of the result.
    """
    n = pos.shape[0]
    groups = [np.asarray(idx, dtype=np.int64) for idx in repulsion_groups]
    grouped = np.concatenate([np.zeros(0, dtype=np.int64), *groups])
    rest = np.setdiff1d(np.arange(n), grouped)
    order = np.concatenate([grouped, rest])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    bounds = np.cumsum([0] + [idx.size for idx in groups])
    slices = [slice(s, e) for s, e in zip(bounds[:-1], bounds[1:]) if e - s >= 2]

    x = pos[order, 0].copy()
    y = pos[order, 1].copy()
    lo_x, lo_y = np.broadcast_to(lo, pos.shape)[order].T.copy()
    hi_x, hi_y = np.broadcast_to(hi, pos.shape)[order].T.copy()
    a = rank[edges[:, 0]]
    b = rank[edges[:, 1]]
    # one bincount per coordinate adds, for each vertex, its repulsion, then
    # its -pull as a first endpoint, then its +pull as a second endpoint
    bins = np.concatenate([np.arange(n), a, b])
    rep_x = np.zeros(n)
    rep_y = np.zeros(n)
    for t in range(iterations):
        temp = temp0 * (1.0 - t / iterations)
        for s in slices:
            _repulsion(x[s], y[s], k, rep_x[s], rep_y[s])
        dx = x[a] - x[b]
        dy = y[a] - y[b]
        dist = np.sqrt(dx * dx + dy * dy)
        np.maximum(dist, _EPS_DIST, out=dist)
        c = (dist / k) * norm_weights
        dx *= c
        dy *= c
        disp_x = np.bincount(bins, np.concatenate([rep_x, -dx, dx]), n)
        disp_y = np.bincount(bins, np.concatenate([rep_y, -dy, dy]), n)
        lengths = np.sqrt(disp_x * disp_x + disp_y * disp_y)
        scale = np.minimum(1.0, temp / np.maximum(lengths, _EPS_DIST))
        disp_x *= scale
        disp_y *= scale
        x += disp_x
        y += disp_y
        np.clip(x, lo_x, hi_x, out=x)
        np.clip(y, lo_y, hi_y, out=y)
    return np.column_stack([x, y])[rank]


def force_directed_layout(sg: ClusterSummaryGraph, iterations: int,
                          frame: Rect, seed: int) -> LayoutScene:
    """Lay out the summary graph with spring forces inside ``frame``.

    Classic scheme: every node pair repels with k^2/d, every edge attracts
    with d^2/k scaled by its weight over the largest weight, where
    k = sqrt(frame area / node count) is the ideal edge length. Displacements
    are capped by a temperature that cools linearly from a tenth of the frame
    diagonal, and positions are clamped to the frame. Starting positions are
    drawn uniformly from the frame under ``seed``, so the result is a pure
    function of (sg, iterations, frame, seed).
    """
    if iterations < 1:
        raise UsageError(f"iterations must be at least 1, got {iterations}")
    if frame.width <= 0 or frame.height <= 0:
        raise ValueError("frame must have positive width and height")
    nodes = sg.nodes
    n = len(nodes)
    edges = np.array([(e.a, e.b) for e in sg.edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([e.weight for e in sg.edges], dtype=np.float64)

    if n == 1:
        pos = np.array([frame.center], dtype=np.float64)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        origin = np.array([frame.x, frame.y])
        span = np.array([frame.width, frame.height])
        pos = origin + rng.random((n, 2)) * span
        norm_w = weights / weights.max() if weights.size else weights
        lo = np.array([frame.x, frame.y])
        hi = np.array([frame.x1, frame.y1])
        pos = _anneal(pos, edges, norm_w, iterations,
                      k=float(np.sqrt(frame.area / n)), lo=lo, hi=hi,
                      temp0=frame.diagonal / 10.0,
                      repulsion_groups=[np.arange(n)])

    counts = np.array([nd.vertex_count for nd in nodes], dtype=np.int64)
    return LayoutScene(
        positions=pos,
        radii=_summary_radii(counts, frame),
        edges=edges,
        edge_widths=_normalized_widths(weights),
        frame=frame,
        item_labels=tuple(str(nd.cluster) for nd in nodes),
        item_groups=np.arange(n),
        group_sizes=counts,
    )


def _grid_frame_and_cells(grid) -> tuple[Rect, tuple[Rect, ...]]:
    frame = Rect(0.0, 0.0, grid.cols * CELL_SIDE, grid.rows * CELL_SIDE)
    cells = tuple(Rect(c * CELL_SIDE, r * CELL_SIDE, CELL_SIDE, CELL_SIDE)
                  for r in range(grid.rows) for c in range(grid.cols))
    return frame, cells


def som_map_scene(model: SomModel, sg: ClusterSummaryGraph) -> LayoutScene:
    """Place one glyph per nonempty unit at its grid coordinate.

    ``sg`` must be the summary of ``som_partition(model)``: clusters are
    matched to units by index, and a count mismatch raises. The frame is the
    unit grid scaled by ``CELL_SIDE``, so a u-matrix raster drawn over the
    full frame lines up with the cells.
    """
    part = som_partition(model)
    counts = np.array([nd.vertex_count for nd in sg.nodes], dtype=np.int64)
    if sg.num_clusters != part.k or not np.array_equal(counts, part.sizes()):
        raise ValueError("summary clusters do not match the map's nonempty units")
    coords = part.params["unit_coords"]
    frame, cells = _grid_frame_and_cells(model.grid)
    pos = np.array([[(c + 0.5) * CELL_SIDE, (r + 0.5) * CELL_SIDE]
                    for r, c in coords], dtype=np.float64)
    edges = np.array([(e.a, e.b) for e in sg.edges], dtype=np.int64).reshape(-1, 2)
    weights = np.array([e.weight for e in sg.edges], dtype=np.float64)
    return LayoutScene(
        positions=pos,
        radii=_summary_radii(counts, frame),
        edges=edges,
        edge_widths=_normalized_widths(weights),
        frame=frame,
        item_labels=tuple(str(nd.cluster) for nd in sg.nodes),
        item_groups=np.arange(sg.num_clusters),
        group_sizes=counts,
        cell_regions=cells,
        cell_of_item=np.array([r * model.grid.cols + c for r, c in coords],
                              dtype=np.int64),
    )


def constrained_full_layout(g: WeightedGraph, model: SomModel,
                            iterations: int, seed: int) -> LayoutScene:
    """Lay out every vertex of ``g`` inside the cell of its map unit.

    Same spring scheme as :func:`force_directed_layout` with two changes:
    repulsion acts only between vertices sharing a unit, and after every step
    each vertex is projected back into its unit's cell, inset by a 5% margin.
    Attraction still runs over all graph edges, so ties between cells drag
    their endpoints toward the shared border. Deterministic under ``seed``.
    """
    if iterations < 1:
        raise UsageError(f"iterations must be at least 1, got {iterations}")
    if model.num_vertices != g.num_vertices:
        raise ValueError(
            f"map was trained on {model.num_vertices} vertices, "
            f"graph has {g.num_vertices}")
    grid = model.grid
    unit_of = model.assignment

    frame, cells = _grid_frame_and_cells(grid)
    inner = [cell.shrunk(_CELL_MARGIN) for cell in cells]
    lo = np.array([[inner[u].x, inner[u].y] for u in unit_of])
    hi = np.array([[inner[u].x1, inner[u].y1] for u in unit_of])

    n = g.num_vertices
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos = lo + rng.random((n, 2)) * (hi - lo)

    edge_list = list(g.edges())
    edges = np.array([(i, j) for i, j, _ in edge_list],
                     dtype=np.int64).reshape(-1, 2)
    weights = np.array([w for _, _, w in edge_list], dtype=np.float64)
    norm_w = weights / weights.max() if weights.size else weights

    groups = [np.flatnonzero(unit_of == u) for u in range(grid.num_units)]
    pos = _anneal(pos, edges, norm_w, iterations,
                  k=float(np.sqrt(frame.area / n)), lo=lo, hi=hi,
                  temp0=frame.diagonal / 10.0,
                  repulsion_groups=groups)

    part = som_partition(model)
    return LayoutScene(
        positions=pos,
        radii=np.full(n, CELL_SIDE / 30.0),
        edges=edges,
        edge_widths=_normalized_widths(weights),
        frame=frame,
        item_labels=g.labels,
        item_groups=part.assignment,
        group_sizes=part.sizes(),
        cell_regions=cells,
        cell_of_item=unit_of,
    )
