"""Glyph scenes and force-directed placement for cluster maps.

Three scene builders cover the drawing modes: a force-directed view of the
cluster summary graph, a grid-anchored view of a trained map, and a
whole-graph view where every vertex is confined to the cell of its map unit.
All of them produce a :class:`LayoutScene`, which the SVG/DOT writers accept.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import UsageError
from .graph import ClusterSummaryGraph, WeightedGraph
from .som import SomModel, som_partition

# side length of one grid cell in scene units
CELL_SIDE = 100.0

# widest drawn edge; other widths scale linearly with their weight
_MAX_EDGE_WIDTH = 6.0

# distances below this are treated as contact to avoid division blowup
_EPS_DIST = 1e-9

# fraction of a cell kept clear on each side in constrained mode
_CELL_MARGIN = 0.05

# Repulsion groups up to this size list their pairs; larger ones get a block
# each. On the n=615 landmark drawing (seeds 10 / 11, 2-vCPU x86, numpy 2.4,
# 40 interleaved rounds) the full layout took a median 0.346 / 0.488 s at 16,
# 0.342 / 0.466 at 32 and 0.342 / 0.472 at 64 (0.59 / 0.75 with no list, in
# 20 other rounds). At 64 the 50-cluster summary of the n=1500 workload lists
# its pairs and took 25% longer than in its block; at 32, 1% longer
_PAIR_LIST_MAX = 32


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
            # x0, y0, x1, y1 of each item's cell; its bounds are inclusive
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


def _over_largest(weights) -> np.ndarray:
    """Weights divided by their largest value; an empty array stays empty."""
    w = np.asarray(weights, dtype=np.float64)
    return w / w.max() if w.size else w


def _summary_radii(counts: np.ndarray, frame: Rect) -> np.ndarray:
    """Radii proportional to sqrt(count); the largest is 1/8 the short side."""
    counts = np.asarray(counts, dtype=np.float64)
    r0 = min(frame.width, frame.height) / 8.0 / np.sqrt(counts.max())
    return r0 * np.sqrt(counts)


def _pair_terms(d, k, inf_at, work):
    """Turn the (2, ...) differences ``d`` in place into k^2/d repulsion
    terms, with the (2, ...) work pair ``work``. The distance is inf at the
    flat indices ``inf_at`` (self pairs), which makes those terms +0."""
    dist, sq = work
    np.multiply(d[0], d[0], out=dist)
    dist += np.multiply(d[1], d[1], out=sq)
    np.sqrt(dist, out=dist)
    np.maximum(dist, _EPS_DIST, out=dist)
    np.put(dist, inf_at, np.inf)
    # (dx, dy) * k^2 / dist^2, a row at a time: d *= f would buffer f
    dist *= dist
    f = np.divide(k * k, dist, out=dist)
    d[0] *= f
    d[1] *= f


class _Repulsion:
    """The anneal's repulsion sums, brought up to date step by step.

    The groups are contiguous slices of the points ``xy``: first the groups
    of each size in ``small``, then those of each size m in ``large``. The
    small groups share one flat list of the ordered pairs (receiver, sender)
    of distinct members, sorted by receiver, then sender. In every step after
    one of their points moved, the list's terms are recomputed and summed
    per receiver by a bincount from +0; that drops only the +0 of each self
    pair, so a sum differs from a block's at most in the sign of a zero,
    which the anneal's own bincount from +0 absorbs.

    A large group is a (2, m, m) block, ``[:, j, i]`` the push of sender j
    on receiver i, that keeps its terms across steps. When at most half its
    points moved, it recomputes only the sender rows and receiver columns of
    the moved points and re-sums over its senders in order; otherwise it
    recomputes the whole block. A term depends on its two points alone, and
    a column term is exactly the negated row term (``0 - t`` keeps a zero
    +0), so the sums have the bits of a full pass.
    """

    def __init__(self, xy, k, small, large):
        self.xy, self.k = xy, k
        self.sums = np.zeros(xy.shape)
        starts = np.cumsum([0, *small]).tolist()
        self.members = starts[-1]
        self.recv, self.send = np.concatenate([np.zeros((2, 0), np.intp), *(
            f + np.array(np.nonzero(~np.eye(m, dtype=bool)))
            for f, m in zip(starts, small))], axis=1)
        self.terms = np.empty((2, self.recv.size))
        # a full pass's distance work, one buffer, not a fresh mmap per step;
        # a partial pass's rows, half a block at most, fit in it too
        self.scratch = np.empty(2 * max(self.terms.shape[1],
                                        max(large, default=0) ** 2))
        self.lone = []
        for start, m in zip(np.cumsum([self.members, *large]).tolist(), large):
            # views in tuples and plain ints: on a summary drawing's block of
            # 50, numpy scalars and unpacking cost a fifth of the full pass
            s = slice(start, start + m)
            self.lone.append((s, m, self.sums[:, s],
                              np.zeros((2, m, m)), np.arange(m) * (m + 1),
                              self.scratch[:2 * m * m].reshape(2, m, m)))

    def update(self, moved):
        """Bring the sums up to date after the points flagged in ``moved``."""
        xy = self.xy
        if np.count_nonzero(moved[:self.members]):
            d, work = self.terms, self.scratch[:self.terms.size].reshape(2, -1)
            # mode="clip" writes straight into out; "raise" would buffer it
            xy.take(self.recv, axis=1, out=d, mode="clip")
            xy.take(self.send, axis=1, out=work, mode="clip")
            np.subtract(d, work, out=d)
            _pair_terms(d, self.k, (), work)
            for terms, total in zip(d, self.sums[:, :self.members]):
                total[:] = np.bincount(self.recv, terms, self.members)
        for s, m, sums, terms, inf_at, work in self.lone:
            count = np.count_nonzero(moved[s])
            if 2 * count > m:
                np.subtract(xy[:, None, s], xy[:, s, None], out=terms)
                _pair_terms(terms, self.k, inf_at, work)
                terms.sum(axis=1, out=sums)
            elif count:
                # the moved points' sender rows, in the head of the scratch
                u = np.flatnonzero(moved[s])
                rows, work = self.scratch[:4 * count * m].reshape(2, 2, count, m)
                np.subtract(xy[:, None, s], xy[:, s, None][:, u], out=rows)
                _pair_terms(rows, self.k, u + m * np.arange(count), work)
                terms[:, u] = rows
                terms[:, :, u] = np.subtract(0.0, rows, out=rows).swapaxes(1, 2)
                terms.sum(axis=1, out=sums)


def _anneal(pos, edges, norm_weights, iterations, k, lo, hi, temp0,
            repulsion_groups):
    """Cap-and-cool force iteration shared by the free and constrained modes.

    Repels only within each of the disjoint index groups in repulsion_groups,
    attracts along all edges, caps each displacement at a linearly shrinking
    temperature, then clips into [lo, hi] per coordinate. Stops early at the
    first step that changes no coordinate: forces depend on the positions
    alone and a cooler step only shortens each capped move, so every later
    step would change nothing either. ``iterations`` is thus an upper bound,
    and the result is the same bits as running every step.

    The vertices are renumbered so that every group is a contiguous slice,
    the groups of at most ``_PAIR_LIST_MAX`` first, and the coordinates are
    the two rows of one array. A vertex still sums its repulsion over its
    group in group order, then its edge pulls in edge order, so the
    renumbering changes no bit of the result. A large group's repulsion is
    recomputed only where a point moved in the last step, and the small
    groups' pair list whole once one of its points moved (:class:`_Repulsion`).
    """
    n = pos.shape[0]
    groups = [idx for idx in (np.asarray(g, dtype=np.int64)
                              for g in repulsion_groups) if idx.size >= 2]
    small = [g for g in groups if g.size <= _PAIR_LIST_MAX]
    large = [g for g in groups if g.size > _PAIR_LIST_MAX]
    grouped = np.concatenate([np.zeros(0, dtype=np.int64), *small, *large])
    rest = np.delete(np.arange(n), grouped)  # np.setdiff1d would import numpy.ma
    order = np.concatenate([grouped, rest])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    xy = pos[order].T.copy()
    lo = np.broadcast_to(lo, pos.shape)[order].T.copy()
    hi = np.broadcast_to(hi, pos.shape)[order].T.copy()
    a = rank[edges[:, 0]]
    b = rank[edges[:, 1]]
    # one bincount per coordinate adds, for each vertex, its repulsion, then
    # its -pull as a first endpoint, then its +pull as a second endpoint
    bins = np.concatenate([np.arange(n), a, b])
    repulsion = _Repulsion(xy, k, [g.size for g in small],
                           [g.size for g in large])
    before, moved = np.empty_like(xy), np.ones(n, dtype=bool)
    # bit for bit, so that a -0 turned +0 counts as a move
    bits, bits_before = xy.view(np.int64), before.view(np.int64)
    changed = np.empty(xy.shape, dtype=bool)
    for t in range(iterations):
        temp = temp0 * (1.0 - t / iterations)
        repulsion.update(moved)
        d = xy.take(a, axis=1) - xy.take(b, axis=1)
        sq = d * d
        dist = np.sqrt(sq[0] + sq[1])
        np.maximum(dist, _EPS_DIST, out=dist)
        d *= (dist / k) * norm_weights
        disp = np.array([np.bincount(bins, w, n) for w in
                         np.concatenate([repulsion.sums, -d, d], axis=1)])
        sq = disp * disp
        lengths = np.sqrt(sq[0] + sq[1])
        disp *= np.minimum(1.0, temp / np.maximum(lengths, _EPS_DIST))
        np.copyto(before, xy)
        xy += disp
        # np.clip's max-then-min, without its per-call overhead
        np.minimum(np.maximum(xy, lo, out=xy), hi, out=xy)
        np.not_equal(bits, bits_before, out=changed)
        if not np.count_nonzero(np.logical_or(changed[0], changed[1], out=moved)):
            break
    return xy.T[rank]


def _spring(boxes, edges, weights, groups, frame: Rect, iterations: int,
            seed: int) -> np.ndarray:
    """Anneal items drawn uniformly under ``seed`` in their boxes, rows of
    (x, y, width, height) that also clip them, repelling within ``groups``;
    k = sqrt(frame area / n) and the temperature starts at frame diagonal / 10."""
    if iterations < 1:
        raise UsageError(f"iterations must be at least 1, got {iterations}")
    if frame.width <= 0 or frame.height <= 0:
        raise ValueError("frame must have positive width and height")
    n = boxes.shape[0]
    origin, span = boxes[:, :2], boxes[:, 2:]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos = origin + rng.random((n, 2)) * span
    return _anneal(pos, edges, _over_largest(weights), iterations,
                   k=float(np.sqrt(frame.area / n)), lo=origin,
                   hi=origin + span, temp0=frame.diagonal / 10.0,
                   repulsion_groups=groups)


def force_directed_layout(sg: ClusterSummaryGraph, iterations: int,
                          frame: Rect, seed: int) -> LayoutScene:
    """Lay out the summary graph with spring forces inside ``frame``.

    Classic scheme: every node pair repels with k^2/d, every edge attracts
    with d^2/k scaled by its weight over the largest weight, where
    k = sqrt(frame area / node count) is the ideal edge length. Displacements
    are capped by a temperature that cools linearly from a tenth of the frame
    diagonal, and positions are clamped to the frame. The loop stops at the
    first step that moves no node, so ``iterations`` is an upper bound and
    the result has the same bits as running every step. Starting positions
    are drawn uniformly from the frame under ``seed``, so the result is a
    pure function of (sg, iterations, frame, seed). A lone node sits at the
    frame's centre.
    """
    n = sg.num_clusters
    # a lone node's box is the frame's centre point, which pins it there
    box = ((frame.x, frame.y, frame.width, frame.height) if n > 1
           else (*frame.center, 0.0, 0.0))
    pos = _spring(np.tile(box, (n, 1)), sg.edges, sg.weights, [np.arange(n)],
                  frame, iterations, seed)
    return _summary_scene(sg, pos, frame)


def _summary_scene(sg: ClusterSummaryGraph, pos: np.ndarray, frame: Rect,
                   **cells) -> LayoutScene:
    """One glyph per cluster at ``pos``, sized by its vertex count."""
    return LayoutScene(
        positions=pos,
        radii=_summary_radii(sg.sizes, frame),
        edges=sg.edges,
        edge_widths=_MAX_EDGE_WIDTH * _over_largest(sg.weights),
        frame=frame,
        item_labels=tuple(map(str, range(sg.num_clusters))),
        item_groups=np.arange(sg.num_clusters),
        group_sizes=sg.sizes,
        **cells,
    )


def _grid_frame_and_cells(grid) -> tuple[Rect, tuple[Rect, ...]]:
    frame = Rect(0.0, 0.0, grid.cols * CELL_SIDE, grid.rows * CELL_SIDE)
    cells = tuple(Rect(c * CELL_SIDE, r * CELL_SIDE, CELL_SIDE, CELL_SIDE)
                  for r in range(grid.rows) for c in range(grid.cols))
    return frame, cells


def som_map_scene(model: SomModel, sg: ClusterSummaryGraph) -> LayoutScene:
    """Place one glyph per nonempty unit at its grid coordinate.

    ``sg`` must summarize a partition, in any vertex order, whose cluster c
    is the c-th nonempty unit, row-major: glyph c is drawn in its cell, and
    a cluster count or size other than those units' vertex counts raises.
    The frame is the unit grid scaled by ``CELL_SIDE``, so a u-matrix raster
    drawn over the full frame lines up with the cells.
    """
    counts = model.unit_counts()
    units = np.flatnonzero(counts)
    if sg.num_clusters != units.size or not np.array_equal(sg.sizes, counts[units]):
        raise ValueError("summary clusters do not match the map's nonempty units")
    frame, cells = _grid_frame_and_cells(model.grid)
    pos = (model.grid.unit_coords[units, ::-1] + 0.5) * CELL_SIDE
    return _summary_scene(sg, pos, frame, cell_regions=cells, cell_of_item=units)


def constrained_full_layout(g: WeightedGraph, model: SomModel,
                            iterations: int, seed: int) -> LayoutScene:
    """Lay out every vertex of ``g`` inside the cell of its map unit.

    Same spring scheme as :func:`force_directed_layout` with two changes:
    repulsion acts only between vertices sharing a unit, and after every step
    each vertex is projected back into its unit's cell, inset by a 5% margin.
    Attraction still runs over all graph edges, so ties between cells drag
    their endpoints toward the shared border. As there, the loop stops at the
    first step that moves no vertex, with the same bits as running every
    step. Deterministic under ``seed``.
    """
    if model.num_vertices != g.num_vertices:
        raise ValueError(
            f"map was trained on {model.num_vertices} vertices, "
            f"graph has {g.num_vertices}")
    unit_of = model.assignment
    frame, cells = _grid_frame_and_cells(model.grid)
    # every cell is CELL_SIDE square: move its corner in and take 2 margins off
    inset = CELL_SIDE * _CELL_MARGIN * np.array([1.0, 1.0, -2.0, -2.0])
    inner = np.array([astuple(cell) for cell in cells]) + inset
    i, j, weights = g.edge_arrays
    edges = np.stack((i, j), axis=1)
    groups = [np.flatnonzero(unit_of == u) for u in range(len(cells))]
    pos = _spring(inner[unit_of], edges, weights, groups, frame, iterations,
                  seed)

    part = som_partition(model)
    return LayoutScene(
        positions=pos,
        radii=np.full(g.num_vertices, CELL_SIDE / 30.0),
        edges=edges,
        edge_widths=_MAX_EDGE_WIDTH * _over_largest(weights),
        frame=frame,
        item_labels=g.labels,
        item_groups=part.assignment,
        group_sizes=part.sizes(),
        cell_regions=cells,
        cell_of_item=unit_of,
    )
