"""Deterministic SVG and DOT emission for layout scenes.

Output is built from plain string pieces with fixed 4-decimal coordinates,
so the same scene always serializes to the same bytes.
"""

from __future__ import annotations

import numpy as np

from .graph import ClusterSummaryGraph, WeightedGraph
from .layout import LayoutScene
from .som import UMatrix

# glyph fills, cycled by cluster id
_PALETTE = (
    "#4878a8", "#e49444", "#d1615d", "#85b6b2", "#6a9f58",
    "#e7ca60", "#a87c9f", "#f1a2a9", "#967662", "#b8b0ac",
)

_LABEL_FONT_SIZE = 10.0
# largest cluster whose items still get text labels
_LABEL_THRESHOLD = 3


def _fmt(v: float) -> str:
    return f"{float(v):.4f}"


def _escape(text: str) -> str:
    """XML-escape text content: ``&`` first, then ``<`` and ``>``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _shade(value: float, vmax: float) -> str:
    """Grayscale fill for a u-matrix pixel: white at 0, dark at the max."""
    # divided first: 200 * value overflows for a value above about 9e305
    level = 255 if vmax <= 0 else 255 - int(round(200.0 * (value / vmax)))
    return f"#{level:02x}{level:02x}{level:02x}"


def _raster_rects(raster: np.ndarray, frame) -> list[str]:
    grid = UMatrix(raster).values
    rows, cols = grid.shape
    pw = frame.width / cols
    ph = frame.height / rows
    vmax = float(grid.max())
    out = ['<g class="umatrix">']
    for r in range(rows):
        y = frame.y + r * ph
        for c in range(cols):
            x = frame.x + c * pw
            fill = _shade(float(grid[r, c]), vmax)
            out.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(pw)}" '
                       f'height="{_fmt(ph)}" fill="{fill}"/>')
    out.append("</g>")
    return out


def render_svg(scene: LayoutScene, *, umatrix=None) -> bytes:
    """Serialize a scene to a standalone SVG document.

    Layer order is background, u-matrix raster, cell borders, edges, glyphs,
    labels. Glyphs are filled from a fixed palette cycled by cluster id. An
    item gets a text label only if its cluster holds at most 3 vertices,
    which keeps names readable by marking just the small clusters.

    Args:
        scene: what to draw.
        umatrix: optional 2-D array drawn as a grayscale raster over the
            whole frame; pass an upsampled u-matrix for a smooth background.

    Returns:
        UTF-8 bytes of the SVG document.
    """
    fr = scene.frame
    pos = scene.positions

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(fr.width)}" height="{_fmt(fr.height)}" '
        f'viewBox="{_fmt(fr.x)} {_fmt(fr.y)} {_fmt(fr.width)} {_fmt(fr.height)}">',
        f'<rect x="{_fmt(fr.x)}" y="{_fmt(fr.y)}" width="{_fmt(fr.width)}" '
        f'height="{_fmt(fr.height)}" fill="#ffffff"/>',
    ]
    if umatrix is not None:
        parts.extend(_raster_rects(umatrix, fr))
    if scene.cell_regions is not None:
        parts.append('<g class="cells" fill="none" stroke="#bbbbbb" '
                     'stroke-width="1">')
        for cell in scene.cell_regions:
            parts.append(f'<rect x="{_fmt(cell.x)}" y="{_fmt(cell.y)}" '
                         f'width="{_fmt(cell.width)}" height="{_fmt(cell.height)}"/>')
        parts.append("</g>")
    if scene.edges.shape[0]:
        parts.append('<g class="edges" stroke="#777777" stroke-opacity="0.6">')
        for (a, b), w in zip(scene.edges.tolist(), scene.edge_widths.tolist()):
            parts.append(f'<line x1="{_fmt(pos[a, 0])}" y1="{_fmt(pos[a, 1])}" '
                         f'x2="{_fmt(pos[b, 0])}" y2="{_fmt(pos[b, 1])}" '
                         f'stroke-width="{_fmt(w)}"/>')
        parts.append("</g>")
    parts.append('<g class="glyphs" stroke="#333333" stroke-width="1">')
    for i in range(scene.num_items):
        fill = _PALETTE[int(scene.item_groups[i]) % len(_PALETTE)]
        parts.append(f'<circle cx="{_fmt(pos[i, 0])}" cy="{_fmt(pos[i, 1])}" '
                     f'r="{_fmt(scene.radii[i])}" fill="{fill}"/>')
    parts.append("</g>")
    group_sizes = scene.group_sizes
    texts = []
    for i in range(scene.num_items):
        if group_sizes[scene.item_groups[i]] > _LABEL_THRESHOLD:
            continue
        x, y = pos[i, 0], pos[i, 1] - scene.radii[i] - 2.0
        texts.append(f'<text x="{_fmt(x)}" y="{_fmt(y)}" '
                     f'text-anchor="middle">{_escape(scene.item_labels[i])}</text>')
    if texts:
        parts.append(f'<g class="labels" font-family="sans-serif" '
                     f'font-size="{_fmt(_LABEL_FONT_SIZE)}" fill="#111111">')
        parts.extend(texts)
        parts.append("</g>")
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(obj, scene: LayoutScene | None = None) -> bytes:
    """Serialize a summary graph or a weighted graph as DOT text.

    Edge weights are written as ``weight`` attributes. When ``scene`` is
    given, node statements carry pinned positions and widths taken from it,
    so external tools can reproduce the layout.
    """
    if isinstance(obj, ClusterSummaryGraph):
        head = ["graph clusters {", "  node [shape=circle];"]
        names = [str(c) for c in range(obj.num_clusters)]
        attrs = [[f"vertices={size}", f"intra={_fmt(intra)}"]
                 for size, intra in zip(obj.sizes.tolist(), obj.intra.tolist())]
        ends, weights = obj.edges.tolist(), obj.weights.tolist()
    elif isinstance(obj, WeightedGraph):
        head = ["graph vertices {"]
        names = [_quote(label) for label in obj.labels]
        attrs = [[] for _ in names]
        i, j, w = obj.edge_arrays
        ends, weights = zip(i.tolist(), j.tolist()), w.tolist()
    else:
        raise TypeError(
            f"expected ClusterSummaryGraph or WeightedGraph, got {type(obj).__name__}")
    if scene is not None:
        if scene.num_items != len(names):
            raise ValueError(f"scene does not match the graph: {scene.num_items} "
                             f"items, {len(names)} nodes")
        # pos in drawing units, width in the 72-per-unit convention viewers expect
        for node, (x, y), r in zip(attrs, scene.positions.tolist(), scene.radii.tolist()):
            node += [f'pos="{_fmt(x)},{_fmt(y)}!"', f"width={_fmt(2.0 * r / 72.0)}"]
    lines = head + [f"  {name} [{', '.join(node)}];" if node else f"  {name};"
                    for name, node in zip(names, attrs)]
    lines += [f"  {names[a]} -- {names[b]} [weight={_fmt(w)}];"
              for (a, b), w in zip(ends, weights)]
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
