import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from graphsom.errors import ParseError
from graphsom.graph import Partition, WeightedGraph, load_edge_list, summary_graph
from graphsom.layout import (LayoutScene, Rect, constrained_full_layout,
                             force_directed_layout, som_map_scene)
from graphsom.render import export_dot, render_svg
from graphsom.som import SomGrid, SomModel, som_partition
from graphgen import from_weights, random_graph, two_cliques


def uniform_model(grid, assignment):
    assignment = np.asarray(assignment, dtype=np.int64)
    n = assignment.size
    gamma = np.full((grid.num_units, n), 1.0 / n)
    return SomModel(grid, gamma, assignment, np.zeros(1))


def simple_scene(group_sizes=(2, 5), labels=("a", "b")):
    return LayoutScene(
        positions=[[20.0, 30.0], [70.0, 40.0]],
        radii=[4.0, 8.0],
        edges=[[0, 1]],
        edge_widths=[2.0],
        frame=Rect(0.0, 0.0, 100.0, 100.0),
        item_labels=labels,
        item_groups=[0, 1],
        group_sizes=group_sizes,
    )


def svg_elements(svg, local_name):
    root = ET.fromstring(svg.decode("utf-8"))
    return [el for el in root.iter() if el.tag.split("}")[-1] == local_name]


# tiny DOT reader: enough grammar to check the emitted statements hold up

def tokenize_dot(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while text[j] != '"':
                if text[j] == "\\":
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            tokens.append(("str", "".join(buf)))
            i = j + 1
        elif text[i:i + 2] == "--":
            tokens.append(("--", "--"))
            i += 2
        elif ch in "{}[];,=":
            tokens.append((ch, ch))
            i += 1
        else:
            j = i
            while (j < len(text) and not text[j].isspace()
                   and text[j] not in '{}[];,="' and text[j:j + 2] != "--"):
                j += 1
            tokens.append(("id", text[i:j]))
            i = j
    return tokens


def parse_dot(data):
    """Parse `graph name { stmts }` and return (name, node ids, edges)."""
    toks = tokenize_dot(data.decode("utf-8"))
    pos = 0

    def take(kind=None):
        nonlocal pos
        assert pos < len(toks), "unexpected end of input"
        tok = toks[pos]
        if kind is not None:
            assert tok[0] == kind, f"expected {kind}, got {tok}"
        pos += 1
        return tok

    def take_value():
        tok = take()
        assert tok[0] in ("id", "str"), f"expected a value, got {tok}"
        return tok[1]

    def skip_attrs():
        if toks[pos][0] != "[":
            return {}
        take("[")
        attrs = {}
        while toks[pos][0] != "]":
            key = take_value()
            take("=")
            attrs[key] = take_value()
            if toks[pos][0] == ",":
                take(",")
        take("]")
        return attrs

    kw = take("id")
    assert kw[1] == "graph"
    name = take_value()
    take("{")
    nodes, edges = {}, []
    while toks[pos][0] != "}":
        first = take_value()
        if toks[pos][0] == "--":
            take("--")
            second = take_value()
            edges.append((first, second, skip_attrs()))
        else:
            nodes[first] = skip_attrs()
        take(";")
    take("}")
    assert pos == len(toks)
    return name, nodes, edges


class TestRenderSvg:
    def test_well_formed_and_deterministic(self):
        scene = simple_scene()
        svg = render_svg(scene)
        assert svg.startswith(b'<?xml version="1.0"')
        ET.fromstring(svg.decode("utf-8"))
        assert render_svg(scene) == svg

    def test_circles_only_when_no_edges(self):
        scene = LayoutScene(
            positions=[[10.0, 10.0], [30.0, 30.0]],
            radii=[3.0, 3.0],
            edges=np.empty((0, 2), dtype=np.int64),
            edge_widths=[],
            frame=Rect(0, 0, 50, 50),
            item_labels=("x", "y"),
            item_groups=[0, 1],
            group_sizes=[4, 4],
        )
        svg = render_svg(scene)
        assert b"<line" not in svg
        assert len(svg_elements(svg, "circle")) == 2

    def test_raster_precedes_glyphs(self):
        g = two_cliques(4)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 4))
        sg = summary_graph(g, som_partition(model))
        scene = som_map_scene(model, sg)
        svg = render_svg(scene, umatrix=np.array([[0.0, 1.0]]))
        assert svg.index(b'class="umatrix"') < svg.index(b'class="cells"')
        assert svg.index(b'class="cells"') < svg.index(b'class="glyphs"')

    def test_raster_shades(self):
        scene = simple_scene()
        svg = render_svg(scene, umatrix=np.array([[0.0, 1.0]]))
        assert svg.count(b'fill="#ffffff"') >= 2  # background plus the 0 pixel
        assert b'fill="#373737"' in svg

    def test_flat_raster_is_white(self):
        scene = simple_scene()
        svg = render_svg(scene, umatrix=np.zeros((2, 2)))
        rects = [el for el in svg_elements(svg, "rect")]
        fills = {el.get("fill") for el in rects if el.get("fill")}
        assert fills == {"#ffffff"}

    def test_labels_only_for_small_clusters(self):
        svg = render_svg(simple_scene(group_sizes=(2, 5)))
        texts = svg_elements(svg, "text")
        assert [t.text for t in texts] == ["a"]
        svg_all = render_svg(simple_scene(group_sizes=(3, 1)))
        assert len(svg_elements(svg_all, "text")) == 2
        svg_none = render_svg(simple_scene(group_sizes=(4, 9)))
        assert b"<text" not in svg_none

    def test_labels_escaped(self):
        svg = render_svg(simple_scene(labels=("a<b&c", "d")))
        assert b"a&lt;b&amp;c" in svg
        assert b"<b&c" not in svg
        assert svg_elements(svg, "text")[0].text == "a<b&c"
        svg = render_svg(simple_scene(labels=("x>&y<z&amp;", "d")))
        assert b">x&gt;&amp;y&lt;z&amp;amp;</text>" in svg
        assert svg_elements(svg, "text")[0].text == "x>&y<z&amp;"

    def test_edge_widths_written(self):
        svg = render_svg(simple_scene())
        lines = svg_elements(svg, "line")
        assert lines[0].get("stroke-width") == "2.0000"

    def test_option_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            render_svg(simple_scene(), umatrix=np.zeros(4))
        with pytest.raises(ValueError, match="nonnegative"):
            render_svg(simple_scene(), umatrix=np.array([[-1.0, 0.0]]))

    def test_layout_to_svg_roundtrip_deterministic(self):
        g = random_graph(30, rng=0)
        sg = summary_graph(g, Partition(np.arange(30) % 5, 5))
        frame = Rect(0, 0, 300, 200)
        first = render_svg(force_directed_layout(sg, 150, frame, seed=6))
        second = render_svg(force_directed_layout(sg, 150, frame, seed=6))
        assert first == second


# labels with characters that XML allows but rarely meets: DEL, C1 controls,
# Unicode separators, the ends of the allowed ranges, and markup characters
ODD_LABELS = ("del\x7f", "next\x85line", "para\u2029graph", "\ud7ff\ue000\ufffd",
              "\U0001f600 <&>\"'")


def odd_scenes():
    g = WeightedGraph(ODD_LABELS, np.ones((5, 5)) - np.eye(5))
    yield simple_scene(group_sizes=(1, 1), labels=ODD_LABELS[:2])
    model = uniform_model(SomGrid(1, 2), [0, 0, 1, 1, 1])
    sg = summary_graph(g, som_partition(model))
    yield som_map_scene(model, sg)
    yield force_directed_layout(sg, 20, Rect(0, 0, 100, 100), seed=3)
    yield constrained_full_layout(g, model, 20, seed=3)


@pytest.mark.parametrize("scene", odd_scenes(), ids=["simple", "map", "summary", "full"])
@pytest.mark.parametrize("umatrix", [None, np.array([[0.0, 1.0]])], ids=["plain", "raster"])
def test_rendered_svg_parses(scene, umatrix):
    svg = render_svg(scene, umatrix=umatrix)
    root = ET.fromstring(svg)
    texts = {el.text for el in root.iter() if el.tag.split("}")[-1] == "text"}
    assert texts <= set(scene.item_labels)


@pytest.mark.parametrize("code", [*range(0x20), 0x7f, 0x85, 0x2028, 0xfffe, 0xffff],
                         ids=lambda code: f"U+{code:04X}")
def test_every_loadable_label_draws_a_parsable_svg(code):
    char = chr(code)
    try:
        g = load_edge_list(io.StringIO(f"a{char}b\tc\t1\nc\td\t1\nd\ta{char}b\t1\n"))
    except ParseError as exc:
        assert f"U+{code:04X}" in str(exc) or char in "\t\n\r"
        return
    scene = constrained_full_layout(g, uniform_model(SomGrid(1, 2), [0, 1, 1]), 20, seed=3)
    texts = [el.text for el in svg_elements(render_svg(scene), "text")]
    assert sorted(texts) == sorted(g.labels)


def dot_fixture():
    """Weighted graph with labels that need escaping and an isolated vertex,
    and its summary under three clusters (the last one isolated)."""
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.5
    w[0, 2] = w[2, 0] = 0.25
    w[1, 2] = w[2, 1] = 2.0
    g = WeightedGraph(('say "hi"', "back\\slash", "plain", "lonely"), w)
    return g, summary_graph(g, Partition(np.array([0, 0, 1, 2]), 3))


def dot_scene(n):
    return LayoutScene(
        positions=[[10.0 + 20.0 * i, 12.5 + 5.0 * i] for i in range(n)],
        radii=[3.0 + i for i in range(n)],
        edges=np.empty((0, 2), dtype=np.int64),
        edge_widths=[],
        frame=Rect(0.0, 0.0, 100.0, 50.0),
        item_labels=[str(i) for i in range(n)],
        item_groups=list(range(n)),
        group_sizes=[1] * n,
    )


class TestDotBytes:
    def test_summary_graph(self):
        _, sg = dot_fixture()
        assert export_dot(sg) == (
            b"graph clusters {\n"
            b"  node [shape=circle];\n"
            b"  0 [vertices=2, intra=1.5000];\n"
            b"  1 [vertices=1, intra=0.0000];\n"
            b"  2 [vertices=1, intra=0.0000];\n"
            b"  0 -- 1 [weight=2.2500];\n"
            b"}\n")

    def test_summary_graph_with_scene(self):
        _, sg = dot_fixture()
        assert export_dot(sg, dot_scene(3)) == (
            b"graph clusters {\n"
            b"  node [shape=circle];\n"
            b'  0 [vertices=2, intra=1.5000, pos="10.0000,12.5000!", width=0.0833];\n'
            b'  1 [vertices=1, intra=0.0000, pos="30.0000,17.5000!", width=0.1111];\n'
            b'  2 [vertices=1, intra=0.0000, pos="50.0000,22.5000!", width=0.1389];\n'
            b"  0 -- 1 [weight=2.2500];\n"
            b"}\n")

    def test_weighted_graph(self):
        g, _ = dot_fixture()
        assert export_dot(g) == (
            b"graph vertices {\n"
            b'  "say \\"hi\\"";\n'
            b'  "back\\\\slash";\n'
            b'  "plain";\n'
            b'  "lonely";\n'
            b'  "say \\"hi\\"" -- "back\\\\slash" [weight=1.5000];\n'
            b'  "say \\"hi\\"" -- "plain" [weight=0.2500];\n'
            b'  "back\\\\slash" -- "plain" [weight=2.0000];\n'
            b"}\n")

    def test_weighted_graph_with_scene(self):
        g, _ = dot_fixture()
        assert export_dot(g, dot_scene(4)) == (
            b"graph vertices {\n"
            b'  "say \\"hi\\"" [pos="10.0000,12.5000!", width=0.0833];\n'
            b'  "back\\\\slash" [pos="30.0000,17.5000!", width=0.1111];\n'
            b'  "plain" [pos="50.0000,22.5000!", width=0.1389];\n'
            b'  "lonely" [pos="70.0000,27.5000!", width=0.1667];\n'
            b'  "say \\"hi\\"" -- "back\\\\slash" [weight=1.5000];\n'
            b'  "say \\"hi\\"" -- "plain" [weight=0.2500];\n'
            b'  "back\\\\slash" -- "plain" [weight=2.0000];\n'
            b"}\n")


class TestExportDot:
    def summary_fixture(self):
        g = two_cliques(10, bridge=2.0)
        return summary_graph(g, Partition(np.repeat([0, 1], 10), 2))

    def test_summary_statements(self):
        dot = export_dot(self.summary_fixture())
        name, nodes, edges = parse_dot(dot)
        assert name == "clusters"
        assert set(nodes) >= {"0", "1"}
        assert edges == [("0", "1", {"weight": "2.0000"})]
        assert nodes["0"]["vertices"] == "10"

    def test_scene_positions_embedded(self):
        sg = self.summary_fixture()
        scene = force_directed_layout(sg, 50, Rect(0, 0, 100, 100), seed=0)
        name, nodes, edges = parse_dot(export_dot(sg, scene))
        pos = nodes["0"]["pos"]
        assert pos.endswith("!")
        x, y = pos[:-1].split(",")
        assert float(x) == pytest.approx(scene.positions[0, 0], abs=1e-3)
        assert float(y) == pytest.approx(scene.positions[0, 1], abs=1e-3)
        assert "width" in nodes["0"]

    def test_weighted_graph_nodes_quoted(self):
        w = np.array([[0.0, 2.5], [2.5, 0.0]])
        g = WeightedGraph(("first name", 'piece "quoted"'), w)
        name, nodes, edges = parse_dot(export_dot(g))
        assert name == "vertices"
        assert set(nodes) == {"first name", 'piece "quoted"'}
        assert edges == [("first name", 'piece "quoted"', {"weight": "2.5000"})]

    def test_special_characters_roundtrip(self):
        tricky = ("back\\slash", "qu\"ote", "semi;colon", "brace{x}")
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = WeightedGraph(tricky, w)
        name, nodes, edges = parse_dot(export_dot(g))
        assert set(nodes) == set(tricky)

    def test_isolated_vertices_still_listed(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = from_weights(w)
        name, nodes, edges = parse_dot(export_dot(g))
        assert set(nodes) == {"v0", "v1", "v2"}
        assert len(edges) == 1

    def test_scene_mismatch_rejected(self):
        sg = self.summary_fixture()
        scene_three = LayoutScene(
            positions=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
            radii=[1.0, 1.0, 1.0],
            edges=np.empty((0, 2), dtype=np.int64),
            edge_widths=[],
            frame=Rect(0, 0, 10, 10),
            item_labels=("a", "b", "c"),
            item_groups=[0, 1, 2],
            group_sizes=[1, 1, 1],
        )
        with pytest.raises(ValueError, match="match"):
            export_dot(sg, scene_three)

    def test_type_check(self):
        with pytest.raises(TypeError, match="expected"):
            export_dot([1, 2, 3])

    def test_deterministic(self):
        sg = self.summary_fixture()
        assert export_dot(sg) == export_dot(sg)
