import io
import math

import numpy as np
import pytest

from graphsom import ParseError, Partition, UsageError, WeightedGraph, load_edge_list, \
    q_modularity, summary_graph
from graphgen import complete_graph, edge_list, from_weights, path_graph, random_graph, \
    two_cliques


class TestWeightedGraph:
    def test_basic_properties(self):
        g = path_graph(3)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.total_weight == 2.0
        assert g.labels == ("v0", "v1", "v2")
        np.testing.assert_array_equal(np.diagonal(g.laplacian()), [1.0, 2.0, 1.0])

    def test_weights_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 9.0

    def test_rejects_asymmetric(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            WeightedGraph(("a", "b"), w)

    def test_rejects_self_loop_weight(self):
        w = np.zeros((2, 2))
        w[0, 0] = 1.0
        with pytest.raises(ValueError, match="diagonal"):
            WeightedGraph(("a", "b"), w)

    def test_rejects_negative_and_nonfinite(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedGraph(("a", "b"), w)
        w = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            WeightedGraph(("a", "b"), w)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            WeightedGraph(("a", "a"), np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedGraph((), np.zeros((0, 0)))

    def test_edges_iteration(self):
        g = path_graph(3, weight=2.5)
        assert edge_list(g) == [(0, 1, 2.5), (1, 2, 2.5)]


class TestLaplacian:
    def test_triangle_exact(self):
        g = complete_graph(3)
        expected = np.array([
            [2.0, -1.0, -1.0],
            [-1.0, 2.0, -1.0],
            [-1.0, -1.0, 2.0],
        ])
        np.testing.assert_array_equal(g.laplacian(), expected)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            g = random_graph(n, rng=rng)
            lap = g.laplacian()
            max_deg = np.diagonal(lap).max()
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(max_deg, 1.0)

    def test_diagonal_is_degrees(self):
        g = random_graph(15, rng=3)
        assert np.diagonal(g.laplacian()).tobytes() == g.weights.sum(axis=1).tobytes()

    def test_positive_semidefinite_quadform(self):
        rng = np.random.default_rng(11)
        g = random_graph(12, rng=rng)
        lap = g.laplacian()
        for _ in range(10):
            x = rng.normal(size=12)
            assert x @ lap @ x >= -1e-10


def dense_laplacian(w):
    """L as the graph built it while it held L: W negated, then the diagonal
    filled with 0.0 minus the row sums of -W."""
    lap = np.negative(w)
    np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
    return lap


class TestLaplacianBytes:
    """L is built from the edge list with the bytes it had when built from W."""

    @pytest.mark.parametrize("g", [
        path_graph(7), complete_graph(6, weight=0.3), two_cliques(4, bridge=0.5),
        random_graph(30, rng=2), random_graph(40, density=0.05, rng=3),
    ], ids=["path", "complete", "two cliques", "random", "sparse"])
    def test_built_graphs(self, g):
        assert g.laplacian().tobytes() == dense_laplacian(np.array(g.weights)).tobytes()

    def test_loaded_edge_list(self):
        text = "a\tb\t1.5\nb\tc\t0.25\nb\ta\t2.5\nlone\tlone\nc\ta\t0.1\na\tc\t0.7\n"
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_edge_list(io.StringIO(text))
        assert g.labels == ("a", "b", "c", "lone")
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.5 + 2.5
        w[1, 2] = w[2, 1] = 0.25
        w[0, 2] = w[2, 0] = 0.1 + 0.7
        lap = g.laplacian()
        assert lap.tobytes() == dense_laplacian(w).tobytes()
        # a non-edge is -0.0 and the isolated vertex's degree +0.0
        assert np.signbit(lap[0, 3]) and not np.signbit(lap[3, 3])
        assert edge_list(g) == [(0, 1, 4.0), (0, 2, 0.1 + 0.7), (1, 2, 0.25)]


def dense_q(block):
    """q-modularity from a dense k x k block of cluster sums."""
    total = block.sum()
    return np.trace(block) / total - ((block.sum(axis=1) / total) ** 2).sum()


def partitions(n):
    """A random partition into ids 0..5 of 8, and one that also skips id 2."""
    ids = np.random.default_rng(1).integers(0, 6, n)
    return Partition(ids, 8), Partition(np.where(ids == 2, 5, ids), 8)


CLUSTERED_GRAPHS = pytest.mark.parametrize(
    "g", [random_graph(40, rng=9), complete_graph(12, weight=0.3)], ids=["random", "complete"])


class TestClusterBlocks:
    """Cluster sums over the edges equal the dense block products."""

    @CLUSTERED_GRAPHS
    def test_match_the_dense_products(self, g):
        n = g.num_vertices
        for p in partitions(n):
            z = np.zeros((n, p.k))
            z[np.arange(n), p.assignment] = 1.0
            w = g.weights
            weighted, counts = z.T @ w @ z, z.T @ (w > 0) @ z
            s = summary_graph(g, p)
            np.testing.assert_array_equal(s.sizes, z.sum(axis=0))
            np.testing.assert_allclose(s.intra, np.diagonal(weighted) / 2.0,
                                       rtol=1e-12, atol=0)
            a, b = np.nonzero(np.triu(weighted, 1))
            np.testing.assert_array_equal(s.edges, np.column_stack([a, b]))
            np.testing.assert_allclose(s.weights, weighted[a, b], rtol=1e-12, atol=0)
            assert q_modularity(g, p) == pytest.approx(dense_q(weighted), abs=1e-13)
            assert q_modularity(g, p, weighted=False) == pytest.approx(dense_q(counts),
                                                                       abs=1e-13)

    @CLUSTERED_GRAPHS
    def test_sum_each_direction_in_edge_order(self, g):
        # bit for bit what the mirrored block half + half^T held
        for p in partitions(g.num_vertices):
            c = p.assignment
            half = np.zeros((p.k, p.k))
            for i, j, w in edge_list(g):
                half[c[i], c[j]] += w
            block = half + half.T
            s = summary_graph(g, p)
            assert s.intra.tobytes() == np.diagonal(half).tobytes()
            assert s.weights.tobytes() == block[tuple(s.edges.T)].tobytes()


def weight_matrices():
    """Random, complete, path and edgeless weight matrices."""
    rng = np.random.default_rng(4)
    random = np.triu(rng.uniform(0.1, 5.0, (12, 12)) * (rng.random((12, 12)) < 0.3), 1)
    path = np.diag(np.arange(1.0, 7.0), 1)
    return {"random": random + random.T, "complete": np.ones((6, 6)) - np.eye(6),
            "path": path + path.T, "edgeless": np.zeros((5, 5)),
            "single vertex": np.zeros((1, 1))}


class TestDerivedFromLaplacian:
    """The graph keeps only its edges; everything it reports is what W gave."""

    @pytest.mark.parametrize("name", list(weight_matrices()))
    def test_matches_the_weight_formulas(self, name):
        w = weight_matrices()[name]
        g = from_weights(w)
        lap = np.negative(w)
        np.fill_diagonal(lap, w.sum(axis=1))
        edges = [(i, j, float(w[i, j])) for i in range(len(w))
                 for j in range(i + 1, len(w)) if w[i, j]]
        assert g.weights.tobytes() == w.tobytes()
        assert g.laplacian().tobytes() == lap.tobytes()
        assert g.num_edges == np.count_nonzero(w) // 2
        # summed in edge order
        assert g.total_weight == float(np.array([e[2] for e in edges]).sum())
        assert edge_list(g) == edges

    @pytest.mark.parametrize("name", ["edgeless", "single vertex"])
    def test_edgeless_total_weight_is_positive_zero(self, name):
        g = from_weights(weight_matrices()[name])
        assert g.total_weight == 0.0
        assert math.copysign(1.0, g.total_weight) == 1.0

    def test_loaded_graph_matches_the_constructed_one(self):
        w = weight_matrices()["random"]
        lines = [f"v{i}\tv{j}\t{weight!r}" for i, j, weight in edge_list(from_weights(w))]
        lines.append("lone\tlone")  # a vertex with no edges, degree +0.0
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_edge_list(io.StringIO("\n".join(lines)))
        # vertices are indexed by first appearance, "lone" last
        order = [int(label[1:]) for label in g.labels[:-1]]
        full = np.zeros((len(order) + 1,) * 2)
        full[:-1, :-1] = w[np.ix_(order, order)]
        expected = from_weights(full)
        assert g.laplacian().tobytes() == expected.laplacian().tobytes()
        assert g.weights.tobytes() == full.tobytes()
        assert g.total_weight == expected.total_weight
        assert edge_list(g) == edge_list(expected)

    def test_weights_are_new_and_read_only(self):
        g = path_graph(4)
        assert g.weights is not g.weights
        assert not g.weights.flags.writeable
        assert not g.laplacian().flags.writeable


class TestPartition:
    def test_sizes_and_members(self):
        p = Partition(np.array([0, 1, 0, 2]), 3)
        np.testing.assert_array_equal(p.sizes(), [2, 1, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 3]), 3)
        with pytest.raises(ValueError):
            Partition(np.array([-1, 0]), 2)

class TestLoadEdgeList:
    def load(self, text):
        return load_edge_list(io.StringIO(text))

    def test_basic(self):
        g = self.load("a\tb\t2.0\nb\tc\n")
        assert g.labels == ("a", "b", "c")
        assert g.weights[0, 1] == 2.0
        assert g.weights[1, 2] == 1.0  # missing weight defaults to 1
        assert g.weights[0, 2] == 0.0

    def test_comments_and_blanks(self):
        g = self.load("# header\n\na\tb\n   \n# tail\n")
        assert g.num_edges == 1

    def test_duplicates_summed_both_orders(self):
        g = self.load("a\tb\t1.5\nb\ta\t2.5\n")
        assert g.weights[0, 1] == 4.0

    def test_self_loop_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = self.load("a\ta\t3.0\na\tb\n")
        assert g.num_vertices == 2
        assert g.weights[0, 0] == 0.0

    def test_self_loop_only_vertex_still_registered(self):
        with pytest.warns(UserWarning):
            g = self.load("a\ta\nb\tc\n")
        assert g.labels == ("a", "b", "c")
        assert np.diagonal(g.laplacian())[0] == 0.0

    def test_bad_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            self.load("a\tb\nx\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="unparseable"):
            self.load("a\tb\theavy\n")

    def test_nonpositive_weight(self):
        with pytest.raises(ParseError, match="positive"):
            self.load("a\tb\t0\n")
        with pytest.raises(ParseError, match="negative"):
            self.load("a\tb\t-2\n")
        with pytest.raises(ParseError, match="finite"):
            self.load("a\tb\tinf\n")

    def test_matches_pair_loop_reference(self):
        rng = np.random.default_rng(5)
        lines, ref = [], {}
        for _ in range(300):
            a, b = (int(x) for x in rng.integers(0, 40, 2))
            if a == b:
                continue
            weight = float(rng.uniform(0.1, 5.0))
            lines.append(f"v{a}\tv{b}\t{weight!r}")
            key = (min(a, b), max(a, b))
            ref[key] = ref.get(key, 0.0) + weight
        g = self.load("\n".join(lines) + "\n")
        expected = np.zeros((g.num_vertices, g.num_vertices))
        index = {label: i for i, label in enumerate(g.labels)}
        for (a, b), weight in ref.items():
            i, j = index[f"v{a}"], index[f"v{b}"]
            expected[i, j] = expected[j, i] = weight
        assert g.weights.tobytes() == expected.tobytes()
        assert g.laplacian().tobytes() == dense_laplacian(expected).tobytes()

    def test_empty_input(self):
        with pytest.raises(ParseError, match="empty"):
            self.load("# nothing here\n")

    def test_labels_in_first_appearance_order(self):
        g = self.load("z\ty\nx\tz\n")
        assert g.labels == ("z", "y", "x")

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t2\n", encoding="utf-8")
        g = load_edge_list(path)
        assert g.total_weight == 2.0

    def test_reads_binary_stream(self):
        g = load_edge_list(io.BytesIO(b"a\tb\t2\n"))
        assert g.total_weight == 2.0

    def test_missing_path_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_edge_list(tmp_path / "absent.tsv")

    def test_labels_stripped(self):
        g = self.load("anna \tbruno\t1\n bruno\t carla \t2\n")
        assert g.labels == ("anna", "bruno", "carla")
        assert g.weights[1, 2] == 2.0

    def test_blank_label_after_strip(self):
        with pytest.raises(ParseError, match="line 1: empty vertex label"):
            self.load(" \tb\t1\n")

    def test_self_loop_detected_after_strip(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = self.load("a \ta\na\tb\n")
        assert g.labels == ("a", "b")
        assert g.num_edges == 1

    def test_lines_break_only_at_universal_newlines(self):
        # labels are stripped of surrounding whitespace, U+2029 included
        g = self.load("# from the 1310 charter\u2028(second scribe)\n"
                      "anna\x85x\tbruno\t1.0\rbruno\tcarla\u2029\t2\r\n"
                      "# a\x0cb\x1cc\x1dd\x1ee\u2028\ncarla\tanna\x85x\n")
        assert g.labels == ("anna\x85x", "bruno", "carla")
        assert g.num_edges == 3
        assert g.weights[1, 2] == 2.0
        with pytest.raises(ParseError, match="^line 5: unparseable weight 'x'$"):
            self.load("# one\u2028two\u2029three\x85four\na\tb\rb\tc\r\n\nc\ta\tx\n")

    @pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
                                      "\ud800", "\ufffe", "\uffff"])
    def test_label_xml_cannot_carry(self, char):
        with pytest.raises(ParseError, match=f"^line 2: vertex label .* holds "
                                             f"U\\+{ord(char):04X}, which XML"):
            self.load(f"a\tb\nb\tc{char}d\t1\n")
        # a self-loop's label is checked before the loop is dropped
        with pytest.raises(ParseError, match="^line 1: "):
            self.load(f"x{char}x\tx{char}x\n")

    def test_labels_xml_can_carry(self):
        labels = ("tab\x7fdel", "next\x85line", "a\u2028b", "\ud7ff\ue000\ufffd",
                  "\U0001f600")
        text = "".join(f"{a}\t{b}\n" for a, b in zip(labels, labels[1:]))
        assert self.load(text).labels == labels


class TestVertexLimit:
    def test_refused_above_the_limit(self, monkeypatch):
        monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 3)
        with pytest.raises(UsageError) as info:
            load_edge_list(io.StringIO("a\tb\nc\td\n"))
        message = str(info.value)
        assert "4 vertices" in message and "limit of 3" in message
        assert "128 bytes" in message  # one 4 x 4 float64 array

    def test_accepted_at_the_limit(self, monkeypatch):
        monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 4)
        assert load_edge_list(io.StringIO("a\tb\nc\td\n")).num_vertices == 4

    def test_parse_errors_keep_their_line(self, monkeypatch):
        monkeypatch.setattr("graphsom.graph.MAX_VERTICES", 1)
        with pytest.raises(ParseError, match="line 3: weight must be finite"):
            load_edge_list(io.StringIO("a\tb\n# note\nb\tc\tnan\n"))


class TestSummaryGraph:
    def test_two_cliques_with_bridge(self):
        g = two_cliques(4, bridge=0.5)
        p = Partition(np.array([0] * 4 + [1] * 4), 2)
        s = summary_graph(g, p)
        assert s.num_clusters == 2
        assert s.sizes.tolist() == [4, 4]
        assert s.intra.tolist() == [6.0, 6.0]  # K4 has 6 edges
        assert s.edges.tolist() == [[0, 1]]
        assert s.weights.tolist() == [0.5]
        for a in (s.sizes, s.intra, s.edges, s.weights):
            assert not a.flags.writeable

    def test_disconnected_clusters_get_no_edge(self):
        g = two_cliques(3)
        p = Partition(np.array([0] * 3 + [1] * 3), 2)
        s = summary_graph(g, p)
        assert s.edges.shape == (0, 2)
        assert s.weights.shape == (0,) and s.weights.dtype == np.float64

    def test_split_clique_inter_weight(self):
        # K4 split 2+2: each half has 1 internal edge, 4 edges cross
        g = complete_graph(4)
        p = Partition(np.array([0, 0, 1, 1]), 2)
        s = summary_graph(g, p)
        assert s.intra.tolist() == [1.0, 1.0]
        assert s.weights.tolist() == [4.0]

    def test_empty_cluster_keeps_node(self):
        g = path_graph(3)
        p = Partition(np.array([0, 0, 2]), 3)
        s = summary_graph(g, p)
        assert s.num_clusters == 3
        assert s.sizes.tolist() == [2, 0, 1]
        assert s.intra.tolist() == [1.0, 0.0, 0.0]
        assert s.edges.tolist() == [[0, 2]]

    @pytest.mark.parametrize("top", [2, 46_339, 60_000])
    def test_cluster_pair_key_beyond_int32(self, top):
        # the pair (top - 1, top) is keyed (top - 1) * k + top with
        # k = top + 1, which passes 2**31 at top = 60,000
        g = path_graph(3)
        s = summary_graph(g, Partition(np.array([top - 1, top - 1, top]), top + 1))
        assert s.edges.tolist() == [[top - 1, top]]
        assert s.edges.dtype == np.int32
        assert s.weights.tolist() == [1.0]
        assert s.intra[top - 1] == 1.0

    def test_size_mismatch(self):
        g = path_graph(3)
        p = Partition(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="vertices"):
            summary_graph(g, p)

    def test_total_weight_conserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 25))
            g = random_graph(n, rng=rng)
            k = int(rng.integers(1, 5))
            p = Partition(rng.integers(0, k, size=n), k)
            s = summary_graph(g, p)
            total = s.intra.sum() + s.weights.sum()
            assert total == pytest.approx(g.total_weight, rel=1e-12)
