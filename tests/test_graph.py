import io

import numpy as np
import pytest

from graphsom import ParseError, Partition, UsageError, WeightedGraph, load_edge_list, \
    summary_graph
from graphgen import complete_graph, path_graph, random_graph, two_cliques


class TestWeightedGraph:
    def test_basic_properties(self):
        g = path_graph(3)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.total_weight == 2.0
        assert g.labels == ("v0", "v1", "v2")
        np.testing.assert_array_equal(g.degrees, [1.0, 2.0, 1.0])

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
        assert list(g.edges()) == [(0, 1, 2.5), (1, 2, 2.5)]


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
            max_deg = g.degrees.max()
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(max_deg, 1.0)

    def test_diagonal_is_degrees(self):
        g = random_graph(15, rng=3)
        np.testing.assert_array_equal(np.diagonal(g.laplacian()), g.degrees)

    def test_positive_semidefinite_quadform(self):
        rng = np.random.default_rng(11)
        g = random_graph(12, rng=rng)
        lap = g.laplacian()
        for _ in range(10):
            x = rng.normal(size=12)
            assert x @ lap @ x >= -1e-10


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
        assert g.degrees[0] == 0.0

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
        assert sum(node.vertex_count for node in s.nodes) == 8
        assert s.nodes[0].vertex_count == 4
        assert s.nodes[0].intra_weight == 6.0  # K4 has 6 edges
        assert s.nodes[1].intra_weight == 6.0
        assert len(s.edges) == 1
        assert (s.edges[0].a, s.edges[0].b, s.edges[0].weight) == (0, 1, 0.5)

    def test_disconnected_clusters_get_no_edge(self):
        g = two_cliques(3)
        p = Partition(np.array([0] * 3 + [1] * 3), 2)
        s = summary_graph(g, p)
        assert s.edges == ()

    def test_split_clique_inter_weight(self):
        # K4 split 2+2: each half has 1 internal edge, 4 edges cross
        g = complete_graph(4)
        p = Partition(np.array([0, 0, 1, 1]), 2)
        s = summary_graph(g, p)
        assert s.nodes[0].intra_weight == 1.0
        assert s.nodes[1].intra_weight == 1.0
        assert s.edges[0].weight == 4.0

    def test_empty_cluster_keeps_node(self):
        g = path_graph(3)
        p = Partition(np.array([0, 0, 2]), 3)
        s = summary_graph(g, p)
        assert s.num_clusters == 3
        assert s.nodes[1].vertex_count == 0

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
            total = sum(node.intra_weight for node in s.nodes)
            total += sum(e.weight for e in s.edges)
            assert total == pytest.approx(g.total_weight, rel=1e-12)
