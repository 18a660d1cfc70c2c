import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsom import Partition
from graphsom.cluster import (
    kernel_kmeans,
    kmeans,
    partition_stats,
    q_modularity,
    spectral_clustering,
)
from graphsom.linalg import KernelMatrix, heat_kernel, spectral_embedding
from graphgen import complete_graph, path_graph, random_graph, two_cliques


def blob_points(rng, centers, per_blob, sigma=0.1):
    pts = []
    for c in centers:
        pts.append(np.asarray(c) + sigma * rng.normal(size=(per_blob, len(c))))
    return np.vstack(pts)


def brute_force_best_energy(points, k):
    """Exact minimum k-means energy by enumerating all assignments.

    Point 0 is pinned to cluster 0; energy is invariant under cluster
    relabeling, so the orbit representatives cover every partition.
    """
    n, _ = points.shape
    total_sq = float((points ** 2).sum())
    ids = np.arange(k)
    best = np.inf
    m = k ** (n - 1)
    chunk = 1 << 16
    for start in range(0, m, chunk):
        codes = np.arange(start, min(start + chunk, m), dtype=np.int64)
        digits = np.zeros((codes.size, n), dtype=np.int64)
        rem = codes.copy()
        for i in range(1, n):
            digits[:, i] = rem % k
            rem //= k
        onehot = (digits[:, :, None] == ids[None, None, :]).astype(np.float64)
        counts = onehot.sum(axis=1)
        sums = np.einsum("mnk,np->mkp", onehot, points)
        sq = (sums ** 2).sum(axis=2)
        contrib = np.divide(sq, counts, out=np.zeros_like(sq), where=counts > 0)
        best = min(best, float((total_sq - contrib.sum(axis=1)).min()))
    return best


def groups_of(assignment):
    return frozenset(frozenset(np.flatnonzero(assignment == c).tolist())
                     for c in np.unique(assignment))


class TestKMeans:
    def test_two_separated_points(self):
        res = kmeans(np.array([[0.0], [10.0]]), 2, seed=0)
        assert res.within_energy == 0.0
        assert res.partition.assignment[0] != res.partition.assignment[1]

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 3))
        res = kmeans(pts, 7, seed=1)
        assert res.within_energy <= 1e-12
        assert len(set(res.partition.assignment.tolist())) == 7

    def test_four_blobs_match_brute_force(self):
        rng = np.random.default_rng(42)
        pts = blob_points(rng, [(0, 0), (0, 1), (1, 0), (1, 1)], per_blob=3)
        res = kmeans(pts, 4, seed=7, restarts=10)
        oracle = brute_force_best_energy(pts, 4)
        assert res.within_energy == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        expected = groups_of(np.repeat(np.arange(4), 3))
        assert groups_of(res.partition.assignment) == expected

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(5, 20))
            pts = rng.normal(size=(n, 2))
            k = int(rng.integers(2, n + 1))
            res = kmeans(pts, k, seed=int(rng.integers(1 << 30)))
            assert (res.partition.sizes() >= 1).all()

    @pytest.mark.parametrize("points, seed, sizes", [
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], 0, [2, 1, 1]),
        (np.zeros((5, 2)), 1, [3, 1, 1]),
    ], ids=["two distinct points", "one distinct point"])
    def test_fewer_distinct_points_than_clusters(self, points, seed, sizes):
        # seeding runs out of positive distances and draws uniformly, and
        # the repair hands each empty cluster a duplicate point
        pts = np.asarray(points)
        res = kmeans(pts, 3, seed=seed)
        assert res.partition.sizes().tolist() == sizes
        assert res.within_energy == 0.0
        via_gram = kernel_kmeans(pts @ pts.T, 3, seed=seed)
        np.testing.assert_array_equal(via_gram.partition.assignment,
                                      res.partition.assignment)

    def test_energy_trace_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.normal(size=(25, 3))
            res = kmeans(pts, 4, seed=int(rng.integers(1 << 30)), restarts=3)
            slack = 1e-10 * max(1.0, res.energy_trace[0])
            assert (np.diff(res.energy_trace) <= slack).all()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 2))
        a = kmeans(pts, 3, seed=11)
        b = kmeans(pts, 3, seed=11)
        assert a.partition.assignment.tobytes() == b.partition.assignment.tobytes()
        assert a.within_energy == b.within_energy

    def test_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(pts, 4, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(pts, 0, seed=0)
        with pytest.raises(ValueError, match="finite"):
            kmeans(np.array([[np.nan, 0.0]]), 1, seed=0)
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, 2, seed=0, restarts=0)

    def test_result_bookkeeping(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(15, 2))
        res = kmeans(pts, 3, seed=5, restarts=4)
        assert res.iterations == res.energy_trace.size
        assert res.within_energy == res.energy_trace[-1]


class TestKernelKMeans:
    def test_matches_explicit_on_gram_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(8, 31))
            p = int(rng.integers(2, 6))
            pts = rng.normal(size=(n, p))
            k = int(rng.integers(2, 7))
            seed = int(rng.integers(1 << 30))
            explicit = kmeans(pts, k, seed=seed, restarts=5)
            gram = pts @ pts.T
            kern = kernel_kmeans(KernelMatrix((gram + gram.T) / 2.0), k,
                                 seed=seed, restarts=5)
            np.testing.assert_array_equal(explicit.partition.assignment,
                                          kern.partition.assignment)
            assert kern.within_energy == pytest.approx(explicit.within_energy,
                                                       rel=1e-6, abs=1e-9)

    def test_is_kmeans_on_a_kernel_matrix(self):
        # a bare array is read as a kernel here, as coordinates by kmeans
        k = heat_kernel(random_graph(30, rng=3).laplacian(), 0.2).matrix.copy()
        direct = kernel_kmeans(k, 4, seed=8, restarts=3)
        via_kmeans = kmeans(KernelMatrix(k), 4, seed=8, restarts=3)
        assert direct.partition.k == via_kmeans.partition.k == 4
        assert direct.partition.assignment.tobytes() == \
            via_kmeans.partition.assignment.tobytes()
        assert direct.energy_trace.tobytes() == via_kmeans.energy_trace.tobytes()
        assert direct.within_energy == via_kmeans.within_energy
        assert direct.iterations == via_kmeans.iterations

    def test_heat_kernel_splits_cliques(self):
        g = two_cliques(10)
        k = heat_kernel(g.laplacian(), 0.05)
        res = kernel_kmeans(k, 2, seed=3)
        assert groups_of(res.partition.assignment) == \
            groups_of(np.repeat([0, 1], 10))

    def test_energy_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(8, 25))
            pts = rng.normal(size=(n, 3))
            gram = pts @ pts.T
            res = kernel_kmeans(KernelMatrix((gram + gram.T) / 2.0), 3,
                                seed=int(rng.integers(1 << 30)), restarts=3)
            slack = 1e-10 * max(1.0, res.energy_trace[0])
            assert (np.diff(res.energy_trace) <= slack).all()


class TestSpectralClustering:
    def test_splits_cliques(self):
        g = two_cliques(10)
        res = spectral_clustering(g, p=2, k=2, seed=1)
        assert groups_of(res.partition.assignment) == \
            groups_of(np.repeat([0, 1], 10))

    def test_recovers_components(self):
        # three components: two triangles and one path
        blocks = [complete_graph(3), complete_graph(3), path_graph(4)]
        n = 10
        w = np.zeros((n, n))
        w[:3, :3] = blocks[0].weights
        w[3:6, 3:6] = blocks[1].weights
        w[6:, 6:] = blocks[2].weights
        from graphgen import from_weights
        g = from_weights(w)
        res = spectral_clustering(g, p=3, k=3, seed=9)
        assert groups_of(res.partition.assignment) == \
            groups_of(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2]))

    def test_is_kmeans_on_the_embedding(self):
        g = two_cliques(3, bridge=0.5)
        res = spectral_clustering(g, p=2, k=2, seed=4, restarts=3)
        direct = kmeans(spectral_embedding(g.laplacian(), 2), 2, seed=4,
                        restarts=3)
        np.testing.assert_array_equal(res.partition.assignment,
                                      direct.partition.assignment)
        np.testing.assert_array_equal(res.energy_trace, direct.energy_trace)


class TestQModularity:
    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(int(rng.integers(2, 20)), rng=rng)
            p = Partition(np.zeros(g.num_vertices, dtype=np.int64), 1)
            assert q_modularity(g, p) == 0.0

    def test_path_split(self):
        g = path_graph(3)
        p = Partition(np.array([0, 0, 1]), 2)
        assert q_modularity(g, p) == -0.125

    def test_two_cliques_split(self):
        g = two_cliques(10)
        p = Partition(np.repeat([0, 1], 10), 2)
        assert abs(q_modularity(g, p) - 0.5) <= 1e-12

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g = random_graph(n, rng=rng)
            k = int(rng.integers(1, n + 1))
            p = Partition(rng.integers(0, k, size=n), k)
            assert q_modularity(g, p) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), scale=st.floats(0.1, 100.0))
    def test_invariant_under_weight_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        g = random_graph(n, rng=rng)
        k = int(rng.integers(1, 4))
        p = Partition(rng.integers(0, k, size=n), k)
        from graphgen import from_weights
        scaled = from_weights(g.weights * scale)
        assert q_modularity(scaled, p) == pytest.approx(q_modularity(g, p),
                                                        abs=1e-10)

    def test_unweighted_ignores_magnitudes(self):
        g = path_graph(3, weight=7.5)
        p = Partition(np.array([0, 0, 1]), 2)
        assert q_modularity(g, p, weighted=False) == -0.125
        assert q_modularity(g, p, weighted=True) == -0.125  # uniform weights cancel

    def test_weighted_vs_unweighted_differ(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 10.0
        w[1, 2] = w[2, 1] = 1.0
        from graphgen import from_weights
        g = from_weights(w)
        p = Partition(np.array([0, 0, 1]), 2)
        assert q_modularity(g, p, weighted=True) != \
            q_modularity(g, p, weighted=False)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_empty_clusters_add_nothing(self, weighted):
        g = random_graph(20, rng=8)
        assign = np.arange(20) % 4
        spread = Partition(assign * 500 + 7, 2000)  # 1996 empty cluster ids
        assert q_modularity(g, spread, weighted=weighted) == \
            q_modularity(g, Partition(assign, 4), weighted=weighted)

    def test_edgeless_rejected(self):
        from graphgen import from_weights
        g = from_weights(np.zeros((2, 2)))
        p = Partition(np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="edgeless"):
            q_modularity(g, p)

    def test_size_mismatch(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="vertices"):
            q_modularity(g, Partition(np.array([0, 0]), 1))


class TestPartitionStats:
    def test_small_size_sequence(self):
        g = random_graph(6, rng=10)
        p = Partition(np.array([0, 1, 2, 2, 2, 2]), 3)
        s = partition_stats(g, p)
        assert s.num_clusters == 3
        assert s.num_singletons == 2
        assert s.max_size == 4
        assert s.median_size == 1.0
        assert s.third_quartile_size == 2.5

    def test_all_singletons(self):
        g = random_graph(5, rng=11)
        p = Partition(np.arange(5), 5)
        s = partition_stats(g, p)
        assert s.num_singletons == 5
        assert s.max_size == 1
        assert s.median_size == 1.0

    def test_empty_clusters_not_counted(self):
        g = path_graph(4)
        p = Partition(np.array([0, 0, 3, 3]), 5)
        s = partition_stats(g, p)
        assert s.num_clusters == 2
        assert s.num_singletons == 0

    def test_edgeless_graph_gets_nan_q(self):
        from graphgen import from_weights
        g = from_weights(np.zeros((3, 3)))
        s = partition_stats(g, Partition(np.array([0, 0, 1]), 2))
        assert np.isnan(s.q_modularity)
        assert s.num_clusters == 2

    def test_q_matches_direct_call(self):
        g = two_cliques(5, bridge=1.0)
        p = Partition(np.repeat([0, 1], 5), 2)
        s = partition_stats(g, p)
        assert s.q_modularity == q_modularity(g, p)
