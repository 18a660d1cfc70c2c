"""The dense working set of the graph, the eigensolve, the heat kernel and the report.

graphsom holds L and K as dense n x n float64 arrays, and derives W from L
only for a moment where it is needed, so a command's memory is a count of
live n x n arrays. These tests pin that count: peaks
are traced with tracemalloc, net of what is held before the call, and
measured in units of one n x n float64 array (8 n^2 bytes). LAPACK's own
workspace inside ``eigh`` is allocated outside Python's tracing and is not
counted. They also pin what the savings must not cost: no caller's array
is aliased, frozen or changed, and every result keeps its bits.
"""

import tracemalloc

import numpy as np
import pytest

from graphsom import Partition
from graphsom.cluster import q_modularity
from graphsom.linalg import KernelMatrix, eigendecompose_symmetric, heat_kernel
from graphsom.pipeline import report_document
from graphgen import complete_graph, from_weights, path_graph, random_graph

N = 300


def graph(seed=0, n=N):
    return random_graph(n, density=0.05, rng=np.random.default_rng(seed))


def traced(call) -> tuple[int, int]:
    """Bytes that ``call()`` leaves held and its traced peak, both above what
    was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - before, peak - before


def peak_arrays(call, n=N) -> float:
    """Traced peak of ``call()`` above what was held before it, in n x n arrays."""
    return traced(call)[1] / (8.0 * n * n)


def weights(n=N) -> np.ndarray:
    """A writable weight matrix of the test graph."""
    return np.array(graph(n=n).weights)


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    """Run each call once at a small size, so one-time costs are not counted."""
    g = graph(n=20)
    eigendecompose_symmetric(g.laplacian())
    heat_kernel(g.laplacian(), 0.05)
    KernelMatrix(np.eye(20).tolist())
    list(g.edges())
    report_document(g, Partition(np.arange(20) % 3, 3), {})
    q_modularity(g, Partition(np.arange(20) % 3, 30))


class TestTracedPeak:
    # Measured at n=300: the eigensolve holds its eigenvectors and |V| for
    # the sign rule (2.1 arrays; 4.0 when it copied and averaged an exactly
    # symmetric input); the heat kernel holds V, V*d and
    # K (3.0; 5.0 when it kept the decomposition and copied K twice). A
    # kernel built from nested lists holds the one converted array (1.2;
    # 3.0 when it converted, then averaged). The edge list of a sparse graph
    # holds only its rows (0.2; 1.3 with triu(W)), and that of a complete
    # graph is mostly its Python tuples (6.6; 8.6 with triu(W)).
    def test_eigendecomposition(self):
        lap = graph().laplacian()
        assert peak_arrays(lambda: eigendecompose_symmetric(lap)) <= 2.5

    def test_heat_kernel(self):
        lap = graph().laplacian()
        assert peak_arrays(lambda: heat_kernel(lap, 0.05)) <= 3.5

    def test_kernel_matrix_from_lists(self):
        rows = heat_kernel(graph().laplacian(), 0.05).matrix.tolist()
        assert peak_arrays(lambda: KernelMatrix(rows)) <= 1.5

    def test_edges_of_sparse_graph(self):
        g = graph()
        assert peak_arrays(lambda: list(g.edges())) <= 0.5

    def test_edges_of_complete_graph(self):
        g = complete_graph(N)
        assert peak_arrays(lambda: list(g.edges())) <= 7.5

    # Measured at n=300: a graph with its Laplacian, degrees and edge totals
    # in hand holds 1.0 arrays (2.0 when it kept W and built L per call).
    # The report on a graph built inside the call peaks at 2.1: L plus one
    # temporary for the block sums (2.1 as well when it held W).
    def test_graph_holds_only_its_laplacian(self):
        def build():
            w = weights()
            g = from_weights(w)
            del w
            lap = g.laplacian()
            _ = g.degrees, g.num_edges, g.total_weight  # cached on the graph
            return g, lap

        held, _ = traced(build)
        assert held / (8.0 * N * N) <= 1.2

    def test_laplacian_allocates_nothing(self):
        g = graph()
        assert g.laplacian() is g.laplacian()
        assert peak_arrays(g.laplacian) <= 0.01

    def test_report_on_a_new_graph(self):
        w = weights()
        part = Partition(np.arange(N) % 7, 7)
        assert peak_arrays(lambda: report_document(from_weights(w), part, {})) <= 2.5

    def test_cluster_blocks_grow_with_vertices_not_cluster_ids(self):
        g = path_graph(8)
        part = Partition(np.arange(8) % 3, 3000)
        assert traced(lambda: q_modularity(g, part))[1] < 1_000_000


class TestCallerArrays:
    def test_graph_never_aliases_freezes_or_changes_weights(self):
        w = weights(n=30)
        before = w.tobytes()
        g = from_weights(w)
        assert w.flags.writeable
        assert w.tobytes() == before
        assert not np.shares_memory(g.laplacian(), w)
        assert not np.shares_memory(g.weights, w)

    def test_kernel_matrix_never_aliases_a_symmetric_input(self):
        arr = heat_kernel(graph(n=30).laplacian(), 0.1).matrix.copy()
        assert (arr == arr.T).all()
        kern = KernelMatrix(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(kern.matrix, arr)
        assert not kern.matrix.flags.writeable
        assert kern.matrix.tobytes() == arr.tobytes()

    def test_kernel_matrix_never_aliases_a_buffer(self):
        arr = heat_kernel(graph(n=30).laplacian(), 0.1).matrix.copy()
        kern = KernelMatrix(memoryview(arr))
        assert not np.shares_memory(kern.matrix, arr)
        assert arr.flags.writeable
        assert kern.matrix.tobytes() == arr.tobytes()

    def test_eigendecomposition_leaves_input_bytes(self):
        lap = np.array(graph(n=40).laplacian())
        before = lap.tobytes()
        eigendecompose_symmetric(lap)
        assert lap.tobytes() == before
        assert lap.flags.writeable

    def test_near_symmetric_input_is_averaged_as_before(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(25, 25))
        a = (a + a.T) / 2.0
        a[2, 5] = np.nextafter(a[2, 5], np.inf)
        a[0, 1], a[1, 0] = 0.0, -0.0  # equal, but not bit for bit
        kern = KernelMatrix(a)
        assert kern.matrix.tobytes() == ((a + a.T) / 2.0).tobytes()
        assert not np.shares_memory(kern.matrix, a)
