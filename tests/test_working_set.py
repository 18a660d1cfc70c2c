"""The dense working set of the graph, the eigensolve, the heat kernel and the commands.

A graph holds its edge list; only ``cluster`` builds dense n x n float64
arrays (L, the eigenvectors and K), so its memory is a count of live n x n
arrays, and ``stats`` and ``layout`` hold none. These tests pin both: peaks
are traced with tracemalloc, net of what is held before the call, and
measured in units of one n x n float64 array (8 n^2 bytes). LAPACK's own
workspace inside ``eigh`` is allocated outside Python's tracing and is not
counted. They also pin what the savings must not cost: no caller's array
is aliased, frozen or changed, and every result keeps its bits.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import graphsom.pipeline as pipeline
from graphsom import Partition, load_edge_list, summary_graph
from graphsom.cluster import q_modularity
from graphsom.layout import Rect, _anneal, force_directed_layout
from graphsom.linalg import KernelMatrix, eigendecompose_symmetric, heat_kernel
from graphsom.pipeline import RunConfig, report_document, run_cluster, run_layout, \
    run_stats
from graphsom.som import SomGrid, batch_kernel_som
from graphgen import complete_graph, edge_list, from_weights, path_graph, random_graph

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
    batch_kernel_som(heat_kernel(g.laplacian(), 0.05), SomGrid(2, 2), epochs=3)
    KernelMatrix(np.eye(20).tolist())
    report_document(g, Partition(np.arange(20) % 3, 3), {})
    q_modularity(g, Partition(np.arange(20) % 3, 30))
    summary_graph(g, Partition(np.arange(20), 20))
    # one listed group of 5 and one block of 40, points free to move
    pos = np.random.default_rng(0).uniform(0.0, 100.0, (45, 2))
    _anneal(pos, np.zeros((0, 2), dtype=np.int64), np.zeros(0), 3, k=5.0,
            lo=pos - 1e3, hi=pos + 1e3, temp0=1.0,
            repulsion_groups=[np.arange(5), np.arange(5, 45)])


class TestTracedPeak:
    # Measured at n=300: the eigensolve holds its eigenvectors and |V| for
    # the sign rule (2.1 arrays; 4.0 when it copied and averaged an exactly
    # symmetric input); the heat kernel holds the eigensolve's peak, then
    # S = V e^(-beta Lambda / 2) and K = S S^T (2.2; 3.0 with V, V*d and K
    # plus K's copy, 5.0 when it also kept the decomposition). A kernel
    # built from nested lists holds the one converted array (1.2; 3.0 when
    # it converted, then averaged).
    def test_eigendecomposition(self):
        lap = graph().laplacian()
        assert peak_arrays(lambda: eigendecompose_symmetric(lap)) <= 2.5

    def test_heat_kernel(self):
        lap = graph().laplacian()
        assert peak_arrays(lambda: heat_kernel(lap, 0.05)) <= 2.5

    def test_kernel_matrix_from_lists(self):
        rows = heat_kernel(graph().laplacian(), 0.05).matrix.tolist()
        assert peak_arrays(lambda: KernelMatrix(rows)) <= 1.5

    # Measured at n=300 with a 7x7 map, where one M x n array is 0.16 n x n
    # arrays: training holds gamma, the prototypes' inner products, the
    # per-unit sums, the distances and the influence, and the update adds
    # its new gamma and one weight temporary, for 1.31 arrays (1.14 when
    # every epoch took the full product gamma K and kept no unit sums; 1.47
    # when the update divided into a second temporary). The bound adds 0.09,
    # about half an M x n array.
    def test_som_training(self):
        kern = heat_kernel(graph().laplacian(), 0.05)
        assert peak_arrays(
            lambda: batch_kernel_som(kern, SomGrid(7, 7), epochs=100)) <= 1.4

    # Measured at n=300: a graph with its edge totals in hand holds 0.08
    # arrays, its 16 bytes an edge and its labels (1.0 when it held L, 2.0
    # when it kept W and built L per call), and each call to laplacian()
    # returns one new array, which the graph does not keep (it kept the
    # first one, and later calls allocated nothing). Building it peaks at
    # 1.05 arrays, with the edges' indices converted for the scatter into
    # W. The report on a graph built inside the call peaks at 0.25, from
    # checking the caller's W (2.1 when it held L and summed clusters over
    # W).
    def test_graph_holds_its_edges_and_one_laplacian(self):
        def build():
            w = weights()
            g = from_weights(w)
            del w
            _ = g.num_edges, g.total_weight
            return g

        held, _ = traced(build)
        assert held / (8.0 * N * N) <= 0.1
        g = complete_graph(N)
        assert sum(a.nbytes for a in g.edge_arrays) == 16 * g.num_edges
        g = graph()
        held, _ = traced(g.laplacian)
        assert 1.0 <= held / (8.0 * N * N) <= 1.05
        lap = g.laplacian()
        again = g.laplacian()
        assert again is not lap and not np.shares_memory(again, lap)
        assert again.tobytes() == lap.tobytes()

    def test_laplacian_is_not_kept(self):
        g = graph()
        held, peak = traced(lambda: g.laplacian().size)
        assert held / (8.0 * N * N) <= 0.01
        assert peak / (8.0 * N * N) <= 1.1

    def test_report_on_a_new_graph(self):
        w = weights()
        part = Partition(np.arange(N) % 7, 7)
        assert peak_arrays(lambda: report_document(from_weights(w), part, {})) <= 0.5

    # Measured at n=300 (2,237 edges) with every vertex its own cluster:
    # the cluster sums hold a few arrays over the edges and the clusters,
    # 64 KB for the modularity and 143 KB for the summary graph, or 29 and
    # 64 bytes an edge (2.1 and 2.2 n x n arrays when they summed a dense
    # block over the nonempty clusters and added its transpose; 92 bytes an
    # edge for the summary graph when its cluster ids were int64). Two int64
    # cluster ids per edge alone take 0.05 n x n arrays here, so the
    # modularity's bound is 0.05 arrays for what grows with the clusters
    # plus 100 bytes an edge, and the summary graph's is 66 bytes an edge.
    def test_cluster_sums_grow_with_edges_not_cluster_pairs(self):
        g = path_graph(8)
        part = Partition(np.arange(8) % 3, 3000)
        assert traced(lambda: q_modularity(g, part))[1] < 1_000_000
        g = graph()
        singletons = Partition(np.arange(N), N)
        bound = 0.05 * 8 * N * N + 100 * g.num_edges
        assert traced(lambda: q_modularity(g, singletons))[1] <= bound
        assert traced(lambda: summary_graph(g, singletons))[1] <= 66 * g.num_edges

    # Measured at m=200, one group of every point with a quarter of it free
    # to move: the anneal keeps the group's (2, m, m) pair terms and one work
    # buffer for its distances, two arrays each, and writes the moved
    # points' rows inside that buffer. The peak, 4.53 arrays, is in a later
    # step's moved rows: numpy's ufunc iterator buffers both broadcast
    # operands of their coordinate differences (8,192 float64, 0.2 arrays
    # each here), and the per-vertex arrays add the rest. The first step's
    # whole block buffers the same and peaks at 4.50; filled, then
    # subtracted in place, it peaks at 4.29 and the run still at 4.53 (4.6
    # when the self pairs were found with m x m masks, 6.6 when the moved
    # rows were gathered pair by pair).
    def test_anneal_holds_two_pair_buffers(self):
        m = 200
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.0, 100.0, (m, 2))
        lo, hi = pos.copy(), pos.copy()
        free = rng.permutation(m)[:m // 4]
        lo[free], hi[free] = pos[free] - 1e3, pos[free] + 1e3
        kw = dict(pos=pos, edges=np.zeros((0, 2), dtype=np.int64),
                  norm_weights=np.zeros(0), iterations=20, k=5.0, lo=lo,
                  hi=hi, temp0=1.0, repulsion_groups=[np.arange(m)])
        assert peak_arrays(lambda: _anneal(**kw), m) <= 4.58

    # Measured at k=600 singleton clusters of a path: the summary layout
    # keeps the (2, k, k) pair terms of its one group of every cluster and a
    # work buffer of the same size, 32 bytes a pair, and peaks at 32.8 k^2
    # bytes with the per-cluster arrays (36.8 at k=200, where those weigh
    # more). README "Memory" quotes the 32 k^2.
    def test_summary_layout_holds_two_pair_buffers(self):
        k = 600
        sg = summary_graph(path_graph(k), Partition(np.arange(k), k))
        _, peak = traced(lambda: force_directed_layout(
            sg, 2, Rect(0.0, 0.0, 800.0, 800.0), 0))
        assert 32 * k * k <= peak <= 34 * k * k

    # Measured at m=200 in groups of 16, a quarter of the points free: the
    # small groups' pair list holds its receivers and senders, their terms
    # and the work buffer, 32 bytes a pair and 16 more in the scratch, for
    # 0.57 arrays (0.66 in one padded (13, 16, 16) block; 0.66 when the
    # receivers and senders were copied out of one (pairs, 2) array; 0.70
    # when k^2/d^2 was broadcast over both coordinates' terms at once).
    def test_anneal_pair_list_of_small_groups(self):
        m = 200
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.0, 100.0, (m, 2))
        lo, hi = pos.copy(), pos.copy()
        free = rng.permutation(m)[:m // 4]
        lo[free], hi[free] = pos[free] - 1e3, pos[free] + 1e3
        groups = [np.arange(s, min(s + 16, m)) for s in range(0, m, 16)]
        kw = dict(pos=pos, edges=np.zeros((0, 2), dtype=np.int64),
                  norm_weights=np.zeros(0), iterations=20, k=5.0, lo=lo,
                  hi=hi, temp0=1.0, repulsion_groups=groups)
        assert peak_arrays(lambda: _anneal(**kw), m) <= 0.62


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """An edge list of the test graph, a 7-cluster partition and a 3x3 map
    of it, each command already run once."""
    d = tmp_path_factory.mktemp("commands")
    g = graph()
    (d / "graph.tsv").write_text(
        "".join(f"{g.labels[i]}\t{g.labels[j]}\t{w!r}\n" for i, j, w in edge_list(g)),
        encoding="utf-8")
    run_cluster(RunConfig(input=d / "graph.tsv", method="spectral", seed=0,
                          out=d / "part.json", k=7))
    run_cluster(RunConfig(input=d / "graph.tsv", method="spectral-som", seed=0,
                          out=d / "map.json", grid=(3, 3), epochs=5))
    inputs = {"graph": d / "graph.tsv", "partition": d / "part.json",
              "model": d / "map.json", "svg": d / "out.svg", "dot": d / "out.dot"}
    for call in command_calls(inputs).values():
        call()
    return inputs


def command_calls(inputs):
    return {
        "stats": lambda: run_stats(inputs["graph"], inputs["partition"]),
        "summary": lambda: run_layout("summary", inputs["graph"],
                                      partition_path=inputs["partition"],
                                      svg_path=inputs["svg"], dot_path=inputs["dot"]),
        "map": lambda: run_layout("map", inputs["graph"], model_path=inputs["model"],
                                  svg_path=inputs["svg"]),
    }


# Measured at n=300: the parser's Python objects, about 190 bytes per edge
# line, set every command's peak at 0.58 arrays; stats and the summary and
# map layouts add nothing above it (1.1 to 1.2 each when every graph held L
# and summed clusters over W or a dense 0/1 mask).
@pytest.mark.parametrize("command", ["stats", "summary", "map"])
def test_command_holds_no_dense_array(command_inputs, command):
    parsing = peak_arrays(lambda: load_edge_list(command_inputs["graph"]))
    assert parsing <= 0.7
    assert peak_arrays(command_calls(command_inputs)[command]) <= parsing + 0.1


@pytest.mark.parametrize("method, knobs, feature_map, engine", [
    ("spectral", {"k": 7}, "spectral_embedding", "kmeans"),
    ("kernel-som", {"grid": (3, 3), "epochs": 5}, "heat_kernel", "batch_som"),
], ids=["spectral", "kernel-som"])
def test_no_laplacian_outlives_its_feature_map(command_inputs, tmp_path, monkeypatch,
                                               method, knobs, feature_map, engine):
    laplacians, alive_at_engine = [], []

    def mapped(lap, *args):
        laplacians.append(weakref.ref(lap))
        return real_map(lap, *args)

    def engine_spy(*args):
        alive_at_engine.extend(ref() is not None for ref in laplacians)
        return real_engine(*args)

    real_map, real_engine = getattr(pipeline, feature_map), getattr(pipeline, engine)
    monkeypatch.setattr(pipeline, feature_map, mapped)
    monkeypatch.setattr(pipeline, engine, engine_spy)
    run_cluster(RunConfig(input=command_inputs["graph"], method=method, seed=0,
                          out=tmp_path / "p.json", **knobs))
    assert alive_at_engine == [False]


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
