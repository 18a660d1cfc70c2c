"""Shipping checklist: ten independently verifiable behavior gates.

Each test covers one numbered gate and prints a single line when it holds,
so `pytest -sv tests/test_acceptance.py` reads as a checklist. Tolerances
are part of the contract; do not loosen them to make a failure go away.
"""

import os
import time

import numpy as np
import pytest

import graphsom.som as som_module
from graphsom import (
    KernelMatrix,
    Partition,
    SomGrid,
    SomModel,
    WeightedGraph,
    batch_kernel_som,
    batch_som,
    constrained_full_layout,
    force_directed_layout,
    heat_kernel,
    kernel_kmeans,
    kmeans,
    load_edge_list,
    q_modularity,
    render_svg,
    som_partition,
    spectral_clustering,
    spectral_som,
    summary_graph,
    u_matrix,
)
from graphsom.layout import Rect
from graphsom.pipeline import RunConfig, run_cluster, run_layout, run_stats
from graphgen import (
    complete_graph,
    edge_list,
    path_graph,
    random_graph,
    random_laplacian,
    two_cliques,
)


def passed(number, detail):
    print(f"criterion {number:02d} PASS  {detail}")


def test_criterion_01_laplacian():
    t0 = time.perf_counter()
    triangle = complete_graph(3).laplacian()
    expected = np.array([[2.0, -1.0, -1.0],
                         [-1.0, 2.0, -1.0],
                         [-1.0, -1.0, 2.0]])
    assert np.array_equal(triangle, expected)

    rng = np.random.default_rng(20260821)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        lap = random_graph(n, density=0.3, rng=rng).laplacian()
        assert np.abs(lap @ np.ones(n)).max() <= 1e-12 * lap.diagonal().max()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(1, f"triangle exact, 100 balanced row sums, {elapsed:.2f}s")


def test_criterion_02_heat_kernel():
    t0 = time.perf_counter()
    lap8 = random_laplacian(8, rng=np.random.default_rng(5))
    assert np.abs(heat_kernel(lap8, 0.0).matrix - np.eye(8)).max() <= 1e-12

    pair = path_graph(2).laplacian()
    on = (1.0 + np.exp(-1.0)) / 2.0
    off = (1.0 - np.exp(-1.0)) / 2.0
    closed_form = np.array([[on, off], [off, on]])
    assert np.abs(heat_kernel(pair, 0.5).matrix - closed_form).max() <= 1e-10

    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        lap = random_laplacian(n, rng=rng)
        beta = float(rng.uniform(0.05, 1.0))
        # a 30-term Taylor sum is only a trustworthy oracle while the
        # largest |eigenvalue| of beta*L stays modest; rescaling the weights
        # keeps the Gershgorin bound at 5 and the truncation error < 1e-12
        bound = 2.0 * beta * lap.diagonal().max()
        if bound > 5.0:
            lap = lap * (5.0 / bound)
        series = np.zeros((n, n))
        term = np.eye(n)
        for m in range(30):
            if m:
                term = term @ (-beta * lap) / m
            series += term
        assert np.abs(heat_kernel(lap, beta).matrix - series).max() <= 1e-8

    big = random_graph(615, density=0.0225, rng=np.random.default_rng(615))
    kmat = heat_kernel(big.laplacian(), 0.05).matrix
    assert np.abs(kmat.sum(axis=1) - 1.0).max() <= 1e-8
    evals = np.linalg.eigvalsh(kmat)
    assert evals.min() >= -1e-8 * evals.max()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passed(2, f"identity, closed form, 50 series checks, n=615 psd, {elapsed:.1f}s")


def test_criterion_03_semigroup():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lap = random_laplacian(n, rng=rng)
        b1, b2 = (float(b) for b in rng.uniform(0.05, 1.0, size=2))
        product = heat_kernel(lap, b1).matrix @ heat_kernel(lap, b2).matrix
        combined = heat_kernel(lap, b1 + b2).matrix
        assert np.abs(product - combined).max() <= 1e-8
    passed(3, "K(b1) @ K(b2) = K(b1+b2) on 20 random graphs, <= 1e-8")


def test_criterion_04_kernel_trick_equivalence():
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = int(rng.integers(6, 31))
        d = int(rng.integers(2, 5))
        pts = rng.normal(size=(n, d))
        raw = pts @ pts.T
        gram = KernelMatrix((raw + raw.T) / 2.0)
        k = int(rng.integers(2, 5))
        seed = int(rng.integers(0, 10_000))

        explicit = kmeans(pts, k, seed, restarts=3)
        implicit = kernel_kmeans(gram, k, seed, restarts=3)
        assert np.array_equal(explicit.partition.assignment,
                              implicit.partition.assignment), trial
        assert abs(explicit.within_energy - implicit.within_energy) <= 1e-6

        grid = SomGrid(1, 3)
        som_e = batch_som(pts, grid, epochs=15, radius=(1.5, 0.5), seed=seed)
        som_k = batch_kernel_som(gram, grid, epochs=15, radius=(1.5, 0.5),
                                 seed=seed)
        assert np.array_equal(som_e.assignment, som_k.assignment), trial
        assert np.abs(som_e.energy_trace - som_k.energy_trace).max() <= 1e-6
    passed(4, "25 point sets: gram-driven kmeans and som match the "
              "coordinate versions draw for draw")


def brute_force_q(g, assignment, k):
    """Independent modularity score by explicit edge counting."""
    total = 0.0
    intra = np.zeros(k)
    degree_mass = np.zeros(k)
    for i, j, w in edge_list(g):
        total += w
        if assignment[i] == assignment[j]:
            intra[assignment[i]] += w
        degree_mass[assignment[i]] += w
        degree_mass[assignment[j]] += w
    e = intra / total
    a = degree_mass / (2.0 * total)
    return float((e - a * a).sum())


def test_criterion_05_community_recovery():
    g = two_cliques(10)
    left, right = set(range(10)), set(range(10, 20))

    def check(part, tag):
        groups = {}
        for v, c in enumerate(part.assignment):
            groups.setdefault(int(c), set()).add(v)
        assert sorted(groups.values(), key=min) == [left, right], tag
        q = q_modularity(g, part)
        assert abs(q - 0.5) <= 1e-12, tag
        assert abs(q - brute_force_q(g, part.assignment, part.k)) <= 1e-12, tag

    check(spectral_clustering(g, 2, 2, seed=0).partition, "spectral")
    check(kernel_kmeans(heat_kernel(g.laplacian(), 0.05), 2, seed=0).partition,
          "kernel-kmeans")
    check(som_partition(spectral_som(g, p=2, grid=SomGrid(1, 2), epochs=50,
                                     radius=(1.0, 0.1), seed=2)),
          "spectral-som")
    # k-means descent exploits even the faint contrast at beta 0.05, but a
    # som start never separates there (see test_som); its check runs at the
    # stronger diffusion where self-organization is reliable
    check(som_partition(batch_kernel_som(heat_kernel(g.laplacian(), 0.5),
                                         SomGrid(1, 2), epochs=100,
                                         radius=(1.0, 0.05), seed=3)),
          "kernel-som")
    passed(5, "all four methods split the cliques, q = 0.5 +- 1e-12 "
              "against the edge-count oracle")


def test_criterion_06_q_modularity():
    rng = np.random.default_rng(66)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        g = random_graph(n, density=0.4, rng=rng)
        whole = Partition(np.zeros(n, dtype=np.int64), 1)
        assert q_modularity(g, whole) == 0.0

    path = path_graph(3)
    split = Partition(np.array([0, 0, 1]), 2)
    assert q_modularity(path, split) == -0.125

    g = random_graph(12, density=0.5, rng=np.random.default_rng(99))
    part = Partition(np.arange(12) % 3, 3)
    base = q_modularity(g, part)
    for c in (0.5, 3.0, 10.0):
        scaled = WeightedGraph(g.labels, g.weights * c)
        assert abs(q_modularity(scaled, part) - base) <= 1e-12
    passed(6, "one cluster scores exactly 0, path case exactly -0.125, "
              "weight scaling drift <= 1e-12")


def test_criterion_07_monotone_descent():
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(8, 41))
        d = int(rng.integers(2, 5))
        pts = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0))
        raw = pts @ pts.T
        k = int(rng.integers(2, 6))
        seed = int(rng.integers(0, 1000))
        for result in (kmeans(pts, k, seed, restarts=1),
                       kernel_kmeans(KernelMatrix((raw + raw.T) / 2.0), k,
                                     seed, restarts=1)):
            trace = result.energy_trace
            assert (np.diff(trace) <= 1e-10 * max(1.0, trace[0])).all(), trial

    for i in range(10):
        prng = np.random.default_rng(700 + i)
        pts = prng.normal(size=(20, 3))
        raw = pts @ pts.T
        model = batch_kernel_som(KernelMatrix((raw + raw.T) / 2.0),
                                 SomGrid(2, 3), epochs=50,
                                 radius=(1.2, 1.2), seed=i)
        trace = model.energy_trace
        assert (np.diff(trace) <= 1e-9 * max(1.0, trace[0])).all(), i
    passed(7, "50 lloyd traces and 10 frozen-radius som traces never rise")


def test_criterion_08_som_structure(monkeypatch):
    recorded = []
    original = som_module._update_gamma

    def spy(gamma, *args):
        original(gamma, *args)
        recorded.append(gamma.copy())

    monkeypatch.setattr(som_module, "_update_gamma", spy)
    rng = np.random.default_rng(88)
    pts = rng.normal(size=(18, 3))
    raw = pts @ pts.T
    batch_kernel_som(KernelMatrix((raw + raw.T) / 2.0), SomGrid(2, 2),
                     epochs=40, seed=3)
    assert len(recorded) == 40
    for gamma in recorded:
        assert gamma.min() >= -1e-12
        assert np.abs(gamma.sum(axis=1) - 1.0).max() <= 1e-10

    flat = SomModel(SomGrid(1, 2), np.full((2, 4), 0.25),
                    np.zeros(4, dtype=np.int64), [])
    assert np.abs(u_matrix(flat, KernelMatrix(np.eye(4))).values).max() <= 1e-10

    ortho = SomModel(SomGrid(1, 2), np.eye(2), np.array([0, 1]), [])
    u = u_matrix(ortho, KernelMatrix(np.eye(2))).values
    assert np.abs(u - np.sqrt(2.0)).max() <= 1e-10
    passed(8, "gamma convex after all 40 epochs; u-matrix 0 and sqrt(2) cases")


def test_criterion_09_layout_invariants():
    def containment(scene):
        cells = [scene.cell_regions[c] for c in scene.cell_of_item]
        inside = sum(c.x <= x <= c.x1 and c.y <= y <= c.y1
                     for c, (x, y) in zip(cells, scene.positions.tolist()))
        return inside, scene.num_items

    g = two_cliques(10, bridge=1.0)
    model = batch_kernel_som(heat_kernel(g.laplacian(), 0.5), SomGrid(1, 2),
                             epochs=60, seed=0)
    scene = constrained_full_layout(g, model, iterations=120, seed=0)
    inside, total = containment(scene)
    assert (inside, total) == (20, 20)

    big = random_graph(200, density=0.03, rng=np.random.default_rng(200))
    model_big = batch_kernel_som(heat_kernel(big.laplacian(), 0.05),
                                 SomGrid(3, 3), epochs=30, seed=1)
    scene_big = constrained_full_layout(big, model_big, iterations=80, seed=1)
    inside_big, total_big = containment(scene_big)
    assert inside_big == total_big == 200

    sizes = [1, 4, 9, 16]
    varied = random_graph(30, density=0.2, rng=np.random.default_rng(9))
    assignment = np.repeat(np.arange(4), sizes)
    part = Partition(assignment, 4)
    summary = force_directed_layout(summary_graph(varied, part), 150,
                                    Rect(0.0, 0.0, 640.0, 480.0), seed=7)
    ratios = summary.radii / np.sqrt(np.asarray(sizes, dtype=np.float64))
    assert np.abs(ratios - ratios[0]).max() <= 1e-9

    again = constrained_full_layout(g, model, iterations=120, seed=0)
    assert render_svg(again) == render_svg(scene)
    summary_again = force_directed_layout(summary_graph(varied, part), 150,
                                          Rect(0.0, 0.0, 640.0, 480.0), seed=7)
    assert render_svg(summary_again) == render_svg(summary)
    passed(9, "containment 220/220, radii track sqrt(size) <= 1e-9, "
              "svg bytes reproduce")


def test_criterion_10_scale_landmark(tmp_path):
    t0 = time.perf_counter()
    g = random_graph(615, density=0.0225, rng=np.random.default_rng(10615))
    lines = [f"{g.labels[i]}\t{g.labels[j]}\t{w!r}" for i, j, w in edge_list(g)]
    graph_path = tmp_path / "landmark.tsv"
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    out = tmp_path / "partition.json"
    report = tmp_path / "report.json"
    config = RunConfig(input=str(graph_path), method="kernel-som", seed=0,
                       out=str(out), report=str(report),
                       grid=(7, 7), beta=0.05, epochs=100)
    result = run_cluster(config)
    stats = run_stats(graph_path, out)
    svg = tmp_path / "map.svg"
    run_layout("map", graph_path, model_path=out, svg_path=svg, seed=0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert result["partition"]["num_clusters"] >= 1
    assert stats["graph"]["vertices"] == 615
    assert g.num_edges > 4000
    data = svg.read_bytes()
    assert data.startswith(b"<?xml") and b'class="umatrix"' in data
    passed(10, f"615-vertex, {g.num_edges}-edge pipeline to map svg "
               f"in {elapsed:.1f}s (< 300s)")


HISTORICAL_EDGES = os.environ.get("GRAPHSOM_HISTORICAL_EDGES")


@pytest.mark.skipif(not HISTORICAL_EDGES,
                    reason="set GRAPHSOM_HISTORICAL_EDGES to an archive "
                           "edge list to run the informational comparison")
def test_criterion_10_advisory_historical_direction():
    """Informational only: compares the two som flavors on real archive data.

    Prints the mean modularity of each under the default configuration over
    five seeds. Recorded for the log; nothing is asserted, because the
    outcome depends on the supplied dataset.
    """
    g = load_edge_list(HISTORICAL_EDGES)
    grid = SomGrid(7, 7)
    kern = heat_kernel(g.laplacian(), 0.05)
    q_kernel, q_spectral = [], []
    for seed in range(5):
        q_kernel.append(q_modularity(
            g, som_partition(batch_kernel_som(kern, grid, epochs=100,
                                              seed=seed))))
        q_spectral.append(q_modularity(
            g, som_partition(spectral_som(g, p=49, grid=grid, epochs=100,
                                          seed=seed))))
    print(f"advisory: kernel som mean q {np.mean(q_kernel):.4f} vs "
          f"spectral som {np.mean(q_spectral):.4f} over 5 seeds")
