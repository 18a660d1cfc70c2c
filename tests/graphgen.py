"""Small graph builders shared by the test modules."""

import numpy as np

from graphsom import WeightedGraph


def labels(n, prefix="v"):
    return tuple(f"{prefix}{i}" for i in range(n))


def from_weights(w, prefix="v"):
    w = np.asarray(w, dtype=np.float64)
    return WeightedGraph(labels(w.shape[0], prefix), w)


def edge_list(g):
    """``(i, j, weight)`` with ``i < j`` for every edge of g, in row-major
    order, as Python ints and floats."""
    return list(zip(*(a.tolist() for a in g.edge_arrays)))


def path_graph(n, weight=1.0):
    """Path v0 - v1 - ... - v{n-1} with uniform edge weight."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = weight
    return from_weights(w)


def complete_graph(n, weight=1.0):
    w = np.full((n, n), float(weight))
    np.fill_diagonal(w, 0.0)
    return from_weights(w)


def two_cliques(size=10, weight=1.0, bridge=0.0):
    """Two complete graphs of `size` vertices; optional bridge edge 0 - size."""
    n = 2 * size
    w = np.zeros((n, n))
    for offset in (0, size):
        block = slice(offset, offset + size)
        w[block, block] = weight
    np.fill_diagonal(w, 0.0)
    if bridge:
        w[0, size] = w[size, 0] = bridge
    return from_weights(w)


def random_graph(n, density=0.3, rng=None, max_weight=5.0):
    """Random symmetric weighted graph; every vertex gets at least one edge."""
    rng = np.random.default_rng(rng)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w[i, j] = w[j, i] = rng.uniform(0.1, max_weight)
    # connect isolated vertices so components stay predictable when needed
    for i in range(n):
        if not w[i].any():
            j = (i + 1) % n
            w[i, j] = w[j, i] = rng.uniform(0.1, max_weight)
    return from_weights(w)


def block_model(n=615, blocks=8, degree=13.8, ratio=20.0, rng=615,
                max_weight=5.0):
    """Stochastic block model: vertex i is in block ``i * blocks // n``, an
    in-block pair is an edge ``ratio`` times as often as a cross-block pair,
    the expected average degree is ``degree``, and weights are uniform in
    [0.1, max_weight). Returns the graph and each vertex's block."""
    rng = np.random.default_rng(rng)
    block = np.arange(n) * blocks // n
    same = block[:, None] == block[None, :]
    inside = same.sum() - n  # ordered pairs of distinct vertices
    cross = n * n - same.sum()
    p_cross = degree * n / (ratio * inside + cross)
    edge = np.triu(rng.random((n, n)) < np.where(same, ratio * p_cross, p_cross), 1)
    w = np.where(edge, rng.uniform(0.1, max_weight, (n, n)), 0.0)
    return from_weights(w + w.T), block


def random_laplacian(n, rng=None, density=0.5, max_weight=2.0):
    rng = np.random.default_rng(rng)
    return random_graph(n, density=density, rng=rng, max_weight=max_weight).laplacian()


def kernel_coordinates(kernel):
    """Explicit coordinates X with X X^T equal to ``kernel.matrix``: the
    feature map behind the kernel trick, as an oracle for kernelized code.
    Eigenvalues that rounding leaves just below zero are clamped to zero."""
    vals, vecs = np.linalg.eigh(kernel.matrix)
    return vecs * np.sqrt(np.maximum(vals, 0.0))
