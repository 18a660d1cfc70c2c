"""Community recovery at the paper's scale: on a planted block model of 615
vertices (the landmark graph's size and average degree), each method that
recovers the blocks keeps its adjusted Rand index above a floor.

Each floor is the index measured on the generator's default graph at seed 0,
less MARGIN. Across graph seeds 615-617 and run seeds 0-2 the measured
indices spread by up to 0.23 (spectral 0.75-0.99, kernel k-means at beta 0.5
0.63-0.86, spectral SOM 0.51-0.64, kernel SOM 0.45-0.66), so the margin lets
a change that reorders arithmetic move a result within that spread, but not
lose the blocks. Kernel k-means at the default beta 0.05 is not pinned: it
puts 597 of the 615 vertices in one cluster (index 0.001).
"""

import numpy as np
import pytest

from graphsom import SomGrid, batch_kernel_som, heat_kernel, kernel_kmeans, \
    som_partition, spectral_clustering, spectral_som
from graphgen import block_model

MARGIN = 0.15


def adjusted_rand_index(a, b):
    """Hubert & Arabie's (1985) adjusted Rand index of two labelings."""
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(counts):
        return float((counts * (counts - 1) / 2).sum())
    index, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / pairs(np.array([len(a)]))
    return (index - expected) / ((rows + cols) / 2 - expected)


@pytest.fixture(scope="module")
def planted():
    return block_model(ratio=20.0)


def test_adjusted_rand_index():
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0
    # by hand: 2 agreeing pairs against 1.2 expected, out of at most 4.5
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 2, 2]
    assert adjusted_rand_index(a, b) == pytest.approx(0.8 / 3.3)
    assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)


def test_block_model_shape(planted):
    g, block = planted
    assert g.num_vertices == 615
    assert np.bincount(block).tolist() == [77] * 7 + [76]
    degree = 2 * g.num_edges / g.num_vertices
    assert 13.0 < degree < 14.6


# method -> (ARI measured at seed 0, the run)
RUNS = {
    "spectral-k8": (0.856, lambda g: spectral_clustering(g, 8, 8, seed=0).partition),
    "kernel-kmeans-k8-beta0.5": (0.749, lambda g: kernel_kmeans(
        heat_kernel(g.laplacian(), 0.5), 8, seed=0).partition),
    "spectral-som-3x3": (0.643, lambda g: som_partition(
        spectral_som(g, 9, SomGrid(3, 3), seed=0))),
    "kernel-som-7x7-beta0.05": (0.589, lambda g: som_partition(
        batch_kernel_som(heat_kernel(g.laplacian(), 0.05), SomGrid(7, 7), seed=0))),
}


@pytest.mark.parametrize("method", RUNS)
def test_recovers_planted_blocks(planted, method):
    g, block = planted
    measured, run = RUNS[method]
    score = adjusted_rand_index(run(g).assignment, block)
    assert score >= measured - MARGIN, f"{method}: ARI {score:.3f}"
