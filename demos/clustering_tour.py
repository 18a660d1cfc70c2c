"""Tour of the four clustering routes on one planted community graph.

Builds a graph with three planted groups, runs spectral k-means, kernel
k-means, the spectral som, and the kernel som on it, and prints each
method's modularity and cluster sizes side by side.

Run from the repository root:

    python3 demos/clustering_tour.py [--seed N]
"""

import argparse

import numpy as np

from graphsom import (
    Partition,
    SomGrid,
    WeightedGraph,
    batch_kernel_som,
    heat_kernel,
    kernel_kmeans,
    partition_stats,
    q_modularity,
    som_partition,
    spectral_clustering,
    spectral_som,
)


def planted_blocks(rng, sizes, p_in=0.6, p_out=0.04):
    """Random graph with dense groups and sparse ties between them."""
    n = int(np.sum(sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if owner[i] == owner[j] else p_out
            if rng.random() < p:
                w[i, j] = w[j, i] = rng.uniform(0.5, 3.0)
    labels = tuple(f"m{i}" for i in range(n))
    return WeightedGraph(labels, w), owner


def describe(name, g, part):
    stats = partition_stats(g, part)
    sizes = sorted((int(s) for s in part.sizes()), reverse=True)
    print(f"  {name:<16} q={q_modularity(g, part):+.4f}  "
          f"clusters={stats.num_clusters}  sizes={sizes}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    g, owner = planted_blocks(rng, [18, 14, 10])
    print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges, "
          f"3 planted groups of sizes 18/14/10")

    oracle = q_modularity(g, Partition(owner, 3))
    print(f"planted grouping scores q={oracle:+.4f}\n")

    print("top-down view, same graph for every method:")
    describe("spectral", g,
             spectral_clustering(g, p=3, k=3, seed=args.seed).partition)

    kern = heat_kernel(g.laplacian(), 0.5)
    describe("kernel-kmeans", g,
             kernel_kmeans(kern, 3, seed=args.seed).partition)

    grid = SomGrid(1, 3)
    describe("spectral-som", g,
             som_partition(spectral_som(g, p=3, grid=grid, epochs=200,
                                        radius=(1.0, 0.05),
                                        seed=args.seed)))
    describe("kernel-som", g,
             som_partition(batch_kernel_som(kern, grid, epochs=200,
                                            radius=(1.0, 0.05),
                                            seed=args.seed)))
    print("\nhigher q means denser clusters with fewer ties between them;")
    print("the planted score above is the target to beat")


if __name__ == "__main__":
    main()
