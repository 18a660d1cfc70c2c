"""Train a kernel som on a community graph and draw all three pictures.

Produces, in the chosen output directory:

    summary.svg   one glyph per cluster, area tracking cluster size
    map.svg       the som lattice over its u-matrix shading
    full.svg      every vertex drawn inside its unit's cell
    map.dot       the cluster summary in graphviz form

    python3 demos/som_map.py [--out-dir DIR] [--seed N]
"""

import argparse
import pathlib

import numpy as np

from graphsom import (
    SomGrid,
    WeightedGraph,
    batch_kernel_som,
    constrained_full_layout,
    export_dot,
    force_directed_layout,
    heat_kernel,
    q_modularity,
    render_svg,
    som_map_scene,
    som_partition,
    summary_graph,
)
from graphsom.layout import Rect


def community_graph(rng, sizes, p_in=0.55, p_out=0.03):
    n = int(np.sum(sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < (p_in if owner[i] == owner[j] else p_out):
                w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), w)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    g = community_graph(rng, [16, 12, 12, 8])
    print(f"graph: {g.num_vertices} vertices, {g.num_edges} edges")

    kern = heat_kernel(g.laplacian(), 0.5)
    model = batch_kernel_som(kern, SomGrid(2, 3), epochs=200, seed=args.seed)
    part = som_partition(model)
    print(f"som occupancy by unit (2 x 3 grid):")
    print(model.unit_counts().reshape(2, 3))
    print(f"nonempty units: {part.k}, q = {q_modularity(g, part):+.4f}")

    sg = summary_graph(g, part)

    scene = force_directed_layout(sg, 500, Rect(0.0, 0.0, 800.0, 800.0),
                                  seed=args.seed)
    (out / "summary.svg").write_bytes(render_svg(scene))

    map_scene = som_map_scene(model, sg)
    shading = model.umatrix.upsampled()
    (out / "map.svg").write_bytes(render_svg(map_scene, umatrix=shading))
    (out / "map.dot").write_bytes(export_dot(sg, map_scene))

    full_scene = constrained_full_layout(g, model, 1000, seed=args.seed)
    (out / "full.svg").write_bytes(render_svg(full_scene))

    print(f"\nwrote summary.svg, map.svg, full.svg, map.dot to {out}/")
    print("dark bands in map.svg mark borders between unlike prototypes")


if __name__ == "__main__":
    main()
