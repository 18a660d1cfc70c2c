"""Lloyd k-means, spectral clustering, kernel k-means, q-modularity, stats.

Both k-means entry points run the one Lloyd loop over a feature space: the
spectral view gives it coordinates, the kernel view a kernel matrix, and the
loop sees only squared distances to vertices and to convex prototypes. So
seeding draws, tie rules, empty-cluster repair and the restart schedule are
shared, and feeding kernel_kmeans the Gram matrix X X^T of explicit points
reproduces kmeans(X) partition for partition; the tests lean on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graph import Partition, WeightedGraph, _edge_clusters
from .linalg import KernelMatrix, _FeatureSpace, spectral_embedding

__all__ = [
    "KMeansResult",
    "PartitionStats",
    "kmeans",
    "kernel_kmeans",
    "spectral_clustering",
    "q_modularity",
    "partition_stats",
]

MAX_LLOYD_ITERATIONS = 300
# seeded Lloyd runs per clustering; the best one wins
DEFAULT_RESTARTS = 10


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Best-of-restarts clustering outcome.

    ``energy_trace`` holds the winning restart's within-cluster energy after
    each Lloyd iteration; ``within_energy`` is its final entry.
    """

    partition: Partition
    within_energy: float
    energy_trace: np.ndarray
    iterations: int


@dataclass(frozen=True)
class PartitionStats:
    """Size distribution and quality score of a partition.

    Only nonempty clusters are counted. ``q_modularity`` is NaN when the graph
    has no edges (the score is undefined there).
    """

    q_modularity: float
    num_clusters: int
    num_singletons: int
    max_size: int
    median_size: float
    third_quartile_size: float


def _spawned_rngs(seed: int, restarts: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(restarts)
    return [np.random.default_rng(c) for c in children]


def _choose_weighted(rng: np.random.Generator, d2_min: np.ndarray) -> int:
    """Pick an index with probability proportional to d2_min.

    Consumes exactly one uniform draw regardless of branch, so every seeding
    step advances the RNG stream by the same amount.
    """
    n = d2_min.size
    u = float(rng.random())
    total = float(d2_min.sum())
    if total > 0.0:
        cum = np.cumsum(d2_min)
        idx = int(np.searchsorted(cum, u * total, side="right"))
        return min(idx, n - 1)
    return min(int(u * n), n - 1)


def _repair_empty(assign: np.ndarray, dist2: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the worst-placed point from a donor of size >= 2.

    Empty clusters are filled in ascending id order; the seized point is the
    eligible one farthest from its current center (ties to lowest index).
    """
    counts = np.bincount(assign, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return assign
    assign = assign.copy()
    own = dist2[np.arange(assign.size), assign].copy()
    for c in empties:
        eligible = counts[assign] >= 2
        scores = np.where(eligible, own, -np.inf)
        i = int(np.argmax(scores))
        counts[assign[i]] -= 1
        assign[i] = c
        counts[c] = 1
        own[i] = -np.inf
    return assign


def _lloyd(space: _FeatureSpace, k: int, rng: np.random.Generator):
    """One seeded Lloyd run: assignment and energy trace."""
    n = space.n
    d2 = space.dist2_to(int(rng.integers(n)))
    seed_dist2 = [d2]
    d2_min = d2
    for _ in range(1, k):
        d2 = space.dist2_to(_choose_weighted(rng, d2_min))
        seed_dist2.append(d2)
        d2_min = np.minimum(d2_min, d2)

    # distances to the seed points stand in for the first center distances
    dist2 = np.stack(seed_dist2, axis=1)
    assign = None
    trace = []
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_assign = _repair_empty(np.argmin(dist2, axis=1), dist2, k)
        if assign is not None and (new_assign == assign).all():
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        gamma = np.zeros((k, n))
        gamma[assign, np.arange(n)] = 1.0 / counts[assign]
        dist2 = space.dist2(gamma)
        trace.append(float(dist2[np.arange(n), assign].sum()))
    return assign, np.array(trace)


def _best_lloyd(space: _FeatureSpace, k: int, seed: int, restarts: int):
    """Minimum-energy restart; earlier restarts win ties."""
    if not 1 <= k <= space.n:
        raise UsageError(f"k must be in 1..{space.n}, got {k}")
    if restarts < 1:
        raise UsageError(f"restarts must be >= 1, got {restarts}")
    best = None
    for rng in _spawned_rngs(seed, restarts):
        run = _lloyd(space, k, rng)
        if best is None or run[1][-1] < best[1][-1]:
            best = run
    return best


def kmeans(points, k: int, seed: int,
           restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """Best-of-restarts Lloyd k-means with probabilistic far-point seeding.

    Each restart seeds centers k-means++ style, then alternates assignment
    (ties to the lowest center index, empty clusters repaired by seizing the
    farthest point from a donor of size >= 2) and mean updates until the
    assignment stops changing or 300 iterations pass. The minimum-energy
    restart wins; earlier restarts win ties.
    """
    assign, trace = _best_lloyd(_FeatureSpace(points), k, seed, restarts)
    return KMeansResult(Partition(assign, k), float(trace[-1]), trace,
                        int(trace.size))


def kernel_kmeans(kernel, k: int, seed: int,
                  restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """Lloyd k-means carried out entirely through a kernel matrix.

    Cluster means are implicit (uniform coefficients over members); squared
    distances come from the kernel expansion and are clamped at 0. Seeding,
    tie-breaking, repair, caps, and restart policy are identical to
    :func:`kmeans`, draw for draw.
    """
    kern = kernel if isinstance(kernel, KernelMatrix) else KernelMatrix(kernel)
    assign, trace = _best_lloyd(_FeatureSpace(kern), k, seed, restarts)
    return KMeansResult(Partition(assign, k), float(trace[-1]), trace,
                        int(trace.size))


def spectral_clustering(g: WeightedGraph, p: int, k: int, seed: int,
                        restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """k-means on the rows of the p lowest-eigenvalue Laplacian eigenvectors."""
    # checked before the eigensolve, which would first reject a p defaulted to k
    if not 1 <= k <= g.num_vertices:
        raise UsageError(f"k must be in 1..{g.num_vertices}, got {k}")
    coords = spectral_embedding(g.laplacian(), p)
    return kmeans(coords, k, seed, restarts)


def q_modularity(g: WeightedGraph, p: Partition, *, weighted: bool = True) -> float:
    """Partition quality: observed within-cluster weight minus the random expectation.

    For each cluster, take the fraction of total weight that falls inside it
    and subtract the squared fraction of weight touching it; sum over
    clusters. 0 for the trivial one-cluster partition, at most 1, negative
    when clusters cut more weight than they keep. With ``weighted=False``
    every edge counts 1 regardless of weight.
    """
    ci, cj, w = _edge_clusters(g, p)
    if not weighted:
        w = np.ones(w.size)
    inside = ci == cj
    # each edge counts at both of its ends, so the total counts it twice
    touching = np.bincount(ci, w, p.k) + np.bincount(cj, w, p.k)
    double_total = float(touching.sum())
    if double_total <= 0.0:
        raise ValueError("q-modularity is undefined for an edgeless graph")
    within = 2.0 * np.bincount(ci[inside], w[inside], p.k) / double_total
    touching /= double_total
    return float((within - touching ** 2).sum())


def partition_stats(g: WeightedGraph, p: Partition) -> PartitionStats:
    """Size distribution over nonempty clusters, plus the q-modularity score.

    Median and third quartile use linear interpolation on the sorted sizes.
    An edgeless graph gets NaN for q-modularity instead of an error.
    """
    if p.num_vertices != g.num_vertices:
        raise ValueError(f"partition covers {p.num_vertices} vertices, "
                         f"graph has {g.num_vertices}")
    sizes = p.sizes()
    sizes = sizes[sizes > 0]
    if g.total_weight > 0:
        q = q_modularity(g, p)
    else:
        q = float("nan")
    return PartitionStats(
        q_modularity=q,
        num_clusters=int(sizes.size),
        num_singletons=int((sizes == 1).sum()),
        max_size=int(sizes.max()),
        median_size=float(np.percentile(sizes, 50)),
        third_quartile_size=float(np.percentile(sizes, 75)),
    )
