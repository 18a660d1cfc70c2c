"""Batch self-organizing maps on a rectangular grid, on either feature map.

:func:`batch_som` takes coordinates or a :class:`KernelMatrix`; the kernel
and spectral variants are batch_som on a kernel and on an embedding. The
map never stores raw prototypes but an M x n matrix gamma of convex weights,
prototype m being the point sum_i gamma[m, i] * phi(x_i), and training
measures every distance through inner products alone; that is why
batch_kernel_som(X @ X.T) reproduces batch_som(X) draw for draw, away from
exact ties between units, which each view breaks by its own rounding.

The winning unit for a vertex is the one minimizing the
neighborhood-smoothed distance sum_m' hn(m, m') * d2(i, m'), where hn is the
Gaussian neighborhood row-normalized per unit, not the raw prototype
distance. Normalizing removes the border bias of the raw smoothed sum (edge
units cover less neighborhood mass, so they would win everything early and
the map would never unfold), and using hn consistently in the winner rule,
the update weights, and the energy makes each epoch a strict
coordinate-descent step on that energy: with the neighborhood frozen the
trace is monotone, which the plain nearest-prototype rule violates on a
sizable fraction of random inputs. On a 1x2 grid all these rules coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graph
from .errors import UsageError
from .graph import Partition, WeightedGraph
from .linalg import KernelMatrix, _FeatureSpace, spectral_embedding

# update denominators below this leave the gamma row untouched for the epoch
_DEAD_UNIT_FLOOR = 1e-300
# training epochs per map; the radius shrinks linearly across them
DEFAULT_EPOCHS = 100


@dataclass(frozen=True, eq=False)
class SomGrid:
    """Rectangular lattice of rows x cols units, indexed row-major.

    Unit m sits at integer coordinate (m // cols, m % cols); distances between
    units are Euclidean on those coordinates. Training holds M x M and M x n
    arrays, so a grid may have at most ``graph.MAX_VERTICES`` units.
    """

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise UsageError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.num_units > graph.MAX_VERTICES:
            raise UsageError(f"grid {self.rows}x{self.cols} has {self.num_units} "
                             f"units, above the limit of {graph.MAX_VERTICES}")

    @property
    def num_units(self) -> int:
        return self.rows * self.cols

    @cached_property
    def unit_coords(self) -> np.ndarray:
        rr, cc = np.meshgrid(np.arange(self.rows), np.arange(self.cols),
                             indexing="ij")
        coords = np.stack([rr.ravel(), cc.ravel()], axis=1)
        coords.setflags(write=False)
        return coords

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        c = self.unit_coords.astype(np.float64)
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=2))
        d.setflags(write=False)
        return d

    def normalized_neighborhood(self, sigma: float) -> np.ndarray:
        """Gaussian weights h(d) = exp(-d^2 / (2 sigma^2)), each unit's row summing to 1.

        Row sums of the raw Gaussian differ between border and interior
        units; normalizing keeps the smoothed winner rule unbiased.
        """
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        # at a tiny sigma far units get exp(-inf) = 0, their limit
        with np.errstate(over="ignore"):
            h = np.exp(-self.distance_matrix ** 2 / (2.0 * sigma * sigma))
        return h / h.sum(axis=1, keepdims=True)

    def grid_neighbors(self, m: int) -> list[int]:
        """Indices of the 4-neighborhood of unit m (edge units have fewer)."""
        r, c = divmod(m, self.cols)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                out.append(rr * self.cols + cc)
        return out


@dataclass(frozen=True, eq=False)
class SomModel:
    """Trained map: convex prototype weights (``None`` when read from a document),
    final assignment, energy trace, and u-matrix (``None`` on hand-built models);
    the method and knobs that trained it are recorded only in its document."""

    grid: SomGrid
    gamma: np.ndarray | None
    assignment: np.ndarray
    energy_trace: np.ndarray
    umatrix: UMatrix | None = None

    def __post_init__(self):
        g = None if self.gamma is None else np.array(self.gamma, dtype=np.float64)
        a = np.array(self.assignment, dtype=np.int64)
        trace = np.array(self.energy_trace, dtype=np.float64)
        m = self.grid.num_units
        if g is not None:
            if g.ndim != 2 or g.shape[0] != m:
                raise ValueError(f"gamma must have {m} rows, got shape {g.shape}")
            if (g < -1e-10).any():
                raise ValueError("gamma entries must be nonnegative")
            if np.abs(g.sum(axis=1) - 1.0).max() > 1e-8:
                raise ValueError("gamma rows must sum to 1")
        if a.ndim != 1 or (g is not None and a.size != g.shape[1]):
            raise ValueError("assignment must be 1-D, one unit per gamma column")
        if a.size and (a.min() < 0 or a.max() >= m):
            raise ValueError(f"assignment must reference units 0..{m - 1}")
        shape = (self.grid.rows, self.grid.cols)
        if self.umatrix is not None and self.umatrix.values.shape != shape:
            raise ValueError(f"umatrix must have shape {shape}, "
                             f"got {self.umatrix.values.shape}")
        for name, arr in (("gamma", g), ("assignment", a), ("energy_trace", trace)):
            if arr is not None:
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def num_vertices(self) -> int:
        return int(self.assignment.size)

    def unit_counts(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.grid.num_units)


def default_radius(grid: SomGrid) -> tuple[float, float]:
    """Standard schedule endpoints: half the longer grid side down to 0.5."""
    return (max(grid.rows, grid.cols) / 2.0, 0.5)


def _check_schedule(grid: SomGrid, epochs: int, radius) -> tuple[float, float]:
    """The radius schedule's endpoints, once epochs and radius are in range."""
    if epochs < 1:
        raise UsageError(f"epochs must be >= 1, got {epochs}")
    if radius is None:
        radius = default_radius(grid)
    start, end = float(radius[0]), float(radius[1])
    last = start + (end - start)  # the schedule's smallest sigma, maybe 0
    if not (np.isfinite(start) and start >= end > 0 and 2.0 * last * last > 0):
        raise UsageError(f"radius must be finite with start >= end > 0 and a "
                         f"last sigma of 2 * sigma^2 > 0, got ({start!r}, {end!r})")
    return start, end


def _sigma_at(epoch: int, epochs: int, start: float, end: float) -> float:
    if epochs == 1:
        return start
    return start + (end - start) * (epoch / (epochs - 1))


def _initial_gamma(rng: np.random.Generator, units: int, n: int) -> np.ndarray:
    gamma = rng.dirichlet(np.ones(n), size=units)
    return gamma / gamma.sum(axis=1, keepdims=True)


def _smoothed_bmu(dist2: np.ndarray, hn: np.ndarray) -> np.ndarray:
    # candidate unit m scores sum_r hn[m, r] * dist2[i, r]; ties to lowest m
    return np.argmin(dist2 @ hn.T, axis=1)


def _update_gamma(gamma: np.ndarray, scaled: np.ndarray, bmu: np.ndarray,
                  alive: np.ndarray) -> None:
    """Batch update in place: each live unit's gamma row becomes its column
    of the influence ``scaled[bmu]``, already divided by the unit's mass.

    Units no vertex influences (mass below the floor) keep their row.
    """
    gamma[alive] = scaled[bmu].T


def batch_kernel_som(kernel, grid: SomGrid, epochs: int = DEFAULT_EPOCHS,
                     radius: tuple[float, float] | None = None,
                     seed: int = 0) -> SomModel:
    """:func:`batch_som` on ``kernel`` read as a kernel matrix, even when it
    is a bare array; on a Gram matrix it draws as batch_som does, away from
    exact ties between units."""
    kern = kernel if isinstance(kernel, KernelMatrix) else KernelMatrix(kernel)
    return batch_som(kern, grid, epochs, radius, seed)


def batch_som(points, grid: SomGrid, epochs: int = DEFAULT_EPOCHS,
              radius: tuple[float, float] | None = None,
              seed: int = 0) -> SomModel:
    """Batch SOM on an n x p array of coordinates or a :class:`KernelMatrix`.

    Each epoch: smoothed best-matching units under the current neighborhood,
    then the closed-form batch update of every prototype's convex weights,
    with the neighborhood radius moving linearly from radius[0] to radius[1].
    The energy trace records the extended distortion after each epoch, and
    the model carries the u-matrix of the trained map.

    After an update, live prototype m is gamma[m] = sum_u hn[u, m] b_u /
    denom[m], where b_u is the indicator of the vertices whose unit is u, so
    its inner products with the vertices are (hn^T S)[m] / denom[m] for the
    per-unit sums S = B F of the vertices' rows. S changes only by the rows
    of the vertices that changed unit, so an epoch costs O(M^2 n) plus one
    row per moved vertex instead of the O(M n^2) of gamma Phi Phi^T.
    """
    space = _FeatureSpace(points)
    start, end = _check_schedule(grid, epochs, radius)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    units = grid.num_units
    gamma = _initial_gamma(rng, units, space.n)

    # the random start takes the one full product; a dead unit keeps its
    # row of inner products, as it keeps its gamma row. Each epoch's
    # distances to the updated prototypes serve the next epoch
    cross = space.cross(gamma)
    dist2 = space.dist2(gamma, cross)
    trace = []
    hn = bmu = sums = None
    for epoch in range(epochs):
        sigma = _sigma_at(epoch, epochs, start, end)
        hn = grid.normalized_neighborhood(sigma)
        bmu, before = _smoothed_bmu(dist2, hn), bmu
        influence = hn[bmu]
        denom = influence.sum(axis=0)
        alive = denom >= _DEAD_UNIT_FLOOR
        # divided before the products, so a unit whose gamma row copies
        # another's gets a bit-equal row of inner products too
        scaled = hn[:, alive] / denom[alive]
        _update_gamma(gamma, scaled, bmu, alive)
        sums = space.unit_sums(bmu, units, sums, before)
        cross[alive] = space.inner(scaled.T @ sums)
        dist2 = space.dist2(gamma, cross)
        trace.append(float((influence * dist2).sum()))
    return SomModel(grid, gamma, _smoothed_bmu(dist2, hn), np.array(trace),
                    _umatrix(grid, space, gamma))


def spectral_som(g: WeightedGraph, p: int, grid: SomGrid,
                 epochs: int = DEFAULT_EPOCHS,
                 radius: tuple[float, float] | None = None,
                 seed: int = 0) -> SomModel:
    """:func:`batch_som` on the spectral embedding of a graph."""
    _check_schedule(grid, epochs, radius)
    coords = spectral_embedding(g.laplacian(), p)
    return batch_som(coords, grid, epochs, radius, seed)


@dataclass(frozen=True, eq=False)
class UMatrix:
    """Per-unit mean distance to grid-neighbor prototypes, as a rows x cols field."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"values must be a nonempty 2-D array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("u-matrix values must be finite")
        if (v < 0).any():
            raise ValueError("u-matrix values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def upsampled(self) -> np.ndarray:
        """Bilinear enlargement by 8 along each axis, for smooth rendering.

        Sample centers follow the usual pixel convention (source position
        (i + 0.5) / 8 - 0.5), clamped at the borders.
        """
        out = self.values
        for axis, size in enumerate(out.shape):
            coords = (np.arange(size * 8) + 0.5) / 8 - 0.5
            coords = np.clip(coords, 0.0, size - 1.0)
            lo = np.floor(coords).astype(np.int64)
            hi = np.minimum(lo + 1, size - 1)
            frac = coords - lo
            moved = np.moveaxis(out, axis, 0)
            interp = (moved[lo] * (1.0 - frac[:, None])
                      + moved[hi] * frac[:, None])
            out = np.moveaxis(interp, 0, axis)
        return out


def _umatrix(grid: SomGrid, space: _FeatureSpace, gamma: np.ndarray) -> UMatrix:
    """:func:`u_matrix` of ``gamma``, through exactly symmetric distances."""
    gram = space.cross(gamma) @ gamma.T
    gram = (gram + gram.T) / 2.0
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    dist = np.sqrt(np.maximum(d2, 0.0, out=d2))
    values = [np.mean(dist[m, nbrs]) if (nbrs := grid.grid_neighbors(m)) else 0.0
              for m in range(grid.num_units)]
    return UMatrix(np.reshape(values, (grid.rows, grid.cols)))


def u_matrix(model: SomModel, data) -> UMatrix:
    """Mean feature-space distance from each prototype to its grid neighbors.

    ``data`` must be what the model was trained on: a KernelMatrix for
    kernel-trained models, or the n x p coordinate array for explicit ones
    (a bare ndarray is always treated as coordinates). Training stores this
    result, computed on its own feature space, as ``model.umatrix``.
    """
    if model.gamma is None:
        raise ValueError("a model read from a document has no gamma; use model.umatrix")
    space = _FeatureSpace(data)
    if space.n != model.num_vertices:
        raise ValueError(f"{space.what} does not match the model's "
                         f"{model.num_vertices} vertices")
    return _umatrix(model.grid, space, model.gamma)


def som_partition(model: SomModel) -> Partition:
    """Partition on the nonempty units: cluster c is the c-th, row-major."""
    units, clusters = np.unique(model.assignment, return_inverse=True)
    return Partition(clusters, int(units.size))
