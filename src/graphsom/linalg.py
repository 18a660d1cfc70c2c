"""Symmetric eigendecomposition, spectral embeddings, and the heat kernel.

Everything downstream (spectral clustering, kernel k-means, both SOM variants)
runs on the two objects defined here: an eigendecomposition with a fixed sign
convention, and a kernel matrix obtained by exponentiating a graph Laplacian.
A private feature space puts coordinates and kernels behind one set of
distance primitives, so each algorithm has a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError

# relative asymmetry accepted before a matrix is rejected as non-symmetric
_SYMMETRY_RTOL = 1e-12


def _checked_symmetric(m, what: str) -> np.ndarray:
    """Validate a square matrix and return it exactly symmetric.

    A float64 array that is already symmetric bit for bit comes back as is,
    not copied; any other input comes back as the fresh array (a + a.T) / 2.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{what} must have order >= 1")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    bits = a.view(np.int64)
    if (bits == bits.T).all():
        return a
    scale = max(float(a.max()), float(-a.min()), 1.0)
    gap = a - a.T
    if np.abs(gap, out=gap).max() > _SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} is not symmetric")
    del gap
    s = a + a.T
    s /= 2.0
    return s


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, ascending, with deterministic signs.

    ``eigenvectors[:, j]`` pairs with ``eigenvalues[j]``. In each column the
    entry of largest absolute value is nonnegative (ties broken by lowest
    index), which pins the otherwise arbitrary sign and keeps every downstream
    result reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # argmax returns the first occurrence, which is the tie rule we want; it
    # runs along contiguous rows of |v^T|, so it makes no copy of its own
    lead = np.argmax(np.abs(vectors.T, order="C"), axis=1)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def eigendecompose_symmetric(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues come back ascending; eigenvector signs follow the
    largest-absolute-entry convention so repeated calls on equal input give
    byte-identical output.
    """
    a = _checked_symmetric(m, "matrix")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        off = a - np.diag(np.diagonal(a))
        residual = float(np.linalg.norm(off))
        raise NumericalError(
            f"eigendecomposition failed to converge "
            f"(off-diagonal Frobenius norm {residual:.6e}): {exc}") from exc
    return EigenDecomposition(vals, _fix_signs(vecs))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric similarity matrix, read-only.

    ``matrix`` is a float64 copy of the input, so the caller's memory is never
    frozen or aliased. Positive semi-definiteness is a property of how the
    matrix was built (exact for heat kernels, near-exact for Gram matrices)
    and is not checked.
    """

    matrix: np.ndarray

    def __post_init__(self):
        a = _checked_symmetric(np.array(self.matrix, dtype=np.float64),
                               "kernel matrix")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def order(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix)  # a read-only view


def _one_hot(units: int, index: np.ndarray) -> np.ndarray:
    """units x len(index) indicator: column c is 1 in row index[c]."""
    out = np.zeros((units, index.size))
    out[index, np.arange(index.size)] = 1.0
    return out


class _FeatureSpace:
    """The vertices as points phi_i of one inner-product space.

    Built from a :class:`KernelMatrix` (<phi_i, phi_j> = K[i, j]) or, from
    anything else, as explicit coordinates (phi_i = points[i]). Prototypes
    are convex combinations sum_i gamma[m, i] phi_i given by the rows of an
    M x n weight matrix ``gamma``. Each view keeps one row F[i] per vertex,
    K[i] or points[i], in ``rows``, so a point c Phi has the row c F, and
    :meth:`inner` maps such rows to their inner products with every vertex.
    Every distance derives from that map and the squared norms, so k-means
    and the SOM run the same arithmetic on both views. Squared distances are
    clamped at 0 against rounding.
    """

    def __init__(self, data):
        if isinstance(data, KernelMatrix):
            self.points = None
            self.rows = data.matrix
            self.sq_norms = data.diagonal
            self.what = f"kernel order {data.order}"
        else:
            pts = np.asarray(data, dtype=np.float64)  # read, never written
            if pts.ndim != 2 or pts.shape[0] == 0:
                raise ValueError(
                    f"points must be a nonempty n x p array, got shape {pts.shape}")
            if not np.isfinite(pts).all():
                raise ValueError("points must be finite")
            self.points = self.rows = pts
            self.sq_norms = (pts ** 2).sum(axis=1)
            self.what = f"points of shape {pts.shape}"
        self.n = int(self.sq_norms.size)

    def inner(self, rows: np.ndarray) -> np.ndarray:
        """Inner products with every vertex of the points whose rows are
        ``rows``: the rows themselves for a kernel, rows points^T otherwise."""
        return rows if self.points is None else rows @ self.points.T

    def cross(self, gamma: np.ndarray) -> np.ndarray:
        """gamma Phi Phi^T: M x n inner products of prototypes with vertices."""
        return self.inner(gamma @ self.rows)

    def unit_sums(self, bmu: np.ndarray, units: int, sums: np.ndarray | None = None,
                  before: np.ndarray | None = None) -> np.ndarray:
        """Per-unit sums S = B F: row u sums the rows F[i] of the vertices i
        with ``bmu[i] == u``, for ``units`` units.

        Built afresh, as one one-hot product, when ``sums`` is None.
        Otherwise ``sums`` holds the sums of the assignment ``before`` and is
        updated in place: each vertex whose unit changed moves its row from
        the old unit to the new one, and a unit left with no vertex gets an
        exact zero row rather than the rounding residue of the rows it lost.
        """
        if sums is None:
            return _one_hot(units, bmu) @ self.rows
        moved = np.flatnonzero(bmu != before)
        if moved.size:
            left = before[moved]
            delta = _one_hot(units, bmu[moved]) - _one_hot(units, left)
            sums += delta @ self.rows[moved]
            sums[left[np.bincount(bmu, minlength=units)[left] == 0]] = 0.0
        return sums

    def dist2_to(self, j: int) -> np.ndarray:
        """Squared distances from every vertex to vertex j."""
        d2 = self.sq_norms - 2.0 * self.inner(self.rows[j]) + self.sq_norms[j]
        return np.maximum(d2, 0.0, out=d2)

    def dist2(self, gamma: np.ndarray, cross: np.ndarray) -> np.ndarray:
        """n x M squared distances from every vertex to every prototype,
        given ``cross``, the prototypes' inner products with the vertices."""
        proto_sq = (cross * gamma).sum(axis=1)
        d2 = cross.T * -2.0
        d2 += self.sq_norms[:, None]
        d2 += proto_sq
        return np.maximum(d2, 0.0, out=d2)


def heat_kernel(laplacian, beta: float) -> KernelMatrix:
    """Diffusion kernel exp(-beta * L) of a graph Laplacian.

    Computed through the full eigendecomposition, which validates L, as
    S S^T with S = V exp(-beta Lambda / 2), which numpy returns exactly
    symmetric and the kernel copies once V is dropped. At beta = 0 the
    kernel is the identity and no eigensolve runs. A beta that zeroes every
    mode above L's null space raises UsageError. Because L annihilates the
    constant vector, every row of the result sums to 1; because the
    exponentiated spectrum is positive, the result is positive semi-definite
    by construction.
    """
    b = float(beta)
    if not np.isfinite(b) or b < 0:
        raise UsageError(f"beta must be a finite nonnegative real, got {beta!r}")
    if b == 0.0:
        lap = _checked_symmetric(laplacian, "laplacian")
        return KernelMatrix(np.eye(lap.shape[0]))
    decomp = eigendecompose_symmetric(laplacian)
    lam = decomp.eigenvalues
    with np.errstate(over="ignore"):
        damped = np.exp(-b * lam)
    # modes above the rounding noise of the null space, which may be < 0
    live = lam > lam[-1] * lam.size * np.finfo(np.float64).eps
    if not np.isfinite(damped).all() or (live.any() and not damped[live].any()):
        raise UsageError(f"beta {beta!r} is too large for this graph: "
                         "exp(-beta * lambda) vanishes on every non-null mode "
                         "of the Laplacian, or overflows on rounding noise "
                         "in its zero eigenvalues")
    # the column signs fixed by the eigensolve cancel in S S^T
    s = decomp.eigenvectors
    s *= np.exp(-b * lam / 2.0)
    k = s @ s.T
    # drop V first, so the kernel's copy of K does not raise the peak
    del decomp, s
    return KernelMatrix(k)


def spectral_embedding(laplacian, p: int) -> np.ndarray:
    """Map vertices to p-space using the eigenvectors of the p smallest eigenvalues.

    Row i is vertex i's coordinate vector. All p eigenvectors enter with equal
    weight.
    """
    n = len(laplacian)
    if not 1 <= p <= n:
        raise UsageError(f"p must be in 1..{n}, got {p}")
    return eigendecompose_symmetric(laplacian).eigenvectors[:, :p].copy()
