import numpy as np
import pytest

from graphsom.linalg import (
    KernelMatrix,
    _FeatureSpace,
    eigendecompose_symmetric,
    heat_kernel,
    spectral_embedding,
)
from graphgen import path_graph, random_graph, random_laplacian, two_cliques

P2_LAP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def matrix_exp_series(a, terms=31):
    """Truncated power series for expm, the independent oracle."""
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def bounded_laplacian(n, beta, rng, spectral_cap=5.0):
    """Random Laplacian rescaled so ||beta * L||_2 <= spectral_cap.

    Keeps the 30-term series truncation error provably below 1e-10; the
    spectral norm is bounded through Gershgorin (lambda_max <= 2 max degree).
    """
    g = random_graph(n, density=0.4, rng=rng, max_weight=1.0)
    lap = g.laplacian()
    bound = 2.0 * float(g.degrees.max()) * beta
    if bound > spectral_cap:
        lap = lap * (spectral_cap / bound)
    return lap


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        d = eigendecompose_symmetric(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        expected = np.array([
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        np.testing.assert_allclose(d.eigenvectors, expected, atol=1e-12)

    def test_p2_laplacian(self):
        d = eigendecompose_symmetric(P2_LAP)
        np.testing.assert_allclose(d.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(d.eigenvectors[:, 0], [s, s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(20, 20))
            m = (a + a.T) / 2.0
            d = eigendecompose_symmetric(m)
            v = d.eigenvectors
            err = np.abs((v * d.eigenvalues) @ v.T - m).max()
            assert err <= 1e-8 * np.abs(m).max()

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(30, 30))
        d = eigendecompose_symmetric((a + a.T) / 2.0)
        gram = d.eigenvectors.T @ d.eigenvectors
        assert np.abs(gram - np.eye(30)).max() <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            a = rng.normal(size=(n, n))
            d = eigendecompose_symmetric((a + a.T) / 2.0)
            v = d.eigenvectors
            lead = np.argmax(np.abs(v), axis=0)
            assert (v[lead, np.arange(n)] >= 0).all()

    def test_deterministic(self):
        a = random_laplacian(12, rng=3)
        d1 = eigendecompose_symmetric(a)
        d2 = eigendecompose_symmetric(a)
        assert d1.eigenvalues.tobytes() == d2.eigenvalues.tobytes()
        assert d1.eigenvectors.tobytes() == d2.eigenvectors.tobytes()

    def test_laplacian_spectrum_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            lap = random_graph(n, rng=rng).laplacian()
            vals = eigendecompose_symmetric(lap).eigenvalues
            assert vals[0] >= -1e-10 * max(vals[-1], 1.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            eigendecompose_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose_symmetric(np.zeros((2, 3)))


class TestHeatKernel:
    def test_beta_zero_is_identity(self):
        lap = random_laplacian(8, rng=5)
        k = heat_kernel(lap, 0.0)
        assert np.abs(k.matrix - np.eye(8)).max() <= 1e-12
        assert k.beta == 0.0

    def test_p2_closed_form(self):
        k = heat_kernel(P2_LAP, 0.5)
        diag = (1.0 + np.exp(-1.0)) / 2.0
        off = (1.0 - np.exp(-1.0)) / 2.0
        np.testing.assert_allclose(k.matrix, [[diag, off], [off, diag]], atol=1e-10)

    def test_power_series_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            beta = float(rng.uniform(0.01, 1.0))
            lap = bounded_laplacian(n, beta, rng)
            k = heat_kernel(lap, beta)
            oracle = matrix_exp_series(-beta * lap)
            assert np.abs(k.matrix - oracle).max() <= 1e-8

    def test_row_sums_one(self):
        lap = random_laplacian(40, rng=7)
        k = heat_kernel(lap, 0.3)
        np.testing.assert_allclose(k.matrix.sum(axis=1), np.ones(40), atol=1e-8)

    def test_positive_semidefinite(self):
        lap = random_laplacian(25, rng=8)
        k = heat_kernel(lap, 2.0)
        vals = np.linalg.eigvalsh(k.matrix)
        assert vals[0] >= -1e-8 * vals[-1]

    def test_exactly_symmetric(self):
        lap = random_laplacian(15, rng=9)
        k = heat_kernel(lap, 0.7)
        assert (k.matrix == k.matrix.T).all()

    def test_block_diagonal_stays_block(self):
        lap = two_cliques(4).laplacian()
        k = heat_kernel(lap, 0.8)
        assert np.abs(k.matrix[:4, 4:]).max() <= 1e-12

    def test_semigroup(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            lap = random_laplacian(n, rng=rng)
            b1 = float(rng.uniform(0.05, 0.8))
            b2 = float(rng.uniform(0.05, 0.8))
            prod = heat_kernel(lap, b1).matrix @ heat_kernel(lap, b2).matrix
            both = heat_kernel(lap, b1 + b2).matrix
            assert np.abs(prod - both).max() <= 1e-8

    def test_trace_decreases_with_beta(self):
        lap = path_graph(12).laplacian()
        k1 = heat_kernel(lap, 0.2)
        k2 = heat_kernel(lap, 0.9)
        assert np.trace(k2.matrix) < np.trace(k1.matrix)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            heat_kernel(P2_LAP, -0.1)


class TestSpectralEmbedding:
    def test_component_indicator_structure(self):
        g = two_cliques(4)
        emb = spectral_embedding(g.laplacian(), 2)
        # two components: rows constant within a component
        for block in (slice(0, 4), slice(4, 8)):
            rows = emb[block]
            assert np.abs(rows - rows[0]).max() <= 1e-8

    def test_p2_single_column(self):
        emb = spectral_embedding(P2_LAP, 1)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(emb, [[s], [s]], atol=1e-12)

    def test_full_width_matches_eigenvectors(self):
        lap = random_laplacian(10, rng=11)
        d = eigendecompose_symmetric(lap)
        np.testing.assert_array_equal(spectral_embedding(lap, 10), d.eigenvectors)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p must be"):
            spectral_embedding(P2_LAP, 0)
        with pytest.raises(ValueError, match="p must be"):
            spectral_embedding(P2_LAP, 3)


class TestFeatureSpace:
    def test_distance_to_self_is_zero(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        gram = pts @ pts.T
        space = _FeatureSpace(KernelMatrix((gram + gram.T) / 2.0))
        coeffs = np.zeros((1, 6))
        coeffs[0, 2] = 1.0
        assert space.dist2(coeffs)[2, 0] == pytest.approx(0.0, abs=1e-12)
        assert space.dist2_to(2)[2] == pytest.approx(0.0, abs=1e-12)

    def test_identity_kernel_member(self):
        space = _FeatureSpace(KernelMatrix(np.eye(4)))
        coeffs = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert space.dist2(coeffs)[0, 0] == pytest.approx(0.5)

    def test_identity_kernel_nonmember(self):
        space = _FeatureSpace(KernelMatrix(np.eye(4)))
        coeffs = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert space.dist2(coeffs)[3, 0] == pytest.approx(1.5)

    def test_points_and_gram_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            pts = rng.normal(size=(n, int(rng.integers(1, 6))))
            gamma = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 8)))
            raw = pts @ pts.T
            explicit = _FeatureSpace(pts)
            implicit = _FeatureSpace(KernelMatrix((raw + raw.T) / 2.0))
            np.testing.assert_allclose(explicit.dist2(gamma),
                                       implicit.dist2(gamma), rtol=0, atol=1e-9)
            gram = explicit.gram(gamma)
            assert (gram == gram.T).all()
            np.testing.assert_allclose(gram, implicit.gram(gamma),
                                       rtol=0, atol=1e-9)
            j = int(rng.integers(n))
            np.testing.assert_allclose(explicit.dist2_to(j),
                                       implicit.dist2_to(j), rtol=0, atol=1e-9)


class TestKernelMatrixType:
    def test_symmetrizes_tiny_asymmetry(self):
        a = np.eye(3)
        a[0, 1] = 1e-15
        k = KernelMatrix(a)
        assert (k.matrix == k.matrix.T).all()

    def test_rejects_large_asymmetry(self):
        a = np.eye(3)
        a[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            KernelMatrix(a)

    def test_diagonal_and_trace(self):
        k = KernelMatrix(np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(k.diagonal, [2.0, 3.0])
        assert np.trace(k.matrix) == 5.0

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError, match="beta"):
            KernelMatrix(np.eye(2), beta=-1.0)
