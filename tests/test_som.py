import numpy as np
import pytest

import graphsom.som as som_module
from graphsom.linalg import KernelMatrix, heat_kernel
from graphsom.som import (
    SomGrid,
    SomModel,
    UMatrix,
    batch_kernel_som,
    batch_som,
    default_radius,
    som_partition,
    spectral_som,
    u_matrix,
)
from graphgen import kernel_coordinates, two_cliques


def random_gram(rng, n, p=3):
    pts = rng.normal(size=(n, p))
    gram = pts @ pts.T
    return KernelMatrix((gram + gram.T) / 2.0)


class TestSomGrid:
    def test_coords_row_major(self):
        g = SomGrid(2, 3)
        assert g.num_units == 6
        np.testing.assert_array_equal(
            g.unit_coords,
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]])

    def test_euclidean_distance(self):
        g = SomGrid(3, 3)
        d = g.distance_matrix
        assert d[0, 1] == 1.0
        assert d[0, 4] == pytest.approx(np.sqrt(2.0))
        assert d[0, 8] == pytest.approx(2.0 * np.sqrt(2.0))
        assert (d == d.T).all()

    def test_neighborhood_range(self):
        g = SomGrid(2, 2)
        h = g.neighborhood(1.0)
        assert h[0, 0] == 1.0
        assert h[0, 1] == pytest.approx(np.exp(-0.5))
        assert h[0, 3] == pytest.approx(np.exp(-1.0))

    def test_grid_neighbors(self):
        g = SomGrid(3, 3)
        assert g.grid_neighbors(4) == [1, 7, 3, 5]  # center: up, down, left, right
        assert g.grid_neighbors(0) == [3, 1]
        assert g.grid_neighbors(2) == [5, 1]

    def test_validation(self):
        with pytest.raises(ValueError, match="grid"):
            SomGrid(0, 3)
        with pytest.raises(ValueError, match="sigma"):
            SomGrid(2, 2).neighborhood(0.0)

    def test_default_radius(self):
        assert default_radius(SomGrid(7, 7)) == (3.5, 0.5)
        assert default_radius(SomGrid(1, 4)) == (2.0, 0.5)


class TestBatchKernelSom:
    def test_single_unit_grid(self):
        rng = np.random.default_rng(0)
        k = random_gram(rng, 9)
        model = batch_kernel_som(k, SomGrid(1, 1), epochs=5, radius=(1.0, 0.5),
                                 seed=1)
        assert (model.assignment == 0).all()
        np.testing.assert_allclose(model.gamma[0], np.full(9, 1.0 / 9),
                                   atol=1e-12)

    def test_two_cliques_on_two_units(self):
        # beta must diffuse enough to contract each clique; at 0.05 the
        # within- and cross-clique feature distances are nearly equal and
        # no random start separates them (0 of 200 seeds)
        g = two_cliques(10)
        kern = heat_kernel(g.laplacian(), 0.5)
        model = batch_kernel_som(kern, SomGrid(1, 2), epochs=100,
                                 radius=(1.0, 0.05), seed=3)
        a = model.assignment
        assert len(set(a[:10].tolist())) == 1
        assert len(set(a[10:].tolist())) == 1
        assert a[0] != a[10]
        # with the radius collapsed, each prototype's mass sits on one clique
        assert model.gamma[a[0], 0:10].sum() >= 1.0 - 1e-9
        assert model.gamma[a[10], 10:20].sum() >= 1.0 - 1e-9

    def test_matches_explicit_oracle_on_cliques(self):
        g = two_cliques(10)
        kern = heat_kernel(g.laplacian(), 0.5)
        coords = kernel_coordinates(kern)
        m_kernel = batch_kernel_som(kern, SomGrid(1, 2), epochs=100,
                                    radius=(1.0, 0.05), seed=3)
        m_explicit = batch_som(coords, SomGrid(1, 2), epochs=100,
                               radius=(1.0, 0.05), seed=3)
        np.testing.assert_array_equal(m_kernel.assignment, m_explicit.assignment)

    def test_kernel_trick_equivalence_random(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            n = int(rng.integers(8, 31))
            pts = rng.normal(size=(n, int(rng.integers(2, 5))))
            gram = KernelMatrix(((pts @ pts.T) + (pts @ pts.T).T) / 2.0)
            seed = int(rng.integers(1 << 30))
            mk = batch_kernel_som(gram, SomGrid(2, 3), epochs=15, seed=seed)
            me = batch_som(pts, SomGrid(2, 3), epochs=15, seed=seed)
            np.testing.assert_array_equal(mk.assignment, me.assignment)
            np.testing.assert_allclose(mk.energy_trace, me.energy_trace,
                                       rtol=1e-6, atol=1e-9)

    def test_frozen_radius_energy_descends(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(10, 26))
            kern = random_gram(rng, n)
            model = batch_kernel_som(kern, SomGrid(2, 2), epochs=50,
                                     radius=(1.5, 1.5),
                                     seed=int(rng.integers(1 << 30)))
            trace = model.energy_trace
            slack = 1e-9 * max(1.0, trace[0])
            assert (np.diff(trace) <= slack).all()

    def test_gamma_convex_every_epoch(self, monkeypatch):
        recorded = []
        original = som_module._update_gamma

        def spy(gamma, influence):
            out = original(gamma, influence)
            recorded.append(out.copy())
            return out

        monkeypatch.setattr(som_module, "_update_gamma", spy)
        rng = np.random.default_rng(6)
        batch_kernel_som(random_gram(rng, 15), SomGrid(3, 3), epochs=20, seed=7)
        assert len(recorded) == 20
        for gamma in recorded:
            assert gamma.min() >= -1e-12
            assert np.abs(gamma.sum(axis=1) - 1.0).max() <= 1e-10

    def test_vertex_relabeling_equivariance(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 14
        kern = random_gram(rng, n)
        inits = []
        original = som_module._initial_gamma

        def capture(r, units, size):
            g = original(r, units, size)
            inits.append(g)
            return g

        monkeypatch.setattr(som_module, "_initial_gamma", capture)
        base = batch_kernel_som(kern, SomGrid(2, 2), epochs=12, seed=9)

        perm = np.random.default_rng(1).permutation(n)
        permuted_init = inits[0][:, perm]
        monkeypatch.setattr(som_module, "_initial_gamma",
                            lambda r, units, size: permuted_init.copy())
        permuted_k = KernelMatrix(kern.matrix[np.ix_(perm, perm)])
        shuffled = batch_kernel_som(permuted_k, SomGrid(2, 2), epochs=12, seed=9)
        np.testing.assert_array_equal(shuffled.assignment,
                                      base.assignment[perm])

    def test_energy_trace_length(self):
        rng = np.random.default_rng(10)
        kern = random_gram(rng, 8)
        model = batch_kernel_som(kern, SomGrid(2, 2), epochs=7,
                                 radius=(1.0, 0.5), seed=11)
        assert model.energy_trace.size == 7

    def test_validation(self):
        kern = KernelMatrix(np.eye(4))
        with pytest.raises(ValueError, match="epochs"):
            batch_kernel_som(kern, SomGrid(1, 2), epochs=0)
        with pytest.raises(ValueError, match="radius"):
            batch_kernel_som(kern, SomGrid(1, 2), radius=(0.5, 1.0))
        with pytest.raises(ValueError, match="radius"):
            batch_kernel_som(kern, SomGrid(1, 2), radius=(1.0, 0.0))


class TestBatchSom:
    def test_single_unit_prototype_is_centroid(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(11, 3))
        model = batch_som(pts, SomGrid(1, 1), epochs=3, radius=(1.0, 0.5),
                          seed=13)
        proto = model.gamma @ pts
        np.testing.assert_allclose(proto[0], pts.mean(axis=0), atol=1e-12)

    def test_line_grid_orders_separated_points(self):
        # unfolding needs a slow anneal: at 1000 epochs every tried seed
        # orders the line, at 300 none do
        pts = np.array([[0.0], [10.0], [20.0], [30.0]])
        model = batch_som(pts, SomGrid(1, 4), epochs=1000, radius=(2.0, 0.05),
                          seed=0)
        a = model.assignment
        assert sorted(a.tolist()) == [0, 1, 2, 3]
        steps = np.diff(a)
        assert (steps == 1).all() or (steps == -1).all()

    def test_one_epoch_trains_at_the_start_radius(self):
        # every run's first epoch uses radius[0], so a one-epoch map is
        # the first epoch of a longer run
        pts = np.random.default_rng(14).normal(size=(9, 2))
        one = batch_som(pts, SomGrid(2, 2), epochs=1, radius=(2.0, 0.5), seed=15)
        five = batch_som(pts, SomGrid(2, 2), epochs=5, radius=(2.0, 0.5), seed=15)
        assert one.energy_trace.shape == (1,)
        assert one.energy_trace[0] == five.energy_trace[0]

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError, match="finite"):
            batch_som(np.array([[np.nan]]), SomGrid(1, 1))
        with pytest.raises(ValueError, match="points"):
            batch_som(np.zeros((0, 2)), SomGrid(1, 1))


class TestSpectralSom:
    def test_separates_cliques(self):
        g = two_cliques(10)
        model = spectral_som(g, p=2, grid=SomGrid(1, 2), epochs=50,
                             radius=(1.0, 0.1), seed=2)
        a = model.assignment
        assert len(set(a[:10].tolist())) == 1
        assert a[0] != a[10]

    def test_full_p_matches_batch_som_composition(self):
        g = two_cliques(4, bridge=0.7)
        from graphsom.linalg import spectral_embedding
        coords = spectral_embedding(g.laplacian(), 8)
        direct = batch_som(coords, SomGrid(2, 2), epochs=10, seed=5)
        composed = spectral_som(g, p=8, grid=SomGrid(2, 2), epochs=10, seed=5)
        np.testing.assert_array_equal(direct.assignment, composed.assignment)


class TestUMatrix:
    def make_model(self, gamma, grid, assignment=None):
        gamma = np.asarray(gamma, dtype=np.float64)
        if assignment is None:
            assignment = np.zeros(gamma.shape[1], dtype=np.int64)
        return SomModel(grid, gamma, assignment, np.array([0.0]))

    def test_identical_prototypes_score_zero(self):
        gamma = np.full((4, 6), 1.0 / 6)
        model = self.make_model(gamma, SomGrid(2, 2))
        rng = np.random.default_rng(14)
        u = u_matrix(model, KernelMatrix(random_gram(rng, 6).matrix))
        np.testing.assert_allclose(u.values, 0.0, atol=1e-7)

    def test_orthonormal_pair_scores_sqrt2(self):
        model = self.make_model(np.eye(2), SomGrid(1, 2),
                                assignment=np.array([0, 1]))
        u = u_matrix(model, KernelMatrix(np.eye(2)))
        np.testing.assert_allclose(u.values, np.sqrt(2.0), atol=1e-10)

    def test_kernel_and_explicit_routes_agree(self):
        g = two_cliques(8)
        kern = heat_kernel(g.laplacian(), 0.05)
        model = batch_kernel_som(kern, SomGrid(1, 2), epochs=30,
                                 radius=(1.0, 0.1), seed=15)
        u_k = u_matrix(model, kern)
        u_x = u_matrix(model, kernel_coordinates(kern))
        np.testing.assert_allclose(u_k.values, u_x.values, atol=1e-6)
        assert u_k.values.max() > 0.0

    def test_contributions_symmetric(self):
        from graphsom.linalg import _FeatureSpace
        from graphsom.som import _prototype_distances
        rng = np.random.default_rng(16)
        kern = random_gram(rng, 10)
        model = batch_kernel_som(kern, SomGrid(2, 3), epochs=10, seed=17)
        d = _prototype_distances(_FeatureSpace(kern), model.gamma)
        assert (d == d.T).all()
        assert (np.diagonal(d) == 0.0).all()

    def test_data_size_mismatch(self):
        model = self.make_model(np.eye(2), SomGrid(1, 2))
        with pytest.raises(ValueError, match="order"):
            u_matrix(model, KernelMatrix(np.eye(5)))
        with pytest.raises(ValueError, match="points"):
            u_matrix(model, np.zeros((5, 2)))

    def test_upsampled_shape_and_edges(self):
        u = UMatrix(np.array([[0.0, 1.0]]))
        up = u.upsampled(2)
        assert up.shape == (2, 4)
        np.testing.assert_allclose(up[0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)
        np.testing.assert_allclose(up[0], up[1])

    def test_upsampled_factor_one_is_copy(self):
        u = UMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(u.upsampled(1), u.values)

    def test_upsampled_constant_field(self):
        u = UMatrix(np.full((3, 3), 2.5))
        np.testing.assert_allclose(u.upsampled(8), 2.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            UMatrix(np.array([[-0.1]]))

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_empty_values(self, shape):
        with pytest.raises(ValueError, match="nonempty 2-D"):
            UMatrix(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            UMatrix(np.array([[0.5, bad]]))

    def test_trained_models_carry_their_umatrix(self):
        # the stored u-matrix is bit-equal to one rebuilt from the training data
        from graphsom.linalg import spectral_embedding
        g = two_cliques(6, bridge=0.5)
        grid = SomGrid(2, 3)
        kern = heat_kernel(g.laplacian(), 0.3)
        model = batch_kernel_som(kern, grid, epochs=20, seed=21)
        np.testing.assert_array_equal(model.umatrix.values,
                                      u_matrix(model, kern).values)
        coords = np.random.default_rng(22).normal(size=(12, 3))
        model = batch_som(coords, grid, epochs=20, seed=23)
        np.testing.assert_array_equal(model.umatrix.values,
                                      u_matrix(model, coords).values)
        model = spectral_som(g, 4, grid, epochs=20, seed=24)
        embedded = spectral_embedding(g.laplacian(), 4)
        np.testing.assert_array_equal(model.umatrix.values,
                                      u_matrix(model, embedded).values)
        assert model.umatrix.values.max() > 0.0

    def test_model_rejects_mis_shaped_umatrix(self):
        with pytest.raises(ValueError, match="umatrix must have shape"):
            SomModel(SomGrid(1, 2), np.eye(2), np.array([0, 1]),
                     np.array([0.0]), umatrix=UMatrix(np.zeros((2, 1))))


class TestSomPartition:
    def test_renumbers_row_major(self):
        gamma = np.full((4, 3), 1.0 / 3)
        model = SomModel(SomGrid(2, 2), gamma, np.array([0, 0, 3]),
                         np.array([0.0]))
        p = som_partition(model)
        assert p.k == 2
        np.testing.assert_array_equal(p.assignment, [0, 0, 1])

    def test_single_unit(self):
        gamma = np.full((1, 4), 0.25)
        model = SomModel(SomGrid(1, 1), gamma, np.zeros(4, dtype=np.int64),
                         np.array([0.0]))
        p = som_partition(model)
        assert p.k == 1

    def test_co_assignment_preserved(self):
        rng = np.random.default_rng(18)
        kern = random_gram(rng, 20)
        model = batch_kernel_som(kern, SomGrid(3, 3), epochs=15, seed=19)
        p = som_partition(model)
        for i in range(20):
            for j in range(i + 1, 20):
                same_unit = model.assignment[i] == model.assignment[j]
                same_cluster = p.assignment[i] == p.assignment[j]
                assert same_unit == same_cluster
