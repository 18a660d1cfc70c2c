import warnings
from dataclasses import replace

import numpy as np
import pytest

import graphsom.som as som_module
from graphsom.linalg import KernelMatrix, _FeatureSpace, heat_kernel
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


def reference_train(data, grid, epochs, radius, seed):
    """The training loop written plainly on the feature space of ``data``:
    every epoch's distances come from the full product gamma Phi Phi^T of
    ``space.cross(gamma)``.

    Training reaches the same distances through per-unit sums, in another
    order, so the two agree on the energy trace up to rounding and, away
    from exact ties between units, bit for bit on assignment, gamma and
    u-matrix. Points on a line tie often: once every occupied unit lies in
    one grid row, each grid column's units share one prototype and one
    smoothed score, and rounding picks the winner. So the inputs below have
    two or more dimensions.
    """
    space = _FeatureSpace(data)
    start, end = som_module._check_schedule(grid, epochs, radius)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gamma = som_module._initial_gamma(rng, grid.num_units, space.n)
    dist2 = space.dist2(gamma, space.cross(gamma))
    trace = []
    for epoch in range(epochs):
        sigma = som_module._sigma_at(epoch, epochs, start, end)
        hn = grid.normalized_neighborhood(sigma)
        influence = hn[som_module._smoothed_bmu(dist2, hn)]
        # gamma row m becomes the normalized influence column m; a unit
        # whose mass is below the floor keeps its row
        denom = influence.sum(axis=0)
        alive = denom >= som_module._DEAD_UNIT_FLOOR
        gamma = gamma.copy()
        gamma[alive] = (influence[:, alive] / denom[alive]).T
        dist2 = space.dist2(gamma, space.cross(gamma))
        trace.append(float((influence * dist2).sum()))
    model = SomModel(grid, gamma, som_module._smoothed_bmu(dist2, hn),
                     np.array(trace))
    return replace(model, umatrix=u_matrix(model, data))


def assert_same_training(model, expected):
    np.testing.assert_array_equal(model.assignment, expected.assignment)
    np.testing.assert_array_equal(model.gamma, expected.gamma)
    np.testing.assert_array_equal(model.umatrix.values, expected.umatrix.values)
    # a map with a vertex on every prototype has a zero trace
    scale = np.abs(expected.energy_trace).max()
    np.testing.assert_allclose(model.energy_trace, expected.energy_trace,
                               rtol=1e-12, atol=1e-12 * max(scale, 1e-300))


class TestTrainingOracle:
    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (7, 7)])
    @pytest.mark.parametrize("epochs", [1, 15])
    def test_kernel_view_matches_reference(self, shape, epochs):
        rng = np.random.default_rng(30 + epochs)
        grid = SomGrid(*shape)
        for _ in range(4):
            kern = random_gram(rng, int(rng.integers(8, 61)),
                               p=int(rng.integers(2, 6)))
            seed = int(rng.integers(1 << 30))
            assert_same_training(
                batch_kernel_som(kern, grid, epochs=epochs, seed=seed),
                reference_train(kern, grid, epochs, None, seed))

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (7, 7)])
    @pytest.mark.parametrize("epochs", [1, 15])
    def test_points_view_matches_reference(self, shape, epochs):
        rng = np.random.default_rng(40 + epochs)
        grid = SomGrid(*shape)
        for _ in range(4):
            pts = rng.normal(size=(int(rng.integers(8, 61)),
                                   int(rng.integers(2, 6))))
            seed = int(rng.integers(1 << 30))
            assert_same_training(
                batch_som(pts, grid, epochs=epochs, seed=seed),
                reference_train(pts, grid, epochs, None, seed))

    @pytest.mark.parametrize("view", ["kernel", "points"])
    def test_full_product_count_does_not_grow_with_epochs(self, monkeypatch, view):
        # the random start and the u-matrix take one gamma Phi Phi^T each;
        # an epoch takes none
        calls = []
        original = _FeatureSpace.cross

        def counting(self, gamma):
            calls.append(gamma.shape)
            return original(self, gamma)

        monkeypatch.setattr(_FeatureSpace, "cross", counting)
        pts = np.random.default_rng(50).normal(size=(30, 3))
        data = KernelMatrix(pts @ pts.T) if view == "kernel" else pts
        train = batch_kernel_som if view == "kernel" else batch_som
        counts = []
        for epochs in (5, 50):
            calls.clear()
            train(data, SomGrid(3, 3), epochs=epochs, seed=51)
            counts.append(len(calls))
        assert counts == [2, 2]


class TestDeadUnits:
    # eight points on a 1 x 40 grid with a radius of 0.05: a unit two steps
    # from every occupied unit gets a neighbourhood weight of exp(-800) = 0
    # from each vertex, so its denominator is 0 and it keeps its gamma row
    GRID = SomGrid(1, 40)
    KW = dict(epochs=5, radius=(0.05, 0.05), seed=1)

    def points(self):
        return np.random.default_rng(3).normal(size=(8, 2))

    def test_dead_rows_keep_their_previous_gamma(self, monkeypatch):
        recorded = []
        original = som_module._update_gamma

        # every epoch has the one neighbourhood of sigma 0.05
        hn = self.GRID.normalized_neighborhood(0.05)

        def spy(gamma, scaled, bmu, alive):
            before = gamma.copy()
            original(gamma, scaled, bmu, alive)
            recorded.append((before, hn[bmu], gamma.copy()))

        monkeypatch.setattr(som_module, "_update_gamma", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch_som(self.points(), self.GRID, **self.KW)
        dead_counts = []
        for before, influence, after in recorded:
            dead = influence.sum(axis=0) < som_module._DEAD_UNIT_FLOOR
            dead_counts.append(int(dead.sum()))
            np.testing.assert_array_equal(after[dead], before[dead])
        assert dead_counts == [23, 19, 17, 17, 17]

    def test_both_views_match_reference_without_warnings(self):
        pts = self.points()
        gram = KernelMatrix(pts @ pts.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            explicit = batch_som(pts, self.GRID, **self.KW)
            kernel = batch_kernel_som(gram, self.GRID, **self.KW)
            reference = reference_train(pts, self.GRID,
                                        self.KW["epochs"], self.KW["radius"],
                                        self.KW["seed"])
        assert_same_training(explicit, reference)
        np.testing.assert_array_equal(kernel.assignment, explicit.assignment)
        np.testing.assert_array_equal(kernel.gamma, explicit.gamma)
        np.testing.assert_allclose(kernel.energy_trace, explicit.energy_trace,
                                   rtol=1e-9)


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
    def test_is_batch_som_on_a_kernel_matrix(self):
        # a bare array is read as a kernel here, as coordinates by batch_som
        k = heat_kernel(two_cliques(6, bridge=1.0).laplacian(), 0.3).matrix.copy()
        direct = batch_kernel_som(k, SomGrid(2, 3), epochs=9, seed=4)
        via_som = batch_som(KernelMatrix(k), SomGrid(2, 3), epochs=9, seed=4)
        for name in ("gamma", "assignment", "energy_trace"):
            assert getattr(direct, name).tobytes() == getattr(via_som, name).tobytes()
        assert direct.umatrix.values.tobytes() == via_som.umatrix.values.tobytes()

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

        def spy(gamma, *args):
            original(gamma, *args)
            recorded.append(gamma.copy())

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
        # each unit's one neighbor is the other, and the distance between
        # two prototypes is the same bits from either end
        rng = np.random.default_rng(16)
        for shape in [(1, 2), (2, 1)] * 4:
            kern = random_gram(rng, 10)
            gamma = rng.dirichlet(np.ones(10), size=2)
            u = u_matrix(self.make_model(gamma, SomGrid(*shape)), kern).values
            assert u.ravel()[0] == u.ravel()[1] > 0.0

    def test_data_size_mismatch(self):
        model = self.make_model(np.eye(2), SomGrid(1, 2))
        with pytest.raises(ValueError, match="order"):
            u_matrix(model, KernelMatrix(np.eye(5)))
        with pytest.raises(ValueError, match="points"):
            u_matrix(model, np.zeros((5, 2)))

    def test_upsampled_shape_and_edges(self):
        # sample i of 16 reads source position (i + 0.5) / 8 - 0.5, clamped
        u = UMatrix(np.array([[0.0, 1.0]]))
        up = u.upsampled()
        assert up.shape == (8, 16)
        expect = np.clip((np.arange(16) + 0.5) / 8 - 0.5, 0.0, 1.0)
        np.testing.assert_allclose(up[0], expect, atol=1e-12)
        assert up[0, :4].tolist() == [0.0] * 4 and up[0, 12:].tolist() == [1.0] * 4
        np.testing.assert_array_equal(up, np.tile(up[0], (8, 1)))

    def test_upsampled_constant_field(self):
        u = UMatrix(np.full((3, 3), 2.5))
        np.testing.assert_allclose(u.upsampled(), 2.5)

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

    @pytest.mark.parametrize("view", ["kernel", "points"])
    def test_training_builds_its_model_once(self, monkeypatch, view):
        # the model is checked and frozen once, with its u-matrix already in
        calls = []
        check = SomModel.__post_init__

        def counting(model):
            calls.append(model.umatrix)
            return check(model)

        monkeypatch.setattr(SomModel, "__post_init__", counting)
        pts = np.random.default_rng(25).normal(size=(12, 3))
        data = KernelMatrix(pts @ pts.T) if view == "kernel" else pts
        train = batch_kernel_som if view == "kernel" else batch_som
        model = train(data, SomGrid(2, 3), epochs=5, seed=26)
        assert len(calls) == 1 and calls[0] is model.umatrix

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
