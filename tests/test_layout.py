import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphsom import layout
from graphsom.graph import Partition, summary_graph
from graphsom.layout import (
    CELL_SIDE,
    LayoutScene,
    Rect,
    _anneal,
    constrained_full_layout,
    force_directed_layout,
    som_map_scene,
)
from graphsom.som import SomGrid, SomModel, som_partition
from graphgen import complete_graph, random_graph, two_cliques


def uniform_model(grid, assignment, n_vertices=None):
    """Model with uniform convex rows; only the assignment matters here."""
    assignment = np.asarray(assignment, dtype=np.int64)
    n = assignment.size if n_vertices is None else n_vertices
    gamma = np.full((grid.num_units, n), 1.0 / n)
    return SomModel(grid, gamma, assignment, np.zeros(1))


def halves_partition(n):
    return Partition(np.repeat([0, 1], n // 2), 2)


class TestRect:
    def test_derived_properties(self):
        r = Rect(2.0, 3.0, 10.0, 4.0)
        assert r.x1 == 12.0
        assert r.y1 == 7.0
        assert r.area == 40.0
        assert r.center == (7.0, 5.0)
        assert r.diagonal == pytest.approx(np.hypot(10.0, 4.0))

    def test_shrunk(self):
        inner = Rect(0.0, 0.0, 100.0, 200.0).shrunk(0.05)
        assert inner.x == 5.0 and inner.y == 10.0
        assert inner.width == 90.0 and inner.height == 180.0
        with pytest.raises(ValueError, match="fraction"):
            Rect(0, 0, 1, 1).shrunk(0.5)

    def test_contains_boundary(self):
        r = Rect(0.0, 0.0, 10.0, 10.0)
        assert r.contains(0.0, 0.0)
        assert r.contains(10.0, 10.0)
        assert not r.contains(10.0001, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            Rect(0.0, np.nan, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            Rect(0.0, 0.0, -1.0, 1.0)


class TestLayoutScene:
    def scene_kwargs(self, **overrides):
        kw = dict(
            positions=[[1.0, 1.0], [7.0, 4.0]],
            radii=[1.0, 2.0],
            edges=[[0, 1]],
            edge_widths=[1.5],
            frame=Rect(0.0, 0.0, 10.0, 10.0),
            item_labels=("a", "b"),
            item_groups=[0, 1],
            group_sizes=[3, 2],
        )
        kw.update(overrides)
        return kw

    def test_valid_scene_is_frozen(self):
        scene = LayoutScene(**self.scene_kwargs())
        assert scene.num_items == 2
        with pytest.raises(ValueError):
            scene.positions[0, 0] = 5.0
        with pytest.raises(ValueError):
            scene.radii[0] = 5.0

    def test_position_outside_frame(self):
        with pytest.raises(ValueError, match="frame"):
            LayoutScene(**self.scene_kwargs(positions=[[1.0, 1.0], [11.0, 4.0]]))

    def test_bad_radii(self):
        with pytest.raises(ValueError, match="radii"):
            LayoutScene(**self.scene_kwargs(radii=[1.0, 0.0]))

    def test_edge_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            LayoutScene(**self.scene_kwargs(edges=[[0, 2]]))
        with pytest.raises(ValueError, match="self"):
            LayoutScene(**self.scene_kwargs(edges=[[1, 1]]))
        with pytest.raises(ValueError, match="one entry per edge"):
            LayoutScene(**self.scene_kwargs(edge_widths=[1.0, 2.0]))

    def test_group_validation(self):
        with pytest.raises(ValueError, match="group out of range"):
            LayoutScene(**self.scene_kwargs(item_groups=[0, 2]))
        with pytest.raises(ValueError, match="positive"):
            LayoutScene(**self.scene_kwargs(group_sizes=[3, 0]))

    def test_cell_pairing(self):
        cells = (Rect(0, 0, 5, 10), Rect(5, 0, 5, 10))
        with pytest.raises(ValueError, match="together"):
            LayoutScene(**self.scene_kwargs(cell_regions=cells))
        scene = LayoutScene(**self.scene_kwargs(cell_regions=cells,
                                                cell_of_item=[0, 1]))
        assert scene.cell_of_item.tolist() == [0, 1]

    def test_cell_containment_enforced(self):
        cells = (Rect(0, 0, 5, 10), Rect(5, 0, 5, 10))
        with pytest.raises(ValueError, match="outside its cell"):
            LayoutScene(**self.scene_kwargs(cell_regions=cells,
                                            cell_of_item=[1, 0]))

    def test_cell_borders_are_inclusive(self):
        cells = (Rect(0, 0, 5, 10), Rect(5, 0, 5, 10))
        on_border = [[5.0, 0.0], [5.0, 10.0], [7.0, 4.0]]
        for cell_of in ([0, 0, 1], [1, 1, 1]):
            LayoutScene(**self.scene_kwargs(
                positions=on_border, radii=[1.0] * 3, item_labels="abc",
                item_groups=[0, 1, 1], cell_regions=cells,
                cell_of_item=cell_of))

    def test_first_item_outside_is_named(self):
        cells = (Rect(0, 0, 5, 10), Rect(5, 0, 5, 10))
        with pytest.raises(ValueError, match="item 1 lies outside"):
            LayoutScene(**self.scene_kwargs(
                positions=[[1.0, 1.0], [7.0, 4.0], [8.0, 4.0]],
                radii=[1.0] * 3, item_labels="abc", item_groups=[0, 1, 1],
                cell_regions=cells, cell_of_item=[0, 0, 0]))


def reference_anneal(pos, edges, norm_weights, iterations, k, lo, hi, temp0,
                     repulsion_groups):
    """The annealing loop written plainly, one n_g x n_g x 2 block per group.

    ``_anneal`` does the same floating-point operations in the same order, so
    the two must agree bit for bit.
    """
    eps = 1e-9
    pos = pos.copy()
    for t in range(iterations):
        temp = temp0 * (1.0 - t / iterations)
        disp = np.zeros_like(pos)
        for idx in repulsion_groups:
            if idx.size < 2:
                continue
            p = pos[idx]
            delta = p[:, None, :] - p[None, :, :]
            dist = np.sqrt((delta * delta).sum(axis=2))
            np.maximum(dist, eps, out=dist)
            np.fill_diagonal(dist, np.inf)
            disp[idx] += (delta * (k * k / (dist * dist))[..., None]).sum(axis=1)
        if edges.shape[0]:
            d = pos[edges[:, 0]] - pos[edges[:, 1]]
            dist = np.sqrt((d * d).sum(axis=1))
            np.maximum(dist, eps, out=dist)
            pull = d * ((dist / k) * norm_weights)[:, None]
            np.add.at(disp, edges[:, 0], -pull)
            np.add.at(disp, edges[:, 1], pull)
        lengths = np.sqrt((disp * disp).sum(axis=1))
        scale = np.minimum(1.0, temp / np.maximum(lengths, eps))
        pos += disp * scale[:, None]
        np.clip(pos, lo, hi, out=pos)
    return pos


def count_blocks(monkeypatch):
    """Record the (2, m, m) shape of every whole lone block ``_anneal`` runs;
    a partial pass's rows are at most a quarter of its block, never square."""
    shapes = []
    kernel = layout._pair_terms

    def counting(d, *args):
        if d.ndim == 3 and d.shape[1] == d.shape[2]:
            shapes.append(d.shape)
        return kernel(d, *args)

    monkeypatch.setattr(layout, "_pair_terms", counting)
    return shapes


def count_terms(monkeypatch):
    """Record the shape of every batch of pair terms ``_anneal`` computes:
    (2, m, m) for a whole lone block, (2, c, m) for the rows of the c points
    that moved in one, and (2, L) for the L pairs of the small groups' list."""
    shapes = []
    kernel = layout._pair_terms

    def counting(d, *args):
        shapes.append(d.shape)
        return kernel(d, *args)

    monkeypatch.setattr(layout, "_pair_terms", counting)
    return shapes


def record_steps(monkeypatch):
    """Record the moved mask, in ``_anneal``'s vertex order, that each step
    hands to the repulsion; the first step's mask flags every vertex."""
    masks = []
    update = layout._Repulsion.update

    def recording(self, moved):
        masks.append(moved.copy())
        return update(self, moved)

    monkeypatch.setattr(layout._Repulsion, "update", recording)
    return masks


class TestPairTerms:
    # point 1 sits on point 0, and point 3 at x = -0.0 beside point 2 at
    # x = +0.0, so their x difference is -0.0
    XY = np.array([[3.0, 3.0, 0.0, -0.0, 7.5, -2.0],
                   [1.0, 1.0, 4.0, 2.0, -6.0, 1.0]])

    def batches(self):
        """The three batches the anneal hands over, with their self pairs:
        a whole block, the rows of the moved points 1 and 3, and a list of
        ordered pairs of distinct points."""
        xy, m = self.XY, self.XY.shape[1]
        moved = np.array([1, 3])
        recv = np.array([0, 1, 3, 2, 5, 4])
        send = np.array([1, 0, 2, 3, 4, 0])
        return [(xy[:, None, :] - xy[:, :, None], np.arange(m) * (m + 1)),
                (xy[:, None, :] - xy[:, moved, None], moved + m * np.arange(2)),
                (xy[:, recv] - xy[:, send], [])]

    @pytest.mark.parametrize("batch", range(3))
    def test_matches_the_plain_formula_bit_for_bit(self, batch):
        d, inf_at = self.batches()[batch]
        k = 2.5
        dx, dy = d
        dist = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-9)
        dist.flat[inf_at] = np.inf
        expect = [dx * (k * k / (dist * dist)), dy * (k * k / (dist * dist))]
        terms = d.copy()
        layout._pair_terms(terms, k, inf_at, np.empty_like(d))
        assert terms.tobytes() == np.array(expect).tobytes()

    def test_self_coincident_and_negative_zero_terms(self):
        (block, inf_at), _, (listed, _) = self.batches()
        terms = block.copy()
        layout._pair_terms(terms, 2.5, inf_at, np.empty_like(terms))
        # a listed self pair and the coincident pair give +0 terms
        for t in (terms[:, 2, 2], terms[:, 0, 1], terms[:, 1, 0]):
            assert t.tolist() == [0.0, 0.0] and not np.signbit(t).any()
        # -0.0 differences keep their sign; the reverse pair's is +0
        assert block[0, 2, 3] == 0.0 and np.signbit(block[0, 2, 3])
        assert np.signbit(terms[0, 2, 3]) and not np.signbit(terms[0, 3, 2])
        # listed self pairs give +0 also where k^2 / eps^2 overflows
        terms = block[:, 2:, 2:].copy()
        layout._pair_terms(terms, 1e146, np.arange(4) * 5, np.empty_like(terms))
        assert np.isfinite(terms).all()
        assert not np.diagonal(terms, axis1=1, axis2=2).any()
        assert not np.signbit(np.diagonal(terms, axis1=1, axis2=2)).any()
        terms = listed.copy()
        layout._pair_terms(terms, 2.5, [], np.empty_like(terms))
        assert np.isfinite(terms).all()
        assert terms[:, :2].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert np.signbit(terms[0, 2]) and not np.signbit(terms[0, 3])


class TestAnneal:
    def grouped_input(self, seed, num_edges):
        """Shuffled groups of sizes 1..9 over a random subset of the
        vertices, per-vertex boxes, and random weighted edges."""
        rng = np.random.default_rng(seed)
        n = 60
        perm = rng.permutation(n)
        sizes = [1, 2, 1, 9, 5, 1, 3, 7, 4]
        cuts = np.cumsum([0] + sizes)
        groups = [perm[s:e] for s, e in zip(cuts[:-1], cuts[1:])]
        lo = rng.uniform(0.0, 20.0, (n, 2))
        hi = lo + rng.uniform(10.0, 40.0, (n, 2))
        pos = lo + rng.random((n, 2)) * (hi - lo)
        a = rng.integers(0, n, num_edges)
        b = (a + rng.integers(1, n, num_edges)) % n
        edges = np.stack([a, b], axis=1).reshape(-1, 2)
        weights = rng.uniform(0.1, 1.0, num_edges)
        return dict(pos=pos, edges=edges, norm_weights=weights, iterations=20,
                    k=6.0, lo=lo, hi=hi, temp0=8.0, repulsion_groups=groups)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_edges", [0, 90])
    def test_matches_reference(self, seed, num_edges):
        kw = self.grouped_input(seed, num_edges)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))

    def test_matches_reference_in_one_frame(self, monkeypatch):
        rng = np.random.default_rng(7)
        n = 25
        pos = rng.random((n, 2)) * 100.0
        edges = np.array([(i, (i * 7 + 3) % n) for i in range(n)
                          if (i * 7 + 3) % n != i])
        kw = dict(pos=pos, edges=edges,
                  norm_weights=rng.uniform(0.1, 1.0, len(edges)),
                  iterations=20, k=20.0, lo=np.array([0.0, 0.0]),
                  hi=np.array([100.0, 100.0]), temp0=14.0,
                  repulsion_groups=[np.arange(n)])
        blocks = count_blocks(monkeypatch)
        shapes = count_terms(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        # a lone group within the bound lists its n (n - 1) pairs, no block
        assert n <= layout._PAIR_LIST_MAX
        assert blocks == [] and set(shapes) == {(2, n * (n - 1))}

    def test_matches_reference_across_the_shared_block_max(self, monkeypatch):
        # groups on both sides of the pair list's bound; a coincident pair
        # in a listed and in a lone group, so both meet zero distances
        rng = np.random.default_rng(3)
        m = layout._PAIR_LIST_MAX
        sizes = [1, 2, 9, m, m + 1, 70]
        n = sum(sizes) + 5
        perm = rng.permutation(n)
        cuts = np.cumsum([0] + sizes)
        groups = [perm[s:e] for s, e in zip(cuts[:-1], cuts[1:])]
        lo = rng.uniform(0.0, 50.0, (n, 2))
        hi = lo + rng.uniform(20.0, 60.0, (n, 2))
        pos = lo + rng.random((n, 2)) * (hi - lo)
        for idx in (groups[2], groups[5]):
            pos[idx[4]] = pos[idx[1]]
            lo[idx[4]], hi[idx[4]] = lo[idx[1]], hi[idx[1]]
        edges = np.stack([rng.integers(0, n, 150), rng.integers(0, n, 150)], 1)
        edges = edges[edges[:, 0] != edges[:, 1]]
        kw = dict(pos=pos, edges=edges,
                  norm_weights=rng.uniform(0.1, 1.0, len(edges)),
                  iterations=15, k=7.0, lo=lo, hi=hi, temp0=9.0,
                  repulsion_groups=groups)
        shapes = count_blocks(monkeypatch)
        terms = count_terms(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        # m + 1 and 70 alone on their slices; 2, 9 and m in one pair list
        assert set(shapes) == {(2, m + 1, m + 1), (2, 70, 70)}
        listed = [s for s in terms if len(s) == 2]
        assert listed and set(listed) == {(2, 2 * 1 + 9 * 8 + m * (m - 1))}

    def test_stops_at_the_first_step_that_moves_nothing(self, monkeypatch):
        # the pair is pushed into opposite corners of its box and stays there
        kw = dict(pos=np.array([[4.0, 4.5], [6.0, 5.0], [50.0, 50.0]]),
                  edges=np.zeros((0, 2), dtype=np.int64),
                  norm_weights=np.zeros(0), iterations=50, k=20.0,
                  lo=np.array([0.0, 0.0]), hi=np.array([10.0, 10.0]),
                  temp0=3.0, repulsion_groups=[np.arange(2)])
        steps = record_steps(monkeypatch)
        out = _anneal(**kw)
        assert 1 < len(steps) < kw["iterations"]
        np.testing.assert_array_equal(out, reference_anneal(**kw))
        np.testing.assert_array_equal(out[:2], [[0.0, 0.0], [10.0, 10.0]])

    def test_degenerate_boxes_stop_after_one_step(self, monkeypatch):
        kw = self.grouped_input(0, 90)
        kw["hi"] = kw["lo"]
        kw["pos"] = kw["lo"].copy()
        steps = record_steps(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        assert len(steps) == 1

    def test_runs_every_step_when_it_never_settles(self, monkeypatch):
        kw = self.grouped_input(1, 90)
        steps = record_steps(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        assert len(steps) == kw["iterations"]

    def pinned_input(self, sizes, free, seed):
        """Groups of ``sizes`` and three loose vertices, all joined by random
        edges. The first ``free`` members of each group and the loose ones
        have boxes too wide to reach in 30 steps; the rest are pinned in
        zero-width boxes."""
        rng = np.random.default_rng(seed)
        n = sum(sizes) + 3
        perm = rng.permutation(n)
        cuts = np.cumsum([0] + sizes)
        groups = [perm[s:e] for s, e in zip(cuts[:-1], cuts[1:])]
        pos = rng.uniform(0.0, 60.0, (n, 2))
        lo, hi = pos - 400.0, pos + 400.0
        for idx in groups:
            lo[idx[free:]] = hi[idx[free:]] = pos[idx[free:]]
        edges = np.stack([rng.integers(0, n, 120), rng.integers(0, n, 120)], 1)
        edges = edges[edges[:, 0] != edges[:, 1]]
        return dict(pos=pos, edges=edges,
                    norm_weights=rng.uniform(0.1, 1.0, len(edges)),
                    iterations=30, k=7.0, lo=lo, hi=hi, temp0=9.0,
                    repulsion_groups=groups)

    @pytest.mark.parametrize("sizes", [[45], [40, 25, 70], [60, 3, 7, 16]])
    def test_pinned_majority_recomputes_few_terms(self, monkeypatch, sizes):
        # one free point per group moves while the rest sit still, so after
        # the first step a lone group recomputes only that point's row and
        # column; the small groups' pair list is recomputed whole
        kw = self.pinned_input(sizes, free=1, seed=len(sizes))
        shapes = count_terms(monkeypatch)
        steps = record_steps(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        lone = [m for m in sizes if m > layout._PAIR_LIST_MAX]
        assert [s for s in shapes if len(s) == 3] == [(2, m, m) for m in lone] \
            + [(2, 1, m) for m in lone] * (len(steps) - 1)
        computed = sum(np.prod(s[1:]) for s in shapes if len(s) == 3)
        assert computed <= 0.2 * len(steps) * sum(m * m for m in lone)

    def test_every_point_moving_recomputes_each_block_once(self, monkeypatch):
        # summary mode: one group, every point moves in every step
        rng = np.random.default_rng(5)
        n = layout._PAIR_LIST_MAX + 8
        kw = dict(pos=rng.random((n, 2)) * 100.0,
                  edges=np.stack([np.arange(n), (np.arange(n) + 1) % n], 1),
                  norm_weights=rng.uniform(0.1, 1.0, n), iterations=25,
                  k=18.0, lo=np.array([-1e6, -1e6]), hi=np.array([1e6, 1e6]),
                  temp0=14.0, repulsion_groups=[np.arange(n)])
        shapes = count_terms(monkeypatch)
        steps = record_steps(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        assert len(steps) == kw["iterations"]
        assert all(mask.all() for mask in steps)
        assert shapes == [(2, n, n)] * kw["iterations"]

    def test_small_summary_runs_on_the_pair_list(self, monkeypatch):
        # a summary of 12 clusters repels through its 12 * 11 listed pairs,
        # recomputed in every step, and has no block
        sg = summary_graph(random_graph(48, rng=6),
                           Partition(np.arange(48) % 12, 12))
        blocks = count_blocks(monkeypatch)
        shapes = count_terms(monkeypatch)
        steps = record_steps(monkeypatch)
        force_directed_layout(sg, 40, Rect(0.0, 0.0, 300.0, 200.0), seed=3)
        assert blocks == []
        assert shapes == [(2, 12 * 11)] * len(steps)

    @pytest.mark.parametrize("shared", [False, True])
    def test_moving_point_leaves_its_pinned_double(self, monkeypatch, shared):
        # vertex 1 sits pinned on vertex 0's start; 0 is pulled away along
        # its edge while the other members of the group stay pinned
        rng = np.random.default_rng(11)
        size = layout._PAIR_LIST_MAX + 4 if not shared else 8
        n = size + 4
        pos = rng.uniform(0.0, 50.0, (n, 2))
        pos[1] = pos[0]
        lo, hi = pos.copy(), pos.copy()
        lo[0], hi[0] = pos[0] - 30.0, pos[0] + 30.0
        lo[size:], hi[size:] = pos[size:] - 30.0, pos[size:] + 30.0
        groups = [np.arange(size)]
        if shared:
            groups.append(np.arange(size, size + 3))
        edges = np.array([[0, n - 1], [size, n - 1]])
        kw = dict(pos=pos, edges=edges, norm_weights=np.array([1.0, 0.5]),
                  iterations=20, k=6.0, lo=lo, hi=hi, temp0=5.0,
                  repulsion_groups=groups)
        shapes = count_terms(monkeypatch)
        out = _anneal(**kw)
        np.testing.assert_array_equal(out, reference_anneal(**kw))
        assert not np.array_equal(out[0], out[1])
        # a lone group recomputes the moved point's row and column only
        assert ((2, 1, size) in shapes) == (not shared)
        # the small groups recompute their 8 * 7 + 3 * 2 listed pairs
        assert ((2, 62) in shapes) == shared

    @pytest.mark.parametrize("shared", [False, True])
    def test_group_moves_again_after_standing_still(self, monkeypatch, shared):
        # vertex 0 sits in the corner of its box, pushed there by its pinned
        # group mates; vertex 2 climbs a track, and once it is high enough
        # its edge pulls 0 out of the corner
        pos = np.array([[0.0, 0.0], [5.0, 5.0], [8.0, 3.0], [3.0, 8.0],
                        [-20.0, -20.0], [-20.0, 500.0], [30.0, 30.0]])
        lo, hi = pos.copy(), pos.copy()
        hi[0] = [10.0, 10.0]
        lo[4], hi[4] = [-20.0, -100.0], [-20.0, 600.0]
        groups = [np.arange(4)] + [np.array([4, 5])] * shared
        kw = dict(pos=pos, edges=np.array([[0, 4], [4, 5]]),
                  norm_weights=np.array([1.0, 1.0]), iterations=40, k=6.0,
                  lo=lo, hi=hi, temp0=2.0, repulsion_groups=groups)
        steps = record_steps(monkeypatch)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))
        # the group is vertices 0-3 in the anneal's order too
        still = [not mask[:4].any() for mask in steps[1:]]
        assert all(still[:5]) and not all(still)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 45), min_size=1, max_size=7),
           loose=st.integers(0, 4), num_edges=st.integers(0, 80),
           dupes=st.integers(0, 6), flat=st.floats(0.0, 1.0),
           iterations=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_on_random_mixes(self, sizes, loose, num_edges,
                                               dupes, flat, iterations, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes) + loose
        perm = rng.permutation(n)
        cuts = np.cumsum([0] + sizes)
        groups = [perm[s:e] for s, e in zip(cuts[:-1], cuts[1:])]
        lo = rng.uniform(0.0, 30.0, (n, 2))
        # a share of the boxes have no width on one axis or both
        width = rng.uniform(0.0, 40.0, (n, 2))
        width[rng.random((n, 2)) < flat] = 0.0
        hi = lo + width
        pos = lo + rng.random((n, 2)) * width
        for _ in range(dupes):
            i, j = rng.integers(0, n, 2)
            pos[j] = pos[i]
        a = rng.integers(0, n, num_edges)
        b = (a + rng.integers(1, n, num_edges)) % n if n > 1 else a
        edges = np.stack([a, b], axis=1)[a != b].reshape(-1, 2)
        kw = dict(pos=pos, edges=edges,
                  norm_weights=rng.uniform(0.1, 1.0, len(edges)),
                  iterations=iterations, k=float(rng.uniform(1.0, 20.0)),
                  lo=lo, hi=hi, temp0=float(rng.uniform(0.1, 20.0)),
                  repulsion_groups=groups)
        np.testing.assert_array_equal(_anneal(**kw), reference_anneal(**kw))

    def test_coincident_pair_gets_the_push_of_the_third(self):
        # the pair at one point repels itself with 0 * k^2/eps^2, which must
        # stay 0; a form that subtracts k^2/eps^2-sized terms loses it all
        pos = np.array([[10.0, 10.0], [10.0, 10.0], [13.0, 14.0]])
        k = 5.0
        out = _anneal(pos, np.zeros((0, 2), dtype=np.int64), np.zeros(0), 1,
                      k=k, lo=np.array([-1e6, -1e6]), hi=np.array([1e6, 1e6]),
                      temp0=1e6, repulsion_groups=[np.arange(3)])
        moved = out - pos
        assert np.isfinite(moved).all()
        np.testing.assert_array_equal(moved[0], moved[1])
        delta = pos[0] - pos[2]
        push = delta * k * k / (delta @ delta)
        np.testing.assert_allclose(moved[0], push, rtol=1e-12, atol=0.0)


class TestForceDirectedLayout:
    def summary_two(self, bridge=2.0):
        g = two_cliques(10, bridge=bridge)
        return summary_graph(g, halves_partition(20))

    def test_single_node_centered(self):
        sg = summary_graph(complete_graph(3), Partition(np.zeros(3), 1))
        scene = force_directed_layout(sg, 50, Rect(0, 0, 80, 60), seed=1)
        np.testing.assert_array_equal(scene.positions, [[40.0, 30.0]])
        assert scene.edges.shape == (0, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_two_nodes_settle_near_ideal_length(self, seed):
        frame = Rect(0.0, 0.0, 100.0, 100.0)
        scene = force_directed_layout(self.summary_two(), 500, frame, seed)
        k = np.sqrt(frame.area / 2.0)
        d = np.linalg.norm(scene.positions[0] - scene.positions[1])
        assert abs(d - k) <= 0.25 * k

    def test_deterministic(self):
        sg = summary_graph(random_graph(24, rng=0),
                           Partition(np.arange(24) % 4, 4))
        frame = Rect(0, 0, 200, 150)
        a = force_directed_layout(sg, 120, frame, seed=9)
        b = force_directed_layout(sg, 120, frame, seed=9)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_seed_changes_layout(self):
        sg = summary_graph(random_graph(24, rng=0),
                           Partition(np.arange(24) % 4, 4))
        frame = Rect(0, 0, 200, 150)
        a = force_directed_layout(sg, 120, frame, seed=9)
        b = force_directed_layout(sg, 120, frame, seed=10)
        assert not np.array_equal(a.positions, b.positions)

    def test_positions_stay_in_tight_frame(self):
        sg = summary_graph(random_graph(30, rng=1),
                           Partition(np.arange(30) % 6, 6))
        frame = Rect(10.0, 20.0, 40.0, 30.0)
        scene = force_directed_layout(sg, 200, frame, seed=4)
        assert (scene.positions[:, 0] >= 10.0).all()
        assert (scene.positions[:, 0] <= 50.0).all()
        assert (scene.positions[:, 1] >= 20.0).all()
        assert (scene.positions[:, 1] <= 50.0).all()

    def test_scale_invariance(self):
        sg = summary_graph(random_graph(24, rng=2),
                           Partition(np.arange(24) % 4, 4))
        small = force_directed_layout(sg, 60, Rect(0, 0, 100, 80), seed=3)
        big = force_directed_layout(sg, 60, Rect(0, 0, 200, 160), seed=3)
        np.testing.assert_allclose(big.positions, 2.0 * small.positions,
                                   rtol=0.0, atol=1e-9)

    def test_radius_follows_sqrt_of_size(self):
        g = random_graph(28, rng=3)
        sg = summary_graph(g, Partition(np.repeat([0, 1, 2, 3], [2, 4, 8, 14]), 4))
        frame = Rect(0, 0, 400, 300)
        scene = force_directed_layout(sg, 10, frame, seed=0)
        sizes = scene.group_sizes.astype(float)
        for i in range(4):
            for j in range(4):
                got = scene.radii[i] / scene.radii[j]
                assert got == pytest.approx(np.sqrt(sizes[i] / sizes[j]), abs=1e-9)
        assert scene.radii.max() == pytest.approx(300.0 / 8.0, abs=1e-9)

    def test_edge_width_proportional_to_weight(self):
        g = random_graph(28, rng=4)
        sg = summary_graph(g, Partition(np.arange(28) % 4, 4))
        scene = force_directed_layout(sg, 10, Rect(0, 0, 100, 100), seed=0)
        weights = sg.weights
        assert scene.edge_widths.max() == pytest.approx(6.0, abs=1e-12)
        np.testing.assert_allclose(scene.edge_widths / scene.edge_widths[0],
                                   weights / weights[0], atol=1e-9)

    def test_disconnected_summary_has_no_edges(self):
        sg = summary_graph(two_cliques(10), halves_partition(20))
        scene = force_directed_layout(sg, 30, Rect(0, 0, 100, 100), seed=0)
        assert scene.edges.shape == (0, 2)
        assert scene.edge_widths.shape == (0,)

    def test_matches_the_reference_from_its_stated_start(self):
        # nodes start uniformly in the frame; k = sqrt(area / n) and the
        # temperature starts at a tenth of the diagonal, as documented
        sg = summary_graph(random_graph(24, rng=0),
                           Partition(np.arange(24) % 5, 5))
        frame = Rect(13.7, 5.3, 640.1, 480.3)
        n = sg.num_clusters
        rng = np.random.default_rng(np.random.SeedSequence(7))
        start = (np.array([frame.x, frame.y])
                 + rng.random((n, 2)) * [frame.width, frame.height])
        expect = reference_anneal(
            start, sg.edges, sg.weights / sg.weights.max(), 300,
            k=np.sqrt(frame.area / n), lo=[frame.x, frame.y],
            hi=[frame.x1, frame.y1], temp0=frame.diagonal / 10.0,
            repulsion_groups=[np.arange(n)])
        scene = force_directed_layout(sg, 300, frame, seed=7)
        np.testing.assert_array_equal(scene.positions, expect)

    def test_huge_frame_stays_finite(self):
        # k^2 / eps^2 overflows here, so a block's self pair must be masked,
        # not computed as 0 * inf
        n = layout._PAIR_LIST_MAX + 8
        sg = summary_graph(random_graph(3 * n, rng=2),
                           Partition(np.arange(3 * n) % n, n))
        frame = Rect(0.0, 0.0, 1e146, 1e146)
        scene = force_directed_layout(sg, 30, frame, seed=0)
        assert np.isfinite(scene.positions).all()

    def test_degenerate_frame_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            force_directed_layout(self.summary_two(), 10,
                                  Rect(0, 0, 0.0, 50.0), seed=0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            force_directed_layout(self.summary_two(), 0,
                                  Rect(0, 0, 10, 10), seed=0)


class TestSomMapScene:
    def two_unit_fixture(self):
        g = two_cliques(10)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 10))
        sg = summary_graph(g, som_partition(model))
        return model, sg

    def test_adjacent_cell_centers(self):
        model, sg = self.two_unit_fixture()
        scene = som_map_scene(model, sg)
        np.testing.assert_array_equal(scene.positions,
                                      [[50.0, 50.0], [150.0, 50.0]])
        assert scene.frame == Rect(0.0, 0.0, 200.0, 100.0)
        assert scene.cell_of_item.tolist() == [0, 1]

    def test_empty_units_emit_no_glyph(self):
        g = random_graph(5, rng=5)
        model = uniform_model(SomGrid(2, 2), [0, 0, 3, 3, 3])
        sg = summary_graph(g, som_partition(model))
        scene = som_map_scene(model, sg)
        assert scene.num_items == 2
        np.testing.assert_array_equal(scene.positions,
                                      [[50.0, 50.0], [150.0, 150.0]])
        assert len(scene.cell_regions) == 4
        assert scene.cell_of_item.tolist() == [0, 3]

    def test_glyphs_keep_lattice_order(self):
        g = random_graph(12, rng=6)
        model = uniform_model(SomGrid(3, 3), np.arange(12) % 9)
        sg = summary_graph(g, som_partition(model))
        scene = som_map_scene(model, sg)
        assert scene.num_items == 9
        expect = [[(c + 0.5) * CELL_SIDE, (r + 0.5) * CELL_SIDE]
                  for r in range(3) for c in range(3)]
        np.testing.assert_array_equal(scene.positions, expect)

    def test_mismatched_summary_rejected(self):
        model, _ = self.two_unit_fixture()
        g = two_cliques(10)
        lopsided = summary_graph(g, Partition(np.repeat([0, 1], [11, 9]), 2))
        with pytest.raises(ValueError, match="match"):
            som_map_scene(model, lopsided)

    def test_sizes_and_widths(self):
        g = two_cliques(10, bridge=3.0)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 10))
        sg = summary_graph(g, som_partition(model))
        scene = som_map_scene(model, sg)
        assert scene.edges.shape == (1, 2)
        assert scene.edge_widths[0] == 6.0
        assert scene.radii[0] == scene.radii[1]


class TestConstrainedFullLayout:
    def test_two_clique_containment(self):
        g = two_cliques(10, bridge=1.5)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 10))
        scene = constrained_full_layout(g, model, 80, seed=0)
        # left clique inside cell 0 with the 5% margin, right inside cell 1
        for v in range(10):
            assert 5.0 <= scene.positions[v, 0] <= 95.0
            assert 5.0 <= scene.positions[v, 1] <= 95.0
        for v in range(10, 20):
            assert 105.0 <= scene.positions[v, 0] <= 195.0
            assert 5.0 <= scene.positions[v, 1] <= 95.0

    def test_bridge_edge_crosses_cells(self):
        g = two_cliques(10, bridge=1.5)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 10))
        scene = constrained_full_layout(g, model, 80, seed=0)
        cells_touched = {(scene.cell_of_item[a], scene.cell_of_item[b])
                        for a, b in scene.edges.tolist()}
        assert (0, 1) in cells_touched

    def test_single_unit_reduces_to_one_cell(self):
        g = complete_graph(8)
        model = uniform_model(SomGrid(1, 1), np.zeros(8, dtype=int))
        scene = constrained_full_layout(g, model, 60, seed=2)
        assert scene.frame == Rect(0.0, 0.0, CELL_SIDE, CELL_SIDE)
        assert (scene.positions >= 5.0).all()
        assert (scene.positions <= 95.0).all()

    def test_random_graph_containment(self):
        g = random_graph(60, rng=7)
        model = uniform_model(SomGrid(3, 3), np.arange(60) % 9)
        scene = constrained_full_layout(g, model, 120, seed=3)
        for v in range(60):
            cell = scene.cell_regions[scene.cell_of_item[v]]
            assert cell.contains(scene.positions[v, 0], scene.positions[v, 1])

    def test_deterministic(self):
        g = random_graph(40, rng=8)
        model = uniform_model(SomGrid(2, 2), np.arange(40) % 4)
        a = constrained_full_layout(g, model, 90, seed=11)
        b = constrained_full_layout(g, model, 90, seed=11)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_vertex_labels_and_groups(self):
        g = two_cliques(3, bridge=1.0)
        model = uniform_model(SomGrid(1, 2), np.repeat([0, 1], 3))
        scene = constrained_full_layout(g, model, 20, seed=0)
        assert scene.item_labels == g.labels
        assert scene.group_sizes.tolist() == [3, 3]
        assert scene.item_groups.tolist() == [0, 0, 0, 1, 1, 1]

    def test_matches_the_reference_from_its_stated_start(self):
        # each vertex starts uniformly in its unit's inner cell, which also
        # clips it; k and the start temperature come from the whole frame
        g = random_graph(30, rng=9)
        assignment = np.random.default_rng(1).integers(0, 5, 30)
        model = uniform_model(SomGrid(2, 3), assignment)
        frame = Rect(0.0, 0.0, 3 * CELL_SIDE, 2 * CELL_SIDE)
        inner = [Rect((u % 3) * CELL_SIDE, (u // 3) * CELL_SIDE, CELL_SIDE,
                      CELL_SIDE).shrunk(0.05) for u in assignment]
        origin = np.array([[box.x, box.y] for box in inner])
        span = np.array([[box.width, box.height] for box in inner])
        rng = np.random.default_rng(np.random.SeedSequence(4))
        start = origin + rng.random((30, 2)) * span
        i, j, w = g.edge_arrays
        expect = reference_anneal(
            start, np.stack((i, j), axis=1), w / w.max(), 200,
            k=np.sqrt(frame.area / 30), lo=origin, hi=origin + span,
            temp0=frame.diagonal / 10.0,
            repulsion_groups=[np.flatnonzero(assignment == u) for u in range(6)])
        scene = constrained_full_layout(g, model, 200, seed=4)
        np.testing.assert_array_equal(scene.positions, expect)

    def test_vertex_count_mismatch_rejected(self):
        g = two_cliques(10)
        model = uniform_model(SomGrid(1, 2), [0, 1, 1], n_vertices=3)
        with pytest.raises(ValueError, match="trained on"):
            constrained_full_layout(g, model, 10, seed=0)

    def test_bad_iterations(self):
        g = complete_graph(4)
        model = uniform_model(SomGrid(1, 1), np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="iterations"):
            constrained_full_layout(g, model, 0, seed=0)
