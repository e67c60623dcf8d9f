import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab.connfn import exponential, hard_disk, make_variant
from rcmlab.quadrature import Region, unit_box
from rcmlab.simulator import (
    BLOCK_POINTS,
    LatticeRegion,
    SimulationError,
    SimWindow,
    _candidate_pairs,
    _PointSeed,
    _seed_words,
    block_plan,
    block_reps,
    component_cell_counts,
    component_mask,
    connect,
    count_components,
    count_isolated,
    count_truncation_family,
    dump_realization,
    isolated_mask,
    margin_policy,
    pair_uniform,
    regraph,
    sample_points,
    simulate_block,
    simulate_graph,
    truncation_masks,
)


def seeded(k):
    return np.random.SeedSequence(entropy=12345, spawn_key=(k,))


class TestPairUniform:
    def test_range_and_determinism(self):
        i = np.arange(0, 1000, dtype=np.int64)
        j = i + 7
        u1 = pair_uniform(99, i, j)
        u2 = pair_uniform(99, i, j)
        assert np.array_equal(u1, u2)
        assert np.all((u1 >= 0.0) & (u1 < 1.0))

    def test_unordered(self):
        i = np.array([3, 10], dtype=np.int64)
        j = np.array([8, 2], dtype=np.int64)
        assert np.array_equal(pair_uniform(5, i, j), pair_uniform(5, j, i))

    def test_key_sensitivity(self):
        i = np.arange(100, dtype=np.int64)
        j = i + 1
        assert not np.array_equal(pair_uniform(1, i, j), pair_uniform(2, i, j))

    def test_uniformity(self):
        n = 200_000
        i = np.zeros(n, dtype=np.int64)
        j = np.arange(1, n + 1, dtype=np.int64)
        u = np.sort(pair_uniform(7, i, j))
        ks = np.max(np.abs(u - np.arange(1, n + 1) / n))
        assert ks < 0.005


class TestSamplePoints:
    def test_fixed_seed_reproduces(self):
        box = unit_box(2)
        rng1 = np.random.default_rng(seeded(0))
        rng2 = np.random.default_rng(seeded(0))
        assert np.array_equal(sample_points(50.0, box, rng1), sample_points(50.0, box, rng2))

    def test_poisson_count(self):
        box = unit_box(2)
        rng = np.random.default_rng(seeded(1))
        counts = [sample_points(200.0, box, rng).shape[0] for _ in range(3000)]
        assert abs(np.mean(counts) - 200.0) < 3 * math.sqrt(200.0 / 3000)

    def test_near_zero_intensity(self):
        rng = np.random.default_rng(seeded(2))
        assert sample_points(1e-9, unit_box(2), rng).shape == (0, 2)

    def test_points_inside_box(self):
        box = Region((-1.0, 2.0), (3.0, 0.5))
        rng = np.random.default_rng(seeded(3))
        pts = sample_points(100.0, box, rng)
        assert np.all(pts >= np.array(box.lower)) and np.all(pts <= np.array(box.upper))


class TestConnect:
    def _graph(self, g, lam=30.0, key=11, reach=None, k=4):
        rng = np.random.default_rng(seeded(k))
        window = SimWindow(K=unit_box(2), margin=0.0)
        pts = sample_points(lam, window.box, rng)
        return connect(pts, g, window, reach or (g.support_radius or 1.0), key)

    def test_bernoulli_one_edges_are_geometric_graph(self):
        g = hard_disk(0.3)
        graph = self._graph(g)
        pts = graph.points
        n = pts.shape[0]
        expect = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if np.linalg.norm(pts[i] - pts[j]) <= 0.3
        }
        got = set(zip(graph.edge_i.tolist(), graph.edge_j.tolist()))
        assert got == expect

    def test_zero_function_gives_empty_graph(self):
        g = hard_disk(0.3).truncate_inside(0.0)
        graph = self._graph(g, reach=0.3)
        assert graph.edge_i.size == 0

    def test_two_point_edge_frequency(self):
        g = exponential(1.0)
        x = 0.8
        pts = np.array([[0.0, 0.0], [x, 0.0]])
        window = SimWindow(K=unit_box(2), margin=0.0)
        hits = 0
        trials = 10_000
        for key in range(trials):
            graph = connect(pts, g, window, 5.0, key)
            hits += graph.edge_i.size
        p = g.eval(x)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * se

    def test_candidate_paths_agree(self):
        # the kd-tree search keeps exactly the pairs and norms of a brute-force
        # scan, alone and as the last replication of a block that follows a
        # replication whose points sit at the far edge of the first axis
        rng = np.random.default_rng(seeded(5))
        cases = [
            (rng.random((2100, 2)) * 3.0, 0.11),
            # d=1 sample model of c02: ~23 points on a window of length ~11.6,
            # reach ~4.2 covering most pairs
            (rng.random((25, 1)) * 11.6 - 5.3, 4.22),
            # d=2 at n=16: ~535 points in a window of side ~1.45
            (rng.random((530, 2)) * 1.45 - 0.22, 0.08),
            (rng.random((530, 2)) * 1.45 - 0.22, 0.243),
            (rng.random((300, 3)), 0.2),
            # d=3 coordinates from 1e-3 to 1e3, so each squared norm sums
            # terms of very different sizes
            (10.0 ** rng.uniform(-3.0, 3.0, (300, 3)), 2.0),
            (10.0 ** rng.uniform(-3.0, 3.0, (300, 3)), 400.0),
            # |(1, 2, 2)| = 3 and |(0.75, 1)| = 1.25 exactly: dropped one ulp
            # beyond the reach, kept on it
            (np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]]), np.nextafter(3.0, 0.0)),
            (np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]]), 3.0),
            (np.array([[0.0, 0.0], [0.75, 1.0]]), np.nextafter(1.25, 0.0)),
            (np.array([[0.0, 0.0], [0.75, 1.0]]), 1.25),
        ]
        for pts, reach in cases:
            i_tree, j_tree, d_tree = _candidate_pairs(pts, reach)
            i, j = np.triu_indices(pts.shape[0], k=1)
            dist = np.linalg.norm(pts[i] - pts[j], axis=1)
            keep = dist <= reach
            assert np.array_equal(i_tree, i[keep])
            assert np.array_equal(j_tree, j[keep])
            assert np.array_equal(d_tree, dist[keep])

            edge = pts[:64].copy()
            edge[:, 0] = pts[:, 0].max()
            n0 = edge.shape[0]
            rid = np.repeat([0, 1], [n0, pts.shape[0]])
            i_blk, j_blk, d_blk = _candidate_pairs(np.concatenate([edge, pts]), reach, rid)
            i_edge, j_edge, d_edge = _candidate_pairs(edge, reach)
            assert np.array_equal(i_blk, np.concatenate([i_edge, i_tree + n0]))
            assert np.array_equal(j_blk, np.concatenate([j_edge, j_tree + n0]))
            assert np.array_equal(d_blk, np.concatenate([d_edge, d_tree]))
        assert d_tree.tolist() == [1.25]
        assert d_blk.tolist() == [1.0, 1.25]
        on_reach = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
        assert _candidate_pairs(on_reach, 3.0)[2].tolist() == [3.0]

    def test_block_too_wide_for_exact_search_rejected(self):
        pts = np.array([[0.0], [1e6]])
        with pytest.raises(SimulationError):
            _candidate_pairs(pts, 1.0, np.array([0, 1]))


def _touching(pts, reach, focus, rid=None):
    """The whole search's pairs with an end in focus."""
    i, j, dist = _candidate_pairs(pts, reach, rid)
    sel = focus[i] | focus[j]
    return i[sel], j[sel], dist[sel]


def _assert_same_pairs(got, expect):
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFocusedSearch:
    """The focused search returns exactly the whole search's pairs that touch
    the focus: same order, same distance bits, so the same coins."""

    @pytest.mark.parametrize("d, reach", [(1, 4.22), (2, 0.08), (3, 0.2)])
    def test_random_points_and_masks(self, d, reach):
        rng = np.random.default_rng(seeded(60 + d))
        pts = rng.random((400, d)) * 1.45 - 0.22
        K = unit_box(d)
        rid = np.repeat([0, 1, 2], [150, 130, 120])
        for focus in (K.contains(pts), rng.random(400) < 0.1, rng.random(400) < 0.9):
            for r in (None, rid):
                got = _candidate_pairs(pts, reach, r, focus)
                assert got[0].size > 0
                _assert_same_pairs(got, _touching(pts, reach, focus, r))

    @pytest.mark.parametrize("ends", [(True, False), (False, True), (True, True)])
    def test_pair_on_the_reach_and_one_ulp_beyond(self, ends):
        # |(1, 2, 2)| = 3 exactly: kept on the reach, dropped an ulp inside it,
        # whichever end is in focus
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
        focus = np.array([*ends, False])
        assert _candidate_pairs(pts, 3.0, focus=focus)[2].tolist() == [3.0]
        assert _candidate_pairs(pts, np.nextafter(3.0, 0.0), focus=focus)[0].size == 0
        assert _candidate_pairs(pts, 3.0, focus=np.zeros(3, dtype=bool))[0].size == 0

    def test_points_on_the_half_open_faces(self):
        # K = (0, 1]^2: a point on a lower face is outside, on an upper face
        # inside; a pair of two lower-face points is not searched
        K = unit_box(2)
        pts = np.array([[0.0, 0.5], [0.0, 0.6], [1.0, 0.5], [1.0, 1.0], [0.5, 0.0],
                        [0.5, 0.05], [1.05, 1.0]])
        focus = K.contains(pts)
        assert focus.tolist() == [False, False, True, True, False, True, False]
        got = _candidate_pairs(pts, 0.12, focus=focus)
        _assert_same_pairs(got, _touching(pts, 0.12, focus))
        assert list(zip(got[0].tolist(), got[1].tolist())) == [(3, 6), (4, 5)]

    def test_empty_one_point_and_full_focus(self):
        rng = np.random.default_rng(seeded(64))
        pts = rng.random((300, 2))
        whole = _candidate_pairs(pts, 0.1)
        none = _candidate_pairs(pts, 0.1, focus=np.zeros(300, dtype=bool))
        assert all(a.size == 0 for a in none)
        one = np.zeros(300, dtype=bool)
        one[17] = True
        got = _candidate_pairs(pts, 0.1, focus=one)
        assert got[0].size > 0 and np.all((got[0] == 17) | (got[1] == 17))
        _assert_same_pairs(got, _touching(pts, 0.1, one))
        _assert_same_pairs(_candidate_pairs(pts, 0.1, focus=np.ones(300, dtype=bool)), whole)

    @given(st.integers(1, 3), st.integers(0, 120), st.floats(0.01, 0.6),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_property(self, d, n, reach, share, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        focus = rng.random(n) < share
        rid = np.sort(rng.integers(0, 3, n))
        rid -= rid[0] if n else 0
        for r in (None, rid):
            _assert_same_pairs(_candidate_pairs(pts, reach, r, focus),
                               _touching(pts, reach, focus, r))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_keeps_coins_and_lengths(self, d):
        g, lam, K = exponential(0.1 if d > 1 else 0.5), 40.0 if d > 1 else 4.0, unit_box(d)
        whole, rid = simulate_block(block_plan(g, lam, d, K), 99, 3, 9)
        graph, _ = simulate_block(block_plan(g, lam, d, K, focus=K), 99, 3, 9)
        i, j, dist = whole.candidates
        focus = K.contains(whole.points)
        sel = focus[i] | focus[j]
        assert 0 < np.count_nonzero(sel) < sel.size
        _assert_same_pairs(graph.candidates, (i[sel], j[sel], dist[sel]))
        assert np.array_equal(graph.coins, whole.coins[sel])
        assert np.array_equal(graph.points, whole.points)
        assert whole.focus is None and graph.focus[0] == K
        assert np.array_equal(graph.focus[1], focus)


class TestFocusGuards:
    """Outside the focus a point's degree counts only its pairs with focus
    points, so every count asks that its region lie in the focus."""

    def test_masks_are_computed_once_per_block(self, monkeypatch):
        g, K = exponential(0.3 / 16), unit_box(2)
        calls = []
        contains = Region.contains
        monkeypatch.setattr(Region, "contains",
                            lambda self, pts: calls.append(self) or contains(self, pts))
        graph, _ = simulate_block(block_plan(g, 256.0, 2, K, min_reach=1 / 16, focus=K), 5, 0, 1)
        twin = regraph(graph, make_variant(exponential(0.3), "cut_then_scale", R=1.0, n=16.0))
        assert twin.focus is graph.focus
        assert calls == [K]
        masks = [isolated_mask(graph, K), *truncation_masks(graph, K, 1 / 16),
                 isolated_mask(twin, K)]
        assert calls == [K] and all(m.shape == (graph.n_points,) for m in masks)
        inner = Region((0.25, 0.25), (0.5, 0.5))  # a region inside the focus
        assert np.array_equal(isolated_mask(graph, inner),
                              inner.contains(graph.points) & (graph.degrees() == 0))

    def test_regions_outside_the_focus_raise(self):
        K, big = unit_box(2), Region((-0.1, 0.0), (1.1, 1.0))
        disk = hard_disk(0.1)
        graph, rid = simulate_block(block_plan(disk, 40.0, 2, K, min_margin=0.3, focus=K), 5, 0, 3)
        with pytest.raises(SimulationError, match="focus"):
            isolated_mask(graph, big)
        with pytest.raises(SimulationError, match="focus"):
            truncation_masks(graph, big, 0.05)
        with pytest.raises(SimulationError, match="focus"):
            count_isolated(regraph(graph, hard_disk(0.05)), big)
        # a component touching K reaches beyond it
        with pytest.raises(SimulationError, match="focus"):
            component_mask(graph, K, 1)
        with pytest.raises(SimulationError, match="focus"):
            component_cell_counts(graph, LatticeRegion((0, 0), (1, 1)), 1, rid, 3)

    def test_whole_window_graphs_accept_every_region(self):
        K, big = unit_box(2), Region((-0.2, -0.2), (1.4, 1.4))
        disk = hard_disk(0.1)
        plan = block_plan(disk, 40.0, 2, K, min_margin=0.3)
        graph, rid = simulate_block(plan, 5, 0, 3)
        focused, _ = simulate_block(replace(plan, focus=K.expand(0.3)), 5, 0, 3)
        for region in (K, big, Region((0.5, 0.5), (2.0, 2.0))):
            isolated_mask(graph, region)
            truncation_masks(graph, region, 0.05)
        component_mask(graph, K, 2)
        component_cell_counts(graph, LatticeRegion((0, 0), (1, 1)), 2, rid, 3)
        # a focus that holds every pair within r supports serves components
        assert np.array_equal(component_mask(focused, K, 2), component_mask(graph, K, 2))
        assert np.array_equal(isolated_mask(focused, big), isolated_mask(graph, big))


class TestBlock:
    @pytest.mark.parametrize("lo", [0, 397, 2**32 + 3])
    def test_block_stacks_single_realizations(self, lo):
        g, lam, K = exponential(0.2), 30.0, unit_box(2)
        graph, rid = simulate_block(block_plan(g, lam, 2, K, min_reach=0.3), 12345, lo, lo + 4)
        src = rid[graph.edge_i]
        assert np.array_equal(src, rid[graph.edge_j])
        for k in range(4):
            single = simulate_graph(g, lam, 2, K, 12345, lo + k, min_reach=0.3)
            offset = np.count_nonzero(rid < k)
            assert np.array_equal(graph.points[rid == k], single.points)
            assert np.array_equal(graph.edge_i[src == k] - offset, single.edge_i)
            assert np.array_equal(graph.edge_j[src == k] - offset, single.edge_j)
            assert np.array_equal(graph.edge_dist[src == k], single.edge_dist)
        assert graph.reach == single.reach and graph.window == single.window
        # each replication's lattice field is its single graph's
        lattice, disk = LatticeRegion((0, 0), (2, 2)), hard_disk(0.15)
        box = lattice.bounding_region
        plan = block_plan(disk, lam, 2, box, min_margin=0.3)
        graph, rid = simulate_block(plan, 12345, lo, lo + 4)
        fields = component_cell_counts(graph, lattice, 2, rid, 4)
        assert fields.shape == (4, 2, 2) and fields.sum() > 0
        for k in range(4):
            single = simulate_graph(disk, lam, 2, box, 12345, lo + k, min_margin=0.3)
            rid_one = np.zeros(single.n_points, dtype=np.int64)
            one = component_cell_counts(single, lattice, 2, rid_one, 1)
            assert np.array_equal(fields[k], one[0])

    def test_simulate_graph_is_a_function_of_the_sequence(self):
        g, lam, K = exponential(0.2), 30.0, unit_box(2)
        first = simulate_graph(g, lam, 2, K, 7, 3)
        again = simulate_graph(g, lam, 2, K, 7, 3)
        assert np.array_equal(first.points, again.points)
        assert np.array_equal(first.edge_i, again.edge_i)
        # each replication of a block draws from the children of its own
        # sequence exactly as a generator built from them would
        cases = [(2, 7, 3, 4), (2, 7, 1000, 1037), (2, 7, 2**32 - 3, 2**32 + 3),
                 (1, 20240801, 5, 6), (1, 20240801, 1000, 1037), (1, 99, 2**32 - 3, 2**32 + 3)]
        for d, seed, lo, hi in cases:
            K = unit_box(d)
            graph, rid = simulate_block(block_plan(g, lam, d, K), seed, lo, hi)
            _, keys = _seed_words(seed, lo, hi)
            i, j, _ = graph.candidates
            offsets = np.searchsorted(rid, np.arange(hi - lo))
            for k, rep in enumerate(range(lo, hi)):
                ss_points, ss_pairs = np.random.SeedSequence(seed, spawn_key=(rep,)).spawn(2)
                rng = np.random.default_rng(ss_points)
                assert np.array_equal(graph.points[rid == k],
                                      sample_points(lam, graph.window.box, rng))
                key = int(ss_pairs.generate_state(1, np.uint64)[0])
                assert keys[k] == key
                mine = rid[i] == k
                local_i, local_j = i[mine] - offsets[k], j[mine] - offsets[k]
                assert np.array_equal(graph.coins[mine], pair_uniform(key, local_i, local_j))

    def test_block_reps_rule(self):
        # c02's d=1 window: ~23 expected points a replication
        box = Region((-5.3,), (11.6,))
        assert block_reps(2.0, box, 4.22) == int(BLOCK_POINTS / (2.0 * 11.6))
        # sparse points on a wide window with a short reach: the span binds
        wide = Region((0.0,), (1000.0,))
        assert block_reps(1e-3, wide, 0.01) == 1
        assert block_reps(1e-3, Region((0.0,), (1.0,)), 0.01) == int((2**16 * 0.01 - 1.0) / 2.0)
        # a window far from the origin: one replication, searched unshifted
        assert block_reps(1.0, Region((1e6,), (1.0,)), 1.0) == 1


class TestStreams:
    BASES = [0, 1, 20240801, 2**32, 2**130 + 7]
    REPS = [0, 1, 2**32 - 1, 2**32, 2**32 + 5,
            *np.random.default_rng(5).integers(0, 2**40, size=12).tolist()]

    @pytest.mark.parametrize("base", BASES)
    def test_seed_words_match_numpy(self, base):
        blocks = [(rep, rep + 1) for rep in self.REPS]
        blocks += [(0, 300), (2**32 - 4, 2**32 + 4), (2**64 - 2, 2**64 + 2)]
        for lo, hi in blocks:
            seeds, keys = _seed_words(base, lo, hi)
            assert seeds.shape == (hi - lo, 4) and keys.shape == (hi - lo,)
            for k, rep in enumerate(range(lo, hi)):
                ss_points = np.random.SeedSequence(base, spawn_key=(rep, 0))
                ss_pairs = np.random.SeedSequence(base, spawn_key=(rep, 1))
                assert np.array_equal(seeds[k], ss_points.generate_state(4, np.uint64))
                assert keys[k] == ss_pairs.generate_state(1, np.uint64)[0]
                mine = np.random.PCG64(_PointSeed(seeds[k])).state
                assert mine == np.random.PCG64(ss_points).state

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError):
            _seed_words(-1, 0, 2)
        with pytest.raises(ValueError):
            _seed_words(1, -1, 2)


class TestCounts:
    def test_empty_graph(self):
        window = SimWindow(K=unit_box(2), margin=0.0)
        graph = connect(np.empty((0, 2)), hard_disk(1.0), window, 1.0, 1)
        assert count_isolated(graph, window.K) == 0
        assert count_truncation_family(graph, window.K, 0.5) == (0, 0)

    def test_single_point(self):
        window = SimWindow(K=unit_box(2), margin=0.0)
        graph = connect(np.array([[0.5, 0.5]]), hard_disk(1.0), window, 1.0, 1)
        assert count_isolated(graph, window.K) == 1

    def test_family_additivity_and_monotonicity(self):
        g = exponential(0.2)
        cfg_reach = 3.0
        graph = simulate_graph(g, 40.0, 2, unit_box(2), 12345, 6, min_reach=cfg_reach,
                               min_margin=cfg_reach)
        K = unit_box(2)
        I = count_isolated(graph, K)
        prev_j = None
        for r0 in (0.0, 0.2, 0.5, 1.0, 2.0, 3.0):
            J, L = count_truncation_family(graph, K, r0)
            assert J == I + L if r0 >= cfg_reach else True
            assert J - L == I  # J = I + L exactly on every realization
            if prev_j is not None:
                assert J <= prev_j  # larger exclusion radius: harder to qualify
            prev_j = J

    def test_r0_zero_counts_everyone(self):
        graph = simulate_graph(exponential(0.2), 40.0, 2, unit_box(2), 12345, 7,
                               min_reach=1.0, min_margin=1.0)
        K = unit_box(2)
        J, L = count_truncation_family(graph, K, 0.0)
        n_in_k = int(np.count_nonzero(K.contains(graph.points)))
        assert J == n_in_k
        assert L == J - count_isolated(graph, K)

    def test_r0_at_reach_kills_far_side(self):
        graph = simulate_graph(hard_disk(0.4), 40.0, 2, unit_box(2), 12345, 8)
        K = unit_box(2)
        J, L = count_truncation_family(graph, K, 0.4)
        assert L == 0
        assert J == count_isolated(graph, K)

    def test_r0_beyond_reach_rejected(self):
        graph = simulate_graph(hard_disk(0.4), 10.0, 2, unit_box(2), 12345, 9)
        with pytest.raises(SimulationError):
            count_truncation_family(graph, unit_box(2), 2.0)


class TestCoupling:
    @given(st.integers(0, 30))
    def test_shared_randomness_identity(self, rep):
        g = exponential(1.0)
        n, R = 2.0, 1.0
        g_n = make_variant(g, "scaled", n=n)
        graph = simulate_graph(g_n, 3.0, 1, unit_box(1), 12345, 100 + rep,
                               min_reach=R / n, min_margin=R / n)
        J, _ = count_truncation_family(graph, unit_box(1), R / n)
        twin = regraph(graph, make_variant(g, "cut_then_scale", R=R, n=n))
        assert J == count_isolated(twin, unit_box(1))

    def test_regraph_is_a_fresh_connect_with_the_same_key(self):
        g = exponential(0.3)
        twin_conn = make_variant(g, "cut_then_scale", R=1.0, n=2.0)
        window = SimWindow(K=unit_box(2), margin=0.5)
        pts = sample_points(40.0, window.box, np.random.default_rng(seeded(40)))
        twin = regraph(connect(pts, g, window, 1.0, 77), twin_conn)
        fresh = connect(pts, twin_conn, window, 1.0, 77)
        assert twin.edge_i.size > 0
        assert np.array_equal(twin.edge_i, fresh.edge_i)
        assert np.array_equal(twin.edge_j, fresh.edge_j)
        assert np.array_equal(twin.edge_dist, fresh.edge_dist)


class TestComponents:
    def _graph(self, lam=20.0, a=0.3, r=3, seed=20):
        g = hard_disk(a)
        return simulate_graph(g, lam, 2, unit_box(2), 12345, seed, min_margin=r * a)

    def test_r1_matches_isolated(self):
        graph = self._graph()
        assert count_components(graph, unit_box(2), 1) == count_isolated(graph, unit_box(2))

    def test_single_edge_pair(self):
        window = SimWindow(K=unit_box(2), margin=1.0)
        pts = np.array([[0.4, 0.5], [0.6, 0.5], [0.2, 0.2]])
        graph = connect(pts, hard_disk(0.25), window, 0.25, 3)
        assert count_components(graph, unit_box(2), 2) == pytest.approx(1.0)

    def test_unbounded_support_rejected(self):
        graph = simulate_graph(exponential(0.3), 10.0, 2, unit_box(2), 12345, 21,
                               min_margin=2.0)
        with pytest.raises(SimulationError):
            count_components(graph, unit_box(2), 1)

    def test_insufficient_margin_rejected(self):
        graph = simulate_graph(hard_disk(0.3), 10.0, 2, unit_box(2), 12345, 22)
        # margin is one support radius; size-3 components need three
        with pytest.raises(SimulationError):
            count_components(graph, unit_box(2), 3)

    def test_cell_counts_sum_to_region_count(self):
        lattice = LatticeRegion((0, 0), (3, 3))
        g = hard_disk(0.3)
        graph = simulate_graph(g, 15.0, 2, lattice.bounding_region, 12345, 23,
                               min_margin=2 * 0.3)
        Y = component_cell_counts(graph, lattice, 2, np.zeros(graph.n_points, dtype=np.int64), 1)
        total = count_components(graph, lattice.bounding_region, 2)
        assert Y.shape == (1, 3, 3)
        assert Y.sum() == pytest.approx(total)


class TestLattice:
    def test_sizes(self):
        lat = LatticeRegion((0, 0), (4, 4))
        assert lat.size == 16
        assert lat.boundary_size == 16 - 4
        assert lat.boundary_size <= lat.size
        assert LatticeRegion((0,), (1,)).boundary_size == 1

    def test_cell_region(self):
        cell = LatticeRegion((2, 3), (4, 4)).cell((2, 3))
        assert cell.lower == (2.0, 3.0)
        assert cell.sides == (1.0, 1.0)

    @given(st.data())
    def test_cells_are_half_open_at_exact_boundaries(self, data):
        # points on integer and half-integer coordinates: x in (z, z + 1]
        # lands in cell z, the one whose Region.contains holds
        d = data.draw(st.integers(1, 3))
        origin = data.draw(st.tuples(*[st.integers(-3, 3)] * d))
        shape = data.draw(st.tuples(*[st.integers(1, 3)] * d))
        halves = data.draw(
            st.lists(
                st.tuples(*[st.integers(1, 2 * s) for s in shape]),
                min_size=1, max_size=10, unique=True,
            )
        )
        lattice = LatticeRegion(origin, shape)
        pts = np.array(origin, dtype=float) + np.array(halves, dtype=float) / 2
        # distinct points are >= 0.5 apart, so no edges: every component has size 1
        window = SimWindow(K=lattice.bounding_region, margin=0.25)
        graph = connect(pts, hard_disk(0.25), window, 0.25, 1)
        Y = component_cell_counts(graph, lattice, 1, np.zeros(len(halves), dtype=np.int64), 1)[0]
        expect = np.zeros(shape)
        for site in np.ndindex(*shape):
            z = tuple(o + k for o, k in zip(origin, site))
            expect[site] = np.count_nonzero(lattice.cell(z).contains(pts))
        assert np.array_equal(Y, expect)
        assert Y.sum() == len(halves)


class TestMarginPolicy:
    def test_bounded_support_exact(self):
        win = margin_policy(hard_disk(0.5), 2, 10.0, unit_box(2), 1e-4)
        assert win.margin == 0.5
        assert win.bias_bound == 0.0

    def test_exponential_analytic(self):
        # lam vol * omega_1 * a * e^{-t/a} = eps  (d = 1 tail)
        lam, eps, a = 2.0, 1e-4, 1.0
        win = margin_policy(exponential(a), 1, lam, unit_box(1), eps)
        expect = a * math.log(2 * a * lam / (0.5 * eps))  # solver aims at eps/2
        assert win.margin == pytest.approx(expect, rel=1e-6)

    def test_huge_budget_no_margin(self):
        win = margin_policy(exponential(1.0), 1, 1.0, unit_box(1), 1e6)
        assert win.margin == 0.0


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = simulate_graph(exponential(0.2), 30.0, 2, unit_box(2), 12345, 30)
        b = simulate_graph(exponential(0.2), 30.0, 2, unit_box(2), 12345, 30)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.edge_dist, b.edge_dist)

    def test_dump_realization(self, tmp_path):
        graph = simulate_graph(hard_disk(0.3), 20.0, 2, unit_box(2), 12345, 31)
        path = tmp_path / "real.txt"
        dump_realization(graph, str(path))
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("point ")) == graph.n_points
        assert sum(1 for ln in lines if ln.startswith("edge ")) == graph.edge_i.size
