import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab import simulator
from rcmlab.connfn import exponential, hard_disk
from rcmlab.quadrature import Region, unit_box
from rcmlab.simulator import (
    BLOCK_WORK,
    MAX_REPLICATION_WORK,
    SimulationError,
    SimPolicy,
    _candidate_pairs,
    _expected_pairs,
    _replication_work,
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
    pair_uniform,
    regraph,
    sample_points,
    simulate_block,
    simulate_graph,
    truncation_masks,
)
from rcmlab.streams import _seed_words


def seeded(k):
    return np.random.SeedSequence(entropy=12345, spawn_key=(k,))


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
        box = unit_box(2)
        pts = sample_points(lam, box, rng)
        return connect(pts, g, box, reach or (g.support_radius or 1.0), key)

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
        hits = 0
        trials = 10_000
        for key in range(trials):
            graph = connect(pts, g, unit_box(2), 5.0, key)
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


class TestPackedCodes:
    """The search packs each pair as (i << n.bit_length()) | j: at point
    counts around powers of two the pairs must still come out whole and in
    lexicographic order."""

    @staticmethod
    def _brute(pts, reach, rid, focus):
        i, j = np.triu_indices(pts.shape[0], k=1)
        dist = np.linalg.norm(pts[i] - pts[j], axis=1)
        keep = dist <= reach
        if rid is not None:
            keep &= rid[i] == rid[j]
        if focus is not None:
            keep &= focus[i] | focus[j]
        return i[keep], j[keep], dist[keep]

    @pytest.mark.parametrize("n", [2**6 - 1, 2**6, 2**6 + 1, 2**10 - 1, 2**10, 2**10 + 1])
    def test_pairs_around_powers_of_two(self, n):
        rng = np.random.default_rng(seeded(n))
        pts = rng.random((n, 2))
        pts[-1] = pts[0] + 0.01  # the last point pairs with the first
        reach = 0.3 if n < 100 else 0.08
        rid = np.repeat([0, 1, 2], [n // 3, n // 3, n - 2 * (n // 3)])
        focus = rng.random(n) < 0.4
        focus[-1] = True
        saved = pts.copy(), rid.copy(), focus.copy()
        for a in (pts, rid, focus):
            a.flags.writeable = False
        for r in (None, rid):
            for f in (None, focus):
                got = _candidate_pairs(pts, reach, r, f)
                expect = self._brute(pts, reach, r, f)
                assert got[0].size > 0
                if r is None:
                    assert (0, n - 1) in set(zip(got[0].tolist(), got[1].tolist()))
                _assert_same_pairs(got, expect)
        assert all(np.array_equal(a, b) for a, b in zip((pts, rid, focus), saved))

    @pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1, 2**15 + 2])
    def test_codes_past_int32(self, n):
        # codes fit int32 up to n = 2**15 + 1 and take int64 beyond.  The points
        # lie sorted on a line, so a pair within the reach is at most w
        # indices apart and the brute force scans only those offsets.
        rng = np.random.default_rng(seeded(n))
        pts = np.sort(rng.random(n) * 400.0)[:, None]
        pts[-1] = pts[-2] + 0.001  # the last point has a pair
        reach = 0.02
        x = pts[:, 0]
        w = int(np.max(np.searchsorted(x, x + 2 * reach) - np.arange(n)))
        rid = np.repeat([0, 1], [n // 2, n - n // 2])
        focus = rng.random(n) < 0.5
        focus[-1] = True
        i = np.concatenate([np.arange(n - k) for k in range(1, w + 1)])
        j = np.concatenate([np.arange(k, n) for k in range(1, w + 1)])
        order = np.lexsort((j, i))
        i, j = i[order], j[order]
        dist = np.linalg.norm(pts[i] - pts[j], axis=1)
        for r in (None, rid):
            for f in (None, focus):
                keep = dist <= reach
                if r is not None:
                    keep &= r[i] == r[j]
                if f is not None:
                    keep &= f[i] | f[j]
                got = _candidate_pairs(pts, reach, r, f)
                assert got[0].size > 1000 and got[1].max() == n - 1
                _assert_same_pairs(got, (i[keep], j[keep], dist[keep]))


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
    the focus: same order, same distance bits, so the same coins.  The
    oracle is the brute-force scan, which shares no code with the search."""

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
                _assert_same_pairs(got, TestPackedCodes._brute(pts, reach, r, focus))

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
            for f in (None, focus):
                _assert_same_pairs(_candidate_pairs(pts, reach, r, f),
                                   TestPackedCodes._brute(pts, reach, r, f))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_keeps_coins_and_lengths(self, d):
        g, lam, K = exponential(0.1 if d > 1 else 0.5), 40.0 if d > 1 else 4.0, unit_box(d)
        whole = simulate_block(block_plan(g, lam, K), 99, 3, 9)
        graph = simulate_block(block_plan(g, lam, K, focus=K), 99, 3, 9)
        i, j, dist = whole.candidates
        focus = K.contains(whole.points)
        sel = focus[i] | focus[j]
        assert 0 < np.count_nonzero(sel) < sel.size
        _assert_same_pairs(graph.candidates, (i[sel], j[sel], dist[sel]))
        assert np.array_equal(graph.coins, whole.coins[sel])
        assert np.array_equal(graph.points, whole.points)
        assert whole.focus is None and graph.focus[0] == K
        assert np.array_equal(graph.focus[1], focus)


class TestLineSearch:
    """d=1 blocks are searched by one sort and a sweep of windows: every
    focus and replication layout keeps exactly the brute-force pairs."""

    CASES = {
        "n0": ([], 1.0, []),
        "n1": ([0.3], 1.0, [0]),
        "n2": ([0.3, 0.9], 1.0, [0, 0]),
        "n2_apart": ([0.3, 2.9], 1.0, [0, 0]),
        # ties within a replication, and the same coordinates in every one
        "ties": ([0.5, 0.5, 0.5, 1.0, 0.5, 2.0, 1.5], 0.5, [0, 0, 0, 0, 0, 0, 0]),
        "ties_across": ([0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 1.0], 0.5, [0, 0, 0, 1, 1, 1, 2, 2]),
        # |3 - 0| = 3 exactly, also in the second replication
        "on_reach": ([0.0, 3.0, 7.0, 0.5, 3.5], 3.0, [0, 0, 0, 1, 1]),
        "ulp_beyond": ([0.0, 3.0, 7.0, 0.5, 3.5], float(np.nextafter(3.0, 0.0)), [0, 0, 0, 1, 1]),
        # the first replication at the far edge of the next one's first axis
        "far_edge": ([9.0, 9.0, 8.9, 0.1, 4.0, 9.0, 8.5, 0.2], 0.6, [0, 0, 0, 1, 1, 1, 1, 2]),
    }

    @staticmethod
    def _focuses(n, rng):
        yield None
        yield np.zeros(n, dtype=bool)
        yield np.ones(n, dtype=bool)
        for k in range(min(n, 3)):
            one = np.zeros(n, dtype=bool)
            one[k] = True
            yield one
        yield rng.random(n) < 0.5

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases_against_the_brute_force(self, case):
        x, reach, rid = self.CASES[case]
        pts = np.array(x, dtype=float).reshape(-1, 1)
        rid = np.array(rid, dtype=np.int64)
        rng = np.random.default_rng(seeded(70))
        for r in (None, rid if rid.size and rid[-1] > 0 else None):
            for f in self._focuses(pts.shape[0], rng):
                got = _candidate_pairs(pts, reach, r, f)
                _assert_same_pairs(got, TestPackedCodes._brute(pts, reach, r, f))

    def test_the_reach_is_inclusive(self):
        x, reach, rid = self.CASES["on_reach"]
        pts, rid = np.array(x)[:, None], np.array(rid)
        for f in (None, np.array([True, False, False, False, False]),
                  np.array([False, False, False, False, True])):
            got = _candidate_pairs(pts, reach, rid, f)
            assert 3.0 in got[2].tolist()
            assert 3.0 not in _candidate_pairs(pts, np.nextafter(reach, 0.0), rid, f)[2].tolist()

    def test_ties_pair_once(self):
        x, reach, rid = self.CASES["ties_across"]
        pts, rid = np.array(x)[:, None], np.array(rid)
        i, j, dist = _candidate_pairs(pts, reach, rid)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                                     (4, 5), (6, 7)]
        assert dist.tolist() == [0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("focused", [False, True])
    def test_d1_blocks_build_no_tree(self, monkeypatch, focused):
        def no_tree(*args, **kwargs):
            raise AssertionError("kd-tree built")

        monkeypatch.setattr("scipy.spatial.cKDTree", no_tree)  # the search imports it per call
        for d in (1, 2):
            K = unit_box(d)
            plan = block_plan(exponential(0.5), 4.0, K, focus=K if focused else None)
            if d == 1:
                graph = simulate_block(plan, 3, 0, 5)
                assert graph.candidates[0].size > 0
            else:
                with pytest.raises(AssertionError, match="kd-tree built"):
                    simulate_block(plan, 3, 0, 5)

    def test_memory_budget_of_a_c02_block(self):
        # c02's first block (d=1, lambda_n = 2, exponential(1) at n = 2,
        # r0 = 0.5, seed 20240801 + 2): 1,150 replications, 26,690 points,
        # 37,189 candidate pairs.  The whole search runs in numpy, so
        # tracemalloc sees all of it; the block peaks at ~77.8 bytes a pair,
        # and the bound is that plus 10%.
        K = unit_box(1)
        plan = block_plan(exponential(1.0).scale(2.0), 2.0, K, min_reach=0.5,
                          min_margin=0.5, focus=K)
        simulate_block(plan, 20240803, 0, plan.reps)  # fills the seed caches
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            graph = simulate_block(plan, 20240803, 0, plan.reps)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        pairs = graph.candidates[0].size
        assert (plan.reps, graph.n_points, pairs) == (1150, 26690, 37189)
        assert peak / pairs < 1.1 * 77.8


class TestFocusGuards:
    """Outside the focus a point's degree counts only its pairs with focus
    points, so every count asks that its region lie in the focus."""

    def test_masks_are_computed_once_per_block(self, monkeypatch):
        g, K = exponential(0.3 / 16), unit_box(2)
        calls = []
        contains = Region.contains
        monkeypatch.setattr(Region, "contains",
                            lambda self, pts: calls.append(self) or contains(self, pts))
        graph = simulate_block(block_plan(g, 256.0, K, min_reach=1 / 16, focus=K), 5, 0, 1)
        twin = regraph(graph, exponential(0.3).scale(16.0).truncate_inside(1.0 / 16.0))
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
        graph = simulate_block(block_plan(disk, 40.0, K, min_margin=0.3, focus=K), 5, 0, 3)
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
            component_cell_counts(graph, Region((0, 0), (1, 1)), 1)

    def test_whole_window_graphs_accept_every_region(self):
        K, big = unit_box(2), Region((-0.2, -0.2), (1.4, 1.4))
        disk = hard_disk(0.1)
        plan = block_plan(disk, 40.0, K, min_margin=0.3)
        graph = simulate_block(plan, 5, 0, 3)
        focused = simulate_block(replace(plan, focus=K.expand(0.3)), 5, 0, 3)
        for region in (K, big, Region((0.5, 0.5), (2.0, 2.0))):
            isolated_mask(graph, region)
            truncation_masks(graph, region, 0.05)
        component_mask(graph, K, 2)
        component_cell_counts(graph, Region((0, 0), (1, 1)), 2)
        # a focus that holds every pair within r supports serves components
        assert np.array_equal(component_mask(focused, K, 2), component_mask(graph, K, 2))
        assert np.array_equal(isolated_mask(focused, big), isolated_mask(graph, big))


class TestBlock:
    @pytest.mark.parametrize("lo", [0, 397, 2**32 + 3])
    def test_block_stacks_single_realizations(self, lo):
        g, lam, K = exponential(0.2), 30.0, unit_box(2)
        graph = simulate_block(block_plan(g, lam, K, min_reach=0.3), 12345, lo, lo + 4)
        rid = graph.rid
        src = rid[graph.edge_i]
        assert np.array_equal(src, rid[graph.edge_j])
        for k in range(4):
            single = simulate_graph(g, lam, K, 12345, lo + k, min_reach=0.3)
            offset = np.count_nonzero(rid < k)
            assert np.array_equal(graph.points[rid == k], single.points)
            assert np.array_equal(graph.edge_i[src == k] - offset, single.edge_i)
            assert np.array_equal(graph.edge_j[src == k] - offset, single.edge_j)
            assert np.array_equal(graph.edge_dist[src == k], single.edge_dist)
        assert graph.reach == single.reach and graph.box == single.box
        # each replication's lattice field is its single graph's
        box, disk = Region((0, 0), (2, 2)), hard_disk(0.15)
        plan = block_plan(disk, lam, box, min_margin=0.3)
        graph = simulate_block(plan, 12345, lo, lo + 4)
        fields = component_cell_counts(graph, box, 2)
        assert fields.shape == (4, 2, 2) and fields.sum() > 0
        for k in range(4):
            single = simulate_graph(disk, lam, box, 12345, lo + k, min_margin=0.3)
            one = component_cell_counts(single, box, 2)
            assert np.array_equal(fields[k], one[0])

    def test_simulate_graph_is_a_function_of_the_sequence(self):
        g, lam, K = exponential(0.2), 30.0, unit_box(2)
        first = simulate_graph(g, lam, K, 7, 3)
        again = simulate_graph(g, lam, K, 7, 3)
        assert np.array_equal(first.points, again.points)
        assert np.array_equal(first.edge_i, again.edge_i)
        # each replication of a block draws from the children of its own
        # sequence exactly as a generator built from them would
        cases = [(2, 7, 3, 4), (2, 7, 1000, 1037), (2, 7, 2**32 - 3, 2**32 + 3),
                 (1, 20240801, 5, 6), (1, 20240801, 1000, 1037), (1, 99, 2**32 - 3, 2**32 + 3)]
        for d, seed, lo, hi in cases:
            K = unit_box(d)
            graph = simulate_block(block_plan(g, lam, K), seed, lo, hi)
            rid = graph.rid
            _, keys = _seed_words(seed, lo, hi)
            i, j, _ = graph.candidates
            offsets = np.searchsorted(rid, np.arange(hi - lo))
            for k, rep in enumerate(range(lo, hi)):
                ss_points, ss_pairs = np.random.SeedSequence(seed, spawn_key=(rep,)).spawn(2)
                rng = np.random.default_rng(ss_points)
                assert np.array_equal(graph.points[rid == k],
                                      sample_points(lam, graph.box, rng))
                key = int(ss_pairs.generate_state(1, np.uint64)[0])
                assert keys[k] == key
                mine = rid[i] == k
                local_i, local_j = i[mine] - offsets[k], j[mine] - offsets[k]
                assert np.array_equal(graph.coins[mine], pair_uniform(key, local_i, local_j))

    def test_block_reps_rule(self):
        # c02's d=1 window focused on K: ~23 expected points and ~34 pairs a
        # replication, so a block holds over 400
        box, K = Region((-5.3,), (11.6,)), unit_box(1)
        work = 2.0 * 11.6 + (2.0 * 1.0) * (2.0 * 2.0 * 4.22)
        assert block_reps(2.0, box, 4.22, K) == int(BLOCK_WORK / work) >= 400
        # without a focus every pair of the window counts
        assert block_reps(2.0, box, 4.22) < block_reps(2.0, box, 4.22, K)
        # a dense d=2 plan (mc_large's model) stays within the budget
        plan = block_plan(exponential(0.3).scale(16.0), 256.0, unit_box(2), focus=unit_box(2))
        work = 256.0 * plan.box.volume + _expected_pairs(256.0, unit_box(2), plan.reach)
        assert plan.reps * work <= BLOCK_WORK < (plan.reps + 1) * work
        # a work beyond floats: one replication a block
        assert block_reps(1.0, unit_box(3), 1e200) == 1
        # sparse points on a wide window with a short reach: the span binds
        wide = Region((0.0,), (1000.0,))
        assert block_reps(1e-3, wide, 0.01) == 1
        assert block_reps(1e-3, Region((0.0,), (1.0,)), 0.01) == int((2**16 * 0.01 - 1.0) / 2.0)
        # a window far from the origin: the blocks of one at the origin
        assert block_reps(1.0, Region((1e6,), (1.0,)), 1.0) == block_reps(1.0, unit_box(1), 1.0) > 1

    def test_plan_bounds_a_replications_work(self, monkeypatch):
        # d=3, lambda = 10, exponential(5) at n = 2: ~1.8e8 points a replication
        # (~4.4 GB of coordinates); the plan refuses it and draws nothing
        g, K = exponential(5.0).scale(2.0), unit_box(3)
        with pytest.raises(SimulationError, match=r"expected work, 2\.85461e\+10 points and "
                                                  r"candidate pairs, exceeds the bound of 16777216"):
            block_plan(g, 80.0, K, focus=K)
        # the bound is inclusive, and the plan's work is what sizes its blocks
        model = (exponential(0.3).scale(16.0), 256.0, unit_box(2))  # mc_large's
        plan = block_plan(*model, focus=unit_box(2))
        work = _replication_work(plan.lam_n, plan.box, plan.reach, plan.focus)
        assert 1e4 < work < MAX_REPLICATION_WORK and plan.reps == int(BLOCK_WORK / work)
        monkeypatch.setattr(simulator, "MAX_REPLICATION_WORK", work)
        assert block_plan(*model, focus=unit_box(2)) == plan
        monkeypatch.setattr(simulator, "MAX_REPLICATION_WORK", math.nextafter(work, 0.0))
        with pytest.raises(SimulationError, match="expected work"):
            block_plan(*model, focus=unit_box(2))

    # c02, c07, c08 at n = 8 and mc_large: the mean number of candidate pairs
    # a replication stays within the estimate that sizes the blocks (c02's
    # ratio is ~0.93), so neither a block nor its memory outgrows the budget
    @pytest.mark.parametrize("g,lam_n,d,min_reach,m", [
        (exponential(1.0).scale(2.0), 2.0, 1, 0.5, 2024),
        (hard_disk(1.0).scale(8.0), 64.0, 2, 0.0, 2000),
        (exponential(0.3).scale(8.0), 64.0, 2, 0.0, 2000),
        (exponential(0.3).scale(16.0), 256.0, 2, 1 / 16, 60),
    ])
    def test_pair_estimate_bounds_the_mean(self, g, lam_n, d, min_reach, m):
        K = unit_box(d)
        plan = block_plan(g, lam_n, K, min_reach=min_reach, min_margin=min_reach, focus=K)
        pairs = sum(simulate_block(plan, 20240801, a, min(a + plan.reps, m)).candidates[0].size
                    for a in range(0, m, plan.reps))
        assert pairs / m <= _expected_pairs(lam_n, K, plan.reach)


def _coins_by_pair(graph, base_seed, lo):
    """pair_uniform(keys[rid[i]], local[i], local[j]) of every candidate pair
    of the block of replications lo.. of base_seed."""
    _, keys = _seed_words(base_seed, lo, lo + graph.reps)
    rid = graph.rid
    local = np.arange(rid.size) - np.searchsorted(rid, rid)
    i, j, _ = graph.candidates
    return pair_uniform(keys[rid[i]], local[i], local[j])


# mc_large's plan: d=2, lambda = 1, exponential(0.3) at n = 16, r0 = R / n = 1/16
MC_LARGE_PLAN = (exponential(0.3).scale(16.0), 256.0, unit_box(2))
MC_LARGE_NEEDS = {"min_reach": 1 / 16, "min_margin": 1 / 16, "focus": unit_box(2)}


class TestBlockPairPath:
    """A block hashes its coins from each point's pair key and index within
    its replication, and keeps candidates, coins and edges in arrays of
    their own."""

    def test_coins_with_trailing_empty_replications(self):
        plan = block_plan(hard_disk(0.5), 0.75, unit_box(1))  # 1.5 points a replication
        for seed in range(400):
            graph = simulate_block(plan, seed, 0, 6)
            if not np.isin([4, 5], graph.rid).any() and graph.candidates[0].size >= 3:
                break
        else:
            pytest.fail("no block with two trailing empty replications")
        assert graph.reps == 6 and graph.rid[-1] < 4
        assert np.array_equal(graph.coins, _coins_by_pair(graph, seed, 0))

    @pytest.mark.parametrize("focused", [False, True])
    def test_coins_of_a_block_with_int64_codes(self, focused):
        focus = unit_box(2) if focused else None
        plan = block_plan(hard_disk(0.004), 12000.0, unit_box(2), focus=focus)
        graph = simulate_block(plan, 7, 3, 3 + plan.reps)
        assert graph.n_points > 2**15 + 1 and graph.candidates[0].size > 10000
        assert np.array_equal(graph.coins, _coins_by_pair(graph, 7, 3))

    def test_coins_of_mc_large_blocks(self):
        plan = block_plan(*MC_LARGE_PLAN, **MC_LARGE_NEEDS)
        for lo in (0, 4):
            graph = simulate_block(plan, 20240801, lo, lo + 4)
            assert np.array_equal(graph.coins, _coins_by_pair(graph, 20240801, lo))

    def test_arrays_are_separate_and_outlive_the_next_block(self):
        plan = block_plan(*MC_LARGE_PLAN, **MC_LARGE_NEEDS)
        graph = simulate_block(plan, 20240801, 0, 4)
        twin = regraph(graph, exponential(0.3).scale(16.0).truncate_inside(1.0 / 16.0))
        edges = [graph.edge_i, graph.edge_j, graph.edge_dist]
        arrays = [*graph.candidates, graph.coins, *edges]
        assert all(a.size for a in arrays)
        for a, b in itertools.combinations(arrays + [twin.edge_i, twin.edge_j, twin.edge_dist], 2):
            assert not np.shares_memory(a, b)
        saved = [a.copy() for a in (graph.points, graph.rid, *arrays)]
        simulate_block(plan, 20240801, 4, 8)
        for a, b in zip(saved, (graph.points, graph.rid, *arrays)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_memory_budget_of_a_block(self):
        # mc_large's first block: 4 replications, 2,156 points, 28,713
        # candidate pairs.  numpy's arrays alive at once peak at ~46.7 bytes
        # a pair, and the bound is that plus 10%.  tracemalloc sees numpy's
        # allocations, not cKDTree's own.
        plan = block_plan(*MC_LARGE_PLAN, **MC_LARGE_NEEDS)
        simulate_block(plan, 20240801, 0, 4)  # fills the seed caches
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            graph = simulate_block(plan, 20240801, 0, 4)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        pairs = graph.candidates[0].size
        assert pairs == 28713
        assert peak / pairs < 1.1 * 46.7


class TestCounts:
    def test_empty_graph(self):
        K = unit_box(2)
        graph = connect(np.empty((0, 2)), hard_disk(1.0), K, 1.0, 1)
        assert count_isolated(graph, K) == 0
        assert count_truncation_family(graph, K, 0.5) == (0, 0)

    def test_single_point(self):
        K = unit_box(2)
        graph = connect(np.array([[0.5, 0.5]]), hard_disk(1.0), K, 1.0, 1)
        assert count_isolated(graph, K) == 1

    def test_family_additivity_and_monotonicity(self):
        g = exponential(0.2)
        cfg_reach = 3.0
        graph = simulate_graph(g, 40.0, unit_box(2), 12345, 6, min_reach=cfg_reach,
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
        graph = simulate_graph(exponential(0.2), 40.0, unit_box(2), 12345, 7,
                               min_reach=1.0, min_margin=1.0)
        K = unit_box(2)
        J, L = count_truncation_family(graph, K, 0.0)
        n_in_k = int(np.count_nonzero(K.contains(graph.points)))
        assert J == n_in_k
        assert L == J - count_isolated(graph, K)

    def test_r0_at_reach_kills_far_side(self):
        graph = simulate_graph(hard_disk(0.4), 40.0, unit_box(2), 12345, 8)
        K = unit_box(2)
        J, L = count_truncation_family(graph, K, 0.4)
        assert L == 0
        assert J == count_isolated(graph, K)

    def test_r0_beyond_reach_rejected(self):
        graph = simulate_graph(hard_disk(0.4), 10.0, unit_box(2), 12345, 9)
        with pytest.raises(SimulationError):
            count_truncation_family(graph, unit_box(2), 2.0)


class TestCoupling:
    @given(st.integers(0, 30))
    def test_shared_randomness_identity(self, rep):
        g = exponential(1.0)
        n, R = 2.0, 1.0
        g_n = g.scale(n)
        graph = simulate_graph(g_n, 3.0, unit_box(1), 12345, 100 + rep,
                               min_reach=R / n, min_margin=R / n)
        J, _ = count_truncation_family(graph, unit_box(1), R / n)
        twin = regraph(graph, g.scale(n).truncate_inside(R / n))
        assert J == count_isolated(twin, unit_box(1))

    def test_regraph_is_a_fresh_connect_with_the_same_key(self):
        g = exponential(0.3)
        twin_conn = g.scale(2.0).truncate_inside(1.0 / 2.0)
        box = unit_box(2).expand(0.5)
        pts = sample_points(40.0, box, np.random.default_rng(seeded(40)))
        twin = regraph(connect(pts, g, box, 1.0, 77), twin_conn)
        fresh = connect(pts, twin_conn, box, 1.0, 77)
        assert twin.edge_i.size > 0
        assert np.array_equal(twin.edge_i, fresh.edge_i)
        assert np.array_equal(twin.edge_j, fresh.edge_j)
        assert np.array_equal(twin.edge_dist, fresh.edge_dist)


class TestComponents:
    def _graph(self, lam=20.0, a=0.3, r=3, seed=20):
        g = hard_disk(a)
        return simulate_graph(g, lam, unit_box(2), 12345, seed, min_margin=r * a)

    def test_r1_matches_isolated(self):
        graph = self._graph()
        assert count_components(graph, unit_box(2), 1) == count_isolated(graph, unit_box(2))

    def test_single_edge_pair(self):
        pts = np.array([[0.4, 0.5], [0.6, 0.5], [0.2, 0.2]])
        graph = connect(pts, hard_disk(0.25), unit_box(2).expand(1.0), 0.25, 3)
        assert count_components(graph, unit_box(2), 2) == pytest.approx(1.0)

    def test_unbounded_support_rejected(self):
        graph = simulate_graph(exponential(0.3), 10.0, unit_box(2), 12345, 21,
                               min_margin=2.0)
        with pytest.raises(SimulationError):
            count_components(graph, unit_box(2), 1)

    def test_insufficient_margin_rejected(self):
        graph = simulate_graph(hard_disk(0.3), 10.0, unit_box(2), 12345, 22)
        # margin is one support radius; size-3 components need three
        with pytest.raises(SimulationError):
            count_components(graph, unit_box(2), 3)

    def test_cell_counts_sum_to_region_count(self):
        cells = Region((0, 0), (3, 3))
        g = hard_disk(0.3)
        graph = simulate_graph(g, 15.0, cells, 12345, 23, min_margin=2 * 0.3)
        Y = component_cell_counts(graph, cells, 2)
        total = count_components(graph, cells, 2)
        assert Y.shape == (1, 3, 3)
        assert Y.sum() == pytest.approx(total)


class TestLattice:
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
        cells = Region(origin, shape)
        pts = np.array(origin, dtype=float) + np.array(halves, dtype=float) / 2
        # distinct points are >= 0.5 apart, so no edges: every component has size 1
        box = cells.expand(0.25)
        graph = connect(pts, hard_disk(0.25), box, 0.25, 1)
        Y = component_cell_counts(graph, cells, 1)[0]
        expect = np.zeros(shape)
        for site in np.ndindex(*shape):
            z = tuple(o + k for o, k in zip(origin, site))
            expect[site] = np.count_nonzero(Region(z, (1.0,) * d).contains(pts))
        assert np.array_equal(Y, expect)
        assert Y.sum() == len(halves)

    def test_cells_need_integer_corners(self):
        graph = simulate_graph(hard_disk(0.3), 15.0, Region((0, 0), (3, 3)), 12345, 23,
                               min_margin=2 * 0.3)
        for box in (Region((0.5, 0), (2, 2)), Region((0, 0), (2, 2.5))):
            with pytest.raises(SimulationError, match="integer corners"):
                component_cell_counts(graph, box, 1)


class TestMarginPolicy:
    def test_bounded_support_exact(self):
        plan = block_plan(hard_disk(0.5), 10.0, unit_box(2), SimPolicy(eps_margin=1e-4))
        assert plan.box == unit_box(2).expand(0.5)
        assert plan.bias_bound == 0.0

    def test_exponential_analytic(self):
        # lam vol * omega_1 * a * e^{-t/a} = eps  (d = 1 tail)
        lam, eps, a = 2.0, 1e-4, 1.0
        plan = block_plan(exponential(a), lam, unit_box(1), SimPolicy(eps_margin=eps))
        expect = a * math.log(2 * a * lam / (0.5 * eps))  # solver aims at eps/2
        assert -plan.box.lower[0] == pytest.approx(expect, rel=1e-6)
        assert plan.box.sides[0] == pytest.approx(1.0 + 2.0 * expect, rel=1e-6)
        assert plan.bias_bound == eps + SimPolicy().eps_edges

    def test_huge_budget_no_margin(self):
        plan = block_plan(exponential(1.0), 1.0, unit_box(1), SimPolicy(eps_margin=1e6))
        assert plan.box == unit_box(1)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = simulate_graph(exponential(0.2), 30.0, unit_box(2), 12345, 30)
        b = simulate_graph(exponential(0.2), 30.0, unit_box(2), 12345, 30)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.edge_i, b.edge_i)
        assert np.array_equal(a.edge_dist, b.edge_dist)

    def test_dump_realization(self, tmp_path):
        graph = simulate_graph(hard_disk(0.3), 20.0, unit_box(2), 12345, 31)
        path = tmp_path / "real.txt"
        dump_realization(graph, str(path))
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("point ")) == graph.n_points
        assert sum(1 for ln in lines if ln.startswith("edge ")) == graph.edge_i.size
