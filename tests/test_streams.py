"""The replication streams: the coin hash, the seed pass, the PCG64
states and the point draws of a block, each against numpy's or a scalar
reference."""

import itertools
import math
import sys
import threading
import types

import numpy as np
import pytest

from rcmlab import simulator, streams
from rcmlab.connfn import exponential, hard_disk
from rcmlab.moments import ModelConfig
from rcmlab.quadrature import unit_box
from rcmlab.simulator import DEFAULT_POLICY, block_plan, simulate_block
from rcmlab.stats import StatRequest, _request_needs, replicate_many
from rcmlab.streams import (
    SimulationError,
    _base_pool,
    _PointSeed,
    _pcg64_states,
    _seed_words,
    pair_uniform,
    sample_points,
)
from test_simulator import seeded


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


_M64 = (1 << 64) - 1


def _splitmix_pair(key, i, j):
    """pair_uniform of one pair in Python integers, reduced mod 2**64."""
    lo, hi = min(i, j), max(i, j)
    code = ((hi * (hi - 1)) & _M64) // 2 + lo
    z = (key + (code + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


class TestPairUniformBits:
    """pair_uniform against a scalar splitmix64 in Python integers."""

    I = [0, 1, 5, 3, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 5, 3 * 2**32 + 1, 2**40 + 7,
         2**62 + 3, 12]
    J = [0, 0, 5, 9, 2, 2**31 - 2, 2**32 + 1, 2**32, 17, 2**33, 2**40 + 7, 2**62 + 1, 2**63 - 1]

    @pytest.mark.parametrize("key", [0, 1, 12345, 2**63 - 1, 2**63, 2**63 + 987, 2**64 - 1])
    def test_scalar_key(self, key):
        i, j = np.array(self.I, dtype=np.int64), np.array(self.J, dtype=np.int64)
        expect = [_splitmix_pair(key, a, b) for a, b in zip(self.I, self.J)]
        assert pair_uniform(key, i, j).tolist() == expect
        assert pair_uniform(key, j, i).tolist() == expect  # swapped ends

    def test_key_per_pair_and_int32_indices(self):
        rng = np.random.default_rng(seeded(70))
        keys = rng.integers(0, 2**64, 500, dtype=np.uint64, endpoint=False)
        i = rng.integers(0, 2**31 - 1, 500, dtype=np.int32)
        j = rng.integers(0, 2**31 - 1, 500, dtype=np.int32)
        j[:20] = i[:20]  # i == j
        expect = [_splitmix_pair(int(k), int(a), int(b)) for k, a, b in zip(keys, i, j)]
        assert pair_uniform(keys, i, j).tolist() == expect
        assert pair_uniform(keys, j.astype(np.int64), i).tolist() == expect
        assert pair_uniform(keys, i, j).dtype == np.float64

    def test_inputs_are_left_unwritten(self):
        rng = np.random.default_rng(seeded(71))
        for dtype in (np.int32, np.int64):
            i = rng.integers(0, 1000, 300).astype(dtype)
            j = rng.integers(0, 1000, 300).astype(dtype)
            keys = rng.integers(0, 2**63, 300).astype(np.uint64)
            saved = i.copy(), j.copy(), keys.copy()
            for a in (i, j, keys):
                a.flags.writeable = False
            pair_uniform(keys, i, j)
            pair_uniform(7, j, i)
            assert all(np.array_equal(a, b) for a, b in zip((i, j, keys), saved))


class TestStreams:
    # bases of 1, 2, 3, 4 and 5 words: pools filled with zeros and past four words
    BASES = [0, 1, 20240801, 2**32, 2**64 + 3, 2**96 + 5, 2**130 + 7]
    REPS = [0, 1, 2**32 - 1, 2**32, 2**32 + 5,
            *np.random.default_rng(5).integers(0, 2**40, size=12).tolist()]
    BLOCKS = [(rep, rep + 1) for rep in REPS] + [(0, 300), (2**32 - 4, 2**32 + 4),
                                                 (2**64 - 2, 2**64 + 2)]

    @pytest.mark.parametrize("base", BASES)
    def test_seed_words_match_numpy(self, base):
        for lo, hi in self.BLOCKS:
            seeds, keys = _seed_words(base, lo, hi)
            assert seeds.shape == (hi - lo, 4) and keys.shape == (hi - lo,)
            for k, rep in enumerate(range(lo, hi)):
                ss_points = np.random.SeedSequence(base, spawn_key=(rep, 0))
                ss_pairs = np.random.SeedSequence(base, spawn_key=(rep, 1))
                assert np.array_equal(seeds[k], ss_points.generate_state(4, np.uint64))
                assert keys[k] == ss_pairs.generate_state(1, np.uint64)[0]
                mine = np.random.PCG64(_PointSeed(seeds[k])).state
                assert mine == np.random.PCG64(ss_points).state

    def test_one_seed_sequence_per_block(self, monkeypatch):
        # below 2**32 numpy builds the base seed's pool once, and the spawn
        # keys of the whole block are mixed into it in one pass
        built = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        _base_pool.cache_clear()
        simulate_block(block_plan(exponential(1.0), 2.0, unit_box(1)), 77, 0, 400)
        assert len(built) == 1

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValueError):
            _seed_words(-1, 0, 2)
        with pytest.raises(ValueError):
            _seed_words(1, -1, 2)

    @pytest.mark.parametrize("base", BASES)
    def test_pcg64_states_match_numpy(self, base):
        # the words a replication writes into the generator are the state
        # numpy seeds from its seed words, below 2**32 and where _seed_words
        # leaves the block to numpy
        for lo, hi in self.BLOCKS:
            seeds, _ = _seed_words(base, lo, hi)
            states = _pcg64_states(seeds)
            assert states.shape == (hi - lo, 4) and states.dtype == np.uint64
            for k in range(hi - lo):
                assert _as_state(states[k]) == np.random.PCG64(_PointSeed(seeds[k])).state["state"]

    def test_pcg64_states_carry(self):
        # words of all zeros and all ones, and their mixes, carry through
        # every 128-bit sum and product
        top = 2**64 - 1
        edges = [list(w) for w in itertools.product([0, 1, 2**63, top], repeat=4)]
        rand = np.random.default_rng(42).integers(0, 2**64, size=(300, 4), dtype=np.uint64)
        seeds = np.concatenate([np.array(edges, dtype=np.uint64), rand])
        states = _pcg64_states(seeds)
        for w, state in zip(seeds, states):
            assert _as_state(state) == np.random.PCG64(_PointSeed(w)).state["state"]

    @pytest.mark.parametrize("rep", [0, 1, 399, 2**32 + 5])
    def test_direct_children_equal_spawned_ones(self, rep):
        spawned = np.random.SeedSequence(2024, spawn_key=(rep,)).spawn(2)
        for i, child in enumerate(spawned):
            direct = np.random.SeedSequence(2024, spawn_key=(rep, i))
            assert direct.spawn_key == child.spawn_key
            assert np.array_equal(direct.generate_state(4), child.generate_state(4))


def _as_state(words):
    """PCG64's state dict of four state words in memory order."""
    lo, hi, inc_lo, inc_hi = (int(w) for w in words)
    return {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


def _in_new_thread(fn, *args):
    """fn(*args) run in a thread of its own, whose result it returns or whose
    exception it raises."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # re-raised in the caller
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestReseededStreams:
    """Every replication of a block draws from one generator per thread,
    its PCG64 state words overwritten, and so from numpy's own stream."""

    # (connection function, lambda, K, mean points in the window): d = 1-3,
    # each with a mean below 10 (numpy's multiplication sampler) and one
    # from 10 (PTRS)
    PLANS = [
        (hard_disk(0.1), 0.8, unit_box(1), 0.96),
        (exponential(1.0), 2.0, unit_box(1), 47.16),
        (hard_disk(0.1), 3.0, unit_box(2), 4.32),
        (hard_disk(0.1), 20.0, unit_box(2), 28.8),
        (hard_disk(0.05), 4.0, unit_box(3), 5.324),
        (hard_disk(0.1), 40.0, unit_box(3), 69.12),
    ]

    @pytest.mark.parametrize("g,lam,K,mu", PLANS)
    def test_block_draws_numpy_streams(self, g, lam, K, mu):
        plan = block_plan(g, lam, K)
        assert lam * plan.box.volume == pytest.approx(mu, rel=1e-3)
        for base, lo, hi in [(7, 0, 60), (20240801, 2**32 - 3, 2**32 + 3)]:
            graph = simulate_block(plan, base, lo, hi)
            for k, rep in enumerate(range(lo, hi)):
                seq = np.random.SeedSequence(base, spawn_key=(rep, 0))
                rng = np.random.Generator(np.random.PCG64(seq))
                assert np.array_equal(graph.points[graph.rid == k],
                                      sample_points(lam, plan.box, rng))

    def test_a_replication_without_points(self):
        plan = block_plan(hard_disk(0.1), 0.8, unit_box(1))  # mu = 0.96
        graph = simulate_block(plan, 11, 0, 40)
        empty = np.flatnonzero(np.bincount(graph.rid, minlength=40) == 0)
        assert empty.size and empty[0] < 39
        # the replication after an empty one starts from its own state
        for rep in (empty[0], empty[0] + 1):
            seq = np.random.SeedSequence(11, spawn_key=(int(rep), 0))
            want = sample_points(0.8, plan.box, np.random.default_rng(seq))
            assert np.array_equal(graph.points[graph.rid == rep], want)

    def test_two_blocks_in_a_row_carry_no_state(self):
        d1 = block_plan(exponential(1.0), 2.0, unit_box(1))
        d3 = block_plan(hard_disk(0.1), 40.0, unit_box(3))
        runs = [(d1, 5, 0, 50), (d3, 9, 100, 103), (d1, 5, 0, 50), (d1, 5, 25, 50)]
        points = [simulate_block(*run).points for run in runs]
        # the same block again, and each block as a thread's first
        assert np.array_equal(points[0], points[2])
        for run, got in zip(runs, points):
            assert np.array_equal(_in_new_thread(lambda r: simulate_block(*r).points, run), got)
        # a block's tail is that tail drawn alone
        rid = simulate_block(d1, 5, 0, 50).rid
        assert np.array_equal(points[0][rid >= 25], points[3])

    def test_a_block_builds_at_most_one_pcg64(self, monkeypatch):
        built = []

        class Counted(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", Counted)
        plan = block_plan(exponential(1.0), 2.0, unit_box(1))
        graph = _in_new_thread(simulate_block, plan, 77, 0, 400)  # the thread's first block
        assert graph.reps == 400 and len(built) == 1
        _in_new_thread(lambda: [simulate_block(plan, 77, a, a + 400) for a in (0, 400)])
        assert len(built) == 2  # one a thread
        simulate_block(plan, 77, 0, 400)
        assert len(built) <= 3

    def test_each_thread_has_its_own_generator(self):
        mine = streams._point_generator(np.zeros(4, dtype=np.uint64))
        theirs = [_in_new_thread(streams._point_generator, np.zeros(4, dtype=np.uint64))
                  for _ in range(2)]
        gens = [mine[0], *(t[0] for t in theirs)]
        assert len({id(g) for g in gens}) == 3
        assert len({id(g.bit_generator) for g in gens}) == 3
        assert streams._point_generator(np.ones(4, dtype=np.uint64)) is mine

    def test_threads_draw_side_by_side(self):
        # more threads than cores, switching every 10 us: a generator shared
        # between threads would interleave their states and move the points
        plan = block_plan(exponential(1.0), 2.0, unit_box(1))
        blocks = [(plan, seed, 0, 300) for seed in range(6)]
        serial = [simulate_block(*b).points for b in blocks]
        out = [[] for _ in blocks]

        def work(k):
            for _ in range(3):
                out[k].append(simulate_block(*blocks[k]).points)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(blocks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(out, serial):
            assert len(got) == 3 and all(np.array_equal(g, want) for g in got)

    # a guard that fails raises on the thread's first block and returns no stream
    @pytest.mark.parametrize("corrupt", ["word_order", "multiplier", "pointer"])
    def test_a_failed_guard_raises(self, monkeypatch, corrupt):
        if corrupt == "word_order":
            states = streams._pcg64_states
            monkeypatch.setattr(streams, "_pcg64_states", lambda s: states(s)[:, [1, 0, 3, 2]])
            match = "state words differ"
        elif corrupt == "multiplier":
            monkeypatch.setattr(streams, "_MULT_LO", streams._MULT_LO ^ np.uint64(2))
            match = "state words differ"
        else:
            monkeypatch.setattr(streams, "sys", types.SimpleNamespace(getsizeof=lambda obj: 0))
            match = "outside the object"
        plan = block_plan(exponential(1.0), 2.0, unit_box(1))
        for _ in range(2):  # nothing is kept from a failed guard
            with pytest.raises(SimulationError, match=match):
                _in_new_thread(simulate_block, plan, 77, 0, 400)


class _IntoViews:
    """A thread's point generator whose ``random`` draws only into a view
    handed to it, and keeps the buffer behind each view."""

    def __init__(self, rng):
        self.poisson, self._random, self.buffers = rng.poisson, rng.random, []

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None or out.base is None:
            raise AssertionError("coordinates drawn into an array of their own")
        self.buffers.append(out.base)
        return self._random(dtype=dtype, out=out)


def _drawn_into_views(blocks):
    """(graph, number of distinct buffers drawn into) of each (plan, base,
    lo, hi) of blocks, simulated in a new thread whose generator is an
    ``_IntoViews``."""
    def run():
        rng, words = streams._point_generator(np.zeros(4, dtype=np.uint64))
        into = _IntoViews(rng)
        streams._THREAD.points = (into, words)
        out = []
        for block in blocks:
            into.buffers = []
            graph = simulate_block(*block)
            out.append((graph, len({id(b) for b in into.buffers})))
        return out

    return _in_new_thread(run)


def _assert_numpy_streams(graph, lam, base, lo):
    """Each replication of the block from lo holds the points that
    ``sample_points`` draws from its own numpy generator."""
    for k in range(graph.reps):
        seq = np.random.SeedSequence(base, spawn_key=(lo + k, 0))
        want = sample_points(lam, graph.box, np.random.default_rng(seq))
        assert np.array_equal(graph.points[graph.rid == k], want)


class TestBlockBuffer:
    """A block draws the coordinates of all its replications into one
    buffer, which starts at the block's expected length and doubles when a
    draw overflows it; every replication still reads numpy's own stream."""

    # mean points in the window near 0.5 in d = 1-3: blocks of 3 overflow
    # their expected length, often twice, and hold replications without points
    PLANS = [
        (hard_disk(0.1), 0.4, unit_box(1)),
        (hard_disk(0.1), 0.35, unit_box(2)),
        (hard_disk(0.05), 0.4, unit_box(3)),
    ]

    @pytest.mark.parametrize("g,lam,K,mu", TestReseededStreams.PLANS)
    def test_coordinates_are_drawn_into_views_of_the_block(self, g, lam, K, mu):
        plan = block_plan(g, lam, K)
        blocks = [(plan, 7, 0, 60), (plan, 20240801, 2**32 - 3, 2**32 + 3)]
        for block, (graph, buffers) in zip(blocks, _drawn_into_views(blocks)):
            assert 1 <= buffers <= 3  # a few grown buffers, not one a replication
            assert np.array_equal(graph.points, simulate_block(*block).points)

    @pytest.mark.parametrize("g,lam,K", PLANS)
    def test_a_buffer_grown_more_than_once(self, g, lam, K):
        plan = block_plan(g, lam, K)
        blocks = [(plan, base, 0, 3) for base in range(100)]
        grown = [(block, graph) for block, (graph, buffers) in zip(blocks, _drawn_into_views(blocks))
                 if buffers >= 3]
        assert grown
        for (_, base, lo, _), graph in grown:
            _assert_numpy_streams(graph, lam, base, lo)

    @pytest.mark.parametrize("g,lam,K", PLANS)
    def test_one_replication_blocks(self, g, lam, K):
        plan = block_plan(g, lam, K)
        blocks = [(plan, base, rep, rep + 1) for base in range(20) for rep in (0, 5, 2**32 + 1)]
        graphs = [graph for graph, _ in _drawn_into_views(blocks)]
        for (_, base, lo, _), graph in zip(blocks, graphs):
            assert graph.reps == 1
            _assert_numpy_streams(graph, lam, base, lo)
        # among them blocks without points and blocks that outgrew their
        # expected length, so drew into a grown buffer
        sizes = [graph.n_points for graph in graphs]
        assert min(sizes) == 0 and max(sizes) > math.ceil(lam * plan.box.volume)

    @pytest.mark.parametrize("g,lam,K", PLANS)
    def test_replications_without_points_first_and_last(self, g, lam, K):
        plan = block_plan(g, lam, K)
        seen = {"ends": 0, "all": 0}
        for base in range(40):
            graph = simulate_block(plan, base, 0, 3)
            sizes = np.bincount(graph.rid, minlength=3)
            if sizes[0] or sizes[-1]:
                continue
            seen["ends" if sizes.any() else "all"] += 1
            assert graph.points.shape == (sizes.sum(), K.dim)
            _assert_numpy_streams(graph, lam, base, 0)
        assert seen["ends"] and seen["all"]

    def test_an_empty_block_raises_before_drawing(self, monkeypatch):
        plan = block_plan(exponential(1.0), 2.0, unit_box(1))

        def drawn(*args):
            raise AssertionError("an empty block drew seed words")

        monkeypatch.setattr(streams, "_seed_words", drawn)
        for lo, hi in [(5, 5), (5, 4), (0, 0)]:
            with pytest.raises(SimulationError, match=f"lo = {lo} and hi = {hi}"):
                simulate_block(plan, 7, lo, hi)


def _count_seed_passes(monkeypatch):
    """Wrap the seed pass to record the (lo, hi) of each of its calls."""
    calls, seed_words = [], streams._seed_words

    def counted(base_seed, lo, hi):
        calls.append((lo, hi))
        return seed_words(base_seed, lo, hi)

    monkeypatch.setattr(streams, "_seed_words", counted)
    return calls


class TestSeedPassPerBlock:
    """A block's pair keys come from the seed pass that draws its points, so
    the pass runs once a block and the coins hash no key again."""

    def test_one_pass_per_simulate_block(self, monkeypatch):
        calls = _count_seed_passes(monkeypatch)
        plan = block_plan(exponential(1.0), 2.0, unit_box(1), focus=unit_box(1))
        simulate_block(plan, 7, 3, 403)
        assert calls == [(3, 403)]

    def test_one_pass_per_block_of_a_serial_run(self, monkeypatch):
        cfg = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=2.0)
        requests = [StatRequest(name="L", kind="excess", r0=0.5)]
        monkeypatch.setattr(simulator, "BLOCK_WORK", 2**12)
        reps = block_plan(cfg.g_n, cfg.lam_n, cfg.K, DEFAULT_POLICY,
                          *_request_needs(cfg, requests)).reps
        m = 300
        calls = _count_seed_passes(monkeypatch)
        replicate_many(cfg, requests, m, 20240801, workers=1)
        assert calls == [(a, min(a + reps, m)) for a in range(0, m, reps)]
        assert len(calls) >= 3
