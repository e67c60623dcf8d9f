import hashlib
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab.connfn import ConnectionFunction, exponential, hard_disk
from rcmlab.moments import ModelConfig, isolation_prob
from rcmlab import simulator, stats
from rcmlab.quadrature import Region, unit_box
from rcmlab.simulator import (
    DEFAULT_POLICY,
    SimPolicy,
    SimulationError,
    block_plan,
    block_reps,
    component_cell_counts,
    component_mask,
    count_components,
    count_isolated,
    count_truncation_family,
    regraph,
    simulate_block,
    simulate_graph,
)
from rcmlab.stats import (
    FiniteFiltrationSpace,
    StatRequest,
    StatSample,
    StatsError,
    _cell_covariances,
    _field_rows,
    _replication_rows,
    _request_needs,
    _request_rows,
    covariance_field,
    exceedance_fraction,
    ks_normality,
    martingale_identity_oracle,
    martingale_sweep,
    random_filtration_space,
    replicate,
    replicate_many,
    run_scope,
    variance_lower_bound,
)

K1 = Region((0.0,), (1.0,))


def small_cfg():
    return ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)


class TestReplicate:
    def test_identical_reruns(self):
        cfg = small_cfg()
        req = StatRequest(name="I", kind="isolated")
        a = replicate(cfg, req, 50, base_seed=10)
        b = replicate(cfg, req, 50, base_seed=10)
        assert np.array_equal(a.values, b.values)

    def test_worker_count_invariance(self):
        cfg = small_cfg()
        reqs = [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=0.5),
        ]
        serial = replicate_many(cfg, reqs, 60, base_seed=3, workers=1)
        pooled = replicate_many(cfg, reqs, 60, base_seed=3, workers=2)
        for name in ("I", "L"):
            assert np.array_equal(serial[name].values, pooled[name].values)

    def test_mean_oracle(self):
        cfg = small_cfg()
        sample = replicate(cfg, StatRequest(name="I", kind="isolated"), 4000, base_seed=5)
        expect = cfg.lam_n * cfg.K.volume * isolation_prob(cfg.lam_n, cfg.g_n, 1).value
        assert abs(sample.mean - expect) <= 3 * sample.se_mean

    def test_m_validation(self):
        with pytest.raises(StatsError):
            replicate(small_cfg(), StatRequest(name="I", kind="isolated"), 1, base_seed=0)

    def test_duplicate_names_rejected(self):
        reqs = [StatRequest(name="x", kind="isolated"), StatRequest(name="x", kind="isolated")]
        with pytest.raises(StatsError):
            replicate_many(small_cfg(), reqs, 10, base_seed=0)

    def test_no_requests_rejected(self):
        with pytest.raises(StatsError, match="no statistics"):
            replicate_many(small_cfg(), [], 10, base_seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(StatsError):
            StatRequest(name="x", kind="mystery")

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan])
    def test_coupling_without_a_positive_cut_rejected(self, R):
        with pytest.raises(StatsError, match="R > 0"):
            StatRequest(name="C", kind="coupling", R=R)

    def test_zero_workers_run_serially(self, pools):
        req = StatRequest(name="I", kind="isolated")
        zero = replicate(small_cfg(), req, 60, base_seed=3, workers=0)
        one = replicate(small_cfg(), req, 60, base_seed=3, workers=1)
        assert np.array_equal(zero.values, one.values)
        assert not pools

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            replicate(small_cfg(), StatRequest(name="I", kind="isolated"), 60, 3, workers=-1)

    @pytest.mark.parametrize("m", [2, 3, 17, 600, 100_000])
    def test_bootstrap_se_has_the_bits_of_all_resamples_at_once(self, m):
        values = np.random.default_rng(m).normal(size=m)
        sample = StatSample(values=values, base_seed=20240801)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=20240801, spawn_key=(0xB007,)))
        idx = rng.integers(0, m, size=(200, m))
        expect = float(values[idx].var(axis=1, ddof=1).std(ddof=1))
        assert sample.bootstrap_se_var() == expect

    def test_bootstrap_se_memory_is_bounded(self):
        # all 200 resamples at once would hold (200, m) indices and values
        sample = StatSample(values=np.random.default_rng(1).normal(size=100_000),
                            base_seed=5)
        tracemalloc.start()
        try:
            sample.bootstrap_se_var()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_one_pool_per_run(self, pools):
        # two pooled calls on different plans, the second in a nested scope,
        # share the run's one pool, which is shut down when the run ends
        cfg = small_cfg()
        first = [StatRequest(name="I", kind="isolated")]
        second = [StatRequest(name="L", kind="excess", r0=0.5)]
        with run_scope():
            a = replicate_many(cfg, first, 60, base_seed=3, workers=2)
            with run_scope():
                b = replicate_many(cfg, second, 60, base_seed=4, workers=2)
            assert len(pools) == 1 and pools[0].shutdowns == 0
        assert pools[0].shutdowns == 1 and multiprocessing.active_children() == []
        serial_a = replicate_many(cfg, first, 60, base_seed=3, workers=1)
        serial_b = replicate_many(cfg, second, 60, base_seed=4, workers=1)
        assert np.array_equal(a["I"].values, serial_a["I"].values)
        assert np.array_equal(b["L"].values, serial_b["L"].values)

    def test_pool_workers_never_plan(self, monkeypatch, pools):
        # the window and reach are planned once, in the calling process: a
        # worker that asks for a tail radius raises.  The call is a run of its
        # own, so its pool is forked after the patch.
        caller, tail_radius = os.getpid(), ConnectionFunction.tail_radius

        def caller_only(self, eps, d):
            if os.getpid() != caller:
                raise AssertionError("tail_radius called in a pool worker")
            return tail_radius(self, eps, d)

        monkeypatch.setattr(ConnectionFunction, "tail_radius", caller_only)
        cfg = small_cfg()
        reqs = [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=0.5),
            StatRequest(name="C", kind="coupling", R=1.0),
        ]
        pooled = replicate_many(cfg, reqs, 60, base_seed=3, workers=2)
        assert len(pools) == 1 and pools[0].shutdowns == 1
        serial = replicate_many(cfg, reqs, 60, base_seed=3, workers=1)
        for req in reqs:
            assert np.array_equal(pooled[req.name].values, serial[req.name].values)

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    def test_the_pool_holds_at_most_one_process_per_cpu(self, cpus, monkeypatch):
        # a stand-in pool that records its size and maps in this process, so
        # that a worker count far above the CPUs starts no process; the chunks
        # still follow the worker count, one replication each here
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(stats, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(stats, "cpu_count", lambda: cpus)
        req = StatRequest(name="I", kind="isolated")
        pooled = replicate(small_cfg(), req, 400, base_seed=3, workers=5000)
        assert sizes == [cpus or 1]
        serial = replicate(small_cfg(), req, 400, base_seed=3, workers=1)
        assert np.array_equal(pooled.values, serial.values)

    def test_setup_runs_once_per_input(self, monkeypatch):
        # window margin and search reach are fixed by the input, not the replication
        calls = []
        tail_radius = ConnectionFunction.tail_radius

        def counted(self, eps, d):
            calls.append(eps)
            return tail_radius(self, eps, d)

        monkeypatch.setattr(ConnectionFunction, "tail_radius", counted)
        req = StatRequest(name="L", kind="excess", r0=0.5)
        replicate_many(small_cfg(), [req], 200, base_seed=4, workers=1)
        assert 0 < len(calls) <= 2


def _plan(cfg, min_reach, min_margin, focus):
    return block_plan(cfg.g_n, cfg.lam_n, cfg.K, DEFAULT_POLICY, min_reach, min_margin, focus)


def _reference_rows(cfg, requests, m, base_seed):
    """The single-realization path: simulate_graph per replication (the whole
    window, no focus), the public counts and regraph; last column the number
    of points.  Also the run's bias bound, from its block plan."""
    min_reach, min_margin, _ = _request_needs(cfg, requests)
    plan = _plan(cfg, min_reach, min_margin, None)
    rows = []
    for rep in range(m):
        graph = simulate_graph(
            cfg.g_n, cfg.lam_n, cfg.K, base_seed, rep, DEFAULT_POLICY, min_reach, min_margin
        )
        row = []
        for req in requests:
            region = cfg.K
            if req.kind == "isolated":
                row.append(count_isolated(graph, region))
            elif req.kind == "near_isolated":
                row.append(count_truncation_family(graph, region, req.r0)[0])
            elif req.kind == "excess":
                row.append(count_truncation_family(graph, region, req.r0)[1])
            elif req.kind == "component":
                row.append(count_components(graph, region, req.r))
            else:
                j, _ = count_truncation_family(graph, region, req.R / cfg.n)
                twin = regraph(graph, cfg.g.scale(cfg.n).truncate_inside(req.R / cfg.n))
                row.append(1.0 if j == count_isolated(twin, region) else 0.0)
        rows.append(row + [graph.n_points])
    return np.array(rows, dtype=float), plan.bias_bound


BLOCK_CASES = {
    "d1-exponential": (
        small_cfg(),
        [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="J", kind="near_isolated", r0=0.5),
            StatRequest(name="L", kind="excess", r0=0.5),
            StatRequest(name="C", kind="coupling", R=1.0),
        ],
        150,
        2**12,  # blocks of 71
    ),
    "d2-coupling": (
        ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=8.0),
        [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=1 / 8),
            StatRequest(name="C", kind="coupling", R=1.0),
        ],
        10,
        2**13,  # blocks of 2
    ),
    "d2-hard-disk-components": (
        ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=2.0),
        [
            StatRequest(name="C1", kind="component", r=1),
            StatRequest(name="C2", kind="component", r=2),
            StatRequest(name="C3", kind="component", r=3),
        ],
        60,
        2**10,  # blocks of 22
    ),
    "near-empty": (
        ModelConfig(d=2, lam=0.1, K=unit_box(2), g=hard_disk(0.3), n=1.0),
        [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=0.2),
            StatRequest(name="C1", kind="component", r=1),
        ],
        60,
        2**2,  # blocks of 15
    ),
}


class TestBlockEngine:
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_rows_equal_single_realization_path(self, case, monkeypatch):
        cfg, requests, m, budget = BLOCK_CASES[case]
        # a block budget small enough that the m replications span more than
        # two blocks
        monkeypatch.setattr(simulator, "BLOCK_WORK", budget)
        assert m > 2 * _plan(cfg, *_request_needs(cfg, requests)).reps
        out = replicate_many(cfg, requests, m, base_seed=606, workers=1)
        ref, bias = _reference_rows(cfg, requests, m, 606)
        for k, req in enumerate(requests):
            assert np.array_equal(out[req.name].values, ref[:, k]), req.name
            assert out[req.name].bias_bound == bias
        if case == "near-empty":
            assert {0.0, 1.0} <= set(ref[:, -1])
            # a block whose last replication draws no points still has a row
            # for it, of zeros, from the requests and from the lattice cells;
            # the one cell (0, 1]^2 counts what the C1 column counts in K
            hi = 1 + next(k for k in range(1, m) if ref[k, -1] == 0 and ref[:k, 0].any())
            graph = simulate_block(_plan(cfg, *_request_needs(cfg, requests)), 606, 0, hi)
            assert graph.rid[-1] + 1 < graph.reps == hi
            rows = _request_rows(cfg, requests, graph)
            assert np.array_equal(rows, ref[:hi, :-1]) and not rows[-1].any()
            cells = component_cell_counts(graph, Region((0, 0), (1, 1)), 1)
            assert np.array_equal(cells.reshape(hi), ref[:hi, 2]) and not cells[-1].any()

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_rows_do_not_depend_on_block_boundaries(self, data):
        cfg, requests, *_ = BLOCK_CASES["d1-exponential"]
        cells = Region((0, 0), (4, 4))
        field_cfg = ModelConfig(d=2, lam=1.0, K=cells, g=hard_disk(0.5))
        offsets = tuple(product(range(-2, 3), repeat=2))
        counters = [
            (partial(_request_rows, cfg, requests), _plan(cfg, *_request_needs(cfg, requests))),
            (partial(_field_rows, 1, offsets, cells), _plan(field_cfg, 0.0, 0.5, None)),
        ]
        lo = data.draw(st.integers(0, 40))
        hi = lo + data.draw(st.integers(2, 30))
        cuts = sorted(data.draw(st.sets(st.integers(lo + 1, hi - 1), max_size=6)))
        bounds = [lo, *cuts, hi]
        for count, plan in counters:
            parts = [_replication_rows(count, plan, 31, a, b) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(_replication_rows(count, plan, 31, lo, hi), np.concatenate(parts))

    def test_a_far_window_keeps_the_origin_blocks(self):
        # K at 1e6: as many replications a block as at the origin, whose
        # rows are those of one-replication blocks, searched unshifted
        cfg, requests, *_ = BLOCK_CASES["d1-exponential"]
        far = replace(cfg, K=Region((1e6,), (1.0,)))
        plan = _plan(far, *_request_needs(far, requests))
        assert plan.reps == _plan(cfg, *_request_needs(cfg, requests)).reps > 1000
        count, m = partial(_request_rows, far, requests), plan.reps + 50
        rows = _replication_rows(count, plan, 606, 0, m)
        assert np.array_equal(rows, _replication_rows(count, replace(plan, reps=1), 606, 0, m))
        assert rows[:, 0].any()

    @pytest.mark.parametrize("rep", [0, 1, 399, 2**32 + 5])
    def test_direct_children_equal_spawned_ones(self, rep):
        spawned = np.random.SeedSequence(2024, spawn_key=(rep,)).spawn(2)
        for i, child in enumerate(spawned):
            direct = np.random.SeedSequence(2024, spawn_key=(rep, i))
            assert direct.spawn_key == child.spawn_key
            assert np.array_equal(direct.generate_state(4), child.generate_state(4))


def _values_sha256(out, names):
    h = hashlib.sha256()
    for name in names:
        h.update(np.ascontiguousarray(out[name].values, dtype="<f8").tobytes())
    return h.hexdigest()


class TestStreamPins:
    """The replicated values of two fixed inputs, pinned by digest: a change
    to any random stream, to the seeding or to the counts shows here."""

    def test_c02_model(self):
        cfg = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=2.0)
        out = replicate_many(cfg, [StatRequest(name="L", kind="excess", r0=0.5)], 400,
                             20240801, workers=1)
        assert _values_sha256(out, ["L"]) == (
            "d5999ffcea0076b03104e22d4857aca4136105b91f7c43aad129991be7461c53"
        )

    def test_d2_exponential_model(self):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)
        requests = [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="J", kind="near_isolated", r0=0.25),
            StatRequest(name="L", kind="excess", r0=0.25),
            StatRequest(name="C", kind="coupling", R=1.0),
        ]
        out = replicate_many(cfg, requests, 60, 7, workers=1)
        assert _values_sha256(out, ["I", "J", "L", "C"]) == (
            "29eb19a3463e5d982e19650f11a80aea782bab5f4c41eb4643768a982991b558"
        )

    # The graph bits themselves: pairs, lengths and coins of one block per
    # dimension.  The digests were recorded while the pair search still took
    # its norms as np.linalg.norm(points[i] - points[j], axis=1), so they hold
    # the column-wise norms to the same bits.
    @pytest.mark.parametrize("d, a, lam, reps, digest", [
        (1, 0.5, 4.0, 6, "34a852a5dddaa27d31bcb5fc892b5e2c84bb3803aa50751da50fa0483347e289"),
        (2, 0.05, 100.0, 3, "ea9fbc0c467c18a8bdcee7f49196ea139dd171322b373243467c6cc434debb90"),
        (3, 0.1, 20.0, 3, "c59361ebb9e3bff3ab6efd0f26e9d37984f4c4d04114475eb00246e495cccab0"),
    ])
    def test_graph_bits(self, d, a, lam, reps, digest):
        plan = block_plan(exponential(a), lam, unit_box(d))
        graph = simulate_block(plan, 20240801, 0, reps)
        h = hashlib.sha256()
        for values, dtype in ((graph.edge_i, "<i8"), (graph.edge_j, "<i8"),
                              (graph.edge_dist, "<f8"), (graph.coins, "<f8")):
            h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
        assert h.hexdigest() == digest


def _on_a_new_thread(fn, *args):
    """fn(*args) run on a thread of its own, so that no block is held there
    before it; returns its result and the thread's held block."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
            out["held"] = stats._THREAD.block
        except BaseException as exc:  # re-raised in the caller
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"], out["held"]


def _last_block(cfg, requests, m, base_seed):
    """The plan of replicate_many(cfg, requests, m, ...) and its last block, built afresh."""
    plan = _plan(cfg, *_request_needs(cfg, requests))
    return plan, simulate_block(plan, base_seed, (m - 1) // plan.reps * plan.reps, m)


def _track_blocks(monkeypatch):
    """Patch stats' simulate_block to keep a weak reference to each block it
    builds; returns those and, per build, how many earlier blocks were alive."""
    built, alive = [], []

    def tracked(*args):
        alive.append(sum(ref() is not None for ref in built))
        graph = simulate_block(*args)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(stats, "simulate_block", tracked)
    return built, alive


def _same_graph(a, b):
    return a.reps == b.reps and all(
        np.array_equal(x, y) for x, y in ((a.points, b.points), (a.rid, b.rid), (a.coins, b.coins),
                                          (a.edge_i, b.edge_i), (a.edge_dist, b.edge_dist)))


class TestHeldBlock:
    """Between blocks a thread holds its last one, across calls, unless its
    expected work is above BLOCK_WORK; what it holds moves no value."""

    def test_a_call_leaves_its_last_block_and_the_next_replaces_it(self, monkeypatch):
        monkeypatch.setattr(simulator, "BLOCK_WORK", 2**12)  # blocks of 71
        cfg, requests, *_ = BLOCK_CASES["d1-exponential"]

        def two_calls():
            replicate_many(cfg, requests, 150, 11, workers=1)
            held = stats._THREAD.block
            replicate_many(cfg, requests, 100, 12, workers=1)
            return held

        held, last = _on_a_new_thread(two_calls)
        plan, block = _last_block(cfg, requests, 150, 11)
        assert plan.reps == 71 and held.reps == 150 - 142 and _same_graph(held, block)
        _, block = _last_block(cfg, requests, 100, 12)
        assert last is not held and last.reps == 100 - 71 and _same_graph(last, block)

    def test_one_block_is_alive_while_the_next_is_built(self, monkeypatch):
        # the previous block and no other, whether it came from this call or
        # from the one before
        cfg, requests, *_ = BLOCK_CASES["d1-exponential"]
        monkeypatch.setattr(simulator, "BLOCK_WORK", 2**12)
        built, alive = _track_blocks(monkeypatch)

        def calls():
            for seed in (1, 2):
                replicate_many(cfg, requests, 150, seed, workers=1)

        _on_a_new_thread(calls)
        assert len(built) == 6 and alive == [0, 1, 1, 1, 1, 1]

    def test_a_block_above_the_budget_is_not_held(self, monkeypatch):
        cfg, requests, *_ = BLOCK_CASES["d2-coupling"]
        plan = _plan(cfg, *_request_needs(cfg, requests))
        work = simulator._replication_work(plan.lam_n, plan.box, plan.reach, plan.focus)
        built, alive = _track_blocks(monkeypatch)

        def calls():
            replicate_many(cfg, requests, 4, 3, workers=1)
            assert stats._THREAD.block is not None
            monkeypatch.setattr(simulator, "BLOCK_WORK", work / 2)
            out = replicate_many(cfg, requests, 3, 3, workers=1)
            return out, stats._THREAD.block

        (out, held), _ = _on_a_new_thread(calls)
        assert _plan(cfg, *_request_needs(cfg, requests)).reps == 1
        # the block held before the call lives until the call's first block
        # is built; each single-replication block is freed once counted
        assert held is None and alive == [0, 1, 0, 0] and all(ref() is None for ref in built)
        monkeypatch.undo()
        ref = replicate_many(cfg, requests, 3, 3, workers=1)
        assert all(np.array_equal(out[k].values, ref[k].values) for k in ref)

    def test_rows_do_not_depend_on_the_held_block(self):
        cfg, requests, *_ = BLOCK_CASES["d2-coupling"]
        d1_cfg, d1_requests, *_ = BLOCK_CASES["d1-exponential"]
        other = ModelConfig(d=2, lam=2.0, K=unit_box(2), g=hard_disk(0.2), n=1.0)
        other_requests = [StatRequest(name="I", kind="isolated")]

        def after(before):
            if before is not None:
                replicate_many(*before, 20, 5, workers=1)
            return replicate_many(cfg, requests, 10, 21, workers=1)

        fresh, _ = _on_a_new_thread(after, None)
        for before in ((d1_cfg, d1_requests), (other, other_requests)):
            out, held = _on_a_new_thread(after, before)
            assert held.box.dim == 2 and held.conn == cfg.g_n
            for req in requests:
                assert np.array_equal(out[req.name].values.view(np.uint64),
                                      fresh[req.name].values.view(np.uint64))

    def test_two_threads_at_once(self):
        # more switches than blocks: each thread returns its serial rows and
        # holds its own last block, never the other thread's
        runs = [(BLOCK_CASES["d1-exponential"][:2], 300, 41), (BLOCK_CASES["d2-coupling"][:2], 6, 42)]
        serial = [replicate_many(*model, m, seed, workers=1) for model, m, seed in runs]
        out = [None] * len(runs)

        def work(k):
            (cfg, requests), m, seed = runs[k]
            got = [replicate_many(cfg, requests, m, seed, workers=1) for _ in range(3)]
            out[k] = got, stats._THREAD.block

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(runs))]
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
        for ((cfg, requests), m, seed), want, (got, held) in zip(runs, serial, out):
            for sample in got:
                assert all(np.array_equal(sample[k].values, want[k].values) for k in want)
            assert _same_graph(held, _last_block(cfg, requests, m, seed)[1])
        assert out[0][1] is not out[1][1]


class TestSharedMasks:
    """J, L and coupling requests at one r0 share one pair of truncation
    masks per block; each request still reads the masks of its own r0.  Every
    r0 here is below the model's own margin and reach, so a request run alone
    sees the same realizations."""

    CFG = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)

    def _together_equals_alone(self, requests):
        together = replicate_many(self.CFG, requests, 12, 5, workers=1)
        for req in requests:
            alone = replicate_many(self.CFG, [req], 12, 5, workers=1)
            assert np.array_equal(together[req.name].values, alone[req.name].values), req.name
        return together

    def test_one_r0_serves_j_l_and_coupling(self):
        self._together_equals_alone([
            StatRequest(name="J", kind="near_isolated", r0=0.25),
            StatRequest(name="L", kind="excess", r0=0.25),
            StatRequest(name="C", kind="coupling", R=1.0),  # R / n = 0.25
        ])

    def test_each_r0_gets_its_own_masks(self):
        out = self._together_equals_alone([
            StatRequest(name="J1", kind="near_isolated", r0=0.1),
            StatRequest(name="L1", kind="excess", r0=0.1),
            StatRequest(name="J4", kind="near_isolated", r0=0.4),
            StatRequest(name="L4", kind="excess", r0=0.4),
            StatRequest(name="C4", kind="coupling", R=1.6),
        ])
        assert not np.array_equal(out["J1"].values, out["J4"].values)
        assert not np.array_equal(out["L1"].values, out["L4"].values)


class TestFocus:
    """A block searches only the pairs with an end in K; every column is the
    one of the whole-window block."""

    CFG = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)

    def test_needs_focus_on_k_unless_a_component_is_counted(self):
        reqs = [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="J", kind="near_isolated", r0=0.25),
            StatRequest(name="L", kind="excess", r0=0.1),
            StatRequest(name="C", kind="coupling", R=1.0),
        ]
        assert _request_needs(self.CFG, reqs) == (0.25, 0.25, unit_box(2))
        reqs.append(StatRequest(name="C1", kind="component", r=1))
        disk = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=4.0)
        assert _request_needs(disk, reqs)[2] is None

    @pytest.mark.parametrize("requests", [
        [StatRequest(name="I", kind="isolated")],
        [StatRequest(name="J", kind="near_isolated", r0=0.25)],
        [StatRequest(name="L", kind="excess", r0=0.1)],
        [StatRequest(name="C", kind="coupling", R=1.0)],
    ], ids=["I", "J", "L", "C"])
    def test_columns_equal_the_whole_window(self, requests):
        count = partial(_request_rows, self.CFG, requests)
        plan = _plan(self.CFG, *_request_needs(self.CFG, requests))
        assert plan.focus == self.CFG.K
        rows = _replication_rows(count, plan, 17, 0, 24)
        assert np.array_equal(rows, _replication_rows(count, replace(plan, focus=None), 17, 0, 24))
        assert rows.any()

    def test_component_columns_with_a_focus_around_them(self):
        # a component request makes the focus the whole window; a focus that
        # holds every pair within r supports of K gives the same column
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=4.0)
        requests = [StatRequest(name="C2", kind="component", r=2)]
        plan = _plan(cfg, *_request_needs(cfg, requests))
        assert plan.focus is None
        count = partial(_request_rows, cfg, requests)
        around = replace(plan, focus=cfg.K.expand(2 * cfg.g_n.support_radius))
        rows = _replication_rows(count, around, 17, 0, 24)
        assert np.array_equal(rows, _replication_rows(count, plan, 17, 0, 24))
        assert rows[:, 0].any()
        with pytest.raises(SimulationError, match="focus"):
            _replication_rows(count, replace(plan, focus=cfg.K), 17, 0, 24)


class TestKS:
    def test_synthetic_normal(self):
        rng = np.random.default_rng(7)
        assert ks_normality(rng.normal(size=10_000)) < 0.02

    def test_constant_sample_errors(self):
        with pytest.raises(StatsError):
            ks_normality(np.ones(200))

    def test_small_sample_errors(self):
        with pytest.raises(StatsError):
            ks_normality(np.random.default_rng(0).normal(size=50))

    def test_shifted_sample_detected(self):
        rng = np.random.default_rng(13)
        vals = rng.exponential(size=2000)  # skewed, not normal
        assert ks_normality(vals) > 0.05


def _per_replication_cov(Y: np.ndarray, z: tuple[int, ...]) -> float:
    """The offset covariance of one replication's cell array Y, as a mean of
    products over the cell pairs at offset z minus the squared mean."""
    mu = float(Y.mean())
    a_sl, b_sl = [], []
    for zk, size in zip(z, Y.shape):
        if zk >= 0:
            a_sl.append(slice(0, size - zk))
            b_sl.append(slice(zk, size))
        else:
            a_sl.append(slice(-zk, size))
            b_sl.append(slice(0, size + zk))
    a = Y[tuple(a_sl)]
    if a.size == 0:
        return 0.0
    return float((a * Y[tuple(b_sl)]).mean() - mu * mu)


class TestOffsetCov:
    def test_iid_field(self):
        rng = np.random.default_rng(21)
        Y = rng.normal(size=(200, 200))
        covs = _cell_covariances(Y[None], [(0, 0), (1, 0), (-2, 3)])[0]
        assert covs == pytest.approx([1.0, 0.0, 0.0], abs=0.05)

    def test_constant_shift_field(self):
        # perfectly correlated columns: cov at horizontal offsets stays 1
        rng = np.random.default_rng(22)
        col = rng.normal(size=(300, 1))
        Y = np.repeat(col, 10, axis=1)
        shifted, at0 = _cell_covariances(Y[None], [(0, 3), (0, 0)])[0]
        assert shifted == pytest.approx(at0, rel=0.02)

    @pytest.mark.parametrize("d,side,dep", [(2, 9, 2), (2, 12, 3), (1, 300, 3), (3, 6, 2)])
    def test_block_rows_are_the_per_replication_formula_bit_for_bit(self, d, side, dep):
        # seeded component fields of 217 replications; sides 12 (144 cells),
        # 300 and 6^3 (216) give products of more than 128 cells, which numpy
        # sums pairwise in blocks
        rng = np.random.default_rng(side + 10 * dep)
        Y = rng.poisson(0.7, size=(217,) + (side,) * d) / 2.0
        offsets = tuple(product(range(-dep, dep + 1), repeat=d))
        expect = np.array([[_per_replication_cov(y, z) for z in offsets] for y in Y])
        # no cell pair at an offset as long as a side or longer: those read 0
        far = ((side,) + (0,) * (d - 1), (0,) * (d - 1) + (-side - 3,))
        got = _cell_covariances(Y, offsets + far)
        assert got[:, : len(offsets)].tobytes() == expect.tobytes()
        assert not got[:, len(offsets):].any()


def _reference_field_rows(cfg, r, offsets, cells, m, base_seed):
    """The single-realization path: simulate_graph per replication and one
    component_mask per cell; second value each replication's number of points."""
    min_margin = r * cfg.g_n.support_radius
    rows, points = [], []
    for rep in range(m):
        graph = simulate_graph(
            cfg.g_n, cfg.lam_n, cells, base_seed, rep, min_margin=min_margin,
        )
        shape = tuple(int(s) for s in cells.sides)
        Y = np.zeros(shape)
        for site in np.ndindex(*shape):
            corner = tuple(o + k for o, k in zip(cells.lower, site))
            cell = Region(corner, (1.0,) * cells.dim)
            Y[site] = np.count_nonzero(component_mask(graph, cell, r)) / r
        rows.append([_per_replication_cov(Y, z) for z in offsets])
        points.append(graph.n_points)
    return np.array(rows, dtype=float), points


# ~2.4 points per replication, so about one in eleven is empty, and m spans
# four blocks of block_reps' 381 at a budget of 2**10
SPARSE_FIELD = (ModelConfig(d=2, lam=0.15, K=unit_box(2), g=hard_disk(0.5)), 1, 3, 1400)


@pytest.fixture(scope="module")
def sparse_reference():
    cfg, r, side, m = SPARSE_FIELD
    offsets = tuple(product(range(-2, 3), repeat=2))
    return _reference_field_rows(cfg, r, offsets, Region((0, 0), (side, side)), m, 808)


@pytest.fixture(scope="module")
def field():
    cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=1.0)
    return covariance_field(cfg, r=1, m=250, base_seed=77, lattice_side=10)


class TestCovarianceField:
    def test_zero_offset_variance_positive(self, field):
        at0 = field.offsets.index((0, 0))
        assert field.cov[at0] > 3 * field.se[at0]

    def test_far_offsets_vanish(self, field):
        for off in ((2, 2), (-2, 2), (2, -1)):
            k = field.offsets.index(off)
            assert abs(field.cov[k]) <= 3 * field.se[k] + 1e-12

    def test_offsets_reach_the_dependence_range(self, field):
        assert field.dependence_range == 2  # ceil(1 * 0.5) + 1
        assert max(max(map(abs, off)) for off in field.offsets) == 2

    def test_total_positive_for_disk(self, field):
        assert field.positive and field.total > 3 * field.total_se

    def test_pooled_field_matches_serial(self):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=1.0)
        args = dict(r=1, m=40, base_seed=9, lattice_side=8)
        serial = covariance_field(cfg, **args, workers=1)
        pooled = covariance_field(cfg, **args, workers=2)
        assert np.array_equal(serial.cov, pooled.cov)
        assert np.array_equal(serial.se, pooled.se)
        assert serial.total == pooled.total

    @pytest.mark.parametrize("workers", [1, 2])
    def test_field_equals_single_realization_path(self, workers, sparse_reference, monkeypatch):
        # blocks of at most 2**10 expected points and pairs, so that the sparse
        # model's m replications span more than three of them
        monkeypatch.setattr(simulator, "BLOCK_WORK", 2**10)
        cfg, r, side, m = SPARSE_FIELD
        rows, points = sparse_reference
        assert m > 3 * block_reps(cfg.lam_n, Region((0, 0), (side, side)).expand(0.5), 0.5)
        assert 0 in points
        field = covariance_field(cfg, r, m, 808, lattice_side=side, workers=workers)
        sums = rows.sum(axis=1)
        assert np.array_equal(field.cov, rows.mean(axis=0))
        assert np.array_equal(field.se, rows.std(axis=0, ddof=1) / math.sqrt(m))
        assert field.total == sums.mean()
        assert field.total_se == sums.std(ddof=1) / math.sqrt(m)

    def test_unbounded_support_rejected(self):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.2), n=1.0)
        with pytest.raises(StatsError):
            covariance_field(cfg, r=1, m=10, base_seed=0)

    @pytest.mark.parametrize("side", [0, -3])
    def test_a_lattice_side_below_one_rejected(self, side):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=1.0)
        with pytest.raises(StatsError, match="lattice side"):
            covariance_field(cfg, r=1, m=10, base_seed=0, lattice_side=side)

    def test_offsets_beyond_a_small_lattice_read_zero(self):
        # dependence range ceil(2 * 2) + 1 = 5 on a side of 3: offsets 3 to 5
        # have no cell pair (the per-replication loop broadcast a 1-cell slice
        # against an empty one and raised ValueError)
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(2.0), n=1.0)
        field = covariance_field(cfg, r=2, m=20, base_seed=1, lattice_side=3)
        assert field.dependence_range == 5
        far = [k for k, z in enumerate(field.offsets) if max(map(abs, z)) >= 3]
        assert far and not field.cov[far].any() and np.isfinite(field.cov).all()


class TestStationaryVariance:
    def test_boxes_approach_cov_sum(self):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.4), n=1.0)
        field = covariance_field(cfg, r=1, m=250, base_seed=31, lattice_side=10)
        # the boundary fraction of the cells falls from side 4 to side 8
        small, big = ((side * side - (side - 2) ** 2) / (side * side) for side in (4, 8))
        assert small > big
        box = Region((0, 0), (8, 8))
        sample = replicate(
            replace(cfg, K=box), StatRequest(name="comp", kind="component", r=1), 250, 32,
        )
        var_density = sample.variance / box.volume
        se = sample.bootstrap_se_var() / box.volume
        assert abs(var_density - field.total) <= 3 * math.hypot(se, field.total_se)


class TestMartingale:
    def test_single_step_chain(self):
        space = FiniteFiltrationSpace(
            probs=(0.25, 0.75),
            values=(1.0, -1.0),
            partitions=(((0, 1),), ((0,), (1,))),
        )
        report = martingale_identity_oracle(space)
        assert report.ok
        assert report.variance == pytest.approx(0.75)

    def test_constant_variable(self):
        space = FiniteFiltrationSpace(
            probs=(0.5, 0.5),
            values=(2.0, 2.0),
            partitions=(((0, 1),), ((0,), (1,))),
        )
        report = martingale_identity_oracle(space)
        assert report.variance == 0.0 and report.telescoped == pytest.approx(0.0, abs=1e-15)

    def test_hundred_random_spaces(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            assert martingale_identity_oracle(random_filtration_space(rng)).abs_diff < 1e-12

    def test_sweep_is_the_oracle_on_successive_spaces(self):
        rng = np.random.default_rng(9)
        want = [martingale_identity_oracle(random_filtration_space(rng)) for _ in range(5)]
        assert martingale_sweep(9)[:5] == want

    def test_invalid_refinement_rejected(self):
        with pytest.raises(StatsError):
            FiniteFiltrationSpace(
                probs=(0.5, 0.3, 0.2),
                values=(1.0, 2.0, 3.0),
                partitions=(
                    ((0, 1, 2),),
                    ((0, 1), (2,)),
                    ((0,), (1, 2)),  # not a refinement of the previous level
                ),
            )

    def test_probability_validation(self):
        with pytest.raises(StatsError):
            FiniteFiltrationSpace(
                probs=(0.5, 0.6), values=(0.0, 1.0), partitions=(((0, 1),), ((0,), (1,)))
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        assert martingale_identity_oracle(random_filtration_space(rng)).ok


class TestLowerBound:
    def test_certificate_and_growth(self):
        cert, rows = variance_lower_bound(
            lam=1.0, g=hard_disk(0.5), r=1, n_list=(2, 3),
            m_mu=800, m_var=150, base_seed=55,
        )
        assert cert.gamma > 0
        assert cert.M > 3 * cert.lam * cert.R / cert.mu_hat
        assert cert.mu_hat == pytest.approx(math.exp(-math.pi * 0.25), abs=4 * cert.mu_se)
        for row in rows:
            assert row.var >= row.bound

    def test_unbounded_support_rejected(self):
        with pytest.raises(StatsError):
            variance_lower_bound(
                lam=1.0, g=exponential(0.3), r=1, n_list=(2,), m_mu=100, m_var=10, base_seed=0
            )

    def test_insignificant_mean_rejected(self):
        # size-9 components of a sparse model essentially never occur
        with pytest.raises(StatsError):
            variance_lower_bound(
                lam=0.2, g=hard_disk(0.1), r=9, n_list=(2,), m_mu=50, m_var=10, base_seed=1
            )


class TestVarianceDensityConvergence:
    def test_gap_to_limit_shrinks(self):
        from rcmlab.moments import limit_var_isolated

        cfg = ModelConfig(d=1, lam=1.0, K=Region((0.0,), (4.0,)), g=exponential(1.0), n=1.0)
        limit = limit_var_isolated(1.0, exponential(1.0), 1).value
        gaps = []
        for n in (2.0, 4.0, 8.0):
            cfg_n = cfg.at_n(n)
            sample = replicate(cfg_n, StatRequest(name="count", kind="isolated"), 12000, 909)
            norm = cfg_n.lam_n * cfg_n.K.volume
            assert sample.bootstrap_se_var() / norm > 0
            gaps.append(abs(sample.variance / norm - limit) / limit)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestTruncationCollapse:
    def test_excess_deviation_fraction_falls_with_R(self):
        # at fixed large n the excess count concentrates (relative to the
        # isolated count's spread) as the truncation radius grows; the
        # integer-valued count saturates the empirical fraction at small R,
        # so assert the fall across the collapsing regime plus the
        # deterministic Chebyshev envelope Var L / (eps^2 Var I) all the way
        from rcmlab.moments import mean_excess, var_excess, var_isolated

        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=8.0)
        var_i = var_isolated(cfg).value
        sigma = math.sqrt(var_i)
        envelope = [var_excess(cfg, R).value / (0.25**2 * var_i) for R in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(envelope, envelope[1:]))

        fractions = []
        for R in (1.0, 4.0):
            sample = replicate(
                cfg, StatRequest(name="L", kind="excess", r0=R / 8.0), 3000, base_seed=61
            )
            center = mean_excess(cfg, R).value
            fractions.append(exceedance_fraction(sample.values, center, sigma, 0.25))
        assert fractions[1] < fractions[0]


class TestSmallHelpers:
    def test_exceedance_fraction(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        assert exceedance_fraction(vals, 0.0, 1.0, 1.5) == 0.5
        with pytest.raises(StatsError):
            exceedance_fraction(vals, 0.0, 0.0, 1.0)

    def test_stat_sample_guards(self):
        with pytest.raises(StatsError):
            StatSample(values=np.array([1.0]), base_seed=0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SimPolicy(eps_margin=0.0)
