import hashlib
import math
import os
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcmlab.connfn import ConnectionFunction, exponential, hard_disk, make_variant
from rcmlab.moments import ModelConfig, isolation_prob
from rcmlab import simulator
from rcmlab.quadrature import Region, unit_box
from rcmlab.simulator import (
    DEFAULT_POLICY,
    LatticeRegion,
    SimPolicy,
    SimulationError,
    block_plan,
    block_reps,
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
    _field_rows,
    _offset_cov,
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
    resolve_workers,
    stationary_variance_check,
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

    def test_unknown_kind_rejected(self):
        with pytest.raises(StatsError):
            StatRequest(name="x", kind="mystery")

    def test_bootstrap_se_deterministic(self):
        sample = replicate(small_cfg(), StatRequest(name="I", kind="isolated"), 200, base_seed=8)
        assert sample.bootstrap_se_var() == sample.bootstrap_se_var()

    def test_pool_workers_never_plan(self, monkeypatch):
        # the window and reach are planned once, in the calling process: a
        # worker that asks for a tail radius raises
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
        serial = replicate_many(cfg, reqs, 60, base_seed=3, workers=1)
        for req in reqs:
            assert np.array_equal(pooled[req.name].values, serial[req.name].values)

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

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("RCMLAB_WORKERS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(0) == 3
        assert resolve_workers(5) == 5
        monkeypatch.delenv("RCMLAB_WORKERS")
        assert resolve_workers(None) == 1

    @pytest.mark.parametrize("workers,env", [(-3, None), (None, "-3"), (0, "0")])
    def test_resolve_workers_rejects_nonpositive(self, workers, env, monkeypatch):
        if env is None:
            monkeypatch.delenv("RCMLAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("RCMLAB_WORKERS", env)
        with pytest.raises(ValueError):
            resolve_workers(workers)


def _plan(cfg, min_reach, min_margin, focus):
    return block_plan(cfg.g_n, cfg.lam_n, cfg.d, cfg.K, DEFAULT_POLICY, min_reach, min_margin,
                      focus)


def _reference_rows(cfg, requests, m, base_seed):
    """The single-realization path: simulate_graph per replication (the whole
    window, no focus), the public counts and regraph; last column the number
    of points."""
    min_reach, min_margin, _ = _request_needs(cfg, requests)
    rows = []
    for rep in range(m):
        graph = simulate_graph(
            cfg.g_n, cfg.lam_n, cfg.d, cfg.K, base_seed, rep, DEFAULT_POLICY, min_reach, min_margin
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
                twin = regraph(graph, make_variant(cfg.g, "cut_then_scale", R=req.R, n=cfg.n))
                row.append(1.0 if j == count_isolated(twin, region) else 0.0)
        rows.append(row + [graph.n_points, graph.window.bias_bound + graph.edge_bias])
    return np.array(rows, dtype=float)


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
    ),
    "d2-coupling": (
        ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=8.0),
        [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=1 / 8),
            StatRequest(name="C", kind="coupling", R=1.0),
        ],
        10,  # three blocks of block_reps' 4
    ),
    "d2-hard-disk-components": (
        ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=2.0),
        [
            StatRequest(name="C1", kind="component", r=1),
            StatRequest(name="C2", kind="component", r=2),
            StatRequest(name="C3", kind="component", r=3),
        ],
        60,
    ),
    "near-empty": (
        ModelConfig(d=2, lam=0.1, K=unit_box(2), g=hard_disk(0.3), n=1.0),
        [
            StatRequest(name="I", kind="isolated"),
            StatRequest(name="L", kind="excess", r0=0.2),
            StatRequest(name="C1", kind="component", r=1),
        ],
        60,
    ),
}


class TestBlockEngine:
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_rows_equal_single_realization_path(self, case):
        cfg, requests, m = BLOCK_CASES[case]
        out = replicate_many(cfg, requests, m, base_seed=606, workers=1)
        ref = _reference_rows(cfg, requests, m, 606)
        for k, req in enumerate(requests):
            assert np.array_equal(out[req.name].values, ref[:, k]), req.name
            assert out[req.name].bias_bound == ref[:, -1].max()
        if case == "near-empty":
            assert {0.0, 1.0} <= set(ref[:, -2])

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_rows_do_not_depend_on_block_boundaries(self, data):
        cfg, requests, _ = BLOCK_CASES["d1-exponential"]
        lattice = LatticeRegion((0, 0), (4, 4))
        field_cfg = ModelConfig(d=2, lam=1.0, K=lattice.bounding_region, g=hard_disk(0.5))
        offsets = tuple(product(range(-2, 3), repeat=2))
        counters = [
            (partial(_request_rows, cfg, requests), _plan(cfg, *_request_needs(cfg, requests))),
            (partial(_field_rows, 1, offsets, lattice), _plan(field_cfg, 0.0, 0.5, None)),
        ]
        lo = data.draw(st.integers(0, 40))
        hi = lo + data.draw(st.integers(2, 30))
        cuts = sorted(data.draw(st.sets(st.integers(lo + 1, hi - 1), max_size=6)))
        bounds = [lo, *cuts, hi]
        for count, plan in counters:
            parts = [_replication_rows(count, plan, 31, a, b) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(_replication_rows(count, plan, 31, lo, hi), np.concatenate(parts))

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
        (1, 0.5, 4.0, 6, "0522f871a0eabc8dab0f552464c212cbe09ae5371e37bab2a3b4f40db20931ab"),
        (2, 0.05, 100.0, 3, "ea9fbc0c467c18a8bdcee7f49196ea139dd171322b373243467c6cc434debb90"),
        (3, 0.1, 20.0, 3, "c59361ebb9e3bff3ab6efd0f26e9d37984f4c4d04114475eb00246e495cccab0"),
    ])
    def test_graph_bits(self, d, a, lam, reps, digest):
        plan = block_plan(exponential(a), lam, d, unit_box(d))
        graph, _ = simulate_block(plan, 20240801, 0, reps)
        h = hashlib.sha256()
        for values, dtype in ((graph.edge_i, "<i8"), (graph.edge_j, "<i8"),
                              (graph.edge_dist, "<f8"), (graph.coins, "<f8")):
            h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
        assert h.hexdigest() == digest


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
        assert rows[:, :-1].any()

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


class TestOffsetCov:
    def test_iid_field(self):
        rng = np.random.default_rng(21)
        Y = rng.normal(size=(200, 200))
        mu = float(Y.mean())
        assert _offset_cov(Y, (0, 0), mu) == pytest.approx(1.0, abs=0.05)
        assert _offset_cov(Y, (1, 0), mu) == pytest.approx(0.0, abs=0.05)
        assert _offset_cov(Y, (-2, 3), mu) == pytest.approx(0.0, abs=0.05)

    def test_constant_shift_field(self):
        # perfectly correlated columns: cov at horizontal offsets stays 1
        rng = np.random.default_rng(22)
        col = rng.normal(size=(300, 1))
        Y = np.repeat(col, 10, axis=1)
        mu = float(Y.mean())
        assert _offset_cov(Y, (0, 3), mu) == pytest.approx(_offset_cov(Y, (0, 0), mu), rel=0.02)


def _reference_field_rows(cfg, r, offsets, lattice, m, base_seed):
    """The single-realization path: simulate_graph per replication and one
    component_mask per cell; second value each replication's number of points."""
    min_margin = r * cfg.g_n.support_radius
    rows, points = [], []
    for rep in range(m):
        graph = simulate_graph(
            cfg.g_n, cfg.lam_n, cfg.d, lattice.bounding_region, base_seed, rep,
            min_margin=min_margin,
        )
        Y = np.zeros(lattice.shape)
        for site in np.ndindex(*lattice.shape):
            cell = lattice.cell(tuple(o + k for o, k in zip(lattice.origin, site)))
            Y[site] = np.count_nonzero(component_mask(graph, cell, r)) / r
        mu = float(Y.mean())
        rows.append([_offset_cov(Y, z, mu) for z in offsets])
        points.append(graph.n_points)
    return np.array(rows, dtype=float), points


# ~2.4 points per replication, so about one in eleven is empty, and m spans
# four blocks of block_reps' 426
SPARSE_FIELD = (ModelConfig(d=2, lam=0.15, K=unit_box(2), g=hard_disk(0.5)), 1, 3, 1400)


@pytest.fixture(scope="module")
def sparse_reference():
    cfg, r, side, m = SPARSE_FIELD
    offsets = tuple(product(range(-2, 3), repeat=2))
    return _reference_field_rows(cfg, r, offsets, LatticeRegion((0, 0), (side, side)), m, 808)


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
        # blocks of at most 2**10 expected points, so that the sparse model's
        # m replications span more than three of them
        monkeypatch.setattr(simulator, "BLOCK_POINTS", 2**10)
        cfg, r, side, m = SPARSE_FIELD
        rows, points = sparse_reference
        lattice = LatticeRegion((0, 0), (side, side))
        assert m > 3 * block_reps(cfg.lam_n, lattice.bounding_region.expand(0.5), 0.5)
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


class TestStationaryVariance:
    def test_boxes_approach_cov_sum(self):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.4), n=1.0)
        field = covariance_field(cfg, r=1, m=250, base_seed=31, lattice_side=10)
        rows = stationary_variance_check(cfg, r=1, sides=(4, 8), m=250, base_seed=32, field=field)
        assert rows[0].boundary_fraction > rows[1].boundary_fraction
        last = rows[-1]
        assert last.gap <= 3 * math.hypot(last.var_density_se, last.cov_sum_se)


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
        from rcmlab.stats import variance_density_convergence

        cfg = ModelConfig(d=1, lam=1.0, K=Region((0.0,), (4.0,)), g=exponential(1.0), n=1.0)
        limit = limit_var_isolated(1.0, exponential(1.0), 1).value
        rows = variance_density_convergence(cfg, (2.0, 4.0, 8.0), 12000, 909, limit)
        gaps = [row.gap / limit for row in rows]
        assert all(row.density_se > 0 for row in rows)
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
            fractions.append(exceedance_fraction(sample, center, sigma, 0.25))
        assert fractions[1] < fractions[0]


class TestSmallHelpers:
    def test_exceedance_fraction(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        assert exceedance_fraction(vals, 0.0, 1.0, 1.5) == 0.5
        with pytest.raises(StatsError):
            exceedance_fraction(vals, 0.0, 0.0, 1.0)

    def test_stat_sample_guards(self):
        with pytest.raises(StatsError):
            StatSample(name="x", values=np.array([1.0]), base_seed=0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SimPolicy(eps_margin=0.0)
