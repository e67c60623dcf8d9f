"""Replication engine and statistical verification suite.

Replications are independent: replication k draws from the streams that the
simulator module describes, children (k, 0) for points and (k, 1) for coins,
so results are identical for any worker count and any grouping of
consecutive replications into the blocks that are simulated and counted
together, and aggregation is a pure indexed fold.  Everything downstream (KS
distances, covariance fields, variance growth, the martingale oracle)
consumes the replicated values and is deterministic given (config, seed).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from os import cpu_count
from typing import Sequence

import numpy as np

from . import simulator
from .connfn import ConnectionFunction
from .moments import ModelConfig
from .quadrature import Region
from .simulator import (
    DEFAULT_POLICY,
    SimPolicy,
    block_plan,
    component_cell_counts,
    component_mask,
    isolated_mask,
    regraph,
    simulate_block,
    simulate_graph,  # noqa: F401  rcmbench's tracer checks it is wrapped here too
    truncation_masks,
)


class StatsError(RuntimeError):
    """Invalid statistical request or degenerate sample."""


@dataclass(frozen=True)
class StatRequest:
    """One per-replication scalar: which count to take from the realization.

    Every count is taken over the vertices in the model's K.  kinds:
    "isolated" (degree-0 vertices), "near_isolated" (no neighbor within r0),
    "excess" (no neighbor within r0 but some beyond), "component" (1/r times
    vertices in size-r components), and "coupling" (1.0 iff the
    near-isolated count at r0 = R/n equals the isolated count of the
    shared-randomness graph rebuilt under g cut at R then scaled by n,
    g.scale(n).truncate_inside(R / n); needs R > 0).
    """

    name: str
    kind: str
    r0: float = 0.0
    R: float = 0.0
    r: int = 1

    def __post_init__(self):
        if self.kind not in ("isolated", "near_isolated", "excess", "component", "coupling"):
            raise StatsError(f"unknown statistic kind {self.kind!r}")
        if self.kind == "coupling" and not self.R > 0:
            raise StatsError(f"a coupling needs R > 0, got R = {self.R!r}")


_BOOT_CHUNK = 1 << 16  # bootstrap indices drawn at a time


@dataclass
class StatSample:
    """Replicated values of one statistic with seed provenance."""

    values: np.ndarray
    base_seed: int
    bias_bound: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size < 2:
            raise StatsError("need at least two replications")

    @property
    def m(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def variance(self) -> float:
        return float(self.values.var(ddof=1))

    @property
    def se_mean(self) -> float:
        return math.sqrt(self.variance / self.m)

    def bootstrap_se_var(self) -> float:
        """Bootstrap standard error of the sample variance (200 seeded resamples).

        The resamples are drawn from one generator in chunks of whole rows,
        at most _BOOT_CHUNK indices each (one row when m is larger), so the
        memory stays bounded.  The generator keeps its 32-bit buffer between
        draws and a row's variance reads only that row, so the result has the
        bits of drawing all 200 rows at once.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.base_seed, spawn_key=(0xB007,))
        )
        rows = max(1, _BOOT_CHUNK // self.m)
        boots = np.empty(200)
        for a in range(0, 200, rows):
            b = min(a + rows, 200)
            idx = rng.integers(0, self.m, size=(b - a, self.m))
            boots[a:b] = self.values[idx].var(axis=1, ddof=1)
        return float(boots.std(ddof=1))


def _request_needs(cfg: ModelConfig, requests: Sequence[StatRequest]):
    """Reach/margin floors implied by the requested statistics, and the focus:
    K, or None (the whole window) when a component request is present.

    I, J, L and the coupling at a vertex x depend only on the pairs {x, y}
    within the reach, so a block need only search the pairs with an end in
    K.  A component reaches across the margin, and reads every pair near it.
    """
    min_reach = 0.0
    min_margin = 0.0
    focus = cfg.K
    for req in requests:
        if req.kind in ("near_isolated", "excess", "coupling"):
            r0 = req.R / cfg.n if req.kind == "coupling" else req.r0
            min_reach = max(min_reach, r0)
            min_margin = max(min_margin, r0)
        elif req.kind == "component":
            supp = cfg.g_n.support_radius
            if supp is None:
                raise StatsError("component statistics need bounded support")
            min_margin = max(min_margin, req.r * supp)
            focus = None
    return min_reach, min_margin, focus


def _request_rows(cfg, requests, graph):
    """Rows of a block, one per replication of the graph, those without
    points too: request values in request order.  The (J, L) masks of one r0
    are computed once and shared by every request that reads them."""

    def per_rep(mask):
        return np.bincount(graph.rid[mask], minlength=graph.reps)

    K = cfg.K
    masks = cache(partial(truncation_masks, graph, K))
    cols = []
    for req in requests:
        if req.kind == "isolated":
            cols.append(per_rep(isolated_mask(graph, K)))
        elif req.kind == "near_isolated":
            cols.append(per_rep(masks(req.r0)[0]))
        elif req.kind == "excess":
            cols.append(per_rep(masks(req.r0)[1]))
        elif req.kind == "component":
            cols.append(per_rep(component_mask(graph, K, req.r)) / req.r)
        else:  # coupling
            j_mask, _ = masks(req.R / cfg.n)
            twin = regraph(graph, cfg.g_n.truncate_inside(req.R / cfg.n))
            cols.append(per_rep(j_mask) == per_rep(isolated_mask(twin, K)))
    return np.column_stack(cols).astype(float)


_THREAD = threading.local()  # .block: the thread's last block graph, or None


def _replication_rows(count, plan, base_seed, lo, hi):
    """Rows of replications lo..hi-1, simulated in the plan's blocks;
    count(graph) gives the rows of one block."""
    work = simulator._replication_work(plan.lam_n, plan.box, plan.reach, plan.focus)
    rows = []
    for a in range(lo, hi, plan.reps):
        graph = simulate_block(plan, base_seed, a, min(a + plan.reps, hi))
        rows.append(count(graph))
        # The thread holds its last block until it has built the next one, in
        # this call or a later one: a block freed first hands its memory back
        # to the system, and the next one faults it in again.  An mc_large
        # call is one block of 4 d=2 replications, which faults ~480 pages
        # when the previous call's block is gone and ~30 when it is held.  A
        # block above BLOCK_WORK of expected work (one replication too large
        # for the budget) is not held.
        _THREAD.block = graph if graph.reps * work <= simulator.BLOCK_WORK else None
        del graph  # so that a block not held is freed before the next is built
    return np.concatenate(rows)


_pools: dict[int, ProcessPoolExecutor] = {}  # worker count -> the run's pool
_scope_depth = 0


@contextmanager
def run_scope():
    """One run: every pooled call inside it shares one process pool per
    worker count.

    Scopes nest; a pool is built on first use and shut down, its workers
    joined, when the outermost scope exits, on every exit path.  Workers
    hold no state between chunks (each chunk takes its plan pickled), so
    one pool can serve every call of a run.
    """
    global _scope_depth
    _scope_depth += 1
    try:
        yield
    finally:
        _scope_depth -= 1
        if _scope_depth == 0:
            while _pools:
                _pools.popitem()[1].shutdown(wait=True, cancel_futures=True)


def _replicate_rows(count, plan, base_seed, m: int, workers: int) -> np.ndarray:
    """Rows of replications 0..m-1 in replication order, from
    _replication_rows(count, plan, base_seed, lo, hi) over chunks lo..hi-1.

    Serial (one call) for 0 or 1 workers or m < 8; otherwise about four chunks
    per worker in the run's process pool (see run_scope; a call outside any
    run is a run of its own), written back in chunk order.  The pool holds at
    most one process per CPU, whatever the worker count; the chunks follow
    the worker count alone.  The plan is built by the caller, so the workers
    only simulate and count.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers <= 1 or m < 8:
        return _replication_rows(count, plan, base_seed, 0, m)
    chunk = math.ceil(m / (4 * workers))
    los = range(0, m, chunk)
    his = [min(lo + chunk, m) for lo in los]
    rows = partial(_replication_rows, count, plan, base_seed)
    with run_scope():
        if workers not in _pools:
            _pools[workers] = ProcessPoolExecutor(max_workers=min(workers, cpu_count() or 1))
        return np.concatenate(list(_pools[workers].map(rows, los, his)))


def replicate_many(
    cfg: ModelConfig,
    requests: Sequence[StatRequest],
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int = 1,
) -> dict[str, StatSample]:
    """m independent replications of several statistics on shared realizations;
    every sample's bias bound is the run's, fixed by its block plan."""
    if m < 2:
        raise StatsError("m must be >= 2")
    if not requests:
        raise StatsError("no statistics requested")
    names = [req.name for req in requests]
    if len(set(names)) != len(names):
        raise StatsError("duplicate statistic names")
    plan = block_plan(cfg.g_n, cfg.lam_n, cfg.K, policy, *_request_needs(cfg, requests))
    rows = _replicate_rows(partial(_request_rows, cfg, requests), plan, base_seed, m, workers)
    return {name: StatSample(rows[:, k].copy(), base_seed, plan.bias_bound)
            for k, name in enumerate(names)}


def replicate(
    cfg: ModelConfig,
    request: StatRequest,
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int = 1,
) -> StatSample:
    return replicate_many(cfg, [request], m, base_seed, policy, workers)[request.name]


def coupling_check(
    cfg: ModelConfig,
    R: float,
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int = 1,
) -> tuple[bool, bool, dict[str, StatSample]]:
    """m replications of I, J, L (r0 = R/n) and C (see StatRequest) on shared
    realizations, and whether C == 1 and J == I + L on every one of them."""
    reqs = [
        StatRequest(name="I", kind="isolated"),
        StatRequest(name="J", kind="near_isolated", r0=R / cfg.n),
        StatRequest(name="L", kind="excess", r0=R / cfg.n),
        StatRequest(name="C", kind="coupling", R=R),
    ]
    out = replicate_many(cfg, reqs, m, base_seed, policy, workers)
    coupled = bool(np.all(out["C"].values == 1.0))
    additive = bool(np.all(out["J"].values == out["I"].values + out["L"].values))
    return coupled, additive, out


# -- normality ------------------------------------------------------------------

KS_MIN_REPLICATIONS = 100


def ks_normality(values) -> float:
    """Exact one-sample KS distance of the values, standardized by their
    sample mean and variance (ddof=1), to the normal CDF."""
    vals = np.asarray(values, dtype=float)
    m = vals.size
    if m < KS_MIN_REPLICATIONS:
        raise StatsError(f"KS normality check needs at least {KS_MIN_REPLICATIONS} replications")
    mu = vals.mean()
    var = vals.var(ddof=1)
    if var <= 0:
        raise StatsError("zero sample variance")
    z = np.sort((vals - mu) / math.sqrt(var))
    from scipy import special  # here, so a run without a KS check loads no scipy

    cdf = special.ndtr(z)
    i = np.arange(1, m + 1)
    return float(np.max(np.maximum(i / m - cdf, cdf - (i - 1) / m)))


# -- lattice covariance field ------------------------------------------------------


@dataclass
class CovarianceField:
    offsets: tuple[tuple[int, ...], ...]
    cov: np.ndarray
    se: np.ndarray
    total: float
    total_se: float
    lattice_side: int
    dependence_range: int

    @property
    def positive(self) -> bool:
        """The covariance sum is positive by more than three standard errors."""
        return self.total > 3.0 * self.total_se


def _cell_covariances(Y: np.ndarray, offsets) -> np.ndarray:
    """Offset covariances of each replication of a (reps, *sides) cell array:
    one row per replication, each offset one expression over the whole
    array.  An offset as long as a side or longer has no cell pair and
    reads 0."""
    axes, sides = tuple(range(1, Y.ndim)), Y.shape[1:]
    mu = Y.mean(axis=axes)
    rows = np.zeros((Y.shape[0], len(offsets)))
    for k, z in enumerate(offsets):
        if any(abs(zk) >= size for zk, size in zip(z, sides)):
            continue
        A = Y[(slice(None), *(slice(max(0, -zk), size - max(0, zk)) for zk, size in zip(z, sides)))]
        B = Y[(slice(None), *(slice(max(0, zk), size - max(0, -zk)) for zk, size in zip(z, sides)))]
        rows[:, k] = (A * B).mean(axis=axes) - mu * mu
    return rows


def _field_rows(r, offsets, cells, graph):
    """Offset covariances of each replication of a block, over its own cells."""
    return _cell_covariances(component_cell_counts(graph, cells, r), offsets)


def covariance_field(
    cfg: ModelConfig,
    r: int,
    m: int,
    base_seed: int,
    lattice_side: int | None = None,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int = 1,
) -> CovarianceField:
    """Estimate z -> Cov(Y_0, Y_z) of the per-cell component field.

    One large window per replication; all cell pairs at each offset are
    pooled (stationarity), then averaged across replications for SEs.
    Offsets beyond the dependence range ceil(r * support) + 1 are
    independent, so the offsets reach exactly that far and the total
    estimates the full sum.
    """
    supp = cfg.g_n.support_radius
    if supp is None:
        raise StatsError("covariance field needs bounded support")
    dep = int(math.ceil(r * supp)) + 1
    side = max(3 * (dep + 1), 8) if lattice_side is None else lattice_side
    if side < 1:
        raise StatsError(f"lattice side must be >= 1, got {side}")
    offsets = tuple(product(range(-dep, dep + 1), repeat=cfg.d))
    cells = Region((0.0,) * cfg.d, (float(side),) * cfg.d)
    plan = block_plan(cfg.g_n, cfg.lam_n, cells, policy, min_margin=r * supp)
    rows = _replicate_rows(partial(_field_rows, r, offsets, cells), plan, base_seed, m, workers)
    cov = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(m)
    sums = rows.sum(axis=1)
    return CovarianceField(
        offsets=offsets,
        cov=cov,
        se=se,
        total=float(sums.mean()),
        total_se=float(sums.std(ddof=1) / math.sqrt(m)),
        lattice_side=side,
        dependence_range=dep,
    )


# -- martingale variance identity ---------------------------------------------------


@dataclass(frozen=True)
class FiniteFiltrationSpace:
    """Finite probability space with a refinement chain of partitions.

    partitions[0] must be the trivial partition, partitions[-1] the discrete
    one, and each partition must refine its predecessor.
    """

    probs: tuple[float, ...]
    values: tuple[float, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        k = len(self.probs)
        if k != len(self.values) or k < 1:
            raise StatsError("probs and values must have equal positive length")
        if any(p <= 0 for p in self.probs):
            raise StatsError("outcome probabilities must be > 0")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise StatsError("probabilities must sum to 1")
        for part in self.partitions:
            seen = [o for block in part for o in block]
            if sorted(seen) != list(range(k)):
                raise StatsError("each partition must cover all outcomes exactly once")
        if len(self.partitions[0]) != 1:
            raise StatsError("first partition must be trivial")
        if len(self.partitions[-1]) != k:
            raise StatsError("last partition must be discrete")
        for prev, cur in zip(self.partitions, self.partitions[1:]):
            owner = {}
            for bi, block in enumerate(prev):
                for o in block:
                    owner[o] = bi
            for block in cur:
                if len({owner[o] for o in block}) != 1:
                    raise StatsError("invalid refinement chain")


@dataclass(frozen=True)
class MartingaleReport:
    variance: float
    telescoped: float
    abs_diff: float

    @property
    def ok(self) -> bool:
        return self.abs_diff < 1e-12


def martingale_identity_oracle(space: FiniteFiltrationSpace) -> MartingaleReport:
    """Exact check that Var Y equals the summed squared conditional increments.

    Both sides are computed by full enumeration over the finite space.
    """
    p = np.array(space.probs)
    y = np.array(space.values)
    mean = float(p @ y)
    variance = float(p @ (y - mean) ** 2)

    def cond_exp(part):
        out = np.empty_like(y)
        for block in part:
            idx = list(block)
            w = p[idx]
            out[idx] = float(w @ y[idx] / w.sum())
        return out

    levels = [cond_exp(part) for part in space.partitions]
    telescoped = 0.0
    for prev, cur in zip(levels, levels[1:]):
        delta = cur - prev
        telescoped += float(p @ delta**2)
    return MartingaleReport(
        variance=variance, telescoped=telescoped, abs_diff=abs(variance - telescoped)
    )


def random_filtration_space(rng: np.random.Generator) -> FiniteFiltrationSpace:
    """Random space of 2..64 outcomes with a refinement chain of at most 6 partitions."""
    k = int(rng.integers(2, 65))
    probs = rng.dirichlet(np.ones(k))
    probs = np.maximum(probs, 1e-12)
    probs = probs / probs.sum()
    values = rng.normal(size=k)

    chain = [tuple((i,) for i in range(k))]
    while len(chain[0]) > 1:
        blocks = list(chain[0])
        if len(chain) >= 6:
            merged = [tuple(o for b in blocks for o in b)]
        else:
            rng.shuffle(blocks)
            group = max(2, int(rng.integers(2, 5)))
            merged = [
                tuple(sorted(o for b in blocks[i : i + group] for o in b))
                for i in range(0, len(blocks), group)
            ]
        chain.insert(0, tuple(merged))
    return FiniteFiltrationSpace(
        probs=tuple(float(p) for p in probs),
        values=tuple(float(v) for v in values),
        partitions=tuple(chain),
    )


def martingale_sweep(seed: int) -> list[MartingaleReport]:
    """The oracle on the first 100 random spaces of default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [martingale_identity_oracle(random_filtration_space(rng)) for _ in range(100)]


# -- variance lower bound --------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Constants certifying quadratic variance growth of the component field."""

    r: int
    R: float  # support radius of the connection function
    lam: float
    mu_hat: float
    mu_se: float
    M: int
    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.mu_hat * self.M**2 - 2 * self.lam * self.R * (self.M + self.r * self.R) > 0:
            raise StatsError("certificate violates mu M^2 - 2 lam R (M + r R) > 0")
        if not self.gamma > 0:
            raise StatsError("certificate gamma must be > 0")


@dataclass(frozen=True)
class LowerBoundRow:
    n: int
    var: float
    var_se: float
    bound: float  # gamma * n^2


def variance_lower_bound(
    lam: float,
    g: ConnectionFunction,
    r: int,
    n_list: Sequence[int],
    m_mu: int,
    m_var: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int = 1,
) -> tuple[LowerBoundCertificate, list[LowerBoundRow]]:
    """Certificate gamma > 0 with Var of the component count over (0, nM]^2
    bounded below by gamma n^2, plus the empirical growth table.

    Two-dimensional construction: M is the smallest integer above
    3 lam R / mu_hat that keeps mu_hat M^2 - 2 lam R (M + r R) positive, and
    gamma = alpha (mu_hat M^2 - 2 lam R (M + r R))^2 exp(-lam (M + 2 r R)^2),
    where alpha = 1/4 is the density of a pairwise non-adjacent sublattice
    of the box enumeration.
    """
    supp = g.support_radius
    if supp is None:
        raise StatsError("lower bound needs bounded support")
    R = supp

    cfg_cell = ModelConfig(d=2, lam=lam, K=Region((0.0, 0.0), (1.0, 1.0)), g=g)
    req = StatRequest(name="mu", kind="component", r=r)
    mu_sample = replicate(cfg_cell, req, m_mu, base_seed, policy, workers)
    mu_hat, mu_se = mu_sample.mean, mu_sample.se_mean
    if not mu_hat > 3 * mu_se:
        raise StatsError("component mean not significantly positive; increase m")

    M = int(math.floor(3 * lam * R / mu_hat)) + 1
    while mu_hat * M**2 - 2 * lam * R * (M + r * R) <= 0:
        M += 1
    core = mu_hat * M**2 - 2 * lam * R * (M + r * R)
    alpha = 0.25
    gamma = alpha * core**2 * math.exp(-lam * (M + 2 * r * R) ** 2)
    cert = LowerBoundCertificate(
        r=r, R=R, lam=lam, mu_hat=mu_hat, mu_se=mu_se, M=M, alpha=alpha, gamma=gamma
    )

    rows = []
    for n in n_list:
        side = float(n * M)
        cfg_box = ModelConfig(d=2, lam=lam, K=Region((0.0, 0.0), (side, side)), g=g)
        sample = replicate(
            cfg_box,
            StatRequest(name="count", kind="component", r=r),
            m_var,
            base_seed,
            policy,
            workers,
        )
        rows.append(
            LowerBoundRow(
                n=n,
                var=sample.variance,
                var_se=sample.bootstrap_se_var(),
                bound=gamma * n**2,
            )
        )
    return cert, rows


def exceedance_fraction(values, center: float, scale: float, threshold: float) -> float:
    """Empirical P(|X - center| / scale >= threshold)."""
    vals = np.asarray(values, dtype=float)
    if scale <= 0:
        raise StatsError("scale must be > 0")
    return float(np.mean(np.abs(vals - center) / scale >= threshold))
