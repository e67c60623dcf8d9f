"""Replication engine and statistical verification suite.

Replications are independent: replication k draws its generator from
SeedSequence(base_seed, spawn_key=(k,)), so results are identical for any
worker count and any grouping of consecutive replications into the blocks
that are simulated and counted together, and aggregation is a pure indexed
fold.  Everything downstream (KS distances, covariance fields, variance
growth, the martingale oracle) consumes the replicated values and is
deterministic given (config, seed).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product
from typing import Sequence

import numpy as np
from scipy import special

from .connfn import ConnectionFunction, make_variant
from .moments import ModelConfig
from .quadrature import Region
from .simulator import (
    DEFAULT_POLICY,
    LatticeRegion,
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


def resolve_workers(workers: int | None) -> int:
    """Explicit value if given (0 or None means unset), else RCMLAB_WORKERS,
    else serial.  A negative value or an RCMLAB_WORKERS <= 0 is an error."""
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (0 means unset), got {workers}")
    if workers:
        return workers
    env = os.environ.get("RCMLAB_WORKERS", "").strip()
    if not env:
        return 1
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"RCMLAB_WORKERS must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"RCMLAB_WORKERS must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class StatRequest:
    """One per-replication scalar: which count to take from the realization.

    Every count is taken over the vertices in the model's K.  kinds:
    "isolated" (degree-0 vertices), "near_isolated" (no neighbor within r0),
    "excess" (no neighbor within r0 but some beyond), "component" (1/r times
    vertices in size-r components), and "coupling" (1.0 iff the
    near-isolated count at r0 = R/n equals the isolated count of the
    shared-randomness graph rebuilt under the cut-then-scale variant).
    """

    name: str
    kind: str
    r0: float = 0.0
    R: float = 0.0
    r: int = 1

    def __post_init__(self):
        if self.kind not in ("isolated", "near_isolated", "excess", "component", "coupling"):
            raise StatsError(f"unknown statistic kind {self.kind!r}")


@dataclass
class StatSample:
    """Replicated values of one statistic with seed provenance."""

    name: str
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
        """Bootstrap standard error of the sample variance (200 seeded resamples)."""
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.base_seed, spawn_key=(0xB007,))
        )
        idx = rng.integers(0, self.m, size=(200, self.m))
        boots = self.values[idx].var(axis=1, ddof=1)
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


def _request_rows(cfg, requests, graph, rid, reps):
    """Rows of a block of reps replications: request values in request order,
    then each realization's bias bound.  The (J, L) masks of one r0 are
    computed once and shared by every request that reads them."""

    def per_rep(mask):
        return np.bincount(rid[mask], minlength=reps)

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
            twin = regraph(graph, make_variant(cfg.g, "cut_then_scale", R=req.R, n=cfg.n))
            cols.append(per_rep(j_mask) == per_rep(isolated_mask(twin, K)))
    cols.append(np.full(reps, graph.window.bias_bound + graph.edge_bias))
    return np.column_stack(cols).astype(float)


def _replication_rows(count, plan, base_seed, lo, hi):
    """Rows of replications lo..hi-1, simulated in the plan's blocks;
    count(graph, rid, reps) gives the rows of one block."""
    rows = []
    for a in range(lo, hi, plan.reps):
        b = min(a + plan.reps, hi)
        graph, rid = simulate_block(plan, base_seed, a, b)
        rows.append(count(graph, rid, b - a))
    return np.concatenate(rows)


def _replicate_rows(count, plan, base_seed, m: int, workers: int | None) -> np.ndarray:
    """Rows of replications 0..m-1 in replication order, from
    _replication_rows(count, plan, base_seed, lo, hi) over chunks lo..hi-1.

    Serial (one call) for one worker or m < 8; otherwise about four chunks
    per worker in one process pool, written back in chunk order.  The plan
    is built by the caller, so the workers only simulate and count.
    """
    nworkers = resolve_workers(workers)
    if nworkers <= 1 or m < 8:
        return _replication_rows(count, plan, base_seed, 0, m)
    chunk = math.ceil(m / (4 * nworkers))
    los = range(0, m, chunk)
    his = [min(lo + chunk, m) for lo in los]
    rows = partial(_replication_rows, count, plan, base_seed)
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        return np.concatenate(list(pool.map(rows, los, his)))


def replicate_many(
    cfg: ModelConfig,
    requests: Sequence[StatRequest],
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
) -> dict[str, StatSample]:
    """m independent replications of several statistics on shared realizations."""
    if m < 2:
        raise StatsError("m must be >= 2")
    names = [req.name for req in requests]
    if len(set(names)) != len(names):
        raise StatsError("duplicate statistic names")
    plan = block_plan(cfg.g_n, cfg.lam_n, cfg.d, cfg.K, policy, *_request_needs(cfg, requests))
    rows = _replicate_rows(partial(_request_rows, cfg, requests), plan, base_seed, m, workers)
    bias = float(rows[:, -1].max())
    return {
        name: StatSample(
            name=name, values=rows[:, k].copy(), base_seed=base_seed, bias_bound=bias
        )
        for k, name in enumerate(names)
    }


def replicate(
    cfg: ModelConfig,
    request: StatRequest,
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
) -> StatSample:
    return replicate_many(cfg, [request], m, base_seed, policy, workers)[request.name]


def coupling_check(
    cfg: ModelConfig,
    R: float,
    m: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
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
    vals = values.values if isinstance(values, StatSample) else np.asarray(values, dtype=float)
    m = vals.size
    if m < KS_MIN_REPLICATIONS:
        raise StatsError(f"KS normality check needs at least {KS_MIN_REPLICATIONS} replications")
    mu = vals.mean()
    var = vals.var(ddof=1)
    if var <= 0:
        raise StatsError("zero sample variance")
    z = np.sort((vals - mu) / math.sqrt(var))
    cdf = special.ndtr(z)
    i = np.arange(1, m + 1)
    return float(np.max(np.maximum(i / m - cdf, cdf - (i - 1) / m)))


# -- variance-density convergence -------------------------------------------------


@dataclass(frozen=True)
class VarianceDensityRow:
    n: float
    lam_n: float
    density: float  # Var / (lam_n vol K)
    density_se: float
    limit: float
    gap: float


def variance_density_convergence(
    cfg: ModelConfig,
    n_list: Sequence[float],
    m: int,
    base_seed: int,
    limit_value: float,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
) -> list[VarianceDensityRow]:
    """Monte Carlo Var/(lam_n vol K) of the isolated count across n against its limit."""
    request = StatRequest(name="count", kind="isolated")
    rows = []
    for n in n_list:
        cfg_n = cfg.at_n(n)
        sample = replicate(cfg_n, request, m, base_seed, policy, workers)
        norm = cfg_n.lam_n * cfg_n.K.volume
        density = sample.variance / norm
        se = sample.bootstrap_se_var() / norm
        rows.append(
            VarianceDensityRow(
                n=n,
                lam_n=cfg_n.lam_n,
                density=density,
                density_se=se,
                limit=limit_value,
                gap=abs(density - limit_value),
            )
        )
    return rows


# -- lattice covariance field ------------------------------------------------------


@dataclass
class CovarianceField:
    offsets: tuple[tuple[int, ...], ...]
    cov: np.ndarray
    se: np.ndarray
    total: float
    total_se: float
    m: int
    lattice_side: int
    dependence_range: int

    @property
    def positive(self) -> bool:
        """The covariance sum is positive by more than three standard errors."""
        return self.total > 3.0 * self.total_se


def _offset_cov(Y: np.ndarray, z: tuple[int, ...], mu: float) -> float:
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


def _field_rows(r, offsets, lattice, graph, rid, reps):
    """Offset covariances of each replication of a block, over its own lattice."""
    rows = []
    for Y in component_cell_counts(graph, lattice, r, rid, reps):
        mu = float(Y.mean())
        rows.append([_offset_cov(Y, z, mu) for z in offsets])
    return np.array(rows, dtype=float)


def covariance_field(
    cfg: ModelConfig,
    r: int,
    m: int,
    base_seed: int,
    lattice_side: int | None = None,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
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
    side = lattice_side or max(3 * (dep + 1), 8)
    offsets = tuple(product(range(-dep, dep + 1), repeat=cfg.d))
    lattice = LatticeRegion((0,) * cfg.d, (side,) * cfg.d)
    plan = block_plan(cfg.g_n, cfg.lam_n, cfg.d, lattice.bounding_region, policy,
                      min_margin=r * supp)
    rows = _replicate_rows(partial(_field_rows, r, offsets, lattice), plan, base_seed, m, workers)
    cov = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(m)
    sums = rows.sum(axis=1)
    return CovarianceField(
        offsets=offsets,
        cov=cov,
        se=se,
        total=float(sums.mean()),
        total_se=float(sums.std(ddof=1) / math.sqrt(m)),
        m=m,
        lattice_side=side,
        dependence_range=dep,
    )


@dataclass(frozen=True)
class BoxVarianceRow:
    side: int
    cells: int
    boundary_fraction: float
    var_density: float
    var_density_se: float
    cov_sum: float
    cov_sum_se: float
    gap: float


def stationary_variance_check(
    cfg: ModelConfig,
    r: int,
    sides: Sequence[int],
    m: int,
    base_seed: int,
    field: CovarianceField,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
) -> list[BoxVarianceRow]:
    """Var of the summed field over a box, per cell, against the covariance sum.

    For growing boxes with vanishing boundary fraction the normalized
    variance converges to the summed covariances of the stationary field.
    """
    rows = []
    for side in sides:
        lattice = LatticeRegion((0,) * cfg.d, (side,) * cfg.d)
        cfg_box = replace(cfg, K=lattice.bounding_region)
        req = StatRequest(name="comp", kind="component", r=r)
        sample = replicate(cfg_box, req, m, base_seed, policy, workers)
        var_density = sample.variance / lattice.size
        se = sample.bootstrap_se_var() / lattice.size
        rows.append(
            BoxVarianceRow(
                side=side,
                cells=lattice.size,
                boundary_fraction=lattice.boundary_size / lattice.size,
                var_density=var_density,
                var_density_se=se,
                cov_sum=field.total,
                cov_sum_se=field.total_se,
                gap=abs(var_density - field.total),
            )
        )
    return rows


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
    box_side: float
    var: float
    var_se: float
    bound: float  # gamma * n^2
    var_per_n2: float


def variance_lower_bound(
    lam: float,
    g: ConnectionFunction,
    r: int,
    n_list: Sequence[int],
    m_mu: int,
    m_var: int,
    base_seed: int,
    policy: SimPolicy = DEFAULT_POLICY,
    workers: int | None = None,
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
                box_side=side,
                var=sample.variance,
                var_se=sample.bootstrap_se_var(),
                bound=gamma * n**2,
                var_per_n2=sample.variance / n**2,
            )
        )
    return cert, rows


def exceedance_fraction(values, center: float, scale: float, threshold: float) -> float:
    """Empirical P(|X - center| / scale >= threshold)."""
    vals = values.values if isinstance(values, StatSample) else np.asarray(values, dtype=float)
    if scale <= 0:
        raise StatsError("scale must be > 0")
    return float(np.mean(np.abs(vals - center) / scale >= threshold))
