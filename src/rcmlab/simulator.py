"""Sampling of random connection model realizations and counting statistics.

Randomness is split into two independent streams per replication rep of a
base seed b, the children of its sequence SeedSequence(b, spawn_key=(rep,)):

* point positions come from the PCG64 generator of child 0,
  SeedSequence(b, spawn_key=(rep, 0));
* per-pair edge coin flips come from a counter-based hash of the unordered
  point-index pair, keyed by the first 64-bit word of child 1.

Because the pair uniforms depend only on (key, i, j), two graphs built from
the same sampled points and key but different connection functions share
their randomness edge for edge.  Truncating the connection function then
removes exactly the edges whose probability dropped to zero, which turns the
truncation/scaling coupling identities into bit-exact statements instead of
statistical ones.

Pairs farther apart than the search reach are never candidates; the
discarded connection mass is bounded and recorded on the graph.  A run fixes
its window, reach and block size once, in a ``BlockPlan``.  The plan may also
name a focus, the region whose vertices the caller counts (the observation
set K): then only the pairs with an end in the focus are searched and
tossed.  The isolated, near-isolated and excess counts and the coupling at a
vertex x read only the pairs {x, y} within the reach, so they are exact on
the focus, and each count raises when its region leaves the focus, where
degrees are partial.  Without a focus (components, the lattice field,
``simulate_graph`` and so the realization dump) every pair in the window is
a candidate.

``simulate_block`` draws consecutive replications from their own streams
and stacks them into one block-diagonal graph: one pair search, one coin
call and one count per statistic serve the whole block, and a replication's
edges do not depend on the block it is drawn in.  The seed words of all the
block's streams come from one numpy pass that evaluates SeedSequence's hash
exactly, so each replication only draws its point count and coordinates;
the streams are numpy's, bit for bit.  ``simulate_graph`` is the block of
one replication.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .connfn import ConnectionFunction
from .quadrature import Region


class SimulationError(RuntimeError):
    """Violated simulation precondition (margin, reach, or support)."""


@dataclass(frozen=True)
class SimPolicy:
    """Bias budgets for window margin and pair-search reach.

    eps_margin bounds lam_n * vol(K) * (connection mass beyond the margin);
    eps_edges bounds the expected number of pair edges lost to the finite
    search reach in one realization.
    """

    eps_margin: float = 1e-4
    eps_edges: float = 1e-2

    def __post_init__(self):
        if not (self.eps_margin > 0 and self.eps_edges > 0):
            raise ValueError("bias budgets must be > 0")


DEFAULT_POLICY = SimPolicy()


@dataclass(frozen=True)
class SimWindow:
    """Observation region K plus a sampling margin around it."""

    K: Region
    margin: float
    bias_bound: float = 0.0  # bound on lam_n * vol(K) * tail mass beyond margin

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    @property
    def box(self) -> Region:
        return self.K.expand(self.margin) if self.margin > 0 else self.K


def margin_policy(
    conn: ConnectionFunction,
    d: int,
    lam_n: float,
    K: Region,
    eps: float,
) -> SimWindow:
    """Smallest margin t with lam_n * vol(K) * tail(t) <= eps.

    Exact (zero bias) for bounded-support connection functions.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    supp = conn.support_radius
    if supp is not None:
        return SimWindow(K=K, margin=supp, bias_bound=0.0)
    t = conn.tail_radius(eps / (lam_n * K.volume), d)
    return SimWindow(K=K, margin=t, bias_bound=eps)


# -- pair-indexed uniforms ----------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def pair_uniform(key: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Deterministic uniforms indexed by unordered point pairs.

    Uses the splitmix64 finaliser on key + golden * (triangular pair code).
    Independent of pair enumeration order and of worker layout.
    """
    lo = np.minimum(i, j).astype(np.uint64)
    hi = np.maximum(i, j).astype(np.uint64)
    with np.errstate(over="ignore"):
        code = hi * (hi - np.uint64(1)) // np.uint64(2) + lo
        z = np.uint64(key) + (code + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


# -- graphs --------------------------------------------------------------------


@dataclass
class PointGraph:
    """Sampled points plus Bernoulli edges with cached lengths.

    The candidate pairs (i, j, dist) within the search reach and their coins
    are kept: the edges, set on construction, are the pairs whose coin falls
    below conn(dist), and a coupled graph under another connection function
    tosses the same coins.

    ``focus`` is the region whose points have all their candidate pairs and
    the mask of its points; the pairs of two points outside it are not
    searched, so those points' degrees are partial.  None means every pair in
    the window is a candidate.
    """

    points: np.ndarray  # (N, d)
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray]
    coins: np.ndarray
    conn: ConnectionFunction
    window: SimWindow
    reach: float
    edge_bias: float = 0.0  # bound on expected edges lost beyond the reach
    focus: tuple[Region, np.ndarray] | None = None
    edge_i: np.ndarray = field(init=False)
    edge_j: np.ndarray = field(init=False)
    edge_dist: np.ndarray = field(init=False)

    def __post_init__(self):
        i, j, dist = self.candidates
        keep = self.coins < self.conn.eval(dist)
        self.edge_i, self.edge_j, self.edge_dist = i[keep], j[keep], dist[keep]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def degrees(self) -> np.ndarray:
        n = self.n_points
        return np.bincount(self.edge_i, minlength=n) + np.bincount(self.edge_j, minlength=n)

    def endpoint_mask(self, edge_mask: np.ndarray) -> np.ndarray:
        """Vertices incident to at least one edge in the masked set."""
        out = np.zeros(self.n_points, dtype=bool)
        out[self.edge_i[edge_mask]] = True
        out[self.edge_j[edge_mask]] = True
        return out


def _unit_points(rng: np.random.Generator, mu: float, d: int) -> np.ndarray:
    """Poisson(mu) points i.i.d. uniform in the unit cube: the count, then
    the coordinates, from one generator."""
    return rng.random((rng.poisson(mu), d))


def _placed(unit: np.ndarray, box: Region) -> np.ndarray:
    """Unit-cube points mapped into the box, coordinate by coordinate."""
    return np.array(box.lower) + unit * np.array(box.sides)


def sample_points(lam_n: float, box: Region, rng: np.random.Generator) -> np.ndarray:
    """Poisson(lam_n * vol) points placed i.i.d. uniformly in the box."""
    if not lam_n > 0:
        raise SimulationError("lam_n must be > 0")
    return _placed(_unit_points(rng, lam_n * box.volume, box.dim), box)


# -- replication streams ------------------------------------------------------
#
# Replication rep of base seed b draws its points from the PCG64 generator of
# SeedSequence(b, spawn_key=(rep, 0)) and keys its coins by the first uint64
# word of SeedSequence(b, spawn_key=(rep, 1)).  ``_seed_words`` evaluates
# numpy's SeedSequence hash (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe) for a whole block at once in uint32 arithmetic, so the words
# are numpy's own; ``test_seed_words_match_numpy`` holds them to it.

_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash constants of the entropy mix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash constants of generate_state
# 0-d arrays, not numpy scalars: a ufunc on a small array takes them faster
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only, as every cached array here is."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _hash_consts(init: int, mult: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of hash calls k .. k + n - 1: call j xors with
    init * mult**j and multiplies by init * mult**(j + 1), mod 2**32."""
    h = np.array([init * pow(mult, j, 1 << 32) & _M32 for j in range(k, k + n + 1)],
                 dtype=np.uint32)
    return _frozen(h[:-1]), _frozen(h[1:])


def _hashed(x: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hash of uint32 words x, one call per word."""
    x = (x ^ consts[0]) * consts[1]
    return x ^ (x >> _SHIFT)


def _mixed(pool: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed words y into the pool words."""
    r = pool * _MIX_L - y * _MIX_R
    return r ^ (r >> _SHIFT)


@lru_cache(maxsize=256)
def _hashed_words(words: tuple[int, ...], k: int) -> np.ndarray:
    """Fixed entropy words, each hashed by calls k .. k + 3 (one call per
    pool word); shape (len(words), 1, 4)."""
    x = np.array(words, dtype=np.uint32)[:, None, None]
    return _frozen(_hashed(x, _hash_consts(_INIT_A, _MULT_A, k, 4)))


def _words32(value: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: little-endian uint32
    words, one word for 0."""
    return [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]


@lru_cache(maxsize=64)
def _base_pool(base_seed: int) -> tuple[np.ndarray, int]:
    """The pool of SeedSequence(base_seed, spawn_key=...) before its spawn
    key is mixed in, and the number of hash calls made: the same for every
    replication of base_seed."""
    words = _words32(base_seed)
    words += [0] * (4 - len(words))  # the run entropy fills the pool when a spawn key follows
    pool = _hashed(np.array(words[:4], dtype=np.uint32), _hash_consts(_INIT_A, _MULT_A, 0, 4))
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                y = _hashed(pool[src:src + 1], _hash_consts(_INIT_A, _MULT_A, k, 1))
                pool[dst:dst + 1] = _mixed(pool[dst:dst + 1], y)
                k += 1
    for word in words[4:]:
        pool = _mixed(pool, _hashed_words((word,), k)[0])
        k += 4
    return _frozen(pool), k


# generate_state's constants for 8 uint32 words, which cycle twice over the
# four pool words; two uint32 words make one uint64
_OUT_CONSTS = tuple(h.reshape(2, 4) for h in _hash_consts(_INIT_B, _MULT_B, 0, 8))


def _seed_words(base_seed: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed words of replications lo..hi-1 of base_seed, equal to numpy's:

    * (m, 4) uint64, row rep - lo being
      SeedSequence(base_seed, spawn_key=(rep, 0)).generate_state(4, np.uint64),
      the PCG64 seed of the replication's points;
    * (m,) uint64, entry rep - lo being
      SeedSequence(base_seed, spawn_key=(rep, 1)).generate_state(1, np.uint64)[0],
      the replication's pair key.

    The spawn key's words are rep's low word, its higher words when
    rep >= 2**32, then c.  A block is cut at 2**32 and at multiples of
    2**64, so that within a piece every rep has the same words above its
    low 64 bits.
    """
    base_seed, lo, hi = operator.index(base_seed), operator.index(lo), operator.index(hi)
    if base_seed < 0 or lo < 0:
        raise ValueError("base seed and replication numbers must be >= 0")
    base, k0 = _base_pool(base_seed)
    cuts = [lo, *(c for c in (1 << 32, ((lo >> 64) + 1) << 64) if lo < c < hi), hi]
    seeds, keys = [], []
    for a, b in zip(cuts, cuts[1:]):
        low = np.arange(b - a, dtype=np.uint64)
        low += np.array(a & _M64, dtype=np.uint64)
        cols = [low] if a < 1 << 32 else [low, low >> np.array(32, dtype=np.uint64)]
        pool, k = base, k0
        for col in cols:  # astype keeps the low 32 bits
            y = _hashed(col.astype(np.uint32)[:, None], _hash_consts(_INIT_A, _MULT_A, k, 4))
            pool, k = _mixed(pool, y), k + 4
        for word in _words32(a >> 64) if a >> 64 else ():
            pool, k = _mixed(pool, _hashed_words((word,), k)[0]), k + 4
        pool = _mixed(pool, _hashed_words((0, 1), k))  # (2, m, 4): the children c = 0, 1
        state = _hashed(pool[..., None, :], _OUT_CONSTS).reshape(2, b - a, 8)
        words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
        seeds.append(words[0])
        keys.append(words[1, :, 0])
    if len(seeds) == 1:
        return seeds[0], keys[0]
    return np.concatenate(seeds), np.concatenate(keys)


class _PointSeed(ISeedSequence):
    """One replication's four PCG64 seed words, handed to ``PCG64`` the way
    its SeedSequence would hand them, so PCG64 seeds itself from them
    (pcg64_srandom_r) exactly as from that SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for exactly 4 uint64 words


# A shifted block's first coordinates stay within _EXACT_SPAN * reach of 0, so
# the shift rounds a coordinate difference by at most reach * 2**-36: far below
# the pair query's 1e-9 relative slack.
_EXACT_SPAN = 2.0**16
# Expected points in one replication block.  It bounds the block's arrays: a
# d=1 replication of ~23 points adds ~6 KB to the peak when only the pairs
# touching K are searched (~23 KB for the whole window), while each block's
# fixed costs (two kd-tree builds and queries, the seed pass) are shared by
# more replications than at 2**10: c07's d=2 blocks of ~10 replications cost
# ~15% more per replication at that size.
BLOCK_POINTS = 2**11


def _block_stride(extent: float, reach: float) -> float:
    """Power of two wider than a replication's first-axis extent plus 2 reach."""
    return 2.0 ** math.frexp(extent + 2.0 * reach)[1]


def block_reps(lam_n: float, box: Region, reach: float) -> int:
    """Replications per block: at most BLOCK_POINTS expected points, and a
    first-axis span that keeps the shifted pair search exact; at least one."""
    far = max(abs(box.lower[0]), abs(box.upper[0]))
    by_span = (_EXACT_SPAN * reach - far) / _block_stride(box.sides[0], reach)
    return max(1, int(min(BLOCK_POINTS / (lam_n * box.volume), by_span)))


# Trees are built by sliding midpoint without shrinking boxes to their data:
# on a block's points that builds and queries faster than median splits (by
# 5-15% of the search on c02, c07, c08 and mc_large blocks), and the pairs
# found are the same.
_TREE_OPTIONS = {"balanced_tree": False, "compact_nodes": False}


def _candidate_pairs(
    points: np.ndarray,
    reach: float,
    rid: np.ndarray | None = None,
    focus: np.ndarray | None = None,
):
    """Index pairs i < j in lexicographic order with their distances <= reach
    and at least one end in ``focus``, a mask of the points (None: all).

    One tree holds the focus points: its ``query_pairs`` finds the pairs
    within the focus and its ``sparse_distance_matrix`` to a tree of the
    other points finds the pairs that cross; pairs of two other points are
    never examined.  With focus None the second tree is empty and the search
    is one ``query_pairs`` over all points.

    The trees are queried slightly beyond the reach so that the boundary
    rule is ``dist <= reach`` on the norm computed here, not the trees' own
    rounding: so the pairs are exactly those of the whole search that touch
    the focus, whatever the trees.  That norm is summed from per-axis
    differences in axis order, which gives the bits of
    ``np.linalg.norm(points[i] - points[j], axis=1)``: numpy's row-wise
    gather and reduction over a short axis cost several times more than one
    1-D ``take`` per coordinate.

    With ``rid``, the non-decreasing replication number (from 0) of each point,
    the points are a block of stacked replications searched at once.
    Replication k is shifted by k * stride along the first axis, the stride
    being a power of two wider than the points' first-axis extent plus twice
    the reach, so no pair crosses replications.  The norms are taken on the
    unshifted points, so each replication keeps exactly the pairs of its own
    search (``block_reps`` keeps the shift's rounding small enough).
    """
    n = points.shape[0]
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    search = points
    if rid is not None and rid[-1] > 0:
        search = points.copy()
        search[:, 0] += rid * _block_stride(np.ptp(points[:, 0]), reach)
        if np.abs(search[:, 0]).max() > _EXACT_SPAN * reach:
            raise SimulationError("replication block too wide for an exact pair search")
    near, rest = search, search[:0]
    if focus is not None:  # tree indices map back through inner and outer
        inner, outer = np.flatnonzero(focus), np.flatnonzero(~focus)
        near, rest = search.take(inner, axis=0), search.take(outer, axis=0)
    r = reach * (1.0 + 1e-9)
    tree = cKDTree(near, **_TREE_OPTIONS)
    within = tree.query_pairs(r, output_type="ndarray")
    cross = tree.sparse_distance_matrix(cKDTree(rest, **_TREE_OPTIONS), r,
                                        output_type="ndarray")
    a, b = cross["i"], cross["j"]
    if focus is not None:
        within, a, b = inner.take(within), inner.take(a), outer.take(b)
    # i * n + j sorts as (i, j); a pair within the focus has i < j already
    code = np.concatenate([within[:, 0] * n + within[:, 1],
                           np.minimum(a, b) * n + np.maximum(a, b)])
    code.sort()
    i = code // n
    j = code - i * n
    cols = np.ascontiguousarray(points.T)
    dist = np.sqrt(sum(np.square(col.take(i) - col.take(j)) for col in cols))
    keep = dist <= reach
    return i[keep], j[keep], dist[keep]


def connect(
    points: np.ndarray,
    conn: ConnectionFunction,
    window: SimWindow,
    reach: float,
    pair_key: int,
) -> PointGraph:
    """Bernoulli(conn(distance)) edges on all pairs within the search reach."""
    i, j, dist = _candidate_pairs(points, reach)
    return PointGraph(points, (i, j, dist), pair_uniform(pair_key, i, j), conn, window, reach)


def regraph(graph: PointGraph, conn: ConnectionFunction) -> PointGraph:
    """Rebuild the edge set under a different connection function.

    Same points, same candidate pairs, same coins and the same focus: the
    result is coupled realization-by-realization with the source graph.  On
    a block from ``simulate_block`` it rebuilds every replication at once.
    """
    return replace(graph, conn=conn)


# The largest mean numpy's Poisson sampler takes (its POISSON_LAM_MAX).
_POISSON_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def _expected_points(lam_n: float, region: Region, name: str) -> float:
    """lam_n * vol(region), which must be a positive mean a Poisson draw takes."""
    mu = lam_n * region.volume
    if not 0.0 < mu <= _POISSON_MAX:
        raise SimulationError(f"lam_n * vol({name}) = {mu:.6g} expected points, outside "
                              f"the (0, {_POISSON_MAX:.3g}] that a Poisson draw can take")
    return mu


@dataclass(frozen=True)
class BlockPlan:
    """What every block of one run shares: the model's connection function
    and intensity, the window and search reach with the edge bias bound, the
    focus (the region whose points the caller counts, or None for the whole
    window) and the replications per block.  ``block_plan`` builds it."""

    conn: ConnectionFunction
    lam_n: float
    window: SimWindow
    reach: float
    edge_bias: float  # bound on expected edges lost beyond the reach
    focus: Region | None
    reps: int


def block_plan(
    conn: ConnectionFunction,
    lam_n: float,
    d: int,
    K: Region,
    policy: SimPolicy = DEFAULT_POLICY,
    min_reach: float = 0.0,
    min_margin: float = 0.0,
    focus: Region | None = None,
) -> BlockPlan:
    """The plan of a run over K: the window margin and search reach that the
    policy's bias budgets give (at least min_margin and min_reach), and
    blocks of ``block_reps`` replications.  Raises SimulationError when the
    expected point count of K or of the window is not one a Poisson draw
    can take."""
    if not lam_n > 0:
        raise SimulationError("lam_n must be > 0")
    _expected_points(lam_n, K, "K")
    window = margin_policy(conn, d, lam_n, K, policy.eps_margin)
    window = replace(window, margin=max(window.margin, min_margin))
    box = window.box
    mu = _expected_points(lam_n, box, "window")
    supp = conn.support_radius
    if supp is not None:
        reach, edge_bias = max(supp, min_reach), 0.0
    else:
        # eps_edges over lam_n**2 vol / 2 pairs; squaring lam_n could overflow
        eps = 2.0 * policy.eps_edges / lam_n / mu
        reach, edge_bias = max(conn.tail_radius(eps, d), min_reach), policy.eps_edges
    return BlockPlan(conn, lam_n, window, reach, edge_bias, focus, block_reps(lam_n, box, reach))


def simulate_graph(
    conn: ConnectionFunction,
    lam_n: float,
    d: int,
    K: Region,
    base_seed: int,
    rep: int,
    policy: SimPolicy = DEFAULT_POLICY,
    min_reach: float = 0.0,
    min_margin: float = 0.0,
) -> PointGraph:
    """Replication rep of base_seed alone: points in K plus margin, connected
    under conn.  It is the block of one replication of the plan with no focus."""
    plan = block_plan(conn, lam_n, d, K, policy, min_reach, min_margin)
    return simulate_block(plan, base_seed, rep, rep + 1)[0]


def simulate_block(
    plan: BlockPlan, base_seed: int, lo: int, hi: int
) -> tuple[PointGraph, np.ndarray]:
    """Replications lo..hi-1 as one block-diagonal graph, and each point's
    replication (0 for lo); blocks are ``plan.reps`` replications long.

    Each replication draws its points and pair key from its own streams (see
    the module docstring).  Edges carry global point indices, and every coin
    is the replication's own pair uniform at its local indices.  With a focus
    in the plan, its mask is computed once here and kept on the graph, and
    only the pairs with an end in it are searched and tossed; every kept pair
    keeps the coin and length it has in the whole-window graph.
    """
    box = plan.window.box
    seeds, keys = _seed_words(base_seed, lo, hi)
    mu, dim = plan.lam_n * box.volume, box.dim
    unit = [_unit_points(np.random.Generator(np.random.PCG64(_PointSeed(w))), mu, dim)
            for w in seeds]
    sizes = np.array([u.shape[0] for u in unit])
    points = _placed(np.concatenate(unit), box)
    rid = np.repeat(np.arange(hi - lo), sizes)
    local = np.arange(rid.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    focus = inside = None
    if plan.focus is not None:
        inside = _frozen(plan.focus.contains(points))
        focus = (plan.focus, inside)
    i, j, dist = _candidate_pairs(points, plan.reach, rid, inside)
    coins = pair_uniform(keys[rid[i]], local[i], local[j])
    graph = PointGraph(points, (i, j, dist), coins, plan.conn, plan.window, plan.reach,
                       plan.edge_bias, focus)
    return graph, rid


# -- counting statistics --------------------------------------------------------


def _require_focus(graph: PointGraph, region: Region):
    """Raise unless every point of the region has all its candidate pairs."""
    if graph.focus is not None and not region.within(graph.focus[0]):
        raise SimulationError(
            f"region {region} does not lie in the focus of the graph, "
            "so the degrees there are partial"
        )


def _in_region(graph: PointGraph, region: Region) -> np.ndarray:
    """Mask of the graph's points in the region, which must lie in the
    focus; the focus's mask is the one computed with the graph."""
    _require_focus(graph, region)
    if graph.focus is not None and graph.focus[0] == region:
        return graph.focus[1]
    return region.contains(graph.points)


def isolated_mask(graph: PointGraph, K: Region) -> np.ndarray:
    """Vertices in K with no edge at all."""
    return _in_region(graph, K) & (graph.degrees() == 0)


def count_isolated(graph: PointGraph, K: Region) -> int:
    """Number of vertices in K with no edge at all."""
    return int(np.count_nonzero(isolated_mask(graph, K)))


def truncation_masks(graph: PointGraph, K: Region, r0: float) -> tuple[np.ndarray, np.ndarray]:
    """(J, L) vertex masks: J = vertices in K with no neighbor within r0;
    L = those among them with at least one neighbor beyond r0."""
    if r0 < 0:
        raise SimulationError("r0 must be >= 0")
    if r0 > graph.reach * (1.0 + 1e-12):
        raise SimulationError(
            f"r0 = {r0:.6g} exceeds the graph search reach {graph.reach:.6g}"
        )
    near = graph.edge_dist <= r0
    j_mask = _in_region(graph, K) & ~graph.endpoint_mask(near)
    return j_mask, j_mask & graph.endpoint_mask(~near)


def count_truncation_family(graph: PointGraph, K: Region, r0: float) -> tuple[int, int]:
    """(J, L) from one graph: J = vertices in K with no neighbor within r0;
    L = those among them with at least one neighbor beyond r0.

    J equals the isolated count of the coupled graph whose connection
    function is cut inside r0, and J = I + L holds exactly per realization.
    """
    j_mask, l_mask = truncation_masks(graph, K, r0)
    return int(np.count_nonzero(j_mask)), int(np.count_nonzero(l_mask))


def _component_sizes(graph: PointGraph) -> np.ndarray:
    n = graph.n_points
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = sparse.coo_matrix(
        (np.ones(graph.edge_i.size), (graph.edge_i, graph.edge_j)), shape=(n, n)
    )
    _, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    return sizes[labels]


def _require_component_window(graph: PointGraph, B: Region, r: int):
    """Components of size r touching B lie within r supports of it: the
    window must hold that neighbourhood, and every pair in it is read."""
    supp = graph.conn.support_radius
    if supp is None:
        raise SimulationError("component statistics need a bounded-support connection function")
    if r < 1:
        raise SimulationError("component size must be >= 1")
    need = B.expand(r * supp)
    box = graph.window.box
    if any(nl < bl - 1e-12 or nu > bu + 1e-12 for nl, bl, nu, bu in zip(
        need.lower, box.lower, need.upper, box.upper
    )):
        raise SimulationError(
            f"window margin too small: components of size {r} need {r * supp:.6g} "
            "beyond the target region"
        )
    _require_focus(graph, need)


def component_mask(graph: PointGraph, B: Region, r: int) -> np.ndarray:
    """Vertices in B lying in components of exactly r vertices."""
    _require_component_window(graph, B, r)
    return _in_region(graph, B) & (_component_sizes(graph) == r)


def count_components(graph: PointGraph, B: Region, r: int) -> float:
    """1/r times the number of vertices in B lying in components of size r.

    The window must extend r * (support radius) beyond B: any in-window
    component of size <= r touching B then stays clear of the window
    boundary, so its size is exact and classification is bias-free.
    """
    return float(np.count_nonzero(component_mask(graph, B, r))) / r


@dataclass(frozen=True)
class LatticeRegion:
    """Axis-aligned box of integer lattice sites; cell z covers z + (0,1]^d."""

    origin: tuple[int, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.origin) != len(self.shape) or not self.shape:
            raise ValueError("origin and shape must have equal positive length")
        if any(s < 1 for s in self.shape):
            raise ValueError("shape entries must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def boundary_size(self) -> int:
        inner = np.prod([max(0, s - 2) for s in self.shape])
        return self.size - int(inner)

    @property
    def bounding_region(self) -> Region:
        return Region(tuple(float(o) for o in self.origin), tuple(float(s) for s in self.shape))

    def cell(self, site: tuple[int, ...]) -> Region:
        return Region(tuple(float(z) for z in site), (1.0,) * self.dim)


def component_cell_counts(
    graph: PointGraph, lattice: LatticeRegion, r: int, rid: np.ndarray, reps: int
) -> np.ndarray:
    """Per-cell component statistic over the lattice for each of the reps
    replications of a block, where rid is each point's replication; shape
    (reps, *lattice.shape).

    Entry at site z is 1/r times the number of the replication's vertices in
    z + (0,1]^d whose component has exactly r vertices.
    """
    _require_component_window(graph, lattice.bounding_region, r)
    sel = _component_sizes(graph) == r
    cells = np.ceil(graph.points[sel]).astype(np.int64) - 1  # x in (z, z+1]
    rel = cells - np.array(lattice.origin)
    ok = np.all((rel >= 0) & (rel < np.array(lattice.shape)), axis=1)
    flat = rid[sel][ok] * lattice.size + np.ravel_multi_index(tuple(rel[ok].T), lattice.shape)
    counts = np.bincount(flat, minlength=reps * lattice.size) / r
    return counts.reshape(reps, *lattice.shape)


def dump_realization(graph: PointGraph, path: str):
    """Line-oriented text dump of one realization (points, then edges)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# points {graph.n_points} dim {graph.dim}\n")
        for row in graph.points:
            fh.write("point " + " ".join(repr(float(x)) for x in row) + "\n")
        fh.write(f"# edges {graph.edge_i.size}\n")
        for i, j, dist in zip(graph.edge_i, graph.edge_j, graph.edge_dist):
            fh.write(f"edge {int(i)} {int(j)} {float(dist)!r}\n")
