"""Sampling of random connection model realizations and counting statistics.

Each replication draws its points and its edge coins from streams of its
own (``rcmlab.streams``), and its coins depend only on its pair key and the
unordered point-index pair (key, i, j).  So two graphs built from the same
sampled points and key but different connection functions share their
randomness edge for edge.  Truncating the connection function then
removes exactly the edges whose probability dropped to zero, which turns the
truncation/scaling coupling identities into bit-exact statements instead of
statistical ones.

Points are drawn in K widened by a margin, and pairs farther apart than the
search reach are never candidates.  A run fixes its sampling box, reach and
block size once, in a ``BlockPlan``, with one bound on the bias that the two
truncations leave.  The plan may also name a focus, the region whose
vertices the caller counts (the observation set K): then only the pairs
with an end in the focus are searched and tossed.  The isolated,
near-isolated and excess counts and the coupling at a vertex x read only the
pairs {x, y} within the reach, so they are exact on the focus, and each
count raises when its region leaves the focus, where degrees are partial.
Without a focus (components, the lattice field, ``simulate_graph`` and so
the realization dump) every pair in the window is a candidate.

``simulate_block`` draws consecutive replications from their own streams
and stacks them into one block-diagonal graph: one draw of the block's
points, one pair search, one coin call and one count per statistic serve
the whole block, and a replication's edges do not depend on the block it is
drawn in.  ``simulate_graph`` is the block of one replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .connfn import ConnectionFunction, sphere_surface
from .quadrature import Region
from .streams import SimulationError, block_coins, block_points, pair_uniform, sample_points


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
    box: Region
    reach: float
    rid: np.ndarray  # (N,) each point's replication, from 0
    reps: int  # replications stacked, trailing ones without points included
    focus: tuple[Region, np.ndarray] | None = None
    edge_i: np.ndarray = field(init=False)
    edge_j: np.ndarray = field(init=False)
    edge_dist: np.ndarray = field(init=False)

    def __post_init__(self):
        i, j, dist = self.candidates
        keep = np.flatnonzero(self.coins < self.conn.eval(dist))
        self.edge_i, self.edge_j, self.edge_dist = i.take(keep), j.take(keep), dist.take(keep)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def degrees(self) -> np.ndarray:
        n = self.n_points
        return np.bincount(self.edge_i, minlength=n) + np.bincount(self.edge_j, minlength=n)

    def endpoint_mask(self, edge_mask: np.ndarray) -> np.ndarray:
        """Vertices incident to at least one edge in the masked set."""
        out = np.zeros(self.n_points, dtype=bool)
        out[self.edge_i[edge_mask]] = True
        out[self.edge_j[edge_mask]] = True
        return out


# A shifted block's first coordinates, taken from the block's lowest one, stay
# within [0, _EXACT_SPAN * reach], so the shift rounds a coordinate difference
# by at most reach * 2**-35: far below the pair query's 1e-9 relative slack.
_EXACT_SPAN = 2.0**16
# Expected work in one replication block: its points plus its candidate pairs.
# A block's time and memory follow both, the draw and placement per point and
# the search, lengths and coins per pair, while its fixed costs (the seed
# pass, the search's sort or kd-tree builds, each numpy call) are shared by its
# replications.  At this budget c02's d=1 blocks hold ~1,150 replications of
# ~57 points and pairs each and mc_large's d=2 blocks 5 of ~12.7k, and a
# block's arrays stay within a few MB.
BLOCK_WORK = 2**16
# The most expected work one replication may take.  A block holds at least
# one replication, at about 90 bytes a candidate pair, so this keeps a block
# within ~1.5 GB; the largest plan the test suite runs is ~3e6 (mc_large ~1.3e4).
MAX_REPLICATION_WORK = 2**24


def _block_stride(extent: float, reach: float) -> float:
    """Power of two wider than a replication's first-axis extent plus 2 reach."""
    return 2.0 ** math.frexp(extent + 2.0 * reach)[1]


def _expected_pairs(lam_n: float, region: Region, reach: float) -> float:
    """A bound on the mean number of candidate pairs of one replication with
    an end in the region: its expected points lam_n vol(region) times the
    expected points lam_n vol(B(reach)) within the reach of one of them, so
    every such pair counts at least once.  The two factors are multiplied,
    not lam_n squared, and a ball volume beyond floats gives inf."""
    d = region.dim
    try:
        ball = sphere_surface(d) / d * reach**d
    except OverflowError:
        return math.inf
    return (lam_n * region.volume) * (lam_n * ball)


def _replication_work(lam_n: float, box: Region, reach: float, focus: Region | None) -> float:
    """Expected work of one replication: its points in the box plus its
    candidate pairs touching the focus (the box when None)."""
    return lam_n * box.volume + _expected_pairs(lam_n, box if focus is None else focus, reach)


def block_reps(lam_n: float, box: Region, reach: float, focus: Region | None = None) -> int:
    """Replications per block: at most BLOCK_WORK of ``_replication_work``,
    and a first-axis span that keeps the shifted pair search exact; at least
    one, and one when the work of a replication is not finite.

    The search measures a block's first axis from its lowest first
    coordinate and shifts replication k by k strides, so the block spans less
    than the box's side plus reps strides wherever the box lies; by_span
    keeps that within _EXACT_SPAN * reach."""
    work = _replication_work(lam_n, box, reach, focus)
    if not work < math.inf:
        return 1
    side = box.sides[0]
    by_span = (_EXACT_SPAN * reach - side) / _block_stride(side, reach)
    return max(1, int(min(BLOCK_WORK / work, by_span)))


# Trees (d >= 2) are built by sliding midpoint without shrinking boxes to their
# data: on a block's points that builds and queries faster than median splits
# (by 5-15% of the search on c07, c08 and mc_large blocks), and the pairs found
# are the same.
_TREE_OPTIONS = {"balanced_tree": False, "compact_nodes": False}


def _candidate_pairs(
    points: np.ndarray,
    reach: float,
    rid: np.ndarray | None = None,
    focus: np.ndarray | None = None,
):
    """Index pairs i < j in lexicographic order with their distances <= reach
    and at least one end in ``focus``, a mask of the points (None: all).

    ``_pair_codes`` finds them from the focus points, so pairs of two other
    points are never examined: in d = 1 by one sort and a sweep of windows,
    in d >= 2 by two kd-trees.

    The search reaches slightly beyond the reach so that the boundary rule
    is ``dist <= reach`` on the norm computed here, not the search's own
    rounding: so the pairs are exactly those of the whole search that touch
    the focus, whatever the search.  That norm is summed from per-axis
    differences in axis order, which gives the bits of
    ``np.linalg.norm(points[i] - points[j], axis=1)``: numpy's row-wise
    gather and reduction over a short axis cost several times more than one
    1-D ``take`` per coordinate.

    With ``rid``, the non-decreasing replication number (from 0) of each point,
    the points are a block of stacked replications searched at once.  The
    first axis is searched from the block's lowest first coordinate, and
    replication k is shifted by k * stride along it, the stride being a power
    of two wider than the points' first-axis extent plus twice the reach, so
    no pair crosses replications.  The shifted coordinates lie in [0, reps *
    stride], which ``block_reps`` keeps within _EXACT_SPAN * reach wherever
    the box lies, so the shift rounds a coordinate difference far below the
    query's slack.  The norms are taken on the unshifted points, so each
    replication keeps exactly the pairs of its own search.
    """
    n = points.shape[0]
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    search = points
    if rid is not None and rid[-1] > 0:
        search = points.copy()
        first = search[:, 0]
        first -= first.min()
        first += rid * _block_stride(first.max(), reach)
        if first.max() > _EXACT_SPAN * reach:
            raise SimulationError("replication block too wide for an exact pair search")
    shift = n.bit_length()
    code = _pair_codes(search, reach * (1.0 + 1e-9), shift, focus)
    code.sort()
    i = np.right_shift(code, shift, dtype=np.int64)
    j = np.bitwise_and(code, (1 << shift) - 1, dtype=np.int64)
    del code
    dist = _pair_norms(points, i, j)
    if dist.size and dist.max() <= reach:  # the common case: nothing to drop
        return i, j, dist
    keep = dist <= reach
    return i[keep], j[keep], dist[keep]


def _pair_norms(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|points[i] - points[j]|: the squared norm summed in place in axis
    order, starting from the first axis's square, which gives the bits of
    sum(), whose 0 + x is exact; two more buffers of the pairs' length hold
    the other axes' squares and the gathers."""
    dist, diff, other = (np.empty(i.size) for _ in range(3))
    for k, col in enumerate(np.ascontiguousarray(points.T)):
        out = diff if k else dist
        col.take(i, out=out, mode="clip")  # in range; "raise" would buffer out
        out -= col.take(j, out=other, mode="clip")
        out *= out
        if k:
            dist += out
    return np.sqrt(dist, out=dist)


def _pair_codes(search: np.ndarray, r: float, shift: int, focus: np.ndarray | None) -> np.ndarray:
    """The unsorted codes (i << shift) | j of the pairs i < j of the points
    within r of each other with an end in ``focus``.  Points with one
    coordinate take ``_line_codes``' sweep.  Otherwise one tree holds the
    focus points: its ``query_pairs`` finds the pairs within the focus and
    its ``sparse_distance_matrix`` to a tree of the other points the pairs
    that cross (that tree is empty when focus is None).

    (i << shift) | j sorts as (i, j), as j < n < 2**shift.  As i < n - 1
    the codes are below (n - 1) << shift; when that is at most 2**31, as in
    blocks of up to 2**15 + 1 points, they are int32, which sort in half the
    time.  Tree indices map back to point indices through the focus's and
    the others' point lists, taken in the codes' type; a pair within the
    focus has i < j already.  The trees and their outputs are released on
    return, before the codes are sorted and decoded.
    """
    n = search.shape[0]
    dtype = np.int32 if (n - 1) << shift <= 1 << 31 else np.int64
    if search.shape[1] == 1:
        return _line_codes(search[:, 0], r, shift, focus, dtype)
    from scipy.spatial import cKDTree  # here, so only searches in d >= 2 load scipy

    near, rest = search, search[:0]
    if focus is not None:
        inner = np.flatnonzero(focus).astype(dtype)
        outer = np.flatnonzero(~focus).astype(dtype)
        near, rest = search.take(inner, axis=0), search.take(outer, axis=0)
    tree = cKDTree(near, **_TREE_OPTIONS)
    within = tree.query_pairs(r, output_type="ndarray")
    cross = tree.sparse_distance_matrix(cKDTree(rest, **_TREE_OPTIONS), r, output_type="ndarray")
    del tree
    m = within.shape[0]
    code = np.empty(m + cross.size, dtype=dtype)
    own, crossing = code[:m], code[m:]
    if focus is None:
        np.left_shift(within[:, 0], shift, out=own)
        own |= within[:, 1]
    else:
        np.left_shift(inner[within[:, 0]], shift, out=own)
        own |= inner[within[:, 1]]
    del within
    if cross.size:  # always empty without a focus
        a, b = inner[cross["i"]], outer[cross["j"]]
        del cross
        np.minimum(a, b, out=crossing)
        np.maximum(a, b, out=a)
        crossing <<= shift
        crossing |= a
    return code


def _line_codes(x: np.ndarray, r: float, shift: int, focus: np.ndarray | None, dtype) -> np.ndarray:
    """``_pair_codes`` on one coordinate: one argsort and a sweep of windows
    over the sorted coordinates (Bentley, Stanat and Williams, IPL 6, 1977).

    With a focus, each focus point takes the sorted positions in [x - r,
    x + r]; the point itself is dropped and a pair of two focus points is
    kept once, from its lower index, so no pair of two other points is ever
    formed.  Without one, each sorted position takes the later positions up
    to x + r, which forms each pair once.  The windows are expanded with
    ``repeat`` and ``arange`` into positions, all in the codes' type.
    """
    order = np.argsort(x).astype(dtype)
    xs = x.take(order)
    if focus is None:
        src = order
        lo = np.arange(1, x.size + 1)
        hi = np.searchsorted(xs, xs + r, side="right")
    else:
        src = np.flatnonzero(focus).astype(dtype)
        at = x.take(src)
        lo = np.searchsorted(xs, at - r, side="left")
        hi = np.searchsorted(xs, at + r, side="right")
    counts = hi - lo
    lo -= np.cumsum(counts) - counts
    pos = np.repeat(lo.astype(dtype), counts)
    pos += np.arange(pos.size, dtype=dtype)
    b = order.take(pos)
    del pos
    a = np.repeat(src, counts)
    if focus is not None:
        keep = a < b
        keep |= ~focus.take(b)
        a, b = a[keep], b[keep]
    code = np.minimum(a, b)
    np.maximum(a, b, out=b)
    code <<= shift
    code |= b
    return code


def connect(
    points: np.ndarray,
    conn: ConnectionFunction,
    box: Region,
    reach: float,
    pair_key: int,
) -> PointGraph:
    """One replication's Bernoulli(conn(distance)) edges on all pairs within the search reach."""
    i, j, dist = _candidate_pairs(points, reach)
    rid = np.zeros(points.shape[0], dtype=np.int64)
    return PointGraph(points, (i, j, dist), pair_uniform(pair_key, i, j), conn, box, reach, rid, 1)


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
    and intensity, the sampling box (K widened by the margin) and search
    reach with the bias bound they leave, the focus (the region whose points
    the caller counts, or None for the whole box) and the replications per
    block.  ``block_plan`` builds it."""

    conn: ConnectionFunction
    lam_n: float
    box: Region
    reach: float
    bias_bound: float  # eps_margin + eps_edges, or 0 for bounded support
    focus: Region | None
    reps: int


def block_plan(
    conn: ConnectionFunction,
    lam_n: float,
    K: Region,
    policy: SimPolicy = DEFAULT_POLICY,
    min_reach: float = 0.0,
    min_margin: float = 0.0,
    focus: Region | None = None,
) -> BlockPlan:
    """The plan of a run over K, in K's dimension: the window margin and
    search reach that the policy's bias budgets give (at least min_margin and
    min_reach), their bias bound eps_margin + eps_edges (0 for bounded
    support, where both start at the support radius) and blocks of
    ``block_reps`` replications.  Raises SimulationError when the expected
    point count of K or of the window is not one a Poisson draw can take, or
    when a replication's expected work exceeds MAX_REPLICATION_WORK."""
    if not lam_n > 0:
        raise SimulationError("lam_n must be > 0")
    _expected_points(lam_n, K, "K")
    supp, d = conn.support_radius, K.dim
    t = supp if supp is not None else conn.tail_radius(policy.eps_margin / (lam_n * K.volume), d)
    margin = max(t, min_margin)
    box = K.expand(margin) if margin > 0 else K
    mu = _expected_points(lam_n, box, "window")
    if supp is not None:
        reach, bias = max(supp, min_reach), 0.0
    else:
        # eps_edges over lam_n**2 vol / 2 pairs; squaring lam_n could overflow
        eps = 2.0 * policy.eps_edges / lam_n / mu
        reach, bias = max(conn.tail_radius(eps, d), min_reach), policy.eps_margin + policy.eps_edges
    work = _replication_work(lam_n, box, reach, focus)
    if not work <= MAX_REPLICATION_WORK:
        raise SimulationError(f"a replication's expected work, {work:.6g} points and candidate "
                              f"pairs, exceeds the bound of {MAX_REPLICATION_WORK}")
    return BlockPlan(conn, lam_n, box, reach, bias, focus, block_reps(lam_n, box, reach, focus))


def simulate_graph(
    conn: ConnectionFunction,
    lam_n: float,
    K: Region,
    base_seed: int,
    rep: int,
    policy: SimPolicy = DEFAULT_POLICY,
    min_reach: float = 0.0,
    min_margin: float = 0.0,
) -> PointGraph:
    """Replication rep of base_seed alone: points in K plus margin, connected
    under conn.  It is the block of one replication of the plan with no focus."""
    plan = block_plan(conn, lam_n, K, policy, min_reach, min_margin)
    return simulate_block(plan, base_seed, rep, rep + 1)


def simulate_block(plan: BlockPlan, base_seed: int, lo: int, hi: int) -> PointGraph:
    """Replications lo..hi-1 as one block-diagonal graph of hi - lo
    replications, each point's ``rid`` counted from 0 for lo; blocks are
    ``plan.reps`` replications long.

    Each replication draws its points and pair key from its own streams
    (``block_points``).  Edges carry global point indices, and every coin is
    the replication's own pair uniform at its local indices (``block_coins``).
    With a focus in the plan, its mask is computed once here and kept on the
    graph, and only the pairs with an end in it are searched and tossed;
    every kept pair keeps the coin and length it has in the whole-window graph.
    """
    if not hi > lo:
        raise SimulationError(f"a block needs hi > lo, got lo = {lo} and hi = {hi}")
    box = plan.box
    points, sizes, keys = block_points(box, plan.lam_n, base_seed, lo, hi)
    rid = np.repeat(np.arange(hi - lo), sizes)
    focus = inside = None
    if plan.focus is not None:
        inside = plan.focus.contains(points)
        inside.flags.writeable = False
        focus = (plan.focus, inside)
    i, j, dist = _candidate_pairs(points, plan.reach, rid, inside)
    coins = block_coins(keys, sizes, rid, i, j)
    return PointGraph(points, (i, j, dist), coins, plan.conn, box, plan.reach, rid, hi - lo, focus)


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
    # here, so only component counts load scipy.sparse and csgraph: ~23 MB and
    # ~0.2 s in a process without scipy, ~3 MB and ~0.02 s after scipy.spatial
    from scipy import sparse
    from scipy.sparse import csgraph

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
    if not need.within(graph.box.expand(1e-12)):
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


def component_cell_counts(graph: PointGraph, cells: Region, r: int) -> np.ndarray:
    """Per-cell component statistic over the unit cells z + (0,1]^d of a box
    with integer corners, for each replication of the graph, those without
    points too; shape (graph.reps, *cells.sides).

    Entry at cell z is 1/r times the number of the replication's vertices in
    z + (0,1]^d whose component has exactly r vertices.
    """
    if not all(float(x).is_integer() for x in (*cells.lower, *cells.sides)):
        raise SimulationError(f"cell counts need a box with integer corners, got {cells}")
    _require_component_window(graph, cells, r)
    shape = tuple(int(s) for s in cells.sides)
    size = math.prod(shape)
    sel = _component_sizes(graph) == r
    cell = np.ceil(graph.points[sel]).astype(np.int64) - 1  # x in (z, z+1]
    rel = cell - np.array(cells.lower, dtype=np.int64)
    ok = np.all((rel >= 0) & (rel < np.array(shape)), axis=1)
    flat = graph.rid[sel][ok] * size + np.ravel_multi_index(tuple(rel[ok].T), shape)
    counts = np.bincount(flat, minlength=graph.reps * size) / r
    return counts.reshape(graph.reps, *shape)


def dump_realization(graph: PointGraph, path: str):
    """Line-oriented text dump of one realization (points, then edges)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# points {graph.n_points} dim {graph.points.shape[1]}\n")
        for row in graph.points:
            fh.write("point " + " ".join(repr(float(x)) for x in row) + "\n")
        fh.write(f"# edges {graph.edge_i.size}\n")
        for i, j, dist in zip(graph.edge_i, graph.edge_j, graph.edge_dist):
            fh.write(f"edge {int(i)} {int(j)} {float(dist)!r}\n")
