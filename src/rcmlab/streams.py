"""The random words of every replication: its points and its edge coins.

Randomness is split into two independent streams per replication rep of a
base seed b, the children of its sequence SeedSequence(b, spawn_key=(rep,)):

* point positions come from the PCG64 generator of child 0,
  SeedSequence(b, spawn_key=(rep, 0));
* per-pair edge coin flips come from a counter-based hash of the unordered
  point-index pair, keyed by the first 64-bit word of child 1.

A block of consecutive replications takes two calls.  ``block_points``
draws the points of them all and returns each one's pair key, and
``block_coins`` hashes the coins of the block's candidate pairs under those
keys, so the seed pass runs once a block.

numpy mixes b into the pool once per base seed (``_base_pool``).  The rest,
which numpy has no vectorised form of, is one pass of its hash
(numpy.random.bit_generator, after O'Neill's seed_seq_fe) in uint32
arithmetic over a whole block: ``_seed_words`` mixes each rep and c into
that pool and runs generate_state, which hashes out the seed words of all
the block's streams.  ``_pcg64_states`` then takes PCG64's two seeding steps
(pcg64_set_seed) in 64-bit limbs over the block, which turn each
replication's seed words into the PCG64 state numpy would seed from them.
``_point_generator`` holds the thread's one generator, whose four state
words each replication overwrites in place before it draws its count and,
into the block's one coordinate buffer, the coordinates ``sample_points``
would draw from that state.  Only the point count and coordinates are drawn
per replication, by numpy's own samplers, so the streams are numpy's, bit
for bit; ``test_seed_words_match_numpy`` holds the words and states to
numpy's.
"""

from __future__ import annotations

import ctypes
import math
import operator
import sys
import threading
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .quadrature import Region


class SimulationError(RuntimeError):
    """Violated simulation precondition (margin, reach, support or stream)."""


# -- pair-indexed uniforms ----------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE, _S11, _S27, _S30, _S31 = (np.uint64(s) for s in (1, 11, 27, 30, 31))


def pair_uniform(key: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Deterministic uniforms indexed by unordered point pairs.

    Uses the splitmix64 finaliser (Steele et al., OOPSLA'14) on
    key + golden * (triangular pair code + 1), all mod 2**64: the code of
    lo <= hi is (hi * (hi - 1) mod 2**64) // 2 + lo.  Independent of pair
    enumeration order and of worker layout.  key is an integer or an array of
    them, one per pair.  The hash runs in place on one uint64 buffer, with a
    second for the shifted words, which then holds the uniforms.
    """
    shape = np.broadcast_shapes(np.shape(key), np.shape(i), np.shape(j))
    z, t = np.empty(shape, dtype=np.uint64), np.empty(shape, dtype=np.uint64)
    with np.errstate(over="ignore"):
        np.maximum(i, j, out=z, casting="unsafe")  # hi, cast to uint64 as by astype
        _halved_triangle(z, t)
        np.minimum(i, j, out=z, casting="unsafe")  # lo
        z += t
        return _hashed_codes(z, t, np.asarray(key, dtype=np.uint64))


def _halved_triangle(hi: np.ndarray, out: np.ndarray):
    """out = (hi * (hi - 1) mod 2**64) // 2 of the uint64 words hi."""
    np.subtract(hi, _ONE, out=out)
    out *= hi
    out >>= _ONE  # // 2 of an unsigned word


def _hashed_codes(z: np.ndarray, t: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The uniforms of the triangular pair codes z under key: splitmix64 of
    key + golden * (z + 1), run in place on z with t for the shifted words.
    key may be t itself, as it is read before t is written.  The uniforms
    are returned in t's memory."""
    z += _ONE
    z *= _GOLDEN
    z += key
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    z >>= _S11
    return np.multiply(z, 2.0**-53, out=t.view(np.float64))


def _block_uniforms(key: np.ndarray, local: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """pair_uniform(key[i], local[i], local[j]) element for element, for the
    pairs i < j of a block whose points carry their replication's pair key
    and their uint64 index within that replication.  Both ends of a pair lie
    in one replication, where i < j gives local[i] < local[j], so the ends
    need no ordering; and the key is gathered per pair into the buffer whose
    triangular codes have just been added in.  Two uint64 buffers of the
    pairs' length in all, the second of which returns the uniforms."""
    z, t = np.empty(i.size, dtype=np.uint64), np.empty(i.size, dtype=np.uint64)
    with np.errstate(over="ignore"):
        local.take(j, out=z, mode="clip")  # hi; in range, and "raise" would buffer out
        _halved_triangle(z, t)
        local.take(i, out=z, mode="clip")  # lo
        z += t
        return _hashed_codes(z, t, key.take(i, out=t, mode="clip"))


# -- replication streams ------------------------------------------------------


def sample_points(lam_n: float, box: Region, rng: np.random.Generator) -> np.ndarray:
    """Poisson(lam_n * vol) points placed i.i.d. uniformly in the box: the
    count, then the unit-cube coordinates, from one generator, each scaled
    by its side and shifted by its lower corner."""
    if not lam_n > 0:
        raise SimulationError("lam_n must be > 0")
    unit = rng.random((rng.poisson(lam_n * box.volume), box.dim))
    return np.array(box.lower) + unit * np.array(box.sides)


_M32 = 0xFFFFFFFF
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


@lru_cache(maxsize=64)
def _base_pool(base_seed: int) -> tuple[np.ndarray, int]:
    """The pool of SeedSequence(base_seed, spawn_key=...) before its spawn
    key is mixed in, and the number of hash calls made.  A short seed's
    missing pool words hash as 0 whether or not a key follows, so this is
    numpy's pool of SeedSequence(base_seed): 16 calls fill and cross-mix the
    four pool words, and each seed word past the fourth takes 4 more."""
    words = -(-max(base_seed.bit_length(), 1) // 32)
    return _frozen(np.random.SeedSequence(base_seed).pool), 16 + 4 * max(0, words - 4)


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

    numpy computes the base seed's pool (``_base_pool``, cached).  One pass
    over the block then mixes the spawn key's two words, rep and c, into it
    and hashes the pool into the words.  A block that reaches rep >= 2**32,
    whose spawn keys take more words, is left to numpy rep by rep.
    """
    base_seed, lo, hi = operator.index(base_seed), operator.index(lo), operator.index(hi)
    if base_seed < 0 or lo < 0:
        raise ValueError("base seed and replication numbers must be >= 0")
    if hi > 1 << 32:
        seeds, keys = np.empty((hi - lo, 4), dtype=np.uint64), np.empty(hi - lo, dtype=np.uint64)
        for k, rep in enumerate(range(lo, hi)):
            points, pairs = np.random.SeedSequence(base_seed, spawn_key=(rep,)).spawn(2)
            seeds[k] = points.generate_state(4, np.uint64)
            keys[k] = pairs.generate_state(1, np.uint64)[0]
        return seeds, keys
    base, k = _base_pool(base_seed)
    rep = np.arange(lo, hi, dtype=np.uint32)[:, None]
    pool = _mixed(base, _hashed(rep, _hash_consts(_INIT_A, _MULT_A, k, 4)))
    child = np.array([0, 1], dtype=np.uint32)[:, None, None]  # c = 0, 1
    pool = _mixed(pool, _hashed(child, _hash_consts(_INIT_A, _MULT_A, k + 4, 4)))  # (2, m, 4)
    state = _hashed(pool[..., None, :], _OUT_CONSTS).reshape(2, hi - lo, 8)
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return words[0], words[1, :, 0]


class _PointSeed(ISeedSequence):
    """One replication's four PCG64 seed words, handed to ``PCG64`` the way
    its SeedSequence would hand them, so PCG64 seeds itself from them
    (pcg64_srandom_r) exactly as from that SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for exactly 4 uint64 words


# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128) as its high and
# low 64-bit words, and the mask and shifts of 64-bit limb arithmetic, all 0-d
# uint64 arrays
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = (np.array(c, dtype=np.uint64) for c in (_PCG_MULT >> 64, _PCG_MULT & 2**64 - 1))
_LO32, _S32, _S63 = (np.array(c, dtype=np.uint64) for c in (_M32, 32, 63))


def _mul_hi(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products x * c of uint64 words, from
    32-bit halves (Warren, Hacker's Delight, 8-2)."""
    x0, x1, c0, c1 = x & _LO32, x >> _S32, c & _LO32, c >> _S32
    t = x1 * c0 + ((x0 * c0) >> _S32)
    u = x0 * c1 + (t & _LO32)
    return x1 * c1 + (t >> _S32) + (u >> _S32)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 PCG64 states of the (m, 4) seed words, row k being
    the four state words of PCG64(_PointSeed(seeds[k])) in memory order:
    state and increment, each a 128-bit integer as (low, high) words.

    pcg64_set_seed reads words (0, 1) as initstate and (2, 3) as initseq,
    each (high, low), sets inc = 2 initseq + 1 and takes two LCG steps from
    0, adding initstate between them: state = ((inc + initstate) * MULT +
    inc) mod 2**128 (O'Neill, HMC-CS-2014-0905).  The 128-bit sums carry
    by comparison and the product keeps the three partial products below
    2**128, all in uint64 arrays, which wrap mod 2**64.
    """
    hi0, lo0, hi1, lo1 = seeds.T
    states = np.empty(seeds.shape, dtype=np.uint64)
    inc_lo, inc_hi = states[:, 2], states[:, 3]
    np.bitwise_or(lo1 << _ONE, _ONE, out=inc_lo)
    np.bitwise_or(hi1 << _ONE, lo1 >> _S63, out=inc_hi)
    a_lo = inc_lo + lo0
    a_hi = inc_hi + hi0 + (a_lo < inc_lo)
    p_hi = _mul_hi(a_lo, _MULT_LO) + a_lo * _MULT_HI + a_hi * _MULT_LO
    s_lo = states[:, 0]
    np.add(a_lo * _MULT_LO, inc_lo, out=s_lo)
    np.add(p_hi + inc_hi, s_lo < inc_lo, out=states[:, 1])
    return states


_THREAD = threading.local()  # .points: the thread's point generator and its state words


def _point_generator(seed: np.ndarray) -> tuple[np.random.Generator, np.ndarray]:
    """This thread's point generator and a writable view of its PCG64's four
    state words, built on the thread's first call from the seed words given.

    Writing a row of ``_pcg64_states`` into the view reseeds the generator
    as PCG64 would seed itself from those words: the state words live in the
    PCG64 object, reached through the pointer at its documented
    ``ctypes.state_address``, and the count and coordinate draws take 64-bit
    words only, so its buffered 32-bit word stays unused.  Before the view
    is handed out, the pointer must lie within the object and the words read
    there must equal the state computed for the seed, or SimulationError is
    raised: there is no other path to fall back to.  Each thread keeps its
    own generator, so none is shared between threads.
    """
    held = getattr(_THREAD, "points", None)
    if held is None:
        bits = np.random.PCG64(_PointSeed(seed))
        at = ctypes.c_void_p.from_address(bits.ctypes.state_address).value or 0
        if not id(bits) <= at <= id(bits) + sys.getsizeof(bits) - 32:
            raise SimulationError("numpy's PCG64 keeps its state words outside the object, "
                                  "so they cannot be written in place")
        words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(at))
        if not np.array_equal(words, _pcg64_states(seed[None])[0]):
            raise SimulationError("numpy's PCG64 state words differ from the state computed "
                                  "for its seed, so they cannot be written in place")
        held = _THREAD.points = (np.random.Generator(bits), words)
    return held


def block_points(box: Region, lam_n: float, base_seed: int, lo: int,
                 hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replications lo..hi-1 of base_seed drawn at intensity lam_n in the
    box: the (N, d) points of them all in replication order, each one's point
    count and each one's uint64 pair key, which ``block_coins`` takes.

    The coordinates of every replication are drawn into one buffer of the
    block, which starts at the block's expected length and, when a draw
    overflows it, is replaced by one of twice its size (or of the draw's
    end) holding what was drawn; the points are placed in it in place.
    """
    seeds, keys = _seed_words(base_seed, lo, hi)
    mu, dim = lam_n * box.volume, box.dim
    rng, words = _point_generator(seeds[0])
    poisson, random = rng.poisson, rng.random
    buf, end, counts = np.empty(dim * math.ceil((hi - lo) * mu)), 0, []
    for state in _pcg64_states(seeds):
        words[:] = state
        k = poisson(mu)
        start, end = end, end + k * dim
        if end > buf.size:
            grown = np.empty(max(2 * buf.size, end))
            grown[:start] = buf[:start]
            buf = grown
        random(out=buf[start:end])
        counts.append(k)
    points = buf[:end].reshape(-1, dim)
    points *= box.sides  # the bits of sample_points' placement
    points += box.lower
    return points, np.array(counts), keys


def block_coins(keys: np.ndarray, sizes: np.ndarray, rid: np.ndarray, i: np.ndarray,
                j: np.ndarray) -> np.ndarray:
    """The coins of the pairs i < j of a block of ``block_points``' keys and
    point counts, rid being each point's replication: each pair's
    ``pair_uniform`` under its replication's key at its local indices."""
    local = (np.arange(rid.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)).astype(np.uint64)
    return _block_uniforms(keys.take(rid), local, i, j)
