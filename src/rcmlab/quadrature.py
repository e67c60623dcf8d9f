"""Deterministic quadrature: radial integrals over R^d, two-center overlap
integrals, and covariogram reduction of double integrals over K x K.

The core integrator is an adaptive Gauss rule pair (orders 10 and 21) with
worst-interval bisection.  Indicator discontinuities destroy the convergence
order of any fixed rule, so every caller passes the cut radii of its
integrand as explicit breakpoints and the integrator subdivides there
exactly.  Integrands are evaluated vectorised (ndarray -> ndarray).

Observation regions are axis-aligned boxes with half-open membership
(lower < x <= lower + side), which keeps volumes, diameters, covariograms
and margins exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .connfn import _EPS, _SUBNORMAL, ConnectionFunction, _ldexp, sphere_surface


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before reaching the tolerance."""


class QuadResult(NamedTuple):
    value: float
    error: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for all quadrature in a run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdiv: int = 512
    # mass dropped beyond each quadrature cutoff: radial_of's, the quadrature
    # overlaps' and the variance brackets'; the closed-form masses drop none
    tail_eps: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.tail_eps > 0):
            raise ValueError("tolerances must be > 0")
        if self.tail_eps > self.abs_tol:
            raise ValueError("tail epsilon must not exceed the absolute tolerance")
        if self.max_subdiv < 4:
            raise ValueError("max_subdiv too small")

    def inner(self) -> "QuadratureSpec":
        """Slightly tightened spec for nested (inner) integrals, its tail_eps
        capped at its abs_tol."""
        return replace(self, rel_tol=self.rel_tol * 0.1, abs_tol=self.abs_tol * 0.1,
                       tail_eps=min(self.tail_eps, self.abs_tol * 0.1))


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class Region:
    """Axis-aligned box in R^d with half-open membership lower < x <= upper."""

    lower: tuple[float, ...]
    sides: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.sides) or not self.lower:
            raise ValueError("lower and sides must have equal positive length")
        if any(not s > 0 for s in self.sides):
            raise ValueError("all side lengths must be > 0")

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(lo + s for lo, s in zip(self.lower, self.sides))

    @property
    def volume(self) -> float:
        return float(math.prod(self.sides))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.sides))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points (m, d) in the half-open box; a 1-D array is
        one point.  Compared column by column, which costs less than numpy's
        row-wise reduction over a short axis."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have {pts.shape[1]} coordinates, the box {self.dim}")
        inside = np.ones(pts.shape[0], dtype=bool)
        for col, lo, up in zip(pts.T, self.lower, self.upper):
            inside &= (col > lo) & (col <= up)
        return inside

    def within(self, other: "Region") -> bool:
        """Whether the box lies in other, so that every point it contains
        other contains too."""
        return self.dim == other.dim and all(
            ol <= lo and up <= ou
            for lo, up, ol, ou in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def expand(self, margin: float) -> "Region":
        if margin < 0:
            raise ValueError("margin must be >= 0")
        return Region(
            tuple(lo - margin for lo in self.lower),
            tuple(s + 2 * margin for s in self.sides),
        )


def unit_box(d: int) -> Region:
    return Region((0.0,) * d, (1.0,) * d)


# -- adaptive integrator ------------------------------------------------------

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)
_NODES_ALL = np.concatenate([_NODES_HI, _NODES_LO])
_WEIGHTS_ALL = np.concatenate([_WEIGHTS_HI, _WEIGHTS_LO])
_RULE_STARTS = np.array([0, _NODES_HI.size])


def _eval_rows(f, rows, lo, hi):
    """The Gauss pair on [lo[k], hi[k]] of row rows[k], for every k at once.

    Each row's weighted sums run over its own nodes in a fixed order, so a
    row's value does not depend on which other rows share the sweep.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    y = np.asarray(f(mid[:, None] + half[:, None] * _NODES_ALL, rows), dtype=float)
    sums = np.add.reduceat(y * _WEIGHTS_ALL, _RULE_STARTS, axis=1)
    vhi = half * sums[:, 0]
    return vhi, np.abs(vhi - half * sums[:, 1])


def adaptive_quad_rows(f, a, b, spec: QuadratureSpec = DEFAULT_SPEC, breakpoints=()):
    """Integrate many 1-D integrals in one numpy sweep: row i is int_{a_i}^{b_i}.

    f(x, rows) gets nodes x of shape (k, q) and the row index of each of the
    k intervals, and returns the integrand at those nodes.  breakpoints is
    (c,) shared by all rows or (m, c) per row; cuts outside (a_i, b_i) clip
    to its ends and give empty pieces.  Each row is refined alone: worst piece
    first, ties to the earliest created, until its error is at most
    max(abs_tol, rel_tol * |total|); QuadratureError once it holds max_subdiv
    pieces short of that.  Returns (values, errors) as arrays of length m.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m = a.size
    b = np.broadcast_to(np.asarray(b, dtype=float), (m,))
    cuts = np.asarray(breakpoints, dtype=float)
    if cuts.ndim < 2:
        cuts = np.broadcast_to(cuts.reshape(-1), (m, cuts.size))
    cuts = np.sort(np.clip(cuts, a[:, None], b[:, None]), axis=1)
    edges = np.concatenate([a[:, None], cuts, b[:, None]], axis=1)
    s_lo, s_hi = edges[:, :-1], edges[:, 1:]
    live = s_hi > s_lo
    width = live.shape[1]
    s_val = np.zeros(live.shape)
    s_err = np.zeros(live.shape)
    if live.any():
        s_val[live], s_err[live] = _eval_rows(f, np.nonzero(live)[0], s_lo[live], s_hi[live])
    total = s_val[:, 0].copy()
    total_err = s_err[:, 0].copy()
    for j in range(1, width):  # piece by piece, in creation order
        total += s_val[:, j]
        total_err += s_err[:, j]
    pieces = live.sum(axis=1)
    # Column j of a row holds its j-th created piece and bisected or empty
    # pieces hold error -inf, so argmax picks the earliest of equally bad
    # pieces.  Every row still refining splits once per sweep, so new pieces
    # share a column.
    s_err[~live] = -np.inf

    values = np.empty(m)
    errors = np.empty(m)
    ids = np.arange(m)
    col = cap = width
    while True:
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        need = ~(total_err <= tol)
        spent = np.nonzero(need & (pieces >= spec.max_subdiv))[0]
        if spent.size:
            i = spent[0]
            raise QuadratureError(
                f"no convergence within {spec.max_subdiv} subdivisions "
                f"(row {ids[i]}, err {total_err[i]:.3e}, tol {tol[i]:.3e})"
            )
        if not need.all():
            done = ~need
            values[ids[done]] = total[done]
            errors[ids[done]] = total_err[done]
            ids, total, total_err, pieces = ids[need], total[need], total_err[need], pieces[need]
            s_lo, s_hi, s_val, s_err = s_lo[need], s_hi[need], s_val[need], s_err[need]
        if not ids.size:
            return values, errors

        if col + 2 > cap:  # each sweep writes two columns
            more = np.zeros((ids.size, max(col, 16)))
            s_lo, s_hi, s_val = (np.concatenate([x, more], axis=1) for x in (s_lo, s_hi, s_val))
            s_err = np.concatenate([s_err, more - np.inf], axis=1)
            cap = s_err.shape[1]

        k = ids.size
        at = np.arange(k)
        worst = np.argmax(s_err, axis=1)
        lo, hi = s_lo[at, worst], s_hi[at, worst]
        total -= s_val[at, worst]
        total_err -= s_err[at, worst]
        s_err[at, worst] = -np.inf
        mid = 0.5 * (lo + hi)
        val, est = _eval_rows(
            f, np.concatenate([ids, ids]), np.concatenate([lo, mid]), np.concatenate([mid, hi])
        )
        total += val[:k]
        total_err += est[:k]
        total += val[k:]
        total_err += est[k:]
        halves = ((lo, mid, val[:k], est[:k]), (mid, hi, val[k:], est[k:]))
        for c, (h_lo, h_hi, h_val, h_err) in enumerate(halves, start=col):
            s_lo[:, c], s_hi[:, c], s_val[:, c], s_err[:, c] = h_lo, h_hi, h_val, h_err
        col += 2
        pieces += 1


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints=(),
) -> QuadResult:
    """Integrate a vectorised f over [a, b]: the one-row adaptive_quad_rows.

    Interior breakpoints become initial interval endpoints, so integrands
    that are smooth between their cuts converge at full order.  f gets a
    flat array of nodes.
    """
    if b <= a:
        return QuadResult(0.0, 0.0)
    val, err = adaptive_quad_rows(
        lambda x, rows: f(x.ravel()).reshape(x.shape), [a], b, spec, [list(breakpoints)]
    )
    return QuadResult(float(val[0]), float(err[0]))


# -- radial and overlap integrals ---------------------------------------------


def radial_of(
    F: Callable[[np.ndarray], np.ndarray],
    d: int,
    T: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints=(),
) -> QuadResult:
    """omega_d int_0^T r^{d-1} F(r) dr for a vectorised radial F.

    T is the cutoff of an improper integral whose discarded tail is below
    tail_eps, so tail_eps is added to the reported error bound.
    """
    if T <= 0.0:
        return QuadResult(0.0, spec.tail_eps)
    om = sphere_surface(d)
    val, err = adaptive_quad(lambda r: om * r ** (d - 1) * F(r), 0.0, T, spec, breakpoints)
    return QuadResult(val, err + spec.tail_eps)


def radial_integral(h: ConnectionFunction, d: int) -> QuadResult:
    """int_{R^d} h(|y|) dy in closed form (ConnectionFunction.mass), with its
    rounding bound; QuadratureError when the mass is beyond floats."""
    try:
        value, error = h.mass(d)
    except OverflowError:
        value = error = math.inf
    if not (math.isfinite(value) and math.isfinite(error)):
        raise QuadratureError(f"int of {h.kind} in d = {d} is beyond floats")
    return QuadResult(value, error)


# Outer r-points per inner adaptive_quad_rows call.  A row's value does not
# depend on its batch, so this bounds the inner sweep's (rows x pieces x
# nodes) arrays without changing any result.
_INNER_CHUNK = 256


def _pair_breaks(s: np.ndarray, cuts: tuple[float, ...]) -> np.ndarray:
    """Radii where |r - s| or r + s crosses one of the cuts, one row per s.

    Entries <= 0 are kept: adaptive_quad_rows clips them to empty pieces.
    """
    c = np.asarray(cuts, dtype=float)
    sc = s[:, None]
    return np.concatenate([sc + c, sc - c, c - sc], axis=1)


def overlap_rows(
    h1: ConnectionFunction,
    h2: ConnectionFunction,
    s,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[np.ndarray, np.ndarray]:
    """O(s) = int_{R^d} h1(|y|) h2(|y - s e1|) dy for every separation in s.

    Untruncated pairs of one builtin kind have closed forms, after each
    scale factor n is folded into the parameter (a scaled exponential(a) is
    exponential(a / n), and a hard disk cut inside is a smaller disk); see
    _closed_overlap:

        exponential, equal a    d=1  (a + s) e^{-s/a}
                                d=2  pi s^2 K_2(s/a) / 4
                                d=3  pi a^3 e^{-s/a} (1 + s/a + s^2 / (3 a^2))
        gaussian, any a1, a2    (pi a1^2 a2^2 / q)^{d/2} e^{-s^2/q}, q = a1^2 + a2^2
        hard disks, any radii   interval overlap (d=1), lens area (d=2),
                                lens volume (d=3)

    Their errors are rounding bounds, without tail_eps.  Every other pair
    (otherwise truncated, table, mixed kinds, unequal exponential scales) is
    integrated by _quadrature_overlap.  Returns (values, errors) as flat
    arrays; QuadratureError, naming the pair and the first separation, when
    a value or a bound is beyond floats.
    """
    s = _separations(s, d)
    closed = _closed_overlap(h1, h2, s, d)
    values, errors = closed if closed is not None else _quadrature_overlap(h1, h2, s, d, spec)
    beyond = ~(np.isfinite(values) & np.isfinite(errors))
    if beyond.any():
        raise QuadratureError(
            f"overlap of {h1!r} and {h2!r} in d = {d} is beyond floats "
            f"at s = {float(s[np.argmax(beyond)])!r}"
        )
    return values, errors


def _separations(s, d: int) -> np.ndarray:
    """The separations as a flat float array, checked along with d."""
    s = np.asarray(s, dtype=float).reshape(-1)
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if not np.isfinite(s).all():
        raise ValueError("separation must be finite")
    if (s < 0).any():
        raise ValueError("separation must be >= 0")
    return s


def _quadrature_overlap(
    h1: ConnectionFunction,
    h2: ConnectionFunction,
    s,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[np.ndarray, np.ndarray]:
    """overlap_rows by nested adaptive quadrature, for any pair of functions.

    d=1 integrates h1(r) (h2(|r-s|) + h2(r+s)) directly; d=2 uses the polar
    angle form with |y - s e1| = sqrt(r^2 + s^2 - 2 r s cos(theta)); d=3 uses
    the same reduction with cos(theta) substituted away, which leaves the
    chord integral int t h2(t) dt over [|r-s|, r+s].  All separations share
    one adaptive_quad_rows over r, each row on its own [lo(s), hi(s)] with
    its own breakpoints, and the inner theta or chord integrals of every
    live (s, r) node run together.  Returns (values, errors) as flat arrays.
    """
    s = _separations(s, d)
    values = np.zeros(s.size)
    errors = np.zeros(s.size)
    supp1, supp2 = h1.support_radius, h2.support_radius
    todo = np.ones(s.size, dtype=bool)
    if supp1 is not None and supp2 is not None:
        todo = s < supp1 + supp2
    # only the d >= 2 forms divide by s; d=1 integrates tiny s like any other.
    # Such an s takes O(0), and its error s times h2's shift_variation, which
    # bounds |O(s) - O(0)| as 0 <= h1 <= 1, plus tail_eps for h1's mass beyond
    # its tail radius.
    at_zero = todo & (s <= 1e-12) & (d >= 2)
    if at_zero.any():
        T = min(h1.tail_radius(spec.tail_eps, d), h2.tail_radius(spec.tail_eps, d))
        values[at_zero], errors[at_zero] = radial_of(
            lambda r: h1.eval(r) * h2.eval(r), d, T, spec, h1.cut_radii + h2.cut_radii
        )
        shifted = at_zero & (s > 0.0)
        if shifted.any():
            errors[shifted] += s[shifted] * h2.shift_variation(d) + spec.tail_eps
    todo &= ~at_zero

    lo = np.zeros(s.size)
    hi = np.full(s.size, h1.tail_radius(spec.tail_eps, d))
    if supp2 is not None:
        hi = np.minimum(hi, s + supp2)
        if d >= 2:
            lo = np.maximum(0.0, s - supp2)
    errors[todo & (hi <= lo)] = spec.tail_eps
    rows = np.nonzero(todo & (hi > lo))[0]
    if not rows.size:
        return values, errors
    sr = s[rows]

    cuts1 = np.asarray(h1.cut_radii, dtype=float)
    # the integrand kinks at r = s: h2(|r - s|) in d=1, and the theta or
    # chord mass of a kinked h2 in d >= 2
    breaks = np.concatenate(
        [
            np.broadcast_to(cuts1, (sr.size, cuts1.size)),
            sr[:, None],
            _pair_breaks(sr, h2.cut_radii),
        ],
        axis=1,
    )

    if d == 1:
        def integrand(r, at):
            sa = sr[at, None]
            return h1.eval(r) * (h2.eval(np.abs(r - sa)) + h2.eval(r + sa))

    else:
        inner_spec = spec.inner()
        cut2 = np.asarray(h2.cut_radii, dtype=float)

        if d == 2:
            def inner_mass(r, sa):
                """int_0^pi h2(sqrt(r^2 + s^2 - 2 r s cos(theta))) dtheta, one row per (r, s)."""
                rc, sc = r[:, None], sa[:, None]
                near, far = rc * rc + sc * sc, 2.0 * rc * sc  # |y - s e1|^2 = near - far cos(theta)
                cos_cut = np.clip((near - cut2 * cut2) / far, -1.0, 1.0)
                inside = (np.abs(rc - sc) < cut2) & (cut2 < rc + sc)
                angles = np.where(inside, np.arccos(cos_cut), 0.0)

                def f(th, at):
                    return h2.eval(np.sqrt(near[at] - far[at] * np.cos(th)))

                return adaptive_quad_rows(f, np.zeros_like(r), math.pi, inner_spec, angles)[0]

        else:
            def inner_mass(r, sa):
                """Chord mass int t h2(t) dt over [|r - s|, r + s], one row per (r, s)."""
                return adaptive_quad_rows(
                    lambda t, at: t * h2.eval(t), np.abs(r - sa), r + sa, inner_spec, cut2
                )[0]

        def integrand(x, at):
            base = h1.eval(x)
            out = np.zeros_like(base)
            live = np.nonzero((base > 0.0) & (x > 0.0))
            r = x[live]
            sa = sr[at[live[0]]]
            mass = np.empty(r.size)
            for k in range(0, r.size, _INNER_CHUNK):
                part = slice(k, k + _INNER_CHUNK)
                mass[part] = inner_mass(r[part], sa[part])
            prefactor = 2.0 if d == 2 else 2.0 * math.pi / sa
            out[live] = prefactor * r * base[live] * mass
            return out

    val, err = adaptive_quad_rows(integrand, lo[rows], hi[rows], spec, breaks)
    values[rows] = val
    errors[rows] = err + spec.tail_eps
    return values, errors


# -- closed-form overlaps -----------------------------------------------------
#
# Each closed form reports twice a first-order bound on its rounding error,
# built from the sizes of the terms it combines and of its exp/Bessel argument,
# never from the size of the result alone, which cancellation can make small.
# A scale factor that is not a power of two folds into the parameter with
# one rounding, whose effect the bound covers too.

_SEG_SERIES = tuple((-1) ** n * 6.0 / math.factorial(2 * n + 3) for n in range(9))


def _folded(h: ConnectionFunction):
    """(kind, a, da) of a builtin with its scale factors folded into a, or
    None for a table or a cut function.  A hard disk cut inside at hi is the
    disk of radius min(a, hi), and one of radius 0 takes the quadrature.

    da bounds |a - exact a|: half an ulp per fold that rounds.
    """
    if h.kind == "table" or h.lo is not None or (h.hi is not None and h.kind != "hard_disk"):
        return None
    m, e, rounded = h._fold(h.a)
    a = _ldexp(m, e)  # inf for a radius beyond floats, which a cut at hi may bound
    if h.hi is not None:
        a = min(a, h.hi)
    return (h.kind, a, 0.5 * _EPS * a * rounded) if a > 0.0 else None


def _closed_overlap(h1: ConnectionFunction, h2: ConnectionFunction, s: np.ndarray, d: int):
    """(values, errors) of overlap_rows in closed form, or None for a pair without one."""
    f1, f2 = _folded(h1), _folded(h2)
    if f1 is None or f2 is None or f1[0] != f2[0]:
        return None
    kind, a1, da1 = f1
    _, a2, da2 = f2
    if kind == "hard_disk":
        return _disk_overlap(a1, a2, s, d, da1, da2)
    fold = da1 / a1 + da2 / a2  # O rises with each a_i, so each log-slope is at most their sum's
    if kind == "gaussian":
        return _gaussian_overlap(a1, a2, s, d, fold)
    if a1 == a2:
        return _exponential_overlap(a1, s, d, fold)
    return None


# x^2 K_2(x) e^x in two regimes, split at x = _K2_SWITCH.  The constants are
# mpmath values rounded to double; tests/test_quadrature.py recomputes them.
#
# Up to the switch, the series of Abramowitz & Stegun 9.6.11 with h = x / 2:
#   x^2 K_2(x) = 2 - 2 h^2 + sum_k (2 D_k - 4 C_k log h) h^(2k+4),
#   C_k = 1 / (k! (k+2)!),  D_k = (psi(k+1) + psi(k+3)) C_k,  k = 0..10.
# Every term of the sum is positive there.  _K2_COEF holds 2 D_k and
# _K2_LOG_COEF holds -4 C_k for k = 10..0, then the terms -2 h^2 and 2, so
# the sum adds its least terms first.
_K2_SWITCH = 1.5
_K2_POWERS = np.arange(24.0, -1.0, -2.0)
_K2_COEF = np.array([
    5.6124091348631636e-15, 6.4817556808982418e-13, 6.1407905448846550e-11,
    4.6665849428364213e-09, 2.7649814078029082e-07, 1.2307404584614452e-05,
    3.9107662077896618e-04, 8.2284314912877809e-03, 1.0120425014709448e-01,
    5.5963400117675588e-01, 3.4556867019693427e-01, -2.0000000000000000e+00,
    2.0000000000000000e+00,
])
_K2_LOG_COEF = np.array([
    -2.3012298267050374e-15, -2.7614757920460450e-13, -2.7338610341255845e-11,
    -2.1870888273004676e-09, -1.3778659611992944e-07, -6.6137566137566140e-06,
    -2.3148148148148149e-04, -5.5555555555555558e-03, -8.3333333333333329e-02,
    -6.6666666666666663e-01, -2.0000000000000000e+00, 0.0000000000000000e+00,
    0.0000000000000000e+00,
])
# Beyond it, x^2 K_2(x) e^x = (1/3) int_0^inf e^-w [w (2x + w)]^(3/2) dw by the
# 28-point Gauss-Laguerre rule for the weight w^(3/2) e^-w (Golub & Welsch,
# Math. Comp. 23, 1969): sum_i W_i (x + u_i)^(3/2) with u_i half the i-th
# node and W_i its weight times 2^(3/2) / 3, in ascending order of weight.
_K2_NODES = np.array([
    4.9700758114722362e+01, 4.3504398734553483e+01, 3.8683878114048902e+01,
    3.4618302221478011e+01, 3.1066047135770681e+01, 2.7900714640704649e+01,
    2.5045536744061657e+01, 2.2449414081133689e+01, 2.0076151477702911e+01,
    1.7898934357687768e+01, 1.5897215866064881e+01, 1.4054835417814752e+01,
    1.2358818024355234e+01, 1.0798574057440987e+01, 9.3653466529537699e+00,
    8.0518187380725674e+00, 6.8518266056583661e+00, 5.7601467717547417e+00,
    4.7723345724088295e+00, 8.6332889502703902e-02, 3.8846001467425100e+00,
    3.0937120070439801e+00, 2.5542804461265289e-01, 2.3969213618191221e+00,
    1.7919023351586449e+00, 5.0963074318323875e-01, 1.2767045669223152e+00,
    8.4971557662658548e-01,
])
_K2_WEIGHTS = np.array([
    9.3529397963789840e-40, 1.3335385133699933e-34, 1.4127075183800701e-30,
    3.5040126830484977e-27, 3.2058318542978863e-24, 1.3750017540429825e-21,
    3.2001148002479600e-19, 4.4552285858615579e-17, 3.9754279444820690e-15,
    2.3923912349427920e-13, 1.0093851503371223e-11, 3.0772454748725919e-10,
    6.9421544943356622e-09, 1.1810970023867238e-07, 1.5384554790968321e-06,
    1.5525487588877813e-05, 1.2249152905327909e-04, 7.6048594774948597e-04,
    3.7301477428326691e-03, 1.4429896906164927e-02, 1.4473169995095111e-02,
    4.4339181812583457e-02, 8.7382818056645009e-02, 1.0661555415850443e-01,
    1.9887780272007993e-01, 2.0795661410055041e-01, 2.8189444203030778e-01,
    2.9271434300294941e-01,
])


def _x2_k2_ex(x: np.ndarray) -> np.ndarray:
    """x^2 K_2(x) e^x for an array of x > 0 (see the constants above).

    Within 2.17 ulps of mpmath at 16,500 points over [1e-100, 800].  Each
    entry is one dot product over its own row (np.vecdot), so its value does
    not depend on the other entries.
    """
    out = np.empty(x.shape)
    small = x <= _K2_SWITCH
    xs = x[small]
    log_h = np.log(0.5 * xs)[:, None]
    series = np.vecdot(np.exp(log_h * _K2_POWERS), _K2_COEF + log_h * _K2_LOG_COEF)
    out[small] = np.exp(xs) * series
    z = x[~small, None] + _K2_NODES
    out[~small] = np.vecdot(z * np.sqrt(z), _K2_WEIGHTS)
    return out


def _exponential_overlap(a: float, s: np.ndarray, d: int, fold: float):
    """Overlap of two exponential(a), relative error eps (16 + 2x) + fold (d + x).

    x = s / a carries one rounding, which exp and x^2 K_2(x) turn into a
    relative error of at most x ulps; _x2_k2_ex is within 2.2 ulps of mpmath
    on [1e-100, 800].  d log O / d log a is at most d + x.  Past x = 800 the
    prefactor is held at x = 800: there the value is below every subnormal.
    """
    with np.errstate(over="ignore"):  # x = inf past every float: the value is 0
        x = s / a
    t = np.clip(x, 1e-100, 800.0)  # x^2 K_2(x) is 2 to double precision below 1e-100
    if d == 1:
        prefactor = a + np.minimum(s, 800.0 * a)
    elif d == 2:  # pi s^2 K_2(x) / 4 = (pi a^2 / 4) x^2 K_2(x)
        prefactor = 0.25 * math.pi * a * a * _x2_k2_ex(t)
    else:
        prefactor = math.pi * a**3 * (1.0 + t + t * t / 3.0)
    values = prefactor * np.exp(-x)
    rel = _EPS * (16.0 + 2.0 * t) + fold * (d + t)
    return values, 2.0 * (rel * values + _SUBNORMAL * (1.0 + prefactor))


_NORMAL_MIN = 2.0**-1022  # the smallest normal float


def _gaussian_overlap(a1: float, a2: float, s: np.ndarray, d: int, fold: float):
    """Overlap of gaussian(a1) and gaussian(a2), relative error eps (16 + 8y) + fold (d + 2y).

    y = s^2 / q carries 4 ulps, which exp turns into 4y ulps of the value;
    d log O / d log a_i is at most d + 2y.  Past y = 1600 the value is below
    every subnormal.  An a_i beyond 2^+-250 would take q or a1^2 a2^2 out
    of the normal floats, so then both are divided by 2^k, 2^k near
    sqrt(a1 a2), and the result multiplied back: exactly, except that
    d = 3's power rounds anew.

    Scales so far apart that no common 2^k keeps the terms normal (a ratio
    past ~2^1020, or ~2^680 in d = 3) leave q or pi a1^2 a2^2 / q beyond
    floats, or the power of the latter below the normal floats while 2^(k d)
    lifts it.  There, with m and M the smaller and larger scale and r = m /
    M, a1^2 a2^2 / q is taken as m^2 / (1 + r^2), m^2 as (m / 2^k)^2 with 2^k
    near m, and s^2 / q as (s / M)^2 / (1 + r^2): terms of a few ulps each,
    like the others.

    A prefactor P beyond floats is taken in logs, the value as exp(log P -
    y), held at y = log P + 800 where it is below every subnormal.  log P
    carries a few ulps of |log P| + 1 more, which the 8 log P ulps cover.
    """
    e1, e2 = math.frexp(a1)[1], math.frexp(a2)[1]
    k = 0 if max(abs(e1), abs(e2)) < 250 else (e1 + e2) // 2
    q = base = math.nan  # scales 2^2000 apart: dividing by 2^k takes one past floats
    if abs(e1 - e2) < 2000:
        b1, b2 = math.ldexp(a1, -k), math.ldexp(a2, -k)
        q = b1 * b1 + b2 * b2
        base = math.pi * (b1 * b1) * (b2 * b2) / q  # nan when q is inf
    with np.errstate(over="ignore"):  # x past floats is inf, and its y is held below
        if base < math.inf and (k <= 0 or base ** (d / 2.0) >= _NORMAL_MIN):
            x = np.ldexp(s / math.sqrt(q), -k)
        else:
            small, big = sorted((a1, a2))
            k, r = math.frexp(small)[1], small / big
            base = math.pi * math.ldexp(small, -k) ** 2 / (1.0 + r * r)
            x = s / big / math.sqrt(1.0 + r * r)
        prefactor = float(np.ldexp(base ** (d / 2.0), k * d))
    if math.isinf(prefactor):
        log_p = d / 2.0 * (math.log(base) + 2 * k * math.log(2.0))
        y = np.minimum(x, math.sqrt(log_p + 800.0)) ** 2
        with np.errstate(over="ignore"):  # a value beyond floats is inf
            values = np.exp(log_p - y)
        rel = _EPS * (16.0 + 8.0 * y + 8.0 * log_p) + fold * (d + 2.0 * y)
        return values, 2.0 * (rel * values + 2.0 * _SUBNORMAL)
    y = np.minimum(x, 40.0) ** 2
    values = prefactor * np.exp(-y)
    rel = _EPS * (16.0 + 8.0 * y) + fold * (d + 2.0 * y)
    return values, 2.0 * (rel * values + _SUBNORMAL * (1.0 + prefactor))


def _sum3(a, b, c):
    """a + b + c within one ulp and exact in sign: a + b split exactly (TwoSum), then c."""
    p = a + b
    bb = p - a
    return (p + c) + ((a - (p - bb)) + (b - bb))


def _disk_overlap(r1: float, r2: float, s: np.ndarray, d: int, dr1: float, dr2: float):
    """Measure of the intersection of balls of radii r1, r2 whose centers are s apart.

    f1 = r1 + r2 - s, f2 = s + r1 - r2 and f3 = s - r1 + r2 are each within an
    ulp and exact in sign: the balls are disjoint iff f1 <= 0 and nested iff
    f2 <= 0 or f3 <= 0.  Below s = 1e-150 (r1 + r2) a lens counts as nested,
    off by at most s times half the smaller sphere's surface.
    """
    f1, f2, f3 = _sum3(r1, r2, -s), _sum3(s, r1, -r2), _sum3(s, -r1, r2)
    values = np.zeros(s.size)
    errors = np.zeros(s.size)
    tiny = s <= 1e-150 * (r1 + r2)
    nested = (f1 > 0.0) & ((f2 <= 0.0) | (f3 <= 0.0) | tiny)
    lens = (f1 > 0.0) & ~nested
    # the smaller radius, with the larger fold error on a tie
    small, dsmall = min((r1, dr1), (r2, dr2), key=lambda rd: (rd[0], -rd[1]))
    ball = sphere_surface(d) / d * small**d
    surface = d * ball / small
    values[nested] = ball
    errors[nested] = 2.0 * (4.0 * _EPS * ball + surface * dsmall)
    errors[nested & tiny] += 0.5 * surface * s[nested & tiny]
    if lens.any():
        sl, gap = s[lens], f1[lens]
        # cap heights h1 = f1 f3 / 2s and h2 = f1 f2 / 2s, 3 ulps each
        caps = ((r1, gap * (f3[lens] / (2.0 * sl)), dr1), (r2, gap * (f2[lens] / (2.0 * sl)), dr2))
        if d == 1:
            values[lens], err = gap, _EPS * gap + dr1 + dr2
        elif d == 2:
            # 4 x the area of the (r1, r2, s) triangle, 6 ulps
            k = np.sqrt(gap) * np.sqrt(sl + r1 + r2) * (np.sqrt(f2[lens]) * np.sqrt(f3[lens]))
            values[lens], err = _lens_area(sl, k, caps)
        else:
            values[lens], err = _lens_volume(caps)
        errors[lens] = 2.0 * err
    if dr1 or dr2:
        # near tangency the measure is not linear in a radius: add the measure
        # of a lens of depth g, bounded by its slab of width g
        g = 2.0 * (dr1 + dr2)
        slab = (g, 2.0 * g * math.sqrt(2.0 * small * g), 2.0 * math.pi * small * g * g)[d - 1]
        errors[f1 > -g] += slab
    return values, errors


def _lens_area(s, k, caps):
    """(area, first-order error) of the lens of two crossing disks.

    The lens is the two circular segments cut off by the common chord: the
    segment of disk r has area r^2 (theta - sin(theta) cos(theta)), theta the
    half-angle of its arc, so both terms are >= 0 and their sum does not
    cancel.  theta = atan2(k, D) with D = 2s (r - h) = s^2 + r^2 - r_other^2,
    which in that last form cancels near tangency when r is the smaller
    radius; hypot(k, D) = 2 s r.  The area's slope in r is the arc 2 theta r.
    """
    area = err = 0.0
    for r, h, dr in caps:
        D = 2.0 * s * (r - h)
        hyp = 2.0 * s * r
        theta = np.arctan2(k, D)
        sin, cos = k / hyp, np.abs(D) / hyp
        dtheta = sin * (6.0 * _EPS * cos + _EPS * (r + 4.0 * h) / r) + _EPS * theta
        seg, dseg = _segment(theta)
        area = area + r * r * seg
        err = err + r * r * (2.0 * sin * sin * dtheta + dseg) + 2.0 * theta * r * dr
    return area, err + 2.0 * _EPS * area


def _segment(theta: np.ndarray):
    """(theta - sin(theta) cos(theta), its rounding error) for theta in [0, pi].

    Below theta = 1/2 the difference cancels, so it is summed as the series
    (u - sin u) / 2 = u^3 / 12 (1 - u^2 / 20 + u^4 / 840 - ...), u = 2 theta,
    whose terms fall by 20x or more; above, at most 6x of the value cancels.
    """
    u = 2.0 * theta
    w = u * u
    series = np.zeros_like(u)
    for c in reversed(_SEG_SERIES):
        series = series * w + c
    series *= u * w / 12.0
    sin = 0.5 * np.sin(u)
    small = theta < 0.5
    seg = np.where(small, series, theta - sin)
    return seg, np.where(small, 4.0 * _EPS * series, _EPS * (theta + np.abs(sin)))


def _lens_volume(caps):
    """(volume, first-order error) of the lens of two crossing balls.

    The lens is two spherical caps, pi h^2 (3r - h) / 3 each, and 3r - h >= r,
    so nothing cancels.  A cap's slope in r is the area 2 pi r h of its
    sphere inside the other ball.
    """
    vol = err = 0.0
    for r, h, dr in caps:
        vol = vol + math.pi / 3.0 * h * h * (3.0 * r - h)
        err = err + 16.0 * _EPS * math.pi / 3.0 * h * h * (3.0 * r + h) + 2.0 * math.pi * r * h * dr
    return vol, err + _EPS * vol


def overlap_integral(
    h1: ConnectionFunction,
    h2: ConnectionFunction,
    s: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """O(s) of overlap_rows at one center separation s >= 0."""
    val, err = overlap_rows(h1, h2, [s], d, spec)
    return QuadResult(float(val[0]), float(err[0]))


# -- covariograms and double region integrals ---------------------------------


def covariogram_shell_mass(K: Region, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """A(s) = int_{S^{d-1}} c_K(s * omega) dsigma(omega) of the box covariogram
    c_K(v) = vol(K intersect (K - v)); array in, array out.

    With this weight, int_{K x K} F(|x1-x2|) = int_0^diam F(s) s^{d-1} A(s) ds
    for any radial F (c_K itself need not be radial).  d <= 2 is exact; d=3
    is one adaptive_quad_rows row per s over the polar angle theta.
    """
    sa = np.asarray(s, dtype=float)
    flat = sa.reshape(-1)
    if not (np.isfinite(flat).all() and (flat >= 0).all()):
        raise ValueError("s must be finite and >= 0")
    a = K.sides
    out = np.full(flat.size, sphere_surface(K.dim) * K.volume)
    pos = flat > 0.0
    t = flat[pos]
    if K.dim == 1:
        out[pos] = 2.0 * np.maximum(0.0, a[0] - t)
    elif K.dim == 2:
        out[pos] = 4.0 * _quarter_shell(a[0], a[1], t)
    else:
        # Cut where a2 - s cos(theta) clips and where s sin(theta) crosses a side
        # or the diagonal; a factor that never clips puts its cut at an end.
        cuts = [np.arccos(np.minimum(t, a[2]) / t)]
        cuts += [np.arcsin(np.minimum(t, c) / t) for c in (a[0], a[1], math.hypot(a[0], a[1]))]

        def f(theta, rows):
            tr = t[rows, None]
            clip2 = np.maximum(0.0, a[2] - tr * np.cos(theta))
            return np.sin(theta) * clip2 * _quarter_shell(a[0], a[1], tr * np.sin(theta))

        breaks = np.stack(cuts, axis=1)
        val, _ = adaptive_quad_rows(f, np.zeros(t.size), math.pi / 2, spec.inner(), breaks)
        out[pos] = 8.0 * val
    return out.reshape(sa.shape)


def _quarter_shell(a0: float, a1: float, t: np.ndarray) -> np.ndarray:
    """int_0^{pi/2} (a0 - t cos(phi))_+ (a1 - t sin(phi))_+ dphi, elementwise in t > 0.

    Both factors are positive on (phi0, phi1), where F is an antiderivative.
    If phi1 < phi0, both are negative between them and F(phi1) - F(phi0) < 0.
    """

    def F(phi):
        sin = np.sin(phi)
        return a0 * a1 * phi - a1 * t * sin + a0 * t * np.cos(phi) + 0.5 * t * t * sin * sin

    phi0 = np.arccos(np.minimum(t, a0) / t)  # acos(min(1, a0 / t)), and no overflow at tiny t
    phi1 = np.arcsin(np.minimum(t, a1) / t)
    return np.maximum(0.0, F(phi1) - F(phi0))


def double_region_integral(
    F: Callable[[np.ndarray], np.ndarray],
    K: Region,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints=(),
) -> QuadResult:
    """int_K int_K F(|x1 - x2|) dx2 dx1 for a radial, vectorised F.

    Reduced through the box covariogram to a single radial integral against
    the covariogram shell mass.
    """
    d, diam = K.dim, K.diameter

    def integrand(s):
        return np.asarray(F(s), dtype=float) * s ** (d - 1) * covariogram_shell_mass(K, s, spec)

    breaks = sorted({*(b for b in breakpoints if 0.0 < b < diam), *K.sides})
    val, err = adaptive_quad(integrand, 0.0, diam, spec, breaks)
    return QuadResult(val, err)
