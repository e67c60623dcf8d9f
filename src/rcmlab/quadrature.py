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

from .connfn import ConnectionFunction, sphere_surface


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before reaching the tolerance."""


class QuadResult(NamedTuple):
    value: float
    error: float

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for all quadrature in a run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdiv: int = 512
    tail_eps: float = 1e-12  # mass discarded beyond the improper-integral cutoff

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.tail_eps > 0):
            raise ValueError("tolerances must be > 0")
        if self.tail_eps > self.abs_tol:
            raise ValueError("tail epsilon must not exceed the absolute tolerance")
        if self.max_subdiv < 4:
            raise ValueError("max_subdiv too small")

    def inner(self) -> "QuadratureSpec":
        """Slightly tightened spec for nested (inner) integrals."""
        return replace(self, rel_tol=self.rel_tol * 0.1, abs_tol=self.abs_tol * 0.1)


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
        """Boolean mask for points (m, d) in the half-open box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array(self.lower)
        up = np.array(self.upper)
        return np.all((pts > lo) & (pts <= up), axis=1)

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


def radial_integral(
    h: ConnectionFunction, d: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """int_{R^d} h(|y|) dy, truncated at the tail radius T(tail_eps)."""
    return radial_of(h.eval, d, h.tail_radius(spec.tail_eps, d), spec, h.cut_radii)


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

    d=1 integrates h1(r) (h2(|r-s|) + h2(r+s)) directly; d=2 uses the polar
    angle form with |y - s e1| = sqrt(r^2 + s^2 - 2 r s cos(theta)); d=3 uses
    the same reduction with cos(theta) substituted away, which leaves the
    chord integral int t h2(t) dt over [|r-s|, r+s].  All separations share
    one adaptive_quad_rows over r, each row on its own [lo(s), hi(s)] with
    its own breakpoints, and the inner theta or chord integrals of every
    live (s, r) node run together.  Returns (values, errors) as flat arrays.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if not np.isfinite(s).all():
        raise ValueError("separation must be finite")
    if (s < 0).any():
        raise ValueError("separation must be >= 0")
    values = np.zeros(s.size)
    errors = np.zeros(s.size)
    supp1, supp2 = h1.support_radius, h2.support_radius
    todo = np.ones(s.size, dtype=bool)
    if supp1 is not None and supp2 is not None:
        todo = s < supp1 + supp2
    at_zero = todo & (s <= 1e-12)
    if at_zero.any():
        T = min(h1.tail_radius(spec.tail_eps, d), h2.tail_radius(spec.tail_eps, d))
        values[at_zero], errors[at_zero] = radial_of(
            lambda r: h1.eval(r) * h2.eval(r), d, T, spec, h1.cut_radii + h2.cut_radii
        )
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


def box_covariogram(K: Region, v) -> float:
    """c_K(v) = vol(K intersect (K - v)) = prod_i max(0, a_i - |v_i|)."""
    vv = np.asarray(v, dtype=float)
    return float(np.prod(np.maximum(0.0, np.array(K.sides) - np.abs(vv))))


def covariogram_shell_mass(K: Region, s, spec: QuadratureSpec = DEFAULT_SPEC):
    """A(s) = int_{S^{d-1}} c_K(s * omega) dsigma(omega); a float s gives a float.

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
    return float(out[0]) if sa.ndim == 0 else out.reshape(sa.shape)


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
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints=(),
) -> QuadResult:
    """int_K int_K F(|x1 - x2|) dx2 dx1 for a radial, vectorised F.

    Reduced through the box covariogram to a single radial integral against
    the covariogram shell mass.
    """
    if d != K.dim:
        raise ValueError("dimension mismatch between F and K")
    diam = K.diameter

    def integrand(s):
        return np.asarray(F(s), dtype=float) * s ** (d - 1) * covariogram_shell_mass(K, s, spec)

    breaks = sorted({*(b for b in breakpoints if 0.0 < b < diam), *K.sides})
    val, err = adaptive_quad(integrand, 0.0, diam, spec, breaks)
    return QuadResult(val, err)
