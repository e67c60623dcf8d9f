"""Radial connection functions: a base at x times its scale factors, kept
on one radial interval (lo, hi].

A connection function maps a distance x >= 0 to a probability in [0, 1], is
non-increasing, and has a finite positive integral over R^d.  Instances are
immutable: a base shape (hard disk, exponential, gaussian, or a monotone
piecewise-linear table) and that normal form, into which each construction
folds as it is applied:

    truncate_inside(R):   f -> 1{x <= R} * f(x)     hi = min(hi, R)
    truncate_outside(R):  f -> 1{x >  R} * f(x)     lo = max(lo, R)
    scale(n):             f -> f(n * x)             n joins the scales; lo, hi / n

lo and hi are compared on x itself, so ties at a cut evaluate as "inside"
(1{x <= R}), and eval and support_radius agree to the ulp.  The two orders
of cutting and scaling do not commute: cut at R then scale by n is
g.scale(n).truncate_inside(R / n), 1{x <= R/n} g(n x), while scale then cut
is g.scale(n).truncate_inside(R), 1{x <= R} g(n x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class ConnFnError(ValueError):
    """Invalid connection-function construction."""


_KINDS = ("hard_disk", "exponential", "gaussian", "table")
_LOG_FLOAT_MAX = 709.782712893384  # log of the largest float: exp(x) is finite up to it
_EPS = float(np.finfo(float).eps)
_SUBNORMAL = 2.0**-1074  # spacing of the subnormal floats: exp's absolute error there
_TINY = float(np.finfo(float).tiny)  # the least normal float
_HUGE = float(np.finfo(float).max)
_LN2 = math.log(2.0)
# the two-point Gauss-Legendre nodes on [0, 1]
_GL2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def sphere_surface(d: int) -> float:
    """Surface area of the unit sphere in R^d (2, 2*pi, 4*pi for d=1,2,3)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class ConnectionFunction:
    """A radial [0,1]-valued non-increasing base at x times its scale
    factors, kept on lo < x <= hi (None: no bound on that side)."""

    kind: str
    a: float | None = None
    table: tuple[tuple[float, float], ...] | None = None
    scales: tuple[float, ...] = ()  # in the order applied
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConnFnError(f"unknown kind {self.kind!r}")
        if self.kind == "table":
            if not self.table or len(self.table) < 2:
                raise ConnFnError("table needs at least two (radius, value) points")
            rs = [r for r, _ in self.table]
            vs = [v for _, v in self.table]
            if rs[0] != 0.0:
                raise ConnFnError("table must start at radius 0")
            if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
                raise ConnFnError("table radii must be strictly increasing")
            if any(not 0.0 <= v <= 1.0 for v in vs):
                raise ConnFnError("table values must lie in [0, 1]")
            if any(v2 > v1 for v1, v2 in zip(vs, vs[1:])):
                raise ConnFnError("table values must be non-increasing")
            if vs[-1] != 0.0:
                raise ConnFnError(
                    "table must end at value 0; the final radius is the "
                    "mandatory tail cutoff"
                )
        else:
            if self.a is None or not self.a > 0.0:
                raise ConnFnError(f"{self.kind} needs a positive scale parameter")

    # -- evaluation ---------------------------------------------------------

    def _base_eval(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The exponential, gaussian or table base at x; the first two
        evaluate in place in out (which may be x) when one is given."""
        # x / a or its square beyond floats is inf, and the value 0
        if self.kind == "exponential":  # np.exp(-x / a)
            out = np.negative(x, out=out)
            with np.errstate(over="ignore"):
                out /= self.a
            return np.exp(out, out=out)
        if self.kind == "gaussian":  # np.exp(-((x / a) ** 2))
            with np.errstate(over="ignore"):
                out = np.divide(x, self.a, out=out)
                np.square(out, out=out)
            np.negative(out, out=out)
            return np.exp(out, out=out)
        rs = np.array([r for r, _ in self.table])
        vs = np.array([v for _, v in self.table])
        return np.interp(x, rs, vs, left=vs[0], right=0.0)

    def eval(self, x):
        """Value at radius x (scalar or ndarray, x >= 0).

        A hard disk is 1{x <= support_radius}.  Any other base is evaluated
        at x times the scale factors (``_scaled``) in a new array (x is never
        written), and a value at x <= lo or x > hi is set to 0 in that
        array."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        x = np.atleast_1d(arr)
        keep = None
        if self.kind == "hard_disk":
            vals = (x <= self.support_radius).astype(float)
        else:
            cur = self._scaled(x)
            vals = self._base_eval(cur, None if cur is x else cur)
            if self.hi is not None:
                keep = x <= self.hi
        if self.lo is not None:
            keep = x > self.lo if keep is None else keep & (x > self.lo)
        if keep is not None:
            np.putmask(vals, np.logical_not(keep, out=keep), 0.0)
        return float(vals[0]) if scalar else vals

    # -- analytic metadata --------------------------------------------------

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """x times the scale factors, the last applied first: x itself when
        there is none, else a new array.

        With two or more factors, an entry whose running product leaves the
        normal floats (a partial product that overflows or underflows) is
        taken from the net factor instead, x over 1 / F folded as a mantissa
        and a power of two (``_fold``), so it is beyond floats only where
        x F is.  Every other entry keeps the running product's bits."""
        if len(self.scales) < 2:
            return x * self.scales[0] if self.scales else x
        cur, lost = x, False
        with np.errstate(over="ignore"):
            for k, n in enumerate(reversed(self.scales)):
                if k:
                    lost = lost | (cur < _TINY) | (cur > _HUGE)
                cur = cur * n
            if lost.any():
                m, e, _ = self._fold(1.0)
                cur[lost] = np.ldexp(x[lost] / m, -e)
        return cur

    def _base_radii(self) -> list[float]:
        """A hard disk's a or a table's radii, divided by the scale factors
        one at a time; none for the unbounded kinds.  A radius whose
        running quotient leaves the normal floats before the last factor is
        taken from the net factor instead, as ``_scaled`` takes a product."""
        if self.kind == "hard_disk":
            radii = [self.a]
        elif self.kind == "table":
            radii = [r for r, _ in self.table]
        else:
            return []
        out = []
        for r in radii:
            q = r
            for k, n in enumerate(self.scales):
                if k and not _TINY <= q <= _HUGE:
                    q = _ldexp(*self._fold(r)[:2])
                    break
                q = q / n
            out.append(q)
        return out

    @property
    def support_radius(self) -> float | None:
        """Radius beyond which the function is 0, or None if unbounded:
        min(base edge, hi), or 0.0 when that is <= lo."""
        radii = self._base_radii()
        s = radii[-1] if radii else None
        if self.hi is not None:
            s = self.hi if s is None else min(s, self.hi)
        if s is not None and self.lo is not None and s <= self.lo:
            return 0.0
        return s

    @property
    def cut_radii(self) -> tuple[float, ...]:
        """Radii where the function is discontinuous or kinked: lo, hi and
        the base's radii.

        Quadrature uses these as explicit subdivision breakpoints.
        """
        cuts = self._base_radii() + [c for c in (self.lo, self.hi) if c is not None]
        return tuple(sorted({c for c in cuts if c > 0.0 and math.isfinite(c)}))

    def tail_radius(self, eps: float, d: int) -> float:
        """Radius T with omega_d * int_T^inf r^{d-1} f(r) dr < eps.

        Exact (zero tail) for bounded support; table functions are
        bounded by construction, so a cutoff is always available.  The mass
        of an unbounded builtin is (a / F)^d times that of a = 1, F being the
        product of the scale factors, so T = (a / F) z, where z solves, in
        logs, log_unit_mass(z) = log(eps / 2) + d (log F - log a) (see
        _log_unit_tail_radius).  The mass left beyond T is then at most eps / 2
        up to rounding, a whole mass of at most eps / 2 has radius 0, and only
        a radius beyond floats raises ConnFnError.
        """
        if not eps > 0.0:
            raise ConnFnError("tail epsilon must be > 0")
        s = self.support_radius
        if s is not None:
            if math.isinf(s):
                raise ConnFnError(f"{self.kind}: the support radius overflows a float")
            return s
        # Unbounded support: no inside cut, base unbounded.  An outside cut
        # only removes mass, and the scales compose multiplicatively.
        log_a = math.log(self.a)
        log_factor = sum(math.log(n) for n in self.scales)
        z = _log_unit_tail_radius(
            self.kind, math.log(eps) - math.log(2.0) + d * (log_factor - log_a), d
        )
        if z == 0.0:
            return 0.0
        log_radius = math.log(z) + log_a - log_factor
        if log_radius <= _LOG_FLOAT_MAX:
            return math.exp(log_radius)
        raise ConnFnError(
            f"{self.kind} scale a = {self.a:g} scaled by e^{log_factor:.6g}: no tail "
            f"radius for eps = {eps:g} in d = {d} within floats"
        )

    def mass(self, d: int) -> tuple[float, float]:
        """omega_d int_0^inf r^{d-1} f(r) dr in closed form, and twice a
        first-order bound on its rounding.  A mass that underflows is 0, and
        one beyond floats is inf (or raises OverflowError).

        q = a / F (1 / F for a table) is folded exactly as m 2^e, F being the
        product of the scale factors, which may overflow where q does not:
          hard disk: omega_d / d (R - lo) sum_k R^k lo^{d-1-k}, R the support
            radius, as eval compares on it; no term is negative;
          exponential, gaussian: q^d [M(lo / q) - M(hi / q)], M the tail
            mass of a = 1, exp(_log_unit_tail_mass); the difference cancels
            for a thin annulus, so there the bound is a few ulps of
            q^d M(lo / q), not of the value;
          table: the two-point Gauss-Legendre rule on each linear piece
            clipped to (lo, hi], exact for r^{d-1} times a line (d <= 3), on
            non-negative terms.
        """
        R = self.support_radius
        if R == 0.0:
            return 0.0, 0.0
        if self.kind == "hard_disk":
            lo = self.lo or 0.0
            value = sphere_surface(d) / d * (R - lo) * sum(R**k * lo ** (d - 1 - k) for k in range(d))
            return value, 2.0 * (_EPS * (d + 6.0) * value + _SUBNORMAL)
        if self.kind == "table":
            return self._table_mass(d)
        return self._smooth_mass(d)

    def shift_variation(self, d: int) -> float:
        """Upper bound on int_{R^d} |d/dy_1 f(|y|)| dy in d = 2 or 3, the
        jumps at lo and hi included: how fast an overlap with f moves as f's
        center shifts.

        In polar form it is (int_{S^{d-1}} |u_1|) int_0^inf r^{d-1} |df(r)|,
        the sphere factor 4 in d=2 and 2 pi in d=3.  f jumps up by f(lo+) at
        lo and falls after, so by parts the Stieltjes integral is
        2 lo^{d-1} f(lo+) + (d - 1) mass_{d-1}(f) / omega_{d-1}.  f(lo+) is
        read a little below lo, beyond the rounding of lo times the scale
        factors, and the mass carries its own bound; the few roundings left
        are covered by a factor 1 + 16 eps.
        """
        if self.support_radius == 0.0:
            return 0.0
        mass, err = self.mass(d - 1)
        total = (d - 1) * (mass + err) / sphere_surface(d - 1)
        if self.lo:
            below = self.lo * (1.0 - (len(self.scales) + 2) * _EPS)
            total += 2.0 * self.lo ** (d - 1) * replace(self, lo=None).eval(below)
        return (4.0 if d == 2 else 2.0 * math.pi) * total * (1.0 + 16.0 * _EPS)

    def _fold(self, c: float) -> tuple[float, int, int]:
        """q = c / F as (m, e) with q = m 2^e and m in [0.5, 1) (or 0), F
        being the product of the scale factors, and the number of factors
        whose division rounds, by half an ulp each."""
        m, e = math.frexp(c)
        folds = 0
        for n in self.scales:
            nm, ne = math.frexp(n)
            m, de = math.frexp(m / nm)
            e += de - ne
            folds += nm != 0.5
        return m, e, folds

    def _smooth_mass(self, d: int) -> tuple[float, float]:
        """mass of an exponential or gaussian base, from its tail masses."""
        m, e, folds = self._fold(self.a)

        def log_tail(c):
            """log M(c / q) and a first-order bound on its absolute error: a
            few ulps of its terms, and the rounding of c / q times
            |d log M / d log z|, at most w (exponential) or 2 w + 1 (gaussian)."""
            try:
                z = math.ldexp(c, -e) / m
            except OverflowError:
                return -math.inf, 0.0
            w = z if self.kind == "exponential" else z * z
            if w == math.inf:
                return -math.inf, 0.0
            slope = w if self.kind == "exponential" else 2.0 * w + 1.0
            noise = 4.0 + 2.0 * w + 0.5 * (folds + 1) * slope
            return _log_unit_tail_mass(self.kind, z, d), _EPS * noise

        L_lo, err_lo = log_tail(self.lo or 0.0)
        L_hi, err_hi = (-math.inf, 0.0) if self.hi is None else log_tail(self.hi)
        if L_lo + d * e * _LN2 < -800.0:  # q^d M(lo / q) is below every float
            return 0.0, 2.0 * _SUBNORMAL
        j = 0 if L_lo > -700.0 else math.floor(L_lo / _LN2)  # so exp() stays normal
        outer = math.ldexp(math.exp(L_lo - j * _LN2) * m**d, j + d * e)  # q^d M(lo / q)
        value = max(0.0, -outer * math.expm1(L_hi - L_lo))
        err = _EPS * (4.0 + 0.5 * d * (folds + 1)) * value
        err += outer * (err_lo + math.exp(L_hi - L_lo) * err_hi)
        return value, 2.0 * (err + _SUBNORMAL)

    def _table_mass(self, d: int) -> tuple[float, float]:
        """mass of a table base, piece by piece.

        A knot r / F moves by (folds + 1) / 2 ulps, which moves the line of
        its piece by at most |v1 - v0| ulps times x1 / (x1 - x0)."""
        m, e, folds = self._fold(1.0)
        knots = [(math.ldexp(r * m, e), v) for r, v in self.table]
        lo = self.lo or 0.0
        hi = math.inf if self.hi is None else self.hi
        total = moved = 0.0
        for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
            u, v = max(x0, lo), min(x1, hi)
            if not v > u or v0 == 0.0:  # empty, or 0 from here on
                continue
            # the line at u and v: a knot's value, or two non-negative terms
            hu = v0 if u == x0 else (v0 * (x1 - u) + v1 * (u - x0)) / (x1 - x0)
            hv = v1 if v == x1 else (v0 * (x1 - v) + v1 * (v - x0)) / (x1 - x0)
            rule = sum((hu * s + hv * t) * (u + (v - u) * t) ** (d - 1)
                       for t, s in zip(_GL2, reversed(_GL2)))
            total += 0.5 * (v - u) * rule
            moved += (v - u) / (x1 - x0) * x1 * v ** (d - 1) * (v0 - v1)
        om = sphere_surface(d)
        value = om * total
        err = _EPS * ((2.0 * d + 8.0 + 0.5 * len(knots)) * value + 0.5 * (folds + 1) * om * moved)
        return value, 2.0 * (err + 4.0 * _SUBNORMAL)

    # -- construction -------------------------------------------------------

    def truncate_inside(self, R: float) -> "ConnectionFunction":
        """1{x <= R} times this function."""
        _check_cut(R)
        return replace(self, hi=R if self.hi is None else min(self.hi, R))

    def truncate_outside(self, R: float) -> "ConnectionFunction":
        """1{x > R} times this function."""
        _check_cut(R)
        return replace(self, lo=R if self.lo is None else max(self.lo, R))

    def scale(self, n: float) -> "ConnectionFunction":
        """This function at n x: n joins the factors and (lo, hi] shrinks by n."""
        if not n > 0.0:
            raise ConnFnError("scale factor must be > 0")
        lo, hi = (None if c is None else c / n for c in (self.lo, self.hi))
        return replace(self, scales=self.scales + (n,), lo=lo, hi=hi)


def _ldexp(m: float, e: int) -> float:
    """m 2^e, inf where that is beyond floats (math.ldexp raises there)."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def _check_cut(R: float):
    """Refuse a cut below 0 or a nan before min or max can drop it."""
    if not R >= 0.0:
        raise ConnFnError("truncation radius must be >= 0")


def _log_unit_tail_mass(kind: str, z: float, d: int) -> float:
    """log omega_d int_z^inf r^{d-1} f(r) dr for a = 1, which does not
    underflow: with s = d and w = z (exponential) or s = d / 2 and w = z^2
    (gaussian), the mass is the whole mass omega_d Gamma(s) (halved for the
    gaussian) times e^-w (e^w Q(s, w)), and e^w Q(s, w) is a sum of positive
    terms, sum_{k < s} w^k / k! for an integer s and erfcx(sqrt(w)) +
    sum_{j < s - 1/2} w^(j + 1/2) / Gamma(j + 3/2) for a half-integer one."""
    s, w = (d, z) if kind == "exponential" else (d / 2.0, z * z)
    log_whole = math.log(sphere_surface(d)) + math.lgamma(s)
    if kind == "gaussian":
        log_whole -= math.log(2.0)
    if w == 0.0:
        return log_whole
    log_w = math.log(w)
    if s == int(s):
        terms = [k * log_w - math.lgamma(k + 1.0) for k in range(int(s))]
    else:
        from scipy import special  # here, so that only odd-d gaussian tails pay for scipy.special

        terms = [math.log(special.erfcx(math.sqrt(w)))]
        terms += [(j + 0.5) * log_w - math.lgamma(j + 1.5) for j in range(int(s))]
    top = max(terms)
    return log_whole - w + top + math.log(sum(math.exp(t - top) for t in terms))


def _log_unit_tail_radius(kind: str, log_target: float, d: int) -> float:
    """The z of a = 1 whose tail mass is e^log_target, or 0 when the whole
    mass is at most that.

    Safeguarded Newton steps on h(z) = log mass - log_target.  h is concave
    (the tail of a log-concave density is log-concave) and falls with slope
    -omega_d z^{d-1} f(z) / mass, so a step lands at or beyond the root and
    the steps from beyond it fall to it.  A step that leaves the bracket
    [lo, hi] of the root doubles z while hi is unknown and bisects after.
    The first z has w = h(0) (w as in _log_unit_tail_mass), the root when
    e^w Q(s, w) = 1.  The result is the least z seen with h(z) <= 0, once
    the step from it rounds away or no float lies between lo and hi."""
    h = _log_unit_tail_mass(kind, 0.0, d) - log_target
    if h <= 0.0:
        return 0.0
    log_om = math.log(sphere_surface(d))
    lo, hi = 0.0, math.inf
    z = h if kind == "exponential" else math.sqrt(h)
    while True:
        m = _log_unit_tail_mass(kind, z, d)
        h = m - log_target
        if h > 0.0:
            lo = z
        else:
            hi = z
        w = z if kind == "exponential" else z * z
        slope = math.exp(log_om + (d - 1) * math.log(z) - w - m)
        nxt = z + h / slope if slope > 0.0 else math.nan
        if nxt == z:  # the step rounds away: the root is within an ulp of z
            if z == hi:
                return hi
            nxt = math.nextafter(z, math.inf)
        if not lo < nxt < hi:
            nxt = 2.0 * z if hi == math.inf else 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return hi
        z = nxt


# -- builtins ---------------------------------------------------------------


def hard_disk(a: float) -> ConnectionFunction:
    """Indicator connection function 1{x <= a}."""
    return ConnectionFunction(kind="hard_disk", a=a)


def exponential(a: float) -> ConnectionFunction:
    """Connection function exp(-x/a)."""
    return ConnectionFunction(kind="exponential", a=a)


def gaussian(a: float) -> ConnectionFunction:
    """Connection function exp(-(x/a)^2)."""
    return ConnectionFunction(kind="gaussian", a=a)


def table_function(points) -> ConnectionFunction:
    """Monotone piecewise-linear connection function from (radius, value) pairs.

    The final point must have value 0; its radius doubles as the mandatory
    tail cutoff (monotonicity alone cannot bound tails).
    """
    return ConnectionFunction(kind="table", table=tuple((float(r), float(v)) for r, v in points))

