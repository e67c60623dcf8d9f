"""Closed-form and limiting moments of isolated-vertex counting statistics.

Notation used throughout (all radial; int h is h's closed-form mass, the
overlaps a closed form or quadrature):

    iso(mu, h)        = exp(-mu * int h(|y|) dy)          isolation factor
    pair(mu, h1, h2)  = exp(+mu * int h1(|y-x1|) h2(|y-x2|) dy)
                        a function of s = |x1 - x2| only

The "excess" count L is the number of vertices that are isolated once the
connection function is truncated inside radius R but are not isolated under
the full function.  Each variance is _variance of its count's parts
(density, weight, pair, fns): the mean per point, the pair term pair(s) and
its weight, and the functions whose cuts kink it.  The isolated count's are
iso, iso^2 and (1 - g(s)) pair(g, g, s) - 1; the excess count's are
iso(g_in) (1 - iso(g_out)), 1 and its bracket plus a positive term from
pairs joined by an edge longer than R, the two sharing one pair factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .connfn import _LOG_FLOAT_MAX, ConnectionFunction
from .quadrature import (
    DEFAULT_SPEC,
    QuadResult,
    QuadratureSpec,
    Region,
    adaptive_quad,  # noqa: F401  rcmbench's tracer checks it is wrapped here too
    double_region_integral,
    overlap_rows,
    radial_integral,
    radial_of,
)


class ModelError(ValueError):
    """Invalid model configuration or violated formula precondition."""


DensityRule = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ModelConfig:
    """Scaled random connection model: density lam_n on K with g_n = g(n x)."""

    d: int
    lam: float
    K: Region
    g: ConnectionFunction
    n: float = 1.0
    density_rule: DensityRule | None = None  # explicit (n, lam_n) pairs

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ModelError("dimension must be 1, 2 or 3")
        if not self.lam > 0:
            raise ModelError("base intensity must be > 0")
        if not self.n >= 1:
            raise ModelError("scale index must be >= 1")
        if self.K.dim != self.d:
            raise ModelError("region dimension does not match d")
        if not self.lam_n > 0:
            raise ModelError("lam_n must be > 0")

    @property
    def lam_n(self) -> float:
        if self.density_rule is None:
            return self.lam * self.n**self.d
        for nn, ln in self.density_rule:
            if nn == self.n:
                return ln
        raise ModelError(f"density rule has no entry for n={self.n}")

    @cached_property
    def g_n(self) -> ConnectionFunction:
        """g(n x), built once per config (``at_n`` makes a new config)."""
        return self.g if self.n == 1 else self.g.scale(self.n)

    def at_n(self, n: float) -> "ModelConfig":
        return replace(self, n=n)


@dataclass(frozen=True)
class DominationConstant:
    """Constructive constants bounding the variance bracket by C * g(|x|/2)."""

    M: float
    C_pair: float
    C_total: float

    def __post_init__(self):
        if not (self.M > 0 and self.C_pair > 0 and self.C_total > 0):
            raise ModelError("domination constants must be > 0")


# -- elementary factors -------------------------------------------------------


def isolation_prob(mu: float, h: ConnectionFunction, d: int) -> QuadResult:
    """Probability exp(-mu * int_{R^d} h(|y|) dy) that a point sees no h-neighbor.

    The integral is h's closed-form mass; its error e moves p by at most
    p expm1(mu e), which is the bound.  Where that overflows, p and the exact
    probability both lie in [0, exp(-mu (int - e))], whose top is the bound.
    """
    if mu < 0:
        raise ModelError("intensity must be >= 0")
    integral = radial_integral(h, d)
    p = math.exp(-mu * integral.value)
    if mu * integral.error <= _LOG_FLOAT_MAX:
        return QuadResult(p, p * math.expm1(mu * integral.error))
    least = mu * (integral.value - integral.error)
    if not least >= -_LOG_FLOAT_MAX:
        raise ModelError(f"intensity {mu:.6g} overflows the error bound "
                         f"expm1({mu:.6g} * {integral.error:.3g})")
    return QuadResult(p, math.exp(-least))


def pair_factor(
    mu: float,
    h1: ConnectionFunction,
    h2: ConnectionFunction,
    s,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """exp(+mu * overlap(h1, h2, s)) >= 1; the joint-isolation correlation factor.

    Array in, array out: the values and errors of the separations in s as flat
    arrays.  An overlap error e moves the factor by at most v expm1(mu e),
    which is the bound.  A factor beyond floats is a ModelError.
    """
    if mu < 0:
        raise ModelError("intensity must be >= 0")
    ov, ov_err = overlap_rows(h1, h2, s, d, spec)
    top = float(np.max(ov, initial=0.0))
    if not mu * top <= _LOG_FLOAT_MAX:
        raise ModelError(f"intensity {mu:.6g} overflows the pair factor exp({mu:.6g} * {top:.6g})")
    v = np.exp(mu * ov)
    return QuadResult(v, v * np.expm1(mu * ov_err))


# -- isolated-vertex moments ---------------------------------------------------


def mean_isolated(cfg: ModelConfig) -> QuadResult:
    """E of the isolated-vertex count on K: lam_n vol(K) iso(lam_n, g_n)."""
    p = isolation_prob(cfg.lam_n, cfg.g_n, cfg.d)
    scale = cfg.lam_n * cfg.K.volume
    return QuadResult(scale * p.value, scale * p.error)


def var_isolated(cfg: ModelConfig, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Exact variance of the isolated-vertex count on K.

    Second-moment formula: two points at separation s are both isolated iff
    they are mutually unconnected and no third point attaches to either,
    giving (1 - g_n(s)) iso^2 pair(s); the squared mean removes iso^2.
    """
    return _variance(cfg.lam_n, *_isolated(cfg.lam_n, cfg.g_n, cfg.d, spec), cfg.d, spec, cfg.K)


def limit_var_isolated(
    lam: float, g: ConnectionFunction, d: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Limiting variance density of the isolated count per expected point.

    iso(lam, g) + lam * iso^2 * int_{R^d} [(1 - g(|x|)) pair(x, 0) - 1] dx;
    equals 1 in the empty-function direction (pure Poisson counts).
    """
    return _variance(lam, *_isolated(lam, g, d, spec), d, spec)


# -- excess (truncation error) moments ----------------------------------------


def mean_excess(cfg: ModelConfig, R: float) -> QuadResult:
    """E of the excess count for the scaled model (valid for all R > 0, n >= 1)."""
    density = _excess_density(cfg.lam_n, *_cut(cfg.g_n, R, cfg.n), cfg.d)
    scale = cfg.lam_n * cfg.K.volume
    return QuadResult(scale * density.value, scale * density.error)


def var_excess(
    cfg: ModelConfig, R: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Variance of the excess count for the scaled model."""
    parts = _excess_parts(cfg.lam_n, *_cut(cfg.g_n, R, cfg.n), cfg.g_n, cfg.d, spec)[0]
    return _variance(cfg.lam_n, *parts, cfg.d, spec, cfg.K)


def limit_mean_excess(lam: float, g: ConnectionFunction, R: float, d: int) -> QuadResult:
    """Limit of the normalised excess mean: iso(lam, g_R) (1 - iso(lam, g^R))."""
    return _excess_density(lam, *_cut(g, R), d)


def limit_var_excess(
    lam: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Limit of the normalised excess variance (bracket + long-edge term over R^d).

    One radial integral up to the bracket's cutoff T.  T is at least twice
    g.tail_radius(tail_eps exp(-lam int g)), beyond which the long-edge tail
    is below tail_eps, so the tail_eps in _variance's bound covers it too.
    """
    return _variance(lam, *_excess_parts(lam, *_cut(g, R), g, d, spec)[0], d, spec)


def variance_ratio(
    lam: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Limiting variance-density ratio of the R-truncated model to the full one.

    Tends to 1 as R grows; equals 1 exactly once g is supported inside [0, R].
    """
    num, den = (limit_var_isolated(lam, h, d, spec) for h in (_cut(g, R)[0], g))
    val = num.value / den.value
    return QuadResult(val, (num.error + abs(val) * den.error) / den.value)


def swapped_mean_density(cfg: ModelConfig, R: float) -> QuadResult:
    """Normalised excess mean when truncation is applied after scaling.

    With the truncation radius held fixed while the interaction shrinks, the
    cut removes asymptotically all of the connection mass and the normalised
    mean collapses to 0 as n grows; needs R > diam(K) so the wide-R mean
    formula applies.
    """
    _require_wide(R, cfg.K)
    return _excess_density(cfg.lam_n, *_cut(cfg.g_n, R), cfg.d)


# -- the domination bound ------------------------------------------------------


def excess_variance_bracket(
    nu: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Callable:
    """Evaluator of the variance bracket at effective intensity nu.

    Array in, array out.  This is the integrand whose absolute value the
    domination constants bound by C_total * g(|x|/2), uniformly in R and in
    the scale index.
    """
    return _excess_parts(nu, *_cut(g, R), g, d, spec)[1]


def domination_constants(lam: float, g: ConnectionFunction, d: int) -> DominationConstant:
    """Construct (M, C_pair, C_total) for the bracket domination bound.

    The bracket depends on the scale index n only through lam_n / n^d, which
    is lam for every n under lam_n = lam n^d, so the bound holds from n = 1.
    M satisfies 4 lam g(M/2) int(g) <= 1; the pair constant is
    max(4 e lam int(g), (exp(4 lam int(g)) - 1) / g(M/2)) and the final
    constant is 4 (1 + C_pair).  When every M satisfies the inequality, M is
    the support (2a when unbounded), halved until g(M/2) > 0.  For
    bounded-support g whose minimal M lands beyond the support, M shrinks to
    the largest radius with g(M/2) > 0 when the defining inequality still
    holds there; otherwise the uniform bound
    C_pair = 4 lam int(g) exp(4 lam int(g)) is reported (the bracket vanishes
    wherever g(|x|/2) does, so the inequality stays valid).
    """
    Ig = radial_integral(g, d).value
    if not Ig > 0:
        raise ModelError("g must have positive integral")
    if not g.eval(0.0) > 0.0:
        raise ModelError("g must be positive at 0")

    growth = 4.0 * lam * Ig  # the pair factor is at most exp(growth)
    e_growth = math.exp(growth) if growth <= _LOG_FLOAT_MAX else math.inf

    def phi(M: float) -> float:
        return 4.0 * lam * g.eval(M / 2.0) * Ig - 1.0

    supp = g.support_radius
    # g is 0 where its scaled radius overflows to inf (exp(-inf), or beyond a disk)
    with np.errstate(over="ignore"):
        if phi(0.0) <= 0.0:
            M = supp if supp is not None else 2.0 * (g.a or 1.0)
            while g.eval(M / 2.0) <= 0.0:  # ends: g(0) > 0
                M /= 2.0
        else:
            hi = 2.0 * (supp if supp is not None else (g.a or 1.0))
            while phi(hi) > 0.0:
                hi *= 2.0
            lo, mid = 0.0, 0.5 * hi
            while lo < mid < hi:  # bisect until lo and hi are adjacent floats
                if phi(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
                mid = 0.5 * (lo + hi)
            M = hi

    gM2 = g.eval(M / 2.0)  # 0 for unbounded g only once growth overflows
    if gM2 <= 0.0 and supp is not None:
        # minimal valid M sits beyond the support of g
        M_alt = 2.0 * supp * (1.0 - 1e-12)
        if phi(M_alt) <= 0.0 and g.eval(M_alt / 2.0) > 0.0:
            M = M_alt
            gM2 = g.eval(M / 2.0)
        else:
            M = 2.0 * supp

    if gM2 > 0.0:
        C_pair = max(4.0 * math.e * lam * Ig, (e_growth - 1.0) / gM2)
    else:  # the uniform fallback
        C_pair = growth * e_growth
    C_total = 4.0 * (1.0 + C_pair)
    if math.isinf(C_total):
        raise ModelError(f"exp(4 lam int(g)) = exp({growth:.6g}) overflows the domination "
                         "constants")
    return DominationConstant(M=M, C_pair=C_pair, C_total=C_total)


# -- shared internals ----------------------------------------------------------


def _cut(
    h: ConnectionFunction, R: float, n: float = 1.0
) -> tuple[ConnectionFunction, ConnectionFunction]:
    """h's parts inside and outside radius R / n: 1{x <= R/n} h(x) and
    1{x > R/n} h(x).

    With g_n = g(n x), cut at R then scale by n is _cut(g_n, R, n); scale
    then cut is _cut(g_n, R).  R is checked before the division, which may round
    a tiny R to a cut at 0.
    """
    if not R > 0:
        raise ModelError("R must be > 0")
    return h.truncate_inside(R / n), h.truncate_outside(R / n)


def _squared(mu: float) -> float:
    """mu^2 of a variance's pair term, or a ModelError naming mu beyond floats."""
    try:
        return mu**2
    except OverflowError:
        raise ModelError(f"intensity {mu:.6g} overflows mu^2 in the variance") from None


def _require_wide(R: float, K: Region):
    if not R > K.diameter:
        raise ModelError(
            f"formula requires R > diam(K) = {K.diameter:.6g}, got R = {R:.6g}"
        )


def _pair_cut_breaks(*fns: ConnectionFunction) -> tuple[float, ...]:
    """Separations where an overlap of the given functions can kink."""
    cuts = set()
    for f in fns:
        cuts.update(f.cut_radii)
    out = set(cuts)
    for c1 in cuts:
        for c2 in cuts:
            out.add(c1 + c2)
            if c1 != c2:
                out.add(abs(c1 - c2))
    return tuple(sorted(c for c in out if c > 0))


def _bracket_cutoff(mu: float, g: ConnectionFunction, d: int, spec: QuadratureSpec) -> float:
    """Radius beyond which any iso/pair bracket built from g is below tail_eps.

    Every pair exponent is at most 2 mu g(s/2) int(g), so the bracket decays
    like a constant multiple of g(s/2); integrating that tail against the
    shell area gives the 2^d rescaling below.  A bounded g has its support
    radius whatever the budget.  For an unbounded g whose budget
    tail_eps / (c_tilde 2^d) leaves floats, the budget is taken in logs to
    name it in a ModelError.
    """
    if g.support_radius is not None:
        return 2.0 * g.tail_radius(spec.tail_eps, d)
    Ig = radial_integral(g, d).value
    x = 2.0 * mu * Ig
    c_tilde = 8.0 * mu * Ig * (math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf) + 1.0
    eps = spec.tail_eps / (c_tilde * 2.0**d)
    if eps > 0.0:
        return 2.0 * g.tail_radius(eps, d)
    # log c_tilde = x + log(8 mu Ig + e^-x)
    log_eps = math.log(spec.tail_eps) - x - math.log(8.0 * mu * Ig + math.exp(-x)) \
        - d * math.log(2.0)
    raise ModelError(f"the bracket tail budget tail_eps / (c 2^d) = exp({log_eps:.6g}), "
                     f"with c = 8 mu int(g) exp({x:.6g}) + 1 and mu int(g) = {mu * Ig:.6g}, "
                     f"underflows: no cutoff radius within floats")


def _variance(mu, density, weight, pair, fns, d, spec, K=None) -> QuadResult:
    """A count's variance from its parts, the full function last in fns.

    On K: mu vol(K) density + mu^2 int_{K x K} weight pair(|x1 - x2|).  With
    K None, the limit per expected point: density + mu weight int_{R^d} pair
    up to the bracket's cutoff, with the one bound density.err
    (1 + 2 mu |int pair|) + mu (int pair.err + tail_eps): a weight of at
    most 1 moves by at most twice the density's error, and tail_eps covers
    the pair term beyond the cutoff.
    """
    breaks = _pair_cut_breaks(*fns)
    if K is not None:
        dri = double_region_integral(lambda s: weight * pair(s), K, spec, breaks)
        mu2 = _squared(mu)
        val = mu * K.volume * density.value + mu2 * dri.value
        return QuadResult(val, mu * K.volume * density.error + mu2 * dri.error)
    integ = radial_of(pair, d, _bracket_cutoff(mu, fns[-1], d, spec), spec, breaks)
    val = density.value + mu * weight * integ.value
    err = density.error * (1 + 2 * mu * abs(integ.value)) + mu * (integ.error + spec.tail_eps)
    return QuadResult(val, err)


def _isolated(mu, g, d, spec):
    """The isolated count's variance parts: iso, iso^2 and the bracket
    (1 - g(s)) pair(mu, g, g, s) - 1, array in, array out."""
    p = isolation_prob(mu, g, d)
    return (p, p.value**2,
            lambda s: (1.0 - g.eval(s)) * pair_factor(mu, g, g, s, d, spec).value - 1.0, (g,))


def _excess_density(mu, g_in, g_out, d) -> QuadResult:
    """iso(mu, g_in) (1 - iso(mu, g_out)): the excess mean per expected point.

    1 - iso(mu, g_out) is -expm1(-mu int g_out), which keeps its relative
    accuracy when the outside mass is small; iso(mu, g_out)'s error bounds
    its error.
    """
    p_in = isolation_prob(mu, g_in, d)
    p_out = isolation_prob(mu, g_out, d)
    miss = -math.expm1(-mu * radial_integral(g_out, d).value)
    return QuadResult(p_in.value * miss, p_in.error + p_out.error)


def _excess_parts(mu, g_in, g_out, g_full, d, spec):
    """The excess count's variance parts, and its bare bracket.

    The pair term is the bracket plus the long-edge term p_in^2 g_out(s)
    pair(mu, g_in, g_in, s), which shares the bracket's pair factor; each
    pair factor is evaluated once per separation.  Array in, array out.
    """
    p_in = isolation_prob(mu, g_in, d).value
    p_out = isolation_prob(mu, g_out, d).value
    p_full = isolation_prob(mu, g_full, d).value
    density = _excess_density(mu, g_in, g_out, d)
    const = density.value**2

    def terms(s):
        Pii = pair_factor(mu, g_in, g_in, s, d, spec).value
        Pif = pair_factor(mu, g_in, g_full, s, d, spec).value
        Pff = pair_factor(mu, g_full, g_full, s, d, spec).value
        bracket = (1.0 - g_full.eval(s)) * (
            p_in**2 * Pii - 2.0 * p_in**2 * p_out * Pif + p_full**2 * Pff
        ) - const
        return bracket, bracket + p_in**2 * g_out.eval(s) * Pii

    return (density, 1.0, lambda s: terms(s)[1], (g_in, g_out, g_full)), lambda s: terms(s)[0]
