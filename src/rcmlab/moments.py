"""Closed-form and limiting moments of isolated-vertex counting statistics.

Notation used throughout (all radial, evaluated by quadrature):

    iso(mu, h)        = exp(-mu * int h(|y|) dy)          isolation factor
    pair(mu, h1, h2)  = exp(+mu * int h1(|y-x1|) h2(|y-x2|) dy)
                        a function of s = |x1 - x2| only

The "excess" count L is the number of vertices that are isolated once the
connection function is truncated inside radius R but are not isolated under
the full function.  Its mean and variance admit exact formulas built from
iso/pair factors; the variance carries a positive extra term from pairs
joined by an edge longer than the truncation radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .connfn import ConnectionFunction, make_variant
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
    unit_box,
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

    @property
    def g_n(self) -> ConnectionFunction:
        return self.g if self.n == 1 else make_variant(self.g, "scaled", n=self.n)

    def at_n(self, n: float) -> "ModelConfig":
        return replace(self, n=n)


@dataclass(frozen=True)
class MomentReport:
    quantity: str
    value: float
    error_bound: float
    R: float | None = None
    n: float | None = None
    lam_n: float | None = None

    def __post_init__(self):
        if self.error_bound < 0:
            raise ModelError("error bound must be >= 0")


@dataclass(frozen=True)
class DominationConstant:
    """Constructive constants bounding the variance bracket by C * g(|x|/2)."""

    N: float
    M: float
    C_pair: float
    C_total: float
    note: str = ""

    def __post_init__(self):
        if not (self.N > 0 and self.M > 0 and self.C_pair > 0 and self.C_total > 0):
            raise ModelError("domination constants must be > 0")


# -- elementary factors -------------------------------------------------------


def isolation_prob(
    mu: float, h: ConnectionFunction, d: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Probability exp(-mu * int_{R^d} h(|y|) dy) that a point sees no h-neighbor.

    An integral error e moves p by at most p expm1(mu e), which is the bound.
    """
    if mu < 0:
        raise ModelError("intensity must be >= 0")
    integral = radial_integral(h, d, spec)
    p = math.exp(-mu * integral.value)
    try:
        return QuadResult(p, p * math.expm1(mu * integral.error))
    except OverflowError:
        raise ModelError(f"intensity {mu:.6g} overflows the error bound "
                         f"expm1({mu:.6g} * {integral.error:.3g})") from None


def pair_factor(
    mu: float,
    h1: ConnectionFunction,
    h2: ConnectionFunction,
    s,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """exp(+mu * overlap(h1, h2, s)) >= 1; the joint-isolation correlation factor.

    s is one separation (float value and error) or an array of them (arrays).
    An overlap error e moves the factor by at most v expm1(mu e), which is the
    bound.
    """
    if mu < 0:
        raise ModelError("intensity must be >= 0")
    ov, ov_err = overlap_rows(h1, h2, s, d, spec)
    v = np.exp(mu * ov)
    err = v * np.expm1(mu * ov_err)
    if np.ndim(s) == 0:
        return QuadResult(float(v[0]), float(err[0]))
    return QuadResult(v, err)


# -- isolated-vertex moments ---------------------------------------------------


def mean_isolated(cfg: ModelConfig, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """E of the isolated-vertex count on K: lam_n vol(K) iso(lam_n, g_n)."""
    p = isolation_prob(cfg.lam_n, cfg.g_n, cfg.d, spec)
    scale = cfg.lam_n * cfg.K.volume
    return QuadResult(scale * p.value, scale * p.error)


def var_isolated(cfg: ModelConfig, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadResult:
    """Exact variance of the isolated-vertex count on K.

    Second-moment formula: two points at separation s are both isolated iff
    they are mutually unconnected and no third point attaches to either,
    giving (1 - g_n(s)) iso^2 pair(s); the squared mean removes iso^2.
    """
    mu = cfg.lam_n
    g_n = cfg.g_n
    p = isolation_prob(mu, g_n, cfg.d, spec)
    mean = mu * cfg.K.volume * p.value
    bracket = _isolated_bracket(mu, g_n, cfg.d, spec)
    dri = double_region_integral(
        lambda s: p.value**2 * bracket(s), cfg.K, cfg.d, spec, _pair_cut_breaks(g_n, g_n)
    )
    val = mean + mu**2 * dri.value
    return QuadResult(val, mu * cfg.K.volume * p.error + mu**2 * dri.error)


def limit_var_isolated(
    lam: float, g: ConnectionFunction, d: int, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Limiting variance density of the isolated count per expected point.

    iso(lam, g) + lam * iso^2 * int_{R^d} [(1 - g(|x|)) pair(x, 0) - 1] dx;
    equals 1 in the empty-function direction (pure Poisson counts).
    """
    p = isolation_prob(lam, g, d, spec)
    T = _bracket_cutoff(lam, g, d, spec)
    integ = radial_of(_isolated_bracket(lam, g, d, spec), d, T, spec, _pair_cut_breaks(g, g))
    val = p.value + lam * p.value**2 * integ.value
    return QuadResult(val, p.error * (1 + 2 * lam * abs(integ.value)) + lam * integ.error)


# -- excess (truncation error) moments ----------------------------------------


def mean_excess_unscaled(
    lam: float,
    g: ConnectionFunction,
    R: float,
    K: Region,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """E of the excess count for the unscaled model; needs R > diam(K).

    This is mean_excess at n = 1, where the scale step is the identity.
    """
    _require_wide(R, K)
    return mean_excess(ModelConfig(d, lam, K, g), R, spec)


def var_excess_unscaled(
    lam: float,
    g: ConnectionFunction,
    R: float,
    K: Region,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Variance of the excess count for the unscaled model; needs R > diam(K).

    With R wider than the region no counted pair can be joined by a long
    edge, so the long-edge variance term vanishes identically here.
    """
    _require_wide(R, K)
    return var_excess(ModelConfig(d, lam, K, g), R, spec)


def mean_excess(
    cfg: ModelConfig, R: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """E of the excess count for the scaled model (valid for all R > 0, n >= 1)."""
    mu = cfg.lam_n
    g_in = make_variant(cfg.g, "cut_then_scale", R=R, n=cfg.n)
    g_out = make_variant(cfg.g, "cut_then_scale_outside", R=R, n=cfg.n)
    p_in = isolation_prob(mu, g_in, cfg.d, spec)
    p_out = isolation_prob(mu, g_out, cfg.d, spec)
    scale = mu * cfg.K.volume
    val = scale * p_in.value * (1.0 - p_out.value)
    err = scale * (p_in.error * (1.0 - p_out.value) + p_in.value * p_out.error)
    return QuadResult(val, err)


def var_excess(
    cfg: ModelConfig, R: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> QuadResult:
    """Variance of the excess count for the scaled model."""
    g_in = make_variant(cfg.g, "cut_then_scale", R=R, n=cfg.n)
    g_out = make_variant(cfg.g, "cut_then_scale_outside", R=R, n=cfg.n)
    return _excess_variance_region(cfg.lam_n, g_in, g_out, cfg.g_n, cfg.K, cfg.d, spec)


def limit_mean_excess(
    lam: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Limit of the normalised excess mean: iso(lam, g_R) (1 - iso(lam, g^R))."""
    if not R > 0:
        raise ModelError("R must be > 0")
    g_in = make_variant(g, "inside", R=R)
    return _excess_density(lam, g_in, make_variant(g, "outside", R=R), d, spec)


def limit_var_excess(
    lam: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadResult:
    """Limit of the normalised excess variance (bracket + long-edge term over R^d)."""
    if not R > 0:
        raise ModelError("R must be > 0")
    g_in = make_variant(g, "inside", R=R)
    g_out = make_variant(g, "outside", R=R)
    bracket, extra, p_in, p_out = _excess_parts(lam, g_in, g_out, g, d, spec)

    T = _bracket_cutoff(lam, g, d, spec)
    breaks = _pair_cut_breaks(g_in, g_out, g)
    main = radial_of(bracket, d, T, spec, breaks)

    Ig = radial_integral(g, d, spec).value
    T_extra = g.tail_radius(spec.tail_eps * math.exp(-lam * Ig), d)
    extra_int = radial_of(extra, d, T_extra, spec, breaks)

    first = p_in.value * (1.0 - p_out.value)
    val = first + lam * main.value + lam * p_in.value**2 * extra_int.value
    err = p_in.error + p_out.error + lam * (main.error + extra_int.error)
    return QuadResult(val, err)


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
    if not R > 0:
        raise ModelError("R must be > 0")
    num = limit_var_isolated(lam, make_variant(g, "inside", R=R), d, spec)
    den = limit_var_isolated(lam, g, d, spec)
    val = num.value / den.value
    err = (num.error + abs(val) * den.error) / den.value
    return QuadResult(val, err)


def swapped_truncation_means(
    lam: float,
    g: ConnectionFunction,
    R: float,
    K: Region,
    d: int,
    n_list: Sequence[float],
    density_rule: DensityRule | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[MomentReport]:
    """Normalised excess means when truncation is applied after scaling.

    With the truncation radius held fixed while the interaction shrinks, the
    cut removes asymptotically all of the connection mass and the normalised
    mean collapses to 0; needs R > diam(K) so the wide-R mean formula applies.
    """
    _require_wide(R, K)
    rows = []
    for n in n_list:
        cfg = ModelConfig(d=d, lam=lam, K=K, g=g, n=n, density_rule=density_rule)
        mu = cfg.lam_n
        g_in = make_variant(g, "scale_then_cut", R=R, n=n)
        g_out = make_variant(g, "scale_then_cut_outside", R=R, n=n)
        density = _excess_density(mu, g_in, g_out, d, spec)
        rows.append(
            MomentReport(
                quantity="swapped_mean_density",
                value=density.value,
                error_bound=density.error,
                R=R,
                n=n,
                lam_n=mu,
            )
        )
    return rows


# -- the domination bound ------------------------------------------------------


def excess_variance_bracket(
    nu: float,
    g: ConnectionFunction,
    R: float,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Callable:
    """Evaluator of the variance bracket at effective intensity nu.

    It takes a separation (float out) or an array of them (array out).
    This is the integrand whose absolute value the domination constants
    bound by C_total * g(|x|/2), uniformly in R and in the scale index.
    """
    g_in = make_variant(g, "inside", R=R)
    g_out = make_variant(g, "outside", R=R)
    return _excess_parts(nu, g_in, g_out, g, d, spec)[0]


def domination_constants(
    lam: float,
    g: ConnectionFunction,
    d: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
    density_rule: DensityRule | None = None,
) -> DominationConstant:
    """Construct (N, M, C_pair, C_total) for the bracket domination bound.

    M satisfies 4 lam g(M/2) int(g) <= 1; the pair constant is
    max(4 e lam int(g), (exp(4 lam int(g)) - 1) / g(M/2)) and the final
    constant is 4 (1 + C_pair).  For bounded-support g whose minimal M lands
    beyond the support, M shrinks to the largest radius with g(M/2) > 0 when
    the defining inequality still holds there; otherwise the uniform bound
    C_pair = 4 lam int(g) exp(4 lam int(g)) is reported (the bracket vanishes
    wherever g(|x|/2) does, so the inequality stays valid).
    """
    Ig = radial_integral(g, d, spec).value
    if not Ig > 0:
        raise ModelError("g must have positive integral")
    N = _index_threshold(lam, density_rule, d)

    def phi(M: float) -> float:
        return 4.0 * lam * g.eval(M / 2.0) * Ig - 1.0

    note = ""
    supp = g.support_radius
    if phi(0.0) <= 0.0:
        M = supp if supp is not None else 2.0 * (g.a or 1.0)
        if g.eval(M / 2.0) <= 0.0:
            M = supp  # g(supp/2) > 0 by monotone nontriviality
    else:
        hi = 2.0 * (supp if supp is not None else (g.a or 1.0))
        while phi(hi) > 0.0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        M = hi

    gM2 = g.eval(M / 2.0)
    if gM2 <= 0.0:
        # minimal valid M sits beyond the support of g
        M_alt = 2.0 * supp * (1.0 - 1e-12)
        if phi(M_alt) <= 0.0 and g.eval(M_alt / 2.0) > 0.0:
            M = M_alt
            gM2 = g.eval(M / 2.0)
            note = "M shrunk to the support edge"
        else:
            C_pair = 4.0 * lam * Ig * math.exp(4.0 * lam * Ig)
            return DominationConstant(
                N=N,
                M=2.0 * supp,
                C_pair=C_pair,
                C_total=4.0 * (1.0 + C_pair),
                note="uniform fallback bound (bounded support)",
            )

    C_pair = max(4.0 * math.e * lam * Ig, (math.exp(4.0 * lam * Ig) - 1.0) / gM2)
    return DominationConstant(
        N=N, M=M, C_pair=C_pair, C_total=4.0 * (1.0 + C_pair), note=note
    )


@dataclass(frozen=True)
class DominationCheck:
    ok: bool
    worst_margin: float  # max over the grid of |bracket| - C_total g(x/2)
    worst_pair_margin: float  # max of (pair(2 lam) - 1) - C_pair g(x/2)
    points: int


def check_domination(
    lam: float,
    g: ConnectionFunction,
    d: int,
    radii: Sequence[float],
    R_list: Sequence[float],
    n_list: Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC,
    density_rule: DensityRule | None = None,
) -> DominationCheck:
    """Numerically verify both domination inequalities on a grid; a margin
    of up to 1e-7 above zero is taken as quadrature noise."""
    const = domination_constants(lam, g, d, spec, density_rule)
    x = np.asarray(radii, dtype=float).reshape(-1)
    g_half = g.eval(x / 2.0)
    worst = -math.inf
    count = 0
    for n in n_list:
        cfg = ModelConfig(d=d, lam=lam, K=unit_box(d), g=g, n=n, density_rule=density_rule)
        nu = cfg.lam_n / n**d
        for R in R_list:
            bracket = excess_variance_bracket(nu, g, R, d, spec)
            margin = np.abs(bracket(x)) - const.C_total * g_half
            worst = max(worst, float(np.max(margin, initial=-math.inf)))
            count += x.size
    pf = pair_factor(2.0 * lam, g, g, x, d, spec).value
    worst_pair = float(np.max((pf - 1.0) - const.C_pair * g_half, initial=-math.inf))
    ok = worst <= 1e-7 and worst_pair <= 1e-7
    return DominationCheck(ok=ok, worst_margin=worst, worst_pair_margin=worst_pair, points=count)


# -- shared internals ----------------------------------------------------------


def _require_wide(R: float, K: Region):
    if not R > K.diameter:
        raise ModelError(
            f"formula requires R > diam(K) = {K.diameter:.6g}, got R = {R:.6g}"
        )


def _index_threshold(lam: float, density_rule: DensityRule | None, d: int) -> float:
    """Smallest n with 3/4 lam <= lam_n / n^d <= 3/2 lam (1 for the default rule)."""
    if density_rule is None:
        return 1.0
    for nn, ln in sorted(density_rule):
        ratio = ln / nn**d
        if 0.75 * lam <= ratio <= 1.5 * lam:
            return nn
    raise ModelError("no index in the density rule satisfies the 3/4..3/2 band")


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
    shell area gives the 2^d rescaling below.
    """
    Ig = radial_integral(g, d, spec).value
    c_tilde = 8.0 * mu * Ig * math.exp(2.0 * mu * Ig) + 1.0
    return 2.0 * g.tail_radius(spec.tail_eps / (c_tilde * 2.0**d), d)


def _isolated_bracket(mu, g, d, spec) -> Callable:
    """(1 - g(s)) pair(mu, g, g, s) - 1: the isolated count's variance bracket.

    Like pair_factor, it maps a separation to a float and an array to an array.
    """
    return lambda s: (1.0 - g.eval(s)) * pair_factor(mu, g, g, s, d, spec).value - 1.0


def _excess_density(mu, g_in, g_out, d, spec) -> QuadResult:
    """iso(mu, g_in) (1 - iso(mu, g_out)): the excess mean per expected point."""
    p_in = isolation_prob(mu, g_in, d, spec)
    p_out = isolation_prob(mu, g_out, d, spec)
    return QuadResult(p_in.value * (1.0 - p_out.value), p_in.error + p_out.error)


def _excess_parts(mu, g_in, g_out, g_full, d, spec):
    """Bracket and long-edge integrands, shared by the variance formulas.

    bracket maps a separation to a float and an array to an array; extra,
    an integrand of the quadrature kernels, maps an array to an array.
    """
    p_in = isolation_prob(mu, g_in, d, spec)
    p_out = isolation_prob(mu, g_out, d, spec)
    p_full = isolation_prob(mu, g_full, d, spec)
    const = p_in.value**2 * (1.0 - p_out.value) ** 2

    def bracket(s):
        Pii = pair_factor(mu, g_in, g_in, s, d, spec).value
        Pif = pair_factor(mu, g_in, g_full, s, d, spec).value
        Pff = pair_factor(mu, g_full, g_full, s, d, spec).value
        return (1.0 - g_full.eval(s)) * (
            p_in.value**2 * Pii
            - 2.0 * p_in.value**2 * p_out.value * Pif
            + p_full.value**2 * Pff
        ) - const

    def extra(s: np.ndarray) -> np.ndarray:
        gv = g_out.eval(s)
        out = np.zeros_like(gv)
        joined = gv > 0  # only these pairs can share a long edge
        if joined.any():
            out[joined] = gv[joined] * pair_factor(mu, g_in, g_in, s[joined], d, spec).value
        return out

    return bracket, extra, p_in, p_out


def _excess_variance_region(mu, g_in, g_out, g_full, K, d, spec) -> QuadResult:
    bracket, extra, p_in, p_out = _excess_parts(mu, g_in, g_out, g_full, d, spec)
    mean = mu * K.volume * p_in.value * (1.0 - p_out.value)
    breaks = _pair_cut_breaks(g_in, g_out, g_full)
    main = double_region_integral(bracket, K, d, spec, breaks)
    extra_int = double_region_integral(extra, K, d, spec, breaks)
    val = mean + mu**2 * main.value + mu**2 * p_in.value**2 * extra_int.value
    err = (
        mu * K.volume * (p_in.error + p_out.error)
        + mu**2 * (main.error + extra_int.error)
    )
    return QuadResult(val, err)
