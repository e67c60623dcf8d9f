import ast
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcmlab import moments
from rcmlab.connfn import exponential, gaussian, hard_disk, table_function
from rcmlab.moments import (
    ModelConfig,
    ModelError,
    domination_constants,
    excess_variance_bracket,
    isolation_prob,
    limit_mean_excess,
    limit_var_excess,
    limit_var_isolated,
    mean_excess,
    mean_isolated,
    pair_factor,
    swapped_mean_density,
    var_excess,
    var_isolated,
    variance_ratio,
)
from rcmlab.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    Region,
    overlap_rows,
    radial_integral,
    unit_box,
)
from rcmlab.stats import StatRequest, replicate_many


K1 = Region((0.0,), (1.0,))


def lens_area(s):
    return 2 * math.acos(s / 2) - (s / 2) * math.sqrt(4 - s * s)


class TestFactors:
    def test_isolation_prob_examples(self):
        dead = hard_disk(1.0).truncate_inside(0.0)
        assert isolation_prob(3.7, dead, 2).value == 1.0
        assert isolation_prob(1.0, hard_disk(1.0), 2).value == pytest.approx(
            math.exp(-math.pi), rel=1e-9
        )
        assert isolation_prob(2.0, exponential(1.0), 1).value == pytest.approx(
            math.exp(-4.0), rel=1e-9
        )

    def test_pair_factor_examples(self):
        disk = hard_disk(1.0)
        assert pair_factor(0.0, disk, disk, 1.0, 2).value == 1.0
        assert pair_factor(1.0, disk, disk, 2.0, 2).value == 1.0
        assert pair_factor(1.0, disk, disk, 1.0, 2).value == pytest.approx(
            math.exp(lens_area(1.0)), rel=1e-9
        )

    def test_pair_factor_at_least_one(self):
        for s in (0.0, 0.5, 1.5, 4.0):
            assert pair_factor(2.0, exponential(1.0), exponential(1.0), s, 1).value >= 1.0

    @given(st.floats(0.2, 4.0), st.floats(0.1, 2.0))
    def test_split_product_identity(self, R, mu):
        # iso(mu, g_R) * iso(mu, g^R) = iso(mu, g)
        g = exponential(1.0)
        p_in = isolation_prob(mu, g.truncate_inside(R), 1).value
        p_out = isolation_prob(mu, g.truncate_outside(R), 1).value
        assert p_in * p_out == pytest.approx(isolation_prob(mu, g, 1).value, rel=1e-9)

    # a dense d=3 model, mean degree ~804: exp(mu O(0)) leaves floats, where
    # the disks overlap and 1 - g(s) = 0 in the variance bracket
    def test_overflowing_pair_factor_is_a_model_error(self):
        disk = hard_disk(4.0)
        with pytest.raises(ModelError, match=r"intensity 3 overflows the pair factor exp\(3 \* 268"):
            pair_factor(3.0, disk, disk, np.array([9.0, 0.0]), 3)
        assert pair_factor(3.0, disk, disk, np.array([8.0, 9.0]), 3).value.tolist() == [1.0, 1.0]

    def test_negative_intensity_rejected(self):
        with pytest.raises(ModelError):
            isolation_prob(-1.0, exponential(1.0), 1)

    def test_a_vanishing_isolation_probability_takes_its_top_as_bound(self):
        # the mass 2e307 has a rounding bound of ~1e294, so expm1(mu e)
        # overflows; p and the exact probability lie in [0, exp(-mu (I - e))]
        integral = radial_integral(exponential(1e307), 1)
        assert integral.value == pytest.approx(2e307, rel=1e-15)
        assert integral.error > 709.8
        assert isolation_prob(1.0, exponential(1e307), 1) == (0.0, 0.0)

    def test_a_squared_intensity_beyond_floats_is_a_model_error(self):
        cfg = ModelConfig(d=1, lam=1e200, K=unit_box(1), g=exponential(1e-200))
        with pytest.raises(ModelError, match=r"intensity 1e\+200 overflows mu\^2"):
            var_isolated(cfg)

    @pytest.mark.parametrize("d", [1, 2])
    def test_exponent_errors_bound_the_factor_exactly(self, d):
        # an error e in the exponent moves exp(+-mu O) by at most v expm1(mu e),
        # more than the first-order v mu e; the values are exp(+-mu O) as before
        mu = 3.0
        h = exponential(1.0).truncate_inside(1.0)  # a quadrature overlap
        s = np.array([0.0, 0.4, 1.3])
        ov, ov_err = overlap_rows(h, exponential(1.0), s, d)
        pf = pair_factor(mu, h, exponential(1.0), s, d)
        assert np.array_equal(pf.value, np.exp(mu * ov))
        assert np.array_equal(pf.error, pf.value * np.expm1(mu * ov_err))
        assert np.all(pf.error > pf.value * mu * ov_err)
        integral = radial_integral(h, d)
        p = isolation_prob(mu, h, d)
        assert p.value == math.exp(-mu * integral.value)
        assert p.error == p.value * math.expm1(mu * integral.error)
        assert p.error > p.value * mu * integral.error


class TestModelConfig:
    def test_lambda_scaling(self):
        cfg = ModelConfig(d=2, lam=1.5, K=unit_box(2), g=exponential(1.0), n=4.0)
        assert cfg.lam_n == pytest.approx(1.5 * 16)

    def test_explicit_rule(self):
        cfg = ModelConfig(
            d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0,
            density_rule=((1.0, 1.1), (2.0, 2.3)),
        )
        assert cfg.lam_n == 2.3
        with pytest.raises(ModelError):
            _ = cfg.at_n(4.0).lam_n

    def test_validation(self):
        with pytest.raises(ModelError):
            ModelConfig(d=4, lam=1.0, K=unit_box(1), g=exponential(1.0))
        with pytest.raises(ModelError):
            ModelConfig(d=1, lam=0.0, K=K1, g=exponential(1.0))
        with pytest.raises(ModelError):
            ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=0.5)
        with pytest.raises(ModelError):
            ModelConfig(d=2, lam=1.0, K=K1, g=exponential(1.0))


class TestUnscaledMoments:
    """The unscaled model is the n = 1 member of the scaled sequence."""

    def test_mean_bounded_support_vanishes(self):
        # once the cut covers the whole support nothing can be excess
        cfg = ModelConfig(1, 1.0, K1, hard_disk(1.0))
        assert mean_excess(cfg, 2.0).value == pytest.approx(0.0, abs=1e-12)

    def test_mean_analytic_example(self):
        got = mean_excess(ModelConfig(2, 1.0, unit_box(2), exponential(1.0)), 2.0).value
        in_mass = 2 * math.pi * (1 - 3 * math.exp(-2))
        out_mass = 2 * math.pi * 3 * math.exp(-2)
        expect = math.exp(-in_mass) * (1 - math.exp(-out_mass))
        assert got == pytest.approx(expect, rel=1e-9)

    def test_mean_tiny_intensity(self):
        cfg = ModelConfig(1, 1e-12, K1, exponential(1.0))
        assert mean_excess(cfg, 2.0).value == pytest.approx(0.0, abs=1e-11)

    def test_var_bounded_support_vanishes(self):
        got = var_excess(ModelConfig(1, 1.0, K1, hard_disk(1.0)), 2.0).value
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_against_monte_carlo(self):
        # dual route for the n = 1 formulas at R / n = 2 > diam K
        lam, R = 1.0, 2.0
        g = exponential(1.0)
        cfg = ModelConfig(d=1, lam=lam, K=K1, g=g, n=1.0)
        out = replicate_many(
            cfg, [StatRequest(name="L", kind="excess", r0=R)], 20000, base_seed=424242
        )
        sample = out["L"]
        mean = mean_excess(cfg, R).value
        var = var_excess(cfg, R).value
        assert abs(sample.mean - mean) <= 3 * sample.se_mean
        assert abs(sample.variance - var) <= 3 * sample.bootstrap_se_var()


class TestScaledMoments:
    def test_mean_vanishes_when_cut_covers_support(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=hard_disk(1.0), n=2.0)
        assert mean_excess(cfg, 2.0).value == pytest.approx(0.0, abs=1e-12)
        assert var_excess(cfg, 2.0).value == pytest.approx(0.0, abs=1e-9)

    def test_mean_closed_form(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)
        p_in = math.exp(-2 * (1 - math.exp(-1)))
        p_out = math.exp(-2 * math.exp(-1))
        assert mean_excess(cfg, 1.0).value == pytest.approx(2 * p_in * (1 - p_out), rel=1e-9)

    def test_n1_matches_unscaled(self):
        # at n = 1 the parts of cut then scale are the plain inside/outside cuts
        cfg = ModelConfig(d=1, lam=1.3, K=K1, g=exponential(0.8), n=1.0)
        a = mean_excess(cfg, 2.0).value
        b = 1.3 * K1.volume * limit_mean_excess(1.3, exponential(0.8), 2.0, 1).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_a_cut_that_rounds_to_zero_over_n(self):
        # R > 0, but R / n rounds to 0: the inside part is empty
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)
        p = isolation_prob(cfg.lam_n, cfg.g_n, 1).value
        assert mean_excess(cfg, 5e-324).value == pytest.approx(cfg.lam_n * (1 - p), rel=1e-9)

    def test_variance_positive_and_exceeds_nothing_weird(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)
        v = var_excess(cfg, 1.0).value
        assert v > 0


class TestIsolatedMoments:
    def test_mean(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)
        assert mean_isolated(cfg).value == pytest.approx(2 * math.exp(-2), rel=1e-9)

    def test_limit_var_toward_poisson(self):
        # weak interaction: variance density approaches the Poisson value 1
        weak = hard_disk(0.05)
        val = limit_var_isolated(0.01, weak, 1).value
        assert val == pytest.approx(1.0, abs=2e-3)

    def test_limit_var_positive(self):
        assert limit_var_isolated(1.0, hard_disk(1.0), 2).value > 0
        assert limit_var_isolated(1.0, exponential(1.0), 1).value > 0

    def test_var_isolated_d2_against_mpmath(self):
        # configs/clt_2d.cfg at n = 4, where quadrature overlaps once put the
        # value 1.0e-9 off with a bound of 8.6e-10.  The reference is one
        # mpmath integral over s of p^2 [(1 - g_n(s)) exp(mu O(s)) - 1] s A(s),
        # with O(s) = pi s^2 K_2(s/a) / 4 and the unit square's shell mass A(s).
        n, a = 4, mpmath.mpf(0.3) / 4
        mu = mpmath.mpf(n) ** 2
        with mpmath.workdps(20):
            p = mpmath.exp(-mu * 2 * mpmath.pi * a * a)

            def shell(s):
                if s <= 1:
                    return 2 * mpmath.pi - 8 * s + 2 * s * s
                F = lambda t: t - s * mpmath.sin(t) + s * mpmath.cos(t) + (s * mpmath.sin(t)) ** 2 / 2
                return 4 * max(0, F(mpmath.asin(1 / s)) - F(mpmath.acos(1 / s)))

            def integrand(s):
                overlap = mpmath.pi * s * s * mpmath.besselk(2, s / a) / 4
                bracket = (1 - mpmath.exp(-s / a)) * mpmath.exp(mu * overlap) - 1
                return p * p * bracket * s * shell(s)

            dri = mpmath.quad(integrand, [0, a, 4 * a, 1, mpmath.sqrt(2)])
            want = mu * p + mu * mu * dri
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)
        got = var_isolated(cfg)
        assert abs(got.value - float(want)) <= got.error


class TestLimitBounds:
    """Each limit's error bound against a reference computed apart from
    quadrature.py: the bound of _variance must cover the true error."""

    def test_disk_limit_against_mpmath(self):
        # p + p^2 [-pi + 2 pi int_1^2 s (exp(lens(s)) - 1) ds], p = exp(-pi):
        # the bracket is -1 inside the disk, and the pair factor is 1 beyond 2
        with mpmath.workdps(30):
            p = mpmath.exp(-mpmath.pi)
            lens = lambda s: 2 * mpmath.acos(s / 2) - (s / 2) * mpmath.sqrt(4 - s * s)
            tail = mpmath.quad(lambda s: s * (mpmath.exp(lens(s)) - 1), [1, 2])
            want = p + p * p * (-mpmath.pi + 2 * mpmath.pi * tail)
        assert float(want) == 0.048757943962610295
        got = limit_var_isolated(1.0, hard_disk(1.0), 2)
        assert abs(got.value - float(want)) <= got.error

    def test_exponential_limit_against_mpmath(self):
        # p + 2 pi p^2 int_0^inf s [(1 - e^{-s/a}) exp(pi s^2 K_2(s/a) / 4) - 1] ds
        # with a = 0.3 and p = exp(-2 pi a^2), by mpmath.quad at 30 digits on
        # [0, a, 4a, 20a, inf] (about 8 s, so kept as a literal)
        want = 0.47627598160085224
        got = limit_var_isolated(1.0, exponential(0.3), 2)
        assert abs(got.value - want) <= got.error

    def test_table_limit_against_its_tight_spec_value(self):
        # limit_var_isolated(1, table, 2) at QuadratureSpec(rel_tol=1e-12,
        # abs_tol=1e-14, tail_eps=1e-15, max_subdiv=4096), which reports a
        # bound of 1.6e-13; its nested quadrature drops its inner errors, so
        # the default spec's bound is checked against this value
        tight = 0.36115699105282933
        table = table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)])
        got = limit_var_isolated(1.0, table, 2)
        assert abs(got.value - tight) <= got.error


# each of these forms one piece of the variance identity, in _variance alone
ASSEMBLY = ("double_region_integral", "radial_of", "_bracket_cutoff", "_squared")


def _call_sites(tree):
    """{name: the top-level definitions that call it} for each ASSEMBLY name."""
    sites = {name: [] for name in ASSEMBLY}
    for top in tree.body:
        for sub in ast.walk(top):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in sites:
                sites[sub.func.id].append(getattr(top, "name", None))
    return sites


def test_the_variance_identity_is_assembled_once():
    tree = ast.parse(Path(moments.__file__).read_text())
    assert _call_sites(tree) == {name: ["_variance"] for name in ASSEMBLY}


def test_a_second_assembly_is_named():
    tree = ast.parse(Path(moments.__file__).read_text())
    tree.body.extend(ast.parse(
        "def var_again(mu, K):\n    return double_region_integral(f, K), _squared(mu)\n"
    ).body)
    sites = _call_sites(tree)
    assert sites["double_region_integral"] == sites["_squared"] == ["_variance", "var_again"]


class TestLimits:
    def test_limit_mean_analytic_d2(self):
        in_mass = 2 * math.pi * (1 - 2 * math.exp(-1))
        out_mass = 2 * math.pi * 2 * math.exp(-1)
        expect = math.exp(-in_mass) * (1 - math.exp(-out_mass))
        got = limit_mean_excess(1.0, exponential(1.0), 1.0, 2).value
        assert got == pytest.approx(expect, rel=1e-9)

    # exponential(1) in d = 1 cut at R has outside mass 2 e^-R, so the excess
    # mean is exp(-2 (1 - e^-R)) (1 - exp(-2 e^-R)) per point; formed by
    # subtraction, 1 - iso kept only an absolute accuracy once e^-R is small
    @pytest.mark.parametrize("which, R", [("limit", 16.0), ("swapped", 32.0)])
    def test_a_small_outside_mass_keeps_its_relative_accuracy(self, which, R):
        with mpmath.workdps(30):
            tail = mpmath.exp(-R)
            want = float(mpmath.exp(-2 * (1 - tail)) * -mpmath.expm1(-2 * tail))
        if which == "limit":  # c05's mean at R = 16
            got = limit_mean_excess(1.0, exponential(1.0), R, 1)
        else:  # c06's at n = 16: g(16 x) cut at 2 is exponential(1) cut at 32, lam_n = 16
            got = swapped_mean_density(ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=16.0), 2.0)
        assert got.value == pytest.approx(want, rel=1e-14, abs=0.0)
        assert abs(got.value - want) <= got.error

    def test_limit_mean_large_R(self):
        assert limit_mean_excess(1.0, exponential(1.0), 40.0, 1).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_limit_var_decays_in_R(self):
        v1 = limit_var_excess(1.0, exponential(1.0), 1.0, 1).value
        v8 = limit_var_excess(1.0, exponential(1.0), 8.0, 1).value
        assert 0 < v8 < v1

    def test_ratio_is_one_for_covered_support(self):
        assert variance_ratio(1.0, hard_disk(1.0), 2.0, 1).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_a_cut_beyond_the_disk_leaves_no_excess(self):
        # hard_disk(2) cut inside at 3 is hard_disk(2) itself, by the same
        # closed form, and its outside part is empty
        assert limit_var_excess(1.0, hard_disk(2.0), 3.0, 1).value == 0.0

    def test_ratio_small_R_inverse_limit(self):
        lam, g = 1.0, exponential(1.0)
        tiny = variance_ratio(lam, g, 1e-6, 1).value
        assert tiny == pytest.approx(1.0 / limit_var_isolated(lam, g, 1).value, rel=1e-3)


_SCALED_CFG = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0), n=2.0)

# each formula that cuts g at R, as a function of R
CUT_FORMULAS = {
    "mean_excess": lambda R: mean_excess(_SCALED_CFG, R),
    "var_excess": lambda R: var_excess(_SCALED_CFG, R),
    "limit_mean_excess": lambda R: limit_mean_excess(1.0, exponential(1.0), R, 1),
    "limit_var_excess": lambda R: limit_var_excess(1.0, exponential(1.0), R, 1),
    "variance_ratio": lambda R: variance_ratio(1.0, exponential(1.0), R, 1),
    "excess_variance_bracket": lambda R: excess_variance_bracket(1.0, exponential(1.0), R, 1),
}


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("formula", sorted(CUT_FORMULAS))
def test_a_cut_needs_a_positive_radius(formula, R):
    with pytest.raises(ModelError, match="R must be > 0"):
        CUT_FORMULAS[formula](R)


class TestExcessIntegrand:
    @pytest.mark.parametrize("formula", ["var_excess", "limit_var_excess"])
    def test_each_pair_factor_separation_is_evaluated_once(self, monkeypatch, formula):
        seen = {}
        inner = moments.pair_factor

        def recording(mu, h1, h2, s, d, spec=DEFAULT_SPEC):
            seen.setdefault((h1, h2), []).extend(np.ravel(s).tolist())
            return inner(mu, h1, h2, s, d, spec)

        monkeypatch.setattr(moments, "pair_factor", recording)
        CUT_FORMULAS[formula](1.0)
        assert seen
        for pair, sep in seen.items():
            repeats = len(sep) - len(set(sep))
            assert repeats == 0, (pair, f"{repeats} of {len(sep)} separations repeat")

    def test_the_bracket_cutoff_covers_the_long_edge_tail(self):
        # beyond g.tail_radius(tail_eps e^(-lam int g)) the long-edge term's
        # tail is below tail_eps, so one integral to the bracket's cutoff
        # bounds both terms
        fns = [
            hard_disk(1.0),
            exponential(1.0),
            exponential(0.3),
            gaussian(0.7),
            table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]),
            exponential(1.0).scale(4.0),
            gaussian(1.0).truncate_inside(1.5),
            exponential(1.0).truncate_outside(0.5),
        ]
        checked = 0
        for spec in (DEFAULT_SPEC, QuadratureSpec(rel_tol=1e-4, abs_tol=1e-5, tail_eps=1e-6)):
            for g, d, lam in itertools.product(fns, (1, 2, 3), (1e-6, 0.1, 1.0, 5.0, 50.0)):
                eps = spec.tail_eps * math.exp(-lam * radial_integral(g, d).value)
                if eps == 0.0:
                    continue
                try:
                    T = moments._bracket_cutoff(lam, g, d, spec)
                except ModelError:
                    continue
                assert T >= 2.0 * g.tail_radius(eps, d), (g, d, lam, spec)
                checked += 1
        assert checked >= 150


class TestSwappedTruncation:
    def test_sequence_decreases_to_zero(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0))
        vals = [swapped_mean_density(cfg.at_n(n), 2.0).value for n in (1.0, 2.0, 4.0, 8.0)]
        assert vals[0] > 0.03  # positive base case before the collapse
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_bounded_support_exact_zero(self):
        cfg = ModelConfig(d=1, lam=1.0, K=K1, g=hard_disk(1.0))
        assert all(swapped_mean_density(cfg.at_n(n), 2.0).value == 0.0 for n in (1.0, 2.0, 4.0))

    def test_scaling_identity_with_widened_cut(self):
        # iso(lam_n, scale-then-cut) equals iso(lam_n / n^d, widened cut)
        g = exponential(1.0)
        n, R, lam_n = 4.0, 2.0, 4.0
        lhs = isolation_prob(lam_n, g.scale(n).truncate_inside(R), 1).value
        rhs = isolation_prob(lam_n / n, g.truncate_inside(n * R), 1).value
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_requires_wide_radius(self):
        with pytest.raises(ModelError):
            swapped_mean_density(ModelConfig(d=1, lam=1.0, K=K1, g=exponential(1.0)), 0.5)


def _worst_margins(lam, g, d, radii, R_list):
    """Worst margins of both domination inequalities on a grid: max of
    |bracket| - C_total g(x/2) over x and R, and of (pair(2 lam) - 1) - C_pair g(x/2)."""
    const = domination_constants(lam, g, d)
    x = np.asarray(radii, dtype=float)
    g_half = g.eval(x / 2.0)
    worst = max(float(np.max(np.abs(excess_variance_bracket(lam, g, R, d)(x))
                             - const.C_total * g_half)) for R in R_list)
    pf = pair_factor(2.0 * lam, g, g, x, d).value
    return worst, float(np.max((pf - 1.0) - const.C_pair * g_half))


class TestDomination:
    def test_exponential_constants(self):
        const = domination_constants(1.0, exponential(1.0), 1)
        assert const.M == pytest.approx(2 * math.log(8), rel=1e-6)
        expect_pair = max(8 * math.e, 8 * (math.exp(8) - 1))
        assert const.C_pair == pytest.approx(expect_pair, rel=1e-5)
        assert const.C_total == pytest.approx(4 * (1 + const.C_pair))

    def test_tiny_intensity_trivial(self):
        const = domination_constants(1e-9, exponential(1.0), 1)
        assert const.C_total == pytest.approx(4.0, rel=1e-6)

    def test_bounded_support_fallback(self):
        const = domination_constants(1.0, hard_disk(1.0), 2)
        assert const.C_pair == pytest.approx(4 * math.pi * math.exp(4 * math.pi), rel=1e-8)
        worst = _worst_margins(1.0, hard_disk(1.0), 2, [0.5, 1.0, 1.9, 2.5, 4.0], (0.5, 2.0))
        assert max(worst) <= 1e-7, worst

    def test_bracket_vanishes_beyond_double_support(self):
        bracket = excess_variance_bracket(1.0, hard_disk(1.0), 0.5, 2)
        assert bracket(3.0) == pytest.approx(0.0, abs=1e-10)

    # a row's value does not depend on the batch it is evaluated in
    def test_bracket_is_batch_invariant(self):
        bracket = excess_variance_bracket(1.0, exponential(1.0), 0.5, 2)
        x = np.array([0.0, 0.3, 0.5, 1.0, 2.5])
        assert np.array_equal(bracket(x), np.concatenate([bracket(x[k:k + 1]) for k in range(5)]))

    def test_pair_factor_is_batch_invariant(self):
        x = np.array([0.0, 0.4, 1.7])
        # a closed-form overlap and a quadrature one
        for g in (exponential(0.8), exponential(0.8).truncate_inside(1.0)):
            arr = pair_factor(1.5, g, g, x, 2)
            ones = [pair_factor(1.5, g, g, x[k:k + 1], 2) for k in range(3)]
            assert np.array_equal(arr.value, np.concatenate([one.value for one in ones]))
            assert np.array_equal(arr.error, np.concatenate([one.error for one in ones]))
            assert isinstance(pair_factor(1.5, g, g, 0.4, 2).value, np.ndarray)

    def test_grid_inequality_exponential(self):
        radii = np.geomspace(0.05, 10.0, 10)
        worst = _worst_margins(1.0, exponential(1.0), 1, radii, (0.5, 2.0))
        assert max(worst) <= 1e-7, worst

    def test_scaled_function_takes_its_radius_from_g(self):
        # phi(0) <= 0 and g(a) underflows: M halves until g(M/2) > 0
        g = exponential(1.0).scale(1000.0)
        const = domination_constants(1e-9, g, 1)
        assert g.eval(const.M / 2.0) > 0.0
        worst = _worst_margins(1e-9, g, 1, np.geomspace(1e-4, 1.0, 12), (0.001, 0.01))
        assert max(worst) <= 1e-7, worst

    def test_function_vanishing_at_zero_is_a_model_error(self):
        with pytest.raises(ModelError, match="positive at 0"):
            domination_constants(1.0, exponential(1.0).truncate_outside(5.0), 1)


class TestVarIsolatedFormula:
    def test_var_equals_mean_for_negligible_interaction(self):
        # nearly independent points: the count is nearly Poisson
        cfg = ModelConfig(d=1, lam=0.05, K=K1, g=hard_disk(0.01), n=1.0)
        assert var_isolated(cfg).value == pytest.approx(mean_isolated(cfg).value, rel=1e-2)


# (value, error_bound) before the moment layer evaluated separations in
# batches; the batched kernels may move a value by at most its old bound
_D2_DISK_BOX = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(1.0), n=2.0)
_D1_EXP = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=1.0)
PINNED = {
    "limit_var_isolated_disk": (
        lambda: limit_var_isolated(1.0, hard_disk(1.0), 2),
        (0.04875794397660817, 1.0570269189306758e-08),
    ),
    "var_isolated_disk_n2": (
        lambda: var_isolated(_D2_DISK_BOX),
        (0.1728417286444767, 6.000507992804415e-10),
    ),
    "limit_var_isolated_exp03": (
        lambda: limit_var_isolated(1.0, exponential(0.3), 2),
        (0.4762759814252013, 1.4335603332779739e-09),
    ),
    "limit_var_excess_d1": (
        lambda: limit_var_excess(1.0, exponential(1.0), 1.0, 1),
        (0.1643722114252798, 8.707548583139215e-10),
    ),
    "var_excess_d1_n2": (
        lambda: var_excess(_D1_EXP.at_n(2.0), 1.0),
        (0.2854635100755141, 5.195275994173738e-10),
    ),
    "var_excess_d1_n8": (
        lambda: var_excess(_D1_EXP.at_n(8.0), 1.0),
        (1.2598751262041699, 1.138689528309276e-09),
    ),
    "var_excess_d1_n16": (
        lambda: var_excess(_D1_EXP.at_n(16.0), 1.0),
        (2.5747521327037006, 1.1308050717578217e-08),
    ),
    "var_excess_d1_n32": (
        lambda: var_excess(_D1_EXP.at_n(32.0), 1.0),
        (5.204707448716773, 4.516675318896255e-08),
    ),
    # (value, error_bound) while the long-edge term was a second integral with
    # its own cutoff; the one merged integral may move each by its old bound
    "var_excess_d2_exp03_n2": (
        lambda: var_excess(ModelConfig(2, 1.0, unit_box(2), exponential(0.3), 2.0), 1.0),
        (0.2436228559796582, 1.8242685402818596e-09),
    ),
    "limit_var_excess_d2_exp03": (
        lambda: limit_var_excess(1.0, exponential(0.3), 1.0, 2),
        (0.0847742147681117, 3.679379033674103e-10),
    ),
    "var_excess_d3_exp03_n2_R2": (
        lambda: var_excess(ModelConfig(3, 1.0, unit_box(3), exponential(0.3), 2.0), 2.0),
        (0.10699757743868776, 9.611030686613084e-10),
    ),
    "limit_var_excess_d3_exp03": (
        lambda: limit_var_excess(1.0, exponential(0.3), 1.0, 3),
        (0.22786451925434764, 2.4014410732330632e-11),
    ),
    "var_excess_d2_gauss07_n2_R2": (
        lambda: var_excess(ModelConfig(2, 1.0, unit_box(2), gaussian(0.7), 2.0), 2.0),
        (0.00037861698842589606, 1.4292316070832031e-09),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_moment_values(name):
    fn, (old, old_bound) = PINNED[name]
    new = fn()
    assert abs(new.value - old) <= old_bound, (new.value, old)
