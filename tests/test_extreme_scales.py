"""Tail radii, masses, isolation probabilities and domination constants at
extreme scales: every call returns finite numbers or raises one of the
library's own errors, never a bare OverflowError, ZeroDivisionError, TypeError
or floating-point warning, and never an inf or a NaN.  A tail mass far below
the budget has radius 0 however its scale factors multiply out, and a mass is
within its bound of the exact one, or beyond floats and refused."""

import math
import re
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rcmlab import cli
from rcmlab.connfn import ConnFnError, exponential, gaussian, hard_disk, table_function
from rcmlab.moments import ModelError, domination_constants, isolation_prob
from rcmlab.quadrature import QuadratureError, radial_integral

KINDS = {"exponential": exponential, "gaussian": gaussian, "hard_disk": hard_disk}

powers = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def stacks(draw):
    """A builtin at scale 10^k, |k| <= 300, under up to three such scale factors."""
    g = KINDS[draw(st.sampled_from(sorted(KINDS)))](draw(powers))
    for factor in draw(st.lists(powers, max_size=3)):
        g = g.scale(factor)
    return g


def _log_mass(g, d):
    """log int_{R^d} g for an unbounded builtin under scale factors, in logs
    throughout: omega_d a^d Gamma(d), or omega_d a^d Gamma(d/2) / 2."""
    shape = math.gamma(d) if g.kind == "exponential" else math.gamma(d / 2) / 2
    log_scale = math.log(g.a) - sum(math.log(n) for n in g.scales)
    return math.log((2.0, 2.0 * math.pi, 4.0 * math.pi)[d - 1] * shape) + d * log_scale


def _finite_or_refused(call):
    try:
        values = call()
    except (ConnFnError, ModelError, QuadratureError):
        return
    assert all(math.isfinite(v) for v in values), values


@settings(derandomize=True, max_examples=500, deadline=None)
@given(g=stacks(), d=st.integers(1, 3), eps=powers, lam=powers)
# the product of the scale factors overflows, but the mass is 2 pi 1e-600
@example(g=exponential(1e300).scale(1e300).scale(1e300), d=2, eps=1e-12, lam=1.0)
# exp(4 lam int(g)) overflows in the pair constant and in the uniform fallback
@example(g=exponential(1.0), d=1, eps=1e-12, lam=100.0)
@example(g=hard_disk(1.0), d=2, eps=1e-12, lam=100.0)
def test_finite_or_a_library_error(g, d, eps, lam):
    if g.support_radius is None and _log_mass(g, d) < math.log(eps / 2) - 1.0:
        assert g.tail_radius(eps, d) == 0.0
    _finite_or_refused(lambda: (g.tail_radius(eps, d),))
    _finite_or_refused(lambda: isolation_prob(lam, g, d))
    _finite_or_refused(lambda: astuple(domination_constants(lam, g, d))[:3])


@pytest.mark.parametrize("lam,g,d,exponent", [
    (100.0, exponential(1.0), 1, "exp(800)"),  # the pair constant
    (100.0, hard_disk(1.0), 2, "exp(1256.64)"),  # the uniform fallback
    (88.5, exponential(1.0), 1, "exp(708)"),  # exp is finite, the constant is not
])
def test_overflowing_domination_constants_name_the_exponent(lam, g, d, exponent):
    with pytest.raises(ModelError, match=re.escape(exponent)):
        domination_constants(lam, g, d)


def _mp_mass(g, d):
    """int_{R^d} g at 50 digits, with the exact product of the scale factors
    (a hard disk's edge is its float support radius, as eval compares on it)."""
    with mpmath.workdps(50):
        om = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        if g.kind == "hard_disk":
            return om / d * mpmath.mpf(g.support_radius) ** d
        q = mpmath.mpf(g.a) / mpmath.fprod([mpmath.mpf(n) for n in g.scales])
        shape = mpmath.gamma(d) if g.kind == "exponential" else mpmath.gamma(mpmath.mpf(d) / 2) / 2
        return om * shape * q**d


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=stacks(), d=st.integers(1, 3))
# a partial product of the factors is 1e-308, the net factor 1e-8: mass 2e8
@example(g=exponential(1.0).scale(1e-308).scale(1e300), d=1)
# the product of the factors overflows, and the mass 2 pi 1e-1200 underflows
@example(g=exponential(1e300).scale(1e300).scale(1e300), d=2)
def test_the_mass_is_exact_or_beyond_floats(g, d):
    ref = _mp_mass(g, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = radial_integral(g, d)
        except QuadratureError:
            assert ref > sys.float_info.max * (1 - 1e-12)
            return
    assert abs(mpmath.mpf(res.value) - ref) <= res.error
    assert res.error <= 64 * 2.0**-52 * res.value + 1e-320


# a partial product (or quotient) of the factors leaves the floats, the net
# factor 1e-8 does not: each stack is its one factor 1e-8 up to rounding
@pytest.mark.parametrize("factors", [(1e-308, 1e300), (1e300, 1e-308)])
def test_a_partial_product_beyond_floats_takes_the_net_factor(factors):
    def stacked(g):
        for n in factors:
            g = g.scale(n)
        return g

    x = np.array([0.0, 1e8, 2e8, 4e8, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for base in (exponential(1.0), gaussian(1.0), table_function([(0, 1), (1, 0.5), (2, 0)])):
            g, one = stacked(base), base.scale(1e-8)
            assert np.allclose(g.eval(x), one.eval(x), rtol=4e-15, atol=1e-15)
            assert g.eval(2e8) == g.eval(x)[2]
        assert exponential(1.0).scale(1e-308).scale(1e300).eval(2e8) == pytest.approx(math.exp(-2.0), rel=4e-16)
        disk = stacked(hard_disk(2.0))
        assert disk.support_radius == pytest.approx(2e8, rel=4e-16)
        assert disk.cut_radii == (disk.support_radius,)
        assert disk.eval(3e8) == 0.0 and disk.eval(1.9e8) == 1.0
        mass, err = disk.mass(2)
        assert abs(mass - math.pi * disk.support_radius**2) <= err
        table = stacked(table_function([(0, 1), (1, 0.5), (2, 0)]))
        assert table.support_radius == pytest.approx(2e8, rel=4e-16)
        assert table.cut_radii == pytest.approx((1e8, 2e8), rel=4e-16)


def test_entries_whose_partial_products_stay_finite_keep_their_bits():
    # x 1e300 is finite at 1e8 and inf at 2e8: only the second entry is
    # taken from the net factor
    g = exponential(1.0).scale(1e-308).scale(1e300)
    x = np.array([1e8, 2e8])
    got = g.eval(x)
    assert got[0] == np.exp(-(x[0] * 1e300 * 1e-308))
    assert got[1] == pytest.approx(math.exp(-2.0), rel=4e-16)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=stacks(), t=st.floats(0.0, 30.0))
@example(g=exponential(1.0).scale(1e-308).scale(1e300), t=2.0)
@example(g=gaussian(1e-300).scale(1e300).scale(1e-300).scale(1e-300), t=1.5)
def test_eval_follows_the_net_factor(g, t):
    # at x = t a / F, F the exact product of the factors, the base is at t
    # (a hard disk is 1 inside its edge), whatever the partial products
    with mpmath.workdps(50):
        q = mpmath.mpf(g.a) / mpmath.fprod([mpmath.mpf(n) for n in g.scales])
        x = float(t * q)
    if not 1e-300 < x < 1e300:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = g.eval(x)
    if g.kind == "hard_disk":
        assert value == float(x <= g.support_radius)
        assert g.support_radius == pytest.approx(float(q), rel=1e-15)
    else:
        y = t if g.kind == "exponential" else t * t
        assert value == pytest.approx(math.exp(-y), rel=8e-16 * (1.0 + 4.0 * y), abs=1e-300)


DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


# every moment of a model whose scale's square (gaussian) or whose x / a
# (exponential) leaves the floats: q = a1^2 + a2^2 was 0 in the gaussian
# overlap from a = 1e-165 on, and squares and quotients overflowed with a warning
@pytest.mark.parametrize("kind,a", [
    *((kind, a) for kind in ("gaussian", "exponential") for a in ("1e-160", "1e-165", "1e-200", "1e-300")),
    ("exponential", "1e-320"),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_moments_at_a_tiny_scale_end_in_an_exit_code(kind, a, d, tmp_path, capsys):
    box = [f"model.d={d}", "model.K.lower=" + ",".join("0" * d), "model.K.sides=" + ",".join("1" * d)]
    argv = ["moments", "--config", str(DEFAULT_CFG), "--out-dir", str(tmp_path)]
    for entry in [f"model.g.kind={kind}", f"model.g.a={a}", *box]:
        argv += ["--set", entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would end in a traceback here
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith("error: ")), (code, err)
    assert "Traceback" not in err
