import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from rcmlab import quadrature
from rcmlab.connfn import exponential, gaussian, hard_disk, make_variant
from rcmlab.quadrature import (
    QuadratureError,
    QuadratureSpec,
    Region,
    adaptive_quad,
    adaptive_quad_rows,
    box_covariogram,
    covariogram_shell_mass,
    double_region_integral,
    overlap_integral,
    overlap_rows,
    radial_integral,
    radial_of,
    unit_box,
)


def lens_area(a, s):
    if s >= 2 * a:
        return 0.0
    return 2 * a * a * math.acos(s / (2 * a)) - (s / 2) * math.sqrt(4 * a * a - s * s)


def mp_disk_overlap(r1, r2, s):
    """Area of the intersection of disks of radii r1, r2 whose centers are s apart."""
    r1, r2, s = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(s)
    if r1 == 0 or r2 == 0 or s >= r1 + r2:
        return mpmath.mpf(0)
    if s <= abs(r1 - r2):
        return mpmath.pi * min(r1, r2) ** 2
    return (
        r1**2 * mpmath.acos((s * s + r1 * r1 - r2 * r2) / (2 * s * r1))
        + r2**2 * mpmath.acos((s * s + r2 * r2 - r1 * r1) / (2 * s * r2))
        - mpmath.sqrt((r1 + r2 - s) * (s + r1 - r2) * (s - r1 + r2) * (s + r1 + r2)) / 2
    )


def mp_ball_overlap(r1, r2, s):
    """Volume of the intersection of balls of radii r1, r2 whose centers are s apart."""
    r1, r2, s = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(s)
    if s >= r1 + r2:
        return mpmath.mpf(0)
    if s <= abs(r1 - r2):
        return 4 * mpmath.pi / 3 * min(r1, r2) ** 3
    return (
        mpmath.pi
        * (r1 + r2 - s) ** 2
        * (s * s + 2 * s * (r1 + r2) - 3 * (r1 - r2) ** 2)
        / (12 * s)
    )


def mp_quarter_shell(a0, a1, t):
    """int_0^{pi/2} (a0 - t cos(phi))_+ (a1 - t sin(phi))_+ dphi by mpmath, cut at the clips."""
    a0, a1, t = mpmath.mpf(a0), mpmath.mpf(a1), mpmath.mpf(t)
    cuts = [mpmath.acos(a0 / t)] if t > a0 else []
    cuts += [mpmath.asin(a1 / t)] if t > a1 else []
    return mpmath.quad(
        lambda p: max(0, a0 - t * mpmath.cos(p)) * max(0, a1 - t * mpmath.sin(p)),
        [0, *sorted(cuts), mpmath.pi / 2],
    )


def mp_box_shell_d3(sides, s):
    """A(s) of a 3-d box by nested mpmath quadrature over the polar angle theta."""
    a0, a1, a2 = (mpmath.mpf(a) for a in sides)
    s = mpmath.mpf(s)
    cuts = [mpmath.acos(a2 / s)] if s > a2 else []
    cuts += [mpmath.asin(c / s) for c in (a0, a1, mpmath.hypot(a0, a1)) if s > c]

    def f(th):
        clip2 = max(0, a2 - s * mpmath.cos(th))
        if not clip2:
            return 0
        return mpmath.sin(th) * clip2 * mp_quarter_shell(a0, a1, s * mpmath.sin(th))

    return 8 * mpmath.quad(f, [0, *sorted(cuts), mpmath.pi / 2])


def annulus_overlap(inner1, outer1, inner2, outer2, s):
    """Overlap of 1{inner1 < |y| <= outer1} and 1{inner2 < |y - s e1| <= outer2} in d=2.

    Each annulus is the difference of two disks, so the overlap is a signed
    sum of four lens areas.
    """
    return float(
        mp_disk_overlap(outer1, outer2, s)
        - mp_disk_overlap(outer1, inner2, s)
        - mp_disk_overlap(inner1, outer2, s)
        + mp_disk_overlap(inner1, inner2, s)
    )


def row_problem(seed, m):
    """m random rows: exponential, gaussian or hard-disk bumps on random intervals.

    Returns the row integrand f(x, rows), a scalar integrand per row for
    adaptive_quad, the interval ends and three cuts per row, some of them
    outside the row's interval.  Hard-disk rows jump at center +- scale,
    which the cuts do not hit, so those rows need refinement.
    """
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, m)
    scale = rng.uniform(0.2, 1.5, m)
    center = rng.uniform(-1.0, 2.0, m)
    a = rng.uniform(-1.0, 1.0, m)
    b = a + rng.uniform(0.1, 3.0, m)
    cuts = rng.uniform(-2.0, 4.0, (m, 3))

    def f(x, rows):
        t = np.abs(x - center[rows, None]) / scale[rows, None]
        k = kind[rows, None]
        return np.where(k == 0, np.exp(-t), np.where(k == 1, np.exp(-t * t), (t <= 1.0) * 1.0))

    def row(i):
        return lambda x: f(np.asarray(x)[None, :], np.array([i]))[0]

    return f, row, a, b, cuts


class TestSpec:
    def test_defaults_valid(self):
        spec = QuadratureSpec()
        assert spec.tail_eps <= spec.abs_tol

    def test_invalid(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_eps=1e-6, abs_tol=1e-10)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdiv=2)


class TestAdaptiveQuad:
    def test_polynomial(self):
        val, err = adaptive_quad(lambda x: x**3 - 2 * x, 0.0, 2.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_indicator_with_breakpoint(self):
        val, _ = adaptive_quad(lambda x: (x <= 1.0).astype(float), 0.0, 2.0, breakpoints=[1.0])
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_empty_interval(self):
        assert adaptive_quad(lambda x: x, 1.0, 1.0).value == 0.0

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(max_subdiv=4, abs_tol=1e-14, rel_tol=1e-14, tail_eps=1e-16)
        with pytest.raises(QuadratureError):
            adaptive_quad(lambda x: np.sin(200.0 / (x + 0.01)), 0.0, 1.0, spec)

    def test_matches_scipy_quad(self):
        # independent integrator cross-check on a mildly awkward integrand
        f = lambda x: np.exp(-x) * np.cos(5 * x)
        ours = adaptive_quad(f, 0.0, 10.0).value
        ref, _ = integrate.quad(lambda x: math.exp(-x) * math.cos(5 * x), 0.0, 10.0)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestAdaptiveQuadRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_adaptive_quad(self, seed):
        spec = QuadratureSpec()
        f, row, a, b, cuts = row_problem(seed, 24)
        vals, errs = adaptive_quad_rows(f, a, b, spec, cuts)
        for i in range(a.size):
            ref = adaptive_quad(row(i), a[i], b[i], spec, cuts[i])
            tol = max(spec.abs_tol, spec.rel_tol * abs(ref.value))
            assert abs(vals[i] - ref.value) <= tol
            assert errs[i] <= tol and ref.error <= tol

    def test_row_does_not_depend_on_its_batch(self):
        f, _, a, b, cuts = row_problem(3, 12)
        vals, errs = adaptive_quad_rows(f, a, b, breakpoints=cuts)
        for i in range(a.size):
            one = lambda x, rows: f(x, np.full_like(rows, i))
            v, e = adaptive_quad_rows(one, a[i : i + 1], b[i], breakpoints=cuts[i])
            assert (v[0], e[0]) == (vals[i], errs[i])

    def test_budget_raises_where_adaptive_quad_does(self):
        spec = QuadratureSpec(max_subdiv=4)
        f, row, a, b, cuts = row_problem(4, 30)
        raised = []
        for i in range(a.size):
            one = lambda x, rows: f(x, np.full_like(rows, i))
            try:
                ref = adaptive_quad(row(i), a[i], b[i], spec, cuts[i])
            except QuadratureError:
                raised.append(i)
                with pytest.raises(QuadratureError):
                    adaptive_quad_rows(one, a[i : i + 1], b[i], spec, cuts[i : i + 1])
                continue
            v, _ = adaptive_quad_rows(one, a[i : i + 1], b[i], spec, cuts[i : i + 1])
            assert abs(v[0] - ref.value) <= 10.0 * max(spec.abs_tol, spec.rel_tol * abs(ref.value))
        assert 0 < len(raised) < a.size
        with pytest.raises(QuadratureError) as exc:
            adaptive_quad_rows(f, a, b, spec, cuts)
        assert int(re.search(r"row (\d+)", str(exc.value)).group(1)) in raised

    def test_budget_accepts_within_ten_tolerances_like_adaptive_quad(self):
        # on some decade of tolerance the sqrt row runs out of pieces at an
        # error between tol and 10 tol, which both integrators accept
        f = lambda x, rows: np.sqrt(x)
        for tol in 10.0 ** -np.arange(3.0, 15.0):
            spec = QuadratureSpec(rel_tol=tol, abs_tol=tol, max_subdiv=4, tail_eps=tol)
            ref = adaptive_quad(np.sqrt, 0.0, 1.0, spec)
            if ref.error > tol:
                break
        else:
            pytest.fail("no tolerance put the row between tol and 10 tol")
        v, e = adaptive_quad_rows(f, [0.0], 1.0, spec)
        assert abs(v[0] - ref.value) <= 1e-15 and e[0] == pytest.approx(ref.error, rel=1e-6)

    @pytest.mark.parametrize("cuts", [[0.5], [0.5, 0.6], [0.5, 0.6, 0.7, 0.8]])
    def test_long_refinement_with_any_piece_count(self, cuts):
        # a jump off the cuts takes ~30 bisections, past two column growths
        step = lambda x: (x <= 1.0 / 3.0) * 1.0
        v, e = adaptive_quad_rows(lambda x, rows: step(x), [0.0], 1.0, breakpoints=cuts)
        assert (v[0], e[0]) == pytest.approx(adaptive_quad(step, 0.0, 1.0, breakpoints=cuts))

    def test_empty_rows(self):
        f = lambda x, rows: np.ones_like(x)
        vals, errs = adaptive_quad_rows(f, [0.0, 1.0, 2.0], [1.0, 1.0, 1.5], breakpoints=[0.5])
        assert vals == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
        assert vals[1:].tolist() == errs[1:].tolist() == [0.0, 0.0]
        vals, errs = adaptive_quad_rows(f, np.empty(0), np.empty(0))
        assert vals.size == 0 and errs.size == 0


class TestRadialIntegral:
    def test_disk_area(self):
        assert radial_integral(hard_disk(1.0), 2).value == pytest.approx(math.pi, rel=1e-9)

    def test_exponential_line(self):
        assert radial_integral(exponential(1.0), 1).value == pytest.approx(2.0, rel=1e-9)

    def test_gaussian_volume_d3(self):
        assert radial_integral(gaussian(1.0), 3).value == pytest.approx(
            math.pi**1.5, rel=1e-9
        )

    def test_zero_function(self):
        dead = hard_disk(1.0).truncate_inside(0.0)
        assert radial_integral(dead, 2).value == 0.0

    def test_error_bound_reported(self):
        res = radial_integral(exponential(1.0), 2)
        assert res.error >= QuadratureSpec().tail_eps
        assert abs(res.value - 2 * math.pi) <= max(res.error, 1e-8)

    @pytest.mark.parametrize("d,ball", [(1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)])
    def test_radial_of_ball_volume(self, d, ball):
        res = radial_of(np.ones_like, d, 1.0)
        assert res.value == pytest.approx(ball, rel=1e-12)
        assert res.error >= QuadratureSpec().tail_eps

    def test_radial_of_empty_range_is_the_tail_allowance(self):
        assert radial_of(np.ones_like, 2, 0.0) == (0.0, QuadratureSpec().tail_eps)


class TestOverlapIntegral:
    def test_identical_disks_at_zero(self):
        assert overlap_integral(hard_disk(1.0), hard_disk(1.0), 0.0, 2).value == pytest.approx(
            math.pi, rel=1e-9
        )

    def test_disjoint_disks(self):
        assert overlap_integral(hard_disk(1.0), hard_disk(1.0), 2.0, 2).value == 0.0

    def test_lens_area(self):
        got = overlap_integral(hard_disk(1.0), hard_disk(1.0), 1.0, 2).value
        assert got == pytest.approx(lens_area(1.0, 1.0), rel=1e-9)

    @pytest.mark.parametrize(
        "h1,ring1,h2,ring2",
        [
            (hard_disk(1.0), (0.0, 1.0), hard_disk(1.0), (0.0, 1.0)),
            (hard_disk(1.0).scale(2.0), (0.0, 0.5), hard_disk(1.0), (0.0, 1.0)),
            (hard_disk(1.0).truncate_inside(0.6), (0.0, 0.6), hard_disk(1.0), (0.0, 1.0)),
            (hard_disk(1.0).truncate_outside(0.4), (0.4, 1.0), hard_disk(1.0), (0.0, 1.0)),
            (
                hard_disk(1.0).truncate_outside(0.4),
                (0.4, 1.0),
                hard_disk(2.0).scale(2.0).truncate_outside(0.3),
                (0.3, 1.0),
            ),
        ],
    )
    def test_disk_stack_lens_areas(self, h1, ring1, h2, ring2):
        for s in np.linspace(0.0, ring1[1] + ring2[1], 11)[1:-1]:
            got = overlap_integral(h1, h2, s, 2)
            ref = annulus_overlap(*ring1, *ring2, s)
            assert abs(got.value - ref) <= got.error, s

    @pytest.mark.parametrize("s", [0.05, 0.3, 1.0])
    def test_exponential_d2_against_mpmath(self, s):
        # near r = s the inner angle integrand is nearly singular at theta = 0
        a = mpmath.mpf(0.3)  # the float the program integrates with
        sm = mpmath.mpf(s)

        def integrand(r, th):  # both halves of the circle, theta in [0, pi]
            dist = mpmath.sqrt(max(0, r * r + sm * sm - 2 * r * sm * mpmath.cos(th)))
            return 2 * r * mpmath.exp(-r / a) * mpmath.exp(-dist / a)

        with mpmath.workdps(20):
            ref = mpmath.quad(integrand, [0, sm, mpmath.inf], [0, mpmath.pi])
            # the same convolution through the Hankel transform: pi s^2 K_2(s/a) / 4
            assert abs(ref - mpmath.pi * sm * sm * mpmath.besselk(2, sm / a) / 4) < 1e-15
        got = overlap_integral(exponential(0.3), exponential(0.3), s, 2)
        assert abs(got.value - float(ref)) <= got.error

    @pytest.mark.parametrize("r2", [1.0, 0.5])
    def test_sphere_lens_volumes_d3(self, r2):
        h2 = hard_disk(1.0).scale(1.0 / r2)
        for s in (0.1, 0.45, 0.8, 1.2, 1.45):
            got = overlap_integral(hard_disk(1.0), h2, s, 3)
            assert abs(got.value - float(mp_ball_overlap(1.0, r2, s))) <= got.error, s

    def test_exponential_line_closed_form(self):
        # int e^{-|y|} e^{-|y-s|} dy = e^{-s} (1 + s)
        for s in (0.0, 0.3, 1.7):
            got = overlap_integral(exponential(1.0), exponential(1.0), s, 1).value
            assert got == pytest.approx(math.exp(-s) * (1 + s), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_closed_form(self, d):
        a, s = 0.9, 1.1
        expect = (math.pi * a * a / 2) ** (d / 2) * math.exp(-(s * s) / (2 * a * a))
        got = overlap_integral(gaussian(a), gaussian(a), s, d).value
        assert got == pytest.approx(expect, rel=1e-8)

    def test_sphere_lens_volume_d3(self):
        got = overlap_integral(hard_disk(1.0), hard_disk(1.0), 1.0, 3).value
        assert got == pytest.approx(math.pi / 12 * (4 + 1) * (2 - 1) ** 2, rel=1e-9)

    @given(st.floats(0.0, 3.0))
    def test_symmetry(self, s):
        h1, h2 = exponential(1.0), hard_disk(1.0)
        a = overlap_integral(h1, h2, s, 2).value
        b = overlap_integral(h2, h1, s, 2).value
        assert a == pytest.approx(b, rel=1e-7, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nonincreasing_in_separation(self, d):
        h = exponential(0.8)
        vals = [overlap_integral(h, h, s, d).value for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_single_integrals(self):
        h1, h2 = exponential(1.0), hard_disk(0.7)
        bound = min(radial_integral(h1, 2).value, radial_integral(h2, 2).value)
        for s in (0.0, 0.4, 1.1):
            assert overlap_integral(h1, h2, s, 2).value <= bound + 1e-10

    def test_zero_separation_equals_product_integral(self):
        # hard_disk(b) * exponential(a) is the inside-truncated exponential
        prod = exponential(1.0).truncate_inside(0.7)
        direct = radial_integral(prod, 2).value
        got = overlap_integral(hard_disk(0.7), exponential(1.0), 0.0, 2).value
        assert got == pytest.approx(direct, rel=1e-9)
        # exp(a1) * exp(a2) is exp with the harmonic scale
        a1, a2 = 1.0, 0.5
        prod2 = exponential(1.0 / (1 / a1 + 1 / a2))
        assert overlap_integral(exponential(a1), exponential(a2), 0.0, 1).value == pytest.approx(
            radial_integral(prod2, 1).value, rel=1e-9
        )

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError):
            overlap_integral(hard_disk(1.0), hard_disk(1.0), -0.1, 2)


# (h1, h2, separations): 0, a cut of h2, a separation at or past the joint
# support, and for the outside/inside pair a row whose r-range is empty
# (s - 1 beyond the tail radius of h1)
OVERLAP_ROW_CASES = {
    "disk": (hard_disk(1.0), hard_disk(1.0), [0.0, 0.4, 1.0, 1.7, 2.0, 2.5]),
    "disk_exp": (hard_disk(0.7), exponential(0.5), [0.0, 0.35, 0.7, 1.4, 6.0]),
    "exp": (exponential(0.3), exponential(0.3), [0.0, 1e-13, 0.05, 0.3, 2.0]),
    "gauss": (gaussian(0.9), gaussian(0.9), [0.0, 0.5, 1.1, 3.0]),
    "out_in": (
        make_variant(exponential(1.0), "outside", R=1.0),
        make_variant(exponential(1.0), "inside", R=1.0),
        [0.0, 0.5, 1.0, 2.0, 80.0],
    ),
}


class TestOverlapRows:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(OVERLAP_ROW_CASES))
    def test_row_does_not_depend_on_its_batch(self, case, d):
        h1, h2, s = OVERLAP_ROW_CASES[case]
        vals, errs = overlap_rows(h1, h2, s, d)
        for i, si in enumerate(s):
            one = overlap_integral(h1, h2, si, d)
            assert np.array_equal([one.value, one.error], [vals[i], errs[i]]), si
        rev_vals, rev_errs = overlap_rows(h1, h2, s[::-1], d)
        assert np.array_equal(rev_vals[::-1], vals) and np.array_equal(rev_errs[::-1], errs)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("case", sorted(OVERLAP_ROW_CASES))
    def test_inner_chunks_do_not_change_rows(self, case, d, monkeypatch):
        h1, h2, s = OVERLAP_ROW_CASES[case]
        whole = overlap_rows(h1, h2, s, d)
        monkeypatch.setattr(quadrature, "_INNER_CHUNK", 7)
        chunked = overlap_rows(h1, h2, s, d)
        assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_special_rows(self, d):
        spec = QuadratureSpec()
        disk = hard_disk(1.0)
        vals, errs = overlap_rows(disk, disk, [2.0, 2.5], d, spec)
        assert vals.tolist() == errs.tolist() == [0.0, 0.0]  # s >= supp1 + supp2
        zero = overlap_rows(disk, disk, [0.0, 1e-13], d, spec)
        ball = radial_integral(disk, d, spec)
        assert zero[0].tolist() == [ball.value] * 2 and zero[1].tolist() == [ball.error] * 2
        h1, h2, s = OVERLAP_ROW_CASES["out_in"]
        vals, errs = overlap_rows(h1, h2, s, d, spec)
        # d >= 2: the r-range [s - 1, min(T1, s + 1)] is empty; d=1
        # integrates over [0, T1], where h2(|r - s|) is 0
        assert (vals[-1], errs[-1]) == (0.0, spec.tail_eps)
        assert vals[0] == 0.0 and np.all(vals[1:-1] > 0.0)  # disjoint supports at s = 0

    def test_exponential_line_reference(self):
        # int e^{-|y|/a} e^{-|y-s|/a} dy = (a + s) e^{-s/a}
        a = 0.7
        s = np.array([0.0, 0.01, 0.35, 0.7, 1.3, 2.8, 6.0])
        vals, errs = overlap_rows(exponential(a), exponential(a), s, 1)
        ref = (a + s) * np.exp(-s / a)
        assert np.all(np.abs(vals - ref) <= errs), np.abs(vals - ref) / errs

    @pytest.mark.parametrize("s", [0.0, 0.5, 3.0])  # zero row, general row, beyond support
    def test_dimension_rejected_on_every_path(self, s):
        disk = hard_disk(1.0)
        for fn in (overlap_rows, overlap_integral):
            with pytest.raises(ValueError):
                fn(disk, disk, s, 4)

    @pytest.mark.parametrize("bad", [float("nan"), math.inf])
    def test_non_finite_separation_rejected(self, bad):
        # NaN used to pass as (0, tail_eps); at s = inf the d=2 integrand is NaN
        with pytest.raises(ValueError):
            overlap_rows(hard_disk(1.0), hard_disk(1.0), [0.5, bad, 3.0], 2)
        with pytest.raises(ValueError):
            overlap_integral(exponential(1.0), exponential(1.0), bad, 2)


class TestRegion:
    def test_geometry(self):
        K = Region((0.0, 0.0), (2.0, 0.5))
        assert K.volume == 1.0
        assert K.diameter == pytest.approx(math.hypot(2.0, 0.5))
        assert K.upper == (2.0, 0.5)

    def test_half_open_membership(self):
        K = unit_box(2)
        inside = K.contains(np.array([[0.5, 0.5], [0.0, 0.5], [1.0, 1.0], [0.5, 1.2]]))
        assert inside.tolist() == [True, False, True, False]

    @given(st.data())
    def test_half_open_at_exact_boundaries(self, data):
        # integer and half-integer boxes and points, all exact in binary:
        # x is inside iff lower < x <= upper on every axis
        d = data.draw(st.integers(1, 3))
        lower2 = data.draw(st.tuples(*[st.integers(-6, 6)] * d))
        sides2 = data.draw(st.tuples(*[st.integers(1, 6)] * d))
        axis = [st.integers(lo - 2, lo + s + 2) for lo, s in zip(lower2, sides2)]
        pts2 = data.draw(st.lists(st.tuples(*axis), min_size=1, max_size=12))
        K = Region(tuple(v / 2 for v in lower2), tuple(v / 2 for v in sides2))
        expect = [
            all(lo < x <= lo + s for x, lo, s in zip(p, lower2, sides2)) for p in pts2
        ]
        assert K.contains(np.array(pts2, dtype=float) / 2).tolist() == expect

    def test_expand(self):
        K = unit_box(1).expand(0.5)
        assert K.lower == (-0.5,)
        assert K.sides == (2.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Region((0.0,), (0.0,))
        with pytest.raises(ValueError):
            Region((0.0, 0.0), (1.0,))


class TestCovariogram:
    def test_examples(self):
        K = unit_box(2)
        assert box_covariogram(K, (0.0, 0.0)) == 1.0
        assert box_covariogram(K, (0.5, 0.0)) == 0.5
        assert box_covariogram(K, (1.5, 0.0)) == 0.0

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_symmetry_and_support(self, vx, vy):
        K = Region((0.0, 0.0), (1.0, 0.7))
        assert box_covariogram(K, (vx, vy)) == box_covariogram(K, (-vx, -vy))
        if abs(vx) >= 1.0 or abs(vy) >= 0.7:
            assert box_covariogram(K, (vx, vy)) == 0.0

    @pytest.mark.parametrize(
        "K,d",
        [
            (Region((0.0,), (1.5,)), 1),
            (unit_box(2), 2),
            (Region((0.0, 0.0), (2.0, 0.5)), 2),
            (unit_box(3), 3),
        ],
    )
    def test_shell_mass_integrates_to_volume_squared(self, K, d):
        val, _ = adaptive_quad(
            lambda s: s ** (d - 1) * covariogram_shell_mass(K, s), 0.0, K.diameter,
            breakpoints=K.sides,
        )
        assert val == pytest.approx(K.volume**2, rel=1e-7)

    @pytest.mark.parametrize("sides", [(1.0, 0.7), (1.0, 0.7, 1.3)])
    @pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.7])
    def test_shell_mass_closed_form_below_the_shortest_side(self, sides, s):
        # For s <= min(sides) no factor of c_K(s omega) clips at 0, and the
        # sphere integral of the product of (a_i - s |omega_i|) is polynomial.
        K = Region((0.0,) * len(sides), sides)
        if len(sides) == 2:
            a, b = sides
            want = 2 * math.pi * a * b - 4 * s * (a + b) + 2 * s * s
        else:
            a, b, c = sides
            want = (
                4 * math.pi * a * b * c
                - 2 * math.pi * s * (a * b + b * c + c * a)
                + (8.0 / 3.0) * s * s * (a + b + c)
                - s**3
            )
        assert covariogram_shell_mass(K, s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a0,a1", [(1.0, 0.7), (0.7, 1.3), (2.0, 0.5)])
    def test_quarter_shell_against_mpmath(self, a0, a1):
        # t runs below both sides, between them, above both and beyond the diagonal
        diag = math.hypot(a0, a1)
        t = np.array([0.1, 0.6, 0.9, 1.1, 1.25, 1.6, 1.9, 2.05, 2.2, diag - 1e-3, diag, diag + 0.1])
        got = quadrature._quarter_shell(a0, a1, t)
        for ti, gi in zip(t, got):
            with mpmath.workdps(30):
                want = mp_quarter_shell(a0, a1, ti)
            assert abs(gi - float(want)) <= 1e-14 * a0 * a1
        assert (got[t >= diag] == 0.0).all()

    # without the cut where s sin(theta) crosses the base diagonal, s = 1.605 is off by 1.6e-10
    @pytest.mark.parametrize("s", [0.80, 1.2, 1.60, 1.605])
    def test_d3_shell_above_the_shortest_side_against_mpmath(self, s):
        sides = (1.0, 0.7, 1.3)
        want = mp_box_shell_d3(sides, s)
        assert abs(covariogram_shell_mass(Region((0.0,) * 3, sides), s) - float(want)) <= 1e-10

    @pytest.mark.parametrize("sides", [(1.5,), (1.0, 0.7), (1.0, 0.7, 1.3)])
    def test_array_and_scalar_calls_agree(self, sides):
        K = Region((0.0,) * len(sides), sides)
        s = np.concatenate([[0.0, 1e-13], np.linspace(0.0, K.diameter + 0.1, 97), sides])
        got = covariogram_shell_mass(K, s)
        assert got.shape == s.shape
        assert np.array_equal(got, [covariogram_shell_mass(K, float(si)) for si in s])
        assert np.array_equal(covariogram_shell_mass(K, s[::-1, None])[:, 0], got[::-1])
        assert isinstance(covariogram_shell_mass(K, 0.3), float)

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan, [0.5, -1e-12], [0.5, math.nan]])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bad_separation_rejected(self, bad, d):
        with pytest.raises(ValueError):
            covariogram_shell_mass(unit_box(d), bad)


class TestDoubleRegionIntegral:
    def test_constant(self):
        for K, d in [(Region((0.0,), (1.0,)), 1), (unit_box(2), 2), (unit_box(3), 3)]:
            got = double_region_integral(lambda s: np.ones_like(s), K, d).value
            assert got == pytest.approx(K.volume**2, rel=1e-7)

    def test_indicator_of_diameter(self):
        K = unit_box(2)
        F = lambda s: (np.asarray(s) <= K.diameter).astype(float)
        assert double_region_integral(F, K, 2).value == pytest.approx(1.0, rel=1e-7)

    def test_mean_distance_interval(self):
        K = Region((0.0,), (1.0,))
        got = double_region_integral(lambda s: np.asarray(s, dtype=float), K, 1).value
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_mean_distance_square_and_cube(self):
        # classical mean-distance constants for the unit square and cube
        got2 = double_region_integral(lambda s: np.asarray(s, dtype=float), unit_box(2), 2).value
        assert got2 == pytest.approx(0.5214054331647207, abs=1e-7)
        got3 = double_region_integral(lambda s: np.asarray(s, dtype=float), unit_box(3), 3).value
        assert got3 == pytest.approx(0.6617071822671758, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            double_region_integral(lambda s: s, unit_box(2), 3)
