import heapq
import math
import re
import warnings
from typing import Callable

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from rcmlab import quadrature
from rcmlab.connfn import ConnectionFunction, exponential, gaussian, hard_disk, table_function
from rcmlab.quadrature import (
    DEFAULT_SPEC,
    QuadratureError,
    QuadResult,
    QuadratureSpec,
    Region,
    adaptive_quad,
    adaptive_quad_rows,
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


def quad_overlap(h1, h2, s, d, spec=DEFAULT_SPEC):
    """O(s) by the quadrature path of overlap_rows, which closed forms would bypass."""
    val, err = quadrature._quadrature_overlap(h1, h2, [s], d, spec)
    return QuadResult(float(val[0]), float(err[0]))


# -- reference integrator -----------------------------------------------------
#
# A heap-driven adaptive Gauss 21/10 pair, one interval per integrand call.
# It states the refinement policy that adaptive_quad_rows implements in
# array form: bisect the worst piece first, ties to the earliest created,
# stop at max(abs_tol, rel_tol * |total|), raise once max_subdiv pieces are
# spent.  Tests compare values, errors and integrand-point counts with it.

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)


def _eval_interval(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = np.concatenate([mid + half * _NODES_HI, mid + half * _NODES_LO])
    y = np.asarray(f(x), dtype=float)
    hi = half * float(np.dot(_WEIGHTS_HI, y[: _NODES_HI.size]))
    lo = half * float(np.dot(_WEIGHTS_LO, y[_NODES_HI.size :]))
    return hi, abs(hi - lo)


def heap_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    breakpoints=(),
) -> QuadResult:
    """Integrate a vectorised f over [a, b] with bisection refinement.

    Interior breakpoints become initial interval endpoints, so integrands
    that are smooth between their cuts converge at full order.
    """
    if b <= a:
        return QuadResult(0.0, 0.0)
    pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        val, err = _eval_interval(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1

    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return QuadResult(total, total_err)
        if len(heap) >= spec.max_subdiv:
            raise QuadratureError(
                f"no convergence within {spec.max_subdiv} subdivisions "
                f"(err {total_err:.3e}, tol {tol:.3e})"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # removes err (neg_err = -err)
        mid = 0.5 * (lo + hi)
        for sub_lo, sub_hi in ((lo, mid), (mid, hi)):
            sval, serr = _eval_interval(f, sub_lo, sub_hi)
            total += sval
            total_err += serr
            heapq.heappush(heap, (-serr, counter, sub_lo, sub_hi, sval))
            counter += 1


def counted(f):
    """f with a running count of the integrand points it was asked for."""

    def g(x):
        g.points += np.size(x)
        return f(x)

    g.points = 0
    return g


def row_problem(seed, m):
    """m random rows: exponential, gaussian or hard-disk bumps on random intervals.

    Returns the row integrand f(x, rows), a scalar integrand per row for
    adaptive_quad and heap_quad, the interval ends and three cuts per row,
    some of them outside the row's interval.  Hard-disk rows jump at center +- scale,
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
        row_points = np.zeros(a.size, dtype=int)

        def tally(x, rows):
            np.add.at(row_points, rows, x.shape[1])
            return f(x, rows)

        vals, errs = adaptive_quad_rows(tally, a, b, spec, cuts)
        for i in range(a.size):
            heap_f, quad_f = counted(row(i)), counted(row(i))
            ref = heap_quad(heap_f, a[i], b[i], spec, cuts[i])
            one = adaptive_quad(quad_f, a[i], b[i], spec, cuts[i])
            tol = max(spec.abs_tol, spec.rel_tol * abs(ref.value))
            assert abs(vals[i] - ref.value) <= tol
            assert abs(one.value - ref.value) <= tol
            assert errs[i] <= tol and ref.error <= tol and one.error <= tol
            assert quad_f.points == row_points[i] == heap_f.points

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
            heap_f, quad_f = counted(row(i)), counted(row(i))
            try:
                ref = heap_quad(heap_f, a[i], b[i], spec, cuts[i])
            except QuadratureError:
                raised.append(i)
                with pytest.raises(QuadratureError):
                    adaptive_quad_rows(one, a[i : i + 1], b[i], spec, cuts[i : i + 1])
                with pytest.raises(QuadratureError):
                    adaptive_quad(quad_f, a[i], b[i], spec, cuts[i])
            else:
                tol = max(spec.abs_tol, spec.rel_tol * abs(ref.value))
                v, _ = adaptive_quad_rows(one, a[i : i + 1], b[i], spec, cuts[i : i + 1])
                assert abs(v[0] - ref.value) <= tol
                got = adaptive_quad(quad_f, a[i], b[i], spec, cuts[i])
                assert abs(got.value - ref.value) <= tol
            assert quad_f.points == heap_f.points
        assert 0 < len(raised) < a.size
        with pytest.raises(QuadratureError) as exc:
            adaptive_quad_rows(f, a, b, spec, cuts)
        assert int(re.search(r"row (\d+)", str(exc.value)).group(1)) in raised

    def test_budget_raises_near_tolerance_like_adaptive_quad(self):
        # sqrt on [0, 1] runs out of its 4 pieces at an error of 3.49e-6
        # against tol 1e-6: close to the tolerance, and still a failure
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-6, max_subdiv=4, tail_eps=1e-6)
        with pytest.raises(QuadratureError, match=r"\(err 3\.49"):
            heap_quad(np.sqrt, 0.0, 1.0, spec)
        with pytest.raises(QuadratureError, match=r"\(row 0, err 3\.49"):
            adaptive_quad(np.sqrt, 0.0, 1.0, spec)
        with pytest.raises(QuadratureError, match=r"\(row 0, err 3\.49"):
            adaptive_quad_rows(lambda x, rows: np.sqrt(x), [0.0], 1.0, spec)

    @pytest.mark.parametrize("cuts", [[0.5], [0.5, 0.6], [0.5, 0.6, 0.7, 0.8]])
    def test_long_refinement_with_any_piece_count(self, cuts):
        # a jump off the cuts takes ~30 bisections, past two column growths
        step = lambda x: (x <= 1.0 / 3.0) * 1.0
        heap_f, quad_f = counted(step), counted(step)
        ref = heap_quad(heap_f, 0.0, 1.0, breakpoints=cuts)
        v, e = adaptive_quad_rows(lambda x, rows: step(x), [0.0], 1.0, breakpoints=cuts)
        assert (v[0], e[0]) == pytest.approx(ref)
        assert adaptive_quad(quad_f, 0.0, 1.0, breakpoints=cuts) == pytest.approx(ref)
        assert quad_f.points == heap_f.points

    def test_tied_pieces_split_the_earliest_first(self):
        # [1, 2] and [2, 4] start with exactly equal errors: on [2, 4] the
        # integrand is phi(x / 2) / 2, at nodes exactly twice those of [1, 2],
        # plus a bump that only the nodes of [2, 3] see.  Splitting [1, 2]
        # first meets the tolerance; splitting [2, 4] first finds the bump.
        def f(x):
            upper = x > 2.0
            bump = upper & (np.abs(x - 2.5) < 0.01)
            return np.where(upper, 0.5 / (x / 2 - 0.8), 1.0 / (x - 0.8)) + 0.5 * bump

        loose = QuadratureSpec(abs_tol=1.0)
        assert adaptive_quad(f, 1.0, 2.0, loose).error == adaptive_quad(f, 2.0, 4.0, loose).error
        spec = QuadratureSpec(abs_tol=1e-7, rel_tol=1e-9)
        heap_f, quad_f = counted(f), counted(f)
        ref = heap_quad(heap_f, 1.0, 4.0, spec, [2.0])
        got = adaptive_quad(quad_f, 1.0, 4.0, spec, [2.0])
        assert quad_f.points == heap_f.points == 4 * 31  # two pieces, then one split
        assert got == pytest.approx(ref, rel=1e-12)

    def test_empty_rows(self):
        f = lambda x, rows: np.ones_like(x)
        vals, errs = adaptive_quad_rows(f, [0.0, 1.0, 2.0], [1.0, 1.0, 1.5], breakpoints=[0.5])
        assert vals == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
        assert vals[1:].tolist() == errs[1:].tolist() == [0.0, 0.0]
        vals, errs = adaptive_quad_rows(f, np.empty(0), np.empty(0))
        assert vals.size == 0 and errs.size == 0


EPS = 2.0**-52
MASS_TABLE = ((0.0, 1.0), (0.5, 0.4), (0.9, 0.25), (1.2, 0.0))
MASS_BASES = {
    "exponential": exponential,
    "gaussian": gaussian,
    "hard_disk": hard_disk,
    # the table stretched by a, so that a is its scale as for the other kinds
    "table": lambda a: table_function(MASS_TABLE).scale(1.0 / a),
}
# (base parameter, scale factors): net scales a / F of 1e-100 to 1e100, with
# factors (and partial products) up to 1e+-308
MASS_STACKS = [
    (1.0, ()), (1.0, (2.0,)), (0.8, (3.0, 0.7)), (1e300, (1e300,)), (1e-300, (1e-300,)),
    (7.0, (1e300, 1e-300)), (1.0, (1e-308, 1e300)), (1e-100, (1e150, 1e-150)),
    (1e100, ()), (1e-100, ()), (1.0, (1e-300, 1e200)), (1e300, (1e150, 1e150)),
]


def mass_cuts(g, a, stack):
    """g uncut, cut inside, cut outside, an annulus, an annulus of relative
    width 1e-9, and cut outside at 5 and 40 net scales."""
    edge = a
    for n in stack:
        edge /= n
    return {
        "uncut": g,
        "in": g.truncate_inside(0.6 * edge),
        "out": g.truncate_outside(0.45 * edge),
        "annulus": g.truncate_outside(0.3 * edge).truncate_inside(0.8 * edge),
        "thin": g.truncate_outside(0.7 * edge).truncate_inside(0.7 * edge * (1 + 1e-9)),
        "far": g.truncate_outside(5.0 * edge),
        "farther": g.truncate_outside(40.0 * edge),
    }


def mp_mass(h, d):
    """(mass, scale, w) of h at 50 digits: the mass of the function with the
    exact product of its scale factors and its float cuts (a hard disk's edge
    is its float support radius, as eval compares on it); scale is q^d
    M(lo / q) for an exponential or a gaussian and the mass otherwise; w is
    the largest finite z (exponential) or z^2 (gaussian) at a cut, else 0."""
    with mpmath.workdps(50):
        om = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        F = mpmath.fprod([mpmath.mpf(n) for n in h.scales])
        lo = mpmath.mpf(h.lo or 0.0)
        hi = mpmath.inf if h.hi is None else mpmath.mpf(h.hi)
        if h.kind == "hard_disk":
            R = mpmath.mpf(h.support_radius)
            mass = om / d * (R**d - lo**d) if R > lo else mpmath.mpf(0)
            return mass, mass, 0.0
        if h.kind == "table":
            mass = mpmath.mpf(0)
            knots = [(mpmath.mpf(r) / F, mpmath.mpf(v)) for r, v in h.table]
            for (x0, v0), (x1, v1) in zip(knots, knots[1:]):
                u, v = max(x0, lo), min(x1, hi)
                if v > u:
                    slope = (v1 - v0) / (x1 - x0)
                    mass += (v0 - slope * x0) * (v**d - u**d) / d
                    mass += slope * (v ** (d + 1) - u ** (d + 1)) / (d + 1)
            return om * mass, om * mass, 0.0
        q = mpmath.mpf(h.a) / F
        s, power, half = (d, 1, 1) if h.kind == "exponential" else (mpmath.mpf(d) / 2, 2, 2)
        w_lo, w_hi = (lo / q) ** power, (hi / q) ** power
        mass = om * q**d * mpmath.gammainc(s, w_lo, w_hi) / half
        scale = om * q**d * mpmath.gammainc(s, w_lo) / half
        w = max(float(x) for x in (w_lo, w_hi) if x != mpmath.inf)
        return mass, scale, w


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
        # a rounding bound of the closed form: no tail allowance, a few ulps
        res = radial_integral(exponential(1.0), 2)
        assert abs(res.value - 2 * math.pi) <= res.error <= 32 * EPS * 2 * math.pi

    def test_unit_ball_in_d3_is_bounded(self):
        # the adaptive quadrature reported a bound below its own rounding here
        res = radial_integral(hard_disk(1.0), 3)
        with mpmath.workdps(30):
            gap = abs(mpmath.mpf(res.value) - 4 * mpmath.pi / 3)
        assert gap <= res.error <= 32 * EPS * res.value

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(MASS_BASES))
    def test_mass_matches_mpmath_on_the_grid(self, kind, d):
        # every (parameter, scale stack) of MASS_STACKS under every cut of
        # mass_cuts: within the bound of the 50-digit mass, and the bound at
        # most 64 ulps of the value (twice a first-order bound: the table's
        # holds 2d + 10 ulps of its rule, sum and sphere constant), of
        # q^d M(lo / q) for an exponential or a gaussian, whose difference of
        # tail masses cancels where (lo, hi] holds little of the mass (a thin
        # annulus, a cut inside at z << 1), and 64 w ulps more at a cut where
        # z (exponential) or z^2 (gaussian) is w
        checked = 0
        for a, stack in MASS_STACKS:
            g = MASS_BASES[kind](a)
            for n in stack:
                g = g.scale(n)
            for cut, h in mass_cuts(g, a, stack).items():
                res = radial_integral(h, d)
                ref, scale, w = mp_mass(h, d)
                where = (kind, a, stack, d, cut, res)
                assert abs(mpmath.mpf(res.value) - ref) <= res.error, where
                assert res.error <= 64 * EPS * (1 + w) * scale + 1e-320, where
                checked += ref > 1e-300
        assert checked >= 50  # masses above 1e-300, the rest underflow or overflow

    def test_mass_beyond_floats_raises(self):
        with pytest.raises(QuadratureError, match="beyond floats"):
            radial_integral(exponential(1e200), 2)
        with pytest.raises(QuadratureError, match="beyond floats"):
            radial_integral(hard_disk(1e300).truncate_outside(1e299), 2)
        with pytest.raises(QuadratureError, match="beyond floats"):
            radial_integral(table_function([(0.0, 1.0), (1.0, 0.0)]).scale(1e-300), 3)

    def test_never_runs_the_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("radial_integral ran adaptive_quad_rows")

        monkeypatch.setattr(quadrature, "adaptive_quad_rows", refuse)
        for base in MASS_BASES.values():
            g = base(0.7).scale(3.0)
            for h in mass_cuts(g, 0.7, (3.0,)).values():
                for d in (1, 2, 3):
                    radial_integral(h, d)

    # Each case: the connection function, the same profile written for mpmath,
    # and the radii where the mpmath integral splits (its support and kinks).
    RADIAL_CASES = {
        "exponential": (exponential(0.7), lambda r: mpmath.exp(-r / 0.7), [0, mpmath.inf]),
        "gaussian": (gaussian(1.3), lambda r: mpmath.exp(-((r / 1.3) ** 2)), [0, mpmath.inf]),
        "table": (
            table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]),
            lambda r: 1 - 1.2 * r if r <= 0.5 else 0.4 - 0.8 * (r - 0.5),
            [0, 0.5, 1],
        ),
        "scaled_cut_inside": (
            exponential(1.0).scale(2.0).truncate_inside(0.8),
            lambda r: mpmath.exp(-2 * r),
            [0, 0.8],
        ),
        "cut_outside": (
            exponential(1.0).truncate_outside(0.5),
            lambda r: mpmath.exp(-r),
            [0.5, mpmath.inf],
        ),
        "hard_disk": (hard_disk(1.5), lambda r: mpmath.mpf(1), [0, 1.5]),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_against_mpmath(self, case, d):
        h, profile, pieces = self.RADIAL_CASES[case]
        with mpmath.workdps(30):
            omega = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
            ref = omega * mpmath.quad(lambda r: r ** (d - 1) * profile(r), pieces)
        res = radial_integral(h, d)
        assert abs(res.value - float(ref)) <= res.error

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
        got = quad_overlap(hard_disk(1.0), hard_disk(1.0), 1.0, 2).value
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
            got = quad_overlap(h1, h2, s, 2)
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
        got = quad_overlap(exponential(0.3), exponential(0.3), s, 2)
        assert abs(got.value - float(ref)) <= got.error

    @pytest.mark.parametrize("r2", [1.0, 0.5])
    def test_sphere_lens_volumes_d3(self, r2):
        h2 = hard_disk(1.0).scale(1.0 / r2)
        for s in (0.1, 0.45, 0.8, 1.2, 1.45):
            got = quad_overlap(hard_disk(1.0), h2, s, 3)
            assert abs(got.value - float(mp_ball_overlap(1.0, r2, s))) <= got.error, s

    def test_exponential_line_closed_form(self):
        # int e^{-|y|} e^{-|y-s|} dy = e^{-s} (1 + s)
        for s in (0.0, 0.3, 1.7):
            got = quad_overlap(exponential(1.0), exponential(1.0), s, 1).value
            assert got == pytest.approx(math.exp(-s) * (1 + s), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_closed_form(self, d):
        a, s = 0.9, 1.1
        expect = (math.pi * a * a / 2) ** (d / 2) * math.exp(-(s * s) / (2 * a * a))
        got = quad_overlap(gaussian(a), gaussian(a), s, d).value
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
        exponential(1.0).truncate_outside(1.0),
        exponential(1.0).truncate_inside(1.0),
        [0.0, 0.5, 1.0, 2.0, 80.0],
    ),
}


# 200 separations for the closed-form overlap references
DENSE_S = np.linspace(0.01, 6.0, 200)


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
        quad = quadrature._quadrature_overlap
        vals, errs = quad(disk, disk, [2.0, 2.5], d, spec)
        assert vals.tolist() == errs.tolist() == [0.0, 0.0]  # s >= supp1 + supp2
        zero = quad(disk, disk, [0.0, 1e-13], d, spec)
        if d == 1:  # no s ~ 0 shortcut: the overlap of two unit intervals is 2 - s
            assert np.all(np.abs(zero[0] - (2.0 - np.array([0.0, 1e-13]))) <= zero[1])
        else:
            # s ~ 0 takes O(0), radial_of of h1 h2 up to the smaller tail
            # radius, which lies within its bound of the closed-form ball;
            # its error adds s times the unit disk's variation along the
            # shift (4 in d=2, 2 pi in d=3) and tail_eps
            at_zero = radial_of(lambda r: disk.eval(r) * disk.eval(r), d, 1.0, spec, (1.0, 1.0))
            assert zero[0].tolist() == [at_zero.value] * 2 and zero[1][0] == at_zero.error
            ball = radial_integral(disk, d)
            assert abs(at_zero.value - ball.value) <= at_zero.error + ball.error
            shift = 1e-13 * {2: 4.0, 3: 2.0 * math.pi}[d] + spec.tail_eps
            assert zero[1][1] == pytest.approx(at_zero.error + shift, rel=1e-9)
        h1, h2, s = OVERLAP_ROW_CASES["out_in"]
        vals, errs = quad(h1, h2, s, d, spec)
        # d >= 2: the r-range [s - 1, min(T1, s + 1)] is empty; d=1
        # integrates over [0, T1], where h2(|r - s|) is 0
        assert (vals[-1], errs[-1]) == (0.0, spec.tail_eps)
        assert vals[0] == 0.0 and np.all(vals[1:-1] > 0.0)  # disjoint supports at s = 0

    def test_line_keeps_tiny_separations(self):
        # a truncated disk has no closed form; at s = 1e-12 the d=1 overlap
        # is 2 - s, and O(0) = 2 with O(0)'s bound missed it
        spec = QuadratureSpec(abs_tol=1e-13, tail_eps=1e-15)
        h1 = hard_disk(1.0).truncate_outside(0.0)
        vals, errs = overlap_rows(h1, hard_disk(1.0), [1e-12], 1, spec)
        assert abs(vals[0] - (2.0 - 1e-12)) <= errs[0]

    @pytest.mark.parametrize("d", [2, 3])
    def test_tiny_separations_carry_the_shift(self, d):
        # d >= 2 answers s <= 1e-12 with O(0).  The contract: its error adds
        # s h2.shift_variation(d) (and tail_eps), which bounds |O(s) - O(0)|
        # for any 0 <= h1 <= 1, so it covers the lens lost to s:
        # O(0) - O(s) ~ 2 s in d=2 and pi s in d=3
        spec = QuadratureSpec(abs_tol=1e-13, tail_eps=1e-15)
        h1 = hard_disk(1.0).truncate_outside(0.0)  # no closed form
        s = np.array([1e-14, 1e-12])
        vals, errs = overlap_rows(h1, hard_disk(1.0), s, d, spec)
        at_zero = overlap_rows(h1, hard_disk(1.0), [0.0], d, spec)
        ref = {2: mp_disk_overlap, 3: mp_ball_overlap}[d]
        with mpmath.workdps(30):
            gaps = [abs(mpmath.mpf(v) - ref(1, 1, si)) for si, v in zip(s, vals)]
        assert np.all(vals == at_zero[0][0])  # the value is O(0)'s
        assert np.all(errs == at_zero[1][0] + s * hard_disk(1.0).shift_variation(d) + spec.tail_eps)
        assert all(gap <= e for gap, e in zip(gaps, errs)), (gaps, errs)
        assert errs[1] <= 4 * gaps[1]  # first order, not a loose constant

    SHIFTED = {
        "exp0.3": exponential(0.3),
        "exp0.3_scaled": exponential(0.3).scale(2.0),
        "exp_outside": exponential(1.0).truncate_outside(0.5),
        "exp_annulus": exponential(1.0).truncate_outside(0.5).truncate_inside(2.0),
        "exp_cut_scaled": exponential(1.0).truncate_outside(0.5).scale(3.0),
        "gauss0.7": gaussian(0.7),
        "disk": hard_disk(1.0),
        "disk_annulus": hard_disk(1.0).truncate_outside(0.4),
        "table": table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]),
        "table_outside": table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]).truncate_outside(0.3),
        "empty": hard_disk(1.0).truncate_outside(2.0),
    }

    @pytest.mark.parametrize("name", sorted(SHIFTED))
    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_variation_is_the_variation_along_the_shift(self, d, name):
        # The contract: h.shift_variation(d) >= int_{R^d} |d/dy_1 h(|y|)| dy,
        # jumps included, and above it by rounding only.  That integral is
        # the sphere factor (4 in d=2, 2 pi in d=3) times the Stieltjes
        # integral int_0^inf r^(d-1) |dh(r)|, which the lower and upper sums
        # of a grid through the cuts bracket (h is monotone between cuts);
        # beyond T the variation left is below 1e-25
        h = self.SHIFTED[name]
        T = h.tail_radius(1e-30, d)
        cuts = np.array([c for c in h.cut_radii if c <= T] + [T])
        knots = np.unique(np.concatenate([[0.0], cuts, np.nextafter(cuts, 0.0),
                                          np.nextafter(cuts, np.inf)]))
        r = np.unique(np.concatenate([np.linspace(a, b, 4097) for a, b in zip(knots, knots[1:])]))
        steps = np.abs(np.diff(h.eval(r)))
        factor = 4.0 if d == 2 else 2.0 * math.pi
        lower = factor * float(np.sum(r[:-1] ** (d - 1) * steps))
        upper = factor * float(np.sum(r[1:] ** (d - 1) * steps))
        got = h.shift_variation(d)
        assert lower <= got <= upper * (1.0 + 1e-13) + 1e-25, (lower, got, upper)

    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_variation_bounds_a_smooth_profile(self, d):
        # the contract on closed forms: at least the exact variation, and
        # above it by rounding only.  exponential(a)'s is the sphere factor
        # times int_0^inf r^(d-1) e^(-r/a) / a dr, 4 a in d=2 and 4 pi a^2 in
        # d=3; a disk's is its one jump, the sphere factor times a^(d-1)
        a = 0.3
        for h, exact in ((exponential(a), {2: 4.0 * a, 3: 4.0 * math.pi * a * a}[d]),
                         (hard_disk(a), {2: 4.0 * a, 3: 2.0 * math.pi * a * a}[d])):
            got = h.shift_variation(d)
            assert exact <= got <= exact * (1.0 + 1e-14)

    def test_exponential_line_reference(self):
        # int e^{-|y|/a} e^{-|y-s|/a} dy = (a + s) e^{-s/a}
        a = 0.7
        s = np.array([0.0, 0.01, 0.35, 0.7, 1.3, 2.8, 6.0])
        vals, errs = quadrature._quadrature_overlap(exponential(a), exponential(a), s, 1)
        ref = (a + s) * np.exp(-s / a)
        assert np.all(np.abs(vals - ref) <= errs), np.abs(vals - ref) / errs

    @pytest.mark.parametrize("a", [0.3, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_exponential_dense_grid(self, d, a):
        # the kinked exponential needs the break at r = s in every dimension
        vals, errs = quadrature._quadrature_overlap(exponential(a), exponential(a), DENSE_S, d)
        t = DENSE_S / a
        if d == 2:  # a Hankel transform (Gradshteyn-Ryzhik 6.565.4)
            ref = math.pi * DENSE_S**2 * special.kv(2, t) / 4
        else:
            ref = math.pi * a**3 * np.exp(-t) * (1 + t + t * t / 3)
        assert np.all(np.abs(vals - ref) <= errs), np.max(np.abs(vals - ref) / errs)

    @pytest.mark.parametrize("a1,a2", [(0.3, 0.3), (1.0, 1.0), (1.0, 0.3)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_dense_grid(self, d, a1, a2):
        vals, errs = quadrature._quadrature_overlap(gaussian(a1), gaussian(a2), DENSE_S, d)
        q = a1 * a1 + a2 * a2
        ref = (math.pi * a1 * a1 * a2 * a2 / q) ** (d / 2) * np.exp(-(DENSE_S**2) / q)
        assert np.all(np.abs(vals - ref) <= errs), np.max(np.abs(vals - ref) / errs)

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


# -- closed-form overlaps -----------------------------------------------------
#
# References are evaluated in mpmath at 30 digits.  Near tangency the textbook
# lens area cancels even there, so the tangency ladders integrate each circular
# segment from its cap height, a product of exact differences of the inputs.


def mp_exponential_overlap(a, s, d):
    a, s = mpmath.mpf(a), mpmath.mpf(s)
    x = s / a
    if d == 1:
        return (a + s) * mpmath.exp(-x)
    if d == 2:
        return mpmath.pi * a * a / 2 if s == 0 else mpmath.pi * s * s * mpmath.besselk(2, x) / 4
    return mpmath.pi * a**3 * mpmath.exp(-x) * (1 + x + x * x / 3)


def mp_gaussian_overlap(a1, a2, s, d):
    a1, a2, s = mpmath.mpf(a1), mpmath.mpf(a2), mpmath.mpf(s)
    q = a1 * a1 + a2 * a2
    return (mpmath.pi * a1 * a1 * a2 * a2 / q) ** (mpmath.mpf(d) / 2) * mpmath.exp(-s * s / q)


def mp_lens_area(r1, r2, s):
    """Disk intersection as two segments, each integrated over its cap height."""
    r1, r2, s = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(s)
    if s >= r1 + r2:
        return mpmath.mpf(0)
    if s <= abs(r1 - r2):
        return mpmath.pi * min(r1, r2) ** 2
    gap = r1 + r2 - s
    area = mpmath.mpf(0)
    for r, h in ((r1, gap * (s - r1 + r2) / (2 * s)), (r2, gap * (s + r1 - r2) / (2 * s))):
        area += 2 * mpmath.quad(lambda t: mpmath.sqrt(t * (2 * r - t)), [0, h])
    return area


def mp_interval_overlap(r1, r2, s):
    r1, r2, s = mpmath.mpf(r1), mpmath.mpf(r2), mpmath.mpf(s)
    return max(mpmath.mpf(0), min(r1, s + r2) - max(-r1, s - r2))


def tangency_ladder(r1, r2):
    """s = r1 + r2 - 10^-k and |r1 - r2| + 10^-k for k = 2..14, where the balls cross."""
    s = [r1 + r2 - 10.0**-k for k in range(2, 15)] + [abs(r1 - r2) + 10.0**-k for k in range(2, 15)]
    return [si for si in s if abs(r1 - r2) < si < r1 + r2]


# s = 0 and separations the quadrature path rounds to 0, the least subnormal among them
SPECIAL_S = [0.0, 5e-324, 1e-300, 1e-12]


def assert_within(vals, errs, s, ref):
    """|value - ref| <= error in mpmath, with no floor; values finite and >= 0."""
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0) and np.all(np.isfinite(errs))
    with mpmath.workdps(30):
        for si, v, e in zip(s, vals, errs):
            want = ref(si)
            assert abs(mpmath.mpf(v) - want) <= e, (si, v, float(want), e)


# (h1, h2) pairs that take the closed form
CLOSED_PAIRS = {
    "exp0.3": (exponential(0.3), exponential(0.3)),
    "exp1": (exponential(1.0), exponential(1.0)),
    "exp_folded": (exponential(1.0).scale(2.0), exponential(0.5)),
    "gauss0.3": (gaussian(0.3), gaussian(0.3)),
    "gauss1_0.3": (gaussian(1.0), gaussian(0.3)),
    "disk1": (hard_disk(1.0), hard_disk(1.0)),
    "disk1_0.3": (hard_disk(1.0), hard_disk(0.3)),
    "disk_folded": (hard_disk(1.0).scale(2.0), hard_disk(1.3)),
}


class TestClosedOverlap:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.3, 1.0])
    def test_exponential_against_mpmath(self, a, d):
        s = np.concatenate([DENSE_S, SPECIAL_S, [700 * a]])
        vals, errs = overlap_rows(exponential(a), exponential(a), s, d)
        assert_within(vals, errs, s, lambda si: mp_exponential_overlap(a, si, d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a1,a2", [(0.3, 0.3), (1.0, 1.0), (1.0, 0.3)])
    def test_gaussian_against_mpmath(self, a1, a2, d):
        s = np.concatenate([DENSE_S, SPECIAL_S, [700 * a1]])
        vals, errs = overlap_rows(gaussian(a1), gaussian(a2), s, d)
        assert_within(vals, errs, s, lambda si: mp_gaussian_overlap(a1, a2, si, d))

    # below a = 1e-162, q = a1^2 + a2^2 underflowed to 0 (ZeroDivisionError),
    # and below 1e-81 a1^2 a2^2 did (a value of 0)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a1,a2", [
        *((a, a) for a in (1e-81, 1e-160, 1e-165, 1e-200, 1e-300, 1e81, 1e100)),
        (1e-200, 3e-201), (1e-300, 3e-301), (1e100, 3e99),
        (3.2e76, 1.1e-83), (1e-150, 1e150), (1e-260, 1e-100),
    ])
    def test_gaussian_at_extreme_scales_against_mpmath(self, a1, a2, d):
        s = max(a1, a2) * np.array([0.0, 0.01, 0.3, 1.0, 2.5, 6.0, 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, errs = overlap_rows(gaussian(a1), gaussian(a2), s, d)
        assert_within(vals, errs, s, lambda si: mp_gaussian_overlap(a1, a2, si, d))

    def test_gaussian_prefactor_beyond_floats_gives_no_nan(self):
        # (pi a^2 / 2)^(3/2) ~ 1e450 at s = 0: no inf value with an inf bound
        # (inf * exp(-y) was once nan where exp(-y) underflows, with an
        # "invalid value" warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match=r"gaussian.*gaussian.*d = 3.* s = 0\.0$"):
                overlap_rows(gaussian(1e150), gaussian(1e150), [1e160, 0.0, 1.0], 3)
            vals, errs = overlap_rows(gaussian(1e150), gaussian(1e150), [1e160], 3)
        assert vals.tolist() == [0.0] and 0.0 <= errs[0] < math.inf

    # prefactors of ~1e450, 1e320, 1e358 and 3e360, beyond floats: the
    # values exp(log P - y) from just below the largest float down to the
    # subnormals
    @pytest.mark.parametrize("a1,a2,d", [(1e150, 1e150, 3), (1e160, 1e160, 2),
                                         (1e120, 5e119, 3), (1e200, 1e180, 2)])
    def test_gaussian_prefactor_beyond_floats_against_mpmath(self, a1, a2, d):
        with mpmath.workdps(30):
            a1m, a2m = mpmath.mpf(a1), mpmath.mpf(a2)
            q = a1m * a1m + a2m * a2m
            log_p = float(d * mpmath.log(mpmath.pi * a1m * a1m * a2m * a2m / q) / 2)
            y = log_p + np.array([-709.0, -600.0, -300.0, 0.0, 300.0, 700.0, 744.0])
            s = np.array([float(mpmath.sqrt(max(yi, 0.0) * q)) for yi in y])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, errs = overlap_rows(gaussian(a1), gaussian(a2), s, d)
        assert vals[0] > 1e300 and 0.0 < vals[-1] < 1e-320
        assert_within(vals, errs, s, lambda si: mp_gaussian_overlap(a1, a2, si, d))

    def test_gaussian_keeps_its_bits_where_its_terms_are_normal(self):
        # the unscaled formula, wherever q, a1^2 a2^2 and their quotient are
        # normal floats, on a seeded grid with a1, a2 in [1e-100, 1e100]
        rng = np.random.default_rng(40)
        tiny, compared = np.finfo(float).tiny, 0
        for _ in range(400):
            a1, a2 = 10.0 ** rng.uniform(-100.0, 100.0, 2)
            d = int(rng.integers(1, 4))
            s = max(a1, a2) * np.concatenate([[0.0], rng.uniform(0.0, 8.0, 7)])
            with np.errstate(all="ignore"):
                q = a1 * a1 + a2 * a2
                top = math.pi * (a1 * a1) * (a2 * a2)
                if not (tiny <= q < math.inf and tiny <= top < math.inf and tiny <= top / q):
                    continue
                old = (top / q) ** (d / 2.0) * np.exp(-np.minimum(s / math.sqrt(q), 40.0) ** 2)
            got = quadrature._gaussian_overlap(a1, a2, s, d, 0.0)[0]
            assert np.array_equal(got, old), (a1, a2, d)
            compared += 1
        assert compared >= 100

    def test_gaussians_beyond_floats_apart_give_no_nan(self):
        # q = a1^2 + a2^2 was inf after any common rescale, and a1^2 a2^2 / q
        # inf * 0 / inf: nan, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, errs = overlap_rows(gaussian(1e160), gaussian(1e-160), [0.0, 1.0, 1e160], 1)
        assert_within(vals, errs, [0.0, 1.0, 1e160],
                      lambda si: mp_gaussian_overlap(1e160, 1e-160, si, 1))
        assert vals[0] == vals[1] > 1e-160 and vals[2] == pytest.approx(vals[0] / math.e)

    # scales too far apart for one common 2^k: q beyond floats (the first
    # four; the fourth divided by 2^k past floats, an OverflowError), pi a1^2
    # beyond floats (the fifth), and the d = 3 power below the normal floats
    # where 2^(3k) lifts it (the rest; the subnormal power lost its bits, so
    # the first two read 0).  Each value within its bound of mpmath, warnings
    # as errors.
    @pytest.mark.parametrize("a1,a2,d", [
        (1e160, 1e-160, 2), (1e300, 1e-300, 3), (5e-324, 1e300, 1), (1e306, 1e-320, 2),
        (4.694260849357202e231, 3.952462107751336e-77, 3),
        (1.0253273186165908e-11, 7.101830751215947e291, 3),
        (1.27964339808219e208, 2.2158863250169287e-99, 3),
        (3.391907576366848e281, 5.059930131905667e75, 3),
    ])
    def test_distant_gaussians_against_mpmath(self, a1, a2, d):
        s = max(a1, a2) * np.array([0.0, 0.01, 0.3, 1.0, 2.5, 6.0, 50.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, errs = overlap_rows(gaussian(a1), gaussian(a2), s, d)
        assert_within(vals, errs, s, lambda si: mp_gaussian_overlap(a1, a2, si, d))

    def test_distant_gaussians_on_a_seeded_grid(self):
        # scales 2^600 to 2^2090 apart in d = 1-3, the smaller from 2^-1071
        # to 2^300 so that the overlap is a float
        rng = np.random.default_rng(42)
        for _ in range(60):
            gap, e_small = int(rng.integers(600, 2091)), int(rng.integers(-1070, 301))
            if e_small + gap > 1020:
                e_small = 1020 - gap
            small = math.ldexp(rng.uniform(0.5, 1.0), e_small)
            big = math.ldexp(rng.uniform(0.5, 1.0), e_small + gap)
            a1, a2 = (small, big) if rng.uniform() < 0.5 else (big, small)
            d = int(rng.integers(1, 4))
            s = big * np.array([0.0, 0.3, 1.0, 1.5, 7.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals, errs = overlap_rows(gaussian(a1), gaussian(a2), s, d)
            assert_within(vals, errs, s, lambda si: mp_gaussian_overlap(a1, a2, si, d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r1,r2", [(1.0, 1.0), (0.1, 0.1), (1.0, 0.7), (0.3, 1.3)])
    def test_disks_against_mpmath(self, r1, r2, d):
        ref = {1: mp_interval_overlap, 2: mp_disk_overlap, 3: mp_ball_overlap}[d]
        s = np.concatenate([DENSE_S, SPECIAL_S, [700 * r1]])
        vals, errs = overlap_rows(hard_disk(r1), hard_disk(r2), s, d)
        assert_within(vals, errs, s, lambda si: ref(r1, r2, si))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r1,r2", [(1.0, 1.0), (1.0, 0.7), (0.3, 1.3), (1.0, 1e-3)])
    def test_disks_at_tangency_against_mpmath(self, r1, r2, d):
        # the textbook lens area r1^2 acos(c1) + r2^2 acos(c2) - k/2 cancels
        # here: it missed by up to 1.9e-10 and went negative
        ref = {1: mp_interval_overlap, 2: mp_lens_area, 3: mp_ball_overlap}[d]
        s = np.array(tangency_ladder(r1, r2))
        vals, errs = overlap_rows(hard_disk(r1), hard_disk(r2), s, d)
        assert np.all(vals > 0.0)
        assert_within(vals, errs, s, lambda si: ref(r1, r2, si))
        # and the forms are well conditioned: within 64 ulps of the value
        with mpmath.workdps(30):
            for si, v in zip(s, vals):
                want = ref(r1, r2, si)
                assert abs(mpmath.mpf(v) - want) <= 64 * np.finfo(float).eps * want, si

    def test_folded_radius_is_the_sequential_quotient(self):
        # _folded reads ConnectionFunction._fold, a / n1 / n2 / ... kept as
        # m 2^e; where every sequential quotient is normal, its bits are theirs
        rng = np.random.default_rng(40)
        tiny, compared = np.finfo(float).tiny, 0
        for _ in range(500):
            kind = ("exponential", "gaussian", "hard_disk")[int(rng.integers(3))]
            a = float(10.0 ** rng.uniform(-150.0, 150.0))
            h, quotients = ConnectionFunction(kind=kind, a=a), [a]
            for n in (10.0 ** rng.uniform(-150.0, 150.0, int(rng.integers(0, 4)))).tolist():
                h = h.scale(n)
                quotients.append(quotients[-1] / n)  # a Python float: inf past floats
            if not all(tiny <= q < math.inf for q in quotients):
                continue
            rounded = sum(math.frexp(n)[0] != 0.5 for n in h.scales)
            assert quadrature._folded(h) == (kind, quotients[-1], 0.5 * EPS * quotients[-1] * rounded)
            compared += 1
        assert compared >= 200

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_folded_disk_radius_against_mpmath(self, d):
        # 1 / 3 rounds, so the bound carries the radius's own rounding
        h = hard_disk(1.0).scale(3.0)
        s = np.concatenate([np.linspace(0.01, 0.7, 50), [2 / 3 - 1e-15, 2 / 3, 2 / 3 + 1e-15]])
        vals, errs = overlap_rows(h, hard_disk(1.0 / 3.0), s, d)
        ref = {1: mp_interval_overlap, 2: mp_lens_area, 3: mp_ball_overlap}[d]
        with mpmath.workdps(30):
            third = mpmath.mpf(1) / 3
            for si, v, e in zip(s, vals, errs):
                assert abs(mpmath.mpf(v) - ref(third, third, si)) <= e, si

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_disk_cut_inside_is_a_smaller_disk(self, d):
        cut, disk = hard_disk(1.0).scale(2.0).truncate_inside(0.25), hard_disk(0.25)
        s = np.concatenate([DENSE_S, SPECIAL_S])
        ref = {1: mp_interval_overlap, 2: mp_disk_overlap, 3: mp_ball_overlap}[d]
        for other, radius in ((cut, 0.25), (hard_disk(1.0), 1.0)):
            for h in (cut, disk):
                assert quadrature._closed_overlap(h, other, s, d) is not None
            got = overlap_rows(cut, other, s, d)
            assert np.array_equal(got, overlap_rows(disk, other, s, d))
            assert_within(*got, s, lambda si: ref(0.25, radius, si))

    @pytest.mark.parametrize(
        "h1,h2",
        [
            (exponential(1.0).scale(2.0), exponential(0.5)),
            (hard_disk(1.0).scale(2.0), hard_disk(1.0).scale(2.0)),
            (gaussian(2.0).scale(4.0), gaussian(0.5)),
        ],
        ids=["exponential", "hard_disk", "gaussian"],
    )
    def test_scaled_functions_take_the_closed_form(self, h1, h2):
        base = {"exponential": exponential, "hard_disk": hard_disk, "gaussian": gaussian}[h1.kind]
        for d in (1, 2, 3):
            got = overlap_rows(h1, h2, DENSE_S, d)
            assert quadrature._closed_overlap(h1, h2, DENSE_S, d) is not None
            assert np.array_equal(got, overlap_rows(base(0.5), base(0.5), DENSE_S, d))

    @pytest.mark.parametrize(
        "h1,h2",
        [
            (exponential(1.0).truncate_inside(1.0), exponential(1.0)),
            (exponential(1.0).truncate_outside(1.0), exponential(1.0)),
            (
                exponential(1.0).scale(2.0).truncate_inside(1.0 / 2.0),
                exponential(1.0).scale(2.0).truncate_inside(1.0 / 2.0),
            ),
            (
                hard_disk(1.0).scale(2.0).truncate_outside(0.5 / 2.0),
                hard_disk(0.5),
            ),
            (table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]), hard_disk(1.0)),
            (exponential(1.0), exponential(0.5)),
            (exponential(1.0).scale(3.0), exponential(0.3)),
            (exponential(1.0), gaussian(1.0)),
            (hard_disk(0.7), exponential(0.5)),
        ],
        ids=["g_in", "g_out", "cut_scaled", "disk_out", "table", "exp_unequal",
             "exp_fold_unequal", "exp_gauss", "disk_exp"],
    )
    def test_other_pairs_fall_through_to_quadrature(self, h1, h2):
        s = np.array([0.0, 1e-13, 0.05, 0.5, 1.0, 2.5])
        for d in (1, 2, 3):
            assert quadrature._closed_overlap(h1, h2, s, d) is None
            got = overlap_rows(h1, h2, s, d)
            assert np.array_equal(got, quadrature._quadrature_overlap(h1, h2, s, d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("pair", sorted(CLOSED_PAIRS))
    def test_agrees_with_quadrature_within_its_bound(self, pair, d):
        h1, h2 = CLOSED_PAIRS[pair]
        vals, _ = overlap_rows(h1, h2, DENSE_S, d)
        quad, quad_err = quadrature._quadrature_overlap(h1, h2, DENSE_S, d)
        assert np.all(np.abs(vals - quad) <= quad_err), np.max(np.abs(vals - quad) / quad_err)

    def test_segment_series_meets_the_direct_form(self):
        # both branches of theta - sin(theta) cos(theta) agree at the switch
        theta = np.array([0.5 - 1e-12, 0.5])
        seg, dseg = quadrature._segment(theta)
        assert seg[0] == pytest.approx(seg[1], rel=1e-11)
        with mpmath.workdps(30):
            for t, v, e in zip(theta, seg, dseg):
                t = mpmath.mpf(t)
                assert abs(mpmath.mpf(v) - (t - mpmath.sin(t) * mpmath.cos(t))) <= e


# -- x^2 K_2(x) e^x -------------------------------------------------------------


def mp_laguerre_rule(n, alpha):
    """(node, weight) pairs of the n-point Gauss-Laguerre rule for the weight
    w^alpha e^-w: Newton steps on L_n^alpha from the Golub-Welsch eigenvalues."""
    alpha = mpmath.mpf(alpha)
    k = np.arange(n)
    jacobi = np.diag(2.0 * k + 1 + float(alpha)) + np.diag(np.sqrt(k[1:] * (k[1:] + float(alpha))), 1)
    rule = []
    for start in np.linalg.eigvalsh(jacobi, UPLO="U"):
        node = mpmath.findroot(lambda t: mpmath.laguerre(n, alpha, t), mpmath.mpf(start),
                               df=lambda t: -mpmath.laguerre(n - 1, alpha + 1, t))
        weight = mpmath.gamma(n + alpha + 1) * node / (
            mpmath.factorial(n) * (n + 1) ** 2 * mpmath.laguerre(n + 1, alpha, node) ** 2)
        rule.append((node, weight))
    return rule


def mp_x2_k2_ex(x):
    x = mpmath.mpf(x)
    return x * x * mpmath.besselk(2, x) * mpmath.exp(x)


def _around(x, steps):
    """x and the steps floats on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return np.sort(out)


K2_GRIDS = {
    "log": np.geomspace(1e-100, 800.0, 241),
    "dense": np.linspace(0.0, 40.0, 161)[1:],
    "switch": _around(quadrature._K2_SWITCH, 16),
}


class TestX2K2Ex:
    def test_constants_are_the_mpmath_values(self):
        with mpmath.workdps(40):
            ks = range(10, -1, -1)
            c = [1 / (mpmath.factorial(k) * mpmath.factorial(k + 2)) for k in ks]
            coef = [2 * (mpmath.digamma(k + 1) + mpmath.digamma(k + 3)) * ck
                    for k, ck in zip(ks, c)] + [-2, 2]
            log_coef = [-4 * ck for ck in c] + [0, 0]
            rule = sorted(((node / 2, weight * 2 * mpmath.sqrt(2) / 3)
                           for node, weight in mp_laguerre_rule(28, 1.5)), key=lambda nw: nw[1])
            assert quadrature._K2_COEF.tolist() == [float(v) for v in coef]
            assert quadrature._K2_LOG_COEF.tolist() == [float(v) for v in log_coef]
            assert quadrature._K2_NODES.tolist() == [float(u) for u, _ in rule]
            assert quadrature._K2_WEIGHTS.tolist() == [float(w) for _, w in rule]
        assert quadrature._K2_POWERS.tolist() == [2.0 * k for k in range(12, -1, -1)]

    @pytest.mark.parametrize("grid", sorted(K2_GRIDS))
    def test_within_3_ulps_of_mpmath(self, grid):
        x = K2_GRIDS[grid]
        got = quadrature._x2_k2_ex(x)
        with mpmath.workdps(25):
            for xi, v in zip(x, got):
                want = mp_x2_k2_ex(xi)
                ulps = abs(mpmath.mpf(v) - want) / np.spacing(float(want))
                assert ulps <= 3, (xi, float(ulps))

    def test_whole_array_equals_one_element_at_a_time(self):
        x = np.random.default_rng(5).permutation(np.concatenate(list(K2_GRIDS.values())))
        got = quadrature._x2_k2_ex(x)
        one = np.array([quadrature._x2_k2_ex(x[i : i + 1])[0] for i in range(x.size)])
        assert np.array_equal(got, one)
        assert np.array_equal(got[:7], quadrature._x2_k2_ex(x[:7]))


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

    def test_half_open_faces_in_3d(self):
        # each lower face is out and each upper face in, one axis at a time
        K = Region((-1.0, 0.0, 2.0), (2.0, 0.5, 1.0))
        pts = [[0.0, 0.25, 2.5], [-1.0, 0.25, 2.5], [0.0, 0.0, 2.5], [0.0, 0.25, 2.0],
               [1.0, 0.25, 2.5], [0.0, 0.5, 2.5], [0.0, 0.25, 3.0], [1.0, 0.5, 3.0],
               [0.0, 0.25, 3.5]]
        assert K.contains(np.array(pts)).tolist() == [
            True, False, False, False, True, True, True, True, False
        ]

    def test_one_point_as_a_1d_array(self):
        K = Region((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert K.contains(np.array([0.5, 1.0, 0.25])).tolist() == [True]
        assert K.contains(np.array([0.5, 0.0, 0.25])).tolist() == [False]

    def test_points_of_another_width_rejected(self):
        # an (m, 1) array against a d=2 box would broadcast to one column
        with pytest.raises(ValueError):
            unit_box(2).contains(np.array([[0.5], [2.0]]))
        with pytest.raises(ValueError):
            unit_box(1).contains(np.array([0.5, 0.25]))
        with pytest.raises(ValueError):
            unit_box(3).contains(np.empty((0, 2)))

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
        # a row's value does not depend on the batch it is evaluated in
        ones = [covariogram_shell_mass(K, s[k:k + 1]) for k in range(s.size)]
        assert np.array_equal(got, np.concatenate(ones))
        assert np.array_equal(covariogram_shell_mass(K, s[::-1, None])[:, 0], got[::-1])
        scalar = covariogram_shell_mass(K, s[5])
        assert isinstance(scalar, np.ndarray) and scalar.shape == () and scalar == got[5]

    @pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan, [0.5, -1e-12], [0.5, math.nan]])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bad_separation_rejected(self, bad, d):
        with pytest.raises(ValueError):
            covariogram_shell_mass(unit_box(d), bad)


class TestDoubleRegionIntegral:
    def test_constant(self):
        for K in [Region((0.0,), (1.0,)), unit_box(2), unit_box(3)]:
            got = double_region_integral(lambda s: np.ones_like(s), K).value
            assert got == pytest.approx(K.volume**2, rel=1e-7)

    def test_indicator_of_diameter(self):
        K = unit_box(2)
        F = lambda s: (np.asarray(s) <= K.diameter).astype(float)
        assert double_region_integral(F, K).value == pytest.approx(1.0, rel=1e-7)

    def test_mean_distance_interval(self):
        K = Region((0.0,), (1.0,))
        got = double_region_integral(lambda s: np.asarray(s, dtype=float), K).value
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_mean_distance_square_and_cube(self):
        # classical mean-distance constants for the unit square and cube
        got2 = double_region_integral(lambda s: np.asarray(s, dtype=float), unit_box(2)).value
        assert got2 == pytest.approx(0.5214054331647207, abs=1e-7)
        got3 = double_region_integral(lambda s: np.asarray(s, dtype=float), unit_box(3)).value
        assert got3 == pytest.approx(0.6617071822671758, abs=1e-7)
