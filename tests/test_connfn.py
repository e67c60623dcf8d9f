import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rcmlab import connfn
from rcmlab.connfn import (
    ConnFnError,
    exponential,
    gaussian,
    hard_disk,
    table_function,
)
from rcmlab.quadrature import adaptive_quad, radial_integral


GRID = np.linspace(0.0, 5.0, 51)

builtin = st.sampled_from(
    [hard_disk(1.0), hard_disk(0.4), exponential(1.0), exponential(0.5), gaussian(1.2)]
)


def test_eval_examples():
    assert hard_disk(1.0).eval(0.5) == 1.0
    assert exponential(1.0).truncate_outside(1.0).eval(0.5) == 0.0
    assert exponential(1.0).scale(2.0).eval(0.5) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_indicator_ties_close_on_the_left():
    # 1{x <= R}: the boundary point belongs to the inside part
    f = exponential(1.0)
    assert f.truncate_inside(1.0).eval(1.0) == pytest.approx(math.exp(-1.0))
    assert f.truncate_outside(1.0).eval(1.0) == 0.0
    assert hard_disk(1.0).eval(1.0) == 1.0


def test_variant_formulas():
    g = exponential(1.0)
    # cut at R then scale: 1{x <= R/n} g(n x)
    v = g.scale(4.0).truncate_inside(2.0 / 4.0)
    assert v.eval(0.4) == pytest.approx(math.exp(-1.6), rel=1e-12)
    assert v.eval(0.6) == 0.0
    # scale then cut at R: 1{x <= R} g(n x)
    w = g.scale(4.0).truncate_inside(2.0)
    assert w.eval(1.0) == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert w.eval(2.5) == 0.0
    # widened cut without scaling: 1{x <= n R} g(x)
    k = g.truncate_inside(4.0 * 2.0)
    assert k.eval(7.9) == pytest.approx(math.exp(-7.9), rel=1e-12)
    assert k.eval(8.1) == 0.0


def test_inside_with_huge_radius_is_identity():
    g = exponential(1.0)
    v = g.truncate_inside(1e12)
    assert np.array_equal(v.eval(GRID), g.eval(GRID))


def test_non_commutation_of_cut_and_scale():
    g = exponential(1.0)
    sc = g.scale(4.0).truncate_inside(2.0)  # scale, then cut at R = 2
    cs = g.scale(4.0).truncate_inside(2.0 / 4.0)  # cut at R = 2, then scale
    assert sc.eval(1.0) == pytest.approx(math.exp(-4.0))
    assert cs.eval(1.0) == 0.0


def assert_variant_identities(f, R, n):
    """The algebra of the two cut orders, exactly, on GRID: both sides of
    each identity go through the same indicator rules."""
    g_in = f.truncate_inside(R)
    g_cs = f.scale(n).truncate_inside(R / n)  # cut at R, then scale
    # (i) cut then scale at x == the inside part at n x
    assert np.array_equal(g_cs.eval(GRID), g_in.eval(n * GRID))
    # (ii) scale then cut at x == 1{y <= n R} f(y) at y = n x
    assert np.array_equal(f.scale(n).truncate_inside(R).eval(GRID),
                          f.truncate_inside(n * R).eval(n * GRID))
    # (iii) inside(x) + outside(x) == f(x)
    assert np.array_equal(g_in.eval(GRID) + f.truncate_outside(R).eval(GRID), f.eval(GRID))
    # (iv) the two parts of cut then scale add up to the scaled f
    assert np.array_equal(
        g_cs.eval(GRID) + f.scale(n).truncate_outside(R / n).eval(GRID),
        f.scale(n).eval(GRID),
    )


def test_verify_identities_exponential():
    assert_variant_identities(exponential(1.0), R=2.0, n=4.0)


def test_verify_identities_hard_disk_n1():
    assert_variant_identities(hard_disk(1.0), R=0.5, n=1.0)


@given(builtin, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([1.0, 2.0, 4.0, 8.0]))
def test_verify_identities_binary_scales(f, R, n):
    assert_variant_identities(f, R=R, n=n)


@given(builtin, st.floats(0.1, 3.0))
def test_complement_is_exact(f, R):
    g_in = f.truncate_inside(R)
    g_out = f.truncate_outside(R)
    assert np.array_equal(g_in.eval(GRID) + g_out.eval(GRID), f.eval(GRID))


@given(builtin, st.floats(0.2, 3.0), st.floats(1.0, 8.0))
def test_bounds_and_monotone_inside_stacks(f, R, n):
    g = f.truncate_inside(R).scale(n)
    vals = g.eval(GRID)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # outside truncations jump upward at the cut, so monotonicity is only
    # asserted for inside/scale stacks
    assert np.all(np.diff(vals) <= 0.0)


def test_table_function():
    f = table_function([(0.0, 1.0), (0.5, 0.8), (2.0, 0.0)])
    assert f.eval(0.25) == pytest.approx(0.9)
    assert f.eval(2.0) == 0.0
    assert f.eval(3.0) == 0.0
    assert f.support_radius == 2.0
    assert f.tail_radius(1e-9, 2) == 2.0


def test_table_validation():
    with pytest.raises(ConnFnError):
        table_function([(0.0, 1.0), (1.0, 0.5)])  # must end at 0
    with pytest.raises(ConnFnError):
        table_function([(0.0, 0.5), (1.0, 0.8), (2.0, 0.0)])  # increasing
    with pytest.raises(ConnFnError):
        table_function([(0.5, 1.0), (2.0, 0.0)])  # must start at 0
    with pytest.raises(ConnFnError):
        table_function([(0.0, 1.5), (2.0, 0.0)])  # above 1


def test_invalid_variant_and_params():
    with pytest.raises(ConnFnError):
        exponential(1.0).truncate_inside(-1.0)
    with pytest.raises(ConnFnError):
        exponential(-1.0)


def test_support_radius_tracking():
    g = hard_disk(1.0)
    assert g.support_radius == 1.0
    assert g.scale(4.0).support_radius == 0.25
    assert g.truncate_inside(0.5).support_radius == 0.5
    # outside-truncation beyond the support kills the function entirely
    dead = g.truncate_outside(1.0)
    assert dead.support_radius == 0.0
    assert np.all(dead.eval(GRID) == 0.0)
    assert exponential(1.0).support_radius is None


# (seed, count, stack of (first, n)), first ~ U(0.1, 3) drawn before n ~
# U(1, 10): disks and exponentials cut inside, each under one scale, a table
# cut inside below its last radius and a disk cut outside within its edge
EDGE_FAMILIES = {
    "disk": (2, 20_000, lambda a, n: hard_disk(a).scale(n)),
    "exp_in": (3, 20_000, lambda R, n: exponential(1.0).truncate_inside(R).scale(n)),
    "table_in": (4, 2_000, lambda R, n: table_function(_TABLE).truncate_inside(0.28 * R).scale(n)),
    "disk_out": (4, 2_000, lambda a, n: hard_disk(a).truncate_outside(a / 3.0).scale(n)),
}


def test_eval_and_support_agree_at_every_edge():
    # the last radius with a positive value is the support radius itself
    disagree = {}
    for family, (seed, count, stack) in EDGE_FAMILIES.items():
        rng = np.random.default_rng(seed)
        first, n = rng.uniform(0.1, 3.0, count), rng.uniform(1.0, 10.0, count)
        bad = 0
        for f in map(stack, first, n):
            s = f.support_radius
            at, past = f.eval(np.array([s, np.nextafter(s, np.inf)]))
            bad += not (at > 0.0 and past == 0.0)
        disagree[family] = bad
    assert disagree == dict.fromkeys(EDGE_FAMILIES, 0)


# a support radius beyond the largest float: by the scale factors of a disk
# or a table, or by an inside cut that the factors widen
@pytest.mark.parametrize("f", [
    hard_disk(1.0).scale(1e-300).scale(1e-300),
    table_function([(0, 1), (1, 0)]).scale(1e-300).scale(1e-300),
    exponential(1.0).truncate_inside(1e300).scale(1e-300),
])
def test_a_support_beyond_floats_is_an_error(f):
    with pytest.raises(ConnFnError, match="the support radius overflows a float"):
        f.tail_radius(1e-12, 2)


@pytest.mark.parametrize("f,d", [(exponential(1.0), 1), (exponential(0.7), 2), (gaussian(1.0), 3)])
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_tail_radius_soundness(f, d, eps):
    T = f.tail_radius(eps, d)
    total = radial_integral(f, d).value
    from rcmlab.connfn import sphere_surface

    om = sphere_surface(d)
    inside, _ = adaptive_quad(lambda r: om * r ** (d - 1) * f.eval(r), 0.0, T)
    assert total - inside < eps
    # doubling the cutoff changes the integral by less than eps
    wider, _ = adaptive_quad(lambda r: om * r ** (d - 1) * f.eval(r), 0.0, 2 * T)
    assert abs(wider - inside) < eps


def test_tail_radius_of_scaled_stack():
    f = exponential(1.0).scale(4.0)
    T = f.tail_radius(1e-8, 1)
    tail = radial_integral(f, 1).value - adaptive_quad(lambda r: 2 * f.eval(r), 0.0, T)[0]
    assert tail < 1e-8


PINNED_RADII = [
    (exponential(1.0), 1e-12, 1, 29.017315477048438),
    (gaussian(0.3), 1e-12, 2, 1.560604284125781),
    (exponential(1e300), 1e-4, 1, 7.013721626312814e+302),
    (exponential(0.5).scale(4.0), 1e-10, 3, 3.331554002068136),
]


@pytest.mark.parametrize("f,eps,d,radius", PINNED_RADII)
def test_tail_radius_bits(f, eps, d, radius):
    assert f.tail_radius(eps, d) == radius


# the radius (a / F) z is beyond the largest float: by a large scale a (the
# CLI's extreme-input table has exponential(1e307) in d = 1), or by scale
# factors whose product F underflows, ~1.5e313 or ~3.8e311
@pytest.mark.parametrize("f,d", [
    (gaussian(1e307), 1),
    (exponential(1e306), 2),
    (gaussian(1e307), 3),
    (gaussian(5e306), 3),
    (exponential(1.0).scale(1e-300).scale(1e-10), 2),
    (gaussian(1.0).scale(1e-300).scale(1e-10), 2),
])
def test_tail_radius_beyond_floats_is_an_error(f, d):
    with pytest.raises(ConnFnError, match=re.escape(f"scale a = {f.a:g}")):
        f.tail_radius(1e-12, d)


def _mp_tail_mass(f, T, d):
    """omega_d int_T^inf r^{d-1} f(r) dr in mpmath, the scale factors taken
    exactly: a^d Gamma(d) Q(d, T/a), or a^d Gamma(d/2) Q(d/2, (T/a)^2) / 2,
    with a the base scale over the factors."""
    with mpmath.workdps(30):
        a = mpmath.mpf(f.a)
        for n in f.scales:
            a /= mpmath.mpf(n)
        om = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        z = mpmath.mpf(T) / a
        if f.kind == "exponential":
            return om * a**d * mpmath.gammainc(d, z)
        return om * a**d / 2 * mpmath.gammainc(mpmath.mpf(d) / 2, z * z)


# eps * factor^d leaves floats while the mass is above eps / 2: by underflow
# (the first three) or overflow (the last); the radius is solved in logs,
# e.g. ~7.7e152 for the first, and leaves a tail mass of about eps / 2
@pytest.mark.parametrize("f,eps,d", [
    (exponential(1.0).scale(1e-150), 1e-30, 2),
    (exponential(1.0).scale(1e-200), 1e-12, 2),
    (gaussian(1.0).scale(1e-120), 1e-40, 3),
    (gaussian(2.0).scale(1e-300), 1e-300, 1),
    (exponential(1e300).scale(1e200), 1e-12, 2),
])
def test_tail_radius_solved_in_logs(f, eps, d):
    T = f.tail_radius(eps, d)
    assert 0.0 < T < math.inf
    assert 0.49 * eps < _mp_tail_mass(f, T, d) < eps


# eps * factor^d overflows, but the whole mass, a^d times that of a = 1, is
# far below eps / 2: compared in logs, the radius is 0
@pytest.mark.parametrize("f,d", [
    (exponential(1.0).scale(1e200), 2),
    (gaussian(2.0).scale(1e120), 3),
])
def test_tail_radius_of_a_negligible_mass_is_zero(f, d):
    assert f.tail_radius(1e-12, d) == 0.0


# budgets above the mass beyond a: the root lies below a / 2
@pytest.mark.parametrize("f,eps,d", [
    (exponential(1.0), 3.0, 1),
    (gaussian(1.0), 5.0, 2),
    (gaussian(1.0), 10.6, 3),
    (exponential(2.0), 1.998 * 4.0 * math.pi * 2.0**3 * 2.0, 3),  # 0.999 of the mass
])
def test_tail_radius_below_half_the_scale(f, eps, d):
    T = f.tail_radius(eps, d)
    assert 0.0 < T < f.a / 2
    assert 0.49 * eps < _mp_tail_mass(f, T, d) < eps


def _grid():
    """(f, eps, d) on a seeded grid: both unbounded kinds, d = 1..3, a in
    10^[-300, 300], half of them scaled by a factor in 10^[-200, 200], and
    eps in 10^[-300, 0]."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(400):
        f = (exponential, gaussian)[rng.integers(2)](10.0 ** rng.uniform(-300.0, 300.0))
        if rng.random() < 0.5:
            f = f.scale(10.0 ** rng.uniform(-200.0, 200.0))
        cases.append((f, 10.0 ** rng.uniform(-300.0, 0.0), int(rng.integers(1, 4))))
    return cases


def _unsound(f, eps, d):
    """Why the tail radius of f breaks its contract, or None: the mass beyond
    it lies in (0.49 eps, eps), a radius of 0 comes with a whole mass of at
    most eps / 2, and an error with a radius beyond floats."""
    try:
        T = f.tail_radius(eps, d)
    except ConnFnError:
        tail = _mp_tail_mass(f, sys.float_info.max, d) / eps
        return None if tail > 0.49 else f"an error, though the largest float leaves {tail} eps"
    tail = _mp_tail_mass(f, T, d) / eps
    if T == 0.0:
        return None if tail <= 0.5 else f"radius 0 with a whole mass of {tail} eps"
    return None if 0.49 < tail < 1.0 else f"radius {T!r} leaves {tail} eps"


# budgets that are below the normal floats relative to the whole mass, at a
# wide and at a narrow scale, and whole masses ~a^d beyond the largest float
@pytest.mark.parametrize("f,eps,d", [
    (exponential(1.0), 1e-320, 1),
    (exponential(1e200), 1e-150, 1),
    (gaussian(1e150), 1e-12, 2),
    (exponential(1e-30), 1e-40, 1),
    (exponential(1e160), 1e-12, 2),
    (gaussian(3e102), 1e-12, 3),
    (gaussian(5e102), 1e-12, 3),
])
def test_tail_radius_leaves_less_than_eps(f, eps, d):
    assert 0.0 < f.tail_radius(eps, d) < math.inf
    assert _unsound(f, eps, d) is None


def test_tail_radius_leaves_less_than_eps_on_a_seeded_grid():
    unsound = [(f, eps, d, why) for f, eps, d in _grid() if (why := _unsound(f, eps, d))]
    assert unsound == []


def test_tail_radius_takes_few_mass_evaluations(monkeypatch):
    # mc_tiny's replications solve two radii each, so a slower solver shows
    calls = []
    mass = connfn._log_unit_tail_mass

    def counted(kind, z, d):
        calls[-1] += 1
        return mass(kind, z, d)

    monkeypatch.setattr(connfn, "_log_unit_tail_mass", counted)
    for f, eps, d in _grid():
        calls.append(0)
        try:
            f.tail_radius(eps, d)
        except ConnFnError:
            pass
    assert max(calls) <= 32


def test_eval_accepts_scalars_and_arrays():
    f = exponential(1.0)
    assert isinstance(f.eval(1.0), float)
    out = f.eval(np.array([0.0, 1.0, 2.0]))
    assert out.shape == (3,)


def _masked_eval(f, x):
    """np.where(keep, base, 0.0), with a mask of ones narrowed to lo < x <=
    hi on x, and the base at a copy of x times the scale factors, or for a
    hard disk 1{x <= a over the factors}."""
    arr = np.asarray(x, dtype=float)
    cur = np.atleast_1d(arr).copy()
    keep = np.ones(cur.shape, dtype=bool)
    if f.lo is not None:
        keep &= cur > f.lo
    if f.hi is not None:
        keep &= cur <= f.hi
    if f.kind == "hard_disk":
        base = (cur <= _disk_edge(f)).astype(float)
    else:
        for n in reversed(f.scales):
            cur *= n
        base = f._base_eval(cur)
    vals = np.where(keep, base, 0.0)
    return float(vals[0]) if arr.ndim == 0 else vals


def _disk_edge(f):
    """A hard disk's a divided by its scale factors, one at a time."""
    edge = f.a
    for n in f.scales:
        edge /= n
    return edge


# each truncation radius lies on the grid, so every tie at a cut is evaluated
MASKED_STACKS = [
    exponential(0.7),
    gaussian(1.2),
    hard_disk(1.0),
    table_function([(0.0, 1.0), (0.5, 0.4), (1.0, 0.0)]),
    exponential(1.0).truncate_inside(1.0),
    exponential(1.0).truncate_outside(1.0),
    gaussian(0.8).truncate_inside(2.5).truncate_outside(0.5),
    exponential(0.3).scale(16.0).truncate_inside(1.0 / 16.0),
    exponential(0.3).scale(16.0).truncate_inside(1.0),
    hard_disk(1.0).scale(3.0).scale(0.5),
    exponential(1.0).scale(2.0).truncate_outside(0.25).scale(1.5),
]


@pytest.mark.parametrize("f", MASKED_STACKS)
def test_eval_is_the_masked_base_bit_for_bit(f):
    x = np.concatenate([GRID, [0.25, 1.0 / 16.0, 1.0 / 3.0, 1e-300, 1e100]])
    got, expect = f.eval(x), _masked_eval(f, x)
    assert got.dtype == expect.dtype and np.array_equal(got.view(np.uint64),
                                                        expect.view(np.uint64))
    for r in (0.0, 0.5, 1.0 / 16.0, 1.0, 2.5):
        value = f.eval(r)
        assert type(value) is float
        assert math.copysign(1.0, value) == math.copysign(1.0, _masked_eval(f, r))
        assert value == _masked_eval(f, r)


@pytest.mark.parametrize("f", [exponential(1.0).scale(2.0), hard_disk(1.0).scale(3.0).scale(0.5),
                               gaussian(0.8).scale(2.0).truncate_inside(1.0 / 2.0)])
def test_eval_leaves_its_input_unwritten(f):
    x = GRID.copy()
    f.eval(x)
    assert np.array_equal(x, GRID)
    x.flags.writeable = False
    assert np.array_equal(f.eval(x), _masked_eval(f, GRID))


def _literal_eval(f, x):
    """The function in the expressions it had before evaluating in place:
    each scale a new array, the base as np.exp(-x / a), np.exp(-((x / a) **
    2)), (x <= a over the factors).astype(float) or np.interp, and the cuts
    as np.where(keep, vals, 0.0) with keep compared on x."""
    x = cur = np.asarray(x, dtype=float)
    for n in reversed(f.scales):
        cur = cur * n
    keep = None
    if f.lo is not None:
        keep = x > f.lo
    if f.hi is not None:
        keep = x <= f.hi if keep is None else keep & (x <= f.hi)
    a = f.a
    if f.kind == "exponential":
        vals = np.exp(-cur / a)
    elif f.kind == "gaussian":
        vals = np.exp(-((cur / a) ** 2))
    elif f.kind == "hard_disk":
        vals = (x <= _disk_edge(f)).astype(float)
    else:
        rs, vs = np.array([r for r, _ in f.table]), np.array([v for _, v in f.table])
        vals = np.interp(cur, rs, vs, left=vs[0], right=0.0)
    return vals if keep is None else np.where(keep, vals, 0.0)


_TABLE = [(0.0, 1.0), (0.3, 0.9), (0.6, 0.2), (0.9, 0.0)]
IN_PLACE_STACKS = [
    stack
    for base in (hard_disk(0.7), exponential(0.3), gaussian(1.2), table_function(_TABLE))
    for stack in (
        base,
        base.scale(16.0),
        base.truncate_inside(0.5),
        base.truncate_outside(0.5),
        base.scale(16.0).truncate_inside(1.0 / 16.0),
        base.scale(4.0).truncate_outside(0.05),
        base.scale(3.0).truncate_inside(0.2).scale(0.5),
        base.truncate_outside(0.1).truncate_inside(0.4),
    )
]


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("f", IN_PLACE_STACKS)
def test_in_place_eval_keeps_the_literal_bits(f):
    # 0-d, 1-d, 2-d (the (k, 31) node arrays of the quadrature) and a strided
    # 2-d view, with ties at the cuts, inf and nan; none of them is written
    rng = np.random.default_rng(27)
    line = np.concatenate([GRID / 5.0, [0.05, 1 / 16, 0.1, 0.2, 0.25, 0.4, 0.5, 0.7, 1.0],
                           [0.0, 1e-300, 1e100, np.inf, np.nan]])
    nodes = rng.random((6, 31)) * 1.5
    nodes[0, :5] = [0.05, 1 / 16, 0.5, 0.7, 1.0]
    inputs = [np.float64(0.5), np.array(1 / 16), line, nodes, np.asfortranarray(nodes)[:, ::2]]
    for x in inputs:
        saved = np.array(x, copy=True)
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
        got, expect = f.eval(x), _literal_eval(f, x)
        if np.ndim(x) == 0:
            assert type(got) is float and expect.ndim == 0
        else:
            assert got.shape == expect.shape and got.dtype == np.float64
        assert np.array_equal(_bits(got), _bits(expect))
        assert np.array_equal(_bits(x), _bits(saved))
    assert f.eval(0.25) == _literal_eval(f, 0.25)  # a Python float


def test_pickle_roundtrip():
    import pickle

    f = gaussian(0.8).scale(2.0).truncate_inside(1.0 / 2.0)
    g = pickle.loads(pickle.dumps(f))
    assert np.array_equal(f.eval(GRID), g.eval(GRID))
