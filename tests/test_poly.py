import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import double_well_roots, scalar_bisect, scalar_real_roots
from sgdmc import poly
from sgdmc.errors import ConfigError, DegenerateDerivative
from sgdmc.poly import Polynomial, critical_points, real_roots

DW = Polynomial([0.25, 0.0, -0.5, 0.0, 0.25])  # (1 - x^2)^2 / 4


def test_eval_square():
    assert Polynomial([0, 0, 1])(2.0) == 4.0


def test_eval_double_well_at_one():
    assert DW(1.0) == 0.0


def test_eval_eighth_order_pinned():
    # exact rational evaluation of 2.84 x^4 - 2.94 x^6 + 0.78 x^8 at 1.35
    p = Polynomial([0, 0, 0, 0, 2.84, 0, -2.94, 0, 0.78])
    assert p(1.35) == pytest.approx(0.24122397621796876, rel=1e-14)


def test_eval_on_arrays():
    xs = np.linspace(-2, 2, 11)
    out = Polynomial([1.0, 0.0, 3.0])(xs)
    assert np.allclose(out, 1.0 + 3.0 * xs**2)
    assert Polynomial()(xs).shape == xs.shape


def test_derivative_square():
    assert Polynomial([0, 0, 1]).derivative().coeffs == (0.0, 2.0)


def test_derivative_double_well_tilted():
    # d/dx (F - lam x) = x^3 - x - lam
    f2 = DW.shift_linear(-0.55)
    assert f2.derivative().coeffs == (-0.55, -1.0, 0.0, 1.0)


def test_derivative_constant_is_zero():
    assert Polynomial([3.0]).derivative().is_zero


def test_critical_points_single_root():
    f2 = DW.shift_linear(-0.55)
    roots = critical_points(f2)
    oracle = double_well_roots(0.55)
    assert len(roots) == 1 == len(oracle)
    assert roots[0] == pytest.approx(oracle[0], abs=1e-12)
    assert roots[0] == pytest.approx(1.2065794797540526, abs=1e-12)


def test_critical_points_three_roots():
    f2 = DW.shift_linear(-0.2)
    roots = critical_points(f2)
    oracle = double_well_roots(0.2)
    assert len(roots) == 3 == len(oracle)
    for got, want in zip(roots, oracle):
        assert got == pytest.approx(want, abs=1e-12)
    assert sum(roots) == pytest.approx(0.0, abs=1e-10)  # cubic has no x^2 term


def test_critical_points_shifted_square():
    assert critical_points(Polynomial([1, -2, 1])) == [1.0]


def test_critical_points_constant_raises():
    with pytest.raises(DegenerateDerivative):
        critical_points(Polynomial([5.0]))


def test_double_root_reported_once():
    # at the fold the two inner critical points merge into a double root
    lam_c = 2.0 / (3.0 * np.sqrt(3.0))
    roots = critical_points(DW.shift_linear(-lam_c))
    assert len(roots) == 2
    assert min(roots) == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-7)


def test_real_roots_double_root_polynomial():
    # (x - 1)^2 touches zero without a sign change
    assert real_roots(Polynomial([1, -2, 1])) == pytest.approx([1.0], abs=1e-9)


def test_real_roots_against_constructed_roots(rng):
    for _ in range(200):
        k = int(rng.integers(1, 6))
        roots = np.sort(rng.uniform(-2.0, 2.0, size=k))
        while k > 1 and np.min(np.diff(roots)) < 0.1:
            roots = np.sort(rng.uniform(-2.0, 2.0, size=k))
        coeffs = np.poly(roots)[::-1]  # ascending
        got = real_roots(Polynomial(coeffs))
        assert len(got) == k
        assert np.allclose(got, roots, atol=1e-8)


def test_newton_refinement_quality(rng):
    # one Newton step moves a reported simple root by less than 10 * root_tol
    for lam in (0.2, 0.45, 0.55, 0.9):
        p = DW.shift_linear(-lam)
        dp = p.derivative()
        ddp = dp.derivative()
        for r in critical_points(p):
            if abs(ddp(r)) < 1e-6:
                continue
            newton = r - dp(r) / ddp(r)
            assert abs(newton - r) < 10 * 1e-12


def test_cauchy_bound_contains_roots(rng):
    for _ in range(50):
        coeffs = rng.normal(size=int(rng.integers(2, 7)))
        p = Polynomial(coeffs)
        if p.degree < 1:
            continue
        bound = p.cauchy_bound()
        for r in np.roots(p.coeffs[::-1]):
            if abs(r.imag) < 1e-12:
                assert abs(r.real) <= bound + 1e-9


def test_poly_arithmetic():
    a = Polynomial([1, 2])
    b = Polynomial([0, 0, 3])
    assert (a + b).coeffs == (1.0, 2.0, 3.0)
    assert (a * b).coeffs == (0.0, 0.0, 3.0, 6.0)
    assert (a - a).is_zero


# coefficients with signed zeros; the leading one is kept away from 0 so that
# the root bounds stay far inside double precision
coefficient = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
leading = st.one_of(st.floats(-4.0, -0.05), st.floats(0.05, 4.0))


@st.composite
def polynomials(draw):
    degree = draw(st.integers(1, 8))
    return Polynomial([draw(coefficient) for _ in range(degree)] + [draw(leading)])


def hexes(xs):
    return [x.hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(polynomials(), st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                               min_size=1, max_size=4))
def test_compiled_bisection_matches_scalar_bisection(p, ends):
    # no more brackets than p's degree go through the compiled kernel, width
    # copies of them always through the numpy lanes
    lo, hi = [min(e) for e in ends], [max(e) for e in ends]
    expected = [scalar_bisect(p, a, b, p(a)).hex() for a, b in zip(lo, hi)]
    rest, width = p.coeffs[1:], len(p.coeffs)
    for copies in (1, width):
        lanes = [np.array(x * copies) for x in (lo, hi, [p(a) > 0.0 for a in lo])]
        got = poly._bisect(rest, np.full(len(lo) * copies, p.coeffs[0]), *lanes)
        assert hexes(got.tolist()) == expected * copies


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_memoized_real_roots_match_scalar_real_roots(p):
    expected = hexes(scalar_real_roots(p))
    assert hexes(real_roots(p)) == expected
    assert hexes(real_roots(p)) == expected  # from the memo


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
def test_memo_keys_on_bit_patterns(order):
    # Polynomial([0.0, 1.0]) == Polynomial([-0.0, 1.0]), but their roots are
    # -0.0 / 1.0 = -0.0 and 0.0
    poly._memo.clear()
    for _ in range(2):
        for c in order:
            assert hexes(real_roots(Polynomial([c, 1.0]))) == [(-c).hex()]


def test_memo_returns_a_fresh_list():
    roots = real_roots(DW)
    expected = list(roots)
    roots[0] = 3.0
    roots.append(7.0)
    assert real_roots(DW) == expected


def test_range_overflow_is_a_config_error_and_not_memoized():
    # the root bound 2.5e149 of 1 - x + 4e-150 x^3: its cube overflows
    p = Polynomial([1.0, -1.0, 0.0, 4e-150])
    poly._memo.clear()
    for _ in range(2):
        with pytest.raises(ConfigError, match="too wide a range"):
            real_roots(p)
    # p, p' and p'' on the first call and p again on the second: p' and p''
    # were kept, the failure was not
    assert poly.isolation_counts() == (4, 1)


@st.composite
def families(draw):
    """A polynomial of degree >= 2 and constant terms for its family: signed
    zeros, arbitrary values, repeats, and the family's own critical values,
    where a member has a root at a root of p' and the snap fires."""
    p = draw(polynomials().filter(lambda q: q.degree >= 2))
    top = Polynomial((0.0,) + p.coeffs[1:])
    critical = [-top(r) for r in scalar_real_roots(p.derivative())]
    pool = st.one_of(coefficient, st.sampled_from(critical) if critical else coefficient)
    return p, draw(st.lists(pool, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(families())
# x^3 and x^5 report 0 twice, snapped at p''s root -0.0 and bisected to
# 0.0, and keep the first, -0.0: the sort must be stable
@example((Polynomial([0.0, 0.0, 0.0, 1.0]), [0.0, -0.0, 1.0]))
@example((Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), [-0.0, 0.0]))
@example((Polynomial([0.0, 0.0, -0.0, 1.0]), [0.0, -0.0]))
def test_family_isolation_matches_scalar_real_roots(family):
    p, constants = family
    poly._memo.clear()
    poly.isolate_family(p, constants)
    members = {struct.pack("d", c): Polynomial((c,) + p.coeffs[1:]) for c in constants}
    # p' and whatever it needed were isolated through real_roots
    computed = poly.isolation_counts()[0]
    assert computed - len(members) == sum(1 for _ in _derivative_chain(p.derivative()))
    for member in members.values():
        assert hexes(real_roots(member)) == hexes(scalar_real_roots(member))
    assert poly.isolation_counts()[0] == computed  # every member came from the memo


def _derivative_chain(p):
    # p and its derivatives down to degree 1: what real_roots(p) isolates
    yield p
    while p.degree >= 2:
        p = p.derivative()
        yield p


@pytest.mark.parametrize("coeffs, constants, kept, failures", [
    # 3e-10 x^3 + c: the root bound 1 + |c| / 3e-10 overflows at c = 1e300,
    # its cube at c = 1e100; c = 1 isolates beside p' and p''
    ([0.0, 0.0, 0.0, 3e-10], [1e300, 1e100, 1.0], 3,
     {1e300: "in the root bound", 1e100: "at |x| = 3.33e+109"}),
    # c - x + 4e-150 x^3: every member's bound cubed overflows, p' and p'' do not
    ([0.0, -1.0, 0.0, 4e-150], [1.0, 2.0], 2,
     {1.0: "at |x| = 2.5e+149", 2.0: "at |x| = 5e+149"}),
    # c - x^2 + 1e-150 x^4: p' = -2x + 4e-150 x^3 overflows, so every member does
    ([0.0, 0.0, -1.0, 0.0, 1e-150], [1.0, -1.0], 2,
     {1.0: "isolating the real roots of [0.0, -2.0, 0.0, 4e-150]",
      -1.0: "isolating the real roots of [0.0, -2.0, 0.0, 4e-150]"}),
], ids=["bound-and-scale", "scale", "derivative"])
def test_family_isolation_keeps_no_failing_member(coeffs, constants, kept, failures):
    p = Polynomial(coeffs)
    poly._memo.clear()
    poly.isolate_family(p, constants)
    assert len(poly._memo.roots) == kept
    for c, message in failures.items():
        member = Polynomial([c, *coeffs[1:]])
        for _ in range(2):  # real_roots raises it, and keeps nothing either
            with pytest.raises(ConfigError, match=f"too wide a range.*{re.escape(message)}"):
                real_roots(member)
    assert len(poly._memo.roots) == kept
    for c in set(constants) - set(failures):
        member = Polynomial([c, *coeffs[1:]])
        assert hexes(real_roots(member)) == hexes(scalar_real_roots(member))


def test_family_isolation_keeps_the_members_the_memo_holds():
    # p is the memo's least recently used entry but one, and a member of the
    # family: marked as used, it outlives the half memo of new members
    p = Polynomial([0.0, -1.0, 0.0, 1.0])
    poly._memo.clear()
    real_roots(p)  # p, p' and p''
    for i in range(poly.ROOTS_MEMO_SIZE - 3):
        real_roots(Polynomial([float(i), 1.0]))
    poly.isolate_family(p, [0.01 * k for k in range(poly.ROOTS_MEMO_SIZE // 2)])
    computed = poly.isolation_counts()[0]
    assert hexes(real_roots(p)) == hexes(scalar_real_roots(p))
    assert poly.isolation_counts()[0] == computed
