import numpy as np
import pytest

from oracles import double_well_roots, double_well_x0, sign_scan_sets
from sgdmc.absorbing import (
    absorbing_intervals,
    bifurcations,
    decompose,
    rectangle_count_for,
    sign_chart,
    uniqueness_check,
)
from sgdmc.objective import (
    SeparableObjective,
    bernoulli_pair,
    crossed_quadratics_2d,
    double_well,
    double_well_potential,
    eighth_order,
    eighth_order_potential,
    lambda_split,
)
from sgdmc.poly import Polynomial

LAM_C = 2.0 / (3.0 * np.sqrt(3.0))


def mixed_2d():
    """First coordinate split with lam=0.2 (two intervals), second with 0.55 (one)."""
    d02 = double_well(0.2)
    d55 = double_well(0.55)
    return SeparableObjective(
        components=(d02.components[0], d55.components[0])
    )


def test_state_space_bernoulli():
    assert bernoulli_pair().critical_report.span[0] == pytest.approx((-1.0, 1.0))


def test_state_space_double_well():
    x0 = double_well_x0(0.55)
    lo, hi = double_well(0.55).critical_report.span[0]
    assert lo == pytest.approx(-x0, abs=1e-12)
    assert hi == pytest.approx(x0, abs=1e-12)


def test_state_space_crossed_2d():
    spans = crossed_quadratics_2d().critical_report.span
    assert spans[0] == pytest.approx((0.0, 1.0))
    assert spans[1] == pytest.approx((0.0, 1.0))


def test_left_right_bernoulli():
    chart = sign_chart(bernoulli_pair(), 0)
    assert chart.points == (-1.0, 1.0)
    # elements: (-inf, -1), -1, (-1, 1), 1, (1, inf)
    assert chart.left == (False, False, True, True, True)
    assert chart.right == (True, True, True, False, False)


def _assert_matches_sign_scan(obj):
    chart = sign_chart(obj, 0)
    xs, in_l, in_r = sign_scan_sets(obj, 0, -2.0, 2.0, 10_000)
    for x, wl, wr in zip(xs, in_l, in_r):
        if min(abs(x - b) for b in chart.points) < 1e-3:
            continue  # scan resolution near set boundaries
        assert chart.left[chart.element(x)] == wl
        assert chart.right[chart.element(x)] == wr


@pytest.mark.parametrize("lam", [0.2, 0.55])
def test_left_right_against_sign_scan(lam):
    _assert_matches_sign_scan(double_well(lam))


def test_left_right_eighth_order_sign_scan():
    _assert_matches_sign_scan(eighth_order(0.5))


def test_absorbing_single_interval_is_state_space():
    obj = double_well(0.55)
    ts = absorbing_intervals(sign_chart(obj, 0))
    x0 = double_well_x0(0.55)
    assert len(ts) == 1
    assert ts[0].l == pytest.approx(-x0, abs=1e-12)
    assert ts[0].r == pytest.approx(x0, abs=1e-12)


def test_absorbing_two_intervals():
    obj = double_well(0.2)
    ts = absorbing_intervals(sign_chart(obj, 0))
    r = double_well_roots(0.2)  # [x2, x1, x0]
    x2, x0 = r[0], r[2]
    assert len(ts) == 2
    assert ts[0].l == pytest.approx(-x0, abs=1e-12)
    assert ts[0].r == pytest.approx(x2, abs=1e-12)
    assert ts[1].l == pytest.approx(-x2, abs=1e-12)
    assert ts[1].r == pytest.approx(x0, abs=1e-12)
    assert ts[0].r < ts[1].l  # ordered and disjoint


def test_absorbing_eighth_order_counts_and_middle():
    ts = absorbing_intervals(sign_chart(eighth_order(0.5), 0))
    assert len(ts) == 3
    assert ts[1].l < 0.0 < ts[1].r
    assert ts[0].r < 0.0 and ts[2].l > 0.0
    ts = absorbing_intervals(sign_chart(eighth_order(1.6), 0))
    assert len(ts) == 2
    assert all(not t.contains(0.0) for t in ts)
    ts = absorbing_intervals(sign_chart(eighth_order(7.0), 0))
    assert len(ts) == 1


def test_endpoint_classification():
    # l sits inside R but on the boundary of L; r the other way around
    for lam in (0.2, 0.55):
        obj = double_well(lam)
        chart = sign_chart(obj, 0)
        for t in absorbing_intervals(chart):
            assert t.l in chart.points and t.r in chart.points
            assert chart.right[chart.element(t.l)] and not chart.left[chart.element(t.l)]
            assert chart.left[chart.element(t.r)] and not chart.right[chart.element(t.r)]


def test_local_minimum_containment():
    # the averaged objective decreases into each interval from both ends
    for obj in (double_well(0.2), eighth_order(0.5)):
        mean_dp = obj.mean()[0].derivative()
        for t in absorbing_intervals(sign_chart(obj, 0)):
            assert mean_dp(t.l) < 0.0
            assert mean_dp(t.r) > 0.0


def test_count_at_fold_value():
    assert rectangle_count_for(double_well(LAM_C)) == 2


def test_bifurcation_located_by_bisection():
    lo, hi = 0.37, 0.39
    c_lo = rectangle_count_for(double_well(lo))
    assert c_lo == 2 and rectangle_count_for(double_well(hi)) == 1
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if rectangle_count_for(double_well(mid)) == c_lo:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(LAM_C, abs=1e-6)


def test_bifurcations_are_critical_values_of_the_slope():
    # F'' vanishes at +-1/sqrt(3), where |F'| = 2/(3 sqrt(3))
    [(lam, before, after)] = bifurcations(double_well_potential(), 0.1, 1.0)
    assert lam == pytest.approx(LAM_C, abs=1e-15) and (before, after) == (2, 1)
    # both eighth-order changes, with no count read between them
    rows = bifurcations(eighth_order_potential(), 1.0, 2.5)
    assert [(before, after) for _, before, after in rows] == [(3, 2), (2, 1)]
    assert [lam for lam, _, _ in rows] == pytest.approx([1.462958066, 1.849169368], abs=1e-9)
    assert bifurcations(eighth_order_potential(), 1.5, 1.8) == []


def test_rectangle_count_independent_of_eta():
    obj = double_well(0.2)
    eta0 = 0.3919334762556135
    boxes = None
    for eta in np.linspace(0.05, 0.95 * eta0, 5):
        d = decompose(obj, float(eta))
        got = [r.box for r in d.rectangles]
        if boxes is None:
            boxes = got
        assert got == boxes


def _in_transient(d, point) -> bool:
    """The point lies in I but in no rectangle."""
    def inside(box):
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, box))
    return inside(d.intervals) and not any(inside(rect.box) for rect in d.rectangles)


def test_decompose_crossed_2d_single_rectangle():
    d = decompose(crossed_quadratics_2d(), 0.25)
    assert d.rectangle_count == 1
    assert d.rectangles[0].box[0] == pytest.approx((0.0, 1.0))
    assert d.rectangles[0].box[1] == pytest.approx((0.0, 1.0))
    # transient part is empty: every grid point sits in the rectangle
    for x in np.linspace(0, 1, 7):
        for y in np.linspace(0, 1, 7):
            assert not _in_transient(d, (x, y))


def test_decompose_mixed_2d():
    d = decompose(mixed_2d(), 0.2)
    assert d.counts == (2, 1)
    assert d.rectangle_count == 2
    assert _in_transient(d, (0.0, 0.0))  # first coordinate transient


def test_decompose_rectangles_disjoint_and_inside():
    d = decompose(double_well(0.2), 0.3)
    (a, b) = d.intervals[0]
    boxes = [r.box[0] for r in d.rectangles]
    for lo, hi in boxes:
        assert a <= lo < hi <= b
    for (l1, r1), (l2, r2) in zip(boxes[:-1], boxes[1:]):
        assert r1 < l2


def test_uniqueness_check_cases():
    assert uniqueness_check(bernoulli_pair()) is True
    assert uniqueness_check(double_well(0.55)) is True
    assert uniqueness_check(double_well(0.2)) is False
    assert decompose(double_well(0.55), 0.1).unique is True


def test_sign_chart_excludes_touch_point():
    # (x^4/4 + x^3/3)' = x^2 (x + 1) is positive on both sides of its touch
    # root at 0, where (x^2/2 - x/2)' = x - 1/2 is negative: the touch point
    # lies in R but not in L, and the absorbing interval opens there
    obj = SeparableObjective(components=((Polynomial([0, 0, 0, 1 / 3, 0.25]),
                                          Polynomial([0, -0.5, 0.5])),))
    chart = sign_chart(obj, 0)
    assert len(chart.points) == 3
    touch = chart.points[1]
    assert abs(touch) < 1e-12
    e = chart.element(touch)
    assert e == 3
    assert chart.left[e - 1] and chart.left[e + 1] and not chart.left[e]
    assert chart.right[e]
    (t,) = absorbing_intervals(chart)
    assert t.l == touch and t.r == 0.5


def test_decomposition_serializes():
    d = decompose(double_well(0.2), 0.3)
    payload = d.to_dict()
    assert payload["counts"] == [2]
    assert payload["unique"] is False
    assert len(payload["T"]) == 2
    assert payload["I"][0][0] == pytest.approx(-double_well_x0(0.2))


def test_quadratic_split_single_absorbing_interval():
    obj = lambda_split(Polynomial([0, 0, 1.0]), 1.0)
    ts = absorbing_intervals(sign_chart(obj, 0))
    assert len(ts) == 1
    assert ts[0].l == pytest.approx(-0.5)
    assert ts[0].r == pytest.approx(0.5)
