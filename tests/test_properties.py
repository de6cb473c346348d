"""Property tests over random coercive objectives: quartics and sextics F,
split as F + lam*x and F - lam*x, in one and two dimensions, with an
admissible step and a small grid (and short sampler runs in small blocks);
the sign chart also over full-form objectives of three or four components,
the bifurcations also over three-well sextics."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_anchored_distance,
    classify_cells,
    whole_point_escape_lengths,
    whole_point_sample,
    zero_padded_d_tilde,
)

from sgdmc import dynamics
from sgdmc.absorbing import absorbing_structure, bifurcations, decompose, rectangle_count_for
from sgdmc.dynamics import (
    MapFamily,
    _escape_direction,
    escape_path,
    sgd_sample,
    splitting_certificate_multi,
    uniform_escape_length,
    verify_certificate,
)
from sgdmc.errors import GridTooCoarse, NotFound, SgdmcError
from sgdmc.metrics import d_tilde, metric_config
from sgdmc.objective import SeparableObjective, eta_bound, lambda_split, state_space_window
from sgdmc.poly import Polynomial
from sgdmc.transfer import DiscreteMeasure, Grid, ulam_assemble

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None, suppress_health_check=[HealthCheck.filter_too_much])


def _base_polynomial(draw) -> Polynomial:
    """A random coercive F of degree 4 or 6; a negative quadratic term makes
    two wells, and so two rectangles, common."""
    degree = draw(st.sampled_from([4, 6]))
    coeffs = [0.0, draw(st.floats(-0.2, 0.2)), draw(st.floats(-1.0, -0.1))]
    coeffs += [draw(st.floats(-0.3, 0.3)) for _ in range(3, degree)]
    coeffs.append(draw(st.floats(0.1, 1.0)))
    return Polynomial(coeffs)


base_polynomials = st.composite(_base_polynomial)


@st.composite
def three_well_polynomials(draw):
    """A random coercive sextic a2 x^2 - a4 x^4 + a6 x^6 with three wells
    (a4 > sqrt(3 a2 a6)), tilted by small odd terms that break its symmetry:
    its lambda-splits show 3->2 changes, which two-well bases never do."""
    a2, a6 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    a4 = np.sqrt(3 * a2 * a6) * draw(st.floats(1.05, 2.0))
    odd = [draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3))]
    return Polynomial([0.0, odd[0], a2, odd[1], -a4, odd[2], a6])


@st.composite
def split_component(draw):
    """(F + lam*x, F - lam*x) for a random base polynomial F."""
    base = _base_polynomial(draw)
    return lambda_split(base, draw(st.floats(0.02, 0.6))).components[0]


@st.composite
def full_form_component(draw):
    """Three or four components (x - c)^2, (x - c)^4/4 - (x - c)^2/2 or the
    touch-root (x - c)^4/4 - (x - c)^3/3, at random centres c: their runs of
    L ∩ R can close at a point in R, which the lambda-splits rarely draw."""
    shapes = ([0.0, 0.0, 1.0], [0.0, 0.0, -0.5, 0.0, 0.25], [0.0, 0.0, 0.0, -1 / 3, 0.25])
    row = []
    for _ in range(draw(st.integers(3, 4))):
        shift = Polynomial([-draw(st.floats(-1.5, 1.5)), 1.0])
        power, acc = Polynomial([1.0]), Polynomial()
        for c in draw(st.sampled_from(shapes)):
            acc = acc + power.scale(c)
            power = power * shift
        row.append(acc)
    return tuple(row)


@st.composite
def problems(draw):
    """A decomposed problem on a small grid: (map family, decomposition, grid)."""
    dimension = draw(st.sampled_from([1, 2]))
    rows = tuple(draw(split_component()) for _ in range(dimension))
    try:
        obj = SeparableObjective(components=rows)
        eta = draw(st.floats(0.05, 0.95)) * eta_bound(obj)
        fam = MapFamily(obj, eta)
        decomp = decompose(obj, eta)
    except SgdmcError:
        assume(False)
    cells = draw(st.integers(8, 60) if dimension == 1 else st.integers(4, 10))
    return fam, decomp, Grid.regular(decomp.intervals, cells)


def _labels(grid, decomp):
    try:
        return grid.classify(decomp)
    except GridTooCoarse:
        assume(False)


@PROPERTY_SETTINGS
@given(problems())
def test_classify_matches_per_cell_oracle(problem):
    _, decomp, grid = problem
    np.testing.assert_array_equal(_labels(grid, decomp), classify_cells(grid, decomp))


@PROPERTY_SETTINGS
@given(problems())
def test_blocks_partition_the_cells(problem):
    _, decomp, grid = problem
    _labels(grid, decomp)
    config = metric_config(grid, decomp)
    assert len(config.rectangle_cells) == len(decomp.rectangles)
    blocks = np.concatenate([*config.rectangle_cells, config.transient_cells])
    np.testing.assert_array_equal(np.sort(blocks), np.arange(grid.ncells))


@PROPERTY_SETTINGS
@given(problems())
def test_ulam_rows_are_stochastic(problem):
    fam, _, grid = problem
    op = ulam_assemble(fam, grid)
    assert op.row_sum_error <= 1e-12
    assert np.max(np.abs(np.asarray(op.matrix.sum(axis=1)).ravel() - 1.0)) <= 1e-12
    assert op.matrix.min() >= 0.0


@PROPERTY_SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_d_tilde_matches_per_rectangle_oracle(problem, seed):
    _, decomp, grid = problem
    labels = _labels(grid, decomp)
    rng = np.random.default_rng(seed)
    mu, nu = (DiscreteMeasure(grid, w / w.sum()) for w in rng.random((2, grid.ncells)))
    transient = labels < 0
    expected = 0.5 * np.abs(mu.weights[transient] - nu.weights[transient]).sum()
    for m in range(len(decomp.rectangles)):
        inside = labels == m
        expected += brute_force_anchored_distance(
            np.where(inside, mu.weights, 0.0), np.where(inside, nu.weights, 0.0),
            grid.shape, (+1,) * grid.dimension,
        )
    assert abs(d_tilde(mu, nu, metric_config(grid, decomp)) - expected) <= 1e-12


@PROPERTY_SETTINGS
@given(problems())
def test_rectangle_boxes_hold_exactly_their_cells(problem):
    _, decomp, grid = problem
    _labels(grid, decomp)
    labels = classify_cells(grid, decomp)
    config = metric_config(grid, decomp)
    assert len(config.rectangle_boxes) == len(decomp.rectangles)
    flat = np.arange(grid.ncells).reshape(grid.shape)
    for m, box in enumerate(config.rectangle_boxes):
        assert len(box) == grid.dimension
        np.testing.assert_array_equal(np.sort(flat[box], axis=None), np.flatnonzero(labels == m))


@PROPERTY_SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_d_tilde_equals_the_zero_padded_oracle(problem, seed):
    # cumsums over each rectangle's box only: the same bits as over the grid
    _, decomp, grid = problem
    labels = _labels(grid, decomp)
    rng = np.random.default_rng(seed)
    mu, nu = (DiscreteMeasure(grid, w / w.sum()) for w in rng.random((2, grid.ncells)))
    config = metric_config(grid, decomp)
    assert d_tilde(mu, nu, config) == zero_padded_d_tilde(mu.weights, nu.weights, labels,
                                                           grid.shape)


@PROPERTY_SETTINGS
@given(problems())
def test_rectangles_are_disjoint_and_inside_the_state_space(problem):
    _, decomp, _ = problem
    for rect in decomp.rectangles:
        for (lo, hi), (a, b) in zip(rect.box, decomp.intervals):
            assert a <= lo < hi <= b
    for r1, r2 in itertools.combinations(decomp.rectangles, 2):
        # open boxes meet only if their intervals overlap in every dimension
        assert any(h1 <= l2 or h2 <= l1 for (l1, h1), (l2, h2) in zip(r1.box, r2.box))


@PROPERTY_SETTINGS
@given(problems())
def test_every_map_sends_corners_into_their_rectangle(problem):
    # checked on the map family's own polynomials, apart from decompose
    fam, decomp, _ = problem
    for rect in decomp.rectangles:
        for maps in fam.phi:
            for phi, (lo, hi) in zip(maps, rect.box):
                low, high = state_space_window(lo, hi)
                assert low <= phi(lo) <= high
                assert low <= phi(hi) <= high


@PROPERTY_SETTINGS
@given(st.one_of(problems().map(lambda problem: problem[0].obj),
                 st.tuples(full_form_component()).map(SeparableObjective)))
def test_sign_chart_matches_the_derivative_signs(obj):
    # read straight off the charts: decompose's invariance check would turn
    # a wrongly kept run into a rejected draw
    try:
        charts, per_dimension = absorbing_structure(obj)
    except SgdmcError:
        assume(False)
    for j, chart in enumerate(charts):
        pts = chart.points
        # one point inside each gap, the two unbounded gaps included
        mids = [0.5 * (a + b) for a, b in zip(pts[:-1], pts[1:])]
        probes = [pts[0] - 1.0] + mids + [pts[-1] + 1.0]
        for k, x in enumerate(probes):
            slopes = [p.derivative()(x) for p in obj.components[j] if not p.is_zero]
            assert chart.left[2 * k] == any(v > 0 for v in slopes)
            assert chart.right[2 * k] == any(v < 0 for v in slopes)
        for k in range(len(pts)):
            assert chart.left[2 * k + 1] or chart.right[2 * k + 1]
        for t in per_dimension[j]:
            lo, hi = chart.element(t.l), chart.element(t.r)
            assert lo % 2 == 1 and hi % 2 == 1  # both ends are chart points
            assert chart.right[lo] and not chart.left[lo]
            assert chart.left[hi] and not chart.right[hi]


@PROPERTY_SETTINGS
@given(problems())
def test_rectangle_count_is_step_size_free(problem):
    fam, decomp, _ = problem
    assert len(decomp.rectangles) == rectangle_count_for(fam.obj)


@PROPERTY_SETTINGS
@given(problems())
def test_found_certificates_verify(problem):
    fam, decomp, _ = problem
    for rect in decomp.rectangles:
        try:
            cert = splitting_certificate_multi(fam, rect)
        except NotFound:
            continue
        assert verify_certificate(fam, rect.box, cert)


@PROPERTY_SETTINGS
@given(st.one_of(base_polynomials(), three_well_polynomials()))
def test_bifurcations_match_the_count_changes_on_a_fine_grid(base):
    lams = np.linspace(0.01, 2.5, 100)
    step = lams[1] - lams[0]
    try:
        counts = [rectangle_count_for(lambda_split(base, lam)) for lam in lams]
        rows = bifurcations(base, lams[0], lams[-1])
    except SgdmcError:
        assume(False)
    for k in np.flatnonzero(np.diff(counts)):
        assert any(lams[k] - step <= lam <= lams[k + 1] + step for lam, _, _ in rows)
    for lam, before, after in rows:
        # a row with no other row near it shows on the grid as its change
        if all(other == lam or abs(other - lam) > 2 * step for other, _, _ in rows):
            k = int(np.searchsorted(lams, lam))
            if k + 1 < len(lams):
                assert (counts[k - 1], counts[k + 1]) == (before, after)


@PROPERTY_SETTINGS
@given(problems(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       st.integers(1, 9), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_sampler_blocks_match_the_whole_point_oracle(problem, where, chunk, steps, seed):
    fam, _, _ = problem
    x0 = [lo + w * (hi - lo) for (lo, hi), w in zip(fam.intervals, where)]
    with mock.patch.object(dynamics, "SAMPLE_CHUNK", chunk):
        s = sgd_sample(fam, x0, steps=steps, seed=seed, grid_n=16)
    final, hists, first, rect_steps = whole_point_sample(fam, x0, steps, seed=seed, grid_n=16)
    assert s.final_point == final
    assert all(np.array_equal(a, b) for a, b in zip(s.histograms, hists))
    assert s.first_absorbed_step == first
    assert s.rectangle_steps == rect_steps


@PROPERTY_SETTINGS
@given(problems(), st.data())
def test_escape_lengths_match_the_whole_point_oracle(problem, data):
    # the grid points walked together, and each walked alone by escape_path,
    # take the whole-point oracle's number of steps
    fam, decomp, _ = problem
    grid_n = data.draw(st.integers(2, 40 if fam.dimension == 1 else 12))
    lengths = uniform_escape_length(fam, grid_n=grid_n).lengths
    np.testing.assert_array_equal(
        lengths, whole_point_escape_lengths(fam, decomp, grid_n, _escape_direction))
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in fam.intervals]
    for idx in np.ndindex(*lengths.shape):
        point = [float(axis[k]) for axis, k in zip(axes, idx)]
        assert len(escape_path(fam, point)) == lengths[idx]
