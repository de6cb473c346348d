"""Property tests over random coercive objectives: quartics and sextics F,
split as F + lam*x and F - lam*x, in one and two dimensions, with an
admissible step and a small grid (and short sampler runs in small blocks);
the sign chart also over full-form objectives of three or four components,
the bifurcations also over three-well sextics."""

import itertools
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    absorption_system,
    brute_force_anchored_distance,
    classify_cells,
    direct_absorption,
    direct_stationary,
    held_absorption,
    lumped_axis_chain,
    whole_point_escape_lengths,
    whole_point_sample,
    zero_padded_d_tilde,
)

from sgdmc import dynamics, transfer
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
from sgdmc.errors import GridTooCoarse, NoConvergence, NotFound, SgdmcError
from sgdmc.metrics import cdf_sup, d_tilde, d_tilde_rows, half_l1, metric_config
from sgdmc.objective import (
    SeparableObjective,
    double_well,
    eta_bound,
    lambda_split,
    state_space_window,
)
from sgdmc.poly import Polynomial
from sgdmc.transfer import (
    DiscreteMeasure,
    Grid,
    basin_functions,
    invariant_measure,
    ulam_absorption,
    ulam_assemble,
    ulam_operator,
)


def dual_operator(fam, grid):
    """The dual's assembled matrix, under the name the tests below read it by
    (derandomized hypothesis draws its examples from each test's source)."""
    return transfer.dual_operator(fam, grid).matrix


def _transient_rows(matrix, config):
    """The rows of a cell chain at the transient cells, columns in cell
    order, as an absorption solve over every transient cell reads them."""
    return matrix[config.transient_cells]


def _transient_absorption(rows, grid, config, tol):
    """(BasinFunctions, solver) of transfer._indicator_absorption on rows,
    the chain's rows at the transient cells."""
    values, steps, residual, solver = transfer._indicator_absorption(
        lambda cells: rows, config, tol)
    defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
    return transfer.BasinFunctions(grid=grid, values=values, iterations=steps,
                                   residual=residual, partition_defect=defect), solver


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
def full_form_families(draw):
    """A one-dimensional map family on a full_form_component row, decomposed:
    its maps of degree 1 and 3 sit side by side in one coordinate."""
    obj = SeparableObjective(components=(draw(full_form_component()),))
    try:
        fam = MapFamily(obj, draw(st.floats(0.05, 0.95)) * eta_bound(obj))
        fam.decomposition  # the sampler needs one
    except SgdmcError:
        assume(False)
    return fam


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
@given(problems(), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_d_tilde_rows_equal_the_zero_padded_oracle(problem, rows, seed):
    # one pass over a block of differences keeps each row's own bits
    _, decomp, grid = problem
    labels = _labels(grid, decomp)
    rng = np.random.default_rng(seed)
    weights = rng.random((rows + 1, grid.ncells))
    weights /= weights.sum(axis=1, keepdims=True)
    *measures, target = weights
    scores = d_tilde_rows(weights[:-1] - target, grid.shape, metric_config(grid, decomp))
    assert scores.shape == (rows,)
    for score, w in zip(scores.tolist(), measures):
        assert score == zero_padded_d_tilde(w, target, labels, grid.shape)


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


families = st.one_of(problems().map(lambda problem: problem[0]), full_form_families())


@PROPERTY_SETTINGS
@given(families)
def test_the_state_space_box_has_one_value(fam):
    assert fam.intervals == fam.decomposition.intervals


@PROPERTY_SETTINGS
@given(families, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), st.booleans(),
       st.integers(1, 9), st.integers(2, 6), st.integers(1, 512), st.integers(1, 9),
       st.integers(0, 3), st.integers(0, 200), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([16, 4096]))
def test_sampler_blocks_match_the_whole_point_oracle(fam, where, inside, chunk, lanes, length,
                                                     lane_chunk, blocks, extra, seed, forced,
                                                     cells):
    # scalar blocks of a few steps, then up to three lane super-blocks and a
    # tail; started inside a rectangle, the chain is absorbed in the first
    # block, so the super-blocks line up with the draws.  Forced, the probe
    # lets every super-block of two or more lanes run as lanes, also where
    # they cannot join, with a burn-in of one lane chunk.  Lanes of up to 512
    # steps leave room for the 75-250 steps these families' lanes take to
    # meet, so super-blocks join, and on 4096 cells a lane's burn-in points
    # fall in other cells than the chain's, so the histograms see a burn-in
    # step counted twice
    box = fam.decomposition.rectangles[0].box if inside else fam.intervals
    x0 = [lo + w * (hi - lo) for (lo, hi), w in zip(box, where)]
    # the first scalar block holds min(chunk, length // 4) draws (at least one)
    first = min(chunk, max(1, length // 4))
    steps = first + blocks * lanes * length + extra
    constants = {"SAMPLE_CHUNK": chunk, "SAMPLE_LANES": lanes, "SAMPLE_LANE_STEPS": length,
                 "LANE_CHUNK": lane_chunk}
    with mock.patch.multiple(dynamics, **constants), mock.patch.object(
            dynamics._Chain, "_meeting_step",
            (lambda self, draws: 0) if forced else dynamics._Chain._meeting_step):
        s = sgd_sample(fam, x0, steps=steps, seed=seed, grid=Grid.regular(fam.intervals, cells))
    final, hists, first, rect_steps = whole_point_sample(fam, x0, steps, seed=seed, grid_n=cells)
    # by bits: == would equate -0.0 and 0.0
    assert [v.hex() for v in s.final_point] == [v.hex() for v in final]
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


def _metastable_problem():
    """A one-rectangle sextic problem whose block holds two wells: its
    measure spans down to 3e-22, and a power iteration stopped on a step
    change below 1e-14 lands 0.44 (CDF sup) from it."""
    obj = lambda_split(Polynomial([0.0, 0.140625, -0.5, -0.25, 0.0, 0.0, 1.0]), 0.375)
    decomp = decompose(obj, 0.0345)
    return MapFamily(obj, 0.0345), decomp, Grid.regular(decomp.intervals, 48)


@PROPERTY_SETTINGS
@given(problems())
@example(_metastable_problem())
def test_gth_matches_the_tight_iteration(problem):
    # GTH on every band (the limit lifted) against a dense direct solve in
    # extended precision, which no slow mixing stalls; the absorption
    # probabilities against the iteration at a tight stop, where it
    # converges within its cap
    fam, decomp, grid = problem
    _labels(grid, decomp)
    op = ulam_assemble(fam, grid)
    config = metric_config(grid, decomp)
    distance = cdf_sup if grid.dimension == 1 else half_l1
    with mock.patch.object(transfer, "GTH_MAX_BAND", grid.ncells):
        for cells in config.rectangle_cells:
            gth = invariant_measure(op, cells)
            if gth.iterations > 0:  # a leaky block iterates either way
                continue
            direct = np.zeros(grid.ncells)
            direct[cells] = direct_stationary(op.matrix, cells)
            assert gth.residual <= 1e-14
            assert distance(gth.measure.weights, direct) <= 1e-11
        for matrix, solve in ((op.matrix, lambda: ulam_absorption(op, config)),
                              (dual_operator(fam, grid), lambda: basin_functions(fam, grid))):
            gth = solve()
            assert gth.residual <= 1e-14
            rows = _transient_rows(matrix, config)
            with mock.patch.object(transfer, "DEFAULT_MAX_ITER", 20_000):
                tight = _converged(lambda: held_absorption(rows, grid, config, 1e-14))
            if tight is None:
                continue
            # the held iterate rises toward the fixed point, and its partition
            # defect bounds the rest of the way, cell by cell
            gap = gth.values - tight.values
            assert gap.min() >= -1e-14
            assert np.all(gap <= 1.0 - tight.values.sum(axis=0) + 1e-14)


@PROPERTY_SETTINGS
@given(problems())
def test_the_absorption_iterate_rises_at_every_step(problem):
    # R >= 0 and f >= 0, and rounding is monotone, so every step of x <- R x
    # + f from 0 is elementwise at least the one before, exactly, and the
    # iterate's sums over the rectangles stay within rounding of 1: the
    # converged iterate bounds the absorption probabilities from below
    fam, decomp, grid = problem
    _labels(grid, decomp)
    config = metric_config(grid, decomp)
    for matrix in (ulam_assemble(fam, grid).matrix, dual_operator(fam, grid)):
        r, f = absorption_system(_transient_rows(matrix, config), config)
        assert np.all(r.data >= 0.0) and np.all(f >= 0.0)
        step, x, change = transfer._absorption_step(r, f), np.zeros_like(f), np.inf
        for _ in range(2000 if f.size else 0):
            x_next, change = step(x)
            assert np.all(x_next >= x)
            assert np.all(x_next.sum(axis=0) <= 1.0 + 1e-15)
            x = x_next
            if change < 1e-15:
                break


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(st.floats(0.1, 0.38), st.floats(np.log(0.001), np.log(0.01)), st.integers(2000, 8000))
def test_long_1d_blocks_at_small_eta_have_probability_measures(lam, log_eta, n):
    # at small eta a block is thousands of cells long and its measure can
    # span past a double's range; GTH solves every narrow band all the same
    fam = MapFamily(double_well(lam), float(np.exp(log_eta)))
    grid = Grid.regular(fam.intervals, n)
    op = ulam_assemble(fam, grid)
    for cells in metric_config(grid, fam.decomposition).rectangle_cells:
        got = invariant_measure(op, cells)
        weights = got.measure.weights
        assert np.all(np.isfinite(weights)) and weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) <= 1e-12
        block = op.matrix[cells][:, cells]
        if transfer._half_bandwidth(transfer._entry_rows(block),
                                    block.indices) <= transfer.GTH_MAX_BAND:
            assert got.iterations == 0


def _converged(solve):
    """solve(), or None where it raises NoConvergence."""
    try:
        return solve()
    except NoConvergence:
        return None


@PROPERTY_SETTINGS
@given(problems(), st.integers(8, 3000))
def test_dual_blocks_are_closed(problem, n):
    # _interp_factor_1d clamps an absorbing cell's image to its block's
    # centres, so every axis's 1-d dual keeps its blocks closed, at the
    # problem's cell count and at n cells, up to rounding
    fam, decomp, grid = problem
    for j in range(grid.dimension):
        axis_fam = MapFamily(SeparableObjective(components=(fam.obj.components[j],)), fam.eta)
        for cells in (grid.shape[j], n):
            axis_grid = Grid.regular(axis_fam.intervals, cells)
            labels = _labels(axis_grid, axis_fam.decomposition)
            matrix = dual_operator(axis_fam, axis_grid)
            for t in range(labels.max() + 1):
                block = np.flatnonzero(labels == t)
                assert transfer._leakage(matrix[block][:, block]) <= 1e-15


@PROPERTY_SETTINGS
@given(problems())
def test_banded_absorption_matches_the_sparse_lu(problem):
    # the banded solve on every band (its work and fill rules lifted), on both
    # kernels, against one sparse LU solve per rectangle
    fam, decomp, grid = problem
    labels = _labels(grid, decomp)
    config = metric_config(grid, decomp)
    assume(len(decomp.rectangles) > 1 and config.transient_cells.size > 0)
    for matrix in (ulam_assemble(fam, grid).matrix, dual_operator(fam, grid)):
        rows = _transient_rows(matrix, config)
        with mock.patch.object(transfer, "BANDED_WORK_RATIO", np.inf), \
                mock.patch.object(transfer, "BANDED_FILL_RATIO", np.inf):
            basins, solver = _transient_absorption(rows, grid, config, 1e-14)
        assert solver.startswith("banded (")
        expected = direct_absorption(matrix, labels, len(decomp.rectangles))
        assert np.max(np.abs(basins.values - expected)) <= 1e-13
        assert basins.partition_defect <= 1e-13
        assert 0.0 <= basins.values.min() and basins.values.max() <= 1.0


def _axis_absorption(fam, grid, j, kernel):
    """(matrix, absorption values) of axis j's own 1-d problem, its
    components and the step on the axis's cells, for kernel "dual"
    (basin_functions) or "ulam" (ulam_absorption)."""
    axis_fam = MapFamily(SeparableObjective(components=(fam.obj.components[j],)), fam.eta)
    axis_grid = Grid((grid.edges[j],))
    if kernel == "dual":
        return dual_operator(axis_fam, axis_grid), basin_functions(axis_fam, axis_grid).values
    op = ulam_assemble(axis_fam, axis_grid)
    config = metric_config(axis_grid, axis_fam.decomposition)
    return op.matrix, ulam_absorption(op, config).values


@PROPERTY_SETTINGS
@given(problems())
def test_2d_absorption_has_the_axis_marginals_and_faces(problem):
    # each axis's cell process is the axis's own 1-d chain, and where its
    # absorbing blocks are closed a coordinate that enters one stays: summed
    # over axis 2's rectangles the 2-d absorption is axis 1's (marginals),
    # and on a cell with an absorbing axis rectangle (a, b) takes g1_a g2_b,
    # 1 or 0 on that axis (faces); the solve by faces and the joint solve
    # over every transient cell both hold them
    fam, decomp, grid = problem
    assume(grid.dimension == 2)
    _labels(grid, decomp)
    config = metric_config(grid, decomp)
    joint = np.logical_and.outer(*(labels < 0 for labels in config.axis_labels))
    op = ulam_assemble(fam, grid)
    solves = {"dual": (dual_operator(fam, grid), lambda: basin_functions(fam, grid),
                       transfer.BASIN_TOL),
              "ulam": (op.matrix, lambda: ulam_absorption(op, config),
                       transfer.ULAM_ABSORPTION_TOL)}
    for kernel, (matrix, solve, tol) in solves.items():
        try:
            axes = [_axis_absorption(fam, grid, j, kernel) for j in range(2)]
        except SgdmcError:
            continue
        blocks = [(chain, np.flatnonzero(labels == t))
                  for (chain, _), labels in zip(axes, config.axis_labels)
                  for t in range(labels.max() + 1)]
        if any(transfer._leakage(chain[cells][:, cells]) > transfer.LEAKAGE_WARN
               for chain, cells in blocks):
            continue
        g1, g2 = (values for _, values in axes)
        faces = g1[:, None, :, None] * g2[None, :, None, :]
        shape = (len(g1), len(g2)) + grid.shape
        rows = _transient_rows(matrix, config)
        joint_solve = _transient_absorption(rows, grid, config, tol)[0]
        for basins in (solve(), joint_solve):
            values = basins.values.reshape(shape)
            assert np.max(np.abs(values.sum(axis=1) - g1[:, :, None])) <= 1e-12
            assert np.max(np.abs(values.sum(axis=0) - g2[:, None, :])) <= 1e-12
            assert np.max(np.abs(values - faces)[:, :, ~joint], initial=0.0) <= 1e-12
            assert 0.0 <= values.min() and values.max() <= 1.0 + 1e-15


def _same_bits(got, want) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 114, 120, 300]))
def test_product_sets_assemble_the_bits_of_the_whole_operator(problem, cells_per_axis):
    # separability makes every product set of cells a Kronecker average of
    # slices of the 1-d factors: each rectangle's block and the rows of the
    # cells transient on every axis and of each axis's slab, of the Ulam
    # operator and of the dual, assembled alone have the bits of the same
    # slice of the whole matrix, and so do the slices once it is assembled
    fam, decomp, grid = problem
    if cells_per_axis is not None:
        grid = Grid.regular(decomp.intervals, cells_per_axis)
    _labels(grid, decomp)
    config = metric_config(grid, decomp)
    transient = tuple(np.flatnonzero(labels < 0) for labels in config.axis_labels)
    slabs = [tuple(np.arange(n) if k == j else np.zeros(1, dtype=int)
                   for k, n in enumerate(grid.shape)) for j in range(grid.dimension)]
    for make in (ulam_operator, transfer.dual_operator):
        op = make(fam, grid)

        def pieces():
            return ([op.block(cells) for cells in config.rectangle_cells]
                    + [op.rows(sets) for sets in (transient, *slabs)])

        alone = pieces()
        matrix = op.matrix
        cells = [transfer._product_cells(sets, grid.shape) for sets in (transient, *slabs)]
        want = ([matrix[c][:, c] for c in config.rectangle_cells] + [matrix[c] for c in cells])
        for got, expected in zip(alone + pieces(), want * 2):
            _same_bits(got, expected)


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([None, 120]))
def test_marginals_are_the_lumped_axis_chains(problem, cells_per_axis):
    # an axis's marginal, the average of its factors alone, is the whole
    # chain lumped over the other axis: exact but for rounding, since the
    # other factors' rows sum to 1 only to rounding
    fam, decomp, grid = problem
    assume(grid.dimension == 2)
    if cells_per_axis is not None:
        grid = Grid.regular(decomp.intervals, cells_per_axis)
    _labels(grid, decomp)
    for make in (ulam_operator, transfer.dual_operator):
        op = make(fam, grid)
        marginals = [op.marginal(j) for j in range(grid.dimension)]
        for j, got in enumerate(marginals):
            want = lumped_axis_chain(op.matrix, grid.shape, j)
            assert got.shape == want.shape == (grid.shape[j],) * 2
            assert np.max(np.abs((got - want).data), initial=0.0) <= 1e-15


@PROPERTY_SETTINGS
@given(problems())
def test_faces_match_the_sparse_lu(problem):
    # the solve by faces solves (k1 - 1)(k2 - 1) of the k1 k2 functions on
    # the cells transient on both axes and derives the rest from the axes'
    # marginals: on every transient cell it lies within the kernel's stop
    # bound of one sparse LU solve per rectangle, and no further from it than
    # the iteration over every transient cell, where that converges within
    # its cap; its values lie in [0, 1], and the partition of unity holds to
    # rounding.  (The Ulam bound is 1e-11: on the slowest draws the joint
    # iteration's stop at a 1e-14 change leaves 1.0e-12.)
    fam, decomp, grid = problem
    assume(grid.dimension == 2)
    labels = _labels(grid, decomp)
    config = metric_config(grid, decomp)
    cells = config.transient_cells
    kernels = ((transfer.dual_operator(fam, grid), transfer.BASIN_TOL, 1e-10),
               (ulam_operator(fam, grid), transfer.ULAM_ABSORPTION_TOL, 1e-11))
    for op, tol, bound in kernels:
        faces = transfer._face_absorption(op, config, tol)
        matrix = op.matrix
        if faces is None:  # an axis's blocks leak
            continue
        got = faces[0]
        assert 0.0 <= got.min() and got.max() <= 1.0
        assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-13
        exact = direct_absorption(matrix, labels, len(decomp.rectangles))[:, cells]
        error = np.max(np.abs(got[:, cells] - exact), initial=0.0)
        assert error <= bound
        rows = _transient_rows(matrix, config)
        with mock.patch.object(transfer, "DEFAULT_MAX_ITER", 20_000):
            want = _converged(lambda: held_absorption(rows, grid, config, tol))
        if want is not None:
            assert error <= max(np.max(np.abs(want.values[:, cells] - exact), initial=0.0), 1e-13)
