import logging
import os
import re
import subprocess
import sys
from functools import partial, reduce
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    absorption_system,
    classify_cells,
    direct_absorption,
    double_well_roots,
    held_absorption,
    lumped_axis_chain,
    masked_reset_absorption,
    overlap_factor_1d,
    per_step_decay_log,
    transient_block_absorption,
)

import sgdmc
from sgdmc import transfer
from sgdmc.absorbing import decompose
from sgdmc.dynamics import MapFamily, splitting_certificate_multi
from sgdmc.errors import DimensionMismatch, GridMismatch, NoConvergence
from sgdmc.metrics import cdf_sup, d_F, label_blocks, metric_config
from sgdmc.objective import (
    SeparableObjective,
    bernoulli_pair,
    double_well,
    eighth_order,
    eta_bound,
    lambda_split,
)
from sgdmc.poly import Polynomial
from sgdmc.transfer import (
    BASIN_TOL,
    ULAM_ABSORPTION_TOL,
    DiscreteMeasure,
    Grid,
    _map_factor_1d,
    basin_functions,
    dual_operator,
    dual_residual,
    invariant_measure,
    limit_mixture,
    mixture_coefficients,
    push_forward,
    ulam_absorption,
    ulam_assemble,
    ulam_operator,
)


def _transient_rows(matrix, blocks) -> sp.csr_matrix:
    """The rows of a cell chain at the transient cells, columns in cell
    order, as an absorption solve over every transient cell reads them."""
    return matrix[blocks.transient_cells]


def _transient_absorption(rows, grid: Grid, blocks, tol: float):
    """(BasinFunctions, solver) of transfer._indicator_absorption on rows,
    the chain's rows at the transient cells."""
    values, steps, residual, solver = transfer._indicator_absorption(
        lambda cells: rows, blocks, tol)
    defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
    return transfer.BasinFunctions(grid=grid, values=values, iterations=steps,
                                   residual=residual, partition_defect=defect), solver


def test_grid_basics():
    g = Grid.regular([(-1.0, 1.0)], 4)
    assert g.shape == (4,)
    assert g.ncells == 4
    assert np.allclose(g.centers[0], [-0.75, -0.25, 0.25, 0.75])
    g2 = Grid.regular([(-1.0, 1.0), (0.0, 1.0)], [4, 2])
    assert g2.shape == (4, 2)
    assert g2.ncells == 8


def test_grid_classify_cover_rule(dw02_setup):
    obj, eta, decomp, fam = dw02_setup
    g = Grid.regular(decomp.intervals, 100)
    labels = g.classify(decomp)
    # cells intersecting an interval with positive length belong to it
    for m, t in enumerate(decomp.per_dimension[0]):
        cells = np.flatnonzero(labels == m)
        lo = g.edges[0][cells[0]]
        hi = g.edges[0][cells[-1] + 1]
        width = g.edges[0][1] - g.edges[0][0]
        assert lo <= t.l <= lo + width + 1e-12
        assert hi - width - 1e-12 <= t.r <= hi
    assert np.any(labels == -1)


def _double_well_product(dimension):
    """The double well (lambda = 0.38) in every coordinate."""
    return SeparableObjective(components=(double_well(0.38).components[0],) * dimension)


@pytest.mark.parametrize("obj,eta,n", [
    (double_well(0.38), 0.33, 12),
    (double_well(0.38), 0.33, 1000),
    (double_well(0.2), 0.3, 100),
    (_double_well_product(2), 0.33, 12),
    (_double_well_product(2), 0.33, 40),
], ids=["dw038-12", "dw038-1000", "dw02-100", "dw2d-12", "dw2d-40"])
def test_grid_classify_matches_per_cell_oracle(obj, eta, n):
    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    labels = grid.classify(decomp)
    np.testing.assert_array_equal(labels, classify_cells(grid, decomp))
    assert set(labels.tolist()) == {-1, *range(len(decomp.rectangles))}


@pytest.mark.parametrize("dimension", [1, 2])
def test_grid_classify_rejects_cell_over_two_intervals(dimension):
    # one cell in the first dimension covers both wells
    decomp = decompose(_double_well_product(dimension), 0.33)
    grid = Grid.regular(decomp.intervals, [1, 6][:dimension])
    with pytest.raises(ValueError, match="two absorbing intervals"):
        grid.classify(decomp)
    with pytest.raises(ValueError):
        classify_cells(grid, decomp)


def test_an_interval_owns_the_cells_between_its_edges():
    # edges fall exactly on both wells' l and r, one cell lies below the
    # first, and one cell spans the gap, touching both wells: a cell that
    # only touches an interval stays transient, in the labels (the gap cell
    # raises no GridTooCoarse), the per-cell oracle and the dual's clamp
    # alike, which closes each well's block and leaves the transient rows
    # as they were unclamped
    fam = MapFamily(double_well(0.38), 0.33)
    first, second = fam.decomposition.per_dimension[0]
    edges = np.concatenate(([first.l - 0.1], np.linspace(first.l, first.r, 6),
                            np.linspace(second.l, second.r, 6)))
    grid = Grid((edges,))
    want = np.array([-1] + [0] * 5 + [-1] + [1] * 5)
    [labels] = grid.axis_labels(fam.decomposition)
    np.testing.assert_array_equal(labels, want)
    np.testing.assert_array_equal(classify_cells(grid, fam.decomposition), want)
    dual, bare = dual_operator(fam, grid).matrix, _unclamped_dual(fam, grid)
    for t in (0, 1):
        cells = np.flatnonzero(want == t)
        assert transfer._leakage(dual[cells][:, cells]) <= 1e-15
    transient = np.flatnonzero(want < 0)
    assert (dual[transient] != bare[transient]).nnz == 0


def test_ulam_bernoulli_two_cells(bernoulli_setup):
    obj, eta, decomp, fam = bernoulli_setup
    g = Grid.regular(decomp.intervals, 2)
    op = ulam_assemble(fam, g)
    dense = op.matrix.toarray()
    # each map sends each half entirely into one half
    assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]])


def test_ulam_identity_at_zero_step(bernoulli_setup):
    # the smallest admissible steps leave every cell where it is
    obj, _, decomp, _ = bernoulli_setup
    fam0 = MapFamily(obj, 1e-300)
    g = Grid.regular(decomp.intervals, 16)
    op = ulam_assemble(fam0, g)
    assert np.abs(op.matrix.toarray() - np.eye(16)).max() <= 1e-299


def test_ulam_rows_stochastic():
    obj = double_well(0.55)
    fam = MapFamily(obj, 0.1)
    decomp = decompose(obj, 0.1)
    g = Grid.regular(decomp.intervals, 500)
    op = ulam_assemble(fam, g)
    assert op.row_sum_error < 1e-12
    assert op.matrix.min() >= 0.0


@pytest.mark.parametrize("lam,eta,n", [
    (0.38, 0.33, 10), (0.38, 0.33, 1000), (0.38, 0.33, 10_000),
    (0.38, 0.01, 4000), (0.2, 0.3, 500), (0.55, 0.2, 300),
])
@pytest.mark.parametrize("narrow", [False, True], ids=["state-space", "narrow"])
def test_map_factor_matches_per_cell_oracle(lam, eta, n, narrow):
    fam = MapFamily(double_well(lam), eta)
    if narrow:
        # images leave the grid: partly clipped and wholly outside cells
        edges = np.linspace(-0.8, 0.8, n + 1)
    else:
        edges = Grid.regular(fam.decomposition.intervals, n).edges[0]
    for i in (1, 2):
        got = _map_factor_1d(fam, i, 0, edges)
        want = overlap_factor_1d(fam, i, 0, edges)
        if narrow:
            img = fam.phi[i - 1][0](edges)
            assert np.any((img < edges[0]) | (img > edges[-1]))
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("half_width", [0.045, 0.06])
def test_map_factor_clips_one_cell_on_both_sides(half_width):
    # one cell around the unstable fixed point of map 1, which expands it
    # past both grid ends: both corrections land on one entry, and at these
    # widths adding them in the other order changes its last bit
    fam = MapFamily(double_well(0.38), 0.33)
    c = -double_well_roots(0.38)[1]
    edges = np.array([c - half_width, c + half_width])
    img = fam.phi[0][0](edges)
    assert img[0] < edges[0] and img[1] > edges[1]
    got, want = _map_factor_1d(fam, 1, 0, edges), overlap_factor_1d(fam, 1, 0, edges)
    assert got.data.tobytes() == want.data.tobytes()


def test_push_forward_conserves_mass(dw038_setup, rng):
    _, _, _, _, grid, op = dw038_setup
    w = rng.uniform(0, 1, grid.ncells)
    mu = DiscreteMeasure(grid, w / w.sum())
    out = push_forward(op, mu)
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out.weights >= 0)


def test_push_forward_rejects_measure_on_other_grid(dw038_setup):
    # the same condition, and the same error, as in mixture_coefficients
    _, _, decomp, _, _, op = dw038_setup
    mu = DiscreteMeasure.uniform(Grid.regular(decomp.intervals, 999))
    with pytest.raises(GridMismatch, match="operator and measure grids differ"):
        push_forward(op, mu)


def test_push_forward_point_mass_stays_in_block(dw038_setup):
    _, _, decomp, _, grid, op = dw038_setup
    labels = grid.classify(decomp)
    cells = np.flatnonzero(labels == 0)
    mu = DiscreteMeasure(grid, np.where(
        np.arange(grid.ncells) == cells[len(cells) // 2], 1.0, 0.0))
    out = mu
    for _ in range(5):
        out = push_forward(op, out)
    assert out.weights[labels != 0].sum() == 0.0


def test_push_forward_transient_mass_decreases(dw02_setup):
    obj, eta, decomp, fam = dw02_setup
    grid = Grid.regular(decomp.intervals, 400)
    op = ulam_assemble(fam, grid)
    labels = grid.classify(decomp)
    mu = DiscreteMeasure.uniform(grid)
    pushed = push_forward(op, mu)
    assert pushed.weights[labels == -1].sum() < mu.weights[labels == -1].sum()


def test_invariant_bernoulli_is_uniform(bernoulli_setup):
    obj, eta, decomp, fam = bernoulli_setup
    n = 2000
    grid = Grid.regular(decomp.intervals, n)
    op = ulam_assemble(fam, grid)
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    res = invariant_measure(op, cells)
    assert res.residual < 1e-10
    uniform = DiscreteMeasure.uniform(grid)
    assert d_F(res.measure, uniform) <= 2.0 / n


def test_invariant_residual_contract():
    lam, eta = 2.0, 0.0698
    obj = double_well(lam)
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(decomp.intervals, 800)
    op = ulam_assemble(fam, grid)
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    res = invariant_measure(op, cells, tol=1e-10)
    pushed = push_forward(op, res.measure)
    assert d_F(pushed, res.measure) <= 1e-8
    assert res.measure.weights[np.setdiff1d(np.arange(grid.ncells), cells)].sum() == 0


def test_invariant_pair_mirror_symmetric(dw038_setup):
    _, _, decomp, _, grid, op = dw038_setup
    labels = grid.classify(decomp)
    m0 = invariant_measure(op, np.flatnonzero(labels == 0)).measure
    m1 = invariant_measure(op, np.flatnonzero(labels == 1)).measure
    flipped = DiscreteMeasure(grid, m1.weights[::-1].copy())
    assert d_F(m0, flipped) <= 2.0 / grid.ncells


def test_invariant_no_convergence_raises(dw038_setup, monkeypatch):
    _, _, decomp, _, grid, op = dw038_setup
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    monkeypatch.setattr(sgdmc.transfer, "DEFAULT_MAX_ITER", 3)
    with pytest.raises(NoConvergence, match="^no convergence after 3 iterations"):
        invariant_measure(op, cells, tol=1e-16)


def test_block_leakage_cover_blocks(dw02_setup):
    obj, eta, decomp, fam = dw02_setup
    grid = Grid.regular(decomp.intervals, 1000)
    op = ulam_assemble(fam, grid)
    labels = grid.classify(decomp)
    for m in range(2):
        cells = np.flatnonzero(labels == m)
        assert transfer._leakage(op.matrix[cells][:, cells]) <= 1e-15


def test_basins_single_rectangle_constant_one():
    obj = double_well(0.55)
    eta = 0.1
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(decomp.intervals, 200)
    basins = basin_functions(fam, grid, tol=1e-12)
    assert np.allclose(basins.values, 1.0, atol=1e-9)


def test_basins_partition_and_pinning(dw038_setup):
    _, _, decomp, fam, grid, _ = dw038_setup
    basins = basin_functions(fam, grid, tol=1e-11)
    labels = grid.classify(decomp)
    assert basins.partition_defect <= 1e-6
    assert np.max(np.abs(basins.values[0, labels == 0] - 1.0)) <= 1e-9
    assert np.max(np.abs(basins.values[0, labels == 1])) <= 1e-9
    # mirror symmetry of the two basins on the symmetric splitting
    assert np.max(np.abs(basins.values[0] - basins.values[1][::-1])) <= 1e-6
    assert dual_residual(fam, basins) <= 1e-9


def test_mixture_coefficients_cases(dw038_setup):
    _, _, decomp, fam, grid, _ = dw038_setup
    basins = basin_functions(fam, grid, tol=1e-11)
    labels = grid.classify(decomp)
    in_t1 = np.where(labels == 0, 1.0, 0.0)
    mu_t1 = DiscreteMeasure(grid, in_t1 / in_t1.sum())
    c = mixture_coefficients(basins, mu_t1)
    assert c[0] == pytest.approx(1.0, abs=1e-9)
    assert c[1] == pytest.approx(0.0, abs=1e-9)

    uniform = DiscreteMeasure.uniform(grid)
    c = mixture_coefficients(basins, uniform)
    assert c[0] == pytest.approx(0.5, abs=1e-6)
    assert c[1] == pytest.approx(0.5, abs=1e-6)
    assert c.sum() == pytest.approx(1.0, abs=1e-9)

    cell = int(np.flatnonzero(labels == -1)[3])
    delta = DiscreteMeasure(grid, np.where(np.arange(grid.ncells) == cell, 1.0, 0.0))
    c = mixture_coefficients(basins, delta)
    assert c[0] == pytest.approx(basins.values[0, cell], abs=1e-15)


def test_ulam_absorption_matches_chain_limit(dw038_setup):
    _, _, decomp, _, grid, op = dw038_setup
    absorption = ulam_absorption(op, metric_config(grid, decomp))
    assert absorption.partition_defect <= 1e-9
    labels = grid.classify(decomp)
    mu = DiscreteMeasure.uniform(grid)
    c = mixture_coefficients(absorption, mu)
    for _ in range(300):
        mu = push_forward(op, mu)
    for m in range(2):
        assert mu.weights[labels == m].sum() == pytest.approx(c[m], abs=1e-9)


def _mixed_2d_objective():
    """Two rectangles from the first coordinate, one interval in the second."""
    return SeparableObjective(
        components=(double_well(0.2).components[0], double_well(2.0).components[0])
    )


@pytest.mark.parametrize("obj,eta,n,leaky", [
    (double_well(0.38), 0.33, 1000, False),
    (double_well(0.38), 0.01, 200, False),
    # at 10 cells the straddling absorbing cells send 1.2% of their mass out
    (double_well(0.38), 0.33, 10, True),
    (_mixed_2d_objective(), 0.15, 80, False),
], ids=["dw038", "dw038-small-eta", "dw038-leaky-coarse", "mixed-2d"])
def test_ulam_absorption_matches_direct_solve(obj, eta, n, leaky):
    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    op = ulam_assemble(MapFamily(obj, eta), grid)
    labels = grid.classify(decomp)
    cells = np.flatnonzero(labels >= 0)
    assert (transfer._leakage(op.matrix[cells][:, cells]) > 1e-3) == leaky
    config = metric_config(grid, decomp)
    expected = direct_absorption(op.matrix, labels, len(decomp.rectangles))
    # the iteration, called directly: ulam_absorption takes GTH on narrow bands
    absorption = held_absorption(_transient_rows(op.matrix, config), grid, config,
                                 ULAM_ABSORPTION_TOL)
    assert np.max(np.abs(absorption.values - expected)) <= 1e-11
    assert absorption.partition_defect <= 1e-9
    assert absorption.iterations > 0
    assert np.max(np.abs(ulam_absorption(op, config).values - expected)) <= 1e-11


def test_absorption_iteration_matches_multi_vector_product(dw038_setup):
    # one single-vector product of R per rectangle gives the bits of one
    # multi-vector product x <- R x + f on a (b, k) array, iterated to
    # convergence
    _, _, decomp, fam, grid, _ = dw038_setup
    matrix = dual_operator(fam, grid).matrix
    labels = grid.classify(decomp)
    config = metric_config(grid, decomp)
    rows = _transient_rows(matrix, config)
    basins = held_absorption(rows, grid, config, 1e-11)
    r, f = absorption_system(rows, config)
    x = np.zeros(f.shape[::-1])
    for _ in range(basins.iterations):
        x = r @ x + f.T
    g = np.stack([(labels == m).astype(float) for m in range(2)])
    g[:, config.transient_cells] = x.T
    assert basins.iterations > 1
    assert basins.values.tobytes() == g.tobytes()
    # the same layout too, so BLAS products with the values keep their bits
    w = DiscreteMeasure.uniform(grid).weights
    assert (basins.values @ w).tobytes() == (np.asfortranarray(g) @ w).tobytes()


# the direct solve's shapes: w^3 <= BANDED_WORK_RATIO b, w the half-bandwidth
# among the b transient cells
@pytest.mark.parametrize("obj,eta,n", [
    (double_well(0.38), 0.01, 4000),
    (double_well(0.38), 0.01, 200),
    (double_well(0.38), 0.33, 200),
    # at 10 cells the straddling absorbing cells send 1.2% of their mass out
    (double_well(0.38), 0.33, 10),
    (eighth_order(0.5), 0.02, 500),
], ids=["dw-eta-0.01", "dw-eta-0.01-coarse", "dw-eta-0.33", "dw-leaky-coarse", "eighth-order"])
@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_gth_absorption_matches_direct_solve(obj, eta, n, kernel):
    fam = MapFamily(obj, eta)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    if kernel == "ulam":
        op = ulam_assemble(fam, grid)
        got, matrix = ulam_absorption(op, config), op.matrix
    else:
        got, matrix = basin_functions(fam, grid), dual_operator(fam, grid).matrix
    assert got.iterations == 0
    expected = direct_absorption(matrix, grid.classify(fam.decomposition),
                                 len(fam.decomposition.rectangles))
    assert np.max(np.abs(got.values - expected)) <= 1e-13
    assert got.partition_defect <= 1e-13
    # one more step of the iteration would change the values by no more than rounding
    assert got.residual <= 1e-14
    assert got.values.flags.f_contiguous


@pytest.mark.parametrize("eta", [0.01, 0.003])
def test_gth_invariant_matches_a_tight_iteration(monkeypatch, eta):
    # at eta = 0.01 the blocks mix slowly, so the default stop left the power
    # iteration 4.9e-9 off; GTH lands within rounding of a 1e-15 stop, also
    # at eta = 0.003, where a block's measure spans past a double's range
    fam = MapFamily(double_well(0.38), eta)
    grid = Grid.regular(fam.intervals, 4000)
    op = ulam_assemble(fam, grid)
    for cells in metric_config(grid, fam.decomposition).rectangle_cells:
        got = invariant_measure(op, cells)
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "GTH_MAX_BAND", -1)
            tight = invariant_measure(op, cells, tol=1e-15)
        assert (got.iterations, tight.iterations > 0) == (0, True)
        assert d_F(got.measure, tight.measure) <= 1e-12
        assert got.residual <= 1e-14


@pytest.mark.parametrize("solve", ["gth-invariant", "banded-basins", "banded-ulam"])
def test_a_direct_solve_reports_one_more_step_as_its_residual(solve):
    # at eta = 0.01, N = 4000 GTH solves each invariant measure and the
    # banded solve each absorption system: each reports as its residual,
    # bit for bit, the change of one more step of its iteration, here
    # recomputed from the whole matrix
    fam = MapFamily(double_well(0.38), 0.01)
    grid = Grid.regular(fam.intervals, 4000)
    config = metric_config(grid, fam.decomposition)
    op = dual_operator(fam, grid) if solve == "banded-basins" else ulam_assemble(fam, grid)
    if solve == "gth-invariant":
        for cells in config.rectangle_cells:
            got = invariant_measure(op, cells)
            w = got.measure.weights[cells]
            w_next = op.matrix[cells][:, cells].T @ w
            w_next /= w_next.sum()
            assert got.iterations == 0 and got.residual == cdf_sup(w_next, w)
    else:
        if solve == "banded-basins":
            got = basin_functions(fam, grid)
        else:
            got = ulam_absorption(op, config)
        cells = config.transient_cells
        rows = op.matrix[cells]
        assert got.iterations == 0
        assert got.residual == max(float(np.max(np.abs(rows @ v - v[cells]))) for v in got.values)


def _birth_death(n: int, up: float) -> sp.csr_matrix:
    """The chain on n states that steps up with probability up and down
    otherwise, staying put where it cannot move."""
    diagonal = np.zeros(n)
    diagonal[0], diagonal[-1] = 1.0 - up, up
    return sp.diags([np.full(n - 1, 1.0 - up), diagonal, np.full(n - 1, up)], [-1, 0, 1],
                    format="csr")


def test_gth_stationary_rescales_a_measure_wider_than_a_double():
    # pushed toward state 0 at 9 to 1, pi_k is proportional to 9^-k: from
    # pi = 1 at the last of 400 states the back-substitution passes 1e308,
    # which left NaN; rescaled by exact powers of two it lands within
    # rounding of the closed form, the states below 1e-300 aside
    n = 400
    got = transfer._gth_stationary(_birth_death(n, 0.1), 1)
    k = np.arange(n)
    expected = (8 / 9) * 9.0 ** -k / (1 - 9.0 ** -n)
    assert np.all(np.isfinite(got)) and got.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-300)


def test_gth_stationary_declines_a_non_finite_measure(monkeypatch):
    # with the rescale off the measure overflows: None, so the power
    # iteration runs instead of a NaN measure being returned
    monkeypatch.setattr(transfer, "GTH_RESCALE", np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assert transfer._gth_stationary(_birth_death(400, 0.1), 1) is None


# the INFO line of a 1-d absorption solve, and of a 2-d one by faces, whose
# joint solve (group 6) reads as a 1-d line does; group 7 is the joint steps
BANDED = r"\w+: banded \(n=\d+, w=(\d+), m=(\d+)\)"
# basin_functions' line of what it assembled, logged after its solver line
ASSEMBLED = r"basin_functions: (\d+) row block\(s\) assembled \(nnz=(\d+)\)"


def _solver_records(caplog) -> list:
    """The log records, without basin_functions' line of what it assembled."""
    return [r for r in caplog.records if not re.fullmatch(ASSEMBLED, r.getMessage())]


FACES = (r"\w+: faces \(axis solvers (\w+)/(\w+), joint n=(\d+), (\d+) of (\d+) solved: "
         r"(banded \(n=\d+, w=\d+, m=\d+\)|iteration \((\d+) steps\)|none)\)")


@pytest.mark.parametrize("obj,eta,n,invariant,absorption", [
    (double_well(0.38), 0.01, 4000, "gth", "banded"),
    (double_well(0.38), 0.33, 10_000, "iteration", "iteration"),
    (_double_well_product(2), 0.33, 300, "iteration", "faces"),
], ids=["dw1d-small-eta", "dw1d-fine", "dw2d-grid"])
def test_solver_follows_the_band(monkeypatch, caplog, obj, eta, n, invariant, absorption):
    # the benchmark's shapes: at eta = 0.01 every invariant solve takes GTH
    # and both absorption solves the banded solve; at the wide bands of
    # dw1d-fine each iterates, here for one step; dw2d-grid's invariants
    # iterate, and its absorption takes the faces, with banded axis solves
    # and an iterated joint solve (run in full: it logs once it is done)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    op = ulam_assemble(fam, grid)
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "DEFAULT_MAX_ITER", 1)
        for cells in config.rectangle_cells:
            caplog.clear()
            if invariant == "iteration":
                with pytest.raises(NoConvergence):
                    invariant_measure(op, cells)
                continue
            with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
                assert invariant_measure(op, cells).iterations == 0
            [record] = caplog.records
            assert re.fullmatch(r"invariant_measure: gth \(n=\d+, w=14\)", record.getMessage())
        if absorption == "iteration":
            for solve in (partial(ulam_absorption, op, config), partial(basin_functions, fam, grid)):
                with pytest.raises(NoConvergence):
                    solve()
            return
    for solve in (partial(ulam_absorption, op, config), partial(basin_functions, fam, grid)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
            got = solve()
        [record] = _solver_records(caplog)
        if absorption == "banded":
            assert got.iterations == 0
            assert re.fullmatch(BANDED, record.getMessage()).groups() == ("14", "16")
        else:
            found = re.fullmatch(FACES, record.getMessage())
            assert found.groups()[:2] == ("banded", "banded")
            assert found.groups()[3:5] == ("1", "4")
            assert int(found[7]) == got.iterations > 0


def _product_double_well():
    comp = double_well(0.38).components[0]
    return SeparableObjective(components=(comp, comp))


@pytest.mark.parametrize("obj,eta,n,rectangles,transient", [
    (double_well(0.38), 0.33, 1000, 2, True),
    (double_well(0.38), 0.01, 600, 2, True),
    (_product_double_well(), 0.33, 40, 4, True),
    # one rectangle at the left end, transient cells to its right
    (lambda_split(Polynomial([0.0, 0.3, -0.5, 0.0, 0.25]), 0.5), 0.23, 200, 1, True),
    (bernoulli_pair(), 0.25, 50, 1, False),
], ids=["dw-eta-0.33", "dw-eta-0.01", "dw-product-2d", "one-rectangle", "no-transient"])
@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_absorption_kernel_matches_masked_reset_oracle(obj, eta, n, rectangles, transient,
                                                       kernel):
    # the kernel gives the bits, layout and counts of x <- R x + f built from
    # the whole matrix, and within rounding the values and the counts of the
    # loop over every row with the absorbing cells reset after each product;
    # one rectangle absorbs every path, so its values are exact ones, not
    # iterated
    fam = MapFamily(obj, eta)
    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    config = metric_config(grid, decomp)
    assert len(decomp.rectangles) == rectangles
    assert (config.transient_cells.size > 0) == transient
    if kernel == "ulam":
        op = ulam_assemble(fam, grid)
        got = ulam_absorption(op, config)
        matrix, tol = op.matrix, ULAM_ABSORPTION_TOL
    else:
        got = basin_functions(fam, grid)
        matrix, tol = dual_operator(fam, grid).matrix, BASIN_TOL
    if eta == 0.01:
        assert got.iterations == 0
    if eta == 0.01 or grid.dimension == 2:
        # the public call takes GTH on this narrow band, and the faces on this
        # closed 2-d grid (test_face_absorption_matches_the_joint_kernel):
        # pin the kernel itself
        got = held_absorption(_transient_rows(matrix, config), grid, config, tol)
    assert got.values.flags.f_contiguous
    if rectangles == 1:
        assert got.values.tobytes() == np.ones((1, grid.ncells)).tobytes()
        assert (got.iterations, got.residual, got.partition_defect) == (0, 0.0, 0.0)
        return
    want = transient_block_absorption(matrix, grid, config, tol)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.strides == want.values.strides
    assert (got.iterations, got.residual, got.partition_defect) == (
        want.iterations, want.residual, want.partition_defect)
    reset = masked_reset_absorption(matrix, grid, config, tol)
    assert np.max(np.abs(got.values - reset.values)) <= 1e-15
    assert got.iterations == reset.iterations


# one rectangle beside a metastable transient well, where every absorption
# probability is 1: the iteration stopped with values near 0 over the well
# (F = 0.15x - 0.5x^2 + 0.1x^3 + 0.25x^4 split with lambda 0.2, eta = 0.3/K, at
# 200 cells), or ran on to its cap (the quartic, a property-test draw, at 60
# cells; the cap is lowered so that a run that iterates fails fast)
@pytest.mark.parametrize("base,lam,eta,n", [
    (Polynomial([0.0, 0.15, -0.5, 0.1, 0.25]), 0.2, None, 200),
    (Polynomial([0.0, 0.0, -0.6227985087468401, -0.24410836861904522, 0.7926207427614061]),
     0.31240005889122724, 0.18770969786532948, 60),
], ids=["metastable-well", "stalling-quartic"])
@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_one_rectangle_absorbs_every_cell(monkeypatch, caplog, base, lam, eta, n, kernel):
    # the INFO line says that nothing was solved, and no row of the chain is
    # assembled for it
    monkeypatch.setattr(transfer, "DEFAULT_MAX_ITER", 10**4)
    obj = lambda_split(base, lam)
    fam = MapFamily(obj, 0.3 * eta_bound(obj) if eta is None else eta)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    assert len(fam.decomposition.rectangles) == 1 and config.transient_cells.size > 0
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        if kernel == "ulam":
            op = ulam_operator(fam, grid)
            got = ulam_absorption(op, config)
            assert op.nnz == []
        else:
            got = basin_functions(fam, grid)
    assert _solver_records(caplog)[-1].getMessage().endswith(": ones")
    if kernel == "dual":
        assert caplog.records[-1].getMessage() == (
            "basin_functions: 0 row block(s) assembled (nnz=0)")
    assert got.values.tobytes() == np.ones((1, n)).tobytes() and got.values.flags.f_contiguous
    assert (got.iterations, got.residual, got.partition_defect) == (0, 0, 0.0)


@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_one_rectangle_2d_goes_by_faces_to_ones(caplog, kernel):
    # the metastable well on both axes, whose blocks are closed: the faces
    # take it, each axis with one rectangle, and give the same exact ones
    # with nothing solved, the joint cells included
    one = lambda_split(Polynomial([0.0, 0.15, -0.5, 0.1, 0.25]), 0.2).components[0]
    obj = SeparableObjective(components=(one, one))
    fam = MapFamily(obj, 0.3 * eta_bound(obj))
    grid = Grid.regular(fam.intervals, 60)
    config = metric_config(grid, fam.decomposition)
    joint = np.logical_and.outer(*(labels < 0 for labels in config.axis_labels))
    assert len(fam.decomposition.rectangles) == 1 and joint.sum() > 0
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        if kernel == "ulam":
            got = ulam_absorption(ulam_assemble(fam, grid), config)
        else:
            got = basin_functions(fam, grid)
    [record] = _solver_records(caplog)
    found = re.fullmatch(FACES, record.getMessage())
    assert found.groups()[:6] == ("ones", "ones", str(joint.sum()), "0", "1", "none")
    assert got.values.tobytes() == np.ones((1, grid.ncells)).tobytes()
    assert got.values.flags.f_contiguous
    assert (got.iterations, got.residual, got.partition_defect) == (0, 0.0, 0.0)


def test_limit_mixture_classify_calls(dw038_setup, monkeypatch):
    # one labelling serves the metric, the invariant cells and ulam_absorption
    _, _, decomp, _, grid, op = dw038_setup
    calls = []
    classify = Grid.classify
    monkeypatch.setattr(Grid, "classify", lambda self, d: calls.append(d) or classify(self, d))
    limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=5)
    assert len(calls) == 1


def test_limit_mixture_fixed_point(dw038_setup):
    _, _, decomp, _, grid, op = dw038_setup
    res0 = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=60)
    res = limit_mixture(op, decomp, res0.mixture, k_max=25)
    assert np.max(res.decay_log) <= 1e-7


def test_limit_mixture_decays(dw02_setup):
    obj, eta, decomp, fam = dw02_setup
    grid = Grid.regular(decomp.intervals, 1000)
    op = ulam_assemble(fam, grid)
    res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=10**4,
                        stop_below=1e-4)
    assert res.decay_log.min() < 1e-3
    assert res.envelope_ratio < 1.0


# small-grid versions of the benchmark's three convergence settings
DECAY_SETTINGS = {
    "dw038": (double_well(0.38), 0.33, 300, [0.1447]),
    "dw038-small-eta": (double_well(0.38), 0.01, 300, [0.1447]),
    "dw038-2d": (_double_well_product(2), 0.33, 24, [0.1447, -0.3]),
}


def _decay_setting(name):
    obj, eta, n, x0 = DECAY_SETTINGS[name]
    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    return ulam_assemble(MapFamily(obj, eta), grid), decomp, DiscreteMeasure.point_mass(grid, x0)


def _assert_matches_per_step_oracle(op, decomp, mu0, k_max, stop_below=0.0):
    res = limit_mixture(op, decomp, mu0, k_max=k_max, stop_below=stop_below)
    coefficients, log, ratio = per_step_decay_log(op, decomp, mu0, k_max, stop_below)
    assert np.array_equal(res.decay_log, log)
    assert np.array_equal(res.coefficients, coefficients)
    assert np.array_equal(res.envelope_ratio, ratio)
    return res


@pytest.mark.parametrize("k_max", [0, 1, 300])
@pytest.mark.parametrize("setting", sorted(DECAY_SETTINGS))
def test_limit_mixture_log_matches_per_step_oracle(setting, k_max):
    # the weight-vector loop keeps the bits of push_forward and the
    # zero-padded composite distance, step by step
    res = _assert_matches_per_step_oracle(*_decay_setting(setting), k_max)
    assert res.decay_log.size == k_max


@pytest.mark.parametrize("setting", sorted(DECAY_SETTINGS))
def test_limit_mixture_log_stops_like_per_step_oracle(setting):
    op, decomp, mu0 = _decay_setting(setting)
    full = limit_mixture(op, decomp, mu0, k_max=300).decay_log
    stop_below = float(np.median(full))
    res = _assert_matches_per_step_oracle(op, decomp, mu0, 300, stop_below)
    assert 0 < res.decay_log.size < 300
    assert res.decay_log[-1] < stop_below <= res.decay_log[:-1].min()


def _spy_log_blocks(monkeypatch) -> list:
    """The cells of the buffer behind every block limit_mixture scores."""
    cells = []
    d_tilde_rows = transfer.d_tilde_rows

    def spy(diffs, shape, config):
        cells.append((diffs if diffs.base is None else diffs.base).size)
        return d_tilde_rows(diffs, shape, config)

    monkeypatch.setattr(transfer, "d_tilde_rows", spy)
    return cells


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("setting", sorted(DECAY_SETTINGS))
def test_limit_mixture_blocks_match_per_step_oracle(monkeypatch, setting, rows):
    # blocks of rows iterates: logs that end inside a block, on its last row
    # and one row into the next, and stops on a block's first and last rows
    op, decomp, mu0 = _decay_setting(setting)
    monkeypatch.setattr(transfer, "LOG_BLOCK_CELLS", rows * op.grid.ncells)
    cells = _spy_log_blocks(monkeypatch)
    for k_max in sorted({0, 1, rows, rows + 1, 300}):
        full = _assert_matches_per_step_oracle(op, decomp, mu0, k_max).decay_log
        assert full.size == k_max
    assert set(cells) == {rows * op.grid.ncells}
    # block b holds the log's entries 1 + b * rows to (b + 1) * rows
    for row in (1, rows):
        end = next((b * rows + row for b in range(1, 300 // rows - 1)
                    if full[b * rows + row] < full[:b * rows + row].min()), None)
        assert end is not None
        stop_below = float(full[:end].min())
        res = _assert_matches_per_step_oracle(op, decomp, mu0, 300, stop_below)
        assert res.decay_log.size == end + 1


@pytest.mark.parametrize("obj,n,block", [
    (double_well(0.38), 4000, 16 * 4000),
    # a row of 300^2 cells is over LOG_BLOCK_CELLS alone: the block is that row
    (_double_well_product(2), 300, 300**2),
], ids=["1d-4000", "2d-300"])
def test_limit_mixture_block_holds_at_most_its_cells(monkeypatch, obj, n, block):
    decomp = decompose(obj, 0.33)
    grid = Grid.regular(decomp.intervals, n)
    op = ulam_assemble(MapFamily(obj, 0.33), grid)
    cells = _spy_log_blocks(monkeypatch)
    res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=40)
    assert res.decay_log.size == 40
    assert set(cells) == {block} and block <= max(transfer.LOG_BLOCK_CELLS, grid.ncells)


def test_limit_mixture_rejects_measure_on_other_grid(dw038_setup):
    _, _, decomp, _, grid, op = dw038_setup
    other = Grid.regular(decomp.intervals, grid.ncells + 1)
    with pytest.raises(GridMismatch):
        limit_mixture(op, decomp, DiscreteMeasure.uniform(other), k_max=5)


def test_limit_mixture_logs_its_stages_at_info(dw038_setup, caplog):
    _, _, decomp, _, grid, op = dw038_setup
    with caplog.at_level(logging.WARNING, logger="sgdmc"):
        limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=5)
    assert not caplog.records
    with caplog.at_level(logging.INFO, logger="sgdmc"):
        res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=40, stop_below=1e-3)
    # each solve names its solver, then the stage line
    *solves, record = caplog.records
    assert [r.getMessage() for r in solves] == [
        *(f"invariant_measure: iteration ({inv.iterations} steps)" for inv in res.invariants),
        "ulam_absorption: iteration (119 steps)"]
    match = re.fullmatch(r"limit_mixture: invariants \d+\.\d{3}s, absorption \d+\.\d{3}s, "
                         r"log \d+\.\d{3}s \((\d+) steps, \d+\.\d us/step\)",
                         record.getMessage())
    assert match and int(match.group(1)) == res.decay_log.size


@pytest.mark.parametrize("obj,eta,n,k_max,x0,expected", [
    (double_well(0.38), 0.33, 10**4, 1000, [0.1447], 0.765),
    (SeparableObjective(components=double_well(0.38).components * 2), 0.33, 120, 300,
     [0.1447, 0.1447], 0.765),
    (double_well(0.38), 0.01, 4000, 2000, [0.1447], None),
], ids=["dw038-fine", "dw038-2d", "dw038-small-eta"])
def test_envelope_ratio_fits_above_tolerance_floor(obj, eta, n, k_max, x0, expected):
    # the logs run far past the floor the invariant measures' tolerance sets;
    # the fitted rate must not read that plateau's 1.0
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    res = limit_mixture(ulam_assemble(fam, grid), decomp,
                        DiscreteMeasure.point_mass(grid, x0), k_max=k_max)
    assert res.decay_log.size == k_max
    certs = [splitting_certificate_multi(fam, rect) for rect in decomp.rectangles]
    certified = max(c.contraction_factor(fam.n) ** (1.0 / c.ell) for c in certs)
    assert 0.0 < res.envelope_ratio <= certified
    if expected is not None:
        assert abs(res.envelope_ratio - expected) <= 2e-3


def test_limit_mixture_single_rectangle_equals_invariant():
    obj = double_well(0.55)
    eta = 0.1
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(decomp.intervals, 300)
    op = ulam_assemble(fam, grid)
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    inv = invariant_measure(op, cells)
    res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=50)
    assert d_F(res.mixture, inv.measure) <= 1e-9
    assert res.coefficients[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam,eta", [(2.0, 0.0698), (0.55, 0.1)])
def test_grid_refinement_cauchy_sequence(lam, eta):
    # dyadic refinement differences shrink on these benchmarks; rougher
    # invariant measures (two-well settings near the fold) can oscillate
    obj = double_well(lam)
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    diffs = []
    for n in (250, 500, 1000):
        coarse = Grid.regular(decomp.intervals, n)
        fine = Grid.regular(decomp.intervals, 2 * n)
        inv_c = invariant_measure(
            ulam_assemble(fam, coarse), np.flatnonzero(coarse.classify(decomp) == 0)
        ).measure
        inv_f = invariant_measure(
            ulam_assemble(fam, fine), np.flatnonzero(fine.classify(decomp) == 0)
        ).measure
        cdf_c = np.cumsum(inv_c.weights)
        cdf_f = np.cumsum(inv_f.weights)[1::2]  # shared edges
        diffs.append(float(np.max(np.abs(cdf_c - cdf_f))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_spectral_contraction_within_block(dw038_setup):
    # measured per-step contraction toward the block invariant measure stays
    # at or below one; the certificate bound is the guaranteed envelope
    from sgdmc.dynamics import splitting_length_1d

    _, _, decomp, fam, grid, op = dw038_setup
    labels = grid.classify(decomp)
    cells = np.flatnonzero(labels == 0)
    inv = invariant_measure(op, cells).measure
    w = np.zeros(grid.ncells)
    w[cells[: len(cells) // 3]] = 1.0
    mu = DiscreteMeasure(grid, w / w.sum())
    dists = []
    for _ in range(40):
        mu = push_forward(op, mu)
        dists.append(d_F(mu, inv))
    # below ~1e-8 the log sits on the accuracy floor of the computed invariant
    # measure, where ratios are noise
    live = [d for d in dists if d > 1e-8]
    tail = live[-10:]
    factors = [b / a for a, b in zip(tail[:-1], tail[1:])]
    assert all(f <= 1.0 + 1e-9 for f in factors)
    # the certificate's guaranteed envelope dominates the measured decay
    cert = splitting_length_1d(fam, decomp.per_dimension[0][0])
    envelope = cert.contraction_factor(fam.n)
    ell_factors = [
        live[k + cert.ell] / live[k] for k in range(len(live) - cert.ell)
    ]
    assert all(f <= envelope + 1e-9 for f in ell_factors)


def test_measure_validation():
    g = Grid.regular([(-1.0, 1.0)], 4)
    with pytest.raises(Exception):
        DiscreteMeasure(g, np.array([1.0, -0.5, 0.2, 0.3]))
    with pytest.raises(Exception):
        DiscreteMeasure(g, np.ones(5))


def test_invariant_2d_concentrates_on_antidiagonal():
    # on the crossed quadratics the maps restricted to x2 = 1 - x1 reduce to
    # the Bernoulli convolution with ratio 1/2, so the unique invariant
    # measure lives on that segment with a uniform first marginal
    from sgdmc.objective import crossed_quadratics_2d

    obj = crossed_quadratics_2d()
    eta = 0.25
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    n = 40
    grid = Grid.regular(decomp.intervals, n)
    op = ulam_assemble(fam, grid)
    assert op.row_sum_error <= 1e-12
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    res = invariant_measure(op, cells, tol=1e-9)
    weights = res.measure.weights.reshape(grid.shape)
    c1, c2 = np.meshgrid(grid.centers[0], grid.centers[1], indexing="ij")
    near_line = np.abs(c1 + c2 - 1.0) < 3.0 / n
    assert weights[near_line].sum() == pytest.approx(1.0, abs=1e-9)
    marginal_cdf = np.cumsum(weights.sum(axis=1))
    assert np.max(np.abs(marginal_cdf - np.arange(1, n + 1) / n)) <= 2.0 / n


def test_basins_2d_single_rectangle():
    from sgdmc.objective import crossed_quadratics_2d

    obj = crossed_quadratics_2d()
    decomp = decompose(obj, 0.25)
    fam = MapFamily(obj, 0.25)
    grid = Grid.regular(decomp.intervals, 16)
    basins = basin_functions(fam, grid, tol=1e-12)
    assert np.allclose(basins.values, 1.0, atol=1e-12)


def test_mixed_2d_two_rectangle_pipeline():
    # mixture limit and basin functions agree on the symmetric coefficients
    obj, eta = _mixed_2d_objective(), 0.15
    decomp = decompose(obj, eta)
    assert decomp.counts == (2, 1)
    fam = MapFamily(obj, eta)
    grid = Grid.regular(decomp.intervals, 80)
    op = ulam_assemble(fam, grid)
    res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=3000,
                        stop_below=1e-7)
    assert res.decay_log.min() < 1e-6
    assert res.envelope_ratio < 1.0
    assert res.coefficients[0] == pytest.approx(0.5, abs=1e-9)

    fine = Grid.regular(decomp.intervals, [200, 100])
    basins = basin_functions(fam, fine, tol=1e-11)
    assert basins.partition_defect <= 1e-6
    c = mixture_coefficients(basins, DiscreteMeasure.uniform(fine))
    assert c[0] == pytest.approx(0.5, abs=1e-6)


def _axis_leakage(matrix, grid, config) -> float:
    """Max mass a row of one axis's absorbing block sends outside it, over
    the axes' own chains lumped from matrix."""
    leaks = [0.0]
    for j, labels in enumerate(config.axis_labels):
        chain = lumped_axis_chain(matrix, grid.shape, j)
        for t in range(labels.max() + 1):
            cells = np.flatnonzero(labels == t)
            leaks.append(transfer._leakage(chain[cells][:, cells]))
    return max(leaks)


def _axis_absorption(fam, grid: Grid, j: int, kernel: str) -> np.ndarray:
    """Absorption values of axis j's own 1-d problem, its component and the
    step on the axis's cells, by kernel "ulam" (ulam_absorption) or "dual"
    (basin_functions)."""
    axis_fam = MapFamily(SeparableObjective(components=(fam.obj.components[j],)), fam.eta)
    axis_grid = Grid((grid.edges[j],))
    if kernel == "ulam":
        return ulam_absorption(ulam_assemble(axis_fam, axis_grid),
                               metric_config(axis_grid, axis_fam.decomposition)).values
    return basin_functions(axis_fam, axis_grid).values


def _recorded_solves(monkeypatch) -> list:
    """(steps, residual, solver) of every _absorption_solve call from now on,
    in call order."""
    solves, absorption_solve = [], transfer._absorption_solve

    def record(*args):
        x, steps, residual, solver = absorption_solve(*args)
        solves.append((steps, residual, solver))
        return x, steps, residual, solver

    monkeypatch.setattr(transfer, "_absorption_solve", record)
    return solves


def _recorded_splits(monkeypatch) -> list:
    """The shape of the rows of every _split_rows call from now on, in call
    order."""
    shapes, split_rows = [], transfer._split_rows

    def record(rows, transient):
        shapes.append(rows.shape)
        return split_rows(rows, transient)

    monkeypatch.setattr(transfer, "_split_rows", record)
    return shapes


@pytest.mark.parametrize("n", [114, 120, 300])
@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_face_absorption_matches_the_joint_kernel(monkeypatch, caplog, kernel, n):
    # dw2d-grid's problem, whose blocks are closed on both axes (at 114 the
    # dual's leaked 1.2e-2 a step before _interp_factor_1d clamped their
    # rows): the faces give the joint kernel's values to within its stop
    # error, in [0, 1] up to rounding, iterating only the cells transient on
    # both axes, in fewer steps; the INFO line names the path, the axis
    # solvers and the joint work
    fam = MapFamily(_double_well_product(2), 0.33)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    if kernel == "ulam":
        op = ulam_assemble(fam, grid)
        solve, matrix, tol, bound = partial(ulam_absorption, op, config), op.matrix, \
            ULAM_ABSORPTION_TOL, 1e-12
    else:
        solve, matrix, tol, bound = partial(basin_functions, fam, grid), \
            dual_operator(fam, grid).matrix, BASIN_TOL, 1e-10
    assert _axis_leakage(matrix, grid, config) <= transfer.LEAKAGE_WARN
    split = _recorded_splits(monkeypatch)
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        got = solve()
    [record] = _solver_records(caplog)
    found = re.fullmatch(FACES, record.getMessage())
    joint = np.logical_and.outer(*(labels < 0 for labels in config.axis_labels))
    # the rows of the cells transient on both axes, split once
    assert split.count((joint.sum(), grid.ncells)) == 1
    assert found.groups()[:2] == ("banded", "banded")
    assert found.groups()[3:5] == ("1", "4")
    assert (int(found[3]), int(found[7])) == (joint.sum(), got.iterations)
    assert got.partition_defect <= 1e-10
    assert 0.0 <= got.values.min() and got.values.max() <= 1.0 + 1e-15
    assert got.values.flags.f_contiguous
    # both axes carry the same double well: the 2-d values have its 1-d
    # absorption probabilities as marginals, to within the joint stop error,
    # and their products on the faces
    axis = _axis_absorption(fam, grid, 0, kernel)
    values = got.values.reshape((2, 2) + grid.shape)
    assert np.max(np.abs(values.sum(axis=1) - axis[:, :, None])) <= bound
    assert np.max(np.abs(values.sum(axis=0) - axis[:, None, :])) <= bound
    faces = axis[:, None, :, None] * axis[None, :, None, :]
    assert np.max(np.abs(values - faces)[:, :, ~joint]) <= 1e-12
    if n < 300:
        want = held_absorption(_transient_rows(matrix, config), grid, config, tol)
        assert np.max(np.abs(got.values - want.values)) <= bound
        assert 0 < got.iterations < want.iterations


@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_face_derived_values_are_zero_or_above_their_rounding(monkeypatch, kernel):
    # dw2d-grid's problem on a closed 40 x 40 grid: each derived value
    # g_(a, k2 - 1) and g_(k1 - 1, b) is the subtraction of its operands,
    # except that a result within eps times the number of terms times the
    # largest term of 0 is 0; such residues occur here
    fam = MapFamily(_double_well_product(2), 0.33)
    grid = Grid.regular(fam.intervals, 40)
    calls, derived = [], transfer._derived

    def record(total, parts, axis):
        calls.append((total.copy(), parts.copy(), axis, derived(total, parts, axis)))
        return calls[-1][-1]

    monkeypatch.setattr(transfer, "_derived", record)
    if kernel == "ulam":
        ulam_absorption(ulam_assemble(fam, grid), metric_config(grid, fam.decomposition))
    else:
        basin_functions(fam, grid)
    assert [c[2] for c in calls] == [1, 0]
    flushed = 0
    for total, parts, axis, got in calls:
        raw = total - parts.sum(axis=axis)
        bound = (parts.shape[axis] + 1) * np.finfo(float).eps * np.maximum(
            np.abs(total), np.abs(parts).max(axis=axis))
        assert np.all((got == 0.0) | (np.abs(got) > bound))
        small = np.abs(raw) <= bound
        assert np.array_equal(got[~small], raw[~small])
        flushed += np.count_nonzero(raw[small])
    assert flushed > 0


@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_faces_report_every_solve(monkeypatch, caplog, kernel):
    # with the banded solve declined both axes iterate, as the joint solve
    # does: the result's iterations sum the steps of the two axis solves and
    # the joint one, and its residual is the largest of their residuals
    monkeypatch.setattr(transfer, "BANDED_WORK_RATIO", 0)
    fam = MapFamily(_double_well_product(2), 0.33)
    grid = Grid.regular(fam.intervals, 60)
    config = metric_config(grid, fam.decomposition)
    if kernel == "ulam":
        solve = partial(ulam_absorption, ulam_assemble(fam, grid), config)
    else:
        solve = partial(basin_functions, fam, grid)
    solves = _recorded_solves(monkeypatch)
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        got = solve()
    [record] = _solver_records(caplog)
    found = re.fullmatch(FACES, record.getMessage())
    assert found.groups()[:2] == ("iteration", "iteration")
    assert all(solver == f"iteration ({steps} steps)" for steps, _, solver in solves)
    (x1_steps, x1_residual, _), (x2_steps, x2_residual, _), joint = solves
    assert x1_steps > 0 and x2_steps > 0 and joint[0] == int(found[7]) > 0
    assert got.iterations == x1_steps + x2_steps + joint[0]
    assert got.residual == max(x1_residual, x2_residual, joint[1])


@pytest.mark.parametrize("single", [0, 1], ids=["first-axis", "second-axis"])
@pytest.mark.parametrize("kernel", ["ulam", "dual"])
def test_one_rectangle_axis_leaves_nothing_to_solve(monkeypatch, caplog, kernel, single):
    # one axis has a single absorbing interval, with transient cells to its
    # right, beside the double well: every path is absorbed on that axis, so
    # rectangle (a) is the other axis's interval a and its function is that
    # axis's 1-d absorption probability on every cell; the cells transient
    # on both axes take it with no joint solve ("none"), at 0 steps, and
    # their rows are not split, nor are the one-rectangle axis's: only the
    # other axis's transient rows are
    one = lambda_split(Polynomial([0.0, 0.3, -0.5, 0.0, 0.25]), 0.5).components[0]
    components = [double_well(0.38).components[0]] * 2
    components[single] = one
    fam = MapFamily(SeparableObjective(components=tuple(components)), 0.23)
    grid = Grid.regular(fam.intervals, 100)
    config = metric_config(grid, fam.decomposition)
    joint = np.logical_and.outer(*(labels < 0 for labels in config.axis_labels))
    assert [labels.max() + 1 for labels in config.axis_labels][single] == 1
    assert joint.sum() > 0
    if kernel == "ulam":
        solve = partial(ulam_absorption, ulam_assemble(fam, grid), config)
    else:
        solve = partial(basin_functions, fam, grid)
    solves = _recorded_solves(monkeypatch)
    split = _recorded_splits(monkeypatch)
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        got = solve()
    assert split == [(np.count_nonzero(labels < 0), len(labels))
                          for labels in config.axis_labels if labels.max() > 0]
    [record] = _solver_records(caplog)
    found = re.fullmatch(FACES, record.getMessage())
    assert found[single + 1] == "ones" and found[2 - single] == "banded"
    assert (int(found[3]), found[4], found[5], found[6]) == (joint.sum(), "0", "2", "none")
    # the one solve made is the banded axis's, and the result reports it
    [(steps, residual, solver)] = solves
    assert solver.startswith("banded (")
    assert steps == 0 and (got.iterations, got.residual) == (steps, residual)
    values = got.values.reshape((2,) + grid.shape)
    # constant along the one-rectangle axis
    along = np.expand_dims(_axis_absorption(fam, grid, 1 - single, kernel), 1 + single)
    assert np.all(values == np.take(values, [0], axis=1 + single))
    assert np.max(np.abs(values - along)) <= 1e-15
    assert got.partition_defect <= 1e-15


def test_no_joint_cell_assembles_no_joint_rows(caplog):
    # the second axis has two cells, one per well, and none transient, so no
    # cell is transient on both axes: the faces give every value, and the
    # joint rows, which no solve would read, are not assembled (the two
    # marginals are the only blocks)
    fam = MapFamily(_double_well_product(2), 0.33)
    (a, b), _ = fam.intervals
    grid = Grid((np.linspace(a, b, 41), np.array([a, 0.0, b])))
    config = metric_config(grid, fam.decomposition)
    assert config.axis_labels[1].tolist() == [0, 1]
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        got = basin_functions(fam, grid)
    [record] = _solver_records(caplog)
    found = re.fullmatch(FACES, record.getMessage())
    assert found.groups()[1:6] == ("none", "0", "0", "4", "none")
    [assembled] = [m for m in (re.fullmatch(ASSEMBLED, r.getMessage()) for r in caplog.records)
                   if m]
    assert assembled[1] == "2"
    g1 = _axis_absorption(fam, grid, 0, "dual")
    faces = g1[:, None, :, None] * np.eye(2)[None, :, None, :]
    assert got.values.tobytes() == faces.reshape(4, grid.ncells).tobytes()


@pytest.mark.parametrize("n,solver", [(10, "banded"), (14, "iteration")],
                         ids=["ulam-10", "ulam-14-iterated"])
def test_leaky_axes_keep_the_joint_path(monkeypatch, caplog, n, solver):
    # on these coarse grids the Ulam chain's absorbing blocks leak on an axis
    # (1.2e-2 and 6.5e-3 of a row's mass per step), so the faces do not hold:
    # ulam_absorption solves over every transient cell, by the banded solve
    # or, with it declined, by the iteration (the bits of x <- R x + f built
    # from the whole matrix, and the masked-reset loop's counts)
    if solver == "iteration":
        monkeypatch.setattr(transfer, "BANDED_WORK_RATIO", 0)
    fam = MapFamily(_double_well_product(2), 0.33)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    op = ulam_assemble(fam, grid)
    assert _axis_leakage(op.matrix, grid, config) > 1e-3
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        got = ulam_absorption(op, config)
    [record] = caplog.records
    assert record.getMessage().startswith(f"ulam_absorption: {solver} (")
    if solver == "iteration":
        want = transient_block_absorption(op.matrix, grid, config, ULAM_ABSORPTION_TOL)
        assert got.values.tobytes() == want.values.tobytes()
        reset = masked_reset_absorption(op.matrix, grid, config, ULAM_ABSORPTION_TOL)
        assert np.max(np.abs(got.values - reset.values)) <= 1e-15
        assert got.iterations == want.iterations == reset.iterations
    else:
        want = direct_absorption(op.matrix, grid.classify(fam.decomposition),
                                 len(config.rectangle_cells))
        assert np.max(np.abs(got.values - want)) <= 1e-13


def _unclamped_dual(fam, grid: Grid) -> sp.csr_matrix:
    """dual_operator without _interp_factor_1d's clamp: its factors for a
    decomposition with no absorbing intervals."""
    bare = SimpleNamespace(n=fam.n, phi=fam.phi, dimension=fam.dimension,
                           decomposition=SimpleNamespace(per_dimension=((),) * fam.dimension))
    return transfer.SeparableOperator(bare, grid, transfer._interp_factor_1d).matrix


@pytest.mark.parametrize("obj,eta,n", [
    (double_well(0.38), 0.33, 1000),
    (double_well(0.38), 0.01, 4000),
    (_double_well_product(2), 0.33, 114),
], ids=["dw1d-1000", "dw1d-small-eta", "dw2d-114"])
def test_clamp_changes_no_transient_row(obj, eta, n):
    # the clamp moves only the images of absorbing cells: the rows of the
    # cells transient on every axis keep their bits, which is all that a 1-d
    # absorption solve, or the joint solve by faces, reads; on these grids
    # the unclamped absorbing rows leaked
    fam = MapFamily(obj, eta)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    got, bare = dual_operator(fam, grid).matrix, _unclamped_dual(fam, grid)
    cells = np.flatnonzero(reduce(np.logical_and.outer, [l < 0 for l in config.axis_labels]))
    for part in ("data", "indices", "indptr"):
        assert getattr(got[cells], part).tobytes() == getattr(bare[cells], part).tobytes()
    assert _axis_leakage(bare, grid, config) > transfer.LEAKAGE_WARN
    assert _axis_leakage(got, grid, config) <= 1e-15


@pytest.mark.parametrize("eta", [0.33, 0.1, 0.01])
def test_dual_blocks_are_closed(eta):
    # before the clamp the 1-d dual's blocks leaked more than LEAKAGE_WARN
    # at about half of all sizes, up to 1.6e-2 of a row's mass per step
    fam = MapFamily(double_well(0.38), eta)
    for n in range(100, 3000, 97):
        grid = Grid.regular(fam.intervals, n)
        config = metric_config(grid, fam.decomposition)
        assert _axis_leakage(dual_operator(fam, grid).matrix, grid, config) <= 1e-15, n


def _closed_class_chain(closed: str) -> sp.csr_matrix:
    """A 6-cell chain absorbed at cells 0 and 5, whose transient cells 1 and
    4 step half to their end and half inward, with a closed class inside:
    cells 2 and 3 swapping, or cell 2 trapping what reaches it."""
    p = np.zeros((6, 6))
    p[0, 0] = p[5, 5] = 1.0
    p[1, 0] = p[1, 2] = p[4, 3] = p[4, 5] = 0.5
    if closed == "two-cycle":
        p[2, 3] = p[3, 2] = 1.0
    else:
        p[2, 2] = p[3, 2] = 1.0
    return sp.csr_matrix(p)


def _declines_the_banded_solve(monkeypatch, rows, blocks, tol):
    """_absorption_solve on the absorption system of the transient rows
    hands 0 to _iterate, names the iteration and returns the bits of its
    step iterated from 0."""
    handed, iterate = [], transfer._iterate

    def record(step, x, tol):
        handed.append(x.copy())
        return iterate(step, x, tol)

    monkeypatch.setattr(transfer, "_iterate", record)
    r, f = absorption_system(rows, blocks)
    got, steps, residual, solver = transfer._absorption_solve(r, f, rows.nnz, tol)
    want, want_steps, want_residual = iterate(transfer._absorption_step(r, f),
                                              np.zeros_like(f), tol)
    assert [h.tobytes() for h in handed] == [np.zeros_like(f).tobytes()]
    assert solver == f"iteration ({steps} steps)"
    assert got.tobytes() == want.tobytes() and (steps, residual) == (want_steps, want_residual)


@pytest.mark.parametrize("closed", ["two-cycle", "trap"])
def test_closed_class_falls_back_to_the_iteration(monkeypatch, closed):
    # I - R on the transient cells is singular: the banded solve declines,
    # and the iteration finds the values, 0 on the closed class, which
    # nothing leaves
    labels = np.array([0, -1, -1, -1, -1, 1])
    blocks = label_blocks(labels, 2, labels.shape, (labels,))
    grid = Grid.regular([(0.0, 1.0)], labels.size)
    rows = _transient_rows(_closed_class_chain(closed), blocks)
    with monkeypatch.context() as patch:
        _declines_the_banded_solve(patch, rows, blocks, BASIN_TOL)
    got, solver = _transient_absorption(rows, grid, blocks, BASIN_TOL)
    assert solver.startswith("iteration (")
    expected = np.array([[1.0, 0.5, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.5, 1.0]])
    assert got.values.tobytes() == np.asfortranarray(expected).tobytes()


@pytest.mark.parametrize("closed", ["two-cycle", "trap"])
def test_the_absorption_iterate_rises_beside_a_closed_class(closed):
    # every step of x <- R x + f from 0 is elementwise at least the one
    # before, exactly, and the closed class, which nothing leaves, keeps its
    # partition defect of 1 on every step
    labels = np.array([0, -1, -1, -1, -1, 1])
    blocks = label_blocks(labels, 2, labels.shape, (labels,))
    r, f = absorption_system(_transient_rows(_closed_class_chain(closed), blocks), blocks)
    step, x = transfer._absorption_step(r, f), np.zeros_like(f)
    for _ in range(50):
        x_next, _ = step(x)
        assert np.all(x_next >= x) and np.all(x_next.sum(axis=0) <= 1.0 + 1e-15)
        # cells 2 and 3, the closed class, are the second and third transient cells
        assert np.all(1.0 - x_next[:, 1:3].sum(axis=0) == 1.0)
        x = x_next


@pytest.mark.parametrize("n,blocks", [(30_000, [100]), (40_000, [])])
def test_banded_rule_bounds_the_factor(monkeypatch, n, blocks):
    # at eta = 0.01 the direct solve is predicted the faster at both sizes
    # (w^3 <= BANDED_WORK_RATIO b, w = 100 and 133), but at N = 40000 its
    # b (m + k) factor would hold 34 times the rows' non-zeros, past
    # BANDED_FILL_RATIO: the solve is not tried (a stub records each try);
    # either way the iteration runs, here for one step (tol inf)
    fam = MapFamily(double_well(0.38), 0.01)
    grid = Grid.regular(fam.intervals, n)
    config = metric_config(grid, fam.decomposition)
    rows = _transient_rows(dual_operator(fam, grid).matrix, config)
    tried = []

    def stub(r, entry_rows, f, m):
        tried.append(m)
        raise np.linalg.LinAlgError

    monkeypatch.setattr(transfer, "_banded_solve", stub)
    _declines_the_banded_solve(monkeypatch, rows, config, np.inf)
    assert tried == blocks


@pytest.mark.parametrize("bad", [1.0 + 1e-9, -1e-9, np.nan], ids=["above", "below", "nan"])
def test_banded_values_off_the_unit_interval_are_declined(monkeypatch, bad, caplog):
    # a nearly singular I - R can solve without LinAlgError and land off
    # [0, 1] by more than rounding, or not finite: the values are declined,
    # and the absorption iterates from 0
    fam = MapFamily(double_well(0.38), 0.01)
    grid = Grid.regular(fam.intervals, 200)
    config = metric_config(grid, fam.decomposition)
    rows = _transient_rows(dual_operator(fam, grid).matrix, config)
    solve = transfer._banded_solve

    def off(*args):
        x = solve(*args)
        x[0, 0] = bad
        return x

    monkeypatch.setattr(transfer, "_banded_solve", off)
    with monkeypatch.context() as patch:
        _declines_the_banded_solve(patch, rows, config, BASIN_TOL)
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        assert basin_functions(fam, grid).iterations > 0
    assert _solver_records(caplog)[-1].getMessage().startswith("basin_functions: iteration (")


def test_2d_invariant_marginals_are_the_axis_invariants():
    # the axes' cell processes are their own 1-d chains, so the marginals of
    # each rectangle's invariant measure are its intervals' 1-d invariant
    # measures, although the measure is far from their product; both axes
    # carry the same double well, so axis 1's measures serve both
    comp = double_well(0.38).components[0]
    fam = MapFamily(SeparableObjective(components=(comp, comp)), 0.33)
    grid = Grid.regular(fam.intervals, 60)
    op = ulam_assemble(fam, grid)
    config = metric_config(grid, fam.decomposition)
    axis_fam = MapFamily(SeparableObjective(components=(comp,)), 0.33)
    axis_op = ulam_assemble(axis_fam, Grid((grid.edges[0],)))
    axis = [invariant_measure(axis_op, np.flatnonzero(config.axis_labels[0] == t),
                              tol=1e-14).measure.weights for t in range(2)]
    for rect, cells in zip(fam.decomposition.rectangles, config.rectangle_cells):
        weights = invariant_measure(op, cells, tol=1e-14).measure.weights.reshape(grid.shape)
        a, b = rect.index
        assert np.max(np.abs(weights.sum(axis=1) - axis[a])) <= 1e-13
        assert np.max(np.abs(weights.sum(axis=0) - axis[b])) <= 1e-13
        assert 0.5 * np.abs(weights - np.outer(axis[a], axis[b])).sum() > 0.1


def test_basins_on_coarse_grid_keep_the_partition_of_unity(caplog):
    # at 60 cells the interpolated absorbing rows leaked until
    # _interp_factor_1d clamped them: iterated as they were, they left a
    # defect of 8.4e-3; held at their indicators, 6.6e-12
    obj, eta = double_well(0.2), 0.3
    decomp = decompose(obj, eta)
    coarse = Grid.regular(decomp.intervals, 60)
    with caplog.at_level(logging.WARNING, logger="sgdmc.transfer"):
        basins = basin_functions(MapFamily(obj, eta), coarse, tol=1e-12)
    assert basins.partition_defect <= 1e-9
    assert not caplog.records


def test_basin_functions_logs_what_it_assembles_in_1d(dw038_setup, caplog):
    # in one dimension the absorption solve slices its transient rows from
    # the whole dual, assembled once
    _, _, _, fam, grid, _ = dw038_setup
    with caplog.at_level(logging.INFO, logger="sgdmc.transfer"):
        basin_functions(fam, grid)
    [found] = [m for m in (re.fullmatch(ASSEMBLED, r.getMessage()) for r in caplog.records) if m]
    assert found.groups() == ("1", str(dual_operator(fam, grid).matrix.nnz))


def test_basin_defect_warns_on_loose_tolerance(dw038_setup, caplog):
    # a tolerance this loose stops the iteration well before absorption
    _, _, _, fam, grid, _ = dw038_setup
    with caplog.at_level(logging.WARNING, logger="sgdmc.transfer"):
        basins = basin_functions(fam, grid, tol=0.1)
    assert basins.partition_defect > 1e-6
    [record] = caplog.records
    assert "tolerance is too loose" in record.message
    assert "grid too coarse" in record.message


def test_invariant_warns_on_leaky_block(caplog):
    # at 10 cells the straddling absorbing cells send 1.2% of their mass out
    obj, eta = double_well(0.38), 0.33
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    for n, leaky in ((10, True), (1000, False)):
        grid = Grid.regular(decomp.intervals, n)
        op = ulam_assemble(fam, grid)
        cells = np.flatnonzero(grid.classify(decomp) == 0)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sgdmc.transfer"):
            res = invariant_measure(op, cells)
        assert (res.leakage > 1e-3) == leaky
        assert any("quasi-stationary" in r.message for r in caplog.records) == leaky


def test_invariant_leak_warning_goes_to_stderr(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"objective": [0.25, 0.0, -0.5, 0.0, 0.25], "lambda": 0.38, "eta": 0.33}')
    src = os.path.dirname(os.path.dirname(sgdmc.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "sgdmc.cli", "invariant", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--grid", "10"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert proc.stderr.count("quasi-stationary") == 2


def test_dense_grids_stop_at_two_dimensions(monkeypatch):
    # both operators refuse a 3-d grid, and a grid of another dimension than
    # the family's, when they are made, before any factor is built
    comp = double_well(0.2).components[0]
    fam = MapFamily(SeparableObjective(components=(comp,) * 3), 0.1)
    grid = Grid.regular(fam.intervals, 3)
    for name in ("_map_factor_1d", "_interp_factor_1d"):
        monkeypatch.setattr(transfer, name, None)
    with pytest.raises(ValueError) as ulam:
        ulam_operator(fam, grid)
    with pytest.raises(ValueError) as dual:
        dual_operator(fam, grid)
    assert str(dual.value) == str(ulam.value)
    assert "up to two dimensions" in str(dual.value)
    for make in (ulam_operator, dual_operator):
        with pytest.raises(DimensionMismatch):
            make(fam, Grid.regular(fam.intervals[:2], 3))


def test_the_package_exports_ulam_operator():
    # beside dual_operator and ulam_assemble, which it sits with in transfer
    assert sgdmc.ulam_operator is transfer.ulam_operator


def test_assembled_matrix_is_the_one_copy():
    # once the matrix is built, blocks and rows are sliced from it, with the
    # bits of assembling them alone, and nnz records nothing more; the same
    # factor objects stay in 2-d, where they are small next to the matrix
    # and the faces' marginals read them, and are dropped in 1-d, where
    # they are as large as it
    fam = MapFamily(_double_well_product(2), 0.33)
    grid = Grid.regular(fam.intervals, 40)
    config = metric_config(grid, fam.decomposition)
    cells = config.rectangle_cells[0]
    sets = [np.flatnonzero(labels < 0) for labels in config.axis_labels]
    op = ulam_operator(fam, grid)
    alone = [op.block(cells), op.rows(sets)]
    factors = dict(op._factors)
    assert len(factors) == fam.n * grid.dimension

    def kept():
        return op._factors.keys() == factors.keys() and all(
            op._factors[key] is f for key, f in factors.items())

    matrix = op.matrix
    assert kept()
    assert op.nnz == [part.nnz for part in alone] + [matrix.nnz]
    for got, want in zip([op.block(cells), op.rows(sets)], alone):
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(got.indices, want.indices)
    op.marginal(0)
    assert kept() and len(op.nnz) == 4
    line_fam = MapFamily(double_well(0.38), 0.33)
    line = ulam_operator(line_fam, Grid.regular(line_fam.intervals, 40))
    line.block(metric_config(line.grid, line_fam.decomposition).rectangle_cells[0])
    assert len(line._factors) == line_fam.n
    line.matrix
    assert not line._factors
    with pytest.raises(ValueError, match="not a box"):
        op.block(np.delete(cells, 1))
