import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from oracles import (
    classify_cells,
    direct_absorption,
    double_well_roots,
    masked_reset_absorption,
    overlap_factor_1d,
    per_step_decay_log,
)

import sgdmc
from sgdmc.absorbing import decompose
from sgdmc.dynamics import MapFamily, splitting_certificate_multi
from sgdmc.errors import GridMismatch, NoConvergence
from sgdmc.metrics import d_F, metric_config
from sgdmc.objective import SeparableObjective, bernoulli_pair, double_well, lambda_split
from sgdmc.poly import Polynomial
from sgdmc.transfer import (
    BASIN_TOL,
    ULAM_ABSORPTION_TOL,
    DiscreteMeasure,
    Grid,
    _absorption_iteration,
    _map_factor_1d,
    _transient_rows,
    basin_functions,
    block_leakage,
    dual_operator,
    dual_residual,
    invariant_measure,
    limit_mixture,
    mixture_coefficients,
    push_forward,
    ulam_absorption,
    ulam_assemble,
)


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
        assert lo <= t.l <= lo + g.widths[0] + 1e-12
        assert hi - g.widths[0] - 1e-12 <= t.r <= hi
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
    assert out.mass == pytest.approx(1.0, abs=1e-12)
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
        assert block_leakage(op, np.flatnonzero(labels == m)) <= 1e-15


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
    assert (block_leakage(op, np.flatnonzero(labels >= 0)) > 1e-3) == leaky
    absorption = ulam_absorption(op, metric_config(grid, decomp))
    expected = direct_absorption(op.matrix, labels, len(decomp.rectangles))
    assert np.max(np.abs(absorption.values - expected)) <= 1e-11
    assert absorption.partition_defect <= 1e-9
    assert absorption.iterations > 0


def test_absorption_iteration_matches_multi_vector_product(dw038_setup):
    # one single-vector product of the transient rows per rectangle gives
    # the bits of one multi-vector product of every row with the absorbing
    # cells reset to their indicators, iterated to convergence
    _, _, decomp, fam, grid, _ = dw038_setup
    matrix = dual_operator(fam, grid)
    labels = grid.classify(decomp)
    config = metric_config(grid, decomp)
    basins = _absorption_iteration(_transient_rows(matrix, config), grid, config, 1e-11)
    indicators = np.stack([(labels == m).astype(float) for m in range(2)])
    g = indicators
    for _ in range(basins.iterations):
        g = (matrix @ g.T).T
        np.copyto(g, indicators, where=labels >= 0)
    assert basins.iterations > 1
    assert basins.values.tobytes() == g.tobytes()
    # the same layout too, so BLAS products with the values keep their bits
    w = DiscreteMeasure.uniform(grid).weights
    assert (basins.values @ w).tobytes() == (g @ w).tobytes()


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
    # the transient-rows kernel gives the bits, layout and counts of the loop
    # over every row with the absorbing cells reset after each product
    fam = MapFamily(obj, eta)
    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, n)
    config = metric_config(grid, decomp)
    assert len(decomp.rectangles) == rectangles
    assert (config.transient_cells.size > 0) == transient
    if kernel == "ulam":
        op = ulam_assemble(fam, grid)
        got = ulam_absorption(op, config)
        want = masked_reset_absorption(op.matrix, grid, config, ULAM_ABSORPTION_TOL)
    else:
        got = basin_functions(fam, grid)
        want = masked_reset_absorption(dual_operator(fam, grid), grid, config, BASIN_TOL)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.flags.f_contiguous and got.values.strides == want.values.strides
    assert (got.iterations, got.residual, got.partition_defect) == (
        want.iterations, want.residual, want.partition_defect)
    if not transient:
        assert (got.iterations, got.residual) == (1, 0.0)


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
    [record] = caplog.records
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


def test_basins_on_coarse_grid_keep_the_partition_of_unity(caplog):
    # at 60 cells the interpolated absorbing rows leak: iterated as they are,
    # they leave a defect of 8.4e-3; held at their indicators, 6.6e-12
    obj, eta = double_well(0.2), 0.3
    decomp = decompose(obj, eta)
    coarse = Grid.regular(decomp.intervals, 60)
    with caplog.at_level(logging.WARNING, logger="sgdmc.transfer"):
        basins = basin_functions(MapFamily(obj, eta), coarse, tol=1e-12)
    assert basins.partition_defect <= 1e-9
    assert not caplog.records


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


def test_dense_grids_stop_at_two_dimensions():
    comp = double_well(0.2).components[0]
    fam = MapFamily(SeparableObjective(components=(comp,) * 3), 0.1)
    grid = Grid.regular(fam.intervals, 3)
    with pytest.raises(ValueError) as ulam:
        ulam_assemble(fam, grid)
    with pytest.raises(ValueError) as dual:
        dual_operator(fam, grid)
    assert str(dual.value) == str(ulam.value)
    assert "up to two dimensions" in str(dual.value)
