"""Ulam discretization of the measure-evolution operator, invariant measures
per absorbing block, basin eigenfunctions of the dual operator, and mixture
limits with logged convergence."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .absorbing import Decomposition
from .dynamics import MapFamily
from .errors import DimensionMismatch, GridMismatch, GridTooCoarse, NoConvergence
from .metrics import MetricConfig, cdf_sup, d_tilde, d_tilde_weights, half_l1, metric_config

DEFAULT_TOL_1D = 1e-10
DEFAULT_TOL_ND = 1e-8
DEFAULT_MAX_ITER = 10**6
# the last sup change understates the absorption error ~100x at eta = 0.01;
# 1e-14 keeps ulam_absorption within ~1e-12 of the exact linear solve
ULAM_ABSORPTION_TOL = 1e-14
BASIN_TOL = 1e-11  # basin_functions' default stop tolerance
# a closed block loses only rounding (~1e-16 per step); a block leaking more
# than this returns a quasi-stationary measure, and invariant_measure warns
LEAKAGE_WARN = 1e-9
# the fitted envelope ratio uses only logged distances this many times above
# the invariant measures' tolerance (see _fitted_envelope_ratio)
ENVELOPE_FLOOR = 100
# dense cell grids (the Ulam and dual operators) stop at two dimensions
MAX_GRID_DIMENSION = 2


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid over the state space; cells are flattened row-major."""

    edges: tuple[np.ndarray, ...]

    @classmethod
    def regular(cls, intervals, cells_per_dim) -> "Grid":
        if isinstance(cells_per_dim, int):
            cells_per_dim = [cells_per_dim] * len(intervals)
        edges = tuple(
            np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(intervals, cells_per_dim)
        )
        return cls(edges=edges)

    @property
    def dimension(self) -> int:
        return len(self.edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    @property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def centers(self) -> tuple[np.ndarray, ...]:
        return tuple(0.5 * (e[:-1] + e[1:]) for e in self.edges)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(float(e[1] - e[0]) for e in self.edges)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Grid)
            and self.shape == other.shape
            and all(np.array_equal(a, b) for a, b in zip(self.edges, other.edges))
        )

    def classify(self, decomp: Decomposition) -> np.ndarray:
        """Rectangle label per flattened cell, -1 for transient cells.

        A cell belongs to a rectangle when it overlaps it with positive volume
        in every dimension, so boundary-straddling cells count as absorbing;
        on fine enough grids this keeps the labeled absorbing blocks closed
        under the discrete dynamics (no flow back into the labeled transient
        cells).  Coarse grids can leak; block_leakage measures it.
        """
        per_dim = []
        for j, e in enumerate(self.edges):
            lab = np.full(len(e) - 1, -1, dtype=int)
            for t in decomp.per_dimension[j]:
                hit = np.flatnonzero((e[:-1] < t.r) & (e[1:] > t.l))
                if np.any(lab[hit] >= 0):
                    raise GridTooCoarse(
                        "grid too coarse: a cell overlaps two absorbing intervals"
                    )
                lab[hit] = t.index
            per_dim.append(lab)
        # rectangle number per combination of interval labels; the extra
        # trailing slot per dimension is where label -1 (transient) lands
        table = np.full([len(ts) + 1 for ts in decomp.per_dimension], -1, dtype=int)
        for m, rect in enumerate(decomp.rectangles):
            table[rect.index] = m
        return table[np.ix_(*per_dim)].ravel()


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative cell weights on a grid."""

    grid: Grid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.ncells,):
            raise DimensionMismatch(
                f"weights shape {w.shape} for grid with {self.grid.ncells} cells"
            )
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", np.maximum(w, 0.0))

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def uniform(cls, grid: Grid) -> "DiscreteMeasure":
        return cls(grid, np.full(grid.ncells, 1.0 / grid.ncells))

    @classmethod
    def point_mass(cls, grid: Grid, x) -> "DiscreteMeasure":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for j, e in enumerate(grid.edges):
            k = int(np.clip(np.searchsorted(e, x[j], side="right") - 1, 0, len(e) - 2))
            idx.append(k)
        w = np.zeros(grid.ncells)
        w[np.ravel_multi_index(tuple(idx), grid.shape)] = 1.0
        return cls(grid, w)


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic cell-to-cell transition matrix of the one-step kernel."""

    matrix: sp.csr_matrix
    grid: Grid
    row_sum_error: float


def _map_factor_1d(fam: MapFamily, i: int, j: int, edges: np.ndarray) -> sp.csr_matrix:
    """One-dimensional cell-image transition factor for map i in dimension j.

    Row k holds the fractions of the image interval of cell k falling into
    each grid cell; mass the grid boundary clips off re-enters at the boundary
    cell, and an image wholly outside the grid goes to the nearest boundary
    cell."""
    img = fam.phi[i - 1][j](edges)
    lo = np.minimum(img[:-1], img[1:])
    hi = np.maximum(img[:-1], img[1:])
    n = len(edges) - 1
    a, b = edges[0], edges[-1]
    lo_c, hi_c = np.maximum(lo, a), np.minimum(hi, b)
    outside = hi_c <= lo_c
    first = np.clip(np.searchsorted(edges, lo_c, side="right") - 1, 0, n - 1)
    last = np.clip(np.searchsorted(edges, hi_c, side="left") - 1, 0, n - 1)
    first[outside] = last[outside] = np.where(hi[outside] <= a, 0, n - 1)
    counts = last - first + 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    start = indptr[:-1]
    cols = np.arange(indptr[-1]) + np.repeat(first - start, counts)
    total = hi - lo
    seg = np.maximum(np.minimum(edges[cols + 1], np.repeat(hi_c, counts))
                     - np.maximum(edges[cols], np.repeat(lo_c, counts)), 0.0)
    vals = seg / np.repeat(total, counts)
    # mass shaved off by clipping re-enters at the boundary cell, the lower
    # side first (one cell may take both)
    clipped = total - (hi_c - lo_c) > 0
    low = np.flatnonzero(clipped & (lo < a))
    vals[start[low]] += (a - lo[low]) / total[low]
    high = np.flatnonzero(clipped & (hi > b))
    vals[indptr[high + 1] - 1] += (hi[high] - b) / total[high]
    vals[start[outside]] = 1.0
    return sp.csr_matrix((vals, cols, indptr), shape=(n, n))


def _kron_average(fam: MapFamily, factor_1d, axes) -> sp.csr_matrix:
    """Average over the maps of the Kronecker product of the per-dimension
    factors factor_1d(fam, i, j, axes[j]); separability makes this exact."""
    if len(axes) > MAX_GRID_DIMENSION:
        raise ValueError(
            "dense cell grids are offered up to two dimensions; use trajectory "
            "histograms (sgd_sample) for higher-dimensional problems"
        )
    acc = None
    for i in range(1, fam.n + 1):
        factors = [factor_1d(fam, i, j, axis) for j, axis in enumerate(axes)]
        full = factors[0]
        for f in factors[1:]:
            full = sp.kron(full, f, format="csr")
        acc = full if acc is None else acc + full
    # in place, the bits of acc / n (scipy scales by 1 / n) without its copies
    acc.data *= 1 / fam.n
    return acc.tocsr()


def ulam_assemble(fam: MapFamily, grid: Grid) -> UlamOperator:
    """Assemble the cell-transition matrix.

    Cell images under the separable monotone maps are rectangles obtained from
    the edge images per dimension; each image rectangle spreads its mass over
    target cells in proportion to overlap volume (exact for affine maps).
    """
    if grid.dimension != fam.dimension:
        raise DimensionMismatch("grid and map family dimensions differ")
    matrix = _kron_average(fam, _map_factor_1d, grid.edges)
    err = float(np.max(np.abs(matrix.sum(axis=1) - 1.0)))
    return UlamOperator(matrix=matrix, grid=grid, row_sum_error=err)


def push_forward(op: UlamOperator, mu: DiscreteMeasure) -> DiscreteMeasure:
    """One application of the measure-evolution step."""
    if op.grid != mu.grid:
        raise GridMismatch("operator and measure grids differ")
    return DiscreteMeasure(mu.grid, op.matrix.T @ mu.weights)


def block_leakage(op: UlamOperator, cells: np.ndarray) -> float:
    """Max mass a block row sends outside the block."""
    return _leakage(op.matrix[cells][:, cells])


def _leakage(block) -> float:
    """Max mass a row of the extracted block sends outside it."""
    inside = np.asarray(block.sum(axis=1)).ravel()
    return float(np.max(1.0 - inside)) if block.shape[0] else 0.0


def _default_tol(grid: Grid) -> float:
    return DEFAULT_TOL_1D if grid.dimension == 1 else DEFAULT_TOL_ND


@dataclass(frozen=True)
class InvariantResult:
    measure: DiscreteMeasure
    iterations: int
    residual: float
    leakage: float


def invariant_measure(op: UlamOperator, cells, tol: float | None = None) -> InvariantResult:
    """Fixed probability vector of the restricted absorbing block by power iteration
    from the uniform start, at most DEFAULT_MAX_ITER steps; the change between successive
    iterates is measured in the CDF sup metric (one dimension) or total variation.

    A block that leaks more than LEAKAGE_WARN per step (a grid too coarse
    for it to be closed) logs a warning: its leaked mass is renormalised on
    every step, so the result is quasi-stationary rather than invariant."""
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ValueError("empty cell block")
    if tol is None:
        tol = _default_tol(op.grid)
    distance = cdf_sup if op.grid.dimension == 1 else half_l1
    block = op.matrix[cells][:, cells]
    sub = sp.csr_matrix(block).T
    leak = _leakage(block)
    if leak > LEAKAGE_WARN:
        logging.getLogger(__name__).warning(
            "absorbing block leaks %.2e of its mass per step, so the grid is "
            "too coarse for it to be closed; the measure is quasi-stationary", leak,
        )
    w = np.full(cells.size, 1.0 / cells.size)
    residual = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        w_next = sub @ w
        w_next /= w_next.sum()
        residual = distance(w_next, w)
        w = w_next
        if residual < tol:
            full = np.zeros(op.grid.ncells)
            full[cells] = w
            return InvariantResult(
                measure=DiscreteMeasure(op.grid, full),
                iterations=it,
                residual=residual,
                leakage=leak,
            )
    raise NoConvergence(DEFAULT_MAX_ITER, residual)


def _interp_factor_1d(fam: MapFamily, i: int, j: int, centers: np.ndarray) -> sp.csr_matrix:
    """Linear-interpolation matrix W with (W g)(c) = g(phi_i^{(j)}(center_c))."""
    x = fam.phi[i - 1][j](centers)
    n = len(centers)
    idx = np.clip(np.searchsorted(centers, x) - 1, 0, n - 2)
    left = centers[idx]
    right = centers[idx + 1]
    t = np.clip((x - left) / (right - left), 0.0, 1.0)
    rows = np.repeat(np.arange(n), 2)
    cols = np.empty(2 * n, dtype=int)
    vals = np.empty(2 * n)
    cols[0::2], cols[1::2] = idx, idx + 1
    vals[0::2], vals[1::2] = 1.0 - t, t
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def dual_operator(fam: MapFamily, grid: Grid) -> sp.csr_matrix:
    """Matrix of the function-side operator at cell centers: averaging the map
    images with multilinear interpolation for off-center evaluations."""
    return _kron_average(fam, _interp_factor_1d, grid.centers)


@dataclass(frozen=True)
class BasinFunctions:
    """Grid values of the absorption eigenfunctions, one row per rectangle."""

    grid: Grid
    values: np.ndarray
    iterations: int
    residual: float
    partition_defect: float


def _absorption_order(blocks: MetricConfig) -> np.ndarray:
    """The cells numbered for the absorption kernel: the transient cells
    first, then each rectangle's cells in rectangle order."""
    return np.concatenate((blocks.transient_cells,) + blocks.rectangle_cells)


def _transient_rows(matrix, blocks: MetricConfig) -> sp.csr_matrix:
    """The transient rows of matrix, sliced once, with their column indices
    renumbered in place (in the matrix's own index dtype) to
    _absorption_order.  Each row keeps its entries in their stored order, so
    a product with it sums them in the order of the full matrix's product."""
    rows = matrix[blocks.transient_cells]
    position = np.empty(rows.shape[1], dtype=rows.indices.dtype)
    position[_absorption_order(blocks)] = np.arange(position.size, dtype=position.dtype)
    rows.indices[:] = position[rows.indices]  # np.take would copy them to intp
    rows.has_sorted_indices = False
    return rows


def _absorption_iteration(rows, grid: Grid, blocks: MetricConfig, tol: float) -> BasinFunctions:
    """Iterate g <- M g from the indicators of the rectangles' cell blocks
    until the sup change drops below tol, holding the absorbing cells at
    their indicators: absorption there is certain, even where a coarse grid
    lets a block's rows leak.  rows = _transient_rows(M, blocks), so only the
    transient cells, numbered first (_absorption_order), are updated; the
    values return in cell order once at the end.  The fixed point solves
    (I - M_BB) g_B = M_{B,T_m} 1 on the transient cells B.  With one rectangle
    every path is absorbed by it, so its values are ones and nothing is iterated:
    over a metastable transient well the iteration stalls or stops far below 1."""
    if len(blocks.rectangle_cells) == 1:
        return BasinFunctions(grid=grid, values=np.ones((1, grid.ncells), order="F"),
                              iterations=0, residual=0.0, partition_defect=0.0)
    b = blocks.transient_cells.size
    g = np.zeros((len(blocks.rectangle_cells), grid.ncells))
    end = b
    for m, cells in enumerate(blocks.rectangle_cells):
        g[m, end:end + cells.size] = 1.0
        end += cells.size
    # reused buffers: allocating fresh ones every step page-faults on 2-d grids
    g_next, change = g.copy(), np.empty((g.shape[0], b))
    residual = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        # one product per rectangle gives the bits of one product on an (N, k) C-order
        # array and is no slower: in ulam_absorption on a 2-vCPU Xeon (1 thread, best of
        # 5) equal within noise at 1-d N=4000 and 2-d 300^2, 12% faster at 1-d N=10^4
        for row, out in zip(g, g_next):
            out[:b] = rows @ row
        np.abs(np.subtract(g_next[:, :b], g[:, :b], out=change), out=change)
        residual = float(change.max()) if b else 0.0
        g, g_next = g_next, g
        if residual < tol:
            g_next[:, _absorption_order(blocks)] = g  # back in cell order
            # the layout of (M @ g.T).T: BLAS sums values @ w in layout
            # order, so this keeps the last bits of the mixture coefficients
            values = np.asfortranarray(g_next)
            defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
            return BasinFunctions(grid=grid, values=values, iterations=it, residual=residual,
                                  partition_defect=defect)
    raise NoConvergence(DEFAULT_MAX_ITER, residual)


def basin_functions(fam: MapFamily, grid: Grid, tol: float | None = None) -> BasinFunctions:
    """Absorption eigenfunctions of the exact dual operator, one per rectangle of
    fam.decomposition: the indicator iteration run on the interpolated function-side matrix."""
    if tol is None:
        tol = BASIN_TOL
    config = metric_config(grid, fam.decomposition)
    # only the transient rows are kept: the full dual matrix is freed here
    rows = _transient_rows(dual_operator(fam, grid), config)
    basins = _absorption_iteration(rows, grid, config, tol)
    if basins.partition_defect > 1e-6:
        logging.getLogger(__name__).warning(
            "partition-of-unity defect %.2e: the tolerance is too loose for the "
            "iteration to converge, or the grid too coarse for the transient "
            "dynamics", basins.partition_defect,
        )
    return basins


def dual_residual(fam: MapFamily, basins: BasinFunctions) -> float:
    """Sup norm of one more dual application minus the basin values."""
    dual = dual_operator(fam, basins.grid)
    return float(np.max(np.abs((dual @ basins.values.T).T - basins.values)))


def mixture_coefficients(basins: BasinFunctions, mu0: DiscreteMeasure) -> np.ndarray:
    """Limit weights: integrals of each basin function against mu0."""
    if basins.grid != mu0.grid:
        raise GridMismatch("basin functions and measure grids differ")
    return basins.values @ mu0.weights


def ulam_absorption(op: UlamOperator, blocks: MetricConfig) -> BasinFunctions:
    """Absorption probabilities of the discrete chain itself, one row per
    rectangle block of blocks = metric_config(op.grid, decomp).

    The indicator iteration of basin_functions on the Ulam matrix: its k-th
    iterate is the probability of entering each rectangle within k steps.
    The residual is the last sup change, not an error bound (the error is
    about 1/(1 - r) times larger, r the per-step absorption rate).  These
    coefficients are the ones the discretized evolution converges to, so the
    logged distances in limit mixtures decay to zero rather than plateau at
    the discretization mismatch.
    """
    return _absorption_iteration(_transient_rows(op.matrix, blocks), op.grid, blocks,
                                 ULAM_ABSORPTION_TOL)


@dataclass(frozen=True)
class LimitMixtureResult:
    mixture: DiscreteMeasure
    coefficients: np.ndarray
    invariants: tuple[InvariantResult, ...]
    decay_log: np.ndarray
    envelope_ratio: float


def limit_mixture(op: UlamOperator, decomp: Decomposition, mu0: DiscreteMeasure,
                  k_max: int = 10**4, stop_below: float = 0.0) -> LimitMixtureResult:
    """Assemble the limiting mixture of the discrete chain and log the
    composite distance of the evolving measure to it, step by step: d_tilde
    scores mu0, then the bare weight vector evolves (the bits of push_forward)
    and d_tilde's kernel scores it.  Logs each stage's seconds at INFO."""
    config = metric_config(op.grid, decomp)
    started = time.perf_counter()
    invariants = [invariant_measure(op, cells) for cells in config.rectangle_cells]
    solved = time.perf_counter()
    basins = ulam_absorption(op, config)
    coeff = mixture_coefficients(basins, mu0)
    mix = np.zeros(op.grid.ncells)
    for c, inv in zip(coeff, invariants):
        mix += c * inv.measure.weights
    mu_star = DiscreteMeasure(op.grid, mix)
    absorbed = time.perf_counter()
    step, w, diff = op.matrix.T, mu0.weights, np.empty_like(mu_star.weights)
    log = [d_tilde(mu0, mu_star, config)] if k_max > 0 else []
    while log and not log[-1] < stop_below and len(log) < k_max:
        w = step @ w
        np.subtract(w, mu_star.weights, out=diff)
        log.append(d_tilde_weights(diff, op.grid.shape, config))
    logged = time.perf_counter()
    logging.getLogger(__name__).info(
        "limit_mixture: invariants %.3fs, absorption %.3fs, log %.3fs (%d steps, %.1f us/step)",
        solved - started, absorbed - solved, logged - absorbed, len(log),
        (logged - absorbed) / max(len(log), 1) * 1e6)
    log = np.asarray(log)
    return LimitMixtureResult(
        mixture=mu_star,
        coefficients=coeff,
        invariants=tuple(invariants),
        decay_log=log,
        envelope_ratio=_fitted_envelope_ratio(log, ENVELOPE_FLOOR * _default_tol(op.grid)),
    )


def _fitted_envelope_ratio(log: np.ndarray, floor: float) -> float:
    """Geometric ratio fitted to the decaying tail of the logged distances:
    exp of the least-squares slope of log d_k against k over the second half
    of the steps whose d_k exceeds floor (0.0 when fewer than 4 do).

    The floor is ENVELOPE_FLOOR times the invariant measures' tolerance.  The
    limit mixture is only as accurate as its invariant measures, whose power
    iterations stop once a step changes them by less than that tolerance, so
    the logged distances level off near it (8e-11 on the double well at
    tol 1e-10; 4.9e-9 at eta = 0.01, where the blocks mix slowly); fitted
    there, the flat tail reads 1.0.  The ratio estimates the observed decay;
    it is not a bound."""
    live = np.flatnonzero(log > floor)
    if live.size < 4:
        return 0.0
    tail = live[live.size // 2:]
    slope = np.polyfit(tail.astype(float), np.log(log[tail]), 1)[0]
    return float(np.exp(slope))
