"""Ulam discretization of the measure-evolution operator, invariant measures
per absorbing block, basin eigenfunctions of the dual operator, and mixture
limits with logged convergence."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided

from .absorbing import Decomposition
from .dynamics import MapFamily
from .errors import DimensionMismatch, GridMismatch, GridTooCoarse, NoConvergence
from .metrics import MetricConfig, cdf_sup, d_tilde, d_tilde_weights, half_l1, metric_config

DEFAULT_TOL_1D = 1e-10
DEFAULT_TOL_ND = 1e-8
DEFAULT_MAX_ITER = 10**6
# the iteration's last sup change understates its absorption error ~100x at
# eta = 0.01; 1e-14 keeps an iterated ulam_absorption within ~1e-12 of the
# exact linear solve
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
# widest half-bandwidth w solved by GTH elimination rather than iterated: the
# elimination costs about w^2 per cell, while the iteration's step count falls
# as 1/w; on the double well at N = 4000 GTH is the faster at w = 27 and the
# slower at w = 40
GTH_MAX_BAND = 32


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


def _entry_rows(matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order and in
    the matrix's index dtype."""
    return np.repeat(np.arange(matrix.shape[0], dtype=matrix.indices.dtype),
                     np.diff(matrix.indptr))


def _half_bandwidth(rows: np.ndarray, cols: np.ndarray, where=True) -> int:
    """Largest |column - row| over the entries at (rows, cols) where `where`
    holds; 0 for none."""
    offsets = cols - rows
    return int(np.max(np.abs(offsets, out=offsets), where=where, initial=0))


def _gth_eliminate(store: np.ndarray, w: int, pivots: int) -> np.ndarray | None:
    """GTH state reduction (Grassmann, Taksar & Heyman 1985) of the first
    `pivots` states of a chain, in order, in place on row band storage: row i
    of store holds the chain's entries (i, i - w .. i + w), then its exits
    (one column per absorbing set), and w + 1 zero rows pad the end.  Each
    state k passes its mass on to the states after it, (i, j) += m_ik (k, j)
    with the multiplier m_ik = (i, k) / S_k left in place of (i, k), where the
    pivot S_k is the sum of k's remaining row and exits, never 1 - (k, k): no
    step subtracts.  Returns the pivots (1 for the states not eliminated), or
    None at a zero pivot, which a closed class makes."""
    width = store.shape[1]
    flat = store.reshape(-1)
    step = flat.itemsize
    # entry (k + r, k + s), r and s in 0..w, sits at flat[k width + r (width - 1) + s + w]
    window = as_strided(flat[w:], shape=(pivots, w + 1, w + 1),
                        strides=(width * step, (width - 1) * step, step))
    below, ahead, trail = window[:, 1:, :1], window[:, 0, 1:], window[:, 1:, 1:]
    # state k's remaining row (k, k + 1 .. k + w) and its exits are contiguous
    rest = as_strided(flat[w + 1:], shape=(pivots, width - w - 1), strides=(width * step, step))
    exits = store[:, 2 * w + 1:]
    exits_below = as_strided(exits[1:], shape=(pivots, w, exits.shape[1]),
                             strides=(width * step, width * step, step))
    has_exits = exits.shape[1] > 0
    pivot = np.ones(store.shape[0] - w - 1)
    for k in range(pivots):
        s = np.add.reduce(rest[k])
        if not s > 0:
            return None
        share = below[k]
        share /= s
        trail[k] += share * ahead[k]
        if has_exits:
            exits_below[k] += share * exits[k]
        pivot[k] = s
    return pivot


def _band_store(rows: np.ndarray, columns: np.ndarray, values: np.ndarray, n: int, w: int,
                width: int) -> np.ndarray:
    """The (n + w + 1, width) store of _gth_eliminate holding values at
    (rows, columns), columns already shifted to the store's (c - r + w for
    a band entry); repeated positions are summed."""
    return np.bincount(np.multiply(rows, width, dtype=np.intp) + columns, weights=values,
                       minlength=(n + w + 1) * width).reshape(-1, width)


def _gth_stationary(block, w: int) -> np.ndarray | None:
    """Stationary probability vector of an n-state CSR block with
    half-bandwidth w: GTH eliminates its first n - 1 states, then
    back-substitution from pi = 1 at the last state gives pi_k = sum_i pi_i
    m_ik over the states i after k; None at a zero pivot."""
    n, width, rows = block.shape[0], 2 * w + 1, _entry_rows(block)
    store = _band_store(rows, block.indices - rows + w, block.data, n, w, width)
    if _gth_eliminate(store, w, n - 1) is None:
        return None
    # the multipliers m_(k + r)k, r in 1..w, that column k holds below the pivot
    step = store.itemsize
    shares = as_strided(store.reshape(-1)[w + width - 1:], shape=(n, w),
                        strides=(width * step, (width - 1) * step))
    pi = np.zeros(n + w)
    pi[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        pi[k] = shares[k] @ pi[k + 1:k + w + 1]
    return pi[:n] / pi[:n].sum()


def invariant_measure(op: UlamOperator, cells, tol: float | None = None) -> InvariantResult:
    """Fixed probability vector of the restricted absorbing block.

    Where the block's half-bandwidth w (read off its entries) is at most
    GTH_MAX_BAND, GTH elimination solves for it directly (iterations 0),
    with small componentwise relative error and no stop rule.  Otherwise,
    and at a zero pivot, power iteration from the uniform start runs until
    one step changes the measure by less than tol, at most DEFAULT_MAX_ITER
    steps; the change is measured in the CDF sup metric (one dimension) or
    total variation.  Either way the residual is that change, one step
    further from the result: an estimate, not an error bound, since the
    error can be larger by about 1/(1 - |lambda_2|).

    A block that leaks more than LEAKAGE_WARN per step (a grid too coarse
    for it to be closed) logs a warning and is iterated: its leaked mass is
    renormalised on every step, so the result is quasi-stationary rather
    than invariant.  Logs its solver at INFO."""
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ValueError("empty cell block")
    if tol is None:
        tol = _default_tol(op.grid)
    distance = cdf_sup if op.grid.dimension == 1 else half_l1
    block = op.matrix[cells][:, cells]
    sub = sp.csr_matrix(block).T
    leak = _leakage(block)
    logger = logging.getLogger(__name__)
    if leak > LEAKAGE_WARN:
        logger.warning(
            "absorbing block leaks %.2e of its mass per step, so the grid is "
            "too coarse for it to be closed; the measure is quasi-stationary", leak,
        )
    band = _half_bandwidth(_entry_rows(block), block.indices)
    w = _gth_stationary(block, band) if leak <= LEAKAGE_WARN and band <= GTH_MAX_BAND else None
    if w is not None:
        logger.info("invariant_measure: gth (n=%d, w=%d)", cells.size, band)
        w_next = sub @ w
        w_next /= w_next.sum()
        iterations, residual = 0, distance(w_next, w)
    else:
        w, iterations, residual = _power_iteration(sub, tol, distance)
        logger.info("invariant_measure: iteration (%d steps)", iterations)
    full = np.zeros(op.grid.ncells)
    full[cells] = w
    return InvariantResult(measure=DiscreteMeasure(op.grid, full), iterations=iterations,
                           residual=residual, leakage=leak)


def _power_iteration(sub, tol: float, distance) -> tuple[np.ndarray, int, float]:
    """(w, steps, last change) of w <- sub w / |sub w| from the uniform start,
    stopped once a step changes w by less than tol in distance; raises
    NoConvergence after DEFAULT_MAX_ITER steps."""
    w = np.full(sub.shape[0], 1.0 / sub.shape[0])
    residual = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        w_next = sub @ w
        w_next /= w_next.sum()
        residual = distance(w_next, w)
        w = w_next
        if residual < tol:
            return w, it, residual
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


def _indicators(grid: Grid, blocks: MetricConfig) -> np.ndarray:
    """One row per rectangle, in _absorption_order: the indicator of the
    rectangle's cells, zero on the transient cells."""
    g = np.zeros((len(blocks.rectangle_cells), grid.ncells))
    end = blocks.transient_cells.size
    for m, cells in enumerate(blocks.rectangle_cells):
        g[m, end:end + cells.size] = 1.0
        end += cells.size
    return g


def _basins(g, grid: Grid, blocks: MetricConfig, iterations: int,
            residual: float) -> BasinFunctions:
    """BasinFunctions of the values g, given in _absorption_order."""
    # in the layout of (M @ g.T).T: BLAS sums values @ w in layout order, so
    # this keeps the last bits of the mixture coefficients
    values = np.empty(g.shape, order="F")
    values[:, _absorption_order(blocks)] = g  # back in cell order
    defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
    return BasinFunctions(grid=grid, values=values, iterations=iterations, residual=residual,
                          partition_defect=defect)


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
    g = _indicators(grid, blocks)
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
            return _basins(g, grid, blocks, it, residual)
    raise NoConvergence(DEFAULT_MAX_ITER, residual)


def _gth_absorption(rows, blocks: MetricConfig, w: int) -> np.ndarray | None:
    """Absorption probabilities of the b transient cells, (b, rectangles), from
    rows = _transient_rows(M, blocks) with half-bandwidth w among the transient
    cells: GTH eliminates them in grid order, each rectangle's cells folded
    into one exit column, then back-substitution gives g_k = (y_k + sum_j
    (k, j) g_j) / S_k over the cells j after k, y_k being k's exits as reduced;
    None at a zero pivot."""
    b, columns, entry_rows = rows.shape[0], rows.indices, _entry_rows(rows)
    width = 2 * w + 1 + len(blocks.rectangle_cells)
    # rectangle m's cells are numbered from starts[m] in _absorption_order
    starts = b + np.cumsum([0] + [cells.size for cells in blocks.rectangle_cells[:-1]])
    shifted = np.where(columns < b, columns - entry_rows + w,
                       2 * w + np.searchsorted(starts, columns, side="right"))
    store = _band_store(entry_rows, shifted, rows.data, b, w, width)
    pivot = _gth_eliminate(store, w, b)
    if pivot is None:
        return None
    scaled = store[:b, w + 1:] / pivot[:, None]
    ahead, exits = scaled[:, :w], scaled[:, w:]
    g = np.zeros((b + w, exits.shape[1]))
    for k in range(b - 1, -1, -1):
        g[k] = exits[k] + ahead[k] @ g[k + 1:k + w + 1]
    return g[:b]


def _absorption(rows, grid: Grid, blocks: MetricConfig, tol: float, name: str) -> BasinFunctions:
    """The absorption probabilities for basin_functions and ulam_absorption
    (name), from rows = _transient_rows(M, blocks).  With two or more
    rectangles and a half-bandwidth among the transient cells of at most
    GTH_MAX_BAND, GTH solves for them directly: iterations 0, and a residual
    that is the sup change one more step of the iteration would make.
    Otherwise, and at a zero pivot (a closed class among the transient
    cells), _absorption_iteration runs to tol.  Logs the solver at INFO."""
    b = rows.shape[0]
    w = _half_bandwidth(_entry_rows(rows), rows.indices, where=rows.indices < b)
    logger = logging.getLogger(__name__)
    if len(blocks.rectangle_cells) > 1 and b and w <= GTH_MAX_BAND:
        g_b = _gth_absorption(rows, blocks, w)
        if g_b is not None:
            logger.info("%s: gth (n=%d, w=%d)", name, b, w)
            g = _indicators(grid, blocks)
            g[:, :b] = g_b.T
            residual = max(float(np.max(np.abs(rows @ row - row[:b]))) for row in g)
            return _basins(g, grid, blocks, 0, residual)
    basins = _absorption_iteration(rows, grid, blocks, tol)
    logger.info("%s: iteration (%d steps)", name, basins.iterations)
    return basins


def basin_functions(fam: MapFamily, grid: Grid, tol: float | None = None) -> BasinFunctions:
    """Absorption eigenfunctions of the exact dual operator, one per rectangle
    of fam.decomposition: the absorption probabilities of the interpolated
    function-side matrix, by GTH elimination where its transient band is
    narrow and otherwise by the indicator iteration run to tol (BASIN_TOL
    by default); see _absorption.  The residual is the sup change one more
    step of the iteration would make, not an error bound."""
    if tol is None:
        tol = BASIN_TOL
    config = metric_config(grid, fam.decomposition)
    # only the transient rows are kept: the full dual matrix is freed here
    rows = _transient_rows(dual_operator(fam, grid), config)
    basins = _absorption(rows, grid, config, tol, "basin_functions")
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

    Solved as in basin_functions, on the Ulam matrix: by GTH elimination
    where the transient band is narrow, otherwise by the indicator
    iteration, whose k-th iterate is the probability of entering each
    rectangle within k steps, run to ULAM_ABSORPTION_TOL.  The residual is
    the sup change one more step of that iteration would make at the
    result, not an error bound (the iteration's error is about 1/(1 - r)
    times larger, r the per-step absorption rate).  These coefficients are
    the ones the discretized evolution converges to, so the logged
    distances in limit mixtures decay to zero rather than plateau at the
    discretization mismatch.
    """
    return _absorption(_transient_rows(op.matrix, blocks), op.grid, blocks,
                       ULAM_ABSORPTION_TOL, "ulam_absorption")


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
    limit mixture is only as accurate as its invariant measures.  Where they
    iterate, their power iterations stop once a step changes them by less
    than that tolerance, so the logged distances level off near it (8e-11 on
    the double well at tol 1e-10); fitted there, the flat tail reads 1.0.
    Where GTH solves them the distances decay below the floor to rounding.
    The ratio estimates the observed decay; it is not a bound."""
    live = np.flatnonzero(log > floor)
    if live.size < 4:
        return 0.0
    tail = live[live.size // 2:]
    slope = np.polyfit(tail.astype(float), np.log(log[tail]), 1)[0]
    return float(np.exp(slope))
