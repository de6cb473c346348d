"""Ulam discretization of the measure-evolution operator, invariant measures
per absorbing block, basin eigenfunctions of the dual operator, and mixture
limits with logged convergence."""

from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided

from .absorbing import Decomposition
from .dynamics import MapFamily
from .errors import DimensionMismatch, GridMismatch, GridTooCoarse, NoConvergence
from .metrics import (
    MetricConfig,
    cdf_sup,
    d_tilde,
    d_tilde_rows,
    half_l1,
    label_blocks,
    metric_config,
)

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
# widest half-bandwidth w of an absorbing block whose invariant measure GTH
# elimination solves rather than the power iteration: the elimination costs
# about w^2 per cell, while the iteration's step count falls as 1/w; on the
# double well at N = 4000 GTH is the faster at w = 27 and the slower at w = 40
GTH_MAX_BAND = 32
# absorption is solved directly, by _banded_solve, where w^3 <= this times b
# (w the half-bandwidth among the b transient cells), and iterated otherwise:
# the direct work grows as b w^2 and the iteration's falls as the band
# widens; on the double well at eta = 0.33, N = 1000 (w = 102) the direct
# solve took 3.3 ms and the iteration 3.0 ms, a crossover near 2000 b
BANDED_WORK_RATIO = 1000
# and where its factor is at most this many times the non-zeros: 4.5 at eta =
# 0.01, N = 4000, 17 at eta = 0.002, N = 10^5, 84 (146 MB) at eta = 0.01, N = 10^5
BANDED_FILL_RATIO = 32
# smallest block of _banded_solve: a narrower one pays more Python steps
# than its smaller solves save
BANDED_MIN_BLOCK = 16
# _gth_stationary rescales its back-substitution by this power of two
GTH_RESCALE = 2.0**600
# cells in limit_mixture's block of logged iterates (512 KB of doubles)
LOG_BLOCK_CELLS = 2**16


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

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Grid)
            and self.shape == other.shape
            and all(np.array_equal(a, b) for a, b in zip(self.edges, other.edges))
        )

    def axis_labels(self, decomp: Decomposition) -> tuple[np.ndarray, ...]:
        """Per axis, the absorbing interval of each of its cells (the
        interval's index in its dimension), -1 for none: an interval owns
        the cells of _owned_cells; raises GridTooCoarse where a cell
        overlaps two."""
        per_dim = []
        for j, e in enumerate(self.edges):
            lab = np.full(len(e) - 1, -1, dtype=int)
            for t in decomp.per_dimension[j]:
                owned = lab[_owned_cells(e, t)]
                if np.any(owned >= 0):
                    raise GridTooCoarse(
                        "grid too coarse: a cell overlaps two absorbing intervals"
                    )
                owned[:] = t.index
            per_dim.append(lab)
        return tuple(per_dim)

    def classify(self, decomp: Decomposition) -> np.ndarray:
        """Rectangle label per flattened cell, -1 for transient cells.

        A cell belongs to a rectangle when it belongs to the rectangle's
        interval on every axis (axis_labels), so boundary-straddling cells
        count as absorbing; on fine enough grids this keeps the labeled
        absorbing blocks closed under the discrete dynamics (no flow back
        into the labeled transient cells).  Coarse grids can leak;
        _leakage measures it.
        """
        # rectangle number per combination of interval labels; the extra
        # trailing slot per dimension is where label -1 (transient) lands
        table = np.full([len(ts) + 1 for ts in decomp.per_dimension], -1, dtype=int)
        for m, rect in enumerate(decomp.rectangles):
            table[rect.index] = m
        return table[np.ix_(*self.axis_labels(decomp))].ravel()


def _owned_cells(edges: np.ndarray, t) -> slice:
    """The run of cells, with these edges, that the absorbing interval t
    owns: those overlapping [t.l, t.r] with positive length, so
    boundary-straddling cells count as absorbing and a cell that only
    touches l or r does not."""
    lo = max(int(np.searchsorted(edges, t.l, side="right")) - 1, 0)
    return slice(lo, min(int(np.searchsorted(edges, t.r, side="left")), len(edges) - 1))


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


def _product_cells(sets, shape) -> np.ndarray:
    """The flattened cells of the product of the per-axis index sets, in
    row-major order, on a grid of the given shape."""
    return np.ravel_multi_index(np.ix_(*sets), shape).ravel()


def _kron_average(factors, rows=None, columns=None) -> sp.csr_matrix:
    """Average over the maps of the Kronecker product of each map's 1-d
    factors, factors[i] listing map i + 1's, one per axis; separability
    makes this exact.  Given per-axis index sets (or slices), rows (and
    columns), only the rows (and columns) of the cells of their product set,
    in row-major order, are assembled: each factor is sliced before the
    products, which gives the bits of slicing the whole average."""
    acc = None
    for per_axis in factors:
        full = None
        for j, f in enumerate(per_axis):
            f = f if rows is None else f[rows[j]]
            f = f if columns is None else f[:, columns[j]]
            full = f if full is None else sp.kron(full, f, format="csr")
        acc = full if acc is None else acc + full
    # in place, the bits of acc / n (scipy scales by 1 / n) without its copies
    acc.data *= 1 / len(factors)
    return acc.tocsr()


@dataclass(frozen=True, eq=False)
class SeparableOperator:
    """A cell chain of fam on grid, the average over the maps of the
    Kronecker products of the 1-d factors factor(fam, i, j, edges) of map i
    on axis j: the Ulam operator (ulam_operator) or the dual
    (dual_operator).  Nothing is assembled until asked for: rows(sets) and
    block(cells) assemble product sets of cells, marginal(j) axis j's own
    chain and matrix the whole, all from the factors, each built once.  In
    two dimensions the factors, O(n) entries per axis against the matrix's
    O(n^2), stay beside it for the faces' marginals; in one they are as
    large as it and are dropped once it exists.  Once matrix exists, rows
    and blocks are sliced from it with the same bits.  nnz lists the
    non-zeros of everything assembled, in order."""

    fam: MapFamily
    grid: Grid
    factor: Callable[..., sp.csr_matrix]
    nnz: list = field(default_factory=list, init=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.grid.dimension != self.fam.dimension:
            raise DimensionMismatch("grid and map family dimensions differ")
        if self.grid.dimension > MAX_GRID_DIMENSION:
            raise ValueError("dense cell grids are offered up to two dimensions; use trajectory "
                             "histograms (sgd_sample) for higher-dimensional problems")

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        matrix = self._average(range(self.grid.dimension))
        if self.grid.dimension == 1:
            self._factors.clear()
        return matrix

    @cached_property
    def row_sum_error(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))

    def rows(self, sets) -> sp.csr_matrix:
        """The rows of the product of the per-axis index sets (_product_cells)."""
        if "matrix" in vars(self):
            return self.matrix[_product_cells(sets, self.grid.shape)]
        return self._average(range(self.grid.dimension), sets)

    def block(self, cells) -> sp.csr_matrix:
        """The rows and columns of cells, a box of the grid (one run of cells
        per axis, in row-major order, as metric_config gives a rectangle's)."""
        # the cells' bounding box, which they fill, in order, when they are
        # as many as its cells and increasing
        box = tuple(slice(i.min(), i.max() + 1) for i in np.unravel_index(cells, self.grid.shape))
        if np.prod([b.stop - b.start for b in box]) != cells.size or np.any(np.diff(cells) <= 0):
            raise ValueError("the cells are not a box of the grid in row-major order")
        if "matrix" in vars(self):
            return self.matrix[cells][:, cells]
        return self._average(range(self.grid.dimension), box, box)

    def marginal(self, j: int) -> sp.csr_matrix:
        """Axis j's own chain, the average of its factors alone: the chain
        lumped over the other axes (Kemeny & Snell 1960), up to rounding,
        since their factors' rows sum to 1."""
        return self._average((j,))

    def _average(self, axes, rows=None, columns=None) -> sp.csr_matrix:
        """_kron_average on the factors of axes, recorded in nnz; each factor
        is built once and kept (see the class)."""
        maps = range(1, self.fam.n + 1)
        for i in maps:
            for j in axes:
                if (i, j) not in self._factors:
                    self._factors[i, j] = self.factor(self.fam, i, j, self.grid.edges[j])
        part = _kron_average([[self._factors[i, j] for j in axes] for i in maps], rows, columns)
        self.nnz.append(part.nnz)
        return part


def ulam_operator(fam: MapFamily, grid: Grid) -> SeparableOperator:
    """The cell-transition operator, unassembled.

    Cell images under the separable monotone maps are rectangles obtained from
    the edge images per dimension; each image rectangle spreads its mass over
    target cells in proportion to overlap volume (exact for affine maps).
    """
    return SeparableOperator(fam, grid, _map_factor_1d)


def ulam_assemble(fam: MapFamily, grid: Grid) -> SeparableOperator:
    """ulam_operator with its matrix assembled."""
    op = ulam_operator(fam, grid)
    op.matrix
    return op


# kept though only tests call it: perfbench/tracer.py traces it and raises if it goes
def push_forward(op: SeparableOperator, mu: DiscreteMeasure) -> DiscreteMeasure:
    """One application of the measure-evolution step."""
    if op.grid != mu.grid:
        raise GridMismatch("operator and measure grids differ")
    return DiscreteMeasure(mu.grid, op.matrix.T @ mu.weights)


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


def _half_bandwidth(rows: np.ndarray, cols: np.ndarray) -> int:
    """Largest |column - row| over the entries at (rows, cols); 0 for none."""
    offsets = cols - rows
    return int(np.max(np.abs(offsets, out=offsets), initial=0))


def _gth_eliminate(store: np.ndarray, w: int, pivots: int) -> bool:
    """GTH state reduction (Grassmann, Taksar & Heyman 1985) of the first
    `pivots` states of a chain, in order, in place on row band storage
    (_band_store): row i of store holds the chain's entries (i, i - w .. i +
    w), and w + 1 zero rows pad the end.  Each state k passes its mass on to
    the states after it, (i, j) += m_ik (k, j) with the multiplier m_ik =
    (i, k) / S_k left in place of (i, k), where the pivot S_k is the sum of
    k's remaining row, never 1 - (k, k): no step subtracts.  False at a zero
    pivot, which a closed class makes."""
    width = store.shape[1]
    flat = store.reshape(-1)
    step = flat.itemsize
    # entry (k + r, k + s), r and s in 0..w, sits at flat[k width + r (width - 1) + s + w]
    window = as_strided(flat[w:], shape=(pivots, w + 1, w + 1),
                        strides=(width * step, (width - 1) * step, step))
    below, ahead, trail = window[:, 1:, :1], window[:, 0, 1:], window[:, 1:, 1:]
    for k in range(pivots):
        s = np.add.reduce(ahead[k])
        if not s > 0:
            return False
        share = below[k]
        share /= s
        trail[k] += share * ahead[k]
    return True


def _band_store(rows: np.ndarray, columns: np.ndarray, values: np.ndarray, n: int,
                w: int) -> np.ndarray:
    """The (n + w + 1, 2w + 1) store of _gth_eliminate holding values at
    (rows, columns) of an n-state chain with half-bandwidth w, columns
    already shifted to the store's (c - r + w); repeated positions are
    summed."""
    width = 2 * w + 1
    return np.bincount(np.multiply(rows, width, dtype=np.intp) + columns, weights=values,
                       minlength=(n + w + 1) * width).reshape(-1, width)


def _gth_stationary(block, w: int) -> np.ndarray | None:
    """Stationary probability vector of an n-state CSR block with
    half-bandwidth w: GTH eliminates its first n - 1 states, then
    back-substitution from pi = 1 at the last state gives pi_k = sum_i pi_i
    m_ik over the states i after k.  A measure can span more than the range
    of a double (1e-321 from end to peak at eta = 0.001), so whenever an
    entry passes GTH_RESCALE the tail computed so far is divided by it, an
    exact power of two that keeps the tail's ratios (the recurrence is
    linear).  None at a zero pivot, or where the result is not a finite
    probability vector all the same."""
    n, rows = block.shape[0], _entry_rows(block)
    store = _band_store(rows, block.indices - rows + w, block.data, n, w)
    if not _gth_eliminate(store, w, n - 1):
        return None
    # the multipliers m_(k + r)k, r in 1..w, that column k holds below the pivot
    width, step = store.shape[1], store.itemsize
    shares = as_strided(store.reshape(-1)[w + width - 1:], shape=(n, w),
                        strides=(width * step, (width - 1) * step))
    pi = np.zeros(n + w)
    pi[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        pi[k] = shares[k] @ pi[k + 1:k + w + 1]
        if pi[k] > GTH_RESCALE:
            pi[k:n] /= GTH_RESCALE
    total = pi[:n].sum()
    if not 0 < total < np.inf:
        return None
    pi = pi[:n] / total
    return pi if np.all(np.isfinite(pi)) else None


def invariant_measure(op: SeparableOperator, cells,
                      tol: float | None = None) -> InvariantResult:
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
    than invariant.  op is the Ulam operator (ulam_operator), whose block
    of the cells is assembled alone unless its matrix exists.  Logs its
    solver at INFO."""
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ValueError("empty cell block")
    if tol is None:
        tol = _default_tol(op.grid)
    distance = cdf_sup if op.grid.dimension == 1 else half_l1
    block = op.block(cells)
    sub = sp.csr_matrix(block).T
    leak = _leakage(block)
    logger = logging.getLogger(__name__)
    if leak > LEAKAGE_WARN:
        logger.warning(
            "absorbing block leaks %.2e of its mass per step, so the grid is "
            "too coarse for it to be closed; the measure is quasi-stationary", leak,
        )
    band = _half_bandwidth(_entry_rows(block), block.indices)

    def step(w):
        w_next = sub @ w
        w_next /= w_next.sum()
        return w_next, distance(w_next, w)

    w = _gth_stationary(block, band) if leak <= LEAKAGE_WARN and band <= GTH_MAX_BAND else None
    if w is not None:
        logger.info("invariant_measure: gth (n=%d, w=%d)", cells.size, band)
        iterations, residual = 0, step(w)[1]
    else:
        w, iterations, residual = _iterate(step, np.full(cells.size, 1.0 / cells.size), tol)
        logger.info("invariant_measure: iteration (%d steps)", iterations)
    full = np.zeros(op.grid.ncells)
    full[cells] = w
    return InvariantResult(measure=DiscreteMeasure(op.grid, full), iterations=iterations,
                           residual=residual, leakage=leak)


def _iterate(step, x, tol: float) -> tuple[np.ndarray, int, float]:
    """(x, steps, change) of x, change = step(x), run until the change drops
    below tol: the one loop that iterates a chain, and its one stop rule.
    Raises NoConvergence after DEFAULT_MAX_ITER steps."""
    change = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        x, change = step(x)
        if change < tol:
            return x, it, change
    raise NoConvergence(DEFAULT_MAX_ITER, change)


def _interp_factor_1d(fam: MapFamily, i: int, j: int, edges: np.ndarray) -> sp.csr_matrix:
    """Linear-interpolation matrix W with (W g)(c) = g(phi_i^{(j)}(center_c))
    at the centres of the cells with these edges.  The image of a cell in an
    absorbing interval's block (Grid.axis_labels) is first clamped to the
    block's range of centres: on [l, r] the basin function is the indicator,
    so the clamp changes no value there, and it keeps the block's rows
    inside the block, where a boundary-straddling cell or an image past the
    block's last centre would otherwise interpolate with a transient centre."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = fam.phi[i - 1][j](centers)
    n = len(centers)
    for t in fam.decomposition.per_dimension[j]:
        block = _owned_cells(edges, t)
        np.clip(x[block], centers[block.start], centers[block.stop - 1], out=x[block])
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


def dual_operator(fam: MapFamily, grid: Grid) -> SeparableOperator:
    """The function-side operator at cell centers, unassembled: averaging the
    map images with multilinear interpolation for off-center evaluations."""
    return SeparableOperator(fam, grid, _interp_factor_1d)


@dataclass(frozen=True)
class BasinFunctions:
    """Grid values of the absorption eigenfunctions, one row per rectangle."""

    grid: Grid
    values: np.ndarray
    iterations: int
    residual: float
    partition_defect: float


def _split_rows(rows, transient: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(R, H) of rows, the transient cells' rows (columns in cell order): R
    their entries in the transient columns, numbered by place in transient,
    H the rest, columns kept.  Each row keeps its stored order, so H @ v sums
    as rows @ v does wherever v is 0 on the transient cells."""
    place = np.full(rows.shape[1], -1, dtype=rows.indices.dtype)
    place[transient] = np.arange(transient.size, dtype=place.dtype)
    columns = place[rows.indices]
    inside = columns >= 0
    kept = np.concatenate(([0], np.cumsum(inside, dtype=rows.indptr.dtype)))[rows.indptr]
    return (sp.csr_matrix((rows.data[inside], columns[inside], kept), shape=(transient.size,) * 2),
            sp.csr_matrix((rows.data[~inside], rows.indices[~inside], rows.indptr - kept),
                          shape=rows.shape))


def _absorption_step(R, f: np.ndarray):
    """_iterate's step x <- R x + f on (k, b) arrays, and its sup change.  A
    call writes into the array given to the call before it, the first call
    into a fresh one."""
    # reused buffers: allocating fresh ones every step page-faults on 2-d grids
    spare, change = [np.empty_like(f)], np.empty_like(f)

    def step(x):
        x_next = spare.pop()
        # one product per row gives the bits of one product on a (b, k) array and was no
        # slower (2-vCPU Xeon, 1 thread: equal at 1-d N=4000, 12% faster at N=10^4)
        for row, entry, out in zip(x, f, x_next):
            np.add(R @ row, entry, out=out)
        np.abs(np.subtract(x_next, x, out=change), out=change)
        spare.append(x)
        return x_next, float(change.max())

    return step


def _banded_solve(R, entry_rows: np.ndarray, f: np.ndarray, m: int) -> np.ndarray:
    """The solution x, (k, b), of (I - R) x = f, R (b, b) with entry_rows =
    _entry_rows(R), every entry of which lies within m of the diagonal:
    block tridiagonal elimination (Golub & Van Loan, Matrix Computations,
    4.5) over blocks of m cells, the last padded with identity rows.  Block
    row i's entries, an m x 3m slab over blocks i - 1, i and i + 1, are
    gathered by one bincount when the elimination reaches it; one
    np.linalg.solve of its pivot block D_i = I - R_i,i - R_i,i-1 C_i-1 gives
    [C_i | z_i] = D_i^-1 [R_i,i+1 | f_i + R_i,i-1 z_i-1], kept as the
    factor, and back-substitution gives x_i = z_i + C_i x_i+1.  Raises
    LinAlgError at a singular pivot block."""
    k, b = f.shape
    blocks = -(-b // m)
    # each entry's place in its block row's slab
    slot = entry_rows % m * (3 * m) + R.indices - (entry_rows // m - 1) * m
    factor = np.zeros((blocks, m, m + k))
    factor.reshape(-1, m + k)[:b, m:] = f.T
    eye = np.eye(m)
    for i in range(blocks):
        lo, hi = R.indptr[i * m], R.indptr[min(i * m + m, b)]
        slab = np.bincount(slot[lo:hi], weights=R.data[lo:hi],
                           minlength=3 * m * m).reshape(m, 3 * m)
        pivot, rhs = eye - slab[:, m:2 * m], factor[i]
        rhs[:, :m] = slab[:, 2 * m:]
        if i:
            pivot -= slab[:, :m] @ factor[i - 1, :, :m]
            rhs[:, m:] += slab[:, :m] @ factor[i - 1, :, m:]
        rhs[:] = np.linalg.solve(pivot, rhs)
    x = np.empty((blocks * m, k))
    x[-m:] = factor[-1, :, m:]
    for i in range(blocks - 2, -1, -1):
        x[i * m:i * m + m] = factor[i, :, m:] + factor[i, :, :m] @ x[i * m + m:i * m + 2 * m]
    return x[:b].T


def _absorption_solve(R, f: np.ndarray, nnz: int,
                      tol: float) -> tuple[np.ndarray, int, float, str]:
    """(x, steps, residual, solver) of (I - R) x = f, x and f (k, b): the
    absorption probabilities of k sets from b transient cells, R the chain
    among them and f its one-step entry into each set (Kemeny & Snell 1960);
    the one place an absorption system picks its solver, named as its INFO
    line names it.  "none" with no transient cell.  "banded (...)" by
    _banded_solve where w^3 <= BANDED_WORK_RATIO b (w R's half-bandwidth)
    and its factor's b (m + k) doubles, m = max(w, BANDED_MIN_BLOCK), are at
    most BANDED_FILL_RATIO times nnz, the transient rows' non-zeros with the
    held columns: 0 steps, values clipped to [0, 1] (the exact ones lie
    there), residual the change of one more step.  Otherwise, and where the
    solve fails, is not finite or lands outside [-1e-12, 1 + 1e-12] (a
    closed class among the transient cells), "iteration (...)": _iterate
    from 0 on _absorption_step."""
    k, b = f.shape
    if not b:
        return f, 0, 0.0, "none"
    step = _absorption_step(R, f)
    entry_rows = _entry_rows(R)
    w = _half_bandwidth(entry_rows, R.indices)
    m = max(w, BANDED_MIN_BLOCK)
    if w**3 <= BANDED_WORK_RATIO * b and b * (m + k) <= BANDED_FILL_RATIO * nnz:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = _banded_solve(R, entry_rows, f, m)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):  # NaN fails too
            x = np.clip(x, 0.0, 1.0)
            return x, 0, step(x)[1], f"banded (n={b}, w={w}, m={m})"
    x, steps, residual = _iterate(step, np.zeros_like(f), tol)
    return x, steps, residual, f"iteration ({steps} steps)"


def _indicator_absorption(rows, blocks: MetricConfig,
                          tol: float) -> tuple[np.ndarray, int, float, str]:
    """(values, steps, residual, solver) of the absorption probabilities of
    a cell chain whose rows at cells are rows(cells) (columns in cell
    order), the solver as its INFO line names it.  With one rectangle every
    path is absorbed by it, so its values are ones and nothing is solved or
    read ("ones"): over a metastable transient well the iteration stalls or
    stops far below 1.  Otherwise _absorption_solve solves (I - M_BB) g_B =
    M_{B,T_m} 1 on the transient cells B from the rectangles' indicators:
    absorption there is certain, even where a coarse grid lets a block leak."""
    transient, k = blocks.transient_cells, len(blocks.rectangle_cells)
    # in the layout of (M @ g.T).T: BLAS sums values @ w in layout order, so
    # this keeps the last bits of the mixture coefficients
    values = np.zeros((k, transient.size + sum(map(np.size, blocks.rectangle_cells))), order="F")
    if k == 1:
        values[:] = 1.0
        return values, 0, 0.0, "ones"
    for m, cells in enumerate(blocks.rectangle_cells):
        values[m, cells] = 1.0
    R, H = _split_rows(rows(transient), transient)
    x, steps, residual, solver = _absorption_solve(R, np.stack([H @ g for g in values]),
                                                   R.nnz + H.nnz, tol)
    values[:, transient] = x
    return values, steps, residual, solver


def _derived(total: np.ndarray, parts: np.ndarray, axis: int) -> np.ndarray:
    """total - parts.sum(axis), 0 where its magnitude is at most its rounding
    bound: eps times the number of terms (total and the parts summed) times
    the largest of them.  Where the exact value is 0 the subtraction leaves
    such a residue of its operands' last bits, which the clip to [0, 1]
    keeps when it is positive."""
    derived = total - parts.sum(axis=axis)
    terms = parts.shape[axis] + 1
    bound = terms * np.finfo(float).eps * np.maximum(np.abs(total), np.abs(parts).max(axis=axis))
    derived[np.abs(derived) <= bound] = 0.0
    return derived


def _face_absorption(op: SeparableOperator, blocks: MetricConfig,
                     tol: float) -> tuple[np.ndarray, int, float, str] | None:
    """(values, steps, residual, solver) of the absorption probabilities of
    a 2-d cell chain by its faces, as _indicator_absorption gives them; None
    where an axis's absorbing blocks leak more than LEAKAGE_WARN.

    Each axis's cell process is a chain of its own, op.marginal (lumpable,
    Kemeny & Snell 1960), and a coordinate that has entered its absorbing
    block stays there while the blocks are closed.  So on every cell with an
    absorbing axis the values are known from the axes' 1-d absorption
    probabilities g1 and g2 (_indicator_absorption): rectangle (a, b),
    numbered row-major like decompose's rectangles, takes g1_a(x1) g2_b(x2)
    there, which is 1 or 0 on both axes' blocks, g2_b(x2) or 0 where x1 is
    in a block, and g1_a(x1) or 0 where x2 is; with one rectangle on an
    axis, on every cell.  And sum_b g_(a, b) = g1_a, sum_a g_(a, b) = g2_b
    (marginals).  So on the n cells transient on both axes only g_(a, b)
    with a < k1 - 1, b < k2 - 1 is solved, by _absorption_solve on their
    rows (op.rows, assembled only then) with the face values held, and the
    rest follow: g_(a, k2 - 1) = g1_a - sum_(b < k2 - 1) g_(a, b), then
    g_(k1 - 1, b) = g2_b - sum_(a < k1 - 1) g_(a, b), each 0 where it lies
    within its subtraction's rounding (_derived).  These values are clipped
    to [0, 1], which holds their exact values: the derived ones subtract,
    and the iterated ones can pass 1 by rounding.  Unclipped they sum to
    g2's sum up to those flushes, so the partition defect shows rounding,
    not convergence.  steps sums the steps of the axis solves and the joint
    solve, and residual is the largest of their residuals."""
    axes = [(op.marginal(j),
             label_blocks(labels, int(labels.max()) + 1, labels.shape, (labels,)))
            for j, labels in enumerate(blocks.axis_labels)]
    if any(_leakage(chain[cells][:, cells]) > LEAKAGE_WARN
           for chain, config in axes for cells in config.rectangle_cells):
        return None
    transient = [labels < 0 for labels in blocks.axis_labels]
    joint = np.logical_and.outer(*transient).ravel()
    n = np.count_nonzero(joint)
    k1, k2 = (len(config.rectangle_cells) for _, config in axes)
    solved = [a * k2 + c for a in range(k1 - 1) for c in range(k2 - 1)] if n else []
    if solved:  # assembled and split first, so that the face values do not sit beside the peak
        cells = np.flatnonzero(joint)
        R, H = _split_rows(op.rows([np.flatnonzero(t) for t in transient]), cells)
    (g1, steps1, residual1, solver1), (g2, steps2, residual2, solver2) = [
        _indicator_absorption(chain.__getitem__, config, tol) for chain, config in axes]
    iterations, residual = steps1 + steps2, max(residual1, residual2)
    solvers = "/".join(solver.split(" ", 1)[0] for solver in (solver1, solver2))
    # the face values of every rectangle on every cell, in g1's layout
    faces = np.empty(op.grid.shape + (k1, k2))
    np.multiply(g1.T[:, None, :, None], g2.T[None, :, None, :], out=faces)
    values = faces.reshape(op.grid.ncells, k1 * k2).T
    joint_solver = "none"
    if solved:
        f, nnz = np.stack([H @ values[s] for s in solved]), R.nnz + H.nnz
        del H  # kept through the solve, it raised basin_functions' traced peak at 1000^2 by 11%
        x, steps, joint_residual, joint_solver = _absorption_solve(R, f, nnz, tol)
        iterations, residual = iterations + steps, max(residual, joint_residual)
        x1, x2 = np.unravel_index(cells, op.grid.shape)
        joint = np.empty((k1, k2, n))
        joint[:-1, :-1] = x.reshape(k1 - 1, k2 - 1, n)
        joint[:-1, -1] = _derived(g1[:-1, x1], joint[:-1, :-1], axis=1)
        joint[-1] = _derived(g2[:, x2], joint[:-1], axis=0)
        values[:, cells] = np.clip(joint, 0.0, 1.0, out=joint).reshape(k1 * k2, n)
    return values, iterations, residual, (f"faces (axis solvers {solvers}, joint n={n}, "
                                          f"{len(solved)} of {k1 * k2} solved: {joint_solver})")


def _absorption(op: SeparableOperator, blocks: MetricConfig, tol: float,
                name: str) -> BasinFunctions:
    """The absorption probabilities of the cell chain op for basin_functions
    and ulam_absorption (name), with their partition defect.  By faces in
    two dimensions where every axis's absorbing blocks are closed
    (_face_absorption), otherwise on all the transient cells
    (_indicator_absorption), sliced from the whole matrix, which one
    rectangle leaves unassembled.  Logs the solver at INFO."""
    found = _face_absorption(op, blocks, tol) if op.grid.dimension == 2 else None
    if found is None:
        found = _indicator_absorption(lambda cells: op.matrix[cells], blocks, tol)
    values, iterations, residual, solver = found
    logging.getLogger(__name__).info("%s: %s", name, solver)
    defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
    return BasinFunctions(grid=op.grid, values=values, iterations=iterations,
                          residual=residual, partition_defect=defect)


def basin_functions(fam: MapFamily, grid: Grid, tol: float | None = None) -> BasinFunctions:
    """Absorption eigenfunctions of the exact dual operator, one per rectangle
    of fam.decomposition: the absorption probabilities of the interpolated
    function-side matrix, by faces in two dimensions where the axes' blocks
    are closed (the dual's always are: _interp_factor_1d keeps them so), by
    one banded solve where the transient band is narrow (iterations 0,
    values clipped to [0, 1]), and otherwise by the iteration x <- R x + f
    run to tol (BASIN_TOL by default); see _absorption.  The residual is the sup
    change one more step of the iteration would make, not an error bound.
    In two dimensions the faces read only the axes' marginals and a product
    set of rows, and only those are assembled; the whole dual is assembled
    in one dimension and where the faces are declined.  Logs the blocks
    assembled and their non-zeros at INFO."""
    if tol is None:
        tol = BASIN_TOL
    config = metric_config(grid, fam.decomposition)
    op = dual_operator(fam, grid)
    basins = _absorption(op, config, tol, "basin_functions")
    logger = logging.getLogger(__name__)
    logger.info("basin_functions: %d row block(s) assembled (nnz=%d)", len(op.nnz), sum(op.nnz))
    if basins.partition_defect > 1e-6:
        logger.warning(
            "partition-of-unity defect %.2e: the tolerance is too loose for the "
            "iteration to converge, or the grid too coarse for the transient "
            "dynamics", basins.partition_defect,
        )
    return basins


def dual_residual(fam: MapFamily, basins: BasinFunctions) -> float:
    """Sup norm of one more dual application minus the basin values."""
    dual = dual_operator(fam, basins.grid).matrix
    return float(np.max(np.abs((dual @ basins.values.T).T - basins.values)))


def mixture_coefficients(basins: BasinFunctions, mu0: DiscreteMeasure) -> np.ndarray:
    """Limit weights: integrals of each basin function against mu0."""
    if basins.grid != mu0.grid:
        raise GridMismatch("basin functions and measure grids differ")
    return basins.values @ mu0.weights


def ulam_absorption(op: SeparableOperator, blocks: MetricConfig) -> BasinFunctions:
    """Absorption probabilities of the discrete chain itself, one row per
    rectangle block of blocks = metric_config(op.grid, decomp).

    Solved as in basin_functions, on the Ulam matrix: by faces in two
    dimensions where the blocks are closed, by one banded solve where the
    transient band is narrow, otherwise by the iteration x <- R x + f, whose
    k-th iterate is the probability of entering each rectangle within k
    steps, run to ULAM_ABSORPTION_TOL.  The residual is the sup change one
    more step of that iteration would make at the result, not an error
    bound (the iteration's error is about 1/(1 - r) times larger, r the
    per-step absorption rate).  These coefficients are the ones the
    discretized evolution converges to, so the logged distances in limit
    mixtures decay to zero rather than plateau at the discretization
    mismatch.
    """
    return _absorption(op, blocks, ULAM_ABSORPTION_TOL, "ulam_absorption")


@dataclass(frozen=True)
class LimitMixtureResult:
    mixture: DiscreteMeasure
    coefficients: np.ndarray
    invariants: tuple[InvariantResult, ...]
    decay_log: np.ndarray
    envelope_ratio: float


def limit_mixture(op: SeparableOperator, decomp: Decomposition, mu0: DiscreteMeasure,
                  k_max: int = 10**4, stop_below: float = 0.0) -> LimitMixtureResult:
    """Assemble the limiting mixture of the discrete chain and log the
    composite distance of the evolving measure to it, step by step: d_tilde
    scores mu0, then the bare weight vector evolves (the bits of push_forward)
    into the rows of a block of up to LOG_BLOCK_CELLS cells (at least one
    row), and d_tilde_rows scores the whole block at once with the bits of
    one row at a time.  The log keeps the scores up to the first below
    stop_below, and at most k_max.  Logs each stage's seconds at INFO."""
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
    step, w = op.matrix.T, mu0.weights
    block = np.empty((max(1, LOG_BLOCK_CELLS // op.grid.ncells), op.grid.ncells))
    log = [d_tilde(mu0, mu_star, config)] if k_max > 0 else []
    while log and not log[-1] < stop_below and len(log) < k_max:
        diffs = block[:k_max - len(log)]
        for row in diffs:
            row[:] = w = step @ w
        diffs -= mu_star.weights
        scores = d_tilde_rows(diffs, op.grid.shape, config)
        below = np.flatnonzero(scores < stop_below)
        log.extend(scores[:below[0] + 1 if below.size else None].tolist())
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
