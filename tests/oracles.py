"""Independent oracles used to pin expected values: closed-form cubic roots,
dense sign scans, exhaustive path enumeration, brute-force set distances,
direct sparse solves, axis chains lumped from slabs of the whole matrix,
dense stationary solves in extended precision, per-cell Ulam factors and
cell labels, the whole-point sampler step and escape walk, the per-row grid
CSV writer, and the zero-padded composite distance.  Everything here
deliberately avoids the package's own algorithms, except
per_step_decay_log and masked_reset_absorption, which keep the
measure-by-measure loop the limit mixtures' log once ran and the
full-matrix loop the absorption kernel once ran, held_system and
held_absorption, the absorption iteration alone that the direct solves are
checked against, and scalar_bisect and scalar_real_roots, which keep root
isolation's unmemoized recursion and its bisection through
Polynomial.__call__, to pin their bits."""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sgdmc import poly, transfer


def depressed_cubic_roots(p: float, q: float) -> list[float]:
    """Real roots of x^3 + p x + q by the trigonometric/Cardano formulas."""
    disc = -4 * p**3 - 27 * q**2
    if abs(p) < 1e-300:
        return [math.copysign(abs(q) ** (1 / 3), -q)]
    if disc > 0:
        # three real roots (requires p < 0)
        m = 2 * math.sqrt(-p / 3)
        theta = math.acos(min(1.0, max(-1.0, 3 * q / (p * m)))) / 3
        return sorted(m * math.cos(theta - 2 * math.pi * k / 3) for k in range(3))
    # one real root (Cardano)
    half_q = q / 2
    rad = math.sqrt(half_q**2 + (p / 3) ** 3)
    u = -half_q + rad
    v = -half_q - rad
    root = math.copysign(abs(u) ** (1 / 3), u) + math.copysign(abs(v) ** (1 / 3), v)
    return [root]


def double_well_roots(lam: float) -> list[float]:
    """Real critical points of the tilted double well: roots of x^3 - x - lam."""
    return depressed_cubic_roots(-1.0, -lam)


def double_well_x0(lam: float) -> float:
    return max(double_well_roots(lam))


def double_well_eta0(lam: float) -> float:
    x0 = double_well_x0(lam)
    return 1.0 / (3 * x0 * x0 - 1.0)


def sign_scan_sets(obj, j: int, lo: float, hi: float, n: int = 10_000):
    """Pointwise classification of a dense grid: in the left-moving set when
    some component derivative is positive, right-moving when negative."""
    xs = np.linspace(lo, hi, n)
    in_left = np.zeros(n, dtype=bool)
    in_right = np.zeros(n, dtype=bool)
    for p in obj.components[j]:
        if p.is_zero:
            continue
        vals = p.derivative()(xs)
        in_left |= vals > 0
        in_right |= vals < 0
    return xs, in_left, in_right


def brute_force_path_extremes(fam, j: int, x: float, ell: int):
    """Min and max over all n^k paths of the coordinate-j image, per step."""
    vals = np.array([float(x)])
    mins, maxs = [float(x)], [float(x)]
    for _ in range(ell):
        vals = np.concatenate([fam.phi[i][j](vals) for i in range(fam.n)])
        mins.append(float(vals.min()))
        maxs.append(float(vals.max()))
    return mins, maxs


def brute_force_anchored_distance(weights_a, weights_b, shape, alpha):
    """Sup over anchored orthant rectangles by direct mass summation."""
    wa = np.asarray(weights_a, dtype=float).reshape(shape)
    wb = np.asarray(weights_b, dtype=float).reshape(shape)
    best = 0.0
    ranges = [range(s + 1) for s in shape]
    for corner in itertools.product(*ranges):
        mask = np.ones(shape, dtype=bool)
        for axis, (c, a) in enumerate(zip(corner, alpha)):
            idx = np.arange(shape[axis])
            keep = idx < c if a == +1 else idx >= shape[axis] - c
            sl = [np.newaxis] * len(shape)
            sl[axis] = slice(None)
            mask &= keep[tuple(sl)]
        best = max(best, abs(wa[mask].sum() - wb[mask].sum()))
    return best


def direct_absorption(matrix, labels, m_count: int) -> np.ndarray:
    """Absorption probabilities of a row-stochastic chain by one sparse LU
    solve per rectangle: (I - P_BB) g_B = P_{B,T_m} 1 on the transient cells B
    (label -1), indicators of the labelled blocks T_m elsewhere."""
    matrix = sp.csr_matrix(matrix)
    b_cells = np.flatnonzero(labels < 0)
    g = np.zeros((m_count, labels.size))
    for m in range(m_count):
        g[m, labels == m] = 1.0
    if b_cells.size:
        rows = matrix[b_cells]
        lhs = sp.identity(b_cells.size, format="csc") - sp.csc_matrix(rows[:, b_cells])
        for m in range(m_count):
            rhs = np.asarray(rows[:, np.flatnonzero(labels == m)].sum(axis=1)).ravel()
            g[m, b_cells] = spla.spsolve(lhs, rhs)
    return g


def lumped_axis_chain(matrix, shape, j: int) -> sp.csr_matrix:
    """Axis j's own chain lumped from a cell chain matrix on a grid of the
    given shape: the rows of one slab of cells (every other coordinate 0),
    their columns summed over the other axes.  Exact for an average of
    Kronecker products of stochastic factors, up to rounding."""
    sets = tuple(np.arange(n) if k == j else np.zeros(1, dtype=int) for k, n in enumerate(shape))
    slab = sp.csr_matrix(matrix)[np.ravel_multi_index(np.ix_(*sets), shape).ravel()]
    columns = np.unravel_index(slab.indices, shape)[j]
    lumped = sp.csr_matrix((slab.data, columns, slab.indptr), shape=(shape[j], shape[j]))
    lumped.sum_duplicates()
    return lumped


def direct_stationary(matrix, cells) -> np.ndarray:
    """Stationary probability vector of the block matrix[cells][:, cells] by
    one dense direct solve of pi Q = 0, pi_last = 1, then normalised: Q is
    the block's generator, its off-diagonal entries with each row summing to
    0, so that a block losing rounding to its outside is read as closed.
    Q^T is column diagonally dominant, so Gaussian elimination runs without
    pivoting (skipping zero entries); it subtracts, and a metastable block's
    measure spans far below a double's rounding of its largest entries, so
    it runs in mpmath at 40, 80, ... digits until two solves agree to 1e-20
    in every entry.  Raises ArithmeticError where 640 digits do not."""
    p = sp.csr_matrix(matrix)[cells][:, cells].toarray()
    n = p.shape[0]
    previous = None
    for digits in (40, 80, 160, 320, 640):
        with mpmath.workdps(digits):
            a = [[mpmath.mpf(float(x)) for x in column] for column in p.T]  # Q^T
            for i in range(n):
                a[i][i] = -mpmath.fsum(p[i, j] for j in range(n) if j != i)
            for k in range(n - 1):
                ahead = [j for j in range(k + 1, n) if a[k][j]]
                for i in range(k + 1, n - 1):
                    if a[i][k]:
                        factor = a[i][k] / a[k][k]
                        for j in ahead:
                            a[i][j] -= factor * a[k][j]
            pi = [mpmath.mpf(0)] * (n - 1) + [mpmath.mpf(1)]
            for k in range(n - 2, -1, -1):
                pi[k] = -mpmath.fsum(a[k][j] * pi[j] for j in range(k + 1, n)) / a[k][k]
            total = mpmath.fsum(pi)
            pi = [x / total for x in pi]
            if previous is not None and max(abs(x - y) for x, y in zip(pi, previous)) <= 1e-20:
                return np.array([float(x) for x in pi])
        previous = pi
    raise ArithmeticError("the dense stationary solve did not settle within 640 digits")


def overlap_factor_1d(fam, i: int, j: int, edges) -> sp.csr_matrix:
    """Ulam factor of map i in dimension j, one cell at a time: the fractions
    of each cell's image interval falling into each grid cell, clipped mass
    returned to the boundary cell, a wholly outside image sent to the nearest
    boundary cell."""
    img = np.array([fam.phi[i - 1][j](float(e)) for e in edges])
    n = len(edges) - 1
    a, b = edges[0], edges[-1]
    rows, cols, vals = [], [], []
    for k in range(n):
        lo, hi = img[k], img[k + 1]
        if hi < lo:
            lo, hi = hi, lo
        lo_c, hi_c = max(lo, a), min(hi, b)
        if hi_c <= lo_c:
            c = np.array([0 if hi <= a else n - 1])
            f = np.array([1.0])
        else:
            first = int(np.clip(np.searchsorted(edges, lo_c, side="right") - 1, 0, n - 1))
            last = int(np.clip(np.searchsorted(edges, hi_c, side="left") - 1, 0, n - 1))
            c = np.arange(first, last + 1)
            cuts_lo = np.maximum(edges[c], lo_c)
            cuts_hi = np.minimum(edges[c + 1], hi_c)
            total = hi - lo
            f = np.maximum(cuts_hi - cuts_lo, 0.0) / total
            if total - (hi_c - lo_c) > 0:
                if lo < a:
                    f[0] += (a - lo) / total
                if hi > b:
                    f[-1] += (hi - b) / total
        rows.extend([k] * len(c))
        cols.extend(c.tolist())
        vals.extend(f.tolist())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def classify_cells(grid, decomp) -> np.ndarray:
    """Rectangle label per flattened cell by testing every cell against every
    rectangle: a cell belongs to a rectangle when it overlaps it with positive
    length in every dimension; a cell overlapping two rectangles raises
    ValueError."""
    labels = np.full(grid.ncells, -1, dtype=int)
    for pos, cell in enumerate(itertools.product(*[range(n) for n in grid.shape])):
        for m, rect in enumerate(decomp.rectangles):
            if all(e[k] < hi and e[k + 1] > lo
                   for e, k, (lo, hi) in zip(grid.edges, cell, rect.box)):
                if labels[pos] >= 0:
                    raise ValueError("cell overlaps two rectangles")
                labels[pos] = m
    return labels


def whole_point_sample(fam, x0, steps: int, seed: int, grid_n: int):
    """The sampler one whole point per step: each draw moves every coordinate
    through its Polynomial map.  Returns (final point, per-dimension
    histograms, first step inside a rectangle or None, steps per rectangle)."""
    from sgdmc.objective import state_space_window

    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.integers(1, fam.n + 1, size=steps)
    traj = np.empty((steps, fam.dimension))
    x = [float(v) for v in x0]
    for k in range(steps):
        x = [fam.phi[draws[k] - 1][j](s) for j, s in enumerate(x)]
        traj[k] = x
    # a visit beyond an end of the grid counts in that end's cell
    hists = [np.histogram(np.clip(traj[:, j], lo, hi), bins=np.linspace(lo, hi, grid_n + 1))[0]
             for j, (lo, hi) in enumerate(fam.intervals)]
    rect_steps = {}
    first = None
    for rect in fam.decomposition.rectangles:
        inside = np.ones(steps, dtype=bool)
        for j, (lo, hi) in enumerate(rect.box):
            low, high = state_space_window(lo, hi)
            inside &= (traj[:, j] >= low) & (traj[:, j] <= high)
        rect_steps[rect.index] = int(inside.sum())
        if inside.any():
            k = int(np.flatnonzero(inside)[0])
            first = k if first is None else min(first, k)
    return tuple(float(v) for v in traj[-1]), hists, first, rect_steps


def whole_point_escape_lengths(fam, decomp, grid_n: int, direction_of) -> np.ndarray:
    """Greedy escape lengths over a grid_n-per-dimension grid, walking the
    whole point: coordinates settle from the last to the first, and every
    step applies, to all coordinates, the first map with the largest step
    toward the chosen direction (direction_of(s, intervals, chart, j))."""
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in fam.intervals]
    lengths = np.zeros((grid_n,) * fam.dimension, dtype=int)
    for idx in np.ndindex(*lengths.shape):
        x = [float(axes[j][k]) for j, k in enumerate(idx)]
        steps = 0
        for j in range(fam.dimension - 1, -1, -1):
            ts = decomp.per_dimension[j]
            if any(t.contains(x[j], closed=True) for t in ts):
                continue
            direction = direction_of(x[j], ts, decomp.charts[j], j)
            while not any(t.contains(x[j], closed=False) for t in ts):
                best_i, best_step = 0, 0.0
                for i in range(1, fam.n + 1):
                    step = direction * (fam.phi[i - 1][j](x[j]) - x[j])
                    if step > best_step:
                        best_i, best_step = i, step
                assert best_i, "no map makes progress"
                x = [fam.phi[best_i - 1][k](s) for k, s in enumerate(x)]
                steps += 1
        lengths[idx] = steps
    return lengths


def per_row_grid_csv(path, grid, values) -> None:
    """The grid CSV one row at a time: every centre coordinate and the value
    formatted with {:.17g} for every cell whose value is positive, in
    flattened (row-major) order."""
    d = grid.dimension
    header = ["x"] if d == 1 else [f"x{j + 1}" for j in range(d)]
    centers, values = grid.centers, np.asarray(values, dtype=float).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header + ["value"]) + "\n")
        for pos, cell in enumerate(itertools.product(*[range(n) for n in grid.shape])):
            if not values[pos] > 0:
                continue
            coords = [float(c[k]) for c, k in zip(centers, cell)]
            fh.write(",".join(f"{v:.17g}" for v in coords + [values[pos]]) + "\n")


def zero_padded_d_tilde(weights_a, weights_b, labels, shape) -> float:
    """The composite distance with every rectangle's restriction of the
    difference zero-padded to the whole grid and cumsummed along every axis
    there, in the summation order of the package's kernel (so equal to the
    bit); labels are Grid.classify's."""
    diff = np.asarray(weights_a, dtype=float) - np.asarray(weights_b, dtype=float)
    total = 0.5 * float(np.sum(np.abs(diff[labels < 0])))
    for m in range(int(labels.max()) + 1):
        padded = np.where(labels == m, diff, 0.0).reshape(shape)
        for axis in range(len(shape)):
            padded = np.cumsum(padded, axis=axis)
        total += float(np.max(np.abs(padded)))
    return float(total)


def per_step_decay_log(op, decomp, mu0, k_max: int, stop_below: float = 0.0):
    """(coefficients, decay_log, envelope_ratio) of limit_mixture computed as
    a sequence of validated measures: push_forward every step, scored by the
    zero-padded composite distance."""
    labels = op.grid.classify(decomp)
    cells = [np.flatnonzero(labels == m) for m in range(len(decomp.rectangles))]
    invariants = [transfer.invariant_measure(op, c) for c in cells]
    basins = transfer.ulam_absorption(op, transfer.metric_config(op.grid, decomp))
    coeff = transfer.mixture_coefficients(basins, mu0)
    mix = np.zeros(op.grid.ncells)
    for c, inv in zip(coeff, invariants):
        mix += c * inv.measure.weights
    mu_star = transfer.DiscreteMeasure(op.grid, mix)
    log, mu = [], mu0
    for _ in range(k_max):
        log.append(zero_padded_d_tilde(mu.weights, mu_star.weights, labels, op.grid.shape))
        if log[-1] < stop_below:
            break
        mu = transfer.push_forward(op, mu)
    log = np.asarray(log)
    floor = transfer.ENVELOPE_FLOOR * transfer._default_tol(op.grid)
    return coeff, log, transfer._fitted_envelope_ratio(log, floor)


def masked_reset_absorption(matrix, grid, blocks, tol: float):
    """BasinFunctions of the absorption kernel as the full-matrix loop ran
    it: every cell's product, then the absorbing cells reset to their
    indicators with a masked copy, and the values made Fortran-ordered."""
    absorbing = np.ones(grid.ncells, dtype=bool)
    absorbing[blocks.transient_cells] = False
    g = np.zeros((len(blocks.rectangle_cells), grid.ncells))
    for m, cells in enumerate(blocks.rectangle_cells):
        g[m, cells] = 1.0
    g_next, change = np.empty_like(g), np.empty_like(g)
    residual = np.inf
    for it in range(1, transfer.DEFAULT_MAX_ITER + 1):
        np.stack([matrix @ row for row in g], out=g_next)
        np.copyto(g_next, g, where=absorbing)  # g holds the indicators there
        np.abs(np.subtract(g_next, g, out=change), out=change)
        residual = float(change.max())
        g, g_next = g_next, g
        if residual < tol:
            g = np.asfortranarray(g)
            defect = float(np.max(np.abs(g.sum(axis=0) - 1.0)))
            return transfer.BasinFunctions(grid=grid, values=g, iterations=it,
                                           residual=residual, partition_defect=defect)
    raise AssertionError(f"no convergence in {transfer.DEFAULT_MAX_ITER} iterations")


def held_system(rows, blocks):
    """(held rows, indicators, position) of the absorption system of a
    chain's transient rows, columns in cell order: each cell's position
    numbers the transient cells first, then each rectangle's cells in
    rectangle order; the held rows are rows with their columns renumbered
    to it, each row's entries in their stored order, and the indicators
    hold one row per rectangle in that numbering."""
    position = np.argsort(np.concatenate((blocks.transient_cells, *blocks.rectangle_cells)))
    held = sp.csr_matrix((rows.data, position[rows.indices], rows.indptr), shape=rows.shape)
    g = np.zeros((len(blocks.rectangle_cells), rows.shape[1]))
    for m, cells in enumerate(blocks.rectangle_cells):
        g[m, position[cells]] = 1.0
    return held, g, position


def held_absorption(rows, grid, blocks, tol: float):
    """BasinFunctions of transfer._held_iteration on held_system(rows,
    blocks), with no banded solve and no one-rectangle shortcut, the values
    back in cell order and Fortran-ordered; nothing is iterated with no
    transient cells."""
    held, g, position = held_system(rows, blocks)
    g, steps, residual = transfer._held_iteration(held, g, tol) if rows.shape[0] else (g, 0, 0.0)
    values = np.asfortranarray(g[:, position])
    defect = float(np.max(np.abs(values.sum(axis=0) - 1.0)))
    return transfer.BasinFunctions(grid=grid, values=values, iterations=steps,
                                   residual=residual, partition_defect=defect)


def scalar_bisect(p, lo: float, hi: float, s_lo: float) -> float:
    """Bisection of p on [lo, hi], evaluating p through Polynomial.__call__."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = p(mid)
        if v == 0.0:
            return mid
        if (v > 0.0) == (s_lo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) + 0.0


def scalar_real_roots(p) -> list[float]:
    """poly.real_roots without its memo, recursing into itself and bisecting
    with scalar_bisect."""
    if p.degree == 0:
        return []
    if p.degree == 1:
        return [-p.coeffs[0] / p.coeffs[1]]
    bound = p.cauchy_bound()
    inner = [r for r in scalar_real_roots(p.derivative()) if -bound < r < bound]
    nodes = [-bound] + sorted(inner) + [bound]
    signs = []
    for x in nodes:
        v = p(x)
        scale = max(1.0, sum(abs(c) * abs(x) ** k for k, c in enumerate(p.coeffs)))
        signs.append(0 if abs(v) <= poly.ROOT_TOL * scale else 1 if v > 0 else -1)
    roots = [x for x, s in zip(nodes, signs) if s == 0]
    idx = [k for k, s in enumerate(signs) if s != 0]
    for a, b in zip(idx[:-1], idx[1:]):
        if signs[a] * signs[b] < 0:
            roots.append(scalar_bisect(p, nodes[a], nodes[b], p(nodes[a])))
    roots.sort()
    out: list[float] = []
    sep = 1e-9 * max(1.0, bound)
    for r in roots:
        if not out or r - out[-1] > sep:
            out.append(r)
    return out
