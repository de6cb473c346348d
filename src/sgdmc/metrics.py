"""Distances between grid measures: the CDF sup metric, its orthant
generalization over anchored rectangles, discrete total variation, and the
composite transient-plus-absorbing metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


def cdf_sup(a, b) -> float:
    """max |cumsum(a) - cumsum(b)|: the CDF sup distance of two weight vectors
    on one 1-d grid."""
    return float(np.max(np.abs(np.cumsum(a) - np.cumsum(b))))


def half_l1(a, b) -> float:
    """Half the l1 distance of two weight vectors: their total variation."""
    return 0.5 * float(np.sum(np.abs(a - b)))


def _orthant_sups(diffs, alpha) -> np.ndarray:
    """Per row of diffs, a (rows, *shape) array, the sup of |sum| over the
    grid-anchored alpha-orthant rectangles of that row: cumulative sums
    along every cell axis, flipped where alpha is -1.  Each row keeps its own
    sequential order and the max is exact, so a row's sup has the bits of
    scoring that row alone."""
    for axis, a in enumerate(alpha, start=1):
        if a == -1:
            diffs = np.flip(diffs, axis=axis)
        diffs = np.cumsum(diffs, axis=axis)
    return np.max(np.abs(diffs, out=diffs).reshape(len(diffs), -1), axis=1)


def d_F(mu, nu) -> float:
    """Sup distance of cumulative distributions on a shared 1-d grid."""
    if mu.grid != nu.grid:
        raise GridMismatch("measures live on different grids")
    if mu.grid.dimension != 1:
        raise GridMismatch("CDF metric is one-dimensional; use d_alpha_rect")
    return cdf_sup(mu.weights, nu.weights)


def d_alpha_rect(mu, nu, alpha) -> float:
    """Sup of |mu - nu| over grid-anchored orthant rectangles.

    The sets scanned are {y : alpha o y <= alpha o c} for cell-corner anchors
    c.  They form a subfamily of the monotone sublevel sets, so the value is a
    lower bound for the full orthant metric; in one dimension the two coincide
    and equal the CDF sup distance.
    """
    if mu.grid != nu.grid:
        raise GridMismatch("measures live on different grids")
    d = mu.grid.dimension
    if len(alpha) != d:
        raise GridMismatch(f"alpha has {len(alpha)} signs for a {d}-d grid")
    return float(_orthant_sups((mu.weights - nu.weights).reshape(1, *mu.grid.shape), alpha)[0])


@dataclass(frozen=True)
class MetricConfig:
    """The grid's block structure under a decomposition: the cells of each
    absorbing rectangle, in rectangle order, their boxes (one slice per axis,
    holding exactly those cells), the transient cells, and per axis the
    absorbing interval of each of its cells, -1 where none
    (Grid.axis_labels)."""

    rectangle_cells: tuple[np.ndarray, ...]
    rectangle_boxes: tuple[tuple[slice, ...], ...]
    transient_cells: np.ndarray
    axis_labels: tuple[np.ndarray, ...]


def metric_config(grid, decomp) -> MetricConfig:
    """Label the grid once (Grid.classify, from Grid.axis_labels) and split
    its cells into the rectangles' blocks and the transient remainder.

    This is the one place labels become cells: the composite metric, the
    invariant measures and the absorption iterations all take their blocks
    from it; Grid.classify gives a rectangle one run of cells per axis, so
    its cells fill their bounding box.  d_tilde compares the absorbing
    restrictions in the positive orthant; in one dimension the choice is
    immaterial.
    """
    return label_blocks(grid.classify(decomp), len(decomp.rectangles), grid.shape,
                        grid.axis_labels(decomp))


def label_blocks(labels, count: int, shape, axis_labels) -> MetricConfig:
    """The MetricConfig of count rectangles from the cell labels of a grid
    of the given shape (rectangle number per flattened cell, -1 for
    transient) and its per-axis labels."""
    cells = tuple(np.flatnonzero(labels == m) for m in range(count))
    return MetricConfig(
        rectangle_cells=cells,
        rectangle_boxes=tuple(tuple(slice(int(i.min()), int(i.max()) + 1)
                                    for i in np.unravel_index(c, shape)) for c in cells),
        transient_cells=np.flatnonzero(labels < 0),
        axis_labels=tuple(axis_labels),
    )


def d_tilde(mu, nu, config: MetricConfig) -> float:
    """Total variation of the transient restrictions plus the per-rectangle
    positive-orthant distances of the absorbing restrictions."""
    if mu.grid != nu.grid:
        raise GridMismatch("measures live on different grids")
    return float(d_tilde_rows((mu.weights - nu.weights)[None], mu.grid.shape, config)[0])


def d_tilde_rows(diffs, shape, config: MetricConfig) -> np.ndarray:
    """d_tilde of every row of diffs, a C-ordered (rows, cells) array of
    weight-vector differences, with the bits of scoring each row alone.

    np.take gathers the transient cells into a C-ordered copy, so each row's
    sum is the pairwise sum of that row alone (a fancy index over axis 1 can
    come back non-contiguous and sum in another order).  Each rectangle's
    positive-orthant sups (_orthant_sups) run over its box only: zero
    padding would add exact zeros before the box and repeat its sums after
    it, so the sup keeps its bits.  The rectangles' sups are added in
    rectangle order."""
    transient = np.take(diffs, config.transient_cells, axis=1)
    total = 0.5 * np.sum(np.abs(transient, out=transient), axis=1)
    shaped = diffs.reshape(len(diffs), *shape)
    positive = (+1,) * len(shape)
    for box in config.rectangle_boxes:
        total += _orthant_sups(shaped[(slice(None), *box)], positive)
    return total
