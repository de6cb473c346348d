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


def _orthant_sup(diff, shape, alpha) -> float:
    """Sup of |sum of diff| over the grid-anchored alpha-orthant rectangles:
    cumulative sums along every axis, flipped where alpha is -1."""
    diff = diff.reshape(shape)
    for axis, a in enumerate(alpha):
        if a == -1:
            diff = np.flip(diff, axis=axis)
        diff = np.cumsum(diff, axis=axis)
    return float(np.max(np.abs(diff)))


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
    return _orthant_sup(mu.weights - nu.weights, mu.grid.shape, alpha)


def total_variation(mu, nu) -> float:
    """Discrete total variation: half the l1 distance of cell weights."""
    if mu.grid != nu.grid:
        raise GridMismatch("measures live on different grids")
    return half_l1(mu.weights, nu.weights)


@dataclass(frozen=True)
class MetricConfig:
    """The grid's block structure under a decomposition: the cells of each
    absorbing rectangle, in rectangle order, and the transient cells."""

    rectangle_cells: tuple[np.ndarray, ...]
    transient_cells: np.ndarray


def metric_config(grid, decomp) -> MetricConfig:
    """Label the grid once (Grid.classify) and split its cells into the
    rectangles' blocks and the transient remainder.

    This is the one place labels become cells: the composite metric, the
    invariant measures and the absorption iterations all take their blocks
    from it.  d_tilde compares the absorbing restrictions in the positive
    orthant; in one dimension the choice is immaterial.
    """
    labels = grid.classify(decomp)
    return MetricConfig(
        rectangle_cells=tuple(
            np.flatnonzero(labels == m) for m in range(len(decomp.rectangles))
        ),
        transient_cells=np.flatnonzero(labels < 0),
    )


def d_tilde(mu, nu, config: MetricConfig) -> float:
    """Total variation of the transient restrictions plus the per-rectangle
    positive-orthant distances of the absorbing restrictions."""
    if mu.grid != nu.grid:
        raise GridMismatch("measures live on different grids")
    transient = config.transient_cells
    total = half_l1(mu.weights[transient], nu.weights[transient])
    positive = (+1,) * mu.grid.dimension
    for cells in config.rectangle_cells:
        diff = np.zeros_like(mu.weights)
        diff[cells] = mu.weights[cells] - nu.weights[cells]
        total += _orthant_sup(diff, mu.grid.shape, positive)
    return float(total)
