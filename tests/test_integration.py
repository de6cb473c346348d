"""End-to-end randomized validation: decomposition, certificates, transfer
operator and simulation must agree on objectives beyond the benchmarks."""

import numpy as np
import pytest

from sgdmc.absorbing import decompose
from sgdmc.dynamics import MapFamily, sgd_sample, splitting_length_1d, verify_certificate
from sgdmc.errors import NotFound
from sgdmc.metrics import d_F
from sgdmc.objective import SeparableObjective, eta_bound, lambda_split
from sgdmc.poly import Polynomial
from sgdmc.transfer import DiscreteMeasure, Grid, invariant_measure, ulam_assemble


def test_random_tilted_quartics_pipeline(rng):
    for trial in range(12):
        a4 = float(rng.uniform(0.2, 1.5))
        a2 = float(rng.uniform(-1.5, 1.0))
        a1 = float(rng.normal(0, 0.3))
        lam = float(rng.uniform(0.05, 1.2))
        obj = lambda_split(Polynomial([0.0, a1, a2, 0.0, a4]), lam)
        eta = 0.8 * eta_bound(obj)
        decomp = decompose(obj, eta)
        fam = MapFamily(obj, eta)
        for rect, t in zip(decomp.rectangles, decomp.per_dimension[0]):
            try:
                cert = splitting_length_1d(fam, t, ell_max=512)
            except NotFound:
                continue  # admissible near a fold, where lengths blow up
            assert verify_certificate(fam, rect.box, cert)
        grid = Grid.regular(decomp.intervals, 400)
        op = ulam_assemble(fam, grid)
        assert op.row_sum_error < 1e-12
        cells = np.flatnonzero(grid.classify(decomp) == 0)
        inv = invariant_measure(op, cells, tol=1e-9).measure
        box = decomp.rectangles[0].box[0]
        summary = sgd_sample(fam, [0.5 * (box[0] + box[1])], steps=200000,
                             seed=trial, grid_n=400)
        hist = DiscreteMeasure(grid, summary.histograms[0] / summary.steps)
        assert d_F(hist, inv) <= 0.08, f"trial {trial}"


def test_three_map_family_pipeline():
    obj = SeparableObjective(
        components=((Polynomial([1, -2, 1]), Polynomial([1, 2, 1]),
                     Polynomial([0.09, -0.6, 1])),)
    )
    eta = 0.25
    decomp = decompose(obj, eta)
    assert decomp.rectangle_count == 1
    fam = MapFamily(obj, eta)
    cert = splitting_length_1d(fam, decomp.per_dimension[0][0])
    assert verify_certificate(fam, decomp.rectangles[0].box, cert)
    assert cert.contraction_factor(3) == pytest.approx(1 - 3.0**-cert.ell)
    grid = Grid.regular(decomp.intervals, 600)
    op = ulam_assemble(fam, grid)
    assert op.row_sum_error < 1e-12
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    inv = invariant_measure(op, cells, tol=1e-10).measure
    summary = sgd_sample(fam, [0.0], steps=300000, seed=99, grid_n=600)
    hist = DiscreteMeasure(grid, summary.histograms[0] / summary.steps)
    assert d_F(hist, inv) <= 0.05
