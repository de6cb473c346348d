"""Acceptance gate: each test pins one headline behavior at its stated
tolerance and prints a one-line verdict (run with -s to see them all)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import double_well_x0
from sgdmc.absorbing import decompose, rectangle_count_for
from sgdmc.dynamics import (
    MapFamily,
    extremal_envelope,
    splitting_certificate_multi,
    splitting_length_1d,
    uniform_escape_length,
    verify_certificate,
)
from sgdmc.errors import NotFound
from sgdmc.metrics import d_F
from sgdmc.objective import (
    SeparableObjective,
    bernoulli_pair,
    crossed_quadratics_2d,
    double_well,
    eighth_order,
)
from sgdmc.poly import Polynomial
from sgdmc.transfer import (
    DiscreteMeasure,
    Grid,
    basin_functions,
    dual_residual,
    invariant_measure,
    limit_mixture,
    mixture_coefficients,
    push_forward,
    ulam_assemble,
)

LAM_C = 2.0 / (3.0 * np.sqrt(3.0))


@contextmanager
def verdict(label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    print(f"{label}: PASS ({time.monotonic() - start:.2f}s)")


def test_criterion_01_double_well_bifurcation():
    with verdict("criterion 01 double-well bifurcation"):
        start = time.monotonic()
        lams = np.linspace(0.1, 1.0, 200)
        for lam in lams:
            count = rectangle_count_for(double_well(float(lam)))
            assert count == (1 if lam > LAM_C else 2), f"lambda={lam}"
        lo, hi = 0.1, 1.0
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if rectangle_count_for(double_well(mid)) == 2:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - LAM_C) <= 1e-6
        assert time.monotonic() - start < 10.0


def test_criterion_02_eighth_order_counts_and_folds():
    with verdict("criterion 02 eighth-order counts and folds"):
        start = time.monotonic()
        assert rectangle_count_for(eighth_order(7.0)) == 1
        obj = eighth_order(1.6)
        d = decompose(obj, 0.018)
        assert d.rectangle_count == 2
        assert all(not (lo <= 0.0 <= hi) for ((lo, hi),) in
                   (r.box for r in d.rectangles))
        obj = eighth_order(0.5)
        d = decompose(obj, 0.015)
        assert d.rectangle_count == 3
        boxes = sorted(r.box[0] for r in d.rectangles)
        assert boxes[1][0] < 0.0 < boxes[1][1]
        assert boxes[0][1] < 0.0 and boxes[2][0] > 0.0

        def bisect(lo, hi):
            c_lo = rectangle_count_for(eighth_order(lo))
            while hi - lo > 1e-4:
                mid = 0.5 * (lo + hi)
                if rectangle_count_for(eighth_order(mid)) == c_lo:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        lam1 = bisect(1.3, 1.6)   # 3 -> 2 intervals
        lam2 = bisect(1.7, 2.0)   # 2 -> 1 intervals
        assert abs(lam1 - 1.47) <= 0.01
        assert abs(lam2 - 1.85) <= 0.01
        assert time.monotonic() - start < 10.0


def test_criterion_03_step_bound_formula():
    with verdict("criterion 03 step-size bound formula"):
        from sgdmc.objective import eta_bound

        for lam in np.linspace(0.1, 2.0, 20):
            x0 = double_well_x0(float(lam))
            want = 1.0 / (3.0 * x0 * x0 - 1.0)
            got = eta_bound(double_well(float(lam)))
            assert abs(got - want) / want <= 1e-10


def test_criterion_04_splitting_length_bound():
    with verdict("criterion 04 splitting-length bound"):
        start = time.monotonic()
        lam, eta = 2.0, 0.0698
        obj = double_well(lam)
        decomp = decompose(obj, eta)
        fam = MapFamily(obj, eta)
        cert = splitting_length_1d(fam, decomp.per_dimension[0][0], ell_max=64)
        x0 = double_well_x0(lam)
        bound = 1 + int(np.floor(x0 / (eta * (lam - LAM_C))))
        assert bound == 14
        assert cert.ell <= bound
        assert verify_certificate(fam, decomp.rectangles[0].box, cert)
        assert time.monotonic() - start < 1.0


def test_criterion_05_orthant_search_2d():
    with verdict("criterion 05 two-dimensional orthant search"):
        start = time.monotonic()
        obj = crossed_quadratics_2d()
        decomp = decompose(obj, 0.25)
        fam = MapFamily(obj, 0.25)
        rect = decomp.rectangles[0]
        with pytest.raises(NotFound):
            splitting_certificate_multi(fam, rect, ell_max=10, alphas=[(1, 1)])
        cert = splitting_certificate_multi(fam, rect, ell_max=10, alphas=[(1, -1)])
        assert cert.ell == 1
        assert cert.split_point == pytest.approx((0.5, 0.5), abs=1e-12)
        assert verify_certificate(fam, rect.box, cert)
        assert time.monotonic() - start < 1.0


def test_criterion_06_bernoulli_convolution_oracle():
    with verdict("criterion 06 Bernoulli-convolution oracle"):
        start = time.monotonic()
        n = 2000
        obj = bernoulli_pair()
        decomp = decompose(obj, 0.25)
        fam = MapFamily(obj, 0.25)
        grid = Grid.regular(decomp.intervals, n)
        op = ulam_assemble(fam, grid)
        cells = np.flatnonzero(grid.classify(decomp) == 0)
        res = invariant_measure(op, cells)
        assert d_F(res.measure, DiscreteMeasure.uniform(grid)) <= 2.0 / n
        assert time.monotonic() - start < 30.0


def test_criterion_07_transient_mass_decay():
    with verdict("criterion 07 transient-mass decay"):
        obj = double_well(0.2)
        eta = 0.3
        decomp = decompose(obj, eta)
        fam = MapFamily(obj, eta)
        grid = Grid.regular(decomp.intervals, 1000)
        op = ulam_assemble(fam, grid)
        labels = grid.classify(decomp)
        transient = labels == -1
        ell0 = uniform_escape_length(fam, grid_n=1000).ell_zero
        mu = DiscreteMeasure.uniform(grid)
        masses = [float(mu.weights[transient].sum())]
        while masses[-1] >= 1e-8:
            mu = push_forward(op, mu)
            masses.append(float(mu.weights[transient].sum()))
            assert masses[-1] <= masses[-2] + 1e-15, "transient mass increased"
            assert len(masses) < 20000
        bound = (1.0 - 2.0**-ell0) + 0.05
        for k in range(len(masses) - ell0):
            if masses[k] >= 1e-8:
                assert masses[k + ell0] / masses[k] <= bound


def test_criterion_08_partition_of_unity(dw038_setup):
    with verdict("criterion 08 partition of unity"):
        obj, eta, decomp, fam, grid, op = dw038_setup
        basins = basin_functions(fam, grid, tol=1e-11)
        labels = grid.classify(decomp)
        assert basins.partition_defect <= 1e-6
        assert np.max(np.abs(basins.values[0, labels == 0] - 1.0)) <= 1e-6
        coeff = mixture_coefficients(basins, DiscreteMeasure.uniform(grid))
        assert coeff[0] == pytest.approx(0.5, abs=1e-6)
        assert coeff[1] == pytest.approx(0.5, abs=1e-6)
        assert dual_residual(fam, basins) <= 1e-9


def test_criterion_09_geometric_convergence(dw038_setup):
    with verdict("criterion 09 geometric convergence"):
        obj, eta, decomp, fam, grid, op = dw038_setup
        res = limit_mixture(op, decomp, DiscreteMeasure.uniform(grid), k_max=10**4,
                            stop_below=1e-8)
        below = np.flatnonzero(res.decay_log < 1e-6)
        assert below.size > 0 and below[0] < 10**4
        assert res.envelope_ratio < 1.0


def test_criterion_10_diffusion_failure_exhibit(dw038_setup):
    with verdict("criterion 10 diffusion-approximation failure"):
        from sgdmc.diffusion import density_cell_masses, stationary_density

        obj, eta, decomp, fam, grid, op = dw038_setup
        assert decomp.rectangle_count == 2
        prof = stationary_density(obj, eta, grid.centers[0])
        masses = density_cell_masses(prof, grid.edges[0])
        labels = grid.classify(decomp)
        assert masses[labels == 0].sum() >= 0.1
        assert masses[labels == 1].sum() >= 0.1
        mu1 = invariant_measure(op, np.flatnonzero(labels == 0)).measure
        assert mu1.weights[labels == 1].sum() == 0.0


def test_criterion_11_envelope_brute_force_equivalence(rng):
    with verdict("criterion 11 envelope/brute-force equivalence"):
        start = time.monotonic()
        from oracles import brute_force_path_extremes

        three = SeparableObjective(
            components=((Polynomial([1, -2, 1]), Polynomial([1, 2, 1]),
                         Polynomial([0.09, -0.6, 1])),)
        )
        families = [MapFamily(bernoulli_pair(), 0.25), MapFamily(three, 0.25)]
        for fam in families:
            lo, hi = fam.intervals[0]
            for _ in range(50):
                x = float(rng.uniform(lo, hi))
                mins, maxs = brute_force_path_extremes(fam, 0, x, 8)
                got_min = extremal_envelope(fam, 0, x, 8, "min")[0]
                got_max = extremal_envelope(fam, 0, x, 8, "max")[0]
                assert np.max(np.abs(np.array(got_min) - mins)) <= 1e-14
                assert np.max(np.abs(np.array(got_max) - maxs)) <= 1e-14
        assert time.monotonic() - start < 5.0
