import numpy as np
import pytest

from sgdmc.absorbing import decompose
from sgdmc.diffusion import (
    _diffusion_poly,
    density_cell_masses,
    stationary_density,
    vanishing_points,
)
from sgdmc.errors import SingularDiffusion
from sgdmc.objective import SeparableObjective, double_well
from sgdmc.poly import Polynomial
from sgdmc.transfer import Grid


def test_diffusion_constant_for_linear_splitting():
    obj = double_well(0.55)
    xs = np.linspace(-1.2, 1.2, 100)
    diff = stationary_density(obj, 0.1, xs).diffusion
    assert np.max(np.abs(diff - 0.55**2)) < 1e-12


def test_drift_matches_manual_formulas():
    obj = double_well(0.38)
    eta = 0.33
    xs = np.linspace(-1.0, 1.0, 57)
    profile = stationary_density(obj, eta, xs)
    phi, u = profile.phi, profile.u
    f = 0.25 * (1 - xs**2) ** 2
    fp = xs**3 - xs
    assert np.allclose(phi, f + 0.25 * eta * fp**2, atol=1e-14)
    fpp = 3 * xs**2 - 1
    assert np.allclose(u, fp + 0.5 * eta * fp * fpp, atol=1e-13)


def test_vanishing_points_empty_for_splitting():
    obj = double_well(0.2)
    xs = np.linspace(-1.0, 1.0, 500)
    diff = stationary_density(obj, 0.1, xs).diffusion
    assert vanishing_points(diff, xs) == []


def test_vanishing_points_single_map():
    obj = SeparableObjective(components=((Polynomial([0, 0, 1.0]),),))
    xs = np.linspace(-1.0, 1.0, 100)
    diff = _diffusion_poly(obj)(xs)  # D vanishes: no stationary density
    assert len(vanishing_points(diff, xs)) == len(xs)
    with pytest.raises(SingularDiffusion):
        stationary_density(obj, 0.1, xs)


def test_vanishing_point_where_gradients_agree():
    # second summand built so both derivatives coincide exactly at 0.3
    f1 = Polynomial([0, 0, 1.0])
    f2 = Polynomial([0, 0, 1.0]) + Polynomial([0.09, -0.6, 1.0])
    obj = SeparableObjective(components=((f1, f2),))
    xs = np.linspace(-1.0, 1.0, 2001)
    diff = _diffusion_poly(obj)(xs)  # D vanishes: no stationary density
    flagged = vanishing_points(diff, xs, tol=1e-10)
    assert len(flagged) >= 1
    assert min(abs(x - 0.3) for x in flagged) < 1e-3


def test_stationary_density_symmetric():
    obj = double_well(0.38)
    xs = np.linspace(-1.15, 1.15, 801)
    prof = stationary_density(obj, 0.33, xs)
    assert np.max(np.abs(prof.rho_star - prof.rho_star[::-1])) < 1e-12
    assert np.trapezoid(prof.rho_star, xs) == pytest.approx(1.0, abs=1e-12)
    assert prof.potential[np.argmin(prof.phi)] == 0.0


def test_stationary_density_matches_closed_form():
    # for a linear splitting the quadrature route must reduce to the closed form
    obj = double_well(0.38)
    eta = 0.33
    xs = np.linspace(-1.15, 1.15, 1001)
    prof = stationary_density(obj, eta, xs)
    phi = 0.25 * (1 - xs**2) ** 2 + 0.25 * eta * (xs**3 - xs) ** 2
    closed = np.exp(-(2.0 / (eta * 0.38**2)) * (phi - phi.min()))
    closed /= np.trapezoid(closed, xs)
    assert np.max(np.abs(prof.rho_star - closed)) < 1e-8


def test_quadrature_route_on_nonconstant_diffusion():
    # difference of summands is cubic, so the diffusion coefficient varies but
    # never vanishes; refining the grid shrinks the normalization change
    f1 = Polynomial([0, 0.5, 0, 1 / 6, 1.0])
    f2 = Polynomial([0, -0.5, 0, -1 / 6, 1.0])
    obj = SeparableObjective(components=((f1, f2),))
    zs = []
    for n in (201, 401, 801):
        xs = np.linspace(-1.0, 1.0, n)
        prof = stationary_density(obj, 0.05, xs)
        zs.append(prof.normalization)
        assert np.all(prof.diffusion > 0)
    assert abs(zs[2] - zs[1]) < abs(zs[1] - zs[0])
    assert abs(zs[2] - zs[1]) <= 0.5 * abs(zs[1] - zs[0]) + 1e-15


def test_failure_exhibit_two_wells_one_density(dw038_setup):
    obj, eta, decomp, fam, grid, op = dw038_setup
    prof = stationary_density(obj, eta, grid.centers[0])
    masses = density_cell_masses(prof, grid.edges[0])
    labels = grid.classify(decomp)
    assert len(decomp.rectangles) == 2
    assert masses[labels == 0].sum() >= 0.1
    assert masses[labels == 1].sum() >= 0.1


def test_truncation_estimate_reported():
    obj = double_well(2.0)
    decomp = decompose(obj, 0.0698)
    grid = Grid.regular(decomp.intervals, 500)
    prof = stationary_density(obj, 0.0698, grid.centers[0])
    assert prof.truncation_estimate >= 0.0
    assert prof.truncation_estimate < 0.05


def test_diffusion_nonnegative_everywhere(rng):
    # variance identity keeps the coefficient nonnegative for any splitting
    for _ in range(20):
        coeffs = [0.0, float(rng.normal()), float(rng.uniform(0.2, 1.0)),
                  float(rng.normal()) * 0.1, float(rng.uniform(0.2, 1.0))]
        base = Polynomial(coeffs)
        lam = float(rng.uniform(0.05, 1.0))
        from sgdmc.objective import lambda_split

        obj = lambda_split(base, lam)
        xs = np.linspace(-2, 2, 101)
        diff = _diffusion_poly(obj)(xs)  # D may vanish somewhere
        assert np.min(diff) >= -1e-12
