"""Stationary density of the small-step advection-diffusion surrogate, for
comparison against the exact invariant measures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDiffusion
from .objective import SeparableObjective
from .poly import Polynomial

CONSTANT_REL_TOL = 1e-14  # _is_constant: coefficients below this share of the largest are zero


@dataclass(frozen=True)
class DiffusionProfile:
    """Grid evaluation of the surrogate's ingredients and stationary density."""

    x: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    diffusion: np.ndarray
    potential: np.ndarray
    rho_star: np.ndarray
    normalization: float
    truncation_estimate: float


def _require_1d(obj: SeparableObjective):
    if obj.dimension != 1:
        raise ValueError("the diffusion surrogate is one-dimensional")


def _mean_poly(obj: SeparableObjective) -> Polynomial:
    return obj.mean()[0]


def _phi_poly(obj: SeparableObjective, eta: float) -> Polynomial:
    """Effective potential: F plus (eta/4) (F')^2, as an exact polynomial."""
    f_mean = _mean_poly(obj)
    fp = f_mean.derivative()
    return f_mean + (fp * fp).scale(eta / 4.0)


def _diffusion_poly(obj: SeparableObjective) -> Polynomial:
    """Variance of the summand gradients: mean of (f_i')^2 minus (F')^2."""
    acc = Polynomial()
    for p in obj.components[0]:
        dp = p.derivative()
        acc = acc + (dp * dp)
    acc = acc.scale(1.0 / obj.n)
    fp = _mean_poly(obj).derivative()
    return acc - (fp * fp)


def vanishing_points(diffusion: np.ndarray, grid: np.ndarray, tol: float = 1e-12) -> list[float]:
    """Grid points where the diffusion coefficient falls below tol."""
    grid = np.asarray(grid, dtype=float)
    return [float(x) for x in grid[np.asarray(diffusion) < tol]]


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y over x from x[0] to each point of x."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def _is_constant(p: Polynomial) -> bool:
    if p.degree <= 0:
        return True
    scale = max(abs(c) for c in p.coeffs)
    return all(abs(c) <= CONSTANT_REL_TOL * scale for c in p.coeffs[1:])


def stationary_density(obj: SeparableObjective, eta: float, grid: np.ndarray) -> DiffusionProfile:
    """Normalized stationary density exp(-(2/eta) V) / Z on the grid.

    V integrates (Phi' + (2/eta) D') / D.  When D is a constant polynomial
    (every linear splitting) the integrand has the exact antiderivative Phi/D,
    which reproduces the closed-form density exp(-2 Phi / (eta D)); otherwise V
    falls back to cumulative trapezoid quadrature on an 8x refined grid.  The
    additive constant is fixed by V = 0 at the grid minimum of Phi, and Z is the
    trapezoid mass over the state interval; mass beyond the interval is
    reported as a crude one-cell tail estimate, not subtracted.
    """
    _require_1d(obj)
    grid = np.asarray(grid, dtype=float)
    phi_p = _phi_poly(obj, eta)
    d_p = _diffusion_poly(obj)
    phi = phi_p(grid)
    u = phi_p.derivative()(grid)
    diff = d_p(grid)
    bad = vanishing_points(diff, grid)
    if bad:
        raise SingularDiffusion(bad)

    if _is_constant(d_p):
        v = phi / d_p.coeffs[0]
    else:
        fine = np.linspace(grid[0], grid[-1], 8 * (len(grid) - 1) + 1)
        integrand = (phi_p.derivative()(fine) + (2.0 / eta) * d_p.derivative()(fine)) / d_p(fine)
        v = _cumulative_trapezoid(integrand, fine)[::8]
    v = v - v[np.argmin(phi)]

    log_rho = -(2.0 / eta) * v
    log_rho -= log_rho.max()
    rho = np.exp(log_rho)
    z = float(np.trapezoid(rho, grid))
    rho /= z
    h = float(grid[1] - grid[0])
    tail = float((rho[0] + rho[-1]) * h)
    return DiffusionProfile(
        x=grid, phi=phi, u=u, diffusion=diff, potential=v,
        rho_star=rho, normalization=z, truncation_estimate=tail,
    )


def density_cell_masses(profile: DiffusionProfile, edges: np.ndarray) -> np.ndarray:
    """Cell masses of the stationary density on the grid given by edges, read
    off the trapezoid cumulative distribution of the profile."""
    cdf = _cumulative_trapezoid(profile.rho_star, profile.x)
    masses = np.diff(np.interp(edges, profile.x, cdf))
    total = masses.sum()
    return masses / total if total > 0 else masses
