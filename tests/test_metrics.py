import itertools

import pytest

from oracles import brute_force_anchored_distance
from sgdmc.errors import GridMismatch
from sgdmc.metrics import d_F, d_alpha_rect, d_tilde, half_l1, metric_config
from sgdmc.transfer import DiscreteMeasure, Grid


def grid_1d(n=100):
    return Grid.regular([(-1.0, 1.0)], n)


def grid_2d(n=8):
    return Grid.regular([(0.0, 1.0), (0.0, 1.0)], n)


def random_measure(grid, rng, mass=1.0):
    w = rng.uniform(0, 1, size=grid.ncells)
    return DiscreteMeasure(grid, w * (mass / w.sum()))


def test_d_f_identity():
    g = grid_1d()
    mu = DiscreteMeasure.uniform(g)
    assert d_F(mu, mu) == 0.0


def test_d_f_point_masses_at_opposite_ends():
    g = grid_1d(10)
    left = DiscreteMeasure.point_mass(g, [-1.0 + 1e-9])
    right = DiscreteMeasure.point_mass(g, [1.0 - 1e-9])
    assert d_F(left, right) == pytest.approx(1.0)


def test_d_f_uniform_vs_left_point_mass():
    n = 100
    g = grid_1d(n)
    uni = DiscreteMeasure.uniform(g)
    left = DiscreteMeasure.point_mass(g, [-1.0 + 1e-9])
    # discrete version of the unit CDF gap at the left endpoint
    assert d_F(uni, left) == pytest.approx(1.0 - 1.0 / n)


def test_d_f_grid_mismatch():
    mu = DiscreteMeasure.uniform(grid_1d(10))
    nu = DiscreteMeasure.uniform(grid_1d(20))
    with pytest.raises(GridMismatch):
        d_F(mu, nu)


def test_d_alpha_equals_d_f_in_1d(rng):
    g = grid_1d(50)
    for _ in range(20):
        mu = random_measure(g, rng)
        nu = random_measure(g, rng)
        want = d_F(mu, nu)
        assert d_alpha_rect(mu, nu, (+1,)) == pytest.approx(want, abs=1e-14)
        assert d_alpha_rect(mu, nu, (-1,)) == pytest.approx(want, abs=1e-14)


def test_d_alpha_equal_measures_zero(rng):
    g = grid_2d(6)
    mu = random_measure(g, rng)
    for alpha in itertools.product((1, -1), repeat=2):
        assert d_alpha_rect(mu, mu, alpha) == 0.0


def test_d_alpha_2d_against_brute_force(rng):
    g = grid_2d(8)
    for _ in range(10):
        mu = random_measure(g, rng)
        nu = random_measure(g, rng)
        for alpha in itertools.product((1, -1), repeat=2):
            want = brute_force_anchored_distance(
                mu.weights, nu.weights, g.shape, alpha
            )
            assert d_alpha_rect(mu, nu, alpha) == pytest.approx(want, abs=1e-12)


def test_d_alpha_product_corner_case():
    g = grid_2d(8)
    uni = DiscreteMeasure.uniform(g)
    corner = DiscreteMeasure.point_mass(g, [1.0 - 1e-9, 1.0 - 1e-9])
    got = d_alpha_rect(uni, corner, (+1, +1))
    want = brute_force_anchored_distance(uni.weights, corner.weights, g.shape, (1, 1))
    assert got == pytest.approx(want, abs=1e-12)


def test_metric_axioms_randomized(rng):
    g = grid_1d(16)
    metrics = [
        d_F,
        lambda a, b: d_alpha_rect(a, b, (+1,)),
        lambda a, b: half_l1(a.weights, b.weights),
    ]
    for _ in range(1000):
        mu = random_measure(g, rng)
        nu = random_measure(g, rng)
        rho = random_measure(g, rng)
        for dist in metrics:
            assert dist(mu, nu) == pytest.approx(dist(nu, mu), abs=1e-14)
            assert dist(mu, nu) <= dist(mu, rho) + dist(rho, nu) + 1e-12
            assert dist(mu, mu) == 0.0


def test_metric_scaling(rng):
    g = grid_1d(32)
    mu = random_measure(g, rng)
    nu = random_measure(g, rng)
    c = 0.37
    scaled_mu = DiscreteMeasure(g, c * mu.weights)
    scaled_nu = DiscreteMeasure(g, c * nu.weights)
    assert d_F(scaled_mu, scaled_nu) == pytest.approx(c * d_F(mu, nu), rel=1e-12)
    assert d_alpha_rect(scaled_mu, scaled_nu, (+1,)) == pytest.approx(
        c * d_alpha_rect(mu, nu, (+1,)), rel=1e-12
    )


def test_metric_mass_bound(rng):
    g = grid_1d(32)
    for _ in range(100):
        mu = random_measure(g, rng, mass=float(rng.uniform(0.1, 2.0)))
        nu = random_measure(g, rng, mass=float(rng.uniform(0.1, 2.0)))
        mass = max(mu.weights.sum(), nu.weights.sum())
        assert d_alpha_rect(mu, nu, (+1,)) <= mass + 1e-12
        assert d_F(mu, nu) <= mass + 1e-12


def _two_block_config(n=60):
    """Composite-metric setup over a hand-built two-interval decomposition."""
    from sgdmc.absorbing import decompose
    from sgdmc.objective import double_well

    decomp = decompose(double_well(0.2), 0.3)
    grid = Grid.regular(decomp.intervals, n)
    return grid, metric_config(grid, decomp)


def test_d_tilde_zero_and_bound(rng):
    grid, config = _two_block_config()
    mu = random_measure(grid, rng)
    assert d_tilde(mu, mu, config) == 0.0
    for _ in range(50):
        a = random_measure(grid, rng)
        b = random_measure(grid, rng)
        assert d_tilde(a, b, config) <= 2.0 + 1e-12


def test_d_tilde_subadditive_on_splits(rng):
    grid, config = _two_block_config()
    for _ in range(200):
        mu1 = random_measure(grid, rng, mass=0.5)
        mu2 = random_measure(grid, rng, mass=0.5)
        nu1 = random_measure(grid, rng, mass=0.5)
        nu2 = random_measure(grid, rng, mass=0.5)
        lhs = d_tilde(
            DiscreteMeasure(grid, mu1.weights + mu2.weights),
            DiscreteMeasure(grid, nu1.weights + nu2.weights),
            config,
        )
        rhs = d_tilde(mu1, nu1, config) + d_tilde(mu2, nu2, config)
        assert lhs <= rhs + 1e-12

