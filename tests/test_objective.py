import math

import numpy as np
import pytest

from oracles import double_well_x0
from sgdmc.absorbing import decompose
from sgdmc.dynamics import MapFamily
from sgdmc.errors import AssumptionA5Violated, ConfigError, EmptyCriticalSet, NonCoercive
from sgdmc.objective import (
    SeparableObjective,
    bernoulli_pair,
    double_well,
    double_well_potential,
    eighth_order_potential,
    eta_bound,
    lambda_split,
    crossed_quadratics_2d,
    lipschitz_constant,
    objective_from_config,
    step_map,
)
from sgdmc.poly import Polynomial


def test_lipschitz_bernoulli_pair():
    # both second derivatives are identically 2
    assert lipschitz_constant(bernoulli_pair()) == pytest.approx(2.0, abs=1e-15)


def test_lipschitz_double_well_055():
    obj = double_well(0.55)
    k = lipschitz_constant(obj)
    x0 = double_well_x0(0.55)
    assert k == pytest.approx(3 * x0 * x0 - 1, rel=1e-12)
    assert 1.0 / k == pytest.approx(0.2969560117579362, rel=1e-12)


def test_eta_bound_admits_benchmark_step():
    # 0.33 must be admissible at lam = 0.38
    assert eta_bound(double_well(0.38)) == pytest.approx(0.3345969789760739, rel=1e-12)
    assert 0.33 < eta_bound(double_well(0.38))


def test_lipschitz_monotone_in_interval():
    obj = double_well(0.55)
    small = lipschitz_constant(obj, intervals=[(-1.0, 1.0)])
    large = lipschitz_constant(obj, intervals=[(-2.0, 2.0)])
    assert large >= small


def test_lambda_split_components():
    f = double_well_potential()
    obj = lambda_split(f, 0.55)
    assert obj.n == 2 and obj.dimension == 1
    f1, f2 = obj.components[0]
    assert f1.coeffs == (0.25, 0.55, -0.5, 0.0, 0.25)
    assert f2.coeffs == (0.25, -0.55, -0.5, 0.0, 0.25)


def test_lambda_split_mean_recovers_objective():
    f = double_well_potential()
    obj = lambda_split(f, 0.3)
    assert obj.mean()[0].coeffs == f.coeffs


def test_lambda_split_quadratic_two_minima():
    obj = lambda_split(Polynomial([0, 0, 1.0]), 1.0)
    r = obj.critical_report
    assert r.roots[0][0] == pytest.approx([-0.5])
    assert r.roots[0][1] == pytest.approx([0.5])


def test_lambda_split_rejects_noncoercive():
    with pytest.raises(NonCoercive):
        lambda_split(Polynomial([0, 0, 0, 1.0]), 0.5)  # odd degree
    with pytest.raises(ValueError):
        lambda_split(double_well_potential(), 0.0)


def test_shared_critical_point_rejected():
    p1 = Polynomial([1, -2, 1])          # (x-1)^2
    p2 = Polynomial([2, -4, 2])          # 2 (x-1)^2, same critical point
    obj = SeparableObjective(components=((p1, p2),))
    with pytest.raises(AssumptionA5Violated):
        obj.check_inconsistent_optimization()


def test_single_nonzero_component_rejected_lazily():
    obj = SeparableObjective(components=((Polynomial([0, 0, 1.0]),),))
    with pytest.raises(AssumptionA5Violated):
        obj.check_inconsistent_optimization()


def test_all_zero_dimension_rejected():
    with pytest.raises(EmptyCriticalSet):
        SeparableObjective(components=((Polynomial(), Polynomial()),))


def test_noncoercive_component_rejected():
    with pytest.raises(NonCoercive):
        SeparableObjective(
            components=((Polynomial([0, 0, 1]), Polynomial([0, 1])),)
        )


def test_map_family_step_bound():
    obj = bernoulli_pair()
    fam = MapFamily(obj, 0.25)
    assert obj.lipschitz_K == pytest.approx(2.0)
    assert eta_bound(fam.obj) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        MapFamily(obj, 0.5)
    with pytest.raises(ValueError):
        MapFamily(obj, -0.1)
    with pytest.raises(ValueError):
        decompose(obj, 0.5)


def test_gradient_maps_strictly_increasing():
    # with eta below 1/K every map must be strictly increasing on I
    cases = [
        (double_well(0.38), 0.33),
        (double_well(0.2), 0.3),
        (bernoulli_pair(), 0.25),
    ]
    for obj, eta in cases:
        lo, hi = obj.critical_report.span[0]
        xs = np.linspace(lo, hi, 1000)
        for p in obj.components[0]:
            dp = p.derivative()
            vals = xs - eta * dp(xs)
            assert np.all(np.diff(vals) > 0)


def test_critical_count_changes_at_fold():
    lam_c = 2.0 / (3.0 * np.sqrt(3.0))
    for lam in np.linspace(0.1, 1.0, 50):
        obj = double_well(float(lam))
        count = len(obj.critical_report.roots[0][1])
        assert count == (3 if lam < lam_c else 1)


def test_objective_from_config_shortcut():
    cfg = {"objective": [0.25, 0.0, -0.5, 0.0, 0.25], "lambda": 0.38, "eta": 0.33}
    obj, eta = objective_from_config(cfg)
    assert eta == 0.33
    assert obj.components[0][0].coeffs == (0.25, 0.38, -0.5, 0.0, 0.25)


def test_objective_from_config_full_table():
    cfg = {
        "dimension": 1,
        "n": 2,
        "components": [[[1, -2, 1], [1, 2, 1]]],
        "eta": 0.25,
    }
    obj, eta = objective_from_config(cfg)
    assert obj.components[0][1].coeffs == (1.0, 2.0, 1.0)


def test_objective_from_config_errors():
    with pytest.raises(ConfigError):
        objective_from_config({"objective": [0, 0, 1.0], "eta": 0.1})
    with pytest.raises(ConfigError):
        objective_from_config({"dimension": 1, "n": 2, "components": [[[0, 0, 1]]], "eta": 0.1})
    with pytest.raises(ConfigError):
        objective_from_config({"dimension": 1, "n": 1, "components": [[[0, 0, 1]]]})


def test_config_number_beyond_float_range_is_config_error():
    # an integer too large for a float is not finite, not an internal error
    with pytest.raises(ConfigError, match="finite"):
        objective_from_config({"objective": [0.25, 0.0, -0.5, 0.0, 0.25],
                               "lambda": 10**400, "eta": 0.1})


def test_eighth_order_potential_constraints():
    f = eighth_order_potential()
    dp = f.derivative()
    # stationary exactly at the stated minima and maxima
    assert dp(1.0) == pytest.approx(0.0, abs=1e-12)
    assert dp(1.35) == pytest.approx(0.0, abs=1e-12)
    assert f.coeffs[8] == 0.78
    assert f.coeffs[4] == pytest.approx(2.8431, abs=1e-12)
    assert f.coeffs[6] == pytest.approx(-2.9354, abs=1e-12)


@pytest.mark.parametrize("obj,eta", [(double_well(0.38), 0.33), (crossed_quadratics_2d(), 0.25)],
                         ids=["double-well", "crossed-quadratics"])
def test_step_map_coefficient_bits(obj, eta):
    # coefficient k of x - eta * p'(x) is -eta * (k + 1) * c_{k+1}, plus 1.0
    # for k = 1; zero coefficients keep their sign (the double well's x^2
    # term and the crossed quadratics' constant term are -0.0)
    fam = MapFamily(obj, eta)
    negative_zeros = 0
    for j, row in enumerate(obj.components):
        for i, p in enumerate(row):
            want = [-eta * ((k + 1) * c) for k, c in enumerate(p.coeffs[1:])]
            want[1] = want[1] + 1.0
            got = step_map(p, eta).coeffs
            assert [c.hex() for c in got] == [c.hex() for c in want]
            assert [c.hex() for c in fam.phi[i][j].coeffs] == [c.hex() for c in want]
            negative_zeros += sum(1 for c in got if c == 0.0 and math.copysign(1.0, c) < 0)
    # both double-well maps and the two x^2 maps of the crossed quadratics
    assert negative_zeros == 2


def test_step_map_of_zero_component_is_identity():
    coeffs = step_map(Polynomial(), 0.3).coeffs
    assert [c.hex() for c in coeffs] == [(0.0).hex(), (1.0).hex()]
