import dataclasses

import numpy as np
import pytest

from oracles import (
    brute_force_path_extremes,
    double_well_x0,
    whole_point_escape_lengths,
    whole_point_sample,
)
from sgdmc import dynamics
from sgdmc.absorbing import Rectangle, decompose
from sgdmc.dynamics import (
    SAMPLE_CHUNK,
    MapFamily,
    _escape_direction,
    apply_map,
    apply_path,
    escape_path,
    extremal_envelope,
    path_coord,
    sgd_sample,
    splitting_certificate_multi,
    splitting_length_1d,
    uniform_escape_length,
    verify_certificate,
)
from sgdmc.errors import NonTermination, NotFound, OutOfStateSpace
from sgdmc.objective import (
    SeparableObjective,
    crossed_quadratics_2d,
    double_well,
    eighth_order,
)
from sgdmc.poly import Polynomial

LAM_C = 2.0 / (3.0 * np.sqrt(3.0))


def three_map_family(eta=0.25):
    obj = SeparableObjective(
        components=((Polynomial([1, -2, 1]), Polynomial([1, 2, 1]),
                     Polynomial([0.09, -0.6, 1])),)
    )
    return MapFamily(obj, eta)


def mixed_2d_family(eta=0.2):
    obj = SeparableObjective(
        components=(double_well(0.2).components[0], double_well(0.55).components[0])
    )
    return MapFamily(obj, eta)


def test_apply_map_bernoulli(bernoulli_setup):
    _, _, _, fam = bernoulli_setup
    assert apply_map(fam, 1, [-1.0])[0] == pytest.approx(0.0)  # x/2 + 1/2
    assert apply_map(fam, 1, [1.0])[0] == pytest.approx(1.0)   # fixed point
    assert apply_map(fam, 2, [1.0])[0] == pytest.approx(0.0)


def test_apply_map_double_well():
    fam = MapFamily(double_well(0.55), 0.1)
    assert apply_map(fam, 2, [0.0])[0] == pytest.approx(0.055)


def test_apply_map_rejects_outside_state_space(bernoulli_setup):
    _, _, _, fam = bernoulli_setup
    with pytest.raises(OutOfStateSpace):
        apply_map(fam, 1, [1.5])


def test_apply_path_identity_and_composition(bernoulli_setup):
    _, _, _, fam = bernoulli_setup
    assert apply_path(fam, (), [0.3])[0] == 0.3
    assert apply_path(fam, (1, 1), [-1.0])[0] == pytest.approx(0.5)


def test_apply_path_concatenation(bernoulli_setup, rng):
    _, _, _, fam = bernoulli_setup
    for _ in range(25):
        p = tuple(int(i) for i in rng.integers(1, 3, size=4))
        q = tuple(int(i) for i in rng.integers(1, 3, size=3))
        x = float(rng.uniform(-1, 1))
        via_concat = apply_path(fam, tuple(q) + tuple(p), [x])
        stepwise = apply_path(fam, p, apply_path(fam, q, [x]))
        assert via_concat[0] == pytest.approx(stepwise[0], abs=1e-15)


def test_envelope_matches_brute_force_n2(bernoulli_setup, rng):
    _, _, _, fam = bernoulli_setup
    for _ in range(50):
        x = float(rng.uniform(-1, 1))
        mins, maxs = brute_force_path_extremes(fam, 0, x, 8)
        assert extremal_envelope(fam, 0, x, 8, "min") == pytest.approx(mins, abs=1e-14)
        assert extremal_envelope(fam, 0, x, 8, "max") == pytest.approx(maxs, abs=1e-14)


def test_envelope_matches_brute_force_n3(rng):
    fam = three_map_family()
    for _ in range(20):
        x = float(rng.uniform(-1, 1))
        mins, maxs = brute_force_path_extremes(fam, 0, x, 8)
        assert extremal_envelope(fam, 0, x, 8, "min") == pytest.approx(mins, abs=1e-14)
        assert extremal_envelope(fam, 0, x, 8, "max") == pytest.approx(maxs, abs=1e-14)


def test_envelope_bernoulli_geometric(bernoulli_setup):
    _, _, _, fam = bernoulli_setup
    vals = extremal_envelope(fam, 0, 1.0, 4, "min")
    assert vals == pytest.approx([1.0, 0.0, -0.5, -0.75, -0.875])


def test_envelope_step_outside_left_set(dw02_setup):
    # at a point every map pushes right, the min step cannot decrease
    _, _, _, fam = dw02_setup
    x = 0.5  # in the pure right-moving stretch
    vals = extremal_envelope(fam, 0, x, 1, "min")
    assert vals[1] >= x


def test_splitting_1d_bernoulli(bernoulli_setup):
    _, _, decomp, fam = bernoulli_setup
    cert = splitting_length_1d(fam, decomp.per_dimension[0][0])
    assert cert.ell == 1
    assert cert.path_lo == (2,) and cert.path_hi == (1,)
    assert cert.split_point[0] == pytest.approx(0.0)
    assert verify_certificate(fam, decomp.rectangles[0].box, cert)


def test_splitting_1d_bound_case():
    lam, eta = 2.0, 0.0698
    obj = double_well(lam)
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    cert = splitting_length_1d(fam, decomp.per_dimension[0][0])
    x0 = double_well_x0(lam)
    bound = 1 + int(np.floor(x0 / (eta * (lam - LAM_C))))
    assert bound == 14
    assert cert.ell <= bound
    assert verify_certificate(fam, decomp.rectangles[0].box, cert)


def test_splitting_length_grows_near_fold():
    # the certificate length blows up as the splitting parameter approaches
    # the fold where the single absorbing interval splits in two
    eta = 0.2
    lengths = []
    for lam in (0.55, 0.45, 0.42, 0.40):
        obj = double_well(lam)
        decomp = decompose(obj, eta)
        fam = MapFamily(obj, eta)
        lengths.append(splitting_length_1d(fam, decomp.per_dimension[0][0], ell_max=1024).ell)
    assert lengths == sorted(lengths)
    assert lengths[-1] > lengths[0]


def test_splitting_1d_not_found_reports_gap():
    lam, eta = 0.386, 0.2
    obj = double_well(lam)
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    with pytest.raises(NotFound) as err:
        splitting_length_1d(fam, decomp.per_dimension[0][0], ell_max=2)
    assert err.value.gaps[(+1,)] > 0


def test_multi_orthant_search_crossed_2d():
    obj = crossed_quadratics_2d()
    decomp = decompose(obj, 0.25)
    fam = MapFamily(obj, 0.25)
    rect = decomp.rectangles[0]
    with pytest.raises(NotFound):
        splitting_certificate_multi(fam, rect, ell_max=10, alphas=[(1, 1)])
    cert = splitting_certificate_multi(fam, rect, ell_max=10, alphas=[(1, -1)])
    assert cert.ell == 1
    assert cert.alpha == (1, -1)
    assert cert.split_point == pytest.approx((0.5, 0.5))
    assert verify_certificate(fam, rect.box, cert)
    # the full search finds the certificate on its own
    auto = splitting_certificate_multi(fam, rect, ell_max=10)
    assert auto.alpha == (1, -1)


def test_multi_product_of_double_wells():
    comp = double_well(0.55).components[0]
    obj = SeparableObjective(components=(comp, comp))
    eta = 0.2
    decomp = decompose(obj, eta)
    fam = MapFamily(obj, eta)
    rect = decomp.rectangles[0]
    cert = splitting_certificate_multi(fam, rect, ell_max=64)
    assert cert.alpha == (1, 1)
    assert verify_certificate(fam, rect.box, cert)
    one_d = splitting_length_1d(
        MapFamily(double_well(0.55), eta), decompose(double_well(0.55), eta).per_dimension[0][0]
    )
    assert cert.ell <= 2 * one_d.ell


def test_multi_reduces_to_1d():
    # in one dimension the orthant search returns the 1-d certificate itself
    for lam, eta in [(0.2, 0.3), (0.38, 0.33), (0.38, 0.01), (0.55, 0.2)]:
        fam = MapFamily(double_well(lam), eta)
        decomp = fam.decomposition
        for rect, t in zip(decomp.rectangles, decomp.per_dimension[0]):
            multi = splitting_certificate_multi(fam, rect, ell_max=64)
            one = splitting_length_1d(fam, t, ell_max=64)
            assert multi == one


def test_escape_empty_path_inside(dw02_setup):
    _, _, _, fam = dw02_setup
    assert escape_path(fam, [1.0]) == ()


def test_escape_lands_in_interior(dw02_setup):
    _, _, decomp, fam = dw02_setup
    for x in np.linspace(-0.85, 0.85, 23):
        path = escape_path(fam, [float(x)])
        img = apply_path(fam, path, [float(x)])
        assert any(r.contains(img, closed=False) for r in decomp.rectangles)


def test_escape_length_splits_per_dimension():
    fam2 = mixed_2d_family(eta=0.2)
    fam1 = MapFamily(double_well(0.2), 0.2)
    for x in (-0.5, 0.0, 0.4):
        two_d = escape_path(fam2, [x, 0.3])
        one_d = escape_path(fam1, [x])
        # second coordinate is already absorbing everywhere, so the whole
        # path serves the first coordinate
        assert len(two_d) == len(one_d)


def test_uniform_escape_zero_when_no_transient(bernoulli_setup):
    _, _, _, fam = bernoulli_setup
    assert uniform_escape_length(fam, grid_n=101).ell_zero == 0


def test_uniform_escape_grid_stability(dw02_setup):
    _, _, _, fam = dw02_setup
    a = uniform_escape_length(fam, grid_n=1000).ell_zero
    b = uniform_escape_length(fam, grid_n=2000).ell_zero
    assert abs(a - b) <= 1


def test_uniform_escape_monotone_in_eta():
    obj = double_well(0.2)
    big = uniform_escape_length(MapFamily(obj, 0.3), grid_n=500)
    small = uniform_escape_length(MapFamily(obj, 0.15), grid_n=500)
    assert small.ell_zero >= big.ell_zero


def test_sampler_deterministic(dw02_setup):
    _, eta, _, fam = dw02_setup
    a = sgd_sample(fam, [0.0], steps=5000, seed=123, grid_n=64)
    b = sgd_sample(fam, [0.0], steps=5000, seed=123, grid_n=64)
    assert a.final_point == b.final_point
    assert all(np.array_equal(x, y) for x, y in zip(a.histograms, b.histograms))
    c = sgd_sample(fam, [0.0], steps=5000, seed=124, grid_n=64)
    assert c.final_point != a.final_point


def test_sampler_stays_absorbed(dw02_setup):
    _, _, decomp, fam = dw02_setup
    summary = sgd_sample(fam, [1.0], steps=20000, seed=5, grid_n=100)
    assert summary.first_absorbed_step == 0
    assert summary.rectangle_steps[(1,)] == 20000
    assert summary.rectangle_steps[(0,)] == 0
    t1 = decomp.rectangles[1].box[0]
    edges = summary.bin_edges[0]
    outside = (edges[1:] <= t1[0]) | (edges[:-1] >= t1[1])
    assert summary.histograms[0][outside].sum() == 0


def test_sampler_histogram_sums_to_steps(dw02_setup):
    _, _, _, fam = dw02_setup
    s = sgd_sample(fam, [0.2], steps=3000, seed=9, grid_n=50)
    assert s.histograms[0].sum() == 3000


def test_sampler_avoids_global_minimum_eighth_order():
    # the global minimum at 0 lies in the transient region: once absorbed near
    # the suboptimal well the chain never samples it again
    obj = eighth_order(1.6)
    eta = 0.018  # admissible: 1/K is about 0.0196
    fam = MapFamily(obj, eta)
    s = sgd_sample(fam, [1.2], steps=20000, seed=11, grid_n=200)
    assert s.first_absorbed_step is not None
    assert s.rectangle_steps[(1,)] == 20000 - s.first_absorbed_step
    centers = 0.5 * (s.bin_edges[0][:-1] + s.bin_edges[0][1:])
    near_zero = np.abs(centers) < 0.5
    assert s.histograms[0][near_zero].sum() <= s.first_absorbed_step


def test_sampler_transient_mass_decay(dw02_setup):
    # fraction of seeded runs still transient after multiples of the uniform
    # escape length, compared against the guaranteed geometric factor
    _, eta, _, fam = dw02_setup
    ell0 = uniform_escape_length(fam, grid_n=200).ell_zero
    lo, hi = fam.intervals[0]
    starts = np.linspace(lo + 1e-6, hi - 1e-6, 1000)
    horizon = 4 * ell0
    absorbed_at = []
    for run, x0 in enumerate(starts):
        s = sgd_sample(fam, [float(x0)], steps=horizon, seed=run, grid_n=8)
        absorbed_at.append(s.first_absorbed_step if s.first_absorbed_step is not None
                           else horizon + 1)
    absorbed_at = np.array(absorbed_at)
    bound = (1.0 - 0.5**ell0) + 0.05
    fractions = [(absorbed_at > k * ell0).mean() for k in range(4)]
    for prev, cur in zip(fractions[:-1], fractions[1:]):
        if prev > 0.02:  # below that the ratio is sampling noise
            assert cur / prev <= bound


def test_sampler_long_run_matches_invariant_histogram():
    lam, eta = 2.0, 0.0698
    obj = double_well(lam)
    fam = MapFamily(obj, eta)
    summary = sgd_sample(fam, [0.0], steps=10**6, seed=2024, grid_n=500)

    from sgdmc.metrics import d_F
    from sgdmc.transfer import DiscreteMeasure, Grid, invariant_measure, ulam_assemble

    decomp = decompose(obj, eta)
    grid = Grid.regular(decomp.intervals, 500)
    op = ulam_assemble(fam, grid)
    cells = np.flatnonzero(grid.classify(decomp) == 0)
    inv = invariant_measure(op, cells).measure
    hist = DiscreteMeasure(grid, summary.histograms[0] / summary.steps)
    assert d_F(hist, inv) <= 0.05


def test_path_coord_matches_apply_path(bernoulli_setup, rng):
    _, _, _, fam = bernoulli_setup
    for _ in range(10):
        p = tuple(int(i) for i in rng.integers(1, 3, size=5))
        x = float(rng.uniform(-1, 1))
        assert path_coord(fam, p, 0, x) == pytest.approx(apply_path(fam, p, [x])[0])


def test_uniform_escape_additive_over_dimensions():
    # worst-case greedy length of the product problem is the sum of the
    # per-dimension worst cases
    comp = double_well(0.2).components[0]
    obj2 = SeparableObjective(components=(comp, comp))
    eta = 0.2
    two_d = uniform_escape_length(MapFamily(obj2, eta), grid_n=60)
    obj1 = double_well(0.2)
    one_d = uniform_escape_length(MapFamily(obj1, eta), grid_n=60)
    assert two_d.ell_zero <= 2 * one_d.ell_zero
    assert two_d.ell_zero >= one_d.ell_zero


@pytest.mark.parametrize("fam,x0,steps", [
    (MapFamily(double_well(0.38), 0.33), [0.0], 20000),
    (MapFamily(double_well(0.38), 0.01), [-0.2], 20000),
    (mixed_2d_family(), [-0.3, 0.1], 20000),
], ids=["dw-eta-0.33", "dw-eta-0.01", "mixed-2d"])
def test_sampler_matches_whole_point_oracle(fam, x0, steps):
    _assert_sample_matches_oracle(fam, x0, steps)


def _assert_sample_matches_oracle(fam, x0, steps, seed=7):
    final, hists, first, rect_steps = whole_point_sample(fam, x0, steps, seed=seed, grid_n=64)
    s = sgd_sample(fam, x0, steps=steps, seed=seed, grid_n=64)
    assert s.final_point == final
    assert all(np.array_equal(a, b) for a, b in zip(s.histograms, hists))
    assert s.first_absorbed_step == first
    assert s.rectangle_steps == rect_steps
    return s


@pytest.mark.parametrize("chunk,blocks", [(7, 3), (64, 3), (SAMPLE_CHUNK, 1)])
@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("fam,x0", [
    (MapFamily(double_well(0.38), 0.33), [0.0]),
    (mixed_2d_family(), [-0.3, 0.1]),
], ids=["dw-eta-0.33", "mixed-2d"])
def test_sampler_blocks_match_whole_point_oracle(monkeypatch, fam, x0, chunk, blocks, offset):
    # runs ending one step before, at and one step after a block boundary
    monkeypatch.setattr(dynamics, "SAMPLE_CHUNK", chunk)
    _assert_sample_matches_oracle(fam, x0, chunk * blocks + offset)


@pytest.mark.parametrize("chunk", [7, 64, 149])
def test_sampler_carries_first_absorption_across_blocks(monkeypatch, chunk):
    # from -0.2 at eta=0.01 (seed 7) the chain enters the left rectangle at
    # step 149: inside a later block, or at the first step of the second one
    monkeypatch.setattr(dynamics, "SAMPLE_CHUNK", chunk)
    s = _assert_sample_matches_oracle(MapFamily(double_well(0.38), 0.01), [-0.2], 20000)
    assert s.first_absorbed_step == 149


def test_sampler_reports_departure_at_its_global_step(monkeypatch):
    # a sub-box of the right absorbing interval is not absorbing: the chain
    # from the centre enters it in a later block and leaves it, and the
    # reported step counts from the start of the run
    fam = MapFamily(double_well(0.38), 0.33)
    left, right = fam.decomposition.rectangles
    (lo, hi), = right.box
    narrow = Rectangle(index=right.index, box=((lo + 0.2 * (hi - lo), hi),))
    fam.__dict__["decomposition"] = dataclasses.replace(
        fam.decomposition, rectangles=(left, narrow))
    monkeypatch.setattr(dynamics, "SAMPLE_CHUNK", 7)
    with pytest.raises(AssertionError, match="absorbing property violated") as info:
        sgd_sample(fam, [0.0], steps=2000, seed=1)
    step = int(str(info.value).rsplit(" ", 1)[1])
    before = sgd_sample(fam, [0.0], steps=step, seed=1)  # no departure yet
    assert 7 <= before.first_absorbed_step < step
    with pytest.raises(AssertionError, match=f"violated at step {step}$"):
        sgd_sample(fam, [0.0], steps=step + 1, seed=1)


@pytest.mark.parametrize("fam,grid_n", [
    (MapFamily(double_well(0.38), 0.01), 500),
    (mixed_2d_family(), 25),
    # both coordinates transient somewhere: settling the second one moves the first
    (MapFamily(SeparableObjective(components=double_well(0.2).components * 2), 0.2), 25),
], ids=["dw-eta-0.01", "mixed-2d", "dw-product-2d"])
def test_escape_lengths_match_whole_point_oracle(fam, grid_n):
    decomp = fam.decomposition
    report = uniform_escape_length(fam, grid_n=grid_n)
    oracle = whole_point_escape_lengths(fam, decomp, grid_n, _escape_direction)
    assert np.array_equal(report.lengths, oracle)


@pytest.mark.parametrize("fam,grid_n", [
    (MapFamily(double_well(0.38), 0.01), 500),
    (MapFamily(SeparableObjective(components=double_well(0.2).components * 2), 0.2), 25),
], ids=["dw-eta-0.01", "dw-product-2d"])
def test_escape_walk_stops_once_a_path_passes_the_cap(monkeypatch, fam, grid_n):
    # a cap at the longest path lets every walk finish and one step less stops
    # them; in 2-d the longest path spends steps on both coordinates
    ell_zero = uniform_escape_length(fam, grid_n=grid_n).ell_zero
    monkeypatch.setattr(dynamics, "ESCAPE_STEP_CAP", ell_zero)
    assert uniform_escape_length(fam, grid_n=grid_n).ell_zero == ell_zero
    monkeypatch.setattr(dynamics, "ESCAPE_STEP_CAP", ell_zero - 1)
    with pytest.raises(NonTermination, match=f"^escape exceeded {ell_zero - 1} steps$"):
        uniform_escape_length(fam, grid_n=grid_n)


def test_greedy_scan_keeps_the_first_of_tied_maps():
    # f_1 = F + 0.1x^2 and f_2 = F - 0.1x^2 differ only in x^2, so their maps
    # send 0 to the same point: the walk and both envelopes from 0 take map 1
    obj = SeparableObjective(components=((Polynomial([0.25, 0.38, -0.4, 0.0, 0.25]),
                                          Polynomial([0.25, 0.38, -0.6, 0.0, 0.25])),))
    fam = MapFamily(obj, 0.13)
    assert fam.map_coord(1, 0, 0.0) == fam.map_coord(2, 0, 0.0)
    assert escape_path(fam, [0.0])[0] == 1
    assert extremal_envelope(fam, 0, 0.0, 1, "min") == extremal_envelope(fam, 0, 0.0, 1, "max")
    for direction in ("min", "max"):
        assert dynamics._envelope_with_path(fam, 0, 0.0, 1, direction)[1] == (1,)
