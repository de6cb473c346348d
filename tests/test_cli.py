import argparse
import json
import logging
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import per_row_grid_csv

import sgdmc
from sgdmc import cli, poly, transfer
from sgdmc.cli import main
from sgdmc.dynamics import MapFamily, uniform_escape_length
from sgdmc.metrics import metric_config
from sgdmc.objective import eta_bound, lambda_split, objective_from_config
from sgdmc.poly import Polynomial
from sgdmc.transfer import Grid

DW_COEFFS = [0.25, 0.0, -0.5, 0.0, 0.25]
# F' + 0.38 = 0.38 - x + 4e-150 x^3 has the root bound 2.5e149, whose cube overflows
RANGE_OVERFLOW_CONFIG = {"objective": [0.25, 0, -0.5, 0, 1e-150], "lambda": 0.38, "eta": 0.01}
# 1 / 4e-310 overflows: the root bound of F' + lambda is infinite
SUBNORMAL_LEAD_CONFIG = {"objective": [0.25, 0, -0.5, 0, 1e-310], "lambda": 0.38, "eta": 0.01}
EIGHTH_COEFFS = [0.0, 0.0, 0.0, 0.0, 2.8431, 0.0, -2.9354, 0.0, 0.78]
LAM_C = 2.0 / (3.0 * np.sqrt(3.0))
# F + 0.38x and F - 0.38x of the double well F, ascending coefficients
PRODUCT_ROW = [[0.25, 0.38, -0.5, 0.0, 0.25], [0.25, -0.38, -0.5, 0.0, 0.25]]
# the benchmark's 2-d product double well (dw2d-grid)
PRODUCT_CONFIG = {"dimension": 2, "n": 2, "components": [PRODUCT_ROW] * 2, "eta": 0.33}
# the double well split with lambda 0.2 in x1 (two wells) and 0.55 in x2 (one)
MIXED_CONFIG = {"dimension": 2, "n": 2, "eta": 0.2, "components": [
    [[0.25, lam, -0.5, 0.0, 0.25], [0.25, -lam, -0.5, 0.0, 0.25]] for lam in (0.2, 0.55)]}
# the double well split with lambda 0.2 in each of three dimensions
CUBE_CONFIG = {"dimension": 3, "n": 2, "eta": 0.1, "components": [
    [[0.25, 0.2, -0.5, 0.0, 0.25], [0.25, -0.2, -0.5, 0.0, 0.25]]] * 3}


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


def grid_of(config: dict, n: int) -> Grid:
    """The grid the grid commands build for config at --grid n."""
    return Grid.regular(MapFamily(*objective_from_config(config)).intervals, n)


def scattered(path, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cells) of a grid CSV: its rows' values scattered back onto
    the grid by centre, a cell that no row names holding 0, and the cell of
    each row.  Checks the header, that each row's coordinates are exactly
    its cell's centre ({:.17g} round-trips) and that the cells strictly
    increase."""
    d = grid.dimension
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == ",".join((["x"] if d == 1 else [f"x{j + 1}" for j in range(d)])
                                + ["value"])
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    data = data.reshape(len(lines) - 1, d + 1)
    index = []
    for j, centers in enumerate(grid.centers):
        k = np.minimum(np.searchsorted(centers, data[:, j]), centers.size - 1)
        assert np.array_equal(centers[k], data[:, j])
        index.append(k)
    cells = np.ravel_multi_index(index, grid.shape)
    assert np.all(np.diff(cells) > 0)
    weights = np.zeros(grid.ncells)
    weights[cells] = data[:, d]
    return weights, cells


def invariant_weights(config: dict, n: int) -> list[np.ndarray]:
    """The weights of each rectangle's invariant measure as the invariant
    command computes them at --grid n."""
    fam = MapFamily(*objective_from_config(config))
    grid = grid_of(config, n)
    op = transfer.ulam_operator(fam, grid)
    return [transfer.invariant_measure(op, cells).measure.weights
            for cells in metric_config(grid, fam.decomposition).rectangle_cells]


def basins_of(config: dict, n: int) -> transfer.BasinFunctions:
    """The basin functions as the basins command computes them at --grid n."""
    return transfer.basin_functions(MapFamily(*objective_from_config(config)), grid_of(config, n))


def test_analyze_single_rectangle(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.55}, eta=0.1)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--grid", "200"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["decomposition"]["T"]) == 1
    assert report["unique"] is True
    assert report["eta0"] == pytest.approx(0.2969560117579362, rel=1e-12)
    assert report["certificates"][0]["ell"] >= 1


def test_analyze_two_rectangles(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2}, eta=0.3)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--grid", "200"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["decomposition"]["T"]) == 2
    assert report["unique"] is False
    assert report["ell0_estimate"] >= 1


def test_analyze_rejects_inadmissible_step(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.4)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "0.3345969789" in err  # the computed admissible bound is printed
    assert len(err.splitlines()) == 1


def test_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command,flag,value", [
    *[(c, "--grid", v) for c in ("analyze", "invariant", "basins", "sample", "diffusion")
      for v in ("0", "-3")],
    *[("sample", "--steps", v) for v in ("0", "-5")],
    *[(c, "--tol", v) for c in ("invariant", "basins", "sample", "diffusion")
      for v in ("0", "-1e-9", "nan", "inf")],
    ("diffusion", "--grid", "1"),
    ("sample", "--seed", "-1"),
    *[("analyze", "--ell-max", v) for v in ("0", "-1")],
])
def test_out_of_range_flags_are_config_errors(tmp_path, capsys, command, flag, value):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["--version"], 0),
    (["analyze", "--help"], 0),
    (["analyze", "--bogus"], 1),
    (["analyze", "--grid"], 1),
    (["invariant", "--tol", "-1e-9"], 1),
    (["basins", "--grid", "ten"], 1),
    (["frobnicate"], 1),
    ([], 1),
    (["analyze", "--tol=0"], 1),
    (["sweep", "--range", "0.1:1.0:5", "--jobs", "2"], 1),
    (["invariant", "--steps", "5"], 1),
], ids=["help", "version", "command-help", "unknown-flag", "missing-value",
        "negative-tol-token", "non-integer-grid", "unknown-command", "no-command",
        "analyze-has-no-tol", "sweep-has-no-jobs", "invariant-has-no-steps"])
def test_usage_errors_are_config_errors(tmp_path, capsys, argv, code):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "o"
    if argv and argv[0] in ("analyze", "invariant", "basins", "sweep"):
        argv = [argv[0], "--config", cfg, "--out", str(out), *argv[1:]]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert ("error:" in captured.err) == (code != 0)
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,config", [
    ("analyze", {"objective": DW_COEFFS, "lambda": 0.38, "eta": "fast"}),
    ("analyze", {"objective": DW_COEFFS, "lambda": 0.38, "eta": NAN}),
    ("analyze", {"objective": DW_COEFFS, "lambda": 0.38, "eta": INF}),
    ("analyze", {"objective": DW_COEFFS, "lambda": 0.38, "eta": None}),
    ("analyze", {"objective": DW_COEFFS, "lambda": "tilt", "eta": 0.33}),
    ("invariant", {"objective": DW_COEFFS, "lambda": NAN, "eta": 0.33}),
    ("basins", {"objective": DW_COEFFS, "lambda": -INF, "eta": 0.33}),
    ("sample", {"objective": [0.25, "x", -0.5, 0.0, 0.25], "lambda": 0.38, "eta": 0.33}),
    ("diffusion", {"objective": [0.25, 0.0, NAN, 0.0, 0.25], "lambda": 0.38, "eta": 0.33}),
    ("analyze", {"objective": 0.25, "lambda": 0.38, "eta": 0.33}),
    ("analyze", {"dimension": 1, "n": 2, "eta": 0.25,
                 "components": [[[1, -2, 1], [1, INF, 1]]]}),
    ("sweep", {"objective": [0.25, 0.0, -0.5, 0.0, NAN]}),
    ("analyze", {"dimension": "two", "n": 2, "eta": 0.25,
                 "components": [[[1, -2, 1], [1, 2, 1]]]}),
    ("analyze", {"dimension": 1, "n": 0, "eta": 0.25, "components": [[]]}),
    ("analyze", {"dimension": 1, "n": 2, "eta": 0.25, "components": 7}),
    ("analyze", {"dimension": 1, "n": 2, "eta": 0.25, "components": [7]}),
    ("analyze", {"objective": DW_COEFFS, "lambda": -0.38, "eta": 0.33}),
    ("basins", {"objective": DW_COEFFS, "lambda": 0, "eta": 0.33}),
    ("sweep --range=-0.5:1.0:5", {"objective": DW_COEFFS}),
    ("sweep --range=0:1.0:5", {"objective": DW_COEFFS}),
    ("sweep --range=nan:1.0:5", {"objective": DW_COEFFS}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": ["a"]}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": []}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": [5.0]}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": [0.0, 1.0]}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": {"x": 0.0}}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": [NAN]}),
    ("analyze", {"objective": DW_COEFFS, "lambda": 0.38, "eta": "0.33"}),
    ("analyze", {"objective": DW_COEFFS, "lambda": True, "eta": 0.33}),
    ("analyze", {"objective": [0.25, 0.0, -0.5, 0.0, "0.25"], "lambda": 0.38, "eta": 0.33}),
    ("analyze", {"dimension": True, "n": 2, "eta": 0.25,
                 "components": [[[1, -2, 1], [1, 2, 1]]]}),
    ("analyze", {"dimension": 1, "n": "2", "eta": 0.25,
                 "components": [[[1, -2, 1], [1, 2, 1]]]}),
    ("sample", {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33, "x0": False}),
    ("sample --compare-invariant", MIXED_CONFIG),
    ("analyze", RANGE_OVERFLOW_CONFIG),
    ("sweep --range=0.1:1:3", RANGE_OVERFLOW_CONFIG),
    ("analyze", SUBNORMAL_LEAD_CONFIG),
    ("sweep --range=0.1:1:3", SUBNORMAL_LEAD_CONFIG),
], ids=["eta-string", "eta-nan", "eta-inf", "eta-null", "lambda-string", "lambda-nan",
        "lambda-minus-inf", "coefficient-string", "coefficient-nan", "objective-scalar",
        "component-inf", "sweep-coefficient-nan", "dimension-string", "n-zero",
        "components-scalar", "components-row-scalar", "lambda-negative", "lambda-zero",
        "sweep-range-negative", "sweep-range-zero", "sweep-range-nan", "x0-string",
        "x0-empty", "x0-outside", "x0-too-long", "x0-object", "x0-nan",
        "eta-numeric-string", "lambda-true", "coefficient-numeric-string", "dimension-true",
        "n-numeric-string", "x0-false", "compare-invariant-2d", "coefficient-range",
        "sweep-coefficient-range", "coefficient-subnormal-lead",
        "sweep-coefficient-subnormal-lead"])
def test_bad_config_numbers_are_config_errors(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "o"
    command, *extra = command.split()
    if command == "sweep" and not extra:
        extra = ["--range", "0.1:1.0:5"]
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _raise_runtime_error(args, problem):
    raise RuntimeError("unexpected state")


DW_CONFIG = {"objective": DW_COEFFS, "lambda": 0.38, "eta": 0.33}
LABELS = {1: "config error: ", 2: "assumption violation: ", 3: "no convergence: ",
          4: "singular diffusion: ", 5: "internal error: "}


@pytest.mark.parametrize("code,argv,config,patch", [
    (0, ["analyze", "--grid", "64"], DW_CONFIG, None),
    (1, ["analyze"], "{not json", None),
    (1, ["analyze"], "[0.25, 0.38, 0.33]", None),
    (1, ["invariant", "--grid", "1"], DW_CONFIG, None),
    (1, ["sample", "--compare-invariant"], MIXED_CONFIG, None),
    (2, ["analyze"], {**DW_CONFIG, "eta": 0.4}, None),
    (2, ["analyze"], {"objective": [0, 0, 0, 1.0], "lambda": 0.5, "eta": 0.1}, None),
    (2, ["analyze"], {"dimension": 2, "n": 2, "eta": 0.1,
                      "components": [[[1, -2, 1], []], [[1, 2, 1], []]]}, None),
    (2, ["invariant", "--grid", "64"], {"dimension": 1, "n": 2, "eta": 0.1,
                                        "components": [[[1, -2, 1], [2, -4, 2]]]}, None),
    # at 500 cells the blocks' band is too wide for GTH, so they iterate
    (3, ["invariant", "--grid", "500"], DW_CONFIG, (sgdmc.transfer, "DEFAULT_MAX_ITER", 2)),
    # at 1000 cells the 1-d absorption band is too wide for the banded solve,
    # so the held step iterates (93 steps unpatched)
    (3, ["basins", "--grid", "1000"], DW_CONFIG, (sgdmc.transfer, "DEFAULT_MAX_ITER", 2)),
    # in 2-d the faces' joint solve iterates (53 steps unpatched at 40 cells a side)
    (3, ["basins", "--grid", "40"], PRODUCT_CONFIG, (sgdmc.transfer, "DEFAULT_MAX_ITER", 2)),
    (4, ["diffusion"], {"dimension": 1, "n": 1, "eta": 0.1, "components": [[[0, 0, 1.0]]]},
     None),
    (5, ["analyze"], DW_CONFIG, (cli, "cmd_analyze", _raise_runtime_error)),
], ids=["ok", "unparsable-config", "config-not-object", "grid-too-coarse",
        "compare-invariant-2d", "inadmissible-step", "non-coercive", "zero-summand",
        "shared-critical-point", "no-convergence", "no-convergence-held",
        "no-convergence-faces", "singular-diffusion", "internal-error"])
@pytest.mark.filterwarnings("error")
def test_every_exit_code(tmp_path, capsys, monkeypatch, code, argv, config, patch):
    path = tmp_path / "c.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(LABELS[code])
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
    if code == 5:
        assert err == "internal error: RuntimeError: unexpected state\n"


def test_internal_error_traceback_only_at_debug(tmp_path):
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    src = os.path.dirname(os.path.dirname(sgdmc.__file__))
    script = ("import sys, sgdmc.cli as cli\n"
              "def fail(args, problem): raise RuntimeError('unexpected state')\n"
              "cli.cmd_analyze = fail\n"
              f"sys.exit(cli.main(['analyze', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]))")
    for level, traced in (("WARNING", False), ("DEBUG", True)):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "SGDMC_LOG": level})
        assert proc.returncode == 5
        assert proc.stderr.splitlines()[-1] == "internal error: RuntimeError: unexpected state"
        assert ("Traceback" in proc.stderr) == traced


def test_analyze_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2}, eta=0.3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["analyze", "--config", cfg, "--out", str(out1), "--grid", "100"])
    main(["analyze", "--config", cfg, "--out", str(out2), "--grid", "100"])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_invariant_bernoulli_close_to_uniform(tmp_path):
    config = {"dimension": 1, "n": 2, "components": [[[1, -2, 1], [1, 2, 1]]], "eta": 0.25}
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    n = 500
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", str(n)]) == 0
    weights, _ = scattered(out / "invariant_0.csv", grid_of(config, n))
    cdf = np.cumsum(weights)
    uniform_cdf = np.arange(1, n + 1) / n
    assert np.max(np.abs(cdf - uniform_cdf)) <= 2.0 / n
    meta = json.loads((out / "invariant.json").read_text())
    assert meta["rectangles"][0]["residual"] <= 1e-10


def test_invariant_eighth_order_two_wells_avoid_zero(tmp_path):
    # every cell within 0.5 of the global minimum at 0 holds no mass: the
    # cells are taken from the grid, so that a file that lists none of them
    # cannot pass on an empty selection
    config = {"objective": EIGHTH_COEFFS, "lambda": 1.6, "eta": 0.018}
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    grid = grid_of(config, 400)
    near_zero = np.abs(grid.centers[0]) < 0.5
    assert np.count_nonzero(near_zero) > 100
    for m in (0, 1):
        weights, _ = scattered(out / f"invariant_{m}.csv", grid)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert not np.any(weights[near_zero])


def test_invariant_eighth_order_three_wells_middle_holds_zero(tmp_path):
    config = {"objective": EIGHTH_COEFFS, "lambda": 0.5, "eta": 0.015}
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    meta = json.loads((out / "invariant.json").read_text())
    assert len(meta["rectangles"]) == 3
    grid = grid_of(config, 400)
    weights, _ = scattered(out / "invariant_1.csv", grid)
    assert weights[np.abs(grid.centers[0]) < 0.1].sum() > 0.0


def test_sweep_finds_fold(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--range", "0.3:0.5:21"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "record,lambda,count,eta0,endpoints"
    points = [l for l in lines[1:] if l.startswith("point")]
    assert len(points) == 21
    bif = [l for l in lines[1:] if l.startswith("bifurcation")]
    assert len(bif) == 1
    lam_star = float(bif[0].split(",")[1])
    assert abs(lam_star - LAM_C) <= 1e-6


@pytest.mark.parametrize("span", ["0.3:8.0:3", "1.0:2.5:2"])
def test_sweep_coarse_range_reports_both_eighth_order_bifurcations(tmp_path, span):
    # neither range has a point between the 3->2 and the 2->1 change
    cfg = write_config(tmp_path / "c.json", objective=EIGHTH_COEFFS, **{"lambda": 0.5},
                       eta=0.02)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--range", span]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    bif = [l.split(",") for l in lines[1:] if l.startswith("bifurcation")]
    assert [row[4] for row in bif] == ["3->2", "2->1"]
    assert [float(row[1]) for row in bif] == pytest.approx([1.462958066, 1.849169368],
                                                            abs=1e-9)


def test_sweep_degenerate_single_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--range", "0.2:0.2:1"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("point,")


def test_sample_deterministic_and_absorbed(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2},
                       eta=0.3, x0=[-1.0])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--config", cfg, "--steps", "5000", "--seed", "3", "--grid", "100"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "sample.csv").read_bytes() == (out2 / "sample.csv").read_bytes()
    assert (out1 / "sample.json").read_bytes() == (out2 / "sample.json").read_bytes()
    report = json.loads((out1 / "sample.json").read_text())
    # started inside the left interval: never leaves it
    assert report["rectangle_steps"]["(0,)"] == 5000
    assert report["rectangle_steps"]["(1,)"] == 0


def test_sample_scalar_x0_is_a_1d_point(tmp_path):
    outs = []
    for x0 in ([-1.0], -1.0):
        cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2},
                           eta=0.3, x0=x0)
        outs.append(tmp_path / f"o{len(outs)}")
        assert main(["sample", "--config", cfg, "--out", str(outs[-1]), "--steps", "500",
                     "--grid", "50"]) == 0
    for name in ("sample.csv", "sample.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sample_with_invariant_comparison(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 2.0},
                       eta=0.0698, x0=[0.0])
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out), "--steps", "200000",
                 "--seed", "1", "--grid", "400", "--compare-invariant"]) == 0
    report = json.loads((out / "sample.json").read_text())
    assert report["invariant_comparison"][0]["d_F"] <= 0.05


@pytest.mark.parametrize("grid,patch,code,label", [
    ("1", None, 1, "config error: grid too coarse"),
    ("500", (sgdmc.transfer, "DEFAULT_MAX_ITER", 2), 3, "no convergence: "),
], ids=["grid-too-coarse", "no-convergence"])
def test_sample_comparison_fails_before_the_chain(tmp_path, capsys, monkeypatch, grid, patch,
                                                  code, label):
    # the comparison labels the command's grid and solves on it before the
    # chain runs: a failure there writes no file into --out
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    out = tmp_path / "out"
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert main(["sample", "--config", cfg, "--out", str(out), "--grid", grid,
                 "--compare-invariant"]) == code
    err = capsys.readouterr().err
    assert err.startswith(label) and len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_diffusion_reports_count_mismatch(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "out"
    assert main(["diffusion", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    comparison = json.loads((out / "diffusion.json").read_text())
    assert comparison["exact_count"] == 2
    assert comparison["count_mismatch"] is True
    header = (out / "diffusion.csv").read_text().splitlines()[0]
    assert header == "x,Phi,u,D,V,rho_star"


def test_diffusion_counts_agree_above_fold(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 2.0}, eta=0.0698)
    out = tmp_path / "out"
    assert main(["diffusion", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    comparison = json.loads((out / "diffusion.json").read_text())
    assert comparison["exact_count"] == 1
    assert comparison["count_mismatch"] is False


def test_diffusion_singular_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json", dimension=1, n=1,
                       components=[[[0, 0, 1.0]]], eta=0.1)
    assert main(["diffusion", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.55}, eta=0.1)
    # the child imports the same sgdmc as this process, installed or not
    src = os.path.dirname(os.path.dirname(sgdmc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sgdmc.cli", "analyze", "--config", cfg,
         "--out", str(tmp_path / "out"), "--grid", "64"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_basins_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "out"
    assert main(["basins", "--config", cfg, "--out", str(out), "--grid", "300"]) == 0
    meta = json.loads((out / "basins.json").read_text())
    assert meta["partition_defect"] <= 1e-6
    assert meta["uniform_coefficients"][0] == pytest.approx(0.5, abs=1e-6)
    assert (out / "basin_0.csv").exists() and (out / "basin_1.csv").exists()


def test_invariant_on_long_blocks_at_small_eta(tmp_path):
    # at eta = 0.003 a block's measure spans more than the range of a double:
    # GTH's back-substitution passed 1e308 and wrote NaN rows with exit 0
    config = {**DW_CONFIG, "eta": 0.003}
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "4000"]) == 0
    report = json.loads((out / "invariant.json").read_text())
    assert len(report["rectangles"]) == 2
    for rect in report["rectangles"]:
        assert np.isfinite(rect["residual"]) and rect["residual"] <= 1e-14
        w, _ = scattered(out / rect["file"], grid_of(config, 4000))
        assert np.all(np.isfinite(w)) and w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_nan_in_a_json_payload_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # strict JSON: a NaN is refused before the file is written, exit 5
    monkeypatch.setattr(cli, "eta_bound", lambda obj: float("nan"))
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.38}, eta=0.33)
    out = tmp_path / "out"
    assert main(["basins", "--config", cfg, "--out", str(out), "--grid", "50"]) == 5
    assert "internal error: ValueError" in capsys.readouterr().err
    assert not (out / "basins.json").exists()


def test_basins_coarse_2d_grid_converges(tmp_path):
    # at 12 cells per dimension the interpolated absorbing rows of the 2-d
    # double well leaked 2e-2 per step until _interp_factor_1d clamped them;
    # iterated unheld they never converged
    split = [[c + d for c, d in zip(DW_COEFFS, [0, s * 0.38, 0, 0, 0])] for s in (1, -1)]
    cfg = write_config(tmp_path / "c.json", dimension=2, n=2, components=[split, split],
                       eta=0.33)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["basins", "--config", cfg, "--out", str(out), "--grid", "12"]) == 0
    assert time.perf_counter() - started < 1.0
    meta = json.loads((out / "basins.json").read_text())
    assert meta["partition_defect"] <= 1e-9
    assert len(meta["files"]) == 4


def test_grid_csv_layout_2d(tmp_path):
    # invariant and basins both list the cells where their value is positive,
    # each row's coordinates its cell's centres in row-major order
    tilted = [[c + d for c, d in zip(DW_COEFFS, [0, s * 0.38, 0, 0, 0])] for s in (1, -1)]
    config = {"dimension": 2, "n": 2, "components": [tilted, tilted], "eta": 0.33}
    cfg = write_config(tmp_path / "c.json", **config)
    n = 40
    obj, _ = objective_from_config(json.loads((tmp_path / "c.json").read_text()))
    centers = Grid.regular(obj.critical_report.span, n).centers
    grid = grid_of(config, n)
    wanted = {"invariant_0.csv": invariant_weights(config, n)[0],
              "basin_0.csv": basins_of(config, n).values[0]}
    for cmd, name in (("invariant", "invariant_0.csv"), ("basins", "basin_0.csv")):
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out), "--grid", str(n)]) == 0
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        got, cells = scattered(out / name, grid)
        assert got.tobytes() == wanted[name].tobytes()
        assert 0 < len(rows) == cells.size == np.count_nonzero(wanted[name]) < n * n
        for k, (x1, x2, _) in zip(cells, rows):
            assert x1 == centers[0][k // n]
            assert x2 == centers[1][k % n]


def test_invariant_dump_operator(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", dimension=1, n=2,
        components=[[[1, -2, 1], [1, 2, 1]]], eta=0.25,
    )
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "4",
                 "--dump-operator"]) == 0
    lines = (out / "operator.txt").read_text().strip().splitlines()
    total = 0.0
    for line in lines:
        row, col, value = line.split(",")
        assert 0 <= int(row) < 4 and 0 <= int(col) < 4
        total += float(value)
    assert total == pytest.approx(4.0, abs=1e-12)  # rows sum to one


_KRON_AVERAGE = transfer._kron_average


def _whole_then_sliced(factors, rows=None, columns=None):
    """transfer._kron_average by assembling the whole operator and slicing
    it, as the 2-d grid commands did before they assembled product sets
    alone."""
    shape = tuple(f.shape[0] for f in factors[0])

    def cells(sets):  # index arrays or slices
        return transfer._product_cells([np.arange(n)[s] for s, n in zip(sets, shape)], shape)

    matrix = _KRON_AVERAGE(factors)
    if rows is not None:
        matrix = matrix[cells(rows)]
    return matrix if columns is None else matrix[:, cells(columns)]


def _assembled(monkeypatch) -> list:
    """(shape, non-zeros) of every matrix transfer._kron_average assembles
    from now on, in call order."""
    made = []

    def record(*args, **kwargs):
        matrix = _KRON_AVERAGE(*args, **kwargs)
        made.append((matrix.shape, matrix.nnz))
        return matrix

    monkeypatch.setattr(transfer, "_kron_average", record)
    return made


def _outputs(out) -> dict:
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("argv", [["invariant"], ["invariant", "--dump-operator"], ["basins"],
                                  ["basins", "declined"]])
def test_2d_grid_commands_assemble_only_what_they_solve(tmp_path, monkeypatch, caplog, argv):
    # on dw2d-grid's problem invariant assembles each rectangle's block alone
    # and basins the two axis marginals and the rows of the cells transient on
    # both axes: never every row of the operator, except for --dump-operator
    # and where the faces are declined (here forced by counting every axis
    # block as leaking); each logs the non-zeros it assembled, and the bytes
    # are those of slicing the whole operator
    n, command, declined = 40, argv[0], argv[-1] == "declined"
    if declined:
        monkeypatch.setattr(transfer, "LEAKAGE_WARN", -1.0)
    cfg = write_config(tmp_path / "c.json", **PRODUCT_CONFIG)
    run = [command, "--config", cfg, "--grid", str(n), *argv[1:len(argv) - declined]]
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "_kron_average", _whole_then_sliced)
        assert main([*run, "--out", str(tmp_path / "sliced")]) == 0
    made = _assembled(monkeypatch)
    with caplog.at_level(logging.INFO, logger="sgdmc"):
        assert main([*run, "--out", str(tmp_path / "o")]) == 0
    assert _outputs(tmp_path / "o") == _outputs(tmp_path / "sliced")
    fam = MapFamily(*objective_from_config(PRODUCT_CONFIG))
    config = metric_config(Grid.regular(fam.intervals, n), fam.decomposition)
    whole = (n * n, n * n)
    if command == "invariant":
        want = [(cells.size, cells.size) for cells in config.rectangle_cells]
        line = r"invariant: 4 rectangle block\(s\) assembled \(nnz=(\d+)\)"
    else:
        joint = np.prod([np.count_nonzero(labels < 0) for labels in config.axis_labels])
        want = [(n, n)] * 2 + [whole if declined else (joint, n * n)]
        line = r"basin_functions: 3 row block\(s\) assembled \(nnz=(\d+)\)"
    # the dump alone assembles the whole Ulam matrix, after the solves
    dump = [whole] if "--dump-operator" in argv else []
    assert [shape for shape, _ in made] == want + dump
    [found] = [m for m in (re.fullmatch(line, r.getMessage()) for r in caplog.records) if m]
    assert int(found[1]) == sum(nnz for _, nnz in made[:len(want)])


@pytest.mark.parametrize("config,argv", [
    (PRODUCT_CONFIG, ["invariant"]),
    (PRODUCT_CONFIG, ["invariant", "--dump-operator"]),
    (DW_CONFIG, ["basins"]),
    (PRODUCT_CONFIG, ["basins"]),
    (PRODUCT_CONFIG, ["limit_mixture"]),
], ids=["invariant", "invariant-dump", "basins-1d", "basins-2d", "limit-mixture-2d"])
def test_grid_commands_build_each_factor_once(tmp_path, monkeypatch, config, argv):
    # each command's operator builds every map's 1-d factor on every axis
    # once, whatever it assembles from them: blocks, marginals, rows, or the
    # whole matrix; so does ulam_assemble then limit_mixture (the
    # benchmark's convergence operation), whose 2-d faces read the
    # marginals after the whole matrix exists
    built = []
    for name in ("_map_factor_1d", "_interp_factor_1d"):
        def build(fam, i, j, edges, factor=getattr(transfer, name)):
            built.append((i, j))
            return factor(fam, i, j, edges)

        monkeypatch.setattr(transfer, name, build)
    fam = MapFamily(*objective_from_config(config))
    if argv == ["limit_mixture"]:
        grid = grid_of(config, 40)
        op = transfer.ulam_assemble(fam, grid)
        mu0 = transfer.DiscreteMeasure.point_mass(grid, [0.1, 0.1])
        transfer.limit_mixture(op, fam.decomposition, mu0, k_max=30)
    else:
        cfg = write_config(tmp_path / "c.json", **config)
        assert main([argv[0], "--config", cfg, "--out", str(tmp_path / "o"), "--grid", "40",
                     *argv[1:]]) == 0
    assert sorted(built) == [(i, j) for i in range(1, fam.n + 1) for j in range(fam.dimension)]


@pytest.mark.parametrize("command", ["basins", "invariant"])
def test_grid_commands_refuse_more_than_two_dimensions(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.json", **CUBE_CONFIG)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out), "--grid", "12"]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command} needs a dense grid")
    assert "sample" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_basins_on_one_rectangle_are_ones(tmp_path, caplog):
    # a metastable transient well beside the one rectangle: the iteration read
    # values near 0 there, and a partition defect of 1, as converged
    coeffs = [0.0, 0.15, -0.5, 0.1, 0.25]
    eta = 0.3 * eta_bound(lambda_split(Polynomial(coeffs), 0.2))
    cfg = write_config(tmp_path / "c.json", objective=coeffs, **{"lambda": 0.2}, eta=eta)
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="sgdmc"):
        assert main(["basins", "--config", cfg, "--out", str(out), "--grid", "200"]) == 0
    assert not caplog.records  # no partition-defect warning
    report = json.loads((out / "basins.json").read_text())
    assert report["files"] == ["basin_0.csv"]
    assert (report["iterations"], report["partition_defect"]) == (0, 0.0)
    values = np.loadtxt(out / "basin_0.csv", delimiter=",", skiprows=1)[:, 1]
    assert values.size == 200 and np.all(values == 1.0)


def test_report_round_trips(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2}, eta=0.3)
    out = tmp_path / "out"
    main(["analyze", "--config", cfg, "--out", str(out), "--grid", "100"])
    payload = json.loads((out / "report.json").read_text())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["combined_exponent"] >= 1


# the lines invariant, basins and sample log at INFO before their total time:
# invariant and basins time the compute, sample the chain
STAGE_LINE = r"(\w+): compute \d+\.\d{3}s, write \d+\.\d{3}s \((\d+) rows, (\d+) bytes\)"
# the line each invariant, basin and absorption solve logs at INFO
SOLVER_LINE = (r"(invariant_measure|basin_functions|ulam_absorption): "
               r"(?:(gth|banded) \(n=(\d+), w=(\d+)(?:, m=(\d+))?\)|iteration \((\d+) steps\)"
               r"|(none))")
SAMPLE_LINE = (r"(\w+): chain \d+\.\d{3}s \((\d+) steps, \d+ ns/step\), "
               r"write \d+\.\d{3}s \((\d+) rows, (\d+) bytes\)")


def test_info_log_times_every_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    src = os.path.dirname(os.path.dirname(sgdmc.__file__))
    env = {k: v for k, v in os.environ.items() if k != "SGDMC_LOG"}
    outputs = {}
    for level in ("default", "INFO"):
        out = tmp_path / level
        proc = subprocess.run(
            [sys.executable, "-m", "sgdmc.cli", "invariant", "--config", cfg,
             "--out", str(out), "--grid", "200"],
            capture_output=True, text=True,
            env={**env, "PYTHONPATH": src, **({"SGDMC_LOG": level} if level == "INFO" else {})},
        )
        assert proc.returncode == 0
        if level == "INFO":
            *solves, assembled, stage, total = proc.stderr.strip().splitlines()
            assert re.fullmatch(r"INFO:sgdmc:invariant: \d+\.\d{3}s", total)
            assert re.fullmatch(STAGE_LINE, stage[len("INFO:sgdmc:"):])
            # the rectangle blocks' non-zeros, assembled alone
            assert re.fullmatch(
                r"INFO:sgdmc:invariant: 2 rectangle block\(s\) assembled \(nnz=\d+\)", assembled)
            # before them, one line per rectangle names its solve's solver
            assert [re.fullmatch(SOLVER_LINE, line[len("INFO:sgdmc.transfer:"):]) is not None
                    for line in solves] == [True, True]
        else:
            assert proc.stderr == ""
        outputs[level] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["INFO"] == outputs["default"]


@pytest.mark.parametrize("command, config, pattern, count, line", [
    ("invariant", DW_CONFIG, "invariant_*.csv", 2, STAGE_LINE),
    ("basins", DW_CONFIG, "basin_*.csv", 2, STAGE_LINE),
    ("sample", DW_CONFIG, "sample*.csv", 1, SAMPLE_LINE),
    ("sample", CUBE_CONFIG, "sample_dim*.csv", 3, SAMPLE_LINE),
], ids=["invariant-invariant_*.csv", "basins-basin_*.csv", "sample-sample*.csv",
        "sample-sample_dim*.csv"])
def test_info_log_separates_compute_from_writing(tmp_path, caplog, command, config, pattern,
                                                 count, line):
    cfg = write_config(tmp_path / "c.json", **config)
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="sgdmc"):
        assert main([command, "--config", cfg, "--out", str(out), "--grid", "300"]) == 0
    stages = [m for m in (re.fullmatch(line, r.getMessage()) for r in caplog.records) if m]
    assert len(stages) == 1
    assert re.fullmatch(rf"{command}: \d+\.\d{{3}}s", caplog.records[-1].getMessage())
    name, *steps, rows, size = stages[0].groups()
    files = sorted(out.glob(pattern))
    assert name == command and len(files) == count
    want = 300 * len(files)
    if command != "sample":  # each grid CSV its support, a histogram every bin
        grid = grid_of(config, 300)
        supports = [scattered(f, grid)[1].size for f in files]
        series = (invariant_weights(config, 300) if command == "invariant"
                  else basins_of(config, 300).values)
        assert supports == [np.count_nonzero(v) for v in series]
        want = sum(supports)
    assert int(rows) == sum(len(f.read_text().splitlines()) - 1 for f in files) == want
    assert int(size) == sum(f.stat().st_size for f in files)
    if steps:
        assert int(steps[0]) == json.loads((out / f"{command}.json").read_text())["steps"]


@pytest.mark.parametrize("command, eta, grid, solver", [
    ("invariant", 0.01, 300, "gth"),
    ("invariant", 0.33, 1000, "iteration"),
    ("basins", 0.01, 300, "banded"),
    ("basins", 0.33, 1000, "iteration"),
    ("basins", 0.33, 2, "none"),
])
def test_info_log_names_each_solver(tmp_path, caplog, command, eta, grid, solver):
    # a direct solve where the band is narrow (eta = 0.01), GTH for an
    # invariant measure and the banded solve for the basins, the iteration
    # where it is wide, and no solve where no cell is transient
    config = {**DW_CONFIG, "eta": eta}
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="sgdmc"):
        assert main([command, "--config", write_config(tmp_path / "c.json", **config),
                     "--out", str(out), "--grid", str(grid)]) == 0
    solves = [m.groups() for m in (re.fullmatch(SOLVER_LINE, r.getMessage())
                                   for r in caplog.records) if m]
    fam = MapFamily(*objective_from_config(config))
    blocks = metric_config(Grid.regular(fam.intervals, grid), fam.decomposition)
    if command == "invariant":
        steps = [r["iterations"] for r in json.loads((out / "invariant.json").read_text())[
            "rectangles"]]
        names, sizes = ["invariant_measure"] * 2, [c.size for c in blocks.rectangle_cells]
    else:
        steps = [json.loads((out / "basins.json").read_text())["iterations"]]
        names, sizes = ["basin_functions"], [blocks.transient_cells.size]
    assert [name for name, *_ in solves] == names
    for (_, direct, n, w, m, iterations, none), size, step in zip(solves, sizes, steps):
        if solver == "none":
            assert (direct, iterations, none, size, step) == (None, None, "none", 0, 0)
            continue
        if solver == "iteration":
            assert (direct, n, int(iterations)) == (None, None, step) and step > 0
            continue
        assert (direct, int(n), step, iterations) == (solver, size, 0, None)
        if solver == "gth":
            assert int(w) <= sgdmc.transfer.GTH_MAX_BAND and m is None
        else:
            assert int(w) ** 3 <= sgdmc.transfer.BANDED_WORK_RATIO * size
            assert int(m) == max(int(w), sgdmc.transfer.BANDED_MIN_BLOCK)


CHAIN_LINE = (r"sgd_sample: (?:lanes \(K=(\d+), L=(\d+), burn-in (\d+) steps, "
              r"(\d+) scalar blocks\)|scalar \((\d+) steps\))")


@pytest.mark.parametrize("config, path", [
    # the double well's rectangle ends meet in about 30 steps
    (DW_CONFIG, "lanes"),
    # the one-well coordinate's chains never meet bit for bit
    (MIXED_CONFIG, "scalar"),
], ids=["lanes", "scalar"])
def test_info_log_names_the_sampler_path(tmp_path, caplog, config, path):
    out = tmp_path / "out"
    steps = 100_000  # a first scalar block of 1024 steps, then one super-block
    with caplog.at_level("INFO", logger="sgdmc"):
        assert main(["sample", "--config", write_config(tmp_path / "c.json", **config),
                     "--out", str(out), "--grid", "50", "--steps", str(steps)]) == 0
    messages = [r.getMessage() for r in caplog.records]
    (chain,) = [(k, m) for k, m in enumerate(messages) if m.startswith("sgd_sample: ")]
    assert re.fullmatch(SAMPLE_LINE, messages[chain[0] + 1])  # the sample: stage line follows
    k, length, burn_in, blocks, scalar_steps = re.fullmatch(CHAIN_LINE, chain[1]).groups()
    if path == "lanes":
        assert k is not None and 2 <= int(k) <= sgdmc.dynamics.SAMPLE_LANES
        assert int(length) == sgdmc.dynamics.SAMPLE_LANE_STEPS
        # the chain is absorbed in the first scalar block, and the lanes take
        # every whole lane of the draws after it and the burn-in, which is
        # whole lane chunks and shorter than a lane
        first = sgdmc.dynamics.SAMPLE_LANE_STEPS // 4
        assert int(k) == (steps - first - int(burn_in)) // int(length)
        assert 0 < int(burn_in) < int(length) and int(blocks) >= 2
        assert int(burn_in) % sgdmc.dynamics.LANE_CHUNK == 0
    else:
        assert int(scalar_steps) == steps


SWEEP_LINE = (r"sweep: points \d+\.\d{3}s \((\d+) lambda values; \d+ isolations, \d+ reused\), "
              r"bifurcations \d+\.\d{3}s \((\d+) found\), write \d+\.\d{3}s \((\d+) rows, "
              r"(\d+) bytes\)")
DIFFUSION_LINE = (r"diffusion: density \d+\.\d{3}s, invariant \d+\.\d{3}s \((\d+) rectangles\), "
                  r"write \d+\.\d{3}s \((\d+) rows, (\d+) bytes\)")


@pytest.mark.parametrize("argv, line", [
    (["sweep", "--range", "0.1:1.0:40"], SWEEP_LINE),
    (["diffusion", "--grid", "300"], DIFFUSION_LINE),
], ids=["sweep", "diffusion"])
def test_info_log_times_the_sweep_and_diffusion_stages(tmp_path, caplog, argv, line):
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    outputs = {}
    for level in ("WARNING", "INFO"):
        out = tmp_path / level
        caplog.clear()
        with caplog.at_level(level, logger="sgdmc"):
            assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        outputs[level] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["INFO"] == outputs["WARNING"]  # logging changes no output byte
    stages = [m for m in (re.fullmatch(line, r.getMessage()) for r in caplog.records) if m]
    assert len(stages) == 1
    assert re.fullmatch(rf"{argv[0]}: \d+\.\d{{3}}s", caplog.records[-1].getMessage())
    *counts, rows, size = map(int, stages[0].groups())
    csv = out / f"{argv[0]}.csv"
    records = csv.read_text().splitlines()[1:]
    assert (rows, size) == (len(records), csv.stat().st_size)
    if argv[0] == "sweep":
        kinds = [r.split(",", 1)[0] for r in records]
        assert counts == [kinds.count("point"), kinds.count("bifurcation")] == [40, 1]
    else:
        assert counts == [json.loads((out / "diffusion.json").read_text())["exact_count"]] == [2]
        assert rows == 300


def test_sweep_log_counts_isolations_computed_and_reused(tmp_path, caplog):
    # every lambda's components share F'' and F''', so of the four root
    # isolations per lambda only F' +- lambda are new, and the last lambda's
    # pair was isolated up front by the coefficient-range check
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    poly._isolate.cache_clear()
    counts = []
    for run in ("cold", "warm"):
        caplog.clear()
        with caplog.at_level("INFO", logger="sgdmc"):
            assert main(["sweep", "--range", "0.1:1.0:40", "--config", cfg,
                         "--out", str(tmp_path / run)]) == 0
        line, = (m for m in (re.match(r"sweep: points \S+ \(40 lambda values; (\d+) isolations, "
                                      r"(\d+) reused\)", r.getMessage())
                             for r in caplog.records) if m)
        counts.append(tuple(map(int, line.groups())))
    assert counts == [(2 * 39, 4 * 40), (0, 4 * 40)]
    assert (tmp_path / "cold" / "sweep.csv").read_bytes() == (
        tmp_path / "warm" / "sweep.csv").read_bytes()


ANALYZE_LINE = (r"analyze: certificates \d+\.\d{3}s, escape \d+\.\d{3}s "
                r"\((\d+) points, (\d+) steps, \d+\.\d{2} us/step\)")


@pytest.mark.parametrize("config, grid", [
    (DW_CONFIG, 300),
    ({"dimension": 2, "n": 2, "eta": 0.33, "components": [PRODUCT_ROW] * 2}, 100),
], ids=["1d", "2d"])
def test_info_log_times_the_analyze_stages(tmp_path, caplog, config, grid):
    cfg = write_config(tmp_path / "c.json", **config)
    with caplog.at_level("INFO", logger="sgdmc"):
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--grid", str(grid)]) == 0
    stages = [m for m in (re.fullmatch(ANALYZE_LINE, r.getMessage()) for r in caplog.records) if m]
    assert len(stages) == 1
    assert re.fullmatch(r"analyze: \d+\.\d{3}s", caplog.records[-1].getMessage())
    fam = MapFamily(*objective_from_config(config))
    grid_n = grid if fam.dimension == 1 else 10  # analyze walks grid**(1/d) points per axis
    lengths = uniform_escape_length(fam, grid_n=grid_n).lengths
    assert stages[0].groups() == (str(lengths.size), str(lengths.sum()))
    assert lengths.sum() > 0


def test_analyze_reports_a_stalled_escape_walk(tmp_path, capsys):
    # at eta = 1e-300 no step moves a point by more than rounding: the walk
    # stops at the first transient grid point
    config = {**DW_CONFIG, "eta": 1e-300}
    cfg = write_config(tmp_path / "c.json", **config)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o"), "--grid", "50"]) == 3
    fam = MapFamily(*objective_from_config(config))
    (ts,), ((lo, hi),) = fam.decomposition.per_dimension, fam.intervals
    first = next(x for x in np.linspace(lo, hi, 50).tolist() if not any(t.contains(x) for t in ts))
    assert capsys.readouterr().err == (
        f"no convergence: no map makes progress at coordinate 0 = {first!r}\n")


# adversarial values for the grid writer, repeated along the cells: signed
# zeros side by side, the smallest subnormal and a huge value, neighbours one
# ulp apart, infinities and NaN
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e300, 1.0, np.nextafter(1.0, 2.0),
               np.nextafter(1.0, 0.0), 0.1, np.nextafter(0.1, 1.0), np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("shape", [(5,), (cli.GRID_CSV_BLOCK,), (cli.GRID_CSV_BLOCK + 1,),
                                   (67, 71), (17, 13, 19)])
@pytest.mark.parametrize("several", [False, True])
def test_grid_csv_matches_per_row_formatting(tmp_path, shape, several):
    # one file, or several written in one call, which share the value texts,
    # with the bytes of the per-row writer: the edge values, a constant and a
    # series that differs from cell to cell; blocks end inside a row in 2-d
    # and 3-d, and a dedupe keyed on float equality would write -0.0 as 0
    grid = Grid.regular([(-1.3, 1.7)] * len(shape), list(shape))
    series = [np.resize(EDGE_VALUES, grid.ncells)]
    if several:
        series += [np.full(grid.ncells, 0.1), np.abs(np.sin(np.arange(grid.ncells)))]
    names = [f"new_{m}.csv" for m in range(len(series))]
    args = argparse.Namespace(command="basins", out=str(tmp_path))
    cli._write_grid_csvs(args, grid, names, series, time.perf_counter())
    for name, values in zip(names, series):
        per_row_grid_csv(str(tmp_path / "old.csv"), grid, values)
        assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [(5,), (cli.GRID_CSV_BLOCK + 1,), (67, 71), (17, 13, 19)])
def test_grid_csv_support_lists_the_positive_cells(tmp_path, shape):
    # each file lists exactly the cells where its series is positive, each
    # file on its own, over blocks of written rows: both signed zeros, the
    # negatives, -inf and NaN are left out, the smallest subnormal and +inf
    # kept; a file with one written cell, the last, and a file with none,
    # only its header
    grid = Grid.regular([(-1.3, 1.7)] * len(shape), list(shape))
    last = np.zeros(grid.ncells)
    last[-1] = 0.5
    series = [np.resize(EDGE_VALUES, grid.ncells), np.abs(np.sin(np.arange(grid.ncells))),
              np.where(np.arange(grid.ncells) % 3, -0.0, 0.1), last,
              np.resize([0.0, -0.0, -1.0, -np.inf, np.nan], grid.ncells)]
    names = [f"new_{m}.csv" for m in range(len(series))]
    args = argparse.Namespace(command="invariant", out=str(tmp_path))
    cli._write_grid_csvs(args, grid, names, series, time.perf_counter())
    for name, values in zip(names, series):
        per_row_grid_csv(str(tmp_path / "old.csv"), grid, values)
        assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes()
        got, cells = scattered(tmp_path / name, grid)
        assert np.array_equal(cells, np.flatnonzero(values > 0))
        assert got[cells].tobytes() == values[cells].tobytes()
    assert [len((tmp_path / name).read_text().splitlines()) for name in names[-2:]] == [2, 1]


@pytest.mark.parametrize("config,n", [(DW_CONFIG, 300), (PRODUCT_CONFIG, 40),
                                      (MIXED_CONFIG, 30)], ids=["1d", "2d-product", "2d-mixed"])
def test_invariant_csvs_list_the_support(tmp_path, config, n):
    # each invariant and basin file lists the cells where its value is
    # positive in increasing cell order (scattered checks the order), a
    # missing cell meaning 0: scattered back, they are invariant_measure's
    # weights and basin_functions' values bit for bit, and no row holds 0.
    # Neither holds -0.0 (DiscreteMeasure clips it to 0; the basin solves
    # give none on these problems), so leaving out the cells that are not
    # positive loses no bit.  Each measure sums to 1, and the basin
    # functions to 1 in every cell within the reported partition defect
    cfg = write_config(tmp_path / "c.json", **config)
    grid = grid_of(config, n)
    wanted = {"invariant": (invariant_weights(config, n), "invariant_{}.csv"),
              "basins": (basins_of(config, n).values, "basin_{}.csv")}
    sums = {}
    for command, (series, name) in wanted.items():
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--grid", str(n)]) == 0
        assert len(series) == len(list(out.glob(name.format("*"))))
        sums[command] = []
        for m, values in enumerate(series):
            assert not np.any(np.signbit(values))
            got, cells = scattered(out / name.format(m), grid)
            assert got.tobytes() == values.tobytes()
            assert np.all(got[cells] > 0) and cells.size == np.count_nonzero(values) < grid.ncells
            sums[command].append(got)
    assert np.sum(sums["invariant"], axis=1) == pytest.approx(1.0, abs=1e-12)
    defect = json.loads((tmp_path / "basins" / "basins.json").read_text())["partition_defect"]
    assert np.max(np.abs(np.sum(sums["basins"], axis=0) - 1.0)) <= defect


def test_readme_cli_synopsis_matches_the_parser():
    # the first code block under "## CLI": one "sgdmc <command>" line per
    # command, continued on the lines that follow it
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8").read()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    documented = {}
    for line in block.splitlines():
        if line.startswith("sgdmc "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    parsed = {name: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"}
              for name, p in sub.choices.items()}
    assert documented == parsed
