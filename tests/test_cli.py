import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import per_row_grid_csv

import sgdmc
from sgdmc import cli
from sgdmc.cli import main
from sgdmc.dynamics import MapFamily, uniform_escape_length
from sgdmc.objective import objective_from_config
from sgdmc.transfer import Grid

DW_COEFFS = [0.25, 0.0, -0.5, 0.0, 0.25]
EIGHTH_COEFFS = [0.0, 0.0, 0.0, 0.0, 2.8431, 0.0, -2.9354, 0.0, 0.78]
LAM_C = 2.0 / (3.0 * np.sqrt(3.0))
# F + 0.38x and F - 0.38x of the double well F, ascending coefficients
PRODUCT_ROW = [[0.25, 0.38, -0.5, 0.0, 0.25], [0.25, -0.38, -0.5, 0.0, 0.25]]
# the double well split with lambda 0.2 in x1 (two wells) and 0.55 in x2 (one)
MIXED_CONFIG = {"dimension": 2, "n": 2, "eta": 0.2, "components": [
    [[0.25, lam, -0.5, 0.0, 0.25], [0.25, -lam, -0.5, 0.0, 0.25]] for lam in (0.2, 0.55)]}


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs))
    return str(path)


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
    *[(c, "--steps", v) for c in ("invariant", "sample") for v in ("0", "-5")],
    *[(c, "--tol", v) for c in ("invariant", "basins", "sample", "diffusion")
      for v in ("0", "-1e-9", "nan")],
    ("diffusion", "--grid", "1"),
    *[(c, "--seed", "-1") for c in ("invariant", "sample")],
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
], ids=["help", "version", "command-help", "unknown-flag", "missing-value",
        "negative-tol-token", "non-integer-grid", "unknown-command", "no-command",
        "analyze-has-no-tol", "sweep-has-no-jobs"])
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
], ids=["eta-string", "eta-nan", "eta-inf", "eta-null", "lambda-string", "lambda-nan",
        "lambda-minus-inf", "coefficient-string", "coefficient-nan", "objective-scalar",
        "component-inf", "sweep-coefficient-nan", "dimension-string", "n-zero",
        "components-scalar", "components-row-scalar", "lambda-negative", "lambda-zero",
        "sweep-range-negative", "sweep-range-zero", "sweep-range-nan", "x0-string",
        "x0-empty", "x0-outside", "x0-too-long", "x0-object", "x0-nan",
        "eta-numeric-string", "lambda-true", "coefficient-numeric-string", "dimension-true",
        "n-numeric-string", "x0-false", "compare-invariant-2d"])
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
    (3, ["invariant", "--grid", "64"], DW_CONFIG, (sgdmc.transfer, "DEFAULT_MAX_ITER", 2)),
    (4, ["diffusion"], {"dimension": 1, "n": 1, "eta": 0.1, "components": [[[0, 0, 1.0]]]},
     None),
    (5, ["analyze"], DW_CONFIG, (cli, "cmd_analyze", _raise_runtime_error)),
], ids=["ok", "unparsable-config", "config-not-object", "grid-too-coarse",
        "compare-invariant-2d", "inadmissible-step", "non-coercive", "zero-summand",
        "shared-critical-point", "no-convergence", "singular-diffusion", "internal-error"])
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
    cfg = write_config(
        tmp_path / "c.json", dimension=1, n=2,
        components=[[[1, -2, 1], [1, 2, 1]]], eta=0.25,
    )
    out = tmp_path / "out"
    n = 500
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", str(n)]) == 0
    rows = (out / "invariant_0.csv").read_text().strip().splitlines()
    assert rows[0] == "x,value"
    weights = np.array([float(r.split(",")[1]) for r in rows[1:]])
    cdf = np.cumsum(weights)
    uniform_cdf = np.arange(1, n + 1) / n
    assert np.max(np.abs(cdf - uniform_cdf)) <= 2.0 / n
    meta = json.loads((out / "invariant.json").read_text())
    assert meta["rectangles"][0]["residual"] <= 1e-10


def test_invariant_eighth_order_two_wells_avoid_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=EIGHTH_COEFFS,
                       **{"lambda": 1.6}, eta=0.018)
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    for m in (0, 1):
        rows = (out / f"invariant_{m}.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        near_zero = np.abs(data[:, 0]) < 0.5
        assert data[near_zero, 1].sum() == 0.0


def test_invariant_eighth_order_three_wells_middle_holds_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=EIGHTH_COEFFS,
                       **{"lambda": 0.5}, eta=0.015)
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "400"]) == 0
    meta = json.loads((out / "invariant.json").read_text())
    assert len(meta["rectangles"]) == 3
    rows = (out / "invariant_1.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    near_zero = np.abs(data[:, 0]) < 0.1
    assert data[near_zero, 1].sum() > 0.0


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


def test_basins_coarse_2d_grid_converges(tmp_path):
    # at 12 cells per dimension the interpolated absorbing rows of the 2-d
    # double well leak 2e-2 per step; iterated unheld they never converged
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
    tilted = [[c + d for c, d in zip(DW_COEFFS, [0, s * 0.38, 0, 0, 0])] for s in (1, -1)]
    cfg = write_config(tmp_path / "c.json", dimension=2, n=2,
                       components=[tilted, tilted], eta=0.33)
    n = 40
    obj, _ = objective_from_config(json.loads((tmp_path / "c.json").read_text()))
    centers = Grid.regular(obj.critical_report.span, n).centers
    for cmd, name in (("invariant", "invariant_0.csv"), ("basins", "basin_0.csv")):
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out), "--grid", str(n)]) == 0
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x1,x2,value"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == n * n
        for k, (x1, x2, _) in enumerate(rows):
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


def test_basins_refuses_more_than_two_dimensions(tmp_path, capsys):
    f1 = [0.25, 0.2, -0.5, 0.0, 0.25]
    f2 = [0.25, -0.2, -0.5, 0.0, 0.25]
    cfg = write_config(tmp_path / "c.json", dimension=3, n=2,
                       components=[[f1, f2]] * 3, eta=0.1)
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["basins", "--config", cfg, "--out", str(out), "--grid", "12"]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_invariant_monte_carlo_fallback_3d(tmp_path):
    dw = [0.25, 0.0, -0.5, 0.0, 0.25]
    f1 = [0.25, 0.2, -0.5, 0.0, 0.25]
    f2 = [0.25, -0.2, -0.5, 0.0, 0.25]
    cfg = write_config(
        tmp_path / "c.json", dimension=3, n=2,
        components=[[f1, f2], [f1, f2], [f1, f2]], eta=0.1,
    )
    out = tmp_path / "out"
    assert main(["invariant", "--config", cfg, "--out", str(out), "--grid", "32",
                 "--steps", "2000", "--seed", "1"]) == 0
    meta = json.loads((out / "invariant.json").read_text())
    assert meta["monte_carlo"] is True
    for j in range(3):
        assert (out / f"invariant_mc_dim{j}.csv").exists()


def test_report_round_trips(tmp_path):
    cfg = write_config(tmp_path / "c.json", objective=DW_COEFFS, **{"lambda": 0.2}, eta=0.3)
    out = tmp_path / "out"
    main(["analyze", "--config", cfg, "--out", str(out), "--grid", "100"])
    payload = json.loads((out / "report.json").read_text())
    assert json.loads(json.dumps(payload)) == payload
    assert payload["combined_exponent"] >= 1


# the lines invariant, basins and sample log at INFO before their total time
STAGE_LINE = r"(\w+): compute \d+\.\d{3}s, write \d+\.\d{3}s \((\d+) rows, (\d+) bytes\)"
SAMPLE_LINE = (r"(sample): chain \d+\.\d{3}s \((\d+) steps, \d+ ns/step\), "
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
            *stages, total = proc.stderr.strip().splitlines()
            assert re.fullmatch(r"INFO:sgdmc:invariant: \d+\.\d{3}s", total)
            assert [re.fullmatch(STAGE_LINE, line[len("INFO:sgdmc:"):]) is not None
                    for line in stages] == [True]
        else:
            assert proc.stderr == ""
        outputs[level] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["INFO"] == outputs["default"]


@pytest.mark.parametrize("command, pattern", [("invariant", "invariant_*.csv"),
                                              ("basins", "basin_*.csv"),
                                              ("sample", "sample*.csv")])
def test_info_log_separates_compute_from_writing(tmp_path, caplog, command, pattern):
    cfg = write_config(tmp_path / "c.json", **DW_CONFIG)
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="sgdmc"):
        assert main([command, "--config", cfg, "--out", str(out), "--grid", "300"]) == 0
    line = SAMPLE_LINE if command == "sample" else STAGE_LINE
    stages = [m for m in (re.fullmatch(line, r.getMessage()) for r in caplog.records) if m]
    assert len(stages) == 1
    assert re.fullmatch(rf"{command}: \d+\.\d{{3}}s", caplog.records[-1].getMessage())
    name, *steps, rows, size = stages[0].groups()
    files = sorted(out.glob(pattern))
    assert name == command and len(files) == (1 if command == "sample" else 2)
    assert int(rows) == sum(len(f.read_text().splitlines()) - 1 for f in files) == 300 * len(files)
    assert int(size) == sum(f.stat().st_size for f in files)
    if steps:
        assert int(steps[0]) == json.loads((out / "sample.json").read_text())["steps"]


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


@pytest.mark.parametrize("shape", [(cli.CSV_BLOCK_ROWS + 3,), (1,), (17, 23), (7, 5, 11)])
@pytest.mark.parametrize("constant", [False, True])
def test_grid_csv_matches_per_row_formatting(tmp_path, shape, constant):
    # a dedupe keyed on float equality would write -0.0 as 0
    grid = Grid.regular([(-1.3, 1.7)] * len(shape), list(shape))
    assert grid.ncells % cli.CSV_BLOCK_ROWS != 0
    values = np.full(grid.ncells, 0.1) if constant else np.resize(EDGE_VALUES, grid.ncells)
    cli._write_grid_csv(str(tmp_path / "new.csv"), grid, values)
    per_row_grid_csv(str(tmp_path / "old.csv"), grid, values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
