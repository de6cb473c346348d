"""The benchmark's contract with the package, read from perfbench/ without
changing it: every function its tracer wraps exists, and its child script
runs traced operations whose spans hold the per-layer metrics' sources and
whose outputs its own checks accept."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER, RUN, CHECKS = _load("tracer"), _load("run"), _load("checks")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in TRACER.TRACED.items() for name in names])
def test_traced_function_resolves(module, name):
    # the tracer's getattr raises on a name the package no longer has
    assert callable(getattr(importlib.import_module(f"sgdmc.{module}"), name))


@pytest.mark.parametrize("workload,op,params,span", [
    ("dw1d-fine", "convergence", {"grid": 300, "k_max": 30}, "transfer.limit_mixture"),
    # the one operation that solves by faces after the whole matrix exists
    ("dw2d-grid", "convergence", {"grid": 120, "k_max": 30}, "transfer.ulam_absorption"),
    ("dw1d-fine", "analyze", {"grid": 200}, "dynamics.uniform_escape_length"),
    ("dw1d-fine", "basins", {"grid": 200}, "transfer.basin_functions"),
    ("dw2d-grid", "basins", {"grid": 40}, "transfer.basin_functions"),
    ("dw1d-fine", "invariant", {"grid": 200}, "transfer.invariant_measure"),
    # the tracer's counter reads the summary's steps
    ("dw1d-fine", "sample", {"grid": 200, "steps": 1000}, "dynamics.sgd_sample"),
    ("dw1d-small-eta", "sweep", {"range": "0.1:1.0:40", "count": 40},
     "absorbing.rectangle_count_for"),
    ("dw1d-fine", "diffusion", {"grid": 200}, "diffusion.stationary_density"),
], ids=["convergence", "convergence-2d", "analyze", "basins", "basins-2d", "invariant",
        "sample", "sweep", "diffusion"])
def test_child_runs_a_traced_operation(tmp_path, workload, op, params, span):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN.WORKLOADS[workload]["config"]))
    dimension = RUN.WORKLOADS[workload]["config"].get("dimension", 1)
    inputs = {"config_path": str(config), "config": RUN.WORKLOADS[workload]["config"],
              "rectangles": RUN.WORKLOADS[workload]["rectangles"], "x0": [0.1] * dimension,
              "sample_seed": 0}
    spec = RUN.op_spec(op, params, inputs, str(tmp_path / "out"))
    spec.update(trace=True, result=str(tmp_path / "result.json"))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, RUN.CHILD, str(tmp_path / "spec.json")],
                          cwd=tmp_path, env=RUN._child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert (result["rc"], result["error"]) == (0, None)
    assert {spec["root_span"], span} <= {s[0] for s in result["spans"]}
    # the benchmark's check of the outputs, with the context run.py gives it,
    # finds no problem: sample counts the visits that the step maps' rounding
    # puts one ulp beyond the state interval (4 of these 1000 steps) in the
    # end cells
    ctx = dict(params, config=inputs["config"], seed=inputs["sample_seed"],
               rectangles=inputs["rectangles"])
    assert CHECKS.CHECKS[op](str(tmp_path / "out"), ctx) == []
    counters = {}
    for name, *_, record in result["spans"]:
        counters.setdefault(name, []).append(record)
    if op == "sample":
        assert counters[span] == [{"steps": 1000}]
    if op == "basins":  # transfer.dual_operator.s is measured on every basins run
        assert "transfer.dual_operator" in counters
    if op == "convergence":  # and transfer.ulam_assemble's nnz and row_sum_error
        [record] = counters["transfer.ulam_assemble"]
        assert set(record) == {"nnz", "row_sum_error"} and record["nnz"] > 0
