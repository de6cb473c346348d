"""The benchmark's contract with the package, read from perfbench/ without
changing it: every function its tracer wraps exists, and its child script
runs traced operations whose spans hold the per-layer metrics' sources."""

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


TRACER, RUN = _load("tracer"), _load("run")


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in TRACER.TRACED.items() for name in names])
def test_traced_function_resolves(module, name):
    # the tracer's getattr raises on a name the package no longer has
    assert callable(getattr(importlib.import_module(f"sgdmc.{module}"), name))


@pytest.mark.parametrize("op,params,span", [
    ("convergence", {"grid": 300, "k_max": 30}, "transfer.limit_mixture"),
    ("analyze", {"grid": 200}, "dynamics.uniform_escape_length"),
    ("basins", {"grid": 200}, "transfer.basin_functions"),
], ids=["convergence", "analyze", "basins"])
def test_child_runs_a_traced_operation(tmp_path, op, params, span):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN.WORKLOADS["dw1d-fine"]["config"]))
    inputs = {"config_path": str(config), "x0": [0.1], "sample_seed": 0}
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
