"""Output checks, one per operation. Each returns a list of problems; an empty
list means the outputs are correct. Tolerances are those of the acceptance
suite (tests/test_acceptance.py)."""

import json
import math
import os

import numpy as np

from sgdmc import (
    MapFamily,
    SplittingCertificate,
    objective_from_config,
    verify_certificate,
)

SUM_TOL = 1e-9
DEFECT_TOL = 1e-6
BIFURCATION = 2.0 / (3.0 * math.sqrt(3.0))


def _json(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_column(path: str, col: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=col, ndmin=1)


def check_analyze(out: str, ctx: dict) -> list[str]:
    report = _json(out, "report.json")
    obj, eta = objective_from_config(ctx["config"])
    fam = MapFamily(obj, eta)
    boxes = {tuple(t["index"]): t["box"] for t in report["decomposition"]["T"]}
    problems = []
    if len(report["certificates"]) != len(boxes):
        problems.append("one certificate per rectangle expected")
    for c in report["certificates"]:
        if c.get("not_found"):
            problems.append(f"no certificate for rectangle {c['index']}")
            continue
        cert = SplittingCertificate(
            path_lo=tuple(c["path_lo"]), path_hi=tuple(c["path_hi"]),
            split_point=tuple(c["x0"]), alpha=tuple(c["alpha"]), ell=c["ell"],
        )
        box = tuple(tuple(b) for b in boxes[tuple(c["index"])])
        if not verify_certificate(fam, box, cert):
            problems.append(f"certificate for rectangle {c['index']} fails")
    return problems


def check_invariant(out: str, ctx: dict) -> list[str]:
    report = _json(out, "invariant.json")
    problems = []
    if not report["rectangles"]:
        problems.append("no invariant measures")
    for rect in report["rectangles"]:
        w = _csv_column(os.path.join(out, rect["file"]), -1)
        if np.any(w < 0) or abs(w.sum() - 1.0) > SUM_TOL:
            problems.append(f"{rect['file']} is not a probability vector")
    return problems


def check_basins(out: str, ctx: dict) -> list[str]:
    report = _json(out, "basins.json")
    problems = []
    if report["partition_defect"] > DEFECT_TOL:
        problems.append(f"partition defect {report['partition_defect']:.3e}")
    if abs(sum(report["uniform_coefficients"]) - 1.0) > DEFECT_TOL:
        problems.append("uniform coefficients do not sum to 1")
    for name in report["files"]:
        if not os.path.isfile(os.path.join(out, name)):
            problems.append(f"missing {name}")
    return problems


def check_diffusion(out: str, ctx: dict) -> list[str]:
    report = _json(out, "diffusion.json")
    problems = []
    if report["exact_count"] != ctx["rectangles"]:
        problems.append(f"exact count {report['exact_count']} != {ctx['rectangles']}")
    rho = _csv_column(os.path.join(out, "diffusion.csv"), -1)
    if rho.size != ctx["grid"] or not np.all(np.isfinite(rho)) or np.any(rho < 0):
        problems.append("rho_star is not a nonnegative density on the grid")
    return problems


def check_sample(out: str, ctx: dict) -> list[str]:
    report = _json(out, "sample.json")
    problems = []
    counts = _csv_column(os.path.join(out, "sample.csv"), 1)
    if int(counts.sum()) != ctx["steps"] or report["steps"] != ctx["steps"]:
        problems.append(f"histogram total {int(counts.sum())} != steps {ctx['steps']}")
    if report["seed"] != ctx["seed"]:
        problems.append("seed not echoed")
    if report["first_absorbed_step"] is None:
        problems.append("trajectory never absorbed")
    return problems


def check_sweep(out: str, ctx: dict) -> list[str]:
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        records = [line.split(",") for line in fh.read().splitlines()[1:]]
    points = [r for r in records if r[0] == "point"]
    bifurcations = [float(r[1]) for r in records if r[0] == "bifurcation"]
    problems = []
    if len(points) != ctx["count"]:
        problems.append(f"{len(points)} sweep points, expected {ctx['count']}")
    if len(bifurcations) != 1 or abs(bifurcations[0] - BIFURCATION) > DEFECT_TOL:
        problems.append(f"bifurcations {bifurcations}, expected one at {BIFURCATION}")
    return problems


def check_convergence(out: str, ctx: dict) -> list[str]:
    report = _json(out, "convergence.json")
    log = report["decay_log"]
    problems = []
    if abs(sum(report["coefficients"]) - 1.0) > DEFECT_TOL:
        problems.append("limit coefficients do not sum to 1")
    if len(log) != ctx["k_max"] or not log[-1] < log[0]:
        problems.append("decay log does not end below its start")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "invariant": check_invariant,
    "basins": check_basins,
    "diffusion": check_diffusion,
    "sample": check_sample,
    "sweep": check_sweep,
    "convergence": check_convergence,
}
