"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC holds ``kind`` ("cli" or "convergence"), the operation's inputs,
``trace`` (bool) and ``result`` (path of the JSON this script writes).

The clock is CLOCK_MONOTONIC, which is shared by every process on the
machine, so the parent can subtract its spawn time from ``t_ready`` to get
the interpreter start plus ``import sgdmc.cli``.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

import sgdmc.cli

T_READY = time.monotonic()


# the calibration's sparse solve: a 5-point Laplacian on a 70 x 70 grid
_SECOND_DIFFERENCE = scipy.sparse.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1],
                                              shape=(70, 70))
_LAPLACIAN = scipy.sparse.csc_array(
    scipy.sparse.kronsum(_SECOND_DIFFERENCE, _SECOND_DIFFERENCE))


def calibrate(rounds: int = 3) -> float:
    """Median time of a fixed piece of work: a pure-Python loop plus a
    sparse LU solve, the two kinds of work the operations do. Taken right
    after the imports and right after the operation, it gives the machine's
    speed at those moments, so that run.py can scale the set-up and
    operation times to a reference speed."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        scipy.sparse.linalg.splu(_LAPLACIAN).solve(np.ones(_LAPLACIAN.shape[0]))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_convergence(spec: dict) -> int:
    """``ulam_assemble`` then ``limit_mixture`` from a point mass, through the
    package's public names only, with the results written as JSON."""
    with open(spec["config"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    obj, eta = sgdmc.objective_from_config(cfg)
    decomp = sgdmc.decompose(obj, eta)
    fam = sgdmc.MapFamily(obj, eta)
    grid = sgdmc.Grid.regular(decomp.intervals, spec["grid"])
    op = sgdmc.ulam_assemble(fam, grid)
    mu0 = sgdmc.DiscreteMeasure.point_mass(grid, spec["x0"])
    res = sgdmc.limit_mixture(op, decomp, mu0, k_max=spec["k_max"])
    os.makedirs(spec["out"], exist_ok=True)
    payload = {
        "x0": spec["x0"],
        "coefficients": [float(c) for c in res.coefficients],
        "decay_log": [float(v) for v in res.decay_log],
        "envelope_ratio": float(res.envelope_ratio),
        "row_sum_error": float(op.row_sum_error),
    }
    with open(os.path.join(spec["out"], "convergence.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calib_before = calibrate()
    t_start = time.monotonic()
    error = None
    try:
        with tracer.span(spec["root_span"]) if tracer else nullcontext():
            rc = _run(spec)
    except Exception:  # reported to the parent, which counts the operation failed
        rc, error = -1, traceback.format_exc(limit=-3)
    t_end = time.monotonic()
    calib_after = calibrate()
    result = {
        "rc": rc,
        "error": error,
        "t_ready": T_READY,
        "t_start": t_start,
        "t_end": t_end,
        "calib_s": [calib_before, calib_after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(spec: dict) -> int:
    if spec["kind"] == "cli":
        return sgdmc.cli.main(spec["argv"])
    return run_convergence(spec)


if __name__ == "__main__":
    sys.exit(main())
