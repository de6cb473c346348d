"""Seeded benchmark of the sgdmc subcommands and the Ulam convergence pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The load is a closed loop with one client: operations run back to
back, each in a fresh interpreter (``perfbench/child.py``), one at a time. A
pass runs every operation of the workload once; passes repeat while at least
half of the next one, judged by the last, fits in ``--seconds`` (at least
two, so that outputs can be compared between passes). Every operation's
outputs are checked and digested.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs each operation untraced and then traced, back to back,
and reports per-layer metrics from the traced runs, plus the tracing
overhead. The metrics in the result line are those BENCHMARK.json declares.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
See perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
HARD_LIMIT_S = 170.0  # the whole run, children included, ends before this
# What child.calibrate takes on the machine the benchmark was tuned on (a
# 2-vCPU Xeon) when it runs fast. A time t measured next to a calibration
# that took c is reported as t * REFERENCE_CALIB_S / c "reference seconds":
# what t would read on that machine at that speed. This cancels the changes
# of machine speed that make raw times spread between runs.
REFERENCE_CALIB_S = 0.02
MIN_PASSES = 2

DOUBLE_WELL = [0.25, 0.0, -0.5, 0.0, 0.25]  # F(x) = (1 - x^2)^2 / 4
LAMBDA = 0.38


def _split(lam: float) -> list[list[float]]:
    """Ascending coefficients of F + lam*x and F - lam*x."""
    plus, minus = list(DOUBLE_WELL), list(DOUBLE_WELL)
    plus[1] += lam
    minus[1] -= lam
    return [plus, minus]


# Why each workload exists is in README.md. Operation parameters: grid is
# --grid (cells per dimension), steps is sample --steps, range is sweep
# --range, k_max is the length of the convergence log.
WORKLOADS = {
    "dw1d-fine": {
        "config": {"objective": DOUBLE_WELL, "lambda": LAMBDA, "eta": 0.33},
        "rectangles": 2,
        "ops": [
            ("analyze", {"grid": 10000}),
            ("invariant", {"grid": 10000}),
            ("basins", {"grid": 10000}),
            ("diffusion", {"grid": 10000}),
            ("convergence", {"grid": 10000, "k_max": 1000}),
        ],
    },
    "dw1d-small-eta": {
        "config": {"objective": DOUBLE_WELL, "lambda": LAMBDA, "eta": 0.01},
        "rectangles": 2,
        "ops": [
            ("analyze", {"grid": 4000}),
            ("invariant", {"grid": 4000}),
            ("basins", {"grid": 4000}),
            ("sample", {"grid": 4000, "steps": 2_000_000}),
            ("sweep", {"range": "0.1:1.0:400", "count": 400}),
            ("convergence", {"grid": 4000, "k_max": 2000}),
        ],
    },
    "dw2d-grid": {
        "config": {"dimension": 2, "n": 2, "components": [_split(LAMBDA)] * 2, "eta": 0.33},
        "rectangles": 4,
        "ops": [
            ("analyze", {"grid": 300}),
            ("invariant", {"grid": 300}),
            ("basins", {"grid": 300}),
            ("convergence", {"grid": 120, "k_max": 300}),
        ],
    },
}


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[-1]
    if stat == "s" or stat.endswith("_s"):
        return "s"
    if stat.endswith("_mb"):
        return "MB"
    if stat == "ns_per_step":
        return "ns"
    if stat == "bytes_written":
        return "B"
    if stat in ("row_sum_error", "partition_defect", "trace_overhead") or metric.startswith("share."):
        return "1"
    return "count"


# ---------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program receives: the config file, the sample seed and
    the convergence start point, all derived from (workload, seed)."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    dim = wl["config"].get("dimension", 1)
    os.makedirs(WORK, exist_ok=True)
    config_path = os.path.join(WORK, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wl["config"], fh)
    return {
        "config_path": config_path,
        "config": wl["config"],
        "rectangles": wl["rectangles"],
        "sample_seed": rng.randrange(2**31),
        # inside the state space of every workload (critical points beyond +-1)
        "x0": [rng.uniform(-1.0, 1.0) for _ in range(dim)],
    }


def op_spec(name: str, params: dict, inputs: dict, out: str) -> dict:
    if name == "convergence":
        return {"kind": "convergence", "root_span": "script.convergence",
                "config": inputs["config_path"], "grid": params["grid"],
                "k_max": params["k_max"], "x0": inputs["x0"], "out": out}
    argv = [name, "--config", inputs["config_path"], "--out", out]
    if "grid" in params:
        argv += ["--grid", str(params["grid"])]
    if name == "sample":
        argv += ["--steps", str(params["steps"]), "--seed", str(inputs["sample_seed"])]
    if name == "sweep":
        argv += ["--range", params["range"]]
    return {"kind": "cli", "root_span": f"cli.{name}", "argv": argv}


# ---------------------------------------------------------------- running


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGDMC_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # one program thread: the load is one client on a small machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _digests(out: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def run_op(name, params, inputs, trace, deadline, checks) -> dict:
    """Run one operation in a child interpreter, then check its outputs."""
    out = os.path.join(WORK, "out", name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec = op_spec(name, params, inputs, out)
    spec["trace"] = trace
    spec["result"] = os.path.join(WORK, "result.json")
    spec_path = os.path.join(WORK, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    rec = {"op": name, "problems": []}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path], env=_child_env(), cwd=WORK,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        rec["problems"].append("timed out")
        return rec
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        rec["problems"].append(f"child exit {proc.returncode}: {proc.stderr[-400:]}")
        return rec
    with open(spec["result"], encoding="utf-8") as fh:
        res = json.load(fh)
    calib_before, calib_after = res["calib_s"]
    setup_s = res["t_ready"] - t_spawn
    op_s = res["t_end"] - res["t_start"]
    rec.update(
        setup_raw_s=setup_s,
        setup_s=setup_s * REFERENCE_CALIB_S / calib_before,
        op_s=op_s,
        op_ref_s=op_s * REFERENCE_CALIB_S / ((calib_before + calib_after) / 2),
        rss_mb=res["maxrss_kb"] / 1024.0,
        spans=res["spans"],
    )
    if res["rc"] != 0:
        rec["problems"].append(f"exit code {res['rc']} {res['error'] or ''}")
        return rec
    ctx = dict(params, config=inputs["config"], seed=inputs["sample_seed"],
               rectangles=inputs["rectangles"])
    try:
        rec["problems"] += checks[name](out, ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        rec["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
    rec["digests"] = _digests(out)
    rec["rows"], rec["bytes"] = _rows_and_bytes(out)
    return rec


def _rows_and_bytes(out: str) -> tuple[int, int]:
    rows = size = 0
    for name in os.listdir(out):
        path = os.path.join(out, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += fh.read().count(b"\n") - 1
    return rows, size


def run_round(workload, inputs, trace, deadline, checks) -> tuple[list, list]:
    """One untraced pass; with ``trace``, each operation's traced run follows
    its untraced run at once, so that the two can be compared."""
    untraced, traced = [], []
    for name, params in WORKLOADS[workload]["ops"]:
        untraced.append(run_op(name, params, inputs, False, deadline, checks))
        if trace:
            traced.append(run_op(name, params, inputs, True, deadline, checks))
        if time.monotonic() >= deadline:
            break
    return untraced, traced


def mark_digest_mismatches(passes: list[list[dict]]) -> None:
    """Outputs are byte-identical per (config, seed): every pass, traced or
    not, must reproduce the first pass's digests."""
    reference = {}
    for recs in passes:
        for rec in recs:
            if "digests" not in rec:
                continue
            ref = reference.setdefault(rec["op"], rec["digests"])
            if rec["digests"] != ref:
                rec["problems"].append("outputs differ from an earlier pass")


# ---------------------------------------------------------------- metrics


def complete(passes: list[list[dict]], n_ops: int) -> list[list[dict]]:
    """Passes in which every operation ran and exited with code 0."""
    return [recs for recs in passes
            if len(recs) == n_ops and all("digests" in r for r in recs)]


def summarize(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values), "values": values}


def end_to_end(passes: list[list[dict]]) -> dict:
    """Medians over passes; the set-up figures are medians over every child.

    ``setup_s`` and the ``_ref_s`` figures are in reference seconds (see
    REFERENCE_CALIB_S): set-up is scaled by the calibration taken right
    after it, an operation by the mean of the calibrations before and after
    it. ``setup_raw_s`` and the other ``_s`` figures are raw seconds.
    """
    if not passes:
        return {}
    children = [r for recs in passes for r in recs]
    metrics = {
        "setup_s": summarize([r["setup_s"] for r in children]),
        "setup_raw_s": summarize([r["setup_raw_s"] for r in children]),
        "wall_ref_s": summarize([sum(r["op_ref_s"] for r in recs) for recs in passes]),
        "wall_s": summarize([sum(r["op_s"] for r in recs) for recs in passes]),
        "peak_rss_mb": summarize([max(r["rss_mb"] for r in recs) for recs in passes]),
    }
    for op in [r["op"] for r in passes[0]]:
        runs = [r for r in children if r["op"] == op]
        metrics[f"{op}_ref_s"] = summarize([r["op_ref_s"] for r in runs])
        metrics[f"{op}_s"] = summarize([r["op_s"] for r in runs])
    return metrics


# counters that report the worst call rather than a total over calls
MAX_COUNTERS = ("row_sum_error", "partition_defect", "ell", "ell_zero")


def layer_metrics(recs: list[dict]) -> dict:
    """Per-layer totals of one traced pass, from the spans of every op.

    ``<span>.s`` counts only the outermost call of a recursive function;
    ``self_s`` is a span's time minus that of its child spans, and
    ``share.<module>`` is the module's self time over the pass's wall time.
    """
    out: dict = {}
    wall = sum(r["op_s"] for r in recs)

    def add(key, value, how=sum):
        out[key] = how([out[key], value]) if key in out else value

    for rec in recs:
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, rss_kb, counters) in enumerate(spans):
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            self_s = t1 - t0 - child_time[i]
            add(f"{name}.calls", 1)
            if p < 0:
                add(f"{name}.s", t1 - t0)
            add(f"{name}.self_s", self_s)
            add(f"{name}.rss_delta_mb", rss_kb / 1024.0, max)
            add(f"share.{name.split('.', 1)[0]}", self_s / wall)
            for key, value in counters.items():
                add(f"{name}.{key}", value, max if key in MAX_COUNTERS else sum)
        if rec["op"] != "convergence":
            add(f"cli.{rec['op']}.rows_written", rec["rows"])
            add(f"cli.{rec['op']}.bytes_written", rec["bytes"])
    if "dynamics.sgd_sample.steps" in out:
        out["dynamics.sgd_sample.ns_per_step"] = (
            1e9 * out["dynamics.sgd_sample.s"] / out["dynamics.sgd_sample.steps"])
    return out



# ---------------------------------------------------------------- report


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "sgdmc", "cli.py")):
        print(f"no sgdmc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from checks import CHECKS

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return bench(args, started, CHECKS)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def bench(args, started, checks) -> int:
    wl = WORKLOADS[args.workload]
    n_ops = len(wl["ops"])
    inputs = make_inputs(args.workload, args.seed)
    hard_deadline = started + HARD_LIMIT_S
    stop_at = time.monotonic() + args.seconds
    untraced, traced = [], []
    while True:
        round_start = time.monotonic()
        recs, traced_recs = run_round(args.workload, inputs, args.trace, hard_deadline, checks)
        untraced.append(recs)
        if args.trace:
            traced.append(traced_recs)
        enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
        now = time.monotonic()
        # start another round only if half of it, judged by the last, fits
        if now >= hard_deadline or (enough and now + (now - round_start) / 2 > stop_at):
            break
    passes = untraced + traced
    mark_digest_mismatches(passes)
    records = [r for recs in passes for r in recs]
    attempted = n_ops * len(passes)
    failed = sum(1 for r in records if r["problems"]) + attempted - len(records)
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {r['op']}: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  inputs: sample --seed "
          f"{inputs['sample_seed']}, convergence x0 {inputs['x0']}")
    print(f"closed loop, 1 client, {len(untraced)} untraced + {len(traced)} traced "
          f"passes of {n_ops} operations")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.6g}")
    e2e = end_to_end(complete(untraced, n_ops))
    for key, s in e2e.items():
        print(f"{key:24s} {fmt(s['value']):>12s} {unit_of(key):5s} median of "
              f"n={s['n']} (min {fmt(s['min'])}, max {fmt(s['max'])})")
    if e2e:
        print("wall_s per pass: " + " ".join(fmt(v) for v in e2e["wall_s"]["values"]))
    if args.trace:
        pairs = [(u, t) for u, t in zip(untraced, traced)
                 if len(complete([u, t], n_ops)) == 2]
        metrics = traced_report(pairs)
        declared = declared_metrics("per_layer")
    else:
        metrics = {k: s["value"] for k, s in e2e.items()}
        declared = declared_metrics("end_to_end")
    missing = [k for k in declared if k not in metrics]
    for k in missing:
        print(f"metric {k} was not measured", file=sys.stderr)
    correct = failed == 0 and bool(metrics) and not missing
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()
                    if k in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def traced_report(pairs: list[tuple[list, list]]) -> dict:
    """Print every per-layer figure of the traced passes (medians over
    passes) and the tracing overhead, and return them all.

    The overhead compares each operation's traced run with the untraced run
    just before it, both in reference seconds (see ``end_to_end``), so that
    a change of machine speed between the two cancels. A function a workload
    never calls reports 0 calls.
    """
    if not pairs:
        return {}
    per_pass = [layer_metrics(t) for _, t in pairs]
    keys = sorted(set().union(*per_pass))
    layers = {k: statistics.median(m.get(k, 0) for m in per_pass) for k in keys}

    def wall(recs, key="op_s"):
        return sum(r[key] for r in recs)

    layers["bench.untraced_wall_s"] = statistics.median(wall(u) for u, _ in pairs)
    layers["bench.traced_wall_s"] = statistics.median(wall(t) for _, t in pairs)
    layers["bench.trace_overhead"] = statistics.median(
        wall(t, "op_ref_s") / wall(u, "op_ref_s") for u, t in pairs)
    print(f"tracing overhead {fmt(layers['bench.trace_overhead'])}: traced wall_ref_s "
          f"over untraced wall_ref_s, each operation traced right after its untraced "
          f"run, median of n={len(pairs)}; raw wall_s traced "
          f"{fmt(layers['bench.traced_wall_s'])} s, untraced "
          f"{fmt(layers['bench.untraced_wall_s'])} s")
    for i, rec in enumerate(pairs[0][0]):
        ratio = statistics.median(t[i]["op_ref_s"] / u[i]["op_ref_s"] for u, t in pairs)
        print(f"  {rec['op']:12s} traced/untraced {fmt(ratio)}")
    for key in keys:
        print(f"  {key:48s} {fmt(layers[key]):>12s} {unit_of(key)}")
    for key in declared_metrics("per_layer"):
        if key.endswith(".calls"):
            layers.setdefault(key, 0)
    return layers


if __name__ == "__main__":
    sys.exit(main())
