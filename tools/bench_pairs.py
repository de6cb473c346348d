"""Paired before/after runs of the benchmark: a base commit against the
working tree.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_<pr>.json \
        --pairs dw1d-small-eta=10 --pairs dw1d-fine=3 --pairs dw2d-grid=3

Run from the root of a source checkout. The base commit is exported with
``git archive``, and the working tree's tracked and untracked non-ignored
files are copied, into sibling temporary directories (``base`` and ``work``,
names of equal length), which are removed on exit; the repository itself is
only read. So both sides run from fresh trees on the same footing, with no
bytecode caches and no earlier benchmark work files. Each pair runs ``perfbench/run.py --trace 0`` once in each tree, every
tree with its own ``perfbench/`` and ``src/``, back to back; the base runs
first in pairs 1, 3, 5, ... and the working tree in pairs 2, 4, 6, .... The
output holds every run's result line (the last line perfbench prints) and,
per workload and end-to-end metric declared in BENCHMARK.json, each side's
median and quartiles and the number of pairs the working tree wins (ties
count for neither side). Each run also keeps the ``<op>_ref_s`` median of
every operation, which perfbench prints above its result line, and each
workload summarizes them the same way under ``operations``: recorded
figures that show which operation a saving sits in, read by no gate. The
record also keeps each tree's line count of ``src/sgdmc/*.py`` under
``src_lines``, so that the code's size is read off the same record as its
timings. Before the timed pairs, each tree runs every operation of each
workload once, untimed, with its own ``perfbench/run.py`` and
``perfbench/checks.py``; the record keeps, per workload under ``outputs``,
both sides' digests of each operation's output files, their problems,
under ``differ`` the ``<op>/<file>`` names whose bytes differ between the
sides, which are also named on stderr, and under ``max_abs_diff`` how far
each of those files moved: the largest absolute difference of its numbers
(see ``max_abs_diff``). The exit status is 1, after the
output is written, when any timed run is incorrect or has failed
operations; each such run is named on stderr. Differing outputs leave it
as it is: a change may declare them.
"""

import argparse
import glob
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# an operation's median as perfbench prints it, e.g.
# "sample_ref_s                0.279 s     median of n=4 (min 0.27, max 0.29)"
OPERATION_LINE = re.compile(r"(\w+_ref_s) +(\S+) +s +median of ")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The files of rev, as committed, under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: str) -> None:
    """The working tree's tracked and untracked non-ignored files, as they are
    on disk, under dest."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def src_lines(tree: str) -> int:
    """The lines of the package's Python source (src/sgdmc/*.py) in tree."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "sgdmc", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result line, or an incorrect result holding the error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    return parse_run(proc.stdout, proc.stderr)


# run from a tree's root: each operation of the workload argv[1] once, seed
# argv[2], untimed, through the tree's own perfbench; copies the output
# files, one directory per operation, to argv[3] and prints one JSON line,
# per operation its output digests and problems
OUTPUTS_SCRIPT = """
import json, os, shutil, sys, time
sys.path[:0] = ["perfbench", "src"]
import run
from checks import CHECKS
workload, seed = sys.argv[1], int(sys.argv[2])
inputs = run.make_inputs(workload, seed)
deadline = time.monotonic() + run.HARD_LIMIT_S
try:
    recs = [run.run_op(name, params, inputs, False, deadline, CHECKS)
            for name, params in run.WORKLOADS[workload]["ops"]]
    shutil.copytree(os.path.join(run.WORK, "out"), sys.argv[3])
finally:
    run.shutil.rmtree(run.WORK, ignore_errors=True)
print(json.dumps({r["op"]: {"digests": r.get("digests", {}), "problems": r["problems"]}
                  for r in recs}))
"""


def outputs(tree: str, workload: str, seed: int, keep: str) -> dict:
    """Per operation of the workload, run once in tree by OUTPUTS_SCRIPT, its
    output files' digests and its problems, the files kept under keep;
    where the script itself fails, one entry "error" holding its error."""
    proc = subprocess.run([sys.executable, "-c", OUTPUTS_SCRIPT, workload, str(seed), keep],
                          cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": {"digests": {}, "problems": [proc.stderr.strip()[-2000:]]}}


def compare_outputs(sides: dict, kept: dict) -> dict:
    """Both sides' outputs(), under "differ" the "<op>/<file>" names whose
    digest differs between them or that one side lacks, and under
    "max_abs_diff" each such file's max_abs_diff, its files read under each
    side's directory in kept."""
    base, change = ({f"{op}/{name}": digest for op, run in sides[side].items()
                     for name, digest in run["digests"].items()} for side in ("base", "change"))
    differ = sorted(n for n in base.keys() | change.keys() if base.get(n) != change.get(n))
    return {**sides, "differ": differ, "max_abs_diff": {
        name: max_abs_diff(*(os.path.join(kept[side], name) for side in ("base", "change")))
        for name in differ}}


# a number in an output's text, as Python and JSON print floats and ints
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _grid_rows(path: str) -> tuple[str, dict]:
    """The header of a grid CSV and its value per row, keyed on the row's
    coordinate columns as written."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    return header, {coords: float(value) for coords, _, value in
                    (row.rpartition(",") for row in rows)}


def max_abs_diff(base: str, change: str) -> float | str:
    """The largest absolute difference between the numbers of the output
    files base and change.  Grid CSVs (invariant_*.csv, basin_*.csv) list
    only the cells where the value is positive, so their rows are aligned
    on the coordinate columns and a row one file lacks reads as 0.  In any
    other file the number tokens are compared where the text around them
    is identical.  "layout differs" otherwise, and "missing in <side>" for
    a file a side lacks."""
    missing = [side for side, path in (("base", base), ("change", change))
               if not os.path.isfile(path)]
    if missing:
        return "missing in " + " and ".join(missing)
    name = os.path.basename(base)
    if name.endswith(".csv") and name.startswith(("invariant_", "basin_")):
        (head_a, a), (head_b, b) = _grid_rows(base), _grid_rows(change)
        if head_a != head_b:
            return "layout differs"
        return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in a.keys() | b.keys()),
                   default=0.0)
    texts = []
    for path in (base, change):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        texts.append((NUMBER.split(text), NUMBER.findall(text)))
    (rest_a, nums_a), (rest_b, nums_b) = texts
    if rest_a != rest_b:
        return "layout differs"
    return max((abs(float(x) - float(y)) for x, y in zip(nums_a, nums_b)), default=0.0)


def parse_run(stdout: str, stderr: str) -> dict:
    """The result line, with each operation's median under "operations" in
    the shape of its metrics; an incorrect result holding the error if
    there is no result line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": stderr.strip()[-2000:]}
    result["operations"] = {m[1]: {"value": float(m[2])} for m in map(OPERATION_LINE.match, lines)
                            if m and m[1] != "wall_ref_s"}  # wall_ref_s is end to end
    return result


def run_ok(run: dict) -> bool:
    """Whether a run is correct with no failed operation."""
    return run["correct"] and run.get("failed") == 0


def failed_runs(record: dict) -> list[str]:
    """The name, as "<workload> pair <k> <side>", of each run that is not
    run_ok."""
    return [f"{workload} pair {k + 1} {side}"
            for workload, entry in record["workloads"].items()
            for k, pair in enumerate(entry["pairs"])
            for side in ("base", "change") if not run_ok(pair[side])]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, str], key: str = "metrics") -> dict:
    """Per metric (read from each run's key): each side's median and
    quartiles, and the working tree's wins over the pairs where both runs
    measured it."""
    out = {}
    for name, better in metrics.items():
        both = [(p["base"][key][name]["value"], p["change"][key][name]["value"])
                for p in pairs
                if all(name in p[side].get(key, {}) for side in ("base", "change"))]
        if len(both) < 2:
            continue
        base, change = [b for b, _ in both], [c for _, c in both]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "better": better,
            "pairs": len(both),
            "base": quartiles(base),
            "change": quartiles(change),
            "change_wins": sum(1 for b, c in both if sign * (b - c) > 0),
            "base_wins": sum(1 for b, c in both if sign * (c - b) > 0),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", action="append", required=True,
                        help="WORKLOAD=COUNT, repeatable")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    plan = [(w, int(k)) for w, k in (spec.split("=") for spec in args.pairs)]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    base_rev = git("rev-parse", args.base)
    # SIGTERM unwinds like Ctrl-C, so the temporary tree is removed either way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    record = {
        "base": base_rev,
        "change": "working tree" + (" (uncommitted changes)" if git("status", "--porcelain") else
                                    f" at {git('rev-parse', 'HEAD')}"),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # names of equal length, so neither side's paths are longer
        trees = {"base": os.path.join(tmp, "base"), "change": os.path.join(tmp, "work")}
        export(base_rev, trees["base"])
        copy_working_tree(trees["change"])
        record["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for workload, _ in plan:
            kept = {side: os.path.join(tmp, "outputs", side, workload) for side in trees}
            found = compare_outputs({side: outputs(tree, workload, args.seed, kept[side])
                                     for side, tree in trees.items()}, kept)
            record["workloads"][workload] = {"outputs": found}
            for name in found["differ"]:
                print(f"{workload} outputs differ: {name}", file=sys.stderr, flush=True)
        for workload, count in plan:
            pairs, operations = [], set()
            for k in range(count):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, args.seed, args.seconds)
                    print(f"{workload} pair {k + 1}/{count} {side}: {json.dumps(pair[side])}",
                          file=sys.stderr, flush=True)
                    operations.update(pair[side].get("operations", {}))
                pairs.append(pair)
            record["workloads"][workload].update({
                "all_correct": all(run_ok(p[side]) for p in pairs for side in ("base", "change")),
                "pairs": pairs,
                "summary": summarize(pairs, metrics),
                "operations": summarize(pairs, dict.fromkeys(sorted(operations), "lower"),
                                        "operations"),
            })
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = failed_runs(record)
    for name in failed:
        print(f"incorrect or failed operations: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
