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
timings. The exit status is 1, after the output is written, when any run is
incorrect or has failed operations; each such run is named on stderr.
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
            record["workloads"][workload] = {
                "all_correct": all(run_ok(p[side]) for p in pairs for side in ("base", "change")),
                "pairs": pairs,
                "summary": summarize(pairs, metrics),
                "operations": summarize(pairs, dict.fromkeys(sorted(operations), "lower"),
                                        "operations"),
            }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = failed_runs(record)
    for name in failed:
        print(f"incorrect or failed operations: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
