"""tools/bench_pairs: per-metric quartiles and pair wins (summarize), the
operation medians read off perfbench's output (parse_run), the exit status
that names failed runs, each tree's source line count and the output files
that differ between the trees, with how far their numbers moved (main, with
perfbench and git stood in for)."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(**values):
    return {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}


def _pairs(*values, name="wall_ref_s"):
    return [{"base": _run(**{name: b}), "change": _run(**{name: c})} for b, c in values]


def test_ties_count_for_neither_side():
    out = bench_pairs.summarize(_pairs((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (4.0, 4.0)),
                                {"wall_ref_s": "lower"})["wall_ref_s"]
    assert (out["pairs"], out["change_wins"], out["base_wins"]) == (4, 1, 1)


def test_a_pair_missing_the_metric_on_one_side_is_skipped():
    # a failed run prints no metrics; another may lack one metric
    pairs = _pairs((9.0, 1.0), (9.0, 1.0), (2.0, 1.0), (3.0, 1.0))
    pairs[0]["change"] = {"correct": False, "error": "no result line"}
    pairs[1]["base"] = _run(setup_s=0.3)
    out = bench_pairs.summarize(pairs, {"wall_ref_s": "lower"})["wall_ref_s"]
    assert (out["pairs"], out["change_wins"], out["base_wins"]) == (2, 2, 0)
    assert out["base"] == {"q1": 2.25, "median": 2.5, "q3": 2.75}


def test_a_metric_with_fewer_than_two_pairs_is_left_out():
    pairs = _pairs((2.0, 1.0), (2.0, 1.0))
    pairs[0]["base"] = _run(setup_s=0.3)
    assert bench_pairs.summarize(pairs, {"wall_ref_s": "lower", "peak_rss_mb": "lower"}) == {}


@pytest.mark.parametrize("better,wins", [("lower", (1, 2)), ("higher", (2, 1))])
def test_better_higher_flips_the_wins(better, wins):
    out = bench_pairs.summarize(_pairs((1.0, 2.0), (3.0, 4.0), (2.0, 1.0)),
                                {"wall_ref_s": better})["wall_ref_s"]
    assert (out["better"], out["change_wins"], out["base_wins"]) == (better, *wins)
    assert out["change"]["median"] == 2.0


# the tail of perfbench/run.py --trace 0 output, shortened
PERFBENCH_STDOUT = """\
error_rate 0/12 = 0
setup_s                      0.349739 s     median of n=12 (min 0.314587, max 0.398368)
wall_ref_s                    1.04075 s     median of n=2 (min 1.02054, max 1.06095)
wall_s                        1.57808 s     median of n=2 (min 1.53094, max 1.62522)
peak_rss_mb                   74.1152 MB    median of n=2 (min 74.0508, max 74.1797)
analyze_ref_s               0.0186408 s     median of n=2 (min 0.0186027, max 0.0186789)
analyze_s                   0.0335931 s     median of n=2 (min 0.0280382, max 0.0391479)
sample_ref_s                  {sample} s     median of n=2 (min 0.42258, max 0.492861)
sample_s                      0.64333 s     median of n=2 (min 0.614009, max 0.67265)
wall_s per pass: 1.53094 1.62522
{{"correct": true, "attempted": 12, "failed": 0, "metrics": {{"wall_ref_s": {{"value": 1.04}}}}}}
"""


def test_operation_medians_are_kept_per_run_and_summarized():
    runs = [bench_pairs.parse_run(PERFBENCH_STDOUT.format(sample=v), "") for v in
            ("0.45772", "0.28", "0.46", "0.27", "0.47", "0.29")]
    assert runs[0]["metrics"] == {"wall_ref_s": {"value": 1.04}}
    assert runs[0]["operations"] == {"analyze_ref_s": {"value": 0.0186408},
                                     "sample_ref_s": {"value": 0.45772}}
    pairs = [{"base": b, "change": c} for b, c in zip(runs[::2], runs[1::2])]
    out = bench_pairs.summarize(pairs, {"sample_ref_s": "lower"}, "operations")["sample_ref_s"]
    assert (out["change_wins"], out["base"]["median"], out["change"]["median"]) == (3, 0.46, 0.28)


def test_a_run_without_a_result_line_keeps_the_error():
    assert bench_pairs.parse_run("error_rate 0/0 = 0\n", "Traceback: boom\n") == {
        "correct": False, "error": "Traceback: boom"}


@pytest.mark.parametrize("bad,status,named", [
    ({}, 0, []),
    # pair 2 runs the working tree first: calls 3 (change) and 4 (base)
    ({3: {"failed": 1}, 4: {"correct": False}}, 1, ["wl pair 2 base", "wl pair 2 change"]),
])
def test_a_failed_run_is_named_and_exits_1_after_the_record(tmp_path, monkeypatch, capsys,
                                                              bad, status, named):
    calls = []

    def bench(tree, workload, seed, seconds):
        calls.append(os.path.basename(tree))
        return {"correct": True, "failed": 0, "metrics": {"wall_ref_s": {"value": 1.0}},
                **bad.get(len(calls), {})}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    monkeypatch.setattr(bench_pairs, "outputs", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc")
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "wl=2"]) == status
    assert calls == ["base", "work", "work", "base"]
    record = json.loads(out.read_text())
    assert record["workloads"]["wl"]["all_correct"] == (not named)
    reported = [line.split(": ", 1)[1] for line in capsys.readouterr().err.splitlines()
                if line.startswith("incorrect or failed operations: ")]
    assert reported == named


def test_the_record_keeps_each_trees_source_lines(tmp_path, monkeypatch):
    # every src/sgdmc/*.py counts, a file of another kind does not
    def tree(dest, files):
        os.makedirs(os.path.join(dest, "src", "sgdmc"))
        for name, text in files.items():
            with open(os.path.join(dest, "src", "sgdmc", name), "w") as fh:
                fh.write(text)

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: tree(
        dest, {"a.py": "1\n2\n3\n", "b.py": "4\n", "notes.txt": "5\n6\n"}))
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: tree(
        dest, {"a.py": "1\n", "b.py": "4\n"}))
    monkeypatch.setattr(bench_pairs, "bench", lambda *args: {
        "correct": True, "failed": 0, "metrics": {"wall_ref_s": {"value": 1.0}}})
    monkeypatch.setattr(bench_pairs, "outputs", lambda *args: {})
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc")
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "wl=2"]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"base": 4, "change": 2}


def test_the_record_names_the_outputs_that_differ(tmp_path, monkeypatch, capsys):
    # each tree runs each workload's operations once before the timed pairs;
    # a changed file, one only the base writes and one only the change
    # writes are named, and the exit status stays 0
    runs = []

    def outputs(tree, workload, seed, keep):
        runs.append((os.path.basename(tree), workload, seed))
        digests = {"a.csv": "1", "b.csv": "2", "gone.csv": "3"}
        if os.path.basename(tree) == "work" and workload == "wl":
            digests = {"a.csv": "1", "b.csv": "9", "new.csv": "4"}
        return {"op": {"digests": digests, "problems": []}}

    monkeypatch.setattr(bench_pairs, "outputs", outputs)
    monkeypatch.setattr(bench_pairs, "bench", lambda *args: {
        "correct": True, "failed": 0, "metrics": {"wall_ref_s": {"value": 1.0}}})
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc")
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "wl=2", "--pairs", "same=2",
                             "--seed", "5"]) == 0
    assert runs == [("base", "wl", 5), ("work", "wl", 5), ("base", "same", 5),
                    ("work", "same", 5)]
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["wl"]["outputs"]["differ"] == ["op/b.csv", "op/gone.csv", "op/new.csv"]
    assert workloads["wl"]["outputs"]["change"]["op"]["digests"]["b.csv"] == "9"
    assert workloads["same"]["outputs"]["differ"] == []
    assert len(workloads["wl"]["pairs"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "outputs differ" in line] == [
        "wl outputs differ: op/b.csv", "wl outputs differ: op/gone.csv",
        "wl outputs differ: op/new.csv"]


def test_the_record_says_how_far_each_differing_output_moved(tmp_path, monkeypatch):
    # grid CSVs align on their coordinates, a row one side lacks reading as
    # 0; other files compare their numbers where the text around them is
    # the same; a file one side lacks is named as such
    files = {
        "base": {"basin_0.csv": "x,value\n0.5,0.25\n1.5,1e-16\n2.5,1\n",
                 "basins.json": '{"residual": 8.1e-12, "iterations": 57}\n',
                 "notes.txt": "steps 57\n", "gone.csv": "x\n"},
        "change": {"basin_0.csv": "x,value\n0.5,0.25\n2.5,0.9999999999999998\n3.5,3e-16\n",
                   "basins.json": '{"residual": 8.2e-12, "iterations": 57}\n',
                   "notes.txt": "step 57\n", "new.csv": "x\n"},
    }

    def outputs(tree, workload, seed, keep):
        side = "base" if os.path.basename(tree) == "base" else "change"
        os.makedirs(os.path.join(keep, "op"))
        for name, text in files[side].items():
            with open(os.path.join(keep, "op", name), "w") as fh:
                fh.write(text)
        return {"op": {"digests": {name: text for name, text in files[side].items()},
                       "problems": []}}

    monkeypatch.setattr(bench_pairs, "outputs", outputs)
    monkeypatch.setattr(bench_pairs, "bench", lambda *args: {
        "correct": True, "failed": 0, "metrics": {"wall_ref_s": {"value": 1.0}}})
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc")
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--out", str(out), "--pairs", "wl=2"]) == 0
    moved = json.loads(out.read_text())["workloads"]["wl"]["outputs"]["max_abs_diff"]
    assert moved == {"op/basin_0.csv": 3e-16, "op/basins.json": pytest.approx(1e-13),
                     "op/gone.csv": "missing in change", "op/new.csv": "missing in base",
                     "op/notes.txt": "layout differs"}
