"""tools/bench_pairs.summarize: per-metric quartiles and pair wins."""

import importlib.util
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
