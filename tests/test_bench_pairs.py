"""The gain rule and the bound check of tools/bench_pairs.py, on fixed runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]


def _summary(parent, change, better="lower"):
    pairs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]
    return bench_pairs.summarize(pairs, "wall_s", better)


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_parent_quartiles():
    won = _summary(PARENT, [0.8] * 9 + [1.1])
    assert won["wins"] == {"parent": 1, "change": 9} and won["gain"]
    assert won["pairs"] == 10 and won["change_lower_in_pairs"] == 9
    assert won["parent"]["median"] == 1.005
    # eight wins are too few, and a tie counts for neither side
    assert not _summary(PARENT, [0.8] * 8 + [1.1] * 2)["gain"]
    tied = _summary(PARENT, [0.8] * 9 + [PARENT[9]])
    assert tied["wins"] == {"parent": 0, "change": 9} and tied["gain"]
    tied = _summary(PARENT, [0.8] * 8 + [1.1, PARENT[9]])
    assert tied["wins"] == {"parent": 1, "change": 8} and not tied["gain"]
    # nine wins whose median gap lies inside the parent's quartile spread
    assert not _summary(PARENT, [p - 0.001 for p in PARENT[:9]] + [1.1])["gain"]
    # where higher is better, the same runs are the parent's gain
    assert not _summary(PARENT, [0.8] * 9 + [1.1], "higher")["gain"]
    assert _summary([0.8] * 9 + [1.1], PARENT, "higher")["gain"]


def test_the_bound_and_runs_without_a_result():
    assert bench_pairs.within_bound(_summary([1.0] * 4, [1.19] * 4), 0.2)
    assert not bench_pairs.within_bound(_summary([1.0] * 4, [1.21] * 4), 0.2)
    assert bench_pairs.within_bound(_summary([1.0] * 4, [0.81] * 4, "higher"), 0.2, "higher")
    assert not bench_pairs.within_bound(_summary([1.0] * 4, [0.79] * 4, "higher"), 0.2,
                                       "higher")
    # a run that gave no result leaves its pair out
    pairs = [{"parent": {"wall_s": 1.0}, "change": {"wall_s": 0.5}}] * 3
    pairs.append({"parent": {"error": "TimeoutExpired"}, "change": {"wall_s": 0.5}})
    assert bench_pairs.summarize(pairs, "wall_s")["pairs"] == 3
    assert bench_pairs.summarize(pairs[2:], "wall_s") is None


def test_the_traced_summary_gives_every_measured_layer_its_quartiles():
    # five traced pairs: a layer that fell, one that rose where higher is
    # better, one zero in every run (left out), and a run with no result
    assert bench_pairs.TRACED_PAIRS == 5
    pairs = [{"parent": {"lhs.s": 0.10 + i / 100, "yield": 0.5, "idle.s": 0.0},
              "change": {"lhs.s": 0.05 + i / 100, "yield": 0.6, "idle.s": 0.0}}
             for i in range(4)]
    pairs.append({"parent": {"error": "TimeoutExpired"}, "change": {"lhs.s": 0.01}})
    summaries = bench_pairs.summarize_layers(pairs, {"yield": "higher"})
    assert list(summaries) == ["lhs.s", "yield"]
    lhs = summaries["lhs.s"]
    assert lhs["pairs"] == 4 and lhs["wins"] == {"parent": 0, "change": 4}
    assert lhs["parent"]["median"] == 0.115 and lhs["change"]["median"] == 0.065
    assert lhs["parent"]["q1"] < lhs["parent"]["median"] < lhs["parent"]["q3"]
    assert summaries["yield"]["wins"] == {"parent": 0, "change": 4}
    assert summaries["yield"]["gain"]
