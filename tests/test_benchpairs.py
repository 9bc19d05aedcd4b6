"""tools/benchpairs.py's pairing and summary, on a stand-in for perfbench."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def test_directions_are_the_benchmarks():
    assert benchpairs.end_to_end_metrics() == {
        "wall_s": ("lower", 0.25), "setup_s": ("lower", 0.25), "peak_rss_mb": ("lower", 0.1)}


def test_pairs_alternate_and_take_new_seeds():
    calls = []

    def fake(tree, workload, seed, seconds):
        calls.append((tree, workload, seed))
        wall = 1.0 if tree == "P" else 0.9 + 0.2 * (seed == 12)  # the change loses at seed 12
        return {"attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": wall}}}

    out, failed = benchpairs.bench({"parent": "P", "change": "C"}, ["a", "b"], 3, 10, 1.0,
                                   {"wall_s": ("lower", 0.25)}, run=fake)
    assert failed == 0
    assert [c[2] for c in calls] == [10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15]
    assert [c[0] for c in calls[:6]] == ["P", "C", "C", "P", "P", "C"]
    a = out["a"]
    assert a["seeds"] == [10, 11, 12] and a["first_side"] == ["parent", "change", "parent"]
    assert a["operations"]["change"] == {"attempted": 9, "failed": 0}
    assert a["wall_s"]["change_wins"] == "2 of 3"
    assert a["wall_s"]["change"] == {"median": 0.9, "q1": 0.9, "q3": 1.0, "runs": [0.9, 0.9, 1.1]}
    assert out["b"]["wall_s"]["change_wins"] == "3 of 3"


def test_failed_operations_and_missing_results_count():
    def fake(tree, workload, seed, seconds):
        if tree == "C" and seed == 1:
            return None
        return {"attempted": 2, "failed": int(tree == "P"), "metrics": {"wall_s": {"value": 1}}}

    out, failed = benchpairs.bench({"parent": "P", "change": "C"}, ["a"], 2, 0, 1.0,
                                   {"wall_s": ("lower", 0.25)}, run=fake)
    assert failed == 3  # two failed parent operations and one run without a result
    # pair 1 has no change run, so only pair 0 compares
    assert out["a"]["wall_s"]["change_wins"] == "0 of 1"
    assert out["a"]["wall_s"]["dropped_pairs"] == [1]


def test_pairs_keep_their_seeds_when_each_side_fails_once():
    # the parent fails pair 0 and the change pair 1: both sides have one
    # run missing, and only pair 2 has both; at seed 3 the change's run
    # lacks setup_s, so that metric compares pair 2 alone
    wall = {("P", 1): 0.1, ("P", 2): 1.0, ("P", 3): 1.0, ("C", 0): 0.5, ("C", 2): 0.9,
            ("C", 3): 1.2}

    def fake(tree, workload, seed, seconds):
        if (tree, seed) not in wall:
            return None
        metrics = {"wall_s": {"value": wall[tree, seed]}}
        if (tree, seed) != ("C", 3):
            metrics["setup_s"] = {"value": 2.0 if tree == "P" else 1.0}
        return {"attempted": 1, "failed": 0, "metrics": metrics}

    out, failed = benchpairs.bench({"parent": "P", "change": "C"}, ["a"], 4, 0, 1.0,
                                   {"wall_s": ("lower", 0.25), "setup_s": ("lower", 0.25)},
                                   run=fake)
    assert failed == 2
    wall_s, setup_s = out["a"]["wall_s"], out["a"]["setup_s"]
    # zipping each side's results in turn would pair seed 1 with seed 0
    assert wall_s["parent"]["runs"] == [1.0, 1.0] and wall_s["change"]["runs"] == [0.9, 1.2]
    assert wall_s["change_wins"] == "1 of 2" and wall_s["dropped_pairs"] == [0, 1]
    assert setup_s["parent"]["runs"] == [2.0] and setup_s["change"]["runs"] == [1.0]
    assert setup_s["change_wins"] == "1 of 1" and setup_s["dropped_pairs"] == [0, 1, 3]


def test_verdicts_against_the_bound():
    """One workload per verdict, ten pairs each, against a bound of 0.1:
    a change whose every run beats every parent run; a wide parent spread
    (0.8 to 1.2, past the bound) that no run separates; a steady parent
    and a change 20% slower; a steady parent and a change 5% slower; and,
    for a metric where higher is better, a change that wins 9 of 10 pairs
    by more than the parent's spread."""
    parent = {"better": [1.0] * 10, "wide": [0.8, 1.2] * 5, "worse": [1.0, 1.01] * 5,
              "within": [1.0, 1.01] * 5, "higher": [1.0, 1.01] * 5}
    change = {"better": [0.9] * 10, "wide": [1.0] * 10, "worse": [1.2] * 10,
              "within": [1.05] * 10, "higher": [0.9] + [1.2] * 9}

    def fake(tree, workload, seed, seconds):
        runs = parent if tree == "P" else change
        return {"attempted": 1, "failed": 0, "metrics": {"m": {"value": runs[workload][seed]}}}

    got = {}
    for w in parent:
        better = "higher" if w == "higher" else "lower"
        out, failed = benchpairs.bench({"parent": "P", "change": "C"}, [w], 10, 0, 1.0,
                                       {"m": (better, 0.1)}, run=fake)
        assert failed == 0
        got[w] = out[w]["m"]["verdict"]
    assert got == {"better": "better", "wide": "unresolved", "worse": "worse",
                   "within": "within bound", "higher": "better"}
    assert out["higher"]["m"]["median_change"] == (1.2 - 1.005) / 1.005
