"""Alternating-pair benchmark of the working tree against a parent revision.

    python3 tools/benchpairs.py --parent REV --workloads sieve,congruence \\
        --pairs 10 --seed 350301 --seconds 20 --out BENCH_name.json

Builds two trees in temporary directories: REV by `git archive`, and the
tracked files of the working tree as they stand on disk (uncommitted
edits included). Then, for each workload, it runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree per pair, with PYTHONDONTWRITEBYTECODE=1, so that every
process compiles the sources it imports. The parent runs first in the
even pairs and the change in the odd ones. Each pair takes a new seed:
S, S + 1, ... across all workloads in order.

The output file holds, for each workload and each end-to-end metric of
BENCHMARK.json: every run's value on both sides, the medians, the
inclusive quartiles, the number of pairs where the change is better
(strictly, in the metric's direction), the relative change of the
medians and the no-regression verdict against the metric's bound (see
`verdict`). Runs are paired by seed: a pair where either side gave no
result, or no value of the metric, is left out of that metric, and its
index is listed. It also names the interpreter.
The script exits 1, after writing the file, if any operation failed or a
run gave no result. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_metrics(root=ROOT):
    """End-to-end metric name -> (better, bound), from BENCHMARK.json:
    better is "lower" or "higher", bound the largest allowed loss as a
    share of the parent's median."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def export_parent(rev: str, dest: Path):
    """The tree of `rev`, by `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def export_working_tree(dest: Path):
    """The working tree's tracked files as they are on disk; a tracked
    file deleted from the disk is left out."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in `tree`: its JSON result line, or None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return None


def summarise(runs: list) -> dict:
    """Median, inclusive quartiles and the raw values of one side."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str, bound: float) -> str:
    """The no-regression verdict of one metric, from both sides' summaries:
    - "better" when every change run beats every parent run, or when the
      change wins at least nine tenths of the pairs and its median is
      better by more than the parent's quartile spread;
    - otherwise "unresolved" when that spread is wider than the bound
      (a share of the parent's median), since the runs cannot tell a loss
      of the bound from noise;
    - otherwise "worse" when the median is worse by more than the bound,
      and "within bound" when it is not."""
    sign = 1 if better == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    if all(sign * (p - c) > 0 for p in parent["runs"] for c in change["runs"]):
        return "better"
    if 10 * wins >= 9 * pairs and gain > spread:
        return "better"
    if spread > bound * parent["median"]:
        return "unresolved"
    return "worse" if -gain > bound * parent["median"] else "within bound"


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Both sides of one metric, one value per pair (None where a side has
    none), the change's wins over the pairs that have both, the relative
    change of the medians and the verdict."""
    pairs = list(zip(parent, change))
    kept = [pc for pc in pairs if None not in pc]
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in kept)
    p, c = summarise([p for p, _ in kept]), summarise([c for _, c in kept])
    return {"parent": p, "change": c, "better": better, "change_wins": f"{wins} of {len(kept)}",
            "dropped_pairs": [i for i, pc in enumerate(pairs) if None in pc],
            "median_change": (c["median"] - p["median"]) / p["median"], "bound": bound,
            "verdict": verdict(p, c, wins, len(kept), better, bound)}


def bench(trees: dict, workloads: list, pairs: int, seed: int, seconds: float,
          metrics: dict, run=run_once):
    """Alternate the two trees over `pairs` pairs per workload, comparing
    each metric of `metrics` (name -> (better, bound)); returns the
    report's "workloads" section and the number of failed operations (a
    run with no result counts as one)."""
    out, failed = {}, 0
    for w in workloads:
        values = {side: {m: [] for m in metrics} for side in SIDES}
        seeds, first, ops = [], [], {side: [0, 0] for side in SIDES}
        for i in range(pairs):
            seeds.append(seed)
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                res = run(trees[side], w, seed, seconds)
                print(f"{w} pair {i} seed {seed} {side}: "
                      + (json.dumps({m: v["value"] for m, v in res["metrics"].items()})
                         if res else "no result"), file=sys.stderr)
                got = res["metrics"] if res else {}
                for m in metrics:
                    values[side][m].append(got[m]["value"] if m in got else None)
                if res is None:
                    failed += 1
                    continue
                ops[side][0] += res["attempted"]
                ops[side][1] += res["failed"]
                failed += res["failed"]
            seed += 1
        entry = {"seeds": seeds, "pairs": pairs, "first_side": first,
                 "operations": {side: {"attempted": a, "failed": f}
                                for side, (a, f) in ops.items()}}
        for m, (better, bound) in metrics.items():
            p, c = values["parent"][m], values["change"][m]
            if any(None not in pc for pc in zip(p, c)):
                entry[m] = compare(p, c, better, bound)
        out[w] = entry
    return out, failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True, help="JSON file to write")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    workloads = args.workloads.split(",")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        export_parent(parent, trees["parent"])
        export_working_tree(trees["change"])
        results, failed = bench(trees, workloads, args.pairs, args.seed, args.seconds,
                                end_to_end_metrics(trees["change"]))
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "method": f"tools/benchpairs.py: parent {parent} (git archive) against the working "
                  "tree's tracked files, each in its own temporary directory, "
                  "PYTHONDONTWRITEBYTECODE=1; the parent runs first in even pairs; one seed "
                  "per pair; a pair missing a side's value is dropped from that metric; "
                  "quartiles by the inclusive method; verdicts against each metric's bound "
                  "as in benchpairs.verdict.",
        "python": f"{platform.python_version()} ({platform.python_implementation()})",
        "nproc": os.cpu_count(),
        "failed_ops": failed,
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if failed:
        print(f"error: {failed} failed operations or runs without a result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
