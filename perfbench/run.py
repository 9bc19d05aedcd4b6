"""fermatkit benchmark: time-to-verified-result of cold CLI-style runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/fermatkit`` must exist;
nothing needs installing). Every sample is a fresh interpreter
(perfbench/sample.py), because fermatkit's module caches live as long as
the process and a CLI user pays them cold on every run. Load is a closed
loop: one caller, one process, one thread, samples back to back.

--trace 0 reports the end-to-end metrics:
  wall_s       median over samples of the time from the first operation's
               start to the last verified result;
  setup_s      median over SETUP_REPS processes that only start the
               interpreter, import fermatkit and load and validate the
               workload's fixtures (one unmeasured warm-up first);
  peak_rss_mb  median peak resident memory of the sample processes.
Both times are given at a fixed reference machine speed: each sample
and set-up process samples the speed of its own CPU while it runs (see
Calibrator in sample.py) and its time is rescaled by that factor, so
that the host's swings in speed cancel. The raw times are printed too.
After MIN_SAMPLES samples, sampling stops before the first sample that
is predicted to end after --seconds.

--trace 1 reports the per-layer metrics from one untraced sample, one
traced sample (span wrappers; spans go to .bench_out/), one counting
sample (FFElement multiply/power counters, kept apart so that their
overhead does not inflate span times) and one kernel-probe process.
bench.trace_overhead_s is traced minus untraced wall_s, both at the
reference speed.

Every operation's output is gated against perfbench/refs.json; a
mismatch or an exception is a failed operation. The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPS = 11
MIN_SAMPLES = 2
DEADLINE_S = 170  # the whole run, every child included


class ChildFailed(Exception):
    pass


def rounded(values):
    return [round(v, 4) for v in values]


class Runner:
    def __init__(self, workload: str, seed: int, refs_path=None):
        self.workload = workload
        self.seed = seed
        self.refs_path = refs_path
        self.t_start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def child(self, mode: str):
        """Run one sample process; returns (process wall seconds, result)."""
        cmd = [sys.executable, str(HERE / "sample.py"), mode, self.workload, str(self.seed)]
        if self.refs_path:
            cmd += ["--refs", str(self.refs_path)]
        timeout = max(1.0, DEADLINE_S - (perf_counter() - self.t_start))
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} sample exceeded the {DEADLINE_S} s run deadline")
        took = perf_counter() - t0
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
            raise ChildFailed(f"{mode} sample exited with {proc.returncode}: {tail}")
        try:
            return took, json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildFailed(f"{mode} sample printed no result") from None

    def gate(self, result: dict):
        for op_id, ok, note in result.get("ops", []):
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(f"FAILED {op_id}: {note}")

    def child_failed(self, err: ChildFailed, n_ops: int):
        self.attempted += n_ops
        self.failed += n_ops
        self.notes.append(f"FAILED {err}")

    def n_ops(self) -> int:
        return len(workloads.plan(self.workload, self.seed))

    def end_to_end(self, seconds: float) -> dict:
        setups, raw_setups = [], []
        try:
            self.child("setup")  # writes bytecode caches; not measured
            for _ in range(SETUP_REPS):
                took, cal = self.child("setup")
                raw_setups.append(took - cal["cal_s"])
                setups.append(raw_setups[-1] * cal["speed"])
        except ChildFailed as e:
            self.child_failed(e, 1)
        walls, raw_walls, rss = [], [], []
        t_loop = perf_counter()
        while True:
            try:
                took, res = self.child("plain")
            except ChildFailed as e:
                self.child_failed(e, self.n_ops())
                break
            self.gate(res)
            walls.append(res["wall_ref_s"])
            raw_walls.append(res["wall_s"])
            rss.append(res["peak_rss_mb"])
            if len(walls) >= MIN_SAMPLES and perf_counter() - t_loop + took > seconds:
                break
        self.notes.append(f"{len(walls)} samples, raw wall_s = {rounded(raw_walls)}, "
                          f"at reference speed = {rounded(walls)}")
        self.notes.append(f"{len(setups)} set-ups, raw setup_s = {rounded(raw_setups)}, "
                          f"at reference speed = {rounded(setups)}")
        out = {}
        if walls:
            out["wall_s"] = (statistics.median(walls), "s")
            out["peak_rss_mb"] = (statistics.median(rss), "MB")
        if setups:
            out["setup_s"] = (statistics.median(setups), "s")
        return out

    def per_layer(self) -> dict:
        out = {}
        try:
            _, plain = self.child("plain")
            self.gate(plain)
            _, traced = self.child("traced")
            self.gate(traced)
            _, counted = self.child("count")
            self.gate(counted)
            _, probe = self.child("probe")
            self.gate(probe)
        except ChildFailed as e:
            self.child_failed(e, self.n_ops())
            return out
        out.update({k: tuple(v) for k, v in traced["layers"].items()})
        out.update({k: (v, "count") for k, v in counted["counts"].items()})
        out.update({k: tuple(v) for k, v in probe["metrics"].items()})
        out["bench.untraced_wall_s"] = (plain["wall_s"], "s")
        out["bench.traced_wall_s"] = (traced["wall_s"], "s")
        # both at the reference speed, so that the host's swings cancel
        out["bench.trace_overhead_s"] = (traced["wall_ref_s"] - plain["wall_ref_s"], "s")
        out["bench.untraced_speed"] = (plain["speed"], "ratio")
        self.notes.append(f"spans written to {traced['spans']}")
        return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--refs", help=argparse.SUPPRESS)  # the self-test's corrupted copy
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fermatkit" / "__init__.py").is_file():
        print(f"error: no fermatkit source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.refs)
    metrics = runner.per_layer() if args.trace else runner.end_to_end(args.seconds)
    for line in runner.notes:
        print(line)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
