"""Self-test of the exact-output gate.

    python3 perfbench/selftest.py

1. In process: an operation that raises, one whose digest differs from
   its reference and one with no reference are each a failed operation;
   a matching one is not.
2. End to end: run.py on the congruence workload with a copy of
   refs.json in which one digest is corrupted must report that operation,
   and no other, as failed in every sample, print ``"correct": false``
   and exit nonzero.

Exits 0 when both hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def check_in_process():
    ops = [
        ("raises", lambda: 1 // 0),
        ("mismatch", lambda: "a" * 64),
        ("match", lambda: "b" * 64),
        ("unreferenced", lambda: "c" * 64),
    ]
    _, outcomes = workloads.run_ops(ops, {"mismatch": "b" * 64, "match": "b" * 64})
    got = {op_id: ok for op_id, ok, _ in outcomes}
    want = {"raises": False, "mismatch": False, "match": True, "unreferenced": False}
    if got != want:
        raise SystemExit(f"in-process gate: got {got}, want {want}")
    print("in-process gate: raise, mismatch and missing reference all fail; match passes")


def check_end_to_end():
    workload, seed, victim = "congruence", 0, "check:euler-rm-at-3"
    refs = workloads.load_refs()
    digest = refs[workload]["default"][victim]
    refs[workload]["default"][victim] = ("0" if digest[0] != "0" else "1") + digest[1:]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    bad_refs = out_dir / "refs-corrupted.json"
    bad_refs.write_text(json.dumps(refs))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--refs", str(bad_refs)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    n_ops = len(workloads.CONGRUENCE_CHECKS)
    failed_lines = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    # the corrupted op fails in every sample, and no other op fails
    samples = result["attempted"] // n_ops
    if proc.returncode == 0 or result["correct"] or samples < 1 \
            or result["attempted"] != samples * n_ops or result["failed"] != samples \
            or not all(line.startswith(f"FAILED {victim}:") for line in failed_lines):
        raise SystemExit(f"corrupted reference not caught: exit {proc.returncode}, "
                         f"result {result}\n{proc.stdout}")
    print(f"end to end: corrupted {victim} reported as failed in each of {samples} samples, "
          f"{result['failed']} of {result['attempted']} operations")


if __name__ == "__main__":
    check_in_process()
    check_end_to_end()
    print("selftest: ok")
