"""Build perfbench/refs.json, the frozen exact references.

    python3 perfbench/make_refs.py

Run it only when a program output is meant to change. It computes every
operation's digest (for the elimination workload once per CLI seed) and
cross-validates the sieve digests between fermatkit's two independent
routes before writing anything:

- each sieve-oracle digest (``sieve_case_exhaustive``, one prime) must
  equal the linear route (``sieve_case``) on the same constraint;
- each sieve digest (``sieve_case``, six-prime proof set) must equal the
  exhaustive route on the same constraints.

The cross-validation runs here only, never inside a timed sample.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def digests(workload: str, seed: int) -> dict:
    out = {}
    for op_id, fn in workloads.plan(workload, seed):
        out[op_id] = fn()
        print(f"  {workload} seed {seed} {op_id} {out[op_id][:16]}", file=sys.stderr)
    return out


def require_passing():
    """A reference must freeze a passing report, not just any report."""
    from fermatkit.cli import run_checks

    names = list(workloads.CONGRUENCE_CHECKS + workloads.SIEVE_CHECKS)
    bad = [c.name for c in run_checks(names=names).checks if c.status != "pass"]
    for s in range(workloads.CLI_SEED_COUNT):
        report = run_checks(names=list(workloads.ELIMINATION_CHECKS), seed=s)
        bad += [f"{c.name} (seed {s})" for c in report.checks if c.status != "pass"]
    if bad:
        raise SystemExit(f"checks do not pass, refusing to freeze them: {bad}")


def cross_validate(refs: dict):
    from fermatkit.unitsieve import SieveConstraint, sieve_case, sieve_case_exhaustive

    oracle = refs["sieve-oracle"]["default"]
    for q in workloads.ORACLE_QS:
        cons = [SieveConstraint(q=q, mode="unconstrained")]
        linear = workloads.bitset_sha256(sieve_case("divisible-13", cons))
        if linear != oracle[f"oracle:q{q}"]:
            raise SystemExit(f"routes disagree at q={q}: linear {linear}, oracle {oracle[f'oracle:q{q}']}")
    sieve = refs["sieve"]["default"]
    for case in workloads.SIEVE_CASES:
        slow = workloads.bitset_sha256(sieve_case_exhaustive(case, workloads.proof_set()))
        if slow != sieve[f"sieve:{case}"]:
            raise SystemExit(f"routes disagree on the proof set ({case})")


def main():
    require_passing()
    refs = {}
    for workload in workloads.WORKLOADS:
        if workload in workloads.SEEDED:
            refs[workload] = {
                str(s): digests(workload, s) for s in range(workloads.CLI_SEED_COUNT)
            }
        else:
            refs[workload] = {"default": digests(workload, 0)}
    cross_validate(refs)
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
