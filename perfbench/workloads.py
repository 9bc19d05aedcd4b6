"""Workload definitions and the exact-output gate.

A workload is a fixed list of operations. Each operation calls one of
fermatkit's public entry points (``cli.run_checks``, ``cli.main``,
``unitsieve.sieve_case``, ``unitsieve.sieve_case_exhaustive``) and
returns a sha256 digest of its output:

- a check or command: the canonical JSON of the report body, i.e.
  ``RunReport.to_dict(with_timings=False)`` (for ``main`` the printed
  ``--json`` report with the ``ms`` fields removed, which is the same
  dictionary);
- a sieve call: the survivor bitset in the byte layout ``fermatkit sieve
  --out`` writes (bit i of byte i // 8 is class index i).

``run_ops`` compares every digest with a frozen reference
(``perfbench/refs.json``). A mismatch, a missing reference or an
exception counts as a failed operation, never as a slow one.

This module imports fermatkit lazily, inside the operations, so that it
can be imported to build a plan before ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# The benchmark seed picks one of CLI_SEED_COUNT frozen CLI seeds, so
# that every seed the benchmark is given has an exact reference.
CLI_SEED_COUNT = 32

CONGRUENCE_CHECKS = (
    "euler-rm-at-3",
    "invariant-valuations-at-2",
    "igusa-proportionality",
    "projective-frobenius-orders",
    "mod7-congruence-norm-200",
)
ELIMINATION_CHECKS = ("elimination-soundness", "contradiction-checkers")
ELIMINATE_ARGV = (
    "eliminate",
    "--family", "families/demo_sum_rule_cubic.json",
    "--packets", "packets/demo_self_1_3.json",
    "--q", "5,11",
    "--refined", "p=7",
    "--skip-ramified",
)
SIEVE_CHECKS = ("unit-rank-verified",)
SIEVE_CASES = ("coprime-13", "divisible-13")
# the six-prime proof set: 2 parity-only, the rest unconstrained
PROOF_SET_QS = (2, 11, 19, 23, 29, 41)
ORACLE_QS = (11, 23, 29)

# Fixtures each workload reads; setup_s loads and validates them.
FIXTURES = {
    "congruence": (
        "curves/C_eq51.curve",
        "curves/E_1_-1.curve",
        "invariants/humbert_rm8_reference.json",
    ),
    "elimination": (
        "families/demo_sum_rule_cubic.json",
        "packets/demo_self_1_3.json",
        "packets/f11_fixture.json",
        "packets/reducible_wiring.json",
    ),
    "sieve": (),
    "sieve-oracle": (),
}

WORKLOADS = tuple(FIXTURES)
# only elimination-soundness draws random pairs from the CLI seed
SEEDED = {"elimination"}


def cli_seed(workload: str, seed: int):
    """CLI --seed for a benchmark seed; None means the CLI default."""
    return seed % CLI_SEED_COUNT if workload in SEEDED else None


def sha256_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def bitset_sha256(classes) -> str:
    from fermatkit.unitsieve import UNIT_CLASS_COUNT

    bits = bytearray((UNIT_CLASS_COUNT + 7) // 8)
    for u in classes:
        i = u.index
        bits[i // 8] |= 1 << (i % 8)
    return hashlib.sha256(bytes(bits)).hexdigest()


def _check_op(name: str, seed):
    def run():
        from fermatkit.cli import run_checks

        kw = {} if seed is None else {"seed": seed}
        return sha256_json(run_checks(names=[name], **kw).to_dict(with_timings=False))

    return run


def _main_op(argv, seed):
    def run():
        from fermatkit.cli import main

        full = ["--json"] + ([] if seed is None else ["--seed", str(seed)]) + list(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(full)
        if code != 0:
            raise RuntimeError(f"fermatkit {argv[0]} exited with code {code}")
        body = json.loads(buf.getvalue())
        for c in body["checks"]:
            c.pop("ms", None)
        return sha256_json(body)

    return run


def proof_set():
    from fermatkit.unitsieve import SieveConstraint

    return [
        SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")
        for q in PROOF_SET_QS
    ]


def _sieve_op(case: str):
    def run():
        from fermatkit import unitsieve

        return bitset_sha256(unitsieve.sieve_case(case, proof_set()))

    return run


def _oracle_op(q: int):
    def run():
        from fermatkit import unitsieve

        cons = [unitsieve.SieveConstraint(q=q, mode="unconstrained")]
        return bitset_sha256(unitsieve.sieve_case_exhaustive("divisible-13", cons))

    return run


def plan(workload: str, seed: int):
    """[(op id, zero-argument callable returning a digest)] in run order."""
    s = cli_seed(workload, seed)
    if workload == "congruence":
        return [(f"check:{n}", _check_op(n, s)) for n in CONGRUENCE_CHECKS]
    if workload == "elimination":
        return [(f"check:{n}", _check_op(n, s)) for n in ELIMINATION_CHECKS] + [
            ("cmd:eliminate", _main_op(ELIMINATE_ARGV, s))
        ]
    if workload == "sieve":
        return [(f"check:{n}", _check_op(n, s)) for n in SIEVE_CHECKS] + [
            (f"sieve:{case}", _sieve_op(case)) for case in SIEVE_CASES
        ]
    if workload == "sieve-oracle":
        return [(f"oracle:q{q}", _oracle_op(q)) for q in ORACLE_QS]
    raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


def load_refs(path=REFS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(refs: dict, workload: str, seed: int) -> dict:
    """Frozen op id -> digest map for one workload and benchmark seed."""
    s = cli_seed(workload, seed)
    return refs[workload]["default" if s is None else str(s)]


def run_ops(ops, expected: dict, around=None):
    """Run ops in order and gate each against its reference.

    `around(op_id, fn)` may wrap each call (the traced run opens a span
    there). Returns (wall seconds from the first op's start to the last
    verified result, [(op id, ok, note)]).
    """
    outcomes = []
    t0 = time.perf_counter()
    for op_id, fn in ops:
        try:
            got = fn() if around is None else around(op_id, fn)
        except Exception as e:  # a raising op is a failed op, not a crashed run
            outcomes.append((op_id, False, f"{type(e).__name__}: {e}"))
            continue
        want = expected.get(op_id)
        if want is None:
            outcomes.append((op_id, False, "no frozen reference"))
        elif got != want:
            outcomes.append((op_id, False, f"digest {got[:16]} != reference {want[:16]}"))
        else:
            outcomes.append((op_id, True, ""))
    return time.perf_counter() - t0, outcomes
