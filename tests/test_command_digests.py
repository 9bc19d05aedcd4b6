"""Every command's output, pinned: argv -> exit code and the sha256 of its
`--json` body with every row's `ms` dropped, hashed compact and key-sorted
as perfbench's `_main_op` does; and the exit code and stderr of ten
refusals. No body names where the package sits on disk, so the digests
hold in every checkout.
A change to any row's name, status or detail, or to the inputs a command
lists, must update its digest here on purpose.

Needs only the standard library: `python tests/test_command_digests.py`
runs the same table without pytest, then every perfbench operation
against perfbench/refs.json (`workload_outcomes`), and exits 1 on a
mismatch or a failed operation.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ELIMINATE = ("eliminate", "--family", "families/demo_sum_rule_cubic.json",
             "--packets", "packets/demo_self_1_3.json", "--q", "5,11")

BODIES = [  # (argv, exit code, sha256 of the body without timings)
    (("split", "Qsqrt13", "2", "3", "13"), 0,
     "bea333109a6ed5db5fcf9d8a60558564cac4bf7a7b7339b4c360796e9597b970"),
    (("split", "K13cubic", "5", "7"), 0,
     "502226a5a38f7d870d65496d036943c37e400140b13ae9060a31662e732ec7ca"),
    (("split", "Zzeta13", "29"), 0,
     "fb9ce5f423e70a6ebd65fef0e5ff667fee7aa25520343fd203cbfa58beee05f8"),
    (("trace", "curves/E_1_-1.curve", "2", "5", "13", "17"), 0,
     "8b18e79896dcd57ac649ec2051f67535e67643dacc25941c6178af44a5dc2e2a"),
    (("trace", "curves/C_eq51.curve", "2"), 0,
     "7cbc2e5565a0c96b554fb2cf765b10dece786a2fb6a5e8b62f1b97e09d2cd80d"),
    (("euler", "curves/C_eq51.curve", "3", "5"), 0,
     "e3b86d9a96cca335dc871cfcfe45603ce19c51f9c2a6f8a24cdf6ee12a5ac0c7"),
    (("igusa", "curves/C_eq51.curve", "--reference"), 0,
     "3e67f49bd4d43715640dcdd063245a01d27845ae321fe793dfb4f6ad4b14a9f2"),
    (("check-congruence",), 0,
     "3c117249bbeeee55aed6ef57023919584605a6f3445667ab73b4a6cfb9d79770"),
    (("--seed", "0") + ELIMINATE, 0,
     "3a60bcd0178e71e3701c363504b289cb9695f6efc955b295520a8db64d261f28"),
    (("--seed", "17") + ELIMINATE, 0,
     "5c778807189630a92f4871a4ec22fe38353d7b5b9c47a1c2420b5bf021b683e3"),
    (("--seed", "0") + ELIMINATE + ("--refined", "p=7"), 0,
     "1f1a367ea4e8826faa794c4c6985d5b0b2aeffcef8cf3a81f110966f4fec6500"),
    (("--seed", "17") + ELIMINATE + ("--refined", "p=7"), 0,
     "e5722a54de7db62e93c28b595a817d5011e35ae965e1cd1b71c1617dec08d26a"),
    (("sieve", "--case", "div13", "--constraints", "constraints/demo_sieve.json"), 0,
     "f61eefde15922bdb56d91d97b597f2e3bb01992de009db3b7facb20018f46ecb"),
    (("sieve", "--case", "coprime13", "--constraints", "constraints/demo_sieve.json"), 0,
     "6d8c24fe1ad4a05c7a2a57ec8303df25ee1a0715976c973987507e5d17a7951a"),
    (("sieve", "--case", "div13", "--constraints", "constraints/proof_sieve_small.json"), 0,
     "a50c7ca5675cb1c5c30f8958a45b4f666df1dd4f1312aae78e3fba753a24ee0f"),
    (("eliminate", "--family", "families/frey_sqrt13.json",
      "--packets", "packets/demo_self_1_3.json", "--q", "5"), 0,
     "153486f6333a425765f39d776b391d680bd6a4d3bdca31704e420c68d7265b98"),
    (("check-invariants",), 0,
     "b4e68489f440b6d84a06ac169c5012300857f70181d5579184d16ffcf666e5c3"),
    (("--seed", "7", "check-invariants"), 0,
     "ffe0cd5bcc3f156990f8292d570618fdb251549fc12c5bf3f77b38cd9ce72ea9"),
]

REFUSALS = [  # (argv, exit code, stderr); nothing is printed on stdout
    (("trace", "curves/C_eq51.curve", "197"), 2,
     "error: the genus-2 point count at 197.0 runs over 1506138481 elements, "
     "more than 4194304\n"),
    (("check-congruence", "--bound", "2049"), 2,
     "error: --bound: expected a norm bound at most 2048, got 2049\n"),
    (("igusa", "curves/E_1_-1.curve"), 2, "error: igusa needs a sextic curve file\n"),
    (("sieve", "--case", "div7", "--constraints", "constraints/demo_sieve.json"), 2,
     "error: --case must be div13 or coprime13\n"),
    (ELIMINATE + ("--refined", "p=7", "--skip", "7.0"), 2,
     "error: --skip: '7.0' is not a residue prime above 7 of any packet; "
     "the keys are ['7:0']\n"),
    (("full-report", "--only", ","), 2,
     "error: --only: expected comma-separated check names, got ','\n"),
    (("full-report", "--only", "euler-rm-at-3,bogus-check"), 2,
     "error: --only: unknown check 'bogus-check'; known: ['euler-rm-at-3', "
     "'invariant-valuations-at-2', 'igusa-proportionality', 'projective-frobenius-orders', "
     "'mod7-congruence-norm-200', 'unit-classes-and-rank-stated', 'unit-rank-verified', "
     "'sieve-soundness', 'elimination-soundness', 'contradiction-checkers', "
     "'sieve-empty-divisible-13', 'sieve-empty-coprime-13', "
     "'four-constituents-elimination']\n"),
    (ELIMINATE[:-1] + (",",), 2, "error: --q: expected at least one auxiliary prime, got ','\n"),
    (("check-congruence", "--curve-e", "curves/C_eq51.curve"), 2,
     "error: --curve-e: expected a Weierstrass model over Qsqrt13, got a sextic over "
     "Qsqrt13 in curves/C_eq51.curve\n"),
    (("check-congruence", "--curve-c", "curves/E_1_-1.curve"), 2,
     "error: --curve-c: expected a sextic over Qsqrt13, got a Weierstrass model over "
     "Qsqrt13 in curves/E_1_-1.curve\n"),
]


def run_main(argv):
    """(exit code, stdout, stderr) of `fermatkit <argv>`, run in-process."""
    from fermatkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def body_digest(stdout: str) -> str:
    body = json.loads(stdout)
    for row in body["checks"]:
        row.pop("ms")
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def body_mismatches():
    """(argv, expected, got) for each body row of the table that differs."""
    bad = []
    for argv, code, digest in BODIES:
        got_code, out, err = run_main(("--json",) + argv)
        got = (got_code, body_digest(out) if got_code == code else err)
        if got != (code, digest):
            bad.append((argv, (code, digest), got))
    return bad


def refusal_mismatches():
    bad = []
    for argv, code, stderr in REFUSALS:
        got = run_main(argv)
        if got != (code, "", stderr):
            bad.append((argv, (code, "", stderr), got))
    return bad


def workload_outcomes(seed=0):
    """[(workload, op id, ok, note)] for every operation of every perfbench
    workload at one seed, each gated on perfbench/refs.json (read only);
    perfbench/workloads.py is imported by its path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    refs = wl.load_refs()
    out = []
    for name in wl.WORKLOADS:
        _, outcomes = wl.run_ops(wl.plan(name, seed), wl.expected_digests(refs, name, seed))
        out += [(name,) + o for o in outcomes]
    return out


def test_command_bodies_are_pinned():
    assert body_mismatches() == []


def test_refusals_are_pinned():
    assert refusal_mismatches() == []


def test_every_workload_plan_matches_its_references():
    outcomes = workload_outcomes()
    assert {o[0] for o in outcomes} == {"congruence", "elimination", "sieve", "sieve-oracle"}
    assert len(outcomes) == 14  # 5 + 3 + 3 + 3 operations
    assert [o for o in outcomes if not o[2]] == []


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    bad = body_mismatches() + refusal_mismatches()
    for argv, want, got in bad:
        print(f"MISMATCH fermatkit {' '.join(argv)}: expected {want}, got {got}")
    print(f"{len(BODIES) + len(REFUSALS) - len(bad)} of {len(BODIES) + len(REFUSALS)} "
          "pinned outputs match")
    ops = workload_outcomes()
    failed = [o for o in ops if not o[2]]
    for workload, op_id, _, note in failed:
        print(f"FAILED perfbench {workload} {op_id}: {note}")
    print(f"{len(ops) - len(failed)} of {len(ops)} perfbench operations match their references")
    sys.exit(1 if bad or failed else 0)
