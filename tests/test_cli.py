import contextlib
import functools
import io
import json
import operator
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fermatkit.cli import CHECK_NAMES, main, run_checks
from fermatkit.unitsieve import UNIT_CLASS_COUNT

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class _FakeClock:
    """A stand-in for `cli.time` whose monotonic clock moves only while a
    function wrapped by `taking` runs."""

    def __init__(self):
        self.now = self.start = 1000.0

    def monotonic(self):
        return self.now

    @property
    def spent(self):
        return self.now - self.start

    def taking(self, seconds, fn):
        def wrapped(*args, **kw):
            self.now += seconds
            return fn(*args, **kw)
        return wrapped


class TestBasicCommands:
    def test_split(self, capsys):
        code, out, _ = run(capsys, "split", "Qsqrt13", "3")
        assert code == 0
        assert "3.0" in out and "3.1" in out

    def test_trace_elliptic(self, capsys):
        code, out, _ = run(capsys, "trace", "curves/E_1_-1.curve", "5", "2")
        assert code == 0
        assert "a = -2" in out
        assert "bad reduction" in out

    def test_trace_genus2(self, capsys):
        code, out, _ = run(capsys, "trace", "curves/C_eq51.curve", "3")
        assert code == 0
        assert "RM pair {-rt , rt}" in out
        assert "RM pair {2-rt , 2+rt}" in out
        code, out, _ = run(capsys, "trace", "curves/C_eq51.curve", "19")
        assert code == 0
        assert "RM pair {-10}," in out  # 19 is inert: one rational element

    def test_trace_genus2_in_characteristic_2(self, capsys):
        code, out, _ = run(capsys, "trace", "curves/C_eq51.curve", "2")
        assert code == 0
        assert ("trace-2.0: bad reduction: "
                "genus-2 counting in characteristic 2 is unsupported") in out

    def test_trace_genus2_without_rm_split(self, capsys, tmp_path):
        # y^2 = x^6 + x + 1 has a1 = -3, a2 = 6 at both primes above 3:
        # a1^2 - 4 (a2 - 2N) = 9 is not twice a square
        path = tmp_path / "plain.curve"
        coeffs = {f"c{i}": [1 if i in (0, 1, 6) else 0] for i in range(7)}
        path.write_text(json.dumps({"order": "Qsqrt13", "model": "sextic", "coefficients": coeffs}))
        code, out, _ = run(capsys, "trace", str(path), "3")
        assert code == 0
        for key in ("3.0", "3.1"):
            assert (f"trace-{key}: N=3, a1=-3, a2=6; no RM split: "
                    "discriminant 9 is not twice a perfect square") in out

    def test_igusa_refuses_an_elliptic_curve(self, capsys):
        code, out, err = run(capsys, "igusa", "curves/E_1_-1.curve")
        assert code == 2
        assert "igusa needs a sextic curve file" in err

    def test_igusa_reference(self, capsys):
        code, out, _ = run(capsys, "igusa", "curves/C_eq51.curve", "--reference")
        assert code == 0
        assert "exact with alpha: True" in out

    def test_check_congruence_small_bound(self, capsys):
        code, out, _ = run(capsys, "check-congruence", "--bound", "30")
        assert code == 0
        assert "0 failures" in out

    def test_eliminate_demo(self, capsys):
        code, out, _ = run(
            capsys, "eliminate",
            "--family", "families/demo_sum_rule_cubic.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", "5,11", "--refined", "7",
        )
        assert code == 0
        assert "surviving exponents: all primes" in out
        assert "not-eliminated" in out

    def test_q_list_skips_empty_items(self):
        from fermatkit.cli import _parse_q_list

        assert _parse_q_list("5,,11,") == [5, 11]

    def test_eliminate_external_family_skips(self, capsys):
        code, out, _ = run(
            capsys, "eliminate",
            "--family", "families/frey_cubic.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", "5",
        )
        assert code == 0
        assert "skipped(external-data)" in out

    def test_sieve_demo_with_bitset(self, capsys, tmp_path):
        out_file = tmp_path / "survivors.bin"
        code, out, _ = run(
            capsys, "sieve", "--case", "div13",
            "--constraints", "constraints/demo_sieve.json",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        assert out_file.stat().st_size == (16807 + 7) // 8
        summary = json.loads((tmp_path / "survivors.bin.json").read_text())
        assert summary["case"] == "divisible-13"
        popcount = sum(bin(b).count("1") for b in out_file.read_bytes())
        assert summary["count"] == popcount
        # deterministic across runs
        first = out_file.read_bytes()
        run(capsys, "sieve", "--case", "div13",
            "--constraints", "constraints/demo_sieve.json", "--out", str(out_file))
        assert out_file.read_bytes() == first

    def test_survivor_bitsets_are_pinned(self, capsys, tmp_path):
        """The demo bitsets of `sieve --out` in both cases, and the oracle's
        unconstrained divisible-13 bitsets at q = 11, 23, 29 against the
        frozen digests of the benchmark's references (read, never written)."""
        import hashlib

        from fermatkit.unitsieve import SieveConstraint, sieve_case_exhaustive_bits

        out_file = tmp_path / "survivors.bin"
        for case, digest in [
            ("div13", "2d0ae828d970bab44aff22dee5f057906fcbdb49be29edd8261a0024cd10bc13"),
            ("coprime13", "ac55807f5875ab87a10793732e88d4c3769cb22bd3615cf6ef101c4619bca3ee"),
        ]:
            code, _, _ = run(capsys, "sieve", "--case", case, "--constraints",
                             "constraints/demo_sieve.json", "--out", str(out_file))
            assert code == 0
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, case
        refs = json.loads((FIXTURES.parents[2] / "perfbench" / "refs.json").read_text())
        for q in (11, 23, 29):
            bits = sieve_case_exhaustive_bits(
                "divisible-13", [SieveConstraint(q=q, mode="unconstrained")])
            data = bits.to_bytes((UNIT_CLASS_COUNT + 7) // 8, "little")  # 2,101 bytes
            assert hashlib.sha256(data).hexdigest() == refs["sieve-oracle"]["default"][f"oracle:q{q}"]

    def test_sieve_reports_its_time(self, capsys):
        code, out, _ = run(capsys, "--json", "sieve", "--case", "div13",
                           "--constraints", "constraints/demo_sieve.json")
        assert code == 0
        d = json.loads(out)
        ms = d["checks"][0].pop("ms")
        assert isinstance(ms, int) and ms >= 1
        assert d["checks"] == [{
            "name": "sieve",
            "status": "pass",
            "detail": "case divisible-13: 504 of 16807 classes survive; first "
                      "[[2, 4, 0, 0, 0], [0, 6, 0, 0, 0], [0, 0, 2, 0, 0], "
                      "[2, 5, 2, 0, 0], [2, 2, 3, 0, 0], [0, 4, 3, 0, 0], "
                      "[0, 1, 4, 0, 0], [2, 3, 5, 0, 0], [0, 5, 5, 0, 0], "
                      "[2, 0, 6, 0, 0]]",
        }]

    @pytest.mark.parametrize("argv,names", [
        (["split", "Qsqrt13", "3", "13"], ["split-3", "split-13"]),
        (["trace", "curves/E_1_-1.curve", "5", "2"], ["trace-5.0", "trace-2.0"]),
        (["euler", "curves/C_eq51.curve", "3"], ["trace-3.0", "trace-3.1"]),
        (["check-congruence", "--bound", "30"], ["mod7-congruence"]),
        (["check-invariants"], ["randomized-invariants"]),
    ], ids=["split", "trace", "euler", "check-congruence", "check-invariants"])
    def test_rows_report_their_time(self, capsys, monkeypatch, argv, names):
        import fermatkit.cli as cli

        stamps = iter(range(101, 200))
        monkeypatch.setattr(cli, "_elapsed_ms", lambda t0: next(stamps))
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0
        rows = json.loads(out)["checks"]
        assert [(c["name"], c["ms"]) for c in rows] == list(zip(names, range(101, 200)))

    @pytest.mark.parametrize("argv", [
        ["eliminate", "--family", "families/demo_sum_rule_cubic.json",
         "--packets", "packets/demo_self_1_3.json", "--q", "5,11", "--refined", "p=7"],
        ["eliminate", "--family", "families/frey_cubic.json",
         "--packets", "packets/demo_self_1_3.json", "--q", "5"],
        ["igusa", "curves/C_eq51.curve", "--reference"],
        ["check-invariants"],
        ["sieve", "--case", "div13", "--constraints", "constraints/demo_sieve.json", "--out"],
        ["sieve", "--case", "div13", "--constraints", "constraints/proof_sieve_small.json"],
        ["check-congruence", "--bound", "30"],
    ], ids=["eliminate", "eliminate-external", "igusa", "check-invariants", "sieve-out",
            "sieve-external", "check-congruence-failing"])
    def test_no_row_reads_zero_ms(self, capsys, monkeypatch, tmp_path, argv):
        """Every row carries a time; `sieve --out` writes to a temporary
        file, and check-congruence fails with a trace off by one."""
        import fermatkit.cli as cli

        if argv[-1] == "--out":
            argv = argv + [str(tmp_path / "bits.bin")]
        failing = argv[0] == "check-congruence"
        if failing:
            real = cli.ec_trace
            monkeypatch.setattr(cli, "ec_trace", lambda E, P: real(E, P) + 1)
        code, out, _ = run(capsys, *argv)
        assert code == (1 if failing else 0)
        rows = [line for line in out.splitlines() if line.startswith("  [")]
        assert rows and not [r for r in rows if r.endswith("(0 ms)")], out
        if failing:
            assert any("] failure-" in r for r in rows), out
        if "--out" in argv:
            assert any("] sieve-out:" in r for r in rows), out

    def test_eliminate_rows_time_their_packet(self, capsys, monkeypatch, tmp_path):
        """Standard rows in label order, refined rows in file order; each
        row reads the time of its own packet's run."""
        import fermatkit.cli as cli

        pkt = json.loads((FIXTURES / "packets" / "demo_self_1_3.json").read_text())
        f = tmp_path / "two.json"
        f.write_text(json.dumps([dict(pkt, label="zz"), pkt]))
        stamps = iter(range(101, 200))
        monkeypatch.setattr(cli, "_elapsed_ms", lambda t0: next(stamps))
        code, out, _ = run(capsys, "--json", "eliminate",
                           "--family", "families/demo_sum_rule_cubic.json",
                           "--packets", str(f), "--q", "5,11", "--refined", "p=7")
        assert code == 0
        rows = json.loads(out)["checks"]
        assert [(c["name"], c["ms"]) for c in rows] == [
            ("standard-demo-self-1-3", 101), ("standard-zz", 102),
            ("refined-zz-7:0", 103), ("refined-demo-self-1-3-7:0", 104),
        ]

    def test_sieve_row_covers_its_loads(self, capsys, monkeypatch):
        """The constraint file's load (families, curves, targets) is part of
        the `sieve` row: a clock that moves only inside `_load_constraints`
        shows up in that row."""
        import fermatkit.cli as cli

        clock = _FakeClock()
        monkeypatch.setattr(cli, "time", clock)
        monkeypatch.setattr(cli, "_load_constraints", clock.taking(0.25, cli._load_constraints))
        code, out, _ = run(capsys, "--json", "sieve", "--case", "div13",
                           "--constraints", "constraints/demo_sieve.json")
        assert code == 0
        assert [(c["name"], c["ms"]) for c in json.loads(out)["checks"]] == [("sieve", 250)]

    def test_eliminate_rows_add_up_to_the_run(self, capsys, monkeypatch):
        """Loads and runs each take time on a fake clock; the rows' times
        add up to all of it, rounded up by under 1 ms a row."""
        import fermatkit.cli as cli

        clock = _FakeClock()
        monkeypatch.setattr(cli, "time", clock)
        for name, seconds in (("load_family", 0.0311), ("load_packets", 0.0207),
                              ("standard_eliminate", 0.0123), ("refined_eliminate", 0.0042)):
            monkeypatch.setattr(cli, name, clock.taking(seconds, getattr(cli, name)))
        code, out, _ = run(capsys, "--json", "eliminate",
                           "--family", "families/demo_sum_rule_cubic.json",
                           "--packets", "packets/demo_self_1_3.json", "--q", "5,11",
                           "--refined", "p=7")
        assert code == 0
        rows = json.loads(out)["checks"]
        total = sum(c["ms"] for c in rows)
        assert clock.spent * 1000 <= total < clock.spent * 1000 + len(rows), rows

    def test_sieve_lists_a_modular_family_among_inputs(self, capsys, tmp_path):
        import hashlib

        f = tmp_path / "one.json"
        f.write_text(json.dumps({"constraints": [{
            "q": 11, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
            "targets_from_curve": "curves/C_eq51.curve"}]}))
        code, out, _ = run(capsys, "--json", "sieve", "--case", "div13", "--constraints", str(f))
        assert code == 0
        inputs = json.loads(out)["inputs"]
        for path in (f, FIXTURES / "families" / "demo_sum_rule_sqrt13.json",
                     FIXTURES / "curves" / "C_eq51.curve"):
            assert inputs[path.name] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_sieve_proof_constraints_skip(self, capsys):
        code, out, _ = run(
            capsys, "sieve", "--case", "coprime13",
            "--constraints", "constraints/proof_sieve_small.json",
        )
        assert code == 0
        assert "skipped(external-data)" in out

    def test_check_invariants(self, capsys):
        code, out, _ = run(capsys, "--seed", "7", "check-invariants")
        assert code == 0
        assert "all randomized invariants hold" in out


# kind -> (the input file under a temporary directory, the command reading it)
_LOADERS = {
    "curve": ("bad.curve", lambda tmp, f: ["trace", str(f), "3"]),
    "family": ("bad.json", lambda tmp, f: [
        "eliminate", "--family", str(f), "--packets", "packets/demo_self_1_3.json", "--q", "5"]),
    "packet": ("bad.json", lambda tmp, f: [
        "eliminate", "--family", "families/demo_sum_rule_cubic.json", "--packets", str(f),
        "--q", "5"]),
    "constraint": ("bad.json", lambda tmp, f: [
        "sieve", "--case", "div13", "--constraints", str(f)]),
    "reference": ("invariants/humbert_rm8_reference.json", lambda tmp, f: [
        "--fixtures", str(tmp), "igusa", str(FIXTURES / "curves" / "C_eq51.curve"),
        "--reference"]),
}


class TestErrors:
    def test_unknown_order(self, capsys):
        code, _, err = run(capsys, "split", "Qsqrt13", "4")
        assert code == 2 and "not prime" in err

    def test_corrupted_curve_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.curve"
        bad.write_text("{broken json!")
        code, _, err = run(capsys, "trace", str(bad), "3")
        assert code == 2
        assert "line 1" in err

    def test_schema_error_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.curve"
        bad.write_text(json.dumps({"label": "x", "order": "Qsqrt13",
                                   "model": "weierstrass", "coefficients": {"a1": [0]}}))
        code, _, err = run(capsys, "trace", str(bad), "3")
        assert code == 2
        assert 'coefficients: expected an object with the key "a2", got {"a1": [0]}' in err

    @pytest.mark.parametrize("edit,where", [
        (lambda d: [d], "curve: expected an object, got [{"),
        (lambda d: d["coefficients"].update(a4=5) or d, "coefficients.a4: expected a list"),
        (lambda d: d["coefficients"].update(a4="abc") or d, "coefficients.a4: expected a list"),
        (lambda d: d.update(order=5) or d, "order: expected one of"),
        (lambda d: d["coefficients"].update(a4=[True]) or d,
         "coefficients.a4[0]: expected an integer, got true"),
    ], ids=["top-level-list", "int-coefficient", "string-coefficient", "int-order",
            "bool-coordinate"])
    def test_malformed_curve_files_name_their_position(self, capsys, tmp_path, edit, where):
        data = json.loads((FIXTURES / "curves" / "E_1_-1.curve").read_text())
        bad = tmp_path / "bad.curve"
        bad.write_text(json.dumps(edit(data)))
        code, _, err = run(capsys, "trace", str(bad), "3")
        assert code == 2
        assert err.startswith(f"error: {bad}: {where}")

    def test_bad_sieve_case(self, capsys):
        code, _, err = run(capsys, "sieve", "--case", "nope",
                           "--constraints", "constraints/demo_sieve.json")
        assert code == 2

    @pytest.mark.parametrize("q", ["11", 12, True, 13, None])
    def test_sieve_constraint_q_must_be_a_prime(self, capsys, tmp_path, q):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [
            {"q": 2, "mode": "parity-only"}, {"q": q, "mode": "unconstrained"}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert "constraints[1].q:" in err

    @pytest.mark.parametrize("data,where", [
        ([{"q": 2, "mode": "parity-only"}], "constraints:"),
        ({"constraints": [{"q": 2, "mode": "parity-only"}, 11]}, "constraints[1]:"),
        ({"constraints": [{"q": 11, "mode": "modular",
                           "family": "families/demo_sum_rule_sqrt13.json",
                           "targets": {"11.0": 3}}]},
         'constraints[0].targets["11.0"]:'),
    ], ids=["top-level-list", "entry-not-object", "targets-not-lists"])
    def test_malformed_constraints_name_their_position(self, capsys, tmp_path, data, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert where in err


    @pytest.fixture
    def no_sieve(self, monkeypatch):
        import fermatkit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the sieve started on a malformed constraint file")

        monkeypatch.setattr(cli, "sieve_case_bits", refuse)

    def test_constraint_q_above_the_cap(self, capsys, tmp_path, no_sieve):
        from fermatkit.cli import MAX_CONSTRAINT_Q

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [{"q": 1000003, "mode": "unconstrained"}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert "constraints[0].q:" in err and f"at most {MAX_CONSTRAINT_Q}" in err
        shipped = [json.loads(f.read_text()) for f in (FIXTURES / "constraints").glob("*.json")]
        assert max(c["q"] for d in shipped for c in d["constraints"]) <= MAX_CONSTRAINT_Q

    def test_constraint_json_error_names_the_file(self, capsys, tmp_path, no_sieve):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert str(bad) in err and "line 1" in err

    @pytest.mark.parametrize("entry,where", [
        ({"targets": {}}, 'constraints[0]: expected an object with the key "family"'),
        ({"family": "families/demo_sum_rule_sqrt13.json", "targets_from_curve": 5},
         "constraints[0].targets_from_curve:"),
    ], ids=["missing-family", "curve-not-a-path"])
    def test_constraint_file_paths_named(self, capsys, tmp_path, no_sieve, entry, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [{"q": 11, "mode": "modular", **entry}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert where in err

    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    @pytest.mark.parametrize("raw,message", [
        (b'{"q": \xff}', "not UTF-8 text (byte 6)"),
        (b'{"label": "x",\n', "invalid JSON at line 2 column 1"),
    ], ids=["not-utf8", "truncated"])
    def test_unreadable_files_name_themselves(self, capsys, tmp_path, kind, raw, message):
        """Every loader reads through `jsonfile.read_json`: bytes that are
        not UTF-8 and truncated JSON are refused with the file's path and
        one wording."""
        name, argv = _LOADERS[kind]
        bad = tmp_path / name
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(raw)
        code, _, err = run(capsys, *argv(tmp_path, bad))
        assert code == 2
        assert err == f"error: {bad}: {message}\n"

    def test_deepest_loadable_nesting_exits_2(self, capsys, tmp_path):
        """A value nested as deep as json.loads allows (the limit depends
        on the stack) is too deep to print a few frames further down: the
        refusal names the file and exits 2, it does not raise RecursionError."""
        from fermatkit.numberfield import known_orders

        bad = tmp_path / "bad.curve"
        for n in range(1000, 0, -1):
            bad.write_text('{"order": %s, "model": "sextic", "coefficients": {}}'
                           % ("[" * n + "]" * n))
            code, _, err = run(capsys, "trace", str(bad), "3")
            assert code == 2 and err.startswith(f"error: {bad}: ")
            if "invalid JSON" not in err:
                break
        orders = json.dumps(sorted(known_orders()))
        assert err == f"error: {bad}: order: expected one of {orders}, got a deeply nested value\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("invariants"), 'reference: expected an object with the key "invariants"'),
        (lambda d: d.update(invariants=[1]), "invariants: expected an object, got [1]"),
        (lambda d: d.update(order="Q"), "order: expected one of"),
        (lambda d: d.update(alpha=["1/2"]), "alpha must be integral"),
        (lambda d: d["invariants"]["I4"].__setitem__(0, 2.5),
         "invariants.I4[0]: expected a string, got 2.5"),
        (lambda d: d["invariants"]["I4"].__setitem__(0, True),
         "invariants.I4[0]: expected a string, got true"),
        (lambda d: d["invariants"]["I4"].__setitem__(0, "2.5"),
         'invariants.I4[0]: expected a ratio "n/d" of integers, d > 0, got "2.5"'),
        (lambda d: d["alpha"].__setitem__(1, "-60/0"),
         'alpha[1]: expected a ratio "n/d" of integers, d > 0, got "-60/0"'),
    ], ids=["no-invariants", "invariants-a-list", "unknown-order", "alpha-not-integral",
            "float-coordinate", "bool-coordinate", "decimal-string", "zero-denominator"])
    def test_malformed_reference_file_named(self, capsys, tmp_path, edit, message):
        import shutil

        (tmp_path / "invariants").mkdir()
        shutil.copytree(FIXTURES / "curves", tmp_path / "curves")
        ref = tmp_path / "invariants" / "humbert_rm8_reference.json"
        data = json.loads((FIXTURES / "invariants" / ref.name).read_text())
        edit(data)
        ref.write_text(json.dumps(data))
        code, _, err = run(capsys, "--fixtures", str(tmp_path), "igusa",
                           "curves/C_eq51.curve", "--reference")
        assert code == 2
        assert err.startswith(f"error: {ref}: {message}")

    @pytest.mark.parametrize("entries,message", [
        ([{"q": 3, "mode": "unconstrained"}],
         "constraints[0].q: 7 does not divide the residue group order at 3.0 (N = 27)"),
        ([{"q": 2, "mode": "parity-only"}, {"q": 5, "mode": "parity-only"}],
         "constraints[1].q: 7 does not divide the residue group order at 5.0 (N = 625)"),
        ([{"q": 11, "mode": "parity-only"}],
         "constraints[0]: parity-only is valid only at q = 2"),
        ([{"q": 11, "mode": "unconstrained"}, {"q": 11, "mode": "unconstrained"}],
         "constraints[1].q: 11 is constrained twice"),
        ([], "constraints: the sieve needs at least one constraint"),
        ([{"q": 11, "mode": "modular", "family": "no_such.json", "targets": {}}],
         "constraints[0].family: [Errno 2] No such file or directory"),
        ([{"q": 11, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
           "targets_from_curve": "curves/E_1_-1.curve"}],
         "constraints[0].targets_from_curve: expected a genus-2 curve file"),
        ([{"q": 11, "mode": "modular", "family": "families/demo_sum_rule_cubic.json",
           "targets_from_curve": "curves/C_eq51.curve"}],
         "constraints[0].targets_from_curve: the curve is over Qsqrt13, family "
         "demo-sum-rule-cubic over K13cubic"),
        ([{"q": 11, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
           "targets": {}}],
         "constraints[0]: q=11: no allowed residues mod 7 at 11.0"),
        ([{"q": 2, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
           "targets": {"2.0": [1]}}],
         "constraints[0]: auxiliary prime 2 is not admissible for demo-sum-rule-sqrt13"),
    ], ids=["q3", "q5", "parity-at-11", "repeated-q", "empty", "missing-family",
            "elliptic-targets", "orders-differ", "no-targets", "inadmissible-q"])
    def test_bad_sieve_entries_refused_at_load(self, capsys, tmp_path, no_sieve, entries,
                                               message):
        """A sieve prime q with a prime of Z[zeta_13] above it where 7 does
        not divide N - 1 is refused when the file loads, not by the
        sieve, as are the other entries the sieve could not run; each
        message names the file and the entry."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": entries}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: {message}")

    def test_external_slot_detected_by_type_not_by_message(self, capsys, tmp_path):
        bad = tmp_path / "external-data slot.json"
        bad.write_text(json.dumps({"label": "x"}))
        code, out, err = run(
            capsys, "eliminate", "--family", str(bad),
            "--packets", "packets/demo_self_1_3.json", "--q", "5",
        )
        assert code == 2 and "skipped" not in out
        assert 'family: expected an object with the key "order"' in err

    def test_missing_eigenvalue_prints_the_plain_message(self, capsys, monkeypatch):
        """The message itself, not KeyError's quoted repr, after the path of
        the packet file."""
        from fermatkit import elimination

        def refuse(*args):
            raise AssertionError("a point count ran before the eigenvalue lookup")

        # A_q looks up the packet's eigenvalues before it counts any model
        monkeypatch.setattr(elimination, "_reduced_trace", refuse)
        elimination._local_data.cache_clear()
        for packets, q, want in (
            ("packets/f11_fixture.json", "7", "packet f11 has no eigenvalue at 7.0"),
            ("packets/demo_self_1_3.json", "37", "packet demo-self-1-3 has no eigenvalue at 37.0"),
        ):
            code, _, err = run(
                capsys, "--fixtures", str(FIXTURES), "eliminate",
                "--family", "families/demo_sum_rule_cubic.json",
                "--packets", packets,
                "--q", q,
            )
            assert code == 2
            assert err == f"error: {FIXTURES / packets}: {want}\n"

    def test_family_rule_failure_names_the_family_file(self, capsys, tmp_path):
        """A family that loads can still contradict itself at a pair once
        the elimination runs; the message names the family file."""
        data = json.loads((FIXTURES / "families" / "demo_sum_rule_cubic.json").read_text())
        # constant rule: every pair "good", but the discriminant
        # -s(432 s + 1), s = a + b, vanishes mod 5 at s = 2
        data.update(label="liar-good", multiplicative_iff_zero=[[1]])
        fam = tmp_path / "liar.json"
        fam.write_text(json.dumps(data))
        code, out, err = run(
            capsys, "--fixtures", str(FIXTURES), "eliminate",
            "--family", str(fam), "--packets", "packets/demo_self_1_3.json", "--q", "5",
        )
        assert code == 2 and "A_q" not in out
        assert err == (
            f"error: {fam}: family liar-good: rule says good at q=5, pair (0, 2), "
            "but the discriminant vanishes at 5.0\n"
        )

    def test_inadmissible_q_names_the_family_file(self, capsys, monkeypatch):
        """An auxiliary prime the family's admissibility section excludes is
        refused before the packets load, with the family file's path."""
        from fermatkit import cli

        def refuse(*args):
            raise AssertionError("the packets loaded before the q list was checked")

        monkeypatch.setattr(cli, "load_packets", refuse)
        code, _, err = run(
            capsys, "--fixtures", str(FIXTURES), "eliminate",
            "--family", "families/demo_sum_rule_cubic.json",
            "--packets", "packets/demo_self_1_3.json", "--q", "5,13",
        )
        assert code == 2
        assert err == (
            "error: --q: auxiliary prime 13 is not admissible for the family in "
            f"{FIXTURES / 'families' / 'demo_sum_rule_cubic.json'}\n"
        )

    @pytest.mark.parametrize("extra", [[], ["--refined", "p=7"]], ids=["standard", "refined"])
    def test_packet_over_another_order_refused(self, capsys, monkeypatch, extra):
        """A K13cubic packet against a Q(sqrt13) family is refused before
        any model is counted: its "q.i" keys name primes of another order."""
        from fermatkit import elimination

        def refuse(*args):
            raise AssertionError("a point count ran for a packet over another order")

        monkeypatch.setattr(elimination, "_reduced_trace", refuse)
        elimination._local_data.cache_clear()
        code, out, err = run(
            capsys, "--fixtures", str(FIXTURES), "eliminate",
            "--family", "families/demo_sum_rule_sqrt13.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", "5", *extra,
        )
        assert code == 2
        assert "A_q" not in out
        assert err == (
            f"error: {FIXTURES / 'packets' / 'demo_self_1_3.json'}: packet "
            "demo-self-1-3.base_field: 'K13cubic' is not the order 'Qsqrt13' of the "
            f"family in {FIXTURES / 'families' / 'demo_sum_rule_sqrt13.json'}\n"
        )

    @pytest.mark.parametrize("qs,extra,where", [
        ("5,211", [], "--q: expected auxiliary primes at most 200, got 211"),
        ("5,x", [], "--q: expected comma-separated integers, got 'x'"),
        ("5", ["--refined", "p=abc"], "--refined: expected p=<prime>, got 'p=abc'"),
        ("5", ["--refined", "p=9"], "--refined: expected a prime exponent, got 9"),
    ], ids=["above-the-cap", "not-an-integer", "refined-not-an-integer", "refined-not-prime"])
    def test_eliminate_q_list_checked_before_any_work(self, capsys, monkeypatch, qs, extra, where):
        import fermatkit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("elimination started on a rejected --q or --refined")

        monkeypatch.setattr(cli, "standard_eliminate", refuse)
        monkeypatch.setattr(cli, "load_family", refuse)
        code, _, err = run(
            capsys, "eliminate",
            "--family", "families/demo_sum_rule_cubic.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", qs, *extra,
        )
        assert code == 2
        assert err == f"error: {where}\n"
        assert cli.MAX_CONSTRAINT_Q == 200

    @pytest.fixture
    def no_count(self, monkeypatch):
        from fermatkit import elimination

        def refuse(*args):
            raise AssertionError("a point count started over a capped residue field")

        monkeypatch.setattr(elimination, "_reduced_trace", refuse)
        elimination._local_data.cache_clear()

    def test_eliminate_residue_field_above_the_cap(self, capsys, no_count):
        """199 passes the cap on q but is inert in the cubic field: F_{199^3}
        is refused before any count, also the one at q = 5."""
        import fermatkit.cli as cli

        code, out, err = run(
            capsys, "eliminate",
            "--family", "families/demo_sum_rule_cubic.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", "5,199", "--refined", "p=7",
        )
        assert code == 2 and "A_q" not in out
        assert err == (
            f"error: --q: 199: the residue field at 199.0 has {199**3} elements, "
            f"more than {cli.MAX_RESIDUE_FIELD}\n"
        )
        assert 37**3 <= cli.MAX_RESIDUE_FIELD < 41**3

    def test_modular_constraint_residue_field_above_the_cap(self, capsys, tmp_path,
                                                            no_sieve, no_count):
        import fermatkit.cli as cli

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [
            {"q": 2, "mode": "parity-only"},
            {"q": 199, "mode": "modular", "family": "families/demo_sum_rule_cubic.json",
             "targets": {"199.0": [1]}}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert err == (
            f"error: {bad}: constraints[1].q: 199: the residue field at 199.0 has {199**3} "
            f"elements, more than {cli.MAX_RESIDUE_FIELD}\n"
        )

    def test_unconstrained_constraints_are_not_capped(self, capsys, tmp_path, monkeypatch):
        """Unconstrained constraints only exponentiate: 199, with residue
        fields F_{199^6} above it, still reaches the sieve."""
        import fermatkit.cli as cli

        seen = []
        monkeypatch.setattr(cli, "sieve_case_bits", lambda case, cons: seen.append(cons) or 0)
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"constraints": [{"q": 199, "mode": "unconstrained"}]}))
        code, _, _ = run(capsys, "sieve", "--case", "div13", "--constraints", str(ok))
        assert code == 0
        assert [(c.q, c.mode) for c in seen[0]] == [(199, "unconstrained")]

    def test_genus2_count_field_above_the_cap(self, capsys, tmp_path, monkeypatch, no_sieve):
        """197 passes the cap on q and, inert in Q(sqrt13), the family's
        residue-field cap (N(P) = 197^2); the targets curve's Euler factor
        would count over F_{197^4}. The file is refused before any count."""
        import fermatkit.cli as cli
        from fermatkit import curves

        def refuse(*args):
            raise AssertionError("a genus-2 point count started over a capped field")

        monkeypatch.setattr(curves, "g2_euler_factor", refuse)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [
            {"q": 197, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
             "targets_from_curve": "curves/C_eq51.curve"}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert err == (
            f"error: {bad}: constraints[0].targets_from_curve: the genus-2 point count at "
            f"197.0 runs over {197**4} elements, more than {cli.MAX_G2_COUNT_FIELD}\n"
        )
        assert 41**4 <= cli.MAX_G2_COUNT_FIELD < 47**4

    def test_genus2_targets_at_41_still_load(self, capsys, tmp_path, monkeypatch):
        """41 is inert in Q(sqrt13) too, and F_{41^4} is under the cap: the
        targets are counted and the constraint reaches the sieve."""
        import fermatkit.cli as cli

        seen = []
        monkeypatch.setattr(cli, "sieve_case_bits", lambda case, cons: seen.append(cons) or 0)
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"constraints": [
            {"q": 41, "mode": "modular", "family": "families/demo_sum_rule_sqrt13.json",
             "targets_from_curve": "curves/C_eq51.curve"}]}))
        code, _, _ = run(capsys, "sieve", "--case", "div13", "--constraints", str(ok))
        assert code == 0
        [c] = seen[0]
        assert (c.q, c.mode) == (41, "modular")
        assert [key for key, _ in c.targets] == ["41.0"]

    @pytest.mark.parametrize("argv,kind,key,size", [
        (["trace", "curves/C_eq51.curve", "3", "197"], "genus-2", "197.0", 197**4),
        (["euler", "curves/C_eq51.curve", "67"], "genus-2", "67.0", 67**4),
        (["trace", "curves/E_1_-1.curve", "5", "100003"], "elliptic", "100003.0", 100003**2),
    ], ids=["genus2-inert-197", "euler-inert-67", "elliptic-inert-100003"])
    def test_trace_count_field_above_the_cap(self, capsys, monkeypatch, argv, kind, key, size):
        """Each of these primes is inert in Q(sqrt13): the count would walk
        F_{N(P)^2} (genus 2) or F_{N(P)} (elliptic) past the cap. The
        command is refused before any count, also the one at the first q."""
        import fermatkit.cli as cli

        def refuse(*args):
            raise AssertionError("a point count started over a capped field")

        monkeypatch.setattr(cli, "g2_euler_factor", refuse)
        monkeypatch.setattr(cli, "ec_trace", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: the {kind} point count at {key} runs over {size} elements, "
                       f"more than {cli.MAX_G2_COUNT_FIELD}\n")

    def test_trace_split_prime_under_the_cap_is_admitted(self):
        """1000003 splits in Q(sqrt13): each elliptic count walks F_1000003,
        under the cap (the count itself, about 1 s, is not run here)."""
        import fermatkit.cli as cli
        from fermatkit.curves import load_curve
        from fermatkit.numberfield import split_prime

        E = load_curve(FIXTURES / "curves" / "E_1_-1.curve")
        for P in split_prime(E.order, 1000003):
            cli._check_count_field(E, P)  # N(P) = 1000003 is under the cap
        assert 1000003 <= cli.MAX_G2_COUNT_FIELD

    def test_check_congruence_bound_above_the_cap(self, capsys, monkeypatch):
        """A prime of norm N costs a genus-2 count over F_{N^2}, so the norm
        bound stops at sqrt(MAX_G2_COUNT_FIELD) = 2048."""
        import fermatkit.cli as cli

        def refuse(*args):
            raise AssertionError("the congruence check started past the cap")

        monkeypatch.setattr(cli, "congruence_failures", refuse)
        code, out, err = run(capsys, "check-congruence", "--bound", "2049")
        assert code == 2 and out == ""
        assert err == "error: --bound: expected a norm bound at most 2048, got 2049\n"
        assert 2048**2 == cli.MAX_G2_COUNT_FIELD
        monkeypatch.setattr(cli, "congruence_failures", lambda E, C, bound: (0, []))
        code, out, _ = run(capsys, "check-congruence", "--bound", "2048")
        assert code == 0 and "norm <= 2048" in out

    @pytest.mark.parametrize("cons,where", [
        ([1], "consistency:"),
        ({"curve": 5, "specialization": [1, 3]}, "consistency.curve:"),
        ({"specialization": [1, 3]}, 'consistency: expected an object with the key "curve"'),
        ({"curve": "../curves/E_1_-1.curve"},
         'consistency: expected an object with the key "specialization"'),
        ({"curve": "../curves/E_1_-1.curve", "specialization": [1, True]},
         "consistency.specialization[1]: expected an integer, got true"),
        ({"curve": str(FIXTURES / "curves" / "E_1_-1.curve"), "specialization": [0, 0]},
         "consistency.specialization: singular"),
        ({"curve": "no_such.curve", "specialization": [1, 3]},
         "consistency.curve: [Errno 2] No such file or directory"),
    ], ids=["list", "curve-not-a-path", "no-curve", "no-specialization", "bool-coordinate",
            "singular-member", "missing-curve-file"])
    def test_malformed_consistency_block_named(self, capsys, tmp_path, cons, where):
        data = json.loads((FIXTURES / "families" / "demo_sum_rule_cubic.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**data, "consistency": cons}))
        code, _, err = run(
            capsys, "eliminate", "--family", str(bad),
            "--packets", "packets/demo_self_1_3.json", "--q", "5",
        )
        assert code == 2
        assert err.startswith(f"error: {bad}: {where}")


class TestFullReport:
    FAST = "euler-rm-at-3,invariant-valuations-at-2,contradiction-checkers"

    def test_json_structure_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "--json", "full-report", "--only", self.FAST)
        code2, out2, _ = run(capsys, "--json", "full-report", "--only", self.FAST)
        assert code1 == code2 == 0

        def strip_ms(s):
            d = json.loads(s)
            for c in d["checks"]:
                c.pop("ms", None)
            return d

        assert strip_ms(out1) == strip_ms(out2)
        d = strip_ms(out1)
        assert [c["status"] for c in d["checks"]] == ["pass"] * 3
        assert d["inputs"]  # hashes recorded

    def test_external_items_skipped(self, capsys):
        names = "sieve-empty-divisible-13,sieve-empty-coprime-13,four-constituents-elimination"
        code, out, _ = run(capsys, "--json", "full-report", "--only", names)
        assert code == 0
        d = json.loads(out)
        assert [c["status"] for c in d["checks"]] == ["skipped(external-data)"] * 3

    def test_known_defect_reported_as_fail(self, capsys):
        code, out, _ = run(capsys, "full-report", "--only", "unit-classes-and-rank-stated")
        assert code == 1
        assert "not reproducible" in out

    def test_class_count_term_can_fail(self, monkeypatch):
        # with the stated rank granted, the check passes on 7^5 classes and
        # fails when the generators give another count
        import fermatkit.cli as cli

        def status():
            return run_checks(names=["unit-classes-and-rank-stated"]).checks[0].status

        monkeypatch.setattr(cli, "generator_independence_rank", lambda primes: 5)
        assert status() == "pass"
        gens = cli.cyclotomic_unit_generators()
        monkeypatch.setattr(cli, "cyclotomic_unit_generators", lambda: gens[:4])
        assert status() == "fail"

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "full-report", "--only", "bogus-check")
        assert code == 2

    def test_report_body_is_pinned(self):
        # the deterministic body of a default full report, compact and
        # key-sorted as perfbench hashes it; a change to any check's
        # status or detail must update this digest on purpose
        import hashlib

        body = run_checks().to_dict(with_timings=False)
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "cc8f56cb428a3c3451188b3cafd40216905f8f0a2f3847728594d72f518d663d"
        )

    def test_run_checks_api(self):
        rep = run_checks(names=["unit-rank-verified"])
        assert rep.checks[0].status == "pass"
        assert set(CHECK_NAMES) >= {"euler-rm-at-3", "sieve-soundness"}

    def test_fixture_curves_loaded_once_per_run(self, monkeypatch):
        import hashlib

        import fermatkit.cli as cli

        loaded = []

        def counting_load_curve(path):
            loaded.append(Path(path).name)
            return load_curve(path)

        load_curve = cli.load_curve
        monkeypatch.setattr(cli, "load_curve", counting_load_curve)
        names = ["euler-rm-at-3", "invariant-valuations-at-2", "igusa-proportionality",
                 "projective-frobenius-orders"]
        for _ in range(2):  # a fresh run parses again
            rep = run_checks(names=names)
            assert [c.status for c in rep.checks] == ["pass"] * 4
            for name in ("C_eq51.curve", "E_1_-1.curve"):
                digest = hashlib.sha256((FIXTURES / "curves" / name).read_bytes()).hexdigest()
                assert rep.inputs[name] == digest
        assert sorted(loaded) == ["C_eq51.curve", "C_eq51.curve", "E_1_-1.curve", "E_1_-1.curve"]


def _skew_f25(monkeypatch, method):
    """FFElement.<method> returns its result plus one on elements of F_25,
    the field of check-invariants' axiom loop, and is unchanged elsewhere."""
    from fermatkit.exactarith import FFElement

    real, add = getattr(FFElement, method), FFElement.__add__

    def skewed(self, *args):
        out = real(self, *args)
        return add(out, 1) if self.field.order == 25 else out

    monkeypatch.setattr(FFElement, method, skewed)


class TestChecksCanFail:
    """Every failure branch of a check, reached by breaking one layer: a
    check that cannot fail shows nothing."""

    @staticmethod
    def failed(name):
        (res,) = run_checks(names=[name]).checks
        assert res.status == "fail"
        return res.detail

    def test_a_crashing_check_is_a_failed_check(self, monkeypatch):
        import fermatkit.cli as cli

        def crash(ctx):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._CHECK_FNS, "euler-rm-at-3", crash)
        assert self.failed("euler-rm-at-3") == "RuntimeError: boom"

    def test_sieve_routes_disagree(self, monkeypatch):
        import fermatkit.cli as cli

        monkeypatch.setattr(cli, "sieve_case_exhaustive_bits", lambda case, cons: 0)
        assert "routes disagree at q=2 (coprime-13)" in self.failed("sieve-soundness")

    def test_sieve_planted_class_dies(self, monkeypatch):
        import fermatkit.cli as cli

        for name in ("sieve_case_bits", "sieve_case_exhaustive_bits"):
            monkeypatch.setattr(cli, name, lambda case, cons: 0)
        assert self.failed("sieve-soundness") == "; ".join(
            f"planted class {exps} died ({case})" for case, exps in (
                ("coprime-13", (0, 0, 0, 0, 0)), ("divisible-13", (0, 0, 0, 0, 0)),
                ("coprime-13", (1, 0, 0, 0, 0))))

    def test_sieve_not_monotone(self, monkeypatch):
        import fermatkit.cli as cli

        def bits(case, cons):  # q = 11 alone keeps nothing, with q = 2 added all
            return 0 if [c.q for c in cons] == [11] else (1 << UNIT_CLASS_COUNT) - 1

        for name in ("sieve_case_bits", "sieve_case_exhaustive_bits"):
            monkeypatch.setattr(cli, name, bits)
        assert self.failed("sieve-soundness") == "adding a constraint enlarged the survivor set"

    def test_self_packet_not_surviving_standard(self, monkeypatch):
        import fermatkit.cli as cli

        none_left = SimpleNamespace(standard=[SimpleNamespace(surviving=[])])
        monkeypatch.setattr(cli, "standard_eliminate", lambda *args: none_left)
        assert "did not survive standard" in self.failed("elimination-soundness")

    @pytest.mark.parametrize("broken,message", [
        (lambda pkt, kw: pkt.label.startswith("self-"), "was refinedly eliminated"),
        (lambda pkt, kw: pkt.label == "eisenstein-like" and "skip" not in kw,
         "Eisenstein-like packet was eliminated without a skip"),
        (lambda pkt, kw: "skip" in kw, "skip list was not honored"),
    ], ids=["self-packet", "eisenstein-like", "skip-list"])
    def test_refined_elimination_branches(self, monkeypatch, broken, message):
        import fermatkit.cli as cli

        real = cli.refined_eliminate
        eliminated = SimpleNamespace(refined=[SimpleNamespace(status="eliminated")])

        def refined(pkt, *args, **kwargs):
            return eliminated if broken(pkt, kwargs) else real(pkt, *args, **kwargs)

        monkeypatch.setattr(cli, "refined_eliminate", refined)
        detail = self.failed("elimination-soundness")
        assert all(message in part for part in detail.split("; "))

    def test_congruence_failure_rows(self, monkeypatch, capsys):
        import fermatkit.cli as cli

        real = cli.ec_trace
        monkeypatch.setattr(cli, "ec_trace", lambda E, P: real(E, P) + 1)
        assert "failures: [(" in self.failed("mod7-congruence-norm-200")
        code, out, _ = run(capsys, "check-congruence", "--bound", "30")
        assert code == 1
        assert "a mod 7 =" in out and "not in [" in out

    def test_congruence_skips_singular_reductions(self, monkeypatch, capsys):
        import fermatkit.cli as cli
        from fermatkit.curves import SingularReductionError

        def singular(C, P):
            raise SingularReductionError("singular")

        monkeypatch.setattr(cli, "g2_euler_factor", singular)
        code, out, _ = run(capsys, "check-congruence", "--bound", "30")
        assert code == 0
        assert "0 good primes of norm <= 30 checked; 0 failures" in out

    def test_projective_orders_degenerate_note(self, monkeypatch):
        # theta = sqrt2 in F_9 squares to 2 = 4 N mod 3 at N = 17 and 53
        import fermatkit.cli as cli

        monkeypatch.setattr(cli, "reduce_element", lambda x, P: P.theta_image)
        assert "(degenerate repeated-root case hit)" in self.failed("projective-frobenius-orders")

    @staticmethod
    def invariants(capsys):
        code, out, _ = run(capsys, "check-invariants")
        return code, out

    @pytest.mark.parametrize("method,message", [
        ("__add__", "field axioms"),
        ("inverse", "inverse"),
        ("__pow__", "Frobenius fixed point"),
    ])
    def test_invariants_field_branches(self, monkeypatch, capsys, method, message):
        _skew_f25(monkeypatch, method)
        code, out = self.invariants(capsys)
        assert code == 1 and f"randomized-invariants: {message} (" in out

    @pytest.mark.parametrize("name,wrap,message", [
        ("element_norm", lambda real: lambda x: real(x) + 1, "norm multiplicativity"),
        ("reduce_element", lambda real: lambda x, P: real(x, P) * 2,
         "reduction multiplicativity"),
        ("reduce_element", lambda real: lambda x, P: real(x, P) ** 2, "reduction additivity"),
        ("ec_invariants", lambda real: lambda E: real(E)[:2] + (real(E)[2] + 1,),
         "c4^3 - c6^2 = 1728 Delta"),
    ], ids=["norm", "reduction-mul", "reduction-add", "covariants"])
    def test_invariants_layer_branches(self, monkeypatch, capsys, name, wrap, message):
        import fermatkit.cli as cli

        monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
        code, out = self.invariants(capsys)
        assert code == 1 and f"randomized-invariants: {message} (" in out

    def test_invariants_character_branch(self, monkeypatch, capsys):
        import itertools

        import fermatkit.cli as cli

        values = itertools.count()
        monkeypatch.setattr(cli, "char_value", lambda t, x: next(values) % 7)
        code, out = self.invariants(capsys)
        assert code == 1
        assert "randomized-invariants: character invariance under 7th powers (" in out

    def test_invariants_skip_what_they_cannot_check(self, monkeypatch, capsys):
        """A curve the constructor refuses and an element with no character
        value are skipped, not checked."""
        import fermatkit.cli as cli

        def refuse(*args):
            raise ValueError("singular")

        def unreachable(*args):
            raise AssertionError("a skipped input was checked")

        calls = []
        monkeypatch.setattr(cli, "EllipticCurveNF", refuse)
        monkeypatch.setattr(cli, "ec_invariants", unreachable)
        monkeypatch.setattr(cli, "char_value", lambda t, x: calls.append(x))
        code, out = self.invariants(capsys)
        assert code == 0 and "all randomized invariants hold" in out
        assert len(calls) == 20


class TestFixtureOverride:
    def test_fixtures_dir_flag(self, capsys, tmp_path):
        import shutil

        (tmp_path / "curves").mkdir()
        shutil.copy(FIXTURES / "curves" / "E_1_-1.curve", tmp_path / "curves")
        code, out, _ = run(
            capsys, "--fixtures", str(tmp_path), "trace", "curves/E_1_-1.curve", "5"
        )
        assert code == 0 and "a = -2" in out

    @pytest.mark.parametrize("key,index,want", [
        ("alpha", 0, "weighted-projective equal: True; exact with alpha: False"),
        ("I2", 0, "weighted-projective equal: False; exact with alpha: False"),
        (None, None, "weighted-projective equal: True; exact with alpha: True"),
    ], ids=["wrong-alpha", "wrong-I2", "unchanged"])
    def test_igusa_reference_comparison(self, capsys, tmp_path, key, index, want):
        import shutil

        for sub in ("curves", "invariants"):
            (tmp_path / sub).mkdir()
        shutil.copy(FIXTURES / "curves" / "C_eq51.curve", tmp_path / "curves")
        data = json.loads((FIXTURES / "invariants" / "humbert_rm8_reference.json").read_text())
        if key == "alpha":
            data["alpha"][index] = "-47"
        elif key:
            data["invariants"][key][index] = "-38831/81"
        (tmp_path / "invariants" / "humbert_rm8_reference.json").write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "--fixtures", str(tmp_path), "igusa", "curves/C_eq51.curve", "--reference"
        )
        assert want in out
        assert code == (0 if key is None else 1)

    def test_seed_changes_are_reported(self, capsys):
        code, out, _ = run(capsys, "--seed", "99", "full-report", "--only", "euler-rm-at-3")
        assert code == 0 and "seed 99" in out


# ---------------------------------------------------------------------------
# the four loaders under random input

_FUZZ_FIXTURES = {
    "curve": ("curves/C_eq51.curve", "curves/E_1_-1.curve"),
    "packet": ("packets/demo_self_1_3.json", "packets/f11_fixture.json"),
    "family": ("families/demo_sum_rule_cubic.json", "families/demo_sum_rule_sqrt13.json"),
    "constraint": ("constraints/demo_sieve.json", "constraints/proof_sieve_small.json"),
}


def _words(value):
    """The keys and strings of a fixture's JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield k
            yield from _words(v)
    elif isinstance(value, list):
        for v in value:
            yield from _words(v)
    elif isinstance(value, str):
        yield value


def _slots(value, at=()):
    """Every position in a JSON value, as a path of keys and indices."""
    yield at
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield from _slots(v, at + (k,))


def _replaced(value, at, new):
    if not at:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[at[0]] = _replaced(value[at[0]], at[1:], new)
    return copy


def _position(kind, at):
    """A slot's position as the loader of `kind` names it."""
    pos = "packet" if kind == "packet" else ""
    for k in at:
        if isinstance(k, int):
            pos += f"[{k}]"
        elif "." in k or ":" in k:  # a prime key of a packet table
            pos += f"[{k!r}]"
        else:
            pos += f".{k}" if pos else k
    return pos


@pytest.mark.parametrize("kind", sorted(_FUZZ_FIXTURES))
def test_every_integer_slot_refuses_a_boolean(capsys, tmp_path, kind):
    """JSON `true` is never an integer: in each shipped fixture of each
    kind, every integer replaced in turn by `true` exits 2, and the
    message names the file and the slot."""
    name, argv = _LOADERS[kind]
    path = tmp_path / name
    tried = 0
    for rel in _FUZZ_FIXTURES[kind]:
        base = json.loads((FIXTURES / rel).read_text())
        for at in _slots(base):
            if type(functools.reduce(operator.getitem, at, base)) is not int:
                continue
            path.write_text(json.dumps(_replaced(base, at, True)))
            code, _, err = run(capsys, *argv(tmp_path, path))
            assert code == 2, (rel, at)
            assert err.startswith(f"error: {path}: {_position(kind, at)}: expected an integer"), err
            tried += 1
    assert tried >= 4


def _fuzz_strategies():
    """kind -> a strategy for the bytes of an input file of that kind."""
    shipped = {kind: [json.loads((FIXTURES / rel).read_text()) for rel in rels]
               for kind, rels in _FUZZ_FIXTURES.items()}
    words = sorted({w for vals in shipped.values() for v in vals for w in _words(v)}
                   | {rel for rels in _FUZZ_FIXTURES.values() for rel in rels})
    leaves = (st.none() | st.booleans() | st.integers(-50, 50)
              | st.floats(-50, 50, allow_nan=False) | st.text(max_size=6)
              | st.sampled_from(words))
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(words) | st.text(max_size=6), inner, max_size=4),
        max_leaves=12,
    )

    def mutated(kind):
        return st.sampled_from(shipped[kind]).flatmap(
            lambda base: st.tuples(st.sampled_from(list(_slots(base))), values).map(
                lambda slot: _replaced(base, *slot)))

    def content(kind):
        return st.one_of(
            st.binary(max_size=40),
            values.map(lambda v: json.dumps(v).encode()),
            mutated(kind).map(lambda v: json.dumps(v).encode()),
        )

    return content


@pytest.mark.parametrize("kind", sorted(_FUZZ_FIXTURES))
def test_loaders_fuzz(kind):
    """Random bytes, random JSON and shipped fixtures with one value
    replaced, written in place of a curve, packet, family or constraint
    file: `main` exits 0, 1 or 2 and never raises, and every exit-2
    message names the file, also when a file that loads fails later on
    what it defines (a family's rule at a pair, a packet missing an
    eigenvalue). Integers stay within 50, so no example starts a long
    count; each example has 5 s."""
    content, (name, argv) = _fuzz_strategies(), _LOADERS[kind]

    @settings(max_examples=100, deadline=5000, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=content(kind))
    def check(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(raw)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv(Path(tmp), path))
        assert code in (0, 1, 2)
        if code == 2:
            assert str(path) in err.getvalue(), err.getvalue()

    check()
