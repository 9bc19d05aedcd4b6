import json
from pathlib import Path

import pytest

from fermatkit.cli import CHECK_NAMES, main, run_checks

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert "missing" in err

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

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "full-report", "--only", "bogus-check")
        assert code == 2

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


class TestFixtureOverride:
    def test_fixtures_dir_flag(self, capsys, tmp_path):
        import shutil

        (tmp_path / "curves").mkdir()
        shutil.copy(FIXTURES / "curves" / "E_1_-1.curve", tmp_path / "curves")
        code, out, _ = run(
            capsys, "--fixtures", str(tmp_path), "trace", "curves/E_1_-1.curve", "5"
        )
        assert code == 0 and "a = -2" in out

    def test_seed_changes_are_reported(self, capsys):
        code, out, _ = run(capsys, "--seed", "99", "full-report", "--only", "euler-rm-at-3")
        assert code == 0 and "seed 99" in out
