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

    @pytest.mark.parametrize("edit,where", [
        (lambda d: [d], "expected a JSON object, got list"),
        (lambda d: d["coefficients"].update(a4=5) or d, "coefficients.a4: expected a list"),
        (lambda d: d["coefficients"].update(a4="abc") or d, "coefficients.a4: expected a list"),
        (lambda d: d.update(order=5) or d, "order: expected one of"),
        (lambda d: d["coefficients"].update(a4=[True]) or d, "coefficients.a4: expected a list"),
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
        ({"targets": {}}, "constraints[0].family:"),
        ({"family": "families/demo_sum_rule_sqrt13.json", "targets_from_curve": 5},
         "constraints[0].targets_from_curve:"),
    ], ids=["missing-family", "curve-not-a-path"])
    def test_constraint_file_paths_named(self, capsys, tmp_path, no_sieve, entry, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"constraints": [{"q": 11, "mode": "modular", **entry}]}))
        code, _, err = run(capsys, "sieve", "--case", "div13", "--constraints", str(bad))
        assert code == 2
        assert where in err

    def test_external_slot_detected_by_type_not_by_message(self, capsys, tmp_path):
        bad = tmp_path / "external-data slot.json"
        bad.write_text(json.dumps({"label": "x"}))
        code, out, err = run(
            capsys, "eliminate", "--family", str(bad),
            "--packets", "packets/demo_self_1_3.json", "--q", "5",
        )
        assert code == 2 and "skipped" not in out
        assert "missing field" in err

    def test_missing_eigenvalue_prints_the_plain_message(self, capsys, monkeypatch):
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
                capsys, "eliminate",
                "--family", "families/demo_sum_rule_cubic.json",
                "--packets", packets,
                "--q", q,
            )
            assert code == 2
            assert err == f"error: {want}\n"

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
            capsys, "eliminate",
            "--family", "families/demo_sum_rule_sqrt13.json",
            "--packets", "packets/demo_self_1_3.json",
            "--q", "5", *extra,
        )
        assert code == 2
        assert "A_q" not in out
        assert err == (
            "error: packet demo-self-1-3.base_field: 'K13cubic' is not the order "
            "'Qsqrt13' of family demo-sum-rule-sqrt13\n"
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
            f"error: constraints[1].q: 199: the residue field at 199.0 has {199**3} "
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

    @pytest.mark.parametrize("cons,where", [
        ([1], "consistency:"),
        ({"curve": 5, "specialization": [1, 3]}, "consistency.curve:"),
        ({"specialization": [1, 3]}, "consistency.curve:"),
        ({"curve": "../curves/E_1_-1.curve"}, "consistency.specialization:"),
        ({"curve": "../curves/E_1_-1.curve", "specialization": [1, True]},
         "consistency.specialization:"),
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
