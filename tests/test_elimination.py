import json
import random
from math import gcd
from pathlib import Path

import pytest

from fermatkit.elimination import (
    ALL_PRIMES,
    Aq,
    Bq,
    FamilyConfigError,
    family_from_dict,
    load_family,
    prime_divisors_of_gcd,
    refined_eliminate,
    residue_pairs,
    standard_eliminate,
)
from fermatkit.exactarith import UniPoly, poly_norm
from fermatkit.newformdata import (
    NewformPacket,
    packet_from_curve,
    packet_from_dict,
    primes_above_in_Qf,
)
from fermatkit.numberfield import get_order, reduce_element, split_prime

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"

DEMO = {
    "label": "demo",
    "order": "K13cubic",
    "coefficients": {
        "a1": [[[1]]],
        "a6": [[[0], [1]], [[1]]],
    },
    "multiplicative_iff_zero": [[0, 1, 432], [1, 864], [432]],
    "admissibility": {"excluded_primes": [2, 3, 13], "residue_conditions": [{"mod": 13, "forbidden": [1]}]},
}


def demo_family(**over):
    d = json.loads(json.dumps(DEMO))
    d.update(over)
    return family_from_dict(d)


def raw_packet(base, h, eigenvalues, label="raw"):
    return NewformPacket(
        label=label,
        base_field=base,
        level_norm=1,
        level_primes=(),
        coeff_poly=UniPoly(h),
        eigenvalues={k: tuple(v) for k, v in eigenvalues.items()},
        residue_maps={},
        provenance="in-memory test packet",
    )


class TestFamilyConfig:
    def test_load_fixture(self):
        fam = load_family(FIXTURES / "families" / "demo_sum_rule_cubic.json")
        assert fam.label == "demo-sum-rule-cubic"
        assert fam.is_admissible(5) and fam.is_admissible(11)
        assert not fam.is_admissible(2) and not fam.is_admissible(13)
        # 53 = 1 mod 13 is forbidden by the residue condition
        assert not fam.is_admissible(53)

    def test_external_slot_refused(self):
        with pytest.raises(FamilyConfigError, match="external-data slot"):
            load_family(FIXTURES / "families" / "frey_sqrt13.json")

    def test_specialization(self):
        fam = demo_family()
        E = fam.specialize(2, 5)
        assert E.a6.coords == (7, 0, 0)
        assert E.a1.coords == (1, 0, 0)

    def test_reduction_rule(self):
        fam = demo_family()
        assert fam.reduction_case(5, 2, 3) == "multiplicative"  # 5 | a+b
        assert fam.reduction_case(5, 1, 3) == "good"
        # the rule also catches 432(a+b) + 1 = 0 mod q: at q = 5 that is
        # a + b = 2 (432*2 + 1 = 865 = 5*173)
        assert fam.reduction_case(5, 1, 1) == "multiplicative"

    def test_inconsistent_rule_detected(self):
        # claim "multiplicative iff q | a" while the discriminant disagrees
        bad = demo_family()
        bad = family_from_dict(
            dict(DEMO, label="bad", multiplicative_iff_zero=[[0, 1]])
        )
        with pytest.raises(FamilyConfigError):
            Aq(raw_packet("K13cubic", [0, 1], {}), bad, 5)

    def test_zero_rule_rejected(self):
        with pytest.raises(FamilyConfigError, match="nonzero"):
            family_from_dict(dict(DEMO, multiplicative_iff_zero=[]))

    def test_inadmissible_q_rejected(self):
        fam = demo_family()
        with pytest.raises(ValueError, match="not admissible"):
            Aq(raw_packet("K13cubic", [0, 1], {}), fam, 13)

    @pytest.mark.parametrize("over,where", [
        ({"coefficients": {"a1": [1]}}, r"coefficients\.a1\[0\]:"),
        ({"coefficients": {"a6": [[[0], 1]]}}, r"coefficients\.a6\[0\]\[1\]:"),
        ({"coefficients": {"a1": [[["1"]]]}}, r"coefficients\.a1\[0\]\[0\]:"),
        ({"coefficients": {"a1": [[[1, 0, 0, 0]]]}}, r"coefficients\.a1\[0\]\[0\]: more than 3"),
        ({"coefficients": [1]}, r"coefficients:"),
        ({"multiplicative_iff_zero": [1, 2]}, r"multiplicative_iff_zero\[0\]:"),
        ({"multiplicative_iff_zero": 5}, r"multiplicative_iff_zero:"),
        ({"admissibility": {"residue_conditions": [5]}}, r"admissibility:"),
        ({"admissibility": [2, 3]}, r"admissibility:"),
    ])
    def test_malformed_shapes_name_their_position(self, over, where):
        with pytest.raises(FamilyConfigError, match=where):
            demo_family(**over)

    def test_non_object_config_rejected(self):
        with pytest.raises(FamilyConfigError, match="expected an object"):
            family_from_dict([DEMO])

    def test_malformed_family_exits_2_from_the_cli(self, tmp_path, capsys):
        from fermatkit.cli import main

        bad = tmp_path / "fam.json"
        bad.write_text(json.dumps(dict(DEMO, coefficients={"a1": [1]})))
        code = main(["eliminate", "--family", str(bad),
                     "--packets", "packets/demo_self_1_3.json", "--q", "5"])
        assert code == 2
        assert "coefficients.a1[0]:" in capsys.readouterr().err


class TestBq:
    def test_self_pair_gives_zero(self):
        fam = demo_family()
        member = fam.specialize(1, 3)
        pkt = packet_from_curve(member, "self", 13)
        assert Bq(fam, (1, 3), pkt, 5) == 0

    def test_norm_gcd_semantics(self):
        # base field Qsqrt13 (two primes above 3), coefficient field with
        # norms 6 and -10 available: h = x^2 - 10, d1 = 4 + w, d2 = w
        fam = family_from_dict(
            dict(DEMO, label="sq13", order="Qsqrt13",
                 admissibility={"excluded_primes": [2, 13], "residue_conditions": []})
        )
        pair = (1, 1)
        assert fam.reduction_case(3, *pair) == "good"
        primes = split_prime(get_order("Qsqrt13"), 3)
        from fermatkit.curves import ec_trace

        member = fam.specialize(*pair)
        t = {P.key: ec_trace(member, P) for P in primes}
        h = [-10, 0, 1]
        eig = {"3.0": [t["3.0"] - 4, -1], "3.1": [t["3.1"], -1]}
        pkt = raw_packet("Qsqrt13", h, eig)
        assert poly_norm(UniPoly(h), UniPoly([4, 1])) == 6
        assert poly_norm(UniPoly(h), UniPoly([0, 1])) == -10
        assert Bq(fam, pair, pkt, 3) == 2

    def test_multiplicative_pair_rejected(self):
        fam = demo_family()
        pkt = raw_packet("K13cubic", [0, 1], {})
        with pytest.raises(ValueError, match="multiplicative"):
            Bq(fam, (2, 3), pkt, 5)

    def test_missing_eigenvalue(self):
        from fermatkit.newformdata import MissingEigenvalueError

        fam = demo_family()
        pkt = raw_packet("K13cubic", [0, 1], {})
        with pytest.raises(MissingEigenvalueError):
            Bq(fam, (1, 3), pkt, 5)


class TestAq:
    def test_level_raising_zero(self):
        fam = demo_family()
        # eigenvalue N + 1 at one prime above 5 kills the second product
        eig = {P.key: [P.norm + 1] for P in split_prime(fam.order, 5)}
        pkt = raw_packet("K13cubic", [0, 1], eig)
        assert Aq(pkt, fam, 5) == 0

    def test_self_packet_zero_everywhere(self):
        fam = demo_family()
        member = fam.specialize(1, 3)
        pkt = packet_from_curve(member, "self", 13)
        assert Aq(pkt, fam, 5) == 0 and Aq(pkt, fam, 11) == 0

    def test_brute_force_recomputation(self):
        """Oracle: recompute A_5 from raw per-y point counts."""
        fam = demo_family()
        eig = {"5.0": [1], "5.1": [0], "5.2": [-2]}
        pkt = raw_packet("K13cubic", [0, 1], eig)
        got = Aq(pkt, fam, 5)

        order = fam.order
        primes = split_prime(order, 5)
        acc = 5
        for pair in residue_pairs(5):
            s = pair[0] + pair[1]
            if (s * (432 * s + 1)) % 5 == 0:
                continue  # multiplicative pair
            E = fam.specialize(*pair)
            g = 0
            for P in primes:
                F = P.residue_field
                red = [reduce_element(v, P) for v in (E.a1, E.a2, E.a3, E.a4, E.a6)]
                count = 1
                for x in F.elements():
                    rhs = ((x + red[1]) * x + red[3]) * x + red[4]
                    for y in F.elements():
                        if y * y + red[0] * x * y + red[2] * y == rhs:
                            count += 1
                trace = P.norm + 1 - count
                g = gcd(g, abs(trace - eig[P.key][0]))
            acc *= g
        for P in primes:
            acc *= abs(eig[P.key][0] ** 2 - (P.norm + 1) ** 2)
        assert got == abs(acc) and got != 0


class TestStandardElimination:
    def test_divisor_sets(self):
        assert prime_divisors_of_gcd(14) == (2, 7)
        assert prime_divisors_of_gcd(5) == (5,)
        assert prime_divisors_of_gcd(gcd(10, 15)) == (5,)
        assert prime_divisors_of_gcd(1) == ()

    def test_self_packet_survives_all(self):
        fam = demo_family()
        pkt = packet_from_curve(fam.specialize(1, 3), "self-1-3", 13)
        rep = standard_eliminate([pkt], fam, [5, 11])
        assert rep.standard[0].surviving == ALL_PRIMES
        assert rep.standard[0].overall_gcd == 0

    def test_monotone_in_q_list(self):
        fam = demo_family()
        eig = {"5.0": [1], "5.1": [0], "5.2": [-2], "11.0": [4]}
        pkt = raw_packet("K13cubic", [0, 1], eig)
        one = standard_eliminate([pkt], fam, [5]).standard[0]
        both = standard_eliminate([pkt], fam, [5, 11]).standard[0]
        surv_one = set(one.surviving) if one.surviving != ALL_PRIMES else None
        surv_both = set(both.surviving) if both.surviving != ALL_PRIMES else None
        if surv_one is None:
            assert True  # all primes is a superset of anything
        else:
            assert surv_both is not None and surv_both <= surv_one

    def test_empty_q_list(self):
        fam = demo_family()
        with pytest.raises(ValueError):
            standard_eliminate([], fam, [])

    def test_report_sorted_and_serializable(self):
        fam = demo_family()
        p1 = packet_from_curve(fam.specialize(1, 3), "zz", 13)
        p2 = packet_from_curve(fam.specialize(2, 2), "aa", 13)
        rep = standard_eliminate([p1, p2], fam, [5])
        assert [r.label for r in rep.standard] == ["aa", "zz"]
        d = rep.as_dict()
        assert json.dumps(d)


class TestRefinedElimination:
    def test_self_never_eliminated(self):
        fam = demo_family()
        pkt = packet_from_curve(fam.specialize(1, 3), "self", 13)
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert all(r.status == "not-eliminated" for r in rep.refined)

    def test_eisenstein_survives_unless_skipped(self):
        fam = demo_family()
        eig = {}
        for q in (5, 11):
            for P in split_prime(fam.order, q):
                eig[P.key] = [(P.norm + 1) % 7]
        pkt = raw_packet("K13cubic", [0, 1], eig, label="eisenstein")
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert all(r.status == "not-eliminated" for r in rep.refined)
        rep2 = refined_eliminate(pkt, fam, 7, [5, 11], skip=["7:0"])
        assert all(r.status == "skipped" for r in rep2.refined)

    def test_perturbed_packet_eliminated_with_witness_5(self):
        """Search a residue assignment at the primes above 5 that breaks
        both congruences for every pair, then check the engine agrees."""
        fam = demo_family()
        primes = split_prime(fam.order, 5)
        from fermatkit.elimination import _family_local_data

        data = _family_local_data(fam, 5)
        lr = {(P.norm + 1) % 7 for P in primes} | {(-(P.norm + 1)) % 7 for P in primes}
        found = None
        import itertools

        for cand in itertools.product(range(7), repeat=3):
            if any(c in lr for c in cand):
                continue  # the multiplicative congruence would hold
            ok = True
            for pair, case in data.cases.items():
                if case != "good":
                    continue
                if all(
                    data.traces[pair][P.key] % 7 == cand[i]
                    for i, P in enumerate(primes)
                ):
                    ok = False  # this pair would satisfy congruence (i)
                    break
            if ok:
                found = cand
                break
        assert found is not None, "no eliminating residue assignment exists"
        eig = {P.key: [found[i] if found[i] <= 3 else found[i] - 7]
               for i, P in enumerate(primes)}
        pkt = raw_packet("K13cubic", [0, 1], eig, label="perturbed")
        rep = refined_eliminate(pkt, fam, 7, [5])
        assert [ (r.status, r.witness_q) for r in rep.refined ] == [("eliminated", 5)]

    def test_skip_ramified(self):
        fam = demo_family()
        eig = {P.key: [0] for q in (5, 11) for P in split_prime(fam.order, q)}
        pkt = NewformPacket(
            label="ram",
            base_field="K13cubic",
            level_norm=1,
            level_primes=(),
            coeff_poly=UniPoly([-7, 0, 1]),  # 7 ramifies: x^2 - 7
            eigenvalues={k: (v[0], 0) for k, v in eig.items()},
            residue_maps={},
            provenance="test",
        )
        rep = refined_eliminate(pkt, fam, 7, [5], skip_ramified=True)
        assert [r.status for r in rep.refined] == ["skipped"]
        assert rep.refined[0].reason.startswith("ramified")

    def test_refined_subset_of_standard(self):
        """Anything standard elimination kills at p, refined also kills."""
        fam = demo_family()
        rng = random.Random(31)
        exercised = 0
        for _ in range(4):
            eig = {}
            for q in (5, 11):
                for P in split_prime(fam.order, q):
                    eig[P.key] = [rng.randrange(-3, 4)]
            pkt = raw_packet("K13cubic", [0, 1], eig, label="rnd")
            std = standard_eliminate([pkt], fam, [5, 11]).standard[0]
            eliminated_std = (
                std.surviving != ALL_PRIMES and 7 not in std.surviving
            )
            if eliminated_std:
                exercised += 1
                ref = refined_eliminate(pkt, fam, 7, [5, 11])
                assert all(r.status == "eliminated" for r in ref.refined)
        assert exercised >= 1


class TestAqDivisibility:
    def test_p_divides_qBq_when_congruence_holds(self):
        """When the Frobenius congruence holds mod p at every prime above
        q for some pair, p divides q * Bq for that pair."""
        fam = demo_family()
        p = 7
        pair = (1, 3)
        primes = split_prime(fam.order, 5)
        from fermatkit.curves import ec_trace

        member = fam.specialize(*pair)
        traces = {P.key: ec_trace(member, P) for P in primes}
        # eigenvalues congruent to the member traces mod 7, but not equal
        eig = {k: [t + 7] for k, t in traces.items()}
        pkt = raw_packet("K13cubic", [0, 1], eig)
        b = Bq(fam, pair, pkt, 5)
        assert b != 0
        assert (5 * b) % p == 0


class TestConsistencyFixture:
    def test_matching_specialization_accepted(self, tmp_path):
        d = json.loads(json.dumps(DEMO))
        fam = family_from_dict(d)
        member = fam.specialize(1, 3)
        curve_file = tmp_path / "member.curve"
        curve_file.write_text(json.dumps({
            "label": "member", "order": "K13cubic", "model": "weierstrass",
            "coefficients": {
                "a1": list(member.a1.coords), "a2": list(member.a2.coords),
                "a3": list(member.a3.coords), "a4": list(member.a4.coords),
                "a6": list(member.a6.coords),
            },
        }))
        d["consistency"] = {"specialization": [1, 3], "curve": str(curve_file)}
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(d))
        assert load_family(fam_file).label == "demo"

    def test_mismatch_rejected(self, tmp_path):
        d = json.loads(json.dumps(DEMO))
        fam = family_from_dict(d)
        other = fam.specialize(2, 5)  # different member, different j
        curve_file = tmp_path / "other.curve"
        curve_file.write_text(json.dumps({
            "label": "other", "order": "K13cubic", "model": "weierstrass",
            "coefficients": {
                "a1": list(other.a1.coords), "a2": list(other.a2.coords),
                "a3": list(other.a3.coords), "a4": list(other.a4.coords),
                "a6": list(other.a6.coords),
            },
        }))
        d["consistency"] = {"specialization": [1, 3], "curve": str(curve_file)}
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(d))
        with pytest.raises(FamilyConfigError, match="j-invariants differ"):
            load_family(fam_file)
