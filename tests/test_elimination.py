import json
import random
import re
from math import gcd
from pathlib import Path

import pytest

from fermatkit.elimination import (
    ALL_PRIMES,
    Aq,
    Bq,
    ExternalDataSlotError,
    FamilyConfigError,
    family_from_dict,
    load_family,
    refined_eliminate,
    residue_pairs,
    standard_eliminate,
)
from fermatkit.exactarith import FiniteField, UniPoly, factorize, is_prime, poly_norm
from fermatkit.newformdata import (
    NewformPacket,
    load_packets,
    packet_from_curve,
    packet_from_dict,
    primes_above_in_Qf,
)
from fermatkit.numberfield import get_order, reduce_element, split_prime
from test_curves import E_FIX, brute_count_weierstrass, naive_count_weierstrass

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

    def test_external_slot_keeps_its_class_through_the_path_prefix(self):
        path = FIXTURES / "families" / "frey_sqrt13.json"
        with pytest.raises(ExternalDataSlotError, match=rf"^{re.escape(str(path))}: family "):
            load_family(path)
        with pytest.raises(ExternalDataSlotError):
            family_from_dict(json.loads(path.read_text()))

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
        # A_q looks up every eigenvalue before it builds the local data
        eig = {P.key: [0] for P in split_prime(bad.order, 5)}
        with pytest.raises(FamilyConfigError):
            Aq(raw_packet("K13cubic", [0, 1], eig), bad, 5)

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
        ({"coefficients": {"a1": [[["1"]]]}},
         r'coefficients\.a1\[0\]\[0\]\[0\]: expected an integer, got "1"'),
        ({"coefficients": {"a1": [[[1, 0, 0, 0]]]}},
         r"coefficients\.a1\[0\]\[0\]: expected a list of at most 3 integers, got \[1, 0, 0, 0\]"),
        ({"coefficients": [1]}, r"coefficients:"),
        ({"multiplicative_iff_zero": [1, 2]}, r"multiplicative_iff_zero\[0\]:"),
        ({"multiplicative_iff_zero": 5}, r"multiplicative_iff_zero:"),
        ({"admissibility": {"residue_conditions": [5]}},
         r"admissibility\.residue_conditions\[0\]: expected an object, got 5"),
        ({"admissibility": [2, 3]}, r"admissibility:"),
    ])
    def test_malformed_shapes_name_their_position(self, over, where):
        with pytest.raises(FamilyConfigError, match=where):
            demo_family(**over)

    @pytest.mark.parametrize("adm,where", [
        ({"excluded_primes": "23"},
         'admissibility.excluded_primes: expected a list of integers, got "23"'),
        ({"excluded_primes": [2.7, 13]}, "admissibility.excluded_primes[0]: expected an integer, got 2.7"),
        ({"excluded_primes": [True, 13]}, "admissibility.excluded_primes[0]: expected an integer, got true"),
        ({"residue_conditions": [{"mod": 13, "forbidden": "12"}]},
         'admissibility.residue_conditions[0].forbidden: expected a list of integers, got "12"'),
        ({"residue_conditions": [{"mod": 13, "forbidden": [1]}, {"mod": 7, "forbidden": [False]}]},
         "admissibility.residue_conditions[1].forbidden[0]: expected an integer, got false"),
        ({"residue_conditions": [{"mod": True, "forbidden": [0]}]},
         "admissibility.residue_conditions[0].mod: expected an integer >= 1, got true"),
        ({"residue_conditions": [{"mod": 13.0, "forbidden": [1]}]},
         "admissibility.residue_conditions[0].mod: expected an integer >= 1, got 13.0"),
    ], ids=["excluded-string", "excluded-float", "excluded-bool", "forbidden-string",
            "forbidden-bool", "mod-bool", "mod-float"])
    def test_admissibility_values_are_not_coerced(self, adm, where):
        with pytest.raises(FamilyConfigError) as exc:
            demo_family(admissibility=adm)
        assert str(exc.value).startswith(where)

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

    @pytest.mark.parametrize("over,where", [
        ({"admissibility": {"residue_conditions": [{"mod": 0, "forbidden": [1]}]}},
         "admissibility.residue_conditions[0].mod: expected an integer >= 1, got 0"),
        ({"label": [1]}, "label: expected a string, got [1]"),
        ({"order": "nope"}, "order: expected one of ["),
        ({"coefficients": {"a1": [[[1]]], "a5": [[[1]]]}},
         'coefficients: expected one of ["a1", "a2", "a3", "a4", "a6"], got "a5"'),
    ], ids=["mod-zero", "list-label", "unknown-order", "unknown-coefficient"])
    def test_family_files_that_crashed_exit_2(self, tmp_path, capsys, over, where):
        from fermatkit.cli import main

        bad = tmp_path / "fam.json"
        bad.write_text(json.dumps(dict(DEMO, **over)))
        with pytest.raises(FamilyConfigError) as exc:
            load_family(bad)
        assert str(exc.value).startswith(f"{bad}: ") and where in str(exc.value)
        code = main(["eliminate", "--family", str(bad),
                     "--packets", "packets/demo_self_1_3.json", "--q", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and where in err


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

    def test_packet_over_another_order_refused_before_counting(self, monkeypatch):
        """A K13cubic packet against the Q(sqrt13) demo family is refused
        on its base field, with no point count and no local data."""
        from fermatkit import elimination

        calls = []
        plain = elimination._reduced_trace
        monkeypatch.setattr(elimination, "_reduced_trace",
                            lambda a, field: calls.append(a) or plain(a, field))
        elimination._local_data.cache_clear()
        fam = load_family(FIXTURES / "families" / "demo_sum_rule_sqrt13.json")
        (pkt,) = load_packets(FIXTURES / "packets" / "demo_self_1_3.json")
        assert pkt.base_field == "K13cubic"
        with pytest.raises(ValueError, match="is not the order 'Qsqrt13'"):
            Bq(fam, (1, 3), pkt, 5)
        assert calls == []
        assert elimination._local_data.cache_info().currsize == 0


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
        # standard_eliminate's surviving exponents: the sorted keys of factorize
        assert sorted(factorize(14)) == [2, 7]
        assert sorted(factorize(5)) == [5]
        assert sorted(factorize(gcd(10, 15))) == [5]
        assert sorted(factorize(1)) == []

    def test_self_packet_survives_all(self):
        fam = demo_family()
        pkt = packet_from_curve(fam.specialize(1, 3), "self-1-3", 13)
        verdict = standard_eliminate(pkt, fam, [5, 11])
        assert verdict.surviving == ALL_PRIMES
        assert verdict.overall_gcd == 0

    def test_monotone_in_q_list(self):
        fam = demo_family()
        eig = {"5.0": [1], "5.1": [0], "5.2": [-2], "11.0": [4]}
        pkt = raw_packet("K13cubic", [0, 1], eig)
        one = standard_eliminate(pkt, fam, [5])
        both = standard_eliminate(pkt, fam, [5, 11])
        surv_one = set(one.surviving) if one.surviving != ALL_PRIMES else None
        surv_both = set(both.surviving) if both.surviving != ALL_PRIMES else None
        if surv_one is None:
            assert True  # all primes is a superset of anything
        else:
            assert surv_both is not None and surv_both <= surv_one

    def test_empty_q_list(self):
        fam = demo_family()
        pkt = packet_from_curve(fam.specialize(1, 3), "self-1-3", 13)
        with pytest.raises(ValueError, match="q_list must be nonempty"):
            standard_eliminate(pkt, fam, [])


class TestRefinedElimination:
    def test_self_never_eliminated(self):
        fam = demo_family()
        pkt = packet_from_curve(fam.specialize(1, 3), "self", 13)
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert all(r.status == "not-eliminated" for r in rep)

    def test_eisenstein_survives_unless_skipped(self):
        fam = demo_family()
        eig = {}
        for q in (5, 11):
            for P in split_prime(fam.order, q):
                eig[P.key] = [(P.norm + 1) % 7]
        pkt = raw_packet("K13cubic", [0, 1], eig, label="eisenstein")
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert all(r.status == "not-eliminated" for r in rep)
        rep2 = refined_eliminate(pkt, fam, 7, [5, 11], skip=["7:0"])
        assert all(r.status == "skipped" for r in rep2)

    def test_perturbed_packet_eliminated_with_witness_5(self):
        """Search a residue assignment at the primes above 5 that breaks
        both congruences for every pair, then check the engine agrees."""
        fam = demo_family()
        primes = split_prime(fam.order, 5)
        from fermatkit.elimination import _local_data

        data = _local_data(fam, 5)
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
        assert [ (r.status, r.witness_q) for r in rep ] == [("eliminated", 5)]

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
        assert [r.status for r in rep] == ["skipped"]
        assert rep[0].reason.startswith("ramified")

    def test_packet_over_another_order_refused(self):
        """Aq, Bq and refined elimination refuse a packet whose base field
        is not the family's order, naming both orders."""
        fam = demo_family()
        eig = {P.key: [0] for P in split_prime(get_order("Qsqrt13"), 5)}
        pkt = raw_packet("Qsqrt13", [0, 1], eig, label="other")
        want = "packet other.base_field: 'Qsqrt13' is not the order 'K13cubic' of family demo"
        for call in (
            lambda: Aq(pkt, fam, 5),
            lambda: Bq(fam, (1, 3), pkt, 5),
            lambda: refined_eliminate(pkt, fam, 7, [5]),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == want

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
            std = standard_eliminate(pkt, fam, [5, 11])
            eliminated_std = (
                std.surviving != ALL_PRIMES and 7 not in std.surviving
            )
            if eliminated_std:
                exercised += 1
                ref = refined_eliminate(pkt, fam, 7, [5, 11])
                assert all(r.status == "eliminated" for r in ref)
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


def _write_family(tmp_path, d, E, spec):
    """d with a consistency block naming the curve E (written beside it)
    at the specialization `spec`; returns the family file."""
    curve_file = tmp_path / "member.curve"
    curve_file.write_text(json.dumps({
        "label": "member", "order": E.order.label, "model": "weierstrass",
        "coefficients": {name: list(getattr(E, name).coords)
                         for name in ("a1", "a2", "a3", "a4", "a6")},
    }))
    fam_file = tmp_path / "fam.json"
    fam_file.write_text(json.dumps({**d, "consistency": {"specialization": spec,
                                                         "curve": str(curve_file)}}))
    return fam_file


# y^2 = x^3 - x + (a + b): short, so a quadratic twist is (a4 d^2, a6 d^3)
SHORT = {**DEMO, "label": "short",
         "coefficients": {"a4": [[[-1]]], "a6": DEMO["coefficients"]["a6"]}}


class TestConsistencyFixture:
    def test_matching_specialization_accepted(self, tmp_path):
        member = family_from_dict(DEMO).specialize(1, 3)
        assert load_family(_write_family(tmp_path, DEMO, member, [1, 3])).label == "demo"

    def test_mismatch_rejected(self, tmp_path):
        other = family_from_dict(DEMO).specialize(2, 5)  # different member, different j
        with pytest.raises(FamilyConfigError, match="j-invariants differ"):
            load_family(_write_family(tmp_path, DEMO, other, [1, 3]))

    @pytest.mark.parametrize("fixture", ["C_eq51.curve", "E_1_-1.curve"])
    def test_curve_of_another_kind_or_order_refused(self, tmp_path, fixture):
        # a sextic model, and a Weierstrass model over Q(sqrt13), for a
        # family over the cubic field
        curve_file = tmp_path / fixture
        curve_file.write_text((FIXTURES / "curves" / fixture).read_text())
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps({**DEMO, "consistency": {"specialization": [1, 3],
                                                                "curve": fixture}}))
        with pytest.raises(FamilyConfigError, match="consistency.curve: expected a Weierstrass "
                                                    "model over K13cubic"):
            load_family(fam_file)

    def test_untwisted_short_member_loads(self, tmp_path):
        member = family_from_dict(SHORT).specialize(1, 3)
        assert load_family(_write_family(tmp_path, SHORT, member, [1, 3])).label == "short"

    @pytest.mark.parametrize("d", [2, 5, -1])
    def test_quadratic_twist_refused_at_a_named_prime(self, tmp_path, d):
        # d is not a square in the cubic field (an odd-degree extension of Q)
        from fermatkit.curves import EllipticCurveNF, ec_trace, same_j_invariant
        from fermatkit.numberfield import prime_by_key

        member = family_from_dict(SHORT).specialize(1, 3)
        twist = EllipticCurveNF(member.a1, member.a2, member.a3, member.a4 * d**2,
                                member.a6 * d**3)
        assert same_j_invariant(member, twist)
        with pytest.raises(FamilyConfigError, match="is a twist") as err:
            load_family(_write_family(tmp_path, SHORT, twist, [1, 3]))
        key = re.search(r"traces differ at (\d+\.\d+)\)", str(err.value)).group(1)
        P = prime_by_key(member.order, key)
        assert P.norm <= 100
        # the twist by d negates a_P exactly where d is not a square mod P
        F = P.residue_field
        assert F.from_int(d) ** ((F.order - 1) // 2) == -F.one()
        assert ec_trace(twist, P) == -ec_trace(member, P) != 0


def naive_trace(E, P):
    """a_P of E at a prime P of good reduction, from a count that shares
    no code with the packed evaluator: 1 + chi at each x for odd p
    (`naive_count_weierstrass`), every (x, y) in characteristic 2
    (`brute_count_weierstrass`). A model that reduces into F_q is counted
    over F_q, and its trace t lifted to F_(q^f) by s_j = t s_(j-1) -
    q s_(j-2), s_0 = 2, s_1 = t (the zeta function of E over F_q)."""
    a = [reduce_element(c, P) for c in E._fields()]
    F, f = P.residue_field, 1
    if not any(x for c in a for x in c.coeffs[1:]):
        F, f = FiniteField(P.q, UniPoly([0, 1])), P.fdeg
        a = [F.from_int(c.coeffs[0]) for c in a]
    t = F.order + 1 - (brute_count_weierstrass if F.p == 2 else naive_count_weierstrass)(a, F)
    s0, s1 = 2, t
    for _ in range(f - 1):
        s0, s1 = s1, t * s1 - F.order * s0
    return s1


def old_route_local_data(fam, q):
    """The per-pair route over the order: specialize, then ec_invariants,
    then `naive_trace` at each prime above q."""
    from fermatkit.curves import ec_invariants

    primes = split_prime(fam.order, q)
    cases, traces = {}, {}
    for pair in residue_pairs(q):
        cases[pair] = fam.reduction_case(q, *pair)
        E = fam.specialize(*pair)
        zero = [reduce_element(ec_invariants(E)[2], P).is_zero for P in primes]
        assert all(zero) if cases[pair] == "multiplicative" else not any(zero)
        if cases[pair] == "good":
            traces[pair] = {P.key: naive_trace(E, P) for P in primes}
    return cases, traces


def short_weierstrass_family(order):
    """y^2 = x^3 + a x + b over the order."""
    return family_from_dict({
        "label": f"short-weierstrass-{order}",
        "order": order,
        "coefficients": {"a4": [[[0], [1]]], "a6": [[[0]], [[1]]]},
        "multiplicative_iff_zero": [[0, 0, 0, 4], [], [27]],  # Delta = -16 (4a^3 + 27b^2)
        "admissibility": {"excluded_primes": [2, 13]},
    })


def refuse_member_curves(monkeypatch):
    """Make specializing a family member, or building any EllipticCurveNF, raise."""
    from fermatkit import curves, elimination

    def refuse(*args, **kw):
        raise AssertionError("a member curve was built")

    monkeypatch.setattr(elimination.FreyFamily, "specialize", refuse)
    monkeypatch.setattr(curves.EllipticCurveNF, "__init__", refuse)


class TestLocalDataOracle:
    def test_naive_trace_counts_the_whole_residue_field(self):
        """Where the model does not reduce into F_q, the whole residue field is
        counted: E_1_-1, and y^2 + xy = x^3 + u, at every good prime of
        Q(sqrt13) of norm up to 400, the inert 2, 5, 7, 11 and 19 among them."""
        from fermatkit.curves import EllipticCurveNF, ec_reduction_type, ec_trace

        K = get_order("Qsqrt13")
        zero = K.zero()
        inert = set()
        for E in (E_FIX, EllipticCurveNF(K.one(), zero, zero, zero, K.theta())):
            for q in filter(is_prime, range(2, 400)):
                for P in split_prime(K, q):
                    if P.norm <= 400 and ec_reduction_type(E, P) == "good":
                        assert naive_trace(E, P) == ec_trace(E, P), P.key
                        if P.fdeg == 2:
                            inert.add(P.key)
        assert inert == {"2.0", "5.0", "7.0", "11.0", "19.0"}

    @pytest.mark.parametrize("name", ["demo_sum_rule_cubic", "demo_sum_rule_sqrt13"])
    def test_reduced_tuples_match_the_order_route(self, name):
        from fermatkit.elimination import _local_data

        fam = load_family(FIXTURES / "families" / f"{name}.json")
        qs = [q for q in range(2, 24) if fam.is_admissible(q)]
        assert qs == [5, 7, 11, 17, 19, 23]
        for q in qs:
            data = _local_data(fam, q)
            assert (data.cases, data.traces) == old_route_local_data(fam, q), q

    @pytest.mark.parametrize("order", ["K13cubic", "Qsqrt13"])
    def test_characteristics_two_and_three(self, order):
        from fermatkit.elimination import _local_data

        # Delta = -s(432 s + 1), s = a + b, so the rule is exact at 2 and 3 too
        fam = demo_family(label=f"demo-{order}-small-q", order=order,
                          admissibility={"excluded_primes": [13]})
        for q in (2, 3):
            data = _local_data(fam, q)
            assert (data.cases, data.traces) == old_route_local_data(fam, q), q

    @pytest.mark.parametrize("order", ["K13cubic", "Qsqrt13"])
    def test_injective_coefficients_match_the_order_route(self, order, monkeypatch):
        """y^2 = x^3 + a x + b: distinct pairs give distinct models mod
        every P, so nothing is shared and every good pair is counted."""
        from fermatkit import elimination

        calls = []
        plain = elimination._reduced_trace
        monkeypatch.setattr(elimination, "_reduced_trace",
                            lambda a, field: calls.append(a) or plain(a, field))

        fam = short_weierstrass_family(order)
        qs = [q for q in range(2, 24) if fam.is_admissible(q)]
        assert qs == [3, 5, 7, 11, 17, 19, 23]
        for q in qs:
            elimination._local_data.cache_clear()
            calls.clear()
            with monkeypatch.context() as m:
                refuse_member_curves(m)
                data = elimination._local_data(fam, q)
            assert (data.cases, data.traces) == old_route_local_data(fam, q), q
            assert len(calls) == len(data.traces) * len(data.primes), q
        elimination._local_data.cache_clear()

    def test_work_count(self, monkeypatch):
        """A work count, not a timing: the demo family y^2 + xy = x^3 + (a + b)
        has 3 reduced models at each of the 3 primes above 5 and 9 at the
        inert prime 11, and each is counted once (per-pair counting made
        45 and 99 calls)."""
        from fermatkit import elimination

        fam = load_family(FIXTURES / "families" / "demo_sum_rule_cubic.json")
        calls = []
        plain = elimination._reduced_trace

        def counted(a, field):
            calls.append(field.order)
            return plain(a, field)

        monkeypatch.setattr(elimination, "_reduced_trace", counted)
        for q, want in ((5, [5] * 9), (11, [1331] * 9)):
            elimination._local_data.cache_clear()
            calls.clear()
            data = elimination._local_data(fam, q)
            assert sorted(calls) == want, q
            assert len(data.traces) == {5: 15, 11: 99}[q]
        monkeypatch.undo()
        elimination._local_data.cache_clear()
        assert (data.cases, data.traces) == old_route_local_data(fam, 11)

    def test_no_member_curve_is_built(self, monkeypatch):
        """A work count: no pair, good or multiplicative, is specialized
        over the order or builds an EllipticCurveNF (the injective cubic
        family is checked the same way above)."""
        from fermatkit import elimination

        short = short_weierstrass_family("Qsqrt13")
        cases = [(load_family(FIXTURES / "families" / "demo_sum_rule_cubic.json"), (5, 11)),
                 (short, [q for q in range(3, 24) if short.is_admissible(q)])]
        want = {(fam.label, q): old_route_local_data(fam, q) for fam, qs in cases for q in qs}
        refuse_member_curves(monkeypatch)
        for fam, qs in cases:
            for q in qs:
                elimination._local_data.cache_clear()
                data = elimination._local_data(fam, q)
                assert (data.cases, data.traces) == want[fam.label, q], (fam.label, q)
        elimination._local_data.cache_clear()

    def test_rule_that_calls_a_bad_pair_good(self):
        from fermatkit.elimination import _local_data

        # constant rule: every pair "good", but Delta = -s(432 s + 1), s = a + b,
        # vanishes mod 5 at s = 2 (865 = 5 * 173) first
        liar = family_from_dict(dict(DEMO, label="liar-good", multiplicative_iff_zero=[[1]]))
        with pytest.raises(FamilyConfigError,
                           match=r"rule says good at q=5, pair \(0, 2\), but the "
                                 r"discriminant vanishes at 5\.0"):
            _local_data(liar, 5)

    def test_rule_that_calls_a_good_pair_multiplicative(self):
        from fermatkit.elimination import _local_data

        # rule a: (0, 1) is "multiplicative", but Delta = -433 is a unit mod 5
        liar = family_from_dict(dict(DEMO, label="liar-mult", multiplicative_iff_zero=[[0, 1]]))
        with pytest.raises(FamilyConfigError,
                           match=r"rule says multiplicative at q=5, pair \(0, 1\), "
                                 r"but the discriminant is a unit at 5\.0"):
            _local_data(liar, 5)

    def test_member_singular_over_the_order_still_raises(self):
        from fermatkit.elimination import _local_data

        # a6 = a: the member at (0, b) is y^2 + xy = x^3, singular over the order
        d = dict(DEMO, label="singular-member", coefficients={"a1": [[[1]]], "a6": [[[0], [1]]]},
                 multiplicative_iff_zero=[[0, 1, 432]])
        with pytest.raises(ValueError, match="singular Weierstrass model") as exc:
            _local_data(family_from_dict(d), 5)
        assert not isinstance(exc.value, FamilyConfigError)


def compatible_pairs_oracle(fam, q, ell, allowed, local):
    """Per pair, from the order route's local data: the trace at every P
    for a good pair, +-(N(P) + 1) at every P for a multiplicative one."""
    cases, traces = local
    primes = split_prime(fam.order, q)
    out = []
    for pair in residue_pairs(q):
        if cases[pair] == "good":
            ok = all(traces[pair][P.key] % ell in allowed[P.key] for P in primes)
        else:
            ok = all({(P.norm + 1) % ell, -(P.norm + 1) % ell} & set(allowed[P.key])
                     for P in primes)
        if ok:
            out.append(pair)
    return out


class TestCompatiblePairs:
    @pytest.mark.parametrize("name,q", [
        ("demo_sum_rule_cubic", 5), ("demo_sum_rule_cubic", 11),
        ("demo_sum_rule_sqrt13", 5), ("demo_sum_rule_sqrt13", 11),
        ("K13cubic", 5), ("Qsqrt13", 11),
    ], ids=["cubic-5", "cubic-11", "sqrt13-5", "sqrt13-11", "short-cubic-5", "short-sqrt13-11"])
    def test_matches_the_per_pair_oracle(self, name, q):
        from fermatkit.elimination import compatible_pairs

        if name.startswith("demo"):
            fam = load_family(FIXTURES / "families" / f"{name}.json")
        else:
            fam = short_weierstrass_family(name)
        local = old_route_local_data(fam, q)
        keys = [P.key for P in split_prime(fam.order, q)]
        good = [pair for pair, case in local[0].items() if case == "good"]
        rng = random.Random(q)
        sizes = {"empty": 0, "all": 0, "some": 0}
        for ell in (7, 5 if q != 5 else 3):
            trials = [{k: set(range(ell)) for k in keys}]
            for _ in range(12):
                allowed = {k: set(rng.sample(range(ell), rng.randrange(ell + 1))) for k in keys}
                trials.append(allowed)
                pair = rng.choice(good)  # a set that the pair's traces fit
                trials.append({k: allowed[k] | {local[1][pair][k] % ell} for k in keys})
            for allowed in trials:
                got = compatible_pairs(fam, q, ell, allowed)
                assert iter(got) is got  # lazy
                got = list(got)
                assert got == compatible_pairs_oracle(fam, q, ell, allowed, local), (ell, allowed)
                sizes["empty" if not got else "all" if len(got) == q * q - 1 else "some"] += 1
        assert all(sizes.values()), sizes

    def test_inputs_checked_before_the_local_data(self, monkeypatch):
        from fermatkit import elimination

        def refuse(*args):
            raise AssertionError("local data built before the inputs were checked")

        monkeypatch.setattr(elimination, "_local_data", refuse)
        fam = demo_family()
        with pytest.raises(ValueError, match="not admissible"):
            elimination.compatible_pairs(fam, 13, 7, {})
        allowed = {P.key: {0} for P in split_prime(fam.order, 5)}
        del allowed["5.1"]
        with pytest.raises(ValueError, match=r"q=5: no allowed residues mod 7 at 5\.1"):
            elimination.compatible_pairs(fam, 5, 7, allowed)

    def test_refined_reduces_each_eigenvalue_once_per_prime(self, monkeypatch):
        """A work count: one `reduce_eigenvalue` per (residue prime, q,
        prime above q) visited, not one per pair and prime."""
        from fermatkit import elimination

        calls = []
        plain = elimination.reduce_eigenvalue
        monkeypatch.setattr(elimination, "reduce_eigenvalue",
                            lambda pkt, key, rp: calls.append((rp.key, key)) or plain(pkt, key, rp))
        fam = demo_family()
        keys = {q: [P.key for P in split_prime(fam.order, q)] for q in (5, 11)}
        pkt = packet_from_curve(fam.specialize(1, 3), "self", 13)
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert {r.status for r in rep} == {"not-eliminated"}
        assert calls == [(r.residue_prime, k) for r in rep for k in keys[5] + keys[11]]
        # a residue of 0 at every prime above 5 fits no pair of the demo family
        calls.clear()
        eig = {k: [0] for k in keys[5] + keys[11]}
        rep = refined_eliminate(raw_packet("K13cubic", [0, 1], eig), fam, 7, [5, 11])
        assert [(r.status, r.witness_q) for r in rep] == [("eliminated", 5)]
        assert calls == [("7:0", k) for k in keys[5]]

    def test_eigenvalue_outside_F_p_fits_no_pair(self):
        """7 is inert in Q(sqrt3): a_P = t_P + sqrt3 reduces outside F_7,
        so no pair fits, although t_P are the traces of the pair (1, 3)."""
        fam = demo_family()
        self_pkt = packet_from_curve(fam.specialize(1, 3), "self", 13)
        eig = {k: [v[0], 1] for k, v in self_pkt.eigenvalues.items()}
        pkt = raw_packet("K13cubic", [-3, 0, 1], eig)
        rp, = primes_above_in_Qf(pkt, 7)
        assert rp.d == 2
        rep = refined_eliminate(pkt, fam, 7, [5, 11])
        assert [(r.status, r.witness_q) for r in rep] == [("eliminated", 5)]


def test_every_cli_seed_of_the_elimination_workload():
    """All 32 frozen CLI seeds of perfbench's `elimination` workload give
    their reference digests (`elimination-soundness` draws different
    pairs at each seed), from cold local data."""
    import sys

    from fermatkit import elimination

    elimination._local_data.cache_clear()
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    refs = workloads.load_refs()
    failed, ran = [], 0
    for seed in range(workloads.CLI_SEED_COUNT):
        ops = workloads.plan("elimination", seed)
        _, outcomes = workloads.run_ops(ops, workloads.expected_digests(refs, "elimination", seed))
        failed += [(seed, op_id, note) for op_id, ok, note in outcomes if not ok]
        ran += len(outcomes)
    assert failed == [] and ran == 3 * 32
