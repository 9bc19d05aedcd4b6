import json
import random
import re
from pathlib import Path

import pytest

from fermatkit.curves import EllipticCurveNF
from fermatkit.exactarith import UniPoly
from fermatkit.newformdata import (
    MissingEigenvalueError,
    PacketFormatError,
    UnsupportedResiduePrimeError,
    load_packets,
    packet_from_curve,
    packet_from_dict,
    primes_above_in_Qf,
    reduce_eigenvalue,
    trace_contradiction_check,
)
from fermatkit.numberfield import get_order
from test_numberfield import prime_key_action

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"
KC = get_order("K13cubic")


def _key_sort(key: str):
    q, i = key.split(".")
    return (int(q), int(i))


def serialize_packet(packet) -> dict:
    return {
        "label": packet.label,
        "base_field": packet.base_field,
        "level": {"norm": packet.level_norm, "primes": list(packet.level_primes)},
        "coeff_poly": list(packet.coeff_poly.coeffs),
        "eigenvalues": {
            k: list(v) for k, v in sorted(packet.eigenvalues.items(), key=lambda t: _key_sort(t[0]))
        },
        "residue_maps": {k: list(v) for k, v in sorted(packet.residue_maps.items())},
        "provenance": packet.provenance,
    }


def conjugate_congruence_check(packet, sigma_map: dict, p0):
    """Keys where a_{sigma(q)} and a_q disagree modulo the residue prime p0.

    An empty list is consistent with the eigenvalue system descending
    through the Galois action; any listed key refutes it.
    """
    failures = []
    for key in sorted(packet.eigenvalues, key=_key_sort):
        img = sigma_map.get(key)
        if img is None:
            raise MissingEigenvalueError(f"sigma_map has no entry for {key}")
        if img not in packet.eigenvalues:
            raise MissingEigenvalueError(
                f"packet {packet.label} has no eigenvalue at {img} = sigma({key})"
            )
        if reduce_eigenvalue(packet, img, p0) != reduce_eigenvalue(packet, key, p0):
            failures.append(key)
    return failures


def base_packet(**over):
    d = {
        "label": "t",
        "base_field": "K13cubic",
        "level": {"norm": 104, "primes": ["2.0", "13.0"]},
        "coeff_poly": [0, 1],
        "eigenvalues": {"5.0": [1], "5.1": [0], "5.2": [-2]},
        "provenance": "test",
    }
    d.update(over)
    return d


class TestLoading:
    def test_roundtrip(self):
        p = packet_from_dict(base_packet())
        assert packet_from_dict(serialize_packet(p)) == p

    def test_fixture_files_load(self):
        for name in ("f11_fixture.json", "reducible_wiring.json", "demo_self_1_3.json"):
            pkts = load_packets(FIXTURES / "packets" / name)
            assert len(pkts) == 1
            assert not pkts[0].warnings

    def test_packet_from_curve_loads_clean(self):
        K = get_order("Qsqrt13")
        u = K.theta()
        E = EllipticCurveNF(
            a1=K.zero(), a2=-u, a3=K.zero(), a4=9 * u - 25, a6=-17 * u + 49
        )
        pkt = packet_from_curve(E, "from-E", 30)
        assert pkt.coeff_poly == UniPoly([0, 1])
        assert "3.0" in pkt.eigenvalues and "3.1" in pkt.eigenvalues
        assert not pkt.warnings

    def test_weil_bound_rejection(self):
        # value 6 at a norm-3 prime: 6 > 2*sqrt(3)
        d = base_packet(
            base_field="Qsqrt13",
            level={"norm": 4, "primes": ["2.0"]},
            eigenvalues={"3.0": [6]},
        )
        with pytest.raises(PacketFormatError, match="Weil"):
            packet_from_dict(d)

    def test_weil_bound_real_quadratic(self):
        # 1 + 3*sqrt(2) has an embedding 5.24... > 2*sqrt(3) at norm 3
        d = base_packet(
            base_field="Qsqrt13",
            level={"norm": 4, "primes": ["2.0"]},
            coeff_poly=[-2, 0, 1],
            eigenvalues={"3.0": [1, 3]},
        )
        with pytest.raises(PacketFormatError, match="Weil"):
            packet_from_dict(d)
        ok = dict(d)
        ok["eigenvalues"] = {"3.0": [1, 1]}  # embeddings 1 +- sqrt(2), inside
        packet_from_dict(ok)

    def test_empty_eigenvalues_warns(self):
        p = packet_from_dict(base_packet(eigenvalues={}))
        assert any("empty eigenvalue table" in w for w in p.warnings)

    def test_reducible_coeff_poly_rejected(self):
        with pytest.raises(PacketFormatError, match="squarefree"):
            packet_from_dict(base_packet(coeff_poly=[0, 0, 0, 1]))  # x^3
        with pytest.raises(PacketFormatError, match="rational root"):
            packet_from_dict(base_packet(coeff_poly=[-2, 1, 1]))  # (x-1)(x+2)

    @pytest.mark.parametrize("coeffs,warned", [
        ([-1, -1, 0, 0, 1], False),  # x^4 - x - 1: irreducible mod 2, certified
        ([1, 0, 0, 0, 1], True),  # x^4 + 1: irreducible, but reducible mod every prime
    ], ids=["certified", "flagged"])
    def test_degree_four_irreducibility(self, coeffs, warned):
        p = packet_from_dict(base_packet(coeff_poly=coeffs, eigenvalues={}))
        want = "could not certify irreducibility of degree-4 coeff_poly"
        assert (want in p.warnings) == warned

    def test_large_constant_term_validates_quickly(self):
        import time

        t0 = time.perf_counter()
        p = packet_from_dict(base_packet(coeff_poly=[10**9 + 7, 0, 1]))
        assert time.perf_counter() - t0 < 1.0
        assert p.coeff_poly == UniPoly([10**9 + 7, 0, 1])

    def test_large_rational_root_named(self):
        with pytest.raises(PacketFormatError, match="rational root 1000000000$"):
            packet_from_dict(base_packet(coeff_poly=[-10**18, 0, 1]))

    def test_level_mismatch_rejected(self):
        with pytest.raises(PacketFormatError, match="level"):
            packet_from_dict(base_packet(level={"norm": 100, "primes": ["2.0", "13.0"]}))

    def test_bad_prime_key_rejected(self):
        with pytest.raises(PacketFormatError, match="eigenvalues"):
            packet_from_dict(base_packet(eigenvalues={"5.9": [1]}))

    def test_error_positions(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([base_packet(level={"norm": 7, "primes": ["2.0"]})]))
        with pytest.raises(PacketFormatError, match=r"packets\[0\]\.level"):
            load_packets(path)
        # a single object is positioned as `packet`, after the file path
        path.write_text(json.dumps({"packets": 5}))
        with pytest.raises(PacketFormatError,
                           match=rf'^{re.escape(str(path))}: packet: expected an object with '
                                 r'the key "label", got \{"packets": 5\}$'):
            load_packets(path)
        path.write_text("{not json")
        with pytest.raises(PacketFormatError, match="line 1"):
            load_packets(path)


class TestResiduePrimes:
    def test_table_first_block(self):
        # h = x^2 - x - 7 at p = 7 factors as x(x-1): two degree-1 primes
        p = packet_from_dict(base_packet(coeff_poly=[-7, -1, 1], eigenvalues={}))
        rps = primes_above_in_Qf(p, 7)
        assert [(r.d, r.e) for r in rps] == [(1, 1), (1, 1)]
        assert {tuple(r.gen_image.coeffs) for r in rps} == {(0,), (1,)}

    def test_sqrt2_at_7(self):
        p = packet_from_dict(base_packet(coeff_poly=[-2, 0, 1], eigenvalues={}))
        rps = primes_above_in_Qf(p, 7)
        assert {tuple(r.gen_image.coeffs) for r in rps} == {(3,), (4,)}

    def test_index_risk_requires_maps(self):
        # disc(x^3+x^2-2x-1) = 49; p = 7 is risky without explicit maps
        p = packet_from_dict(base_packet(coeff_poly=[-1, -2, 1, 1], eigenvalues={}))
        with pytest.raises(UnsupportedResiduePrimeError):
            primes_above_in_Qf(p, 7)
        p2 = packet_from_dict(
            base_packet(coeff_poly=[-1, -2, 1, 1], eigenvalues={}, residue_maps={"7:0": [2]})
        )
        rps = primes_above_in_Qf(p2, 7)
        assert [(r.d, r.e) for r in rps] == [(1, 3)]

    def test_bad_residue_map_rejected(self):
        p = packet_from_dict(
            base_packet(coeff_poly=[-1, -2, 1, 1], eigenvalues={}, residue_maps={"7:0": [3]})
        )
        with pytest.raises(PacketFormatError, match="not a root"):
            primes_above_in_Qf(p, 7)

    def test_ramified_profile(self):
        # x^2 - 7 at p = 7: single prime with e = 2 (no index risk: 7 || 28)
        p = packet_from_dict(base_packet(coeff_poly=[-7, 0, 1], eigenvalues={}))
        rps = primes_above_in_Qf(p, 7)
        assert [(r.d, r.e) for r in rps] == [(1, 2)]


class TestReduceEigenvalue:
    def test_rational(self):
        p = packet_from_dict(base_packet())
        rp = primes_above_in_Qf(p, 7)[0]
        assert reduce_eigenvalue(p, "5.0", rp) == rp.field.from_int(1)
        assert reduce_eigenvalue(p, "5.2", rp) == rp.field.from_int(-2)

    def test_sqrt2_eigenvalue(self):
        p = packet_from_dict(
            base_packet(
                base_field="Qsqrt13",
                level={"norm": 4, "primes": ["2.0"]},
                coeff_poly=[-2, 0, 1],
                eigenvalues={"3.0": [0, 1]},  # the eigenvalue sqrt(2)
            )
        )
        rps = primes_above_in_Qf(p, 7)
        images = {tuple(reduce_eigenvalue(p, "3.0", r).coeffs) for r in rps}
        assert images == {(3,), (4,)}

    def test_missing(self):
        p = packet_from_dict(base_packet())
        rp = primes_above_in_Qf(p, 7)[0]
        with pytest.raises(MissingEigenvalueError):
            reduce_eigenvalue(p, "11.0", rp)

    def test_ring_map_on_synthetic_values(self):
        # bypass load validation: these synthetic values ignore Weil bounds
        from fermatkit.newformdata import NewformPacket

        rng = random.Random(5)
        empty = packet_from_dict(
            base_packet(
                base_field="Qsqrt13",
                level={"norm": 4, "primes": ["2.0"]},
                coeff_poly=[-2, 0, 1],
                eigenvalues={},
            )
        )
        rp = primes_above_in_Qf(empty, 7)[0]
        for _ in range(20):
            a = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            b = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            prod = UniPoly(a) * UniPoly(b)
            rem = prod
            while rem.degree >= 2:
                lead = rem.coeffs[-1]
                shift = rem.degree - 2
                rem = rem - UniPoly([0] * shift + [-2 * lead, 0, lead])
            vals = tuple(rem.coeffs) + (0,) * (2 - len(rem.coeffs))
            pk = NewformPacket(
                label="raw",
                base_field="Qsqrt13",
                level_norm=4,
                level_primes=("2.0",),
                coeff_poly=UniPoly([-2, 0, 1]),
                eigenvalues={"3.0": a, "5.0": b, "3.1": vals},
                residue_maps={},
                provenance="in-memory ring-map test",
            )
            lhs = reduce_eigenvalue(pk, "3.0", rp) * reduce_eigenvalue(pk, "5.0", rp)
            assert lhs == reduce_eigenvalue(pk, "3.1", rp)


class TestConjugateCongruence:
    def sigma_map(self):
        return prime_key_action(KC, 5, UniPoly([2, -2, -1]))

    def test_base_change_curve_is_stable(self):
        # a curve with rational coefficients looks the same at all three
        # primes above 5, so the eigenvalue system is Galois-stable
        E = EllipticCurveNF(
            a1=KC.one(), a2=KC.zero(), a3=KC.zero(), a4=KC.zero(), a6=KC.from_int(4)
        )
        pkt = packet_from_curve(E, "rational-over-cubic", 11)
        rps = primes_above_in_Qf(pkt, 7)
        sub = {k: v for k, v in pkt.eigenvalues.items() if k.startswith("5.")}
        pkt2 = packet_from_dict(
            dict(serialize_packet(pkt), eigenvalues={k: list(v) for k, v in sub.items()})
        )
        assert conjugate_congruence_check(pkt2, self.sigma_map(), rps[0]) == []

    def test_violation_reported(self):
        d = base_packet(eigenvalues={"5.0": [1], "5.1": [1], "5.2": [2]})
        pkt = packet_from_dict(d)
        rp = primes_above_in_Qf(pkt, 7)[0]
        failures = conjugate_congruence_check(pkt, self.sigma_map(), rp)
        assert failures != []

    def test_ramified_p0_wiring(self):
        # Galois-stable values with a ramified residue prime above 7
        d = base_packet(
            coeff_poly=[-7, 0, 1],
            eigenvalues={"5.0": [1, 1], "5.1": [1, 1], "5.2": [1, 1]},
        )
        pkt = packet_from_dict(d)
        rp = primes_above_in_Qf(pkt, 7)[0]
        assert rp.e == 2
        assert conjugate_congruence_check(pkt, self.sigma_map(), rp) == []

    def test_missing_sigma_entry(self):
        pkt = packet_from_dict(base_packet())
        rp = primes_above_in_Qf(pkt, 7)[0]
        with pytest.raises(MissingEigenvalueError):
            conjugate_congruence_check(pkt, {"5.0": "5.1"}, rp)


class TestTraceContradiction:
    def test_f11_fixture(self):
        pkt = load_packets(FIXTURES / "packets" / "f11_fixture.json")[0]
        rp = primes_above_in_Qf(pkt, 7)[0]
        assert rp.d == 1 and rp.e == 3
        keys = ["5.0", "5.1", "5.2"]
        # observed residue is 6; the competing value is -3 = 4 mod 7
        assert trace_contradiction_check(pkt, rp, keys, (-3) % 7) is True
        assert trace_contradiction_check(pkt, rp, keys, 6) is False

    def test_reducible_wiring_fixture(self):
        pkt = load_packets(FIXTURES / "packets" / "reducible_wiring.json")[0]
        rp = primes_above_in_Qf(pkt, 7)[0]
        keys = ["5.0", "5.1", "5.2"]
        assert trace_contradiction_check(pkt, rp, keys, 2) is True
        assert trace_contradiction_check(pkt, rp, keys, 3) is False

    def test_missing_key(self):
        pkt = packet_from_dict(base_packet())
        rp = primes_above_in_Qf(pkt, 7)[0]
        with pytest.raises(MissingEigenvalueError):
            trace_contradiction_check(pkt, rp, ["7.0"], 0)


def test_non_stable_curve_reports_failures():
    # a curve with a theta coefficient has distinct traces at the
    # conjugate primes above 5, so the congruence must fail somewhere;
    # together with the stable case this gives the iff of the invariant
    from fermatkit.exactarith import UniPoly as _UP

    E = EllipticCurveNF(
        a1=KC.one(), a2=KC.theta(), a3=KC.zero(), a4=KC.zero(), a6=KC.from_int(2)
    )
    pkt = packet_from_curve(E, "non-stable", 11)
    sub = {k: list(v) for k, v in pkt.eigenvalues.items() if k.startswith("5.")}
    assert len(sub) == 3 and len({v[0] % 7 for v in sub.values()}) > 1
    pkt2 = packet_from_dict(dict(serialize_packet(pkt), eigenvalues=sub))
    rp = primes_above_in_Qf(pkt2, 7)[0]
    sigma = prime_key_action(KC, 5, _UP([2, -2, -1]))
    failures = conjugate_congruence_check(pkt2, sigma, rp)
    assert failures != []
