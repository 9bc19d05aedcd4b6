"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single "ACCEPTANCE n" pass/fail line (run with -s to
see them live). Criterion 6b is implemented exactly as stated and is a
strict xfail: the stated rank value is contradicted by two independent
computations (both give 4, not 5, over the named primes), so an honest
red is the correct outcome; 6c pins the verified values.
"""

import time

import pytest

from fermatkit.curves import (
    EllipticCurveNF,
    HyperellipticCurveNF,
    ec_invariants,
    frobenius_projective_order,
    g2_euler_factor,
    g2_rm_split,
    igusa_clebsch,
    weighted_pp_equal,
)
from fermatkit.cli import (
    STATUS_SKIP,
    congruence_failures,
    run_checks,
)
from fermatkit.elimination import (
    ALL_PRIMES,
    load_family,
    refined_eliminate,
    standard_eliminate,
)
from fermatkit.exactarith import UniPoly
from fermatkit.newformdata import (
    NewformPacket,
    load_packets,
    packet_from_curve,
    primes_above_in_Qf,
    trace_contradiction_check,
)
from fermatkit.numberfield import (
    get_order,
    prime_by_key,
    split_prime,
    valuation_at,
)
from fermatkit.unitsieve import (
    UNIT_CLASS_COUNT,
    SieveConstraint,
    class_exps,
    class_index,
    generator_independence_rank,
    sieve_case_bits,
    sieve_case_exhaustive_bits,
)

from pathlib import Path
import random

from test_exactarith import checked_field

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"
K13 = get_order("Qsqrt13")
U = K13.theta()

E_FIX = EllipticCurveNF(
    a1=K13.zero(), a2=-U, a3=K13.zero(), a4=9 * U - 25, a6=-17 * U + 49
)
C_FIX = HyperellipticCurveNF(
    coeffs=tuple(
        K13.element(v)
        for v in [[-16, 6], [16, -6], [-28, 17], [8, -16], [-32, -1], [40, 24], [36, 32]]
    )
)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_euler_rm_splits_at_3():
    t0 = time.monotonic()
    v_u = prime_by_key(K13, "3.0")   # theta -> 0, the prime (u)
    v_u1 = prime_by_key(K13, "3.1")  # theta -> 1, the prime (u - 1)
    s_u = g2_rm_split(g2_euler_factor(C_FIX, v_u)).as_coords()
    s_u1 = g2_rm_split(g2_euler_factor(C_FIX, v_u1)).as_coords()
    elapsed = time.monotonic() - t0
    ok = (
        s_u == [(0, -1), (0, 1)]          # {sqrt2, -sqrt2}
        and s_u1 == [(2, -1), (2, 1)]     # {2 + sqrt2, 2 - sqrt2}
        and elapsed < 1.0
    )
    report(1, ok, f"(u): {s_u}, (u-1): {s_u1}, {elapsed:.3f}s (< 1s)")
    assert s_u == [(0, -1), (0, 1)]
    assert s_u1 == [(2, -1), (2, 1)]
    assert elapsed < 1.0


def test_02_invariant_valuations():
    P2 = split_prime(K13, 2)[0]
    c4, c6, disc = ec_invariants(E_FIX)
    vals = (valuation_at(c4, P2), valuation_at(c6, P2), valuation_at(disc, P2))
    ok = vals == (5, 5, 4)
    report(2, ok, f"(v2(c4), v2(c6), v2(Delta)) = {vals}, expected (5, 5, 4)")
    assert vals == (5, 5, 4)


def test_03_igusa_clebsch_proportionality():
    ref = {
        "I2": ["-38832/81", "18112/81"],
        "I4": ["270660/6561", "-112736/6561"],
        "I6": ["-5484934104/531441", "2386589920/531441"],
        "I10": ["-1222121472/3486784401", "532320256/3486784401"],
    }
    # mu^k I_k for k = 2, 4, 6, 10 is the same weighted projective point;
    # mu = 9 makes every coordinate integral (each denominator is 3^(2k))
    mu = 9
    scaled = []
    for k, key in zip((2, 4, 6, 10), ("I2", "I4", "I6", "I10")):
        coords = [tuple(map(int, s.split("/"))) for s in ref[key]]
        assert all(n * mu**k % d == 0 for n, d in coords)
        scaled.append(K13.element([n * mu**k // d for n, d in coords]))
    alpha = K13.element([-48, -60])
    mine = igusa_clebsch(C_FIX)
    proj = weighted_pp_equal(mine, scaled)
    exact = all(
        m * mu**k == r * alpha**k for m, r, k in zip(mine, scaled, (2, 4, 6, 10))
    )
    ok = proj and exact
    report(3, ok, f"weighted-projective: {proj}, exact with alpha = -60u-48: {exact}")
    assert proj and exact


def test_04_projective_frobenius_orders():
    F9 = checked_field(3, UniPoly([-2, 0, 1]))
    orders = set()
    for q in (17, 53):
        for P in split_prime(K13, q):
            split = g2_rm_split(g2_euler_factor(C_FIX, P))
            for x in split.pair:
                orders.add(frobenius_projective_order(F9.element(list(x.coords)), P.norm))
    ok = {2, 4, 5} <= orders
    report(4, ok, f"orders at primes above 17 and 53: {sorted(orders)}, need 2, 4, 5")
    assert {2, 4, 5} <= orders


def test_05_mod7_congruence_norm_200():
    t0 = time.monotonic()
    checked, failures = congruence_failures(E_FIX, C_FIX, 200)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    report(
        5, ok,
        f"{checked} good primes of norm <= 200, {len(failures)} failures, "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert failures == []
    assert elapsed < 60.0


def test_06a_unit_class_count():
    classes = {class_exps(i) for i in range(UNIT_CLASS_COUNT)}
    ok = len(classes) == 16807
    report("6a", ok, f"number of unit classes = {len(classes)}, expected 16807")
    assert len(classes) == 16807


@pytest.mark.xfail(
    strict=True,
    reason="the character matrix over the primes above {2, 11, 23, 29} has "
    "rank 4, not the stated 5; two independent routes agree, and rank 5 "
    "needs the six-prime set including 19 (see test_06c)",
)
def test_06b_rank_over_stated_primes_as_specified():
    Zz = get_order("Zzeta13")
    primes = [P for q in (2, 11, 23, 29) for P in split_prime(Zz, q)]
    rank = generator_independence_rank(primes)
    report("6b", rank == 5, f"rank over primes above (2,11,23,29) = {rank}, stated 5")
    assert rank == 5


def test_06c_rank_values_verified():
    Zz = get_order("Zzeta13")
    r4 = generator_independence_rank(
        [P for q in (2, 11, 23, 29) for P in split_prime(Zz, q)]
    )
    r5 = generator_independence_rank(
        [P for q in (2, 11, 19, 23, 29, 41) for P in split_prime(Zz, q)]
    )
    ok = (r4, r5) == (4, 5)
    report(
        "6c", ok,
        f"recomputed rank over (2,11,23,29) = {r4}; over the proof set "
        f"(2,11,19,23,29,41) = {r5} (separates all 16807 classes)",
    )
    assert (r4, r5) == (4, 5)


def test_07_sieve_soundness_properties():
    t0 = time.monotonic()
    # character route == exact-residue oracle on every listed prime
    for q in (2, 11, 19, 23, 29, 41):
        cons = [SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")]
        for case in ("coprime-13", "divisible-13"):
            a = sieve_case_bits(case, cons)
            b = sieve_case_exhaustive_bits(case, cons)
            assert a == b, f"routes disagree at q={q} case={case}"
    # planted solutions always survive sieves containing their pairs
    cons_u = [
        SieveConstraint(q=11, mode="unconstrained"),
        SieveConstraint(q=19, mode="unconstrained"),
    ]
    assert sieve_case_bits("coprime-13", cons_u) >> class_index((0, 0, 0, 0, 0)) & 1
    assert sieve_case_bits("divisible-13", cons_u) >> class_index((0, 0, 0, 0, 0)) & 1
    assert sieve_case_bits("coprime-13", cons_u) >> class_index((1, 0, 0, 0, 0)) & 1
    # monotonicity
    base = [SieveConstraint(q=11, mode="unconstrained")]
    more = base + [SieveConstraint(q=19, mode="unconstrained")]
    s0 = sieve_case_bits("divisible-13", base)
    s1 = sieve_case_bits("divisible-13", more)
    assert s1 & ~s0 == 0
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    report(
        7, ok,
        f"route equality on all of (2,11,19,23,29,41), planted survival, "
        f"monotonicity; {elapsed:.0f}s (< 300s)",
    )
    assert elapsed < 300.0


def test_08_elimination_soundness():
    fam = load_family(FIXTURES / "families" / "demo_sum_rule_cubic.json")
    rng = random.Random(20240801)
    tried = 0
    while tried < 3:
        a0, b0 = rng.randrange(1, 60), rng.randrange(1, 60)
        s = a0 + b0
        if s * (432 * s + 1) % 5 == 0 or s * (432 * s + 1) % 11 == 0:
            continue  # the member must have good reduction at 5 and 11
        tried += 1
        pkt = packet_from_curve(fam.specialize(a0, b0), f"self-{a0}-{b0}", 13)
        for q_list in ([5], [11], [5, 11]):
            std = standard_eliminate(pkt, fam, q_list)
            assert std.surviving == ALL_PRIMES, (a0, b0, q_list)
            ref = refined_eliminate(pkt, fam, 7, q_list)
            assert all(r.status == "not-eliminated" for r in ref), (a0, b0)
    # Eisenstein-like packet: residues equal N(q) + 1 everywhere, so the
    # level-raising congruence always holds and only an explicit skip
    # removes the residue prime
    eig = {}
    for q in (5, 11):
        for P in split_prime(fam.order, q):
            lift = (P.norm + 1) % 7
            eig[P.key] = ((lift if lift <= 3 else lift - 7),)
    eis = NewformPacket(
        label="eisenstein-like", base_field="K13cubic", level_norm=1,
        level_primes=(), coeff_poly=UniPoly([0, 1]), eigenvalues=eig,
        residue_maps={}, provenance="synthetic level-raising packet",
    )
    ref = refined_eliminate(eis, fam, 7, [5, 11])
    survived = all(r.status == "not-eliminated" for r in ref)
    ref_skip = refined_eliminate(eis, fam, 7, [5, 11], skip=["7:0"])
    skipped = all(r.status == "skipped" for r in ref_skip)
    ok = survived and skipped
    report(
        8, ok,
        "self-packets survive standard and refined elimination for "
        "q_list within {5, 11}; level-raising packets survive unless skipped",
    )
    assert survived and skipped


def test_09_contradiction_checkers():
    f11 = load_packets(FIXTURES / "packets" / "f11_fixture.json")[0]
    p0 = primes_above_in_Qf(f11, 7)[0]
    keys = ["5.0", "5.1", "5.2"]
    got_f11 = trace_contradiction_check(f11, p0, keys, (-3) % 7)
    wiring = load_packets(FIXTURES / "packets" / "reducible_wiring.json")[0]
    p0w = primes_above_in_Qf(wiring, 7)[0]
    got_w = trace_contradiction_check(wiring, p0w, keys, 2)
    ok = got_f11 and got_w and p0.e == 3 and p0.d == 1
    report(
        9, ok,
        f"residue 6 vs -3 mod 7 at the totally ramified prime above 7: "
        f"contradiction={got_f11}; reducible-constituent vs 2 mod 7: "
        f"contradiction={got_w}",
    )
    assert got_f11 is True
    assert got_w is True


def test_10_external_data_checks_are_skipped():
    names = [
        "sieve-empty-divisible-13",
        "sieve-empty-coprime-13",
        "four-constituents-elimination",
    ]
    rep = run_checks(names=names)
    statuses = [c.status for c in rep.checks]
    ok = statuses == [STATUS_SKIP] * 3
    report(
        10, ok,
        "full-report marks the empty-survivor sieve runs and the external "
        "constituent elimination as skipped(external-data) without the "
        "transcribed family configs",
    )
    assert statuses == [STATUS_SKIP] * 3
    # the runnable sieve machinery behind those checks exists and refuses
    # the external slot with a clear message rather than fabricating data
    import fermatkit.elimination as el

    with pytest.raises(el.FamilyConfigError, match="external-data slot"):
        load_family(FIXTURES / "families" / "frey_sqrt13.json")
