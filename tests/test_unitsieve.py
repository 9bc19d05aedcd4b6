import random
from pathlib import Path

import pytest

from fermatkit.elimination import family_from_dict, load_family, residue_pairs
from fermatkit.curves import _field_tables
from fermatkit.exactarith import FFElement, factorize, first_generator
from fermatkit.numberfield import (
    cyclotomic_unit_generators,
    get_order,
    reduce_element,
    split_prime,
)
from fermatkit.unitsieve import (
    UNIT_CLASS_COUNT,
    LocalCharacterTable,
    SieveConstraint,
    UnitClass,
    _char_masks,
    _char_targets,
    _class_masks,
    _local_survivors,
    _memo_power,
    _pair_char,
    _pair_reduction,
    _pair_residues,
    _power_plan,
    _seventh_powers,
    _sieve_character,
    _subfield_norm,
    _survivor_bits,
    admissible_pairs,
    build_character,
    char_value,
    class_exps,
    class_index,
    class_indices,
    generator_independence_rank,
    modular_targets_from_curve,
    sieve_case,
    sieve_case_bits,
    sieve_case_exhaustive,
    sieve_case_exhaustive_bits,
)
from test_exactarith import checked_field

ZZ13 = get_order("Zzeta13")
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "fermatkit" / "fixtures"
ALL_CLASSES = (1 << UNIT_CLASS_COUNT) - 1
PROOF_SET_QS = (2, 11, 19, 23, 29, 41)


def _pair_element(a: int, b: int):
    return ZZ13.element([a, b])


def _unit(n: int):
    """The unit of Z[zeta_13] the class of index n stands for: the product
    of the cyclotomic generators to its exponents."""
    acc = ZZ13.one()
    for g, e in zip(cyclotomic_unit_generators(), class_exps(n)):
        acc = acc * g**e
    return acc


# ---------------------------------------------------------------------------
# naive oracle: walk all 16807 classes, one field multiply per class and prime


def _class_tables(Q, E: int):
    """(mul, lo, hi) at Q for the exhaustive walk, on coefficient tuples:
    mul is the residue field's multiply, lo[e0 + 7 e1] is
    (u_2^e0 u_3^e1)^E and hi[e2 + 7 e3 + 49 e4] is
    (u_4^e2 u_5^e3 u_6^e4)^E, both reduced at Q. Built from the powers
    (reduced u_a)^(eE) by multiplication only."""
    F = Q.residue_field
    mul = F.mul_kernel()
    powers = []
    for g in cyclotomic_unit_generators():
        base = (reduce_element(g, Q) ** E).coeffs
        row = [F.one().coeffs]
        for _ in range(6):
            row.append(mul(row[-1], base))
        powers.append(row)
    p2, p3, p4, p5, p6 = powers
    lo = [mul(x3, x2) for x3 in p3 for x2 in p2]
    hi = [mul(mul(x6, x5), x4) for x6 in p6 for x5 in p5 for x4 in p4]
    return mul, lo, hi


def _class_residues(tables, idx: int) -> tuple:
    """Coefficients of eps^E at each prime for the unit class of index idx
    (base 7, u_2 least significant): one product lo[idx % 49] *
    hi[idx // 49] per prime, for the tables of `_class_tables`."""
    i, j = idx % 49, idx // 49
    return tuple(mul(lo[i], hi[j]) for mul, lo, hi in tables)


def naive_sieve_bits(descent_case: str, constraints) -> int:
    """Survivors by a per-class walk: each class's residues eps^E against
    every pair's (a + zeta b)^E ((1 - zeta)^E)^(-delta), by plain powers."""
    delta = 1 if descent_case == "divisible-13" else 0
    omz = ZZ13.one() - ZZ13.theta()
    surv = set(range(UNIT_CLASS_COUNT))
    for c in constraints:
        primes = split_prime(ZZ13, c.q)
        exps = [(Q.norm - 1) // 7 for Q in primes]
        tables = [_class_tables(Q, E) for Q, E in zip(primes, exps)]
        shifts = [(reduce_element(omz, Q) ** E).inverse() for Q, E in zip(primes, exps)]
        targets = set()
        for a, b in admissible_pairs(c):
            tup = []
            for Q, E, shift in zip(primes, exps, shifts):
                red = reduce_element(_pair_element(a, b), Q)
                tup.append(None if red.is_zero else (red**E * shift**delta).coeffs)
            targets.add(tuple(tup))
        exact = {t for t in targets if None not in t}
        wild = [t for t in targets if None in t]
        alive = set()
        for idx in surv:
            tup = _class_residues(tables, idx)
            if tup in exact or any(
                all(w is None or w == m for w, m in zip(wt, tup)) for wt in wild
            ):
                alive.add(idx)
        surv = alive
    return sum(1 << i for i in surv)


def naive_lex_least_generator(F):
    """The frozen generator convention stated directly: the first x in
    index order with x^((N-1)/r) != 1, a full-field power, for every
    prime r | N - 1."""
    n1 = F.order - 1
    primes = factorize(n1)
    one = F.one()
    for idx in range(1, F.order):
        x = F.from_index(idx)
        if all(x ** (n1 // r) != one for r in primes):
            return x
    raise AssertionError("no generator found; field arithmetic is broken")


def curve_C():
    from fermatkit.curves import HyperellipticCurveNF

    K = get_order("Qsqrt13")
    return HyperellipticCurveNF(
        coeffs=tuple(
            K.element(v)
            for v in [[-16, 6], [16, -6], [-28, 17], [8, -16], [-32, -1], [40, 24], [36, 32]]
        )
    )


class TestUnitClass:
    def test_count_and_roundtrip(self):
        assert UNIT_CLASS_COUNT == 16807
        for n in range(UNIT_CLASS_COUNT):
            assert class_index(class_exps(n)) == n
        for e in ((0,) * 5, (1, 0, 0, 0, 0), (6,) * 5, (6, 0, 3, 1, 2)):
            assert class_exps(class_index(e)) == e

    def test_validation(self):
        with pytest.raises(ValueError):
            class_index((7, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            class_index((0, 0, 0, 0))

    def test_bad_exponents_rejected(self):
        for exps in [(0, 0, 0, 0, -1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 9)]:
            with pytest.raises(ValueError, match="five exponents"):
                class_index(exps)

    def test_unit_value(self):
        u = _unit(class_index((1, 0, 0, 0, 0)))
        assert u == cyclotomic_unit_generators()[0]
        assert _unit(0) == ZZ13.one()


class TestCharacters:
    def test_chi_of_one_is_zero(self):
        Q = split_prime(ZZ13, 2)[0]
        t = build_character(Q)
        assert char_value(t, ZZ13.one()) == 0

    def test_seventh_powers_in_kernel(self):
        Q = split_prime(ZZ13, 23)[0]
        t = build_character(Q)
        rng = random.Random(9)
        for _ in range(15):
            x = ZZ13.element([rng.randrange(-2, 3) for _ in range(12)])
            cx = char_value(t, x)
            if cx is None:
                continue
            assert char_value(t, x**7) == 0
            y = ZZ13.element([rng.randrange(-2, 3) for _ in range(12)])
            cy = char_value(t, y)
            if cy is not None:
                assert char_value(t, x * y**7) == cx

    def test_multiplicativity(self):
        Q = split_prime(ZZ13, 29)[1]
        t = build_character(Q)
        rng = random.Random(10)
        for _ in range(25):
            x = ZZ13.element([rng.randrange(-3, 4) for _ in range(12)])
            y = ZZ13.element([rng.randrange(-3, 4) for _ in range(12)])
            cx, cy, cxy = char_value(t, x), char_value(t, y), char_value(t, x * y)
            if None in (cx, cy):
                continue
            assert cxy == (cx + cy) % 7

    def test_q2_vector_vs_naive_dlog(self):
        """Recompute the q=2 character vector by enumerating the order-7
        subgroup directly, independent of the table construction."""
        Q = split_prime(ZZ13, 2)[0]
        t = build_character(Q)
        F = Q.residue_field
        e = (F.order - 1) // 7
        assert e == 585
        # the subgroup elements are omega^0..omega^6
        subgroup = []
        acc = F.one()
        for _ in range(7):
            subgroup.append(acc)
            acc = acc * t.omega
        for u, want in zip(cyclotomic_unit_generators(), t.unit_chars):
            y = reduce_element(u, Q) ** e
            assert subgroup.index(y) == want

    def test_zero_convention(self):
        Q = split_prime(ZZ13, 29)[0]
        t = build_character(Q)
        assert char_value(t, ZZ13.from_int(29)) is None
        # 1 - zeta generates the ramified prime above 13
        P13 = split_prime(ZZ13, 13)[0]
        assert reduce_element(ZZ13.one() - ZZ13.theta(), P13).is_zero

    def test_unsupported_prime_rejected(self):
        # q = 3 has f = 3 and 7 does not divide 27 - 1
        Q = split_prime(ZZ13, 3)[0]
        with pytest.raises(ValueError, match="7 does not divide"):
            build_character(Q)

    def test_residue_degrees(self):
        assert [len(split_prime(ZZ13, q)) for q in (2, 11, 19, 41)] == [1, 1, 1, 1]
        assert len(split_prime(ZZ13, 23)) == 2
        assert len(split_prime(ZZ13, 29)) == 4


@pytest.mark.parametrize("q", (2, 23, 29, 41))
def test_seventh_powers_shared_by_both_routes(q):
    """One cached map per prime: its residues of u_2..u_6 and 1 - zeta
    (the oracle's) are the plain full-field powers, the character
    table's values are their dlogs, and chi(b) is the dlog of the
    constant b^((N-1)/7) mod q."""
    omz = ZZ13.one() - ZZ13.theta()
    for Q in split_prime(ZZ13, q):
        seventh, e, t = _seventh_powers(Q), (Q.norm - 1) // 7, build_character(Q)
        assert _seventh_powers(Q) is seventh
        want = [(reduce_element(u, Q) ** e).coeffs for u in cyclotomic_unit_generators()]
        assert list(seventh.units) == want
        assert seventh.one_minus_zeta == (reduce_element(omz, Q) ** e).coeffs
        assert t.unit_chars == tuple(t.dlog[v] for v in want)
        assert t.chi_one_minus_zeta == t.dlog[seventh.one_minus_zeta]
        assert t.scalar_chars == (None,) + tuple(
            char_value(t, ZZ13.from_int(b)) for b in range(1, q))


class TestPairCharacters:
    """The production route's chi(a + b zeta) = chi(b) + chi(a/b + zeta)
    against direct exponentiation of the pair element."""

    @pytest.mark.parametrize("q", [11, 23, 29])
    def test_identity_matches_char_value(self, q):
        from fermatkit.unitsieve import _pair_char

        for Q in split_prime(ZZ13, q):
            t = build_character(Q)
            for a in range(q):
                for b in range(q):
                    if a or b:
                        direct = char_value(t, _pair_element(a, b))
                        assert _pair_char(t, a, b) == direct, (Q.key, a, b)
            # residue degree > 1: zeta is not in F_q, so no pair lies in Q
            assert None not in t.line_chars

    def test_identity_at_degree_one_primes(self):
        """q = 547 = 1 mod 91: twelve primes of degree 1, each containing
        c + zeta for one c, and a nonzero scalar character. Checks the
        whole line of pairs in Q (all None) and a sample of the rest."""
        from fermatkit.unitsieve import _pair_char

        q = 547
        rng = random.Random(14)
        primes = split_prime(ZZ13, q)
        assert [Q.fdeg for Q in primes] == [1] * 12
        for Q in primes:
            t = build_character(Q)
            zeros = [c for c, v in enumerate(t.line_chars) if v is None]
            assert len(zeros) == 1
            pairs = [(zeros[0] * b % q, b) for b in range(1, q)]
            pairs += [(rng.randrange(1, q), rng.randrange(q)) for _ in range(40)]
            for a, b in pairs:
                direct = char_value(t, _pair_element(a, b))
                assert _pair_char(t, a, b) == direct, (Q.key, a, b)


class TestAdmissiblePairs:
    def test_parity(self):
        c = SieveConstraint(q=2, mode="parity-only")
        assert admissible_pairs(c) == {(0, 1), (1, 0)}

    def test_parity_only_at_2(self):
        with pytest.raises(ValueError):
            SieveConstraint(q=11, mode="parity-only")

    def test_unconstrained_count(self):
        c = SieveConstraint(q=11, mode="unconstrained")
        assert len(admissible_pairs(c)) == 120

    def test_q13_rejected(self):
        with pytest.raises(ValueError):
            SieveConstraint(q=13, mode="unconstrained")

    def test_modular_needs_data(self):
        c = SieveConstraint(q=11, mode="modular")
        with pytest.raises(ValueError, match="Euler targets"):
            admissible_pairs(c)

    def test_modular_subset_vs_oracle(self):
        fam = family_from_dict({
            "label": "demo-sqrt13",
            "order": "Qsqrt13",
            "coefficients": {"a1": [[[1]]], "a6": [[[0], [1]], [[1]]]},
            "multiplicative_iff_zero": [[0, 1, 432], [1, 864], [432]],
            "admissibility": {"excluded_primes": [2, 3, 13], "residue_conditions": []},
        })
        C = curve_C()
        targets = modular_targets_from_curve(C, 11)
        c = SieveConstraint(q=11, mode="modular", family=fam, targets=targets)
        got = admissible_pairs(c)
        assert got < admissible_pairs(SieveConstraint(q=11, mode="unconstrained"))

        # oracle: recount traces with an Euler-criterion chi, no square table
        P = split_prime(get_order("Qsqrt13"), 11)[0]
        tset = dict(targets)[P.key]
        F = P.residue_field
        half = (F.order - 1) // 2
        want = set()
        for a in range(11):
            for b in range(11):
                if (a, b) == (0, 0):
                    continue
                s = a + b
                if (s * (432 * s + 1)) % 11 == 0:
                    ok = bool(tset & {(P.norm + 1) % 7, (-(P.norm + 1)) % 7})
                else:
                    E = fam.specialize(a, b)
                    red = [reduce_element(v, P) for v in (E.a1, E.a2, E.a3, E.a4, E.a6)]
                    inv4 = F.from_int(4).inverse()
                    count = 1
                    for x in F.elements():
                        cc = red[0] * x + red[2]
                        d = ((x + red[1]) * x + red[3]) * x + red[4] + cc * cc * inv4
                        if d.is_zero:
                            count += 1
                        elif d**half == F.one():
                            count += 2
                    ok = (P.norm + 1 - count) % 7 in tset
                if ok:
                    want.add((a, b))
        assert got == want


@pytest.mark.parametrize("q,targets", [(19, {"19.0": {4}}), (41, {"41.0": {1, 6}})])
def test_curve_targets_at_inert_proof_primes(q, targets):
    # C_eq51 at the inert primes of the proof sieves, whose Euler factors
    # count points over F_{q^4}; the values the earlier Zech-log count
    # over a QuadExt tower gave
    got = modular_targets_from_curve(curve_C(), q)
    assert got == tuple((key, frozenset(v)) for key, v in targets.items())


UNCONSTRAINED_11_19 = [
    SieveConstraint(q=11, mode="unconstrained"),
    SieveConstraint(q=19, mode="unconstrained"),
]


class TestSieve:
    def test_validation(self):
        with pytest.raises(ValueError):
            sieve_case("divisible-13", [])
        with pytest.raises(ValueError):
            sieve_case("nope", UNCONSTRAINED_11_19)
        with pytest.raises(ValueError):
            sieve_case(
                "divisible-13",
                [SieveConstraint(q=11, mode="unconstrained")] * 2,
            )

    def test_stops_once_no_class_survives(self, monkeypatch):
        import fermatkit.unitsieve as us

        seen = []

        def local(constraint, delta):
            seen.append(constraint.q)
            return 0

        monkeypatch.setattr(us, "_local_survivors", local)
        assert sieve_case_bits("coprime-13", UNCONSTRAINED_11_19) == 0
        assert seen == [11]

    def test_planted_trivial_solutions(self):
        # 1 = 1 * 1^7 at (1, 0); zeta = (zeta^2)^7 at (0, 1);
        # 1 + zeta = u2 * 1^7 at (1, 1); 1 - zeta = 1 * (1-zeta) * 1^7 at (1, -1)
        surv_cop = sieve_case_bits("coprime-13", UNCONSTRAINED_11_19)
        assert surv_cop >> class_index((0, 0, 0, 0, 0)) & 1
        assert surv_cop >> class_index((1, 0, 0, 0, 0)) & 1
        surv_div = sieve_case_bits("divisible-13", UNCONSTRAINED_11_19)
        assert surv_div >> class_index((0, 0, 0, 0, 0)) & 1

    def test_monotonicity(self):
        base = [SieveConstraint(q=11, mode="unconstrained")]
        more = base + [SieveConstraint(q=23, mode="unconstrained")]
        s0 = {u.index for u in sieve_case("coprime-13", base)}
        s1 = {u.index for u in sieve_case("coprime-13", more)}
        assert s1 <= s0

    def test_single_unconstrained_prime_structure(self):
        """Survivors at one prime are a union of affine solution sets and a
        superset of any constrained run at the same prime."""
        full = {u.index for u in sieve_case("coprime-13", [SieveConstraint(q=2, mode="unconstrained")])}
        par = {u.index for u in sieve_case("coprime-13", [SieveConstraint(q=2, mode="parity-only")])}
        assert par <= full
        # each solution set of one linear equation over F_7^5 has 7^4 points
        assert len(par) % 7**4 == 0

    @pytest.mark.parametrize("q", [2, 23, 29])
    def test_linear_vs_exhaustive(self, q):
        cons = [SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")]
        for case in ("coprime-13", "divisible-13"):
            a = {u.index for u in sieve_case(case, cons)}
            b = {u.index for u in sieve_case_exhaustive(case, cons)}
            assert a == b

    @pytest.mark.parametrize("q", [11, 29])
    def test_linear_vs_exhaustive_modular(self, q):
        cons = [_demo_modular(q)]
        for case in ("coprime-13", "divisible-13"):
            assert sieve_case_exhaustive_bits(case, cons) == sieve_case_bits(case, cons), case

    def test_literal_seventh_power_check_at_2(self):
        """Spot-check the survivor semantics against a literal 7th-power
        test, z^((N-1)/7) = 1."""
        Q = split_prime(ZZ13, 2)[0]
        cons = [SieveConstraint(q=2, mode="parity-only")]
        surv = {u.index for u in sieve_case("divisible-13", cons)}
        omz = ZZ13.one() - ZZ13.theta()
        rng = random.Random(12)
        pairs = [(0, 1), (1, 0)]
        for idx in rng.sample(range(UNIT_CLASS_COUNT), 40):
            eps = _unit(idx)
            red_eps = reduce_element(eps, Q)
            ok = False
            for a, b in pairs:
                val = reduce_element(ZZ13.element([a, b]), Q)
                val = val * reduce_element(omz, Q).inverse()
                ok = ok or (val * red_eps.inverse()) ** ((Q.norm - 1) // 7) == 1
            assert ok == (idx in surv)

    def test_planted_random_classes_generalized(self):
        """For w = eps * (1-zeta)^delta * beta^7 the class of eps satisfies
        the character condition at every prime; exercised through the
        public condition rather than pair data."""
        rng = random.Random(13)
        omz = ZZ13.one() - ZZ13.theta()
        for q in (2, 23):
            for Q in split_prime(ZZ13, q):
                t = build_character(Q)
                for delta in (0, 1):
                    for _ in range(5):
                        n = rng.randrange(UNIT_CLASS_COUNT)
                        beta = ZZ13.element([rng.randrange(-2, 3) for _ in range(12)])
                        w = _unit(n) * omz**delta * beta**7
                        cw = char_value(t, w)
                        if cw is None:
                            continue  # beta hit the prime; no condition
                        lhs = sum(e * c for e, c in zip(class_exps(n), t.unit_chars)) % 7
                        assert cw == (lhs + delta * t.chi_one_minus_zeta) % 7


def test_oracle_needs_no_character_tables(monkeypatch):
    """The exhaustive route stays independent of the discrete-log tables
    the linear route is built on."""
    from fermatkit import unitsieve

    cons = [SieveConstraint(q=11, mode="unconstrained")]
    linear = sieve_case_bits("divisible-13", cons)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use character tables")

    monkeypatch.setattr(unitsieve, "char_value", forbidden)
    monkeypatch.setattr(unitsieve, "build_character", forbidden)
    monkeypatch.setattr(unitsieve, "_sieve_character", forbidden)
    assert sieve_case_exhaustive_bits("divisible-13", cons) == linear


@pytest.mark.parametrize("q", [11, 29])
def test_class_residues_match_direct_powers(q):
    """The naive walk's split-table product lo[i % 49] * hi[i // 49] is
    the unit's own reduction raised to (N - 1)/7, at every prime above q."""
    primes = split_prime(ZZ13, q)
    exps = [(Q.norm - 1) // 7 for Q in primes]
    tables = [_class_tables(Q, E) for Q, E in zip(primes, exps)]
    rng = random.Random(q)
    for idx in [0, UNIT_CLASS_COUNT - 1] + rng.sample(range(1, UNIT_CLASS_COUNT - 1), 38):
        unit = _unit(idx)
        want = tuple((reduce_element(unit, Q) ** E).coeffs for Q, E in zip(primes, exps))
        assert _class_residues(tables, idx) == want


@pytest.mark.parametrize("q", [11, 23, 29])
def test_mask_routes_match_naive_walk(q):
    """Both mask routes against the per-class walk, at one unconstrained
    prime, in both descent cases."""
    cons = [SieveConstraint(q=q, mode="unconstrained")]
    for case in ("coprime-13", "divisible-13"):
        want = naive_sieve_bits(case, cons)
        assert sieve_case_bits(case, cons) == want, case
        assert sieve_case_exhaustive_bits(case, cons) == want, case


def _order_mod(q: int, r: int) -> int:
    return next(d for d in range(1, r) if pow(q, d, r) == 1)


def _via_norm(F, d: int, e: int):
    """x -> y^e for the norm y of x to F_{q^d}, on coefficient tuples of
    F = F_{q^f}: `_subfield_norm`, then `_memo_power`; e below q^d."""
    norm, power = _subfield_norm(F, d), _memo_power(F, d, e)
    return lambda x: power(norm(x))


def _power_via_norm(F, r: int):
    """x -> x^((N-1)/r) through the norm to F_{q^d}, d = ord_r(q)."""
    q = F.p
    d = _order_mod(q, r)
    return _via_norm(F, d, (q**d - 1) // r)


@pytest.mark.parametrize("q", [11, 19, 23, 29, 41, 547])
def test_norm_power_matches_plain_power(q):
    """x^((N-1)/r) through the norm to F_{q^d}, d = ord_r(q), equals the
    plain power for every prime factor r of N - 1, on 1, on random
    elements, on random c0 + c1 t (the resultant norm when d = 1) and on
    elements of the subfield F_{q^d}."""
    rng = random.Random(q)
    for Q in split_prime(ZZ13, q):
        F, n1 = Q.residue_field, Q.norm - 1
        xs = [F.one()] + [F.from_index(rng.randrange(1, F.order)) for _ in range(8)]
        xs += [F.from_index(rng.randrange(1, min(q * q, F.order))) for _ in range(4)]
        primes = factorize(n1)
        assert 7 in primes
        for r in primes:
            d = _order_mod(q, r)
            # y^((N-1)/(q^d-1)) lies in F_{q^d}, and 1 + it usually is not 0
            sub = [F.from_index(rng.randrange(1, F.order)) ** (n1 // (q**d - 1))
                   for _ in range(4)]
            power = _power_via_norm(F, r)
            for x in xs + sub + [x + 1 for x in sub if not (x + 1).is_zero]:
                assert power(x.coeffs) == (x ** (n1 // r)).coeffs, (Q.key, r, x)


@pytest.mark.parametrize("q", (11, 23, 29, 41))
def test_norm_power_memo_matches_fresh_calls(q):
    """One norm-and-power map shared by every pair, whose powers are
    memoised on the norm, gives what a fresh map (empty memo) gives, for
    every pair a + b zeta at every prime above q."""
    for Q in split_prime(ZZ13, q):
        F, pair = Q.residue_field, _pair_reduction(Q)
        shared = _power_via_norm(F, 7)
        reds = [pair(a, b) for a, b in residue_pairs(q)]
        for x in reds:
            if any(x):
                assert shared(x) == _power_via_norm(F, 7)(x), (Q.key, x)


def _demo_modular(q: int) -> SieveConstraint:
    """A modular constraint in the form of the proof sieve files: the
    demo Q(sqrt13) family against C_eq51's Euler targets at q."""
    fam = load_family(FIXTURES / "families" / "demo_sum_rule_sqrt13.json")
    return SieveConstraint(
        q=q, mode="modular", family=fam, targets=modular_targets_from_curve(curve_C(), q)
    )


def _direct_residues(Q, pairs) -> list:
    """The direct per-pair route: a + b zeta reduced at Q, then raised to
    the power (N-1)/7 in the full field; None where the pair lies in Q."""
    pair, F, e = _pair_reduction(Q), Q.residue_field, (Q.norm - 1) // 7
    return [(FFElement(F, x) ** e).coeffs if any(x) else None
            for x in (pair(a, b) for a, b in pairs)]


@pytest.mark.parametrize("mode,q", [("parity-only", 2)] + [
    ("unconstrained", q) for q in (11, 19, 23, 29, 41)
] + [("modular", 11), ("modular", 29)])
def test_pair_residues_match_the_direct_route(mode, q):
    """The one-pass residues (b^n times a line norm, one power per
    distinct norm) equal the direct per-pair route for every admissible
    pair at every prime above q: d = 1 at 29, d = 3 at 2, 11 and 23,
    d = 6 at 19, d = 2 at 41."""
    c = _demo_modular(q) if mode == "modular" else SieveConstraint(q=q, mode=mode)
    pairs = sorted(admissible_pairs(c))
    assert pairs
    for Q in split_prime(ZZ13, q):
        assert _pair_residues(Q, pairs) == _direct_residues(Q, pairs), Q.key


def test_pair_residues_none_where_the_pair_lies_in_q():
    """Above 547 = 1 mod 91 (twelve primes of degree 1, n = 1), the pairs
    a + b zeta with a = -b zeta_Q lie in Q: the one-pass route gives
    None exactly there, and agrees with the direct route on them and on
    a sample of the other pairs."""
    rng = random.Random(547)
    sample = [(rng.randrange(547), rng.randrange(1, 547)) for _ in range(60)]
    for Q in split_prime(ZZ13, 547):
        z = reduce_element(ZZ13.theta(), Q).coeffs[0]
        inside = [(-b * z % 547, b) for b in (1, 2, 546)]
        pairs = inside + sample + [(1, 0), (5, 0)]
        got = _pair_residues(Q, pairs)
        assert [v is None for v in got] == [(a + b * z) % 547 == 0 for a, b in pairs], Q.key
        assert got == _direct_residues(Q, pairs), Q.key


@pytest.mark.parametrize("q", (2, 11, 19, 23, 29, 41, 547))
def test_linear_norm_matches_itoh_tsujii(q):
    """The norm of x = c0 + c1 t to F_{q^d}, for every d | f, by the
    conjugates' symmetric functions (at d = 1 the modulus coefficients,
    at d = f x itself) equals the full-field power x^((N-1)/(q^d-1)),
    and N(x) N(w) equals the Itoh-Tsujii norm of the nonlinear x w.
    `_via_norm(F, d, 1)` gives the norm itself as a coefficient tuple;
    d = 1 is left out at q = 2, where F_2^* is trivial."""
    rng = random.Random(200 + q)
    for Q in split_prime(ZZ13, q):
        F, n1, f = Q.residue_field, Q.norm - 1, Q.fdeg
        pairs = [(1, 0), (0, 1), (q - 1, 1), (2 % q, q - 1)]
        pairs += [(rng.randrange(q), rng.randrange(1, q)) for _ in range(4)]
        xs = [F.element(list(c)) for c in pairs]
        pool = [F.from_index(rng.randrange(q * q, F.order)) for _ in range(6)] if f > 2 else []
        for d in (d for d in range(1, f + 1) if f % d == 0 and q**d > 2):
            norm = _via_norm(F, d, 1)
            for x in xs:
                nx = norm(x.coeffs)
                assert nx == (x ** (n1 // (q**d - 1))).coeffs, (Q.key, d, x)
                # w and x w nonlinear: both norms take the Itoh-Tsujii path
                ws = [w for w in pool if any((x * w).coeffs[2:])][:2]
                assert len(ws) == len(pool[:2])
                for w in ws:
                    xw = x * w
                    assert norm(xw.coeffs) == (FFElement(F, nx) * FFElement(
                        F, norm(w.coeffs))).coeffs, (Q.key, d, x, w)


@pytest.mark.parametrize("q", (2, 11, 19, 23, 29, 41))
def test_power_plan_matches_plain_power(q):
    """`_power_plan(F, e)` against plain `__pow__` on the exponents
    (q^d - 1)/r the character helpers use, on exponents with zero base-q
    digits (q^2, 5 q^2 + 3) and on ones with fewer digits than f."""
    F = split_prime(ZZ13, q)[0].residue_field
    f, rng = F.k, random.Random(300 + q)
    exps = {(q**d - 1) // r for d in range(1, f + 1) if f % d == 0
            for r in factorize(q**d - 1)}
    exps |= {1, q - 1, q**2, 5 * q**2 + 3, q ** (f - 1) + 1}
    exps |= {rng.randrange(1, q**d) for d in (2, 3, f) for _ in range(2)}
    xs = [F.one(), F.gen()] + [F.from_index(rng.randrange(1, F.order)) for _ in range(3)]
    for e in sorted(exps):
        plan = _power_plan(F, e)
        for x in xs:
            assert plan(x.coeffs) == (x**e).coeffs, (q, e, x)


def test_power_plan_shares_one_digit_chain():
    """(23^3 - 1)/7 = 1738 has base-23 digits 13, 6, 3: the plan takes
    5 multiplies for their powers (y^2, y^3, y^6, y^12, y^13), then two
    Frobenius maps and two multiplies, where the plain chain takes 15."""
    cached = split_prime(ZZ13, 23)[0].residue_field
    F = checked_field(cached.p, cached.modulus)
    kernel = F.mul_kernel()
    F.frobenius_kernel(1)
    calls = []

    def counted(a, b):
        calls.append(1)
        return kernel(a, b)

    F._kernel = counted
    plan = _power_plan(F, 1738)
    x = F.from_index(123456)
    assert plan(x.coeffs) == (x**1738).coeffs
    assert len(calls) == 7 + 15


@pytest.mark.parametrize("q", (2, 11, 23, 29, 53))
def test_pair_reduction_by_linearity(q):
    """The oracle's a + b zeta_Q on tuples equals the reduction of the
    pair element, for every pair, at every prime above q (twelve of
    degree 1 above 53 = 1 mod 13)."""
    primes = split_prime(ZZ13, q)
    if q == 53:
        assert [Q.fdeg for Q in primes] == [1] * 12
    for Q in primes:
        pair = _pair_reduction(Q)
        for a in range(q):
            for b in range(q):
                assert pair(a, b) == reduce_element(_pair_element(a, b), Q).coeffs


def _count_oracle_work(monkeypatch, q):
    """Empty the oracle's caches at q and count, per prime key, the calls
    of each residue field's kernel; also the `FFElement.__pow__` calls."""
    from fermatkit import unitsieve

    unitsieve._exhaustive_residues.cache_clear()
    unitsieve._seventh_powers.cache_clear()
    calls, pows = {}, []
    for Q in split_prime(ZZ13, q):
        kernel, calls[Q.key] = Q.residue_field.mul_kernel(), 0

        def counted(a, b, kernel=kernel, key=Q.key):
            calls[key] += 1
            return kernel(a, b)

        monkeypatch.setattr(Q.residue_field, "_kernel", counted)
    plain = FFElement.__pow__

    def counted_pow(x, e):
        pows.append(e)
        return plain(x, e)

    monkeypatch.setattr(FFElement, "__pow__", counted_pow)
    return calls, pows


def test_oracle_work_count(monkeypatch):
    """A work count, not a timing: the exhaustive route at q = 23, from
    an empty per-constraint cache, makes at most 2300 kernel multiplies
    and 2 `FFElement.__pow__` calls (the fields' maps x -> x^q, when not
    yet built). With a full-field power per pair and unit it made 18,616
    and 1,070; the linear norms, the Frobenius-Horner powers and the
    pairs formed on tuples made 7,958; one power per distinct norm (143
    of the 528 pairs' at each prime) made about 2,540; forming the
    pairs' norms from the 23 line norms, with the units' powers in a
    memo of their own, made about 2,580, and with one per-prime map
    (`_seventh_powers`, cleared here too) holding the units' and pairs'
    powers in one memo it made about 2,540; with the products of 7th
    roots of unity memoised per prime it makes about 2,204."""
    calls, pows = _count_oracle_work(monkeypatch, 23)
    cons = [SieveConstraint(q=23, mode="unconstrained")]
    bits = sieve_case_exhaustive_bits("divisible-13", cons)
    assert sum(calls.values()) <= 2300, calls
    assert len(pows) <= 2, len(pows)
    monkeypatch.undo()
    assert bits == sieve_case_bits("divisible-13", cons)


def test_oracle_work_count_q29(monkeypatch):
    """At q = 29 (four primes of degree 3, d = 1) the oracle makes at most
    300 kernel multiplies over both descent cases, from empty caches: it
    made 1,028 before its products of 7th roots of unity were memoised,
    and makes about 264. Past the `_seventh_powers` set-up, the pairs'
    residues take none at d = 1, and the unit rows, the class masks and
    the (1 - zeta) relabel at most 49 per prime, one per ordered pair of
    7th roots of unity."""
    from fermatkit import unitsieve

    calls, _ = _count_oracle_work(monkeypatch, 29)
    for Q in split_prime(ZZ13, 29):
        unitsieve._seventh_powers(Q)
    setup = dict(calls)
    cons = [SieveConstraint(q=29, mode="unconstrained")]
    bits = {case: sieve_case_exhaustive_bits(case, cons) for case in ("coprime-13", "divisible-13")}
    assert len(calls) == 4
    assert sum(calls.values()) <= 300, calls
    assert all(calls[key] - setup[key] <= 49 for key in calls), (setup, calls)
    monkeypatch.undo()
    assert bits == {case: sieve_case_bits(case, cons) for case in ("coprime-13", "divisible-13")}


@pytest.mark.parametrize("q", PROOF_SET_QS)
def test_char_targets_line_shift_matches_pairs(q):
    """The unconstrained target set, built as line tuples shifted by the
    scalar tuples, equals the pair-by-pair set of chi tuples."""
    c = SieveConstraint(q=q, mode="unconstrained")
    tables = [build_character(Q) for Q in split_prime(ZZ13, q)]
    want = {tuple(_pair_char(t, a, b) for t in tables) for a, b in admissible_pairs(c)}
    assert _char_targets(tables, c) == want


# ---------------------------------------------------------------------------
# the frozen generator convention

# Index of the lex-least generator g and the coefficients of
# omega = g^((N-1)/7) at the ten proof-set primes, as first computed by
# the naive full-power search. The survivor bitsets do not depend on the
# choice of omega (omega^k relabels every character by the same factor),
# so these literals are what pins the character values.
FROZEN_OMEGA = {
    "2.0": (11, (1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0)),
    "11.0": (19, (6, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1)),
    "19.0": (21, (15, 0, 14, 11, 3, 7, 18, 18, 7, 3, 11, 14)),
    "23.0": (28, (4, 19, 8, 0, 11, 3)),
    "23.1": (534, (7, 8, 9, 2, 4, 18)),
    "29.0": (30, (7, 0, 0)),
    "29.1": (30, (25, 0, 0)),
    "29.2": (30, (7, 0, 0)),
    "29.3": (30, (25, 0, 0)),
    "41.0": (45, (23, 0, 32, 0, 0, 32, 32, 32, 32, 0, 0, 32)),
}


def _generator(F) -> FFElement:
    return FFElement(F, first_generator(F.p, F.k, F.mul_kernel()))


@pytest.mark.parametrize("q", PROOF_SET_QS + (547,))
def test_generator_matches_naive_search(q):
    """`first_generator`, powers by `chain_pow` on coefficient tuples,
    picks the same generator as the index-order search with FFElement
    powers."""
    for Q in split_prime(ZZ13, q):
        F = Q.residue_field
        assert _generator(F) == naive_lex_least_generator(F), Q.key


def test_frozen_omega_literals():
    primes = [Q for q in PROOF_SET_QS for Q in split_prime(ZZ13, q)]
    assert sorted(Q.key for Q in primes) == sorted(FROZEN_OMEGA)
    for Q in primes:
        index, omega = FROZEN_OMEGA[Q.key]
        assert _generator(Q.residue_field).index() == index, Q.key
        assert build_character(Q).omega.coeffs == omega, Q.key


def test_log_table_and_omega_share_one_generator():
    """At 29.0 (F_{29^3}) slot 1 of the walk of `_log_table`, g^1, is the
    generator behind the frozen omega, index 30, and its (N-1)/7 power is
    the omega of `build_character`."""
    Q = next(Q for Q in split_prime(ZZ13, 29) if Q.key == "29.0")
    F, T = Q.residue_field, _field_tables(Q.residue_field)
    g = F.element([int.from_bytes(c[T.width : 2 * T.width], "little") for c in T.walk])
    assert g.index() == FROZEN_OMEGA[Q.key][0] == 30
    assert g ** ((Q.norm - 1) // 7) == build_character(Q).omega


@pytest.mark.parametrize("q", PROOF_SET_QS + (547,))
def test_sieve_base_matches_naive_walk(q):
    """The sieve tables' omega is x^((N-1)/7) for the first x in index
    order with that power not 1, the power taken in the full field."""
    for Q in split_prime(ZZ13, q):
        F, E = Q.residue_field, (Q.norm - 1) // 7
        want = next(y for y in (F.from_index(i) ** E for i in range(1, F.order)) if y != F.one())
        assert _sieve_character(Q).omega == want, Q.key


def _proof_constraint(q):
    return SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")


@pytest.mark.parametrize("q", PROOF_SET_QS)
def test_local_survivors_do_not_depend_on_the_base(q, monkeypatch):
    """The sieve's own tables and the frozen-omega tables give the same
    survivor bits, in both descent cases, although their bases differ
    at some prime above every q."""
    from fermatkit import unitsieve

    c = _proof_constraint(q)
    bits = [_local_survivors(c, delta) for delta in (0, 1)]
    monkeypatch.setattr(unitsieve, "_sieve_character", build_character)
    assert [_local_survivors(c, delta) for delta in (0, 1)] == bits
    assert any(_sieve_character(Q).omega != build_character(Q).omega
               for Q in split_prime(ZZ13, q))


def test_sieve_and_rank_skip_the_generator_search(monkeypatch):
    """From empty table caches, the proof-set sieve and both rank checks
    run with no generator search and give the same results."""
    from fermatkit import unitsieve
    from fermatkit.cli import run_checks

    cons = [_proof_constraint(q) for q in PROOF_SET_QS]
    names = ["unit-rank-verified", "unit-classes-and-rank-stated"]
    want_bits = {case: sieve_case_bits(case, cons) for case in ("coprime-13", "divisible-13")}
    want_report = run_checks(names=names).to_dict(with_timings=False)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sieve must not search for a generator")

    monkeypatch.setattr(unitsieve, "first_generator", forbidden)
    unitsieve.build_character.cache_clear()
    unitsieve._sieve_character.cache_clear()
    for case, bits in want_bits.items():
        assert sieve_case_bits(case, cons) == bits
    report = run_checks(names=names)
    assert report.to_dict(with_timings=False) == want_report
    assert [c.status for c in report.checks] == ["pass", "fail"]  # the stated rank 5 is a known defect


@pytest.mark.parametrize("q", PROOF_SET_QS + (547,))
def test_char_value_is_dlog_of_plain_power(q):
    """chi_Q(x) is the k with reduce(x)^((N-1)/7) = omega^k, the power
    taken in the full field, on random elements at every prime above q."""
    rng = random.Random(100 + q)
    for Q in split_prime(ZZ13, q):
        t = build_character(Q)
        subgroup = [(t.omega**k).coeffs for k in range(7)]
        xs = [ZZ13.element([rng.randrange(-q, q) for _ in range(12)]) for _ in range(12)]
        xs.append(ZZ13.from_int(q))  # lies in Q
        for x in xs:
            red = reduce_element(x, Q)
            want = None if red.is_zero else subgroup.index((red ** ((Q.norm - 1) // 7)).coeffs)
            assert char_value(t, x) == want, (Q.key, x)


def test_character_work_count(monkeypatch):
    """A work count, not a timing: `unit-rank-verified` from empty table
    caches makes at most 20 `FFElement.__pow__` calls. It made 1237
    when the generator test and every character were full-field powers,
    and 369 through subfield norms with int powers in F_q. It makes 16
    in a fresh process, all of them t^q in `frobenius_kernel`: one per
    residue field above 2, 11, 19, 23, 29 and 41, when its first
    Frobenius map is built (fewer once the fields hold their maps), and
    one per ring F_q[x]/(Phi_13) that factoring Phi_13 mod those six q
    builds for its distinct-degree steps. The
    check reads the sieve's own base (`_sieve_character`) and searches
    no generator; `first_generator`, behind the frozen omega, takes its
    powers by `chain_pow` on coefficient tuples, not by `__pow__`."""
    from fermatkit import unitsieve
    from fermatkit.cli import run_checks
    calls = []
    plain = FFElement.__pow__

    def counted(self, e):
        calls.append(e)
        return plain(self, e)

    monkeypatch.setattr(FFElement, "__pow__", counted)
    unitsieve.build_character.cache_clear()
    unitsieve._sieve_character.cache_clear()
    report = run_checks(names=["unit-rank-verified"])
    assert report.checks[0].status == "pass"
    assert len(calls) <= 20, len(calls)


def test_survivor_bits_match_per_class_loop():
    """The mask combiner against a plain per-class loop, on target tuples
    with None entries, over the four primes above 29."""
    tables = [build_character(Q) for Q in split_prime(ZZ13, 29)]
    masks = [_char_masks(t, t.chi_one_minus_zeta) for t in tables]
    rng = random.Random(29)
    targets = [(None, None, None, None)] + [
        tuple(rng.choice([None, rng.randrange(7)]) for _ in tables) for _ in range(12)
    ]

    def values(i):
        e = class_exps(i)
        return [(sum(map(int.__mul__, e, t.unit_chars)) + t.chi_one_minus_zeta) % 7
                for t in tables]

    for chosen in (targets[1:], targets):
        want = 0
        for i in range(UNIT_CLASS_COUNT):
            vals = values(i)
            if any(all(v is None or v == w for v, w in zip(t, vals)) for t in chosen):
                want |= 1 << i
        assert _survivor_bits(masks, chosen) == want
    assert _survivor_bits(masks, targets) == ALL_CLASSES
    assert _survivor_bits(masks, []) == 0


def test_bits_and_class_sets_agree():
    cons = [SieveConstraint(q=2, mode="parity-only")]
    bits = sieve_case_bits("coprime-13", cons)
    idx = class_indices(bits)
    assert idx == sorted(idx) and len(idx) == bits.bit_count() == 2401
    assert {u.index for u in sieve_case("coprime-13", cons)} == set(idx)
    assert {u.index for u in sieve_case_exhaustive("coprime-13", cons)} == set(idx)
    assert class_indices(0) == [] and class_indices(ALL_CLASSES) == list(range(16807))


def test_class_indices_match_the_digit_comprehension():
    """The 0/1-byte selection against the plain walk over the binary
    digits, least significant first."""
    def by_digits(bits):
        return [i for i, c in enumerate(reversed(f"{bits:b}")) if c == "1"]

    rng = random.Random(16807)
    cases = [0, ALL_CLASSES, 1, 1 << 16806, 1 | 1 << 16806]
    cases += [rng.getrandbits(UNIT_CLASS_COUNT) for _ in range(8)]
    cases += [rng.getrandbits(UNIT_CLASS_COUNT) & rng.getrandbits(UNIT_CLASS_COUNT)
              for _ in range(8)]
    cases += [rng.getrandbits(n) for n in (1, 7, 64, 1000)]
    for bits in cases:
        assert class_indices(bits) == by_digits(bits), bits.bit_length()
    assert class_indices(1 << 16806) == [16806]


class TestSurvivorSet:
    """`sieve_case` and `sieve_case_exhaustive` return the survivors as a
    tuple of UnitClass, in increasing index order."""

    @pytest.mark.parametrize("q,route,count", [
        (11, sieve_case_exhaustive, 14406),
        (23, sieve_case, 4116),
    ], ids=["oracle-q11", "linear-q23"])
    def test_iteration_sets_only_the_index(self, monkeypatch, q, route, count):
        """A record is its index and nothing else, set in ascending order;
        no class's exponents are computed."""
        import fermatkit.unitsieve as us

        cons = [SieveConstraint(q=q, mode="unconstrained")]
        assert UnitClass.__bases__ == (object,) and UnitClass.__slots__ == ("index",)
        assert [k for k, v in vars(UnitClass).items() if callable(v)] == ["__init__"]
        with monkeypatch.context() as m:
            m.setattr(us, "class_exps", lambda n: pytest.fail("class_exps called"))
            items = route("divisible-13", cons)
        want = class_indices(sieve_case_bits("divisible-13", cons))
        assert type(items) is tuple and len(items) == count
        assert want == sorted(want) and [u.index for u in items] == want
        assert all(type(u) is UnitClass for u in items)

    @pytest.mark.parametrize("q", (11, 23))
    def test_routes_equal_as_views(self, q):
        cons = [SieveConstraint(q=q, mode="unconstrained")]
        for case in ("coprime-13", "divisible-13"):
            slow, fast = sieve_case_exhaustive(case, cons), sieve_case(case, cons)
            assert type(slow) is tuple and type(fast) is tuple, case
            bits = sieve_case_bits(case, cons)
            assert [u.index for u in slow] == [u.index for u in fast] == class_indices(bits), case


def gauss_jordan_rank(rows) -> int:
    """Rank over F_7 by plain row reduction, the naive oracle for the
    kernel count of `generator_independence_rank`."""
    m, rank = [list(r) for r in rows], 0
    for col in range(5):
        sel = next((i for i in range(rank, len(m)) if m[i][col] % 7), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = pow(m[rank][col], 5, 7)  # inverse mod 7
        m[rank] = [v * inv % 7 for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] % 7:
                f = m[i][col]
                m[i] = [(a - f * b) % 7 for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestRank:
    def test_kernel_count_matches_row_reduction(self):
        primes = [P for q in (2, 11, 19, 23, 29, 41) for P in split_prime(ZZ13, q)]
        rng = random.Random(41)
        for n in (1, 1, 2, 2, 3, 3, 4, 5, 6):
            chosen = rng.sample(primes, n)
            want = gauss_jordan_rank([build_character(Q).unit_chars for Q in chosen])
            assert generator_independence_rank(chosen) == want, [Q.key for Q in chosen]

    def test_verified_values(self):
        primes = [P for q in (2, 11, 23, 29) for P in split_prime(ZZ13, q)]
        assert generator_independence_rank(primes) == 4
        proof = [P for q in (2, 11, 19, 23, 29, 41) for P in split_prime(ZZ13, q)]
        assert generator_independence_rank(proof) == 5

    def test_single_prime_bound(self):
        one = [split_prime(ZZ13, 29)[0]]
        assert generator_independence_rank(one) <= 1

    def test_empty(self):
        assert generator_independence_rank([]) == 0


class TestBasisIndependence:
    def test_survivors_agree_under_change_of_basis(self):
        """Any basis of the same (Z/7)-span gives the same surviving units:
        rerun one local sieve in a transformed generator basis and map the
        exponent vectors back."""
        M = [  # unit upper triangular, invertible mod 7; columns = new gens
            [1, 1, 0, 0, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
        gens = cyclotomic_unit_generators()
        new_gens = []
        for j in range(5):
            acc = ZZ13.one()
            for a in range(5):
                acc = acc * gens[a] ** M[a][j]
            new_gens.append(acc)

        constraint = SieveConstraint(q=23, mode="unconstrained")
        standard = {u.index for u in sieve_case("divisible-13", [constraint])}

        primes = split_prime(ZZ13, 23)
        tables = [build_character(Q) for Q in primes]
        # chi of the new generators, verified against direct evaluation
        new_chars = []
        for t in tables:
            row = []
            for j, v in enumerate(new_gens):
                via_matrix = sum(M[a][j] * t.unit_chars[a] for a in range(5)) % 7
                assert char_value(t, v) == via_matrix
                row.append(via_matrix)
            new_chars.append(tuple(row))

        masks = [
            _class_masks([[c * e % 7 for e in range(7)] for c in row],
                         t.chi_one_minus_zeta, lambda x, y: (x + y) % 7)
            for row, t in zip(new_chars, tables)
        ]
        targets = {
            tuple(char_value(t, _pair_element(a, b)) for t in tables)
            for a, b in admissible_pairs(constraint)
        }
        transformed = set()
        for idx in class_indices(_survivor_bits(masks, targets)):
            f = class_exps(idx)
            e = tuple(sum(M[a][j] * f[j] for j in range(5)) % 7 for a in range(5))
            transformed.add(class_index(e))
        assert transformed == standard


def test_character_tables_thread_safe_and_shared():
    import threading

    got = []

    def work():
        Q = split_prime(ZZ13, 23)[0]
        t = build_character(Q)
        got.append((t, t.line_chars))

    threads = [threading.Thread(target=work) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert len(got) == 6
    assert all(t.unit_chars == got[0][0].unit_chars for t, _ in got)
    assert all(t.omega == got[0][0].omega for t, _ in got)
    assert all(line == got[0][1] for _, line in got)
