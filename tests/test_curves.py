import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatkit.curves import (
    BadReductionError,
    EllipticCurveNF,
    EulerFactorG2,
    HyperellipticCurveNF,
    NotRMSplitError,
    SingularReductionError,
    count_weierstrass_points,
    ec_invariants,
    ec_reduction_type,
    ec_trace,
    frobenius_projective_order,
    g2_euler_factor,
    g2_rm_split,
    hyp_count_points,
    igusa_clebsch,
    rm_reduce_mod_p7,
    rm_residues_mod_p7,
    rm_split_to_euler,
    weighted_pp_equal,
)
from fermatkit.curves import _count_sextic_ext2_prime, _prime_count, _prime_field_tables
from fermatkit.exactarith import FiniteField, QuadExt, UniPoly, field_nonsquare
from fermatkit.numberfield import (
    QElement,
    get_order,
    prime_by_key,
    split_prime,
)

K13 = get_order("Qsqrt13")
Z2 = get_order("Zsqrt2")
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


def brute_count_weierstrass(coeffs, field):
    """Independent oracle: test the curve equation at every (x, y)."""
    a1, a2, a3, a4, a6 = coeffs
    n = 1
    for x in field.elements():
        rhs = ((x + a2) * x + a4) * x + a6
        for y in field.elements():
            if y * y + a1 * x * y + a3 * y == rhs:
                n += 1
    return n


def brute_count_sextic(coeffs, field):
    """Independent oracle: per-x, per-y solvability, same infinity rule."""
    n = 0
    for x in field.elements():
        v = coeffs[6]
        for c in reversed(coeffs[:6]):
            v = v * x + c
        for y in field.elements():
            if y * y == v:
                n += 1
    lead = coeffs[6]
    if lead.is_zero:
        return n + 1
    for y in field.elements():
        if y * y == lead and not y.is_zero:
            n += 2
            break
    return n


def _naive_one_plus_chi(v, squares):
    return 1 if v.is_zero else 2 if v.index() in squares else 0


def _naive_squares(field):
    return {(y * y).index() for y in field.elements() if not y.is_zero}


def naive_count_weierstrass(coeffs, field):
    """Oracle: the enumeration that Zech-log counting replaced. Each x
    evaluates x^3 + a2 x^2 + a4 x + a6 + (a1 x + a3)^2 / 4 with generic
    field arithmetic and looks it up in the set {y*y} (odd p only)."""
    a1, a2, a3, a4, a6 = coeffs
    squares = _naive_squares(field)
    inv4 = field.from_int(4).inverse()
    n = 1
    for x in field.elements():
        c = a1 * x + a3
        n += _naive_one_plus_chi(((x + a2) * x + a4) * x + a6 + c * c * inv4, squares)
    return n


def naive_count_sextic(coeffs, field):
    """Oracle: the same enumeration for y^2 = f(x), plus 1 + chi(c6) at infinity."""
    squares = _naive_squares(field)
    n = _naive_one_plus_chi(coeffs[6], squares)
    for x in field.elements():
        v = coeffs[6]
        for c in reversed(coeffs[:6]):
            v = v * x + c
        n += _naive_one_plus_chi(v, squares)
    return n


# The plain-integer F_{q^2} enumeration that the norm-polynomial count
# replaced, kept unchanged as its oracle: every x = xa + xb t of
# F_q[t]/(t^2 - s) by Horner's rule, looked up in the set of nonzero squares.


@lru_cache(maxsize=None)
def _qext_prime_squares(q, s):
    """Encodings a + q*b of nonzero squares of F_q[t]/(t^2 - s)."""
    return frozenset(
        (a * a + b * b * s) % q + q * ((2 * a * b) % q)
        for a in range(q)
        for b in range(q)
        if a or b
    )


def _smallest_nonsquare(q):
    for s in range(2, q):
        if pow(s, (q - 1) // 2, q) == q - 1:
            return s
    raise AssertionError("no non-square mod an odd prime")


def enum_count_sextic_ext2_prime(c, q) -> int:
    """Count over F_{q^2} built as F_q[t]/(t^2 - s), plain integers."""
    s = _smallest_nonsquare(q)
    squares = _qext_prime_squares(q, s)
    count = 0
    for xa in range(q):
        for xb in range(q):
            va, vb = c[6] % q, 0
            for k in range(5, -1, -1):
                va, vb = (va * xa + vb * xb * s + c[k]) % q, (va * xb + vb * xa) % q
            if va == 0 and vb == 0:
                count += 1
            elif va + q * vb in squares:
                count += 2
    # every element of F_q is a square in F_{q^2}, so a nonzero leading
    # coefficient always contributes both points at infinity here
    count += 1 if c[6] % q == 0 else 2
    return count


def horner_prime_count(poly, q):
    """Oracle for `_prime_count`: Horner's rule at each x, Euler's criterion."""
    count = 0
    for x in range(q):
        v = 0
        for a in reversed(poly):
            v = (v * x + a) % q
        count += 1 if v == 0 else 2 if pow(v, (q - 1) // 2, q) == 1 else 0
    return count


def _prime_nonsquare(q):
    return field_nonsquare(FiniteField(q, UniPoly([0, 1]))).coeffs[0]


class TestInvariants:
    def test_textbook_curve(self):
        E = EllipticCurveNF(
            a1=K13.zero(), a2=K13.zero(), a3=K13.zero(), a4=K13.one(), a6=K13.zero()
        )
        c4, c6, disc = ec_invariants(E)
        assert (c4, c6, disc) == (K13.from_int(-48), K13.zero(), K13.from_int(-64))

    def test_identity_random(self):
        rng = random.Random(4)
        made = 0
        while made < 12:
            try:
                E = EllipticCurveNF(
                    *(K13.element([rng.randrange(-6, 7), rng.randrange(-6, 7)]) for _ in range(5))
                )
            except ValueError:
                continue
            made += 1
            c4, c6, disc = ec_invariants(E)
            assert c4**3 - c6**2 == 1728 * disc

    def test_fixture_valuations(self):
        from fermatkit.numberfield import valuation_at

        P2 = split_prime(K13, 2)[0]
        c4, c6, disc = ec_invariants(E_FIX)
        assert (
            valuation_at(c4, P2),
            valuation_at(c6, P2),
            valuation_at(disc, P2),
        ) == (5, 5, 4)

    def test_singular_model_rejected(self):
        with pytest.raises(ValueError):
            EllipticCurveNF(
                a1=K13.zero(), a2=K13.zero(), a3=K13.zero(), a4=K13.zero(), a6=K13.zero()
            )


class TestReductionType:
    def test_fixture_cases(self):
        assert ec_reduction_type(E_FIX, split_prime(K13, 5)[0]) == "good"
        assert ec_reduction_type(E_FIX, split_prime(K13, 2)[0]) == "additive"

    def test_additive_toy(self):
        q = 5
        E = EllipticCurveNF(
            a1=K13.zero(), a2=K13.zero(), a3=K13.zero(),
            a4=K13.from_int(q * q), a6=K13.from_int(q * q),
        )
        assert ec_reduction_type(E, split_prime(K13, q)[0]) == "additive"

    def test_multiplicative_toy(self):
        # y^2 + xy = x^3 + 5 over Qsqrt13 at the inert prime (5)
        E = EllipticCurveNF(
            a1=K13.one(), a2=K13.zero(), a3=K13.zero(), a4=K13.zero(), a6=K13.from_int(5)
        )
        assert ec_reduction_type(E, split_prime(K13, 5)[0]) == "multiplicative"


class TestPointCounting:
    def test_supersingular_example(self):
        F5 = FiniteField(5, UniPoly([0, 1]))
        coeffs = [F5.zero(), F5.zero(), F5.zero(), F5.zero(), F5.one()]
        assert count_weierstrass_points(coeffs, F5) == 6  # a = 0

    def test_trace_on_fixture_at_5(self):
        P = split_prime(K13, 5)[0]
        a = ec_trace(E_FIX, P)
        assert a * a <= 4 * P.norm
        # against the exhaustive oracle
        coeffs = [
            __import__("fermatkit.numberfield", fromlist=["reduce_element"]).reduce_element(v, P)
            for v in (E_FIX.a1, E_FIX.a2, E_FIX.a3, E_FIX.a4, E_FIX.a6)
        ]
        assert P.norm + 1 - brute_count_weierstrass(coeffs, P.residue_field) == a

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReductionError):
            ec_trace(E_FIX, split_prime(K13, 2)[0])

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 3), (5, 2)])
    def test_counting_vs_oracle(self, p, k):
        rng = random.Random(100 * p + k)
        if k == 1:
            field = FiniteField(p, UniPoly([0, 1]))
        else:
            from fermatkit.exactarith import poly_factor_mod_p

            # build an irreducible of degree k by factoring x^(p^k) - x pieces
            mod = None
            while mod is None:
                cand = UniPoly([rng.randrange(p) for _ in range(k)] + [1])
                fs = poly_factor_mod_p(cand, p)
                if len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == k:
                    mod = cand
            field = FiniteField(p, mod, check=False)
        for _ in range(4):
            coeffs = [field.from_index(rng.randrange(field.order)) for _ in range(5)]
            assert count_weierstrass_points(coeffs, field) == brute_count_weierstrass(
                coeffs, field
            )

    @pytest.mark.parametrize("p,modulus", [(5, [3, 3, 0, 1]), (11, [4, 1, 0, 1])])
    def test_cubic_extension_vs_naive_oracle(self, p, modulus):
        field = FiniteField(p, UniPoly(modulus))  # F_{5^3}, F_{11^3}
        rng = random.Random(p)
        for _ in range(5):
            coeffs = [field.from_index(rng.randrange(field.order)) for _ in range(5)]
            assert count_weierstrass_points(coeffs, field) == naive_count_weierstrass(
                coeffs, field
            )

    def test_extension_count_relation(self):
        # #E(F_{N^2}) = N^2 + 1 - (a^2 - 2N)
        P = split_prime(K13, 5)[0]
        a = ec_trace(E_FIX, P)
        F = P.residue_field
        E2 = QuadExt(F, field_nonsquare(F))
        from fermatkit.numberfield import reduce_element

        coeffs = [
            E2.embed(reduce_element(v, P))
            for v in (E_FIX.a1, E_FIX.a2, E_FIX.a3, E_FIX.a4, E_FIX.a6)
        ]
        n2 = count_weierstrass_points(coeffs, E2)
        N = P.norm
        assert n2 == N * N + 1 - (a * a - 2 * N)


class TestHyperelliptic:
    def test_degree5_example_vs_oracle(self):
        # y^2 = x^5 + 1 over F_7: degree drop, one point at infinity
        order = K13
        coeffs = tuple(
            order.from_int(c) for c in (1, 0, 0, 0, 0, 1, 0)
        )
        C = HyperellipticCurveNF(coeffs=coeffs)
        P = prime_by_key(order, "7.0")
        got = hyp_count_points(C, P, 1)
        red = [
            __import__("fermatkit.numberfield", fromlist=["reduce_element"]).reduce_element(c, P)
            for c in coeffs
        ]
        assert got == brute_count_sextic(red, P.residue_field)

    def test_fixture_counts_at_3(self):
        v2 = prime_by_key(K13, "3.0")  # (u)
        v1 = prime_by_key(K13, "3.1")  # (u - 1)
        assert hyp_count_points(C_FIX, v2, 1) == 4
        assert hyp_count_points(C_FIX, v1, 1) == 0
        # over F_9: N^2 + 1 - (a1^2 - 2 a2) with (a1, a2) = (0, 4) resp. (4, 8)
        assert hyp_count_points(C_FIX, v2, 2) == 18
        assert hyp_count_points(C_FIX, v1, 2) == 10

    @pytest.mark.parametrize("key", ["3.0", "3.1", "17.0", "5.0"])
    def test_counts_vs_oracle(self, key):
        from fermatkit.numberfield import reduce_element

        P = prime_by_key(K13, key)
        base = P.residue_field
        red = [reduce_element(c, P) for c in C_FIX.coeffs]
        assert hyp_count_points(C_FIX, P, 1) == brute_count_sextic(red, base)
        if base.order <= 17:  # keep the N^2 oracle affordable
            ext = QuadExt(base, field_nonsquare(base))
            red2 = [ext.embed(c) for c in red]
            assert hyp_count_points(C_FIX, P, 2) == brute_count_sextic(red2, ext)

    @pytest.mark.parametrize("key", ["5.0", "7.0"])
    def test_inert_counts_vs_naive_oracle(self, key):
        # F_{p^2} and its QuadExt F_{p^4}: the Zech-log path at ext 1 and 2
        from fermatkit.numberfield import reduce_element

        P = prime_by_key(K13, key)
        base = P.residue_field
        assert P.fdeg == 2
        red = [reduce_element(c, P) for c in C_FIX.coeffs]
        assert hyp_count_points(C_FIX, P, 1) == naive_count_sextic(red, base)
        ext = QuadExt(base, field_nonsquare(base))
        red2 = [ext.embed(c) for c in red]
        assert hyp_count_points(C_FIX, P, 2) == naive_count_sextic(red2, ext)

    @pytest.mark.parametrize("key", ["23.0", "23.1", "43.0"])
    def test_split_ext2_vs_naive_oracle(self, key):
        # F_{q^2} at split primes past the brute-force oracle's reach
        from fermatkit.numberfield import reduce_element

        P = prime_by_key(K13, key)
        base = P.residue_field
        assert P.fdeg == 1
        ext = QuadExt(base, field_nonsquare(base))
        red2 = [ext.embed(reduce_element(c, P)) for c in C_FIX.coeffs]
        assert hyp_count_points(C_FIX, P, 2) == naive_count_sextic(red2, ext)

    def test_leading_coefficient_rule_vs_naive_oracle(self):
        # over F_25: c6 = 0 (one point at infinity), a non-square c6 (none)
        # and a nonzero square c6 (two)
        from fermatkit.numberfield import reduce_element

        P = prime_by_key(K13, "5.0")
        base = P.residue_field
        for c6 in (K13.from_int(5), K13.element([0, 1]), K13.element([3, 1])):
            C = HyperellipticCurveNF(coeffs=C_FIX.coeffs[:6] + (c6,))
            red = [reduce_element(c, P) for c in C.coeffs]
            assert hyp_count_points(C, P, 1) == naive_count_sextic(red, base)

    def test_twist_equal_over_quadratic_extension(self):
        P = prime_by_key(K13, "17.0")
        s = 3  # a non-square mod 17 (3^8 = 6561 = 385*17 + 16 = -1)
        assert pow(s, 8, 17) == 16
        twisted = HyperellipticCurveNF(coeffs=tuple(c * s for c in C_FIX.coeffs))
        assert hyp_count_points(C_FIX, P, 2) == hyp_count_points(twisted, P, 2)
        n1 = hyp_count_points(C_FIX, P, 1)
        n1t = hyp_count_points(twisted, P, 1)
        assert n1 + n1t == 2 * (P.norm + 1)

    def test_char2_refused(self):
        with pytest.raises(SingularReductionError):
            hyp_count_points(C_FIX, split_prime(K13, 2)[0], 1)

    def test_singular_reduction_refused(self):
        # C has bad reduction at the ramified prime above 13
        with pytest.raises(SingularReductionError):
            hyp_count_points(C_FIX, split_prime(K13, 13)[0], 1)


SPLIT_EXT2_PRIMES = (3, 5, 7, 11, 13, 23, 199)


class TestNormPolynomialCount:
    """`_count_sextic_ext2_prime` against the enumeration it replaced, and
    the packed prime-field evaluator against Horner's rule."""

    @pytest.mark.parametrize("q", SPLIT_EXT2_PRIMES)
    def test_nonsquare_matches_smallest(self, q):
        assert _prime_nonsquare(q) == _smallest_nonsquare(q)

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.sampled_from(SPLIT_EXT2_PRIMES),
        c=st.lists(st.integers(-(10**6), 10**6), min_size=7, max_size=7),
        drop_lead=st.booleans(),
    )
    def test_random_sextics_vs_enumeration(self, q, c, drop_lead):
        if drop_lead:
            c[6] = 0
        assert _count_sextic_ext2_prime(c, q, _prime_nonsquare(q)) == (
            enum_count_sextic_ext2_prime(c, q)
        )

    @pytest.mark.parametrize("q", SPLIT_EXT2_PRIMES)
    def test_degenerate_sextics_vs_enumeration(self, q):
        s = _prime_nonsquare(q)
        rng = random.Random(q)
        g = [rng.randrange(q) for _ in range(3)] + [1]
        g_squared = [sum(g[i] * g[k - i] for i in range(4) if 0 <= k - i < 4) for k in range(7)]
        cases = {
            "zero": [0] * 7,
            "constant non-square": [s] + [0] * 6,
            "repeated roots": g_squared,
            "degree five": [rng.randrange(q) for _ in range(6)] + [q],
        }
        for name, c in cases.items():
            assert _count_sextic_ext2_prime(c, q, s) == enum_count_sextic_ext2_prime(c, q), name
        # f = 0: each of the q^2 affine x once, one point at infinity;
        # a constant non-square of F_q is a square in F_{q^2}
        assert _count_sextic_ext2_prime(cases["zero"], q, s) == q * q + 1
        assert _count_sextic_ext2_prime(cases["constant non-square"], q, s) == 2 * q * q + 1

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from((3, 5, 7, 11, 13, 23, 101, 199)),
        poly=st.lists(st.integers(-(10**9), 10**9), min_size=0, max_size=13),
    )
    def test_prime_count_vs_horner(self, q, poly):
        assert _prime_count(poly, q) == horner_prime_count(poly, q)

    @pytest.mark.parametrize("q,code", [(18169, "I"), (18181, "Q")])
    def test_slot_width_limit(self, q, code):
        # the largest prime with 13 (q-1)^2 < 2^32 and the next one; every
        # coefficient q - 1 makes the slot sums as large as they get
        assert _prime_field_tables(q)[0] == code
        for poly in ([q - 1] * 13, [1, 0, 1], [q - 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5]):
            assert _prime_count(poly, q) == horner_prime_count(poly, q)

    def test_degree_above_twelve_refused(self):
        with pytest.raises(ValueError):
            _prime_count([1] * 14, 5)


class TestEulerFactors:
    def test_fixture_at_3(self):
        v2 = prime_by_key(K13, "3.0")
        v1 = prime_by_key(K13, "3.1")
        e2 = g2_euler_factor(C_FIX, v2)
        e1 = g2_euler_factor(C_FIX, v1)
        assert (e2.N, e2.a1, e2.a2) == (3, 0, 4)
        assert (e1.N, e1.a1, e1.a2) == (3, 4, 8)
        assert g2_rm_split(e2).as_coords() == [(0, -1), (0, 1)]
        assert g2_rm_split(e1).as_coords() == [(2, -1), (2, 1)]

    def test_weil_bounds_enforced(self):
        with pytest.raises(ValueError):
            EulerFactorG2(N=3, a1=8, a2=0)
        with pytest.raises(ValueError):
            EulerFactorG2(N=3, a1=0, a2=-7)

    def test_rm_split_failure(self):
        with pytest.raises(NotRMSplitError):
            g2_rm_split(EulerFactorG2(N=5, a1=1, a2=1))
        with pytest.raises(NotRMSplitError):
            g2_rm_split(EulerFactorG2(N=5, a1=2, a2=1))  # disc 44, not 2*square

    def test_rm_split_trivial_case(self):
        e = EulerFactorG2(N=4, a1=0, a2=2 * 4 - 2)
        assert g2_rm_split(e).as_coords() == [(0, -1), (0, 1)]

    def test_roundtrip(self):
        for key in ("3.0", "3.1", "17.0", "17.1", "53.0", "53.1"):
            P = prime_by_key(K13, key)
            e = g2_euler_factor(C_FIX, P)
            s = g2_rm_split(e)
            assert rm_split_to_euler(s, e.N) == e

    def test_weil_bound_on_fixture_primes(self):
        for key in ("3.0", "5.0", "17.0", "23.0", "29.0"):
            P = prime_by_key(K13, key)
            e = g2_euler_factor(C_FIX, P)
            assert e.a1 * e.a1 <= 16 * e.N


class TestRMReduction:
    def test_examples(self):
        assert rm_reduce_mod_p7(Z2.element([3, 1])) == 0
        assert rm_reduce_mod_p7(Z2.element([0, 1])) == 4
        assert rm_reduce_mod_p7(Z2.element([2, 1])) == 6

    def test_square_root_consistency(self):
        assert (4 * 4) % 7 == 2

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            rm_reduce_mod_p7(K13.one())

    def test_residue_set_is_conjugation_invariant(self):
        e = g2_euler_factor(C_FIX, prime_by_key(K13, "3.1"))
        s = g2_rm_split(e)
        # swapping the conjugates gives the same residue set
        assert rm_residues_mod_p7(s) == {
            rm_reduce_mod_p7(x) for x in s.pair
        }


# ---------------------------------------------------------------------------
# Igusa-Clebsch: root-difference oracle


def ic_from_roots(lc, roots):
    """Classical root-difference definitions, exact over Q."""
    lc = Fraction(lc)
    r = [Fraction(x) for x in roots]
    idx = set(range(6))
    d2 = {(i, j): (r[i] - r[j]) ** 2 for i in range(6) for j in range(6) if i != j}

    pairings = []

    def gen(rem, acc):
        if not rem:
            pairings.append(acc)
            return
        a = min(rem)
        for b in sorted(rem - {a}):
            gen(rem - {a, b}, acc + [(a, b)])

    gen(idx, [])
    assert len(pairings) == 15
    I2 = lc**2 * sum(d2[p0] * d2[p1] * d2[p2] for p0, p1, p2 in pairings)

    trips = [t for t in combinations(range(6), 3) if 0 in t]
    I4 = Fraction(0)
    I6 = Fraction(0)
    for t in trips:
        c = tuple(sorted(idx - set(t)))
        base = Fraction(1)
        for a, b in combinations(t, 2):
            base *= d2[(a, b)]
        for a, b in combinations(c, 2):
            base *= d2[(a, b)]
        I4 += base
        for perm in permutations(c):
            cross = Fraction(1)
            for a, b in zip(t, perm):
                cross *= d2[(a, b)]
            I6 += base * cross
    I4 *= lc**4
    I6 *= lc**6

    I10 = lc**10
    for a, b in combinations(range(6), 2):
        I10 *= d2[(a, b)]
    return I2, I4, I6, I10


def sextic_from_roots(lc, roots, order):
    coeffs = [Fraction(lc)]
    for root in roots:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= Fraction(root) * c
        coeffs = new
    return [QElement(order, [c]) for c in coeffs]


class TestIgusaClebsch:
    def test_root_difference_oracle(self):
        # igusa_clebsch attaches the binary form 4f to y^2 = f, so the
        # oracle is evaluated at leading coefficient 4*lc
        rng = random.Random(17)
        for _ in range(5):
            lc = rng.choice([1, 2, -1, 3])
            roots = rng.sample(range(-7, 8), 6)
            sext = sextic_from_roots(lc, roots, K13)
            mine = igusa_clebsch(sext)
            want = ic_from_roots(4 * lc, roots)
            for got, ref in zip(mine, want):
                assert got == QElement(K13, [ref])

    def test_scaling_the_form(self):
        # I_{2i}(c * f) = c^{2i} I_{2i}(f)
        base = [QElement(K13, [c]) for c in (1, 0, 0, 0, 0, 0, 1)]  # x^6 + 1
        scaled = [c * 9 for c in base]  # c = lambda^2 with lambda = 3
        i_base = igusa_clebsch(base)
        i_scaled = igusa_clebsch(scaled)
        for d, (a, b) in zip((2, 4, 6, 10), zip(i_base, i_scaled)):
            assert b == a * (9**d)

    def test_substitution_covariance(self):
        rng = random.Random(23)
        base = [
            QElement(K13, [Fraction(rng.randrange(-4, 5)), Fraction(rng.randrange(-4, 5))])
            for _ in range(7)
        ]
        lam = Fraction(3, 2)
        mu = Fraction(-1, 3)
        # compose f(lam*x + mu)
        out = [QElement(K13, []) for _ in range(7)]
        for i in range(7):
            ci = base[i]
            for j in range(i + 1):
                out[j] = out[j] + ci * (comb(i, j) * lam**j * mu ** (i - j))
        i_base = igusa_clebsch(base)
        i_sub = igusa_clebsch(out)
        for d, (a, b) in zip((2, 4, 6, 10), zip(i_base, i_sub)):
            assert b == a * lam ** (3 * d)

    def test_double_root_kills_I10(self):
        sext = sextic_from_roots(1, [1, 1, 2, 3, 4, 5], K13)
        assert igusa_clebsch(sext)[3].is_zero

    def test_fixture_proportionality(self):
        ref = {
            "I2": ["-38832/81", "18112/81"],
            "I4": ["270660/6561", "-112736/6561"],
            "I6": ["-5484934104/531441", "2386589920/531441"],
            "I10": ["-1222121472/3486784401", "532320256/3486784401"],
        }
        prim = tuple(
            QElement(K13, [Fraction(s) for s in ref[k]]) for k in ("I2", "I4", "I6", "I10")
        )
        alpha = QElement(K13, [-48, -60])
        mine = igusa_clebsch(C_FIX)
        assert weighted_pp_equal(mine, prim)
        for i, d in ((0, 1), (1, 2), (2, 3), (3, 5)):
            assert mine[i] == prim[i] * alpha ** (2 * d)


class TestWeightedPPEqual:
    def test_trivial_and_scaled(self):
        v = igusa_clebsch(C_FIX)
        assert weighted_pp_equal(v, v)
        beta = QElement(K13, [2])
        w = tuple(x * beta**d for x, d in zip(v, (1, 2, 3, 5)))
        assert weighted_pp_equal(v, w)
        # alpha = 2 scaling with the full alpha^{2i} pattern
        w2 = tuple(x * (4**d) for x, d in zip(v, (1, 2, 3, 5)))
        assert weighted_pp_equal(v, w2)

    def test_inequality(self):
        v = igusa_clebsch(C_FIX)
        w = (v[0] + 1, v[1], v[2], v[3])
        assert not weighted_pp_equal(v, w)

    def test_zero_I10_rejected(self):
        v = igusa_clebsch(C_FIX)
        z = (v[0], v[1], v[2], QElement(K13, []))
        with pytest.raises(ValueError):
            weighted_pp_equal(v, z)


class TestFrobeniusProjectiveOrder:
    def test_a_zero_gives_order_2(self):
        F7 = FiniteField(7, UniPoly([0, 1]))
        assert frobenius_projective_order(F7.zero(), 3) == 2

    def test_repeated_root_convention(self):
        F7 = FiniteField(7, UniPoly([0, 1]))
        assert frobenius_projective_order(F7.from_int(2), 1) == 7

    def test_char_divides_det_rejected(self):
        F7 = FiniteField(7, UniPoly([0, 1]))
        with pytest.raises(ValueError):
            frobenius_projective_order(F7.one(), 14)

    def test_acceptance_orders(self):
        F9 = FiniteField(3, UniPoly([-2, 0, 1]), check=False)
        orders = set()
        for q in (17, 53):
            for P in split_prime(K13, q):
                split = g2_rm_split(g2_euler_factor(C_FIX, P))
                per_prime = {
                    frobenius_projective_order(F9.element(list(x.coords)), P.norm)
                    for x in split.pair
                }
                assert len(per_prime) == 1  # conjugates share the order
                orders |= per_prime
        assert {2, 4, 5} <= orders
