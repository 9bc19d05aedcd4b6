import gc
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatkit.curves import (
    BadReductionError,
    EllipticCurveNF,
    EulerFactorG2,
    HyperellipticCurveNF,
    NotRMSplitError,
    RMSplit,
    SingularReductionError,
    ec_invariants,
    ec_reduction_type,
    ec_trace,
    frobenius_projective_order,
    g2_euler_factor,
    g2_rm_split,
    hyp_count_points,
    igusa_clebsch,
    rm_residues_mod_p7,
    weighted_pp_equal,
)
from fermatkit import curves
from fermatkit.curves import (
    _count_sextic_ext2,
    _field_tables,
    _grid_count,
    _log_table,
)
from fermatkit.exactarith import (
    FiniteField,
    QuadExt,
    UniPoly,
    _pm_gcd,
    _pm_trim,
    bareiss_det,
    factorize,
    field_nonsquare,
    is_prime,
)
from fermatkit.numberfield import (
    get_order,
    prime_by_key,
    reduce_element,
    split_prime,
)
from test_exactarith import checked_field, is_irreducible

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


def count_weierstrass_points(coeffs, field) -> int:
    """Points (with infinity) of a long Weierstrass model over `field`,
    its coefficients given as `FFElement`s, in every characteristic."""
    return curves._weierstrass_count(tuple(c.coeffs for c in coeffs), field)[0]


def rm_split_to_euler(split, N: int) -> EulerFactorG2:
    """Reconstruct (a1, a2) from an unordered RM pair; round-trip check."""
    a, b = tuple(split.pair) if len(split.pair) == 2 else (next(iter(split.pair)),) * 2
    tr = a + b
    pr = a * b
    if tr.coords[1] != 0 or pr.coords[1] != 0:
        raise ValueError("pair is not conjugate-closed")
    return EulerFactorG2(N=N, a1=tr.coords[0], a2=pr.coords[0] + 2 * N)


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
    return field_nonsquare(checked_field(q, UniPoly([0, 1]))).coeffs[0]


def _prime_count(poly, q):
    """The packed evaluator's one-row count of an integer polynomial over F_q."""
    return _grid_count([[list(poly)]], _log_table(q, (0, 1)))


def _count_sextic_ext2_prime(c, q):
    """The packed F_{q^2} count of an integer sextic over F_q."""
    return _count_sextic_ext2([(x,) for x in c], _log_table(q, (0, 1)))


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

    def test_invariants_computed_once(self):
        coeffs = dict(a1=E_FIX.a1, a2=E_FIX.a2, a3=E_FIX.a3, a4=E_FIX.a4, a6=E_FIX.a6)
        with mock.patch.object(curves, "_covariants", wraps=curves._covariants) as cov:
            E = EllipticCurveNF(**coeffs)
            for q in (5, 17, 23):
                for P in split_prime(K13, q):
                    if ec_reduction_type(E, P) == "good":
                        ec_trace(E, P)
            assert cov.call_count == 1
        assert ec_invariants(E) == curves._covariants(E)
        # kept outside the fields: eq, hash and repr are those of the model
        assert E == E_FIX and hash(E) == hash(E_FIX)
        assert repr(E) == repr(E_FIX) and "_invariants" not in repr(E)

    def test_singular_model_rejected(self):
        with pytest.raises(ValueError):
            EllipticCurveNF(
                a1=K13.zero(), a2=K13.zero(), a3=K13.zero(), a4=K13.zero(), a6=K13.zero()
            )

    @pytest.mark.parametrize("name", ["Qsqrt13", "K13cubic", "Zzeta13"])
    def test_covariants_match_the_element_formulas(self, name):
        order = get_order(name)
        for E in _random_models(order, 6 if name == "Zzeta13" else 20, seed=1):
            assert ec_invariants(E) == naive_covariants(E)

    @pytest.mark.parametrize("name,qs", [
        ("Qsqrt13", (2, 3, 5, 17)), ("K13cubic", (2, 3, 5, 11)), ("Zzeta13", (2, 3, 53)),
    ])
    def test_b_invariants_mod_P_match_the_reduced_discriminant(self, name, qs):
        """The field kernel route of `_weierstrass_count` at split and inert
        primes, in characteristic 2 and 3 too."""
        order = get_order(name)
        degrees = set()
        for q in qs:
            for P in split_prime(order, q):
                degrees.add(P.fdeg)
                F = P.residue_field
                for E in _random_models(order, 4, seed=q):
                    a = [reduce_element(c, P).coeffs for c in (E.a1, E.a2, E.a3, E.a4, E.a6)]
                    disc = curves._b_invariants(a, F.mul_kernel(), _comb_mod(F.p, F.k))[3]
                    assert disc == reduce_element(naive_covariants(E)[2], P).coeffs, P.key
        assert {1} < degrees  # split (degree 1) and inert or partly split primes


def naive_covariants(E):
    """(c4, c6, Delta) in NFElement arithmetic, the textbook formulas."""
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    return c4, c6, disc


def _comb_mod(p, k):
    """The `comb` of `curves._b_invariants` on coefficient tuples of F_(p^k)."""
    return lambda *terms: tuple(sum(c * x[j] for c, x in terms) % p for j in range(k))


def _random_models(order, n, seed):
    """n nonsingular models with small random coordinates over the order."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            out.append(EllipticCurveNF(*(
                order.element([rng.randrange(-9, 10) for _ in range(order.degree)])
                for _ in range(5))))
        except ValueError:
            continue
    return out


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
        F5 = checked_field(5, UniPoly([0, 1]))
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
            field = checked_field(p, UniPoly([0, 1]))
        else:
            from fermatkit.exactarith import poly_factor_mod_p

            # build an irreducible of degree k by factoring x^(p^k) - x pieces
            mod = None
            while mod is None:
                cand = UniPoly([rng.randrange(p) for _ in range(k)] + [1])
                fs = poly_factor_mod_p(cand, p)
                if len(fs) == 1 and fs[0][1] == 1 and fs[0][0].degree == k:
                    mod = cand
            field = FiniteField(p, mod)
        for _ in range(4):
            coeffs = [field.from_index(rng.randrange(field.order)) for _ in range(5)]
            assert count_weierstrass_points(coeffs, field) == brute_count_weierstrass(
                coeffs, field
            )

    @pytest.mark.parametrize("p,modulus", [(5, [3, 3, 0, 1]), (11, [4, 1, 0, 1])])
    def test_cubic_extension_vs_naive_oracle(self, p, modulus):
        field = checked_field(p, UniPoly(modulus))  # F_{5^3}, F_{11^3}
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
        n2 = naive_count_weierstrass(coeffs, E2)
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
        # F_{p^2} at ext 1, and F_{p^4} at ext 2 as a norm grid over F_{p^2}
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


SPLIT_EXT2_PRIMES = (3, 5, 7, 11, 13, 23, 199, 251, 257, 263)


def _packed(values, T):
    """values packed into the slots of the field tables T."""
    return int.from_bytes(b"".join(v.to_bytes(T.width, "little") for v in values), "little")


def _slots(V, n, T):
    """The n slots of the packed integer V."""
    raw = V.to_bytes(n * T.width, "little")
    return [int.from_bytes(raw[i : i + T.width], "little") for i in range(0, len(raw), T.width)]


def check_slot_reduction(T, top):
    """Slots up to `top`, multiples of q among them, reduce to v mod q."""
    q = T.q
    rng = random.Random(q + len(T.m))
    values = [top, 0, q, top - top % q, top - 1, q - 1] + [
        rng.randrange(top + 1) for _ in range(200)
    ] + [q * rng.randrange(top // q + 1) for _ in range(50)] + [top]
    got = _slots(curves._reduce_slots(_packed(values, T), len(values), T), len(values), T)
    assert got == [v % q for v in values]


class TestNormPolynomialCount:
    """`_count_sextic_ext2_prime` against the enumeration it replaced, and
    the packed evaluator against Horner's rule and plain `%`."""

    @pytest.mark.parametrize("q", SPLIT_EXT2_PRIMES)
    def test_nonsquare_matches_smallest(self, q):
        # the oracle takes t^2 = s for the smallest non-square s, the table's first
        assert _prime_nonsquare(q) == _smallest_nonsquare(q)
        assert _log_table(q, (0, 1)).table.index(0) == _smallest_nonsquare(q)

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.sampled_from(SPLIT_EXT2_PRIMES),
        c=st.lists(st.integers(-(10**6), 10**6), min_size=7, max_size=7),
        drop_lead=st.booleans(),
    )
    def test_random_sextics_vs_enumeration(self, q, c, drop_lead):
        if drop_lead:
            c[6] = 0
        assert _count_sextic_ext2_prime(c, q) == enum_count_sextic_ext2_prime(c, q)

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
            "all q - 1": [q - 1] * 7,
        }
        for name, c in cases.items():
            assert _count_sextic_ext2_prime(c, q) == enum_count_sextic_ext2_prime(c, q), name
        # f = 0: each of the q^2 affine x once, one point at infinity;
        # a constant non-square of F_q is a square in F_{q^2}
        assert _count_sextic_ext2_prime(cases["zero"], q) == q * q + 1
        assert _count_sextic_ext2_prime(cases["constant non-square"], q) == 2 * q * q + 1

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.sampled_from((7, 11, 13, 23)),
        c=st.lists(st.integers(0, 10**6), min_size=7, max_size=7),
        per=st.integers(1, 2),
        spare=st.integers(0, 6),
    )
    def test_rows_across_blocks(self, q, c, per, spare):
        # blocks of `per` tuples of two rows (spare slots short of a tuple
        # do not add one), fewer than the ceil((q-1)/4) >= 2 tuples of
        # every prime here but 7 at per = 2
        with mock.patch.object(curves, "_BLOCK_SLOTS", per * q + spare):
            got = _count_sextic_ext2_prime(c, q)
        assert got == enum_count_sextic_ext2_prime(c, q)

    def test_rows_across_default_blocks(self):
        # 33 tuples of 131 slots (65 rows, the last one single) do not fit
        # in one block of 2^12 slots
        q = 131
        assert ((q - 1) // 2 + 1) // 2 > curves._BLOCK_SLOTS // q
        c = [q - 1, 5, 0, 17, q - 2, 1, 3]
        assert _count_sextic_ext2_prime(c, q) == enum_count_sextic_ext2_prime(c, q)

    @pytest.mark.parametrize("q", (3, 5, 13, 199, 251, 257, 263, 18181))
    def test_slot_reduction_at_the_bound(self, q):
        # slots up to the largest value the evaluator reduces, 13 (q-1)^2,
        # multiples of q among them, reduce to v mod q
        check_slot_reduction(_log_table(q, (0, 1)), 13 * (q - 1) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from((3, 5, 7, 11, 13, 23, 101, 199, 257)),
        poly=st.lists(st.integers(-(10**9), 10**9), min_size=0, max_size=13),
    )
    def test_prime_count_vs_horner(self, q, poly):
        assert _prime_count(poly, q) == horner_prime_count(poly, q)

    @pytest.mark.parametrize("q", (18169, 18181))
    def test_prime_count_at_large_q(self, q):
        # two-byte residues; every coefficient q - 1 makes the slot sums
        # as large as a single polynomial makes them
        for poly in ([q - 1] * 13, [1, 0, 1], [q - 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5]):
            assert _prime_count(poly, q) == horner_prime_count(poly, q)

    def test_degree_above_twelve_refused(self):
        with pytest.raises(ValueError):
            _prime_count([1] * 14, 5)


def _first_irreducible(q, k):
    """F_q[w]/(m) for the lex-least irreducible monic m of degree k."""
    for n in range(q**k):
        F = FiniteField(q, UniPoly([n // q**i % q for i in range(k)] + [1]))
        if is_irreducible(F):
            return F
    raise AssertionError("no irreducible polynomial found")


def naive_affine_count(coeffs, field):
    """Oracle: sum over x of 1 + chi(f(x)), Horner's rule in generic field
    arithmetic and a lookup in the set {y*y}."""
    squares = _naive_squares(field)
    n = 0
    for x in field.elements():
        v = field.zero()
        for c in reversed(coeffs):
            v = v * x + c
        n += _naive_one_plus_chi(v, squares)
    return n


def naive_count_sextic_ext2(coeffs, field):
    """Oracle: y^2 = f(x) over the QuadExt of F_{q^k} by its first non-square."""
    ext = QuadExt(field, field_nonsquare(field))
    return naive_count_sextic([ext.embed(c) for c in coeffs], ext)


def _packed_ext2(coeffs, field):
    return _count_sextic_ext2([c.coeffs for c in coeffs], _field_tables(field))


class TestPackedExtensionFields:
    """The packed evaluator over F_{q^k}, k > 1: one-row counts, the norm
    grid over F_{q^2}, slot reduction and the index lookup."""

    @pytest.mark.parametrize("q", (3, 5, 7))
    def test_ext2_sextics_vs_quadext_enumeration(self, q):
        F = _first_irreducible(q, 2)
        rng = random.Random(q)
        rand = lambda: [F.from_index(rng.randrange(F.order)) for _ in range(7)]
        nonsquare = field_nonsquare(F)
        zero, constant = [F.zero()] * 7, [nonsquare] + [F.zero()] * 6
        cases = {
            "random": rand(),
            "c6 = 0": rand()[:6] + [F.zero()],
            "all q - 1": [F.from_index(F.order - 1)] * 7,
        }
        if q < 7:  # the oracle enumerates F_{q^4}; 2401 elements take seconds
            cases.update({"zero": zero, "constant non-square": constant})
            cases.update({f"random {i}": rand() for i in range(3)})
        for name, coeffs in cases.items():
            assert _packed_ext2(coeffs, F) == naive_count_sextic_ext2(coeffs, F), name
        # f = 0: each x once and one point at infinity; a non-square of
        # F_{q^2} is a square in F_{q^4}
        N = F.order
        assert _packed_ext2(zero, F) == N * N + 1
        assert _packed_ext2(constant, F) == 2 * N * N + 1

    @pytest.mark.parametrize("q,k", [(5, 2), (7, 2), (11, 2), (17, 2), (3, 3), (5, 3), (7, 3), (11, 3)])
    def test_one_row_vs_naive(self, q, k):
        # 17^2, 7^3 and 11^3 elements take 2, 2 and 6 index planes
        F = _first_irreducible(q, k)
        rng = random.Random(100 * q + k)
        top = F.from_index(F.order - 1)  # every component q - 1
        polys = [
            [F.from_index(rng.randrange(F.order)) for _ in range(13)],
            [top] * 13,
            [F.from_index(rng.randrange(F.order)) for _ in range(3)] + [F.one()],
            [F.zero()],
        ]
        for coeffs in polys:
            got = _grid_count([list(zip(*(c.coeffs for c in coeffs)))], _field_tables(F))
            assert got == naive_affine_count(coeffs, F)

    @pytest.mark.parametrize("q,per,spare", [(3, 1, 0), (3, 2, 5), (5, 1, 7), (5, 3, 0)])
    def test_rows_across_blocks(self, q, per, spare):
        # blocks of `per` tuples of q^2 slots, two rows each, fewer than
        # the (q^2-1)/4 tuples but at q = 3, per = 2
        F = _first_irreducible(q, 2)
        rng = random.Random(q * per + spare)
        for _ in range(2):
            coeffs = [F.from_index(rng.randrange(F.order)) for _ in range(7)]
            with mock.patch.object(curves, "_BLOCK_SLOTS", per * F.order + spare):
                got = _packed_ext2(coeffs, F)
            assert got == naive_count_sextic_ext2(coeffs, F)

    @pytest.mark.parametrize("q,k", [(3, 2), (5, 2), (41, 2), (199, 2), (257, 2), (3, 3), (7, 3), (61, 3)])
    def test_slot_reduction_at_the_bound(self, q, k):
        check_slot_reduction(_field_tables(_first_irreducible(q, k)), 13 * k * (q - 1) ** 2)

    def test_field_beyond_two_byte_indices(self):
        # F_{257^2} has 66049 > 2^16 elements, so every index is looked up:
        # #E(F_{q^2}) = q^2 + 1 - (a^2 - 2q) for E over F_q with trace a
        q = 257
        Fq = checked_field(q, UniPoly([0, 1]))
        F = checked_field(q, UniPoly([-3, 0, 1]))  # 3 is a non-square mod 257
        assert not _field_tables(F).planes
        for a4, a6 in ((1, 3), (0, 5), (7, 0)):
            coeffs = [0, 0, 0, a4, a6]
            a = q + 1 - count_weierstrass_points([Fq.from_int(v) for v in coeffs], Fq)
            n2 = count_weierstrass_points([F.from_int(v) for v in coeffs], F)
            assert n2 == q * q + 1 - (a * a - 2 * q)

    def test_char2_refused(self):
        with pytest.raises(ValueError):
            _log_table(2, (1, 1, 1))


# (q, k) for the log tables: every k up to 4, q = 257 with residues past
# one byte, and F_{257^2} with N > 2^16
LOG_TABLE_FIELDS = [(3, 1), (7, 1), (257, 1), (3, 2), (5, 2), (13, 2), (257, 2), (3, 3),
                    (7, 3), (3, 4), (5, 4)]


def _walk_elements(T, F):
    """The elements of the walk of T, slot by slot, as FFElements of F."""
    n = T.order - 1
    comps = [_slots(int.from_bytes(c, "little"), n, T) for c in T.walk]
    return [F.element(c) for c in zip(*comps)]


class TestLogTable:
    """`_log_table` against FFElement arithmetic: the walk, the power
    columns, the 1 + chi table and the ext-2 rows of the non-squares."""

    @pytest.mark.parametrize("q,k", LOG_TABLE_FIELDS)
    def test_walk_is_a_bijection_onto_the_units(self, q, k):
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        walk = _walk_elements(T, F)
        g = walk[1]
        assert walk[0] == F.one()
        assert all(b == a * g for a, b in zip(walk, walk[1:]))
        assert sorted(x.index() for x in walk) == list(range(1, F.order))
        # g is the first generator in index order
        n = F.order - 1
        for s in range(1, g.index()):
            x = F.from_index(s)
            assert any(x ** (n // r) == F.one() for r in factorize(n)), s
        # w^l sits at its logged slot
        assert [walk[t] for t in T.wlogs] == [F.element([0] * l + [1]) for l in range(k)]

    @pytest.mark.parametrize("q,k", LOG_TABLE_FIELDS)
    def test_every_column_slot_is_the_power(self, q, k):
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        x = [F.zero()] + _walk_elements(T, F)
        rng = random.Random(10 * q + k)
        picks = range(T.order)
        if T.order > 1024:  # every slot of the small fields, a sample of the large
            picks = [0, 1, T.order - 1] + rng.sample(range(T.order), 300)
        for e in range(13):
            col = [_slots(c, T.order, T) for c in T.column(e)]
            for s in picks:
                want = F.one() if e == 0 else x[s] ** e
                assert F.element([c[s] for c in col]) == want, (e, s)

    @pytest.mark.parametrize("q,k", LOG_TABLE_FIELDS)
    def test_table_marks_the_squares(self, q, k):
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        squares = _naive_squares(F)
        assert T.table == bytes(1 if s == 0 else 2 if s in squares else 0 for s in range(F.order))

    @pytest.mark.parametrize("q,k", LOG_TABLE_FIELDS)
    def test_each_nonsquare_heads_one_row(self, q, k):
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        rows = _unpaired_rows(T.rows, T)
        squares = _naive_squares(F)
        heads = [F.element([comp[s][k] for comp in rows]) for s in range(len(rows[0]))]
        assert sorted(y.index() for y in heads) == [
            s for s in range(1, F.order) if s not in squares]
        rng = random.Random(q + k)
        picks = range(len(heads)) if len(heads) <= 512 else rng.sample(range(len(heads)), 200)
        for s in picks:
            powers = [heads[s] ** j for j in range(7)]
            want = curves._mul_rows([[p.coeffs[i] for p in powers] for i in range(k)], T)
            assert [list(comp[s]) for comp in rows] == want, s


def _unpaired_rows(rows, T):
    """The rows of `_PackedField.rows` one to a tuple: each tuple x + (y << bound)
    split into the rows x and y, and the zero row that pairs a single last
    row dropped (it must be zero)."""
    mask, count = (1 << T.bound) - 1, (T.order - 1) // 2
    out = []
    for comp in rows:
        single = [tuple(v >> shift & mask for v in t) for t in comp for shift in (0, T.bound)]
        assert all(v == 0 for t in single[count:] for v in t)
        out.append(single[:count])
    return out


# (q, k) with (N-1)/2 odd (the last row single) and even, k = 2 among them
PAIRED_ROW_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3)]


class TestPairedRows:
    """Two ext-2 rows per tuple of `_PackedField.rows`, one product per pair in
    `_grid_count`: the parity of the row count, pairs split across
    blocks, and both halves of every slot at their largest."""

    @pytest.mark.parametrize("q,k", PAIRED_ROW_FIELDS)
    def test_row_counts_of_both_parities(self, q, k):
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        count = (F.order - 1) // 2
        rows = T.rows
        assert [len(comp) for comp in rows] == [(count + 1) // 2] * k
        # a single last row has nothing in its upper half
        single = count % 2 == 1
        assert single == (F.order % 4 == 3)
        assert all(v >> T.bound == 0 for comp in rows for v in comp[-1]) == single
        rng = random.Random(7 * q + k)
        top = F.from_index(F.order - 1)
        for coeffs in ([F.from_index(rng.randrange(F.order)) for _ in range(7)], [top] * 7):
            assert _packed_ext2(coeffs, F) == naive_count_sextic_ext2(coeffs, F)

    @pytest.mark.parametrize("q,k,per,spare", [
        (7, 1, 1, 0),  # a pair, then the single row in a block of its own
        (11, 1, 2, 3),  # two pairs, then the single row
        (11, 1, 1, 10),
        (13, 1, 2, 0),  # three pairs: two, then one
        (3, 3, 5, 26),  # seven tuples: five, then a pair and the single row
        (3, 2, 1, 8),  # two pairs, one a block
    ])
    def test_pairs_across_blocks(self, q, k, per, spare):
        # blocks of `per` tuples of N slots (spare slots short of a tuple
        # do not add one)
        F = _first_irreducible(q, k)
        rng = random.Random(q * per + spare)
        for _ in range(2):
            coeffs = [F.from_index(rng.randrange(F.order)) for _ in range(7)]
            with mock.patch.object(curves, "_BLOCK_SLOTS", per * F.order + spare):
                got = _packed_ext2(coeffs, F)
            assert got == naive_count_sextic_ext2(coeffs, F)

    @pytest.mark.parametrize("q,k", [(3, 1), (7, 1), (71, 1), (101, 1), (199, 1), (5, 2),
                                     (13, 2), (11, 3)])
    def test_both_halves_at_their_largest(self, q, k):
        # every row entry is q - 1 and every component of H_j is c, so each
        # half of every slot holds 7k (q-1) c: at c = q - 1 the most a row
        # sums to, which at 71, 101, 199 and 11^3 is at least 2^(bound-1)
        F = _first_irreducible(q, k)
        T = _field_tables(F)
        squares = _naive_squares(F)
        count = (F.order - 1) // 2
        pair, single = (q - 1) * (1 + (1 << T.bound)), q - 1
        rows = [[(pair,) * 7 * k] * (count // 2) + [(single,) * 7 * k] * (count % 2)] * k
        for c in range(q - 1, max(0, q - 5), -1):
            G = [[[c]] * k] * 7  # G_j = the constant with every component c
            value = F.element([7 * k * (q - 1) * c] * k)
            want = count * F.order * _naive_one_plus_chi(value, squares)
            assert _grid_count(G, T, rows) == want, c
            with mock.patch.object(curves, "_BLOCK_SLOTS", 2 * F.order):
                assert _grid_count(G, T, rows) == want, c


def loop_norm_polynomial(c, T):
    """Oracle for `_norm_polynomial`: G_e = sum_i (-1)^i D_i D_(2e-i) by
    one integer product per pair of Hasse-derivative coefficients, an
    element of F packed as one B-bit digit per power of w."""
    q, k = T.q, len(T.m) - 1
    B = (19600 * k * (q - 1) ** 2).bit_length()
    mask = (1 << B) - 1
    plus = [sum(a % q << B * t for t, a in enumerate(x)) for x in c]
    minus = [sum(-a % q << B * t for t, a in enumerate(x)) for x in c]
    D = [[comb(n, i) * plus[n] for n in range(i, 7)] for i in range(7)]
    Dsigned = [[comb(n, i) * minus[n] for n in range(i, 7)] if i & 1 else D[i] for i in range(7)]
    G = []
    for e in range(7):
        g = [0] * (13 - 2 * e)
        for i in range(max(0, 2 * e - 6), min(2 * e, 6) + 1):
            for a, u in enumerate(Dsigned[i]):
                for b, v in enumerate(D[2 * e - i]):
                    g[a + b] += u * v
        G.append(curves._fold([[x >> B * t & mask for x in g] for t in range(2 * k - 1)], q, T.m))
    return G


class TestNormPolynomialProduct:
    """The one Kronecker product behind G against the product-per-pair loop."""

    @pytest.mark.parametrize("q,k", [(3, 1), (5, 1), (17, 1), (199, 1), (5, 2), (11, 2), (3, 3)])
    def test_kronecker_matches_loop(self, q, k):
        T = _log_table(q, (0, 1)) if k == 1 else _field_tables(_first_irreducible(q, k))
        rng = random.Random(1000 * q + k)
        cases = [[tuple(rng.randrange(-(10**6), 10**6) for _ in range(k)) for _ in range(7)]
                 for _ in range(20)]
        # every digit q - 1: each slot at its largest
        cases += [[(q - 1,) * k] * 7, [(q - 1,) * k] * 6 + [(0,) * k]]
        for c in cases:
            assert curves._norm_polynomial(c, T) == loop_norm_polynomial(c, T), c


class TestGenus2SetupCounts:
    """Set-up that the genus-2 counts share: transvectants once per sextic,
    ext-2 rows once per residue field, no p-power map for a quadratic."""

    def test_congruence_checks_share_setup(self):
        from fermatkit import exactarith, numberfield
        from fermatkit.cli import run_checks

        for cache in (curves._sextic_invariants, curves._log_table, numberfield._split_prime):
            cache.cache_clear()
        ext2_counts, counted_fields = [], set()
        count, grid = curves._count_sextic_ext2, curves._grid_count
        rows_property = curves._PackedField.rows

        def counted(c, T):
            ext2_counts.append((T.q, T.m))
            return count(c, T)

        def gridded(G, T, rows=None):
            counted_fields.add((T.q, T.m))
            return grid(G, T, rows)

        with mock.patch.object(curves, "_clebsch_integral", wraps=curves._clebsch_integral) as ic, \
                mock.patch.object(curves, "_count_sextic_ext2", counted), \
                mock.patch.object(curves, "_grid_count", gridded), \
                mock.patch.object(rows_property, "func", wraps=rows_property.func) as built:
            for name in ("euler-rm-at-3", "invariant-valuations-at-2", "igusa-proportionality",
                         "projective-frobenius-orders", "mod7-congruence-norm-200"):
                assert run_checks(names=[name]).checks[0].status == "pass", name
        assert ic.call_count == 1
        # one build of the rows per residue field: the two primes above a
        # split q share theirs, and later checks count some primes again
        fields = set(ext2_counts)
        assert sorted((T.q, T.m) for (T,), _ in built.call_args_list) == sorted(fields)
        assert len(ext2_counts) > len(fields) > 1
        # one walk per residue field counted in, whatever counts it
        assert fields <= counted_fields
        assert curves._log_table.cache_info().misses == len(counted_fields)
        assert curves._log_table.cache_info().hits > len(counted_fields)
        numberfield._split_prime.cache_clear()
        with mock.patch.object(exactarith, "_substitution_kernel",
                               wraps=exactarith._substitution_kernel) as kernel:
            for p in range(2, 200):
                if is_prime(p):
                    split_prime(K13, p)
        assert kernel.call_count == 0

    def test_singular_sextic_refused_from_a_warm_cache(self):
        sext = tuple(K13.from_int(v) for v in _poly_mul([1, -2, 1], [1, 3, 0, 0, 1], 0))
        for _ in range(2):
            with pytest.raises(ValueError, match="singular sextic"):
                HyperellipticCurveNF(coeffs=sext)
        assert curves._sextic_invariants.cache_info().hits >= 1


# What one cold `run_checks()` leaves behind by tracemalloc, caches
# included, in bytes: 2.25 MB when every field kept one mask per slot
# count, 2.09 MB with at most two masks per field (Python 3.11, in this
# test). The margin, 0.31 MB (15%), leaves room for other interpreters.
RETAINED_BOUND = 2_400_000


class TestRetainedMemory:
    def test_one_run_of_the_checks(self):
        from fermatkit import cli, elimination, numberfield, unitsieve
        from fermatkit.cli import run_checks

        caches = {id(v): v for mod in (cli, curves, elimination, numberfield, unitsieve)
                  for v in vars(mod).values() if hasattr(v, "cache_clear")}
        for cache in caches.values():
            cache.cache_clear()
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert len(run_checks().checks) == len(cli.CHECK_NAMES)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert retained < RETAINED_BOUND, retained
        # each field keeps its quotient mask and its paired-row mask, one
        # per pattern however many slot counts its blocks used
        fields = [o for o in gc.get_objects() if type(o) is curves._PackedField]
        assert len(fields) >= curves._log_table.cache_info().currsize > 20
        assert all(len(T.masks) <= 2 for T in fields)


class TestEulerFactors:
    @pytest.mark.parametrize("key,a1,a2", [("19.0", -20, 822), ("41.0", -42, 3515)])
    def test_inert_proof_primes(self, key, a1, a2):
        # F_{q^4} as a norm grid over F_{q^2}; values of the Zech-log count
        P = prime_by_key(K13, key)
        assert P.fdeg == 2
        assert g2_euler_factor(C_FIX, P) == EulerFactorG2(N=P.norm, a1=a1, a2=a2)

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

    def test_reduces_and_checks_once(self):
        """The Euler factor has the counts of two separate calls; bad
        primes still raise."""
        for key in ("3.0", "5.0", "17.1"):
            P = prime_by_key(K13, key)
            e = g2_euler_factor(C_FIX, P)
            n1, n2 = hyp_count_points(C_FIX, P, 1), hyp_count_points(C_FIX, P, 2)
            assert (e.a1, e.a1 * e.a1 - 2 * e.a2) == (P.norm + 1 - n1, P.norm**2 + 1 - n2)
        for q in (2, 13):
            with pytest.raises(SingularReductionError):
                g2_euler_factor(C_FIX, split_prime(K13, q)[0])

    def test_one_reduction_per_prime(self):
        """One Euler factor reduces I10 and the seven coefficients once for
        both counts, and a curve keeps its reductions; a bad prime raises
        on every call."""
        C = HyperellipticCurveNF(coeffs=C_FIX.coeffs)
        P = prime_by_key(K13, "17.1")
        with mock.patch.object(curves, "reduce_element", wraps=curves.reduce_element) as red:
            e = g2_euler_factor(C, P)
            assert red.call_count == 8
            assert g2_euler_factor(C, P) == e
            assert hyp_count_points(C, P, 2) == P.norm**2 + 1 - (e.a1 * e.a1 - 2 * e.a2)
            assert red.call_count == 8
        for _ in range(2):
            with pytest.raises(SingularReductionError):
                g2_euler_factor(C, split_prime(K13, 13)[0])

    def test_weil_bound_on_fixture_primes(self):
        for key in ("3.0", "5.0", "17.0", "23.0", "29.0"):
            P = prime_by_key(K13, key)
            e = g2_euler_factor(C_FIX, P)
            assert e.a1 * e.a1 <= 16 * e.N


def _shift(f, p):
    """f(x + c) mod p for the least c with f(c) != 0 mod p, f given by
    its coefficients c0, c1, ...: an isomorphic model of y^2 = f(x)."""
    n = len(f)
    for c in range(p):
        g = [sum(comb(i, j) * f[i] * c ** (i - j) for i in range(j, n)) % p for j in range(n)]
        if g[0]:
            return g
    raise AssertionError(f"f vanishes on F_{p}")


def _ends_nonzero(f, p):
    """An isomorphic model of y^2 = f(x) over F_p with f_0 f_6 != 0: a
    shift x -> x + c that makes f_0 != 0, after x -> 1/x (f reversed)
    when f_6 = 0. Each changes the Cartier-Manin matrix by a similarity,
    so its trace and determinant stay."""
    f = [x % p for x in f]
    if f[6] == 0:
        f = _shift(f, p)[::-1]
    return f if f[0] else _shift(f, p)


def _half_power_low(f, p):
    """h_0, ..., h_(p-1) of h = f^n mod p, n = (p-1)/2, for f with f_0 != 0
    mod p, from f h' = n f' h: at x^k, sum_i f_i h_(k+1-i) (k+1-i - n i)
    = 0, which gives h_(k+1) from the lower ones while k + 1 < p. O(p deg f)
    products, and no point count."""
    n, d = (p - 1) // 2, len(f) - 1
    h, inv0 = [pow(f[0], n, p)], pow(f[0], -1, p)
    for k in range(p - 1):
        acc = sum(f[i] * h[k + 1 - i] * (k + 1 - i - n * i) for i in range(1, min(d, k + 1) + 1))
        h.append(-acc * inv0 * pow(k + 1, -1, p) % p)
    return h


def cartier_manin(f, p):
    """The Cartier-Manin matrix W = (h_(ip-j))_(i,j = 1,2) of y^2 = f(x) over
    F_p, p odd, f the seven integer coefficients c0..c6 (Yui, "On the
    Jacobian varieties of hyperelliptic curves over fields of
    characteristic p > 2", 1978), with h = f^n, n = (p-1)/2.

    h comes from `_half_power_low`. The indices p - 2 and p - 1 come from
    f; 2p - 2 and 2p - 1 from the reversed polynomial, whose n-th power is
    h reversed (degree 6n), at 6n - (2p - 1) = p - 2 and 6n - (2p - 2) =
    p - 1. No product over F_{p^2} and no point count is involved."""
    f = _ends_nonzero(f, p)
    lo, hi = _half_power_low(f, p), _half_power_low(f[::-1], p)
    return [[lo[p - 1], lo[p - 2]], [hi[p - 2], hi[p - 1]]]


def _trace_det(W, p):
    return (W[0][0] + W[1][1]) % p, (W[0][0] * W[1][1] - W[0][1] * W[1][0]) % p


def rm_candidates(W, p):
    """The (a1, a2) with a1 = tr W and a2 = det W mod p that split over
    Z[sqrt(2)] (`g2_rm_split`: a1^2 - 4 (a2 - 2p) = 2 s^2, a1 and s
    even) with both real roots a1/2 +- (s/2) sqrt(2) in the Weil
    interval [-2 sqrt(p), 2 sqrt(p)]: u + v sqrt(2) <= 2 sqrt(p) for
    u = |a1|/2, v = |s|/2, decided in integers."""
    tr, det = _trace_det(W, p)
    out = set()
    for u in range(isqrt(4 * p) + 1):
        for v in range(isqrt(2 * p) + 1):
            room = 4 * p - u * u - 2 * v * v
            if room < 0 or 8 * u * u * v * v > room * room:
                continue
            for a1 in {2 * u, -2 * u}:
                a2 = u * u - 2 * v * v + 2 * p
                if a1 % p == tr and a2 % p == det:
                    out.add((a1, a2))
    return out


# split primes of Q(sqrt13) of norm at most 200 where the RM congruences
# and the Weil interval leave more than one (a1, a2): enumeration decides
CARTIER_MANIN_AMBIGUOUS = {"3.0", "3.1"}


class TestCartierManinOracle:
    """`C_eq51`'s Euler factors against the Cartier-Manin matrix, which
    shares no code with the packed counts: a1 = tr W and a2 = det W mod p
    (Manin, "The Hasse-Witt matrix of an algebraic curve", 1961), pinned
    by the RM split over Z[sqrt(2)] and the Weil bound."""

    def test_recurrence_matches_the_power(self):
        # W read off f^((p-1)/2) itself; with a zero end coefficient the
        # model is moved first, so only the trace and determinant compare
        rng = random.Random(51)
        for p in (3, 5, 7, 11, 13, 31):
            for trial in range(8):
                f = [rng.randrange(1, p) for _ in range(7)]
                if p > 5 and trial >= 4:  # f_0 = 0, f_6 = 0, or both
                    f[0], f[6] = (0, f[6]) if trial == 4 else (f[0], 0) if trial == 5 else (0, 0)
                h = [1]
                for _ in range((p - 1) // 2):
                    h = _poly_mul(h, f, 0)
                h = [x % p for x in h] + [0] * (2 * p)
                want = [[h[p - 1], h[p - 2]], [h[2 * p - 1], h[2 * p - 2]]]
                got = cartier_manin(f, p)
                if f[0] and f[6]:
                    assert got == want, (p, f)
                assert _trace_det(got, p) == _trace_det(want, p), (p, f)

    def test_split_primes_to_200(self):
        ambiguous = set()
        split = [P for q in range(3, 200) if is_prime(q) and q != 13
                 for P in split_prime(K13, q) if P.fdeg == 1]
        assert len(split) == 2 * 21
        for P in split:
            p = P.q
            f = [reduce_element(c, P).coeffs[0] for c in C_FIX.coeffs]
            e = g2_euler_factor(C_FIX, P)
            found = rm_candidates(cartier_manin(f, p), p)
            assert (e.a1, e.a2) in found, P.key  # so pinned when found has one pair
            if len(found) > 1:
                ambiguous.add(P.key)
                # the points at infinity: 1 + chi(c6)
                n1 = horner_prime_count(f, p) + horner_prime_count([f[6]], p) // p
                n2 = enum_count_sextic_ext2_prime(f, p)
                a1 = p + 1 - n1
                assert (e.a1, e.a2) == (a1, (a1 * a1 - (p * p + 1 - n2)) // 2), P.key
        assert ambiguous == CARTIER_MANIN_AMBIGUOUS


def hasse_trace(E, P):
    """a_P of E at a split prime P of good reduction, p = N(P) > 16, by
    the Hasse invariant: with (2y + a1 x + a3)^2 = f(x) = 4x^3 + b2 x^2 +
    2 b4 x + b6, #E(F_p) = 1 - h_(p-1) mod p for h = f^((p-1)/2)
    (Silverman, *The Arithmetic of Elliptic Curves*, V.4.1), so a_P = h_(p-1)
    mod p, and |a_P| <= 2 sqrt(p) < p/2 picks the representative. It
    shares no code with the point counts."""
    p = P.q
    a1, a2, a3, a4, a6 = (reduce_element(c, P).coeffs[0] for c in E._fields())
    f = [(a3 * a3 + 4 * a6) % p, 2 * (a1 * a3 + 2 * a4) % p, (a1 * a1 + 4 * a2) % p, 4]
    h = _half_power_low(f if f[0] else _shift(f, p), p)[p - 1]
    return h if h < p // 2 else h - p


class TestHasseInvariantOracle:
    def test_elliptic_trace_at_split_primes_to_1999(self):
        """`ec_trace(E_1_-1, P)` at every good split prime of norm 17 to 1999."""
        good = [P for q in range(17, 2000) if is_prime(q) for P in split_prime(K13, q)
                if P.fdeg == 1 and ec_reduction_type(E_FIX, P) == "good"]
        assert len(good) == 296
        for P in good:
            assert ec_trace(E_FIX, P) == hasse_trace(E_FIX, P), P.key


class TestRMReduction:
    """`rm_residues_mod_p7` reduces at the prime 7.0 of Z[sqrt(2)]."""

    P7 = prime_by_key(Z2, "7.0")

    def test_examples(self):
        def pair(*coords):
            return RMSplit(pair=frozenset(Z2.element(c) for c in coords))

        assert rm_residues_mod_p7(pair([3, 1], [0, 1])) == {0, 4}
        assert rm_residues_mod_p7(pair([2, 1])) == {6}

    def test_square_root_consistency(self):
        assert (4 * 4) % 7 == 2
        assert self.P7.theta_image == self.P7.residue_field.from_int(4)

    def test_prime_is_three_plus_sqrt2(self):
        """The convention the mod-7 congruence was written against: the
        prime is (3 + sqrt(2)), and a + b sqrt(2) goes to a + 4b mod 7."""
        assert reduce_element(Z2.element([3, 1]), self.P7).is_zero
        for a in range(-10, 11):
            for b in range(-10, 11):
                red = reduce_element(Z2.element([a, b]), self.P7)
                assert red == self.P7.residue_field.from_int((a + 4 * b) % 7)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            rm_residues_mod_p7(RMSplit(pair=frozenset([K13.one()])))

    def test_residue_set_is_conjugation_invariant(self):
        e = g2_euler_factor(C_FIX, prime_by_key(K13, "3.1"))
        s = g2_rm_split(e)
        # the reductions of both conjugates a +- b sqrt(2)
        assert rm_residues_mod_p7(s) == {(a + 4 * b) % 7 for a, b in s.as_coords()}


# ---------------------------------------------------------------------------
# Igusa-Clebsch: root-difference oracle


def ic_from_roots(lc, roots):
    """Classical root-difference definitions, exact over Z for integer
    roots and leading coefficient."""
    r = roots
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
    I4 = 0
    I6 = 0
    for t in trips:
        c = tuple(sorted(idx - set(t)))
        base = 1
        for a, b in combinations(t, 2):
            base *= d2[(a, b)]
        for a, b in combinations(c, 2):
            base *= d2[(a, b)]
        I4 += base
        for perm in permutations(c):
            cross = 1
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
    coeffs = [lc]
    for root in roots:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= root * c
        coeffs = new
    return [order.from_int(c) for c in coeffs]


def _poly_mul(f, g, zero):
    out = [zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def squarefree_sextic(coeffs) -> bool:
    """Independent smoothness oracle: True when f = sum coeffs[i] x^i has
    degree at least five and gcd(f, f') = 1, so that the binary sextic
    has no repeated root on P^1 (a degree below five puts a repeated root
    at infinity).

    The coefficients may lie in any integral domain with +, -, * and
    is_zero (an order of a number field, a finite field): a
    pseudo-remainder sequence, which multiplies by leading coefficients
    instead of dividing, has the degrees of Euclid's remainders over the
    fraction field.
    """

    def trim(c):
        while c and c[-1].is_zero:
            c.pop()
        return c

    f = trim(list(coeffs))
    if len(f) < 6:
        return False
    g = trim([i * f[i] for i in range(1, len(f))])
    while len(g) > 1:
        r = f
        while len(r) >= len(g):  # r <- lc(g) r - lc(r) x^d g
            c, d = r[-1], len(r) - len(g)
            r = [x * g[-1] for x in r]
            for j, y in enumerate(g):
                r[d + j] = r[d + j] - c * y
            r = trim(r[:-1])
        if not r:
            return False
        f, g = g, r
    return bool(g)


def sylvester(f, g):
    """Sylvester matrix of f and g, integer coefficient lists from the
    constant term up, of degrees len(f) - 1 and len(g) - 1."""
    m, n = len(f) - 1, len(g) - 1
    return [[0] * i + f[::-1] + [0] * (n - 1 - i) for i in range(n)] + [
        [0] * i + g[::-1] + [0] * (m - 1 - i) for i in range(m)
    ]


def binary_sextic_disc(c) -> int:
    """Discriminant of the binary sextic sum c[i] x^i z^(6-i), c integers:
    -Res(f, f')/c6 in degree 6; c5 Res(f, f') in degree 5, where the
    simple root at infinity contributes c5^2 times the quintic's
    discriminant Res(f, f')/c5; zero below (a repeated root at infinity)."""
    for n in (6, 5):
        if c[n]:
            f = list(c[: n + 1])
            res = bareiss_det(sylvester(f, [i * f[i] for i in range(1, n + 1)]))
            if n == 6:
                assert res % c[6] == 0
                return -res // c[6]
            return c[5] * res
    return 0


class TestSmoothness:
    """Smoothness read off I10, against the pseudo-remainder gcd oracle
    over Q(sqrt13), over the cubic field and mod p, and against the
    Sylvester discriminant."""

    def test_matches_igusa_clebsch_i10(self):
        rng = random.Random(51)
        zero = K13.zero()

        def rand(n):
            return [K13.element([rng.randrange(-9, 10), rng.randrange(-9, 10)]) for _ in range(n)]

        cases = []
        for _ in range(10):
            g, g1, g2 = rand(2), rand(2), rand(3)
            cases += [
                rand(7),
                rand(6) + [zero],  # c6 = 0
                rand(5) + [zero, zero],  # c6 = c5 = 0
                _poly_mul(_poly_mul(g, g, zero), rand(5), zero),  # a square linear factor
                _poly_mul(_poly_mul(g2, g2, zero), rand(3), zero),  # a square quadratic factor
                _poly_mul(_poly_mul(g1, g1, zero), rand(4), zero) + [zero],  # degree 5, square factor
            ]
        smooth = 0
        for c in cases:
            want = squarefree_sextic(c)
            assert igusa_clebsch(c)[3].is_zero is not want, c
            if want:
                assert igusa_clebsch(HyperellipticCurveNF(coeffs=tuple(c)))[3] == igusa_clebsch(c)[3]
            else:
                with pytest.raises(ValueError, match="singular sextic"):
                    HyperellipticCurveNF(coeffs=tuple(c))
            smooth += want
        assert 0 < smooth < len(cases)

    def test_singular_curve_refused_with_the_same_message(self):
        square_times_quartic = _poly_mul([1, -2, 1], [1, 3, 0, 0, 1], 0)  # (x - 1)^2 divides
        sext = [K13.from_int(v) for v in square_times_quartic]
        with pytest.raises(ValueError, match=r"^singular sextic \(discriminant invariant vanishes\)$"):
            HyperellipticCurveNF(coeffs=tuple(sext))

    @pytest.mark.parametrize("p", (3, 5, 7, 11))
    def test_matches_gcd_mod_p(self, p):
        """I10 of an integer sextic vanishes mod p exactly when f mod p
        fails the gcd test, p = 3 included (where f' loses its top term)."""
        rng = random.Random(p)
        for _ in range(150):
            c = [rng.randrange(p) for _ in range(7)]
            if rng.random() < 0.4:  # force a square factor
                g = [rng.randrange(p), 1]
                c = _poly_mul(_poly_mul(g, g, 0), [rng.randrange(p) for _ in range(5)], 0)
            f = _pm_trim([x % p for x in c])
            df = _pm_trim([i * f[i] % p for i in range(1, len(f))])
            want = len(f) >= 6 and bool(df) and _pm_gcd(f, df, p) == (1,)
            i10 = igusa_clebsch([K13.from_int(x) for x in c])[3]
            assert i10.coords[1] == 0
            assert (i10.coords[0] % p != 0) == want, c

    def test_i10_is_2_to_the_20_times_the_discriminant(self):
        rng = random.Random(20)
        nonzero = 0
        for deg in (6, 5, 4, 3, 0):
            for _ in range(6):
                c = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2))]
                c += [0] * (6 - deg)
                disc = binary_sextic_disc(c)
                assert igusa_clebsch([K13.from_int(x) for x in c])[3] == K13.from_int(2**20 * disc), c
                nonzero += disc != 0
        assert nonzero >= 10

    @pytest.mark.parametrize("label", ("Qsqrt13", "K13cubic"))
    def test_reduction_matches_gcd_at_every_prime_to_199(self, label):
        """`_reduce_sextic` refuses exactly the primes where the reduced
        coefficients fail the gcd oracle, and otherwise returns them. Per
        p, one extra curve g^2 h + p r is smooth over K but has a square
        factor at every prime above p."""
        K = get_order(label)
        rng = random.Random(label)

        def rand(n, bound=9):
            return [K.element([rng.randrange(-bound, bound + 1) for _ in range(K.degree)])
                    for _ in range(n)]

        def smooth(c):
            try:
                return HyperellipticCurveNF(coeffs=tuple(c))
            except ValueError:
                return None

        fixed = [C_FIX] if label == "Qsqrt13" else []
        while len(fixed) < 3:
            fixed += filter(None, [smooth(rand(7))])
        outcomes = set()
        for p in range(3, 200):
            if not is_prime(p):
                continue
            forced = None
            while forced is None:
                g = rand(2, 3)
                sq = _poly_mul(_poly_mul(g, g, K.zero()), rand(5, 3), K.zero())
                forced = smooth([x + p * y for x, y in zip(sq, rand(7, 3))])
            for P in split_prime(K, p):
                for C in fixed + [forced]:
                    red = [reduce_element(c, P) for c in C.coeffs]
                    want = squarefree_sextic(red)
                    try:
                        got = curves._reduce_sextic(C, P)
                    except SingularReductionError:
                        got = None
                    assert (got is not None) == want, (p, P.key, C)
                    if got is not None:
                        assert got == red
                    assert C is not forced or not want
                    outcomes.add(want)
        assert outcomes == {True, False}


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
                assert got == K13.from_int(ref)
                assert all(type(c) is int for c in got.coords)

    def test_scaling_the_form(self):
        # I_{2i}(c * f) = c^{2i} I_{2i}(f)
        base = [K13.from_int(c) for c in (1, 0, 0, 0, 0, 0, 1)]  # x^6 + 1
        scaled = [c * 9 for c in base]  # c = lambda^2 with lambda = 3
        i_base = igusa_clebsch(base)
        i_scaled = igusa_clebsch(scaled)
        for d, (a, b) in zip((2, 4, 6, 10), zip(i_base, i_scaled)):
            assert b == a * (9**d)

    def test_substitution_covariance(self):
        # I_k(f(lam x + mu)) = lam^(3k) I_k(f); f(lam x + mu) has rational
        # coefficients, so compare c * f(lam x + mu), c clearing the
        # denominators, through I_k(c g) = c^k I_k(g)
        rng = random.Random(23)
        base = [(rng.randrange(-4, 5), rng.randrange(-4, 5)) for _ in range(7)]
        lam = Fraction(3, 2)
        mu = Fraction(-1, 3)
        c = 6**6
        out = []
        for j in range(7):
            coords = [
                c * sum(base[i][t] * comb(i, j) * lam**j * mu ** (i - j) for i in range(j, 7))
                for t in range(2)
            ]
            assert all(x.denominator == 1 for x in coords)
            out.append(K13.element([int(x) for x in coords]))
        i_base = igusa_clebsch([K13.element(list(b)) for b in base])
        i_sub = igusa_clebsch(out)
        factor = c * lam**3
        assert factor.denominator == 1
        for d, (a, b) in zip((2, 4, 6, 10), zip(i_base, i_sub)):
            assert b == a * int(factor) ** d

    def test_weight_table_from_the_clebsch_relations(self):
        # Clebsch's A, B, C, D are the unscaled invariants of
        # curves._clebsch_integral times products of the transvectant
        # scales (m-k)!(n-k)!/(m!n!), and I_k of the form 4f is the
        # classical combination below of A, B, C, D; folding both, and
        # 4^k, over one reduced denominator per invariant gives the table
        def s(m, n, k):
            f = math.factorial
            return Fraction(f(m - k) * f(n - k), f(m) * f(n))

        s_i = s(6, 6, 4)  # i = (f, f)_4
        s_y1 = s(6, 4, 4) * s_i  # y1 = (f, i)_4, y3 = (i, (i, y1)_2)_2
        s_y3 = s(4, 2, 2) ** 2 * s_i**2 * s_y1
        scale = (
            s(6, 6, 6),
            s(4, 4, 4) * s_i**2,
            s(4, 4, 4) * s(4, 4, 2) * s_i**3,
            s(2, 2, 2) * s_y3 * s_y1,
        )
        clebsch_to_igusa = (
            ((-120, (1, 0, 0, 0)),),
            ((-720, (2, 0, 0, 0)), (6750, (0, 1, 0, 0))),
            ((8640, (3, 0, 0, 0)), (-108000, (1, 1, 0, 0)), (202500, (0, 0, 1, 0))),
            (
                (-62208, (5, 0, 0, 0)), (972000, (3, 1, 0, 0)), (1620000, (2, 0, 1, 0)),
                (-3037500, (1, 2, 0, 0)), (-6075000, (0, 1, 1, 0)), (-4556250, (0, 0, 0, 1)),
            ),
        )
        for k, terms, (den, table) in zip((2, 4, 6, 10), clebsch_to_igusa, curves._IC_WEIGHTS):
            want = [w * 4**k * math.prod(x**e for x, e in zip(scale, exps)) for w, exps in terms]
            assert [Fraction(n, den) for n, _ in table] == want
            assert [e for _, e in table] == [e for _, e in terms]
            assert math.gcd(den, *(n for n, _ in table)) == 1

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
        fracs = [[tuple(map(int, s.split("/"))) for s in ref[k]] for k in ("I2", "I4", "I6", "I10")]
        # with mu the lcm of the denominators, mu^k I_k (k = 2, 4, 6, 10)
        # is integral and the same weighted projective point
        mu = math.lcm(*(d for coords in fracs for _, d in coords))
        weights = (2, 4, 6, 10)
        prim = tuple(
            K13.element([n * mu**k // d for n, d in coords]) for k, coords in zip(weights, fracs)
        )
        alpha = K13.element([-48, -60])
        mine = igusa_clebsch(C_FIX)
        assert weighted_pp_equal(mine, prim)
        for m, r, k in zip(mine, prim, weights):
            assert m * mu**k == r * alpha**k


class TestWeightedPPEqual:
    def test_trivial_and_scaled(self):
        v = igusa_clebsch(C_FIX)
        assert weighted_pp_equal(v, v)
        beta = K13.from_int(2)
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
        z = (v[0], v[1], v[2], K13.zero())
        with pytest.raises(ValueError):
            weighted_pp_equal(v, z)


def field_sqrt(field, d):
    """A square root of d in `field` by direct search, or None."""
    if d.is_zero:
        return field.zero()
    for x in field.elements():
        if x * x == d:
            return x
    return None


def quadext_projective_order(a, N):
    """Oracle: the order of l1 / l2 found by search in the quadratic
    extension, the computation the two-term recurrence replaced."""
    F = a.field
    disc = a * a - 4 * F.from_int(N)
    if disc.is_zero:
        return F.char
    E = QuadExt(F, field_nonsquare(F))
    root = field_sqrt(E, E.embed(disc))
    inv2 = E.from_int(2).inverse()
    ratio = (E.embed(a) + root) * inv2 * ((E.embed(a) - root) * inv2).inverse()
    order, acc = 1, ratio
    while acc != E.one():
        acc, order = acc * ratio, order + 1
    return order


class TestFrobeniusProjectiveOrder:
    def test_a_zero_gives_order_2(self):
        F7 = checked_field(7, UniPoly([0, 1]))
        assert frobenius_projective_order(F7.zero(), 3) == 2

    def test_repeated_root_convention(self):
        F7 = checked_field(7, UniPoly([0, 1]))
        assert frobenius_projective_order(F7.from_int(2), 1) == 7

    def test_char_divides_det_rejected(self):
        F7 = checked_field(7, UniPoly([0, 1]))
        with pytest.raises(ValueError):
            frobenius_projective_order(F7.one(), 14)

    def test_acceptance_orders(self):
        F9 = checked_field(3, UniPoly([-2, 0, 1]))
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

    @pytest.mark.parametrize(
        "field",
        [checked_field(p, UniPoly([0, 1])) for p in (3, 5, 7, 11, 13)]
        + [checked_field(3, UniPoly([1, 0, 1]))],  # F_9
        ids=lambda F: f"F{F.order}",
    )
    def test_recurrence_vs_quadext_search(self, field):
        repeated = 0
        for a in field.elements():
            for N in range(1, 2 * field.char):
                if N % field.char:
                    repeated += (a * a - 4 * field.from_int(N)).is_zero
                    assert frobenius_projective_order(a, N) == quadext_projective_order(a, N)
        assert repeated  # a = 2, N = 1 has the double root 1
