import random

import pytest

from fermatkit import exactarith, numberfield
from fermatkit.exactarith import (
    UniPoly,
    _pm_mod,
    _pm_trim,
    is_prime,
    poly_factor_mod_p,
)
from fermatkit.numberfield import (
    NumberFieldOrder,
    UnsupportedValuationError,
    _sqrt_mod,
    cyclotomic_unit_generators,
    element_norm,
    get_order,
    known_orders,
    prime_by_key,
    reduce_element,
    split_prime,
    valuation_at,
)
from test_exactarith import checked_field

K13 = get_order("Qsqrt13")
KC = get_order("K13cubic")
ZZ13 = get_order("Zzeta13")
Z2 = get_order("Zsqrt2")


class TestOrders:
    def test_registry(self):
        assert set(known_orders()) == {"Qsqrt13", "K13cubic", "Zzeta13", "Zsqrt2"}
        with pytest.raises(KeyError):
            get_order("nope")

    def test_discriminants(self):
        assert K13.discriminant == 13
        assert KC.discriminant == 169
        assert Z2.discriminant == 8

    def test_integer_coordinates_only(self):
        with pytest.raises(ValueError):
            K13.element([1.5, 0])

    def test_u_satisfies_its_polynomial(self):
        u = K13.theta()
        assert u * u == u + 3

    def test_monic_required(self):
        with pytest.raises(ValueError):
            NumberFieldOrder("bad", UniPoly([1, 2]))


class TestSplitting:
    def test_three_splits_in_Qsqrt13(self):
        ps = split_prime(K13, 3)
        assert [(P.key, P.e, P.fdeg) for P in ps] == [("3.0", 1, 1), ("3.1", 1, 1)]
        images = {tuple(P.theta_image.coeffs) for P in ps}
        assert images == {(0,), (1,)}

    def test_13_totally_ramified_in_Zzeta13(self):
        ps = split_prime(ZZ13, 13)
        assert len(ps) == 1 and ps[0].e == 12 and ps[0].fdeg == 1

    def test_5_splits_completely_in_cubic(self):
        ps = split_prime(KC, 5)
        assert len(ps) == 3 and all(P.fdeg == 1 for P in ps)

    def test_2_and_3_inert_in_cubic(self):
        for q in (2, 3):
            ps = split_prime(KC, q)
            assert len(ps) == 1 and ps[0].fdeg == 3

    def test_ef_sum_and_remultiplication(self):
        for order in (K13, KC, ZZ13):
            for q in (2, 3, 5, 7, 11, 13, 29):
                ps = split_prime(order, q)
                assert sum(P.e * P.fdeg for P in ps) == order.degree
                prod = UniPoly([1])
                for P in ps:
                    prod = prod * P.factor**P.e
                assert tuple(c % q for c in prod.coeffs) == tuple(
                    c % q for c in order.poly.coeffs
                )

    def test_prime_by_key(self):
        P = prime_by_key(K13, "3.1")
        assert P.theta_image.coeffs == (1,)
        with pytest.raises(ValueError):
            prime_by_key(K13, "3.7")
        with pytest.raises(ValueError):
            prime_by_key(K13, "junk")


class TestReduction:
    def test_trivial_images(self):
        P = split_prime(K13, 5)[0]
        assert reduce_element(K13.from_int(5) * K13.theta(), P).is_zero
        assert reduce_element(K13.one(), P) == P.residue_field.one()

    def test_u_minus_1_dies_at_its_prime(self):
        u = K13.theta()
        v1 = prime_by_key(K13, "3.1")  # theta -> 1
        v2 = prime_by_key(K13, "3.0")  # theta -> 0
        assert reduce_element(u - 1, v1).is_zero
        assert not reduce_element(u - 1, v2).is_zero

    def test_ring_homomorphism_random(self):
        rng = random.Random(7)
        P = split_prime(KC, 11)[0]
        for _ in range(40):
            a = KC.element([rng.randrange(-20, 21) for _ in range(3)])
            b = KC.element([rng.randrange(-20, 21) for _ in range(3)])
            assert reduce_element(a + b, P) == reduce_element(a, P) + reduce_element(b, P)
            assert reduce_element(a * b, P) == reduce_element(a, P) * reduce_element(b, P)

    def test_inert_3_in_zsqrt2_is_f9(self):
        """The F_9 of the projective-order check: the residue field at 3 of
        Z[sqrt(2)] is F_3[x]/(x^2 - 2), and a + b sqrt(2) goes to a + b x."""
        (P,) = split_prime(Z2, 3)
        F9 = checked_field(3, UniPoly([-2, 0, 1]))
        assert P.residue_field == F9
        for a in range(-20, 21):
            for b in range(-20, 21):
                assert reduce_element(Z2.element([a, b]), P) == F9.element([a, b])


    @pytest.mark.parametrize("q", [2, 3, 5, 23, 29, 53])
    def test_matches_horner_at_the_root(self, q):
        """reduce_element is the coordinate polynomial evaluated at the
        stored image of theta, at primes of every residue degree."""
        rng = random.Random(q)
        for P in split_prime(ZZ13, q):
            for _ in range(10):
                x = ZZ13.element([rng.randrange(-50, 51) for _ in range(12)])
                acc = P.residue_field.zero()
                for c in reversed(x.coords):
                    acc = acc * P.theta_image + c
                assert reduce_element(x, P) == acc


    @pytest.mark.parametrize("q", [11, 23, 29, 547])
    def test_trimmed_element_matches_full_division(self, q):
        """`FiniteField.element` divides only a trimmed polynomial of
        degree at least k; its result is the full remainder by the
        modulus, as before, for a + b zeta and for 12-coordinate vectors
        with every coordinate nonzero."""
        rng = random.Random(q)
        fdegs = set()
        for P in split_prime(ZZ13, q):
            F = P.residue_field
            fdegs.add(F.k)
            xs = [ZZ13.element([a, b]) for a in (-3, 0, 1, 12) for b in (-1, 0, 1, q)]
            xs += [
                ZZ13.element([rng.choice([-1, 1]) * rng.randrange(1, 10**6) for _ in range(12)])
                for _ in range(8)
            ]
            for x in xs:
                rem = _pm_mod(_pm_trim([c % q for c in x.coords]), F._mod_c, q)
                want = tuple(rem) + (0,) * (F.k - len(rem))
                assert reduce_element(x, P).coeffs == want
        assert fdegs == {12 // len(split_prime(ZZ13, q))}


class TestNorms:
    def test_examples(self):
        assert element_norm(K13.one()) == 1
        assert element_norm(Z2.element([3, 1])) == 7
        assert element_norm(ZZ13.one() - ZZ13.theta()) == 13

    def test_multiplicative_random(self):
        rng = random.Random(11)
        for _ in range(25):
            a = ZZ13.element([rng.randrange(-2, 3) for _ in range(12)])
            b = ZZ13.element([rng.randrange(-2, 3) for _ in range(12)])
            assert element_norm(a * b) == element_norm(a) * element_norm(b)


class TestValuations:
    def test_basics(self):
        P2 = split_prime(K13, 2)[0]
        assert valuation_at(K13.one(), P2) == 0
        assert valuation_at(K13.from_int(2), P2) == 1

    def test_scaling_property(self):
        rng = random.Random(13)
        P2 = split_prime(K13, 2)[0]
        for _ in range(15):
            x = K13.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
            if x.is_zero:
                continue
            assert valuation_at(2 * x, P2) == 1 + valuation_at(x, P2)

    def test_ramified_prime(self):
        Pw = split_prime(K13, 13)[0]
        w = 2 * K13.theta() - 1  # sqrt(13)
        assert valuation_at(w, Pw) == 1
        assert valuation_at(K13.from_int(13), Pw) == 2

    def test_split_prime_unsupported(self):
        P = split_prime(K13, 3)[0]
        with pytest.raises(UnsupportedValuationError):
            valuation_at(K13.one(), P)

    def test_zero_rejected(self):
        P2 = split_prime(K13, 2)[0]
        with pytest.raises(ValueError):
            valuation_at(K13.zero(), P2)


class TestCyclotomicUnits:
    def test_shapes_and_norms(self):
        us = cyclotomic_unit_generators()
        assert len(us) == 5
        assert us[0].coords[:2] == (1, 1)
        for u in us:
            assert element_norm(u) in (1, -1)

    def test_u2_norm_is_phi13_at_minus_1(self):
        phi13 = ZZ13.poly
        assert element_norm(cyclotomic_unit_generators()[0]) == phi13(-1) == 1

    def test_units_reduce_to_units(self):
        for q in (2, 3, 5, 23, 29):
            for P in split_prime(ZZ13, q):
                for u in cyclotomic_unit_generators():
                    assert not reduce_element(u, P).is_zero


def prime_key_action(order, q: int, sigma_poly: UniPoly) -> dict:
    """Permutation of prime keys above q induced by theta -> sigma_poly(theta).

    sigma_poly must define an automorphism of the field (the order is
    assumed Galois-stable under it). For each prime P, the image key is
    the one whose factor vanishes on sigma_poly evaluated at P's root.
    """
    primes = split_prime(order, q)
    mapping = {}
    for P in primes:
        y = P.residue_field.zero()
        for c in reversed(sigma_poly.coeffs):
            y = y * P.theta_image + c
        hits = []
        for Q in primes:
            acc = P.residue_field.zero()
            for c in reversed(Q.factor.coeffs):
                acc = acc * y + c
            if acc.is_zero:
                hits.append(Q.key)
        if len(hits) != 1:
            raise ValueError(
                "sigma_poly does not induce a permutation of the primes above "
                f"{q} (prime {P.key} maps to {hits})"
            )
        mapping[P.key] = hits[0]
    return mapping


class TestGaloisAction:
    def test_three_cycle_above_5(self):
        # the cubic field is cyclic; theta -> 2 - 2*theta - theta^2 generates
        sigma = UniPoly([2, -2, -1])
        act = prime_key_action(KC, 5, sigma)
        assert sorted(act) == ["5.0", "5.1", "5.2"]
        seen = set()
        key = "5.0"
        for _ in range(3):
            key = act[key]
            seen.add(key)
        assert key == "5.0" and len(seen) == 3

    def test_identity_action(self):
        act = prime_key_action(KC, 5, UniPoly([0, 1]))
        assert all(k == v for k, v in act.items())

    def test_non_automorphism_rejected(self):
        with pytest.raises(ValueError):
            prime_key_action(KC, 5, UniPoly([0, 2]))


from hypothesis import given, settings
from hypothesis import strategies as st

coords3 = st.lists(st.integers(min_value=-15, max_value=15), min_size=3, max_size=3)


@settings(max_examples=50, deadline=None)
@given(coords3, coords3, coords3)
def test_order_ring_laws(a, b, c):
    x, y, z = KC.element(a), KC.element(b), KC.element(c)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


@settings(max_examples=50, deadline=None)
@given(coords3, coords3)
def test_reduction_is_ring_map_property(a, b):
    x, y = KC.element(a), KC.element(b)
    for P in split_prime(KC, 7):
        assert reduce_element(x * y, P) == reduce_element(x, P) * reduce_element(y, P)
        assert reduce_element(x + y, P) == reduce_element(x, P) + reduce_element(y, P)


def test_split_cache_thread_safety():
    """The splitting cache is internally synchronized; concurrent callers
    must all see the same immutable result objects."""
    import threading

    results = []

    def work():
        out = []
        for q in (5, 7, 11, 29, 41):
            out.append(tuple(P.key for P in split_prime(ZZ13, q)))
        results.append(tuple(out))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_split_cache_shared_by_equal_orders_and_checked_first():
    twin = NumberFieldOrder("Qsqrt13", UniPoly([-3, -1, 1]))
    assert twin == K13
    assert split_prime(twin, 17) is split_prime(K13, 17)
    with pytest.raises(ValueError, match="not prime"):
        split_prime(K13, 15)


class TestQuadraticSplit:
    """The closed forms of `_split_prime`, for the two quadratic orders and
    for Zzeta13, with `poly_factor_mod_p` as their reference."""

    PRIMES = [q for q in range(2, 2000) if is_prime(q)]

    @pytest.mark.parametrize("order", [K13, Z2, ZZ13], ids=lambda o: o.label)
    def test_matches_the_generic_factorizer(self, order):
        numberfield._split_prime.cache_clear()
        for q in self.PRIMES:
            primes = split_prime(order, q)
            assert [(P.factor, P.e) for P in primes] == poly_factor_mod_p(order.poly, q), q

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 97, 193, 257])
    def test_square_roots_against_brute_force(self, p):
        """p = 3 mod 4 and 2-adic valuations of p - 1 from 1 to 8, so
        every branch of Tonelli-Shanks runs."""
        roots = {}
        for x in range(1, p):
            roots.setdefault(x * x % p, set()).add(x)
        for a, xs in roots.items():
            assert _sqrt_mod(a, p) in xs, (p, a)

    def test_quadratic_orders_split_without_the_generic_factorizer(self, monkeypatch):
        want = {(order, q): poly_factor_mod_p(order.poly, q)
                for order in (K13, Z2) for q in self.PRIMES if 2 < q < 200}

        def refuse(*args):
            raise AssertionError("a quadratic order reached poly_factor_mod_p")

        monkeypatch.setattr(numberfield, "poly_factor_mod_p", refuse)
        numberfield._split_prime.cache_clear()
        for (order, q), factors in want.items():
            assert [(P.factor, P.e) for P in split_prime(order, q)] == factors, (order.label, q)

    def test_cyclotomic_primes_split_without_the_generic_factorizer(self, monkeypatch):
        """Zzeta13 at every q != 13 below 200: neither the generic
        factorizer nor its distinct-degree step runs, and both closed-form
        branches do (Phi_13 inert at f = ord_13(q) = 12, one equal-degree
        split below)."""
        want = {q: poly_factor_mod_p(ZZ13.poly, q) for q in self.PRIMES if q < 200 and q != 13}
        assert {len(fs) == 1 for fs in want.values()} == {True, False}

        def refuse(*args):
            raise AssertionError("Zzeta13 reached the generic factorizer")

        monkeypatch.setattr(numberfield, "poly_factor_mod_p", refuse)
        monkeypatch.setattr(exactarith, "_distinct_degree", refuse)
        numberfield._split_prime.cache_clear()
        for q, factors in want.items():
            primes = split_prime(ZZ13, q)
            assert [(P.factor, P.e) for P in primes] == factors, q
            f = min(f for f in range(1, 13) if pow(q, f, 13) == 1)
            assert {P.fdeg for P in primes} == {f} and len(primes) == 12 // f, q
