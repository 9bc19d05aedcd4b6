import functools
import hashlib
import json
import math
import operator
import random
import time
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatkit.exactarith import (
    FiniteField,
    QuadExt,
    UniPoly,
    BiPoly,
    bareiss_det,
    chain_pow,
    count_real_roots_where_positive,
    factorize,
    field_nonsquare,
    integer_roots,
    is_prime,
    poly_discriminant,
    poly_factor_mod_p,
    poly_norm,
    real_root_count,
    tarski_query,
)
from fermatkit.exactarith import (
    _distinct_degree,
    _equal_degree_split,
    _pm_gcd,
    _pm_mod,
    _pm_mul,
    _pm_sub,
    _pm_trim,
)
from fermatkit.numberfield import get_order, known_orders, split_prime

PHI13 = UniPoly([1] * 13)


def is_nth_power_residue(x, n: int) -> bool:
    """True iff the nonzero element x is an n-th power, via x^((N-1)/n)."""
    if x.is_zero:
        raise ValueError("is_nth_power_residue is undefined at zero")
    order = x.field.order
    if (order - 1) % n != 0:
        raise ValueError(f"{n} does not divide the group order {order - 1}")
    return x ** ((order - 1) // n) == x.field.one()


def _pm_powmod(a, e, mod, p):
    """a^e mod (mod, p) by square-and-multiply on schoolbook products and
    long division: the oracle for the packed p-power maps of factoring."""
    if not e:
        return (1,)
    return chain_pow(lambda u, v: _pm_mod(_pm_mul(u, v, p), mod, p), _pm_mod(a, mod, p), e)


def _pad(a, k):
    return tuple(a) + (0,) * (k - len(a))


def _rabin(c, p):
    """Rabin's irreducibility test for the monic tuple c mod p, on
    schoolbook powers: x^(p^n) = x mod c, and x^(p^(n/r)) - x is prime to
    c for each prime r dividing n = deg c."""
    n, x = len(c) - 1, _pm_mod((0, 1), c, p)
    if _pm_sub(_pm_powmod(x, p**n, c, p), x, p):
        return False
    return all(
        len(_pm_gcd(_pm_sub(_pm_powmod(x, p ** (n // r), c, p), x, p), c, p)) == 1
        for r in factorize(n)
    )


def is_irreducible(F):
    """Whether the modulus of F = F_p[x]/(m) is irreducible: a reducible m
    has a factor of degree d <= k/2, and the distinct-degree step d finds
    it (von zur Gathen and Gerhard, Modern Computer Algebra, 14.2)."""
    return _distinct_degree(F) == [(F.k, F._mod_c)]


def checked_field(p, modulus):
    """FiniteField(p, modulus), its modulus asserted irreducible: the
    field takes any monic modulus, so every field a test builds comes
    through here."""
    F = FiniteField(p, modulus)
    assert is_irreducible(F), f"modulus {modulus!r} is reducible mod {p}"
    return F


def _ring(p, c):
    """F_p[x]/(c) for a monic tuple c, not necessarily irreducible."""
    return FiniteField(p, UniPoly(c))


class TestUniPoly:
    def test_normalization_and_degree(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly([]).is_zero
        assert UniPoly([0]).degree == -1
        assert repr(UniPoly([0])) == "UniPoly(0)"
        assert repr(UniPoly([-1, 0, 1])) == "UniPoly(-1 + x^2)"
        assert repr(UniPoly([2, 1, 0, 5])) == "UniPoly(2 + x + 5*x^3)"
        assert repr(UniPoly([0, -3])) == "UniPoly(-3*x)"

    def test_arithmetic(self):
        f = UniPoly([1, 1])
        g = UniPoly([-1, 1])
        assert f * g == UniPoly([-1, 0, 1])
        assert f + g == UniPoly([0, 2])
        assert (f - f).is_zero
        assert f**3 == UniPoly([1, 3, 3, 1])

    def test_evaluate_and_derivative(self):
        f = UniPoly([1, -4, 1, 1])
        assert f(3) == 25
        assert f.derivative() == UniPoly([-4, 2, 3])

    def test_bipoly_evaluation(self):
        # x^2 y + x y^2 at (2, 3) = 12 + 18 = 30
        b = BiPoly.from_nested([[], [0, 0, 1], [0, 1]])
        assert b(2, 3) == 30
        assert b(1, 0) == 0
        assert BiPoly.from_nested([]).is_zero


class TestPrimality:
    def test_small(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(1729)
        assert is_prime(2**31 - 1)

    def test_agrees_with_a_sieve(self):
        # below 41^2 = 1681 trial division decides; Carmichael numbers and
        # the strong pseudoprime 2047 = 23 * 89 on both sides of it
        n = 20000
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
        assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]
        assert not any(is_prime(m) for m in (561, 1105, 1681, 1729, 2047))

    def test_factorize(self):
        assert factorize(4095) == {3: 2, 5: 1, 7: 1, 13: 1}
        assert factorize(1) == {}

    def test_factorize_trial_bound(self):
        """Trial division stops at 10^6: a prime cofactor past it is kept,
        a composite one is an error that names it."""
        assert factorize(2 * 1000003) == {2: 1, 1000003: 1}
        with pytest.raises(ValueError, match=str(1000003 * 1000033)):
            factorize(1000003 * 1000033)


class TestFactorModP:
    def test_split_quadratic_mod_3(self):
        fs = poly_factor_mod_p(UniPoly([-3, -1, 1]), 3)
        assert [(g.coeffs, m) for g, m in fs] == [((0, 1), 1), ((2, 1), 1)]

    def test_inert_quadratic_mod_2(self):
        fs = poly_factor_mod_p(UniPoly([-3, -1, 1]), 2)
        assert len(fs) == 1 and fs[0][0].degree == 2

    def test_phi13_mod_23_two_sextics(self):
        fs = poly_factor_mod_p(PHI13, 23)
        assert [g.degree for g, _ in fs] == [6, 6]

    def test_phi13_mod_13_totally_ramified(self):
        fs = poly_factor_mod_p(PHI13, 13)
        assert fs == [(UniPoly([12, 1]), 12)]

    def test_not_prime_rejected(self):
        with pytest.raises(ValueError):
            poly_factor_mod_p(UniPoly([1, 1]), 6)

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 29])
    def test_refactor_multiplies_back(self, p):
        rng = random.Random(p)
        polys = [UniPoly([p + 1])]  # a unit constant: no factors
        polys += [UniPoly([rng.randrange(p) for _ in range(rng.randrange(2, 9))] + [1])
                  for _ in range(8)]
        for f in polys:
            fs = poly_factor_mod_p(f, p)
            prod = UniPoly([1])
            for g, m in fs:
                prod = prod * g**m
            want = tuple(c % p for c in f.coeffs)
            got = tuple(c % p for c in prod.coeffs)
            assert want == got

    def test_factors_are_irreducible(self):
        # refactoring an irreducible factor returns it unchanged
        for g, _ in poly_factor_mod_p(PHI13, 29):
            again = poly_factor_mod_p(g, 29)
            assert again == [(g, 1)]

    def test_deterministic_with_seed(self):
        """The equal-degree stage draws from a fixed seed: two calls agree."""
        a = poly_factor_mod_p(PHI13, 29)
        b = poly_factor_mod_p(PHI13, 29)
        assert a == b

    def test_frozen_prime_keys(self):
        """The factor lists behind every "q.i" key, for each order and
        every prime q < 200 (184 entries), hash to the frozen digest."""
        orders = known_orders()
        entries = [
            [label, q, [[list(P.factor.coeffs), P.e] for P in split_prime(orders[label], q)]]
            for label in sorted(orders)
            for q in range(2, 200)
            if is_prime(q)
        ]
        assert len(entries) == 184
        digest = hashlib.sha256(json.dumps(entries, separators=(",", ":")).encode()).hexdigest()
        assert digest == "9dfe51b2269c9445bf710fd827ff336da76f53838934aa1ae75d6f2a8eb143f1"

    @pytest.mark.parametrize("p", [2, 3, 23, 29, 101, 2**61 - 1])
    def test_frobenius_map_powers_match_schoolbook(self, p):
        """In the ring F_p[x]/(f), f monic and mostly reducible, the field
        class's packed p-power map is the schoolbook r^p, and for odd p
        (r sigma(r) ... sigma^(d-1)(r))^((p-1)/2) is the schoolbook
        r^((p^d-1)/2); past 64-bit slots both kernels fall back to schoolbook."""
        rng = random.Random(p)
        for k in (1, 2, 3, 6, 12):
            f = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            R = _ring(p, f)
            mul, sigma = R.mul_kernel(), R.frobenius_kernel(1)
            for _ in range(3):
                r = _pad([rng.randrange(p) for _ in range(k)], k)
                assert sigma(r) == _pad(_pm_powmod(r, p, f, p), k), (f, r)
                for d in (1, 2, 3) if p > 2 else ():
                    acc = conj = r
                    for _ in range(d - 1):
                        conj = sigma(conj)
                        acc = mul(acc, conj)
                    want = _pm_powmod(r, (p**d - 1) // 2, f, p)
                    assert _pm_trim(chain_pow(mul, acc, (p - 1) // 2)) == want, (f, r, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 29])
    def test_rabin_and_equal_degree_against_schoolbook(self, p):
        """`is_irreducible` accepts a modulus exactly when the Rabin test on
        schoolbook powers calls it irreducible, and the equal-degree split
        of a product of distinct irreducibles of one degree returns exactly
        those irreducibles, in the ring of that product and in a ring whose
        modulus is that product times an irreducible of another degree."""
        rng = random.Random(10 + p)
        irreducible = {}
        for _ in range(60):
            k = rng.randrange(1, 7)
            c = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            assert is_irreducible(_ring(p, c)) == _rabin(c, p), c
            if _rabin(c, p):
                irreducible.setdefault(k, set()).add(c)
        for d, gs in irreducible.items():
            gs = sorted(gs)[:3]
            f = (1,)
            for g in gs:
                f = _pm_mul(f, g, p)
            extra = min(c for e in irreducible if e != d for c in irreducible[e])
            for modulus in (f, _pm_mul(f, extra, p)):
                got = _equal_degree_split(_ring(p, modulus), f, d, random.Random(1))
                assert sorted(got) == gs, (d, gs, modulus)

    def test_equal_degree_split_of_a_wrong_product_raises(self):
        """With a product that sends everything to 0, no draw splits
        (x-1)(x-2)(x-3) mod 7; the split gives up within a second, long
        before the broken kernel's call budget, instead of looping."""
        f = _pm_mul(_pm_mul((6, 1), (5, 1), 7), (4, 1), 7)
        R = _ring(7, f)
        calls = []

        def broken(a, b):
            calls.append(1)
            if len(calls) > 5000:
                raise RuntimeError("the split kept drawing")
            return (0,) * R.k

        R._kernel = broken
        t0 = time.monotonic()
        with pytest.raises(ArithmeticError, match="64 draws left f unsplit mod 7"):
            _equal_degree_split(R, f, 1, random.Random(1))
        assert time.monotonic() - t0 < 1

    @pytest.mark.parametrize("p, top", [(2, 4), (3, 4), (5, 3)])
    def test_checked_modulus_is_rabin_irreducible(self, p, top):
        """Over every monic modulus of degree 1 to `top`, squarefree or not
        (say (x^2 + 1)^2 mod 3), `is_irreducible` accepts exactly the ones
        the Rabin test on schoolbook powers calls irreducible."""
        for n in range(1, top + 1):
            for i in range(p**n):
                c = tuple(i // p**j % p for j in range(n)) + (1,)
                assert is_irreducible(_ring(p, c)) == _rabin(c, p), c

    @pytest.mark.parametrize("p", [2, 3, 5, 29])
    def test_distinct_degree_blocks(self, p):
        """A product of distinct irreducibles of degrees 1 to 4 splits into
        one block per degree, the product of that degree's factors, whichever
        steps shed a block while x^(p^d) stays reduced mod the whole product
        (a last block is one irreducible, returned whole once 2d passes its
        degree)."""
        rng = random.Random(20 + p)
        irreducible = {}
        for _ in range(200):
            k = rng.randrange(1, 5)
            c = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            if is_irreducible(_ring(p, c)):
                irreducible.setdefault(k, set()).add(c)
        assert sorted(irreducible) == [1, 2, 3, 4]
        product = lambda gs: functools.reduce(lambda u, v: _pm_mul(u, v, p), gs, (1,))
        for _ in range(12):
            want = []
            for d in sorted(irreducible):
                gs = [g for g in sorted(irreducible[d])[:3] if rng.random() < 0.5]
                if gs:
                    want.append((d, product(gs)))
            if want:
                assert _distinct_degree(_ring(p, product([g for _, g in want]))) == want, want


F25 = checked_field(5, UniPoly([3, 0, 1]))
F29 = checked_field(29, UniPoly([0, 1]))


class TestFiniteField:
    def test_construction_checks(self):
        with pytest.raises(ValueError):
            FiniteField(4, UniPoly([1, 1]))
        with pytest.raises(ValueError, match="nonconstant"):
            FiniteField(5, UniPoly([3]))
        with pytest.raises(AssertionError):
            checked_field(5, UniPoly([4, 0, 1]))  # x^2 + 4 = (x+1)(x+4) mod 5

    def test_indexing_roundtrip(self):
        for n in range(F25.order):
            assert F25.from_index(n).index() == n

    def test_field_axioms_random(self):
        rng = random.Random(0)
        for _ in range(100):
            x, y, z = (F25.from_index(rng.randrange(25)) for _ in range(3))
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            assert x + (-x) == F25.zero()
            if not x.is_zero:
                assert x * x.inverse() == F25.one()

    def test_frobenius_fixed_point(self):
        for x in F25.elements():
            assert x**F25.order == x

    def test_order7_element_in_F4096(self):
        f2 = poly_factor_mod_p(PHI13, 2)
        assert len(f2) == 1 and f2[0][0].degree == 12
        F = FiniteField(2, f2[0][0])
        z = F.gen()
        w = z ** ((2**12 - 1) // 7)
        acc = w
        order = 1
        while acc != F.one():
            acc = acc * w
            order += 1
        assert 7 % order == 0

    def test_is_nth_power_residue(self):
        assert is_nth_power_residue(F29.from_int(1), 7)
        g = F29.from_int(2)  # a generator of F_29^*
        assert not is_nth_power_residue(g, 7)
        assert is_nth_power_residue(g**7, 7)
        with pytest.raises(ValueError):
            is_nth_power_residue(F29.zero(), 7)
        with pytest.raises(ValueError):
            is_nth_power_residue(g, 5)  # 5 does not divide 28

    def test_division(self):
        a, b = F25.from_index(7), F25.from_index(13)
        assert (a / b) * b == a

    @pytest.mark.parametrize("p", [2, 3, 5, 11, 29, 101])
    def test_linear_moduli_accepted(self, p):
        for c in range(min(p, 6)):
            F = checked_field(p, UniPoly([c, 1]))
            assert (F.k, F.order) == (1, p)
            assert F.gen() == F.from_int(-c)
        assert checked_field(7, UniPoly([3, 5])).gen() == checked_field(7, UniPoly([2, 1])).gen()

    def test_reducible_and_bad_characteristic_rejected(self):
        with pytest.raises(AssertionError, match="reducible"):
            checked_field(5, UniPoly([4, 0, 1]))
        with pytest.raises(ValueError, match="not prime"):
            FiniteField(4, UniPoly([1, 1]))
        with pytest.raises(ValueError, match="not prime"):
            FiniteField(4, UniPoly([1, 1, 1]))


def _first_irreducible(p, k):
    """Least c with x^k + x + c irreducible mod p."""
    for c in range(p):
        f = UniPoly([c, 1] + [0] * (k - 2) + [1])
        fs = poly_factor_mod_p(f, p)
        if len(fs) == 1 and fs[0][0].degree == k:
            return checked_field(p, f)
    raise AssertionError("no irreducible trinomial")


M61 = 2**61 - 1  # a prime
# The kernel's largest slot is B1 + k(k - 1) B1 (p - 1)^2, B1 = k (p - 1)^2,
# and the smallest array item that holds it is the slot size: 16 bits for
# F_{2^12}, 32 bits for the other sieve fields, up to F_{41^12} (4,055,059,200
# < 2^32), 64 bits from F_{43^12}, and the schoolbook fallback past 2^64.
KERNEL_FIELDS = {
    # the sieve's residue fields, with the moduli the sieve uses
    "F2^12": lambda: split_prime(get_order("Zzeta13"), 2)[0].residue_field,
    "F29^3": lambda: split_prime(get_order("Zzeta13"), 29)[0].residue_field,
    "F23^6": lambda: split_prime(get_order("Zzeta13"), 23)[0].residue_field,
    "F11^12": lambda: split_prime(get_order("Zzeta13"), 11)[0].residue_field,
    "F19^12": lambda: split_prime(get_order("Zzeta13"), 19)[0].residue_field,
    "F41^12": lambda: split_prime(get_order("Zzeta13"), 41)[0].residue_field,
    "F43^12": lambda: _first_irreducible(43, 12),
    # no x^12 + x + c is irreducible mod 3; x^12 + x^2 - 1 is
    "F3^12": lambda: checked_field(3, UniPoly([-1, 0, 1] + [0] * 9 + [1])),
    "F5^12": lambda: _first_irreducible(5, 12),
    "F10369^12": lambda: _first_irreducible(10369, 12),
    "F10391^12": lambda: _first_irreducible(10391, 12),
    "F29": lambda: F29,
    "F11^2": lambda: _first_irreducible(11, 2),
    "F13^2": lambda: _first_irreducible(13, 2),
    "F181^2": lambda: _first_irreducible(181, 2),
    "F191^2": lambda: _first_irreducible(191, 2),
    "F7^3": lambda: _first_irreducible(7, 3),
    "F11^3": lambda: _first_irreducible(11, 3),
    "F7^4": lambda: _first_irreducible(7, 4),
    "F11^4": lambda: _first_irreducible(11, 4),
    "F97^4": lambda: _first_irreducible(97, 4),
    "F101^4": lambda: _first_irreducible(101, 4),
    "F24889^4": lambda: _first_irreducible(24889, 4),
    "F24907^4": lambda: _first_irreducible(24907, 4),
    "F113^3": lambda: _first_irreducible(113, 3),
    "F127^3": lambda: _first_irreducible(127, 3),
    "F31817^3": lambda: _first_irreducible(31817, 3),
    "F31847^3": lambda: _first_irreducible(31847, 3),
    "F5^6": lambda: _first_irreducible(5, 6),
    # no x^6 + x + c is irreducible mod 7; 3 is a primitive root mod 7, so x^6 - 3 is
    "F7^6": lambda: checked_field(7, UniPoly([-3, 0, 0, 0, 0, 0, 1])),
    "F67^6": lambda: _first_irreducible(67, 6),
    "F71^6": lambda: _first_irreducible(71, 6),
    "F17891^6": lambda: _first_irreducible(17891, 6),
    "F17903^6": lambda: _first_irreducible(17903, 6),
    "F46337^2": lambda: _first_irreducible(46337, 2),
    "F46349^2": lambda: _first_irreducible(46349, 2),
    "FM61^2": lambda: checked_field(M61, UniPoly([-3, 0, 1])),  # schoolbook fallback
}
# Each item-size step of `_mul_kernel` at degrees 2, 3, 4, 6 and 12: the
# fields of two consecutive primes and the item size in bits of each side's
# slots; None is the schoolbook fallback past 64 bits.
KERNEL_EDGES = [
    ("F11^2", 16, "F13^2", 32), ("F181^2", 32, "F191^2", 64), ("F46337^2", 64, "F46349^2", None),
    ("F7^3", 16, "F11^3", 32), ("F113^3", 32, "F127^3", 64), ("F31817^3", 64, "F31847^3", None),
    ("F7^4", 16, "F11^4", 32), ("F97^4", 32, "F101^4", 64), ("F24889^4", 64, "F24907^4", None),
    ("F5^6", 16, "F7^6", 32), ("F67^6", 32, "F71^6", 64), ("F17891^6", 64, "F17903^6", None),
    ("F3^12", 16, "F5^12", 32), ("F41^12", 32, "F43^12", 64), ("F10369^12", 64, "F10391^12", None),
]


def _item_bits(F):
    """The item size in bits of F's multiply, None for the schoolbook."""
    kernel = F.mul_kernel()
    if kernel.__name__ == "schoolbook":
        return None
    cells = dict(zip(kernel.__code__.co_freevars, (c.cell_contents for c in kernel.__closure__)))
    return 8 * array(cells["code"]).itemsize


@functools.cache
def _kernel_field(name):
    return KERNEL_FIELDS[name]()


def _schoolbook(x, y):
    """Coefficients of x * y by plain convolution and long division."""
    F = x.field
    r = _pm_mod(_pm_mul(_pm_trim(x.coeffs), _pm_trim(y.coeffs), F.p), F._mod_c, F.p)
    return r + (0,) * (F.k - len(r))


class TestMulKernel:
    @pytest.mark.parametrize("name", list(KERNEL_FIELDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_schoolbook(self, name, data):
        F = _kernel_field(name)
        index = st.integers(min_value=0, max_value=F.order - 1)
        x, y = F.from_index(data.draw(index)), F.from_index(data.draw(index))
        assert (x * y).coeffs == _schoolbook(x, y)
        assert F.mul_kernel()(x.coeffs, y.coeffs) == (y * x).coeffs

    @pytest.mark.parametrize("below,low_bits,above,high_bits", KERNEL_EDGES)
    def test_item_size_steps_between_consecutive_primes(self, below, low_bits, above, high_bits):
        F, G = _kernel_field(below), _kernel_field(above)
        assert F.k == G.k and F.p < G.p
        assert not any(is_prime(q) for q in range(F.p + 1, G.p))
        assert (_item_bits(F), _item_bits(G)) == (low_bits, high_bits)

    @pytest.mark.parametrize("name", list(KERNEL_FIELDS))
    def test_extreme_coefficients(self, name):
        F = _kernel_field(name)
        top = F.from_index(F.order - 1)  # every coefficient p - 1: the largest slots
        for x, y in [(top, top), (top, F.one()), (top, F.zero()), (F.gen(), top)]:
            assert (x * y).coeffs == _schoolbook(x, y)

    @pytest.mark.parametrize("name", list(KERNEL_FIELDS))
    def test_frobenius_kernel_is_a_power(self, name):
        """x -> x^(p^e) on packed rows (unpacked rows past 64-bit slots)
        against plain exponentiation, for every e up to k."""
        F = _kernel_field(name)
        rng = random.Random(name)
        xs = [F.one(), F.gen(), F.from_index(F.order - 1)]
        xs += [F.from_index(rng.randrange(F.order)) for _ in range(3)]
        for e in range(F.k + 1):
            frob = F.frobenius_kernel(e)
            for x in xs:
                assert frob(x.coeffs) == (x ** F.p**e).coeffs, (e, x)

    @pytest.mark.parametrize("name", ["F2^12", "F41^12", "FM61^2"])
    def test_frobenius_kernel_takes_only_t_to_the_p(self, name, monkeypatch):
        """Every map x -> x^(p^e) is built from the field's one map for
        e = 1, itself built from t^p: one power per field, never a fresh
        t^(p^e)."""
        from fermatkit.exactarith import FFElement

        cached = _kernel_field(name)
        F = FiniteField(cached.p, cached.modulus)
        exps = []
        plain = FFElement.__pow__

        def recorded(x, e):
            exps.append(e)
            return plain(x, e)

        monkeypatch.setattr(FFElement, "__pow__", recorded)
        for e in range(F.k + 1):
            F.frobenius_kernel(e)
        assert exps == [F.p]

    def test_built_on_first_multiply(self):
        modulus = split_prime(get_order("Zzeta13"), 29)[0].residue_field.modulus
        F = FiniteField(29, modulus)
        assert F._kernel is None
        F.gen() * F.gen()
        assert F._kernel is F.mul_kernel()

    @pytest.mark.parametrize("name", ["F2^12", "F29^3", "F23^6", "F41^12", "F29", "F101^4"])
    def test_pow_vs_repeated_multiplication(self, name):
        F = _kernel_field(name)
        rng = random.Random(name)
        x = F.from_index(rng.randrange(1, F.order))
        acc = F.one()
        for e in range(14):
            assert x**e == acc
            acc = acc * x
        inv = x.inverse()
        assert x * inv == F.one()
        assert x**-1 == inv and x**-3 == inv * inv * inv
        assert F.zero() ** 0 == F.one() and F.zero() ** 5 == F.zero()


class TestQuadExt:
    def test_tower(self):
        s = field_nonsquare(F25)
        E = QuadExt(F25, s)
        assert E.order == 625
        t = E.gen()
        assert t * t == E.embed(s)
        rng = random.Random(2)
        for _ in range(30):
            x = E.element(F25.from_index(rng.randrange(25)), F25.from_index(rng.randrange(25)))
            if not x.is_zero:
                assert x * x.inverse() == E.one()
                assert x**-3 == (x * x * x).inverse()

    def test_base_elements_become_squares(self):
        s = field_nonsquare(F25)
        E = QuadExt(F25, s)
        emb = E.embed(s)
        assert any(y * y == emb for y in E.elements())

    def test_char2_rejected(self):
        F4 = checked_field(2, UniPoly([1, 1, 1]))
        with pytest.raises(ValueError):
            QuadExt(F4, F4.one())


@pytest.mark.parametrize("kind", ["UniPoly", "FFElement", "NFElement", "QuadExtElement"])
def test_foreign_operands_raise_type_error(kind):
    """An element combines with its own kind (and ints, except in QuadExt):
    any other operand, on either side, and int - element are a TypeError."""
    x = {
        "UniPoly": UniPoly([1, 2]),
        "FFElement": F25.gen(),
        "NFElement": get_order("Qsqrt13").theta(),
        "QuadExtElement": QuadExt(F25, field_nonsquare(F25)).gen(),
    }[kind]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for args in ((x, 1.5), (1.5, x)):
            with pytest.raises(TypeError):
                op(*args)
    with pytest.raises(TypeError):
        1 - x


class TestIntegerLinearAlgebra:
    def test_bareiss(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert bareiss_det([]) == 1

    def test_resultant_common_root(self):
        # for monic f the resultant Res(f, g) is the norm of g mod f
        f = UniPoly([-1, 1]) * UniPoly([-2, 1])
        g = UniPoly([-1, 1]) * UniPoly([-3, 1])
        assert poly_norm(f, g) == 0

    def test_norms(self):
        assert poly_norm(UniPoly([-2, 0, 1]), UniPoly([3, 1])) == 7
        assert poly_norm(PHI13, UniPoly([1, -1])) == 13
        assert poly_norm(UniPoly([-3, -1, 1]), UniPoly([1])) == 1
        assert poly_norm(UniPoly([-3, -1, 1]), UniPoly([0, 1])) == -3

    def test_norm_multiplicative(self):
        rng = random.Random(3)
        f = UniPoly([1, -4, 1, 1])
        for _ in range(20):
            g = UniPoly([rng.randrange(-5, 6) for _ in range(3)])
            h = UniPoly([rng.randrange(-5, 6) for _ in range(3)])
            assert poly_norm(f, g * h) == poly_norm(f, g) * poly_norm(f, h)

    def test_discriminants(self):
        assert poly_discriminant(UniPoly([-3, -1, 1])) == 13
        assert poly_discriminant(UniPoly([1, -4, 1, 1])) == 169
        assert poly_discriminant(UniPoly([-2, 0, 1])) == 8


class TestRealRootCounting:
    def test_counts(self):
        assert real_root_count([-2, 0, 1]) == 2
        assert real_root_count([1, 0, 1]) == 0
        assert real_root_count([0, 1]) == 1
        assert real_root_count([-1, -2, 1, 1]) == 3  # the cyclotomic-style cubic

    def test_tarski(self):
        # roots of x^2 - 2 at +-sqrt(2); sign of x there: one +, one -
        assert tarski_query([-2, 0, 1], [0, 1]) == 0
        assert tarski_query([-2, 0, 1], [1]) == 2

    def test_integer_roots_vs_scan(self):
        rng = random.Random(5)
        for _ in range(60):
            p = UniPoly([rng.randrange(-4, 5) for _ in range(rng.randrange(3))] + [rng.choice([1, 2, -3])])
            for r in (rng.randrange(-40, 41) for _ in range(rng.randrange(1, 4))):
                p = p * UniPoly([-r, 1])
            assert integer_roots(p) == [x for x in range(-400, 401) if p(x) == 0]

    def test_integer_roots_far_out(self):
        assert integer_roots(UniPoly([-10**18, 0, 1])) == [-10**9, 10**9]
        assert integer_roots(UniPoly([10**9 + 7, 0, 1])) == []
        assert integer_roots(UniPoly([0, 0, -1, 1])) == [0, 1]  # double root at 0
        with pytest.raises(ValueError):
            integer_roots(UniPoly([5]))

    def test_positive_count(self):
        # g = x: positive at sqrt(2) only
        assert count_real_roots_where_positive([-2, 0, 1], [0, 1]) == 1
        # v = 6 at a root of x (norm-3 style Weil violation): 36 - 12 > 0
        assert count_real_roots_where_positive([0, 1], [24]) == 1
        assert count_real_roots_where_positive([0, 1], [-1]) == 0

    @pytest.mark.parametrize("h", [UniPoly([]), [], [0]])
    def test_positive_count_refuses_the_zero_polynomial(self, h):
        with pytest.raises(ValueError, match="nonzero h"):
            count_real_roots_where_positive(h, UniPoly([1, 4, 0, 6]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-5, max_value=5).filter(bool),
    st.dictionaries(
        st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=3), max_size=4
    ),
    st.lists(st.integers(min_value=1, max_value=30), max_size=2),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
)
def test_sturm_tarski_against_a_known_factorisation(c, roots, squares, g):
    """h = c prod (x - r)^m prod (x^2 + s), s > 0, has the real roots
    `roots` exactly, so every Sturm-Tarski count is known in advance."""
    h = UniPoly([c])
    for r, m in roots.items():
        h = h * UniPoly([-r, 1]) ** m
    for s in squares:
        h = h * UniPoly([s, 0, 1])
    gp = UniPoly(g)
    signs = [(gp(r) > 0) - (gp(r) < 0) for r in roots]
    assert real_root_count(h) == len(roots)
    assert tarski_query(h, gp) == sum(signs)
    assert count_real_roots_where_positive(h, gp) == signs.count(1)
    if h.degree >= 1:
        assert integer_roots(h) == sorted(roots)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
)
def test_resultant_vanishes_iff_common_factor(a, b):
    f = UniPoly(a + [1])
    g = UniPoly(b + [1])
    r = poly_norm(f, g)  # the resultant, f being monic
    # resultant zero implies a common root mod several primes
    if r == 0:
        for p in (101, 103, 107):
            ff = poly_factor_mod_p(f, p)
            gg = poly_factor_mod_p(g, p)
            assert set(x for x, _ in ff) & set(y for y, _ in gg)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-30, max_value=30), max_size=6),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=6),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=6),
)
def test_unipoly_ring_laws(a, b, c):
    f, g, h = UniPoly(a), UniPoly(b), UniPoly(c)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f + (-f) == UniPoly()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=3),
)
def test_poly_norm_multiplicative_property(a, b):
    f = UniPoly([1, -4, 1, 1])  # cubic modulus
    g, h = UniPoly(a), UniPoly(b)
    assert poly_norm(f, g * h) == poly_norm(f, g) * poly_norm(f, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=624), st.integers(min_value=0, max_value=624))
def test_f625_field_laws(i, j):
    s = field_nonsquare(F25)
    E = QuadExt(F25, s)
    x, y = E.embed(F25.from_index(i % 25)), E.element(
        F25.from_index(i % 25), F25.from_index(j % 25)
    )
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero:
        assert (x * y) / y == x


class TestChainPow:
    """The one square-and-multiply every power in the package goes through."""

    def test_products_counted(self):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b % 1009

        for e in range(1, 300):
            calls.clear()
            assert chain_pow(mul, 3, e) == pow(3, e, 1009)
            assert len(calls) == e.bit_length() + e.bit_count() - 2, e

    def test_memo_shares_one_chain(self):
        memo, mul = {}, lambda a, b: a * b % 1009
        assert [chain_pow(mul, 5, g, memo) for g in (13, 6, 3, 1)] == [
            pow(5, g, 1009) for g in (13, 6, 3, 1)
        ]
        assert sorted(memo) == [2, 3, 6, 12, 13]  # 5 products for all four

    def test_ffelement_pow_kernel_count(self):
        """x^e takes e.bit_length() + e.bit_count() - 2 kernel multiplies:
        no product with 1 to start the chain."""
        cached = split_prime(get_order("Zzeta13"), 23)[0].residue_field
        F = checked_field(cached.p, cached.modulus)
        kernel, calls = F.mul_kernel(), []

        def counted(a, b):
            calls.append(1)
            return kernel(a, b)

        F._kernel = counted
        x = F.from_index(98765)
        for e in (1, 2, 7, 1738, (F.order - 1) // 7):
            calls.clear()
            x**e
            assert len(calls) == e.bit_length() + e.bit_count() - 2, e
        calls.clear()
        assert x**0 == F.one() and not calls

    def test_other_powers_vs_repeated_multiplication(self):
        E = QuadExt(F25, field_nonsquare(F25))
        K = get_order("Zzeta13")
        mod = F25._mod_c
        elements = [
            E.element(F25.from_index(7), F25.from_index(3)),
            UniPoly([2, -1, 1]),
            K.element([1, 2, 0, -1]),
        ]
        for x in elements:
            acc = x ** 0
            for e in range(1, 9):
                acc = acc * x
                assert x**e == acc, (x, e)
        a, acc = (3, 4, 1), (1,)
        for e in range(9):
            assert _pm_powmod(a, e, mod, 5) == acc, e
            acc = _pm_mod(_pm_mul(acc, a, 5), mod, 5)
