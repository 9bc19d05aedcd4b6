import functools
import hashlib
import json
import random

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
    _equal_degree_split,
    _frobenius_map,
    _is_irreducible_mod_p,
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


class TestUniPoly:
    def test_normalization_and_degree(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly([]).is_zero
        assert UniPoly([0]).degree == -1

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

    def test_factorize(self):
        assert factorize(4095) == {3: 2, 5: 1, 7: 1, 13: 1}
        assert factorize(1) == {}


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
        for _ in range(8):
            f = UniPoly([rng.randrange(p) for _ in range(rng.randrange(2, 9))] + [1])
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
            if is_prime(q) and q not in orders[label].excluded_primes
        ]
        assert len(entries) == 184
        digest = hashlib.sha256(json.dumps(entries, separators=(",", ":")).encode()).hexdigest()
        assert digest == "9dfe51b2269c9445bf710fd827ff336da76f53838934aa1ae75d6f2a8eb143f1"

    @pytest.mark.parametrize("p", [2, 3, 23, 29, 101, 2**61 - 1])
    def test_frobenius_map_powers_match_schoolbook(self, p):
        """In F_p[x]/(f), f monic and mostly reducible, the packed p-power
        map is the schoolbook r^p, and for odd p
        (r sigma(r) ... sigma^(d-1)(r))^((p-1)/2) is the schoolbook
        r^((p^d-1)/2); past 64-bit slots both kernels fall back to schoolbook."""
        rng = random.Random(p)
        for k in (1, 2, 3, 6, 12):
            f = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            mul, sigma = _frobenius_map(f, p)
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
        """The Rabin test agrees with one on schoolbook powers, and the
        equal-degree split of a product of distinct irreducibles of one
        degree returns exactly those irreducibles."""

        def rabin(c):
            n, x = len(c) - 1, _pm_mod((0, 1), c, p)
            if _pm_sub(_pm_powmod(x, p**n, c, p), x, p):
                return False
            return all(
                len(_pm_gcd(_pm_sub(_pm_powmod(x, p ** (n // r), c, p), x, p), c, p)) == 1
                for r in factorize(n)
            )

        rng = random.Random(10 + p)
        irreducible = {}
        for _ in range(60):
            k = rng.randrange(1, 7)
            c = tuple(rng.randrange(p) for _ in range(k)) + (1,)
            assert _is_irreducible_mod_p(c, p) == rabin(c), c
            if rabin(c):
                irreducible.setdefault(k, set()).add(c)
        for d, gs in irreducible.items():
            gs = sorted(gs)[:3]
            f = (1,)
            for g in gs:
                f = _pm_mul(f, g, p)
            got = _equal_degree_split(f, d, p, random.Random(1))
            assert sorted(got) == gs, (d, gs)


F25 = FiniteField(5, UniPoly([3, 0, 1]), check=False)  # x^2 + 3 irreducible mod 5
F29 = FiniteField(29, UniPoly([0, 1]))


class TestFiniteField:
    def test_construction_checks(self):
        with pytest.raises(ValueError):
            FiniteField(4, UniPoly([1, 1]))
        with pytest.raises(ValueError):
            FiniteField(5, UniPoly([4, 0, 1]))  # x^2 + 4 = (x+1)(x+4) mod 5

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
        F = FiniteField(2, f2[0][0], check=False)
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
            F = FiniteField(p, UniPoly([c, 1]))
            assert (F.k, F.order) == (1, p)
            assert F.gen() == F.from_int(-c)
        assert FiniteField(7, UniPoly([3, 5])).gen() == FiniteField(7, UniPoly([2, 1])).gen()

    def test_reducible_and_bad_characteristic_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            FiniteField(5, UniPoly([4, 0, 1]))
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
            return FiniteField(p, f)
    raise AssertionError("no irreducible trinomial")


M61 = 2**61 - 1  # a prime
# The kernel's slots hold (2k - 1)(p - 1)^2: below 2^16 for every sieve
# field (23 * 40^2 for F_{41^12}), 70000 for F_{101^4}, past 2^64 for F_{M61^2}.
KERNEL_FIELDS = {
    # the sieve's residue fields, with the moduli the sieve uses
    "F2^12": lambda: split_prime(get_order("Zzeta13"), 2)[0].residue_field,
    "F29^3": lambda: split_prime(get_order("Zzeta13"), 29)[0].residue_field,
    "F23^6": lambda: split_prime(get_order("Zzeta13"), 23)[0].residue_field,
    "F11^12": lambda: split_prime(get_order("Zzeta13"), 11)[0].residue_field,
    "F19^12": lambda: split_prime(get_order("Zzeta13"), 19)[0].residue_field,
    "F41^12": lambda: split_prime(get_order("Zzeta13"), 41)[0].residue_field,
    "F29": lambda: F29,
    "F101^4": lambda: _first_irreducible(101, 4),  # 32-bit slots
    "FM61^2": lambda: FiniteField(M61, UniPoly([-3, 0, 1])),  # schoolbook fallback
}


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
        F = FiniteField(29, split_prime(get_order("Zzeta13"), 29)[0].residue_field.modulus)
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

    def test_base_elements_become_squares(self):
        s = field_nonsquare(F25)
        E = QuadExt(F25, s)
        emb = E.embed(s)
        assert any(y * y == emb for y in E.elements())

    def test_char2_rejected(self):
        F4 = FiniteField(2, UniPoly([1, 1, 1]), check=False)
        with pytest.raises(ValueError):
            QuadExt(F4, F4.one())


class TestIntegerLinearAlgebra:
    def test_bareiss(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert bareiss_det([[1, 2], [2, 4]]) == 0

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
        F = FiniteField(cached.p, cached.modulus)
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
