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
    count_real_roots_where_positive,
    factorize,
    field_nonsquare,
    field_sqrt,
    integer_roots,
    is_nth_power_residue,
    is_prime,
    poly_discriminant,
    poly_factor_mod_p,
    poly_norm,
    real_root_count,
    resultant,
    tarski_query,
    zech_tables,
)

PHI13 = UniPoly([1] * 13)


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
        a = poly_factor_mod_p(PHI13, 29, seed=5)
        b = poly_factor_mod_p(PHI13, 29, seed=5)
        assert a == b


F25 = FiniteField(5, UniPoly([3, 0, 1]), check=False)  # x^2 + 3 irreducible mod 5
F29 = FiniteField(29, UniPoly([0, 1]), check=False)


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
        assert field_sqrt(E, emb) is not None

    def test_char2_rejected(self):
        F4 = FiniteField(2, UniPoly([1, 1, 1]), check=False)
        with pytest.raises(ValueError):
            QuadExt(F4, F4.one())


def _quad_ext_from_index(E, i):
    base = E.base
    return E.element(base.from_index(i % base.order), base.from_index(i // base.order))


class TestZechTables:
    @pytest.mark.parametrize("field", [
        F25,
        FiniteField(3, UniPoly([1, 2, 0, 1])),  # F_27
        QuadExt(F25, field_nonsquare(F25)),  # F_625
    ], ids=["F25", "F27", "F625"])
    def test_tables(self, field):
        T = zech_tables(field)
        N = field.order
        assert sorted(T.exp) == list(range(1, N))  # a bijection onto the nonzero indices
        assert T.log[0] is None
        assert all(T.log[T.exp[n]] == n for n in range(N - 1))
        assert [n for n, z in enumerate(T.zech) if z is None] == [(N - 1) // 2]
        elt = field.from_index if isinstance(field, FiniteField) else (
            lambda i: _quad_ext_from_index(field, i))
        g = elt(T.exp[1])
        # g is the first generator in index order
        for i in range(2, T.exp[1]):
            x = elt(i)
            assert any(x ** ((N - 1) // r) == 1 for r in factorize(N - 1))
        assert all(g ** ((N - 1) // r) != 1 for r in factorize(N - 1))
        rng = random.Random(N)
        for _ in range(40):
            n, m = rng.randrange(N - 1), rng.randrange(N - 1)
            assert (elt(T.exp[n]) * elt(T.exp[m])).index() == T.exp[(n + m) % (N - 1)]
            one_plus = elt(T.exp[n]) + 1
            if T.zech[n] is not None:
                assert one_plus.index() == T.exp[T.zech[n]]
        assert (elt(T.exp[(N - 1) // 2]) + 1).is_zero

    def test_cached_per_field(self):
        assert zech_tables(F25) is zech_tables(FiniteField(5, F25.modulus))

    def test_char2_refused(self):
        with pytest.raises(ValueError):
            zech_tables(FiniteField(2, UniPoly([1, 1, 1])))


class TestIntegerLinearAlgebra:
    def test_bareiss(self):
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1
        assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
        assert bareiss_det([[1, 2], [2, 4]]) == 0

    def test_resultant_common_root(self):
        f = UniPoly([-1, 1]) * UniPoly([-2, 1])
        g = UniPoly([-1, 1]) * UniPoly([-3, 1])
        assert resultant(f, g) == 0

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


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=6),
)
def test_resultant_vanishes_iff_common_factor(a, b):
    f = UniPoly(a + [1])
    g = UniPoly(b + [1])
    r = resultant(f, g)
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
