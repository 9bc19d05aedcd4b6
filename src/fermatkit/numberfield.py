"""Monogenic orders Z[theta], prime splitting, reductions, and norms.

Elements carry exact integer coordinates in the power basis of theta;
rational denominators are rejected on construction, and nothing in the
toolkit needs them (Igusa-Clebsch invariants are integral). Valuations are
implemented only at primes that are alone above their rational prime,
which covers every valuation this toolkit needs.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .exactarith import (
    FFElement,
    FiniteField,
    UniPoly,
    _equal_degree_split,
    _zmulmod,
    chain_pow,
    is_prime,
    poly_discriminant,
    poly_factor_mod_p,
    poly_norm,
)

__all__ = [
    "NumberFieldOrder",
    "NFElement",
    "PrimeIdealData",
    "UnsupportedValuationError",
    "get_order",
    "known_orders",
    "split_prime",
    "prime_by_key",
    "reduce_element",
    "element_norm",
    "valuation_at",
    "cyclotomic_unit_generators",
]


class UnsupportedValuationError(ValueError):
    """Raised when a valuation is requested at a non-unique prime."""


class Frozen:
    """Base of the package's hashed records. Equality and the hash are
    those of the field tuple `_fields()` (an instance of another class is
    never equal), and __init__ sets each field once with `_set`;
    assignment or deletion raises afterwards."""

    __slots__ = ()

    def _set(self, **values):
        # object.__setattr__, not self.__dict__, which would turn the inline
        # attribute values into a dict and make every field read slower
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if self is other:  # NFElement arithmetic compares an order with itself
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class NumberFieldOrder(Frozen):
    """The order Z[theta] with theta a root of a monic integer polynomial."""

    def __init__(self, label: str, poly: UniPoly):
        if not poly.is_monic or poly.degree < 1:
            raise ValueError("defining polynomial must be monic and nonconstant")
        self._set(label=label, poly=poly)

    def _fields(self):
        return (self.label, self.poly)

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def discriminant(self) -> int:
        return poly_discriminant(self.poly)

    def element(self, coords) -> "NFElement":
        c = list(coords)
        if len(c) > self.degree:
            raise ValueError("coordinate vector longer than the field degree")
        for v in c:
            if not isinstance(v, int):
                raise ValueError("order elements need integer coordinates")
        c += [0] * (self.degree - len(c))
        return NFElement(self, tuple(c))

    def from_int(self, n: int) -> "NFElement":
        return self.element([n])

    def zero(self) -> "NFElement":
        return self.from_int(0)

    def one(self) -> "NFElement":
        return self.from_int(1)

    def theta(self) -> "NFElement":
        return self.element([0, 1])


class NFElement:
    """Element of a NumberFieldOrder; exact integer coordinates."""

    __slots__ = ("order", "coords")

    def __init__(self, order: NumberFieldOrder, coords: tuple):
        self.order = order
        self.coords = coords

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def poly(self) -> UniPoly:
        return UniPoly(self.coords)

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.order != self.order:
                raise ValueError("elements of different orders")
            return other
        if isinstance(other, int):
            return self.order.from_int(other)
        raise TypeError(f"cannot combine an order element with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return NFElement(self.order, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.order, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return NFElement(self.order, tuple(a * other for a in self.coords))
        o = self._coerce(other)
        return NFElement(self.order, _zmulmod(self.coords, o.coords, self.order.poly.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("order elements have no inverses in general")
        return chain_pow(NFElement.__mul__, self, e) if e else self.order.one()

    def __eq__(self, other):
        return (
            isinstance(other, NFElement)
            and self.order == other.order
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.order.label, self.order.poly, self.coords))

    def __repr__(self):
        return f"NF({self.order.label}; {list(self.coords)})"


class PrimeIdealData(Frozen):
    """A prime of the order above q: residue field plus the reduction map.

    The index i in the key "q.i" follows the frozen factor order of
    poly_factor_mod_p (sorted by degree, then coefficient tuple). The
    residue field F_q[x]/(factor), its degree fdeg and theta's image (the
    class of x) are derived from the factor; equality and the hash are
    those of the five constructor arguments.
    """

    def __init__(self, order: NumberFieldOrder, q: int, index: int, factor: UniPoly, e: int):
        residue_field = FiniteField(q, factor)
        self._set(order=order, q=q, index=index, factor=factor, e=e, fdeg=factor.degree,
                  residue_field=residue_field, theta_image=residue_field.gen())

    def _fields(self):
        return (self.order, self.q, self.index, self.factor, self.e)

    @property
    def key(self) -> str:
        return f"{self.q}.{self.index}"

    @property
    def norm(self) -> int:
        return self.q**self.fdeg


# Fixture orders. All four have Z[theta] equal to the maximal order
# (the polynomial discriminants 13, 169, 13^11, 8 are the field
# discriminants), so every prime splits as its polynomial factors mod q
# (Dedekind), with no index divisor to exclude.
_PHI13 = UniPoly([1] * 13)

_ORDERS = {
    "Qsqrt13": NumberFieldOrder("Qsqrt13", UniPoly([-3, -1, 1])),
    "K13cubic": NumberFieldOrder("K13cubic", UniPoly([1, -4, 1, 1])),
    "Zzeta13": NumberFieldOrder("Zzeta13", _PHI13),
    "Zsqrt2": NumberFieldOrder("Zsqrt2", UniPoly([-2, 0, 1])),
}


def get_order(label: str) -> NumberFieldOrder:
    try:
        return _ORDERS[label]
    except KeyError:
        raise KeyError(
            f"unknown order label {label!r}; known: {sorted(_ORDERS)}"
        ) from None


def known_orders():
    return dict(_ORDERS)


def split_prime(order: NumberFieldOrder, q: int):
    """Primes of the order above q, one per irreducible factor mod q, in
    the frozen factor order of `poly_factor_mod_p`.

    Two closed forms split a prime (`_split_prime`): a quadratic order at
    an odd q by one square root mod q, and Zzeta13 at q != 13 by the
    residue degree ord_13(q) and at most one equal-degree split. Every
    other case goes through `poly_factor_mod_p`, which stays the
    reference for both closed forms in the tests.
    Results are memoized per (order, q); PrimeIdealData values are
    immutable, so the cached list is shared freely.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return _split_prime(order, q)


def _sqrt_mod(a: int, q: int) -> int:
    """A square root of the nonzero square a modulo the odd prime q:
    a^((q+1)/4) when q = 3 mod 4, Tonelli-Shanks otherwise (Cohen, *A
    Course in Computational Algebraic Number Theory*, Algorithm 1.5.1)."""
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    c, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:  # x^2 = a b, with b of order 2^i for some i < s
        i, b2 = 1, b * b % q
        while b2 != 1:
            i, b2 = i + 1, b2 * b2 % q
        d = pow(c, 1 << (s - i - 1), q)
        s, c = i, d * d % q
        x, b = x * d % q, b * c % q
    return x


def _quadratic_factors(g0: int, g1: int, q: int):
    """The factor list of `poly_factor_mod_p` for x^2 + g1 x + g0 modulo
    the odd prime q, from D = g1^2 - 4 g0: (x + g1/2)^2 when D = 0 mod q,
    the polynomial itself when D is not a square (Euler's criterion), and
    x - (-g1 +- r)/2 with r^2 = D otherwise, sorted by coefficients."""
    D, half = (g1 * g1 - 4 * g0) % q, (q + 1) // 2
    if D == 0:
        return [(UniPoly([g1 * half % q, 1]), 2)]
    if pow(D, (q - 1) // 2, q) != 1:
        return [(UniPoly([g0 % q, g1 % q, 1]), 1)]
    r = _sqrt_mod(D, q)
    return [(UniPoly([c, 1]), 1) for c in sorted(((g1 + r) * half % q, (g1 - r) * half % q))]


def _cyclotomic13_factors(q: int):
    """The factor list of `poly_factor_mod_p` for Phi_13 modulo a prime
    q != 13. Every irreducible factor has degree f = ord_13(q) (Lidl and
    Niederreiter, *Finite Fields*, Theorem 2.47): at f = 12, Phi_13 is
    its own factor; otherwise one Cantor-Zassenhaus split of
    F_q[x]/(Phi_13) at degree f, drawn from the seed `poly_factor_mod_p`
    uses, gives its factors without the squarefree and distinct-degree
    steps, sorted by coefficients (all have degree f)."""
    f = next(f for f in (1, 2, 3, 4, 6, 12) if pow(q, f, 13) == 1)
    if f == 12:
        return [(_PHI13, 1)]
    R = FiniteField(q, _PHI13)
    return [(UniPoly(g), 1) for g in sorted(_equal_degree_split(R, R._mod_c, f, random.Random(1)))]


@lru_cache(maxsize=None)
def _split_prime(order: NumberFieldOrder, q: int):
    """`split_prime` past its checks. The factors of a quadratic order's
    polynomial at an odd q come from `_quadratic_factors`, and those of
    Phi_13 at q != 13 from `_cyclotomic13_factors`, both equal to those
    of `poly_factor_mod_p`, which factors every other case."""
    if order.degree == 2 and q != 2:
        factors = _quadratic_factors(*order.poly.coeffs[:2], q)
    elif order.poly == _PHI13 and q != 13:
        factors = _cyclotomic13_factors(q)
    else:
        factors = poly_factor_mod_p(order.poly, q)
    primes = [PrimeIdealData(order, q, i, g, mult) for i, (g, mult) in enumerate(factors)]
    assert sum(p.e * p.fdeg for p in primes) == order.degree
    return primes


def prime_by_key(order: NumberFieldOrder, key: str) -> PrimeIdealData:
    """Resolve an external "q.i" prime key."""
    try:
        qs, idx = key.split(".")
        q, i = int(qs), int(idx)
    except (AttributeError, ValueError):
        raise ValueError(f"malformed prime key {key!r}") from None
    primes = split_prime(order, q)
    if not 0 <= i < len(primes):
        raise ValueError(f"prime key {key!r}: only {len(primes)} primes above {q}")
    return primes[i]


def reduce_element(x: NFElement, P: PrimeIdealData) -> FFElement:
    """Image of x in the residue field of P (theta goes to the stored root)."""
    if x.order != P.order:
        raise ValueError("element and prime belong to different orders")
    F = P.residue_field
    if P.fdeg > 1:  # the root is the class of x: reduce the coordinate polynomial
        return F.element(x.coords)
    r, acc = P.theta_image.coeffs[0], 0
    for c in reversed(x.coords):
        acc = (acc * r + c) % P.q
    return F.from_int(acc)


def element_norm(x: NFElement) -> int:
    """Field norm of x down to Q: resultant of the defining polynomial
    with the coordinate polynomial of x; multiplicative."""
    return poly_norm(x.order.poly, x.poly())


def valuation_at(x: NFElement, P: PrimeIdealData) -> int:
    """P-adic valuation of x, for P alone above its rational prime.

    With a single prime above q, Norm(x) = +-q^(fdeg * v_P(x)) times a
    unit, so the valuation drops out of the norm exactly.
    """
    if x.is_zero:
        raise ValueError("the zero element has no finite valuation")
    if len(split_prime(P.order, P.q)) != 1:
        raise UnsupportedValuationError(
            f"unsupported valuation: {P.q} has several primes above it in {P.order.label}"
        )
    nm = element_norm(x)
    v = 0
    while nm % P.q == 0:
        nm //= P.q
        v += 1
    if v % P.fdeg != 0:
        raise AssertionError("norm valuation not divisible by the residue degree")
    return v // P.fdeg


def cyclotomic_unit_generators():
    """The five units (1 - zeta^a)/(1 - zeta) = 1 + zeta + ... + zeta^(a-1)
    of Z[zeta_13], for a = 2..6.

    These generate the unit group modulo 7th powers: the class number of
    the real subfield is 1, so cyclotomic units generate the full unit
    group up to torsion, and the torsion has order prime to 7. Their
    independence mod 7th powers is a tested property, not an assumption.
    """
    order = get_order("Zzeta13")
    return [order.element([1] * a) for a in range(2, 7)]
