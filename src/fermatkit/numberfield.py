"""Monogenic orders Z[theta], prime splitting, reductions, and norms.

Elements carry exact integer coordinates in the power basis of theta;
rational denominators are rejected on construction, and nothing in the
toolkit needs them (Igusa-Clebsch invariants are integral). Valuations are
implemented only at primes that are alone above their rational prime,
which covers every valuation this toolkit needs.
"""

from __future__ import annotations

from functools import lru_cache

from .exactarith import (
    FFElement,
    FiniteField,
    UniPoly,
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
    "UnsupportedPrimeError",
    "UnsupportedValuationError",
    "get_order",
    "known_orders",
    "split_prime",
    "prime_by_key",
    "reduce_element",
    "element_norm",
    "valuation_at",
    "cyclotomic_unit_generators",
    "prime_key_action",
]


class UnsupportedPrimeError(ValueError):
    """Raised for primes on an order's excluded-index list."""


class UnsupportedValuationError(ValueError):
    """Raised when a valuation is requested at a non-unique prime."""


class Frozen:
    """Base of the package's hashed records. Equality and the hash are
    those of the field tuple `_fields()` (an instance of another class is
    never equal), and __init__ sets each field once with
    object.__setattr__; assignment or deletion raises afterwards. (Not
    through self.__dict__, which would turn the instance's inline
    attribute values into a dict and make every field read slower.)"""

    __slots__ = ()

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

    def __init__(self, label: str, poly: UniPoly, excluded_primes: tuple = ()):
        if not poly.is_monic or poly.degree < 1:
            raise ValueError("defining polynomial must be monic and nonconstant")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "excluded_primes", excluded_primes)

    def _fields(self):
        return (self.label, self.poly, self.excluded_primes)

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

    def __repr__(self):
        return f"NumberFieldOrder({self.label!r}, {self.poly!r})"


def _reduce_mul(order: NumberFieldOrder, a, b):
    """Schoolbook product of two integer coordinate tuples reduced mod
    the defining polynomial."""
    n = order.degree
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    fc = order.poly.coeffs
    for i in range(len(prod) - 1, n - 1, -1):
        top = prod[i]
        if top:
            for j in range(n):
                prod[i - n + j] -= top * fc[j]
        prod.pop()
    return tuple(prod[:n])


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
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElement(self.order, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.order, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return NFElement(self.order, tuple(a * other for a in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElement(
            self.order, _reduce_mul(self.order, self.coords, o.coords)
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("order elements have no inverses in general")
        return chain_pow(NFElement.__mul__, self, e) if e else self.order.one()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.order.from_int(other)
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
    poly_factor_mod_p (sorted by degree, then coefficient tuple).
    Equality and the hash leave out the residue field and theta's image.
    """

    def __init__(self, order: NumberFieldOrder, q: int, index: int, factor: UniPoly,
                 e: int, fdeg: int, residue_field: FiniteField, theta_image: FFElement):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "fdeg", fdeg)
        object.__setattr__(self, "residue_field", residue_field)
        object.__setattr__(self, "theta_image", theta_image)

    def _fields(self):
        return (self.order, self.q, self.index, self.factor, self.e, self.fdeg)

    @property
    def key(self) -> str:
        return f"{self.q}.{self.index}"

    @property
    def norm(self) -> int:
        return self.q**self.fdeg

    def __repr__(self):
        return (
            f"PrimeIdealData({self.order.label}, key={self.key}, "
            f"e={self.e}, f={self.fdeg})"
        )


# Fixture orders. All four have Z[theta] equal to the maximal order
# (the polynomial discriminants 13, 169, 13^11, 8 are the field
# discriminants), so no primes are excluded.
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
    """Primes of the order above q, one per irreducible factor mod q.

    Results are memoized per (order, q); PrimeIdealData values are
    immutable, so the cached list is shared freely.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q in order.excluded_primes:
        raise UnsupportedPrimeError(
            f"unsupported prime {q} for order {order.label} (index divisor risk)"
        )
    return _split_prime(order, q)


@lru_cache(maxsize=None)
def _split_prime(order: NumberFieldOrder, q: int):
    factors = poly_factor_mod_p(order.poly, q)
    primes = []
    for i, (g, mult) in enumerate(factors):
        rf = FiniteField(q, g, check=False)
        primes.append(
            PrimeIdealData(
                order=order,
                q=q,
                index=i,
                factor=g,
                e=mult,
                fdeg=g.degree,
                residue_field=rf,
                theta_image=rf.gen() if g.degree > 1 else rf.from_int(-g.coeffs[0]),
            )
        )
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


def prime_key_action(order: NumberFieldOrder, q: int, sigma_poly: UniPoly) -> dict:
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
