"""Exact arbitrary-precision polynomial and finite-field arithmetic.

Polynomials are immutable coefficient tuples in ascending degree order.
Finite fields are explicit quotients F_p[x]/(m) with a caller-supplied
modulus; two fields compare equal exactly when p and the modulus agree,
so the isomorphism class (not a canonical representative) is what the
rest of the toolkit relies on. Everything is pure Python integers, so
results are exact at any size, and every value is immutable and safe to
share between threads.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import ceil
from operator import mul
from typing import NamedTuple

__all__ = [
    "UniPoly",
    "BiPoly",
    "FiniteField",
    "FFElement",
    "QuadExt",
    "QuadExtElement",
    "is_nth_power_residue",
    "poly_factor_mod_p",
    "is_prime",
    "bareiss_det",
    "resultant",
    "poly_norm",
    "poly_discriminant",
    "real_root_count",
    "tarski_query",
    "integer_roots",
    "field_nonsquare",
    "field_sqrt",
    "ZechTables",
    "zech_tables",
]


# ---------------------------------------------------------------------------
# primality (inputs are small; deterministic Miller-Rabin is plenty)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any input used here."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Trial-division factorization; only small auxiliary integers occur."""
    if n <= 0:
        raise ValueError("factorize wants a positive integer")
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for step in (d, d + 2):
            while n % step == 0:
                out[step] = out.get(step, 0) + 1
                n //= step
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# integer polynomials


class UniPoly:
    """Univariate polynomial with integer coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable; all operations return new polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"integer coefficients only, got {x!r}")
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return UniPoly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce_poly(other))

    def __rsub__(self, other):
        return _coerce_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        acc, base = UniPoly((1,)), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


def _coerce_poly(v) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, int):
        return UniPoly((v,))
    raise TypeError(f"cannot coerce {v!r} to UniPoly")


class BiPoly:
    """Bivariate integer polynomial, stored as a UniPoly-in-y whose
    coefficients are UniPolys in x. Evaluation is the only operation the
    toolkit needs from these."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        # rows[j] = coefficient of y^j, a UniPoly in x
        r = [row if isinstance(row, UniPoly) else UniPoly(row) for row in rows]
        while r and r[-1].is_zero:
            r.pop()
        self.rows = tuple(r)

    @classmethod
    def from_nested(cls, nested) -> "BiPoly":
        """Build from nested integer lists: nested[j][i] = coeff of x^i y^j."""
        return cls([UniPoly(row) for row in nested])

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def __call__(self, x: int, y: int) -> int:
        acc = 0
        for row in reversed(self.rows):
            acc = acc * y + row(x)
        return acc

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.rows == other.rows

    def __hash__(self):
        return hash(("BiPoly", self.rows))

    def __repr__(self):
        return f"BiPoly({[list(r.coeffs) for r in self.rows]})"


# ---------------------------------------------------------------------------
# dense polynomial arithmetic modulo a prime (coefficient tuples in [0, p))


def _pm_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pm_from(poly: UniPoly, p: int):
    return _pm_trim([c % p for c in poly.coeffs])


def _pm_add(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _pm_trim([(x + y) % p for x, y in zip(a, b)])


def _pm_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return _pm_trim([(x - y) % p for x, y in zip(a, b)])


def _pm_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pm_trim([v % p for v in out])


def _pm_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] % p
        if c:
            c = c * inv_lead % p
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _pm_trim(q), _pm_trim(a)


def _pm_mod(a, b, p):
    return _pm_divmod(a, b, p)[1]


def _pm_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _pm_gcd(a, b, p):
    while b:
        a, b = b, _pm_mod(a, b, p)
    return _pm_monic(a, p)


def _pm_powmod(a, e, mod, p):
    acc = (1,)
    a = _pm_mod(a, mod, p)
    while e:
        if e & 1:
            acc = _pm_mod(_pm_mul(acc, a, p), mod, p)
        a = _pm_mod(_pm_mul(a, a, p), mod, p)
        e >>= 1
    return acc


def _pm_xgcd(a, b, p):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    if not r0:
        return (), s0, t0
    inv = pow(r0[-1], p - 2, p)
    scale = lambda c: tuple(x * inv % p for x in c)  # noqa: E731
    return scale(r0), scale(s0), scale(t0)


def _pm_derivative(a, p):
    return _pm_trim([i * c % p for i, c in enumerate(a)][1:])


def _pm_pth_root(a, p):
    """p-th root of a polynomial in F_p[x^p] (coefficientwise identity)."""
    return _pm_trim([a[i] for i in range(0, len(a), p)])


# ---------------------------------------------------------------------------
# factorization mod p: squarefree split + distinct degree + Cantor-Zassenhaus


def _squarefree_parts(f, p):
    """Monic f -> list of (monic squarefree factor, multiplicity)."""
    out = []
    fd = _pm_derivative(f, p)
    if not fd:
        for g, m in _squarefree_parts(_pm_pth_root(f, p), p):
            out.append((g, m * p))
        return out
    c = _pm_gcd(f, fd, p)
    w = _pm_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _pm_gcd(w, c, p)
        z = _pm_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pm_divmod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        for g, m in _squarefree_parts(_pm_pth_root(c, p), p):
            out.append((g, m * p))
    return out


def _distinct_degree(f, p):
    """Monic squarefree f -> list of (d, product of irreducibles of degree d)."""
    res = []
    h = (0, 1)  # x
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            res.append((len(f) - 1, f))
            break
        h = _pm_powmod(h, p, f, p)
        g = _pm_gcd(_pm_sub(h, (0, 1), p), f, p)
        if len(g) > 1:
            res.append((d, g))
            f = _pm_divmod(f, g, p)[0]
            h = _pm_mod(h, f, p)
    return res


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d."""
    if len(f) - 1 == d:
        return [f]
    while True:
        r = _pm_trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(r) < 2:
            continue
        if p == 2:
            # trace map over F_2
            t = r
            acc = r
            for _ in range(d - 1):
                acc = _pm_powmod(acc, 2, f, p)
                t = _pm_add(t, acc, p)
            g = _pm_gcd(t, f, p)
        else:
            e = (p**d - 1) // 2
            h = _pm_powmod(r, e, f, p)
            g = _pm_gcd(_pm_sub(h, (1,), p), f, p)
        if 0 < len(g) - 1 < len(f) - 1:
            other = _pm_divmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(
                other, d, p, rng
            )


def poly_factor_mod_p(f: UniPoly, p: int, seed: int = 1):
    """Factor f modulo the prime p.

    Returns a list of (irreducible monic UniPoly with coefficients in
    [0, p), multiplicity) sorted by (degree, coefficient tuple), so the
    factor order is a frozen convention. The product of the factors with
    multiplicities equals f up to the unit lc(f) mod p. The equal-degree
    stage is randomized; `seed` pins the generator so runs reproduce.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    c = _pm_from(f, p)
    if not c:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    if len(c) == 1:
        return []
    rng = random.Random(seed)
    monic = _pm_monic(c, p)
    found = {}
    for g, mult in _squarefree_parts(monic, p):
        for d, block in _distinct_degree(g, p):
            for irr in _equal_degree_split(block, d, p, rng):
                found[irr] = found.get(irr, 0) + mult
    out = [(UniPoly(k), m) for k, m in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def _is_irreducible_mod_p(c, p):
    """Rabin irreducibility test for a monic polynomial tuple mod p."""
    n = len(c) - 1
    if n <= 0:
        return False
    x = (0, 1)
    h = _pm_powmod(x, p**n, c, p)
    if _pm_sub(h, x, p):
        return False
    for r in factorize(n):
        h = _pm_powmod(x, p ** (n // r), c, p)
        g = _pm_gcd(_pm_sub(h, x, p), c, p)
        if len(g) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# finite fields F_{p^k} = F_p[x]/(m)


class FiniteField:
    """Explicit finite field F_p[x]/(modulus); order N = p^k.

    Element enumeration order is frozen: index n corresponds to the
    base-p digits of n read as the coefficient vector, least degree
    first. Conventions elsewhere (generator choice in the unit sieve)
    rely on this order being stable.
    """

    __slots__ = ("p", "modulus", "k", "order", "_mod_c")

    def __init__(self, p: int, modulus: UniPoly, check: bool = True):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        c = _pm_from(modulus, p)
        if len(c) < 2:
            raise ValueError("modulus must be nonconstant")
        c = _pm_monic(c, p)
        if check and not _is_irreducible_mod_p(c, p):
            raise ValueError(f"modulus {modulus!r} is reducible mod {p}")
        self.p = p
        self._mod_c = c
        self.modulus = UniPoly(c)
        self.k = len(c) - 1
        self.order = p ** self.k

    @property
    def char(self) -> int:
        return self.p

    def element(self, coeffs) -> "FFElement":
        c = [x % self.p for x in coeffs]
        if len(c) > self.k:
            c = list(_pm_mod(_pm_trim(c), self._mod_c, self.p))
        c = c + [0] * (self.k - len(c))
        return FFElement(self, tuple(c[: self.k]))

    def from_int(self, n: int) -> "FFElement":
        return self.element([n])

    def from_index(self, n: int) -> "FFElement":
        digits = []
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return FFElement(self, tuple(digits))

    def zero(self) -> "FFElement":
        return FFElement(self, (0,) * self.k)

    def one(self) -> "FFElement":
        return self.from_int(1)

    def gen(self) -> "FFElement":
        """The class of x, i.e. the image of the modulus root."""
        return self.element([0, 1])

    def elements(self):
        for n in range(self.order):
            yield self.from_index(n)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self._mod_c == other._mod_c
        )

    def __hash__(self):
        return hash(("FiniteField", self.p, self._mod_c))

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k})"


class FFElement:
    """Element of a FiniteField; coefficient vector of fixed length k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def index(self) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.field.p + c
        return acc

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        prod = _pm_mul(_pm_trim(self.coeffs), _pm_trim(o.coeffs), F.p)
        red = _pm_mod(prod, F._mod_c, F.p)
        return F.element(red)

    __rmul__ = __mul__

    def inverse(self) -> "FFElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        F = self.field
        g, s, _ = _pm_xgcd(_pm_trim(self.coeffs), F._mod_c, F.p)
        if g != (1,):
            raise ZeroDivisionError("element not invertible (reducible modulus?)")
        return F.element(s)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        F = self.field
        acc = F.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, FFElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.k}; {list(self.coeffs)})"


class QuadExt:
    """Quadratic extension B[t]/(t^2 - s) of a base field object.

    s must be a non-square in the base, which requires odd
    characteristic. The base can itself be a QuadExt, so degree-4
    towers used for genus-2 point counts come for free.
    """

    __slots__ = ("base", "s", "order", "p")

    def __init__(self, base, s):
        if base.char == 2:
            raise ValueError("quadratic extension by a non-square needs odd p")
        self.base = base
        self.s = s
        self.order = base.order**2
        self.p = base.char

    @property
    def char(self) -> int:
        return self.p

    def embed(self, x) -> "QuadExtElement":
        return QuadExtElement(self, x, _zero_of(self.base))

    def element(self, a, b) -> "QuadExtElement":
        return QuadExtElement(self, a, b)

    def from_int(self, n: int) -> "QuadExtElement":
        return QuadExtElement(self, self.base.from_int(n), _zero_of(self.base))

    def zero(self) -> "QuadExtElement":
        z = _zero_of(self.base)
        return QuadExtElement(self, z, z)

    def one(self) -> "QuadExtElement":
        return QuadExtElement(self, self.base.one(), _zero_of(self.base))

    def gen(self) -> "QuadExtElement":
        return QuadExtElement(self, _zero_of(self.base), self.base.one())

    def elements(self):
        for b in self.base.elements():
            for a in self.base.elements():
                yield QuadExtElement(self, a, b)

    def __eq__(self, other):
        return (
            isinstance(other, QuadExt)
            and self.base == other.base
            and self.s == other.s
        )

    def __hash__(self):
        return hash(("QuadExt", self.base, self.s))

    def __repr__(self):
        return f"QuadExt(order={self.order})"


def _zero_of(field):
    return field.zero()


class QuadExtElement:
    """a + b*t with t^2 = s over the base field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadExt, a, b):
        self.field = field
        self.a = a
        self.b = b

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def index(self) -> int:
        return self.a.index() + self.b.index() * self.field.base.order

    def _coerce(self, other):
        if isinstance(other, QuadExtElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self.field.s
        return QuadExtElement(
            self.field,
            self.a * o.a + (self.b * o.b) * s,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtElement":
        # (a + bt)^-1 = (a - bt) / (a^2 - s b^2)
        nrm = self.a * self.a - (self.b * self.b) * self.field.s
        if nrm.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ninv = nrm.inverse()
        return QuadExtElement(self.field, self.a * ninv, -(self.b * ninv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.field.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, QuadExtElement)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return f"QuadExtElt({self.a!r} + ({self.b!r})*t)"


def is_nth_power_residue(x, n: int) -> bool:
    """True iff the nonzero element x is an n-th power, via x^((N-1)/n)."""
    if x.is_zero:
        raise ValueError("is_nth_power_residue is undefined at zero")
    order = x.field.order
    if (order - 1) % n != 0:
        raise ValueError(f"{n} does not divide the group order {order - 1}")
    return x ** ((order - 1) // n) == x.field.one()


def field_nonsquare(field):
    """First non-square in the frozen enumeration order (odd char only)."""
    if field.char == 2:
        raise ValueError("every element of a char-2 field is a square")
    e = (field.order - 1) // 2
    for x in field.elements():
        if x.is_zero:
            continue
        if x**e != field.one():
            return x
    raise AssertionError("no non-square found; field is broken")


def field_sqrt(field, d):
    """A square root of d in `field` by direct search, or None.

    Only used on small fields (projective Frobenius orders), where
    enumeration beats any cleverness.
    """
    if d.is_zero:
        return field.zero()
    for x in field.elements():
        if x * x == d:
            return x
    return None


# ---------------------------------------------------------------------------
# discrete-log (Zech) tables of small odd-characteristic fields


class ZechTables(NamedTuple):
    """Discrete logarithms of a field of order N, keyed by `index()`.

    g is the first generator in index order; exp[n] is the index of g^n,
    log[i] is n for the element of index i (None at zero), and
    zech[n] = log(1 + g^n), None where 1 + g^n = 0, i.e. at n = (N-1)/2.
    For odd N a nonzero element is a square exactly when its log is even.
    """

    exp: tuple
    log: tuple
    zech: tuple


def _digit_count(field) -> int:
    """Dimension over F_p of a FiniteField or a tower of QuadExt over one."""
    if isinstance(field, FiniteField):
        return field.k
    return 2 * _digit_count(field.base)


def _mul_matrix(field, idx: int):
    """Rows of the F_p-matrix of multiplication by the element of index
    `idx`, acting on base-p digit vectors (the order of `index()`).

    FiniteField: column j is x^j times the element, built by repeated
    companion-matrix steps. QuadExt: (a + bt)(u + wt) = (au + s b w) +
    (bu + aw)t gives the block matrix [[A, S B], [B, A]].
    """
    p = field.char
    if isinstance(field, FiniteField):
        m = field._mod_c
        col = [(idx // p**i) % p for i in range(field.k)]
        cols = []
        for _ in range(field.k):
            cols.append(col)
            top = col[-1]
            col = [(c - top * mc) % p for c, mc in zip([0] + col[:-1], m)]
        return [list(row) for row in zip(*cols)]
    base = field.base
    A = _mul_matrix(base, idx % base.order)
    B = _mul_matrix(base, idx // base.order)
    S = _mul_matrix(base, field.s.index())
    SB = [[sum(r * c for r, c in zip(row, col)) % p for col in zip(*B)] for row in S]
    return [ra + rs for ra, rs in zip(A, SB)] + [rb + ra for rb, ra in zip(B, A)]


@lru_cache(maxsize=None)
def zech_tables(field) -> ZechTables:
    """Zech-log tables of an odd-characteristic field given as a FiniteField
    or a QuadExt tower over one.

    The powers of each candidate generator are walked on digit vectors by
    its multiplication matrix over F_p; no field element is multiplied.
    Three tuples of N entries each: meant for fields of up to about 5*10^4
    elements.
    """
    p, N = field.char, field.order
    if p == 2:
        raise ValueError("Zech tables here need odd characteristic")
    pw = [p**i for i in range(_digit_count(field))]
    # the base of a QuadExt is a proper subfield, so no generator lies there
    first = field.base.order if isinstance(field, QuadExt) else 2
    for cand in range(first, N):
        M = _mul_matrix(field, cand)
        v, exp = [1] + [0] * (len(pw) - 1), [1]
        while True:
            v = [sum(map(mul, row, v)) % p for row in M]
            i = sum(map(mul, v, pw))
            if i == 1:
                break
            exp.append(i)
        if len(exp) == N - 1:
            break
    log = [None] * N
    for n, i in enumerate(exp):
        log[i] = n
    # 1 + g^n: add one to the lowest base-p digit of g^n's index
    zech = [log[i + 1 if i % p != p - 1 else i + 1 - p] for i in exp]
    return ZechTables(tuple(exp), tuple(log), tuple(zech))


# ---------------------------------------------------------------------------
# exact integer linear algebra: Bareiss determinant, resultants, norms


def bareiss_det(rows) -> int:
    """Fraction-free determinant of a square integer matrix."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f: UniPoly, g: UniPoly) -> int:
    """Resultant of two integer polynomials via the Sylvester matrix."""
    if f.is_zero or g.is_zero:
        return 0
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([0] * i + fc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (size - n - 1 - i))
    return bareiss_det(rows)


def poly_discriminant(f: UniPoly) -> int:
    """Discriminant of a monic integer polynomial."""
    if not f.is_monic:
        raise ValueError("discriminant implemented for monic polynomials only")
    n = f.degree
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * r


def poly_norm(f: UniPoly, g: UniPoly) -> int:
    """Norm of g(theta) in Z[x]/(f), f monic: det of multiplication by g.

    Equals the resultant Res(f, g) for monic f, computed here as an n x n
    integer determinant in the power basis.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("poly_norm wants a monic nonconstant modulus")
    n = f.degree
    gred = _zred(g, f)
    if all(c == 0 for c in gred):
        return 0
    cols = []
    cur = list(gred)
    for _ in range(n):
        cols.append(list(cur))
        cur = _zshift_mod(cur, f)
    # cols[j] = coords of x^j * g; determinant of the matrix with those columns
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    return bareiss_det(rows)


def _zred(g: UniPoly, f: UniPoly):
    """Reduce integer polynomial g mod monic f; fixed-length coord list."""
    n = f.degree
    c = list(g.coeffs)
    for i in range(len(c) - 1, n - 1, -1):
        top = c[i]
        if top:
            for j in range(n):
                c[i - n + j] -= top * f.coeffs[j]
        c.pop()
    return c + [0] * (n - len(c))


def _zshift_mod(coords, f: UniPoly):
    """coords of v -> coords of x*v mod monic f."""
    n = f.degree
    top = coords[n - 1]
    out = [0] + coords[: n - 1]
    if top:
        for j in range(n):
            out[j] -= top * f.coeffs[j]
    return out


# ---------------------------------------------------------------------------
# real-root counting for rational polynomials (Sturm / Tarski)


def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_divmod(a, b):
    if not b:
        raise ZeroDivisionError
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _fp_trim(q), _fp_trim(a)


def _fp_derivative(a):
    return _fp_trim([i * c for i, c in enumerate(a)][1:])


def _fp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fp_trim(out)


def _fp_gcd(a, b):
    while b:
        a, b = b, _fp_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _to_fracs(poly):
    if isinstance(poly, UniPoly):
        return _fp_trim([Fraction(c) for c in poly.coeffs])
    return _fp_trim([Fraction(c) for c in poly])


def _sturm_chain(f, g=None):
    """Sturm sequence of f (or the Sturm-Tarski chain for f, f'*g)."""
    f = _fp_trim(f)
    first = f
    second = _fp_derivative(f) if g is None else _fp_mul(_fp_derivative(f), g)
    chain = [first, second]
    while chain[-1]:
        rem = _fp_divmod(chain[-2], chain[-1])[1]
        chain.append(tuple(-c for c in rem))
    chain.pop()
    return chain


def _sign_at_inf(c, direction):
    if not c:
        return 0
    lead = c[-1]
    s = 1 if lead > 0 else -1
    if direction < 0 and (len(c) - 1) % 2 == 1:
        s = -s
    return s


def _variations(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(poly) -> int:
    """Number of distinct real roots of a rational polynomial."""
    f = _to_fracs(poly)
    if len(f) <= 1:
        return 0
    sq = _fp_gcd(f, _fp_derivative(f))
    if len(sq) > 1:
        f = _fp_divmod(f, sq)[0]
    chain = _sturm_chain(f)
    neg = _variations([_sign_at_inf(c, -1) for c in chain])
    pos = _variations([_sign_at_inf(c, +1) for c in chain])
    return neg - pos


def _sign_at(c, x) -> int:
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return (acc > 0) - (acc < 0)


def integer_roots(poly: UniPoly) -> list:
    """Sorted integer roots of a nonconstant integer polynomial.

    Bisection on Sturm counts between half-integers inside the Cauchy
    bound: only intervals that hold a real root are split, so the cost
    is polynomial in the degree and in the size of the coefficients.
    """
    f = _to_fracs(poly)
    if len(f) <= 1:
        raise ValueError("integer_roots wants a nonconstant polynomial")
    sq = _fp_gcd(f, _fp_derivative(f))
    if len(sq) > 1:
        f = _fp_divmod(f, sq)[0]
    chain = _sturm_chain(f)
    bound = 1 + ceil(max(abs(c / f[-1]) for c in f[:-1]))

    def variations(h):  # at h + 1/2, so no integer sits on an interval end
        x = Fraction(2 * h + 1, 2)
        return _variations([_sign_at(c, x) for c in chain])

    roots = []
    todo = [(-bound - 1, bound)]  # the open interval (lo + 1/2, hi + 1/2)
    while todo:
        lo, hi = todo.pop()
        if variations(lo) == variations(hi):
            continue
        if hi - lo == 1:
            if poly(hi) == 0:
                roots.append(hi)
        else:
            mid = (lo + hi) // 2
            todo += [(lo, mid), (mid, hi)]
    return sorted(roots)


def tarski_query(h, g) -> int:
    """Sum of sign(g(r)) over the distinct real roots r of h.

    Standard Sturm-Tarski query; h is made squarefree internally.
    """
    hf = _to_fracs(h)
    gf = _to_fracs(g)
    if len(hf) <= 1:
        return 0
    sq = _fp_gcd(hf, _fp_derivative(hf))
    if len(sq) > 1:
        hf = _fp_divmod(hf, sq)[0]
    chain = _sturm_chain(hf, gf)
    neg = _variations([_sign_at_inf(c, -1) for c in chain])
    pos = _variations([_sign_at_inf(c, +1) for c in chain])
    return neg - pos


def count_real_roots_where_positive(h, g) -> int:
    """Number of distinct real roots r of h with g(r) > 0."""
    hf = _to_fracs(h)
    gf = _to_fracs(g)
    total = real_root_count(hf)
    common = _fp_gcd(hf, gf)
    zeros = real_root_count(common) if len(common) > 1 else 0
    tq = tarski_query(hf, gf)
    twice_pos = total - zeros + tq
    if twice_pos % 2 != 0:
        raise AssertionError("parity failure in root counting")
    return twice_pos // 2
