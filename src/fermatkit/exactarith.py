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
import sys
from array import array
from math import gcd

__all__ = [
    "UniPoly",
    "BiPoly",
    "FiniteField",
    "FFElement",
    "QuadExt",
    "QuadExtElement",
    "poly_factor_mod_p",
    "is_prime",
    "bareiss_det",
    "poly_norm",
    "poly_discriminant",
    "real_root_count",
    "tarski_query",
    "integer_roots",
    "field_nonsquare",
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


def chain_pow(mul, x, e: int, memo=None):
    """x^e for e >= 1 under the associative product `mul`, by left-to-right
    square-and-multiply: x^m for each leading part m of e's binary digits
    in turn, from the last by one squaring and, on a 1 digit, one
    multiply by x; e.bit_length() + e.bit_count() - 2 products.

    `memo` maps exponents to their powers (x itself is never stored):
    an x^m found there costs nothing, and each one made is added, so
    the powers for several exponents of the same x share one chain.
    """
    if memo is None:
        memo = {}
    acc, m = x, 1
    for bit in bin(e)[3:]:
        m *= 2
        acc = memo[m] if m in memo else memo.setdefault(m, mul(acc, acc))
        if bit == "1":
            m += 1
            acc = memo[m] if m in memo else memo.setdefault(m, mul(acc, x))
    return acc


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
        return chain_pow(UniPoly.__mul__, self, e) if e else UniPoly((1,))

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
# factorization mod p: squarefree split + distinct degree + Cantor-Zassenhaus,
# the last two in F_p[x]/(f) on its packed multiply and p-power map, the substitution
# of x^p (von zur Gathen and Shoup, 1992): r^(p^j) is j linear maps, not j log2(p) squarings


def _frobenius_map(f, p):
    """(mul, sigma) of F_p[x]/(f), f monic of degree k, not necessarily
    irreducible: `_mul_kernel` and x -> x^p on length-k tuples."""
    mul, x = _mul_kernel(p, f), _pm_mod((0, 1), f, p)
    x += (0,) * (len(f) - 1 - len(x))
    return mul, _substitution_kernel(p, mul, chain_pow(mul, x, p))


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
    """Monic squarefree f -> list of (d, product of irreducibles of degree d).
    h = x^(p^d) mod f is sigma(h), sigma made again when f sheds a block."""
    res, h, d, sigma = [], (0, 1), 0, None
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            res.append((len(f) - 1, f))
            break
        if sigma is None:
            sigma, h = _frobenius_map(f, p)[1], _pm_mod(h, f, p)
            h += (0,) * (len(f) - 1 - len(h))
        h = sigma(h)
        g = _pm_gcd(_pm_sub(h, (0, 1), p), f, p)
        if len(g) > 1:
            res.append((d, g))
            f, sigma = _pm_divmod(f, g, p)[0], None
    return res


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d.
    r^((p^d-1)/2) is (r sigma(r) ... sigma^(d-1)(r))^((p-1)/2); for p = 2
    the trace r + sigma(r) + ... + sigma^(d-1)(r) takes its place."""
    k = len(f) - 1
    if k == d:
        return [f]
    mul, sigma = _frobenius_map(f, p) if d > 1 else (_mul_kernel(p, f), None)
    while True:
        r = _pm_trim([rng.randrange(p) for _ in range(k)])
        if len(r) < 2:
            continue
        acc = conj = r + (0,) * (k - len(r))
        for _ in range(d - 1):
            conj = sigma(conj)
            acc = mul(acc, conj) if p > 2 else tuple(map(int.__xor__, acc, conj))
        if p > 2:
            acc = _pm_sub(chain_pow(mul, acc, (p - 1) // 2), (1,), p)
        g = _pm_gcd(acc, f, p)
        if 0 < len(g) - 1 < k:
            other = _pm_divmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(other, d, p, rng)


def poly_factor_mod_p(f: UniPoly, p: int):
    """Factor f modulo the prime p.

    Returns a list of (irreducible monic UniPoly with coefficients in
    [0, p), multiplicity) sorted by (degree, coefficient tuple), so the
    factor order is a frozen convention. The product of the factors with
    multiplicities equals f up to the unit lc(f) mod p. The equal-degree
    stage is randomized from a fixed seed, so runs reproduce.
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
    rng = random.Random(1)
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
    """Rabin irreducibility test for a monic polynomial tuple mod p, with
    x^(p^j) mod c as j steps of the p-power map."""
    n = len(c) - 1
    if n <= 0:
        return False
    sigma, x = _frobenius_map(c, p)[1], _pm_mod((0, 1), c, p)  # x is a constant when n = 1
    hs = [x + (0,) * (n - len(x))]
    for _ in range(n):
        hs.append(sigma(hs[-1]))
    return hs[n] == hs[0] and all(
        len(_pm_gcd(_pm_sub(hs[n // r], x, p), c, p)) == 1 for r in factorize(n))


# ---------------------------------------------------------------------------
# finite fields F_{p^k} = F_p[x]/(m)


def _slot_code(p: int, k: int):
    """Smallest array type code whose items hold (2k-1)(p-1)^2, the
    largest slot of a packed product in F_{p^k}; None past 64 bits."""
    bound = (2 * k - 1) * (p - 1) ** 2
    return next((c for c in "HILQ" if bound < 1 << 8 * array(c).itemsize), None)


def _mul_kernel(p: int, m: tuple):
    """Multiplication of coefficient tuples in F_p[x]/(m), m monic of
    degree k, by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, section 8.4).

    Each tuple is packed into one int, `w` bits per coefficient, and the
    two ints are multiplied once. The product's slots k..2k-2, each
    reduced mod p, fold back in through the packed rows x^j mod m; no
    slot ever carries, because every slot stays at most
    k(p-1)^2 + (k-1)(p-1)^2 < 2^w. w is the smallest array item size
    that holds that bound (16 bits for every field of the unit sieve);
    past 64 bits the schoolbook product and division take over.
    """
    k = len(m) - 1
    if k == 1:
        return lambda a, b: (a[0] * b[0] % p,)
    code = _slot_code(p, k)
    if code is None:
        def schoolbook(a, b):
            r = _pm_mod(_pm_mul(_pm_trim(a), _pm_trim(b), p), m, p)
            return r + (0,) * (k - len(r))

        return schoolbook
    w = array(code).itemsize
    order = sys.byteorder
    from_bytes = int.from_bytes
    rows = []  # x^j mod m for j = k..2k-2, by companion-matrix steps
    col = [0] * (k - 1) + [1]
    for _ in range(k - 1):
        top = col[-1]
        col = [(c - top * mc) % p for c, mc in zip([0] + col[:-1], m)]
        rows.append(from_bytes(array(code, col).tobytes(), order))
    shift = 8 * w * k
    low = (1 << shift) - 1

    def mul(a, b):
        prod = (from_bytes(array(code, a).tobytes(), order)
                * from_bytes(array(code, b).tobytes(), order))
        acc = prod & low
        for h, row in zip(array(code, (prod >> shift).to_bytes(w * (k - 1), order)), rows):
            if h:
                acc += h % p * row
        return tuple([c % p for c in array(code, acc.to_bytes(w * k, order))])

    return mul


def _substitution_kernel(p: int, mul, image):
    """x = sum x_j t^j -> sum x_j image^j on length-k tuples of
    F_p[t]/(m), `mul` its `_mul_kernel`: an F_p-linear map, one packed row
    image^j per j in the layout of `_mul_kernel`, with every slot below
    k (p-1)^2. With image = t^(p^e) it is the Frobenius power x -> x^(p^e)."""
    k = len(image)
    cols = [(1,) + (0,) * (k - 1)]
    for _ in range(k - 1):
        cols.append(mul(cols[-1], image))
    code = _slot_code(p, k)
    if code is None:
        return lambda a: tuple(sum(map(int.__mul__, a, row)) % p for row in zip(*cols))
    order, size = sys.byteorder, array(code).itemsize * k
    rows = [int.from_bytes(array(code, col).tobytes(), order) for col in cols]

    def subst(a):
        acc = sum(map(int.__mul__, a, rows))
        return tuple([c % p for c in array(code, acc.to_bytes(size, order))])

    return subst


class FiniteField:
    """Explicit finite field F_p[x]/(modulus); order N = p^k.

    Element enumeration order is frozen: index n corresponds to the
    base-p digits of n read as the coefficient vector, least degree
    first. Conventions elsewhere (generator choice in the unit sieve)
    rely on this order being stable.
    """

    __slots__ = ("p", "modulus", "k", "order", "_mod_c", "_kernel", "_frob")

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
        self._kernel = None  # built on the first multiply
        self._frob = {}  # e -> the map x -> x^(p^e), each built on first use

    def mul_kernel(self):
        """This field's multiply on coefficient tuples (see `_mul_kernel`),
        built on the first call and kept on the field. Threads that race
        here build equal kernels, and either one may be kept."""
        if self._kernel is None:
            self._kernel = _mul_kernel(self.p, self._mod_c)
        return self._kernel

    def frobenius_kernel(self, e: int):
        """x -> x^(p^e) on coefficient tuples, as `_substitution_kernel` of
        t^(p^e), built on the first call for each e and kept on the field
        (threads that race here build equal maps). That image is t pushed
        e times through the map for e = 1, itself built from t^p, so no
        power beyond t^p is ever taken."""
        maps, mul = self._frob, self.mul_kernel()
        if 1 not in maps:
            maps[1] = _substitution_kernel(self.p, mul, (self.gen() ** self.p).coeffs)
        if e not in maps:
            image = self.gen().coeffs
            for _ in range(e):
                image = maps[1](image)
            maps[e] = _substitution_kernel(self.p, mul, image)
        return maps[e]

    @property
    def char(self) -> int:
        return self.p

    def element(self, coeffs) -> "FFElement":
        """The class of sum coeffs[i] x^i. Zero top coefficients are
        trimmed first, so only a polynomial of degree at least k is
        divided by the modulus."""
        p, k = self.p, self.k
        c = [x % p for x in coeffs]
        while len(c) > k and not c[-1]:
            c.pop()
        if len(c) > k:
            c = list(_pm_mod(c, self._mod_c, p))
        return FFElement(self, tuple(c) + (0,) * (k - len(c)))

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
            if other.field is not self.field and other.field != self.field:
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
        return FFElement(F, F.mul_kernel()(self.coeffs, o.coeffs))

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
        return FFElement(F, chain_pow(F.mul_kernel(), self.coeffs, e)) if e else F.one()

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
    characteristic; the base can itself be a QuadExt. No point count
    goes through it (see `curves`): it serves field-arithmetic probes
    and naive test oracles.
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
        return QuadExtElement(self, x, self.base.zero())

    def element(self, a, b) -> "QuadExtElement":
        return QuadExtElement(self, a, b)

    def from_int(self, n: int) -> "QuadExtElement":
        return QuadExtElement(self, self.base.from_int(n), self.base.zero())

    def zero(self) -> "QuadExtElement":
        z = self.base.zero()
        return QuadExtElement(self, z, z)

    def one(self) -> "QuadExtElement":
        return QuadExtElement(self, self.base.one(), self.base.zero())

    def gen(self) -> "QuadExtElement":
        return QuadExtElement(self, self.base.zero(), self.base.one())

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
        return chain_pow(QuadExtElement.__mul__, self, e) if e else self.field.one()

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


# ---------------------------------------------------------------------------
# exact integer linear algebra: Bareiss determinant, norms, discriminants


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


def poly_discriminant(f: UniPoly) -> int:
    """Discriminant of a monic integer polynomial."""
    if not f.is_monic:
        raise ValueError("discriminant implemented for monic polynomials only")
    n = f.degree
    r = poly_norm(f, f.derivative())
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
# real-root counting for integer polynomials (Sturm / Tarski)
#
# Every chain is a sign-preserving primitive pseudo-remainder sequence
# (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 8):
# each term is a positive multiple of the Sturm term that Euclid's
# algorithm gives over Q, so it has the same signs, and all of it is in Z.


def _zcoeffs(poly):
    return _pm_trim(poly.coeffs if isinstance(poly, UniPoly) else poly)


def _zprimitive(a):
    """a divided by the positive gcd of its coefficients."""
    g = gcd(*a)
    return tuple(c // g for c in a) if g > 1 else a


def _zsprem(a, b):
    """|lc(b)|^(deg a - deg b + 1) * a mod b: the remainder of a by b
    times a positive integer, in Z."""
    a, lead = list(a), b[-1]
    m, s = abs(lead), (1 if lead > 0 else -1)
    for i in range(len(a) - len(b), -1, -1):  # r <- |lc(b)| r - sgn(lc(b)) lc(r) x^i b
        c = a[i + len(b) - 1] * s
        a = [x * m for x in a]
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return _pm_trim(a)


def _zgcd(a, b):
    """A primitive gcd of two integer polynomials (any sign)."""
    while b:
        a, b = b, _zprimitive(_zsprem(a, b))
    return _zprimitive(a)


def _zderivative(a):
    return tuple(i * c for i, c in enumerate(a))[1:]


def _squarefree(poly):
    """The coefficients of poly divided by a primitive gcd(poly, poly'):
    the same distinct roots, each simple. The division is exact in Z by
    Gauss's lemma."""
    f = _zcoeffs(poly)
    g = _zgcd(f, _zderivative(f)) if len(f) > 2 else ()
    if len(g) <= 1:
        return f
    f, q = list(f), [0] * (len(f) - len(g) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = f[i + len(g) - 1] // g[-1]
        for j, y in enumerate(g):
            f[i + j] -= q[i] * y
    return tuple(q)


def _sturm_chain(f, g):
    """The Sturm-Tarski chain of squarefree f and f' * g."""
    chain = [f, (UniPoly(_zderivative(f)) * UniPoly(g)).coeffs]
    while chain[-1]:
        chain.append(tuple(-c for c in _zprimitive(_zsprem(chain[-2], chain[-1]))))
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


def tarski_query(h, g) -> int:
    """Sum of sign(g(r)) over the distinct real roots r of the integer
    polynomial h (a UniPoly or an ascending coefficient sequence)."""
    f = _squarefree(h)
    if len(f) <= 1:
        return 0
    chain = _sturm_chain(f, _zcoeffs(g))
    neg = _variations([_sign_at_inf(c, -1) for c in chain])
    pos = _variations([_sign_at_inf(c, +1) for c in chain])
    return neg - pos


def real_root_count(poly) -> int:
    """Number of distinct real roots of an integer polynomial."""
    return tarski_query(poly, (1,))


def _sign_at_half(c, x) -> int:
    """Sign of c(x / 2), read off the integer 2^deg(c) c(x / 2)."""
    n = len(c) - 1
    v = sum(a * x**i << (n - i) for i, a in enumerate(c))
    return (v > 0) - (v < 0)


def integer_roots(poly: UniPoly) -> list:
    """Sorted integer roots of a nonconstant integer polynomial.

    Bisection on Sturm counts between half-integers inside the Cauchy
    bound: only intervals that hold a real root are split, so the cost
    is polynomial in the degree and in the size of the coefficients.
    """
    f = _squarefree(poly)
    if len(f) <= 1:
        raise ValueError("integer_roots wants a nonconstant polynomial")
    chain = _sturm_chain(f, (1,))
    bound = 1 + max(-(-abs(c) // abs(f[-1])) for c in f[:-1])

    def variations(h):  # at h + 1/2, so no integer sits on an interval end
        return _variations([_sign_at_half(c, 2 * h + 1) for c in chain])

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


def count_real_roots_where_positive(h, g) -> int:
    """Number of distinct real roots r of h with g(r) > 0; h must be
    nonzero, since every real number is a root of 0."""
    hc = _zcoeffs(h)
    if not hc:
        raise ValueError("count_real_roots_where_positive needs a nonzero h")
    common = _zgcd(hc, _zcoeffs(g))
    zeros = real_root_count(common) if len(common) > 1 else 0
    twice_pos = real_root_count(h) - zeros + tarski_query(h, g)
    if twice_pos % 2 != 0:
        raise AssertionError("parity failure in root counting")
    return twice_pos // 2
