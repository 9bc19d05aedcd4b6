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
    if n < 41 * 41:  # a composite below 41^2 has a prime factor up to 37
        return True
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
    """Trial-division factorization by divisors up to 10^6.

    Only auxiliary integers occur (gcds of A_q values, group orders
    q^f - 1 of residue fields), whose prime factors below the largest
    lie under the trial bound; a composite cofactor left past it is a
    hard error rather than a wrong answer.
    """
    if n <= 0:
        raise ValueError("factorize wants a positive integer")
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d <= 10**6 and d * d <= n:
        for step in (d, d + 2):
            while n % step == 0:
                out[step] = out.get(step, 0) + 1
                n //= step
        d += 6
    if n > 1:
        if not is_prime(n):
            raise ValueError(f"factorization exceeded the trial bound (cofactor {n})")
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


def first_generator(p: int, k: int, mul) -> tuple:
    """The first generator of F^*, F = F_{p^k}, in the frozen enumeration
    order of `FiniteField`, as a coefficient tuple, with `mul` the field's
    multiply on coefficient tuples: the first x with x^((N-1)/r) != 1 for
    every prime r dividing N - 1, each power by `chain_pow`."""
    N, one = p**k, (1,) + (0,) * (k - 1)
    exps = [(N - 1) // r for r in factorize(N - 1)]
    # past k = 1 the constants, indices 1 to p - 1, have orders dividing p - 1 < N - 1
    candidates = (tuple(s // p**i % p for i in range(k)) for s in range(1 if k == 1 else p, N))
    return next(x for x in candidates if all(chain_pow(mul, x, e) != one for e in exps))


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __mul__(self, other):
        return UniPoly(_zmul(self.coeffs, _coerce_poly(other).coeffs))

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


def _zmul(a, b) -> list:
    """Schoolbook product of two integer coefficient sequences, ascending;
    empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zmulmod(a, b, fc) -> tuple:
    """The product of two integer coefficient sequences reduced mod the
    monic polynomial with coefficients fc, as a tuple of length deg fc."""
    n = len(fc) - 1
    prod = _zmul(a, b)
    for i in range(len(prod) - 1, n - 1, -1):
        top = prod.pop()
        if top:
            for j in range(n):
                prod[i - n + j] -= top * fc[j]
    return tuple(prod) + (0,) * (n - len(prod))


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
    return _pm_trim([v % p for v in _zmul(a, b)])


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
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _pm_gcd(a, b, p):
    while b:
        a, b = b, _pm_mod(a, b, p)
    return _pm_monic(a, p)


def _pm_xgcd(a, b, p):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic;
    a and b are not both zero."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
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
# the last two in the quotient ring R = F_p[x]/(g) of a squarefree part g, a
# `FiniteField`, on its packed multiply and p-power map, the
# substitution of x^p (von zur Gathen and Shoup, 1992): r^(p^j) is j linear maps,
# not j log2(p) squarings. Reduction mod a divisor f of g commutes with both, so
# a gcd with f reads f's blocks off values taken mod g, and nothing is rebuilt.


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


def _distinct_degree(R):
    """R = F_p[x]/(g), g monic and squarefree (or a field's modulus under
    test) -> list of (d, product of the irreducibles of degree d dividing
    g). h = x^(p^d) mod g: x^p by `chain_pow`, or past degree 3, where a
    step d > 1 may run, as sigma(x) with sigma R's p-power map, then
    sigma(h). When f, what is left of g, sheds a block, h stays mod g."""
    p, f, h = R.p, R._mod_c, R.gen().coeffs
    step = R.frobenius_kernel(1) if R.k >= 4 else lambda x: chain_pow(R.mul_kernel(), x, p)
    res, d = [], 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            res.append((len(f) - 1, f))
            break
        h = step(h)
        g = _pm_gcd(_pm_sub(h, (0, 1), p), f, p)
        if len(g) > 1:
            res.append((d, g))
            f = _pm_divmod(f, g, p)[0]
    return res


def _equal_degree_split(R, f, d, rng):
    """Cantor-Zassenhaus: split f, a monic divisor of R's modulus whose
    irreducible factors all have degree d, by gcds with f of values in R.
    r^((p^d-1)/2) is (r sigma(r) ... sigma^(d-1)(r))^((p-1)/2); for p = 2
    the trace r + sigma(r) + ... + sigma^(d-1)(r) takes its place."""
    p, k = R.p, len(f) - 1
    if k == d:
        return [f]
    mul, sigma = R.mul_kernel(), R.frobenius_kernel(1) if d > 1 else None
    draws = 0
    while draws < 64:  # each non-constant draw splits f with probability >= 1/2
        r = _pm_trim([rng.randrange(p) for _ in range(k)])
        if len(r) < 2:
            continue
        draws += 1
        acc = conj = r + (0,) * (R.k - len(r))
        for _ in range(d - 1):
            conj = sigma(conj)
            acc = mul(acc, conj) if p > 2 else tuple(map(int.__xor__, acc, conj))
        if p > 2:
            acc = _pm_sub(chain_pow(mul, acc, (p - 1) // 2), (1,), p)
        g = _pm_gcd(acc, f, p)
        if 0 < len(g) - 1 < k:
            other = _pm_divmod(f, g, p)[0]
            return _equal_degree_split(R, g, d, rng) + _equal_degree_split(R, other, d, rng)
    raise ArithmeticError(f"64 draws left f unsplit mod {p}: is the product of F_{p}[x]/(m) wrong?")


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
        R = FiniteField(p, UniPoly(g))
        for d, block in _distinct_degree(R):
            for irr in _equal_degree_split(R, block, d, rng):
                found[irr] = found.get(irr, 0) + mult
    out = [(UniPoly(k), m) for k, m in found.items()]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# finite fields F_{p^k} = F_p[x]/(m)


def _slot_code(bound: int):
    """Smallest array type code whose items hold `bound`, the largest
    slot of a packed value; None past 64 bits."""
    return next((c for c in "HILQ" if bound < 1 << 8 * array(c).itemsize), None)


def _mul_kernel(p: int, m: tuple):
    """Multiplication of coefficient tuples in F_p[x]/(m), m monic of
    degree k, by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, section 8.4) and a polynomial Barrett
    reduction (Barrett, CRYPTO '86; ibid., chapter 9) on packed ints.

    Each tuple is packed into one int, w bytes per coefficient, and the
    two ints are multiplied once: C = H x^k + L, every slot at most
    B1 = k(p-1)^2. With mu = x^(2k-2) div m (coefficients mod p) and
    -m_0, ..., -m_(k-1) packed once, the quotient C div m is the slots
    k-2.. of H mu, and the remainder is L plus the low k slots of that
    quotient times -m; one % p per slot on unpacking. Both products are
    linear over Z, so nothing is reduced before them. No slot carries:
    H mu's slots are at most (k-1) B1 (p-1), the remainder's at most
    B1 + k(k-1) B1 (p-1)^2, and w is the smallest array item size that
    holds the latter (32 bits for the unit sieve's fields, 16 for
    F_{2^12}); past 64 bits the schoolbook product and division take over.
    """
    k = len(m) - 1
    if k == 1:
        return lambda a, b: (a[0] * b[0] % p,)
    b1 = k * (p - 1) ** 2
    code = _slot_code(b1 + k * (k - 1) * b1 * (p - 1) ** 2)
    if code is None:
        def schoolbook(a, b):
            r = _pm_mod(_pm_mul(_pm_trim(a), _pm_trim(b), p), m, p)
            return r + (0,) * (k - len(r))

        return schoolbook
    w = array(code).itemsize
    order = sys.byteorder
    from_bytes = int.from_bytes
    mu = _pm_divmod((0,) * (2 * k - 2) + (1,), m, p)[0]
    mu, neg_m = (from_bytes(array(code, c).tobytes(), order)
                 for c in (mu, [-c % p for c in m[:-1]]))
    shift, qshift = 8 * w * k, 8 * w * (k - 2)
    low = (1 << shift) - 1

    def mul(a, b):
        prod = (from_bytes(array(code, a).tobytes(), order)
                * from_bytes(array(code, b).tobytes(), order))
        rem = ((prod & low) + ((prod >> shift) * mu >> qshift) * neg_m) & low
        return tuple([c % p for c in array(code, rem.to_bytes(w * k, order))])

    return mul


def _substitution_kernel(p: int, mul, image):
    """x = sum x_j t^j -> sum x_j image^j on length-k tuples of
    F_p[t]/(m), `mul` its `_mul_kernel`: an F_p-linear map, one packed row
    image^j per j, in items that hold the largest slot of the sum,
    k (p-1)^2. With image = t^(p^e) it is the Frobenius power x -> x^(p^e)."""
    k = len(image)
    cols = [(1,) + (0,) * (k - 1)]
    for _ in range(k - 1):
        cols.append(mul(cols[-1], image))
    code = _slot_code(k * (p - 1) ** 2)
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
    first. Conventions elsewhere rely on this order being stable:
    `first_generator` walks it, and both the packed point counts and the
    unit sieve's frozen omega use the generator it picks.

    The modulus is not tested for irreducibility: the factorisation mod p
    works in the ring F_p[x]/(g) of a squarefree g, and the residue fields
    are built on the factors it returns.
    """

    __slots__ = ("p", "modulus", "k", "order", "_mod_c", "_kernel", "_frob")

    def __init__(self, p: int, modulus: UniPoly):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        c = _pm_from(modulus, p)
        if len(c) < 2:
            raise ValueError("modulus must be nonconstant")
        c = _pm_monic(c, p)
        self.p = p
        self._mod_c = c
        self.modulus = UniPoly(c)
        self.k = len(c) - 1
        self.order = p ** self.k
        self._kernel = None  # the multiply, built on first use
        self._frob = {}  # e -> the map x -> x^(p^e), each built on first use

    def mul_kernel(self):
        """This field's multiply on coefficient tuples (see `_mul_kernel`),
        built on first use and kept on the field. Threads that race here
        build equal kernels, and either one may be kept."""
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
        raise TypeError(f"cannot combine a field element with {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        p = self.field.p
        return FFElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
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
        return self * self._coerce(other).inverse()

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


class QuadExt:
    """Quadratic extension F[t]/(t^2 - s) of a FiniteField F.

    s must be a non-square in F, which requires odd characteristic. No
    point count goes through it (see `curves`): it serves
    field-arithmetic probes and naive test oracles.
    """

    __slots__ = ("base", "s", "order")

    def __init__(self, base, s):
        if base.char == 2:
            raise ValueError("quadratic extension by a non-square needs odd p")
        self.base = base
        self.s = s
        self.order = base.order**2

    def embed(self, x) -> "QuadExtElement":
        return QuadExtElement(self, x, self.base.zero())

    def element(self, a, b) -> "QuadExtElement":
        return QuadExtElement(self, a, b)

    def from_int(self, n: int) -> "QuadExtElement":
        return QuadExtElement(self, self.base.from_int(n), self.base.zero())

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


class QuadExtElement:
    """a + b*t with t^2 = s over the base field. Both operands of a binary
    operation are elements of the same extension."""

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
        if not isinstance(other, QuadExtElement):
            raise TypeError(f"cannot combine an extension element with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError("elements of different fields")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExtElement(self.field, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return QuadExtElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        s = self.field.s
        return QuadExtElement(
            self.field,
            self.a * o.a + (self.b * o.b) * s,
            self.a * o.b + self.b * o.a,
        )

    def inverse(self) -> "QuadExtElement":
        # (a + bt)^-1 = (a - bt) / (a^2 - s b^2)
        nrm = self.a * self.a - (self.b * self.b) * self.field.s
        if nrm.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ninv = nrm.inverse()
        return QuadExtElement(self.field, self.a * ninv, -(self.b * ninv))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return chain_pow(QuadExtElement.__mul__, self, e) if e else self.field.one()

    def __eq__(self, other):
        return (
            isinstance(other, QuadExtElement)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )


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
    cols = [_zmulmod(g.coeffs, (1,), f.coeffs)]
    if not any(cols[0]):
        return 0
    for _ in range(f.degree - 1):
        cols.append(_zmulmod((0, 1), cols[-1], f.coeffs))
    # cols[j] = coords of x^j * g; determinant of the matrix with those columns
    return bareiss_det(zip(*cols))


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
    chain = [f, tuple(_zmul(_zderivative(f), g))]
    while chain[-1]:
        chain.append(tuple(-c for c in _zprimitive(_zsprem(chain[-2], chain[-1]))))
    chain.pop()
    return chain


def _sign_at_inf(c, direction):
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
