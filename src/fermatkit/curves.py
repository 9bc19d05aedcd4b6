"""Elliptic and genus-2 curves over number-field orders.

Point counting sums 1 + chi(f(x)) over the counting field, chi the
quadratic character. Prime fields evaluate f at every x at once on
packed integers; F_{q^2} over a prime residue field is counted over F_q
through the norm, chi_{q^2}(z) = chi_q(N(z)), one norm polynomial per
conjugate pair of rows. Any other odd-characteristic field (F_{p^k},
k > 1, and QuadExt towers over one) uses the field's Zech-log tables
(`exactarith.zech_tables`), built once per field and meant for fields of
up to about 5*10^4 elements. Characteristic 2 uses the Artin-Schreier
trace. Euler factors come from counts over F_N and F_{N^2}, and
Igusa-Clebsch invariants are computed by classical transvectants in
exact rational arithmetic. All functions are pure; inputs are immutable.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt

from .exactarith import FiniteField, QuadExt, field_nonsquare, field_sqrt, zech_tables
from .numberfield import (
    NFElement,
    PrimeIdealData,
    QElement,
    get_order,
    reduce_element,
)

__all__ = [
    "EllipticCurveNF",
    "HyperellipticCurveNF",
    "EulerFactorG2",
    "RMSplit",
    "BadReductionError",
    "SingularReductionError",
    "NotRMSplitError",
    "ec_invariants",
    "ec_reduction_type",
    "ec_trace",
    "hyp_count_points",
    "g2_euler_factor",
    "same_j_invariant",
    "g2_rm_split",
    "rm_split_to_euler",
    "rm_reduce_mod_p7",
    "rm_residues_mod_p7",
    "igusa_clebsch",
    "weighted_pp_equal",
    "frobenius_projective_order",
    "load_curve",
    "curve_from_dict",
]


class BadReductionError(ValueError):
    """Traces were requested at a prime of bad reduction."""


class SingularReductionError(ValueError):
    """The reduced model is singular (or characteristic 2 was requested)."""


class NotRMSplitError(ValueError):
    """An Euler factor does not split over Z[sqrt(2)]."""


@dataclass(frozen=True)
class EllipticCurveNF:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: NFElement
    a2: NFElement
    a3: NFElement
    a4: NFElement
    a6: NFElement

    def __post_init__(self):
        order = self.a1.order
        for a in (self.a2, self.a3, self.a4, self.a6):
            if a.order != order:
                raise ValueError("curve coefficients live in different orders")
        if ec_invariants(self)[2].is_zero:
            raise ValueError("singular Weierstrass model (discriminant is zero)")

    @property
    def order(self):
        return self.a1.order


@dataclass(frozen=True)
class HyperellipticCurveNF:
    """Genus-2 model y^2 = c6 x^6 + ... + c0 over a number-field order."""

    coeffs: tuple  # (c0, ..., c6), NFElements of one order

    def __post_init__(self):
        if len(self.coeffs) != 7:
            raise ValueError("a sextic model needs exactly 7 coefficients")
        order = self.coeffs[0].order
        for c in self.coeffs:
            if c.order != order:
                raise ValueError("curve coefficients live in different orders")
        if igusa_clebsch(list(self.coeffs))[3].is_zero:
            raise ValueError("singular sextic (discriminant invariant vanishes)")

    @property
    def order(self):
        return self.coeffs[0].order


@dataclass(frozen=True)
class EulerFactorG2:
    """Degree-4 local L-data at a prime of norm N:
    P(T) = 1 - a1 T + a2 T^2 - N a1 T^3 + N^2 T^4."""

    N: int
    a1: int
    a2: int

    def __post_init__(self):
        if self.a1 * self.a1 > 16 * self.N:
            raise ValueError(f"Weil bound violated: |a1|={abs(self.a1)} > 4*sqrt({self.N})")
        if abs(self.a1 * self.a1 - 2 * self.a2) > 4 * self.N:
            raise ValueError("Weil bound violated for the second power sum")


@dataclass(frozen=True)
class RMSplit:
    """Unordered pair {alpha, conj(alpha)} in Z[sqrt(2)].

    The pair is unordered on purpose: point counts cannot tell the two
    conjugate eigenvalue systems apart, so every congruence downstream is
    a membership test against both reductions.
    """

    pair: frozenset  # of NFElement over Zsqrt2

    def as_coords(self):
        return sorted(tuple(x.coords) for x in self.pair)


# ---------------------------------------------------------------------------
# Weierstrass invariants


def ec_invariants(E: EllipticCurveNF):
    """Standard covariants (c4, c6, Delta); c4^3 - c6^2 = 1728 Delta."""
    a1, a2, a3, a4, a6 = E.a1, E.a2, E.a3, E.a4, E.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    return c4, c6, disc


def same_j_invariant(E1: EllipticCurveNF, E2: EllipticCurveNF) -> bool:
    """j(E1) = j(E2), by cross-multiplication (no division needed).

    Equal j means the curves agree up to twist over the closure; it is
    the right desk check that a family specialization and a fixture
    model describe the same curve up to a change of Weierstrass model.
    """
    c4a, _, da = ec_invariants(E1)
    c4b, _, db = ec_invariants(E2)
    return c4a**3 * db == c4b**3 * da


def ec_reduction_type(E: EllipticCurveNF, P: PrimeIdealData) -> str:
    """Reduction type of the (assumed minimal) model at P.

    good iff Delta is a unit at P; multiplicative iff Delta vanishes but
    c4 does not; additive otherwise. Needs only residue images, so it
    works at every prime, split or not.
    """
    c4, _, disc = ec_invariants(E)
    if not reduce_element(disc, P).is_zero:
        return "good"
    if not reduce_element(c4, P).is_zero:
        return "multiplicative"
    return "additive"


# ---------------------------------------------------------------------------
# point counting


@lru_cache(maxsize=None)
def _prime_field_tables(q):
    """Packed power columns of F_q, and 1 + chi(r) for every residue r as
    bytes.

    Column k is sum_x (x^k mod q) << (w x) for k = 0..12, w bits per
    slot: 32 while 13 (q-1)^2 < 2^32 (every q < 18000), else 64, so a
    polynomial of degree at most 12 with coefficients in [0, q) never
    carries out of a slot.
    """
    code = next((c for c in "IQ" if 13 * (q - 1) ** 2 < 1 << 8 * array(c).itemsize), None)
    if code is None:
        raise ValueError(f"F_{q} is too large to enumerate")
    cols = []
    row = [1] * q
    for _ in range(13):
        cols.append(int.from_bytes(array(code, row).tobytes(), sys.byteorder))
        row = [r * x % q for x, r in enumerate(row)]
    table = bytearray(q)
    for x in range(1, (q + 1) // 2):
        table[x * x % q] = 2
    table[0] = 1
    return code, tuple(cols), bytes(table)


def _prime_count(poly, q) -> int:
    """Sum over x in F_q of 1 + chi(poly(x)), poly a list of at most 13
    integers, lowest degree first.

    The values at every x come from one packed integer, sum_k a_k col_k
    (see `_prime_field_tables`), unpacked once and read through the
    1 + chi table.
    """
    code, cols, table = _prime_field_tables(q)
    if len(poly) > len(cols):
        raise ValueError("packed evaluation takes degree at most 12")
    packed = sum(a % q * col for a, col in zip(poly, cols))
    values = array(code)
    values.frombytes(packed.to_bytes(q * values.itemsize, sys.byteorder))
    return sum([table[v % q] for v in values])


def _affine_count(coeffs, field) -> int:
    """Sum over x in `field` of 1 + chi(f(x)), f = sum coeffs[i] x^i.

    chi is the quadratic character of an odd-characteristic field. A
    prime field evaluates f at every x at once on packed integers
    (`_prime_count`); any other field works on its Zech-log tables: x
    runs over the logs n, Horner's rule is a log addition plus one Zech
    lookup (v + c = g^v (1 + g^(c - v))), zero is None, and a value is a
    square exactly when its log is even. Logs are reduced only where
    they index the table; the group order is even, so parity survives.
    """
    if isinstance(field, FiniteField) and field.k == 1:
        return _prime_count([a.coeffs[0] for a in coeffs], field.char)
    T = zech_tables(field)
    zech, M = T.zech, len(T.zech)
    c = [T.log[a.index()] for a in coeffs]
    while c and c[-1] is None:
        c.pop()
    if not c:
        return field.order
    count = _one_plus_chi(c[0])  # x = 0
    top, rest = c[-1], c[-2::-1]
    for n in range(M):
        v = top
        for a in rest:
            if v is None:
                v = a
            else:
                v += n
                if a is not None:
                    z = zech[(a - v) % M]
                    v = None if z is None else v + z
        count += _one_plus_chi(v)
    return count


def _one_plus_chi(log):
    """1 + chi of the element with this discrete log (None for zero)."""
    return 1 if log is None else 2 - 2 * (log & 1)


def _field_one_plus_chi(c, field):
    """1 + chi(c) for an element of an odd-characteristic counting field."""
    if isinstance(field, FiniteField) and field.k == 1:
        return _prime_field_tables(field.char)[2][c.coeffs[0]]
    return _one_plus_chi(zech_tables(field).log[c.index()])


def _abs_trace_to_f2(x):
    """Absolute trace F_{2^k} -> F_2 of an FFElement."""
    acc = x
    tot = x
    for _ in range(x.field.k - 1):
        acc = acc * acc
        tot = tot + acc
    return tot


def count_weierstrass_points(coeffs, field) -> int:
    """Points (with infinity) of a long Weierstrass model over `field`.

    Works in every characteristic: p = 2 uses the Artin-Schreier trace;
    odd p completes the square, y'^2 = x^3 + (a2 + a1^2/4) x^2 +
    (a4 + a1 a3/2) x + (a6 + a3^2/4), and sums 1 + chi over x.
    """
    a1, a2, a3, a4, a6 = coeffs
    if field.char == 2:
        count = 1  # point at infinity
        for x in field.elements():
            c = a1 * x + a3
            d = ((x + a2) * x + a4) * x + a6
            if c.is_zero:
                count += 1  # squaring is a bijection
            else:
                z = d * (c * c).inverse()
                if _abs_trace_to_f2(z).is_zero:
                    count += 2
        return count
    inv2 = field.from_int(2).inverse()
    inv4 = inv2 * inv2
    f = (a6 + a3 * a3 * inv4, a4 + a1 * a3 * inv2, a2 + a1 * a1 * inv4, field.one())
    return 1 + _affine_count(f, field)


def ec_trace(E: EllipticCurveNF, P: PrimeIdealData) -> int:
    """Frobenius trace a_P = N + 1 - #E(F_N) at a prime of good reduction."""
    if ec_reduction_type(E, P) != "good":
        raise BadReductionError(f"{E!r} has bad reduction at {P.key}")
    field = P.residue_field
    coeffs = tuple(
        reduce_element(a, P) for a in (E.a1, E.a2, E.a3, E.a4, E.a6)
    )
    n = count_weierstrass_points(coeffs, field)
    a = field.order + 1 - n
    if a * a > 4 * field.order:
        raise AssertionError("Hasse bound violated; counting bug")
    return a


def _field_resultant(fc, gc, field):
    """Resultant of two polynomials with coefficients in a field."""
    f = list(fc)
    g = list(gc)

    def trim(c):
        while c and c[-1].is_zero:
            c.pop()
        return c

    f, g = trim(f), trim(g)
    res = field.one()
    while True:
        if not g:
            if len(f) <= 1:
                return res if f else field.zero()
            return field.zero()
        if len(g) == 1:
            return res * g[0] ** (len(f) - 1) if len(f) > 1 else res
        if len(f) < len(g):
            if ((len(f) - 1) * (len(g) - 1)) % 2:
                res = -res
            f, g = g, f
        # r = f mod g
        r = list(f)
        glead_inv = g[-1].inverse()
        for i in range(len(f) - len(g), -1, -1):
            c = r[i + len(g) - 1] * glead_inv
            if not c.is_zero:
                for j in range(len(g)):
                    r[i + j] = r[i + j] - c * g[j]
        r = trim(r)
        d = len(r) - 1 if r else -1
        if ((len(f) - 1) * (len(g) - 1)) % 2:
            res = -res
        res = res * g[-1] ** ((len(f) - 1) - d)
        f, g = g, r


def _reduced_sextic_ok(red, field):
    """Check the reduced model defines a smooth genus-2 curve."""
    c = list(red)
    while c and c[-1].is_zero:
        c.pop()
    deg = len(c) - 1
    if deg < 5:
        return False
    der = [i * c[i] for i in range(1, len(c))]
    r = _field_resultant(c, der, field)
    return not r.is_zero


def _count_sextic_ext2_prime(c, q, s) -> int:
    """Points of y^2 = sum c[k] x^k (integers) over F_{q^2} = F_q[t]/(t^2 - s).

    A nonzero z = P + Qt is a square in F_{q^2} exactly when its norm
    P^2 - s Q^2 is a square in F_q, so chi_{q^2}(z) = chi_q(N(z)). For
    x = a + bt, six Horner steps in F_q[t]/(t^2 - s)[X] give
    f(X + bt) = P_b(X) + Q_b(X) t, and the row of b adds
    sum_a 1 + chi_q(N_b(a)) for the degree-12 norm polynomial
    N_b = P_b^2 - s Q_b^2, evaluated by `_prime_count`. Frobenius fixes
    f, so the rows of b and -b are equal and only b <= (q-1)/2 is
    evaluated. Every element of F_q is a square in F_{q^2} (the b = 0
    row is f^2), so a nonzero leading coefficient always contributes
    both points at infinity.
    """
    c = [x % q for x in c]
    count = 1 if c[6] == 0 else 2
    for b in range((q + 1) // 2):
        sb = s * b
        P, Q = [c[6]], [0]
        for ck in reversed(c[:6]):  # (P + Qt)(X + bt) + ck
            P, Q = (
                [(x + sb * y) % q for x, y in zip([ck] + P, Q + [0])],
                [(x + b * y) % q for x, y in zip([0] + Q, P + [0])],
            )
        N = [0] * 13
        for i, (pi, qi) in enumerate(zip(P, Q)):
            for j, (pj, qj) in enumerate(zip(P, Q)):
                N[i + j] += pi * pj - s * qi * qj
        count += _prime_count(N, q) * (2 if b else 1)
    return count


def hyp_count_points(C: HyperellipticCurveNF, P: PrimeIdealData, ext: int = 1) -> int:
    """Points of the smooth projective genus-2 model over F_{N^ext}.

    Affine part is sum over x of 1 + chi(f(x)); points at infinity follow
    the image of the leading coefficient: two if it is a nonzero square
    in the counting field, one if it vanishes (degree drops to five),
    none if it is a non-square. F_{q^2} over a prime residue field is
    counted over F_q, one norm polynomial per conjugate pair of rows
    (`_count_sextic_ext2_prime`); every other counting field goes through
    `_affine_count`.
    """
    if ext not in (1, 2):
        raise ValueError("ext must be 1 or 2")
    if P.q == 2:
        raise SingularReductionError("genus-2 counting in characteristic 2 is unsupported")
    base = P.residue_field
    red = [reduce_element(c, P) for c in C.coeffs]
    if not _reduced_sextic_ok(red, base):
        raise SingularReductionError(f"singular reduction at {P.key}")
    if ext == 1:
        field, coeffs = base, red
    else:
        s = field_nonsquare(base)
        if P.fdeg == 1:
            return _count_sextic_ext2_prime([x.coeffs[0] for x in red], P.q, s.coeffs[0])
        field = QuadExt(base, s)
        coeffs = [field.embed(c) for c in red]
    return _affine_count(coeffs, field) + _field_one_plus_chi(coeffs[6], field)


def g2_euler_factor(C: HyperellipticCurveNF, P: PrimeIdealData) -> EulerFactorG2:
    """Euler-factor data (N, a1, a2) from counts over F_N and F_{N^2}."""
    n1 = hyp_count_points(C, P, 1)
    n2 = hyp_count_points(C, P, 2)
    N = P.norm
    a1 = N + 1 - n1
    s2 = N * N + 1 - n2  # sum of squared Frobenius eigenvalues
    if (a1 * a1 - s2) % 2:
        raise AssertionError("parity failure building a2; counting bug")
    a2 = (a1 * a1 - s2) // 2
    return EulerFactorG2(N=N, a1=a1, a2=a2)


def g2_rm_split(e: EulerFactorG2) -> RMSplit:
    """Split the degree-4 factor over Z[sqrt(2)] into conjugate quadratics.

    The four Frobenius eigenvalue pairs group as X^2 - alpha X + N times
    its conjugate, with alpha + conj = a1 and alpha*conj = a2 - 2N; the
    splitting exists exactly when a1^2 - 4(a2 - 2N) equals 2 s^2 with a1
    and s both even.
    """
    disc = e.a1 * e.a1 - 4 * (e.a2 - 2 * e.N)
    if disc < 0 or disc % 2 != 0:
        raise NotRMSplitError(f"discriminant {disc} is not twice a perfect square")
    half = disc // 2
    s = isqrt(half)
    if s * s != half:
        raise NotRMSplitError(f"discriminant {disc} is not twice a perfect square")
    if e.a1 % 2 or s % 2:
        raise NotRMSplitError("roots are not integral in Z[sqrt(2)]")
    order = get_order("Zsqrt2")
    alpha = order.element([e.a1 // 2, s // 2])
    conj = order.element([e.a1 // 2, -s // 2])
    return RMSplit(pair=frozenset((alpha, conj)))


def rm_split_to_euler(split: RMSplit, N: int) -> EulerFactorG2:
    """Reconstruct (a1, a2) from an unordered RM pair; round-trip check."""
    a, b = tuple(split.pair) if len(split.pair) == 2 else (next(iter(split.pair)),) * 2
    tr = a + b
    pr = a * b
    if tr.coords[1] != 0 or pr.coords[1] != 0:
        raise ValueError("pair is not conjugate-closed")
    return EulerFactorG2(N=N, a1=tr.coords[0], a2=pr.coords[0] + 2 * N)


def rm_reduce_mod_p7(x: NFElement) -> int:
    """Reduction of a Z[sqrt(2)] element at the prime of norm 7 generated
    by 3 + sqrt(2): sqrt(2) goes to 4 (since 4^2 = 16 = 2 mod 7)."""
    if x.order.label != "Zsqrt2":
        raise ValueError("rm_reduce_mod_p7 wants elements of Z[sqrt(2)]")
    return (x.coords[0] + 4 * x.coords[1]) % 7


def rm_residues_mod_p7(split: RMSplit) -> frozenset:
    """Both mod-7 reductions of an unordered RM pair."""
    return frozenset(rm_reduce_mod_p7(x) for x in split.pair)


# ---------------------------------------------------------------------------
# Igusa-Clebsch invariants via classical transvectants
#
# The conversion constants below were derived by solving the exact linear
# relation between transvectant invariants and the root-difference
# definitions on rational-rooted sextics; the test suite re-checks that
# relation as an independent oracle.

_IC_FROM_CLEBSCH = {
    "I2": -120,
    "I4": (-720, 6750),  # A^2, B
    "I6": (8640, -108000, 202500),  # A^3, AB, C
    "I10": (-62208, 972000, 1620000, -3037500, -6075000, -4556250),
    # A^5, A^3 B, A^2 C, A B^2, B C, D
}


def _form_mixed_derivative(f, m, a, b):
    """d^(a+b) f / dx^a dz^b on coefficient vectors of formal degree m."""
    cur, deg = list(f), m
    for _ in range(a):
        cur = [i * cur[i] for i in range(1, deg + 1)]
        deg -= 1
    for _ in range(b):
        cur = [(deg - i) * cur[i] for i in range(deg)]
        deg -= 1
    return cur, deg


def _form_mul(f, g, zero):
    out = [zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def _transvectant(f, m, g, n, k, zero):
    if k > m or k > n:
        return [zero], 0
    scale = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    deg = m + n - 2 * k
    out = [zero] * (deg + 1)
    for j in range(k + 1):
        fa, _ = _form_mixed_derivative(f, m, k - j, j)
        ga, _ = _form_mixed_derivative(g, n, j, k - j)
        prod = _form_mul(fa, ga, zero)
        sgn = -1 if j % 2 else 1
        w = comb(k, j) * sgn
        for i, c in enumerate(prod):
            out[i] = out[i] + c * w
    return [c * scale for c in out], deg


def clebsch_invariants(sextic):
    """Clebsch invariants (A, B, C, D) of a QElement sextic."""
    order = sextic[0].order
    zero = QElement(order, [])
    f = list(sextic)
    i, di = _transvectant(f, 6, f, 6, 4, zero)
    A = _transvectant(f, 6, f, 6, 6, zero)[0][0]
    B = _transvectant(i, di, i, di, 4, zero)[0][0]
    ii, dii = _transvectant(i, di, i, di, 2, zero)
    C = _transvectant(i, di, ii, dii, 4, zero)[0][0]
    y1, dy1 = _transvectant(f, 6, i, di, 4, zero)
    y2, dy2 = _transvectant(i, di, y1, dy1, 2, zero)
    y3, dy3 = _transvectant(i, di, y2, dy2, 2, zero)
    D = _transvectant(y3, dy3, y1, dy1, 2, zero)[0][0]
    return A, B, C, D


def igusa_clebsch(curve):
    """Igusa-Clebsch invariants (I2, I4, I6, I10) as QElements.

    Follows the integral-model convention: the binary form attached to
    y^2 = f(x) is 4f (that is, h^2 + 4f with h = 0), which matches the
    normalization of the standard computer-algebra implementations. The
    invariants of the bare sextic differ by the pattern 16^(weight/2).

    Accepts a HyperellipticCurveNF or a raw 7-coefficient sequence
    (NFElement or QElement); raw input may be degenerate, in which case
    I10 comes back zero.
    """
    if isinstance(curve, HyperellipticCurveNF):
        coeffs = curve.coeffs
    else:
        coeffs = list(curve)
        if len(coeffs) != 7:
            raise ValueError("need 7 sextic coefficients")
    qc = [
        (c if isinstance(c, QElement) else QElement.from_nf(c)) * 4 for c in coeffs
    ]
    A, B, C, D = clebsch_invariants(qc)
    I2 = A * _IC_FROM_CLEBSCH["I2"]
    c1, c2 = _IC_FROM_CLEBSCH["I4"]
    I4 = A * A * c1 + B * c2
    c1, c2, c3 = _IC_FROM_CLEBSCH["I6"]
    I6 = A * A * A * c1 + A * B * c2 + C * c3
    k1, k2, k3, k4, k5, k6 = _IC_FROM_CLEBSCH["I10"]
    I10 = (
        A ** 5 * k1
        + A ** 3 * B * k2
        + A * A * C * k3
        + A * B * B * k4
        + B * C * k5
        + D * k6
    )
    return I2, I4, I6, I10


def weighted_pp_equal(v, w) -> bool:
    """Equality of (I2, I4, I6, I10) tuples in weighted projective space
    of weights (2, 4, 6, 10).

    Decided by homogeneous degree-zero cross identities against the
    nonzero I10 slot, with no root extraction: v_i^5 w_10^d = w_i^5 v_10^d
    for d = 1, 2, 3. (When I2, I4, I6 all vanish on both sides this
    criterion tests equality of geometric points, i.e. over the closure.)
    """
    if len(v) != 4 or len(w) != 4:
        raise ValueError("expected 4-tuples of invariants")
    if v[3].is_zero or w[3].is_zero:
        raise ValueError("weighted comparison needs nonzero I10")
    for i, d in ((0, 1), (1, 2), (2, 3)):
        if v[i] ** 5 * w[3] ** d != w[i] ** 5 * v[3] ** d:
            return False
    return True


# ---------------------------------------------------------------------------
# projective Frobenius orders


def frobenius_projective_order(a, N: int) -> int:
    """Multiplicative order of the root ratio of x^2 - a x + N over the
    field of a (odd characteristic).

    For a repeated root the map is unipotent-times-scalar under the
    non-semisimple reading and the function returns the characteristic;
    a scalar (semisimple) Frobenius would have order 1 instead. Callers
    that report this value flag the degenerate case; it never occurs in
    the shipped fixtures.
    """
    F = a.field
    ell = F.char
    if ell == 2:
        raise ValueError("odd characteristic only")
    if N % ell == 0:
        raise ValueError("the characteristic must not divide the determinant")
    disc = a * a - 4 * F.from_int(N)
    if disc.is_zero:
        return ell
    E = QuadExt(F, field_nonsquare(F))
    root = field_sqrt(E, E.embed(disc))
    if root is None:
        raise AssertionError("discriminant has no square root in the quadratic extension")
    inv2 = E.from_int(2).inverse()
    l1 = (E.embed(a) + root) * inv2
    l2 = (E.embed(a) - root) * inv2
    ratio = l1 * l2.inverse()
    one = E.one()
    orderv = 1
    acc = ratio
    while acc != one:
        acc = acc * ratio
        orderv += 1
        if orderv > E.order:
            raise AssertionError("order search exceeded the group size")
    return orderv


# ---------------------------------------------------------------------------
# fixture files


def curve_from_dict(data: dict):
    """Build a curve from the fixture-file dictionary format."""
    try:
        order = get_order(data["order"])
        model = data["model"]
        coeffs = data["coefficients"]
    except KeyError as e:
        raise ValueError(f"curve file is missing field {e}") from None
    if model == "weierstrass":
        names = ("a1", "a2", "a3", "a4", "a6")
        missing = [n for n in names if n not in coeffs]
        if missing:
            raise ValueError(f"curve file coefficients missing {missing}")
        vals = {n: order.element(coeffs[n]) for n in names}
        return EllipticCurveNF(**vals)
    if model == "sextic":
        names = tuple(f"c{i}" for i in range(7))
        missing = [n for n in names if n not in coeffs]
        if missing:
            raise ValueError(f"curve file coefficients missing {missing}")
        return HyperellipticCurveNF(
            coeffs=tuple(order.element(coeffs[n]) for n in names)
        )
    raise ValueError(f"unknown curve model {model!r}")


def load_curve(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON at line {e.lineno} column {e.colno}") from None
    try:
        return curve_from_dict(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
