"""Elliptic and genus-2 curves over number-field orders.

Point counting sums 1 + chi(f(x)) over the counting field, chi the
quadratic character. Every odd residue field F = F_q[w]/(m) of degree
k is counted by one packed evaluator: f is evaluated at every x of F at
once on packed integers, one slot per x in log order and one integer
per component over F_q, a coefficient acting by its k x k
multiplication matrix, and every table is a slice of one walk through
the powers of a generator of F^*; one `_PackedField` per field, built
once by `_log_table`, owns the walk, its power columns, the F_{N^2}
rows and the slot masks. Every slot is reduced mod q in place with one
multiply, shift and mask (division by an invariant integer), the
components are folded into the element index, and the index is read
through a 1 + chi table, so no Python loop runs per point. F_{N^2}
over a residue field F of order N is counted over F through the norm,
chi_{N^2}(z) = chi_N(N(z)): the norm of f(a + bt) is G(a, S b^2) for
one bivariate polynomial G over F, and the whole (a, b) grid is
evaluated in packed blocks, at split and inert primes alike. Characteristic 2 uses the Artin-Schreier trace.
Euler factors come from counts over F_N and F_{N^2}. Igusa-Clebsch
invariants are computed by classical transvectants over the order, in
integers, once per sextic coefficient tuple per process. A sextic model is
smooth when the binary sextic has no repeated root on P^1, which is
I10 != 0, since I10 = 2^20 Disc(f) as integer polynomials in the
coefficients; so at an odd prime P the reduction is smooth exactly when
I10 is a unit at P. Projective Frobenius orders come from a two-term
recurrence. All functions are pure; inputs are immutable.
"""
from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from math import comb, isqrt, prod
from operator import mul

from .exactarith import _mul_kernel, _zmulmod, first_generator
from .jsonfile import fields, int_lists, one_of, read_json
from .numberfield import (
    Frozen,
    NFElement,
    PrimeIdealData,
    get_order,
    known_orders,
    prime_by_key,
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


class EllipticCurveNF(Frozen):
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    def __init__(self, a1: NFElement, a2: NFElement, a3: NFElement, a4: NFElement,
                 a6: NFElement):
        if any(a.order != a1.order for a in (a2, a3, a4, a6)):
            raise ValueError("curve coefficients live in different orders")
        self._set(a1=a1, a2=a2, a3=a3, a4=a4, a6=a6)
        invariants = _covariants(self)
        if invariants[2].is_zero:
            raise ValueError("singular Weierstrass model (discriminant is zero)")
        # kept on the instance, outside the fields: eq, hash and repr ignore it
        self._set(_invariants=invariants)

    def __repr__(self):
        return (f"EllipticCurveNF(a1={self.a1!r}, a2={self.a2!r}, a3={self.a3!r}, "
                f"a4={self.a4!r}, a6={self.a6!r})")

    def _fields(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def order(self):
        return self.a1.order


class HyperellipticCurveNF:
    """Genus-2 model y^2 = c6 x^6 + ... + c0 over a number-field order.
    Its invariants are computed once per coefficient tuple per process
    (`_sextic_invariants`); the I10 smoothness test runs on every build.
    Its reductions are kept per prime (`_reduce_sextic`)."""

    def __init__(self, coeffs: tuple):
        if len(coeffs) != 7:
            raise ValueError("a sextic model needs exactly 7 coefficients")
        if any(c.order != coeffs[0].order for c in coeffs):
            raise ValueError("curve coefficients live in different orders")
        invariants = _sextic_invariants(tuple(coeffs))
        if invariants[3].is_zero:
            raise ValueError("singular sextic (discriminant invariant vanishes)")
        self.coeffs = coeffs  # (c0, ..., c6), NFElements of one order
        self._invariants = invariants
        self._reductions = {}  # prime -> reduced coefficients, smooth there

    @property
    def order(self):
        return self.coeffs[0].order


class EulerFactorG2(Frozen):
    """Degree-4 local L-data at a prime of norm N:
    P(T) = 1 - a1 T + a2 T^2 - N a1 T^3 + N^2 T^4."""

    def __init__(self, N: int, a1: int, a2: int):
        if a1 * a1 > 16 * N:
            raise ValueError(f"Weil bound violated: |a1|={abs(a1)} > 4*sqrt({N})")
        if abs(a1 * a1 - 2 * a2) > 4 * N:
            raise ValueError("Weil bound violated for the second power sum")
        self._set(N=N, a1=a1, a2=a2)

    def _fields(self):
        return (self.N, self.a1, self.a2)


class RMSplit:
    """Unordered pair {alpha, conj(alpha)} in Z[sqrt(2)].

    The pair is unordered on purpose: point counts cannot tell the two
    conjugate eigenvalue systems apart, so every congruence downstream is
    a membership test against both reductions.
    """

    def __init__(self, pair: frozenset):
        self.pair = pair  # of NFElement over Zsqrt2

    def as_coords(self):
        return sorted(tuple(x.coords) for x in self.pair)


# ---------------------------------------------------------------------------
# Weierstrass invariants


def ec_invariants(E: EllipticCurveNF):
    """Standard covariants (c4, c6, Delta); c4^3 - c6^2 = 1728 Delta.
    Computed once, when the curve is built."""
    return E._invariants


def _covariants(E: EllipticCurveNF):
    mul, comb = _order_ring(E.order)
    b2, b4, b6, disc = _b_invariants([x.coords for x in E._fields()], mul, comb)
    b22 = mul(b2, b2)
    c4, c6 = comb((1, b22), (-24, b4)), comb((-1, mul(b22, b2)), (36, mul(b2, b4)), (-216, b6))
    return tuple(NFElement(E.order, c) for c in (c4, c6, disc))


def _order_ring(order):
    """(mul, comb) of `_b_invariants` on coordinate tuples of the order."""
    fc, n = order.poly.coeffs, order.degree
    return (lambda x, y: _zmulmod(x, y, fc),
            lambda *terms: tuple([sum(c * x[j] for c, x in terms) for j in range(n)]))


def _b_invariants(a, mul, comb):
    """b2, b4, b6 and Delta of the model a = (a1, a2, a3, a4, a6) over a
    ring given by its product `mul` and `comb(*terms)`, the sum of c x over
    pairs (c, x) of an integer and an element. These are the integer
    formulas, so they hold in every characteristic."""
    a1, a2, a3, a4, a6 = a
    a13, a33 = mul(a1, a3), mul(a3, a3)
    b2, b4, b6 = comb((1, mul(a1, a1)), (4, a2)), comb((2, a4), (1, a13)), comb((1, a33), (4, a6))
    b8 = comb((1, mul(b2, a6)), (-1, mul(a13, a4)), (1, mul(a2, a33)), (-1, mul(a4, a4)))
    disc = comb((-1, mul(mul(b2, b2), b8)), (-8, mul(mul(b4, b4), b4)),
                (-27, mul(b6, b6)), (9, mul(mul(b2, b4), b6)))
    return b2, b4, b6, disc


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


_BLOCK_SLOTS = 1 << 12  # slots reduced and classified at once; bounds memory


class _PackedField:
    """The packed tables of an odd residue field F = F_q[w]/(m) of
    degree k and order N, in log order (an index table, Lidl and
    Niederreiter, *Finite Fields*, ch. 9), from one walk through the
    powers of a generator: the one owner of everything derived from F.
    `_log_table` builds it once per (q, m). The slots of a packed
    integer run in log order: slot 0 holds a value at 0 and slot 1 + t
    a value at g^t; every count sums over all slots, so the order never
    shows. Values are read by element index (`FFElement.index`). Lists
    of elements are kept as k lists of components, one per power of w.

    g is `first_generator`, the first element in index order with
    g^((N-1)/r) != 1 for every prime r dividing N - 1; the frozen omega
    of the unit sieve is a power of the same g. The walk g^0, ..., g^(N-2)
    doubles on k packed component integers: from the first L powers, the
    next ones are g^L times them, one product with the matrix M(g^L) and
    one slot reduction per component. The 1 + chi table is 2 at the
    elements of even log; the power columns and ext-2 rows are slices of
    the walk (`column`, `rows`), so no field arithmetic runs per element.

    Every packed component the evaluator reduces has slots below
    13 k (q-1)^2 < 2^bound: sum over e <= 12 and l < k of
    M(g_e)[i][l] (x^e)_l, with M(g) the matrix of multiplication by g
    over F_q and every entry and component in [0, q), or a row
    sum_j M(y^j) H_j with j <= 6 and the components of H_j in [0, q).
    Division by the constant q (Granlund and Montgomery, "Division by
    invariant integers using multiplication", 1994): with
    shift = bound + bitlen(q) and magic = ceil(2^shift / q),
    floor(v / q) = (v magic) >> shift for every v < 2^bound. Since
    magic <= 2^(bound + 1), v magic < 2^(2 bound + 1), so slots of
    2 bound + 1 bits, rounded up to whole bytes, never carry into the
    next slot. After the shift the low bits of the next slot's product
    start at bit 8 width - shift >= bound - bitlen(q) + 1 of each slot,
    and the quotient below them is less than 2^(bound - bitlen(q) + 1),
    so a mask of the low 8 width - shift bits separates the two. A slot
    also holds an element index sum_i R_i q^i < q^k.
    """

    def __init__(self, q, m):
        k = len(m) - 1
        if q == 2:
            raise ValueError("packed counting needs odd characteristic")
        self.q, self.m = q, m  # m the monic modulus, lowest degree first; (0, 1) when k = 1
        self.order = N = q**k
        n = N - 1
        self.bound = bound = (13 * k * (q - 1) ** 2).bit_length()
        self.shift = shift = bound + q.bit_length()
        self.width = width = max((2 * bound + 1 + 7) // 8, (n.bit_length() + 7) // 8)
        self.magic = -(-(1 << shift) // q)
        self.low = ((1 << (8 * width - shift)) - 1).to_bytes(width, "little")  # quotient mask slot
        self.half = ((1 << bound) - 1).to_bytes(width, "little")  # low row of a paired slot
        self.masks = {}  # slot pattern -> (slots, mask): `low` and `half` only
        ones = int.from_bytes((1).to_bytes(width, "little") * N, "little")
        self._columns = {0: (ones,) + (0,) * (k - 1)}  # e -> `column(e)`
        self.mask(self.low, N)  # every count reduces N slots; the walk fewer
        fmul = _mul_kernel(q, m)
        g = first_generator(q, k, fmul)
        # the walk: W holds g^0, ..., g^(L-1) and h = g^L; a slot sum of
        # M(h)[i][l] W_l stays below k (q-1)^2
        W, L, h, bits = [1] + [0] * (k - 1), 1, g, 8 * width
        while L < n:
            t = min(L, n - L)
            cut = [v & (1 << bits * t) - 1 for v in W]
            W = [v | _reduce_slots(sum(map(mul, row, cut)), t, self) << bits * L
                 for v, row in zip(W, _mul_rows([[c] for c in h], self))]
            L, h = L + t, fmul(h, h)
        self.walk = tuple(v.to_bytes(n * width, "little") for v in W)  # component i of g^t at slot t
        index = sum(q**i * v for i, v in enumerate(W)).to_bytes(n * width, "little")
        logs = _slot_ints(index, width, n)  # index(g^t) at t
        table = bytearray(N)
        table[0] = 1
        for s in logs[::2]:
            table[s] = 2
        self.table = bytes(table)  # 1 + chi(z) at index(z)
        self.planes = ()  # 1 + chi as 0, 1, 3 (its bit count), 256 indices each
        if N <= 1 << 16:
            encoded = self.table.translate(bytes([0, 1, 3]) + bytes(253)) + bytes(-N % 256)
            self.planes = tuple(encoded[i : i + 256] for i in range(0, N, 256))
        self.wlogs = tuple(logs.index(q**l) for l in range(k))  # dlog(w^l) for l < k

    def mask(self, one: bytes, n: int) -> int:
        """The slot `one` (`low` or `half`) over at least n slots: F keeps
        one mask per pattern, rebuilt only to grow to the most slots used.
        A value of fewer slots ANDs with it exactly: each slot's
        v magic < 2^(2 bound + 1) <= 2^(8 width) stays inside its slot, as
        do paired rows, below 2^(2 bound), so the value masked has no bit
        above its own slots, and & of two non-negative ints only reads the
        shorter operand."""
        slots, mask = self.masks.get(one, (0, 0))
        if slots < n:
            slots, mask = self.masks[one] = n, int.from_bytes(one * n, "little")
        return mask

    def column(self, e) -> tuple:
        """x^e at every x of F, packed into the log-order slots: one int
        per component, built once per e. x^0 is 1 at every slot; for
        e > 0 the slot of 0 holds 0 and the slot of g^t holds g^(et), the
        walk taken every e-th step around its cycle."""
        if e not in self._columns:
            w, n, out = self.width, self.order - 1, []
            for comp in self.walk:
                buf, cycle = bytearray(n * w), comp * e
                for b in range((self.q - 1).bit_length() + 7 >> 3):
                    buf[b::w] = cycle[b :: e * w]
                out.append(int.from_bytes(buf, "little") << 8 * w)
            self._columns[e] = tuple(out)
        return self._columns[e]

    @cached_property
    def rows(self) -> list:
        """For each non-square y of F and each component i, the row i of
        M(y^0), ..., M(y^6) side by side: the rows of
        `_count_sextic_ext2`. The non-squares are y = g^(2s+1) for
        s < (N-1)/2, so the entry of y^j w^l, g^(j + dlog(w^l) + 2js),
        runs over s as the walk rotated by j + dlog(w^l) and taken every
        2j-th step.

        The rows come two to a tuple, the rows x and y of s = 2r and
        2r + 1 as x + (y << bound); when (N-1)/2 is odd (N = 3 mod 4) the
        last row stays single, that is, paired with the zero row. One
        product with a tuple gives both rows (`_grid_count`): a row value
        sums 7k products of an entry and a component in [0, q), so it is
        below 7k (q-1)^2 < 2^bound, and the two halves of a slot stay
        below 2^(2 bound) < 2^(8 width), with no carry between them or
        into the next slot."""
        n = self.order - 1
        rows = []
        for comp in self.walk:
            cycle = _slot_ints(comp, self.width, self.q - 1).tolist() * 7
            cols = [cycle[r : r + j * n : 2 * j] if j else cycle[r : r + 1] * (n // 2)
                    for j in range(7) for r in ((j + wl) % n for wl in self.wlogs)]
            single = list(zip(*cols))
            rows.append([tuple(x + (y << self.bound) for x, y in zip(a, b))
                         for a, b in zip(single[::2], single[1::2])] + single[len(single) & ~1 :])
        return rows


def _fold(A, q, m) -> list:
    """Elements given by lists A[t] of their coefficients of w^t (any
    ints, k <= t + 1 <= 2k - 1) as k lists of components in [0, q):
    w^t = -(m_0 w^(t-k) + ... + m_(k-1) w^(t-1)), from the top down."""
    A, k = list(A), len(m) - 1
    while len(A) > k:
        top = A.pop()
        for j, mj in enumerate(m[:k], len(A) - k):
            if mj:
                A[j] = [u - mj * v for u, v in zip(A[j], top)]
    return [[u % q for u in a] for a in A]


def _slot_ints(raw, width, top) -> array:
    """The slots of `raw` (little-endian, `width` bytes each, every value
    at most `top`) as an array of ints: the bytes that carry a value are
    moved into the items of the smallest array type that holds `top`."""
    code = next(c for c in "BHIQ" if top < 1 << 8 * array(c).itemsize)
    size = array(code).itemsize
    buf = bytearray(len(raw) // width * size)
    for b in range(top.bit_length() + 7 >> 3):
        buf[b::size] = raw[b::width]
    out = array(code, bytes(buf))
    if sys.byteorder == "big":
        out.byteswap()  # untested: runs only on a big-endian host
    return out


# The packed tables of F_q[w]/(m), one per field; the only cache keyed on (q, m).
_log_table = lru_cache(maxsize=None)(_PackedField)


def _field_tables(field) -> _PackedField:
    """`_log_table` of a residue field; every prime field shares the
    tables of F_q[w]/(w), since its elements are their constant terms."""
    return _log_table(field.p, field.modulus.coeffs if field.k > 1 else (0, 1))


def _mul_rows(A, T: _PackedField) -> list:
    """The multiplication matrices M(a) of the elements a of A side by
    side: row i lists, element after element, component i of a w^l for
    l < k."""
    A = [[a % T.q for a in c] for c in A]
    if len(A) == 1:
        return A
    cols = [A]
    for _ in range(len(A) - 1):  # a w^(l+1) from a w^l, shifted up and folded
        cols.append(_fold([[0] * len(A[0])] + cols[-1], T.q, T.m))
    return [[v for vs in zip(*(c[i] for c in cols)) for v in vs] for i in range(len(A))]


def _reduce_slots(V, n, T: _PackedField) -> int:
    """V with each of its n slots v replaced by v mod q: one multiply,
    shift and mask give every quotient (see `_PackedField`)."""
    return V - T.q * ((V * T.magic >> T.shift) & T.mask(T.low, n))


def _chi_sum(R, n, T: _PackedField) -> int:
    """Sum of 1 + chi over n slots, R the k packed components of the
    values: each is reduced mod q in place, they are folded into the
    element index sum_i R_i q^i, and the index is read through the
    1 + chi table. Up to 2^16 elements the low index byte goes through
    one 256-entry plane per high byte, ANDed with a selector of the slots
    that have that high byte, and the bit count of the 0, 1, 3 codes is
    the sum; past that each index is looked up."""
    V = _reduce_slots(R[0], n, T)
    for i in range(1, len(R)):
        V += T.q**i * _reduce_slots(R[i], n, T)
    w = T.width
    raw = V.to_bytes(n * w, "little")
    if not T.planes:
        return sum(map(T.table.__getitem__, _slot_ints(raw, w, T.order - 1)))
    lo = raw[::w]
    if len(T.planes) == 1:
        return int.from_bytes(lo.translate(T.planes[0]), "little").bit_count()
    hi = raw[1::w]
    acc = 0
    for h, plane in enumerate(T.planes):  # the selector maps byte h to 0xff, others to 0
        acc |= int.from_bytes(lo.translate(plane), "little") & int.from_bytes(
            hi.translate(bytes(h) + b"\xff" + bytes(255 - h)), "little"
        )
    return acc.bit_count()


def _grid_count(G, T: _PackedField, rows=None) -> int:
    """Sum of 1 + chi(G(x, y)) over x in F and the y of `rows`, or of
    1 + chi(G[0](x)) over x in F when `rows` is None.

    G(X, Y) = sum_j G[j](X) Y^j is given as at most 7 element lists G[j]
    (coefficients lowest degree first, at most 13), and `rows` as in
    `_PackedField.rows`, two rows to a tuple. Component i of H_j = G_j(x) at
    every x is sum_e sum_l M(G[j][e])[i][l] (x^e)_l on the packed power
    columns, whose slots run over the x of F in log order (`_PackedField`);
    it is reduced mod q in place when there are rows, and the rows of y
    and y' are sum_j (M(y^j) + 2^bound M(y'^j)) H_j: one multiply of
    packed integers by small ones per pair. The pairs of a block of at
    most `_BLOCK_SLOTS` slots are concatenated component by component;
    each slot holds the row of y in its low bound bits and that of y'
    in the next bound bits (see `_PackedField.rows`), so B & mask and
    (B >> bound) & mask, mask the low bound bits of every slot, split
    them. Each half is reduced and read through the 1 + chi table
    (`_chi_sum`), so memory stays O(block). The zero row that pairs a
    single last row adds 1 + chi(0) = 1 at each of its N slots, which
    comes off the sum. The sum covers every slot, so the slot order
    never shows in a count.
    """
    if len(G) > 7 or any(len(g[0]) > 13 for g in G):
        raise ValueError("packed evaluation takes X-degree at most 12 and Y-degree at most 6")
    n = T.order
    cols = [T.column(e) for e in range(max(len(g[0]) for g in G))]
    H = []
    for g in G:
        flat = [c for col in cols[: len(g[0])] for c in col]
        H.append([sum(map(mul, row, flat)) for row in _mul_rows(g, T)])
    if rows is None:
        return _chi_sum(H[0], n, T)
    # a row sum_j M(y^j) H_j stays below 7k (q-1)^2 only for reduced H_j
    flat = [_reduce_slots(c, n, T) for h in H for c in h]
    size, per = n * T.width, max(1, _BLOCK_SLOTS // n)
    count = 0
    for s in range(0, len(rows[0]), per):
        R = []
        for comp in rows:
            vals = [sum(map(mul, r, flat)) for r in comp[s : s + per]]
            R.append(vals[0] if len(vals) == 1 else int.from_bytes(
                b"".join(v.to_bytes(size, "little") for v in vals), "little"))
        slots = min(per, len(rows[0]) - s) * n
        mask = T.mask(T.half, slots)
        count += _chi_sum([B & mask for B in R], slots, T)
        count += _chi_sum([B >> T.bound & mask for B in R], slots, T)
    return count - n * ((n - 1) // 2 & 1)


def _abs_trace_to_f2(x):
    """Absolute trace F_{2^k} -> F_2 of an FFElement."""
    acc = x
    tot = x
    for _ in range(x.field.k - 1):
        acc = acc * acc
        tot = tot + acc
    return tot


def _weierstrass_count(a, field):
    """Points (with infinity) over `field` of y^2 + a1 xy + a3 y = x^3 +
    a2 x^2 + a4 x + a6, the a_i given as coefficient tuples, and whether
    its discriminant vanishes (`_b_invariants` mod p). p = 2 counts by
    the Artin-Schreier trace; odd p counts (2y + a1 x + a3)^2 = 4x^3 +
    b2 x^2 + 2 b4 x + b6 by summing 1 + chi over x."""
    p, k, mul = field.p, field.k, field.mul_kernel()

    def comb(*terms):  # sum of c x over the (c, x) pairs
        return tuple([sum(c * x[j] for c, x in terms) % p for j in range(k)])

    b2, b4, b6, disc = _b_invariants(a, mul, comb)
    if p > 2:
        f = (b6, [2 * c for c in b4], b2, (4,) + (0,) * (k - 1))
        return 1 + _grid_count([list(zip(*f))], _field_tables(field)), not any(disc)
    a1, a2, a3, a4, a6 = (field.element(c) for c in a)
    count = 1  # point at infinity
    for x in field.elements():
        c = a1 * x + a3
        d = ((x + a2) * x + a4) * x + a6
        if c.is_zero:
            count += 1  # squaring is a bijection
        elif _abs_trace_to_f2(d * (c * c).inverse()).is_zero:
            count += 2
    return count, not any(disc)


def _reduced_trace(a, field):
    """Frobenius trace N + 1 - #E(F_N) of the model with coefficient
    tuples a over F_N, or None when its discriminant vanishes there."""
    n, singular = _weierstrass_count(a, field)
    if singular:
        return None
    t = field.order + 1 - n
    if t * t > 4 * field.order:
        raise AssertionError("Hasse bound violated; counting bug")
    return t


def ec_trace(E: EllipticCurveNF, P: PrimeIdealData) -> int:
    """Frobenius trace a_P = N + 1 - #E(F_N) at a prime of good reduction."""
    t = _reduced_trace(tuple(reduce_element(c, P).coeffs for c in E._fields()), P.residue_field)
    if t is None:
        raise BadReductionError(f"{E!r} has bad reduction at {P.key}")
    return t


def _norm_polynomial(c, T: _PackedField) -> list:
    """G_0, ..., G_6 of `_count_sextic_ext2`, G_e = sum_i (-1)^i D_i D_(2e-i)
    for f(X + u) = sum_i D_i(X) u^i, as element lists, X^0 first.

    One Kronecker product: an element of F is k B-bit digits, one per
    power of w; the coefficient D_i[a] of X^a goes to slot 13 i + a of
    2k - 1 digits in one integer, and with the sign of odd i folded in
    mod q to the same slot of another. Slot 13 s + n of their product
    sums D_i[a] D_j[b] over i + j = s, a + b = n <= 12, so no two (s, n)
    share a slot, and G_e[n] is slot 13 (2e) + n. In a slot (i, a) fixes
    (j, b), so it sums at most 49 products, odd s included, and a digit
    of a product is at most k (20 (q-1))^2 (comb(6, 3) = 20): B = 32 or
    64 holds 19600 k (q-1)^2, so no digit carries into the next.
    """
    q, k = T.q, len(T.m) - 1
    d = 2 * k - 1
    code = next((t for t in "IQ" if 19600 * k * (q - 1) ** 2 < 1 << 8 * array(t).itemsize), None)
    if code is None:
        raise ValueError("the norm polynomial needs 19600 k (q-1)^2 < 2^64")
    plus, minus = [[a % q for a in x] for x in c], [[-a % q for a in x] for x in c]
    D, Dsigned = [0] * (79 * d), [0] * (79 * d)  # slots 13 i + a <= 78
    for i in range(7):
        for n in range(i, 7):
            at = d * (12 * i + n)
            D[at : at + k] = [comb(n, i) * a for a in plus[n]]
            Dsigned[at : at + k] = [comb(n, i) * a for a in (minus if i & 1 else plus)[n]]
    full = (int.from_bytes(array(code, D).tobytes(), sys.byteorder)
            * int.from_bytes(array(code, Dsigned).tobytes(), sys.byteorder))
    digits = array(code, full.to_bytes(157 * d * array(code).itemsize, sys.byteorder))
    return [_fold([digits[d * 26 * e + t : d * (24 * e + 13) : d] for t in range(d)], q, T.m)
            for e in range(7)]


def _count_sextic_ext2(c, T: _PackedField) -> int:
    """Points of y^2 = sum c[n] x^n over F_{N^2} = F[t]/(t^2 - S), c the
    seven coefficients over the residue field F of order N (k-tuples, see
    `_field_tables`) and S a non-square of F.

    A nonzero z = P + Qt is a square in F_{N^2} exactly when its norm
    P^2 - S Q^2 is a square in F, so chi_{N^2}(z) = chi_N(N(z)). At
    x = a + bt the norm of f(x) is f(a + bt) f(a - bt) = G(a, S b^2) for
    one bivariate polynomial over F, G(X, u^2) = f(X + u) f(X - u), of
    X-degree 12 - 2e in u^(2e) (`_norm_polynomial`). The (a, b) grid is
    evaluated by `_grid_count`: S b^2 runs over the non-squares of F,
    each from b and -b, so each row of `_PackedField.rows` (built once per
    residue field) counts twice, and row 0 (f^2) once. Every element of
    F is a square in F_{N^2}, so a nonzero leading coefficient always
    contributes both points at infinity.
    """
    G = _norm_polynomial(c, T)
    lead = 2 if any(a % T.q for a in c[6]) else 1
    return lead + _grid_count(G[:1], T) + 2 * _grid_count(G, T, T.rows)


def _reduce_sextic(C: HyperellipticCurveNF, P: PrimeIdealData) -> list:
    """The seven coefficients of C reduced at P, where the reduction stays
    smooth: P is odd and I10 = 2^20 Disc(f) is a unit at P. Memoized on
    the curve, so the counts at both extension degrees of one Euler
    factor share one reduction; a singular P raises on every call."""
    red = C._reductions.get(P)
    if red is None:
        if P.q == 2:
            raise SingularReductionError("genus-2 counting in characteristic 2 is unsupported")
        if reduce_element(C._invariants[3], P).is_zero:
            raise SingularReductionError(f"singular reduction at {P.key}")
        red = C._reductions[P] = [reduce_element(c, P) for c in C.coeffs]
    return red


def hyp_count_points(C: HyperellipticCurveNF, P: PrimeIdealData, ext: int = 1) -> int:
    """Points of the smooth projective genus-2 model over F_{N^ext}.

    Affine part is sum over x of 1 + chi(f(x)); points at infinity follow
    the image of the leading coefficient: two if it is a nonzero square
    in the counting field, one if it vanishes (degree drops to five),
    none if it is a non-square. F_N is counted by one row of
    `_grid_count`, and F_{N^2} over the residue field F_N on one packed
    grid of norm values down to F_N (`_count_sextic_ext2`), at split and
    inert primes alike.
    """
    if ext not in (1, 2):
        raise ValueError("ext must be 1 or 2")
    red = _reduce_sextic(C, P)
    c, T = [x.coeffs for x in red], _field_tables(P.residue_field)
    if ext == 2:
        return _count_sextic_ext2(c, T)
    return _grid_count([list(zip(*c))], T) + T.table[red[6].index()]


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


def rm_residues_mod_p7(split: RMSplit) -> frozenset:
    """Both reductions of an unordered RM pair at the prime 7.0 of Z[sqrt(2)],
    (3 + sqrt(2)), whose residue field is F_7 with sqrt(2) -> 4."""
    P = prime_by_key(get_order("Zsqrt2"), "7.0")
    return frozenset(reduce_element(x, P).coeffs[0] for x in split.pair)


# ---------------------------------------------------------------------------
# Igusa-Clebsch invariants via classical transvectants
#
# _transvectant is the k-th transvectant without its rational scale
# (m-k)!(n-k)!/(m!n!), so every value stays in the order. Clebsch's A, B,
# C, D are fixed rational multiples of the four unscaled invariants
# below, and each I_k of the binary form 4f is a fixed rational
# combination of monomials in A, B, C, D; _IC_WEIGHTS folds both, and
# the factor 4^k, into integer weights over one denominator per
# invariant. I_k(4f) has integer coefficients as a polynomial in the
# coefficients of f, so the one division is exact. The test suite
# re-derives the weights from the Clebsch-to-Igusa relations and pins
# the invariants with the root-difference oracle.

_IC_WEIGHTS = (  # (denominator, ((weight, (a, b, c, d)) for A^a B^b C^c D^d, ...))
    (270, ((-1, (1, 0, 0, 0)),)),
    (139968000, ((-96, (2, 0, 0, 0)), (25, (0, 1, 0, 0)))),
    (27209779200000, ((6912, (3, 0, 0, 0)), (-2400, (1, 1, 0, 0)), (125, (0, 0, 1, 0)))),
    (
        856912134389760000000000,
        (
            (-1492992, (5, 0, 0, 0)),
            (648000, (3, 1, 0, 0)),
            (30000, (2, 0, 1, 0)),
            (-56250, (1, 2, 0, 0)),
            (-3125, (0, 1, 1, 0)),
            (-84375, (0, 0, 0, 1)),
        ),
    ),
)


def _form_mixed_derivative(f, m, a, b):
    """d^(a+b) f / dx^a dz^b on coefficient vectors of formal degree m."""
    cur, deg = list(f), m
    for _ in range(a):
        cur = [i * cur[i] for i in range(1, deg + 1)]
        deg -= 1
    for _ in range(b):
        cur = [(deg - i) * cur[i] for i in range(deg)]
        deg -= 1
    return cur


def _transvectant(f, m, g, n, k):
    """(f, g)_k times m!n!/((m-k)!(n-k)!), for forms of degrees m and n."""
    out = [0] * (m + n - 2 * k + 1)
    for j in range(k + 1):
        fa = _form_mixed_derivative(f, m, k - j, j)
        ga = _form_mixed_derivative(g, n, j, k - j)
        w = comb(k, j) * (-1) ** j
        for i, x in enumerate(fa):
            for l, y in enumerate(ga):
                out[i + l] = out[i + l] + x * y * w
    return out


def _clebsch_integral(f):
    """Rational multiples of Clebsch's (A, B, C, D) of the sextic f, in
    the ring of its coefficients."""
    i = _transvectant(f, 6, f, 6, 4)
    y1 = _transvectant(f, 6, i, 4, 4)
    y3 = _transvectant(i, 4, _transvectant(i, 4, y1, 2, 2), 2, 2)
    return (
        _transvectant(f, 6, f, 6, 6)[0],
        _transvectant(i, 4, i, 4, 4)[0],
        _transvectant(i, 4, _transvectant(i, 4, i, 4, 2), 4, 4)[0],
        _transvectant(y3, 2, y1, 2, 2)[0],
    )


def igusa_clebsch(curve):
    """Igusa-Clebsch invariants (I2, I4, I6, I10) as NFElements.

    Follows the integral-model convention: the binary form attached to
    y^2 = f(x) is 4f (that is, h^2 + 4f with h = 0), which matches the
    normalization of the standard computer-algebra implementations. The
    invariants of the bare sextic differ by the pattern 16^(weight/2).
    They are integral: polynomials with integer coefficients in those
    of f.

    Accepts a HyperellipticCurveNF, whose invariants were computed when
    it was built, or seven NFElement coefficients; raw input may be
    degenerate, in which case I10 comes back zero.
    """
    if isinstance(curve, HyperellipticCurveNF):
        return curve._invariants
    coeffs = list(curve)
    if len(coeffs) != 7:
        raise ValueError("need 7 sextic coefficients")
    order = coeffs[0].order
    clebsch = _clebsch_integral(coeffs)
    out = []
    for den, terms in _IC_WEIGHTS:
        num = sum(
            (prod(v**e for v, e in zip(clebsch, exps) if e) * w for w, exps in terms),
            order.zero(),
        )
        if any(c % den for c in num.coords):
            raise ArithmeticError("Igusa-Clebsch weight table is not integral")
        out.append(NFElement(order, tuple(c // den for c in num.coords)))
    return tuple(out)


@lru_cache(maxsize=None)
def _sextic_invariants(coeffs: tuple):
    """`igusa_clebsch` of seven NFElements, once per tuple per process
    (NFElement hashes on its order and coordinates)."""
    return igusa_clebsch(coeffs)


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

    For distinct roots l1, l2, write x^k = c1 x + c0 mod x^2 - a x + N;
    then l1^k - l2^k = c1 (l1 - l2), so the order is the smallest k with
    c1 = 0. Multiplying by x steps (c0, c1) -> (-N c1, c0 + a c1), from
    (0, 1) at k = 1: no square root and no extension field. For a
    repeated root l, x^k = k l^(k-1) x + (1 - k) l^k, so the same
    recurrence returns the characteristic: the map is
    unipotent-times-scalar under the non-semisimple reading, and a scalar
    (semisimple) Frobenius would have order 1 instead. Callers that
    report this value flag the degenerate case; it never occurs in the
    shipped fixtures.
    """
    F = a.field
    ell = F.char
    if ell == 2:
        raise ValueError("odd characteristic only")
    if N % ell == 0:
        raise ValueError("the characteristic must not divide the determinant")
    n = F.from_int(N)
    c0, c1 = F.zero(), F.one()
    # the ratio lies in F^* or in the norm-1 subgroup of its quadratic
    # extension, so its order is at most |F| + 1
    for k in range(1, F.order + 2):
        if c1.is_zero:
            return k
        c0, c1 = -(n * c1), c0 + a * c1
    raise AssertionError("order search exceeded the group size")


# ---------------------------------------------------------------------------
# fixture files


_MODELS = {
    "weierstrass": ("a1", "a2", "a3", "a4", "a6"),
    "sextic": tuple(f"c{i}" for i in range(7)),
}


def curve_from_dict(data: dict):
    """Build a curve from the fixture-file dictionary format. Malformed
    data raises a ValueError that names the offending field."""
    label, model, coeffs = fields(data, "curve", ValueError, ("order", "model", "coefficients"))
    order = get_order(one_of(label, "order", ValueError, known_orders()))
    names = _MODELS[one_of(model, "model", ValueError, _MODELS)]
    vals = [
        order.element(int_lists(v, f"coefficients.{name}", ValueError, width=order.degree))
        for name, v in zip(names, fields(coeffs, "coefficients", ValueError, names))
    ]
    if model == "weierstrass":
        return EllipticCurveNF(*vals)
    return HyperellipticCurveNF(coeffs=tuple(vals))


def load_curve(path):
    """The curve in a curve file (JSON; other keys, such as a label, are
    ignored)::

        {"order": order label, "model": "weierstrass" | "sextic",
         "coefficients": {"a1": coords, "a2": .., "a3": .., "a4": .., "a6": ..}
                       | {"c0": coords, ..., "c6": coords}}

    coords lists at most [K:Q] ints (never `true` or `false`), in the
    order's basis; the models are those of EllipticCurveNF and
    HyperellipticCurveNF."""
    return read_json(path, curve_from_dict)
