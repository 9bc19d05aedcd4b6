"""Descent-plus-modular unit sieve over Z[zeta_13].

Unit classes are exponent vectors in (Z/7)^5 over the cyclotomic-unit
generators u_a = 1 + zeta + ... + zeta^(a-1), a = 2..6 (16807 classes in
all). A class eps survives a constraint at q when, at every prime Q
above q (7 must divide N(Q) - 1), eps (1 - zeta)^delta has the 7th-power
residue of one admissible pair a + b zeta; survivors of the constraints
intersect. A class is its index e_0 + 7 e_1 + ... + 7^4 e_4
(`class_index`, `class_exps`), a survivor set one 16807-bit int, bit i
for class i, and at each Q the classes are grouped into one mask per value.

Every residue x^((N-1)/7) at Q comes from one memoised per-prime map,
`_seventh_powers(Q)`: the norm to F_{q^d}, d the order of q mod 7, then
the power (q^d-1)/7, memoised on the exact norm, with the residues of
u_2..u_6 and 1 - zeta taken once. The pairs' residues come from it in
one pass (`_pair_residues`): the norm of a + b zeta is b^n N(a/b + zeta)
(n = f/d), one scalar times one of the q line norms.

Two independent routes read that map; their agreement is an acceptance
criterion. The production route compares characters in Z/7,
chi_Q(eps) = unit_chars . e, and reads every pair's off chi(b) +
chi(a/b + zeta), the dlogs of the q line residues and of the constants
b^((N-1)/7). The reference route compares the exact residues of every
pair and unit, with no discrete logs, characters or linear algebra mod 7.

The dlog base omega is frozen only where values are output: the tables
of `build_character` and `char_value` take the residue of the lex-least
multiplicative generator, from `exactarith.first_generator`, the plain
index-order walk that also picks the generator of `curves._log_table`.
The sieve and the rank check take theirs from `_sieve_character`, the
residue of the first non-7th-power, found with no generator search;
another base only relabels the values at a prime, so the survivor bits
and ranks are the same.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, compress

from .curves import g2_euler_factor, g2_rm_split, rm_residues_mod_p7
from .elimination import FreyFamily, compatible_pairs, residue_pairs
from .exactarith import FFElement, chain_pow, first_generator
from .numberfield import (
    Frozen,
    PrimeIdealData,
    cyclotomic_unit_generators,
    get_order,
    reduce_element,
    split_prime,
)

__all__ = [
    "UNIT_CLASS_COUNT",
    "UnitClass",
    "LocalCharacterTable",
    "SieveConstraint",
    "build_character",
    "char_value",
    "admissible_pairs",
    "class_index",
    "class_exps",
    "class_indices",
    "sieve_case",
    "sieve_case_bits",
    "sieve_case_exhaustive",
    "sieve_case_exhaustive_bits",
    "generator_independence_rank",
    "modular_targets_from_curve",
]

UNIT_CLASS_COUNT = 7**5  # 16807
_ALL_CLASSES = (1 << UNIT_CLASS_COUNT) - 1
_DESCENT_CASES = ("coprime-13", "divisible-13")


def class_index(exps) -> int:
    """The index e_0 + 7 e_1 + ... + 7^4 e_4 of the unit class with
    exponents e in (Z/7)^5 over the generators u_2..u_6."""
    if len(exps) != 5 or not 0 <= min(exps) <= max(exps) < 7:
        raise ValueError("a unit class is five exponents in [0, 7)")
    e0, e1, e2, e3, e4 = exps
    return e0 + 7 * (e1 + 7 * (e2 + 7 * (e3 + 7 * e4)))


def class_exps(n: int) -> tuple:
    """The exponents of the unit class of index n, 0 <= n < 16807: its
    base-7 digits, lowest first."""
    return (n % 7, n // 7 % 7, n // 49 % 7, n // 343 % 7, n // 2401)


class UnitClass:
    """A survivor as `sieve_case` and `sieve_case_exhaustive` return it:
    the class index alone."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class LocalCharacterTable:
    """7th-power residue characters at a prime Q of Z[zeta_13]: the dlogs
    base omega of the residues `_seventh_powers(Q)` gives.

    omega is a primitive 7th root of unity in the residue field. In the
    tables of `build_character` it is the frozen one, the (N-1)/7 power
    of the first multiplicative generator in the frozen element
    enumeration order, which freezes the values `char_value` returns.
    The sieve and the rank check build theirs with `_sieve_character`,
    whose omega is the residue of the first non-7th-power in that order:
    omega^k in place of omega scales every value at Q by 1/k mod 7, which
    moves no survivor bit and no rank, so no output shows that base.
    """

    def __init__(self, prime: PrimeIdealData, omega: FFElement):
        seventh = _seventh_powers(prime)
        dlog, acc = {}, prime.residue_field.one()
        for k in range(7):
            dlog[acc.coeffs] = k
            acc = acc * omega
        self.prime = prime
        self.omega = omega
        self.dlog = dlog  # omega^k coefficients -> k
        self.unit_chars = tuple(_dlog(dlog, v) for v in seventh.units)  # chi(u_a), a = 2..6
        self.chi_one_minus_zeta = _dlog(dlog, seventh.one_minus_zeta)

    @property
    def q(self) -> int:
        return self.prime.q

    @cached_property
    def line_chars(self) -> tuple:
        """chi(c + zeta) for c = 0..q-1, None where c + zeta lies in Q."""
        pairs = [(c, 1) for c in range(self.q)]
        return tuple(_dlog(self.dlog, v) for v in _pair_residues(self.prime, pairs))

    @cached_property
    def scalar_chars(self) -> tuple:
        """chi(b) for b = 0..q-1 (None at 0): b^((N-1)/7) is the constant
        pow(b, (N-1)/7, q), 1 unless 7 | q - 1."""
        q, zeros = self.q, (0,) * (self.prime.fdeg - 1)
        e = (self.prime.norm - 1) // 7 % (q - 1)
        return (None,) + tuple(
            _dlog(self.dlog, (pow(b, e, q),) + zeros) for b in range(1, q)
        )

    @cached_property
    def masks(self) -> dict:
        """`_class_masks` of the characters chi_Q(eps), built once per table."""
        rows = [[c * e % 7 for e in range(7)] for c in self.unit_chars]
        return _class_masks(rows, 0, lambda x, y: (x + y) % 7)


class SieveConstraint(Frozen):
    """Local condition at a rational prime q.

    mode "parity-only" (q = 2 only): keeps pairs with a + b odd.
    mode "modular": keeps pairs whose member-curve trace data is
        compatible with the target Euler residues mod 7; needs `family`
        (the Frey family) and `targets` (prime key of the family's base
        field -> frozenset of residues mod 7, both reductions of the
        unordered RM pair).
    mode "unconstrained": all q^2 - 1 pairs.
    """

    def __init__(self, q: int, mode: str, family: FreyFamily = None, targets: tuple = None):
        if q == 13:
            raise ValueError("the ramified prime 13 cannot constrain the sieve")
        if mode not in ("parity-only", "modular", "unconstrained"):
            raise ValueError(f"unknown sieve mode {mode!r}")
        if mode == "parity-only" and q != 2:
            raise ValueError("parity-only is valid only at q = 2")
        # targets: sorted tuple of (prime key, frozenset)
        self._set(q=q, mode=mode, family=family, targets=targets)

    def _fields(self):
        return (self.q, self.mode, self.family, self.targets)

    def targets_dict(self):
        return dict(self.targets) if self.targets else {}


# ---------------------------------------------------------------------------
# characters


def _subfield_norm(F, d: int):
    """x -> the norm x^((N-1)/(q^d-1)) of x to F_{q^d}, for F = F_{q^f}
    and d | f, on coefficient tuples: an int when d = 1, otherwise the
    norm's coefficient tuple in F.

    The norm is the product of the n = f/d conjugates sigma^(d i)(x),
    sigma the q-power map. For x = c0 + c1 t, of degree at most 1 in
    the field's generator t (every line element c + zeta, where zeta
    maps to t), it is
    sum_k c0^(n-k) c1^k e_k, the e_k the elementary symmetric functions
    of the conjugates of t: at d = 1 the modulus coefficients
    (-1)^k m_(f-k), otherwise the coefficients of the product of the
    X + sigma^(d i)(t), made on the first linear x. Any other x takes
    Itoh-Tsujii doubling, a_(2m) = a_m sigma^(d m)(a_m) and
    a_(m+1) = x sigma^d(a_m) for a_m = x sigma^d(x) ... sigma^(d (m-1))(x),
    about 2 log2(n) multiplies over one precomputed F_q-linear map per
    Frobenius power used (Itoh and Tsujii, 1988; von zur Gathen and
    Shoup, "Computing Frobenius maps and factoring polynomials", 1992).
    """
    q, f = F.p, F.k
    n = f // d
    steps, m = [], 1
    for bit in bin(n)[3:]:
        steps.append((False, m))
        m *= 2
        if bit == "1":
            steps.append((True, 1))
            m += 1
    maps = {j: F.frobenius_kernel(d * j) for _, j in steps}
    steps = [(by_x, maps[j]) for by_x, j in steps]
    mul = F.mul_kernel()
    cols = None  # (j, (e_0[j], ..., e_n[j])) wherever some e_k[j] != 0

    def symmetric():
        if d == 1:
            mod = F.modulus.coeffs
            return [(0, tuple((-1) ** k * mod[f - k] % q for k in range(n + 1)))]
        conj, frob = [F.gen().coeffs], F.frobenius_kernel(d)
        for _ in range(n - 1):
            conj.append(frob(conj[-1]))
        es = [F.one().coeffs]
        for c in conj:
            prods = [mul(c, e) for e in es]
            es = [es[0]] + [
                tuple([(u + v) % q for u, v in zip(e, p)]) for e, p in zip(es[1:], prods)
            ] + [prods[-1]]
        return [(j, col) for j, col in enumerate(zip(*es)) if any(col)]

    def norm(x):
        nonlocal cols
        if n > 1 and not any(x[2:]):
            if cols is None:
                cols = symmetric()
            p0, p1 = [1], [1]
            for _ in range(n):
                p0.append(p0[-1] * x[0] % q)
                p1.append(p1[-1] * x[1] % q)
            coef = [u * v for u, v in zip(reversed(p0), p1)]
            y = [0] * f
            for j, col in cols:
                y[j] = sum(map(int.__mul__, coef, col)) % q
        else:
            y = x
            for by_x, frob in steps:
                y = mul(x if by_x else y, frob(y))
        return y[0] if d == 1 else tuple(y)

    return norm


def _memo_power(F, d: int, e: int):
    """y -> y^e as a coefficient tuple of F = F_{q^f}, for a norm y to
    F_{q^d} as `_subfield_norm` gives it and e below q^d: an int `pow`
    mod q when d = 1, otherwise `_power_plan`. Memoised on y."""
    memo = {}
    if d == 1:
        q, zeros = F.p, (0,) * (F.k - 1)

        def make(y):
            return (pow(y, e, q),) + zeros
    else:
        make = _power_plan(F, e)

    def power(y):
        v = memo.get(y)
        if v is None:
            v = memo[y] = make(y)
        return v

    return power


def _power_plan(F, e: int):
    """y -> y^e on coefficient tuples of F = F_{q^f}, e >= 1, by the
    cheaper of two chains, a Frobenius map counted as one multiply (it
    costs less); on a tie the plain one.

    The plain chain is `chain_pow`. The Frobenius-Horner plan reads the
    base-q digits g_i of e: y^e is the product of the sigma^i(y^(g_i)),
    sigma the q-power map, taken as acc = sigma(acc) y^(g_i) from the
    top digit down, with every y^(g_i) from one memoised binary chain
    (for q = 23 the digits 13, 6 and 3 of (23^3 - 1)/7 cost 5 multiplies
    together). For e below q^d that is d - 1 maps where the plain chain
    has about log2(e) squarings.
    """
    q, mul = F.p, F.mul_kernel()
    digits, rest = [], e
    while rest:
        rest, g = divmod(rest, q)
        digits.append(g)
    chain = {}  # the same memoised chain on exponents: one entry per multiply
    for g in filter(None, digits):
        chain_pow(int.__add__, 1, g, chain)
    horner = len(chain) + 2 * (len(digits) - 1) - digits[:-1].count(0)
    if e.bit_length() + e.bit_count() - 2 <= horner:
        return lambda y: chain_pow(mul, y, e)
    frob, top, low = F.frobenius_kernel(1), digits[-1], digits[-2::-1]

    def power(y):
        memo = {}
        acc = chain_pow(mul, y, top, memo)
        for g in low:
            acc = frob(acc)
            if g:
                acc = mul(acc, chain_pow(mul, y, g, memo))
        return acc

    return power


class _SeventhPowers:
    """x -> x^((N-1)/7) on coefficient tuples of the residue field at Q,
    as the power (q^d-1)/7 of the norm of x to F_{q^d}, d the order of
    q mod 7 (`_subfield_norm`, `_memo_power`: one power per distinct
    norm). Holds d, n = f/d, and the residues of u_2..u_6 (`units`) and
    of 1 - zeta, a unit at every Q with 7 | N(Q) - 1."""

    def __init__(self, Q: PrimeIdealData):
        if (Q.norm - 1) % 7:
            raise ValueError(
                f"7 does not divide the residue group order at {Q.key} (N = {Q.norm})"
            )
        F, q = Q.residue_field, Q.q
        self.d = d = next(d for d in range(1, 7) if pow(q, d, 7) == 1)
        self.n = F.k // d
        self.norm = _subfield_norm(F, d)
        self.power = _memo_power(F, d, (q**d - 1) // 7)
        order = get_order("Zzeta13")
        self.units = tuple(self(reduce_element(u, Q).coeffs) for u in cyclotomic_unit_generators())
        self.one_minus_zeta = self(reduce_element(order.one() - order.theta(), Q).coeffs)

    def __call__(self, x):
        return self.power(self.norm(x))


# The per-prime map shared by both sieve routes, one per Q.
_seventh_powers = lru_cache(maxsize=None)(_SeventhPowers)


def _dlog(dlog: dict, residue) -> object:
    """The k with residue = omega^k, None for None."""
    if residue is None:
        return None
    k = dlog.get(residue)
    if k is None:
        raise AssertionError("character value outside the order-7 subgroup")
    return k


@lru_cache(maxsize=None)
def build_character(Q: PrimeIdealData) -> LocalCharacterTable:
    """Character table at Q with the frozen omega, memoized per prime;
    requires 7 | N(Q) - 1."""
    F = Q.residue_field
    g = first_generator(F.p, F.k, F.mul_kernel())
    return LocalCharacterTable(Q, FFElement(F, _seventh_powers(Q)(g)))


@lru_cache(maxsize=None)
def _sieve_character(Q: PrimeIdealData) -> LocalCharacterTable:
    """Character table at Q for the sieve and the rank check, memoized per
    prime: its omega is the residue x^((N-1)/7) of the first x in the
    frozen enumeration order that is not a 7th power, with no generator
    search. A constant c (index below q) costs one int `pow` mod q; when
    7 does not divide q - 1 every constant is a 7th power, and the walk
    goes on to the line elements c + t, one `_seventh_powers` call each."""
    seventh, F, q = _seventh_powers(Q), Q.residue_field, Q.q
    e, zeros = (Q.norm - 1) // 7 % (q - 1), (0,) * (F.k - 1)
    residues = ((pow(c, e, q),) + zeros for c in range(1, q))
    lines = (seventh(F.from_index(idx).coeffs) for idx in range(q, F.order))
    one = F.one().coeffs
    omega = next(r for r in chain(residues, lines) if r != one)
    return LocalCharacterTable(Q, FFElement(F, omega))


def char_value(table: LocalCharacterTable, x) -> object:
    """chi_Q(x) in Z/7, or None when x reduces to zero at Q (the prime
    then imposes no condition; the 7th-power content is absorbed by the
    ideal equation)."""
    red = reduce_element(x, table.prime)
    if red.is_zero:
        return None
    return _dlog(table.dlog, _seventh_powers(table.prime)(red.coeffs))


# ---------------------------------------------------------------------------
# admissible residue pairs


def admissible_pairs(constraint: SieveConstraint):
    """Residue pairs (a, b) mod q surviving the local constraint."""
    q = constraint.q
    if constraint.mode == "parity-only":
        return {(0, 1), (1, 0)}
    if constraint.mode == "unconstrained":
        return set(residue_pairs(q))
    # modular
    family = constraint.family
    targets = constraint.targets_dict()
    if family is None or not targets:
        raise ValueError(
            f"modular constraint at q={q} needs the Frey family and Euler targets"
        )
    return set(compatible_pairs(family, q, 7, targets))


def modular_targets_from_curve(curve, q: int):
    """Target residue sets mod 7 from a genus-2 curve's RM-split Euler
    factors at the primes above q, in the SieveConstraint format."""
    out = []
    for P in split_prime(curve.order, q):
        res = rm_residues_mod_p7(g2_rm_split(g2_euler_factor(curve, P)))
        out.append((P.key, frozenset(res)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the sieve


def _pair_char(table: LocalCharacterTable, a: int, b: int) -> object:
    """chi_Q(a + b zeta) from the table's line and scalar values: for
    b != 0, a + b zeta = b (a/b + zeta) and b is a unit at Q."""
    if b == 0:
        return table.scalar_chars[a]
    q = table.q
    line = table.line_chars[a * pow(b, -1, q) % q]
    return None if line is None else (table.scalar_chars[b] + line) % 7


def _class_masks(powers, start, combine) -> dict:
    """Map each value of eps (1 - zeta)^delta at one prime to the mask of
    the classes eps taking it. powers[a][e] is the value of u_(a+2)^e,
    `start` that of (1 - zeta)^delta, and `combine` multiplies values.

    One generator at a time: classes agreeing on the exponents so far
    share a mask, and exponent e of place value 7^a shifts it by e 7^a
    bits. A step has at most 7 values (a coset of a group of order 7),
    so it costs at most 49 combines.
    """
    masks = {start: 1}
    for a, row in enumerate(powers):
        step, grown = 7**a, {}
        for v, m in masks.items():
            for e, x in enumerate(row):
                w = combine(v, x)
                grown[w] = grown.get(w, 0) | m << e * step
        masks = grown
    return masks


def _char_masks(table: LocalCharacterTable, start: int) -> dict:
    """`_class_masks` of the characters chi_Q(eps) + start at one prime:
    the table's own masks, relabelled."""
    return {(v + start) % 7: m for v, m in table.masks.items()}


def _survivor_bits(masks, targets) -> int:
    """Classes whose values match some target tuple at every prime: the
    OR over the tuples of the AND over primes k of masks[k][t_k]. An
    entry None (the pair lies in that prime) imposes nothing there."""
    bits = 0
    for t in targets:
        acc = _ALL_CLASSES
        for m, v in zip(masks, t):
            if v is not None:
                acc &= m.get(v, 0)
        bits |= acc
        if bits == _ALL_CLASSES:
            break
    return bits


def _char_targets(tables, constraint: SieveConstraint) -> set:
    """The tuples (chi_Q(a + b zeta))_Q, one entry per table, of the
    admissible pairs. Unconstrained, every pair with b != 0 is
    b (c + zeta), so the set is each line tuple (chi_Q(c + zeta))_Q
    shifted by each scalar tuple (chi_Q(b))_Q, together with the scalar
    tuples themselves (the pairs (a, 0)): there are at most 7 scalar
    tuples, one per class of F_q^*/(F_q^*)^7. Other modes go pair by pair."""
    if constraint.mode != "unconstrained":
        return {
            tuple(_pair_char(t, a, b) for t in tables) for a, b in admissible_pairs(constraint)
        }
    scalars = {tuple(t.scalar_chars[b] for t in tables) for b in range(1, constraint.q)}
    return scalars | {
        tuple(None if c is None else (s + c) % 7 for s, c in zip(scalar, line))
        for line in zip(*(t.line_chars for t in tables))
        for scalar in scalars
    }


def _local_survivors(constraint: SieveConstraint, delta: int) -> int:
    """Survivor bits of one constraint by characters: chi_Q(eps) plus
    delta chi_Q(1 - zeta) against chi_Q of each admissible pair."""
    primes = split_prime(get_order("Zzeta13"), constraint.q)
    tables = [_sieve_character(Q) for Q in primes]
    masks = [_char_masks(t, t.chi_one_minus_zeta if delta else 0) for t in tables]
    return _survivor_bits(masks, _char_targets(tables, constraint))


def _pair_reduction(Q: PrimeIdealData):
    """(a, b) -> the coefficient tuple of a + b zeta reduced at Q, formed
    as a + b zeta_Q on tuples from the one reduction zeta_Q of zeta:
    reduction is a ring homomorphism, at every residue degree."""
    q, one = Q.q, Q.residue_field.one().coeffs
    zeta = reduce_element(get_order("Zzeta13").theta(), Q).coeffs
    return lambda a, b: tuple([(a * u + b * z) % q for u, z in zip(one, zeta)])


def _pair_residues(Q: PrimeIdealData, pairs) -> list:
    """(a + b zeta)^((N-1)/7) reduced at Q for each pair (a, b), in the
    order given, None where the pair lies in Q; one pass over the pairs.

    With d the order of q mod 7 and n = f/d, the norm of a + b zeta to
    F_{q^d} is a binary form of degree n in (a, b): for b != 0 it is
    b^n N(a/b + zeta), and N(a) = a^n. So the q line norms N(c + zeta)
    are taken once, each pair's norm is one scalar times one of them,
    and `_seventh_powers(Q)` raises it to (q^d-1)/7 once per distinct
    norm. Every pair still gets its own exact residue: no dlog,
    character or split of values into a scalar and a line part.
    """
    seventh, F, q = _seventh_powers(Q), Q.residue_field, Q.q
    d, n, power = seventh.d, seventh.n, seventh.power
    line = _pair_reduction(Q)
    one, zero = (1, 0) if d == 1 else (F.one().coeffs, (0,) * F.k)
    lines = [seventh.norm(line(c, 1)) for c in range(q)]
    scalars = [pow(b, n, q) for b in range(q)]
    inverses = [0] + [pow(b, -1, q) for b in range(1, q)]
    out = []
    for a, b in pairs:
        y, s = (lines[a * inverses[b] % q], scalars[b]) if b else (one, scalars[a])
        if y == zero:
            out.append(None)
        elif d == 1:
            out.append(power(s * y % q))
        else:
            out.append(power(tuple([s * u % q for u in y])))
    return out


@lru_cache(maxsize=None)
def _exhaustive_residues(constraint: SieveConstraint):
    """What the oracle needs of one constraint in either descent case:
    per prime above q its residue field's product, the masks of the
    values of eps^((N-1)/7) and the value of (1 - zeta)^((N-1)/7), from
    `_seventh_powers`; and the admissible pairs' residue tuples, one
    prime at a time (`_pair_residues`). Memoized per constraint; the
    descent cases share it.

    Every value multiplied here, and at delta = 1 in
    `_local_survivors_exhaustive`, is an exact residue x^((N-1)/7), so
    it lies in mu_7: the product is memoised on its exact coefficient
    tuples, at most 49 distinct products per prime."""
    pairs = list(admissible_pairs(constraint))
    local, columns = [], []
    for Q in split_prime(get_order("Zzeta13"), constraint.q):
        seventh, F = _seventh_powers(Q), Q.residue_field
        mul, one = lru_cache(maxsize=None)(F.mul_kernel()), F.one().coeffs
        rows = []
        for base in seventh.units:
            row = [one]
            for _ in range(6):
                row.append(mul(row[-1], base))
            rows.append(row)
        local.append((mul, _class_masks(rows, one, mul), seventh.one_minus_zeta))
        columns.append(_pair_residues(Q, pairs))
    return tuple(local), frozenset(zip(*columns))


def _local_survivors_exhaustive(constraint: SieveConstraint, delta: int) -> int:
    """Survivor bits of one constraint by residues: (eps (1 - zeta)^delta)
    to the (N-1)/7 against the same power of each admissible pair. At
    delta = 1 each value of eps^((N-1)/7) is multiplied by that of 1 - zeta."""
    local, targets = _exhaustive_residues(constraint)
    masks = [
        {mul(v, s): m for v, m in by_value.items()} if delta else by_value
        for mul, by_value, s in local
    ]
    return _survivor_bits(masks, targets)


def _sieve_bits(descent_case: str, constraints, local) -> int:
    if descent_case not in _DESCENT_CASES:
        raise ValueError(f"descent_case must be one of {_DESCENT_CASES}")
    if not constraints:
        raise ValueError("the sieve needs at least one constraint")
    if len({c.q for c in constraints}) != len(constraints):
        raise ValueError("constraint primes must be distinct")
    surv = _ALL_CLASSES
    for c in constraints:
        surv &= local(c, 1 if descent_case == "divisible-13" else 0)
        if not surv:
            break
    return surv


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def class_indices(bits: int) -> list:
    """Indices of the classes in a survivor int, in increasing order: the
    binary digits, least significant first, as 0/1 bytes that select from
    the class indices, all in C loops."""
    flags = f"{bits:0{UNIT_CLASS_COUNT}b}"[::-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def sieve_case_bits(descent_case: str, constraints) -> int:
    """Unit classes surviving every local constraint, bit i for class i.

    descent_case "coprime-13" sieves a + zeta b = eps beta^7;
    "divisible-13" sieves a + zeta b = eps (1 - zeta) beta^7. A class
    survives a prime q when SOME admissible pair satisfies, at EVERY
    prime Q above q where the pair element is a unit, the character
    condition; the result intersects over the constraints.
    """
    return _sieve_bits(descent_case, constraints, _local_survivors)


def sieve_case_exhaustive_bits(descent_case: str, constraints) -> int:
    """Reference implementation of `sieve_case_bits`, kept as its
    independent oracle: it compares exact residues x^((N-1)/7) of every
    pair and unit class, where the character route compares dlogs."""
    return _sieve_bits(descent_case, constraints, _local_survivors_exhaustive)


def sieve_case(descent_case: str, constraints) -> tuple:
    """`sieve_case_bits` as a tuple of UnitClass, in increasing index order."""
    return tuple(map(UnitClass, class_indices(sieve_case_bits(descent_case, constraints))))


def sieve_case_exhaustive(descent_case: str, constraints) -> tuple:
    """`sieve_case_exhaustive_bits` as a tuple of UnitClass, in increasing
    index order. At each prime the oracle forms every pair's subfield norm
    as b^n times a line norm N(a/b + zeta) and takes one power per
    distinct norm."""
    bits = sieve_case_exhaustive_bits(descent_case, constraints)
    return tuple(map(UnitClass, class_indices(bits)))


def generator_independence_rank(primes) -> int:
    """Rank over F_7 of the character matrix [chi_Q(u_a)] with one row
    per supplied prime; rank 5 means the 16807 classes are separated.
    The classes with every character 0 are its kernel, 7^(5 - rank) of them."""
    kernel = _ALL_CLASSES
    for Q in primes:
        kernel &= _sieve_character(Q).masks[0]
    return 5 - [7**j for j in range(6)].index(kernel.bit_count())
