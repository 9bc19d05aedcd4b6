"""Descent-plus-modular unit sieve over Z[zeta_13].

Unit classes are exponent vectors in (Z/7)^5 over the cyclotomic-unit
generators u_a = 1 + zeta + ... + zeta^(a-1), a = 2..6 (16807 classes in
all). At a prime Q above q with 7 dividing the residue-field group
order, the 7th-power residue character turns the descent equation into
one linear condition per prime on the exponent vector; survivors of a
constraint are unions of affine subspaces, intersected across primes.

Two independent routes compute survivor sets: the production route
enumerates affine solution sets by linear algebra mod 7, the reference
route walks all 16807 classes comparing 7th-power residues directly.
Their agreement is an acceptance criterion.

The production route never exponentiates a pair element. The character
is multiplicative and a + b zeta = b (a/b + zeta), so every pair value
is chi(b) + chi(a/b + zeta): q "line" values chi(c + zeta) per prime Q,
plus a character of F_q^* that vanishes unless 7 | q - 1 and is
otherwise read off one primitive root. That is about q exponentiations
in the residue field per prime instead of one per pair (q^2 - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

from .elimination import FreyFamily, _family_local_data
from .exactarith import FFElement, factorize
from .numberfield import (
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
    "sieve_case",
    "sieve_case_exhaustive",
    "generator_independence_rank",
    "modular_targets_from_curve",
]

UNIT_CLASS_COUNT = 7**5  # 16807
_DESCENT_CASES = ("coprime-13", "divisible-13")


@dataclass(frozen=True)
class UnitClass:
    """Exponent vector e in (Z/7)^5 over the generators u_2..u_6."""

    exps: tuple

    def __post_init__(self):
        if len(self.exps) != 5 or not all(0 <= e < 7 for e in self.exps):
            raise ValueError("a unit class is five exponents in [0, 7)")

    @property
    def index(self) -> int:
        acc = 0
        for e in reversed(self.exps):
            acc = acc * 7 + e
        return acc

    @classmethod
    def from_index(cls, n: int) -> "UnitClass":
        exps = []
        for _ in range(5):
            exps.append(n % 7)
            n //= 7
        return cls(exps=tuple(exps))

    def unit(self):
        """The actual unit of Z[zeta_13] this class represents."""
        gens = cyclotomic_unit_generators()
        acc = get_order("Zzeta13").one()
        for g, e in zip(gens, self.exps):
            acc = acc * g**e
        return acc


@dataclass(frozen=True)
class LocalCharacterTable:
    """7th-power residue characters at a prime Q of Z[zeta_13].

    omega is the fixed primitive 7th root: the (N-1)/7 power of the
    first multiplicative generator in the frozen element enumeration
    order, so survivor sets are byte-identical across runs.
    """

    prime: PrimeIdealData
    exponent: int  # (N - 1) // 7
    omega: FFElement
    dlog: dict = field(compare=False, repr=False)  # omega^k -> k
    unit_chars: tuple  # chi(u_a), a = 2..6
    chi_one_minus_zeta: object  # int, or None above 13

    @property
    def q(self) -> int:
        return self.prime.q

    @cached_property
    def line_chars(self) -> tuple:
        """chi(c + zeta) for c = 0..q-1, None where c + zeta lies in Q."""
        return tuple(char_value(self, _pair_element(c, 1)) for c in range(self.q))

    @cached_property
    def scalar_chars(self) -> tuple:
        """chi(b) for b = 0..q-1 (None at 0), a character of F_q^*.

        b^((N-1)/7) is a power of b, so its order divides q - 1 as well
        as 7: the character is 0 unless 7 | q - 1, and otherwise the
        value at one primitive root g gives chi(g^j) = j chi(g).
        """
        q = self.q
        out = [None] + [0] * (q - 1)
        if (q - 1) % 7 == 0:
            g = _primitive_root(q)
            chi_g = char_value(self, get_order("Zzeta13").from_int(g))
            b = 1
            for j in range(q - 1):
                out[b] = j * chi_g % 7
                b = b * g % q
        return tuple(out)


@dataclass(frozen=True)
class SieveConstraint:
    """Local condition at a rational prime q.

    mode "parity-only" (q = 2 only): keeps pairs with a + b odd.
    mode "modular": keeps pairs whose member-curve trace data is
        compatible with the target Euler residues mod 7; needs `family`
        (the Frey family) and `targets` (prime key of the family's base
        field -> frozenset of residues mod 7, both reductions of the
        unordered RM pair).
    mode "unconstrained": all q^2 - 1 pairs.
    """

    q: int
    mode: str
    family: FreyFamily = None
    targets: tuple = None  # sorted tuple of (prime key, frozenset)

    def __post_init__(self):
        if self.q == 13:
            raise ValueError("the ramified prime 13 cannot constrain the sieve")
        if self.mode not in ("parity-only", "modular", "unconstrained"):
            raise ValueError(f"unknown sieve mode {self.mode!r}")
        if self.mode == "parity-only" and self.q != 2:
            raise ValueError("parity-only is valid only at q = 2")

    def targets_dict(self):
        return dict(self.targets) if self.targets else {}


# ---------------------------------------------------------------------------
# characters


def _primitive_root(q: int) -> int:
    """Least generator of (Z/q)^* for an odd prime q."""
    factors = factorize(q - 1)
    return next(
        g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1 for r in factors)
    )


def _group_prime_factors(q: int, f: int):
    """Prime factors of q^f - 1 via the cyclotomic factorization: each
    piece Phi_d(q), d | f, is small enough for trial division."""
    pieces = {}
    for d in range(1, f + 1):
        if f % d:
            continue
        val = q**d - 1
        for e, ev in pieces.items():
            if d % e == 0:
                val //= ev
        pieces[d] = val
    primes = set()
    for val in pieces.values():
        primes.update(factorize(val))
    return sorted(primes)


@lru_cache(maxsize=None)
def _lex_least_generator(field) -> FFElement:
    """First multiplicative generator in the frozen enumeration order."""
    n1 = field.order - 1
    prime_factors = _group_prime_factors(field.p, field.k)
    one = field.one()
    g = None
    for idx in range(1, field.order):
        x = field.from_index(idx)
        if x.is_zero:
            continue
        if all(x ** (n1 // r) != one for r in prime_factors):
            g = x
            break
    if g is None:
        raise AssertionError("no generator found; field arithmetic is broken")
    return g


@lru_cache(maxsize=None)
def build_character(Q: PrimeIdealData) -> LocalCharacterTable:
    """Character table at Q, memoized per prime; requires 7 | N(Q) - 1."""
    n1 = Q.norm - 1
    if n1 % 7:
        raise ValueError(
            f"7 does not divide the residue group order at {Q.key} (N = {Q.norm})"
        )
    exponent = n1 // 7
    g = _lex_least_generator(Q.residue_field)
    omega = g**exponent
    dlog = {}
    acc = Q.residue_field.one()
    for k in range(7):
        dlog[acc] = k
        acc = acc * omega
    unit_chars = tuple(
        _residue_char(reduce_element(u, Q), exponent, dlog)
        for u in cyclotomic_unit_generators()
    )
    order = get_order("Zzeta13")
    red = reduce_element(order.one() - order.theta(), Q)
    chi_omz = None if red.is_zero else _residue_char(red, exponent, dlog)
    return LocalCharacterTable(
        prime=Q,
        exponent=exponent,
        omega=omega,
        dlog=dlog,
        unit_chars=unit_chars,
        chi_one_minus_zeta=chi_omz,
    )


def _residue_char(red: FFElement, exponent: int, dlog: dict) -> int:
    """Discrete log base omega of red^((N-1)/7), for a nonzero residue."""
    k = dlog.get(red**exponent)
    if k is None:
        raise AssertionError("character value outside the order-7 subgroup")
    return k


def char_value(table: LocalCharacterTable, x) -> object:
    """chi_Q(x) in Z/7, or None when x reduces to zero at Q (the prime
    then imposes no condition; the 7th-power content is absorbed by the
    ideal equation)."""
    red = reduce_element(x, table.prime)
    if red.is_zero:
        return None
    return _residue_char(red, table.exponent, table.dlog)


# ---------------------------------------------------------------------------
# admissible residue pairs


def _all_pairs(q: int):
    return {(a, b) for a in range(q) for b in range(q) if a or b}


def admissible_pairs(constraint: SieveConstraint):
    """Residue pairs (a, b) mod q surviving the local constraint."""
    q = constraint.q
    if constraint.mode == "parity-only":
        return {(0, 1), (1, 0)}
    if constraint.mode == "unconstrained":
        return _all_pairs(q)
    # modular
    family = constraint.family
    targets = constraint.targets_dict()
    if family is None or not targets:
        raise ValueError(
            f"modular constraint at q={q} needs the Frey family and Euler targets"
        )
    data = _family_local_data(family, q)
    for P in data.primes:
        if P.key not in targets:
            raise ValueError(f"modular constraint at q={q}: no target for {P.key}")
    out = set()
    for pair in _all_pairs(q):
        case = data.cases[pair]
        if case == "good":
            ok = all(
                data.traces[pair][P.key] % 7 in targets[P.key] for P in data.primes
            )
        else:
            ok = all(
                targets[P.key] & {(P.norm + 1) % 7, (-(P.norm + 1)) % 7}
                for P in data.primes
            )
        if ok:
            out.add(pair)
    return out


def modular_targets_from_curve(curve, q: int):
    """Target residue sets mod 7 from a genus-2 curve's RM-split Euler
    factors at the primes above q, in the SieveConstraint format."""
    from .curves import g2_euler_factor, g2_rm_split, rm_residues_mod_p7

    out = []
    for P in split_prime(curve.order, q):
        res = rm_residues_mod_p7(g2_rm_split(g2_euler_factor(curve, P)))
        out.append((P.key, frozenset(res)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the sieve


def _pair_element(a: int, b: int):
    return get_order("Zzeta13").element([a, b])


def _pair_char(table: LocalCharacterTable, a: int, b: int) -> object:
    """chi_Q(a + b zeta) from the table's line and scalar values: for
    b != 0, a + b zeta = b (a/b + zeta) and b is a unit at Q."""
    if b == 0:
        return table.scalar_chars[a]
    q = table.q
    line = table.line_chars[a * pow(b, -1, q) % q]
    return None if line is None else (table.scalar_chars[b] + line) % 7


def _row_reduce(m, ncol: int) -> list:
    """Gauss-Jordan over F_7 on the first ncol columns of the rows m, in
    place; returns the pivot columns, whose rows now lead m."""
    pivots = []
    for col in range(ncol):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][col] % 7), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][col], 5, 7)  # inverse mod 7
        m[r] = [(v * inv) % 7 for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] % 7:
                f = m[i][col]
                m[i] = [(a - f * b) % 7 for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def _affine_solutions(rows, vals):
    """Solution indices of the system rows . e = vals over F_7, e in
    (Z/7)^5; index encoding is base 7, first generator least significant."""
    m = [list(r) + [v] for r, v in zip(rows, vals)]
    pivots = _row_reduce(m, 5)
    if any(row[5] % 7 for row in m[len(pivots):]):
        return set()  # inconsistent
    free = [c for c in range(5) if c not in pivots]
    bound = [(col, row[5], [row[fc] for fc in free]) for row, col in zip(m, pivots)]
    out = set()
    e = [0] * 5
    for assign in product(range(7), repeat=len(free)):
        for fc, v in zip(free, assign):
            e[fc] = v
        for col, val, coeffs in bound:
            e[col] = (val - sum(map(int.__mul__, coeffs, assign))) % 7
        out.add(e[0] + 7 * (e[1] + 7 * (e[2] + 7 * (e[3] + 7 * e[4]))))
    return out


def _validate_constraints(constraints):
    if not constraints:
        raise ValueError("the sieve needs at least one constraint")
    qs = [c.q for c in constraints]
    if len(set(qs)) != len(qs):
        raise ValueError("constraint primes must be distinct")


def _local_survivors(constraint: SieveConstraint, delta: int):
    """Survivor indices of one constraint: union over admissible pairs of
    the affine solution sets of the per-prime character conditions."""
    primes = split_prime(get_order("Zzeta13"), constraint.q)
    tables = [build_character(Q) for Q in primes]
    if delta and any(t.chi_one_minus_zeta is None for t in tables):
        raise AssertionError("chi(1 - zeta) undefined away from 13; broken table")
    rhs_set = set()
    for a, b in admissible_pairs(constraint):
        rhs = []
        for t in tables:
            cv = _pair_char(t, a, b)
            if cv is None:
                rhs.append(None)
            elif delta:
                rhs.append((cv - t.chi_one_minus_zeta) % 7)
            else:
                rhs.append(cv)
        rhs_set.add(tuple(rhs))
    local = set()
    full = set(range(UNIT_CLASS_COUNT))
    for rhs in rhs_set:
        rows = [t.unit_chars for t, r in zip(tables, rhs) if r is not None]
        vals = [r for r in rhs if r is not None]
        if not rows:
            return full  # the pair imposed no condition at any prime
        local |= _affine_solutions(rows, vals)
        if len(local) == UNIT_CLASS_COUNT:
            break
    return local


def sieve_case(descent_case: str, constraints) -> set:
    """Unit classes surviving every local constraint.

    descent_case "coprime-13" sieves a + zeta b = eps beta^7;
    "divisible-13" sieves a + zeta b = eps (1 - zeta) beta^7. A class
    survives a prime q when SOME admissible pair satisfies, at EVERY
    prime Q above q where the pair element is a unit, the linear
    character condition; the result intersects over the constraints.
    """
    if descent_case not in _DESCENT_CASES:
        raise ValueError(f"descent_case must be one of {_DESCENT_CASES}")
    _validate_constraints(constraints)
    delta = 1 if descent_case == "divisible-13" else 0
    surv = None
    for c in constraints:
        local = _local_survivors(c, delta)
        surv = local if surv is None else surv & local
        if not surv:
            break
    return {UnitClass.from_index(i) for i in surv}


def _class_tables(Q: PrimeIdealData, E: int):
    """(mul, lo, hi) at Q for the exhaustive walk, on coefficient tuples:
    mul is the residue field's multiply, lo[e0 + 7 e1] is
    (u_2^e0 u_3^e1)^E and hi[e2 + 7 e3 + 49 e4] is
    (u_4^e2 u_5^e3 u_6^e4)^E, both reduced at Q. Built from the powers
    (reduced u_a)^(eE) by multiplication only."""
    F = Q.residue_field
    mul = F.mul_kernel()
    powers = []
    for g in cyclotomic_unit_generators():
        base = (reduce_element(g, Q) ** E).coeffs
        row = [F.one().coeffs]
        for _ in range(6):
            row.append(mul(row[-1], base))
        powers.append(row)
    p2, p3, p4, p5, p6 = powers
    lo = [mul(x3, x2) for x3 in p3 for x2 in p2]
    hi = [mul(mul(x6, x5), x4) for x6 in p6 for x5 in p5 for x4 in p4]
    return mul, lo, hi


def _class_residues(tables, idx: int) -> tuple:
    """Coefficients of eps^E at each prime for the unit class of index idx
    (base 7, u_2 least significant): one product lo[idx % 49] *
    hi[idx // 49] per prime, for the tables of `_class_tables`."""
    i, j = idx % 49, idx // 49
    return tuple(mul(lo[i], hi[j]) for mul, lo, hi in tables)


def sieve_case_exhaustive(descent_case: str, constraints) -> set:
    """Reference implementation: walk all 16807 classes and compare
    7th-power residues directly (no discrete logs, no linear algebra).

    Kept as the independent oracle for the linear-algebra route. Each
    class costs one field multiply per prime: eps^((N-1)/7) is the
    product of a precomputed (u_2, u_3) part and a (u_4, u_5, u_6) part.
    """
    if descent_case not in _DESCENT_CASES:
        raise ValueError(f"descent_case must be one of {_DESCENT_CASES}")
    _validate_constraints(constraints)
    delta = 1 if descent_case == "divisible-13" else 0
    order = get_order("Zzeta13")
    omz = order.one() - order.theta()
    surv = set(range(UNIT_CLASS_COUNT))
    for c in constraints:
        primes = split_prime(order, c.q)
        for Q in primes:
            if (Q.norm - 1) % 7:
                raise ValueError(f"7 does not divide the residue group order at {Q.key}")
        exps = [(Q.norm - 1) // 7 for Q in primes]
        tables = [_class_tables(Q, E) for Q, E in zip(primes, exps)]
        # target per pair and prime: (a + zeta b)^E * ((1-zeta)^E)^(-delta)
        shifts = [
            (reduce_element(omz, Q) ** E).inverse() if delta else None
            for Q, E in zip(primes, exps)
        ]
        exact_targets = set()
        wildcard_targets = []
        for a, b in admissible_pairs(c):
            elt = _pair_element(a, b)
            tup = []
            for Q, E, shift in zip(primes, exps, shifts):
                red = reduce_element(elt, Q)
                if red.is_zero:
                    tup.append(None)
                    continue
                t = red**E
                if shift is not None:
                    t = t * shift
                tup.append(t.coeffs)
            if None in tup:
                wildcard_targets.append(tuple(tup))
            else:
                exact_targets.add(tuple(tup))
        alive = set()
        for idx in surv:
            tup = _class_residues(tables, idx)
            if tup in exact_targets:
                alive.add(idx)
                continue
            for wt in wildcard_targets:
                if all(w is None or w == m for w, m in zip(wt, tup)):
                    alive.add(idx)
                    break
        surv = alive
        if not surv:
            break
    return {UnitClass.from_index(i) for i in surv}


def generator_independence_rank(primes) -> int:
    """Rank over F_7 of the character matrix [chi_Q(u_a)] with one row
    per supplied prime; rank 5 means the 16807 classes are separated."""
    return len(_row_reduce([list(build_character(Q).unit_chars) for Q in primes], 5))
