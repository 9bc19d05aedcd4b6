"""The auxiliary-prime elimination engine.

A FreyFamily is a config-driven two-parameter Weierstrass family over an
order, together with an admissibility predicate on auxiliary primes q
and a reduction rule deciding, per residue pair (a, b) mod q, whether
the member curve has good or multiplicative reduction at the primes
above q. The rule is data (mirroring the case split it encodes), but a
runtime cross-check verifies the discriminant reductions agree with it
for every pair processed.

Refined elimination and the unit sieve's modular constraints ask one
local question of a pair, answered by `compatible_pairs`: does a_P of
the member (good reduction), or +-(N(P) + 1) (multiplicative), lie in
a given residue set mod ell at every prime P above q?

Family config (JSON)::

    {
      "label": str,
      "order": order label,
      "coefficients": {"a1": rows, "a2": rows, "a3": rows, "a4": rows, "a6": rows},
          # each optional (absent is zero); rows[j][i] = the coordinate
          # vector, at most [K:Q] ints, of the x^i y^j coefficient
      "multiplicative_iff_zero": [[int]],    # nonzero; rows[j][i] of x^i y^j
      "admissibility": {                     # optional, as is each key in it
          "excluded_primes": [int],
          "residue_conditions": [{"mod": int >= 1, "forbidden": [int]}]
      },
      "consistency": {"curve": path, "specialization": [a, b]}   # optional
    }

The consistency curve path is relative to the family file, and
`load_family` checks that the member at (a, b) has that curve's
j-invariant. A slot for data not distributed with the toolkit is
`{"label": str, "status": "external", ...}`: loading it raises
ExternalDataSlotError before any other key is read. Every int is a
JSON integer, never `true` or `false`; the shape checks are those of
`jsonfile`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd
from operator import mul
from pathlib import Path

from .curves import (EllipticCurveNF, _b_invariants, _order_ring, _reduced_trace, ec_reduction_type,
                     ec_trace, load_curve, same_j_invariant)
from .exactarith import BiPoly, UniPoly, factorize, is_prime, poly_norm
from .jsonfile import array, fail, fields, int_lists, integer, one_of, read_json, string
from .newformdata import (
    MissingEigenvalueError,
    NewformPacket,
    primes_above_in_Qf,
    reduce_eigenvalue,
)
from .numberfield import (
    Frozen,
    NumberFieldOrder,
    get_order,
    known_orders,
    reduce_element,
    split_prime,
)

__all__ = [
    "FreyFamily",
    "FamilyConfigError",
    "ExternalDataSlotError",
    "StandardVerdict",
    "RefinedVerdict",
    "load_family",
    "family_from_dict",
    "residue_pairs",
    "Bq",
    "Aq",
    "standard_eliminate",
    "refined_eliminate",
    "compatible_pairs",
    "ALL_PRIMES",
]

ALL_PRIMES = "all"


class FamilyConfigError(ValueError):
    """The family config contradicts itself at runtime."""


class ExternalDataSlotError(FamilyConfigError):
    """The family config is a slot for data not distributed with the toolkit."""


_COEFF_NAMES = ("a1", "a2", "a3", "a4", "a6")


class FreyFamily(Frozen):
    def __init__(self, label: str, order: NumberFieldOrder, coeffs: tuple,
                 mult_rule: BiPoly, excluded_primes: tuple, residue_conditions: tuple):
        # coeffs: 5-tuple (one per Weierstrass slot) of per-basis BiPoly tuples;
        # residue_conditions: of (modulus, forbidden residue tuple)
        self._set(label=label, order=order, coeffs=coeffs, mult_rule=mult_rule,
                  excluded_primes=excluded_primes, residue_conditions=residue_conditions)

    def _fields(self):
        return (self.label, self.order, self.coeffs, self.mult_rule,
                self.excluded_primes, self.residue_conditions)

    def is_admissible(self, q: int) -> bool:
        if not is_prime(q) or q in self.excluded_primes:
            return False
        return all(q % m not in forb for m, forb in self.residue_conditions)

    def primes_above(self, q: int):
        """The primes of the order above q, after checking q is admissible."""
        if not self.is_admissible(q):
            raise ValueError(f"auxiliary prime {q} is not admissible for {self.label}")
        return split_prime(self.order, q)

    def specialize(self, a: int, b: int) -> EllipticCurveNF:
        vals = {}
        for name, per_basis in zip(_COEFF_NAMES, self.coeffs):
            vals[name] = self.order.element([bp(a, b) for bp in per_basis])
        return EllipticCurveNF(**vals)

    def reduction_case(self, q: int, a: int, b: int) -> str:
        return "multiplicative" if self.mult_rule(a, b) % q == 0 else "good"


def family_from_dict(data: dict) -> FreyFamily:
    E = FamilyConfigError
    (status,) = fields(data, "family", E, (), {"status": None})
    if status == "external":
        raise ExternalDataSlotError(
            f"family {data.get('label')!r} is an external-data slot; its "
            "coefficient polynomials are not distributed with this toolkit"
        )
    label, order_label, coeffs_in, rule_in, adm = fields(
        data, "family", E, ("label", "order", "coefficients", "multiplicative_iff_zero"),
        {"admissibility": {}},
    )
    string(label, "label", E)
    order = get_order(one_of(order_label, "order", E, known_orders()))
    n = order.degree
    coeffs = fields(coeffs_in, "coefficients", E, (), dict.fromkeys(_COEFF_NAMES, []))
    for name in coeffs_in:
        one_of(name, "coefficients", E, _COEFF_NAMES)
    per_name = []
    for name, rows in zip(_COEFF_NAMES, coeffs):
        int_lists(rows, f"coefficients.{name}", E, 3, n)
        # rows[j][i] = coordinate vector; split into one BiPoly per coordinate
        per_name.append(tuple(
            BiPoly.from_nested([[vec[m] if m < len(vec) else 0 for vec in row] for row in rows])
            for m in range(n)
        ))
    rule = BiPoly.from_nested(int_lists(rule_in, "multiplicative_iff_zero", E, 2))
    if rule.is_zero:
        raise fail(E, "multiplicative_iff_zero", "a nonzero bivariate polynomial", rule_in)
    excluded, conds_in = fields(
        adm, "admissibility", E, (), {"excluded_primes": [], "residue_conditions": []}
    )
    int_lists(excluded, "admissibility.excluded_primes", E)
    conds = []
    for i, c in enumerate(array(conds_in, "admissibility.residue_conditions", E)):
        pos = f"admissibility.residue_conditions[{i}]"
        mod, forbidden = fields(c, pos, E, ("mod", "forbidden"))
        integer(mod, f"{pos}.mod", E, lo=1)
        conds.append((mod, tuple(int_lists(forbidden, f"{pos}.forbidden", E))))
    return FreyFamily(
        label=label,
        order=order,
        coeffs=tuple(per_name),
        mult_rule=rule,
        excluded_primes=tuple(excluded),
        residue_conditions=tuple(conds),
    )


def load_family(path) -> FreyFamily:
    """Load a family config; if it names a consistency fixture, check that
    the stated specialization matches the fixture curve's j-invariant and
    its Frobenius traces at every prime of norm at most 100 where both
    models have good reduction. Equal j leaves a quadratic twist open (a
    twist by d negates a_P where d is not a square mod P); the traces are
    a finite check, which a twist by d square at every such P still passes."""
    fam, cons = read_json(
        path,
        lambda data: (family_from_dict(data), _consistency_block(data.get("consistency"))),
        FamilyConfigError,
    )
    if cons:
        name, (a, b) = cons
        try:
            member = fam.specialize(a, b)
        except ValueError as e:
            raise FamilyConfigError(f"{path}: consistency.specialization: {e}") from None
        rel = Path(name)
        try:
            curve = load_curve(rel if rel.is_absolute() else (Path(path).parent / rel))
        except (OSError, ValueError) as e:
            raise FamilyConfigError(f"{path}: consistency.curve: {e}") from None
        if not isinstance(curve, EllipticCurveNF) or curve.order != fam.order:
            raise FamilyConfigError(f"{path}: consistency.curve: expected a Weierstrass "
                                    f"model over {fam.order.label}")
        if not same_j_invariant(member, curve):
            raise FamilyConfigError(
                f"{path}: the specialization at ({a}, {b}) does not match the "
                f"consistency fixture {name} (j-invariants differ)"
            )
        good = (P for q in filter(is_prime, range(2, 101))
                for P in split_prime(fam.order, q) if P.norm <= 100
                and ec_reduction_type(member, P) == ec_reduction_type(curve, P) == "good")
        bad = next((P.key for P in good if ec_trace(member, P) != ec_trace(curve, P)), None)
        if bad:
            raise FamilyConfigError(f"{path}: the specialization at ({a}, {b}) is a twist of "
                                    f"the consistency fixture {name} (traces differ at {bad})")
    return fam


def _consistency_block(cons):
    """(curve path, (a, b)) of a family's consistency block, or None."""
    if cons is None:
        return None
    E = FamilyConfigError
    name, spec = fields(cons, "consistency", E, ("curve", "specialization"))
    string(name, "consistency.curve", E)
    if len(int_lists(spec, "consistency.specialization", E)) != 2:
        raise fail(E, "consistency.specialization", "two integers [a, b]", spec)
    return name, tuple(spec)


def residue_pairs(q: int):
    """All (a, b) in F_q x F_q except (0, 0)."""
    return [(a, b) for a in range(q) for b in range(q) if a or b]


class _LocalData:
    """Per-(family, q) cache: classification and traces for every pair."""

    def __init__(self, primes: tuple, cases: dict, traces: dict, rows: dict):
        self.primes = primes
        self.cases = cases  # pair -> "good" | "multiplicative"
        self.traces = traces  # pair -> {prime key -> trace}, good pairs only
        self.rows = rows  # trace tuple, in prime order -> number of good pairs with it


@lru_cache(maxsize=None)
def _local_data(family: FreyFamily, q: int) -> _LocalData:
    """Reduction is a ring homomorphism, so a pair's model mod P has
    coefficients sum_i bp_i(a, b) red(w_i), red(w_i) the image of the
    order's basis in F_P, taken once per prime; a good pair's discriminant
    and trace come from those tuples (`curves._reduced_trace`), counted
    once per distinct tuple at each prime. A pair the rule calls
    multiplicative (about q of them) takes its exact Delta over the order
    (`curves._b_invariants`), so a singular member still raises, then its
    images; no member curve is built. An inadmissible q raises first
    (and, raising, is never cached)."""
    order, primes = family.order, tuple(family.primes_above(q))
    basis = [order.element([0] * i + [1]) for i in range(order.degree)]
    # per prime, column j lists component j of the images of the basis
    images = [list(zip(*(reduce_element(w, P).coeffs for w in basis))) for P in primes]
    ring = _order_ring(order)
    counted = [{} for _ in primes]  # per prime: reduced model -> its trace
    cases = {}
    traces = {}
    for pair in residue_pairs(q):
        case = cases[pair] = family.reduction_case(q, *pair)
        values = [[bp(*pair) for bp in per_basis] for per_basis in family.coeffs]
        if case == "multiplicative":
            disc = _b_invariants(values, *ring)[3]
            if not any(disc):
                raise ValueError("singular Weierstrass model (discriminant is zero)")
            for P, red in zip(primes, images):
                if any(sum(map(mul, disc, col)) % q for col in red):
                    raise FamilyConfigError(
                        f"family {family.label}: rule says multiplicative at q={q}, "
                        f"pair {pair}, but the discriminant is a unit at {P.key}"
                    )
            continue
        row = traces[pair] = {}
        for P, red, memo in zip(primes, images, counted):
            a = tuple(tuple([sum(map(mul, vs, col)) % q for col in red]) for vs in values)
            t = memo.get(a)
            if t is None:
                t = _reduced_trace(a, P.residue_field)
                if t is None:
                    raise FamilyConfigError(
                        f"family {family.label}: rule says good at q={q}, "
                        f"pair {pair}, but the discriminant vanishes at {P.key}"
                    )
                memo[a] = t
            row[P.key] = t
    rows = Counter(tuple(row.values()) for row in traces.values())
    return _LocalData(primes=primes, cases=cases, traces=traces, rows=rows)


def compatible_pairs(family: FreyFamily, q: int, ell: int, allowed: dict):
    """Residue pairs (a, b) mod q, in `residue_pairs` order, that fit
    `allowed` (prime key -> residues mod ell) at every prime P above q:
    a good pair when its trace a_P is allowed, a multiplicative pair
    when N(P) + 1 or -(N(P) + 1) is (the level-raising congruence).

    Admissibility and the keys of `allowed` are checked on the call,
    before the local data are built; the pairs are yielded lazily."""
    primes = family.primes_above(q)
    for P in primes:
        if P.key not in allowed:
            raise ValueError(f"q={q}: no allowed residues mod {ell} at {P.key}")
    sets = [allowed[P.key] for P in primes]
    level_raising = all(
        (P.norm + 1) % ell in s or -(P.norm + 1) % ell in s for P, s in zip(primes, sets)
    )
    data = _local_data(family, q)
    return (
        pair
        for pair, case in data.cases.items()
        if (
            level_raising
            if case == "multiplicative"
            else all(t % ell in s for t, s in zip(data.traces[pair].values(), sets))
        )
    )


def _check_base_field(packet: NewformPacket, family: FreyFamily) -> None:
    """Refuse a packet whose "q.i" keys name the primes of another order."""
    if packet.base_field != family.order.label:
        raise ValueError(f"packet {packet.label}.base_field: {packet.base_field!r} is not "
                         f"the order {family.order.label!r} of family {family.label}")


def _eigen_polys(packet: NewformPacket, family: FreyFamily, q: int) -> list:
    """The packet's eigenvalues at the primes above an admissible q, in prime
    order, after `_check_base_field`; a missing one raises `MissingEigenvalueError`."""
    _check_base_field(packet, family)
    out = []
    for P in family.primes_above(q):
        vec = packet.eigenvalues.get(P.key)
        if vec is None:
            raise MissingEigenvalueError(f"packet {packet.label} has no eigenvalue at {P.key}")
        out.append(UniPoly(vec))
    return out


def _trace_gcd(h: UniPoly, eigs: list, row: tuple, norms: dict) -> int:
    """gcd over the primes P above q of |Norm(a_P(f) - t_P)|, with a_P(f)
    and t = row both in prime order; each norm is kept in `norms` under
    (prime index, t)."""
    g = 0
    for i, t in enumerate(row):
        key = (i, t)
        if key not in norms:
            norms[key] = abs(poly_norm(h, eigs[i] - t))
        g = gcd(g, norms[key])
    return g


def Bq(family: FreyFamily, pair, packet: NewformPacket, q: int) -> int:
    """gcd of Norm(a_P(member) - a_P(f)) over the primes P above q.

    Defined for pairs the reduction rule classifies as good; the gcd of
    an all-zero multiset is 0, meaning the pair gives no information.
    A packet over another order is refused before the local data are
    built; the eigenvalues are looked up after the pair's case.
    """
    _check_base_field(packet, family)
    data = _local_data(family, q)
    if data.cases.get(tuple(pair)) != "good":
        raise ValueError(f"pair {pair} has multiplicative reduction at q={q}")
    eigs = _eigen_polys(packet, family, q)
    return _trace_gcd(packet.coeff_poly, eigs, tuple(data.traces[tuple(pair)].values()), {})


def Aq(packet: NewformPacket, family: FreyFamily, q: int) -> int:
    """q times the product of Bq over good pairs times the level-raising
    norms at the primes above q. Zero propagates: the auxiliary prime
    then carries no elimination power for this packet. The eigenvalues
    are looked up before the local data; each |Norm(a_P(f) - t)| is
    taken once, and each distinct trace row's gcd once, raised to the
    number of its pairs."""
    eigs = _eigen_polys(packet, family, q)
    data = _local_data(family, q)
    h = packet.coeff_poly
    acc, norms = q, {}
    for row, m in data.rows.items():
        acc *= _trace_gcd(h, eigs, row, norms) ** m
    for P, v in zip(data.primes, eigs):
        acc *= abs(poly_norm(h, v * v - (P.norm + 1) ** 2))
    return abs(acc)


class StandardVerdict:
    def __init__(self, label: str, aq: dict, overall_gcd: int, surviving):
        self.label = label
        self.aq = aq  # q -> A_q
        self.overall_gcd = overall_gcd
        self.surviving = surviving  # tuple of primes, or ALL_PRIMES


class RefinedVerdict:
    def __init__(self, label: str, p: int, residue_prime: str, status: str,
                 witness_q: int = 0, reason: str = ""):
        self.label = label
        self.p = p
        self.residue_prime = residue_prime  # "p:idx"
        self.status = status  # "eliminated" | "not-eliminated" | "skipped"
        self.witness_q = witness_q
        self.reason = reason


def standard_eliminate(packet: NewformPacket, family: FreyFamily, q_list) -> StandardVerdict:
    """The packet's A_q for each q, their gcd, and the surviving exponents.

    The gcd of nonzero values is taken; if every A_q is zero the verdict
    is "all primes survive" (the auxiliary primes said nothing).
    """
    q_list = sorted(set(q_list))
    if not q_list:
        raise ValueError("q_list must be nonempty")
    aq = {q: Aq(packet, family, q) for q in q_list}
    g = gcd(*aq.values())
    surviving = ALL_PRIMES if g == 0 else tuple(sorted(factorize(g)))
    return StandardVerdict(label=packet.label, aq=aq, overall_gcd=g, surviving=surviving)


def refined_eliminate(
    packet: NewformPacket,
    family: FreyFamily,
    p: int,
    q_list,
    skip=(),
    skip_ramified: bool = False,
) -> tuple:
    """Refined per-residue-prime elimination: a RefinedVerdict for each
    residue prime above p in the coefficient field, in the order of
    `primes_above_in_Qf`.

    A residue prime of the coefficient field is eliminated when some
    auxiliary q makes the relevant congruence fail, at some prime above
    q, for EVERY residue pair: `compatible_pairs` with ell = p yields
    none. The residue allowed at P is the eigenvalue's image in the
    residue field when that image lies in F_p, and none otherwise; each
    eigenvalue is reduced once per prime above q. Reducible residue
    primes must be supplied in `skip`, by their "p:i" keys (the engine
    never decides reducibility); `skip_ramified` additionally skips
    ramified ones, the standard reduction when the level-lowered
    representation forces an unramified prime.
    """
    q_list = sorted(set(q_list))
    if not q_list:
        raise ValueError("q_list must be nonempty")
    _check_base_field(packet, family)
    skipset = set(skip)
    verdicts = []
    for rp in primes_above_in_Qf(packet, p):
        status, witness, reason = "not-eliminated", 0, ""
        if rp.key in skipset:
            status, reason = "skipped", "listed as reducible"
        elif skip_ramified and rp.e > 1:
            status, reason = "skipped", "ramified in the coefficient field"
        else:
            for q in q_list:
                allowed = {}
                for P in family.primes_above(q):
                    red = reduce_eigenvalue(packet, P.key, rp).coeffs
                    allowed[P.key] = set() if any(red[1:]) else {red[0]}
                if next(compatible_pairs(family, q, p, allowed), None) is None:
                    status, witness = "eliminated", q
                    break
        verdicts.append(
            RefinedVerdict(
                label=packet.label, p=p, residue_prime=rp.key,
                status=status, witness_q=witness, reason=reason,
            )
        )
    return tuple(verdicts)
