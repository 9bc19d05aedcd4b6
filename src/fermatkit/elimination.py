"""The auxiliary-prime elimination engine.

A FreyFamily is a config-driven two-parameter Weierstrass family over an
order, together with an admissibility predicate on auxiliary primes q
and a reduction rule deciding, per residue pair (a, b) mod q, whether
the member curve has good or multiplicative reduction at the primes
above q. The rule is data (mirroring the case split it encodes), but a
runtime cross-check verifies the discriminant reductions agree with it
for every pair processed.

Family config (JSON)::

    {
      "label": str,
      "order": order label,
      "coefficients": {"a1": rows, "a2": rows, "a3": rows, "a4": rows, "a6": rows},
          # rows[j][i] = coordinate vector of the x^i y^j coefficient
      "multiplicative_iff_zero": rows,       # plain integer bivariate
      "admissibility": {
          "excluded_primes": [..],
          "residue_conditions": [{"mod": m, "forbidden": [..]}]
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .curves import EllipticCurveNF, ec_invariants, ec_trace
from .exactarith import BiPoly, UniPoly, is_prime, poly_norm
from .newformdata import (
    MissingEigenvalueError,
    NewformPacket,
    ResiduePrime,
    primes_above_in_Qf,
    reduce_eigenvalue,
)
from .numberfield import NumberFieldOrder, get_order, reduce_element, split_prime

__all__ = [
    "FreyFamily",
    "FamilyConfigError",
    "EliminationReport",
    "StandardVerdict",
    "RefinedVerdict",
    "load_family",
    "family_from_dict",
    "residue_pairs",
    "Bq",
    "Aq",
    "standard_eliminate",
    "refined_eliminate",
    "prime_divisors_of_gcd",
    "ALL_PRIMES",
]

ALL_PRIMES = "all"


class FamilyConfigError(ValueError):
    """The family config contradicts itself at runtime."""


_COEFF_NAMES = ("a1", "a2", "a3", "a4", "a6")


@dataclass(frozen=True)
class FreyFamily:
    label: str
    order: NumberFieldOrder
    coeffs: tuple  # 5-tuple (one per Weierstrass slot) of per-basis BiPoly tuples
    mult_rule: BiPoly
    excluded_primes: tuple
    residue_conditions: tuple  # of (modulus, forbidden residue tuple)

    def is_admissible(self, q: int) -> bool:
        if not is_prime(q) or q in self.excluded_primes:
            return False
        return all(q % m not in forb for m, forb in self.residue_conditions)

    def require_admissible(self, q: int):
        if not self.is_admissible(q):
            raise ValueError(f"auxiliary prime {q} is not admissible for {self.label}")

    def specialize(self, a: int, b: int) -> EllipticCurveNF:
        vals = {}
        for name, per_basis in zip(_COEFF_NAMES, self.coeffs):
            vals[name] = self.order.element([bp(a, b) for bp in per_basis])
        return EllipticCurveNF(**vals)

    def reduction_case(self, q: int, a: int, b: int) -> str:
        return "multiplicative" if self.mult_rule(a, b) % q == 0 else "good"


def _check_nested(value, pos: str, depth: int, width: int = None):
    """Require `depth` levels of lists with integers at the bottom; the
    innermost lists (coordinate vectors) hold at most `width` entries."""
    if not isinstance(value, list):
        raise FamilyConfigError(f"{pos}: expected a list, got {value!r}")
    if depth == 1:
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise FamilyConfigError(f"{pos}: expected a list of integers, got {value!r}")
        if width is not None and len(value) > width:
            raise FamilyConfigError(f"{pos}: more than {width} coordinates")
        return
    for i, v in enumerate(value):
        _check_nested(v, f"{pos}[{i}]", depth - 1, width)


def family_from_dict(data: dict) -> FreyFamily:
    if not isinstance(data, dict):
        raise FamilyConfigError("family config: expected an object")
    if data.get("status") == "external":
        raise FamilyConfigError(
            f"family {data.get('label')!r} is an external-data slot; its "
            "coefficient polynomials are not distributed with this toolkit"
        )
    try:
        label = data["label"]
        order = get_order(data["order"])
        coeffs_in = data["coefficients"]
    except KeyError as e:
        raise FamilyConfigError(f"family config is missing field {e}") from None
    n = order.degree
    if not isinstance(coeffs_in, dict):
        raise FamilyConfigError("coefficients: expected an object")
    per_name = []
    for name in _COEFF_NAMES:
        rows = coeffs_in.get(name, [])
        # rows[j][i] = coordinate vector; split into one BiPoly per coordinate
        _check_nested(rows, f"coefficients.{name}", 3, n)
        basis_polys = []
        for m in range(n):
            bp_rows = []
            for row in rows:
                bp_rows.append([
                    (vec[m] if m < len(vec) else 0) for vec in row
                ])
            basis_polys.append(BiPoly.from_nested(bp_rows))
        per_name.append(tuple(basis_polys))
    rule_in = data.get("multiplicative_iff_zero", [])
    _check_nested(rule_in, "multiplicative_iff_zero", 2)
    rule = BiPoly.from_nested(rule_in)
    if rule.is_zero:
        raise FamilyConfigError(
            "multiplicative_iff_zero must be a nonzero bivariate polynomial"
        )
    adm = data.get("admissibility", {})
    try:
        conds = tuple(
            (int(c["mod"]), tuple(int(v) for v in c["forbidden"]))
            for c in adm.get("residue_conditions", [])
        )
        excluded = tuple(int(q) for q in adm.get("excluded_primes", []))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise FamilyConfigError(
            "admissibility: expected {\"excluded_primes\": [int], "
            "\"residue_conditions\": [{\"mod\": int, \"forbidden\": [int]}]}"
        ) from None
    return FreyFamily(
        label=label,
        order=order,
        coeffs=tuple(per_name),
        mult_rule=rule,
        excluded_primes=excluded,
        residue_conditions=conds,
    )


def load_family(path) -> FreyFamily:
    """Load a family config; if it names a consistency fixture, check that
    the stated specialization matches the fixture curve's j-invariant."""
    from pathlib import Path

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise FamilyConfigError(
                f"{path}: invalid JSON at line {e.lineno} column {e.colno}"
            ) from None
    try:
        fam = family_from_dict(data)
    except FamilyConfigError as e:
        raise FamilyConfigError(f"{path}: {e}") from None
    cons = data.get("consistency")
    if cons:
        from .curves import load_curve, same_j_invariant

        rel = Path(cons["curve"])
        cpath = rel if rel.is_absolute() else (Path(path).parent / rel)
        curve = load_curve(cpath)
        a, b = cons["specialization"]
        if not same_j_invariant(fam.specialize(a, b), curve):
            raise FamilyConfigError(
                f"{path}: the specialization at ({a}, {b}) does not match the "
                f"consistency fixture {cons['curve']} (j-invariants differ)"
            )
    return fam


def residue_pairs(q: int):
    """All (a, b) in F_q x F_q except (0, 0)."""
    return [(a, b) for a in range(q) for b in range(q) if a or b]


@dataclass(frozen=True)
class _LocalData:
    """Per-(family, q) cache: classification and traces for every pair."""

    primes: tuple
    cases: dict  # pair -> "good" | "multiplicative"
    traces: dict  # pair -> {prime key -> trace}, good pairs only


def _family_local_data(family: FreyFamily, q: int) -> _LocalData:
    family.require_admissible(q)
    return _local_data(family, q)


@lru_cache(maxsize=None)
def _local_data(family: FreyFamily, q: int) -> _LocalData:
    primes = tuple(split_prime(family.order, q))
    cases = {}
    traces = {}
    for pair in residue_pairs(q):
        case = family.reduction_case(q, *pair)
        cases[pair] = case
        E = family.specialize(*pair)
        disc = ec_invariants(E)[2]
        if case == "good":
            row = {}
            for P in primes:
                if reduce_element(disc, P).is_zero:
                    raise FamilyConfigError(
                        f"family {family.label}: rule says good at q={q}, "
                        f"pair {pair}, but the discriminant vanishes at {P.key}"
                    )
                row[P.key] = ec_trace(E, P)
            traces[pair] = row
        else:
            for P in primes:
                if not reduce_element(disc, P).is_zero:
                    raise FamilyConfigError(
                        f"family {family.label}: rule says multiplicative at q={q}, "
                        f"pair {pair}, but the discriminant is a unit at {P.key}"
                    )
    return _LocalData(primes=primes, cases=cases, traces=traces)


def _eigen_poly(packet: NewformPacket, key: str) -> UniPoly:
    vec = packet.eigenvalues.get(key)
    if vec is None:
        raise MissingEigenvalueError(f"packet {packet.label} has no eigenvalue at {key}")
    return UniPoly(vec)


def Bq(family: FreyFamily, pair, packet: NewformPacket, q: int) -> int:
    """gcd of Norm(a_P(member) - a_P(f)) over the primes P above q.

    Defined for pairs the reduction rule classifies as good; the gcd of
    an all-zero multiset is 0, meaning the pair gives no information.
    """
    data = _family_local_data(family, q)
    if data.cases.get(tuple(pair)) != "good":
        raise ValueError(f"pair {pair} has multiplicative reduction at q={q}")
    h = packet.coeff_poly
    g = 0
    for P in data.primes:
        t = data.traces[tuple(pair)][P.key]
        diff = _eigen_poly(packet, P.key) - t
        g = gcd(g, abs(poly_norm(h, diff)))
    return g


def Aq(packet: NewformPacket, family: FreyFamily, q: int) -> int:
    """q times the product of Bq over good pairs times the level-raising
    norms at the primes above q. Zero propagates: the auxiliary prime
    then carries no elimination power for this packet."""
    data = _family_local_data(family, q)
    h = packet.coeff_poly
    acc = q
    for pair, case in data.cases.items():
        if case == "good":
            acc *= Bq(family, pair, packet, q)
    for P in data.primes:
        v = _eigen_poly(packet, P.key)
        diff = v * v - (P.norm + 1) ** 2
        acc *= abs(poly_norm(h, diff))
    return abs(acc)


def prime_divisors_of_gcd(g: int, trial_bound: int = 10**6):
    """Prime divisors of g (g > 0), by trial division.

    Auxiliary-prime gcds are small by design; a residual composite
    cofactor beyond the trial bound is a hard error rather than a wrong
    answer.
    """
    out = []
    n = g
    p = 2
    while p <= trial_bound and p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        if is_prime(n):
            out.append(n)
        else:
            raise ValueError(
                f"survivor-set factorization exceeded the trial bound (cofactor {n})"
            )
    return tuple(out)


@dataclass(frozen=True)
class StandardVerdict:
    label: str
    aq: dict  # q -> A_q
    overall_gcd: int
    surviving: object  # tuple of primes, or ALL_PRIMES


@dataclass(frozen=True)
class RefinedVerdict:
    label: str
    p: int
    residue_prime: str  # "p:idx"
    status: str  # "eliminated" | "not-eliminated" | "skipped"
    witness_q: int = 0
    reason: str = ""


@dataclass(frozen=True)
class EliminationReport:
    standard: tuple = ()
    refined: tuple = ()

    def as_dict(self):
        return {
            "standard": [
                {
                    "label": r.label,
                    "aq": {str(q): v for q, v in sorted(r.aq.items())},
                    "gcd": r.overall_gcd,
                    "surviving": (
                        "all" if r.surviving == ALL_PRIMES else list(r.surviving)
                    ),
                }
                for r in self.standard
            ],
            "refined": [
                {
                    "label": r.label,
                    "p": r.p,
                    "residue_prime": r.residue_prime,
                    "status": r.status,
                    "witness_q": r.witness_q,
                    "reason": r.reason,
                }
                for r in self.refined
            ],
        }


def standard_eliminate(packets, family: FreyFamily, q_list) -> EliminationReport:
    """Per packet: A_q for each q, their gcd, and the surviving exponents.

    The gcd of nonzero values is taken; if every A_q is zero the verdict
    is "all primes survive" (the auxiliary primes said nothing).
    """
    q_list = sorted(set(q_list))
    if not q_list:
        raise ValueError("q_list must be nonempty")
    rows = []
    for packet in sorted(packets, key=lambda p: p.label):
        aq = {q: Aq(packet, family, q) for q in q_list}
        g = 0
        for v in aq.values():
            g = gcd(g, v)
        surviving = ALL_PRIMES if g == 0 else prime_divisors_of_gcd(g)
        rows.append(
            StandardVerdict(label=packet.label, aq=aq, overall_gcd=g, surviving=surviving)
        )
    return EliminationReport(standard=tuple(rows))


def _pair_congruence_holds(packet, rp: ResiduePrime, data: _LocalData, pair, case) -> bool:
    """Does the pair satisfy the relevant trace congruence at EVERY prime
    above q? Good pairs use the Frobenius congruence, multiplicative
    pairs the level-raising one (either sign, per prime)."""
    for P in data.primes:
        red = reduce_eigenvalue(packet, P.key, rp)
        if case == "good":
            want = rp.field.from_int(data.traces[pair][P.key])
            if red != want:
                return False
        else:
            plus = rp.field.from_int(P.norm + 1)
            if red != plus and red != -plus:
                return False
    return True


def refined_eliminate(
    packet: NewformPacket,
    family: FreyFamily,
    p: int,
    q_list,
    skip=(),
    skip_ramified: bool = False,
) -> EliminationReport:
    """Refined per-residue-prime elimination.

    A residue prime of the coefficient field is eliminated when some
    auxiliary q makes the relevant congruence fail, at some prime above
    q, for EVERY residue pair. Reducible residue primes must be supplied
    in `skip` (the engine never decides reducibility); `skip_ramified`
    additionally skips ramified ones, the standard reduction when the
    level-lowered representation forces an unramified prime.
    """
    q_list = sorted(set(q_list))
    if not q_list:
        raise ValueError("q_list must be nonempty")
    skipset = {s.key if isinstance(s, ResiduePrime) else str(s) for s in skip}
    verdicts = []
    for rp in primes_above_in_Qf(packet, p):
        if rp.key in skipset:
            verdicts.append(
                RefinedVerdict(
                    label=packet.label, p=p, residue_prime=rp.key,
                    status="skipped", reason="listed as reducible",
                )
            )
            continue
        if skip_ramified and rp.e > 1:
            verdicts.append(
                RefinedVerdict(
                    label=packet.label, p=p, residue_prime=rp.key,
                    status="skipped", reason="ramified in the coefficient field",
                )
            )
            continue
        witness = 0
        for q in q_list:
            data = _family_local_data(family, q)
            some_pair_survives = False
            for pair, case in data.cases.items():
                if _pair_congruence_holds(packet, rp, data, pair, case):
                    some_pair_survives = True
                    break
            if not some_pair_survives:
                witness = q
                break
        if witness:
            verdicts.append(
                RefinedVerdict(
                    label=packet.label, p=p, residue_prime=rp.key,
                    status="eliminated", witness_q=witness,
                )
            )
        else:
            verdicts.append(
                RefinedVerdict(
                    label=packet.label, p=p, residue_prime=rp.key,
                    status="not-eliminated",
                )
            )
    return EliminationReport(refined=tuple(verdicts))
