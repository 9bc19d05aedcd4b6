"""Ingestion and querying of Hecke eigenvalue packets.

Eigenvalue packets are data, never computed here: newform spaces come
from external computer-algebra systems, and the shipped fixtures carry
only values printed in the source material or derivable from the curves
in this toolkit (the provenance string says which). Checkers reduce
eigenvalues at residue primes of the coefficient field and test the
congruences the elimination arguments rest on.

Packet schema (JSON; a file holds one packet or a list of them)::

    {
      "label": str,                                      # non-empty
      "base_field": order label,
      "level": {"norm": int >= 1, "primes": ["q.i", ...]},  # with multiplicity
      "coeff_poly": [c0, ..., 1],                        # monic h
      "eigenvalues": {"q.i": [v0, ...]},   # optional; at most deg h coords in Z[x]/(h)
      "residue_maps": {"p:factor_idx": [coords]},        # optional
      "provenance": str                                  # optional
    }

Every int is a JSON integer, never `true` or `false`; the shape checks
are those of `jsonfile`.
"""

from __future__ import annotations

from .curves import ec_reduction_type, ec_trace
from .exactarith import (
    FFElement,
    FiniteField,
    UniPoly,
    count_real_roots_where_positive,
    integer_roots,
    is_prime,
    poly_discriminant,
    poly_factor_mod_p,
    real_root_count,
)
from .jsonfile import array, fail, fields, int_lists, integer, one_of, read_json, string
from .numberfield import get_order, known_orders, prime_by_key, split_prime

__all__ = [
    "NewformPacket",
    "ResiduePrime",
    "PacketFormatError",
    "UnsupportedResiduePrimeError",
    "MissingEigenvalueError",
    "load_packets",
    "packet_from_dict",
    "primes_above_in_Qf",
    "reduce_eigenvalue",
    "trace_contradiction_check",
    "packet_from_curve",
]


class PacketFormatError(ValueError):
    """Schema violation, with the offending position in the message."""


class UnsupportedResiduePrimeError(ValueError):
    """p divides the discriminant twice and no explicit maps were given."""


class MissingEigenvalueError(KeyError):
    """A checker needed an eigenvalue the packet does not carry."""

    __str__ = Exception.__str__  # the message itself, not KeyError's quoted repr


class NewformPacket:
    def __init__(self, label: str, base_field: str, level_norm: int, level_primes: tuple,
                 coeff_poly: UniPoly, eigenvalues: dict, residue_maps: dict,
                 provenance: str, warnings: tuple = ()):
        self.label = label
        self.base_field = base_field
        self.level_norm = level_norm
        self.level_primes = level_primes
        self.coeff_poly = coeff_poly
        self.eigenvalues = eigenvalues
        self.residue_maps = residue_maps
        self.provenance = provenance
        self.warnings = warnings

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._fields() == other._fields()

    def _fields(self):
        return (self.label, self.base_field, self.level_norm, self.level_primes,
                self.coeff_poly, self.eigenvalues, self.residue_maps, self.provenance,
                self.warnings)


class ResiduePrime:
    """A prime of the coefficient field above p, with the reduction map."""

    def __init__(self, p: int, index: int, factor: UniPoly, d: int, e: int,
                 field: FiniteField, gen_image: FFElement):
        self.p = p
        self.index = index
        self.factor = factor
        self.d = d
        self.e = e
        self.field = field
        self.gen_image = gen_image

    @property
    def key(self) -> str:
        return f"{self.p}:{self.index}"


def _check_irreducible(h: UniPoly, pos: str):
    """Reject obviously reducible coefficient polynomials.

    Degree <= 3 is decided exactly (squarefree and no rational root);
    larger degrees are accepted when some good reduction is irreducible,
    otherwise flagged with a warning rather than rejected.
    """
    if not h.is_monic:
        raise PacketFormatError(f"{pos}: coeff_poly must be monic")
    n = h.degree
    if n < 1:
        raise PacketFormatError(f"{pos}: coeff_poly must be nonconstant")
    if n == 1:
        return None
    disc = poly_discriminant(h)
    if disc == 0:
        raise PacketFormatError(f"{pos}: coeff_poly is not squarefree")
    roots = integer_roots(h)  # a monic h has only integral rational roots
    if roots:
        r = min(roots, key=lambda r: (abs(r), r < 0))
        raise PacketFormatError(f"{pos}: coeff_poly has the rational root {r}")
    if n <= 3:
        return None
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        if disc % p == 0:
            continue
        fs = poly_factor_mod_p(h, p)
        if len(fs) == 1 and fs[0][1] == 1:
            return None
    return f"could not certify irreducibility of degree-{n} coeff_poly"


def _weil_violation(h: UniPoly, vec, norm: int):
    """True when some real embedding of the eigenvalue exceeds 2*sqrt(N)."""
    if h.degree == 1:
        a = vec[0]
        return a * a > 4 * norm
    v = UniPoly(vec)
    g = v * v - 4 * norm
    return count_real_roots_where_positive(h, g) > 0


def packet_from_dict(data: dict, pos: str = "packet") -> NewformPacket:
    E = PacketFormatError
    label, base, level, cp, ev_in, rm_in, prov = fields(
        data, pos, E, ("label", "base_field", "level", "coeff_poly"),
        {"eigenvalues": {}, "residue_maps": {}, "provenance": ""},
    )
    if not string(label, f"{pos}.label", E):
        raise fail(E, f"{pos}.label", "a non-empty string", label)
    order = get_order(one_of(base, f"{pos}.base_field", E, known_orders()))
    string(prov, f"{pos}.provenance", E)
    warnings = []

    lnorm, lprimes = fields(level, f"{pos}.level", E, ("norm", "primes"))
    integer(lnorm, f"{pos}.level.norm", E, lo=1)
    prod = 1
    for j, key in enumerate(array(lprimes, f"{pos}.level.primes", E)):
        try:
            P = prime_by_key(order, key)
        except ValueError as e:
            raise E(f"{pos}.level.primes[{j}]: {e}") from None
        prod *= P.norm
    if prod != lnorm:
        raise E(f"{pos}.level: norm {lnorm} does not match the prime list (product {prod})")

    h = UniPoly(int_lists(cp, f"{pos}.coeff_poly", E))
    w = _check_irreducible(h, f"{pos}.coeff_poly")
    if w:
        warnings.append(w)

    fields(ev_in, f"{pos}.eigenvalues", E)
    all_real = real_root_count(h) == h.degree
    n = max(h.degree, 1)
    eigenvalues = {}
    for key, vec in ev_in.items():
        try:
            P = prime_by_key(order, key)
        except ValueError as e:
            raise E(f"{pos}.eigenvalues[{key!r}]: {e}") from None
        vec = int_lists(vec, f"{pos}.eigenvalues[{key!r}]", E, width=n)
        vec = vec + [0] * (n - len(vec))
        if all_real and _weil_violation(h, vec, P.norm):
            raise E(f"{pos}.eigenvalues[{key!r}]: Weil bound violated at norm {P.norm}")
        eigenvalues[key] = tuple(vec)
    if not eigenvalues:
        warnings.append("empty eigenvalue table; no checks possible")

    fields(rm_in, f"{pos}.residue_maps", E)
    residue_maps = {}
    for key, vec in rm_in.items():
        parts = key.split(":")
        if len(parts) != 2 or not all(s.isdigit() for s in parts):
            raise E(f"{pos}.residue_maps[{key!r}]: malformed key")
        residue_maps[key] = tuple(int_lists(vec, f"{pos}.residue_maps[{key!r}]", E))

    return NewformPacket(
        label=label,
        base_field=base,
        level_norm=lnorm,
        level_primes=tuple(lprimes),
        coeff_poly=h,
        eigenvalues=eigenvalues,
        residue_maps=residue_maps,
        provenance=prov,
        warnings=tuple(warnings),
    )


def load_packets(path) -> list:
    """Load and validate a packet file (a list or a single packet)."""
    return read_json(path, _packets_from_json, PacketFormatError)


def _packets_from_json(data) -> list:
    if isinstance(data, dict):
        return [packet_from_dict(data)]
    if not isinstance(data, list):
        raise fail(PacketFormatError, "packets", "a packet or a list of packets", data)
    return [packet_from_dict(d, pos=f"packets[{i}]") for i, d in enumerate(data)]


# ---------------------------------------------------------------------------
# residue primes of the coefficient field


def primes_above_in_Qf(packet: NewformPacket, p: int):
    """Primes above p in the coefficient field, via factoring h mod p.

    When p^2 divides disc(h) the naive splitting may be wrong (p could
    divide the index of Z[x]/(h) in the maximal order). In that case the
    packet must carry explicit residue maps asserting the splitting;
    otherwise this refuses rather than risking a silent mis-split.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    h = packet.coeff_poly
    factors = poly_factor_mod_p(h, p)
    risky = h.degree > 1 and poly_discriminant(h) % (p * p) == 0
    if risky:
        needed = [f"{p}:{i}" for i in range(len(factors))]
        if not all(k in packet.residue_maps for k in needed):
            raise UnsupportedResiduePrimeError(
                f"p={p} may divide the index in the coefficient field of "
                f"{packet.label}; explicit residue_maps {needed} are required"
            )
    out = []
    for i, (g, mult) in enumerate(factors):
        f = FiniteField(p, g)
        key = f"{p}:{i}"
        if key in packet.residue_maps:
            img = f.element(list(packet.residue_maps[key]))
            acc = f.zero()
            for c in reversed(h.coeffs):
                acc = acc * img + c
            if not acc.is_zero:
                raise PacketFormatError(
                    f"residue_maps[{key!r}] of {packet.label} is not a root of coeff_poly"
                )
        else:
            img = f.gen()
        out.append(
            ResiduePrime(p=p, index=i, factor=g, d=g.degree, e=mult, field=f, gen_image=img)
        )
    return out


def reduce_eigenvalue(packet: NewformPacket, key: str, rp: ResiduePrime) -> FFElement:
    """Image of the eigenvalue at `key` in the residue field of rp."""
    vec = packet.eigenvalues.get(key)
    if vec is None:
        raise MissingEigenvalueError(
            f"packet {packet.label} has no eigenvalue at {key}"
        )
    acc = rp.field.zero()
    for c in reversed(vec):
        acc = acc * rp.gen_image + c
    return acc


def trace_contradiction_check(packet: NewformPacket, rp: ResiduePrime, keys, target: int) -> bool:
    """True iff some eigenvalue among `keys` does NOT reduce to `target`.

    A True verdict contradicts the hypothetical isomorphism that forced
    the common target value, eliminating it.
    """
    want = rp.field.from_int(target)
    found = False
    for key in keys:
        if reduce_eigenvalue(packet, key, rp) != want:
            found = True
    return found


# ---------------------------------------------------------------------------
# packets generated from curves (rational eigenvalues, h = x)


def packet_from_curve(curve, label: str, q_max: int) -> NewformPacket:
    """Eigenvalue packet with a_q = Frobenius traces of an elliptic curve,
    at every prime of good reduction above q <= q_max.

    The coefficient field is Q (h = x). The level metadata records the
    bad primes up to q_max with multiplicity one; that is support
    information, not a conductor computation.
    """
    order = curve.order
    eigenvalues, level = {}, {"norm": 1, "primes": []}
    for q in range(2, q_max + 1):
        if not is_prime(q):
            continue
        for P in split_prime(order, q):
            if ec_reduction_type(curve, P) == "good":
                eigenvalues[P.key] = [ec_trace(curve, P)]
            else:
                level["primes"].append(P.key)
                level["norm"] *= P.norm
    return packet_from_dict(
        {
            "label": label,
            "base_field": order.label,
            "level": level,
            "coeff_poly": [0, 1],
            "eigenvalues": eigenvalues,
            "provenance": f"generated by point counting from curve {label}",
        },
        pos=f"packet_from_curve({label})",
    )
