"""Command-line orchestration and the full verification report.

Every command reads fixtures (curve files, packets, family and
constraint configs), runs the requested computation, and emits both
human-readable text and, with --json, a machine-readable report. Reports
embed sha256 hashes of every input file consumed, and all randomized
checks take the global --seed, so identical inputs give byte-identical
report bodies (timings aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path

from . import __version__
from .curves import (
    EllipticCurveNF,
    HyperellipticCurveNF,
    NotRMSplitError,
    SingularReductionError,
    ec_invariants,
    ec_reduction_type,
    ec_trace,
    frobenius_projective_order,
    g2_euler_factor,
    g2_rm_split,
    igusa_clebsch,
    load_curve,
    rm_residues_mod_p7,
    weighted_pp_equal,
)
from .elimination import (
    ExternalDataSlotError,
    FamilyConfigError,
    compatible_pairs,
    load_family,
    refined_eliminate,
    standard_eliminate,
)
from .exactarith import FiniteField, UniPoly, is_prime
from .jsonfile import array, fail, fields, int_lists, integer, one_of, read_json, string
from .newformdata import (
    MissingEigenvalueError,
    PacketFormatError,
    UnsupportedResiduePrimeError,
    load_packets,
    packet_from_curve,
    packet_from_dict,
    primes_above_in_Qf,
    trace_contradiction_check,
)
from .numberfield import (
    cyclotomic_unit_generators,
    element_norm,
    get_order,
    known_orders,
    reduce_element,
    split_prime,
    valuation_at,
)
from .unitsieve import (
    UNIT_CLASS_COUNT,
    SieveConstraint,
    UnitClass,
    _seventh_powers,
    build_character,
    char_value,
    class_indices,
    generator_independence_rank,
    modular_targets_from_curve,
    sieve_case_bits,
    sieve_case_exhaustive_bits,
)

__all__ = ["main", "RunReport", "CheckResult", "run_checks", "CHECK_NAMES"]

DEFAULT_SEED = 20240801
_FIXTURES_DIR = Path(__file__).parent / "fixtures"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skipped(external-data)"


class CheckResult:
    def __init__(self, name: str, status: str, detail: str):
        self.name = name
        self.status = status
        self.detail = detail
        self.ms = 0  # set by RunReport.add


def _elapsed_ms(t0: float) -> int:
    """Whole milliseconds since t0 on the monotonic clock, rounded up, so
    a step that ran never reads as the untimed 0."""
    return math.ceil((time.monotonic() - t0) * 1000)


class RunReport:
    """One run of a command: its rows, the inputs they read and the curves
    parsed from them. `add` is the one place a verdict becomes a row's
    status, and it times each row from the one before it, or from the
    report's making, so the rows add up to the run, loads included."""

    def __init__(self, command: str, fixtures, seed: int):
        self.command = command
        self.fixtures = Path(fixtures)
        self.seed = seed
        self.version = __version__
        self.inputs = {}  # input file name -> sha256 of its bytes
        self._input_paths = {}  # input file name -> the path read under it
        self.checks = []  # CheckResults, in run order
        self._curves = {}  # path -> curve, each file parsed and validated once
        self._lap = time.monotonic()  # when the report was made or its last row added

    def input(self, rel) -> Path:
        """The path of an input file, relative ones under the fixtures
        directory first; the report lists the sha256 of each one read."""
        p = Path(rel)
        if not p.is_absolute():
            cand = self.fixtures / p
            if cand.exists() or not p.exists():
                p = cand
        if p.is_file():
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            first = self._input_paths.setdefault(p.name, p)
            if self.inputs.setdefault(p.name, digest) != digest:
                raise ValueError(f"inputs {first} and {p} share the file name {p.name} but "
                                 "not their bytes; the report lists one digest per file name")
        return p

    def curve(self, rel):
        """The curve in an input file, loaded once per run."""
        p = self.input(rel)
        if p not in self._curves:
            self._curves[p] = load_curve(p)
        return self._curves[p]

    def add(self, name: str, ok, detail: str) -> None:
        """A row for a verdict: True passes, False fails, and None is a
        check that waits on external data."""
        status = STATUS_SKIP if ok is None else STATUS_PASS if ok else STATUS_FAIL
        row = CheckResult(name, status, detail)
        row.ms = _elapsed_ms(self._lap)
        self._lap = time.monotonic()
        self.checks.append(row)

    @property
    def failed(self) -> bool:
        return any(c.status == STATUS_FAIL for c in self.checks)

    def to_dict(self, with_timings: bool = True) -> dict:
        out = {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "detail": c.detail,
                    **({"ms": c.ms} if with_timings else {}),
                }
                for c in self.checks
            ],
        }
        return out

    def to_text(self) -> str:
        lines = [f"fermatkit {self.version} :: {self.command} (seed {self.seed})"]
        for path, digest in sorted(self.inputs.items()):
            lines.append(f"  input {path} sha256={digest[:16]}")
        for c in self.checks:
            lines.append(f"  [{c.status:^24}] {c.name}: {c.detail} ({c.ms} ms)")
        summary = "FAIL" if self.failed else "OK"
        lines.append(f"result: {summary}")
        return "\n".join(lines)


def _fixture_curve_E(report):
    return report.curve("curves/E_1_-1.curve")


def _fixture_curve_C(report):
    return report.curve("curves/C_eq51.curve")


_IGUSA_WEIGHTS = (2, 4, 6, 10)


def _ratio(value, pos: str):
    """An "n/d" or "n" string as the integers (n, d), d > 0."""
    n, _, d = string(value, pos, ValueError).partition("/")
    try:
        n, d = int(n), int(d or 1)
        if d > 0:
            return n, d
    except ValueError:
        pass
    raise fail(ValueError, pos, 'a ratio "n/d" of integers, d > 0', value)


def _reference_invariants(report):
    """The reference (I2, I4, I6, I10) as integral elements mu^k I_k
    (k = 2, 4, 6, 10), mu the lcm of their denominators, which is the
    same weighted projective point; with the integral alpha and mu."""
    p = report.input("invariants/humbert_rm8_reference.json")
    order, fracs, alpha = read_json(p, _parse_reference)
    mu = math.lcm(*(d for inv in fracs for _, d in inv))
    inv = tuple(
        order.element([n * mu**k // d for n, d in coords])
        for k, coords in zip(_IGUSA_WEIGHTS, fracs)
    )
    return inv, order.element([n // d for n, d in alpha]), mu


def _parse_reference(data):
    """The order, the coordinates of I2..I10 and the integral alpha of a
    reference file, each coordinate an (n, d) pair."""
    E = ValueError
    label, invariants, alpha = fields(data, "reference", E, ("order", "invariants", "alpha"))
    order = get_order(one_of(label, "order", E, known_orders()))
    keys = ("I2", "I4", "I6", "I10")
    fracs = [
        [_ratio(s, f"invariants.{k}[{j}]") for j, s in enumerate(array(v, f"invariants.{k}", E))]
        for k, v in zip(keys, fields(invariants, "invariants", E, keys))
    ]
    alpha = [_ratio(s, f"alpha[{j}]") for j, s in enumerate(array(alpha, "alpha", E))]
    if any(n % d for n, d in alpha):
        raise ValueError("alpha must be integral")
    return order, fracs, alpha


def _reference_comparison(report, mine):
    """(weighted-projective equality with the reference, exact equality
    mine_k == I_k alpha^k with the reference alpha)."""
    ref, alpha, mu = _reference_invariants(report)
    exact = all(m * mu**k == r * alpha**k for m, r, k in zip(mine, ref, _IGUSA_WEIGHTS))
    return weighted_pp_equal(mine, ref), exact


def _fmt_nf(x) -> str:
    """Compact a + b*rt form for quadratic elements."""
    a = x.coords[0]
    b = x.coords[1] if len(x.coords) > 1 else 0
    if b == 0:
        return str(a)
    mag = "rt" if abs(b) == 1 else f"{abs(b)}*rt"
    if a == 0:
        return mag if b > 0 else f"-{mag}"
    return f"{a}{'+' if b > 0 else '-'}{mag}"


# ---------------------------------------------------------------------------
# acceptance-grade checks (shared by `full-report` and the test suite).
# Each reads its inputs through the run's report and returns its verdict
# and detail, (ok, detail), for `RunReport.add`; `run_checks` names the
# row after the check's `_CHECK_FNS` key.


def check_euler_rm_at_3(report) -> tuple:
    C = _fixture_curve_C(report)
    K = get_order("Qsqrt13")
    got = {}
    for P in split_prime(K, 3):
        split = g2_rm_split(g2_euler_factor(C, P))
        got[tuple(P.theta_image.coeffs)] = split.as_coords()
    # the prime with theta -> 0 is (u); theta -> 1 is (u - 1)
    want_u = [(0, -1), (0, 1)]          # {sqrt2, -sqrt2}
    want_u1 = [(2, -1), (2, 1)]         # {2 - sqrt2, 2 + sqrt2}
    ok = got.get((0,)) == want_u and got.get((1,)) == want_u1
    return ok, f"(u): {got.get((0,))}, (u-1): {got.get((1,))}"


def check_invariant_valuations(report) -> tuple:
    E = _fixture_curve_E(report)
    P2 = split_prime(get_order("Qsqrt13"), 2)[0]
    c4, c6, disc = ec_invariants(E)
    vals = (valuation_at(c4, P2), valuation_at(c6, P2), valuation_at(disc, P2))
    return vals == (5, 5, 4), f"(v(c4), v(c6), v(Delta)) = {vals}"


def check_igusa_proportionality(report) -> tuple:
    C = _fixture_curve_C(report)
    proj, exact = _reference_comparison(report, igusa_clebsch(C))
    return proj and exact, (
        f"weighted-projective equal: {proj}; exact with the reference alpha: {exact}")


def check_projective_orders(report) -> tuple:
    C = _fixture_curve_C(report)
    K = get_order("Qsqrt13")
    P3 = split_prime(get_order("Zsqrt2"), 3)[0]  # inert: the residue field is F_9
    orders = set()
    degenerate = False
    for q in (17, 53):
        for P in split_prime(K, q):
            split = g2_rm_split(g2_euler_factor(C, P))
            for alpha in split.pair:
                a9 = reduce_element(alpha, P3)
                disc = a9 * a9 - 4 * P.norm
                if disc.is_zero:
                    degenerate = True
                orders.add(frobenius_projective_order(a9, P.norm))
    note = " (degenerate repeated-root case hit)" if degenerate else ""
    return {2, 4, 5} <= orders, f"orders at primes above 17, 53: {sorted(orders)}{note}"


def congruence_failures(E, C, bound: int):
    """Good primes of norm <= bound where a(E) mod 7 misses the RM residue
    set of C; primes above 7 (the residual characteristic) and bad primes
    are excluded, following the source quantifier. Each failure is
    (key, a, residues). No clock is read here: the report row that the
    count feeds carries the time."""
    K = get_order("Qsqrt13")
    failures = []
    checked = 0
    for q in range(2, bound + 1):
        if not is_prime(q) or q == 7:
            continue
        for P in split_prime(K, q):
            if P.norm > bound:
                continue
            if ec_reduction_type(E, P) != "good":
                continue
            try:
                res = rm_residues_mod_p7(g2_rm_split(g2_euler_factor(C, P)))
            except SingularReductionError:
                continue
            t = ec_trace(E, P)
            checked += 1
            if t % 7 not in res:
                failures.append((P.key, t, sorted(res)))
    return checked, failures


def check_mod7_congruence(report) -> tuple:
    E = _fixture_curve_E(report)
    C = _fixture_curve_C(report)
    checked, failures = congruence_failures(E, C, 200)
    return not failures, (
        f"{checked} good primes checked, {len(failures)} failures"
        + (f": {failures[:4]}" if failures else ""))


def _rank_above(*qs) -> int:
    """The rank of the unit characters over the primes of Z[zeta_13] above qs."""
    Zz = get_order("Zzeta13")
    return generator_independence_rank([P for q in qs for P in split_prime(Zz, q)])


def check_unit_classes_and_rank(report) -> tuple:
    """As stated in the acceptance list: 16807 classes and rank 5 over
    the primes above {2, 11, 23, 29}. The recomputed rank over that set
    is 4, by two independent routes (the count of classes with every
    character 0, and plain row reduction in the test suite); rank 5
    needs the six-prime set including 19. See the companion check. The
    class count is 7 to the number of unit generators, counted apart
    from UNIT_CLASS_COUNT."""
    count_ok = 7 ** len(cyclotomic_unit_generators()) == UNIT_CLASS_COUNT
    rank = _rank_above(2, 11, 23, 29)
    return count_ok and rank == 5, (
        f"classes {UNIT_CLASS_COUNT}; rank over primes above (2,11,23,29) = {rank}, "
        "stated value 5 is not reproducible: two independent recomputations give 4")


def check_unit_rank_verified(report) -> tuple:
    r_stated = _rank_above(2, 11, 23, 29)
    r_proof = _rank_above(2, 11, 19, 23, 29, 41)
    return r_stated == 4 and r_proof == 5, (
        f"rank(2,11,23,29) = {r_stated} (expected 4); "
        f"rank(2,11,19,23,29,41) = {r_proof} (expected 5: classes separated)")


def check_sieve_soundness(report) -> tuple:
    problems = []
    # character route == exact-residue route, one prime at a time
    for q in (2, 11, 19, 23, 29, 41):
        cons = [
            SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")
        ]
        for case in ("coprime-13", "divisible-13"):
            if sieve_case_bits(case, cons) != sieve_case_exhaustive_bits(case, cons):
                problems.append(f"routes disagree at q={q} ({case})")
    # planted trivial solutions survive sieves containing their pairs
    cons_u = [
        SieveConstraint(q=11, mode="unconstrained"),
        SieveConstraint(q=19, mode="unconstrained"),
    ]
    for case, cls in (
        ("coprime-13", UnitClass((0, 0, 0, 0, 0))),   # 1 = 1 * 1^7
        ("divisible-13", UnitClass((0, 0, 0, 0, 0))), # 1 - zeta = 1 * (1-zeta) * 1^7
        ("coprime-13", UnitClass((1, 0, 0, 0, 0))),   # 1 + zeta = u2 * 1^7
    ):
        if not sieve_case_bits(case, cons_u) >> cls.index & 1:
            problems.append(f"planted class {cls.exps} died ({case})")
    # monotonicity under an added constraint
    base = [SieveConstraint(q=11, mode="unconstrained")]
    more = base + [SieveConstraint(q=2, mode="parity-only")]
    s_base = sieve_case_bits("divisible-13", base)
    s_more = sieve_case_bits("divisible-13", more)
    if s_more & ~s_base:
        problems.append("adding a constraint enlarged the survivor set")
    return not problems, (
        "; ".join(problems) or "routes agree on all six primes; planted classes survive; monotone")


def check_elimination_soundness(report) -> tuple:
    fam = load_family(report.input("families/demo_sum_rule_cubic.json"))
    rng = random.Random(report.seed)
    problems = []
    tried = 0
    while tried < 3:
        a0, b0 = rng.randrange(1, 40), rng.randrange(1, 40)
        s = a0 + b0
        # member must have good reduction at 5 and 11 for its packet to
        # carry the needed eigenvalues
        if s * (432 * s + 1) % 5 == 0 or s * (432 * s + 1) % 11 == 0:
            continue
        tried += 1
        member = fam.specialize(a0, b0)
        pkt = packet_from_curve(member, f"self-{a0}-{b0}", 13)
        if standard_eliminate(pkt, fam, [5, 11]).surviving != "all":
            problems.append(f"self-packet ({a0},{b0}) did not survive standard")
        if any(r.status == "eliminated" for r in refined_eliminate(pkt, fam, 7, [5, 11])):
            problems.append(f"self-packet ({a0},{b0}) was refinedly eliminated")
    # Eisenstein-like packet: reductions equal N(q)+1 mod 7 everywhere,
    # so the level-raising congruence always holds and nothing at p=7 is
    # eliminated unless the residue prime is explicitly skipped
    eis_vals = {}
    for q in (5, 11):
        for P in split_prime(fam.order, q):
            lift = (P.norm + 1) % 7
            if lift > 3:
                lift -= 7
            eis_vals[P.key] = [lift]
    eis = packet_from_dict(
        {
            "label": "eisenstein-like",
            "base_field": "K13cubic",
            "level": {"norm": 1, "primes": []},
            "coeff_poly": [0, 1],
            "eigenvalues": eis_vals,
            "provenance": "synthetic: reductions match the level-raising value",
        }
    )
    if any(r.status == "eliminated" for r in refined_eliminate(eis, fam, 7, [5, 11])):
        problems.append("Eisenstein-like packet was eliminated without a skip")
    if not all(r.status == "skipped"
               for r in refined_eliminate(eis, fam, 7, [5, 11], skip=["7:0"])):
        problems.append("skip list was not honored")
    return not problems, (
        "; ".join(problems) or "self-packets survive; level-raising packets unhurt unless skipped")


def check_contradictions(report) -> tuple:
    f11 = load_packets(report.input("packets/f11_fixture.json"))[0]
    wiring = load_packets(report.input("packets/reducible_wiring.json"))[0]
    p0_f11 = primes_above_in_Qf(f11, 7)[0]
    keys = ["5.0", "5.1", "5.2"]
    got_f11 = trace_contradiction_check(f11, p0_f11, keys, (-3) % 7)
    p0_w = primes_above_in_Qf(wiring, 7)[0]
    got_w = trace_contradiction_check(wiring, p0_w, keys, 2)
    neg = not trace_contradiction_check(f11, p0_f11, keys, 6)
    ok = got_f11 and got_w and neg and p0_f11.e == 3 and p0_f11.d == 1
    return ok, (
        f"f11 vs -3 mod 7: {got_f11}; reducible-constituent vs 2 mod 7: {got_w}; "
        f"f11 vs its own residue 6: contradiction={not neg}")


def check_external_sieve(report) -> tuple:
    return None, (
        "needs the transcribed Frey family (families/frey_sqrt13.json is an "
        "external-data slot); with it supplied the expected survivor set is empty")


def check_external_elimination(report) -> tuple:
    return None, (
        "needs the transcribed Frey family over the cubic field and external "
        "eigenvalue packets; with them supplied the expected outcome is "
        "elimination of every constituent except via the documented "
        "reducible/skipped routes")


_CHECK_FNS = {
    "euler-rm-at-3": check_euler_rm_at_3,
    "invariant-valuations-at-2": check_invariant_valuations,
    "igusa-proportionality": check_igusa_proportionality,
    "projective-frobenius-orders": check_projective_orders,
    "mod7-congruence-norm-200": check_mod7_congruence,
    "unit-classes-and-rank-stated": check_unit_classes_and_rank,
    "unit-rank-verified": check_unit_rank_verified,
    "sieve-soundness": check_sieve_soundness,
    "elimination-soundness": check_elimination_soundness,
    "contradiction-checkers": check_contradictions,
    "sieve-empty-divisible-13": check_external_sieve,
    "sieve-empty-coprime-13": check_external_sieve,
    "four-constituents-elimination": check_external_elimination,
}

CHECK_NAMES = list(_CHECK_FNS)


def _resolve_checks(names) -> list:
    """(name, check) for each name, None naming every check; an empty list
    or an unknown name raises before any check runs."""
    if names is None:
        return list(_CHECK_FNS.items())
    if not names:
        raise ValueError("expected at least one check name")
    unknown = [name for name in names if name not in _CHECK_FNS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; known: {CHECK_NAMES}")
    return [(name, _CHECK_FNS[name]) for name in names]


def run_checks(names=None, fixtures=None, seed: int = DEFAULT_SEED) -> RunReport:
    checks = _resolve_checks(names)
    report = RunReport("full-report", fixtures or _FIXTURES_DIR, seed)
    for name, fn in checks:
        try:
            ok, detail = fn(report)
        except Exception as e:  # a crash is a failed check, not a crashed report
            ok, detail = False, f"{type(e).__name__}: {e}"
        report.add(name, ok, detail)
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_split(args) -> RunReport:
    report = RunReport("split", args.fixtures, args.seed)
    order = get_order(args.order)
    for q in args.q:
        primes = split_prime(order, q)
        lines = ", ".join(
            f"{P.key} (e={P.e}, f={P.fdeg}, theta->{list(P.theta_image.coeffs)})"
            for P in primes
        )
        report.add(f"split-{q}", True, f"{len(primes)} primes: {lines}")
    return report


def cmd_trace(args) -> RunReport:
    report = RunReport("trace", args.fixtures, args.seed)
    curve = report.curve(args.curve)
    primes = [P for q in args.q for P in split_prime(curve.order, q)]
    for P in primes:
        _check_count_field(curve, P)
    for P in primes:
        report.add(f"trace-{P.key}", True, _trace_detail(curve, P))
    return report


def _trace_detail(curve, P) -> str:
    """The row of `trace` at P: the Frobenius trace of an elliptic curve,
    the Euler factor and its RM split for a genus-2 one."""
    if isinstance(curve, EllipticCurveNF):
        rtype = ec_reduction_type(curve, P)
        if rtype != "good":
            return f"bad reduction ({rtype}); not computed"
        a = ec_trace(curve, P)
        return f"a = {a}, N = {P.norm} (|a| <= 2*sqrt(N): {a*a <= 4*P.norm})"
    try:
        e = g2_euler_factor(curve, P)
    except SingularReductionError as exc:
        return f"bad reduction: {exc}"
    try:
        split = g2_rm_split(e)
        pair = " , ".join(_fmt_nf(x) for x in sorted(split.pair, key=lambda v: v.coords))
        extra = f"RM pair {{{pair}}}, mod-7 residues {sorted(rm_residues_mod_p7(split))}"
    except NotRMSplitError as exc:
        extra = f"no RM split: {exc}"
    return f"N={e.N}, a1={e.a1}, a2={e.a2}; {extra}"


def cmd_igusa(args) -> RunReport:
    report = RunReport("igusa", args.fixtures, args.seed)
    curve = report.curve(args.curve)
    if not isinstance(curve, HyperellipticCurveNF):
        raise ValueError("igusa needs a sextic curve file")
    inv = igusa_clebsch(curve)
    for name, v in zip(("I2", "I4", "I6", "I10"), inv):
        report.add(name, True, f"[{', '.join(str(c) for c in v.coords)}]")
    if args.reference:
        proj, exact = _reference_comparison(report, inv)
        detail = f"weighted-projective equal: {proj}; exact with alpha: {exact}"
        report.add("reference-comparison", proj and exact, detail)
    return report


def cmd_check_congruence(args) -> RunReport:
    report = RunReport("check-congruence", args.fixtures, args.seed)
    cap = math.isqrt(MAX_G2_COUNT_FIELD)  # a genus-2 count at norm N runs over F_{N^2}
    if args.bound > cap:
        raise ValueError(f"--bound: expected a norm bound at most {cap}, got {args.bound}")
    E = _congruence_curve(report, "--curve-e", args.curve_e, EllipticCurveNF)
    C = _congruence_curve(report, "--curve-c", args.curve_c, HyperellipticCurveNF)
    checked, failures = congruence_failures(E, C, args.bound)
    detail = f"{checked} good primes of norm <= {args.bound} checked; {len(failures)} failures"
    report.add("mod7-congruence", not failures, detail)
    for key, t, res in failures:
        report.add(f"failure-{key}", False, f"a={t}, a mod 7 = {t%7} not in {res}")
    return report


_MODEL_NAMES = {EllipticCurveNF: "a Weierstrass model", HyperellipticCurveNF: "a sextic"}


def _congruence_curve(report, flag: str, path, kind):
    """The curve in `path`, refused unless it is of `kind` over Qsqrt13."""
    curve = report.curve(path)
    if type(curve) is not kind or curve.order.label != "Qsqrt13":
        raise ValueError(f"{flag}: expected {_MODEL_NAMES[kind]} over Qsqrt13, got "
                         f"{_MODEL_NAMES[type(curve)]} over {curve.order.label} in {path}")
    return curve


# The largest auxiliary prime a constraint file or `eliminate --q` may
# name. The shipped files stop at 41. The cost grows with q: the modular
# mode and the family local data walk all q^2 - 1 Frey curves (about
# 3.5 s at q = 103 on the demo family), and every mode builds the residue
# fields of Z[zeta_13] above q, of degree f <= 12. No mode factors q^f - 1:
# only `build_character` does, at the one prime `check-invariants` reads.
MAX_CONSTRAINT_Q = 200

# The largest residue field N(P), P above an `eliminate --q` or a modular
# constraint's q in the family's order, that a point count may run over.
# The cost follows N(P), not q: 199 is inert in the cubic field, and one
# count over F_{199^3} walks about 7.9 million elements. 2^16 keeps every
# shipped fixture and command (the largest is F_{37^3}, 50,653) and refuses
# the cubic field's inert primes from 41 on. Unconstrained and parity-only
# constraints count nothing (they exponentiate, in fields up to F_{41^12}),
# so they are not capped.
MAX_RESIDUE_FIELD = 2**16

# The largest field a point count may walk: F_{N(P)^2} for a genus-2
# Euler factor, F_{N(P)} for an elliptic trace. It caps the counts of
# `trace`/`euler` (every prime is checked before the first count), the
# norm bound of `check-congruence` (at most sqrt(2^22) = 2048, default
# 200; 2048 checks 312 primes in about 24 s and 55 MB) and the genus-2
# `targets_from_curve` of a modular constraint, which MAX_RESIDUE_FIELD,
# on the family's order, does not bound. The cost grows with the field:
# 0.3 s over F_{41^4} (41 is inert in Q(sqrt13)) and about 2.2 s over
# F_{67^4} on one Xeon core, minutes over F_{197^4}. 2^22 keeps F_{41^4}
# (2,825,761 elements) and refuses every inert q from 47 on (4,879,681),
# so `trace C_eq51.curve 67` is refused; the elliptic
# `trace E_1_-1.curve 1000003` (split, 1.9 s per process) still runs, and
# the inert 100003 (N(P) about 10^10) is refused.
MAX_G2_COUNT_FIELD = 2**22


def _check_count_field(curve, P) -> None:
    """Refuse a prime P at which a point count on `curve` would walk a
    field of more than MAX_G2_COUNT_FIELD elements."""
    genus2 = isinstance(curve, HyperellipticCurveNF)
    size = P.norm**2 if genus2 else P.norm
    if size > MAX_G2_COUNT_FIELD:
        raise ValueError(
            f"the {'genus-2' if genus2 else 'elliptic'} point count at {P.key} runs over "
            f"{size} elements, more than {MAX_G2_COUNT_FIELD}")


def _check_residue_fields(family, q: int, where: str) -> None:
    """Refuse an admissible q with a prime above it, in the family's
    order, whose residue field exceeds MAX_RESIDUE_FIELD; an inadmissible q
    is the caller's to refuse, before any count."""
    if not family.is_admissible(q):
        return
    for P in family.primes_above(q):
        if P.norm > MAX_RESIDUE_FIELD:
            raise ValueError(
                f"{where}: the residue field at {P.key} has {P.norm} elements, "
                f"more than {MAX_RESIDUE_FIELD}"
            )


def _parse_q_list(text: str):
    out = []
    for s in text.split(","):
        if not s:
            continue
        try:
            q = int(s)
        except ValueError:
            raise ValueError(f"--q: expected comma-separated integers, got {s!r}") from None
        if q > MAX_CONSTRAINT_Q:
            raise ValueError(f"--q: expected auxiliary primes at most {MAX_CONSTRAINT_Q}, got {q}")
        out.append(q)
    if not out:
        raise ValueError(f"--q: expected at least one auxiliary prime, got {text!r}")
    return out


def _parse_refined(text: str):
    """The exponent p of `--refined p` or `--refined p=<p>`; None when absent."""
    if not text:
        return None
    try:
        p = int(text.removeprefix("p="))
    except ValueError:
        raise ValueError(f"--refined: expected p=<prime>, got {text!r}") from None
    if not is_prime(p):
        raise ValueError(f"--refined: expected a prime exponent, got {p}")
    return p


def cmd_eliminate(args) -> RunReport:
    report = RunReport("eliminate", args.fixtures, args.seed)
    q_list = _parse_q_list(args.q)
    p = _parse_refined(args.refined)
    if p is None and (args.skip is not None or args.skip_ramified):
        flag = "--skip" if args.skip is not None else "--skip-ramified"
        raise ValueError(f"{flag}: skips residue primes of refined elimination; give --refined")
    fam_path = report.input(args.family)
    try:
        fam = load_family(fam_path)
    except ExternalDataSlotError as e:
        report.add("family", None, _as_given(e, fam_path, args.family))
        return report
    for q in q_list:
        if not fam.is_admissible(q):
            raise ValueError(f"--q: auxiliary prime {q} is not admissible for the family "
                             f"in {fam_path}")
        _check_residue_fields(fam, q, f"--q: {q}")
    pk_path = report.input(args.packets)
    packets = load_packets(pk_path)
    for pkt in packets:  # the "q.i" keys must name primes of the family's order
        if pkt.base_field != fam.order.label:
            raise ValueError(f"{pk_path}: packet {pkt.label}.base_field: {pkt.base_field!r} "
                             f"is not the order {fam.order.label!r} of the family in {fam_path}")
    skip = [s for s in (args.skip or "").split(",") if s]
    # what the files define can still fail here: name the file it came from.
    # One run per packet, in label order, its rows added right after it.
    try:
        if skip:  # each key names a residue prime above p of some packet
            keys = {rp.key for pkt in packets for rp in primes_above_in_Qf(pkt, p)}
            bad = next((k for k in skip if k not in keys), None)
            if bad is not None:
                raise ValueError(f"--skip: {bad!r} is not a residue prime above {p} of any "
                                 f"packet; the keys are {sorted(keys)}")
        for pkt in sorted(packets, key=lambda pkt: pkt.label):
            row = standard_eliminate(pkt, fam, q_list)
            aq = dict(sorted(row.aq.items()))
            surv = "all primes" if row.surviving == "all" else sorted(row.surviving)
            detail = f"A_q = {aq}, gcd = {row.overall_gcd}, surviving exponents: {surv}"
            report.add(f"standard-{row.label}", True, detail)
        for pkt in packets if p else ():
            for r in refined_eliminate(pkt, fam, p, q_list, skip=skip,
                                       skip_ramified=args.skip_ramified):
                extra = f"witness q = {r.witness_q}" if r.witness_q else r.reason
                detail = r.status + (f" ({extra})" if extra else "")
                report.add(f"refined-{r.label}-{r.residue_prime}", True, detail)
    except FamilyConfigError as e:
        raise type(e)(f"{fam_path}: {e}") from None
    except (PacketFormatError, UnsupportedResiduePrimeError, MissingEigenvalueError) as e:
        raise type(e)(f"{pk_path}: {e}") from None
    return report


def _as_given(e, path, given) -> str:
    """The message of an error that `read_json` raised for the file at
    `path`, naming the file as `given` on the command line or in a
    constraint file, so a skip row reads the same in every checkout."""
    return f"{given}: {str(e).removeprefix(f'{path}: ')}"


def _load_constraints(report, path):
    """The SieveConstraints of a constraint file. Every error names the
    file and the entry; an external-data family slot raises its
    ExternalDataSlotError, naming the family file as the entry does."""
    p = report.input(path)
    out = []
    for i, c in enumerate(read_json(p, _constraint_entries)):
        if isinstance(c, tuple):  # modular: its family and targets
            q, family, curve_path, targets = c
            pos = f"{p}: constraints[{i}]"
            fam_path = report.input(family)
            try:
                fam = load_family(fam_path)
            except ExternalDataSlotError as e:
                raise ExternalDataSlotError(_as_given(e, fam_path, family)) from None
            except (OSError, ValueError) as e:
                raise ValueError(f"{pos}.family: {e}") from None
            _check_residue_fields(fam, q, f"{pos}.q: {q}")
            if curve_path is not None:
                try:
                    curve = report.curve(curve_path)
                    if not isinstance(curve, HyperellipticCurveNF):
                        raise ValueError("expected a genus-2 curve file")
                    if curve.order != fam.order:
                        raise ValueError(f"the curve is over {curve.order.label}, "
                                         f"family {fam.label} over {fam.order.label}")
                    for P in split_prime(curve.order, q):
                        _check_count_field(curve, P)
                    targets = modular_targets_from_curve(curve, q)
                except (OSError, ValueError) as e:
                    raise ValueError(f"{pos}.targets_from_curve: {e}") from None
            try:  # q admissible for the family, a target at every prime above it
                compatible_pairs(fam, q, 7, dict(targets))
            except ValueError as e:
                raise ValueError(f"{pos}: {e}") from None
            c = SieveConstraint(q=q, mode="modular", family=fam, targets=targets)
        out.append(c)
    return out


_MODES = ("modular", "parity-only", "unconstrained")


def _constraint_entries(data) -> list:
    """A constraint file's entries, checked: a SieveConstraint for each
    parity-only or unconstrained entry, and (q, family path, curve path or
    None, targets or None) for a modular one. The file (JSON)::

        {"constraints": [                      # at least one
          {"q": int, "mode": "parity-only" | "unconstrained"},
          {"q": int, "mode": "modular", "family": path,
           "targets_from_curve": path},        # a genus-2 curve file, or
          {"q": int, "mode": "modular", "family": path,
           "targets": {"q.i": [int]}}          # residues mod 7 per prime
        ]}

    Each q is a prime other than 13, at most MAX_CONSTRAINT_Q, named
    once, with 7 | N(Q) - 1 at every prime Q of Z[zeta_13] above it
    (checked by building the sieve's cached per-prime map). Paths are
    relative to the fixtures directory."""
    E = ValueError
    (entries,) = fields(data, "constraints", E, ("constraints",))
    if not array(entries, "constraints", E):
        raise ValueError("constraints: the sieve needs at least one constraint")
    out, seen = [], set()
    for i, c in enumerate(entries):
        pos = f"constraints[{i}]"
        q, mode = fields(c, pos, E, ("q", "mode"))
        if integer(q, f"{pos}.q", E) > MAX_CONSTRAINT_Q or not is_prime(q) or q == 13:
            raise fail(E, f"{pos}.q", f"a prime other than 13, at most {MAX_CONSTRAINT_Q}", q)
        if q in seen:
            raise ValueError(f"{pos}.q: {q} is constrained twice")
        seen.add(q)
        try:
            for Q in split_prime(get_order("Zzeta13"), q):
                _seventh_powers(Q)
        except ValueError as e:
            raise ValueError(f"{pos}.q: {e}") from None
        if one_of(mode, f"{pos}.mode", E, _MODES) != "modular":
            try:
                out.append(SieveConstraint(q=q, mode=mode))
            except ValueError as e:
                raise ValueError(f"{pos}: {e}") from None
            continue
        (family,) = fields(c, pos, E, ("family",))
        string(family, f"{pos}.family", E)
        if "targets_from_curve" in c:
            curve = string(c["targets_from_curve"], f"{pos}.targets_from_curve", E)
            out.append((q, family, curve, None))
            continue
        (targets,) = fields(c, pos, E, ("targets",))
        fields(targets, f"{pos}.targets", E)
        for key, v in targets.items():
            int_lists(v, f"{pos}.targets[{json.dumps(key)}]", E)
        out.append((q, family, None, tuple(sorted((k, frozenset(v)) for k, v in targets.items()))))
    return out


def cmd_sieve(args) -> RunReport:
    report = RunReport("sieve", args.fixtures, args.seed)
    case = {"div13": "divisible-13", "coprime13": "coprime-13"}.get(args.case)
    if case is None:
        raise ValueError("--case must be div13 or coprime13")
    try:
        constraints = _load_constraints(report, args.constraints)
    except ExternalDataSlotError as e:
        report.add("sieve", None, str(e))
        return report
    bits = sieve_case_bits(case, constraints)
    count = bits.bit_count()
    first = [list(UnitClass.from_index(i).exps) for i in class_indices(bits)[:10]]
    detail = f"case {case}: {count} of {UNIT_CLASS_COUNT} classes survive; first {first}"
    report.add("sieve", True, detail)
    if args.out:
        data = bits.to_bytes((UNIT_CLASS_COUNT + 7) // 8, "little")
        Path(args.out).write_bytes(data)
        summary = {
            "case": case,
            "count": count,
            "first": first,
            "bitset_sha256": hashlib.sha256(data).hexdigest(),
        }
        Path(str(args.out) + ".json").write_text(json.dumps(summary, indent=2) + "\n")
        report.add("sieve-out", True, f"bitset written to {args.out}")
    return report


def cmd_check_invariants(args) -> RunReport:
    """Randomized spot checks of arithmetic invariants (seeded)."""
    report = RunReport("check-invariants", args.fixtures, args.seed)
    rng = random.Random(args.seed)
    problems = []

    F = FiniteField(5, UniPoly([3, 0, 1]))  # F_25
    for _ in range(60):
        x, y, z = (F.from_index(rng.randrange(F.order)) for _ in range(3))
        if (x + y) * z != x * z + y * z or (x * y) * z != x * (y * z):
            problems.append("field axioms")
        if not x.is_zero and x * x.inverse() != F.one():
            problems.append("inverse")
        if x ** F.order != x:
            problems.append("Frobenius fixed point")

    K = get_order("K13cubic")
    for _ in range(25):
        a = K.element([rng.randrange(-9, 10) for _ in range(3)])
        b = K.element([rng.randrange(-9, 10) for _ in range(3)])
        if element_norm(a * b) != element_norm(a) * element_norm(b):
            problems.append("norm multiplicativity")
        P = split_prime(K, 5)[rng.randrange(3)]
        if reduce_element(a * b, P) != reduce_element(a, P) * reduce_element(b, P):
            problems.append("reduction multiplicativity")
        if reduce_element(a + b, P) != reduce_element(a, P) + reduce_element(b, P):
            problems.append("reduction additivity")

    Ks = get_order("Qsqrt13")
    for _ in range(15):
        coeffs = [Ks.element([rng.randrange(-5, 6), rng.randrange(-5, 6)]) for _ in range(5)]
        try:
            E = EllipticCurveNF(*coeffs)
        except ValueError:
            continue
        c4, c6, disc = ec_invariants(E)
        if c4 * c4 * c4 - c6 * c6 != 1728 * disc:
            problems.append("c4^3 - c6^2 = 1728 Delta")

    Zz = get_order("Zzeta13")
    Q = split_prime(Zz, 29)[0]
    t = build_character(Q)
    for _ in range(20):
        x = Zz.element([rng.randrange(-3, 4) for _ in range(12)])
        y = Zz.element([rng.randrange(-3, 4) for _ in range(12)])
        cx = char_value(t, x)
        if cx is None:
            continue
        c7 = char_value(t, x * y**7)
        cy = char_value(t, y)
        if cy is not None and c7 != cx:
            problems.append("character invariance under 7th powers")

    detail = "all randomized invariants hold" if not problems else "; ".join(sorted(set(problems)))
    report.add("randomized-invariants", not problems, detail)
    return report


def cmd_full_report(args) -> RunReport:
    names = None
    if args.only is not None:
        names = [s for s in args.only.split(",") if s]
        if not names:
            raise ValueError(f"--only: expected comma-separated check names, got {args.only!r}")
        try:
            _resolve_checks(names)
        except ValueError as e:
            raise ValueError(f"--only: {e}") from None
    return run_checks(names=names, fixtures=args.fixtures, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fermatkit",
        description="Verification toolkit: trace/Euler-factor computation, "
        "modular-method elimination, and the cyclotomic unit sieve.",
    )
    p.add_argument("--fixtures", default=str(_FIXTURES_DIR), help="fixture directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("split", help="prime splitting in a fixture order")
    s.add_argument("order", choices=sorted(known_orders()))
    s.add_argument("q", type=int, nargs="+")
    s.set_defaults(fn=cmd_split)

    for name, help_ in (("trace", "Frobenius traces / Euler factors"),
                        ("euler", "alias of trace for genus-2 files")):
        s = sub.add_parser(name, help=help_)
        s.add_argument("curve")
        s.add_argument("q", type=int, nargs="+")
        s.set_defaults(fn=cmd_trace)

    s = sub.add_parser("igusa", help="Igusa-Clebsch invariants")
    s.add_argument("curve")
    s.add_argument("--reference", action="store_true",
                   help="compare against the shipped reference invariants")
    s.set_defaults(fn=cmd_igusa)

    s = sub.add_parser("check-congruence", help="mod-7 trace congruence up to a norm bound")
    s.add_argument("--curve-e", default="curves/E_1_-1.curve")
    s.add_argument("--curve-c", default="curves/C_eq51.curve")
    s.add_argument("--bound", type=int, default=200)
    s.set_defaults(fn=cmd_check_congruence)

    s = sub.add_parser("eliminate", help="standard and refined elimination")
    s.add_argument("--family", required=True)
    s.add_argument("--packets", required=True)
    s.add_argument("--q", required=True, help="comma-separated auxiliary primes")
    s.add_argument("--refined", help="exponent p for refined elimination")
    s.add_argument("--skip", help="comma-separated residue-prime keys to skip (reducible)")
    s.add_argument("--skip-ramified", action="store_true")
    s.set_defaults(fn=cmd_eliminate)

    s = sub.add_parser("sieve", help="unit sieve over Z[zeta_13]")
    s.add_argument("--case", required=True, help="div13 or coprime13")
    s.add_argument("--constraints", required=True)
    s.add_argument("--out", help="write the survivor bitset here (plus .json summary)")
    s.set_defaults(fn=cmd_sieve)

    s = sub.add_parser("check-invariants", help="seeded randomized invariant spot checks")
    s.set_defaults(fn=cmd_check_invariants)

    s = sub.add_parser("full-report", help="run every verification check")
    s.add_argument("--only", help="comma-separated subset of checks to run")
    s.set_defaults(fn=cmd_full_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.fn(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.to_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
