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
import random
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
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
    FamilyConfigError,
    load_family,
    refined_eliminate,
    standard_eliminate,
)
from .exactarith import FiniteField, UniPoly, is_prime
from .newformdata import (
    load_packets,
    packet_from_curve,
    packet_from_dict,
    primes_above_in_Qf,
    trace_contradiction_check,
)
from .numberfield import (
    QElement,
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
    build_character,
    generator_independence_rank,
    modular_targets_from_curve,
    sieve_case,
    sieve_case_exhaustive,
)

__all__ = ["main", "RunReport", "CheckResult", "run_checks", "CHECK_NAMES"]

DEFAULT_SEED = 20240801
_FIXTURES_DIR = Path(__file__).parent / "fixtures"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skipped(external-data)"


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    ms: int = 0


@dataclass
class RunReport:
    command: str
    version: str
    seed: int
    inputs: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)

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


class _Ctx:
    def __init__(self, fixtures: Path, seed: int):
        self.fixtures = Path(fixtures)
        self.seed = seed
        self.report = None  # set per command
        self.curves = {}  # path -> curve, each fixture parsed and validated once

    def path(self, rel) -> Path:
        p = Path(rel)
        if not p.is_absolute():
            cand = self.fixtures / p
            if cand.exists() or not p.exists():
                p = cand
        return p

    def record_input(self, path: Path):
        path = Path(path)
        if self.report is not None and path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            self.report.inputs[str(path.name)] = digest


def _load_curve(ctx: _Ctx, rel):
    p = ctx.path(rel)
    ctx.record_input(p)
    if p not in ctx.curves:
        ctx.curves[p] = load_curve(p)
    return ctx.curves[p]


def _fixture_curve_E(ctx):
    return _load_curve(ctx, "curves/E_1_-1.curve")


def _fixture_curve_C(ctx):
    return _load_curve(ctx, "curves/C_eq51.curve")


def _reference_invariants(ctx):
    p = ctx.path("invariants/humbert_rm8_reference.json")
    ctx.record_input(p)
    data = json.loads(p.read_text())
    order = get_order(data["order"])
    inv = tuple(
        QElement(order, [Fraction(s) for s in data["invariants"][k]])
        for k in ("I2", "I4", "I6", "I10")
    )
    alpha = QElement(order, [Fraction(s) for s in data["alpha"]])
    return inv, alpha


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
# acceptance-grade checks (shared by `full-report` and the test suite)


def check_euler_rm_at_3(ctx) -> CheckResult:
    C = _fixture_curve_C(ctx)
    K = get_order("Qsqrt13")
    got = {}
    for P in split_prime(K, 3):
        split = g2_rm_split(g2_euler_factor(C, P))
        got[tuple(P.theta_image.coeffs)] = split.as_coords()
    # the prime with theta -> 0 is (u); theta -> 1 is (u - 1)
    want_u = [(0, -1), (0, 1)]          # {sqrt2, -sqrt2}
    want_u1 = [(2, -1), (2, 1)]         # {2 - sqrt2, 2 + sqrt2}
    ok = got.get((0,)) == want_u and got.get((1,)) == want_u1
    detail = f"(u): {got.get((0,))}, (u-1): {got.get((1,))}"
    return CheckResult("euler-rm-at-3", STATUS_PASS if ok else STATUS_FAIL, detail)


def check_invariant_valuations(ctx) -> CheckResult:
    E = _fixture_curve_E(ctx)
    P2 = split_prime(get_order("Qsqrt13"), 2)[0]
    c4, c6, disc = ec_invariants(E)
    vals = (valuation_at(c4, P2), valuation_at(c6, P2), valuation_at(disc, P2))
    ok = vals == (5, 5, 4)
    return CheckResult(
        "invariant-valuations-at-2",
        STATUS_PASS if ok else STATUS_FAIL,
        f"(v(c4), v(c6), v(Delta)) = {vals}",
    )


def check_igusa_proportionality(ctx) -> CheckResult:
    C = _fixture_curve_C(ctx)
    ref, alpha = _reference_invariants(ctx)
    mine = igusa_clebsch(C)
    proj = weighted_pp_equal(mine, ref)
    exact = all(
        mine[i] == ref[i] * alpha ** (2 * d)
        for i, d in ((0, 1), (1, 2), (2, 3), (3, 5))
    )
    ok = proj and exact
    return CheckResult(
        "igusa-proportionality",
        STATUS_PASS if ok else STATUS_FAIL,
        f"weighted-projective equal: {proj}; exact with the reference alpha: {exact}",
    )


def check_projective_orders(ctx) -> CheckResult:
    C = _fixture_curve_C(ctx)
    K = get_order("Qsqrt13")
    F9 = FiniteField(3, UniPoly([-2, 0, 1]), check=False)
    orders = set()
    degenerate = False
    for q in (17, 53):
        for P in split_prime(K, q):
            split = g2_rm_split(g2_euler_factor(C, P))
            for alpha in split.pair:
                a9 = F9.element(list(alpha.coords))
                disc = a9 * a9 - 4 * F9.from_int(P.norm)
                if disc.is_zero:
                    degenerate = True
                orders.add(frobenius_projective_order(a9, P.norm))
    ok = {2, 4, 5} <= orders
    note = " (degenerate repeated-root case hit)" if degenerate else ""
    return CheckResult(
        "projective-frobenius-orders",
        STATUS_PASS if ok else STATUS_FAIL,
        f"orders at primes above 17, 53: {sorted(orders)}{note}",
    )


def congruence_failures(E, C, bound: int):
    """Good primes of norm <= bound where a(E) mod 7 misses the RM residue
    set of C; primes above 7 (the residual characteristic) and bad primes
    are excluded, following the source quantifier."""
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


def check_mod7_congruence(ctx) -> CheckResult:
    E = _fixture_curve_E(ctx)
    C = _fixture_curve_C(ctx)
    checked, failures = congruence_failures(E, C, 200)
    ok = not failures
    return CheckResult(
        "mod7-congruence-norm-200",
        STATUS_PASS if ok else STATUS_FAIL,
        f"{checked} good primes checked, {len(failures)} failures"
        + (f": {failures[:4]}" if failures else ""),
    )


def check_unit_classes_and_rank(ctx) -> CheckResult:
    """As stated in the acceptance list: 16807 classes and rank 5 over
    the primes above {2, 11, 23, 29}. The recomputed rank over that set
    is 4, by two independent routes (matrix elimination, and direct
    7th-power-residue tests of the null-vector unit combination); rank 5
    needs the six-prime set including 19. See the companion check."""
    count_ok = UnitClass.from_index(UNIT_CLASS_COUNT - 1).index == UNIT_CLASS_COUNT - 1
    Zz = get_order("Zzeta13")
    primes = [P for q in (2, 11, 23, 29) for P in split_prime(Zz, q)]
    rank = generator_independence_rank(primes)
    ok = count_ok and rank == 5
    return CheckResult(
        "unit-classes-and-rank-stated",
        STATUS_PASS if ok else STATUS_FAIL,
        f"classes {UNIT_CLASS_COUNT}; rank over primes above (2,11,23,29) = {rank}, "
        "stated value 5 is not reproducible: two independent recomputations give 4",
    )


def check_unit_rank_verified(ctx) -> CheckResult:
    Zz = get_order("Zzeta13")
    r_stated = generator_independence_rank(
        [P for q in (2, 11, 23, 29) for P in split_prime(Zz, q)]
    )
    r_proof = generator_independence_rank(
        [P for q in (2, 11, 19, 23, 29, 41) for P in split_prime(Zz, q)]
    )
    ok = r_stated == 4 and r_proof == 5
    return CheckResult(
        "unit-rank-verified",
        STATUS_PASS if ok else STATUS_FAIL,
        f"rank(2,11,23,29) = {r_stated} (expected 4); "
        f"rank(2,11,19,23,29,41) = {r_proof} (expected 5: classes separated)",
    )


def check_sieve_soundness(ctx) -> CheckResult:
    rng = random.Random(ctx.seed)
    problems = []
    # linear-algebra route == exhaustive route, one prime at a time
    for q in (2, 11, 19, 23, 29, 41):
        cons = [
            SieveConstraint(q=q, mode="parity-only" if q == 2 else "unconstrained")
        ]
        for case in ("coprime-13", "divisible-13"):
            a = {u.index for u in sieve_case(case, cons)}
            b = {u.index for u in sieve_case_exhaustive(case, cons)}
            if a != b:
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
        if cls not in sieve_case(case, cons_u):
            problems.append(f"planted class {cls.exps} died ({case})")
    # monotonicity under an added constraint
    base = [SieveConstraint(q=11, mode="unconstrained")]
    more = base + [SieveConstraint(q=2, mode="parity-only")]
    s_base = {u.index for u in sieve_case("divisible-13", base)}
    s_more = {u.index for u in sieve_case("divisible-13", more)}
    if not s_more <= s_base:
        problems.append("adding a constraint enlarged the survivor set")
    _ = rng  # seed reserved for future randomized extensions
    ok = not problems
    return CheckResult(
        "sieve-soundness",
        STATUS_PASS if ok else STATUS_FAIL,
        "routes agree on all six primes; planted classes survive; monotone"
        if ok
        else "; ".join(problems),
    )


def check_elimination_soundness(ctx) -> CheckResult:
    fam = load_family(ctx.path("families/demo_sum_rule_cubic.json"))
    ctx.record_input(ctx.path("families/demo_sum_rule_cubic.json"))
    rng = random.Random(ctx.seed)
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
        rep = standard_eliminate([pkt], fam, [5, 11])
        if rep.standard[0].surviving != "all":
            problems.append(f"self-packet ({a0},{b0}) did not survive standard")
        ref = refined_eliminate(pkt, fam, 7, [5, 11])
        if any(r.status == "eliminated" for r in ref.refined):
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
    ref = refined_eliminate(eis, fam, 7, [5, 11])
    if any(r.status == "eliminated" for r in ref.refined):
        problems.append("Eisenstein-like packet was eliminated without a skip")
    ref2 = refined_eliminate(eis, fam, 7, [5, 11], skip=["7:0"])
    if not all(r.status == "skipped" for r in ref2.refined):
        problems.append("skip list was not honored")
    ok = not problems
    return CheckResult(
        "elimination-soundness",
        STATUS_PASS if ok else STATUS_FAIL,
        "self-packets survive; level-raising packets unhurt unless skipped"
        if ok
        else "; ".join(problems),
    )


def check_contradictions(ctx) -> CheckResult:
    f11 = load_packets(ctx.path("packets/f11_fixture.json"))[0]
    ctx.record_input(ctx.path("packets/f11_fixture.json"))
    wiring = load_packets(ctx.path("packets/reducible_wiring.json"))[0]
    ctx.record_input(ctx.path("packets/reducible_wiring.json"))
    p0_f11 = primes_above_in_Qf(f11, 7)[0]
    keys = ["5.0", "5.1", "5.2"]
    got_f11 = trace_contradiction_check(f11, p0_f11, keys, (-3) % 7)
    p0_w = primes_above_in_Qf(wiring, 7)[0]
    got_w = trace_contradiction_check(wiring, p0_w, keys, 2)
    neg = not trace_contradiction_check(f11, p0_f11, keys, 6)
    ok = got_f11 and got_w and neg and p0_f11.e == 3 and p0_f11.d == 1
    return CheckResult(
        "contradiction-checkers",
        STATUS_PASS if ok else STATUS_FAIL,
        f"f11 vs -3 mod 7: {got_f11}; reducible-constituent vs 2 mod 7: {got_w}; "
        f"f11 vs its own residue 6: contradiction={not neg}",
    )


def check_external_sieve(ctx, case_name):
    return CheckResult(
        f"sieve-empty-{case_name}",
        STATUS_SKIP,
        "needs the transcribed Frey family (families/frey_sqrt13.json is an "
        "external-data slot); with it supplied the expected survivor set is empty",
    )


def check_external_elimination(ctx):
    return CheckResult(
        "four-constituents-elimination",
        STATUS_SKIP,
        "needs the transcribed Frey family over the cubic field and external "
        "eigenvalue packets; with them supplied the expected outcome is "
        "elimination of every constituent except via the documented "
        "reducible/skipped routes",
    )


CHECK_NAMES = [
    "euler-rm-at-3",
    "invariant-valuations-at-2",
    "igusa-proportionality",
    "projective-frobenius-orders",
    "mod7-congruence-norm-200",
    "unit-classes-and-rank-stated",
    "unit-rank-verified",
    "sieve-soundness",
    "elimination-soundness",
    "contradiction-checkers",
    "sieve-empty-divisible-13",
    "sieve-empty-coprime-13",
    "four-constituents-elimination",
]

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
    "sieve-empty-divisible-13": lambda ctx: check_external_sieve(ctx, "divisible-13"),
    "sieve-empty-coprime-13": lambda ctx: check_external_sieve(ctx, "coprime-13"),
    "four-constituents-elimination": check_external_elimination,
}


def run_checks(names=None, fixtures=None, seed: int = DEFAULT_SEED) -> RunReport:
    ctx = _Ctx(fixtures or _FIXTURES_DIR, seed)
    report = RunReport(command="full-report", version=__version__, seed=seed)
    ctx.report = report
    for name in names or CHECK_NAMES:
        fn = _CHECK_FNS.get(name)
        if fn is None:
            raise ValueError(f"unknown check {name!r}; known: {CHECK_NAMES}")
        t0 = time.monotonic()
        try:
            res = fn(ctx)
        except Exception as e:  # a crash is a failed check, not a crashed report
            res = CheckResult(name, STATUS_FAIL, f"{type(e).__name__}: {e}")
        res.ms = int((time.monotonic() - t0) * 1000)
        report.checks.append(res)
    return report


# ---------------------------------------------------------------------------
# commands


def _emit(args, report: RunReport) -> int:
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 1 if report.failed else 0


def cmd_split(args, ctx) -> int:
    report = RunReport(command="split", version=__version__, seed=ctx.seed)
    ctx.report = report
    order = get_order(args.order)
    for q in args.q:
        primes = split_prime(order, q)
        lines = ", ".join(
            f"{P.key} (e={P.e}, f={P.fdeg}, theta->{list(P.theta_image.coeffs)})"
            for P in primes
        )
        report.checks.append(
            CheckResult(f"split-{q}", STATUS_PASS, f"{len(primes)} primes: {lines}")
        )
    return _emit(args, report)


def cmd_trace(args, ctx) -> int:
    report = RunReport(command="trace", version=__version__, seed=ctx.seed)
    ctx.report = report
    curve = _load_curve(ctx, args.curve)
    for q in args.q:
        for P in split_prime(curve.order, q):
            name = f"trace-{P.key}"
            if isinstance(curve, EllipticCurveNF):
                rtype = ec_reduction_type(curve, P)
                if rtype != "good":
                    report.checks.append(
                        CheckResult(name, STATUS_PASS, f"bad reduction ({rtype}); not computed")
                    )
                    continue
                a = ec_trace(curve, P)
                report.checks.append(
                    CheckResult(
                        name, STATUS_PASS,
                        f"a = {a}, N = {P.norm} (|a| <= 2*sqrt(N): {a*a <= 4*P.norm})",
                    )
                )
            else:
                try:
                    e = g2_euler_factor(curve, P)
                except SingularReductionError as exc:
                    report.checks.append(CheckResult(name, STATUS_PASS, f"bad reduction: {exc}"))
                    continue
                try:
                    split = g2_rm_split(e)
                    pair = " , ".join(_fmt_nf(x) for x in sorted(split.pair, key=lambda v: v.coords))
                    extra = f"RM pair {{{pair}}}, mod-7 residues {sorted(rm_residues_mod_p7(split))}"
                except NotRMSplitError as exc:
                    extra = f"no RM split: {exc}"
                report.checks.append(
                    CheckResult(name, STATUS_PASS, f"N={e.N}, a1={e.a1}, a2={e.a2}; {extra}")
                )
    return _emit(args, report)


def cmd_igusa(args, ctx) -> int:
    report = RunReport(command="igusa", version=__version__, seed=ctx.seed)
    ctx.report = report
    curve = _load_curve(ctx, args.curve)
    if not isinstance(curve, HyperellipticCurveNF):
        print("igusa needs a sextic curve file", file=sys.stderr)
        return 2
    inv = igusa_clebsch(curve)
    for name, v in zip(("I2", "I4", "I6", "I10"), inv):
        report.checks.append(
            CheckResult(name, STATUS_PASS, f"[{', '.join(str(c) for c in v.coords)}]")
        )
    if args.reference:
        ref, alpha = _reference_invariants(ctx)
        proj = weighted_pp_equal(inv, ref)
        exact = all(
            inv[i] == ref[i] * alpha ** (2 * d)
            for i, d in ((0, 1), (1, 2), (2, 3), (3, 5))
        )
        report.checks.append(
            CheckResult(
                "reference-comparison",
                STATUS_PASS if (proj and exact) else STATUS_FAIL,
                f"weighted-projective equal: {proj}; exact with alpha: {exact}",
            )
        )
    return _emit(args, report)


def cmd_check_congruence(args, ctx) -> int:
    report = RunReport(command="check-congruence", version=__version__, seed=ctx.seed)
    ctx.report = report
    E = _load_curve(ctx, args.curve_e)
    C = _load_curve(ctx, args.curve_c)
    checked, failures = congruence_failures(E, C, args.bound)
    status = STATUS_PASS if not failures else STATUS_FAIL
    detail = f"{checked} good primes of norm <= {args.bound} checked; {len(failures)} failures"
    report.checks.append(CheckResult("mod7-congruence", status, detail))
    for key, t, res in failures:
        report.checks.append(
            CheckResult(f"failure-{key}", STATUS_FAIL, f"a={t}, a mod 7 = {t%7} not in {res}")
        )
    return _emit(args, report)


def cmd_eliminate(args, ctx) -> int:
    report = RunReport(command="eliminate", version=__version__, seed=ctx.seed)
    ctx.report = report
    fam_path = ctx.path(args.family)
    ctx.record_input(fam_path)
    try:
        fam = load_family(fam_path)
    except FamilyConfigError as e:
        if "external-data slot" in str(e):
            report.checks.append(CheckResult("family", STATUS_SKIP, str(e)))
            return _emit(args, report)
        print(f"error: {e}", file=sys.stderr)
        return 2
    pk_path = ctx.path(args.packets)
    ctx.record_input(pk_path)
    packets = load_packets(pk_path)
    q_list = [int(s) for s in args.q.split(",") if s]
    rep = standard_eliminate(packets, fam, q_list)
    for row in rep.standard:
        surv = "all primes" if row.surviving == "all" else sorted(row.surviving)
        report.checks.append(
            CheckResult(
                f"standard-{row.label}",
                STATUS_PASS,
                f"A_q = { {q: v for q, v in sorted(row.aq.items())} }, gcd = {row.overall_gcd}, "
                f"surviving exponents: {surv}",
            )
        )
    if args.refined:
        p = int(args.refined.removeprefix("p="))
        skip = [s for s in (args.skip or "").split(",") if s]
        for pkt in packets:
            ref = refined_eliminate(
                pkt, fam, p, q_list, skip=skip, skip_ramified=args.skip_ramified
            )
            for r in ref.refined:
                extra = f"witness q = {r.witness_q}" if r.witness_q else r.reason
                report.checks.append(
                    CheckResult(
                        f"refined-{r.label}-{r.residue_prime}",
                        STATUS_PASS,
                        f"{r.status}" + (f" ({extra})" if extra else ""),
                    )
                )
    return _emit(args, report)


def _load_constraints(ctx, path):
    p = ctx.path(path)
    ctx.record_input(p)
    data = json.loads(p.read_text())
    if not isinstance(data, dict) or not isinstance(data.get("constraints", []), list):
        raise ValueError("constraints: expected an object with a list of constraints")
    out = []
    for i, c in enumerate(data.get("constraints", [])):
        if not isinstance(c, dict):
            raise ValueError(f"constraints[{i}]: expected an object, got {c!r}")
        mode = c.get("mode")
        q = c.get("q")
        if isinstance(q, bool) or not isinstance(q, int) or not is_prime(q) or q == 13:
            raise ValueError(
                f"constraints[{i}].q: expected a prime other than 13, got {q!r}"
            )
        if mode in ("parity-only", "unconstrained"):
            out.append(SieveConstraint(q=q, mode=mode))
            continue
        if mode != "modular":
            raise ValueError(f"constraints[{i}]: unknown mode {mode!r}")
        fam = load_family(ctx.path(c["family"]))  # may raise external-slot error
        if "targets_from_curve" in c:
            curve = _load_curve(ctx, c["targets_from_curve"])
            targets = modular_targets_from_curve(curve, q)
        else:
            targets = c["targets"]
            if not isinstance(targets, dict):
                raise ValueError(f"constraints[{i}].targets: expected an object")
            for key, v in targets.items():
                if not isinstance(v, list) or not all(
                    isinstance(r, int) and not isinstance(r, bool) for r in v
                ):
                    raise ValueError(
                        f"constraints[{i}].targets[{json.dumps(key)}]: expected a "
                        f"list of residues mod 7, got {v!r}"
                    )
            targets = tuple(sorted((k, frozenset(v)) for k, v in targets.items()))
        out.append(SieveConstraint(q=q, mode="modular", family=fam, targets=targets))
    return out


def cmd_sieve(args, ctx) -> int:
    report = RunReport(command="sieve", version=__version__, seed=ctx.seed)
    ctx.report = report
    case = {"div13": "divisible-13", "coprime13": "coprime-13"}.get(args.case)
    if case is None:
        print("--case must be div13 or coprime13", file=sys.stderr)
        return 2
    try:
        constraints = _load_constraints(ctx, args.constraints)
    except FamilyConfigError as e:
        if "external-data slot" in str(e):
            report.checks.append(CheckResult("sieve", STATUS_SKIP, str(e)))
            return _emit(args, report)
        raise
    t0 = time.monotonic()
    survivors = sieve_case(case, constraints)
    ms = int((time.monotonic() - t0) * 1000)
    idx = sorted(u.index for u in survivors)
    first = [list(UnitClass.from_index(i).exps) for i in idx[:10]]
    report.checks.append(
        CheckResult(
            "sieve",
            STATUS_PASS,
            f"case {case}: {len(idx)} of {UNIT_CLASS_COUNT} classes survive; first {first}",
            ms=ms,
        )
    )
    if args.out:
        bits = bytearray((UNIT_CLASS_COUNT + 7) // 8)
        for i in idx:
            bits[i // 8] |= 1 << (i % 8)
        Path(args.out).write_bytes(bytes(bits))
        summary = {
            "case": case,
            "count": len(idx),
            "first": first,
            "bitset_sha256": hashlib.sha256(bytes(bits)).hexdigest(),
        }
        Path(str(args.out) + ".json").write_text(json.dumps(summary, indent=2) + "\n")
        report.checks.append(
            CheckResult("sieve-out", STATUS_PASS, f"bitset written to {args.out}")
        )
    return _emit(args, report)


def cmd_check_invariants(args, ctx) -> int:
    """Randomized spot checks of arithmetic invariants (seeded)."""
    report = RunReport(command="check-invariants", version=__version__, seed=ctx.seed)
    ctx.report = report
    rng = random.Random(ctx.seed)
    problems = []

    F = FiniteField(5, UniPoly([3, 0, 1]), check=False)  # F_25
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
    from .unitsieve import char_value

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

    status = STATUS_PASS if not problems else STATUS_FAIL
    detail = "all randomized invariants hold" if not problems else "; ".join(sorted(set(problems)))
    report.checks.append(CheckResult("randomized-invariants", status, detail))
    return _emit(args, report)


def cmd_full_report(args, ctx) -> int:
    names = None
    if args.only:
        names = [s for s in args.only.split(",") if s]
    report = run_checks(names=names, fixtures=ctx.fixtures, seed=ctx.seed)
    return _emit(args, report)


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
    ctx = _Ctx(Path(args.fixtures), args.seed)
    try:
        return args.fn(args, ctx)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
