"""The package's record classes: what a fresh import loads, and the
equality, hash, repr and immutability their callers rely on."""

import os
import pickle
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from fermatkit.curves import EllipticCurveNF, EulerFactorG2
from fermatkit.elimination import load_family
from fermatkit.exactarith import UniPoly
from fermatkit.numberfield import NumberFieldOrder, PrimeIdealData, get_order, split_prime
from fermatkit.unitsieve import UNIT_CLASS_COUNT, SieveConstraint, UnitClass

SRC = Path(__file__).resolve().parents[1] / "src"
FAMILY = SRC / "fermatkit" / "fixtures" / "families" / "demo_sum_rule_sqrt13.json"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each check runs in a fresh CLI process, which pays for every module
    the import loads; `dataclasses` brings `inspect`, `ast`, `dis` and
    `tokenize`. A subprocess, because pytest itself imports both. -S keeps
    the site packages' .pth files out of the count."""
    code = ("import sys, fermatkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _qsqrt13_curve():
    K = get_order("Qsqrt13")
    u = K.theta()
    return EllipticCurveNF(a1=K.zero(), a2=-u, a3=K.zero(), a4=9 * u - 25, a6=-17 * u + 49)


def _hashed_records():
    """One of each hashed record, with the tuple its hash is taken of."""
    K = get_order("Qsqrt13")
    P = split_prime(K, 3)[0]
    E = _qsqrt13_curve()
    fam = load_family(FAMILY)
    c = SieveConstraint(q=11, mode="unconstrained")
    return [
        (K, (K.label, K.poly, K.excluded_primes)),
        (P, (P.order, P.q, P.index, P.factor, P.e, P.fdeg)),
        (E, (E.a1, E.a2, E.a3, E.a4, E.a6)),
        (EulerFactorG2(N=9, a1=2, a2=7), (9, 2, 7)),
        (fam, (fam.label, fam.order, fam.coeffs, fam.mult_rule, fam.excluded_primes,
               fam.residue_conditions)),
        (UnitClass((1, 2, 3, 4, 5)), ((1, 2, 3, 4, 5),)),
        (c, (11, "unconstrained", None, None)),
    ]


@pytest.mark.parametrize("i", range(7), ids=[
    "NumberFieldOrder", "PrimeIdealData", "EllipticCurveNF", "EulerFactorG2",
    "FreyFamily", "UnitClass", "SieveConstraint"])
def test_hashed_records(i):
    """Hashes of the same field tuples as before, so no set or dict
    iterates in another order; never equal to a plain tuple; and no
    field can be assigned or deleted."""
    rec, fields = _hashed_records()[i]
    assert hash(rec) == hash(fields)
    assert rec != fields
    name = next(iter(vars(rec))) if hasattr(rec, "__dict__") else "exps"
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) is before


def test_prime_equality_ignores_the_residue_field():
    P = split_prime(get_order("Zzeta13"), 29)[1]
    bare = PrimeIdealData(order=P.order, q=P.q, index=P.index, factor=P.factor, e=P.e,
                          fdeg=P.fdeg, residue_field=None, theta_image=None)
    assert bare == P and hash(bare) == hash(P)
    other = split_prime(get_order("Zzeta13"), 29)[2]
    assert other != P


def test_equal_records_share_lru_cache_entries():
    """Two equal but distinct instances are one cache key."""
    @lru_cache(maxsize=None)
    def key(x):
        return object()

    K = NumberFieldOrder("Qsqrt13", UniPoly([-3, -1, 1]))
    fam = load_family(FAMILY)
    pairs = [
        (K, get_order("Qsqrt13")),
        (fam, load_family(FAMILY)),
        (SieveConstraint(11, "unconstrained"), SieveConstraint(11, "unconstrained")),
        (SieveConstraint(11, "modular", fam, (("11.0", frozenset({1})),)),
         SieveConstraint(11, "modular", load_family(FAMILY), (("11.0", frozenset({1})),))),
    ]
    for a, b in pairs:
        assert a is not b
        assert key(a) is key(b)
    assert key.cache_info().hits == len(pairs)
    assert key(SieveConstraint(19, "unconstrained")) is not key(pairs[2][0])


def test_unit_class_index_round_trip_and_pickle():
    for n in range(UNIT_CLASS_COUNT):
        u = UnitClass.from_index(n)
        assert u == UnitClass(u.exps) and u.index == n
    for u in (UnitClass((6, 0, 3, 1, 2)), UnitClass.from_index(16806)):
        v = pickle.loads(pickle.dumps(u))
        assert v == u and v.index == u.index and hash(v) == hash(u)


def test_elliptic_curve_repr_and_invariants():
    """The repr error messages show (`ec_trace` formats {E!r}): the five
    coefficients by name, nothing of the invariants kept on the instance."""
    E = _qsqrt13_curve()
    assert repr(E) == (
        "EllipticCurveNF(a1=NF(Qsqrt13; [0, 0]), a2=NF(Qsqrt13; [0, -1]), "
        "a3=NF(Qsqrt13; [0, 0]), a4=NF(Qsqrt13; [-25, 9]), a6=NF(Qsqrt13; [49, -17]))"
    )
    assert E == _qsqrt13_curve() and E is not _qsqrt13_curve()
