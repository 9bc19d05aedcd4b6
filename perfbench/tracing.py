"""Span and counter wrappers installed on fermatkit from outside.

fermatkit binds many functions by ``from .x import name`` at import
time (``cli``, ``elimination`` and ``unitsieve`` all hold their own
references to ``ec_trace``, ``reduce_element``, ``split_prime`` ...), so
patching only the defining module would miss most calls. ``install``
replaces the original function object under every attribute of every
loaded ``fermatkit`` module that refers to it.

Spans stay in memory as ``[name, start, end, parent index, attrs,
raised]`` and are written once, when the sample ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

import workloads

# (module, function, attrs(args, kwargs) or None)
SPAN_TARGETS = (
    ("numberfield", "split_prime", lambda a, k: (a[0].label, a[1])),
    ("numberfield", "reduce_element", None),
    ("curves", "hyp_count_points", lambda a, k: (a[1].norm, a[2] if len(a) > 2 else k.get("ext", 1))),
    ("curves", "ec_trace", lambda a, k: a[1].norm),
    ("newformdata", "load_packets", None),
    ("newformdata", "packet_from_curve", None),
    ("elimination", "Aq", None),
    ("elimination", "Bq", None),
    ("elimination", "standard_eliminate", None),
    ("elimination", "refined_eliminate", None),
    ("unitsieve", "build_character", None),
    ("unitsieve", "char_value", lambda a, k: a[0].prime.q),
    ("unitsieve", "sieve_case", None),
    ("unitsieve", "sieve_case_exhaustive", lambda a, k: tuple(c.q for c in a[1])),
    ("unitsieve", "generator_independence_rank", None),
)

SIEVE_QS = tuple(q for q in workloads.PROOF_SET_QS if q != 2)  # 2 is parity-only
CHECK_NAMES = (workloads.CONGRUENCE_CHECKS + workloads.ELIMINATION_CHECKS
               + workloads.SIEVE_CHECKS)

# The layer each workload's wall time should be mostly made of.
BULK_LAYER = {
    "congruence": ("curves.hyp_count_points", lambda attrs: attrs[1] == 2),
    "elimination": ("curves.ec_trace", None),
    "sieve": ("unitsieve.char_value", None),
    "sieve-oracle": ("unitsieve.sieve_case_exhaustive", None),
}


def rebind(original, replacement) -> int:
    """Point every fermatkit module attribute bound to `original` at
    `replacement`; returns the number of bindings replaced."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fermatkit" or mod_name.startswith("fermatkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   attrs(args, kwargs) if attrs else None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def around(self, op_id, fn):
        """Root span of one benchmark operation."""
        return self.span(f"op:{op_id}", fn)()

    def install(self):
        for mod_name, fn_name, attrs in SPAN_TARGETS:
            mod = importlib.import_module(f"fermatkit.{mod_name}")
            orig = getattr(mod, fn_name)
            if rebind(orig, self.span(f"{mod_name}.{fn_name}", orig, attrs)) == 0:
                raise RuntimeError(f"fermatkit.{mod_name}.{fn_name} is bound nowhere")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, attrs, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "attrs": attrs,
                                     "raised": raised}) + "\n")


def install_counters():
    """Count FFElement multiplies and powers (the counting pass).

    Returns a dict that fills in as the workload runs. Powers call the
    multiply internally, so their multiplies are counted too.
    """
    from fermatkit.exactarith import FFElement

    counts = {"exactarith.ff_mul.calls": 0, "exactarith.ff_pow.calls": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    mul, power = FFElement.__mul__, FFElement.__pow__
    FFElement.__mul__ = counted("exactarith.ff_mul.calls", mul)
    FFElement.__rmul__ = counted("exactarith.ff_mul.calls", mul)
    FFElement.__pow__ = counted("exactarith.ff_pow.calls", power)
    return counts


def layer_metrics(spans, workload: str, traced_wall: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced sample."""
    by_name = {}
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, attrs, raised in spans:
        by_name.setdefault(name, []).append((t1 - t0, attrs, raised))
        if parent >= 0:
            child_time[parent] += t1 - t0

    def recs(name, pred=None, finished=False):
        return [(d, a) for d, a, raised in by_name.get(name, [])
                if (pred is None or pred(a)) and not (finished and raised)]

    def calls(name, pred=None):
        return (len(recs(name, pred)), "count")

    def ms(name, pred=None):
        return (sum(d for d, _ in recs(name, pred)) * 1e3, "ms")

    out = {}
    seen, cold = set(), 0.0
    for d, key in recs("numberfield.split_prime"):
        if key not in seen:
            seen.add(key)
            cold += d
    out["numberfield.split_prime.calls"] = calls("numberfield.split_prime")
    out["numberfield.split_prime.cold_ms"] = (cold * 1e3, "ms")
    out["numberfield.reduce_element.calls"] = calls("numberfield.reduce_element")
    out["numberfield.reduce_element.ms"] = ms("numberfield.reduce_element")

    for ext in (1, 2):
        pred = lambda a, ext=ext: a[1] == ext  # noqa: E731
        out[f"curves.hyp_count_points.ext{ext}.calls"] = calls("curves.hyp_count_points", pred)
        out[f"curves.hyp_count_points.ext{ext}.ms"] = ms("curves.hyp_count_points", pred)
    out["curves.ec_trace.calls"] = calls("curves.ec_trace")
    out["curves.ec_trace.ms"] = ms("curves.ec_trace")
    # a count that raised (singular reduction) enumerated nothing
    counting = [(d, a[0] ** a[1]) for d, a in recs("curves.hyp_count_points", finished=True)]
    counting += recs("curves.ec_trace", finished=True)
    busy = sum(d for d, _ in counting)
    out["curves.points_per_s"] = (sum(n for _, n in counting) / busy if busy else 0.0, "1/s")

    out["newformdata.load_packets.ms"] = ms("newformdata.load_packets")
    out["newformdata.packet_from_curve.calls"] = calls("newformdata.packet_from_curve")
    out["newformdata.packet_from_curve.ms"] = ms("newformdata.packet_from_curve")

    out["elimination.Aq.calls"] = calls("elimination.Aq")
    out["elimination.Aq.ms"] = ms("elimination.Aq")
    out["elimination.Bq.calls"] = calls("elimination.Bq")
    std = [d for d, _ in recs("elimination.standard_eliminate")]
    out["elimination.standard_eliminate.cold_ms"] = (std[0] * 1e3 if std else 0.0, "ms")
    out["elimination.standard_eliminate.warm_ms"] = (
        statistics.median(std[1:]) * 1e3 if len(std) > 1 else 0.0, "ms")
    out["elimination.refined_eliminate.ms"] = ms("elimination.refined_eliminate")

    out["unitsieve.build_character.calls"] = calls("unitsieve.build_character")
    out["unitsieve.build_character.ms"] = ms("unitsieve.build_character")
    for q in SIEVE_QS:
        pred = lambda a, q=q: a == q  # noqa: E731
        out[f"unitsieve.char_value.calls.q{q}"] = calls("unitsieve.char_value", pred)
        out[f"unitsieve.char_value.ms.q{q}"] = ms("unitsieve.char_value", pred)
    self_s = sum(t1 - t0 - child_time[i]
                 for i, (name, t0, t1, *_) in enumerate(spans)
                 if name == "unitsieve.sieve_case")
    out["unitsieve.sieve_case.self_ms"] = (self_s * 1e3, "ms")
    for q in workloads.ORACLE_QS:
        out[f"unitsieve.sieve_case_exhaustive.ms.q{q}"] = ms(
            "unitsieve.sieve_case_exhaustive", lambda a, q=q: a == (q,))
    out["unitsieve.generator_independence_rank.ms"] = ms("unitsieve.generator_independence_rank")

    for name in CHECK_NAMES:
        out[f"cli.check_ms.{name}"] = ms(f"op:check:{name}")
    out["cli.check_ms.eliminate"] = ms("op:cmd:eliminate")

    layer, pred = BULK_LAYER[workload]
    out["bench.bulk_layer_share"] = (ms(layer, pred)[0] / 1e3 / traced_wall, "ratio")
    return out
