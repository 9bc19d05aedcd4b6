"""One benchmark sample, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/sample.py MODE WORKLOAD SEED [--refs PATH]

MODE is one of
  setup   import fermatkit, load and validate the workload's fixtures, exit;
  plain   run the workload's operations untraced and gate their outputs,
          calibrating the machine's speed (see Calibrator);
  traced  the same with span wrappers installed; writes the spans;
  count   the same with FFElement multiply/power counters installed;
  probe   time one multiply and one (N-1)/7 power per field shape.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import signal
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# Machine-speed calibration. The host's speed swings by +-20% within
# seconds and drifts over minutes, and a second vCPU does not see the same
# swings, so the speed must be sampled in this process while the workload
# runs. Every CAL_INTERVAL_S of wall time a SIGALRM handler (run by the
# interpreter between bytecodes of the main thread) times CAL_STEPS steps
# of small-integer arithmetic mod 11 on 3-tuples, the kind of work
# fermatkit's field elements do. The cyclic GC is held off during a
# chunk, so that a collection of the workload's garbage is not timed
# (and subtracted) as calibration.
CAL_INTERVAL_S = 0.005
CAL_STEPS = 80
# The speed is taken per window of this much wall time, because it
# changes within a sample.
CAL_WINDOW_S = 1.0
# The chunk's typical median on the 2-vCPU VM of BASELINE.json; a time
# rescaled by REF_CHUNK_S / (the median chunk time) is what it would
# have taken at that speed.
REF_CHUNK_S = 15.5e-6


class Calibrator:
    def __init__(self):
        # start and seconds of each chunk, as raw doubles: thousands of
        # small objects kept alive would pin the allocator's arenas and
        # make the sample's peak RSS vary with how many ticks it took
        self.starts = array("d")
        self.secs = array("d")

    def _tick(self, signum, frame):
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        x = (1, 2, 3)
        for i in range(CAL_STEPS):
            x = ((x[0] * x[1] + i) % 11, x[1] * x[2] % 11, (x[2] + 3 * x[0]) % 11)
        self.secs.append(perf_counter() - t0)
        self.starts.append(t0)
        if gc_was_on:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def cal_s(self) -> float:
        """Seconds spent in the chunks."""
        return sum(self.secs)

    @staticmethod
    def speed(secs) -> float:
        """REF_CHUNK_S / median chunk time; 1.0 with no chunk."""
        return REF_CHUNK_S / statistics.median(secs) if secs else 1.0

    def rescale(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, without the chunks, at the reference
        speed: each CAL_WINDOW_S window at the speed measured in it (a
        window without a tick at the last one measured)."""
        total, speed = 0.0, self.speed(self.secs)
        start = t0
        while start < t1:
            end = min(start + CAL_WINDOW_S, t1)
            secs = [d for t, d in zip(self.starts, self.secs) if start <= t < end]
            if secs:
                speed = self.speed(secs)
            total += (end - start - sum(secs)) * speed
            start = end
        return total


def import_fermatkit():
    import fermatkit
    import fermatkit.cli  # noqa: F401  (imports every module, as the CLI does)

    here = Path(fermatkit.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"fermatkit was imported from {here}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_setup(workload, seed, refs):
    import_fermatkit()
    import fermatkit
    from fermatkit.curves import load_curve
    from fermatkit.elimination import load_family
    from fermatkit.newformdata import load_packets

    fixtures = Path(fermatkit.__file__).parent / "fixtures"
    for rel in workloads.FIXTURES[workload]:
        path = fixtures / rel
        if rel.startswith("curves/"):
            load_curve(path)
        elif rel.startswith("families/"):
            load_family(path)
        elif rel.startswith("packets/"):
            load_packets(path)
        else:
            json.loads(path.read_text())
    return {}


def run_workload(workload: str, seed: int, refs: dict, around=None):
    ops = workloads.plan(workload, seed)
    expected = workloads.expected_digests(refs, workload, seed)
    wall, outcomes = workloads.run_ops(ops, expected, around)
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "ops": [list(o) for o in outcomes],
    }


def calibrated_run(workload, seed, refs, around=None):
    """run_workload with the calibration ticking. wall_s excludes the
    ticks; wall_ref_s is wall_s at the reference speed."""
    cal = Calibrator()
    cal.start()
    t0 = perf_counter()
    out = run_workload(workload, seed, refs, around)
    t1 = perf_counter()
    cal.stop()
    out["wall_s"] -= cal.cal_s()
    out["wall_ref_s"] = cal.rescale(t0, t1)
    out["speed"] = out["wall_ref_s"] / out["wall_s"]
    return out


def do_plain(workload, seed, refs):
    import_fermatkit()
    return calibrated_run(workload, seed, refs)


def do_traced(workload, seed, refs):
    """Spans include the calibration ticks (under 1% of the time), so
    that the tracing overhead can be taken at the reference speed."""
    import_fermatkit()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    out = calibrated_run(workload, seed, refs, around=tracer.around)
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{workload}.jsonl"  # the latest traced run
    tracer.write(spans_path)
    out["layers"] = tracing.layer_metrics(tracer.spans, workload, out["wall_s"])
    out["spans"] = str(spans_path.relative_to(ROOT))
    return out


def do_count(workload, seed, refs):
    import_fermatkit()
    import tracing

    counts = tracing.install_counters()
    out = run_workload(workload, seed, refs)
    out["counts"] = counts
    return out


# label -> (order, rational prime, expected residue field order, tower)
PROBE_SHAPES = {
    "f2_12": ("Zzeta13", 2, 2**12, False),
    "f29_3": ("Zzeta13", 29, 29**3, False),
    "f23_6": ("Zzeta13", 23, 23**6, False),
    "f11_12": ("Zzeta13", 11, 11**12, False),
    "f19_12": ("Zzeta13", 19, 19**12, False),
    "f41_12": ("Zzeta13", 41, 41**12, False),
    "f11_3": ("K13cubic", 11, 11**3, False),
    "f11_2x2": ("Qsqrt13", 11, 11**2, True),  # QuadExt over F_{11^2}
}
POW7_SHAPES = ("f2_12", "f29_3", "f23_6", "f11_12", "f19_12", "f41_12")
MUL_REPS = 21
POW_REPS = 7


def _timed(fn):
    t0 = perf_counter()
    r = fn()
    return perf_counter() - t0, r


def do_probe(workload, seed, refs):
    """Kernel probes: residue fields come from split_prime, so the moduli
    are the ones the workloads use. Cold is the first call on the field
    in this process; warm is the median of the repeats after it."""
    import_fermatkit()
    from fermatkit.exactarith import QuadExt, field_nonsquare
    from fermatkit.numberfield import get_order, split_prime

    rng = random.Random(seed)
    metrics, ops = {}, []
    for label, (order, q, size, tower) in PROBE_SHAPES.items():
        base = split_prime(get_order(order), q)[0].residue_field
        if base.order != size:
            raise RuntimeError(f"{label}: residue field has {base.order} elements")

        def nonzero():
            return base.from_index(rng.randrange(1, size))

        if tower:
            field = QuadExt(base, field_nonsquare(base))
            x, y = field.element(nonzero(), nonzero()), field.element(nonzero(), nonzero())
        else:
            field = base
            x, y = nonzero(), nonzero()
        cold, xy = _timed(lambda: x * y)
        warm = [_timed(lambda: x * y)[0] for _ in range(MUL_REPS)]
        metrics[f"exactarith.mul_cold_us.{label}"] = (cold * 1e6, "us")
        metrics[f"exactarith.mul_us.{label}"] = (statistics.median(warm) * 1e6, "us")
        ops.append((f"probe:mul:{label}", xy == y * x, ""))
        if label in POW7_SHAPES:
            e = (field.order - 1) // 7
            cold, r = _timed(lambda: x**e)
            warm = [_timed(lambda: x**e)[0] for _ in range(POW_REPS)]
            metrics[f"exactarith.pow7_cold_ms.{label}"] = (cold * 1e3, "ms")
            metrics[f"exactarith.pow7_ms.{label}"] = (statistics.median(warm) * 1e3, "ms")
            # r lies in the order-7 subgroup
            ops.append((f"probe:pow7:{label}", r**7 == field.one(), ""))
    return {"metrics": metrics, "ops": [list(o) for o in ops]}


MODES = {
    "setup": do_setup,
    "plain": do_plain,
    "traced": do_traced,
    "count": do_count,
    "probe": do_probe,
}


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        # the parent times the whole process and rescales it by this speed
        cal = Calibrator()
        cal.start()
        do_setup(workload, seed, None)
        cal.stop()
        print(json.dumps({"cal_s": cal.cal_s(), "speed": cal.speed(cal.secs)}))
        return
    refs = workloads.load_refs(
        argv[argv.index("--refs") + 1] if "--refs" in argv else workloads.REFS_PATH)
    out = MODES[mode](workload, seed, refs)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
