#!/usr/bin/env python3
"""cflat benchmark: one command for three workloads.

    python3 bench/run.py --workload sweep-headline --seed 1 --seconds 30 --trace 0

Workloads are sweep-headline, rate-highsnr and codec-mix (see
bench/README.md).  With ``--trace 0`` the run takes the user-facing paths
untraced and reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it also runs each unit as traced public calls, checks that they
reproduce the untraced outputs bit for bit, and reports the per-layer metrics.
Readable ``name value unit`` lines come first; the last line of standard
output is one JSON object.  Each run leaves its record (and, traced, its
spans) in bench/out/.  Everything runs in this one process on one thread,
except the set-up timing, which starts fresh interpreters one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS.  With one per core, the
# large matrix products of codec-mix ran partly on the second core, so the
# workload's speed followed whatever else that core was doing.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")

SETUP_REPS = 9
CAL_SEED = 1
CAL_REPS = 1500
CAL_EVERY_S = 0.5
CAL_NOMINAL_S = 0.0275
NUMFIELD_REPS = 20
TIMED_SPANS = (
    "svp.build_search_basis",
    "svp.shortest_vector.z",
    "svp.shortest_vector.ring",
    "svp.best_integer_block",
    "channel.am_rate",
    "channel.naive_rate",
    "channel.mac_sum_capacity",
    "simkit.sample_channels",
    "codec.simulate_codec.k11",
    "codec.simulate_codec.k121",
    "codec.union_bound_loop",
    "codec.build_construction_a",
    "codec.best_equation",
)
# numpy is imported before the clock starts: loading its shared libraries
# took 0.09 s in one batch of fresh interpreters and 0.15 s in the next on a
# shared 2-core host, and no change to cflat moves it
SETUP_CODE = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from cflat import make_quadratic_field, prime_above
fields = [make_quadratic_field(d) for d in (3, 5, 7)]
prime_above(fields[1], 11)
print(time.perf_counter() - t0)
"""


class FidelityError(RuntimeError):
    """The traced run did not reproduce the untraced work."""


class HostSpeed:
    """How fast the host runs this process now, from a fixed kernel timed
    between calls into cflat, once per CAL_EVERY_S seconds of run.

    On a shared host the same cflat call takes up to 40% longer for tens of
    seconds to minutes, with CPU time rising with wall time, so no run
    length averages it out.  The kernel is small numpy linear algebra driven
    from Python, the mix most of cflat's time is, and its time follows those
    swings.  In two sets of ten runs per workload on a shared 2-core Xeon at
    2.1 GHz, the interquartile range over the median of raw throughput was
    up to 6.6%, 16.4% and 14.2% (sweep-headline, rate-highsnr, codec-mix);
    of throughput times `factor`, up to 3.2%, 9.0% and 9.9%.  `factor` is
    the median kernel time over CAL_NOMINAL_S, the kernel's median over 12
    minutes on that host.
    No cflat code runs in the kernel, so a change to cflat cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(CAL_SEED)
        self._m = rng.standard_normal((6, 6))
        self._g = self._m @ self._m.T + 6.0 * np.eye(6)
        self.samples: list[float] = []
        self._last: float | None = None
        self._due = 0.0

    def _kernel(self) -> float:
        m, g = self._m, self._g
        acc = 0.0
        for k in range(CAL_REPS):
            v = np.linalg.solve(np.linalg.cholesky(g), m[k % 6])
            acc += float(v @ v)
        return acc

    def poll(self) -> None:
        """Time the kernel once per CAL_EVERY_S seconds passed since the
        last poll that timed it, so that a long call is followed by as many
        timings as short calls over the same time would be."""
        now = perf_counter()
        if now < self._due:
            return
        n = 1 if self._last is None else round((now - self._last) / CAL_EVERY_S)
        for _ in range(n):
            t0 = perf_counter()
            self._kernel()
            self.samples.append(perf_counter() - t0)
        self._last = perf_counter()
        self._due = self._last + CAL_EVERY_S

    @property
    def factor(self) -> float:
        return statistics.median(self.samples) / CAL_NOMINAL_S


class Timer:
    """`timer(fn, *args)` returns fn(*args) and appends its wall time to
    `walls`, also when fn raises.  With a HostSpeed, it polls it first,
    outside the timing."""

    def __init__(self, walls=None, speed: HostSpeed | None = None):
        self.walls: list[float] = [] if walls is None else walls
        self.speed = speed

    def __call__(self, fn, *args):
        if self.speed is not None:
            self.speed.poll()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.walls.append(perf_counter() - t0)


def use_checkout_sources() -> None:
    """Import cflat from this checkout's src/ and nowhere else."""
    pkg = os.path.join(SRC, "cflat", "__init__.py")
    if not os.path.isfile(pkg):
        raise SystemExit(f"error: {pkg} not found; run from a full cflat checkout")
    sys.path.insert(0, SRC)
    import cflat

    if os.path.abspath(cflat.__file__) != pkg:
        raise SystemExit(f"error: imported cflat from {cflat.__file__}, not {pkg}")


# ---------------------------------------------------------------------------
# run metadata


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cflat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> float:
    """Seconds of cflat's import plus field and prime set-up in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    return float(proc.stdout.split()[-1])


def _rss_mb() -> float:
    """Resident set of this process now."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w, seed: int, seconds: float, tmp: str, outcomes) -> dict:
    import workloads as wl

    walls = []
    speed = HostSpeed()
    ops = 0
    setup = []
    peak = None
    # the interpreter, numpy, cflat and the reference are loaded by now
    rss_before = _rss_mb()
    start = perf_counter()
    for k, i in enumerate(wl.pool_order(w.name, seed, w.size), 1):
        # set-up samples spread over the run, outside the call timings
        if perf_counter() - start >= len(setup) * seconds / SETUP_REPS:
            setup.append(measure_setup())
        ops += w.run(i, tmp, outcomes, Timer(walls, speed))
        # the resident set keeps growing with the units run, so it is read
        # after a fixed number of them: a faster cflat runs more units
        if k == w.rss_units:
            peak = _peak_rss_mb()
        if perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup())
    return {
        "walls": walls,
        "speed": speed,
        "ops": ops,
        "setup": setup,
        "rss_before_mb": rss_before,
        "rss_units": min(k, w.rss_units),
        "peak_rss_mb": (peak or _peak_rss_mb()) - rss_before,
    }


def run_traced(w, seed: int, seconds: float, tmp: str, outcomes):
    import workloads as wl
    from cflat.numfield import make_quadratic_field, prime_above

    tr = Tracer()
    for _ in range(NUMFIELD_REPS):
        fields = [tr.call("numfield.make_quadratic_field", make_quadratic_field, d) for d in (3, 5, 7)]
        tr.call("numfield.prime_above", prime_above, fields[1], 11)

    counted = wl.new_counters()
    first = None
    base_wall = traced_wall = 0.0
    n_counted = w.counted_units
    start = perf_counter()
    for k, i in enumerate(wl.pool_order(w.name, seed, w.size)):
        counters = wl.new_counters()
        timer = Timer()
        # alternate which side runs first, so warm-up favours neither
        if k % 2:
            base = w.baseline(i, tmp, outcomes, timer)
        t0 = perf_counter()
        with tr.span("bench.unit"):
            got = w.traced(i, tr, counters)
        traced_wall += perf_counter() - t0
        if not k % 2:
            base = w.baseline(i, tmp, outcomes, timer)
        base_wall += sum(timer.walls)
        if not w.same(base, got):
            raise FidelityError(f"{w.name} unit {i}: traced outputs differ from the untraced path")
        if k == 0:
            first = (i, counters)
        if k < n_counted:
            wl.merge_counters(counted, counters)
        if k + 1 >= n_counted and perf_counter() - start >= seconds:
            break

    again = wl.new_counters()
    w.traced(first[0], Tracer(), again)
    if again != first[1]:
        raise FidelityError(f"{w.name} unit {first[0]}: counters differ when the unit is repeated")

    probed = [name for name in TIMED_SPANS if not tr.durations(name)]
    probe_tr = Tracer()
    if probed:
        wl.probe(probe_tr)
    return tr, probe_tr, probed, counted, traced_wall / base_wall - 1.0


def layer_metrics(tr, probe_tr, counted, overhead: float, csv_sizes) -> dict:
    def source(name):
        return tr if tr.durations(name) else probe_tr

    def timed(name, q=50.0, scale=1e6):
        return scale * percentile(source(name).durations(name), q)

    def per_trial_us(name):
        t = source(name)
        return 1e6 * sum(t.durations(name)) / t.counts[name + ".trials"]

    svp_time = 0.0
    for name, t0, t1, parent, _ in tr.spans:
        if name.startswith("svp.") and (parent < 0 or not tr.spans[parent][0].startswith("svp.")):
            svp_time += t1 - t0
    unit_time = sum(tr.durations("bench.unit"))
    nz, nr = counted["nodes_z"], counted["nodes_ring"]
    nodes = nz + nr
    calls, accepted = counted["ub_calls"], counted["ub_accepted"]
    failures = sum(counted["failures"].values())
    naive_self = source("channel.naive_rate").self_times("channel.naive_rate")
    return {
        "svp.build_search_basis.us": timed("svp.build_search_basis"),
        "svp.shortest_vector.z.us": timed("svp.shortest_vector.z"),
        "svp.shortest_vector.ring.us": timed("svp.shortest_vector.ring"),
        "svp.shortest_vector.ring.us_p99": timed("svp.shortest_vector.ring", 99.0),
        "svp.best_integer_block.us": timed("svp.best_integer_block"),
        "svp.nodes.mean": statistics.fmean(nodes) if nodes else 0.0,
        "svp.nodes.max": max(nodes, default=0),
        "svp.nodes.z.mean": statistics.fmean(nz) if nz else 0.0,
        "svp.nodes.z.max": max(nz, default=0),
        "svp.nodes.ring.mean": statistics.fmean(nr) if nr else 0.0,
        "svp.nodes.ring.max": max(nr, default=0),
        "svp.share": svp_time / unit_time,
        "channel.am_rate.us": timed("channel.am_rate"),
        "channel.naive_rate.self_us": 1e6 * percentile(naive_self, 50.0),
        "channel.mac_sum_capacity.us": timed("channel.mac_sum_capacity"),
        "channel.identity_failures": counted["identity_failures"],
        "simkit.sample_channels.us": timed("simkit.sample_channels"),
        "codec.simulate_codec.k11.us_per_trial": per_trial_us("codec.simulate_codec.k11"),
        "codec.simulate_codec.k121.us_per_trial": per_trial_us("codec.simulate_codec.k121"),
        "codec.union_bound.ms": timed("codec.union_bound_loop", scale=1e3),
        "codec.union_bound.calls": calls,
        "codec.union_bound.retries": calls - accepted,
        "codec.union_bound.terms": counted["ub_terms"],
        "codec.union_bound.useful_ratio": accepted / calls if calls else 0.0,
        "codec.build_construction_a.ms": timed("codec.build_construction_a", scale=1e3),
        "codec.best_equation.us": timed("codec.best_equation"),
        "numfield.make_quadratic_field.us": timed("numfield.make_quadratic_field"),
        "numfield.prime_above.us": timed("numfield.prime_above"),
        "cli.csv_bytes": statistics.fmean(csv_sizes) if csv_sizes else 0.0,
        "fail.other_types": failures - counted["identity_failures"],
        "trace.overhead_ratio": overhead,
    }


# ---------------------------------------------------------------------------


def _emit(spec: list, values: dict) -> dict:
    """Metrics in BENCHMARK.json order with their units; every listed metric
    must have been measured and nothing else."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        missing, extra = set(names) - set(values), set(values) - set(names)
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    meta = metadata(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}.csv")
    w = wl.WORKLOADS[args.workload]()
    outcomes = wl.Outcomes()
    record = {"meta": meta}
    try:
        if args.trace:
            tr, probe_tr, probed, counted, overhead = run_traced(
                w, args.seed, args.seconds, tmp, outcomes
            )
            values = layer_metrics(tr, probe_tr, counted, overhead, w.csv_sizes)
            metrics = _emit(spec["per_layer"], values)
            samples = {n: len(tr.durations(n)) for n in TIMED_SPANS if n not in probed}
            record.update(probed=probed, samples=samples, failures_by_type=counted["failures"])
            spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv")
            tr.write_csv(spans_path)
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
            print(f"# spans per timed call: {json.dumps(samples)}")
            print(f"# timed on the probe input, not called by this workload: {probed}")
            print(f"# failures by type: {json.dumps(counted['failures'], sort_keys=True)}")
            print(f"# {len(tr.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            res = run_untraced(w, args.seed, args.seconds, tmp, outcomes)
            setup = res["setup"]
            speed = res["speed"]
            raw = res["ops"] / sum(res["walls"])
            values = {
                "ops_per_s_nominal": raw * speed.factor,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = _emit(spec["end_to_end"], values)
            named = {
                "sweep-headline": "sweep_evals_per_s",
                "rate-highsnr": "rate_calls_per_s",
                "codec-mix": "codec_trials_per_s",
            }
            print(f"{named[w.name]} {raw:.6g} 1/s "
                  f"({res['ops']} ops in {len(res['walls'])} calls)")  # fmt: skip
            print(f"ops_per_s_nominal {values['ops_per_s_nominal']:.6g} 1/s (host speed factor "
                  f"{speed.factor:.4g} from {len(speed.samples)} kernel timings)")  # fmt: skip
            if w.name == "rate-highsnr":
                n = len(res["walls"])
                for q in (50, 99):
                    print(f"rate_call_ms.p{q} {1e3 * percentile(res['walls'], q):.6g} ms (n={n})")
            print(f"setup_s {values['setup_s']:.6g} s (median of {len(setup)})")
            print(f"fail_ratio {outcomes.fail_ratio:.6g} ratio "
                  f"({outcomes.known_failures} known failures, {outcomes.failed} mismatches)")
            print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB (over the first {res['rss_units']} "
                  f"units, above {res['rss_before_mb']:.6g} MB resident before them)")  # fmt: skip
            print(f"# failures by type: {json.dumps(outcomes.by_type, sort_keys=True)}")
            record.update(
                setup_samples=setup, ops=res["ops"], calls=len(res["walls"]),
                ops_per_s=raw, speed_samples=speed.samples,
                rss_before_mb=res["rss_before_mb"],
            )  # fmt: skip
    except FidelityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

    meta["loadavg_1m_end"] = os.getloadavg()[0]
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    record.update(result=result, known_failures=outcomes.known_failures,
                  fail_ratio=outcomes.fail_ratio)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key in ("seed", "git_commit", "python", "numpy", "nproc", "cpu_model",
                "loadavg_1m_start", "loadavg_1m_end"):  # fmt: skip
        print(f"# {key}: {meta[key]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
