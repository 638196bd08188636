"""Inputs, reference checks and unit runners for the three workloads.

Every workload is a sequence of units drawn from a fixed input pool, so each
unit has an output recorded in ``bench/reference/`` by ``make_reference.py``.
``--seed`` picks the order in which a run walks its pool; a run stops taking
units when its time is up, or when the pool is used up.

- sweep-headline: a unit is ``cflat sweep`` at its defaults with
  ``SWEEP_TRIALS`` trials and one pool seed as ``--seed``.
- rate-highsnr: a unit is one pool channel (n=2 blocks, L=3 users) with one
  ``best_equation`` call per (field, SNR) in ``RATE_COMBOS``.
- codec-mix: a unit is the two whole ``cflat codec`` runs of ``CODEC_RUNS``,
  one CLI call each, with one pool seed as ``--seed``.

Each unit can also run traced: the same work made of public library calls
with a span around each, which must give outputs bit-equal to the untraced
path.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from cflat import cli
from cflat.channel import BlockFadingChannel, am_rate, mac_sum_capacity, naive_rate
from cflat.codec import (
    NestedCodePair,
    RadiusTooSmall,
    build_construction_a,
    simulate_codec,
    union_bound,
)
from cflat.numfield import RingElement, make_quadratic_field, prime_above
from cflat.simkit import SweepConfig, run_sweep, sample_channels
from cflat.svp import (
    best_equation,
    best_integer_block,
    build_search_basis,
    shortest_vector,
)

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

SWEEP_TRIALS = 20
SWEEP_POOL = tuple(1000 + i for i in range(256))
SWEEP_CFG = SweepConfig()  # n=2, L=2, 0:5:50 dB, the six headline schemes

RATE_POOL_SEED = 20170204
RATE_CHANNELS = 1200
RATE_L = 3
RATE_COMBOS = tuple(
    (d, snr) for d in (None, 3, 5, 7) for snr in (40.0, 50.0, 60.0, 70.0, 80.0)
)
# relative tolerance for rate_bits against the reference: the runtime noise
# identity check in cflat.channel uses the same value
RATE_REL_TOL = 1e-9

CODEC_POOL = tuple(100 + i for i in range(24))
PROBE_SEED = 424242
PROBE_CODEC_TRIALS = 4096


@dataclass(frozen=True)
class CodecRun:
    name: str
    d: int
    p: int
    T: int
    lf: int
    lc: int
    snr_db: str
    trials: int

    @property
    def snrs(self) -> tuple[float, ...]:
        start, step, stop = (float(x) for x in self.snr_db.split(":"))
        return tuple(start + k * step for k in range(int((stop - start) / step) + 1))

    def argv(self, seed: int, output: str) -> list[str]:
        return [
            "codec", "--d", str(self.d), "--p", str(self.p), "--T", str(self.T),
            "--lf", str(self.lf), "--lc", str(self.lc), "--snr-db", self.snr_db,
            "--trials", str(self.trials), "--seed", str(seed), "--output", output,
        ]  # fmt: skip


CODEC_RUNS = (
    CodecRun("k11", d=5, p=11, T=2, lf=1, lc=0, snr_db="0:5:30", trials=100_000),
    CodecRun("k121", d=5, p=11, T=2, lf=2, lc=1, snr_db="0:10:60", trials=20_000),
)


def pool_order(workload: str, seed: int, size: int) -> list[int]:
    """Seed-determined walk over range(size) that visits each index once."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    start = int.from_bytes(digest[:8], "big") % size
    step = 1 + int.from_bytes(digest[8:16], "big") % (size - 1)
    while math.gcd(step, size) != 1:
        step += 1
    return [(start + k * step) % size for k in range(size)]


# ---------------------------------------------------------------------------
# outcomes and references


class Outcomes:
    """Checked operations.  An operation is the reference commit's outcome
    reproduced: its output, or the same exception or exit code where the
    reference failed.  A mismatch is a failed operation and makes the run
    incorrect.  A failure the reference also shows is a known failure: the
    operation reproduced it, and it is counted apart, so that it stays
    visible in `fail_ratio` without making `failed` depend on how many
    operations fit in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0
        self.by_type: dict[str, int] = {}

    def add(self, status: str, error: str | None = None) -> None:
        self.attempted += 1
        if status == "mismatch":
            self.failed += 1
        elif status == "known":
            self.known_failures += 1
        if error is not None:
            self.by_type[error] = self.by_type.get(error, 0) + 1

    @property
    def fail_ratio(self) -> float:
        """Operations that raised or exited non-zero, or mismatched."""
        return (self.failed + self.known_failures) / self.attempted


def _ref_path(name: str) -> str:
    return os.path.join(REF_DIR, name)


def load_json_reference(name: str) -> dict:
    with open(_ref_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def load_rate_reference() -> list[str]:
    # line by line, so the whole text is never held at once
    with gzip.open(_ref_path("rate.txt.gz"), "rt", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def rate_record(out) -> str:
    """One reference line: the coefficient coordinates and rate_bits, or the
    exception type."""
    if isinstance(out, Exception):
        return "err " + type(out).__name__
    coords = []
    for a in out.a:
        coords.extend(a.coords if isinstance(a, RingElement) else (a,))
    return "ok " + " ".join(str(int(x)) for x in coords) + f" {out.rate_bits!r}"


def check_rate(ref_line: str, out) -> str:
    """Status of one rate call: the same coefficients and rate_bits within
    RATE_REL_TOL, or the same exception type (a known failure)."""
    got = rate_record(out)
    if ref_line.startswith("err "):
        return "known" if got == ref_line else ("ok" if got.startswith("ok ") else "mismatch")
    if not got.startswith("ok "):
        return "mismatch"
    ref_parts, got_parts = ref_line.split(), got.split()
    if ref_parts[:-1] != got_parts[:-1]:
        return "mismatch"
    r_ref, r_got = float(ref_parts[-1]), float(got_parts[-1])
    ok = math.isclose(r_got, r_ref, rel_tol=RATE_REL_TOL, abs_tol=1e-12)
    return "ok" if ok else "mismatch"


# ---------------------------------------------------------------------------
# untraced units: the user-facing paths.  `timed(fn, *args)` returns
# fn(*args) and records its wall time.


def _cli(argv: list[str], timed) -> int:
    """Run cflat's CLI in-process and return its exit code; its error
    messages are dropped, exit codes are checked instead."""
    with contextlib.redirect_stderr(io.StringIO()):
        return timed(cli.main, argv)


def _read(path: str, code: int) -> bytes | None:
    if code != 0:
        return None
    with open(path, "rb") as fh:
        return fh.read()


def sweep_cli(seed: int, output: str, timed) -> tuple[int, bytes | None]:
    argv = ["sweep", "--trials", str(SWEEP_TRIALS), "--seed", str(seed),
            "--threads", "1", "--output", output]  # fmt: skip
    code = _cli(argv, timed)
    return code, _read(output, code)


def codec_cli(run: CodecRun, seed: int, output: str, timed) -> tuple[int, bytes | None]:
    code = _cli(run.argv(seed, output), timed)
    return code, _read(output, code)


def rate_fields() -> dict:
    return {d: (None if d is None else make_quadratic_field(d)) for d, _ in RATE_COMBOS}


def rate_channel(c: int) -> np.ndarray:
    return sample_channels(RATE_POOL_SEED, c, 2, RATE_L)


def _rate(field, h, snr_db: float):
    return best_equation(field, BlockFadingChannel(h, 10.0 ** (snr_db / 10.0)))


def rate_call(field, h, snr_db: float, timed):
    """One ``cflat rate`` computation: the candidate, or the exception raised."""
    try:
        return timed(_rate, field, h, snr_db)
    except Exception as exc:  # counted by type; the run goes on
        return exc


# ---------------------------------------------------------------------------
# traced units: the same work as public calls, one span each


def new_counters() -> dict:
    return {
        "nodes_z": [],
        "nodes_ring": [],
        "ub_calls": 0,
        "ub_accepted": 0,
        "ub_terms": 0,
        "identity_failures": 0,
        "failures": {},
    }


def merge_counters(into: dict, c: dict) -> None:
    for key, val in c.items():
        if isinstance(val, list):
            into[key].extend(val)
        elif isinstance(val, dict):
            for k, n in val.items():
                into[key][k] = into[key].get(k, 0) + n
        else:
            into[key] += val


def count_failure(counters: dict, exc: Exception) -> None:
    name = type(exc).__name__
    counters["failures"][name] = counters["failures"].get(name, 0) + 1
    if isinstance(exc, AssertionError) and "noise identity" in str(exc):
        counters["identity_failures"] += 1


def _coefficients(field, coords, L: int) -> tuple:
    if field is None:
        return tuple(int(x) for x in coords)
    deg = field.degree
    return tuple(
        RingElement(int(coords[l * deg]), int(coords[l * deg + 1])) for l in range(L)
    )


def traced_best_equation(tr, field, ch, counters):
    """best_equation as its three public steps."""
    B = tr.call("svp.build_search_basis", build_search_basis, field, ch)
    kind = "z" if field is None else "ring"
    res = tr.call("svp.shortest_vector." + kind, shortest_vector, B)
    counters["nodes_" + kind].append(int(res.node_count))
    a = _coefficients(field, res.coords, ch.L)
    return tr.call("channel.am_rate", am_rate, ch, a, field)


def _scheme(name: str):
    if name == "mac":
        return ("mac", None)
    if name == "naive_Z":
        return ("naive", None)
    if name == "am_Z":
        return ("am", None)
    return ("am", int(name[len("am_ring(") : -1]))


def sweep_traced(tr, seed: int, trials: int, counters) -> np.ndarray:
    """run_sweep's per-trial loop at SWEEP_CFG: sample_channels, then per SNR
    and scheme mac_sum_capacity, naive_rate (best_integer_block as its timed
    solver) or build_search_basis -> shortest_vector -> am_rate."""
    cfg = SWEEP_CFG
    parsed = [_scheme(s) for s in cfg.schemes]
    fields = {d: make_quadratic_field(d) for _, d in parsed if d is not None}
    Ps = [10.0 ** (s / 10.0) for s in cfg.snr_db]
    rates = np.zeros((len(parsed), len(Ps), trials))

    def solver(h_j, P):
        return tr.call("svp.best_integer_block", best_integer_block, h_j, P)

    for t in range(trials):
        tr.request = t
        with tr.span("simkit.trial"):
            h = tr.call("simkit.sample_channels", sample_channels, seed, t, cfg.n, cfg.L)
            for si, P in enumerate(Ps):
                ch = BlockFadingChannel(h, P)
                for k, (kind, d) in enumerate(parsed):
                    if kind == "mac":
                        r = tr.call("channel.mac_sum_capacity", mac_sum_capacity, ch)
                    elif kind == "naive":
                        r = tr.call("channel.naive_rate", naive_rate, ch, solver)[2]
                    else:
                        r = traced_best_equation(tr, fields.get(d), ch, counters).rate_bits
                    rates[k, si, t] = r
    return rates


def rate_traced(tr, c: int, fields: dict, counters) -> list:
    """One rate unit; returns per-combo candidates or exceptions."""
    tr.request = c
    h = tr.call("simkit.sample_channels", sample_channels, RATE_POOL_SEED, c, 2, RATE_L)
    outs = []
    for d, snr in RATE_COMBOS:
        with tr.span("rate.call"):
            ch = BlockFadingChannel(h, 10.0 ** (snr / 10.0))
            try:
                out = traced_best_equation(tr, fields[d], ch, counters)
            except Exception as exc:
                count_failure(counters, exc)
                out = exc
        outs.append(out)
    return outs


def traced_union_bound(tr, lat, cand, counters, min_terms: int = 1000) -> float:
    """``cflat codec``'s radius loop: double the radius while no vector is
    inside, grow it by 1.5 while fewer than min_terms terms are."""
    radius = lat.gamma * math.sqrt(lat.n * lat.T)
    ub = None
    for _ in range(30):
        counters["ub_calls"] += 1
        try:
            ub = tr.call("codec.union_bound", union_bound, lat, cand.nu_sq, radius)
        except RadiusTooSmall:
            radius *= 2.0
            continue
        counters["ub_terms"] += ub.terms
        if ub.terms >= min_terms:
            break
        radius *= 1.5
    counters["ub_accepted"] += 1
    return ub.value


def codec_traced(tr, run: CodecRun, seed: int, counters, snrs=None, trials=None) -> str:
    """``cflat codec`` as library calls; returns the CSV text it would write."""
    snrs = run.snrs if snrs is None else snrs
    trials = run.trials if trials is None else trials
    field = tr.call("numfield.make_quadratic_field", make_quadratic_field, run.d)
    prime = tr.call("numfield.prime_above", prime_above, field, run.p)
    codes = NestedCodePair(
        p=run.p, r=prime.r, T=run.T, l_f=run.lf, l_c=run.lc,
        G_f=cli._default_generator(run.T, run.lf),
    )  # fmt: skip
    h = tr.call("simkit.sample_channels", sample_channels, seed, 0, field.degree, 2)
    rows = ["snr_db,error_rate,stderr,union_bound,trials"]
    sim_name = "codec.simulate_codec." + run.name
    for i, snr in enumerate(snrs):
        tr.request = i
        with tr.span("codec.snr_point"):
            P = 10.0 ** (snr / 10.0)
            ch = BlockFadingChannel(h, P)
            lat = tr.call("codec.build_construction_a", build_construction_a, field, prime, codes, P)
            with tr.span("codec.best_equation"):
                cand = traced_best_equation(tr, field, ch, counters)
            sim = tr.call(sim_name, simulate_codec, lat, ch, cand, trials, seed)
            tr.add(sim_name + ".trials", trials)
            with tr.span("codec.union_bound_loop"):
                ub = traced_union_bound(tr, lat, cand, counters)
        rows.append(f"{snr:g},{sim.error_rate:.6e},{sim.stderr:.6e},{ub:.6e},{sim.trials}")
    return "\n".join(rows) + "\n"


def probe(tr) -> None:
    """Small fixed inputs that call every timed layer: one headline sweep
    trial and one SNR point of each codec run.  Used for the per-layer
    timings a workload's own calls do not produce."""
    scratch = new_counters()
    sweep_traced(tr, PROBE_SEED, 1, scratch)
    for run in CODEC_RUNS:
        codec_traced(tr, run, PROBE_SEED, scratch, snrs=(20.0,), trials=PROBE_CODEC_TRIALS)


# ---------------------------------------------------------------------------
# the workloads: pool, untraced run, traced run, and the fidelity check.
# run() takes the user-facing path and checks it against the reference.
# baseline() takes the untraced path whose outputs same() compares with
# traced(); it records one outcome per operation.  A traced run reports
# exact counters over its first `counted_units` units; the same seed gives
# the same units, so the counters repeat exactly.  An untraced run reads the
# peak resident set after its first `rss_units` units, about 20 s of work.


def _error(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}"


def _cli_status(code: int, ref_exit: int, matches: bool) -> str:
    """Status of one CLI call against its reference: a call that failed in
    the reference and succeeds now is a success."""
    if code != 0:
        return "known" if ref_exit != 0 else "mismatch"
    if ref_exit != 0:
        return "ok"
    return "ok" if matches else "mismatch"


class SweepHeadline:
    name = "sweep-headline"
    size = len(SWEEP_POOL)
    rss_units = 40
    counted_units = 2
    unit_ops = SWEEP_TRIALS * len(SWEEP_CFG.snr_db) * len(SWEEP_CFG.schemes)

    def __init__(self):
        ref = load_json_reference("sweep.json")
        if ref["trials"] != SWEEP_TRIALS:
            raise ValueError("sweep reference was made with another trial count")
        self.ref = {e["seed"]: e for e in ref["entries"]}
        self.csv_sizes: list[int] = []

    def run(self, i: int, tmp: str, outcomes, timed) -> int:
        seed = SWEEP_POOL[i]
        code, data = sweep_cli(seed, tmp, timed)
        ref = self.ref[seed]
        matches = data is not None and hashlib.sha256(data).hexdigest() == ref.get("sha256")
        outcomes.add(_cli_status(code, ref["exit"], matches), _error(code))
        if data is not None:
            self.csv_sizes.append(len(data))
        return self.unit_ops

    def baseline(self, i: int, tmp: str, outcomes, timed):
        """run_sweep itself, whose per-trial rates the traced run must match.
        Its CSV is checked against the reference by run(), not here."""
        seed = SWEEP_POOL[i]
        try:
            res = timed(run_sweep, SweepConfig(trials=SWEEP_TRIALS, master_seed=seed), 1)
        except Exception as exc:
            outcomes.add("known" if self.ref[seed]["exit"] != 0 else "mismatch", type(exc).__name__)
            return exc
        outcomes.add("ok")
        return res

    def traced(self, i: int, tr, counters):
        try:
            return sweep_traced(tr, SWEEP_POOL[i], SWEEP_TRIALS, counters)
        except Exception as exc:
            count_failure(counters, exc)
            return exc

    @staticmethod
    def same(base, got) -> bool:
        if isinstance(base, Exception) or isinstance(got, Exception):
            return type(base) is type(got)
        return base.rates.shape == got.shape and base.rates.tobytes() == got.tobytes()


class RateHighSnr:
    name = "rate-highsnr"
    size = RATE_CHANNELS
    rss_units = 400
    counted_units = 25
    unit_ops = len(RATE_COMBOS)

    def __init__(self):
        self.ref = load_rate_reference()
        if len(self.ref) != RATE_CHANNELS * len(RATE_COMBOS):
            raise ValueError("rate reference does not match the input pool")
        self.fields = rate_fields()
        self.csv_sizes: list[int] = []

    def baseline(self, i: int, tmp: str, outcomes, timed) -> list:
        h = rate_channel(i)
        outs = []
        for j, (d, snr) in enumerate(RATE_COMBOS):
            out = rate_call(self.fields[d], h, snr, timed)
            err = type(out).__name__ if isinstance(out, Exception) else None
            outcomes.add(check_rate(self.ref[i * len(RATE_COMBOS) + j], out), err)
            outs.append(out)
        return outs

    def run(self, i: int, tmp: str, outcomes, timed) -> int:
        self.baseline(i, tmp, outcomes, timed)
        return self.unit_ops

    def traced(self, i: int, tr, counters):
        return rate_traced(tr, i, self.fields, counters)

    @staticmethod
    def same(base, got) -> bool:
        for b, g in zip(base, got, strict=True):
            if isinstance(b, Exception) or isinstance(g, Exception):
                if type(b) is not type(g):
                    return False
            elif b.a != g.a or b.rate_bits.hex() != g.rate_bits.hex():
                return False
        return True


class CodecMix:
    name = "codec-mix"
    size = len(CODEC_POOL)
    rss_units = 4
    counted_units = 1
    unit_ops = sum(run.trials * len(run.snrs) for run in CODEC_RUNS)

    def __init__(self):
        self.ref = {e["seed"]: e for e in load_json_reference("codec.json")["entries"]}
        self.csv_sizes: list[int] = []

    def baseline(self, i: int, tmp: str, outcomes, timed) -> list:
        """Each run as one whole ``cflat codec`` call, its CSV checked against
        the reference; returns each run's CSV text, or None when it failed."""
        seed = CODEC_POOL[i]
        texts = []
        for run in CODEC_RUNS:
            ref = self.ref[seed][run.name]
            code, data = codec_cli(run, seed, tmp, timed)
            matches = data is not None and data.decode() == ref["csv"]
            outcomes.add(_cli_status(code, ref["exit"], matches), _error(code))
            if data is not None:
                self.csv_sizes.append(len(data))
            texts.append(None if data is None else data.decode())
        return texts

    def run(self, i: int, tmp: str, outcomes, timed) -> int:
        self.baseline(i, tmp, outcomes, timed)
        return self.unit_ops

    def traced(self, i: int, tr, counters):
        outs = []
        for run in CODEC_RUNS:
            try:
                outs.append(codec_traced(tr, run, CODEC_POOL[i], counters))
            except Exception as exc:
                count_failure(counters, exc)
                outs.append(exc)
        return outs

    @staticmethod
    def same(base, got) -> bool:
        return all(
            isinstance(g, Exception) if b is None else b == g
            for b, g in zip(base, got, strict=True)
        )


WORKLOADS = {w.name: w for w in (SweepHeadline, RateHighSnr, CodecMix)}
