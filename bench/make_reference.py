#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every unit against.

    python3 bench/make_reference.py [sweep] [rate] [codec]

With no argument all three are written to bench/reference/.  Run it only in a
change that touches nothing but the benchmark, so that the reference is the
output of the code the change starts from.  Takes about seven minutes on a
2-core shared Xeon with Python 3.11 and numpy 2.4.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys

from run import OUT_DIR, use_checkout_sources

use_checkout_sources()

import workloads as wl  # noqa: E402


def _call(fn, *args):
    return fn(*args)


def _write_json(name: str, obj) -> None:
    with open(os.path.join(wl.REF_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def make_sweep(tmp: str) -> None:
    entries = []
    for seed in wl.SWEEP_POOL:
        code, data = wl.sweep_cli(seed, tmp, _call)
        entry = {"seed": seed, "exit": code}
        if code == 0:
            entry["sha256"] = hashlib.sha256(data).hexdigest()
        entries.append(entry)
    _write_json("sweep.json", {"trials": wl.SWEEP_TRIALS, "entries": entries})


def make_rate() -> None:
    fields = wl.rate_fields()
    lines = []
    for c in range(wl.RATE_CHANNELS):
        h = wl.rate_channel(c)
        for d, snr in wl.RATE_COMBOS:
            out = wl.rate_call(fields[d], h, snr, _call)
            lines.append(wl.rate_record(out))
    # mtime=0 keeps the file bytes a function of its content
    with gzip.GzipFile(os.path.join(wl.REF_DIR, "rate.txt.gz"), "wb", mtime=0) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


def make_codec(tmp: str) -> None:
    entries = []
    for seed in wl.CODEC_POOL:
        entry = {"seed": seed}
        for run in wl.CODEC_RUNS:
            code, text = wl.codec_cli(run, seed, tmp, _call)
            entry[run.name] = {"exit": code, "csv": None if text is None else text.decode()}
        entries.append(entry)
    _write_json("codec.json", {"entries": entries})


def main(argv: list[str]) -> int:
    parts = argv or ["sweep", "rate", "codec"]
    unknown = set(parts) - {"sweep", "rate", "codec"}
    if unknown:
        print(f"unknown part(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    os.makedirs(wl.REF_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"reference-{os.getpid()}.csv")
    if "sweep" in parts:
        make_sweep(tmp)
    if "rate" in parts:
        make_rate()
    if "codec" in parts:
        make_codec(tmp)
    if os.path.exists(tmp):
        os.unlink(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
