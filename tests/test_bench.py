"""The benchmark in bench/ still runs against the library: its probe, one
unit each of two workloads run untraced and traced, with equal outputs, and
units of all three workloads checked against the recorded references.  An
API change that breaks the benchmark, or a change that moves a sweep CSV, a
rate result or a codec CSV, fails here, not first in a benchmark run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _timed(fn, *args):
    return fn(*args)


def test_probe_calls_every_layer():
    tr = Tracer()
    workloads.probe(tr)
    names = {span[0] for span in tr.spans}
    for layer in ("svp.best_integer_block", "codec.union_bound", "codec.simulate_codec.k121"):
        assert layer in names


@pytest.mark.parametrize("workload", [workloads.SweepHeadline, workloads.RateHighSnr])
def test_traced_unit_matches_untraced(workload, tmp_path):
    w = workload()
    outcomes = workloads.Outcomes()
    base = w.baseline(0, str(tmp_path / "unit.csv"), outcomes, _timed)
    got = w.traced(0, Tracer(), workloads.new_counters())
    assert outcomes.attempted and not outcomes.failed
    assert w.same(base, got)


def test_sweep_units_match_reference(tmp_path):
    # cflat sweep's CSV bytes (sha256) on 16 pool seeds, spread over the pool
    w = workloads.SweepHeadline()
    outcomes = workloads.Outcomes()
    for i in range(0, w.size, w.size // 16):
        w.run(i, str(tmp_path / "unit.csv"), outcomes, _timed)
    assert outcomes.attempted == 16 and outcomes.failed == 0


def test_rate_units_match_reference(tmp_path):
    # exact coefficients and rate_bits within 1e-9 on 10 pool channels
    w = workloads.RateHighSnr()
    outcomes = workloads.Outcomes()
    for i in range(0, w.size, w.size // 10):
        w.run(i, str(tmp_path / "unit.csv"), outcomes, _timed)
    assert outcomes.attempted == 10 * w.unit_ops and outcomes.failed == 0


def test_codec_unit_matches_reference(tmp_path):
    # both codes' cflat codec CSVs, byte for byte, on pool index 0
    w = workloads.CodecMix()
    outcomes = workloads.Outcomes()
    w.run(0, str(tmp_path / "unit.csv"), outcomes, _timed)
    assert outcomes.attempted == len(workloads.CODEC_RUNS)
    assert outcomes.failed == 0 and outcomes.known_failures == 0
