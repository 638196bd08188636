import math

import numpy as np
import pytest

import cflat.simkit as simkit
import cflat.svp as svp
from cflat.channel import BlockFadingChannel, mac_sum_capacity, naive_rate
from cflat.numfield import make_quadratic_field
from cflat.simkit import (
    InsufficientPoints,
    SweepConfig,
    SweepResult,
    dof_slope,
    run_sweep,
    sample_channels,
)
from cflat.svp import best_equation

SMALL = SweepConfig(
    snr_db=(0.0, 10.0, 20.0),
    trials=25,
    schemes=("mac", "naive_Z", "am_Z", "am_ring(5)"),
    master_seed=9,
)


class TestSampleChannels:
    def test_deterministic(self):
        a = sample_channels(123, 7, 2, 2)
        b = sample_channels(123, 7, 2, 2)
        assert np.array_equal(a, b)
        assert a.shape == (2, 2)

    def test_distinct_across_indices_and_seeds(self):
        a = sample_channels(123, 7, 2, 2)
        assert not np.array_equal(a, sample_channels(123, 8, 2, 2))
        assert not np.array_equal(a, sample_channels(124, 7, 2, 2))

    def test_moments(self):
        vals = np.concatenate(
            [sample_channels(5, t, 2, 2).ravel() for t in range(25000)]
        )
        assert len(vals) == 100000
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0) < 0.03

    def test_cross_index_correlation(self):
        a = np.array([sample_channels(5, t, 2, 2).ravel() for t in range(20000)])
        x, y = a[:-1].ravel(), a[1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.02


class TestRunSweep:
    def test_single_trial_mac_matches_direct(self):
        cfg = SweepConfig(snr_db=(7.0,), trials=1, schemes=("mac",), master_seed=3)
        res = run_sweep(cfg)
        h = sample_channels(3, 0, 2, 2)
        want = mac_sum_capacity(BlockFadingChannel(h, 10 ** 0.7))
        assert res.mean[0, 0] == pytest.approx(want, rel=1e-12)
        assert res.stderr[0, 0] == 0.0

    def test_ring_dominates_z_per_trial(self):
        res = run_sweep(SMALL)
        kr = SMALL.schemes.index("am_ring(5)")
        kz = SMALL.schemes.index("am_Z")
        assert np.all(res.rates[kr] >= res.rates[kz])

    def test_monotone_in_snr_per_trial(self):
        res = run_sweep(SMALL)
        for k in range(len(SMALL.schemes)):
            diffs = np.diff(res.rates[k], axis=0)
            assert np.all(diffs >= -1e-12)

    def test_common_random_numbers(self, monkeypatch):
        calls = []
        real = simkit.sample_channels

        def counting(seed, t, n, L):
            calls.append(t)
            return real(seed, t, n, L)

        monkeypatch.setattr(simkit, "sample_channels", counting)
        run_sweep(SMALL)
        # exactly one draw per trial, shared across schemes and SNR points
        assert sorted(calls) == list(range(SMALL.trials))

    def test_stderr_formula(self):
        res = run_sweep(SMALL)
        k = SMALL.schemes.index("mac")
        want = res.rates[k, 0].std(ddof=1) / math.sqrt(SMALL.trials)
        assert res.stderr[k, 0] == pytest.approx(want, rel=1e-12)

    def test_deterministic_and_thread_independent(self):
        r1 = run_sweep(SMALL, threads=1)
        r2 = run_sweep(SMALL, threads=1)
        r3 = run_sweep(SMALL, threads=3)
        assert np.array_equal(r1.rates, r2.rates)
        assert np.array_equal(r1.rates, r3.rates)
        assert np.array_equal(r1.mean, r3.mean)

    @pytest.mark.parametrize(
        "snr_db",
        [SweepConfig().snr_db, tuple(float(s) for s in range(0, 210, 10)), (50.0, 0.0, 30.0)],
        ids=["default", "0-200", "non-monotone"],
    )
    def test_warm_start_equals_cold_calls(self, snr_db, monkeypatch):
        # run_sweep starts each ring LLL from the previous SNR point's
        # transform; its rates must be bit-equal to cold best_equation calls
        cfg = SweepConfig(snr_db=snr_db, trials=30, master_seed=11)
        warm_calls = []
        real = svp._lll_reduce

        def recording(rows, start=None):
            warm_calls.append(start is not None)
            return real(rows, start)

        monkeypatch.setattr(svp, "_lll_reduce", recording)
        res = run_sweep(cfg)
        rings = sum(s.startswith("am_ring") for s in cfg.schemes)
        assert sum(warm_calls) == cfg.trials * (len(snr_db) - 1) * rings

        fields = {d: make_quadratic_field(d) for d in (3, 5, 7)}
        cold = np.zeros_like(res.rates)
        for t in range(cfg.trials):
            h = sample_channels(cfg.master_seed, t, cfg.n, cfg.L)
            for si, snr in enumerate(snr_db):
                ch = BlockFadingChannel(h, 10.0 ** (snr / 10.0))
                for k, name in enumerate(cfg.schemes):
                    if name == "mac":
                        cold[k, si, t] = mac_sum_capacity(ch)
                    elif name == "naive_Z":
                        cold[k, si, t] = naive_rate(ch)[2]
                    else:
                        d = None if name == "am_Z" else int(name[len("am_ring(") : -1])
                        cold[k, si, t] = best_equation(fields.get(d), ch).rate_bits
        assert res.rates.tobytes() == cold.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(trials=0)
        with pytest.raises(ValueError):
            SweepConfig(schemes=())
        with pytest.raises(ValueError):
            SweepConfig(schemes=("bogus",))
        with pytest.raises(ValueError):
            SweepConfig(snr_db=(float("nan"),))


class TestDofSlope:
    def synthetic(self, slope):
        snr = tuple(float(s) for s in range(30, 55, 5))
        xs = np.array([0.5 * (s / 10) * math.log2(10) for s in snr])
        mean = (slope * xs).reshape(1, -1)
        return SweepResult(
            snr_db=snr,
            schemes=("mac",),
            trials=1,
            seed=0,
            mean=mean,
            stderr=np.zeros_like(mean),
            rates=mean[:, :, None],
            dof={},
        )

    @pytest.mark.parametrize("slope", [0.5, 1.0, 2.0])
    def test_recovers_known_slope(self, slope):
        res = self.synthetic(slope)
        assert dof_slope(res, "mac", (30, 50)) == pytest.approx(slope, rel=1e-9)

    def test_insufficient_points(self):
        res = self.synthetic(1.0)
        with pytest.raises(InsufficientPoints):
            dof_slope(res, "mac", (49, 50))

    def test_sweep_populates_dof(self):
        cfg = SweepConfig(
            snr_db=(30.0, 40.0, 50.0), trials=5, schemes=("mac",), master_seed=2
        )
        res = run_sweep(cfg)
        assert res.dof["mac"] == pytest.approx(2.0, abs=0.25)
