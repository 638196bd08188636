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
from cflat.svp import best_equation, build_search_basis
from blas_kernels import outputs_per_kernel
from hypothesis import given, settings, strategies as st

def cold_rates(cfg):
    """Each rate of run_sweep(cfg) from a cold mac_sum_capacity, naive_rate
    or best_equation call, (schemes, SNR points, trials), in run_sweep's
    error order: every trial's channel at every SNR point, then scheme by
    scheme over (SNR point, trial)."""
    fields = {d: make_quadratic_field(d) for d in (3, 5, 7)}
    hs = [sample_channels(cfg.master_seed, t, cfg.n, cfg.L) for t in range(cfg.trials)]
    chans = [[BlockFadingChannel(h, 10.0 ** (snr / 10.0)) for h in hs] for snr in cfg.snr_db]
    cold = np.zeros((len(cfg.schemes), len(cfg.snr_db), cfg.trials))
    for k, name in enumerate(cfg.schemes):
        for si, row in enumerate(chans):
            for t, ch in enumerate(row):
                if name == "mac":
                    cold[k, si, t] = mac_sum_capacity(ch)
                elif name == "naive_Z":
                    cold[k, si, t] = naive_rate(ch)[2]
                else:
                    d = None if name == "am_Z" else int(name[len("am_ring(") : -1])
                    cold[k, si, t] = best_equation(fields.get(d), ch).rate_bits
    return cold


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
        "snr_db, trials, L, seed, schemes",
        [
            (SweepConfig().snr_db, 30, 2, 11, SweepConfig().schemes),
            (tuple(float(s) for s in range(0, 210, 10)), 30, 2, 11, SweepConfig().schemes),
            ((50.0, 0.0, 30.0), 30, 2, 11, SweepConfig().schemes),
            (SweepConfig().snr_db, 1, 2, 11, SweepConfig().schemes),
            (SweepConfig().snr_db, 6, 3, 11, SweepConfig().schemes),
            (tuple(float(s) for s in range(0, 310, 10)), 100, 2, 1,
             ("am_ring(3)", "am_ring(5)", "am_ring(7)")),
        ],
        ids=["default", "0-200", "non-monotone", "one-trial", "L3", "ring-0-300"],
    )  # fmt: skip
    def test_sweep_equals_cold_calls(self, snr_db, trials, L, seed, schemes, monkeypatch):
        # run_sweep evaluates each scheme over all (SNR point, trial) pairs
        # as one batch, the ring schemes' searches as one joint search, with
        # an odd-even LLL over every basis; its rates must be bit-equal to
        # cold best_equation, naive_rate and mac_sum_capacity calls.  A basis
        # runs the scalar LLL and its enumeration only where the batch takes
        # no certified answer: every basis the batch could not finish
        # exactly, and those past the rounding guard or near a tie within
        # its window: none up to 200 dB, and at most the measured 2,106 of
        # the 9,300 ring bases of ring-0-300
        cfg = SweepConfig(snr_db=snr_db, trials=trials, L=L, schemes=schemes, master_seed=seed)
        scalar_calls, inexact = [], []
        real_reduce, real_batch = svp._lll_reduce, svp._lll_batch

        def recording_reduce(rows):
            scalar_calls.append(rows)
            return real_reduce(rows)

        def recording_batch(cols):
            out = real_batch(cols)
            inexact.append(int((~out[4]).sum()))
            return out

        monkeypatch.setattr(svp, "_lll_reduce", recording_reduce)
        monkeypatch.setattr(svp, "_lll_batch", recording_batch)
        res = run_sweep(cfg)
        assert sum(inexact) <= len(scalar_calls) <= (2106 if max(snr_db) > 200 else 0)
        # a batch per chunk of the joint ring search, which takes every ring
        # scheme's bases for a run of _LLL_CHUNK // rings channels, and one
        # per chunk of the joint integer search, which takes am_Z's bases and
        # naive_Z's n block roots for a run of _LLL_CHUNK // ints channels
        items = len(snr_db) * trials
        rings = sum(s.startswith("am_ring") for s in cfg.schemes)
        chunks = -(-items // (svp._LLL_CHUNK // rings)) if rings else 0
        ints = ("am_Z" in cfg.schemes) + cfg.n * ("naive_Z" in cfg.schemes)
        z_chunks = -(-items // (svp._LLL_CHUNK // ints)) if ints else 0
        assert len(inexact) == chunks + z_chunks

        cold = cold_rates(cfg)
        assert res.rates.tobytes() == cold.tobytes()

    def test_batched_errors_keep_their_messages(self):
        # the first failing trial's error, as cold calls raise it: the
        # overflow of P||h_j||^2 at 3080 dB, and the noise identity at
        # 3000 dB, where a batch overflows to inf as Python floats do
        P = 10.0 ** (3080.0 / 10.0)
        with pytest.raises(ValueError) as batch:
            run_sweep(SweepConfig(snr_db=(0.0, 3080.0), trials=20, schemes=("mac",)))
        with pytest.raises(ValueError) as single:
            for t in range(20):
                BlockFadingChannel(sample_channels(1, t, 2, 2), P)
        assert "overflows P*||h_j||^2" in str(batch.value)
        assert str(batch.value) == str(single.value)

        P = 10.0 ** (3000.0 / 10.0)
        field = make_quadratic_field(5)
        with pytest.raises(AssertionError) as batch:
            run_sweep(SweepConfig(snr_db=(3000.0,), trials=20, schemes=("am_ring(5)",)))
        with pytest.raises(AssertionError) as single:
            for t in range(20):
                best_equation(field, BlockFadingChannel(sample_channels(1, t, 2, 2), P))
        assert "noise identity violated" in str(batch.value)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("scheme, seed", [("am_ring(3)", 1), ("naive_Z", 2)])
    def test_a_later_error_of_the_batch_keeps_the_order(self, scheme, seed):
        # At 3000 dB each batch meets a later trial's error first: am_ring(3)
        # searches every trial, and trial 16's search fails (squared norm
        # 0.0), before trial 1's rate fails; naive_Z searches block 0 of every
        # trial, and trial 11's fails, before block 1, where trial 9's fails.
        # The sweep raises the first error of cold calls in trial order
        P = 10.0 ** (3000.0 / 10.0)
        cfg = SweepConfig(snr_db=(3000.0,), trials=20, schemes=(scheme,), master_seed=seed)
        with pytest.raises((ValueError, AssertionError)) as batch:
            run_sweep(cfg)
        with pytest.raises((ValueError, AssertionError)) as single:
            for t in range(20):
                ch = BlockFadingChannel(sample_channels(seed, t, 2, 2), P)
                if scheme == "naive_Z":
                    naive_rate(ch)
                else:
                    best_equation(make_quadratic_field(3), ch)
        assert type(batch.value) is type(single.value)
        assert str(batch.value) == str(single.value)
        if scheme == "naive_Z":
            assert str(batch.value) == "basis is numerically rank deficient"
        else:
            assert "noise identity violated" in str(batch.value)

    @pytest.mark.parametrize(
        "schemes, chunk, run",
        [
            (SweepConfig().schemes, 7, 2),
            (("naive_Z", "am_ring(7)", "mac"), 4096, 6),
            (("mac", "naive_Z", "am_Z"), 4096, None),
        ],
        ids=["three-rings-chunk-7", "one-ring", "no-ring"],
    )
    def test_joint_ring_search_equals_per_scheme_calls(self, schemes, chunk, run, monkeypatch):
        # every ring scheme's bases for a run of (SNR point, trial) items go
        # through one _shortest_batch call, item k * run + i being ring scheme
        # k at item i of the run; a chunk of 7 takes runs of two items, six
        # bases of three schemes.  The rates equal those of one
        # _shortest_batch call per scheme, bit for bit
        monkeypatch.setattr(svp, "_LLL_CHUNK", chunk)
        cfg = SweepConfig(snr_db=(0.0, 25.0, 50.0), trials=2, schemes=schemes, master_seed=3)
        calls = []
        real = svp._shortest_batch

        def recording(bases, P):
            calls.append(np.array(bases))
            return real(bases, P)

        monkeypatch.setattr(svp, "_shortest_batch", recording)
        res = run_sweep(cfg)
        rings = [int(s[len("am_ring(") : -1]) for s in schemes if s.startswith("am_ring")]
        h = np.array([sample_channels(3, t, 2, 2) for t in range(2)])
        hs = np.tile(h, (3, 1, 1))
        P = np.repeat([10.0 ** (s / 10.0) for s in cfg.snr_db], 2)
        fields = [make_quadratic_field(d) for d in rings]
        joint = [c.tobytes() for c in calls if c.shape[2] == 4]
        if rings:
            assert joint == [
                np.array(
                    [
                        build_search_basis(f, BlockFadingChannel(hs[i], P[i]))
                        for f in fields
                        for i in range(lo, lo + run)
                    ]
                ).tobytes()
                for lo in range(0, 6, run)
            ]
        else:
            assert not joint
        monkeypatch.setattr(svp, "_shortest_batch", real)
        for k, name in enumerate(schemes):
            if name.startswith("am_ring"):
                field = make_quadratic_field(int(name[len("am_ring(") : -1]))
                want = svp._best_equation_rates(field, hs, P)
                assert res.rates[k].tobytes() == want.reshape(3, 2).tobytes()

    @pytest.mark.parametrize("cause", ["non-finite", "rank-deficient"])
    def test_joint_search_keeps_the_error_order(self, cause, monkeypatch):
        # At 3000 dB am_ring(3)'s rate raises the noise-identity
        # AssertionError from trial 1, and its search fails from trial 16 (a
        # shortest vector of squared norm 0.0).  am_ring(7)'s search fails
        # there (RankDeficient), or on bases made non-finite (NonFiniteBasis),
        # so the joint search raises; the sweep then runs scheme by scheme and
        # raises am_ring(3)'s trial-1 error first, as cold calls in scheme
        # order do
        if cause == "non-finite":
            real = svp._search_bases

            def patched(fields, h, P):
                bases = real(fields, h, P)
                for k, field in enumerate(fields):
                    if field is not None and field.d == 7:
                        bases[k * len(h) : (k + 1) * len(h), :, 0] = np.inf
                return bases

            monkeypatch.setattr(svp, "_search_bases", patched)
        cfg = SweepConfig(snr_db=(3000.0,), trials=20, schemes=("am_ring(3)", "am_ring(7)"))
        with pytest.raises(svp.NonFiniteBasis if cause == "non-finite" else svp.RankDeficient):
            svp._ring_coords(
                [make_quadratic_field(d) for d in (3, 7)],
                np.array([sample_channels(1, t, 2, 2) for t in range(20)]),
                np.full(20, 10.0 ** 300.0),
            )
        with pytest.raises(AssertionError) as batch:
            run_sweep(cfg)
        field = make_quadratic_field(3)
        with pytest.raises(AssertionError) as single:
            for t in range(20):
                best_equation(field, BlockFadingChannel(sample_channels(1, t, 2, 2), 10.0**300.0))
        assert "noise identity violated" in str(batch.value)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("cause", ["non-finite", "rank-deficient"])
    def test_joint_integer_search_keeps_the_error_order(self, cause, monkeypatch):
        # At 3000 dB naive_Z's searches fail from trial 9 (RankDeficient).
        # am_Z's basis for trial 15 is made non-finite, or rank deficient
        # with two equal columns, so the joint integer search over am_Z and
        # both naive_Z blocks raises; the sweep then runs scheme by scheme
        # and raises naive_Z's trial-9 error first, as cold calls in scheme
        # order do
        P = 10.0**300.0
        h = np.array([sample_channels(2, t, 2, 2) for t in range(20)])
        real = svp._search_bases

        def patched(fields, hb, Pb):
            bases = real(fields, hb, Pb)
            for k, field in enumerate(fields):
                for i in np.flatnonzero((hb == h[15]).all(axis=(1, 2))):
                    B = bases[k * len(hb) + i]
                    if field is None and cause == "non-finite":
                        B[0, 0] = np.inf
                    elif field is None:
                        B[:, 1] = B[:, 0]
            return bases

        monkeypatch.setattr(svp, "_search_bases", patched)
        with pytest.raises(svp.NonFiniteBasis if cause == "non-finite" else svp.RankDeficient):
            svp._shortest_batch(patched([None], h, P))
        cfg = SweepConfig(snr_db=(3000.0,), trials=20, schemes=("naive_Z", "am_Z"), master_seed=2)
        with pytest.raises(ValueError) as joint:
            svp._integer_coords(h, np.full(20, P), True, True)
        with pytest.raises(ValueError) as batch:
            run_sweep(cfg)
        with pytest.raises(ValueError) as single:
            cold_rates(cfg)
        assert type(batch.value) is type(single.value) is svp.RankDeficient
        assert str(batch.value) == str(single.value) == "basis is numerically rank deficient"
        if cause == "non-finite":
            assert type(joint.value) is svp.NonFiniteBasis

    def test_stacked_rate_pass_keeps_the_error_order(self, monkeypatch):
        # At 3000 dB, seed 3, every search succeeds, and the noise identity
        # fails for am_ring(3) from trial 9 and for am_ring(5) from trial 0:
        # the one _am_terms pass over all three schemes raises, and the
        # sweep raises am_ring(3)'s trial-9 error, as cold calls in scheme
        # order do
        calls = []
        real = svp._am_rates

        def recording(fields, h, P, coords):
            calls.append(len(fields))
            return real(fields, h, P, coords)

        monkeypatch.setattr(simkit, "_am_rates", recording)
        cfg = SweepConfig(
            snr_db=(3000.0,), trials=20, schemes=("am_ring(3)", "am_ring(5)", "am_Z"), master_seed=3
        )
        with pytest.raises(AssertionError) as batch:
            run_sweep(cfg)
        assert calls == [3]
        field = make_quadratic_field(3)
        with pytest.raises(AssertionError) as single:
            for t in range(20):
                best_equation(field, BlockFadingChannel(sample_channels(3, t, 2, 2), 10.0**300.0))
        assert "noise identity violated" in str(batch.value)
        assert str(batch.value) == str(single.value)
        with pytest.raises(AssertionError) as single:
            best_equation(field, BlockFadingChannel(sample_channels(3, 9, 2, 2), 10.0**300.0))
        assert str(batch.value) == str(single.value)

    def test_one_ring_scheme_searches_once(self, capsys, monkeypatch):
        # With one ring scheme whose bases fit one chunk, the joint search
        # makes the very call the scheme's own search would, so its error
        # is raised at once: a 40-D search refused at the node budget runs
        # the batch LLL once
        from cflat.cli import main

        calls = []
        real = svp._lll_batch

        def recording(cols):
            calls.append(cols.shape)
            return real(cols)

        monkeypatch.setattr(svp, "_lll_batch", recording)
        argv = ["sweep", "--L", "20", "--schemes", "am_ring(5)", "--trials", "1"]
        assert main([*argv, "--snr-db", "120"]) == 2
        assert calls == [(40, 40, 1)]
        assert capsys.readouterr().err == (
            "error: shortest-vector search in dimension 40 at 120 dB needs more than "
            "250000 enumeration nodes\n"
        )

    def test_joint_search_raises_other_errors(self, monkeypatch):
        # only the search's ValueErrors send the sweep to per-scheme
        # searches; any other failure of the joint search propagates
        def broken(fields, h, P):
            raise TypeError("joint search broken")

        monkeypatch.setattr(simkit, "_ring_coords", broken)
        with pytest.raises(TypeError, match="joint search broken"):
            run_sweep(SweepConfig(snr_db=(10.0,), trials=2))

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

    def test_equals_least_squares_fit(self):
        # the closed-form slope is numpy's least-squares line fit to within
        # 1e-15 relative, on every scheme of a 50-trial sweep
        res = run_sweep(SweepConfig(trials=50))
        window = [s for s, snr in enumerate(res.snr_db) if 30.0 <= snr <= 50.0]
        xs = [0.5 * (res.snr_db[s] / 10.0) * math.log2(10.0) for s in window]
        for k, name in enumerate(res.schemes):
            want = float(np.polyfit(xs, res.mean[k, window], 1)[0])
            assert dof_slope(res, name) == pytest.approx(want, rel=1e-15, abs=0.0)
            assert res.dof[name] == dof_slope(res, name)

    def test_insufficient_points(self):
        res = self.synthetic(1.0)
        with pytest.raises(InsufficientPoints):
            dof_slope(res, "mac", (49, 50))

    def test_repeated_points_count_once(self):
        # three copies of one SNR point fit no slope: the sweep records no
        # degrees of freedom (a least-squares fit warned RankWarning)
        res = run_sweep(SweepConfig(snr_db=(30.0, 30.0, 30.0), trials=1, schemes=("mac",)))
        assert res.dof == {"mac": None}
        with pytest.raises(InsufficientPoints, match="3 distinct SNR points .* got 1"):
            dof_slope(res, "mac", (30, 50))

    def test_sweep_populates_dof(self):
        cfg = SweepConfig(
            snr_db=(30.0, 40.0, 50.0), trials=5, schemes=("mac",), master_seed=2
        )
        res = run_sweep(cfg)
        assert res.dof["mac"] == pytest.approx(2.0, abs=0.25)


# a 20-trial headline sweep's rates and two `cflat rate` outputs
_KERNEL_CHILD = """
import hashlib
from cflat.cli import main
from cflat.simkit import SweepConfig, run_sweep
print(hashlib.sha256(run_sweep(SweepConfig(trials=20)).rates.tobytes()).hexdigest())
main(["rate", "--d", "5", "--snr-db", "40", "--h", "0.9,-0.3;0.2,1.1"])
main(["rate", "--d", "3", "--snr-db", "60", "--h", "0.9,-0.3,0.5;0.2,1.1,-0.7"])
"""


def test_rates_do_not_depend_on_the_blas_kernel():
    # numpy's dot products follow the kernel, the rate layer's explicit sums
    # do not
    outs = outputs_per_kernel(_KERNEL_CHILD)
    assert outs[0] == outs[1] == outs[2]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    L=st.sampled_from([1, 2, 3]),
    snr_db=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=3),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    schemes=st.lists(st.sampled_from(SweepConfig().schemes), min_size=1, max_size=3, unique=True),
)
def test_sweep_rates_equal_cold_calls(L, snr_db, trials, seed, schemes):
    # any small sweep at L = 1, 2 or 3, 0-300 dB: the batched rates are
    # bit-equal to cold calls, or both raise the same error first
    cfg = SweepConfig(
        L=L, snr_db=tuple(snr_db), trials=trials, schemes=tuple(schemes), master_seed=seed
    )
    try:
        rates = run_sweep(cfg).rates
    except (ValueError, AssertionError) as exc:
        with pytest.raises(type(exc)) as single:
            cold_rates(cfg)
        assert str(single.value) == str(exc)
    else:
        assert rates.tobytes() == cold_rates(cfg).tobytes()
