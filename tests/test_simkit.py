import math

import numpy as np
import pytest

import cflat.simkit as simkit
import cflat.svp as svp
from cflat.channel import (
    BlockFadingChannel,
    NoiseIdentityViolated,
    _snr_linear,
    mac_sum_capacity,
    naive_rate,
)
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
    error order: every SNR point's conversion, every trial's channel at
    every SNR point, then scheme by scheme over (SNR point, trial)."""
    fields = {d: make_quadratic_field(d) for d in (3, 5, 7)}
    hs = [sample_channels(cfg.master_seed, t, cfg.n, cfg.L) for t in range(cfg.trials)]
    Ps = [_snr_linear(snr) for snr in cfg.snr_db]
    chans = [[BlockFadingChannel(h, P) for h in hs] for P in Ps]
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


def single_error(call, *args):
    """The exception call(*args) raises."""
    with pytest.raises(ValueError) as single:
        call(*args)
    return single.value


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


# the search error of a basis made non-finite, or rank deficient
RAISED = {"non-finite": svp.NonFiniteBasis, "rank-deficient": svp.RankDeficient}


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


# naive_Z between two ring schemes: one search pass interleaves their ranks
RING_NAIVE_RING = ("am_ring(5)", "naive_Z", "am_ring(3)")


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
            ((), 3, 2, 11, SweepConfig().schemes),
        ],
        ids=["default", "0-200", "non-monotone", "one-trial", "L3", "ring-0-300", "no-snr-point"],
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
        assert sum(inexact) <= len(scalar_calls) <= (2106 if max(snr_db, default=0.0) > 200 else 0)
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
        with pytest.raises(NoiseIdentityViolated) as batch:
            run_sweep(SweepConfig(snr_db=(3000.0,), trials=20, schemes=("am_ring(5)",)))
        with pytest.raises(NoiseIdentityViolated) as single:
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
        with pytest.raises(ValueError) as batch:
            run_sweep(cfg)
        with pytest.raises(ValueError) as single:
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
        # every ring scheme's bases for a run of (SNR point, trial) items form
        # one chunk of the search pass, item k * run + i being ring scheme k
        # at item i of the run; a chunk of 7 takes runs of two items, six
        # bases of three schemes.  The rates equal those of one
        # _shortest_batch call per scheme, bit for bit
        monkeypatch.setattr(svp, "_LLL_CHUNK", chunk)
        cfg = SweepConfig(snr_db=(0.0, 25.0, 50.0), trials=2, schemes=schemes, master_seed=3)
        calls = []
        real = svp._finite_column_batch

        def recording(bases):
            calls.append(np.array(bases))
            return real(bases)

        monkeypatch.setattr(svp, "_finite_column_batch", recording)
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
        monkeypatch.setattr(svp, "_finite_column_batch", real)
        for k, name in enumerate(schemes):
            if name.startswith("am_ring"):
                field = make_quadratic_field(int(name[len("am_ring(") : -1]))
                rank, errors = np.arange(6), {}
                chunk = (svp._search_bases([field], hs, P), P, rank)
                (coords,) = svp._shortest_batch([chunk], errors)
                want = svp._am_rates([field], hs, P, [coords], rank[None], errors)
                assert errors == {}
                assert res.rates[k].tobytes() == want.reshape(3, 2).tobytes()

    @pytest.mark.parametrize("cause", ["non-finite", "rank-deficient"])
    def test_joint_search_keeps_the_error_order(self, cause, monkeypatch):
        # At 3000 dB am_ring(3)'s rate raises NoiseIdentityViolated from
        # trial 1, and its search fails from trial 16 (a shortest vector of
        # squared norm 0.0).  am_ring(7)'s search fails there
        # (RankDeficient), or on bases made non-finite (NonFiniteBasis).
        # The joint search records each field's first failing search, with
        # best_equation's error on it, whichever field is ranked first; the
        # sweep raises am_ring(3)'s trial-1 rate error first, as cold calls
        # in scheme order do
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
        fields = [make_quadratic_field(d) for d in (3, 7)]
        h = np.array([sample_channels(1, t, 2, 2) for t in range(20)])
        for k, want in ((0, svp.RankDeficient), (1, RAISED[cause])):
            rank, errors = np.arange(40).reshape(2, 20)[[k, 1 - k]], {}
            svp._search_coords(fields, [], h, np.full(20, 10.0**300.0), (rank, None), errors)
            row, t = divmod(min(errors), 20)
            assert row == 0 and type(errors[min(errors)]) is want
            ch = BlockFadingChannel(h[t], 10.0**300.0)
            assert_same_error(errors[min(errors)], single_error(best_equation, fields[k], ch))
        with pytest.raises(NoiseIdentityViolated) as batch:
            run_sweep(cfg)
        field = make_quadratic_field(3)
        with pytest.raises(NoiseIdentityViolated) as single:
            for t in range(20):
                best_equation(field, BlockFadingChannel(sample_channels(1, t, 2, 2), 10.0**300.0))
        assert "noise identity violated" in str(batch.value)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("cause", ["non-finite", "rank-deficient"])
    def test_joint_integer_search_keeps_the_error_order(self, cause, monkeypatch):
        # At 3000 dB naive_Z's searches fail from trial 9 (RankDeficient).
        # am_Z's basis for trial 15 is made non-finite, or rank deficient
        # with two equal columns, so the joint integer search over am_Z and
        # both naive_Z blocks records its errors as well; the sweep raises
        # naive_Z's trial-9 error first, as cold calls in scheme order do
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
        # am_Z's searches alone record trial 15's error, if no earlier trial
        # fails, and the joint search the errors of best_equation over Z and
        # of best_integer_block; non-finite bases are recorded wherever they
        # are ranked
        bases, errors = patched([None], h, P), {}
        svp._shortest_batch([(bases, np.full(20, P), np.arange(20))], errors)
        first = min(errors)
        assert type(errors[first]) is RAISED[cause]
        assert_same_error(errors[first], single_error(svp.shortest_vector, bases[first]))
        cfg = SweepConfig(snr_db=(3000.0,), trials=20, schemes=("naive_Z", "am_Z"), master_seed=2)
        errors = {}
        rank = np.arange(60).reshape(3, 20)
        svp._search_coords([], [None, 0, 1], h, np.full(20, P), (None, rank), errors)
        for r, exc in errors.items():
            j, t = divmod(r, 20)
            if j:
                want = single_error(svp.best_integer_block, h[t, j - 1], P)
            else:
                want = single_error(best_equation, None, BlockFadingChannel(h[t], P))
            assert_same_error(exc, want)
        if cause == "non-finite":
            assert type(errors[15]) is svp.NonFiniteBasis
        with pytest.raises(ValueError) as batch:
            run_sweep(cfg)
        with pytest.raises(ValueError) as single:
            cold_rates(cfg)
        assert type(batch.value) is type(single.value) is svp.RankDeficient
        assert str(batch.value) == str(single.value) == "basis is numerically rank deficient"

    def test_stacked_rate_pass_keeps_the_error_order(self, monkeypatch):
        # At 3000 dB, seed 3, every search succeeds, and the noise identity
        # fails for am_ring(3) from trial 9 and for am_ring(5) from trial 0:
        # the one _am_terms pass over all three schemes raises, and the
        # sweep raises am_ring(3)'s trial-9 error, as cold calls in scheme
        # order do
        calls = []
        real = svp._am_rates

        def recording(fields, *args):
            calls.append(len(fields))
            return real(fields, *args)

        monkeypatch.setattr(simkit, "_am_rates", recording)
        cfg = SweepConfig(
            snr_db=(3000.0,), trials=20, schemes=("am_ring(3)", "am_ring(5)", "am_Z"), master_seed=3
        )
        with pytest.raises(NoiseIdentityViolated) as batch:
            run_sweep(cfg)
        assert calls == [3]
        field = make_quadratic_field(3)
        with pytest.raises(NoiseIdentityViolated) as single:
            for t in range(20):
                best_equation(field, BlockFadingChannel(sample_channels(3, t, 2, 2), 10.0**300.0))
        assert "noise identity violated" in str(batch.value)
        assert str(batch.value) == str(single.value)
        with pytest.raises(NoiseIdentityViolated) as single:
            best_equation(field, BlockFadingChannel(sample_channels(3, 9, 2, 2), 10.0**300.0))
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize(
        "schemes, seed, n, L, snr_db, batches, single",
        [
            (("am_ring(3)", "am_ring(7)"), 1, 2, 2, 3000.0, [(4, 4, 40)], 17),
            (("am_ring(3)", "am_ring(5)", "am_Z"), 3, 2, 2, 3000.0, [(2, 4, 20), (4, 4, 40)], 40),
            (("naive_Z", "am_Z"), 2, 2, 2, 3000.0, [(2, 4, 60)], 20),
            (("naive_Z", "am_ring(5)"), 2, 3, 2, 3000.0, [(2, 2, 60)], 29),
            (("am_ring(5)",), 1, 2, 20, 120.0, [(40, 40, 1)], 1),
            (("naive_Z", "am_ring(3)"), 1, 2, 2, 3000.0, [(2, 2, 40)], 5),
            (("naive_Z", "am_ring(3)"), 2, 2, 2, 3000.0, [(2, 2, 40)], 20),
            (("naive_Z", "am_ring(3)"), 3, 2, 2, 3000.0, [(2, 2, 40)], 6),
            (("am_ring(3)", "naive_Z"), 1, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 20)], 17),
            (("am_ring(3)", "naive_Z"), 2, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 20)], 40),
            (("am_ring(3)", "naive_Z"), 3, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 20)], 26),
            (RING_NAIVE_RING, 1, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 40)], 25),
            (RING_NAIVE_RING, 2, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 40)], 40),
            (RING_NAIVE_RING, 3, 2, 2, 3000.0, [(2, 2, 40), (4, 4, 40)], 26),
        ],
        ids=[
            "two-rings", "two-rings-and-Z", "naive-and-Z", "ring-of-degree-2-at-n-3", "L20",
            "naive-then-ring-1", "naive-then-ring", "naive-then-ring-3",
            "ring-then-naive-1", "ring-then-naive-2", "ring-then-naive-3",
            "ring-naive-ring-1", "ring-naive-ring-2", "ring-naive-ring-3",
        ],
    )  # fmt: skip
    def test_failing_sweep_searches_once(
        self, schemes, seed, n, L, snr_db, batches, single, monkeypatch
    ):
        # A failing sweep reduces each chunk of each lattice shape once, in
        # its search pass, integer bases first, except a chunk whose every
        # basis ranks after an error found before it: the single calls
        # ranked before a chunk run before it, so naive_Z's RankDeficient
        # leaves am_ring(3)'s bases unreduced.  It raises the error cold
        # calls raise first: a rate error of an item before the first
        # failing search, an integer search's RankDeficient, a ring scheme
        # whose field degree is not n (raised for its first item, after
        # naive_Z's items), or a 40-D search refused at the node budget.  No
        # basis runs the single call twice.  The single calls of both lattice
        # shapes form one queue in cold-call order, which runs none ranked
        # after the first error: where naive_Z sits between two ring
        # schemes, its trial-9 RankDeficient stops am_ring(3)'s single calls
        # (25, 40 and 26 for seeds 1-3, against 42, 60 and 46 with a queue
        # per lattice shape); where the schemes do not interleave, the
        # counts are those of a queue per shape run in scheme order
        calls, singles = [], []
        real, real_single = svp._lll_batch, svp._lll_shortest

        def recording(cols):
            calls.append(cols.shape)
            return real(cols)

        def recording_single(cols):
            singles.append(np.array(cols).tobytes())
            return real_single(cols)

        monkeypatch.setattr(svp, "_lll_batch", recording)
        monkeypatch.setattr(svp, "_lll_shortest", recording_single)
        cfg = SweepConfig(
            n=n, L=L, snr_db=(snr_db,), trials=20 if L == 2 else 1, schemes=schemes,
            master_seed=seed,
        )
        batch = single_error(run_sweep, cfg)
        assert calls == batches
        assert len(set(singles)) == len(singles) == single
        monkeypatch.undo()
        assert_same_error(batch, single_error(cold_rates, cfg))

    def test_no_chunk_searched_past_the_first_error(self, monkeypatch):
        # naive_Z's trial-9 RankDeficient comes from a single call ranked
        # before every am_ring(3) basis, so it runs before their chunk, and
        # the chunk, whose answers could no longer be used, is not reduced
        events = []
        real, real_single = svp._lll_batch, svp._lll_shortest

        def recording(cols):
            events.append(cols.shape)
            return real(cols)

        def recording_single(cols):
            try:
                return real_single(cols)
            except svp.RankDeficient:
                events.append("RankDeficient")
                raise

        monkeypatch.setattr(svp, "_lll_batch", recording)
        monkeypatch.setattr(svp, "_lll_shortest", recording_single)
        cfg = SweepConfig(
            snr_db=(3000.0,), trials=20, schemes=("naive_Z", "am_ring(3)"), master_seed=2
        )
        batch = single_error(run_sweep, cfg)
        assert events == [(2, 2, 40), "RankDeficient"]
        monkeypatch.undo()
        want = single_error(cold_rates, cfg)
        assert isinstance(want, svp.RankDeficient)
        assert_same_error(batch, want)
        h = sample_channels(2, 9, 2, 2)
        assert_same_error(want, single_error(naive_rate, BlockFadingChannel(h, 10.0**300.0)))

    def test_one_channels_bases_split_at_the_chunk(self, monkeypatch):
        # at n = 3, am_Z and naive_Z have four integer bases per channel,
        # more than a chunk of 3: each channel's bases are certified as a
        # chunk of three and one of one, so no _lll_batch call holds more
        # than _LLL_CHUNK bases, and the rates are those of cold calls
        monkeypatch.setattr(svp, "_LLL_CHUNK", 3)
        sizes = []
        real = svp._lll_batch

        def recording(cols):
            sizes.append(cols.shape[2])
            return real(cols)

        monkeypatch.setattr(svp, "_lll_batch", recording)
        cfg = SweepConfig(n=3, snr_db=(0.0, 20.0), trials=2, schemes=("naive_Z", "am_Z"))
        res = run_sweep(cfg)
        assert sizes == [3, 1] * 4
        assert res.rates.tobytes() == cold_rates(cfg).tobytes()

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
        # only the ValueErrors of single calls are kept
        # per item; any other failure of the joint search propagates
        def broken(*args):
            raise TypeError("joint search broken")

        monkeypatch.setattr(simkit, "_search_coords", broken)
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


@settings(derandomize=True, database=None, max_examples=1100, deadline=None)
@given(
    L=st.sampled_from([1, 2, 3]),
    snr_db=st.lists(
        st.one_of(st.floats(0.0, 300.0), st.floats(2900.0, 3100.0)), min_size=1, max_size=3
    ),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    schemes=st.lists(st.sampled_from(SweepConfig().schemes), min_size=1, max_size=3, unique=True),
)
def test_sweep_rates_equal_cold_calls(L, snr_db, trials, seed, schemes):
    # any small sweep at L = 1, 2 or 3, 0-300 or 2900-3100 dB, where
    # searches, rates and the SNR conversion fail: the batched rates are
    # bit-equal to cold calls, or both raise the same error first
    cfg = SweepConfig(
        L=L, snr_db=tuple(snr_db), trials=trials, schemes=tuple(schemes), master_seed=seed
    )
    try:
        rates = run_sweep(cfg).rates
    except ValueError as exc:
        with pytest.raises(type(exc)) as single:
            cold_rates(cfg)
        assert str(single.value) == str(exc)
    else:
        assert rates.tobytes() == cold_rates(cfg).tobytes()
