import csv
import dataclasses
import logging
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cflat.cli
import cflat.codec
from cflat.cli import (
    MAX_SNR_POINTS,
    InvalidValue,
    ParseError,
    UnknownKey,
    main,
    parse_config,
)
from cflat.channel import BlockFadingChannel
from cflat.codec import RadiusTooSmall, build_construction_a
from cflat.svp import best_equation
from cflat.numfield import make_quadratic_field, prime_above
from blas_kernels import outputs_per_kernel
from child_env import child_env


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None, {})
        assert cfg.trials == 2000
        assert cfg.n == 2 and cfg.L == 2 and cfg.seed == 1
        assert cfg.snr_db == tuple(float(s) for s in range(0, 55, 5))
        assert cfg.schemes == (
            "mac",
            "naive_Z",
            "am_Z",
            "am_ring(3)",
            "am_ring(5)",
            "am_ring(7)",
        )

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# nothing but comments\n\n")
        cfg = parse_config(str(p), {})
        assert cfg.trials == 2000

    def test_file_values_and_flag_override(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("trials = 10\nseed = 3  # trailing comment\n")
        cfg = parse_config(str(p), {})
        assert cfg.trials == 10 and cfg.seed == 3
        cfg = parse_config(str(p), {"trials": 50})
        assert cfg.trials == 50

    def test_invalid_trials(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("trials = -1\n")
        with pytest.raises(InvalidValue):
            parse_config(str(p), {})

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(UnknownKey):
            parse_config(str(p), {})

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("trials = 5\nthis is not a key value pair\n")
        with pytest.raises(ParseError) as err:
            parse_config(str(p), {})
        assert err.value.line_no == 2

    def test_snr_range_and_list_syntax(self):
        assert parse_config(None, {"snr_db": "0:10:30"}).snr_db == (0, 10, 20, 30)
        assert parse_config(None, {"snr_db": "1,2.5,7"}).snr_db == (1.0, 2.5, 7.0)
        with pytest.raises(InvalidValue):
            parse_config(None, {"snr_db": "abc"})

    def test_snr_range_point_cap(self):
        assert MAX_SNR_POINTS == 10_000
        at_cap = parse_config(None, {"snr_db": "-10:0.5:4989.5"}).snr_db
        assert len(at_cap) == MAX_SNR_POINTS
        assert at_cap[:3] == (-10.0, -9.5, -9.0) and at_cap[-1] == 4989.5
        assert parse_config(None, {"snr_db": "0:0.1:0.5"}).snr_db == (
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5
        )
        with pytest.raises(InvalidValue, match="more than 10000 points"):
            parse_config(None, {"snr_db": "-10:0.5:4990"})

    # ranges that never end: an infinite or NaN end or step, or a step lost
    # to rounding (1e16 + 1 == 1e16), whose nominal count may be small
    ENDLESS_SNR_RANGES = (
        "0:1:inf", "-inf:1:0", "0:1:nan", "0:nan:1", "0:inf:1", "1e16:1:2e16",
        "1e16:1:10000000000000002",
    )  # fmt: skip

    def test_endless_snr_range_is_validation_error(self):
        # in a subprocess with a timeout, its address space capped after the
        # imports, so a range that grows without end fails the test instead of
        # stalling the suite or exhausting the machine's memory
        code = (
            "import os, resource, sys\n"
            "from cflat.cli import main\n"
            "pages = int(open('/proc/self/statm').read().split()[0])\n"
            "cap = pages * os.sysconf('SC_PAGE_SIZE') + (256 << 20)\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "for spec in sys.argv[1:]:\n"
            "    print(main(['sweep', '--snr-db=' + spec, '--trials', '1', '--schemes', 'mac']))\n"
        )
        env = child_env()
        out = subprocess.run(
            [sys.executable, "-c", code, *self.ENDLESS_SNR_RANGES],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["2"] * len(self.ENDLESS_SNR_RANGES), out.stderr
        errors = out.stderr.splitlines()
        assert len(errors) == len(self.ENDLESS_SNR_RANGES)
        assert all(e.startswith("error: ") for e in errors)

    def test_d_list_builds_default_schemes(self):
        cfg = parse_config(None, {"d_list": "5"})
        assert cfg.schemes == ("mac", "naive_Z", "am_Z", "am_ring(5)")

    def test_bad_scheme(self):
        with pytest.raises(InvalidValue):
            parse_config(None, {"schemes": "mac,unknown_thing"})


class TestFieldCommand:
    def test_info_output(self, capsys):
        assert main(["field", "info", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert "(1+sqrt(5))/2" in out
        assert "discriminant 5" in out

    def test_non_squarefree_is_validation_error(self, capsys):
        assert main(["field", "info", "--d", "4"]) == 2

    def test_huge_d_is_validation_error(self, capsys):
        # trial division up to sqrt(d) would not finish for this d
        assert main(["field", "info", "--d", "1000000000000000003"]) == 2
        assert "d <= 1000000000000" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestRateCommand:
    def test_matches_library(self, capsys):
        code = main(
            ["rate", "--d", "5", "--snr-db", "10", "--h", "1,0;1,0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"rate_bits {math.log2(11):.6f}" in out
        assert "coeff[0] (1, 0)" in out

    def test_integer_ring(self, capsys):
        assert main(["rate", "--snr-db", "10", "--h", "1,0;1,0"]) == 0
        out = capsys.readouterr().out
        assert "ring Z" in out
        ch = BlockFadingChannel(np.array([[1.0, 0.0], [1.0, 0.0]]), 10.0)
        want = best_equation(None, ch).rate_bits
        assert f"rate_bits {want:.6f}" in out

    def test_channel_file(self, tmp_path, capsys):
        f = tmp_path / "chan"
        f.write_text("1 0\n1 0\n")
        assert main(["rate", "--snr-db", "10", "--channel-file", str(f)]) == 0
        assert "rate_bits" in capsys.readouterr().out

    def test_missing_channel(self):
        assert main(["rate", "--snr-db", "10"]) == 2

    def test_overflowing_gain_is_validation_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["rate", "--snr-db", "0", "--h", "1e160,2e160;3e160,1e160"])
        assert code == 2
        err = capsys.readouterr().err
        assert "h[0] = [1e+160, 2e+160] overflows P*||h_j||^2" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_large_finite_gain_still_solved(self, capsys):
        assert main(["rate", "--d", "5", "--snr-db", "0", "--h", "1e150,2e150;3e150,1e150"]) == 0
        ch = BlockFadingChannel(np.array([[1e150, 2e150], [3e150, 1e150]]), 1.0)
        want = best_equation(make_quadratic_field(5), ch).rate_bits
        assert f"rate_bits {want:.6f}" in capsys.readouterr().out


SWEEP_ARGS = [
    "sweep",
    "--trials",
    "6",
    "--snr-db",
    "0:10:20",
    "--schemes",
    "mac,am_Z,am_ring(5)",
    "--seed",
    "11",
]


class TestSweepCommand:
    def test_csv_shape_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGS + ["--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,scheme,mean_rate_bits,stderr_bits,trials,seed"
        assert len(lines) == 1 + 3 * 3
        snrs = [ln.split(",")[0] for ln in lines[1:]]
        assert snrs == ["0"] * 3 + ["10"] * 3 + ["20"] * 3
        schemes = [ln.split(",")[1] for ln in lines[1:4]]
        assert schemes == ["mac", "am_Z", "am_ring(5)"]

    def test_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(SWEEP_ARGS + ["--output", str(out)])
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        from cflat.simkit import SweepConfig, run_sweep

        res = run_sweep(
            SweepConfig(
                snr_db=(0.0, 10.0, 20.0),
                trials=6,
                schemes=("mac", "am_Z", "am_ring(5)"),
                master_seed=11,
            )
        )
        for row in rows:
            k = res.schemes.index(row["scheme"])
            s = res.snr_db.index(float(row["snr_db"]))
            assert float(row["mean_rate_bits"]) == round(float(res.mean[k, s]), 6)
            assert float(row["stderr_bits"]) == round(float(res.stderr[k, s]), 6)
            assert row["trials"] == "6" and row["seed"] == "11"

    def test_identical_bytes_across_runs_and_threads(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(SWEEP_ARGS + ["--output", str(a)])
        main(SWEEP_ARGS + ["--output", str(b)])
        main(SWEEP_ARGS + ["--output", str(c), "--threads", "3"])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_config_file_drives_run(self, tmp_path, capsys):
        cfgf = tmp_path / "cfg"
        cfgf.write_text(
            "trials = 4\nsnr_db = 0:10:10\nschemes = mac\nseed = 5\n"
        )
        assert main(["sweep", "--config", str(cfgf)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 2

    def test_high_snr_ring_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--snr-db", "70", "--schemes", "am_ring(5)", "--trials", "20"]
        assert main(args + ["--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("70,am_ring(5),")

    def test_no_partial_file_on_validation_failure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--trials", "-3", "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))


class TestCodecCommand:
    def test_csv(self, tmp_path):
        out = tmp_path / "codec.csv"
        code = main(
            [
                "codec",
                "--d", "5", "--p", "11", "--T", "2", "--lf", "1", "--lc", "0",
                "--snr-db", "6,20", "--trials", "4000", "--seed", "7",
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "snr_db,error_rate,stderr,union_bound,trials"
        assert len(lines) == 3
        for ln in lines[1:]:
            snr, err, stderr, ub, trials = ln.split(",")
            assert 0.0 <= float(err) <= 1.0
            assert float(ub) >= 0.0
            assert int(trials) == 4000

    K121_ARGS = [
        "codec", "--d", "5", "--p", "11", "--T", "2", "--lf", "2", "--lc", "1",
        "--seed", "3",
    ]

    def test_union_bound_radius_steps_logged_at_debug(self, tmp_path, capsys, caplog):
        quiet = tmp_path / "quiet.csv"
        args = self.K121_ARGS + ["--snr-db", "0,30", "--trials", "200"]
        assert main(args + ["--output", str(quiet)]) == 0
        assert capsys.readouterr() == ("", "")
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="cflat.codec")
        loud = tmp_path / "loud.csv"
        assert main(args + ["--output", str(loud)]) == 0
        assert loud.read_bytes() == quiet.read_bytes()
        logged = [r.getMessage() for r in caplog.records if r.name == "cflat.codec"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        # one certified-trials record per SNR point, before its radius steps
        certified = [i for i, m in enumerate(logged) if m.startswith("monte carlo: ")]
        assert certified[0] == 0
        counts = [logged[i].split() for i in certified]
        assert [(c[4], c[-2]) for c in counts] == [("200", "0"), ("200", "30")]
        assert int(counts[0][2]) < int(counts[1][2]) <= 200
        steps = [m for m in logged if not m.startswith("monte carlo: ")]
        assert all(m.startswith("union bound: radius ") for m in steps)
        terms = [int(m.split(", ")[1].split()[0]) for m in steps]
        # each SNR point grows the radius until it holds 1000 terms
        done = [i for i, t in enumerate(terms) if t >= 1000]
        assert len(done) == 2 and done[-1] == len(terms) - 1
        assert terms[: done[0] + 1] == sorted(terms[: done[0] + 1])

    def test_radius_too_small_step_logged(self, tmp_path, monkeypatch, caplog):
        real = cflat.codec.union_bound
        calls = []

        def first_call_too_small(lat, nu_sq, radius):
            calls.append(radius)
            if len(calls) == 1:
                raise RadiusTooSmall("no vector")
            return real(lat, nu_sq, radius)

        # cflat codec imports union_bound from cflat.codec when it runs
        monkeypatch.setattr(cflat.codec, "union_bound", first_call_too_small)
        caplog.set_level(logging.DEBUG, logger="cflat.codec")
        out = tmp_path / "codec.csv"
        args = self.K121_ARGS + ["--snr-db", "10", "--trials", "50"]
        assert main(args + ["--output", str(out)]) == 0
        # the SNR point's certified-trials record comes first
        logged = [r.getMessage() for r in caplog.records]
        assert logged[0].startswith("monte carlo: ")
        first, second = logged[1:3]
        assert first == (
            f"union bound: RadiusTooSmall at radius {calls[0]:.6g}, "
            f"doubling to {2 * calls[0]:.6g}"
        )
        assert calls[1] == 2 * calls[0]
        assert second.startswith(f"union bound: radius {calls[1]:.6g}, ")

    @pytest.mark.parametrize("lf", ["0", "1"])
    def test_trivial_message_space_has_zero_union_bound(self, capsys, lf):
        args = ["codec", "--d", "5", "--p", "11", "--T", "2", "--lf", lf, "--lc", lf,
                "--snr-db", "10", "--trials", "100"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[3] == "0.000000e+00"

    @pytest.mark.parametrize("lf, lc", [("1", "0"), ("2", "1")], ids=["k11", "k121"])
    def test_lattice_built_once_per_call(self, tmp_path, monkeypatch, lf, lc):
        """The build at gamma = 1 and its calibration draw run once per call;
        the lattice at each SNR point is the one build_construction_a gives."""
        real_build, real_rng = cflat.codec._build, np.random.default_rng
        real_sim = cflat.codec.simulate_codec
        builds, draws, used = [], [], []

        def counting_build(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        def counting_rng(seed=None):
            draws.append(seed)
            return real_rng(seed)

        def recording_sim(lat, ch, cand, trials, seed):
            used.append((ch.P, lat))
            return real_sim(lat, ch, cand, trials, seed)

        monkeypatch.setattr(cflat.codec, "_build", counting_build)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        monkeypatch.setattr(cflat.codec, "simulate_codec", recording_sim)
        args = ["codec", "--d", "5", "--p", "11", "--T", "2", "--lf", lf, "--lc", lc,
                "--snr-db", "0:10:60", "--trials", "10", "--seed", "4",
                "--output", str(tmp_path / "codec.csv")]  # fmt: skip
        assert main(args) == 0
        monkeypatch.undo()
        assert len(builds) == 1
        assert draws.count(cflat.codec._POWER_SEED) == 1
        assert [P for P, _ in used] == [10.0 ** (k / 10) for k in range(0, 61, 10)]
        field = make_quadratic_field(5)
        prime = prime_above(field, 11)
        for P, lat in used:
            want = build_construction_a(field, prime, lat.codes, target_power=P)
            for f in dataclasses.fields(want):
                got, ref = getattr(lat, f.name), getattr(want, f.name)
                if isinstance(ref, np.ndarray):
                    assert got.dtype == ref.dtype and got.shape == ref.shape, f.name
                    assert got.tobytes() == ref.tobytes(), f.name
                elif isinstance(ref, (int, float, cflat.codec.NestedCodePair)):
                    assert got == ref, f.name

    def test_mu_half_tie_ideal_finishes(self):
        # the embedded ideal basis of (41, 67) has mu = 1/2 exactly; run in a
        # subprocess so a hang in its reduction fails instead of stalling
        env = child_env()
        out = subprocess.run(
            [sys.executable, "-m", "cflat.cli", "codec", "--d", "41", "--p", "67",
             "--T", "1", "--lf", "0", "--lc", "0", "--snr-db", "10", "--trials", "10"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[1] == "10,0.000000e+00,0.000000e+00,0.000000e+00,10"

    @pytest.mark.parametrize(
        "p, T", [(11, 300), (999983, 30)], ids=["T300", "p999983"]
    )
    def test_volume_overflow_is_validation_error(self, capsys, p, T):
        # the coarse volume 11^300 5^150 and (999983^2)^30 5^15 overflow a
        # float; the build stops before any lattice work
        argv = ["codec", "--d", "5", "--p", str(p), "--T", str(T), "--lf", "0",
                "--lc", "0", "--snr-db", "10", "--trials", "10"]  # fmt: skip
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: volume ")
        assert err[0].endswith("overflows")
        assert not caught

    def test_prime_above_limit_is_validation_error(self, capsys):
        args = ["codec", "--d", "5", "--p", "1000003", "--T", "1", "--lf", "0",
                "--lc", "0", "--trials", "10"]
        assert main(args) == 2
        assert "p <= 1000000" in capsys.readouterr().err

    def test_ramified_prime_is_validation_error(self):
        assert (
            main(
                ["codec", "--d", "5", "--p", "5", "--T", "2", "--lf", "1",
                 "--lc", "0", "--trials", "10"]
            )
            == 2
        )


class TestSvpCommand:
    def test_identity_basis(self, tmp_path, capsys):
        f = tmp_path / "basis"
        f.write_text("2\n1 0\n0 1\n")
        assert main(["svp", "--basis", str(f)]) == 0
        out = capsys.readouterr().out
        assert "norm_sq 1" in out

    def test_golden_basis(self, tmp_path, capsys):
        F5 = make_quadratic_field(5)
        f = tmp_path / "basis"
        rows = "\n".join(" ".join(f"{x:.17g}" for x in row) for row in F5.embedding)
        f.write_text(f"2\n{rows}\n")
        assert main(["svp", "--basis", str(f)]) == 0
        out = capsys.readouterr().out
        assert "norm_sq 2" in out
        assert "coords 1 0" in out

    def test_malformed_file(self, tmp_path):
        f = tmp_path / "basis"
        f.write_text("2\n1 0 0\n")
        assert main(["svp", "--basis", str(f)]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert main(["svp", "--basis", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize(
        "entries, cause",
        [
            ("2 nan 0 0 1", "basis column 0 has a non-finite entry"),
            ("2 inf 0 0 1", "basis column 0 has a non-finite entry"),
            ("2 1e200 0 0 1e200", "squared norm of basis column 0 overflows"),
            ("3 1 0 0 0 1 0 0 -inf 1", "basis column 1 has a non-finite entry"),
            # squared norm 1e-320: the LLL's first size-reduction
            # coefficient would overflow to inf
            ("2 1e-160 1e150 0 1", "squared norm of basis column 0 is subnormal"),
            ("3 1e-160 1e150 0 0 1 0 0 0 1", "squared norm of basis column 0 is subnormal"),
        ],
    )
    def test_nonfinite_basis_is_validation_error(self, tmp_path, capsys, entries, cause):
        f = tmp_path / "basis"
        f.write_text(entries + "\n")
        assert main(["svp", "--basis", str(f)]) == 2
        assert cause in capsys.readouterr().err

    def test_hexagonal_tie_break(self, tmp_path):
        # three tied shortest vectors; the lexicographic pick is (0, 1).  Run
        # in a subprocess so a reduction that loops on the tie fails
        f = tmp_path / "basis"
        f.write_text("2 1 0.5 0 0.8660254037844386\n")
        env = child_env()
        out = subprocess.run(
            [sys.executable, "-m", "cflat.cli", "svp", "--basis", str(f)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["norm_sq 1", "coords 0 1"]


# every subcommand at the edges of what it accepts: argv with {f} for a file
# holding the case's basis text, and the exit code (0, or 2 with one
# `error:` line)
def _codec(d, p, T, lf, lc, *rest):
    return ["codec", "--d", str(d), "--p", str(p), "--T", str(T), "--lf", str(lf),
            "--lc", str(lc), *(rest or ("--snr-db", "10", "--trials", "10"))]  # fmt: skip


_H = "1,0.5;0.3,1"
EXIT_CASES = {
    "rate_snr_400": (["rate", "--d", "5", "--snr-db", "400", "--h", _H], None, 0),
    "rate_snr_-400": (["rate", "--d", "5", "--snr-db", "-400", "--h", _H], None, 0),
    # at 400 dB a per-block basis of naive_Z (trial 2, block 0) is
    # numerically rank deficient: its shortest vector has squared norm 0.0
    "sweep_snr_pm400": (["sweep", "--snr-db=-400,400", "--trials", "3"], None, 2),
    "sweep_snr_-400": (["sweep", "--snr-db=-400", "--trials", "3"], None, 0),
    "sweep_gain_overflow": (["sweep", "--snr-db=0,3080", "--trials", "3"], None, 2),
    # 10^(snr/10) itself overflows a float from about 3083 dB
    "rate_snr_overflow": (["rate", "--d", "5", "--snr-db", "3100", "--h", _H], None, 2),
    "sweep_snr_overflow": (["sweep", "--snr-db", "3100", "--trials", "2", "--schemes", "mac"], None, 2),
    "codec_snr_overflow": (_codec(5, 11, 2, 1, 0, "--snr-db", "3100", "--trials", "10"), None, 2),
    "codec_snr_pm400": (_codec(5, 11, 2, 1, 0, "--snr-db=-400,400", "--trials", "200"), None, 0),
    # the two evaluations of the effective noise disagree: NoiseIdentityViolated
    "rate_noise_identity": (
        ["rate", "--d", "5", "--h", "0.9,-0.3;0.2,1.1", "--snr-db", "3000"], None, 2,
    ),
    "sweep_noise_identity": (
        ["sweep", "--schemes", "am_ring(3),naive_Z", "--snr-db", "3000", "--trials", "20",
         "--seed", "2"], None, 2,
    ),
    "codec_noise_identity": (
        _codec(5, 11, 2, 1, 0, "--snr-db", "3050", "--trials", "10"), None, 2,
    ),
    "rate_zero_gains": (["rate", "--d", "5", "--snr-db", "20", "--h", "0,0;0,0"], None, 0),
    "rate_equal_gains": (["rate", "--d", "5", "--snr-db", "20", "--h", "1,1;1,1"], None, 0),
    "rate_subnormal_gains": (
        ["rate", "--d", "5", "--snr-db", "20", "--h", "1e-170,1e-170;1e-170,1e-170"], None, 0,
    ),
    "rate_huge_gains": (
        ["rate", "--d", "5", "--snr-db", "20", "--h", "1e160,1e160;1e160,1e160"], None, 2,
    ),
    "sweep_L7": (["sweep", "--L", "7", "--snr-db", "0,20,40", "--trials", "2"], None, 0),
    # a 40-D ring search that needs 8.7 M enumeration nodes: refused at the
    # node budget, in a few seconds
    "sweep_L20_snr_120": (
        ["sweep", "--L", "20", "--schemes", "am_ring(5)", "--trials", "1", "--snr-db", "120"],
        None, 2,
    ),
    "codec_L7": (_codec(5, 11, 2, 1, 0, "--L", "7", "--snr-db", "20", "--trials", "200"), None, 0),
    "field_d_max_prime": (["field", "info", "--d", "999999999989"], None, 0),
    "codec_d_max_prime": (_codec(999999999989, 2, 1, 0, 0), None, 0),
    "codec_p_max_prime": (_codec(5, 999983, 1, 0, 0), None, 0),
    "codec_K4096": (_codec(5, 2, 6, 6, 0), None, 0),
    "codec_T1": (_codec(5, 11, 1, 1, 0), None, 0),
    "codec_T0": (_codec(5, 11, 0, 0, 0), None, 2),
    "codec_lc_eq_lf": (_codec(5, 11, 2, 1, 1), None, 0),
    # the largest T the volume check accepts at p = 11: a 442-D calibration
    "codec_T221": (_codec(5, 11, 221, 0, 0, "--snr-db", "10", "--trials", "100"), None, 0),
    "svp_scale_1e100": (["svp", "--basis", "{f}"], "3 1e100 0 0 0 1e100 0 0 0 1e100", 0),
    "svp_scale_1e-100": (["svp", "--basis", "{f}"], "3 1e-100 0 0 0 1e-100 0 0 0 1e-100", 0),
    "svp_huge_entries": (["svp", "--basis", "{f}"], "2 1e200 0 0 1e200", 2),
    # a per-block basis at 320 dB whose shortest vector has squared norm 0.0
    "svp_rank_deficient_320_db": (
        ["svp", "--basis", "{f}"],
        "2 0.5727702124432328 -0.49467615283230176 -0.49467615283230176 0.4272297875567672", 2,
    ),
    # block 0 of sample_channels(43, 20, 2, 2) at 400 dB: the rank guard
    # passes, and the vector found, (369060607, 365735051), has squared norm 0.0
    "svp_zero_norm_answer_400_db": (
        ["svp", "--basis", "{f}"],
        "2 0.4954742684615199 -0.499979517334502 -0.499979517334502 0.5045257315384801", 2,
    ),
}  # fmt: skip


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_every_subcommand_exits_0_or_2(case, tmp_path):
    # in a fresh interpreter with a wall-time cap, so a hang fails the case
    # and a traceback or a RuntimeWarning shows on its stderr
    argv, text, code = EXIT_CASES[case]
    f = tmp_path / "basis"
    if text is not None:
        f.write_text(text + "\n")
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-m", "cflat.cli", *(a.replace("{f}", str(f)) for a in argv)],
        capture_output=True, text=True, timeout=30, env=env,
    )  # fmt: skip
    err = out.stderr.splitlines()
    assert out.returncode == code, out.stderr
    if code == 0:
        assert not err and out.stdout
    else:
        assert len(err) == 1 and err[0].startswith("error: "), out.stderr


def test_cached_parser_gives_a_fresh_parsers_results(capsys, monkeypatch):
    # main builds its parser once and reuses it; in-process calls in a row,
    # a rejected flag first, exit and print as with a parser built per call
    runs = [
        ["rate", "--d", "5", "--snr-db", "20", "--bogus"],
        ["rate", "--d", "5", "--snr-db", "20", "--h", _H],
        ["sweep", "--snr-db", "0,20", "--trials", "3"],
        _codec(5, 11, 2, 1, 0),
    ]

    def outcomes():
        got = []
        for argv in runs:
            code = main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    cached = outcomes()
    assert cflat.cli._build_parser() is cflat.cli._build_parser()
    monkeypatch.setattr(cflat.cli, "_build_parser", cflat.cli._build_parser.__wrapped__)
    assert cached == outcomes()
    assert [c[0] for c in cached] == [2, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in cached[0][2]


_NUMPY_MA_CHILD = """
import sys
from cflat.cli import main
main(["sweep", "--trials", "20", "--output", sys.argv[1]])
main(["sweep", "--L", "3", "--trials", "5", "--output", sys.argv[1]])
print("numpy.ma" in sys.modules)
"""


def test_sweep_does_not_import_numpy_ma(tmp_path):
    # some numpy set routines (setdiff1d) import numpy.ma on first use,
    # about 1.9 MB of resident memory; the sweep uses boolean masks instead
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_CHILD, str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=60, env=env,
    )  # fmt: skip
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


_MODULES_CHILD = """
import sys
from cflat.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("cflat.")), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, out, modules",
    [
        (["svp", "--basis", "BASIS"], "norm_sq 11\ncoords 0 1 0\n", "channel cli numfield svp"),
        (["rate", "--d", "5", "--snr-db", "20", "--h", _H], "rate_bits 4.380516\n", "channel cli numfield svp"),
        (["field", "info", "--d", "5"], "discriminant 5\n", "cli numfield"),
    ],
    ids=["svp", "rate", "field"],
)
def test_subcommand_loads_only_the_modules_it_uses(tmp_path, argv, out, modules):
    # a fresh `cflat svp` or `cflat rate` compiles neither cflat.codec nor
    # cflat.simkit: each subcommand imports its modules when it runs
    basis = tmp_path / "basis.txt"
    basis.write_text("3\n4 1 3\n1 3 1\n0 1 4\n")
    argv = [str(basis) if a == "BASIS" else a for a in argv]
    env = child_env()
    child = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )  # fmt: skip
    assert child.returncode == 0, child.stderr
    assert out in child.stdout
    assert child.stderr.split() == ["0"] + [f"cflat.{m}" for m in modules.split()]


# a small k11 `cflat codec` run's CSV text
_CODEC_KERNEL_CHILD = """
from cflat.cli import main
main(["codec", "--d", "5", "--p", "11", "--T", "2", "--lf", "1", "--lc", "0",
      "--snr-db", "0:10:30", "--trials", "20000", "--seed", "7"])
"""


def test_codec_csv_does_not_depend_on_the_blas_kernel():
    # the Monte Carlo's 2-D products and the build's calibration run on
    # BLAS; their last bits may follow the kernel, the CSV must not
    outs = outputs_per_kernel(_CODEC_KERNEL_CHILD)
    assert outs[0].startswith("snr_db,error_rate,stderr,union_bound,trials\n")
    assert len(outs[0].splitlines()) == 5
    assert outs[0] == outs[1] == outs[2]


# the T = 221 run's peak resident size in KiB: VmHWM, since ru_maxrss keeps
# the high-water mark of the process that forked the child
_CODEC_T221_CHILD = """
import sys
from cflat.cli import main
code = main(["codec", "--d", "5", "--p", "11", "--T", "221", "--lf", "0", "--lc", "0",
             "--snr-db", "10", "--trials", "100", "--output", sys.argv[1]])
with open("/proc/self/status") as f:
    hwm = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
print(code, hwm)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_large_T_codec_memory_does_not_follow_the_calibration_draw(tmp_path):
    # a one-block calibration draw holds two 100,000 x 442 arrays (about
    # 700 MB); the blocked draw holds two blocks of at most 2^14 cells
    env = child_env()
    out_csv = tmp_path / "codec.csv"
    out = subprocess.run(
        [sys.executable, "-c", _CODEC_T221_CHILD, str(out_csv)],
        capture_output=True, text=True, timeout=60, env=env,
    )  # fmt: skip
    assert out.returncode == 0, out.stderr
    code, peak_kib = map(int, out.stdout.split())
    assert code == 0
    assert peak_kib < 150 * 1024
    assert out_csv.read_text() == (
        "snr_db,error_rate,stderr,union_bound,trials\n"
        "10,0.000000e+00,0.000000e+00,0.000000e+00,100\n"
    )
