import logging
import math
import warnings

import numpy as np
import pytest

import cflat.cli
from cflat.cli import (
    InvalidValue,
    ParseError,
    UnknownKey,
    main,
    parse_config,
    read_sweep_csv,
)
from cflat.channel import BlockFadingChannel
from cflat.codec import RadiusTooSmall
from cflat.svp import best_equation
from cflat.numfield import make_quadratic_field


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
        rows = read_sweep_csv(str(out))
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
            s = res.snr_db.index(row["snr_db"])
            assert row["mean_rate_bits"] == round(float(res.mean[k, s]), 6)
            assert row["stderr_bits"] == round(float(res.stderr[k, s]), 6)
            assert row["trials"] == 6 and row["seed"] == 11

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
        steps = [r.getMessage() for r in caplog.records if r.name == "cflat.codec"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        assert all(m.startswith("union bound: radius ") for m in steps)
        terms = [int(m.split(", ")[1].split()[0]) for m in steps]
        # each SNR point grows the radius until it holds 1000 terms
        done = [i for i, t in enumerate(terms) if t >= 1000]
        assert len(done) == 2 and done[-1] == len(terms) - 1
        assert terms[: done[0] + 1] == sorted(terms[: done[0] + 1])

    def test_radius_too_small_step_logged(self, tmp_path, monkeypatch, caplog):
        real = cflat.cli.union_bound
        calls = []

        def first_call_too_small(lat, nu_sq, radius):
            calls.append(radius)
            if len(calls) == 1:
                raise RadiusTooSmall("no vector")
            return real(lat, nu_sq, radius)

        monkeypatch.setattr(cflat.cli, "union_bound", first_call_too_small)
        caplog.set_level(logging.DEBUG, logger="cflat.codec")
        out = tmp_path / "codec.csv"
        args = self.K121_ARGS + ["--snr-db", "10", "--trials", "50"]
        assert main(args + ["--output", str(out)]) == 0
        first, second = (r.getMessage() for r in caplog.records[:2])
        assert first == (
            f"union bound: RadiusTooSmall at radius {calls[0]:.6g}, "
            f"doubling to {2 * calls[0]:.6g}"
        )
        assert calls[1] == 2 * calls[0]
        assert second.startswith(f"union bound: radius {calls[1]:.6g}, ")

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
