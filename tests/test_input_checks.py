"""Each documented input check raises its documented error: library calls
raise their typed ValueError, and the CLI exits 2 with one `error:` line."""

import numpy as np
import pytest

from cflat.channel import BlockFadingChannel, am_rate, coefficient_embeddings
from cflat.cli import main
from cflat.codec import (
    DimensionMismatch, NestedCodePair, _build, build_construction_a, run_codec, simulate_codec,
)
from cflat.numfield import NotSquarefree, RingElement, make_quadratic_field, prime_above
from cflat.simkit import SweepConfig
from cflat.svp import best_equation, best_integer_block, shortest_vector

from codec_oracle import lattice_membership, ring_combine

F3 = make_quadratic_field(3)
F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
CODES = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))
LAT = _build(F5, P11, CODES)
CH = BlockFadingChannel(np.array([[1.0, 0.5], [0.3, 1.0]]), 10.0)
CAND = best_equation(F5, CH)


def build(codes=CODES, prime=P11):
    return lambda: build_construction_a(F5, prime, codes, 1.0)


LIBRARY_CASES = {
    # _squarefree: d = 9 * 1, 9 * 5 and 25 * 7 have an odd square factor
    "squarefree_9": (lambda: make_quadratic_field(9), NotSquarefree, "square factor"),
    "squarefree_45": (lambda: make_quadratic_field(45), NotSquarefree, "square factor"),
    "squarefree_175": (lambda: make_quadratic_field(175), NotSquarefree, "square factor"),
    "build_foreign_prime": (
        build(prime=prime_above(F3, 11)), DimensionMismatch, "different field",
    ),
    "build_lc_above_lf": (
        build(NestedCodePair(11, 1, 2, 1, 2, ((1,), (1,)))),
        DimensionMismatch,
        "l_c <= l_f",
    ),
    # T = 0 divided by zero in the rate and the power calibration
    "build_T0_target_power": (
        build(NestedCodePair(11, 1, 0, 0, 0, ())), DimensionMismatch, "T >= 1",
    ),
    "build_entry_not_residue": (
        build(NestedCodePair(11, 1, 2, 1, 0, ((11,), (1,)))),
        DimensionMismatch,
        "encoded residues",
    ),
    # run_codec checks the code against the prime and the channel against the field
    "run_codec_foreign_prime": (
        lambda: run_codec(F5, prime_above(F3, 11), CODES, np.ones((2, 2)), [10.0], 1, 0),
        DimensionMismatch,
        "different field",
    ),
    "run_codec_block_count": (
        lambda: run_codec(F5, P11, CODES, np.ones((3, 2)), [10.0], 1, 0),
        ValueError,
        "block count 3",
    ),
    # the checks of the test oracles in codec_oracle.py
    "ring_combine_count": (
        lambda: ring_combine(LAT, [RingElement(1, 0)] * 2, [np.zeros((2, 2))]),
        ValueError,
        "one coefficient per codeword",
    ),
    "ring_combine_shape": (
        lambda: ring_combine(LAT, [RingElement(1, 0)], [np.zeros((2, 3))]),
        ValueError,
        "codeword must be 2 x 2",
    ),
    "membership_which": (
        lambda: lattice_membership(LAT, "x", np.zeros((2, 2))),
        ValueError,
        "'fine' or 'coarse'",
    ),
    "simulate_block_count": (
        lambda: simulate_codec(LAT, BlockFadingChannel(np.ones((3, 2)), 10.0), CAND, 1, 0),
        DimensionMismatch,
        "block count",
    ),
    "simulate_coefficient_count": (
        lambda: simulate_codec(LAT, BlockFadingChannel(np.ones((2, 3)), 10.0), CAND, 1, 0),
        DimensionMismatch,
        "one coefficient per user",
    ),
    "coefficient_embeddings_degree": (
        lambda: coefficient_embeddings((RingElement(1, 0),), F5, 3),
        ValueError,
        "field degree 2 != block count 3",
    ),
    "scheme_am_ring_x": (
        lambda: SweepConfig(schemes=("am_ring(x)",)), ValueError, "unknown scheme",
    ),
    # a channel, a sweep, a basis or a gain row with no entries along an
    # axis failed later with IndexError, or ran and returned a rate
    "channel_no_users": (
        lambda: BlockFadingChannel(np.ones((2, 0)), 10.0), ValueError, r"shape \(2, 0\)",
    ),
    "sweep_no_blocks": (lambda: SweepConfig(n=0), ValueError, r"\(n, L\) = \(0, 2\)"),
    "svp_no_columns": (lambda: shortest_vector(np.ones((2, 0))), ValueError, r"shape \(2, 0\)"),
    "integer_block_empty_row": (
        lambda: best_integer_block([], 10.0), ValueError, r"nonempty row, got shape \(0,\)",
    ),
    # one ring coefficient on two users read as a NoiseIdentityViolated
    "am_rate_coefficient_count": (
        lambda: am_rate(CH, (RingElement(1, 0),), F5), ValueError, "1 entries for L = 2 users",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_CASES))
def test_library_input_check(case):
    call, error, match = LIBRARY_CASES[case]
    with pytest.raises(error, match=match):
        call()


# argv with {f} for a file written with the case's text (None: no file)
CLI_CASES = {
    "config_trials_abc": (["sweep", "--config", "{f}"], "trials = abc\n", "trials must be an integer"),
    "config_empty_value": (["sweep", "--config", "{f}"], "trials =\n", "empty value for 'trials'"),
    "config_unreadable": (["sweep", "--config", "{f}/missing.cfg"], None, "cannot read config"),
    # a missing or directory channel file or basis exited 1, as a runtime failure
    "channel_file_missing": (
        ["rate", "--snr-db", "10", "--channel-file", "{f}/missing.txt"],
        None,
        "cannot read channel file",
    ),
    "basis_is_directory": (["svp", "--basis", "{f}"], None, "cannot read basis"),
    "rate_unparsable_h": (
        ["rate", "--d", "5", "--snr-db", "10", "--h", "1,x;0,1"], None, "cannot parse channel",
    ),
    "codec_T0": (
        ["codec", "--d", "5", "--p", "11", "--T", "0", "--lf", "0", "--lc", "0",
         "--snr-db", "10", "--trials", "10"],
        None,
        "need T >= 1",
    ),  # fmt: skip
    "svp_empty_basis": (["svp", "--basis", "{f}"], "\n", "empty basis file"),
    "svp_malformed_basis": (["svp", "--basis", "{f}"], "2 a b c d\n", "'dim' then dim*dim reals"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_input_check(case, tmp_path, capsys):
    argv, text, match = CLI_CASES[case]
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text)
    else:
        f = tmp_path
    assert main([a.replace("{f}", str(f)) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and match in err[0]


@pytest.mark.parametrize("flag", ["--config", "--basis"])
def test_undecodable_file_is_named(flag, tmp_path, capsys):
    # a file that is not UTF-8 exited 2 with the decoder's message alone
    f = tmp_path / "input"
    f.write_bytes(b"\xff2 1 0 0 1\n")
    assert main(["sweep" if flag == "--config" else "svp", flag, str(f)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {flag[2:]} {f}: ")


def test_subnormal_gains_give_rate_zero(capsys):
    # each gain squared, 1e-340, underflows to 0: the channel reads as zero
    argv = ["rate", "--d", "5", "--snr-db", "20", "--h", "1e-170,1e-170;1e-170,1e-170"]
    assert main(argv) == 0
    assert "rate_bits 0.000000" in capsys.readouterr().out.splitlines()
