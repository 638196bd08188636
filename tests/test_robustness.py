"""The rate algebra and the coefficient search answer, never raise, from 0 to
120 dB, at channel gains from 1e-8 to 1e8 and with up to six users; f and
every nu_j^2 match exact rational evaluations of the same float inputs.  No
library module raises an internal AssertionError."""

import ast
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import cflat
from cflat.channel import BlockFadingChannel, naive_rate
from cflat.numfield import make_quadratic_field
from cflat.simkit import sample_channels
from cflat.svp import best_equation

FIELDS = (None,) + tuple(make_quadratic_field(d) for d in (3, 5, 7))
REL = Fraction(1, 10**12)


def exact_block(h, s, P):
    """s^T M s and |b|^2 + P||b h - s||^2 at the exact MMSE scalar b, in
    rationals."""
    h = [Fraction(x) for x in h]
    s = [Fraction(x) for x in s]
    P = Fraction(P)
    sh = sum(x * y for x, y in zip(s, h))
    g = 1 + P * sum(x * x for x in h)
    b = P * sh / g
    f = sum(x * x for x in s) - P * sh * sh / g
    nu_sq = b * b + P * sum((b * x - y) ** 2 for x, y in zip(h, s))
    return f, nu_sq


def assert_close(got: float, want: Fraction):
    assert abs(Fraction(got) - want) <= REL * want, (got, float(want))


def check_channels(chans):
    for ch in chans:
        for field in FIELDS:
            cand = best_equation(field, ch)
            f = 0
            for j in range(ch.n):
                fj, nu_sq = exact_block(ch.h[j], cand.sigma[j], ch.P)
                assert_close(float(cand.nu_sq[j]), nu_sq)
                f += fj
            assert_close(cand.quad_form, f)
        naive_rate(ch)


@pytest.mark.parametrize("snr_db", range(0, 130, 10))
def test_headline_channels(snr_db):
    P = 10.0 ** (snr_db / 10.0)
    check_channels(BlockFadingChannel(sample_channels(1, t, 2, 2), P) for t in range(40))


@pytest.mark.parametrize("exponent", range(-8, 9))
def test_gain_scale(exponent):
    for snr_db in (30, 60):
        P = 10.0 ** (snr_db / 10.0)
        check_channels(
            BlockFadingChannel(10.0**exponent * sample_channels(2, t, 2, 2), P)
            for t in range(15)
        )


def test_three_users_at_80_db():
    check_channels(BlockFadingChannel(sample_channels(3, t, 2, 3), 1e8) for t in range(20))


def test_six_users_at_60_db():
    check_channels(BlockFadingChannel(sample_channels(6, t, 2, 6), 1e6) for t in range(5))


def test_zero_channel():
    # g = 1 and the Lagrange sum vanishes: f = ||s||^2, nu^2 = P ||s||^2
    check_channels([BlockFadingChannel(np.zeros((2, 3)), 1e6)])


def test_no_module_raises_assertion_error():
    # a failure the library can detect is a typed ValueError (exit 2), so
    # no module names AssertionError or holds an assert statement
    sources = sorted(pathlib.Path(cflat.__file__).parent.glob("*.py"))
    assert len(sources) == 7
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert name != "AssertionError", f"{path.name}:{node.lineno}"
