"""svp._lll_reduce against the plain-loop LLL it unrolls (tests/lll_oracle.py):
the same reduced rows, transform, Gram-Schmidt coefficients and norms, bit
for bit, or the same error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflat.channel import BlockFadingChannel
from cflat.numfield import make_quadratic_field, prime_above
from cflat.simkit import sample_channels
from cflat.svp import _lll_reduce, _search_bases, build_search_basis
from lll_oracle import lll_reduce

# the input pool seed of the benchmark's rate-highsnr workload
RATE_POOL_SEED = 20170204


def outcome(reduce, rows):
    """reduce(rows) with every float as its hex string and every transform
    entry as an int, or the error's type and message."""
    try:
        b, T, mu, norms = reduce(rows)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    assert all(type(x) is int for r in T for x in r)
    hexes = [[x.hex() for x in r] for r in (*b, *mu, norms)]
    return hexes, T


def assert_bit_equal(rows):
    got, want = outcome(_lll_reduce, rows), outcome(lll_reduce, rows)
    assert got == want
    return got


def assert_bit_equal_on(bases):
    """Both reductions on the columns of each basis of a (batch, m, k) array,
    as shortest_vector passes them."""
    for basis in bases:
        assert_bit_equal(basis.T.tolist())


def snr_grid(lo, hi, step):
    return [10.0 ** (s / 10.0) for s in range(lo, hi + 1, step)]


def test_rate_highsnr_pool():
    # the first 100 channels of the pool (n = 2, L = 3), over Z and the
    # fields d = 3, 5, 7 at 40 to 80 dB: the bases of best_equation
    fields = [None] + [make_quadratic_field(d) for d in (3, 5, 7)]
    for c in range(100):
        h = sample_channels(RATE_POOL_SEED, c, 2, 3)
        for field in fields:
            for P in snr_grid(40, 80, 10):
                assert_bit_equal(build_search_basis(field, BlockFadingChannel(h, P)).T.tolist())


@pytest.mark.parametrize("d", [3, 5, 7])
def test_ring_0_to_300_db_sweep_bases(d):
    # the ring bases of test_sweep_equals_cold_calls[ring-0-300]: channels
    # sample_channels(1, t, 2, 2), t < 100, 0 to 300 dB by 10 dB
    h = np.array([sample_channels(1, t, 2, 2) for t in range(100)])
    field = make_quadratic_field(d)
    for P in snr_grid(0, 300, 10):
        assert_bit_equal_on(_search_bases([field], h, P))


@pytest.mark.parametrize("d, L", [(None, 2), (3, 1), (5, 1), (7, 1)])
def test_two_column_bases_to_300_db(d, L):
    field = None if d is None else make_quadratic_field(d)
    h = np.array([sample_channels(1, t, 2, L) for t in range(50)])
    for P in snr_grid(0, 300, 10):
        bases = _search_bases([field], h, P)
        assert bases.shape[2] == 2
        assert_bit_equal_on(bases)


def test_forty_column_basis():
    # L = 20 at 120 dB, d = 5: 40 columns of length 40
    h = sample_channels(1000, 0, 2, 20)
    B = build_search_basis(make_quadratic_field(5), BlockFadingChannel(h, 1e12))
    assert B.shape == (40, 40)
    assert_bit_equal(B.T.tolist())


def test_codec_ideal_bases():
    # the embedded prime ideal bases Construction A reduces, for every field
    # d in {2, 3, 5, 13} and unramified p <= 13 of the codec's code grid
    reduced = 0
    for d in (2, 3, 5, 13):
        field = make_quadratic_field(d)
        for p in (2, 3, 5, 7, 11, 13):
            if field.discriminant % p:
                cols = field.embedding @ prime_above(field, p).basis_matrix()
                assert_bit_equal(list(cols.T))  # numpy rows, as the codec passes
                reduced += 1
    assert reduced == 19


def test_rows_longer_than_one_dot_statement():
    # the unrolled dot product sums _DOT_TERMS terms per statement: rows of
    # 600 floats take three, and rows of 5,000 entries would not compile as
    # one chain of +
    rng = np.random.default_rng(7)
    assert_bit_equal(rng.standard_normal((4, 600)).tolist())
    assert_bit_equal(rng.integers(-9, 10, (3, 5000)).astype(float).tolist())


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[3.0, 1.0, 4.0], [1.0, 5.0, 9.0], [4.0, 6.0, 13.0]],
        [[1.0, 1e-9], [1.0, 0.0], [0.0, 1.0]],
        [[1e150, 1e150], [1e150, 1e150]],
        [[1.0], [1.0]],
    ],
)
def test_rank_deficient_inputs(rows):
    # the same check raises, with the same message
    assert assert_bit_equal(rows) == ("RankDeficient", "basis is numerically rank deficient")


@st.composite
def bases(draw):
    """1 to 8 rows of length m - 1 to 8: floats of magnitude 1e-100 to 1e100,
    small integers (exact ties in the rounding and the Lovasz test), or a
    basis with one row a small perturbation of a combination of the others
    (nearly dependent)."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(max(1, m - 1), 8))
    kind = draw(st.sampled_from(["float", "integer", "dependent"]))
    if kind == "float":
        scale = draw(st.integers(-100, 100))
        exponent = st.integers(-12, 12).map(lambda e: max(-100, min(99, scale + e)))
        entry = st.builds(
            lambda sign, x, e: sign * x * 10.0**e,
            st.sampled_from([-1.0, 1.0]),
            st.floats(1.0, 10.0, exclude_max=True),
            exponent,
        ) | st.just(0.0)
        return [[draw(entry) for _ in range(n)] for _ in range(m)]
    rows = [[float(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)]
    if kind == "dependent" and m > 1:
        coef = [draw(st.integers(-2, 2)) for _ in range(m - 1)]
        eps = 10.0 ** -draw(st.integers(1, 16))
        i = draw(st.integers(0, m - 1))
        others = rows[:i] + rows[i + 1 :]
        rows[i] = [
            sum(c * r[col] for c, r in zip(coef, others)) + eps * draw(st.sampled_from([-1, 0, 1]))
            for col in range(n)
        ]
    return rows


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(rows=bases())
def test_equals_oracle_on_generated_bases(rows):
    assert_bit_equal(rows)
