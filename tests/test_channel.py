import math

import numpy as np
import pytest

from cflat.channel import (
    BlockFadingChannel,
    ZeroCoefficient,
    am_rate,
    block_rate_Z,
    gram_matrix,
    mac_sum_capacity,
    mmse_scale,
    naive_rate,
)
from cflat.numfield import RingElement, make_quadratic_field

F5 = make_quadratic_field(5)


def matched_channel(P=10.0):
    return BlockFadingChannel(np.array([[1.0, 0.0], [1.0, 0.0]]), P)


def mmse_objective(b, h, sigma, P):
    r = b * h - sigma
    return b * b + P * float(r @ r)


class TestGram:
    def test_zero_channel_identity(self):
        assert np.allclose(gram_matrix([0.0, 0.0], 10.0), np.eye(2))

    def test_axis_channel(self):
        M = gram_matrix([1.0, 0.0], 10.0)
        assert np.allclose(M, np.diag([1.0 / 11.0, 1.0]))

    def test_diagonal_channel(self):
        M = gram_matrix([1.0, 1.0], 10.0)
        want = np.array([[11.0, -10.0], [-10.0, 11.0]]) / 21.0
        assert np.allclose(M, want)

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = rng.standard_normal(3)
            P = float(10 ** rng.uniform(0, 4))
            ev = np.linalg.eigvalsh(gram_matrix(h, P))
            assert np.all(ev > 0) and np.all(ev <= 1 + 1e-12)


class TestMMSE:
    def test_axis(self):
        assert mmse_scale([1.0, 0.0], [1.0, 0.0], 10.0) == pytest.approx(10 / 11)

    def test_orthogonal(self):
        assert mmse_scale([1.0, 0.0], [0.0, 3.0], 10.0) == 0.0

    def test_diagonal(self):
        assert mmse_scale([1.0, 1.0], [1.0, 0.0], 10.0) == pytest.approx(10 / 21)

    def test_local_minimum_and_stationarity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            L = int(rng.integers(1, 4))
            h = rng.standard_normal(L)
            sigma = rng.standard_normal(L)
            P = float(10 ** rng.uniform(0, 4))
            b = mmse_scale(h, sigma, P)
            f0 = mmse_objective(b, h, sigma, P)
            for eps in (1e-3, 1e-2):
                assert mmse_objective(b + eps, h, sigma, P) >= f0 - 1e-12
                assert mmse_objective(b - eps, h, sigma, P) >= f0 - 1e-12
            eps = 1e-4
            deriv = (
                mmse_objective(b + eps, h, sigma, P)
                - mmse_objective(b - eps, h, sigma, P)
            ) / (2 * eps)
            assert abs(deriv) < 1e-6 * max(1.0, f0)


class TestAmRate:
    def test_matched_channel_closed_form(self):
        # h_j = sigma_j(a) for all j gives (n/2) log2(1 + P), cross-checked by
        # the quadratic-form expression below
        ch = matched_channel()
        cand = am_rate(ch, (RingElement(1, 0), RingElement(0, 0)), F5)
        assert cand.rate_bits == pytest.approx(math.log2(11), rel=1e-12)
        f = sum(
            float(cand.sigma[j] @ gram_matrix(ch.h[j], ch.P) @ cand.sigma[j])
            for j in range(2)
        )
        assert cand.rate_bits == pytest.approx(math.log2(2 / f), rel=1e-12)

    def test_zero_channel_zero_rate(self):
        ch = BlockFadingChannel(np.zeros((2, 2)), 10.0)
        cand = am_rate(ch, (RingElement(1, 0), RingElement(0, 0)), F5)
        assert cand.rate_bits == 0.0
        assert cand.quad_form == pytest.approx(2.0)

    def test_zero_coefficient(self):
        ch = matched_channel()
        with pytest.raises(ZeroCoefficient):
            am_rate(ch, (RingElement(0, 0), RingElement(0, 0)), F5)
        with pytest.raises(ZeroCoefficient):
            am_rate(ch, (0, 0), None)

    def test_prop2_form_identity(self):
        """(n/2) log2+ (nP / (||B||^2 + P sum_l ||B H_l - A_l||^2)) with MMSE B
        equals the quadratic-form rate: 1000 random instances at 1e-9."""
        rng = np.random.default_rng(21)
        for _ in range(1000):
            h = rng.standard_normal((2, 2))
            P = float(10 ** rng.uniform(0, 4))
            ch = BlockFadingChannel(h, P)
            a = tuple(
                RingElement(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                for _ in range(2)
            )
            if all(x.is_zero() for x in a):
                a = (RingElement(1, 0), a[1])
            cand = am_rate(ch, a, F5)
            denom = float(cand.b @ cand.b)
            for l in range(2):
                resid = cand.b * h[:, l] - cand.sigma[:, l]
                denom += P * float(resid @ resid)
            oracle = 0.5 * 2 * max(math.log2(2 * P / denom), 0.0)
            assert cand.rate_bits == pytest.approx(oracle, rel=1e-9, abs=1e-12)
            # and the same denominator is n*sigma_AM^2
            assert denom == pytest.approx(2 * cand.sigma_am_sq, rel=1e-9)

    def test_am_gm_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            h = rng.standard_normal((2, 2))
            P = float(10 ** rng.uniform(0, 3))
            ch = BlockFadingChannel(h, P)
            cand = am_rate(ch, (RingElement(1, 1), RingElement(0, 1)), F5)
            assert cand.sigma_am_sq >= cand.sigma_gm_sq - 1e-12 * cand.sigma_am_sq
            assert np.all(cand.nu_sq >= 0)

    def test_am_gm_equality_iff_equal(self):
        # integer coefficients on a block-symmetric channel give equal per-block noise
        ch = BlockFadingChannel(np.array([[1.0, 0.5], [1.0, 0.5]]), 10.0)
        cand = am_rate(ch, (1, -1), None)
        assert cand.nu_sq[0] == pytest.approx(cand.nu_sq[1], rel=1e-12)
        assert cand.sigma_am_sq == pytest.approx(cand.sigma_gm_sq, rel=1e-12)

    def test_monotone_in_snr(self):
        h = np.array([[0.7, -0.2], [0.1, 1.1]])
        a = (RingElement(1, 0), RingElement(1, -1))
        rates = [
            am_rate(BlockFadingChannel(h, float(P)), a, F5).rate_bits
            for P in (1, 10, 100, 1000, 10000)
        ]
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(rates, rates[1:]))

    def test_degenerate_single_block_matches_integer_rate(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = rng.standard_normal((1, 2))
            P = float(10 ** rng.uniform(0, 3))
            ch = BlockFadingChannel(h, P)
            a = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            if a == (0, 0):
                a = (1, 0)
            assert am_rate(ch, a, None).rate_bits == block_rate_Z(h[0], a, P)

    def test_noise_formula_when_sigma_is_scaled_channel(self):
        # nu^2 = b^2 exactly when sigma_j(a) = b_j h_j
        rng = np.random.default_rng(13)
        for _ in range(100):
            h = rng.standard_normal(2)
            b = float(rng.standard_normal())
            P = float(10 ** rng.uniform(0, 3))
            assert mmse_objective(b, h, b * h, P) == pytest.approx(b * b)


class TestBlockRate:
    def test_matched(self):
        assert block_rate_Z([1.0, 0.0], [1, 0], 10.0) == pytest.approx(
            0.5 * math.log2(11), rel=1e-12
        )

    def test_orthogonal_clips_to_zero(self):
        for P in (1.0, 10.0, 1e4):
            assert block_rate_Z([1.0, 0.0], [0, 1], P) == 0.0

    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            block_rate_Z([1.0, 0.0], [0, 0], 10.0)


class TestNaive:
    def test_zero_channel(self):
        ch = BlockFadingChannel(np.zeros((2, 2)), 10.0)
        assert naive_rate(ch)[2] == 0.0

    def test_single_block_consistency(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((1, 2))
        ch = BlockFadingChannel(h, 25.0)
        j, a, rate = naive_rate(ch)
        assert j == 0
        # brute force oracle over the coefficient box
        best = 0.0
        for a1 in range(-8, 9):
            for a2 in range(-8, 9):
                if (a1, a2) != (0, 0):
                    best = max(best, block_rate_Z(h[0], [a1, a2], 25.0))
        assert rate == pytest.approx(best, rel=1e-9)

    def test_two_blocks_example(self):
        ch = BlockFadingChannel(np.array([[1.0, 0.0], [0.3, 0.7]]), 10.0)
        j, a, rate = naive_rate(ch)
        assert rate >= 0.5 * math.log2(11) - 1e-12  # block 1, a=(1,0) feasible
        best = 0.0
        for jj in range(2):
            for a1 in range(-8, 9):
                for a2 in range(-8, 9):
                    if (a1, a2) != (0, 0):
                        best = max(best, block_rate_Z(ch.h[jj], [a1, a2], 10.0))
        assert rate == pytest.approx(best, rel=1e-9)


class TestMacCapacity:
    def test_matched(self):
        assert mac_sum_capacity(matched_channel()) == pytest.approx(math.log2(11))

    def test_zero(self):
        assert mac_sum_capacity(BlockFadingChannel(np.zeros((2, 2)), 10.0)) == 0.0

    def test_one_active_block(self):
        ch = BlockFadingChannel(np.array([[1.0, 1.0], [0.0, 0.0]]), 10.0)
        assert mac_sum_capacity(ch) == pytest.approx(0.5 * math.log2(21))


class TestChannelValidation:
    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            BlockFadingChannel(np.ones((2, 2)), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BlockFadingChannel(np.array([[np.inf, 0.0]]), 1.0)

    def test_rejects_nonfinite_snr(self):
        with pytest.raises(ValueError, match="finite"):
            BlockFadingChannel(np.ones((2, 2)), np.inf)

    def test_rejects_overflowing_gain(self):
        h = np.array([[1.0, 0.5], [1e160, 2e160]])
        with pytest.raises(ValueError, match=r"h\[1\] = \[1e\+160, 2e\+160\]"):
            BlockFadingChannel(h, 1.0)
        # finite gains whose product with the SNR overflows
        with pytest.raises(ValueError, match=r"h\[0\]"):
            BlockFadingChannel(np.array([[1e150, 2e150], [1.0, 1.0]]), 1e8)

    def test_large_finite_load_accepted(self):
        h = np.array([[1e150, 2e150], [3e150, 1e150]])
        ch = BlockFadingChannel(h, 1.0)
        assert np.array_equal(ch.h, h)
        assert np.isfinite(am_rate(ch, (1, 1)).rate_bits)
