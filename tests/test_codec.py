import gc
import itertools
import math

import numpy as np
import pytest

from cflat.channel import BlockFadingChannel, EquationCandidate
from cflat.codec import (
    DeskScaleExceeded,
    DimensionMismatch,
    NestedCodePair,
    RadiusTooSmall,
    RankDeficientCode,
    _decode_leader_indices,
    _disc_points,
    build_construction_a,
    decode_equation,
    encode,
    enumerate_fine_vectors,
    lattice_membership,
    map_message,
    product_distance,
    reduce_mod_coarse,
    ring_combine,
    sample_dither,
    simulate_codec,
    union_bound,
)
from cflat.numfield import RingElement, make_quadratic_field, prime_above, residue_reduce
from cflat.svp import best_equation

F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
REPEAT_CODE = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))


@pytest.fixture(scope="module")
def unit_lattice():
    return build_construction_a(F5, P11, REPEAT_CODE, gamma=1.0)


@pytest.fixture(scope="module")
def powered_lattice():
    return build_construction_a(F5, P11, REPEAT_CODE, target_power=100.0)


class TestBuild:
    def test_volume_and_rate_example(self, unit_lattice):
        lat = unit_lattice
        assert lat.vol_fine_unit == pytest.approx(55.0, rel=1e-6)
        assert lat.vol_coarse_unit == pytest.approx(605.0, rel=1e-6)
        assert lat.message_rate_bits == pytest.approx(0.5 * math.log2(11))

    def test_volume_ratio_identity(self, unit_lattice):
        lat = unit_lattice
        lhs = math.log2(lat.vol_coarse_unit / lat.vol_fine_unit) / lat.T
        assert lhs == pytest.approx(lat.message_rate_bits, rel=1e-9)

    def test_trivial_message_space(self):
        codes = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=1, G_f=((1,), (1,)))
        lat = build_construction_a(F5, P11, codes, gamma=1.0)
        assert lat.message_rate_bits == 0.0

    def test_inert_prime_volume(self):
        P2 = prime_above(F5, 2)
        codes = NestedCodePair(p=2, r=2, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))
        lat = build_construction_a(F5, P2, codes, gamma=1.0)
        # p^((T-l_f) r) * disc^(T/2)
        assert lat.vol_fine_unit == pytest.approx(4.0 * 5.0, rel=1e-6)
        assert lat.vol_coarse_unit == pytest.approx(16.0 * 5.0, rel=1e-6)
        assert lat.message_rate_bits == pytest.approx(1.0)

    def test_gamma_calibration_hits_power(self):
        P = 42.0
        lat = build_construction_a(F5, P11, REPEAT_CODE, target_power=P)
        rng = np.random.default_rng(77)
        pows = []
        for _ in range(4000):
            d = sample_dither(lat, rng)
            pows.append(float(np.sum(d * d)))
        per_dim = np.mean(pows) / (lat.n * lat.T)
        assert per_dim == pytest.approx(P, rel=0.05)

    def test_field_prime_mismatch(self):
        P13 = prime_above(F5, 13)  # inert, r=2
        with pytest.raises(DimensionMismatch):
            build_construction_a(F5, P13, REPEAT_CODE, gamma=1.0)

    def test_bad_shapes(self):
        bad = NestedCodePair(p=11, r=1, T=2, l_f=2, l_c=0, G_f=((1,), (1,)))
        with pytest.raises(DimensionMismatch):
            build_construction_a(F5, P11, bad, gamma=1.0)

    def test_rank_deficient_code(self):
        codes = NestedCodePair(p=11, r=1, T=2, l_f=2, l_c=0, G_f=((1, 2), (2, 4)))
        with pytest.raises(RankDeficientCode):
            build_construction_a(F5, P11, codes, gamma=1.0)

    def test_desk_scale_guard(self):
        codes = NestedCodePair(
            p=11,
            r=1,
            T=4,
            l_f=4,
            l_c=0,
            G_f=tuple(tuple(1 if i == k else 0 for k in range(4)) for i in range(4)),
        )
        with pytest.raises(DeskScaleExceeded):
            build_construction_a(F5, P11, codes, gamma=1.0)  # 11^4 leaders


class TestEncodeMembership:
    def test_zero_message_is_zero_codeword(self, unit_lattice):
        assert np.array_equal(encode(unit_lattice, (0,)), np.zeros((2, 2)))

    def test_zero_matrix_in_both(self, unit_lattice):
        Z = np.zeros((2, 2))
        assert lattice_membership(unit_lattice, "fine", Z)
        assert lattice_membership(unit_lattice, "coarse", Z)

    @pytest.mark.parametrize("w", range(11))
    def test_codeword_membership_and_roundtrip(self, powered_lattice, w):
        X = encode(powered_lattice, (w,))
        assert lattice_membership(powered_lattice, "fine", X)
        # coarse membership iff the message maps into the coarse code
        assert lattice_membership(powered_lattice, "coarse", X) == (w == 0)
        assert map_message(powered_lattice, X) == (w,)

    def test_perturbation_breaks_membership(self, unit_lattice):
        X = encode(unit_lattice, (3,))
        X[0, 0] += 0.3
        assert not lattice_membership(unit_lattice, "fine", X)

    def test_dithered_encode_stays_in_region(self, powered_lattice):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = (int(rng.integers(11)),)
            D = sample_dither(powered_lattice, rng)
            X = encode(powered_lattice, w, dither=D)
            # folding again is a no-op for points already inside the region
            assert np.allclose(reduce_mod_coarse(powered_lattice, X), X, atol=1e-9)

    def test_reduce_invariant_under_coarse_shifts(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(6)
        em_cols = lat.region_scaled
        for _ in range(50):
            X = rng.standard_normal((2, 2)) * 10
            base = reduce_mod_coarse(lat, X)
            shift = em_cols @ rng.integers(-3, 4, size=4)
            again = reduce_mod_coarse(lat, X + shift.reshape(2, 2))
            assert np.allclose(base, again, atol=1e-8)

    def test_bad_message_rejected(self, unit_lattice):
        with pytest.raises(ValueError):
            encode(unit_lattice, (11,))
        with pytest.raises(ValueError):
            encode(unit_lattice, (1, 2))


class TestRingCombine:
    def test_single_unity(self, powered_lattice):
        X = encode(powered_lattice, (4,))
        out = ring_combine(powered_lattice, [RingElement(1, 0)], [X])
        assert np.allclose(out, X)

    def test_closure_1000_random(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(7)
        for _ in range(1000):
            L = int(rng.integers(1, 4))
            coeffs = [
                RingElement(int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
                for _ in range(L)
            ]
            words = [encode(lat, (int(rng.integers(11)),)) for _ in range(L)]
            out = ring_combine(lat, coeffs, words)
            assert lattice_membership(lat, "fine", out)

    def test_ideal_coefficients_land_in_coarse(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(8)
        for _ in range(200):
            coeffs = []
            for _ in range(2):
                k = int(rng.integers(-4, 5))
                m = int(rng.integers(-4, 5))
                # k*p + m*(theta - c) is in the ideal
                coeffs.append(
                    RingElement(11 * k - 4 * m, m)
                )
            words = [encode(lat, (int(rng.integers(11)),)) for _ in range(2)]
            out = ring_combine(lat, coeffs, words)
            assert lattice_membership(lat, "coarse", out)

    def test_message_linearity(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(9)
        for _ in range(200):
            coeffs = [
                RingElement(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
                for _ in range(2)
            ]
            ws = [int(rng.integers(11)) for _ in range(2)]
            out = ring_combine(lat, coeffs, [encode(lat, (w,)) for w in ws])
            want = 0
            for a, w in zip(coeffs, ws):
                want = lat.Fq.add(want, lat.Fq.mul(residue_reduce(P11, a), w))
            assert map_message(lat, out) == (want,)

    def test_congruent_coefficients_same_message(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(10)
        for _ in range(100):
            a = RingElement(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            shift = RingElement(11 * int(rng.integers(-2, 3)) - 4 * int(rng.integers(-2, 3)),
                                int(rng.integers(-2, 3)))
            # make shift an ideal element: k*p + m*(theta-c)
            k, m = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            shift = RingElement(11 * k - 4 * m, m)
            w = int(rng.integers(11))
            X = encode(lat, (w,))
            m1 = map_message(lat, ring_combine(lat, [a], [X]))
            m2 = map_message(lat, ring_combine(lat, [a + shift], [X]))
            assert m1 == m2


class TestProductDistance:
    def test_all_ones(self):
        assert product_distance(np.ones(8), 2, 4) == pytest.approx(16.0)

    def test_theta_vector(self):
        # every coordinate theta: block sums T*sigma_j(theta)^2, product T^2 Nr^2
        T = 3
        x = np.concatenate([np.full(T, F5.theta[0]), np.full(T, F5.theta[1])])
        assert product_distance(x, 2, T) == pytest.approx(float(T * T))

    def test_zero(self):
        assert product_distance(np.zeros(6), 2, 3) == 0.0

    def test_lower_bound_on_nonzero_norm_vectors(self, unit_lattice):
        lat = unit_lattice
        pts = enumerate_fine_vectors(lat, 8.0, exclude_coarse=False)
        assert len(pts) > 100
        floor = lat.gamma ** (2 * lat.n) * lat.T**lat.n
        checked = 0
        for coords, emb in pts:
            norms = [F5.norm(RingElement(int(u), int(v))) for u, v in coords]
            if all(nr != 0 for nr in norms):
                checked += 1
                d = product_distance(emb.reshape(-1), lat.n, lat.T)
                assert d >= floor * (1 - 1e-9)
        assert checked > 10

    def test_dmin_matches_brute_force_over_enumeration(self, unit_lattice):
        lat = unit_lattice
        pts = enumerate_fine_vectors(lat, 6.0, exclude_coarse=True)
        dmin = min(product_distance(e.reshape(-1), 2, 2) for _, e in pts)
        brute = min(
            float(np.prod([e[0] @ e[0], e[1] @ e[1]])) for _, e in pts
        )
        assert dmin == pytest.approx(brute, rel=1e-12)


class TestEnumeration:
    def test_against_independent_box_search(self, unit_lattice):
        """Exhaustive integer-coordinate box search for the repeat code:
        membership there is simply equal residues across coordinates."""
        lat = unit_lattice
        # squared norms are integers here (trace form), so a fractional budget
        # keeps the boundary comparison unambiguous
        radius = math.sqrt(24.5)
        got = {
            tuple(coords.reshape(-1))
            for coords, _ in enumerate_fine_vectors(lat, radius, exclude_coarse=False)
        }
        want = set()
        span = range(-8, 9)
        for u1, v1, u2, v2 in itertools.product(span, span, span, span):
            if (u1, v1, u2, v2) == (0, 0, 0, 0):
                continue
            r1 = (u1 + 4 * v1) % 11
            r2 = (u2 + 4 * v2) % 11
            if r1 != r2:  # codewords of the repeat code have equal residues
                continue
            emb = np.array(
                [
                    [u1 + v1 * F5.theta[0], u2 + v2 * F5.theta[0]],
                    [u1 + v1 * F5.theta[1], u2 + v2 * F5.theta[1]],
                ]
            )
            if float(np.sum(emb * emb)) <= 24.5:
                want.add((u1, v1, u2, v2))
        assert got == want

    def test_exclude_coarse_drops_ideal_vectors(self, unit_lattice):
        lat = unit_lattice
        with_coarse = enumerate_fine_vectors(lat, 5.0, exclude_coarse=False)
        without = {
            tuple(c.reshape(-1))
            for c, _ in enumerate_fine_vectors(lat, 5.0, exclude_coarse=True)
        }
        for coords, _ in with_coarse:
            key = tuple(coords.reshape(-1))
            res = [(int(coords[i, 0]) + 4 * int(coords[i, 1])) % 11 for i in range(2)]
            is_coarse = all(r == 0 for r in res)
            assert (key not in without) == is_coarse

    def test_leaves_no_reference_cycle(self, unit_lattice):
        # the enumerated vectors are freed by reference counting when the
        # caller drops them, not kept until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            assert enumerate_fine_vectors(unit_lattice, 5.0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestUnionBound:
    def test_partial_sum_matches_per_term_hand_evaluation(self, unit_lattice):
        lat = unit_lattice
        pts = enumerate_fine_vectors(lat, 3.0, exclude_coarse=True)
        assert pts
        nu = (0.7, 0.4)
        denom = 8 * sum(nu)
        want = sum(
            0.5 * math.exp(-2 * math.sqrt(product_distance(e.reshape(-1), 2, 2)) / denom)
            for _, e in pts
        )
        got = union_bound(lat, nu, 3.0)
        assert got.terms == len(pts)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert union_bound(lat, np.array(nu), 3.0) == got

    def test_radius_just_above_shortest_vectors(self, unit_lattice):
        lat = unit_lattice
        all_pts = enumerate_fine_vectors(lat, 4.0, exclude_coarse=True)
        min_norm = min(math.sqrt(float(np.sum(e * e))) for _, e in all_pts)
        tight = [
            e
            for _, e in all_pts
            if math.sqrt(float(np.sum(e * e))) <= min_norm * (1 + 1e-9)
        ]
        nu = (0.5, 0.5)
        term = sum(
            0.5 * math.exp(-2 * math.sqrt(product_distance(e.reshape(-1), 2, 2)) / 8.0)
            for e in tight
        )
        got = union_bound(lat, nu, min_norm * (1 + 1e-9))
        assert got.terms == len(tight)
        assert got.value == pytest.approx(term, rel=1e-12)

    def test_monotone_in_noise(self, unit_lattice):
        vals = [
            union_bound(unit_lattice, (s, s), 4.0).value for s in (0.2, 0.5, 1.0, 3.0)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_vanishes_with_noise(self, unit_lattice):
        assert union_bound(unit_lattice, (0.0, 0.0), 4.0).value == 0.0
        assert union_bound(unit_lattice, (1e-9, 1e-9), 4.0).value < 1e-200

    def test_radius_too_small(self, unit_lattice):
        with pytest.raises(RadiusTooSmall):
            union_bound(unit_lattice, (0.5, 0.5), 1e-3)

    def test_negative_variance_rejected(self, unit_lattice):
        with pytest.raises(ValueError, match="nonnegative"):
            union_bound(unit_lattice, (0.5, -1e-3), 4.0)


def _reference_cvp_dist(G, target):
    """Independent 2D CVP by radius-growing exhaustive enumeration."""
    budget = 1.0
    for _ in range(60):
        pts = _disc_points(G, -np.asarray(target, float), budget)
        if pts:
            return pts[0][2]
        budget *= 4.0
    raise AssertionError("reference CVP failed to find any point")


class TestDecode:
    def test_window_cvp_is_exact(self, powered_lattice):
        lat = powered_lattice
        qmat, rmat = lat._cvp_q, lat._cvp_r
        r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
        rng = np.random.default_rng(11)
        for scale in (1.0, 10.0, 300.0):
            for _ in range(400):
                t = rng.standard_normal(2) * lat.gamma * scale
                y = qmat.T @ t
                best = math.inf
                z2c = round(y[1] / r22)
                for dz in (-1, 0, 1):
                    z2 = z2c + dz
                    rem = y[0] - r12 * z2
                    z1 = round(rem / r11)
                    best = min(best, (rem - r11 * z1) ** 2 + (y[1] - r22 * z2) ** 2)
                assert best == pytest.approx(
                    _reference_cvp_dist(lat.pideal_embedded, t), rel=1e-9, abs=1e-12
                )

    def test_decoder_matches_exhaustive_nearest_point(self, powered_lattice):
        lat = powered_lattice
        rng = np.random.default_rng(12)
        S = rng.standard_normal((40, 2, 2)) * lat.gamma * 2
        got = _decode_leader_indices(lat, S)
        for b in range(S.shape[0]):
            dists = []
            for k in range(lat.K):
                tot = 0.0
                for i in range(lat.T):
                    tot += _reference_cvp_dist(
                        lat.pideal_embedded, S[b, :, i] - lat.embedded_leaders[k][:, i]
                    )
                dists.append(tot)
            assert dists[int(got[b])] == pytest.approx(min(dists), rel=1e-9, abs=1e-12)

    def test_zero_observation_decodes_to_zero(self, powered_lattice):
        cand = best_equation(
            F5, BlockFadingChannel(np.array([[1.0, 0.2], [0.4, 1.0]]), 100.0)
        )
        res = decode_equation(powered_lattice, np.zeros((2, 2)), cand)
        assert res.message == (0,)
        assert res.coset == (0, 0)

    def test_noiseless_matched_channel(self, powered_lattice):
        """With exact per-block channel inverses and no noise the decoded
        equation is the ring combination's coset."""
        lat = powered_lattice
        kappa = 0.37
        a = RingElement(0, 1)
        sig = np.array([[F5.theta[0]], [F5.theta[1]]])
        cand = EquationCandidate(
            a=(a,),
            sigma=sig,
            b=np.array([1.0 / kappa, 1.0 / kappa]),
            nu_sq=np.zeros(2),
            rate_bits=0.0,
            quad_form=0.0,
        )
        rng = np.random.default_rng(13)
        g = residue_reduce(P11, a)
        for _ in range(100):
            w = int(rng.integers(11))
            D = sample_dither(lat, rng)
            Xbar = encode(lat, (w,), dither=D)
            # h_j = kappa * sigma_j(a): B H = A exactly
            Y = kappa * sig * Xbar
            res = decode_equation(lat, Y, cand, dithers=[D])
            assert res.message == (lat.Fq.mul(g, w),)

    def test_decode_consistent_with_simulation_path(self, powered_lattice):
        lat = powered_lattice
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        rng = np.random.default_rng(14)
        agree = 0
        for _ in range(200):
            ws = [int(rng.integers(11)) for _ in range(2)]
            Ds = [sample_dither(lat, rng) for _ in range(2)]
            Xb = [encode(lat, (w,), dither=D) for w, D in zip(ws, Ds)]
            Y = sum(ch.h[:, l][:, None] * Xb[l] for l in range(2))
            Y = Y + rng.standard_normal((2, 2))
            res = decode_equation(lat, Y, cand, dithers=Ds)
            want = 0
            for l in range(2):
                want = lat.Fq.add(
                    want, lat.Fq.mul(residue_reduce(P11, cand.a[l]), ws[l])
                )
            agree += res.message == (want,)
        assert agree >= 190  # 20 dB: occasional decoding errors are expected


class TestSimulate:
    def test_deterministic(self, powered_lattice):
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        a = simulate_codec(powered_lattice, ch, cand, 3000, seed=42)
        b = simulate_codec(powered_lattice, ch, cand, 3000, seed=42)
        assert a == b

    def test_noiseless_matched_channel_error_free(self, powered_lattice):
        kappa = 0.5
        a = RingElement(2, -1)
        sig = np.array(F5.conjugates(a)).reshape(2, 1)
        cand = EquationCandidate(
            a=(a,),
            sigma=sig,
            b=np.array([1 / kappa, 1 / kappa]),
            nu_sq=np.zeros(2),
            rate_bits=0.0,
            quad_form=0.0,
        )
        ch = BlockFadingChannel(kappa * sig, 100.0)
        sim = simulate_codec(powered_lattice, ch, cand, 2000, seed=1, noise_std=0.0)
        assert sim.error_rate == 0.0

    def test_high_snr_mostly_correct(self):
        P = 1e4
        lat = build_construction_a(F5, P11, REPEAT_CODE, target_power=P)
        h = np.abs(np.random.default_rng(15).standard_normal((2, 2))) + 0.3
        ch = BlockFadingChannel(h, P)
        cand = best_equation(F5, ch)
        sim = simulate_codec(lat, ch, cand, 500, seed=2)
        assert sim.error_rate <= 0.01

    def test_error_rate_below_union_bound(self):
        """Wherever at least 50 errors are observed, the empirical rate stays
        under the truncated bound plus 3 standard errors."""
        h = np.abs(np.random.default_rng(16).standard_normal((2, 2))) + 0.3
        checked = 0
        for snr_db in (3.0, 9.0, 15.0):
            P = 10 ** (snr_db / 10)
            lat = build_construction_a(F5, P11, REPEAT_CODE, target_power=P)
            ch = BlockFadingChannel(h, P)
            cand = best_equation(F5, ch)
            sim = simulate_codec(lat, ch, cand, 20000, seed=3)
            if sim.errors < 50:
                continue
            radius = lat.gamma * 2.0
            while True:
                try:
                    ub = union_bound(lat, cand.nu_sq, radius)
                except RadiusTooSmall:
                    radius *= 2
                    continue
                if ub.terms >= 1000:
                    break
                radius *= 1.5
            assert sim.error_rate <= ub.value + 3 * sim.stderr
            checked += 1
        assert checked >= 2

    def test_trials_validation(self, powered_lattice):
        ch = BlockFadingChannel(np.ones((2, 1)), 100.0)
        cand = EquationCandidate(
            a=(RingElement(1, 0),),
            sigma=np.ones((2, 1)),
            b=np.ones(2),
            nu_sq=np.zeros(2),
            rate_bits=0.0,
            quad_form=0.0,
        )
        with pytest.raises(ValueError):
            simulate_codec(powered_lattice, ch, cand, 0, seed=1)


@pytest.fixture(scope="module")
def lat4():
    P2 = prime_above(F5, 2)
    codes = NestedCodePair(p=2, r=2, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))
    return build_construction_a(F5, P2, codes, target_power=30.0)


@pytest.fixture(scope="module")
def lat_nested():
    codes = NestedCodePair(p=11, r=1, T=3, l_f=2, l_c=1, G_f=((1, 0), (0, 1), (1, 1)))
    return build_construction_a(F5, P11, codes, target_power=50.0)


class TestInertPrimeCodec:
    """The residue field F_4 exercises the r=2 arithmetic end to end."""

    def test_roundtrip_all_messages(self, lat4):
        for w in range(4):
            X = encode(lat4, (w,))
            assert lattice_membership(lat4, "fine", X)
            assert map_message(lat4, X) == (w,)

    def test_closure_and_linearity(self, lat4):
        P2 = lat4.prime
        rng = np.random.default_rng(17)
        for _ in range(300):
            coeffs = [
                RingElement(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
                for _ in range(2)
            ]
            ws = [int(rng.integers(4)) for _ in range(2)]
            out = ring_combine(lat4, coeffs, [encode(lat4, (w,)) for w in ws])
            assert lattice_membership(lat4, "fine", out)
            want = 0
            for a, w in zip(coeffs, ws):
                want = lat4.Fq.add(want, lat4.Fq.mul(residue_reduce(P2, a), w))
            assert map_message(lat4, out) == (want,)


class TestNontrivialCoarseCode:
    """l_c > 0: the coarse code is a proper subcode and messages live in the
    quotient."""

    def test_volumes(self, lat_nested):
        disc_half = 5.0**1.5
        assert lat_nested.vol_fine_unit == pytest.approx(11 * disc_half, rel=1e-6)
        assert lat_nested.vol_coarse_unit == pytest.approx(121 * disc_half, rel=1e-6)
        assert lat_nested.message_rate_bits == pytest.approx(math.log2(11) / 3)

    def test_coarse_membership_tracks_message(self, lat_nested):
        for w in range(11):
            X = encode(lat_nested, (w,))
            assert lattice_membership(lat_nested, "fine", X)
            assert lattice_membership(lat_nested, "coarse", X) == (w == 0)
            assert map_message(lat_nested, X) == (w,)

    def test_combining_respects_quotient(self, lat_nested):
        lat = lat_nested
        rng = np.random.default_rng(18)
        for _ in range(100):
            coeffs = [
                RingElement(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                for _ in range(2)
            ]
            ws = [int(rng.integers(11)) for _ in range(2)]
            out = ring_combine(lat, coeffs, [encode(lat, (w,)) for w in ws])
            want = 0
            for a, w in zip(coeffs, ws):
                want = lat.Fq.add(want, lat.Fq.mul(residue_reduce(P11, a), w))
            assert map_message(lat, out) == (want,)


# ---------------------------------------------------------------------------
# per-leader oracles: the decoder and enumeration before the residue tables


def _per_leader_decode(lat, S):
    """One full (B, T) window search per coset leader; ties go to the first."""
    qmat, rmat = lat._cvp_q, lat._cvp_r
    r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
    best = np.full(S.shape[0], np.inf)
    best_idx = np.zeros(S.shape[0], dtype=np.int64)
    for k in range(lat.K):
        y = np.swapaxes(S - lat.embedded_leaders[k][None], 1, 2) @ qmat
        z2_base = np.rint(y[..., 1] / r22)
        dmin = None
        for dz in (-1.0, 0.0, 1.0):
            z2 = z2_base + dz
            rem = y[..., 0] - r12 * z2
            z1 = np.rint(rem / r11)
            dist = (rem - r11 * z1) ** 2 + (y[..., 1] - r22 * z2) ** 2
            dmin = dist if dmin is None else np.minimum(dmin, dist)
        total = dmin.sum(axis=1)
        better = total < best
        best = np.where(better, total, best)
        best_idx[better] = k
    return best_idx


def _per_leader_leaves(lat, k, opts, suffix, i, rem, chosen, out):
    if i == lat.T:
        coords = np.empty((lat.T, 2), dtype=np.int64)
        emb = np.empty((lat.n, lat.T))
        for ii, (z, pt, _) in enumerate(chosen):
            coords[ii] = lat.coset_leaders[k, ii] + lat.pideal_basis @ z
            emb[:, ii] = pt
        if coords.any():
            out.append((coords, emb))
        return
    for item in opts[i]:
        if item[2] > rem - suffix[i + 1] + 1e-12:
            break
        _per_leader_leaves(lat, k, opts, suffix, i + 1, rem - item[2], chosen + [item], out)


def _per_leader_fine_vectors(lat, radius, exclude_coarse):
    """Disc points recomputed for every leader, leaves visited depth first."""
    budget = float(radius) ** 2
    out = []
    for k in range(lat.K):
        if exclude_coarse and lat.leader_in_coarse[k]:
            continue
        opts = [
            _disc_points(lat.pideal_embedded, lat.embedded_leaders[k][:, i], budget)
            for i in range(lat.T)
        ]
        if not all(opts):
            continue
        suffix = [0.0] * (lat.T + 1)
        for i in range(lat.T - 1, -1, -1):
            suffix[i] = suffix[i + 1] + opts[i][0][2]
        _per_leader_leaves(lat, k, opts, suffix, 0, budget, [], out)
    return out


def _in_order_union_sum(lat, nu, radius):
    pts = enumerate_fine_vectors(lat, radius, exclude_coarse=True)
    denom = 8.0 * float(np.sum(nu))
    total = 0.0
    for _, emb in pts:
        d = product_distance(emb.reshape(-1), lat.n, lat.T)
        total += 0.5 * math.exp(-lat.n * d ** (1.0 / lat.n) / denom)
    return total, len(pts)


@pytest.fixture(scope="module")
def lat121():
    codes = NestedCodePair(p=11, r=1, T=2, l_f=2, l_c=1, G_f=((1, 0), (0, 1)))
    return build_construction_a(F5, P11, codes, target_power=100.0)


@pytest.fixture(scope="module")
def lat_zero_row():
    # coordinate 1 holds residue 0 in every codeword
    codes = NestedCodePair(p=11, r=1, T=3, l_f=1, l_c=0, G_f=((1,), (0,), (3,)))
    return build_construction_a(F5, P11, codes, target_power=30.0)


ORACLE_LATTICES = ["powered_lattice", "lat121", "lat_zero_row", "lat4", "lat_nested"]


class TestResidueTableDecoder:
    def test_fixture_shapes(self, lat121, lat_zero_row, lat4):
        assert (lat121.K, lat121.T) == (121, 2)
        assert (lat_zero_row.K, lat_zero_row.T) == (11, 3)
        assert set(lat_zero_row.leader_residues[:, 1].tolist()) == {0}
        assert (lat4.Fq.q, lat4.K) == (4, 4)

    @pytest.mark.parametrize("name", ORACLE_LATTICES)
    def test_identical_to_per_leader_decoder(self, request, name):
        lat = request.getfixturevalue(name)
        rng = np.random.default_rng(21)
        for scale in (0.3, 1.0, 3.0):
            S = rng.standard_normal((512, lat.n, lat.T)) * lat.gamma * scale
            assert np.array_equal(
                _decode_leader_indices(lat, S), _per_leader_decode(lat, S)
            )

    @pytest.mark.parametrize("name", ["lat121", "lat_zero_row", "lat4"])
    def test_matches_exhaustive_nearest_point(self, request, name):
        lat = request.getfixturevalue(name)
        rng = np.random.default_rng(22)
        S = rng.standard_normal((12, lat.n, lat.T)) * lat.gamma * 2
        got = _decode_leader_indices(lat, S)
        for b in range(S.shape[0]):
            dists = [
                sum(
                    _reference_cvp_dist(
                        lat.pideal_embedded,
                        S[b, :, i] - lat.embedded_leaders[k][:, i],
                    )
                    for i in range(lat.T)
                )
                for k in range(lat.K)
            ]
            assert dists[int(got[b])] == pytest.approx(min(dists), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("name", ["lat121", "lat_zero_row", "lat4"])
    def test_decode_equation_round_trip(self, request, name):
        lat = request.getfixturevalue(name)
        c = lat.codes
        q = lat.Fq.q
        cand = EquationCandidate(
            a=(RingElement(1, 0),),
            sigma=np.ones((lat.n, 1)),
            b=np.ones(lat.n),
            nu_sq=np.zeros(lat.n),
            rate_bits=0.0,
            quad_form=0.0,
        )
        rng = np.random.default_rng(23)
        for w in itertools.product(range(q), repeat=c.l_f - c.l_c):
            D = sample_dither(lat, rng)
            Y = encode(lat, w, dither=D)
            Y = Y + 0.01 * lat.gamma * rng.standard_normal(Y.shape)
            res = decode_equation(lat, Y, cand, dithers=[D])
            idx = sum(x * q ** (c.l_c + k) for k, x in enumerate(w))
            assert res.message == w
            assert res.coset == tuple(lat.leader_residues[idx].tolist())


class TestFineVectorWalk:
    @pytest.mark.parametrize("name", ORACLE_LATTICES)
    @pytest.mark.parametrize("exclude_coarse", [True, False])
    def test_identical_to_per_leader_enumeration(self, request, name, exclude_coarse):
        lat = request.getfixturevalue(name)
        for scale in (0.5, 1.5, 3.0):
            radius = lat.gamma * scale
            got = enumerate_fine_vectors(lat, radius, exclude_coarse)
            want = _per_leader_fine_vectors(lat, radius, exclude_coarse)
            assert len(got) == len(want)
            for (c1, e1), (c2, e2) in zip(got, want):
                assert c1.dtype == c2.dtype and np.array_equal(c1, c2)
                assert np.array_equal(e1, e2)

    @pytest.mark.parametrize(
        "name, steps", [("powered_lattice", 4), ("lat121", 2), ("lat4", 4)]
    )
    def test_union_bound_bitwise_equal_at_T2(self, request, name, steps):
        lat = request.getfixturevalue(name)
        radius = lat.gamma * math.sqrt(lat.n * lat.T) * 1.5**steps
        for nu in ((0.7, 0.4), (2.0, 1e-3), (30.0, 55.0)):
            want, terms = _in_order_union_sum(lat, nu, radius)
            assert terms > 100
            assert union_bound(lat, nu, radius) == (want, terms)

    @pytest.mark.parametrize("name", ["lat_zero_row", "lat_nested"])
    def test_union_bound_equal_at_T3(self, request, name):
        lat = request.getfixturevalue(name)
        radius = lat.gamma * math.sqrt(lat.n * lat.T) * 1.5**3
        for nu in ((0.7, 0.4), (30.0, 55.0)):
            want, terms = _in_order_union_sum(lat, nu, radius)
            assert terms > 100
            got = union_bound(lat, nu, radius)
            assert got.terms == terms
            assert got.value == pytest.approx(want, rel=1e-12)

    def test_union_bound_zero_noise_counts_terms(self, lat121):
        radius = lat121.gamma * 3.0
        _, terms = _in_order_union_sum(lat121, (1.0, 1.0), radius)
        assert union_bound(lat121, (0.0, 0.0), radius) == (0.0, terms)

    def test_union_bound_leaves_no_reference_cycle(self, lat121):
        gc.collect()
        gc.disable()
        try:
            assert union_bound(lat121, (0.5, 0.5), lat121.gamma * 3.0).terms
            assert gc.collect() == 0
        finally:
            gc.enable()
