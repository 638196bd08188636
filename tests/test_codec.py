import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cflat.codec
from cflat.channel import BlockFadingChannel, EquationCandidate
from cflat.codec import (
    MAX_COSET_LEADERS,
    DeskScaleExceeded,
    DimensionMismatch,
    NestedCodePair,
    RadiusTooSmall,
    RankDeficientCode,
    _block_sum,
    _build,
    _code_lattice_basis,
    _decode_leader_indices,
    _embedding_map,
    _fq_gauss_jordan,
    _residue_distances,
    _second_moment,
    build_construction_a,
    decode_equation,
    encode,
    simulate_codec,
    union_bound,
)
from cflat.numfield import RingElement, make_quadratic_field, prime_above, residue_reduce
from cflat.svp import best_equation
from blas_kernels import outputs_per_kernel
from child_env import child_env
from codec_oracle import (
    enumerate_fine_vectors,
    lattice_membership,
    map_message,
    product_distance,
    reduce_mod_coarse,
    ring_combine,
)
from power_oracle import one_block_m0
from svp_certificate import box_points

F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
REPEAT_CODE = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))


def draw_dithers(lat, rng, shape=()):
    """Dithers of the given batch shape, (*shape, n, T), drawn as
    simulate_codec draws them: uniform over the shaping region."""
    z = rng.uniform(-0.5, 0.5, shape + (2 * lat.T,))
    return (z @ lat.region_scaled.T).reshape(shape + (lat.n, lat.T))


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
        d = draw_dithers(lat, np.random.default_rng(77), (4000,))
        per_dim = np.mean(np.sum(d * d, axis=(1, 2))) / (lat.n * lat.T)
        assert per_dim == pytest.approx(P, rel=0.05)

    def test_pinned_gamma_draws_no_calibration_samples(self, monkeypatch):
        want = build_construction_a(F5, P11, REPEAT_CODE, gamma=1.0)

        def no_rng(*args, **kwargs):
            raise AssertionError("a build with gamma pinned drew random samples")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        got = build_construction_a(F5, P11, REPEAT_CODE, gamma=1.0)
        for f in dataclasses.fields(got):
            value = getattr(got, f.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(want, f.name)), f.name
        assert got.gamma == want.gamma == 1.0

    @pytest.mark.parametrize("p", [11, 2], ids=["split", "inert"])
    @pytest.mark.parametrize("l_f, l_c", [(1, 0), (2, 1)])
    def test_rescale_equals_build_at_that_scale(self, p, l_f, l_c):
        # the scaled arrays are derived from the unscaled ones, so a rescale
        # from any scale, or a chain of them, never compounds
        prime = prime_above(F5, p)
        codes = systematic_code(p, prime.r, 2, l_f, l_c)
        calibrated = build_construction_a(F5, prime, codes, target_power=100.0)
        gammas = (1.0, calibrated.gamma, 1e-3)
        want = {g: build_construction_a(F5, prime, codes, gamma=g) for g in gammas}
        starts = [want[1.0], calibrated, want[1e-3]]
        for start in starts:
            chained = start
            for g in gammas + gammas[::-1]:
                chained = dataclasses.replace(chained, gamma=g)
                for got in (dataclasses.replace(start, gamma=g), chained):
                    assert got.gamma == want[g].gamma == g
                    for f in dataclasses.fields(got):
                        value, ref = getattr(got, f.name), getattr(want[g], f.name)
                        if isinstance(ref, np.ndarray):
                            assert value.dtype == ref.dtype and value.shape == ref.shape
                            assert value.tobytes() == ref.tobytes(), f.name

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

    def test_exact_volumes_on_code_grid(self):
        # every code with d in {2, 3, 5, 13}, an unramified p <= 13 (split or
        # inert), T <= 4, 0 <= l_c <= l_f <= T and q^l_f <= MAX_COSET_LEADERS,
        # on a seeded random generator of full rank
        rng = np.random.default_rng(9)
        built = 0
        for d, p in itertools.product((2, 3, 5, 13), (2, 3, 5, 7, 11, 13)):
            field = make_quadratic_field(d)
            if field.discriminant % p == 0:
                continue
            prime = prime_above(field, p)
            Fq = prime.residue_field
            for T in range(1, 5):
                em = _embedding_map(field, T)
                for l_f in range(T + 1):
                    if Fq.q**l_f > MAX_COSET_LEADERS:
                        continue
                    rank = -1
                    while rank != l_f:
                        G_f = tuple(map(tuple, rng.integers(0, Fq.q, (T, l_f)).tolist()))
                        rank = len(_fq_gauss_jordan(Fq, G_f, [0] * T)[1])
                    for l_c in range(l_f + 1):
                        codes = NestedCodePair(p, prime.r, T, l_f, l_c, G_f)
                        lat = build_construction_a(field, prime, codes, gamma=1.0)
                        built += 1
                        for l, vol in ((l_f, lat.vol_fine_unit), (l_c, lat.vol_coarse_unit)):
                            assert vol == Fq.q ** (T - l) * field.discriminant ** (T / 2)
                            basis = np.array(_code_lattice_basis(prime, codes, l)).T
                            det = abs(np.linalg.det(em @ basis))
                            assert vol == pytest.approx(det, rel=1e-9)
        assert built == 455

    def test_volume_beyond_float_range_is_desk_scale_error(self):
        # inert q = 999983^2: the coarse volume q^T 5^(T/2) is about 10^296.4
        # at T = 24 and 10^308.7 at T = 25, past the largest float (1.8e308)
        prime = prime_above(F5, 999983)
        assert prime.r == 2

        def codes(T):
            return NestedCodePair(p=999983, r=2, T=T, l_f=0, l_c=0, G_f=((),) * T)

        lat = build_construction_a(F5, prime, codes(24), gamma=1.0)
        assert lat.vol_coarse_unit == prime.residue_field.q**24 * 5 ** (24 / 2)
        with pytest.raises(DeskScaleExceeded, match=r"volume \d+\^25 \* 5\^\(25/2\) overflows"):
            build_construction_a(F5, prime, codes(25), gamma=1.0)


def systematic_code(p, r, T, l_f, l_c):
    """A nested pair whose fine generator has the identity on top (full
    column rank) and fixed residues below it."""
    q = p**r
    G_f = tuple(
        tuple(int(i == j) if i < l_f else (3 * i + j + 1) % q for j in range(l_f))
        for i in range(T)
    )
    return NestedCodePair(p=p, r=r, T=T, l_f=l_f, l_c=l_c, G_f=G_f)


def calibrated_unit(d, p, T, l_f, l_c):
    """The lattice at gamma = 1 of a systematic code, and its region's
    second moment m0."""
    field = make_quadratic_field(d)
    prime = prime_above(field, p)
    lat = _build(field, prime, systematic_code(p, prime.r, T, l_f, l_c))
    return lat, _second_moment(lat)


# (d, p, T, l_f, l_c): split and inert primes, p = 2, nested codes, and T up
# to 70, so block heights from 8,192 rows (T = 1) to 117 (T = 70)
CALIBRATION_GRID = [
    (5, 11, 1, 1, 0),
    (5, 11, 2, 1, 0),
    (5, 11, 2, 2, 1),
    (5, 2, 2, 1, 0),
    (17, 2, 3, 1, 0),
    (17, 11, 4, 1, 0),
    (5, 11, 33, 0, 0),
    (5, 2, 33, 2, 1),
    (17, 2, 70, 1, 0),
]

# every grid case but T = 70, whose one-block oracle holds 224 MB per child
_M0_PER_KERNEL_CHILD = """
import sys
sys.path.insert(0, {tests!r})
from power_oracle import one_block_m0
from test_codec import CALIBRATION_GRID, calibrated_unit
for case in CALIBRATION_GRID[:-1]:
    lat, m0 = calibrated_unit(*case)
    print(case, m0.hex(), one_block_m0(lat.region_unit, lat.n, lat.T).hex())
"""


class TestPowerCalibration:
    @pytest.mark.parametrize("case", CALIBRATION_GRID)
    def test_blocked_draw_has_the_one_block_bits(self, case):
        lat, m0 = calibrated_unit(*case)
        T = lat.T
        assert cflat.codec._POWER_BLOCK // (2 * T) < cflat.codec._POWER_SAMPLES
        want = one_block_m0(lat.region_unit, lat.n, T)
        assert m0.hex() == want.hex()

    @pytest.mark.parametrize("rows", [1, 3, 4095, 30_000, 200_000])
    def test_m0_bits_do_not_follow_block_height(self, monkeypatch, rows):
        # rows = 1 runs one product per sample; 200,000 is one block
        want = calibrated_unit(5, 2, 2, 1, 0)[1]
        monkeypatch.setattr(cflat.codec, "_POWER_BLOCK", 4 * rows)
        assert calibrated_unit(5, 2, 2, 1, 0)[1].hex() == want.hex()

    def test_m0_bits_do_not_follow_blas_kernel(self):
        # the block products run on BLAS: the same bits, and the oracle's,
        # under each core type
        child = _M0_PER_KERNEL_CHILD.format(tests=os.path.dirname(__file__))
        outs = outputs_per_kernel(child)
        assert outs[0] == outs[1] == outs[2]
        lines = outs[0].splitlines()
        assert len(lines) == len(CALIBRATION_GRID) - 1
        for line in lines:
            got, want = line.split()[-2:]
            assert got == want, line

    def test_build_memory_does_not_follow_the_draw(self):
        # T = 64: a one-block draw holds two 100,000 x 128 arrays (195 MiB);
        # the blocked one holds two blocks and the (100,000,) norms array,
        # beside the lattice's own (128, 128) matrices
        T = 64
        codes = NestedCodePair(p=11, r=1, T=T, l_f=0, l_c=0, G_f=((),) * T)
        build_construction_a(F5, P11, codes, target_power=10.0)
        block_bytes = 2 * 8 * cflat.codec._POWER_BLOCK
        norms_bytes = 8 * cflat.codec._POWER_SAMPLES
        bound = block_bytes + norms_bytes + 2 * 2**20
        tracemalloc.start()
        try:
            build_construction_a(F5, P11, codes, target_power=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


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

    @pytest.mark.parametrize(
        "uv",
        [
            None,
            # an O^T point whose residues (1, 0) are not a codeword of the
            # repetition code
            ([1, 0], [0, 0]),
        ],
        ids=["off_lattice", "off_code"],
    )
    def test_non_codeword_rejected(self, unit_lattice, uv):
        lat = unit_lattice
        if uv is None:
            X = np.full((2, 2), 0.25)
        else:
            X = lat.gamma * (F5.embedding @ np.array(uv, dtype=float))
        assert not lattice_membership(lat, "fine", X)
        with pytest.raises(ValueError, match="not a fine-lattice point"):
            map_message(lat, X)

    def test_dithered_encode_stays_in_region(self, powered_lattice):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = (int(rng.integers(11)),)
            D = draw_dithers(powered_lattice, rng)
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

    @pytest.mark.parametrize(
        "w", [(11,), (-1,), (10**30,), (-(10**30),), (1, 2), (), 3], ids=repr
    )
    def test_bad_message_rejected(self, unit_lattice, w):
        # a ValueError, never an OverflowError from the index arithmetic
        with pytest.raises(ValueError, match="message"):
            encode(unit_lattice, w)

    @pytest.mark.parametrize("name", ["powered_lattice", "lat121", "lat4"])
    def test_batch_axes_match_single_calls(self, request, name):
        lat = request.getfixturevalue(name)
        c = lat.codes
        rng = np.random.default_rng(8)
        W = rng.integers(0, lat.Fq.q, size=(4, 3, c.l_f - c.l_c))
        D = draw_dithers(lat, rng, (4, 3))
        X = encode(lat, W, D)
        assert X.shape == (4, 3, lat.n, lat.T)
        assert np.array_equal(encode(lat, W), np.stack([[encode(lat, w) for w in ws] for ws in W]))
        for b, l in itertools.product(range(4), range(3)):
            single = encode(lat, W[b, l], D[b, l])
            assert np.allclose(X[b, l], single, rtol=0, atol=1e-12 * lat.gamma)
            assert np.allclose(
                reduce_mod_coarse(lat, X)[b, l], reduce_mod_coarse(lat, single),
                rtol=0, atol=1e-12 * lat.gamma,
            )  # fmt: skip


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

    @pytest.mark.parametrize("l_f", [0, 1])
    def test_trivial_message_space_is_empty_sum(self, l_f):
        # l_f = l_c: every fine vector is coarse, so there is no error event
        codes = NestedCodePair(p=11, r=1, T=2, l_f=l_f, l_c=l_f, G_f=((1,) * l_f,) * 2)
        lat = build_construction_a(F5, P11, codes, gamma=1.0)
        assert not enumerate_fine_vectors(lat, 1e3)
        for radius in (1e-3, 4.0, 1e3):
            assert union_bound(lat, (0.5, 0.5), radius) == (0.0, 0)

    def test_negative_variance_rejected(self, unit_lattice):
        with pytest.raises(ValueError, match="nonnegative"):
            union_bound(unit_lattice, (0.5, -1e-3), 4.0)


def _reference_cvp_dist(G, target):
    """Independent 2D CVP by radius-growing exhaustive box search."""
    budget = 1.0
    for _ in range(60):
        pts = box_points(G, -np.asarray(target, float), budget)
        if pts:
            return pts[0][2]
        budget *= 4.0
    raise AssertionError("reference CVP failed to find any point")


def _ideal_lattice(d, p):
    """T = 1, l_f = 0: the fine lattice is the embedded prime ideal itself."""
    field = make_quadratic_field(d)
    prime = prime_above(field, p)
    codes = NestedCodePair(p=p, r=prime.r, T=1, l_f=0, l_c=0, G_f=((),))
    return build_construction_a(field, prime, codes, gamma=1.0)


# (d, p) whose reduced ideal basis is LLL- but not Gauss-reduced: split primes
# where b1 is longer than b2, and inert primes with mu = 1/2 exactly.  (67, 293)
# has the least r22^2 / r11^2 (0.749) of all d < 120, p < 300.
LLL_NOT_GAUSS = {
    "split-2-239": (2, 239),
    "split-15-127": (15, 127),
    "split-67-293": (67, 293),
    "inert-5-37": (5, 37),
    "inert-41-67": (41, 67),
}


class TestDecode:
    @pytest.mark.parametrize("name", ["powered_lattice", *LLL_NOT_GAUSS])
    def test_window_cvp_is_exact(self, request, name):
        if name in LLL_NOT_GAUSS:
            lat = _ideal_lattice(*LLL_NOT_GAUSS[name])
        else:
            lat = request.getfixturevalue(name)
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
            D = draw_dithers(lat, rng)
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
            Ds = draw_dithers(lat, rng, (2,))
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


# (fixture, SNR in dB, how many of REPLAY_TRIALS the certificate settles):
# from mostly decoded to all certified, and one point past the guard
REPLAY_GRID = [
    ("powered_lattice", 0.0, "few"),
    ("powered_lattice", 15.0, "some"),
    ("powered_lattice", 30.0, "all"),
    ("powered_lattice", 60.0, "all"),
    ("lat121", 0.0, "few"),
    ("lat121", 15.0, "few"),
    ("lat121", 30.0, "some"),
    ("lat121", 60.0, "all"),
    ("lat_nested", 30.0, "some"),
    ("lat4", 15.0, "some"),
    ("lat_nested", 60.0, "past-guard"),
]
REPLAY_TRIALS = 400


def calibrated_at(fixture, snr_db):
    """The fixture's code at the SNR's power, and the equation a fixed
    channel picks there."""
    P = 10.0 ** (snr_db / 10.0)
    lat = build_construction_a(F5, fixture.prime, fixture.codes, target_power=P)
    ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), P)
    return lat, ch, best_equation(F5, ch)


class TestSimulate:
    @pytest.mark.parametrize("name, snr_db, settled", REPLAY_GRID)
    def test_replays_through_public_steps(self, request, name, snr_db, settled):
        """simulate_codec's draws, one trial at a time through encode, the
        channel and decode_equation, give the same number of errors, however
        many trials the certificate settles undecoded."""
        lat, ch, cand = calibrated_at(request.getfixturevalue(name), snr_db)
        codes = lat.codes
        trials, seed = REPLAY_TRIALS, 5
        sim = simulate_codec(lat, ch, cand, trials, seed)
        if settled == "few":
            assert sim.certified < trials / 2
        elif settled == "some":
            assert 0 < sim.certified < trials
        elif settled == "all":
            assert sim.certified == trials
        else:
            assert cflat.codec._certified_sq(lat, cand) == 0.0
            assert sim.certified == 0
        n, T, L, l_m = lat.n, lat.T, ch.L, codes.l_f - codes.l_c
        rng = np.random.default_rng(seed)  # the simulator's draws, in its order
        w = rng.integers(0, lat.Fq.q, size=(trials, L, l_m))
        z = rng.uniform(-0.5, 0.5, size=(trials, L, 2 * T))
        noise = rng.standard_normal((trials, n, T))
        g = [residue_reduce(lat.prime, a) for a in cand.a]
        errors = 0
        for t in range(trials):
            Ds = [(lat.region_scaled @ z[t, l]).reshape(n, T) for l in range(L)]
            Y = noise[t] + sum(ch.h[:, l, None] * encode(lat, w[t, l], Ds[l]) for l in range(L))
            want = np.zeros(l_m, dtype=np.int64)
            for l in range(L):
                want = lat.Fq.add(want, lat.Fq.mul(g[l], w[t, l]))
            errors += decode_equation(lat, Y, cand, Ds).message != tuple(want.tolist())
        assert errors == sim.errors

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

    @pytest.mark.parametrize("noise_std", [math.nan, math.inf, -math.inf, -1.0], ids=repr)
    def test_noise_scale_must_be_finite_and_nonnegative(self, powered_lattice, noise_std):
        # a NaN or infinite scale made every observation NaN, which decoded
        # to leader 0 with only RuntimeWarnings; 0.0, the noiseless setting,
        # runs (test_noiseless_matched_channel_error_free)
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        with pytest.raises(ValueError, match="noise_std"):
            simulate_codec(powered_lattice, ch, cand, 100, 1, noise_std)

    @pytest.mark.parametrize("name", ["powered_lattice", "lat121"])
    def test_steps_leave_their_arguments_unchanged(self, request, name):
        # the batch steps write into arrays they own, never into an argument
        lat = request.getfixturevalue(name)
        c = lat.codes
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        rng = np.random.default_rng(31)
        W = rng.integers(0, lat.Fq.q, size=(5, 2, c.l_f - c.l_c))
        D = draw_dithers(lat, rng, (5, 2))
        Y = rng.standard_normal((lat.n, lat.T)) * lat.gamma
        arrays = [W, D, Y, ch.h, cand.sigma, cand.b, cand.nu_sq]
        arrays += [v for v in vars(lat).values() if isinstance(v, np.ndarray)]
        before = [a.tobytes() for a in arrays]
        encode(lat, W, D)
        encode(lat, W[0, 0], D)  # a dither that broadcasts the codeword
        reduce_mod_coarse(lat, D)
        decode_equation(lat, Y, cand, D[0])
        simulate_codec(lat, ch, cand, 100, seed=4)
        assert [a.tobytes() for a in arrays] == before

    def test_batch_memory_is_the_decoder_table(self, powered_lattice):
        # Two batches of the README code.  Every step writes into an array
        # it owns, so the traced peak is the decoder's: the batch's
        # observations S (B, n, T) and messages (B, L, l_m); one table row of
        # B doubles per (coordinate, residue) pair, T q rows at most; the
        # (B, n) shifted column and its rotation; the (3, 3, B) window; and
        # the previous batch's (B, l_m) decodes and truths.  The encode
        # phase holds less: the messages, the dithers D (B, L, n, T), the
        # noise, the codewords X (B, L, n, T) and the fold's product.  An
        # allowance of 128 KiB covers numpy's 64 KiB iterator buffer and the
        # small objects.
        lat = powered_lattice
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        B, n, T, L = cflat.codec._SIM_BATCH, lat.n, lat.T, ch.L
        l_m = lat.codes.l_f - lat.codes.l_c
        rows = T * lat.Fq.q
        doubles = n * T + L * l_m + rows + 2 * n + 9 + 2 * l_m
        bound = 8 * B * doubles + 128 * 2**10
        simulate_codec(lat, ch, cand, 100, seed=1)  # first-call set-up
        tracemalloc.start()
        try:
            simulate_codec(lat, ch, cand, 2 * B, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


def einsum_block_sum(w, X):
    """The einsum _block_sum replaced in _observation and simulate_codec: the
    oracle for its bits."""
    return np.einsum("jl,...ljt->...jt", w, X)


def stacked_reduce_mod_coarse(lat, X):
    """reduce_mod_coarse with numpy's stacked products over the leading axes,
    as it was computed before the one 2-D product: the oracle for its bits."""
    X = np.asarray(X, dtype=float)
    zc = X.reshape(X.shape[:-2] + (lat.n * lat.T,)) @ lat.region_inv.T
    return ((zc - np.rint(zc)) @ lat.region_scaled.T).reshape(X.shape)


def stacked_observations(lat, ch, cand, trials, seed):
    """simulate_codec's batches of observations, from its draws in its order,
    computed with the stacked products and einsums it used to call."""
    n, T, L, l_m = lat.n, lat.T, ch.L, lat.codes.l_f - lat.codes.l_c
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, trials, cflat.codec._SIM_BATCH):
        m = min(cflat.codec._SIM_BATCH, trials - start)
        w = rng.integers(0, lat.Fq.q, size=(m, L, l_m))
        zdith = rng.uniform(-0.5, 0.5, size=(m, L, 2 * T))
        noise = rng.standard_normal((m, n, T))
        D = (zdith @ lat.region_scaled.T).reshape(m, L, n, T)
        X = stacked_reduce_mod_coarse(lat, encode(lat, w) + D)
        Y = np.einsum("jl,bljt->bjt", ch.h, X) + noise
        out.append(cand.b[:, None] * Y - einsum_block_sum(cand.sigma, D))
    return out


class TestMonteCarloArithmetic:
    """The Monte Carlo's plain 2-D products and left-to-right sums give the
    bits of the stacked products and einsums they replaced."""

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("batch", [(), (257,)], ids=["no-batch", "batch"])
    def test_block_sum_equals_einsum(self, L, batch):
        rng = np.random.default_rng(L)
        for scale in 10.0 ** np.arange(-3, 6):
            w = rng.standard_normal((2, L)) * scale
            X = rng.standard_normal(batch + (L, 2, 3)) * scale
            got = _block_sum(w, X)
            assert got.shape == batch + (2, 3)
            assert got.tobytes() == einsum_block_sum(w, X).tobytes()
            out = np.full(got.shape, np.nan)
            assert _block_sum(w, X, out=out) is out
            assert out.tobytes() == got.tobytes()
            if batch:
                want = np.einsum("jl,bljt->bjt", w, X)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["powered_lattice", "lat121", "lat_nested", "lat4"])
    def test_reduce_mod_coarse_equals_stacked_products(self, request, name):
        lat = request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 1e3):
            X = rng.standard_normal((300, 3, lat.n, lat.T)) * scale * lat.gamma
            got = reduce_mod_coarse(lat, X)
            assert got.tobytes() == stacked_reduce_mod_coarse(lat, X).tobytes()
            for one in X[:20, 0]:  # (n, T): a vector times a matrix before
                want = stacked_reduce_mod_coarse(lat, one)
                assert reduce_mod_coarse(lat, one).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "name, h",
        [
            ("powered_lattice", [[0.9, -0.3], [0.2, 1.1]]),
            ("lat121", [[0.9, -0.3], [0.2, 1.1]]),
            ("powered_lattice", [[0.9, -0.3, 0.5], [0.2, 1.1, -0.7]]),
        ],
        ids=["k11-L2", "k121-L2", "k11-L3"],
    )
    def test_observations_equal_stacked_products(self, request, monkeypatch, name, h):
        lat = request.getfixturevalue(name)
        ch = BlockFadingChannel(np.array(h), 100.0)
        cand = best_equation(F5, ch)
        trials, seed = cflat.codec._SIM_BATCH + 904, 21
        # the decoder sees only the rows the certificate leaves, so the spy
        # sits on the step that forms every trial's observation
        real = cflat.codec._observation
        seen = []

        def recording(*args):
            S = real(*args)
            seen.append(S.copy())
            return S

        monkeypatch.setattr(cflat.codec, "_observation", recording)
        assert simulate_codec(lat, ch, cand, trials, seed).certified > 0
        want = stacked_observations(lat, ch, cand, trials, seed)
        assert len(seen) == len(want) == 2
        for got, ref in zip(seen, want):
            assert got.tobytes() == ref.tobytes()


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


def _per_residue_distances(lat, S):
    """{(i, x): (B,) distances}: one (3, B) window expression per
    coordinate and residue, on strided columns of S."""
    qmat, rmat = lat._cvp_q, lat._cvp_r
    r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
    out = {}
    for k, row in enumerate(lat.leader_residues.tolist()):
        for i, x in enumerate(row):
            if (i, x) in out:
                continue
            y = (S[:, :, i] - lat.embedded_leaders[k][:, i]) @ qmat
            z2 = np.rint(y[:, 1] / r22) + np.array([[-1.0], [0.0], [1.0]])
            rem = y[:, 0] - r12 * z2
            z1 = np.rint(rem / r11)
            out[i, x] = np.minimum.reduce((rem - r11 * z1) ** 2 + (y[:, 1] - r22 * z2) ** 2)
    return out


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
    """Disc points from the box oracle for every leader, leaves visited depth
    first."""
    budget = float(radius) ** 2
    out = []
    for k in range(lat.K):
        if exclude_coarse and k < lat.Fq.q**lat.codes.l_c:
            continue
        opts = [
            box_points(lat.pideal_embedded, lat.embedded_leaders[k][:, i], budget)
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
    def test_coarse_leaders_are_the_first_q_to_the_l_c(self, request, name):
        # leader k's codeword is G_f w for the base-q digits w of k, so it
        # lies in the coarse code iff its message digits l_c.. are zero
        lat = request.getfixturevalue(name)
        first = lat.Fq.q**lat.codes.l_c
        for k in range(lat.K):
            X = lat.embedded_leaders[k]
            assert lattice_membership(lat, "fine", X)
            assert lattice_membership(lat, "coarse", X) == (k < first), k

    @pytest.mark.parametrize("name", ORACLE_LATTICES)
    def test_identical_to_per_leader_decoder(self, request, name):
        lat = request.getfixturevalue(name)
        rng = np.random.default_rng(21)
        for scale in (0.3, 1.0, 3.0):
            S = rng.standard_normal((512, lat.n, lat.T)) * lat.gamma * scale
            assert np.array_equal(
                _decode_leader_indices(lat, S), _per_leader_decode(lat, S)
            )

    @pytest.mark.parametrize("name", ORACLE_LATTICES)
    def test_residue_distances_have_the_window_expressions_bits(self, request, name):
        lat = request.getfixturevalue(name)
        rng = np.random.default_rng(23)
        for scale in (0.3, 1.0, 30.0):
            S = rng.standard_normal((700, lat.n, lat.T)) * lat.gamma * scale
            table = _residue_distances(lat, S, lat.leader_residues.tolist())
            want = _per_residue_distances(lat, S)
            assert sum(map(len, table)) == len(want)
            for (i, x), dist in want.items():
                assert table[i][x].tobytes() == dist.tobytes(), (i, x)

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
            D = draw_dithers(lat, rng)
            Y = encode(lat, w, dither=D)
            Y = Y + 0.01 * lat.gamma * rng.standard_normal(Y.shape)
            res = decode_equation(lat, Y, cand, dithers=[D])
            idx = sum(x * q ** (c.l_c + k) for k, x in enumerate(w))
            assert res.message == w
            assert res.coset == tuple(lat.leader_residues[idx].tolist())


# the decoder on a subset of a batch's rows, against the whole batch's
# answers and residue-table bits at those rows, for subsets from one row up
# (one row alone runs as two copies of itself: numpy's vector-matrix
# product, which a lone row would take, has other bits under the Haswell
# kernel)
_SUBSET_PER_KERNEL_CHILD = """
import numpy as np
from cflat.codec import (NestedCodePair, _decode_leader_indices, _residue_distances,
                         build_construction_a)
from cflat.numfield import make_quadratic_field, prime_above
F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
for G_f, l_c in ((((1,), (1,)), 0), (((1, 0), (0, 1)), 1)):
    codes = NestedCodePair(p=11, r=1, T=2, l_f=len(G_f[0]), l_c=l_c, G_f=G_f)
    lat = build_construction_a(F5, P11, codes, target_power=100.0)
    residues = lat.leader_residues.tolist()
    rng = np.random.default_rng(lat.K)
    S = rng.standard_normal((4096, lat.n, lat.T)) * lat.gamma * 2
    full = _decode_leader_indices(lat, S)
    table = _residue_distances(lat, S, residues)
    for size in (*range(1, 18), 31, 33, 64, 1000, 4095):
        idx = np.sort(rng.choice(len(S), size, replace=False))
        sub = _residue_distances(lat, S[idx], residues)
        bits = all(sub[i][x].tobytes() == row[idx].tobytes()
                   for i, rows in enumerate(table) for x, row in rows.items())
        same = np.array_equal(_decode_leader_indices(lat, S[idx]), full[idx])
        print(lat.K, size, bits, same)
"""


# decode_equation on each observation of a batch, against the batch decode:
# midpoints of two fine points, near ties that the last bits decide, then
# noisy points
_DECODE_PER_KERNEL_CHILD = """
import numpy as np
from cflat.channel import EquationCandidate
from cflat.codec import (NestedCodePair, _decode_leader_indices, _index_digits,
                         build_construction_a, decode_equation)
from cflat.numfield import RingElement, make_quadratic_field, prime_above
F5 = make_quadratic_field(5)
P11 = prime_above(F5, 11)
# b = 1 and no dithers: each observation is its Y, bit for bit
cand = EquationCandidate(a=(RingElement(1, 0),), sigma=np.ones((2, 1)), b=np.ones(2),
                         nu_sq=np.zeros(2), rate_bits=0.0, quad_form=0.0)
for G_f, l_c in ((((1,), (1,)), 0), (((1, 0), (0, 1)), 1)):
    codes = NestedCodePair(p=11, r=1, T=2, l_f=len(G_f[0]), l_c=l_c, G_f=G_f)
    lat = build_construction_a(F5, P11, codes, target_power=100.0)
    rng = np.random.default_rng(lat.K)
    k = rng.integers(0, lat.K, size=(2, 400))
    Y = (lat.embedded_leaders[k[0]] + lat.embedded_leaders[k[1]]) / 2
    Y[200:] += rng.standard_normal((200, lat.n, lat.T)) * lat.gamma * 2
    idx = _decode_leader_indices(lat, Y)
    messages = _index_digits(idx, 11, l_c, codes.l_f).tolist()
    cosets = lat.leader_residues[idx - idx % 11**l_c].tolist()
    same = sum(decode_equation(lat, y, cand) == (tuple(c), tuple(m))
               for y, m, c in zip(Y, messages, cosets))
    print(lat.K, same)
"""


class TestPackingCertificate:
    @pytest.mark.parametrize("name", ["unit_lattice", *ORACLE_LATTICES])
    def test_bound_is_at_most_the_least_outside_norm(self, request, name):
        # the least squared norm of a fine vector outside the coarse lattice,
        # from a complete enumeration inside a radius that holds one
        lat = request.getfixturevalue(name)
        bound = cflat.codec._fine_min_sq(lat)
        radius = math.sqrt(bound)
        while not (vecs := enumerate_fine_vectors(lat, radius, exclude_coarse=True)):
            radius *= 1.5
        least = min(float(np.sum(emb**2)) for _, emb in vecs)
        assert bound <= least * (1 + 1e-12)
        if name in ("powered_lattice", "lat121"):  # k11 and k121
            assert bound == pytest.approx(least, rel=1e-12)

    def test_no_certificate_without_messages(self):
        codes = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=1, G_f=((1,), (1,)))
        lat = build_construction_a(F5, P11, codes, target_power=100.0)
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        assert cflat.codec._fine_min_sq(lat) == math.inf
        assert cflat.codec._certified_sq(lat, cand) == 0.0
        assert simulate_codec(lat, ch, cand, 100, 1)[2:] == (0, 100, 0)

    @pytest.mark.parametrize(
        "name, snr_db",
        [("powered_lattice", 15.0), ("lat121", 30.0), ("lat_nested", 30.0), ("lat4", 15.0)],
    )
    def test_full_batch_decode_gives_the_truth_on_certified_rows(
        self, request, monkeypatch, name, snr_db
    ):
        lat, ch, cand = calibrated_at(request.getfixturevalue(name), snr_db)
        c, q, L = lat.codes, lat.Fq.q, ch.L
        observations, kept = [], []
        real_observation, real_uncertified = cflat.codec._observation, cflat.codec._uncertified

        def observation(*args):
            S = real_observation(*args)
            observations.append(S.copy())
            return S

        def uncertified(*args):
            keep = real_uncertified(*args)
            kept.append(keep.copy())
            return keep

        monkeypatch.setattr(cflat.codec, "_observation", observation)
        monkeypatch.setattr(cflat.codec, "_uncertified", uncertified)
        trials, seed = cflat.codec._SIM_BATCH + 904, 9
        sim = simulate_codec(lat, ch, cand, trials, seed)
        assert len(observations) == len(kept) == 2
        rng = np.random.default_rng(seed)  # the simulator's draws, in its order
        g = [residue_reduce(lat.prime, a) for a in cand.a]
        settled = 0
        for S, keep in zip(observations, kept):
            m = len(S)
            w = rng.integers(0, q, size=(m, L, c.l_f - c.l_c))
            rng.uniform(-0.5, 0.5, size=(m, L, 2 * lat.T))
            rng.standard_normal((m, lat.n, lat.T))
            truth = np.zeros((m, c.l_f - c.l_c), dtype=np.int64)
            for l in range(L):
                truth = lat.Fq.add(truth, lat.Fq.mul(g[l], w[:, l, :]))
            rows = np.setdiff1d(np.arange(m), keep)
            full = _decode_leader_indices(lat, S)
            dec = cflat.codec._index_digits(full, q, c.l_c, c.l_f)
            assert np.array_equal(dec[rows], truth[rows])
            settled += len(rows)
        assert settled == sim.certified > 0

    def test_subset_decode_equals_full_batch_under_each_kernel(self):
        # the certificate sends a batch's uncertified rows to the decoder
        # alone: their answers and table bits must be the whole batch's
        outs = outputs_per_kernel(_SUBSET_PER_KERNEL_CHILD)
        for out in outs:
            lines = out.splitlines()
            assert len(lines) == 2 * 22
            assert all(line.endswith("True True") for line in lines), out

    def test_decode_equation_equals_the_batch_decode_under_each_kernel(self):
        # one observation alone is decoded with the bits the batch gives it
        # (under the Haswell kernel a lone row's vector-matrix product
        # answered 6 of these 400 K = 121 near ties otherwise)
        for out in outputs_per_kernel(_DECODE_PER_KERNEL_CHILD):
            assert out.splitlines() == ["11 400", "121 400"], out

    def test_a_batch_that_leaves_one_row_decodes_it_alone(self, monkeypatch, powered_lattice):
        # the decoder gets exactly the rows the certificate leaves, one row
        # too: it decodes a lone row with the batch's bits
        lat = powered_lattice
        ch = BlockFadingChannel(np.array([[0.9, -0.3], [0.2, 1.1]]), 100.0)
        cand = best_equation(F5, ch)
        sizes = []

        def decode(lat, S):
            sizes.append(len(S))
            return _decode_leader_indices(lat, S)

        monkeypatch.setattr(cflat.codec, "_decode_leader_indices", decode)
        for keep in ([5], [0], [5, 9], []):
            monkeypatch.setattr(cflat.codec, "_uncertified", lambda *args: np.array(keep, int))
            sizes.clear()
            sim = simulate_codec(lat, ch, cand, 300, seed=3)
            assert sizes == [len(keep)] and sim.certified == 300 - len(keep)
        # a batch of one row is decoded as it is
        monkeypatch.setattr(cflat.codec, "_SIM_BATCH", 1)
        monkeypatch.setattr(cflat.codec, "_uncertified", lambda *args: np.array([0]))
        sizes.clear()
        assert simulate_codec(lat, ch, cand, 3, seed=3).certified == 0
        assert sizes == [1, 1, 1]


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

    @pytest.mark.parametrize("name", ["lat121", "lat_nested"])
    def test_one_disc_enumeration_per_residue(self, request, name, monkeypatch):
        # q = 11: a leader's lift at a coordinate depends only on its residue
        # there, so the walk enumerates 11 discs whatever T and K are
        lat = request.getfixturevalue(name)
        calls = []
        enumerate_ = cflat.codec._enumerate

        def counted(*args, **kwargs):
            calls.append(args)
            return enumerate_(*args, **kwargs)

        monkeypatch.setattr(cflat.codec, "_enumerate", counted)
        assert union_bound(lat, (0.5, 0.5), lat.gamma * 3.0).terms
        assert len(calls) == 11

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


def test_ideal_reduction_terminates_on_mu_half_ties():
    """Inert primes with d = 1 (mod 4) where mu of the embedded ideal basis is
    exactly 1/2 but evaluates to +-0.5000000000000001, so a size reduction
    that only rounds mu flips b2 -/+= b1 forever.  Built in a subprocess so a
    hang fails the test instead of stalling the suite."""
    pairs = [(13, 239), (21, 179), (37, 109), (41, 67)]
    code = (
        "from test_codec import _ideal_lattice\n"
        f"for d, p in {pairs}:\n"
        "    print(d, p, _ideal_lattice(d, p).prime.r)\n"
    )
    env = child_env(os.path.dirname(__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{d} {p} 2" for d, p in pairs]
