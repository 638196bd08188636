import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import cflat.channel as channel
import cflat.codec as codec
import cflat.svp as svp

from cflat.channel import (
    BlockFadingChannel,
    _block_terms,
    _rate_from_quad_form,
    am_rate,
    coefficient_embeddings,
    naive_rate,
)
from cflat.codec import NestedCodePair, _build, _hnf_column_basis, union_bound
from cflat.numfield import RingElement, make_quadratic_field, prime_above
from cflat.simkit import SweepConfig, run_sweep, sample_channels
from cflat.svp import (
    LLL_DELTA,
    NonFiniteBasis,
    RankDeficient,
    SVPResult,
    SearchTooLarge,
    _enumerate,
    _finite_column_batch,
    _gram_sqrt,
    _lll_batch,
    _lll_reduce,
    _lll_shortest,
    _naive_rates,
    _norm_sq,
    _normalize_sign,
    _reduced_factor,
    _search_bases,
    _shortest_batch,
    best_equation,
    best_integer_block,
    build_search_basis,
    shortest_vector,
)

import box_oracle
from box_oracle import TooLarge, brute_force_shortest, minkowski_bound
from child_env import child_env
from rate_oracle import gram_matrix
from svp_certificate import box_points, certify_shortest

F5 = make_quadratic_field(5)
F3 = make_quadratic_field(3)
REPEAT_CODE = NestedCodePair(p=11, r=1, T=2, l_f=1, l_c=0, G_f=((1,), (1,)))


def zero_channel(n, L, P=10.0):
    # Gram matrices reduce to the identity
    return BlockFadingChannel(np.zeros((n, L)), P)


def random_channel(rng, n=2, L=2):
    return BlockFadingChannel(
        rng.standard_normal((n, L)), float(10 ** rng.uniform(0, 4))
    )


def direct_quad_form(field, ch, coords):
    """Independent evaluation of f(a) = sum_j sigma_j(a)^T M_j sigma_j(a)."""
    L = ch.L
    if field is None:
        a = coords
    else:
        a = [
            RingElement(int(coords[2 * l]), int(coords[2 * l + 1])) for l in range(L)
        ]
    sigma = coefficient_embeddings(a, field, ch.n)
    return sum(
        float(sigma[j] @ gram_matrix(ch.h[j], ch.P) @ sigma[j]) for j in range(ch.n)
    )


def after_a_good_basis(B):
    """A batch of two bases: the identity, then B."""
    B = np.asarray(B, dtype=float)
    return np.array([np.eye(*B.shape), B])


def batch_search(bases, P=math.nan):
    """_shortest_batch on the bases as one chunk, ranked in batch order as a
    loop of shortest_vector calls: (coords, norms, errors by basis index),
    each norm that of the basis' coordinates (norms_of)."""
    errors = {}
    bases = np.asarray(bases, dtype=float)
    (coords,) = _shortest_batch([(bases, np.full(len(bases), P), np.arange(len(bases)))], errors)
    return coords, norms_of(bases, coords), errors


def norms_of(bases, coords):
    """_norm_sq of each basis (batch, m, k) at its coordinates (batch, k),
    as _pick_candidate scores a single call's answer; NaN where the
    coordinates are NaN."""
    return np.array([_norm_sq(B.T.tolist(), c.tolist()) for B, c in zip(bases, coords)])


def single_error(search, *args):
    """The exception search(*args) raises."""
    with pytest.raises(ValueError) as single:
        search(*args)
    return single.value


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


def recorded_error(B):
    """The error batch_search records for B after a good basis, which has
    none; it equals shortest_vector's on B."""
    errors = batch_search(after_a_good_basis(B))[2]
    assert list(errors) == [1]
    assert_same_error(errors[1], single_error(shortest_vector, np.asarray(B, dtype=float)))
    return errors[1]


def raise_recorded_error(B):
    raise recorded_error(B)


def certify_in_reduced_basis(B):
    """Certify shortest_vector on the lattice of the generator matrix B in an
    LLL-reduced basis of the same lattice.

    For 6-D lattices the certificate's box in the original coordinates holds
    1e8-1e11 points, and for 2-D ones at 120 dB up to 1e7.  The box stays
    complete whatever the reduction does, as long as the transform is
    unimodular.
    """
    sv = shortest_vector(B)
    T = _lll_reduce(list(B.T))[1]
    U = np.array(T, dtype=np.int64).T  # reduced basis = B @ U
    assert round(abs(np.linalg.det(U))) == 1
    y = np.rint(np.linalg.solve(U, sv.coords)).astype(np.int64)
    assert np.array_equal(U @ y, sv.coords)
    reduced = B @ U
    cert = certify_shortest(reduced, SVPResult(y, sv.norm_sq, sv.node_count))
    assert cert.ok, cert.detail


def assert_reduced(rows, reduced, T):
    """reduced = T @ rows with T unimodular, and reduced is size-reduced and
    meets the Lovasz condition."""
    T = np.array(T, dtype=float)
    assert np.array_equal(T, np.rint(T))
    assert round(abs(np.linalg.det(T))) == 1
    reduced = np.array(reduced)
    residual = np.max(np.abs(T @ rows - reduced))
    assert residual <= 1e-9 * np.max(np.abs(reduced))
    R = np.linalg.qr(reduced.T, mode="r")
    mu = R / np.diag(R)[:, None]  # mu[j, i] = mu_ij for j < i
    norms = np.diag(R) ** 2
    assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-9)
    for k in range(1, len(norms)):
        lovasz = (LLL_DELTA - mu[k - 1, k] ** 2) * norms[k - 1]
        assert norms[k] >= lovasz * (1 - 1e-9)


class TestBuildBasis:
    def test_layout_matches_kronecker_shuffle(self):
        B = build_search_basis(F5, zero_channel(2, 2))
        th1, th2 = F5.theta
        want = np.array(
            [
                [1.0, th1, 0.0, 0.0],
                [0.0, 0.0, 1.0, th1],
                [1.0, th2, 0.0, 0.0],
                [0.0, 0.0, 1.0, th2],
            ]
        )
        assert np.allclose(B, want)  # identity Gram blocks
        assert abs(np.linalg.det(B)) == pytest.approx(5.0, rel=1e-9)
        # row j*L + l is row l*deg + j of the user-major Kronecker form
        kron = np.kron(np.eye(2), F5.embedding)
        shuffle = [(r % 2) * 2 + r // 2 for r in range(4)]
        assert np.allclose(B, kron[shuffle])

    def test_phi_mix_determinant(self):
        # With identity Gram blocks the basis is the pure embedding mix
        # kron(I_L, phi) up to a row shuffle, so |det| = disc^(L/2).  Any
        # channel's basis is blockdiag(R_1, ..., R_n) times that same mix.
        rng = np.random.default_rng(0)
        for field in (F5, F3):
            for L in (1, 2, 3):
                mix = build_search_basis(field, zero_channel(field.degree, L))
                assert abs(np.linalg.det(mix)) == pytest.approx(
                    field.discriminant ** (L / 2), rel=1e-9
                )
            mix = build_search_basis(field, zero_channel(field.degree, 2))
            for _ in range(20):
                ch = random_channel(rng)
                D = np.linalg.solve(mix.T, build_search_basis(field, ch).T).T
                for j in range(ch.n):
                    R = D[2 * j : 2 * j + 2, 2 * j : 2 * j + 2].copy()
                    D[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.0
                    assert np.allclose(R @ R, gram_matrix(ch.h[j], ch.P), atol=1e-9)
                assert np.allclose(D, 0.0, atol=1e-9)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            field = (F5, F3, None)[int(rng.integers(3))]
            ch = random_channel(rng)
            B = build_search_basis(field, ch)
            for _ in range(10):
                coords = rng.integers(-5, 6, size=B.shape[1])
                if not coords.any():
                    coords[0] = 1
                v = B @ coords
                assert float(v @ v) == pytest.approx(
                    direct_quad_form(field, ch, coords), rel=1e-9, abs=1e-12
                )

    def test_degree_one_stacks_square_roots(self):
        rng = np.random.default_rng(2)
        ch = random_channel(rng)
        B = build_search_basis(None, ch)
        assert B.shape == (4, 2)
        gram_sum = sum(gram_matrix(ch.h[j], ch.P) for j in range(ch.n))
        assert np.allclose(B.T @ B, gram_sum, rtol=1e-12, atol=1e-14)
        for j in range(ch.n):
            block = B[2 * j : 2 * j + 2]
            assert np.array_equal(block, block.T)

    def test_det_factorization(self):
        # |det Bbar| = disc^(L/2) prod_j (1 + P||h_j||^2)^(-1/2)
        rng = np.random.default_rng(3)
        for field in (F5, F3):
            for _ in range(50):
                ch = random_channel(rng)
                B = build_search_basis(field, ch)
                g = 1.0 + ch.P * np.einsum("jl,jl->j", ch.h, ch.h)
                want = field.discriminant ** (ch.L / 2) * float(np.prod(g ** -0.5))
                assert abs(np.linalg.det(B)) == pytest.approx(want, rel=1e-8)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            build_search_basis(F5, zero_channel(3, 2))


class TestShortestVector:
    def test_golden_trace_form(self):
        # L=1, identity Gram: f(a) = Tr(a^2)-ish; minimum 2 at a = 1
        B = build_search_basis(F5, zero_channel(2, 1))
        res = shortest_vector(B)
        assert res.norm_sq == pytest.approx(2.0, rel=1e-12)
        assert tuple(res.coords) == (1, 0)
        assert res.node_count > 0

    def test_identity_basis(self):
        for k in (2, 3, 5):
            res = shortest_vector(np.eye(k))
            assert res.norm_sq == pytest.approx(1.0)
            a = tuple(res.coords)
            assert sorted(a) == [0] * (k - 1) + [1]

    def test_norm_le_every_lll_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ch = random_channel(rng)
            B = build_search_basis(F5, ch)
            res = shortest_vector(B)
            reduced = _lll_reduce(list(B.T))[0]
            for v in reduced:
                assert res.norm_sq <= sum(x * x for x in v) * (1 + 1e-9)

    def test_rank_deficient(self):
        bad = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficient):
            shortest_vector(bad)
        error = recorded_error(bad)
        assert isinstance(error, RankDeficient)
        assert "numerically rank deficient" in str(error)

    @pytest.mark.parametrize(
        "basis",
        [
            [[1.0, 1.0], [0.0, 1e-14]],
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1e-15]],
            [[0.0, 1.0], [0.0, 1.0]],
        ],
    )
    def test_relative_rank_guard(self, basis):
        # one Gram-Schmidt length is below 1e-12 of the largest (the last
        # basis has a zero column); in a batch too
        with pytest.raises(RankDeficient):
            shortest_vector(np.array(basis))
        assert isinstance(recorded_error(basis), RankDeficient)

    def test_oracle_equivalence_200_instances(self):
        # Every answer is certified by an exhaustive search over a box that
        # provably holds all lattice vectors no longer than it.  The box-6
        # oracle agrees: the sphere-decoder minimum never exceeds the box
        # minimum, and equals it whenever the global minimizer lies inside.
        # (Conditioning on the *box argmin* being interior instead is unsound
        # at high SNR: the global minimizer's coordinates grow like P^(1/4)
        # and can leave the box while the box argmin stays interior.)
        rng = np.random.default_rng(5)
        fields = (F5, F3, make_quadratic_field(7))
        checked = 0
        for i in range(200):
            ch = random_channel(rng)
            B = build_search_basis(fields[i % 3], ch)
            sv = shortest_vector(B)
            cert = certify_shortest(B, sv)
            assert cert.ok, f"instance {i}: {cert.detail}"
            bf = brute_force_shortest(B, 6)
            assert sv.norm_sq <= bf.norm_sq * (1 + 1e-9)
            if np.max(np.abs(sv.coords)) <= 5:  # global minimizer interior
                assert sv.norm_sq == pytest.approx(bf.norm_sq, rel=1e-9)
                checked += 1
            lam1 = math.sqrt(sv.norm_sq)
            assert lam1 < minkowski_bound(B)
        assert checked > 150  # the interior case must dominate

    # Three-user (6-D) lattices at 40-60 dB on which the shortest vector of
    # the LLL-reduced basis is 8-12% longer than the lattice minimum, so
    # only the enumeration finds the answer: (d, h, P).
    LLL_SHORT_6D = (
        (7, ((0.7653546837661211, 0.04580783577937577, -0.7454433887901278),
             (-0.04336259016175258, -0.16392876295519593, 0.7247764935410931)),
         444694.7014304255),
        (3, ((0.17650426235091057, 0.01415515177896439, -0.9776876168663451),
             (0.5680878663188149, -2.04187569626381, -0.43285945825707295)),
         119145.94786192324),
        (7, ((0.5970952576072437, -0.36468839994372015, 1.1571643665489335),
             (-2.8006657020610444, 0.4018033739491583, -0.8237016916476322)),
         15275.46524381885),
        (5, ((0.32083460127984836, 0.22142765642230539, 0.9679003262114209),
             (0.35270312833737505, -0.9420782514878964, -0.9431109858141009)),
         441996.21558521217),
    )

    @pytest.mark.parametrize(
        "d, h, P", LLL_SHORT_6D, ids=[f"d{d}-P{P:.0f}" for d, _, P in LLL_SHORT_6D]
    )
    def test_certified_where_lll_alone_falls_short(self, d, h, P):
        certify_in_reduced_basis(
            build_search_basis(make_quadratic_field(d), BlockFadingChannel(h, P))
        )

    # Three-user channels at 80 dB, as (trial index under seed 20170204, d):
    # a floating-point LLL that updates mu and the Gram-Schmidt norms across
    # swaps (Cohen, Alg. 2.6.3) instead of recomputing them loses the small
    # norms of these 6-D lattices and raises RankDeficient.
    SWAP_UPDATE_UNSTABLE_80DB = ((3, 3), (3, 5), (6, 7), (9, 5), (10, 3), (11, 5))

    @pytest.mark.parametrize("c, d", SWAP_UPDATE_UNSTABLE_80DB)
    def test_certified_where_swap_updates_fail(self, c, d):
        ch = BlockFadingChannel(sample_channels(20170204, c, 2, 3), 1e8)
        certify_in_reduced_basis(build_search_basis(make_quadratic_field(d), ch))

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("d", [None, 3, 5, 7])
    def test_lll_output_is_reduced(self, L, d):
        # Checked against a Gram-Schmidt orthogonalization of the output
        # computed independently of the kernels (numpy QR), for the scalar
        # LLL and for the batch, which reduces all the bases at once
        bases = sweep_bases(d, L, range(0, 90, 10), 5, seed=31)
        b, T, _, _, exact = _lll_batch(_finite_column_batch(bases)[0])
        assert exact.all()
        for i, B in enumerate(bases):
            reduced, Ti, _, _ = _lll_reduce(list(B.T))
            assert all(type(x) is int for row in Ti for x in row)
            assert_reduced(B.T, reduced, Ti)
            assert_reduced(B.T, b[..., i], T[..., i])

    def test_deterministic_tie_break(self):
        B = build_search_basis(F5, zero_channel(2, 2))
        coords = [tuple(shortest_vector(B).coords) for _ in range(5)]
        assert len(set(coords)) == 1
        # both unit users give norm 2; lexicographic pick is (0,0,1,0)
        assert coords[0] == (0, 0, 1, 0)


    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "bad, cause",
        [(math.nan, "non-finite entry"), (-math.inf, "non-finite entry"),
         (1e200, "squared norm of basis column 0 overflows")],
    )
    def test_rejects_nonfinite_basis(self, k, bad, cause):
        # the search checks the entries before any reduction
        B = np.eye(k)
        B[k - 1, 0] = bad
        with pytest.raises(NonFiniteBasis, match=cause):
            shortest_vector(B)

    @pytest.mark.parametrize("k", [2, 3])
    def test_rejects_subnormal_column_norm(self, k):
        # squared norm 1e-320: the LLL's first size-reduction coefficient
        # u.v / ||u||^2 would overflow to inf
        B = np.eye(k)
        B[0, 0], B[0, 1] = 1e-160, 1e150
        with pytest.raises(NonFiniteBasis, match="basis column 0 is subnormal"):
            shortest_vector(B)

    @pytest.mark.parametrize(
        "search",
        [
            shortest_vector,
            lambda B: brute_force_shortest(B, 2),
            minkowski_bound,
            raise_recorded_error,
        ],
        ids=["shortest_vector", "brute_force", "minkowski", "batch"],
    )
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "col0, cause",
        [
            (math.inf, "basis column 0 has a non-finite entry"),
            (math.nan, "basis column 0 has a non-finite entry"),
            (1e200, "squared norm of basis column 0 overflows"),
            (1e-160, "squared norm of basis column 0 is subnormal"),
        ],
    )
    def test_every_entry_point_checks_the_columns(self, search, k, col0, cause):
        B = np.eye(k)
        B[0, 0] = col0
        B[0, 1] = 1e150
        with pytest.raises(NonFiniteBasis, match=cause):
            search(B)


# Inert (d, p) pairs, d = 1 mod 4, whose embedded ideal basis has
# mu = 1/2 exactly, evaluated in floats as 0.5000000000000001 or just above.
MU_HALF_PAIRS = (
    (13, 239), (21, 179), (21, 223), (21, 239), (33, 283), (37, 109),
    (37, 281), (41, 67), (57, 131), (57, 251), (61, 191), (61, 251),
    (65, 11), (69, 173), (69, 179), (73, 43), (73, 131), (73, 167),
    (77, 257), (85, 83), (97, 157), (97, 233), (105, 29), (105, 167),
    (105, 229), (109, 163),
)

# Exact ties, run as a child process so that a search that never ends fails
# the test at its timeout instead of stalling the suite: the square and
# hexagonal lattices (three tied shortest vectors), then the mu = 1/2 ideal
# bases.  Each line: shortest_vector's coords and norm_sq bits, then the
# batch's.
_TIES_CHILD = """
import numpy as np
from cflat.numfield import make_quadratic_field, prime_above
from cflat.svp import _norm_sq, _shortest_batch, shortest_vector
bases = [np.eye(2), np.array([[1.0, 0.5], [0.0, 0.8660254037844386]])]
for d, p in {pairs!r}:
    field = make_quadratic_field(d)
    bases.append(field.embedding @ prime_above(field, p).basis_matrix())
chunk = (np.array(bases), np.full(len(bases), np.nan), np.arange(len(bases)))
(coords,) = _shortest_batch([chunk], {{}})
for B, c in zip(bases, coords):
    e = shortest_vector(B)
    print(*e.coords, e.norm_sq.hex(), *c.astype(int), _norm_sq(B.T.tolist(), c.tolist()).hex())
"""

# relative gap between a near tie's reduced norm and the shortest one
NEAR_TIE = 1e-6


def unimodular(rng, changes):
    """A product of `changes` random elementary integer 2 x 2 matrices."""
    U = np.eye(2, dtype=np.int64)
    for _ in range(changes):
        a, b = rng.permutation(2)
        E = np.eye(2, dtype=np.int64)
        E[a, b] = rng.integers(-3, 4)
        U = U @ E
    return U


class TestTwoColumnBases:
    # am_Z's (4, 2) basis and best_integer_block's per-block (2, 2) one at
    # L = 2 take the LLL and box or enumeration search of every other basis

    @pytest.mark.parametrize("snr_db", range(0, 130, 10))
    def test_certified_0_to_120_db(self, snr_db):
        P = 10.0 ** (snr_db / 10.0)
        for t in range(8):
            ch = BlockFadingChannel(sample_channels(41, t, 2, 2), P)
            for B in (build_search_basis(None, ch), *_gram_sqrt(ch.h, P)):
                certify_in_reduced_basis(B)

    def test_exact_ties_finish_and_batch_equals_single(self):
        env = child_env()
        out = subprocess.run(
            [sys.executable, "-c", _TIES_CHILD.format(pairs=MU_HALF_PAIRS)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert out.returncode == 0, out.stderr
        lines = [line.split() for line in out.stdout.splitlines()]
        assert len(lines) == 2 + len(MU_HALF_PAIRS)
        for line in lines:
            assert line[:3] == line[3:]
        assert lines[1][:2] == ["0", "1"]  # hexagonal: lexicographic pick

    def test_tied_lattices_under_unimodular_changes(self):
        # square and hexagonal lattices, rotated, rescaled and given in
        # skewed bases S U: their 2 and 3 tied shortest vectors S s are all
        # found, so the pick is the lexicographically smallest U^-1 s
        rng = np.random.default_rng(13)
        shapes = (np.eye(2), np.array([[1.0, 0.5], [0.0, 3**0.5 / 2]]))
        ties = (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, -1)))
        bases = []
        for i in range(400):
            th = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            U = unimodular(rng, int(rng.integers(0, 6)))
            B = rot @ shapes[i % 2] @ U * 10 ** rng.uniform(-3, 3)
            inv = np.rint(np.linalg.inv(U)).astype(np.int64)
            want = min(_normalize_sign(tuple(int(x) for x in inv @ s)) for s in ties[i % 2])
            assert tuple(shortest_vector(B).coords) == want
            bases.append(B)
        assert_batch_equals_single(bases)

    @pytest.mark.parametrize("snr_db", [0, 20, 50, 100, 200, 400])
    def test_batch_equals_single_calls(self, snr_db):
        # the sweep's bases for 100 channels, am_Z's (4, 2) and the per-block
        # (2, 2) ones, built and searched as a batch and one at a time
        P = 10.0 ** (snr_db / 10.0)
        h = np.array([sample_channels(43, t, 2, 2) for t in range(100)])
        am = _search_bases([None], h, P)
        assert bits(am) == bits([build_search_basis(None, BlockFadingChannel(x, P)) for x in h])
        assert_batch_equals_single(am)
        for j in range(2):
            blocks = _gram_sqrt(h[:, j], P)
            assert bits(blocks) == bits([_gram_sqrt(x[j : j + 1], P)[0] for x in h])
            if snr_db < 400:
                assert_batch_equals_single(blocks)
            else:
                # some per-block bases are numerically rank deficient
                assert_batch_raises_as_single(blocks)

    def test_batch_equals_single_calls_at_halves_and_near_ties(self):
        # u = (1, 0) and v with mu = k + 1/2 exactly or not, v's reduced norm
        # (and for a half, that of u - v) within, at and beyond NEAR_TIE of
        # u's, as given and under unimodular changes of basis
        rng = np.random.default_rng(19)
        bases = []
        for x in (0.0, 0.3, 0.5 - 1e-9, 0.5, -0.5, 1.5, 2.5, -3.5):
            f = x - math.floor(x + 0.5)
            for eps in (-2e-6, -1e-7, 0.0, 1e-7, 0.5, 0.99, 1.0, 1.01, 2.0):
                eps = eps * NEAR_TIE if abs(eps) > 1e-6 else eps
                M = np.array([[1.0, x], [0.0, math.sqrt(1.0 + eps - f * f)]])
                bases.append(M)
                for _ in range(3):
                    U = unimodular(rng, int(rng.integers(1, 5)))
                    bases.append(M @ U * 10 ** rng.uniform(-3, 3))
        assert_batch_equals_single(bases)

    def test_batch_with_huge_coefficients(self):
        # size-reduction coefficients of 2^60 + 2^10 and 3e17 pass the
        # batch LLL's 2^53 transform guard: the batch hands those bases to
        # the scalar LLL
        bases = [np.eye(2), [[1.0, 2.0**60 + 2.0**10], [0.0, 1.0]], [[1.0, -3e17], [0.0, 2.5]]]
        exact = _lll_batch(_finite_column_batch(np.array(bases))[0])[4]
        assert exact.tolist() == [True, False, False]
        assert_batch_equals_single(bases)

    def test_zero_length_vector_is_rank_deficient(self, tmp_path):
        # block 1 of sample_channels(47, 58, 2, 2) at 320 dB: LLL leaves
        # Gram-Schmidt lengths more than 1e12 apart, and the shortest
        # nonzero vector, (261592682, 302890073), has squared norm 0.0 in
        # floats
        h = sample_channels(47, 58, 2, 2)
        B = _gram_sqrt(h[1:2], 1e32)[0]
        assert B.ravel().tolist() == [
            0.5727702124432328, -0.49467615283230176, -0.49467615283230176, 0.4272297875567672,
        ]
        assert _norm_sq(B.T.tolist(), (261592682, 302890073)) == 0.0
        with pytest.raises(RankDeficient, match="numerically rank deficient"):
            shortest_vector(B)
        assert_batch_raises_as_single([B])
        with pytest.raises(RankDeficient, match="numerically rank deficient"):
            best_integer_block(h[1], 1e32)

    def test_zero_norm_answer_is_rank_deficient(self):
        # block 0 of sample_channels(43, 20, 2, 2) at 400 dB passes the
        # Gram-Schmidt rank guard, but the search's answer, (369060607,
        # 365735051), has squared norm 0.0, which proves the dependence
        h = sample_channels(43, 20, 2, 2)
        B = _gram_sqrt(h[0:1], 1e40)[0]
        _reduced_factor(B.T.tolist())
        assert _norm_sq(B.T.tolist(), (369060607, 365735051)) == 0.0
        with pytest.raises(RankDeficient, match="nonzero vector has norm 0.0"):
            shortest_vector(B)
        assert_batch_raises_as_single([np.eye(2), B])
        with pytest.raises(RankDeficient, match="nonzero vector has norm 0.0"):
            best_integer_block(h[0], 1e40)

    def test_305_to_600_db_answers_are_nonzero(self):
        # am_Z's (4, 2) and the per-block (2, 2) bases of 40 channels, every
        # 5 dB: no answer has squared norm 0.0, and each set's batch raises
        # the first error of a loop of single calls, or equals the loop
        h = np.array([sample_channels(5, t, 2, 2) for t in range(40)])
        raised = 0
        for snr_db in range(305, 605, 5):
            P = 10.0 ** (snr_db / 10.0)
            for bases in (_search_bases([None], h, P), *(_gram_sqrt(h[:, j], P) for j in range(2))):
                kept = []
                for B in bases:
                    try:
                        assert shortest_vector(B).norm_sq > 0.0
                        kept.append(B)
                    except RankDeficient:
                        raised += 1
                if len(kept) < len(bases):
                    assert_batch_raises_as_single(bases)
                assert_batch_equals_single(kept)
        assert raised > 0


def sweep_bases(d, L, snrs, trials, seed=53):
    """The search bases of `trials` channels at each SNR of snrs, in one
    (batch, m, k) array."""
    field = None if d is None else make_quadratic_field(d)
    h = np.array([sample_channels(seed, t, 2, L) for t in range(trials)])
    return np.concatenate([_search_bases([field], h, 10.0 ** (s / 10.0)) for s in snrs])


def exact_det(rows):
    """The determinant of a square integer matrix (lists of ints), by
    fraction-free Gaussian elimination (Bareiss) in Python ints."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def assert_lll_batch_contract(bases):
    """Every basis _lll_batch returns is an LLL reduction of its input B: T
    is an integer matrix with |det T| = 1 in Python ints; each b_i is T_i B,
    summed exactly, to within the rounding svp._ROUNDING assumes; and b is
    size-reduced and meets the Lovasz condition at LLL_DELTA, in the batch's
    own Gram-Schmidt data and in a QR factorization of b."""
    bases = np.asarray(bases, dtype=float)
    b, T, mu, norms, exact = _lll_batch(_finite_column_batch(bases)[0])
    assert exact.all()
    for i, B in enumerate(bases):
        Ti = T[..., i]
        assert np.array_equal(Ti, np.rint(Ti))
        ints = [[int(x) for x in row] for row in Ti.tolist()]
        assert abs(exact_det(ints)) == 1
        scale = math.sqrt(max(float(c @ c) for c in B.T))
        exact_B = [[Fraction(x) for x in r] for r in B.tolist()]
        for row, t in zip(b[..., i].tolist(), ints):
            err = [Fraction(x) - sum(e * k for e, k in zip(r, t)) for x, r in zip(row, exact_B)]
            allowed = svp._ROUNDING / 2 * sum(map(abs, t)) * scale
            assert math.sqrt(sum(e * e for e in err)) <= allowed
        assert np.all(np.abs(np.tril(mu[..., i], -1)) <= 0.5)
        for k in range(1, len(Ti)):
            m1 = mu[k, k - 1, i]
            assert norms[k, i] >= (LLL_DELTA - m1 * m1) * norms[k - 1, i]
        R = np.linalg.qr(b[..., i].T, mode="r")
        qr_mu = R / np.diag(R)[:, None]  # qr_mu[j, k] = mu_kj for j < k
        qr_norms = np.diag(R) ** 2
        assert np.all(np.abs(np.triu(qr_mu, 1)) <= 0.5 + 1e-9)
        for k in range(1, len(qr_norms)):
            assert qr_norms[k] >= (LLL_DELTA - qr_mu[k - 1, k] ** 2) * qr_norms[k - 1] * (1 - 1e-9)


class TestLLLBatch:
    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("d", [None, 3, 5, 7])
    def test_output_is_an_lll_reduction(self, d, L):
        assert_lll_batch_contract(sweep_bases(d, L, range(0, 210, 20), 8 if L == 2 else 3))

    def test_batch_of_one(self):
        bases = sweep_bases(5, 2, (40.0,), 1)
        assert_lll_batch_contract(bases)
        assert_batch_equals_single(bases)

    def test_wide_bases_batch_equals_single_calls(self):
        # L = 10: 20-column ring bases, past the box search, so each answer
        # is the +-b_1 skip, an enumeration over the batch's factor or a
        # single call.  The reduction keeps its contract, its rounding
        # within what svp._ROUNDING assumes, up to 200 dB
        bases = sweep_bases(5, 10, (0.0, 20.0, 40.0), 2)
        assert bases.shape[1:] == (20, 20)
        assert_lll_batch_contract(bases)
        assert_batch_equals_single(bases)
        assert_lll_batch_contract(sweep_bases(5, 10, (100.0, 150.0, 200.0), 2))

    def test_chunk_boundary(self, monkeypatch):
        # the search pass certifies 8 bases in chunks of 3, the last one
        # short, and each basis gets shortest_vector's answer
        monkeypatch.setattr(svp, "_LLL_CHUNK", 3)
        sizes = []
        real = svp._lll_batch

        def recording(cols):
            sizes.append(cols.shape[2])
            return real(cols)

        monkeypatch.setattr(svp, "_lll_batch", recording)
        snrs = (0.0, 30.0, 60.0, 90.0)
        h = np.array([sample_channels(53, t, 2, 2) for t in range(2)] * 4)
        P = np.repeat([10.0 ** (s / 10.0) for s in snrs], 2)
        errors = {}
        field = make_quadratic_field(7)
        coords = svp._search_coords([field], [], h, P, (np.arange(8)[None], None), errors)[0][0]
        assert errors == {} and sizes == [3, 3, 2]
        bases = sweep_bases(7, 2, snrs, 2)
        norms = norms_of(bases, coords)
        for B, c, norm_sq in zip(bases, coords, norms):
            want = shortest_vector(B)
            assert tuple(c) == tuple(want.coords)
            assert norm_sq.hex() == want.norm_sq.hex()

    def test_sweep_unit_rounds(self, monkeypatch):
        # a round of the odd-even LLL runs one einsum per column: the 660
        # ring bases of a 20-trial sweep unit take 16 rounds, and the batch
        # answers every one of them
        rounds, einsums = [], []
        real_einsum, real_batch = np.einsum, svp._lll_batch

        def counting_einsum(*args, **kwargs):
            einsums.append(1)
            return real_einsum(*args, **kwargs)

        def counting_batch(cols):
            einsums.clear()
            out = real_batch(cols)
            if len(cols) == 4:  # the ring bases, not the 2-column Z ones
                rounds.append(len(einsums) // 4)
            return out

        monkeypatch.setattr(np, "einsum", counting_einsum)
        monkeypatch.setattr(svp, "_lll_batch", counting_batch)
        *_, cold = record_fallback(monkeypatch)
        run_sweep(SweepConfig(trials=20, master_seed=1000))
        assert len(rounds) == 1 and rounds[0] <= 20
        assert cold == []

    def test_each_basis_as_if_alone(self, monkeypatch):
        # a 20-trial headline unit makes two _lll_chunk calls, in the order
        # of the schemes: the 660 integer bases of am_Z and both naive_Z
        # blocks, then the 660 ring bases.
        # Live-only rounds gather the unfinished bases into smaller arrays,
        # so each basis' outputs must be those _lll_batch gives it alone:
        # b, mu and norms bit for bit, T as integers
        chunks = []
        real = svp._lll_chunk

        def recording(cols):
            chunks.append(cols)
            return real(cols)

        monkeypatch.setattr(svp, "_lll_chunk", recording)
        run_sweep(SweepConfig(trials=20, master_seed=1000))
        assert [c.shape for c in chunks] == [(2, 4, 660), (4, 4, 660)]
        for cols in chunks:
            b, T, mu, norms, exact = _lll_batch(cols)
            assert exact.all()
            for i in range(cols.shape[2]):
                one = _lll_batch(cols[..., i : i + 1])
                assert bool(one[4][0])
                assert T[..., i].astype(int).tolist() == one[1][..., 0].astype(int).tolist()
                for x, y in ((b, one[0]), (mu, one[2]), (norms, one[3])):
                    assert list(map(float.hex, x[..., i].ravel().tolist())) == list(
                        map(float.hex, y[..., 0].ravel().tolist())
                    )

    def test_zero_coordinates_are_positive_zero(self):
        # sign normalization negates whole rows; a zero coordinate stays
        # +0.0, as in shortest_vector's integer coordinates
        bases = sweep_bases(5, 2, (0.0, 20.0, 40.0), 10)
        coords = batch_search(bases)[0]
        assert bits(coords) == bits([shortest_vector(B).coords for B in bases])

    def test_joint_ring_search_equals_per_field_calls(self, monkeypatch):
        # _search_coords certifies every field's bases for a run of channels
        # in one chunk of at most _LLL_CHUNK bases, field k's basis for
        # channel i at item k * run + i: a chunk of 7 holds two channels of
        # each of three fields.  Bases equal build_search_basis's and
        # coordinates those of one _shortest_batch call per field
        monkeypatch.setattr(svp, "_LLL_CHUNK", 7)
        fields = [make_quadratic_field(d) for d in (3, 5, 7)]
        h = np.array([sample_channels(29, t, 2, 2) for t in range(4)] * 3)
        P = np.repeat([1.0, 1e4, 1e8], 4)
        calls = []
        real = svp._finite_column_batch

        def recording(bases):
            calls.append(bits(bases))
            return real(bases)

        monkeypatch.setattr(svp, "_finite_column_batch", recording)
        errors = {}
        rank = np.arange(36).reshape(3, 12)
        coords = svp._search_coords(fields, [], h, P, (rank, None), errors)[0]
        assert errors == {}
        assert calls == [
            bits(
                [
                    build_search_basis(f, BlockFadingChannel(h[i], P[i]))
                    for f in fields
                    for i in range(lo, lo + 2)
                ]
            )
            for lo in range(0, 12, 2)
        ]
        for field, got in zip(fields, coords):
            assert bits(got) == bits(batch_search(_search_bases([field], h, P))[0])

    def test_enumeration_skip_keeps_lll_shortest_answers(self, monkeypatch):
        # Sweep bases of the three ring schemes from 0 to 200 dB, after the
        # zero channel's basis, whose two unit users tie at norm 2: the box
        # and the enumeration over the batch's factor find the tie, so the
        # single call runs, and it picks (0, 0, 1, 0).  Most sweep bases
        # skip the box, and the box search takes all but one, a 200 dB
        # basis near a tie within the rounding guard's window
        bases = np.concatenate(
            [build_search_basis(F5, zero_channel(2, 2))[None]]
            + [sweep_bases(d, 2, range(0, 210, 20), 10) for d in (3, 5, 7)]
        )
        unresolved, enumerated, cold = record_fallback(monkeypatch)
        coords, norms, _ = batch_search(bases)
        assert len(unresolved) == len(enumerated) == len(cold) == 2
        assert cold[0] == bits(bases[0])
        assert tuple(coords[0]) == (0, 0, 1, 0)
        assert_equals_lll_shortest(bases, coords, norms)

    @pytest.mark.parametrize(
        "sets",
        [
            [
                (d, L, range(0, 210, 20), 8 if L == 2 else 3, 53, 0)
                for d in (3, 5, 7)
                for L in (2, 3)
            ],
            [(d, 2, range(0, 310, 10), 100, 1, cold) for d, cold in ((3, 664), (5, 732), (7, 710))],
            [(d, 3, range(0, 110, 10), 10, 53, 0) for d in (None, 3, 5, 7)],
        ],
        ids=["lll-batch", "ring-0-300", "L3"],
    )
    def test_box_search_equals_enumeration(self, sets, monkeypatch):
        # the +-b_1 skip, _box_shortest and the enumeration over the batch's
        # factor take an answer from the batch's reduction only where it is
        # certified to be _lll_shortest's: every basis gets its coordinates
        # and norm_sq bits.  On the LLL batch tests' sets and the 3-D and
        # 6-D bases at L = 3 the box search takes every basis not skipped.
        # Of the 3,100 bases of each field in the sweep's 0-300 dB ring
        # check, the single call takes at most the measured 664, 732 and 710
        # (past the rounding guard, or near a tie within its window), all
        # at 190 dB and above
        unresolved, enumerated, cold = record_fallback(monkeypatch)
        for d, L, snrs, trials, seed, most in sets:
            bases = sweep_bases(d, L, snrs, trials, seed=seed)
            high = [s for s in snrs if s >= 190]
            high = {bits(B) for B in sweep_bases(d, L, high, trials, seed=seed)} if high else set()
            coords, norms, _ = batch_search(bases)
            if not most:
                assert unresolved == enumerated == cold == []
            assert len(cold) <= most and set(cold) <= high
            assert_equals_lll_shortest(bases, coords, norms)
            for spied in (unresolved, enumerated, cold):
                spied.clear()

    @pytest.mark.parametrize("gap, boxed", [(5e-10, False), (3e-9, True)])
    def test_near_tie_falls_back(self, gap, boxed, monkeypatch):
        # b_1 = (1, 0, 0), b_2 = (0.4, s, 0) with |b_2|^2 = 1 + gap, b_3 =
        # 3 e_3: reduced as given, and not skipped, as R_11^2 < R_00^2.
        # Within _REL_TIE the enumeration collects both and the tie-break
        # picks (0, 1, 0), the longer one; the box and the enumeration over
        # the batch's factor leave that to the single call.  Past the tie
        # the box takes b_1 itself
        s = math.sqrt(0.84 + gap)
        B = np.array([[1.0, 0.4, 0.0], [0.0, s, 0.0], [0.0, 0.0, 3.0]])
        unresolved, enumerated, cold = record_fallback(monkeypatch)
        coords, norms, _ = batch_search(B[None])
        assert cold == ([] if boxed else [bits(B)])
        assert len(unresolved) == len(enumerated) == len(cold)
        assert tuple(coords[0]) == ((1, 0, 0) if boxed else (0, 1, 0))
        assert_equals_lll_shortest(B[None], coords, norms)

    @pytest.mark.parametrize("alternating", [False, True], ids=["widest-2.004", "minimum-outside"])
    def test_wide_box_falls_back(self, alternating, monkeypatch):
        # LLL-reduced 6-D bases at the Lovasz bound, every mu_ij = 0.49 (or
        # +-0.49 alternating) and each Gram-Schmidt length sqrt(0.755) of
        # the one before.  With equal signs the widest box is 2.004, just
        # past {-1, 0, 1}; with alternating ones the boxes reach 6.03 and
        # the shortest vector, (3, -2, 1, -1, 1, -1), lies outside the
        # unit box, so a box search would answer wrongly.  Both skip the
        # box and are enumerated over the batch's factor, which certifies
        # the answer
        m = 6
        r = 0.755 ** (np.arange(m) / 2)
        R = np.diag(r)
        for i in range(1, m):
            for j in range(i):
                R[j, i] = 0.49 * r[j] * (-1) ** ((i + j + 1) * alternating)
        bound = min(float(x @ x) for x in R.T)
        widths = math.sqrt(bound) * np.linalg.norm(np.linalg.inv(R), axis=1)
        assert 2.0 < widths.max() < (7.0 if alternating else 2.01)
        unresolved, enumerated, cold = record_fallback(monkeypatch)
        coords, norms, _ = batch_search(R[None])
        assert unresolved == cold == [] and len(enumerated) == 1
        if alternating:
            assert tuple(coords[0]) == (3, -2, 1, -1, 1, -1)
        assert_equals_lll_shortest(R[None], coords, norms)

    @pytest.mark.parametrize("snr_db", [600.0, 1500.0, 2000.0])
    def test_transforms_past_2_53_leave_the_batch(self, snr_db, monkeypatch):
        # Ring lattices so skewed that an earlier batch LLL's transforms
        # could outgrow the integers a double holds.  The odd-even batch
        # finishes them exactly, its transforms below 2^32 and its rounding
        # within what svp._ROUNDING assumes, but the rounding guard sends
        # every one to the single call, and every basis gets
        # shortest_vector's answer.  An earlier kernel without a hand-over
        # gave trials 4, 7 and 20 at 600 dB other coordinates.
        bases = sweep_bases(5, 2, (snr_db,), 21, seed=1)
        assert_lll_batch_contract(bases)
        T = _lll_batch(_finite_column_batch(bases)[0])[1]
        assert np.abs(T).max() < 2**32
        *_, cold = record_fallback(monkeypatch)
        batch_search(bases)
        assert cold == [bits(B) for B in bases]
        monkeypatch.undo()
        assert_batch_equals_single(bases)


# (d, SNR dB, trial) of the sweep's 0-300 dB ring check, sample_channels(1,
# t, 2, 2), on which the batch's certificates without the rounding guard
# (_ROUNDING = 0) take other coordinates than shortest_vector: all at max_j
# P||h_j||^2 >= 10^25.6
UNGUARDED_WRONG = (
    (3, 260, 60), (3, 290, 50), (3, 290, 53), (3, 300, 23), (3, 300, 68),
    (3, 300, 72), (5, 280, 87), (5, 290, 4), (5, 290, 63), (5, 300, 4),
    (5, 300, 30), (5, 300, 36), (5, 300, 49), (5, 300, 58), (5, 300, 61),
    (5, 300, 72), (5, 300, 93), (5, 300, 95), (7, 250, 88), (7, 280, 72),
    (7, 300, 94),
)


def ring_basis(d, snr_db, t):
    ch = BlockFadingChannel(sample_channels(1, t, 2, 2), 10.0 ** (snr_db / 10.0))
    return build_search_basis(make_quadratic_field(d), ch)


class TestRoundingGuard:
    def test_guard_keeps_single_call_answers(self, monkeypatch):
        bases = np.array([ring_basis(*item) for item in UNGUARDED_WRONG])
        assert_batch_equals_single(bases)
        monkeypatch.setattr(svp, "_ROUNDING", 0.0)
        coords = batch_search(bases)[0]
        for B, c in zip(bases, coords):
            assert tuple(c) != tuple(shortest_vector(B).coords)

    def test_certified_just_inside_the_guard(self, monkeypatch):
        # at 250 dB the batch's rounding bound is 8 eps = 0.967 on this
        # basis, just inside the guard 8 eps < 1: the batch certifies its
        # answer, and with twice the bound the single call runs
        B = ring_basis(3, 250, 58)
        *_, cold = record_fallback(monkeypatch)
        coords, norms, _ = batch_search(B[None])
        assert cold == []
        assert_equals_lll_shortest(B[None], coords, norms)
        monkeypatch.setattr(svp, "_ROUNDING", 2.0 * svp._ROUNDING)
        batch_search(B[None])
        assert cold == [bits(B)]


def test_widened_tie_window_keeps_earlier_candidates():
    # R's columns b_1 = (1, 0) and b_2 = (0.4, s) with |b_2|^2 = 0.9: from
    # the radius 2 the walk meets +-b_1 first, then the shorter +-b_2.  The
    # window widened to 1.2 keeps +-b_1, as 1 <= 0.9 * 1.2; the default
    # window, as the single call uses it, holds +-b_2 alone
    R = [[1.0, 0.4], [0.0, math.sqrt(0.74)]]
    wide = _enumerate(R, 2.0, tie=1.2)[0]
    assert sorted(tuple(z) for _, z in wide) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    narrow = _enumerate(R, 2.0)[0]
    assert sorted(tuple(z) for _, z in narrow) == [(0, -1), (0, 1)]


def test_search_does_not_use_builtin_sum(monkeypatch):
    # builtin sum of floats is compensated from Python 3.12, so its bits
    # depend on the interpreter; the enumeration centres, the box search's,
    # minkowski_bound's and the union bound's are summed left to right
    # instead, from 0.0 as Python 3.11's sum does, and so is the channel's
    # overflow check of P||h_j||^2
    ch = random_channel(np.random.default_rng(13), L=3)
    B = build_search_basis(F5, ch)
    lat = _build(F5, prime_above(F5, 11), REPEAT_CODE)
    # sweep bases at L = 2 and 3, most of those not skipped box-searched
    batch = [sweep_bases(5, L, (0.0, 20.0, 40.0), 10) for L in (2, 3)]

    def searches():
        return (
            shortest_vector(B),
            minkowski_bound(B),
            union_bound(lat, (0.7, 0.4), 3.0),
            [batch_search(bases)[:2] for bases in batch],
            BlockFadingChannel(ch.h, ch.P).h.tobytes(),
        )

    want = searches()

    def no_sum(*args):
        raise AssertionError("builtin sum called")

    monkeypatch.setattr(channel, "sum", no_sum, raising=False)
    monkeypatch.setattr(svp, "sum", no_sum, raising=False)
    monkeypatch.setattr(box_oracle, "sum", no_sum, raising=False)
    monkeypatch.setattr(codec, "sum", no_sum, raising=False)
    got = searches()
    for (c, n), (c0, n0) in zip(got[3], want[3]):
        assert bits(c) == bits(c0) and bits(n) == bits(n0)
    assert tuple(got[0].coords) == tuple(want[0].coords)
    assert got[0].norm_sq.hex() == want[0].norm_sq.hex()
    assert got[1].hex() == want[1].hex()
    assert got[2].value.hex() == want[2].value.hex()
    assert got[2].terms == want[2].terms > 1
    assert got[4] == want[4]


def bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def assert_equals_lll_shortest(bases, coords, norms):
    """The coordinates and norms of _shortest_batch(bases) are those of
    _lll_shortest on each basis, bit for bit."""
    for B, c, norm_sq in zip(bases, coords, norms):
        want = _lll_shortest(B.T.tolist())
        assert tuple(c) == tuple(want.coords)
        assert norm_sq.hex() == want.norm_sq.hex()


def record_fallback(monkeypatch):
    """Spies on the batch search: returns (unresolved, enumerated, cold),
    lists that fill, in call order, with the bits of each transform T whose
    basis _box_shortest left unresolved, of each factor R (as an array) that
    _lll_chunk enumerated with a widened tie window, and of each basis (as a
    (dim, k) array) that _shortest_batch's queue handed to _lll_shortest."""
    unresolved, enumerated, cold = [], [], []
    real_box, real_enum, real_cold = svp._box_shortest, svp._enumerate, svp._lll_shortest

    def box(R, T, bound, tie):
        found, coords = real_box(R, T, bound, tie)
        unresolved.extend(bits(T[..., i]) for i in np.flatnonzero(~found))
        return found, coords

    def enum(R, bound_sq, target=None, tie=None):
        if tie is not None:
            enumerated.append(bits(np.array(R)))
        return real_enum(R, bound_sq, target, tie)

    def single(cols):
        cold.append(bits(np.array(cols).T))
        return real_cold(cols)

    monkeypatch.setattr(svp, "_box_shortest", box)
    monkeypatch.setattr(svp, "_enumerate", enum)
    monkeypatch.setattr(svp, "_lll_shortest", single)
    return unresolved, enumerated, cold


def assert_batch_equals_single(bases):
    """_shortest_batch gives each basis the coordinates and norm_sq bits of
    shortest_vector: the batch LLL with its certificates and single calls
    against the scalar LLL and enumeration."""
    bases = np.array(bases, dtype=float)
    coords, norms, errors = batch_search(bases)
    assert errors == {}
    for B, c, norm_sq in zip(bases, coords, norms):
        want = shortest_vector(B)
        assert tuple(c) == tuple(want.coords)
        assert norm_sq.hex() == want.norm_sq.hex()


def assert_batch_raises_as_single(bases):
    """The first error _shortest_batch records is the RankDeficient that the
    first failing call of a loop of shortest_vector calls raises, each
    error it records is shortest_vector's on that basis, and the bases
    before the first error have shortest_vector's answers."""
    with pytest.raises(RankDeficient) as single:
        for B in bases:
            shortest_vector(B)
    coords, norms, errors = batch_search(bases)
    first = min(errors)
    assert_same_error(errors[first], single.value)
    for i, exc in errors.items():
        assert_same_error(exc, single_error(shortest_vector, bases[i]))
    assert_equals_lll_shortest(np.array(bases[:first], dtype=float), coords, norms)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_padded_block_roots_equal_best_integer_block(L):
    # naive_Z's (L, L) block roots, padded with zero rows to the (2L, L)
    # shape of am_Z's bases, share one batch with them: the answers are
    # best_integer_block's and shortest_vector's, bit for bit, 0-300 dB
    h = np.array([sample_channels(61, t, 2, L) for t in range(12)])
    for snr_db in range(0, 310, 20):
        P = 10.0 ** (snr_db / 10.0)
        roots = np.concatenate([_gram_sqrt(h[:, j], P) for j in range(2)])
        coords, norms, _ = batch_search(np.concatenate([roots, np.zeros_like(roots)], axis=1))
        blocks = [best_integer_block(x[j], P) for j in range(2) for x in h]
        assert [tuple(c) for c in coords] == [a for a, _ in blocks]
        assert [x.hex() for x in norms] == [f.hex() for _, f in blocks]
        errors = {}
        rank = np.arange(36).reshape(3, 12)
        joint = svp._search_coords([], [None, 0, 1], h, P, (None, rank), errors)[1]
        assert errors == {}
        chans = [BlockFadingChannel(x, P) for x in h]
        want = [shortest_vector(build_search_basis(None, ch)).coords for ch in chans]
        assert bits(joint[0]) == bits(want)
        assert bits(joint[1:].reshape(-1, L)) == bits(coords)


def test_padded_block_roots_raise_as_best_integer_block():
    # at 400 dB some block roots are numerically rank deficient: padded,
    # they raise the RankDeficient a loop of best_integer_block calls over
    # the same blocks raises first
    h = np.array([sample_channels(47, t, 2, 2) for t in range(60)])
    P = 10.0**40.0
    roots = np.concatenate([_gram_sqrt(h[:, j], P) for j in range(2)])
    with pytest.raises(RankDeficient) as single:
        for j in range(2):
            for x in h:
                best_integer_block(x[j], P)
    errors = batch_search(np.concatenate([roots, np.zeros_like(roots)], axis=1))[2]
    assert_same_error(errors[min(errors)], single.value)


@pytest.mark.parametrize("L", [2, 3])
def test_naive_batch_equals_single_calls(L):
    h = np.array([sample_channels(47, t, 2, L) for t in range(60 if L == 2 else 15)])
    for snr_db in (0.0, 30.0, 100.0, 200.0, 400.0):
        P = 10.0 ** (snr_db / 10.0)
        if snr_db == 400.0:
            # some per-block bases are numerically rank deficient
            with pytest.raises(RankDeficient) as single:
                for x in h:
                    naive_rate(BlockFadingChannel(x, P))
            errors = naive_batch(h, P)[1]
            assert_same_error(errors[min(errors)], single.value)
            continue
        want = [naive_rate(BlockFadingChannel(x, P))[2] for x in h]
        rates, errors = naive_batch(h, P)
        assert bits(rates) == bits(want) and errors == {}


def test_rate_pass_errors_equal_single_calls():
    # The rate passes record each item's error as its single call raises
    # it, message and all: am_rate's noise identity at 3000 dB (every
    # search succeeds for seed 3) and its ZeroCoefficient for a zero vector
    # of am_Z, and the ValueError of naive_rate's block rate for block
    # coordinates of 0, whose quadratic form is 0.0
    h = np.array([sample_channels(3, t, 2, 2) for t in range(20)])
    fields, P = [F3, F5, None], 10.0**300.0
    chans = [BlockFadingChannel(x, P) for x in h]
    coords = [
        np.array([shortest_vector(build_search_basis(f, ch)).coords for ch in chans], dtype=float)
        for f in fields
    ]
    coords[2][4] = 0.0
    rank, errors = np.arange(60).reshape(3, 20), {}
    with np.errstate(over="ignore", invalid="ignore"):  # as in run_sweep
        rates = svp._am_rates(fields, h, P, coords, rank, errors)
    assert len(errors) > 1
    for k, field in enumerate(fields):
        for t, ch in enumerate(chans):
            a = svp._coords_to_coefficients(field, coords[k][t], 2)
            try:
                want = am_rate(ch, a, field).rate_bits
            except ValueError as exc:
                assert_same_error(errors[rank[k, t]], exc)
            else:
                assert rank[k, t] not in errors and rates[k, t].hex() == want.hex()
    P = 1e3
    blocks = np.array([[best_integer_block(x[j], P)[0] for x in h] for j in range(2)], dtype=float)
    blocks[1, 7] = 0.0
    errors = {}
    svp._naive_rates(h, P, blocks, rank[:2], errors)
    assert list(errors) == [27]
    with pytest.raises(ValueError) as single:
        _rate_from_quad_form(1, _block_terms(h[7, 1].tolist(), [0.0, 0.0], P)[0])
    assert_same_error(errors[27], single.value)


def naive_batch(h, P):
    """The sweep's naive_Z search and rate passes on the channels h at the
    SNR P, ranked as a loop of naive_rate calls (block j of item i searched
    at rank 2 (n i + j), its rate next): (rates, errors by rank)."""
    size, n, _ = h.shape
    rank = 2 * (n * np.arange(size) + np.arange(n)[:, None])
    errors = {}
    coords = svp._search_coords([], list(range(n)), h, P, (None, rank), errors)[1]
    return _naive_rates(h, P, coords, rank + 1, errors), errors


class TestNodeBudget:
    def test_error_names_dimension_and_snr(self, monkeypatch):
        # the shortest-vector enumeration stops past _NODE_BUDGET nodes; an
        # entry point that knows the SNR names it, the basis search does not
        monkeypatch.setattr(svp, "_NODE_BUDGET", 5)
        h = sample_channels(3, 0, 2, 3)
        ch = BlockFadingChannel(h, 1e3)
        with pytest.raises(SearchTooLarge, match="dimension 6 at 30 dB needs more than 5 "):
            best_equation(F5, ch)
        with pytest.raises(SearchTooLarge, match="dimension 3 at 30 dB needs more than 5 "):
            best_integer_block(h[0], 1e3)
        with pytest.raises(SearchTooLarge, match="search in dimension 6 needs more than 5 "):
            shortest_vector(build_search_basis(F5, ch))
        # 8-D bases take no box search, so the sweep enumerates the ones it
        # does not skip
        cfg = SweepConfig(L=4, snr_db=(30.0,), trials=3, schemes=("am_ring(5)",))
        with pytest.raises(SearchTooLarge, match="dimension 8 at 30 dB needs more than 5 "):
            run_sweep(cfg)

    def test_codec_walk_is_not_bounded(self, monkeypatch):
        # the union bound's closest-point walk lists every point of its disc
        lat = _build(F5, prime_above(F5, 11), REPEAT_CODE)
        want = union_bound(lat, (0.5, 0.5), 3.0)
        monkeypatch.setattr(svp, "_NODE_BUDGET", 1)
        assert union_bound(lat, (0.5, 0.5), 3.0) == want
        assert want.terms > 1


class TestBruteForce:
    def test_golden_example(self):
        B = build_search_basis(F5, zero_channel(2, 1))
        res = brute_force_shortest(B, 3)
        assert res.norm_sq == pytest.approx(2.0)
        assert tuple(res.coords) == (1, 0)

    def test_empty_box(self):
        B = build_search_basis(F5, zero_channel(2, 1))
        with pytest.raises(TooLarge):
            brute_force_shortest(B, 0)

    def test_budget_guard(self):
        B = np.eye(12)
        with pytest.raises(TooLarge):
            brute_force_shortest(B, 10)

    def test_box_minimum_bounds_svp(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ch = random_channel(rng)
            B = build_search_basis(F3, ch)
            assert brute_force_shortest(B, 2).norm_sq >= shortest_vector(
                B
            ).norm_sq * (1 - 1e-9)


class TestMinkowski:
    def test_identity_dim4(self):
        B = np.eye(4)
        assert minkowski_bound(B) == pytest.approx(2.0)
        assert shortest_vector(B).norm_sq == pytest.approx(1.0)

    def test_golden_l2(self):
        B = build_search_basis(F5, zero_channel(2, 2))
        assert minkowski_bound(B) == pytest.approx(2 * 5**0.25, rel=1e-9)
        assert math.sqrt(shortest_vector(B).norm_sq) < minkowski_bound(B)

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_scaled_identity_dim3(self, scale):
        # the Gram determinant scale^6 overflows (1e600) or underflows
        # (1e-600) a float; the Gram-Schmidt lengths do not
        B = scale * np.eye(3)
        assert minkowski_bound(B) == pytest.approx(math.sqrt(3) * scale, rel=1e-12)
        assert math.sqrt(shortest_vector(B).norm_sq) == pytest.approx(scale, rel=1e-12)


class TestBestEquation:
    def test_matched_channel(self):
        ch = BlockFadingChannel(np.array([[1.0, 0.0], [1.0, 0.0]]), 10.0)
        cand = best_equation(F5, ch)
        assert cand.a[0] == RingElement(1, 0)
        assert cand.a[1] == RingElement(0, 0)
        assert cand.rate_bits == pytest.approx(math.log2(11), rel=1e-12)

    def test_zero_channel_zero_rate(self):
        cand = best_equation(F5, zero_channel(2, 2))
        assert cand.rate_bits == 0.0

    def test_ring_dominates_integers_per_instance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ch = random_channel(rng)
            ring = best_equation(F5, ch)
            integer = best_equation(None, ch)
            assert ring.rate_bits >= integer.rate_bits

    def test_integer_block_solver(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            h = rng.standard_normal(2)
            P = float(10 ** rng.uniform(0, 3))
            a, f = best_integer_block(h, P)
            best = min(
                float(np.array([a1, a2]) @ gram_matrix(h, P) @ np.array([a1, a2]))
                for a1 in range(-8, 9)
                for a2 in range(-8, 9)
                if (a1, a2) != (0, 0)
            )
            assert f == pytest.approx(best, rel=1e-9)


class TestScalingCovariance:
    def test_norm_scales_argmin_fixed(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ch = random_channel(rng)
            B = build_search_basis(F5, ch)
            base = shortest_vector(B)
            for s in (0.25, 3.0):
                scaled = shortest_vector(s * B)
                assert scaled.norm_sq == pytest.approx(
                    s * s * base.norm_sq, rel=1e-9
                )
                assert tuple(scaled.coords) == tuple(base.coords)


def fraction_rank(vectors) -> int:
    """Reference rank over Q: Gaussian elimination in exact fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestEchelon:
    def test_rank_matches_fraction_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(3000):
            m, width = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            gens = rng.integers(-3, 4, size=(m, width)).tolist()
            basis = _hnf_column_basis(gens, width)
            assert len(basis) == fraction_rank(gens), gens
            pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
            assert pivots == sorted(set(pivots))
            assert all(b[i] > 0 for b, i in zip(basis, pivots))
            # every generator is an integer combination of the basis
            for g in gens:
                for b, i in zip(basis, pivots):
                    c, rem = divmod(g[i], b[i])
                    assert rem == 0, (gens, basis)
                    g = [x - c * y for x, y in zip(g, b)]
                assert not any(g)

    def test_pivot_product_is_the_determinant(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            gens = rng.integers(-5, 6, size=(k, k))
            basis = _hnf_column_basis(gens.tolist(), k)
            det = abs(round(np.linalg.det(gens)))
            if det == 0:
                assert len(basis) < k
            else:
                assert math.prod(b[i] for i, b in enumerate(basis)) == det


def _triangular(G):
    """Q, R of G with a positive diagonal of R."""
    q, r = np.linalg.qr(G)
    signs = np.sign(np.diag(r))
    return q * signs, (r.T * signs).T


class TestEnumerateTarget:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_box_search(self, k):
        """Closest-point mode against the independent box: the same point
        set, away from the boundary where the two tolerances differ."""
        rng = np.random.default_rng(900 + k)
        origin_seen = 0
        for _ in range(25):
            G = np.eye(k) + 0.4 * rng.standard_normal((k, k))
            q, r = _triangular(G)
            offset = rng.standard_normal(k) * rng.choice([0.2, 2.0, 20.0])
            budget = float(rng.uniform(0.5, 4.0)) * abs(np.linalg.det(G)) ** (2 / k)
            cands, _ = _enumerate(r.tolist(), budget, target=q.T @ -offset)
            got = {tuple(z) for _, z in cands}
            near = box_points(G, offset, budget * 1.01)
            tied = {z for z, _, n2 in near if abs(n2 - budget) <= 1e-6 * budget}
            want = {z for z, _, n2 in near if n2 <= budget} - tied
            assert got - tied == want
            assert len(got) == len(cands)
            origin_seen += (0,) * k in want
            assert ((0,) * k in got) == (float(offset @ offset) <= budget)
        assert origin_seen

    def test_zero_target_adds_only_the_origin(self):
        # the closest-point search around the origin returns the nonzero
        # vectors in the radius (the box's, away from its boundary) and the
        # origin, which the shortest-vector search never emits
        G = np.array([[2.0, 0.7, -0.4], [0.0, 1.6, 0.9], [0.3, -0.2, 1.8]])
        _, r = _triangular(G)
        budget = 9.0
        centred, _ = _enumerate(r.tolist(), budget, target=[0.0] * 3)
        got = {tuple(z) for _, z in centred}
        near = box_points(G, np.zeros(3), budget * 1.01)
        tied = {z for z, _, n2 in near if abs(n2 - budget) <= 1e-6 * budget}
        nonzero = {z for z, _, n2 in near if n2 <= budget and any(z)} - tied
        assert len(nonzero) > 10
        assert got - tied == nonzero | {(0, 0, 0)}
        assert all(any(z) for _, z in _enumerate(r.tolist(), budget)[0])


class TestGramSqrt:
    def test_closed_form_square_root(self):
        rng = np.random.default_rng(12)
        for snr_db in range(0, 130, 10):
            P = 10.0 ** (snr_db / 10.0)
            h = rng.standard_normal((3, 2))
            h[2] = 0.0  # the zero channel needs no special case
            for hj, R in zip(h, _gram_sqrt(h, P)):
                assert np.array_equal(R, R.T)
                assert np.allclose(R @ R, gram_matrix(hj, P), rtol=0, atol=1e-13)
                g = 1.0 + P * float(hj @ hj)
                assert np.linalg.det(R) == pytest.approx(g**-0.5, rel=1e-9)
