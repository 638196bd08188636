import math
import time

import numpy as np
import pytest

from cflat.channel import coefficient_embeddings
from cflat.numfield import (
    MAX_D,
    MAX_P,
    NotPrime,
    NotSquarefree,
    OutOfRange,
    Ramified,
    RingElement,
    make_quadratic_field,
    prime_above,
    residue_reduce,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def conjugates(field, a: RingElement) -> tuple[float, float]:
    """(sigma_1(a), sigma_2(a)) as the rate kernels embed a coefficient."""
    return tuple(coefficient_embeddings([a], field, 2)[:, 0].tolist())


def ring_mul(field, a: RingElement, b: RingElement) -> RingElement:
    """Exact product in the ring of integers using theta^2 = s*theta + t."""
    return RingElement(
        a.u * b.u + field.t * a.v * b.v,
        a.u * b.v + a.v * b.u + field.s * a.v * b.v,
    )


class TestMakeField:
    def test_d5(self):
        F = make_quadratic_field(5)
        assert F.theta[0] == pytest.approx(GOLDEN)
        assert F.theta[1] == pytest.approx(1 - GOLDEN)
        assert F.discriminant == 5
        assert F.basis_labels == ("1", "(1+sqrt(5))/2")
        assert (F.s, F.t) == (1, 1)

    def test_d3(self):
        F = make_quadratic_field(3)
        assert F.theta[0] == pytest.approx(math.sqrt(3))
        assert F.discriminant == 12
        assert (F.s, F.t) == (0, 3)
        assert np.linalg.det(F.embedding) ** 2 == pytest.approx(12, rel=1e-10)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            make_quadratic_field(4)
        with pytest.raises(NotSquarefree):
            make_quadratic_field(12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_quadratic_field(1)
        with pytest.raises(OutOfRange):
            make_quadratic_field(-5)

    def test_d_limit(self):
        assert MAX_D == 10**12
        with pytest.raises(NotSquarefree):  # answered at the limit, not refused
            make_quadratic_field(MAX_D)
        start = time.perf_counter()
        F = make_quadratic_field(999_999_999_989)  # largest prime <= MAX_D
        assert time.perf_counter() - start < 1.0
        assert F.discriminant == 999_999_999_989
        with pytest.raises(OutOfRange):
            make_quadratic_field(MAX_D + 1)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 11, 13])
    def test_embedding_determinant(self, d):
        F = make_quadratic_field(d)
        assert np.linalg.det(F.embedding) ** 2 == pytest.approx(
            F.discriminant, rel=1e-10
        )
        assert F.theta[0] > F.theta[1]


class TestEmbed:
    def test_theta_d5(self):
        F = make_quadratic_field(5)
        conj = conjugates(F, RingElement(0, 1))
        assert conj[0] == pytest.approx(1.6180339887, rel=1e-9)
        assert conj[1] == pytest.approx(-0.6180339887, rel=1e-9)
        # theta * theta' = (1 - 5) / 4
        assert conj[0] * conj[1] == pytest.approx(-1.0, rel=1e-12)

    def test_unity(self):
        F = make_quadratic_field(5)
        assert conjugates(F, RingElement(1, 0)) == (1.0, 1.0)

    def test_unit_norm(self):
        # (2 - theta)(2 - theta') = 4 - 2*Tr(theta) + Nr(theta)
        conj = conjugates(make_quadratic_field(5), RingElement(2, -1))
        assert conj[0] * conj[1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_norm_matches_conjugate_product(self, d):
        # the norm u^2 + s*u*v - t*v^2 from the multiplication rule
        F = make_quadratic_field(d)
        rng = np.random.default_rng(d)
        for _ in range(200):
            u, v = int(rng.integers(-50, 51)), int(rng.integers(-50, 51))
            conj = conjugates(F, RingElement(u, v))
            norm = u * u + F.s * u * v - F.t * v * v
            assert conj[0] * conj[1] == pytest.approx(norm, rel=1e-9, abs=1e-9)


class TestRingMul:
    def test_theta_squared_d5(self):
        F = make_quadratic_field(5)
        assert ring_mul(F, RingElement(0, 1), RingElement(0, 1)) == RingElement(1, 1)

    def test_identity(self):
        F = make_quadratic_field(5)
        a = RingElement(7, -3)
        assert ring_mul(F, RingElement(1, 0), a) == a

    def test_theta_squared_d3(self):
        F = make_quadratic_field(3)
        assert ring_mul(F, RingElement(0, 1), RingElement(0, 1)) == RingElement(3, 0)

    @pytest.mark.parametrize("d", [2, 5, 7, 13])
    def test_embedding_homomorphism(self, d):
        F = make_quadratic_field(d)
        rng = np.random.default_rng(100 + d)
        for _ in range(250):
            a = RingElement(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
            b = RingElement(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
            prod = ring_mul(F, a, b)
            ca, cb, cp = conjugates(F, a), conjugates(F, b), conjugates(F, prod)
            for j in range(2):
                assert cp[j] == pytest.approx(ca[j] * cb[j], rel=1e-9, abs=1e-9)


class TestPrimeAbove:
    def test_split_11(self):
        F = make_quadratic_field(5)
        P = prime_above(F, 11)
        assert (P.r, P.c) == (1, 4)
        assert (4 * 4 - 4 - 1) % 11 == 0

    def test_inert_2(self):
        F = make_quadratic_field(5)
        P = prime_above(F, 2)
        assert P.r == 2 and P.c is None

    def test_ramified(self):
        F = make_quadratic_field(5)
        with pytest.raises(Ramified):
            prime_above(F, 5)
        with pytest.raises(Ramified):
            prime_above(make_quadratic_field(3), 2)  # 2 | 12

    def test_not_prime(self):
        F = make_quadratic_field(5)
        with pytest.raises(NotPrime):
            prime_above(F, 9)
        with pytest.raises(NotPrime):
            prime_above(F, 1)

    def test_p_limit(self):
        assert MAX_P == 10**6
        F = make_quadratic_field(5)
        with pytest.raises(NotPrime):  # answered at the limit, not refused
            prime_above(F, MAX_P)
        # the largest prime <= MAX_P: inert over d = 5, so every residue is
        # scanned for a root, and split over the largest prime d <= MAX_D
        for d, r in ((5, 2), (999_999_999_989, 1)):
            G = make_quadratic_field(d)
            start = time.perf_counter()
            P = prime_above(G, 999_983)
            assert time.perf_counter() - start < 1.0
            assert (P.p, P.r) == (999_983, r)
        for p in (MAX_P + 1, 1_000_003):  # composite, and the next prime
            with pytest.raises(OutOfRange):
                prime_above(F, p)

    def test_smallest_root_chosen(self):
        F = make_quadratic_field(5)
        P = prime_above(F, 11)
        roots = [x for x in range(11) if (x * x - x - 1) % 11 == 0]
        assert P.c == min(roots)


class TestResidue:
    def test_examples(self):
        F = make_quadratic_field(5)
        P = prime_above(F, 11)
        assert residue_reduce(P, RingElement(0, 1)) == 4
        assert residue_reduce(P, RingElement(11, 0)) == 0
        assert residue_reduce(P, RingElement(1, 7)) == 7  # (1 + 28) mod 11

    @pytest.mark.parametrize(
        "d,p",
        [(5, 11), (5, 13), (5, 2), (5, 3), (3, 5), (3, 13), (2, 7)],
    )
    def test_ring_homomorphism_exhaustive(self, d, p):
        """Additivity and multiplicativity over all coordinate pairs in
        [-p, p]^2, vectorized."""
        F = make_quadratic_field(d)
        P = prime_above(F, p)
        Fq = P.residue_field
        span = np.arange(-p, p + 1, dtype=np.int64)
        u, v = np.meshgrid(span, span, indexing="ij")
        u, v = u.ravel(), v.ravel()

        def enc(uu, vv):
            if P.r == 1:
                return (uu + P.c * vv) % p
            return uu % p + p * (vv % p)

        e = enc(u, v)
        # spot-check the encoding against residue_reduce itself
        for idx in np.random.default_rng(0).integers(0, len(u), 20):
            assert e[idx] == residue_reduce(P, RingElement(int(u[idx]), int(v[idx])))

        # additive over all pairs
        ua, ub = u[:, None], u[None, :]
        va, vb = v[:, None], v[None, :]
        assert np.array_equal(enc(ua + ub, va + vb), Fq.add(e[:, None], e[None, :]))

        # multiplicative over all pairs: exact ring product coordinates
        pu = ua * ub + F.t * va * vb
        pv = ua * vb + va * ub + F.s * va * vb
        lhs = enc(pu, pv)
        if P.r == 1:
            rhs = (e[:, None] * e[None, :]) % p
        else:
            a0, a1 = e[:, None] % p, e[:, None] // p
            b0, b1 = e[None, :] % p, e[None, :] // p
            rhs = (a0 * b0 + (F.t % p) * a1 * b1) % p + p * (
                (a0 * b1 + a1 * b0 + (F.s % p) * a1 * b1) % p
            )
        assert np.array_equal(lhs, rhs)

    @pytest.mark.parametrize("p", [11, 13])  # split, inert over Q(sqrt(5))
    def test_array_arithmetic_matches_scalar(self, p):
        Fq = prime_above(make_quadratic_field(5), p).residue_field
        rng = np.random.default_rng(p)
        x = rng.integers(0, Fq.q, size=(40, 3), dtype=np.int64)
        y = rng.integers(0, Fq.q, size=(40, 3), dtype=np.int64)
        total = Fq.add(x, y)
        assert total.dtype == np.int64
        assert total.tolist() == [
            [Fq.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(x.tolist(), y.tolist())
        ]
        for g in (0, 1, Fq.q - 1, int(rng.integers(Fq.q))):
            scaled = Fq.mul(g, x)
            assert scaled.dtype == np.int64
            assert scaled.tolist() == [[Fq.mul(g, a) for a in row] for row in x.tolist()]

    def test_zero_iff_ideal_member(self):
        F = make_quadratic_field(5)
        P = prime_above(F, 11)
        for u in range(-11, 12):
            for v in range(-11, 12):
                member = (u + P.c * v) % 11 == 0
                assert (residue_reduce(P, RingElement(u, v)) == 0) == member

    def test_residue_field_inverse(self):
        # mul makes F_q a field: each nonzero element has exactly one inverse
        F = make_quadratic_field(5)
        for p in (2, 3, 13):
            Fq = prime_above(F, p).residue_field
            for x in range(1, Fq.q):
                assert [Fq.mul(x, y) for y in range(Fq.q)].count(1) == 1

    def test_leader_roundtrip(self):
        F = make_quadratic_field(5)
        for p in (2, 11):
            P = prime_above(F, p)
            for x in range(P.residue_field.q):
                el = P.leader(x)
                assert 0 <= el.u < p and 0 <= el.v < p
                assert residue_reduce(P, el) == x
