"""Desk-scale Construction A codec over a prime ideal.

A nested pair of linear codes over the residue field F_{p^r} is lifted to the
ring of integers coordinate-wise, tiled by the ideal, and embedded into real
space by the canonical embedding.  The module covers encoding with dithered
parallelepiped shaping, ring-linear combining of codewords, exact
fine-lattice decoding of equations, block-wise product distances, and the
union bound on the decoding error probability with a Monte Carlo counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BlockFadingChannel, EquationCandidate
from .numfield import NumberField, PrimeIdeal, ResidueField, RingElement, residue_reduce

__all__ = [
    "DimensionMismatch",
    "RankDeficientCode",
    "RadiusTooSmall",
    "DeskScaleExceeded",
    "NestedCodePair",
    "ConstructionALattice",
    "UnionBoundResult",
    "DecodeResult",
    "SimResult",
    "build_construction_a",
    "encode",
    "sample_dither",
    "reduce_mod_coarse",
    "ring_combine",
    "lattice_membership",
    "product_distance",
    "map_message",
    "decode_equation",
    "enumerate_fine_vectors",
    "union_bound",
    "simulate_codec",
]

MAX_COSET_LEADERS = 4096
_POWER_SAMPLES = 100_000
_POWER_SEED = 20260314
_SIM_BATCH = 4096
# second-coordinate offsets from the Babai rounding: exhaustive for a
# Gauss-reduced 2D basis
_BABAI_WINDOW = np.array([[-1.0], [0.0], [1.0]])


class DimensionMismatch(ValueError):
    """Code, prime and field shapes do not line up."""


class RankDeficientCode(ValueError):
    """Fine-code generator does not have full column rank."""


class RadiusTooSmall(ValueError):
    """No lattice point inside the enumeration radius."""


class DeskScaleExceeded(ValueError):
    """Configuration too large for exact coset-leader decoding."""


@dataclass(frozen=True)
class NestedCodePair:
    """Nested linear codes over F_{p^r}: the coarse generator is the first
    l_c columns of the fine one, so nesting holds by construction.

    G_f is stored row-wise (T rows of l_f integer-encoded entries).
    """

    p: int
    r: int
    T: int
    l_f: int
    l_c: int
    G_f: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def G_c(self) -> tuple[tuple[int, ...], ...]:
        return tuple(row[: self.l_c] for row in self.G_f)


class UnionBoundResult(NamedTuple):
    value: float
    terms: int


class DecodeResult(NamedTuple):
    coset: tuple[int, ...]  # canonical fine-code residues of the decoded class
    message: tuple[int, ...]


class SimResult(NamedTuple):
    error_rate: float
    stderr: float
    errors: int
    trials: int


# ---------------------------------------------------------------------------
# residue-field linear algebra (desk scale, dense)


def _fq_codeword(Fq: ResidueField, G_rows, w) -> list[int]:
    out = []
    for row in G_rows:
        acc = 0
        for g, x in zip(row, w):
            acc = Fq.add(acc, Fq.mul(g, x))
        out.append(acc)
    return out


def _fq_gauss_jordan(Fq: ResidueField, G_rows, c) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination of the augmented rows [G | c] over F_q.

    Returns the reduced rows and the pivot columns of G; the rank of G is the
    number of pivots."""
    T = len(G_rows)
    ncols = len(G_rows[0]) if T and G_rows[0] else 0
    rows = [list(G_rows[i]) + [c[i]] for i in range(T)]
    piv_cols = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, T) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fq.inv(rows[rank][col])
        rows[rank] = [Fq.mul(inv, x) for x in rows[rank]]
        for r in range(T):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [Fq.sub(x, Fq.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        piv_cols.append(col)
        rank += 1
    return rows, piv_cols


def _fq_solve(Fq: ResidueField, G_rows, c) -> tuple[int, ...] | None:
    """Solve G w = c over F_q; None when c is outside the column span."""
    rows, piv_cols = _fq_gauss_jordan(Fq, G_rows, c)
    if any(row[-1] != 0 for row in rows[len(piv_cols) :]):
        return None
    w = [0] * (len(G_rows[0]) if G_rows and G_rows[0] else 0)
    for row, col in zip(rows, piv_cols):
        w[col] = row[-1]
    return tuple(w)


# ---------------------------------------------------------------------------
# exact integer lattice plumbing


def _hnf_column_basis(generators, dim: int) -> np.ndarray:
    """Square column basis of the integer lattice spanned by the generators,
    by exact pairwise Euclidean reduction row by row."""
    work = [[int(x) for x in g] for g in generators]
    basis = []
    for row in range(dim):
        live = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]), reverse=True)
            quot = live[0][row] // live[1][row]
            live[0] = [x - quot * y for x, y in zip(live[0], live[1])]
            if live[0][row] == 0:
                rest.append(live.pop(0))
        if not live:
            raise ValueError("generators do not span a full-rank lattice")
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
    return np.array(basis, dtype=np.int64).T


def _lagrange_reduce(columns: np.ndarray) -> np.ndarray:
    """Unimodular transform U making the 2D basis columns @ U Gauss-reduced."""
    U = np.eye(2, dtype=np.int64)
    b = columns.astype(float).copy()
    while True:
        if b[:, 0] @ b[:, 0] > b[:, 1] @ b[:, 1]:
            b = b[:, ::-1].copy()
            U = U[:, ::-1].copy()
        mu = round(float(b[:, 0] @ b[:, 1]) / float(b[:, 0] @ b[:, 0]))
        if mu == 0:
            break
        b[:, 1] -= mu * b[:, 0]
        U[:, 1] -= mu * U[:, 0]
    if b[:, 0] @ b[:, 0] > b[:, 1] @ b[:, 1]:
        U = U[:, ::-1].copy()
    return U


def _embedding_map(field: NumberField, T: int) -> np.ndarray:
    """nT x 2T matrix sending flat ring coordinates (u_i, v_i interleaved) to
    the flat block-major embedding (block j occupies entries j*T .. j*T+T-1)."""
    n = field.degree
    em = np.zeros((n * T, 2 * T))
    for i in range(T):
        em[np.arange(n) * T + i, 2 * i] = field.embedding[:, 0]
        em[np.arange(n) * T + i, 2 * i + 1] = field.embedding[:, 1]
    return em


# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConstructionALattice:
    """Fine/coarse Construction A lattice pair, embedded and power-scaled.

    Immutable after build; all derived arrays are precomputed so encoding,
    membership and decoding stay cheap.
    """

    field: NumberField
    prime: PrimeIdeal
    codes: NestedCodePair
    gamma: float
    T: int
    Fq: ResidueField
    coset_leaders: np.ndarray  # (K, T, 2) ring coordinates in [0, p)
    leader_residues: np.ndarray  # (K, T) encoded residues
    embedded_leaders: np.ndarray  # (K, n, T), gamma-scaled
    leader_in_coarse: np.ndarray  # (K,) bool
    fine_basis: np.ndarray  # (2T, 2T) integer columns
    coarse_basis: np.ndarray
    vol_fine_unit: float
    vol_coarse_unit: float
    region_scaled: np.ndarray  # (nT, nT) columns of the shaping parallelepiped
    region_inv: np.ndarray
    pideal_basis: np.ndarray  # (2, 2) reduced integer columns of the ideal
    pideal_embedded: np.ndarray  # (2, 2) gamma-scaled embedded ideal basis
    message_rate_bits: float
    _phi_inv: np.ndarray
    _cvp_q: np.ndarray
    _cvp_r: np.ndarray

    @property
    def n(self) -> int:
        return self.field.degree

    @property
    def K(self) -> int:
        return len(self.coset_leaders)

    def __repr__(self) -> str:
        c = self.codes
        return (
            f"ConstructionALattice(d={self.field.d}, p={self.prime.p}, r={self.prime.r}, "
            f"T={self.T}, l_f={c.l_f}, l_c={c.l_c}, gamma={self.gamma:.6g})"
        )


def _leader_index_digits(idx: int, q: int, length: int) -> tuple[int, ...]:
    return tuple((idx // q**k) % q for k in range(length))


def build_construction_a(
    field: NumberField,
    prime: PrimeIdeal,
    codes: NestedCodePair,
    target_power: float | None = None,
    gamma: float | None = None,
) -> ConstructionALattice:
    """Build the lattice pair and calibrate the embedding scale.

    With target_power given, gamma is set so the per-dimension second moment
    of the shaping region (Monte Carlo, fixed internal seed) equals the power
    budget; alternatively a gamma may be pinned directly.
    """
    if (target_power is None) == (gamma is None):
        raise ValueError("give exactly one of target_power or gamma")
    if prime.field is not field and prime.field.d != field.d:
        raise DimensionMismatch("prime ideal belongs to a different field")
    if codes.p != prime.p or codes.r != prime.r:
        raise DimensionMismatch(
            f"code field F_{codes.q} does not match the residue field of the prime"
        )
    T, l_f, l_c = codes.T, codes.l_f, codes.l_c
    if not (0 <= l_c <= l_f <= T):
        raise DimensionMismatch(f"need 0 <= l_c <= l_f <= T, got {l_c}, {l_f}, {T}")
    if len(codes.G_f) != T or any(len(row) != l_f for row in codes.G_f):
        raise DimensionMismatch("G_f must be T x l_f")
    Fq = prime.residue_field
    q = Fq.q
    if any(not (0 <= x < q) for row in codes.G_f for x in row):
        raise DimensionMismatch(f"G_f entries must be encoded residues in [0, {q})")
    if l_f > 0 and len(_fq_gauss_jordan(Fq, codes.G_f, [0] * T)[1]) != l_f:
        raise RankDeficientCode("fine generator must have full column rank")
    K = q**l_f
    if K > MAX_COSET_LEADERS:
        raise DeskScaleExceeded(
            f"{K} coset leaders exceed the exact-decoding limit {MAX_COSET_LEADERS}"
        )

    n = field.degree
    leaders = np.zeros((K, T, 2), dtype=np.int64)
    residues = np.zeros((K, T), dtype=np.int64)
    in_coarse = np.zeros(K, dtype=bool)
    for k in range(K):
        w = _leader_index_digits(k, q, l_f)
        cw = _fq_codeword(Fq, codes.G_f, w)
        residues[k] = cw
        in_coarse[k] = all(x == 0 for x in w[l_c:])
        for i, x in enumerate(cw):
            el = prime.leader(x)
            leaders[k, i] = (el.u, el.v)

    # integer bases: code-part lifts plus the ideal at every coordinate
    def lattice_generators(l: int):
        gens = []
        basis_elts = [1] if prime.r == 1 else [1, Fq.encode(0, 1)]
        for k in range(l):
            col = [codes.G_f[i][k] for i in range(T)]
            for be in basis_elts:
                scaled = [Fq.mul(be, x) for x in col]
                flat = np.zeros(2 * T, dtype=np.int64)
                for i, x in enumerate(scaled):
                    el = prime.leader(x)
                    flat[2 * i] = el.u
                    flat[2 * i + 1] = el.v
                gens.append(flat)
        ideal = prime.basis_matrix()
        for i in range(T):
            for kcol in range(2):
                flat = np.zeros(2 * T, dtype=np.int64)
                flat[2 * i] = ideal[0, kcol]
                flat[2 * i + 1] = ideal[1, kcol]
                gens.append(flat)
        return gens

    fine_basis = _hnf_column_basis(lattice_generators(l_f), 2 * T)
    coarse_basis = _hnf_column_basis(lattice_generators(l_c), 2 * T)

    em = _embedding_map(field, T)
    vol_fine = abs(float(np.linalg.det(em @ fine_basis)))
    vol_coarse = abs(float(np.linalg.det(em @ coarse_basis)))
    disc_half = field.discriminant ** (T / 2)
    expect_fine = prime.p ** ((T - l_f) * prime.r) * disc_half
    expect_coarse = prime.p ** ((T - l_c) * prime.r) * disc_half
    for got, want, name in (
        (vol_fine, expect_fine, "fine"),
        (vol_coarse, expect_coarse, "coarse"),
    ):
        if not math.isclose(got, want, rel_tol=1e-6):
            raise AssertionError(f"{name} lattice volume {got} != {want}")

    # shaping region: centered fundamental parallelepiped of the coarse lattice
    # (per-coordinate reduced ideal basis when the coarse code is trivial)
    ideal_cols = prime.basis_matrix()
    U = _lagrange_reduce(field.embedding @ ideal_cols)
    pideal_basis = ideal_cols @ U
    if l_c == 0:
        region_cols = np.zeros((2 * T, 2 * T), dtype=np.int64)
        for i in range(T):
            region_cols[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = pideal_basis
        region_unit = em @ region_cols
    else:
        region_unit = em @ coarse_basis

    rng = np.random.default_rng(_POWER_SEED)
    z = rng.uniform(-0.5, 0.5, size=(_POWER_SAMPLES, 2 * T))
    samples = z @ region_unit.T
    m0 = float(np.einsum("ij,ij->i", samples, samples).mean()) / (n * T)
    if gamma is None:
        gamma = math.sqrt(target_power / m0)

    phi = field.embedding
    embedded = gamma * np.einsum("jk,atk->ajt", phi, leaders.astype(float))
    region_scaled = gamma * region_unit
    pideal_embedded = gamma * (phi @ pideal_basis.astype(float))
    qmat, rmat = np.linalg.qr(pideal_embedded)
    signs = np.sign(np.diag(rmat))
    qmat = qmat * signs
    rmat = (rmat.T * signs).T

    rate = ((l_f - l_c) * prime.r / T) * math.log2(prime.p)
    return ConstructionALattice(
        field=field,
        prime=prime,
        codes=codes,
        gamma=float(gamma),
        T=T,
        Fq=Fq,
        coset_leaders=leaders,
        leader_residues=residues,
        embedded_leaders=embedded,
        leader_in_coarse=in_coarse,
        fine_basis=fine_basis,
        coarse_basis=coarse_basis,
        vol_fine_unit=vol_fine,
        vol_coarse_unit=vol_coarse,
        region_scaled=region_scaled,
        region_inv=np.linalg.inv(region_scaled),
        pideal_basis=pideal_basis,
        pideal_embedded=pideal_embedded,
        message_rate_bits=rate,
        _phi_inv=np.linalg.inv(phi),
        _cvp_q=qmat,
        _cvp_r=rmat,
    )


# ---------------------------------------------------------------------------
# encoding and shaping


def _message_to_index(lat: ConstructionALattice, w) -> int:
    c = lat.codes
    if len(w) != c.l_f - c.l_c:
        raise ValueError(f"message must have {c.l_f - c.l_c} symbols")
    if any(not (0 <= x < lat.Fq.q) for x in w):
        raise ValueError(f"message symbols must lie in [0, {lat.Fq.q})")
    return sum(int(x) * lat.Fq.q ** (c.l_c + k) for k, x in enumerate(w))


def encode(lat: ConstructionALattice, w, dither: np.ndarray | None = None) -> np.ndarray:
    """Embed the coset representative of message w as an n x T codeword; with
    a dither the sum is folded back into the shaping region."""
    X = lat.embedded_leaders[_message_to_index(lat, w)].copy()
    if dither is not None:
        X = reduce_mod_coarse(lat, X + dither)
    return X


def sample_dither(lat: ConstructionALattice, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample over the shaping region."""
    z = rng.uniform(-0.5, 0.5, size=lat.region_scaled.shape[1])
    return (lat.region_scaled @ z).reshape(lat.n, lat.T)


def reduce_mod_coarse(lat: ConstructionALattice, X: np.ndarray) -> np.ndarray:
    """Fold an n x T matrix into the centered fundamental parallelepiped of
    the scaled coarse lattice."""
    flat = np.asarray(X, dtype=float).reshape(-1)
    zc = lat.region_inv @ flat
    return (lat.region_scaled @ (zc - np.rint(zc))).reshape(lat.n, lat.T)


# ---------------------------------------------------------------------------
# lattice structure


def ring_combine(lat: ConstructionALattice, coeffs, codewords) -> np.ndarray:
    """sum_l diag(sigma(a_l)) X_l: per-block scaling of each codeword's rows
    by the coefficient conjugates.  Closed in the fine lattice."""
    if len(coeffs) != len(codewords):
        raise ValueError("one coefficient per codeword required")
    out = np.zeros((lat.n, lat.T))
    for a, X in zip(coeffs, codewords):
        X = np.asarray(X, dtype=float)
        if X.shape != (lat.n, lat.T):
            raise ValueError(f"codeword must be {lat.n} x {lat.T}")
        sig = lat.field.conjugates(a)
        for j in range(lat.n):
            out[j] += sig[j] * X[j]
    return out


def _pullback_coords(lat: ConstructionALattice, X, tol: float):
    """Ring coordinates of X / gamma, or None when they are not near-integer."""
    arr = np.asarray(X, dtype=float)
    coords = lat._phi_inv @ (arr / lat.gamma)  # (2, T): rows u, v
    rounded = np.rint(coords)
    if np.max(np.abs(coords - rounded)) > tol:
        return None
    return rounded.astype(np.int64)


def _residue_vector(lat: ConstructionALattice, coords: np.ndarray) -> list[int]:
    prime = lat.prime
    return [
        residue_reduce(prime, RingElement(int(coords[0, i]), int(coords[1, i])))
        for i in range(lat.T)
    ]


def lattice_membership(
    lat: ConstructionALattice, which: str, X, tol: float = 1e-6
) -> bool:
    """Exact membership test: pull back through gamma and the embedding, check
    integrality, then check the residue word against the chosen code."""
    if which not in ("fine", "coarse"):
        raise ValueError("which must be 'fine' or 'coarse'")
    coords = _pullback_coords(lat, X, tol)
    if coords is None:
        return False
    res = _residue_vector(lat, coords)
    rows = lat.codes.G_f if which == "fine" else lat.codes.G_c
    return _fq_solve(lat.Fq, rows, res) is not None


def product_distance(x, n: int, T: int) -> float:
    """Block-wise product distance: product over blocks of the per-block
    squared norms of consecutive length-T slices."""
    arr = np.asarray(x, dtype=float).reshape(n, T)
    return float(np.prod(np.einsum("ij,ij->i", arr, arr)))


def map_message(lat: ConstructionALattice, X) -> tuple[int, ...]:
    """Message-space image of a fine-lattice point."""
    coords = _pullback_coords(lat, X, 1e-6)
    if coords is None:
        raise ValueError("not a fine-lattice point")
    w = _fq_solve(lat.Fq, lat.codes.G_f, _residue_vector(lat, coords))
    if w is None:
        raise ValueError("not a fine-lattice point")
    return w[lat.codes.l_c :]


# ---------------------------------------------------------------------------
# decoding


def _decode_leader_indices(lat: ConstructionALattice, S: np.ndarray) -> np.ndarray:
    """Exact nearest-fine-point decoding of a batch of n x T observations,
    reported as coset-leader indices.

    The squared distance to a leader's coset decomposes per coordinate into a
    2D closest point problem on the embedded ideal, shifted by the leader's
    residue at that coordinate.  So the distance is computed once per
    (coordinate, residue), and each leader's total is a sum of T table
    entries.  With the Gauss-reduced basis the optimum's second coordinate
    lies within one step of the Babai rounding, so three candidates per
    coordinate are exhaustive.  Ties go to the lowest leader index.
    """
    qmat, rmat = lat._cvp_q, lat._cvp_r
    r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
    residues = lat.leader_residues.tolist()
    firsts = {}  # (coordinate i, residue x) -> first leader holding x at i
    for k, row in enumerate(residues):
        for i, x in enumerate(row):
            firsts.setdefault((i, x), k)
    B = S.shape[0]
    # one block for all rows: many separately allocated rows fragment the
    # heap and raise the resident peak
    dist = np.empty((len(firsts), B))
    table = [{} for _ in range(lat.T)]  # table[i][x]: row of coordinate i, residue x
    for ((i, x), k), dmin in zip(firsts.items(), dist):
        y = (S[:, :, i] - lat.embedded_leaders[k][:, i]) @ qmat  # (B, 2)
        z2 = np.rint(y[:, 1] / r22) + _BABAI_WINDOW  # (3, B)
        rem = y[:, 0] - r12 * z2
        z1 = np.rint(rem / r11)
        np.minimum.reduce((rem - r11 * z1) ** 2 + (y[:, 1] - r22 * z2) ** 2, out=dmin)
        table[i][x] = dmin
    best = np.full(B, np.inf)
    best_idx = np.zeros(B, dtype=np.int64)
    total = np.empty(B)
    for k, row in enumerate(residues):
        total.fill(0.0)
        for dists, x in zip(table, row):
            total += dists[x]
        better = total < best
        np.copyto(best, total, where=better)
        best_idx[better] = k
    return best_idx


def decode_equation(
    lat: ConstructionALattice,
    Y: np.ndarray,
    candidate: EquationCandidate,
    dithers=None,
) -> DecodeResult:
    """MMSE-scale the observation, compensate the dithers, quantize to the
    fine lattice exactly, and reduce modulo the coarse one.

    Transmitters fold [codeword + dither] into the shaping region, so the
    relay removes the scaled dithers; the leftover coarse-lattice offsets are
    absorbed by the modulo reduction.
    """
    Y = np.asarray(Y, dtype=float)
    S = np.asarray(candidate.b)[:, None] * Y
    if dithers is not None:
        for l, D in enumerate(dithers):
            S = S - candidate.sigma[:, l][:, None] * np.asarray(D, dtype=float)
    idx = int(_decode_leader_indices(lat, S[None])[0])
    c = lat.codes
    w_full = _leader_index_digits(idx, lat.Fq.q, c.l_f)
    message = w_full[c.l_c :]
    canonical = (0,) * c.l_c + message
    coset = tuple(_fq_codeword(lat.Fq, c.G_f, canonical))
    return DecodeResult(coset=coset, message=message)


# ---------------------------------------------------------------------------
# enumeration and the union bound


def _disc_points(Gp: np.ndarray, offset: np.ndarray, budget: float):
    """All points offset + Gp z (z integer) with squared norm <= budget,
    sorted ascending."""
    qmat, _ = np.linalg.qr(Gp)
    R = qmat.T @ Gp
    if R[0, 0] < 0:
        qmat[:, 0] *= -1
        R[0] *= -1
    if R[1, 1] < 0:
        qmat[:, 1] *= -1
        R[1] *= -1
    y = qmat.T @ (-offset)
    r11, r12, r22 = R[0, 0], R[0, 1], R[1, 1]
    out = []
    rad = math.sqrt(budget) + 1e-12
    for z2 in range(math.ceil((y[1] - rad) / r22), math.floor((y[1] + rad) / r22) + 1):
        rem = budget - (y[1] - r22 * z2) ** 2
        if rem < -1e-12:
            continue
        half = math.sqrt(max(rem, 0.0)) + 1e-12
        lo = math.ceil((y[0] - r12 * z2 - half) / r11)
        hi = math.floor((y[0] - r12 * z2 + half) / r11)
        for z1 in range(lo, hi + 1):
            pt = offset + Gp @ (z1, z2)
            n2 = float(pt @ pt)
            if n2 <= budget * (1 + 1e-12) + 1e-12:
                out.append(((z1, z2), pt, n2))
    out.sort(key=lambda item: item[2])
    return out


def _fine_vector_walk(lat: ConstructionALattice, radius: float, exclude_coarse: bool):
    """Depth-first walk over the nonzero fine-lattice vectors with (scaled)
    Euclidean norm <= radius, leader by leader and, within a leader, over
    coordinates in order with disc points ascending in norm.

    A coordinate's disc points depend only on its residue, so they are
    enumerated once per (coordinate, residue) and shared by every leader
    holding that residue there.  Each disc entry is (squared norm, per-block
    squared norms, embedded 2-vector, ring coordinates).  Yields
    (chosen, block_sq): the T chosen entries, a list the walk reuses, and the
    vector's per-block squared norms, summed over coordinates in order.
    """
    budget = float(radius) ** 2
    T = lat.T
    discs = {}  # (coordinate i, residue x) -> disc entries
    chosen = [None] * T
    rem = [budget] + [0.0] * T
    block_sq = [(0.0,) * lat.n] + [None] * T
    pos = [0] * T
    for k, row in enumerate(lat.leader_residues.tolist()):
        if exclude_coarse and lat.leader_in_coarse[k]:
            continue
        opts = []
        for i, x in enumerate(row):
            entries = discs.get((i, x))
            if entries is None:
                entries = []
                for z, pt, n2 in _disc_points(
                    lat.pideal_embedded, lat.embedded_leaders[k][:, i], budget
                ):
                    sq = tuple(v * v for v in pt.tolist())
                    ring = lat.coset_leaders[k, i] + lat.pideal_basis @ z
                    entries.append((n2, sq, pt, ring))
                discs[i, x] = entries
            if not entries:
                break
            opts.append(entries)
        else:
            # suffix[i]: least squared norm the coordinates i.. can add
            suffix = [0.0] * (T + 1)
            for i in range(T - 1, -1, -1):
                suffix[i] = suffix[i + 1] + opts[i][0][0]
            i = 0
            pos[0] = 0
            while i >= 0:
                entries = opts[i]
                if pos[i] == len(entries) or (
                    entries[pos[i]][0] > rem[i] - suffix[i + 1] + 1e-12
                ):
                    i -= 1  # coordinate i is exhausted: back up
                    continue
                entry = chosen[i] = entries[pos[i]]
                pos[i] += 1
                rem[i + 1] = rem[i] - entry[0]
                block_sq[i + 1] = tuple(a + b for a, b in zip(block_sq[i], entry[1]))
                if i + 1 < T:
                    i += 1
                    pos[i] = 0
                # a zero vector has zero block norms; only then check its
                # ring coordinates exactly
                elif any(block_sq[T]) or any(e[3].any() for e in chosen):
                    yield chosen, block_sq[T]


def enumerate_fine_vectors(
    lat: ConstructionALattice, radius: float, exclude_coarse: bool = True
):
    """All nonzero fine-lattice vectors with (scaled) Euclidean norm <= radius,
    as (ring coordinate array (T, 2), embedded n x T matrix) pairs.  With
    exclude_coarse the coarse sublattice is dropped (the set behind the union
    bound); coarse membership depends only on the coset leader.  The 2D disc
    enumeration runs once per (coordinate, residue), not once per leader."""
    return [
        (np.array([e[3] for e in chosen]), np.column_stack([e[2] for e in chosen]))
        for chosen, _ in _fine_vector_walk(lat, radius, exclude_coarse)
    ]


def union_bound(
    lat: ConstructionALattice, nu_sq, truncation_radius: float
) -> UnionBoundResult:
    """Partial union-bound sum over the fine-not-coarse vectors inside the
    truncation radius, for the per-block effective noise variances nu_sq.
    The reported value is a partial sum: terms outside the radius are
    dropped, so it only lower-bounds the full series.  Terms are added in
    enumeration order straight from the walk, whose disc points are
    enumerated once per (coordinate, residue)."""
    nu = np.asarray(nu_sq, dtype=float)
    if np.any(nu < 0):
        raise ValueError("noise variances must be nonnegative")
    denom = 8.0 * float(nu.sum())
    n = lat.n
    total = 0.0
    terms = 0
    for _, block_sq in _fine_vector_walk(lat, truncation_radius, exclude_coarse=True):
        terms += 1
        if denom != 0.0:
            d = math.prod(block_sq)
            total += 0.5 * math.exp(-n * d ** (1.0 / n) / denom)
    if not terms:
        raise RadiusTooSmall(
            f"no fine-lattice vector within radius {truncation_radius}"
        )
    return UnionBoundResult(total, terms)


# ---------------------------------------------------------------------------
# Monte Carlo error simulation


def simulate_codec(
    lat: ConstructionALattice,
    ch: BlockFadingChannel,
    candidate: EquationCandidate,
    trials: int,
    seed: int,
    noise_std: float = 1.0,
) -> SimResult:
    """Empirical equation-error rate with fresh messages, dithers and noise
    per trial.  Deterministic for a given seed (fixed batch size).

    noise_std scales the unit-variance channel noise; 0 gives the noiseless
    sanity setting."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if ch.n != lat.n:
        raise DimensionMismatch("channel block count must match the field degree")
    L = ch.L
    if len(candidate.a) != L:
        raise DimensionMismatch("one coefficient per user required")
    c = lat.codes
    q = lat.Fq.q
    n, T = lat.n, lat.T
    l_m = c.l_f - c.l_c
    g = np.array([residue_reduce(lat.prime, a) for a in candidate.a], dtype=np.int64)
    msg_pow = q ** (c.l_c + np.arange(l_m, dtype=np.int64))
    region_t = lat.region_scaled.T
    region_inv_t = lat.region_inv.T
    sigma = candidate.sigma
    b = np.asarray(candidate.b)

    rng = np.random.default_rng(seed)
    errors = 0
    done = 0
    while done < trials:
        m = min(_SIM_BATCH, trials - done)
        w = rng.integers(0, q, size=(m, L, l_m))
        zdith = rng.uniform(-0.5, 0.5, size=(m, L, 2 * T))
        noise = noise_std * rng.standard_normal((m, n, T))

        idx = (w * msg_pow).sum(axis=2) if l_m else np.zeros((m, L), dtype=np.int64)
        X = lat.embedded_leaders[idx]  # (m, L, n, T)
        D = zdith @ region_t  # flat dithers
        shifted = X.reshape(m, L, n * T) + D
        zc = shifted @ region_inv_t
        Xbar = ((zc - np.rint(zc)) @ region_t).reshape(m, L, n, T)
        Dm = D.reshape(m, L, n, T)

        Y = np.einsum("jl,bljt->bjt", ch.h, Xbar) + noise
        S = b[None, :, None] * Y - np.einsum("jl,bljt->bjt", sigma, Dm)
        # free the batch's intermediates before the decoder allocates: the
        # heap's high-water mark sets the resident peak
        del zdith, noise, X, D, shifted, zc, Xbar, Dm, Y
        dec = _decode_leader_indices(lat, S)

        truth = np.zeros((m, l_m), dtype=np.int64)
        for l in range(L):
            truth = lat.Fq.add_array(truth, lat.Fq.scale_array(int(g[l]), w[:, l, :]))
        dec_digits = (dec[:, None] // msg_pow[None, :]) % q if l_m else truth
        errors += int(np.count_nonzero(np.any(dec_digits != truth, axis=1)))
        done += m

    rate = errors / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return SimResult(error_rate=rate, stderr=stderr, errors=errors, trials=trials)
