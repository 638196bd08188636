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
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BlockFadingChannel, EquationCandidate
from .numfield import NumberField, PrimeIdeal, ResidueField, RingElement, residue_reduce
from .svp import _enumerate, _lll_reduce

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
    "reduce_mod_coarse",
    "ring_combine",
    "lattice_membership",
    "product_distance",
    "decode_equation",
    "enumerate_fine_vectors",
    "union_bound",
    "simulate_codec",
]

MAX_COSET_LEADERS = 4096
_POWER_SAMPLES = 100_000
_POWER_SEED = 20260314
_POWER_BLOCK = 1 << 14  # cells of the calibration draw held at once
_SIM_BATCH = 4096


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


def _fq_codewords(Fq: ResidueField, G_rows, w: np.ndarray) -> np.ndarray:
    """Codewords G w over F_q of the message words w (..., l), as (..., T)."""
    G = np.array(G_rows, dtype=np.int64)  # (T, l)
    out = np.zeros(w.shape[:-1] + (len(G),), dtype=np.int64)
    for k in range(w.shape[-1]):
        out = Fq.add(out, Fq.mul(G[:, k], w[..., k, None]))
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


def _hnf_column_basis(generators, dim: int) -> list[list[int]]:
    """Echelon basis (lists of ints) of the integer lattice spanned by the
    generators, by exact pairwise Euclidean reduction coordinate by
    coordinate.  A coordinate no remaining generator reaches is skipped, so
    there are as many vectors as the rank; each is positive at its pivot."""
    work = [[int(x) for x in g] for g in generators]
    basis = []
    for row in range(dim):
        live = [c for c in work if c[row] != 0]
        if not live:
            continue
        rest = [c for c in work if c[row] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]), reverse=True)
            quot = live[0][row] // live[1][row]
            live[0] = [x - quot * y for x, y in zip(live[0], live[1])]
            if live[0][row] == 0:
                rest.append(live.pop(0))
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
    return basis


def _code_lattice_basis(prime: PrimeIdeal, codes: NestedCodePair, l: int):
    """Echelon basis, in flat ring coordinates (u_i, v_i interleaved), of the
    Construction A lattice of the first l code columns (their lifts, times
    theta too for an inert prime, and the ideal at every coordinate), and its
    index in O^T: the exact product of the pivots.  That is q^(T - l) when
    the columns have rank l; any other index raises RankDeficientCode."""
    Fq, T = prime.residue_field, codes.T
    gens = []
    for k in range(l):
        for be in [1] if prime.r == 1 else [1, Fq.encode(0, 1)]:
            lifts = (prime.leader(Fq.mul(be, row[k])) for row in codes.G_f)
            gens.append([x for el in lifts for x in (el.u, el.v)])
    for i in range(T):
        for u, v in prime.basis_matrix().T.tolist():
            gens.append([0] * (2 * i) + [u, v] + [0] * (2 * (T - i - 1)))
    basis = _hnf_column_basis(gens, 2 * T)
    index = math.prod(col[i] for i, col in enumerate(basis))
    if len(basis) != 2 * T or index != codes.q ** (T - l):
        raise RankDeficientCode(f"the first {l} code columns do not have rank {l}")
    return basis, index


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


def _digit_weights(q: int, start: int, stop: int) -> np.ndarray:
    """q^k for k in [start, stop): the leader-index weights of those digits.
    Leader k's codeword is G_f w for the base-q digits w of k, least
    significant first, so the first l_c digits are its coarse part."""
    return q ** np.arange(start, stop, dtype=np.int64)


def _index_digits(idx, q: int, start: int, stop: int) -> np.ndarray:
    """Base-q digits start .. stop-1 of leader indices (...,), as (..., stop - start)."""
    return (np.asarray(idx)[..., None] // _digit_weights(q, start, stop)) % q


class _UnitLattice(NamedTuple):
    """The SNR-independent part of a build: everything at gamma = 1, and the
    unit region's per-dimension second moment m0 (None when uncalibrated)."""

    field: NumberField
    prime: PrimeIdeal
    codes: NestedCodePair
    leaders: np.ndarray
    residues: np.ndarray
    embedded: np.ndarray  # unscaled embedded leaders
    vol_fine: float
    vol_coarse: float
    region: np.ndarray  # unscaled shaping parallelepiped
    pideal_basis: np.ndarray
    pideal_embedded: np.ndarray  # unscaled
    rate: float
    m0: float | None


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
    budget; alternatively a gamma may be pinned directly.  The unit volumes
    q^(T - l) disc^(T/2) are exact, the index q^(T - l) read off an integer
    basis.  DeskScaleExceeded: over MAX_COSET_LEADERS or a float's range.
    """
    if (target_power is None) == (gamma is None):
        raise ValueError("give exactly one of target_power or gamma")
    unit = _build_unit(field, prime, codes, calibrate=gamma is None)
    return _scale_unit(unit, target_power, gamma)


def _build_unit(
    field: NumberField, prime: PrimeIdeal, codes: NestedCodePair, calibrate: bool
) -> _UnitLattice:
    """Check the inputs and build the lattice pair at gamma = 1; with
    calibrate, also estimate the shaping region's second moment m0 from
    _POWER_SAMPLES uniform draws.  The draw runs in blocks of at most
    _POWER_BLOCK cells from one stream, and the per-sample norms fill one
    array whose mean is m0: the bits of a one-block draw, without holding
    the whole draw and its image."""
    if prime.field is not field and prime.field.d != field.d:
        raise DimensionMismatch("prime ideal belongs to a different field")
    if codes.p != prime.p or codes.r != prime.r:
        raise DimensionMismatch(
            f"code field F_{codes.q} does not match the residue field of the prime"
        )
    T, l_f, l_c = codes.T, codes.l_f, codes.l_c
    if T < 1:
        raise DimensionMismatch(f"need T >= 1 code coordinates, got {T}")
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
    # the larger volume, the coarse one, must be a float (1e-9: the logs' error)
    disc = field.discriminant
    log_vol = (T - l_c) * math.log(q) + T / 2 * math.log(disc)
    if log_vol > math.log(sys.float_info.max) - 1e-9:
        raise DeskScaleExceeded(f"volume {q}^{T - l_c} * {disc}^({T}/2) overflows")

    n = field.degree
    residues = _fq_codewords(Fq, codes.G_f, _index_digits(np.arange(K), q, 0, l_f))
    # the lifts PrimeIdeal.leader gives: u = x mod p, v = x // p
    leaders = np.stack([residues % prime.p, residues // prime.p], axis=-1)

    disc_half = disc ** (T / 2)
    vol_fine = _code_lattice_basis(prime, codes, l_f)[1] * disc_half
    coarse_basis, coarse_index = _code_lattice_basis(prime, codes, l_c)
    vol_coarse = coarse_index * disc_half
    em = _embedding_map(field, T)

    # shaping region: centered fundamental parallelepiped of the coarse lattice
    # (per-coordinate reduced ideal basis when the coarse code is trivial)
    ideal_cols = prime.basis_matrix()
    transform = _lll_reduce(list((field.embedding @ ideal_cols).T))[1]
    pideal_basis = ideal_cols @ np.array(transform, dtype=np.int64).T
    if l_c == 0:
        region_cols = np.zeros((2 * T, 2 * T), dtype=np.int64)
        for i in range(T):
            region_cols[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = pideal_basis
        region_unit = em @ region_cols
    else:
        region_unit = em @ np.array(coarse_basis, dtype=np.int64).T

    m0 = None
    if calibrate:
        rng = np.random.default_rng(_POWER_SEED)
        norms = np.empty(_POWER_SAMPLES)
        rows = _POWER_BLOCK // (2 * T)  # T <= 882 under the volume check
        for start in range(0, _POWER_SAMPLES, rows):
            out = norms[start : start + rows]
            samples = rng.uniform(-0.5, 0.5, size=(out.size, 2 * T)) @ region_unit.T
            np.einsum("ij,ij->i", samples, samples, out=out)
        m0 = float(norms.mean()) / (n * T)

    phi = field.embedding
    return _UnitLattice(
        field=field,
        prime=prime,
        codes=codes,
        leaders=leaders,
        residues=residues,
        embedded=np.einsum("jk,atk->ajt", phi, leaders.astype(float)),
        vol_fine=vol_fine,
        vol_coarse=vol_coarse,
        region=region_unit,
        pideal_basis=pideal_basis,
        pideal_embedded=phi @ pideal_basis.astype(float),
        rate=((l_f - l_c) * prime.r / T) * math.log2(prime.p),
        m0=m0,
    )


def _scale_unit(
    unit: _UnitLattice, target_power: float | None = None, gamma: float | None = None
) -> ConstructionALattice:
    """The lattice pair of a unit build scaled by gamma, or by
    sqrt(target_power / m0) with gamma None."""
    if gamma is None:
        gamma = math.sqrt(target_power / unit.m0)
    region_scaled = gamma * unit.region
    pideal_embedded = gamma * unit.pideal_embedded
    qmat, rmat = np.linalg.qr(pideal_embedded)
    signs = np.sign(np.diag(rmat))
    qmat = qmat * signs
    rmat = (rmat.T * signs).T

    return ConstructionALattice(
        field=unit.field,
        prime=unit.prime,
        codes=unit.codes,
        gamma=float(gamma),
        T=unit.codes.T,
        Fq=unit.prime.residue_field,
        coset_leaders=unit.leaders,
        leader_residues=unit.residues,
        embedded_leaders=gamma * unit.embedded,
        vol_fine_unit=unit.vol_fine,
        vol_coarse_unit=unit.vol_coarse,
        region_scaled=region_scaled,
        region_inv=np.linalg.inv(region_scaled),
        pideal_basis=unit.pideal_basis,
        pideal_embedded=pideal_embedded,
        message_rate_bits=unit.rate,
        _phi_inv=np.linalg.inv(unit.field.embedding),
        _cvp_q=qmat,
        _cvp_r=rmat,
    )


# ---------------------------------------------------------------------------
# encoding and shaping


def encode(lat: ConstructionALattice, w, dither: np.ndarray | None = None) -> np.ndarray:
    """Embed the coset representatives of messages w (..., l_f - l_c) as
    (..., n, T) codewords; with dithers (..., n, T) the sums are folded back
    into the shaping region."""
    c, q = lat.codes, lat.Fq.q
    w = np.asarray(w)
    if w.ndim == 0 or w.shape[-1] != c.l_f - c.l_c:
        raise ValueError(f"message must have {c.l_f - c.l_c} symbols")
    if not ((0 <= w) & (w < q)).all():
        raise ValueError(f"message symbols must lie in [0, {q})")
    idx = (w.astype(np.int64) * _digit_weights(q, c.l_c, c.l_f)).sum(axis=-1)
    X = np.take(lat.embedded_leaders, idx, axis=0)
    if dither is not None:
        # np.take's result is ours, so the sum and the fold go into it (into
        # a C-ordered copy where the dither broadcasts it to a larger shape)
        shape = np.broadcast_shapes(X.shape, np.shape(dither))
        if shape != X.shape:
            X = np.broadcast_to(X, shape).copy()
        X += dither
        _fold(lat, X)
    return X


def reduce_mod_coarse(lat: ConstructionALattice, X: np.ndarray) -> np.ndarray:
    """Fold (..., n, T) matrices into the centered fundamental parallelepiped
    of the scaled coarse lattice."""
    X = np.array(X, dtype=float, order="C")
    _fold(lat, X)
    return X


def _fold(lat: ConstructionALattice, X: np.ndarray) -> None:
    """reduce_mod_coarse in place, on a C-contiguous float array X."""
    # one 2-D product over all leading axes: numpy's stacked products are
    # about ten times slower on small matrices, with the same bits
    flat = X.reshape(-1, lat.n * lat.T)
    zc = flat @ lat.region_inv.T
    np.subtract(zc, np.rint(zc, out=flat), out=zc)
    np.matmul(zc, lat.region_scaled.T, out=flat)


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


# ---------------------------------------------------------------------------
# decoding


def _decode_leader_indices(lat: ConstructionALattice, S: np.ndarray) -> np.ndarray:
    """Exact nearest-fine-point decoding of a batch of n x T observations,
    reported as coset-leader indices.

    The squared distance to a leader's coset decomposes per coordinate into a
    2D closest point problem on the embedded ideal, shifted by the leader's
    residue at that coordinate.  So the distance is computed once per
    (coordinate, residue), and each leader's total is a sum of T table
    entries.  The ideal basis is LLL-reduced at delta = 0.99, so its
    triangular factor has r22^2 >= (delta - 1/4) r11^2 = 0.74 r11^2.  The
    closest point is no farther than the Babai point, at squared distance at
    most (r11^2 + r22^2) / 4, so its second coordinate differs from
    y2 / r22 by at most sqrt(1 + 1/0.74) / 2 < 0.77: within one step of the
    rounding, and three candidates per coordinate are exhaustive.  Ties go
    to the lowest leader index.
    """
    residues = lat.leader_residues.tolist()
    table = _residue_distances(lat, S, residues)
    B = S.shape[0]
    best = np.full(B, np.inf)
    best_idx = np.zeros(B, dtype=np.int64)
    total = np.empty(B)
    better = np.empty(B, dtype=bool)
    for k, row in enumerate(residues):
        # each total starts from its first entry: distances are >= +0.0, so
        # 0.0 + d is d
        np.copyto(total, table[0][row[0]])
        for dists, x in zip(table[1:], row[1:]):
            total += dists[x]
        np.less(total, best, out=better)
        np.copyto(best, total, where=better)
        np.copyto(best_idx, k, where=better)
    return best_idx


def _residue_distances(lat: ConstructionALattice, S: np.ndarray, residues) -> list[dict]:
    """table[i][x]: the (B,) squared distances from coordinate i of the
    observations S (B, n, T) to the embedded ideal shifted by residue x,
    for each (i, x) a leader holds.  The shifted column and its rotation
    into the triangular frame run in two reused (B, n) buffers, the Babai
    window z2 - 1, z2, z2 + 1 in three reused (3, B) buffers."""
    qmat, rmat = lat._cvp_q, lat._cvp_r
    r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
    firsts = {}  # (coordinate i, residue x) -> first leader holding x at i
    for k, row in enumerate(residues):
        for i, x in enumerate(row):
            firsts.setdefault((i, x), k)
    B = S.shape[0]
    # one block for all rows: many separately allocated rows fragment the
    # heap and raise the resident peak
    dist = np.empty((len(firsts), B))
    shifted, y = np.empty((2, B, lat.n))
    z2, rem, z1 = np.empty((3, 3, B))
    table = [{} for _ in range(lat.T)]
    for ((i, x), k), dmin in zip(firsts.items(), dist):
        # column by column: a 2-D subtract on the strided S[:, :, i] runs
        # through a 64 KiB buffer, at four times the time
        for j, v in enumerate(lat.embedded_leaders[k][:, i].tolist()):
            np.subtract(S[:, j, i], v, out=shifted[:, j])
        np.matmul(shifted, qmat, out=y)
        np.rint(np.divide(y[:, 1], r22, out=z2[1]), out=z2[1])
        np.add(z2[1], -1.0, out=z2[0])
        np.add(z2[1], 1.0, out=z2[2])
        np.add(z2[1], 0.0, out=z2[1])  # rint(.) + 0.0: -0.0 becomes +0.0
        np.subtract(y[:, 0], np.multiply(r12, z2, out=rem), out=rem)
        np.rint(np.divide(rem, r11, out=z1), out=z1)
        np.square(np.subtract(rem, np.multiply(r11, z1, out=z1), out=rem), out=rem)
        np.square(np.subtract(y[:, 1], np.multiply(r22, z2, out=z2), out=z2), out=z2)
        np.minimum.reduce(np.add(rem, z2, out=rem), out=dmin)
        table[i][x] = dmin
    return table


def _block_sum(w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_l diag(w[:, l]) X_l for per-block weights w (n, L) and matrices
    X (..., L, n, T), as (..., n, T): the terms added left to right, which
    gives np.einsum("jl,...ljt->...jt", w, X)'s bits at a third of its time
    (up to the sign of a zero sum: einsum adds into +0.0)."""
    acc = w[:, 0, None] * X[..., 0, :, :]
    for l in range(1, w.shape[1]):
        acc += w[:, l, None] * X[..., l, :, :]
    return acc


def _observation(Y: np.ndarray, candidate: EquationCandidate, dithers=None) -> np.ndarray:
    """b_j Y_j - sum_l sigma_j(a_l) D_l: the MMSE-scaled observations (..., n, T)
    with the dithers (..., L, n, T) removed."""
    S = np.asarray(candidate.b)[:, None] * np.asarray(Y, dtype=float)
    if dithers is not None:
        S -= _block_sum(np.asarray(candidate.sigma), np.asarray(dithers, dtype=float))
    return S


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
    idx = int(_decode_leader_indices(lat, _observation(Y, candidate, dithers)[None])[0])
    c, q = lat.codes, lat.Fq.q
    message = tuple(_index_digits(idx, q, c.l_c, c.l_f).tolist())
    # the canonical leader of the coset: its coarse digits zeroed
    coset = tuple(lat.leader_residues[idx - idx % q**c.l_c].tolist())
    return DecodeResult(coset=coset, message=message)


# ---------------------------------------------------------------------------
# enumeration and the union bound


def _fine_vector_walk(lat: ConstructionALattice, radius: float, exclude_coarse: bool):
    """Depth-first walk over the nonzero fine-lattice vectors with (scaled)
    Euclidean norm <= radius, leader by leader and, within a leader, over
    coordinates in order with disc points ascending in norm.

    A coordinate's disc points depend only on its residue (the leader's
    embedded column and ring coordinates there are the residue's lift), so
    they are enumerated once per residue, by Schnorr-Euchner enumeration
    centred on the negated lift in the decoder's triangular frame, and
    shared by every coordinate of every leader holding that residue.  Each
    disc entry, sorted by (squared norm, z2, z1), is (squared norm, per-block
    squared norms, embedded 2-vector, ring coordinates).  Yields
    (chosen, block_sq): the T chosen entries, a list the walk reuses, and the
    vector's per-block squared norms, summed over coordinates in order.
    """
    budget = float(radius) ** 2
    qmat_t, rmat = lat._cvp_q.T, lat._cvp_r.tolist()
    T = lat.T
    discs = {}  # residue x -> disc entries
    chosen = [None] * T
    rem = [budget] + [0.0] * T
    block_sq = [(0.0,) * lat.n] + [None] * T
    pos = [0] * T
    # leader k is coarse iff its message digits are zero: k < q^l_c
    first = lat.Fq.q**lat.codes.l_c if exclude_coarse else 0
    for k, row in enumerate(lat.leader_residues[first:].tolist(), first):
        opts = []
        for i, x in enumerate(row):
            entries = discs.get(x)
            if entries is None:
                offset = lat.embedded_leaders[k][:, i]
                found, _ = _enumerate(rmat, budget, shrink=False, target=qmat_t @ -offset)
                entries = discs[x] = []
                for _, z in sorted(found, key=lambda c: c[1][::-1]):  # by z2, then z1
                    pt = offset + lat.pideal_embedded @ z
                    n2 = float(pt @ pt)
                    if n2 <= budget * (1 + 1e-12) + 1e-12:
                        sq = tuple(v * v for v in pt.tolist())
                        ring = lat.coset_leaders[k, i] + lat.pideal_basis @ z
                        entries.append((n2, sq, pt, ring))
                entries.sort(key=lambda e: e[0])  # stable: ties stay in (z2, z1) order
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
    enumeration runs once per residue, not once per leader."""
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
    enumerated once per residue.  With l_f = l_c there is one message and no
    error event: every fine vector is coarse, and the sum is the empty sum 0
    with no terms."""
    nu = np.asarray(nu_sq, dtype=float)
    if np.any(nu < 0):
        raise ValueError("noise variances must be nonnegative")
    if lat.codes.l_f == lat.codes.l_c:
        return UnionBoundResult(0.0, 0)
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

    noise_std scales the unit-variance channel noise and must be finite and
    nonnegative; 0 gives the noiseless sanity setting."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if ch.n != lat.n:
        raise DimensionMismatch("channel block count must match the field degree")
    L = ch.L
    if len(candidate.a) != L:
        raise DimensionMismatch("one coefficient per user required")
    c, q = lat.codes, lat.Fq.q
    l_m = c.l_f - c.l_c
    g = [residue_reduce(lat.prime, a) for a in candidate.a]

    rng = np.random.default_rng(seed)
    errors = 0
    done = 0
    while done < trials:
        m = min(_SIM_BATCH, trials - done)
        # every step writes into an array it owns, and each array is freed
        # once read: the heap's high-water mark sets the resident peak
        w = rng.integers(0, q, size=(m, L, l_m))
        zdith = rng.uniform(-0.5, 0.5, size=(m, L, 2 * lat.T))
        noise = rng.standard_normal((m, lat.n, lat.T))
        noise *= noise_std

        D = (zdith.reshape(-1, 2 * lat.T) @ lat.region_scaled.T).reshape(m, L, lat.n, lat.T)
        del zdith
        Y = _block_sum(ch.h, encode(lat, w, D))
        Y += noise
        del noise
        S = _observation(Y, candidate, D)
        del D, Y
        dec = _index_digits(_decode_leader_indices(lat, S), q, c.l_c, c.l_f)
        del S

        truth = np.zeros((m, l_m), dtype=np.int64)
        for l in range(L):
            truth = lat.Fq.add(truth, lat.Fq.mul(g[l], w[:, l, :]))
        errors += int(np.count_nonzero(np.any(dec != truth, axis=1)))
        done += m

    rate = errors / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return SimResult(error_rate=rate, stderr=stderr, errors=errors, trials=trials)
