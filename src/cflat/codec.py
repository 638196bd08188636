"""Desk-scale Construction A codec over a prime ideal.

A nested pair of linear codes over the residue field F_{p^r} is lifted to the
ring of integers coordinate-wise, tiled by the ideal, and embedded into real
space by the canonical embedding.  The module covers encoding with dithered
parallelepiped shaping, exact fine-lattice decoding of an equation's ring
combination of codewords, and the union bound on the decoding error
probability with a Monte Carlo counterpart.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import NamedTuple

import numpy as np

from .channel import BlockFadingChannel, EquationCandidate
from .numfield import NumberField, PrimeIdeal, ResidueField, residue_reduce
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
    "decode_equation",
    "union_bound",
    "simulate_codec",
]

MAX_COSET_LEADERS = 4096
_POWER_SAMPLES = 100_000
_POWER_SEED = 20260314
_POWER_BLOCK = 1 << 14  # cells of the calibration draw held at once
_SIM_BATCH = 4096
# the packing-radius certificate's relative margin and magnitude guard,
# derived in _certified_sq
_CERT_MARGIN = 2.0**-20
_CERT_GUARD = 2.0**21


class DimensionMismatch(ValueError):
    """Code, prime and field shapes do not line up."""


class RankDeficientCode(ValueError):
    """Fine-code generator does not have full column rank."""


class RadiusTooSmall(ValueError):
    """No lattice point inside the enumeration radius."""


class DeskScaleExceeded(ValueError):
    """Configuration too large for exact coset-leader decoding."""


@dataclasses.dataclass(frozen=True)
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
    certified: int  # trials the packing-radius certificate settled undecoded


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


def _code_lattice_basis(prime: PrimeIdeal, codes: NestedCodePair, l: int) -> list[list[int]]:
    """Echelon basis, in flat ring coordinates (u_i, v_i interleaved), of the
    Construction A lattice of the first l code columns: their lifts, times
    theta too for an inert prime, and the ideal at every coordinate."""
    Fq, T = prime.residue_field, codes.T
    gens = []
    for k in range(l):
        for be in [1] if prime.r == 1 else [1, Fq.encode(0, 1)]:
            lifts = (prime.leader(Fq.mul(be, row[k])) for row in codes.G_f)
            gens.append([x for el in lifts for x in (el.u, el.v)])
    for i in range(T):
        for u, v in prime.basis_matrix().T.tolist():
            gens.append([0] * (2 * i) + [u, v] + [0] * (2 * (T - i - 1)))
    return _hnf_column_basis(gens, 2 * T)


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


@dataclasses.dataclass(eq=False)
class ConstructionALattice:
    """Fine/coarse Construction A lattice pair, embedded and scaled by gamma.

    The fields before gamma are the build, which does not depend on the
    scale; __post_init__ derives the gamma-scaled arrays from them, so
    dataclasses.replace(lat, gamma=g) rescales a lattice from any scale.
    Immutable after build; the derived arrays keep encoding and decoding
    cheap.
    """

    field: NumberField
    prime: PrimeIdeal
    codes: NestedCodePair
    coset_leaders: np.ndarray  # (K, T, 2) ring coordinates in [0, p)
    leader_residues: np.ndarray  # (K, T) encoded residues
    embedded_unit: np.ndarray  # (K, n, T) embedded leaders at gamma = 1
    region_unit: np.ndarray  # (nT, nT) shaping parallelepiped at gamma = 1
    pideal_basis: np.ndarray  # (2, 2) reduced integer columns of the ideal
    gamma: float
    embedded_leaders: np.ndarray = dataclasses.field(init=False)  # (K, n, T)
    region_scaled: np.ndarray = dataclasses.field(init=False)  # region columns
    region_inv: np.ndarray = dataclasses.field(init=False)
    pideal_embedded: np.ndarray = dataclasses.field(init=False)  # (2, 2)
    _cvp_q: np.ndarray = dataclasses.field(init=False)
    _cvp_r: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        gamma = self.gamma = float(self.gamma)
        phi = self.field.embedding
        self.embedded_leaders = gamma * self.embedded_unit
        self.region_scaled = gamma * self.region_unit
        self.region_inv = np.linalg.inv(self.region_scaled)
        self.pideal_embedded = gamma * (phi @ self.pideal_basis.astype(float))
        qmat, rmat = np.linalg.qr(self.pideal_embedded)
        signs = np.sign(np.diag(rmat))
        self._cvp_q = qmat * signs
        self._cvp_r = (rmat.T * signs).T

    @property
    def n(self) -> int:
        return self.field.degree

    @property
    def T(self) -> int:
        return self.codes.T

    @property
    def Fq(self) -> ResidueField:
        return self.prime.residue_field

    @property
    def K(self) -> int:
        return len(self.coset_leaders)

    @property
    def vol_fine_unit(self) -> float:
        return _unit_volume(self.field, self.codes, self.codes.l_f)

    @property
    def vol_coarse_unit(self) -> float:
        return _unit_volume(self.field, self.codes, self.codes.l_c)

    @property
    def message_rate_bits(self) -> float:
        c = self.codes
        return ((c.l_f - c.l_c) * c.r / c.T) * math.log2(c.p)

    def __repr__(self) -> str:
        c = self.codes
        return (
            f"ConstructionALattice(d={self.field.d}, p={self.prime.p}, r={self.prime.r}, "
            f"T={self.T}, l_f={c.l_f}, l_c={c.l_c}, gamma={self.gamma:.6g})"
        )


def _unit_volume(field: NumberField, codes: NestedCodePair, l: int) -> float:
    """Volume at gamma = 1 of the lattice of the first l code columns: a
    rank-l code lifts to index q^(T - l) in O^T, whose embedding has volume
    disc^(T/2)."""
    return codes.q ** (codes.T - l) * field.discriminant ** (codes.T / 2)


def _digit_weights(q: int, start: int, stop: int) -> np.ndarray:
    """q^k for k in [start, stop): the leader-index weights of those digits.
    Leader k's codeword is G_f w for the base-q digits w of k, least
    significant first, so the first l_c digits are its coarse part."""
    return q ** np.arange(start, stop, dtype=np.int64)


def _index_digits(idx, q: int, start: int, stop: int) -> np.ndarray:
    """Base-q digits start .. stop-1 of leader indices (...,), as (..., stop - start)."""
    return (np.asarray(idx)[..., None] // _digit_weights(q, start, stop)) % q


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
    q^(T - l) disc^(T/2) are closed forms.  DeskScaleExceeded: over
    MAX_COSET_LEADERS or a float's range.
    """
    if (target_power is None) == (gamma is None):
        raise ValueError("give exactly one of target_power or gamma")
    lat = _build(field, prime, codes)
    if gamma is None:
        gamma = math.sqrt(target_power / _second_moment(lat))
    return dataclasses.replace(lat, gamma=gamma)


def _build(
    field: NumberField, prime: PrimeIdeal, codes: NestedCodePair
) -> ConstructionALattice:
    """Check the inputs and build the lattice pair at gamma = 1."""
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

    residues = _fq_codewords(Fq, codes.G_f, _index_digits(np.arange(K), q, 0, l_f))
    # the lifts PrimeIdeal.leader gives: u = x mod p, v = x // p
    leaders = np.stack([residues % prime.p, residues // prime.p], axis=-1)

    # shaping region: centered fundamental parallelepiped of the coarse lattice
    # (per-coordinate reduced ideal basis when the coarse code is trivial)
    ideal_cols = prime.basis_matrix()
    transform = _lll_reduce(list((field.embedding @ ideal_cols).T))[1]
    pideal_basis = ideal_cols @ np.array(transform, dtype=np.int64).T
    if l_c == 0:
        region_cols = np.zeros((2 * T, 2 * T), dtype=np.int64)
        for i in range(T):
            region_cols[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = pideal_basis
    else:
        region_cols = np.array(_code_lattice_basis(prime, codes, l_c), dtype=np.int64).T

    return ConstructionALattice(
        field=field,
        prime=prime,
        codes=codes,
        coset_leaders=leaders,
        leader_residues=residues,
        embedded_unit=np.einsum("jk,atk->ajt", field.embedding, leaders.astype(float)),
        region_unit=_embedding_map(field, T) @ region_cols,
        pideal_basis=pideal_basis,
        gamma=1.0,
    )


def _second_moment(lat: ConstructionALattice) -> float:
    """Per-dimension second moment m0 of the shaping region at gamma = 1,
    estimated from _POWER_SAMPLES uniform draws.  The draw runs in blocks
    of at most _POWER_BLOCK cells from one stream, and the per-sample norms
    fill one array whose mean is m0: the bits of a one-block draw, without
    holding the whole draw and its image."""
    T = lat.T
    rng = np.random.default_rng(_POWER_SEED)
    norms = np.empty(_POWER_SAMPLES)
    rows = _POWER_BLOCK // (2 * T)  # T <= 882 under the volume check
    for start in range(0, _POWER_SAMPLES, rows):
        out = norms[start : start + rows]
        samples = rng.uniform(-0.5, 0.5, size=(out.size, 2 * T)) @ lat.region_unit.T
        np.einsum("ij,ij->i", samples, samples, out=out)
    return float(norms.mean()) / (lat.n * T)


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


def _fold(lat: ConstructionALattice, X: np.ndarray) -> None:
    """Fold the (..., n, T) matrices of a C-contiguous float array X, in
    place, into the centered fundamental parallelepiped of the scaled
    coarse lattice."""
    # one 2-D product over all leading axes: numpy's stacked products are
    # about ten times slower on small matrices, with the same bits
    flat = X.reshape(-1, lat.n * lat.T)
    zc = flat @ lat.region_inv.T
    np.subtract(zc, np.rint(zc, out=flat), out=zc)
    np.matmul(zc, lat.region_scaled.T, out=flat)


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
    window z2 - 1, z2, z2 + 1 in three reused (3, B) buffers.  A row's
    entries do not depend on the rows around it: one row alone would take
    numpy's vector-matrix product, whose last bits can differ from the
    matrix product's (the Haswell kernel's do), so it runs as two copies
    of itself."""
    qmat, rmat = lat._cvp_q, lat._cvp_r
    r11, r12, r22 = rmat[0, 0], rmat[0, 1], rmat[1, 1]
    firsts = {}  # (coordinate i, residue x) -> first leader holding x at i
    for k, row in enumerate(residues):
        for i, x in enumerate(row):
            firsts.setdefault((i, x), k)
    B = S.shape[0]
    if B == 1:
        S = np.concatenate((S, S))
    # one block for all rows: many separately allocated rows fragment the
    # heap and raise the resident peak
    dist = np.empty((len(firsts), len(S)))
    shifted, y = np.empty((2, len(S), lat.n))
    z2, rem, z1 = np.empty((3, 3, len(S)))
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
        table[i][x] = dmin[:B]
    return table


def _block_sum(w: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_l diag(w[:, l]) X_l for per-block weights w (n, L) and matrices
    X (..., L, n, T), as (..., n, T), into out when given: the terms added
    left to right, which gives np.einsum("jl,...ljt->...jt", w, X)'s bits
    at a third of its time (up to the sign of a zero sum: einsum adds into
    +0.0).  The weights are repeated along T, so each product runs over
    whole rows rather than T-element pieces, at half the time at T = 2."""
    w = np.repeat(np.asarray(w).T[:, :, None], X.shape[-1], axis=2)  # (L, n, T)
    out = np.multiply(w[0], X[..., 0, :, :], out=out)
    for l in range(1, len(w)):
        out += w[l] * X[..., l, :, :]
    return out


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
    absorbed by the modulo reduction.  The answer is the one simulate_codec's
    batch decode gives the same observation, bit for bit.
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


def _fine_min_sq(lat: ConstructionALattice) -> float:
    """d^2 = 2 gamma^2 w_min: a lower bound on the squared norm of a fine
    vector outside the coarse lattice, where w_min is the least Hamming
    weight of a fine codeword outside the coarse code (leaders q^l_c..).
    Such a vector holds a nonzero x in O_K at w_min coordinates at least,
    and sigma_1(x)^2 + sigma_2(x)^2 >= 2 |N(x)| >= 2 there.  math.inf with
    l_f = l_c, where there is no such vector."""
    rows = lat.leader_residues[lat.Fq.q**lat.codes.l_c :]
    if not len(rows):
        return math.inf
    return 2.0 * lat.gamma**2 * int(np.count_nonzero(rows, axis=1).min())


def _certified_sq(lat: ConstructionALattice, candidate: EquationCandidate) -> float:
    """The squared norm below which a trial's effective noise
    e = b Y - sum_l sigma(a_l) X_l settles its decode, or 0.0 (no trial is
    settled) past the magnitude guard or with l_f = l_c.

    Geometry (bounded-distance decoding; Conway & Sloane, SPLAG, ch. 1).  The
    observation is S = lam + eps, lam = sum_l sigma(a_l) (c_l - R n_l) the
    exact fine point of the transmitted class (leaders c_l, the coarse points
    R n_l the fold took off).  A fine point t of another class has t - lam
    outside the coarse lattice, so ||S - t|| >= d - ||eps|| (_fine_min_sq).
    If every leader's computed total tau_k is within (mu/16) max(G_k, d^2)
    of its exact squared distance G_k, and ||eps|| < d/2 - mu d/16, then
    lam's leader totals at most eps^2 + mu d^2/16 and every other class at
    least min(d^2 (1 - mu/16), (d - ||eps||)^2 - mu d^2/16), which is more:
    the least total lies in the transmitted class, whatever its ties.

    Float error (u = 2^-53, N = n T; Higham, Accuracy and Stability, ch. 3).
    Per call: V = max |embedded leader entry|; r = r11 + |r12| + r22 of the
    decoder's factor; rho = ||R||_inf for the region R, so a dither or
    codeword entry is at most rho/2 (1 + N u); s = max_j sum_l |sigma_j(a_l)|;
    F = || |R| |R^-1| ||_inf + ||R R^-1 - I||_inf / u for the stored inverse;
    M = d + V + 2 r + s (V + rho) F.  The guard asks
    sqrt(N) (N + L + 10) M <= 2^21 d.  On a trial with ||e|| < d/2:
    - an embedded ring element gamma (a + b theta_j) is off by at most
      8 u gamma (|sigma_1| + |sigma_2|), since |b| = |sigma_1 - sigma_2| /
      sqrt(disc);
    - the fold gives X_l - D_l = c_l - R n_l + phi_l with
      |phi_l| <= (2 N + 50) u (V + rho) F: the coarse coordinates' product,
      the inverse's residual, and R's and c_l's own errors;
    - so every entry of S - lam - e is at most 8 (N + L + 10) u M (both
      sums carry |b Y| <= d + s rho), and ||eps|| - ||e|| <= 2^-28 d;
    - each window residual the decoder forms is within delta <= 2^8 u M of
      the exact one (every term is at most M, and the LLL-reduced ideal
      basis has |z_1| ||b_1|| + |z_2| ||b_2|| <= 2.01 ||z_1 b_1 + z_2 b_2||,
      which bounds the QR factor's backward error), and the window holds
      the nearest point, so a table entry is within
      8 (delta sqrt(g) + delta^2 + u g) of its exact g, and tau_k within
      2^-25 max(G_k, d^2) of G_k.
    A computed ||e||^2 under (d^2/4)(1 - mu), with mu = 2^-20, gives
    ||e|| < (d/2)(1 - mu/4) (its N-term sum is within N u < mu/4), so
    ||eps|| < d/2 - mu d/16, and the decode is the transmitted class.  The
    guard depends on the call alone: on a certified trial every magnitude
    above is bounded by M, whatever the noise of the other trials.
    """
    d2 = _fine_min_sq(lat)
    d = math.sqrt(d2)
    if not 0.0 < d < math.inf:
        return 0.0
    R, R_inv = lat.region_scaled, lat.region_inv
    N, L = len(R), candidate.sigma.shape[1]
    fold = (np.abs(R) @ np.abs(R_inv)).sum(axis=1).max()
    fold += np.abs(R @ R_inv - np.eye(N)).sum(axis=1).max() / 2.0**-53
    rho = float(np.abs(R).sum(axis=1).max())
    V = float(np.abs(lat.embedded_leaders).max())
    s = float(np.abs(candidate.sigma).sum(axis=1).max())
    r = float(np.abs(lat._cvp_r).sum())
    M = d + V + 2.0 * r + s * (V + rho) * float(fold)
    if not math.sqrt(N) * (N + L + 10) * M <= _CERT_GUARD * d:
        return 0.0
    return d2 / 4.0 * (1.0 - _CERT_MARGIN)


def _uncertified(Y: np.ndarray, U: np.ndarray, b: np.ndarray, bound: float) -> np.ndarray:
    """Indices of the trials whose effective noise e = b Y - U is not under
    the bound, for channel outputs Y and weighted codewords
    U = sum_l sigma(a_l) X_l, both (B, n, T); e is formed in Y."""
    np.multiply(Y, np.repeat(np.asarray(b)[:, None], Y.shape[-1], axis=1), out=Y)
    Y -= U
    e = Y.reshape(len(Y), -1)
    return np.flatnonzero(~(np.einsum("ij,ij->i", e, e) < bound))


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

    A trial whose effective noise lies well inside the fine lattice's
    packing ball decodes to its transmitted class (_certified_sq), so it
    counts as correct without a decode; only the other trials reach the
    decoder, whose answer for a trial does not depend on the batch around
    it.  The error count is the one decoding every trial gives.

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
    bound = _certified_sq(lat, candidate)

    rng = np.random.default_rng(seed)
    errors = certified = 0
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
        X = encode(lat, w, D)
        Y = _block_sum(ch.h, X)
        Y += noise
        # the weighted codewords take the noise's buffer, so the codewords
        # are freed before the observations are formed
        _block_sum(candidate.sigma, X, out=noise)
        del X
        S = _observation(Y, candidate, D)
        del D
        keep = _uncertified(Y, noise, candidate.b, bound)
        del Y, noise
        # the decoder gets only the rows the certificate leaves, and the
        # effective noise and the index are freed before it runs
        certified += m - len(keep)
        S, w = S[keep], w[keep]
        del keep
        dec = _index_digits(_decode_leader_indices(lat, S), q, c.l_c, c.l_f)
        del S

        truth = np.zeros((len(w), l_m), dtype=np.int64)
        for l in range(L):
            truth = lat.Fq.add(truth, lat.Fq.mul(g[l], w[:, l, :]))
        errors += int(np.count_nonzero(np.any(dec != truth, axis=1)))
        done += m

    rate = errors / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return SimResult(
        error_rate=rate, stderr=stderr, errors=errors, trials=trials, certified=certified
    )
