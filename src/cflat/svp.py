"""Coefficient search as a shortest-vector problem.

The quadratic form f(a) = sum_j sigma_j(a)^T M_j sigma_j(a) over ring
coefficient vectors equals ||Bbar atilde||^2 on an explicit integer lattice,
built from closed-form square roots of the per-block Gram matrices and the
field embedding matrix.
The SVP is solved exactly, by LLL then Schnorr-Euchner enumeration
(Schnorr and Euchner, Math. Programming 1994); a brute-force box search is
kept as an independent oracle.  The sweep builds and checks its bases, and
runs the LLL, over a batch of channels at once, with the floating-point
operations of a single call: the LLL (Lenstra, Lenstra and Lovasz, Math.
Ann. 1982) in lockstep, each step run in place on the bases at one loop
index, in passes up and then down the indices.
The bases of all its ring schemes are built and searched together, a
chunk of channels at a time.  Where the enumeration can return only the
first reduced vector it is skipped; the other bases of up to six columns
are scored at once on a box of reduced coordinates that provably holds
the enumeration's answer, with its arithmetic (Fincke and Pohst, Math.
Comp. 1985, for the box).  Only ties, near ties, wider boxes and bases of
more than six columns are enumerated basis by basis.  Every
shortest-vector enumeration stops at a node budget with SearchTooLarge.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import (
    BlockFadingChannel,
    EquationCandidate,
    _am_terms,
    _block_terms,
    _dot,
    _rate_from_quad_form,
    _user_columns,
    am_rate,
)
from .numfield import NumberField, RingElement

__all__ = [
    "NonFiniteBasis",
    "RankDeficient",
    "TooLarge",
    "SearchTooLarge",
    "SVPResult",
    "build_search_basis",
    "shortest_vector",
    "brute_force_shortest",
    "best_equation",
    "best_integer_block",
    "minkowski_bound",
]

LLL_DELTA = 0.99
_REL_TIE = 1e-9
# rank guard: a reduced basis whose Gram-Schmidt lengths span more than
# 1 / _RANK_RATIO is numerically rank deficient
_RANK_RATIO = 1e-12
# a shortest-vector enumeration stops past this many nodes: at most about
# 0.6 s of walk, at the 2.4 us a node measured in dimension 40 on a 2.1 GHz
# Xeon (an L = 20 ring search needs 87 k nodes at 60 dB, 8.7 M at 120 dB),
# and over 700 times the 350 nodes of the largest search in the tests and
# the benchmark
_NODE_BUDGET = 250_000


class RankDeficient(ValueError):
    """Basis does not have full column rank."""


class NonFiniteBasis(ValueError):
    """A basis entry is not finite, or a squared column norm is not 0 or a
    normal float."""


class TooLarge(ValueError):
    """Brute-force search box is empty or too large to enumerate."""


class SearchTooLarge(ValueError):
    """A shortest-vector enumeration needs more than _NODE_BUDGET nodes.
    Names the search dimension, and the SNR P unless it is NaN (unknown)."""

    def __init__(self, dim: int, P: float = math.nan):
        at = "" if math.isnan(P) else f" at {10.0 * math.log10(P):g} dB"
        super().__init__(
            f"shortest-vector search in dimension {dim}{at} needs more than "
            f"{_NODE_BUDGET} enumeration nodes"
        )
        self.dim = dim


def _gram_sqrt(h: np.ndarray, P) -> np.ndarray:
    """Symmetric square roots R_j = I - beta_j h_j h_j^T of the block Gram
    matrices M_j = R_j^2 for the rows h_j of h (..., L), leading axes kept,
    with r_j = sqrt(1 + P||h_j||^2) and beta_j = P / (r_j (1 + r_j));
    det R_j = 1 / r_j.  P is a float, or an array over h's first axis."""
    r = np.sqrt(1.0 + P * _dot(h.T, h.T))
    beta = (P / (r * (1.0 + r))).T
    return np.eye(h.shape[-1]) - beta[..., None, None] * (h[..., :, None] * h[..., None, :])


@dataclass(frozen=True)
class SVPResult:
    coords: np.ndarray  # nonzero integer vector atilde
    norm_sq: float
    node_count: int  # enumeration nodes


def build_search_basis(
    field: NumberField | None, ch: BlockFadingChannel
) -> np.ndarray:
    """The (nL, L deg) generator matrix Bbar of the coefficient-search lattice.

    Columns are the lattice generators, indexed by the interleaved ring
    coordinates of a (user-major): ||Bbar @ atilde||^2 = f(a).  For plain
    integer coefficients (field=None) Bbar is the nL x L stack of the
    per-block Gram square roots.

    Rows are grouped by fading block, one row per user: block j's rows are
    R_j (x) phi_j with R_j the Gram square root and phi_j = (sigma_j(1),
    sigma_j(theta)) the field embedding row, so user l's column pair carries
    sigma_j of a_l's two coordinates.
    """
    return np.ascontiguousarray(_search_bases([field], ch.h[None], ch.P)[0])


def _search_bases(fields: list, h: np.ndarray, P) -> np.ndarray:
    """build_search_basis for each field of the list (None: over Z) and each
    channel of h (batch, n, L), at the SNR P, a float or an array (batch,):
    a (len(fields) batch, nL, L deg) array whose item k batch + i is field
    k's basis for channel i.  The bases are built in the column layout (L
    deg, nL, len(fields) batch) and returned as its transpose, which
    _finite_column_batch reads without a copy."""
    size, n, L = h.shape
    embs = []
    for field in fields:
        if field is None:
            embs.append(np.ones((n, 1)))
        elif n != field.degree:
            raise ValueError(f"field degree {field.degree} != block count {n}")
        else:
            embs.append(field.embedding)
    emb = np.array(embs)
    deg = emb.shape[2]
    out = np.empty((L * deg, n * L, len(fields) * size))
    # entry (l deg + e, j L + r, k batch + i) is R_j[r, l] sigma_j(e-th basis
    # element of field k) for channel i; a reshape that only splits axes is
    # a view, so the product lands in out
    np.multiply(
        _gram_sqrt(h, P).transpose(3, 1, 2, 0)[:, None, :, :, None],
        emb.transpose(2, 1, 0)[:, :, None, :, None],
        out=out.reshape(L, deg, n, L, len(fields), size),
    )
    return out.T


def _lll_reduce(rows):
    """Floating-point LLL on a list of basis row vectors.

    Returns (reduced, transform, mu, norms): reduced[i] = sum_k
    transform[i][k]*rows[k], transform unimodular, and the reduced rows' GSO.
    GSO row k is recomputed from b[k] whenever the loop reaches k: updating
    it across swaps loses high-SNR bases' small norms to rounding.
    _lll_batch runs the same arithmetic over a batch.
    """
    m = len(rows)
    b = [[float(x) for x in r] for r in rows]
    T = [[1 if i == k else 0 for k in range(m)] for i in range(m)]
    mu = [[float(i == j) for j in range(m)] for i in range(m)]  # mu[i][i] = 1
    norms = [0.0] * m
    star = [None] * m
    k = 0
    while k < m:
        v = b[k]
        for j in range(k):
            mu[k][j] = c = _dot(b[k], star[j]) / norms[j]
            v = [x - c * y for x, y in zip(v, star[j])]
        star[k] = v
        norms[k] = _dot(v, v)
        if norms[k] <= 0.0:
            raise RankDeficient("basis is numerically rank deficient")
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                T[k] = [x - q * y for x, y in zip(T[k], T[j])]
                for jj in range(j + 1):
                    mu[k][jj] -= q * mu[j][jj]
        if k == 0 or norms[k] >= (LLL_DELTA - mu[k][k - 1] * mu[k][k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            T[k], T[k - 1] = T[k - 1], T[k]
            k -= 1
    return b, T, mu, norms


def _lll_batch(cols: np.ndarray):
    """_lll_reduce on each basis of a batch, in lockstep: cols (m, dim,
    batch) as _finite_column_batch returns.  Each basis keeps its own loop
    index k; a pass runs one step of _lll_reduce's loop for the unfinished
    bases at k = 1, then for those at k = 2, and so on up to m - 1, then
    down again to k = 1.  A step runs on every basis in place, masked to
    the bases at its k, and masks stand for the loop's branches.  Step k = 0
    only sets b*_0 = b_0 and ||b*_0||^2: it runs before the loop, and then
    inside the step at k = 1 for the bases that swap there.  The
    floating-point operations are _lll_reduce's in its order, so b, T, mu
    and norms are bit-equal to its output.

    Returns (b, T, mu, norms, exact), with b (m, dim, batch), T and mu (m,
    m, batch) and norms (m, batch).  T is held as doubles.  `exact` is False
    for a basis that reached a Gram-Schmidt norm that is not positive and
    finite (where _lll_reduce raises, or its float arithmetic has left the
    finite range), or a transform row update whose entries might reach 2^53,
    beyond which a double no longer holds every integer; such a basis leaves
    the loop, its outputs are not meaningful, and the caller runs it through
    _lll_reduce.
    """
    m, dim, size = cols.shape
    # row i of every basis is (max|T_i|, b_i, T_i, mu_i, ||b*_i||^2), each
    # entry an array over the batch: a size-reduction step updates one slice
    # of a row, a swap another; b*_i is kept apart, as only the loop reads it
    rows = np.zeros((m, dim + 2 * m + 2, size))
    rows[:, 0] = 1.0
    rows[:, 1 : dim + 1] = cols
    rows[:, dim + 1 : dim + m + 1] = rows[:, dim + m + 1 : -1] = np.eye(m)[:, :, None]
    star = np.zeros((m, dim, size))
    star[0] = cols[0]
    rows[0, -1] = n0 = _dim_sum(cols[0] * cols[0])
    exact = (n0 > 0.0) & (n0 < math.inf)
    k = np.ones(size, dtype=np.intp)
    # the unselected bases' arithmetic is discarded, and may overflow or
    # divide by zero, as may a basis that leaves the loop early
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while ((k < m) & exact).any():
            for kv in [*range(1, m), *range(m - 2, 0, -1)]:
                sel = (k == kv) & exact
                if sel.any():
                    up, ok = _lll_step(kv, rows[: kv + 1], star, sel, m, dim)
                    np.copyto(k, np.where(up, kv + 1, max(kv - 1, 1)), where=sel)
                    np.copyto(exact, ok, where=sel)
    b, T, mu = np.split(rows[:, 1:-1], [dim, dim + m], axis=1)
    return b, T, mu, rows[:, -1], exact


def _lll_step(kv: int, rows: np.ndarray, star: np.ndarray, sel: np.ndarray, m: int, dim: int):
    """One pass of _lll_reduce's loop at k = kv >= 1, in place, on rows
    0..kv (kv + 1, width, batch) and b* of _lll_batch's bases where sel
    holds; at kv = 1 also the pass at k = 0 that follows a swap.  Returns
    per basis whether it goes up (True where sel does not hold), and
    whether it is still exact."""
    b, T, norms = rows[:, 1 : dim + 1], rows[:, dim + 1 : dim + m + 1], rows[:, -1]
    mu = rows[:, dim + m + 1 : -1]
    c = _dim_sum(b[kv] * star[:kv]) / norms[:kv]
    np.copyto(mu[kv, :kv], c, where=sel)
    v = b[kv]
    for j in range(kv):
        v = v - c[j] * star[j]
    np.copyto(star[kv], v, where=sel)
    nk = _dim_sum(v * v)
    np.copyto(norms[kv], nk, where=sel)
    ok = (nk > 0.0) & (nk < math.inf)
    # every partial sum of T[kv] - sum_j q_j T[j] is an exact integer while
    # max|T[kv]| + sum_j |q_j| max|T[j]| < 2^53; that sum of nonnegative
    # integers, computed in floats, is below 2^53 exactly when the true sum is
    tmax = rows[:, 0]
    reach = tmax[kv]
    for j in range(kv - 1, -1, -1):
        q = np.rint(mu[kv, j])
        reach = reach + np.abs(q) * tmax[j]
        # b[kv], T[kv] and mu[kv][:j + 1]
        w = dim + m + j + 2
        np.subtract(rows[kv, 1:w], q * rows[j, 1:w], out=rows[kv, 1:w], where=sel & (q != 0.0))
    ok &= reach < 2.0**53
    np.copyto(tmax[kv], np.abs(T[kv]).max(axis=0), where=sel)
    m1 = mu[kv, kv - 1]
    up = (nk >= (LLL_DELTA - m1 * m1) * norms[kv - 1]) | ~sel
    # swap max|T|, b and T of rows kv - 1 and kv where the Lovasz test fails
    pair = rows[kv - 1 : kv + 1, : dim + m + 1]
    pair[...] = np.where(up, pair, pair[::-1])
    if kv == 1:
        # k = 0: b*_0 = b_0 and its norm, as every basis already holds
        # unless it has just swapped
        star[0] = b[0]
        norms[0] = n0 = _dim_sum(b[0] * b[0])
        ok &= (n0 > 0.0) & (n0 < math.inf)
    return up, ok


def _dim_sum(p: np.ndarray) -> np.ndarray:
    """p summed over its second-to-last axis left to right, as _dot sums."""
    acc = p[..., 0, :]
    for i in range(1, p.shape[-2]):
        acc = acc + p[..., i, :]
    return acc


def _enumerate(R, bound_sq, shrink=True, target=None):
    """Schnorr-Euchner enumeration over an upper-triangular factor R.

    Finds integer vectors z with ||R z - target||^2 <= bound, visiting each
    level's candidates outward from its centre; without a target the centre
    is the origin (a shortest-vector search) and the zero vector is never
    emitted, while with a target (a closest-point search, given in R's
    triangular frame) every vector is, the zero vector included.  With
    shrink=True the bound tightens as better vectors are found and all
    candidates tied with the minimum (relative _REL_TIE) are collected; with
    shrink=False every vector inside the fixed radius is returned.  Returns
    (candidates, node_count) with candidates as (dist, z list) pairs.  With
    shrink=True, raises SearchTooLarge once the walk has visited more than
    _NODE_BUDGET nodes, checked as it climbs a level.
    """
    k = len(R)
    y = [0.0] * k if target is None else [float(t) for t in target]
    best = float(bound_sq)
    limit = best * (1.0 + _REL_TIE)
    cands = []
    z = [0] * k
    center = [0.0] * k
    step = [0] * k
    partial = [0.0] * (k + 1)
    i = k - 1
    c = center[i] = y[i] / R[i][i]
    z[i] = round(c)
    step[i] = 1 if c - z[i] >= 0 else -1
    nodes = 0
    cap = _NODE_BUDGET if shrink else math.inf
    while True:
        nodes += 1
        w = (z[i] - center[i]) * R[i][i]
        d = partial[i + 1] + w * w
        if d <= limit:
            if i == 0:
                if target is not None or any(z):
                    if shrink and d < best * (1.0 - 1e-12):
                        best = d
                        limit = best * (1.0 + _REL_TIE)
                        cands = [(d, z.copy())]
                    else:
                        cands.append((d, z.copy()))
                z[0] += step[0]
                step[0] = -step[0] - (1 if step[0] >= 0 else -1)
            else:
                partial[i] = d
                i -= 1
                # left to right from 0.0: builtin sum is compensated from
                # Python 3.12, so its bits depend on the interpreter
                acc = 0.0
                for j in range(i + 1, k):
                    acc = acc + R[i][j] * z[j]
                c = (y[i] - acc) / R[i][i]
                center[i] = c
                z[i] = round(c)
                step[i] = 1 if c - z[i] >= 0 else -1
        else:
            i += 1
            if i == k:
                break
            if nodes > cap:
                raise SearchTooLarge(k)
            z[i] += step[i]
            step[i] = -step[i] - (1 if step[i] >= 0 else -1)
    if shrink:
        cands = [(d, zz) for d, zz in cands if d <= best * (1.0 + _REL_TIE)]
    return cands, nodes


def _reduced_factor(cols: list):
    """LLL on the basis columns (lists of floats): (reduced rows, transform,
    R), with the upper factor R[j][i] = mu[i][j] sqrt(B_j) of the reduced
    basis.  Raises if rank deficient."""
    reduced, T, mu, norms = _lll_reduce(cols)
    diag = [math.sqrt(x) for x in norms]
    if min(diag) < _RANK_RATIO * max(diag):
        raise RankDeficient("basis is numerically rank deficient")
    return reduced, T, [[row[j] * d for row in mu] for j, d in enumerate(diag)]


def _normalize_sign(a: tuple) -> tuple:
    for x in a:
        if x != 0:
            return a if x > 0 else tuple(-y for y in a)
    return a


def _original_coords(T, cands) -> set[tuple]:
    """Sign-normalized coordinates, in the basis before LLL, of enumerated
    vectors z given in the reduced basis (transform T)."""
    cols = list(zip(*T))
    return {
        _normalize_sign(tuple(int(_dot(zz, col)) for col in cols)) for _, zz in cands
    }


def _norm_sq(cols, a):
    """||sum_c a_c cols[c]||^2 with every sum taken left to right; cols[c][r]
    and a[c] are numbers, or arrays over a batch."""
    total = 0.0
    for r in range(len(cols[0])):
        v = cols[0][r] * a[0]
        for c in range(1, len(cols)):
            v = v + cols[c][r] * a[c]
        total = total + v * v
    return total


def _pick_candidate(cols, coord_set) -> tuple[tuple, float]:
    """Deterministic tie-break over the basis columns cols: smallest norm,
    then the lexicographically smallest sign-normalized coordinate vector."""
    scored = {a: _norm_sq(cols, a) for a in coord_set}
    nmin = min(scored.values())
    a_best = min(a for a, s in scored.items() if s <= nmin * (1.0 + _REL_TIE))
    return a_best, scored[a_best]


def _finite_columns(basis: np.ndarray) -> list:
    """The basis columns as lists of Python floats; raises NonFiniteBasis
    unless every entry is finite and every squared column norm is 0 or a
    normal float, so a first size-reduction coefficient u.v / ||u||^2 stays
    below sqrt(max / min) < max (Cauchy-Schwarz)."""
    cols = basis.T.tolist()
    for j, col in enumerate(cols):
        norm_sq = _dot(col, col)
        if not math.isfinite(norm_sq):
            if not all(math.isfinite(x) for x in col):
                raise NonFiniteBasis(f"basis column {j} has a non-finite entry")
            raise NonFiniteBasis(f"squared norm of basis column {j} overflows")
        if 0.0 < norm_sq < sys.float_info.min:
            raise NonFiniteBasis(f"squared norm of basis column {j} is subnormal")
    return cols


def _finite_column_batch(bases: np.ndarray) -> np.ndarray:
    """_finite_columns on each basis of a (batch, m, k) array, raising its
    error for the first basis that fails.  Returns the columns as a (k, m,
    batch) array, so cols[c][r] is an array over the batch."""
    cols = np.ascontiguousarray(bases.transpose(2, 1, 0))
    with np.errstate(over="ignore"):  # an overflowing norm is caught below
        norms = np.array([_dot(c, c) for c in cols])
    bad = ~np.isfinite(norms) | ((0.0 < norms) & (norms < sys.float_info.min))
    for basis in bases[bad.any(axis=0)]:
        _finite_columns(basis)
    return cols


def _lll_shortest(cols: list) -> SVPResult:
    """LLL then full Schnorr-Euchner enumeration with initial radius the
    shortest LLL vector."""
    reduced, T, R = _reduced_factor(cols)
    return _search_reduced(cols, T, R, min(_dot(v, v) for v in reduced))


def _search_reduced(cols: list, T, R, bound: float) -> SVPResult:
    """The enumeration of _lll_shortest over the factor R of the basis
    columns cols reduced by the integer transform T, from radius bound."""
    cands, nodes = _enumerate(R, bound, shrink=True)
    if not cands:
        raise RankDeficient("enumeration found no lattice vector")
    a, norm_sq = _pick_candidate(cols, _original_coords(T, cands))
    if norm_sq == 0.0:
        # a nonzero integer vector of length 0.0 proves the dependence
        raise RankDeficient("basis is numerically rank deficient: a nonzero vector has norm 0.0")
    return SVPResult(coords=np.array(a, dtype=np.int64), norm_sq=norm_sq, node_count=nodes)


# bases per _lll_batch call, which bounds the work arrays held at once
_LLL_CHUNK = 4096


def _shortest_batch(bases: np.ndarray, P=None) -> tuple[np.ndarray, np.ndarray]:
    """shortest_vector on each basis of a (batch, m, k) array: coordinates
    (batch, k) as floats, and norms, through _lll_chunk, _LLL_CHUNK bases
    at a time.  The results equal shortest_vector's, and an error is the
    one a loop of shortest_vector calls raises first; a SearchTooLarge
    names the basis' SNR from P, a float or an array (batch,), when it is
    given."""
    cols = _finite_column_batch(bases)
    coords = np.empty((len(bases), len(cols)))
    norms = np.empty(len(bases))
    P = np.broadcast_to(math.nan if P is None else P, len(bases))
    for lo in range(0, len(bases), _LLL_CHUNK):
        part = slice(lo, lo + _LLL_CHUNK)
        coords[part], norms[part] = _lll_chunk(cols[..., part], P[part])
    return coords, norms


def _lll_chunk(cols: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lll_shortest on each basis of cols (k, m, batch): _lll_batch, then
    per basis the rank guard of _reduced_factor and the enumeration.  P
    (batch,) holds each basis' SNR for SearchTooLarge, NaN where unknown.

    The enumeration is skipped where its first comparisons show that it
    returns only +-b_1, the first reduced vector: R_00^2 is within the
    radius, which then stays below 4 R_00^2 and below every R_ii^2 with
    i >= 1.  The coordinates are then the sign-normalized row 0 of T.  For
    the other bases of at most _BOX_DIM columns, _box_shortest finds the
    enumeration's answer at once where it can.  Both kinds are
    sign-normalized and scored by _norm_sq, as _pick_candidate scores
    them.  The rest (ties, near ties, wide boxes, more columns, answers of
    squared norm 0.0) are enumerated one at a time, in order, so the first
    error is the one a loop of single calls raises; a SearchTooLarge names
    the basis' SNR.  A basis _lll_batch could not finish exactly, or that
    fails the rank guard, goes through _lll_shortest, which raises its
    error."""
    b, T, mu, norms, exact = _lll_batch(cols)
    # a basis that left _lll_batch early holds arbitrary values
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.sqrt(norms)
        exact &= diag.min(axis=0) >= _RANK_RATIO * diag.max(axis=0)
        bound = _dim_sum(b * b).min(axis=0)
        # _enumerate's radius after its first candidate, +-b_1 at R_00^2
        first = diag[0] * diag[0]
        best = np.where(first < bound * (1.0 - 1e-12), first, bound)
        limit = best * (1.0 + _REL_TIE)
        lone = (
            exact
            & (first <= bound * (1.0 + _REL_TIE))
            & (4.0 * first > limit)
            & (diag[1:] * diag[1:] > limit).all(axis=0)
        )
        lead = T[0].copy()
        box = np.flatnonzero(exact & ~lone) if len(T) <= _BOX_DIM else []
        solved = lone.copy()
        step = _BOX_CELLS // 3 ** len(T) + 1
        for lo in range(0, len(box), step):
            idx = box[lo : lo + step]
            # R[j][i] = mu[i][j] sqrt(B_j), as _reduced_factor builds it
            R = mu[..., idx].transpose(1, 0, 2) * diag[:, None, idx]
            found, z = _box_shortest(R, T[..., idx], bound[idx])
            solved[idx[found]] = True
            lead[:, idx[found]] = z[:, found]
        sign = lead[0]
        for x in lead[1:]:
            sign = np.where(sign == 0.0, x, sign)
        # + 0.0: a zero coordinate is +0.0, as in shortest_vector's integers
        lead = np.where(sign < 0.0, -lead, lead) + 0.0
        norm_sq = _norm_sq(cols, lead)
    solved &= norm_sq != 0.0
    coords = lead.T
    for i in np.flatnonzero(~solved):
        basis_cols = cols[..., i].tolist()
        try:
            if exact[i]:
                R = (mu[..., i].T * diag[:, i, None]).tolist()
                Ti = [[int(x) for x in row] for row in T[..., i].tolist()]
                res = _search_reduced(basis_cols, Ti, R, float(bound[i]))
            else:
                res = _lll_shortest(basis_cols)
        except SearchTooLarge as exc:
            raise SearchTooLarge(exc.dim, float(P[i])) from None
        coords[i], norm_sq[i] = res.coords, res.norm_sq
    return coords, norm_sq


# _lll_chunk box-scores bases of at most _BOX_DIM columns, whose boxes hold
# at most 364 points up to sign, _BOX_CELLS / 3^m + 1 bases per
# _box_shortest call, which bounds its work arrays
_BOX_DIM = 6
_BOX_CELLS = 1 << 15


def _box_shortest(R: np.ndarray, T: np.ndarray, bound: np.ndarray):
    """The answer of _search_reduced(., T, R, bound) for each factor R (m, m,
    batch) with transform T (m, m, batch), where it can be read off a box of
    coefficients at once: (found, coords), found (batch,) and the original
    coordinates z T (m, batch), not yet sign-normalized, where found.

    Every vector within the radius has |z_i| <= sqrt(bound) ||row_i(R^-1)||
    (Cauchy-Schwarz; widened by 1e-6 against rounding, which also covers
    the radius' _REL_TIE).  Where each such width is below 2, the
    enumeration's candidates lie in {-1, 0, 1}^m, and its squared distance
    for a given z does not depend on the path that reaches z: centres are
    left-to-right sums, partial sums run from the top level.  So each of the
    (3^m - 1) / 2 points up to sign is scored with that arithmetic, and
    d(-z) = d(z) bit for bit.  The enumeration's final radius ends within a
    factor (1 + _REL_TIE)(1 + 1e-12) of the minimum d_min, so where d_min
    is within its starting radius and no other point up to sign lies within
    d_min (1 + _REL_TIE)(1 + 1e-11), it returns just +-z for the minimizer
    z, and so does the box.  Ties, near ties, wider boxes and transforms
    whose z T could reach 2^52 are not found."""
    m, _, size = R.shape
    # row i of R^-1 is (e_i - sum_{k > i} R[i][k] row_k) / R[i][i]
    inv = [None] * m
    for i in range(m - 1, -1, -1):
        row = np.zeros((m, size))
        row[i] = 1.0
        for k in range(i + 1, m):
            row = row - R[i, k] * inv[k]
        inv[i] = row / R[i, i]
    widths = np.sqrt(bound) * np.sqrt(np.array([_dim_sum(x * x) for x in inv]))
    reach = np.abs(T[0])
    for x in T[1:]:
        reach = reach + np.abs(x)
    narrow = np.flatnonzero(
        (widths * (1.0 + 1e-6) < 2.0).all(axis=0) & (reach.max(axis=0) < 2.0**52)
    )
    pts = _box_points(m)
    d = _box_distances(R[..., narrow], pts)
    d_min = d.min(axis=0)
    near = (d <= d_min * (1.0 + _REL_TIE) * (1.0 + 1e-11)).sum(axis=0)
    found = np.zeros(size, dtype=bool)
    found[narrow] = (near == 1) & (d_min <= bound[narrow] * (1.0 + _REL_TIE))
    z = pts[d.argmin(axis=0)].T
    Tn = T[..., narrow]
    coords = np.zeros((m, size))
    acc = z[0] * Tn[0]
    for i in range(1, m):
        acc = acc + z[i] * Tn[i]
    coords[:, narrow] = acc
    return found, coords


def _box_distances(R: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """_enumerate's squared distance of each point z of pts (points, m) for
    each factor R (m, m, batch), as a (points, batch) array: per level from
    the top, centre (0 - sum_{j > i} R[i][j] z_j) / R[i][i] summed left to
    right from 0.0, then d = d + ((z_i - centre) R[i][i])^2 from 0.0."""
    m = len(pts[0])
    d = 0.0
    for i in range(m - 1, -1, -1):
        acc = 0.0
        for j in range(i + 1, m):
            acc = acc + R[i, j] * pts[:, j, None]
        w = (pts[:, i, None] - (0.0 - acc) / R[i, i]) * R[i, i]
        d = d + w * w
    return d


@functools.cache
def _box_points(m: int) -> np.ndarray:
    """The nonzero points of {-1, 0, 1}^m whose first nonzero entry is 1, as
    floats (points, m)."""
    box = itertools.product((0.0, 1.0, -1.0), repeat=m)
    return np.array([z for z in box if any(z) and _normalize_sign(z) == z])


def shortest_vector(basis: np.ndarray) -> SVPResult:
    """Exact SVP on the lattice generated by the basis columns: LLL then
    full Schnorr-Euchner enumeration with initial radius equal to the
    shortest LLL vector.  Ties
    within a relative _REL_TIE go to the lexicographically smallest
    sign-normalized coordinates.  Raises NonFiniteBasis if an entry is not
    finite or a squared column norm overflows or is subnormal, RankDeficient
    if the columns are numerically dependent: the reduced basis' Gram-Schmidt
    lengths lie more than 1 / _RANK_RATIO apart, or the shortest nonzero
    vector found has squared norm 0.0 in floats."""
    return _lll_shortest(_finite_columns(np.asarray(basis, dtype=float)))


def brute_force_shortest(basis: np.ndarray, bound: int) -> SVPResult:
    """Independent oracle: exhaustive search over the integer box
    ||atilde||_inf <= bound.  Raises NonFiniteBasis as shortest_vector does."""
    if bound < 1:
        raise TooLarge("search box is empty (bound must be >= 1)")
    basis = np.asarray(basis, dtype=float)
    cols = _finite_columns(basis)
    k = basis.shape[1]
    count = (2 * bound + 1) ** k
    if count > 10**8:
        raise TooLarge(f"box of {count} points exceeds the enumeration budget")
    axes = [np.arange(-bound, bound + 1)] * k
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    vecs = grid @ basis.T
    norms = np.einsum("ij,ij->i", vecs, vecs)
    nonzero = np.any(grid != 0, axis=1)
    nmin = norms[nonzero].min()
    tied = grid[nonzero & (norms <= nmin * (1.0 + _REL_TIE))]
    coord_set = {_normalize_sign(tuple(int(x) for x in row)) for row in tied}
    a, norm_sq = _pick_candidate(cols, coord_set)
    return SVPResult(
        coords=np.array(a, dtype=np.int64), norm_sq=norm_sq, node_count=count - 1
    )


def minkowski_bound(basis: np.ndarray) -> float:
    """sqrt(dim) |det|^(1/dim) upper bound on the first successive minimum.
    |det| is the product of the reduced basis' Gram-Schmidt lengths, so
    non-square bases work too; it is taken as a sum of logs, so no scale of
    the entries overflows or underflows.  Raises NonFiniteBasis as
    shortest_vector does, RankDeficient if the columns are numerically
    dependent."""
    R = _reduced_factor(_finite_columns(np.asarray(basis, dtype=float)))[2]
    k = len(R)
    logdet = 0.0
    for j in range(k):
        logdet = logdet + math.log(R[j][j])
    return math.sqrt(k) * math.exp(logdet / k)


def _coords_to_coefficients(field: NumberField | None, coords, L: int) -> tuple:
    if field is None:
        return tuple(int(x) for x in coords)
    deg = field.degree
    return tuple(
        RingElement(int(coords[l * deg]), int(coords[l * deg + 1])) for l in range(L)
    )


def best_equation(
    field: NumberField | None, ch: BlockFadingChannel
) -> EquationCandidate:
    """Rate-optimal coefficient vector over the ring (field=None: over Z,
    searching the Gram sum_j M_j instead)."""
    try:
        res = shortest_vector(build_search_basis(field, ch))
    except SearchTooLarge as exc:
        raise SearchTooLarge(exc.dim, ch.P) from None
    return am_rate(ch, _coords_to_coefficients(field, res.coords, ch.L), field)


def _ring_coords(fields: list, h: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The search coordinates of best_equation for each field of the list,
    (len(fields), batch, L deg), over the channels h (batch, n, L) at the
    SNRs P (batch,).  One _shortest_batch call takes every field's bases for
    a run of channels, at most _LLL_CHUNK bases: bases of the same shape
    share the lockstep LLL's steps, and only one chunk's bases are held at
    once."""
    size, n, L = h.shape
    coords = np.empty((len(fields), size, L * n))
    step = max(1, _LLL_CHUNK // len(fields))
    for lo in range(0, size, step):
        part = slice(lo, lo + step)
        bases = _search_bases(fields, h[part], P[part])
        found = _shortest_batch(bases, np.tile(P[part], len(fields)))[0]
        coords[:, part] = found.reshape(len(fields), -1, L * n)
    return coords


def _best_equation_rates(
    field: NumberField | None, h: np.ndarray, P: np.ndarray, coords=None
):
    """best_equation's rate_bits for each channel of a batch h (batch, n, L)
    at the SNRs P (batch,), from the search coordinates (batch, L deg) when
    they are given."""
    n, L = h.shape[1:]
    if coords is None:
        coords = _shortest_batch(_search_bases([field], h, P), P)[0]
    if field is None:
        sigma = [[coords[:, l] for l in range(L)]] * n
    else:
        deg = field.degree
        sigma = [
            [coords[:, l * deg] + coords[:, l * deg + 1] * th for l in range(L)]
            for th in field.theta
        ]
    return _rate_from_quad_form(n, _am_terms(_user_columns(h), sigma, P)[2])


def best_integer_block(h_j, P: float) -> tuple[tuple, float]:
    """Exact minimizer of a^T M a over nonzero integer vectors for one block."""
    R = _gram_sqrt(np.atleast_2d(np.asarray(h_j, dtype=float)), P)[0]
    try:
        res = shortest_vector(R)
    except SearchTooLarge as exc:
        raise SearchTooLarge(exc.dim, P) from None
    return tuple(int(x) for x in res.coords), res.norm_sq


def _naive_rates(h: np.ndarray, P: np.ndarray) -> np.ndarray:
    """naive_rate's rate for each channel of a batch h (batch, n, L) at the
    SNRs P (batch,)."""
    best = 0.0
    for j, gains in enumerate(_user_columns(h)):
        coords = _shortest_batch(_gram_sqrt(h[:, j], P), P)[0]
        f = _block_terms(gains, list(coords.T), P)[0]
        best = np.maximum(best, _rate_from_quad_form(1, f))
    return best
