"""Coefficient search as a shortest-vector problem.

The quadratic form f(a) = sum_j sigma_j(a)^T M_j sigma_j(a) over ring
coefficient vectors equals ||Bbar atilde||^2 on an explicit integer lattice,
built from closed-form square roots of the per-block Gram matrices and the
field embedding matrix.
The SVP is solved exactly, by LLL then Schnorr-Euchner enumeration
(Schnorr and Euchner, Math. Programming 1994); a brute-force box search is
kept as an independent oracle.  The sweep builds and checks its bases, and
runs an odd-even LLL (Lenstra, Lenstra and Lovasz, Math. Ann. 1982;
Villard, ISSAC 1992), over a batch of channels at once, the ring bases of
all its schemes together and the integer ones together, a chunk at a time.
It takes an answer from its own reduction only where that answer is
certified to be the one of a single call: the first reduced vector where
it is provably the unique shortest, for the other bases of up to six
columns the minimum of a box of reduced coordinates that provably holds
every vector near it (Fincke and Pohst, Math. Comp. 1985), and for the
rest an enumeration over its own factor, each with a margin over the
rounding of both reductions.  Ties, near ties and skewed bases run the
single call, all of them in one queue in the order of cold calls.
Every shortest-vector enumeration stops at a node budget with
SearchTooLarge.
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
# rounding guard of the batch's certificates.  A reduction forms each
# reduced vector b_i = T_i B from the columns B_k by cancelling sums, so its
# computed b_i is off by u ||T_i||_1 max_k ||B_k|| (u = 2^-53) times a
# growth factor of its path, measured in exact arithmetic at most 9 (batch)
# and 4 (_lll_reduce) on sweep bases of 2 to 6 columns up to 300 dB, of 10
# and 20 columns up to 200 dB and of 4 columns at 600 to 2000 dB; beyond
# that it is assumed.  _ROUNDING / 2 = 32 u allows 3.5 times the largest.
# A vector w = z R of the reduced basis has |z_i| <= ||row_i(R^-1)|| ||w||
# (Cauchy-Schwarz), so its squared length is off by a relative eps =
# _ROUNDING max_k ||B_k|| sum_i ||row_i(R^-1)|| ||T_i||_1 at most, to first
# order; the batch's eps stands for both reductions'
_ROUNDING = 2.0**-47
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
            raise _degree_mismatch(field, n)
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


def _degree_mismatch(field: NumberField, n: int) -> ValueError:
    return ValueError(f"field degree {field.degree} != block count {n}")


# terms per statement of an unrolled dot product: a longer chain of + nests
# deeper than the compiler's recursion limit (from about 3,000 terms)
_DOT_TERMS = 256


@functools.cache
def _unrolled(n: int):
    """_lll_reduce's kernels for vectors of length n, compiled from source
    that holds only integer indices, once per n: dot(x, y) = x[0]*y[0] +
    x[1]*y[1] + ..., summed left to right as channel._dot's loop (which
    reads x[0] even when n is 0), in statements of _DOT_TERMS terms,
    sub(x, y, c) = [x[0] - c*y[0], ...], and sub_into(x, y, c), the same
    update in place on x[:n]."""
    terms = [f"x[{i}] * y[{i}]" for i in range(max(n, 1))]
    sums = "".join(
        f"\n    acc = {'acc + ' if lo else ''}{' + '.join(terms[lo : lo + _DOT_TERMS])}"
        for lo in range(0, len(terms), _DOT_TERMS)
    )
    rows = ", ".join(f"x[{i}] - c * y[{i}]" for i in range(n))
    steps = "".join(f"\n    x[{i}] -= c * y[{i}]" for i in range(n))
    namespace = {}
    exec(
        f"def dot(x, y):{sums}\n    return acc\n"
        f"def sub(x, y, c):\n    return [{rows}]\n"
        f"def sub_into(x, y, c):\n    pass{steps}\n",
        namespace,
    )
    return namespace["dot"], namespace["sub"], namespace["sub_into"]


def _lll_reduce(rows):
    """Floating-point LLL on a list of basis row vectors.

    Returns (reduced, transform, mu, norms): reduced[i] = sum_k
    transform[i][k]*rows[k], transform unimodular, and the reduced rows' GSO.
    GSO row k is recomputed from b[k] whenever the loop reaches k: updating
    it across swaps loses high-SNR bases' small norms to rounding.
    The dot products and row updates run as _unrolled's kernels, which do
    the plain loop's floating-point operations in its order: every output
    and the RankDeficient are bit-identical to it (tests/lll_oracle.py), so
    the growth factor measured for _lll_reduce in the _ROUNDING comment
    still holds.
    """
    m = len(rows)
    b = [[float(x) for x in r] for r in rows]
    T = [[1 if i == k else 0 for k in range(m)] for i in range(m)]
    mu = [[float(i == j) for j in range(m)] for i in range(m)]  # mu[i][i] = 1
    norms = [0.0] * m
    star = [None] * m
    dot, sub, _ = _unrolled(len(b[0]) if m else 0)
    sub_T = _unrolled(m)[1]
    sub_mu = [_unrolled(j + 1)[2] for j in range(m)]  # mu[k][:j + 1] update
    k = 0
    while k < m:
        bk, muk = b[k], mu[k]
        v = bk
        for j in range(k):
            muk[j] = c = dot(bk, star[j]) / norms[j]
            v = sub(v, star[j], c)
        star[k] = v
        norms[k] = dot(v, v)
        if norms[k] <= 0.0:
            raise RankDeficient("basis is numerically rank deficient")
        for j in range(k - 1, -1, -1):
            q = round(muk[j])
            if q:
                b[k] = sub(b[k], b[j], q)
                T[k] = sub_T(T[k], T[j], q)
                sub_mu[j](muk, mu[j], q)
        if k == 0 or norms[k] >= (LLL_DELTA - muk[k - 1] * muk[k - 1]) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            T[k], T[k - 1] = T[k - 1], T[k]
            k -= 1
    return b, T, mu, norms


def _lll_batch(cols: np.ndarray):
    """Odd-even LLL (Villard, ISSAC 1992) on each basis of a batch: cols (m,
    dim, batch) as _finite_column_batch returns.  A round recomputes the
    Gram-Schmidt data from b by modified Gram-Schmidt, size-reduces column
    by column (j = m - 2 down to 0, every row below j at once), then swaps
    every pair (k - 1, k) of the round's parity that fails the Lovasz test
    at LLL_DELTA, so every basis moves on every round.  A basis is done
    once a round makes no nonzero size reduction and every pair passes the
    test; it then stays as it is.  Once at most half of the bases a round
    works on are live (neither done nor past the 2^53 guard below), the
    live ones are gathered into smaller working arrays and the rest are
    written back.

    Every operation acts on each basis alone, so a basis that finishes
    exactly gets the same outputs, bit for bit, in any batch.  The working
    arrays hold at least two bases (a lone basis twice): numpy sums a dot
    product over an axis of length one in another order.

    Returns (b, T, mu, norms, exact), with b (m, dim, batch), T and mu (m,
    m, batch) and norms (m, batch).  T is held as doubles.  `exact` is False
    for a basis that reached a Gram-Schmidt norm that is not positive and
    finite, a size reduction whose transform entries might reach 2^53,
    beyond which a double no longer holds every integer, or that is not done
    within 64 m + 256 rounds; its outputs are not meaningful.
    """
    m, dim, size = cols.shape
    w = dim + m
    # row i of every basis is (b_i, T_i, mu_i, ||b*_i||^2), each entry an
    # array over the batch: one size-reduction update writes b, T and mu of
    # all rows below a column (mu_ii = 1 makes it mu_ij -= q), and a swap
    # exchanges b and T
    out = np.zeros((m, w + m + 1, size))
    out[:, :dim] = cols
    out[:, dim:w] = out[:, w:-1] = np.eye(m)[:, :, None]
    exact = np.zeros(size, dtype=bool)  # ok and done, once written back
    # the working rows are out itself, or a copy of out's bases at `held`
    held = None if size > 1 else np.zeros(2, dtype=np.intp)
    rows = out if held is None else out.take(held, axis=-1)
    ok = np.ones(rows.shape[2], dtype=bool)
    # column j's rounded coefficients, rows j + 1 to m - 1, are q[at[j]:]
    q = np.zeros((m * (m - 1) // 2, rows.shape[2]))
    at = [j * (2 * m - j - 1) // 2 for j in range(m)]
    sub = np.arange(1, m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rnd in range(64 * m + 256):
            mu, norms = rows[:, w:-1], rows[:, -1]
            # a norm of 0 or inf makes q, so the 2^53 test, NaN or inf
            v = rows[:, :dim].copy()
            for j in range(m):
                dots = np.einsum("idn,dn->in", v[j:], v[j])
                norms[j] = dots[0]
                if j + 1 < m:
                    c = np.divide(dots[1:], dots[0], out=mu[j + 1 :, j])
                    v[j + 1 :] -= c[:, None] * v[j]
            del v
            # row j is reduced at columns below j, after the rows below it,
            # so every T entry reached is at most max|T| (1 + (m - 1) max|q|),
            # and exact below 2^53
            tmax = np.abs(rows[:, dim:w]).max(axis=(0, 1))
            for j in range(m - 2, -1, -1):
                qj = np.rint(mu[j + 1 :, j], out=q[at[j] : at[j] + m - j - 1])
                rows[j + 1 :, : w + j + 1] -= qj[:, None] * rows[j, : w + j + 1]
            qmax = np.abs(q).max(axis=0, initial=0.0)
            ok &= tmax * (1.0 + (m - 1) * qmax) < 2.0**53
            m1 = mu[sub, sub - 1]
            fail = norms[1:] < (LLL_DELTA - m1 * m1) * norms[:-1]
            moving = fail.any(axis=0) | (qmax > 0.0)
            live = np.flatnonzero(ok & moving)
            if not len(live):
                break
            if 2 * len(live) <= len(ok) and max(len(live), 2) < len(ok):
                _write_back(out, exact, held, rows, ok & ~moving)
                live = np.repeat(live, 2) if len(live) == 1 else live
                held = live if held is None else held[live]
                # take, unlike indexing, keeps the batch axis contiguous
                rows, q, fail = (x.take(live, axis=-1) for x in (rows, q, fail))
                ok, moving = ok[live], moving[live]
            # fail[k] is pair (k, k + 1); the pairs of one parity are disjoint
            k = rnd % 2 if m > 2 else 0
            s = fail[k::2, None]
            lo, hi = rows[k : m - 1 : 2, :w], rows[k + 1 :: 2, :w]
            tmp = lo.copy()
            np.copyto(lo, hi, where=s)
            np.copyto(hi, tmp, where=s)
            del tmp
    _write_back(out, exact, held, rows, ok & ~moving)
    norms = out[:, -1]
    exact &= ((norms > 0.0) & (norms < math.inf)).all(axis=0)
    return out[:, :dim], out[:, dim:w], out[:, w:-1], norms, exact


def _write_back(out, exact, held, rows, finished) -> None:
    """Store _lll_batch's working rows and their flags (ok and done) at
    their bases `held` of out and exact (all of them where held is None:
    rows is out)."""
    if held is None:
        exact[:] = finished
    else:
        out[..., held], exact[held] = rows, finished


def _enumerate(R, bound_sq, shrink=True, target=None, tie=None):
    """Schnorr-Euchner enumeration over an upper-triangular factor R.

    Finds integer vectors z with ||R z - target||^2 <= bound, visiting each
    level's candidates outward from its centre; without a target the centre
    is the origin (a shortest-vector search) and the zero vector is never
    emitted, while with a target (a closest-point search, given in R's
    triangular frame) every vector is, the zero vector included.  With
    shrink=True the bound tightens as better vectors are found and all
    candidates tied with the minimum (relative _REL_TIE) are collected; with
    shrink=False every vector inside the fixed radius is returned.  A tie
    factor widens the window to every vector within tie times the minimum,
    including those found before it.  Returns
    (candidates, node_count) with candidates as (dist, z list) pairs.  With
    shrink=True, raises SearchTooLarge once the walk has visited more than
    _NODE_BUDGET nodes, checked as it climbs a level.
    """
    k = len(R)
    y = [0.0] * k if target is None else [float(t) for t in target]
    best = float(bound_sq)
    rel = 1.0 + _REL_TIE if tie is None else tie
    limit = best * rel
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
                        limit = best * rel
                        cands = [c for c in cands if tie and c[0] <= limit]
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
        cands = [(d, zz) for d, zz in cands if d <= limit]
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


def _finite_column_batch(bases: np.ndarray) -> tuple[np.ndarray, dict]:
    """_finite_columns on each basis of a (batch, m, k) array: the columns
    as a (k, m, batch) array, so cols[c][r] is an array over the batch, and
    {basis index: NonFiniteBasis} for each basis that fails, with the error
    _finite_columns raises on it."""
    cols = np.ascontiguousarray(bases.transpose(2, 1, 0))
    with np.errstate(over="ignore"):  # an overflowing norm is caught below
        norms = np.array([_dot(c, c) for c in cols])
    bad = ~np.isfinite(norms) | ((0.0 < norms) & (norms < sys.float_info.min))
    errors = {}
    for i in np.flatnonzero(bad.any(axis=0)).tolist():
        try:
            _finite_columns(bases[i])
        except NonFiniteBasis as exc:
            errors[i] = exc
    return cols, errors


def _lll_shortest(cols: list) -> SVPResult:
    """LLL then full Schnorr-Euchner enumeration with initial radius the
    shortest LLL vector."""
    reduced, T, R = _reduced_factor(cols)
    cands, nodes = _enumerate(R, min(_dot(v, v) for v in reduced), shrink=True)
    if not cands:
        raise RankDeficient("enumeration found no lattice vector")
    a, norm_sq = _pick_candidate(cols, _original_coords(T, cands))
    if norm_sq == 0.0:
        # a nonzero integer vector of length 0.0 proves the dependence
        raise RankDeficient("basis is numerically rank deficient: a nonzero vector has norm 0.0")
    return SVPResult(coords=np.array(a, dtype=np.int64), norm_sq=norm_sq, node_count=nodes)


# bases per _lll_batch call, which bounds the work arrays held at once
_LLL_CHUNK = 4096


def _shortest_batch(chunks, errors: dict) -> list:
    """shortest_vector on each basis of each chunk (bases, P, rank): a
    (batch, m, k) array of bases, their SNRs P (batch,), NaN where unknown,
    and their places rank (batch,) in the order of cold calls.  Gives each
    chunk's coordinates (batch, k) as floats, equal to shortest_vector's,
    NaN where the basis has no answer.

    A basis whose shortest_vector call would raise gets that error in
    errors under its rank; a SearchTooLarge names the basis' SNR.  errors
    may already hold errors of other searches.  _lll_chunk answers each
    chunk's bases where it can certify the answer, and the non-finite
    bases fail _finite_column_batch's check.  Once every chunk is
    certified, the rest run _lll_shortest one at a time, in rank order
    across all chunks, except those ranked after the first error recorded
    so far: they have no answer, as their results cannot change which
    error comes first."""
    out, held, queue = [], [], []
    for c, (bases, P, rank) in enumerate(chunks):
        cols, bad = _finite_column_batch(bases)
        coords, solved = _lll_chunk(cols)
        for i, exc in bad.items():
            errors[int(rank[i])] = exc
            solved[i] = False
        left = np.flatnonzero(~solved)
        coords[left] = math.nan
        out.append(coords)
        held.append((cols[..., left], P[left]))
        queue += [(int(rank[i]), c, j, i) for j, i in enumerate(left.tolist())]
    first = min(errors, default=math.inf)
    for r, c, j, i in sorted(queue):
        if r >= first:  # a non-finite basis, or one after the first error
            continue
        cols, P = held[c]
        try:
            res = _lll_shortest(cols[..., j].tolist())
        except SearchTooLarge as exc:
            errors[r] = SearchTooLarge(exc.dim, float(P[j]))
        except ValueError as exc:
            errors[r] = exc
        else:
            out[c][i] = res.coords
            continue
        first = r
    return out


def _lll_chunk(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_lll_shortest's answer on each basis of cols (k, m, batch), read off
    _lll_batch's reduction where it is certified: (coords, solved), each
    basis' coordinates (batch, k) where `solved` holds.

    The answer is certified where, in the batch's arithmetic, one vector
    up to sign is shorter than every other by the factor tie = (1 +
    _REL_TIE)(1 + 8 eps), where eps (_ROUNDING) bounds the relative
    rounding of either reduction's squared lengths: _lll_shortest's
    enumeration then holds just that vector within its tie window.  It is
    +-b_1, the first reduced vector, where every R_ii^2 with i >= 1 exceeds
    tie R_00^2, as a vector whose last nonzero coordinate is i has squared
    norm at least R_ii^2; for the other bases of at most _BOX_DIM columns
    whose box of coefficients is narrow, _box_shortest finds it where it
    can, and for the rest _enumerate over the batch's factor, its tie
    window widened to tie.  The coordinates are sign-normalized and scored
    by _norm_sq, as _pick_candidate scores them.  The rest are not solved:
    ties, near ties, answers of squared norm 0.0, enumerations past the
    node budget, and bases past the rounding or rank guards or that
    _lll_batch could not finish exactly."""
    b, T, mu, norms, exact = _lll_batch(cols)
    m = len(T)
    # a basis that left _lll_batch early holds arbitrary values
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diag = np.sqrt(norms)
        inv = _inverse_row_norms(mu, diag)
        colmax = np.sqrt((cols * cols).sum(axis=1).max(axis=0))
        eps = _ROUNDING * colmax * (inv * np.abs(T).sum(axis=1)).sum(axis=0)
        tie = (1.0 + _REL_TIE) * (1.0 + 8.0 * eps)
        # then _lll_reduce's basis passes _reduced_factor's rank guard: an
        # LLL-reduced basis at LLL_DELTA has Gram-Schmidt lengths at most
        # alpha^((m-1)/2) times the longest column and at least
        # alpha^((1-m)/2) lambda_1 >= alpha^((1-m)/2) min_i ||b*_i||, alpha
        # = 1 / (LLL_DELTA - 1/4)
        alpha = 1.0 / (LLL_DELTA - 0.25)
        low = _RANK_RATIO * alpha ** (m - 1) * colmax
        ok = exact & (8.0 * eps < 1.0) & (diag.min(axis=0) >= low)
        solved = ok & (norms[1:] > tie * norms[0]).all(axis=0)
        bound = (b * b).sum(axis=1).min(axis=0)
        # every vector within the radius bound tie^2 has |z_i| <= sqrt(bound)
        # tie ||row_i(R^-1)|| (Cauchy-Schwarz; widened by 1e-6 against
        # rounding): below 2, the box {-1, 0, 1}^m holds it
        narrow = (np.sqrt(bound) * tie * inv * (1.0 + 1e-6) < 2.0).all(axis=0)
        box = np.flatnonzero(ok & ~solved & narrow) if m <= _BOX_DIM else []
        lead = T[0].copy()
        step = _BOX_CELLS // 3**m + 1
        for lo in range(0, len(box), step):
            idx = box[lo : lo + step]
            # R[j][i] = mu[i][j] sqrt(B_j), as _reduced_factor builds it
            R = mu[..., idx].transpose(1, 0, 2) * diag[:, None, idx]
            found, z = _box_shortest(R, T[..., idx], bound[idx], tie[idx])
            solved[idx[found]] = True
            lead[:, idx[found]] = z[:, found]
        for i in np.flatnonzero(ok & ~solved):
            try:
                R = (mu[..., i].T * diag[:, i, None]).tolist()
                cands = _enumerate(R, bound[i] * tie[i], tie=float(tie[i]))[0]
            except SearchTooLarge:
                continue
            a = _original_coords(T[..., i].tolist(), cands)
            if len(cands) == 2 == 2 * len(a) and cands[0][0] <= bound[i] * tie[i]:
                (a,) = a
                solved[i] = max(map(abs, a)) < 2**52
                lead[:, i] = a
        del T, mu
        sign = lead[0]
        for x in lead[1:]:
            sign = np.where(sign == 0.0, x, sign)
        # + 0.0: a zero coordinate is +0.0, as in shortest_vector's integers
        lead = np.where(sign < 0.0, -lead, lead) + 0.0
        norm_sq = _norm_sq(cols, lead)
    return lead.T, solved & (norm_sq != 0.0)


def _inverse_row_norms(mu: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """||row_i(R^-1)|| (m, batch) for the factors R[j][i] = mu[i][j]
    diag[j] of a batch, mu (m, m, batch) and diag (m, batch), by
    back-substitution: row i of R^-1, zero before entry i, is (e_i -
    sum_{k > i} R[i][k] row_k) / R[i][i], with R[i][i] = diag[i]."""
    m = len(diag)
    inv = [None] * m  # entries i to m - 1 of row i
    for i in range(m - 1, -1, -1):
        row = np.zeros((m - i, diag.shape[1]))
        row[0] = 1.0
        for k in range(i + 1, m):
            row[k - i :] -= mu[k, i] * diag[i] * inv[k]
        inv[i] = row / diag[i]
    return np.sqrt(np.array([(x * x).sum(axis=0) for x in inv]))


# _lll_chunk box-scores bases of at most _BOX_DIM columns, whose boxes hold
# at most 364 points up to sign, _BOX_CELLS / 3^m + 1 bases per
# _box_shortest call, which bounds its work arrays
_BOX_DIM = 6
_BOX_CELLS = 1 << 15


def _box_shortest(R: np.ndarray, T: np.ndarray, bound: np.ndarray, tie: np.ndarray):
    """The shortest vector up to sign for each factor R (m, m, batch) with
    transform T (m, m, batch), whose vectors within the radius bound tie^2
    all lie in the box {-1, 0, 1}^m, where the box shows it to be shorter
    than every other vector by the factor tie (batch,), in R's arithmetic:
    (found, coords), found (batch,) and the original coordinates z T (m,
    batch), not yet sign-normalized, where found.

    Each of the (3^m - 1) / 2 points up to sign is scored with _enumerate's
    arithmetic.  The minimizer z is found where its squared length d_min
    is at most bound tie and no other point up to sign lies within d_min
    tie: every vector outside the box is longer than bound tie^2.  Ties,
    near ties and transforms whose z T could reach 2^52 are not found."""
    m, _, size = R.shape
    reach = np.abs(T[0])
    for x in T[1:]:
        reach = reach + np.abs(x)
    narrow = np.flatnonzero(reach.max(axis=0) < 2.0**52)
    pts = _box_points(m)
    d = _box_distances(R[..., narrow], pts)
    d_min = d.min(axis=0)
    near = (d <= d_min * tie[narrow]).sum(axis=0)
    found = np.zeros(size, dtype=bool)
    found[narrow] = (near == 1) & (d_min <= bound[narrow] * tie[narrow])
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


def _search_coords(fields: list, blocks: list, h: np.ndarray, P, rank: tuple, errors: dict):
    """The search coordinates over the channels h (batch, n, L) at the SNRs
    P, a float or an array (batch,), NaN where a search has no answer:
    best_equation's for each field of fields (len(fields), batch, L n), and
    for each kind of blocks (len(blocks), batch, L), best_equation's over Z
    for None and best_integer_block's for block j for j.  rank pairs their
    places in cold-call order, and errors gets each failed search's error
    under its rank.  A field whose degree is not n fails every item's
    search, item 0's first.

    The integer bases and the other fields' ring bases form two groups of
    one shape each, built and certified in chunks of at most _LLL_CHUNK
    bases: a run of channels with all the group's kinds, or a part of one
    channel's kinds where they do not fit.  Then one queue of single calls
    takes the uncertified bases of both groups in rank order
    (_shortest_batch)."""
    size, n, L = h.shape
    P = np.broadcast_to(P, size)
    ring = np.full((len(fields), size, L * n), math.nan)
    ints = np.full((len(blocks), size, L), math.nan)
    live = []
    for k, field in enumerate(fields):
        if field.degree == n:
            live.append(k)
        elif size:
            errors[int(rank[0][k, 0])] = _degree_mismatch(field, n)
    # each group's basis function, kinds, and their rows of the output and rank
    groups = [
        (_integer_bases, blocks, list(range(len(blocks))), ints, rank[1]),
        (_search_bases, [fields[k] for k in live], live, ring, rank[0]),
    ]
    parts = []
    for build, kinds, rows, out, r in groups:
        if not kinds:
            continue
        per = min(len(kinds), _LLL_CHUNK)
        run = _LLL_CHUNK // per
        for lo in range(0, size, run):
            part = slice(lo, lo + run)
            for k in range(0, len(kinds), per):
                parts.append((build, kinds[k : k + per], rows[k : k + per], out, r, part))
    chunks = (
        (build(kinds, h[part], P[part]), np.tile(P[part], len(kinds)), r[rows, part].ravel())
        for build, kinds, rows, _, r, part in parts
    )
    for (_, _, rows, out, _, part), coords in zip(parts, _shortest_batch(chunks, errors)):
        out[rows, part] = coords.reshape(len(rows), -1, out.shape[2])
    return ring, ints


def _integer_bases(blocks: list, h: np.ndarray, P) -> np.ndarray:
    """The integer search bases (len(blocks) batch, m, L) over the channels
    h (batch, n, L) at the SNRs P, item k batch + i for channel i, in
    _search_bases' layout: for kind None best_equation's over Z, for kind j
    best_integer_block's root of block j.  With a Z basis among them, m =
    nL and the (L, L) roots are padded with zero rows, which span the same
    lattice with the same coordinates and lengths: every sum over the rows
    only adds 0.0."""
    size, n, L = h.shape
    cols = np.zeros((L, n * L if None in blocks else L, len(blocks), size))
    for k, j in enumerate(blocks):
        if j is None:
            cols[..., k, :] = _search_bases([None], h, P).T
        else:
            cols[:, :L, k] = _gram_sqrt(h[:, j], P).T
    return cols.reshape(L, len(cols[0]), -1).T


def _am_rates(fields: list, h: np.ndarray, P, coords: list, rank: np.ndarray, errors: dict):
    """best_equation's rate_bits for each field of the list (None: over Z),
    (len(fields), batch), over the channels h (batch, n, L) at the SNRs P,
    from each field's search coordinates (batch, L deg), on the items whose
    search has an answer (coordinates not NaN), NaN elsewhere: one
    _am_terms call over every field's items, whose arithmetic acts element
    by element.  An item whose am_rate call would raise gets that error in
    errors under its rank (len(fields), batch)."""
    size, n, L = h.shape
    # a field of another degree than n has no answer at all
    live = [k for k, field in enumerate(fields) if field is None or field.degree == n]
    sigma = [[[] for _ in range(L)] for _ in range(n)]
    for k in live:
        field, c = fields[k], coords[k]
        for j in range(n):
            for l in range(L):
                if field is None:
                    sigma[j][l].append(c[:, l])
                else:
                    deg, th = field.degree, field.theta[j]
                    sigma[j][l].append(c[:, l * deg] + c[:, l * deg + 1] * th)
    out = np.full((len(fields), size), math.nan)
    if not live:
        return out
    keep = _answered(~np.isnan(np.concatenate([coords[k][:, 0] for k in live])))
    sigma = [[np.concatenate(s)[keep] for s in row] for row in sigma]
    hs = _user_columns(np.tile(h, (len(live), 1, 1))[keep])
    Ps = np.tile(np.broadcast_to(P, size), len(live))[keep]
    *_, f, failed = _am_terms(hs, sigma, Ps)
    rate, later = _rate_from_quad_form(n, f)
    for e, exc in {**later, **failed}.items():
        errors[int(rank[live].ravel()[keep][e])] = exc
    rates = np.full(len(live) * size, math.nan)
    rates[keep] = rate
    out[live] = rates.reshape(len(live), size)
    return out


def _answered(mask: np.ndarray):
    """An index of the items where mask holds: a slice, whose selections are
    views, where it holds for every item."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def best_integer_block(h_j, P: float) -> tuple[tuple, float]:
    """Exact minimizer of a^T M a over nonzero integer vectors for one block."""
    R = _gram_sqrt(np.atleast_2d(np.asarray(h_j, dtype=float)), P)[0]
    try:
        res = shortest_vector(R)
    except SearchTooLarge as exc:
        raise SearchTooLarge(exc.dim, P) from None
    return tuple(int(x) for x in res.coords), res.norm_sq


def _naive_rates(h: np.ndarray, P, coords: np.ndarray, rank: np.ndarray, errors: dict):
    """naive_rate's rate for each channel of a batch h (batch, n, L) at the
    SNRs P, a float or an array (batch,), from each block's search
    coordinates (n, batch, L): one _block_terms call over every block's
    items whose search has an answer (coordinates not NaN).  A block whose
    rate would raise gets that error in errors under its rank (n, batch);
    an item with no rate for some block has rate NaN."""
    size, n, L = h.shape
    s = coords.reshape(n * size, L)
    keep = _answered(~np.isnan(s[:, 0]))
    gains = h.transpose(1, 0, 2).reshape(n * size, L)[keep]
    Pb = np.tile(np.broadcast_to(P, size), n)[keep]
    f = _block_terms(list(gains.T), list(s[keep].T), Pb)[0]
    rate, failed = _rate_from_quad_form(1, f)
    for e, exc in failed.items():
        errors[int(rank.ravel()[keep][e])] = exc
    rates = np.full(n * size, math.nan)
    rates[keep] = rate
    best = 0.0
    for r in rates.reshape(n, size):
        best = np.maximum(best, r)
    return best
