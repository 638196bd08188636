"""Coefficient search as a shortest-vector problem.

The quadratic form f(a) = sum_j sigma_j(a)^T M_j sigma_j(a) over ring
coefficient vectors equals ||Bbar atilde||^2 on an explicit integer lattice,
built from closed-form square roots of the per-block Gram matrices and the
field embedding matrix.
The SVP is solved exactly: by Gauss-Lagrange reduction for a 2-column basis
(Nguyen and Stehle, ACM TALG 2009), otherwise by LLL, which the sweep starts
from the previous SNR point's transform (Wubben et al., IEEE SPM 2011), then
Schnorr-Euchner enumeration; a brute-force box search is kept as an
independent oracle.  The sweep builds and checks its bases, and runs the
Gauss path, over a batch of channels at once; LLL and enumeration run per
basis.
"""

from __future__ import annotations

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
# Gauss path: candidates this close to the shortest reduced vector go on to
# _pick_candidate, which applies _REL_TIE in the original basis
_GAUSS_TIE = 1e-6


class RankDeficient(ValueError):
    """Basis does not have full column rank."""


class NonFiniteBasis(ValueError):
    """A basis entry is not finite, or a squared column norm is not 0 or a
    normal float."""


class TooLarge(ValueError):
    """Brute-force search box is empty or too large to enumerate."""


def _gram_sqrt(h: np.ndarray, P: float) -> np.ndarray:
    """Symmetric square roots R_j = I - beta_j h_j h_j^T of the block Gram
    matrices M_j = R_j^2 for the rows h_j of h (..., L), leading axes kept,
    with r_j = sqrt(1 + P||h_j||^2) and beta_j = P / (r_j (1 + r_j));
    det R_j = 1 / r_j."""
    r = np.sqrt(1.0 + P * _dot(h.T, h.T).T)
    beta = P / (r * (1.0 + r))
    return np.eye(h.shape[-1]) - beta[..., None, None] * (h[..., :, None] * h[..., None, :])


@dataclass(frozen=True)
class SVPResult:
    coords: np.ndarray  # nonzero integer vector atilde
    norm_sq: float
    node_count: int  # enumeration nodes; size-reduction steps for 2 columns


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
    return _search_basis(field, ch.h, ch.P)


def _search_basis(field: NumberField | None, h: np.ndarray, P: float) -> np.ndarray:
    """build_search_basis for gains h (..., n, L) with leading batch axes."""
    n, L = h.shape[-2:]
    if field is None:
        emb = np.ones((n, 1))
    elif n != field.degree:
        raise ValueError(f"field degree {field.degree} != block count {n}")
    else:
        emb = field.embedding
    deg = emb.shape[1]
    blocks = _gram_sqrt(h, P)[..., None] * emb[:, None, None, :]
    return blocks.reshape(h.shape[:-2] + (n * L, L * deg))


def _lll_reduce(rows, start=None):
    """Floating-point LLL on a list of basis row vectors.

    Returns (reduced, transform, mu, norms): reduced[i] = sum_k
    transform[i][k]*rows[k], transform unimodular, and the reduced rows' GSO.
    GSO row k is recomputed from b[k] whenever the loop reaches k: updating
    it across swaps loses high-SNR bases' small norms to rounding.  With a
    unimodular integer `start`, LLL reduces the rows start @ rows and the
    transform starts at `start`, so it still maps the original rows.
    """
    m = len(rows)
    if start is None:
        b = [[float(x) for x in r] for r in rows]
        T = [[1 if i == k else 0 for k in range(m)] for i in range(m)]
    else:
        cols = list(zip(*rows))
        b = [[float(_dot(t, c)) for c in cols] for t in start]
        T = [list(t) for t in start]
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
        if k == 0 or norms[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            T[k], T[k - 1] = T[k - 1], T[k]
            k -= 1
    return b, T, mu, norms


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
    (candidates, node_count) with candidates as (dist, z list) pairs.
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
                c = (y[i] - sum(R[i][j] * z[j] for j in range(i + 1, k))) / R[i][i]
                center[i] = c
                z[i] = round(c)
                step[i] = 1 if c - z[i] >= 0 else -1
        else:
            i += 1
            if i == k:
                break
            z[i] += step[i]
            step[i] = -step[i] - (1 if step[i] >= 0 else -1)
    if shrink:
        cands = [(d, zz) for d, zz in cands if d <= best * (1.0 + _REL_TIE)]
    return cands, nodes


def _reduced_factor(cols: list, start=None):
    """LLL on the basis columns (lists of floats), from the transform `start`
    if given: (reduced rows, transform, R), with the upper factor
    R[j][i] = mu[i][j] sqrt(B_j) of the reduced basis.  Raises if rank
    deficient."""
    reduced, T, mu, norms = _lll_reduce(cols, start=start)
    diag = [math.sqrt(x) for x in norms]
    if min(diag) < 1e-12 * max(diag):
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


def _gauss_shortest(cols: list) -> SVPResult:
    """Shortest vector of a 2-column basis by Gauss-Lagrange reduction.

    The pair is swapped only when the norm strictly decreases, so the loop
    ends even where a float mu of 1/2 rounds the wrong way.  In the reduced
    pair (u, v) every vector other than +-u, +-v and +-(u +- v) is at least
    3||u||^2 long, and u + v and u - v cannot both tie with u, so u, v and
    u - sign(u.v) v, where within a relative _GAUSS_TIE of ||u||^2, hold all
    shortest vectors.  _pick_candidate scores them in the original basis, as
    the enumeration path does.  node_count is the number of size-reduction
    steps (>= 1).  _gauss_batch runs the same arithmetic over a batch.
    """
    u, v = cols
    tu, tv = (1, 0), (0, 1)  # coordinates of u and v in the original basis
    nu, nv = _dot(u, u), _dot(v, v)
    if nv < nu:
        u, v, tu, tv, nu, nv = v, u, tv, tu, nv, nu
    steps = 0
    while True:
        if nu <= 0.0:
            raise RankDeficient("basis is numerically rank deficient")
        steps += 1
        q = round(_dot(u, v) / nu)
        if q:
            v = [x - q * y for x, y in zip(v, u)]
            tv = (tv[0] - q * tu[0], tv[1] - q * tu[1])
            nv = _dot(v, v)
        if nv >= nu:
            break
        u, v, tu, tv, nu, nv = v, u, tv, tu, nv, nu
    uv = _dot(u, v)
    # the enumeration path's rank guard: Gram-Schmidt lengths within 1e12
    if nu < 1e-24 * (nv - uv * uv / nu):
        raise RankDeficient("basis is numerically rank deficient")
    limit = nu * (1.0 + _GAUSS_TIE)
    coord_set = {_normalize_sign(tu)}
    if nv <= limit:
        coord_set.add(_normalize_sign(tv))
    s = 1 if uv > 0 else -1
    if nu + nv - 2.0 * s * uv <= limit:
        coord_set.add(_normalize_sign((tu[0] - s * tv[0], tu[1] - s * tv[1])))
    a, norm_sq = _pick_candidate(cols, coord_set)
    return SVPResult(coords=np.array(a, dtype=np.int64), norm_sq=norm_sq, node_count=steps)


def _gauss_batch(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_gauss_shortest on each basis of a batch, with masks in place of its
    branches: cols (2, m, batch) as _finite_column_batch returns.  Returns
    the coordinates (batch, 2) and the norms.  The coordinates are held as
    doubles, exact integers below 2^53: a basis given in doubles resolves a
    skew of at most about 2^53, and the sweep's per-block bases stay below
    1e9 from 600 to 2500 dB."""
    size = cols.shape[2]
    u, v = cols
    one, zero = np.ones(size), np.zeros(size)
    tu, tv = np.array([one, zero]), np.array([zero, one])
    nu, nv = _dot(u, u), _dot(v, v)
    swap = nv < nu
    u, v, tu, tv, nu, nv = (
        np.where(swap, v, u), np.where(swap, u, v),
        np.where(swap, tv, tu), np.where(swap, tu, tv),
        np.where(swap, nv, nu), np.where(swap, nu, nv),
    )  # fmt: skip
    active = np.ones(size, dtype=bool)
    while active.any():
        if (nu[active] <= 0.0).any():
            raise RankDeficient("basis is numerically rank deficient")
        q = np.rint(_dot(u, v) / nu)
        step = active & (q != 0.0)
        v = np.where(step, v - q * u, v)
        tv = np.where(step, tv - q * tu, tv)
        nv = np.where(step, _dot(v, v), nv)
        active &= nv < nu
        u, v, tu, tv, nu, nv = (
            np.where(active, v, u), np.where(active, u, v),
            np.where(active, tv, tu), np.where(active, tu, tv),
            np.where(active, nv, nu), np.where(active, nu, nv),
        )  # fmt: skip
    uv = _dot(u, v)
    if (nu < 1e-24 * (nv - uv * uv / nu)).any():
        raise RankDeficient("basis is numerically rank deficient")
    limit = nu * (1.0 + _GAUSS_TIE)
    s = np.where(uv > 0, 1.0, -1.0)
    cands = [
        (tu, True),
        (tv, nv <= limit),
        (tu - s * tv, nu + nv - 2.0 * s * uv <= limit),
    ]
    scores, coords = [], []
    for t, included in cands:
        flip = (t[0] < 0) | ((t[0] == 0) & (t[1] < 0))
        t = np.where(flip, -t, t)
        coords.append(t)
        scores.append(np.where(included, _norm_sq(cols, t), np.inf))
    cut = np.minimum.reduce(scores) * (1.0 + _REL_TIE)
    best = np.full((2, size), np.inf)
    norm_sq = np.zeros(size)
    for t, score in zip(coords, scores):
        lex = (t[0] < best[0]) | ((t[0] == best[0]) & (t[1] < best[1]))
        take = (score <= cut) & lex
        best = np.where(take, t, best)
        norm_sq = np.where(take, score, norm_sq)
    return best.T, norm_sq


def _lll_shortest(cols: list, start=None):
    """LLL (from the transform `start` if given) then full Schnorr-Euchner
    enumeration with initial radius the shortest LLL vector.  Returns
    (SVPResult, LLL transform)."""
    reduced, T, R = _reduced_factor(cols, start)
    bound = min(_dot(v, v) for v in reduced)
    cands, nodes = _enumerate(R, bound, shrink=True)
    if not cands:
        raise RankDeficient("enumeration found no lattice vector")
    a, norm_sq = _pick_candidate(cols, _original_coords(T, cands))
    res = SVPResult(coords=np.array(a, dtype=np.int64), norm_sq=norm_sq, node_count=nodes)
    return res, T


def _shortest_batch(bases: np.ndarray, starts=None) -> tuple[np.ndarray, np.ndarray]:
    """shortest_vector on each basis of a (batch, m, k) array: coordinates
    (batch, k) as floats, and norms.  Two columns go through _gauss_batch;
    otherwise each basis through LLL, from starts[i] where given (starts is
    then updated in place with each basis' transform), and enumeration."""
    cols = _finite_column_batch(bases)
    if len(cols) == 2:
        return _gauss_batch(cols)
    coords, norms = [], []
    for i, basis_cols in enumerate(bases.transpose(0, 2, 1).tolist()):
        if starts is None:
            res = _lll_shortest(basis_cols)[0]
        else:
            res, starts[i] = _lll_shortest(basis_cols, starts[i])
        coords.append(res.coords.tolist())
        norms.append(res.norm_sq)
    return np.array(coords, dtype=float), np.array(norms)


def shortest_vector(basis: np.ndarray) -> SVPResult:
    """Exact SVP on the lattice generated by the basis columns: Gauss-Lagrange
    reduction for two columns, otherwise LLL then full Schnorr-Euchner
    enumeration with initial radius equal to the shortest LLL vector.  Ties
    within a relative _REL_TIE go to the lexicographically smallest
    sign-normalized coordinates.  Raises NonFiniteBasis if an entry is not
    finite or a squared column norm overflows or is subnormal, RankDeficient
    if the columns are numerically dependent."""
    cols = _finite_columns(np.asarray(basis, dtype=float))
    if len(cols) == 2:
        return _gauss_shortest(cols)
    return _lll_shortest(cols)[0]


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
    return math.sqrt(k) * math.exp(sum(math.log(R[j][j]) for j in range(k)) / k)


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
    res = shortest_vector(build_search_basis(field, ch))
    return am_rate(ch, _coords_to_coefficients(field, res.coords, ch.L), field)


def _best_equation_rates(field: NumberField | None, h: np.ndarray, P: float, starts):
    """best_equation's rate_bits for each channel of a batch h (batch, n, L)
    at SNR P.  The LLL of channel i starts from the transform starts[i] (None
    for a cold start) and leaves its own there; the search is exact, so the
    rates equal cold calls."""
    n, L = h.shape[1:]
    coords = _shortest_batch(_search_basis(field, h, P), starts)[0]
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
    res = shortest_vector(R)
    return tuple(int(x) for x in res.coords), res.norm_sq


def _naive_rates(h: np.ndarray, P: float) -> np.ndarray:
    """naive_rate's rate for each channel of a batch h (batch, n, L) at SNR P."""
    best = 0.0
    for j, gains in enumerate(_user_columns(h)):
        coords = _shortest_batch(_gram_sqrt(h[:, j], P))[0]
        f = _block_terms(gains, list(coords.T), P)[0]
        best = np.maximum(best, _rate_from_quad_form(1, f))
    return best
