"""A brute-force box search and the Minkowski bound: the independent oracles
cflat.svp's shortest-vector search is checked against."""

import math

import numpy as np

from cflat.svp import (
    _REL_TIE,
    SVPResult,
    _finite_columns,
    _normalize_sign,
    _pick_candidate,
    _reduced_factor,
)


class TooLarge(ValueError):
    """Brute-force search box is empty or too large to enumerate."""


def brute_force_shortest(basis: np.ndarray, bound: int) -> SVPResult:
    """Exhaustive search over the integer box ||atilde||_inf <= bound, ties
    within a relative _REL_TIE broken as shortest_vector breaks them.
    Raises NonFiniteBasis as shortest_vector does."""
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
