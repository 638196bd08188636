"""The plain-loop floating-point LLL that cflat.svp._lll_reduce unrolls: the
independent oracle its outputs and its RankDeficient are checked against,
bit for bit."""

from cflat.channel import _dot
from cflat.svp import LLL_DELTA, RankDeficient


def lll_reduce(rows):
    """Floating-point LLL on a list of basis row vectors.

    Returns (reduced, transform, mu, norms): reduced[i] = sum_k
    transform[i][k]*rows[k], transform unimodular, and the reduced rows' GSO.
    GSO row k is recomputed from b[k] whenever the loop reaches k: updating
    it across swaps loses high-SNR bases' small norms to rounding.
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
