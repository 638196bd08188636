"""Block-fading channel model and the closed-form rate and noise expressions.

Rates are in bits per channel-matrix use (one column of the received matrix,
i.e. n real channel uses); all logs are base 2 and clipped at zero after the
full quadratic form is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numfield import NumberField

__all__ = [
    "ZeroCoefficient",
    "BlockFadingChannel",
    "EquationCandidate",
    "gram_matrix",
    "mmse_scale",
    "am_rate",
    "block_rate_Z",
    "naive_rate",
    "mac_sum_capacity",
    "coefficient_embeddings",
]


class ZeroCoefficient(ValueError):
    """The equation coefficient vector must be nonzero."""


@dataclass(frozen=True)
class BlockFadingChannel:
    """n fading blocks of an L-user real MAC at linear SNR P.

    h has shape (n, L); h[j, l] is user l's gain during block j.
    """

    h: np.ndarray
    P: float

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if not np.all(np.isfinite(h)):
            raise ValueError("channel entries must be finite")
        if not self.P > 0:
            raise ValueError("SNR must be positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "P", float(self.P))

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def L(self) -> int:
        return self.h.shape[1]


def gram_matrix(h_j, P: float) -> np.ndarray:
    """I - P/(P||h||^2 + 1) h h^T; positive definite with eigenvalues in (0, 1]."""
    h = np.asarray(h_j, dtype=float)
    scale = P / (P * float(h @ h) + 1.0)
    return np.eye(h.size) - scale * np.outer(h, h)


def mmse_scale(h_j, sigma_j, P: float) -> float:
    """The scalar b minimizing |b|^2 + P ||b h - sigma||^2."""
    h = np.asarray(h_j, dtype=float)
    sigma = np.asarray(sigma_j, dtype=float)
    return P * float(sigma @ h) / (P * float(h @ h) + 1.0)


def _log2_pos(x: float) -> float:
    return max(math.log2(x), 0.0) if x > 0 else 0.0


def _rate_from_quad_form(n: int, f: float) -> float:
    if f <= 0:
        raise ValueError(f"quadratic form must be positive, got {f}")
    return 0.5 * n * _log2_pos(n / f)


def coefficient_embeddings(a, field: NumberField | None, n: int) -> np.ndarray:
    """Per-block conjugate rows sigma[j, l] of a coefficient vector.

    field=None selects plain integer coefficients, whose conjugates coincide
    in every block.
    """
    if field is None:
        row = np.array([float(x) for x in a])
        return np.tile(row, (n, 1))
    if n != field.degree:
        raise ValueError(f"field degree {field.degree} != block count {n}")
    return np.array([[x.u + x.v * th for x in a] for th in field.theta])


@dataclass(frozen=True)
class EquationCandidate:
    """A coefficient vector with its embeddings, MMSE scalars, noise and rate.

    a holds RingElement coefficients (or plain ints for the Z-restricted
    decoder); sigma is (n, L) with row j = sigma_j(a); nu_sq[j] is the
    per-block effective noise variance |b_j|^2 + P||b_j h_j - sigma_j(a)||^2.
    """

    a: tuple
    sigma: np.ndarray
    b: np.ndarray
    nu_sq: np.ndarray
    rate_bits: float
    quad_form: float

    @property
    def sigma_am_sq(self) -> float:
        return float(np.mean(self.nu_sq))

    @property
    def sigma_gm_sq(self) -> float:
        return float(np.prod(self.nu_sq)) ** (1.0 / len(self.nu_sq))


def _split(x: float) -> tuple[float, float]:
    """Veltkamp split: x = hi + lo with each half fitting in 26 bits."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _cross(a: float, b: float, c: float, d: float) -> float:
    """a*b - c*d with Dekker's error-free products: only the final sums
    round, so a cancelling difference keeps its relative accuracy."""
    p, q = a * b, c * d
    (a1, a2), (b1, b2) = _split(a), _split(b)
    (c1, c2), (d1, d2) = _split(c), _split(d)
    ep = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    eq = ((c1 * d1 - q) + c1 * d2 + c2 * d1) + c2 * d2
    return (p - q) + (ep - eq)


def _block_terms(h: np.ndarray, s: np.ndarray, P: float) -> tuple[float, float, float]:
    """Block j's quadratic form f_j = s^T M_j s, MMSE scalar b_j and effective
    noise variance nu_j^2 = b_j^2 + P ||b_j h - s||^2, for s = sigma_j(a).

    Closed forms with g = 1 + P||h||^2 and the Lagrange sum
    Lam = sum_{i<k} (s_i h_k - s_k h_i)^2 = ||s||^2 ||h||^2 - (s.h)^2:
    f_j = (||s||^2 + P Lam) / g and nu_j^2 = b_j^2 + P (Lam + (s.h)^2 / g^2)
    / ||h||^2 are sums of nonnegative terms, so neither cancels as P||h||^2
    grows.  nu_j^2 does not go through f_j, so am_rate's check of
    sum_j nu_j^2 = P f compares two independent evaluations.
    """
    sh = float(s @ h)
    hh = float(h @ h)
    ss = float(s @ s)
    g = P * hh + 1.0
    b = P * sh / g  # mmse_scale's expression
    if hh == 0.0:
        return ss, b, P * ss
    sl, hl = s.tolist(), h.tolist()
    lam = 0.0
    for k in range(1, len(sl)):
        for i in range(k):
            lam += _cross(sl[i], hl[k], sl[k], hl[i]) ** 2
    t = sh / g
    return (ss + P * lam) / g, b, b * b + P * (lam + t * t) / hh


def am_rate(
    ch: BlockFadingChannel, a, field: NumberField | None = None
) -> EquationCandidate:
    """Computation rate (n/2) log2+ (n / sum_j sigma_j^T M_j sigma_j) of the
    arithmetic-mean decoder for coefficient vector a, with per-block MMSE
    scaling."""
    sigma = coefficient_embeddings(a, field, ch.n)
    if not sigma.any():
        raise ZeroCoefficient("coefficient vector is zero")
    n, P = ch.n, ch.P
    b = np.empty(n)
    nu_sq = np.empty(n)
    f = 0.0
    for j in range(n):
        fj, b[j], nu_sq[j] = _block_terms(ch.h[j], sigma[j], P)
        f += fj
    total = float(nu_sq.sum())  # n * sigma_AM^2
    if not math.isclose(total, P * f, rel_tol=1e-9, abs_tol=1e-12):
        raise AssertionError(
            f"noise identity violated: n*sigma_AM^2={total} vs P*f={P * f}"
        )
    return EquationCandidate(
        a=tuple(a),
        sigma=sigma,
        b=b,
        nu_sq=nu_sq,
        rate_bits=_rate_from_quad_form(n, f),
        quad_form=f,
    )


def block_rate_Z(h_j, a, P: float) -> float:
    """Single-block integer computation rate (1/2) log2+ (1 / a^T M a)."""
    av = np.asarray(a, dtype=float)
    if not av.any():
        raise ZeroCoefficient("coefficient vector is zero")
    f = _block_terms(np.asarray(h_j, dtype=float), av, P)[0]
    return _rate_from_quad_form(1, f)


def naive_rate(ch: BlockFadingChannel, solver=None) -> tuple[int, tuple, float]:
    """Best single-block integer equation: the oblivious transmitter picks the
    fading block whose optimal integer coefficient vector gives the highest
    one-block rate.  Only one block is used, so the rate is not scaled by n.

    solver(h_j, P) -> (a, f) must return the integer vector minimizing the
    block quadratic form and its value; by default the exact lattice search.
    """
    if solver is None:
        from .svp import best_integer_block as solver
    best = (0, (1,) + (0,) * (ch.L - 1), 0.0)
    for j in range(ch.n):
        a, f = solver(ch.h[j], ch.P)
        rate = _rate_from_quad_form(1, f)
        if rate > best[2]:
            best = (j, tuple(int(x) for x in a), rate)
    return best


def mac_sum_capacity(ch: BlockFadingChannel) -> float:
    """Per-block Gaussian MAC sum capacity, summed over the fading blocks."""
    return sum(
        0.5 * math.log2(1.0 + ch.P * float(ch.h[j] @ ch.h[j])) for j in range(ch.n)
    )
