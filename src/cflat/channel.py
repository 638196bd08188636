"""Block-fading channel model and the closed-form rate and noise expressions.

Rates are in bits per channel-matrix use (one column of the received matrix,
i.e. n real channel uses); all logs are base 2 and clipped at zero after the
full quadratic form is evaluated.

The rate kernels take per-user operands: Python floats for one channel, or
1-D arrays over a batch of channels, on which the same expressions run
element by element.  Every dot product is an explicit left-to-right sum and
every log2 is math.log2, so a result's bits do not depend on the batch size,
on the BLAS kernel, or on how numpy vectorizes a reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numfield import NumberField

__all__ = [
    "ZeroCoefficient",
    "NoiseIdentityViolated",
    "BlockFadingChannel",
    "EquationCandidate",
    "am_rate",
    "naive_rate",
    "mac_sum_capacity",
    "coefficient_embeddings",
]


class ZeroCoefficient(ValueError):
    """The equation coefficient vector must be nonzero."""


class NoiseIdentityViolated(ValueError):
    """The two evaluations of the effective noise, sum_j nu_j^2 and P f,
    disagree: the float evaluation has lost the channel."""


@dataclass(frozen=True)
class BlockFadingChannel:
    """n fading blocks of an L-user real MAC at linear SNR P.

    h has shape (n, L); h[j, l] is user l's gain during block j.
    """

    h: np.ndarray
    P: float

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if h.ndim != 2 or not h.size:
            raise ValueError(
                f"channel h must be an (n, L) matrix with n, L >= 1, got shape {np.shape(self.h)}"
            )
        if not np.all(np.isfinite(h)):
            raise ValueError("channel entries must be finite")
        if not self.P > 0:
            raise ValueError("SNR must be positive")
        P = float(self.P)
        if not math.isfinite(P):
            raise ValueError("SNR must be finite")
        # every rate and basis evaluation starts from P||h_j||^2; Python
        # floats overflow to inf without a warning
        for j, row in enumerate(h.tolist()):
            if not math.isfinite(P * _dot(row, row)):
                raise ValueError(
                    f"channel gain h[{j}] = {row} overflows P*||h_j||^2 at P = {P:g}"
                )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def L(self) -> int:
        return self.h.shape[1]


def _snr_linear(snr_db: float) -> float:
    """The linear SNR 10^(snr_db / 10); ValueError where it overflows a
    float."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {snr_db:g} dB overflows a float") from None


def _dot(x, y):
    """x . y summed left to right; the entries are floats, or equal-shape
    arrays over a batch."""
    acc = x[0] * y[0]
    for i in range(1, len(x)):
        acc = acc + x[i] * y[i]
    return acc


def _user_columns(h: np.ndarray) -> list:
    """The per-user operands h[:, j, l] of a batch of gains h (batch, n, L),
    as a list over blocks j of lists over users l."""
    return [[h[:, j, l] for l in range(h.shape[2])] for j in range(h.shape[1])]


def _log2(x):
    """math.log2 of a Python float, or of each element of a 1-D array (an
    array of the results): np.log2 differs from libm in the last bit on
    some inputs and hosts."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log2, x.tolist()), float, len(x))
    return math.log2(x)


def _rate_from_quad_form(n: int, f):
    """(n/2) log2+ (n / f) and the errors of the elements f that are not
    positive, {index: ValueError}.  On an array f both are per element; a
    Python float f that is not positive raises its ValueError, so its
    errors are {}."""
    if isinstance(f, np.ndarray):
        with np.errstate(over="ignore", divide="ignore"):
            x = n / f
        # log2+ is 0.0 where n / f is not positive (f = inf) or is NaN
        rate = 0.5 * n * np.maximum(_log2(np.where(x > 0, x, 1.0)), 0.0)
        return rate, {i: _not_positive(float(f[i])) for i in np.flatnonzero(f <= 0).tolist()}
    if f <= 0:
        raise _not_positive(f)
    x = n / f
    return 0.5 * n * (max(math.log2(x), 0.0) if x > 0 else 0.0), {}


def _not_positive(f: float) -> ValueError:
    return ValueError(f"quadratic form must be positive, got {f}")


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


def _select(cond, a, b):
    """a where cond holds, else b: for a Python bool or a boolean array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _block_terms(h, s, P: float):
    """Block j's quadratic form f_j = s^T M_j s, MMSE scalar b_j and effective
    noise variance nu_j^2 = b_j^2 + P ||b_j h - s||^2, for s = sigma_j(a);
    h and s are lists over users of operands.

    Closed forms with g = 1 + P||h||^2 and the Lagrange sum
    Lam = sum_{i<k} (s_i h_k - s_k h_i)^2 = ||s||^2 ||h||^2 - (s.h)^2:
    f_j = (||s||^2 + P Lam) / g and nu_j^2 = b_j^2 + P (Lam + (s.h)^2 / g^2)
    / ||h||^2 are sums of nonnegative terms, so neither cancels as P||h||^2
    grows.  nu_j^2 does not go through f_j, so _am_terms' check of
    sum_j nu_j^2 = P f compares two independent evaluations.  A zero gain
    row (||h||^2 = 0) gives f_j = ||s||^2 and nu_j^2 = P ||s||^2.
    """
    sh = _dot(s, h)
    hh = _dot(h, h)
    ss = _dot(s, s)
    g = P * hh + 1.0
    b = P * sh / g
    lam = 0.0
    for k in range(1, len(s)):
        for i in range(k):
            c = _cross(s[i], h[k], s[k], h[i])
            lam = lam + c * c
    t = sh / g
    zero = hh == 0.0
    f = _select(zero, ss, (ss + P * lam) / g)
    nu_sq = _select(zero, P * ss, b * b + P * (lam + t * t) / _select(zero, 1.0, hh))
    return f, b, nu_sq


def _noise_identity(total, Pf) -> dict:
    """The elements where math.isclose(total, Pf, rel_tol=1e-9,
    abs_tol=1e-12) fails, {index: NoiseIdentityViolated}, for equal-shape
    arrays; Python floats raise the error, so their errors are {}.  On
    arrays, numpy runs isclose's own comparisons, which for finite operands
    are its result; elements that are not finite, or that fail, go to
    math.isclose, and each message holds the element's own values."""
    if not isinstance(total, np.ndarray):
        if not math.isclose(total, Pf, rel_tol=1e-9, abs_tol=1e-12):
            raise _identity_violated(total, Pf)
        return {}
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(Pf - total)
        close = (diff <= np.abs(1e-9 * Pf)) | (diff <= np.abs(1e-9 * total))
    close |= diff <= 1e-12
    close &= np.isfinite(total) & np.isfinite(Pf)
    pairs = ((i, float(total[i]), float(Pf[i])) for i in np.flatnonzero(~close).tolist())
    return {
        i: _identity_violated(a, b)
        for i, a, b in pairs
        if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    }


def _identity_violated(total: float, Pf: float) -> NoiseIdentityViolated:
    return NoiseIdentityViolated(
        f"noise identity violated: n*sigma_AM^2={total} vs P*f={Pf}"
    )


def _am_terms(h, s, P: float):
    """Per-block MMSE scalars b_j and noise variances nu_j^2 (lists over
    blocks), the quadratic form f = sum_j f_j of the arithmetic-mean
    decoder, for channel rows h[j] and embeddings s[j] = sigma_j(a), each a
    list over users of operands, and the errors of the elements that fail,
    {index: error}: ZeroCoefficient where every sigma_j(a) is zero, else
    NoiseIdentityViolated where sum_j nu_j^2 != P f.  For Python floats the
    error is raised, so the errors are {}."""
    zero = True
    for sj in s:
        for x in sj:
            zero = zero & (x == 0.0)
    if not isinstance(zero, np.ndarray) and zero:
        raise ZeroCoefficient("coefficient vector is zero")
    b, nu_sq, f = [], [], 0.0
    for hj, sj in zip(h, s):
        fj, bj, nuj = _block_terms(hj, sj, P)
        f = f + fj
        b.append(bj)
        nu_sq.append(nuj)
    total = nu_sq[0]  # n * sigma_AM^2
    for x in nu_sq[1:]:
        total = total + x
    errors = _noise_identity(total, P * f)
    if isinstance(zero, np.ndarray):
        for i in np.flatnonzero(zero).tolist():
            errors[i] = ZeroCoefficient("coefficient vector is zero")
    return b, nu_sq, f, errors


def am_rate(
    ch: BlockFadingChannel, a, field: NumberField | None = None
) -> EquationCandidate:
    """Computation rate (n/2) log2+ (n / sum_j sigma_j^T M_j sigma_j) of the
    arithmetic-mean decoder for coefficient vector a, with per-block MMSE
    scaling."""
    if len(a) != ch.L:
        raise ValueError(f"coefficient vector has {len(a)} entries for L = {ch.L} users")
    sigma = coefficient_embeddings(a, field, ch.n)
    b, nu_sq, f, _ = _am_terms(ch.h.tolist(), sigma.tolist(), ch.P)
    return EquationCandidate(
        a=tuple(a),
        sigma=sigma,
        b=np.array(b),
        nu_sq=np.array(nu_sq),
        rate_bits=_rate_from_quad_form(ch.n, f)[0],
    )


def naive_rate(ch: BlockFadingChannel, solver=None) -> tuple[int, tuple, float]:
    """Best single-block integer equation: the oblivious transmitter picks the
    fading block whose optimal integer coefficient vector gives the highest
    one-block rate.  Only one block is used, so the rate is not scaled by n.

    solver(h_j, P) -> (a, f) must return the integer vector minimizing the
    block quadratic form and its value; by default the exact lattice search.
    The rate takes the form's value from the closed form of _block_terms,
    a sum of nonnegative terms, not from f, which is a lattice vector's norm
    and can cancel to zero at high SNR.
    """
    if solver is None:
        from .svp import best_integer_block as solver
    best = (0, (1,) + (0,) * (ch.L - 1), 0.0)
    for j, h_j in enumerate(ch.h.tolist()):
        a = tuple(int(x) for x in solver(ch.h[j], ch.P)[0])
        rate = _rate_from_quad_form(1, _block_terms(h_j, [float(x) for x in a], ch.P)[0])[0]
        if rate > best[2]:
            best = (j, a, rate)
    return best


def _mac_sum(h, P: float):
    """sum_j (1/2) log2(1 + P||h_j||^2) for rows h[j] of per-user operands."""
    total = 0.0
    for hj in h:
        total = total + 0.5 * _log2(1.0 + P * _dot(hj, hj))
    return total


def mac_sum_capacity(ch: BlockFadingChannel) -> float:
    """Per-block Gaussian MAC sum capacity, summed over the fading blocks."""
    return _mac_sum(ch.h.tolist(), ch.P)
