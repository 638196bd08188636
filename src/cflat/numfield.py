"""Real quadratic fields Q(sqrt(d)): integral bases, canonical embeddings,
prime ideals above a rational prime, and residue-field reduction.

Only real quadratic fields are built in; everything downstream touches the
field through its embedding matrix, multiplication rule and residue maps, so
higher-degree totally real fields could be added by supplying those pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NotSquarefree",
    "OutOfRange",
    "Ramified",
    "NotPrime",
    "MAX_D",
    "MAX_P",
    "RingElement",
    "NumberField",
    "PrimeIdeal",
    "ResidueField",
    "make_quadratic_field",
    "prime_above",
    "residue_reduce",
]


# Largest accepted d and p.  The squarefree and primality tests trial-divide
# up to sqrt(d) and sqrt(p), and prime_above scans all p residues for a root,
# so at these limits a field or a prime ideal is built in well under a second.
MAX_D = 10**12
MAX_P = 10**6


class NotSquarefree(ValueError):
    """d has a square factor, so {1, theta} would not be an integral basis."""


class OutOfRange(ValueError):
    """Parameter outside the supported range."""


class Ramified(ValueError):
    """The rational prime divides the field discriminant."""


class NotPrime(ValueError):
    """The given modulus is not a rational prime."""


@dataclass(frozen=True)
class RingElement:
    """Element u + v*theta of the ring of integers, exact integer coordinates."""

    u: int
    v: int

    @property
    def coords(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True, eq=False)
class NumberField:
    """Q(sqrt(d)) with integral basis {1, theta}.

    theta = (1+sqrt(d))/2 when d = 1 (mod 4), else sqrt(d); the multiplication
    rule is theta^2 = s*theta + t.  Conjugates are ordered sigma1 > sigma2.
    """

    d: int
    s: int
    t: int
    discriminant: int
    theta: tuple[float, float]
    embedding: np.ndarray  # 2x2, row j = (sigma_j(1), sigma_j(theta))
    basis_labels: tuple[str, str]

    @property
    def degree(self) -> int:
        return 2

    def __repr__(self) -> str:
        return f"NumberField(d={self.d})"


def _squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def make_quadratic_field(d: int) -> NumberField:
    """Build Q(sqrt(d)) for squarefree 2 <= d <= MAX_D."""
    if not 2 <= d <= MAX_D:
        raise OutOfRange(f"need 2 <= d <= {MAX_D}, got {d}")
    if not _squarefree(d):
        raise NotSquarefree(f"{d} has a square factor")
    root = math.sqrt(d)
    if d % 4 == 1:
        s, t, disc = 1, (d - 1) // 4, d
        th = ((1.0 + root) / 2.0, (1.0 - root) / 2.0)
        labels = ("1", f"(1+sqrt({d}))/2")
    else:
        s, t, disc = 0, d, 4 * d
        th = (root, -root)
        labels = ("1", f"sqrt({d})")
    # det Phi = theta_2 - theta_1, and (theta_1 - theta_2)^2 = disc
    phi = np.array([[1.0, th[0]], [1.0, th[1]]])
    return NumberField(
        d=d, s=s, t=t, discriminant=disc, theta=th, embedding=phi, basis_labels=labels
    )


@dataclass(frozen=True)
class PrimeIdeal:
    """Unramified prime ideal above p: split (r=1, ideal (p, theta-c)) or inert (r=2)."""

    p: int
    r: int
    c: int | None
    field: NumberField

    @cached_property
    def residue_field(self) -> "ResidueField":
        return ResidueField(self)

    def basis_matrix(self) -> np.ndarray:
        """Z-basis of the ideal, columns = ring coordinates of the generators."""
        if self.r == 1:
            return np.array([[self.p, -self.c], [0, 1]], dtype=np.int64)
        return np.array([[self.p, 0], [0, self.p]], dtype=np.int64)

    def leader(self, x: int) -> RingElement:
        """Coset representative of residue x with coordinates in [0, p)."""
        if self.r == 1:
            return RingElement(x % self.p, 0)
        return RingElement(x % self.p, x // self.p)


def prime_above(field: NumberField, p: int) -> PrimeIdeal:
    """Prime ideal of the ring of integers lying above the rational prime p.

    Split case when x^2 - s*x - t has a root mod p (smallest root chosen);
    inert otherwise.  Ramified primes (p | discriminant) and p > MAX_P are
    rejected.
    """
    if p > MAX_P:
        raise OutOfRange(f"need p <= {MAX_P}, got {p}")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if field.discriminant % p == 0:
        raise Ramified(f"{p} divides the discriminant {field.discriminant}")
    for x in range(p):
        if (x * x - field.s * x - field.t) % p == 0:
            return PrimeIdeal(p=p, r=1, c=x, field=field)
    return PrimeIdeal(p=p, r=2, c=None, field=field)


def residue_reduce(prime: PrimeIdeal, a: RingElement) -> int:
    """Reduce a ring element into the residue field F_{p^r}.

    Split case: the image of u + v*theta is (u + c*v) mod p.  Inert case: the
    image is (u mod p) + (v mod p)*x in F_p[x]/(x^2 - s*x - t), returned in the
    integer encoding a0 + p*a1 used throughout (see ResidueField).
    """
    p = prime.p
    if prime.r == 1:
        return (a.u + prime.c * a.v) % p
    return (a.u % p) + p * (a.v % p)


class ResidueField:
    """Arithmetic in F_{p^r} (r in {1, 2}) on integer-encoded elements.

    An element a0 + a1*x is encoded as the integer a0 + p*a1; for r=1 the
    encoding is the residue itself.  The reduction polynomial is
    x^2 - s*x - t mod p, mirroring the ring multiplication rule.  add and mul
    also act elementwise on int64 arrays of encoded elements.
    """

    def __init__(self, prime: PrimeIdeal):
        self.p = prime.p
        self.r = prime.r
        self.q = prime.p**prime.r
        self._s = prime.field.s % self.p
        self._t = prime.field.t % self.p

    def encode(self, a0: int, a1: int = 0) -> int:
        return (a0 % self.p) + self.p * (a1 % self.p)

    def add(self, x: int, y: int) -> int:
        if self.r == 1:
            return (x + y) % self.p
        p = self.p
        return (x % p + y % p) % p + p * ((x // p + y // p) % p)

    def mul(self, x: int, y: int) -> int:
        p = self.p
        if self.r == 1:
            return (x * y) % p
        a0, a1 = x % p, x // p
        b0, b1 = y % p, y // p
        c0 = (a0 * b0 + self._t * a1 * b1) % p
        c1 = (a0 * b1 + a1 * b0 + self._s * a1 * b1) % p
        return c0 + p * c1
