"""Exhaustive certificate that an SVP answer is the true shortest vector.

For a full-column-rank basis B, every lattice vector u = B x satisfies
x = B^+ u, so by Cauchy-Schwarz |x_i| <= ||u|| * ||row_i(B^+)||.  Every
lattice vector no longer than the claimed shortest v therefore lies in the
per-coordinate box |x_i| <= ||v|| * ||row_i(B^+)||; searching that box
exhaustively proves or refutes that v is shortest, however far the minimizer
sits from the origin in coefficient space.
"""

import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
# Slack on the box bounds against rounding in the pseudo-inverse; it only
# ever adds points, so the box stays complete.
_BOUND_SLACK = 1e-6
# Largest box searched; keeps criterion 4 well inside its 30 s budget.
_MAX_POINTS = 4_000_000


@dataclass(frozen=True)
class Certificate:
    ok: bool
    points: int  # nonzero box points searched
    detail: str


def certify_shortest(B, sv) -> Certificate:
    """Check that sv (an SVPResult for the generator matrix B) is a shortest
    nonzero vector of the lattice, to relative tolerance REL_TOL.

    Fails if the returned coordinates do not reproduce sv.norm_sq, if the
    complete box holds a shorter vector, or if the box exceeds _MAX_POINTS.
    """
    basis = np.asarray(B, dtype=float)
    v = basis @ np.asarray(sv.coords, dtype=float)
    norm_sq = float(v @ v)
    if not math.isclose(norm_sq, sv.norm_sq, rel_tol=REL_TOL):
        return Certificate(False, 0,
                           f"coords give |v|^2={norm_sq:.6g} != {sv.norm_sq:.6g}")
    radius = math.sqrt(norm_sq) * (1.0 + _BOUND_SLACK)
    bounds = [int(math.floor(radius * float(np.linalg.norm(row))))
              for row in np.linalg.pinv(basis)]
    points = math.prod(2 * b + 1 for b in bounds) - 1
    if points > _MAX_POINTS:
        return Certificate(False, 0,
                           f"box {bounds} has {points} points > {_MAX_POINTS}")
    # Loop over the widest coordinate and vectorise over the others, so the
    # working set is a fraction of the box.
    outer = int(np.argmax(bounds))
    rest = [j for j in range(len(bounds)) if j != outer]
    axes = [np.arange(-bounds[j], bounds[j] + 1) for j in rest]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(rest))
    partial = grid @ basis[:, rest].T
    rest_zero = ~np.any(grid, axis=1)
    box_min = math.inf
    for x in range(-bounds[outer], bounds[outer] + 1):
        w = partial + x * basis[:, outer]
        norms = np.einsum("ij,ij->i", w, w)
        if x == 0:
            norms[rest_zero] = math.inf
        box_min = min(box_min, float(norms.min()))
    ok = math.isclose(box_min, sv.norm_sq, rel_tol=REL_TOL)
    return Certificate(ok, points,
                       f"box {bounds}: min {box_min:.6g} vs sphere {sv.norm_sq:.6g}")


def box_points(basis, offset, budget):
    """Every lattice point offset + basis @ z (z integer) with squared norm
    at most budget * (1 + 1e-12) + 1e-12, as (z, point, squared norm) triples
    sorted by the norm, then by z from the last coordinate to the first.

    An independent closest-point oracle: z - c = basis^-1 (offset + basis z)
    for the centre c = basis^-1 (-offset), so by Cauchy-Schwarz every such z
    lies in the box |z_i - c_i| <= sqrt(budget) * ||row_i(basis^-1)||, which
    is searched exhaustively (widened by _BOUND_SLACK and one step)."""
    basis = np.asarray(basis, dtype=float)
    offset = np.asarray(offset, dtype=float)
    inv = np.linalg.inv(basis)
    centre = inv @ -offset
    half = [math.sqrt(budget) * float(np.linalg.norm(row)) * (1.0 + _BOUND_SLACK) + 1.0
            for row in inv]
    axes = [np.arange(math.ceil(c - h), math.floor(c + h) + 1)
            for c, h in zip(centre, half)]
    if math.prod(len(a) for a in axes) > _MAX_POINTS:
        raise ValueError(f"box of {[len(a) for a in axes]} exceeds {_MAX_POINTS} points")
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    w = grid @ basis.T + offset
    # a loose vectorised cut, then each survivor exactly as one point
    near = grid[np.einsum("ij,ij->i", w, w) <= budget * 1.001 + 1e-9]
    out = []
    for z in near.tolist():
        pt = offset + basis @ z
        n2 = float(pt @ pt)
        if n2 <= budget * (1 + 1e-12) + 1e-12:
            out.append((tuple(z), pt, n2))
    out.sort(key=lambda item: (item[2],) + item[0][::-1])
    return out
