"""Exact lattice membership by pull-back, ring-linear combining, block product
distances, the list of short fine-lattice vectors and the coarse fold as a
function: the independent oracles, and the plain forms, that cflat.codec's
encoder, decoder and union bound are checked against."""

import numpy as np

from cflat.codec import ConstructionALattice, _fine_vector_walk, _fold, _fq_gauss_jordan
from cflat.numfield import ResidueField, RingElement, residue_reduce


def _fq_solve(Fq: ResidueField, G_rows, c) -> tuple[int, ...] | None:
    """Solve G w = c over F_q; None when c is outside the column span."""
    rows, piv_cols = _fq_gauss_jordan(Fq, G_rows, c)
    if any(row[-1] != 0 for row in rows[len(piv_cols) :]):
        return None
    w = [0] * (len(G_rows[0]) if G_rows and G_rows[0] else 0)
    for row, col in zip(rows, piv_cols):
        w[col] = row[-1]
    return tuple(w)


def _pullback_coords(lat: ConstructionALattice, X, tol: float):
    """Ring coordinates of X / gamma, or None when they are not near-integer."""
    arr = np.asarray(X, dtype=float)
    coords = np.linalg.inv(lat.field.embedding) @ (arr / lat.gamma)  # (2, T): rows u, v
    rounded = np.rint(coords)
    if np.max(np.abs(coords - rounded)) > tol:
        return None
    return rounded.astype(np.int64)


def _residue_vector(lat: ConstructionALattice, coords: np.ndarray) -> list[int]:
    prime = lat.prime
    return [
        residue_reduce(prime, RingElement(int(coords[0, i]), int(coords[1, i])))
        for i in range(lat.T)
    ]


def lattice_membership(
    lat: ConstructionALattice, which: str, X, tol: float = 1e-6
) -> bool:
    """Exact membership test: pull back through gamma and the embedding, check
    integrality, then check the residue word against the chosen code."""
    if which not in ("fine", "coarse"):
        raise ValueError("which must be 'fine' or 'coarse'")
    coords = _pullback_coords(lat, X, tol)
    if coords is None:
        return False
    res = _residue_vector(lat, coords)
    rows = lat.codes.G_f if which == "fine" else lat.codes.G_c
    return _fq_solve(lat.Fq, rows, res) is not None


def map_message(lat: ConstructionALattice, X) -> tuple[int, ...]:
    """Message-space image of a fine-lattice point: the decoder's independent
    check, by pull-back through the embedding and an F_q solve."""
    coords = _pullback_coords(lat, X, 1e-6)
    if coords is None:
        raise ValueError("not a fine-lattice point")
    w = _fq_solve(lat.Fq, lat.codes.G_f, _residue_vector(lat, coords))
    if w is None:
        raise ValueError("not a fine-lattice point")
    return w[lat.codes.l_c :]


def ring_combine(lat: ConstructionALattice, coeffs, codewords) -> np.ndarray:
    """sum_l diag(sigma(a_l)) X_l: per-block scaling of each codeword's rows
    by the coefficient conjugates.  Closed in the fine lattice."""
    if len(coeffs) != len(codewords):
        raise ValueError("one coefficient per codeword required")
    out = np.zeros((lat.n, lat.T))
    for a, X in zip(coeffs, codewords):
        X = np.asarray(X, dtype=float)
        if X.shape != (lat.n, lat.T):
            raise ValueError(f"codeword must be {lat.n} x {lat.T}")
        sig = lat.field.conjugates(a)
        for j in range(lat.n):
            out[j] += sig[j] * X[j]
    return out


def product_distance(x, n: int, T: int) -> float:
    """Block-wise product distance: product over blocks of the per-block
    squared norms of consecutive length-T slices."""
    arr = np.asarray(x, dtype=float).reshape(n, T)
    return float(np.prod(np.einsum("ij,ij->i", arr, arr)))


def enumerate_fine_vectors(
    lat: ConstructionALattice, radius: float, exclude_coarse: bool = True
):
    """All nonzero fine-lattice vectors with (scaled) Euclidean norm <= radius,
    as (ring coordinate array (T, 2), embedded n x T matrix) pairs, in the
    order of the union bound's walk.  With exclude_coarse the coarse
    sublattice is dropped (the set behind the union bound)."""
    return [
        (np.array([e[3] for e in chosen]), np.column_stack([e[2] for e in chosen]))
        for chosen, _ in _fine_vector_walk(lat, radius, exclude_coarse)
    ]


def reduce_mod_coarse(lat: ConstructionALattice, X: np.ndarray) -> np.ndarray:
    """Fold (..., n, T) matrices into the centered fundamental parallelepiped
    of the scaled coarse lattice: a copy through the encoder's own fold."""
    X = np.array(X, dtype=float, order="C")
    _fold(lat, X)
    return X
