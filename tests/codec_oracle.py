"""The F_q elimination, exact lattice membership by pull-back, ring-linear
combining, block product distances, the list of short fine-lattice vectors
and the coarse fold as a function: the independent oracles, and the plain
forms, that cflat.codec's build, encoder, decoder and union bound are
checked against."""

import numpy as np

from cflat.channel import coefficient_embeddings
from cflat.codec import ConstructionALattice, _fold
from cflat.numfield import ResidueField, RingElement, residue_reduce
from svp_certificate import box_points


def _fq_gauss_jordan(Fq: ResidueField, G_rows, c) -> tuple[list, list[int]]:
    """Gauss-Jordan elimination of the augmented rows [G | c] over F_q, with
    only the field's add and mul: a pivot is inverted by search over F_q,
    and -1 is encoded as p - 1.

    Returns the reduced rows and the pivot columns of G; the rank of G is the
    number of pivots."""
    T = len(G_rows)
    ncols = len(G_rows[0]) if T and G_rows[0] else 0
    rows = [list(G_rows[i]) + [c[i]] for i in range(T)]
    piv_cols = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, T) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = next(y for y in range(1, Fq.q) if Fq.mul(rows[rank][col], y) == 1)
        rows[rank] = [Fq.mul(inv, x) for x in rows[rank]]
        for r in range(T):
            if r != rank and rows[r][col] != 0:
                f = Fq.mul(Fq.p - 1, rows[r][col])
                rows[r] = [Fq.add(x, Fq.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        piv_cols.append(col)
        rank += 1
    return rows, piv_cols


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
    rows = lat.codes.G_f if which == "fine" else [row[: lat.codes.l_c] for row in lat.codes.G_f]
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
        sig = coefficient_embeddings([a], lat.field, lat.n)[:, 0]
        for j in range(lat.n):
            out[j] += sig[j] * X[j]
    return out


def product_distance(x, n: int, T: int) -> float:
    """Block-wise product distance: product over blocks of the per-block
    squared norms of consecutive length-T slices."""
    arr = np.asarray(x, dtype=float).reshape(n, T)
    return float(np.prod(np.einsum("ij,ij->i", arr, arr)))


def _leaves(lat: ConstructionALattice, lifts, opts, suffix, i, rem, chosen, out):
    """Depth-first leaves below coordinate i: every way to pick one disc
    point per remaining coordinate inside the squared budget rem."""
    if i == lat.T:
        coords = np.empty((lat.T, 2), dtype=np.int64)
        emb = np.empty((lat.n, lat.T))
        for ii, (z, pt, _) in enumerate(chosen):
            coords[ii] = lifts[ii] + lat.pideal_basis @ z
            emb[:, ii] = pt
        if coords.any():
            out.append((coords, emb))
        return
    for item in opts[i]:
        if item[2] > rem - suffix[i + 1] + 1e-12:
            break
        _leaves(lat, lifts, opts, suffix, i + 1, rem - item[2], chosen + [item], out)


def enumerate_fine_vectors(
    lat: ConstructionALattice, radius: float, exclude_coarse: bool = True
):
    """All nonzero fine-lattice vectors with (scaled) Euclidean norm <= radius,
    as (ring coordinate array (T, 2), embedded n x T matrix) pairs, in the
    order of the union bound's walk: leader by leader, each coordinate's
    disc points from the exhaustive box oracle, leaves visited depth first.
    With exclude_coarse the coarse sublattice is dropped (the set behind the
    union bound): the leaders before q^l_c, whose message digits are zero."""
    budget = float(radius) ** 2
    out = []
    first = lat.Fq.q**lat.codes.l_c if exclude_coarse else 0
    for k in range(first, lat.K):
        lifts = [np.array(lat.prime.leader(x).coords) for x in lat.leader_residues[k].tolist()]
        opts = [
            box_points(lat.pideal_embedded, lat.embedded_leaders[k][:, i], budget)
            for i in range(lat.T)
        ]
        if not all(opts):
            continue
        suffix = [0.0] * (lat.T + 1)
        for i in range(lat.T - 1, -1, -1):
            suffix[i] = suffix[i + 1] + opts[i][0][2]
        _leaves(lat, lifts, opts, suffix, 0, budget, [], out)
    return out


def reduce_mod_coarse(lat: ConstructionALattice, X: np.ndarray) -> np.ndarray:
    """Fold (..., n, T) matrices into the centered fundamental parallelepiped
    of the scaled coarse lattice: a copy through the encoder's own fold."""
    X = np.array(X, dtype=float, order="C")
    _fold(lat, X)
    return X
