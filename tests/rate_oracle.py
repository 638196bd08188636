"""Plain matrix forms of the block Gram matrix and the MMSE scalar: the
independent oracles the closed-form rate kernel in cflat.channel is checked
against."""

import numpy as np


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
