"""The power calibration's second moment from one draw of every sample: the
oracle the blocked calibration in cflat.codec is checked against."""

import numpy as np

from cflat.codec import _POWER_SAMPLES, _POWER_SEED


def one_block_m0(region_unit: np.ndarray, n: int, T: int) -> float:
    """Per-dimension second moment of z @ region_unit.T over all
    _POWER_SAMPLES uniform draws z, held as one (_POWER_SAMPLES, 2T) array."""
    rng = np.random.default_rng(_POWER_SEED)
    z = rng.uniform(-0.5, 0.5, size=(_POWER_SAMPLES, 2 * T))
    samples = z @ region_unit.T
    return float(np.einsum("ij,ij->i", samples, samples).mean()) / (n * T)
