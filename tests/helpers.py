"""Trial-first views of the trial-axis-last kernel, for tests that build
received blocks the way the engine does, and the linear coding gain."""

import numpy as np

from stablemimo import NoiseModel, pep_asymptote
from stablemimo.codes import Codebook, block_products


def codeword_products(h, codebook: Codebook) -> np.ndarray:
    """``block_products`` trial first: h (B, n_r, n_t) -> (B, K, n_r, t_s)."""
    return np.moveaxis(block_products(np.moveaxis(h, 0, -1), codebook), -1, 0)


def gain(rx, n_t, n_r, alpha, model=NoiseModel.SHARED) -> float:
    """Linear coding gain G_c of a receiver/model pair."""
    return pep_asymptote(rx, model, n_t, n_r, alpha).coding_gain
