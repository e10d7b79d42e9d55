"""Trial-first views of the trial-axis-last kernel, for tests that build
received blocks the way the engine does, the linear coding gain, and the
amplitude density's total mass."""

import numpy as np

from stablemimo import NoiseModel, amplitude_pdf, amplitude_tail_pdf, pep_asymptote
from stablemimo.amplitude import NOISE_SIGMA
from stablemimo.codes import Codebook, block_products


def codeword_products(h, codebook: Codebook) -> np.ndarray:
    """``block_products`` trial first: h (B, n_r, n_t) -> (B, K, n_r, t_s)."""
    return np.moveaxis(block_products(np.moveaxis(h, 0, -1), codebook), -1, 0)


def gain(rx, n_t, n_r, alpha, model=NoiseModel.SHARED) -> float:
    """Linear coding gain G_c of a receiver/model pair."""
    return pep_asymptote(rx, model, n_t, n_r, alpha).coding_gain


def integrate_amplitude(spec, r_split=1e4) -> float:
    """Composite Gauss-Legendre over log-spaced panels up to r_split, plus the
    analytic tail integral of K r^(-alpha-1) beyond it; a Gaussian law
    (alpha = 2) has no heavy tail and stops at 12 sigma."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    top = 12.0 * NOISE_SIGMA if spec.alpha == 2.0 else r_split
    edges = np.concatenate([[0.0], np.geomspace(1e-3, top, 25)])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        total += 0.5 * (b - a) * np.sum(weights * amplitude_pdf(r, spec))
    if spec.alpha < 2.0:
        total += amplitude_tail_pdf(top, spec) * top / spec.alpha
    return total
