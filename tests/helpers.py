"""Trial-first views of the trial-axis-last kernel, for tests that build
received blocks the way the engine does, the linear coding gain, the
amplitude density's total mass, and the radius lookup the amplitude table
replaced, as an oracle independent of its rows."""

import math

import numpy as np

from stablemimo import amplitude
from stablemimo.amplitude import (
    NOISE_SIGMA,
    _gaussian_log_amplitude_pdf,
    amplitude_pdf,
    amplitude_tail_constant,
    amplitude_tail_pdf,
)
from stablemimo.codes import Codebook, block_products
from stablemimo.stable import NoiseModel
from stablemimo.theory import pep_asymptote


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


def two_path_log_pdf(tab, r):
    """The lookup the one-route table replaced, frozen as its oracle: PCHIP
    when every radius is on the grid; otherwise boolean masks, PCHIP on the
    on-grid subset and the off-grid laws by masked stores."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    x = np.log(tab.grid)
    upper = np.append(x[1:-1], np.inf)
    coef = amplitude._pchip_coefficients(x, tab.log_values)

    def interpolate(lx):
        t = np.fmax((lx - x[0]) * ((x.size - 1) / (x[-1] - x[0])), 0.0)
        i = np.fmin(t, x.size - 2).astype(np.intp)
        i -= lx < x.take(i)
        i += lx >= upper.take(i)
        s = lx - x.take(i)
        out = coef[0].take(i)
        power = s.copy()
        for c in coef[1:]:
            term = c.take(i)
            term *= power
            out += term
            power *= s
        return out

    lo, hi = tab.grid[0], tab.grid[-1]
    # invalid: the Gaussian law's inf - inf at r = inf
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = np.log(r)
        if r.size == 0 or (r.min() >= lo and r.max() <= hi):
            out = interpolate(lr)
        else:
            below, above = r < lo, r > hi
            mid = ~(below | above)
            out = np.empty_like(lr)
            out[mid] = interpolate(lr[mid])
            a, d = tab.spec.alpha, tab.spec.d
            slope = (d - 1) * (lr[below] - math.log(lo)) if d > 1 else 0.0
            out[below] = tab.log_values[0] + slope
            out[above] = (_gaussian_log_amplitude_pdf(r[above], d) if a == 2.0
                          else math.log(amplitude_tail_constant(tab.spec))
                          - (a + 1.0) * lr[above])
    return float(out[0]) if scalar else out
