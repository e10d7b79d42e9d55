"""Closed-form error-rate asymptotics and coding-gain analysis.

High-SNR pairwise error probabilities take the form (G_c * rho)^(-G_d).
For the genie-aided receiver the diversity order is alpha*N_t/2; the
minimum-distance receiver is stuck at alpha/2 regardless of antenna
counts, with a coding gain penalized by N_r^(-2/alpha) when the noise is
i.i.d. across antennas.  has_asymptote states which pairs have these
closed forms (GAR under model I, MDR under either model, alpha < 2), and
log_coding_gain is the one evaluation of log G_c, in log-gamma arithmetic
(math.lgamma; Q by math.erfc); digamma derivatives (scipy.special, loaded
only by dlog_gain) and alpha thresholds (scipy.optimize.brentq, loaded
only by find_alpha_thresholds) track the MDR gain in antenna counts.
Conditional PEPs take the genie record in the one layout of
stable.sample_noise_block, (..., g, t_s).
Result objects hold only what was computed (PepAsymptote: gain and order;
AlphaThresholds: the two exponents), not the arguments that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import Codebook
from .stable import NoiseModel


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x), elementwise."""
    erfc = np.vectorize(math.erfc, otypes=[float])
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _check_antennas(n_t: int, n_r: int, alpha: float):
    if n_t < 1 or n_r < 1:
        raise ValueError("antenna counts must be >= 1")
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")


def has_asymptote(receiver: str, model: NoiseModel, alpha: float) -> bool:
    """Whether the paper gives the pair a closed-form PEP asymptote: GAR
    under model I, MDR under either model, and only for alpha in (0, 2)."""
    return 0.0 < alpha < 2.0 and (
        receiver == "mdr" or (receiver == "gar" and model is NoiseModel.SHARED)
    )


def log_coding_gain(
    receiver: str, model: NoiseModel, n_t: float, n_r: float, alpha: float
) -> float:
    """log G_c of a receiver/model pair with an asymptote; antenna counts
    may be real."""
    if not has_asymptote(receiver, model, alpha):
        raise ValueError(
            f"no closed-form asymptote for {receiver!r} under model "
            f"{model.value} at alpha {alpha}"
        )
    a = alpha
    if receiver == "gar":
        log_b1 = (
            -0.5 * math.log(4.0 * math.pi)
            + math.lgamma((a * n_t + 1.0) / 2.0)
            - math.lgamma(a * n_t / 2.0 + 1.0)
        )
        log_b2 = (
            math.lgamma(1.0 + a / 2.0)
            + math.lgamma(n_r - a / 2.0)
            - math.lgamma(1.0 - a / 2.0)
            - math.lgamma(n_r)
            + (a / 2.0) * math.log(4.0)
        )
        return -2.0 / (a * n_t) * log_b1 - 2.0 / a * log_b2
    log_b = (
        math.log(n_t)
        - 0.5 * math.log(4.0 * math.pi)
        + math.lgamma((1.0 + a) / 2.0)
        + math.lgamma(n_r * n_t - a / 2.0)
        - math.lgamma(1.0 - a / 2.0)
        - math.lgamma(n_r * n_t)
        + (a / 2.0) * math.log(4.0)
    )
    out = -2.0 / a * log_b
    if model is NoiseModel.IID:
        out -= (2.0 / a) * math.log(n_r)
    return out


@dataclass(frozen=True)
class PepAsymptote:
    """High-SNR pairwise error probability (G_c * rho)^(-G_d)."""

    coding_gain: float
    diversity_order: float

    def __post_init__(self):
        if self.coding_gain <= 0.0 or self.diversity_order <= 0.0:
            raise ValueError("coding gain and diversity order must be positive")

    def evaluate(self, rho):
        return (self.coding_gain * np.asarray(rho, dtype=float)) ** (
            -self.diversity_order
        )


def pep_asymptote(
    receiver: str, model: NoiseModel, n_t: int, n_r: int, alpha: float
) -> PepAsymptote:
    """Bundle coding gain and diversity order for a receiver/model pair."""
    _check_antennas(n_t, n_r, alpha)
    order = alpha * n_t / 2.0 if receiver == "gar" else alpha / 2.0
    return PepAsymptote(math.exp(log_coding_gain(receiver, model, n_t, n_r, alpha)), order)


def dlog_gain(receiver: str, wrt: str, n_t: int, n_r: int, alpha: float) -> float:
    """Closed-form digamma derivative of a model I log coding gain.

    Supported: (gar, n_r), (mdr, n_r), (mdr, n_t).  The genie-aided
    derivative in n_t has no closed form; use dlog_gain_numeric.  Under
    model II the MDR gain carries -(2/alpha) log n_r more, so its n_r
    derivative is this value minus 2/(alpha n_r).
    """
    from scipy.special import digamma  # off the run path: no import cost there

    _check_antennas(n_t, n_r, alpha)
    a = alpha
    if receiver == "gar" and wrt == "n_r":
        return -(2.0 / a) * (digamma(n_r - a / 2.0) - digamma(n_r))
    gap = digamma(n_r * n_t - a / 2.0) - digamma(n_r * n_t)
    if receiver == "mdr" and wrt == "n_r":
        return -(2.0 * n_t / a) * gap
    if receiver == "mdr" and wrt == "n_t":
        return -(2.0 / a) * (1.0 / n_t + n_r * gap)
    raise ValueError(
        f"no closed-form derivative for ({receiver!r}, {wrt!r}); "
        "use dlog_gain_numeric"
    )


def dlog_gain_numeric(receiver: str, wrt: str, n_t: int, n_r: int, alpha: float) -> float:
    """Central finite difference, step 1e-4, of a model I log coding gain
    in a real antenna count (model II: see dlog_gain)."""
    _check_antennas(n_t, n_r, alpha)
    step = 1e-4
    fn = lambda nt, nr: log_coding_gain(receiver, NoiseModel.SHARED, nt, nr, alpha)
    if wrt == "n_t":
        return (fn(n_t + step, n_r) - fn(n_t - step, n_r)) / (2.0 * step)
    if wrt == "n_r":
        return (fn(n_t, n_r + step) - fn(n_t, n_r - step)) / (2.0 * step)
    raise ValueError(f"unknown variable {wrt!r}")


@dataclass(frozen=True)
class AlphaThresholds:
    """Exponent thresholds of the three MDR gain-vs-N_t regimes."""

    alpha0: float
    alpha1: float

    def __post_init__(self):
        if not 0.0 < self.alpha0 < self.alpha1 < 2.0:
            raise ValueError("thresholds must satisfy 0 < alpha0 < alpha1 < 2")


def find_alpha_thresholds(n_r: int) -> AlphaThresholds:
    """Locate the exponents separating the MDR gain's monotonicity regimes
    with n_r receive antennas.

    Below alpha0 the gain decreases across every adjacent transmit-antenna
    pair in [2, 10]; above alpha1 it increases across every pair;
    in between it is concave (rises then falls).  Each boundary is the
    brentq root, to 1e-6, of the worst adjacent log-gain difference on
    [0.05, 1.999]; ValueError where that window does not bracket it.
    """
    from scipy.optimize import brentq  # off the run path, as in dlog_gain

    if n_r < 1:
        raise ValueError("n_r must be >= 1")

    def diffs(alpha):
        return np.diff(
            [log_coding_gain("mdr", NoiseModel.SHARED, nt, n_r, alpha) for nt in range(2, 11)]
        )

    alpha0 = brentq(lambda a: np.max(diffs(a)), 0.05, 1.999, xtol=1e-6)
    alpha1 = brentq(lambda a: np.min(diffs(a)), 0.05, 1.999, xtol=1e-6)
    return AlphaThresholds(alpha0=alpha0, alpha1=alpha1)


def _conditional_pep(h, genie, rho, s, s_prime, block_max: bool):
    """Q(sqrt(rho * sum ||H (S - S')||^2 / scale / 2)) per leading trial
    index of h (..., n_r, n_t) and genie (..., g, t_s), g = 1 per column or
    n_r per entry; scale is genie or its block maximum."""
    genie = np.asarray(genie, dtype=float)
    if np.any(genie <= 0.0):
        raise ValueError("genie record must be positive")
    h, d = np.asarray(h), np.asarray(s) - np.asarray(s_prime)
    if h.shape[-1] != d.shape[0]:
        raise ValueError(f"h has {h.shape[-1]} transmit antennas, S - S' has {d.shape[0]} rows")
    # H (S - S') summed over transmit antennas: a batched matmul is ~3x slower
    cols = h[..., 0, None] * d[0]
    for m in range(1, d.shape[0]):
        cols += h[..., m, None] * d[m]
    if genie.ndim != cols.ndim or genie.shape[-2] not in (1, cols.shape[-2]):
        raise ValueError(f"genie record of shape {genie.shape} does not match "
                         f"(..., g, t_s) with g 1 or n_r for H(S - S') {cols.shape}")
    if block_max:
        genie = genie.max(axis=(-2, -1), keepdims=True)
    arg_sq = rho * np.sum(np.abs(cols) ** 2 / genie, axis=(-2, -1)) / 2.0
    return q_function(np.sqrt(arg_sq))


def conditional_pep_gar(h, genie, rho, s, s_prime):
    """Conditional pairwise error probability of the whitened receiver.

    Q of sqrt(rho * ||H (S - S') A||^2 / 2) with A = diag(1/sqrt(A_k));
    value in [0, 1/2], one per trial of h (..., n_r, n_t) and genie
    (..., g, t_s), g = 1 (one A per column, model I) or n_r (one per entry,
    model II).
    """
    return _conditional_pep(h, genie, rho, s, s_prime, block_max=False)


def conditional_pep_mdr_bound(h, genie, rho, s, s_prime):
    """Upper bound on the minimum-distance receiver's conditional PEP.

    Replaces every subordinator by the block maximum A_max, giving
    Q(sqrt(rho * ||H (S - S')||^2 / (2 A_max))), one per trial; h and
    genie are laid out as for conditional_pep_gar.
    """
    return _conditional_pep(h, genie, rho, s, s_prime, block_max=True)


def union_bound_ber(codebook: Codebook, asymptote: PepAsymptote, rho) -> np.ndarray:
    """Union-bound BER from the pairwise asymptote.

    BER(rho) ~ (1/K) * sum over ordered pairs of
    (G_c * c_pair * rho)^(-G_d) * bit_errors / bits_per_codeword, where
    c_pair is each pair's difference-matrix scale (the asymptote assumes
    a unit-scale unitary difference, so c enters as an SNR offset).
    """
    k = len(codebook)
    pairs = ~np.eye(k, dtype=bool)
    d = (codebook.codewords[:, None] - codebook.codewords[None, :])[pairs]
    g = d @ np.swapaxes(d.conj(), 1, 2)
    scale = g[:, 0, 0].real  # (S-S')(S-S')^H = scale * I
    if not np.allclose(g, scale[:, None, None] * np.eye(codebook.n_t), atol=1e-12):
        raise ValueError("codebook has non-unitary codeword differences")
    pep = asymptote.evaluate(np.multiply.outer(scale, rho))
    return np.tensordot(codebook.bit_distance[pairs], pep, axes=1) / (
        k * codebook.bits_per_codeword)
