"""Alpha-stable variate generation and density asymptotics.

Real stable laws S_alpha(sigma, beta, mu) are parametrized by their
characteristic function

    phi(t) = exp{ j*mu*t - |sigma*t|^alpha * (1 - j*beta*sign(t)*omega(t, alpha)) }

with omega(t, alpha) = tan(pi*alpha/2) for alpha != 1 and -(2/pi)*log|t|
for alpha = 1.  Sampling uses the Chambers-Mallows-Stuck transform, which
is exact and rejection-free for every (alpha, beta).

Complex impulsive noise is built from the compound-Gaussian decomposition
w = sqrt(A) * G with A a positive totally-skewed stable subordinator.  Two
dependence structures are supported for a noise block: one shared
subordinator per time slot across receive antennas ("shared"), or i.i.d.
subordinators per matrix entry ("iid").  Either way the subordinators of
a block form one record of shape (g, t_s), one per group of entries that
share it: g = 1 (a column) under "shared", g = n_r (an entry) under "iid".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class NoiseModel(Enum):
    """Dependence structure of the impulsive noise across receive antennas.

    SHARED: one subordinator per time slot, common to all antennas
    (entries within a column are statistically dependent).
    IID: an independent subordinator per matrix entry.
    """

    SHARED = "I"
    IID = "II"


@dataclass(frozen=True)
class StableParams:
    """Parameter bundle (alpha, sigma, beta, mu) for one real stable law.

    alpha in (0, 2], sigma > 0, beta in [-1, 1].  alpha = 2 is Gaussian
    with variance 2*sigma**2 regardless of beta.
    """

    alpha: float
    sigma: float = 1.0
    beta: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")


def stable_tail_constant(alpha: float) -> float:
    """C_alpha = Gamma(alpha) * sin(pi*alpha/2) / pi."""
    return math.gamma(alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


def sample_stable(params: StableParams, rng: np.random.Generator, size=None):
    """Draw variates of S_alpha(sigma, beta, mu) via the CMS transform.

    Returns a scalar when size is None, else an ndarray of that shape.
    The alpha = 1 branch carries the extra (2/pi)*beta*sigma*log(sigma)
    shift required by the parametrization's scaling rule.
    """
    alpha, sigma, beta, mu = params.alpha, params.sigma, params.beta, params.mu
    shape = () if size is None else size
    u = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    w = rng.standard_exponential(shape)

    if alpha == 1.0:
        half_pi = np.pi / 2
        x = (2 / np.pi) * (
            (half_pi + beta * u) * np.tan(u)
            - beta * np.log((half_pi * w * np.cos(u)) / (half_pi + beta * u))
        )
        out = sigma * x + mu
        if beta != 0.0:
            out = out + (2 / np.pi) * beta * sigma * math.log(sigma)
    else:
        tb = beta * math.tan(math.pi * alpha / 2.0)
        b0 = math.atan(tb) / alpha
        s0 = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
        # s0 sin(au) / cos(u)^(1/alpha) * (cos(u - au) / w)^((1-alpha)/alpha),
        # au = alpha (u + b0), step by step in place.  With size None each
        # power takes a scalar, as the expression did: numpy's pow on a 0-d
        # array can round differently
        au = np.add(u, b0)
        au *= alpha
        out = np.sin(au)
        out *= s0
        c = np.cos(u)
        c **= 1.0 / alpha
        out /= c
        np.cos(np.subtract(u, au, out=u), out=u)
        u /= w
        c = u[()]  # u itself, or its scalar when size is None
        c **= (1.0 - alpha) / alpha
        out *= c
        out *= sigma
        out += mu

    if size is None:
        return float(out)
    return out


def sample_subordinator(alpha: float, rng: np.random.Generator, size=None):
    """Draw the positive subordinator A of the compound-Gaussian form.

    A ~ S_{alpha/2}([cos(pi*alpha/4)]^(2/alpha), 1, 0), so that
    sqrt(A) * G with G ~ S_2(1, 0, 0) per real component is an isotropic
    unit-scale stable variate.  Requires 0 < alpha < 2.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    scale = math.cos(math.pi * alpha / 4.0) ** (2.0 / alpha)
    params = StableParams(alpha=alpha / 2.0, sigma=scale, beta=1.0, mu=0.0)
    return sample_stable(params, rng, size=size)


def complex_normal(rng: np.random.Generator, shape, scale) -> np.ndarray:
    """scale * (G_re + j*G_im), G_re then G_im drawn by rng.normal, each part
    written in place: the bits of real x complex scaling (and of complex
    division by d for scale = 1.0 / d), with no complex temporary."""
    z = np.empty(shape, complex)
    np.multiply(scale, rng.normal(size=shape), out=z.real)
    np.multiply(scale, rng.normal(size=shape), out=z.imag)
    return z


def sample_noise_block(
    model: NoiseModel,
    alpha: float,
    n_r: int,
    t_s: int,
    rng: np.random.Generator,
    size=None,
):
    """Sample impulsive-noise blocks W (n_r x t_s) plus the genie record.

    Entries are sqrt(A) * (G_re + j*G_im) with G_re, G_im ~ N(0, 1), the
    per-entry construction of the noise models (each Gaussian component
    has unit variance).  The genie record holds one A per group of entries
    that share it, in the one layout (g, t_s): g = 1 under SHARED (one A
    per column, spread over it by broadcasting), g = n_r under IID (one A
    per entry); alpha = 2 degenerates to A = 1 (pure complex Gaussian).

    Returns (w, genie): with size=None, w has shape (n_r, t_s) and genie
    shape (g, t_s).  An integer size prepends a batch axis to both.
    """
    if n_r < 1 or t_s < 1:
        raise ValueError("n_r and t_s must be >= 1")
    batch = () if size is None else (size,)
    a_shape = batch + (1 if model is NoiseModel.SHARED else n_r, t_s)
    a = np.ones(a_shape) if alpha == 2.0 else sample_subordinator(alpha, rng, size=a_shape)
    return complex_normal(rng, batch + (n_r, t_s), np.sqrt(a)), a


def tail_pdf(w, params: StableParams):
    """Dominant tail term of the stable density at w > 0.

    alpha*(1+beta)*C_alpha*sigma^alpha*w^(-alpha-1); the neglected
    remainder is O(w^(-2*alpha-1)).
    """
    a, s, b = params.alpha, params.sigma, params.beta
    c = stable_tail_constant(a)
    return a * (1.0 + b) * c * s**a * np.asarray(w, dtype=float) ** (-a - 1.0)


def tail_ccdf(lam, params: StableParams):
    """Dominant term of P(w > lam): C_alpha*sigma^alpha*(1+beta)*lam^(-alpha)."""
    a, s, b = params.alpha, params.sigma, params.beta
    c = stable_tail_constant(a)
    return c * s**a * (1.0 + b) * np.asarray(lam, dtype=float) ** (-a)


def char_fn(t, params: StableParams):
    """Exact characteristic function phi(t) of S_alpha(sigma, beta, mu)."""
    a, s, b, m = params.alpha, params.sigma, params.beta, params.mu
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty(t.shape, dtype=complex)
    zero = t == 0.0
    out[zero] = 1.0
    tt = t[~zero]
    if a == 1.0:
        omega = -(2.0 / np.pi) * np.log(np.abs(tt))
    else:
        omega = math.tan(math.pi * a / 2.0)
    out[~zero] = np.exp(
        1j * m * tt - np.abs(s * tt) ** a * (1.0 - 1j * b * np.sign(tt) * omega)
    )
    return out[0] if scalar else out
