"""Amplitude density of d-dimensional isotropic stable vectors.

The amplitude r = ||x|| of an isotropic stable vector with exponent alpha
and scale sigma (characteristic function exp(-sigma^alpha * ||t||^alpha))
has density

    f(r) = 2 / (2^(d/2) * Gamma(d/2))
           * integral_0^inf (r*t)^(d/2) * J_{d/2-1}(r*t) * exp(-sigma^alpha * t^alpha) dt

evaluated here for all radii at once.  With u = r*t the integrand becomes
u^(d/2) * J_{d/2-1}(u) * exp(-(sigma/r)^alpha * u^alpha) / r: a fixed
Gauss-Legendre rule on the segments between Bessel-function zeros (and on
geometric sub-segments of [0, z_1]) depends only on the spec, and Euler
averaging sums the alternating segment contributions for every radius at
once.  Large radii are served by the dominant tail term K * r^(-alpha-1);
tables hold the log-density on a log-spaced grid with monotone-cubic
interpolation and versioned .npz save/load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

TABLE_FORMAT_VERSION = 1

# Quadrature: Bessel zeros bounding the oscillatory segments; halvings of
# [0, z_1] into head sub-segments; two Gauss-Legendre orders whose
# difference estimates the error; radii per block, so that no (radii,
# segments, nodes) temporary exceeds 1 MB; the error target.
_N_ZEROS = 50
_HEAD_HALVINGS = 48
_RULE_ORDERS = (24, 32)
_BLOCK_RADII = 16
_ATOL = 1e-10
_RTOL = 1e-6


class QuadratureError(RuntimeError):
    """The oscillatory quadrature failed its internal error target."""


@dataclass(frozen=True)
class IsotropicAmplitudeSpec:
    """Exponent, scale and real dimension count of one amplitude law."""

    alpha: float
    sigma: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.d >= 1 and float(self.d).is_integer()):
            raise ValueError(f"d must be a positive integer, got {self.d}")


def amplitude_tail_constant(spec: IsotropicAmplitudeSpec) -> float:
    """Prefactor K of the dominant tail term f(r) ~ K * r^(-alpha-1).

    K = alpha * 2^alpha * sin(pi*alpha/2)/(pi*alpha/2)
        * Gamma((alpha+2)/2) * Gamma((alpha+d)/2) / Gamma(d/2) * sigma^alpha.

    Vanishes at alpha = 2 (no power tail in the Gaussian case).
    """
    a, d = spec.alpha, spec.d
    k = (
        a
        * 2.0**a
        * (math.sin(math.pi * a / 2.0) / (math.pi * a / 2.0))
        * math.gamma((a + 2.0) / 2.0)
        * math.gamma((a + d) / 2.0)
        / math.gamma(d / 2.0)
    )
    return k * spec.sigma**a


def amplitude_tail_pdf(r, spec: IsotropicAmplitudeSpec):
    """Dominant tail term K * r^(-alpha-1); remainder O(r^(-2*alpha-1))."""
    return amplitude_tail_constant(spec) * np.asarray(r, dtype=float) ** (
        -spec.alpha - 1.0
    )


def _gaussian_log_amplitude_pdf(r, sigma: float, d: int):
    """Exact log-density at alpha = 2: chi-type law with 2*sigma^2 per component."""
    r = np.asarray(r, dtype=float)
    v = 4.0 * sigma * sigma
    with np.errstate(divide="ignore"):
        return (
            math.log(2.0)
            + (d - 1) * np.log(r)
            - (d / 2.0) * math.log(v)
            - math.lgamma(d / 2.0)
            - r * r / v
        )


def _bessel_zeros(nu: float, n: int) -> np.ndarray:
    """First n positive zeros of J_nu for integer or half-integer-ish nu."""
    k = np.arange(1, n + 1, dtype=float)
    if nu == -0.5:
        return (k - 0.5) * np.pi
    if nu == 0.5:
        return k * np.pi
    if float(nu).is_integer():
        return special.jn_zeros(int(nu), n)
    # McMahon approximation refined by bisection
    beta = (k + nu / 2.0 - 0.25) * np.pi
    approx = beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)
    zeros = np.empty(n)
    for i, x0 in enumerate(approx):
        lo, hi = x0 - 0.6 * np.pi, x0 + 0.6 * np.pi
        lo = max(lo, 1e-6)
        zeros[i] = brentq(lambda x: special.jv(nu, x), lo, hi, xtol=1e-13)
    return zeros


def _hankel_pdf(r: np.ndarray, spec: IsotropicAmplitudeSpec) -> np.ndarray:
    """f(r) for every r in (0, inf): the substituted integral (module
    docstring) by two rule orders, checked against (_ATOL, _RTOL)."""
    a, d = spec.alpha, spec.d
    zeros = _bessel_zeros(d / 2.0 - 1.0, _N_ZEROS)
    # head [0, z_1]: geometric sub-segments resolve the peak near u ~ r/sigma
    head = zeros[0] * 2.0 ** -np.arange(_HEAD_HALVINGS, -1, -1.0)
    edges = np.concatenate([[0.0], head, zeros[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    decay = (spec.sigma / r) ** a
    totals = []
    for order in _RULE_ORDERS:
        x, w = np.polynomial.legendre.leggauss(order)
        u = edges[:-1, None] + half * (x + 1.0)  # (segments, order) nodes
        ua = u**a
        weights = half * w * u ** (d / 2.0) * special.jv(d / 2.0 - 1.0, u)
        terms = np.empty((r.size, u.shape[0]))
        for i in range(0, r.size, _BLOCK_RADII):
            block = decay[i : i + _BLOCK_RADII, None, None]
            terms[i : i + _BLOCK_RADII] = np.einsum(
                "bsn,sn->bs", np.exp(-block * ua), weights
            )
        # Euler: iterated averaging of the partial sums past the head
        s = np.cumsum(terms[:, head.size :], axis=1)
        while s.shape[1] > 2:
            s = 0.5 * (s[:, :-1] + s[:, 1:])
        totals.append(terms[:, : head.size].sum(axis=1) + s.mean(axis=1))
    prefactor = 2.0 / (2.0 ** (d / 2.0) * math.gamma(d / 2.0) * r)
    total = prefactor * totals[-1]
    # rule-order difference plus the last Euler stage's spread (higher order)
    spread = 0.5 * np.abs(s[:, 0] - s[:, -1])
    est_err = prefactor * (np.abs(totals[-1] - totals[0]) + spread)
    miss = np.flatnonzero(est_err > _ATOL + _RTOL * np.abs(total))
    if miss.size:
        i = miss[0]
        raise QuadratureError(
            f"amplitude pdf quadrature error estimate {est_err[i]:.3e} exceeds "
            f"target at r={r[i]:g} (alpha={a}, d={d})"
        )
    return np.maximum(total, 0.0)


def amplitude_pdf(r, spec: IsotropicAmplitudeSpec):
    """Numeric amplitude density f(r) for r >= 0, elementwise.

    Raises QuadratureError when the internal error estimate misses the
    (_ATOL, _RTOL) target.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0.0):
        raise ValueError("radius must be nonnegative (and not NaN)")
    flat = r_arr.ravel()
    out = np.zeros(flat.shape)  # f(+inf) = 0, and f(0) = 0 for d >= 2
    if spec.d == 1:
        out[flat == 0.0] = (
            (2.0 / math.pi) * math.gamma(1.0 + 1.0 / spec.alpha) / spec.sigma
        )
    inner = (flat > 0.0) & (flat < np.inf)
    out[inner] = _hankel_pdf(flat[inner], spec)
    out = out.reshape(r_arr.shape)
    return float(out) if r_arr.ndim == 0 else out


@dataclass(frozen=True)
class AmplitudePdfTable:
    """Log-density tabulated on a log-spaced radius grid.

    Between nodes: monotone-cubic interpolation in log r / log f.  Below
    the grid: the exact r^(d-1) small-radius power behavior anchored at
    the first node.  Beyond the grid: the dominant tail term (power law
    for alpha < 2, the exact Gaussian expression at alpha = 2).
    """

    spec: IsotropicAmplitudeSpec
    grid: np.ndarray
    log_values: np.ndarray
    tail_constant: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.log_values)):
            raise ValueError("log-density must be finite on the grid")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        interp = PchipInterpolator(
            np.log(self.grid), self.log_values, extrapolate=False
        )
        object.__setattr__(self, "_interp", interp)

    def log_pdf(self, r):
        """Vectorized log f(r); -inf at r = 0 for d >= 2."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r).astype(float)
        out = np.empty(r.shape)
        lo, hi = self.grid[0], self.grid[-1]
        d = self.spec.d

        below = r < lo
        above = r > hi
        mid = ~(below | above)
        out[mid] = self._interp(np.log(r[mid]))
        if np.any(below):
            with np.errstate(divide="ignore"):
                out[below] = self.log_values[0] + (d - 1) * (
                    np.log(r[below]) - math.log(lo)
                )
            if d == 1:
                out[below] = self.log_values[0]
        if np.any(above):
            if self.spec.alpha == 2.0:
                out[above] = _gaussian_log_amplitude_pdf(
                    r[above], self.spec.sigma, d
                )
            else:
                out[above] = math.log(self.tail_constant) - (
                    self.spec.alpha + 1.0
                ) * np.log(r[above])
        return float(out[0]) if scalar else out

    def pdf(self, r):
        return np.exp(self.log_pdf(r))

    def save(self, path):
        """Dump (spec, grid, log_values) as a versioned .npz archive.

        Arrays use the NumPy .npy container, which records dtype and byte
        order in each entry's header.
        """
        with open(path, "wb") as fh:  # a path string would gain ".npz"
            np.savez(
                fh,
                format_version=np.int64(TABLE_FORMAT_VERSION),
                alpha=np.float64(self.spec.alpha),
                sigma=np.float64(self.spec.sigma),
                d=np.int64(self.spec.d),
                grid=self.grid,
                log_values=self.log_values,
                tail_constant=np.float64(self.tail_constant),
            )

    @classmethod
    def load(cls, path) -> "AmplitudePdfTable":
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != TABLE_FORMAT_VERSION:
                raise ValueError(f"unsupported table format version {version}")
            spec = IsotropicAmplitudeSpec(
                alpha=float(data["alpha"]),
                sigma=float(data["sigma"]),
                d=int(data["d"]),
            )
            return cls(
                spec=spec,
                grid=data["grid"].copy(),
                log_values=data["log_values"].copy(),
                tail_constant=float(data["tail_constant"]),
            )


def _find_r_max(spec: IsotropicAmplitudeSpec, agreement: float = 0.01) -> float:
    """Smallest power-of-two radius where quadrature and tail agree to 1%."""
    r = 16.0
    while r < 2.0**40:
        ratio = amplitude_pdf(r, spec) / amplitude_tail_pdf(r, spec)
        if abs(ratio - 1.0) < agreement:
            return r
        r *= 2.0
    raise QuadratureError(
        f"no radius found where the tail term is accurate (alpha={spec.alpha})"
    )


def build_amplitude_table(
    spec: IsotropicAmplitudeSpec,
    n_nodes: int = 512,
    r_min: float = 1e-3,
    r_max: float | None = None,
) -> AmplitudePdfTable:
    """Tabulate log f on a log-spaced grid from direct quadrature.

    r_max defaults to the radius where the tail formula is accurate to 1%
    (alpha < 2) or a fixed multiple of the Gaussian spread (alpha = 2).
    """
    if r_max is None:
        if spec.alpha == 2.0:
            # keep the quadrature above cancellation noise; the exact
            # Gaussian branch serves radii past the grid
            r_max = 8.5 * spec.sigma
        else:
            r_max = _find_r_max(spec)
    grid = np.geomspace(r_min, r_max, n_nodes)
    values = amplitude_pdf(grid, spec)
    if np.any(values <= 0.0):
        raise QuadratureError("nonpositive density on the table grid")
    return AmplitudePdfTable(
        spec=spec,
        grid=grid,
        log_values=np.log(values),
        tail_constant=amplitude_tail_constant(spec),
    )


def noise_amplitude_spec(alpha: float, d: int) -> IsotropicAmplitudeSpec:
    """Amplitude spec matching the simulator's unit noise blocks.

    Noise entries sqrt(A) * (G_re + j*G_im) with unit-variance Gaussian
    components have isotropic scale 2^(-1/2) in the characteristic-function
    convention used by the density formula, for any number of stacked
    real dimensions d.
    """
    return IsotropicAmplitudeSpec(alpha=alpha, sigma=2.0**-0.5, d=d)
