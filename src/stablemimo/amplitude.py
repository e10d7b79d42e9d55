"""Amplitude density of d-dimensional isotropic stable vectors.

The amplitude r = ||x|| of an isotropic stable vector with exponent alpha
and scale sigma (characteristic function exp(-sigma^alpha * ||t||^alpha))
has density

    f(r) = 2 / (2^(d/2) * Gamma(d/2))
           * integral_0^inf (r*t)^(d/2) * J_{d/2-1}(r*t) * exp(-sigma^alpha * t^alpha) dt

evaluated here by splitting the oscillatory integral at Bessel-function
zeros, Gauss-Kronrod quadrature per subinterval, and Euler acceleration
of the alternating series of subinterval contributions.  Large radii are
served by the dominant tail term K * r^(-alpha-1); tables cache the
log-density on a log-spaced grid with monotone-cubic interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

TABLE_FORMAT_VERSION = 1


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
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.d < 1 or self.d != int(self.d):
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


def _euler_sum(terms: np.ndarray) -> tuple[float, float]:
    """Sum an alternating series by iterated averaging of partial sums.

    Returns (sum, error_estimate) where the estimate is the spread of the
    last averaging stage.
    """
    s = np.cumsum(terms)
    prev_last = s[-1]
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
        prev_last = s[-1] if s.size > 1 else prev_last
    return float(s[0]), abs(float(s[0]) - float(prev_last))


def _amplitude_pdf_scalar(
    r: float, spec: IsotropicAmplitudeSpec, n_zeros: int, atol: float, rtol: float
) -> float:
    a, sigma, d = spec.alpha, spec.sigma, spec.d
    nu = d / 2.0 - 1.0
    if r == 0.0:
        if d >= 2:
            return 0.0
        return (2.0 / math.pi) * math.gamma(1.0 + 1.0 / a) / sigma

    prefactor = 2.0 / (2.0 ** (d / 2.0) * math.gamma(d / 2.0) * r)
    decay = (sigma / r) ** a

    def integrand(u):
        return u ** (d / 2.0) * special.jv(nu, u) * np.exp(-decay * u**a)

    zeros = _bessel_zeros(nu, n_zeros)
    # head [0, z_1]: non-oscillatory; breakpoints resolve a peak near u ~ r
    points = None
    if r < zeros[0] / 8.0:
        pts = r * 4.0 ** np.arange(0, 8)
        points = [p for p in pts if p < zeros[0]]
    head, head_err = integrate.quad(
        integrand, 0.0, zeros[0], epsabs=1e-14, epsrel=1e-11, limit=200, points=points
    )

    terms = np.empty(n_zeros - 1)
    seg_err = 0.0
    for i in range(n_zeros - 1):
        val, err = integrate.quad(
            integrand, zeros[i], zeros[i + 1], epsabs=1e-14, epsrel=1e-11, limit=100
        )
        terms[i] = val
        seg_err += err

    tail_sum, euler_err = _euler_sum(terms)
    total = prefactor * (head + tail_sum)
    est_err = abs(prefactor) * (head_err + seg_err + euler_err)
    if est_err > atol + rtol * abs(total):
        raise QuadratureError(
            f"amplitude pdf quadrature error estimate {est_err:.3e} exceeds "
            f"target at r={r:g} (alpha={a}, d={d})"
        )
    return max(total, 0.0)


def amplitude_pdf(
    r,
    spec: IsotropicAmplitudeSpec,
    n_zeros: int = 50,
    atol: float = 1e-10,
    rtol: float = 1e-6,
):
    """Numeric amplitude density f(r) for r >= 0.

    Raises QuadratureError when the internal error estimate misses the
    (atol, rtol) target.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be nonnegative")
    if r_arr.ndim == 0:
        return _amplitude_pdf_scalar(float(r_arr), spec, n_zeros, atol, rtol)
    out = np.empty(r_arr.shape)
    flat = r_arr.ravel()
    for i, ri in enumerate(flat):
        out.ravel()[i] = _amplitude_pdf_scalar(float(ri), spec, n_zeros, atol, rtol)
    return out


@dataclass(frozen=True)
class AmplitudePdfTable:
    """Cached log-density on a log-spaced radius grid.

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
