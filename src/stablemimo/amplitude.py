"""Amplitude density of d-dimensional isotropic stable vectors.

The simulator's noise is sub-Gaussian: d real noise components form x =
sqrt(A) * G, G ~ N(0, I_d), A the (alpha/2)-stable subordinator of
stable.sample_subordinator (Samorodnitsky & Taqqu 1994, section 2.5), so
that x has characteristic function exp(-sigma^alpha * ||t||^alpha) at sigma
= NOISE_SIGMA.  Its Chambers-Mallows-Stuck transform at beta = 1 draws A =
B(theta) * W^(-gamma), theta ~ U(0, pi), W ~ Exp(1), rho = alpha/2, gamma =
(1 - rho)/rho and B(theta) = sin(rho theta) sin((1-rho) theta)^gamma /
sin(theta)^(1/rho), its scale factors cancelling.  So l = log A has
Zolotarev's integral form (Nolan 1997), and r = ||x|| a smooth integral
over it, S_{d-1} the area of the unit sphere:

    p(l) = 1/(pi gamma) * integral_0^pi exp(v - e^v) dtheta,  v = (log B(theta) - l)/gamma,
    f(r) = S_{d-1} r^(d-1) * integral p(l) (2 pi e^l)^(-d/2) exp(-r^2 e^(-l) / 2) dl,

evaluated for all radii at once: tanh-sinh in theta, the trapezoid rule in
l, both exponentially convergent (Trefethen & Weideman 2014), their nested
half rules estimating the error.  alpha = 2 is the exact Gaussian law, and
large radii use the tail term K * r^(-alpha-1), K a function of the spec.
Tables hold the log-density on a log-uniform grid from r = 1e-3 as PCHIP
cubics (monotone, Fritsch & Carlson 1980) whose coefficients equal scipy's
PchipInterpolator's bit for bit, and save/load as versioned .npz archives.
One row set holds every law in u = log r^2: anchors 2 x_i, coefficients
c_k / 2^k, the below-grid and tail laws as rows 0 and n, read by one
clipped row index and Horner's rule from energies and from radii alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TABLE_FORMAT_VERSION = 1

# Quadrature: tanh-sinh nodes in theta and their range in t; the range of
# l = log A and the largest trapezoid step in it; elements per evaluation
# block, so that no (nodes, nodes) temporary exceeds 2 MB (the blocks fix
# the products' summation, and so the table's bits); the error target; the
# first node of a table's grid.
_THETA_NODES = 383
_T_MAX = 3.2
_LOG_A_RANGE = (-30.0, 90.0)
_LOG_A_STEP = 0.1
_BLOCK = 2**18
_ATOL = 1e-10
_RTOL = 1e-6
_R_MIN = 1e-3

# Isotropic scale of the simulator's unit noise entries sqrt(A) * (G_re +
# j*G_im), unit-variance Gaussian parts, in the convention of the module
# docstring's characteristic function, for any number of real dimensions d.
NOISE_SIGMA = 2.0**-0.5


class QuadratureError(RuntimeError):
    """The amplitude density quadrature failed its internal error target."""


@dataclass(frozen=True)
class IsotropicAmplitudeSpec:
    """Exponent and real dimension count of one amplitude law, at the
    noise scale NOISE_SIGMA."""

    alpha: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
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
    return k * NOISE_SIGMA**a


def amplitude_tail_pdf(r, spec: IsotropicAmplitudeSpec):
    """Dominant tail term K * r^(-alpha-1); remainder O(r^(-2*alpha-1))."""
    return amplitude_tail_constant(spec) * np.asarray(r, dtype=float) ** (
        -spec.alpha - 1.0
    )


def _gaussian_log_amplitude_pdf(r, d: int):
    """Exact log-density at alpha = 2: chi-type law with 2*sigma^2 per component."""
    r = np.asarray(r, dtype=float)
    v = 4.0 * NOISE_SIGMA * NOISE_SIGMA
    with np.errstate(divide="ignore", over="ignore"):
        return (
            math.log(2.0)
            + ((d - 1) * np.log(r) if d > 1 else 0.0)  # f(0) is finite for d = 1
            - (d / 2.0) * math.log(v)
            - math.lgamma(d / 2.0)
            - r * r / v
        )


@functools.cache
def _law_rule(alpha: float, d: int):
    """Trapezoid rule in l = log A for f(r) = r^(d-1) * sum_l exp(-(d/2) l -
    r^2 e^(-l) / 2) * weight: read-only -e^(-l)/2, -(d/2) l and weights
    (n_l, 3), the full rule and its nested halves (every other theta node,
    every other l node)."""
    rho = alpha / 2.0
    gamma = (1.0 - rho) / rho
    # tanh-sinh on (0, pi), pi - theta formed apart so that nodes near pi,
    # where B -> inf makes the tail, keep their digits
    t = np.linspace(-_T_MAX, _T_MAX, _THETA_NODES)
    x = 0.5 * np.pi * np.sinh(t)
    theta, rest = np.pi / (1.0 + np.exp(-2.0 * x)), np.pi / (1.0 + np.exp(2.0 * x))
    w = (t[1] - t[0]) * np.pi / 4.0 * np.cosh(t) / np.cosh(x) ** 2 / gamma
    log_b = (np.log(np.sin(rho * theta)) + gamma * np.log(np.sin((1.0 - rho) * theta))
             - np.log(np.sin(np.minimum(theta, rest))) / rho) / gamma
    theta_rules = np.stack([w, np.where(np.arange(t.size) % 2, 2.0 * w, 0.0)], axis=1)
    # the step resolves p's edge near log B(0+), width ~gamma, and at large
    # d that edge times e^(-d l / 2), width ~sqrt(2 gamma / d)
    h = min(_LOG_A_STEP, gamma / 4.0, math.sqrt(gamma / (8.0 * d)))
    log_a = np.arange(*_LOG_A_RANGE, h)
    p = np.empty((log_a.size, 2))
    step = _BLOCK // t.size
    with np.errstate(over="ignore"):
        for i in range(0, log_a.size, step):
            v = log_b - log_a[i : i + step, None] / gamma
            v -= np.exp(v)
            p[i : i + step] = np.exp(v, out=v) @ theta_rules
    # S_{d-1} (2 pi)^(-d/2) = 2^(1-d/2) / Gamma(d/2)
    weights = h * 2.0 ** (1.0 - d / 2.0) / math.gamma(d / 2.0) * np.column_stack(
        [p, np.where(np.arange(log_a.size) % 2, 0.0, 2.0 * p[:, 0])])
    rule = (-0.5 * np.exp(-log_a), -0.5 * d * log_a, weights)
    for a in rule:
        a.flags.writeable = False  # shared by calls
    return rule


def _law_pdf(r: np.ndarray, spec: IsotropicAmplitudeSpec) -> np.ndarray:
    """f(r) for every finite r >= 0 (module docstring), checked against
    _ATOL + _RTOL * f by the nested half rules."""
    a, d = spec.alpha, spec.d
    decay, power, weights = _law_rule(a, d)
    with np.errstate(divide="ignore"):
        lead = (d - 1) * np.log(r) if d > 1 else np.zeros_like(r)
    sums = np.empty((r.size, 3))
    rows = max(1, _BLOCK // decay.size)
    for i in range(0, r.size, rows):
        e = np.multiply.outer(r[i : i + rows] ** 2, decay)
        e += power
        e += lead[i : i + rows, None]
        sums[i : i + rows] = np.exp(e, out=e) @ weights
    total = sums[:, 0]
    est_err = np.abs(sums[:, 1:] - total[:, None]).sum(axis=1)
    miss = np.flatnonzero(est_err > _ATOL + _RTOL * total)
    if miss.size:
        i = miss[0]
        raise QuadratureError(f"amplitude pdf quadrature error estimate {est_err[i]:.3e} "
                              f"exceeds target at r={r[i]:g} (alpha={a}, d={d})")
    return total


def amplitude_pdf(r, spec: IsotropicAmplitudeSpec):
    """Numeric amplitude density f(r) for r >= 0, elementwise.

    Raises QuadratureError when the internal error estimate misses the
    target _ATOL + _RTOL * f.  Past r ~ 1e8 at alpha 1.9 (1e11 at 1.43) f
    falls short of the tail term unflagged: use amplitude_tail_pdf there.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0.0):
        raise ValueError("radius must be nonnegative (and not NaN)")
    flat = r_arr.ravel()
    out = np.zeros(flat.shape)  # f(+inf) = 0
    finite = flat < np.inf
    if spec.alpha == 2.0:
        out[finite] = np.exp(_gaussian_log_amplitude_pdf(flat[finite], spec.d))
    else:
        out[finite] = _law_pdf(flat[finite], spec)
    out = out.reshape(r_arr.shape)
    return float(out) if r_arr.ndim == 0 else out


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, n-1) ascending-power PCHIP cubics, by scipy's float-op sequence
    (PchipInterpolator._find_derivatives and _edge_case, CubicHermiteSpline)."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    # weighted harmonic mean of adjacent slopes; zero at a sign change or flat
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        dk = np.concatenate([[0.0], np.where(flat, 0.0, 1.0 / whmean), [0.0]])
    # end slopes: one-sided three-point estimates, clipped to preserve shape
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    same = np.sign(end) == np.sign(m0)
    steep = same & (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
    dk[[0, -1]] = np.where(steep, 3.0 * m0, np.where(same, end, 0.0))
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    return np.stack([y[:-1], dk[:-1], (m - dk[:-1]) / h - t, t / h])


@dataclass(frozen=True)
class AmplitudePdfTable:
    """Log-density tabulated on a log-uniform radius grid.

    Between nodes: PCHIP in log r / log f, read in u = 2 log r through
    exact power-of-two scalings (anchors 2 x_i, coefficients c_k / 2^k).
    A value's row is its offset from u_0 - h_u in steps h_u, clipped and
    truncated once, so rows 1 ... n-1 hold the cubics and node i must index
    row i or i + 1 (the grid must be log-uniform).  Rows 0 and n, cubics
    whose s^2 and s^3 coefficients are 0, hold the laws off the grid.
    Below the grid: the exact r^(d-1) small-radius power behavior anchored
    at the first node.  Beyond the grid: the dominant tail term log K -
    (alpha+1) log r, K = amplitude_tail_constant(spec); at alpha = 2 the
    exact Gaussian law overwrites it.
    """

    spec: IsotropicAmplitudeSpec
    grid: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.log_values)):
            raise ValueError("log-density must be finite on the grid")
        if self.grid.size < 3 or np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing, with >= 3 nodes")
        x = np.log(self.grid)
        # K > 0, also at alpha = 2
        log_k = math.log(amplitude_tail_constant(self.spec))
        # rows 0 (below the grid), 1 ... n-1 (the cubics) and n (beyond it)
        # in log r, then in u = 2 log r; highest power first (Horner)
        rows = np.hstack([[[self.log_values[0]], [self.spec.d - 1.0], [0.0], [0.0]],
                          _pchip_coefficients(x, self.log_values),
                          [[log_k], [-(self.spec.alpha + 1.0)], [0.0], [0.0]]])
        rows *= [[1.0], [0.5], [0.25], [0.125]]
        step = 0.5 * ((x.size - 1) / (x[-1] - x[0]))  # 1 / h_u
        u_rows = (2.0 * x[0] - 1.0 / step, step,
                  2.0 * np.concatenate([x[:1], x[:-1], [0.0]]), rows[::-1].copy())
        object.__setattr__(self, "_u_rows", u_rows)
        node_rows = ((2.0 * x - u_rows[0]) * step).astype(np.intp)
        if not np.all(np.isin(node_rows - np.arange(x.size), (0, 1))):
            raise ValueError("grid must be log-uniform (direct-index lookup)")

    def log_pdf(self, r):
        """Vectorized log f(r), read as log_pdf_of_energy(2 log r, r^2);
        -inf at r = inf and at r = 0 for d >= 2, NaN at NaN."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        # 2 log r, not log(r^2): finite down to the least subnormal radius
        with np.errstate(divide="ignore", over="ignore"):
            u, e = 2.0 * np.log(r), r * r
        out = self.log_pdf_of_energy(u, e)
        if self.spec.alpha == 2.0:  # r^2 overflows: the Gaussian law is -inf
            np.putmask(out, np.isinf(e), -np.inf)
        return float(out[0]) if scalar else out

    def log_pdf_of_energy(self, log_e, e):
        """log f(sqrt(e)) from energies e = r^2 and their logs u, neither
        written.  Row (u - (u_0 - h_u)) / h_u, clipped to [0, n] and truncated
        once: rounding may move a value at a node to the neighboring row,
        whose law meets it there, except at r_max.  Row 0 is y_0 + (d-1)/2
        (u - 2 x_0), row n log K - (alpha+1)/2 u; cubics by Horner's rule."""
        base, inv_step, anchor, coef = self._u_rows
        t = np.subtract(log_e, base)
        t *= inv_step
        np.fmax(t, 0.0, out=t)  # NaN maps to row 0
        i = np.fmin(t, anchor.size - 1, out=t).astype(np.intp)
        s = np.subtract(log_e, anchor.take(i, out=t, mode="wrap"), out=t)
        out, term = coef[0].take(i, mode="wrap"), np.empty_like(s)
        with np.errstate(invalid="ignore"):  # 0 * inf in an off-grid row, at e = 0 or inf
            for c in coef[1:]:
                out *= s
                out += c.take(i, out=term, mode="wrap")
            if self.spec.alpha == 2.0:
                above = i == anchor.size - 1
                out[above] = _gaussian_log_amplitude_pdf(np.sqrt(e[above]), self.spec.d)
        np.putmask(out, np.isinf(log_e), -np.inf)
        if self.spec.d == 1:  # f(0) is finite
            np.putmask(out, e == 0.0, self.log_values[0])
        return out

    def save(self, path):
        """Dump (spec, grid, log_values) as a versioned .npz archive.

        Arrays use the NumPy .npy container, which records dtype and byte
        order in each entry's header.  The archive also holds the tail
        constant K, which load ignores: K follows from the spec.
        """
        with open(path, "wb") as fh:  # a path string would gain ".npz"
            np.savez(
                fh,
                format_version=np.int64(TABLE_FORMAT_VERSION),
                alpha=np.float64(self.spec.alpha),
                sigma=np.float64(NOISE_SIGMA),
                d=np.int64(self.spec.d),
                grid=self.grid,
                log_values=self.log_values,
                tail_constant=np.float64(amplitude_tail_constant(self.spec)),
            )

    @classmethod
    def load(cls, path) -> "AmplitudePdfTable":
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != TABLE_FORMAT_VERSION:
                raise ValueError(f"unsupported table format version {version}")
            sigma = float(data["sigma"])
            if sigma != NOISE_SIGMA:
                raise ValueError(f"table sigma {sigma} is not the noise scale {NOISE_SIGMA}")
            return cls(
                spec=IsotropicAmplitudeSpec(alpha=float(data["alpha"]), d=int(data["d"])),
                grid=data["grid"].copy(),
                log_values=data["log_values"].copy(),
            )


def _find_r_max(spec: IsotropicAmplitudeSpec) -> float:
    """Smallest radius 2^4 ... 2^39 where quadrature and tail agree to 1%."""
    r = 2.0 ** np.arange(4, 40)
    ratio = amplitude_pdf(r, spec) / amplitude_tail_pdf(r, spec)
    ok = np.flatnonzero(np.abs(ratio - 1.0) < 0.01)
    if ok.size:
        return float(r[ok[0]])
    raise QuadratureError(
        f"no radius found where the tail term is accurate (alpha={spec.alpha})"
    )


def build_amplitude_table(
    spec: IsotropicAmplitudeSpec,
    n_nodes: int = 512,
    r_max: float | None = None,
) -> AmplitudePdfTable:
    """Tabulate log f on a log-spaced grid from _R_MIN to r_max.

    r_max defaults to the radius where the tail formula is accurate to 1%
    (alpha < 2) or a fixed multiple of the Gaussian spread (alpha = 2).
    """
    if n_nodes < 3:
        raise ValueError(f"n_nodes must be >= 3, got {n_nodes}")
    if r_max is None:
        r_max = 8.5 * NOISE_SIGMA if spec.alpha == 2.0 else _find_r_max(spec)
    grid = np.geomspace(_R_MIN, r_max, n_nodes)
    return AmplitudePdfTable(spec=spec, grid=grid, log_values=np.log(amplitude_pdf(grid, spec)))


def noise_amplitude_spec(alpha: float, d: int) -> IsotropicAmplitudeSpec:
    """Amplitude spec of d stacked real dimensions of the simulator's unit
    noise blocks."""
    return IsotropicAmplitudeSpec(alpha=alpha, d=d)
