"""Amplitude density of d-dimensional isotropic stable vectors.

The amplitude r = ||x|| of an isotropic stable vector with exponent alpha
at the simulator's noise scale sigma = NOISE_SIGMA (characteristic function
exp(-sigma^alpha * ||t||^alpha)) has density

    f(r) = 2 / (2^(d/2) * Gamma(d/2))
           * integral_0^inf (r*t)^(d/2) * J_{d/2-1}(r*t) * exp(-sigma^alpha * t^alpha) dt

evaluated here for all radii at once.  With u = r*t the integrand becomes
u^(d/2) * J_{d/2-1}(u) * exp(-(sigma/r)^alpha * u^alpha) / r: a fixed
Gauss-Legendre rule on the segments between Bessel-function zeros (and on
geometric sub-segments of [0, z_1]) depends only on d and is cached; Euler
averaging sums the alternating segment contributions for every radius at
once.  J_n is the midpoint rule on Bessel's integral (Trefethen & Weideman
2014) for d = 2, 4, 6, 8, closed forms for d = 1, 3 and scipy's jv for other
d; Newton's method on it refines McMahon's estimates of the zeros.  Large
radii use the tail term K * r^(-alpha-1), K a function of the spec alone.
Tables hold the log-density on a log-uniform grid from r = 1e-3, read by a
direct-index PCHIP lookup (monotone cubic, Fritsch & Carlson 1980) that
equals scipy's PchipInterpolator bit for bit, with the below-grid and tail
laws as two more rows of its interval table, and save/load as versioned
.npz archives.  The ML receiver reads the same laws in u = log r^2 from a
second row set: anchors 2 x_i, coefficients c_k / 2^k, off-grid rows 0, n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TABLE_FORMAT_VERSION = 1

# Quadrature: Bessel zeros bounding the oscillatory segments; halvings of
# [0, z_1] into head sub-segments; two Gauss-Legendre orders whose
# difference estimates the error; radii per block, so that no (radii,
# segments, nodes) temporary exceeds 1 MB; the error target; the first
# node of a table's grid.
_N_ZEROS = 50
_HEAD_HALVINGS = 48
_RULE_ORDERS = (24, 32)
_BLOCK_RADII = 16
_ATOL = 1e-10
_RTOL = 1e-6
_R_MIN = 1e-3

# Isotropic scale of the simulator's unit noise entries sqrt(A) * (G_re +
# j*G_im), unit-variance Gaussian parts, in the characteristic-function
# convention of the density formula, for any number of real dimensions d.
NOISE_SIGMA = 2.0**-0.5


class QuadratureError(RuntimeError):
    """The oscillatory quadrature failed its internal error target."""


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
            + (d - 1) * np.log(r)
            - (d / 2.0) * math.log(v)
            - math.lgamma(d / 2.0)
            - r * r / v
        )


def _jn(n: float, x):
    """J_n(x), integer-valued n, elementwise: the 64-point midpoint rule on [0, pi/2]
    of (2/pi) trig(n t) trig(x sin t), trig = cos for even n, sin for odd."""
    t = (np.arange(64) + 0.5) * (np.pi / 128.0)
    trig = np.sin if n % 2 else np.cos
    return (trig(np.multiply.outer(x, np.sin(t))) * trig(n * t)).mean(axis=-1)


def _bessel(nu: float, n: int):
    """J_nu as an array function, and its first n positive zeros: McMahon's
    estimates (DLMF 10.21(vi)), refined by Newton's method unless nu = +-1/2."""
    beta = (np.arange(1, n + 1) + nu / 2.0 - 0.25) * np.pi
    zeros = beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)
    if abs(nu) == 0.5:  # J_{-1/2}, J_{1/2} = sqrt(2/(pi x)) * (cos x, sin x)
        trig = np.sin if nu > 0 else np.cos
        return (lambda x: np.sqrt(2.0 / (np.pi * x)) * trig(x)), zeros
    if nu in (0, 1, 2, 3):  # d <= 8; _jn loses relative accuracy at u ~ 1e-3 past J_3
        jv = _jn
    else:  # d = 5, 7 or d >= 9: off the import path
        from scipy.special import jv
    for _ in range(8):  # J_nu' = J_{nu-1} - (nu/x) J_nu, with J_{-1} = -J_1
        j = jv(nu, zeros)
        zeros = zeros - j / (jv(nu - 1, zeros) - nu / zeros * j)
    return functools.partial(jv, nu), zeros


@functools.cache
def _hankel_rule(d: int):
    """Head size; per rule order, read-only nodes u, weights w u^(d/2) J_nu(u)."""
    jv, zeros = _bessel(d / 2.0 - 1.0, _N_ZEROS)
    # head [0, z_1]: geometric sub-segments resolve the peak near u ~ r/sigma
    head = zeros[0] * 2.0 ** -np.arange(_HEAD_HALVINGS, -1, -1.0)
    edges = np.concatenate([[0.0], head, zeros[1:]])
    half = 0.5 * np.diff(edges)[:, None]
    rules = []
    for order in _RULE_ORDERS:
        x, w = np.polynomial.legendre.leggauss(order)
        u = edges[:-1, None] + half * (x + 1.0)  # (segments, order) nodes
        weights = half * w * u ** (d / 2.0) * jv(u)
        u.flags.writeable = weights.flags.writeable = False  # shared by calls
        rules.append((u, weights))
    return head.size, tuple(rules)


def _hankel_pdf(r: np.ndarray, spec: IsotropicAmplitudeSpec) -> np.ndarray:
    """f(r) for every r in (0, inf): the substituted integral (module
    docstring) by two rule orders, checked against _ATOL + _RTOL * f."""
    a, d = spec.alpha, spec.d
    n_head, rules = _hankel_rule(d)
    decay = (NOISE_SIGMA / r) ** a
    totals = []
    for u, weights in rules:
        ua = u**a
        terms = np.empty((r.size, u.shape[0]))
        for i in range(0, r.size, _BLOCK_RADII):
            block = decay[i : i + _BLOCK_RADII, None, None]
            terms[i : i + _BLOCK_RADII] = np.einsum(
                "bsn,sn->bs", np.exp(-block * ua), weights
            )
        # Euler: iterated averaging of the partial sums past the head
        s = np.cumsum(terms[:, n_head:], axis=1)
        while s.shape[1] > 2:
            s = 0.5 * (s[:, :-1] + s[:, 1:])
        totals.append(terms[:, :n_head].sum(axis=1) + s.mean(axis=1))
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
    target _ATOL + _RTOL * f.  Its absolute part dominates wherever f <
    ~1e-4, so far in the tail use amplitude_tail_pdf (alpha 1.43, d 4:
    f(1e6) is off by -1.3e-4 relative).
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0.0):
        raise ValueError("radius must be nonnegative (and not NaN)")
    flat = r_arr.ravel()
    out = np.zeros(flat.shape)  # f(+inf) = 0, and f(0) = 0 for d >= 2
    if spec.d == 1:
        out[flat == 0.0] = (
            (2.0 / math.pi) * math.gamma(1.0 + 1.0 / spec.alpha) / NOISE_SIGMA
        )
    inner = (flat > 0.0) & (flat < np.inf)
    out[inner] = _hankel_pdf(flat[inner], spec)
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

    Between nodes: PCHIP in log r / log f, bit-equal to scipy's.  A radius's
    interval is floor((log r - log r_0) / h), corrected by one comparison
    each way; that is exact because every node must index to its own
    interval or the one below (so the grid must be log-uniform).  Two more
    rows of the interval table, cubics whose s^2 and s^3 coefficients are 0,
    hold the laws off the grid, so every radius takes one route.  Below the
    grid: the exact r^(d-1) small-radius power behavior anchored at the
    first node.  Beyond the grid: the dominant tail term log K - (alpha+1)
    log r (anchored at log r = 0), K = amplitude_tail_constant(spec); at
    alpha = 2 the exact Gaussian law overwrites it.
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
        # extra rows: n - 1 below the grid, n beyond it
        off_grid = np.array([[self.log_values[0], log_k],
                             [self.spec.d - 1.0, -(self.spec.alpha + 1.0)], [0.0, 0.0], [0.0, 0.0]])
        cubics = _pchip_coefficients(x, self.log_values)
        # 1/h, interval upper ends (the last is closed), per-row anchors, cubics
        lookup = ((x.size - 1) / (x[-1] - x[0]), np.append(x[1:-1], np.inf),
                  np.append(x[:-1], [math.log(self.grid[0]), 0.0]),
                  np.hstack([cubics, off_grid]))
        object.__setattr__(self, "_lookup", lookup)
        # the same laws in u = 2 log r by exact power-of-two scalings, rows
        # 0 (below the grid), 1 ... n-1 and n; highest power first (Horner)
        rows = np.hstack([off_grid[:, :1], cubics, off_grid[:, 1:]])
        rows *= [[1.0], [0.5], [0.25], [0.125]]
        step = 0.5 * lookup[0]  # 1 / h_u
        u_rows = (2.0 * x[0] - 1.0 / step, step,
                  2.0 * np.concatenate([x[:1], x[:-1], [0.0]]), rows[::-1].copy())
        object.__setattr__(self, "_u_rows", u_rows)
        if not np.all(np.isin(np.arange(x.size) - self._guess(x), (0, 1))):
            raise ValueError("grid must be log-uniform (direct-index lookup)")

    def _guess(self, lx):
        """floor((lx - x_0) / h) clipped to [0, n-2]; NaN maps to 0."""
        inv_step, upper, anchor = self._lookup[:3]
        t = np.subtract(lx, anchor[0])
        t *= inv_step
        np.fmax(t, 0.0, out=t)
        return np.fmin(t, upper.size - 1, out=t).astype(np.intp)

    def log_pdf(self, r):
        """Vectorized log f(r); -inf at r = inf and at r = 0 for d >= 2, NaN at NaN."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        _, upper, anchor, coef = self._lookup
        with np.errstate(divide="ignore"):
            lx = np.log(r)
        # every step writes into arrays held here; all indices are in range
        # (-1 below the grid is reset next), so "wrap" takes skip the checks
        i = self._guess(lx)
        term, mask, inf = np.empty_like(lx), np.empty(lx.shape, bool), np.isinf(lx)
        i -= np.less(lx, anchor.take(i, out=term, mode="wrap"), out=mask)
        i += np.greater_equal(lx, upper.take(i, out=term, mode="wrap"), out=mask)
        np.putmask(i, np.less(r, self.grid[0], out=mask), upper.size)
        np.putmask(i, np.greater(r, self.grid[-1], out=mask), upper.size + 1)
        s = np.subtract(lx, anchor.take(i, out=term, mode="wrap"), out=lx)
        out = coef[0].take(i, out=np.empty_like(s), mode="wrap")
        with np.errstate(invalid="ignore"):  # 0 * inf in an off-grid row, at r = 0 or inf
            # ((c0 + c1 s) + c2 s^2) + c3 s^3
            out += np.multiply(coef[1].take(i, out=term, mode="wrap"), s, out=term)
            s2 = s * s
            out += np.multiply(coef[2].take(i, out=term, mode="wrap"), s2, out=term)
            s2 *= s
            out += np.multiply(coef[3].take(i, out=term, mode="wrap"), s2, out=term)
            if self.spec.alpha == 2.0:
                above = r > self.grid[-1]
                out[above] = _gaussian_log_amplitude_pdf(r[above], self.spec.d)
        np.putmask(out, inf, -np.inf)
        if self.spec.d == 1:  # f(0) is finite
            np.putmask(out, r == 0.0, self.log_values[0])
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
    """Tabulate log f on a log-spaced grid from _R_MIN to r_max by direct
    quadrature.

    r_max defaults to the radius where the tail formula is accurate to 1%
    (alpha < 2) or a fixed multiple of the Gaussian spread (alpha = 2).
    """
    if n_nodes < 3:
        raise ValueError(f"n_nodes must be >= 3, got {n_nodes}")
    if r_max is None:
        if spec.alpha == 2.0:
            # keep the quadrature above cancellation noise; the exact
            # Gaussian branch serves radii past the grid
            r_max = 8.5 * NOISE_SIGMA
        else:
            r_max = _find_r_max(spec)
    grid = np.geomspace(_R_MIN, r_max, n_nodes)
    values = amplitude_pdf(grid, spec)
    if np.any(values <= 0.0):
        raise QuadratureError("nonpositive density on the table grid")
    return AmplitudePdfTable(spec=spec, grid=grid, log_values=np.log(values))


def noise_amplitude_spec(alpha: float, d: int) -> IsotropicAmplitudeSpec:
    """Amplitude spec of d stacked real dimensions of the simulator's unit
    noise blocks."""
    return IsotropicAmplitudeSpec(alpha=alpha, d=d)
