"""Reproducible parallel bit-error-rate sweeps.

Trials are generated in fixed-size chunks whose random streams are
counter-based: the Philox key for chunk c of SNR point j is a pure
function of (master_seed, j, c), so results are bitwise identical for
any worker count.  All requested receivers decode the same realizations
(paired comparison), and per-point sampling stops once every receiver
has collected the target number of bit errors or the trial cap is hit.
Chunk results are folded in chunk order, so the stopping decision is
independent of worker scheduling.  A pool keeps at most `workers` chunks
in flight; chunks computed past the stop are discarded.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .amplitude import AmplitudePdfTable, build_amplitude_table, noise_amplitude_spec
from .codes import Codebook, codeword_products, enumerate_codebook, sample_channel
from .receivers import (
    RECEIVER_KINDS,
    ResidualEnergies,
    check_ml_table,
    decide,
    ml_table_dimension,
    residuals,
)
from .stable import NoiseModel, sample_noise_block

CHUNK_TRIALS = 8192  # part of the determinism contract: streams are per-chunk
# the Philox key packs (snr_index, chunk_index) into one 64-bit word
_KEY_FIELD_LIMIT = 2**32
_WILSON_Z = 1.959963984540054  # two-sided 95%


class SlopeFitError(RuntimeError):
    """Not enough well-populated points to fit a diversity slope."""


@dataclass(frozen=True)
class SimConfig:
    """Full description of one BER sweep; the defaults are also the config
    file's defaults."""

    model: NoiseModel = NoiseModel.SHARED
    alpha: float = 1.43
    n_r: int = 1
    snr_grid_db: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
    code: str = "alamouti"
    constellation: str = "bpsk"
    receivers: tuple[str, ...] = ("gar", "mdr", "ml", "aor")
    master_seed: int = 0
    min_errors: int = 200
    max_trials: int = 10_000_000
    workers: int = 1

    def __post_init__(self):
        for name in ("n_r", "min_errors", "max_trials", "workers", "master_seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        grid = tuple(float(s) for s in self.snr_grid_db)
        if (
            len(grid) == 0
            or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0.0)
        ):
            raise ValueError(
                "snr_grid_db must be non-empty, finite and strictly increasing"
            )
        if len(grid) > _KEY_FIELD_LIMIT:
            raise ValueError(
                f"snr_grid_db has {len(grid)} points; chunk streams allow at "
                f"most {_KEY_FIELD_LIMIT}"
            )
        object.__setattr__(self, "snr_grid_db", grid)
        receivers = tuple(self.receivers)
        for r in receivers:
            if r not in RECEIVER_KINDS:
                raise ValueError(f"unknown receiver {r!r}")
        if not receivers or len(set(receivers)) != len(receivers):
            raise ValueError("receivers must be non-empty and without duplicates")
        object.__setattr__(self, "receivers", receivers)
        if self.min_errors <= 0 or self.max_trials <= 0:
            raise ValueError("stopping parameters must be positive")
        if math.ceil(self.max_trials / CHUNK_TRIALS) > _KEY_FIELD_LIMIT:
            raise ValueError(
                f"max_trials {self.max_trials} needs more than "
                f"{_KEY_FIELD_LIMIT} chunks of {CHUNK_TRIALS} trials"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        enumerate_codebook(self.code, self.constellation)  # validates both

    @property
    def n_t(self) -> int:
        return enumerate_codebook(self.code, self.constellation).n_t


@dataclass(frozen=True)
class BerPoint:
    """One (receiver, SNR) measurement with its Wilson interval."""

    snr_db: float
    trials: int
    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float
    stopped_on: str  # "errors" | "trials"


@dataclass(frozen=True)
class BerCurve:
    """Per-receiver BER measurements over the SNR grid, plus config echo."""

    config: SimConfig
    points: dict[str, tuple[BerPoint, ...]]

    def snr_db(self, receiver: str) -> np.ndarray:
        return np.array([p.snr_db for p in self.points[receiver]])

    def ber(self, receiver: str) -> np.ndarray:
        return np.array([p.ber for p in self.points[receiver]])


def wilson_interval(errors: int, total: int, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total))
        / denom
    )
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == total else min(center + half, 1.0)
    return lo, hi


def _chunk_rng(master_seed: int, snr_index: int, chunk_index: int):
    if not (0 <= snr_index < _KEY_FIELD_LIMIT and 0 <= chunk_index < _KEY_FIELD_LIMIT):
        raise ValueError(
            f"chunk key ({snr_index}, {chunk_index}) does not fit in two "
            f"32-bit fields"
        )
    key = np.array(
        [master_seed, (snr_index << 32) | chunk_index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def _run_chunk(
    config: SimConfig, codebook: Codebook, ml_table: AmplitudePdfTable | None,
    snr_index: int, chunk_index: int,
):
    """Decode one chunk of paired trials; returns (trials, per-receiver
    bit-error counts)."""
    n = min(CHUNK_TRIALS, config.max_trials - chunk_index * CHUNK_TRIALS)
    rho = 10.0 ** (config.snr_grid_db[snr_index] / 10.0)
    rng = _chunk_rng(config.master_seed, snr_index, chunk_index)

    h = sample_channel(config.n_r, codebook.n_t, rng, size=n)
    tx = rng.integers(0, len(codebook), size=n)
    w, genie = sample_noise_block(
        config.model, config.alpha, config.n_r, codebook.t_s, rng, size=n
    )
    hc = codeword_products(h, codebook)
    y = np.sqrt(rho) * hc[np.arange(n), tx] + w

    energies = ResidualEnergies(residuals(y, hc, rho))
    errors = np.zeros(len(config.receivers), dtype=np.int64)
    for i, rx in enumerate(config.receivers):
        dec = decide(rx, energies, genie, config.model, ml_table)
        errors[i] = codebook.bit_distance[tx, dec].sum()
    return n, errors


def _in_chunk_order(run, n_chunks: int, pool, window: int):
    """Yield run(c) for c = 0, 1, ..., n_chunks - 1 in order.  A pool keeps
    at most `window` chunks in flight; closing the stream early cancels
    those not yet started."""
    if pool is None:
        yield from map(run, range(n_chunks))
        return
    futures = deque()
    try:
        for c in range(n_chunks):
            if len(futures) == window:
                yield futures.popleft().result()
            futures.append(pool.submit(run, c))
        while futures:
            yield futures.popleft().result()
    finally:
        for f in futures:
            f.cancel()


def build_ml_table(config: SimConfig) -> AmplitudePdfTable:
    """Amplitude table matched to the configured noise model."""
    d = ml_table_dimension(config.model, config.n_r)
    return build_amplitude_table(noise_amplitude_spec(config.alpha, d))


def run_sweep(
    config: SimConfig, ml_table: AmplitudePdfTable | None = None
) -> BerCurve:
    """Run the configured sweep and estimate BER per (receiver, SNR).

    Identical master_seed gives bitwise-identical results for any worker
    count.  An ML table is built on demand when the roster asks for the
    ml receiver and none is supplied.
    """
    if "ml" not in config.receivers:
        ml_table = None
    else:
        if ml_table is None:
            ml_table = build_ml_table(config)
        check_ml_table(ml_table, config.model, config.n_r)

    codebook = enumerate_codebook(config.code, config.constellation)
    bits = codebook.bits_per_codeword
    n_chunks = math.ceil(config.max_trials / CHUNK_TRIALS)
    points: dict[str, list[BerPoint]] = {r: [] for r in config.receivers}
    with ProcessPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        for j, snr_db in enumerate(config.snr_grid_db):
            run = partial(_run_chunk, config, codebook, ml_table, j)
            errors = np.zeros(len(config.receivers), dtype=np.int64)
            trials = 0
            stopped_on = "trials"
            for n, chunk_errors in _in_chunk_order(run, n_chunks, pool, config.workers):
                trials += n
                errors += chunk_errors
                if np.all(errors >= config.min_errors):
                    stopped_on = "errors"
                    break
            total_bits = trials * bits
            for i, rx in enumerate(config.receivers):
                lo, hi = wilson_interval(int(errors[i]), total_bits)
                points[rx].append(
                    BerPoint(
                        snr_db=snr_db,
                        trials=trials,
                        bit_errors=int(errors[i]),
                        ber=errors[i] / total_bits,
                        ci_lo=lo,
                        ci_hi=hi,
                        stopped_on=stopped_on,
                    )
                )

    return BerCurve(
        config=config, points={r: tuple(v) for r, v in points.items()}
    )


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log10 BER vs log10 rho."""

    slope: float
    stderr: float
    n_points: int

    @property
    def diversity(self) -> float:
        return -self.slope


def fit_slope(
    curve: BerCurve, receiver: str, window: int = 4, min_point_errors: int = 100
) -> SlopeFit:
    """Fit the high-SNR slope over the top `window` SNR points.

    Requires at least 3 points in the window with min_point_errors bit
    errors each; raises SlopeFitError otherwise.
    """
    pts = [p for p in curve.points[receiver][-window:] if p.bit_errors >= min_point_errors]
    if len(pts) < 3:
        raise SlopeFitError(
            f"need >= 3 points with >= {min_point_errors} bit errors in the "
            f"top-{window} window for {receiver!r}, have {len(pts)}"
        )
    x = np.array([p.snr_db / 10.0 for p in pts])  # log10 rho
    y = np.log10([p.ber for p in pts])
    n = len(pts)
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    slope = float(coeffs[0])
    if n > 2 and residuals.size:
        s_sq = float(residuals[0]) / (n - 2)
    else:
        s_sq = 0.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(s_sq / sxx) if sxx > 0 else math.inf
    return SlopeFit(slope=slope, stderr=stderr, n_points=n)


def snr_at_ber(curve: BerCurve, receiver: str, ber_target: float) -> float:
    """SNR (dB) where the receiver's curve crosses ber_target.

    Log-linear interpolation between the first bracketing pair of grid
    points; raises ValueError when the target is not bracketed.
    """
    pts = curve.points[receiver]
    for a, b in zip(pts, pts[1:]):
        lo, hi = min(a.ber, b.ber), max(a.ber, b.ber)
        if lo <= ber_target <= hi and a.ber != b.ber and lo > 0.0:
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(ber_target)
            return a.snr_db + (b.snr_db - a.snr_db) * (lt - la) / (lb - la)
    raise ValueError(
        f"BER target {ber_target:g} not bracketed by the {receiver!r} curve"
    )


def compare_receivers_at_ber(
    curve: BerCurve, ber_target: float, receivers=None
) -> dict[tuple[str, str], float]:
    """Pairwise SNR gaps (dB) at a common BER target.

    Entry (a, b) is the extra SNR receiver a needs relative to b.  The
    target must be crossed by each compared receiver's curve (default:
    all receivers in the sweep).
    """
    if receivers is None:
        receivers = curve.config.receivers
    crossings = {r: snr_at_ber(curve, r, ber_target) for r in receivers}
    gaps = {}
    for a in crossings:
        for b in crossings:
            if a != b:
                gaps[(a, b)] = crossings[a] - crossings[b]
    return gaps
