"""Replay of a BER sweep from outside the engine, one chunk at a time.

The engine's chunk streams are counter-based: chunk c of SNR point j
draws from a Philox generator keyed by (master_seed, j << 32 | c), in the
fixed order channel H, codeword index, noise block.  The replay rebuilds
each chunk from those public rules, calling the public functions of
``codes``, ``stable`` and ``receivers`` directly, and folds the per-chunk
bit errors with the documented stopping rule (every receiver has
``min_errors`` bit errors, or the trial cap is reached).  It needs no
worker pool, so its totals also show that the engine's result does not
depend on the worker count.

Each call is wrapped in a span; with a ``NullTracer`` the spans cost
nothing and the per-layer probes (a standalone residual build and an
amplitude-table lookup) are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from stablemimo import codes, receivers, stable
from stablemimo.montecarlo import CHUNK_TRIALS
from stablemimo.stable import NoiseModel


@dataclass(frozen=True)
class ReplayedPoint:
    snr_db: float
    trials: int
    bit_errors: tuple[int, ...]  # in roster order


def ml_table_dimension(config) -> int:
    """Real dimensions per ML density argument: a column (model I) or an entry."""
    return 2 * config.n_r if config.model is NoiseModel.SHARED else 2


def chunk_rng(master_seed: int, snr_index: int, chunk_index: int) -> np.random.Generator:
    key = np.array([master_seed, (snr_index << 32) | chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _decode(rx, y, h, genie, rho, cb, model, table):
    if rx == "gar":
        return receivers.batch_gar(y, h, genie, rho, cb)
    if rx == "mdr":
        return receivers.batch_mdr(y, h, rho, cb)
    if rx == "ml":
        return receivers.batch_ml(y, h, rho, cb, model, table)
    if rx == "aor":
        return receivers.batch_aor(y, h, rho, cb, model)
    raise ValueError(f"unknown receiver {rx!r}")


def replay_chunk(config, cb, table, snr_index, chunk_index, n, tracer) -> np.ndarray:
    """Per-receiver bit errors of one chunk, drawn and decoded as the engine does."""
    rho = 10.0 ** (config.snr_grid_db[snr_index] / 10.0)
    errors = np.zeros(len(config.receivers), dtype=np.int64)
    with tracer.span("montecarlo.chunk", count=n):
        rng = chunk_rng(config.master_seed, snr_index, chunk_index)
        with tracer.span("codes.channel", count=n):
            h = codes.sample_channel(config.n_r, cb.n_t, rng, size=n)
            tx = rng.integers(0, len(cb), size=n)
        with tracer.span("stable.noise", count=n):
            w, genie = stable.sample_noise_block(
                config.model, config.alpha, config.n_r, cb.t_s, rng, size=n
            )
        with tracer.span("codes.synthesis", count=n):
            y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
        for i, rx in enumerate(config.receivers):
            with tracer.span(f"receivers.{rx}", count=n):
                dec = _decode(rx, y, h, genie, rho, cb, config.model, table)
            errors[i] = cb.bit_distance[tx, dec].sum()
    if tracer.enabled:
        _probe(config, cb, table, y, h, rho, n, tracer)
    return errors


def _probe(config, cb, table, y, h, rho, n, tracer):
    """Time one residual build and one table lookup in isolation."""
    with tracer.span("receivers.residuals", count=n):
        r = receivers.batch_residuals(y, h, rho, cb)
    if table is None:
        return
    sq = r.real**2 + r.imag**2
    radii = np.sqrt(sq.sum(axis=2) if config.model is NoiseModel.SHARED else sq).ravel()
    with np.errstate(divide="ignore"), tracer.span("amplitude.log_pdf", count=radii.size):
        table.log_pdf(radii)


def replay_sweep(config, table, tracer) -> list[ReplayedPoint]:
    """Replay every SNR point of ``config`` and apply the stopping rule."""
    cb = codes.enumerate_codebook(config.code, config.constellation)
    n_chunks_cap = math.ceil(config.max_trials / CHUNK_TRIALS)
    points = []
    for j, snr_db in enumerate(config.snr_grid_db):
        errors = np.zeros(len(config.receivers), dtype=np.int64)
        trials = 0
        c = 0
        while c < n_chunks_cap:
            n = min(CHUNK_TRIALS, config.max_trials - c * CHUNK_TRIALS)
            errors += replay_chunk(config, cb, table, j, c, n, tracer)
            trials += n
            c += 1
            if np.all(errors >= config.min_errors):
                break
        points.append(ReplayedPoint(snr_db, trials, tuple(int(e) for e in errors)))
    return points


def wilson_interval(errors: int, total: int, z: float = 1.959963984540054):
    """95% Wilson score interval, written out independently of the engine."""
    p = errors / total
    zz = z * z
    denom = 1.0 + zz / total
    center = (p + zz / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + zz / (4.0 * total * total)) / denom
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == total else min(center + half, 1.0)
    return lo, hi
