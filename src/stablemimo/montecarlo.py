"""Reproducible parallel bit-error-rate sweeps.

Trials are generated in fixed-size chunks whose random streams are
counter-based: the Philox key for chunk c of SNR point j is a pure
function of (master_seed, j, c), so results are bitwise identical for
any worker count.  All requested receivers decode the same realizations
(paired comparison), and per-point sampling stops once every receiver
has collected the target number of bit errors or the trial cap is hit.
Each point folds its chunk results in chunk order, so the stopping
decision is independent of worker scheduling.  A pool keeps `workers` + 1
chunks in flight across the whole SNR grid.  Each submission goes to the
lowest unstopped point with no chunk in flight (a needed chunk), and only
when there is none to the lowest unstopped point with chunks left (a
speculative chunk).  So the pool does not drain between points, and at
most `workers` chunks computed past a stop are discarded.

A pooled sweep forks its workers (POSIX fork start method), and each
holds the chunk function, with its config, codebook and ML table, from
memory: the fold's submit(point, chunk) puts the pair on one queue that
idle workers take from, and each worker answers on its own pipe.

A chunk decodes in blocks of DECODE_ENTRIES residual entries (K * n_r *
t_s a trial: 4096 trials at n_r = 1, 2048 at n_r = 2 for BPSK Alamouti).
At glibc's default thresholds a block's temporaries, up to 512 KiB each,
go back to the kernel after each block and fault in again on the next.
So importing this module frees one 16 MiB mmapped array, which raises
glibc's mmap threshold to 16 MiB and its trim threshold to 32 MiB
(mallopt(3)): blocks then reuse heap pages, in this process and in the
workers forked from it, which inherit the thresholds.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .amplitude import AmplitudePdfTable, build_amplitude_table
from .codes import Codebook, block_products, enumerate_codebook, sample_channel
from .receivers import (
    RECEIVER_KINDS,
    ResidualEnergies,
    check_ml_table,
    decide,
    ml_table_spec,
)
from .stable import NoiseModel, sample_noise_block

CHUNK_TRIALS = 8192  # part of the determinism contract: streams are per-chunk
DECODE_ENTRIES = 2**15  # residual entries per decode block, see the module docstring
# the Philox key packs (snr_index, chunk_index) into one 64-bit word
_KEY_FIELD_LIMIT = 2**32
np.empty(2**21)  # freed at once; 16 MiB, under glibc's 32 MiB cap, see the docstring
_WILSON_Z = 1.959963984540054  # two-sided 95%
_SLOPE_POINT_ERRORS = 100  # bit errors a point needs to enter a slope fit


class SlopeFitError(RuntimeError):
    """Not enough well-populated points to fit a diversity slope."""


def snr_grid(values, ordered: bool) -> tuple[float, ...]:
    """SNR points in dB as floats; raises ValueError unless they are
    non-empty, finite and distinct, and strictly increasing if ordered."""
    grid = tuple(float(s) for s in values)
    steps = np.diff(grid if ordered else np.sort(grid))
    if not grid or not np.all(np.isfinite(grid)) or np.any(steps <= 0.0):
        rule = "strictly increasing" if ordered else "without repeats"
        raise ValueError(f"snr_grid_db must be non-empty, finite and {rule}")
    return grid


def _comma_list(parse):
    def comma_list(raw):  # named for argparse's "invalid comma_list value" message
        return tuple(parse(v.strip()) for v in raw.split(","))
    return comma_list


# The config schema, one row per config-file key: the SimConfig field it
# sets, the parser of its text and, for each field SimConfig converts, the
# conversion, what it accepts and an integer field's least value.
CONFIG_SCHEMA = {
    "model": ("model", NoiseModel, NoiseModel, "'I' or 'II'"),
    "alpha": ("alpha", float, float, "a number"),
    "nt": ("n_t", int),  # check-only: the code fixes n_t
    "nr": ("n_r", int, operator.index, "an integer", 1),
    "code": ("code", str.lower),
    "constellation": ("constellation", str.lower),
    "snr_db": ("snr_grid_db", _comma_list(float)),
    "receivers": ("receivers", _comma_list(str.lower)),
    "seed": ("master_seed", int, operator.index, "an integer", 0),
    "min_errors": ("min_errors", int, operator.index, "an integer", 1),
    "max_trials": ("max_trials", int, operator.index, "an integer", 1),
    "workers": ("workers", int, operator.index, "an integer", 1),
}


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
        for name, _, *rule in CONFIG_SCHEMA.values():
            if not rule:
                continue
            convert, kind, *least = rule
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be {kind}, got {value!r}") from None
            if least and getattr(self, name) < least[0]:
                raise ValueError(f"{name} must be >= {least[0]}")
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        grid = snr_grid(self.snr_grid_db, ordered=True)
        if len(grid) > _KEY_FIELD_LIMIT:
            raise ValueError(
                f"snr_grid_db has {len(grid)} points; chunk streams allow at "
                f"most {_KEY_FIELD_LIMIT}"
            )
        object.__setattr__(self, "snr_grid_db", grid)
        if isinstance(self.receivers, str):
            raise ValueError(f"receivers must be a sequence of names, got {self.receivers!r}")
        receivers = tuple(self.receivers)
        for r in receivers:
            if r not in RECEIVER_KINDS:
                raise ValueError(f"unknown receiver {r!r}")
        if not receivers or len(set(receivers)) != len(receivers):
            raise ValueError("receivers must be non-empty and without duplicates")
        object.__setattr__(self, "receivers", receivers)
        if math.ceil(self.max_trials / CHUNK_TRIALS) > _KEY_FIELD_LIMIT:
            raise ValueError(
                f"max_trials {self.max_trials} needs more than "
                f"{_KEY_FIELD_LIMIT} chunks of {CHUNK_TRIALS} trials"
            )
        if self.master_seed >= 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        enumerate_codebook(self.code, self.constellation)  # validates both

    @property
    def n_t(self) -> int:
        return enumerate_codebook(self.code, self.constellation).n_t


@dataclass(frozen=True)
class BerPoint:
    """One (receiver, SNR) measurement with its Wilson interval."""

    bit_errors: int
    ber: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class BerCurve:
    """Per-receiver BER measurements over config.snr_grid_db.  The stopping
    rule is joint, so every receiver shares each point's trial count and
    stop reason ("errors" | "trials")."""

    config: SimConfig
    points: dict[str, tuple[BerPoint, ...]]
    trials: tuple[int, ...]
    stopped_on: tuple[str, ...]

    def ber(self, receiver: str) -> np.ndarray:
        return np.array([p.ber for p in self.points[receiver]])


def wilson_interval(errors: int, total: int):
    """95% Wilson score interval for a binomial proportion."""
    z = _WILSON_Z
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
    sqrt_rho = np.sqrt(10.0 ** (config.snr_grid_db[snr_index] / 10.0))
    rng = _chunk_rng(config.master_seed, snr_index, chunk_index)

    h = sample_channel(config.n_r, codebook.n_t, rng, size=n)
    tx = rng.integers(0, len(codebook), size=n)
    w, genie = sample_noise_block(
        config.model, config.alpha, config.n_r, codebook.t_s, rng, size=n
    )
    h, w, genie = (np.moveaxis(a, 0, -1) for a in (h, w, genie))  # trial axis last
    decisions = np.empty((len(config.receivers), n), dtype=np.intp)
    step = max(1, DECODE_ENTRIES // (len(codebook) * config.n_r * codebook.t_s))
    for start in range(0, n, step):
        block = slice(start, start + step)
        s = block_products(h[..., block], codebook)
        np.multiply(sqrt_rho, s, out=s)
        m = s[0].size  # s[k, i, t, b] is s.flat[k * m + (i * t_s + t) * B + b]
        y = np.take(s, tx[block] * m + np.arange(m).reshape(s.shape[1:]))
        np.add(y, w[..., block], out=y)
        r = np.subtract(y, s, out=s)  # the residuals overwrite the products
        energies = ResidualEnergies(r, config.model)
        for i, rx in enumerate(config.receivers):
            decisions[i, block] = decide(rx, energies, genie[..., block], ml_table)
    return n, np.take(codebook.bit_distance, tx * len(codebook) + decisions).sum(axis=1)


def _fold_chunks(submit, n_points: int, n_chunks: int, stop, window: int = 1):
    """Fold each point j's chunks c = 0, 1, ... in order until stop(errors)
    holds or the n_chunks are spent; returns one (trials, errors, stopped_on)
    per point.  submit(j, c) starts chunk c of point j and returns a call that
    waits for its (trials, errors).  `window` chunks are kept in flight, each
    the next chunk of pick()'s point: the lowest unstopped point with none in
    flight (needed), else the lowest with chunks left (speculative).  A
    stopped point's chunks keep their place and are skipped when they come up."""
    trials, errors, stopped_on = [0] * n_points, [0] * n_points, [None] * n_points
    sent, folded = [0] * n_points, [0] * n_points
    flight = deque()  # (point, wait for its chunk), oldest first

    def pick():
        live = [j for j in range(n_points) if stopped_on[j] is None]
        needed = [j for j in live if sent[j] == folded[j]]
        return (needed or [j for j in live if sent[j] < n_chunks] or [None])[0]

    while None in stopped_on:
        while len(flight) < window and (j := pick()) is not None:
            c, sent[j] = sent[j], sent[j] + 1
            flight.append((j, submit(j, c)))
        j, wait = flight.popleft()
        if stopped_on[j] is not None:  # discarded
            continue
        n, chunk_errors = wait()
        trials[j] += n
        errors[j] = errors[j] + chunk_errors
        folded[j] += 1
        if stop(errors[j]):
            stopped_on[j] = "errors"
        elif folded[j] == n_chunks:
            stopped_on[j] = "trials"
    return list(zip(trials, errors, stopped_on))


def _serve(run, tasks, results):
    """A pool worker: sends ((j, c), run(j, c) or the exception it raised,
    its traceback or None) on results for each (j, c) it takes from tasks,
    until the parent dies."""
    import pickle
    import traceback

    tasks._writer.close()  # the parent's is then the last, so get() reads EOF once it dies
    try:
        while True:
            key = tasks.get()
            try:
                out, trace = run(*key), None
            except Exception as exc:  # raised again by the parent's wait
                out, trace = exc, traceback.format_exc()
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # the parent could not load it: its last line stands in
                    out = RuntimeError(trace.rstrip().rpartition("\n")[2])
            results.send((key, out, trace))
    except EOFError:
        pass


@contextmanager
def _forked(run, workers: int):
    """`workers` processes forked from this one, each holding `run`; yields
    submit(j, c), which queues (j, c) for the first idle worker and returns a
    call that waits for run(j, c), or raises a RuntimeError once a worker
    dies.  Exit kills the workers, queued chunks and all."""
    import multiprocessing
    from multiprocessing.connection import wait

    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeError("a pooled sweep needs the POSIX fork start method; "
                           "workers = 1 gives the same results")
    ctx = multiprocessing.get_context("fork")
    tasks, done, pipes = ctx.SimpleQueue(), {}, {}  # pipes: result pipe -> its worker

    def result(key):
        while key not in done:
            for pipe in wait(list(pipes)):
                try:
                    got, out, trace = pipe.recv()
                except EOFError:  # only its worker held the other end
                    pipes[pipe].join()
                    raise RuntimeError(
                        f"a pool worker exited with code {pipes[pipe].exitcode}") from None
                done[got] = out, trace
        out, trace = done.pop(key)
        if trace is not None:
            raise out from RuntimeError(f"in a pool worker:\n{trace}")
        return out

    def submit(j: int, c: int):
        tasks.put((j, c))
        return partial(result, (j, c))

    try:
        for _ in range(workers):
            pipe, end = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_serve, args=(run, tasks, end), daemon=True)
            process.start()
            end.close()  # so the pipe reads EOF once its worker is gone
            pipes[pipe] = process
        yield submit
    finally:
        for process in pipes.values():
            process.kill()  # not SIGTERM: a handler the workers inherited could catch it
        for pipe, process in pipes.items():  # they exit in parallel
            process.join()
            pipe.close()
        tasks.close()


def build_ml_table(config: SimConfig) -> AmplitudePdfTable:
    """Amplitude table matched to the configured noise model."""
    return build_amplitude_table(ml_table_spec(config.model, config.n_r, config.alpha))


def run_sweep(
    config: SimConfig, ml_table: AmplitudePdfTable | None = None
) -> BerCurve:
    """Run the configured sweep and estimate BER per (receiver, SNR).

    Identical master_seed gives bitwise-identical results for any worker
    count.  An ML table is built on demand when the roster asks for the
    ml receiver and none is supplied; a supplied one must have the spec
    that build_ml_table would use.
    """
    if "ml" not in config.receivers:
        ml_table = None
    else:
        if ml_table is None:
            ml_table = build_ml_table(config)
        check_ml_table(ml_table, ml_table_spec(config.model, config.n_r, config.alpha))

    codebook = enumerate_codebook(config.code, config.constellation)
    bits = codebook.bits_per_codeword
    n_points, n_chunks = len(config.snr_grid_db), math.ceil(config.max_trials / CHUNK_TRIALS)
    run = partial(_run_chunk, config, codebook, ml_table)
    stop = lambda errors: np.all(errors >= config.min_errors)
    if config.workers == 1:
        totals = _fold_chunks(lambda j, c: partial(run, j, c), n_points, n_chunks, stop)
    else:
        with _forked(run, config.workers) as submit:
            totals = _fold_chunks(submit, n_points, n_chunks, stop, config.workers + 1)
    trials, errors, stopped_on = zip(*totals)

    def point(n_errors: int, n_bits: int) -> BerPoint:
        return BerPoint(n_errors, n_errors / n_bits, *wilson_interval(n_errors, n_bits))

    points = {
        rx: tuple(point(int(e[i]), n * bits) for n, e in zip(trials, errors))
        for i, rx in enumerate(config.receivers)
    }
    return BerCurve(config, points, trials, stopped_on)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log10 BER vs log10 rho."""

    slope: float
    stderr: float
    n_points: int


def fit_slope(curve: BerCurve, receiver: str, window: int = 4) -> SlopeFit:
    """Fit the high-SNR slope over the top `window` SNR points.

    Requires at least 3 points in the window with _SLOPE_POINT_ERRORS bit
    errors each; raises SlopeFitError otherwise, and ValueError for a
    window under 3.
    """
    if window < 3:
        raise ValueError(f"window must be >= 3, got {window}")
    pts = [(snr, p) for snr, p in zip(curve.config.snr_grid_db[-window:],
                                      curve.points[receiver][-window:])
           if p.bit_errors >= _SLOPE_POINT_ERRORS]
    if len(pts) < 3:
        raise SlopeFitError(
            f"need >= 3 points with >= {_SLOPE_POINT_ERRORS} bit errors in the "
            f"top-{window} window for {receiver!r}, have {len(pts)}"
        )
    x = np.array([snr / 10.0 for snr, _ in pts])  # log10 rho
    y = np.log10([p.ber for _, p in pts])
    coeffs, cov = np.polyfit(x, y, 1, cov=True)  # cov scaled by SSR / (n - 2)
    return SlopeFit(float(coeffs[0]), math.sqrt(cov[0, 0]), len(pts))


def snr_at_ber(curve: BerCurve, receiver: str, ber_target: float) -> float:
    """SNR (dB) where the receiver's curve crosses ber_target.

    Log-linear interpolation between the first bracketing pair of grid
    points; raises ValueError when the target is not bracketed.
    """
    pts = list(zip(curve.config.snr_grid_db, curve.points[receiver]))
    for (sa, a), (sb, b) in zip(pts, pts[1:]):
        lo, hi = min(a.ber, b.ber), max(a.ber, b.ber)
        if lo <= ber_target <= hi and a.ber != b.ber and lo > 0.0:
            la, lb, lt = math.log10(a.ber), math.log10(b.ber), math.log10(ber_target)
            return sa + (sb - sa) * (lt - la) / (lb - la)
    raise ValueError(
        f"BER target {ber_target:g} not bracketed by the {receiver!r} curve"
    )
