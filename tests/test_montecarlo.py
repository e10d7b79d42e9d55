"""Sweep engine: determinism, stopping, slope fitting, crossing interpolation."""

import hashlib
import math
import multiprocessing
import multiprocessing.queues
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from stablemimo import montecarlo
from stablemimo.cliio import emit_csv, resolve_preset
from stablemimo.codes import block_products, enumerate_codebook, sample_channel
from stablemimo.montecarlo import (
    CHUNK_TRIALS,
    BerCurve,
    BerPoint,
    SimConfig,
    SlopeFitError,
    _chunk_rng,
    _fold_chunks,
    _run_chunk,
    fit_slope,
    run_sweep,
    snr_at_ber,
    wilson_interval,
)
from stablemimo.receivers import (
    batch_aor,
    batch_gar,
    batch_mdr,
    batch_ml,
    batch_residuals,
)
from stablemimo.stable import NoiseModel, sample_noise_block

from helpers import codeword_products


def tiny_config(**kwargs):
    base = dict(
        model=NoiseModel.SHARED,
        alpha=0.5,
        n_r=1,
        snr_grid_db=(10.0, 25.0, 40.0),
        receivers=("gar", "mdr", "aor"),
        master_seed=123,
        min_errors=50,
        max_trials=30_000,
        workers=1,
    )
    base.update(kwargs)
    return SimConfig(**base)


class TestConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            tiny_config(alpha=2.5)
        with pytest.raises(ValueError):
            tiny_config(alpha=0.0)

    @pytest.mark.parametrize("value, model", [("I", NoiseModel.SHARED), ("II", NoiseModel.IID)])
    def test_model_text_converted(self, value, model):
        # a string once passed as is: sampled as model II, grouped as model I
        assert tiny_config(model=value).model is model

    @pytest.mark.parametrize("value", ["III", 1, None])
    def test_model_must_be_a_noise_model(self, value):
        with pytest.raises(ValueError, match="model must be 'I' or 'II'"):
            tiny_config(model=value)

    @pytest.mark.parametrize("value, alpha", [("1.4", 1.4), (1, 1.0), (np.float64(0.5), 0.5)])
    def test_alpha_converted_to_float(self, value, alpha):
        cfg = tiny_config(alpha=value)
        assert type(cfg.alpha) is float and cfg.alpha == alpha

    @pytest.mark.parametrize("value", [None, "x", (1.4,)])
    def test_alpha_must_be_a_number(self, value):
        with pytest.raises(ValueError, match="alpha must be a number"):
            tiny_config(alpha=value)

    def test_bare_string_roster(self):
        # "gar" would be the roster ("g", "a", "r")
        with pytest.raises(ValueError, match="receivers must be a sequence of names"):
            tiny_config(receivers="gar")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            tiny_config(snr_grid_db=(10.0, 10.0))
        with pytest.raises(ValueError):
            tiny_config(snr_grid_db=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_grid_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tiny_config(snr_grid_db=(0.0, bad))
        with pytest.raises(ValueError, match="finite"):
            tiny_config(snr_grid_db=(bad,))

    def test_trial_cap_fits_chunk_key(self):
        limit = CHUNK_TRIALS * 2**32
        assert tiny_config(max_trials=limit).max_trials == limit
        with pytest.raises(ValueError, match="chunks"):
            tiny_config(max_trials=limit + 1)

    def test_grid_length_fits_chunk_key(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_KEY_FIELD_LIMIT", 2)
        tiny_config(snr_grid_db=(0.0, 10.0), max_trials=CHUNK_TRIALS)
        with pytest.raises(ValueError, match="at most 2"):
            tiny_config(snr_grid_db=(0.0, 10.0, 20.0), max_trials=CHUNK_TRIALS)

    def test_unknown_receiver(self):
        with pytest.raises(ValueError):
            tiny_config(receivers=("gar", "zf"))

    def test_duplicate_receiver(self):
        with pytest.raises(ValueError):
            tiny_config(receivers=("gar", "gar"))

    def test_empty_roster(self):
        # an empty error vector would pass np.all and stop every point at once
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(receivers=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_seed", 1.5),
            ("max_trials", 20000.5),
            ("workers", 1.5),
            ("n_r", 1.5),
            ("min_errors", 50.0),
            ("workers", "2"),
        ],
    )
    def test_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    def test_integer_fields_normalized(self):
        cfg = tiny_config(master_seed=np.uint64(5), max_trials=np.int64(8192))
        assert type(cfg.master_seed) is int and cfg.master_seed == 5
        assert type(cfg.max_trials) is int and cfg.max_trials == 8192

    def test_stopping_positive(self):
        with pytest.raises(ValueError):
            tiny_config(min_errors=0)
        with pytest.raises(ValueError):
            tiny_config(max_trials=0)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            tiny_config(master_seed=-1)
        with pytest.raises(ValueError, match="master_seed must fit in 64 bits"):
            tiny_config(master_seed=2**64)

    @pytest.mark.parametrize("field", ["n_r", "workers", "min_errors", "max_trials"])
    def test_counts_at_least_one(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            tiny_config(**{field: 0})

    def test_nt_derived_from_code(self):
        assert tiny_config().n_t == 2
        assert tiny_config(code="uncoded").n_t == 1


class TestWilson:
    def test_interval_contains_estimate(self):
        for errors, total in [(0, 100), (3, 100), (50, 100), (100, 100)]:
            lo, hi = wilson_interval(errors, total)
            assert 0.0 <= lo <= errors / total <= hi <= 1.0

    def test_empty_sample_is_uninformative(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_shrinks_with_n(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestChunkStreams:
    def test_pure_function_of_key(self):
        a = _chunk_rng(99, 3, 17).normal(size=8)
        b = _chunk_rng(99, 3, 17).normal(size=8)
        assert np.array_equal(a, b)

    def test_key_fields_are_range_checked(self):
        # (0, 2**32) would alias (1, 0) if packed unchecked
        _chunk_rng(99, 2**32 - 1, 2**32 - 1)
        for snr_index, chunk_index in ((0, 2**32), (2**32, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="32-bit"):
                _chunk_rng(99, snr_index, chunk_index)

    def test_distinct_chunks_differ(self):
        a = _chunk_rng(99, 3, 17).normal(size=8)
        b = _chunk_rng(99, 3, 18).normal(size=8)
        c = _chunk_rng(99, 4, 17).normal(size=8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


def roster_chunk(cfg, cb, table, snr_index, chunk_index, n):
    """A chunk drawn as the engine draws it, synthesized with einsum and
    decoded one receiver at a time through the public batch functions."""
    rho = 10.0 ** (cfg.snr_grid_db[snr_index] / 10.0)
    rng = _chunk_rng(cfg.master_seed, snr_index, chunk_index)
    h = sample_channel(cfg.n_r, cb.n_t, rng, size=n)
    tx = rng.integers(0, len(cb), size=n)
    w, genie = sample_noise_block(cfg.model, cfg.alpha, cfg.n_r, cb.t_s, rng, size=n)
    y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
    decisions = {
        "gar": batch_gar(y, h, genie, rho, cb),
        "mdr": batch_mdr(y, h, rho, cb),
        "ml": batch_ml(y, h, rho, cb, cfg.model, table),
        "aor": batch_aor(y, h, rho, cb, cfg.model),
    }
    return np.array([cb.bit_distance[tx, decisions[rx]].sum() for rx in cfg.receivers])


class TestFusedChunk:
    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    @pytest.mark.parametrize("constellation", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("code", ["alamouti", "uncoded"])
    def test_engine_matches_public_roster(
        self, code, constellation, model, table_a05_d2, table_a05_d4
    ):
        table = table_a05_d4 if model is NoiseModel.SHARED else table_a05_d2
        cfg = SimConfig(
            model=model,
            alpha=0.5,
            n_r=2,
            snr_grid_db=(0.0, 10.0, 20.0),
            code=code,
            constellation=constellation,
            receivers=("gar", "mdr", "ml", "aor"),
            master_seed=77,
            max_trials=3 * CHUNK_TRIALS + 2048,  # chunk 3 is a partial one
        )
        cb = enumerate_codebook(code, constellation)
        chunks = ((0, 0, CHUNK_TRIALS), (1, 3, 2048), (2, 1, CHUNK_TRIALS))
        for snr_index, chunk_index, n in chunks:
            trials, got = _run_chunk(cfg, cb, table, snr_index, chunk_index)
            want = roster_chunk(cfg, cb, table, snr_index, chunk_index, n)
            assert trials == n
            assert np.array_equal(got, want), (snr_index, chunk_index)


class TestDecodeBlocks:
    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_block_size_does_not_change_errors(self, monkeypatch, model):
        # blocks of `size` trials through the entry budget, 16 residual
        # entries a trial (K 4, n_r 2, t_s 2); 2048 is the default.  Every
        # split but 8192 ends on a partial block: 423 trials after 777, 904
        # after 2 x 2048 and after 4096, one trial after 4999; size 1 decodes
        # each trial on its own
        for n, sizes in ((1200, (1, 777, 2048)), (5000, (2048, 4096, 4999, 8192))):
            # at 195 dB the exact-fit rule fires in some trials of a block only
            cfg = SimConfig(model=model, alpha=1.43, n_r=2, snr_grid_db=(0.0, 195.0),
                            master_seed=5, max_trials=n)
            cb = enumerate_codebook(cfg.code, cfg.constellation)
            table = montecarlo.build_ml_table(cfg)
            rng = _chunk_rng(cfg.master_seed, 1, 0)
            h = sample_channel(cfg.n_r, cb.n_t, rng, size=n)
            tx = rng.integers(0, len(cb), size=n)
            w, _ = sample_noise_block(model, cfg.alpha, cfg.n_r, cb.t_s, rng, size=n)
            rho = 10.0 ** 19.5
            y = np.sqrt(rho) * codeword_products(h, cb)[np.arange(n), tx] + w
            total = (np.abs(batch_residuals(y, h, rho, cb)) ** 2).sum(axis=(2, 3))
            exact = (total <= 1e-20 * total.max(axis=1, keepdims=True)).any(axis=1)
            assert 0.05 < exact[:777].mean() < 0.95
            runs = {}
            for size in sizes:
                monkeypatch.setattr(montecarlo, "DECODE_ENTRIES", 16 * size)
                runs[size] = [_run_chunk(cfg, cb, table, j, 0)[1] for j in range(2)]
            assert all(np.array_equal(r, runs[2048]) for r in runs.values()), n
            assert runs[2048][0].min() > 0

    @pytest.mark.parametrize("model", [NoiseModel.SHARED, NoiseModel.IID])
    def test_four_receive_antennas_pinned(self, model):
        # n_r * t_s = 8 entries: row-major sums, which may round differently
        # from a pairwise sum; these counts were produced by the trial-first
        # decode that summed pairwise
        want = {
            NoiseModel.SHARED: {"gar": [598, 119, 14], "mdr": [1670, 688, 267],
                                "ml": [1280, 171, 23], "aor": [652, 132, 17]},
            NoiseModel.IID: {"gar": [260, 8, 0], "mdr": [2500, 977, 355],
                             "ml": [877, 36, 1], "aor": [1011, 70, 2]},
        }[model]
        cfg = SimConfig(model=model, alpha=1.43, n_r=4, snr_grid_db=(0.0, 5.0, 10.0),
                        master_seed=404, min_errors=10**9, max_trials=2 * CHUNK_TRIALS + 1000)
        curve = run_sweep(cfg)
        assert {rx: [p.bit_errors for p in pts] for rx, pts in curve.points.items()} == want

    def test_preset_blocks_within_entry_budget(self, monkeypatch):
        # at most 2^15 residual entries (K n_r t_s a trial) per block: 4096
        # trials where n_r = 1 (fig1, fig3), 2048 where n_r = 2
        blocks = []

        def recording(h, codebook):
            products = block_products(h, codebook)
            blocks.append(products.shape)
            return products

        monkeypatch.setattr(montecarlo, "block_products", recording)
        for fig in range(1, 7):
            for cfg in resolve_preset(f"fig{fig}").configs:
                cfg = replace(cfg, receivers=("mdr",), max_trials=CHUNK_TRIALS)
                blocks.clear()
                _run_chunk(cfg, enumerate_codebook(cfg.code, cfg.constellation), None, 0, 0)
                trials = 4096 if fig in (1, 3) else 2048
                assert [b[-1] for b in blocks] == [trials] * (CHUNK_TRIALS // trials), fig
                assert max(math.prod(b) for b in blocks) <= 2**15, fig

    @staticmethod
    def chunk_allocation_peak(fig):
        cfg = resolve_preset(fig).configs[0]
        cb = enumerate_codebook(cfg.code, cfg.constellation)
        table = montecarlo.build_ml_table(cfg)
        _run_chunk(cfg, cb, table, 4, 0)
        tracemalloc.start()
        try:
            _run_chunk(cfg, cb, table, 4, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fig4_chunk_allocation_peak(self):
        # decoding in blocks keeps chunk-sized temporaries out of the decode
        assert self.chunk_allocation_peak("fig4") <= 6 * 2**20

    def test_fig1_chunk_allocation_peak(self):
        # 4096-trial blocks of 8 residual entries a trial: 3.2 MiB measured,
        # the block's products and squares included
        assert self.chunk_allocation_peak("fig1") <= 4 * 2**20


_HEAP_FAULTS = """
import os, resource, sys
from dataclasses import replace
from functools import partial
from stablemimo import montecarlo
from stablemimo.cliio import resolve_preset
from stablemimo.codes import enumerate_codebook

def chunk_faults(cfg, codebook, table, point, chunk):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    montecarlo._run_chunk(cfg, codebook, table, point, chunk)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

CASES = {"ml": (("fig1", 0, "bpsk"), ("fig1", 0, "qpsk"), ("fig6", 1, "bpsk")),
         "noml": (("fig1", 0, "bpsk"), ("fig4", 0, "bpsk"), ("fig6", 1, "bpsk"))}

if __name__ == "__main__":
    with_ml = sys.argv[1] == "ml"
    cases = []
    for fig, i, constellation in CASES[sys.argv[1]]:
        cfg = replace(resolve_preset(fig).configs[i], constellation=constellation)
        if not with_ml:
            cfg = replace(cfg, receivers=("mdr", "gar", "aor"))
        codebook = enumerate_codebook(cfg.code, cfg.constellation)
        table = montecarlo.build_ml_table(cfg) if with_ml else None  # tables first, as run_experiment
        cases.append((fig + constellation, cfg, codebook, table))
    for name, *case in cases:
        run = partial(chunk_faults, *case)
        with montecarlo._forked(run, 2) as submit:  # forked before anything decodes
            waits = [submit(3, c) for c in range(16)]
            faults = {}
            for wait in waits:
                pid, n = wait()
                faults.setdefault(pid, []).append(n)
        print(name, *(n for counts in faults.values() for n in counts[2:]))
    if not with_ml:
        for name, *case in cases:
            print(name + "-serial", *[chunk_faults(*case, 3, c)[1] for c in range(10)][2:])
"""


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def steady_chunk_faults(tmp_path, roster):
    """Per-line minor faults of each steady-state chunk, from a fresh
    interpreter running _HEAP_FAULTS with `roster` ("ml" or "noml")."""
    script = tmp_path / "heap_faults.py"
    script.write_text(_HEAP_FAULTS)
    out = subprocess.run([sys.executable, str(script), roster], env=_package_env(), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return [line.split() for line in out.splitlines()]


def test_pool_workers_do_not_refault_the_heap(tmp_path):
    # n_r = 1: fig1 (4096-trial blocks) and its QPSK variant (K = 16,
    # 1024-trial blocks); and fig6 model II (2048), in a fresh interpreter's
    # 2-worker pool, the engine's.  From a worker's third chunk on, each took 0-2 minor
    # faults a chunk.  2048-trial QPSK blocks took ~2,270, and flat
    # 4096-trial blocks ~1,470 a fig6 model II chunk
    lines = steady_chunk_faults(tmp_path, "ml")
    assert len(lines) == 3
    for _, *faults in lines:
        assert len(faults) >= 8, lines
        assert max(map(int, faults)) <= 250, lines


def test_rosters_without_ml_do_not_refault_the_heap(tmp_path):
    # no table is built, so only montecarlo's import sets the allocator's
    # thresholds: fig1, fig4 and fig6 model II took 0-2 faults a chunk,
    # pooled and serial, and 288-545 without it
    lines = steady_chunk_faults(tmp_path, "noml")
    assert len(lines) == 6
    for _, *faults in lines:
        assert len(faults) >= 8, lines
        assert max(map(int, faults)) <= 250, lines


class TestDecodeWorkspace:
    """A chunk's counts depend neither on how threads interleave nor on
    what the process decoded before it."""

    def test_threads_match_serial(self, table_a143_d2):
        fig4 = resolve_preset("fig4").configs[0]  # model I
        fig6_iid = resolve_preset("fig6").configs[1]  # model II
        runs = [(fig4, enumerate_codebook(fig4.code, fig4.constellation),
                 montecarlo.build_ml_table(fig4)),
                (fig6_iid, enumerate_codebook(fig6_iid.code, fig6_iid.constellation),
                 table_a143_d2)]
        # configs alternate, so the two threads decode different shapes at once
        jobs = [(*run, j, c) for j in range(1, 5) for c in range(4) for run in runs]
        serial = [_run_chunk(*job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(_run_chunk, *job) for job in jobs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (n, want), (m, got), job in zip(serial, threaded, jobs):
            assert m == n
            assert np.array_equal(got, want), job[3:]
        assert sum(e.sum() for _, e in serial) > 0

    def test_alternating_shapes_match_fresh_processes(self, table_a05_d2, table_a143_d2):
        fig1 = resolve_preset("fig1").configs[0]  # n_r = 1
        fig4 = resolve_preset("fig4").configs[0]  # n_r = 2, model I
        fig6_iid = resolve_preset("fig6").configs[1]  # n_r = 2, model II
        table_d4 = montecarlo.build_ml_table(fig4)
        cases = [
            (fig4, table_d4, 2, 0),
            (replace(fig6_iid, max_trials=2 * CHUNK_TRIALS + 1000), table_a143_d2, 2, 2),
            (fig1, table_a05_d2, 2, 0),
            (replace(fig4, constellation="qpsk"), table_d4, 2, 0),  # K = 16
            (fig6_iid, table_a143_d2, 2, 0),
        ]
        jobs = [(cfg, enumerate_codebook(cfg.code, cfg.constellation), table, j, c)
                for cfg, table, j, c in cases]
        # a spawned process per job starts with no workspace
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(2, mp_context=ctx, max_tasks_per_child=1) as pool:
            futures = [pool.submit(_run_chunk, *job) for job in jobs]
            fresh = [f.result(timeout=120) for f in futures]
        assert fresh[1][0] == 1000  # the partial chunk is one partial block
        assert all(e.sum() > 0 for _, e in fresh)
        for i in [0, 1, 2, 3, 4, 3, 2, 1, 0, 4]:
            n, errors = _run_chunk(*jobs[i])
            assert n == fresh[i][0]
            assert np.array_equal(errors, fresh[i][1]), i


def _chunk_failing_at_3(config, codebook, ml_table, snr_index, chunk_index):
    if chunk_index == 3:
        raise RuntimeError("chunk 3 failed")
    return _run_chunk(config, codebook, ml_table, snr_index, chunk_index)


def _chunk_exiting_at_3(config, codebook, ml_table, snr_index, chunk_index):
    if chunk_index == 3:
        os._exit(3)
    return _run_chunk(config, codebook, ml_table, snr_index, chunk_index)


class _UnloadableError(Exception):
    """Pickles, but its args do not rebuild it."""

    def __init__(self, message, code):
        super().__init__(message)


def _chunk_failing_unpicklably_at_3(config, codebook, ml_table, snr_index, chunk_index):
    if chunk_index == 3:
        exc = ValueError("chunk 3 failed")
        exc.hook = lambda: None  # pickling the exception's __dict__ fails
        raise exc
    return _run_chunk(config, codebook, ml_table, snr_index, chunk_index)


def _chunk_failing_unloadably_at_3(config, codebook, ml_table, snr_index, chunk_index):
    if chunk_index == 3:
        raise _UnloadableError("chunk 3 failed", 3)
    return _run_chunk(config, codebook, ml_table, snr_index, chunk_index)


class _RecordingPool(ThreadPoolExecutor):
    """Thread pool whose submit_chunk(j, c) is the fold's submit for run(j,
    c); keeps every future it starts, and logs ("submit", point, chunk) to
    `events` when given a list."""

    def __init__(self, run, workers=1, events=None):
        super().__init__(max_workers=workers)
        self.run, self.futures = run, []
        self.events = [] if events is None else events

    def submit_chunk(self, j, c):
        self.events.append(("submit", j, c))
        self.futures.append(self.submit(self.run, j, c))
        return self.futures[-1].result


def _serial(run):
    """The serial sweep's submit: the chunk runs when the fold waits for it."""
    return lambda j, c: partial(run, j, c)


def _sync(run):
    """A submit that runs each chunk as it is submitted, so the order is free
    of thread timing."""

    def submit(j, c):
        out = run(j, c)
        return lambda: out

    return submit


def _joined(fn, timeout=60):
    """fn() on a daemon thread, joined under a timeout; returns its result
    or raises its exception."""
    out = []

    def target():
        try:
            out.append((True, fn()))
        except Exception as exc:  # handed back to the test thread
            out.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive()
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _serial_fold(run, n_points, n_chunks, stop):
    """The reference: every point in turn, its chunks in order until the stop."""
    totals = []
    for j in range(n_points):
        trials, errors, stopped_on = 0, 0, "trials"
        for c in range(n_chunks):
            n, chunk_errors = run(j, c)
            trials, errors = trials + n, errors + chunk_errors
            if stop(errors):
                stopped_on = "errors"
                break
        totals.append((trials, errors, stopped_on))
    return totals


def _stop_after(chunks, events=None):
    """run and stop for points where point j stops after chunks[j] chunks.

    Chunk c of point j reports one trial and a one-hot error vector on j, so
    stop() sees which point folded and how many of its chunks are folded;
    it logs ("fold", point, chunk) to `events` when given a list."""
    n_points = len(chunks)

    def run(j, c):
        return 1, np.eye(n_points, dtype=np.int64)[j]

    def stop(errors):
        j = int(np.flatnonzero(errors)[0])
        if events is not None:
            events.append(("fold", j, int(errors[j]) - 1))
        return errors[j] >= chunks[j]

    return run, stop


class TestChunkOrder:
    def test_serial_stream_is_lazy(self):
        # point 0 stops after 3 chunks, point 1 after 1, point 2 at the cap;
        # each chunk runs only once the one before it is folded
        events = []
        run, stop = _stop_after([3, 1, 9], events)

        def logged(j, c):
            events.append(("run", j, c))
            return run(j, c)

        totals = _fold_chunks(_serial(logged), 3, 4, stop)
        order = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]
        assert events == [e for j, c in order for e in (("run", j, c), ("fold", j, c))]
        assert [(n, s) for n, _, s in totals] == [(3, "errors"), (1, "errors"), (4, "trials")]

    def test_pool_window_order(self):
        # point 0 stops on chunk 0 while its chunk 1 holds the only thread and
        # its chunk 2 waits; submitting point 1's chunk 1, after the stop,
        # releases chunk 1, and point 1 stops on that chunk
        started, gate = threading.Event(), threading.Event()
        base_run, base_stop = _stop_after([1, 2])

        def run(j, c):
            if (j, c) == (0, 1):
                started.set()
                gate.wait(timeout=30)
            return base_run(j, c)

        def stop(errors):
            assert started.wait(timeout=30)
            return base_stop(errors)

        class GatedPool(_RecordingPool):
            def submit_chunk(self, j, c):
                if (j, c) == (1, 1):
                    gate.set()
                return super().submit_chunk(j, c)

        with GatedPool(run) as pool:
            try:
                totals = _joined(lambda: _fold_chunks(pool.submit_chunk, 2, 10, stop, 4))
            finally:
                gate.set()
        # point 0's chunks 1 and 2 stay queued after its stop and are
        # skipped when they come up
        assert pool.events[:5] == [("submit", 0, 0), ("submit", 1, 0), ("submit", 0, 1),
                                   ("submit", 0, 2), ("submit", 1, 1)]
        assert [(n, s) for n, _, s in totals] == [(1, "errors"), (2, "errors")]

    def test_raised_chunk_leaves_the_fold(self):
        # chunk 1 raises while chunk 2 holds the only thread and chunk 3 waits;
        # its error leaves the fold, and nothing is submitted after it
        started, gate = threading.Event(), threading.Event()

        def run(j, c):
            if c == 1:
                raise RuntimeError("chunk 1 failed")
            if c >= 2:
                started.set()
                gate.wait(timeout=30)
            return 1, np.zeros(1, dtype=np.int64)

        def stop(errors):
            assert started.wait(timeout=30)
            return False

        with _RecordingPool(run) as pool:
            try:
                with pytest.raises(RuntimeError, match="chunk 1 failed"):
                    _joined(lambda: _fold_chunks(pool.submit_chunk, 1, 10, stop, 3))
            finally:
                gate.set()
        assert pool.events == [("submit", 0, c) for c in range(4)]

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_one_chunk_points_bound_the_discards(self, window):
        # the per-point pipeline submitted up to `window` chunks per point
        n_points = 3 * window
        run, stop = _stop_after([1] * n_points)
        with _RecordingPool(run, workers=window - 1) as pool:
            totals = _joined(lambda: _fold_chunks(pool.submit_chunk, n_points, 8, stop, window))
        assert [(n, s) for n, _, s in totals] == [(1, "errors")] * n_points
        assert len(pool.futures) <= n_points + window - 1

    def test_next_point_starts_before_the_last_fold(self):
        # the per-point pipeline submitted nothing of point j + 1 before
        # point j stopped, so the pool drained at every point
        events = []
        chunks = [4, 2, 2, 3, 2]
        run, stop = _stop_after(chunks, events)
        with _RecordingPool(run, workers=2, events=events) as pool:
            _joined(lambda: _fold_chunks(pool.submit_chunk, len(chunks), 8, stop, 3))
        for j in range(len(chunks) - 1):
            last_fold = events.index(("fold", j, chunks[j] - 1))
            assert events.index(("submit", j + 1, 0)) < last_fold
        folds = [(j, c) for kind, j, c in events if kind == "fold"]
        for j, n in enumerate(chunks):
            assert [c for k, c in folds if k == j] == list(range(n))

    def test_matches_serial_fold_on_random_scenarios(self):
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            n_points = int(rng.integers(1, 9))
            n_chunks = int(rng.integers(1, 7))
            cap = (n_chunks - 1) * CHUNK_TRIALS + int(rng.integers(1, CHUNK_TRIALS))
            stop_at = rng.integers(0, n_chunks + 2, size=n_points)  # past the end: capped
            extra = rng.integers(0, 50, size=(n_points, n_chunks))
            window = int(rng.integers(2, 5))

            def run(j, c):
                n = min(CHUNK_TRIALS, cap - c * CHUNK_TRIALS)
                return n, np.array([int(c >= stop_at[j]), extra[j, c]])

            def stop(errors):
                return errors[0] >= 1

            want = _serial_fold(run, n_points, n_chunks, stop)
            with ThreadPoolExecutor(window - 1) as pool:
                submit = lambda j, c: pool.submit(run, j, c).result
                got = _joined(lambda: _fold_chunks(submit, n_points, n_chunks, stop, window))
            assert len(got) == n_points
            for (gt, ge, gs), (wt, we, ws) in zip(got, want):
                assert (gt, gs) == (wt, ws)
                assert np.array_equal(ge, we)

    def test_schedule_pinned_on_random_stop_tables(self):
        # the (point, chunk) run sequence and the totals of 2,000 seeded stop
        # tables, serial at window 1 and with a synchronous submit at the
        # table's window, hashed; the digest was recorded from a for/else
        # scan of the points before the pick rule replaced it
        rng = np.random.default_rng(20261020)
        digest = hashlib.sha256()
        for _ in range(2000):
            n_points = int(rng.integers(1, 10))
            n_chunks = int(rng.integers(1, 13))
            window = int(rng.integers(1, 7))
            stop_at = rng.integers(1, n_chunks + 3, size=n_points)  # past the end: capped
            base_run, stop = _stop_after(stop_at.tolist())
            for submitter, w in ((_serial, 1), (_sync, window)):
                sent = []

                def run(j, c):
                    sent.append((j, c))
                    return base_run(j, c)

                totals = _fold_chunks(submitter(run), n_points, n_chunks, stop, w)
                digest.update(repr((sent, [(n, e.tolist(), s) for n, e, s in totals])).encode())
        assert digest.hexdigest() == (
            "fbf1bf180046eb03ef75915f29f42e60f52f723910d41ba6ee46ff61c1f8240f"
        )

    def test_sweep_queues_one_chunk_past_the_workers(self, monkeypatch):
        windows = []

        def spy(submit, n_points, n_chunks, stop, window=1):
            windows.append(window)
            return _fold_chunks(submit, n_points, n_chunks, stop, window)

        monkeypatch.setattr(montecarlo, "_fold_chunks", spy)
        for workers in (2, 1):
            run_sweep(tiny_config(snr_grid_db=(40.0,), max_trials=CHUNK_TRIALS, workers=workers))
        assert windows == [3, 1]


class TestRunSweep:
    def test_worker_count_invariance(self, tmp_path):
        # the 35 dB point stops after 5 chunks, a multiple of neither window,
        # and the 45 dB point runs to a cap that ends in a partial chunk
        cfg = tiny_config(
            snr_grid_db=(15.0, 35.0, 45.0),
            min_errors=500,
            max_trials=6 * CHUNK_TRIALS + 1000,
        )
        # six points stop after one or two chunks, more than the 3-worker
        # window, next to a 50 dB point capped in a partial third chunk
        short = tiny_config(
            snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0),
            min_errors=300,
            max_trials=2 * CHUNK_TRIALS + 1000,
        )
        c1 = run_sweep(cfg)
        assert c1.trials[1:] == (5 * CHUNK_TRIALS, cfg.max_trials)
        assert c1.stopped_on[1:] == ("errors", "trials")
        s1 = run_sweep(short)
        assert [n // CHUNK_TRIALS for n in s1.trials] == [1] * 5 + [2, 2]
        assert s1.stopped_on == ("errors",) * 6 + ("trials",)
        assert s1.trials[-1] == short.max_trials
        for c, base in ((cfg, c1), (short, s1)):
            emit_csv(base, tmp_path / "w1.csv")
            for workers in (2, 3):
                curve = run_sweep(replace(c, workers=workers))
                assert curve.points == base.points
                assert (curve.trials, curve.stopped_on) == (base.trials, base.stopped_on)
                emit_csv(curve, tmp_path / f"w{workers}.csv")
                assert (tmp_path / f"w{workers}.csv").read_bytes() == (
                    tmp_path / "w1.csv"
                ).read_bytes()

    def test_pooled_chunk_failure_propagates(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_chunk", _chunk_failing_at_3)
        cfg = tiny_config(min_errors=10**9, max_trials=8 * CHUNK_TRIALS, workers=2)
        raised = []

        def sweep():
            with pytest.raises(RuntimeError, match="chunk 3 failed") as exc:
                run_sweep(cfg)
            raised.append(exc)

        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        # the worker's traceback is the cause
        assert "in _chunk_failing_at_3" in str(raised[0].value.__cause__)

    @pytest.mark.parametrize("chunk, error", [
        (_run_chunk, None),
        (_chunk_failing_at_3, "chunk 3 failed"),
        (_chunk_exiting_at_3, "a pool worker exited with code 3"),
        (_chunk_failing_unpicklably_at_3, "chunk 3 failed"),
        (_chunk_failing_unloadably_at_3, "chunk 3 failed"),
    ], ids=["clean", "raised", "dead", "unpicklable", "unloadable"])
    def test_pooled_sweep_leaves_no_process(self, monkeypatch, chunk, error):
        # a worker that dies fails the sweep instead of hanging it, an
        # exception the parent cannot load still brings its message, and
        # the sweep's end reaps every worker, whatever its chunks did; the
        # workers inherit a no-op SIGTERM handler, so the end must not rest on it
        monkeypatch.setattr(montecarlo, "_run_chunk", chunk)
        cfg = tiny_config(min_errors=10**9, max_trials=8 * CHUNK_TRIALS, workers=2)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            if error is None:
                assert _joined(lambda: run_sweep(cfg)).trials == (cfg.max_trials,) * 3
            else:
                with pytest.raises(RuntimeError, match=error):
                    _joined(lambda: run_sweep(cfg))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert multiprocessing.active_children() == []

    def test_pooled_sweep_without_fork_says_so(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(RuntimeError, match="needs the POSIX fork start method"):
            run_sweep(tiny_config(workers=2))
        assert multiprocessing.active_children() == []

    def test_pooled_tasks_carry_only_the_chunk_key(self, monkeypatch, table_a143_d2):
        # the workers hold the config, codebook and table, which pickle to
        # about 30 KB at fig6 model II; a task is the (point, chunk) pair
        sizes = []
        put = multiprocessing.queues.SimpleQueue.put

        def spy(queue, obj):
            sizes.append(len(pickle.dumps(obj)))
            put(queue, obj)

        monkeypatch.setattr(multiprocessing.queues.SimpleQueue, "put", spy)
        cfg = replace(resolve_preset("fig6").configs[1], max_trials=2 * CHUNK_TRIALS, workers=2)
        curve = _joined(lambda: run_sweep(cfg, table_a143_d2))
        assert len(sizes) >= sum(n // CHUNK_TRIALS for n in curve.trials)
        assert max(sizes) <= 64

    def test_idle_workers_exit_with_a_killed_parent(self):
        # nothing terminates them, so they must see the parent go
        code = ("import multiprocessing, time\n"
                "from stablemimo import montecarlo\n"
                "with montecarlo._forked(max, 2):\n"
                "    print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
                "    time.sleep(120)\n")
        with subprocess.Popen([sys.executable, "-c", code], env=_package_env(),
                              stdout=subprocess.PIPE, text=True) as parent:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            parent.kill()
        assert len(pids) == 2

        def running(pid):  # neither gone nor a zombie
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_high_snr_consistency(self):
        # rising SNR: low BER at the top and a decreasing trend, at points that
        # each count their 50 errors (from 30 dB on, GAR makes 0-8 in the cap)
        cfg = SimConfig(
            model=NoiseModel.SHARED,
            alpha=1.43,
            n_r=1,
            snr_grid_db=(10.0, 15.0, 20.0),
            receivers=("gar",),
            master_seed=7,
            min_errors=50,
            max_trials=60_000,
        )
        curve = run_sweep(cfg)
        assert curve.stopped_on == ("errors",) * 3
        bers = curve.ber("gar")
        assert bers[-1] < 1e-2
        his = [p.ci_hi for p in curve.points["gar"]]
        los = [p.ci_lo for p in curve.points["gar"]]
        for i in range(len(bers) - 1):
            assert los[i] <= his[i + 1] or bers[i] > bers[i + 1]

    def test_stopping_rule_recorded(self):
        cfg = tiny_config(max_trials=8192)
        curve = run_sweep(cfg)
        assert len(curve.stopped_on) == len(cfg.snr_grid_db)
        assert all(stop in ("errors", "trials") for stop in curve.stopped_on)
        for pts in curve.points.values():
            for p in pts:
                assert 0.0 <= p.ber <= 1.0
                assert p.ci_lo <= p.ber <= p.ci_hi
        # at the cap, trials never exceed max_trials
        assert all(n <= 8192 for n in curve.trials)

    def test_paired_receivers_share_trials(self):
        # one trial count per point, and every receiver's BER divides by it
        cfg = tiny_config()
        curve = run_sweep(cfg)
        assert len(curve.trials) == len(cfg.snr_grid_db)
        bits = enumerate_codebook(cfg.code, cfg.constellation).bits_per_codeword
        for pts in curve.points.values():
            assert len(pts) == len(curve.trials)
            for n, p in zip(curve.trials, pts):
                assert p.ber == p.bit_errors / (n * bits)
                assert (p.ci_lo, p.ci_hi) == wilson_interval(p.bit_errors, n * bits)

    def test_ordering_gar_best(self):
        # optimality: the genie-aided receiver makes no more errors than
        # the others on shared realizations (statistical, 2 sigma slack)
        cfg = tiny_config(
            receivers=("gar", "mdr", "ml", "aor"),
            min_errors=150,
            max_trials=60_000,
            snr_grid_db=(15.0, 30.0),
        )
        curve = run_sweep(cfg)
        for i, _ in enumerate(cfg.snr_grid_db):
            gar = curve.points["gar"][i].bit_errors
            for other in ("mdr", "ml", "aor"):
                n = curve.points[other][i].bit_errors
                assert gar <= n + 2.0 * math.sqrt(n), (i, other)

    def test_ml_aor_disagreement_shrinks_with_snr(self):
        from stablemimo.codes import block_products, enumerate_codebook, sample_channel
        from stablemimo.montecarlo import build_ml_table
        from stablemimo.receivers import batch_aor, batch_ml
        from stablemimo.stable import sample_noise_block

        cfg = tiny_config()
        cb = enumerate_codebook("alamouti", "bpsk")
        table = build_ml_table(cfg)
        rng = np.random.default_rng(11)
        fracs = []
        n = 10_000
        for snr_db in (10.0, 20.0, 30.0, 40.0, 50.0):
            rho = 10.0 ** (snr_db / 10.0)
            h = sample_channel(1, 2, rng, size=n)
            tx = rng.integers(0, 4, size=n)
            w, _ = sample_noise_block(NoiseModel.SHARED, 0.5, 1, 2, rng, size=n)
            y = np.sqrt(rho) * np.einsum("brn,bnt->brt", h, cb.codewords[tx]) + w
            ml = batch_ml(y, h, rho, cb, NoiseModel.SHARED, table)
            aor = batch_aor(y, h, rho, cb, NoiseModel.SHARED)
            fracs.append(np.mean(ml != aor))
        assert fracs[-1] <= fracs[0]
        for a, b in zip(fracs, fracs[1:]):
            se = math.sqrt(max(a, 1e-4) * (1 - a) / n)
            assert b <= a + 2 * se
        # at the top of the sweep the two rules agree on >= 99% of trials
        assert fracs[-1] <= 0.01

    def test_ml_table_mismatch_rejected(self, table_a05_d2):
        # wrong dimension: model I with n_r = 2 needs d = 4; the spec check
        # covers it and names both dimensions
        cfg = tiny_config(receivers=("ml",), n_r=2)
        with pytest.raises(ValueError, match=r"spec .*d=2.*want .*d=4"):
            run_sweep(cfg, ml_table=table_a05_d2)

    def test_ml_table_spec_mismatch_rejected(self, table_a05_d2):
        # right dimension, wrong exponent: alpha = 1.43, n_r = 1 needs (1.43, d = 2)
        cfg = tiny_config(receivers=("ml",), alpha=1.43)
        with pytest.raises(ValueError, match=r"alpha=0\.5,.*want .*alpha=1\.43"):
            run_sweep(cfg, ml_table=table_a05_d2)

    def test_aor_ml_gap_alpha_143(self, table_a143_d2):
        # the parameter-free rule stays within 0.3 dB of the density rule
        # in the milder-noise scenario too; evaluated at 1e-3, deep enough
        # into the asymptotic regime for the desk-scale grid
        cfg = SimConfig(
            model=NoiseModel.SHARED,
            alpha=1.43,
            n_r=1,
            snr_grid_db=(10.0, 15.0, 20.0, 25.0),
            receivers=("ml", "aor"),
            master_seed=31,
            min_errors=2000,
            max_trials=2_000_000,
            workers=2,
        )
        curve = run_sweep(cfg, ml_table=table_a143_d2)
        gap = snr_at_ber(curve, "aor", 1e-3) - snr_at_ber(curve, "ml", 1e-3)
        assert abs(gap) <= 0.3


def synthetic_curve(fn, receivers=("gar",), snr_grid=(10.0, 20.0, 30.0, 40.0)):
    cfg = SimConfig(
        model=NoiseModel.SHARED,
        alpha=0.5,
        n_r=1,
        snr_grid_db=snr_grid,
        receivers=receivers,
        master_seed=0,
    )
    bers = [fn(10.0 ** (snr / 10.0)) for snr in snr_grid]
    pts = tuple(BerPoint(int(ber * 2 * 10**9), ber, ber, ber) for ber in bers)
    n = len(snr_grid)
    return BerCurve(cfg, {rx: pts for rx in receivers}, (10**9,) * n, ("errors",) * n)


class TestFitSlope:
    def test_exact_power_law(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        fit = fit_slope(curve, "gar", window=4)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr < 1e-12
        # a window under 3 is refused before any fit: on 9 points, 0 would
        # slice [-0:] (all 9) and -2 would slice the lowest 7
        nine = synthetic_curve(lambda rho: rho**-0.5, snr_grid=tuple(5.0 * k for k in range(9)))
        for window in (0, -2, 2):
            with pytest.raises(ValueError, match="window"):
                fit_slope(nine, "gar", window=window)

    def test_gain_shift_does_not_bias_slope(self):
        curve = synthetic_curve(lambda rho: (3.7 * rho) ** -0.715)
        fit = fit_slope(curve, "gar", window=4)
        assert fit.slope == pytest.approx(-0.715, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    def test_stderr_and_point_count(self, n):
        # a wavy curve on n + 2 points; the window is the top n + 1, and its
        # first point is dropped for having fewer than 100 errors
        grid = tuple(10.0 + 5.0 * k for k in range(n + 2))
        curve = synthetic_curve(lambda rho: rho**-0.7 * (1.0 + 0.3 * math.sin(math.log(rho))),
                                snr_grid=grid)
        pts = list(curve.points["gar"])
        pts[1] = replace(pts[1], bit_errors=99)
        fit = fit_slope(replace(curve, points={"gar": tuple(pts)}), "gar", window=n + 1)
        x = np.array(grid[2:]) / 10.0
        y = np.log10([p.ber for p in pts[2:]])
        sxx = np.sum((x - x.mean()) ** 2)
        slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
        ssr = np.sum((y - y.mean() - slope * (x - x.mean())) ** 2)
        assert fit.n_points == n
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.stderr > 0.01
        assert fit.stderr == pytest.approx(math.sqrt(ssr / (n - 2) / sxx), rel=1e-12)

    def test_insufficient_errors(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        starved = {
            "gar": tuple(
                replace(p, bit_errors=10) for p in curve.points["gar"]
            )
        }
        with pytest.raises(SlopeFitError):
            fit_slope(replace(curve, points=starved), "gar")


class TestCrossings:
    def test_exact_interpolation(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        # rho^-0.5 = 1e-1.5 at 30 dB exactly
        assert snr_at_ber(curve, "gar", 10.0**-1.5) == pytest.approx(30.0)
        # halfway in log-BER between 30 and 40 dB
        assert snr_at_ber(curve, "gar", 10.0**-1.75) == pytest.approx(35.0)

    def test_identical_curves_zero_gap(self):
        curve = synthetic_curve(lambda rho: rho**-0.5, receivers=("gar", "mdr"))
        gap = snr_at_ber(curve, "gar", 10.0**-1.5) - snr_at_ber(curve, "mdr", 10.0**-1.5)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_known_gap(self):
        curve = synthetic_curve(lambda rho: rho**-0.5, receivers=("gar",))
        shifted = synthetic_curve(lambda rho: (rho / 10.0) ** -0.5, receivers=("mdr",))
        merged = replace(
            curve,
            config=replace(curve.config, receivers=("gar", "mdr")),
            points={**curve.points, **shifted.points},
        )
        gap = snr_at_ber(merged, "mdr", 10.0**-1.25) - snr_at_ber(merged, "gar", 10.0**-1.25)
        assert gap == pytest.approx(10.0, abs=1e-9)

    def test_target_not_bracketed(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        with pytest.raises(ValueError, match="bracketed"):
            snr_at_ber(curve, "gar", 1e-9)
