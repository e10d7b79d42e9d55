"""Sweep engine: determinism, stopping, slope fitting, crossing interpolation."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from stablemimo import (
    BerCurve,
    BerPoint,
    NoiseModel,
    SimConfig,
    SlopeFitError,
    compare_receivers_at_ber,
    fit_slope,
    run_sweep,
    snr_at_ber,
    wilson_interval,
)
from stablemimo import montecarlo
from stablemimo.codes import enumerate_codebook, sample_channel
from stablemimo.montecarlo import CHUNK_TRIALS, _chunk_rng, _in_chunk_order, _run_chunk
from stablemimo.receivers import batch_aor, batch_gar, batch_mdr, batch_ml
from stablemimo.stable import sample_noise_block


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
        with pytest.raises(ValueError):
            tiny_config(master_seed=-1)
        with pytest.raises(ValueError):
            tiny_config(master_seed=2**64)

    def test_nt_derived_from_code(self):
        assert tiny_config().n_t == 2
        assert tiny_config(code="uncoded").n_t == 1


class TestWilson:
    def test_interval_contains_estimate(self):
        for errors, total in [(0, 100), (3, 100), (50, 100), (100, 100)]:
            lo, hi = wilson_interval(errors, total)
            assert 0.0 <= lo <= errors / total <= hi <= 1.0

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


def _chunk_failing_at_3(config, codebook, ml_table, snr_index, chunk_index):
    if chunk_index == 3:
        raise RuntimeError("chunk 3 failed")
    return _run_chunk(config, codebook, ml_table, snr_index, chunk_index)


class _RecordingPool(ThreadPoolExecutor):
    """One-thread pool that keeps every future it hands out."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(super().submit(fn, *args))
        return self.futures[-1]


class TestChunkOrder:
    def test_serial_stream_is_lazy(self):
        seen = []
        stream = _in_chunk_order(seen.append, 10, None, 1)
        next(stream), next(stream)
        assert seen == [0, 1]

    def test_pool_window_order_and_cancel(self):
        started, gate = threading.Event(), threading.Event()

        def run(c):
            if c >= 4:
                started.set()
                gate.wait(timeout=30)
            return c * c

        with _RecordingPool() as pool:
            try:
                stream = _in_chunk_order(run, 10, pool, 3)
                assert [next(stream) for _ in range(4)] == [0, 1, 4, 9]
                # chunks 4 and 5 are in flight, chunk 6 is not yet submitted
                assert len(pool.futures) == 6
                assert started.wait(timeout=30)
                stream.close()
            finally:
                gate.set()
        # chunk 4 held the only thread; chunk 5 never started
        assert pool.futures[5].cancelled()
        assert not pool.futures[4].cancelled()


class TestRunSweep:
    def test_worker_count_invariance(self):
        # the 35 dB point stops after 5 chunks, a multiple of neither window,
        # and the 45 dB point runs to a cap that ends in a partial chunk
        cfg = tiny_config(
            snr_grid_db=(15.0, 35.0, 45.0),
            min_errors=500,
            max_trials=6 * CHUNK_TRIALS + 1000,
        )
        c1 = run_sweep(cfg)
        stops = [(p.trials, p.stopped_on) for p in c1.points["gar"]]
        assert stops[1:] == [(5 * CHUNK_TRIALS, "errors"), (cfg.max_trials, "trials")]
        for workers in (2, 3):
            assert run_sweep(replace(cfg, workers=workers)).points == c1.points

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
        assert raised

    def test_high_snr_consistency(self):
        # vanishing noise: low BER at the top and a decreasing trend
        cfg = SimConfig(
            model=NoiseModel.SHARED,
            alpha=1.43,
            n_r=1,
            snr_grid_db=(30.0, 45.0, 60.0),
            receivers=("gar",),
            master_seed=7,
            min_errors=50,
            max_trials=60_000,
        )
        curve = run_sweep(cfg)
        bers = curve.ber("gar")
        assert bers[-1] < 1e-2
        his = [p.ci_hi for p in curve.points["gar"]]
        los = [p.ci_lo for p in curve.points["gar"]]
        for i in range(len(bers) - 1):
            assert los[i] <= his[i + 1] or bers[i] > bers[i + 1]

    def test_stopping_rule_recorded(self):
        cfg = tiny_config(max_trials=8192)
        curve = run_sweep(cfg)
        for pts in curve.points.values():
            for p in pts:
                assert p.stopped_on in ("errors", "trials")
                assert 0.0 <= p.ber <= 1.0
                assert p.ci_lo <= p.ber <= p.ci_hi
        # at the cap, trials never exceed max_trials
        assert all(
            p.trials <= 8192 for pts in curve.points.values() for p in pts
        )

    def test_paired_receivers_share_trials(self):
        curve = run_sweep(tiny_config())
        trials = {
            rx: [p.trials for p in pts] for rx, pts in curve.points.items()
        }
        first = next(iter(trials.values()))
        assert all(t == first for t in trials.values())

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
        from stablemimo.codes import enumerate_codebook, sample_channel
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
        cfg = tiny_config(receivers=("ml",), n_r=2)  # model I, needs d=4
        with pytest.raises(ValueError, match="dimension"):
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
        gaps = compare_receivers_at_ber(curve, 1e-3)
        assert abs(gaps[("aor", "ml")]) <= 0.3


def synthetic_curve(fn, receivers=("gar",), snr_grid=(10.0, 20.0, 30.0, 40.0)):
    cfg = SimConfig(
        model=NoiseModel.SHARED,
        alpha=0.5,
        n_r=1,
        snr_grid_db=snr_grid,
        receivers=receivers,
        master_seed=0,
    )
    points = {}
    for rx in receivers:
        pts = []
        for snr in snr_grid:
            ber = fn(10.0 ** (snr / 10.0))
            pts.append(
                BerPoint(
                    snr_db=snr,
                    trials=10**9,
                    bit_errors=int(ber * 2 * 10**9),
                    ber=ber,
                    ci_lo=ber,
                    ci_hi=ber,
                    stopped_on="errors",
                )
            )
        points[rx] = tuple(pts)
    return BerCurve(config=cfg, points=points)


class TestFitSlope:
    def test_exact_power_law(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        fit = fit_slope(curve, "gar", window=4)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr < 1e-12
        assert fit.diversity == pytest.approx(0.5, abs=1e-12)

    def test_gain_shift_does_not_bias_slope(self):
        curve = synthetic_curve(lambda rho: (3.7 * rho) ** -0.715)
        fit = fit_slope(curve, "gar", window=4)
        assert fit.slope == pytest.approx(-0.715, abs=1e-12)

    def test_insufficient_errors(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        starved = {
            "gar": tuple(
                replace_point(p, bit_errors=10) for p in curve.points["gar"]
            )
        }
        with pytest.raises(SlopeFitError):
            fit_slope(BerCurve(config=curve.config, points=starved), "gar")


def replace_point(p, **kw):
    d = dict(
        snr_db=p.snr_db,
        trials=p.trials,
        bit_errors=p.bit_errors,
        ber=p.ber,
        ci_lo=p.ci_lo,
        ci_hi=p.ci_hi,
        stopped_on=p.stopped_on,
    )
    d.update(kw)
    return BerPoint(**d)


class TestCrossings:
    def test_exact_interpolation(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        # rho^-0.5 = 1e-1.5 at 30 dB exactly
        assert snr_at_ber(curve, "gar", 10.0**-1.5) == pytest.approx(30.0)
        # halfway in log-BER between 30 and 40 dB
        assert snr_at_ber(curve, "gar", 10.0**-1.75) == pytest.approx(35.0)

    def test_identical_curves_zero_gap(self):
        curve = synthetic_curve(lambda rho: rho**-0.5, receivers=("gar", "mdr"))
        gaps = compare_receivers_at_ber(curve, 10.0**-1.5)
        assert gaps[("gar", "mdr")] == pytest.approx(0.0, abs=1e-12)
        assert gaps[("mdr", "gar")] == pytest.approx(0.0, abs=1e-12)

    def test_known_gap(self):
        curve = synthetic_curve(lambda rho: rho**-0.5, receivers=("gar",))
        shifted = synthetic_curve(lambda rho: (rho / 10.0) ** -0.5, receivers=("mdr",))
        merged = BerCurve(
            config=replace(curve.config, receivers=("gar", "mdr")),
            points={**curve.points, **shifted.points},
        )
        gaps = compare_receivers_at_ber(merged, 10.0**-1.25)
        assert gaps[("mdr", "gar")] == pytest.approx(10.0, abs=1e-9)

    def test_target_not_bracketed(self):
        curve = synthetic_curve(lambda rho: rho**-0.5)
        with pytest.raises(ValueError, match="bracketed"):
            snr_at_ber(curve, "gar", 1e-9)
