"""Tests of the benchmark itself (not collected by the package's own suite).

Run from the repository root:

    python -m pytest -q benchmarks/tests
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gate  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from stablemimo import cliio, codes, montecarlo  # noqa: E402
from stablemimo.amplitude import build_amplitude_table, noise_amplitude_spec  # noqa: E402
from stablemimo.montecarlo import SimConfig, run_sweep  # noqa: E402
from stablemimo.stable import NoiseModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny(name):
    """The workload at a size that runs in seconds: at most two chunks per point."""
    wl = WORKLOADS[name]
    cap = 16_384 if wl.config_index is None else 8_192
    return replace(wl, max_trials=cap, setup_repeats=1)


def test_benchmark_json_names_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_checks_outputs_and_reports_every_metric(name, trace):
    out = run.run_benchmark(tiny(name), seed=11, seconds=0, trace=bool(trace))
    result = out["result"]
    assert result["correct"], out["lines"]
    assert (result["attempted"], result["failed"]) == (1, 0)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    tracer = out["tracer"]
    if trace:
        # at these caps every SNR point folds one or two chunks
        wl = WORKLOADS[name]
        configs = cliio.resolve_preset(wl.preset).configs
        if wl.config_index is not None:
            configs = [configs[wl.config_index]]
        n_points = sum(len(c.snr_grid_db) for c in configs)
        assert n_points <= result["metrics"]["montecarlo.chunks"]["value"] <= 2 * n_points
        assert len(tracer.spans) > 0
    else:
        assert isinstance(tracer, spans.NullTracer) and len(tracer.spans) == 0
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # the layer entry points are the package's own again
    for fn in (montecarlo.run_sweep, montecarlo.build_ml_table, cliio.run_sweep,
               cliio.emit_csv, cliio.theory_curve):
        assert not hasattr(fn, "__wrapped__")


@pytest.fixture(scope="module")
def table_d2():
    return build_amplitude_table(noise_amplitude_spec(1.43, 2))


@pytest.mark.parametrize("model,n_r", [(NoiseModel.SHARED, 1), (NoiseModel.IID, 2)])
def test_one_chunk_replay_equals_engine(table_d2, model, n_r):
    cfg = SimConfig(model=model, alpha=1.43, n_r=n_r, snr_grid_db=(5.0,),
                    master_seed=2024, min_errors=10**9, max_trials=2048)
    curve = run_sweep(cfg, ml_table=table_d2)
    cb = codes.enumerate_codebook(cfg.code, cfg.constellation)
    errors = replay.replay_chunk(cfg, cb, table_d2, 0, 0, 2048, spans.NullTracer())
    assert errors.tolist() == [curve.points[rx][0].bit_errors for rx in cfg.receivers]
    assert sum(errors) > 0


def test_gate_flags_a_changed_count(table_d2):
    cfg = SimConfig(model=NoiseModel.IID, alpha=1.43, n_r=2, snr_grid_db=(5.0, 10.0),
                    master_seed=3, min_errors=50, max_trials=4096)
    curve = run_sweep(cfg, ml_table=table_d2)
    path = run.OUT_ROOT / "gate_test.csv"
    path.parent.mkdir(exist_ok=True)
    try:
        cliio.emit_csv(curve, path)
        csv = path.read_bytes()
    finally:
        path.unlink(missing_ok=True)
    points = replay.replay_sweep(cfg, table_d2, spans.NullTracer())
    assert gate.check_sim_csv(csv, [cfg], [points]) == []
    bad = replace(points[1], bit_errors=(points[1].bit_errors[0] + 1,) + points[1].bit_errors[1:])
    assert gate.check_sim_csv(csv, [cfg], [[points[0], bad]])
    assert gate.check_digests("sweep_fig4_w1", 104, csv, csv)


def test_refuses_more_workers_than_cpus():
    wl = replace(WORKLOADS["sweep_fig4_w1"], workers=run.available_cpus() + 1)
    with pytest.raises(run.BenchError):
        run.run_benchmark(wl, seed=1, seconds=0, trace=False)


def test_fails_without_a_result_when_the_program_is_absent():
    bare = run.OUT_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "preset_fig1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
