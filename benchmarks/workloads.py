"""The three benchmark workloads: set-up and the timed call of each.

Every workload goes through the package's public API only.  The preset
workload calls ``cliio.run_preset`` exactly as ``stablemimo preset fig1``
does; the sweep workloads build the ML amplitude table in set-up (as a
caller that caches tables would) and time ``montecarlo.run_sweep``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, replace

from stablemimo import cliio, montecarlo
from stablemimo.amplitude import AmplitudePdfTable
from stablemimo.stable import NoiseModel


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # preset alias, e.g. "fig4"
    config_index: int | None  # None: the whole preset through run_preset
    workers: int
    max_trials: int | None  # trial cap per SNR point; None keeps the preset's
    setup_repeats: int = 3  # set-up is repeated and its median reported


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP headline: default caps, one worker; the cold alpha=0.5, d=2
        # table build dominates, so it is amplitude-bound
        Workload("preset_fig1", "fig1", None, workers=1, max_trials=None),
        # serial decode path: 2x2, alpha=1.43, model I; table built in set-up
        Workload("sweep_fig4_w1", "fig4", 0, workers=1, max_trials=65_536),
        # model II doubles subordinator draws and ML lookups, and two workers
        # add the process pool, table pickling and wave-synchronous dispatch
        Workload("sweep_fig6_iid_w2", "fig6", 1, workers=2, max_trials=131_072),
    )
}


@dataclass
class Prepared:
    """Set-up result: configs of the timed call, ML table and output dir."""

    workload: Workload
    seed: int
    configs: list  # SimConfig per sweep the timed call runs
    theory_receivers: tuple[str, ...]
    table: AmplitudePdfTable | None  # built in set-up (sweeps only)
    out_dir: str


@dataclass
class CallOutput:
    wall_s: float
    sim_csv: bytes
    theory_csv: bytes
    manifest: dict | None = None  # run_preset's manifest; sweeps write none


def default_seed(workload: Workload) -> int:
    return cliio.resolve_preset(workload.preset).configs[0].master_seed


def prepare(workload: Workload, seed: int, out_dir: str) -> tuple[Prepared, float]:
    """Set the workload up once; returns the state and its time in seconds."""
    t0 = time.perf_counter()
    preset = cliio.resolve_preset(workload.preset)
    configs = []
    for cfg in preset.configs:
        kwargs = {"master_seed": seed, "workers": workload.workers}
        if workload.max_trials is not None:
            kwargs["max_trials"] = workload.max_trials
        configs.append(replace(cfg, **kwargs))
    table = None
    if workload.config_index is not None:
        configs = [configs[workload.config_index]]
        table = montecarlo.build_ml_table(configs[0])
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    prepared = Prepared(workload, seed, configs, preset.theory_receivers, table, out_dir)
    return prepared, time.perf_counter() - t0


def ml_tables(prepared: Prepared) -> list:
    """ML table per config for the replay: set-up's, else built now, since
    run_preset builds its tables internally and does not return them."""
    if prepared.table is not None:
        return [prepared.table]
    return [montecarlo.build_ml_table(c) if "ml" in c.receivers else None
            for c in prepared.configs]


def _theory_curves(prepared: Prepared):
    curves = []
    for cfg in prepared.configs:
        for rx in prepared.theory_receivers:
            if rx == "gar" and cfg.model is not NoiseModel.SHARED:
                continue  # no genie-aided asymptote under model II
            curves.append(
                cliio.theory_curve(rx, cfg.model, cfg.n_t, cfg.n_r, cfg.alpha, cfg.snr_grid_db)
            )
    return curves


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def timed_call(prepared: Prepared, index: int, tracer) -> CallOutput:
    """Run the workload's timed call once, then render its CSVs untimed."""
    wl = prepared.workload
    call_dir = os.path.join(prepared.out_dir, f"call-{index}")
    os.makedirs(call_dir)
    try:
        if wl.config_index is None:
            overrides = {"seed": prepared.seed, "workers": wl.workers}
            if wl.max_trials is not None:
                overrides["max_trials"] = wl.max_trials
            with tracer.span("workload.call"):
                t0 = time.perf_counter()
                paths = cliio.run_preset(wl.preset, overrides, out_dir=call_dir)
                wall = time.perf_counter() - t0
            with open(paths["manifest"]) as fh:
                manifest = json.load(fh)
            return CallOutput(wall, _read(paths["sim"]), _read(paths["theory"]), manifest)

        cfg = prepared.configs[0]
        with tracer.span("workload.call"):
            t0 = time.perf_counter()
            curve = montecarlo.run_sweep(cfg, ml_table=prepared.table)
            wall = time.perf_counter() - t0
        sim_path = os.path.join(call_dir, "sim.csv")
        theory_path = os.path.join(call_dir, "theory.csv")
        cliio.emit_csv(curve, sim_path)
        cliio.emit_csv(_theory_curves(prepared), theory_path)
        return CallOutput(wall, _read(sim_path), _read(theory_path))
    finally:
        shutil.rmtree(call_dir, ignore_errors=True)
