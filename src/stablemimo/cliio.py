"""Config parsing, experiment presets, the experiment runner, and CSV/manifest emission.

Config files are plain text, one `key = value` per line with `#`
comments.  ``montecarlo.CONFIG_SCHEMA`` gives each key's ``SimConfig`` field
and parser; unknown keys are errors and missing keys take ``SimConfig``'s
defaults.  ``nt`` is checked against the code instead of being set.

The CSV schema is fixed:
    kind,receiver,model,alpha,nt,nr,snr_db,ber,ci_lo,ci_hi,trials,bit_errors
with kind either "sim" or "theory" (theory rows leave trials/bit_errors
empty), floats printed with 9 significant digits and rows sorted by
(receiver, snr_db).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, montecarlo
from .montecarlo import CONFIG_SCHEMA, BerCurve, SimConfig, run_sweep, snr_grid
from .stable import NoiseModel
from .theory import has_asymptote, pep_asymptote

CSV_HEADER = "kind,receiver,model,alpha,nt,nr,snr_db,ber,ci_lo,ci_hi,trials,bit_errors"


class ConfigError(ValueError):
    """Malformed or invalid sweep configuration."""


# keys a run may override on top of its config file or preset
OVERRIDE_KEYS = ("seed", "workers", "min_errors", "max_trials")


def _format(value) -> str:
    """Schema text of a value; floats print as their shortest round-trip repr."""
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, NoiseModel):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def parse_config(text: str) -> SimConfig:
    """Parse the key-value config schema into a validated SimConfig."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        raw = raw.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[key] = CONFIG_SCHEMA[key][1](raw)
        except ValueError as exc:
            raise ConfigError(
                f"line {line_no}: bad value for {key}: {raw!r} ({exc})"
            ) from None

    nt_declared = values.pop("nt", None)
    try:
        config = SimConfig(**{CONFIG_SCHEMA[k][0]: v for k, v in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if nt_declared is not None and nt_declared != config.n_t:
        raise ConfigError(
            f"nt = {nt_declared} inconsistent with code {config.code!r} "
            f"(nt = {config.n_t})"
        )
    return config


def serialize_config(config: SimConfig) -> str:
    """Render a SimConfig in the parse_config schema (round-trips)."""
    return "".join(f"{key} = {_format(getattr(config, field))}\n"
                   for key, (field, *_) in CONFIG_SCHEMA.items())


def apply_overrides(config: SimConfig, overrides: dict) -> SimConfig:
    """Config with OVERRIDE_KEYS values set as given; SimConfig checks them."""
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ConfigError(f"unknown overrides: {sorted(unknown)}")
    updates = {CONFIG_SCHEMA[k][0]: v for k, v in overrides.items()}
    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class TheoryCurve:
    """Closed-form PEP asymptote evaluated over an SNR grid."""

    receiver: str
    model: NoiseModel
    alpha: float
    n_t: int
    n_r: int
    snr_grid_db: tuple[float, ...]
    values: tuple[float, ...]


def theory_curve(
    receiver: str,
    model: NoiseModel,
    n_t: int,
    n_r: int,
    alpha: float,
    snr_grid_db,
) -> TheoryCurve:
    """Evaluate the (G_c * rho)^(-G_d) asymptote on a dB grid of distinct,
    finite points in any order."""
    asym = pep_asymptote(receiver, model, n_t, n_r, alpha)
    grid = snr_grid(snr_grid_db, ordered=False)
    rho = 10.0 ** (np.array(grid) / 10.0)
    return TheoryCurve(
        receiver=receiver,
        model=model,
        alpha=alpha,
        n_t=n_t,
        n_r=n_r,
        snr_grid_db=grid,
        values=tuple(float(v) for v in asym.evaluate(rho)),
    )


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _curve_rows(curve) -> list[tuple]:
    """(receiver, snr_db, model, CSV fields) per row of one curve."""
    if isinstance(curve, BerCurve):
        cfg = curve.config
        head = (cfg.model.value, _fmt(cfg.alpha), str(cfg.n_t), str(cfg.n_r))
        return [
            (rx, snr, cfg.model.value,
             ("sim", rx, *head, _fmt(snr), _fmt(p.ber), _fmt(p.ci_lo),
              _fmt(p.ci_hi), str(n), str(p.bit_errors)))
            for rx, pts in curve.points.items()
            for snr, n, p in zip(cfg.snr_grid_db, curve.trials, pts)
        ]
    if isinstance(curve, TheoryCurve):
        head = (curve.model.value, _fmt(curve.alpha), str(curve.n_t), str(curve.n_r))
        return [
            (curve.receiver, snr, curve.model.value,
             ("theory", curve.receiver, *head, _fmt(snr), _fmt(val), "", "", "", ""))
            for snr, val in zip(curve.snr_grid_db, curve.values)
        ]
    raise TypeError(f"cannot emit {type(curve).__name__}")


def emit_csv(curves, destination) -> None:
    """Write one or more curves to a CSV file in the fixed schema."""
    if isinstance(curves, (BerCurve, TheoryCurve)):
        curves = [curves]
    rows = []
    for curve in curves:
        rows.extend(_curve_rows(curve))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(destination, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for _, _, _, fields in rows:
            fh.write(",".join(fields) + "\n")


@dataclass(frozen=True)
class ExperimentPreset:
    """Named experiment reproducing one published scenario."""

    name: str
    configs: tuple[SimConfig, ...]
    theory_receivers: tuple[str, ...]


def _grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    return tuple(np.arange(lo, hi + step / 2, step))

def _preset(name, alpha, n_r, models, snr, seed, max_trials, theory):
    configs = tuple(
        SimConfig(
            model=m,
            alpha=alpha,
            n_r=n_r,
            snr_grid_db=snr,
            master_seed=seed,
            max_trials=max_trials,
        )
        for m in models
    )
    return ExperimentPreset(name=name, configs=configs, theory_receivers=theory)


PRESETS = {
    p.name: p
    for p in (
        _preset("fig1_alamouti_2x1_alpha05", 0.5, 1, (NoiseModel.SHARED,),
                _grid(10, 50, 5), 101, 2_000_000, ("gar", "mdr")),
        _preset("fig2_alamouti_2x2_alpha05", 0.5, 2, (NoiseModel.SHARED,),
                _grid(10, 50, 5), 102, 2_000_000, ("gar", "mdr")),
        _preset("fig3_alamouti_2x1_alpha143", 1.43, 1, (NoiseModel.SHARED,),
                _grid(0, 30, 5), 103, 4_000_000, ("gar", "mdr")),
        _preset("fig4_alamouti_2x2_alpha143", 1.43, 2, (NoiseModel.SHARED,),
                _grid(0, 30, 5), 104, 4_000_000, ("gar", "mdr")),
        _preset("fig5_model_compare_alpha05", 0.5, 2,
                (NoiseModel.SHARED, NoiseModel.IID),
                _grid(10, 40, 5), 105, 2_000_000, ("mdr",)),
        _preset("fig6_model_compare_alpha143", 1.43, 2,
                (NoiseModel.SHARED, NoiseModel.IID),
                _grid(0, 30, 5), 106, 4_000_000, ("mdr",)),
    )
}

_ALIASES = {f"fig{i}": name for i, name in enumerate(PRESETS, start=1)}


def resolve_preset(name: str) -> ExperimentPreset:
    key = _ALIASES.get(name, name)
    try:
        return PRESETS[key]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known: {known}") from None


def theory_overlays(configs, receivers) -> list[TheoryCurve]:
    """Closed-form curves of the requested receivers that have an asymptote
    (theory.has_asymptote) for each config."""
    return [
        theory_curve(rx, cfg.model, cfg.n_t, cfg.n_r, cfg.alpha, cfg.snr_grid_db)
        for cfg in configs
        for rx in receivers
        if has_asymptote(rx, cfg.model, cfg.alpha)
    ]


def _publish(writers) -> None:
    """Write every (path, write) artifact to a temp file beside it, then
    rename them into place in order, so a failed write leaves none."""
    staged = []
    try:
        for path, write in writers:
            tmp = path + ".tmp"
            staged.append(tmp)
            write(tmp)
        for tmp, (path, _) in zip(staged, writers):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _write_json(data, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def run_experiment(name: str, configs, theory_receivers, overrides=None,
                   out_dir: str = ".", provenance=None) -> dict:
    """Sweep each config and write <name>_sim.csv, <name>_theory.csv and
    <name>_manifest.json into out_dir.

    overrides (keys in OVERRIDE_KEYS) apply to every config, and
    provenance entries head the manifest.  Overrides, theory overlays and
    ML tables are made before any sampling, and the manifest is written last.
    Returns the mapping of artifact names to paths.
    """
    overrides = dict(overrides or {})
    configs = [apply_overrides(cfg, overrides) for cfg in configs]
    overlays = theory_overlays(configs, theory_receivers)
    t0 = time.perf_counter()
    tables = [montecarlo.build_ml_table(cfg) if "ml" in cfg.receivers else None
              for cfg in configs]
    os.makedirs(out_dir, exist_ok=True)
    curves = [run_sweep(cfg, table) for cfg, table in zip(configs, tables)]
    wall = time.perf_counter() - t0

    paths = {
        kind: os.path.join(out_dir, f"{name}_{kind}.{ext}")
        for kind, ext in (("sim", "csv"), ("theory", "csv"), ("manifest", "json"))
    }
    manifest = {
        **(provenance or {}),
        "overrides": {k: overrides[k] for k in sorted(overrides)},
        "package_version": __version__,
        "numpy_version": np.__version__,
        "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"],
        "wall_time_s": wall,
        "runs": [
            {
                "config": serialize_config(cfg).splitlines(),
                "seed": cfg.master_seed,
                "points": [
                    {"snr_db": snr, "trials": n, "stopped_on": stop}
                    for snr, n, stop in zip(cfg.snr_grid_db, curve.trials, curve.stopped_on)
                ],
            }
            for cfg, curve in zip(configs, curves)
        ],
        "artifacts": {"sim": paths["sim"], "theory": paths["theory"]},
    }
    _publish([
        (paths["sim"], lambda path: emit_csv(curves, path)),
        (paths["theory"], lambda path: emit_csv(overlays, path)),
        (paths["manifest"], lambda path: _write_json(manifest, path)),
    ])
    return paths


def run_preset(name: str, overrides: dict | None = None, out_dir: str = ".") -> dict:
    """Run a named preset: simulation CSV, theory CSV, and a run manifest.

    overrides may set seed, workers, min_errors, max_trials.  The presets
    cap each point at 2 or 4 million trials; max_trials = 10,000,000
    (SimConfig's default) gives publication-scale curves.
    Returns the mapping of artifact names to paths.
    """
    preset = resolve_preset(name)
    return run_experiment(preset.name, preset.configs, preset.theory_receivers,
                          overrides, out_dir, {"preset": preset.name})
