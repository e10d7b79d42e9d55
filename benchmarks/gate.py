"""Output gate: every timed call's CSVs are checked before a run reports.

A call passes when
  * its sim and theory CSV bytes equal those of the run's first call;
  * every sim row matches an independent replay of the sweep
    (``replay.py``): trial and bit-error counts exactly, the BER and the
    Wilson interval to a relative 1e-8 (the CSV prints 9 digits);
  * the CSV bytes equal the SHA-256 references in ``reference.json``
    where the seed has one;
  * for the preset, the manifest echoes the configs that were run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from stablemimo import cliio, codes

import replay

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SIM_COLUMNS = cliio.CSV_HEADER.split(",")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sim_rows(sim_csv: bytes) -> list[dict]:
    lines = sim_csv.decode().splitlines()
    if not lines or lines[0] != cliio.CSV_HEADER:
        raise ValueError("sim CSV header differs from the fixed schema")
    fields = [line.split(",") for line in lines[1:]]
    if any(len(f) != len(SIM_COLUMNS) for f in fields):
        raise ValueError("sim CSV row with a wrong field count")
    return [dict(zip(SIM_COLUMNS, f)) for f in fields]


def paired_trials(sim_csv: bytes) -> int:
    """Trials decoded by the whole roster: one count per (model, SNR point)."""
    per_point = {(r["model"], r["snr_db"]): int(r["trials"]) for r in sim_rows(sim_csv)}
    return sum(per_point.values())


def _close(got: str, want: float) -> bool:
    return math.isclose(float(got), want, rel_tol=1e-8)


def check_sim_csv(sim_csv: bytes, configs, replays) -> list[str]:
    """Compare the sim CSV with the replayed points of each config."""
    problems = []
    try:
        rows = sim_rows(sim_csv)
    except ValueError as exc:
        return [str(exc)]
    order = [(r["receiver"], float(r["snr_db"]), r["model"]) for r in rows]
    if order != sorted(order):
        problems.append("sim rows are not sorted by (receiver, snr_db, model)")
    got = {(r["receiver"], r["model"], r["snr_db"]): r for r in rows}
    want_keys = set()
    for cfg, points in zip(configs, replays):
        bits = codes.enumerate_codebook(cfg.code, cfg.constellation).bits_per_codeword
        for i, rx in enumerate(cfg.receivers):
            for p in points:
                key = (rx, cfg.model.value, f"{p.snr_db:.9g}")
                want_keys.add(key)
                row = got.get(key)
                if row is None:
                    problems.append(f"missing sim row {key}")
                    continue
                total = p.trials * bits
                lo, hi = replay.wilson_interval(p.bit_errors[i], total)
                static = ("sim", f"{cfg.alpha:.9g}", str(cfg.n_t), str(cfg.n_r))
                if (row["kind"], row["alpha"], row["nt"], row["nr"]) != static:
                    problems.append(f"{key}: config columns differ from the run")
                if int(row["trials"]) != p.trials or int(row["bit_errors"]) != p.bit_errors[i]:
                    problems.append(
                        f"{key}: engine trials/bit_errors {row['trials']}/{row['bit_errors']}"
                        f" != replay {p.trials}/{p.bit_errors[i]}"
                    )
                elif not (
                    _close(row["ber"], p.bit_errors[i] / total)
                    and _close(row["ci_lo"], lo)
                    and _close(row["ci_hi"], hi)
                ):
                    problems.append(f"{key}: ber or Wilson interval differs from the replay")
    extra = set(got) - want_keys
    if extra:
        problems.append(f"unexpected sim rows {sorted(extra)[:3]}")
    return problems


def check_manifest(manifest: dict, configs) -> list[str]:
    parsed = [cliio.parse_config("\n".join(run["config"])) for run in manifest["runs"]]
    if parsed != list(configs):
        return ["manifest configs differ from the configs that were run"]
    return []


def load_references() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_digests(workload: str, seed: int, sim_csv: bytes, theory_csv: bytes) -> list[str]:
    """Byte-level check against the recorded digests, where they exist."""
    ref = load_references().get(workload, {})
    problems = []
    want_sim = ref.get("sim_sha256", {}).get(str(seed))
    if want_sim is not None and sha256(sim_csv) != want_sim:
        problems.append(f"sim CSV sha256 {sha256(sim_csv)} != reference {want_sim}")
    want_theory = ref.get("theory_sha256")
    if want_theory is not None and sha256(theory_csv) != want_theory:
        problems.append(f"theory CSV sha256 {sha256(theory_csv)} != reference {want_theory}")
    return problems
