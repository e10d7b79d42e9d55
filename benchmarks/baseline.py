"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/baseline/seed_commit.json

Runs ``run.py`` once per (workload, seed), one run at a time, seeds
``--first-seed`` onwards.  For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) / median, which is what the bounds in BENCHMARK.json are
compared against.  ``--trace-runs`` adds traced runs at the workload's
default seed and reports their per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return {"seed": prov["seed"], "elapsed_s": elapsed, "provenance": prov, **result}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="preset_fig1,sweep_fig4_w1,sweep_fig6_iid_w2")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        traced = [run_once(workload, None, seconds, 1) for _ in range(args.trace_runs)]
        entry = {
            "correct": all(r["correct"] for r in runs + traced),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs + traced],
            "end_to_end": {},
            "per_layer": {},
            "provenance": runs[0]["provenance"],
        }
        for name in bounds:
            entry["end_to_end"][name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = entry["end_to_end"][name]
            print(f"{workload:18s} {name:14s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bounds[name]}", flush=True)
        for r in traced:
            for name, m in r["metrics"].items():
                entry["per_layer"].setdefault(name, []).append(m["value"])
        entry["per_layer"] = {k: statistics.median(v) for k, v in entry["per_layer"].items()}
        print(f"{workload:18s} correct={entry['correct']} run seconds={entry['elapsed_s']}",
              flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
