"""BER-sweep benchmark: time one workload, check its outputs, print metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep_fig4_w1 --seed 104 --seconds 12 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics.  Exit code 0 means a result was printed (its
``correct`` field says whether every output passed the gate); 2 means
the benchmark could not run, and no result is printed.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("preset_fig1", "sweep_fig4_w1", "sweep_fig6_iid_w2")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, too few CPUs)."""


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stablemimo").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "workers": workload.workers,
        "max_trials": workload.max_trials,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "available_cpus": available_cpus(),
    }


def _peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, the largest reaped worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def run_benchmark(workload, seed, seconds: float, trace: bool, t0: float | None = None) -> dict:
    """Set up, run timed calls for ``seconds``, check outputs, compute metrics.

    Returns {"lines": human-readable lines, "result": the final JSON object,
    "tracer": the tracer used}.  ``t0`` is the process start used for
    ``setup_s``; it defaults to now.
    """
    t0 = time.perf_counter() if t0 is None else t0
    import gate
    import layers
    import replay
    import spans
    import workloads

    import_s = time.perf_counter() - t0
    if workload.workers > available_cpus():
        raise BenchError(
            f"{workload.name} needs {workload.workers} workers but only "
            f"{available_cpus()} CPUs are available"
        )
    if seed is None:
        seed = workloads.default_seed(workload)
    tracer = spans.Tracer() if trace else spans.NullTracer()
    out_dir = str(OUT_ROOT / f"{workload.name}-{os.getpid()}")
    lines = [f"provenance {json.dumps(provenance(workload, seed, seconds, trace))}"]
    try:
        with spans.patched_layers(tracer):
            prep_s = []
            for _ in range(workload.setup_repeats):
                prepared, dt = workloads.prepare(workload, seed, out_dir)
                prep_s.append(dt)
            setup_s = import_s + statistics.median(prep_s)

            outputs, errors = [], []
            start = time.perf_counter()
            while not outputs or time.perf_counter() - start < seconds:
                tracer.call = len(outputs)
                try:
                    outputs.append(workloads.timed_call(prepared, len(outputs), tracer))
                except Exception:  # a failed call is counted, not fatal
                    errors.append(traceback.format_exc())
                    outputs.append(None)
                tracer.call = None
                if len(errors) == len(outputs) and len(errors) >= 3:
                    break
        peak_rss = _peak_rss_mib(workload.workers)

        good = [o for o in outputs if o is not None]
        problems = []
        ref = good[0] if good else None
        configs = prepared.configs
        if ref is not None:
            if ref.manifest is not None:
                problems += gate.check_manifest(ref.manifest, configs)
            tables = workloads.ml_tables(prepared)
            replays = [replay.replay_sweep(c, t, tracer) for c, t in zip(configs, tables)]
            problems += gate.check_sim_csv(ref.sim_csv, configs, replays)
            problems += gate.check_digests(workload.name, seed, ref.sim_csv, ref.theory_csv)
            if trace:
                problems += layers.amplitude_probes(configs[0], tables[0], out_dir, tracer)
            lines.append(
                f"sim_csv_sha256 {gate.sha256(ref.sim_csv)} "
                f"theory_csv_sha256 {gate.sha256(ref.theory_csv)}"
            )
        failed = 0
        for o in outputs:
            if o is None or problems or (o.sim_csv, o.theory_csv) != (ref.sim_csv, ref.theory_csv):
                failed += 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    attempted = len(outputs)
    if errors:
        lines.append("error in a timed call:\n" + errors[0].rstrip())
    lines += [f"problem: {p}" for p in problems[:20]]
    lines.append(f"gate: {attempted - failed}/{attempted} calls passed")

    walls = [o.wall_s for o in good]
    if trace:
        lines += tracer.summary_lines()
        metrics = layers.layer_metrics(tracer, workload.workers, attempted, failed)
    else:
        rates = [gate.paired_trials(o.sim_csv) / o.wall_s for o in good]
        metrics = {
            "wall_s": (statistics.median(walls) if walls else float("nan"), "s"),
            "trials_per_s": (statistics.median(rates) if rates else float("nan"), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
    lines.append(
        f"failed_share {failed / attempted:.4g} ({failed}/{attempted} timed calls); "
        f"wall_s per call: {', '.join(f'{w:.4f}' for w in walls)}"
    )
    lines += [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"lines": lines, "result": result, "tracer": tracer}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, help="master seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=int, default=12, help="how long to repeat the timed call")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "stablemimo" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'stablemimo'}")
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        out = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), t0=_T0)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2
    print(f"workload {args.workload} trace {args.trace}")
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
