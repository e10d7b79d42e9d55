"""Per-layer metrics of a traced run, computed from its spans.

Span names follow the package's modules.  Per-chunk figures come from
the replay (``replay.py``), one span per folded chunk; per-call figures
from the layer entry points traced during the timed calls
(``spans.patched_layers``); amplitude figures from the probes below.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from stablemimo import amplitude

import replay

RECEIVERS = ("gar", "mdr", "ml", "aor")


def find_r_max(spec, agreement: float = 0.01) -> float:
    """The table's documented r_max rule, from the public density functions:
    the smallest power-of-two radius >= 16 where quadrature and tail term
    agree to 1%."""
    r = 16.0
    while r < 2.0**40:
        ratio = amplitude.amplitude_pdf(r, spec) / amplitude.amplitude_tail_pdf(r, spec)
        if abs(ratio - 1.0) < agreement:
            return r
        r *= 2.0
    raise amplitude.QuadratureError(f"no r_max for alpha={spec.alpha}")


def amplitude_probes(config, table, out_dir, tracer) -> list[str]:
    """Time the r_max search, a build given r_max, and save+load; check each."""
    spec = amplitude.noise_amplitude_spec(config.alpha, replay.ml_table_dimension(config))
    problems = []
    with tracer.span("amplitude.r_max_search"):
        r_max = find_r_max(spec)
    if r_max != table.grid[-1]:
        problems.append(f"r_max rule gives {r_max}, table ends at {table.grid[-1]}")
    with tracer.span("amplitude.build_given_r_max", count=table.grid.size):
        rebuilt = amplitude.build_amplitude_table(spec, n_nodes=table.grid.size, r_max=r_max)
    if not np.array_equal(rebuilt.log_values, table.log_values):
        problems.append("table built given r_max differs from the engine's table")
    path = os.path.join(out_dir, "table.npz")
    with tracer.span("amplitude.save_load"):
        table.save(path)
        loaded = amplitude.AmplitudePdfTable.load(path)
    os.remove(path)
    if not (
        np.array_equal(loaded.grid, table.grid)
        and np.array_equal(loaded.log_values, table.log_values)
    ):
        problems.append("saved and loaded table differs from the original")
    return problems


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer, workers: int, attempted: int, failed: int) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    def per_chunk_ms(name):
        return _median(s.seconds * 1e3 for s in tracer.named(name))

    def per_call(name):
        return [sum(s.seconds for s in tracer.named(name, call=i)) for i in range(attempted)]

    chunks = tracer.named("montecarlo.chunk")
    chunk_ms = np.array([s.seconds * 1e3 for s in chunks])
    chunk_s = chunk_ms.sum() / 1e3
    decode_s = sum(s.seconds for rx in RECEIVERS for s in tracer.named(f"receivers.{rx}"))
    # engine time in run_sweep, without any ML table build it made
    sweep_s = _median(
        a - b for a, b in zip(per_call("montecarlo.run_sweep"), per_call("amplitude.build_ml_table"))
    )
    given = tracer.named("amplitude.build_given_r_max")[0]
    m = {
        "amplitude.table_build_s": (
            _median(s.seconds for s in tracer.named("amplitude.build_ml_table")), "s"),
        "amplitude.r_max_search_s": (tracer.named("amplitude.r_max_search")[0].seconds, "s"),
        "amplitude.quad_ms_per_node": (given.seconds * 1e3 / given.count, "ms"),
        "amplitude.table_load_s": (tracer.named("amplitude.save_load")[0].seconds, "s"),
        "amplitude.log_pdf_ns_per_radius": (
            _median(s.seconds * 1e9 / s.count for s in tracer.named("amplitude.log_pdf")), "ns"),
        "stable.noise_ms_per_chunk": (per_chunk_ms("stable.noise"), "ms"),
        "codes.channel_ms_per_chunk": (per_chunk_ms("codes.channel"), "ms"),
        "codes.synthesis_ms_per_chunk": (per_chunk_ms("codes.synthesis"), "ms"),
        "receivers.residuals_ms_per_chunk": (per_chunk_ms("receivers.residuals"), "ms"),
    }
    for rx in RECEIVERS:
        m[f"receivers.{rx}_ms_per_chunk"] = (per_chunk_ms(f"receivers.{rx}"), "ms")
    m.update({
        "receivers.decode_share": (decode_s / chunk_s, "share"),
        "montecarlo.chunks": (len(chunks), "count"),
        "montecarlo.chunk_ms_p50": (float(np.percentile(chunk_ms, 50)), "ms"),
        "montecarlo.chunk_ms_p90": (float(np.percentile(chunk_ms, 90)), "ms"),
        "montecarlo.overhead_s": (sweep_s - chunk_s / workers, "s"),
        "montecarlo.parallel_efficiency": (chunk_s / workers / sweep_s, "share"),
        "cliio.emit_csv_ms": (_median(per_call("cliio.emit_csv")) * 1e3, "ms"),
        "theory.theory_curve_ms": (_median(per_call("theory.theory_curve")) * 1e3, "ms"),
        "cliio.preset_other_s": (
            _median(tracer.self_seconds(s) for s in tracer.named("workload.call")), "s"),
        "failed_share": (failed / attempted, "share"),
    })
    return m

