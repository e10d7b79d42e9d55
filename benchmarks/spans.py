"""In-memory spans taken by the benchmark around calls into the package.

A traced run records one span per call into a layer: its name, start,
end, the span that was open when it started (its parent) and the timed
call it belongs to.  An untraced run uses ``NullTracer``, which records
nothing and costs one attribute lookup per span.

``patched_layers`` wraps a few module-level functions of the package
(``run_sweep``, ``build_ml_table``, ``emit_csv``, ``theory_curve``) so that
calls made from inside ``run_preset`` are traced too.  The package's
source is never edited; the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    call: int | None
    start_ns: int
    end_ns: int = 0
    count: int = 0  # items the span processed, where that is meaningful

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records nested spans in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.call: int | None = None  # index of the timed call in progress
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.call, time.perf_counter_ns(), count=count)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def named(self, name: str, call: int | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (call is None or s.call == call)]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part covered by the span's direct children."""
        children = sum(s.seconds for s in self.spans if s.parent == span.id)
        return span.seconds - children

    def summary_lines(self) -> list[str]:
        """One line per span name: count, median, total and self time."""
        names = sorted({s.name for s in self.spans})
        lines = []
        for name in names:
            ss = self.named(name)
            total = sum(s.seconds for s in ss)
            own = sum(self.self_seconds(s) for s in ss)
            med = statistics.median(s.seconds for s in ss)
            lines.append(
                f"span {name:28s} n={len(ss):5d} median={med * 1e3:10.3f} ms "
                f"total={total:9.3f} s self={own:9.3f} s"
            )
        return lines


class NullTracer:
    """Tracer stand-in for untraced runs: records no spans."""

    enabled = False
    spans: tuple = ()
    call = None
    _null = contextlib.nullcontext()

    def span(self, name: str, count: int = 0):
        return self._null


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def patched_layers(tracer):
    """Trace the package's layer entry points while the block runs.

    Module globals are swapped, so calls that ``run_preset`` and
    ``run_sweep`` make through their own module namespace are seen.  With
    a ``NullTracer`` nothing is patched.
    """
    if not tracer.enabled:
        yield
        return
    from stablemimo import cliio, montecarlo

    targets = [
        (montecarlo, "run_sweep", "montecarlo.run_sweep"),
        (cliio, "run_sweep", "montecarlo.run_sweep"),
        (montecarlo, "build_ml_table", "amplitude.build_ml_table"),
        (cliio, "emit_csv", "cliio.emit_csv"),
        (cliio, "theory_curve", "theory.theory_curve"),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, name in targets:
            setattr(mod, attr, _traced(tracer, name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
