"""Spans recorded from outside the program, by wrapping module attributes.

`Tracer.install` replaces public functions on the program's modules with
wrappers that record a span per call: name, start, end, the enclosing span
and the operation it belongs to.  Only calls made inside a timed call
(ROOTS) are recorded.  Spans stay in memory.  An attribute that is gone is
recorded as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  One span name may wrap the same function
# as imported into several modules; the wrappers do not nest.
WRAPS = (
    ("sfq_control.search", "run_ga", "search.run_ga"),
    ("sfq_control.cli", "run_ga", "search.run_ga"),
    ("sfq_control.search", "evaluate_fitness", "search.canonical"),
    ("sfq_control.search", "crossover", "search.crossover"),
    ("sfq_control.search", "precompute", "propagate.precompute"),
    ("sfq_control.search", "write_checkpoint", "search.write_checkpoint"),
    ("sfq_control.search", "read_checkpoint", "search.read_checkpoint"),
    ("sfq_control.cli", "parse_config", "config.parse_config"),
    ("sfq_control.cli", "build_system", "config.build_system"),
    ("sfq_control.reports", "build_system", "config.build_system"),
    ("sfq_control.cli", "evaluate_gate", "reports.evaluate_gate"),
    ("sfq_control.cli", "write_report", "reports.write_report"),
    ("sfq_control.reports", "precompute", "propagate.precompute"),
    ("sfq_control.cli", "precompute", "propagate.precompute"),
    ("sfq_control.reports", "evolve_full", "propagate.evolve_full"),
    ("sfq_control.cli", "evolve_full", "propagate.evolve_full"),
    ("sfq_control.reports", "evaluate_fitness", "reports.evaluate_fitness"),
    ("sfq_control.reports", "gate_breakdown", "metrics.gate_breakdown"),
    ("sfq_control.cli", "reference_integrate", "propagate.reference_integrate"),
    ("sfq_control.cli", "read_bitstreams", "propagate.bitstream_io"),
    ("sfq_control.cli", "write_bitstreams", "propagate.bitstream_io"),
    ("sfq_control.cli", "main", "cli.main"),
)

# The calls the harness times.  Calls outside them (the checks made after
# an operation) record no span.
ROOTS = frozenset({"cli.main", "search.run_ga"})


@dataclass
class Span:
    name: str
    op: int  # operation the span belongs to
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        # One thread: children run one after another inside the span.
        return self.seconds - self.child_seconds


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.op = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, wraps=WRAPS) -> None:
        for module_name, attr, name in wraps:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))
            self._patches.append((module, attr, fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack and name not in ROOTS:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.child_seconds += span.seconds

        return traced

    def totals(self, self_time: bool = False) -> dict[str, float]:
        """Seconds per span name, whole spans or self time only."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_seconds if self_time else s.seconds
        return out

    def wrapped(self) -> set[str]:
        """Span names with at least one installed wrapper."""
        return {name for (m, a, name) in WRAPS if f"{m}.{a}" not in self.missing}
