"""Per-layer metrics of a traced run.

Three sources, named in each metric's comment in PER_LAYER:

* isolated: the public function timed alone on the workload's inputs,
  median of a few calls;
* spans: seconds per round spent in a span name during the traced
  operations (spans.py), or self time (the span minus its children);
* counts and computed values, exact for a seed.

A row whose function is gone is reported missing; the run still completes.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np
from sfq_control import config, propagate, qubits, search
from sfq_control import system as sfq_system

from ops import GHZ, build_system
from problems import CLOCK_PS, gate_bits

# name -> (unit, better); the order is the print order.
PER_LAYER = {
    "qubits.levels_s": ("s", "lower"),  # isolated transmon_levels
    "system.assemble_s": ("s", "lower"),  # isolated assemble
    "config.parse_s": ("s", "lower"),  # isolated parse_config
    "propagate.precompute_s": ("s", "lower"),  # isolated precompute
    "search.run_ga_s": ("s", "lower"),  # spans per round
    "search.self_s": ("s", "lower"),  # run_ga minus its child spans
    "search.canonical_calls": ("count", "lower"),  # in the first search
    "search.canonical_s": ("s", "lower"),  # spans per round
    "search.crossover_s": ("s", "lower"),  # spans per round
    "search.checkpoint_write_s": ("s", "lower"),  # isolated, 70x2x5000 bits
    "search.checkpoint_read_s": ("s", "lower"),  # isolated, 70x2x5000 bits
    "search.checkpoint_bytes": ("bytes", "lower"),  # that checkpoint's size
    "search.iterations": ("count", "lower"),  # first search
    "search.evaluations": ("count", "lower"),  # first search
    "search.cache_hit_ratio": ("ratio", "higher"),  # first search
    "propagate.evolve_projected_s": ("s", "lower"),  # isolated, search shape
    "propagate.evolve_full_s": ("s", "lower"),  # isolated, evaluate shape
    "propagate.reference_integrate_s": ("s", "lower"),  # spans per round
    "propagate.bitstream_io_s": ("s", "lower"),  # spans per round
    "reports.evaluate_gate_s": ("s", "lower"),  # spans per round
    "reports.report_io_s": ("s", "lower"),  # spans per round
    "metrics.gate_breakdown_s": ("s", "lower"),  # spans per round
    "cli.self_s": ("s", "lower"),  # cli.main minus its child spans
    "propagate.stepwise_gflop": ("GFLOP-computed", "lower"),
    "propagate.kernel_max_dev": ("abs-computed", "lower"),
    "process.peak_rss_mb": ("MB", "lower"),
    "trace.overhead_pct": ("%", "lower"),  # traced minus untraced operations
}

# Span-based rows: metric -> (span name, self time only).
_SPAN_ROWS = {
    "search.run_ga_s": ("search.run_ga", False),
    "search.self_s": ("search.run_ga", True),
    "search.canonical_s": ("search.canonical", False),
    "search.crossover_s": ("search.crossover", False),
    "propagate.reference_integrate_s": ("propagate.reference_integrate", False),
    "propagate.bitstream_io_s": ("propagate.bitstream_io", False),
    "reports.evaluate_gate_s": ("reports.evaluate_gate", False),
    "reports.report_io_s": ("reports.write_report", False),
    "metrics.gate_breakdown_s": ("metrics.gate_breakdown", False),
    "cli.self_s": ("cli.main", True),
}

CHECKPOINT_SHAPE = (70, 2, 5000)


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def isolated(session, seed: int) -> dict[str, float]:
    """Time single public functions alone; a missing one is left out."""
    w = session.workload
    p, e = w.search, w.evaluate
    omega, alpha = p.qubits[0]
    levels = [qubits.transmon_levels(o * GHZ, a * GHZ, p.n_sim_levels)
              for o, a in p.qubits]
    channels = [sfq_system.ControlChannel(q, ax, tip) for q, ax, tip in p.channels]
    e_cycles = propagate.precompute(build_system(e))
    p_schedule = propagate.PulseSchedule(gate_bits(p, seed))
    e_schedule = propagate.PulseSchedule(gate_bits(e, seed))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1 << 21]))
    population = rng.integers(0, 2, size=CHECKPOINT_SHAPE, dtype=np.uint8)
    fitness = rng.random(CHECKPOINT_SHAPE[0])
    ckpt = session.tmp / "isolated_checkpoint.txt"

    def write_checkpoint():
        search.write_checkpoint(
            ckpt, fingerprint="0" * 64, iteration=0, rng=rng,
            population=population, fitness=fitness, config=search.GaConfig())

    rows = {
        "qubits.levels_s": (lambda: qubits.transmon_levels(
            omega * GHZ, alpha * GHZ, p.n_sim_levels), 20),
        "system.assemble_s": (lambda: sfq_system.assemble(
            levels, n_levels=p.n_levels, n_sim_levels=p.n_sim_levels,
            j_coupling=p.j_ghz * GHZ, channels=channels,
            clock_period=CLOCK_PS * 1e-12), 20),
        "config.parse_s": (lambda: config.parse_config(session.ini[p.name]), 20),
        "propagate.precompute_s": (lambda: propagate.precompute(session.system), 5),
        "propagate.evolve_projected_s": (lambda: propagate.evolve_projected(
            session.cycles, p_schedule), 3),
        "propagate.evolve_full_s": (lambda: propagate.evolve_full(
            e_cycles, e_schedule), 3),
        "search.checkpoint_write_s": (write_checkpoint, 3),
        "search.checkpoint_read_s": (lambda: search.read_checkpoint(ckpt), 3),
    }
    out = {}
    for name, (fn, reps) in rows.items():
        try:
            out[name] = _median_time(fn, reps)
        except (AttributeError, TypeError, KeyError, FileNotFoundError):
            # The function or its signature is gone; the row is missing.
            continue
        if name == "search.checkpoint_write_s":
            out["search.checkpoint_bytes"] = ckpt.stat().st_size
    ckpt.unlink(missing_ok=True)
    return out


def per_layer(workload, untraced, traced, tracer, isolated_rows: dict,
              rounds: int, max_dev: float) -> tuple[dict, list[str]]:
    values = dict(isolated_rows)
    wrapped = tracer.wrapped()
    totals, self_totals = tracer.totals(), tracer.totals(self_time=True)
    for metric, (span, self_only) in _SPAN_ROWS.items():
        if span in wrapped:
            values[metric] = (self_totals if self_only else totals)[span] / rounds

    first = next((i for i, r in enumerate(traced) if r.kind == "search" and not r.error),
                 None)
    if first is not None:
        res = traced[first].search
        candidates = traced[first].candidates
        values["search.iterations"] = res.iterations_used
        values["search.evaluations"] = res.n_evaluations
        values["search.cache_hit_ratio"] = 1.0 - res.n_evaluations / candidates
        if "search.canonical" in wrapped:
            values["search.canonical_calls"] = sum(
                1 for s in tracer.spans if s.op == first and s.name == "search.canonical")

    p = workload.search
    dim = p.n_levels ** len(p.qubits)
    values["propagate.stepwise_gflop"] = p.num_cycles * 8 * dim**3 / 1e9
    values["propagate.kernel_max_dev"] = max_dev
    values["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    plain = sum(r.seconds for r in untraced if not r.error)
    with_spans = sum(r.seconds for r in traced if not r.error)
    if plain > 0:
        values["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain

    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _) in PER_LAYER.items() if k in values}
    missing = [k for k in PER_LAYER if k not in values]
    return metrics, missing
