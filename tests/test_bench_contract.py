"""The benchmark's tracer wraps program attributes by name; pin them here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sfq_control.search import GaConfig
from sfq_control.system import lookup_target

BENCH = Path(__file__).parent.parent / "sfqbench"
SPANS = BENCH / "spans.py"
DATA = Path(__file__).parent / "data"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.WRAPS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.WRAPS and not missing, missing


def test_every_span_row_fires(monkeypatch, tmp_path):
    """Each span-based per-layer row of the benchmark is fed by a call the
    program really makes on the CLI and search paths."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    from sfq_control import cli, config, search

    ini = str(DATA / "regression.ini")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.main(["learn", "--config", ini, "--out-dir", str(tmp_path / "learn"),
                  "--max-iters", "2", "--checkpoint-every", "1"])
        cli.main(["evaluate", "--config", ini, "--out-dir", str(tmp_path / "evaluate"),
                  "--bitstream", str(DATA / "regression_bitstream.txt")])
        cli.main(["oracle", "--config", ini, "--cycles", "3"])
        cfg = config.parse_config(ini)
        search.run_ga(config.build_system(cfg), cfg.target(), 4, GaConfig(
            population_size=4, selection_size=2, max_iterations=1))
    finally:
        tracer.remove()
    fired = {span.name for span in tracer.spans}
    silent = {span for span, _ in layers._SPAN_ROWS.values()} - fired
    assert not tracer.missing and not silent, (tracer.missing, silent)


@pytest.mark.parametrize("workload", ["search_z", "cli"])
def test_the_benchmark_gate_passes(monkeypatch, tmp_path, workload):
    """The benchmark's correctness gate, as its run does it at the default
    seed: every kernel it checks matches its stepwise product."""
    monkeypatch.syspath_prepend(str(BENCH))
    gate = importlib.import_module("gate")
    ops = importlib.import_module("ops")
    problems = importlib.import_module("problems")
    w = problems.WORKLOADS[workload]
    seed = w.default_seed
    for p in w.problems:  # each check raises gate.GateFailure past its tolerance
        gate.check_kernels(ops.build_system(p), problems.gate_bits(p, seed))
    gate.check_batch(ops.build_system(w.search), lookup_target(w.search.target),
                     w.search.num_cycles, seed, tmp_path)


@pytest.mark.parametrize("workload", ["search_z", "cli"])
def test_every_operation_and_isolated_row_runs(monkeypatch, tmp_path, workload):
    """Each timed operation of the workload passes its checks once, and
    every isolated per-layer row is measured: a row whose function is gone
    or has a new signature would be dropped from the run silently."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    ops = importlib.import_module("ops")
    problems = importlib.import_module("problems")
    w = problems.WORKLOADS[workload]
    session = ops.Session(w, w.default_seed, tmp_path)
    for kind in ("search", "learn", "evaluate", "oracle"):
        result = session.run(kind, 0, kind)
        assert result.error is None, (kind, result.error)
    rows = layers.isolated(session, w.default_seed)
    isolated = {"qubits.levels_s", "system.assemble_s", "config.parse_s",
                "propagate.precompute_s", "propagate.evolve_projected_s",
                "propagate.evolve_full_s", "search.checkpoint_write_s",
                "search.checkpoint_read_s", "search.checkpoint_bytes"}
    assert set(rows) == isolated
