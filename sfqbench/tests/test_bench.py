"""Tests of the benchmark harness.  They are not part of the tier-1 suite.

    PYTHONPATH=src python3 -m pytest -q sfqbench/tests

The smoke runs take a few minutes in all.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402
import ops  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from sfq_control import propagate, search  # noqa: E402
from sfq_control.system import lookup_target  # noqa: E402

WORKLOADS = problems.WORKLOADS


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "sfqbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- smoke runs ---------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        expected = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        expected = run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    assert "facts " in proc.stdout


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "sfqbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "search_z", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the correctness gate -------------------------------------------------------

@pytest.fixture(scope="module")
def cz_z():
    p = problems.CZ_Z
    return p, ops.build_system(p), problems.gate_bits(p, 5)


def test_gate_passes_the_program_kernels(cz_z, tmp_path):
    p, system, bits = cz_z
    assert gate.check_kernels(system, bits) <= gate.TOLERANCE
    assert gate.check_batch(system, lookup_target(p.target), p.num_cycles, 5,
                            tmp_path) <= gate.TOLERANCE


def test_gate_rejects_evolve_full_off_by_1e9(cz_z, monkeypatch):
    _, system, bits = cz_z
    real = propagate.evolve_full
    monkeypatch.setattr(propagate, "evolve_full",
                        lambda *a, **k: real(*a, **k) + 1e-9)
    with pytest.raises(gate.GateFailure, match="evolve_full"):
        gate.check_kernels(system, bits)


def test_gate_rejects_evolve_projected_off_by_1e9(cz_z, monkeypatch):
    _, system, bits = cz_z
    real = propagate.evolve_projected

    def off(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, matrix=r.matrix + 1e-9)

    monkeypatch.setattr(propagate, "evolve_projected", off)
    with pytest.raises(gate.GateFailure, match="evolve_projected"):
        gate.check_kernels(system, bits)


def test_gate_rejects_batch_fitness_off_by_1e9(cz_z, monkeypatch, tmp_path):
    # Moving the canonical score by 1e-9 moves it away from the batched one.
    p, system, _ = cz_z
    real = search.evaluate_fitness

    def off(*args, **kwargs):
        b = real(*args, **kwargs)
        return dataclasses.replace(b, f2=b.f2 + 1e-9)

    monkeypatch.setattr(search, "evaluate_fitness", off)
    with pytest.raises(gate.GateFailure, match="batched"):
        gate.check_batch(system, lookup_target(p.target), p.num_cycles, 5, tmp_path)


def test_run_with_an_off_kernel_posts_no_number(monkeypatch, capsys):
    real = propagate.evolve_full
    monkeypatch.setattr(propagate, "evolve_full",
                        lambda *a, **k: real(*a, **k) + 1e-9)
    rc = run.main(["--workload", "search_z", "--seed", "1", "--seconds", "1"])
    result = _result(capsys.readouterr().out)
    assert rc != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}


# -- generated inputs -------------------------------------------------------------

def _inputs(workload, seed):
    return (
        problems.evaluate_bits(workload, seed, 0).tobytes(),
        problems.evaluate_bits(workload, seed, 1).tobytes(),
        problems.oracle_seed(workload, seed, 0),
        problems.gate_bits(workload.search, seed).tobytes(),
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_seed_changes_the_generated_inputs(workload):
    w = WORKLOADS[workload]
    assert _inputs(w, 1) == _inputs(w, 1)
    for a, b in zip(_inputs(w, 1), _inputs(w, 2)):
        assert a != b


def test_search_panels_start_at_the_acceptance_seeds():
    assert problems.search_seed(WORKLOADS["search_z"], 0) == 7
    assert problems.search_seed(WORKLOADS["cli"], 0) == 21
    for w in WORKLOADS.values():
        seeds = [problems.search_seed(w, k) for k in range(8)]
        seeds += [problems.learn_seed(w, k) for k in range(8)]
        assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_schedules_fire_in_the_same_number_of_cycles(workload):
    w = WORKLOADS[workload]
    nch = len(w.oracle.channels)
    fired = set()
    for seed in range(4):
        for k in range(3):
            rng = np.random.default_rng(problems.oracle_seed(w, seed, k))
            sched = propagate.PulseSchedule.random(rng, nch, w.oracle_cycles)
            fired.add(int(np.any(sched.bits, axis=0).sum()))
    assert len(fired) == 1
