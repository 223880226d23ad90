#!/usr/bin/env python3
"""Benchmark of the SFQ gate learner, run from the root of a checkout.

    python3 sfqbench/run.py --workload search_z --seed 7 --seconds 45 --trace 0

A run builds its inputs from the seed, passes the correctness gate
(gate.py), measures set-up in fresh processes, warms up, then runs rounds of
the workload's four operations (problems.py): each round is one search
(`run_ga`) followed by mini-rounds of `learn`, `evaluate` and `oracle` that
fill the round's share of ``--seconds``.  Every operation's output is
checked; a failed one posts no time.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones: each operation then runs twice on the same inputs,
untraced and traced, and spans come from wrappers around the program's
public functions (spans.py).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads; the set-up probes inherit it.  The
# program's matrices are small (dimension 81 at most), and on a shared 2-vCPU
# host a second BLAS thread slowed `oracle` and made `learn` noisier
# between runs (README, Noise).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "time_to_target_s": "s",
    "candidates_per_s": "1/s",
    "learn_s": "s",
    "evaluate_s": "s",
    "oracle_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from problems import WORKLOADS

    args = _parse_args(argv, WORKLOADS)
    if not (SRC / "sfq_control" / "__init__.py").is_file():
        print(f"error: no sfq_control sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.probe_setup:
        return _probe_setup(workload, seed, Path(args.probe_setup))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        return _run(workload, seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=_non_negative, default=None,
                        help="input seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="how long the timed rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)  # one set-up, in a child process
    return parser.parse_args(argv)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _run(workload, seed: int, seconds: float, traced: bool, tmp: Path) -> int:
    import facts
    import gate
    import layers
    from ops import Session, build_system
    from problems import KINDS, gate_bits
    from spans import Tracer

    load_start, ticks_start = facts.loadavg(), facts.cpu_ticks()
    session = Session(workload, seed, tmp)

    # Correctness gate: nothing is timed unless the kernels pass.
    try:
        max_dev = 0.0
        for p in workload.problems:
            max_dev = max(max_dev, gate.check_kernels(build_system(p), gate_bits(p, seed)))
        max_dev = max(max_dev, gate.check_batch(
            session.system, session.target, workload.search.num_cycles, seed, tmp))
    except gate.GateFailure as exc:
        print(f"correctness gate failed: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted, errors = 0, []
    setup = []
    isolated = {}
    if traced:
        isolated = layers.isolated(session, seed)
    else:
        for _ in range(SETUP_REPEATS):
            attempted += 1
            secs, err = _time_probe(workload.name, seed, tmp)
            if err:
                errors.append(err)
            else:
                setup.append(secs)

    tracer = Tracer()
    warmups, results, traced_results = [], [], []
    counts = dict.fromkeys(KINDS, 0)

    def step(kind: str, timed: bool = True) -> None:
        k = counts[kind]
        counts[kind] += 1
        r = session.run(kind, k, f"{kind}{k}")
        if not timed:  # a warm-up: checked, not timed
            warmups.append(r)
            return
        results.append(r)
        if traced:
            tracer.op = len(traced_results)
            tracer.install()
            try:
                traced_results.append(session.run(kind, k, f"{kind}{k}t"))
            finally:
                tracer.remove()

    def mini_round() -> None:
        for kind, n in workload.per_mini.items():
            for _ in range(n):
                step(kind)

    # The first call of each CLI operation pays one-time costs; setup_s has
    # them, the timed operations do not.
    for kind in workload.per_mini:
        step(kind, timed=False)

    # Traced, every operation runs twice, so half the time is the budget.
    budget = seconds / 2 if traced else seconds
    rounds = workload.rounds(budget)
    minis = 0
    start = time.perf_counter()
    for rnd in range(rounds):
        step("search")
        # Untraced runs fill each round's share of the budget with mini-rounds,
        # so every metric samples the whole run; traced runs do fixed work.
        done = 0
        while (done < workload.minis_per_round if traced else
               done == 0 or time.perf_counter() - start < budget * (rnd + 1) / rounds):
            mini_round()
            done += 1
        minis += done

    for r in warmups + results + traced_results:
        attempted += 1
        if r.error:
            errors.append(f"{r.kind}: {r.error}")
    good = [r for r in results if not r.error]
    if traced:
        metrics, missing = layers.per_layer(
            workload, results, traced_results, tracer, isolated, rounds, max_dev)
    else:
        metrics, samples = _end_to_end(good, setup)
        missing = []

    info = facts.collect(ROOT, SRC)
    info.update(workload=workload.name, seed=seed, seconds=seconds,
                trace=int(traced), rounds=rounds, mini_rounds=minis,
                loadavg_start=load_start,
                loadavg_end=facts.loadavg(),
                cpu_steal_pct=facts.steal_pct(ticks_start, facts.cpu_ticks()))
    print("facts " + json.dumps(info, sort_keys=True))
    if not traced:
        print("samples " + json.dumps(samples))
    for err in errors:
        print("FAILED " + err.strip().replace("\n", " | "))
    if missing:
        print("missing per-layer metrics: " + ", ".join(missing))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def _end_to_end(good, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics and the samples each one reduces.

    A timed operation's metric is its mean: the run's total time in that
    operation over its count.  On a shared host the same work runs 10-30%
    slower for stretches of seconds, so a run's samples fall in several speed
    regimes; the mean weighs each by the time the run spent in it, where the
    median jumps between them from run to run.  Set-up, a few samples in
    fresh processes, is their median.
    """
    samples = {"setup_s": setup}
    for kind in ("search", "learn", "evaluate", "oracle"):
        name = "time_to_target_s" if kind == "search" else f"{kind}_s"
        samples[name] = [r.seconds for r in good if r.kind == kind]
    values = {k: statistics.fmean(v) for k, v in samples.items() if v}
    if setup:
        values["setup_s"] = statistics.median(setup)
    searches = [r for r in good if r.kind == "search"]
    if searches:
        values["candidates_per_s"] = (
            sum(r.candidates for r in searches) / sum(r.seconds for r in searches)
        )
    metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
               for k in END_TO_END if k in values}
    return metrics, samples


def _time_probe(workload: str, seed: int, tmp: Path) -> tuple[float, str | None]:
    """Wall time of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup", str(tmp)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return PROBE_TIMEOUT_S, f"setup probe ran over {PROBE_TIMEOUT_S} s"
    secs = time.perf_counter() - t0
    if proc.returncode != 0:
        return secs, f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return secs, None


def _probe_setup(workload, seed: int, tmp: Path) -> int:
    """One set-up: import, build every problem, precompute, first calls."""
    from sfq_control import config, propagate, reports, search
    from sfq_control.system import lookup_target

    from ops import build_system
    from problems import evaluate_bits

    for p in workload.problems:
        config.build_system(config.parse_config(tmp / f"{p.name}.ini"))
    p = workload.search
    system = build_system(p)
    propagate.precompute(system)
    tiny = search.GaConfig(population_size=2, selection_size=2, max_iterations=1,
                           target_fidelity=1.0, seed=seed)
    search.run_ga(system, lookup_target(p.target), p.num_cycles, tiny)
    e = workload.evaluate
    reports.evaluate_gate(
        config.parse_config(tmp / f"{e.name}.ini"),
        propagate.PulseSchedule(evaluate_bits(workload, seed, 0)),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
