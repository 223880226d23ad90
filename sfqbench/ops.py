"""The timed operations of a workload, each checked after it is timed.

Only the call into the program is inside the timed region.  An operation
whose output fails a check is reported as failed and its time is dropped.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from sfq_control import cli, config, propagate, qubits, reports, search
from sfq_control import system as sfq_system

from problems import (
    CLOCK_PS, Problem, Workload, evaluate_bits, learn_seed, oracle_seed, search_seed,
)

GHZ = 2.0 * np.pi * 1e9

# GateReport fields that `evaluate` must reproduce exactly.
REPORT_FIELDS = (
    "fitness", "error", "f1", "f2", "leakage", "norm_loss", "z_angles",
    "f1_wide", "f2_wide", "leakage_wide", "num_cycles", "bitstreams",
)


def build_system(problem: Problem):
    """The problem's CoupledSystem through the public library API."""
    levels = [
        qubits.transmon_levels(omega * GHZ, alpha * GHZ, problem.n_sim_levels)
        for omega, alpha in problem.qubits
    ]
    channels = [
        sfq_system.ControlChannel(q, axis, tip) for q, axis, tip in problem.channels
    ]
    return sfq_system.assemble(
        levels,
        n_levels=problem.n_levels,
        n_sim_levels=problem.n_sim_levels,
        j_coupling=problem.j_ghz * GHZ,
        channels=channels,
        clock_period=CLOCK_PS * 1e-12,
    )


@dataclass
class OpResult:
    kind: str  # "search" | "learn" | "evaluate" | "oracle"
    seconds: float
    error: str | None = None  # None when every check passed
    candidates: int = 0  # candidates scored (search only)
    search: object = None  # the SearchResult (search only)


class Session:
    """Per-run inputs that do not change between rounds."""

    def __init__(self, workload: Workload, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.ini: dict[str, Path] = {}
        for p in workload.problems:
            path = tmp / f"{p.name}.ini"
            path.write_text(p.ini_text(), encoding="ascii")
            self.ini[p.name] = path
        p = workload.search
        self.system = build_system(p)
        self.target = sfq_system.lookup_target(p.target)
        self.cycles = propagate.precompute(self.system)

    def run(self, kind: str, k: int, tag: str) -> OpResult:
        """The k-th operation of its kind; tag names its files."""
        # A raise from the program fails this operation; the run goes on.
        try:
            return _OPS[kind](self, k, tag)
        except Exception:  # noqa: BLE001 - recorded with its traceback
            return OpResult(kind, float("nan"), error=traceback.format_exc())


def _cli(argv: list[str]) -> tuple[int, float, str]:
    """Run `sfq-control` in process; returns (exit code, seconds, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
    return rc, seconds, buf.getvalue()


def op_search(s: Session, k: int, tag: str) -> OpResult:
    w, p = s.workload, s.workload.search
    cfg = search.GaConfig(
        max_iterations=w.search_iters,
        target_fidelity=p.target_fidelity,
        metric="f2",
        seed=search_seed(s.workload, k),
    )
    t0 = time.perf_counter()
    res = search.run_ga(s.system, s.target, p.num_cycles, cfg)
    seconds = time.perf_counter() - t0

    out = OpResult("search", seconds, search=res,
                   candidates=cfg.population_size + res.iterations_used * cfg.selection_size)
    canonical = search.evaluate_fitness(s.cycles, res.best.schedule(), s.target, "f2")
    if canonical.f2 != res.best.fitness:
        out.error = f"best fitness {res.best.fitness!r} != canonical {canonical.f2!r}"
    elif w.reach_target and not (
        res.terminated_by == "target_reached" and canonical.f2 >= p.target_fidelity
    ):
        out.error = f"target not reached: {res.terminated_by}, f2 = {canonical.f2!r}"
    elif not w.reach_target and res.iterations_used != w.search_iters:
        out.error = f"ran {res.iterations_used} of {w.search_iters} iterations"
    return out


def op_learn(s: Session, k: int, tag: str) -> OpResult:
    w = s.workload
    out_dir = s.tmp / f"learn{tag}"
    rc, seconds, text = _cli([
        "learn", "--config", str(s.ini[w.learn.name]), "--out-dir", str(out_dir),
        "--seed", str(learn_seed(s.workload, k)), "--max-iters", str(w.learn_iters),
        "--checkpoint-every", str(w.checkpoint_every),
    ])
    out = OpResult("learn", seconds)
    try:
        out.error = _check_learn(rc, out_dir, w.learn_iters, text)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _check_learn(rc: int, out_dir: Path, budget: int, text: str) -> str | None:
    if rc not in (0, 3):
        return f"learn exited {rc}: {text.strip()[-300:]}"
    report = reports.read_report(out_dir / "report.txt")
    reached = report.terminated_by == "target_reached"
    if reached != (rc == 0) or (not reached and report.iterations != budget):
        return f"learn: exit {rc}, {report.terminated_by} at {report.iterations}"
    state = search.read_checkpoint(out_dir / "checkpoint.txt")
    if state["iteration"] != report.iterations:
        return "learn: checkpoint iteration differs from the report"
    schedule, keys, _ = propagate.read_bitstreams(out_dir / "bitstream.txt")
    if dict(zip(keys, schedule.bitstrings())) != report.bitstreams:
        return "learn: bitstream file differs from the report"
    return None


def op_evaluate(s: Session, k: int, tag: str) -> OpResult:
    p = s.workload.evaluate
    bits = evaluate_bits(s.workload, s.seed, k)
    bits_path = s.tmp / f"evaluate{tag}.txt"
    propagate.write_bitstreams(
        bits_path, propagate.PulseSchedule(bits), p.channel_keys, CLOCK_PS
    )
    out_dir = s.tmp / f"evaluate{tag}"
    rc, seconds, text = _cli([
        "evaluate", "--config", str(s.ini[p.name]), "--bitstream", str(bits_path),
        "--out-dir", str(out_dir),
    ])
    out = OpResult("evaluate", seconds)
    try:
        if rc != 0:
            out.error = f"evaluate exited {rc}: {text.strip()[-300:]}"
        else:
            got = reports.read_report(out_dir / "evaluate_report.txt")
            want = reports.evaluate_gate(
                config.parse_config(s.ini[p.name]),
                propagate.PulseSchedule(bits),
                command="evaluate",
            )
            bad = [f for f in REPORT_FIELDS if getattr(got, f) != getattr(want, f)]
            if bad:
                out.error = f"evaluate report differs from evaluate_gate in {bad}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        bits_path.unlink(missing_ok=True)
    return out


def op_oracle(s: Session, k: int, tag: str) -> OpResult:
    p, w = s.workload.oracle, s.workload
    rc, seconds, text = _cli([
        "oracle", "--config", str(s.ini[p.name]), "--cycles", str(w.oracle_cycles),
        "--seed", str(oracle_seed(s.workload, s.seed, k)),
    ])
    out = OpResult("oracle", seconds)
    if rc != 0:
        out.error = f"oracle exited {rc}: {text.strip()[-300:]}"
    return out


_OPS = {"search": op_search, "learn": op_learn, "evaluate": op_evaluate,
        "oracle": op_oracle}
