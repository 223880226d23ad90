"""Command-line interface.

Subcommands: learn, evaluate, sweep, spectrum, oracle.  Exit codes:
0 success (learn: target reached), 2 invalid config or inputs (nothing is
written), 3 search or integration did not converge (learn still writes its
report and bitstream), or a search was interrupted or lost a scoring worker
(learn keeps its last periodic checkpoint, sweep its finished points).
SIGTERM stops a search as Ctrl-C does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DESK_MAX_ITERATIONS,
    FULL_MAX_ITERATIONS,
    GHZ,
    ConfigError,
    ExperimentConfig,
    build_system,
    parse_config,
)
from .files import atomic_open
from .metrics import METRICS, agreement_f1
from .propagate import (
    _MAX_CYCLES,
    ConvergenceError,
    PulseSchedule,
    evolve_full,
    precompute,
    read_bitstreams,
    reference_integrate,
    write_bitstreams,
)
from .reports import evaluate_gate, report_systems, write_report
from .search import WorkerError, load_checkpoint, run_ga

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNFINISHED = 3  # no convergence, or a stopped search


class Terminated(BaseException):
    """SIGTERM during a search: a BaseException, like Ctrl-C's
    KeyboardInterrupt, so that it stops the search the same way."""


@contextlib.contextmanager
def _terminable():
    """SIGTERM raises Terminated in the with block; the previous handler is
    back when it is left, so in-process callers of ``main`` keep their own.
    Only the main thread may set a handler, so another thread's block
    leaves SIGTERM as it is."""
    def stop(signum, frame):
        raise Terminated

    main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, stop) if main else None
    try:
        yield
    finally:
        if main:
            signal.signal(signal.SIGTERM, previous)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfq-control",
        description="Learn and evaluate SFQ pulse-train gates on coupled qubits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed=True) -> None:
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out-dir", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override GA seed")

    learn = sub.add_parser("learn", help="search for a pulse train")
    common(learn)
    learn.add_argument("--max-iters", type=int, default=None,
                       help="override the iteration budget")
    learn.add_argument("--full-budget", action="store_true",
                       help=f"restore the full {FULL_MAX_ITERATIONS} iteration "
                            f"budget (default cap is {DESK_MAX_ITERATIONS})")
    learn.add_argument("--metric", choices=METRICS, default=None,
                       help="override the fitness metric")
    learn.add_argument("--checkpoint-every", type=int, default=0,
                       help="write a checkpoint every N iterations")
    learn.add_argument("--resume", default=None,
                       help="resume from a checkpoint file")
    learn.set_defaults(func=cmd_learn)

    evaluate = sub.add_parser("evaluate", help="re-evaluate a saved bitstream")
    common(evaluate, seed=False)
    evaluate.add_argument("--bitstream", required=True, help="bitstream file")
    evaluate.set_defaults(func=cmd_evaluate)

    sweep = sub.add_parser("sweep", help="learn across one swept parameter")
    common(sweep)
    sweep.add_argument("--param", required=True,
                       choices=("tip_angle", "gate_time_ns", "j_ghz"))
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sweep.add_argument("--max-iters", type=int, default=None)
    sweep.add_argument("--metric", choices=METRICS, default=None)
    sweep.set_defaults(func=cmd_sweep)

    spectrum = sub.add_parser("spectrum", help="print the system spectrum")
    spectrum.add_argument("--config", required=True)
    spectrum.set_defaults(func=cmd_spectrum)

    oracle = sub.add_parser(
        "oracle",
        help="check the delta-kick model against finite-width integration",
    )
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--cycles", type=int, default=100)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--substeps", type=int, default=64)
    oracle.add_argument("--pulse-width-ps", type=float, default=0.25)
    oracle.set_defaults(func=cmd_oracle)
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file with the command's GA flags applied; GaConfig checks
    every value."""
    cfg = parse_config(args.config)
    flags = {
        "seed": getattr(args, "seed", None),
        "metric": getattr(args, "metric", None),
        "max_iterations": getattr(args, "max_iters", None),
    }
    if getattr(args, "full_budget", False):
        if flags["max_iterations"] is not None:
            raise ConfigError("--max-iters and --full-budget are mutually exclusive")
        flags["max_iterations"] = FULL_MAX_ITERATIONS
    try:
        ga = replace(cfg.ga, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(cfg, ga=ga)


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    chosen = args.out_dir or cfg.out_dir or "runs"
    return Path(chosen)


def cmd_learn(args) -> int:
    cfg = _load_config(args)
    if args.checkpoint_every < 0:
        raise ConfigError("--checkpoint-every must be non-negative")
    out = _out_dir(args, cfg)
    system, _ = report_systems(cfg)  # the report's n_sim + 2 system too
    target = cfg.target()
    if args.resume is not None:  # checked here, before anything is written
        try:
            load_checkpoint(args.resume, system, target, cfg.num_cycles, cfg.ga)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot resume from {args.resume}: {exc}") from exc

    out.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out / "checkpoint.txt" if args.checkpoint_every > 0 else None
    try:
        with _terminable():
            result = run_ga(
                system,
                target,
                cfg.num_cycles,
                cfg.ga,
                checkpoint_path=checkpoint_path,
                checkpoint_every=args.checkpoint_every,
                resume_from=args.resume,
            )
            schedule = result.best.schedule()
            report = evaluate_gate(cfg, command="learn", search=result)
            report_path = out / "report.txt"
            bits_path = out / "bitstream.txt"
            write_report(report_path, report)
            write_bitstreams(bits_path, schedule, cfg.channel_keys(), cfg.clock_ps)
    except (KeyboardInterrupt, Terminated, WorkerError) as exc:
        kept = _kept_checkpoint(checkpoint_path, args.checkpoint_every, system, target, cfg)
        print(f"error: learn {_stopped(exc)}; {kept}", file=sys.stderr)
        return EXIT_UNFINISHED

    print(f"target {cfg.target_name}: {result.terminated_by} after "
          f"{result.iterations_used} iterations ({result.wall_time_s:.1f} s)")
    print(f"  {cfg.ga.metric} = {report.fitness:.9f}  error = {report.error:.3e}")
    print(f"  f1 = {report.f1:.9f}  f2 = {report.f2:.9f}")
    print(f"  leakage = {report.leakage:.3e}  (n_sim+2: {report.leakage_wide:.3e})")
    print(f"  norm_loss = {report.norm_loss:.3e}")
    print(f"  report: {report_path}")
    print(f"  bitstream: {bits_path}")
    if result.terminated_by != "target_reached":
        print("search stopped at the iteration budget before reaching the "
              "target fidelity", file=sys.stderr)
        return EXIT_UNFINISHED
    return EXIT_OK


def _stopped(exc: BaseException) -> str:
    """How a search stopped early: Ctrl-C, SIGTERM, or a scoring worker's
    death."""
    if isinstance(exc, KeyboardInterrupt):
        return "interrupted"
    return "terminated (SIGTERM)" if isinstance(exc, Terminated) else f"stopped: {exc}"


def _kept_checkpoint(path, every: int, system, target, cfg: ExperimentConfig) -> str:
    """What a stopped learn keeps: the checkpoint at path, if it resumes
    this run, and its iteration."""
    if path is None:
        return "no checkpoint was kept (--checkpoint-every is 0)"
    try:
        state = load_checkpoint(path, system, target, cfg.num_cycles, cfg.ga)
    except (OSError, ValueError):
        return f"no checkpoint was kept yet (--checkpoint-every is {every})"
    return f"{path} keeps iteration {state['iteration']}; resume with --resume {path}"


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    try:
        schedule, keys, clock_ps = read_bitstreams(args.bitstream)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read bitstream {args.bitstream}: {exc}") from exc

    expected = cfg.channel_keys()
    if sorted(keys) != sorted(expected):
        raise ConfigError(
            f"bitstream channels {keys} do not match config channels {expected}"
        )
    if keys != expected:  # same channels, different order: realign
        schedule = PulseSchedule(schedule.bits[[keys.index(k) for k in expected]])
    if abs(clock_ps - cfg.clock_ps) > 1e-12:
        raise ConfigError(
            f"bitstream clock {clock_ps} ps != config clock {cfg.clock_ps} ps"
        )
    if schedule.num_cycles != cfg.num_cycles:
        raise ConfigError(
            f"bitstream has {schedule.num_cycles} cycles, config implies "
            f"{cfg.num_cycles}"
        )

    report = evaluate_gate(cfg, schedule, command="evaluate")
    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "evaluate_report.txt"
    write_report(report_path, report)
    print(f"evaluated {cfg.target_name} over {schedule.num_cycles} cycles")
    print(f"  {cfg.ga.metric} = {report.fitness!r}  error = {report.error!r}")
    print(f"  f1 = {report.f1!r}")
    print(f"  f2 = {report.f2!r}")
    print(f"  leakage = {report.leakage!r}  (n_sim+2: {report.leakage_wide!r})")
    print(f"  norm_loss = {report.norm_loss!r}")
    print(f"  report: {report_path}")
    return EXIT_OK


def _sweep_variant(cfg: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    if param == "tip_angle":
        try:
            return replace(cfg, channels=tuple(
                replace(c, tip_angle=value) for c in cfg.channels))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if param == "gate_time_ns":
        return replace(cfg, time_ns=value)  # checked against the clock grid
    if cfg.num_qubits != 2:
        raise ConfigError("j_ghz sweep needs a two-qubit config")
    return replace(cfg, j_ghz=value)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --values: {exc}") from exc
    if not values:
        raise ConfigError("--values must list at least one number")
    if not np.all(np.isfinite(values)):
        raise ConfigError("--values must be finite numbers")
    # Build every point, report systems too, up front so a typo fails
    # before hours of search.
    variants = [_sweep_variant(cfg, args.param, v) for v in values]
    systems = [report_systems(variant)[0] for variant in variants]

    out = _out_dir(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    rows = [["value", "error_f1", "error_f2", "leakage", "iterations", "seconds"]]
    kept = 0
    try:
        with _terminable():
            for i, (value, variant, system) in enumerate(zip(values, variants, systems)):
                ga = replace(variant.ga, seed=cfg.ga.seed + i)
                try:
                    result = run_ga(system, variant.target(), variant.num_cycles, ga)
                    report = evaluate_gate(variant, search=result)
                    rows.append([
                        repr(value),
                        repr(1.0 - report.f1),
                        repr(1.0 - report.f2),
                        repr(report.leakage),
                        str(result.iterations_used),
                        repr(result.wall_time_s),
                    ])
                    print(f"{args.param} = {value}: error = "
                          f"{1.0 - result.best.fitness:.3e} "
                          f"({result.iterations_used} iterations)")
                except ValueError as exc:  # ConfigError included; keep sweeping
                    rows.append([repr(value), "", "", "", "", ""])
                    print(f"warning: point {args.param} = {value} failed: {exc}",
                          file=sys.stderr)
                with atomic_open(csv_path) as fh:  # every finished point survives a stop
                    csv.writer(fh).writerows(rows)
                kept = len(rows) - 1
    except (KeyboardInterrupt, Terminated, WorkerError) as exc:
        print(f"error: sweep {_stopped(exc)}; {csv_path} keeps {kept} of "
              f"{len(values)} points", file=sys.stderr)
        return EXIT_UNFINISHED
    print(f"sweep written to {csv_path}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = parse_config(args.config)
    system = build_system(cfg)
    for i, (spec, q) in enumerate(zip(cfg.qubit_specs, system.qubits)):
        ghz = q.energies[: system.n_sim_levels] / GHZ
        print(f"qubit{i} ({spec['type']}):")
        print("  level frequencies (GHz): "
              + ", ".join(f"{x:.6f}" for x in ghz))
        if system.n_sim_levels >= 3:
            anh = q.anharmonicity() / GHZ
            ratio = q.energies[2] / q.energies[1] - 1.0
            print(f"  anharmonicity (GHz): {anh:.6f}  w12/w01 - 1: {ratio:.6f}")
        charges = q.charge[: system.n_sim_levels - 1]
        print("  charge ratios c[k]/c[0]: "
              + ", ".join(f"{c / charges[0]:.6f}" for c in charges))
        if q.basis_error:
            print(f"  basis doubling error: {q.basis_error:.2e}")
    if system.num_qubits == 2:
        evals = np.sort(np.linalg.eigvalsh(system.h_static)) / GHZ
        print(f"coupling j (GHz): {cfg.j_ghz!r}")
        print("dressed levels (GHz): "
              + ", ".join(f"{x:.6f}" for x in evals[:6]) + ", ...")
        delta = abs(system.qubits[0].omega01 - system.qubits[1].omega01)
        if delta > 0 and cfg.j_ghz:
            mix = 0.5 * np.arctan2(2.0 * cfg.j_ghz * GHZ, delta)
            print(f"01/10 hybridization angle (rad): {mix:.7f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = parse_config(args.config)
    if not 1 <= args.cycles <= _MAX_CYCLES:
        raise ConfigError(f"--cycles must be between 1 and {_MAX_CYCLES}")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    system = build_system(cfg)
    rng = np.random.default_rng(args.seed)
    schedule = PulseSchedule.random(rng, len(system.channels), args.cycles)
    try:
        u_ref = reference_integrate(
            system,
            schedule,
            pulse_width=args.pulse_width_ps * 1e-12,
            substeps_per_cycle=args.substeps,
        )
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNFINISHED
    except ValueError as exc:  # --substeps or --pulse-width-ps out of range
        raise ConfigError(str(exc)) from exc
    u_delta = evolve_full(precompute(system), schedule)
    agree = agreement_f1(u_delta, u_ref)
    print(f"delta-kick vs finite-width pulses over {args.cycles} cycles "
          f"(tau = {args.pulse_width_ps} ps):")
    print(f"  full-space agreement F1 = {agree:.9f}")
    print(f"  max |U_delta - U_ref| = {np.max(np.abs(u_delta - u_ref)):.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
