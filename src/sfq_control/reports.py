"""Gate reports: everything needed to audit or re-evaluate a learned gate.

A report echoes the config, embeds the per-channel bitstreams, and records
the metrics twice: at the configured simulation depth and with two extra
levels per qubit, so truncation artifacts show up in the file itself.
Floats are written with repr and parse back to the identical float64.
"""

from __future__ import annotations

from configparser import ConfigParser
from dataclasses import dataclass, field, fields, replace

from . import __version__
from .config import ExperimentConfig, build_system
from .files import atomic_open
from .metrics import gate_breakdown
from .propagate import PulseSchedule, evolve_full, precompute
from .search import SearchResult, evaluate_fitness
from .system import CoupledSystem

__all__ = [
    "GateReport", "report_systems", "evaluate_gate", "write_report", "read_report",
]


@dataclass(frozen=True)
class GateReport:
    command: str  # "learn" | "evaluate"
    engine_version: str
    seed: int
    metric: str
    target_name: str
    num_cycles: int
    time_ns: float
    clock_ps: float
    n_levels: int
    n_sim_levels: int
    fitness: float
    error: float
    f1: float
    f2: float
    leakage: float
    norm_loss: float
    z_angles: tuple[float, ...]
    f1_wide: float
    f2_wide: float
    leakage_wide: float
    iterations: int
    wall_time_s: float
    terminated_by: str
    bitstreams: dict[str, str]  # channel key -> '0'/'1' row
    config_echo: dict = field(compare=False)


def report_systems(cfg: ExperimentConfig) -> tuple[CoupledSystem, CoupledSystem]:
    """The two systems a report evolves: at n_sim_levels and at
    n_sim_levels + 2.  ConfigError if either does not build, so a command
    can refuse a config before it searches or writes anything."""
    wide = replace(cfg, n_sim_levels=cfg.n_sim_levels + 2)
    return build_system(cfg), build_system(wide)


def evaluate_gate(
    cfg: ExperimentConfig,
    schedule: PulseSchedule | None = None,
    command: str = "evaluate",
    search: SearchResult | None = None,
) -> GateReport:
    """Compute the full report for one schedule under one config.

    Pass either a schedule or a search result; a search reports its best
    schedule.  The learning-space numbers (fitness, f1, f2, norm_loss) come
    from the canonical path the search scores with (for a search, its own
    breakdown of the best); leakage and the *_wide row come from
    unprojected evolutions at n_sim and n_sim + 2 levels.  Those read only
    the computational columns, so only those columns are evolved, on the
    states they reach (``system.reach``: every state with an x channel, the
    6 with at most two excitations on a z-only pair).
    """
    if (schedule is None) == (search is None):
        raise TypeError("pass either a schedule or a search result")
    system, wide_system = report_systems(cfg)
    target = cfg.target()
    cycles = precompute(system)
    if search is None:
        breakdown = evaluate_fitness(cycles, schedule, target, cfg.ga.metric)
    else:
        schedule, breakdown = search.best.schedule(), search.breakdown
    wide_cycles = precompute(wide_system)
    sim, wide = (gate_breakdown(evolve_full(c, schedule, c.system.comp_sim_indices),
                                c.system, target)
                 for c in (cycles, wide_cycles))

    fitness = breakdown.value(cfg.ga.metric)
    bitstreams = dict(zip(cfg.channel_keys(), schedule.bitstrings()))
    return GateReport(
        command=command,
        engine_version=__version__,
        seed=cfg.ga.seed,
        metric=cfg.ga.metric,
        target_name=cfg.target_name,
        num_cycles=schedule.num_cycles,
        time_ns=cfg.time_ns,
        clock_ps=cfg.clock_ps,
        n_levels=cfg.n_levels,
        n_sim_levels=cfg.n_sim_levels,
        fitness=fitness,
        error=1.0 - fitness,
        f1=breakdown.f1,
        f2=breakdown.f2,
        leakage=sim.leakage,
        norm_loss=breakdown.norm_loss,
        z_angles=breakdown.z_angles,
        f1_wide=wide.f1,
        f2_wide=wide.f2,
        leakage_wide=float(wide.leakage),
        iterations=search.iterations_used if search else 0,
        wall_time_s=search.wall_time_s if search else 0.0,
        terminated_by=search.terminated_by if search else "evaluate_only",
        bitstreams=bitstreams,
        config_echo=cfg.echo,
    )


# The scalar [run] keys, in field order, with the type each parses back to.
_KINDS = {"str": str, "int": int, "float": float}
_SCALARS = [(f.name, _KINDS[f.type]) for f in fields(GateReport) if f.type in _KINDS]


def write_report(path, report: GateReport) -> None:
    cp = ConfigParser(interpolation=None)
    run = {
        name: repr(float(getattr(report, name))) if kind is float
        else str(getattr(report, name))
        for name, kind in _SCALARS
    }
    run["z_angles"] = ",".join(repr(float(a)) for a in report.z_angles)
    cp["run"] = run
    cp["config"] = {
        f"{section}.{key}": value
        for section, items in report.config_echo.items()
        for key, value in items.items()
    }
    # ':' is a configparser delimiter, so channel keys are stored with '_'
    cp["bitstreams"] = {
        key.replace(":", "_"): row for key, row in report.bitstreams.items()
    }
    with atomic_open(path) as fh:
        cp.write(fh)


def read_report(path) -> GateReport:
    cp = ConfigParser(interpolation=None)
    with open(path, "r", encoding="ascii") as fh:
        cp.read_file(fh)
    run = cp["run"]
    kwargs: dict = {name: kind(run[name]) for name, kind in _SCALARS}
    angles = run["z_angles"]
    kwargs["z_angles"] = (
        tuple(float(a) for a in angles.split(",")) if angles else ()
    )
    echo: dict = {}
    for flat_key, value in cp["config"].items():
        section, key = flat_key.split(".", 1)
        echo.setdefault(section, {})[key] = value
    kwargs["config_echo"] = echo
    kwargs["bitstreams"] = {
        key.replace("_", ":"): row for key, row in cp["bitstreams"].items()
    }
    return GateReport(**kwargs)
