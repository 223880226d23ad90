"""Optimal control of superconducting qubits with SFQ pulse trains.

Builds truncated multi-level models of coupled transmons, flux-tunable
transmons, and fluxonia; evolves binary single-flux-quantum pulse schedules
as chains of delta-kick unitaries; scores them with average-fidelity and
leakage metrics; and searches for gate-realizing schedules with a genetic
algorithm.
"""

__version__ = "0.1.0"

from .metrics import (
    FidelityBreakdown,
    avg_fidelity_f1,
    avg_leakage,
    gate_breakdown,
    rz_fidelity_f2,
)
from .propagate import (
    CycleUnitarySet,
    EvolutionResult,
    PulseSchedule,
    evolve_full,
    evolve_projected,
    precompute,
    read_bitstreams,
    reference_integrate,
    write_bitstreams,
)
from .qubits import (
    QubitLevels,
    fluxonium_levels,
    split_transmon_levels,
    transmon_levels,
)
from .search import (
    GaConfig,
    Individual,
    SearchResult,
    evaluate_fitness,
    run_ga,
)
from .system import (
    ControlChannel,
    CoupledSystem,
    GateTarget,
    assemble,
    lookup_target,
    target_library,
)

__all__ = [
    "__version__",
    "QubitLevels",
    "transmon_levels",
    "split_transmon_levels",
    "fluxonium_levels",
    "ControlChannel",
    "CoupledSystem",
    "GateTarget",
    "assemble",
    "lookup_target",
    "target_library",
    "PulseSchedule",
    "CycleUnitarySet",
    "EvolutionResult",
    "precompute",
    "evolve_projected",
    "evolve_full",
    "reference_integrate",
    "read_bitstreams",
    "write_bitstreams",
    "FidelityBreakdown",
    "avg_fidelity_f1",
    "rz_fidelity_f2",
    "avg_leakage",
    "gate_breakdown",
    "GaConfig",
    "Individual",
    "SearchResult",
    "run_ga",
    "evaluate_fitness",
]
