"""Genetic search over binary pulse schedules.

Rank-weighted parent selection without replacement, single-point crossover
with one cut shared across channels, independent per-bit mutation, and
children replacing the current worst individuals only when strictly better.
One Generator seeded once drives every random draw, so a seed fixes the whole
run bit for bit; checkpoints capture the generator state and population and
resume exactly.
"""

from __future__ import annotations

import json
import time
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields, replace

import numpy as np

from .files import atomic_open
from .metrics import METRICS, FidelityBreakdown, _f1_batch, _f2_batch, projected_breakdown
from .propagate import (
    CycleUnitarySet,
    PulseSchedule,
    _evolve,
    _plan,
    _real,
    evolve_projected,
    precompute,
    word_tables,
)
from .system import CoupledSystem, GateTarget

__all__ = [
    "GaConfig",
    "Individual",
    "SearchResult",
    "run_ga",
    "evaluate_fitness",
    "crossover",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class GaConfig:
    """Search knobs; defaults are the full-size settings.

    There is no elitism knob: replacing only the worst with strictly better
    children already preserves the top of the population every generation.
    """

    population_size: int = 70
    selection_size: int = 60
    mutation_probability: float = 0.001
    max_iterations: int = 200_000
    target_fidelity: float = 0.999
    metric: str = "f2"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not 2 <= self.selection_size <= self.population_size:
            raise ValueError("selection_size must be in [2, population_size]")
        if self.selection_size % 2:
            raise ValueError("selection_size must be even (parents are paired)")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ValueError("target_fidelity must be in (0, 1]")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class Individual:
    bits: np.ndarray  # (num_channels, num_cycles) uint8
    fitness: float

    def schedule(self) -> PulseSchedule:
        return PulseSchedule(self.bits)


@dataclass(frozen=True)
class SearchResult:
    best: Individual
    breakdown: FidelityBreakdown
    iterations_used: int
    wall_time_s: float
    terminated_by: str  # "target_reached" | "max_iterations"
    history: np.ndarray  # best fitness after each executed iteration
    n_evaluations: int

    @property
    def error(self) -> float:
        return 1.0 - self.best.fitness


def evaluate_fitness(
    cycles: CycleUnitarySet,
    schedule: PulseSchedule,
    target: GateTarget,
    metric: str = "f2",
) -> FidelityBreakdown:
    """Canonical scalar fitness path: projected evolution, then metrics.

    A zero-length schedule evolves to the identity, so against an identity
    target it scores f1 = f2 = 1.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    matrix = evolve_projected(cycles, schedule).matrix
    return projected_breakdown(matrix, cycles.system, target)


def crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, cut: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover, same cut position on every channel.

    Parents are (channels, cycles) arrays with one cut, or stacked pairs
    (pairs, channels, cycles) with one cut per pair.
    """
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have identical shape")
    cuts = np.asarray(cut)
    if cuts.dtype.kind not in "iu":
        raise TypeError("cut must be an integer")
    if np.any((cuts < 0) | (cuts > parent_a.shape[-1])):
        raise ValueError("cut must lie in [0, num_cycles]")
    head = np.arange(parent_a.shape[-1]) < cuts[..., None, None]
    return np.where(head, parent_a, parent_b), np.where(head, parent_b, parent_a)


# -- batched fitness -----------------------------------------------------------

# Entry cap of the search's word tables: a word packs k cycles of nch bits,
# and 2^(nch * k) <= _TABLE_ENTRIES.  An entry is a matrix on the d states
# the engine chains: d^2 complex128, or (2d)^2 float64 (twice the bytes)
# when the engine chains in real arithmetic; its size does not enter the cap.
_TABLE_ENTRIES = 256
# The engine chains in real arithmetic when it chains at most this many
# states.  numpy's stacked complex matmul costs nearly as much per small
# product at 3 states as at 12, while the real [[Re, -Im], [Im, Re]] blocks
# cost 2-3x less there.  Real still led by 1.1-1.3x at 16 states, broke
# even at 18-20 and was 1.5x slower at 25 (60 products of 4 columns,
# OpenBLAS 0.3.31 on one thread of a 2-vCPU x86-64 host).  The rule reads
# only the state count, so a seed gives the same run on every machine.
_REAL_STATES = 16
_CACHE_ENTRIES = 100_000  # scores the de-duplication cache holds at most


class _FitnessEngine:
    """Evolves only the computational columns of every candidate at once.

    The evolution body of evolve_projected (``_evolve``), chained k cycles
    per product from word tables built once per engine, on the learning
    states the computational columns reach (``_plan``, by ``system.reach``:
    6 of 25 on a z-only pair at n_levels 5, every state with an x channel).
    At most ``_REAL_STATES`` states chain in real arithmetic: the tables are
    lifted once to [[Re, -Im], [Im, Re]] blocks (``_real``), and ``_evolve``
    folds the chained [Re; Im] columns back to complex before the frame and
    the metrics.  The columns meet the dropped states only by rounding, and
    products associate differently, so scores differ from the canonical
    path by rounding only.  A score that reaches the target is replaced by
    the canonical one, on the full learning block, before it is kept
    (``final``), so the search stops on canonical scores only.
    """

    def __init__(
        self, system: CoupledSystem, target: GateTarget, num_cycles: int, config: GaConfig
    ) -> None:
        self.target = target
        self.config = config
        self.cycles = precompute(system)
        comp = system.comp_sim_indices
        stack, self.start, self.rows = _plan(self.cycles, system.learn_indices, comp)
        self.comp = np.searchsorted(self.rows, comp)
        nch = len(system.channels)
        k = 1
        while 2 * k <= num_cycles and 1 << (2 * k * nch) <= _TABLE_ENTRIES:
            k *= 2
        self.tables = word_tables(stack, k)
        if len(self.rows) <= _REAL_STATES:
            self.tables = [_real(t) for t in self.tables]
        self.cache: dict[bytes, float] = {}
        self.n_evaluations = 0

    def _fitness_batch(self, bits: np.ndarray) -> np.ndarray:
        start = np.broadcast_to(self.start, (len(bits), *self.start.shape))
        m = _evolve(self.cycles.system, self.tables, bits, start, self.rows)
        # C order, so each row's metric sums run alike in any batch
        a = np.ascontiguousarray(m[:, self.comp, :])
        if self.config.metric == "f1":
            return _f1_batch(a, self.target.matrix)
        return _f2_batch(a, self.target.matrix)[0]

    def final(self, bits: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Make batch scores of bits final, in place: every score that
        reaches the target becomes the canonical one (once per distinct
        bits).  ValueError if a score is not finite."""
        if not np.all(np.isfinite(scores)):
            raise ValueError("batch fitness is not finite")
        canonical: dict[bytes, float] = {}
        for i in np.flatnonzero(scores >= self.config.target_fidelity):
            key = bits[i].tobytes()
            if key not in canonical:
                bd = evaluate_fitness(
                    self.cycles, PulseSchedule(bits[i]), self.target, self.config.metric
                )
                canonical[key] = bd.value(self.config.metric)
            scores[i] = canonical[key]
        return scores

    def fitness(self, bits: np.ndarray) -> np.ndarray:
        """Final batch fitness with a de-duplication cache keyed by the
        packed bits."""
        packed = np.packbits(bits.reshape(len(bits), -1), axis=1)
        keys = [row.tobytes() for row in packed]
        out = np.array([self.cache.get(key, np.nan) for key in keys])
        todo = np.flatnonzero(np.isnan(out))
        if todo.size:
            out[todo] = self.final(bits[todo], self._fitness_batch(bits[todo]))
            self.n_evaluations += todo.size
            if len(self.cache) + todo.size > _CACHE_ENTRIES:
                self.cache.clear()
            self.cache.update((keys[i], float(out[i])) for i in todo)
        return out


# -- checkpointing -------------------------------------------------------------

_CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint that cannot be read, or was written for another run."""


def _fingerprint(system: CoupledSystem, target: GateTarget, num_cycles: int) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(system.h_static.tobytes())
    h.update(np.asarray(system.bare_energies).tobytes())
    h.update(target.matrix.tobytes())
    for c in system.channels:
        h.update(f"{c.key}:{c.tip_angle!r}".encode())
    h.update(f"{system.n_levels}:{system.n_sim_levels}:{num_cycles}".encode())
    h.update(f"{system.clock_period!r}".encode())
    return h.hexdigest()


def write_checkpoint(
    path,
    *,
    fingerprint: str,
    iteration: int,
    rng: np.random.Generator,
    population: np.ndarray,
    fitness: np.ndarray,
    config: GaConfig,
) -> None:
    """Persist the full search state as structured text, atomically."""
    cp = ConfigParser(interpolation=None)
    cp["meta"] = {
        "version": str(_CHECKPOINT_VERSION),
        "fingerprint": fingerprint,
        "iteration": str(iteration),
        "population_size": str(population.shape[0]),
        "num_channels": str(population.shape[1]),
        "num_cycles": str(population.shape[2]),
    }
    cp["ga"] = {f.name: str(getattr(config, f.name)) for f in fields(GaConfig)}
    cp["rng"] = {"state": json.dumps(rng.bit_generator.state)}
    pop = {}
    for i in range(population.shape[0]):
        pop[f"fitness_{i}"] = float(fitness[i]).hex()
        for c, row in enumerate(PulseSchedule(population[i]).bitstrings()):
            pop[f"bits_{i}_{c}"] = row
    cp["population"] = pop
    with atomic_open(path) as fh:
        cp.write(fh)


def read_checkpoint(path) -> dict:
    """Parse a checkpoint file; OSError if it cannot be opened.

    Anything but a well-formed version-2 checkpoint raises CheckpointError
    with a one-line message.
    """
    cp = ConfigParser(interpolation=None)
    with open(path, "r", encoding="ascii") as fh:
        try:
            cp.read_file(fh)
            return _parse_checkpoint(cp)
        except CheckpointError:
            raise
        except (ConfigParserError, KeyError, ValueError) as exc:
            detail = " ".join(str(exc).split())
            raise CheckpointError(
                f"not a readable checkpoint ({type(exc).__name__}: {detail})"
            ) from exc


def _parse_checkpoint(cp: ConfigParser) -> dict:
    meta = cp["meta"]
    if meta["version"] != str(_CHECKPOINT_VERSION):
        raise CheckpointError(
            f"checkpoint version {meta['version']} is not supported "
            f"(this release reads version {_CHECKPOINT_VERSION})"
        )
    p = int(meta["population_size"])
    nch = int(meta["num_channels"])
    n = int(meta["num_cycles"])
    population = np.zeros((p, nch, n), dtype=np.uint8)
    fitness = np.zeros(p)
    sect = cp["population"]
    for i in range(p):
        fitness[i] = float.fromhex(sect[f"fitness_{i}"])
        rows = [sect[f"bits_{i}_{c}"] for c in range(nch)]
        if any(len(row) != n for row in rows):
            raise CheckpointError(f"checkpoint bit rows of individual {i} are malformed")
        population[i] = PulseSchedule.from_bitstrings(rows).bits
    if not np.all(np.isfinite(fitness)):
        raise CheckpointError("checkpoint fitness values must be finite")
    ga = cp["ga"]
    config = GaConfig(**{f.name: type(f.default)(ga[f.name]) for f in fields(GaConfig)})
    return {
        "fingerprint": meta["fingerprint"],
        "iteration": int(meta["iteration"]),
        "rng_state": json.loads(cp["rng"]["state"]),
        "population": population,
        "fitness": fitness,
        "config": config,
    }


def load_checkpoint(
    path, system: CoupledSystem, target: GateTarget, num_cycles: int, config: GaConfig
) -> dict:
    """read_checkpoint, then check that the state resumes this run.

    The iteration budget may be extended on resume; everything that feeds
    the random stream or the scoring must match exactly.
    """
    state = read_checkpoint(path)
    if state["fingerprint"] != _fingerprint(system, target, num_cycles):
        raise CheckpointError("checkpoint was written for a different problem")
    shape = (config.population_size, len(system.channels), num_cycles)
    if state["population"].shape != shape:
        raise CheckpointError(f"checkpoint population is not {shape} for this run")
    if replace(state["config"], max_iterations=config.max_iterations) != config:
        raise CheckpointError("checkpoint was written with different GA settings")
    return state


# -- the search ----------------------------------------------------------------

def run_ga(
    system: CoupledSystem,
    target: GateTarget,
    num_cycles: int,
    config: GaConfig,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> SearchResult:
    """Search for a schedule realizing the target gate.

    Deterministic for a fixed config seed; pass resume_from to continue a
    checkpointed run bit for bit.
    """
    if num_cycles < 1:
        raise ValueError("num_cycles must be positive")
    if target.num_qubits != system.num_qubits:
        raise ValueError("target size does not match the system")
    if not system.channels:
        raise ValueError("search needs at least one control channel")

    t0 = time.perf_counter()
    engine = _FitnessEngine(system, target, num_cycles, config)
    fingerprint = _fingerprint(system, target, num_cycles)
    nch = len(system.channels)
    p, s = config.population_size, config.selection_size
    rng = np.random.default_rng(config.seed)
    start_iter = 0

    if resume_from is not None:
        state = load_checkpoint(resume_from, system, target, num_cycles, config)
        population = state["population"]
        fitness = engine.final(population, state["fitness"])
        rng.bit_generator.state = state["rng_state"]
        start_iter = state["iteration"]
    else:
        population = rng.integers(0, 2, size=(p, nch, num_cycles), dtype=np.uint8)
        fitness = engine.fitness(population)

    history: list[float] = []
    rank_weights = np.arange(p, 0, -1, dtype=float)  # best gets p, worst gets 1

    def save() -> None:
        write_checkpoint(
            checkpoint_path,
            fingerprint=fingerprint,
            iteration=iteration,
            rng=rng,
            population=population,
            fitness=fitness,
            config=config,
        )

    iteration = start_iter
    periodic = checkpoint_path is not None and checkpoint_every > 0
    # Scores at or above the target are canonical (_FitnessEngine.final).
    while fitness.max() < config.target_fidelity and iteration < config.max_iterations:
        iteration += 1
        order_desc = np.argsort(-fitness, kind="stable")
        weights = np.empty(p)
        weights[order_desc] = rank_weights
        parents = rng.choice(p, size=s, replace=False, p=weights / weights.sum())

        cuts = rng.integers(0, num_cycles + 1, size=s // 2)
        pairs = crossover(population[parents[0::2]], population[parents[1::2]], cuts)
        children = np.stack(pairs, axis=1).reshape(s, nch, num_cycles)
        flips = rng.random(size=children.shape) < config.mutation_probability
        children ^= flips.astype(np.uint8)

        child_fit = engine.fitness(children)
        kid_order = np.argsort(-child_fit, kind="stable")
        worst_order = np.argsort(fitness, kind="stable")[:s]
        # Children best first against slots worst first: "beats its slot"
        # holds for a prefix, so counting finds its length.
        w = int((child_fit[kid_order] > fitness[worst_order]).sum())
        population[worst_order[:w]] = children[kid_order[:w]]
        fitness[worst_order[:w]] = child_fit[kid_order[:w]]

        history.append(float(fitness.max()))

        if periodic and iteration % checkpoint_every == 0:
            save()

    best_idx = int(np.argmax(fitness))
    reached = fitness[best_idx] >= config.target_fidelity
    breakdown = evaluate_fitness(
        engine.cycles, PulseSchedule(population[best_idx]), target, config.metric
    )
    if checkpoint_path is not None:
        save()
    wall = time.perf_counter() - t0
    best = Individual(
        bits=population[best_idx].copy(),
        fitness=breakdown.value(config.metric),
    )
    return SearchResult(
        best=best,
        breakdown=breakdown,
        iterations_used=iteration,
        wall_time_s=wall,
        terminated_by="target_reached" if reached else "max_iterations",
        history=np.asarray(history),
        n_evaluations=engine.n_evaluations,
    )
