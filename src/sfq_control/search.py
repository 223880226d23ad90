"""Genetic search over binary pulse schedules.

Rank-weighted parent selection without replacement, single-point crossover
with one cut shared across channels, independent per-bit mutation, and
children replacing the current worst individuals only when strictly better.
A generation draws one key per individual for the parents, one cut per pair
and a flip count with its positions, not a number per bit.  One Generator
seeded once drives every random draw, so a seed fixes the whole run bit for
bit; checkpoints capture the generator state and population and resume
exactly.  A search on a complex-arithmetic engine scores each batch on
every CPU it may use (``_workers``); a score is a function of its row's
bits alone, so the number of processes changes no result.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import signal
import time
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields, replace

import numpy as np

from .files import atomic_open
from .metrics import (
    METRICS, FidelityBreakdown, _block_breakdown, _f1_batch, _f2_batch, _lost,
)
from .propagate import (
    CycleUnitarySet,
    PulseSchedule,
    _check_schedule,
    _evolve,
    _plan,
    _TABLE_BYTES,
    _real,
    _word_size,
    chain,
    pack_words,
    precompute,
    word_products,
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
    "WorkerError",
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
    config: GaConfig | None = None,
) -> FidelityBreakdown:
    """The search's own score of one schedule, as a breakdown.

    The engine a search with config (default ``GaConfig(metric=metric)``)
    builds scores a batch of one, so f1 and f2 are bit for bit the scores
    that search keeps for these bits: its word size and block size follow
    the GA sizes.  norm_loss is the average population the computational
    columns lose from the learning subspace; leakage is None.  A
    zero-length schedule evolves to the identity, so against an identity
    target it scores f1 = f2 = 1.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    config = GaConfig(metric=metric) if config is None else config
    _check_schedule(cycles.system, schedule)
    engine = _FitnessEngine(cycles, target, schedule.num_cycles, config)
    return engine.breakdown(schedule.bits)


def crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, cut: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover, same cut position on every channel.

    Parents are 0/1 bit arrays, (channels, cycles) with one cut, or stacked
    pairs (pairs, channels, cycles) with one cut per pair.  The tails past
    the cut swap where the parents differ.
    """
    if parent_a.shape != parent_b.shape:
        raise ValueError("parents must have identical shape")
    cuts = np.asarray(cut)
    if cuts.dtype.kind not in "iu":
        raise TypeError("cut must be an integer")
    n = parent_a.shape[-1]
    if cuts.size and (cuts.min() < 0 or cuts.max() > n):
        raise ValueError("cut must lie in [0, num_cycles]")
    swap = (parent_a ^ parent_b) & (np.arange(n) >= cuts[..., None, None])
    return parent_a ^ swap, parent_b ^ swap


# -- batched fitness -----------------------------------------------------------

# The engine chains in real arithmetic when it chains at most this many
# states.  numpy's stacked complex matmul costs nearly as much per small
# product at 3 states as at 12, while the real [[Re, -Im], [Im, Re]] blocks
# cost 2-3x less there.  Real still led by 1.1-1.3x at 16 states, broke
# even at 18-20 and was 1.5x slower at 25 (60 products of 4 columns,
# OpenBLAS 0.3.31 on one thread of a 2-vCPU x86-64 host).  The rule reads
# only the state count, so a seed gives the same run on every machine.
_REAL_STATES = 16

# The fewest rows of a selection each scoring process takes, so a search
# with a small selection (2 rows: the bench's set-up probe and gate) keeps
# it in one process.  A 25-state row of the 40 ns CZ costs about 3 ms, and
# a packed slice's round trip through a pipe about 0.2 ms at 4 rows and
# 0.3 ms at 30 (0.9 ms unpacked; median of 200, 2 vCPUs).
_MIN_ROWS = 4


class WorkerError(RuntimeError):
    """A scoring worker process died during a search."""


def _cpus() -> int:
    """J, the processes a batch may use: the CPUs this process may run on,
    or 1 where that cannot be asked or a process cannot fork."""
    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        return len(os.sched_getaffinity(0))
    return 1


def _block_size(words: int, slots: int, slot_bytes: int) -> int:
    """Words per block of the engine's block pool: ceil(sqrt(words)), so the
    sweep (words / b steps) and a rebuild (b steps) take about as many
    steps, grown until the pool of slots x ceil(words / b) blocks of
    slot_bytes fits ``_TABLE_BYTES``; 1 (no pool) if one block per slot
    does not fit."""
    most = _TABLE_BYTES // (slots * slot_bytes)  # blocks per member
    if most < 1:
        return 1
    b = math.isqrt(max(words - 1, 0)) + 1
    return max(b, -(-words // most))


class _FitnessEngine:
    """Scores only the computational columns of every candidate at once.

    This is the one learning-space score: the search keeps it, and
    ``evaluate_fitness`` reports it for a batch of one.  It runs the one
    evolution body (``_evolve``), k cycles per product from word tables
    built once per engine, on the learning states the computational columns
    reach (``_plan``, by ``system.reach``: 6 of 25 on a z-only pair at
    n_levels 5, every state with an x channel).  k is the one rule of every
    evolution (``_word_size``), a power of two or three times one, for the
    computational columns of population + selection: every fresh search
    chains at least those through the same tables.  At most
    ``_REAL_STATES`` states chain in real arithmetic: the tables are lifted
    once to [[Re, -Im], [Im, Re]] blocks (``_real``), and ``_evolve`` folds
    the chained [Re; Im] columns back to complex before the frame and the
    metrics.

    A complex engine forms its top table T_k (``form``) once a batch uses
    as many whole words as T_k has entries, and ``run_ga`` forms it before
    it forks, so its workers share the one table.  A smaller batch (the
    batch of one of ``evaluate_fitness``) forms only the products of its
    distinct words (``chain_bits``), the same bits as T_k's entries.

    Block reuse (real arithmetic only): the whole words split into nb
    blocks of b words (``_block_size``; the last one padded with identity
    words), and a block's op is the product of its b table entries, formed
    by the same batched chain every time, so a score is a function of the
    bits only.  The pool holds the ops of every population member (``keep``)
    and of one selection of children: a child's block whose words equal its
    head or tail parent's takes that parent's slot, every other block (the
    cut's, a flip's) is rebuilt (``offspring``), and winners copy their ops
    into the slots they take (``adopt``).  Scores sweep the columns across
    the nb ops, then chain the n mod k cycles left.  b = 1 is the plain
    chain by T_k, with no pool.
    """

    def __init__(
        self, cycles: CycleUnitarySet, target: GateTarget, num_cycles: int,
        config: GaConfig,
    ) -> None:
        self.target = target
        self.config = config
        self.cycles = cycles
        system = cycles.system
        comp = system.comp_sim_indices
        stack, self.start, self.rows = _plan(cycles, system.learn_indices, comp)
        self.comp = np.searchsorted(self.rows, comp)
        slots = config.population_size + config.selection_size
        d = len(self.rows)
        real = d <= _REAL_STATES
        k = _word_size(len(system.channels), d, len(comp) * slots, num_cycles, real)
        # lifted tables cannot form T_k's entries as complex products, so a
        # real engine forms T_k here
        self.tables = word_tables(stack, k, form=real)
        self.entries = 1 << (len(system.channels) * k)
        self.num_cycles = num_cycles
        self.whole = num_cycles // k  # whole words
        if real:
            self.tables = {j: _real(t) for j, t in self.tables.items()}
        self.b = _block_size(self.whole, slots, 32 * d * d) if real else 1
        self.nb = -(-self.whole // self.b)
        if self.b > 1:
            # T_k and one identity word, the pad of the last block
            self.store = np.concatenate((self.tables[k], np.eye(2 * d)[None]))
            self.tables[k] = self.store[:-1]
            self.pool = np.empty((slots * self.nb, 2 * d, 2 * d))
            self.member_words = np.zeros((slots, self.nb, self.b), dtype=np.int64)
        self.n_evaluations = 0
        self.workers: list = []  # (process, pipe) of each scoring worker

    def form(self) -> None:
        """Form the top table T_k whole, once."""
        k = max(self.tables)
        if self.tables[k] is None:
            self.tables[k] = word_products(self.tables, k)

    def jobs(self) -> int:
        """Processes that score this engine's search batches: J
        (``_cpus``) for a complex-arithmetic engine (more than
        ``_REAL_STATES`` states, so b = 1 and no block pool), but no more
        than give each ``_MIN_ROWS`` rows of a selection; 1 for a real one,
        which scores children from its block pool, kept in this process."""
        if len(self.rows) <= _REAL_STATES:
            return 1
        return max(1, min(_cpus(), self.config.selection_size // _MIN_ROWS))

    def _words(self, bits: np.ndarray) -> np.ndarray:
        """The block words of bits, (B, nb, b), the pad word ending the
        last block."""
        k = max(self.tables)
        words = pack_words(bits[..., : self.whole * k], k)
        pad = np.full((len(bits), self.nb * self.b - self.whole), len(self.store) - 1)
        return np.concatenate((words, pad), axis=1).reshape(len(bits), self.nb, self.b)

    def _ops(self, words: np.ndarray) -> np.ndarray:
        """The op of each block of words (..., b): its table entries
        multiplied in one fixed order, earliest rightmost."""
        w = words.reshape(-1, self.b)
        return chain(self.store, w[:, 1:], self.store[w[:, 0]])

    def _columns(self, bits: np.ndarray, blocks=None) -> np.ndarray:
        """The rest-frame computational columns of bits on the chained
        states, (B, rows, 2^q): by blocks = (ops, src) (``_evolve``), else,
        when b > 1, by block ops built afresh from the bits, else by T_k,
        formed first if the batch uses as many words as it has entries."""
        if blocks is None and self.b > 1:
            src = np.arange(len(bits) * self.nb).reshape(len(bits), self.nb)
            blocks = (self._ops(self._words(bits)), src)
        elif len(bits) * self.whole >= self.entries:
            self.form()
        start = np.broadcast_to(self.start, (len(bits), *self.start.shape))
        return _evolve(self.cycles.system, self.tables, bits, start, self.rows, blocks)

    def _score(self, m: np.ndarray) -> np.ndarray:
        # C order, so each row's metric sums run alike in any batch
        a = np.ascontiguousarray(m[:, self.comp, :])
        if self.config.metric == "f1":
            return _f1_batch(a, self.target.matrix)
        return _f2_batch(a, self.target.matrix)[0]

    def _fitness_batch(self, bits: np.ndarray) -> np.ndarray:
        """Batch scores of bits, every block op built afresh."""
        return self._score(self._columns(bits))

    def _checked(self, scores: np.ndarray) -> np.ndarray:
        """Count the scores of a batch; ValueError if one is not finite."""
        if not np.all(np.isfinite(scores)):
            raise ValueError("batch fitness is not finite")
        self.n_evaluations += len(scores)
        return scores

    def breakdown(self, bits: np.ndarray) -> FidelityBreakdown:
        """The breakdown of one candidate bits (nch, N): f1 and f2 equal
        its batch score, norm_loss is what its columns lose from the
        learning subspace."""
        m = self._columns(bits[None])[0]
        return _block_breakdown(m[self.comp], self.target, norm_loss=_lost(m))

    def fitness(self, bits: np.ndarray) -> np.ndarray:
        """Batch fitness of bits, every row scored: in contiguous slices,
        one per worker (sent packed eight cycles to a byte) and the first
        one here, when workers are running."""
        parts = np.array_split(bits, len(self.workers) + 1)
        for (proc, pipe), part in zip(self.workers, parts[1:]):
            _talk(proc, pipe.send, np.packbits(part, axis=-1))
        scores = [self._fitness_batch(parts[0])]
        scores += [_talk(proc, pipe.recv) for proc, pipe in self.workers]
        return self._checked(np.concatenate(scores))

    def keep(self, population: np.ndarray) -> None:
        """Build the pool of the population's block ops from its bits."""
        if self.b > 1:
            words = self._words(population)
            self.member_words[: len(words)] = words
            self.pool[: len(words) * self.nb] = self._ops(words)

    def offspring(
        self, children: np.ndarray, heads: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Fitness of children, each from the block ops of its parents
        heads and tails (population rows) where their words agree; the
        children's ops stay in the pool for ``adopt``."""
        if self.b == 1:
            return self.fitness(children)
        p, nb = self.config.population_size, self.nb
        words = self._words(children)
        self.member_words[p:] = words
        block = np.arange(nb)
        own = (p + np.arange(len(children)))[:, None] * nb + block
        src = own.copy()
        for parents in (heads, tails):
            same = (words == self.member_words[parents]).all(axis=-1)
            src[same] = (parents[:, None] * nb + block)[same]
        new = src == own
        self.pool[own[new]] = self._ops(words[new])
        self.src = src
        return self._checked(self._score(self._columns(children, (self.pool, src))))

    def adopt(self, kids: np.ndarray, slots: np.ndarray) -> None:
        """Children kids of the last ``offspring`` take population rows
        slots: their ops are gathered before any slot is written, since a
        replaced slot may be another kid's parent."""
        if self.b > 1:
            p, nb = self.config.population_size, self.nb
            dest = slots[:, None] * nb + np.arange(nb)
            self.pool[dest] = self.pool[self.src[kids]]
            self.member_words[slots] = self.member_words[p + kids]


def _talk(proc, call, *args):
    """call (a pipe's send or recv) to worker proc; WorkerError once its
    pipe is closed, which the kernel does as soon as the worker dies."""
    try:
        return call(*args)
    except (EOFError, OSError) as exc:
        proc.join(1.0)
        raise WorkerError(
            f"scoring worker {proc.pid} died (exit code {proc.exitcode})"
        ) from exc


def _serve(engine: _FitnessEngine, pipe, mains) -> None:
    """A worker: score each slice of bits that arrives on pipe, packed by
    ``_FitnessEngine.fitness``, and send its scores back, until the main
    process closes the pipe.  mains are the main process's ends of the pipes
    so far, this one's included.  Ctrl-C is the main process's to handle;
    it stops the workers itself.  SIGTERM, the main process's way to stop
    one (``terminate``), kills it outright, whatever handler it inherited."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in mains:  # held here, a main end would not close when the
        end.close()    # main process closes it
    try:
        while True:
            part = np.unpackbits(pipe.recv(), axis=-1, count=engine.num_cycles)
            pipe.send(engine._fitness_batch(part))
    except (EOFError, OSError):  # the main process closed the pipe
        pass


@contextlib.contextmanager
def _workers(engine: _FitnessEngine):
    """Fork ``engine.jobs() - 1`` scoring workers for the with block and
    hand them to ``engine.fitness``.  Forked, not spawned: they share the
    engine's word tables copy-on-write rather than precompute their own,
    and keep this process's BLAS thread setting.  However the block ends
    (return, exception, Ctrl-C, SIGTERM), every worker has exited and been joined
    when it is left: an idle one exits as its pipe closes, one that may be
    busy on a batch no one will read is terminated."""
    workers = []
    try:
        for _ in range(engine.jobs() - 1):
            mine, theirs = multiprocessing.Pipe()
            mains = [mine, *(pipe for _, pipe in workers)]
            proc = multiprocessing.get_context("fork").Process(
                target=_serve, args=(engine, theirs, mains), daemon=True)
            proc.start()
            theirs.close()
            workers.append((proc, mine))
        engine.workers = workers
        yield
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        engine.workers = []
        for _, pipe in workers:
            pipe.close()
        for proc, _ in workers:
            proc.join()


# -- checkpointing -------------------------------------------------------------

_CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint that cannot be read, or was written for another run."""


def _fingerprint(system: CoupledSystem, target: GateTarget, num_cycles: int) -> str:
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

    Anything but a well-formed version-3 checkpoint raises CheckpointError
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

def _select(rng: np.random.Generator, weights: np.ndarray, s: int) -> np.ndarray:
    """s distinct indices drawn without replacement with probability
    proportional to weights, in draw order: the s smallest exponential keys
    E_i / w_i in increasing order (Efraimidis-Spirakis), the law and order
    of successive sampling, from one number per index."""
    keys = rng.standard_exponential(len(weights)) / weights
    return np.argsort(keys, kind="stable")[:s]


def _mutate(rng: np.random.Generator, bits: np.ndarray, p: float) -> None:
    """Flip every bit of bits independently with probability p, in place:
    a Binomial(bits.size, p) count of distinct positions drawn uniformly."""
    bits.flat[rng.choice(bits.size, rng.binomial(bits.size, p), replace=False)] ^= 1


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
    checkpointed run bit for bit.  A complex-arithmetic search scores each
    batch on ``jobs()`` processes (``_workers``), every one of them gone
    once it returns or raises; WorkerError if one dies.  Their number
    changes no result, so a resume may use another.
    """
    if num_cycles < 1:
        raise ValueError("num_cycles must be positive")
    if target.num_qubits != system.num_qubits:
        raise ValueError("target size does not match the system")
    if not system.channels:
        raise ValueError("search needs at least one control channel")

    t0 = time.perf_counter()
    cycles = precompute(system)
    engine = _FitnessEngine(cycles, target, num_cycles, config)
    fingerprint = _fingerprint(system, target, num_cycles)
    nch = len(system.channels)
    p, s = config.population_size, config.selection_size
    rng = np.random.default_rng(config.seed)
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

    periodic = checkpoint_path is not None and checkpoint_every > 0
    engine.form()  # before the fork, so the workers share the one T_k
    with _workers(engine):
        iteration = 0
        if resume_from is not None:
            state = load_checkpoint(resume_from, system, target, num_cycles, config)
            population, fitness = state["population"], state["fitness"]
            rng.bit_generator.state = state["rng_state"]
            iteration = state["iteration"]
        else:
            population = rng.integers(0, 2, size=(p, nch, num_cycles), dtype=np.uint8)
            fitness = engine.fitness(population)
        engine.keep(population)

        while fitness.max() < config.target_fidelity and iteration < config.max_iterations:
            iteration += 1
            order_desc = np.argsort(-fitness, kind="stable")
            weights = np.empty(p)
            weights[order_desc] = rank_weights
            parents = _select(rng, weights, s)

            cuts = rng.integers(0, num_cycles + 1, size=s // 2)
            pairs = crossover(population[parents[0::2]], population[parents[1::2]], cuts)
            children = np.stack(pairs, axis=1).reshape(s, nch, num_cycles)
            _mutate(rng, children, config.mutation_probability)

            # child 2i is parent 2i's head on parent 2i+1's tail, child 2i+1
            # the other way round
            tails = parents.reshape(-1, 2)[:, ::-1].reshape(-1)
            child_fit = engine.offspring(children, parents, tails)
            kid_order = np.argsort(-child_fit, kind="stable")
            worst_order = np.argsort(fitness, kind="stable")[:s]
            # Children best first against slots worst first: "beats its
            # slot" holds for a prefix, so counting finds its length.
            w = int((child_fit[kid_order] > fitness[worst_order]).sum())
            engine.adopt(kid_order[:w], worst_order[:w])
            population[worst_order[:w]] = children[kid_order[:w]]
            fitness[worst_order[:w]] = child_fit[kid_order[:w]]

            history.append(float(fitness.max()))

            if periodic and iteration % checkpoint_every == 0:
                save()

    best_idx = int(np.argmax(fitness))
    reached = fitness[best_idx] >= config.target_fidelity
    breakdown = evaluate_fitness(
        cycles, PulseSchedule(population[best_idx]), target, config=config
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
