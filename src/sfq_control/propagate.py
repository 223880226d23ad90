"""Time evolution under SFQ pulse trains.

The working model treats each pulse as a delta kick at the start of its clock
cycle: one cycle is ``free @ kick(mask)`` where ``mask`` says which channels
fired.  All 2^n_channels cycle unitaries are precomputed once, so evolving a
schedule is a chain of matrix products, all formed by the one kernel
``chain``.  Every evolution chains k cycles per product from word tables
(the Four-Russians lookup: a k-cycle word indexes its precomputed product),
with k the power of two or three times a power of two of fewest
multiply-adds (``_word_size``).
Results are reported in the rest frame of the uncoupled qubits, with the
frame rotation applied once at the final time.

``reference_integrate`` is the independent check on the delta-kick model: it
integrates the Schrodinger equation with finite-width Gaussian pulses using a
commutator-free fourth-order Magnus scheme and verifies its own convergence
by substep doubling.  Each distinct pulse window is integrated once: when
pulses are narrower than a cycle their windows repeat (one product per set
of channels fired), and wide pulses whose windows overlap merge into one
long segment integrated substep by substep.  A window centred on its cycle
start is symmetric in time, so it exponentiates only its first half.  The
substep exponentials are scaled Taylor polynomials of cos and sin in real
arithmetic (``_expm_sym``); the one eigendecomposition per run is of
h_static, for the stretches with no pulse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .files import atomic_open
from .metrics import _lost
from .system import CoupledSystem, _expm_herm, kick_generator

__all__ = [
    "PulseSchedule",
    "CycleUnitarySet",
    "EvolutionResult",
    "ConvergenceError",
    "BitstreamFormatError",
    "precompute",
    "pack_words",
    "word_products",
    "word_tables",
    "chain",
    "chain_bits",
    "evolve_projected",
    "evolve_full",
    "reference_integrate",
    "write_bitstreams",
    "read_bitstreams",
]


class ConvergenceError(RuntimeError):
    """Reference integration did not converge under substep doubling."""


class BitstreamFormatError(ValueError):
    """Malformed bitstream exchange file."""


# -- schedules ----------------------------------------------------------------

@dataclass(frozen=True)
class PulseSchedule:
    """Binary pulse train: bits[c, t] == 1 fires channel c in cycle t."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(np.asarray(self.bits), dtype=np.uint8)
        if b.ndim != 2:
            raise ValueError("bits must be a (num_channels, num_cycles) array")
        if b.size and not np.all((b == 0) | (b == 1)):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", b)

    @property
    def num_channels(self) -> int:
        return int(self.bits.shape[0])

    @property
    def num_cycles(self) -> int:
        return int(self.bits.shape[1])

    @classmethod
    def zeros(cls, num_channels: int, num_cycles: int) -> "PulseSchedule":
        return cls(np.zeros((num_channels, num_cycles), dtype=np.uint8))

    @classmethod
    def random(
        cls, rng: np.random.Generator, num_channels: int, num_cycles: int
    ) -> "PulseSchedule":
        return cls(rng.integers(0, 2, size=(num_channels, num_cycles), dtype=np.uint8))

    @classmethod
    def from_bitstrings(cls, rows: list[str]) -> "PulseSchedule":
        """Decode one '0'/'1' text row per channel; ValueError if malformed."""
        if not rows:
            raise ValueError("need at least one channel row")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("all channels must have the same number of cycles")
        text = "".join(rows).encode("ascii")  # UnicodeEncodeError is a ValueError
        bits = np.frombuffer(text, dtype=np.uint8) - ord("0")
        return cls(bits.reshape(len(rows), len(rows[0])))

    def bitstrings(self) -> list[str]:
        """One '0'/'1' text row per channel (inverse of from_bitstrings)."""
        return [(row + ord("0")).tobytes().decode("ascii") for row in self.bits]


# -- precomputed cycle unitaries ----------------------------------------------

@dataclass(frozen=True)
class CycleUnitarySet:
    """Every one-cycle unitary the delta-kick model can produce.

    combos[mask] = free @ kick(mask); kick(mask) applies all fired channels
    at the cycle start (generators summed before exponentiation, so
    simultaneous bits on one qubit are legal even when they don't commute).
    """

    system: CoupledSystem
    combos: np.ndarray = field(repr=False)  # (2^nch, dim_sim, dim_sim)


def precompute(system: CoupledSystem) -> CycleUnitarySet:
    free = _expm_herm(system.h_static, system.clock_period)
    gens = [kick_generator(system, c) for c in system.channels]
    combos = [free]
    for mask in range(1, 1 << len(gens)):
        gen = sum(g for i, g in enumerate(gens) if mask >> i & 1)
        combos.append(free @ _expm_herm(gen))
    return CycleUnitarySet(system=system, combos=np.stack(combos))


# -- the chain kernel -----------------------------------------------------------

def pack_words(bits: np.ndarray, k: int) -> np.ndarray:
    """Pack bits (..., nch, N), N a multiple of k, into words of k cycles:
    bit c of a word's i-th cycle is bit i * nch + c (k = 1: channel masks)."""
    *lead, nch, n = bits.shape
    grouped = bits.reshape(*lead, nch, n // k, k)
    shifts = np.arange(k) * nch + np.arange(nch)[:, None]  # (nch, k)
    return np.einsum("...csi,ci->...s", grouped, 1 << shifts)


# Bytes one table (word tables, the search's block pool) may hold: a word
# table of 2^(nch k) entries holds 16 d^2 bytes per complex entry and
# 32 d^2 once lifted to real (``_real``).
_TABLE_BYTES = 1 << 26
# Bytes of working arrays in one chunk: about one core's L2 cache.  On the
# 40 ns CZ (1 BLAS thread) chunks of 4-8 substeps integrated a 40-cycle
# oracle on 49 states in 50-53 ms, whole windows (16-52 substeps) in 63 ms,
# and the 760 distinct words of a 5000-cycle schedule formed their T_6
# entries on 25 states in 5.5 ms by chunks, 9 ms all at once.
_CHUNK_BYTES = 1 << 21


def _word_size(nch: int, d: int, c: int, n: int, real: bool = False) -> int:
    """The word size k <= max(n, 1), a power of two or three times one,
    that chains n cycles of c columns on d states in the fewest
    multiply-adds, the smallest on a tie: each table T_j of
    ``word_tables(mats, k)`` above T_1 costs 2^(nch * j) * d^3 to build,
    and the chain (n / k) * d^2 * c.  No T_j above T_1 holds more than
    ``_TABLE_BYTES`` (held real if real).  It reads only shapes, so a seed
    gives the same run on every machine."""
    best, least = 1, Fraction(n * d * d * c)
    entry = (32 if real else 16) * d * d
    p, powers = 1, 0  # T_p, the largest power of two so far; T_2 .. T_p's cost
    while True:
        for k in (2,) if p == 1 else (p + p // 2, 2 * p):
            if k > n or entry << (nch * k) > _TABLE_BYTES:
                return best
            build = powers + (d**3 << (nch * k))
            if build >= least:  # the build only grows with k
                return best
            cost = build + Fraction(n * d * d * c, k)
            if cost < least:
                best, least = k, cost
        p, powers = 2 * p, build


def word_products(tables: dict, k: int, words: np.ndarray | None = None) -> np.ndarray:
    """T_k[words] from the two tables below it: T_k[hi * len(T_b) + lo] =
    T_a[hi] @ T_b[lo], b the largest word size below k in tables and
    a = k - b, earliest cycles rightmost.  words None: the whole T_k, in
    word order; words (S,): their entries, a chunk of ``_CHUNK_BYTES`` of
    operands and products at a time.  Each entry is the same one product
    either way, so a table formed whole and its entries formed per use
    agree bit for bit."""
    b = max(j for j in tables if j < k)
    ta, tb = tables[k - b], tables[b]
    if words is None:
        return np.matmul(ta[:, None], tb[None, :]).reshape(-1, *tb.shape[1:])
    hi, lo = np.divmod(words, len(tb))
    out = np.empty((len(words), *tb.shape[1:]), tb.dtype)
    step = max(1, _CHUNK_BYTES // (3 * tb[0].nbytes))
    for s in range(0, len(words), step):
        np.matmul(ta[hi[s : s + step]], tb[lo[s : s + step]], out=out[s : s + step])
    return out


def word_tables(mats: np.ndarray, k: int, form: bool = True) -> dict:
    """{j: T_j} for j = 1, 2, 4, ... below k, and k, where k is a power of
    two or three times one (every evolution takes k from ``_word_size``):
    T_1 = mats and T_j[w] is the product of the j cycles packed in word w,
    earliest rightmost.  Each table is two below it (``word_products``):
    T_2j = T_j x T_j by squaring, and T_(3j/2) = T_(j/2) x T_j.  form=False
    leaves T_k None, for ``chain_bits`` to form per use."""
    tables, j = {1: mats}, 1
    while j < k:
        j += min(j, k - j)
        tables[j] = word_products(tables, j) if form or j < k else None
    return tables


def chain(mats: np.ndarray, words: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Left-multiply m by mats[w] for each word w in turn: words (S,) chain
    one operator with 2-D products, words (B, S) a batch m (B, dim, c).  A
    batch of one chains as one operator: the same products, without
    gathering a stack of one at each step."""
    if words.ndim == 2 and len(words) == 1:
        return chain(mats, words[0], m[0])[None]
    if words.ndim == 1:
        for w in words:
            m = mats[w] @ m
        return m
    for s in range(words.shape[1]):
        m = np.matmul(mats[words[:, s]], m)
    return m


def chain_bits(tables: dict, bits: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Chain a batch m (B, dim, c) along bits (B, nch, N) by word tables
    (``word_tables``): whole words of k = max(tables) cycles from T_k, then
    the N mod k cycles left by the powers of two below k, largest first.
    While T_k is None it forms the products of the distinct words used
    (``word_products``) and chains those: the same bits as T_k's entries."""
    start = 0
    for size in sorted(tables, reverse=True):
        end = start + (bits.shape[-1] - start) // size * size
        if end > start:
            words = pack_words(bits[..., start:end], size)
            mats = tables[size]
            if mats is None:
                used, index = np.unique(words, return_inverse=True)
                mats, words = word_products(tables, size, used), index.reshape(words.shape)
            m = chain(mats, words, m)
            start = end
    return m


# -- evolution ----------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionResult:
    """Learning-space evolution operator and the population it shed.

    matrix: rest-frame evolution truncated to the learning subspace; not
        unitary once population crossed the truncation boundary.
    norm_loss: 1 - ||matrix||_F^2 / dim_learn, the average population lost
        from the learning subspace.
    """

    matrix: np.ndarray

    @property
    def norm_loss(self) -> float:
        return _lost(self.matrix)


def _check_schedule(system: CoupledSystem, schedule: PulseSchedule) -> None:
    if schedule.num_channels != len(system.channels):
        raise ValueError(
            f"schedule has {schedule.num_channels} channels, "
            f"system has {len(system.channels)}"
        )


def _frame_phases(system: CoupledSystem, num_cycles: int) -> np.ndarray:
    """Rest-frame rotation exp(+i E_bare T), T = num_cycles clock periods,
    as a phase vector."""
    total_time = num_cycles * system.clock_period
    return np.exp(1j * system.bare_energies * total_time)


def _plan(
    cycles: CycleUnitarySet, space: np.ndarray, columns
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain of start states columns within space (sorted; both
    full-space indices): (stack, start, states).  states are the states of
    space that columns reach (``system.reach``), stack is ``cycles.combos``
    cut to them and start the columns of eye(len(states)).  ValueError
    unless columns is a 1-D list of integer states in space."""
    columns = np.asarray(columns)
    if (columns.ndim != 1 or columns.dtype.kind not in "iu"
            or not np.all(np.isin(columns, space))):
        raise ValueError("columns must be a 1-D list of states of the space")
    states = np.intersect1d(space, cycles.system.reach(columns))
    start = np.eye(len(states), dtype=complex)[:, np.searchsorted(states, columns)]
    return cycles.combos[:, states][:, :, states], start, states


def _tables(stack: np.ndarray, start: np.ndarray, schedule: PulseSchedule) -> dict:
    """The word tables of one evolution, at the word size of the rule
    (``_word_size``) for the plan's start columns chained along schedule."""
    k = _word_size(schedule.num_channels, stack.shape[1], start.shape[1],
                   schedule.num_cycles)
    return word_tables(stack, k)


def _real(mats: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) as real blocks [[Re, -Im], [Im, Re]]
    (..., 2d, 2d), which act on [Re; Im] columns as mats act on columns."""
    return np.block([[mats.real, -mats.imag], [mats.imag, mats.real]])


def _evolve(
    system: CoupledSystem, tables: dict, bits: np.ndarray, start, rows,
    blocks=None,
) -> np.ndarray:
    """The one delta-kick evolution body: start chained along bits by the
    word tables (chain_bits), in the rest frame of the states rows.  Real
    tables (``_real``) chain the columns as [Re; Im] and fold them back to
    complex.  blocks = (ops, src) chains the whole words of k = max(tables)
    cycles as products of blocks instead, ops[src[:, j]] the product of the
    words of block j of each row (the search's block reuse), then the rest
    by the tables."""
    d, n = start.shape[-2], bits.shape[-1]
    real = tables[1].dtype.kind == "f"
    if real:
        start = np.concatenate((start.real, start.imag), axis=-2)
    if blocks is not None:
        ops, src = blocks
        start = chain(ops, src, start)
        bits = bits[..., n - n % max(tables):]
    m = chain_bits(tables, bits, start)
    if real:
        m = m[..., :d, :] + 1j * m[..., d:, :]
    return m * _frame_phases(system, n)[rows][:, None]


def evolve_projected(
    cycles: CycleUnitarySet, schedule: PulseSchedule
) -> EvolutionResult:
    """Evolve with the learning projector applied every cycle.

    Projecting each cycle and truncating commute (the projector sandwich
    telescopes), so this is a product of learning-block cycle matrices.
    """
    system = cycles.system
    _check_schedule(system, schedule)
    learn = system.learn_indices
    stack, start, states = _plan(cycles, learn, learn)
    tables = _tables(stack, start, schedule)
    return EvolutionResult(_evolve(system, tables, schedule.bits, start, states))


def evolve_full(
    cycles: CycleUnitarySet, schedule: PulseSchedule, columns=None
) -> np.ndarray:
    """Unprojected rest-frame evolution on the full simulation space.

    The columns of the start states ``columns`` (full-space indices; None
    means every state, so the whole unitary), shape (dim_sim, len(columns)),
    chained on the states they reach (``system.reach``); the rows outside
    the reach are exact zeros.  ValueError if a column is not a state.
    """
    system = cycles.system
    _check_schedule(system, schedule)
    space = np.arange(system.dim_sim)
    stack, start, states = _plan(cycles, space, space if columns is None else columns)
    out = np.zeros((system.dim_sim, start.shape[1]), dtype=complex)
    tables = _tables(stack, start, schedule)
    out[states] = _evolve(system, tables, schedule.bits, start, states)
    return out


# -- continuous-pulse reference -----------------------------------------------

# Gauss-Legendre nodes/weights of the two-exponential commutator-free scheme.
_CF4_NODE = np.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 + np.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 - np.sqrt(3.0) / 6.0
_PULSE_CUTOFF_SIGMAS = 8.0
# Max-abs change allowed when the substep count is doubled.
_CONVERGENCE_TOL = 1e-6
_CF4_MAX_EXPONENTIALS = 10**7  # per reference_integrate call, both runs
# Most clock cycles of a gate: 8 us at the default 8 ps clock, 200 times the
# paper's 40 ns gates.  A search holds its population's bits, so far longer
# schedules run out of memory instead of running.
_MAX_CYCLES = 10**6

# exp(-i C), C = s A / 2^j real symmetric, as cos C - i sin C by their Taylor
# series through C^12.  The first term dropped is C^13 / 13!, so with
# ||C||_1 <= theta (the 1-norm bounds the 2-norm of a symmetric matrix) it is
# below 2^-53 once theta^13 / 13! = 2^-53: theta = (13! 2^-53)^(1/13) = 0.336.
# Each later term is smaller again by a factor ||C|| / 14 or less.
_EXPM_THETA = (math.factorial(13) * 2.0**-53) ** (1 / 13)
_COS = [(-1) ** k / math.factorial(2 * k) for k in range(7)]  # of C^2k
_SIN = [(-1) ** k / math.factorial(2 * k + 1) for k in range(6)]  # of C^(2k+1)
# In x = C^2: cos C = B0 + x^3 B1 and -sin C = C (S0 + x^3 S1), the blocks
# B0, B1, S0, S1 (rows) of x, x^2, x^3 (columns) plus _UNITS times the identity.
_BLOCKS = np.array([[_COS[1], _COS[2], 0.0], _COS[4:7],
                    [-_SIN[1], -_SIN[2], 0.0], [-_SIN[4], -_SIN[5], 0.0]])
_UNITS = np.array([_COS[0], _COS[3], -_SIN[0], -_SIN[3]])


def _expm_sym(a: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i scale a) for real symmetric a: one matrix (d, d), or a stack
    (..., d, d) each of whose exponentials equals its matrix's own call bit
    for bit.  Each c = scale a / 2^j, j the fewest halvings to ||c||_1 <=
    ``_EXPM_THETA``, takes cos c and sin c from their series by
    Paterson-Stockmeyer in x = c^2 (six real products: x, x^2, x^3, x^3 B1,
    x^3 S1 and c (S0 + x^3 S1)), forms cos c - i sin c and squares it j
    times.  Besides a it holds at most eight real (d, d) arrays per matrix
    at once, its result included.  ValueError if a has a nan or inf entry."""
    shape, d = a.shape, a.shape[-1]
    a = a.reshape(-1, d, d)
    n = len(a)
    norm = abs(scale) * np.abs(a).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(norm)):
        raise ValueError("cannot exponentiate a matrix with a nan or inf entry")
    halvings = np.maximum(np.frexp(norm / _EXPM_THETA)[1], 0)
    c = a * np.ldexp(float(scale), -halvings)[:, None, None]
    powers = np.empty((n, 3, d, d))
    x = np.matmul(c, c, out=powers[:, 0])
    np.matmul(x, x, out=powers[:, 1])
    np.matmul(powers[:, 1], x, out=powers[:, 2])
    blocks = (_BLOCKS @ powers.reshape(n, 3, d * d)).reshape(n, 4, d, d)
    blocks.reshape(n, 4, d * d)[..., :: d + 1] += _UNITS[:, None]  # diagonals
    # x^3 B1 and x^3 S1 go where x^2 and x were
    np.matmul(powers[:, 2], blocks[:, 1], out=powers[:, 1])
    np.matmul(powers[:, 2], blocks[:, 3], out=powers[:, 0])
    cos, msin = blocks[:, 0], blocks[:, 1]  # cos c, -sin c
    cos += powers[:, 1]
    blocks[:, 2] += powers[:, 0]
    np.matmul(c, blocks[:, 2], out=msin)
    del c, x, powers
    out = np.empty((n, d, d), complex)
    out.real, out.imag = cos, msin
    del cos, msin, blocks
    for k in range(1, halvings.max(initial=0) + 1):
        square = out[halvings >= k]
        out[halvings >= k] = square @ square
    return out.reshape(shape)


def reference_integrate(
    system: CoupledSystem,
    schedule: PulseSchedule,
    pulse_width: float = 0.25e-12,
    substeps_per_cycle: int = 64,
) -> np.ndarray:
    """Integrate the same schedule with finite-width Gaussian pulses.

    Each fired bit becomes a unit-area Gaussian of width ``pulse_width``
    centered at its cycle start (the cycle-0 pulse is shifted five widths in
    so its support stays inside the run), cut off eight widths either side.
    The propagator is built with a commutator-free fourth-order Magnus
    scheme over each active segment (overlapping pulse windows merged), and
    each distinct segment is integrated once: pulses narrower than a cycle
    give windows that repeat, so the cost follows the distinct sets of
    channels fired, not the cycle count.  A window centred on its cycle
    start (every cycle but cycle 0, unless cut at the end) is symmetric in
    time, so its second half reuses its first half's exponentials.  Wide
    pulses whose windows overlap fall back to one long segment.  Stretches
    with no pulse take one static propagator per distinct length.  The
    whole integration is repeated at double resolution and the two results
    must agree to ``_CONVERGENCE_TOL`` (max-abs), else ConvergenceError.
    ValueError, before integrating, if substeps_per_cycle is outside
    8 .. 2^60 // (num_cycles + 4); if pulse_width is not in (0, T / 4], T
    the clock period, or is so narrow that its sixteen-width window is
    shorter than one substep T / substeps_per_cycle (both runs could step
    over every pulse and agree on a propagator with none); or if both runs
    together take over ``_CF4_MAX_EXPONENTIALS`` exponentials (2 per
    segment substep, 1 per substep of a mirrored one: ``_mirrored``).  Each
    run is planned once, for the budget and the integration alike.

    Returns the rest-frame unitary at the final time, like evolve_full.
    """
    _check_schedule(system, schedule)
    # A substep index of the doubled run, window reach included, stays under
    # 2 * (num_cycles + 4) * substeps_per_cycle <= 2^61: inside int64.
    most = 2**60 // (schedule.num_cycles + 4)
    if not 8 <= substeps_per_cycle <= most:
        raise ValueError(f"substeps_per_cycle must be between 8 and {most} "
                         "(2^60 // (cycles + 4))")
    if not 0 < pulse_width <= 0.25 * system.clock_period:  # NaN fails too
        raise ValueError("pulse_width must be positive and well under a cycle")
    narrowest = system.clock_period / substeps_per_cycle / (2 * _PULSE_CUTOFF_SIGMAS)
    if pulse_width < narrowest:
        raise ValueError(
            f"pulse_width must be at least {narrowest:.3g} s, so that its "
            f"{2 * _PULSE_CUTOFF_SIGMAS:g}-width window spans a substep; "
            "raise substeps_per_cycle")
    plans = {n: _cf4_plan(system, schedule, pulse_width, n)
             for n in (substeps_per_cycle, 2 * substeps_per_cycle)}
    work = sum(key[0] * (1 if _mirrored(key, system.dim_sim) else 2)
               for plan in plans.values() for key in set(plan[0]))
    if work > _CF4_MAX_EXPONENTIALS:
        raise ValueError(
            f"the reference needs {work:.2e} matrix exponentials (over "
            f"{_CF4_MAX_EXPONENTIALS:.0e}); use fewer substeps or narrower pulses")

    coarse, fine = (_cf4_run(system, schedule, pulse_width, n, plan)
                    for n, plan in plans.items())
    diff = float(np.max(np.abs(fine - coarse)))
    if diff > _CONVERGENCE_TOL:
        raise ConvergenceError(
            f"substep doubling moved the propagator by {diff:.3e} "
            f"(> {_CONVERGENCE_TOL:.1e}); raise substeps_per_cycle"
        )
    return _frame_phases(system, schedule.num_cycles)[:, None] * fine


def _cf4_plan(
    system: CoupledSystem, schedule: PulseSchedule, pulse_width: float, substeps: int
) -> tuple[list[tuple], list[int], list[int], float, int]:
    """Active segments of a CF4 run: (keys, starts, ends, substep, n_steps).

    A pulse's window is placed in whole substeps counted from its cycle
    start, so every cycle rounds it alike.  A segment's product depends only
    on its key: its length and, per pulse, (channel, substep offset from the
    segment start, shift), where shift is 5 widths in cycle 0 and 0 after.
    """
    h = system.clock_period / substeps
    n_steps = schedule.num_cycles * substeps
    reach = _PULSE_CUTOFF_SIGMAS * pulse_width
    channel, cycle = np.nonzero(schedule.bits)
    step = cycle.astype(np.int64) * substeps
    shift = np.where(cycle == 0, 5.0 * pulse_width, 0.0)
    lo = np.maximum(step + np.floor((shift - reach) / h).astype(np.int64), 0)
    hi = np.minimum(step + np.ceil((shift + reach) / h).astype(np.int64), n_steps)
    # Windows in order of their start (cycle 0's shift can put it after
    # cycle 1's).  A window opens a segment when it starts at or after every
    # earlier window's end; the first always does, as lo >= 0.
    order = np.lexsort((channel, shift, step, lo))
    lo, hi, channel, step, shift = (a[order] for a in (lo, hi, channel, step, shift))
    first = np.flatnonzero(lo >= np.r_[0, np.maximum.accumulate(hi)[:-1]])
    seg_lo, seg_hi = lo[first].tolist(), np.maximum.reduceat(hi, first).tolist()
    bounds = np.r_[first, lo.size].tolist()
    channel, step, shift = channel.tolist(), step.tolist(), shift.tolist()
    keys = [
        (b - a, tuple(zip(channel[i:j], [s - a for s in step[i:j]], shift[i:j])))
        for a, b, i, j in zip(seg_lo, seg_hi, bounds, bounds[1:])
    ]
    return keys, seg_lo, seg_hi, h, n_steps


def _cf4_run(
    system: CoupledSystem, schedule: PulseSchedule, pulse_width: float, substeps: int,
    plan: tuple | None = None,
) -> np.ndarray:
    """Lab-frame CF4 propagator: the plan's static stretches and active
    segments in turn, each distinct stretch length and segment key formed
    once and held only until its last use.  plan is the run's ``_cf4_plan``,
    made here if not given."""
    if plan is None:
        plan = _cf4_plan(system, schedule, pulse_width, substeps)
    keys, seg_lo, seg_hi, h, n_steps = plan
    # the run in time order: a stretch of n substeps with no pulse is the
    # int n, a segment its key
    pieces, pos = [], 0
    for key, a, b in zip(keys, seg_lo, seg_hi):
        pieces += [a - pos, key]
        pos = b
    pieces = [p for p in pieces + [n_steps - pos] if p != 0]
    last_use = {p: k for k, p in enumerate(pieces)}
    eig = np.linalg.eigh(system.h_static)
    gens = np.stack([kick_generator(system, c) for c in system.channels])
    u = np.eye(system.dim_sim, dtype=complex)
    held: dict = {}
    for k, piece in enumerate(pieces):
        op = held.pop(piece, None)
        if op is None:
            op = (_static_propagator(eig, piece * h) if isinstance(piece, int)
                  else _cf4_segment(system.h_static, gens, piece, h, pulse_width))
        if last_use[piece] > k:
            held[piece] = op
        u = op @ u
    return u


def _static_propagator(eig: tuple, t: float) -> np.ndarray:
    """exp(-i h_static t) from the eigendecomposition eig = (w, v) of h_static."""
    w, v = eig
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _mirrored(key: tuple, dim: int) -> bool:
    """Whether ``_cf4_segment`` integrates a segment by its first half: the
    segment is centred (every pulse at shift 0 and offset length / 2, so its
    Hamiltonian is symmetric in time) and that half's pair products, held
    for the second half, fit in ``_TABLE_BYTES`` on dim states."""
    length, pulses = key
    return (all(2 * offset == length and shift == 0.0 for _, offset, shift in pulses)
            and 16 * (length // 2) * dim * dim <= _TABLE_BYTES)


# Real dim x dim arrays one substep of a ``_cf4_segment`` chunk holds at
# most at once: its pair's Hamiltonians (2) and ``_expm_sym``'s arrays for
# the pair (2 x 8, the exponentials included); after that the exponentials
# (4) and one or two products (2 each).
_SUBSTEP_ARRAYS = 18


def _cf4_segment(
    h_static: np.ndarray,
    gens: np.ndarray,
    key: tuple,
    h: float,
    pulse_width: float,
) -> np.ndarray:
    """CF4 product over one active segment, times local to its start.

    Substep j applies exp(-i h first_j), then exp(-i h second_j), the two
    Gauss-Legendre mixes of its Hamiltonian.  The (first, second) pairs are
    built and exponentiated as stacks (``_expm_sym``), a chunk of at most
    ``_CHUNK_BYTES`` of working arrays (``_SUBSTEP_ARRAYS`` a substep) at a
    time; each pair is multiplied to its substep's product as one stack, and
    the products are chained in substep order.  A mirrored segment
    (``_mirrored``) exponentiates its first half only: substep length - 1 - j
    is substep j's pair multiplied in swapped order, first @ second.
    """
    length, pulses = key
    dim = len(h_static)
    mirrored = _mirrored(key, dim)
    steps = length // 2 if mirrored else length
    channel, offset, shift = (np.array(a) for a in zip(*pulses))
    onehot = np.eye(len(gens))[channel]  # (pulses, channels)
    nodes = np.array([0.5 - _CF4_NODE, 0.5 + _CF4_NODE])[:, None]
    reach = _PULSE_CUTOFF_SIGMAS * pulse_width
    norm = 1.0 / (pulse_width * np.sqrt(2.0 * np.pi))
    chunk = max(1, _CHUNK_BYTES // (8 * (_SUBSTEP_ARRAYS * dim * dim + 4 * len(pulses))))
    ops = np.concatenate([h_static[None], gens])
    u = np.eye(dim, dtype=complex)
    held = []
    for lo in range(0, steps, chunk):
        j = np.arange(lo, min(lo + chunk, steps))[:, None, None]
        x = ((j - offset) + nodes) * h - shift  # (substeps, 2 nodes, pulses)
        amp = np.where(np.abs(x) <= reach, np.exp(-0.5 * (x / pulse_width) ** 2), 0.0)
        a1, a2 = np.swapaxes(norm * amp @ onehot, 0, 1)  # (substeps, channels)
        # the pair mixes the nodes' Hamiltonians, so it mixes their amplitudes
        mix = np.empty((len(a1), 2, len(ops)))
        mix[..., 0] = _CF4_W1 + _CF4_W2
        mix[:, 0, 1:] = _CF4_W1 * a1 + _CF4_W2 * a2  # earlier-node heavy, first
        mix[:, 1, 1:] = _CF4_W2 * a1 + _CF4_W1 * a2
        exps = _expm_sym(np.tensordot(mix, ops, 1), h)
        first, second = exps[:, 0], exps[:, 1]
        if mirrored:
            held.append(first @ second)
        for step in second @ first:
            u = step @ u
        del exps, first, second, step  # room for the next chunk's arrays
    # the node times of substeps j and length - 1 - j are mirror images in
    # floating point too, so the swapped pair is the one the loop would form
    for products in reversed(held):
        for step in products[::-1]:
            u = step @ u
    return u


# -- bitstream exchange files --------------------------------------------------

def write_bitstreams(
    path, schedule: PulseSchedule, channel_keys: list[str], clock_ps: float
) -> None:
    """Write the one-file-per-gate exchange format.

    One header + one bit row per channel:
        # channel=<qubit>:<axis> cycles=<N> clock_ps=<float>
        010110...
    ValueError, before the file is opened, for what read_bitstreams would
    misread or refuse: a key count other than one per row, a key that is
    empty, repeated or not printable ASCII without whitespace, a clock that
    is not finite and positive, or no cycles.
    """
    if len(channel_keys) != schedule.num_channels:
        raise ValueError("one channel key per schedule row required")
    for key in channel_keys:
        if not re.fullmatch(r"[!-~]+", key):
            raise ValueError(f"channel key {key!r} must be printable ASCII "
                             "without whitespace")
    if len(set(channel_keys)) != len(channel_keys):
        raise ValueError("duplicate channel keys")
    clock = float(clock_ps)
    if not (np.isfinite(clock) and clock > 0):
        raise ValueError("clock_ps must be a positive number")
    if schedule.num_cycles == 0:
        raise ValueError("schedule has no cycles")
    lines = []
    for key, row in zip(channel_keys, schedule.bitstrings()):
        lines.append(
            f"# channel={key} cycles={schedule.num_cycles} clock_ps={clock!r}"
        )
        lines.append(row)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_bitstreams(path) -> tuple[PulseSchedule, list[str], float]:
    """Parse the exchange format back; returns (schedule, keys, clock_ps).

    OSError if the file cannot be opened; any malformed content raises
    BitstreamFormatError.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            raw = [ln.rstrip("\n") for ln in fh if ln.strip()]
        except UnicodeDecodeError as exc:
            raise BitstreamFormatError(f"file is not ASCII text: {exc}") from exc
    keys: list[str] = []
    rows: list[str] = []
    clocks: set[float] = set()
    for i in range(0, len(raw), 2):
        header = raw[i]
        if not header.startswith("# "):
            raise BitstreamFormatError(f"expected channel header, got {header!r}")
        fields = dict(
            part.split("=", 1) for part in header[2:].split() if "=" in part
        )
        try:
            key = fields["channel"]
            cycles = int(fields["cycles"])
            clock = float(fields["clock_ps"])
        except (KeyError, ValueError) as exc:
            raise BitstreamFormatError(f"bad header {header!r}: {exc}") from exc
        if not np.isfinite(clock) or clock <= 0:
            raise BitstreamFormatError(f"channel {key}: clock_ps must be a positive number")
        if i + 1 >= len(raw):
            raise BitstreamFormatError(f"missing bit row for channel {key}")
        row = raw[i + 1].strip()
        if len(row) != cycles:
            raise BitstreamFormatError(
                f"channel {key}: header says {cycles} cycles, row has {len(row)}"
            )
        keys.append(key)
        rows.append(row)
        clocks.add(clock)
    if not keys:
        raise BitstreamFormatError("no channels in file")
    if len(set(keys)) != len(keys):
        raise BitstreamFormatError("duplicate channel keys")
    if len(clocks) != 1:
        raise BitstreamFormatError("inconsistent clock_ps across channels")
    try:
        schedule = PulseSchedule.from_bitstrings(rows)
    except ValueError as exc:
        raise BitstreamFormatError(f"bad bit rows: {exc}") from exc
    return schedule, keys, clocks.pop()
