"""Time evolution under SFQ pulse trains.

The working model treats each pulse as a delta kick at the start of its clock
cycle: one cycle is ``free @ kick(mask)`` where ``mask`` says which channels
fired.  All 2^n_channels cycle unitaries are precomputed once, so evolving a
schedule is a chain of matrix products, all formed by the one kernel
``chain``.  Batched scoring chains k cycles per product from word tables
(the Four-Russians lookup: a k-cycle word indexes its precomputed product).
Results are reported in the rest frame of the uncoupled qubits, with the
frame rotation applied once at the final time.

``reference_integrate`` is the independent check on the delta-kick model: it
integrates the Schrodinger equation with finite-width Gaussian pulses using a
commutator-free fourth-order Magnus scheme and verifies its own convergence
by substep doubling.  Each distinct pulse window is integrated once: when
pulses are narrower than a cycle their windows repeat (one product per set
of channels fired), and wide pulses whose windows overlap merge into one
long segment integrated substep by substep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


def word_tables(mats: np.ndarray, k: int) -> list[np.ndarray]:
    """[T_1 = mats, T_2, T_4, ..., T_k] by squaring, k a power of two:
    T_j[w] is the product of the j cycles packed in word w, earliest
    rightmost, so T_2j[hi * len(T_j) + lo] = T_j[hi] @ T_j[lo]."""
    tables = [mats]
    while 1 << len(tables) <= k:
        t = tables[-1]
        tables.append(np.matmul(t[:, None], t[None, :]).reshape(-1, *t.shape[1:]))
    return tables


def chain(mats: np.ndarray, words: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Left-multiply m by mats[w] for each word w in turn: words (S,) chain
    one operator with 2-D products, words (B, S) a batch m (B, dim, c)."""
    if words.ndim == 1:
        for w in words:
            m = mats[w] @ m
        return m
    for s in range(words.shape[1]):
        m = np.matmul(mats[words[:, s]], m)
    return m


def chain_bits(
    tables: list[np.ndarray], bits: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Chain a batch m (B, dim, c) along bits (B, nch, N) by word tables:
    whole words of k cycles from tables[-1] (k = 2^(len(tables) - 1)), then
    the N mod k cycles left by its binary expansion, largest part first."""
    start = 0
    for j in reversed(range(len(tables))):
        size = 1 << j
        end = start + (bits.shape[-1] - start) // size * size
        if end > start:
            m = chain(tables[j], pack_words(bits[..., start:end], size), m)
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


def _real(mats: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) as real blocks [[Re, -Im], [Im, Re]]
    (..., 2d, 2d), which act on [Re; Im] columns as mats act on columns."""
    return np.block([[mats.real, -mats.imag], [mats.imag, mats.real]])


def _evolve(
    system: CoupledSystem, tables: list[np.ndarray], bits: np.ndarray, start, rows
) -> np.ndarray:
    """The one delta-kick evolution body: start chained along bits by the
    word tables (chain_bits), in the rest frame of the states rows.  Real
    tables (``_real``) chain the columns as [Re; Im] and fold them back to
    complex."""
    d = start.shape[-2]
    real = tables[0].dtype.kind == "f"
    if real:
        start = np.concatenate((start.real, start.imag), axis=-2)
    m = chain_bits(tables, bits, start)
    if real:
        m = m[..., :d, :] + 1j * m[..., d:, :]
    return m * _frame_phases(system, bits.shape[-1])[rows][:, None]


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
    return EvolutionResult(_evolve(system, [stack], schedule.bits, start, states))


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
    out[states] = _evolve(system, [stack], schedule.bits, start, states)
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
    channels fired, not the cycle count.  Wide pulses whose windows overlap
    fall back to one long segment.  Stretches with no pulse take one static
    propagator each.  The whole integration is repeated at double resolution
    and the two results must agree to ``_CONVERGENCE_TOL`` (max-abs), else
    ConvergenceError.  ValueError, before integrating, if substeps_per_cycle
    is outside 8 .. 2^60 // (num_cycles + 4) or both runs together take over
    ``_CF4_MAX_EXPONENTIALS`` exponentials (2 per segment substep).

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
    work = sum(2 * length for n in (substeps_per_cycle, 2 * substeps_per_cycle)
               for length, _ in set(_cf4_plan(system, schedule, pulse_width, n)[0]))
    if work > _CF4_MAX_EXPONENTIALS:
        raise ValueError(
            f"the reference needs {work:.2e} matrix exponentials (over "
            f"{_CF4_MAX_EXPONENTIALS:.0e}); use fewer substeps or narrower pulses")

    coarse = _cf4_run(system, schedule, pulse_width, substeps_per_cycle)
    fine = _cf4_run(system, schedule, pulse_width, 2 * substeps_per_cycle)
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
    system: CoupledSystem, schedule: PulseSchedule, pulse_width: float, substeps: int
) -> np.ndarray:
    """Lab-frame CF4 propagator; each distinct segment key is integrated once."""
    keys, seg_lo, seg_hi, h, n_steps = _cf4_plan(system, schedule, pulse_width, substeps)
    last_use = {key: k for k, key in enumerate(keys)}
    w_static, v_static = np.linalg.eigh(system.h_static)

    def free(n: int) -> np.ndarray:
        return (v_static * np.exp(-1j * w_static * (n * h))) @ v_static.conj().T

    gens = np.stack([kick_generator(system, c) for c in system.channels])
    u = np.eye(system.dim_sim, dtype=complex)
    products: dict = {}
    pos = 0
    for k, (key, a, b) in enumerate(zip(keys, seg_lo, seg_hi)):
        if a > pos:
            u = free(a - pos) @ u
        product = products.pop(key, None)
        if product is None:
            product = _cf4_segment(system.h_static, gens, key, h, pulse_width)
        if last_use[key] > k:
            products[key] = product
        u = product @ u
        pos = b
    if n_steps > pos:
        u = free(n_steps - pos) @ u
    return u


def _cf4_segment(
    h_static: np.ndarray,
    gens: np.ndarray,
    key: tuple,
    h: float,
    pulse_width: float,
) -> np.ndarray:
    """CF4 product over one active segment, times local to its start."""
    length, pulses = key
    channel, offset, shift = (np.array(a) for a in zip(*pulses))
    onehot = np.eye(len(gens))[channel]  # (pulses, channels)
    nodes = np.array([0.5 - _CF4_NODE, 0.5 + _CF4_NODE])[:, None]
    reach = _PULSE_CUTOFF_SIGMAS * pulse_width
    norm = 1.0 / (pulse_width * np.sqrt(2.0 * np.pi))
    u = np.eye(len(h_static), dtype=complex)
    for j in range(length):
        x = ((j - offset) + nodes) * h - shift  # (2 nodes, pulses)
        amp = np.where(np.abs(x) <= reach, np.exp(-0.5 * (x / pulse_width) ** 2), 0.0)
        h1, h2 = h_static + np.tensordot(norm * amp @ onehot, gens, 1)
        first = _CF4_W1 * h1 + _CF4_W2 * h2  # earlier-node heavy, applied first
        second = _CF4_W2 * h1 + _CF4_W1 * h2
        u = _expm_herm(second, h) @ (_expm_herm(first, h) @ u)
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
