"""Composite system assembly: static Hamiltonian, kick generators, targets.

Models one or two qubits, each truncated to ``n_sim_levels``, with an
excitation-conserving exchange coupling between nearest charge ladders.  Gate
search happens on the ``n_levels`` sub-ladder of each qubit; the extra
simulation levels exist to expose leakage honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .qubits import QubitLevels

__all__ = [
    "ControlChannel",
    "CoupledSystem",
    "GateTarget",
    "assemble",
    "kick_generator",
    "target_library",
]

AXES = ("x", "z")


@dataclass(frozen=True)
class ControlChannel:
    """One SFQ drive line: a pulse axis on one qubit with a fixed tip angle.

    axis 'x' kicks through the charge operator (Bloch rotation by tip_angle
    per pulse on the qubit subspace); axis 'z' advances level k by phase
    k*tip_angle per pulse.
    """

    qubit: int
    axis: str
    tip_angle: float

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if self.qubit < 0:
            raise ValueError("qubit index must be non-negative")
        if not np.isfinite(self.tip_angle) or self.tip_angle == 0.0:
            raise ValueError("tip_angle must be finite and non-zero")

    @property
    def key(self) -> str:
        return f"{self.qubit}:{self.axis}"


@dataclass(frozen=True)
class GateTarget:
    """Ideal gate on the computational (two-level) subspace."""

    name: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("target must be a square matrix")
        q = int(round(np.log2(m.shape[0])))
        if 2**q != m.shape[0] or q not in (1, 2):
            raise ValueError("target dimension must be 2 or 4")
        if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12):
            raise ValueError(f"target {self.name!r} is not unitary")
        object.__setattr__(self, "matrix", m)

    @property
    def num_qubits(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2


@dataclass(frozen=True)
class CoupledSystem:
    """One or two multi-level qubits plus drive lines on a common clock.

    Fields
    ------
    qubits: per-qubit level structures, each holding >= n_sim_levels levels.
    n_levels: ladder depth the search is allowed to learn on (>= 2).
    n_sim_levels: ladder depth actually simulated (>= n_levels).
    j_coupling: exchange strength (rad/s); the |01>-|10> matrix element is
        exactly j_coupling.  Must be 0.0 for a single qubit.
    channels: drive lines, unique per (qubit, axis).
    clock_period: SFQ clock period in seconds (one bit per channel per tick).

    qubits and channels may be any sequences; they are stored as tuples.
    """

    qubits: tuple[QubitLevels, ...]
    n_levels: int
    n_sim_levels: int
    j_coupling: float = 0.0
    channels: tuple[ControlChannel, ...] = ()
    clock_period: float = 8e-12

    # Derived, filled in __post_init__.  levels[i, q] is the level of qubit q
    # in composite state i, qubit 0 major (the np.kron order); every
    # per-state quantity is read from it.  learn_indices index the full
    # simulation space, comp_indices the learning subspace.
    levels: np.ndarray = field(init=False, repr=False, compare=False)
    h_static: np.ndarray = field(init=False, repr=False, compare=False)
    bare_energies: np.ndarray = field(init=False, repr=False, compare=False)
    learn_indices: np.ndarray = field(init=False, repr=False, compare=False)
    comp_indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "channels", tuple(self.channels))
        if not 1 <= len(self.qubits) <= 2:
            raise ValueError("system supports one or two qubits")
        if not 2 <= self.n_levels <= self.n_sim_levels:
            raise ValueError("n_levels must be at least 2 and at most n_sim_levels")
        for q in self.qubits:
            if q.n_levels < self.n_sim_levels:
                raise ValueError("qubit levels shorter than n_sim_levels")
        if len(self.qubits) == 1 and self.j_coupling != 0.0:
            raise ValueError("single-qubit system cannot be coupled")
        if self.clock_period <= 0:
            raise ValueError("clock_period must be positive")
        keys = [c.key for c in self.channels]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate control channel")
        for c in self.channels:
            if c.qubit >= len(self.qubits):
                raise ValueError(f"channel on absent qubit {c.qubit}")

        nq = self.num_qubits
        levels = np.indices((self.n_sim_levels,) * nq).reshape(nq, -1).T
        energies = np.stack([q.energies[: self.n_sim_levels] for q in self.qubits])
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            bare = energies[np.arange(nq), levels].sum(axis=1)
            h = np.diag(bare)
            if self.j_coupling != 0.0:  # two qubits, checked above
                low0, low1 = self._lowering_unit(0), self._lowering_unit(1)
                h += self.j_coupling * (np.kron(low0, low1.T) + np.kron(low0.T, low1))
            # bounds on every eigenvalue of h and of any sum of kick generators
            h_bound = _row_norm(h)
            kick_bound = sum(_row_norm(kick_generator(self, c)) for c in self.channels)
        if not np.isfinite(h_bound):
            raise ValueError("the static Hamiltonian overflows; "
                             "the coupling or the level energies are too large")
        if not np.isfinite(kick_bound):
            raise ValueError("the kick generators overflow; the tip angles are too large")
        learn = np.flatnonzero(np.all(levels < self.n_levels, axis=1))
        # computational states, indexed within the learning subspace
        comp = np.flatnonzero(np.all(levels[learn] < 2, axis=1))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "h_static", h)
        object.__setattr__(self, "bare_energies", bare)
        object.__setattr__(self, "learn_indices", learn)
        object.__setattr__(self, "comp_indices", comp)

    # -- dimensions -------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def dim_sim(self) -> int:
        return self.n_sim_levels**self.num_qubits

    @property
    def dim_learn(self) -> int:
        return self.n_levels**self.num_qubits

    @property
    def comp_sim_indices(self) -> np.ndarray:
        """Computational states, indexed in the full simulation space."""
        return self.learn_indices[self.comp_indices]

    def reach(self, columns) -> np.ndarray:
        """The states (sorted) that evolutions from the start states columns
        can populate, both full-space indices.  The exchange conserves total
        excitation and a z kick is a number-operator phase, so under z
        channels only a column stays in its excitation sector, an invariant
        subspace; an x kick changes excitation by one, so it reaches every
        state."""
        if any(c.axis == "x" for c in self.channels):
            return np.arange(self.dim_sim)
        excitation = self.levels.sum(axis=1)
        return np.flatnonzero(np.isin(excitation, excitation[columns]))

    # -- construction helpers ---------------------------------------------
    def _charge(self, q: int) -> np.ndarray:
        return self.qubits[q].charge[: self.n_sim_levels - 1]

    def _lowering_unit(self, q: int) -> np.ndarray:
        """Lowering ladder with the 0-1 element normalized to 1."""
        c = self._charge(q)
        return np.diag(c / c[0], 1)

    def charge_operator(self, q: int) -> np.ndarray:
        """Single-qubit charge matrix N (tridiagonal, c[0] = 1/2)."""
        return np.diag(self._charge(q), 1) + np.diag(self._charge(q), -1)

    def _embed(self, op: np.ndarray, q: int) -> np.ndarray:
        eye = np.eye(self.n_sim_levels)
        return reduce(np.kron, [op if p == q else eye for p in range(self.num_qubits)])


assemble = CoupledSystem  # the library's name for the validated constructor


def _row_norm(op: np.ndarray) -> float:
    """Largest absolute row sum of op, which bounds its eigenvalues."""
    return float(np.abs(op).sum(axis=1).max())


# -- kicks ------------------------------------------------------------------

def _expm_herm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-1j * scale * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def kick_generator(system: CoupledSystem, channel: ControlChannel) -> np.ndarray:
    """Hermitian generator of one pulse on one channel, full composite space.

    x: tip_angle * N_q (charge ladder, c[0] = 1/2), so a single pulse rotates
       the qubit subspace by tip_angle about x.
    z: tip_angle * diag(0, 1, ..., n_sim-1) on that qubit.
    """
    if channel.axis == "x":
        op = system.charge_operator(channel.qubit)
    else:
        op = np.diag(np.arange(system.n_sim_levels, dtype=float))
    return channel.tip_angle * system._embed(op, channel.qubit)


# -- gate targets -------------------------------------------------------------

def target_library() -> dict[str, GateTarget]:
    """Named computational-subspace gates accepted in configs."""
    s2 = 1.0 / np.sqrt(2.0)
    one = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
        "H": s2 * np.array([[1, 1], [1, -1]]),
        "RX90": s2 * np.array([[1, -1j], [-1j, 1]]),
        "RY90": s2 * np.array([[1, -1], [1, 1]]),
    }
    two = {
        "II": np.eye(4),
        "CZ": np.diag([1, 1, 1, -1]),
        "CNOT": np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        ),
        "ISWAP": np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]
        ),
        "SWAP": np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        ),
    }
    lib = {}
    for name, m in {**one, **two}.items():
        lib[name] = GateTarget(name=name, matrix=np.asarray(m, dtype=complex))
    return lib


def lookup_target(name: str) -> GateTarget:
    lib = target_library()
    key = name.strip().upper()
    if key not in lib:
        known = ", ".join(sorted(lib))
        raise KeyError(f"unknown gate target {name!r}; known: {known}")
    return lib[key]
