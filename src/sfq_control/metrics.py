"""Gate quality metrics on the computational block.

All metrics start from the evolution operator truncated to the learning
subspace (rest frame).  F1 is the standard average gate fidelity of the
computational block against the target; F2 relaxes it by maximizing over a
virtual Z rotation per qubit applied after the gate, which hardware gets for
free.  Leakage is population escaping the computational block under the full
(unprojected) evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import CoupledSystem, GateTarget

__all__ = [
    "METRICS",
    "FidelityBreakdown",
    "avg_fidelity_f1",
    "rz_fidelity_f2",
    "avg_leakage",
    "agreement_f1",
    "gate_breakdown",
]

METRICS = ("f1", "f2")  # the fitness a search can optimize


def _lost(block: np.ndarray) -> float:
    """Average population the columns of a block shed:
    1 - ||block||_F^2 / number of columns."""
    return 1.0 - float(np.sum(np.abs(block) ** 2)) / block.shape[1]


def _check_block(block: np.ndarray, target: GateTarget) -> np.ndarray:
    a = np.asarray(block, dtype=complex)
    d = target.matrix.shape[0]
    if a.shape != (d, d):
        raise ValueError(
            f"computational block must be {d}x{d} for target {target.name}, "
            f"got {a.shape}"
        )
    return a


def avg_fidelity_f1(block: np.ndarray, target: GateTarget) -> float:
    """Average gate fidelity of the computational block A vs the target.

    (||A||_F^2 + |tr(T^dag A)|^2) / (d^2 + d); insensitive to global phase,
    equals 1 iff A == e^{i phi} T.
    """
    return float(_f1_batch(_check_block(block, target)[None], target.matrix)[0])


def rz_fidelity_f2(
    block: np.ndarray, target: GateTarget
) -> tuple[float, tuple[float, ...]]:
    """F1 maximized over a trailing virtual Z per qubit.

    Returns (f2, z_angles); applying diag phases exp(i k . angles) after the
    gate reproduces f2 as a plain F1.  For two qubits the outer angle is found
    on a grid, then by Newton steps; one closed-form tail gives the inner one.
    """
    a = _check_block(block, target)[None, :, :]
    f2, angles = _f2_batch(a, target.matrix)
    return float(f2[0]), tuple(float(x) for x in angles[0])


def _row_overlaps(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """w[b, k] = sum_m conj(T[k, m]) A[b, k, m]; tr(T^dag D A) = sum d_k w_k."""
    return np.einsum("km,bkm->bk", np.conj(target), a)


def _f1_batch(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The one F1 formula, on blocks a (B, d, d)."""
    d = target.shape[0]
    gamma = np.sum(np.abs(a) ** 2, axis=(1, 2))
    tr = _row_overlaps(a, target).sum(axis=1)
    return (gamma + np.abs(tr) ** 2) / (d * (d + 1))


_GRID = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)  # outer angles of _f2_batch
_GRID_PHASES = np.exp(1j * _GRID)


def _f2_batch(a: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched F2 over blocks a (B, d, d), d in (2, 4), and its Z angles.

    For two qubits, with D = diag(1, y, x, xy), tr(T^dag D A) = p + x q for
    p = w0 + w1 y, q = w2 + w3 y; theta = arg y maximizes g = |p| + |q| on a
    grid, then by 8 Newton steps: per term t = c0 + c1 y, with s = conj(t) t'
    and r = Im(s) / |t|, |t|' = Re(s) / |t| and |t|'' = r^2 / |t| - r (0 where
    t = 0); no step where g'' is not negative or is NaN, none longer than a
    grid spacing.  For one qubit (p, q) = (w0, w1).  One closed-form tail
    ends both: sup over |x| = 1 of |p + x q| is |p| + |q|, at arg p - arg q.
    """
    d = target.shape[0]
    gamma = np.sum(np.abs(a) ** 2, axis=(1, 2))
    w = _row_overlaps(a, target)
    p, q, angles = w[:, 0], w[:, 1], []
    if d == 4:
        c0, c1 = w[:, 0::2], w[:, 1::2]  # columns p and q: c0 + c1 y
        grid_g = np.abs(c0[..., None] + c1[..., None] * _GRID_PHASES).sum(axis=1)
        theta = _GRID[np.argmax(grid_g, axis=1)]
        for _ in range(8):
            y = np.exp(1j * theta)[:, None]
            t = c0 + c1 * y
            inv = np.divide(1.0, np.abs(t), out=np.zeros(t.shape), where=t != 0)
            s = np.conj(t) * 1j * c1 * y
            r = s.imag * inv
            g1, g2 = (s.real * inv).sum(axis=1), (r * (r * inv - 1.0)).sum(axis=1)
            step = np.divide(g1, -g2, out=np.zeros(len(w)), where=g2 < 0)
            theta = theta + np.clip(step, -_GRID[1], _GRID[1])
        p, q = (c0 + c1 * np.exp(1j * theta)[:, None]).T
        angles.append(theta)
    g = np.abs(p) + np.abs(q)
    angles.insert(0, np.angle(p) - np.angle(q))
    return (gamma + g**2) / (d * (d + 1)), np.stack(angles, axis=1)


def _check_columns(u: np.ndarray, system: CoupledSystem) -> np.ndarray:
    """The computational columns (dim_sim, 2^q) of a full-space evolution;
    ValueError for any other shape."""
    shape = (system.dim_sim, len(system.comp_sim_indices))
    if u.shape != shape:
        raise ValueError(
            f"evolution must be the {shape[0]}x{shape[1]} computational columns "
            f"for n_sim_levels={system.n_sim_levels}, got {u.shape}"
        )
    return u


def avg_leakage(u_full: np.ndarray, system: CoupledSystem) -> float:
    """Average population leaving the computational block.

    1 - tr(P U P U^dag P) / 2^q for the diagonal projector P onto the
    computational indices of the full simulation space; u_full is the
    computational columns of the unprojected evolution, as
    ``evolve_full(cycles, schedule, system.comp_sim_indices)`` gives them.
    """
    return _lost(_check_columns(u_full, system)[system.comp_sim_indices])


def agreement_f1(a_block: np.ndarray, b_block: np.ndarray) -> float:
    """F1-style agreement between two evolutions on a common block.

    Uses P = A^dag B: (||P||_F^2 + |tr P|^2) / (d^2 + d), which is 1 iff the
    blocks are equal and unitary; tolerant of a shared global phase.
    """
    if a_block.shape != b_block.shape or a_block.shape[0] != a_block.shape[1]:
        raise ValueError("blocks must be square and congruent")
    p = a_block.conj().T @ b_block
    return float(_f1_batch(p[None], np.eye(len(p)))[0])


@dataclass(frozen=True)
class FidelityBreakdown:
    """Everything a run reports about one evolution.

    A learning-space breakdown (the search's score, ``evaluate_fitness``)
    has norm_loss, the average population the computational columns lose
    from the learning subspace, and leakage None; a full-space one
    (``gate_breakdown``) has leakage and norm_loss None.  The chain
    f1 <= f2 <= 1 - leakage holds when all three come from one full-space
    evolution; cross-truncation comparisons (the whole point of
    re-simulating with more levels) break it by design, so it is not
    enforced here.
    """

    f1: float
    f2: float
    norm_loss: float | None
    z_angles: tuple[float, ...]
    leakage: float | None = None

    def value(self, metric: str) -> float:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def gate_breakdown(
    u_full: np.ndarray, system: CoupledSystem, target: GateTarget
) -> FidelityBreakdown:
    """f1, f2, the Z angles and leakage of one full-space evolution
    (consistent truncations); norm_loss is None.

    u_full is the computational columns of the unprojected evolution.
    """
    cols = _check_columns(u_full, system)
    return _block_breakdown(cols[system.comp_sim_indices], target,
                            leakage=avg_leakage(cols, system))


def _block_breakdown(
    block: np.ndarray, target: GateTarget, norm_loss: float | None = None,
    leakage: float | None = None,
) -> FidelityBreakdown:
    """f1, f2 and the Z angles of the computational block, with the given
    norm_loss and leakage."""
    a = _check_block(block, target)[None]
    f2, angles = _f2_batch(a, target.matrix)
    return FidelityBreakdown(
        f1=float(_f1_batch(a, target.matrix)[0]),
        f2=float(f2[0]),
        norm_loss=norm_loss,
        z_angles=tuple(float(x) for x in angles[0]),
        leakage=leakage,
    )
