"""Gate quality metrics on the computational block.

All metrics start from the evolution operator truncated to the learning
subspace (rest frame).  F1 is the standard average gate fidelity of the
computational block against the target; F2 relaxes it by maximizing over a
virtual Z rotation per qubit applied after the gate, which hardware gets for
free.  Leakage is population escaping the computational block under the full
(unprojected) evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .system import CoupledSystem, GateTarget

__all__ = [
    "FidelityBreakdown",
    "avg_fidelity_f1",
    "rz_fidelity_f2",
    "avg_leakage",
    "agreement_f1",
    "gate_breakdown",
    "projected_breakdown",
]


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
    gate reproduces f2 as a plain F1.  The inner phase is eliminated in
    closed form (sup over a unit phase of |a + b y| is |a| + |b|); the outer
    one is maximized on a coarse grid refined by golden-section steps.
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


def _f2_batch(a: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched F2 over blocks a (B, d, d), d in (2, 4), and its Z angles.

    For one qubit the supremum is closed-form.  For two, with
    D = diag(1, y, x, xy), tr(T^dag D A) = (w0 + w1 y) + x (w2 + w3 y);
    the sup over |x| = 1 is g(y) = |w0 + w1 y| + |w2 + w3 y|, maximized
    over y = e^{i theta} numerically.
    """
    d = target.shape[0]
    gamma = np.sum(np.abs(a) ** 2, axis=(1, 2))
    w = _row_overlaps(a, target)
    if d == 2:
        g = np.abs(w[:, 0]) + np.abs(w[:, 1])
        angles = [np.angle(w[:, 0]) - np.angle(w[:, 1])]
    else:
        def g_of(theta: np.ndarray) -> np.ndarray:
            # theta: (B, K) angles of y per batch element
            y = np.exp(1j * theta)
            return np.abs(w[:, 0, None] + w[:, 1, None] * y) + np.abs(
                w[:, 2, None] + w[:, 3, None] * y
            )

        grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        vals = g_of(np.broadcast_to(grid, (a.shape[0], grid.size)))
        j = np.argmax(vals, axis=1)
        step = grid[1] - grid[0]
        theta1 = _golden_max(g_of, grid[j] - step, grid[j] + step)
        g = g_of(theta1[:, None])[:, 0]
        y = np.exp(1j * theta1)
        theta0 = np.angle(w[:, 0] + w[:, 1] * y) - np.angle(w[:, 2] + w[:, 3] * y)
        angles = [theta0, theta1]
    return (gamma + g**2) / (d * (d + 1)), np.stack(angles, axis=1)


def _golden_max(f, lo: np.ndarray, hi: np.ndarray, iters: int = 48) -> np.ndarray:
    """Vectorized golden-section maximization on per-element brackets."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    for _ in range(iters):
        span = b - a
        c = b - gr * span
        d = a + gr * span
        both = np.stack([c, d], axis=1)
        fc_fd = f(both)
        take_right = fc_fd[:, 0] < fc_fd[:, 1]
        a = np.where(take_right, c, a)
        b = np.where(take_right, b, d)
    return 0.5 * (a + b)


def avg_leakage(u_full: np.ndarray, system: CoupledSystem) -> float:
    """Average population leaving the computational block.

    1 - tr(P U P U^dag P) / 2^q for the diagonal projector P onto the
    computational indices of the full simulation space; u_full must be the
    unprojected evolution.
    """
    dim = system.dim_sim
    if u_full.shape != (dim, dim):
        raise ValueError(
            f"u_full must be {dim}x{dim} for n_sim_levels={system.n_sim_levels}"
        )
    idx = system.learn_indices[system.comp_indices]
    block = u_full[np.ix_(idx, idx)]
    return 1.0 - float(np.sum(np.abs(block) ** 2)) / system.dim_comp


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

    leakage is None when only the learning-space evolution was computed.
    The chain f1 <= f2 <= 1 - leakage holds when all three come from one
    full-space evolution; cross-truncation comparisons (the whole point of
    re-simulating with more levels) break it by design, so it is not
    enforced here.
    """

    f1: float
    f2: float
    norm_loss: float
    z_angles: tuple[float, ...]
    leakage: float | None = None

    def value(self, metric: str) -> float:
        if metric == "f1":
            return self.f1
        if metric == "f2":
            return self.f2
        raise ValueError(f"unknown metric {metric!r}")


def gate_breakdown(
    u_full: np.ndarray, system: CoupledSystem, target: GateTarget
) -> FidelityBreakdown:
    """All metrics from one full-space evolution (consistent truncations)."""
    learn = system.learn_indices
    m = u_full[np.ix_(learn, learn)]
    norm_loss = 1.0 - float(np.sum(np.abs(m) ** 2)) / system.dim_learn
    return replace(
        projected_breakdown(m, norm_loss, system, target),
        leakage=avg_leakage(u_full, system),
    )


def projected_breakdown(
    matrix: np.ndarray, norm_loss: float, system: CoupledSystem, target: GateTarget
) -> FidelityBreakdown:
    """Metrics of a learning-space (projected) evolution; no leakage."""
    d = system.dim_learn
    if matrix.shape != (d, d):
        raise ValueError(f"matrix must be {d}x{d} (learning space), got {matrix.shape}")
    comp = system.comp_indices
    block = matrix[np.ix_(comp, comp)]
    f2, angles = rz_fidelity_f2(block, target)
    return FidelityBreakdown(
        f1=avg_fidelity_f1(block, target),
        f2=f2,
        norm_loss=norm_loss,
        z_angles=angles,
        leakage=None,
    )
