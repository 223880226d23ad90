"""Correctness gate, run before anything is timed.

The harness builds its own stepwise product from the public system data
(`h_static`, `kick_generator`, `bare_energies`) with numpy `eigh`, and checks
against it, to TOLERANCE in max-abs:

* `propagate.evolve_full` on the full simulation space (rest frame);
* `propagate.evolve_projected` on the learning space, and its norm loss;
* the batched fitness kernel inside `search.run_ga`, through the population
  fitness a one-iteration run writes to its checkpoint, against the
  canonical `search.evaluate_fitness` of the same bits.

Every program function is looked up on its module at call time, so a
replaced kernel is the one checked.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from sfq_control import propagate, search
from sfq_control import system as sfq_system

TOLERANCE = 1e-12


class GateFailure(Exception):
    """A kernel deviated from the stepwise product."""


def _expm_herm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def reference_cycles(system) -> np.ndarray:
    """free @ exp(-i sum of fired generators), one matrix per channel mask."""
    free = _expm_herm(system.h_static, system.clock_period)
    gens = [sfq_system.kick_generator(system, c) for c in system.channels]
    mats = []
    for mask in range(1 << len(gens)):
        fired = [g for i, g in enumerate(gens) if mask >> i & 1]
        mats.append(free @ _expm_herm(sum(fired)) if fired else free)
    return np.stack(mats)


def stepwise(mats: np.ndarray, bits: np.ndarray) -> np.ndarray:
    masks = (bits.astype(np.int64) << np.arange(bits.shape[0])[:, None]).sum(axis=0)
    u = np.eye(mats.shape[1], dtype=complex)
    for m in masks:
        u = mats[m] @ u
    return u


def _dev(name: str, got: np.ndarray, want: np.ndarray) -> float:
    dev = float(np.max(np.abs(np.asarray(got) - want)))
    if not dev <= TOLERANCE:  # also catches NaN
        raise GateFailure(f"{name} deviates from the stepwise product by {dev:.3e}")
    return dev


def check_kernels(system, bits: np.ndarray) -> float:
    """Max deviation of evolve_full and evolve_projected from the reference."""
    schedule = propagate.PulseSchedule(bits)
    cycles = propagate.precompute(system)
    mats = reference_cycles(system)
    # Rest frame at T = N * dt.  E * T reaches 1e4 rad, so T is rounded once
    # before the product, as a float T would be.
    total_time = bits.shape[1] * system.clock_period
    phases = np.exp(1j * system.bare_energies * total_time)
    learn = system.learn_indices

    full = phases[:, None] * stepwise(mats, bits)
    dev = _dev("evolve_full", propagate.evolve_full(cycles, schedule), full)

    proj = phases[learn, None] * stepwise(mats[:, learn][:, :, learn], bits)
    got = propagate.evolve_projected(cycles, schedule)
    dev = max(dev, _dev("evolve_projected", got.matrix, proj))
    norm_loss = 1.0 - float(np.sum(np.abs(proj) ** 2)) / len(learn)
    return max(dev, _dev("evolve_projected norm_loss", got.norm_loss, norm_loss))


def check_batch(system, target, num_cycles: int, seed: int, tmp: Path) -> float:
    """Max deviation of batched search fitness from the canonical path."""
    path = tmp / "gate_checkpoint.txt"
    cfg = search.GaConfig(population_size=4, selection_size=2, max_iterations=1,
                          target_fidelity=1.0, metric="f2", seed=seed)
    try:
        search.run_ga(system, target, num_cycles, cfg, checkpoint_path=path)
        state = search.read_checkpoint(path)
    finally:
        path.unlink(missing_ok=True)
    cycles = propagate.precompute(system)
    canonical = [
        search.evaluate_fitness(cycles, propagate.PulseSchedule(b), target, "f2").f2
        for b in state["population"]
    ]
    return _dev("batched search fitness", state["fitness"], np.array(canonical))
