"""Long-running reproduction recipes, deselected by default.

These are the multi-hour stochastic searches behind the headline results.
Run them explicitly with:

    pytest -m recipe tests/test_recipes.py -v

Each recipe tries a few seeds and passes as soon as one search lands under
the published threshold.  Budget per recipe is the full 200k iterations per
seed, so plan for hours of wall time.
"""

import numpy as np
import pytest

import sfq_control as sc
from conftest import GHZ, make_pair_system
from sfq_control.metrics import gate_breakdown
from sfq_control.propagate import evolve_full, precompute
from sfq_control.search import GaConfig, run_ga
from sfq_control.system import ControlChannel, GateTarget, assemble, lookup_target

pytestmark = pytest.mark.recipe

SEEDS = (21, 22, 23)


def best_under(system, target, num_cycles, error_cap, leak_cap, metric="f2"):
    cycles = precompute(system)
    attempts = []
    for seed in SEEDS:
        config = GaConfig(
            max_iterations=200_000,
            target_fidelity=1.0 - error_cap,
            metric=metric,
            seed=seed,
        )
        result = run_ga(system, target, num_cycles, config)
        u = evolve_full(cycles, result.best.schedule(), system.comp_sim_indices)
        leak = gate_breakdown(u, system, target).leakage
        attempts.append((seed, result.error, leak, result.iterations_used))
        if result.error < error_cap and leak < leak_cap:
            return attempts
    raise AssertionError(f"no seed passed: {attempts}")


def test_z_channel_cz_10ns(transmon_pair):
    """CZ via a single z channel on qubit 2: tip 0.03, 10 ns, error < 1e-3."""
    q0, q1 = transmon_pair
    system = make_pair_system(
        q0, q1, channels=[ControlChannel(1, "z", 0.03)]
    )
    attempts = best_under(system, lookup_target("CZ"), 1250, 1e-3, 1e-3)
    print("z-channel CZ attempts (seed, error, leakage, iterations):", attempts)


def test_x_channel_cz_40ns(transmon_pair):
    """CZ via x channels on both qubits: tip 0.003, 40 ns, error < 1e-3."""
    q0, q1 = transmon_pair
    system = make_pair_system(
        q0,
        q1,
        channels=[ControlChannel(0, "x", 0.003), ControlChannel(1, "x", 0.003)],
    )
    attempts = best_under(system, lookup_target("CZ"), 5000, 1e-3, 1e-2)
    print("x-channel CZ attempts (seed, error, leakage, iterations):", attempts)


def fluxonium_pair_system(tip=0.003):
    qa = sc.fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, 7)
    qb = sc.fluxonium_levels(5.7 * GHZ, 1.2 * GHZ, 1.0 * GHZ, np.pi, 7)
    return assemble(
        [qa, qb],
        n_levels=5,
        n_sim_levels=7,
        j_coupling=0.05 * GHZ,
        channels=[ControlChannel(0, "x", tip), ControlChannel(1, "x", tip)],
    )


def test_fluxonium_cz_20ns():
    """CZ on the fluxonium pair with x channels: tip 0.003, 20 ns."""
    attempts = best_under(
        fluxonium_pair_system(), lookup_target("CZ"), 2500, 1e-2, 1e-2
    )
    print("fluxonium CZ attempts (seed, error, leakage, iterations):", attempts)


def test_fluxonium_ry90_20ns():
    """Non-entangling Ry90 on qubit 1 of the fluxonium pair, 20 ns."""
    ry90 = lookup_target("RY90").matrix
    target = GateTarget("RY90xI", np.kron(ry90, np.eye(2)))
    attempts = best_under(fluxonium_pair_system(), target, 2500, 1e-2, 1e-2)
    print("fluxonium RY90xI attempts (seed, error, leakage, iterations):", attempts)
