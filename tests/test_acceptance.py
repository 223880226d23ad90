"""Acceptance suite: one test per shipping criterion, result lines at the end.

Each test appends an "ACCEPTANCE <n> <name>: PASS/FAIL" line that the
terminal reporter prints after the run, so the checklist is visible in one
place.  Budgets marked in comments are the intended wall-clock boxes.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

import sfq_control as sc
from conftest import ACCEPTANCE_RESULTS, GHZ, make_pair_system, random_unitary
from sfq_control import cli
from sfq_control.config import parse_config
from sfq_control.metrics import agreement_f1, avg_leakage, gate_breakdown
from sfq_control.propagate import (
    PulseSchedule,
    evolve_full,
    precompute,
    read_bitstreams,
    reference_integrate,
)
from sfq_control.reports import evaluate_gate, read_report
from sfq_control.search import GaConfig, evaluate_fitness, run_ga
from sfq_control.system import ControlChannel, assemble, lookup_target

DATA = Path(__file__).parent / "data"


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS.append(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            ACCEPTANCE_RESULTS.append(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return decorate


def four_channel_pair(transmon_pair, tip=0.03):
    q0, q1 = transmon_pair
    channels = [
        ControlChannel(0, "x", tip),
        ControlChannel(0, "z", tip),
        ControlChannel(1, "x", tip),
        ControlChannel(1, "z", tip),
    ]
    return make_pair_system(q0, q1, n_levels=5, n_sim=7, channels=channels)


@criterion(1, "metric identities")
def test_metric_identities(transmon_pair):
    # budget: under a minute for 500 random schedules at n=5, n_sim=7
    t0 = time.perf_counter()
    system = four_channel_pair(transmon_pair)
    target = lookup_target("CZ")
    cycles = precompute(system)
    rng = np.random.default_rng(100)
    ns = system.n_sim_levels
    comp_full = np.array([0, 1, ns, ns + 1])

    for i in range(500):
        schedule = PulseSchedule.random(rng, 4, 16)
        u = evolve_full(cycles, schedule)
        cols = u[:, system.comp_sim_indices]
        bd = gate_breakdown(cols, system, target)
        assert bd.f1 <= bd.f2 + 1e-8
        assert bd.f2 <= 1.0 - bd.leakage + 1e-8

        if i < 20:  # phase invariance on a subset
            shifted = gate_breakdown(np.exp(0.37j) * cols, system, target)
            assert abs(shifted.f1 - bd.f1) < 1e-10
            assert abs(shifted.f2 - bd.f2) < 1e-10

        if i < 3:  # leakage against a Monte Carlo Haar average, 3 sigma
            n_samples = 10_000
            psi = rng.normal(size=(4, n_samples)) + 1j * rng.normal(
                size=(4, n_samples)
            )
            psi /= np.linalg.norm(psi, axis=0)
            block = u[np.ix_(comp_full, comp_full)]
            survive = np.sum(np.abs(block @ psi) ** 2, axis=0)
            sigma = survive.std(ddof=1) / np.sqrt(n_samples)
            assert abs((1.0 - survive.mean()) - bd.leakage) < 3 * sigma + 1e-12
    assert time.perf_counter() - t0 < 60.0


@criterion(2, "delta kick vs finite pulse oracle")
def test_oracle_equivalence(transmon_pair):
    # budget: under five minutes; 100-cycle random bitstreams, tau = 0.25 ps
    t0 = time.perf_counter()
    for tip, floor in ((0.003, 0.9999), (0.03, 0.999)):
        system = four_channel_pair(transmon_pair, tip=tip)
        schedule = PulseSchedule.random(np.random.default_rng(200), 4, 100)
        u_delta = evolve_full(precompute(system), schedule)
        u_ref = reference_integrate(system, schedule)
        agree = agreement_f1(u_delta, u_ref)
        assert agree >= floor, f"tip {tip}: agreement {agree}"
    assert time.perf_counter() - t0 < 300.0


@criterion(3, "resonant pulse comb gives RY90")
def test_single_qubit_comb():
    # one pulse per qubit period, offset a quarter period to select the
    # rest-frame y axis; 524 pulses at tip 0.003 sum to a pi/2 rotation
    q = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 3)
    system = assemble(
        [q], n_levels=3, n_sim_levels=3, channels=[ControlChannel(0, "x", 0.003)]
    )
    period_cycles = 1.0 / (3.9e9 * system.clock_period)
    marks = np.round((np.arange(524) + 0.25) * period_cycles).astype(int)
    bits = np.zeros((1, marks[-1] + 1), dtype=np.uint8)
    bits[0, marks] = 1
    bd = evaluate_fitness(
        precompute(system), PulseSchedule(bits), lookup_target("RY90"), "f2"
    )
    assert int(bits.sum()) == 524
    assert bd.f2 >= 0.99


@criterion(4, "fluxonium spectrum windows")
def test_fluxonium_spectrum():
    for ej, ec in ((5.5, 1.5), (5.7, 1.2)):
        q = sc.fluxonium_levels(ej * GHZ, ec * GHZ, 1.0 * GHZ, np.pi, 4)
        f01 = q.energies[1] / GHZ
        ratio = (q.energies[2] - q.energies[1]) / q.energies[1]
        assert 0.3 <= f01 <= 2.0, f"EJ={ej}: omega01/2pi = {f01}"
        assert 2.0 <= ratio <= 5.0, f"EJ={ej}: omega12/omega01 = {ratio}"
        assert q.basis_error < 1e-6


@criterion(5, "learned error is not leakage")
def test_two_level_model_hides_leakage(transmon_pair):
    # budget: minutes at the 20k desk iteration cap
    t0 = time.perf_counter()
    q0, q1 = transmon_pair
    channels = [ControlChannel(0, "x", 0.03), ControlChannel(1, "x", 0.03)]
    learned_on = make_pair_system(q0, q1, n_levels=2, n_sim=2, channels=channels)
    target = lookup_target("CZ")
    config = GaConfig(
        max_iterations=20_000, target_fidelity=0.999, metric="f2", seed=5
    )
    result = run_ga(learned_on, target, 2500, config)
    assert result.terminated_by == "target_reached"
    assert result.error <= 1e-3

    widened = make_pair_system(q0, q1, n_levels=2, n_sim=5, channels=channels)
    u = evolve_full(precompute(widened), result.best.schedule(),
                    widened.comp_sim_indices)
    leak = gate_breakdown(u, widened, target).leakage
    assert leak >= 10.0 * result.error, f"leakage {leak} vs error {result.error}"
    assert time.perf_counter() - t0 < 600.0


@criterion(6, "fast CZ with a single z channel")
def test_fast_cz(transmon_pair):
    q0, q1 = transmon_pair
    z1 = [ControlChannel(1, "z", 0.03)]
    target = lookup_target("CZ")

    # CI-scale surrogate: stronger coupling, 5 ns, error < 1e-2 in <15 min
    t0 = time.perf_counter()
    surrogate = make_pair_system(q0, q1, j_ghz=0.1, channels=z1)
    result = run_ga(
        surrogate,
        target,
        625,
        GaConfig(max_iterations=20_000, target_fidelity=0.99, metric="f2", seed=7),
    )
    assert result.terminated_by == "target_reached"
    assert result.error < 1e-2
    assert time.perf_counter() - t0 < 900.0

    # full-size problem: 10 ns at J = 50 MHz, full iteration budget,
    # at least one of three seeds must land under 1e-3 error and leakage
    full = make_pair_system(q0, q1, j_ghz=0.05, channels=z1)
    cycles = precompute(full)
    passed = False
    for seed in (21, 22, 23):
        config = GaConfig(
            max_iterations=200_000, target_fidelity=0.999, metric="f2", seed=seed
        )
        result = run_ga(full, target, 1250, config)
        if result.terminated_by != "target_reached":
            continue
        u = evolve_full(cycles, result.best.schedule(), full.comp_sim_indices)
        leak = gate_breakdown(u, full, target).leakage
        if result.error < 1e-3 and leak < 1e-3:
            passed = True
            break
    assert passed, "no seed reached error < 1e-3 with leakage < 1e-3"


LEARN_CONFIG = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[channels]
x0 = 0.03
z0 = 0.03

[gate]
target = I
time_ns = 0.32

[learning]
n_levels = 3
n_sim_levels = 4

[ga]
population_size = 20
selection_size = 12
mutation_probability = 0.01
max_iterations = 800
target_fidelity = 0.999
metric = f1
seed = 3
"""


@criterion(7, "determinism and persistence")
def test_determinism_and_persistence(tmp_path):
    # same seed, same bytes, via the command line
    config = tmp_path / "learn.ini"
    config.write_text(LEARN_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["learn", "--config", str(config), "--out-dir", str(out)]
        ) == 0
        outs.append((out / "bitstream.txt").read_bytes())
    assert outs[0] == outs[1]

    # a persisted bitstream re-evaluates to its recorded metrics
    cfg = parse_config(DATA / "regression.ini")
    schedule, keys, clock_ps = read_bitstreams(DATA / "regression_bitstream.txt")
    assert keys == cfg.channel_keys()
    assert clock_ps == cfg.clock_ps
    recorded = read_report(DATA / "regression_report.txt")
    fresh = evaluate_gate(cfg, schedule)
    for name in (
        "fitness",
        "error",
        "f1",
        "f2",
        "leakage",
        "norm_loss",
        "f1_wide",
        "f2_wide",
        "leakage_wide",
    ):
        got, rec = getattr(fresh, name), getattr(recorded, name)
        assert abs(got - rec) <= 1e-12, f"{name}: {got!r} != {rec!r}"


@criterion(8, "unitarity and product structure")
def test_unitarity_and_factorization(transmon_pair):
    rng = np.random.default_rng(800)
    q = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 4)
    single = assemble(
        [q],
        n_levels=3,
        n_sim_levels=4,
        channels=[ControlChannel(0, "x", 0.03), ControlChannel(0, "z", 0.03)],
    )
    cycles_1q = precompute(single)
    for _ in range(800):
        u = evolve_full(cycles_1q, PulseSchedule.random(rng, 2, 20))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9

    pair = four_channel_pair(transmon_pair)
    cycles_2q = precompute(pair)
    eye = np.eye(pair.dim_sim)
    for _ in range(200):
        u = evolve_full(cycles_2q, PulseSchedule.random(rng, 4, 10))
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-9

    # with J = 0 the pair propagator factorizes into a Kronecker product
    q0, q1 = transmon_pair
    channels = [
        ControlChannel(0, "x", 0.03),
        ControlChannel(0, "z", 0.03),
        ControlChannel(1, "x", 0.03),
        ControlChannel(1, "z", 0.03),
    ]
    uncoupled = make_pair_system(q0, q1, j_ghz=0.0, channels=channels)
    schedule = PulseSchedule.random(rng, 4, 40)
    u_pair = evolve_full(precompute(uncoupled), schedule)
    factors = []
    for i, qubit in enumerate((q0, q1)):
        solo = assemble(
            [qubit],
            n_levels=5,
            n_sim_levels=7,
            channels=[ControlChannel(0, "x", 0.03), ControlChannel(0, "z", 0.03)],
        )
        rows = schedule.bits[2 * i : 2 * i + 2]
        factors.append(evolve_full(precompute(solo), PulseSchedule(rows)))
    assert np.max(np.abs(u_pair - np.kron(factors[0], factors[1]))) < 1e-9
