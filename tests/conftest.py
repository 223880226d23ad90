"""Shared fixtures and the acceptance-line reporter."""

import contextlib
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

import sfq_control as sc
from sfq_control import search

GHZ = 2.0 * np.pi * 1e9

# Populated by tests/test_acceptance.py, printed at the end of the run.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process is still running: a search
    joins its scoring workers however it ends.  The leftovers are killed, so
    the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join(10.0)
    assert not left, f"child processes left running: {left}"


def spy_generations(monkeypatch, act):
    """Call act(n) at the start of the n-th generation, counted over every
    search from here on, before its children are scored (by way of
    ``search.crossover``)."""
    real, calls = search.crossover, []

    def spy(*args):
        calls.append(1)
        act(len(calls))
        return real(*args)

    monkeypatch.setattr(search, "crossover", spy)


def children_each_generation(monkeypatch):
    """A list that gets the number of child processes running at the start
    of each generation from here on."""
    alive = []
    spy_generations(monkeypatch, lambda n: alive.append(len(multiprocessing.active_children())))
    return alive


class Overtime(Exception):
    """Raised by ``deadline``.  Not a TimeoutError: that is an OSError,
    which multiprocessing swallows when it interrupts a wait for a child."""


@contextlib.contextmanager
def deadline(seconds):
    """Overtime in this process if the with block runs past seconds, so a
    hang fails a test instead of stalling the run."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def kill_workers_at(monkeypatch, n):
    """SIGKILL every child process at the start of the n-th generation."""
    def act(i):
        if i == n:
            for proc in multiprocessing.active_children():
                os.kill(proc.pid, signal.SIGKILL)

    spy_generations(monkeypatch, act)


@pytest.fixture(scope="session")
def transmon_pair():
    """The workhorse pair: 3.9 / 3.5 GHz transmons, alpha = -225 MHz."""
    q0 = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 9)
    q1 = sc.transmon_levels(3.5 * GHZ, -0.225 * GHZ, 9)
    return q0, q1


def make_pair_system(q0, q1, n_levels=5, n_sim=7, j_ghz=0.05, channels=None):
    if channels is None:
        channels = [sc.ControlChannel(0, "z", 0.03), sc.ControlChannel(1, "z", 0.03)]
    return sc.assemble(
        [q0, q1], n_levels=n_levels, n_sim_levels=n_sim,
        j_coupling=j_ghz * GHZ, channels=channels,
    )


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def stepwise(mats, bits):
    """The plain loop over cycles, masks packed here by hand."""
    u = np.eye(mats.shape[1], dtype=complex)
    for t in range(bits.shape[1]):
        mask = sum(int(bits[c, t]) << c for c in range(bits.shape[0]))
        u = mats[mask] @ u
    return u


def learning_block(cycles, bits):
    """The rest-frame learning block of bits (nch, N) by the plain loop: the
    independent reference of every learning-space score."""
    system = cycles.system
    learn = system.learn_indices
    mats = cycles.combos[:, learn][:, :, learn]
    frame = np.exp(1j * system.bare_energies[learn] * bits.shape[-1] * system.clock_period)
    return frame[:, None] * stepwise(mats, bits)


def stepwise_scores(cycles, bits, target):
    """{"f1", "f2", "norm_loss"} of bits by the public metrics on the
    computational block of ``learning_block``; norm_loss is what its
    computational columns lose from the learning subspace."""
    comp = cycles.system.comp_indices
    columns = learning_block(cycles, bits)[:, comp]
    block = columns[comp]
    return {
        "f1": sc.avg_fidelity_f1(block, target),
        "f2": sc.rz_fidelity_f2(block, target)[0],
        "norm_loss": 1.0 - float(np.sum(np.abs(columns) ** 2)) / len(comp),
    }


@st.composite
def random_problems(draw):
    """A random 1-2 qubit system (transmon or fluxonium), z-only or mixed
    channels, and a batch of schedules."""
    kind = draw(st.sampled_from(["transmon", "fluxonium"]))
    num_qubits = draw(st.integers(1, 2))
    n_levels = draw(st.integers(2, 4))
    n_sim = draw(st.integers(n_levels, n_levels + 1))

    def qubit():
        if kind == "transmon":
            omega, alpha = draw(st.floats(3.0, 6.0)), draw(st.floats(-0.3, -0.1))
            return sc.transmon_levels(omega * GHZ, alpha * GHZ, n_sim)
        ej, ec = draw(st.sampled_from([(5.5, 1.5), (5.7, 1.2)]))
        return sc.fluxonium_levels(ej * GHZ, ec * GHZ, 1.0 * GHZ, np.pi, n_sim)

    qubits = [qubit() for _ in range(num_qubits)]
    axes = ("z",) if draw(st.booleans()) else ("x", "z")
    slots = [(q, axis) for q in range(num_qubits) for axis in axes]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3, unique=True))
    channels = [sc.ControlChannel(q, axis, draw(st.floats(0.005, 0.5))) for q, axis in chosen]
    j = draw(st.floats(0.0, 0.1)) * GHZ if num_qubits == 2 else 0.0
    system = sc.assemble(qubits, n_levels, n_sim, j, channels)
    n = draw(st.integers(1, 40))
    bits = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 2, size=(3, len(channels), n), dtype=np.uint8
    )
    return system, bits
