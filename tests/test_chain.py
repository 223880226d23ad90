"""Property tests of the chain kernel on random small systems and schedules."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sfq_control as sc
from conftest import GHZ
from sfq_control.propagate import chain, chain_bits, pack_words, word_tables
from sfq_control.search import _TABLE_ENTRIES
from sfq_control.system import kick_generator


@st.composite
def problems(draw):
    """A random 1-2 qubit system with 1-4 channels and a batch of schedules."""
    num_qubits = draw(st.integers(1, 2))
    n_levels = draw(st.integers(2, 3))
    n_sim = draw(st.integers(n_levels, n_levels + 1))
    qubits = [
        sc.transmon_levels(
            draw(st.floats(3.0, 6.0)) * GHZ, draw(st.floats(-0.3, -0.1)) * GHZ, n_sim
        )
        for _ in range(num_qubits)
    ]
    slots = [(q, axis) for q in range(num_qubits) for axis in ("x", "z")]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=4, unique=True))
    channels = [
        sc.ControlChannel(q, axis, draw(st.floats(0.005, 0.5))) for q, axis in chosen
    ]
    j = draw(st.floats(0.0, 0.1)) * GHZ if num_qubits == 2 else 0.0
    system = sc.assemble(qubits, n_levels, n_sim, j, channels)
    n = draw(st.integers(0, 40))
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(batch, len(channels), n), dtype=np.uint8
    )
    return system, bits


def stepwise(mats, bits):
    """The plain loop over cycles, masks packed here by hand."""
    u = np.eye(mats.shape[1], dtype=complex)
    for t in range(bits.shape[1]):
        mask = sum(int(bits[c, t]) << c for c in range(bits.shape[0]))
        u = mats[mask] @ u
    return u


def word_sizes(nch):
    """Every power-of-two word size whose table fits the entry cap."""
    k = 1
    while 1 << (nch * k) <= _TABLE_ENTRIES:
        yield k
        k *= 2


@settings(max_examples=100, deadline=None)
@given(problems())
def test_unbatched_chain_is_the_stepwise_loop(problem):
    system, bits = problem
    cycles = sc.precompute(system)
    learn = system.learn_indices
    for row in bits:
        masks = pack_words(row, 1)
        for mats in (cycles.combos, cycles.combos[:, learn][:, :, learn]):
            eye = np.eye(mats.shape[1], dtype=complex)
            assert np.array_equal(chain(mats, masks, eye), stepwise(mats, row))


@settings(max_examples=100, deadline=None)
@given(problems())
def test_word_tables_agree_with_single_cycles(problem):
    system, bits = problem
    learn = system.learn_indices
    mats = sc.precompute(system).combos[:, learn][:, :, learn]
    d = mats.shape[1]
    start = np.broadcast_to(np.eye(d, dtype=complex), (len(bits), d, d))
    single = [chain(mats, pack_words(row, 1), np.eye(d)) for row in bits]
    for k in word_sizes(bits.shape[1]):
        got = chain_bits(word_tables(mats, k), bits, start)
        for b in range(len(bits)):
            assert np.max(np.abs(got[b] - single[b]), initial=0.0) <= 1e-12, k


@settings(max_examples=50, deadline=None)
@given(problems())
def test_both_paths_match_scipy_expm(problem):
    system, bits = problem
    dt = system.clock_period
    free = scipy.linalg.expm(-1j * dt * system.h_static)
    gens = [kick_generator(system, c) for c in system.channels]
    oracle = np.stack([
        free @ scipy.linalg.expm(
            -1j * sum((g for i, g in enumerate(gens) if mask >> i & 1),
                      np.zeros_like(system.h_static))
        )
        for mask in range(1 << len(gens))
    ])
    cycles = sc.precompute(system)
    k = max(word_sizes(bits.shape[1]))
    d = system.dim_sim
    batched = chain_bits(
        word_tables(cycles.combos, k), bits,
        np.broadcast_to(np.eye(d, dtype=complex), (len(bits), d, d)),
    )
    # evolve_full reports the rest frame exp(+i E_bare T), T = N * dt
    frame = np.exp(1j * system.bare_energies * bits.shape[2] * dt)
    for b, row in enumerate(bits):
        want = stepwise(oracle, row)
        full = sc.evolve_full(cycles, sc.PulseSchedule(row))
        assert np.max(np.abs(full - frame[:, None] * want), initial=0.0) <= 1e-12
        assert np.max(np.abs(batched[b] - want), initial=0.0) <= 1e-12
