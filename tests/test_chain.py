"""Property tests of the chain kernel on random small systems and schedules."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sfq_control as sc
from conftest import GHZ, make_pair_system, random_problems, random_unitary, stepwise
from sfq_control.config import build_system, parse_config
from sfq_control.metrics import _f1_batch, _f2_batch
from sfq_control.propagate import (
    _TABLE_BYTES, _evolve, _plan, _real, _word_size, chain, chain_bits, pack_words,
    word_tables,
)
from sfq_control.search import GaConfig, _FitnessEngine
from sfq_control.system import ControlChannel, kick_generator, lookup_target

DATA = Path(__file__).parent / "data"
# Entry cap of the word tables these tests sweep: every k up to it.
ENTRIES = 256


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


def word_sizes(nch):
    """Every power-of-two word size whose table fits the entry cap."""
    k = 1
    while 1 << (nch * k) <= ENTRIES:
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


@settings(max_examples=60, deadline=None)
@given(random_problems())
def test_real_and_complex_chains_agree(problem):
    # the engine's two arithmetics: the same word tables, complex or lifted
    # to real [[Re, -Im], [Im, Re]] blocks, through the one evolution body
    system, bits = problem
    comp = system.comp_sim_indices
    stack, start, rows = _plan(sc.precompute(system), system.learn_indices, comp)
    start = np.broadcast_to(start, (len(bits), *start.shape))
    target = random_unitary(np.random.default_rng(len(rows)), 2**system.num_qubits)
    for k in word_sizes(len(system.channels)):
        tables = word_tables(stack, k)
        cplx = _evolve(system, tables, bits, start, rows)
        real = _evolve(system, [_real(t) for t in tables], bits, start, rows)
        assert real.dtype == complex
        assert np.max(np.abs(real - cplx)) <= 1e-12, k
        a, b = (np.ascontiguousarray(m[:, np.searchsorted(rows, comp)])
                for m in (cplx, real))
        for f in (_f1_batch, lambda m, t: _f2_batch(m, t)[0]):
            assert np.max(np.abs(f(a, target) - f(b, target))) <= 1e-12, k


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 100), st.integers(1, 300), st.integers(0, 2000),
       st.booleans())
def test_word_size_is_the_cheapest_power_of_two(nch, d, c, n, real):
    def cost(k):  # exact, so the minimum is exact
        build = sum(2 ** (nch * j) * d**3 for j in (2**i for i in range(1, k.bit_length())))
        return build + Fraction(n * d * d * c, k)

    def fits(k):  # T_1 is the cycle stack itself; every table above it is bounded
        return k == 1 or 2 ** (nch * k) * (32 if real else 16) * d * d <= _TABLE_BYTES

    sizes = [1 << i for i in range(max(n, 1).bit_length()) if fits(1 << i)]
    assert _word_size(nch, d, c, n, real) == min(sizes, key=cost)


def test_long_schedules_keep_their_tables_in_bounds():
    # without the byte bound both take k = 8: a 655 MB T_8 for the 25-state
    # search at 10^5 cycles, 2.5 GB for the 49-state oracle at 10^6 cycles
    for d, c, n in ((25, 240, 10**5), (49, 49, 10**6)):
        k = _word_size(2, d, c, n)
        assert k == 4
        assert 2 ** (2 * k) * 16 * d * d <= _TABLE_BYTES < 2 ** (2 * 2 * k) * 16 * d * d


@settings(max_examples=60, deadline=None)
@given(random_problems(), st.integers(0, 300), st.integers(0, 2**32 - 1), st.data())
def test_evolutions_at_the_rules_word_size_are_the_stepwise_loop(problem, n, seed, data):
    system, _ = problem
    nch = len(system.channels)
    bits = np.random.default_rng(seed).integers(0, 2, size=(nch, n), dtype=np.uint8)
    schedule = sc.PulseSchedule(bits)
    cycles = sc.precompute(system)
    frame = np.exp(1j * system.bare_energies * n * system.clock_period)
    full = frame[:, None] * stepwise(cycles.combos, bits)
    columns = data.draw(st.lists(
        st.integers(0, system.dim_sim - 1), min_size=1, max_size=system.dim_sim,
        unique=True).map(sorted))
    for cols, want in ((None, full), (columns, full[:, columns])):
        got = sc.evolve_full(cycles, schedule, cols)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    learn = system.learn_indices
    want = frame[learn, None] * stepwise(cycles.combos[:, learn][:, :, learn], bits)
    got = sc.evolve_projected(cycles, schedule).matrix
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_word_sizes_of_the_named_problems(transmon_pair):
    # the search engines keep the k of the old 256-entry cap on every named
    # problem, and the 40 ns x-channel CZ report chains take 4, 2 and 2
    q0, q1 = transmon_pair
    z1 = [ControlChannel(1, "z", 0.03)]
    cz = lookup_target("CZ")
    regression = parse_config(DATA / "regression.ini")
    named = [
        (make_pair_system(q0, q1, j_ghz=0.1, channels=z1), cz, 625, 8),  # cz_z
        (make_pair_system(q0, q1, channels=[ControlChannel(0, "x", 0.003),
                                            ControlChannel(1, "x", 0.003)]),
         cz, 5000, 4),  # cz_x
        (build_system(regression), regression.target(), regression.num_cycles, 4),
        (make_pair_system(q0, q1, n_levels=2, n_sim=2, channels=[
            ControlChannel(0, "x", 0.03), ControlChannel(1, "x", 0.03)]),
         cz, 2500, 4),  # criterion 5
        (make_pair_system(q0, q1, j_ghz=0.05, channels=z1), cz, 1250, 8),  # criterion 6
    ]
    for system, target, n, k in named:
        engine = _FitnessEngine(sc.precompute(system), target, n, GaConfig())
        assert 1 << (len(engine.tables) - 1) == k
    # canonical 25 x 25 learning block, then 4 columns on 49 and 81 states
    assert [_word_size(2, 25, 25, 5000), _word_size(2, 49, 4, 5000),
            _word_size(2, 81, 4, 5000)] == [4, 2, 2]
