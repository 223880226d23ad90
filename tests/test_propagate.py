"""Delta-kick evolution and the finite-width reference integrator."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfq_control as sc
from conftest import GHZ, make_pair_system, random_problems
from sfq_control import propagate
from sfq_control.propagate import (
    _CF4_NODE,
    _CF4_W1,
    _CF4_W2,
    BitstreamFormatError,
    ConvergenceError,
    _cf4_run,
    _expm_herm,
    _expm_sym,
    _plan,
    pack_words,
)
from sfq_control.metrics import avg_leakage, gate_breakdown
from sfq_control.system import kick_generator, lookup_target


@pytest.fixture
def exponentials(monkeypatch):
    """The number of matrices each ``_expm_sym`` call exponentiates (one
    call may take a stack), from here on."""
    calls = []
    real = propagate._expm_sym

    def counting(a, scale):
        calls.append(math.prod(a.shape[:-2]))
        return real(a, scale)

    monkeypatch.setattr(propagate, "_expm_sym", counting)
    return calls


def cz_40ns(transmon_pair):
    """The 40 ns CZ problem's system: two x channels at tip 0.003, 49 states."""
    channels = [sc.ControlChannel(0, "x", 0.003), sc.ControlChannel(1, "x", 0.003)]
    return make_pair_system(*transmon_pair, channels=channels)


@pytest.fixture(scope="module")
def pair(transmon_pair):
    q0, q1 = transmon_pair
    return make_pair_system(
        q0, q1,
        channels=[sc.ControlChannel(0, "x", 0.03), sc.ControlChannel(1, "z", 0.03)],
    )


class TestSchedule:
    def test_masks(self):
        bits = np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=np.uint8)
        sch = sc.PulseSchedule(bits)
        assert pack_words(sch.bits, 1).tolist() == [1, 0, 3, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            sc.PulseSchedule(np.array([0, 1, 1], dtype=np.uint8))
        with pytest.raises(ValueError):
            sc.PulseSchedule(np.array([[0, 2]], dtype=np.uint8))

    def test_bitstring_round_trip(self):
        rng = np.random.default_rng(0)
        sch = sc.PulseSchedule.random(rng, 3, 17)
        again = sc.PulseSchedule.from_bitstrings(sch.bitstrings())
        assert np.array_equal(sch.bits, again.bits)

    def test_from_bitstrings_validation(self):
        with pytest.raises(ValueError):
            sc.PulseSchedule.from_bitstrings([])
        with pytest.raises(ValueError):
            sc.PulseSchedule.from_bitstrings(["010", "01"])


class TestPrecompute:
    def test_free_propagator_against_expm(self, pair):
        cycles = sc.precompute(pair)
        oracle = scipy.linalg.expm(-1j * pair.h_static * pair.clock_period)
        np.testing.assert_allclose(cycles.combos[0], oracle, atol=1e-12)

    def test_combos_against_expm(self, pair):
        cycles = sc.precompute(pair)
        gens = [kick_generator(pair, c) for c in pair.channels]
        for mask in range(4):
            gen = sum(
                (g for i, g in enumerate(gens) if mask >> i & 1),
                np.zeros_like(pair.h_static),
            )
            oracle = cycles.combos[0] @ scipy.linalg.expm(-1j * gen)
            np.testing.assert_allclose(
                cycles.combos[mask], oracle, atol=1e-12, err_msg=f"mask {mask}"
            )

    def test_learning_blocks_match(self, pair):
        cycles = sc.precompute(pair)
        learn = pair.learn_indices
        stack, start, states = _plan(cycles, learn, learn)
        assert states.tolist() == learn.tolist()
        assert np.array_equal(start, np.eye(pair.dim_learn))
        for mask in range(4):
            np.testing.assert_allclose(
                stack[mask],
                cycles.combos[mask][np.ix_(learn, learn)],
                atol=0,
            )


class TestEvolve:
    def test_full_is_unitary(self, pair):
        cycles = sc.precompute(pair)
        rng = np.random.default_rng(1)
        for _ in range(10):
            sch = sc.PulseSchedule.random(rng, 2, 40)
            u = sc.evolve_full(cycles, sch)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(pair.dim_sim), atol=1e-11
            )

    def test_zero_schedule_single_qubit_is_identity_in_rest_frame(
        self, transmon_pair
    ):
        # uncoupled static evolution is exactly undone by the frame rotation
        q0, _ = transmon_pair
        system = sc.assemble([q0], 3, 5, channels=[sc.ControlChannel(0, "x", 0.01)])
        cycles = sc.precompute(system)
        u = sc.evolve_full(cycles, sc.PulseSchedule.zeros(1, 125))
        np.testing.assert_allclose(u, np.eye(5), atol=1e-9)

    def test_projected_equals_explicit_projector_sandwich(self, pair):
        cycles = sc.precompute(pair)
        rng = np.random.default_rng(2)
        sch = sc.PulseSchedule.random(rng, 2, 25)
        res = sc.evolve_projected(cycles, sch)
        p = np.zeros((pair.dim_sim, pair.dim_sim))
        p[pair.learn_indices, pair.learn_indices] = 1.0
        u = np.eye(pair.dim_sim, dtype=complex)
        for mask in pack_words(sch.bits, 1):
            u = p @ cycles.combos[mask] @ p @ u
        t_total = sch.num_cycles * pair.clock_period
        u = np.exp(1j * pair.bare_energies * t_total)[:, None] * u
        learn = pair.learn_indices
        np.testing.assert_allclose(res.matrix, u[np.ix_(learn, learn)], atol=1e-12)

    def test_projected_norm_loss_zero_when_nothing_truncated(self, transmon_pair):
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1, n_levels=5, n_sim=5)
        cycles = sc.precompute(system)
        sch = sc.PulseSchedule.random(np.random.default_rng(3), 2, 30)
        res = sc.evolve_projected(cycles, sch)
        assert res.norm_loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_length_schedule(self, pair):
        cycles = sc.precompute(pair)
        res = sc.evolve_projected(cycles, sc.PulseSchedule.zeros(2, 0))
        np.testing.assert_allclose(res.matrix, np.eye(pair.dim_learn), atol=0)
        assert res.norm_loss == 0.0

    def test_channel_count_mismatch(self, pair):
        cycles = sc.precompute(pair)
        with pytest.raises(ValueError, match="channels"):
            sc.evolve_full(cycles, sc.PulseSchedule.zeros(1, 4))

    def test_columns_must_lie_in_the_reach(self, transmon_pair):
        # z only: the computational columns reach the two-excitation states;
        # |22> (index 16 at n_sim 7) lies outside that reach but is a state,
        # so it is a valid column with its own (four-excitation) reach
        system = make_pair_system(*transmon_pair)
        cycles, sch = sc.precompute(system), sc.PulseSchedule.zeros(2, 4)
        assert system.reach(system.comp_sim_indices).tolist() == [0, 1, 2, 7, 8, 14]
        assert system.reach([16]).tolist() == [4, 10, 16, 22, 28]
        for bad in (-1, [0, -1], system.dim_sim, [system.dim_sim], 1.5, [1.5], [1.0],
                    [[0, 1]]):
            with pytest.raises(ValueError, match="columns"):
                sc.evolve_full(cycles, sch, bad)
        assert sc.evolve_full(cycles, sch, [8, 0]).shape == (49, 2)
        assert sc.evolve_full(cycles, sch, [0, 16]).shape == (49, 2)

    def test_uncoupled_pair_factorizes(self, transmon_pair):
        # J = 0: pair evolution is the tensor product of the single-qubit ones
        q0, q1 = transmon_pair
        pair_sys = sc.assemble(
            [q0, q1], 2, 4, 0.0,
            [sc.ControlChannel(0, "x", 0.03), sc.ControlChannel(1, "z", 0.05)],
        )
        single0 = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        single1 = sc.assemble([q1], 2, 4, channels=[sc.ControlChannel(0, "z", 0.05)])
        rng = np.random.default_rng(4)
        sch = sc.PulseSchedule.random(rng, 2, 50)
        u_pair = sc.evolve_full(sc.precompute(pair_sys), sch)
        u0 = sc.evolve_full(sc.precompute(single0), sc.PulseSchedule(sch.bits[:1]))
        u1 = sc.evolve_full(sc.precompute(single1), sc.PulseSchedule(sch.bits[1:]))
        np.testing.assert_allclose(u_pair, np.kron(u0, u1), atol=1e-9)


class TestReferenceIntegrator:
    def test_fourth_order_convergence(self, transmon_pair):
        q0, q1 = transmon_pair
        system = make_pair_system(
            q0, q1, n_levels=3, n_sim=5,
            channels=[sc.ControlChannel(0, "x", 0.03),
                      sc.ControlChannel(1, "x", 0.03)],
        )
        sch = sc.PulseSchedule.random(np.random.default_rng(3), 2, 8)
        ref = _cf4_run(system, sch, 0.25e-12, 512)
        errs = [
            np.max(np.abs(_cf4_run(system, sch, 0.25e-12, ns) - ref))
            for ns in (32, 64, 128)
        ]
        # fourth order: each doubling should gain ~16x; allow >= 8x
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    def test_agrees_with_delta_kicks(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble(
            [q0], 3, 5, channels=[sc.ControlChannel(0, "x", 0.003)]
        )
        sch = sc.PulseSchedule.random(np.random.default_rng(5), 1, 40)
        u_ref = sc.reference_integrate(system, sch)
        u_delta = sc.evolve_full(sc.precompute(system), sch)
        assert sc.metrics.agreement_f1(u_delta, u_ref) > 0.999999

    def test_pulse_in_first_cycle_is_handled(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        bits = np.zeros((1, 10), dtype=np.uint8)
        bits[0, 0] = 1
        u_ref = sc.reference_integrate(system, sc.PulseSchedule(bits))
        u_delta = sc.evolve_full(sc.precompute(system), sc.PulseSchedule(bits))
        assert sc.metrics.agreement_f1(u_delta, u_ref) > 0.99999

    def test_unconverged_raises(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        sch = sc.PulseSchedule.random(np.random.default_rng(6), 1, 10)
        with pytest.raises(ConvergenceError):
            sc.reference_integrate(system, sch, substeps_per_cycle=8)

    def test_argument_validation(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        sch = sc.PulseSchedule.zeros(1, 4)
        with pytest.raises(ValueError):
            sc.reference_integrate(system, sch, substeps_per_cycle=4)
        with pytest.raises(ValueError):
            sc.reference_integrate(system, sch, pulse_width=5e-12)
        # a 16-width window shorter than one of 64 substeps of 8 ps
        with pytest.raises(ValueError, match="spans a substep"):
            sc.reference_integrate(system, sch, pulse_width=0.0078e-12)

    def test_repeated_windows_are_integrated_once(self, transmon_pair, exponentials):
        # a pulse in every cycle: the same window products, however many cycles
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        counts = []
        for n in (10, 40):
            exponentials.clear()
            sc.reference_integrate(system, sc.PulseSchedule(np.ones((1, n), np.uint8)))
            counts.append(sum(exponentials))
        assert counts[0] == counts[1] > 0

    def test_work_budget_counts_the_exponentials_taken(
        self, transmon_pair, monkeypatch, exponentials
    ):
        # the budget is checked on exactly the exponentials both runs take,
        # and a run over it is refused before any is taken
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        sch = sc.PulseSchedule.random(np.random.default_rng(9), 1, 12)
        sc.reference_integrate(system, sch)
        taken = sum(exponentials)
        monkeypatch.setattr(propagate, "_CF4_MAX_EXPONENTIALS", taken)
        sc.reference_integrate(system, sch)
        monkeypatch.setattr(propagate, "_CF4_MAX_EXPONENTIALS", taken - 1)
        exponentials.clear()
        with pytest.raises(ValueError, match="matrix exponentials"):
            sc.reference_integrate(system, sch)
        assert exponentials == []

    def test_each_run_is_planned_once(self, transmon_pair, monkeypatch):
        # the budget is checked on the plans the two runs integrate from
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        plans, real = [], propagate._cf4_plan

        def counting(*args):
            plans.append(args[-1])
            return real(*args)

        monkeypatch.setattr(propagate, "_cf4_plan", counting)
        sc.reference_integrate(system, sc.PulseSchedule.random(np.random.default_rng(9), 1, 12))
        assert plans == [64, 128]

    def test_only_h_static_is_diagonalised(self, transmon_pair, monkeypatch):
        # the substep exponentials take no eigendecomposition: one eigh of
        # h_static per run, for its static stretches
        system = cz_40ns(transmon_pair)
        seen, real = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            seen.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        sc.reference_integrate(system, sc.PulseSchedule.random(np.random.default_rng(1), 2, 6))
        assert len(seen) == 2
        assert all(np.array_equal(a, system.h_static) for a in seen)

    def test_pulse_free_run_does_not_scale_with_substeps(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        sch = sc.PulseSchedule.zeros(1, 3)
        u_ref = sc.reference_integrate(system, sch, substeps_per_cycle=10**12)
        u_delta = sc.evolve_full(sc.precompute(system), sch)
        np.testing.assert_allclose(u_ref, u_delta, atol=1e-12)

    def test_expm_herm_matches_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        np.testing.assert_allclose(
            _expm_herm(h, 0.7), scipy.linalg.expm(-0.7j * h), atol=1e-12
        )

    def test_centred_windows_take_one_exponential_per_substep(
        self, transmon_pair, exponentials
    ):
        # a window centred on its cycle start is symmetric in time and takes
        # length exponentials per run; the shifted cycle-0 window and a
        # window cut at the end take two per substep
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])

        def taken(cycles, width):
            bits = np.zeros((1, 6), np.uint8)
            bits[0, cycles] = 1
            schedule = sc.PulseSchedule(bits)
            keys = set(propagate._cf4_plan(system, schedule, width, 16)[0])
            exponentials.clear()
            _cf4_run(system, schedule, width, 16)
            return sum(exponentials), sorted(length for length, _ in keys)

        # 0.25 ps pulses at 16 substeps of 0.5 ps: windows of 2 * 4 substeps
        assert taken([1, 3, 4], 0.25e-12) == (8, [8])
        # the cycle-0 window spans substeps 0 .. 7, shifted five widths in
        assert taken([0], 0.25e-12) == (14, [7])
        assert taken([0, 2, 3], 0.25e-12) == (14 + 8, [7, 8])
        # 1.5 ps pulses reach 24 substeps: cycle 5's window is cut at 96
        assert taken([5], 1.5e-12) == (80, [40])
        assert taken([2, 5], 1.5e-12) == (48 + 80, [40, 48])

    def test_a_window_too_long_to_hold_its_half_is_not_mirrored(
        self, transmon_pair, monkeypatch, exponentials
    ):
        # with too few table bytes to hold half a window's products it takes
        # every exponential, three substeps a chunk, to the same product
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        schedule = sc.PulseSchedule(np.array([[0, 1, 0, 1]], np.uint8))
        whole = _cf4_run(system, schedule, 0.25e-12, 16)
        exponentials.clear()
        # 4 states: half of an 8-substep window holds 4 products of 16 * 4^2
        # bytes, and one pulse takes 8 * (_SUBSTEP_ARRAYS * 4^2 + 4) a substep
        monkeypatch.setattr(propagate, "_TABLE_BYTES", 4 * 16 * 4 * 4 - 1)
        monkeypatch.setattr(propagate, "_CHUNK_BYTES",
                            3 * 8 * (propagate._SUBSTEP_ARRAYS * 4 * 4 + 4))
        assert np.array_equal(_cf4_run(system, schedule, 0.25e-12, 16), whole)
        assert exponentials == [6, 6, 4]  # 8 substeps, two exponentials each


    def test_a_mirrored_window_in_chunks_is_the_same_product(
        self, transmon_pair, monkeypatch, exponentials
    ):
        # the held products of each chunk go back in reverse, last chunk first
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.03)])
        schedule = sc.PulseSchedule(np.array([[0, 1, 0, 1]], np.uint8))
        whole = _cf4_run(system, schedule, 0.25e-12, 16)
        exponentials.clear()
        monkeypatch.setattr(propagate, "_CHUNK_BYTES",
                            3 * 8 * (propagate._SUBSTEP_ARRAYS * 4 * 4 + 4))
        assert np.array_equal(_cf4_run(system, schedule, 0.25e-12, 16), whole)
        assert exponentials == [6, 2]  # the 4 substeps of the half

class TestExpmSym:
    def test_substep_exponentials_of_the_40ns_cz_are_exact(self, transmon_pair, monkeypatch):
        # on the CF4 substep pairs of the 40 ns CZ oracle (49 states) each
        # exponential is within 1e-15 of scipy's; eigh's is 2-4e-15 off
        system = cz_40ns(transmon_pair)
        taken, real = [], propagate._expm_sym

        def keeping(a, scale):
            out = real(a, scale)
            taken.append((a, scale, out))
            return out

        monkeypatch.setattr(propagate, "_expm_sym", keeping)
        _cf4_run(system, sc.PulseSchedule.random(np.random.default_rng(4), 2, 4),
                 0.25e-12, 64)
        assert sum(math.prod(a.shape[:-2]) for a, _, _ in taken) >= 100
        for a, scale, out in taken:
            for i in np.ndindex(a.shape[:-2]):
                np.testing.assert_allclose(
                    out[i], scipy.linalg.expm(-1j * scale * a[i]), rtol=0, atol=1e-15
                )

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 8),
        norms=st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=1, max_size=5),
        scale=st.sampled_from([1.0, -0.7, 2.5e-13]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=5, norms=[0.0, 0.3, 40.0, 1e3], scale=1.0, seed=0)  # 0 to 12 squarings
    def test_a_stack_is_each_matrix_alone_and_matches_scipy(self, d, norms, scale, seed):
        # norms (of scale * a) up to 1e3 take up to 12 squarings, several
        # counts in one stack
        g = np.random.default_rng(seed).normal(size=(len(norms), d, d))
        a = g + g.swapaxes(-1, -2)
        a *= (np.array(norms) / np.maximum(np.abs(scale * a).sum(axis=1).max(axis=1),
                                           1e-300))[:, None, None]
        stack = _expm_sym(a, scale)
        assert stack.shape == a.shape and stack.dtype == complex
        for i in range(len(a)):
            assert np.array_equal(stack[i], _expm_sym(a[i], scale))
            np.testing.assert_allclose(
                stack[i], scipy.linalg.expm(-1j * scale * a[i]), rtol=0, atol=1e-12
            )

    def test_the_series_is_exact_to_rounding_up_to_theta(self):
        # 1 x 1 matrices up to _EXPM_THETA take no squaring, and the series
        # must be exact to rounding there (one term shorter, 4e-15 off)
        lam = np.linspace(-propagate._EXPM_THETA, propagate._EXPM_THETA, 2001)
        got = _expm_sym(lam[:, None, None], 1.0)[:, 0, 0]
        np.testing.assert_allclose(got, np.exp(-1j * lam), rtol=0, atol=3e-16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_matrix_is_refused(self, bad):
        a = np.zeros((2, 3, 3))
        a[1, 0, 2] = a[1, 2, 0] = bad
        with pytest.raises(ValueError, match="nan or inf"):
            _expm_sym(a, 0.5)
        with pytest.raises(ValueError, match="nan or inf"):
            _expm_sym(np.eye(3), bad)


def stepwise_cf4(system, schedule, pulse_width, substeps_per_cycle, cutoff):
    """The plain loop: a CF4 step for every substep, summing every pulse
    within ``cutoff`` widths of each node (cycle 0 shifted five widths in)."""
    h = system.clock_period / substeps_per_cycle
    gens = [kick_generator(system, c) for c in system.channels]
    pulses = [
        (c, t * substeps_per_cycle, 5.0 * pulse_width if t == 0 else 0.0)
        for c, t in zip(*np.nonzero(schedule.bits))
    ]
    norm = 1.0 / (pulse_width * np.sqrt(2.0 * np.pi))
    u = np.eye(system.dim_sim, dtype=complex)
    for s in range(schedule.num_cycles * substeps_per_cycle):
        h_nodes = []
        for node in (0.5 - _CF4_NODE, 0.5 + _CF4_NODE):
            h_node = system.h_static
            for c, step, shift in pulses:
                x = ((s - step) + node) * h - shift
                if abs(x) <= cutoff * pulse_width:
                    amp = norm * np.exp(-0.5 * (x / pulse_width) ** 2)
                    h_node = h_node + amp * gens[c]
            h_nodes.append(h_node)
        h1, h2 = h_nodes
        first = _CF4_W1 * h1 + _CF4_W2 * h2
        second = _CF4_W2 * h1 + _CF4_W1 * h2
        u = _expm_herm(second, h) @ (_expm_herm(first, h) @ u)
    return u


_SLOTS = [(0, "x"), (1, "z"), (1, "x")]


# Widths are in units of the 8 ps clock period T.  At the 8-width cutoff a
# window edge holds ~1e-14 of a pulse, below any tolerance, so the cutoff is
# also drawn at 3 widths, where one substep at an edge carries weight.
@settings(max_examples=60, deadline=None)
@given(
    nch=st.integers(1, 3),
    masks=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    substeps=st.integers(8, 64),
    width=st.floats(0.1 / 8.0, 0.25),
    cutoff=st.sampled_from([propagate._PULSE_CUTOFF_SIGMAS, 3.0]),
)
@example(nch=1, masks=[1, 0, 0], substeps=16, width=0.05, cutoff=8.0)  # cycle 0
@example(nch=2, masks=[3, 1, 0, 2], substeps=12, width=0.24, cutoff=8.0)  # 5w > T
@example(nch=2, masks=[1, 2, 3, 1, 2], substeps=24, width=0.2, cutoff=3.0)  # overlap
@example(nch=1, masks=[0, 0, 1], substeps=16, width=0.2, cutoff=8.0)  # cut at the end
@example(nch=1, masks=[0, 1, 0], substeps=16, width=0.2, cutoff=3.0)  # centred
@example(nch=2, masks=[0, 3, 0, 1], substeps=16, width=0.1, cutoff=8.0)  # 2 in a cycle
@example(nch=2, masks=[0, 0, 0, 1, 0, 0, 3], substeps=12, width=0.15,
         cutoff=8.0)  # a centred window, then two pulses cut at the end
def test_cf4_run_is_the_stepwise_loop(
    transmon_pair, nch, masks, substeps, width, cutoff
):
    q0, q1 = transmon_pair
    channels = [sc.ControlChannel(q, axis, 0.3) for q, axis in _SLOTS[:nch]]
    system = make_pair_system(q0, q1, n_levels=2, n_sim=3, channels=channels)
    bits = (np.array(masks)[None, :] >> np.arange(nch)[:, None]) & 1
    schedule = sc.PulseSchedule(bits)
    pulse_width = width * system.clock_period
    ref = stepwise_cf4(system, schedule, pulse_width, substeps, cutoff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_PULSE_CUTOFF_SIGMAS", cutoff)
        got = _cf4_run(system, schedule, pulse_width, substeps)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_each_stretch_length_is_formed_once(transmon_pair, monkeypatch):
    # pulses every third cycle over 240: the stretches between windows
    # repeat, and each distinct length is exponentiated once
    q0, _ = transmon_pair
    system = sc.assemble([q0], 2, 3, channels=[sc.ControlChannel(0, "x", 0.3)])
    bits = np.zeros((1, 240), np.uint8)
    bits[0, 2::3] = 1
    schedule = sc.PulseSchedule(bits)
    width, substeps = 0.1 * system.clock_period, 8
    formed = []
    static = propagate._static_propagator

    def counting(eig, t):
        formed.append(t)
        return static(eig, t)

    monkeypatch.setattr(propagate, "_static_propagator", counting)
    got = _cf4_run(system, schedule, width, substeps)
    h = system.clock_period / substeps
    # windows of 2 * 7 substeps: 9 before the first, 10 between, 1 after
    assert sorted(formed) == [1 * h, 9 * h, 10 * h]
    ref = stepwise_cf4(system, schedule, width, substeps, propagate._PULSE_CUTOFF_SIGMAS)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def z_phases(angles, d):
    """exp(i k . angles) on the d computational states k, the first angle on
    the first (most significant) qubit: rotates a block to its f2."""
    k = (np.arange(d)[:, None] >> np.arange(len(angles))[::-1]) & 1
    return np.exp(1j * k @ np.array(angles))


def assert_column_path_is_the_cut(system, bits, subsets):
    """evolve_full from the start states of each subset is the whole
    unitary cut to those columns, and its metrics are the cut's."""
    cycles = sc.precompute(system)
    comp, every = system.comp_sim_indices, np.arange(system.dim_sim)
    schedules = [sc.PulseSchedule(row) for row in bits]
    wholes = [sc.evolve_full(cycles, schedule) for schedule in schedules]
    for cols in map(np.asarray, subsets):
        reach = system.reach(cols)
        outside = np.setdiff1d(every, reach)
        # the closure the reach rule assumes: no cycle matrix carries a
        # reached state outside the reach
        leak = cycles.combos[:, outside][:, :, reach]
        assert np.max(np.abs(leak), initial=0.0) <= 1e-13
        for schedule, u in zip(schedules, wholes):
            block = sc.evolve_full(cycles, schedule, cols)
            assert block.shape == (system.dim_sim, len(cols))
            assert np.max(np.abs(block - u[:, cols])) <= 1e-12
            assert not np.any(block[outside])
    target = lookup_target("CZ" if system.num_qubits == 2 else "X")
    for schedule, u in zip(schedules, wholes):
        # the metrics of the column path equal those of the whole unitary
        # cut to its computational columns
        cols = sc.evolve_full(cycles, schedule, comp)
        cut, path = (gate_breakdown(v, system, target) for v in (u[:, comp], cols))
        np.testing.assert_allclose((path.f1, path.f2, path.leakage),
                                   (cut.f1, cut.f2, cut.leakage), rtol=0, atol=1e-12)
        # f2's maximizer may be degenerate, so the angles themselves may
        # differ (by pi, or conjugated); each side's angles must rotate the
        # other side's block to that side's f2
        for mine, theirs in ((path, u[:, comp]), (cut, cols)):
            rotated = z_phases(mine.z_angles, len(comp))[:, None] * theirs[comp]
            assert abs(sc.avg_fidelity_f1(rotated, target) - mine.f2) <= 1e-12
        assert path.leakage == avg_leakage(cols, system)


@settings(max_examples=60, deadline=None)
@given(random_problems(), st.data())
def test_column_path_is_the_full_unitary_cut(problem, data):
    # any start states: the computational ones, a random subset, one state,
    # the top state (e.g. |22>, outside the computational reach) and all
    system, bits = problem
    comp, every = system.comp_sim_indices, np.arange(system.dim_sim)
    state = st.sampled_from(every.tolist())
    top = system.levels.sum(axis=1).argmax()
    subsets = (comp, data.draw(st.lists(state, min_size=1, unique=True)),
               [data.draw(state)], [top], every)
    assert_column_path_is_the_cut(system, bits, subsets)


def test_column_path_on_a_degenerate_f2():
    # two identical fluxonium qubits, J = 0, one z channel: f2's maximizer
    # is degenerate, and the column path and the whole unitary return
    # Z angles that differ by pi or by conjugation
    q = sc.fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, 3)
    system = sc.assemble([q, q], 2, 3, 0.0, [sc.ControlChannel(1, "z", 0.375)])
    bits = (np.array([1, 23, 33])[:, None, None] >> np.arange(9)) & 1
    assert_column_path_is_the_cut(system, bits.astype(np.uint8),
                                  [system.comp_sim_indices])


class TestBitstreamFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        sch = sc.PulseSchedule.random(rng, 2, 33)
        path = tmp_path / "bits.txt"
        sc.write_bitstreams(path, sch, ["0:x", "1:z"], 8.0)
        again, keys, clock = sc.read_bitstreams(path)
        assert np.array_equal(sch.bits, again.bits)
        assert keys == ["0:x", "1:z"]
        assert clock == 8.0
        # writing the parsed schedule again reproduces the file byte for byte
        path2 = tmp_path / "bits2.txt"
        sc.write_bitstreams(path2, again, keys, clock)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_formats(self, tmp_path):
        path = tmp_path / "bits.txt"
        sc.write_bitstreams(path, sc.PulseSchedule.zeros(1, 5), ["0:z"], 8.0)
        first = path.read_text().splitlines()[0]
        assert first == "# channel=0:z cycles=5 clock_ps=8.0"

    @pytest.mark.parametrize(
        "content",
        [
            "0101\n",  # missing header
            "# channel=0:x cycles=4 clock_ps=8.0\n01a1\n",  # bad characters
            "# channel=0:x cycles=5 clock_ps=8.0\n0101\n",  # length mismatch
            "# channel=0:x cycles=4 clock_ps=8.0\n",  # missing row
            "# channel=0:x cycles=2 clock_ps=8.0\n01\n"
            "# channel=0:x cycles=2 clock_ps=8.0\n10\n",  # duplicate channel
            "# channel=0:x cycles=2 clock_ps=8.0\n01\n"
            "# channel=1:x cycles=2 clock_ps=9.0\n10\n",  # clock mismatch
            "",  # empty
            b"# channel=0:x cycles=2 clock_ps=8.0\n0\xff\n",  # non-ASCII byte
            "# channel=0:x cycles=2 clock_ps=8.0\n01\n"
            "# channel=1:x cycles=3 clock_ps=8.0\n101\n",  # unequal channels
            "# channel=0:x cycles=2 clock_ps=nan\n01\n",  # clock not finite
            "# channel=0:x cycles=2 clock_ps=inf\n01\n",
            "# channel=0:x cycles=2 clock_ps=-8.0\n01\n",  # clock not positive
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(BitstreamFormatError):
            sc.read_bitstreams(path)

    def test_key_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            sc.write_bitstreams(
                tmp_path / "x.txt", sc.PulseSchedule.zeros(2, 3), ["0:x"], 8.0
            )

    @pytest.mark.parametrize("keys,clock,cycles", [
        (["a b", "1:z"], 8.0, 3),  # would read back as "a"
        (["", "1:z"], 8.0, 3),
        (["0:x", "1:z\t"], 8.0, 3),
        (["0:x", "0:x"], 8.0, 3),  # read_bitstreams refuses duplicates
        (["0:x", "\u00e9"], 8.0, 3),  # the file is ASCII
        (["0:x", "1:z"], 0.0, 3),
        (["0:x", "1:z"], -1.0, 3),
        (["0:x", "1:z"], float("nan"), 3),
        (["0:x", "1:z"], float("inf"), 3),
        (["0:x", "1:z"], 8.0, 0),  # would read back as a missing bit row
    ])
    def test_writer_refuses_what_the_reader_cannot_read(self, tmp_path, keys, clock, cycles):
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError):
            sc.write_bitstreams(path, sc.PulseSchedule.zeros(2, cycles), keys, clock)
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.text("0123456789abcdefghijklmnopqrstuvwxyz:_-", min_size=1),
                  min_size=1, max_size=4, unique=True),
    cycles=st.integers(1, 300),
    clock=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    clock_type=st.sampled_from([float, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bitstream_round_trip(tmp_path_factory, keys, cycles, clock, clock_type, seed):
    schedule = sc.PulseSchedule.random(np.random.default_rng(seed), len(keys), cycles)
    path = tmp_path_factory.mktemp("bits") / "bits.txt"
    sc.write_bitstreams(path, schedule, keys, clock_type(clock))
    again, read_keys, read_clock = sc.read_bitstreams(path)
    assert np.array_equal(again.bits, schedule.bits)
    assert (read_keys, read_clock) == (keys, clock)


def _valid_bitstream_file() -> bytes:
    rows = ["0110100111", "1100011010"]
    return "".join(
        f"# channel={key} cycles={len(row)} clock_ps=8.0\n{row}\n"
        for key, row in zip(["0:x", "1:z"], rows)
    ).encode()


@st.composite
def mutated_files(draw):
    """A valid two-channel file with a few bytes replaced, cut or inserted."""
    data = bytearray(_valid_bitstream_file())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "delete", "insert"]))
        chunk = draw(st.binary(min_size=1, max_size=3))
        if kind == "replace":
            data[at : at + len(chunk)] = chunk
        elif kind == "delete":
            del data[at : at + len(chunk)]
        else:
            data[at:at] = chunk
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(content=st.one_of(st.binary(max_size=200), mutated_files()))
def test_read_bitstreams_raises_only_format_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz_bits.txt"
    path.write_bytes(content)
    try:
        schedule, keys, clock = sc.read_bitstreams(path)
    except BitstreamFormatError:
        return
    assert len(keys) == schedule.num_channels
    assert np.isfinite(clock) and clock > 0
