"""Composite-system assembly: static Hamiltonian, kicks, targets."""

import numpy as np
import pytest
import scipy.linalg

import sfq_control as sc
from conftest import GHZ, make_pair_system
from sfq_control.system import _expm_herm, kick_generator, lookup_target


# (qubit type, number of qubits, n_levels, n_sim_levels): equal truncations
# and n_levels = 2 included.
SYSTEMS = [
    (kind, nq, nl, ns)
    for kind in ("transmon", "fluxonium")
    for nq in (1, 2)
    for nl, ns in ((2, 2), (2, 3), (3, 4), (4, 4), (3, 6))
]


def build(kind, nq, nl, ns):
    if kind == "transmon":
        qubits = [sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, ns),
                  sc.transmon_levels(3.5 * GHZ, -0.225 * GHZ, ns)]
    else:
        qubits = [sc.fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, ns),
                  sc.fluxonium_levels(5.7 * GHZ, 1.2 * GHZ, 1.0 * GHZ, np.pi, ns)]
    j = 0.05 * GHZ if nq == 2 else 0.0
    return sc.assemble(qubits[:nq], nl, ns, j, [sc.ControlChannel(0, "x", 0.01)])


def learn_reach(system):
    """The learning states the computational columns reach, indexed within
    the learning subspace."""
    learn = system.learn_indices
    return np.searchsorted(learn, np.intersect1d(learn, system.reach(system.comp_sim_indices)))


class TestStaticHamiltonian:
    @pytest.mark.parametrize("kind,nq,nl,ns", SYSTEMS)
    def test_bare_energies_are_the_outer_sum(self, kind, nq, nl, ns):
        system = build(kind, nq, nl, ns)
        e = [q.energies[:ns] for q in system.qubits]
        expected = e[0] if nq == 1 else np.add.outer(e[0], e[1]).ravel()
        np.testing.assert_array_equal(system.bare_energies, expected)

    @pytest.mark.parametrize("kind,nq,nl,ns", SYSTEMS)
    def test_off_diagonal_is_exactly_the_exchange(self, kind, nq, nl, ns):
        # <a, b|H|a+1, b-1> = J c0[a] c1[b-1] / (c0[0] c1[0]), and its mirror
        system = build(kind, nq, nl, ns)
        exchange = np.zeros((ns**nq, ns**nq))
        if nq == 2:
            c0, c1 = (q.charge[: ns - 1] for q in system.qubits)
            for a in range(ns - 1):
                for b in range(1, ns):
                    v = system.j_coupling * (c0[a] / c0[0] * (c1[b - 1] / c1[0]))
                    exchange[a * ns + b, (a + 1) * ns + b - 1] = v
                    exchange[(a + 1) * ns + b - 1, a * ns + b] = v
        np.testing.assert_array_equal(
            system.h_static - np.diag(system.bare_energies), exchange
        )

    def test_single_qubit_is_diagonal(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 3, 5, channels=[sc.ControlChannel(0, "x", 0.01)])
        np.testing.assert_allclose(
            system.h_static, np.diag(q0.energies[:5]), atol=0
        )

    def test_pair_diagonal_is_bare_sum(self, transmon_pair):
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1)
        e0, e1 = q0.energies[:7], q1.energies[:7]
        expected = (e0[:, None] + e1[None, :]).ravel()
        np.testing.assert_allclose(np.diag(system.h_static), expected, rtol=1e-15)
        np.testing.assert_allclose(system.bare_energies, expected, rtol=1e-15)

    def test_exchange_element_is_exactly_j(self, transmon_pair):
        q0, q1 = transmon_pair
        j = 0.05 * GHZ
        system = make_pair_system(q0, q1, j_ghz=0.05)
        ns = 7
        assert system.h_static[0 * ns + 1, 1 * ns + 0] == pytest.approx(j, rel=1e-15)
        # next rung scales with the charge ratios: <11|H|20> = sqrt(2) J
        assert system.h_static[1 * ns + 1, 2 * ns + 0] == pytest.approx(
            np.sqrt(2) * j, rel=1e-12
        )

    def test_conserves_total_excitation(self, transmon_pair):
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1)
        ns = 7
        n_tot = np.kron(np.diag(np.arange(ns)), np.eye(ns)) + np.kron(
            np.eye(ns), np.diag(np.arange(ns))
        )
        comm = system.h_static @ n_tot - n_tot @ system.h_static
        assert np.max(np.abs(comm)) == 0.0

    def test_hybridization_angle_frozen(self, transmon_pair):
        # J/2pi = 50 MHz, Delta/2pi = 400 MHz: 0.5 atan(2J/Delta) = 0.1224893
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1)
        ns = 7
        idx = [0 * ns + 1, 1 * ns + 0]
        block = system.h_static[np.ix_(idx, idx)]
        _, vecs = np.linalg.eigh(block)
        angle = abs(np.arctan2(vecs[1, 1], vecs[0, 1]))
        assert min(angle, np.pi / 2 - angle) == pytest.approx(0.1224893, abs=1e-7)

    def test_fluxonium_coupling_uses_charge_ratios(self):
        fq = sc.fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, 6)
        tq = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 6)
        j = 0.02 * GHZ
        system = sc.assemble(
            [fq, tq], 3, 6, j, [sc.ControlChannel(0, "x", 0.01)]
        )
        ns = 6
        assert system.h_static[0 * ns + 1, 1 * ns + 0] == pytest.approx(j, rel=1e-12)
        ratio = fq.charge[1] / fq.charge[0]
        assert system.h_static[1 * ns + 1, 2 * ns + 0] == pytest.approx(
            j * ratio, rel=1e-12
        )


class TestIndexMaps:
    @pytest.mark.parametrize("kind,nq,nl,ns", SYSTEMS)
    def test_index_maps_enumerated(self, kind, nq, nl, ns):
        system = build(kind, nq, nl, ns)
        if nq == 1:
            learn, comp = list(range(nl)), [0, 1]
        else:
            learn = [i * ns + k for i in range(nl) for k in range(nl)]
            comp = [0, 1, nl, nl + 1]
        assert system.learn_indices.tolist() == learn
        assert system.comp_indices.tolist() == comp
        assert system.dim_sim == ns**nq and system.dim_learn == nl**nq

    def test_learning_and_computational_indices(self, transmon_pair):
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1, n_levels=5, n_sim=7)
        expected = [i * 7 + k for i in range(5) for k in range(5)]
        assert system.learn_indices.tolist() == expected
        assert system.comp_indices.tolist() == [0, 1, 5, 6]
        assert system.dim_sim == 49 and system.dim_learn == 25

    def test_single_qubit_indices(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 2, 4, channels=[sc.ControlChannel(0, "x", 0.01)])
        assert system.learn_indices.tolist() == [0, 1]
        assert system.comp_indices.tolist() == [0, 1]

    def test_z_only_pair_reaches_two_excitations(self, transmon_pair):
        # the search_z shape: 00, 01, 02, 10, 11, 20 of the 25 learning states
        system = make_pair_system(
            *transmon_pair, n_levels=5, n_sim=7, channels=[sc.ControlChannel(1, "z", 0.03)]
        )
        assert learn_reach(system).tolist() == [0, 1, 2, 5, 6, 10]

    def test_z_only_two_level_pair_reaches_every_state(self, transmon_pair):
        system = make_pair_system(*transmon_pair, n_levels=2, n_sim=3)
        assert learn_reach(system).tolist() == [0, 1, 2, 3]

    def test_z_only_single_qubit_reaches_the_qubit(self, transmon_pair):
        q0, _ = transmon_pair
        system = sc.assemble([q0], 4, 5, channels=[sc.ControlChannel(0, "z", 0.03)])
        assert learn_reach(system).tolist() == [0, 1]

    def test_one_reach_rule_for_both_spaces(self, transmon_pair):
        # one rule over the level table; the learning states and every state
        # reach their whole space
        z_pair = make_pair_system(*transmon_pair, n_levels=2, n_sim=3)
        assert z_pair.reach(z_pair.comp_sim_indices).tolist() == [0, 1, 2, 3, 4, 6]
        x_pair = make_pair_system(*transmon_pair, n_levels=2, n_sim=3,
                                  channels=[sc.ControlChannel(0, "x", 0.01)])
        assert x_pair.reach(x_pair.comp_sim_indices).tolist() == list(range(9))
        for system in (z_pair, x_pair, make_pair_system(*transmon_pair)):
            learn, every = system.learn_indices, np.arange(system.dim_sim)
            assert np.isin(learn, system.reach(learn)).all()
            assert system.reach(every).tolist() == every.tolist()
            assert system.comp_sim_indices.tolist() == learn[system.comp_indices].tolist()

    @pytest.mark.parametrize("x_qubit", [0, 1])
    def test_any_x_channel_reaches_every_state(self, transmon_pair, x_qubit):
        channels = [sc.ControlChannel(0, "z", 0.03), sc.ControlChannel(1, "z", 0.03),
                    sc.ControlChannel(x_qubit, "x", 0.01)]
        system = make_pair_system(*transmon_pair, n_levels=5, n_sim=7, channels=channels)
        assert learn_reach(system).tolist() == list(range(25))
        q0, _ = transmon_pair
        single = sc.assemble([q0], 4, 5, channels=[sc.ControlChannel(0, "x", 0.03)])
        assert learn_reach(single).tolist() == [0, 1, 2, 3]


class TestKicks:
    def test_x_generator_matrix(self, transmon_pair):
        q0, _ = transmon_pair
        ch = sc.ControlChannel(0, "x", 0.003)
        system = sc.assemble([q0], 3, 5, channels=[ch])
        gen = kick_generator(system, ch)
        n_op = np.diag(q0.charge[:4], 1) + np.diag(q0.charge[:4], -1)
        np.testing.assert_allclose(gen, 0.003 * n_op, atol=0)

    def test_x_kick_is_bloch_rotation_on_qubit_subspace(self, transmon_pair):
        # at n_sim = 2 the charge block is sigma_x / 2 exactly
        q0, _ = transmon_pair
        tip = 0.25
        ch = sc.ControlChannel(0, "x", tip)
        system = sc.assemble([q0], 2, 2, channels=[ch])
        u = _expm_herm(kick_generator(system, ch))
        expected = np.array(
            [
                [np.cos(tip / 2), -1j * np.sin(tip / 2)],
                [-1j * np.sin(tip / 2), np.cos(tip / 2)],
            ]
        )
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_kick_against_expm_oracle(self, transmon_pair):
        q0, q1 = transmon_pair
        ch = sc.ControlChannel(1, "x", 0.03)
        system = make_pair_system(q0, q1, channels=[ch])
        gen = kick_generator(system, ch)
        oracle = scipy.linalg.expm(-1j * gen)
        np.testing.assert_allclose(_expm_herm(gen), oracle, atol=1e-12)

    def test_z_kick_phases(self, transmon_pair):
        q0, _ = transmon_pair
        tip = 0.03
        ch = sc.ControlChannel(0, "z", tip)
        system = sc.assemble([q0], 3, 5, channels=[ch])
        u = _expm_herm(kick_generator(system, ch))
        np.testing.assert_allclose(
            u, np.diag(np.exp(-1j * tip * np.arange(5))), atol=1e-14
        )

    def test_kicks_embed_on_correct_qubit(self, transmon_pair):
        q0, q1 = transmon_pair
        ch = sc.ControlChannel(1, "z", 0.1)
        system = make_pair_system(q0, q1, n_levels=2, n_sim=3, channels=[ch])
        u = _expm_herm(kick_generator(system, ch))
        expected = np.kron(
            np.eye(3), np.diag(np.exp(-1j * 0.1 * np.arange(3)))
        )
        np.testing.assert_allclose(u, expected, atol=1e-14)


class TestValidation:
    def test_rejects_bad_shapes(self, transmon_pair):
        q0, q1 = transmon_pair
        with pytest.raises(ValueError):
            sc.assemble([q0], 3, 5, j_coupling=1.0,
                        channels=[sc.ControlChannel(0, "x", 0.1)])
        with pytest.raises(ValueError):
            sc.assemble([q0, q1], 6, 5)
        with pytest.raises(ValueError):
            sc.assemble([q0, q1], 1, 5)
        with pytest.raises(ValueError):
            sc.assemble([q0, q1], 3, 12)  # qubits only carry 9 levels
        with pytest.raises(ValueError):
            sc.assemble([q0, q1], 3, 5, channels=[sc.ControlChannel(2, "x", 0.1)])
        with pytest.raises(ValueError):
            sc.assemble(
                [q0, q1], 3, 5,
                channels=[sc.ControlChannel(0, "x", 0.1),
                          sc.ControlChannel(0, "x", 0.2)],
            )
        with pytest.raises(ValueError):
            sc.assemble([q0], 3, 5, clock_period=0.0)

    def test_rejects_overflowing_physics(self, transmon_pair):
        # the coupling or the kick generators overflow to inf: refused
        # without a RuntimeWarning
        q0, q1 = transmon_pair
        for j in (np.inf, 1e308):
            with pytest.raises(ValueError, match="static Hamiltonian overflows"):
                sc.assemble([q0, q1], 3, 5, j_coupling=j)
        z0, z1 = (sc.ControlChannel(q, "z", 1e308) for q in (0, 1))
        sc.assemble([q0, q1], 2, 2, channels=[z0])  # tip * (n_sim - 1) is finite
        # at n_sim = 3 that is 2e308; at n_sim = 2 the two kicks sum to it
        for n_sim, channels in ((3, [z0]), (2, [z0, z1])):
            with pytest.raises(ValueError, match="kick generators overflow"):
                sc.assemble([q0, q1], 2, n_sim, channels=channels)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            sc.ControlChannel(0, "y", 0.1)
        with pytest.raises(ValueError):
            sc.ControlChannel(0, "x", 0.0)
        with pytest.raises(ValueError):
            sc.ControlChannel(-1, "x", 0.1)


class TestTargets:
    def test_library_gates_are_unitary(self):
        for name, target in sc.target_library().items():
            m = target.matrix
            np.testing.assert_allclose(
                m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12, err_msg=name
            )

    def test_cz_matrix(self):
        np.testing.assert_allclose(
            lookup_target("cz").matrix, np.diag([1, 1, 1, -1]), atol=0
        )

    def test_lookup_is_case_insensitive(self):
        assert lookup_target("iswap").name == "ISWAP"

    def test_unknown_gate(self):
        with pytest.raises(KeyError, match="unknown gate"):
            lookup_target("SQRT_NOPE")

    def test_rejects_non_unitary_target(self):
        with pytest.raises(ValueError):
            sc.GateTarget("bad", np.array([[1, 0], [0, 2]]))
