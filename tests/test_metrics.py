"""Fidelity and leakage metrics against hand-computed and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfq_control as sc
from conftest import GHZ, learning_block, make_pair_system, random_unitary
from sfq_control.metrics import (
    _f2_batch,
    agreement_f1,
    avg_fidelity_f1,
    avg_leakage,
    gate_breakdown,
    rz_fidelity_f2,
)
from sfq_control.search import evaluate_fitness
from sfq_control.system import assemble, lookup_target


def score_f1(a, target):
    return avg_fidelity_f1(np.asarray(a, complex), lookup_target(target))


def score_f2(a, target):
    return rz_fidelity_f2(np.asarray(a, complex), lookup_target(target))


@pytest.fixture(scope="module")
def sim3(transmon_pair):
    """Systems simulated at 3 levels per qubit: {1: one qubit, 2: a pair}."""
    q0, q1 = transmon_pair
    return {1: assemble([q0], 2, 3), 2: assemble([q0, q1], 2, 3, 0.05 * GHZ)}


def comp_columns(u, system):
    """The computational columns of a whole full-space unitary."""
    return u[:, system.comp_sim_indices]


class TestF1:
    def test_hand_cases_one_qubit(self):
        # A = |0><0| vs I: (1 + 1) / 6
        assert score_f1(np.diag([1, 0]), "I") == pytest.approx(1 / 3)
        # A = |1><0| vs I: gamma = 1, trace overlap 0: 1/6
        assert score_f1([[0, 0], [1, 0]], "I") == pytest.approx(1 / 6)
        # exact match
        assert score_f1(np.eye(2), "I") == pytest.approx(1.0)
        x = lookup_target("X").matrix
        assert score_f1(x, "X") == pytest.approx(1.0)

    def test_hand_cases_two_qubit(self):
        # identity scored against CZ: gamma = 4, tr(T^dag A) = 2: (4+4)/20
        assert score_f1(np.eye(4), "CZ") == pytest.approx(0.4)
        cz = lookup_target("CZ").matrix
        assert score_f1(cz, "CZ") == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        f_base = score_f1(a, "CZ")
        for phi in (0.3, 1.7, -2.2):
            assert score_f1(np.exp(1j * phi) * a, "CZ") == pytest.approx(
                f_base, abs=1e-12
            )

    def test_uses_computational_block_of_learning_space(self, transmon_pair):
        # learning space 3 levels/qubit: rows/cols {0,1,3,4} are scored, and
        # norm_loss is what columns {0,1,3,4} lose from all nine rows
        channels = [sc.ControlChannel(0, "x", 0.2), sc.ControlChannel(1, "z", 0.3)]
        system = assemble(transmon_pair, 3, 4, 0.05 * GHZ, channels)
        comp = [0, 1, 3, 4]
        assert system.comp_indices.tolist() == comp
        cycles = sc.precompute(system)
        bits = np.random.default_rng(3).integers(0, 2, size=(2, 30), dtype=np.uint8)
        u = learning_block(cycles, bits)
        target = lookup_target("CZ")
        bd = evaluate_fitness(cycles, sc.PulseSchedule(bits), target)
        block = u[np.ix_(comp, comp)]
        want = (score_f1(block, "CZ"), score_f2(block, "CZ")[0],
                1.0 - np.sum(np.abs(u[:, comp]) ** 2) / 4)
        np.testing.assert_allclose((bd.f1, bd.f2, bd.norm_loss), want, rtol=0, atol=1e-12)
        assert bd.norm_loss > 1e-6 and bd.leakage is None

    def test_validation(self, transmon_pair):
        with pytest.raises(ValueError):
            score_f1(np.eye(3), "I")
        with pytest.raises(ValueError):
            score_f2(np.eye(4), "I")
        system = assemble(transmon_pair, 2, 3, 0.05 * GHZ, [sc.ControlChannel(0, "z", 0.1)])
        cycles = sc.precompute(system)
        with pytest.raises(ValueError, match="channels"):
            evaluate_fitness(cycles, sc.PulseSchedule.zeros(2, 4), lookup_target("CZ"))
        with pytest.raises(ValueError, match="computational block"):
            evaluate_fitness(cycles, sc.PulseSchedule.zeros(1, 4), lookup_target("X"))


def brute_force_f2(a, target, n_grid=480):
    """Direct 2D supremum over both trailing Z angles, on an n_grid^2 grid."""
    d = target.shape[0]
    gamma = np.sum(np.abs(a) ** 2)
    v = np.sum(np.conj(target) * a, axis=1)  # tr(T^dag D A) = sum_k D_k v_k
    angles = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    if d == 4:
        t0, t1 = np.meshgrid(angles, angles, indexing="ij")
        phase = t0[..., None] * [0, 0, 1, 1] + t1[..., None] * [0, 1, 0, 1]
    else:
        phase = angles[:, None] * [0, 1]
    best = np.max(np.abs(np.exp(1j * phase) @ v))
    return (gamma + best**2) / (d * (d + 1))


class TestF2:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a *= 0.5
            f2, _ = score_f2(a, "CZ")
            brute = brute_force_f2(a, lookup_target("CZ").matrix)
            assert f2 >= brute - 1e-9
            assert f2 == pytest.approx(brute, abs=1e-4)

    def test_one_qubit_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            f2, _ = score_f2(a, "I")
            brute = brute_force_f2(a, np.eye(2), n_grid=6000)
            assert f2 >= brute - 1e-9
            assert f2 == pytest.approx(brute, abs=1e-6)

    def test_never_below_f1(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert score_f2(a, "CZ")[0] >= score_f1(a, "CZ") - 1e-12

    def test_absorbs_trailing_z(self):
        # multiplying A by any per-qubit trailing Z leaves f2 unchanged
        rng = np.random.default_rng(4)
        a = random_unitary(rng, 4)
        base, _ = score_f2(a, "CZ")
        for t0, t1 in [(0.4, -1.1), (2.0, 0.7)]:
            d = np.exp(1j * (t0 * np.array([0, 0, 1, 1]) + t1 * np.array([0, 1, 0, 1])))
            rotated, _ = score_f2(d[:, None] * a, "CZ")
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_angles_reproduce_supremum(self):
        rng = np.random.default_rng(5)
        a = random_unitary(rng, 4)
        f2, (t0, t1) = score_f2(a, "CZ")
        d = np.exp(1j * (t0 * np.array([0, 0, 1, 1]) + t1 * np.array([0, 1, 0, 1])))
        f1_rotated = score_f1(d[:, None] * a, "CZ")
        assert f1_rotated == pytest.approx(f2, abs=1e-9)

    def test_perfect_gate_up_to_z(self):
        cz = lookup_target("CZ").matrix
        d = np.exp(1j * (0.9 * np.array([0, 0, 1, 1]) - 0.3 * np.array([0, 1, 0, 1])))
        f2, _ = score_f2(d[:, None] * cz, "CZ")
        assert f2 == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        batch, _ = _f2_batch(a, lookup_target("CZ").matrix)
        for i in range(7):
            scalar, _ = score_f2(a[i], "CZ")
            assert batch[i] == pytest.approx(scalar, abs=1e-12)


def dense_sup_f2(a, target, n_theta=20_000):
    """F2 from a dense 1-D supremum over the outer angle theta, the inner
    phase x in closed form: sup over |x| = 1 of |u + x v| is |u| + |v|."""
    gamma = np.sum(np.abs(a) ** 2)
    v = np.sum(np.conj(target) * a, axis=1)
    y = np.exp(1j * np.linspace(0, 2 * np.pi, n_theta, endpoint=False))
    g = np.abs(v[0] + v[1] * y) + np.abs(v[2] + v[3] * y)
    return (gamma + np.max(g) ** 2) / 20


# Rows whose zeroing makes a block degenerate: p = w0 + w1 y vanishes with
# rows 0 and 1, q = w2 + w3 y with rows 2 and 3, and g is flat (w1 = w3 = 0)
# with rows 1 and 3, since w_k reads row k only.
_ZERO_ROWS = {
    "ginibre": [], "near_unitary": [], "p_zero": [0, 1], "q_zero": [2, 3], "flat": [1, 3],
}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(_ZERO_ROWS)),
    target=st.sampled_from(["CZ", "II", "ISWAP", "CNOT"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="flat", target="CZ", seed=0)
@example(kind="p_zero", target="ISWAP", seed=0)
@example(kind="q_zero", target="CNOT", seed=0)
def test_f2_on_degenerate_blocks(kind, target, seed):
    rng = np.random.default_rng(seed)
    a = 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    if kind == "near_unitary":
        a = random_unitary(rng, 4) + 1e-3 * a
    a[_ZERO_ROWS[kind]] = 0.0
    t = lookup_target(target)
    with np.errstate(all="raise"):
        f2, (t0, t1) = rz_fidelity_f2(a, t)
        d = np.exp(1j * (t0 * np.array([0, 0, 1, 1]) + t1 * np.array([0, 1, 0, 1])))
        f1_rotated = avg_fidelity_f1(d[:, None] * a, t)
    ref = dense_sup_f2(a, t.matrix)
    assert f2 >= ref - 1e-12
    assert f2 == pytest.approx(ref, abs=1e-6)
    assert f1_rotated == pytest.approx(f2, abs=1e-9)


class TestLeakage:
    def test_swap_with_leakage_level(self, sim3):
        # single qubit, 3 sim levels, U swaps |1> <-> |2>: half the
        # computational population leaves the block
        u = np.eye(3, dtype=complex)
        u[1, 1] = u[2, 2] = 0
        u[1, 2] = u[2, 1] = 1
        assert avg_leakage(comp_columns(u, sim3[1]), sim3[1]) == pytest.approx(0.5)

    def test_identity_has_none(self, sim3):
        u = np.eye(9, dtype=complex)
        assert avg_leakage(comp_columns(u, sim3[2]), sim3[2]) == pytest.approx(0.0)

    def test_two_qubit_indices(self, sim3):
        # permute |11> (index 4 at n_sim=3) out of the block: 1/4 leaks
        u = np.eye(9, dtype=complex)
        u[4, 4] = u[8, 8] = 0
        u[8, 4] = u[4, 8] = 1
        assert avg_leakage(comp_columns(u, sim3[2]), sim3[2]) == pytest.approx(0.25)

    def test_shape_validation(self, sim3):
        # only the (dim_sim, 2^q) computational columns are accepted; the
        # whole (dim_sim, dim_sim) unitary is refused like any other shape
        target = lookup_target("CZ")
        for u in (np.eye(4), np.eye(9), np.eye(9)[:, :3], np.eye(9)[:4]):
            with pytest.raises(ValueError):
                avg_leakage(u, sim3[2])
            with pytest.raises(ValueError):
                gate_breakdown(u, sim3[2], target)

    def test_monte_carlo_haar_oracle(self, sim3):
        # average over Haar states of the computational block must match
        rng = np.random.default_rng(7)
        u = random_unitary(rng, 9)
        n_samples = 4000
        psi = rng.normal(size=(4, n_samples)) + 1j * rng.normal(size=(4, n_samples))
        psi /= np.linalg.norm(psi, axis=0)
        comp = np.array([0, 1, 3, 4])
        block = u[np.ix_(comp, comp)]
        survive = np.sum(np.abs(block @ psi) ** 2, axis=0)
        mc = 1.0 - survive.mean()
        sigma = survive.std(ddof=1) / np.sqrt(n_samples)
        leak = avg_leakage(comp_columns(u, sim3[2]), sim3[2])
        assert abs(mc - leak) < 3 * sigma + 1e-12


class TestChain:
    def test_f1_le_f2_le_one_minus_leakage_for_unitaries(self, transmon_pair):
        # all three from one full-space unitary: the chain is a theorem
        q0, q1 = transmon_pair
        system = make_pair_system(q0, q1, n_levels=2, n_sim=4)
        target = lookup_target("CZ")
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = random_unitary(rng, 16)
            bd = gate_breakdown(comp_columns(u, system), system, target)
            assert bd.f1 <= bd.f2 + 1e-10
            assert bd.f2 <= 1.0 - bd.leakage + 1e-10

    def test_breakdown_value_selector(self):
        bd = sc.FidelityBreakdown(f1=0.5, f2=0.7, norm_loss=0.0, z_angles=(0.0,))
        assert bd.value("f1") == 0.5
        assert bd.value("f2") == 0.7
        with pytest.raises(ValueError):
            bd.value("f3")


class TestAgreement:
    def test_identical_unitaries(self):
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 6)
        assert agreement_f1(u, u) == pytest.approx(1.0, abs=1e-12)
        assert agreement_f1(u, np.exp(0.7j) * u) == pytest.approx(1.0, abs=1e-12)

    def test_detects_differences(self):
        rng = np.random.default_rng(10)
        assert agreement_f1(random_unitary(rng, 6), random_unitary(rng, 6)) < 0.9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            agreement_f1(np.eye(3), np.eye(4))
