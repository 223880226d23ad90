"""Level-structure builders against independent oracles and frozen values."""

import numpy as np
import pytest

from conftest import GHZ
from sfq_control.qubits import (
    QubitLevels,
    effective_josephson_energy,
    fluxonium_levels,
    split_transmon_levels,
    transmon_ej_ec,
    transmon_levels,
)


class TestTransmon:
    def test_duffing_ladder(self):
        q = transmon_levels(3.9 * GHZ, -0.225 * GHZ, 7)
        k = np.arange(7)
        expected = k * 3.9 + 0.5 * (-0.225) * k * (k - 1)
        np.testing.assert_allclose(q.energies / GHZ, expected, atol=1e-12)
        # frozen: 3.9, 7.575, 11.025 GHz for the first transitions
        np.testing.assert_allclose(
            q.energies[1:4] / GHZ, [3.9, 7.575, 11.025], atol=1e-12
        )

    def test_charge_ladder_normalization(self):
        q = transmon_levels(3.9 * GHZ, -0.225 * GHZ, 6)
        np.testing.assert_allclose(q.charge, 0.5 * np.sqrt(np.arange(1, 6)))
        assert q.charge[0] == 0.5

    def test_ej_ec_inversion_frozen(self):
        # EC = 0.225, EJ = (3.9 + 0.225)^2 / (8 * 0.225) = 9.453125 (GHz units)
        ej, ec = transmon_ej_ec(3.9, -0.225)
        assert ec == pytest.approx(0.225, abs=1e-15)
        assert ej == pytest.approx(9.453125, abs=1e-12)
        q = transmon_levels(3.9 * GHZ, -0.225 * GHZ, 4)
        assert q.raw_charge_scale == pytest.approx(
            (9.453125 / (32 * 0.225)) ** 0.25, rel=1e-12
        )

    def test_anharmonicity(self):
        q = transmon_levels(5.0 * GHZ, -0.3 * GHZ, 4)
        assert q.anharmonicity() == pytest.approx(-0.3 * GHZ, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            transmon_levels(3.9 * GHZ, 0.0, 4)
        with pytest.raises(ValueError):
            transmon_levels(3.9 * GHZ, 0.225 * GHZ, 4)
        with pytest.raises(ValueError):
            transmon_levels(-1.0, -0.225 * GHZ, 4)
        with pytest.raises(ValueError):
            transmon_levels(3.9 * GHZ, -0.225 * GHZ, 1)
        # ladder collapses when |alpha| * (k-1) exceeds omega01
        with pytest.raises(ValueError):
            transmon_levels(1.0 * GHZ, -1.2 * GHZ, 4)


class TestSplitTransmon:
    def test_effective_junction_frozen(self):
        # EJ1 = 5, EJ2 = 4 at phi_e = pi/4: sqrt((81 + 1) / 2) = sqrt(41)
        ej = effective_josephson_energy(5.0, 4.0, np.pi / 4)
        assert ej == pytest.approx(np.sqrt(41.0), rel=1e-14)

    def test_zero_flux_matches_fixed_transmon(self):
        ej1, ej2, ec = 9.0 * GHZ, 5.0 * GHZ, 0.25 * GHZ
        split = split_transmon_levels(ej1, ej2, ec, 0.0, 5)
        omega01 = np.sqrt(8.0 * (ej1 + ej2) * ec) - ec
        fixed = transmon_levels(omega01, -ec, 5)
        np.testing.assert_allclose(split.energies, fixed.energies, rtol=1e-14)
        np.testing.assert_allclose(split.charge, fixed.charge, rtol=1e-14)

    def test_flux_tunes_frequency_down(self):
        ej1, ej2, ec = 9.0 * GHZ, 5.0 * GHZ, 0.25 * GHZ
        w = [
            split_transmon_levels(ej1, ej2, ec, phi, 3).omega01
            for phi in (0.0, 0.3, 0.6)
        ]
        assert w[0] > w[1] > w[2]

    def test_rejects_shallow_well(self):
        # symmetric junctions at phi_e = pi/2: E_J' -> 0 < EC
        with pytest.raises(ValueError):
            split_transmon_levels(5 * GHZ, 5 * GHZ, 0.25 * GHZ, np.pi / 2, 4)
        with pytest.raises(ValueError):
            split_transmon_levels(-1.0, 5.0, 0.25, 0.0, 4)


def _fluxonium_grid_oracle(ej, ec, el, phi_e, n_levels):
    """Independent check: finite differences on a real-space phi grid."""
    n_pts, span = 2801, 14.0
    phi = np.linspace(-span, span, n_pts)
    h_step = phi[1] - phi[0]
    main = np.full(n_pts, 2.0) / h_step**2
    off = np.full(n_pts - 1, -1.0) / h_step**2
    kinetic = 4.0 * ec * (np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
    potential = np.diag(el * phi**2 - ej * np.cos(phi + phi_e))
    evals, evecs = np.linalg.eigh(kinetic + potential)
    energies = evals[:n_levels] - evals[0]
    # n = -i d/dphi via central differences
    deriv = (np.diag(np.ones(n_pts - 1), 1) - np.diag(np.ones(n_pts - 1), -1)) / (
        2 * h_step
    )
    states = evecs[:, :n_levels]
    n_elems = np.abs(np.diag(states.T @ (-1j * deriv) @ states, 1))
    return energies, n_elems


class TestFluxonium:
    def test_against_grid_oracle(self):
        # heavy-fluxonium regime at the flux sweet spot
        ej, ec, el = 5.5, 1.5, 1.0
        q = fluxonium_levels(ej * GHZ, ec * GHZ, el * GHZ, np.pi, 4)
        e_oracle, c_oracle = _fluxonium_grid_oracle(ej, ec, el, np.pi, 4)
        np.testing.assert_allclose(
            q.energies / GHZ, e_oracle, rtol=5e-4, atol=5e-4
        )
        np.testing.assert_allclose(
            q.charge[1] / q.charge[0], c_oracle[1] / c_oracle[0], rtol=1e-3
        )

    def test_harmonic_limit(self):
        # EJ -> 0 leaves a 4 EC n^2 + EL phi^2 oscillator: spacing sqrt(16 EC EL)
        q = fluxonium_levels(1e-6 * GHZ, 1.5 * GHZ, 1.0 * GHZ, 0.3, 3)
        spacing = np.sqrt(16.0 * 1.5 * 1.0)
        assert q.energies[1] / GHZ == pytest.approx(spacing, rel=1e-6)
        assert (q.energies[2] - q.energies[1]) / GHZ == pytest.approx(
            spacing, rel=1e-6
        )

    def test_frozen_sweet_spot_values(self):
        # regression pins for the two stock parameter sets (basis 60, phi_e = pi)
        qa = fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, 4)
        assert qa.energies[1] / GHZ == pytest.approx(1.5519, abs=2e-4)
        assert (qa.energies[2] - qa.energies[1]) / qa.energies[1] == pytest.approx(
            3.1069, abs=2e-3
        )
        assert qa.charge[1] / qa.charge[0] == pytest.approx(2.571, abs=2e-3)
        qb = fluxonium_levels(5.7 * GHZ, 1.2 * GHZ, 1.0 * GHZ, np.pi, 4)
        assert qb.energies[1] / GHZ == pytest.approx(1.0844, abs=2e-4)
        assert (qb.energies[2] - qb.energies[1]) / qb.energies[1] == pytest.approx(
            3.9706, abs=2e-3
        )

    def test_basis_convergence_reported(self):
        q = fluxonium_levels(5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi, 4)
        assert q.basis_error < 1e-6

    def test_unconverged_basis_rejected(self):
        with pytest.raises(ValueError, match="unconverged"):
            fluxonium_levels(80.0 * GHZ, 0.02 * GHZ, 0.01 * GHZ, np.pi, 5,
                             basis_size=20)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            fluxonium_levels(-1.0, 1.0, 1.0, 0.0, 3)
        with pytest.raises(ValueError):
            fluxonium_levels(1.0, 1.0, 1.0, 0.0, 3, basis_size=8)


_BUILDERS = [
    (transmon_levels, (3.9 * GHZ, -0.225 * GHZ)),
    (split_transmon_levels, (5 * GHZ, 4 * GHZ, 0.25 * GHZ, 0.1)),
    (fluxonium_levels, (5.5 * GHZ, 1.5 * GHZ, 1.0 * GHZ, np.pi)),
]


@pytest.mark.parametrize("builder,args", _BUILDERS, ids=lambda b: getattr(b, "__name__", ""))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_builders_reject_non_finite_inputs(builder, args, bad):
    # rejected before any arithmetic, so no RuntimeWarning either
    for i in range(len(args)):
        with pytest.raises(ValueError, match="must be finite"):
            builder(*args[:i], bad, *args[i + 1:], 4)


class TestQubitLevels:
    def test_validation(self):
        with pytest.raises(ValueError):
            QubitLevels(np.array([0.0, 1.0]), np.array([0.4]), 1.0)  # c0 != 1/2
        with pytest.raises(ValueError):
            QubitLevels(np.array([0.5, 1.0]), np.array([0.5]), 1.0)  # e0 != 0
        with pytest.raises(ValueError):
            QubitLevels(np.array([0.0, 2.0, 1.0]), np.array([0.5, 0.7]), 1.0)
        with pytest.raises(ValueError):
            QubitLevels(np.array([0.0, 1.0]), np.array([0.5, 0.7]), 1.0)

    def test_accessors(self):
        q = transmon_levels(4.0 * GHZ, -0.2 * GHZ, 5)
        assert q.n_levels == 5
        assert q.omega01 == pytest.approx(4.0 * GHZ)
