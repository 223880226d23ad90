"""Single-qubit level structures.

Each builder reduces a circuit Hamiltonian to the quantities the rest of the
engine consumes: the lowest ``n_levels`` eigenenergies (zero-referenced, in
rad/s) and the nearest-neighbour charge matrix elements between them.  Charge
elements are returned normalized so that ``charge[0] == 1/2``; the physical
scale of <0|n|1> is reported separately as ``raw_charge_scale``.  Only ratios
of charge elements enter the dynamics (kick generators and the exchange
coupling are normalized per qubit), so this convention keeps a single pulse
meaning the same tip angle on every qubit species.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QubitLevels",
    "transmon_levels",
    "split_transmon_levels",
    "fluxonium_levels",
    "transmon_ej_ec",
]

# Relative change on basis doubling above which the fluxonium basis is
# considered unconverged (hard error).
_DIVERGED = 1e-3


@dataclass(frozen=True)
class QubitLevels:
    """Truncated level structure of one qubit.

    energies: shape (n_levels,), energies[0] == 0, rad/s.
    charge: shape (n_levels - 1,), |<k|n|k+1>| scaled so charge[0] == 1/2.
    raw_charge_scale: physical |<0|n|1>| before rescaling (dimensionless).
    basis_error: relative change of the returned quantities under basis
        doubling (0.0 for analytic models).
    """

    energies: np.ndarray
    charge: np.ndarray
    raw_charge_scale: float
    basis_error: float = 0.0

    def __post_init__(self) -> None:
        e = np.asarray(self.energies, dtype=float)
        c = np.asarray(self.charge, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two levels")
        if c.shape != (e.size - 1,):
            raise ValueError("charge must have one element per level pair")
        if abs(e[0]) > 1e-9 * max(abs(e[1]), 1.0):
            raise ValueError("energies must be zero-referenced")
        if not np.all(np.diff(e) > 0):
            raise ValueError("energies must be strictly increasing")
        if abs(c[0] - 0.5) > 1e-12:
            raise ValueError("charge elements must be normalized to c[0]=1/2")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "charge", c)

    @property
    def n_levels(self) -> int:
        return int(self.energies.size)

    @property
    def omega01(self) -> float:
        return float(self.energies[1])

    def anharmonicity(self) -> float:
        """omega12 - omega01 (rad/s); requires at least three levels."""
        if self.n_levels < 3:
            raise ValueError("anharmonicity needs three levels")
        return float(self.energies[2] - 2.0 * self.energies[1])


def transmon_ej_ec(omega01: float, alpha: float) -> tuple[float, float]:
    """Invert the weakly anharmonic relations for (EJ, EC).

    Uses omega01 = sqrt(8 EJ EC) - EC with EC = -alpha.  Same units in and
    out (rad/s throughout the engine).
    """
    if alpha >= 0:
        raise ValueError("transmon anharmonicity must be negative")
    ec = -alpha
    ej = (omega01 + ec) ** 2 / (8.0 * ec)
    return ej, ec


def transmon_levels(omega01: float, alpha: float, n_levels: int) -> QubitLevels:
    """Duffing-oscillator transmon truncated to n_levels.

    energies[k] = k*omega01 + (alpha/2)*k*(k-1); charge elements follow the
    harmonic ladder, sqrt(k+1)/2 after the c[0]=1/2 normalization.
    """
    _check_n_levels(n_levels)
    _check_finite(omega01=omega01, alpha=alpha)
    if omega01 <= 0:
        raise ValueError("omega01 must be positive")
    if alpha >= 0:
        raise ValueError("transmon anharmonicity must be negative")
    k = np.arange(n_levels, dtype=float)
    energies = k * omega01 + 0.5 * alpha * k * (k - 1.0)
    if not np.all(np.diff(energies) > 0):
        raise ValueError(
            "level ladder collapses within the truncation; "
            "reduce n_levels or the anharmonicity"
        )
    charge = 0.5 * np.sqrt(k[1:])  # sqrt(1)/2, sqrt(2)/2, ...
    ej, ec = transmon_ej_ec(omega01, alpha)
    raw = (ej / (32.0 * ec)) ** 0.25
    return QubitLevels(energies, charge, raw_charge_scale=raw)


def split_transmon_levels(
    ej1: float, ej2: float, ec: float, phi_e: float, n_levels: int
) -> QubitLevels:
    """Flux-tunable transmon: two junctions threaded by external flux.

    The SQUID loop acts as one junction with
    E_J'(phi_e) = sqrt((EJ1+EJ2)^2 cos^2(phi_e) + (EJ1-EJ2)^2 sin^2(phi_e)),
    phi_e in units of pi*Phi/Phi_0; the rest delegates to the fixed-frequency
    builder through omega01 = sqrt(8 E_J' EC) - EC, alpha = -EC.
    """
    _check_finite(ej1=ej1, ej2=ej2, ec=ec, phi_e=phi_e)
    if ej1 <= 0 or ej2 <= 0 or ec <= 0:
        raise ValueError("junction and charging energies must be positive")
    ej_eff = effective_josephson_energy(ej1, ej2, phi_e)
    if ej_eff <= ec:
        raise ValueError(
            "effective Josephson energy at this flux does not exceed EC; "
            "the transmon reduction is invalid there"
        )
    omega01 = np.sqrt(8.0 * ej_eff * ec) - ec
    return transmon_levels(omega01, -ec, n_levels)


def effective_josephson_energy(ej1: float, ej2: float, phi_e: float) -> float:
    s, d = ej1 + ej2, ej1 - ej2
    return float(np.hypot(s * np.cos(phi_e), d * np.sin(phi_e)))


def fluxonium_levels(
    ej: float,
    ec: float,
    el: float,
    phi_e: float,
    n_levels: int,
    basis_size: int = 60,
) -> QubitLevels:
    """Fluxonium: H = 4 EC n^2 + EL phi^2 - EJ cos(phi + phi_e).

    Diagonalized in the harmonic-oscillator basis of the quadratic part
    (spacing sqrt(16 EC EL)).  The quadratures are chosen so n is real
    symmetric: n = n_z (a + a^T), phi = i phi_z (a - a^T) with
    n_z phi_z = 1/2 and (n_z/phi_z)^2 = EL/(4 EC); cos(phi + phi_e) is
    evaluated exactly through the eigendecomposition of phi.

    The basis is doubled once internally; if the truncated energies or
    charge ratios move by more than a relative 1e-3 the basis is declared
    unconverged and a ValueError is raised.  The observed relative change
    is reported as basis_error.
    """
    _check_n_levels(n_levels)
    _check_finite(ej=ej, ec=ec, el=el, phi_e=phi_e)
    if ej <= 0 or ec <= 0 or el <= 0:
        raise ValueError("EJ, EC, EL must be positive")
    if basis_size < 4 * n_levels:
        raise ValueError("basis_size must be at least 4*n_levels")

    e_small, c_small = _fluxonium_diagonalize(ej, ec, el, phi_e, n_levels, basis_size)
    e_big, c_big = _fluxonium_diagonalize(ej, ec, el, phi_e, n_levels, 2 * basis_size)
    scale = max(abs(e_big[1]), 1e-300)
    err = max(
        float(np.max(np.abs(e_small - e_big))) / scale,
        float(np.max(np.abs(c_small - c_big))) / max(abs(c_big[0]), 1e-300),
    )
    if err > _DIVERGED:
        raise ValueError(
            f"fluxonium basis_size={basis_size} unconverged "
            f"(relative change {err:.2e} on doubling)"
        )

    raw = float(c_big[0])
    charge = 0.5 * (c_big / c_big[0])
    return QubitLevels(e_big, charge, raw_charge_scale=raw, basis_error=err)


def _fluxonium_diagonalize(
    ej: float, ec: float, el: float, phi_e: float, n_levels: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_levels energies (zero-referenced) and |<k|n|k+1>| elements."""
    # Quadrature scales of the EL phi^2 + 4 EC n^2 oscillator:
    # n_z phi_z = 1/2 (canonical commutator), n_z / phi_z = sqrt(EL / 4 EC).
    ratio = np.sqrt(el / (4.0 * ec))
    nz = np.sqrt(0.5 * ratio)
    phiz = np.sqrt(0.5 / ratio)

    a = np.diag(np.sqrt(np.arange(1, nb)), 1)
    n_op = nz * (a + a.T)  # real symmetric
    phi_op_imag = phiz * (a - a.T)  # phi = i * phi_op_imag, antisymmetric

    # phi is Hermitian with purely imaginary entries; diagonalize i*(a-a^T)
    # (real antisymmetric times i -> use the complex path once, cheap at nb<=120)
    phi = 1j * phi_op_imag
    w, v = np.linalg.eigh(phi)
    cos_shifted = (v * np.cos(w + phi_e)) @ v.conj().T

    h = 4.0 * ec * (n_op @ n_op) + el * (phi @ phi).real - ej * cos_shifted
    h = 0.5 * (h + h.conj().T)
    evals, evecs = np.linalg.eigh(h)
    energies = evals[:n_levels] - evals[0]
    states = evecs[:, :n_levels]
    n_between = states.conj().T @ n_op @ states
    charge = np.abs(np.diag(n_between, 1)).astype(float)
    return energies.astype(float), charge


def _check_n_levels(n_levels: int) -> None:
    if not isinstance(n_levels, (int, np.integer)) or n_levels < 2:
        raise ValueError("n_levels must be an integer >= 2")


def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
