"""Experiment configuration: INI files in, validated physics out.

All frequencies in config files are linear frequencies in GHz; they are
converted to angular rad/s when the system is built.  Unknown sections or
keys are rejected outright so a typo cannot silently run a different
experiment.
"""

from __future__ import annotations

from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, field, fields

import numpy as np

from .qubits import (
    QubitLevels,
    fluxonium_levels,
    split_transmon_levels,
    transmon_levels,
)
from .search import GaConfig
from .system import ControlChannel, CoupledSystem, GateTarget, assemble, lookup_target

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "build_system",
    "DESK_MAX_ITERATIONS",
    "FULL_MAX_ITERATIONS",
]

GHZ = 2.0 * np.pi * 1e9  # linear GHz -> rad/s

# Desk-scale iteration budget used when the config does not pin one; the
# full-size budget is restored with --full-budget.
DESK_MAX_ITERATIONS = 20_000
FULL_MAX_ITERATIONS = 200_000


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


_QUBIT_KEYS = {
    "transmon": {"type", "omega01_ghz", "alpha_ghz"},
    "split_transmon": {"type", "ej1_ghz", "ej2_ghz", "ec_ghz", "phi_e"},
    "fluxonium": {"type", "ej_ghz", "ec_ghz", "el_ghz", "phi_e", "basis_size"},
}
_CHANNEL_KEYS = {"x0", "z0", "x1", "z1"}
_SECTION_KEYS = {
    "coupling": {"j_ghz"},
    "gate": {"target", "time_ns", "clock_ps"},
    "learning": {"n_levels", "n_sim_levels"},
    "ga": {f.name for f in fields(GaConfig)},
    "output": {"out_dir"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (frequencies still in GHz)."""

    qubit_specs: tuple[dict, ...]
    j_ghz: float
    channels: tuple[tuple[int, str, float], ...]  # (qubit, axis, tip_angle)
    target_name: str
    time_ns: float
    clock_ps: float
    n_levels: int
    n_sim_levels: int
    ga: GaConfig
    out_dir: str | None
    echo: dict = field(compare=False)

    def __post_init__(self) -> None:
        self.num_cycles  # the gate time must lie on the clock grid

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_specs)

    @property
    def clock_period(self) -> float:
        return self.clock_ps * 1e-12

    @property
    def num_cycles(self) -> int:
        """Clock cycles of the gate; ConfigError unless time_ns is a whole,
        positive number of clock periods."""
        cycles = self.time_ns * 1e3 / self.clock_ps
        n = round(cycles)
        if n < 1:
            raise ConfigError("gate time is shorter than one clock cycle")
        if abs(cycles - n) > 1e-9 * n:
            raise ConfigError(
                f"gate time {self.time_ns!r} ns is not a whole number of "
                f"{self.clock_ps!r} ps clock cycles ({cycles:.6g})"
            )
        return n

    def target(self) -> GateTarget:
        return lookup_target(self.target_name)

    def channel_keys(self) -> list[str]:
        return [f"{q}:{axis}" for q, axis, _ in self.channels]


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentConfig:
    cp = ConfigParser()
    try:
        cp.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc

    known_sections = {"qubit0", "qubit1", "channels", *_SECTION_KEYS}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")

    if not cp.has_section("qubit0"):
        raise ConfigError("missing required section [qubit0]")
    if not cp.has_section("gate"):
        raise ConfigError("missing required section [gate]")
    if not cp.has_section("channels"):
        raise ConfigError("missing required section [channels]")

    qubit_specs = [_parse_qubit(cp, "qubit0")]
    if cp.has_section("qubit1"):
        qubit_specs.append(_parse_qubit(cp, "qubit1"))
    num_qubits = len(qubit_specs)

    j_ghz = 0.0
    if cp.has_section("coupling"):
        if num_qubits == 1:
            raise ConfigError("[coupling] given but there is only one qubit")
        _check_keys(cp, "coupling")
        j_ghz = _get_float(cp, "coupling", "j_ghz")
    elif num_qubits == 2:
        raise ConfigError("two qubits need a [coupling] section (j_ghz may be 0)")

    channels = _parse_channels(cp, num_qubits)

    _check_keys(cp, "gate")
    target_name = _get_str(cp, "gate", "target")
    target = lookup_target_checked(target_name)
    time_ns = _get_float(cp, "gate", "time_ns")
    if time_ns <= 0:
        raise ConfigError("gate time_ns must be positive")
    clock_ps = _get_float(cp, "gate", "clock_ps", default=8.0)
    if clock_ps <= 0:
        raise ConfigError("clock_ps must be positive")
    if target.num_qubits != num_qubits:
        raise ConfigError(
            f"target {target_name} is a {target.num_qubits}-qubit gate but the "
            f"config defines {num_qubits} qubit(s)"
        )

    n_levels = 5
    n_sim_levels = None
    if cp.has_section("learning"):
        _check_keys(cp, "learning")
        n_levels = _get_int(cp, "learning", "n_levels", default=5)
        if cp.has_option("learning", "n_sim_levels"):
            n_sim_levels = _get_int(cp, "learning", "n_sim_levels")
    if n_sim_levels is None:
        n_sim_levels = n_levels + 2
    if n_levels < 2:
        raise ConfigError("n_levels must be at least 2")
    if n_sim_levels < n_levels:
        raise ConfigError("n_sim_levels must be >= n_levels")

    ga_kwargs: dict = {"max_iterations": DESK_MAX_ITERATIONS}
    if cp.has_section("ga"):
        _check_keys(cp, "ga")
        getters = {int: _get_int, float: _get_float, str: _get_str}
        for f in fields(GaConfig):
            if cp.has_option("ga", f.name):
                ga_kwargs[f.name] = getters[type(f.default)](cp, "ga", f.name)
        if "metric" in ga_kwargs:
            ga_kwargs["metric"] = ga_kwargs["metric"].lower()
    try:
        ga = GaConfig(**ga_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = None
    if cp.has_section("output"):
        _check_keys(cp, "output")
        out_dir = _get_str(cp, "output", "out_dir")

    echo = {s: dict(cp.items(s)) for s in cp.sections()}
    cfg = ExperimentConfig(
        qubit_specs=tuple(qubit_specs),
        j_ghz=j_ghz,
        channels=channels,
        target_name=target.name,
        time_ns=time_ns,
        clock_ps=clock_ps,
        n_levels=n_levels,
        n_sim_levels=n_sim_levels,
        ga=ga,
        out_dir=out_dir,
        echo=echo,
    )
    build_system(cfg)  # fail here, not mid-run, if the physics is unbuildable
    return cfg


def lookup_target_checked(name: str) -> GateTarget:
    try:
        return lookup_target(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_qubit(cp: ConfigParser, section: str) -> dict:
    if not cp.has_option(section, "type"):
        raise ConfigError(f"[{section}] needs a type key")
    qtype = cp.get(section, "type").strip().lower()
    if qtype not in _QUBIT_KEYS:
        raise ConfigError(
            f"[{section}] unknown qubit type {qtype!r}; "
            f"known: {sorted(_QUBIT_KEYS)}"
        )
    allowed = _QUBIT_KEYS[qtype]
    for key in cp.options(section):
        if key not in allowed:
            raise ConfigError(f"[{section}] unknown key {key!r} for type {qtype}")
    spec: dict = {"type": qtype}
    for key in allowed - {"type", "basis_size"}:
        spec[key] = _get_float(cp, section, key)
    if qtype == "fluxonium" and cp.has_option(section, "basis_size"):
        spec["basis_size"] = _get_int(cp, section, "basis_size")
    return spec


def _parse_channels(
    cp: ConfigParser, num_qubits: int
) -> tuple[tuple[int, str, float], ...]:
    channels = []
    for key in cp.options("channels"):
        if key not in _CHANNEL_KEYS:
            raise ConfigError(
                f"[channels] unknown key {key!r}; use x0, z0, x1, z1"
            )
        axis, qubit = key[0], int(key[1])
        if qubit >= num_qubits:
            raise ConfigError(f"[channels] {key} targets an absent qubit")
        tip = _get_float(cp, "channels", key)
        channels.append((qubit, axis, tip))
    if not channels:
        raise ConfigError("[channels] must define at least one channel")
    channels.sort(key=lambda c: (c[0], c[1]))
    return tuple(channels)


def _check_keys(cp: ConfigParser, section: str) -> None:
    for key in cp.options(section):
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"[{section}] unknown key {key!r}")


def _get_str(cp: ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"[{section}] missing required key {key!r}")
    return cp.get(section, key).strip()


def _get_float(cp: ConfigParser, section: str, key: str, default=None) -> float:
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"[{section}] missing required key {key!r}")
    raw = cp.get(section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite")
    return value


def _get_int(cp: ConfigParser, section: str, key: str, default=None) -> int:
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"[{section}] missing required key {key!r}")
    raw = cp.get(section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _build_qubit(spec: dict, n_levels: int) -> QubitLevels:
    qtype = spec["type"]
    if qtype == "transmon":
        return transmon_levels(
            spec["omega01_ghz"] * GHZ, spec["alpha_ghz"] * GHZ, n_levels
        )
    if qtype == "split_transmon":
        return split_transmon_levels(
            spec["ej1_ghz"] * GHZ,
            spec["ej2_ghz"] * GHZ,
            spec["ec_ghz"] * GHZ,
            spec["phi_e"],
            n_levels,
        )
    return fluxonium_levels(
        spec["ej_ghz"] * GHZ,
        spec["ec_ghz"] * GHZ,
        spec["el_ghz"] * GHZ,
        spec["phi_e"],
        n_levels,
        basis_size=spec.get("basis_size", 60),
    )


def build_system(cfg: ExperimentConfig, n_sim_levels: int | None = None) -> CoupledSystem:
    """Materialize the CoupledSystem, optionally at a wider truncation.

    Parameters the physics rejects raise ConfigError.
    """
    n_sim = cfg.n_sim_levels if n_sim_levels is None else n_sim_levels
    if n_sim < cfg.n_levels:
        raise ConfigError("n_sim_levels must be >= n_levels")
    try:
        qubits = [_build_qubit(spec, n_sim) for spec in cfg.qubit_specs]
        channels = [
            ControlChannel(qubit=q, axis=axis, tip_angle=tip)
            for q, axis, tip in cfg.channels
        ]
        return assemble(
            qubits,
            n_levels=cfg.n_levels,
            n_sim_levels=n_sim,
            j_coupling=cfg.j_ghz * GHZ,
            channels=channels,
            clock_period=cfg.clock_period,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
