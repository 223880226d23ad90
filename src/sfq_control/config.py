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

from .propagate import _MAX_CYCLES
from .qubits import (
    QubitLevels,
    fluxonium_levels,
    split_transmon_levels,
    transmon_levels,
)
from .search import GaConfig
from .system import ControlChannel, CoupledSystem, GateTarget, lookup_target

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
# full-size budget, GaConfig's own default, is restored with --full-budget.
DESK_MAX_ITERATIONS = 20_000
FULL_MAX_ITERATIONS = GaConfig.max_iterations


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


_REQUIRED = object()  # table default of a key that must be given
_FLOAT = (float, _REQUIRED)

# Every key of the scalar sections as key -> (type, default).  Required
# keys are required when their section is present: [gate] always is,
# [coupling] for two qubits, [output] when given.
_SECTIONS = {
    "coupling": {"j_ghz": _FLOAT},
    "gate": {"target": (str, _REQUIRED), "time_ns": _FLOAT, "clock_ps": (float, 8.0)},
    "learning": {"n_levels": (int, 5), "n_sim_levels": (int, None)},  # None: n_levels + 2
    "ga": {f.name: (type(f.default), f.default) for f in fields(GaConfig)}
    | {"max_iterations": (int, DESK_MAX_ITERATIONS)},
    "output": {"out_dir": (str, _REQUIRED)},
}

# Each qubit type's level builder and keys.  The float keys are the
# builder's leading arguments in table order (``_ghz`` keys scaled to
# rad/s), then n_levels; an int key is a keyword, and when absent the
# builder's default holds.
_QUBIT_TYPES = {
    "transmon": (transmon_levels, {"omega01_ghz": _FLOAT, "alpha_ghz": _FLOAT}),
    "split_transmon": (
        split_transmon_levels,
        {"ej1_ghz": _FLOAT, "ej2_ghz": _FLOAT, "ec_ghz": _FLOAT, "phi_e": _FLOAT},
    ),
    "fluxonium": (
        fluxonium_levels,
        {"ej_ghz": _FLOAT, "ec_ghz": _FLOAT, "el_ghz": _FLOAT, "phi_e": _FLOAT,
         "basis_size": (int, None)},
    ),
}
_CHANNEL_KEYS = {"x0", "z0", "x1", "z1"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (frequencies still in GHz)."""

    qubit_specs: tuple[dict, ...]
    j_ghz: float
    channels: tuple[ControlChannel, ...]  # sorted by (qubit, axis)
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
        positive number of clock periods, at most ``_MAX_CYCLES``."""
        cycles = self.time_ns * 1e3 / self.clock_ps
        n = round(cycles)
        if n < 1:
            raise ConfigError("gate time is shorter than one clock cycle")
        if n > _MAX_CYCLES:
            raise ConfigError(f"gate time {self.time_ns!r} ns is {cycles:.3g} "
                              f"clock cycles, over the {_MAX_CYCLES} allowed")
        if abs(cycles - n) > 1e-9 * n:
            raise ConfigError(
                f"gate time {self.time_ns!r} ns is not a whole number of "
                f"{self.clock_ps!r} ps clock cycles ({cycles:.6g})"
            )
        return n

    def target(self) -> GateTarget:
        return lookup_target(self.target_name)

    def channel_keys(self) -> list[str]:
        return [c.key for c in self.channels]


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentConfig:
    cp = ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except ConfigParserError as exc:
        raise ConfigError(f"config is not valid INI: {exc}") from exc

    known_sections = {"qubit0", "qubit1", "channels", *_SECTIONS}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
    for section in ("qubit0", "gate", "channels"):
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    qubit_specs = [_parse_qubit(cp, "qubit0")]
    if cp.has_section("qubit1"):
        qubit_specs.append(_parse_qubit(cp, "qubit1"))
    num_qubits = len(qubit_specs)

    j_ghz = 0.0
    if cp.has_section("coupling"):
        if num_qubits == 1:
            raise ConfigError("[coupling] given but there is only one qubit")
        j_ghz = _read(cp, "coupling", _SECTIONS["coupling"])["j_ghz"]
    elif num_qubits == 2:
        raise ConfigError("two qubits need a [coupling] section (j_ghz may be 0)")

    channels = _parse_channels(cp, num_qubits)

    gate = _read(cp, "gate", _SECTIONS["gate"])
    try:
        target = lookup_target(gate["target"])
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    if gate["time_ns"] <= 0:
        raise ConfigError("gate time_ns must be positive")
    if gate["clock_ps"] <= 0:
        raise ConfigError("clock_ps must be positive")
    if target.num_qubits != num_qubits:
        raise ConfigError(
            f"target {gate['target']} is a {target.num_qubits}-qubit gate but the "
            f"config defines {num_qubits} qubit(s)"
        )

    learning = _read(cp, "learning", _SECTIONS["learning"])
    n_levels = learning["n_levels"]
    n_sim_levels = learning["n_sim_levels"]
    if n_sim_levels is None:
        n_sim_levels = n_levels + 2

    ga_kwargs = _read(cp, "ga", _SECTIONS["ga"])
    ga_kwargs["metric"] = ga_kwargs["metric"].lower()
    try:
        ga = GaConfig(**ga_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = None
    if cp.has_section("output"):
        out_dir = _read(cp, "output", _SECTIONS["output"])["out_dir"]

    echo = {s: dict(cp.items(s)) for s in cp.sections()}
    cfg = ExperimentConfig(
        qubit_specs=tuple(qubit_specs),
        j_ghz=j_ghz,
        channels=channels,
        target_name=target.name,
        time_ns=gate["time_ns"],
        clock_ps=gate["clock_ps"],
        n_levels=n_levels,
        n_sim_levels=n_sim_levels,
        ga=ga,
        out_dir=out_dir,
        echo=echo,
    )
    build_system(cfg)  # fail here, not mid-run, if the physics is unbuildable
    return cfg


def _parse_qubit(cp: ConfigParser, section: str) -> dict:
    if not cp.has_option(section, "type"):
        raise ConfigError(f"[{section}] needs a type key")
    qtype = cp.get(section, "type").strip().lower()
    if qtype not in _QUBIT_TYPES:
        raise ConfigError(
            f"[{section}] unknown qubit type {qtype!r}; "
            f"known: {sorted(_QUBIT_TYPES)}"
        )
    keys = {"type": (str, _REQUIRED), **_QUBIT_TYPES[qtype][1]}
    values = _read(cp, section, keys, context=f" for type {qtype}")
    values["type"] = qtype
    return {key: value for key, value in values.items() if value is not None}


def _parse_channels(cp: ConfigParser, num_qubits: int) -> tuple[ControlChannel, ...]:
    channels = []
    for key in cp.options("channels"):
        if key not in _CHANNEL_KEYS:
            raise ConfigError(
                f"[channels] unknown key {key!r}; use x0, z0, x1, z1"
            )
        axis, qubit = key[0], int(key[1])
        if qubit >= num_qubits:
            raise ConfigError(f"[channels] {key} targets an absent qubit")
        tip = _get(cp, "channels", key, float)
        try:
            channels.append(ControlChannel(qubit, axis, tip))
        except ValueError as exc:
            raise ConfigError(f"[channels] {key}: {exc}") from exc
    if not channels:
        raise ConfigError("[channels] must define at least one channel")
    channels.sort(key=lambda c: (c.qubit, c.axis))
    return tuple(channels)


def _read(cp: ConfigParser, section: str, keys: dict, context: str = "") -> dict:
    """Every key of the table ``keys`` read from section, defaults filled
    in; a key the table does not declare is rejected."""
    for key in cp.options(section) if cp.has_section(section) else ():
        if key not in keys:
            raise ConfigError(f"[{section}] unknown key {key!r}{context}")
    return {key: _get(cp, section, key, kind, default)
            for key, (kind, default) in keys.items()}


def _get(cp: ConfigParser, section: str, key: str, kind: type, default=_REQUIRED):
    """One value of type kind (str, int or float, which must be finite)."""
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] missing required key {key!r}")
        return default
    raw = cp.get(section, key)
    if kind is str:
        return raw.strip()
    try:
        value = kind(raw)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {noun}") from exc
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite")
    return value


def _build_qubit(spec: dict, n_levels: int) -> QubitLevels:
    builder, keys = _QUBIT_TYPES[spec["type"]]
    args = [spec[k] * GHZ if k.endswith("_ghz") else spec[k]
            for k, (kind, _) in keys.items() if kind is float]
    options = {k: spec[k] for k, (kind, _) in keys.items() if kind is int and k in spec}
    return builder(*args, n_levels, **options)


def build_system(cfg: ExperimentConfig) -> CoupledSystem:
    """Materialize the CoupledSystem; parameters the physics rejects, or
    that overflow once scaled to rad/s, raise ConfigError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            qubits = [_build_qubit(spec, cfg.n_sim_levels) for spec in cfg.qubit_specs]
            return CoupledSystem(
                qubits,
                n_levels=cfg.n_levels,
                n_sim_levels=cfg.n_sim_levels,
                j_coupling=cfg.j_ghz * GHZ,
                channels=cfg.channels,
                clock_period=cfg.clock_period,
            )
    except ArithmeticError as exc:  # numpy FloatingPointError, float OverflowError
        raise ConfigError(f"the physics overflows in rad/s: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
