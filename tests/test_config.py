"""INI experiment configs: defaults, unit conversion, strict rejection."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import GHZ
from sfq_control.config import (
    DESK_MAX_ITERATIONS,
    ConfigError,
    build_system,
    parse_config,
    parse_config_text,
)
from sfq_control.system import ControlChannel

PAIR_CZ = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[qubit1]
type = transmon
omega01_ghz = 3.5
alpha_ghz = -0.225

[coupling]
j_ghz = 0.05

[channels]
z0 = 0.03
z1 = 0.03

[gate]
target = CZ
time_ns = 10
"""

SINGLE_X = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[channels]
x0 = 0.03

[gate]
target = X
time_ns = 5
"""


def edit(base, old, new):
    assert old in base
    return base.replace(old, new)


class TestHappyPath:
    def test_pair_defaults(self):
        cfg = parse_config_text(PAIR_CZ)
        assert cfg.num_qubits == 2
        assert cfg.j_ghz == 0.05
        assert cfg.target_name == "CZ"
        assert cfg.clock_ps == 8.0
        assert cfg.n_levels == 5
        assert cfg.n_sim_levels == 7
        assert cfg.num_cycles == 1250
        assert cfg.ga.max_iterations == DESK_MAX_ITERATIONS
        assert cfg.ga.metric == "f2"
        assert cfg.ga.seed == 0
        assert cfg.out_dir is None
        assert cfg.channel_keys() == ["0:z", "1:z"]

    def test_single_qubit(self):
        cfg = parse_config_text(SINGLE_X)
        assert cfg.num_qubits == 1
        assert cfg.j_ghz == 0.0
        assert cfg.num_cycles == 625
        assert cfg.channels == (ControlChannel(0, "x", 0.03),)

    def test_explicit_sections(self):
        text = PAIR_CZ + """
[learning]
n_levels = 3
n_sim_levels = 6

[ga]
seed = 4
population_size = 30
selection_size = 20
mutation_probability = 0.002
max_iterations = 500
target_fidelity = 0.99
metric = f1

[output]
out_dir = results
"""
        cfg = parse_config_text(text)
        assert cfg.n_levels == 3
        assert cfg.n_sim_levels == 6
        assert cfg.ga.seed == 4
        assert cfg.ga.population_size == 30
        assert cfg.ga.max_iterations == 500
        assert cfg.ga.metric == "f1"
        assert cfg.out_dir == "results"

    def test_n_sim_defaults_to_n_levels_plus_two(self):
        text = PAIR_CZ + "\n[learning]\nn_levels = 3\n"
        cfg = parse_config_text(text)
        assert cfg.n_sim_levels == 5

    def test_channel_ordering_is_by_qubit_then_axis(self):
        text = edit(PAIR_CZ, "z0 = 0.03\nz1 = 0.03", "z1 = 0.04\nx0 = 0.02\nz0 = 0.03")
        cfg = parse_config_text(text)
        assert cfg.channel_keys() == ["0:x", "0:z", "1:z"]

    def test_equality_ignores_echo(self):
        assert parse_config_text(PAIR_CZ) == parse_config_text(PAIR_CZ + "\n")

    def test_percent_is_literal(self):
        # no interpolation: '%' is an ordinary character in any value
        cfg = parse_config_text(SINGLE_X + "\n[output]\nout_dir = runs/50%\n")
        assert cfg.out_dir == "runs/50%"
        assert cfg.echo["output"]["out_dir"] == "runs/50%"

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(PAIR_CZ)
        assert parse_config(path) == parse_config_text(PAIR_CZ)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config files", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(block)
        assert cfg.target_name == "CZ"
        assert cfg.channel_keys() == ["1:z"]
        assert cfg.num_cycles == 1250
        assert cfg.ga.seed == 21

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")

    def test_split_transmon_and_fluxonium_types(self):
        text = """
[qubit0]
type = split_transmon
ej1_ghz = 5.0
ej2_ghz = 4.0
ec_ghz = 0.25
phi_e = 0.785398163

[channels]
x0 = 0.03

[gate]
target = X
time_ns = 5
"""
        cfg = parse_config_text(text)
        assert cfg.qubit_specs[0]["type"] == "split_transmon"
        text = """
[qubit0]
type = fluxonium
ej_ghz = 5.5
ec_ghz = 1.5
el_ghz = 1.0
phi_e = 3.141592653589793
basis_size = 60

[channels]
x0 = 0.03

[gate]
target = X
time_ns = 5
"""
        cfg = parse_config_text(text)
        assert cfg.qubit_specs[0]["basis_size"] == 60


class TestBuildSystem:
    def test_ghz_conversion(self):
        system = build_system(parse_config_text(PAIR_CZ))
        assert system.qubits[0].energies[1] == pytest.approx(3.9 * GHZ, rel=1e-12)
        assert system.j_coupling == pytest.approx(0.05 * GHZ, rel=1e-12)
        assert system.clock_period == pytest.approx(8e-12)
        assert system.n_levels == 5
        assert system.n_sim_levels == 7

    def test_wider_truncation_override(self):
        cfg = parse_config_text(PAIR_CZ)
        wide = build_system(replace(cfg, n_sim_levels=9))
        assert wide.n_sim_levels == 9
        assert wide.n_levels == cfg.n_levels
        with pytest.raises(ConfigError):
            build_system(replace(cfg, n_sim_levels=3))

    def test_channels_materialize(self):
        system = build_system(parse_config_text(SINGLE_X))
        assert len(system.channels) == 1
        assert system.channels[0].axis == "x"
        assert system.channels[0].tip_angle == 0.03

    def test_channel_keys_are_sorted_and_match_the_system(self):
        rng = np.random.default_rng(0)
        for size in range(1, 5):
            for _ in range(6):
                names = rng.permutation(["x0", "z0", "x1", "z1"])[:size]
                lines = "\n".join(f"{n} = 0.0{i + 1}" for i, n in enumerate(names))
                cfg = parse_config_text(edit(PAIR_CZ, "z0 = 0.03\nz1 = 0.03", lines))
                keys = cfg.channel_keys()
                assert keys == [c.key for c in build_system(cfg).channels]
                assert keys == sorted(keys) and len(keys) == size
                tips = {f"{n[1]}:{n[0]}": float(f"0.0{i + 1}")
                        for i, n in enumerate(names)}
                assert [c.tip_angle for c in cfg.channels] == [tips[k] for k in keys]


class TestRejection:
    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda t: t + "\n[typo]\nx = 1\n", "unknown section"),
            (lambda t: edit(t, "alpha_ghz = -0.225\n\n[qubit1]",
                            "alpha_ghz = -0.225\nej_ghz = 5\n\n[qubit1]"),
             "unknown key"),
            (lambda t: edit(t, "z0 = 0.03", "y0 = 0.03"), "unknown key"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = 10\nramp = 1"),
             "unknown key"),
            (lambda t: edit(t, "type = transmon\nomega01_ghz = 3.9",
                            "type = laser\nomega01_ghz = 3.9"),
             "unknown qubit type"),
            (lambda t: edit(t, "omega01_ghz = 3.9\n", ""), "missing required key"),
            (lambda t: edit(t, "omega01_ghz = 3.9", "omega01_ghz = fast"),
             "not a number"),
            (lambda t: edit(t, "omega01_ghz = 3.9", "omega01_ghz = inf"),
             "must be finite"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = %(x)s"),
             "'%\\(x\\)s' is not a number"),
            (lambda t: edit(t, "target = CZ", "target = CPHASE"), "unknown"),
            (lambda t: edit(t, "target = CZ", "target = X"), "1-qubit gate"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = -1"), "positive"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = 10\nclock_ps = 0"),
             "positive"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = 0.001"),
             "shorter than one clock"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = 8e12"),
             "1e\\+15 clock cycles, over the 1000000 allowed"),
            (lambda t: edit(t, "time_ns = 10", "time_ns = 0.101"),
             "not a whole number of 8.0 ps clock cycles"),
            (lambda t: t + "\n[learning]\nn_levels = 1\n", "at least 2"),
            (lambda t: t + "\n[learning]\nn_levels = 5\nn_sim_levels = 4\n",
             "n_sim_levels"),
            (lambda t: t + "\n[learning]\nn_levels = 2.5\n", "not an integer"),
            (lambda t: t + "\n[ga]\nmetric = f9\n", "metric"),
            (lambda t: t + "\n[ga]\npopulation_size = 1\n", "population_size"),
            (lambda t: t + "\n[ga]\nselection_size = 7\n", "even"),
            (lambda t: t + "\n[ga]\nseed = -1\n", "seed must be a non-negative integer"),
            (lambda t: "not ini at all\n" + t, "not valid INI"),
            (lambda t: t + "\n[ga]\nelitism_count = 2\n",
             "unknown key 'elitism_count'"),
        ],
    )
    def test_bad_pair_configs(self, mutate, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(mutate(PAIR_CZ))

    def test_missing_required_sections(self):
        for cut in ("[qubit0]", "[gate]", "[channels]"):
            broken = "\n".join(
                line for line in PAIR_CZ.splitlines() if line.strip() != cut
            )
            with pytest.raises(ConfigError):
                parse_config_text(broken)

    def test_coupling_rules(self):
        with pytest.raises(ConfigError, match="only one qubit"):
            parse_config_text(SINGLE_X + "\n[coupling]\nj_ghz = 0.05\n")
        no_coupling = "\n".join(
            line
            for line in PAIR_CZ.splitlines()
            if line.strip() not in ("[coupling]", "j_ghz = 0.05")
        )
        with pytest.raises(ConfigError, match="coupling"):
            parse_config_text(no_coupling)

    def test_channel_on_absent_qubit(self):
        with pytest.raises(ConfigError, match="absent qubit"):
            parse_config_text(edit(SINGLE_X, "x0 = 0.03", "x0 = 0.03\nz1 = 0.03"))

    def test_no_channels(self):
        with pytest.raises(ConfigError, match="at least one channel"):
            parse_config_text(edit(SINGLE_X, "x0 = 0.03", ""))

    def test_unbuildable_physics_fails_at_parse(self):
        # shallow split transmon well is caught by the dry-run build
        text = """
[qubit0]
type = split_transmon
ej1_ghz = 0.5
ej2_ghz = 0.4
ec_ghz = 1.0
phi_e = 0.0

[channels]
x0 = 0.03

[gate]
target = X
time_ns = 5
"""
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_zero_tip_angle_fails_at_parse(self):
        with pytest.raises(ConfigError):
            parse_config_text(edit(SINGLE_X, "x0 = 0.03", "x0 = 0.0"))
