"""Report files: exact float round trips and the wide re-evaluation row."""

import numpy as np
import pytest

from sfq_control.config import parse_config_text
from sfq_control.propagate import PulseSchedule
from sfq_control.reports import evaluate_gate, read_report, write_report

CONFIG = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[channels]
x0 = 0.03
z0 = 0.03

[gate]
target = X
time_ns = 0.32

[learning]
n_levels = 3
n_sim_levels = 4

[ga]
population_size = 20
selection_size = 12
seed = 5
"""


@pytest.fixture(scope="module")
def report():
    cfg = parse_config_text(CONFIG)
    rng = np.random.default_rng(17)
    schedule = PulseSchedule.random(rng, 2, cfg.num_cycles)
    return evaluate_gate(cfg, schedule)


class TestEvaluateGate:
    def test_fields(self, report):
        assert report.command == "evaluate"
        assert report.terminated_by == "evaluate_only"
        assert report.iterations == 0
        assert report.metric == "f2"
        assert report.fitness == report.f2
        assert report.error == 1.0 - report.fitness
        assert 0.0 <= report.leakage <= 1.0
        assert set(report.bitstreams) == {"0:x", "0:z"}
        assert len(report.bitstreams["0:x"]) == 40

    def test_needs_exactly_one_of_schedule_and_search(self):
        cfg = parse_config_text(CONFIG)
        with pytest.raises(TypeError):
            evaluate_gate(cfg)

    def test_wide_row_present_and_sane(self, report):
        # two extra levels must not change a converged answer wildly
        assert 0.0 <= report.f1_wide <= 1.0
        assert 0.0 <= report.leakage_wide <= 1.0
        assert abs(report.f2_wide - report.f2) < 0.05


class TestRoundTrip:
    def test_exact_equality(self, report, tmp_path):
        path = tmp_path / "report.txt"
        write_report(path, report)
        loaded = read_report(path)
        # frozen dataclass equality covers every compared field, float exact
        assert loaded == report
        assert loaded.config_echo == report.config_echo

    def test_rewrite_is_byte_stable(self, report, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_report(a, report)
        write_report(b, read_report(a))
        assert a.read_bytes() == b.read_bytes()
