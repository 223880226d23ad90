"""Report files: exact float round trips and the wide re-evaluation row."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import stepwise_scores
from sfq_control import propagate, search
from sfq_control.config import build_system, parse_config, parse_config_text
from sfq_control.metrics import gate_breakdown
from sfq_control.propagate import PulseSchedule, evolve_full, precompute, read_bitstreams
from sfq_control.reports import evaluate_gate, read_report, write_report

DATA = Path(__file__).parent / "data"

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


PAIR = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[qubit1]
type = transmon
omega01_ghz = 3.5
alpha_ghz = -0.225

[coupling]
j_ghz = 0.1

[channels]
{channels}

[gate]
target = CZ
time_ns = {time_ns}

[learning]
n_levels = {n_levels}
n_sim_levels = {n_sim_levels}
"""


def pair_config(channels, time_ns, n_levels, n_sim_levels):
    return parse_config_text(PAIR.format(
        channels=channels, time_ns=time_ns, n_levels=n_levels, n_sim_levels=n_sim_levels))


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

    def test_z_only_pair_matches_the_full_unitaries(self):
        # the report evolves the computational columns on the 6 states with
        # at most two excitations; the full unitaries, cut to those columns,
        # give the same numbers
        cfg = pair_config("z1 = 0.03", 0.8, 3, 4)
        schedule = PulseSchedule.random(np.random.default_rng(3), 1, cfg.num_cycles)
        report = evaluate_gate(cfg, schedule)
        target = cfg.target()
        sim, wide = (
            gate_breakdown(evolve_full(precompute(s), schedule)[:, s.comp_sim_indices],
                           s, target)
            for s in (build_system(cfg),
                      build_system(replace(cfg, n_sim_levels=cfg.n_sim_levels + 2)))
        )
        assert sim.leakage > 1e-6  # the exchange moves population out of 11
        for got, full in ((report.leakage, sim.leakage), (report.f1_wide, wide.f1),
                          (report.f2_wide, wide.f2), (report.leakage_wide, wide.leakage)):
            assert abs(got - full) <= 1e-12

    def test_only_computational_columns_are_evolved(self, monkeypatch):
        # the learning-space score and both full-space rows evolve the 4
        # computational columns, so no evolution of the report starts from more
        real, widths = propagate._evolve, []

        def recording(system, tables, bits, start, rows, blocks=None):
            widths.append(start.shape[-1])
            return real(system, tables, bits, start, rows, blocks)

        monkeypatch.setattr(propagate, "_evolve", recording)
        monkeypatch.setattr(search, "_evolve", recording)
        cfg = pair_config("x0 = 0.03\nx1 = 0.03", 0.16, 2, 3)
        schedule = PulseSchedule.random(np.random.default_rng(4), 2, cfg.num_cycles)
        evaluate_gate(cfg, schedule)
        assert len(widths) == 3  # the score, n_sim and n_sim + 2
        assert max(widths) <= 2**2

    def test_reports_chain_words_of_several_cycles(self, monkeypatch):
        # the 40 ns x-channel CZ: its three chains take k = 4, 2 and 2 from
        # the word-size rule, so one cycle per product would chain twice
        # the words allowed here
        real, words = propagate.chain, []

        def counting(mats, w, m):
            words.append(w.shape[-1])
            return real(mats, w, m)

        monkeypatch.setattr(propagate, "chain", counting)
        cfg = pair_config("x0 = 0.003\nx1 = 0.003", 40.0, 5, 7)
        assert cfg.num_cycles == 5000
        schedule = PulseSchedule.random(np.random.default_rng(6), 2, cfg.num_cycles)
        evaluate_gate(cfg, schedule)
        assert 0 < sum(words) <= 3 * 5000 // 2

    def test_norm_loss_is_what_the_computational_columns_lose(self):
        # on the regression problem: 1 - ||computational columns of the
        # plain per-cycle learning block||^2 / 2^q, the number its recorded
        # report holds
        cfg = parse_config(DATA / "regression.ini")
        schedule, _, _ = read_bitstreams(DATA / "regression_bitstream.txt")
        report = evaluate_gate(cfg, schedule)
        cycles = precompute(build_system(cfg))
        want = stepwise_scores(cycles, schedule.bits, cfg.target())["norm_loss"]
        assert report.norm_loss == pytest.approx(want, rel=0, abs=1e-12)
        recorded = read_report(DATA / "regression_report.txt").norm_loss
        assert recorded == pytest.approx(want, rel=0, abs=1e-12)


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
