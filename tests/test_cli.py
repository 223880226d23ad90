"""End-to-end command-line runs against temporary configs and outputs."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sfq_control import cli
from sfq_control.config import build_system, parse_config
from sfq_control.propagate import PulseSchedule, write_bitstreams
from sfq_control.reports import read_report

FAST_LEARN = """
[qubit0]
type = transmon
omega01_ghz = 3.9
alpha_ghz = -0.225

[channels]
x0 = 0.03
z0 = 0.03

[gate]
target = I
time_ns = 0.32

[learning]
n_levels = 3
n_sim_levels = 4

[ga]
population_size = 20
selection_size = 12
mutation_probability = 0.01
max_iterations = 800
target_fidelity = 0.999
metric = f1
seed = 3
"""

PAIR_SPECTRUM = """
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

[learning]
n_levels = 3
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_LEARN)
    return path


def write_variant(tmp_path, old, new, name="variant.ini"):
    path = tmp_path / name
    path.write_text(FAST_LEARN.replace(old, new))
    return path


class TestLearn:
    def test_converged_run_writes_outputs(self, fast_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(
            ["learn", "--config", str(fast_config), "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "report.txt").is_file()
        assert (out / "bitstream.txt").is_file()
        captured = capsys.readouterr()
        assert "target_reached" in captured.out
        report = read_report(out / "report.txt")
        assert report.terminated_by == "target_reached"
        assert report.fitness >= 0.999
        assert report.command == "learn"
        assert report.num_cycles == 40

    def test_same_seed_reproduces_bitstream(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(out1)])
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(out2)])
        assert (out1 / "bitstream.txt").read_bytes() == (
            out2 / "bitstream.txt"
        ).read_bytes()

    def test_budget_exhaustion_exits_3_with_report(self, tmp_path, capsys):
        config = write_variant(tmp_path, "target = I", "target = X")
        out = tmp_path / "run"
        code = cli.main(
            ["learn", "--config", str(config), "--out-dir", str(out),
             "--max-iters", "3"]
        )
        assert code == 3
        assert (out / "report.txt").is_file()
        assert (out / "bitstream.txt").is_file()
        assert read_report(out / "report.txt").terminated_by == "max_iterations"
        assert "budget" in capsys.readouterr().err

    def test_report_reuses_the_search_breakdown(
        self, fast_config, tmp_path, monkeypatch
    ):
        # learn reports the search's canonical breakdown of the best instead
        # of scoring the same bits a second time
        from dataclasses import replace

        from sfq_control import reports, search
        from sfq_control.config import build_system, parse_config

        calls = []
        real = search.evaluate_fitness

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (search, reports):
            monkeypatch.setattr(module, "evaluate_fitness", counting)
        cfg = parse_config(fast_config)
        ga = replace(cfg.ga, max_iterations=5)
        search.run_ga(build_system(cfg), cfg.target(), cfg.num_cycles, ga)
        in_search = len(calls)
        calls.clear()
        cli.main(["learn", "--config", str(fast_config), "--out-dir",
                  str(tmp_path / "run"), "--max-iters", "5"])
        assert len(calls) == in_search > 0

    def test_seed_override_recorded(self, fast_config, tmp_path):
        out = tmp_path / "run"
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(out),
                  "--seed", "99", "--max-iters", "5"])
        assert read_report(out / "report.txt").seed == 99

    def test_invalid_config_exits_2_without_outputs(self, tmp_path, capsys):
        config = write_variant(tmp_path, "metric = f1", "metric = f1\nbogus = 1")
        out = tmp_path / "run"
        code = cli.main(
            ["learn", "--config", str(config), "--out-dir", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_percent_in_a_value_survives_the_report(self, tmp_path):
        out = tmp_path / "runs" / "50%"
        config = write_variant(tmp_path, "seed = 3", f"seed = 3\n\n[output]\nout_dir = {out}")
        assert cli.main(["learn", "--config", str(config), "--max-iters", "2"]) in (0, 3)
        report = read_report(out / "report.txt")
        assert report.config_echo["output"]["out_dir"] == str(out)

    def test_interpolation_syntax_exits_2(self, tmp_path, capsys):
        config = write_variant(tmp_path, "time_ns = 0.32", "time_ns = %(x)s")
        out = tmp_path / "run"
        assert cli.main(["learn", "--config", str(config), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "is not a number" in err

    def test_budget_flags_conflict(self, fast_config, tmp_path):
        code = cli.main(
            ["learn", "--config", str(fast_config), "--out-dir",
             str(tmp_path / "x"), "--max-iters", "5", "--full-budget"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--seed", "-1"],
            ["learn", "--checkpoint-every", "-3"],
            ["sweep", "--seed", "-1", "--param", "tip_angle", "--values", "0.03"],
        ],
    )
    def test_bad_flag_exits_2_without_outputs(self, fast_config, tmp_path, capsys, argv):
        out = tmp_path / "run"
        code = cli.main([*argv, "--config", str(fast_config), "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_nonpositive_max_iters(self, fast_config, tmp_path):
        code = cli.main(
            ["learn", "--config", str(fast_config), "--out-dir",
             str(tmp_path / "x"), "--max-iters", "0"]
        )
        assert code == 2

    def test_checkpoint_and_resume(self, fast_config, tmp_path):
        out = tmp_path / "run"
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(out),
                  "--max-iters", "10", "--checkpoint-every", "5"])
        ck = out / "checkpoint.txt"
        assert ck.is_file()
        code = cli.main(
            ["learn", "--config", str(fast_config), "--out-dir",
             str(tmp_path / "resumed"), "--resume", str(ck)]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "case",
        ["missing", "foreign", "truncated", "version_1", "other_problem",
         "other_settings", "population_size", "num_channels", "nan_fitness",
         "inf_fitness"],
    )
    def test_bad_resume_exits_2_without_outputs(
        self, fast_config, tmp_path, capsys, case
    ):
        run = tmp_path / "run"
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(run),
                  "--max-iters", "5", "--checkpoint-every", "5"])
        ck = run / "checkpoint.txt"
        config, extra = fast_config, []
        if case == "missing":
            ck = tmp_path / "none.txt"
        elif case == "foreign":
            ck = run / "report.txt"
        elif case == "truncated":
            ck.write_text(ck.read_text()[:300])
        elif case == "version_1":
            ck.write_text(ck.read_text().replace("version = 2", "version = 1"))
        elif case == "other_problem":
            config = write_variant(tmp_path, "time_ns = 0.32", "time_ns = 0.4")
        elif case == "population_size":  # [meta] only; [ga] keeps 20
            ck.write_text(ck.read_text().replace(
                "population_size = 20", "population_size = 19", 1))
        elif case == "num_channels":
            ck.write_text(ck.read_text().replace("num_channels = 2", "num_channels = 1"))
        elif case.endswith("_fitness"):
            text = ck.read_text()
            old = text.split("fitness_0 = ")[1].split("\n")[0]
            ck.write_text(text.replace(f"fitness_0 = {old}",
                                       f"fitness_0 = {case[:3]}"))
        else:
            extra = ["--seed", "4"]
        capsys.readouterr()
        out = tmp_path / "resumed"
        code = cli.main(["learn", "--config", str(config), "--out-dir", str(out),
                         "--checkpoint-every", "1", "--resume", str(ck), *extra])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume from")
        assert err.count("\n") == 1


class TestEvaluate:
    @pytest.fixture
    def learned(self, fast_config, tmp_path):
        out = tmp_path / "learned"
        cli.main(["learn", "--config", str(fast_config), "--out-dir", str(out)])
        return out

    def test_round_trip_matches_learn_exactly(
        self, fast_config, tmp_path, learned
    ):
        out = tmp_path / "eval"
        code = cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(learned / "bitstream.txt"),
             "--out-dir", str(out)]
        )
        assert code == 0
        got = read_report(out / "evaluate_report.txt")
        ref = read_report(learned / "report.txt")
        assert got.command == "evaluate"
        for name in ("fitness", "error", "f1", "f2", "leakage", "norm_loss",
                     "f1_wide", "f2_wide", "leakage_wide"):
            assert getattr(got, name) == getattr(ref, name), name
        assert got.z_angles == ref.z_angles
        assert got.bitstreams == ref.bitstreams

    def test_reordered_channels_are_realigned(
        self, fast_config, tmp_path, learned
    ):
        ref = read_report(learned / "report.txt")
        bits = PulseSchedule.from_bitstrings(
            [ref.bitstreams["0:z"], ref.bitstreams["0:x"]]
        )
        swapped = tmp_path / "swapped.txt"
        write_bitstreams(swapped, bits, ["0:z", "0:x"], 8.0)
        out = tmp_path / "eval"
        code = cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(swapped), "--out-dir", str(out)]
        )
        assert code == 0
        assert read_report(out / "evaluate_report.txt").fitness == ref.fitness

    def test_channel_set_mismatch(self, fast_config, tmp_path):
        lone = tmp_path / "lone.txt"
        write_bitstreams(lone, PulseSchedule.zeros(1, 40), ["0:x"], 8.0)
        out = tmp_path / "eval"
        code = cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(lone), "--out-dir", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_cycle_count_mismatch(self, fast_config, tmp_path):
        short = tmp_path / "short.txt"
        write_bitstreams(short, PulseSchedule.zeros(2, 30), ["0:x", "0:z"], 8.0)
        assert cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(short), "--out-dir", str(tmp_path / "e")]
        ) == 2

    def test_clock_mismatch(self, fast_config, tmp_path):
        wrong = tmp_path / "wrong.txt"
        write_bitstreams(wrong, PulseSchedule.zeros(2, 40), ["0:x", "0:z"], 4.0)
        assert cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(wrong), "--out-dir", str(tmp_path / "e")]
        ) == 2

    def test_missing_bitstream_file(self, fast_config, tmp_path):
        assert cli.main(
            ["evaluate", "--config", str(fast_config),
             "--bitstream", str(tmp_path / "none.txt"),
             "--out-dir", str(tmp_path / "e")]
        ) == 2


class TestSweep:
    def test_csv_rows_per_value(self, fast_config, tmp_path):
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(fast_config), "--out-dir", str(out),
             "--param", "tip_angle", "--values", "0.02,0.03",
             "--max-iters", "20"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,error_f1,error_f2,leakage,iterations,seconds"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.02
        assert 0.0 <= float(first[1]) <= 1.0
        assert int(first[4]) == 20

    def test_point_failure_leaves_blank_row(
        self, fast_config, tmp_path, monkeypatch, capsys
    ):
        from sfq_control.search import run_ga as real_run_ga

        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("solver blew up")
            return real_run_ga(*args, **kwargs)

        monkeypatch.setattr(cli, "run_ga", flaky)
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(fast_config), "--out-dir", str(out),
             "--param", "tip_angle", "--values", "0.02,0.025,0.03",
             "--max-iters", "10"]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[2] == "0.025,,,,,"
        assert "solver blew up" in capsys.readouterr().err

    def test_interrupt_keeps_finished_points(self, fast_config, tmp_path, monkeypatch):
        from sfq_control.search import run_ga as real_run_ga

        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_run_ga(*args, **kwargs)

        monkeypatch.setattr(cli, "run_ga", interrupted)
        out = tmp_path / "sweep"
        with pytest.raises(KeyboardInterrupt):
            cli.main(
                ["sweep", "--config", str(fast_config), "--out-dir", str(out),
                 "--param", "tip_angle", "--values", "0.02,0.025,0.03",
                 "--max-iters", "10"]
            )
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,error_f1,error_f2,leakage,iterations,seconds"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "0.02"
        assert lines[1].split(",")[4] == "10"

    def test_programming_error_is_not_a_failed_point(
        self, fast_config, tmp_path, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "run_ga", broken)
        out = tmp_path / "sweep"
        with pytest.raises(TypeError, match="bug"):
            cli.main(
                ["sweep", "--config", str(fast_config), "--out-dir", str(out),
                 "--param", "tip_angle", "--values", "0.02", "--max-iters", "5"]
            )
        assert not (out / "sweep.csv").exists()

    def test_bad_point_rejected_before_any_search(self, fast_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        for param, values in [
            ("gate_time_ns", "0.32,0.001"),  # under one clock cycle
            ("gate_time_ns", "0.32,0.101"),  # off the 8 ps clock grid
            ("gate_time_ns", "0.32,nan"),
            ("gate_time_ns", "inf"),
            ("tip_angle", "0.03,0"),  # rejected by ControlChannel
            ("tip_angle", "nan"),
        ]:
            capsys.readouterr()
            code = cli.main(
                ["sweep", "--config", str(fast_config), "--out-dir", str(out),
                 "--param", param, "--values", values]
            )
            assert code == 2, values
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_bad_values_string(self, fast_config, tmp_path):
        assert cli.main(
            ["sweep", "--config", str(fast_config), "--param", "tip_angle",
             "--values", "a,b", "--out-dir", str(tmp_path / "s")]
        ) == 2
        assert cli.main(
            ["sweep", "--config", str(fast_config), "--param", "tip_angle",
             "--values", ",", "--out-dir", str(tmp_path / "s")]
        ) == 2

    def test_j_sweep_needs_two_qubits(self, fast_config, tmp_path):
        assert cli.main(
            ["sweep", "--config", str(fast_config), "--param", "j_ghz",
             "--values", "0.05", "--out-dir", str(tmp_path / "s")]
        ) == 2


class TestSpectrumAndOracle:
    def test_spectrum_single(self, fast_config, capsys):
        assert cli.main(["spectrum", "--config", str(fast_config)]) == 0
        out = capsys.readouterr().out
        assert "qubit0 (transmon)" in out
        assert "3.900000" in out

    def test_spectrum_pair(self, tmp_path, capsys):
        path = tmp_path / "pair.ini"
        path.write_text(PAIR_SPECTRUM)
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dressed levels" in out
        assert "0.1224893" in out

    def test_oracle_agrees_at_short_pulses(self, fast_config, capsys):
        code = cli.main(
            ["oracle", "--config", str(fast_config), "--cycles", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        agree = float(out.split("agreement F1 = ")[1].split()[0])
        assert agree >= 0.9999

    def test_oracle_argument_validation(self, fast_config, capsys):
        for flags in (
            ["--cycles", "0"],
            ["--pulse-width-ps", "-1"],
            ["--pulse-width-ps", "3"],  # over a quarter of the 8 ps cycle
            ["--pulse-width-ps", "nan"],
            ["--substeps", "4"],
            ["--seed", "-1"],
        ):
            capsys.readouterr()
            assert cli.main(["oracle", "--config", str(fast_config), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_oracle_refuses_before_the_delta_kick_chain(
        self, fast_config, capsys, monkeypatch
    ):
        def never(*args):
            raise AssertionError("evolve_full ran for a refused request")

        monkeypatch.setattr(cli, "evolve_full", never)
        code = cli.main(["oracle", "--config", str(fast_config), "--substeps", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @staticmethod
    def _refused(*flags):
        """Run oracle on the regression config in a child process, so a run
        that does integrate is killed, not waited on; check it exits 2 at
        once with one error line."""
        root = Path(__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        t0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "sfq_control.cli", "oracle",
             "--config", str(root / "tests" / "data" / "regression.ini"), *flags],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert time.perf_counter() - t0 < 2.0
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert run.stdout == ""

    def test_oracle_refuses_unbounded_work(self):
        # about 5e11 matrix exponentials: refused before integrating
        self._refused("--cycles", "3", "--substeps", "100000000000")

    @pytest.mark.parametrize("flags", [
        # 3 x 1e20 substeps cannot be indexed in int64
        ("--cycles", "3", "--substeps", "100000000000000000000"),
        # 2^61 substeps: the doubled run's window end, about 1.5e19, would
        # wrap to a negative int64 and a negative work count
        ("--cycles", "1", "--substeps", str(2**61), "--pulse-width-ps", "2.0"),
    ], ids=["1e20", "window-wrap"])
    def test_oracle_refuses_substeps_past_int64(self, flags):
        self._refused(*flags)


REGRESSION_INI = Path(__file__).parent / "data" / "regression.ini"

# INI numbers that are finite but overflow once scaled to physics in rad/s:
# the exchange, a kick generator tip * (n_sim - 1), a qubit frequency, and
# one whose square (the transmon's EJ) overflows inside the level builder.
OVERFLOWING = {
    "j_ghz": PAIR_SPECTRUM.replace("j_ghz = 0.05", "j_ghz = 1e300"),
    "z0": REGRESSION_INI.read_text().replace("z0 = 0.03", "z0 = 1e308"),
    "omega01_ghz": REGRESSION_INI.read_text().replace("omega01_ghz = 3.9",
                                                     "omega01_ghz = 1e300"),
    "omega01_ghz_squared": REGRESSION_INI.read_text().replace(
        "omega01_ghz = 3.9", "omega01_ghz = 1e150"),
}

# The n_sim_levels system builds; the report's n_sim_levels + 2 system does
# not (its level ladder collapses).
WIDE_COLLAPSES = (REGRESSION_INI.read_text()
                  .replace("alpha_ghz = -0.225", "alpha_ghz = -0.9")
                  .replace("n_sim_levels = 4", "n_sim_levels = 5"))


def refused_without_outputs(tmp_path, capsys, argv):
    """Run the CLI in this process (a RuntimeWarning fails the test) from
    tmp_path; check it exits 2 with one error line and writes nothing."""
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before
    return err


class TestRefusedConfigs:
    @pytest.mark.parametrize("command", ["learn", "spectrum", "oracle"])
    @pytest.mark.parametrize("key", sorted(OVERFLOWING))
    def test_overflowing_physics_exits_2(self, tmp_path, capsys, monkeypatch, key, command):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "overflow.ini"
        config.write_text(OVERFLOWING[key])
        out = ["--out-dir", str(tmp_path / "run")] if command == "learn" else []
        refused_without_outputs(tmp_path, capsys, [command, "--config", str(config), *out])

    @pytest.mark.parametrize("argv", [
        ["learn", "--out-dir", "run"],
        ["evaluate", "--out-dir", "run", "--bitstream", str(REGRESSION_INI)],
        ["sweep", "--out-dir", "run", "--param", "tip_angle", "--values", "0.03"],
        ["spectrum"],
        ["oracle"],
    ], ids=lambda argv: argv[0])
    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "bad.ini"
        config.write_bytes(b"\xff[gate]\n")
        err = refused_without_outputs(tmp_path, capsys, [*argv, "--config", str(config)])
        assert err.startswith(f"error: cannot read config {config}")

    @pytest.fixture
    def never_search(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("searched a config the report refuses")

        monkeypatch.setattr(cli, "run_ga", never)

    def test_report_system_that_fails_exits_2_before_search(
        self, tmp_path, capsys, monkeypatch, never_search
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "wide.ini"
        config.write_text(WIDE_COLLAPSES)
        build_system(parse_config(config))  # only the report's system fails
        err = refused_without_outputs(tmp_path, capsys, [
            "learn", "--config", str(config), "--out-dir", str(tmp_path / "run"),
            "--max-iters", "50"])
        assert "level ladder collapses" in err

    def test_sweep_refuses_a_point_whose_report_system_fails(
        self, tmp_path, capsys, monkeypatch, never_search
    ):
        # 3e307 kicks stay finite at n_sim_levels and overflow at
        # n_sim_levels + 2; the first point is good, and still none is searched
        monkeypatch.chdir(tmp_path)
        err = refused_without_outputs(tmp_path, capsys, [
            "sweep", "--config", str(REGRESSION_INI), "--out-dir",
            str(tmp_path / "run"), "--param", "tip_angle", "--values", "0.03,3e307"])
        assert "kick generators overflow" in err


class TestTopLevel:
    def test_version(self, capsys):
        import sfq_control

        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert sfq_control.__version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])
