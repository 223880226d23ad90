"""Genetic search: determinism, convergence, checkpointing, batch scoring."""

import io
import time
from configparser import ConfigParser
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfq_control as sc
from conftest import GHZ, make_pair_system, random_problems
from sfq_control import search
from sfq_control.config import build_system, parse_config
from sfq_control.propagate import PulseSchedule, precompute
from sfq_control.search import (
    CheckpointError,
    GaConfig,
    _FitnessEngine,
    crossover,
    evaluate_fitness,
    read_checkpoint,
    run_ga,
    write_checkpoint,
)
from sfq_control.system import ControlChannel, assemble, lookup_target


@pytest.fixture(scope="module")
def single_qubit_system():
    q = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 6)
    channels = [ControlChannel(0, "x", 0.03), ControlChannel(0, "z", 0.03)]
    return assemble([q], n_levels=3, n_sim_levels=4, channels=channels)


@pytest.fixture(scope="module")
def tiny_config():
    return GaConfig(
        population_size=20,
        selection_size=12,
        mutation_probability=0.01,
        max_iterations=400,
        target_fidelity=0.999,
        metric="f1",
        seed=11,
    )


class TestCrossover:
    def test_frozen_example(self):
        a = np.array([[0, 0, 0, 0, 0]], dtype=np.uint8)
        b = np.array([[1, 1, 1, 1, 1]], dtype=np.uint8)
        ca, cb = crossover(a, b, 2)
        assert ca.tolist() == [[0, 0, 1, 1, 1]]
        assert cb.tolist() == [[1, 1, 0, 0, 0]]

    def test_cut_applies_to_all_channels(self):
        a = np.zeros((2, 4), dtype=np.uint8)
        b = np.ones((2, 4), dtype=np.uint8)
        ca, _ = crossover(a, b, 3)
        assert ca.tolist() == [[0, 0, 0, 1], [0, 0, 0, 1]]

    def test_edge_cuts(self):
        a = np.zeros((1, 3), dtype=np.uint8)
        b = np.ones((1, 3), dtype=np.uint8)
        assert crossover(a, b, 0)[0].tolist() == [[1, 1, 1]]
        assert crossover(a, b, 3)[0].tolist() == [[0, 0, 0]]

    def test_stacked_pairs_match_single_pairs(self):
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 2, size=(2, 4, 3, 9), dtype=np.uint8)
        cuts = np.array([0, 4, 9, 2])
        ca, cb = crossover(a, b, cuts)
        for i, cut in enumerate(cuts):
            sa, sb = crossover(a[i], b[i], int(cut))
            np.testing.assert_array_equal(ca[i], sa)
            np.testing.assert_array_equal(cb[i], sb)
        with pytest.raises(ValueError):
            crossover(a, b, np.array([0, 4, 10, 2]))

    def test_validation(self):
        a = np.zeros((1, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            crossover(a, np.zeros((1, 4), dtype=np.uint8), 1)
        with pytest.raises(ValueError):
            crossover(a, a, 4)
        with pytest.raises(TypeError):
            crossover(a, a, 1.5)


class TestGaConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"selection_size": 71},
            {"selection_size": 3},
            {"mutation_probability": -0.1},
            {"mutation_probability": 1.5},
            {"max_iterations": 0},
            {"target_fidelity": 0.0},
            {"target_fidelity": 1.1},
            {"metric": "f3"},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)

    def test_defaults(self):
        cfg = GaConfig()
        assert cfg.population_size == 70
        assert cfg.selection_size == 60
        assert cfg.mutation_probability == 0.001
        assert cfg.max_iterations == 200_000
        assert cfg.metric == "f2"


class TestEvaluateFitness:
    def test_empty_schedule_is_identity(self, single_qubit_system):
        cycles = precompute(single_qubit_system)
        schedule = PulseSchedule.zeros(2, 0)
        bd = evaluate_fitness(cycles, schedule, lookup_target("I"))
        assert bd.f1 == pytest.approx(1.0, abs=1e-12)
        assert bd.f2 == pytest.approx(1.0, abs=1e-12)

    def test_metric_validation(self, single_qubit_system):
        cycles = precompute(single_qubit_system)
        with pytest.raises(ValueError):
            evaluate_fitness(cycles, PulseSchedule.zeros(2, 4), lookup_target("I"), "f9")


class TestBatchEngine:
    def test_matches_canonical_path(self, transmon_pair):
        q0, q1 = transmon_pair
        for channels, label in [
            ([ControlChannel(0, "z", 0.03), ControlChannel(1, "z", 0.03)], "z only"),
            ([ControlChannel(0, "x", 0.02), ControlChannel(1, "z", 0.03)], "mixed"),
        ]:
            system = make_pair_system(q0, q1, n_levels=3, n_sim=5, channels=channels)
            target = lookup_target("CZ")
            cycles = precompute(system)
            rng = np.random.default_rng(12)
            bits = rng.integers(0, 2, size=(8, 2, 40), dtype=np.uint8)
            for metric in ("f1", "f2"):
                engine = _FitnessEngine(system, target, 40, GaConfig(metric=metric))
                batch = engine.fitness(bits)
                for i in range(8):
                    ref = evaluate_fitness(
                        cycles, PulseSchedule(bits[i]), target, metric
                    ).value(metric)
                    assert batch[i] == pytest.approx(ref, abs=1e-12), label

    @pytest.mark.parametrize("problem", ["search_z", "cli", "regression"])
    def test_score_does_not_depend_on_the_batch(self, transmon_pair, problem):
        # the cache and bit-for-bit resume need a row's score to be a pure
        # function of its bits: alone, among any companions, at any position
        if problem == "regression":
            cfg = parse_config(Path(__file__).parent / "data" / "regression.ini")
            system, target, n = build_system(cfg), cfg.target(), cfg.num_cycles
        else:
            x01 = [ControlChannel(0, "x", 0.003), ControlChannel(1, "x", 0.003)]
            j_ghz, channels, n = {
                "search_z": (0.1, [ControlChannel(1, "z", 0.03)], 625),
                "cli": (0.05, x01, 5000),
            }[problem]
            system = make_pair_system(*transmon_pair, j_ghz=j_ghz, channels=channels)
            target = lookup_target("CZ")
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=(64, len(system.channels), n), dtype=np.uint8)
        for metric in ("f1", "f2"):
            engine = _FitnessEngine(system, target, n, GaConfig(metric=metric))
            whole = engine._fitness_batch(bits)
            alone = [engine._fitness_batch(bits[i : i + 1])[0] for i in range(64)]
            np.testing.assert_array_equal(alone, whole)
            for size in rng.integers(2, 65, size=6):
                pick = rng.permutation(64)[:size]
                again = engine._fitness_batch(bits[pick])
                np.testing.assert_array_equal(again, whole[pick])

    @pytest.mark.parametrize("problem, states, kind", [
        ("search_z", 6, "f"), ("cli", 25, "c"), ("regression", 3, "f")])
    def test_small_learning_spaces_chain_in_real_arithmetic(
        self, transmon_pair, problem, states, kind
    ):
        if problem == "regression":
            cfg = parse_config(Path(__file__).parent / "data" / "regression.ini")
            system, target, n = build_system(cfg), cfg.target(), cfg.num_cycles
        else:
            x01 = [ControlChannel(0, "x", 0.003), ControlChannel(1, "x", 0.003)]
            j_ghz, channels, n = {
                "search_z": (0.1, [ControlChannel(1, "z", 0.03)], 625),
                "cli": (0.05, x01, 5000),
            }[problem]
            system = make_pair_system(*transmon_pair, j_ghz=j_ghz, channels=channels)
            target = lookup_target("CZ")
        engine = _FitnessEngine(system, target, n, GaConfig())
        assert len(engine.rows) == states
        assert {t.dtype.kind for t in engine.tables} == {kind}

    def test_cache_skips_repeat_evaluations(self, single_qubit_system):
        engine = _FitnessEngine(single_qubit_system, lookup_target("X"), 30, GaConfig())
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=(5, 2, 30), dtype=np.uint8)
        first = engine.fitness(bits)
        count = engine.n_evaluations
        second = engine.fitness(bits)
        assert engine.n_evaluations == count
        np.testing.assert_array_equal(first, second)

    def test_cache_keys_are_packed_bits(self, single_qubit_system):
        # 2 channels x 30 cycles = 60 bits -> 8 bytes per key, not 60
        engine = _FitnessEngine(single_qubit_system, lookup_target("X"), 30, GaConfig())
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=(4, 2, 30), dtype=np.uint8)
        repeated = np.concatenate([bits, bits[::-1]])
        scores = engine.fitness(repeated)
        assert {len(key) for key in engine.cache} == {8}
        assert len(engine.cache) == 4
        np.testing.assert_array_equal(scores[:4], scores[4:][::-1])
        count = engine.n_evaluations
        engine.fitness(bits[:1])
        assert engine.n_evaluations == count

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_score_raises(self, single_qubit_system, monkeypatch, bad):
        engine = _FitnessEngine(single_qubit_system, lookup_target("X"), 30, GaConfig())
        monkeypatch.setattr(
            engine, "_fitness_batch", lambda bits: np.full(len(bits), bad)
        )
        bits = np.zeros((2, 2, 30), dtype=np.uint8)
        with pytest.raises(ValueError, match="not finite"):
            engine.fitness(bits)
        assert engine.cache == {}

    def test_target_scores_are_canonical(self, single_qubit_system, monkeypatch):
        # batch scores at or above the target are replaced by the canonical
        # score, once per distinct bits; lower ones are kept as they are
        target = lookup_target("X")
        cfg = GaConfig(target_fidelity=0.5)
        engine = _FitnessEngine(single_qubit_system, target, 30, cfg)
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2, size=(3, 2, 30), dtype=np.uint8)
        bits[2] = bits[0]
        monkeypatch.setattr(
            engine, "_fitness_batch", lambda b: np.array([0.9, 0.1, 0.9])
        )
        calls = []
        real_evaluate = search.evaluate_fitness

        def counting(*args, **kwargs):
            calls.append(1)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(search, "evaluate_fitness", counting)
        scores = engine.fitness(bits)
        want = real_evaluate(engine.cycles, PulseSchedule(bits[0]), target, "f2").f2
        assert scores.tolist() == [want, 0.1, want]
        assert len(calls) == 1


class TestRunGa:
    def test_same_seed_is_deterministic(self, single_qubit_system, tiny_config):
        target = lookup_target("X")
        cfg = replace(tiny_config, max_iterations=60)
        r1 = run_ga(single_qubit_system, target, 50, cfg)
        r2 = run_ga(single_qubit_system, target, 50, cfg)
        np.testing.assert_array_equal(r1.best.bits, r2.best.bits)
        assert r1.best.fitness == r2.best.fitness
        np.testing.assert_array_equal(r1.history, r2.history)

    def test_different_seed_differs(self, single_qubit_system, tiny_config):
        target = lookup_target("X")
        cfg1 = replace(tiny_config, max_iterations=40)
        cfg2 = replace(cfg1, seed=99)
        r1 = run_ga(single_qubit_system, target, 50, cfg1)
        r2 = run_ga(single_qubit_system, target, 50, cfg2)
        assert not np.array_equal(r1.best.bits, r2.best.bits)

    def test_history_is_monotone(self, single_qubit_system, tiny_config):
        result = run_ga(single_qubit_system, lookup_target("X"), 50, tiny_config)
        assert np.all(np.diff(result.history) >= 0)
        # history holds batch scores, best.fitness the canonical one; the two
        # chain the same cycles in a different association
        assert result.history[-1] == pytest.approx(result.best.fitness, abs=1e-12)
        assert len(result.history) == result.iterations_used

    def test_identity_target_converges(self, single_qubit_system):
        # f1 keeps accumulated phases visible, so this is a real search
        cfg = GaConfig(
            population_size=20,
            selection_size=12,
            mutation_probability=0.01,
            max_iterations=500,
            target_fidelity=0.999,
            metric="f1",
            seed=3,
        )
        result = run_ga(single_qubit_system, lookup_target("I"), 40, cfg)
        assert result.terminated_by == "target_reached"
        assert result.best.fitness >= 0.999
        assert result.iterations_used < 500

    def test_best_fitness_matches_canonical(self, single_qubit_system, tiny_config):
        result = run_ga(single_qubit_system, lookup_target("X"), 50, tiny_config)
        cycles = precompute(single_qubit_system)
        bd = evaluate_fitness(
            cycles, result.best.schedule(), lookup_target("X"), tiny_config.metric
        )
        assert result.best.fitness == bd.value(tiny_config.metric)
        assert result.error == pytest.approx(1.0 - result.best.fitness)

    def test_batch_only_pass_is_rescored_once(
        self, single_qubit_system, tiny_config, monkeypatch
    ):
        # The first batch claims individual 0 meets the target; its canonical
        # score does not.  That score is written back, so the canonical path
        # runs once for it and once for the final report, not every iteration.
        calls = {"batch": 0, "canonical": 0}
        real_batch = search._FitnessEngine._fitness_batch
        real_evaluate = search.evaluate_fitness

        def nudged(self, bits):
            f = real_batch(self, bits)
            calls["batch"] += 1
            if calls["batch"] == 1:
                f[0] = 1.0
            return f

        def counting(*args, **kwargs):
            calls["canonical"] += 1
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(search._FitnessEngine, "_fitness_batch", nudged)
        monkeypatch.setattr(search, "evaluate_fitness", counting)
        cfg = replace(tiny_config, max_iterations=20)
        result = run_ga(single_qubit_system, lookup_target("X"), 30, cfg)
        assert result.terminated_by == "max_iterations"
        assert result.iterations_used == 20
        assert calls["canonical"] == 2
        assert np.all(result.history < cfg.target_fidelity)

    def test_wall_time_counts_setup_and_first_scores(
        self, single_qubit_system, tiny_config, monkeypatch
    ):
        real_fitness = search._FitnessEngine.fitness
        calls = []

        def slow_first(self, bits):
            if not calls:
                time.sleep(0.2)
            calls.append(1)
            return real_fitness(self, bits)

        monkeypatch.setattr(search._FitnessEngine, "fitness", slow_first)
        cfg = replace(tiny_config, max_iterations=1)
        result = run_ga(single_qubit_system, lookup_target("X"), 10, cfg)
        assert result.wall_time_s >= 0.2

    def test_input_validation(self, single_qubit_system, tiny_config):
        with pytest.raises(ValueError):
            run_ga(single_qubit_system, lookup_target("X"), 0, tiny_config)
        with pytest.raises(ValueError):
            run_ga(single_qubit_system, lookup_target("CZ"), 10, tiny_config)
        bare = assemble([single_qubit_system.qubits[0]], 3, 4)
        with pytest.raises(ValueError):
            run_ga(bare, lookup_target("X"), 10, tiny_config)


class TestCheckpoint:
    def test_fingerprint_is_pinned(self):
        # A checkpoint resumes only under the fingerprint it was written
        # with.  If this digest changes, old checkpoints no longer resume:
        # bump _CHECKPOINT_VERSION along with the new digest.
        cfg = parse_config(Path(__file__).parent / "data" / "regression.ini")
        assert (cfg.target_name, cfg.num_cycles) == ("X", 100)
        digest = search._fingerprint(build_system(cfg), cfg.target(), cfg.num_cycles)
        assert digest == (
            "524fba504542ec2b791dda2266369e29b94a80322d345adcd5c83e6e0d33b712"
        )

    def test_round_trip(self, single_qubit_system, tiny_config, tmp_path):
        target = lookup_target("X")
        path = tmp_path / "ck.txt"
        cfg = replace(tiny_config, max_iterations=25)
        result = run_ga(
            single_qubit_system, target, 30, cfg, checkpoint_path=path
        )
        state = read_checkpoint(path)
        assert state["iteration"] == result.iterations_used
        assert state["config"] == cfg
        np.testing.assert_array_equal(
            state["population"][np.argmax(state["fitness"])], result.best.bits
        )
        assert state["fitness"].dtype == np.float64

    @staticmethod
    def assert_resume_is_bit_identical(system, target, num_cycles, tmp_path):
        base = dict(population_size=16, selection_size=10, mutation_probability=0.01,
                    target_fidelity=1.0, metric="f2", seed=7)
        straight = run_ga(system, target, num_cycles, GaConfig(max_iterations=40, **base))
        path = tmp_path / "ck.txt"
        run_ga(system, target, num_cycles, GaConfig(max_iterations=20, **base),
               checkpoint_path=path)
        resumed = run_ga(system, target, num_cycles, GaConfig(max_iterations=40, **base),
                         resume_from=path)
        np.testing.assert_array_equal(straight.best.bits, resumed.best.bits)
        assert straight.best.fitness == resumed.best.fitness
        np.testing.assert_array_equal(straight.history[20:], resumed.history)

    def test_resume_is_bit_identical(self, single_qubit_system, tmp_path):
        self.assert_resume_is_bit_identical(
            single_qubit_system, lookup_target("X"), 30, tmp_path
        )

    def test_resume_is_bit_identical_on_a_cut_engine(self, transmon_pair, tmp_path):
        # the search_z pair: one z channel, so the engine chains 6 of 25 states
        system = make_pair_system(
            *transmon_pair, j_ghz=0.1, channels=[ControlChannel(1, "z", 0.03)]
        )
        reach = np.intersect1d(system.learn_indices, system.reach(system.comp_sim_indices))
        assert len(reach) < system.dim_learn
        self.assert_resume_is_bit_identical(system, lookup_target("CZ"), 125, tmp_path)

    def test_resume_rejects_other_problem(self, single_qubit_system, tmp_path):
        path = tmp_path / "ck.txt"
        cfg = GaConfig(
            population_size=16,
            selection_size=10,
            max_iterations=5,
            target_fidelity=1.0,
            seed=7,
        )
        run_ga(single_qubit_system, lookup_target("X"), 30, cfg, checkpoint_path=path)
        with pytest.raises(ValueError, match="different problem"):
            run_ga(
                single_qubit_system, lookup_target("X"), 31, cfg, resume_from=path
            )
        with pytest.raises(ValueError, match="different GA settings"):
            run_ga(
                single_qubit_system,
                lookup_target("X"),
                30,
                replace(cfg, seed=8),
                resume_from=path,
            )

    def test_resumed_batch_only_pass_is_rescored(
        self, single_qubit_system, tiny_config, tmp_path
    ):
        # An older checkpoint may hold a batch score that passes the target
        # while the canonical score does not; resuming re-scores it.
        path = tmp_path / "ck.txt"
        target = lookup_target("X")
        run_ga(single_qubit_system, target, 30, replace(tiny_config, max_iterations=5),
               checkpoint_path=path)
        cp = ConfigParser()
        cp.read(path)
        cp["population"]["fitness_0"] = (1.0).hex()
        with open(path, "w") as fh:
            cp.write(fh)
        longer = replace(tiny_config, max_iterations=8)
        result = run_ga(single_qubit_system, target, 30, longer, resume_from=path)
        assert result.terminated_by == "max_iterations"
        assert result.iterations_used == 8
        assert np.all(result.history < longer.target_fidelity)

    def test_resume_may_extend_budget(self, single_qubit_system, tmp_path):
        path = tmp_path / "ck.txt"
        cfg = GaConfig(
            population_size=16,
            selection_size=10,
            max_iterations=5,
            target_fidelity=1.0,
            seed=7,
        )
        run_ga(single_qubit_system, lookup_target("X"), 30, cfg, checkpoint_path=path)
        longer = replace(cfg, max_iterations=8)
        result = run_ga(
            single_qubit_system, lookup_target("X"), 30, longer, resume_from=path
        )
        assert result.iterations_used == 8

    def test_version_1_is_refused(self, single_qubit_system, tmp_path):
        path = tmp_path / "ck.txt"
        cfg = GaConfig(population_size=4, selection_size=2, max_iterations=1, seed=7)
        run_ga(single_qubit_system, lookup_target("X"), 10, cfg, checkpoint_path=path)
        text = path.read_text()
        assert "elitism_count" not in text
        path.write_text(text.replace("version = 2", "version = 1"))
        with pytest.raises(CheckpointError, match="version 1 is not supported"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "content",
        ["", "hello\n", "[run]\nfitness = 0.5\n", "[meta]\nversion = 2\n"],
    )
    def test_foreign_file_is_refused(self, tmp_path, content):
        path = tmp_path / "ck.txt"
        path.write_text(content)
        with pytest.raises(CheckpointError) as info:
            read_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_failed_write_keeps_previous_checkpoint(
        self, single_qubit_system, tmp_path, monkeypatch
    ):
        target = lookup_target("X")
        base = dict(population_size=16, selection_size=10,
                    mutation_probability=0.01, target_fidelity=1.0, seed=7)
        path = tmp_path / "ck.txt"
        run_ga(single_qubit_system, target, 30, GaConfig(max_iterations=10, **base),
               checkpoint_path=path)
        before = path.read_bytes()

        real_write = ConfigParser.write

        def dies_partway(self, fh, *args, **kwargs):
            buf = io.StringIO()
            real_write(self, buf, *args, **kwargs)
            fh.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise OSError("disk full")

        longer = GaConfig(max_iterations=20, **base)
        monkeypatch.setattr(ConfigParser, "write", dies_partway)
        with pytest.raises(OSError, match="disk full"):
            run_ga(single_qubit_system, target, 30, longer, checkpoint_path=path,
                   checkpoint_every=1, resume_from=path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["ck.txt"]

        resumed = run_ga(single_qubit_system, target, 30, longer, resume_from=path)
        straight = run_ga(single_qubit_system, target, 30, longer)
        np.testing.assert_array_equal(straight.best.bits, resumed.best.bits)
        np.testing.assert_array_equal(straight.history[10:], resumed.history)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(0, 40)),
    seed=st.integers(0, 2**64 - 1),
    draws=st.integers(0, 5),
    iteration=st.integers(0, 10**6),
    data=st.data(),
)
def test_checkpoint_round_trip_property(
    tmp_path_factory, shape, seed, draws, iteration, data
):
    # any population shape (empty ones included), any finite fitness and any
    # generator state read back equal
    fitness = np.array(
        data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=shape[0], max_size=shape[0])),
        dtype=float,
    )
    population = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    rng.random(draws)
    config = GaConfig(seed=seed % 1000)
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    write_checkpoint(path, fingerprint="f" * 64, iteration=iteration, rng=rng,
                     population=population, fitness=fitness, config=config)
    state = read_checkpoint(path)
    assert state["fingerprint"] == "f" * 64
    assert state["iteration"] == iteration
    assert state["config"] == config
    assert state["rng_state"] == rng.bit_generator.state
    assert state["population"].dtype == np.uint8
    np.testing.assert_array_equal(state["population"], population)
    assert state["fitness"].tobytes() == fitness.tobytes()


@settings(max_examples=60, deadline=None)
@given(random_problems())
def test_engine_chains_only_the_reachable_states(problem):
    system, bits = problem
    cycles = precompute(system)
    learn = system.learn_indices
    reach = np.intersect1d(learn, system.reach(system.comp_sim_indices))
    dropped = np.setdiff1d(learn, reach)
    # the closure the level-table rule assumes: no cycle matrix carries a
    # kept state into a dropped one
    leak = cycles.combos[:, dropped][:, :, reach]
    assert np.max(np.abs(leak), initial=0.0) <= 1e-13
    if any(c.axis == "x" for c in system.channels):
        assert reach.tolist() == learn.tolist()
    target = lookup_target("CZ" if system.num_qubits == 2 else "X")
    for metric in ("f1", "f2"):
        engine = _FitnessEngine(system, target, bits.shape[-1], GaConfig(metric=metric))
        batch = engine._fitness_batch(bits)
        for row, score in zip(bits, batch):
            ref = evaluate_fitness(cycles, PulseSchedule(row), target, metric)
            assert abs(score - ref.value(metric)) <= 1e-12
