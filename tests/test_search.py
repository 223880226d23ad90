"""Genetic search: determinism, convergence, checkpointing, batch scoring."""

import contextlib
import io
import json
import multiprocessing
import os
import time
from configparser import ConfigParser
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfq_control as sc
from scipy.stats import chi2

from conftest import (
    GHZ, children_each_generation, deadline, kill_workers_at, make_pair_system,
    random_problems, stepwise_scores,
)
from sfq_control import metrics, propagate, search
from sfq_control.config import build_system, parse_config
from sfq_control.propagate import PulseSchedule, precompute
from sfq_control.search import (
    CheckpointError,
    GaConfig,
    WorkerError,
    _FitnessEngine,
    crossover,
    evaluate_fitness,
    read_checkpoint,
    run_ga,
    write_checkpoint,
)
from sfq_control.system import ControlChannel, assemble, lookup_target


def named_problem(transmon_pair, problem):
    """(system, target, num_cycles) of a named search problem."""
    if problem == "regression":
        cfg = parse_config(Path(__file__).parent / "data" / "regression.ini")
        return build_system(cfg), cfg.target(), cfg.num_cycles
    x = [ControlChannel(0, "x", 0.003), ControlChannel(1, "x", 0.003)]
    if problem == "criterion5":
        x = [ControlChannel(0, "x", 0.03), ControlChannel(1, "x", 0.03)]
        system = make_pair_system(*transmon_pair, n_levels=2, n_sim=2, channels=x)
        return system, lookup_target("CZ"), 2500
    j_ghz, channels, n = {
        "search_z": (0.1, [ControlChannel(1, "z", 0.03)], 625),
        "cli": (0.05, x, 5000),
    }[problem]
    system = make_pair_system(*transmon_pair, j_ghz=j_ghz, channels=channels)
    return system, lookup_target("CZ"), n


@pytest.fixture(scope="module")
def single_qubit_system():
    q = sc.transmon_levels(3.9 * GHZ, -0.225 * GHZ, 6)
    channels = [ControlChannel(0, "x", 0.03), ControlChannel(0, "z", 0.03)]
    return assemble([q], n_levels=3, n_sim_levels=4, channels=channels)


@pytest.fixture(scope="module")
def single_qubit_cycles(single_qubit_system):
    return precompute(single_qubit_system)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(1, 3), st.integers(0, 40), st.data())
def test_crossover_swaps_the_tails(pairs, nch, n, data):
    # the where-definition of single-point crossover, for one pair
    # (pairs == 0) or stacked pairs, with cuts at either end or anywhere
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (nch, n) if pairs == 0 else (pairs, nch, n)
    a, b = rng.integers(0, 2, size=(2, *shape), dtype=np.uint8)
    cut = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    cuts = data.draw(cut if pairs == 0 else st.lists(cut, min_size=pairs, max_size=pairs))
    head = np.arange(n) < np.asarray(cuts)[..., None, None]
    ca, cb = crossover(a, b, cuts if pairs == 0 else np.array(cuts))
    assert ca.dtype == cb.dtype == np.uint8
    np.testing.assert_array_equal(ca, np.where(head, a, b))
    np.testing.assert_array_equal(cb, np.where(head, b, a))


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
                engine = _FitnessEngine(cycles, target, 40, GaConfig(metric=metric))
                batch = engine.fitness(bits)
                for i in range(8):
                    ref = stepwise_scores(cycles, bits[i], target)[metric]
                    assert batch[i] == pytest.approx(ref, abs=1e-12), label

    @pytest.mark.parametrize("problem", ["search_z", "cli", "regression"])
    def test_score_does_not_depend_on_the_batch(self, transmon_pair, problem):
        # block reuse and bit-for-bit resume need a row's score to be a pure
        # function of its bits: alone, among any companions, at any position
        system, target, n = named_problem(transmon_pair, problem)
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=(64, len(system.channels), n), dtype=np.uint8)
        for metric in ("f1", "f2"):
            engine = _FitnessEngine(precompute(system), target, n, GaConfig(metric=metric))
            # alone first: a complex engine forms products per use until a
            # batch as large as its top table forms the table
            alone = [engine._fitness_batch(bits[i : i + 1])[0] for i in range(64)]
            whole = engine._fitness_batch(bits)
            np.testing.assert_array_equal(alone, whole)
            for size in rng.integers(2, 65, size=6):
                pick = rng.permutation(64)[:size]
                again = engine._fitness_batch(bits[pick])
                np.testing.assert_array_equal(again, whole[pick])

    @pytest.mark.parametrize("problem, states, kind", [
        ("search_z", 6, "f"), ("cli", 25, "c"), ("regression", 3, "f"),
        ("criterion5", 4, "f")])
    def test_small_learning_spaces_chain_in_real_arithmetic(
        self, transmon_pair, problem, states, kind
    ):
        # and only they reuse block products (b > 1); the 25-state search
        # keeps the plain chain, whose pool would cost more than its searches
        system, target, n = named_problem(transmon_pair, problem)
        engine = _FitnessEngine(precompute(system), target, n, GaConfig())
        assert len(engine.rows) == states
        engine.form()
        assert {t.dtype.kind for t in engine.tables.values()} == {kind}
        assert (engine.b > 1) == (kind == "f")

    def test_a_generation_chains_blocks_not_words(self, transmon_pair, monkeypatch):
        # per child, one search_z generation sweeps ceil(78 / b) blocks and a
        # one-cycle tail, and rebuilds about 1.6 blocks of b words (its cut's
        # and its flips'): a fall back to the 79-step chain, or to building
        # every block afresh (82 products per child), fails here
        system, target, n = named_problem(transmon_pair, "search_z")
        products = []
        real_chain = propagate.chain

        def counting(mats, words, m):
            products.append(words.size)  # steps times rows
            return real_chain(mats, words, m)

        monkeypatch.setattr(propagate, "chain", counting)
        monkeypatch.setattr(search, "chain", counting)

        def products_of(iterations):
            products.clear()
            run_ga(system, target, n, GaConfig(max_iterations=iterations,
                                               target_fidelity=1.0, seed=7))
            return sum(products)

        engine = _FitnessEngine(precompute(system), target, n, GaConfig())
        assert engine.whole == 78 and engine.b > 1
        per_child = (products_of(2) - products_of(1)) / 60
        assert per_child <= -(-78 // engine.b) + 2 * engine.b

    def test_f2_stops_once_converged(self, transmon_pair, monkeypatch):
        # one exp per Newton step and one after the last: a converged
        # search_z batch stops after at most 4 steps, not 8, while a block
        # whose g has a flat top (g'' = 0 at its maximum, so Newton only
        # creeps toward it) still takes all 8
        system, target, n = named_problem(transmon_pair, "search_z")
        exps, steps = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x):
                exps.append(1)
                return np.exp(x)

        def counted(a, t):
            exps.clear()
            out = metrics._f2_batch(a, t)
            steps.append(len(exps) - 1)
            return out

        monkeypatch.setattr(metrics, "np", CountingNumpy())
        monkeypatch.setattr(search, "_f2_batch", counted)
        run_ga(system, target, n, GaConfig(max_iterations=10, target_fidelity=1.0, seed=7))
        assert len(steps) == 11 and max(steps) <= 4
        # |1 + y| + b |1 - r y| has g'' = 0 at theta = 0 for b = (1 - r) / 2r;
        # the phase moves its top a third of a grid spacing off the grid
        r, phase = 0.5, np.exp(-1j * np.pi / 96)
        flat = np.diag([1.0, phase, (1 - r) / (2 * r), -(1 - r) / 2 * phase])
        steps.clear()
        counted(flat[None], np.eye(4))
        assert steps == [8]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_batch_score_raises(self, single_qubit_cycles, monkeypatch, bad):
        engine = _FitnessEngine(single_qubit_cycles, lookup_target("X"), 30, GaConfig())
        monkeypatch.setattr(
            engine, "_fitness_batch", lambda bits: np.full(len(bits), bad)
        )
        bits = np.zeros((2, 2, 30), dtype=np.uint8)
        with pytest.raises(ValueError, match="not finite"):
            engine.fitness(bits)
        assert engine.n_evaluations == 0


class TestDraws:
    def test_selection_is_successive_sampling(self):
        # the law and order of rng.choice(replace=False, p=w), 60 of 70 rank
        # weights: per-position frequencies agree by a two-sample chi-square
        w = np.arange(70, 0, -1, dtype=float)
        rng, ref = np.random.default_rng(31), np.random.default_rng(32)
        draws = 20_000
        got = np.array([search._select(rng, w, 60) for _ in range(draws)])
        want = np.array([ref.choice(70, 60, replace=False, p=w / w.sum())
                         for _ in range(draws)])
        assert all(len(set(row)) == 60 for row in got.tolist())
        for j in range(60):
            a = np.bincount(got[:, j], minlength=70)
            b = np.bincount(want[:, j], minlength=70)
            seen = a + b > 0
            stat = np.sum((a - b)[seen] ** 2 / (a + b)[seen])
            assert chi2.sf(stat, seen.sum() - 1) > 1e-4, j

    def test_mutation_flips_each_bit_independently(self):
        p, shape, gens = 0.001, (60, 2, 625), 2000
        n = np.prod(shape)
        rng = np.random.default_rng(33)
        counts, channels, cycles = [], np.zeros(2), np.zeros(625)
        for _ in range(gens):
            bits = np.zeros(shape, dtype=np.uint8)
            search._mutate(rng, bits, p)
            counts.append(int(bits.sum()))
            channels += bits.sum(axis=(0, 2))
            cycles += bits.sum(axis=(0, 1))
        mean, var = p * n, p * (1 - p) * n
        assert abs(np.mean(counts) - mean) < 5 * np.sqrt(var / gens)
        assert abs(np.var(counts, ddof=1) - var) < 5 * var * np.sqrt(2 / (gens - 1))
        for hits in (channels, cycles):
            stat = np.sum((hits - hits.mean()) ** 2 / hits.mean())
            assert chi2.sf(stat, len(hits) - 1) > 1e-4
        bits = rng.integers(0, 2, size=shape, dtype=np.uint8)
        before = bits.copy()
        search._mutate(rng, bits, 0.0)
        np.testing.assert_array_equal(bits, before)
        search._mutate(rng, bits, 1.0)
        np.testing.assert_array_equal(bits, 1 - before)


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
        assert len(result.history) == result.iterations_used

    @pytest.mark.parametrize("seed", range(6))
    def test_search_stops_on_the_number_it_reports(self, single_qubit_system, seed):
        # history holds the kept scores and best.fitness the reported one:
        # they are one number, so a reached target is a reported one.  X is
        # out of reach in 40 cycles here, I is reached in under 50 iterations
        for name, metric, reached in (("X", "f2", False), ("I", "f1", True)):
            cfg = GaConfig(population_size=20, selection_size=12,
                           mutation_probability=0.01, max_iterations=100,
                           target_fidelity=0.999, metric=metric, seed=seed)
            result = run_ga(single_qubit_system, lookup_target(name), 40, cfg)
            assert result.history[-1] == result.best.fitness
            assert (result.terminated_by == "target_reached") == reached
            assert (result.best.fitness >= cfg.target_fidelity) == reached

    def test_every_candidate_is_scored_once(self, transmon_pair):
        # no score is looked up: on the regression problem, where children
        # often repeat a scored candidate (3 in 4 over 400 generations),
        # every one counts
        system, target, n = named_problem(transmon_pair, "regression")
        result = run_ga(system, target, n, GaConfig(max_iterations=30, seed=7))
        assert result.n_evaluations == 70 + 60 * result.iterations_used

    def test_any_number_of_processes_gives_the_same_run(
        self, transmon_pair, monkeypatch, tmp_path
    ):
        # a score is a function of its row's bits alone, so a batch split
        # across J processes scores as in one, and a checkpoint written at
        # J = 1 resumes at J = 2 to the uninterrupted run
        system, target, n = named_problem(transmon_pair, "cli")
        cfg = GaConfig(max_iterations=3, target_fidelity=1.0, seed=21)
        alive = children_each_generation(monkeypatch)
        runs = {}
        for j in (1, 2, 3):
            monkeypatch.setattr(search, "_cpus", lambda j=j: j)
            with deadline(60.0):
                runs[j] = run_ga(system, target, n, cfg)
        assert alive == [0] * 3 + [1] * 3 + [2] * 3
        serial = runs[1]
        for result in runs.values():
            np.testing.assert_array_equal(result.history, serial.history)
            np.testing.assert_array_equal(result.best.bits, serial.best.bits)
            assert result.best.fitness == serial.best.fitness
            assert result.n_evaluations == serial.n_evaluations == 70 + 3 * 60

        path = tmp_path / "checkpoint.txt"
        monkeypatch.setattr(search, "_cpus", lambda: 1)
        run_ga(system, target, n, replace(cfg, max_iterations=1), checkpoint_path=path)
        monkeypatch.setattr(search, "_cpus", lambda: 2)
        with deadline(60.0):
            resumed = run_ga(system, target, n, cfg, resume_from=path)
        np.testing.assert_array_equal(resumed.history, serial.history[1:])
        np.testing.assert_array_equal(resumed.best.bits, serial.best.bits)
        assert resumed.best.fitness == serial.best.fitness

    def test_packed_slices_keep_a_ragged_last_byte(self, transmon_pair, monkeypatch):
        # a worker's slice travels eight cycles to a byte: on a cycle count
        # that is not a multiple of 8 it unpacks to the bits it was sent
        system, target, _ = named_problem(transmon_pair, "cli")
        n = 1003
        cfg = GaConfig(max_iterations=3, target_fidelity=1.0, seed=5)
        alive = children_each_generation(monkeypatch)
        runs = {}
        for j in (1, 2):
            monkeypatch.setattr(search, "_cpus", lambda j=j: j)
            with deadline(60.0):
                runs[j] = run_ga(system, target, n, cfg)
        assert alive == [0] * 3 + [1] * 3
        np.testing.assert_array_equal(runs[2].history, runs[1].history)
        np.testing.assert_array_equal(runs[2].best.bits, runs[1].best.bits)
        assert runs[2].n_evaluations == runs[1].n_evaluations == 70 + 3 * 60

    def test_the_top_table_is_formed_once_before_the_fork(
        self, transmon_pair, monkeypatch, tmp_path
    ):
        # evaluate_fitness on the 40 ns CZ forms only its distinct words'
        # products, never the 4,096-entry T_6; a search at J = 2 forms T_6
        # once, in this process, before it forks its worker
        system, target, n = named_problem(transmon_pair, "cli")
        log = tmp_path / "formed.txt"
        real = propagate.word_products

        def recording(tables, k, words=None):
            out = real(tables, k, words)
            with open(log, "a") as fh:  # workers write here too
                fh.write(f"{os.getpid()} {len(out)} {len(multiprocessing.active_children())}\n")
            return out

        def formed():
            rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            log.unlink()
            return rows

        monkeypatch.setattr(propagate, "word_products", recording)
        monkeypatch.setattr(search, "word_products", recording)
        cycles = precompute(system)
        bits = np.random.default_rng(3).integers(0, 2, size=(2, n), dtype=np.uint8)
        score = evaluate_fitness(cycles, PulseSchedule(bits), target).f2
        distinct = len(np.unique(propagate.pack_words(bits[:, : n - n % 6], 6)))
        assert [size for _, size, _ in formed()] == [16, 256, distinct]
        assert distinct < 4096

        engine = _FitnessEngine(cycles, target, n, GaConfig())
        engine.form()
        assert engine._fitness_batch(bits[None])[0] == score
        formed()

        monkeypatch.setattr(search, "_cpus", lambda: 2)
        with deadline(60.0):
            run_ga(system, target, n, GaConfig(max_iterations=1, target_fidelity=1.0))
        rows = formed()
        assert {pid for pid, _, _ in rows} == {os.getpid()}
        assert [children for _, size, children in rows if size == 4096] == [0]

    def test_j_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        assert search._cpus() == len(os.sched_getaffinity(0))
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert search._cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert search._cpus() == 1

    @pytest.mark.parametrize("problem, sizes, workers", [
        ("search_z", {}, 0), ("regression", {}, 0), ("criterion5", {}, 0),
        ("cli", {}, 3),
        # the bench's set-up probe and gate: too few rows to share
        ("cli", {"population_size": 2, "selection_size": 2}, 0),
        ("cli", {"population_size": 4, "selection_size": 2}, 0)])
    def test_only_complex_engines_start_workers(
        self, transmon_pair, monkeypatch, problem, sizes, workers
    ):
        # real-arithmetic engines score children from their block pool,
        # kept in the main process; the 25-state engine forks J - 1 workers
        system, target, n = named_problem(transmon_pair, problem)
        monkeypatch.setattr(search, "_cpus", lambda: 4)
        alive = children_each_generation(monkeypatch)
        cfg = GaConfig(max_iterations=1, target_fidelity=1.0, seed=7, **sizes)
        with deadline(60.0):
            run_ga(system, target, n, cfg)
        assert alive == [workers]

    def test_a_dead_worker_is_an_error_not_a_hang(self, transmon_pair, monkeypatch):
        system, target, n = named_problem(transmon_pair, "cli")
        monkeypatch.setattr(search, "_cpus", lambda: 2)
        kill_workers_at(monkeypatch, 2)
        with deadline(60.0), pytest.raises(WorkerError, match=r"died \(exit code -9\)"):
            run_ga(system, target, n, GaConfig(max_iterations=3, target_fidelity=1.0))

    def test_interrupt_stops_a_busy_worker_at_once(self, transmon_pair, monkeypatch):
        # Ctrl-C while the worker is still on its slice: run_ga terminates
        # it rather than wait for a score no one will read
        system, target, n = named_problem(transmon_pair, "cli")
        monkeypatch.setattr(search, "_cpus", lambda: 2)
        main = os.getpid()

        def interrupted_or_slow(self, bits):
            if os.getpid() == main:
                raise KeyboardInterrupt
            time.sleep(600.0)

        monkeypatch.setattr(_FitnessEngine, "_fitness_batch", interrupted_or_slow)
        with deadline(30.0), pytest.raises(KeyboardInterrupt):
            run_ga(system, target, n, GaConfig(max_iterations=1))

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

    def test_best_fitness_matches_canonical(self, single_qubit_cycles, tiny_config):
        # the reported breakdown is evaluate_fitness under the search's
        # config, bit for bit, and the plain per-cycle product within 1e-12
        target = lookup_target("X")
        result = run_ga(single_qubit_cycles.system, target, 50, tiny_config)
        bd = evaluate_fitness(single_qubit_cycles, result.best.schedule(), target,
                              tiny_config.metric, tiny_config)
        assert result.breakdown == bd
        assert result.best.fitness == bd.value(tiny_config.metric)
        ref = stepwise_scores(single_qubit_cycles, result.best.bits, target)
        for name in ("f1", "f2", "norm_loss"):
            assert getattr(bd, name) == pytest.approx(ref[name], abs=1e-12), name
        assert result.error == pytest.approx(1.0 - result.best.fitness)

    def test_wall_time_counts_setup_and_first_scores(
        self, single_qubit_system, tiny_config, monkeypatch
    ):
        real_fitness = search._FitnessEngine.kept_fitness
        calls = []

        def slow_first(self, bits):
            if not calls:
                time.sleep(0.2)
            calls.append(1)
            return real_fitness(self, bits)

        # the call that scores the first population
        monkeypatch.setattr(search._FitnessEngine, "kept_fitness", slow_first)
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
        # version 2 held the same fields, but its runs drew parents and
        # mutations from another random stream
        for version in (1, 2):
            path.write_text(text.replace("version = 3", f"version = {version}"))
            with pytest.raises(CheckpointError,
                               match=f"version {version} is not supported"):
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

    @staticmethod
    def assert_write_refused(tmp_path, match, population, fitness):
        with pytest.raises(ValueError, match=match):
            write_checkpoint(tmp_path / "ck.txt", fingerprint="f" * 64, iteration=3,
                             rng=np.random.default_rng(0), population=population,
                             fitness=fitness, config=GaConfig())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite_fitness(self, tmp_path, bad):
        # read_checkpoint refuses such a file, so it could never be resumed
        fitness = np.array([0.5, bad, 0.25])
        self.assert_write_refused(tmp_path, "finite", np.zeros((3, 1, 4), np.uint8), fitness)

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_write_refuses_a_fitness_count_other_than_the_population(self, tmp_path, count):
        self.assert_write_refused(tmp_path, "one value per individual",
                                  np.zeros((3, 1, 4), np.uint8), np.full(count, 0.5))

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (3, 1, 4, 1)])
    def test_write_refuses_a_population_that_is_not_3d(self, tmp_path, shape):
        self.assert_write_refused(tmp_path, "individuals, channels, cycles",
                                  np.zeros(shape, np.uint8), np.full(3, 0.5))

    @pytest.mark.parametrize("bit, dtype", [
        (2, np.uint8), (255, np.uint8), (2, np.int64), (256, np.int64), (-1, np.int64),
        (0.5, np.float64),
    ])
    def test_write_refuses_bits_other_than_0_or_1(self, tmp_path, bit, dtype):
        population = np.zeros((3, 1, 4), dtype=dtype)
        population[1, 0, 2] = bit
        self.assert_write_refused(tmp_path, "0 or 1", population, np.full(3, 0.5))

    def test_a_value_of_several_lines_is_continued_as_configparser_does(self, tmp_path):
        path, rng = tmp_path / "ck.txt", np.random.default_rng(0)
        population, fitness = np.zeros((2, 1, 3), np.uint8), np.zeros(2)
        write_checkpoint(path, fingerprint="ab\ncd", iteration=0, rng=rng,
                         population=population, fitness=fitness, config=GaConfig())
        assert path.read_bytes() == configparser_text(
            "ab\ncd", 0, rng, population, fitness, GaConfig()).encode("ascii")
        assert read_checkpoint(path)["fingerprint"] == "ab\ncd"

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

        real_open = search.atomic_open

        @contextlib.contextmanager
        def dies_partway(path):
            # the fault is in the handle, so it hits whatever the writer writes
            with real_open(path) as fh:
                real_write = fh.write

                def write(text):
                    real_write(text[: len(text) // 2])
                    raise OSError("disk full")

                fh.write = write
                yield fh

        longer = GaConfig(max_iterations=20, **base)
        monkeypatch.setattr(search, "atomic_open", dies_partway)
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


def configparser_text(fingerprint, iteration, rng, population, fitness, config):
    """The four sections of a version-3 checkpoint as ``ConfigParser.write``
    writes them."""
    p, nch, n = population.shape
    cp = ConfigParser(interpolation=None)
    cp["meta"] = {"version": "3", "fingerprint": fingerprint, "iteration": str(iteration),
                  "population_size": str(p), "num_channels": str(nch),
                  "num_cycles": str(n)}
    cp["ga"] = {f.name: str(getattr(config, f.name)) for f in fields(GaConfig)}
    cp["rng"] = {"state": json.dumps(rng.bit_generator.state)}
    cp["population"] = {}
    for i in range(p):
        cp["population"][f"fitness_{i}"] = float(fitness[i]).hex()
        for c in range(nch):
            cp["population"][f"bits_{i}_{c}"] = "".join(map(str, population[i, c]))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


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
    # byte for byte what ConfigParser writes, which read_checkpoint reads
    assert path.read_bytes() == configparser_text(
        "f" * 64, iteration, rng, population, fitness, config).encode("ascii")
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
    refs = [stepwise_scores(cycles, row, target) for row in bits]
    for metric in ("f1", "f2"):
        engine = _FitnessEngine(cycles, target, bits.shape[-1], GaConfig(metric=metric))
        batch = engine._fitness_batch(bits)
        for score, ref in zip(batch, refs):
            assert abs(score - ref[metric]) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(random_problems(), st.integers(8, 160), st.sampled_from(["f1", "f2"]), st.data())
def test_block_reuse_scores_are_the_fresh_scores(problem, n, metric, data):
    # children scored from their parents' block ops, over two generations
    # with winners adopted between them, score == the lineage-free batch and
    # within 1e-12 of the stepwise product
    system, _ = problem
    nch, p, s = len(system.channels), 6, 4
    target = lookup_target("CZ" if system.num_qubits == 2 else "X")
    config = GaConfig(population_size=p, selection_size=s, target_fidelity=1.0,
                      metric=metric)
    cycles = precompute(system)
    engine = _FitnessEngine(cycles, target, n, config)
    assert len(engine.rows) <= search._REAL_STATES
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    population = rng.integers(0, 2, size=(p, nch, n), dtype=np.uint8)
    engine.keep(population)
    slots = np.array([], dtype=int)
    for _ in range(2):
        heads = rng.integers(0, p, size=s)
        tails = rng.integers(0, p, size=s)
        heads[:len(slots)] = slots  # reuse the ops winners brought along
        cuts = np.array(data.draw(st.lists(
            st.one_of(st.just(0), st.just(n), st.integers(0, n)), min_size=s, max_size=s)))
        children = np.where(np.arange(n) < cuts[:, None, None],
                            population[heads], population[tails])
        for c, ch, t in data.draw(st.lists(st.tuples(
                st.integers(1, s - 1), st.integers(0, nch - 1), st.integers(0, n - 1)),
                max_size=6)):
            children[c, ch, t] ^= 1
        children[0] = population[heads[0]]  # a child equal to its parent
        scores = engine.offspring(children, heads, tails)
        fresh = engine._fitness_batch(children)
        assert scores.tolist() == fresh.tolist()
        assert engine.breakdown(children[1]).value(metric) == scores[1]
        for row, score in zip(children, scores):
            assert abs(score - stepwise_scores(cycles, row, target)[metric]) <= 1e-12
        w = data.draw(st.integers(1, s))
        kids, slots = rng.permutation(s)[:w], rng.permutation(p)[:w]
        engine.adopt(kids, slots)
        population[slots] = children[kids]
