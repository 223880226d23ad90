"""Gate problems and the per-workload plans built on them.

A problem is one experiment: qubits, coupling, control channels, target gate
and duration.  It is built twice from the same numbers, through the public
library API (for `run_ga`) and as INI text (for the `sfq-control` CLI), so
the two paths score the same physics.

A workload runs rounds of four kinds of operation on its problems.  A round
is one search followed by mini-rounds of the three CLI operations:

* ``search``: `sfq_control.search.run_ga`, to the target or to a fixed
  iteration budget;
* ``learn``: `sfq-control learn` with checkpoints on;
* ``evaluate``: `sfq-control evaluate` on a freshly generated bitstream;
* ``oracle``: `sfq-control oracle` (the CF4 finite-pulse reference).

The bitstreams and oracle seeds are derived from the run's ``--seed``, the
kind of operation and its count, so one seed gives one set of inputs.  GA
seeds come from a fixed panel per workload (see `search_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLOCK_PS = 8.0


@dataclass(frozen=True)
class Problem:
    name: str
    qubits: tuple[tuple[float, float], ...]  # (omega01_ghz, alpha_ghz) transmons
    j_ghz: float
    channels: tuple[tuple[int, str, float], ...]  # (qubit, axis, tip angle)
    target: str
    time_ns: float
    n_levels: int
    n_sim_levels: int
    target_fidelity: float

    @property
    def num_cycles(self) -> int:
        return int(round(self.time_ns * 1e3 / CLOCK_PS))

    @property
    def channel_keys(self) -> list[str]:
        return [f"{q}:{axis}" for q, axis, _ in self.channels]

    def ini_text(self) -> str:
        lines = []
        for i, (omega, alpha) in enumerate(self.qubits):
            lines += [f"[qubit{i}]", "type = transmon",
                      f"omega01_ghz = {omega!r}", f"alpha_ghz = {alpha!r}", ""]
        if len(self.qubits) == 2:
            lines += ["[coupling]", f"j_ghz = {self.j_ghz!r}", ""]
        lines.append("[channels]")
        lines += [f"{axis}{q} = {tip!r}" for q, axis, tip in self.channels]
        lines += ["", "[gate]", f"target = {self.target}",
                  f"time_ns = {self.time_ns!r}", f"clock_ps = {CLOCK_PS!r}", "",
                  "[learning]", f"n_levels = {self.n_levels}",
                  f"n_sim_levels = {self.n_sim_levels}", "",
                  "[ga]", f"target_fidelity = {self.target_fidelity!r}",
                  "metric = f2", ""]
        return "\n".join(lines)


# Criterion-6 CZ surrogate: one z channel, J = 0.1 GHz, 5 ns (625 cycles).
CZ_Z = Problem(
    name="cz_z", qubits=((3.9, -0.225), (3.5, -0.225)), j_ghz=0.1,
    channels=((1, "z", 0.03),), target="CZ", time_ns=5.0,
    n_levels=5, n_sim_levels=7, target_fidelity=0.99,
)

# 40 ns x-channel CZ recipe: tip 0.003 on both qubits, 5000 cycles.
CZ_X = Problem(
    name="cz_x", qubits=((3.9, -0.225), (3.5, -0.225)), j_ghz=0.05,
    channels=((0, "x", 0.003), (1, "x", 0.003)), target="CZ", time_ns=40.0,
    n_levels=5, n_sim_levels=7, target_fidelity=0.999,
)

# The regression problem of tests/data/regression.ini: one transmon, x and z
# channels, X gate in 0.8 ns (100 cycles), dL = 3.  Its target is out of
# reach in 0.8 ns, so every search on it runs to its budget.
REGRESSION = Problem(
    name="regression", qubits=((3.9, -0.225),), j_ghz=0.0,
    channels=((0, "x", 0.03), (0, "z", 0.03)), target="X", time_ns=0.8,
    n_levels=3, n_sim_levels=4, target_fidelity=0.999,
)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    search: Problem
    search_iters: int  # iteration budget of the API search
    reach_target: bool  # the search must stop at its target, not its budget
    learn: Problem
    learn_iters: int
    checkpoint_every: int
    evaluate: Problem
    oracle: Problem
    oracle_cycles: int
    per_mini: dict[str, int]  # CLI operations of each kind in one mini-round
    minis_per_round: int  # mini-rounds of a round in a traced run
    round_s: float  # nominal seconds of one round on a 2-vCPU machine

    def rounds(self, seconds: float) -> int:
        """Rounds, so searches, that fit in ``seconds``.  The count depends
        on the budget only, so every run of a budget searches the same panel."""
        return max(1, int(seconds // self.round_s))

    @property
    def problems(self) -> list[Problem]:
        seen: dict[str, Problem] = {}
        for p in (self.search, self.learn, self.evaluate, self.oracle):
            seen.setdefault(p.name, p)
        return list(seen.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search_z", default_seed=7,
            search=CZ_Z, search_iters=20_000, reach_target=True,
            learn=CZ_Z, learn_iters=5, checkpoint_every=1,
            evaluate=CZ_Z, oracle=CZ_Z, oracle_cycles=20,
            per_mini={"learn": 1, "evaluate": 2, "oracle": 1}, minis_per_round=6,
            round_s=15.0,
        ),
        Workload(
            name="cli", default_seed=21,
            search=CZ_X, search_iters=8, reach_target=False,
            learn=REGRESSION, learn_iters=400, checkpoint_every=100,
            evaluate=CZ_X, oracle=CZ_X, oracle_cycles=40,
            per_mini={"learn": 1, "evaluate": 1, "oracle": 1}, minis_per_round=3,
            round_s=15.0,
        ),
    )
}


KINDS = ("search", "learn", "evaluate", "oracle")


def _rng(seed: int, kind: str, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, KINDS.index(kind), k]))


def search_seed(workload: Workload, k: int) -> int:
    """GA seed of the k-th search: a fixed panel that starts at the
    workload's acceptance seed.  Every run searches the same panel, so the
    search work does not change with ``--seed`` and a GA path change shows
    in the exact iteration counts."""
    return workload.default_seed + k


def learn_seed(workload: Workload, k: int) -> int:
    """GA seed of the k-th `learn`, a second fixed panel."""
    return workload.default_seed + 1000 + k


def evaluate_bits(workload: Workload, seed: int, k: int) -> np.ndarray:
    p = workload.evaluate
    return _rng(seed, "evaluate", k).integers(
        0, 2, size=(len(p.channels), p.num_cycles), dtype=np.uint8
    )


def oracle_seed(workload: Workload, seed: int, k: int) -> int:
    """An `oracle --seed` whose random schedule fires in the modal number of
    cycles.  The reference integrator's work grows with the cycles that
    fire, so every oracle call does the same amount of work.

    The schedule is drawn as `PulseSchedule.random(default_rng(seed), ...)`
    draws it.  Should the CLI draw differently, the calls still run, only
    with unequal work.
    """
    nch, n = len(workload.oracle.channels), workload.oracle_cycles
    modal = int((n + 1) * (1.0 - 0.5**nch))
    rng = _rng(seed, "oracle", k)
    while True:
        candidate = int(rng.integers(1 << 31))
        bits = np.random.default_rng(candidate).integers(
            0, 2, size=(nch, n), dtype=np.uint8
        )
        if int(np.any(bits, axis=0).sum()) == modal:
            return candidate


def gate_bits(problem: Problem, seed: int) -> np.ndarray:
    """The random schedule the correctness gate checks the kernels on."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(KINDS)]))
    return rng.integers(
        0, 2, size=(len(problem.channels), problem.num_cycles), dtype=np.uint8
    )
