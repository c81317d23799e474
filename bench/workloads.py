"""The benchmark workloads: inputs drawn from a seed, one closed-loop
repetition, and the correctness check of its outputs.

A workload is prepared once per process (``prepare``), then executed
repeatedly on the same inputs (``execute``), and every repetition's raw
result is checked (``check``) outside the timed region.  The program
only ever receives the generated ``EngineConfig``/``Topology`` or
``ExploreConfig``.

``ospfsim`` must be importable before this module is imported; the
entry points put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from ospfsim import engine as engine_mod
from ospfsim import explorer as explorer_mod
from ospfsim.core import ProtocolConfig
from ospfsim.engine import EngineConfig
from ospfsim.explorer import ExploreConfig
from ospfsim.topology import Topology, line, ring, star

HELLOINTVL = ProtocolConfig().hellointvl


@dataclass(frozen=True)
class Outcome:
    """Simulated, host-independent result of one repetition.

    ``sim_ticks`` and ``sim_msgs`` are summed over the repetition's
    engine runs; ``explore_states`` is the explorer's state count.  A
    field that does not apply to the workload is None.
    """

    runs: int
    failures: tuple[str, ...]
    sim_ticks: Optional[int] = None
    sim_msgs: Optional[int] = None
    explore_states: Optional[int] = None
    detail: tuple = ()

    def signature(self) -> tuple:
        """What a repeated or traced run must reproduce exactly."""
        return (self.sim_ticks, self.sim_msgs, self.explore_states, self.detail)


def boot_offsets(seed: int, n: int, boot_range: int) -> dict[int, int]:
    """One boot offset per node, drawn uniformly from [0, boot_range)."""
    rng = random.Random(seed)
    return {ip: rng.randrange(boot_range) for ip in range(1, n + 1)}


def oracle_failures(sim, topology: Topology) -> list[str]:
    """Criterion-2 oracle: every node's entry for every node j lists
    exactly ``topology.neighbors(j)``."""
    bad = []
    for ip in topology.nodes():
        lsdb = sim.nodes[ip].state.lsdb
        for j in topology.nodes():
            entry = lsdb.get(j)
            if entry is None or entry.links != topology.neighbors(j):
                bad.append(f"node {ip} holds a wrong entry for node {j}")
    return bad


@dataclass(frozen=True)
class EngineWorkload:
    """Engine runs of each model in ``models`` over one topology, all
    with the same seeded boot offsets, ending in ``expect``."""

    name: str
    why: str
    topology: Callable[[], Topology]
    models: tuple[str, ...]
    expect: str  # converged | timed_out
    max_ticks: int = 10_000
    boot_range: int = HELLOINTVL
    uses_seed: ClassVar[bool] = True

    def describe(self, inputs) -> str:
        config, topology = inputs[0]
        boots = " ".join(f"{ip}:{t}" for ip, t in sorted(config.boot_offsets.items()))
        return (f"{topology.n}-node topology, models {'+'.join(self.models)}, "
                f"max_ticks {self.max_ticks}, boot offsets {boots}")

    def prepare(self, seed: int):
        topology = self.topology()
        boots = boot_offsets(seed, topology.n, self.boot_range)
        inputs = []
        for model in self.models:
            config = EngineConfig(model=model, boot_offsets=dict(boots),
                                  max_ticks=self.max_ticks)
            config.validate()
            inputs.append((config, topology))
        return inputs

    def execute(self, inputs):
        # looked up on the module at call time, like every layer boundary
        return [engine_mod.run(config, topology) for config, topology in inputs]

    def check(self, inputs, raw) -> Outcome:
        failures, ticks, msgs, detail = [], 0, 0, []
        for (config, topology), (sim, _, verdict) in zip(inputs, raw):
            label = f"{self.name}/{config.model}"
            ticks += verdict.at_tick
            msgs += verdict.total_messages
            detail.append((config.model, verdict.kind, verdict.at_tick,
                           tuple(sorted(verdict.counts.items()))))
            if verdict.kind != self.expect:
                failures.append(f"{label}: verdict {verdict.kind}, expected {self.expect}")
            elif self.expect == "timed_out" and verdict.at_tick != self.max_ticks:
                failures.append(f"{label}: timed out at {verdict.at_tick}, "
                                f"expected {self.max_ticks}")
            elif self.expect == "converged":
                bad = oracle_failures(sim, topology)
                if bad:
                    failures.append(f"{label}: {len(bad)} wrong LSDB entries, "
                                    f"first: {bad[0]}")
        return Outcome(runs=len(raw), failures=tuple(failures), sim_ticks=ticks,
                       sim_msgs=msgs, detail=tuple(detail))


@dataclass(frozen=True)
class ExploreWorkload:
    """One bounded exhaustive exploration; the explorer enumerates every
    boot offset itself, so the seed is unused."""

    name: str
    why: str
    topology: Callable[[], Topology]
    start_interval: int
    queue_bound: int
    expect_states: int
    uses_seed: ClassVar[bool] = False

    def describe(self, inputs) -> str:
        return (f"{inputs.topology.n}-node topology, start_interval "
                f"{inputs.start_interval}, queue_bound {inputs.queue_bound}")

    def prepare(self, seed: int) -> ExploreConfig:
        del seed
        config = ExploreConfig(self.topology(), start_interval=self.start_interval,
                               queue_bound=self.queue_bound)
        config.validate()
        return config

    def execute(self, inputs):
        return explorer_mod.explore(inputs)

    def check(self, inputs, raw) -> Outcome:
        failures = []
        if raw.status != "pass":
            failures.append(f"{self.name}: status {raw.status}, expected pass")
        if raw.states != self.expect_states:
            failures.append(f"{self.name}: {raw.states} states, "
                            f"expected {self.expect_states}")
        detail = (raw.status, raw.depth_reached, raw.longest_path,
                  raw.max_queue_occupancy)
        return Outcome(runs=1, failures=tuple(failures),
                       explore_states=raw.states, detail=detail)


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            name="ring30",
            why="large LSDBs and update/ack floods: where LSDB, neighbour-table "
                "and topology indexing show",
            topology=lambda: ring(30),
            models=("simple", "detailed"),
            expect="converged",
        ),
        EngineWorkload(
            name="star7-saturation",
            why="tiny LSDBs, deep hub queues and restarts until the 3000-tick "
                "timeout: per-tick and trace cost, not LSDB cost",
            topology=lambda: star(7),
            models=("detailed",),
            expect="timed_out",
            max_ticks=3000,
            # every one of the 2**7 offset vectors in {0, 1} times out;
            # with offsets in [0, hellointvl) about one seed in six
            # converges (seed 11 at tick 367), and the workload would
            # switch between a 0.5 s saturation and a 0.07 s convergence
            boot_range=2,
        ),
        ExploreWorkload(
            name="explore-line4",
            why="the only explorer workload: 4 nodes, start interval 3, "
                "23,381 states; it ignores the seed",
            topology=lambda: line(4),
            start_interval=3,
            queue_bound=10,
            expect_states=23_381,
        ),
    )
}
