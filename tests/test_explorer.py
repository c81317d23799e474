import dataclasses
from collections import Counter

import pytest

from ospfsim.engine import EngineConfig, run
from ospfsim.explorer import (
    Counterexample,
    ExploreConfig,
    Violation,
    _Ctx,
    _Node,
    _install,
    counterexample_trace,
    deterministic_choice,
    explore,
    initial_state,
    replay,
    state_converged,
    successors,
)
from ospfsim.topology import line, ring, star


def engine_schedule_path(cfg, boots):
    """Choices of the engine schedule from ``boots`` up to the first
    converged state, and that state."""
    ctx = _Ctx(cfg)
    tracker = {"max_occ": 0}
    canon = initial_state(cfg, boots)
    choices = []
    while not state_converged(canon, cfg.topology):
        want = deterministic_choice(canon, ctx)
        canon = {c: ch for c, ch, _ in successors(canon, ctx, tracker)}[want]
        choices.append(want)
    return choices, canon


def test_two_node_exploration_passes():
    verdict = explore(ExploreConfig(topology=line(2), start_interval=3))
    assert verdict.status == "pass"
    assert verdict.max_queue_occupancy <= 10
    assert verdict.longest_path is not None


def test_exploration_is_deterministic():
    cfg = lambda: ExploreConfig(topology=line(2), start_interval=2)
    one, two = explore(cfg()), explore(cfg())
    assert (one.status, one.states, one.max_queue_occupancy, one.depth_reached) == (
        two.status, two.states, two.max_queue_occupancy, two.depth_reached)


def test_queue_bound_violation_with_replayable_counterexample():
    cfg = ExploreConfig(topology=line(3), start_interval=2, queue_bound=1)
    verdict = explore(cfg)
    assert verdict.status == "violation"
    ce = verdict.counterexample
    assert ce.violation.prop == "P1"
    # the recorded run re-triggers the same violation
    _, violations = replay(cfg, ce)
    assert violations and violations[0].prop == "P1"
    assert violations[0].detail == ce.violation.detail
    # and the engine reproduces it whenever the schedule is its own
    if ce.is_deterministic_schedule():
        ecfg = EngineConfig(model="simple", queue_capacity=cfg.queue_bound,
                            boot_offsets=dict(ce.boot_offsets))
        _, _, engine_verdict = run(ecfg, cfg.topology)
        assert engine_verdict.kind == "queue_overflow"
        assert engine_verdict.node == ce.violation.node


def test_counterexample_trace_raises_when_choices_do_not_replay():
    cfg = ExploreConfig(topology=line(3), start_interval=2, queue_bound=1)
    ce = explore(cfg).counterexample
    bogus = dataclasses.replace(ce, choices=[("X", "X", "X")] + ce.choices[1:])
    with pytest.raises(RuntimeError, match="does not replay"):
        counterexample_trace(cfg, bogus)


def test_engine_schedule_is_among_explored_interleavings():
    cfg = ExploreConfig(topology=line(3), start_interval=10)
    ctx = _Ctx(cfg)
    tracker = {"max_occ": 0}
    canon = initial_state(cfg, {1: 0, 2: 0, 3: 0})
    for _ in range(80):
        if state_converged(canon, cfg.topology):
            break
        want = deterministic_choice(canon, ctx)
        nxt = None
        for combo, child, violations in successors(canon, ctx, tracker):
            assert not violations
            if combo == want:
                nxt = child
        assert nxt is not None, "deterministic schedule missing from successors"
        canon = nxt
    assert state_converged(canon, cfg.topology)


# star(4) is left out: with every node booting at 0 the hub's queue
# passes the bound of 10 at tick 7 (a P1 violation), so the engine
# schedule never reaches a converged state there
AGREEMENT_TOPOLOGIES = [
    ("line3", line(3)), ("line4", line(4)), ("ring3", ring(3)),
    ("ring4", ring(4)), ("star3", star(3)),
]


@pytest.mark.parametrize("topo", [t for _, t in AGREEMENT_TOPOLOGIES],
                         ids=[n for n, _ in AGREEMENT_TOPOLOGIES])
def test_engine_and_explorer_agree_on_final_links(topo):
    cfg = ExploreConfig(topology=topo, start_interval=0)
    _, canon = engine_schedule_path(cfg, {ip: 0 for ip in topo.nodes()})
    nodes_t, _ = canon
    sim, _, verdict = run(EngineConfig(model="simple"), cfg.topology)
    assert verdict.kind == "converged"
    for ip in cfg.topology.nodes():
        explored = {o: set(links) for o, _, links in nodes_t[ip - 1][4]}
        engine = {l.origin: set(l.links) for l in sim.nodes[ip].state.lsdb}
        assert explored == engine


def test_wrap_window_install_flags_p3():
    cfg = ExploreConfig(topology=line(2), age_bound=8)
    ctx = _Ctx(cfg)
    node = _Node(-1, 0, 0, {}, {1: (1, frozenset())}, [], [])
    # an age jump of exactly half the bound is ambiguous both ways
    assert _install(node, 1, 1, 5, frozenset(), ctx)
    assert ctx.violations and ctx.violations[0].prop == "P3"


def test_state_converged_checks():
    cfg = ExploreConfig(topology=line(2), start_interval=2)
    root = initial_state(cfg, {1: 2, 2: 0})
    assert not state_converged(root, cfg.topology)


def test_over_scale_topology_refused():
    with pytest.raises(ValueError):
        explore(ExploreConfig(topology=star(6)))


def test_depth_budget_reports_inconclusive():
    verdict = explore(ExploreConfig(topology=line(3), start_interval=10,
                                    depth_bound=5))
    assert verdict.status == "inconclusive"
    assert verdict.frontier_size > 0
    assert "depth bound" in verdict.message


def test_state_budget_reports_inconclusive():
    verdict = explore(ExploreConfig(topology=line(3), start_interval=10,
                                    max_states=50))
    assert verdict.status == "inconclusive"
    assert "state budget" in verdict.message


def test_explorer_requests_on_age_ties_unlike_simple_model():
    # The explorer's dbd handler requests every header whose age is not
    # older than its own copy, ties included, and its req handler serves
    # ties; simple.py's lsa_exist does neither.  On line(3) under the
    # engine schedule this costs 4 requests, 4 extra updates and 4 ticks.
    # See docs/explorer_vs_simple.md.
    topo = line(3)
    boots = {ip: 0 for ip in topo.nodes()}
    cfg = ExploreConfig(topology=topo, start_interval=0)
    choices, _ = engine_schedule_path(cfg, boots)
    assert len(choices) == 16
    # counterexample_trace renders any recorded path, violating or not
    path = Counterexample(boots, choices, Violation("none", ""), len(choices))
    sends = Counter(
        ev.detail["type"] for ev in counterexample_trace(cfg, path)
        if ev.kind == "send"
    )
    assert sends == {"hello": 6, "dbd": 4, "req": 4, "upd": 15}
    _, _, verdict = run(EngineConfig(model="simple"), topo)
    assert verdict.kind == "converged" and verdict.at_tick == 11
    assert verdict.counts == {"hello": 6, "dbd": 4, "req": 0, "upd": 11, "ack": 0}
