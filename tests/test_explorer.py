import dataclasses
import functools
import hashlib
import itertools
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ospfsim import explorer
from ospfsim.engine import ConfigError, EngineConfig, TraceEvent, run
from ospfsim.explorer import (
    BOOTED,
    IDLE,
    MSG_THEN_TIMER,
    Counterexample,
    ExploreConfig,
    Violation,
    _Ctx,
    _Node,
    _States,
    _decode,
    _encode,
    _find_unconverged_cycle,
    _handle,
    _install,
    _longest_unconverged_path,
    _node_step,
    _steps,
    explore,
    initial_state,
    replay,
    state_converged,
    successors,
)
from ospfsim.topology import Topology, line, ring, star


def engine_schedule_path(cfg, boots):
    """Choices of the engine schedule from ``boots`` up to the first
    converged state, and the canonical nodes of that state in ip order."""
    ctx = _Ctx(cfg)
    canon = initial_state(ctx, boots)
    choices = []
    while not state_converged(canon, ctx):
        # the first combo takes each node's first label, the engine's
        want, canon, _ = next(successors(canon, ctx))
        choices.append(want)
    return choices, [ctx.nodes[nid] for nid in canon[0]]


def test_two_node_exploration_passes():
    verdict = explore(ExploreConfig(topology=line(2), start_interval=3))
    assert verdict.status == "pass"
    assert verdict.max_queue_occupancy <= 10
    assert verdict.longest_path is not None


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
    if all(MSG_THEN_TIMER not in combo for combo in ce.choices):
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
        replay(cfg, bogus)


def _detail_keys(events):
    keys = {}
    for ev in events:
        keys.setdefault(ev.kind, set()).add(tuple(sorted(ev.detail)))
    return keys


def test_counterexample_traces_use_the_engine_record_format():
    cfg = ExploreConfig(topology=line(3), start_interval=2, queue_bound=1)
    ce = explore(cfg).counterexample
    # that counterexample boots every node at 0, so nothing is dropped;
    # a path with a late boot adds drop records
    late = {1: 0, 2: 0, 3: 2}
    roomy = ExploreConfig(topology=line(3), start_interval=2)
    choices, _ = engine_schedule_path(roomy, late)
    path = Counterexample(late, choices, Violation("none", ""), len(choices))
    explored = _detail_keys(replay(cfg, ce)[0] + replay(roomy, path)[0])
    _, trace, _ = run(EngineConfig(model="simple", boot_offsets=late), line(3),
                      trace=True)
    engine = _detail_keys(trace)
    for kind in ("boot", "deliver", "drop", "send"):
        assert engine.get(kind) and explored.get(kind) == engine[kind], kind


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
    _, nodes_t = engine_schedule_path(cfg, {ip: 0 for ip in topo.nodes()})
    sim, _, verdict = run(EngineConfig(model="simple"), cfg.topology)
    assert verdict.kind == "converged"
    for ip in cfg.topology.nodes():
        explored = {o: set(links) for o, _, links in nodes_t[ip - 1][4]}
        engine = {l.origin: set(l.links) for l in sim.nodes[ip].state.lsdb}
        assert explored == engine


def test_wrap_window_install_flags_p3():
    cfg = ExploreConfig(topology=line(2), age_bound=8)
    ctx = _Ctx(cfg)
    node = _Node(-1, 0, 0, {}, {1: (1, 1, ())}, [], [])
    # an age jump of exactly half the bound is ambiguous both ways
    assert _install(node, 1, 1, 5, frozenset(), ctx)
    assert ctx.violations and ctx.violations[0].prop == "P3"
    # so the jump back, 5 -> 1, wraps forward and is installed too
    assert _install(node, 1, 1, 1, frozenset(), ctx)
    assert node.lsdb[1][1] == 1
    assert [v.prop for v in ctx.violations] == ["P3", "P3"]


def test_install_refuses_an_older_age():
    ctx = _Ctx(ExploreConfig(topology=line(2), age_bound=8))
    node = _Node(-1, 0, 0, {}, {1: (1, 5, (2,))}, [], [])
    # 3 is older than 5 within half the bound, so the stored entry stays
    assert not _install(node, 1, 1, 3, frozenset(), ctx)
    assert node.lsdb == {1: (1, 5, (2,))}
    assert ctx.violations == []


@pytest.mark.parametrize("entry", ["too old", "self-link"])
def test_bad_database_entry_flags_p2(entry):
    cfg = ExploreConfig(topology=line(2))
    ctx = _Ctx(cfg)
    lsa = (1, ctx.bound + 1, (2,)) if entry == "too old" else (1, 0, (1,))
    # booted, no timer due and nothing queued: the node idles, so its
    # database reaches the P2 check as built
    node = _Node(BOOTED, 5, 0, {}, {1: lsa}, [], [])
    _, label, child, _, violations, _ = _node_step(
        ctx, 1, _encode(node, ctx), (), None)
    assert label == IDLE and child is None
    assert [(v.prop, v.detail) for v in violations] == [
        ("P2", "node 1: bad database entry for origin 1")]


def test_request_is_served_only_to_a_known_sender():
    ctx = _Ctx(ExploreConfig(topology=line(2)))
    node = _Node(BOOTED, 5, 1, {}, {1: (1, 1, ())}, [], [])
    req = ctx.msg_id(("req", ((1, 0),), 2))
    _handle(node, 1, req, ctx)
    assert node.nbrs == {} and node.outq == []
    node.nbrs[2] = ctx.rtdeadintvl
    _handle(node, 1, req, ctx)
    assert [ctx.msgs[mid] for mid, _ in node.outq] == [
        ("upd", ((1, 1, ()),), 1)]
    assert node.outq[0][1] == (2,)


LINE3_SI2 = ExploreConfig(topology=line(3), start_interval=2)


def reachable(cfg):
    """The search context of ``cfg`` and every state reachable from its
    roots, converged states expanded too; the states hold node and
    message ids of that context.  As in ``explore``, each state is
    checked and expanded as unpacked from its store record, so its node
    ids are new int objects, equal to the ones that ``ctx`` interned."""
    ctx = _Ctx(cfg)
    store = _States(cfg.topology.n)
    for boots in itertools.product(range(cfg.start_interval + 1),
                                   repeat=cfg.topology.n):
        if min(boots) == 0:
            store.add(initial_state(ctx, dict(zip(cfg.topology.nodes(),
                                                  boots))))
    sid = 0
    while sid < len(store.hashes):
        canon = store.load(sid)
        state_converged(canon, ctx)
        for _, child, violations in successors(canon, ctx):
            assert not violations
            store.add(child)
        sid += 1
    return ctx, {store.load(sid) for sid in range(sid)}


@pytest.fixture(scope="module")
def line3_si2_states():
    """Every state reachable on line(3) with start interval 2."""
    ctx, seen = reachable(LINE3_SI2)
    assert len(seen) > 1000
    return ctx, seen


def test_storage_round_trips_and_keeps_the_lsdb_layout(line3_si2_states):
    ctx, states = line3_si2_states
    for canon in states:
        for nid in canon[0]:
            assert _encode(_decode(nid, ctx), ctx) == nid
            lsdb = ctx.nodes[nid][4]
            assert isinstance(lsdb, tuple)
            assert [e[0] for e in lsdb] == sorted({e[0] for e in lsdb})
            for origin, age, links in lsdb:
                assert isinstance(origin, int) and isinstance(age, int)
                assert isinstance(links, tuple) and list(links) == sorted(links)


def test_equal_parts_are_one_object(line3_si2_states):
    # equal neighbour, database and queue tuples of the stored nodes are
    # one object; flights are interned to ids instead, so each is held
    # once, in its table, and states and node steps hold only its id
    ctx, states = line3_si2_states
    first = {}
    for node in ctx.nodes:
        for part in node[3:]:
            assert first.setdefault(part, part) is part
    assert len(set(ctx.flights)) == len(ctx.flights)
    # no step here has a violation, so every row is (top occupancy,
    # then label, child id, flight id per label)
    rows = [row for by_node in ctx.steps.values() for row in by_node.values()]
    assert all(type(row[0]) is int and len(row) % 3 == 1 for row in rows)
    started = {flight for row in rows for flight in row[3::3]} - {None}
    carried = {fid for canon in states for fid in canon[1]}
    assert started <= carried == set(range(len(ctx.flights)))
    # both caches key a node by the int that ``ctx.node_ids`` holds, not
    # by the equal one unpacked from a record; ids from 256 up are not
    # shared by the interpreter, so an unpacked one is a new object
    assert len(ctx.nodes) > 256
    for by_node in [*ctx.steps.values(), *ctx.converged.values()]:
        assert all(nid is ctx.node_ids[ctx.nodes[nid]] for nid in by_node)


def rebuilt(x):
    """An equal copy of ``x`` built from new objects where Python allows:
    fresh tuples, ints parsed from text and strings that are not
    interned."""
    if isinstance(x, tuple):
        return tuple([rebuilt(e) for e in x])
    if isinstance(x, str):
        return "".join(list(x))
    if isinstance(x, int):
        return int(str(x))
    assert x is None
    return x


def test_store_round_trips_and_adds_equal_states_once(line3_si2_states):
    # a record loses nothing, and an equal state built from other objects
    # gets the id of the first, whatever the index positions
    ctx, states = line3_si2_states
    store = _States(LINE3_SI2.topology.n)
    sids = [store.add(canon) for canon in states]
    assert sids == list(range(len(states)))
    for sid, canon in zip(sids, states):
        assert store.load(sid) == canon
        copy = rebuilt(canon)
        assert copy == canon
        assert store.add(copy) == sid
        # node ids are exact too: an equal node gets the same id
        for nid in canon[0]:
            assert ctx.node_id(rebuilt(ctx.nodes[nid])) == nid
    # the equal copies added nothing
    assert len(store.hashes) == len(states)
    assert len(store.records) == store.size * len(states)


def expanded(canon, ctx):
    """``canon`` with every node and message id of ``ctx`` replaced by
    the tuple it stands for, which no context's ids affect."""
    msgs = ctx.msgs

    def node(nid):
        boot, hellot, age, nbrs, lsdb, inq, outq = ctx.nodes[nid]
        return (boot, hellot, age, nbrs, lsdb, tuple(msgs[m] for m in inq),
                tuple((msgs[m], dests) for m, dests in outq))

    nids, flights = canon
    return (tuple(map(node, nids)),
            tuple((s, msgs[m], rcpts, res)
                  for s, m, rcpts, res in (ctx.flights[f] for f in flights)))


def interned(state, ctx):
    """The inverse of :func:`expanded`, in the ids of ``ctx``."""
    nodes, flights = state
    return (
        tuple(ctx.node_id((boot, hellot, age, nbrs, lsdb,
                           tuple(map(ctx.msg_id, inq)),
                           tuple((ctx.msg_id(m), d) for m, d in outq)))
              for boot, hellot, age, nbrs, lsdb, inq, outq in nodes),
        tuple(ctx.flight_id((s, ctx.msg_id(m), rcpts, res))
              for s, m, rcpts, res in flights),
    )


def assert_cache_exact(cfg, warm, states):
    """A warm cache, filled by a whole search, answers every node step
    of ``states`` exactly as a fresh one does."""
    def triples(canon, ctx):
        return [(combo, child and expanded(child, ctx), violations)
                for combo, child, violations in successors(canon, ctx)]

    for canon in states:
        fresh = _Ctx(cfg)
        assert triples(canon, warm) == triples(
            interned(expanded(canon, warm), fresh), fresh)


def test_node_step_cache_is_exact(line3_si2_states):
    # a key without the node's ip or its inbox fails here
    assert_cache_exact(LINE3_SI2, *line3_si2_states)


def test_node_step_cache_is_exact_while_a_send_is_in_flight():
    # with one tick per send no node is ever busy; with two, a node
    # whose last send is still in flight carries it for one tick, and
    # with three for two ticks, at two residues; a key that does not
    # name the carried flight gives one tick the row of another
    for time_sending in (2, 3):
        cfg = ExploreConfig(topology=line(3), start_interval=2,
                            time_sending=time_sending)
        ctx, states = reachable(cfg)
        residues = {ctx.flights[fid][3] for canon in states
                    for fid in canon[1]}
        assert residues == set(range(time_sending))
        assert_cache_exact(cfg, ctx, states)


def test_max_occupancy_counts_the_combos_up_to_the_first_violation():
    # the search stops at the first combo with a violation, so the
    # verdict's occupancy counts only the options of the combos up to
    # it: node 1's one label re-originates under age bound 2 (P3), and
    # node 2's second label, which serves node 1's request before its
    # timer drops node 1 and so queues one more, is never reached
    ctx = _Ctx(ExploreConfig(topology=line(2), age_bound=2))
    hello = ctx.msg_id(("hello", (), 2))
    node1 = _Node(BOOTED, 5, 1, {}, {1: (1, 1, ())}, [], [])
    node2 = _Node(BOOTED, 5, 0, {1: -1}, {}, [], [(hello, None)] * 2)
    canon = ((_encode(node1, ctx), _encode(node2, ctx)),
             (ctx.flight_id((1, ctx.msg_id(("req", (), 1)), (2,), 0)),
              ctx.flight_id((2, hello, (1,), 0))))
    combo, child, violations = next(successors(canon, ctx))
    assert combo == ("M", "TM") and child is None
    assert [v.prop for v in violations] == ["P3"]
    assert ctx.max_occ == 2
    assert [c for c, _, _ in successors(canon, ctx)] == [
        ("M", "TM"), ("M", "MT")]
    assert ctx.max_occ == 3


def flat(succ):
    """Hand-built successor lists in the flat form of the final pass:
    ``succ[i]`` lists the unconverged successors of state i, None marks a
    converged state.  As in the graphs ``explore`` builds, no state lists
    a converged one."""
    assert all(succ[c] is not None for kids in succ for c in kids or ())
    first, last, kids = array("i"), array("i"), []
    for children in succ:
        first.append(-1 if children is None else len(kids))
        kids.extend(children or ())
        last.append(len(kids))
    return first, last, kids


def test_final_pass_finds_a_state_on_a_cycle():
    succ = flat([[1], [2, 4], [3], [1], []])
    assert _find_unconverged_cycle(*succ) in {1, 2, 3}
    assert _longest_unconverged_path(*succ) is None
    assert _find_unconverged_cycle(*flat([[1], [2], []])) is None


def test_final_pass_longest_path_through_a_diamond():
    # 0 -> {1, 2} -> 3 -> 4, with a shortcut 0 -> 4 listed first and a
    # converged 5
    succ = flat([[4, 1, 2], [3], [3], [4], [], None])
    assert _find_unconverged_cycle(*succ) is None
    assert _longest_unconverged_path(*succ) == 4
    assert _longest_unconverged_path(*flat([None, None])) == 0


def test_final_pass_handles_a_long_chain_without_recursion():
    n = 10_000
    succ = flat([[i + 1] for i in range(n - 1)] + [[]])
    assert _find_unconverged_cycle(*succ) is None
    assert _longest_unconverged_path(*succ) == n


@st.composite
def successor_graphs(draw):
    """Successor lists as :func:`flat` takes them, of up to 30 states:
    each unconverged state lists unconverged successors, repeats and
    itself allowed; a forward graph lists only later ones, so it is
    acyclic."""
    n = draw(st.integers(0, 30))
    converged = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    live = [i for i in range(n) if not converged[i]]
    forward = draw(st.booleans())
    succ = []
    for i in range(n):
        targets = [j for j in live if j > i] if forward else live
        succ.append(None if converged[i] else draw(
            st.lists(st.sampled_from(targets), max_size=3) if targets
            else st.just([])))
    return succ


def naive_longest_path(succ):
    """Longest walk in states of an acyclic graph, by plain recursion."""
    @functools.cache
    def walk(s):
        return 1 + max((walk(c) for c in succ[s]), default=0)

    return max((walk(s) for s, c in enumerate(succ) if c is not None),
               default=0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(successor_graphs())
def test_final_pass_agrees_with_the_cycle_search_and_a_naive_path(succ):
    graph = flat(succ)
    longest = _longest_unconverged_path(*graph)
    on_cycle = _find_unconverged_cycle(*graph)
    assert (longest is None) == (on_cycle is not None)
    if on_cycle is None:
        assert longest == naive_longest_path(succ)
    else:  # the state the DFS picks reaches itself
        seen, todo = set(), list(succ[on_cycle])
        while todo and on_cycle not in seen:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                todo.extend(succ[s])
        assert on_cycle in seen


def test_one_combo_successors_equal_the_product_of_the_rows(
        line3_si2_states):
    # warm rows come from the cache and have no violation; the triples
    # of every state, their order and the occupancy it records must be
    # those of the product over its rows, however many labels they hold
    ctx, states = line3_si2_states
    single = 0
    for canon in states:
        rows = _steps(canon, ctx)
        assert all(type(row[0]) is int for row in rows)
        single += all(len(row) == 4 for row in rows)
        expected = [
            (combo, (kids, tuple(f for f in slots if f is not None)), [])
            for combo, kids, slots in zip(
                itertools.product(*(row[1::3] for row in rows)),
                itertools.product(*(row[2::3] for row in rows)),
                itertools.product(*(row[3::3] for row in rows)))]
        ctx.max_occ = 0
        assert list(successors(canon, ctx)) == expected
        assert ctx.max_occ == max(row[0] for row in rows)
    # both paths ran: one-combo ticks and ticks with a choice
    assert 0 < single < len(states)


def test_state_converged_checks():
    cfg = ExploreConfig(topology=line(2), start_interval=2)
    ctx = _Ctx(cfg)
    root = initial_state(ctx, {1: 2, 2: 0})
    assert not state_converged(root, ctx)


def test_over_scale_topology_refused():
    with pytest.raises(ValueError):
        explore(ExploreConfig(topology=star(6)))


@pytest.mark.parametrize("key,value", [
    ("hellointvl", 0), ("rtdeadintvl", 0), ("rtdeadintvl", -3),
    ("time_sending", 0),
])
def test_config_rejects_timings_the_engine_rejects(key, value):
    with pytest.raises(ConfigError) as engine_err:
        EngineConfig(**{key: value}).validate()
    with pytest.raises(ValueError) as explore_err:
        explore(ExploreConfig(topology=line(2), **{key: value}))
    assert str(explore_err.value) == str(engine_err.value)


@pytest.mark.parametrize("key,value,message", [
    ("max_states", 0, "max_states must be positive"),
    ("queue_bound", 0, "queue_bound must be positive"),
    ("start_interval", -1, "start_interval must be non-negative"),
    ("age_bound", 1, "age_bound must be at least 2"),
])
def test_config_rejects_negative_budgets(key, value, message):
    with pytest.raises(ValueError, match=message):
        ExploreConfig(topology=line(2), **{key: value}).validate()
    ExploreConfig(topology=line(2), max_states=1, queue_bound=1,
                  start_interval=0, age_bound=2).validate()


def verdict_fields(v):
    return (v.status, v.states, v.max_queue_occupancy, v.depth_reached,
            v.frontier_sizes, v.longest_path,
            v.counterexample, v.message)


def test_state_budget_reports_inconclusive():
    # line(3) has 331 roots at start interval 10, and the budget is
    # checked after each root as after each expansion, so the search
    # stops at the 51st root, which are depth 0's frontier so far
    verdict = explore(ExploreConfig(topology=line(3), start_interval=10,
                                    max_states=50))
    assert verdict_fields(verdict) == (
        "inconclusive", 51, 0, 0, (51,), None, None,
        "state budget 50 exhausted")
    assert verdict.lines() == [
        "EXPLORE INCONCLUSIVE states=51 max_queue=0 depth=0",
        "state budget 50 exhausted",
        "frontier per depth: 51",
    ]
    # line(4) has 31**4 - 30**4 = 113,521 roots at start interval 30;
    # none past the budget is stored
    verdict = explore(ExploreConfig(topology=line(4), start_interval=30,
                                    max_states=1000))
    assert verdict.lines() == [
        "EXPLORE INCONCLUSIVE states=1001 max_queue=0 depth=0",
        "state budget 1000 exhausted",
        "frontier per depth: 1001",
    ]
    # a larger budget stops a few depths in, and each depth is listed
    verdict = explore(ExploreConfig(topology=line(3), start_interval=10,
                                    max_states=2000))
    assert verdict.lines() == [
        "EXPLORE INCONCLUSIVE states=2001 max_queue=4 depth=4",
        "state budget 2000 exhausted",
        "frontier per depth: 331 331 375 379 383",
    ]


def test_unconverged_cycle_reports_a_convergence_counterexample():
    # with rtdeadintvl below hellointvl a neighbour expires between two
    # of its hellos, so some execution keeps changing its links forever
    cfg = ExploreConfig(topology=line(2), start_interval=1, hellointvl=10,
                        rtdeadintvl=5)
    verdict = explore(cfg)
    assert verdict.lines() == [
        "EXPLORE VIOLATION states=156 max_queue=2 depth=35",
        "counterexample: convergence at tick 5 (execution can avoid "
        "convergence forever); boot offsets 1:0 2:1",
        "unconverged cycle: some execution never converges",
    ]
    ce = verdict.counterexample
    assert ce.violation.prop == "convergence" and ce.at_tick == 5
    assert ce.boot_offsets == {1: 0, 2: 1}
    assert [" ".join(c) for c in ce.choices] == [
        "T -", "- TM", "M -", "M M", "M M"]
    # the path ends on a state of the cycle, which breaks no P1-P3
    assert replay(cfg, ce)[1] == []


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
    # replay renders any recorded path, violating or not
    path = Counterexample(boots, choices, Violation("none", ""), len(choices))
    sends = Counter(
        ev.detail["type"] for ev in replay(cfg, path)[0]
        if ev.kind == "send"
    )
    assert sends == {"hello": 6, "dbd": 4, "req": 4, "upd": 15}
    _, _, verdict = run(EngineConfig(model="simple"), topo)
    assert verdict.kind == "converged" and verdict.at_tick == 11
    assert verdict.counts == {"hello": 6, "dbd": 4, "req": 0, "upd": 11, "ack": 0}


def test_explorer_boots_before_the_deliveries_of_the_boot_tick_unlike_simple_model():
    # explorer._node_step boots a node and then hands it the tick's
    # deliveries; SimState.tick delivers first and drops what reaches a
    # node that boots later in the same tick.  On line(2) node 1's first
    # hello reaches node 2 in node 2's boot tick.  See
    # docs/explorer_vs_simple.md.
    topo = line(2)
    boots = {1: 0, 2: 1}
    cfg = ExploreConfig(topology=topo, start_interval=1)
    choices, _ = engine_schedule_path(cfg, boots)
    path = Counterexample(boots, choices, Violation("none", ""), len(choices))
    explored, _ = replay(cfg, path)
    _, engine, _ = run(EngineConfig(model="simple", boot_offsets=boots), topo,
                       trace=True)

    def first_hello(trace):
        return [ev for ev in trace
                if ev.tick == 1 and ev.kind in ("deliver", "drop")]

    hello = {"from": 1, "type": "hello"}
    assert first_hello(explored) == [TraceEvent(1, 2, "deliver", hello)]
    assert first_hello(engine) == [
        TraceEvent(1, 2, "drop", {**hello, "reason": "not_booted"})]
    # the engine prints the drop before the boot that follows it
    assert [ev.kind for ev in engine if ev.tick == 1 and ev.node == 2] == [
        "drop", "boot", "send"]


# verdicts of the explorer as it stands, pinned so that a change to its
# storage or its search cannot move them:
# (status, states, max_queue_occupancy, depth_reached, longest_path),
# then the frontier size per depth, which fingerprints the breadth-first
# visit order
PINNED_VERDICTS = [
    ("line3-si10", line(3), 10, 10, ("pass", 11590, 7, 27, 28),
     (331, 331, 375, 379, 383, 389, 393, 397, 401, 405, 409, 536, 586, 593,
      620, 646, 648, 624, 590, 519, 431, 338, 217, 152, 88, 38, 8)),
    ("ring3-si3", ring(3), 3, 10, ("pass", 3378, 9, 24, 24),
     (37, 37, 61, 67, 73, 73, 73, 73, 73, 73, 73, 125, 177, 223, 242, 242,
      242, 242, 242, 242, 236, 182, 37, 1)),
    ("star3-si3", star(3), 3, 10, ("pass", 1765, 7, 20, 20),
     (37, 37, 53, 57, 61, 61, 61, 61, 61, 61, 61, 104, 127, 134, 160, 154,
      134, 102, 62, 31)),
    ("ring4-si1", ring(4), 1, 10, ("pass", 5197, 10, 27, 27),
     (15, 15, 49, 49, 49, 49, 49, 49, 49, 49, 49, 120, 344, 344, 344, 344,
      344, 344, 344, 344, 344, 360, 360, 340, 180, 20, 4)),
    ("line2-si5-qb2", line(2), 5, 2, ("pass", 156, 2, 14, 14),
     (11, 11, 13, 13, 13, 13, 13, 12, 8, 8, 6, 8, 6, 4)),
    ("line4-si3", line(4), 3, 10, ("pass", 23381, 9, 27, 27),
     (175, 175, 273, 323, 373, 373, 373, 373, 373, 373, 373, 738, 1152, 1472,
      1778, 1773, 1768, 1767, 1757, 1734, 1656, 1560, 889, 367, 125, 11, 1)),
]


@pytest.mark.parametrize(
    "topo,start_interval,queue_bound,expected,frontier_sizes",
    [p[1:] for p in PINNED_VERDICTS], ids=[p[0] for p in PINNED_VERDICTS])
def test_pinned_verdicts(topo, start_interval, queue_bound, expected,
                         frontier_sizes):
    v = explore(ExploreConfig(topology=topo, start_interval=start_interval,
                              queue_bound=queue_bound))
    assert (v.status, v.states, v.max_queue_occupancy, v.depth_reached,
            v.longest_path) == expected
    assert v.frontier_sizes == frontier_sizes


# sha256 of each verdict's repr, then of each counterexample's replayed
# records and violations, pinned so that no change to the explorer's
# storage, caches or replay can move a verdict field, a frontier, a
# counterexample or a replayed record unseen; the cases cover every
# status, both queue bounds that trip P1, P3 under age bound 2, flights
# carried for one and two ticks, and short dead intervals
EXPLORE_TOPOLOGIES = {"line2": line(2), "line3": line(3), "ring3": ring(3),
                      "star3": star(3), "star4": star(4)}
EXPLORE_CASES = {
    **{f"{name}-si{si}-qb{qb}": (name, dict(start_interval=si, queue_bound=qb))
       for name in EXPLORE_TOPOLOGIES for si in (0, 1) for qb in (1, 2, 10)},
    **{f"{name}-si1-{key}": (name, dict(start_interval=1, **kw))
       for name in EXPLORE_TOPOLOGIES
       for key, kw in (("age2", dict(age_bound=2)),
                       ("ts2", dict(time_sending=2)))},
    **{f"{name}-si2-ts3-budget": (name, dict(start_interval=2, time_sending=3,
                                             max_states=2000))
       for name in EXPLORE_TOPOLOGIES},
    "line2-dead5": ("line2", dict(rtdeadintvl=5)),
}
PINNED_EXPLORE_DIGESTS = dict([
    ("line2-si0-qb1", "f88ef7dc5ac640dc4543a83164920ba636e50ffddeb1641b89a093c68d0b84f9"),
    ("line2-si0-qb2", "f88ef7dc5ac640dc4543a83164920ba636e50ffddeb1641b89a093c68d0b84f9"),
    ("line2-si0-qb10", "f88ef7dc5ac640dc4543a83164920ba636e50ffddeb1641b89a093c68d0b84f9"),
    ("line2-si1-qb1", "e7c34312bf9079a33776654de1454d240b92c7437576082b70bc7ebab17af9a4"),
    ("line2-si1-qb2", "33a29818f502bf5318906e82d442165a5bbdd7e81663235d0a6b70ac0ed0c5d7"),
    ("line2-si1-qb10", "33a29818f502bf5318906e82d442165a5bbdd7e81663235d0a6b70ac0ed0c5d7"),
    ("line3-si0-qb1", "bf32a928e6c5bd7a5e6a5f7181ab20f57c8e26722c8319479b2b5d8b5cf3d22c"),
    ("line3-si0-qb2", "64a136dc5f1e60dcfcef9274d3c944813c62cc585ba28dc2ce211c2ad23131ec"),
    ("line3-si0-qb10", "6326e311c6fa1df1b3e18750c0576e1934be916f592e01c164f4c4ab0f074152"),
    ("line3-si1-qb1", "8647bc1793dfd000e788634fd4c073caa75ca5a009d24d792a9cabc3eaaa39fd"),
    ("line3-si1-qb2", "2f08e023739d3a62c79634f8f0a0a6ba924c3be3b02658bb067d3b7f3b2a52a1"),
    ("line3-si1-qb10", "8613d77a27c92fe43836818d2f4ef6a871380ff28eb89af8832ac440a861f027"),
    ("ring3-si0-qb1", "430e30a62de27e58501d4b3e6f8774ebc9f30b41deaaf43c4f47e7dd883e0483"),
    ("ring3-si0-qb2", "7ea94e17217cb32b56585802403da5142423c5ed9ecb7581ae6a17ebdde13994"),
    ("ring3-si0-qb10", "c49d3dfe1493b648331757e2393795be2abd90e9d36accb6986949db98d71c21"),
    ("ring3-si1-qb1", "2ab42920570b5ccab1b8ddb3bc7509b56f89aa963c659fd899d389b0e287c85c"),
    ("ring3-si1-qb2", "1761cf415cf75c7925bd931ec8a881ad1fded206113a58f7468f145f38c2e3eb"),
    ("ring3-si1-qb10", "177b67d858b1c20c7c430f55417f5bb59239eed3e3310e8032ce08431c813172"),
    ("star3-si0-qb1", "387e03005f994aea5e1bd4860d3fe2455af1e898bcfe7f6da83af8ca7363746a"),
    ("star3-si0-qb2", "adb1723e7d1cb8db5fa8e34423a65f8c30cf5290011b67c0b0982f9e62ade095"),
    ("star3-si0-qb10", "6326e311c6fa1df1b3e18750c0576e1934be916f592e01c164f4c4ab0f074152"),
    ("star3-si1-qb1", "e388b2fa24e43e22c4bb3a6b9f2d5f74f9e92cf0e9ffd49dd326dc1665a67a46"),
    ("star3-si1-qb2", "227548b625f4e47d5b8dda648b9adf2bea5365005b3ff5db2db5cac0f7818f96"),
    ("star3-si1-qb10", "8613d77a27c92fe43836818d2f4ef6a871380ff28eb89af8832ac440a861f027"),
    ("star4-si0-qb1", "c577739122143afff2fcfb331176cc79512f7eb376c9b99dde906b38a89760e9"),
    ("star4-si0-qb2", "6313f4093a731e90db996b7b1ef38a73846554cb6df74d1a742b03bf1242c325"),
    ("star4-si0-qb10", "3fc57b96f0206ed4dcf4f109f168890d7f62811c5ffe40a59488b4bcdbec026e"),
    ("star4-si1-qb1", "060f2af090d988866d69911b39b98d097e804b222cc352734fabbbfff9202efd"),
    ("star4-si1-qb2", "49004f7884b50414074da22126b71a767b721b76b73135c0a0cf49a9dd59109a"),
    ("star4-si1-qb10", "6ea2a55549dbd43cff403baf7f89b245a2ae7ec7a5f58b3281539a887b9bfe18"),
    ("line2-si1-age2", "33a29818f502bf5318906e82d442165a5bbdd7e81663235d0a6b70ac0ed0c5d7"),
    ("line2-si1-ts2", "c18611955127a99053112c7fd8d7ca2cb06ce6325c955a585babbd68d11a8b14"),
    ("line3-si1-age2", "431d77127f0e08ca77383f0b1f3dc990172af5fa61c86292ece3095d5626f20a"),
    ("line3-si1-ts2", "1584edd0a8bce720527252a541b1328ded61c2721f7fa318cd5dbdfa4dee463f"),
    ("ring3-si1-age2", "bbf0d7da67d4f3597042ca589c7cc08c290d0ff78fb58c3a8265557d46685335"),
    ("ring3-si1-ts2", "b2dfbbbb1472a04062e2900d2a8a8273657c76b9f13986a844e68170f17f2593"),
    ("star3-si1-age2", "9091d7229edf63476c26f1d5bdff4ace3cb65f4bffeb47e29d2f9024064c89d8"),
    ("star3-si1-ts2", "1584edd0a8bce720527252a541b1328ded61c2721f7fa318cd5dbdfa4dee463f"),
    ("star4-si1-age2", "7c51b74332cfeb27e24156c65a770a04b7125bc89fe04151f47f1c14a9e39bce"),
    ("star4-si1-ts2", "1b07ef108b11aca18e2445a285424a2c941a0bf30c8f026e88ff246b47743e14"),
    ("line2-si2-ts3-budget", "bd2a5bd85db7facbe521ad91ec01a3fe2ee1ffaf8dcd9b0f09222638dbf4eb82"),
    ("line3-si2-ts3-budget", "30fe0b57e98d43ffa60853dc2f4a0d4676f7a82be8012fcdcfc2b9789711e8c5"),
    ("ring3-si2-ts3-budget", "dbe6531ac36e9ee2661bd35c37ab12fcf48178f9a3f6590e3a500d1f6149d861"),
    ("star3-si2-ts3-budget", "30fe0b57e98d43ffa60853dc2f4a0d4676f7a82be8012fcdcfc2b9789711e8c5"),
    ("star4-si2-ts3-budget", "d7ccc058d3395767bc69d08846a143982be43cb69e8d3feaafb67535ad6984df"),
    ("line2-dead5", "2638ac52a1f26f588bd259d5f38c77e770ea788ff1e4d04d1c6276bf75d5a257"),
])


def test_explore_digests_are_pinned():
    got, statuses = {}, Counter()
    for case, (name, kw) in EXPLORE_CASES.items():
        cfg = ExploreConfig(topology=EXPLORE_TOPOLOGIES[name], **kw)
        v = explore(cfg)
        statuses[v.status] += 1
        text = repr(v)
        if v.counterexample is not None:
            events, violations = replay(cfg, v.counterexample)
            text += "".join(f"\n{e.tick} {e.node} {e.kind} "
                            f"{sorted(e.detail.items())}" for e in events)
            text += "".join(f"\n{x!r}" for x in violations)
        got[case] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_EXPLORE_DIGESTS
    assert statuses == {"pass": 21, "violation": 24, "inconclusive": 1}


def test_pinned_star4_counterexample():
    v = explore(ExploreConfig(topology=star(4), start_interval=2))
    assert v.status == "violation"
    ce = v.counterexample
    assert ce.violation.prop == "P1" and ce.at_tick == 7
    assert ce.boot_offsets == {1: 0, 2: 0, 3: 0, 4: 0}
    assert [" ".join(c) for c in ce.choices] == [
        "T T T T", "M M M M", "M M - -", "M M - -", "M M M -", "M - M -",
        "M M M M",
    ]


def test_pinned_ring3_p3_counterexample():
    # with age bound 2 every second own LSA is a jump of half the bound:
    # each node's install at tick 3 crosses the wrap window
    cfg = ExploreConfig(topology=ring(3), age_bound=2, start_interval=0)
    v = explore(cfg)
    p3 = [Violation("P3", f"origin {ip}: age 1 -> 2 crosses the wrap window",
                    node=ip) for ip in (1, 2, 3)]
    ce = Counterexample({1: 0, 2: 0, 3: 0},
                        [("T", "T", "T"), ("M", "M", "M"), ("M", "M", "M")],
                        p3[0], 3)
    assert verdict_fields(v) == (
        "violation", 3, 3, 2, (1, 1, 1), None, ce, p3[0].detail)
    assert v.lines()[:2] == [
        "EXPLORE VIOLATION states=3 max_queue=3 depth=2",
        "counterexample: P3 at tick 3 (origin 1: age 1 -> 2 crosses the wrap "
        "window); boot offsets 1:0 2:0 3:0",
    ]
    # the replay meets every node's P3 of that tick, in ip order
    assert replay(cfg, ce)[1] == p3


@pytest.mark.parametrize("cfg", [
    LINE3_SI2,
    ExploreConfig(topology=ring(3), start_interval=3),
], ids=["line3-si2", "ring3-si3"])
def test_store_identity_does_not_rest_on_the_hash(cfg, monkeypatch):
    # with every record hashed alike, every probe meets every state, so
    # only the whole-record comparison tells states apart
    expected = verdict_fields(explore(cfg))
    monkeypatch.setattr(explorer, "hash", lambda rec: 0, raising=False)
    assert verdict_fields(explore(cfg)) == expected


def test_store_counterexample_does_not_rest_on_the_hash(monkeypatch):
    cfg = ExploreConfig(topology=star(4), start_interval=2)
    expected = explore(cfg)
    monkeypatch.setattr(explorer, "hash", lambda rec: 0, raising=False)
    v = explore(cfg)
    assert verdict_fields(v) == verdict_fields(expected)
    assert replay(cfg, v.counterexample) == replay(cfg, expected.counterexample)


def test_store_width_edge_cases():
    # on one node the root's record is all zeros and the next state has
    # one flight, of id 0, which only the flight count tells from the
    # padding; a budget stop leaves the store part-filled
    v = explore(ExploreConfig(topology=Topology(1, frozenset()),
                              start_interval=2))
    assert (v.status, v.states, v.longest_path, v.frontier_sizes) == (
        "pass", 2, 1, (1,))
    v = explore(dataclasses.replace(LINE3_SI2, max_states=500))
    assert (v.status, v.states, v.depth_reached) == ("inconclusive", 501, 12)
