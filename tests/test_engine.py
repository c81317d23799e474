import gc
import hashlib
import random
import tracemalloc

import pytest

from ospfsim.core import Hello, Lsa, NeighborState
from ospfsim.engine import (
    ConfigError,
    EngineConfig,
    SimState,
    TraceEvent,
    converged,
    parse_trace_line,
    run,
)
from ospfsim.explorer import ExploreConfig, explore, replay
from ospfsim.topology import (
    VALID_KEYS, Topology, TopologyError, line, parse_topology, ring, star,
)


def test_two_node_hello_exchange_timing():
    sim = SimState(EngineConfig(model="simple"), line(2))
    first = sim.tick()
    sends = [e for e in first if e.kind == "send"]
    assert [(e.node, e.detail["type"]) for e in sends] == [(1, "hello"), (2, "hello")]
    second = sim.tick()
    delivers = [e for e in second if e.kind == "deliver"]
    assert [(e.node, e.detail["from"]) for e in delivers] == [(1, 2), (2, 1)]


def test_total_loss_means_no_discovery():
    cfg = EngineConfig(model="detailed", loss_prob=1.0, max_ticks=60)
    sim, trace, verdict = run(cfg, line(2), trace=True)
    assert verdict.kind == "timed_out"
    assert all(e.kind != "deliver" for e in trace)
    assert all(len(sim.nodes[ip].state.nbrs) == 0 for ip in (1, 2))


def test_isolated_node_broadcasts_to_nobody():
    topo = Topology(1, frozenset())
    _, trace, verdict = run(EngineConfig(model="simple", max_ticks=30), topo,
                            trace=True)
    assert verdict.kind == "converged"
    assert all(e.kind != "deliver" for e in trace)
    sends = [e for e in trace if e.kind == "send"]
    assert all(e.detail["recipients"] == [] for e in sends)


def test_converged_predicate():
    topo = line(2)
    sim = SimState(EngineConfig(model="detailed"), topo)
    sim.tick()
    assert not converged(sim)
    single = Topology(1, frozenset())
    fresh = SimState(EngineConfig(model="simple"), single)
    assert not converged(fresh)  # not booted yet
    fresh.tick()
    assert converged(fresh)
    sim2, _, verdict = run(EngineConfig(model="detailed"), topo)
    assert verdict.kind == "converged" and converged(sim2)
    for me, peer in ((1, 2), (2, 1)):
        entry = sim2.nodes[me].state.nbrs.get(peer)
        assert entry.ns == NeighborState.FULL
        assert not entry.req_list and not len(entry.rxmt_list)


def test_guaranteed_receipt_and_fifo():
    cfg = EngineConfig(model="detailed")
    _, trace, verdict = run(cfg, line(3), trace=True)
    assert verdict.kind == "converged"
    sends = [e for e in trace if e.kind == "send"]
    delivers = [e for e in trace if e.kind == "deliver"]
    assert sum(len(e.detail["recipients"]) for e in sends) == len(delivers)
    # per (sender, recipient) pair, the delivery order equals the send order
    for sender in (1, 2, 3):
        for rcpt in (1, 2, 3):
            sent = [
                (e.tick, e.detail["type"]) for e in sends
                if e.node == sender and rcpt in e.detail["recipients"]
            ]
            got = [
                (e.tick, e.detail["type"]) for e in delivers
                if e.node == rcpt and e.detail["from"] == sender
            ]
            assert [k for _, k in sent] == [k for _, k in got]
            assert [t for t, _ in got] == sorted(t for t, _ in got)


def test_rxmt_lists_never_ahead_of_database():
    # flooded content is installed before or at emission, so every
    # queued retransmission has a same-or-newer copy in the owner's lsdb
    topo = ring(4)
    sim = SimState(EngineConfig(model="detailed"), topo)
    for _ in range(150):
        sim.tick()
        for ip in topo.nodes():
            state = sim.nodes[ip].state
            for entry in state.nbrs:
                for lsa in entry.rxmt_list:
                    stored = state.lsdb.get(lsa.origin)
                    assert stored is not None
                    assert stored.stamp >= lsa.stamp


def test_monotone_knowledge_under_losslessness():
    topo = ring(4)
    sim = SimState(EngineConfig(model="detailed"), topo)
    maxima = {ip: {} for ip in topo.nodes()}
    for _ in range(120):
        sim.tick()
        for ip in topo.nodes():
            for lsa in sim.nodes[ip].state.lsdb:
                prev = maxima[ip].get(lsa.origin, -1)
                assert lsa.stamp >= prev
                maxima[ip][lsa.origin] = lsa.stamp


def _seeded_boots(seed, n, boot_range):
    rng = random.Random(seed)
    return {ip: rng.randrange(boot_range) for ip in range(1, n + 1)}


# sha256 of the rendered lines + verdict.line(); any change to the
# engine or either model that moves a record moves a digest
PINNED_DIGESTS = [
    ("ring12-simple",
     EngineConfig(model="simple", boot_offsets=_seeded_boots(1, 12, 10)), ring(12),
     "230a5a49b095e4b0ec68918023a7d87a07af1d310a6adfccf040c6100a882861"),
    ("ring12-detailed",
     EngineConfig(model="detailed", boot_offsets=_seeded_boots(1, 12, 10)), ring(12),
     "f928adcc7843be3c52a30778becd5e9ecbad22790b03930b6e6845515031a4de"),
    ("star7-saturation",
     EngineConfig(model="detailed", boot_offsets=_seeded_boots(1, 7, 2),
                  max_ticks=600), star(7),
     "47bf02946f22b57050f4b839da84e3ce89acb29ca7b9de63501157c11b28d16c"),
    ("line3-loss-seed0",
     EngineConfig(model="detailed", loss_prob=0.3, seed=0), line(3),
     "bf27794f67dc9f1d0510754d7a6594d1ad181739fafdba5d48f37666caf11b59"),
    ("line3-loss-seed1",
     EngineConfig(model="detailed", loss_prob=0.3, seed=1), line(3),
     "192cddd5f937dff121108571f262ec70ebedadb85b0398277b9935824722819e"),
    ("line3-loss-seed2",
     EngineConfig(model="detailed", loss_prob=0.3, seed=2), line(3),
     "78ec92f796466165e3838e04837b97d9a1cf4347b7f9369c4b44cdf15bc5627c"),
    ("star5-simple-cap1",
     EngineConfig(model="simple", queue_capacity=1), star(5),
     "d769bf1b77ad104b3384bb3eb969c7b82dd5d76bc44febe1c821018292c25498"),
    ("star5-simple-cap3",
     EngineConfig(model="simple", queue_capacity=3), star(5),
     "d769bf1b77ad104b3384bb3eb969c7b82dd5d76bc44febe1c821018292c25498"),
    ("star5-simple-cap10",
     EngineConfig(model="simple", queue_capacity=10), star(5),
     "8e647d724d75c2884b6349e964e1d487be2bd6cc6eb4b4c60d65f775455ed281"),
]


def test_trace_digests_are_pinned():
    got = {}
    for name, config, topo, _ in PINNED_DIGESTS:
        _, trace, verdict = run(config, topo, trace=True)
        text = "".join(ev.render() + "\n" for ev in trace) + verdict.line()
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == {name: digest for name, _, _, digest in PINNED_DIGESTS}


def test_queue_overflow_verdict():
    cfg = EngineConfig(model="simple", queue_capacity=1)
    _, trace, verdict = run(cfg, line(3), trace=True)
    assert verdict.kind == "queue_overflow"
    assert verdict.node == 2 and verdict.at_tick == 1
    assert verdict.line() == "OVERFLOW node=2 tick=1"
    # the overflowing tick finishes, so its records are in the trace
    assert trace[-1].tick == 1


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(model="simple", loss_prob=0.2).validate()
    with pytest.raises(ConfigError):
        EngineConfig(loss_prob=1.5).validate()
    with pytest.raises(ConfigError):
        EngineConfig(boot_offsets={1: -1}).validate()
    with pytest.raises(ConfigError):
        EngineConfig(model="both").validate()
    with pytest.raises(ConfigError, match="max_ticks must be positive"):
        EngineConfig(max_ticks=0).validate()
    with pytest.raises(ConfigError, match="queue_capacity must be positive"):
        EngineConfig(queue_capacity=0).validate()
    EngineConfig(max_ticks=1, queue_capacity=1).validate()
    EngineConfig(model="detailed", loss_prob=0.2).validate()
    # the simple model has no adjacency policy, so a restriction would be
    # silently ignored
    restricted = Topology(2, frozenset({(1, 2)}))
    with pytest.raises(ConfigError, match="adj"):
        EngineConfig(model="simple", adjacency=restricted).validate()
    EngineConfig(model="detailed", adjacency=restricted).validate()


def test_every_lower_bound_of_one_is_accepted():
    keys = ("hellointvl", "rtdeadintvl", "rxmtintvl", "refreshintvl",
            "time_sending", "max_ticks", "queue_capacity")
    for key in keys:
        with pytest.raises(ConfigError, match=key):
            EngineConfig(**{key: 0}).validate()
    EngineConfig(**dict.fromkeys(keys, 1)).validate()


@pytest.mark.parametrize("model,time_sending,at_tick", [
    ("simple", 1, 20), ("simple", 2, 24), ("simple", 3, 39),
    ("detailed", 1, 63), ("detailed", 2, 95), ("detailed", 3, 169),
])
def test_a_longer_send_delays_convergence(model, time_sending, at_tick):
    # a message sent in tick t is delivered in tick t + time_sending
    cfg = EngineConfig(model=model, time_sending=time_sending,
                       boot_offsets=dict.fromkeys(range(1, 5), 0))
    verdict = run(cfg, ring(4))[2]
    assert (verdict.kind, verdict.at_tick) == ("converged", at_tick)


def test_a_non_hello_in_an_output_queue_holds_convergence_back():
    # random_case(random.Random(7), 2, 8) of test_random_topologies.py
    cfg = EngineConfig(model="simple", time_sending=2,
                       boot_offsets={1: 1, 2: 8, 3: 1, 4: 5})
    verdict = run(cfg, line(4))[2]
    assert (verdict.kind, verdict.at_tick) == ("converged", 39)
    assert sum(verdict.counts.values()) == 46
    sim = SimState(cfg, line(4))
    while sim.now <= 35:
        sim.tick()
    # at the end of tick 35 every database is exact, and nothing but
    # hellos is on a link or in an input queue; node 4 has yet to send
    # an update
    assert not converged(sim)
    rts = sim.nodes.values()
    assert all(rt.sending is None or isinstance(rt.sending.payload, Hello)
               for rt in rts)
    assert all(isinstance(m, Hello) for rt in rts for m in rt.inq)
    assert [ip for ip, rt in sim.nodes.items()
            if any(not isinstance(i.payload, Hello) for i in rt.outq)] == [4]


def test_simulation_refuses_adjacencies_that_split_a_component():
    # advertisements cross allowed adjacencies only, so node 3 of line(3)
    # under adj 1-2 alone would never learn node 1's links
    for pairs, topo in (([(1, 2)], line(3)), ([(1, 2), (3, 4)], ring(4))):
        cfg = EngineConfig(adjacency=Topology(topo.n, frozenset(pairs)))
        with pytest.raises(ConfigError, match=r"node 1 reaches only \[1, 2\]"):
            SimState(cfg, topo)
    # a restriction that leaves every component whole still runs
    chain = Topology(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    _, _, verdict = run(EngineConfig(adjacency=chain), ring(4))
    assert verdict.kind == "converged" and verdict.at_tick == 47


def test_converged_verdict_is_a_snapshot_without_liveness():
    # docs/dead_interval.md, section 1: simple line(3) at rtdeadintvl 8
    # goes on dropping and rediscovering neighbours after its verdict,
    # and the predicate the verdict rests on holds again only in short
    # bursts; the verdict has no liveness clause (ROADMAP item 5)
    cfg = EngineConfig(model="simple", hellointvl=10, rtdeadintvl=8,
                       max_ticks=3000)
    sim, _, verdict = run(cfg, line(3))
    assert (verdict.kind, verdict.at_tick) == ("converged", 192)
    held = [verdict.at_tick]
    while sim.now < 1000:
        sim.tick()
        if converged(sim):
            held.append(sim.now - 1)
    assert len(held) == 13
    assert held == [192, 208, 209, 392, 408, 409, 592, 608, 609, 792, 808,
                    809, 992]


def test_simple_short_dead_intervals_converge_with_a_newer_own_stamp_each_time():
    # docs/dead_interval.md, section 2: at rtdeadintvl 18 the star's hub
    # drops each spoke in the tick in which it handles that spoke's
    # queued hello, so it originates twice in one tick.  Stamped `now`
    # twice, install kept the first and the run timed out; with
    # own_stamp each instance is newer than the last, and these runs,
    # all of which timed out before, converge
    runs = {
        (name, dead): run(EngineConfig(model="simple", hellointvl=10,
                                       rtdeadintvl=dead, max_ticks=3000), topo,
                            trace=True)
        for name, topo in (("star4", star(4)), ("ring4", ring(4)))
        for dead in ((17, 18, 19) if name == "star4" else (11, 14, 15))
    }
    assert {key: verdict.line() for key, (_, _, verdict) in runs.items()} == {
        ("star4", 17): "CONVERGED tick=38 msgs=63 hello=16 dbd=9 req=0 upd=38 ack=0",
        ("star4", 18): "CONVERGED tick=42 msgs=71 hello=20 dbd=9 req=0 upd=42 ack=0",
        ("star4", 19): "CONVERGED tick=24 msgs=39 hello=12 dbd=6 req=0 upd=21 ack=0",
        ("ring4", 11): "CONVERGED tick=59 msgs=138 hello=24 dbd=20 req=0 upd=94 ack=0",
        ("ring4", 14): "CONVERGED tick=47 msgs=112 hello=20 dbd=16 req=0 upd=76 ack=0",
        ("ring4", 15): "CONVERGED tick=35 msgs=82 hello=16 dbd=12 req=0 upd=54 ack=0",
    }
    sim, trace, _ = runs[("star4", 18)]
    own = [(e.tick, e.detail["stamp"]) for e in trace
           if e.node == 1 and e.kind == "lsa_install" and e.detail["origin"] == 1]
    # two originations in each of ticks 20-22 push the stamp past `now`
    assert own[-3:] == [(20, 21), (21, 23), (22, 25)]
    hub = Lsa(1, 25, frozenset({2, 3, 4}))
    assert {ip: sim.nodes[ip].state.lsdb.get(1) for ip in star(4).nodes()} == {
        ip: hub for ip in star(4).nodes()}


def test_detailed_exchange_ignores_a_restart_below_its_sequence_number():
    # docs/dead_interval.md, section 3: nodes 3 and 4 drop and re-create
    # each other; node 3 then enters Exchange at sequence 4 from a restart
    # node 4 sent before the drop, takes node 4's new restart at sequence 1
    # for a duplicate, and node 4 drops node 3's re-sent reply
    cfg = EngineConfig(hellointvl=10, rtdeadintvl=14, max_ticks=3000)
    sim, trace, verdict = run(cfg, ring(4), trace=True)
    assert verdict.line() == "TIMEOUT"
    assert max(e.tick for e in trace if e.kind == "state_change") == 115
    to_3, to_4 = sim.nodes[4].state.nbrs.get(3), sim.nodes[3].state.nbrs.get(4)
    assert (to_3.ns, to_3.ddsqn) == (NeighborState.EX_START, 1)
    assert (to_4.ns, to_4.ddsqn) == (NeighborState.EXCHANGE, 4)


# the phases of one node's records within a tick: a node that boots was
# not booted when the tick's messages arrived, so its boot follows their drops
PHASES = ("deliver", "drop", "boot", "state_change", "lsa_install", "send")
# the detail field that orders the records of one kind at one node
ORDER_FIELD = {"deliver": "from", "drop": "from", "state_change": "nbr",
                "lsa_install": "origin"}


@pytest.mark.parametrize("topo", [ring(4), star(5)], ids=["ring4", "star5"])
def test_records_come_in_node_then_phase_order(topo):
    """Within a tick, records go by ascending node, within one node by
    phase, and within one phase by sender, neighbour or origin."""
    reasons = set()
    for seed in range(6):
        rng = random.Random(seed)
        boots = {ip: rng.randint(0, 4) for ip in topo.nodes()}
        cfg = EngineConfig(model="detailed", loss_prob=0.3, seed=seed,
                           boot_offsets=boots, max_ticks=2000)
        _, trace, verdict = run(cfg, topo, trace=True)
        assert verdict.kind == "converged"
        keys = [(ev.tick, ev.node, PHASES.index(ev.kind),
                 ev.detail.get(ORDER_FIELD.get(ev.kind), 0))
                for ev in trace[:-1]]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        reasons |= {ev.detail["reason"] for ev in trace if ev.kind == "drop"}
    assert reasons == {"loss", "not_booted"}


def test_records_round_trip_and_render_the_same_once_read():
    """Every kind of record parses back from its line to an equal
    record, and reading its detail does not change what it renders."""
    boots = {1: 0, 2: 3, 3: 1, 4: 6}
    lossy = EngineConfig(model="detailed", loss_prob=0.3, seed=2,
                         boot_offsets=boots, max_ticks=2000)
    _, detailed, _ = run(lossy, ring(4), trace=True)
    _, simple, _ = run(EngineConfig(model="simple"), line(3), trace=True)
    cfg = ExploreConfig(topology=line(3), start_interval=2, queue_bound=1)
    replayed, _ = replay(cfg, explore(cfg).counterexample)
    assert {ev.kind for ev in detailed} == {*PHASES, "converged"}
    assert {ev.detail["reason"] for ev in detailed if ev.kind == "drop"} == {
        "loss", "not_booted"}
    for trace in (detailed, simple, replayed):
        for ev in trace:
            text = ev.render()
            assert parse_trace_line(text) == ev
            assert isinstance(ev.detail, dict)
            assert ev.render() == text
            assert parse_trace_line(text) == ev
    # a record never equals what is not a record, and its repr shows it
    send = simple[1]
    assert send != send.render()
    assert repr(send) == (
        "TraceEvent(tick=0, node=1, kind='send', detail={'type': 'hello', "
        "'method': 'broadcast', 'recipients': [2]})")


def test_retained_record_memory_is_bounded():
    """A record keeps its raw values, not a built detail dict: a
    detailed ring(30) trace holds about 123 bytes per record (328 when
    every record held its detail), counting everything that deleting
    the trace frees, and as much after every detail has been read
    (about 346 when a read kept the dict it built)."""
    cfg = EngineConfig(model="detailed", boot_offsets=_seeded_boots(1, 30, 10))
    tracemalloc.start()
    try:
        _, trace, verdict = run(cfg, ring(30), trace=True)
        held = [tracemalloc.get_traced_memory()[0]]
        for ev in trace:
            ev.detail
        held.append(tracemalloc.get_traced_memory()[0])
        records = len(trace)
        del trace
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "converged"
    for per_record in [(h - freed) / records for h in held]:
        assert per_record < 160, per_record


def _live_records():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEvent)


def test_untraced_run_keeps_no_records():
    """Only a traced run keeps its records; an untraced one drops each
    tick's records once the tick is over.  Both models on ring(30) with
    seed-1 boots, as the benchmark's ring30 workload runs them, make
    22,208 records."""
    boots = _seeded_boots(1, 30, 10)
    configs = [EngineConfig(model=model, boot_offsets=boots)
               for model in ("simple", "detailed")]
    before = _live_records()
    traced = [run(cfg, ring(30), trace=True) for cfg in configs]
    assert _live_records() - before >= 18_000
    del traced
    before = _live_records()
    untraced = [run(cfg, ring(30)) for cfg in configs]
    assert all(trace is None and verdict.kind == "converged"
               for _, trace, verdict in untraced)
    assert _live_records() == before


def test_boot_offsets_delay_boot():
    cfg = EngineConfig(model="simple", boot_offsets={2: 5})
    _, trace, verdict = run(cfg, line(2), trace=True)
    boots = {e.node: e.tick for e in trace if e.kind == "boot"}
    assert boots == {1: 0, 2: 5}
    drops = [e for e in trace if e.kind == "drop"]
    assert any(e.detail["reason"] == "not_booted" for e in drops)
    assert verdict.kind == "converged"
    # an offset for a node that the topology lacks is refused, not dropped
    cfg = EngineConfig(model="simple", boot_offsets={9: 5, 0: 7})
    with pytest.raises(ConfigError,
                       match=r"nodes \[0, 9\], which the topology lacks"):
        run(cfg, line(2))


def test_stale_request_list_entry_holds_detailed_model_in_loading():
    # See docs/loading_stall.md.  Node 4 learns node 2's LSA from node 2
    # while (2,16) is still on its request list towards node 1; the next
    # update from node 1, fresh or not, must clean that list, or the
    # adjacency waits in Loading for the first own-LSA refresh.
    topo = Topology(4, frozenset({(1, 2), (1, 4), (2, 3), (2, 4)}))
    boots = {1: 0, 2: 6, 3: 6, 4: 9}
    verdicts = {
        model: run(EngineConfig(model=model, boot_offsets=boots), topo)[2]
        for model in ("simple", "detailed")
    }
    assert verdicts["simple"].kind == verdicts["detailed"].kind == "converged"
    assert verdicts["simple"].at_tick == 35
    assert verdicts["detailed"].at_tick == 78

    sim = SimState(EngineConfig(model="detailed", boot_offsets=boots), topo)
    while sim.now <= 40:
        sim.tick()
    node4 = sim.nodes[4].state
    towards_1 = node4.nbrs.get(1)
    assert node4.lsdb.get(2).stamp == 30
    assert towards_1.ns == NeighborState.FULL
    assert towards_1.req_list == frozenset()

    # the verdict does not wait for the refresh: it is the same with a
    # refresh interval five times longer
    for refresh in (1000, 5000):
        cfg = EngineConfig(model="detailed", boot_offsets={1: 0, 2: 9, 3: 0, 4: 7},
                           refreshintvl=refresh)
        assert run(cfg, ring(4))[2].at_tick == 74


@pytest.mark.parametrize("n,edges,message", [
    (0, (), "at least one node"),
    (2, ((2, 2),), "self-loop on node 2"),
    (2, ((1, 3),), r"edge \(1,3\) outside nodes 1..2"),
    (2, ((0, 1),), r"edge \(0,1\) outside nodes 1..2"),
])
def test_topology_rejects_bad_graphs(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Topology(n, frozenset(edges))
    Topology(1, frozenset())
    Topology(2, frozenset({(2, 1)}))


# --- topology files --------------------------------------------------------


GOOD = """\
# a three node chain
nodes 3
edge 1 2
edge 2 3   # second link
adj 1 2
adj 2 3
boot 3 4
hellointvl 10
loss_prob 0.1
seed 9
"""


def test_parse_topology_full_file():
    tf = parse_topology(GOOD)
    assert tf.topology.n == 3
    assert tf.topology.edges == {(1, 2), (2, 3)}
    assert tf.adjacency.edges == {(1, 2), (2, 3)}
    assert tf.boot_offsets == {3: 4}
    assert tf.overrides == {"hellointvl": 10, "loss_prob": 0.1, "seed": 9}


# one case per refusal in parse_topology: file text, line, message
PARSE_ERRORS = [
    ("nodes 2\nedge 1 3\n", 2, "node 3 outside 1..2"),
    ("edge 1 2\n", 1, "'nodes N' must come first"),
    ("nodes 2\nedge 1 1\n", 2, "self-loop on node 1"),
    ("nodes 2\nfanout 3\n", 2, "unknown key 'fanout'; valid keys: nodes, "
     "edge, adj, " + ", ".join(VALID_KEYS)),
    ("nodes 0\n", 1, "node count must be positive"),
    ("nodes 2\nboot 1 -3\n", 2, "boot tick must be non-negative"),
    ("nodes 2\nedge 1 x\n", 2, "expected a node id, got 'x'"),
    ("nodes\n", 1, "usage: nodes N"),
    ("nodes two\n", 1, "bad node count 'two'"),
    ("nodes 2\nedge 1\n", 2, "usage: edge i j"),
    ("nodes 2\nadj 1 2 1\n", 2, "usage: adj i j"),
    ("nodes 2\nadj 2 2\n", 2, "self-loop on node 2"),
    ("nodes 2\nadj 1 3\n", 2, "node 3 outside 1..2"),
    ("nodes 2\nboot 1\n", 2, "usage: boot i t"),
    ("nodes 2\nboot 1 soon\n", 2, "bad boot tick 'soon'"),
    ("nodes 2\nhellointvl\n", 2, "usage: hellointvl value"),
    ("nodes 2\nseed 1.5\n", 2, "bad value '1.5' for seed"),
    ("nodes 2\nloss_prob 0.1 0.2\n", 2, "usage: loss_prob value"),
    ("nodes 2\nloss_prob high\n", 2, "bad value 'high' for loss_prob"),
    ("# no nodes line\n", 0, "missing 'nodes N' directive"),
    ("nodes 3\nedge 1 3\nnodes 2\n", 3, "duplicate 'nodes N' directive"),
    ("nodes 2\nnodes 3\n", 2, "duplicate 'nodes N' directive"),
    ("nodes 2\nhellointvl 5\nhellointvl 7\n", 3,
     "duplicate 'hellointvl' setting"),
    ("nodes 2\nseed 1\nedge 1 2\nseed 1\n", 4, "duplicate 'seed' setting"),
    ("nodes 2\nboot 2 3\nboot 2 0\n", 3, "duplicate boot line for node 2"),
]


@pytest.mark.parametrize("text,lineno,message", PARSE_ERRORS, ids=[
    f"{text}-{lineno}" for text, lineno, _ in PARSE_ERRORS])
def test_parse_topology_errors_carry_line_numbers(text, lineno, message):
    with pytest.raises(TopologyError) as err:
        parse_topology(text)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


def test_repeated_pair_lines_name_the_same_pair():
    text = "nodes 2\nedge 1 2\nedge 2 1\nedge 1 2\nadj 1 2\nadj 1 2\nboot 1 3\n"
    parsed = parse_topology(text)
    assert parsed.topology.edges == {(1, 2)}
    assert parsed.adjacency.edges == {(1, 2)}
    assert parsed.boot_offsets == {1: 3}


def test_unknown_key_lists_valid_keys():
    with pytest.raises(TopologyError) as err:
        parse_topology("nodes 2\nfanout 3\n")
    assert "valid keys" in str(err.value)
    for key in ("nodes", "edge", "adj") + VALID_KEYS:
        assert key in str(err.value)


def test_generators_and_metrics():
    assert line(4).edges == {(1, 2), (2, 3), (3, 4)}
    assert ring(4).edges == {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert star(4).edges == {(1, 2), (1, 3), (1, 4)}
    assert line(5).diameter() == 4
    assert ring(6).diameter() == 3
    assert star(6).diameter() == 2
    assert line(3).neighbors(2) == {1, 3}
    assert line(3).component_of(1) == {1, 2, 3}
    two = Topology(3, frozenset({(1, 2)}))
    assert two.component_of(3) == {3}
