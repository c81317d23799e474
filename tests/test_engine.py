import pytest

from ospfsim.core import NeighborState
from ospfsim.engine import (
    ConfigError,
    EngineConfig,
    SimState,
    converged,
    render_trace,
    run,
)
from ospfsim.topology import Topology, line, parse_topology, ring, star, TopologyError


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
    sim, trace, verdict = run(cfg, line(2))
    assert verdict.kind == "timed_out"
    assert all(e.kind != "deliver" for e in trace)
    assert all(len(sim.nodes[ip].state.nbrs) == 0 for ip in (1, 2))


def test_isolated_node_broadcasts_to_nobody():
    topo = Topology(1, frozenset())
    sim, trace, verdict = run(EngineConfig(model="simple", max_ticks=30), topo)
    assert verdict.kind == "converged"
    assert all(e.kind != "deliver" for e in trace)
    sends = [e for e in trace if e.kind == "send"]
    assert all(e.detail["recipients"] == [] for e in sends)


def test_two_node_detailed_documented_trace():
    sim, trace, verdict = run(EngineConfig(model="detailed"), line(2))
    assert verdict.kind == "converged"
    assert verdict.at_tick == 19
    assert verdict.counts == {"hello": 4, "dbd": 5, "req": 0, "upd": 4, "ack": 4}


def test_two_node_simple_final_databases():
    sim, trace, verdict = run(EngineConfig(model="simple"), line(2))
    assert verdict.kind == "converged"
    assert sim.nodes[1].state.lsdb.get(2).links == {1}
    assert sim.nodes[1].state.lsdb.get(1).links == {2}
    assert sim.nodes[2].state.lsdb.get(1).links == {2}


def test_three_node_line_middle_links_both_ends():
    sim, trace, verdict = run(EngineConfig(model="simple"), line(3))
    assert verdict.kind == "converged"
    for ip in (1, 2, 3):
        assert sim.nodes[ip].state.lsdb.get(2).links == {1, 3}


def test_converged_predicate():
    topo = line(2)
    sim = SimState(EngineConfig(model="detailed"), topo)
    sim.tick()
    assert not converged(sim, topo)
    single = Topology(1, frozenset())
    fresh = SimState(EngineConfig(model="simple"), single)
    assert not converged(fresh, single)  # not booted yet
    fresh.tick()
    assert converged(fresh, single)
    sim2, _, verdict = run(EngineConfig(model="detailed"), topo)
    assert verdict.kind == "converged" and converged(sim2, topo)
    for me, peer in ((1, 2), (2, 1)):
        entry = sim2.nodes[me].state.nbrs.get(peer)
        assert entry.ns == NeighborState.FULL
        assert not entry.req_list and not len(entry.rxmt_list)


def test_guaranteed_receipt_and_fifo():
    cfg = EngineConfig(model="detailed")
    sim, trace, verdict = run(cfg, line(3))
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


def test_identical_seed_identical_trace():
    for loss, model in ((0.0, "simple"), (0.3, "detailed")):
        cfg = lambda: EngineConfig(model=model, loss_prob=loss, seed=42,
                                   max_ticks=400)
        _, one, v1 = run(cfg(), line(3))
        _, two, v2 = run(cfg(), line(3))
        assert render_trace(one) == render_trace(two)
        assert v1 == v2


def test_queue_overflow_verdict():
    cfg = EngineConfig(model="simple", queue_capacity=1)
    sim, trace, verdict = run(cfg, line(3))
    assert verdict.kind == "queue_overflow"
    assert verdict.node == 2 and verdict.at_tick == 1
    assert verdict.line() == "OVERFLOW node=2 tick=1"


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(model="simple", loss_prob=0.2).validate()
    with pytest.raises(ConfigError):
        EngineConfig(loss_prob=1.5).validate()
    with pytest.raises(ConfigError):
        EngineConfig(boot_offsets={1: -1}).validate()
    with pytest.raises(ConfigError):
        EngineConfig(model="both").validate()
    EngineConfig(model="detailed", loss_prob=0.2).validate()


def test_boot_offsets_delay_boot():
    cfg = EngineConfig(model="simple", boot_offsets={2: 5})
    sim, trace, verdict = run(cfg, line(2))
    boots = {e.node: e.tick for e in trace if e.kind == "boot"}
    assert boots == {1: 0, 2: 5}
    drops = [e for e in trace if e.kind == "drop"]
    assert any(e.detail["reason"] == "not_booted" for e in drops)
    assert verdict.kind == "converged"


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
    assert tf.adj_pairs == {(1, 2), (2, 3)}
    assert tf.boot_offsets == {3: 4}
    assert tf.overrides == {"hellointvl": 10, "loss_prob": 0.1, "seed": 9}


@pytest.mark.parametrize("text,lineno", [
    ("nodes 2\nedge 1 3\n", 2),
    ("edge 1 2\n", 1),
    ("nodes 2\nedge 1 1\n", 2),
    ("nodes 2\nfanout 3\n", 2),
    ("nodes 0\n", 1),
    ("nodes 2\nboot 1 -3\n", 2),
])
def test_parse_topology_errors_carry_line_numbers(text, lineno):
    with pytest.raises(TopologyError) as err:
        parse_topology(text)
    assert err.value.lineno == lineno


def test_unknown_key_lists_valid_keys():
    with pytest.raises(TopologyError) as err:
        parse_topology("nodes 2\nfanout 3\n")
    assert "valid keys" in str(err.value)
    assert "hellointvl" in str(err.value)


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
