"""Engine properties over random connected topologies and boot offsets.

``random_case`` draws, in order: the node count n in 3..8, a parent for
each node 2..n (a random spanning tree), a count of 0..n extra edges,
each extra edge as two distinct nodes, and a boot offset in [0, 10) per
node.  It takes any ``random.Random``, so a failing case can be rebuilt
from a plain seed as well as from hypothesis.

On graphs of max degree 4 or less the detailed model must reach its
verdict before ``refreshintvl``, the first periodic own-LSA refresh: a
verdict that comes only after it means some adjacency waited for the
refresh to move on.  Higher degrees are left out, because hub
saturation makes the detailed model late or time out there (see
docs/criterion2_star_tail.md).  Twelve seeds that used to hit the
Loading stall of docs/loading_stall.md are checked explicitly.

The detailed model's LSDB-convergence bound is not asserted: it is
known to miss on some of these graphs (CHANGES.md lists the seeds).

``converged`` checks every node's entries for its own component only.
The per-origin agreement between nodes that it used to check as well
stays here as an oracle, on graphs that may be disconnected.

On connected graphs of 2 to 4 nodes the explorer, following the engine
schedule, and the engine's simple model must end with the same links.

On connected graphs of 2 to 6 nodes a run that keeps no trace must end
with the verdict and node states of the same run with its trace kept.
On the same graphs the simple model keeps every neighbour record at
2-Way with no detailed bookkeeping, and advertises exactly its
neighbours, after every tick.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ospfsim.core import Neighbor, NeighborState
from ospfsim.engine import EngineConfig, SimState, converged, run
from ospfsim.explorer import ExploreConfig
from ospfsim.topology import Topology

from test_acceptance import replay_lsdbs
from test_explorer import engine_schedule_path

CASES = settings(max_examples=60, deadline=None, derandomize=True)
RNGS = st.randoms(use_true_random=False)


def random_case(rng, low=3, high=8):
    n = rng.randint(low, high)
    edges = {(rng.randint(1, i - 1), i) for i in range(2, n + 1)}
    for _ in range(rng.randint(0, n)):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    boots = {ip: rng.randint(0, 9) for ip in range(1, n + 1)}
    return Topology(n, frozenset(edges)), boots


def final_lsdbs(sim, topo):
    return {
        ip: {lsa.origin: lsa for lsa in sim.nodes[ip].state.lsdb}
        for ip in topo.nodes()
    }


@CASES
@given(RNGS)
def test_simple_model_lsdbs_exact_within_the_criterion_2_bound(rng):
    topo, boots = random_case(rng)
    cfg = EngineConfig(model="simple", boot_offsets=boots, max_ticks=3000)
    _, trace, verdict = run(cfg, topo, trace=True)
    assert verdict.kind == "converged", (topo, boots, verdict.line())
    _, exact_from, _ = replay_lsdbs(topo, trace, verdict.at_tick)
    bound = 5 * topo.diameter() * cfg.hellointvl
    assert exact_from is not None and exact_from <= bound, (topo, boots, exact_from)


@CASES
@given(RNGS, st.sampled_from(["simple", "detailed"]))
def test_replayed_installs_equal_the_final_lsdbs(rng, model):
    # the trace diff skips databases left as the same object; a skipped
    # change would show here as a replay that falls behind the state
    topo, boots = random_case(rng)
    cfg = EngineConfig(model=model, boot_offsets=boots, max_ticks=300)
    sim, trace, verdict = run(cfg, topo, trace=True)
    dbs, _, _ = replay_lsdbs(topo, trace, sim.now)
    assert dbs == final_lsdbs(sim, topo), (topo, boots, model)


# seeds of random_case whose max-degree-4 graph got its detailed verdict
# only after the first own-LSA refresh while a stale request-list entry
# held an adjacency in Loading (docs/loading_stall.md); the hypothesis
# examples below do not happen to draw any of them
LOADING_STALL_SEEDS = (1, 23, 34, 59, 112, 129, 145, 154, 191, 195, 276, 293)


def check_detailed_verdict_before_refresh(topo, boots):
    if max(len(topo.neighbors(ip)) for ip in topo.nodes()) > 4:
        return
    cfg = EngineConfig(model="detailed", boot_offsets=boots,
                       max_ticks=EngineConfig.refreshintvl)
    _, _, verdict = run(cfg, topo)
    assert verdict.kind == "converged", (topo, boots, verdict.line())


@CASES
@given(RNGS)
def test_detailed_model_verdict_before_refresh_on_max_degree_4(rng):
    check_detailed_verdict_before_refresh(*random_case(rng))


@pytest.mark.parametrize("seed", LOADING_STALL_SEEDS)
def test_detailed_model_verdict_before_refresh_on_loading_stall_seeds(seed):
    check_detailed_verdict_before_refresh(*random_case(random.Random(seed)))


def random_graph(rng):
    """Like ``random_case`` without the spanning tree, so the graph may
    be disconnected and may have isolated nodes."""
    n = rng.randint(2, 8)
    edges = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
             for _ in range(rng.randint(0, n + 1))}
    boots = {ip: rng.randint(0, 9) for ip in range(1, n + 1)}
    return Topology(n, frozenset(edges)), boots


def origins(lsdb):
    return {lsa.origin for lsa in lsdb}


def origins_agree_within_components(sim, topo):
    """The pass ``converged`` used to make after its exact-links pass:
    two nodes of one component hold the same links for every origin
    that both of them know."""
    for ip in topo.nodes():
        for other in topo.component_of(ip):
            if other <= ip:
                continue
            db_a = sim.nodes[ip].state.lsdb
            db_b = sim.nodes[other].state.lsdb
            for origin in origins(db_a) & origins(db_b):
                if db_a.get(origin).links != db_b.get(origin).links:
                    return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(RNGS, st.sampled_from(["simple", "detailed"]))
def test_converged_implies_agreement_on_every_shared_origin(rng, model):
    topo, boots = random_graph(rng)
    sim = SimState(EngineConfig(model=model, boot_offsets=boots), topo)
    for _ in range(250):
        sim.tick()
        # advertisements travel along edges only, so every origin a
        # node holds lies in its component; this is why the exact-links
        # pass of converged covers the agreement
        for ip in topo.nodes():
            assert origins(sim.nodes[ip].state.lsdb) <= topo.component_of(ip)
        if converged(sim):
            assert origins_agree_within_components(sim, topo), (topo, boots, sim.now)


@CASES
@given(RNGS)
def test_explorer_engine_schedule_and_simple_model_end_with_the_same_links(rng):
    # Only the final links are compared.  The explorer requests and
    # serves on age ties and the simple model does not
    # (docs/explorer_vs_simple.md), so message counts and convergence
    # ticks differ.  Both queue bounds are lifted: under the paper's
    # bound of 10 the two disagree on overflow (CHANGES.md).
    topo, boots = random_case(rng, 2, 4)
    cfg = ExploreConfig(topology=topo, queue_bound=10**9)
    _, nodes = engine_schedule_path(cfg, boots)
    explorer_links = {
        ip: {origin: frozenset(links) for origin, _, links in node[4]}
        for ip, node in zip(topo.nodes(), nodes)
    }
    sim, _, verdict = run(EngineConfig(model="simple", boot_offsets=boots), topo)
    assert verdict.kind == "converged", (topo, boots, verdict.line())
    engine_links = {
        ip: {lsa.origin: lsa.links for lsa in sim.nodes[ip].state.lsdb}
        for ip in topo.nodes()
    }
    assert explorer_links == engine_links, (topo, boots)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(RNGS, st.sampled_from(["simple", "detailed"]),
       st.one_of(st.none(), st.integers(1, 8)), st.integers(20, 300))
def test_untraced_run_agrees_with_traced_run(rng, model, capacity, max_ticks):
    # boot offsets lie in [0, hellointvl); small capacities end some
    # runs in a queue overflow and short budgets end some in a timeout
    topo, boots = random_case(rng, 2, 6)
    cfg = EngineConfig(model=model, boot_offsets=boots, queue_capacity=capacity,
                       max_ticks=max_ticks)
    sim, trace, verdict = run(cfg, topo)
    traced_sim, records, traced_verdict = run(cfg, topo, trace=True)
    assert trace is None and records
    assert verdict == traced_verdict, (topo, boots, model, capacity, max_ticks)
    assert {ip: rt.state for ip, rt in sim.nodes.items()} == {
        ip: rt.state for ip, rt in traced_sim.nodes.items()}


@CASES
@given(RNGS)
def test_simple_model_neighbours_stay_two_way_and_are_advertised(rng):
    topo, boots = random_case(rng, 2, 6)
    sim = SimState(EngineConfig(model="simple", boot_offsets=boots), topo)
    for _ in range(400):
        sim.tick()
        for ip in topo.nodes():
            state = sim.nodes[ip].state
            for n in state.nbrs:
                assert n == Neighbor(n.nip, NeighborState.TWO_WAY,
                                     n.inact_deadline), (topo, boots, sim.now)
            # no neighbour expires on these lossless runs, so a node
            # without neighbours has never advertised
            own = state.lsdb.get(ip)
            links = None if own is None else own.links
            assert links == (state.nbrs.nips() or None), (topo, boots, sim.now, ip)
