"""Engine properties over random connected topologies and boot offsets.

``random_case`` draws, in order: the node count n in 3..8, a parent for
each node 2..n (a random spanning tree), a count of 0..n extra edges,
each extra edge as two distinct nodes, and a boot offset in [0, 10) per
node.  It takes any ``random.Random``, so a failing case can be rebuilt
from a plain seed as well as from hypothesis.

The detailed model's LSDB-convergence bound is not asserted: it is
known to miss on some of these graphs (CHANGES.md lists the seeds).
"""

from hypothesis import given, settings, strategies as st

from ospfsim.engine import EngineConfig, run
from ospfsim.topology import Topology

from test_acceptance import replay_lsdbs

CASES = settings(max_examples=60, deadline=None, derandomize=True)
RNGS = st.randoms(use_true_random=False)


def random_case(rng):
    n = rng.randint(3, 8)
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
    sim, trace, verdict = run(cfg, topo)
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
    sim, trace, verdict = run(cfg, topo)
    dbs, _, _ = replay_lsdbs(topo, trace, sim.now)
    assert dbs == final_lsdbs(sim, topo), (topo, boots, model)
