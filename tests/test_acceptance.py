"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single pass/fail line (run with ``pytest -s`` to see them
on passing runs).

Criterion 2 applies its bound, ``5 * diameter * hellointvl``, to LSDB
convergence: the earliest tick from which every node holds exactly
``topo.neighbors(j)`` for every node ``j`` and keeps holding it until
the verdict, replayed from the ``lsa_install`` events of the trace.
The bound grows with hop count only, so it describes how fast link
state propagates.  The verdict tick also waits for the hub of a star
to drain its acknowledgement backlog one message per tick, so the
case must still converge, and the tail between the two ticks must be
bookkeeping only: the replay at the verdict equals the final LSDBs, no
adjacency leaves Full and no entry changes its links.  The two ticks
for every case and the evidence are in docs/criterion2_star_tail.md;
docs/two_node_reconciliation.md documents the criterion-1 count.
"""

import itertools
import os
import random
import time

import pytest

from ospfsim.core import Lsa, NeighborState
from ospfsim.detailed import dbd_branch
from ospfsim.engine import ConfigError, EngineConfig, render_trace, run
from ospfsim.explorer import ExploreConfig, explore
from ospfsim.lsdb import install, newer_age
from ospfsim.topology import line, ring, star

HERE = os.path.dirname(__file__)
DOCS = os.path.join(HERE, os.pardir, "docs")

TOPOLOGIES = (
    [(f"line{n}", line(n)) for n in range(2, 7)]
    + [(f"ring{n}", ring(n)) for n in range(3, 7)]
    + [(f"star{n}", star(n)) for n in range(4, 7)]
)


def _report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_two_node_steady_state():
    started = time.time()
    sim, trace, verdict = run(EngineConfig(model="detailed"), line(2),
                              trace=True)
    elapsed = time.time() - started
    total = verdict.total_messages
    ok = verdict.kind == "converged" and elapsed < 1.0
    if total != 18:
        # the count differs from the quoted 18: the annotated trace and
        # the written reconciliation must ship with the build, and the
        # count must stay within the accepted window
        ok = ok and 14 <= total <= 22
        reconciliation = os.path.join(DOCS, "two_node_reconciliation.md")
        trace_file = os.path.join(DOCS, "two_node_trace.jsonl")
        ok = ok and os.path.exists(reconciliation) and os.path.exists(trace_file)
        with open(trace_file) as fh:
            ok = ok and fh.read() == render_trace(trace)
    _report(1, "two-node steady state", ok)
    assert ok, f"count={total} elapsed={elapsed:.3f}s"


def replay_lsdbs(topo, trace, upto):
    """Replay the ``lsa_install`` events of ``trace`` up to tick ``upto``.

    Returns ``(dbs, exact_from, link_changes)``: the replayed databases
    at ``upto`` (node -> origin -> Lsa); the earliest tick from which
    every node holds exactly ``topo.neighbors(j)`` for every ``j`` and
    keeps holding it through ``upto``, or None; and the ticks at which
    some stored entry changed its links.
    """
    expected = {j: topo.neighbors(j) for j in topo.nodes()}
    dbs = {ip: {} for ip in topo.nodes()}
    exact_from = None
    link_changes = []
    installs = (ev for ev in trace if ev.kind == "lsa_install" and ev.tick <= upto)
    for tick, group in itertools.groupby(installs, key=lambda ev: ev.tick):
        for ev in group:
            d = ev.detail
            lsa = Lsa(d["origin"], d["stamp"], frozenset(d["links"]))
            old = dbs[ev.node].get(lsa.origin)
            if old is not None and old.links != lsa.links:
                link_changes.append(tick)
            dbs[ev.node][lsa.origin] = lsa
        exact = all(
            dbs[ip].get(j) is not None and dbs[ip][j].links == expected[j]
            for ip in dbs
            for j in expected
        )
        if not exact:
            exact_from = None
        elif exact_from is None:
            exact_from = tick
    return dbs, exact_from, link_changes


def check_criterion_2(name, topo, model):
    """Run one convergence case; print its report line and return
    ``(ok, detail)``."""
    cfg = EngineConfig(model=model, max_ticks=4000)
    sim, trace, verdict = run(cfg, topo, trace=True)
    bound = 5 * topo.diameter() * cfg.hellointvl
    dbs, lsdb_at, link_changes = replay_lsdbs(topo, trace, verdict.at_tick)
    ok = verdict.kind == "converged" and lsdb_at is not None and lsdb_at <= bound
    links_ok = all(
        sim.nodes[ip].state.lsdb.get(j) is not None
        and sim.nodes[ip].state.lsdb.get(j).links == topo.neighbors(j)
        for ip in topo.nodes()
        for j in topo.nodes()
    )
    # the tail between LSDB convergence and the verdict is bookkeeping
    replay_ok = dbs == {
        ip: {lsa.origin: lsa for lsa in sim.nodes[ip].state.lsdb}
        for ip in topo.nodes()
    }
    tail_start = lsdb_at if lsdb_at is not None else verdict.at_tick
    left_full = sum(
        1
        for ev in trace
        if ev.kind == "state_change"
        and tail_start < ev.tick <= verdict.at_tick
        and ev.detail["prev"] == NeighborState.FULL.label()
    )
    tail_link_changes = sum(1 for t in link_changes if t > tail_start)
    ok = ok and links_ok and replay_ok and not left_full and not tail_link_changes
    _report(2, f"convergence {name}/{model} lsdb@{lsdb_at} verdict@{verdict.at_tick}", ok)
    detail = (
        f"{name}/{model}: verdict={verdict.kind}@{verdict.at_tick} "
        f"lsdb@{lsdb_at} bound={bound} links_ok={links_ok} "
        f"replay_ok={replay_ok} left_full={left_full} "
        f"tail_link_changes={tail_link_changes}"
    )
    return ok, detail


@pytest.mark.parametrize("name,topo", TOPOLOGIES, ids=[n for n, _ in TOPOLOGIES])
@pytest.mark.parametrize("model", ("simple", "detailed"))
def test_criterion_2_convergence_suite(name, topo, model):
    ok, detail = check_criterion_2(name, topo, model)
    assert ok, detail


def test_criterion_2_star7_detailed_never_converges():
    # Known bad behaviour, pinned as it is today: the databases are exact
    # from tick 395, but the hub's adjacencies keep falling back from
    # Full until max_ticks.  See docs/criterion2_star_tail.md.
    ok, detail = check_criterion_2("star7", star(7), "detailed")
    assert not ok
    assert detail == (
        "star7/detailed: verdict=timed_out@4000 lsdb@395 bound=100 "
        "links_ok=True replay_ok=True left_full=32 tail_link_changes=0"
    )


def test_criterion_2_runtime_budget():
    started = time.time()
    for name, topo in TOPOLOGIES:
        for model in ("simple", "detailed"):
            run(EngineConfig(model=model, max_ticks=4000), topo)
    elapsed = time.time() - started
    ok = elapsed < 10.0
    _report(2, "convergence suite runtime", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


def test_criterion_3_loss_tolerance():
    budget = 50 * EngineConfig().hellointvl
    failures = []
    for seed in range(20):
        cfg = EngineConfig(model="detailed", loss_prob=0.2, seed=seed,
                           max_ticks=budget + 1)
        _, _, verdict = run(cfg, line(3))
        if verdict.kind != "converged" or verdict.at_tick > budget:
            failures.append((seed, verdict.kind, verdict.at_tick))
    with pytest.raises(ConfigError):
        EngineConfig(model="simple", loss_prob=0.2).validate()
    ok = not failures
    _report(3, "loss tolerance", ok)
    assert ok, f"failures: {failures}"


def test_criterion_4_install_oracle_equivalence():
    from ospfsim.core import Lsa, Lsdb

    rng = random.Random(1234)

    def random_db():
        picks = {}
        for origin in rng.sample(range(1, 5), rng.randint(0, 4)):
            links = frozenset(
                l for l in range(1, 5) if l != origin and rng.random() < 0.4
            )
            picks[origin] = Lsa(origin, rng.randint(0, 8), links)
        return Lsdb.of(picks.values())

    def oracle(stored, incoming):
        best = {lsa.origin: lsa for lsa in stored}
        for lsa in incoming:
            cur = best.get(lsa.origin)
            if cur is None or lsa.stamp > cur.stamp:
                best[lsa.origin] = lsa
        return Lsdb.of(best.values())

    ok = True
    for _ in range(10_000):
        stored, incoming = random_db(), random_db()
        if install(stored, incoming) != oracle(stored, incoming):
            ok = False
            break
    _report(4, "install oracle equivalence", ok)
    assert ok


def test_criterion_5_newer_age_law():
    ok = True
    for bound in (8, 16):
        for a, b in itertools.permutations(range(1, bound + 1), 2):
            circ = min(abs(a - b), bound - abs(a - b))
            if circ < bound / 2:
                if newer_age(a, b, bound) == newer_age(b, a, bound):
                    ok = False
        for x in range(0, bound + 1):
            if newer_age(0, x, bound) is not False:
                ok = False
            if x and newer_age(x, 0, bound) is not True:
                ok = False
    _report(5, "wrap-around age law", ok)
    assert ok


def test_criterion_6_dbd_guard_partition():
    ok = True
    grid = itertools.product(
        list(NeighborState),
        range(-2, 3),
        (False, True),
        ("slave", "master", "non-adjacent", "unknown"),
        (-1, 1),
    )
    for ns, rel, ibit, relation, ddt_off in grid:
        known = relation != "unknown"
        held = dbd_branch(
            known=known,
            ns=ns if known else None,
            sqn=5 + rel,
            ddsqn=5,
            ibit=ibit,
            is_slave=relation == "slave",
            is_master=relation == "master",
            dd_deadline=30 + ddt_off,
            now=30,
        )
        if len(held) != 1:
            ok = False
            break
    _report(6, "guard partition", ok)
    assert ok, f"offending input: {(ns, rel, ibit, relation, ddt_off)} -> {held}"


def test_criterion_7_explorer_soundness():
    started = time.time()
    cfg = ExploreConfig(topology=line(3), queue_bound=10, start_interval=10)
    verdict = explore(cfg)
    elapsed = time.time() - started
    assert verdict.status != "inconclusive", (
        f"exploration budget exhausted: {verdict.message}"
    )
    ok = (
        verdict.status == "pass"
        and verdict.max_queue_occupancy <= cfg.queue_bound
        and elapsed < 300.0
    )
    _report(7, "explorer soundness", ok)
    assert ok, f"{verdict.status}: {verdict.message} ({elapsed:.0f}s)"


def test_criterion_7_engine_schedule_inclusion():
    from ospfsim.explorer import (
        _Ctx, deterministic_choice, initial_state, state_converged, successors,
    )

    cfg = ExploreConfig(topology=line(3), queue_bound=10, start_interval=10)
    ctx = _Ctx(cfg)
    canon = initial_state(ctx, {1: 0, 2: 0, 3: 0})
    ok = False
    for _ in range(100):
        if state_converged(canon, ctx):
            ok = True
            break
        want = deterministic_choice(canon, ctx)
        step = {c: child for c, child, _ in successors(canon, ctx)}
        if want not in step:
            break
        canon = step[want]
    _report(7, "engine schedule inclusion", ok)
    assert ok


@pytest.mark.parametrize("name,topo", TOPOLOGIES, ids=[n for n, _ in TOPOLOGIES])
def test_criterion_8_model_agreement(name, topo):
    finals = {}
    for model in ("simple", "detailed"):
        sim, _, verdict = run(EngineConfig(model=model, max_ticks=4000), topo)
        assert verdict.kind == "converged", f"{name}/{model} did not converge"
        finals[model] = {
            ip: {lsa.origin: lsa.links for lsa in sim.nodes[ip].state.lsdb}
            for ip in topo.nodes()
        }
    ok = finals["simple"] == finals["detailed"]
    _report(8, f"model agreement {name}", ok)
    assert ok


def test_criterion_9_determinism():
    ok = True
    for name, topo in TOPOLOGIES:
        for model in ("simple", "detailed"):
            cfg = lambda: EngineConfig(model=model, seed=5, max_ticks=4000)
            _, one, _ = run(cfg(), topo, trace=True)
            _, two, _ = run(cfg(), topo, trace=True)
            if render_trace(one) != render_trace(two):
                ok = False
    _report(9, "determinism", ok)
    assert ok
