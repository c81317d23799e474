import hashlib
import itertools
import random

import pytest

from ospfsim.core import (
    Ack,
    Dbd,
    Lsa,
    LsaHeader,
    Lsdb,
    Neighbor,
    NeighborState,
    NodeState,
    ProtocolConfig,
    Req,
    Upd,
)
from ospfsim.detailed import (
    dbd_branch,
    detailed_timers,
    handle_ack,
    handle_dbd_detailed,
    handle_hello_detailed,
    handle_message_detailed,
    handle_req_detailed,
    handle_upd_detailed,
    snmis,
)
from ospfsim.neighbors import NbrTable
from ospfsim.topology import Topology

A, B, C = 1, 2, 3
NS = NeighborState
CFG = ProtocolConfig()
# every pair of A, B and C may become adjacent
ADJ = Topology(3, frozenset({(A, B), (A, C), (B, C)}))


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def node(ip=A, nbrs=(), lsdb=None, hellot=0):
    return NodeState(
        ip=ip,
        nbrs=NbrTable.of(nbrs),
        lsdb=lsdb if lsdb is not None else Lsdb(),
        hellot=hellot,
    )


def nbr(nip, ns=NS.INIT, **kw):
    return Neighbor(nip=nip, ns=ns, **kw)


def test_adjacency_is_symmetric():
    adj = Topology(3, frozenset({(B, A)}))
    assert adj.connected(A, B) and adj.connected(B, A)
    assert not adj.connected(A, C)
    assert ADJ.connected(A, C)


# --- hello ---------------------------------------------------------------


def test_hello_init_adjacent_starts_exchange():
    before = node(nbrs=[nbr(B, NS.INIT)])
    st, ems = handle_hello_detailed(before, frozenset({A}), B, 11, ADJ, CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.EX_START
    assert entry.ddsqn == 1
    assert entry.dd_deadline == 11 + CFG.rxmtintvl
    assert entry.inact_deadline == 11 + CFG.rtdeadintvl
    assert len(ems) == 1
    assert ems[0].payload == Dbd(frozenset(), 1, True, A)
    assert ems[0].dests == {B}


def test_hello_unknown_sender_creates_then_dispatches():
    st, ems = handle_hello_detailed(node(), frozenset({A}), B, 11, ADJ, CFG)
    assert st.nbrs.get(B).ns == NS.EX_START
    assert len(ems) == 1


def test_hello_not_listed_resets_to_init():
    before = node(nbrs=[nbr(B, NS.FULL, ddsqn=4, rxmt_list=db((A, 1, ())))])
    st, ems = handle_hello_detailed(before, frozenset({C}), B, 11, ADJ, CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.INIT
    assert entry.req_list == frozenset() and len(entry.rxmt_list) == 0
    assert entry.ddsqn == 4
    assert ems == []


def test_hello_established_adjacency_only_refreshes_deadline():
    before = node(nbrs=[nbr(B, NS.LOADING, req_list=frozenset({LsaHeader(C, 1)}))])
    st, ems = handle_hello_detailed(before, frozenset({A}), B, 11, ADJ, CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.LOADING and entry.inact_deadline == 61
    assert ems == []


def test_hello_non_adjacent_goes_two_way():
    pol = Topology(2, frozenset())
    before = node(nbrs=[nbr(B, NS.INIT)])
    st, ems = handle_hello_detailed(before, frozenset({A}), B, 11, pol, CFG)
    assert st.nbrs.get(B).ns == NS.TWO_WAY and ems == []


# --- database description guards ----------------------------------------


# sha256 over the partition grid of the branch each input takes and the
# repr of the handler's (state, emissions) on a two-node state built from
# it; swapping two guards, or changing what a branch does, changes it
DBD_GRID_SHA256 = "72f4769fdf222abd4d7309ef8f872923619e6a42b4560cfc92c59a11bbe14b13"


def test_dbd_branch_and_handler_grid_is_pinned():
    no_adj = Topology(2, frozenset())
    records = []
    for known, ns, rel, ibit, relation, ddt_off in itertools.product(
        (False, True),
        list(NS),
        range(-2, 3),
        (False, True),
        ("slave", "master", "non-adjacent"),
        (-1, 1),
    ):
        ddsqn, now = 5, 20
        [branch] = dbd_branch(
            known=known,
            ns=ns if known else None,
            sqn=ddsqn + rel,
            ddsqn=ddsqn,
            ibit=ibit,
            is_slave=relation == "slave",
            is_master=relation == "master",
            dd_deadline=now + ddt_off,
            now=now,
        )
        me, sip = (B, A) if relation == "master" else (A, B)
        entry = nbr(sip, ns, ddsqn=ddsqn, dd_deadline=now + ddt_off)
        before = node(ip=me, nbrs=[entry] if known else [],
                      lsdb=db((me, 1, {sip}), (C, 2, ())))
        adj = no_adj if relation == "non-adjacent" else ADJ
        # with no newer header the exchange can finish; with one it loads
        for hdrs in (frozenset(), frozenset({LsaHeader(C, 3)})):
            result = handle_dbd_detailed(
                before, hdrs, ddsqn + rel, ibit, sip, now, adj, CFG
            )
            records.append(f"{branch} {result!r}")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == DBD_GRID_SHA256


def test_dbd_negotiate_slave():
    # two-node session, this node has the smaller id so it is the slave
    before = node(ip=A, nbrs=[nbr(B, NS.EX_START, ddsqn=1, dd_deadline=15)])
    st, ems = handle_dbd_detailed(
        before, frozenset(), sqn=1, ibit=True, sip=B, now=12, adj=ADJ, cfg=CFG
    )
    entry = st.nbrs.get(B)
    assert entry.ns == NS.EXCHANGE
    assert entry.ddsqn == 1  # adopted from the message, not incremented
    assert entry.dd_deadline == 15  # slave leaves the timer alone
    assert len(ems) == 1
    assert ems[0].payload == Dbd(frozenset(), 1, False, A)


def test_dbd_negotiate_master_then_full_on_reply():
    master = node(ip=B, nbrs=[nbr(A, NS.EX_START, ddsqn=1)])
    st, ems = handle_dbd_detailed(
        master, frozenset(), sqn=1, ibit=False, sip=A, now=13, adj=ADJ, cfg=CFG
    )
    entry = st.nbrs.get(A)
    assert entry.ns == NS.EXCHANGE and entry.ddsqn == 2
    assert entry.dd_deadline == 13 + CFG.rxmtintvl
    assert ems[0].payload == Dbd(frozenset(), 2, False, B)
    # the slave's echo with matching number finishes the exchange
    st, ems = handle_dbd_detailed(
        st, frozenset(), sqn=2, ibit=False, sip=A, now=15, adj=ADJ, cfg=CFG
    )
    entry = st.nbrs.get(A)
    assert entry.ns == NS.FULL
    assert st.lsdb.get(B) == Lsa(B, 15, frozenset({A}))
    assert len(ems) == 1 and isinstance(ems[0].payload, Upd)
    assert ems[0].dests == {A}
    assert [l for l in entry.rxmt_list] == [Lsa(B, 15, frozenset({A}))]
    assert entry.rxmt_deadline == 15 + CFG.rxmtintvl


def test_dbd_out_of_order_triggers_restart():
    before = node(ip=A, nbrs=[nbr(B, NS.EXCHANGE, ddsqn=2)])
    st, ems = handle_dbd_detailed(
        before, frozenset(), sqn=4, ibit=False, sip=B, now=20, adj=ADJ, cfg=CFG
    )
    entry = st.nbrs.get(B)
    assert entry.ns == NS.EX_START and entry.ddsqn == 3
    assert len(ems) == 1 and ems[0].payload.ibit is True


def test_dbd_unknown_and_two_way_dropped():
    before = node(ip=A)
    assert handle_dbd_detailed(
        before, frozenset(), 1, True, B, 5, ADJ, CFG
    ) == (before, [])
    tw = node(ip=A, nbrs=[nbr(B, NS.TWO_WAY)])
    assert handle_dbd_detailed(
        tw, frozenset(), 1, True, B, 5, ADJ, CFG
    ) == (tw, [])


def test_dbd_from_a_non_adjacent_init_neighbour_goes_two_way():
    before = node(ip=A, nbrs=[nbr(B, NS.INIT)])
    st, ems = handle_dbd_detailed(
        before, frozenset(), sqn=1, ibit=True, sip=B, now=5,
        adj=Topology(2, frozenset()), cfg=CFG,
    )
    assert st.nbrs.get(B) == nbr(B, NS.TWO_WAY) and ems == []


def test_dbd_init_adjacent_redispatches_once():
    # the arriving summary both opens the exchange and is examined again
    before = node(ip=A, nbrs=[nbr(B, NS.INIT)])
    st, ems = handle_dbd_detailed(
        before, frozenset(), sqn=3, ibit=True, sip=B, now=9, adj=ADJ, cfg=CFG
    )
    entry = st.nbrs.get(B)
    # ExStart entry, then the same message negotiates slave-side
    assert entry.ns == NS.EXCHANGE and entry.ddsqn == 3
    assert len(ems) == 2
    assert ems[0].payload.ibit is True and ems[1].payload.ibit is False


def test_snmis_restarts_exchange():
    before = node(
        ip=A,
        nbrs=[nbr(B, NS.LOADING, ddsqn=4,
                  req_list=frozenset({LsaHeader(C, 1)}),
                  rxmt_list=db((A, 1, ())))],
        lsdb=db((A, 1, {B})),
    )
    st, ems = snmis(before, B, now=30, cfg=CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.EX_START and entry.ddsqn == 5
    assert entry.req_list == frozenset() and len(entry.rxmt_list) == 0
    assert entry.dd_deadline == 30 + CFG.rxmtintvl
    assert len(ems) == 1
    assert ems[0].payload == Dbd(frozenset({LsaHeader(A, 1)}), 5, True, A)
    assert ems[0].dests == {B}
    assert snmis(before, C, 30, CFG) == (before, [])


# --- requests and updates -------------------------------------------------


REQ_C4 = frozenset({LsaHeader(C, 4)})


def test_req_served_when_fresh_enough():
    before = node(ip=A, nbrs=[nbr(B, NS.LOADING)], lsdb=db((C, 6, {A})))
    st, ems = handle_req_detailed(before, REQ_C4, B)
    assert st == before
    assert len(ems) == 1
    assert ems[0].payload == Upd(db((C, 6, {A})), A) and ems[0].dests == {B}


def test_req_dropped_in_premature_state_or_unknown():
    premature = node(ip=A, nbrs=[nbr(B, NS.INIT)], lsdb=db((C, 6, ())))
    assert handle_req_detailed(premature, REQ_C4, B) == (premature, [])
    unknown = node(ip=A, lsdb=db((C, 6, ())))
    assert handle_req_detailed(unknown, REQ_C4, B) == (unknown, [])


def test_req_dropped_when_requested_is_newer_than_stored():
    before = node(ip=A, nbrs=[nbr(B, NS.FULL)], lsdb=db((C, 3, ())))
    assert handle_req_detailed(before, REQ_C4, B) == (before, [])


def test_req_of_two_headers_serves_only_those_held_as_fresh():
    # C is held newer than asked for, A only older
    hdrs = frozenset({LsaHeader(C, 4), LsaHeader(A, 9)})
    lsdb = db((A, 2, {B}), (C, 6, ()))
    full = node(ip=A, nbrs=[nbr(B, NS.FULL)], lsdb=lsdb)
    st, ems = handle_req_detailed(full, hdrs, B)
    assert st == full
    assert [(e.payload, e.dests) for e in ems] == [(Upd(db((C, 6, ())), A), {B})]
    init = node(ip=A, nbrs=[nbr(B, NS.INIT)], lsdb=lsdb)
    assert handle_req_detailed(init, hdrs, B) == (init, [])


def test_upd_stale_payload_only_acked():
    before = node(ip=A, nbrs=[nbr(B, NS.FULL)], lsdb=db((C, 6, ())))
    st, ems = handle_upd_detailed(before, db((C, 6, ())), B, 20, CFG)
    assert st == before
    assert len(ems) == 1
    assert ems[0].payload == Ack(frozenset({LsaHeader(C, 6)}), A)


def test_upd_fresh_at_full_installs_and_forwards():
    before = node(ip=A, nbrs=[nbr(B, NS.FULL)], lsdb=db((A, 1, {B})))
    st, ems = handle_upd_detailed(before, db((B, 9, {A})), B, 20, CFG)
    assert st.lsdb.get(B) == Lsa(B, 9, frozenset({A}))
    assert st.nbrs.get(B).ns == NS.FULL
    kinds = [type(e.payload) for e in ems]
    assert kinds == [Ack, Upd]
    assert ems[1].dests == {B}


def test_upd_completing_loading_goes_full_and_floods():
    before = node(
        ip=A,
        nbrs=[nbr(B, NS.LOADING, req_list=frozenset({LsaHeader(C, 4)}))],
        lsdb=db((A, 1, {B})),
    )
    st, ems = handle_upd_detailed(before, db((C, 4, {B})), B, 25, CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.FULL and entry.req_list == frozenset()
    assert st.lsdb.get(A).stamp == 25  # fresh own advertisement
    kinds = [type(e.payload) for e in ems]
    assert kinds == [Ack, Upd, Upd]


def test_upd_waiting_for_more_requests_stays_loading():
    before = node(
        ip=A,
        nbrs=[nbr(B, NS.LOADING,
                  req_list=frozenset({LsaHeader(C, 4), LsaHeader(B, 2)}))],
        lsdb=db(),
    )
    st, ems = handle_upd_detailed(before, db((C, 4, {B})), B, 25, CFG)
    entry = st.nbrs.get(B)
    assert entry.ns == NS.LOADING
    assert entry.req_list == frozenset({LsaHeader(B, 2)})


def test_ack_cleans_retransmissions():
    before = node(ip=A, nbrs=[nbr(B, NS.FULL, rxmt_list=db((A, 3, ())))])
    st, _ = handle_ack(before, frozenset({LsaHeader(A, 3)}), B)
    assert len(st.nbrs.get(B).rxmt_list) == 0
    stale, _ = handle_ack(before, frozenset({LsaHeader(A, 2)}), B)
    assert len(stale.nbrs.get(B).rxmt_list) == 1
    assert handle_ack(before, frozenset(), C) == (before, [])


def test_non_messages_are_refused():
    with pytest.raises(TypeError, match="detailed model cannot handle str"):
        handle_message_detailed(node(), "hello", 7, ADJ, CFG)


# --- timers ----------------------------------------------------------------


def test_timers_dd_retransmit():
    before = node(
        ip=A, hellot=99,
        nbrs=[nbr(B, NS.EX_START, ddsqn=2, dd_deadline=4, inact_deadline=99)],
        lsdb=db((A, 1, {B})),
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert st.nbrs.get(B).dd_deadline == 5 + CFG.rxmtintvl
    assert len(ems) == 1
    assert ems[0].payload == Dbd(frozenset({LsaHeader(A, 1)}), 2, True, A)


def test_timers_req_retransmit_picks_minimum_header():
    before = node(
        ip=A, hellot=99,
        nbrs=[nbr(B, NS.LOADING, req_deadline=0, inact_deadline=99,
                  req_list=frozenset({LsaHeader(C, 9), LsaHeader(B, 2)}))],
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert st.nbrs.get(B).req_deadline == 5 + CFG.rxmtintvl
    assert len(ems) == 1
    assert ems[0].payload == Req(frozenset({LsaHeader(B, 2)}), A)


def test_timers_rxmt_retransmit_sends_whole_list():
    before = node(
        ip=A, hellot=99,
        nbrs=[nbr(B, NS.FULL, rxmt_deadline=0, inact_deadline=99,
                  rxmt_list=db((A, 3, {B})))],
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert st.nbrs.get(B).rxmt_deadline == 5 + CFG.rxmtintvl
    assert len(ems) == 1
    assert ems[0].payload == Upd(db((A, 3, {B})), A) and ems[0].dests == {B}


def quiet(ip, *nbrs):
    """A node whose hello and own-LSA refresh are not due before tick 99."""
    return node(ip=ip, hellot=99, nbrs=nbrs, lsdb=db((ip, 90, ())))


def test_timers_dd_at_exchange_only_from_the_side_with_the_higher_id():
    exchanging = nbr(B, NS.EXCHANGE, ddsqn=3, dd_deadline=0, inact_deadline=99)
    # B > A: A waits for B to drive the exchange
    before = quiet(A, exchanging)
    assert detailed_timers(before, now=5, cfg=CFG) == (before, [])
    # B <= C: C re-sends its summary
    st, ems = detailed_timers(quiet(C, exchanging), now=5, cfg=CFG)
    assert st.nbrs.get(B).dd_deadline == 5 + CFG.rxmtintvl
    assert [(e.payload.sqn, e.payload.ibit, e.dests) for e in ems] == [(3, False, {B})]


def test_timers_empty_lists_never_fire():
    before = quiet(A, nbr(B, NS.LOADING, inact_deadline=99),
                   nbr(C, NS.FULL, inact_deadline=99))
    assert detailed_timers(before, now=50, cfg=CFG) == (before, [])


def test_timers_fire_only_after_the_deadline_has_passed():
    reqs = frozenset({LsaHeader(C, 1)})
    before = quiet(A, nbr(B, NS.EX_START, dd_deadline=7, req_deadline=7,
                          rxmt_deadline=7, req_list=reqs,
                          rxmt_list=db((C, 1, ())), inact_deadline=99))
    assert detailed_timers(before, now=7, cfg=CFG) == (before, [])
    _, ems = detailed_timers(before, now=8, cfg=CFG)
    assert len(ems) == 3


def test_timers_lowest_neighbour_id_wins():
    reqs = frozenset({LsaHeader(A, 1)})
    before = quiet(
        4,
        nbr(C, NS.LOADING, req_deadline=0, req_list=reqs, inact_deadline=99),
        nbr(B, NS.LOADING, req_deadline=0, req_list=reqs, inact_deadline=99),
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert [e.dests for e in ems] == [{B}]
    assert st.nbrs.get(C).req_deadline == 0
    # C is picked on the next call, once B's timer is rearmed
    _, ems = detailed_timers(st, now=6, cfg=CFG)
    assert [e.dests for e in ems] == [{C}]


def test_timers_request_the_least_header_by_origin_then_stamp():
    reqs = frozenset({LsaHeader(C, 9), LsaHeader(B, 7), LsaHeader(B, 2)})
    before = quiet(A, nbr(B, NS.LOADING, req_deadline=0, req_list=reqs,
                          inact_deadline=99))
    _, ems = detailed_timers(before, now=5, cfg=CFG)
    assert [e.payload for e in ems] == [Req(frozenset({LsaHeader(B, 2)}), A)]


def test_timers_dd_req_and_rxmt_fire_in_that_order_and_rearm():
    # each timer fires for a different neighbour; C is listed first so
    # that the emission order cannot come from the table order
    before = quiet(
        A,
        nbr(4, NS.FULL, rxmt_deadline=1, rxmt_list=db((A, 90, ())),
            inact_deadline=99),
        nbr(C, NS.LOADING, req_deadline=1, req_list=frozenset({LsaHeader(B, 1)}),
            inact_deadline=99),
        nbr(B, NS.EX_START, ddsqn=2, dd_deadline=1, inact_deadline=99),
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert [(type(e.payload), e.dests) for e in ems] == [
        (Dbd, {B}), (Req, {C}), (Upd, {4})]
    rearm = 5 + CFG.rxmtintvl
    assert st.nbrs.get(B).dd_deadline == rearm
    assert st.nbrs.get(C).req_deadline == rearm
    assert st.nbrs.get(4).rxmt_deadline == rearm


def test_timers_dead_removal_floods():
    before = node(
        ip=A, hellot=99,
        nbrs=[nbr(B, NS.FULL, inact_deadline=4), nbr(C, NS.FULL, inact_deadline=90)],
        lsdb=db((A, 1, {B, C})),
    )
    st, ems = detailed_timers(before, now=5, cfg=CFG)
    assert st.nbrs.nips() == {C}
    assert st.lsdb.get(A) == Lsa(A, 5, frozenset({C}))
    assert len(ems) == 1
    assert ems[0].payload == Upd(db((A, 5, {C})), A) and ems[0].dests == {C}


def test_timers_refresh_regenerates_old_advertisement():
    before = node(
        ip=A, hellot=9999,
        nbrs=[nbr(B, NS.FULL, inact_deadline=99999)],
        lsdb=db((A, 1, {B})),
    )
    now = 1 + CFG.refreshintvl
    st, ems = detailed_timers(before, now=now, cfg=CFG)
    assert st.lsdb.get(A).stamp == now
    assert len(ems) == 1 and isinstance(ems[0].payload, Upd)


def test_timers_quiet_is_identity():
    before = node(
        ip=A, hellot=50,
        nbrs=[nbr(B, NS.FULL, inact_deadline=99, dd_deadline=99,
                  req_deadline=99, rxmt_deadline=99)],
        lsdb=db((A, 40, {B})),
    )
    st, ems = detailed_timers(before, now=41, cfg=CFG)
    assert st == before and ems == []


def test_ns_transitions_follow_documented_edges():
    from ospfsim.engine import EngineConfig, run
    from ospfsim.topology import line, ring

    allowed = {
        (None, NS.INIT),
        (NS.INIT, NS.TWO_WAY),
        (NS.INIT, NS.EX_START),
        (NS.EX_START, NS.EXCHANGE),
        (NS.EXCHANGE, NS.LOADING),
        (NS.EXCHANGE, NS.FULL),
        (NS.EXCHANGE, NS.EX_START),
        (NS.LOADING, NS.FULL),
        (NS.LOADING, NS.EX_START),
        (NS.FULL, NS.EX_START),
    }
    # a hello that no longer lists this node wipes the adjacency from
    # any state, so arbitrary falls back to Init are legitimate
    allowed |= {(ns, NS.INIT) for ns in NS}
    # trace events diff whole turns: an unknown hello can create an entry
    # and advance it past Init within a single turn
    allowed |= {(None, NS.TWO_WAY), (None, NS.EX_START)}

    by_label = {ns.label(): ns for ns in NS}
    seen = set()
    runs = [
        (EngineConfig(model="detailed"), ring(4)),
        (EngineConfig(model="detailed", loss_prob=0.3, seed=3, max_ticks=600),
         line(3)),
    ]
    for cfg, topo in runs:
        _, trace, _ = run(cfg, topo, trace=True)
        for ev in trace:
            if ev.kind == "state_change":
                prev = ev.detail["prev"]
                seen.add((by_label[prev] if prev else None,
                          by_label[ev.detail["ns"]]))
    assert seen <= allowed
    assert (None, NS.INIT) in seen and (NS.EX_START, NS.EXCHANGE) in seen


def test_ddsqn_never_decreases_between_restarts():
    rng = random.Random(11)
    st = node(ip=A, nbrs=[nbr(B, NS.INIT)])
    low = 0
    for step in range(300):
        sqn = rng.randint(0, 6)
        st, _ = handle_dbd_detailed(
            st, frozenset(), sqn, rng.random() < 0.5, B, step, ADJ, CFG
        )
        cur = st.nbrs.get(B).ddsqn
        assert cur >= low or st.nbrs.get(B).ns == NS.EX_START
        low = cur
