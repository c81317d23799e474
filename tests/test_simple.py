import random

from ospfsim.core import (
    DbdSimple,
    Hello,
    Lsa,
    LsaHeader,
    Lsdb,
    ProtocolConfig,
    ReqSimple,
    SimpleNeighbor,
    Upd,
)
from ospfsim.neighbors import NbrTable
from ospfsim.simple import (
    SimpleNodeState,
    handle_dbd_simple,
    handle_hello_simple,
    handle_message_simple,
    handle_req_simple,
    handle_upd_simple,
    simple_timers,
)

A, B, C = 1, 2, 3
CFG = ProtocolConfig()


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def node(ip=A, nbrs=(), lsdb=None, hellot=0):
    return SimpleNodeState(
        ip=ip,
        nbrs=NbrTable.of(SimpleNeighbor(n, t) for n, t in nbrs),
        lsdb=lsdb if lsdb is not None else Lsdb(),
        hellot=hellot,
    )


def test_timers_fresh_node_sends_hello():
    st, ems = simple_timers(node(), now=0, cfg=CFG)
    assert st.hellot == CFG.hellointvl
    assert len(ems) == 1 and ems[0].is_broadcast
    assert ems[0].payload == Hello(frozenset(), A)


def test_timers_removes_dead_and_advertises():
    st, ems = simple_timers(node(nbrs=[(B, 5)], hellot=10), now=6, cfg=CFG)
    assert st.nbrs.nips() == frozenset()
    assert st.lsdb.get(A) == Lsa(A, 6, frozenset())
    assert len(ems) == 1
    assert isinstance(ems[0].payload, Upd) and ems[0].dests == frozenset()


def test_timers_nothing_due_is_identity():
    before = node(nbrs=[(B, 50)], hellot=10)
    st, ems = simple_timers(before, now=5, cfg=CFG)
    assert st == before and ems == []


def test_hello_unknown_sender_discovers():
    st, ems = handle_hello_simple(node(), frozenset(), B, now=3, cfg=CFG)
    assert st.nbrs.get(B) == SimpleNeighbor(B, 53)
    assert st.lsdb.get(A) == Lsa(A, 3, frozenset({B}))
    upd, dbd = ems
    assert upd.payload == Upd(db((A, 3, {B})), A) and upd.dests == {B}
    assert dbd.payload == DbdSimple(frozenset({LsaHeader(A, 3)}), A)
    assert dbd.dests == {B}


def test_hello_known_sender_only_resets_deadline():
    before = node(nbrs=[(B, 20)], lsdb=db((A, 1, {B})))
    st, ems = handle_hello_simple(before, frozenset({A}), B, now=9, cfg=CFG)
    assert st.nbrs.get(B).inact_deadline == 59
    assert st.lsdb == before.lsdb and ems == []


def test_hello_ignores_listed_neighbours():
    for ips in (frozenset(), frozenset({A}), frozenset({A, C})):
        st, ems = handle_hello_simple(node(), ips, B, now=3, cfg=CFG)
        assert st.nbrs.nips() == {B} and len(ems) == 2


def test_dbd_unknown_sender_discovers_without_request():
    st, ems = handle_dbd_simple(
        node(), frozenset({LsaHeader(A, 0)}), B, now=2, cfg=CFG
    )
    # discovery installs (A,2,{B}), dominating the offered (A,0)
    assert [type(e.payload) for e in ems] == [Upd, DbdSimple]


def test_dbd_known_sender_requests_missing():
    before = node(nbrs=[(B, 50)], lsdb=db((A, 1, {B})))
    st, ems = handle_dbd_simple(
        before, frozenset({LsaHeader(C, 4)}), B, now=5, cfg=CFG
    )
    assert st == before
    assert ems == [e for e in ems]
    assert len(ems) == 1
    assert ems[0].payload == ReqSimple(frozenset({LsaHeader(C, 4)}), A)
    assert ems[0].dests == {B}


def test_dbd_dominated_headers_yield_no_request():
    before = node(nbrs=[(B, 50)], lsdb=db((C, 6, ())))
    st, ems = handle_dbd_simple(
        before, frozenset({LsaHeader(C, 4)}), B, now=5, cfg=CFG
    )
    assert st == before and ems == []


def test_req_from_unknown_sender_dropped():
    before = node(lsdb=db((C, 6, ())))
    st, ems = handle_req_simple(before, frozenset({LsaHeader(C, 4)}), B)
    assert st == before and ems == []


def test_req_served_by_origin():
    before = node(nbrs=[(B, 50)], lsdb=db((C, 6, {A})))
    st, ems = handle_req_simple(before, frozenset({LsaHeader(C, 4)}), B)
    assert len(ems) == 1
    assert ems[0].payload == Upd(db((C, 6, {A})), A) and ems[0].dests == {B}


def test_req_empty_headers_still_answered():
    before = node(nbrs=[(B, 50)], lsdb=db((C, 6, ())))
    st, ems = handle_req_simple(before, frozenset(), B)
    assert len(ems) == 1 and ems[0].payload == Upd(Lsdb(), A)


def test_upd_stale_is_identity():
    before = node(nbrs=[(B, 50)], lsdb=db((C, 6, ())))
    st, ems = handle_upd_simple(before, db((C, 6, ())), B)
    assert st == before and ems == []
    st, ems = handle_upd_simple(before, Lsdb(), B)
    assert st == before and ems == []


def test_upd_fresh_installed_and_forwarded():
    before = node(nbrs=[(B, 50), (C, 60)], lsdb=db((C, 6, ())))
    st, ems = handle_upd_simple(before, db((C, 7, {A})), B)
    assert st.lsdb.get(C) == Lsa(C, 7, frozenset({A}))
    assert len(ems) == 1
    assert ems[0].payload == Upd(db((C, 7, {A})), A)
    assert ems[0].dests == {B, C}


def test_handlers_are_pure():
    before = node(nbrs=[(B, 50)], lsdb=db((A, 1, {B})))
    msg = Hello(frozenset({A}), B)
    first = handle_message_simple(before, msg, 7, CFG)
    second = handle_message_simple(before, msg, 7, CFG)
    assert first == second


def test_stamps_never_decrease_and_methods_match():
    rng = random.Random(3)
    st = node()
    maxima = {}
    for tick in range(200):
        st, ems = simple_timers(st, tick, CFG)
        msg = rng.choice([
            Hello(frozenset({A}), rng.randint(2, 4)),
            DbdSimple(frozenset({LsaHeader(rng.randint(2, 4), rng.randint(0, 9))}),
                      rng.randint(2, 4)),
            Upd(db((rng.randint(2, 4), rng.randint(0, 9), ())), rng.randint(2, 4)),
            ReqSimple(frozenset({LsaHeader(A, 0)}), rng.randint(2, 4)),
        ])
        st, more = handle_message_simple(st, msg, tick, CFG)
        for em in more + ems:
            assert em.is_broadcast == isinstance(em.payload, Hello)
        for lsa in st.lsdb:
            assert maxima.get(lsa.origin, -1) <= lsa.stamp
            maxima[lsa.origin] = lsa.stamp
