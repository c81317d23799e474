import random

import pytest

from ospfsim.core import (
    DetailedNeighbor,
    Lsa,
    LsaHeader,
    Lsdb,
    NeighborState,
    ProtocolConfig,
    SimpleNeighbor,
)
from ospfsim.detailed import AdjPolicy, DetailedNodeState, handle_hello_detailed
from ospfsim.neighbors import (
    NbrTable,
    add_reqs,
    clean_reqs,
    clean_rxmts,
    dead_nbrs,
    flood_nips,
    gen_dbd,
    inc_ddsqn,
    init_nbr,
    min_header,
    nbr_exist,
    nbr_field_set,
    new_nbr,
    select_fired,
    upd_rxmts,
)

A, B, C = 1, 2, 3
NS = NeighborState


def dtable(*entries):
    return NbrTable.of(entries)


def dn(nip, ns=NS.INIT, **kw):
    return DetailedNeighbor(nip=nip, ns=ns, **kw)


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def test_nbr_exist():
    t = NbrTable.of([SimpleNeighbor(B, 50)])
    assert nbr_exist(t, B)
    assert not nbr_exist(t, C)
    assert not nbr_exist(NbrTable(), B)


def test_new_nbr_duplicate_fault():
    t = new_nbr(NbrTable(), SimpleNeighbor(B, 60))
    assert t.get(B) == SimpleNeighbor(B, 60)
    both = new_nbr(t, SimpleNeighbor(A, 70))
    assert [n.nip for n in both] == [A, B]
    with pytest.raises(RuntimeError):
        new_nbr(both, SimpleNeighbor(B, 0))
    with pytest.raises(RuntimeError):
        new_nbr(dtable(dn(B)), dn(B, NS.FULL))


def test_new_nbr_detailed_initial_fields():
    # a hello from an unknown sender that does not list us leaves the
    # new entry at Init with only its inactivity deadline armed
    cfg = ProtocolConfig()
    st, ems = handle_hello_detailed(
        DetailedNodeState(ip=A), frozenset(), B, 11, AdjPolicy.total(), cfg
    )
    assert st.nbrs.get(B) == DetailedNeighbor(
        nip=B, ns=NS.INIT, inact_deadline=11 + cfg.rtdeadintvl, ddsqn=0,
        dd_deadline=0, req_list=frozenset(), req_deadline=0,
        rxmt_list=Lsdb(), rxmt_deadline=0,
    )
    assert ems == []
    both, _ = handle_hello_detailed(
        st, frozenset(), C, 12, AdjPolicy.total(), cfg
    )
    assert both.nbrs.nips() == {B, C}


def test_detailed_set_on_absent_is_noop():
    t = dtable(dn(B))
    assert nbr_field_set(t, C, "ns", NS.FULL) == t
    assert inc_ddsqn(t, C) == t
    assert init_nbr(t, C, NS.EX_START) == t


def test_dead_nbrs_strict():
    t = NbrTable.of([SimpleNeighbor(B, 5)])
    assert [n.nip for n in dead_nbrs(t, 6)] == [B]
    assert dead_nbrs(t, 5) == ()
    assert dead_nbrs(NbrTable(), 9) == ()


@pytest.mark.parametrize("fieldname,value", [
    ("ns", NS.EXCHANGE),
    ("inact_deadline", 44),
    ("ddsqn", 4),
    ("dd_deadline", 17),
    ("req_deadline", 9),
    ("rxmt_deadline", 12),
])
def test_set_then_get_laws(fieldname, value):
    t = dtable(dn(B, NS.EXCHANGE), dn(C, NS.INIT))
    out = nbr_field_set(t, B, fieldname, value)
    assert getattr(out.get(B), fieldname) == value
    assert out.get(C) == t.get(C)


def test_field_get_on_absent():
    t = dtable(dn(B, NS.EXCHANGE))
    assert t.get(C) is None
    assert t.get(B).ddsqn == 0


def test_inc_ddsqn():
    t = dtable(dn(B))
    assert inc_ddsqn(t, B).get(B).ddsqn == 1
    seven = nbr_field_set(t, B, "ddsqn", 7)
    assert inc_ddsqn(seven, B).get(B).ddsqn == 8


def test_init_nbr_wipes_lists_keeps_rest():
    entry = DetailedNeighbor(
        nip=B, ns=NS.FULL, inact_deadline=90, ddsqn=5, dd_deadline=8,
        req_list=frozenset({LsaHeader(C, 2)}), req_deadline=3,
        rxmt_list=db((A, 1, ())), rxmt_deadline=6,
    )
    out = init_nbr(dtable(entry), B, NS.INIT).get(B)
    assert out.ns == NS.INIT
    assert out.req_list == frozenset() and len(out.rxmt_list) == 0
    assert out.ddsqn == 5 and out.inact_deadline == 90
    ex = init_nbr(dtable(entry), B, NS.EX_START).get(B)
    assert ex.inact_deadline == 90


def test_clean_reqs():
    t = dtable(dn(B, NS.LOADING, req_list=frozenset({LsaHeader(A, 3)})))
    assert clean_reqs(t, B, db((A, 5, ()))).get(B).req_list == frozenset()
    keep = dtable(dn(B, NS.LOADING, req_list=frozenset({LsaHeader(A, 6)})))
    assert clean_reqs(keep, B, db((A, 5, ()))).get(B).req_list == {LsaHeader(A, 6)}
    assert clean_reqs(dtable(dn(B, NS.LOADING)), B, db()).get(B).req_list == frozenset()
    assert clean_reqs(t, C, db()) is None


def test_add_reqs_union_then_clean():
    t = dtable(dn(B, NS.EXCHANGE))
    hdrs = frozenset({LsaHeader(A, 6), LsaHeader(B, 2)})
    out = add_reqs(t, B, db((A, 5, ()), (B, 3, ())), hdrs)
    assert out.get(B).req_list == {LsaHeader(A, 6)}
    assert add_reqs(t, B, db((A, 5, ())), frozenset()).get(B).req_list == frozenset()
    assert add_reqs(t, C, db(), hdrs) is None


def test_clean_rxmts():
    t = dtable(dn(B, NS.FULL, rxmt_list=db((A, 3, ()))))
    assert len(clean_rxmts(t, B, frozenset({LsaHeader(A, 3)})).get(B).rxmt_list) == 0
    newer = dtable(dn(B, NS.FULL, rxmt_list=db((A, 4, ()))))
    assert clean_rxmts(newer, B, frozenset({LsaHeader(A, 3)})) == newer
    assert clean_rxmts(newer, B, frozenset()) == newer
    assert clean_rxmts(t, C, frozenset()) is None


def test_upd_rxmts_only_exchange_and_up():
    t = dtable(dn(B, NS.FULL), dn(C, NS.INIT))
    out = upd_rxmts(t, db((A, 9, ())))
    assert [l.stamp for l in out.get(B).rxmt_list] == [9]
    assert len(out.get(C).rxmt_list) == 0
    assert upd_rxmts(t, db()) == t
    fresher = upd_rxmts(out, db((A, 12, ())))
    assert [l.stamp for l in fresher.get(B).rxmt_list] == [12]


def test_select_fired_dd():
    t = dtable(dn(B, NS.EX_START, dd_deadline=4))
    assert select_fired(t, 5, A, "dd") == B
    # at Exchange only the side driving the exchange retransmits
    master_side = dtable(dn(B, NS.EXCHANGE, dd_deadline=0))
    assert select_fired(master_side, 5, A, "dd") is None  # B > A
    assert select_fired(master_side, 5, C, "dd") == B  # B <= C


def test_select_fired_req_rxmt_and_determinism():
    empty_req = dtable(dn(B, NS.LOADING, req_deadline=0))
    assert select_fired(empty_req, 9, A, "req") is None
    pending = dtable(
        dn(B, NS.LOADING, req_deadline=0, req_list=frozenset({LsaHeader(C, 1)})),
        dn(C, NS.LOADING, req_deadline=0, req_list=frozenset({LsaHeader(B, 1)})),
    )
    assert select_fired(pending, 9, A, "req") == B
    assert select_fired(pending, 9, A, "req") == B
    rx = dtable(dn(C, NS.FULL, rxmt_list=db((A, 1, ())), rxmt_deadline=2))
    assert select_fired(rx, 3, A, "rxmt") == C
    assert select_fired(rx, 2, A, "rxmt") is None


def test_flood_nips_boundary():
    t = dtable(dn(B, NS.FULL), dn(C, NS.INIT))
    assert flood_nips(t) == {B}
    assert flood_nips(dtable(dn(B, NS.EXCHANGE))) == {B}
    assert flood_nips(NbrTable()) == frozenset()


def test_gen_dbd_branches():
    lsdb = db((A, 1, {B}))
    ex_start = dtable(dn(B, NS.EX_START, ddsqn=3))
    msg = gen_dbd(ex_start, lsdb, B, A)
    assert msg.hdrs == {LsaHeader(A, 1)} and msg.sqn == 3 and msg.ibit is True
    exchanging = dtable(dn(B, NS.EXCHANGE, ddsqn=4))
    msg = gen_dbd(exchanging, lsdb, B, A)
    assert msg.hdrs == {LsaHeader(A, 1)} and msg.sqn == 4 and msg.ibit is False
    assert gen_dbd(dtable(dn(B, NS.INIT)), lsdb, B, A) is None
    assert gen_dbd(dtable(dn(B, NS.INIT)), lsdb, C, A) is None


def test_min_header():
    hdrs = {LsaHeader(B, 9), LsaHeader(A, 7), LsaHeader(A, 2)}
    assert min_header(hdrs) == LsaHeader(A, 2)


def test_uniqueness_preserved_by_random_operations():
    rng = random.Random(99)
    table = NbrTable()
    for _ in range(500):
        op = rng.randrange(6)
        nip = rng.randint(2, 5)
        if op == 0 and not nbr_exist(table, nip):
            table = new_nbr(table, dn(nip))
        elif op == 1:
            # downgrades below ExStart go through init_nbr, as in the
            # protocol itself, so the empty-lists invariant holds
            ns = rng.choice(list(NS))
            if ns < NS.EX_START:
                table = init_nbr(table, nip, ns)
            else:
                table = nbr_field_set(table, nip, "ns", ns)
        elif op == 2:
            table = inc_ddsqn(table, nip)
        elif op == 3:
            table = init_nbr(table, nip, rng.choice(list(NS)))
        elif op == 4:
            table = upd_rxmts(table, db((A, rng.randint(0, 9), ())))
        else:
            table = nbr_field_set(table, nip, "inact_deadline", rng.randint(0, 99))
        nips = [n.nip for n in table]
        assert len(nips) == len(set(nips))
