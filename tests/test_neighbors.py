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
from ospfsim.core import NodeState
from ospfsim.detailed import handle_hello_detailed
from ospfsim.neighbors import (
    NbrTable,
    add_reqs,
    clean_reqs,
    clean_rxmts,
    drop_dead,
    flood_nips,
    gen_dbd,
    nbr_set,
    new_nbr,
    upd_rxmts,
)
from ospfsim.topology import Topology

A, B, C = 1, 2, 3
NS = NeighborState


def dtable(*entries):
    return NbrTable.of(entries)


def dn(nip, ns=NS.INIT, **kw):
    return DetailedNeighbor(nip=nip, ns=ns, **kw)


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def test_nbr_table_get():
    t = NbrTable.of([SimpleNeighbor(B, 50)])
    assert t.get(B) == SimpleNeighbor(B, 50)
    assert t.get(C) is None
    assert NbrTable().get(B) is None
    with pytest.raises(ValueError, match="duplicate neighbour entries"):
        NbrTable.of([SimpleNeighbor(B, 50), SimpleNeighbor(B, 60)])


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
    adj = Topology(3, frozenset({(A, B), (A, C)}))
    st, ems = handle_hello_detailed(
        NodeState(ip=A), frozenset(), B, 11, adj, cfg
    )
    assert st.nbrs.get(B) == DetailedNeighbor(
        nip=B, ns=NS.INIT, inact_deadline=11 + cfg.rtdeadintvl, ddsqn=0,
        dd_deadline=0, req_list=frozenset(), req_deadline=0,
        rxmt_list=Lsdb(), rxmt_deadline=0,
    )
    assert ems == []
    both, _ = handle_hello_detailed(
        st, frozenset(), C, 12, adj, cfg
    )
    assert both.nbrs.nips() == {B, C}


def test_detailed_set_on_absent_is_noop():
    # one rule for an absent neighbour: the table itself comes back
    t = dtable(dn(B, NS.LOADING, req_list=frozenset({LsaHeader(A, 3)})))
    assert nbr_set(t, C, ns=NS.FULL, ddsqn=1) is t
    assert clean_reqs(t, C, db((A, 5, ()))) is t
    assert clean_rxmts(t, C, frozenset({LsaHeader(A, 3)})) is t


def test_nbr_set_without_a_change_keeps_the_table():
    t = dtable(dn(B, NS.EXCHANGE, ddsqn=2), dn(C))
    assert nbr_set(t, B) is t
    assert nbr_set(t, B, ns=NS.EXCHANGE, ddsqn=2) is t
    out = nbr_set(t, B, ns=NS.EXCHANGE, ddsqn=3)
    assert out is not t and out.get(B).ddsqn == 3
    with pytest.raises(AttributeError):
        nbr_set(t, B, no_such_field=1)


def test_nbr_set_applies_every_field_at_once():
    # a wipe below ExStart must clear the lists in the same update,
    # since no intermediate record may hold lists below ExStart
    entry = dn(B, NS.FULL, inact_deadline=90, ddsqn=5,
               req_list=frozenset({LsaHeader(C, 2)}), rxmt_list=db((A, 1, ())))
    out = nbr_set(dtable(entry), B, ns=NS.INIT, req_list=frozenset(),
                  rxmt_list=Lsdb()).get(B)
    assert out == dn(B, NS.INIT, inact_deadline=90, ddsqn=5)
    with pytest.raises(ValueError):
        nbr_set(dtable(entry), B, ns=NS.INIT)


def test_drop_dead_strict():
    t = NbrTable.of([SimpleNeighbor(B, 5), SimpleNeighbor(C, 9)])
    assert drop_dead(t, 6).nips() == {C}
    assert drop_dead(t, 5) is t
    empty = NbrTable()
    assert drop_dead(empty, 9) is empty


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
    out = nbr_set(t, B, **{fieldname: value})
    assert getattr(out.get(B), fieldname) == value
    assert out.get(C) == t.get(C)


def test_field_get_on_absent():
    t = dtable(dn(B, NS.EXCHANGE))
    assert t.get(C) is None
    assert t.get(B).ddsqn == 0


def test_clean_reqs():
    t = dtable(dn(B, NS.LOADING, req_list=frozenset({LsaHeader(A, 3)})))
    assert clean_reqs(t, B, db((A, 5, ()))).get(B).req_list == frozenset()
    keep = dtable(dn(B, NS.LOADING, req_list=frozenset({LsaHeader(A, 6)})))
    assert clean_reqs(keep, B, db((A, 5, ()))) is keep
    empty = dtable(dn(B, NS.LOADING))
    assert clean_reqs(empty, B, db()) is empty


def test_add_reqs_union_then_clean():
    hdrs = frozenset({LsaHeader(A, 6), LsaHeader(B, 2)})
    assert add_reqs(frozenset(), db((A, 5, ()), (B, 3, ())), hdrs) == {LsaHeader(A, 6)}
    assert add_reqs(frozenset({LsaHeader(A, 4)}), db((A, 5, ())), frozenset()) == frozenset()
    assert add_reqs(frozenset({LsaHeader(C, 1)}), db(), hdrs) == hdrs | {LsaHeader(C, 1)}


def test_clean_rxmts():
    t = dtable(dn(B, NS.FULL, rxmt_list=db((A, 3, ()))))
    assert len(clean_rxmts(t, B, frozenset({LsaHeader(A, 3)})).get(B).rxmt_list) == 0
    newer = dtable(dn(B, NS.FULL, rxmt_list=db((A, 4, ()))))
    assert clean_rxmts(newer, B, frozenset({LsaHeader(A, 3)})) is newer
    assert clean_rxmts(newer, B, frozenset()) is newer


def test_upd_rxmts_only_exchange_and_up():
    t = dtable(dn(B, NS.FULL, rxmt_deadline=3), dn(C, NS.INIT, rxmt_deadline=4))
    out = upd_rxmts(t, db((A, 9, ())), 30)
    assert [l.stamp for l in out.get(B).rxmt_list] == [9]
    assert out.get(B).rxmt_deadline == 30
    assert out.get(C) == t.get(C)
    fresher = upd_rxmts(out, db((A, 12, ())), 40)
    assert [l.stamp for l in fresher.get(B).rxmt_list] == [12]
    assert fresher.get(B).rxmt_deadline == 40


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


def test_uniqueness_preserved_by_random_operations():
    rng = random.Random(99)
    table = NbrTable()
    for _ in range(500):
        op = rng.randrange(6)
        nip = rng.randint(2, 5)
        if op == 0 and table.get(nip) is None:
            table = new_nbr(table, dn(nip))
        elif op == 1:
            # downgrades below ExStart wipe the lists in the same update,
            # as in the protocol itself, so the empty-lists invariant holds
            ns = rng.choice(list(NS))
            if ns < NS.EX_START:
                table = nbr_set(table, nip, ns=ns, req_list=frozenset(),
                                rxmt_list=Lsdb())
            else:
                table = nbr_set(table, nip, ns=ns)
        elif op == 2:
            entry = table.get(nip)
            if entry is not None:
                table = nbr_set(table, nip, ddsqn=entry.ddsqn + 1)
        elif op == 3:
            table = nbr_set(table, nip, ns=rng.choice(list(NS)),
                            req_list=frozenset(), rxmt_list=Lsdb())
        elif op == 4:
            table = upd_rxmts(table, db((A, rng.randint(0, 9), ())), rng.randint(0, 99))
        else:
            table = nbr_set(table, nip, inact_deadline=rng.randint(0, 99))
        nips = [n.nip for n in table]
        assert len(nips) == len(set(nips))
