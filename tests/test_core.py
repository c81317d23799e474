import dataclasses

import pytest

from ospfsim.core import (
    Ack,
    Dbd,
    Hello,
    Lsa,
    LsaHeader,
    Lsdb,
    Neighbor,
    NeighborState,
    Req,
    SendInstruction,
    Upd,
    broadcast,
    groupcast,
    hdr,
)

A, B, C = 1, 2, 3


def test_neighbor_state_chain():
    ns = NeighborState
    chain = [ns.INIT, ns.TWO_WAY, ns.EX_START, ns.EXCHANGE, ns.LOADING, ns.FULL]
    assert sorted(ns) == chain
    for earlier, later in zip(chain, chain[1:]):
        assert earlier < later


def test_hdr_projection():
    assert hdr(Lsa(A, 3, frozenset({B, C}))) == LsaHeader(A, 3)
    assert hdr(Lsa(B, 0, frozenset())) == LsaHeader(B, 0)
    assert hdr(Lsa(C, 7, frozenset({A}))) == LsaHeader(C, 7)


def test_lsa_rejects_self_link():
    with pytest.raises(ValueError):
        Lsa(A, 1, frozenset({A, B}))


def test_lsdb_rejects_duplicate_origin():
    with pytest.raises(ValueError):
        Lsdb.of([Lsa(A, 1, frozenset()), Lsa(A, 2, frozenset())])


def test_lsdb_is_order_insensitive_and_hashable():
    one = Lsdb.of([Lsa(A, 1, frozenset({B})), Lsa(B, 2, frozenset({A}))])
    two = Lsdb.of([Lsa(B, 2, frozenset({A})), Lsa(A, 1, frozenset({B}))])
    assert one == two
    assert hash(one) == hash(two)
    assert one.get(A).stamp == 1
    assert one.get(C) is None
    assert one.headers() == {LsaHeader(A, 1), LsaHeader(B, 2)}


def test_detailed_neighbor_rejects_lists_below_exstart():
    with pytest.raises(ValueError):
        Neighbor(nip=B, ns=NeighborState.INIT,
                         req_list=frozenset({LsaHeader(A, 1)}))
    Neighbor(nip=B, ns=NeighborState.EX_START,
                     req_list=frozenset({LsaHeader(A, 1)}))


def test_send_instruction_hello_must_broadcast():
    hello = Hello(frozenset({B}), A)
    assert broadcast(hello).is_broadcast
    with pytest.raises(ValueError):
        SendInstruction(hello, frozenset({B}))
    with pytest.raises(ValueError):
        SendInstruction(Ack(frozenset(), A), None)
    assert groupcast(Ack(frozenset(), A), {B}).dests == frozenset({B})


def test_message_kind():
    db = Lsdb.of([Lsa(A, 1, frozenset())])
    assert Hello(frozenset(), A).kind == "hello"
    assert Dbd(frozenset(), 0, True, A).kind == "dbd"
    assert Req(frozenset({LsaHeader(A, 1)}), A).kind == "req"
    assert Upd(db, A).kind == "upd"
    assert Ack(frozenset(), A).kind == "ack"
    # a class attribute, not a field: equality and hashing ignore it
    assert [f.name for f in dataclasses.fields(Hello)] == ["ips", "sip"]
