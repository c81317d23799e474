"""Detailed protocol state machine: adjacency establishment with
master/slave database exchange, request lists, retransmission and
acknowledgements.

Handlers are pure transitions, as in the simplified model.  The
database-description guards are one ordered table, from which both
:func:`dbd_branch` and ``DBD_BRANCHES`` derive; they partition the
inputs, exactly one branch applying to each.  The hello and
database-description handlers take ``adj``, the graph of node pairs
allowed to become adjacent (RFC 2328 §10.4).
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Ack,
    Dbd,
    EMPTY_LSDB,
    Hello,
    LsaHeader,
    Lsdb,
    Message,
    Neighbor,
    NeighborState,
    NodeId,
    NodeState,
    ProtocolConfig,
    Req,
    SendInstruction,
    TimeStamp,
    Upd,
    broadcast,
    groupcast,
    hdr,
)
from .lsdb import install, lsa_exist, originate
from .neighbors import (
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
from .topology import Topology

Emissions = list[SendInstruction]

_EX_START, _EXCHANGE = NeighborState.EX_START, NeighborState.EXCHANGE


def _flood(
    state: NodeState, lsas: Lsdb, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    """Send ``lsas`` to every exchange-level neighbour and queue them for
    retransmission.

    The retransmission deadline of each flooded-to neighbour is armed
    here: flooding is itself a transmission, so the retransmit clock
    starts now rather than firing on a stale deadline.
    """
    nbrs = upd_rxmts(state.nbrs, lsas, now + cfg.rxmtintvl)
    st = state.evolve(nbrs=nbrs)
    return st, [groupcast(Upd(lsas, st.ip), flood_nips(nbrs))]


def _summary_to(state: NodeState, nip: NodeId) -> SendInstruction:
    """This node's database summary, sent to ``nip`` alone."""
    return groupcast(gen_dbd(state.nbrs, state.lsdb, nip, state.ip), {nip})


def _refresh_own_lsa(
    state: NodeState, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    st, own = originate(state, now)
    return _flood(st, own, now, cfg)


def detailed_timers(
    state: NodeState,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    """Periodic work, each due action at most once per call, in order:
    hello, dead-neighbour removal, dbd/request/update retransmission,
    own-advertisement refresh."""
    st, ems = state, []

    if st.hellot <= now:
        st = st.evolve(hellot=now + cfg.hellointvl)
        ems.append(broadcast(Hello(st.nbrs.nips(), st.ip)))

    live = drop_dead(st.nbrs, now)
    if live is not st.nbrs:
        st, more = _refresh_own_lsa(st.evolve(nbrs=live), now, cfg)
        ems.extend(more)

    # the lowest-id neighbour whose timer fired, per timer; at Exchange
    # only the side driving the exchange (neighbour id <= own id)
    # re-sends its database description
    dd = req = rxmt = None
    for n in st.nbrs.entries:
        if dd is None and n.dd_deadline < now:
            ns = n.ns
            if ns == _EX_START or (ns == _EXCHANGE and n.nip <= st.ip):
                dd = n.nip
        if req is None and n.req_deadline < now and n.req_list:
            req = n.nip
        if rxmt is None and n.rxmt_deadline < now and n.rxmt_list.entries:
            rxmt = n.nip
    rearm = now + cfg.rxmtintvl
    if dd is not None:
        st = st.evolve(nbrs=nbr_set(st.nbrs, dd, dd_deadline=rearm))
        ems.append(_summary_to(st, dd))
    if req is not None:
        st = st.evolve(nbrs=nbr_set(st.nbrs, req, req_deadline=rearm))
        first = min(st.nbrs.get(req).req_list)
        ems.append(groupcast(Req(frozenset({first}), st.ip), {req}))
    if rxmt is not None:
        st = st.evolve(nbrs=nbr_set(st.nbrs, rxmt, rxmt_deadline=rearm))
        ems.append(groupcast(Upd(st.nbrs.get(rxmt).rxmt_list, st.ip), {rxmt}))

    own = st.lsdb.get(st.ip)
    if own is not None and own.stamp + cfg.refreshintvl <= now:
        st, more = _refresh_own_lsa(st, now, cfg)
        ems.extend(more)

    return st, ems


def handle_hello_detailed(
    state: NodeState,
    ips: frozenset[NodeId],
    sip: NodeId,
    now: TimeStamp,
    adj: Topology,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    entry = state.nbrs.get(sip)
    nbrs = state.nbrs
    if entry is None:
        entry = Neighbor(nip=sip, ns=NeighborState.INIT)
        nbrs = new_nbr(nbrs, entry)
    fields = {"inact_deadline": now + cfg.rtdeadintvl}
    start = False
    if state.ip not in ips:
        # sender no longer lists us: wipe any adjacency progress
        fields.update(ns=NeighborState.INIT, req_list=frozenset(),
                      rxmt_list=EMPTY_LSDB)
    elif entry.ns == NeighborState.INIT and adj.connected(state.ip, sip):
        start = True
    elif entry.ns < NeighborState.EX_START and not adj.connected(state.ip, sip):
        fields.update(ns=NeighborState.TWO_WAY)
    st = state.evolve(nbrs=nbr_set(nbrs, sip, **fields))
    if not start:
        return st, []
    return snmis(st, sip, now, cfg)


# --- database description handling ---------------------------------------

def _dbd_guards(known, ns, sqn, ddsqn, ibit, is_slave, is_master, dd_deadline, now):
    """Every database-description branch, in the model's order, next to
    whether its guard holds (arguments as for :func:`dbd_branch`); each
    ``*_others`` branch takes what its state's other branches leave."""
    adjacent = is_slave or is_master
    init = known and ns == NeighborState.INIT
    ex_start = known and ns == NeighborState.EX_START
    exchange = known and ns == NeighborState.EXCHANGE
    loading = known and ns is not None and ns >= NeighborState.LOADING
    neg_slave = ex_start and is_slave and ibit
    neg_master = ex_start and is_master and sqn == ddsqn and not ibit
    ex_dup_slave = exchange and is_slave and sqn <= ddsqn
    ex_dup_master = exchange and is_master and sqn < ddsqn
    ex_slave = exchange and is_slave and sqn == ddsqn + 1 and not ibit
    ex_master = exchange and is_master and sqn == ddsqn and not ibit
    ld_dup_slave = loading and is_slave and sqn <= ddsqn and not ibit and dd_deadline >= now
    ld_dup_master = loading and is_master and sqn < ddsqn and not ibit
    ex_any = ex_dup_slave or ex_dup_master or ex_slave or ex_master
    return (
        ("unknown", not known),
        ("init_non_adjacent", init and not adjacent),
        ("two_way", known and ns == NeighborState.TWO_WAY),
        ("init_adjacent", init and adjacent),
        ("negotiate_slave", neg_slave),
        ("negotiate_master", neg_master),
        ("negotiate_others", ex_start and not (neg_slave or neg_master)),
        ("exchange_duplicate_slave", ex_dup_slave),
        ("exchange_duplicate_master", ex_dup_master),
        ("exchange_slave", ex_slave),
        ("exchange_master", ex_master),
        ("exchange_others", exchange and not ex_any),
        ("load_duplicate_slave", ld_dup_slave),
        ("load_duplicate_master", ld_dup_master),
        ("load_others", loading and not (ld_dup_slave or ld_dup_master)),
    )


DBD_BRANCHES = tuple(
    name for name, _ in _dbd_guards(False, None, 0, 0, False, False, False, 0, 0)
)


def dbd_branch(
    known: bool,
    ns: Optional[NeighborState],
    sqn: int,
    ddsqn: int,
    ibit: bool,
    is_slave: bool,
    is_master: bool,
    dd_deadline: TimeStamp,
    now: TimeStamp,
) -> list[str]:
    """Every branch whose guard holds, each guard evaluated on its own;
    the handler relies on this being a singleton for every input, and the
    partition tests check that exhaustively."""
    guards = _dbd_guards(known, ns, sqn, ddsqn, ibit, is_slave, is_master,
                         dd_deadline, now)
    return [name for name, held in guards if held]


def _finish_exchange(
    state: NodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    """After a summary round, or an update while Loading: wait in Loading
    while requests are pending, otherwise declare the adjacency full and
    flood a fresh own LSA."""
    if state.nbrs.get(sip).req_list:
        return state.evolve(nbrs=nbr_set(state.nbrs, sip, ns=NeighborState.LOADING)), []
    st = state.evolve(nbrs=nbr_set(state.nbrs, sip, ns=NeighborState.FULL))
    return _refresh_own_lsa(st, now, cfg)


def snmis(
    state: NodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    """Enter ExStart and open the exchange from scratch.  This is the
    only way into ExStart: a hello or dbd that starts the adjacency and
    a sequence-number mismatch take the same action (AdjOK and
    SeqNumberMismatch, RFC 2328 §10.3)."""
    entry = state.nbrs.get(sip)
    if entry is None:
        return state, []
    nbrs = nbr_set(
        state.nbrs, sip, ns=NeighborState.EX_START, req_list=frozenset(),
        rxmt_list=EMPTY_LSDB, ddsqn=entry.ddsqn + 1,
        dd_deadline=now + cfg.rxmtintvl,
    )
    st = state.evolve(nbrs=nbrs)
    return st, [_summary_to(st, sip)]


def handle_dbd_detailed(
    state: NodeState,
    hdrs: frozenset[LsaHeader],
    sqn: int,
    ibit: bool,
    sip: NodeId,
    now: TimeStamp,
    adj: Topology,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    entry = state.nbrs.get(sip)
    known = entry is not None
    pair_adj = adj.connected(state.ip, sip)
    is_slave = pair_adj and state.ip < sip
    is_master = pair_adj and state.ip > sip
    held = dbd_branch(
        known,
        entry.ns if known else None,
        sqn,
        entry.ddsqn if known else 0,
        ibit,
        is_slave,
        is_master,
        entry.dd_deadline if known else 0,
        now,
    )
    assert len(held) == 1, f"guards not a partition: {held}"
    branch = held[0]

    if branch in ("unknown", "two_way", "negotiate_others", "exchange_duplicate_master",
                  "load_duplicate_master"):
        return state, []

    if branch == "init_non_adjacent":
        return state.evolve(nbrs=nbr_set(state.nbrs, sip, ns=NeighborState.TWO_WAY)), []

    if branch == "init_adjacent":
        st, ems = snmis(state, sip, now, cfg)
        # the same message is examined once more, now at ExStart, where
        # only a negotiate_* branch applies and none of those recurses
        st, more = handle_dbd_detailed(st, hdrs, sqn, ibit, sip, now, adj, cfg)
        return st, ems + more

    if branch == "negotiate_slave":
        # adopt the master's sequence number; the master, not the slave,
        # re-sends when replies go missing, so the dd timer stays put
        nbrs = nbr_set(state.nbrs, sip, ns=NeighborState.EXCHANGE, ddsqn=sqn)
        st = state.evolve(nbrs=nbrs)
        return st, [_summary_to(st, sip)]

    if branch in ("exchange_duplicate_slave", "load_duplicate_slave"):
        # the earlier reply is assumed lost; regenerate it
        return state, [_summary_to(state, sip)]

    if branch in ("exchange_others", "load_others"):
        return snmis(state, sip, now, cfg)

    reqs = add_reqs(entry.req_list, state.lsdb, hdrs)
    if branch in ("negotiate_master", "exchange_slave"):
        # the master enters Exchange here; the slave is there already
        nbrs = nbr_set(state.nbrs, sip, ns=NeighborState.EXCHANGE, req_list=reqs,
                       ddsqn=entry.ddsqn + 1, dd_deadline=now + cfg.rxmtintvl)
        st = state.evolve(nbrs=nbrs)
        ems = [_summary_to(st, sip)]
        if branch == "exchange_slave":
            st, more = _finish_exchange(st, sip, now, cfg)
            ems += more
        return st, ems

    assert branch == "exchange_master"
    nbrs = nbr_set(state.nbrs, sip, req_list=reqs, ddsqn=entry.ddsqn + 1)
    return _finish_exchange(state.evolve(nbrs=nbrs), sip, now, cfg)


def handle_req_detailed(
    state: NodeState, hdrs: frozenset[LsaHeader], sip: NodeId
) -> tuple[NodeState, Emissions]:
    """Serve a sender at Exchange or beyond one update with each asked-for
    entry we hold at least as fresh; send nothing when none qualifies."""
    entry = state.nbrs.get(sip)
    if entry is None or entry.ns < NeighborState.EXCHANGE:
        return state, []
    lsas = Lsdb.of(state.lsdb.get(h.origin) for h in hdrs
                   if lsa_exist(state.lsdb, h))
    if not lsas:
        return state, []
    return state, [groupcast(Upd(lsas, state.ip), {sip})]


def handle_upd_detailed(
    state: NodeState,
    lsas: Lsdb,
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    entry = state.nbrs.get(sip)
    if entry is None:
        return state, []
    hdrs = [hdr(l) for l in lsas]
    ems: Emissions = [groupcast(Ack(frozenset(hdrs), state.ip), {sip})]
    fresh = Lsdb.of(l for l, h in zip(lsas, hdrs) if not lsa_exist(state.lsdb, h))
    if not fresh and not entry.req_list:
        return state, ems
    st = state.evolve(lsdb=install(state.lsdb, fresh))
    # clean the sender's request list on every update, fresh or not: an
    # entry may be outdated by an instance learnt from another neighbour
    # (RFC 2328 §13.3), and nothing this neighbour sends is then fresh
    st = st.evolve(nbrs=clean_reqs(st.nbrs, sip, st.lsdb))
    if fresh:
        st, more = _flood(st, fresh, now, cfg)
        ems.extend(more)
    if st.nbrs.get(sip).ns == NeighborState.LOADING:
        st, more = _finish_exchange(st, sip, now, cfg)
        ems.extend(more)
    return st, ems


def handle_ack(
    state: NodeState, hdrs: frozenset[LsaHeader], sip: NodeId
) -> tuple[NodeState, Emissions]:
    return state.evolve(nbrs=clean_rxmts(state.nbrs, sip, hdrs)), []


def handle_message_detailed(
    state: NodeState,
    msg: Message,
    now: TimeStamp,
    adj: Topology,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    if isinstance(msg, Hello):
        return handle_hello_detailed(state, msg.ips, msg.sip, now, adj, cfg)
    if isinstance(msg, Dbd):
        return handle_dbd_detailed(
            state, msg.hdrs, msg.sqn, msg.ibit, msg.sip, now, adj, cfg
        )
    if isinstance(msg, Req):
        return handle_req_detailed(state, msg.hdrs, msg.sip)
    if isinstance(msg, Upd):
        return handle_upd_detailed(state, msg.lsas, msg.sip, now, cfg)
    if isinstance(msg, Ack):
        return handle_ack(state, msg.hdrs, msg.sip)
    raise TypeError(f"detailed model cannot handle {type(msg).__name__}")
