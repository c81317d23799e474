"""Detailed protocol state machine: adjacency establishment with
master/slave database exchange, request lists, retransmission and
acknowledgements.

Handlers are pure transitions, as in the simplified model.  The
database-description handler is a partition of guards; exactly one
branch applies to any input (see :func:`dbd_branch`, which the
exhaustive partition test exercises directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    Ack,
    DbdDetailed,
    DetailedNeighbor,
    EMPTY_LSDB,
    Hello,
    Lsa,
    LsaHeader,
    Lsdb,
    Message,
    NeighborState,
    NodeId,
    ProtocolConfig,
    ReqDetailed,
    SendInstruction,
    TimeStamp,
    Upd,
    broadcast,
    groupcast,
    hdr,
)
from .lsdb import get_lsa, install, lsa_exist, new_lsa_detailed
from .neighbors import (
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

Emissions = list[SendInstruction]


@dataclass(frozen=True)
class AdjPolicy:
    """Which node pairs are supposed to form an adjacency.

    ``allowed`` holds unordered pairs as (low, high) tuples; None means
    every pair is allowed.  The relation is symmetric by construction.
    """

    allowed: Optional[frozenset[tuple[NodeId, NodeId]]] = None

    @classmethod
    def total(cls) -> "AdjPolicy":
        return cls(None)

    @classmethod
    def of_pairs(cls, pairs) -> "AdjPolicy":
        return cls(frozenset((min(a, b), max(a, b)) for a, b in pairs))

    def allows(self, a: NodeId, b: NodeId) -> bool:
        if self.allowed is None:
            return True
        return (min(a, b), max(a, b)) in self.allowed


@dataclass(frozen=True)
class DetailedNodeState:
    ip: NodeId
    nbrs: NbrTable = NbrTable()
    lsdb: Lsdb = EMPTY_LSDB
    hellot: TimeStamp = 0

    @classmethod
    def initial(cls, ip: NodeId) -> "DetailedNodeState":
        return cls(ip=ip)


def _flood(
    state: DetailedNodeState, lsas: Lsdb, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[DetailedNodeState, Emissions]:
    """Send ``lsas`` to every exchange-level neighbour and queue them for
    retransmission.

    The retransmission deadline of each flooded-to neighbour is armed
    here: flooding is itself a transmission, so the retransmit clock
    starts now rather than firing on a stale deadline.
    """
    nbrs = upd_rxmts(state.nbrs, lsas)
    armed = []
    for n in nbrs:
        if n.ns >= NeighborState.EXCHANGE:
            armed.append(replace(n, rxmt_deadline=now + cfg.rxmtintvl))
        else:
            armed.append(n)
    nbrs = NbrTable.of(armed)
    st = replace(state, nbrs=nbrs)
    return st, [groupcast(Upd(lsas, st.ip), flood_nips(nbrs))]


def _refresh_own_lsa(
    state: DetailedNodeState, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[DetailedNodeState, Emissions]:
    lsa = new_lsa_detailed(state.ip, now, state.nbrs)
    st = replace(state, lsdb=install(state.lsdb, Lsdb.of([lsa])))
    return _flood(st, Lsdb.of([lsa]), now, cfg)


def detailed_timers(
    state: DetailedNodeState,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[DetailedNodeState, Emissions]:
    """Periodic work, each due action at most once per call, in order:
    hello, dead-neighbour removal, dbd/request/update retransmission,
    own-advertisement refresh."""
    st, ems = state, []

    if st.hellot <= now:
        st = replace(st, hellot=now + cfg.hellointvl)
        ems.append(broadcast(Hello(st.nbrs.nips(), st.ip)))

    dead = dead_nbrs(st.nbrs, now)
    if dead:
        gone = {n.nip for n in dead}
        live = NbrTable.of(n for n in st.nbrs if n.nip not in gone)
        st = replace(st, nbrs=live)
        st, more = _refresh_own_lsa(st, now, cfg)
        ems.extend(more)

    nip = select_fired(st.nbrs, now, st.ip, "dd")
    if nip is not None:
        st = replace(
            st, nbrs=nbr_field_set(st.nbrs, nip, "dd_deadline", now + cfg.rxmtintvl)
        )
        msg = gen_dbd(st.nbrs, st.lsdb, nip, st.ip)
        assert msg is not None
        ems.append(groupcast(msg, {nip}))

    nip = select_fired(st.nbrs, now, st.ip, "req")
    if nip is not None:
        entry = st.nbrs.get(nip)
        st = replace(
            st, nbrs=nbr_field_set(st.nbrs, nip, "req_deadline", now + cfg.rxmtintvl)
        )
        ems.append(groupcast(ReqDetailed(min_header(entry.req_list), st.ip), {nip}))

    nip = select_fired(st.nbrs, now, st.ip, "rxmt")
    if nip is not None:
        entry = st.nbrs.get(nip)
        st = replace(
            st, nbrs=nbr_field_set(st.nbrs, nip, "rxmt_deadline", now + cfg.rxmtintvl)
        )
        ems.append(groupcast(Upd(entry.rxmt_list, st.ip), {nip}))

    own = st.lsdb.get(st.ip)
    if own is not None and own.stamp + cfg.refreshintvl <= now:
        st, more = _refresh_own_lsa(st, now, cfg)
        ems.extend(more)

    return st, ems


def handle_hello_detailed(
    state: DetailedNodeState,
    ips: frozenset[NodeId],
    sip: NodeId,
    now: TimeStamp,
    adj: AdjPolicy,
    cfg: ProtocolConfig,
) -> tuple[DetailedNodeState, Emissions]:
    if not nbr_exist(state.nbrs, sip):
        entry = DetailedNeighbor(nip=sip, ns=NeighborState.INIT)
        st = replace(state, nbrs=new_nbr(state.nbrs, entry))
        return handle_hello_detailed(st, ips, sip, now, adj, cfg)

    nbrs = nbr_field_set(state.nbrs, sip, "inact_deadline", now + cfg.rtdeadintvl)
    st = replace(state, nbrs=nbrs)
    ns = st.nbrs.get(sip).ns

    if st.ip in ips:
        if ns == NeighborState.INIT and adj.allows(st.ip, sip):
            nbrs = nbr_field_set(st.nbrs, sip, "ns", NeighborState.EX_START)
            nbrs = inc_ddsqn(nbrs, sip)
            nbrs = nbr_field_set(nbrs, sip, "dd_deadline", now + cfg.rxmtintvl)
            st = replace(st, nbrs=nbrs)
            msg = gen_dbd(st.nbrs, st.lsdb, sip, st.ip)
            return st, [groupcast(msg, {sip})]
        if ns >= NeighborState.EX_START:
            return st, []
        if not adj.allows(st.ip, sip):
            return (
                replace(st, nbrs=nbr_field_set(st.nbrs, sip, "ns", NeighborState.TWO_WAY)),
                [],
            )
        return st, []
    # sender no longer lists us: wipe any adjacency progress
    return replace(st, nbrs=init_nbr(st.nbrs, sip, NeighborState.INIT)), []


# --- database description handling ---------------------------------------

DBD_BRANCHES = (
    "unknown",
    "init_non_adjacent",
    "two_way",
    "init_adjacent",
    "negotiate_slave",
    "negotiate_master",
    "negotiate_others",
    "exchange_duplicate_slave",
    "exchange_duplicate_master",
    "exchange_slave",
    "exchange_master",
    "exchange_others",
    "load_duplicate_slave",
    "load_duplicate_master",
    "load_others",
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
    """Evaluate every database-description guard independently.

    Returns all branch names whose guard holds; the handler relies on
    this being a singleton for every input, and the partition test
    checks that exhaustively.
    """
    adjacent = is_slave or is_master
    held = []
    if not known:
        held.append("unknown")
    else:
        if ns == NeighborState.INIT and not adjacent:
            held.append("init_non_adjacent")
        if ns == NeighborState.TWO_WAY:
            held.append("two_way")
        if ns == NeighborState.INIT and adjacent:
            held.append("init_adjacent")

        negotiate_slave = ns == NeighborState.EX_START and is_slave and ibit
        negotiate_master = (
            ns == NeighborState.EX_START
            and is_master
            and sqn == ddsqn
            and not ibit
        )
        if negotiate_slave:
            held.append("negotiate_slave")
        if negotiate_master:
            held.append("negotiate_master")
        if ns == NeighborState.EX_START and not negotiate_slave and not negotiate_master:
            held.append("negotiate_others")

        ex_dup_slave = ns == NeighborState.EXCHANGE and is_slave and sqn <= ddsqn
        ex_dup_master = ns == NeighborState.EXCHANGE and is_master and sqn < ddsqn
        ex_slave = (
            ns == NeighborState.EXCHANGE
            and is_slave
            and sqn == ddsqn + 1
            and not ibit
        )
        ex_master = (
            ns == NeighborState.EXCHANGE
            and is_master
            and sqn == ddsqn
            and not ibit
        )
        if ex_dup_slave:
            held.append("exchange_duplicate_slave")
        if ex_dup_master:
            held.append("exchange_duplicate_master")
        if ex_slave:
            held.append("exchange_slave")
        if ex_master:
            held.append("exchange_master")
        if ns == NeighborState.EXCHANGE and not (
            ex_dup_slave or ex_dup_master or ex_slave or ex_master
        ):
            held.append("exchange_others")

        loading = ns is not None and ns >= NeighborState.LOADING
        load_dup_slave = (
            loading and is_slave and sqn <= ddsqn and not ibit and dd_deadline >= now
        )
        load_dup_master = loading and is_master and sqn < ddsqn and not ibit
        if load_dup_slave:
            held.append("load_duplicate_slave")
        if load_dup_master:
            held.append("load_duplicate_master")
        if loading and not load_dup_slave and not load_dup_master:
            held.append("load_others")
    return held


def _finish_exchange(
    state: DetailedNodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[DetailedNodeState, Emissions]:
    """After a summary round: wait in Loading while requests are pending,
    otherwise declare the adjacency full and flood a fresh own LSA."""
    entry = state.nbrs.get(sip)
    if entry.req_list:
        nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.LOADING)
        return replace(state, nbrs=nbrs), []
    nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.FULL)
    st = replace(state, nbrs=nbrs)
    return _refresh_own_lsa(st, now, cfg)


def snmis(
    state: DetailedNodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[DetailedNodeState, Emissions]:
    """Sequence-number mismatch: restart the exchange from scratch."""
    if not nbr_exist(state.nbrs, sip):
        return state, []
    nbrs = init_nbr(state.nbrs, sip, NeighborState.EX_START)
    nbrs = inc_ddsqn(nbrs, sip)
    nbrs = nbr_field_set(nbrs, sip, "dd_deadline", now + cfg.rxmtintvl)
    st = replace(state, nbrs=nbrs)
    msg = gen_dbd(st.nbrs, st.lsdb, sip, st.ip)
    return st, [groupcast(msg, {sip})]


def handle_dbd_detailed(
    state: DetailedNodeState,
    hdrs: frozenset[LsaHeader],
    sqn: int,
    ibit: bool,
    sip: NodeId,
    now: TimeStamp,
    adj: AdjPolicy,
    cfg: ProtocolConfig,
    _redispatched: bool = False,
) -> tuple[DetailedNodeState, Emissions]:
    entry = state.nbrs.get(sip)
    known = entry is not None
    pair_adj = adj.allows(state.ip, sip)
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
        nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.TWO_WAY)
        return replace(state, nbrs=nbrs), []

    if branch == "init_adjacent":
        nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.EX_START)
        nbrs = inc_ddsqn(nbrs, sip)
        nbrs = nbr_field_set(nbrs, sip, "dd_deadline", now + cfg.rxmtintvl)
        st = replace(state, nbrs=nbrs)
        ems = [groupcast(gen_dbd(st.nbrs, st.lsdb, sip, st.ip), {sip})]
        if not _redispatched:
            # the same message is examined once more, now at ExStart
            st, more = handle_dbd_detailed(
                st, hdrs, sqn, ibit, sip, now, adj, cfg, _redispatched=True
            )
            ems.extend(more)
        return st, ems

    if branch == "negotiate_slave":
        # adopt the master's sequence number; the master, not the slave,
        # re-sends when replies go missing, so the dd timer stays put
        nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.EXCHANGE)
        nbrs = nbr_field_set(nbrs, sip, "ddsqn", sqn)
        st = replace(state, nbrs=nbrs)
        return st, [groupcast(gen_dbd(st.nbrs, st.lsdb, sip, st.ip), {sip})]

    if branch == "negotiate_master":
        nbrs = nbr_field_set(state.nbrs, sip, "ns", NeighborState.EXCHANGE)
        nbrs = inc_ddsqn(nbrs, sip)
        nbrs = nbr_field_set(nbrs, sip, "dd_deadline", now + cfg.rxmtintvl)
        st = replace(state, nbrs=nbrs)
        st = replace(st, nbrs=add_reqs(st.nbrs, sip, st.lsdb, hdrs))
        return st, [groupcast(gen_dbd(st.nbrs, st.lsdb, sip, st.ip), {sip})]

    if branch in ("exchange_duplicate_slave", "load_duplicate_slave"):
        # the earlier reply is assumed lost; regenerate it
        return state, [groupcast(gen_dbd(state.nbrs, state.lsdb, sip, state.ip), {sip})]

    if branch == "exchange_slave":
        nbrs = inc_ddsqn(state.nbrs, sip)
        nbrs = nbr_field_set(nbrs, sip, "dd_deadline", now + cfg.rxmtintvl)
        st = replace(state, nbrs=nbrs)
        st = replace(st, nbrs=add_reqs(st.nbrs, sip, st.lsdb, hdrs))
        ems = [groupcast(gen_dbd(st.nbrs, st.lsdb, sip, st.ip), {sip})]
        st, more = _finish_exchange(st, sip, now, cfg)
        return st, ems + more

    if branch == "exchange_master":
        nbrs = inc_ddsqn(state.nbrs, sip)
        st = replace(state, nbrs=nbrs)
        st = replace(st, nbrs=add_reqs(st.nbrs, sip, st.lsdb, hdrs))
        return _finish_exchange(st, sip, now, cfg)

    assert branch in ("exchange_others", "load_others")
    return snmis(state, sip, now, cfg)


def handle_req_detailed(
    state: DetailedNodeState, h: LsaHeader, sip: NodeId
) -> tuple[DetailedNodeState, Emissions]:
    """Serve a request when the sender is far enough along and we hold a
    copy at least as fresh as the one asked for; drop otherwise."""
    entry = state.nbrs.get(sip)
    if (
        entry is None
        or entry.ns < NeighborState.EXCHANGE
        or not lsa_exist(state.lsdb, h)
    ):
        return state, []
    lsa = get_lsa(state.lsdb, h)
    return state, [groupcast(Upd(Lsdb.of([lsa]), state.ip), {sip})]


def handle_upd_detailed(
    state: DetailedNodeState,
    lsas: Lsdb,
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[DetailedNodeState, Emissions]:
    if not nbr_exist(state.nbrs, sip):
        return state, []
    ems: Emissions = [
        groupcast(Ack(frozenset(hdr(l) for l in lsas), state.ip), {sip})
    ]
    fresh = [l for l in lsas if not lsa_exist(state.lsdb, hdr(l))]
    if not fresh:
        return state, ems
    freshdb = Lsdb.of(fresh)
    st = replace(state, lsdb=install(state.lsdb, freshdb))
    st = replace(st, nbrs=clean_reqs(st.nbrs, sip, st.lsdb))
    st, more = _flood(st, freshdb, now, cfg)
    ems.extend(more)

    entry = st.nbrs.get(sip)
    if entry.req_list:
        return st, ems
    if entry.ns == NeighborState.LOADING:
        nbrs = nbr_field_set(st.nbrs, sip, "ns", NeighborState.FULL)
        st = replace(st, nbrs=nbrs)
        st, more = _refresh_own_lsa(st, now, cfg)
        ems.extend(more)
    return st, ems


def handle_ack(
    state: DetailedNodeState, hdrs: frozenset[LsaHeader], sip: NodeId
) -> tuple[DetailedNodeState, Emissions]:
    if not nbr_exist(state.nbrs, sip):
        return state, []
    return replace(state, nbrs=clean_rxmts(state.nbrs, sip, hdrs)), []


def handle_message_detailed(
    state: DetailedNodeState,
    msg: Message,
    now: TimeStamp,
    adj: AdjPolicy,
    cfg: ProtocolConfig,
) -> tuple[DetailedNodeState, Emissions]:
    if isinstance(msg, Hello):
        return handle_hello_detailed(state, msg.ips, msg.sip, now, adj, cfg)
    if isinstance(msg, DbdDetailed):
        return handle_dbd_detailed(
            state, msg.hdrs, msg.sqn, msg.ibit, msg.sip, now, adj, cfg
        )
    if isinstance(msg, ReqDetailed):
        return handle_req_detailed(state, msg.hdr, msg.sip)
    if isinstance(msg, Upd):
        return handle_upd_detailed(state, msg.lsas, msg.sip, now, cfg)
    if isinstance(msg, Ack):
        return handle_ack(state, msg.hdrs, msg.sip)
    raise TypeError(f"detailed model cannot handle {type(msg).__name__}")
