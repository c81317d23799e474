"""Simplified protocol state machine: lossless networks, no
retransmission, no acknowledgements.

Every handler is a pure transition (state, input) -> (state, emissions).
The engine owns the state and delivers inputs; emissions are send
instructions for its output queue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    DbdSimple,
    EMPTY_LSDB,
    Hello,
    LsaHeader,
    Lsdb,
    Message,
    NodeId,
    ProtocolConfig,
    ReqSimple,
    SendInstruction,
    SimpleNeighbor,
    TimeStamp,
    Upd,
    broadcast,
    groupcast,
    hdr,
)
from .lsdb import install, lsa_exist, new_lsa_simple
from .neighbors import (
    NbrTable,
    dead_nbrs,
    nbr_exist,
    nbr_field_set,
    new_nbr,
)

Emissions = list[SendInstruction]


@dataclass(frozen=True)
class SimpleNodeState:
    ip: NodeId
    nbrs: NbrTable = NbrTable()
    lsdb: Lsdb = EMPTY_LSDB
    hellot: TimeStamp = 0

    @classmethod
    def initial(cls, ip: NodeId) -> "SimpleNodeState":
        return cls(ip=ip)


def simple_timers(
    state: SimpleNodeState, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[SimpleNodeState, Emissions]:
    """Periodic work: send a hello when due, then drop dead neighbours
    and advertise the shrunken link set."""
    st, ems = state, []
    if st.hellot <= now:
        st = replace(st, hellot=now + cfg.hellointvl)
        ems.append(broadcast(Hello(st.nbrs.nips(), st.ip)))
    dead = dead_nbrs(st.nbrs, now)
    if dead:
        gone = {n.nip for n in dead}
        live = NbrTable.of(n for n in st.nbrs if n.nip not in gone)
        lsa = new_lsa_simple(st.ip, now, live)
        st = replace(st, nbrs=live, lsdb=install(st.lsdb, Lsdb.of([lsa])))
        ems.append(groupcast(Upd(Lsdb.of([lsa]), st.ip), live.nips()))
    return st, ems


def _discover(
    state: SimpleNodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[SimpleNodeState, Emissions]:
    """Shared new-neighbour block: record the sender, advertise the new
    link to everyone known, and offer the sender a database summary."""
    nbrs = new_nbr(state.nbrs, SimpleNeighbor(sip, now + cfg.rtdeadintvl))
    lsa = new_lsa_simple(state.ip, now, nbrs)
    lsdb = install(state.lsdb, Lsdb.of([lsa]))
    st = replace(state, nbrs=nbrs, lsdb=lsdb)
    return st, [
        groupcast(Upd(Lsdb.of([lsa]), st.ip), nbrs.nips()),
        groupcast(DbdSimple(lsdb.headers(), st.ip), {sip}),
    ]


def handle_hello_simple(
    state: SimpleNodeState,
    ips: frozenset[NodeId],
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[SimpleNodeState, Emissions]:
    # ips is carried on the wire but never read in this model
    del ips
    if not nbr_exist(state.nbrs, sip):
        return _discover(state, sip, now, cfg)
    nbrs = nbr_field_set(state.nbrs, sip, "inact_deadline", now + cfg.rtdeadintvl)
    return replace(state, nbrs=nbrs), []


def handle_dbd_simple(
    state: SimpleNodeState,
    hdrs: frozenset[LsaHeader],
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[SimpleNodeState, Emissions]:
    st, ems = state, []
    if not nbr_exist(st.nbrs, sip):
        st, ems = _discover(st, sip, now, cfg)
    reqs = frozenset(h for h in hdrs if not lsa_exist(st.lsdb, h))
    if reqs:
        ems.append(groupcast(ReqSimple(reqs, st.ip), {sip}))
    return st, ems


def handle_req_simple(
    state: SimpleNodeState, hdrs: frozenset[LsaHeader], sip: NodeId
) -> tuple[SimpleNodeState, Emissions]:
    if not nbr_exist(state.nbrs, sip):
        return state, []
    origins = {h.origin for h in hdrs}
    lsas = Lsdb.of(l for l in state.lsdb if l.origin in origins)
    # an empty reply is still sent; the receiving handler ignores it
    return state, [groupcast(Upd(lsas, state.ip), {sip})]


def handle_upd_simple(
    state: SimpleNodeState, lsas: Lsdb, sip: NodeId
) -> tuple[SimpleNodeState, Emissions]:
    del sip
    fresh = [l for l in lsas if not lsa_exist(state.lsdb, hdr(l))]
    if not fresh:
        return state, []
    freshdb = Lsdb.of(fresh)
    st = replace(state, lsdb=install(state.lsdb, freshdb))
    return st, [groupcast(Upd(freshdb, st.ip), st.nbrs.nips())]


def handle_message_simple(
    state: SimpleNodeState, msg: Message, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[SimpleNodeState, Emissions]:
    if isinstance(msg, Hello):
        return handle_hello_simple(state, msg.ips, msg.sip, now, cfg)
    if isinstance(msg, DbdSimple):
        return handle_dbd_simple(state, msg.hdrs, msg.sip, now, cfg)
    if isinstance(msg, ReqSimple):
        return handle_req_simple(state, msg.hdrs, msg.sip)
    if isinstance(msg, Upd):
        return handle_upd_simple(state, msg.lsas, msg.sip)
    raise TypeError(f"simple model cannot handle {type(msg).__name__}")
