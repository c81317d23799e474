"""Simplified protocol state machine: lossless networks, no
retransmission, no acknowledgements.

Every handler is a pure transition (state, input) -> (state, emissions).
The engine owns the state and delivers inputs; emissions are send
instructions for its output queue.
"""

from __future__ import annotations

from .core import (
    Dbd,
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
from .neighbors import drop_dead, nbr_set, new_nbr

Emissions = list[SendInstruction]


def simple_timers(
    state: NodeState, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    """Periodic work: send a hello when due, then drop dead neighbours
    and advertise the shrunken link set.  Before :func:`simple_timers_due`
    of ``state`` neither is due and ``(state, [])`` comes back."""
    st, ems = state, []
    if st.hellot <= now:
        st = st.evolve(hellot=now + cfg.hellointvl)
        ems.append(broadcast(Hello(st.nbrs.nips(), st.ip)))
    live = drop_dead(st.nbrs, now)
    if live is not st.nbrs:
        st, own = originate(st.evolve(nbrs=live), now)
        ems.append(groupcast(Upd(own, st.ip), live.nips()))
    return st, ems


def simple_timers_due(state: NodeState, cfg: ProtocolConfig) -> TimeStamp:
    """The first tick at which :func:`simple_timers` acts on ``state``:
    the hello due tick, or the tick after the earliest inactivity
    deadline if that comes first."""
    del cfg
    due = state.hellot
    for n in state.nbrs.entries:
        if n.inact_deadline < due:
            due = n.inact_deadline + 1
    return due


def _discover(
    state: NodeState, sip: NodeId, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    """Shared new-neighbour block: record the sender, advertise the new
    link to everyone known, and offer the sender a database summary."""
    nbrs = new_nbr(
        state.nbrs, Neighbor(sip, NeighborState.TWO_WAY, now + cfg.rtdeadintvl))
    st, own = originate(state.evolve(nbrs=nbrs), now)
    return st, [
        groupcast(Upd(own, st.ip), nbrs.nips()),
        groupcast(Dbd(st.lsdb.headers(), 0, False, st.ip), {sip}),
    ]


def handle_hello_simple(
    state: NodeState,
    ips: frozenset[NodeId],
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    # ips is carried on the wire but never read in this model
    del ips
    if state.nbrs.get(sip) is None:
        return _discover(state, sip, now, cfg)
    nbrs = nbr_set(state.nbrs, sip, inact_deadline=now + cfg.rtdeadintvl)
    return state.evolve(nbrs=nbrs), []


def handle_dbd_simple(
    state: NodeState,
    hdrs: frozenset[LsaHeader],
    sip: NodeId,
    now: TimeStamp,
    cfg: ProtocolConfig,
) -> tuple[NodeState, Emissions]:
    st, ems = state, []
    if st.nbrs.get(sip) is None:
        st, ems = _discover(st, sip, now, cfg)
    reqs = frozenset(h for h in hdrs if not lsa_exist(st.lsdb, h))
    if reqs:
        ems.append(groupcast(Req(reqs, st.ip), {sip}))
    return st, ems


def handle_req_simple(
    state: NodeState, hdrs: frozenset[LsaHeader], sip: NodeId
) -> tuple[NodeState, Emissions]:
    if state.nbrs.get(sip) is None:
        return state, []
    origins = {h.origin for h in hdrs}
    lsas = Lsdb.of(l for l in state.lsdb if l.origin in origins)
    # an empty reply is still sent; the receiving handler ignores it
    return state, [groupcast(Upd(lsas, state.ip), {sip})]


def handle_upd_simple(
    state: NodeState, lsas: Lsdb, sip: NodeId
) -> tuple[NodeState, Emissions]:
    del sip
    fresh = [l for l in lsas if not lsa_exist(state.lsdb, hdr(l))]
    if not fresh:
        return state, []
    freshdb = Lsdb.of(fresh)
    st = state.evolve(lsdb=install(state.lsdb, freshdb))
    return st, [groupcast(Upd(freshdb, st.ip), st.nbrs.nips())]


def handle_message_simple(
    state: NodeState, msg: Message, now: TimeStamp, cfg: ProtocolConfig
) -> tuple[NodeState, Emissions]:
    if isinstance(msg, Hello):
        return handle_hello_simple(state, msg.ips, msg.sip, now, cfg)
    if isinstance(msg, Dbd):
        return handle_dbd_simple(state, msg.hdrs, msg.sip, now, cfg)
    if isinstance(msg, Req):
        return handle_req_simple(state, msg.hdrs, msg.sip)
    if isinstance(msg, Upd):
        return handle_upd_simple(state, msg.lsas, msg.sip)
    raise TypeError(f"simple model cannot handle {type(msg).__name__}")
