"""Discrete-time network engine.

All nodes share a global tick.  Per tick: due transmissions deliver
into per-node FIFO input queues (subject to the loss model), every
booted node runs its timer block if it is due and consumes at most one
queued message, emitted send instructions join the node's output FIFO,
and an idle sender starts transmitting the head of that FIFO.  One
transmission per node is in flight at a time.

A node's timer block is due from the tick its model's ``*_timers_due``
gives for the node's state; before that tick the block would return the
state unchanged and send nothing, so it is not called.  The due tick is
computed once per state object, so a state set from outside is read
again.

Identical (config, topology, seed) produce bit-identical traces.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional, get_args

from .core import (
    Hello,
    Lsdb,
    Message,
    NeighborState,
    NodeId,
    NodeState,
    ProtocolConfig,
    SendInstruction,
    TimeStamp,
)
from .detailed import (
    detailed_timers,
    detailed_timers_due,
    handle_message_detailed,
)
from .simple import handle_message_simple, simple_timers, simple_timers_due
from .topology import Topology

MESSAGE_KINDS = tuple(cls.kind for cls in get_args(Message))


def format_counts(counts) -> str:
    """Per-kind message counts as ``hello=N dbd=N req=N upd=N ack=N``."""
    return " ".join(f"{k}={counts.get(k, 0)}" for k in MESSAGE_KINDS)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EngineConfig(ProtocolConfig):
    """The protocol timers, inherited, and the settings of one run."""

    model: str = "detailed"
    time_sending: int = 1
    boot_offsets: dict[NodeId, int] = field(default_factory=dict)
    loss_prob: float = 0.0
    seed: int = 0
    max_ticks: int = 10_000
    queue_capacity: Optional[int] = None
    # the graph of allowed adjacencies; None lets every link form one
    adjacency: Optional[Topology] = None

    def validate(self) -> None:
        if self.model not in ("simple", "detailed"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.model == "simple" and self.loss_prob != 0.0:
            raise ConfigError("the simple model assumes guaranteed receipt; "
                              "loss_prob must be 0")
        if self.model == "simple" and self.adjacency is not None:
            raise ConfigError("the simple model forms every adjacency; "
                              "adj pairs must not restrict it")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError("loss_prob must lie in [0, 1]")
        if self.time_sending < 1:
            raise ConfigError("time_sending must be at least 1 tick")
        for timer in fields(ProtocolConfig):
            if getattr(self, timer.name) < 1:
                raise ConfigError(f"{timer.name} must be positive")
        if self.max_ticks < 1:
            raise ConfigError("max_ticks must be positive")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be positive")
        for node, t in self.boot_offsets.items():
            if t < 0:
                raise ConfigError(f"boot offset for node {node} must be >= 0")


class TraceEvent:
    """One trace record.  ``TraceEvent(tick, node, kind, detail)`` keeps
    the dict it is given; a record that the engine builds keeps the raw
    values it was given instead, and builds ``detail`` from them on each
    read without storing it."""

    # the raw values _a, _b, _c: sender, message kind and drop reason of
    # a deliver or drop; message kind and recipients of a send; neighbour,
    # new and previous NeighborState of a state change; the installed Lsa
    __slots__ = ("tick", "node", "kind", "_detail", "_a", "_b", "_c")

    def __init__(self, tick: TimeStamp, node: NodeId, kind: str,
                 detail: Optional[dict] = None, a=None, b=None, c=None):
        self.tick = tick
        self.node = node
        self.kind = kind
        self._detail = detail
        self._a, self._b, self._c = a, b, c

    @property
    def detail(self) -> dict:
        if self._detail is not None:
            return self._detail
        kind, a, b, c = self.kind, self._a, self._b, self._c
        if kind == "send":
            return {"type": a,
                    "method": "broadcast" if a == "hello" else "groupcast",
                    "recipients": list(b)}
        if kind == "deliver":
            return {"from": a, "type": b}
        if kind == "drop":
            return {"from": a, "type": b, "reason": c}
        if kind == "state_change":
            return {"nbr": a, "ns": b.label(),
                    "prev": c.label() if c is not None else None}
        return {"origin": a.origin, "stamp": a.stamp, "links": sorted(a.links)}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.tick, self.node, self.kind, self.detail)
                == (other.tick, other.node, other.kind, other.detail))

    def __repr__(self) -> str:
        return (f"TraceEvent(tick={self.tick!r}, node={self.node!r}, "
                f"kind={self.kind!r}, detail={self.detail!r})")

    def render(self) -> str:
        return _JSON.encode({"tick": self.tick, "node": self.node,
                             "kind": self.kind, "detail": self.detail})


_JSON = json.JSONEncoder(separators=(",", ":"))


def delivery_event(tick: TimeStamp, rcpt: NodeId, sender: NodeId, kind: str,
                   drop_reason: Optional[str] = None) -> TraceEvent:
    """A deliver record, or a drop record when ``drop_reason`` is given."""
    return TraceEvent(tick, rcpt, "deliver" if drop_reason is None else "drop",
                      None, sender, kind, drop_reason)


def send_event(tick: TimeStamp, ip: NodeId, kind: str,
               recipients) -> TraceEvent:
    """A send record, with ``recipients`` given in ascending id; hellos
    are always broadcast, everything else is always groupcast.  The
    record keeps ``recipients``, so the caller must not change it."""
    return TraceEvent(tick, ip, "send", None, kind, recipients)


def parse_trace_line(line: str) -> TraceEvent:
    """One rendered record; ValueError unless it is a JSON object with
    int ``tick`` and ``node``, str ``kind`` and object ``detail``, whose
    send ``type`` is a message kind and whose state-change ``nbr`` is an
    int and ``ns`` a str."""
    rec = json.loads(line)
    detail = rec.get("detail") if isinstance(rec, dict) else None
    ok = (isinstance(detail, dict) and type(rec.get("tick")) is int
          and type(rec.get("node")) is int and isinstance(rec.get("kind"), str))
    if ok and rec["kind"] == "send":
        ok = detail.get("type") in MESSAGE_KINDS
    elif ok and rec["kind"] == "state_change":
        ok = type(detail.get("nbr")) is int and isinstance(detail.get("ns"), str)
    if not ok:
        raise ValueError(f"malformed trace record {line!r}")
    return TraceEvent(rec["tick"], rec["node"], rec["kind"], rec["detail"])


@dataclass
class InFlight:
    payload: Message
    recipients: list[NodeId]  # ascending id, the delivery order
    deliver_at: TimeStamp


@dataclass
class _NodeRuntime:
    state: object
    booted: bool = False
    inq: deque = field(default_factory=deque)
    outq: deque = field(default_factory=deque)
    sending: Optional[InFlight] = None
    # the tick from which the timer block acts on ``due_of``, the state
    # object it was computed from
    due_of: object = None
    due: TimeStamp = 0


@dataclass
class Verdict:
    kind: str  # converged | timed_out | queue_overflow
    at_tick: Optional[TimeStamp] = None
    counts: dict[str, int] = field(default_factory=dict)
    node: Optional[NodeId] = None

    @property
    def total_messages(self) -> int:
        return sum(self.counts.values())

    def line(self) -> str:
        if self.kind == "converged":
            return (f"CONVERGED tick={self.at_tick} msgs={self.total_messages} "
                    + format_counts(self.counts))
        if self.kind == "timed_out":
            return "TIMEOUT"
        return f"OVERFLOW node={self.node} tick={self.at_tick}"


class SimState:
    """One running simulation.  Drive it with :meth:`tick` or use
    :func:`run` for the whole loop."""

    def __init__(self, config: EngineConfig, topology: Topology):
        config.validate()
        # adjacencies form over links only; advertisements cross allowed
        # adjacencies only, so a restriction that splits a topology
        # component could never converge
        self.adjacency = topology
        if config.adjacency is not None:
            self.adjacency = Topology(
                topology.n, topology.edges & config.adjacency.edges)
            for ip in topology.nodes():
                reach = self.adjacency.component_of(ip)
                if reach != topology.component_of(ip):
                    raise ConfigError(
                        f"adj pairs split a topology component: node {ip} "
                        f"reaches only {sorted(reach)} by adjacencies")
        absent = sorted(set(config.boot_offsets).difference(topology.nodes()))
        if absent:
            raise ConfigError(f"boot offsets for nodes {absent}, which the "
                              f"topology lacks")
        self.config = config
        self.topology = topology
        self.now: TimeStamp = 0
        self.rng = random.Random(config.seed)
        self.counts: dict[str, int] = {k: 0 for k in MESSAGE_KINDS}
        # the first node whose queue outgrew queue_capacity
        self.overflow: Optional[NodeId] = None
        # in ascending id, the order in which every phase of a tick walks them
        self.nodes: dict[NodeId, _NodeRuntime] = {}
        for ip in topology.nodes():
            self.nodes[ip] = _NodeRuntime(state=NodeState(ip))
        # the model's timer block (state, now, cfg), its due tick
        # (state, cfg) and message handler (state, msg, now, cfg), read
        # from this module's globals once: a wrapper put there before the
        # run (bench/layertrace.py) is used
        if config.model == "simple":
            self.timers, self.handle = simple_timers, handle_message_simple
            self.timers_due = simple_timers_due
        else:
            adj, handle = self.adjacency, handle_message_detailed
            self.timers, self.timers_due = detailed_timers, detailed_timers_due
            self.handle = lambda state, msg, now, cfg: handle(
                state, msg, now, adj, cfg)

    # -- helpers -----------------------------------------------------

    def _check_capacity(self, ip: NodeId, rt: _NodeRuntime, cap: int) -> None:
        if self.overflow is not None:
            return
        if len(rt.inq) > cap or len(rt.outq) > cap:
            self.overflow = ip

    def _diff_events(self, ip: NodeId, before, after, events: list[TraceEvent]):
        """State-change and install events derived from a transition.

        A neighbour table or database that the transition left as the
        same object has not changed, so it is not scanned; ``install``
        keeps the object when nothing incoming is fresher, and the
        entries it did not replace, so those are tested by identity
        before equality.
        """
        if self.config.model == "detailed" and after.nbrs is not before.nbrs:
            prev = {n.nip: n.ns for n in before.nbrs}
            for n in after.nbrs:
                old = prev.get(n.nip)
                if old is not n.ns:
                    events.append(TraceEvent(self.now, ip, "state_change",
                                             None, n.nip, n.ns, old))
        if after.lsdb is before.lsdb:
            return
        prev = before.lsdb.by_origin
        for lsa in after.lsdb.entries:
            old = prev.get(lsa.origin)
            if old is not lsa and old != lsa:
                events.append(
                    TraceEvent(self.now, ip, "lsa_install", None, lsa))

    # -- one global tick ----------------------------------------------

    def tick(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        now = self.now
        cfg = self.config
        loss_prob, cap = cfg.loss_prob, cfg.queue_capacity

        # 1. complete due transmissions, in ascending sender id; each
        # recipient's deliver and drop records wait for its turn
        delivered: dict[NodeId, list[TraceEvent]] = {}
        dropped: dict[NodeId, list[TraceEvent]] = {}
        for sender, srt in self.nodes.items():
            flight = srt.sending
            if flight is None or flight.deliver_at > now:
                continue
            kind = flight.payload.kind
            for rcpt in flight.recipients:
                rt = self.nodes[rcpt]
                if not rt.booted:
                    reason = "not_booted"
                elif loss_prob > 0 and self.rng.random() < loss_prob:
                    reason = "loss"
                else:
                    reason = None
                    rt.inq.append(flight.payload)
                    if cap is not None:
                        self._check_capacity(rcpt, rt, cap)
                (dropped if reason else delivered).setdefault(rcpt, []).append(
                    delivery_event(now, rcpt, sender, kind, reason))
            srt.sending = None

        # 2. node turns, each making its node's records in phase order:
        # what arrived, timers if due, then at most one queued message;
        # then an idle sender starts transmitting the head of its output
        # FIFO.  A node that boots in this tick was not booted when its
        # messages arrived, so its boot follows their drops
        timers, timers_due, handle = self.timers, self.timers_due, self.handle
        for ip, rt in self.nodes.items():
            events += delivered.get(ip, ())
            events += dropped.get(ip, ())
            if not rt.booted:
                if cfg.boot_offsets.get(ip, 0) > now:
                    continue
                rt.booted = True
                events.append(TraceEvent(now, ip, "boot", {}))
            state = before = rt.state
            if before is not rt.due_of:
                rt.due_of, rt.due = before, timers_due(before, cfg)
            if now >= rt.due:
                state, ems = timers(before, now, cfg)
                rt.outq.extend(ems)
            if rt.inq:
                state, ems = handle(state, rt.inq.popleft(), now, cfg)
                rt.outq.extend(ems)
            if state is not before:
                self._diff_events(ip, before, state, events)
                rt.state = state
            if cap is not None:
                self._check_capacity(ip, rt, cap)
            if rt.sending is not None or not rt.outq:
                continue
            ins: SendInstruction = rt.outq.popleft()
            if ins.is_broadcast:
                recipients = self.topology.neighbors(ip)
            else:
                recipients = ins.dests & self.topology.neighbors(ip)
            recipients = sorted(recipients)
            rt.sending = InFlight(
                payload=ins.payload,
                recipients=recipients,
                deliver_at=now + cfg.time_sending,
            )
            kind = ins.payload.kind
            self.counts[kind] += 1
            events.append(send_event(now, ip, kind, recipients))

        self.now += 1
        return events


def _pending_non_hello(sim: SimState) -> bool:
    for rt in sim.nodes.values():
        if rt.sending is not None and not isinstance(rt.sending.payload, Hello):
            return True
        if any(not isinstance(m, Hello) for m in rt.inq):
            return True
        if any(not isinstance(i.payload, Hello) for i in rt.outq):
            return True
    return False


def converged(sim: SimState) -> bool:
    """Steady state: every node knows its component's links exactly, no
    non-hello traffic is pending, and (detailed model) every allowed
    adjacency is fully established with clean bookkeeping."""
    if not all(rt.booted for rt in sim.nodes.values()):
        return False
    if _pending_non_hello(sim):
        return False

    topology = sim.topology
    for ip in topology.nodes():
        lsdb: Lsdb = sim.nodes[ip].state.lsdb
        for other in topology.component_of(ip):
            entry = lsdb.get(other)
            links = frozenset() if entry is None else entry.links
            if links != topology.neighbors(other):
                return False

    if sim.config.model == "detailed":
        for a, b in sim.adjacency.edges:
            for me, peer in ((a, b), (b, a)):
                entry = sim.nodes[me].state.nbrs.get(peer)
                if entry is None or entry.ns != NeighborState.FULL:
                    return False
                if entry.req_list or entry.rxmt_list:
                    return False
    return True


def run(
    config: EngineConfig,
    topology: Topology,
    trace: bool = False,
) -> tuple[SimState, Optional[list[TraceEvent]], Verdict]:
    """Tick until converged, a queue overflows or out of budget.

    Message counts tally send events from boot up to and including the
    first tick at which the convergence predicate holds, or the tick in
    which a queue outgrew ``queue_capacity``.

    The records are kept only with ``trace``; else the trace is None.
    ``tick`` builds them anyway, as ``bench/layertrace.py`` reads them.
    """
    sim = SimState(config, topology)
    records: Optional[list[TraceEvent]] = [] if trace else None
    while sim.now < config.max_ticks:
        events = sim.tick()
        if records is not None:
            records.extend(events)
        if sim.overflow is not None:
            return sim, records, Verdict("queue_overflow", at_tick=sim.now - 1,
                                         node=sim.overflow,
                                         counts=dict(sim.counts))
        if converged(sim):
            at = sim.now - 1
            if records is not None:
                records.append(TraceEvent(at, 0, "converged",
                                          {"counts": dict(sim.counts)}))
            return sim, records, Verdict("converged", at_tick=at,
                                         counts=dict(sim.counts))
    return sim, records, Verdict("timed_out", at_tick=sim.now,
                                 counts=dict(sim.counts))
