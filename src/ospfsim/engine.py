"""Discrete-time network engine.

All nodes share a global tick.  Per tick: due transmissions deliver
into per-node FIFO input queues (subject to the loss model), every
booted node runs its timer actions and consumes at most one queued
message, emitted send instructions join the node's output FIFO, and an
idle sender starts transmitting the head of that FIFO.  One
transmission per node is in flight at a time.

Identical (config, topology, seed) produce bit-identical traces.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Hello,
    Lsdb,
    Message,
    NeighborState,
    NodeId,
    ProtocolConfig,
    SendInstruction,
    TimeStamp,
    message_kind,
)
from .detailed import (
    AdjPolicy,
    DetailedNodeState,
    detailed_timers,
    handle_message_detailed,
)
from .simple import SimpleNodeState, handle_message_simple, simple_timers
from .topology import Topology

MESSAGE_KINDS = ("hello", "dbd", "req", "upd", "ack")


class ConfigError(ValueError):
    pass


class QueueOverflowError(RuntimeError):
    def __init__(self, node: NodeId, tick: TimeStamp, which: str):
        super().__init__(f"node {node} {which} queue overflow at tick {tick}")
        self.node = node
        self.tick = tick
        self.which = which


@dataclass
class EngineConfig:
    model: str = "detailed"
    hellointvl: int = 10
    rtdeadintvl: int = 50
    rxmtintvl: int = 24
    refreshintvl: int = 1000
    time_sending: int = 1
    boot_offsets: dict[NodeId, int] = field(default_factory=dict)
    loss_prob: float = 0.0
    seed: int = 0
    max_ticks: int = 10_000
    queue_capacity: Optional[int] = None
    adjacency: AdjPolicy = field(default_factory=AdjPolicy.total)

    def validate(self) -> None:
        if self.model not in ("simple", "detailed"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.model == "simple" and self.loss_prob != 0.0:
            raise ConfigError("the simple model assumes guaranteed receipt; "
                              "loss_prob must be 0")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError("loss_prob must lie in [0, 1]")
        if self.time_sending < 1:
            raise ConfigError("time_sending must be at least 1 tick")
        for key in ("hellointvl", "rtdeadintvl", "rxmtintvl", "refreshintvl"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.max_ticks < 1:
            raise ConfigError("max_ticks must be positive")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be positive")
        for node, t in self.boot_offsets.items():
            if t < 0:
                raise ConfigError(f"boot offset for node {node} must be >= 0")

    def protocol(self) -> ProtocolConfig:
        return ProtocolConfig(
            hellointvl=self.hellointvl,
            rtdeadintvl=self.rtdeadintvl,
            rxmtintvl=self.rxmtintvl,
            refreshintvl=self.refreshintvl,
        )


_KIND_RANK = {
    "boot": 0, "deliver": 1, "drop": 2, "state_change": 3,
    "lsa_install": 4, "send": 5, "converged": 6,
}


@dataclass
class TraceEvent:
    tick: TimeStamp
    node: NodeId
    kind: str
    detail: dict

    def render(self) -> str:
        return json.dumps(
            {"tick": self.tick, "node": self.node, "kind": self.kind,
             "detail": self.detail},
            separators=(",", ":"),
        )


def parse_trace_line(line: str) -> TraceEvent:
    rec = json.loads(line)
    return TraceEvent(rec["tick"], rec["node"], rec["kind"], rec["detail"])


@dataclass
class InFlight:
    payload: Message
    recipients: frozenset[NodeId]
    deliver_at: TimeStamp
    sender: NodeId


@dataclass
class _NodeRuntime:
    state: object
    booted: bool = False
    inq: deque = field(default_factory=deque)
    outq: deque = field(default_factory=deque)
    sending: Optional[InFlight] = None


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
            c = self.counts
            return (
                f"CONVERGED tick={self.at_tick} msgs={self.total_messages} "
                f"hello={c.get('hello', 0)} dbd={c.get('dbd', 0)} "
                f"req={c.get('req', 0)} upd={c.get('upd', 0)} "
                f"ack={c.get('ack', 0)}"
            )
        if self.kind == "timed_out":
            return "TIMEOUT"
        return f"OVERFLOW node={self.node} tick={self.at_tick}"


class SimState:
    """One running simulation.  Drive it with :meth:`tick` or use
    :func:`run` for the whole loop."""

    def __init__(self, config: EngineConfig, topology: Topology):
        config.validate()
        self.config = config
        self.topology = topology
        self.now: TimeStamp = 0
        self.rng = random.Random(config.seed)
        self.counts: dict[str, int] = {k: 0 for k in MESSAGE_KINDS}
        self.nodes: dict[NodeId, _NodeRuntime] = {}
        self._proto = config.protocol()
        for ip in topology.nodes():
            state = (
                SimpleNodeState.initial(ip)
                if config.model == "simple"
                else DetailedNodeState.initial(ip)
            )
            self.nodes[ip] = _NodeRuntime(state=state)
        self.in_flights: list[InFlight] = []

    # -- helpers -----------------------------------------------------

    def _boot_tick(self, ip: NodeId) -> int:
        return self.config.boot_offsets.get(ip, 0)

    def _timers(self, state, now):
        if self.config.model == "simple":
            return simple_timers(state, now, self._proto)
        return detailed_timers(state, now, self._proto)

    def _handle(self, state, msg, now):
        if self.config.model == "simple":
            return handle_message_simple(state, msg, now, self._proto)
        return handle_message_detailed(
            state, msg, now, self.config.adjacency, self._proto
        )

    def _check_capacity(self, ip: NodeId, rt: _NodeRuntime) -> None:
        cap = self.config.queue_capacity
        if cap is None:
            return
        if len(rt.inq) > cap:
            raise QueueOverflowError(ip, self.now, "input")
        if len(rt.outq) > cap:
            raise QueueOverflowError(ip, self.now, "output")

    def _diff_events(self, ip: NodeId, before, after, events: list[TraceEvent]):
        """State-change and install events derived from a transition."""
        if self.config.model == "detailed":
            prev = {n.nip: n.ns for n in before.nbrs}
            for n in after.nbrs:
                old = prev.get(n.nip)
                if old != n.ns:
                    events.append(TraceEvent(
                        self.now, ip, "state_change",
                        {"nbr": n.nip, "ns": n.ns.label(),
                         "prev": old.label() if old is not None else None},
                    ))
        for lsa in after.lsdb:
            old = before.lsdb.get(lsa.origin)
            if old != lsa:
                events.append(TraceEvent(
                    self.now, ip, "lsa_install",
                    {"origin": lsa.origin, "stamp": lsa.stamp,
                     "links": sorted(lsa.links)},
                ))

    # -- one global tick ----------------------------------------------

    def tick(self) -> list[TraceEvent]:
        events: list[TraceEvent] = []
        now = self.now

        # 1. complete due transmissions
        due = [f for f in self.in_flights if f.deliver_at <= now]
        self.in_flights = [f for f in self.in_flights if f.deliver_at > now]
        for flight in sorted(due, key=lambda f: f.sender):
            kind = message_kind(flight.payload)
            for rcpt in sorted(flight.recipients):
                rt = self.nodes[rcpt]
                if not rt.booted:
                    events.append(TraceEvent(
                        now, rcpt, "drop",
                        {"from": flight.sender, "type": kind,
                         "reason": "not_booted"},
                    ))
                    continue
                if self.config.loss_prob > 0 and \
                        self.rng.random() < self.config.loss_prob:
                    events.append(TraceEvent(
                        now, rcpt, "drop",
                        {"from": flight.sender, "type": kind, "reason": "loss"},
                    ))
                    continue
                rt.inq.append(flight.payload)
                self._check_capacity(rcpt, rt)
                events.append(TraceEvent(
                    now, rcpt, "deliver", {"from": flight.sender, "type": kind}
                ))
            self.nodes[flight.sender].sending = None

        # 2. node turns: timers, then at most one queued message
        for ip in sorted(self.nodes):
            rt = self.nodes[ip]
            if not rt.booted:
                if self._boot_tick(ip) <= now:
                    rt.booted = True
                    events.append(TraceEvent(now, ip, "boot", {}))
                else:
                    continue
            before = rt.state
            state, ems = self._timers(rt.state, now)
            if rt.inq:
                msg = rt.inq.popleft()
                state, more = self._handle(state, msg, now)
                ems = ems + more
            self._diff_events(ip, before, state, events)
            rt.state = state
            rt.outq.extend(ems)
            self._check_capacity(ip, rt)

        # 3/4. start a transmission wherever the sender is idle
        for ip in sorted(self.nodes):
            rt = self.nodes[ip]
            if rt.sending is not None or not rt.outq:
                continue
            ins: SendInstruction = rt.outq.popleft()
            if ins.is_broadcast:
                recipients = self.topology.neighbors(ip)
            else:
                recipients = ins.dests & self.topology.neighbors(ip)
            flight = InFlight(
                payload=ins.payload,
                recipients=recipients,
                deliver_at=now + self.config.time_sending,
                sender=ip,
            )
            rt.sending = flight
            self.in_flights.append(flight)
            kind = message_kind(ins.payload)
            self.counts[kind] += 1
            events.append(TraceEvent(
                now, ip, "send",
                {"type": kind,
                 "method": "broadcast" if ins.is_broadcast else "groupcast",
                 "recipients": sorted(recipients)},
            ))

        self.now += 1
        # within a tick, events are presented per node in phase order
        events.sort(key=lambda e: (e.node, _KIND_RANK[e.kind]))
        return events

    # -- convergence ----------------------------------------------------

    def converged(self) -> bool:
        return converged(self, self.topology)


def _pending_non_hello(sim: SimState) -> bool:
    for flight in sim.in_flights:
        if not isinstance(flight.payload, Hello):
            return True
    for rt in sim.nodes.values():
        if any(not isinstance(m, Hello) for m in rt.inq):
            return True
        if any(not isinstance(i.payload, Hello) for i in rt.outq):
            return True
    return False


def converged(sim: SimState, topology: Topology) -> bool:
    """Steady state: every node knows its component's links exactly, no
    non-hello traffic is pending, and (detailed model) every allowed
    adjacency is fully established with clean bookkeeping."""
    if not all(rt.booted for rt in sim.nodes.values()):
        return False
    if _pending_non_hello(sim):
        return False

    for ip in topology.nodes():
        lsdb: Lsdb = sim.nodes[ip].state.lsdb
        for other in topology.component_of(ip):
            expected = topology.neighbors(other)
            entry = lsdb.get(other)
            if expected:
                if entry is None or entry.links != expected:
                    return False
            elif entry is not None and entry.links:
                return False

    # per-origin agreement inside each component
    for ip in topology.nodes():
        for other in topology.component_of(ip):
            if other <= ip:
                continue
            db_a = sim.nodes[ip].state.lsdb
            db_b = sim.nodes[other].state.lsdb
            for origin in db_a.origins() & db_b.origins():
                if db_a.get(origin).links != db_b.get(origin).links:
                    return False

    if sim.config.model == "detailed":
        for a, b in topology.edges:
            if not sim.config.adjacency.allows(a, b):
                continue
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
) -> tuple[SimState, list[TraceEvent], Verdict]:
    """Tick until converged or out of budget.

    Message counts tally send events from boot up to and including the
    first tick at which the convergence predicate holds.
    """
    config.validate()
    sim = SimState(config, topology)
    trace: list[TraceEvent] = []
    while sim.now < config.max_ticks:
        try:
            trace.extend(sim.tick())
        except QueueOverflowError as exc:
            verdict = Verdict("queue_overflow", at_tick=exc.tick, node=exc.node,
                              counts=dict(sim.counts))
            return sim, trace, verdict
        if sim.converged():
            at = sim.now - 1
            trace.append(TraceEvent(at, 0, "converged",
                                    {"counts": dict(sim.counts)}))
            return sim, trace, Verdict("converged", at_tick=at,
                                       counts=dict(sim.counts))
    return sim, trace, Verdict("timed_out", at_tick=sim.now,
                               counts=dict(sim.counts))


def render_trace(trace: list[TraceEvent]) -> str:
    return "".join(ev.render() + "\n" for ev in trace)
