"""Bounded exhaustive exploration of the simplified model.

The explored system mirrors the executable configuration: bounded
message queues, bounded wrap-around ages compared by ``newer_age``,
nondeterministic boot offsets within a start interval, and a per-tick
choice of running a node's timer block before or after consuming one
queued message.  Within a node and tick, the timer block itself is
atomic (hello first, then dead-neighbour removal).

States are canonical: every deadline is stored as a residue relative to
the current tick, so runs that differ only by elapsed time collide.
Each node's canonical tuple, each message and each transmission in
flight (a flight) is interned to an int id by exact tuple equality, so
a global state is a pair of int tuples, its node ids and its flight
ids, in the style of SPIN's collapse compression.  Within the nodes,
equal neighbour, database and queue tuples are one shared object.  The
search holds each state exactly once, as one fixed-width record of
uint32 in a bytearray (its node ids, its flight count and its flight
ids, zero padded), found through an open-addressing int-array index;
a lookup matches only an equal record, so state identity stays exact
(no hash compaction, no lossy keys).  The frontier is an int array of
state ids, and a state is unpacked as a tuple only while it is
expanded.  Parent links and the successor graph are int arrays, and
choices an id-indexed list.

A node's tick depends only on its own state, the messages delivered to
it, the send it still has in flight and its choice label, so one node
step per (ip, node id, inbox, carried flight) is computed once and
cached as one flat row, in one dict per (ip, inbox, carried flight)
keyed by the interned node id; a global successor is one row per node.
The search and the replay both use them.

Checked per state:
    P1  queue occupancy stays within the configured bound
    P2  database invariant (one entry per origin, ages in range)
    P3  installs never cross the ambiguous half-window of the
        wrap-around age order

A run verdict also reports whether every execution reaches a converged
state: the reachable unconverged subgraph must be exhausted and
acyclic.  The final pass is one topological pass over it, for the
longest unconverged path; only on a cycle does a depth-first search
pick the state on it that the counterexample reaches.  Counterexamples
carry the boot offsets and per-tick choices, so they can be replayed
step by step.  The engine schedule takes each node's first label
(:func:`_options`), but the explorer and the engine's simple model
still differ (docs/explorer_vs_simple.md), so a path on that schedule
need not be the engine's run.
"""

from __future__ import annotations

import itertools
import struct
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .engine import (ConfigError, EngineConfig, TraceEvent, delivery_event,
                     send_event)
from .lsdb import newer_age, next_age
from .topology import Topology

# bench/layertrace.py wraps these module globals by name while tracing,
# so each stays a global looked up at call time and renaming one needs a
# benchmark change: explore, initial_state, successors (a generator: the
# tracer calls next() and close() on it), _encode, _decode,
# state_converged, _find_unconverged_cycle and _longest_unconverged_path.

BOOTED = -1

# per-node action labels, which spell their actions in order (T the timer
# block, M one queued message); the first eligible one is the engine schedule
TIMER_THEN_MSG = "TM"
MSG_THEN_TIMER = "MT"
TIMER_ONLY = "T"
MSG_ONLY = "M"
IDLE = "-"

# largest topology the explorer accepts, in nodes
NODE_LIMIT = 4


@dataclass
class ExploreConfig:
    topology: Topology
    queue_bound: int = 10
    age_bound: Optional[int] = None  # default 2 * (n + 1)
    start_interval: int = 10
    hellointvl: int = EngineConfig.hellointvl
    rtdeadintvl: int = EngineConfig.rtdeadintvl
    time_sending: int = EngineConfig.time_sending
    max_states: int = 2_000_000

    def resolved_age_bound(self) -> int:
        return (
            self.age_bound
            if self.age_bound is not None
            else 2 * (self.topology.n + 1)
        )

    def validate(self) -> None:
        if self.topology.n > NODE_LIMIT:
            raise ConfigError(
                f"topology has {self.topology.n} nodes; exploration is "
                f"limited to {NODE_LIMIT}"
            )
        if self.queue_bound < 1:
            raise ConfigError("queue_bound must be positive")
        if self.start_interval < 0:
            raise ConfigError("start_interval must be non-negative")
        if self.max_states < 1:
            raise ConfigError("max_states must be positive")
        EngineConfig(model="simple", hellointvl=self.hellointvl,
                     rtdeadintvl=self.rtdeadintvl,
                     time_sending=self.time_sending).validate()
        if self.resolved_age_bound() < 2:
            raise ConfigError("age_bound must be at least 2")


@dataclass
class Violation:
    prop: str
    detail: str
    node: Optional[int] = None


@dataclass
class Counterexample:
    boot_offsets: dict[int, int]
    choices: list[tuple[str, ...]]  # one label per node per tick
    violation: Violation
    at_tick: int


@dataclass
class ExploreVerdict:
    status: str  # pass | violation | inconclusive
    states: int
    max_queue_occupancy: int
    depth_reached: int
    longest_path: Optional[int] = None
    counterexample: Optional[Counterexample] = None
    # frontier size at the start of each depth, from depth 0 on
    frontier_sizes: tuple[int, ...] = ()
    message: str = ""

    def lines(self) -> list[str]:
        out = [
            f"EXPLORE {self.status.upper()} states={self.states} "
            f"max_queue={self.max_queue_occupancy} depth={self.depth_reached}"
        ]
        if self.longest_path is not None:
            out.append(f"longest unconverged path: {self.longest_path} ticks")
        if self.counterexample is not None:
            ce = self.counterexample
            boots = " ".join(
                f"{ip}:{t}" for ip, t in sorted(ce.boot_offsets.items())
            )
            out.append(
                f"counterexample: {ce.violation.prop} at tick {ce.at_tick} "
                f"({ce.violation.detail}); boot offsets {boots}"
            )
        if self.message:
            out.append(self.message)
        if self.status == "inconclusive":
            out.append("frontier per depth: "
                       + " ".join(map(str, self.frontier_sizes)))
        return out


# --- canonical form ------------------------------------------------------
#
# Canonical node: (boot_res, hellot_res, age, nbrs, lsdb, inq, outq)
#   nbrs: tuple of (nip, inact_res), sorted
#   lsdb: tuple of (origin, age, links-tuple), sorted
#   inq:  tuple of message ids
#   outq: tuple of (message id, dests-tuple-or-None)
# Messages: ("hello", (), sip) / ("dbd", hdrs, sip) /
#           ("req", hdrs, sip) / ("upd", lsas, sip)
#   with hdrs a sorted tuple of (origin, age) and lsas a sorted tuple of
#   (origin, age, links-tuple).  A hello carries no neighbour list: the
#   model reads only its sender.
# Canonical global state: (node ids, flight ids), node ids in ip order,
#   flight ids in sender order, a flight being
#   (sender, message id, recipients-tuple, res).  A node has at most one
#   flight, its last send, so ``_States`` stores a state as 2n + 1 uint32:
#   n node ids, the flight count, and the flight ids padded with zeros.
#
# The id tables live in ``_Ctx``, for one search: nodes, messages and
# flights.  ``_Ctx.parts`` holds one copy of each distinct nbrs, lsdb,
# inq and outq tuple, and every stored node refers to that copy.  A
# node is rebuilt as a ``_Node`` only when the node-step cache misses;
# its scratch containers hold every piece already in its canonical form,
# its queues message ids, so encoding one only sorts and freezes them.
# A message is interned once, when it is queued, and looked up only
# where ``_handle`` consumes it.
# A cached node step is one flat row with no tuple per label: its top
# occupancy, then label, child node id and flight id (or None) per label
# (full rows: see ``_node_step``).  Both node caches key a node by the
# int that ``_Ctx.node_ids`` holds, not by an equal one from a record.


def _intern(ids: dict, items: list, item) -> int:
    """The id of ``item``, its index in ``items``, added on first sight."""
    i = ids.setdefault(item, len(items))
    if i == len(items):
        items.append(item)
    return i


class _Ctx:
    """What one search shares: the settings, the id tables of nodes,
    messages and flights, the shared node parts, and the caches of node
    steps and of per-node convergence."""

    __slots__ = (
        "ips", "neighbors", "expected", "bound", "hellointvl", "rtdeadintvl",
        "time_sending", "queue_bound", "violations", "max_occ",
        "nodes", "node_ids", "msgs", "msg_ids", "flights", "flight_ids",
        "parts", "steps", "converged",
    )

    def __init__(self, config: ExploreConfig):
        topo = config.topology
        self.ips = tuple(topo.nodes())
        # sorted tuple of topology neighbours per node
        self.neighbors = {ip: tuple(sorted(topo.neighbors(ip))) for ip in self.ips}
        # per node, the links it must hold for each origin it can reach
        self.expected = {
            ip: tuple((other, self.neighbors[other])
                      for other in topo.component_of(ip))
            for ip in self.ips
        }
        self.bound = config.resolved_age_bound()
        self.hellointvl = config.hellointvl
        self.rtdeadintvl = config.rtdeadintvl
        self.time_sending = config.time_sending
        self.queue_bound = config.queue_bound
        self.violations: list[Violation] = []
        self.max_occ = 0  # largest queue seen, over every checked world
        self.nodes: list[tuple] = []  # node id -> canonical node
        self.node_ids: dict[tuple, int] = {}
        self.msgs: list[tuple] = []  # message id -> message
        self.msg_ids: dict[tuple, int] = {}
        self.flights: list[tuple] = []  # flight id -> flight
        self.flight_ids: dict[tuple, int] = {}
        self.parts: dict[tuple, tuple] = {}  # canonical part -> itself
        # (ip, inbox, carried flight) -> node id -> row (see ``_steps``)
        self.steps: defaultdict = defaultdict(dict)
        self.converged = {ip: {} for ip in self.ips}  # ip -> node id -> clause

    def node_id(self, node: tuple) -> int:
        return _intern(self.node_ids, self.nodes, node)

    def msg_id(self, msg: tuple) -> int:
        return _intern(self.msg_ids, self.msgs, msg)

    def flight_id(self, flight: tuple) -> int:
        return _intern(self.flight_ids, self.flights, flight)


class _Node:
    __slots__ = ("boot_res", "hellot", "age", "nbrs", "lsdb", "inq", "outq")

    def __init__(self, boot_res, hellot, age, nbrs, lsdb, inq, outq):
        self.boot_res = boot_res
        self.hellot = hellot
        self.age = age
        self.nbrs = nbrs  # dict nip -> inact residue
        self.lsdb = lsdb  # dict origin -> (origin, age, links-tuple)
        self.inq = inq  # list of message ids
        self.outq = outq  # list of (message id, dests-tuple | None)


def _encode(node: _Node, ctx: _Ctx) -> int:
    """The id of ``node``'s canonical tuple, interned on first sight;
    equal parts share the one copy in ``ctx.parts``."""
    share = ctx.parts.setdefault
    nbrs = tuple(sorted(node.nbrs.items()))
    lsdb = tuple(sorted(node.lsdb.values()))
    inq, outq = tuple(node.inq), tuple(node.outq)
    return ctx.node_id((node.boot_res, node.hellot, node.age,
                        share(nbrs, nbrs), share(lsdb, lsdb),
                        share(inq, inq), share(outq, outq)))


def _decode(nid: int, ctx: _Ctx) -> _Node:
    boot, hellot, age, nbrs, lsdb, inq, outq = ctx.nodes[nid]
    return _Node(boot, hellot, age, dict(nbrs), {e[0]: e for e in lsdb},
                 list(inq), list(outq))


def initial_state(ctx: _Ctx, boots: dict[int, int]):
    # offset 0 means the node boots on the very first tick
    return tuple(
        _encode(_Node(boots.get(ip, 0), 0, 0, {}, {}, [], []), ctx)
        for ip in ctx.ips
    ), ()


# --- the simplified protocol under wrap-around ages ----------------------


def _own_age(node: _Node, origin: int) -> int:
    entry = node.lsdb.get(origin)
    return entry[1] if entry is not None else 0


def _install(node: _Node, ip: int, o: int, a: int, links, ctx: _Ctx) -> bool:
    old = _own_age(node, o)
    if not newer_age(a, old, ctx.bound):
        return False
    if old != 0 and a != old and 2 * abs(a - old) == ctx.bound:
        ctx.violations.append(Violation(
            "P3", f"origin {o}: age {old} -> {a} crosses the wrap window",
            node=ip,
        ))
    node.lsdb[o] = (o, a, links)
    return True


def _originate(node: _Node, ip: int, ctx: _Ctx):
    """Install a fresh own LSA and queue the update that announces it to
    its links, the sorted neighbour ips."""
    node.age = next_age(node.age, ctx.bound)
    links = tuple(sorted(node.nbrs))
    _install(node, ip, ip, node.age, links, ctx)
    _send(node, ("upd", ((ip, node.age, links),), ip), links, ctx)


def _send(node: _Node, msg: tuple, dests, ctx: _Ctx):
    """Queue ``msg``, interned, for ``dests`` (None for a broadcast)."""
    node.outq.append((ctx.msg_id(msg), dests))


def _timer_block(node: _Node, ip: int, ctx: _Ctx):
    if node.hellot <= 0:
        node.hellot = ctx.hellointvl
        _send(node, ("hello", (), ip), None, ctx)
    dead = [nip for nip, res in node.nbrs.items() if res < 0]
    if dead:
        for nip in dead:
            del node.nbrs[nip]
        _originate(node, ip, ctx)


def _discover(node: _Node, ip: int, sip: int, ctx: _Ctx):
    node.nbrs[sip] = ctx.rtdeadintvl
    _originate(node, ip, ctx)
    hdrs = tuple((o, a) for o, a, _ in sorted(node.lsdb.values()))
    _send(node, ("dbd", hdrs, ip), (sip,), ctx)


def _handle(node: _Node, ip: int, mid: int, ctx: _Ctx):
    msg = ctx.msgs[mid]
    kind = msg[0]
    if kind == "hello":
        sip = msg[2]
        if sip in node.nbrs:
            node.nbrs[sip] = ctx.rtdeadintvl
        else:
            _discover(node, ip, sip, ctx)
    elif kind == "dbd":
        hdrs, sip = msg[1], msg[2]
        if sip not in node.nbrs:
            _discover(node, ip, sip, ctx)
        reqs = tuple(
            (o, a) for o, a in hdrs if newer_age(a, _own_age(node, o), ctx.bound)
        )
        if reqs:
            _send(node, ("req", reqs, ip), (sip,), ctx)
    elif kind == "req":
        hdrs, sip = msg[1], msg[2]
        if sip not in node.nbrs:
            return
        wanted = dict(hdrs)
        lsas = tuple(
            e for e in sorted(node.lsdb.values())
            if e[0] in wanted and newer_age(e[1], wanted[e[0]], ctx.bound)
        )
        _send(node, ("upd", lsas, ip), (sip,), ctx)
    elif kind == "upd":
        # an entry is fresh only when the stored copy is NOT at least as
        # new; on an age tie the stored copy wins and nothing is
        # forwarded, which is what stops update echoes from circulating
        fresh = []
        for lsa in msg[1]:
            o, a, links = lsa
            if not newer_age(_own_age(node, o), a, ctx.bound):
                _install(node, ip, o, a, links, ctx)
                fresh.append(lsa)
        if fresh:
            _send(node, ("upd", tuple(fresh), ip), tuple(sorted(node.nbrs)), ctx)
    else:
        raise ValueError(f"unknown message kind {kind!r}")


def _options(node: _Node) -> tuple[str, ...]:
    """The labels a delivered node may run this tick; the first is the
    engine schedule.  A node not yet booted has nothing queued, since
    deliveries to it are lost."""
    if node.boot_res == BOOTED and (
            node.hellot <= 0 or min(node.nbrs.values(), default=0) < 0):
        return (TIMER_THEN_MSG, MSG_THEN_TIMER) if node.inq else (TIMER_ONLY,)
    return (MSG_ONLY,) if node.inq else (IDLE,)


def _check_occupancy(node: _Node, ip: int, occ: int, ctx: _Ctx):
    """P1 on one node whose occupancy ``occ`` exceeds the bound."""
    which = "input" if len(node.inq) > ctx.queue_bound else "output"
    ctx.violations.append(Violation(
        "P1", f"node {ip} {which} queue holds {occ} messages "
        f"(bound {ctx.queue_bound})", node=ip))


def _node_step(ctx: _Ctx, ip: int, nid: int, inbox: tuple, carried):
    """One tick of node ``ip`` in state ``nid``: it boots if due, and if
    booted receives ``inbox`` (message ids, in sender order); P1 is
    checked.  Then, per label of :func:`_options`, it runs the label's
    actions in order, starts the head of its output queue unless it
    carries a flight (``carried``, else None), is checked for P3 (while
    it installs), P1 and P2, and every residue shrinks by one.  Returns
    its full row: (P1 violations, occupancy) after delivery, then per
    label the label, child id (None if any violation), flight id
    (``carried``, the one started, or None), violations in check order
    and occupancy."""
    queue_bound, age_bound = ctx.queue_bound, ctx.bound
    node = _decode(nid, ctx)
    if node.boot_res == 0:
        node.boot_res = BOOTED
    if node.boot_res == BOOTED:
        node.inq.extend(inbox)
    ctx.violations = []
    occ = max(len(node.inq), len(node.outq))
    if occ > queue_bound:
        _check_occupancy(node, ip, occ, ctx)
    row = [(tuple(ctx.violations), occ)]
    for label in _options(node):
        if len(row) > 1:  # the first label changed node: deliver again
            node = _decode(nid, ctx)  # booted, as only such have two labels
            node.boot_res = BOOTED
            node.inq.extend(inbox)
        ctx.violations = violations = []
        for action in label:
            if action == "T":
                _timer_block(node, ip, ctx)
            elif action == "M":
                _handle(node, ip, node.inq.pop(0), ctx)
        flight = carried
        if flight is None and node.outq:
            mid, dests = node.outq.pop(0)
            reach = ctx.neighbors[ip]
            recipients = (reach if dests is None
                          else tuple(d for d in dests if d in reach))
            flight = ctx.flight_id((ip, mid, recipients, ctx.time_sending - 1))
        occ = max(len(node.inq), len(node.outq))
        if occ > queue_bound:
            _check_occupancy(node, ip, occ, ctx)
        for o, a, links in node.lsdb.values():
            if not 0 <= a <= age_bound or o in links:
                violations.append(Violation("P2", f"node {ip}: bad database "
                                            f"entry for origin {o}", node=ip))
        child = None
        if not violations:
            if node.boot_res > 0:
                node.boot_res -= 1
            elif node.boot_res == BOOTED:
                node.hellot -= 1
                for nip in node.nbrs:
                    node.nbrs[nip] -= 1
            child = _encode(node, ctx)
        row += label, child, flight, tuple(violations), occ
    return tuple(row)


def _steps(canon, ctx: _Ctx) -> list:
    """Each node's row for the tick that starts in ``canon``, in ip
    order: the cached one or, if a node meets a violation, every node's
    full row, uncached.  Due transmissions deliver in sender order; a
    node whose send is still in flight carries it on, residue shrunk."""
    nids, flights = canon
    due: dict[int, tuple] = {}
    carried = {}
    table = ctx.flights
    for fid in flights:
        sender, mid, recipients, res = table[fid]
        if res <= 0:
            for rcpt in recipients:
                due[rcpt] = due.get(rcpt, ()) + (mid,)
        else:
            carried[sender] = ctx.flight_id((sender, mid, recipients, res - 1))
    cache = ctx.steps
    rows = []
    for ip, nid in zip(ctx.ips, nids):
        inbox, flight = due.get(ip, ()), carried.get(ip)
        by_node = cache[ip, inbox, flight]
        row = by_node.get(nid)
        if row is None:
            row = _node_step(ctx, ip, nid, inbox, flight)
            if row[0][0] or any(row[4::5]):  # every node's full row
                return [_node_step(ctx, i, n, due.get(i, ()), carried.get(i))
                        for i, n in zip(ctx.ips, nids)]
            # a node has one or two labels
            row = by_node[ctx.node_ids[ctx.nodes[nid]]] = (
                max(row[0][1], *row[5::5]), *row[1:4], *row[6:9])
        rows.append(row)
    return rows


# the order in which a tick checks its world
_CHECK_RANK = {"P3": 0, "P1": 1, "P2": 2}


def successors(canon, ctx: _Ctx):
    """All (choice-combo, successor, violations) triples one tick onward;
    a violation of the delivery phase comes alone, with combo None.  The
    P3 violations come in ip order, then P1, then P2."""
    rows = _steps(canon, ctx)
    if type(rows[0][0]) is int:  # cached rows: no violation anywhere
        if max(map(len, rows)) == 4:  # one label per node: one combo
            tops, combo, kids, slots = zip(*rows)
            ctx.max_occ = max(ctx.max_occ, *tops)
            yield combo, (kids, tuple([f for f in slots if f is not None])), []
            return
        tops, labels, nids, flights = zip(
            *[(row[0], row[1::3], row[2::3], row[3::3]) for row in rows])
        ctx.max_occ = max(ctx.max_occ, *tops)
        # the three products walk the same combos in the same order
        for combo, kids, slots in zip(itertools.product(*labels),
                                      itertools.product(*nids),
                                      itertools.product(*flights)):
            yield combo, (kids, tuple([f for f in slots if f is not None])), []
        return
    # the search stops at a violation, so count each combo as yielded
    ctx.max_occ = max(ctx.max_occ, *(row[0][1] for row in rows))
    violations = [v for row in rows for v in row[0][0]]
    if violations:
        yield None, None, violations
        return
    for picked in itertools.product(*(range(1, len(row), 5) for row in rows)):
        combo, kids, slots, checks, occs = zip(
            *(row[i:i + 5] for row, i in zip(rows, picked)))
        ctx.max_occ = max(ctx.max_occ, *occs)
        found = sorted(itertools.chain(*checks),
                       key=lambda v: _CHECK_RANK[v.prop])
        yield combo, None if found else (
            kids, tuple([f for f in slots if f is not None])), found


def _node_converged(ctx: _Ctx, ip: int, nid: int) -> bool:
    boot, _, _, _, lsdb, inq, outq = ctx.nodes[nid]
    msgs = ctx.msgs
    if boot != BOOTED:
        return False
    if any(msgs[m][0] != "hello" for m in inq):
        return False
    if any(msgs[m][0] != "hello" for m, _ in outq):
        return False
    links = {o: links for o, _, links in lsdb}
    return all(links.get(other, ()) == expected
               for other, expected in ctx.expected[ip])


def state_converged(canon, ctx: _Ctx) -> bool:
    nids, flights = canon
    for fid in flights:
        if ctx.msgs[ctx.flights[fid][1]][0] != "hello":
            return False
    for ip, nid in zip(ctx.ips, nids):
        by_node = ctx.converged[ip]
        ok = by_node.get(nid)
        if ok is None:
            ok = by_node[ctx.node_ids[ctx.nodes[nid]]] = _node_converged(
                ctx, ip, nid)
        if not ok:
            return False
    return True


class _States:
    """The states of one search, each held once as a record of the
    canonical form above, with ids in the order of first sight.
    ``table`` indexes the ids by open addressing, probed linearly and
    grown 4x at load 1/2 from ``hashes``; a probe matches only an equal
    record, so identity never rests on the hash."""

    __slots__ = ("n", "packs", "unpack_from", "size", "records", "hashes",
                 "table")

    def __init__(self, n: int):
        self.n = n
        # the pack of a state with k flights; "x" packs zero bytes
        self.packs = [struct.Struct(f"={n + 1 + k}I{4 * (n - k)}x").pack
                      for k in range(n + 1)]
        record = struct.Struct(f"={2 * n + 1}I")
        self.unpack_from, self.size = record.unpack_from, record.size
        self.records = bytearray()
        self.hashes = array("q")
        self.table = array("i", [-1]) * 16

    def add(self, canon) -> int:
        """The id of ``canon``, added on first sight."""
        nids, flights = canon
        k = len(flights)
        rec = self.packs[k](*nids, k, *flights)
        h = hash(rec)
        table, hashes, size = self.table, self.hashes, self.size
        mask = len(table) - 1
        i = h & mask
        while (sid := table[i]) >= 0:
            if (hashes[sid] == h
                    and self.records[sid * size:(sid + 1) * size] == rec):
                return sid
            i = (i + 1) & mask
        table[i] = sid = len(hashes)
        hashes.append(h)
        self.records += rec
        if 2 * sid >= mask:  # more than half full
            self._grow(4 * len(table))
        return sid

    def _grow(self, slots: int) -> None:
        table = array("i", [-1]) * slots
        mask = slots - 1
        for sid, h in enumerate(self.hashes):
            i = h & mask
            while table[i] >= 0:
                i = (i + 1) & mask
            table[i] = sid
        self.table = table

    def load(self, sid: int) -> tuple:
        """The canonical state of id ``sid``."""
        rec = self.unpack_from(self.records, sid * self.size)
        n = self.n
        return rec[:n], rec[n + 1:n + 1 + rec[n]]


def explore(config: ExploreConfig) -> ExploreVerdict:
    """Breadth-first enumeration over boot offsets and interleavings.

    Each state is held once, as a record of a :class:`_States` store
    (see the module docstring), which gives it an int id in discovery
    order.  Everything else is indexed by id: the parent id (-1 for a
    root), the choice combo that first led to the state (one tuple per
    distinct combo), and its unconverged successors, stored flat in int
    arrays (see :func:`_find_unconverged_cycle`), which is all that the
    final pass reads: one topological pass for the longest unconverged
    path, and the depth-first cycle search only if it meets a cycle.
    States are expanded in id order, so each one's successors are
    appended after those of the states before it.  Roots keep their boot
    offsets in ``root_boots``.
    """
    config.validate()
    ctx = _Ctx(config)
    topo = config.topology

    store = _States(topo.n)
    parent = array("i")
    via: list = []
    combos: dict = {}
    first, last, kids = array("i"), array("i"), array("i")
    root_boots: dict[int, dict[int, int]] = {}

    def visit(canon, parent_id, combo, todo) -> int:
        """The id of ``canon``; a new unconverged state joins ``todo``."""
        sid = store.add(canon)
        if sid == len(parent):  # first visit
            parent.append(parent_id)
            via.append(combos.setdefault(combo, combo))
            if state_converged(canon, ctx):
                first.append(-1)
            else:
                first.append(0)  # set when the state is expanded
                todo.append(sid)
            last.append(0)
        return sid

    def verdict(status, message, **rest) -> ExploreVerdict:
        """The verdict on the search as it stands when it ends."""
        return ExploreVerdict(status=status, states=len(parent),
                              max_queue_occupancy=ctx.max_occ,
                              depth_reached=depth,
                              frontier_sizes=tuple(frontier_sizes),
                              message=message, **rest)

    frontier = array("i")
    for combo in itertools.product(
        range(config.start_interval + 1), repeat=topo.n
    ):
        # runs that differ only by a global shift collapse onto the
        # same residues one tick later, so anchor the earliest boot at 0
        if combo and min(combo) != 0:
            continue
        boots = {ip: combo[ip - 1] for ip in topo.nodes()}
        root_boots.setdefault(
            visit(initial_state(ctx, boots), -1, None, frontier), boots)

    depth = 0
    frontier_sizes: list[int] = []
    while frontier:
        frontier_sizes.append(len(frontier))
        next_frontier = array("i")
        for sid in frontier:
            children: list[int] = []
            for combo, child, violations in successors(store.load(sid), ctx):
                if violations:
                    ce = _build_counterexample(
                        parent, via, root_boots, sid, combo, violations[0]
                    )
                    return verdict("violation", violations[0].detail,
                                   counterexample=ce)
                cid = visit(child, sid, combo, next_frontier)
                if first[cid] >= 0 and cid not in children:
                    children.append(cid)
            first[sid] = len(kids)
            kids.extend(children)
            last[sid] = len(kids)
            if len(parent) > config.max_states:
                return verdict(
                    "inconclusive",
                    f"state budget {config.max_states} exhausted")
        frontier = next_frontier
        depth += 1

    longest = _longest_unconverged_path(first, last, kids)
    if longest is not None:
        return verdict("pass", "every execution reaches a converged state",
                       longest_path=longest)
    cycle = _find_unconverged_cycle(first, last, kids)
    ce = _build_counterexample(parent, via, root_boots, cycle, None, Violation(
        "convergence", "execution can avoid convergence forever"))
    return verdict("violation",
                   "unconverged cycle: some execution never converges",
                   counterexample=ce)


def _build_counterexample(parent, via, root_boots, sid, last_combo, violation):
    """The path from a root to state ``sid``, then ``last_combo`` if
    given; every choice is one tick, so the path length is the tick."""
    choices = []
    while parent[sid] >= 0:
        choices.append(via[sid])
        sid = parent[sid]
    choices.reverse()
    if last_combo is not None:
        choices.append(last_combo)
    return Counterexample(
        boot_offsets=root_boots[sid],
        choices=choices,
        violation=violation,
        at_tick=len(choices),
    )


def _find_unconverged_cycle(first, last, kids):
    """Any state on a cycle of unconverged states, or None.  The
    unconverged successors of state i are ``kids[first[i]:last[i]]``;
    ``first[i]`` is -1 when i is converged."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = bytearray(len(first))
    for start in range(len(first)):
        if first[start] < 0 or color[start] != WHITE:
            continue
        stack = [(start, iter(kids[first[start]:last[start]]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            for child in it:
                c = color[child]
                if c == GRAY:
                    return child
                if c == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(kids[first[child]:last[child]])))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return None


def _longest_unconverged_path(first, last, kids):
    """Longest walk through unconverged states, in ticks (the worst-case
    time to convergence), or None when they hold a cycle; the graph is
    stored as for :func:`_find_unconverged_cycle`.  One topological pass
    (Kahn) in rounds: a state is taken one round after its last
    unconverged predecessor, so the rounds count the states of the
    longest walk, and a state never taken is on or behind a cycle."""
    n = len(first)
    waiting = array("i", [0]) * n  # predecessors not yet taken
    for child in kids:
        waiting[child] += 1
    ready = array("i", (s for s in range(n)
                        if first[s] >= 0 and not waiting[s]))
    rounds = taken = 0
    while ready:
        rounds += 1
        taken += len(ready)
        after = array("i")
        for s in ready:
            for child in kids[first[s]:last[s]]:
                waiting[child] -= 1
                if not waiting[child]:
                    after.append(child)
        ready = after
    return rounds if taken == n - first.count(-1) else None


def replay(config: ExploreConfig, counterexample: Counterexample):
    """Re-execute a recorded path through the node steps of the search.
    Returns its engine-format trace events and the violations found on
    the way (empty only if none recur).  Raises RuntimeError when a
    recorded choice is not among its tick's options."""
    ctx = _Ctx(config)
    canon = initial_state(ctx, counterexample.boot_offsets)
    events: list[TraceEvent] = []
    for tick in itertools.count():
        nids, flights = canon
        boot = {ip: ctx.nodes[nid][0] for ip, nid in zip(ctx.ips, nids)}
        events.extend(TraceEvent(tick, ip, "boot", {})
                      for ip, res in boot.items() if res == 0)
        flights = [ctx.flights[fid] for fid in flights]
        for sender, mid, recipients, res in flights:
            if res <= 0:
                events.extend(delivery_event(
                    tick, rcpt, sender, ctx.msgs[mid][0],
                    None if boot[rcpt] in (0, BOOTED) else "not_booted")
                    for rcpt in recipients)
        outcomes = {combo: rest for combo, *rest in successors(canon, ctx)}
        if None in outcomes or tick == len(counterexample.choices):
            # a violation of the delivery phase comes with combo None
            return events, outcomes.get(None, (None, []))[1]
        try:
            canon, violations = outcomes[tuple(counterexample.choices[tick])]
        except KeyError:
            raise RuntimeError(
                "counterexample does not replay: choice missing") from None
        if violations:
            return events, violations
        # the successor holds each node's flight, carried or started
        busy = {f[0] for f in flights if f[3] > 0}
        started = (ctx.flights[fid] for fid in canon[1])
        events.extend(send_event(tick, sender, ctx.msgs[mid][0], recipients)
                      for sender, mid, recipients, _ in started
                      if sender not in busy)
