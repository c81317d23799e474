"""Bounded exhaustive exploration of the simplified model.

The explored system mirrors the executable configuration: bounded
message queues, bounded wrap-around ages compared by ``newer_age``,
nondeterministic boot offsets within a start interval, and a per-tick
choice of running a node's timer block before or after consuming one
queued message.  Within a node and tick, the timer block itself is
atomic (hello first, then dead-neighbour removal).

States are canonical: every deadline is stored as a residue relative to
the current tick, so runs that differ only by elapsed time collide.
Canonical states are plain nested tuples and key the visited set
directly, which makes state identity exact (no lossy hashing).

Checked per state:
    P1  queue occupancy stays within the configured bound
    P2  database invariant (one entry per origin, ages in range)
    P3  installs never cross the ambiguous half-window of the
        wrap-around age order

A run verdict also reports whether every execution reaches a converged
state: the reachable unconverged subgraph must be exhausted and
acyclic.  Counterexamples carry the boot offsets and per-tick choices,
so they can be replayed step by step; choices matching the
deterministic engine schedule replay directly in the engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .lsdb import newer_age, next_age
from .topology import Topology

BOOTED = -1

# per-node action labels; the first eligible option is the engine schedule
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
    depth_bound: int = 150
    hellointvl: int = 10
    rtdeadintvl: int = 50
    time_sending: int = 1
    max_states: int = 2_000_000

    def resolved_age_bound(self) -> int:
        return (
            self.age_bound
            if self.age_bound is not None
            else 2 * (self.topology.n + 1)
        )

    def validate(self) -> None:
        if self.topology.n > NODE_LIMIT:
            raise ValueError(
                f"topology has {self.topology.n} nodes; exploration is "
                f"limited to {NODE_LIMIT}"
            )
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be positive")
        if self.start_interval < 0:
            raise ValueError("start_interval must be non-negative")
        if self.resolved_age_bound() < 2:
            raise ValueError("age_bound must be at least 2")


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

    def is_deterministic_schedule(self) -> bool:
        return all(
            label in (TIMER_THEN_MSG, TIMER_ONLY, MSG_ONLY, IDLE)
            for combo in self.choices
            for label in combo
        )


@dataclass
class ExploreVerdict:
    status: str  # pass | violation | inconclusive
    states: int
    max_queue_occupancy: int
    depth_reached: int
    longest_path: Optional[int] = None
    counterexample: Optional[Counterexample] = None
    frontier_size: int = 0
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
        return out


# --- scratch state -------------------------------------------------------
#
# Canonical node: (boot_res, hellot_res, age, nbrs, lsdb, inq, outq)
#   nbrs: tuple of (nip, inact_res), sorted
#   lsdb: tuple of (origin, age, links-tuple), sorted
#   inq:  tuple of messages
#   outq: tuple of (message, dests-tuple-or-None)
# Messages: ("hello", ips, sip) / ("dbd", hdrs, sip) /
#           ("req", hdrs, sip) / ("upd", lsas, sip)
#   with hdrs a sorted tuple of (origin, age) and lsas a sorted tuple of
#   (origin, age, links-tuple).
# Canonical global state: (nodes, flights)
#   flights: tuple of (sender, message, recipients-tuple, res), sorted.


class _Node:
    __slots__ = ("boot_res", "hellot", "age", "nbrs", "lsdb", "inq", "outq")

    def __init__(self, boot_res, hellot, age, nbrs, lsdb, inq, outq):
        self.boot_res = boot_res
        self.hellot = hellot
        self.age = age
        self.nbrs = nbrs  # dict nip -> inact residue
        self.lsdb = lsdb  # dict origin -> (age, links frozenset)
        self.inq = inq  # list of messages
        self.outq = outq  # list of (message, dests frozenset | None)

    def copy(self) -> "_Node":
        return _Node(
            self.boot_res,
            self.hellot,
            self.age,
            dict(self.nbrs),
            dict(self.lsdb),
            list(self.inq),
            list(self.outq),
        )

    @property
    def booted(self) -> bool:
        return self.boot_res == BOOTED


class _World:
    __slots__ = ("nodes", "flights")

    def __init__(self, nodes, flights):
        self.nodes = nodes  # dict ip -> _Node
        self.flights = flights  # dict sender -> (message, recipients, res)

    def copy(self) -> "_World":
        return _World({ip: n.copy() for ip, n in self.nodes.items()},
                      dict(self.flights))


def _encode(world: _World):
    nodes = []
    for ip in sorted(world.nodes):
        n = world.nodes[ip]
        nodes.append((
            n.boot_res,
            n.hellot,
            n.age,
            tuple(sorted(n.nbrs.items())),
            tuple(
                (o, a, tuple(sorted(links)))
                for o, (a, links) in sorted(n.lsdb.items())
            ),
            tuple(n.inq),
            tuple(
                (m, tuple(sorted(d)) if d is not None else None)
                for m, d in n.outq
            ),
        ))
    flights = tuple(
        (s, m, tuple(sorted(r)), res)
        for s, (m, r, res) in sorted(world.flights.items())
    )
    return tuple(nodes), flights


def _decode(canon) -> _World:
    nodes_t, flights_t = canon
    nodes = {}
    for ip, (boot, hellot, age, nbrs, lsdb, inq, outq) in enumerate(nodes_t, 1):
        nodes[ip] = _Node(
            boot,
            hellot,
            age,
            dict(nbrs),
            {o: (a, frozenset(links)) for o, a, links in lsdb},
            list(inq),
            [(m, frozenset(d) if d is not None else None) for m, d in outq],
        )
    flights = {s: (m, frozenset(r), res) for s, m, r, res in flights_t}
    return _World(nodes, flights)


def initial_state(config: ExploreConfig, boots: dict[int, int]):
    # offset 0 means the node boots on the very first tick
    nodes = {
        ip: _Node(boots.get(ip, 0), 0, 0, {}, {}, [], [])
        for ip in config.topology.nodes()
    }
    return _encode(_World(nodes, {}))


# --- the simplified protocol under wrap-around ages ----------------------


class _Ctx:
    __slots__ = (
        "topology", "bound", "hellointvl", "rtdeadintvl", "time_sending",
        "queue_bound", "violations",
    )

    def __init__(self, config: ExploreConfig):
        self.topology = config.topology
        self.bound = config.resolved_age_bound()
        self.hellointvl = config.hellointvl
        self.rtdeadintvl = config.rtdeadintvl
        self.time_sending = config.time_sending
        self.queue_bound = config.queue_bound
        self.violations: list[Violation] = []


def _own_age(node: _Node, origin: int) -> int:
    entry = node.lsdb.get(origin)
    return entry[0] if entry is not None else 0


def _install(node: _Node, ip: int, o: int, a: int, links, ctx: _Ctx) -> bool:
    old = _own_age(node, o)
    if not newer_age(a, old, ctx.bound):
        return False
    if old != 0 and a != old and 2 * abs(a - old) == ctx.bound:
        ctx.violations.append(Violation(
            "P3", f"origin {o}: age {old} -> {a} crosses the wrap window",
            node=ip,
        ))
    node.lsdb[o] = (a, frozenset(links))
    return True


def _originate(node: _Node, ip: int, ctx: _Ctx):
    node.age = next_age(node.age, ctx.bound)
    links = frozenset(node.nbrs)
    _install(node, ip, ip, node.age, links, ctx)
    return (ip, node.age, tuple(sorted(links)))


def _emit(node: _Node, msg, dests):
    node.outq.append((msg, dests))


def _timer_block(node: _Node, ip: int, ctx: _Ctx):
    if node.hellot <= 0:
        node.hellot = ctx.hellointvl
        _emit(node, ("hello", tuple(sorted(node.nbrs)), ip), None)
    dead = [nip for nip, res in node.nbrs.items() if res < 0]
    if dead:
        for nip in dead:
            del node.nbrs[nip]
        lsa = _originate(node, ip, ctx)
        _emit(node, ("upd", (lsa,), ip), frozenset(node.nbrs))


def _discover(node: _Node, ip: int, sip: int, ctx: _Ctx):
    node.nbrs[sip] = ctx.rtdeadintvl
    lsa = _originate(node, ip, ctx)
    _emit(node, ("upd", (lsa,), ip), frozenset(node.nbrs))
    hdrs = tuple((o, a) for o, (a, _) in sorted(node.lsdb.items()))
    _emit(node, ("dbd", hdrs, ip), frozenset({sip}))


def _handle(node: _Node, ip: int, msg, ctx: _Ctx):
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
            _emit(node, ("req", reqs, ip), frozenset({sip}))
    elif kind == "req":
        hdrs, sip = msg[1], msg[2]
        if sip not in node.nbrs:
            return
        wanted = {o: a for o, a in hdrs}
        lsas = tuple(
            (o, a, tuple(sorted(links)))
            for o, (a, links) in sorted(node.lsdb.items())
            if o in wanted and newer_age(a, wanted[o], ctx.bound)
        )
        _emit(node, ("upd", lsas, ip), frozenset({sip}))
    elif kind == "upd":
        # an entry is fresh only when the stored copy is NOT at least as
        # new; on an age tie the stored copy wins and nothing is
        # forwarded, which is what stops update echoes from circulating
        lsas = msg[1]
        fresh = []
        for o, a, links in lsas:
            if not newer_age(_own_age(node, o), a, ctx.bound):
                _install(node, ip, o, a, links, ctx)
                fresh.append((o, a, links))
        if fresh:
            _emit(node, ("upd", tuple(fresh), ip), frozenset(node.nbrs))
    else:
        raise ValueError(f"unknown message kind {kind!r}")


def _node_options(node: _Node) -> tuple[str, ...]:
    timer = node.hellot <= 0 or any(res < 0 for res in node.nbrs.values())
    msg = bool(node.inq)
    if timer and msg:
        return (TIMER_THEN_MSG, MSG_THEN_TIMER)
    if timer:
        return (TIMER_ONLY,)
    if msg:
        return (MSG_ONLY,)
    return (IDLE,)


def _apply_choice(node: _Node, ip: int, label: str, ctx: _Ctx):
    if label == TIMER_THEN_MSG:
        _timer_block(node, ip, ctx)
        _handle(node, ip, node.inq.pop(0), ctx)
    elif label == MSG_THEN_TIMER:
        _handle(node, ip, node.inq.pop(0), ctx)
        _timer_block(node, ip, ctx)
    elif label == TIMER_ONLY:
        _timer_block(node, ip, ctx)
    elif label == MSG_ONLY:
        _handle(node, ip, node.inq.pop(0), ctx)
    elif label != IDLE:
        raise ValueError(f"unknown choice {label!r}")


def _check_occupancy(world: _World, ctx: _Ctx, tracker: dict) -> None:
    occ = 0
    for ip, node in world.nodes.items():
        occ = max(occ, len(node.inq), len(node.outq))
        if len(node.inq) > ctx.queue_bound or len(node.outq) > ctx.queue_bound:
            which = "input" if len(node.inq) > ctx.queue_bound else "output"
            ctx.violations.append(Violation(
                "P1",
                f"node {ip} {which} queue holds "
                f"{max(len(node.inq), len(node.outq))} messages "
                f"(bound {ctx.queue_bound})",
                node=ip,
            ))
    tracker["max_occ"] = max(tracker["max_occ"], occ)


def _check_db(world: _World, ctx: _Ctx) -> None:
    for ip, node in world.nodes.items():
        for o, (a, links) in node.lsdb.items():
            if not 0 <= a <= ctx.bound or o in links:
                ctx.violations.append(Violation(
                    "P2", f"node {ip}: bad database entry for origin {o}",
                    node=ip,
                ))


def _deliver(world: _World) -> list:
    """Start of a tick: boots fire, then due transmissions deliver in
    sender order; messages to nodes not yet booted are lost.  Returns
    (sender, recipient, message, received) per recipient, in that order."""
    for node in world.nodes.values():
        if node.boot_res == 0:
            node.boot_res = BOOTED
    handed = []
    for sender in sorted(world.flights):
        msg, recipients, res = world.flights[sender]
        if res <= 0:
            del world.flights[sender]
            for rcpt in sorted(recipients):
                rnode = world.nodes[rcpt]
                if rnode.booted:
                    rnode.inq.append(msg)
                handed.append((sender, rcpt, msg, rnode.booted))
    return handed


def successors(canon, ctx: _Ctx, tracker: dict):
    """All (choice-combo, successor) pairs one tick onward."""
    base = _decode(canon)
    _deliver(base)

    ctx.violations = []
    _check_occupancy(base, ctx, tracker)
    if ctx.violations:
        yield None, None, list(ctx.violations)
        return

    ips = sorted(base.nodes)
    options = [
        _node_options(base.nodes[ip]) if base.nodes[ip].booted else (IDLE,)
        for ip in ips
    ]
    for combo in itertools.product(*options):
        world = base.copy()
        ctx.violations = []
        for ip, label in zip(ips, combo):
            _apply_choice(world.nodes[ip], ip, label, ctx)

        # idle senders start transmitting the head of their output queue
        for ip in ips:
            node = world.nodes[ip]
            if ip in world.flights or not node.outq:
                continue
            msg, dests = node.outq.pop(0)
            if dests is None:
                recipients = ctx.topology.neighbors(ip)
            else:
                recipients = dests & ctx.topology.neighbors(ip)
            world.flights[ip] = (msg, recipients, ctx.time_sending)

        _check_occupancy(world, ctx, tracker)
        _check_db(world, ctx)
        if ctx.violations:
            yield combo, None, list(ctx.violations)
            continue

        # time advances: every residue shrinks by one
        for node in world.nodes.values():
            if node.boot_res > 0:
                node.boot_res -= 1
            if node.booted:
                node.hellot -= 1
                for nip in node.nbrs:
                    node.nbrs[nip] -= 1
        for sender in list(world.flights):
            msg, recipients, res = world.flights[sender]
            world.flights[sender] = (msg, recipients, res - 1)

        yield combo, _encode(world), []


def state_converged(canon, topology: Topology) -> bool:
    nodes_t, flights_t = canon
    for _, msg, _, _ in flights_t:
        if msg[0] != "hello":
            return False
    for node in nodes_t:
        boot, _, _, _, _, inq, outq = node
        if boot != BOOTED:
            return False
        if any(m[0] != "hello" for m in inq):
            return False
        if any(m[0] != "hello" for m, _ in outq):
            return False
    for ip in topology.nodes():
        lsdb = {o: links for o, _, links in nodes_t[ip - 1][4]}
        for other in topology.component_of(ip):
            expected = tuple(sorted(topology.neighbors(other)))
            if expected:
                if lsdb.get(other) != expected:
                    return False
            elif lsdb.get(other):
                return False
    return True


def deterministic_choice(canon, ctx: _Ctx) -> tuple[str, ...]:
    """The engine schedule: every node runs timers first, then one message."""
    base = _decode(canon)
    _deliver(base)
    labels = []
    for ip in sorted(base.nodes):
        node = base.nodes[ip]
        labels.append(_node_options(node)[0] if node.booted else IDLE)
    return tuple(labels)


def explore(config: ExploreConfig) -> ExploreVerdict:
    """Breadth-first enumeration over boot offsets and interleavings."""
    config.validate()
    ctx = _Ctx(config)
    tracker = {"max_occ": 0}
    topo = config.topology

    roots = []
    for combo in itertools.product(
        range(config.start_interval + 1), repeat=topo.n
    ):
        # runs that differ only by a global shift collapse onto the
        # same residues one tick later, so anchor the earliest boot at 0
        if combo and min(combo) != 0:
            continue
        boots = {ip: combo[ip - 1] for ip in topo.nodes()}
        roots.append((initial_state(config, boots), boots))

    parents: dict = {}
    depth_of: dict = {}
    succ_graph: dict = {}
    converged_states = set()
    frontier = []
    for canon, boots in roots:
        if canon in depth_of:
            continue
        depth_of[canon] = 0
        parents[canon] = (None, None, boots)
        if state_converged(canon, topo):
            converged_states.add(canon)
        else:
            frontier.append(canon)

    depth = 0
    while frontier:
        if depth >= config.depth_bound:
            return ExploreVerdict(
                status="inconclusive",
                states=len(depth_of),
                max_queue_occupancy=tracker["max_occ"],
                depth_reached=depth,
                frontier_size=len(frontier),
                message=(
                    f"depth bound {config.depth_bound} reached with "
                    f"{len(frontier)} unconverged states on the frontier"
                ),
            )
        next_frontier = []
        for canon in frontier:
            children = []
            for combo, child, violations in successors(canon, ctx, tracker):
                if violations:
                    ce = _build_counterexample(
                        parents, canon, combo, violations[0], depth
                    )
                    return ExploreVerdict(
                        status="violation",
                        states=len(depth_of),
                        max_queue_occupancy=tracker["max_occ"],
                        depth_reached=depth,
                        counterexample=ce,
                        message=violations[0].detail,
                    )
                children.append(child)
                if child not in depth_of:
                    depth_of[child] = depth + 1
                    parents[child] = (canon, combo, None)
                    if state_converged(child, topo):
                        converged_states.add(child)
                    else:
                        next_frontier.append(child)
            succ_graph[canon] = children
            if len(depth_of) > config.max_states:
                return ExploreVerdict(
                    status="inconclusive",
                    states=len(depth_of),
                    max_queue_occupancy=tracker["max_occ"],
                    depth_reached=depth,
                    frontier_size=len(next_frontier) + len(frontier),
                    message=f"state budget {config.max_states} exhausted",
                )
        frontier = next_frontier
        depth += 1

    cycle = _find_unconverged_cycle(succ_graph, converged_states)
    if cycle is not None:
        ce = _build_counterexample(
            parents, cycle, None,
            Violation("convergence", "execution can avoid convergence forever"),
            depth_of[cycle],
        )
        return ExploreVerdict(
            status="violation",
            states=len(depth_of),
            max_queue_occupancy=tracker["max_occ"],
            depth_reached=depth,
            counterexample=ce,
            message="unconverged cycle: some execution never converges",
        )

    longest = _longest_unconverged_path(succ_graph, converged_states)
    return ExploreVerdict(
        status="pass",
        states=len(depth_of),
        max_queue_occupancy=tracker["max_occ"],
        depth_reached=depth,
        longest_path=longest,
        message="every execution reaches a converged state",
    )


def _build_counterexample(parents, canon, last_combo, violation, depth):
    choices = []
    cur = canon
    boots = None
    while True:
        parent, combo, root_boots = parents[cur]
        if parent is None:
            boots = root_boots
            break
        choices.append(combo)
        cur = parent
    choices.reverse()
    if last_combo is not None:
        choices.append(last_combo)
    return Counterexample(
        boot_offsets=boots,
        choices=choices,
        violation=violation,
        at_tick=depth if last_combo is None else depth + 1,
    )


def _find_unconverged_cycle(succ_graph, converged_states):
    """Any node on a cycle of unconverged states, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    for start in succ_graph:
        if start in converged_states or color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(succ_graph.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if child in converged_states:
                    continue
                c = color.get(child, WHITE)
                if c == GRAY:
                    return child
                if c == WHITE:
                    color[child] = GRAY
                    stack.append((child, iter(succ_graph.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _longest_unconverged_path(succ_graph, converged_states):
    """Longest walk through unconverged states, in ticks; this equals the
    worst-case time to convergence.  The graph is acyclic here."""
    memo: dict = {}
    # iterative post-order to avoid recursion limits on long chains
    for start in succ_graph:
        if start in converged_states:
            continue
        stack = [start]
        while stack:
            node = stack.pop()
            if node in memo or node in converged_states:
                continue
            children = [c for c in succ_graph.get(node, ())
                        if c not in converged_states]
            pending = [c for c in children if c not in memo]
            if pending:
                stack.append(node)
                stack.extend(pending)
            else:
                memo[node] = 1 + max((memo[c] for c in children), default=0)
    return max((v for k, v in memo.items()), default=0)


def counterexample_trace(config: ExploreConfig, counterexample: Counterexample):
    """Engine-format trace events (tick, node, kind, detail) along a
    recorded counterexample path.  Raises RuntimeError, through
    :func:`replay`, when the recorded choices do not replay."""
    from .engine import TraceEvent  # local import to avoid a cycle

    path, _ = replay(config, counterexample)
    events: list[TraceEvent] = []
    for tick, (cur, nxt) in enumerate(zip(path, path[1:] + [None])):
        world = _decode(cur)
        for ip in sorted(world.nodes):
            if world.nodes[ip].boot_res == 0:
                events.append(TraceEvent(tick, ip, "boot", {}))
        for sender, rcpt, msg, received in _deliver(world):
            if received:
                events.append(TraceEvent(
                    tick, rcpt, "deliver", {"from": sender, "type": msg[0]},
                ))
            else:
                events.append(TraceEvent(
                    tick, rcpt, "drop",
                    {"from": sender, "type": msg[0], "reason": "not_booted"},
                ))
        if nxt is None:
            continue
        after = _decode(nxt)
        for sender in sorted(after.flights):
            # a sender whose flight is still under way started nothing
            if sender not in world.flights:
                msg, recipients, _ = after.flights[sender]
                events.append(TraceEvent(
                    tick, sender, "send",
                    {"type": msg[0], "method": "broadcast" if msg[0] == "hello"
                     else "groupcast", "recipients": sorted(recipients)},
                ))
    return events


def replay(config: ExploreConfig, counterexample: Counterexample):
    """Re-execute a recorded path; returns the visited canonical states
    and the violations found on the way (empty only if none recur)."""
    ctx = _Ctx(config)
    tracker = {"max_occ": 0}
    canon = initial_state(config, counterexample.boot_offsets)
    visited = [canon]
    for combo in counterexample.choices:
        found = None
        for c, child, violations in successors(canon, ctx, tracker):
            if violations and c in (combo, None):
                return visited, violations
            if c == combo:
                found = child
                break
        if found is None:
            raise RuntimeError("counterexample does not replay: choice missing")
        canon = found
        visited.append(canon)
    # a delivery-phase violation surfaces when expanding the final state
    for _, _, violations in successors(canon, ctx, tracker):
        if violations:
            return visited, violations
        break
    return visited, []
