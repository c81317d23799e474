"""Network topologies and the line-oriented topology file format.

File format, one directive per line ('#' starts a comment):

    nodes N          exactly once, before any line that names a node
    edge i j
    adj i j          optional; the graph of allowed adjacencies: listing
                     any pair restricts adjacency formation to the listed
                     pairs, and a listed pair that is no edge is ignored
    boot i t         optional per-node boot tick
    key value        config overrides (hellointvl, rtdeadintvl,
                     rxmtintvl, refreshintvl, time_sending, loss_prob,
                     seed, max_ticks)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import NodeId


class TopologyError(ValueError):
    """Malformed topology file; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Topology:
    """An undirected graph over nodes 1..n: the links of a network, or
    the pairs of nodes allowed to become adjacent."""

    n: int
    edges: frozenset[tuple[NodeId, NodeId]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a topology needs at least one node")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge ({a},{b}) outside nodes 1..{self.n}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))
        # derived once; not dataclass fields, so equality and hashing
        # stay on (n, edges)
        adj = {ip: set() for ip in self.nodes()}
        for a, b in norm:
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(
            self, "_adj", {ip: frozenset(out) for ip, out in adj.items()})
        comp = {}
        for ip in self.nodes():
            if ip not in comp:
                members = frozenset(self._distances(ip))
                comp.update(dict.fromkeys(members, members))
        object.__setattr__(self, "_comp", comp)

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def connected(self, a: NodeId, b: NodeId) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, ip: NodeId) -> frozenset[NodeId]:
        return self._adj[ip]

    def component_of(self, ip: NodeId) -> frozenset[NodeId]:
        return self._comp[ip]

    def diameter(self) -> int:
        """Longest shortest path over all connected pairs."""
        return max(max(self._distances(src).values()) for src in self.nodes())

    def _distances(self, src: NodeId) -> dict[NodeId, int]:
        """Hops from ``src`` to each node it reaches."""
        dist = {src: 0}
        order = [src]
        for cur in order:  # appending while iterating visits in BFS order
            for nxt in self._adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    order.append(nxt)
        return dist


def line(n: int) -> Topology:
    return Topology(n, frozenset((i, i + 1) for i in range(1, n)))


def ring(n: int) -> Topology:
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return Topology(n, frozenset(edges))


def star(n: int) -> Topology:
    """Node 1 is the hub, nodes 2..n are spokes."""
    return Topology(n, frozenset((1, i) for i in range(2, n + 1)))


# each "key value" setting and the type of its value
_SETTING_TYPES = {
    "hellointvl": int,
    "rtdeadintvl": int,
    "rxmtintvl": int,
    "refreshintvl": int,
    "time_sending": int,
    "seed": int,
    "max_ticks": int,
    "loss_prob": float,
}
VALID_KEYS = tuple(_SETTING_TYPES) + ("boot",)


@dataclass
class TopologyFile:
    topology: Topology
    # None when the file has no adj line: every link may form an adjacency
    adjacency: Optional[Topology] = None
    boot_offsets: dict[NodeId, int] = field(default_factory=dict)
    overrides: dict[str, float] = field(default_factory=dict)


def parse_topology(text: str) -> TopologyFile:
    n: Optional[int] = None
    pairs: dict[str, list[tuple[int, int]]] = {"edge": [], "adj": []}
    boots: dict[int, int] = {}
    overrides: dict[str, float] = {}

    def want_node(lineno: int, token: str) -> int:
        try:
            v = int(token)
        except ValueError:
            raise TopologyError(lineno, f"expected a node id, got {token!r}")
        if n is None:
            raise TopologyError(lineno, "'nodes N' must come first")
        if not (1 <= v <= n):
            raise TopologyError(lineno, f"node {v} outside 1..{n}")
        return v

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        key = parts[0]
        if key == "nodes":
            if n is not None:
                raise TopologyError(lineno, "duplicate 'nodes N' directive")
            if len(parts) != 2:
                raise TopologyError(lineno, "usage: nodes N")
            try:
                n = int(parts[1])
            except ValueError:
                raise TopologyError(lineno, f"bad node count {parts[1]!r}")
            if n < 1:
                raise TopologyError(lineno, "node count must be positive")
        elif key in pairs:
            if len(parts) != 3:
                raise TopologyError(lineno, f"usage: {key} i j")
            a, b = want_node(lineno, parts[1]), want_node(lineno, parts[2])
            if a == b:
                raise TopologyError(lineno, f"self-loop on node {a}")
            pairs[key].append((a, b))
        elif key == "boot":
            if len(parts) != 3:
                raise TopologyError(lineno, "usage: boot i t")
            node = want_node(lineno, parts[1])
            if node in boots:
                raise TopologyError(lineno, f"duplicate boot line for node {node}")
            try:
                t = int(parts[2])
            except ValueError:
                raise TopologyError(lineno, f"bad boot tick {parts[2]!r}")
            if t < 0:
                raise TopologyError(lineno, "boot tick must be non-negative")
            boots[node] = t
        elif key in _SETTING_TYPES:
            if key in overrides:
                raise TopologyError(lineno, f"duplicate {key!r} setting")
            if len(parts) != 2:
                raise TopologyError(lineno, f"usage: {key} value")
            try:
                overrides[key] = _SETTING_TYPES[key](parts[1])
            except ValueError:
                raise TopologyError(lineno, f"bad value {parts[1]!r} for {key}")
        else:
            raise TopologyError(
                lineno,
                f"unknown key {key!r}; valid keys: nodes, edge, adj, "
                + ", ".join(VALID_KEYS),
            )

    if n is None:
        raise TopologyError(0, "missing 'nodes N' directive")
    topo = Topology(n, frozenset(pairs["edge"]))
    adj = Topology(n, frozenset(pairs["adj"])) if pairs["adj"] else None
    return TopologyFile(topo, adj, boots, overrides)


def load_topology(path: str) -> TopologyFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())
