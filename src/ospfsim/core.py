"""Domain types shared by both protocol models.

Node identifiers are small positive integers; 0 is reserved to mean
"no node".  All types here are immutable values, safe to copy, hash and
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar, Iterable, Optional, Union

NodeId = int
TimeStamp = int
DdSqn = int


class NeighborState(IntEnum):
    """Adjacency progress with a neighbour, strictly ordered."""

    INIT = 1
    TWO_WAY = 2
    EX_START = 3
    EXCHANGE = 4
    LOADING = 5
    FULL = 6

    def label(self) -> str:
        return _NS_LABELS[self]


_NS_LABELS = {
    NeighborState.INIT: "Init",
    NeighborState.TWO_WAY: "2-Way",
    NeighborState.EX_START: "ExStart",
    NeighborState.EXCHANGE: "Exchange",
    NeighborState.LOADING: "Loading",
    NeighborState.FULL: "Full",
}


@dataclass(frozen=True, order=True)
class LsaHeader:
    """Identity and freshness key of a link state advertisement."""

    origin: NodeId
    stamp: TimeStamp


@dataclass(frozen=True)
class Lsa:
    """One router's advertised outgoing links, keyed by (origin, stamp)."""

    origin: NodeId
    stamp: TimeStamp
    links: frozenset[NodeId]

    def __post_init__(self):
        if self.origin in self.links:
            raise ValueError(f"node {self.origin} cannot list itself as a link")


def hdr(lsa: Lsa) -> LsaHeader:
    return LsaHeader(lsa.origin, lsa.stamp)


@dataclass(frozen=True)
class Lsdb:
    """A set of advertisements with at most one entry per originator.

    Entries are kept sorted by origin so equal databases compare and
    hash equal.  ``Lsdb(...)`` and :meth:`of` validate: they reject two
    distinct entries for the same origin and sort the rest (a single
    entry needs no sort).  :meth:`from_index` trusts its input instead.

    ``by_origin``, an origin -> entry dict in origin order, answers
    :meth:`get` without a scan; read it, never write it.  It is not a
    dataclass field, so equality, hashing and ``repr`` stay on
    ``entries``.  :func:`ospfsim.lsdb.install` copies it and returns the
    database it was given when nothing incoming is fresher; the engine's
    trace diff relies on that identity to skip unchanged databases.
    """

    entries: tuple[Lsa, ...] = ()

    def __post_init__(self):
        by_origin = {}
        for lsa in self.entries:
            prev = by_origin.get(lsa.origin)
            if prev is not None and prev != lsa:
                raise ValueError(f"duplicate entries for origin {lsa.origin}")
            by_origin[lsa.origin] = lsa
        if len(by_origin) > 1:
            by_origin = {o: by_origin[o] for o in sorted(by_origin)}
        object.__setattr__(self, "entries", tuple(by_origin.values()))
        object.__setattr__(self, "by_origin", by_origin)

    @classmethod
    def of(cls, lsas: Iterable[Lsa]) -> "Lsdb":
        return cls(tuple(lsas))

    @classmethod
    def from_index(cls, by_origin: dict[NodeId, Lsa]) -> "Lsdb":
        """The database over ``by_origin``, which must map each origin to
        its entry in ascending origin order; it is kept, not copied, and
        neither checked nor sorted."""
        db = object.__new__(cls)
        object.__setattr__(db, "entries", tuple(by_origin.values()))
        object.__setattr__(db, "by_origin", by_origin)
        return db

    def get(self, origin: NodeId) -> Optional[Lsa]:
        return self.by_origin.get(origin)

    def headers(self) -> frozenset[LsaHeader]:
        return frozenset(hdr(lsa) for lsa in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


EMPTY_LSDB = Lsdb()


@dataclass(frozen=True)
class Neighbor:
    """Per-neighbour record of both models.  The simple model keeps each
    neighbour at 2-Way and reads only ``nip`` and ``inact_deadline``; the
    detailed one adds exchange sequencing and three retransmission pairs."""

    nip: NodeId
    ns: NeighborState
    inact_deadline: TimeStamp = 0
    ddsqn: DdSqn = 0
    dd_deadline: TimeStamp = 0
    req_list: frozenset[LsaHeader] = frozenset()
    req_deadline: TimeStamp = 0
    rxmt_list: Lsdb = EMPTY_LSDB
    rxmt_deadline: TimeStamp = 0

    def __post_init__(self):
        if self.ns < NeighborState.EX_START and (self.req_list or self.rxmt_list):
            raise ValueError(
                f"neighbour {self.nip}: request/retransmission lists must be "
                f"empty below ExStart"
            )


@dataclass(frozen=True)
class NbrTable:
    """Neighbour entries of either model, kept sorted by neighbour id.

    ``NbrTable(...)`` and :meth:`of` reject two entries for one
    neighbour and sort; :meth:`from_sorted` trusts its input instead."""

    entries: tuple[Neighbor, ...] = ()

    def __post_init__(self):
        nips = [n.nip for n in self.entries]
        if len(nips) != len(set(nips)):
            raise ValueError("duplicate neighbour entries")
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda n: n.nip))
        )

    @classmethod
    def of(cls, entries: Iterable[Neighbor]) -> "NbrTable":
        return cls(tuple(entries))

    @classmethod
    def from_sorted(cls, entries: tuple[Neighbor, ...]) -> "NbrTable":
        """The table of ``entries``, which must be in ascending neighbour
        id with no id twice; neither checked nor sorted."""
        table = object.__new__(cls)
        object.__setattr__(table, "entries", entries)
        return table

    def get(self, nip: NodeId) -> Optional[Neighbor]:
        for n in self.entries:
            if n.nip == nip:
                return n
        return None

    def nips(self) -> frozenset[NodeId]:
        return frozenset(n.nip for n in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class NodeState:
    """One router's protocol state, the same in both models."""

    ip: NodeId
    nbrs: NbrTable = NbrTable()
    lsdb: Lsdb = EMPTY_LSDB
    hellot: TimeStamp = 0

    def evolve(self, *, nbrs: Optional[NbrTable] = None,
               lsdb: Optional[Lsdb] = None,
               hellot: Optional[TimeStamp] = None) -> "NodeState":
        """A copy with the given fields changed, equal to
        ``dataclasses.replace``, or this state itself when each given
        value is the object already held."""
        nbrs = self.nbrs if nbrs is None else nbrs
        lsdb = self.lsdb if lsdb is None else lsdb
        hellot = self.hellot if hellot is None else hellot
        if nbrs is self.nbrs and lsdb is self.lsdb and hellot is self.hellot:
            return self
        return NodeState(self.ip, nbrs, lsdb, hellot)


# --- control messages ---------------------------------------------------
# one class per wire-level kind (hello, dbd, req, upd or ack), which it
# names in ``kind``, a class attribute and not a field


@dataclass(frozen=True)
class Hello:
    kind: ClassVar[str] = "hello"
    ips: frozenset[NodeId]
    sip: NodeId


@dataclass(frozen=True)
class Dbd:
    """A database summary; the simple model never reads sqn or ibit."""

    kind: ClassVar[str] = "dbd"
    hdrs: frozenset[LsaHeader]
    sqn: DdSqn
    ibit: bool
    sip: NodeId


@dataclass(frozen=True)
class Req:
    kind: ClassVar[str] = "req"
    hdrs: frozenset[LsaHeader]
    sip: NodeId


@dataclass(frozen=True)
class Upd:
    kind: ClassVar[str] = "upd"
    lsas: Lsdb
    sip: NodeId


@dataclass(frozen=True)
class Ack:
    kind: ClassVar[str] = "ack"
    hdrs: frozenset[LsaHeader]
    sip: NodeId


Message = Union[Hello, Dbd, Req, Upd, Ack]


@dataclass(frozen=True)
class SendInstruction:
    """A message paired with its sending method.

    ``dests`` is None for a broadcast and an explicit destination set
    for a groupcast.  Hello messages are always broadcast, everything
    else is always groupcast.
    """

    payload: Message
    dests: Optional[frozenset[NodeId]] = None

    def __post_init__(self):
        if isinstance(self.payload, Hello):
            if self.dests is not None:
                raise ValueError("hello messages must be broadcast")
        elif self.dests is None:
            raise ValueError("non-hello messages must be groupcast")

    @property
    def is_broadcast(self) -> bool:
        return self.dests is None


def broadcast(msg: Message) -> SendInstruction:
    return SendInstruction(msg)


def groupcast(msg: Message, dests: Iterable[NodeId]) -> SendInstruction:
    return SendInstruction(msg, frozenset(dests))


@dataclass(frozen=True)
class ProtocolConfig:
    """Timer constants shared by the protocol state machines (in ticks);
    ``EngineConfig`` inherits them, and ``ExploreConfig`` takes its
    defaults from ``EngineConfig``."""

    hellointvl: int = 10
    rtdeadintvl: int = 50
    rxmtintvl: int = 24
    refreshintvl: int = 1000
