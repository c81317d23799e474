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
    hash equal.  The constructor rejects inputs with two distinct
    entries for the same origin.

    An origin -> entry index, built once by the constructor, answers
    :meth:`get` without a scan.  It is not a dataclass field, so
    equality, hashing and ``repr`` stay on ``entries``.  :func:`ospfsim.lsdb.install` returns the database it
    was given when nothing incoming is fresher; the engine's trace diff
    relies on that identity to skip unchanged databases.
    """

    entries: tuple[Lsa, ...] = ()

    def __post_init__(self):
        by_origin = {}
        for lsa in self.entries:
            prev = by_origin.get(lsa.origin)
            if prev is not None and prev != lsa:
                raise ValueError(f"duplicate entries for origin {lsa.origin}")
            by_origin[lsa.origin] = lsa
        ordered = tuple(by_origin[o] for o in sorted(by_origin))
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "_by_origin", by_origin)

    @classmethod
    def of(cls, lsas: Iterable[Lsa]) -> "Lsdb":
        return cls(tuple(lsas))

    def get(self, origin: NodeId) -> Optional[Lsa]:
        return self._by_origin.get(origin)

    def headers(self) -> frozenset[LsaHeader]:
        return frozenset(hdr(lsa) for lsa in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)


EMPTY_LSDB = Lsdb()


@dataclass(frozen=True)
class SimpleNeighbor:
    nip: NodeId
    inact_deadline: TimeStamp


@dataclass(frozen=True)
class DetailedNeighbor:
    """Per-neighbour record: adjacency state, exchange sequencing and
    the three retransmission bookkeeping pairs (list + deadline)."""

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


Neighbor = Union[SimpleNeighbor, DetailedNeighbor]


@dataclass(frozen=True)
class NbrTable:
    """Neighbour entries of either model, kept sorted by neighbour id."""

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


# --- control messages ---------------------------------------------------
# each class names its wire-level family (hello, dbd, req, upd or ack) in
# ``kind``, a class attribute and not a field


@dataclass(frozen=True)
class Hello:
    kind: ClassVar[str] = "hello"
    ips: frozenset[NodeId]
    sip: NodeId


@dataclass(frozen=True)
class DbdSimple:
    kind: ClassVar[str] = "dbd"
    hdrs: frozenset[LsaHeader]
    sip: NodeId


@dataclass(frozen=True)
class DbdDetailed:
    kind: ClassVar[str] = "dbd"
    hdrs: frozenset[LsaHeader]
    sqn: DdSqn
    ibit: bool
    sip: NodeId


@dataclass(frozen=True)
class ReqSimple:
    kind: ClassVar[str] = "req"
    hdrs: frozenset[LsaHeader]
    sip: NodeId


@dataclass(frozen=True)
class ReqDetailed:
    kind: ClassVar[str] = "req"
    hdr: LsaHeader
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


Message = Union[Hello, DbdSimple, DbdDetailed, ReqSimple, ReqDetailed, Upd, Ack]


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
