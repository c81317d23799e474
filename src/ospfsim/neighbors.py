"""Neighbour tables and their query/update operations.

Tables are immutable; every update returns a new table.  Updates that
target an absent neighbour leave the table unchanged, except where a
function is documented as partial (returning None) or as a programming
error (raising).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .core import (
    DbdDetailed,
    DetailedNeighbor,
    EMPTY_LSDB,
    Lsa,
    LsaHeader,
    Lsdb,
    NeighborState,
    NodeId,
    SimpleNeighbor,
    TimeStamp,
    hdr,
    header_leq,
)
from .lsdb import install

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


# bench/layertrace.py imports both names and wraps get/nips/of on each,
# so both stay bound to the one class
SimpleNbrTable = DetailedNbrTable = NbrTable


def nbr_exist(nbrs, nip: NodeId) -> bool:
    return nbrs.get(nip) is not None


def new_nbr(nbrs: NbrTable, entry: Neighbor) -> NbrTable:
    if nbr_exist(nbrs, entry.nip):
        raise RuntimeError(f"neighbour {entry.nip} already exists")
    return NbrTable.of(nbrs.entries + (entry,))


def dead_nbrs(nbrs, t: TimeStamp):
    """Entries whose inactivity deadline has strictly passed."""
    return tuple(n for n in nbrs.entries if n.inact_deadline < t)


def nbr_field_set(
    nbrs: NbrTable, nip: NodeId, fieldname: str, value
) -> NbrTable:
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    rest = tuple(n for n in nbrs.entries if n.nip != nip)
    return NbrTable.of(rest + (replace(entry, **{fieldname: value}),))


def inc_ddsqn(nbrs: NbrTable, nip: NodeId) -> NbrTable:
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    return nbr_field_set(nbrs, nip, "ddsqn", entry.ddsqn + 1)


def init_nbr(
    nbrs: NbrTable, nip: NodeId, ns: NeighborState
) -> NbrTable:
    """Reset a neighbour to state ``ns``, wiping request and retransmission lists."""
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    reset = replace(entry, ns=ns, req_list=frozenset(), rxmt_list=EMPTY_LSDB)
    rest = tuple(n for n in nbrs.entries if n.nip != nip)
    return NbrTable.of(rest + (reset,))


def clean_reqs(
    nbrs: NbrTable, nip: NodeId, lsdb: Lsdb
) -> Optional[NbrTable]:
    """Drop request-list headers dominated by the database; None when nip is absent."""
    entry = nbrs.get(nip)
    if entry is None:
        return None
    reqs = frozenset(
        h for h in entry.req_list if not any(header_leq(h, hdr(l)) for l in lsdb)
    )
    return nbr_field_set(nbrs, nip, "req_list", reqs)


def add_reqs(
    nbrs: NbrTable, nip: NodeId, lsdb: Lsdb, hdrs: frozenset[LsaHeader]
) -> Optional[NbrTable]:
    """Extend the request list with ``hdrs``, then clean it against ``lsdb``."""
    entry = nbrs.get(nip)
    if entry is None:
        return None
    widened = nbr_field_set(nbrs, nip, "req_list", entry.req_list | hdrs)
    return clean_reqs(widened, nip, lsdb)


def clean_rxmts(
    nbrs: NbrTable, nip: NodeId, hdrs: frozenset[LsaHeader]
) -> Optional[NbrTable]:
    """Drop retransmission entries acknowledged by ``hdrs``; None when nip is absent."""
    entry = nbrs.get(nip)
    if entry is None:
        return None
    rxmts = Lsdb.of(
        l
        for l in entry.rxmt_list
        if not any(header_leq(hdr(l), h) for h in hdrs)
    )
    return nbr_field_set(nbrs, nip, "rxmt_list", rxmts)


def upd_rxmts(nbrs: NbrTable, lsas: Lsdb) -> NbrTable:
    """Install ``lsas`` into the retransmission list of every neighbour at
    Exchange or beyond; earlier neighbours are untouched."""
    out = []
    for n in nbrs.entries:
        if n.ns >= NeighborState.EXCHANGE:
            out.append(replace(n, rxmt_list=install(n.rxmt_list, lsas)))
        else:
            out.append(n)
    return NbrTable.of(out)


def select_fired(
    nbrs: NbrTable, now: TimeStamp, ip: NodeId, kind: str
) -> Optional[NodeId]:
    """Deterministically pick a neighbour whose ``kind`` timer has fired.

    dd:   exchange-opening retransmission; at Exchange only the side
          that drives the exchange (neighbour id <= own id) retransmits.
    req:  pending request list with a fired request timer.
    rxmt: pending retransmission list with a fired retransmission timer.
    """
    if kind == "dd":
        cands = [
            n.nip
            for n in nbrs.entries
            if n.dd_deadline < now
            and (
                n.ns == NeighborState.EX_START
                or (n.ns == NeighborState.EXCHANGE and n.nip <= ip)
            )
        ]
    elif kind == "req":
        cands = [
            n.nip for n in nbrs.entries if n.req_deadline < now and n.req_list
        ]
    elif kind == "rxmt":
        cands = [
            n.nip for n in nbrs.entries if n.rxmt_deadline < now and n.rxmt_list
        ]
    else:
        raise ValueError(f"unknown timer kind {kind!r}")
    return min(cands) if cands else None


def flood_nips(nbrs: NbrTable) -> frozenset[NodeId]:
    """Destinations for flooding: every neighbour at Exchange or beyond."""
    return frozenset(
        n.nip for n in nbrs.entries if n.ns >= NeighborState.EXCHANGE
    )


def gen_dbd(
    nbrs: NbrTable, lsdb: Lsdb, nip: NodeId, ip: NodeId
) -> Optional[DbdDetailed]:
    """Database summary message for ``nip``.

    At ExStart the message opens the exchange (init bit set); from
    Exchange on it carries the current summary with the init bit clear.
    Below ExStart no message is produced.
    """
    entry = nbrs.get(nip)
    if entry is None or entry.ns < NeighborState.EX_START:
        return None
    return DbdDetailed(
        hdrs=lsdb.headers(),
        sqn=entry.ddsqn,
        ibit=entry.ns == NeighborState.EX_START,
        sip=ip,
    )


def min_header(hdrs: Iterable[LsaHeader]) -> LsaHeader:
    """Deterministic choice of a header: lexicographic minimum on (origin, stamp)."""
    return min(hdrs, key=lambda h: (h.origin, h.stamp))
