"""Neighbour tables and their query/update operations.

Tables are immutable; an update returns a new table, or the table it
was given, as the same object, when it targets an absent neighbour or
changes nothing.  The engine's trace diff relies on that identity to
skip unchanged tables.

A changed neighbour is one copy of the record's fields with the
changes applied, after which ``Neighbor.__post_init__`` runs, so the
ExStart check stays without the constructor's keyword binding.
:func:`nbr_set` and :func:`upd_rxmts` change neighbours in place,
keeping every id and position, so they rebuild the table with
``NbrTable.from_sorted``: no re-sort and no duplicate check.
:func:`new_nbr` and :func:`drop_dead` go through ``NbrTable.of``.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Dbd,
    LsaHeader,
    Lsdb,
    NbrTable,
    Neighbor,
    NeighborState,
    NodeId,
    TimeStamp,
)
from .lsdb import install, lsa_exist

# bench/layertrace.py imports both names and wraps get/nips/of on each,
# so both stay bound to the one class
SimpleNbrTable = DetailedNbrTable = NbrTable


def new_nbr(nbrs: NbrTable, entry: Neighbor) -> NbrTable:
    if nbrs.get(entry.nip) is not None:
        raise RuntimeError(f"neighbour {entry.nip} already exists")
    return NbrTable.of(nbrs.entries + (entry,))


def _rebuilt(entry: Neighbor, fields: dict) -> Neighbor:
    """``entry`` with ``fields`` changed: one copy of its fields, checked
    by ``Neighbor.__post_init__`` but not bound by the constructor; the
    caller names only fields that ``Neighbor`` has."""
    changed = object.__new__(Neighbor)
    attrs = changed.__dict__
    attrs.update(entry.__dict__)
    attrs.update(fields)
    changed.__post_init__()
    return changed


def nbr_set(nbrs: NbrTable, nip: NodeId, **fields) -> NbrTable:
    """Apply every field change of one transition to neighbour ``nip``
    in a single rebuild.  A field that ``Neighbor`` lacks raises
    AttributeError when ``nip`` is in the table."""
    entries = nbrs.entries
    for i, entry in enumerate(entries):
        if entry.nip == nip:
            break
    else:
        return nbrs
    same = True
    for k, v in fields.items():
        if getattr(entry, k) != v:
            same = False
    if same:
        return nbrs
    return NbrTable.from_sorted(
        entries[:i] + (_rebuilt(entry, fields),) + entries[i + 1:])


def drop_dead(nbrs: NbrTable, t: TimeStamp) -> NbrTable:
    """The table without entries whose inactivity deadline has strictly
    passed."""
    for n in nbrs.entries:
        if n.inact_deadline < t:
            return NbrTable.of(m for m in nbrs.entries if m.inact_deadline >= t)
    return nbrs


def add_reqs(
    reqs: frozenset[LsaHeader], lsdb: Lsdb, hdrs: frozenset[LsaHeader]
) -> frozenset[LsaHeader]:
    """The request list ``reqs`` widened by ``hdrs``, less every header
    the database holds at least as fresh."""
    return frozenset(h for h in reqs | hdrs if not lsa_exist(lsdb, h))


def clean_reqs(nbrs: NbrTable, nip: NodeId, lsdb: Lsdb) -> NbrTable:
    """Drop request-list headers dominated by the database."""
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    reqs = frozenset(h for h in entry.req_list if not lsa_exist(lsdb, h))
    if len(reqs) == len(entry.req_list):
        return nbrs
    return nbr_set(nbrs, nip, req_list=reqs)


def clean_rxmts(
    nbrs: NbrTable, nip: NodeId, hdrs: frozenset[LsaHeader]
) -> NbrTable:
    """Drop retransmission entries acknowledged by ``hdrs``."""
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    # an entry is acknowledged by any header of its origin at least as fresh
    acked = {}
    for h in hdrs:
        acked[h.origin] = max(h.stamp, acked.get(h.origin, h.stamp))
    kept = [
        l for l in entry.rxmt_list
        if l.origin not in acked or acked[l.origin] < l.stamp
    ]
    if len(kept) == len(entry.rxmt_list):
        return nbrs
    # what is left of an origin-ordered index is still one
    return nbr_set(nbrs, nip,
                   rxmt_list=Lsdb.from_index({l.origin: l for l in kept}))


def upd_rxmts(nbrs: NbrTable, lsas: Lsdb, deadline: TimeStamp) -> NbrTable:
    """Install ``lsas`` into the retransmission list of every neighbour at
    Exchange or beyond and arm its retransmission timer for ``deadline``;
    earlier neighbours are untouched."""
    return NbrTable.from_sorted(tuple(
        _rebuilt(n, {"rxmt_list": install(n.rxmt_list, lsas),
                     "rxmt_deadline": deadline})
        if n.ns >= NeighborState.EXCHANGE
        else n
        for n in nbrs.entries
    ))


def flood_nips(nbrs: NbrTable) -> frozenset[NodeId]:
    """Destinations for flooding: every neighbour at Exchange or beyond."""
    return frozenset(
        n.nip for n in nbrs.entries if n.ns >= NeighborState.EXCHANGE
    )


def gen_dbd(
    nbrs: NbrTable, lsdb: Lsdb, nip: NodeId, ip: NodeId
) -> Optional[Dbd]:
    """Database summary message for ``nip``.

    At ExStart the message opens the exchange (init bit set); from
    Exchange on it carries the current summary with the init bit clear.
    Below ExStart no message is produced.
    """
    entry = nbrs.get(nip)
    if entry is None or entry.ns < NeighborState.EX_START:
        return None
    return Dbd(
        hdrs=lsdb.headers(),
        sqn=entry.ddsqn,
        ibit=entry.ns == NeighborState.EX_START,
        sip=ip,
    )
