"""LSA creation, database installation and freshness comparisons.

Two freshness regimes coexist: the protocol state machines compare
unbounded timestamps of entries with the same origin, while the
explorer uses bounded wrap-around ages compared by :func:`newer_age`.

Databases hold one entry per origin (RFC 2328 §12.2), so
:func:`install` and :func:`lsa_exist` do one origin lookup per header
instead of comparing against every stored entry.  :func:`install`
returns its input database unchanged, as the same object, when nothing
incoming is fresher, and otherwise rebuilds it from its origin index
without a second validation.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    Lsa,
    LsaHeader,
    Lsdb,
    Neighbor,
    NeighborState,
    NodeId,
    TimeStamp,
)


def new_lsa(ip: NodeId, t: TimeStamp, nbrs: Iterable[Neighbor]) -> Lsa:
    """Advertisement listing neighbours with confirmed bidirectional links,
    those at 2-Way or beyond."""
    return Lsa(
        ip, t, frozenset(n.nip for n in nbrs if n.ns >= NeighborState.TWO_WAY)
    )


def own_stamp(lsdb: Lsdb, ip: NodeId, now: TimeStamp) -> TimeStamp:
    """The stamp of a new own advertisement of ``ip``: ``now``, or one
    past the stamp it already holds, so that each new instance is newer
    than the last (RFC 2328 §12.1.6) even when two originate in one tick."""
    own = lsdb.get(ip)
    return now if own is None else max(now, own.stamp + 1)


def install(lsdb: Lsdb, lsas: Lsdb) -> Lsdb:
    """Merge ``lsas`` into ``lsdb``, keeping the freshest entry per origin.

    An incoming entry replaces the stored one only when its stamp is
    strictly greater, so on a stamp tie the stored entry wins.  When no
    incoming entry is fresher, ``lsdb`` itself is returned.  Otherwise
    the fresher entries are written into a copy of the origin index,
    which is re-sorted only when a new origin arrived.
    """
    index = None
    grew = False
    for lsa in lsas:
        old = lsdb.by_origin.get(lsa.origin)
        if old is None or old.stamp < lsa.stamp:
            if index is None:
                index = dict(lsdb.by_origin)
            index[lsa.origin] = lsa
            grew = grew or old is None
    if index is None:
        return lsdb
    if grew:
        index = {o: index[o] for o in sorted(index)}
    return Lsdb.from_index(index)


def lsa_exist(lsdb: Lsdb, h: LsaHeader) -> bool:
    """True when the database already holds information at least as fresh as ``h``."""
    lsa = lsdb.get(h.origin)
    return lsa is not None and h.stamp <= lsa.stamp


def newer_age(age1: int, age2: int, age_bound: int) -> bool:
    """True when ``age1`` is newer than ``age2`` under wrap-around ages.

    Age 0 means "no advertisement".  Equal non-zero ages count as newer;
    callers rely on the resulting install being a no-op in content.
    """
    if age1 == 0:
        return False
    if age2 == 0:
        return True
    if (age2 > age1 and 2 * (age2 - age1) < age_bound) or (
        age1 > age2 and 2 * (age1 - age2) > age_bound
    ):
        return False
    return True


def next_age(age: int, age_bound: int) -> int:
    """Advance a generation counter, wrapping from age_bound back to 1."""
    return 1 if age == age_bound else age + 1
