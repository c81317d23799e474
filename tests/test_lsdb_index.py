"""Properties of the origin-indexed database and the lookups built on it.

The quadratic definitions below are the scans the indexed code
replaced; they stay here as oracles.  The table operations must also
return the very table they were given whenever the oracle's result
equals it, since the engine's trace diff skips a table by identity.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from ospfsim.core import (
    DetailedNeighbor,
    Lsa,
    LsaHeader,
    Lsdb,
    NeighborState,
    hdr,
)
from ospfsim.lsdb import install, lsa_exist
from ospfsim.neighbors import NbrTable, clean_reqs, clean_rxmts, nbr_set

ORIGINS = range(1, 7)
PROPS = settings(max_examples=50, deadline=None, derandomize=True)


def entry_lists():
    """Entries with distinct origins, in drawn order."""
    fields = st.tuples(st.integers(0, 8), st.frozensets(st.sampled_from(ORIGINS)))
    return st.dictionaries(st.sampled_from(ORIGINS), fields).map(
        lambda d: [Lsa(o, stamp, links - {o}) for o, (stamp, links) in d.items()]
    )


def lsdbs():
    return entry_lists().map(Lsdb.of)


def headers():
    return st.frozensets(
        st.builds(LsaHeader, st.sampled_from(ORIGINS), st.integers(0, 8))
    )


def header_leq(h1, h2):
    """Headers are ordered only within one origin, by stamp."""
    return h1.origin == h2.origin and h1.stamp <= h2.stamp


def scan_get(lsdb, origin):
    return next((l for l in lsdb.entries if l.origin == origin), None)


def oracle_lsa_exist(lsdb, h):
    return any(header_leq(h, hdr(lsa)) for lsa in lsdb)


def oracle_clean_reqs(nbrs, nip, lsdb):
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    reqs = frozenset(
        h for h in entry.req_list if not any(header_leq(h, hdr(l)) for l in lsdb)
    )
    return nbr_set(nbrs, nip, req_list=reqs)


def oracle_clean_rxmts(nbrs, nip, hdrs):
    entry = nbrs.get(nip)
    if entry is None:
        return nbrs
    rxmts = Lsdb.of(
        l for l in entry.rxmt_list if not any(header_leq(hdr(l), h) for h in hdrs)
    )
    return nbr_set(nbrs, nip, rxmt_list=rxmts)


def table(req_list, rxmt_list):
    """Neighbour 1 holds the lists; neighbour 2 is a bystander."""
    return NbrTable.of([
        DetailedNeighbor(nip=1, ns=NeighborState.LOADING,
                         req_list=req_list, rxmt_list=rxmt_list),
        DetailedNeighbor(nip=2, ns=NeighborState.FULL),
    ])


@PROPS
@given(entry_lists(), st.randoms(use_true_random=False))
def test_value_does_not_depend_on_construction_order(entries, rng):
    db = Lsdb.of(entries)
    shuffled = entries + entries[: rng.randint(0, len(entries))]
    rng.shuffle(shuffled)
    other = Lsdb.of(shuffled)
    assert other == db
    assert hash(other) == hash(db)
    assert repr(other) == repr(db)
    # the index is not part of the value
    assert [f.name for f in dataclasses.fields(Lsdb)] == ["entries"]
    assert hash(db) == hash((db.entries,))
    assert repr(db) == f"Lsdb(entries={db.entries!r})"


@PROPS
@given(lsdbs())
def test_get_matches_a_scan(db):
    for origin in range(0, len(ORIGINS) + 2):
        assert db.get(origin) == scan_get(db, origin)


@PROPS
@given(lsdbs(), headers())
def test_lsa_exist_matches_the_quadratic_definition(db, hdrs):
    for h in hdrs:
        assert lsa_exist(db, h) == oracle_lsa_exist(db, h)


@PROPS
@given(lsdbs(), headers(), lsdbs())
def test_clean_reqs_matches_the_quadratic_definition(db, reqs, rxmts):
    nbrs = table(reqs, rxmts)
    for nip in (1, 2, 3):
        got = clean_reqs(nbrs, nip, db)
        want = oracle_clean_reqs(nbrs, nip, db)
        assert got == want
        assert (got is nbrs) == (want == nbrs)


@PROPS
@given(lsdbs(), headers())
def test_clean_rxmts_matches_the_quadratic_definition(rxmts, acked):
    nbrs = table(frozenset(), rxmts)
    for nip in (1, 2, 3):
        got = clean_rxmts(nbrs, nip, acked)
        want = oracle_clean_rxmts(nbrs, nip, acked)
        assert got == want
        assert (got is nbrs) == (want == nbrs)


@PROPS
@given(lsdbs(), lsdbs(), st.randoms(use_true_random=False))
def test_install_keeps_the_object_unless_something_is_fresher(stored, incoming, rng):
    # also offer copies no fresher than the stored ones, so the unchanged
    # case is drawn often; on a stamp tie their links differ
    stale = Lsdb.of(
        Lsa(l.origin, l.stamp - rng.randint(0, 2), frozenset())
        for l in stored
        if rng.random() < 0.7
    )
    for lsas_in in (incoming, stale):
        fresher = any(
            scan_get(stored, l.origin) is None
            or scan_get(stored, l.origin).stamp < l.stamp
            for l in lsas_in
        )
        assert (install(stored, lsas_in) is stored) == (not fresher)
    assert install(stored, stale) is stored
