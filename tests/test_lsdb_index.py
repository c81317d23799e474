"""Properties of the origin-indexed database and the lookups built on it.

The quadratic definitions below are the scans the indexed code
replaced; they stay here as oracles.  The table operations must also
return the very table they were given whenever the oracle's result
equals it, since the engine's trace diff skips a table by identity.

``install``, ``nbr_set``, ``clean_rxmts`` and ``upd_rxmts`` build their
results without the validating constructors; the last properties hold
them to a rebuild through ``Lsdb.of`` and ``NbrTable.of``.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from ospfsim.core import (
    Lsa,
    LsaHeader,
    Lsdb,
    Neighbor,
    NeighborState,
    hdr,
)
from ospfsim.lsdb import install, lsa_exist
from ospfsim.neighbors import (
    NbrTable,
    clean_reqs,
    clean_rxmts,
    nbr_set,
    upd_rxmts,
)

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
        Neighbor(nip=1, ns=NeighborState.LOADING,
                         req_list=req_list, rxmt_list=rxmt_list),
        Neighbor(nip=2, ns=NeighborState.FULL),
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


# --- the fast rebuilds against the validating constructors ---------------

WIDE_ORIGINS = range(1, 9)
NIPS = range(1, 6)


def lsa_lists():
    """LSAs over origins 1-8 with random stamps; an origin may repeat."""
    return st.lists(st.builds(
        lambda o, stamp, links: Lsa(o, stamp, links - {o}),
        st.sampled_from(WIDE_ORIGINS), st.integers(0, 6),
        st.frozensets(st.sampled_from(WIDE_ORIGINS), max_size=3),
    ), max_size=10)


def wide_lsdbs():
    """One entry per origin: the last of each origin in a drawn list."""
    return lsa_lists().map(lambda lsas: Lsdb.of({l.origin: l for l in lsas}.values()))


def freshest(stored, incoming):
    """The freshest entry per origin, the stored one on a stamp tie."""
    best = {l.origin: l for l in stored}
    for l in incoming:
        if l.origin not in best or best[l.origin].stamp < l.stamp:
            best[l.origin] = l
    return Lsdb.of(best.values())


def assert_same_database(got, want):
    assert got.entries == want.entries
    assert list(got.by_origin.items()) == [(l.origin, l) for l in want.entries]
    for origin in range(0, len(WIDE_ORIGINS) + 2):
        assert got.get(origin) == want.get(origin)
    assert got == want
    assert hash(got) == hash(want)


@PROPS
@given(wide_lsdbs(), st.lists(wide_lsdbs(), min_size=1, max_size=4))
def test_install_equals_a_validated_rebuild(stored, incomings):
    # each install starts from the previous one's result, so databases
    # built by install are themselves installed into
    db = stored
    for incoming in incomings:
        want = freshest(db, incoming)
        got = install(db, incoming)
        assert_same_database(got, want)
        assert (got is db) == (want == db)
        assert install(got, incoming) is got
        db = got


def nbr_entries():
    """A neighbour in any state; its lists are non-empty only from
    ExStart on, as the constructor requires."""
    def build(nip, ns, deadlines, reqs, rxmts):
        if ns < NeighborState.EX_START:
            reqs, rxmts = frozenset(), Lsdb()
        inact, dd, req, rxmt = deadlines
        return Neighbor(nip=nip, ns=ns, inact_deadline=inact,
                                ddsqn=dd % 3, dd_deadline=dd, req_list=reqs,
                                req_deadline=req, rxmt_list=rxmts,
                                rxmt_deadline=rxmt)
    return st.builds(build, st.sampled_from(NIPS), st.sampled_from(NeighborState),
                     st.tuples(*[st.integers(0, 9)] * 4), headers(), wide_lsdbs())


def nbr_tables():
    return st.lists(nbr_entries(), max_size=len(NIPS)).map(
        lambda entries: NbrTable.of({n.nip: n for n in entries}.values()))


def assert_same_table(got, want):
    assert got.entries == want.entries
    assert got == want and hash(got) == hash(want)
    assert NbrTable.of(got.entries) == got


FIELD_CHANGES = st.fixed_dictionaries({}, optional={
    "ns": st.sampled_from(NeighborState),
    "inact_deadline": st.integers(0, 9),
    "ddsqn": st.integers(0, 3),
    "dd_deadline": st.integers(0, 9),
    "req_list": headers(),
    "rxmt_list": wide_lsdbs(),
    "rxmt_deadline": st.integers(0, 9),
})


@PROPS
@given(nbr_tables(), st.sampled_from(NIPS), FIELD_CHANGES)
def test_nbr_set_equals_a_validated_rebuild(nbrs, nip, fields):
    entry = nbrs.get(nip)
    if entry is None:
        assert nbr_set(nbrs, nip, **fields) is nbrs
        return
    try:
        changed = dataclasses.replace(entry, **fields)
    except ValueError:
        # below ExStart with a list left: the rebuild refuses it too
        with pytest.raises(ValueError):
            nbr_set(nbrs, nip, **fields)
        return
    want = NbrTable.of(changed if n.nip == nip else n for n in nbrs)
    got = nbr_set(nbrs, nip, **fields)
    assert_same_table(got, want)
    assert (got is nbrs) == (want == nbrs)


@PROPS
@given(nbr_tables(), nbr_entries(),
       st.sampled_from([NeighborState.INIT, NeighborState.TWO_WAY]))
def test_nbr_set_below_exstart_with_a_list_left_still_raises(nbrs, entry, ns):
    assume(entry.req_list or entry.rxmt_list)
    nbrs = NbrTable.of([n for n in nbrs if n.nip != entry.nip] + [entry])
    with pytest.raises(ValueError):
        nbr_set(nbrs, entry.nip, ns=ns)


@PROPS
@given(nbr_tables(), st.sampled_from(NIPS), st.data())
def test_clean_rxmts_equals_a_validated_rebuild(nbrs, nip, data):
    # acknowledge some of the listed entries, so that every entry is
    # acknowledged now and then, plus headers drawn at random
    entry = nbrs.get(nip)
    listed = sorted(hdr(l) for l in entry.rxmt_list) if entry is not None else []
    acked = data.draw(st.frozensets(st.builds(
        LsaHeader, st.sampled_from(WIDE_ORIGINS), st.integers(0, 7))))
    if listed:
        acked |= data.draw(st.frozensets(st.sampled_from(listed)))

    def kept(entry):
        return Lsdb.of(l for l in entry.rxmt_list
                       if not any(header_leq(hdr(l), h) for h in acked))
    want = NbrTable.of(
        dataclasses.replace(n, rxmt_list=kept(n)) if n.nip == nip else n
        for n in nbrs)
    got = clean_rxmts(nbrs, nip, acked)
    assert_same_table(got, want)
    for n in got:
        assert_same_database(n.rxmt_list, Lsdb.of(n.rxmt_list.entries))
    assert (got is nbrs) == (want == nbrs)


@PROPS
@given(nbr_tables(), wide_lsdbs(), st.integers(0, 9))
def test_upd_rxmts_equals_a_validated_rebuild(nbrs, lsas, deadline):
    want = NbrTable.of(
        dataclasses.replace(n, rxmt_list=freshest(n.rxmt_list, lsas),
                            rxmt_deadline=deadline)
        if n.ns >= NeighborState.EXCHANGE else n
        for n in nbrs)
    got = upd_rxmts(nbrs, lsas, deadline)
    assert_same_table(got, want)
    for n in got:
        assert_same_database(n.rxmt_list, Lsdb.of(n.rxmt_list.entries))
