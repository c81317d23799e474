import random

from ospfsim.core import (
    Lsa,
    LsaHeader,
    Lsdb,
    NbrTable,
    Neighbor,
    NeighborState,
    NodeState,
)
from ospfsim.lsdb import (
    install,
    lsa_exist,
    newer_age,
    next_age,
    originate,
)

A, B, C = 1, 2, 3


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def originated(ip, now, nbrs=(), lsdb=Lsdb()):
    """The advertisement that ``ip`` originates at ``now``, checked to be
    installed in the new state, whose neighbours stay as they were."""
    state = NodeState(ip, NbrTable.of(nbrs), lsdb)
    st, own = originate(state, now)
    (lsa,) = own
    assert st.lsdb == install(lsdb, own) and st.lsdb.get(ip) == lsa
    assert st.nbrs is state.nbrs
    return lsa


def test_own_stamp_is_now_or_one_past_the_stored_own_entry():
    assert originated(A, 7).stamp == 7
    # another origin's entry does not count
    assert originated(A, 7, lsdb=db((B, 9, [A]))).stamp == 7
    assert originated(A, 7, lsdb=db((A, 3, [B]))).stamp == 7
    # a second origination in the tick of the first is newer still
    assert originated(A, 7, lsdb=db((A, 7, [B]))).stamp == 8
    assert originated(A, 7, lsdb=db((A, 8, [B]))).stamp == 9


def test_new_lsa_simple():
    # the simple model's records: every neighbour at 2-Way
    two_way = NeighborState.TWO_WAY
    nbrs = [Neighbor(B, two_way, 55), Neighbor(C, two_way, 60)]
    assert originated(A, 5, nbrs) == Lsa(A, 5, frozenset({B, C}))
    assert originated(A, 0) == Lsa(A, 0, frozenset())
    assert originated(B, 9, [Neighbor(A, two_way, 10)]) == Lsa(B, 9, frozenset({A}))


def test_new_lsa_detailed_filters_below_two_way():
    # the detailed model's: a neighbour still at Init is left out
    nbrs = [
        Neighbor(nip=B, ns=NeighborState.INIT),
        Neighbor(nip=C, ns=NeighborState.FULL),
    ]
    assert originated(A, 4, nbrs) == Lsa(A, 4, frozenset({C}))
    two_way = NeighborState.TWO_WAY
    assert originated(A, 4, [Neighbor(nip=B, ns=two_way)]) == Lsa(A, 4, frozenset({B}))
    assert originated(A, 4) == Lsa(A, 4, frozenset())


def test_install_examples():
    assert install(db(), db((A, 1, {B}))) == db((A, 1, {B}))
    assert install(db((A, 1, {B})), db((A, 2, {B, C}))) == db((A, 2, {B, C}))
    assert install(db((A, 2, {B})), db((A, 1, ()))) == db((A, 2, {B}))
    assert install(db((A, 1, {B})), db((B, 1, {A}))) == db((A, 1, {B}), (B, 1, {A}))


def test_install_stamp_tie_keeps_stored_entry():
    stored = db((A, 1, {B}))
    incoming = db((A, 1, {C}))
    assert install(stored, incoming) == stored


def _consistent_db(rng, origins=4, max_stamp=8):
    # link sets are a function of the header, as in real traffic where an
    # originator never reuses a stamp with different content
    def links_for(origin, stamp):
        return frozenset(
            l for l in range(1, origins + 1)
            if l != origin and (origin * 7 + stamp * 3 + l) % 3 == 0
        )

    picks = {}
    for origin in rng.sample(range(1, origins + 1), rng.randint(0, origins)):
        stamp = rng.randint(0, max_stamp)
        picks[origin] = Lsa(origin, stamp, links_for(origin, stamp))
    return Lsdb.of(picks.values())


def test_install_properties():
    rng = random.Random(7)
    for _ in range(300):
        base, x, y = _consistent_db(rng), _consistent_db(rng), _consistent_db(rng)
        once = install(base, x)
        # closure: result is a valid database (constructor enforces it)
        assert isinstance(once, Lsdb)
        # idempotence in the second argument
        assert install(once, x) == once
        # order insensitivity
        assert install(install(base, x), y) == install(install(base, y), x)


def test_lsa_exist():
    d = db((A, 5, {B}))
    assert lsa_exist(d, LsaHeader(A, 3)) is True
    assert lsa_exist(d, LsaHeader(A, 6)) is False
    assert lsa_exist(db(), LsaHeader(A, 1)) is False


def test_newer_age_examples():
    assert newer_age(3, 5, 8) is False
    assert newer_age(1, 8, 8) is True


def test_newer_age_equal_nonzero_counts_as_newer():
    # deliberate transcription of the wrap-around comparison: an equal
    # age is "not older", so reinstalling identical content is a no-op
    for a in range(1, 9):
        assert newer_age(a, a, 8) is True


def test_next_age_wraps_to_one():
    assert next_age(0, 8) == 1
    assert next_age(7, 8) == 8
    assert next_age(8, 8) == 1
