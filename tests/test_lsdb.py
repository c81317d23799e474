import itertools
import random

from ospfsim.core import (
    Lsa,
    LsaHeader,
    Lsdb,
    Neighbor,
    NeighborState,
)
from ospfsim.lsdb import (
    install,
    lsa_exist,
    new_lsa,
    newer_age,
    next_age,
    own_stamp,
)

A, B, C = 1, 2, 3


def db(*entries):
    return Lsdb.of(Lsa(o, s, frozenset(links)) for o, s, links in entries)


def test_own_stamp_is_now_or_one_past_the_stored_own_entry():
    assert own_stamp(db(), A, 7) == 7
    # another origin's entry does not count
    assert own_stamp(db((B, 9, [A])), A, 7) == 7
    assert own_stamp(db((A, 3, [B])), A, 7) == 7
    # a second origination in the tick of the first is newer still
    assert own_stamp(db((A, 7, [B])), A, 7) == 8
    assert own_stamp(db((A, 8, [B])), A, 7) == 9


def test_new_lsa_simple():
    # the simple model's records: every neighbour at 2-Way
    two_way = NeighborState.TWO_WAY
    nbrs = [Neighbor(B, two_way, 55), Neighbor(C, two_way, 60)]
    assert new_lsa(A, 5, nbrs) == Lsa(A, 5, frozenset({B, C}))
    assert new_lsa(A, 0, []) == Lsa(A, 0, frozenset())
    assert new_lsa(B, 9, [Neighbor(A, two_way, 10)]) == Lsa(B, 9, frozenset({A}))


def test_new_lsa_detailed_filters_below_two_way():
    # the detailed model's: a neighbour still at Init is left out
    nbrs = [
        Neighbor(nip=B, ns=NeighborState.INIT),
        Neighbor(nip=C, ns=NeighborState.FULL),
    ]
    assert new_lsa(A, 4, nbrs) == Lsa(A, 4, frozenset({C}))
    two_way = NeighborState.TWO_WAY
    assert new_lsa(A, 4, [Neighbor(nip=B, ns=two_way)]) == Lsa(A, 4, frozenset({B}))
    assert new_lsa(A, 4, []) == Lsa(A, 4, frozenset())


def test_install_examples():
    assert install(db(), db((A, 1, {B}))) == db((A, 1, {B}))
    assert install(db((A, 1, {B})), db((A, 2, {B, C}))) == db((A, 2, {B, C}))
    assert install(db((A, 2, {B})), db((A, 1, ()))) == db((A, 2, {B}))
    assert install(db((A, 1, {B})), db((B, 1, {A}))) == db((A, 1, {B}), (B, 1, {A}))


def test_install_stamp_tie_keeps_stored_entry():
    stored = db((A, 1, {B}))
    incoming = db((A, 1, {C}))
    assert install(stored, incoming) == stored


def _random_db(rng, origins=4, max_stamp=8):
    picks = {}
    for origin in rng.sample(range(1, origins + 1), rng.randint(0, origins)):
        links = frozenset(
            l for l in range(1, origins + 1)
            if l != origin and rng.random() < 0.4
        )
        picks[origin] = Lsa(origin, rng.randint(0, max_stamp), links)
    return Lsdb.of(picks.values())


def oracle_install(stored: Lsdb, incoming: Lsdb) -> Lsdb:
    """Independent reference: keep the max-stamp entry per origin, with the
    stored side winning stamp ties."""
    best = {lsa.origin: lsa for lsa in stored}
    for lsa in incoming:
        cur = best.get(lsa.origin)
        if cur is None or lsa.stamp > cur.stamp:
            best[lsa.origin] = lsa
    return Lsdb.of(best.values())


def test_install_matches_bruteforce_oracle():
    rng = random.Random(20240811)
    for _ in range(2000):
        stored, incoming = _random_db(rng), _random_db(rng)
        assert install(stored, incoming) == oracle_install(stored, incoming)


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


def test_newer_age_zero_cases():
    for other in range(0, 9):
        assert newer_age(0, other, 8) is False
    for live in range(1, 9):
        assert newer_age(live, 0, 8) is True


def test_newer_age_examples():
    assert newer_age(3, 5, 8) is False
    assert newer_age(1, 8, 8) is True


def test_newer_age_equal_nonzero_counts_as_newer():
    # deliberate transcription of the wrap-around comparison: an equal
    # age is "not older", so reinstalling identical content is a no-op
    for a in range(1, 9):
        assert newer_age(a, a, 8) is True


def test_newer_age_exactly_one_within_half_window():
    for bound in (8, 16):
        for a, b in itertools.permutations(range(1, bound + 1), 2):
            diff = abs(a - b)
            circ = min(diff, bound - diff)
            if circ < bound / 2:
                assert newer_age(a, b, bound) != newer_age(b, a, bound)


def test_next_age_wraps_to_one():
    assert next_age(0, 8) == 1
    assert next_age(7, 8) == 8
    assert next_age(8, 8) == 1
