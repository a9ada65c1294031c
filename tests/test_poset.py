"""Core order structure: construction, heights, widths, isomorphism."""

import pytest

from polysat import (
    antichain_poset,
    build_pj,
    chain_poset,
    cover_relations,
    delta_sequence,
    disjoint_union,
    enumerate_posets,
    from_covers,
    height,
    isomorphic,
    ranks,
    width,
)
from polysat.errors import (
    CycleDetected,
    EmptyPoset,
    IndexOutOfRange,
    InvalidRealizer,
    SizeLimitExceeded,
)
from polysat.poset import Poset, Realizer
from oracles import width_bruteforce
from util import random_poset, seeded


def test_from_covers_chain():
    p, _ = from_covers(3, [(0, 1), (1, 2)])
    assert [(x, y) for x in range(3) for y in range(3) if p.less(x, y)] == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]


def test_from_covers_antichain():
    p, _ = from_covers(2, [])
    assert not p.comparable(0, 1)


def test_from_covers_cycle():
    with pytest.raises(CycleDetected):
        from_covers(2, [(0, 1), (1, 0)])


def test_from_covers_bad_index():
    with pytest.raises(IndexOutOfRange):
        from_covers(2, [(0, 5)])


def test_from_covers_relabels_topologically():
    p, mapping = from_covers(
        3,
        [(2, 1), (1, 0)],
        names=["c", "b", "a"],
        realizer=Realizer((2, 1, 0), (2, 0, 1)),
    )
    assert mapping[2] < mapping[1] < mapping[0]
    assert height(p) == 3
    assert p.names == ("a", "b", "c")
    assert p.realizer == Realizer((0, 1, 2), (0, 2, 1))


def test_from_covers_range_checks_the_realizer():
    for ext in ((0, 2), (0, 0), (0,), (0, 1, 2)):
        with pytest.raises(InvalidRealizer):
            from_covers(2, [], realizer=Realizer((0, 1), ext))


def test_poset_is_immutable():
    p, _ = from_covers(2, [(0, 1)], names=["a", "b"])
    for attr, value in (
        ("n", 3),
        ("up", (0, 0)),
        ("names", None),
        ("realizer", Realizer((0, 1), (0, 1))),
        ("other", 1),
    ):
        with pytest.raises(AttributeError):
            setattr(p, attr, value)
    with pytest.raises(AttributeError):
        del p.names
    assert (p.n, p.up, p.names, p.realizer) == (2, (2, 0), ("a", "b"), None)
    # Equality and hashing look at the order only.
    assert p == chain_poset(2) and hash(p) == hash(chain_poset(2))


def test_cover_relations_examples():
    assert cover_relations(chain_poset(3)) == [(0, 1), (1, 2)]
    assert cover_relations(antichain_poset(2)) == []
    p1, labels = build_pj(1)
    assert cover_relations(p1) == [
        (labels.u, labels.s[0]),
        (labels.s[0], labels.r[0]),
    ]


def test_cover_round_trip():
    rng = seeded(1)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 9))
        q, mapping = from_covers(p.n, cover_relations(p))
        assert mapping == list(range(p.n))
        assert q == p


def test_height_examples():
    assert height(chain_poset(3)) == 3
    assert height(build_pj(2)[0]) == 4
    assert height(build_pj(4)[0]) == 6


def test_width_examples():
    assert width(chain_poset(3)) == 1
    assert width(antichain_poset(5)) == 5
    assert width(build_pj(4)[0]) == 4


def test_width_matches_bruteforce():
    rng = seeded(2)
    for _ in range(50):
        p = random_poset(rng, rng.randint(1, 8))
        assert width(p) == width_bruteforce(p)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            assert width(p) == width_bruteforce(p)


def test_height_width_sanity():
    rng = seeded(3)
    for _ in range(50):
        p = random_poset(rng, rng.randint(1, 10))
        assert height(p) * width(p) >= p.n
        assert max(height(p), width(p)) <= p.n


def test_disjoint_union_examples():
    p = disjoint_union(chain_poset(3), chain_poset(2))
    assert (p.n, height(p), width(p)) == (5, 3, 2)
    q = disjoint_union(build_pj(2)[0], chain_poset(3))
    assert delta_sequence(q).b == (3, 3, 2, 1)


def test_disjoint_union_height_width():
    rng = seeded(4)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 6))
        q = random_poset(rng, rng.randint(1, 6))
        u = disjoint_union(p, q)
        assert height(u) == max(height(p), height(q))
        assert width(u) == width(p) + width(q)


def test_empty_poset_rejected():
    with pytest.raises(EmptyPoset):
        Poset(0, [])
    with pytest.raises(EmptyPoset):
        disjoint_union(None, chain_poset(1))


def test_ranks_examples():
    assert ranks(chain_poset(3)) == [{0}, {1}, {2}]
    p2, _ = build_pj(2)
    assert [len(c) for c in ranks(p2)] == [1, 2, 2, 1]
    v, _ = from_covers(3, [(0, 1), (0, 2)])
    assert ranks(v) == [{0}, {1, 2}]


def test_ranks_absent_when_inconsistent():
    p, _ = from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    assert ranks(p) is None


def test_isomorphic_examples():
    assert isomorphic(chain_poset(3), chain_poset(3))
    v, _ = from_covers(3, [(0, 1), (0, 2)])
    assert not isomorphic(chain_poset(3), v)


def test_isomorphic_under_relabeling():
    rng = seeded(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        p = random_poset(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        covers = [(perm[x], perm[y]) for x, y in cover_relations(p)]
        q, _ = from_covers(n, covers)
        assert isomorphic(p, q)


def test_enumerate_poset_counts():
    assert [len(list(enumerate_posets(n))) for n in range(1, 6)] == [
        1,
        2,
        5,
        16,
        63,
    ]


def test_enumerate_pairwise_nonisomorphic():
    reps = list(enumerate_posets(4))
    for i, p in enumerate(reps):
        for q in reps[i + 1:]:
            assert not isomorphic(p, q)


def test_random_poset_hits_exactly_one_class():
    reps = list(enumerate_posets(5))
    rng = seeded(6)
    for _ in range(15):
        p = random_poset(rng, 5)
        assert sum(1 for q in reps if isomorphic(p, q)) == 1


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_posets(7))
