"""Core order structure: construction, heights, widths, isomorphism."""

import copy
import functools
import pickle

import pytest

from polysat import (
    antichain_poset,
    build_pj,
    chain_poset,
    cover_relations,
    delta_sequence,
    disjoint_union,
    dk,
    enumerate_posets,
    from_covers,
    height,
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
from polysat.canonical import least_labelling
from polysat.poset import Poset, Realizer, bits
from polysat.kfamily import DeltaSequence, DSequence
from polysat.construct import FeasibilityVerdict, PjLabels
from polysat.saturation import (
    Chain,
    ChainPartition,
    NoJointPartition,
    PolyunsatReport,
    Witness,
)
from oracles import isomorphic, least_labelling_bruteforce, width_bruteforce
from util import random_poset, refusal, seeded


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


def test_poset_checks_its_rows():
    with pytest.raises(ValueError, match="not transitive"):
        Poset(3, [0b010, 0b100, 0])
    with pytest.raises(ValueError, match="not topological"):
        Poset(2, [0, 0b01])
    with pytest.raises(IndexOutOfRange):
        Poset(2, [0b100, 0])
    # Every row is range-checked before any transitivity check.
    with pytest.raises(IndexOutOfRange):
        Poset(3, [0b010, 0b100, 0b1000])
    assert Poset(3, [0b110, 0b100, 0]).down == (0, 0b001, 0b011)
    # Names of the wrong length are refused, before from_covers relabels.
    for names in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="names"):
            from_covers(2, [], names=names)
    with pytest.raises(ValueError, match="names"):
        Poset(3, [0, 0, 0], names=["a"])


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


def test_values_are_immutable_and_compare_by_type_and_fields():
    partition = ChainPartition(chain_poset(2), (Chain((0, 1)),))
    values = [
        Chain((0, 2)),
        Realizer((0, 1), (1, 0)),
        DSequence((2, 3)),
        DeltaSequence((2, 1)),
        PolyunsatReport(d=(2, 3), conclusion=False),
        PjLabels(u=0, s=(1,), r=(2,), T=(frozenset({0}),), Q=()),
        partition,
        Witness(partition),
        NoJointPartition(5),
        FeasibilityVerdict(False, ("c",)),
        chain_poset(3, names=["a", "b", "c"]),
    ]
    for v in values:
        for copied in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert copied == v and type(copied) is type(v)
            if not isinstance(v, PolyunsatReport):
                assert hash(copied) == hash(v)
        immutable = f"a {type(v).__name__} is immutable"
        for name in (v.__slots__[0], v.__slots__[-1], "other"):
            with pytest.raises(AttributeError, match=immutable):
                setattr(v, name, None)
            with pytest.raises(AttributeError, match=immutable):
                delattr(v, name)
    # Value.__init__ fills every value type from its fields, given in
    # __slots__ order or by name; a Poset's own __init__ derives the rest.
    for v in values[:-1]:
        fields = dict(zip(v.__slots__, v._fields()))
        assert type(v)(*fields.values()) == type(v)(**fields) == v
    for args, kwargs in (
        ((0,), {}),
        ((), {"ext2": 1}),
        ((0,), {"ext1": 0}),
        ((0,), {"ext1": 0, "ext2": 1}),
        ((0, 1, 2), {}),
        ((0, 1), {"ext3": 2}),
        ((0,), {"ext3": 1}),
    ):
        with pytest.raises(TypeError, match="Realizer takes the fields"):
            Realizer(*args, **kwargs)
    # A Poset compares by its order only, so its names and realizer are
    # checked apart.
    named = values[-1]
    for copied in (copy.copy(named), pickle.loads(pickle.dumps(named))):
        assert (copied.names, copied.realizer) == (named.names, named.realizer)
        assert copied.realizer is not None
    assert Chain((0, 2)) != Chain((0, 1)) and Chain((0, 2)) != (0, 2)
    assert DSequence((3,)) != DeltaSequence((3,))
    assert repr(Realizer((0,), (0,))) == "Realizer(ext1=(0,), ext2=(0,))"
    # A report holds a dict, so it has no hash; its verdicts default to a
    # fresh dict.
    with pytest.raises(TypeError):
        hash(PolyunsatReport(d=()))
    assert PolyunsatReport(d=()).pair_verdicts is not (
        PolyunsatReport(d=()).pair_verdicts
    )


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
    # The zigzag a_i < b_{i-1}, b_i: the path that matches a_i runs back
    # through every a_j below it, 999 steps deep at the last one.
    m = 1000
    covers = [(i, m + i) for i in range(m)]
    covers += [(i, m + i - 1) for i in range(1, m)]
    zigzag, _ = from_covers(2 * m, covers)
    assert width(zigzag) == dk(zigzag, 1) == m


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


def test_disjoint_union_of_many_parts_is_the_binary_fold():
    rng = seeded(8)
    kinds = [
        lambda: chain_poset(rng.randint(1, 4)),
        lambda: antichain_poset(2, names=["a", "b"]),
        lambda: random_poset(rng, rng.randint(1, 5)),
        lambda: build_pj(2)[0],
    ]
    for _ in range(60):
        parts = [rng.choice(kinds)() for _ in range(rng.randint(1, 5))]
        u, fold = disjoint_union(*parts), functools.reduce(disjoint_union, parts)
        assert (u, u.names, u.realizer) == (fold, fold.names, fold.realizer)


def test_disjoint_union_names_an_unnamed_part_by_its_union_indices():
    # As Poset.name does: an element without a name is called by its index.
    p = disjoint_union(
        chain_poset(2), antichain_poset(2, names=["a", "b"]), chain_poset(2)
    )
    assert p.names == ("0", "1", "a", "b", "4", "5")
    assert disjoint_union(chain_poset(2), chain_poset(1)).names is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poset(2, [2, 0], names=[1, 2]),
        lambda: from_covers(2, [(0, 1)], names=[1, 2]),
        lambda: chain_poset(2, names=[1, 2]),
    ],
    ids=["Poset", "from_covers", "chain_poset"],
)
def test_names_must_be_strings(build):
    assert refusal(build) == (ValueError, "names must be n strings")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: from_covers(0, []), EmptyPoset,
            "poset needs at least one element", id="from_covers-n0",
        ),
        pytest.param(
            lambda: from_covers(2, [(1, 1)]), CycleDetected, "self-loop at 1",
            id="from_covers-self-loop",
        ),
        pytest.param(
            lambda: Poset(2, [0]), ValueError,
            "up must have one row per element", id="Poset-short-up",
        ),
        pytest.param(
            lambda: next(enumerate_posets(0)), EmptyPoset, "need n >= 1",
            id="enumerate_posets-n0",
        ),
    ],
)
def test_poset_refusals(call, error, message):
    assert refusal(call) == (error, message)


def test_poset_repr_lists_its_covers():
    p = Poset(3, [0b110, 0, 0])
    assert repr(p) == "Poset(n=3, covers=[(0, 1), (0, 2)])"


def test_empty_poset_rejected():
    with pytest.raises(EmptyPoset):
        Poset(0, [])
    with pytest.raises(EmptyPoset):
        disjoint_union(None, chain_poset(1))
    with pytest.raises(EmptyPoset):
        disjoint_union()


def test_ranks_examples():
    assert ranks(chain_poset(3)) == [{0}, {1}, {2}]
    p2, _ = build_pj(2)
    assert [len(c) for c in ranks(p2)] == [1, 2, 2, 1]
    v, _ = from_covers(3, [(0, 1), (0, 2)])
    assert ranks(v) == [{0}, {1, 2}]
    # From 0 the walk goes up to 2, then has to step down to 3.
    w, mapping = from_covers(4, [(0, 1), (1, 2), (3, 2)])
    assert ranks(w) == [{mapping[x] for x in c} for c in ({0}, {1, 3}, {2})]


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
    assert [len(list(enumerate_posets(n))) for n in range(1, 8)] == [
        1,
        2,
        5,
        16,
        63,
        318,
        2045,
    ]


def test_least_labelling_matches_bruteforce():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            assert least_labelling(p.down) == least_labelling_bruteforce(p)
            assert least_labelling(p.down) == p.down


def test_least_labelling_ignores_the_labelling():
    rng = seeded(7)
    for p in enumerate_posets(7):
        for _ in range(2):
            perm = list(range(7))
            rng.shuffle(perm)
            down = [0] * 7
            for y in range(7):
                down[perm[y]] = sum(1 << perm[x] for x in bits(p.down[y]))
            assert least_labelling(tuple(down)) == p.down


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
        list(enumerate_posets(9))
