"""Maximum k-families, the d and delta sequences, strong Sperner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysat import (
    DeltaSequence,
    antichain_poset,
    build_pj,
    chain_poset,
    d_sequence,
    delta_sequence,
    disjoint_union,
    dk,
    enumerate_posets,
    from_covers,
    from_delta,
    height,
    is_strong_sperner,
    ranks,
    width,
)
from polysat.errors import NotRanked
from polysat.kfamily import chain_unions
from oracles import dk_branch_and_bound, dk_oracle
from util import closed_poset, random_poset, seeded


def tower_delta(j):
    return (j,) + tuple(range(j, 0, -1)) + (1,)


def branch_and_bound_sequence(p):
    return tuple(dk_branch_and_bound(p, k) for k in range(1, height(p) + 1))


def greene_conjugate(d, n):
    """e_0..e_w from d_1..d_c: e_f = n - max_k (d_k - k f), with d_0 = 0."""
    d = (0,) + d
    return tuple(
        n - max(d_k - k * f for k, d_k in enumerate(d))
        for f in range(d[1] + 1)
    )


def assert_flow_matches_branch_and_bound(p):
    d = branch_and_bound_sequence(p)
    assert d_sequence(p).d == d
    assert chain_unions(p) == greene_conjugate(d, p.n)


@st.composite
def posets(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    keep = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    return closed_poset(n, [pair for pair, kept in zip(pairs, keep) if kept])


def test_dk_chain():
    p = chain_poset(3)
    assert [dk(p, k) for k in (1, 2, 3)] == [1, 2, 3]


def test_dk_p2():
    p, _ = build_pj(2)
    assert [dk(p, k) for k in range(1, 5)] == [2, 4, 5, 6]
    assert dk(p, 9) == 6


def test_chain_unions_examples():
    assert chain_unions(chain_poset(3)) == (0, 3)
    assert chain_unions(antichain_poset(3)) == (0, 1, 2, 3)
    assert chain_unions(build_pj(2)[0]) == (0, 4, 6)


def test_dk_p4():
    assert dk(build_pj(4)[0], 2) == 8


def test_dk_oracle_examples():
    v, _ = from_covers(3, [(0, 1), (0, 2)])
    assert dk_oracle(v, 1) == 2
    assert dk_oracle(build_pj(1)[0], 2) == 2


def test_dk_matches_oracle():
    rng = seeded(10)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 8))
        for k in range(1, height(p) + 1):
            assert dk(p, k) == dk_branch_and_bound(p, k) == dk_oracle(p, k)


def test_flow_matches_branch_and_bound_on_all_small_posets():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert_flow_matches_branch_and_bound(p)


def test_flow_matches_branch_and_bound_on_random_posets():
    rng = seeded(13)
    for n in range(1, 21):
        for prob in (0.1, 0.2, 0.3, 0.5):
            assert_flow_matches_branch_and_bound(random_poset(rng, n, prob))


def test_flow_reroutes_a_chain_around_an_element():
    # Some augmenting path here must take an element off its chain:
    # without that residual arc the flow reads e = (0, 4, 7, 10, 11).
    covers = [(0, 8), (1, 2), (1, 7), (2, 6), (2, 8), (3, 4), (4, 7)]
    covers += [(6, 9), (7, 9), (8, 9), (8, 10)]
    p, _ = from_covers(11, covers)
    assert chain_unions(p) == (0, 4, 8, 10, 11)
    assert_flow_matches_branch_and_bound(p)


@settings(deadline=None)
@given(posets())
def test_flow_agrees_with_branch_and_bound_property(p):
    d = d_sequence(p).d
    assert d == branch_and_bound_sequence(p)
    steps = [b - a for a, b in zip((0,) + d, d)]
    assert all(x > 0 for x in steps)
    assert all(x >= y for x, y in zip(steps, steps[1:]))


def test_delta_sequence_examples():
    assert delta_sequence(build_pj(4)[0]).b == (4, 4, 3, 2, 1, 1)
    assert delta_sequence(antichain_poset(5)).b == (5,)
    p = disjoint_union(build_pj(2)[0], chain_poset(3))
    assert delta_sequence(p).b == (3, 3, 2, 1)


def test_tower_delta_sequences_beyond_branch_and_bound_reach():
    for j in range(7, 11):
        assert delta_sequence(build_pj(j)[0]).b == tower_delta(j)


@pytest.mark.parametrize(
    "b",
    [
        (9, 9, 7, 6, 5, 4, 3, 2, 1, 1),
        (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 2),
        (13, 11, 10, 8, 7, 6, 5, 4, 3, 2, 1, 1),
    ],
)
def test_from_delta_round_trip_on_long_sequences(b):
    assert delta_sequence(from_delta(b)).b == b


def test_d_sequence_shape():
    rng = seeded(11)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 12))
        seq = d_sequence(p)
        assert len(seq.d) == height(p)
        assert seq.d[0] == width(p)
        assert seq.d[-1] == p.n
        delta = seq.delta().b
        assert all(x >= 1 for x in delta)
        assert all(x >= y for x, y in zip(delta, delta[1:]))


def test_delta_nonincreasing_on_all_small_posets():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            delta = delta_sequence(p).b
            assert all(x >= 1 for x in delta)
            assert all(x >= y for x, y in zip(delta, delta[1:]))


def test_dk_additive_over_disjoint_union():
    rng = seeded(12)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 5))
        q = random_poset(rng, rng.randint(1, 5))
        u = disjoint_union(p, q)
        for k in range(1, height(u) + 1):
            assert dk(u, k) == dk(p, k) + dk(q, k)


def test_strong_sperner_towers_and_chains():
    for j in range(1, 5):
        assert is_strong_sperner(build_pj(j)[0])
    assert is_strong_sperner(chain_poset(4))


def test_strong_sperner_needs_ranks():
    p, _ = from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(NotRanked):
        is_strong_sperner(p)


def test_ranked_poset_failing_strong_sperner_exists():
    # One bottom below two tops, plus two isolated points: the 4-element
    # antichain beats the top rank.
    p, _ = from_covers(5, [(0, 3), (0, 4)])
    assert ranks(p) is not None
    assert not is_strong_sperner(p)
    found = any(
        ranks(q) is not None and not is_strong_sperner(q)
        for q in enumerate_posets(5)
    )
    assert found


def test_delta_sequence_validation():
    with pytest.raises(ValueError):
        DeltaSequence((2, 3))
    with pytest.raises(ValueError):
        DeltaSequence((2, 0))
