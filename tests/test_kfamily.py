"""Maximum k-families, the d and delta sequences, strong Sperner."""

import pytest
from hypothesis import given, settings

from polysat import (
    DSequence,
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
from polysat.errors import BadK, NotRanked
from polysat.graphdual import conjugate
from polysat.kfamily import chain_unions
from polysat.saturation import max_kfamily
from oracles import dk_branch_and_bound, dk_oracle, max_kfamily_from_chains
from test_cover_walks import sample_posets
from util import ordinal_sum, posets, random_poset, refusal, seeded


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


def longest_chain_within(p, mask):
    longest = {}
    for y in range(p.n):
        if mask >> y & 1:
            below = [longest[x] for x in longest if p.less(x, y)]
            longest[y] = 1 + max(below, default=0)
    return max(longest.values(), default=0)


def assert_kfamilies_certify_d(p):
    """Each A_k from the flow's dual has d_k elements and no k+1 chain,
    so it certifies d_k from below as the flow does from above."""
    d = d_sequence(p).d
    for k in range(1, len(d) + 1):
        family = max_kfamily(p, k)
        assert family.bit_count() == d[k - 1]
        assert longest_chain_within(p, family) <= k


def assert_flow_matches_branch_and_bound(p):
    d = branch_and_bound_sequence(p)
    assert d_sequence(p).d == d
    assert chain_unions(p) == greene_conjugate(d, p.n)


def test_dk_chain():
    p = chain_poset(3)
    assert [dk(p, k) for k in (1, 2, 3)] == [1, 2, 3]


def test_dk_p2():
    p, _ = build_pj(2)
    assert [dk(p, k) for k in range(1, 5)] == [2, 4, 5, 6]
    assert dk(p, 9) == 6
    with pytest.raises(BadK):
        d_sequence(p).at(0)
    with pytest.raises(BadK):
        d_sequence(p).at(-1)


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


def test_kfamilies_certify_d_on_small_and_random_posets():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert_kfamilies_certify_d(p)
    rng = seeded(14)
    for n in range(1, 21):
        for prob in (0.1, 0.2, 0.3, 0.5):
            assert_kfamilies_certify_d(random_poset(rng, n, prob))


@pytest.mark.parametrize("j", range(8, 13))
def test_kfamilies_certify_d_on_towers(j):
    # n = 45..91: no oracle reaches these, the two certificates do.
    p = build_pj(j)[0]
    assert_kfamilies_certify_d(p)
    assert delta_sequence(p).b == tower_delta(j)


def test_max_kfamily_raises_when_its_check_fails():
    p = build_pj(3)[0]
    d_sequence(p)
    # With no chains kept, every element would join A_1.
    empty = [None] * p.n, [None] * p.n
    p.derived["flows"] = dict.fromkeys(p.derived["flows"], empty)
    with pytest.raises(AssertionError, match="wrong size"):
        max_kfamily(p, 1)


def test_max_kfamily_matches_the_chain_tuple_network():
    conjugates = [
        conjugate(from_delta(b)) for b in ((5, 5, 3, 2, 1, 1), (6, 5, 4, 1, 1))
    ]
    for p in [*sample_posets(), *conjugates]:
        for k in range(1, height(p) + 1):
            assert max_kfamily(p, k) == max_kfamily_from_chains(p, k)


def test_flow_reroutes_a_chain_around_an_element():
    # Some augmenting path here must take an element off its chain:
    # without that residual arc the flow reads e = (0, 4, 7, 10, 11).
    covers = [(0, 8), (1, 2), (1, 7), (2, 6), (2, 8), (3, 4), (4, 7)]
    covers += [(6, 9), (7, 9), (8, 9), (8, 10)]
    p, _ = from_covers(11, covers)
    assert chain_unions(p) == (0, 4, 8, 10, 11)
    assert_flow_matches_branch_and_bound(p)


@settings(deadline=None)
@given(posets(max_n=12))
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
    p = from_delta(b)
    assert delta_sequence(p).b == b
    assert_kfamilies_certify_d(p)


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


def test_dk_of_an_ordinal_sum_is_the_best_split_of_k():
    # Every antichain of P (+) Q lies in one summand, so d_k(P (+) Q) is the
    # max over i + j = k of d_i(P) + d_j(Q), with d_0 = 0.
    def d(p, i):
        return dk(p, i) if i else 0

    rng, checked = seeded(13), 0
    for _ in range(300):
        p, q = (
            random_poset(rng, rng.randint(1, 9), rng.choice((0.1, 0.3, 0.6)))
            for _ in range(2)
        )
        s = ordinal_sum(p, q)
        for k in range(1, height(s) + 1):
            assert dk(s, k) == max(d(p, i) + d(q, k - i) for i in range(k + 1))
            checked += 1
    assert checked > 1000


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: DSequence((2, 1)), ValueError,
            "d sequence must be strictly increasing", id="DSequence-falling",
        ),
        pytest.param(
            lambda: DSequence((1, 3, 4)), ValueError,
            "d sequence must be concave", id="DSequence-convex",
        ),
    ],
)
def test_kfamily_refusals(call, error, message):
    assert refusal(call) == (error, message)
