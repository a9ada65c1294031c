"""Tower posets, delta-sequence realization, and feasibility predicates."""

import hashlib
import math

import pytest

from polysat import (
    build_pj,
    chain_poset,
    ck_partition,
    construct,
    delta_sequence,
    dk,
    enumerate_posets,
    feasible_ca,
    feasible_nc,
    feasible_nca,
    from_covers,
    from_delta,
    height,
    is_k_saturated,
    is_polyunsaturated,
    lower_bounds,
    mk,
    realize_nca,
    sequence_for,
    upper_bounds,
    verify_realizer,
    width,
)
from polysat.construct import FeasibilityVerdict, _certify
from polysat.errors import BadK, BadParameters, Infeasible, InvalidDelta
from polysat.io import dumps, export_dot
from polysat import poset
from polysat.poset import Poset, Realizer
from oracles import build_pj_covers, from_delta_unions, isomorphic
from util import refusal


def all_valid_deltas(max_c, max_sum):
    """Every admissible delta sequence with length <= max_c, sum <= max_sum."""
    out = []

    def rec(prefix, total):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_c:
            return
        top = prefix[-1] if prefix else max_sum
        for x in range(1, min(top, max_sum - total) + 1):
            prefix.append(x)
            rec(prefix, total + x)
            prefix.pop()

    rec([], 0)
    return [
        b
        for b in out
        if all(b[i] > b[i + 1] for i in range(1, len(b) - 2))
    ]


def accepted_deltas(max_c, max_entry):
    """Every nonincreasing sequence of length <= max_c and entries <=
    max_entry that from_delta accepts, with its output."""
    out = []

    def rec(prefix):
        if prefix:
            try:
                out.append((tuple(prefix), from_delta(prefix)))
            except InvalidDelta:
                pass
        if len(prefix) < max_c:
            for x in range(1, (prefix[-1] if prefix else max_entry) + 1):
                rec(prefix + [x])

    rec([])
    return out


def test_build_pj_parameters():
    for j in range(1, 5):
        p, labels = build_pj(j)
        assert p.n == math.comb(j + 2, 2)
        assert height(p) == j + 2
        assert width(p) == j
        assert labels.Q[0] == {labels.u, labels.s[0], labels.r[0]}
        assert all(len(labels.Q[i]) == i + 2 for i in range(1, j))
        covered = set().union(*labels.Q)
        assert covered == set(range(p.n))
        for i in range(1, j):
            assert p.less(labels.s[i - 1], labels.s[i])
        for i in range(j):
            assert p.less(labels.s[i], labels.r[i])
            assert all(
                not p.less(labels.r[i], y) for y in labels.Q[i]
            )


def test_build_pj_rejects_bad_j():
    with pytest.raises(BadParameters):
        build_pj(0)


def test_p1_is_three_chain():
    p, labels = build_pj(1)
    assert p.n == 3 and height(p) == 3
    assert [p.name(x) for x in (labels.u, labels.s[0], labels.r[0])] == [
        "u",
        "s1",
        "r1",
    ]


def test_p2_matches_hand_entered_six_element_poset():
    # Hasse diagram: a < b < c < d with e < c and b < f.
    hand, _ = from_covers(
        6, [(0, 1), (1, 2), (2, 3), (4, 2), (1, 5)]
    )
    assert isomorphic(build_pj(2)[0], hand)


def test_ck_partition_examples():
    cp = ck_partition(1, 1)
    assert len(cp) == 1 and len(cp.chains[0]) == 3
    cp = ck_partition(4, 2)
    assert sorted(len(c) for c in cp.chains) == [1, 1, 4, 4, 5]
    assert mk(cp, 2) == 8 == dk(cp.poset, 2)
    cp = ck_partition(4, 4)
    spine = max(cp.chains, key=len)
    assert len(spine) == 6
    assert is_k_saturated(cp.poset, cp, 4)
    assert is_k_saturated(cp.poset, cp, 5)


def test_ck_partition_all_small_towers():
    for j in range(1, 6):
        p, _ = build_pj(j)
        for k in range(1, j + 1):
            cp = ck_partition(j, k)
            assert is_k_saturated(p, cp, k)
            assert is_k_saturated(p, cp, k + 1)


def test_ck_partition_bad_k():
    with pytest.raises(BadK):
        ck_partition(2, 3)


def test_bound_sequences():
    assert lower_bounds(4).b == (2, 2, 1, 1)
    assert sum(lower_bounds(4).b) == math.comb(4, 2)
    assert upper_bounds(4, 2).b == (2, 2, 1, 1)
    assert lower_bounds(3).b == (1, 1, 1)
    with pytest.raises(BadParameters):
        lower_bounds(2)
    with pytest.raises(BadParameters):
        upper_bounds(5, 2)


def test_from_delta_base_case_is_tower():
    p = from_delta((2, 2, 1, 1))
    assert isomorphic(p, build_pj(2)[0])


def test_from_delta_peels_a_chain():
    p = from_delta((3, 3, 2, 1))
    assert p.n == 9
    assert delta_sequence(p).b == (3, 3, 2, 1)
    assert verify_realizer(p, p.realizer)


def test_from_delta_rejects_flat_interior():
    with pytest.raises(InvalidDelta):
        from_delta((3, 1, 1, 1))
    with pytest.raises(InvalidDelta):
        from_delta((1, 2))
    with pytest.raises(InvalidDelta):
        from_delta((1, 0))


def test_from_delta_short_sequences():
    p = from_delta((3, 2))
    assert p.n == 5 and delta_sequence(p).b == (3, 2)
    q = from_delta((2,))
    assert q.n == 2 and height(q) == 1


def test_from_delta_round_trip():
    for b in all_valid_deltas(4, 10):
        p = from_delta(b)
        assert height(p) == len(b)
        assert delta_sequence(p).b == b
        assert p.realizer is not None and verify_realizer(p, p.realizer)


def test_feasible_nca_examples():
    assert feasible_nca(6, 4, 2).feasible
    verdict = feasible_nca(7, 4, 2)
    assert not verdict.feasible
    assert verdict.failed_conditions == ("n_upper",)
    assert feasible_nca(10, 5, 3).feasible
    assert "a_ge_c_minus_2" in feasible_nca(9, 5, 2).failed_conditions
    with pytest.raises(BadParameters):
        feasible_nca(6, 2, 3)


def test_sequence_for_examples():
    assert sequence_for(6, 4, 2).b == (2, 2, 1, 1)
    assert sequence_for(8, 4, 3).b == (3, 3, 1, 1)
    with pytest.raises(Infeasible):
        sequence_for(9, 4, 2)


def test_feasible_ca_nc_examples():
    assert feasible_ca(5, 3)
    assert not feasible_ca(5, 2)
    assert feasible_nc(10, 5)
    assert not feasible_nc(9, 5)
    assert feasible_nc(3, 3)
    assert feasible_nc(1, 1) and feasible_nc(5, 2)


def test_realize_nca_round_trip():
    for c in (3, 4):
        for a in range(1, 8):
            for n in range(1, 11):
                if not feasible_nca(n, c, a).feasible:
                    continue
                p = realize_nca(n, c, a)
                assert p.n == n
                assert height(p) == c
                assert width(p) == a


def test_feasible_nc_ca_against_every_small_poset():
    # feasible_nc is exact and feasible_ca necessary on every poset with
    # at most 6 elements.
    found = set()
    for n in range(1, 7):
        for p in enumerate_posets(n):
            if is_polyunsaturated(p).conclusion:
                found.add((n, height(p), width(p)))
    for n in range(1, 7):
        for c in range(1, 8):
            exists = any(m == n and h == c for m, h, _ in found)
            assert feasible_nc(n, c) == exists, (n, c)
    for _, c, a in found:
        assert feasible_ca(c, a), (c, a)


def test_build_pj_matches_the_cover_closure_oracle():
    for j in range(1, 40):
        p, labels = build_pj(j)
        q, oracle_labels = build_pj_covers(j)
        assert (p.up, p.names, p.realizer) == (q.up, q.names, q.realizer)
        assert labels == oracle_labels


def test_from_delta_matches_the_union_oracle():
    cases = accepted_deltas(6, 7)
    assert len(cases) == 455
    big = sequence_for(2000, 10, 250)
    for b, p in cases + [(big, from_delta(big))]:
        q = from_delta_unions(b)
        assert (p.up, p.names, p.realizer) == (q.up, q.names, q.realizer)
        assert dumps(p) == dumps(q)


def test_from_delta_names_every_element_once():
    # The tower's names start with a letter, and a peeled chain's elements
    # are called by their indices in the union, so no name repeats.
    cases = accepted_deltas(8, 8)
    assert len(cases) == 1001
    for b, p in cases:
        assert len({p.name(x) for x in range(p.n)}) == p.n, b


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: FeasibilityVerdict(True, ("x",)), ValueError,
            "feasible iff no condition failed", id="verdict-disagrees",
        ),
        pytest.param(
            lambda: upper_bounds(2, 5), BadParameters, "need c >= 3",
            id="upper_bounds-c2",
        ),
        pytest.param(
            lambda: feasible_nca(5, 4, 0), BadParameters,
            "n and a must be positive", id="feasible_nca-a0",
        ),
        pytest.param(
            lambda: feasible_ca(0, 1), BadParameters,
            "c and a must be positive", id="feasible_ca-c0",
        ),
        pytest.param(
            lambda: feasible_nc(0, 3), BadParameters,
            "n and c must be positive", id="feasible_nc-n0",
        ),
    ],
)
def test_construct_refusals(call, error, message):
    assert refusal(call) == (error, message)


def test_from_delta_height_and_width_by_matching():
    for b, p in accepted_deltas(6, 7):
        assert (height(p), width(p)) == (len(b), b[0]), b


def tower_blocks(j):
    return [sorted(q) for q in build_pj(j)[1].Q]


def test_certificate_accepts_the_tower_blocks():
    p = build_pj(3)[0]
    assert _certify(p, (10, 5, 3), tower_blocks(3)) is p


@pytest.mark.parametrize(
    "p, shape, blocks",
    [
        # Two incomparable elements as one block.
        (Poset(2, [0, 0]), (2, 1, 1), [[0, 1]]),
        # Chains that partition a 3-chain, but the tops 1 < 2: width 1.
        (chain_poset(3), (3, 3, 2), [[0, 1], [2]]),
        (chain_poset(3), (3, 3, 1), [[0, 1]]),
        (chain_poset(3), (3, 3, 2), [[0, 1, 2], [2]]),
        (build_pj(3)[0], (10, 4, 3), tower_blocks(3)),
        # A block out of ascending order is no chain in p's indexing.
        (chain_poset(3), (3, 3, 1), [[0, 2, 1]]),
    ],
    ids=[
        "block-not-a-chain",
        "comparable-tops",
        "missing-element",
        "repeated-element",
        "wrong-height",
        "block-out-of-order",
    ],
)
def test_certificate_refuses_a_broken_proof(p, shape, blocks):
    with pytest.raises(AssertionError):
        _certify(p, shape, blocks)


def test_each_construction_builds_one_poset_and_runs_no_matching(
    monkeypatch,
):
    built = []
    init = Poset.__init__

    def counting(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    def matching(p):
        raise AssertionError("a constructor ran a matching")

    monkeypatch.setattr(Poset, "__init__", counting)
    monkeypatch.setattr(construct, "width", matching, raising=False)
    monkeypatch.setattr(poset, "width", matching)
    build_pj(7)
    from_delta((11, 10, 8, 7, 6, 2, 1, 1))
    from_delta((3, 2))
    realize_nca(2000, 10, 250)
    assert built == [36, 46, 5, 2000]


def test_from_delta_checks_its_output(monkeypatch):
    # Chains built as antichains give the wrong width, which must raise.
    def antichain(t):
        ext = tuple(range(t))
        return [0] * t, None, Realizer(ext, ext[::-1])

    monkeypatch.setattr(construct, "_chain", antichain)
    with pytest.raises(AssertionError):
        from_delta((3, 3, 2, 1))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_constructor_bytes_at_max_n():
    pj, nca = build_pj(61)[0], realize_nca(2000, 10, 250)
    assert [sha256(f(p)) for p in (pj, nca) for f in (dumps, export_dot)] == [
        "f727363c0d260f97b1fe72c10a29344e230f9309cbb3621984a0396e78d3101a",
        "4b511ee97ab4e8fe319df47086e54253371eef2d4717829ea8715017bb52c035",
        "0672e95d3105b256f5c66764f07cb6e9f3500af6bf28cbd3c5347d8e9256cf9e",
        "b3cb49d2eb1faf0310a33cbe9f60c83a05da5e8127bcc6cc49a5b66266e22cc4",
    ]
