"""k-norms, saturated partitions, and polyunsaturation verdicts."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

import polysat
from polysat import (
    ChainPartition,
    NoJointPartition,
    Witness,
    antichain_poset,
    build_pj,
    chain_poset,
    ck_partition,
    delta_sequence,
    disjoint_union,
    dk,
    enumerate_posets,
    find_saturated,
    from_delta,
    height,
    is_k_saturated,
    is_polyunsaturated,
    kfamily,
    min_joint_norm,
    min_norm,
    mk,
    saturation,
)
from polysat.errors import (
    BadParameters,
    BudgetExceeded,
    PartitionMismatch,
    SizeLimitExceeded,
)
from polysat.graphdual import conjugate
from polysat.poset import Chain, Poset
from polysat.saturation import DEFAULT_LIMIT_N
from oracles import (
    enumerate_chain_partitions,
    find_saturated_dp,
    is_polyunsaturated_per_pair,
)
from util import posets, random_poset, seeded


def singletons(p):
    return ChainPartition(p, tuple(Chain((x,)) for x in range(p.n)))


def test_mk_examples():
    p4, labels = build_pj(4)
    blocks = ChainPartition(
        p4, tuple(Chain(tuple(sorted(q))) for q in labels.Q)
    )
    assert sorted(len(c) for c in blocks.chains) == [3, 3, 4, 5]
    assert mk(blocks, 2) == 8
    assert mk(blocks, 5) == p4.n
    assert mk(singletons(p4), 1) == p4.n


def test_partition_validation():
    p = chain_poset(3)
    with pytest.raises(PartitionMismatch):
        ChainPartition(p, (Chain((0, 1)),))
    with pytest.raises(PartitionMismatch):
        ChainPartition(p, (Chain((0, 1)), Chain((1, 2))))
    q = antichain_poset(2)
    with pytest.raises(PartitionMismatch):
        ChainPartition(q, (Chain((0, 1)),))


def test_is_k_saturated_examples():
    p4, _ = build_pj(4)
    cp = ck_partition(4, 2)
    assert is_k_saturated(p4, cp, 2)
    assert is_k_saturated(p4, cp, 3)
    assert is_k_saturated(p4, singletons(p4), height(p4))
    p = chain_poset(3)
    assert not is_k_saturated(p, singletons(p), 1)
    with pytest.raises(PartitionMismatch):
        is_k_saturated(chain_poset(4), singletons(p), 1)


def test_d_sequence_runs_the_flow_once_per_poset(monkeypatch):
    calls = []
    real = kfamily.chain_unions

    def counting(p):
        calls.append(p.n)
        return real(p)

    monkeypatch.setattr(kfamily, "chain_unions", counting)
    ck_partition(4, 2)
    assert calls == [15]
    p, _ = build_pj(3)
    for k in range(1, 7):
        is_k_saturated(p, singletons(p), k)
    assert calls == [15, 10]
    # An equal poset built on its own is another instance: it runs the
    # flow itself rather than reading a result kept for p.
    q, _ = build_pj(3)
    assert q == p and is_k_saturated(q, singletons(q), 5)
    assert calls == [15, 10, 10]


def test_enumerate_chain_partitions_counts():
    assert sum(1 for _ in enumerate_chain_partitions(antichain_poset(2))) == 1
    assert sum(1 for _ in enumerate_chain_partitions(chain_poset(2))) == 2
    # The five partitions of a 3-chain a<b<c: {abc}; {ab}{c}; {a}{bc};
    # {ac}{b}; {a}{b}{c}.
    assert sum(1 for _ in enumerate_chain_partitions(chain_poset(3))) == 5


def test_enumerate_chain_partitions_distinct():
    rng = seeded(20)
    for _ in range(10):
        p = random_poset(rng, rng.randint(1, 6))
        seen = set()
        for cp in enumerate_chain_partitions(p):
            key = frozenset(c.elems for c in cp.chains)
            assert key not in seen
            seen.add(key)


def test_min_norm_examples():
    value, cp = min_norm(chain_poset(3), 1)
    assert value == 1 and len(cp) == 1
    p2, _ = build_pj(2)
    assert min_norm(p2, 1)[0] == 2
    assert min_norm(p2, 3)[0] == 5
    assert min_norm(antichain_poset(4), 2)[0] == 4


def test_min_norm_matches_exhaustive_scan():
    rng = seeded(21)
    for _ in range(30):
        p = random_poset(rng, rng.randint(2, 6))
        k = rng.randint(1, height(p))
        value, cp = min_norm(p, k)
        assert mk(cp, k) == value
        assert value == min(
            mk(c, k) for c in enumerate_chain_partitions(p)
        )


def test_min_joint_norm_examples():
    p2, _ = build_pj(2)
    value, _ = min_joint_norm(p2, 1, 3)
    assert value == 8
    assert dk(p2, 1) + dk(p2, 3) == 7
    p = chain_poset(5)
    assert min_joint_norm(p, 1, 3)[0] == dk(p, 1) + dk(p, 3)
    q = disjoint_union(p2, chain_poset(3))
    assert min_joint_norm(q, 1, 3)[0] > dk(q, 1) + dk(q, 3)


def test_min_joint_norm_matches_exhaustive_scan():
    rng = seeded(22)
    for _ in range(30):
        p = random_poset(rng, rng.randint(2, 6))
        h = height(p)
        k = rng.randint(1, max(1, h - 1))
        l = k + rng.randint(1, 2)
        value, cp = min_joint_norm(p, k, l)
        assert mk(cp, k) + mk(cp, l) == value
        assert value == min(
            mk(c, k) + mk(c, l) for c in enumerate_chain_partitions(p)
        )


def test_find_saturated_gk_small():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for k in range(1, height(p)):
                cp = find_saturated(p, {k, k + 1})
                assert cp is not None
                assert is_k_saturated(p, cp, k)
                assert is_k_saturated(p, cp, k + 1)


def test_find_saturated_negative_and_positive():
    p2, _ = build_pj(2)
    assert find_saturated(p2, {1, 3}) is None
    p4, _ = build_pj(4)
    cp = find_saturated(p4, {2, 3})
    assert cp is not None
    assert is_k_saturated(p4, cp, 2) and is_k_saturated(p4, cp, 3)


def test_witness_breaks_ties_toward_smaller_successors():
    # The V order 0 < 1, 0 < 2 has two minimal partitions; the search
    # keeps the first in index order, so CLI output is reproducible.
    v = Poset(3, [0b110, 0, 0])
    cp = find_saturated(v, {1, 2})
    assert [c.elems for c in cp.chains] == [(0, 1), (2,)]


def test_is_polyunsaturated_examples():
    report = is_polyunsaturated(build_pj(1)[0])
    assert report.conclusion and not report.pair_verdicts
    for j in (2, 3):
        assert is_polyunsaturated(build_pj(j)[0]).conclusion
    p = disjoint_union(chain_poset(4), antichain_poset(4))
    report = is_polyunsaturated(p)
    assert not report.conclusion
    assert isinstance(report.pair_verdicts[(1, 3)], Witness)


def assert_matches_per_pair_dp(p, limit_n=DEFAULT_LIMIT_N):
    # Reports compare the d sequence, every verdict with its witness
    # chains or minimum joint norm, and the conclusion.
    assert is_polyunsaturated(p, limit_n=limit_n) == (
        is_polyunsaturated_per_pair(p)
    )


def test_certify_matches_per_pair_dp_on_all_small_posets():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert_matches_per_pair_dp(p)


def test_certify_matches_per_pair_dp_on_random_posets():
    rng = seeded(31)
    densities = (0.1, 0.15, 0.2, 0.25, 0.3)
    for i in range(200):
        assert_matches_per_pair_dp(
            random_poset(rng, 8 + i % 8, densities[i % len(densities)])
        )


@pytest.mark.parametrize(
    "b", [(5, 5, 3, 2, 1, 1), (6, 5, 4, 1, 1), (5, 4, 3, 2, 1)]
)
def test_certify_matches_per_pair_dp_on_conjugates(b):
    assert_matches_per_pair_dp(conjugate(from_delta(b)), limit_n=24)


@settings(deadline=None, max_examples=60)
@given(posets(max_n=10))
def test_certify_matches_per_pair_dp_property(p):
    assert_matches_per_pair_dp(p)


def test_find_saturated_matches_dp_oracle():
    rng = seeded(32)
    cases = [p for n in range(1, 6) for p in enumerate_posets(n)]
    cases += [random_poset(rng, rng.randint(6, 11)) for _ in range(30)]
    for p in cases:
        c = height(p)
        for ks in itertools.chain(
            itertools.combinations(range(1, c + 1), 1),
            itertools.combinations(range(1, c + 1), 2),
        ):
            assert find_saturated(p, ks) == find_saturated_dp(p, ks)


def test_conjugate_certificate_stays_within_its_state_count(monkeypatch):
    # The per-pair DP expands 11,216 masks for each of this poset's six
    # pairs; the orthogonal searches settle all six, each with a witness.
    searches = []

    class Counting(saturation._NormSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(saturation, "_NormSearch", Counting)
    q = conjugate(from_delta((6, 5, 4, 1, 1)))
    report = is_polyunsaturated(q, limit_n=24)
    assert not report.conclusion and len(report.pair_verdicts) == 6
    assert sum(search.states for search in searches) < 5000


def test_budget_must_be_a_nonnegative_number():
    for budget in (float("nan"), -1.0):
        with pytest.raises(BadParameters):
            find_saturated(chain_poset(3), {1}, budget_s=budget)


def test_no_joint_partition_gap():
    report = is_polyunsaturated(build_pj(2)[0])
    verdict = report.pair_verdicts[(1, 3)]
    assert isinstance(verdict, NoJointPartition)
    assert verdict.min_joint_norm == 8


def test_delta_mk_counts_long_chains():
    rng = seeded(23)
    for _ in range(20):
        p = random_poset(rng, rng.randint(2, 7))
        for cp in enumerate_chain_partitions(p):
            for k in range(2, height(p) + 2):
                long_chains = sum(1 for c in cp.chains if len(c) >= k)
                assert mk(cp, k) - mk(cp, k - 1) == long_chains
            break


def test_mk_bounds_dk():
    rng = seeded(24)
    for _ in range(15):
        p = random_poset(rng, rng.randint(2, 6))
        for cp in enumerate_chain_partitions(p):
            for k in range(1, height(p) + 1):
                assert mk(cp, k) >= dk(p, k)


def test_equal_deltas_force_shared_saturation():
    # When the delta sequence repeats at k, k-saturation implies
    # k+1-saturation for every partition.
    rng = seeded(25)
    checked = 0
    for _ in range(40):
        p = random_poset(rng, rng.randint(2, 6))
        delta = delta_sequence(p).b
        for k in range(1, len(delta) - 1):
            if delta[k - 1] != delta[k]:
                continue
            for cp in enumerate_chain_partitions(p):
                if is_k_saturated(p, cp, k):
                    assert is_k_saturated(p, cp, k + 1)
                    checked += 1
    assert checked > 0


def test_tower_saturated_partitions_route_through_u():
    # In every k-saturated partition of the tower poset (2 <= k <= j),
    # the chain containing u also contains r_{k-1} or r_k.
    for j in (2, 3):
        p, labels = build_pj(j)
        for k in range(2, j + 1):
            hits = 0
            for cp in enumerate_chain_partitions(p):
                if not is_k_saturated(p, cp, k):
                    continue
                hits += 1
                chain = next(
                    c for c in cp.chains if labels.u in c.elems
                )
                assert (
                    labels.r[k - 2] in chain.elems
                    or labels.r[k - 1] in chain.elems
                )
            assert hits > 0


def test_budget_and_size_limits():
    p4, _ = build_pj(4)
    with pytest.raises(BudgetExceeded):
        min_joint_norm(p4, 1, 3, budget_s=0.0)
    big = antichain_poset(17)
    with pytest.raises(SizeLimitExceeded):
        min_norm(big, 1)
    with pytest.raises(SizeLimitExceeded):
        min_norm(chain_poset(3), 1, limit_n=30)


def test_budget_bounds_the_whole_certificate(monkeypatch):
    # A clock that advances one second per read, once per search state:
    # a min_joint_norm of P_3 reads it 68 times, and the certificate 86
    # times (18 orthogonal states over three pairs, then 67 in the shared
    # DP), so 75 s fits one DP but not the DP after the pair searches.
    clock = itertools.count()
    monkeypatch.setattr(
        saturation.time, "monotonic", lambda: float(next(clock))
    )
    p3, _ = build_pj(3)
    min_joint_norm(p3, 1, 3, budget_s=75.0)
    with pytest.raises(BudgetExceeded):
        is_polyunsaturated(p3, budget_s=75.0)


def test_min_norm_invariant_survives_optimize_flag():
    code = (
        "from polysat import build_pj, saturation\n"
        "saturation.dk = lambda p, k: -1\n"
        "saturation.min_norm(build_pj(2)[0], 1)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polysat.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode != 0
    assert "Greene-Kleitman violated" in result.stderr
