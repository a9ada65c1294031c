"""Comparability graphs, realizers, conjugates, and the coloring duals."""

import pytest

from polysat import (
    Graph,
    Realizer,
    alpha_k,
    antichain_poset,
    build_pj,
    chain_poset,
    comparability_graph,
    complement,
    conjugate,
    dk,
    feasible_dual_nac,
    feasible_nca,
    from_delta,
    height,
    is_co_polyunsaturated,
    isomorphic,
    omega_k,
    pj_realizer,
    verify_realizer,
)
from polysat.errors import BadParameters, InvalidRealizer
from oracles import is_comparability
from util import random_poset, seeded


def dim2_samples():
    """Small posets that carry a certified 2-realizer."""
    out = [chain_poset(4), antichain_poset(4), build_pj(1)[0], build_pj(2)[0]]
    for b in ((3, 2, 1), (2, 2, 1, 1), (3, 3, 1), (4, 3, 1)):
        out.append(from_delta(b))
    return out


def test_comparability_graph_examples():
    g = comparability_graph(chain_poset(3))
    assert g.edge_count() == 3
    assert comparability_graph(antichain_poset(2)).edge_count() == 0
    assert comparability_graph(build_pj(1)[0]).edge_count() == 3


def test_complement_involution():
    triangle = comparability_graph(chain_poset(3))
    assert complement(triangle).edge_count() == 0
    assert complement(complement(triangle)) == triangle
    rng = seeded(30)
    for _ in range(10):
        g = comparability_graph(random_poset(rng, rng.randint(1, 7)))
        assert complement(complement(g)) == g


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))


def test_alpha_k_equals_dk():
    rng = seeded(31)
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 8))
        g = comparability_graph(p)
        for k in range(1, height(p) + 1):
            assert alpha_k(g, k) == dk(p, k)


def test_omega_examples():
    kn = comparability_graph(chain_poset(5))
    assert alpha_k(kn, 1) == 1
    assert omega_k(kn, 1) == 5
    # P_2 has width 2, so two chains cover all six elements.
    assert omega_k(comparability_graph(build_pj(2)[0]), 2) == 6


def test_pj_realizer_examples():
    r1 = pj_realizer(1)
    assert r1.ext1 == r1.ext2
    p2, _ = build_pj(2)
    r2 = pj_realizer(2)
    assert [p2.name(x) for x in r2.ext1] == ["u", "s1", "r1", "t2.1", "s2", "r2"]
    assert [p2.name(x) for x in r2.ext2] == ["t2.1", "u", "s1", "s2", "r2", "r1"]
    for j in range(1, 5):
        assert verify_realizer(build_pj(j)[0], pj_realizer(j))


def test_verify_realizer_examples():
    ident = Realizer((0, 1, 2), (0, 1, 2))
    assert verify_realizer(chain_poset(3), ident)
    assert not verify_realizer(antichain_poset(2), Realizer((0, 1), (0, 1)))
    assert not verify_realizer(chain_poset(3), Realizer((2, 1, 0), (0, 1, 2)))
    p = from_delta((3, 3, 2, 1))
    assert verify_realizer(p, p.realizer)


def test_conjugate_examples():
    q = conjugate(chain_poset(3))
    assert isomorphic(q, antichain_poset(3))
    q = conjugate(antichain_poset(4))
    assert isomorphic(q, chain_poset(4))


def test_conjugate_realizes_complement():
    for p in dim2_samples():
        q = conjugate(p)
        g = comparability_graph(p)
        assert comparability_graph(q).edge_count() == complement(g).edge_count()
        for k in range(1, height(q) + 1):
            assert omega_k(g, k) == dk(q, k)


def test_conjugate_involution_up_to_isomorphism():
    for p in dim2_samples():
        assert isomorphic(conjugate(conjugate(p)), p)


def test_conjugate_needs_realizer():
    p = random_poset(seeded(32), 5)
    with pytest.raises(InvalidRealizer):
        conjugate(p)
    with pytest.raises(InvalidRealizer):
        conjugate(chain_poset(3), Realizer((2, 1, 0), (0, 1, 2)))


def test_conjugate_chains_are_color_classes():
    # Chains of the conjugate are independent sets of the original graph.
    for p in dim2_samples():
        q = conjugate(p)
        g = comparability_graph(p)
        order = p.realizer.ext1
        for x in range(q.n):
            for y in range(x + 1, q.n):
                if q.less(x, y):
                    assert not g.has_edge(order[x], order[y])


def test_is_co_polyunsaturated_examples():
    report = is_co_polyunsaturated(chain_poset(4))
    assert report.c == 1 and report.conclusion
    report = is_co_polyunsaturated(from_delta((2, 2, 1, 1)))
    assert report.c == 2 and report.conclusion


def test_feasible_dual_examples():
    assert feasible_dual_nac(10, 5, 3).feasible
    assert feasible_dual_nac(6, 4, 2) == feasible_nca(6, 4, 2)
    assert not feasible_dual_nac(7, 4, 2).feasible
    with pytest.raises(BadParameters):
        feasible_dual_nac(6, 2, 4)


def test_is_comparability():
    assert is_comparability(comparability_graph(build_pj(1)[0]))
    assert is_comparability(complement(comparability_graph(build_pj(2)[0])))
    # The 5-cycle has no transitive orientation.
    adj = [0] * 5
    for x in range(5):
        y = (x + 1) % 5
        adj[x] |= 1 << y
        adj[y] |= 1 << x
    assert not is_comparability(Graph(5, tuple(adj)))
