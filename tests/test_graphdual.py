"""Comparability graphs, realizers, conjugates, and the coloring duals."""

import time

import pytest

from polysat import (
    Poset,
    Realizer,
    antichain_poset,
    build_pj,
    chain_poset,
    conjugate,
    dk,
    feasible_dual_nac,
    feasible_nca,
    from_covers,
    from_delta,
    height,
    is_polyunsaturated,
    realize_nca,
    verify_realizer,
)
from polysat.errors import BadParameters, InvalidRealizer
from oracles import (
    Graph,
    alpha_k,
    comparability_graph,
    complement,
    conjugate_pairs,
    is_comparability,
    isomorphic,
    omega_k,
    verify_realizer_pairs,
)
from util import python_optimized, random_poset, seeded


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
    r1 = build_pj(1)[0].realizer
    assert r1.ext1 == r1.ext2
    p2, _ = build_pj(2)
    r2 = p2.realizer
    assert [p2.name(x) for x in r2.ext1] == ["u", "s1", "r1", "t2.1", "s2", "r2"]
    assert [p2.name(x) for x in r2.ext2] == ["t2.1", "u", "s1", "s2", "r2", "r1"]
    for j in range(1, 5):
        p, _ = build_pj(j)
        assert verify_realizer(p, p.realizer)


def test_verify_realizer_examples():
    ident = Realizer((0, 1, 2), (0, 1, 2))
    assert verify_realizer(chain_poset(3), ident)
    assert not verify_realizer(antichain_poset(2), Realizer((0, 1), (0, 1)))
    assert not verify_realizer(chain_poset(3), Realizer((2, 1, 0), (0, 1, 2)))
    p = from_delta((3, 3, 2, 1))
    assert verify_realizer(p, p.realizer)


def permutation_orders(rng):
    """Orders of seeded random permutation pairs, n <= 12, some named."""
    for _ in range(60):
        n = rng.randint(1, 12)
        ext1, ext2 = list(range(n)), list(range(n))
        rng.shuffle(ext1)
        rng.shuffle(ext2)
        pairs = [
            (x, y)
            for i, x in enumerate(ext1)
            for y in ext1[i + 1 :]
            if ext2.index(x) < ext2.index(y)
        ]
        names = [f"e{x}" for x in range(n)] if rng.random() < 0.5 else None
        yield from_covers(n, pairs, names, Realizer(ext1, ext2))[0]


def mutations(rng, r, n):
    """Realizers one edit away from r: two entries swapped, an entry
    duplicated, an entry out of range, and one entry too few or many."""
    for name in ("ext1", "ext2"):
        ext = list(getattr(r, name))
        edits = [ext[:-1], ext + [n]]
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            swapped = list(ext)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            duplicated = list(ext)
            duplicated[i] = ext[j]
            edits += [swapped, duplicated]
        out_of_range = list(ext)
        out_of_range[rng.randrange(n)] = n
        edits.append(out_of_range)
        for edit in edits:
            if name == "ext1":
                yield Realizer(tuple(edit), r.ext2)
            else:
                yield Realizer(r.ext1, tuple(edit))


def conjugate_fields(conjugate_fn, p, r):
    """The fields of conjugate_fn's result for p's order carrying r, or
    None if it refuses r."""
    try:
        q = conjugate_fn(Poset(p.n, p.up, names=p.names, realizer=r))
    except InvalidRealizer:
        return None
    return q.up, q.names, q.realizer


def test_realizer_check_and_conjugate_match_pair_oracles():
    rng = seeded(33)
    verdicts = set()
    for p in [*dim2_samples(), *permutation_orders(rng)]:
        for r in [p.realizer, *mutations(rng, p.realizer, p.n)]:
            verdict = verify_realizer(p, r)
            assert verdict == verify_realizer_pairs(p, r)
            assert conjugate_fields(conjugate, p, r) == conjugate_fields(
                conjugate_pairs, p, r
            )
            verdicts.add((r == p.realizer, verdict))
    # No single edit leaves a 2-realizer of the same order.
    assert verdicts == {(True, True), (False, False)}


def test_realizer_check_and_conjugate_at_max_n_take_milliseconds():
    p = realize_nca(2000, 10, 250)
    start = time.perf_counter()
    verified = verify_realizer(p, p.realizer)
    conjugate(p)
    elapsed = time.perf_counter() - start
    assert verified
    # The pair loops took about 1.5 s on a 2-core Xeon; the suffix masks
    # take about 35 ms.
    assert elapsed < 0.5


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
    with pytest.raises(InvalidRealizer, match="carries no 2-realizer"):
        conjugate(p)
    r = Realizer((2, 1, 0), (0, 1, 2))
    with pytest.raises(InvalidRealizer, match="order is not the poset's"):
        conjugate(Poset(3, chain_poset(3).up, realizer=r))


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


def test_conjugate_graph_invariant_survives_optimize_flag():
    # A conjugate built with no relations fails the complement check, and
    # python -O must not strip it.
    result = python_optimized(
        "from polysat import Poset, antichain_poset, graphdual\n"
        "graphdual.Poset = lambda n, up, **kw: Poset(n, [0] * n, **kw)\n"
        "graphdual.conjugate(antichain_poset(3))\n"
    )
    assert result.returncode != 0
    assert "conjugate's graph is not the complement" in result.stderr


def test_is_co_polyunsaturated_examples():
    # Polyunsaturation of the conjugate: saturated proper colorings of the
    # comparability graph are saturated chain partitions of the conjugate.
    report = is_polyunsaturated(conjugate(chain_poset(4)))
    assert report.c == 1 and report.conclusion
    report = is_polyunsaturated(conjugate(from_delta((2, 2, 1, 1))))
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
