"""End-to-end acceptance checks.

Each test prints one pass/fail line (run with pytest -s to see them all).
Every value is an exact integer; no tolerances anywhere.
"""

import math

from polysat import (
    NoJointPartition,
    build_pj,
    ck_partition,
    comparability_graph,
    complement,
    conjugate,
    delta_sequence,
    dk,
    enumerate_posets,
    feasible_dual_nac,
    feasible_nca,
    find_saturated,
    from_delta,
    height,
    is_k_saturated,
    is_polyunsaturated,
    is_strong_sperner,
    omega_k,
    pj_realizer,
    sequence_for,
    verify_realizer,
    width,
)
from oracles import dk_oracle
from test_construct import all_valid_deltas
from test_graphdual import dim2_samples


def check(label, ok):
    print(f"{label}: {'pass' if ok else 'FAIL'}")
    assert ok, label


def tower_delta(j):
    return (j,) + tuple(range(j, 0, -1)) + (1,)


def test_acceptance_01_tower_parameters():
    ok = True
    for j in range(1, 7):
        p, _ = build_pj(j)
        ok &= p.n == math.comb(j + 2, 2)
        ok &= height(p) == j + 2
        ok &= width(p) == j
    check("acceptance 01 tower parameters j=1..6", ok)


def test_acceptance_02_tower_delta_sequences():
    ok = True
    for j in range(1, 6):
        p, _ = build_pj(j)
        ok &= delta_sequence(p).b == tower_delta(j)
        if j <= 3:
            ok &= all(
                dk(p, k) == dk_oracle(p, k)
                for k in range(1, height(p) + 1)
            )
    check("acceptance 02 tower delta sequences j=1..5", ok)


def test_acceptance_03_strong_sperner_and_saturated_partitions():
    ok = True
    for j in range(1, 5):
        p, _ = build_pj(j)
        ok &= is_strong_sperner(p)
        for k in range(1, j + 1):
            cp = ck_partition(j, k)
            ok &= is_k_saturated(p, cp, k)
            ok &= is_k_saturated(p, cp, k + 1)
    check("acceptance 03 strong Sperner + saturated partitions j=1..4", ok)


def test_acceptance_04_realizers_and_conjugate_complement():
    ok = True
    for j in range(1, 7):
        p, _ = build_pj(j)
        ok &= verify_realizer(p, pj_realizer(j))
    for j in range(1, 5):
        p, _ = build_pj(j)
        q = conjugate(p)
        newidx = [0] * p.n
        for i, x in enumerate(p.realizer.ext1):
            newidx[x] = i
        g_old = complement(comparability_graph(p))
        g_new = comparability_graph(q)
        for x in range(p.n):
            for y in range(p.n):
                if x == y:
                    continue
                ok &= g_old.has_edge(x, y) == g_new.has_edge(
                    newidx[x], newidx[y]
                )
    check("acceptance 04 realizers j=1..6, conjugate complement j<=4", ok)


def test_acceptance_05_tower_polyunsaturation():
    ok = True
    for j in (2, 3, 4):
        ok &= is_polyunsaturated(build_pj(j)[0]).conclusion
    p2, _ = build_pj(2)
    verdict = is_polyunsaturated(p2).pair_verdicts[(1, 3)]
    ok &= isinstance(verdict, NoJointPartition)
    ok &= verdict.min_joint_norm == 8
    ok &= dk(p2, 1) + dk(p2, 3) == 7
    check("acceptance 05 tower polyunsaturation j=2..4", ok)


def test_acceptance_06_adjacent_saturation_always_exists():
    ok = True
    for n in range(1, 7):
        for p in enumerate_posets(n):
            for k in range(1, height(p)):
                ok &= find_saturated(p, {k, k + 1}) is not None
    check("acceptance 06 adjacent k,k+1 saturation on all n<=6", ok)


def test_acceptance_07_polyunsaturated_implies_strict_descent():
    ok = True
    for n in range(1, 7):
        for p in enumerate_posets(n):
            c = height(p)
            if c < 4 or not is_polyunsaturated(p).conclusion:
                continue
            b = delta_sequence(p).b
            ok &= all(b[i] > b[i + 1] for i in range(1, c - 2))
    check("acceptance 07 polyunsaturated n<=6 have strict descent", ok)


def test_acceptance_08_every_valid_sequence_realizes():
    ok = True
    for b in all_valid_deltas(5, 12):
        p = from_delta(b)
        ok &= height(p) == len(b)
        ok &= delta_sequence(p).b == b
        ok &= is_polyunsaturated(p).conclusion
        ok &= p.realizer is not None and verify_realizer(p, p.realizer)
    check("acceptance 08 realization of all valid sequences sum<=12", ok)


def test_acceptance_09_feasibility_matches_construction():
    ok = True
    for c in (3, 4):
        for a in range(1, 11):
            for n in range(1, 11):
                if not feasible_nca(n, c, a).feasible:
                    continue
                p = from_delta(sequence_for(n, c, a))
                ok &= p.n == n
                ok &= height(p) == c
                ok &= width(p) == a
    ok &= feasible_nca(6, 4, 2).feasible
    ok &= not feasible_nca(7, 4, 2).feasible
    check("acceptance 09 feasibility vs construction, c in {3,4}, n<=10", ok)


def test_acceptance_10_minimum_size_at_height_four():
    ok = True
    for n in range(4, 6):
        for p in enumerate_posets(n):
            if height(p) != 4:
                continue
            ok &= not is_polyunsaturated(p).conclusion
    p2, _ = build_pj(2)
    ok &= p2.n == math.comb(4, 2)
    ok &= is_polyunsaturated(p2).conclusion
    check("acceptance 10 no height-4 example below 6 elements", ok)


def test_acceptance_11_clique_duality():
    ok = True
    for p in dim2_samples():
        g = comparability_graph(p)
        q = conjugate(p)
        for k in range(1, height(q) + 1):
            ok &= omega_k(g, k) == dk(q, k)
    for n in range(1, 13):
        for a in range(3, 7):
            for c in range(1, 7):
                ok &= (
                    feasible_dual_nac(n, a, c).feasible
                    == feasible_nca(n, a, c).feasible
                )
    check("acceptance 11 clique duality and dual feasibility swap", ok)


if __name__ == "__main__":
    import sys

    mod = sys.modules[__name__]
    for name in sorted(dir(mod)):
        if name.startswith("test_acceptance_"):
            getattr(mod, name)()
