"""Existence census: check the paper's existence theorem on every poset
class with at most 8 elements.

A polyunsaturated poset with n elements, height c >= 4 and width a
exists iff feasible_nca(n, c, a) holds.  For each n this enumerates every
class, checks the class count against OEIS A000112, and checks both
directions: every polyunsaturated class passes feasible_nca, and every
feasible (n, c, a) is hit by some class.  It also prints how the least
slacks of the refuted pairs (min m_k + m_l - d_k - d_l over all chain
partitions) are distributed, split by whether the class is connected.

Run it from the repository root with

    PYTHONPATH=src python tests/census.py

It prints one line per n and exits 1 on any violation.  pytest does not
collect it: n = 8 alone takes about 10 s on a 2-core machine.
"""

import sys
from collections import Counter

from polysat import (
    NoJointPartition,
    enumerate_posets,
    feasible_nca,
    height,
    is_polyunsaturated,
    width,
)
from polysat.poset import bits

A000112 = [1, 2, 5, 16, 63, 318, 2045, 16999]


def connected(p):
    reach = 1
    while True:
        grown = reach
        for x in bits(reach):
            grown |= p.up[x] | p.down[x]
        if grown == reach:
            return reach == (1 << p.n) - 1
        reach = grown


def census(n):
    """(classes, polyunsaturated (n, c, a) counts, least-slack counts by
    (connected, slack)) over the n-element classes with height >= 4."""
    classes, hits, slacks = 0, Counter(), Counter()
    for p in enumerate_posets(n):
        classes += 1
        c = height(p)
        if c < 4:
            continue
        report = is_polyunsaturated(p)
        for (k, l), verdict in report.pair_verdicts.items():
            if isinstance(verdict, NoJointPartition):
                norm = report.d[k - 1] + report.d[l - 1]
                slacks[connected(p), verdict.min_joint_norm - norm] += 1
        if report.conclusion:
            hits[n, c, width(p)] += 1
    return classes, hits, slacks


def main():
    violations = []
    for n in range(1, len(A000112) + 1):
        classes, hits, slacks = census(n)
        feasible = {
            (n, c, a)
            for c in range(4, n + 1)
            for a in range(1, n + 1)
            if feasible_nca(n, c, a).feasible
        }
        if classes != A000112[n - 1]:
            violations.append(f"n={n}: {classes} classes, not A000112's")
        violations += [
            f"polyunsaturated class with infeasible {t}"
            for t in sorted(set(hits) - feasible)
        ]
        violations += [
            f"feasible {t} has no polyunsaturated class"
            for t in sorted(feasible - set(hits))
        ]
        print(
            f"n={n}: {classes} classes;"
            f" polyunsaturated {dict(sorted(hits.items()))};"
            f" least slacks (connected, s) {dict(sorted(slacks.items()))}"
        )
    for line in violations:
        print(f"VIOLATION: {line}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
