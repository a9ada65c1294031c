"""Builders for the narrow polyunsaturated posets and their certificates.

build_pj makes the inductive tower of overlapping chains Q_1..Q_j (one new
cover s_{j-1} <. s_j per stage); from_delta realizes any admissible
difference sequence by the recursive disjoint-union construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadK, BadParameters, Infeasible, InvalidDelta
from .io import check_size
from .kfamily import DeltaSequence
from .poset import (
    Chain,
    Realizer,
    chain_poset,
    disjoint_union,
    from_covers,
    height,
    width,
)
from .saturation import ChainPartition, is_k_saturated


@dataclass(frozen=True)
class PjLabels:
    """Named elements and blocks of a constructed tower poset.

    u is the global minimum of Q_1; s[i-1] and r[i-1] are the two top
    elements of Q_i; T[i-1] holds the rest of Q_i (T_1 = {u}).
    """

    u: int
    s: tuple
    r: tuple
    T: tuple
    Q: tuple


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    failed_conditions: tuple

    def __post_init__(self):
        if self.feasible != (not self.failed_conditions):
            raise ValueError("feasible iff no condition failed")


def build_pj(j):
    """The j-th tower poset with labels: width j, height j+2, n=C(j+2,2)."""
    if j < 1:
        raise BadParameters("j must be positive")
    check_size(math.comb(j + 2, 2))
    covers = []
    names = []
    q_blocks = []
    s_raw = []
    r_raw = []
    t_raw = []
    for i in range(1, j + 1):
        start = len(names)
        size = 3 if i == 1 else i + 1
        block = list(range(start, start + size))
        if i == 1:
            names += ["u", "s1", "r1"]
            t_raw.append([block[0]])
        else:
            names += [f"t{i}.{m}" for m in range(1, i)] + [f"s{i}", f"r{i}"]
            t_raw.append(block[:-2])
        for a, b in zip(block, block[1:]):
            covers.append((a, b))
        if i > 1:
            covers.append((s_raw[-1], block[-2]))
        s_raw.append(block[-2])
        r_raw.append(block[-1])
        q_blocks.append(block)
    # The two linear extensions certifying dimension <= 2, in input
    # labels: the blocks T_i s_i r_i in turn, then T_j .. T_1, every s_i
    # and the r_i backwards.
    ext2 = [x for block in reversed(t_raw) for x in block]
    ext2 += s_raw + r_raw[::-1]
    realizer = Realizer(tuple(range(len(names))), tuple(ext2))
    p, mapping = from_covers(len(names), covers, names, realizer)
    s = tuple(mapping[x] for x in s_raw)
    r = tuple(mapping[x] for x in r_raw)
    T = tuple(frozenset(mapping[x] for x in block) for block in t_raw)
    Q = tuple(frozenset(mapping[x] for x in block) for block in q_blocks)
    labels = PjLabels(u=mapping[0], s=s, r=r, T=T, Q=Q)
    if p.n != math.comb(j + 2, 2) or (height(p), width(p)) != (j + 2, j):
        raise AssertionError(f"P_{j} has the wrong size, height or width")
    return p, labels


def ck_partition(j, k):
    """The partition {u,s_1..s_k,r_k} plus the leftovers of each Q_i.

    Blocks Q_i untouched for i > k are included, reading the construction
    as a partition of the whole poset.  Both k- and k+1-saturated.
    """
    p, labels = build_pj(j)
    if not 1 <= k <= j:
        raise BadK(f"need 1 <= k <= {j}")
    spine = {labels.u} | set(labels.s[:k]) | {labels.r[k - 1]}
    chains = [Chain(tuple(sorted(spine)))]
    for block in labels.Q:
        rest = sorted(set(block) - spine)
        if rest:
            chains.append(Chain(tuple(rest)))
    cp = ChainPartition(p, tuple(chains))
    if not (is_k_saturated(p, cp, k) and is_k_saturated(p, cp, k + 1)):
        raise AssertionError(f"C_{k} of P_{j} is not {k}/{k + 1}-saturated")
    return cp


def lower_bounds(c):
    """Elementwise minimum of an admissible sequence: (c-2, c-2, ..., 1, 1)."""
    if c < 3:
        raise BadParameters("need c >= 3")
    return DeltaSequence(
        (c - 2,) + tuple(c - i for i in range(2, c)) + (1,)
    )


def upper_bounds(c, a):
    """Elementwise maximum with first entry a: (a, a, a-1, ..., a-c+3, a-c+3)."""
    if c < 3:
        raise BadParameters("need c >= 3")
    if a < c - 2:
        raise BadParameters("need a >= c - 2")
    return DeltaSequence(
        (a,) + tuple(a - i + 2 for i in range(2, c)) + (a - c + 3,)
    )


def _conjugate_partition(b):
    """Column counts of the Ferrers diagram of b."""
    return [sum(1 for x in b if x >= m) for m in range(1, b[0] + 1)]


def from_delta(b):
    """A polyunsaturated dimension-<=2 poset with the given delta sequence.

    While b is above its lower bounds, peel a chain of t elements, where
    t is the last position still above its lower bound; the result is
    the tower poset of the lower bounds joined with the peeled chains,
    the last peeled first.  Heights below 3 are disjoint chains sized by
    the conjugate partition.
    """
    if not isinstance(b, DeltaSequence):
        b = DeltaSequence(tuple(b))
    b = b.b
    for i in range(1, len(b) - 2):
        if b[i] <= b[i + 1]:
            raise InvalidDelta(
                f"interior entries must strictly decrease: b_{i + 1}={b[i]}"
                f" vs b_{i + 2}={b[i + 1]}"
            )
    check_size(sum(b))
    c = len(b)
    if c < 3:
        sizes = _conjugate_partition(b)
        p, chains = chain_poset(sizes[0]), sizes[1:]
    else:
        lower = lower_bounds(c).b
        chains = []
        while sum(b) > math.comb(c, 2):
            t = max(i for i in range(c) if b[i] > lower[i]) + 1
            b = tuple(x - 1 if i < t else x for i, x in enumerate(b))
            chains.insert(0, t)
        p = build_pj(c - 2)[0]
    for t in chains:
        p = disjoint_union(p, chain_poset(t))
    return p


def feasible_nca(n, c, a):
    """Existence test for an n-element polyunsaturated poset with height c
    and width a."""
    if c < 3:
        raise BadParameters("need c >= 3")
    if n < 1 or a < 1:
        raise BadParameters("n and a must be positive")
    failed = []
    if a < c - 2:
        failed.append("a_ge_c_minus_2")
    if n < a + 1 + math.comb(c - 1, 2):
        failed.append("n_lower")
    if n > c * a + 1 - math.comb(c - 1, 2):
        failed.append("n_upper")
    return FeasibilityVerdict(
        feasible=not failed, failed_conditions=tuple(failed)
    )


def sequence_for(n, c, a):
    """A realizable delta sequence with sum n and first entry a.

    Greedy: start at the lower bounds with b_1 pinned to a, then raise
    b_2, b_3, ... in turn to their upper bounds until the sum reaches n.
    """
    verdict = feasible_nca(n, c, a)
    if not verdict.feasible:
        raise Infeasible(
            f"(n={n}, c={c}, a={a}) fails {', '.join(verdict.failed_conditions)}"
        )
    b = [a] + list(lower_bounds(c).b[1:])
    ub = upper_bounds(c, a).b
    deficit = n - sum(b)
    for i in range(1, c):
        room = ub[i] - b[i]
        add = min(room, deficit)
        b[i] += add
        deficit -= add
    if deficit:
        raise AssertionError(f"upper bounds leave {deficit} unplaced")
    return DeltaSequence(tuple(b))


def feasible_ca(c, a):
    """Existence with prescribed height and width only."""
    if c < 1 or a < 1:
        raise BadParameters("c and a must be positive")
    return a >= c - 2


def feasible_nc(n, c):
    """Existence with prescribed cardinality and height only."""
    if c < 1 or n < 1:
        raise BadParameters("n and c must be positive")
    if c <= 2:
        return True
    return n >= math.comb(c, 2)


def realize_nca(n, c, a):
    """Convenience: sequence_for followed by from_delta, sanity-checked."""
    check_size(n)
    p = from_delta(sequence_for(n, c, a))
    if not (p.n == n and height(p) == c and width(p) == a):
        raise AssertionError(f"realization misses (n={n}, c={c}, a={a})")
    return p
