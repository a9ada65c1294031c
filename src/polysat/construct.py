"""Builders for the narrow polyunsaturated posets and their certificates.

build_pj makes the inductive tower of overlapping chains Q_1..Q_j (one new
cover s_{j-1} <. s_j per stage); from_delta joins a tower with the chains
peeled off any admissible difference sequence.  Each builds one Poset and
proves its width with a Dilworth certificate, chains that partition it
with pairwise incomparable tops, not with a matching.  The ranks that DOT
export aligns live here too, out of the modules that dk-table loads.
"""

import math
from itertools import accumulate, chain

from .errors import BadK, BadParameters, EmptyPoset, Infeasible, InvalidDelta
from .io import check_size
from .kfamily import DeltaSequence
from .poset import Poset, Realizer, Value, cover_relations, height


class PjLabels(Value):
    """Named elements and blocks of a constructed tower poset.

    u is the global minimum of Q_1; s[i-1] and r[i-1] are the two top
    elements of Q_i; T[i-1] holds the rest of Q_i (T_1 = {u}).
    """

    __slots__ = ("u", "s", "r", "T", "Q")


class FeasibilityVerdict(Value):
    """Whether (n, c, a) is feasible, and the conditions that failed."""

    __slots__ = ("feasible", "failed_conditions")

    def __init__(self, feasible, failed_conditions):
        if feasible != (not failed_conditions):
            raise ValueError("feasible iff no condition failed")
        super().__init__(feasible, failed_conditions)


def _union(parts):
    """The order of raw parts (up, names, realizer) with no relations
    between them, numbered in turn; once a part has names, an unnamed
    part's element is named by its union index, as Poset.name calls it."""
    up, names, ext1, ext2 = [], [], [], []
    for rows, part_names, realizer in parts:
        shift = len(up)
        up += [m << shift for m in rows]
        names += part_names or map(str, range(shift, len(up)))
        if realizer is not None:
            # Each part is appended in ext1 and prepended in ext2: the
            # parts stay incomparable while each keeps its own realizer.
            ext1 += [x + shift for x in realizer.ext1]
            ext2[:0] = [x + shift for x in realizer.ext2]
    if not any(part[1] for part in parts):
        names = None
    if any(part[2] is None for part in parts):
        return Poset(len(up), up, names)
    return Poset(len(up), up, names, Realizer(tuple(ext1), tuple(ext2)))


def disjoint_union(*parts):
    """Order with no relations between the posets, numbered in turn."""
    if None in parts:
        raise EmptyPoset("disjoint_union needs posets, not None")
    return _union([(q.up, q.names, q.realizer) for q in parts])


def _chain(t):
    """Raw part of a t-chain: its rows, no names and the trivial realizer."""
    ext = tuple(range(t))
    return [(1 << t) - (2 << x) for x in range(t)], None, Realizer(ext, ext)


def chain_poset(t, names=None):
    """A single chain of t elements, carrying the trivial realizer."""
    up, _, realizer = _chain(t)
    return Poset(t, up, names=names, realizer=realizer)


def antichain_poset(t, names=None):
    ext = tuple(range(t))
    return Poset(t, [0] * t, names=names, realizer=Realizer(ext, ext[::-1]))


def ranks(p):
    """Rank classes bottom-up, or None if the poset is not ranked.

    Ranked means: a function r with r(y) = r(x) + 1 on every cover x <. y,
    normalized to minimum 0 within each connected component of the cover
    graph.  Decided by BFS constraint propagation over covers.
    """
    adj = [[] for _ in range(p.n)]
    for x, y in cover_relations(p):
        adj[x].append((y, 1))
        adj[y].append((x, -1))
    rank = [None] * p.n
    for start in range(p.n):
        if rank[start] is not None:
            continue
        rank[start] = 0
        comp = [start]
        for x in comp:
            for y, step in adj[x]:
                if rank[y] is None:
                    rank[y] = rank[x] + step
                    comp.append(y)
                elif rank[y] != rank[x] + step:
                    return None
        low = min(rank[x] for x in comp)
        for x in comp:
            rank[x] -= low
    classes = [set() for _ in range(max(rank) + 1)]
    for x in range(p.n):
        classes[rank[x]].add(x)
    return classes


def _tower(j):
    """Raw part of P_j, (up, names, realizer), and its blocks Q_1..Q_j as
    ranges; P_0 and below are empty."""
    names, Q = [], []
    for i in range(1, j + 1):
        start = len(names)
        names += ["u"] if i == 1 else [f"t{i}.{m}" for m in range(1, i)]
        names += [f"s{i}", f"r{i}"]
        Q.append(range(start, len(names)))
    # Each element of Q_i but r_i is below the rest of Q_i, and s_i is
    # below s_{i+1}, so each is below every s_k and r_k with k > i.
    up, above = [0] * len(names), 0
    for q in reversed(Q):
        for x in q[:-1]:
            up[x] = (2 << q[-1]) - (2 << x) | above
        above |= 1 << q[-2] | 1 << q[-1]
    s, r = [q[-2] for q in Q], [q[-1] for q in Q]
    # The two linear extensions certifying dimension <= 2: the blocks
    # T_i s_i r_i in turn, then T_j .. T_1, every s_i and the r_i backwards.
    ext2 = [x for q in reversed(Q) for x in q[:-2]] + s + r[::-1]
    return (up, names, Realizer(tuple(range(len(names))), tuple(ext2))), Q


def _certify(p, shape, blocks):
    """p, checked to have shape (n, height, width): ascending blocks that
    partition p into chains number at least its width, and their tops,
    pairwise incomparable, are an antichain as large (Dilworth)."""
    up, tops = p.up, sum(1 << block[-1] for block in blocks)
    if not (
        (p.n, height(p), len(blocks)) == shape
        and sorted(chain.from_iterable(blocks)) == list(range(p.n))
        and all(up[x] >> y & 1 for b in blocks for x, y in zip(b, b[1:]))
        and not any(up[b[-1]] & tops for b in blocks)
    ):
        raise AssertionError(f"the blocks do not certify (n, c, a) = {shape}")
    return p


def build_pj(j):
    """The j-th tower poset with labels: width j, height j+2, n=C(j+2,2)."""
    if j < 1:
        raise BadParameters("j must be positive")
    check_size(math.comb(j + 2, 2))
    part, Q = _tower(j)
    p = _certify(_union([part]), (math.comb(j + 2, 2), j + 2, j), Q)
    s, r = tuple(q[-2] for q in Q), tuple(q[-1] for q in Q)
    T = tuple(frozenset(q[:-2]) for q in Q)
    return p, PjLabels(0, s, r, T, tuple(map(frozenset, Q)))


def ck_partition(j, k):
    """The partition {u,s_1..s_k,r_k} plus the leftovers of each Q_i.

    Blocks Q_i untouched for i > k are included, reading the construction
    as a partition of the whole poset.  Both k- and k+1-saturated.
    """
    # Imported here, so the construct commands do not load the searches.
    from .saturation import Chain, ChainPartition, is_k_saturated

    p, labels = build_pj(j)
    if not 1 <= k <= j:
        raise BadK(f"need 1 <= k <= {j}")
    spine = {labels.u} | set(labels.s[:k]) | {labels.r[k - 1]}
    chains = [Chain(tuple(sorted(spine)))]
    chains += [Chain(tuple(sorted(q - spine))) for q in labels.Q if q - spine]
    cp = ChainPartition(p, tuple(chains))
    if not (is_k_saturated(p, cp, k) and is_k_saturated(p, cp, k + 1)):
        raise AssertionError(f"C_{k} of P_{j} is not {k}/{k + 1}-saturated")
    return cp


def lower_bounds(c):
    """Elementwise minimum of an admissible sequence: (c-2, c-2, ..., 1, 1)."""
    if c < 3:
        raise BadParameters("need c >= 3")
    return DeltaSequence((c - 2, *range(c - 2, 0, -1), 1))


def upper_bounds(c, a):
    """Elementwise maximum with first entry a: (a, a, a-1, ..., a-c+3, a-c+3)."""
    if c < 3:
        raise BadParameters("need c >= 3")
    if a < c - 2:
        raise BadParameters("need a >= c - 2")
    return DeltaSequence((a, *range(a, a - c + 2, -1), a - c + 3))


def _conjugate_partition(b):
    """Column counts of the Ferrers diagram of b."""
    return [sum(1 for x in b if x >= m) for m in range(1, b[0] + 1)]


def from_delta(b):
    """A polyunsaturated dimension-<=2 poset with the given delta sequence.

    While b is above its lower bounds, peel a chain of t elements, where
    t is the last position still above its lower bound; the result is
    the tower poset of the lower bounds joined with the peeled chains,
    the last peeled first, their elements named by index.  Heights below
    3 are unnamed disjoint chains sized by the conjugate partition.
    """
    b = (b if isinstance(b, DeltaSequence) else DeltaSequence(tuple(b))).b
    for i in range(1, len(b) - 2):
        if b[i] <= b[i + 1]:
            raise InvalidDelta(
                f"interior entries must strictly decrease: b_{i + 1}={b[i]}"
                f" vs b_{i + 2}={b[i + 1]}"
            )
    check_size(sum(b))
    c = len(b)
    if c < 3:
        chains = _conjugate_partition(b)
    else:
        # A peel of t lowers the first t entries of the nonincreasing excess
        # over the lower bounds: the chains are its conjugate partition.
        excess = [x - y for x, y in zip(b, lower_bounds(c).b)]
        chains = _conjugate_partition(excess)[::-1]
    part, Q = _tower(c - 2)
    starts = list(accumulate(chains, initial=len(part[0])))
    blocks = [*Q, *map(range, starts, starts[1:])]
    p = _union([part, *map(_chain, chains)])
    return _certify(p, (sum(b), c, b[0]), blocks)


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
    return FeasibilityVerdict(not failed, tuple(failed))


def feasible_dual_nac(n, a, c):
    """Coloring-side existence test; the role swap of feasible_nca."""
    if a < 3:
        raise BadParameters("need a >= 3")
    return feasible_nca(n, c=a, a=c)


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
        add = min(ub[i] - b[i], deficit)
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
    """Existence with prescribed cardinality and height only: a chain of
    c elements, and for c >= 3 the binom(c, 2) of the smallest tower."""
    if c < 1 or n < 1:
        raise BadParameters("n and c must be positive")
    return n >= max(c, math.comb(c, 2))


def realize_nca(n, c, a):
    """sequence_for followed by from_delta, which certifies the sequence's
    sum, length and first entry as its output's n, height and width."""
    check_size(n)
    b = sequence_for(n, c, a)
    p = from_delta(b)
    if (p.n, b.c, b.b[0]) != (n, c, a):
        raise AssertionError(f"realization misses (n={n}, c={c}, a={a})")
    return p
