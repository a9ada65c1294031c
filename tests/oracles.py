"""Slow independent oracles, used only to cross-check the library.

dk_branch_and_bound searches height-<=k subsets (a k-family is a union of
k antichains; by Mirsky's dual of Dilworth, a set is a k-family exactly
when its induced height is at most k).  dk_oracle maximizes over unions of
maximal antichains directly.  width_bruteforce, enumerate_chain_partitions
and is_comparability check width, the minimum-norm searches and the
conjugate's graph by exhaustive enumeration.  dp_minimize is the
single-objective subset DP, and is_polyunsaturated_per_pair runs it once
per pair, as certify did before it searched by orthogonality.
"""

import itertools

from polysat.errors import BadK, SizeLimitExceeded
from polysat.poset import Chain, bits, height, popcount
from polysat.kfamily import d_sequence
from polysat.saturation import (
    DEFAULT_LIMIT_N,
    ChainPartition,
    NoJointPartition,
    PolyunsatReport,
    Witness,
)

ORACLE_LIMIT = 10
ORIENT_LIMIT = 8


def _greedy_chain_cover(p):
    """Partition into few chains by repeatedly peeling a longest chain."""
    uncovered = (1 << p.n) - 1
    chains = []
    while uncovered:
        best_len = [0] * p.n
        prev = [-1] * p.n
        top = -1
        for y in bits(uncovered):
            ln = 1
            pr = -1
            for x in bits(p.down[y] & uncovered):
                if best_len[x] + 1 > ln:
                    ln = best_len[x] + 1
                    pr = x
            best_len[y] = ln
            prev[y] = pr
            if top < 0 or ln > best_len[top]:
                top = y
        chain = []
        x = top
        while x >= 0:
            chain.append(x)
            x = prev[x]
        chain.reverse()
        chains.append(chain)
        for x in chain:
            uncovered &= ~(1 << x)
    return chains


def _greedy_kfamily(p, k):
    """Feasible incumbent: take elements in index order while height <= k."""
    lens = [0] * p.n
    mask = 0
    count = 0
    for y in range(p.n):
        ln = 1
        for x in bits(p.down[y] & mask):
            if lens[x] + 1 > ln:
                ln = lens[x] + 1
        if ln <= k:
            lens[y] = ln
            mask |= 1 << y
            count += 1
    return count


def dk_branch_and_bound(p, k):
    """Size of a largest k-family, by branch-and-bound.

    Prunes with the chain-cover bound: a height-<=k set meets any chain in
    at most k elements.
    """
    if k < 1:
        raise BadK("k must be positive")
    n = p.n
    if k >= height(p):
        return n
    chains = _greedy_chain_cover(p)
    chain_of = [0] * n
    for ci, chain in enumerate(chains):
        for x in chain:
            chain_of[x] = ci
    rem = [len(c) for c in chains]
    kept_in = [0] * len(chains)
    lens = [0] * n
    best = _greedy_kfamily(p, k)
    kept_mask = 0

    def rec(i, kept):
        nonlocal best, kept_mask
        bound = kept
        for ci, r in enumerate(rem):
            cap = k - kept_in[ci]
            if cap > 0:
                bound += r if r < cap else cap
        if bound <= best:
            return
        if i == n:
            best = kept
            return
        ci = chain_of[i]
        rem[ci] -= 1
        ln = 1
        for x in bits(p.down[i] & kept_mask):
            if lens[x] + 1 > ln:
                ln = lens[x] + 1
        if ln <= k:
            lens[i] = ln
            kept_mask |= 1 << i
            kept_in[ci] += 1
            rec(i + 1, kept + 1)
            kept_in[ci] -= 1
            kept_mask &= ~(1 << i)
        rec(i + 1, kept)
        rem[ci] += 1

    rec(0, 0)
    return best


def dk_oracle(p, k):
    """Best union of k antichains directly.

    Runs a reachable-union DP over maximal antichains; every antichain
    union is dominated by a union of maximal ones.
    """
    if p.n > ORACLE_LIMIT:
        raise SizeLimitExceeded(f"oracle limited to n<={ORACLE_LIMIT}")
    if k < 1:
        raise BadK("k must be positive")
    antichains = []
    full = (1 << p.n) - 1
    for mask in range(1, full + 1):
        if any(p.up[x] & mask for x in bits(mask)):
            continue
        antichains.append(mask)
    maximal = [
        a
        for a in antichains
        if not any(b != a and b & a == a for b in antichains)
    ]
    frontier = {0}
    for _ in range(k):
        unions = {u | a for u in frontier for a in maximal}
        frontier = {
            u for u in unions if not any(v != u and v | u == v for v in unions)
        }
    return max(popcount(u) for u in frontier)


def width_bruteforce(p, limit=20):
    """Independent check: maximum antichain by subset enumeration."""
    if p.n > limit:
        raise SizeLimitExceeded(f"brute-force width limited to n<={limit}")
    best = 0
    for mask in range(1, 1 << p.n):
        if popcount(mask) <= best:
            continue
        if all(not (p.up[x] & mask) for x in bits(mask)):
            best = popcount(mask)
    return best


def enumerate_chain_partitions(p, limit_n=DEFAULT_LIMIT_N):
    """Every chain partition exactly once, deterministically.

    Branches on the lowest-index uncovered element; its chain extends only
    upward in index, which is sound under topological indexing.
    """
    if p.n > limit_n:
        raise SizeLimitExceeded(
            f"partition enumeration limited to n<={limit_n}"
        )
    chains = []

    def rec(uncovered):
        if not uncovered:
            yield ChainPartition(p, tuple(Chain(tuple(c)) for c in chains))
            return
        i = (uncovered & -uncovered).bit_length() - 1
        rest = uncovered & ~(1 << i)
        chain = [i]
        chains.append(chain)
        yield from _extend(chain, i, rest)
        chains.pop()

    def _extend(chain, top, rest):
        yield from rec(rest)
        for j in bits(p.up[top] & rest):
            chain.append(j)
            yield from _extend(chain, j, rest & ~(1 << j))
            chain.pop()

    yield from rec((1 << p.n) - 1)


def is_comparability(g):
    """Brute-force transitive-orientation search; test helper only."""
    if g.n > ORIENT_LIMIT:
        raise SizeLimitExceeded(
            f"orientation search limited to n<={ORIENT_LIMIT}"
        )
    edges = [
        (x, y) for x in range(g.n) for y in bits(g.adj[x]) if x < y
    ]
    if not edges:
        return True
    for choice in itertools.product((0, 1), repeat=len(edges)):
        lt = [[False] * g.n for _ in range(g.n)]
        for (x, y), flip in zip(edges, choice):
            if flip:
                x, y = y, x
            lt[x][y] = True
        ok = True
        for x in range(g.n):
            for y in range(g.n):
                if not lt[x][y]:
                    continue
                for z in range(g.n):
                    if lt[y][z] and not lt[x][z]:
                        ok = False
        if ok:
            return True
    return False


class _DPSearch:
    """Exact minimizer of sum_{k in ks} m_k over all chain partitions.

    Branches on the chain through the lowest uncovered element, smaller
    successors first, and memoises the minimum per uncovered mask.  walks
    caches the chains of each mask; DPs on one poset may share it.
    """

    def __init__(self, p, ks, walks):
        self.p = p
        self.contrib = [sum(min(k, s) for k in ks) for s in range(p.n + 1)]
        self.memo = {0: 0}
        self.walks = walks

    def chains(self, mask):
        out = self.walks.get(mask)
        if out is not None:
            return out
        up = self.p.up
        i = (mask & -mask).bit_length() - 1
        out = self.walks[mask] = []
        stack = [(i, mask & ~(1 << i), 1)]
        while stack:
            top, rest, size = stack.pop()
            out.append((size, rest))
            succ = up[top] & rest
            while succ:
                j = succ.bit_length() - 1
                succ &= ~(1 << j)
                stack.append((j, rest & ~(1 << j), size + 1))
        return out

    def minimum(self, mask):
        value = self.memo.get(mask)
        if value is None:
            value = min(
                self.contrib[size] + self.minimum(rest)
                for size, rest in self.chains(mask)
            )
            self.memo[mask] = value
        return value

    def witness(self, mask):
        chains = []
        while mask:
            target = self.minimum(mask)
            rest = next(
                rest
                for size, rest in self.chains(mask)
                if self.contrib[size] + self.minimum(rest) == target
            )
            chains.append(Chain(tuple(bits(mask & ~rest))))
            mask = rest
        return ChainPartition(self.p, tuple(chains))


def dp_minimize(p, ks, walks=None):
    """(minimum of sum_{k in ks} m_k, the first minimizing partition in
    walk order), by one subset DP."""
    search = _DPSearch(p, ks, {} if walks is None else walks)
    full = (1 << p.n) - 1
    return search.minimum(full), search.witness(full)


def find_saturated_dp(p, ks):
    """A partition saturated for every k in ks, or None, by the DP."""
    ks = sorted(set(ks))
    value, partition = dp_minimize(p, ks)
    d = d_sequence(p)
    return partition if value == sum(d.at(k) for k in ks) else None


def is_polyunsaturated_per_pair(p):
    """The polyunsaturation report from one subset DP per pair."""
    d = d_sequence(p).d
    verdicts = {}
    walks = {}
    for k in range(1, len(d) - 2):
        for l in range(k + 2, len(d)):
            value, partition = dp_minimize(p, (k, l), walks)
            if value == d[k - 1] + d[l - 1]:
                verdicts[(k, l)] = Witness(partition)
            else:
                verdicts[(k, l)] = NoJointPartition(value)
    conclusion = all(
        isinstance(v, NoJointPartition) for v in verdicts.values()
    )
    return PolyunsatReport(d=d, pair_verdicts=verdicts, conclusion=conclusion)
