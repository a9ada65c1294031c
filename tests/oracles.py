"""Slow independent oracles, used only to cross-check the library.

dk_branch_and_bound searches height-<=k subsets (a k-family is a union of
k antichains; by Mirsky's dual of Dilworth, a set is a k-family exactly
when its induced height is at most k).  dk_oracle maximizes over unions of
maximal antichains directly.  width_bruteforce, enumerate_chain_partitions
and is_comparability check width, the minimum-norm searches and the
conjugate's graph by exhaustive enumeration.  Graph, with
comparability_graph and complement, is the graph side of a poset, and
alpha_k and omega_k compute its k-independence and k-clique numbers from
its maximal independent sets, by Bron-Kerbosch.  dp_minimize is the
single-objective subset DP, the reference for the values and partitions
of min_norm and min_joint_norm, and is_polyunsaturated_per_pair runs it
once per pair, as certify did before it searched by orthogonality.
isomorphic decides order isomorphism by invariant refinement and
backtracking, and least_labelling_bruteforce finds a poset's least
natural labelling over every permutation of its elements.
down_rows_pairs, cover_relations_pairs and chain_lengths_pairs are the
walks over every comparable pair that Poset's check, cover_relations and
chain_lengths made before they walked covers only.
verify_realizer_pairs and conjugate_pairs are verify_realizer and
conjugate as they were before they read the order of a realizer off
suffix masks: they compare the two permutations' positions pair by pair.
max_kfamily_from_chains is max_kfamily on the network it built for itself
from the flow's chains, before kfamily._residual gave the flow and the
dual one network.
build_pj_covers and from_delta_unions are build_pj and from_delta as they
were before each built one Poset: the tower closed from its covers and
checked by a matching, and the tower joined with one chain Poset per
peeled chain by a fold of validated unions.
"""

import functools
import itertools
import math
from collections import deque

from polysat.construct import PjLabels, lower_bounds
from polysat.errors import (
    BadK,
    BadParameters,
    InvalidDelta,
    InvalidRealizer,
    SizeLimitExceeded,
)
from polysat.io import check_size
from polysat.kfamily import DeltaSequence
from polysat.poset import Poset, Realizer, Value, _set, bits, height, width
from polysat.kfamily import d_sequence
from polysat.saturation import (
    DEFAULT_LIMIT_N,
    Chain,
    ChainPartition,
    NoJointPartition,
    PolyunsatReport,
    Witness,
)

ORACLE_LIMIT = 10
ISO_LIMIT = 10
ORIENT_LIMIT = 8
ALPHA_LIMIT = 16


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
    return max(u.bit_count() for u in frontier)


def width_bruteforce(p, limit=20):
    """Independent check: maximum antichain by subset enumeration."""
    if p.n > limit:
        raise SizeLimitExceeded(f"brute-force width limited to n<={limit}")
    best = 0
    for mask in range(1, 1 << p.n):
        if mask.bit_count() <= best:
            continue
        if all(not (p.up[x] & mask) for x in bits(mask)):
            best = mask.bit_count()
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


class Graph(Value):
    """Simple undirected graph as symmetric adjacency bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n, adj):
        for x in range(n):
            if adj[x] >> x & 1:
                raise ValueError("no loops allowed")
            for y in bits(adj[x]):
                if not adj[y] >> x & 1:
                    raise ValueError("adjacency must be symmetric")
        _set(self, "n", n)
        _set(self, "adj", adj)

    def has_edge(self, x, y):
        return bool(self.adj[x] >> y & 1)

    def edge_count(self):
        return sum(row.bit_count() for row in self.adj) // 2


def comparability_graph(p):
    return Graph(p.n, tuple(p.up[x] | p.down[x] for x in range(p.n)))


def complement(g):
    full = (1 << g.n) - 1
    return Graph(
        g.n, tuple(~(g.adj[x] | 1 << x) & full for x in range(g.n))
    )


def _maximal_independent_sets(g):
    """Bron-Kerbosch over the complement (cliques there = our MIS)."""
    comp = complement(g)
    out = []

    def bk(r, p_mask, x_mask):
        if p_mask == 0 and x_mask == 0:
            out.append(r)
            return
        pivot_pool = p_mask | x_mask
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        for v in bits(p_mask & ~comp.adj[pivot]):
            bk(r | 1 << v, p_mask & comp.adj[v], x_mask & comp.adj[v])
            p_mask &= ~(1 << v)
            x_mask |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    return out


def alpha_k(g, k):
    """Maximum vertices in a union of k independent sets, exactly."""
    if k < 1:
        raise BadK("k must be positive")
    if g.n > ALPHA_LIMIT:
        raise SizeLimitExceeded(f"alpha_k limited to n<={ALPHA_LIMIT}")
    mis = _maximal_independent_sets(g)
    frontier = {0}
    for _ in range(k):
        unions = {u | a for u in frontier for a in mis}
        frontier = {
            u for u in unions if not any(v != u and v | u == v for v in unions)
        }
        if (1 << g.n) - 1 in frontier:
            return g.n
    return max(u.bit_count() for u in frontier)


def omega_k(g, k):
    """Maximum vertices in a union of k cliques, exactly."""
    return alpha_k(complement(g), k)


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


def _invariants(p, rounds=3):
    """Per-element structural invariants, comparable across posets.

    Nested tuples built by a fixed number of refinement rounds; label
    independent, so equal values may merge distinct orbits (the search
    below stays correct, just with larger blocks).
    """
    inv = [(p.down[x].bit_count(), p.up[x].bit_count()) for x in range(p.n)]
    for _ in range(rounds):
        inv = [
            (
                inv[x],
                tuple(sorted(inv[y] for y in bits(p.down[x]))),
                tuple(sorted(inv[y] for y in bits(p.up[x]))),
            )
            for x in range(p.n)
        ]
    return inv


def isomorphic(p, q, limit=ISO_LIMIT):
    """Order-isomorphism test by invariant refinement plus backtracking."""
    if p.n > limit or q.n > limit:
        raise SizeLimitExceeded(f"isomorphism limited to n<={limit}")
    if p.n != q.n:
        return False
    inv_p = _invariants(p)
    inv_q = _invariants(q)
    if sorted(inv_p) != sorted(inv_q):
        return False
    n = p.n
    image = [-1] * n
    used = 0

    def assign(x):
        nonlocal used
        if x == n:
            return True
        for y in range(n):
            if used >> y & 1 or inv_p[x] != inv_q[y]:
                continue
            ok = True
            for z in range(x):
                if p.less(z, x) != q.less(image[z], y) or p.less(
                    x, z
                ) != q.less(y, image[z]):
                    ok = False
                    break
            if ok:
                image[x] = y
                used |= 1 << y
                if assign(x + 1):
                    return True
                used &= ~(1 << y)
        return False

    return assign(0)


def least_labelling_bruteforce(p, limit=7):
    """The lexicographically least tuple of down-rows over every natural
    labelling of p, by trying all n! labellings."""
    if p.n > limit:
        raise SizeLimitExceeded(f"brute-force labelling limited to n<={limit}")
    best = None
    for label in itertools.permutations(range(p.n)):
        if any(
            label[x] > label[y] for y in range(p.n) for x in bits(p.down[y])
        ):
            continue
        rows = [0] * p.n
        for y in range(p.n):
            rows[label[y]] = sum(1 << label[x] for x in bits(p.down[y]))
        if best is None or tuple(rows) < best:
            best = tuple(rows)
    return best


def down_rows_pairs(n, up):
    """The down rows of up, checking each pair x < y for up[y] <= up[x];
    raises ValueError when the rows are not transitive."""
    down = [0] * n
    for x in range(n):
        row = up[x]
        for y in bits(row):
            if up[y] & ~row:
                raise ValueError("relation is not transitive")
            down[y] |= 1 << x
    return tuple(down)


def cover_relations_pairs(p):
    """The pairs x < y with nothing between them, by testing every pair."""
    out = []
    for x in range(p.n):
        for y in bits(p.up[x]):
            if not (p.up[x] & p.down[y]):
                out.append((x, y))
    return out


def chain_lengths_pairs(p):
    """Longest chain ending at each element, over every element below it."""
    h = [1] * p.n
    for y in range(p.n):
        for x in bits(p.down[y]):
            if h[x] + 1 > h[y]:
                h[y] = h[x] + 1
    return h


def verify_realizer_pairs(p, r):
    """verify_realizer by positions, testing every pair x < y."""
    if sorted(r.ext1) != list(range(p.n)) or sorted(r.ext2) != list(
        range(p.n)
    ):
        return False
    pos1 = [0] * p.n
    pos2 = [0] * p.n
    for i, x in enumerate(r.ext1):
        pos1[x] = i
    for i, x in enumerate(r.ext2):
        pos2[x] = i
    for x in range(p.n):
        for y in range(x + 1, p.n):
            both = pos1[x] < pos1[y] and pos2[x] < pos2[y]
            if p.less(x, y):
                if not both:
                    return False
            elif both or (pos1[x] > pos1[y] and pos2[x] > pos2[y]):
                return False
    return True


def conjugate_pairs(p):
    """conjugate with each row built over every later element."""
    r = p.realizer
    if r is None or not verify_realizer_pairs(p, r):
        raise InvalidRealizer("need a verified 2-realizer")
    n = p.n
    pos2 = [0] * n
    for i, x in enumerate(r.ext2):
        pos2[x] = i
    # New index = position in ext1; relation holds iff ext2 positions drop.
    order = list(r.ext1)
    up = []
    for i, x in enumerate(order):
        row = 0
        for jj in range(i + 1, n):
            if pos2[order[jj]] < pos2[x]:
                row |= 1 << jj
        up.append(row)
    names = [p.name(x) for x in order] if p.names is not None else None
    newidx = [0] * n
    for i, x in enumerate(order):
        newidx[x] = i
    rev2 = tuple(newidx[x] for x in reversed(r.ext2))
    q = Poset(
        n, up, names=names, realizer=Realizer(tuple(range(n)), rev2)
    )
    # Row by row, q's comparabilities are p's non-comparabilities.
    full = (1 << n) - 1
    for x in range(n):
        i = newidx[x]
        mapped = 0
        for y in bits(p.up[x] | p.down[x]):
            mapped |= 1 << newidx[y]
        if q.up[i] | q.down[i] != full & ~mapped & ~(1 << i):
            raise AssertionError("conjugate's graph is not the complement")
    return q


def max_kfamily_from_chains(p, k):
    """A largest k-family as a mask, by shortest distances on a network of
    its own, read off the chain tuples of the flow that d_sequence kept:
    every arc but x_in -> x_out uncapacitated, s -> x_in costing k and the
    return arc t -> s carrying the flow."""
    seq = d_sequence(p)
    n = p.n
    if k >= len(seq.d):
        return (1 << n) - 1
    starts, nxt = p.derived["flows"][seq.d[k] - seq.d[k - 1]]
    chains = []
    for x in range(n):
        if starts[x] == 2 * n:
            chain = [x]
            while nxt[chain[-1]] != 2 * n + 1:
                chain.append(nxt[chain[-1]])
            chains.append(tuple(chain))
    # Node 2x is x_in, 2x+1 is x_out and 2n is t.  s is not a node: it
    # starts every x_in at k and t at 0.  No distance exceeds k, so k + 1
    # marks a node not yet reached.  prv[y] is the element before y on its
    # chain; ends are the chains' top elements.
    covered = 0
    prv = [None] * n
    for chain in chains:
        for x, y in zip(chain, chain[1:]):
            prv[y] = x
        for x in chain:
            covered |= 1 << x
    ends = [chain[-1] for chain in chains]
    snk = 2 * n
    dist = [k, k + 1] * n + [0]
    queue = deque(range(0, 2 * n, 2))
    queue.append(snk)
    queued = [True, False] * n + [True]
    while queue:
        u = queue.popleft()
        queued[u] = False
        x = u >> 1
        if u == snk:
            arcs = [(2 * y + 1, 0) for y in ends]
        elif not u & 1:
            if not covered >> x & 1:
                arcs = [(u + 1, -1)]
            else:
                arcs = [] if prv[x] is None else [(2 * prv[x] + 1, 0)]
        else:
            arcs = [(2 * y, 0) for y in bits(p.up[x])]
            arcs.append((snk, 0))
            if covered >> x & 1:
                arcs.append((u - 1, 1))
        for v, cost in arcs:
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    family = 0
    for x in range(n):
        if dist[2 * x + 1] <= dist[2 * x] - 1:
            family |= 1 << x
    return family


def build_pj_covers(j):
    """build_pj closing the tower's cover list and checking its height and
    width, the latter by bipartite matching."""
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
    # The two linear extensions certifying dimension <= 2: the blocks
    # T_i s_i r_i in turn, then T_j .. T_1, every s_i and the r_i backwards.
    ext2 = [x for block in reversed(t_raw) for x in block]
    ext2 += s_raw + r_raw[::-1]
    realizer = Realizer(tuple(range(len(names))), tuple(ext2))
    # Every cover goes up in index, so the rows close top down.
    up = [0] * len(names)
    for a, b in sorted(covers, reverse=True):
        up[a] |= 1 << b | up[b]
    p = Poset(len(names), up, names=names, realizer=realizer)
    T = tuple(map(frozenset, t_raw))
    Q = tuple(map(frozenset, q_blocks))
    labels = PjLabels(u=0, s=tuple(s_raw), r=tuple(r_raw), T=T, Q=Q)
    if p.n != math.comb(j + 2, 2) or (height(p), width(p)) != (j + 2, j):
        raise AssertionError(f"P_{j} has the wrong size, height or width")
    return p, labels


def _union_of_two(p, q):
    """p and q with no relations between them, q numbered after p.  Once
    either has names, an unnamed side's elements are named by their index
    in the union; the realizer puts q after p in ext1 and before it in
    ext2, so the two stay incomparable."""
    up = list(p.up) + [m << p.n for m in q.up]
    names = None
    if p.names is not None or q.names is not None:
        names = list(p.names or map(str, range(p.n)))
        names += q.names or map(str, range(p.n, p.n + q.n))
    realizer = None
    if p.realizer is not None and q.realizer is not None:
        realizer = Realizer(
            p.realizer.ext1 + tuple(x + p.n for x in q.realizer.ext1),
            tuple(x + p.n for x in q.realizer.ext2) + p.realizer.ext2,
        )
    return Poset(p.n + q.n, up, names=names, realizer=realizer)


def _disjoint_union_posets(*parts):
    """Order with no relations between the parts, numbered in turn: a fold
    of binary unions."""
    return functools.reduce(_union_of_two, parts)


def _chain_poset(t, names=None):
    """A single chain of t elements, carrying the trivial realizer."""
    up = [(((1 << t) - 1) >> (x + 1)) << (x + 1) for x in range(t)]
    ext = tuple(range(t))
    return Poset(t, up, names=names, realizer=Realizer(ext, ext))


def _conjugate_partition(b):
    """Column counts of the Ferrers diagram of b."""
    return [sum(1 for x in b if x >= m) for m in range(1, b[0] + 1)]


def from_delta_unions(b):
    """from_delta peeling one chain at a time and joining the tower and one
    validated chain Poset per peeled chain by a union of Posets."""
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
        parts, chains = [], _conjugate_partition(b)
    else:
        lower = lower_bounds(c).b
        chains = []
        while sum(b) > math.comb(c, 2):
            t = max(i for i in range(c) if b[i] > lower[i]) + 1
            b = tuple(x - 1 if i < t else x for i, x in enumerate(b))
            chains.insert(0, t)
        parts = [build_pj_covers(c - 2)[0]]
    return _disjoint_union_posets(*parts, *map(_chain_poset, chains))
