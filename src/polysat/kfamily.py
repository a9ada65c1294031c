"""Exact maximum k-family sizes and difference sequences, by min-cost flow.

A k-family is a union of k antichains.  Greene-Kleitman duality ties its
largest size d_k to e_f, the largest union of f disjoint chains:
d_k = n - max_f (e_f - k f).  One successive-shortest-path min-cost flow
on the split DAG yields every e_f, so the whole d sequence costs one flow
run, polynomial in n.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import BadK, InvalidDelta, NotRanked
from .poset import bits, chain_lengths, ranks


@dataclass(frozen=True)
class DSequence:
    """Cumulative sequence d_1..d_c; strictly increasing and concave."""

    d: tuple

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.d, self.d[1:])):
            raise ValueError("d sequence must be strictly increasing")
        deltas = [b - a for a, b in zip((0,) + self.d, self.d)]
        if any(a < b for a, b in zip(deltas, deltas[1:])):
            raise ValueError("d sequence must be concave")

    def at(self, k):
        """d_k for any k >= 1; d_k = d_c = n for k at or above the height."""
        return self.d[min(k, len(self.d)) - 1]

    def delta(self):
        return DeltaSequence(
            tuple(b - a for a, b in zip((0,) + self.d, self.d))
        )


@dataclass(frozen=True)
class DeltaSequence:
    """Difference sequence with the convention delta b_1 = b_1."""

    b: tuple

    def __post_init__(self):
        if not self.b or any(x < 1 for x in self.b):
            raise InvalidDelta("entries must be positive")
        if any(a > b for a, b in zip(self.b[1:], self.b[:-1])):
            raise InvalidDelta("sequence must be nonincreasing")

    @property
    def c(self):
        return len(self.b)


def chain_unions(p):
    """(e_0, e_1, ..., e_w): e_f is the size of a largest union of f
    disjoint chains, up to the width w, where e_w = n.

    Successive shortest paths on the split DAG: element x becomes an arc
    x_in -> x_out of capacity 1 and cost -1; s -> x_in, x_out -> t and
    x_out -> y_in for every x < y cost 0.  The relation is transitively
    closed, so no pass-through arcs are needed.  The f-th augmenting path
    costs -(e_f - e_{f-1}).  The residual arcs are read off the chains
    found so far and the relation rows, so memory stays O(n).  Arcs into
    s and out of t are left out: no shortest s-t path uses them.

    At each f with e_f - e_{f-1} > max(e_{f+1} - e_f, 1), the f chains of
    the flow, a largest union of f chains, are kept in p.derived["chains"]
    for max_kfamily; there are at most sqrt(2n) such f.
    """
    n = p.n
    src, snk = 2 * n, 2 * n + 1
    # Node 2x is x_in and 2x+1 is x_out.  prv[x] is the element before x
    # on its chain, or src; nxt[x] the element after it, or snk; both are
    # None while x is on no chain.
    prv = [None] * n
    nxt = [None] * n

    def arcs(u):
        if u == src:
            return [(2 * x, 0) for x in range(n) if prv[x] != src]
        x = u >> 1
        if not u & 1:
            if prv[x] is None:
                return [(u + 1, -1)]
            return [] if prv[x] == src else [(2 * prv[x] + 1, 0)]
        out = [] if prv[x] is None else [(u - 1, 1)]
        out += [(2 * y, 0) for y in bits(p.up[x]) if y != nxt[x]]
        if nxt[x] != snk:
            out.append((snk, 0))
        return out

    def chain(x):
        out = [x]
        while nxt[out[-1]] != snk:
            out.append(nxt[out[-1]])
        return tuple(out)

    # Initial potentials: shortest distances from s, found in one pass in
    # topological order, since the network is a DAG with negative costs.
    # With h[x] the longest chain ending at x, x_in lies at 1 - h[x],
    # x_out at -h[x] and t at minus the height.
    h = chain_lengths(p)
    pot = [v for x in range(n) for v in (1 - h[x], -h[x])] + [0, -max(h)]
    e = [0]
    kept = p.derived["chains"] = {}
    while True:
        dist = {src: 0}
        via = {}
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] or u == snk:
                continue
            for v, cost in arcs(u):
                dv = d + cost + pot[u] - pot[v]
                if v not in dist or dv < dist[v]:
                    dist[v] = dv
                    via[v] = u
                    heapq.heappush(heap, (dv, v))
        for v, dv in dist.items():
            pot[v] += dv
        step = 0 if snk not in dist or pot[snk] >= 0 else -pot[snk]
        f = len(e) - 1
        if f and e[f] - e[f - 1] > max(step, 1):
            kept[f] = tuple(chain(x) for x in range(n) if prv[x] == src)
        if not step:
            return tuple(e)
        e.append(e[-1] + step)
        # Walk the path back from t.  prv[x] is set by the arc entering
        # x_in and nxt[x] by the arc leaving x_out; an arc x_out -> x_in
        # takes x off its chain, and arcs leaving an in-node set nothing.
        v = snk
        while v != src:
            u = via[v]
            if u == src:
                prv[v >> 1] = src
            elif v == snk:
                nxt[u >> 1] = snk
            elif u & 1 and not v & 1:
                x, y = u >> 1, v >> 1
                if x == y:
                    prv[x] = nxt[x] = None
                else:
                    nxt[x], prv[y] = y, x
            v = u


def d_sequence(p):
    """d_k = n - max_f (e_f - k f) for k = 1..height, from one flow run.

    Greene-Kleitman duality (Greene 1976, JCTA 20:69; Frank 1980, JCTB
    29:176); the height is e_1.  The flow runs once per Poset instance;
    later calls read the sequence it kept in p.derived.
    """
    seq = p.derived.get("d")
    if seq is None:
        e = chain_unions(p)
        seq = p.derived["d"] = DSequence(
            tuple(
                p.n - max(ef - k * f for f, ef in enumerate(e))
                for k in range(1, e[1] + 1)
            )
        )
    return seq


def max_kfamily(p, k):
    """A largest k-family of p, as a mask; all of p at or above the height.

    Read off the dual of the flow (Frank 1980).  f = d_{k+1} - d_k is the
    number of augmenting paths that gain more than k (Greene's theorem:
    the two difference sequences are conjugate partitions), so f chains
    are a cheapest flow when each chain costs k, and the flow kept a
    largest union of f chains.  Let pi be shortest distances from
    s in its residual network, every arc but x_in -> x_out uncapacitated,
    with s -> x_in costing k and the return arc t -> s carrying the flow.
    A_k is the set of x whose arc x_in -> x_out has nonnegative reduced
    cost, pi(x_out) <= pi(x_in) - 1.  Along any chain pi starts at most k
    at its lowest x_in, never rises, drops at each element of A_k and
    ends at least pi(t) = 0, so A_k meets it in at most k elements;
    complementary slackness gives |A_k| = d_k.  Both facts are checked,
    and a failure raises AssertionError.
    """
    if k < 1:
        raise BadK("k must be positive")
    seq = d_sequence(p)
    n = p.n
    if k >= len(seq.d):
        return (1 << n) - 1
    chains = p.derived["chains"][seq.d[k] - seq.d[k - 1]]
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
    _check_kfamily(p, k, family, seq.d[k - 1])
    return family


def _check_kfamily(p, k, family, size):
    """Raise unless family has size elements and no chain of k + 1."""
    if family.bit_count() != size:
        raise AssertionError("k-family from the flow has the wrong size")
    longest = [0] * p.n
    for y in bits(family):
        longest[y] = 1 + max(
            (longest[x] for x in bits(p.down[y] & family)), default=0
        )
        if longest[y] > k:
            raise AssertionError("k-family from the flow has a long chain")


def dk(p, k):
    """Size of a largest k-family; n for every k at or above the height."""
    if k < 1:
        raise BadK("k must be positive")
    return d_sequence(p).at(k)


def delta_sequence(p):
    return d_sequence(p).delta()


def is_strong_sperner(p):
    """True iff the k largest ranks form a maximum k-family for every k."""
    classes = ranks(p)
    if classes is None:
        raise NotRanked("poset has no consistent rank function")
    sizes = sorted((len(c) for c in classes), reverse=True)
    seq = d_sequence(p)
    acc = 0
    for k, size in enumerate(sizes, start=1):
        acc += size
        if acc != seq.at(k):
            return False
    return True
