"""Exact maximum k-family sizes and difference sequences, by min-cost flow.

A k-family is a union of k antichains.  Greene-Kleitman duality ties its
largest size d_k to e_f, the largest union of f disjoint chains:
d_k = n - max_f (e_f - k f).  One successive-shortest-path min-cost flow
on the split DAG yields every e_f, so the whole d sequence costs one flow
run, polynomial in n.
"""

from __future__ import annotations

import heapq
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

    # Initial potentials: shortest distances from s, found in one pass in
    # topological order, since the network is a DAG with negative costs.
    # With h[x] the longest chain ending at x, x_in lies at 1 - h[x],
    # x_out at -h[x] and t at minus the height.
    h = chain_lengths(p)
    pot = [v for x in range(n) for v in (1 - h[x], -h[x])] + [0, -max(h)]
    e = [0]
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
        if snk not in dist or pot[snk] >= 0:
            return tuple(e)
        e.append(e[-1] - pot[snk])
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
