"""Exact maximum k-family sizes and difference sequences, by min-cost flow.

A k-family is a union of k antichains.  Greene-Kleitman duality ties its
largest size d_k to e_f, the largest union of f disjoint chains:
d_k = n - max_f (e_f - k f).  One successive-shortest-path min-cost flow
on the split DAG yields every e_f, so the whole d sequence costs one flow
run, polynomial in n.
"""

import heapq

from .errors import BadK, InvalidDelta, NotRanked
from .poset import Value, bits, chain_lengths


class DSequence(Value):
    """Cumulative sequence d_1..d_c; strictly increasing and concave."""

    __slots__ = ("d",)

    def __init__(self, d):
        if any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError("d sequence must be strictly increasing")
        deltas = [b - a for a, b in zip((0,) + d, d)]
        if any(a < b for a, b in zip(deltas, deltas[1:])):
            raise ValueError("d sequence must be concave")
        super().__init__(d)

    def at(self, k):
        """d_k for any k >= 1; d_k = d_c = n for k at or above the height."""
        if k < 1:
            raise BadK("k must be positive")
        return self.d[min(k, len(self.d)) - 1]

    def delta(self):
        return DeltaSequence(
            tuple(b - a for a, b in zip((0,) + self.d, self.d))
        )


class DeltaSequence(Value):
    """Difference sequence with the convention delta b_1 = b_1."""

    __slots__ = ("b",)

    def __init__(self, b):
        if not b or any(x < 1 for x in b):
            raise InvalidDelta("entries must be positive")
        if any(x > y for x, y in zip(b[1:], b[:-1])):
            raise InvalidDelta("sequence must be nonincreasing")
        super().__init__(b)

    @property
    def c(self):
        return len(self.b)


def _residual(p, prv, nxt):
    """arcs(u): the (v, cost) arcs out of node u in the residual network of
    the split DAG under the chains that prv and nxt describe.

    Node 2x is x_in, 2x+1 is x_out and 2n+1 is t; the source s is no node,
    and a caller starts each x_in at its distance from s.  Element x is an
    arc x_in -> x_out of capacity 1 and cost -1.  x_out -> t and x_out ->
    y_in for every x < y (the relation is closed) cost 0 and need no
    capacity, since a unit reaches x_out only through x_in.  prv[x] is the
    element before x on its chain, or 2n for s, and nxt[x] the one after
    it, or t; both are None while x is on no chain.
    """
    n = p.n
    src, snk = 2 * n, 2 * n + 1

    def arcs(u):
        if u == snk:
            return [(2 * x + 1, 0) for x in range(n) if nxt[x] == snk]
        x = u >> 1
        if not u & 1:
            if prv[x] is None:
                return [(u + 1, -1)]
            return [] if prv[x] == src else [(2 * prv[x] + 1, 0)]
        out = [] if prv[x] is None else [(u - 1, 1)]
        out += [(2 * y, 0) for y in bits(p.up[x])]
        return out + [(snk, 0)]

    return arcs


def chain_unions(p):
    """(e_0, e_1, ..., e_w): e_f is the size of a largest union of f
    disjoint chains, up to the width w, where e_w = n.

    Successive shortest paths from s to t in _residual's network, whose
    arcs are read off the chains and the relation rows in O(n) memory; the
    f-th augmenting path costs -(e_f - e_{f-1}).  Dijkstra relaxes strictly
    and never leaves t, so arcs that only close zero-cost cycles change no
    path.  At each f with e_f - e_{f-1} > max(e_{f+1} - e_f, 1), the
    flow's (prv, nxt), a largest union of f chains, is kept in
    p.derived["flows"] for saturation.max_kfamily; at most sqrt(2n) are.
    """
    n = p.n
    src, snk = 2 * n, 2 * n + 1
    prv, nxt = [None] * n, [None] * n
    arcs = _residual(p, prv, nxt)
    # Initial potentials: shortest distances from s, found in one pass in
    # topological order over the DAG.  With h[x] the longest chain ending
    # at x, x_in lies at 1 - h[x], x_out at -h[x] and t at minus the height.
    h = chain_lengths(p)
    pot = [v for x in range(n) for v in (1 - h[x], -h[x])] + [0, -max(h)]
    e = [0]
    kept = p.derived["flows"] = {}
    while True:
        # s -> x_in costs 0, and s stays at potential 0.
        dist = {2 * x: -pot[2 * x] for x in range(n)}
        via = dict.fromkeys(dist, src)
        heap = sorted((d, u) for u, d in dist.items())
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
            kept[f] = prv[:], nxt[:]
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
    """d_k = n - max_f (e_f - k f) for k = 1..height, by one flow per Poset.

    Greene-Kleitman duality (Greene 1976, JCTA 20:69; Frank 1980, JCTB
    29:176); the height is e_1.  An antichain lies in one summand of an
    ordinal sum: d_k(P (+) Q) = max_{i+j=k} d_i(P) + d_j(Q), d_0 = 0.
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
    return d_sequence(p).at(k)


def delta_sequence(p):
    return d_sequence(p).delta()


def is_strong_sperner(p):
    """True iff the k largest ranks form a maximum k-family for every k."""
    # Imported here, so dk-table, which runs no ranking, does not load it.
    from .construct import ranks

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
