"""Comparability-graph view, 2-realizers, conjugates, and coloring duals.

A poset has dimension at most 2 exactly when the complement of its
comparability graph is again a comparability graph; the conjugate order
built from a 2-realizer orients that complement.  Proper colorings of the
graph correspond to chain partitions of the conjugate, which yields the
antichain-partition (coloring) saturation duals.
"""

from .errors import BadK, BadParameters, InvalidRealizer, SizeLimitExceeded
from .poset import Poset, Realizer, Value, _set, bits, popcount
from .saturation import DEFAULT_BUDGET_S, DEFAULT_LIMIT_N, is_polyunsaturated

ALPHA_LIMIT = 16


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
        return sum(popcount(row) for row in self.adj) // 2


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
    return max(popcount(u) for u in frontier)


def omega_k(g, k):
    """Maximum vertices in a union of k cliques, exactly."""
    return alpha_k(complement(g), k)


def pj_realizer(j):
    """The two printed linear extensions of the tower poset."""
    from .construct import build_pj

    return build_pj(j)[0].realizer


def verify_realizer(p, r):
    """True iff both permutations are linear extensions whose intersection
    is exactly the order."""
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


def conjugate(p, r=None):
    """The order x below y iff x precedes y in ext1 and follows in ext2.

    Its comparability graph is the complement of the original one (checked
    internally).  The result is relabeled topologically by ext1 order and
    carries its own realizer.
    """
    if r is None:
        r = p.realizer
    if r is None or not verify_realizer(p, r):
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
    if not _graphs_match_under(
        comparability_graph(q), complement(comparability_graph(p)), newidx
    ):
        raise AssertionError("conjugate's graph is not the complement")
    return q


def _graphs_match_under(g_new, g_old, newidx):
    for x in range(g_old.n):
        mapped = 0
        for y in bits(g_old.adj[x]):
            mapped |= 1 << newidx[y]
        if mapped != g_new.adj[newidx[x]]:
            return False
    return True


def is_co_polyunsaturated(
    p, r=None, limit_n=DEFAULT_LIMIT_N, budget_s=DEFAULT_BUDGET_S
):
    """Polyunsaturation of the conjugate: saturated proper colorings of the
    comparability graph are saturated chain partitions of the conjugate."""
    q = conjugate(p, r)
    return is_polyunsaturated(q, limit_n=limit_n, budget_s=budget_s)


def feasible_dual_nac(n, a, c):
    """Coloring-side existence test; the role swap of the primal one."""
    from .construct import feasible_nca

    if a < 3:
        raise BadParameters("need a >= 3")
    return feasible_nca(n, c=a, a=c)
