"""Independent computations the benchmark checks polysat's outputs against.

Nothing here imports polysat.  Posets are read from their JSON text (or
from DOT edges) and handled as networkx digraphs of the full order
relation, so a fault in polysat's parsing, closure or search cannot hide
in both the output and its reference.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re

import networkx as nx


class RefPoset:
    """A finite order given by its elements 0..n-1 and its cover pairs.

    Attributes: the transitive closure `lt` (a set of pairs), `height`
    (longest path), `width` (n minus a maximum matching of the split
    graph), and, computed on first use, `e` with e[f] the largest union of
    f disjoint chains (min-cost flow) and `d` with d[k-1] the largest union
    of k antichains.
    """

    def __init__(self, n, covers):
        if n < 1:
            raise ValueError("empty poset")
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for x, y in covers:
            if not (0 <= x < n and 0 <= y < n) or x == y:
                raise ValueError(f"bad cover ({x}, {y}) for n={n}")
            g.add_edge(x, y)
        if not nx.is_directed_acyclic_graph(g):
            raise ValueError("cover relation has a cycle")
        self.n = n
        self.closure = nx.transitive_closure_dag(g)
        self.lt = set(self.closure.edges())
        self.height = nx.dag_longest_path_length(g) + 1
        self.width = n - _max_matching(n, self.lt)

    @functools.cached_property
    def e(self):
        return chain_union_sizes(self.n, self.lt, self.width)

    @functools.cached_property
    def d(self):
        return tuple(
            self.n - max(self.e[f] - k * f for f in range(len(self.e)))
            for k in range(1, self.height + 1)
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(obj["n"], [tuple(c) for c in obj.get("covers", [])])

    @classmethod
    def from_rows(cls, up):
        """From relation rows: bit y of up[x] set when x < y."""
        n = len(up)
        return cls(n, [(x, y) for x in range(n) for y in range(n) if up[x] >> y & 1])

    @classmethod
    def from_dot(cls, text):
        nodes = set(re.findall(r"^\s*v(\d+) \[label=", text, re.M))
        edges = re.findall(r"^\s*v(\d+) -> v(\d+);", text, re.M)
        return cls(len(nodes), [(int(x), int(y)) for x, y in edges])

    def dk(self, k):
        return self.d[k - 1] if k <= self.height else self.n

    def ek(self, k):
        return self.e[k] if k < len(self.e) else self.n

    def is_chain(self, block):
        return all((a, b) in self.lt for a, b in zip(block, block[1:]))

    def chain_partition_error(self, blocks):
        """None if blocks (each listed bottom to top) partition the order
        into chains, else a description of the first fault."""
        seen = []
        for block in blocks:
            if not block:
                return "empty block"
            if not self.is_chain(block):
                return f"block {block} is not a chain"
            seen.extend(block)
        if sorted(seen) != list(range(self.n)):
            return "blocks do not partition the ground set"
        return None


def _max_matching(n, lt):
    b = nx.Graph()
    left = [("L", x) for x in range(n)]
    b.add_nodes_from(left)
    b.add_nodes_from(("R", y) for y in range(n))
    b.add_edges_from((("L", x), ("R", y)) for x, y in lt)
    matching = nx.bipartite.hopcroft_karp_matching(b, top_nodes=left)
    return len(matching) // 2


def chain_union_sizes(n, lt, width):
    """e[f] for f = 0..width: the largest union of f disjoint chains.

    Each f is a min-cost flow of value f through the split digraph, where
    passing x_in -> x_out collects element x at cost -1 and x_out -> y_in
    follows the order.  Dilworth gives e[width] = n.
    """
    g = nx.DiGraph()
    for x in range(n):
        g.add_edge("s", (x, 0), capacity=1, weight=0)
        g.add_edge((x, 0), (x, 1), capacity=1, weight=-1)
        g.add_edge((x, 1), "t", capacity=1, weight=0)
    for x, y in lt:
        g.add_edge((x, 1), (y, 0), capacity=1, weight=0)
    e = [0]
    for f in range(1, width + 1):
        g.nodes["s"]["demand"] = -f
        g.nodes["t"]["demand"] = f
        flow = nx.min_cost_flow(g)
        e.append(-nx.cost_of_flow(g, flow))
    return tuple(e)


def antichain_union_bruteforce(n, lt, k):
    """Largest union of k antichains by enumerating antichains (tiny n)."""
    antichains = [
        set(s)
        for r in range(1, n + 1)
        for s in itertools.combinations(range(n), r)
        if not any((a, b) in lt or (b, a) in lt for a, b in itertools.combinations(s, 2))
    ]
    best = 0
    for combo in itertools.combinations_with_replacement(range(len(antichains)), k):
        best = max(best, len(set().union(*(antichains[i] for i in combo))))
    return best


def tower_delta(j):
    """Difference sequence of the tower P_j: (j, j, j-1, ..., 2, 1, 1)."""
    return (j,) + tuple(range(j, 0, -1)) + (1,)


def feasible_nca(n, c, a):
    """The paper's conditions for an n-element polyunsaturated poset of
    height c >= 3 and width a: a >= c - 2 and
    a + 1 + C(c-1, 2) <= n <= c*a + 1 - C(c-1, 2).

    The two bounds on n are the sums of the least and the greatest
    admissible difference sequences with first entry a.
    """
    failed = []
    if a < c - 2:
        failed.append("a_ge_c_minus_2")
    if n < a + 1 + math.comb(c - 1, 2):
        failed.append("n_lower")
    if n > c * a + 1 - math.comb(c - 1, 2):
        failed.append("n_upper")
    return failed


def admissible_sequences(c, a):
    """Every admissible difference sequence of length c >= 3 with first
    entry a: nonincreasing, positive, strictly decreasing from b_2 to
    b_{c-1}."""
    for interior in itertools.combinations(range(a, 0, -1), c - 2):
        for last in range(1, interior[-1] + 1):
            yield (a,) + interior + (last,)
