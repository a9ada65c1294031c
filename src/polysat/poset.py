"""Finite strict partial orders with bit-packed relation rows.

Elements are the integers 0..n-1 in a topological indexing: x below y in
the order implies x < y as indices.  Every constructor in this module
relabels its input to restore that invariant, so downstream search code
may always extend chains upward in index.
"""

import heapq
import itertools

from .errors import (
    CycleDetected,
    EmptyPoset,
    IndexOutOfRange,
    InvalidRealizer,
    SizeLimitExceeded,
)

ENUM_LIMIT = 6


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Value refuses every assignment, so its subclasses' __init__s fill their
# slots through object's.
_set = object.__setattr__


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__, in the order of its
    __init__'s parameters, and sets each one there through _set.
    Instances are equal when they have the same type and equal fields,
    hash like the tuple of their fields, and copy and pickle by calling
    the class on them.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"a {type(self).__name__} is immutable")


class Realizer(Value):
    """Two linear extensions whose intersection is the order."""

    __slots__ = ("ext1", "ext2")

    def __init__(self, ext1, ext2):
        _set(self, "ext1", ext1)
        _set(self, "ext2", ext2)


class Poset:
    """An immutable strict order on 0..n-1.

    up[x] is the bitmask of elements strictly above x; down[x] the mask of
    elements strictly below.  Construction validates irreflexivity,
    antisymmetry, transitivity, and the topological-indexing invariant.
    names and realizer are given at construction and, like the order,
    never change; equality and hashing look at the order only.  derived
    holds values computed from the order on first use, such as the d
    sequence, so each is computed once per instance.
    """

    __slots__ = ("n", "up", "down", "names", "realizer", "derived")

    def __init__(self, n, up, names=None, realizer=None):
        if n < 1:
            raise EmptyPoset("poset needs at least one element")
        up = tuple(up)
        if len(up) != n:
            raise ValueError("up must have one row per element")
        full_above = (1 << n) - 1
        for x in range(n):
            row = up[x]
            # Zero bits at or below x give irreflexivity and antisymmetry
            # for free under topological indexing.
            if row & ((1 << (x + 1)) - 1):
                raise ValueError("indices are not topological")
            if row & ~full_above:
                raise IndexOutOfRange("relation row mentions element >= n")
        down = [0] * n
        for x in range(n):
            row = up[x]
            for y in bits(row):
                if up[y] & ~row:
                    raise ValueError("relation is not transitive")
                down[y] |= 1 << x
        # __setattr__ refuses every assignment, so the slots are filled
        # through object's.
        init = object.__setattr__
        init(self, "n", n)
        init(self, "up", up)
        init(self, "down", tuple(down))
        init(self, "names", tuple(names) if names is not None else None)
        init(self, "realizer", realizer)
        init(self, "derived", {})

    def __setattr__(self, name, value):
        raise AttributeError("a Poset is immutable")

    def __delattr__(self, name):
        raise AttributeError("a Poset is immutable")

    def less(self, x, y):
        return bool(self.up[x] >> y & 1)

    def comparable(self, x, y):
        return x != y and bool((self.up[x] >> y | self.up[y] >> x) & 1)

    def name(self, x):
        return self.names[x] if self.names is not None else str(x)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={cover_relations(self)})"


class Chain(Value):
    """A chain given by strictly index-increasing element indices."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("chain indices must strictly increase")
        _set(self, "elems", elems)

    def __len__(self):
        return len(self.elems)

    def is_valid(self, p):
        return all(p.less(a, b) for a, b in zip(self.elems, self.elems[1:]))

    def mask(self):
        m = 0
        for x in self.elems:
            m |= 1 << x
        return m


def from_covers(n, covers, names=None, realizer=None):
    """Close an acyclic cover list and relabel topologically.

    names and realizer are in input labels and are relabelled with the
    order.  Returns (poset, mapping) where mapping[i] is the internal
    index of input element i.
    """
    if n < 1:
        raise EmptyPoset("poset needs at least one element")
    if realizer is not None and not (
        sorted(realizer.ext1) == sorted(realizer.ext2) == list(range(n))
    ):
        raise InvalidRealizer(
            f"realizer must be two permutations of 0..{n - 1}"
        )
    succs = [set() for _ in range(n)]
    indeg = [0] * n
    for x, y in covers:
        if not (0 <= x < n and 0 <= y < n):
            raise IndexOutOfRange(f"cover ({x},{y}) out of range for n={n}")
        if x == y:
            raise CycleDetected(f"self-loop at {x}")
        if y not in succs[x]:
            succs[x].add(y)
            indeg[y] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        x = heapq.heappop(heap)
        order.append(x)
        for y in sorted(succs[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) < n:
        raise CycleDetected("cover relation contains a cycle")
    mapping = [0] * n
    for pos, x in enumerate(order):
        mapping[x] = pos
    up = [0] * n
    for x in reversed(order):
        m = 0
        for y in succs[x]:
            m |= (1 << mapping[y]) | up[mapping[y]]
        up[mapping[x]] = m
    if names is not None:
        names = [names[x] for x in order]
    if realizer is not None:
        realizer = Realizer(
            tuple(mapping[x] for x in realizer.ext1),
            tuple(mapping[x] for x in realizer.ext2),
        )
    return Poset(n, up, names=names, realizer=realizer), mapping


def cover_relations(p):
    """Transitive reduction: the unique minimal pair set closing to lt."""
    out = []
    for x in range(p.n):
        for y in bits(p.up[x]):
            if not (p.up[x] & p.down[y]):
                out.append((x, y))
    return out


def chain_lengths(p):
    """Longest chain ending at each element."""
    h = [1] * p.n
    for y in range(p.n):
        for x in bits(p.down[y]):
            if h[x] + 1 > h[y]:
                h[y] = h[x] + 1
    return h


def height(p):
    return max(chain_lengths(p))


def width(p):
    """Maximum antichain size, via Dilworth and Konig.

    Minimum chain partition of the order DAG is n minus a maximum matching
    in the split bipartite graph over the full (closed) relation.
    """
    match_to = [-1] * p.n

    def augment(x, visited):
        free = p.up[x] & ~visited[0]
        visited[0] |= free
        for y in bits(free):
            if match_to[y] == -1 or augment(match_to[y], visited):
                match_to[y] = x
                return True
        return False

    matching = sum(augment(x, [0]) for x in range(p.n))
    return p.n - matching


def disjoint_union(p, q):
    """Order with no relations between the two parts."""
    if p is None or q is None:
        raise EmptyPoset("disjoint_union needs two posets")
    up = list(p.up) + [m << p.n for m in q.up]
    names = None
    if p.names is not None or q.names is not None:
        names = [p.name(i) for i in range(p.n)] + [
            q.name(i) for i in range(q.n)
        ]
    realizer = None
    if p.realizer is not None and q.realizer is not None:
        # New block appended in ext1, prepended in ext2: the parts stay
        # incomparable while each part keeps its own certified realizer.
        shift = p.n
        realizer = Realizer(
            ext1=p.realizer.ext1 + tuple(x + shift for x in q.realizer.ext1),
            ext2=tuple(x + shift for x in q.realizer.ext2) + p.realizer.ext2,
        )
    return Poset(p.n + q.n, up, names=names, realizer=realizer)


def chain_poset(t, names=None):
    """A single chain of t elements, carrying the trivial realizer."""
    up = [(((1 << t) - 1) >> (x + 1)) << (x + 1) for x in range(t)]
    ext = tuple(range(t))
    return Poset(t, up, names=names, realizer=Realizer(ext, ext))


def antichain_poset(t, names=None):
    ext = tuple(range(t))
    return Poset(
        t, [0] * t, names=names, realizer=Realizer(ext, tuple(reversed(ext)))
    )


def ranks(p):
    """Rank classes bottom-up, or None if the poset is not ranked.

    Ranked means: a function r with r(y) = r(x) + 1 on every cover x <. y,
    normalized to minimum 0 within each connected component of the cover
    graph.  Decided by BFS constraint propagation over covers.
    """
    covers = cover_relations(p)
    up_adj = [[] for _ in range(p.n)]
    down_adj = [[] for _ in range(p.n)]
    for x, y in covers:
        up_adj[x].append(y)
        down_adj[y].append(x)
    rank = [None] * p.n
    for start in range(p.n):
        if rank[start] is not None:
            continue
        rank[start] = 0
        comp = [start]
        queue = [start]
        while queue:
            x = queue.pop()
            for y in up_adj[x]:
                if rank[y] is None:
                    rank[y] = rank[x] + 1
                    comp.append(y)
                    queue.append(y)
                elif rank[y] != rank[x] + 1:
                    return None
            for y in down_adj[x]:
                if rank[y] is None:
                    rank[y] = rank[x] - 1
                    comp.append(y)
                    queue.append(y)
                elif rank[y] != rank[x] - 1:
                    return None
        low = min(rank[x] for x in comp)
        for x in comp:
            rank[x] -= low
    classes = [set() for _ in range(max(rank) + 1)]
    for x in range(p.n):
        classes[rank[x]].add(x)
    return classes


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


def canonical_key(p):
    """A relabeling-invariant key; equal keys iff isomorphic.

    Minimizes the relation matrix over permutations that respect the
    refined invariant classes.  Intended for n <= ENUM_LIMIT.
    """
    inv = _invariants(p)
    classes = {}
    for x in range(p.n):
        classes.setdefault(inv[x], []).append(x)
    blocks = [classes[lab] for lab in sorted(classes)]
    best = None
    for perms in itertools.product(
        *(itertools.permutations(block) for block in blocks)
    ):
        old_order = [x for block in perms for x in block]
        newidx = [0] * p.n
        for pos, x in enumerate(old_order):
            newidx[x] = pos
        key = []
        for x in old_order:
            row = 0
            for y in bits(p.up[x]):
                row |= 1 << newidx[y]
            key.append(row)
        key = tuple(key)
        if best is None or key < best:
            best = key
    return best


def enumerate_posets(n):
    """One representative per isomorphism class of n-element posets.

    Generates all topologically indexed strict-order matrices row by row
    (each new down-set must be closed under earlier down-sets) and filters
    isomorphs via canonical forms.  Deterministic order.
    """
    if n < 1:
        raise EmptyPoset("need n >= 1")
    if n > ENUM_LIMIT:
        raise SizeLimitExceeded(f"enumeration limited to n<={ENUM_LIMIT}")
    seen = set()
    downs = [0] * n

    def build():
        up = [0] * n
        for y in range(n):
            for x in bits(downs[y]):
                up[x] |= 1 << y
        return Poset(n, up)

    def rec(y):
        if y == n:
            p = build()
            key = canonical_key(p)
            if key not in seen:
                seen.add(key)
                yield p
            return
        for sub in range(1 << y):
            ok = True
            for x in bits(sub):
                if downs[x] & ~sub:
                    ok = False
                    break
            if ok:
                downs[y] = sub
                yield from rec(y + 1)

    yield from rec(0)
