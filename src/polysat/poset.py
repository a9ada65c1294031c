"""Finite strict partial orders with bit-packed relation rows.

Elements are the integers 0..n-1 in a topological indexing: x below y in
the order implies x < y as indices.  Every constructor in this module
relabels its input to restore that invariant, so downstream search code
may always extend chains upward in index.
"""

import heapq

from .errors import (
    CycleDetected,
    EmptyPoset,
    IndexOutOfRange,
    InvalidRealizer,
    SizeLimitExceeded,
)

ENUM_LIMIT = 8


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Value refuses every assignment, so its __init__ fills slots through this.
_set = object.__setattr__


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__; __init__ takes them in that
    order or by name, each once, and fills every value type, Poset
    included.  Instances are equal when they have the same type and equal
    fields, hash like the tuple of their fields, and copy and pickle by
    calling the class on them.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        kwargs.update(zip(names, args))
        for name in names:
            _set(self, name, kwargs[name])

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


class Poset(Value):
    """An immutable strict order on 0..n-1.

    up[x] is the bitmask of elements strictly above x, down[x] of those
    strictly below, and covers[x] the ascending tuple of x's upper covers,
    kept from the walk that validates irreflexivity, antisymmetry,
    transitivity and topological indexing in O(n + covers) row steps.
    names (n strings, or None: then name(x) is str(x)) and realizer are
    fixed at construction, like the order; equality and hashing look at
    the order only.  derived caches values of the order, such as the d
    sequence, once per instance; a copy or a pickle starts it empty.
    """

    __slots__ = ("n", "up", "down", "covers", "names", "realizer", "derived")

    def __init__(self, n, up, names=None, realizer=None):
        if n < 1:
            raise EmptyPoset("poset needs at least one element")
        up = tuple(up)
        if len(up) != n:
            raise ValueError("up must have one row per element")
        if names is not None:
            names = tuple(names)
            if len(names) != n or not all(isinstance(x, str) for x in names):
                raise ValueError("names must be n strings")
        full_above = (1 << n) - 1
        for x in range(n):
            row = up[x]
            # Zero bits at or below x give irreflexivity and antisymmetry
            # for free under topological indexing.
            if row & ((1 << (x + 1)) - 1):
                raise ValueError("indices are not topological")
            if row & ~full_above:
                raise IndexOutOfRange("relation row mentions element >= n")
        # Rows above x are closed when x is walked, so each lowest y left is
        # a cover, and x's row is closed iff it holds their rows.  Negative
        # rows never empty; the range checks have refused them.
        covers = [[] for _ in range(n)]
        for x in range(n - 1, -1, -1):
            row = rest = up[x]
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                if up[y] & ~row:
                    raise ValueError("relation is not transitive")
                covers[x].append(y)
                rest &= ~(low | up[y])
        down = [0] * n
        for x in range(n):
            for y in covers[x]:
                down[y] |= down[x] | 1 << x
        covers = tuple(map(tuple, covers))
        super().__init__(n, up, tuple(down), covers, names, realizer, {})

    def __reduce__(self):
        return type(self), (self.n, self.up, self.names, self.realizer)

    def less(self, x, y):
        return bool(self.up[x] >> y & 1)

    def comparable(self, x, y):
        return x != y and bool((self.up[x] >> y | self.up[y] >> x) & 1)

    def name(self, x):
        return self.names[x] if self.names is not None else str(x)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash((self.n, self.up))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={cover_relations(self)})"


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
    heap = [i for i in range(n) if indeg[i] == 0]  # sorted, so a heap
    order, mapping = [], [0] * n
    while heap:
        x = heapq.heappop(heap)
        mapping[x] = len(order)
        order.append(x)
        for y in sorted(succs[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(order) < n:
        raise CycleDetected("cover relation contains a cycle")
    up = [0] * n
    for x in reversed(order):
        m = 0
        for y in succs[x]:
            m |= (1 << mapping[y]) | up[mapping[y]]
        up[mapping[x]] = m
    # Names of another length go on unrelabelled, for Poset to refuse.
    if names is not None and len(names) == n:
        names = [names[x] for x in order]
    if realizer is not None:
        realizer = Realizer(
            tuple(mapping[x] for x in realizer.ext1),
            tuple(mapping[x] for x in realizer.ext2),
        )
    return Poset(n, up, names=names, realizer=realizer), mapping


def cover_relations(p):
    """Transitive reduction as sorted (x, y) pairs, from p's covers."""
    return [(x, y) for x in range(p.n) for y in p.covers[x]]


def chain_lengths(p):
    """Longest chain ending at each element, in one pass over the covers."""
    h = [1] * p.n
    for x in range(p.n):
        for y in p.covers[x]:
            h[y] = max(h[y], h[x] + 1)
    return h


def height(p):
    return max(chain_lengths(p))


def width(p):
    """Maximum antichain size, via Dilworth and Konig.

    Minimum chain partition of the order DAG is n minus a maximum matching
    over the closed relation, grown along augmenting paths on a stack.
    """
    match_to, size = [-1] * p.n, p.n
    for root in range(p.n):
        stack, visited = [(root, bits(p.up[root]), -1)], p.up[root]
        while stack:
            if (y := next(stack[-1][1], None)) is None:
                stack.pop()
            elif match_to[y] == -1:
                for x, _, via in reversed(stack):
                    match_to[y], y = x, via
                size -= 1
                break
            else:
                x = match_to[y]
                stack.append((x, bits(p.up[x] & ~visited), y))
                visited |= p.up[x]
    return size


def enumerate_posets(n):
    """One representative per isomorphism class of n-element posets.

    Each class is given by its least natural labelling, and the classes
    come in increasing order of it (see canonical).
    """
    if n < 1:
        raise EmptyPoset("need n >= 1")
    if n > ENUM_LIMIT:
        raise SizeLimitExceeded(f"enumeration limited to n<={ENUM_LIMIT}")
    # Imported here, so the commands that enumerate nothing do not load it.
    from .canonical import classes

    for down in classes(n):
        up = [0] * n
        for y, row in enumerate(down):
            for x in bits(row):
                up[x] |= 1 << y
        yield Poset(n, up)
