"""Canonical forms of small posets, for filtering isomorphs.

Only poset.enumerate_posets uses them; it imports this module when it
runs, so the other commands do not compile it.
"""

import itertools

from .poset import bits


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
    refined invariant classes.  Intended for n <= poset.ENUM_LIMIT.
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
