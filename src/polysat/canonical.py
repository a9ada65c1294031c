"""Canonical forms of posets: the least natural labelling.

A natural labelling gives x a smaller label than every element above x,
and is written as its down-rows, row y the mask of labels below label y.
Posets are isomorphic iff their lexicographically least ones are equal."""


def least_labelling(down):
    """The least natural labelling of the order with down-sets down
    (masks, in any labelling).  Labels go one at a time to minimal
    unlabelled elements, keeping the states that reach the least row.  A
    state is the labelled set and the labels below each unlabelled
    element so far; equal states have equal futures, so they merge."""
    n = len(down)
    states, rows = {(0, (0,) * n)}, []
    for label in range(n):
        best, kept = 1 << n, set()
        for done, below in states:
            for x in range(n):
                if done >> x & 1 or down[x] & ~done or below[x] > best:
                    continue
                if below[x] < best:
                    best, kept = below[x], set()
                nxt = [b | (d >> x & 1) << label for b, d in zip(below, down)]
                nxt[x] = 0
                kept.add((done | 1 << x, tuple(nxt)))
        rows.append(best)
        states = kept
    return tuple(rows)


def classes(n):
    """The least natural labelling of each n-element poset class, sorted.
    Every poset has a maximal element, so each class arises from a class
    of n - 1 by a new element above one of its order ideals."""
    if n == 1:
        return [(0,)]
    found = set()
    for down in classes(n - 1):
        ideals = [0]
        for x, row in enumerate(down):
            ideals += [s | 1 << x for s in ideals if not row & ~s]
        found.update(least_labelling(down + (s,)) for s in ideals)
    return sorted(found)
