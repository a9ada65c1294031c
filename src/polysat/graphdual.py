"""2-realizers and conjugate orders, for `dual`'s certificate.

A poset has dimension at most 2 exactly when the complement of its
comparability graph is again a comparability graph; the conjugate order
built from a 2-realizer orients that complement.  For the comparability
graph G of P, alpha_k(G) = d_k(P) and omega_k(G) = e_k(P) (Greene 1976;
Frank 1980) need no conjugate, but the proper colorings of G are chain
partitions of the conjugate, so the coloring-side saturation duals are
the conjugate's polyunsaturation.  The order of a 2-realizer, the
intersection of its two linear orders (Dushnik and Miller 1941), is read
off suffix masks in O(n) row steps.
"""

from .errors import InvalidRealizer
from .poset import Poset, Realizer, bits


def _order(ext1, ext2):
    """Rows of "x precedes y in both permutations", from suffix masks."""
    later1 = [0] * len(ext1)
    seen = 0
    for x in reversed(ext1):
        later1[x] = seen
        seen |= 1 << x
    rows = [0] * len(ext2)
    seen = 0
    for x in reversed(ext2):
        rows[x] = later1[x] & seen
        seen |= 1 << x
    return rows


def verify_realizer(p, r):
    """True iff both permutations are linear extensions whose intersection
    is exactly the order."""
    elements = list(range(p.n))
    if sorted(r.ext1) != elements or sorted(r.ext2) != elements:
        return False
    return _order(r.ext1, r.ext2) == list(p.up)


def conjugate(p):
    """The order x below y iff x precedes y in ext1 and follows in ext2.

    ext1 and ext2 are p's realizer, which must realize p.  The result's
    comparability graph is the complement of p's (checked internally).  It
    is relabeled topologically by ext1 order and is the order of its own
    realizer: the identity and ext2 reversed.
    """
    r = p.realizer
    if r is None:
        raise InvalidRealizer(
            'the poset carries no 2-realizer: its JSON has no "realizer"'
        )
    if not verify_realizer(p, r):
        raise InvalidRealizer("the realizer's order is not the poset's")
    n = p.n
    names = [p.name(x) for x in r.ext1] if p.names is not None else None
    newidx = [0] * n
    for i, x in enumerate(r.ext1):
        newidx[x] = i
    rev2 = tuple(newidx[x] for x in reversed(r.ext2))
    up = _order(range(n), rev2)
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
