"""2-realizers, conjugate orders, and the coloring-side feasibility.

A poset has dimension at most 2 exactly when the complement of its
comparability graph is again a comparability graph; the conjugate order
built from a 2-realizer orients that complement.  The graph questions
therefore reduce to the poset's own: for the comparability graph G of P,
alpha_k(G) = d_k(P) and omega_k(G) = e_k(P) (Greene 1976; Frank 1980), and
proper colorings of G are chain partitions of the conjugate, so the
coloring-side saturation duals are the conjugate's polyunsaturation.
"""

from .errors import BadParameters, InvalidRealizer
from .poset import Poset, Realizer, bits


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


def feasible_dual_nac(n, a, c):
    """Coloring-side existence test; the role swap of the primal one."""
    from .construct import feasible_nca

    if a < 3:
        raise BadParameters("need a >= 3")
    return feasible_nca(n, c=a, a=c)
