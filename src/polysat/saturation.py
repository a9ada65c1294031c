"""k-norms, saturated chain partitions, and polyunsaturation certificates.

Every search here walks the same tree: the chain through the lowest
uncovered element is branched on, smaller successors first, so each chain
partition is met once, and a memo on the uncovered mask bounds the work
by 2^n states.

The searches rest on orthogonality (Greene and Kleitman 1976).  Take one
largest k-family A_k, which max_kfamily reads off the d sequence's flow.
A chain C meets it in at most min(k, |C|) elements; call the shortfall
min(k, |C|) - |C & A_k| the defect of C.  Over any partition the meets
add up to |A_k| = d_k, so m_k = d_k + the sum of the defects, and a
partition is k-saturated iff none of its chains has a defect.  Against
several families at once the defects and the d_k add up alike.

So one search answers every question.  A _NormSearch holds a call's
guards, clock and families; its cover finds the first partition in walk
order whose total defect is at most a given slack.  find_saturated and
min_norm ask for slack 0.  Its least_slack, behind min_joint_norm and
each pair of is_polyunsaturated (certify and dual), deepens: against A_k
and A_l it tries slack 0, 1, 2, ... and stops at the least slack s with a
cover.  s = 0 gives a witness; otherwise no partition is saturated for
both k and l, and the least m_k + m_l is d_k + d_l + s.  limit_n caps n
as the caller sets it, and the time budget is what stops a long search.

The cover is the partition an exact DP minimizing the summed norms would
give, so the output does not depend on which search found it.  The
identity holds on every mask Q with |A_k & Q| in place of d_k, so the
minimum over Q is the families' share of Q plus the least defect over Q.
At the least slack s, a chain C starts a cover iff defect(C) plus the
least defect of what C leaves is at most s, so equal to s: that is the
DP's condition for C to start a minimizer, and the first such chain in
walk order, which both take, is the same.  The rest is searched with
exactly its least defect as slack, so the argument repeats down to the
empty mask.
"""
import time
from collections import deque
from itertools import count

from .errors import (
    BadK,
    BadParameters,
    BudgetExceeded,
    PartitionMismatch,
    SizeLimitExceeded,
)
from .kfamily import _residual, d_sequence, dk
from .poset import Value, bits

DEFAULT_LIMIT_N = 16
# Seconds a search may take when the caller names no budget; budget_s=None
# lifts the bound.
DEFAULT_BUDGET_S = 600.0


class Chain(Value):
    """A chain given by strictly index-increasing element indices."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("chain indices must strictly increase")
        super().__init__(elems)

    def __len__(self):
        return len(self.elems)

    def is_valid(self, p):
        return all(p.less(a, b) for a, b in zip(self.elems, self.elems[1:]))

    def mask(self):
        m = 0
        for x in self.elems:
            m |= 1 << x
        return m


class ChainPartition(Value):
    """A partition of the ground set of a poset into chains."""

    __slots__ = ("poset", "chains")

    def __init__(self, poset, chains):
        seen = 0
        for chain in chains:
            if not chain.is_valid(poset):
                raise PartitionMismatch("block is not a chain")
            m = chain.mask()
            if not m:
                raise PartitionMismatch("block is empty")
            if m & seen:
                raise PartitionMismatch("blocks overlap")
            seen |= m
        if seen != (1 << poset.n) - 1:
            raise PartitionMismatch("blocks do not cover the ground set")
        super().__init__(poset, chains)

    def __len__(self):
        return len(self.chains)


class Witness(Value):
    """A pair's verdict when a partition saturated for both k and l exists."""

    __slots__ = ("partition",)


class NoJointPartition(Value):
    """A pair's verdict when none exists: the least m_k + m_l there is."""

    __slots__ = ("min_joint_norm",)


class PolyunsatReport(Value):
    """Per-pair verdicts, with the d sequence d_1..d_c they compare to."""

    __slots__ = ("d", "pair_verdicts", "conclusion")

    def __init__(self, d, pair_verdicts=None, conclusion=True):
        super().__init__(d, pair_verdicts or {}, conclusion)

    @property
    def c(self):
        return len(self.d)


def mk(cp, k):
    """k-norm: sum over blocks of min(k, block size)."""
    if k < 1:
        raise BadK("k must be positive")
    return sum(min(k, len(chain)) for chain in cp.chains)


def is_k_saturated(p, cp, k):
    if cp.poset != p:
        raise PartitionMismatch("partition belongs to a different poset")
    return mk(cp, k) == dk(p, k)


def max_kfamily(p, k):
    """A largest k-family of p, as a mask; all of p at or above the height.

    Read off the dual of the flow that kfamily.d_sequence runs (Frank 1980).
    f = d_{k+1} - d_k is the number of augmenting paths that gain more than
    k (Greene's theorem: the two difference sequences are conjugate
    partitions), so f chains are a cheapest flow when each chain costs k,
    and the flow kept a largest union of f chains.  Let pi be shortest
    distances from s in kfamily._residual's network of that flow, with
    s -> x_in costing k and the return arc t -> s carrying the flow.  A_k
    is the set of x whose arc x_in -> x_out has nonnegative reduced cost,
    pi(x_out) <= pi(x_in) - 1.  Along any chain pi starts at most k at its
    lowest x_in, never rises, drops at each element of A_k and ends at
    least pi(t) = 0, so A_k meets it in at most k elements; complementary
    slackness gives |A_k| = d_k.  Both facts are checked, and a failure
    raises AssertionError.
    """
    if k < 1:
        raise BadK("k must be positive")
    seq = d_sequence(p)
    n = p.n
    if k >= len(seq.d):
        return (1 << n) - 1
    arcs = _residual(p, *p.derived["flows"][seq.d[k] - seq.d[k - 1]])
    # s (slot 2n) is never reached: it starts each x_in at k and t at 0.
    # No distance exceeds k, so k + 1 marks a node not yet reached.
    dist = [k, k + 1] * n + [k, 0]
    queue = deque(range(0, 2 * n, 2))
    queue.append(2 * n + 1)
    queued = [True, False] * n + [False, True]
    while queue:
        u = queue.popleft()
        queued[u] = False
        for v, cost in arcs(u):
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                if not queued[v]:
                    queued[v] = True
                    queue.append(v)
    family = 0
    for x in range(n):
        if dist[2 * x + 1] <= dist[2 * x] - 1:
            family |= 1 << x
    _check_kfamily(p, k, family, seq.d[k - 1])
    return family


def _check_kfamily(p, k, family, size):
    """Raise unless family has size elements and no chain of k + 1."""
    if family.bit_count() != size:
        raise AssertionError("k-family from the flow has the wrong size")
    longest = [0] * p.n
    for y in bits(family):
        longest[y] = 1 + max(
            (longest[x] for x in bits(p.down[y] & family)), default=0
        )
        if longest[y] > k:
            raise AssertionError("k-family from the flow has a long chain")


class _NormSearch:
    """One search over the chain partitions of p, all on one walk.

    Making it refuses a limit_n below 1, p above limit_n, and a NaN or
    negative budget_s, and starts the clock: all it searches must end
    within budget_s seconds, or may run unbounded if budget_s is None.
    It keeps A_k per k, and states counts the masks it expands.
    """

    def __init__(self, p, limit_n, budget_s):
        if limit_n < 1:
            raise BadParameters(
                f"limit must be a positive integer, not {limit_n}"
            )
        if p.n > limit_n:
            raise SizeLimitExceeded(
                f"n={p.n} exceeds the search limit {limit_n}; raise --limit-n"
            )
        self.deadline = None
        if budget_s is not None:
            if not budget_s >= 0:
                raise BadParameters(
                    f"budget must be a nonnegative number, not {budget_s}"
                )
            self.deadline = time.monotonic() + budget_s
        self.p = p
        self.states = 0
        self.full = (1 << p.n) - 1
        self.families = {}

    def family(self, k):
        if k not in self.families:
            self.families[k] = max_kfamily(self.p, k)
        return self.families[k]

    def visit(self, phase):
        self.states += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                f"{phase} ran past its time budget after"
                f" {self.states} states"
            )

    def tries(self, mask, budget, meets):
        """(rest, slack left) for each chain through the lowest element of
        mask that misses meets by at most budget, in preorder with smaller
        successors first, made one at a time, as the walk asks for them."""
        up = self.p.up
        i = (mask & -mask).bit_length() - 1
        stack = [(i, mask & ~(1 << i), 1)]
        while stack:
            top, rest, size = stack.pop()
            left = budget
            for need, family in meets:
                left -= need[size] - (mask & ~rest & family).bit_count()
                if left < 0:
                    break
            else:
                yield rest, left
            succ = up[top] & rest
            while succ:
                j = succ.bit_length() - 1
                succ &= ~(1 << j)
                stack.append((j, rest & ~(1 << j), size + 1))

    def cover(self, ks, phase, slack=0):
        """The first partition in walk order whose chains C miss A_k for
        every k in ks by at most slack in all, counting min(k, |C|) -
        |C & A_k| for each, or None."""
        # memos[b] maps a mask to what is left of it after the first chain
        # of its first cover within slack b, with the slack left for that
        # rest, or to None if it has no such cover.  frames, not recursion,
        # holds the masks being expanded, each with its untried chains.
        memos = [{0: 0} for _ in range(slack + 1)]
        meets = [
            ([min(k, s) for s in range(self.p.n + 1)], self.family(k))
            for k in ks
        ]
        frames, mask, budget = [], self.full, slack
        while True:
            if mask in memos[budget]:
                found = memos[budget][mask]
            else:
                self.visit(phase)
                frames.append((mask, budget, self.tries(mask, budget, meets)))
                found = None
            while frames:
                if found is not None:
                    found = mask, budget
                elif child := next(frames[-1][2], None):
                    mask, budget = child
                    break
                mask, budget, _ = frames.pop()
                memos[budget][mask] = found
            else:
                break
        if found is None:
            return None
        chains, mask, left = [], self.full, slack
        while mask:
            rest, left = memos[left][mask]
            chains.append(Chain(tuple(bits(mask & ~rest))))
            mask = rest
        return ChainPartition(self.p, tuple(chains))

    def least_slack(self, ks, phase):
        """(s, partition): the least slack s at which a cover against A_k
        for every k in ks exists, and its first cover.

        The cover's summed k-norms must be the sum of the d_k plus s; a
        mismatch is a bug in a k-family or the search and raises
        AssertionError.
        """
        for slack in count():
            partition = self.cover(ks, f"{phase} at slack {slack}", slack)
            if partition is not None:
                break
        if sum(mk(partition, k) - dk(self.p, k) for k in ks) != slack:
            raise AssertionError(
                "defect identity violated: bug in a k-family or the search"
            )
        return slack, partition


def min_norm(p, k, limit_n=DEFAULT_LIMIT_N, budget_s=DEFAULT_BUDGET_S):
    """Minimum m_k over all chain partitions, with one minimizer: d_k, by
    Greene-Kleitman, and find_saturated's cover for k, which attains it; a
    missing cover or another k-norm is a bug and raises AssertionError."""
    if k < 1:
        raise BadK("k must be positive")
    partition = find_saturated(p, [k], limit_n, budget_s)
    value = dk(p, k)
    if partition is None or mk(partition, k) != value:
        raise AssertionError("Greene-Kleitman violated: bug in dk or search")
    return value, partition


def min_joint_norm(
    p, k, l, limit_n=DEFAULT_LIMIT_N, budget_s=DEFAULT_BUDGET_S
):
    """Minimum m_k + m_l over all chain partitions, with one minimizer:
    d_k + d_l plus the least slack of a cover against A_k and A_l."""
    if not 1 <= k < l:
        raise BadK("need 1 <= k < l")
    slack, partition = _NormSearch(p, limit_n, budget_s).least_slack(
        (k, l), f"orthogonal search for pair ({k}, {l})"
    )
    return dk(p, k) + dk(p, l) + slack, partition


def find_saturated(
    p, ks, limit_n=DEFAULT_LIMIT_N, budget_s=DEFAULT_BUDGET_S
):
    """A partition saturated for every k in ks, or None (exhaustive).

    A partition is k-saturated iff each of its chains is orthogonal to a
    largest k-family, so this is the first cover in walk order by chains
    orthogonal to A_k for every k in ks: the partition the DP minimizing
    sum_k m_k would give.
    """
    ks = sorted(set(ks))
    if not ks or ks[0] < 1:
        raise BadK("ks must be positive")
    search = _NormSearch(p, limit_n, budget_s)
    return search.cover(ks, f"orthogonal search for k in {tuple(ks)}")


def is_polyunsaturated(
    p, limit_n=DEFAULT_LIMIT_N, budget_s=DEFAULT_BUDGET_S
):
    """Per-pair verdicts for all nonconsecutive k < l < height.

    Each pair is settled by deepening a cover search against A_k and A_l:
    a cover at slack 0 is its witness, and a least slack s >= 1 refutes it
    with minimum joint norm d_k + d_l + s.  Vacuously polyunsaturated when
    the height is below 4.  budget_s bounds the whole call, not each pair.
    """
    search = _NormSearch(p, limit_n, budget_s)
    d = d_sequence(p).d
    verdicts = {}
    for k in range(1, len(d) - 2):
        for l in range(k + 2, len(d)):
            slack, partition = search.least_slack(
                (k, l), f"orthogonal search for pair ({k}, {l})"
            )
            norm = d[k - 1] + d[l - 1] + slack
            verdicts[(k, l)] = (
                NoJointPartition(norm) if slack else Witness(partition)
            )
    conclusion = not any(isinstance(v, Witness) for v in verdicts.values())
    return PolyunsatReport(d=d, pair_verdicts=verdicts, conclusion=conclusion)
