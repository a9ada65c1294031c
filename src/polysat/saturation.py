"""k-norms, saturated chain partitions, and polyunsaturation certificates.

Every search here walks the same tree: the chain through the lowest
uncovered element is branched on, smaller successors first, so each chain
partition is met once, and a memo on the uncovered mask bounds the work
by 2^n states.

is_polyunsaturated, behind certify and dual, settles a pair (k, l) by
orthogonality (Greene and Kleitman 1976).  Take one largest k-family A_k
(kfamily.max_kfamily).  A chain C meets it in at most min(k, |C|)
elements, and over any partition these counts add up to |A_k| = d_k, so
a partition is k-saturated iff each of its chains meets A_k in exactly
min(k, |C|).  A partition saturated for both k and l therefore exists
iff the ground set has a cover by chains orthogonal to A_k and to A_l.
The search for one skips every other chain and keeps one answer per
mask.

A refuted pair is reported with its minimum m_k + m_l, which no existence
search gives.  One exact DP computes them all: every pair's DP expands
the same masks, so one memo holds, per mask, a tuple with one minimum per
refuted pair.  min_norm, min_joint_norm and find_saturated run the same
DP with a single objective.

The witness of an orthogonal cover is the one the DP would give, so the
output does not depend on which search found it.  Take a mask whose
minimum joint norm equals its share of |A_k| + |A_l|, as the full set's
does when a witness exists.  A chain's k- and l-norms are at least its
share, and so is the minimum on what the chain leaves.  So a move
reaches the DP's minimum iff its chain is orthogonal and the rest has an
orthogonal cover, and the first such move in walk order, which both
searches take, is the same chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import add

from .errors import (
    BadK,
    BadParameters,
    BudgetExceeded,
    PartitionMismatch,
    SizeLimitExceeded,
)
from .kfamily import d_sequence, dk, max_kfamily
from .poset import Chain, Poset, bits

DEFAULT_LIMIT_N = 16
HARD_LIMIT_N = 24
DEFAULT_BUDGET_S = 600.0


@dataclass(frozen=True)
class ChainPartition:
    """A partition of the ground set of a poset into chains."""

    poset: Poset
    chains: tuple

    def __post_init__(self):
        seen = 0
        for chain in self.chains:
            if not chain.is_valid(self.poset):
                raise PartitionMismatch("block is not a chain")
            m = chain.mask()
            if m & seen:
                raise PartitionMismatch("blocks overlap")
            seen |= m
        if seen != (1 << self.poset.n) - 1:
            raise PartitionMismatch("blocks do not cover the ground set")

    def __len__(self):
        return len(self.chains)


@dataclass(frozen=True)
class Witness:
    partition: ChainPartition


@dataclass(frozen=True)
class NoJointPartition:
    min_joint_norm: int


@dataclass(frozen=True)
class PolyunsatReport:
    """Per-pair verdicts, with the d sequence d_1..d_c they compare to."""

    d: tuple
    pair_verdicts: dict = field(default_factory=dict)
    conclusion: bool = True

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


class _NormSearch:
    """Exact searches over the chain partitions of p, all on one walk.

    cover looks for a partition into chains orthogonal to given
    k-families; minima runs the shared DP.  Both stop at the deadline,
    and states counts the masks they expand.
    """

    def __init__(self, p, deadline):
        self.p = p
        self.deadline = deadline
        self.states = 0
        self.full = (1 << p.n) - 1

    def visit(self, phase):
        self.states += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded(
                f"{phase} ran past its time budget after"
                f" {self.states} states"
            )

    def chains(self, mask):
        """(size, remaining mask) for every chain through the lowest element
        of mask, in preorder with smaller successors first."""
        up = self.p.up
        i = (mask & -mask).bit_length() - 1
        out = []
        stack = [(i, mask & ~(1 << i), 1)]
        while stack:
            top, rest, size = stack.pop()
            out.append((size, rest))
            succ = up[top] & rest
            while succ:
                j = succ.bit_length() - 1
                succ &= ~(1 << j)
                stack.append((j, rest & ~(1 << j), size + 1))
        return out

    def cover(self, families, phase):
        """The first partition in walk order whose every chain C meets each
        A of (k, A) in families in min(k, |C|) elements, or None."""
        # memo maps a mask to what is left of it after the first chain of
        # its first such cover, or to None if it has no such cover.
        memo = {0: 0}
        meets = [
            ([min(k, s) for s in range(self.p.n + 1)], family)
            for k, family in families
        ]

        def first(mask):
            if mask in memo:
                return memo[mask]
            self.visit(phase)
            found = None
            for size, rest in self.chains(mask):
                chain = mask & ~rest
                for need, family in meets:
                    if (chain & family).bit_count() != need[size]:
                        break
                else:
                    if first(rest) is not None:
                        found = rest
                        break
            memo[mask] = found
            return found

        if first(self.full) is None:
            return None
        return self._partition(memo.__getitem__)

    def minima(self, objectives, phase):
        """For every ks in objectives, the minimum of sum_{k in ks} m_k
        over all chain partitions, all from one memo over masks."""
        self.phase = phase
        self.contrib = [
            tuple(sum(min(k, s) for k in ks) for ks in objectives)
            for s in range(self.p.n + 1)
        ]
        self.memo = {0: (0,) * len(objectives)}
        return self.minimum(self.full)

    def minimum(self, mask):
        value = self.memo.get(mask)
        if value is None:
            self.visit(self.phase)
            sums = [
                map(add, self.contrib[size], self.minimum(rest))
                for size, rest in self.chains(mask)
            ]
            value = self.memo[mask] = tuple(map(min, zip(*sums)))
        return value

    def witness(self, i):
        """The first partition in walk order attaining the i-th minimum."""

        def rest_of(mask):
            target = self.minimum(mask)[i]
            return next(
                rest
                for size, rest in self.chains(mask)
                if self.contrib[size][i] + self.minimum(rest)[i] == target
            )

        return self._partition(rest_of)

    def _partition(self, rest_of):
        """The partition whose chains rest_of peels off the full set."""
        chains = []
        mask = self.full
        while mask:
            rest = rest_of(mask)
            chains.append(Chain(tuple(bits(mask & ~rest))))
            mask = rest
        return ChainPartition(self.p, tuple(chains))


def _start(p, limit_n, budget_s):
    """Refuse p above the search limit and budgets that are NaN or
    negative; else the deadline of a search of budget_s seconds starting
    now, or None for no budget."""
    if limit_n > HARD_LIMIT_N:
        raise SizeLimitExceeded(
            f"subset search refuses limits above n={HARD_LIMIT_N}"
        )
    if p.n > limit_n:
        raise SizeLimitExceeded(
            f"n={p.n} exceeds the search limit {limit_n}; raise --limit-n"
        )
    if budget_s is None:
        return None
    if not budget_s >= 0:
        raise BadParameters(
            f"budget must be a nonnegative number, not {budget_s}"
        )
    return time.monotonic() + budget_s


def _minimize(p, ks, deadline):
    """Minimum of sum_{k in ks} m_k, with one minimizing partition."""
    search = _NormSearch(p, deadline)
    (value,) = search.minima((tuple(ks),), f"DP for k in {tuple(ks)}")
    return value, search.witness(0)


def min_norm(p, k, limit_n=DEFAULT_LIMIT_N, budget_s=None):
    """Minimum m_k over all chain partitions, with one minimizer.

    By Greene-Kleitman the value equals d_k; a mismatch is a bug and
    raises AssertionError.
    """
    if k < 1:
        raise BadK("k must be positive")
    value, partition = _minimize(p, (k,), _start(p, limit_n, budget_s))
    if value != dk(p, k):
        raise AssertionError("Greene-Kleitman violated: bug in dk or search")
    return value, partition


def min_joint_norm(p, k, l, limit_n=DEFAULT_LIMIT_N, budget_s=None):
    """Minimum m_k + m_l over all chain partitions, with one minimizer."""
    if not 1 <= k < l:
        raise BadK("need 1 <= k < l")
    return _minimize(p, (k, l), _start(p, limit_n, budget_s))


def find_saturated(p, ks, limit_n=DEFAULT_LIMIT_N, budget_s=None):
    """A partition saturated for every k in ks, or None (exhaustive).

    A partition attains sum_k m_k = sum_k d_k iff it is k-saturated for
    every k in ks, since each m_k >= d_k individually.
    """
    ks = sorted(set(ks))
    if not ks or ks[0] < 1:
        raise BadK("ks must be positive")
    value, partition = _minimize(p, ks, _start(p, limit_n, budget_s))
    d = d_sequence(p)
    if value != sum(d.at(k) for k in ks):
        return None
    return partition


def is_polyunsaturated(p, limit_n=DEFAULT_LIMIT_N, budget_s=None):
    """Per-pair verdicts for all nonconsecutive k < l < height.

    Each pair is settled by a search for a cover by chains orthogonal to
    A_k and A_l; one DP then gives the minimum joint norms of all refuted
    pairs.  Vacuously polyunsaturated when the height is below 4.
    budget_s bounds the whole call, not each pair.
    """
    deadline = _start(p, limit_n, budget_s)
    d = d_sequence(p).d
    pairs = [
        (k, l) for k in range(1, len(d) - 2) for l in range(k + 2, len(d))
    ]
    families = {k: max_kfamily(p, k) for k in {k for kl in pairs for k in kl}}
    search = _NormSearch(p, deadline)
    verdicts = {}
    for k, l in pairs:
        partition = search.cover(
            ((k, families[k]), (l, families[l])),
            f"orthogonal search for pair ({k}, {l})",
        )
        if partition is not None:
            verdicts[(k, l)] = Witness(partition)
    refuted = [pair for pair in pairs if pair not in verdicts]
    if refuted:
        minima = search.minima(
            refuted, f"shared DP over {len(refuted)} refuted pairs"
        )
        for (k, l), value in zip(refuted, minima):
            if value <= d[k - 1] + d[l - 1]:
                raise AssertionError(
                    "orthogonality violated: bug in a k-family or the search"
                )
            verdicts[(k, l)] = NoJointPartition(value)
    conclusion = len(refuted) == len(pairs)
    return PolyunsatReport(d=d, pair_verdicts=verdicts, conclusion=conclusion)
