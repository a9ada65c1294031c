"""k-norms, saturated chain partitions, and polyunsaturation certificates.

The minimum-norm searches are exact: min over all chain partitions of a
sum of k-norms is computed by a memoized recursion over element subsets.
The chain containing the lowest uncovered element is branched on, so each
partition is considered once; memoization on the uncovered mask collapses
the search to at most 2^n states.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import (
    BadK,
    BudgetExceeded,
    PartitionMismatch,
    SizeLimitExceeded,
)
from .kfamily import d_sequence, dk
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
    """Exact minimizer of sum_{k in ks} m_k over all chain partitions."""

    def __init__(self, p, ks, deadline):
        self.p = p
        self.contrib = [sum(min(k, s) for k in ks) for s in range(p.n + 1)]
        self.deadline = deadline
        self.memo = {0: 0}

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

    def minimum(self, mask):
        value = self.memo.get(mask)
        if value is None:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExceeded("search ran past its time budget")
            value = min(
                self.contrib[size] + self.minimum(rest)
                for size, rest in self.chains(mask)
            )
            self.memo[mask] = value
        return value

    def witness(self, mask):
        """Reconstruct one minimizing partition from the memo table."""
        chains = []
        while mask:
            target = self.minimum(mask)
            rest = next(
                rest
                for size, rest in self.chains(mask)
                if self.contrib[size] + self.minimum(rest) == target
            )
            chains.append(Chain(tuple(bits(mask & ~rest))))
            mask = rest
        return ChainPartition(self.p, tuple(chains))


def _start(p, limit_n, budget_s):
    """Refuse p above the search limit; else the deadline of a search of
    budget_s seconds starting now, or None for no budget."""
    if limit_n > HARD_LIMIT_N:
        raise SizeLimitExceeded(
            f"subset search refuses limits above n={HARD_LIMIT_N}"
        )
    if p.n > limit_n:
        raise SizeLimitExceeded(
            f"n={p.n} exceeds the search limit {limit_n}; raise --limit-n"
        )
    return None if budget_s is None else time.monotonic() + budget_s


def _minimize(p, ks, deadline):
    """Minimum of sum_{k in ks} m_k, with one minimizing partition."""
    search = _NormSearch(p, ks, deadline)
    full = (1 << p.n) - 1
    return search.minimum(full), search.witness(full)


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
    """Exhaustive per-pair verdicts for all nonconsecutive k < l < height.

    Vacuously polyunsaturated when the height is below 4.  budget_s bounds
    the whole call, not each pair.
    """
    deadline = _start(p, limit_n, budget_s)
    d = d_sequence(p).d
    verdicts = {}
    for k in range(1, len(d) - 2):
        for l in range(k + 2, len(d)):
            value, partition = _minimize(p, (k, l), deadline)
            if value == d[k - 1] + d[l - 1]:
                verdicts[(k, l)] = Witness(partition)
            else:
                verdicts[(k, l)] = NoJointPartition(value)
    conclusion = all(isinstance(v, NoJointPartition) for v in verdicts.values())
    return PolyunsatReport(d=d, pair_verdicts=verdicts, conclusion=conclusion)
