"""Shared helpers for the test suite."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import polysat
from polysat.poset import Poset, bits


def closed_poset(n, pairs):
    """The n-element poset generated by pairs (x, y) with x < y."""
    up = [0] * n
    for x, y in pairs:
        up[x] |= 1 << y
    for x in range(n - 1, -1, -1):
        for y in bits(up[x]):
            up[x] |= up[y]
    return Poset(n, up)


def random_poset(rng, n, prob=0.3):
    """A random n-element poset in topological indexing."""
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return closed_poset(n, [pair for pair in pairs if rng.random() < prob])


def ordinal_sum(p, q):
    """p below q: every element of p under every element of q."""
    top = ((1 << q.n) - 1) << p.n
    up = [row | top for row in p.up] + [row << p.n for row in q.up]
    return Poset(p.n + q.n, up)


def refusal(call):
    """The type and message of the exception that call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def seeded(seed=0):
    return random.Random(seed)


def python_optimized(code):
    """Run code under python -O, which strips assert statements, with this
    polysat on the path; returns the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(polysat.__file__))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@st.composite
def posets(draw, max_n):
    """Hypothesis strategy: posets with up to max_n elements."""
    n = draw(st.integers(1, max_n))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    keep = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    return closed_poset(n, [pair for pair, kept in zip(pairs, keep) if kept])
