"""Poset's check, cover_relations and chain_lengths walk covers only; the
pair walks they replaced, in oracles, are the reference."""

import time

import pytest

from polysat import build_pj, chain_poset, enumerate_posets, from_delta, io
from polysat.errors import IndexOutOfRange
from polysat.poset import Poset, bits, chain_lengths, cover_relations, height
from oracles import chain_lengths_pairs, cover_relations_pairs, down_rows_pairs
from test_construct import all_valid_deltas
from util import random_poset, seeded


def sample_posets():
    for n in range(1, 7):
        yield from enumerate_posets(n)
    rng = seeded(20)
    for _ in range(200):
        yield random_poset(rng, rng.randint(1, 40), rng.uniform(0.05, 0.5))
    for j in range(1, 13):
        yield build_pj(j)[0]
    for b in all_valid_deltas(6, 18):
        yield from_delta(b)


def test_cover_walks_match_pair_walks():
    for p in sample_posets():
        assert p.down == down_rows_pairs(p.n, p.up)
        assert cover_relations(p) == cover_relations_pairs(p)
        assert chain_lengths(p) == chain_lengths_pairs(p)


def test_clearing_an_implied_pair_breaks_transitivity():
    rng = seeded(21)
    cleared = 0
    for _ in range(30):
        p = random_poset(rng, rng.randint(3, 14), rng.uniform(0.2, 0.6))
        covers = set(cover_relations(p))
        for x in range(p.n):
            for z in bits(p.up[x]):
                if (x, z) in covers:
                    continue
                up = list(p.up)
                up[x] &= ~(1 << z)
                with pytest.raises(ValueError, match="not transitive"):
                    Poset(p.n, up)
                cleared += 1
    assert cleared > 100


def test_unclosed_rows_raise_exactly_when_the_pair_walk_does():
    rng = seeded(22)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        prob = rng.uniform(0.05, 0.4)
        up = [
            sum(1 << y for y in range(x + 1, n) if rng.random() < prob)
            for x in range(n)
        ]
        try:
            down = down_rows_pairs(n, up)
        except ValueError:
            with pytest.raises(ValueError, match="not transitive"):
                Poset(n, up)
            outcomes.add("raised")
        else:
            assert Poset(n, up).down == down
            outcomes.add("built")
    assert outcomes == {"raised", "built"}


def test_negative_row_is_refused_before_the_walk():
    # The walk would never empty a negative row.
    with pytest.raises(IndexOutOfRange):
        Poset(3, [0, -4, 0])


def test_chain_and_tower_at_max_n_build_in_milliseconds():
    text = io.dumps(chain_poset(io.MAX_N))
    start = time.perf_counter()
    p = io.loads(text)
    again = io.dumps(p)
    tall = height(p)
    build_pj(60)
    elapsed = time.perf_counter() - start
    assert again == text and tall == io.MAX_N
    # The pair walks took 3.4-3.6 s on a 2-core Xeon; the cover walks, ms.
    assert elapsed < 0.5
