import random
from fractions import Fraction

import pytest

from dynadense.model import WeightedHypergraph, density
from dynadense.oracles import (
    exact_densest_bruteforce,
    exact_densest_graycode,
    greedy_peel,
)


def random_instance(rng, n=9, max_edges=14, min_rank=1, max_rank=3, max_weight=5):
    g = WeightedHypergraph(n, max_rank)
    for _ in range(rng.randint(1, max_edges)):
        verts = tuple(rng.sample(range(n), rng.randint(min_rank, max_rank)))
        g.insert(verts, rng.randint(1, max_weight))
    return g


class TestExact:
    def test_single_edge(self):
        g = WeightedHypergraph(6, 2)
        g.insert((2, 4), weight=9)
        res = exact_densest_bruteforce(g)
        assert res.best_set == {2, 4}
        assert res.best_density == Fraction(9, 2)

    def test_triangle_plus(self):
        g = WeightedHypergraph(3, 3)
        for e in [(0, 1), (1, 2), (0, 2), (0, 1, 2)]:
            g.insert(e)
        res = exact_densest_bruteforce(g)
        assert res.best_set == {0, 1, 2}
        assert res.best_density == Fraction(4, 3)

    def test_heavy_pair_dominates(self):
        g = WeightedHypergraph(5, 2)
        g.insert((0, 1), weight=10)
        g.insert((2, 3))
        g.insert((3, 4))
        res = exact_densest_bruteforce(g)
        assert res.best_set == {0, 1}
        assert res.best_density == Fraction(5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_densest_bruteforce(WeightedHypergraph(4, 2))

    def test_support_limit(self):
        g = WeightedHypergraph(30, 2)
        for v in range(0, 30, 2):
            g.insert((v, v + 1))
        with pytest.raises(ValueError):
            exact_densest_bruteforce(g)

    def test_tie_across_components_resolves_to_their_union(self):
        # {1, 5} and {2, 3} are both at density 1/2, and so is their
        # union, whose sorted tuple (1, 2, 3, 5) is the smallest of the three
        g = WeightedHypergraph(6, 2)
        g.insert((1, 5))
        g.insert((2, 3))
        res = exact_densest_bruteforce(g)
        assert res.best_set == {1, 2, 3, 5}
        assert res.best_density == Fraction(1, 2)

    def test_tie_across_components_won_by_one_of_them(self):
        # (0, 1) is a prefix of (0, 1, 2, 3), so the union loses the tie;
        # the component {4, 5} is below the best density and is left out
        g = WeightedHypergraph(6, 2)
        g.insert((2, 3), weight=2)
        g.insert((4, 5))
        g.insert((0, 1), weight=2)
        res = exact_densest_bruteforce(g)
        assert res.best_set == {0, 1}
        assert res.best_density == Fraction(1)

    def test_result_is_achievable_density(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_instance(rng)
            res = exact_densest_bruteforce(g)
            assert density(g, res.best_set) == res.best_density


def test_two_paths_agree_on_100_random_instances():
    rng = random.Random(42)
    for _ in range(100):
        g = random_instance(rng)
        a = exact_densest_bruteforce(g)
        b = exact_densest_graycode(g)
        assert a.best_density == b.best_density
        assert a.best_set == b.best_set


def block_instance(rng, n=16):
    """Disjoint blocks of a shuffled vertex range, many of them relabelled
    copies of the block before, so that components tie on density."""
    g = WeightedHypergraph(n, 3)
    perm = rng.sample(range(n), n)
    pos = 0
    proto = None
    while pos < n and (proto is None or rng.random() < 0.9):
        size = rng.randint(1, min(4, n - pos))
        block = perm[pos:pos + size]
        pos += size
        if proto is None or proto[0] != size or rng.random() < 0.5:
            edges = []
            for _ in range(rng.randint(1, 4)):
                local = rng.sample(range(size), rng.randint(1, min(3, size)))
                edges.append((local, rng.randint(1, 3)))
            proto = (size, edges)
        for local, weight in proto[1]:
            g.insert([block[i] for i in local], weight)
    return g


def test_two_paths_agree_on_100_instances_of_disjoint_blocks():
    rng = random.Random(43)
    for _ in range(100):
        g = block_instance(rng)
        a = exact_densest_bruteforce(g)
        b = exact_densest_graycode(g)
        assert a.best_density == b.best_density
        assert a.best_set == b.best_set


class TestGreedy:
    def test_single_edge(self):
        g = WeightedHypergraph(4, 3)
        g.insert((0, 2, 3))
        res = greedy_peel(g)
        assert res.best_set == {0, 2, 3}
        assert res.best_density == Fraction(1, 3)

    def test_never_beats_exact_and_rank_bound(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_instance(rng)
            exact = exact_densest_bruteforce(g).best_density
            greedy = greedy_peel(g).best_density
            assert 0 < greedy <= exact
            assert greedy >= exact / g.r

    def test_rank2_half_guarantee(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_instance(rng, min_rank=2, max_rank=2)
            exact = exact_densest_bruteforce(g).best_density
            greedy = greedy_peel(g).best_density
            assert greedy >= exact / 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            greedy_peel(WeightedHypergraph(4, 2))
