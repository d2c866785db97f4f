import math
import random
from fractions import Fraction

import pytest

from dynadense.model import (
    WeightedHypergraph,
    canonical_edge,
    density,
    log2c,
)
from dynadense.oracles import exact_densest_bruteforce


def triangle_plus():
    g = WeightedHypergraph(3, 3)
    for e in [(0, 1), (1, 2), (0, 2), (0, 1, 2)]:
        g.insert(e)
    return g


class TestDensity:
    def test_single_edge(self):
        g = WeightedHypergraph(5, 2)
        g.insert((1, 3), weight=7)
        assert density(g, {1, 3}) == Fraction(7, 2)

    def test_triangle_plus_full(self):
        assert density(triangle_plus(), {0, 1, 2}) == Fraction(4, 3)

    def test_triangle_plus_pair(self):
        assert density(triangle_plus(), {0, 1}) == Fraction(1, 2)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            density(triangle_plus(), set())

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            density(triangle_plus(), {0, 7})

    def test_scale_equivariance(self):
        rng = random.Random(5)
        base = WeightedHypergraph(8, 3)
        scaled = WeightedHypergraph(8, 3)
        for _ in range(12):
            verts = tuple(rng.sample(range(8), rng.randint(2, 3)))
            w = rng.randint(1, 9)
            base.insert(verts, w)
            scaled.insert(verts, 4 * w)
        for _ in range(20):
            subset = set(rng.sample(range(8), rng.randint(1, 8)))
            assert density(scaled, subset) == 4 * density(base, subset)


class TestCanonicalEdge:
    def test_sorts(self):
        assert canonical_edge([3, 1, 2], 5) == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            canonical_edge([1, 1], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_edge([0, 9], 5)
        with pytest.raises(ValueError):
            canonical_edge([-1, 2], 5)

    def test_rejects_rank_overflow(self):
        with pytest.raises(ValueError):
            canonical_edge([0, 1, 2], 5, r=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_edge([], 5)


class TestGraphRegistry:
    def test_handles_unique_and_deletable(self):
        g = WeightedHypergraph(4, 2)
        h1 = g.insert((0, 1))
        h2 = g.insert((0, 1))
        assert h1 != h2 and len(g) == 2
        g.delete(h1)
        assert h2 in g and h1 not in g
        with pytest.raises(KeyError):
            g.delete(h1)

    def test_rejects_nonpositive_weight(self):
        g = WeightedHypergraph(4, 2)
        with pytest.raises(ValueError):
            g.insert((0, 1), weight=0)


class TestLog2c:
    def test_clamps_below_two(self):
        assert log2c(1.0) == 1.0
        assert log2c(1.99) == 1.0

    def test_exact_above(self):
        assert log2c(8.0) == 3.0
        assert log2c(2.0) == 1.0


def test_optimum_density_bounds():
    # w_max/r <= rho* <= m * w_max on random instances
    rng = random.Random(11)
    for _ in range(15):
        g = WeightedHypergraph(10, 3)
        m = rng.randint(1, 15)
        for _ in range(m):
            verts = tuple(rng.sample(range(10), rng.randint(1, 3)))
            g.insert(verts, rng.randint(1, 6))
        rho = exact_densest_bruteforce(g).best_density
        w_max = g.max_weight()
        assert Fraction(w_max, g.r) <= rho <= m * w_max
