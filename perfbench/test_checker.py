"""The benchmark's exact checker agrees with the package's brute-force oracle.

Run with:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import check_point, exact_densest, subset_density, merge  # noqa: E402
from dynadense.model import WeightedHypergraph  # noqa: E402
from dynadense.oracles import exact_densest_bruteforce  # noqa: E402


def _random_edges(rng: random.Random, n: int, m: int, r: int, w_max: int):
    edges = []
    for _ in range(m):
        k = rng.randint(1, r)
        edges.append((tuple(sorted(rng.sample(range(n), k))), rng.randint(1, w_max)))
    return edges


@pytest.mark.parametrize("seed", range(300))
def test_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    edges = _random_edges(rng, n, rng.randint(1, 30), min(4, n), rng.choice((1, 1, 5)))
    graph = WeightedHypergraph(n, 4)
    for verts, w in edges:
        graph.insert(verts, w)
    rho, best = exact_densest(edges)
    assert rho == exact_densest_bruteforce(graph).best_density
    assert subset_density(merge(edges), set(best)) == rho


def test_planted_core_found_past_bruteforce_limit():
    rng = random.Random(1)
    core = list(range(8))
    edges = [(tuple(sorted(rng.sample(core, 3))), 1) for _ in range(60)]
    edges += _random_edges(rng, 400, 300, 3, 1)
    rho, best = exact_densest(edges)
    assert rho >= subset_density(merge(edges), set(core))
    assert set(best) <= set(range(400))


def test_check_point_sandwich():
    edges = [((0, 1), 1), ((1, 2), 1), ((0, 2), 1)]  # triangle, rho* = 1
    ok = check_point(edges, 0.9, {0, 1, 2}, slack=0.3)
    assert ok["ok"] and ok["consistent"] and ok["rho"] == 1.0
    assert not check_point(edges, 1.1, {0, 1, 2}, slack=0.3)["ok"]
    assert not check_point(edges, 0.9, {0, 1}, slack=0.3)["ok"]
