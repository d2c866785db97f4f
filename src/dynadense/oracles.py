"""Ground-truth and baseline densest-subset algorithms.

The exhaustive oracle enumerates every nonempty subset of each
connected component of the support (vertices touched by edges), so it
is exact and independent of the dynamic structures it verifies.
Arithmetic is pure integer / rational; the fast path uses an int64
subset-sum transform and confirms the maximum with exact
cross-multiplication.  The Gray-code path walks every subset of the
whole support instead, as an independent cross-check.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .model import EdgeVerts, WeightedHypergraph

MAX_SUPPORT = 24


@dataclass(frozen=True)
class OracleResult:
    best_set: FrozenSet[int]
    best_density: Fraction


def _support_order(graph: WeightedHypergraph) -> List[int]:
    return sorted(graph.support())


def _lex_key(mask: int, sup: List[int]) -> Tuple[int, ...]:
    return tuple(sup[i] for i in range(len(sup)) if mask >> i & 1)


def _densest_by_transform(
    edges: List[Tuple[EdgeVerts, int]], sup: List[int]
) -> Tuple[int, int, Tuple[int, ...]]:
    """Best (weight, size, smallest sorted tuple) over subsets of ``sup``.

    ``sup`` is sorted and holds every vertex of ``edges``.
    """
    s = len(sup)
    idx = {v: i for i, v in enumerate(sup)}

    # g[mask] accumulates edge weights, then a subset-sum (zeta) transform
    # turns it into total induced weight per subset.  int64 stays exact.
    g = np.zeros(1 << s, dtype=np.int64)
    for verts, weight in edges:
        mask = 0
        for v in verts:
            mask |= 1 << idx[v]
        g[mask] += weight
    for b in range(s):
        gg = g.reshape(-1, 2, 1 << b)
        gg[:, 1, :] += gg[:, 0, :]

    sizes = np.zeros(1 << s, dtype=np.int64)
    for b in range(s):
        sizes += (np.arange(1 << s) >> b) & 1

    vals = g[1:].astype(np.float64) / sizes[1:]
    best_float = vals.max()
    # Exact confirmation among float near-maximizers.
    cand = np.nonzero(vals >= best_float * (1.0 - 1e-9) - 1e-12)[0] + 1
    best_mask = None
    best_num = 0
    best_den = 1
    for mask in cand.tolist():
        num, den = int(g[mask]), int(sizes[mask])
        cmp = num * best_den - best_num * den
        if best_mask is None or cmp > 0 or (
            cmp == 0 and _lex_key(mask, sup) < _lex_key(best_mask, sup)
        ):
            best_mask, best_num, best_den = mask, num, den
    assert best_mask is not None
    return best_num, best_den, _lex_key(best_mask, sup)


def exact_densest_bruteforce(graph: WeightedHypergraph) -> OracleResult:
    """Exact densest subset, enumerating each connected component's subsets.

    A subset's density is the size-weighted average of its parts' in the
    components it meets, so the optimum lies in one component, and the
    maximizers are the unions of maximizers of the components that reach
    it.  When several do, their union is enumerated once more, so ties
    still resolve to the lexicographically smallest vertex set.  Raises
    on empty graphs or supports above MAX_SUPPORT vertices.
    """
    sup = _support_order(graph)
    s = len(sup)
    if s == 0:
        raise ValueError("exact oracle needs a nonempty hypergraph")
    if s > MAX_SUPPORT:
        raise ValueError(f"support size {s} exceeds oracle limit {MAX_SUPPORT}")

    # union-find over the support; each edge joins its vertices
    root = {v: v for v in sup}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    edges = [(verts, weight) for _, verts, weight in graph.edges()]
    for verts, _ in edges:
        a = find(verts[0])
        for v in verts[1:]:
            b = find(v)
            if b != a:
                root[b] = a
    comp_verts: Dict[int, List[int]] = {}
    for v in sup:  # sorted, so each component's list is sorted
        comp_verts.setdefault(find(v), []).append(v)
    comp_edges: Dict[int, List[Tuple[EdgeVerts, int]]] = {c: [] for c in comp_verts}
    for e in edges:
        comp_edges[find(e[0][0])].append(e)

    best_num, best_den, best_set = 0, 1, ()
    tied: List[int] = []
    for c, verts in comp_verts.items():
        num, den, key = _densest_by_transform(comp_edges[c], verts)
        cmp = num * best_den - best_num * den
        if cmp > 0:
            best_num, best_den, best_set, tied = num, den, key, [c]
        elif cmp == 0:
            tied.append(c)
    if len(tied) > 1:
        _, _, best_set = _densest_by_transform(
            [e for c in tied for e in comp_edges[c]],
            sorted(v for c in tied for v in comp_verts[c]),
        )
    return OracleResult(frozenset(best_set), Fraction(best_num, best_den))


def exact_densest_graycode(graph: WeightedHypergraph) -> OracleResult:
    """Second independent oracle path: Gray-code subset walk.

    Maintains the induced edge weight incrementally as one vertex flips
    per step.  Pure Python integers throughout; used to cross-check the
    transform-based path on small instances.
    """
    sup = _support_order(graph)
    s = len(sup)
    if s == 0:
        raise ValueError("exact oracle needs a nonempty hypergraph")
    if s > 20:
        raise ValueError(f"gray-code oracle limited to 20 support vertices, got {s}")
    idx = {v: i for i, v in enumerate(sup)}
    incident: List[List[Tuple[int, int]]] = [[] for _ in range(s)]  # bit -> (edge mask, w)
    for _, verts, weight in graph.edges():
        mask = 0
        for v in verts:
            mask |= 1 << idx[v]
        for v in verts:
            incident[idx[v]].append((mask, weight))

    cur_mask = 0
    cur_weight = 0
    best_mask = None
    best_num = 0
    best_den = 1
    for k in range(1, 1 << s):
        bit = (k & -k).bit_length() - 1  # Gray code flips this bit
        flipping_in = not (cur_mask >> bit & 1)
        if flipping_in:
            cur_mask |= 1 << bit
            for emask, w in incident[bit]:
                if cur_mask & emask == emask:
                    cur_weight += w
        else:
            for emask, w in incident[bit]:
                if cur_mask & emask == emask:
                    cur_weight -= w
            cur_mask &= ~(1 << bit)
        size = cur_mask.bit_count()
        cmp = cur_weight * best_den - best_num * size
        if best_mask is None or cmp > 0 or (
            cmp == 0 and _lex_key(cur_mask, sup) < _lex_key(best_mask, sup)
        ):
            best_mask, best_num, best_den = cur_mask, cur_weight, size
    assert best_mask is not None
    return OracleResult(frozenset(_lex_key(best_mask, sup)), Fraction(best_num, best_den))


def greedy_peel(graph: WeightedHypergraph) -> OracleResult:
    """Peeling baseline: repeatedly drop the min-weighted-degree vertex.

    Returns the best-density prefix of the peeling order.  No
    approximation guarantee is claimed for hypergraphs; on rank-2
    inputs this is the classical 2-approximation.
    """
    if len(graph) == 0:
        raise ValueError("greedy peel needs a nonempty hypergraph")
    live_edges = {h: (set(verts), w) for h, verts, w in graph.edges()}
    alive = graph.support()
    deg = {v: 0 for v in alive}
    incident = {v: set() for v in alive}
    for h, (verts, w) in live_edges.items():
        for v in verts:
            deg[v] += w
            incident[v].add(h)
    total = sum(w for _, w in live_edges.values())

    best_set = frozenset(alive)
    best_num, best_den = total, len(alive)
    # lazy min-heap over (weighted degree, vertex): stale entries are
    # re-pushed on every decrement and discarded on pop, preserving the
    # exact (deg, id) tie-breaking of a linear scan
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    while len(alive) > 1:
        d, v = heapq.heappop(heap)
        while v not in alive or deg[v] != d:
            d, v = heapq.heappop(heap)
        alive.remove(v)
        for h in list(incident[v]):
            verts, w = live_edges.pop(h)
            total -= w
            for u in verts:
                deg[u] -= w
                if u != v:
                    incident[u].discard(h)
                    heapq.heappush(heap, (deg[u], u))
        incident[v].clear()
        if total * best_den > best_num * len(alive):
            best_set = frozenset(alive)
            best_num, best_den = total, len(alive)
    return OracleResult(best_set, Fraction(best_num, best_den))
