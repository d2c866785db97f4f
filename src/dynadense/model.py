"""Shared hypergraph value types and exact density arithmetic.

Vertices are plain ints in [0, n).  A hyperedge is a sorted tuple of
distinct vertex ids.  Edge handles are opaque ints, unique per graph
instance and never reused, so multi-hypergraphs support deletion of a
specific copy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Set, Tuple

EdgeVerts = Tuple[int, ...]


def log2c(x: float) -> float:
    """Base-2 logarithm, clamped to 1 for arguments below 2.

    All polylog factors in this package go through here; the clamp keeps
    tiny test instances well-defined (no division by log of 1).
    """
    return 1.0 if x < 2.0 else math.log2(x)


def canonical_edge(vertices: Iterable[int], n: int, r: int | None = None) -> EdgeVerts:
    """Validate and canonicalize a hyperedge as a sorted distinct tuple.

    Rejects empty edges, repeated vertices, out-of-range ids and (when
    ``r`` is given) edges above the rank bound.
    """
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("hyperedge needs at least one vertex")
    for a, b in zip(verts, verts[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in hyperedge {verts}")
    if verts[0] < 0 or verts[-1] >= n:
        raise ValueError(f"vertex out of range [0, {n}) in hyperedge {verts}")
    if r is not None and len(verts) > r:
        raise ValueError(f"hyperedge {verts} exceeds rank bound {r}")
    return verts


class WeightedHypergraph:
    """Mutable multiset of weighted hyperedges keyed by unique handles.

    Weights are positive integers.  Single-writer; snapshots handed to
    the oracles should not be mutated concurrently.
    """

    def __init__(self, n: int, r: int):
        if n <= 0 or r <= 0:
            raise ValueError("n and r must be positive")
        self.n = n
        self.r = r
        self._edges: Dict[int, Tuple[EdgeVerts, int]] = {}
        self._next_handle = 0

    def insert(self, vertices: Iterable[int], weight: int = 1) -> int:
        if weight < 1 or weight != int(weight):
            raise ValueError(f"weight must be a positive integer, got {weight!r}")
        verts = canonical_edge(vertices, self.n, self.r)
        handle = self._next_handle
        self._next_handle += 1
        self._edges[handle] = (verts, int(weight))
        return handle

    def delete(self, handle: int) -> None:
        if handle not in self._edges:
            raise KeyError(f"unknown edge handle {handle}")
        del self._edges[handle]

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, handle: int) -> bool:
        return handle in self._edges

    def edges(self) -> Iterator[Tuple[int, EdgeVerts, int]]:
        for handle, (verts, weight) in self._edges.items():
            yield handle, verts, weight

    def verts_of(self, handle: int) -> EdgeVerts:
        return self._edges[handle][0]

    def weight_of(self, handle: int) -> int:
        return self._edges[handle][1]

    def support(self) -> Set[int]:
        """Vertices touched by at least one live edge."""
        out: Set[int] = set()
        for verts, _ in self._edges.values():
            out.update(verts)
        return out

    def max_weight(self) -> int:
        return max((w for _, w in self._edges.values()), default=0)


def density(graph: WeightedHypergraph, subset: Iterable[int]) -> Fraction:
    """Exact density of ``subset``: induced edge weight over subset size."""
    verts = set(subset)
    if not verts:
        raise ValueError("density of the empty vertex set is undefined")
    for v in verts:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range [0, {graph.n})")
    total = 0
    for _, edge, weight in graph.edges():
        if verts.issuperset(edge):
            total += weight
    return Fraction(total, len(verts))


def max_multiplicity(graph: WeightedHypergraph) -> int:
    """Largest total weight carried by a single distinct vertex set.

    Equals the max multiplicity of an edge in the unweighted expansion
    where each edge of weight w stands for w unit copies.
    """
    by_set: Dict[EdgeVerts, int] = {}
    for _, edge, weight in graph.edges():
        by_set[edge] = by_set.get(edge, 0) + weight
    return max(by_set.values(), default=0)
