"""Exact reference for the benchmark: the maximum density rho* of a snapshot.

Dinkelbach iteration over an integer max-flow (Goldberg's reduction,
extended to hyperedges): for a guess lambda = p/q, the closure problem

    max_S  q * w(E[S]) - p * |S|

is a minimum source/sink cut in the network source -> edge (cap q*w_e),
edge -> member (cap inf), vertex -> sink (cap p).  A positive optimum
yields a strictly denser set, which becomes the next guess; an optimum
of zero certifies lambda = rho*.  All arithmetic is integral, so the
result is an exact Fraction.

Before each cut the graph is peeled to the vertices whose induced
weighted degree is at least the current lower bound: every member v of
a densest set S has deg_S(v) >= rho(S), so the peel never removes one.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

Edge = Tuple[Tuple[int, ...], int]  # (sorted vertex tuple, positive weight)
_INT32_MAX = 2**31 - 1


def merge(edges: Iterable[Edge]) -> Dict[Tuple[int, ...], int]:
    """Total weight per distinct vertex set."""
    out: Dict[Tuple[int, ...], int] = defaultdict(int)
    for verts, w in edges:
        out[verts] += w
    return out


def subset_density(edges: Dict[Tuple[int, ...], int], subset: Set[int]) -> Fraction:
    if not subset:
        raise ValueError("density of the empty set is undefined")
    total = sum(w for verts, w in edges.items() if subset.issuperset(verts))
    return Fraction(total, len(subset))


def _peel(edges: Dict[Tuple[int, ...], int], bound: Fraction) -> Dict[Tuple[int, ...], int]:
    """Drop vertices of induced weighted degree below ``bound``, repeatedly."""
    deg: Dict[int, int] = defaultdict(int)
    incident: Dict[int, list] = defaultdict(list)
    for verts, w in edges.items():
        for v in verts:
            deg[v] += w
            incident[v].append(verts)
    alive = dict(edges)
    queue = [v for v, d in deg.items() if d < bound]
    removed: Set[int] = set(queue)
    while queue:
        v = queue.pop()
        for verts in incident[v]:
            w = alive.pop(verts, None)
            if w is None:
                continue
            for u in verts:
                if u not in removed:
                    deg[u] -= w
                    if deg[u] < bound:
                        removed.add(u)
                        queue.append(u)
    return alive


def _best_closure(
    edges: Dict[Tuple[int, ...], int], lam: Fraction
) -> Tuple[int, FrozenSet[int]]:
    """Max of q*w(E[S]) - p*|S| over vertex sets S, and a maximiser."""
    p, q = lam.numerator, lam.denominator
    verts = sorted({v for e in edges for v in e})
    vidx = {v: i for i, v in enumerate(verts)}
    m, nv = len(edges), len(verts)
    source, sink = 0, 1 + m + nv
    total = q * sum(edges.values())
    inf = total + 1
    if inf > _INT32_MAX or p > _INT32_MAX:
        raise OverflowError("flow capacities exceed int32")
    rows, cols, caps = [], [], []
    for k, (e, w) in enumerate(edges.items()):
        node = 1 + k
        rows.append(source); cols.append(node); caps.append(q * w)
        for v in e:
            rows.append(node); cols.append(1 + m + vidx[v]); caps.append(inf)
    for i in range(nv):
        rows.append(1 + m + i); cols.append(sink); caps.append(p)
    size = sink + 1
    cap = csr_matrix(
        (np.array(caps, dtype=np.int32), (np.array(rows), np.array(cols))),
        shape=(size, size),
    )
    res = maximum_flow(cap, source, sink, method="dinic")
    residual = (cap - res.flow).tocsr()
    residual.data[residual.data < 0] = 0
    residual.eliminate_zeros()
    reach = breadth_first_order(residual, source, directed=True, return_predecessors=False)
    side = frozenset(verts[i - 1 - m] for i in reach.tolist() if 1 + m <= i < sink)
    return total - int(res.flow_value), side


def exact_densest(edges: Iterable[Edge]) -> Tuple[Fraction, FrozenSet[int]]:
    """Exact rho* and a densest vertex set of a weighted multi-hypergraph."""
    merged = merge(edges)
    if not merged:
        raise ValueError("exact density of an empty hypergraph")
    best = frozenset(v for e in merged for v in e)
    lam = subset_density(merged, set(best))
    while True:
        core = _peel(merged, lam)
        if not core:
            return lam, best
        gain, side = _best_closure(core, lam)
        if gain <= 0 or not side:
            return lam, best
        dens = subset_density(merged, set(side))
        if dens <= lam:
            raise AssertionError("max-flow step did not improve the density")
        lam, best = dens, side


def check_point(
    edges: Sequence[Edge],
    estimate: float,
    subset: Set[int],
    slack: float,
) -> dict:
    """Compare one report against rho*: the (1+slack) sandwich on the
    estimate and on the reported subset's density."""
    merged = merge(edges)
    rho, _ = exact_densest(edges)
    rho_f = float(rho)
    tol = 1e-9 * rho_f
    sub = subset_density(merged, subset) if subset else Fraction(0)
    lower = rho_f / (1.0 + slack)
    est_ok = lower - tol <= estimate <= rho_f + tol
    sub_ok = float(sub) >= lower - tol
    return {
        "rho": rho_f,
        "estimate": estimate,
        "subset_density": float(sub),
        "subset_size": len(subset),
        "rel_error_pct": abs(estimate - rho_f) / rho_f * 100.0,
        "subset_ratio": float(sub) / rho_f,
        "ok": est_ok and sub_ok,
        # the exact optimum bounds every set's density
        "consistent": sub <= rho,
    }
