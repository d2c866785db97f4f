"""Randomized weighted-to-unweighted reduction for densest subsets.

A geometric grid of density guesses covers the feasible range; for each
guess, unweighted copies of every inserted edge are drawn binomially at
the guess's sparsification rate and fed to an unweighted ensemble.
Guesses at rate 1 draw no sample (every copy is kept), so they see the
same input and share one ensemble; each sub-unit-rate guess has its own.
Queries pick the largest guess whose sampled structure is still dense
and rescale its answer back to the weighted instance.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .model import EdgeVerts, canonical_edge, log2c
from .udshp import DUPLICATION_CONSTANT, Udshp


def epsilon_from_delta(delta: float) -> float:
    """Largest eps <= delta/5 with (1-2eps)/(1+eps)^3 >= 1/(1+delta).

    Found by bisection; falls back to delta/8 if even tiny eps fail
    (cannot happen for delta in (0,1), kept as a guard).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")

    def ok(e: float) -> bool:
        return (1.0 - 2.0 * e) * (1.0 + delta) >= (1.0 + e) ** 3

    hi = delta / 5.0
    if ok(hi):
        return hi
    lo = 1e-9
    if not ok(lo):
        return delta / 8.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


class Wdshp:
    """Fully dynamic (1+delta)-approximate weighted densest subset.

    w_max is a hard promise on edge weights; the sampling constant c and
    the inner duplication constant are configurable for desk-scale runs.
    One root seed drives all per-(guess, weight-class) sampler streams,
    so runs replay exactly.
    """

    def __init__(
        self,
        n: int,
        m_bound: int,
        r: int,
        delta: float,
        w_max: int,
        c: float = 8.0,
        seed: int = 0,
        dup_constant: float = DUPLICATION_CONSTANT,
    ) -> None:
        if w_max < 1:
            raise ValueError("w_max must be at least 1")
        if m_bound < 1:
            raise ValueError("m_bound must be at least 1")
        self.n = n
        self.m_bound = m_bound
        self.r = r
        self.delta = delta
        self.epsilon = epsilon_from_delta(delta)
        self.w_max = w_max
        self.c = c

        eps = self.epsilon
        self.num_guesses = math.ceil(math.log(r * m_bound) / math.log1p(eps)) + 1
        self.rho_guesses = [
            (w_max / r) * (1.0 + eps) ** i for i in range(self.num_guesses)
        ]
        logn = log2c(n)
        self.q = [
            min(c * logn / (eps * eps * rho), 1.0) for rho in self.rho_guesses
        ]
        self.num_weight_classes = math.ceil(math.log(w_max) / math.log1p(eps)) + 1 if w_max > 1 else 1
        self.class_sizes = [
            int(math.floor((1.0 + eps) ** j)) for j in range(self.num_weight_classes)
        ]
        s_max = max(self.class_sizes)

        # per-(guess, weight-class) sampler streams, spawned from one root
        # and built on a cell's first sub-unit-rate draw
        self._root = np.random.SeedSequence(seed)
        self._rngs: Dict[int, np.random.Generator] = {}

        # rate-1 guesses get identical input and identical parameters, so
        # one ensemble stands for all of them; ensembles[i] aliases it
        self.ensembles: List[Udshp] = []
        # (representative guess, ensemble) per distinct ensemble
        self._distinct: List[Tuple[int, Udshp]] = []
        shared: Optional[Udshp] = None
        for i in range(self.num_guesses):
            if self.q[i] >= 1.0 and shared is not None:
                self.ensembles.append(shared)
                continue
            w_star = max(w_max * self.q[i] / 2.0, 1.0)
            ensemble = Udshp(
                n,
                m_bound=m_bound * s_max,
                r=r,
                epsilon=eps,
                w_star=w_star,
                dup_constant=dup_constant,
            )
            if self.q[i] >= 1.0:
                shared = ensemble
            self.ensembles.append(ensemble)
            self._distinct.append((i, ensemble))
        # per public handle: weight and, per distinct ensemble, the inner
        # handle of the copies drawn (None when the draw was 0)
        self._registry: Dict[int, Tuple[EdgeVerts, int, List[Optional[int]]]] = {}
        self._next_handle = 0

    # -- sampling ------------------------------------------------------

    def sample_count(self, i: int, j: int) -> int:
        """One exact draw from Bin(floor((1+eps)^j), q_i)."""
        if not 0 <= i < self.num_guesses:
            raise ValueError(f"guess index {i} out of range")
        if not 0 <= j < self.num_weight_classes:
            raise ValueError(f"weight-class index {j} out of range")
        size = self.class_sizes[j]
        q = self.q[i]
        if q >= 1.0:
            return size
        if q <= 0.0:
            return 0
        cell = i * self.num_weight_classes + j
        rng = self._rngs.get(cell)
        if rng is None:
            # the child SeedSequence.spawn would hand out at index ``cell``
            child = np.random.SeedSequence(
                self._root.entropy,
                spawn_key=self._root.spawn_key + (cell,),
                pool_size=self._root.pool_size,
            )
            rng = self._rngs[cell] = np.random.Generator(np.random.PCG64(child))
        return int(rng.binomial(size, q))

    def weight_class(self, weight: int) -> int:
        if weight <= 1:
            return 0
        return math.ceil(math.log(weight) / math.log1p(self.epsilon) - 1e-12)

    # -- updates -------------------------------------------------------

    def insert(self, vertices: Iterable[int], weight: int) -> int:
        verts = canonical_edge(vertices, self.n, self.r)
        if not 1 <= weight <= self.w_max:
            raise ValueError(
                f"weight {weight} outside the promised range [1, {self.w_max}]"
            )
        j = self.weight_class(weight)
        per_ensemble: List[Optional[int]] = []
        for i, ensemble in self._distinct:
            s = self.sample_count(i, j)
            per_ensemble.append(ensemble.insert(verts, s) if s else None)
        handle = self._next_handle
        self._next_handle += 1
        self._registry[handle] = (verts, weight, per_ensemble)
        return handle

    def delete(self, handle: int) -> None:
        if handle not in self._registry:
            raise ValueError(f"unknown edge handle {handle}")
        _, _, per_ensemble = self._registry.pop(handle)
        for (_, ensemble), inner in zip(self._distinct, per_ensemble):
            if inner is not None:
                ensemble.delete(inner)

    def __len__(self) -> int:
        return len(self._registry)

    def __contains__(self, handle: int) -> bool:
        return handle in self._registry

    # -- queries -------------------------------------------------------

    def _qualifies(self, i: int) -> bool:
        """Sampled density still at the level a correct guess induces.

        The threshold is (1-eps) * q_i * rho_i: for sub-unit sampling
        rates this is the usual (1-eps) * c * eps^-2 * log n level; for
        rate-1 guesses (no sparsification) it degenerates to the direct
        comparison against the guess itself.
        """
        threshold = (1.0 - self.epsilon) * self.q[i] * self.rho_guesses[i]
        return self.ensembles[i].max_density() >= threshold

    def _select_guess(self) -> Optional[int]:
        """Largest qualifying guess index by binary search; the predicate
        is monotone off a negligible-probability event."""
        if not self._qualifies(0):
            return None
        lo, hi = 0, self.num_guesses - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._qualifies(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def max_density(self) -> float:
        """(1+delta)-approximate weighted max density, whp.

        The guess grid starts at w_max/r, where w_max is the promised
        bound; when the true optimum sits below the lowest guess no
        guess qualifies, and the unsampled (rate-1) lowest ensemble —
        which holds the exact rounded expansion — answers directly.
        """
        if not self._registry:
            return 0.0
        i_star = self._select_guess()
        eps = self.epsilon
        if i_star is None:
            if self.q[0] >= 1.0:
                return self.ensembles[0].max_density() / (1.0 + eps)
            return 0.0
        return (1.0 - 2.0 * eps) / (1.0 + eps) * self.rho_guesses[i_star]

    def densest_subset(self, mode: str = "theory") -> Set[int]:
        if not self._registry:
            raise ValueError("densest-subset query on an empty structure")
        i_star = self._select_guess()
        if i_star is None:
            if self.q[0] >= 1.0:
                return self.ensembles[0].densest_subset(mode)
            raise ValueError("no density guess qualifies; structure too sparse")
        return self.ensembles[i_star].densest_subset(mode)
