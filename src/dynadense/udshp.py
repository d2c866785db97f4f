"""Ensemble of HOP copies answering unweighted densest-subset queries.

Keeps one HOP instance per power-of-two guess of the maximum load, an
active index bracketing the true maximum, and per-copy pending lists
for edges withheld from overloaded low-guess copies.  Each logical edge
is duplicated a configured number of times so the active copy operates
in the regime where its slack is at least 1.

Each fact lives in one place: a copy's Hop records which internal
handles the copy holds, its pending list which ones it withholds, and
the public table maps a handle to its vertex set and the contiguous
range of internal handles behind it.  Only copies below the active index
withhold edges, so the top copy holds every live internal handle.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Set, Tuple

from .hop import Hop
from .model import EdgeVerts, canonical_edge, log2c

DUPLICATION_CONSTANT = 64.0


class Udshp:
    """Fully dynamic (1+epsilon)-approximate densest subset, unit weights.

    w_star is a promised lower bound on the max edge multiplicity of the
    inputs; larger promises shrink the duplication factor.  The
    duplication constant is configurable for desk-scale runs (default
    matches the conservative analysis constant).  ``insert(verts, c)``
    adds c unit copies of one edge under one handle, which is how an
    integer weight c enters a unit-weight structure.
    """

    def __init__(
        self,
        n: int,
        m_bound: int,
        r: int,
        epsilon: float,
        w_star: float = 1.0,
        dup_constant: float = DUPLICATION_CONSTANT,
        slack_constant: float = 32.0,
    ) -> None:
        if m_bound < 1:
            raise ValueError("m_bound must be at least 1")
        if w_star < 1:
            raise ValueError("w_star must be at least 1")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        self.n = n
        self.m_bound = m_bound
        self.r = r
        self.epsilon = epsilon
        self.w_star = w_star
        self.dup = max(
            math.ceil(dup_constant * r * log2c(n) / (epsilon * epsilon * w_star)), 1
        )
        self.num_copies = max(math.ceil(math.log2(m_bound * self.dup)), 1)
        self.slack_constant = slack_constant
        self.copies: Dict[int, Hop] = {}
        for i in range(1, self.num_copies + 1):
            d_tilde = float(2 ** (i - 1))
            eta = epsilon * epsilon * d_tilde / (slack_constant * log2c(n))
            # slack below 1 cannot govern integral loads; clamp (the
            # duplication factor is what makes the active copy's slack
            # meaningful at the analysis scale)
            self.copies[i] = Hop(n, epsilon, d_tilde, eta_override=max(eta, 1.0))
        self.active = 0
        # per copy: FIFO pending handles withheld from that copy
        self._pending: Dict[int, Dict[int, EdgeVerts]] = {i: {} for i in self.copies}
        # public handle -> (vertex set, its internal handles)
        self._public: Dict[int, Tuple[EdgeVerts, range]] = {}
        self._next_public = 0
        self._next_internal = 0

    # -- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        """Live unit copies (a handle inserted with ``copies=c`` counts c)."""
        return self.live_internal_count() // self.dup

    def __contains__(self, handle: int) -> bool:
        return handle in self._public

    def live_internal_count(self) -> int:
        # the top copy is never below the active index, so it withholds nothing
        return len(self.copies[self.num_copies])

    def d_tilde(self, i: int) -> int:
        return 2 ** (i - 1)

    def _query_copy_index(self) -> int:
        return max(self.active, 1)

    # -- active index maintenance --------------------------------------

    def _advance_active(self) -> None:
        while self.active < self.num_copies:
            probe = max(self.active, 1)
            if self.copies[probe].max_in_degree() >= 2 ** self.active:
                self.active += 1
            else:
                break

    def _retreat_active(self) -> None:
        while (
            self.active >= 1
            and self.copies[self.active].max_in_degree() <= 2 ** (self.active - 1)
        ):
            self.active -= 1

    # -- internal fan-out ----------------------------------------------

    def _insert_internal(self, handle: int, verts: EdgeVerts) -> None:
        self._advance_active()
        active = self.active
        for j, copy in self.copies.items():
            if j < active and min(copy.d_in(u) for u in verts) >= 2 * self.d_tilde(j):
                self._pending[j][handle] = verts
            else:
                copy.insert(handle, verts)

    def _delete_internal(self, handle: int) -> None:
        self._retreat_active()
        active = self.active
        for j, copy in self.copies.items():
            pending = self._pending[j]
            if pending.pop(handle, None) is not None:
                continue
            head = copy.head_of(handle)
            copy.delete(handle)
            if j > active or not pending:
                continue
            # deleting freed capacity at this copy's head vertex: pull in the
            # first pending edge containing that head, if any
            swap = next((h2 for h2, v2 in pending.items() if head in v2), None)
            if swap is not None:
                copy.insert(swap, pending.pop(swap))

    # -- public operations ---------------------------------------------

    def insert(self, vertices: Iterable[int], copies: int = 1) -> int:
        """Insert ``copies`` unit copies of one edge under one handle."""
        verts = canonical_edge(vertices, self.n, self.r)
        if copies < 1:
            raise ValueError(f"copies must be at least 1, got {copies}")
        units = copies * self.dup
        if self.live_internal_count() + units > self.m_bound * self.dup:
            raise ValueError(
                f"capacity exceeded: m_bound={self.m_bound} logical edges"
            )
        handle = self._next_public
        self._next_public += 1
        first = self._next_internal
        self._next_internal += units
        internals = range(first, first + units)
        for ih in internals:
            self._insert_internal(ih, verts)
        self._public[handle] = (verts, internals)
        return handle

    def delete(self, handle: int) -> None:
        if handle not in self._public:
            raise ValueError(f"unknown edge handle {handle}")
        _, internals = self._public.pop(handle)
        for ih in internals:
            self._delete_internal(ih)

    def max_density(self) -> float:
        """Current (1+eps)-approximate max density of the logical multiset."""
        if not self._public:
            return 0.0
        return self.copies[self._query_copy_index()].query_density() / self.dup

    def densest_subset(self) -> Set[int]:
        if not self._public:
            raise ValueError("densest-subset query on an empty structure")
        return self.copies[self._query_copy_index()].query_subset()

    # -- invariant checks (test support) -------------------------------

    def check_wrapper_invariants(self, strict_above_active: bool = True) -> None:
        """Inserted/pending bookkeeping must partition the live edge set.

        With strict_above_active, copies above the active index must hold
        every live edge with nothing pending; that holds whenever the
        active index has never retreated past a copy with pending edges
        (e.g. insertion-only runs).
        """
        live = {ih for _, internals in self._public.values() for ih in internals}
        for j, copy in self.copies.items():
            inserted = {h for h, _ in copy.edges()}
            pending = set(self._pending[j])
            assert not (inserted & pending), f"copy {j}: handle both live and pending"
            assert inserted | pending == live, (
                f"copy {j}: inserted+pending diverged from live set"
            )
            if strict_above_active and j > self.active:
                assert not pending, (
                    f"copy {j} above active={self.active} must hold all live edges"
                )
