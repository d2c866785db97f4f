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

Beside each pending list sits an index derived from it: per vertex, the
pending handles containing that vertex, in withhold order, with no empty
bucket.  A delete that frees capacity at a head vertex swaps in the first
handle of that vertex's bucket, which is the first pending edge
containing the head, without scanning the list.

Copies whose slack is equal (the clamped low guesses, slack 1) share one
Hop object, so one insert or delete serves them all.  Sharing is exact:
a Hop's state depends only on its slack and its operations, and a copy
that has never withheld an edge has received every operation, with no
pending edge to swap in.  Sharing copies form a contiguous run, and only
its lowest member can withhold, since it has the smallest threshold over
the same loads.  When it first does, it forks: it takes a clone of the
run's Hop and goes on alone.  A copy never rejoins a run.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set, Tuple

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
        # copies with equal slack share one Hop until one of them forks
        self.copies: Dict[int, Hop] = {}
        hop = None
        for i in range(1, self.num_copies + 1):
            eta = self._slack(i)
            if hop is None or hop.eta != eta:
                hop = Hop(n, epsilon, self.d_tilde(i), eta_override=eta)
            self.copies[i] = hop
        self.active = 0
        # per copy: FIFO pending handles withheld from that copy
        self._pending: Dict[int, Dict[int, EdgeVerts]] = {i: {} for i in self.copies}
        # per copy: vertex -> {pending handle containing it: None}, in
        # withhold order; maintained wherever _pending changes
        self._pending_at: Dict[int, Dict[int, Dict[int, None]]] = {
            i: {} for i in self.copies
        }
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

    def _slack(self, i: int) -> float:
        """Copy i's Hop slack: the analysis formula, clamped to at least 1."""
        eps2 = self.epsilon * self.epsilon
        eta = eps2 * self.d_tilde(i) / (self.slack_constant * log2c(self.n))
        # slack below 1 cannot govern integral loads (the duplication factor
        # is what makes the active copy's slack meaningful at the analysis
        # scale)
        return max(eta, 1.0)

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
        copies = self.copies
        inserted = None
        for j, copy in copies.items():
            if copy is inserted:
                # a higher member of a shared run: its lowest member took
                # the edge, and with equal loads and a larger threshold it
                # would have taken it too
                continue
            if j < active and min(copy.d_in(u) for u in verts) >= 2 * self.d_tilde(j):
                if copies.get(j + 1) is copy:
                    # the lowest member of a shared run withholds first:
                    # fork it off with the state the run has so far
                    copies[j] = copy.clone()
                self._pending[j][handle] = verts
                index = self._pending_at[j]
                for v in verts:
                    bucket = index.get(v)
                    if bucket is None:
                        index[v] = {handle: None}
                    else:
                        bucket[handle] = None
            else:
                copy.insert(handle, verts)
                inserted = copy

    def _unpend(self, j: int, handle: int) -> EdgeVerts:
        """Drop a pending handle from copy j's list and index; return its set."""
        verts = self._pending[j].pop(handle)
        index = self._pending_at[j]
        for v in verts:
            bucket = index[v]
            del bucket[handle]
            if not bucket:
                del index[v]
        return verts

    def _delete_internal(self, handle: int) -> None:
        self._retreat_active()
        active = self.active
        deleted = None
        for j, copy in self.copies.items():
            if handle in self._pending[j]:
                self._unpend(j, handle)
                continue
            if copy is deleted:
                continue  # a shared Hop, already done; shared copies withhold nothing
            head = copy.head_of(handle)
            copy.delete(handle)
            deleted = copy
            if j > active:
                continue
            # deleting freed capacity at this copy's head vertex: pull in the
            # first pending edge containing that head, if any
            bucket = self._pending_at[j].get(head)
            if bucket is not None:
                swap = next(iter(bucket))
                copy.insert(swap, self._unpend(j, swap))

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

        Each copy's pending index must list, per vertex, exactly the pending
        handles containing it in pending-list order, with no empty bucket.
        Each copy's Hop must have the copy's slack, and copies sharing a
        Hop must be contiguous and withhold nothing.
        With strict_above_active, copies above the active index must hold
        every live edge with nothing pending; that holds whenever the
        active index has never retreated past a copy with pending edges
        (e.g. insertion-only runs).
        """
        live = {ih for _, internals in self._public.values() for ih in internals}
        copies = self.copies
        runs = [copy for j, copy in copies.items() if copies.get(j - 1) is not copy]
        assert len(set(map(id, runs))) == len(runs), "shared Hop not contiguous"
        for j, copy in copies.items():
            assert copy.eta == self._slack(j), f"copy {j}: slack {copy.eta}"
            if copy is copies.get(j - 1) or copy is copies.get(j + 1):
                assert not self._pending[j] and not self._pending_at[j], (
                    f"copy {j} shares its Hop but withholds edges"
                )
            inserted = {h for h, _ in copy.edges()}
            pending = set(self._pending[j])
            assert not (inserted & pending), f"copy {j}: handle both live and pending"
            assert inserted | pending == live, (
                f"copy {j}: inserted+pending diverged from live set"
            )
            expected: Dict[int, List[int]] = {}
            for h, verts in self._pending[j].items():
                for v in verts:
                    expected.setdefault(v, []).append(h)
            index = {v: list(bucket) for v, bucket in self._pending_at[j].items()}
            assert index == expected, f"copy {j}: pending index diverged from list"
            if strict_above_active and j > self.active:
                assert not pending, (
                    f"copy {j} above active={self.active} must hold all live edges"
                )
