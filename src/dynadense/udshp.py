"""Ensemble of HOP copies answering unweighted densest-subset queries.

Keeps one HOP instance per power-of-two guess of the maximum load, an
active index bracketing the true maximum, and per-copy indexes of the
edges withheld from overloaded low-guess copies.  Each logical edge
is duplicated a configured number of times so the active copy operates
in the regime where its slack is at least 1.

Each fact lives in one place: the public table maps a handle to its
vertex set and the contiguous range of internal handles behind it, and
a copy's Hop records which internal handles the copy holds.  A copy
withholds exactly the live internal handles its Hop lacks.  Only copies
below the active index withhold edges.

Each copy indexes its withheld edges by vertex: per vertex, the withheld
handles containing it, each with its vertex set, in withhold order, with
no empty bucket.  Withhold order is handle order, since a handle is
withheld only while it is being inserted.  A delete that frees capacity
at a head vertex swaps in the first handle of that vertex's bucket,
which is the first withheld edge containing the head, without a scan.

Copies whose slacks decide alike (``Hop.decides_alike``: equal
ceil(eta/2) below eta 4, equal eta from 4 on; the clamped low guesses
and the first guesses above them) share one Hop object, so one insert or
delete serves them all.  Each copy keeps its own slack, computed once,
for its subset query, the only answer that reads eta itself.  Sharing is
exact: a Hop's choices depend only on how its slack decides and on its
operations, and a copy that has never withheld an edge has received
every operation its run's Hop has, with no pending edge to swap in.
Sharing copies form a contiguous run, and only its lowest member can
withhold, since it has the smallest threshold over the same loads.  When
it first does, it forks: it takes a clone of the run's Hop and goes on
alone.  A copy never rejoins a run.

An insert walks the runs upward, each through all of the edge's units,
rather than each unit through all copies, and a copy that withholds a
unit takes the rest of the edge into its pending index in one step
(``_insert_units`` says why this is exact).  Deletes go unit by unit.

A run of copies is built only when an insert first carries the active
index to the run's lowest copy (copy 1's run is built with the
structure): a fresh Hop at the run's slack takes every live unit in
handle order, and the run is built whole.  Until then nothing reads the
run: only copies at or below the index withhold units, answer queries or
move the index.  This is exact.  A copy above every index reached so far
has never withheld a unit, so in an insert-only stream it has received
exactly the live units in handle order, and the built Hop is the one it
would have had, attach sequence numbers included; since runs are built
whole, sharing and forking are unchanged.  After deletes the built Hop
is a valid HOP over the live units, though not the one a Hop that had
seen the deletes would hold, so answers can differ only from the update
that first reaches the run on, and the density analysis holds for any
valid HOP state.  Each run is built at most once, so the Hop work never
exceeds that of building every run up front, but the update that first
reaches a run pays for replaying every live unit into it.
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

    ``copies`` holds the built copies only, 1 up to the top of the
    highest built run.  A run is built from the live units when the
    active index first reaches it, which the module docstring shows to be
    exact, and the update that does so pays for the build.
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
        dup = dup_constant * r * log2c(n) / (epsilon * epsilon * w_star)
        if not math.isfinite(dup):
            raise ValueError(f"duplication factor {dup} is not finite")
        self.dup = max(math.ceil(dup), 1)
        self.num_copies = max(math.ceil(math.log2(m_bound * self.dup)), 1)
        self.slack_constant = slack_constant
        self._slacks = {i: self._slack(i) for i in range(1, self.num_copies + 1)}
        # the built copies, 1 up to the top of the highest built run; copies
        # whose slacks decide alike share one Hop until one of them forks
        self.copies: Dict[int, Hop] = {}
        # per built copy: vertex -> {withheld handle containing it: its
        # vertex set}, in withhold order
        self._pending_at: Dict[int, Dict[int, Dict[int, EdgeVerts]]] = {}
        self.active = 0
        # public handle -> (vertex set, its internal handles)
        self._public: Dict[int, Tuple[EdgeVerts, range]] = {}
        self._next_public = 0
        self._next_internal = 0
        self._live_units = 0
        self._build_run(1)

    # -- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        """Live unit copies (a handle inserted with ``copies=c`` counts c)."""
        return self.live_internal_count() // self.dup

    def __contains__(self, handle: int) -> bool:
        return handle in self._public

    def live_internal_count(self) -> int:
        return self._live_units

    def _slack(self, i: int) -> float:
        """Copy i's Hop slack: the analysis formula, clamped to at least 1."""
        eps2 = self.epsilon * self.epsilon
        eta = eps2 * 2 ** (i - 1) / (self.slack_constant * log2c(self.n))
        # slack below 1 cannot govern integral loads (the duplication factor
        # is what makes the active copy's slack meaningful at the analysis
        # scale)
        return max(eta, 1.0)

    def _query_copy_index(self) -> int:
        return max(self.active, 1)

    # -- active index maintenance --------------------------------------

    def _retreat_active(self) -> None:
        while (
            self.active >= 1
            and self.copies[self.active].max_in_degree() <= 2 ** (self.active - 1)
        ):
            self.active -= 1

    # -- internal fan-out ----------------------------------------------

    def _build_run(self, j: int) -> None:
        """Build copy j and the copies above it whose slacks decide alike.

        The run's one Hop takes every live unit in handle order: had it
        existed from the start with no unit ever deleted, a copy the index
        never reached would have taken just these, since it withholds
        nothing.  This costs one Hop insert per live unit.
        """
        hop = Hop(self.n, self.epsilon, self._slacks[j])
        for verts, internals in self._public.values():
            for ih in internals:
                hop.insert(ih, verts)
        while j <= self.num_copies and hop.decides_alike(self._slacks[j]):
            self.copies[j] = hop
            self._pending_at[j] = {}
            j += 1

    def _insert_units(self, handles: range, verts: EdgeVerts) -> None:
        """Give one edge's units to every built copy, one run at a time.

        A copy's choices read only its own Hop and whether the active
        index has passed it, and the index passes copy j (copy 1 also
        governs level 0) only by reading copy j's load, so no run depends
        on a higher one.  `level` carries the index up the runs and
        `reach` the unit at whose advance it got there: below `reach` the
        index had not yet reached the run.  A copy that withholds a unit
        leaves its Hop unchanged, and the index only rises here, so it
        withholds every later unit of the edge as well.  An unbuilt run is
        built when `level` has reached its lowest copy, before it takes
        any unit of the edge; if `level` stops below it, that run and every
        run above it would only take the units, so the walk stops there.
        """
        copies = self.copies
        num_copies = self.num_copies
        level, reach = self.active, 0
        j = 1
        while j <= num_copies:
            if j not in copies:
                if level < j:
                    break  # no index has reached this run or any above it
                self._build_run(j)
            hop = copies[j]
            top = j
            while copies.get(top + 1) is hop:
                top += 1
            load = hop.loads().__getitem__
            low = j  # the run's lowest member still taking units
            # the levels whose advance reads this run's Hop: copy i governs
            # level i, and copy 1 also level 0; the top level has none
            first, last = (0 if j == 1 else j), min(top, num_copies - 1)
            for k, h in enumerate(handles):
                while (
                    first <= level <= last
                    and k >= reach
                    and hop.max_in_degree() >= 2 ** level
                ):
                    level += 1
                    reach = k
                while low < level and min(map(load, verts)) >= 2 ** low:
                    if low < top:
                        # the lowest member of a shared run withholds
                        # first: fork it off with the state the run has
                        copies[low] = hop.clone()
                    rest = handles[k:]
                    index = self._pending_at[low]
                    for v in verts:
                        bucket = index.get(v)
                        if bucket is None:
                            index[v] = dict.fromkeys(rest, verts)
                        else:
                            bucket.update(dict.fromkeys(rest, verts))
                    low += 1
                if low > top:
                    break
                hop.insert(h, verts)
            j = top + 1
        self.active = level

    def _unpend(self, j: int, handle: int, verts: EdgeVerts) -> None:
        """Drop a withheld handle from copy j's index."""
        index = self._pending_at[j]
        for v in verts:
            bucket = index[v]
            del bucket[handle]
            if not bucket:
                del index[v]

    def _delete_internal(self, handle: int, verts: EdgeVerts) -> None:
        self._retreat_active()
        active = self.active
        deleted = None
        for j, copy in self.copies.items():
            if handle in self._pending_at[j].get(verts[0], ()):
                self._unpend(j, handle, verts)
                continue
            if copy is deleted:
                continue  # a shared Hop, already done; shared copies withhold nothing
            head = copy.delete(handle)
            deleted = copy
            if j > active:
                continue
            # deleting freed capacity at this copy's head vertex: pull in the
            # first withheld edge containing that head, if any
            bucket = self._pending_at[j].get(head)
            if bucket is not None:
                swap, swap_verts = next(iter(bucket.items()))
                self._unpend(j, swap, swap_verts)
                copy.insert(swap, swap_verts)

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
        self._insert_units(internals, verts)
        self._public[handle] = (verts, internals)
        self._live_units += units
        return handle

    def delete(self, handle: int) -> None:
        if handle not in self._public:
            raise ValueError(f"unknown edge handle {handle}")
        verts, internals = self._public.pop(handle)
        self._live_units -= len(internals)
        for ih in internals:
            self._delete_internal(ih, verts)

    def max_density(self) -> float:
        """Current (1+eps)-approximate max density of the logical multiset."""
        if not self._public:
            return 0.0
        return self.copies[self._query_copy_index()].query_density() / self.dup

    def densest_subset(self) -> Set[int]:
        if not self._public:
            raise ValueError("densest-subset query on an empty structure")
        q = self._query_copy_index()
        return self.copies[q].query_subset(self._slacks[q])

    # -- invariant checks (test support) -------------------------------

    def check_wrapper_invariants(self, strict_above_active: bool = True) -> None:
        """Each copy's Hop and pending index must partition the live edges.

        A copy's Hop must hold only live internal handles, and its pending
        index must list, per vertex, exactly the live handles the Hop lacks
        that contain the vertex, each with its vertex set, in handle order,
        with no empty bucket.  Each copy's Hop must decide as a Hop at the
        copy's slack would, and copies sharing a Hop must be contiguous and
        withhold nothing.  The built copies must be 1 up to the top of a
        whole run, with the active index below the first unbuilt copy, and
        the live unit count must match the public table.
        With strict_above_active, copies above the active index must
        withhold nothing; that holds whenever the active index has never
        retreated past a copy with pending edges (e.g. insertion-only runs).
        """
        live = {
            ih: verts for verts, internals in self._public.values() for ih in internals
        }
        assert self._live_units == len(live), "live unit count diverged"
        copies = self.copies
        built = len(copies)
        assert list(copies) == list(self._pending_at) == list(range(1, built + 1))
        assert self.active <= built
        if built < self.num_copies:
            assert not copies[built].decides_alike(self._slacks[built + 1]), (
                f"copy {built + 1} is unbuilt but decides like its run"
            )
        runs = [copy for j, copy in copies.items() if copies.get(j - 1) is not copy]
        assert len(set(map(id, runs))) == len(runs), "shared Hop not contiguous"
        for j, copy in copies.items():
            assert copy.decides_alike(self._slacks[j]), (
                f"copy {j}: a Hop at slack {copy.eta} decides unlike {self._slacks[j]}"
            )
            index = self._pending_at[j]
            if copy is copies.get(j - 1) or copy is copies.get(j + 1):
                assert not index, f"copy {j} shares its Hop but withholds edges"
            inserted = {h for h, _ in copy.edges()}
            assert inserted <= live.keys(), f"copy {j}: Hop holds a dead handle"
            expected: Dict[int, List[Tuple[int, EdgeVerts]]] = {}
            for h in sorted(live.keys() - inserted):
                for v in live[h]:
                    expected.setdefault(v, []).append((h, live[h]))
            actual = {v: list(bucket.items()) for v, bucket in index.items()}
            assert actual == expected, f"copy {j}: pending index diverged"
            if strict_above_active and j > self.active:
                assert not expected, (
                    f"copy {j} above active={self.active} must hold all live edges"
                )
