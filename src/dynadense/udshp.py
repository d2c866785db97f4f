"""Ensemble of HOP copies answering unweighted densest-subset queries.

Keeps one HOP instance per power-of-two guess of the maximum load, an
active index bracketing the true maximum, and per-copy counts of the
units withheld from overloaded low-guess copies.  Each logical edge
is duplicated a configured number of times so the active copy operates
in the regime where its slack is at least 1.

Each fact lives in one place: the public table maps a handle to its
vertex set and the contiguous range of internal (unit) handles behind
it, and a copy's Hop records which units the copy holds.  A copy
withholds exactly the live units its Hop lacks, and only copies below
the active index withhold any.  Those of an edge are its last ones, so
the copy keeps {edge key: withheld count}, the key being the end of the
edge's unit range: unit ih is withheld iff ih >= key - count.  A suffix
stays one, as an insert withholds the units from some k on, a swap-in
takes the first withheld unit and a delete walks them front to back.
Per vertex, the copy lists the keys of the withheld edges containing
it, each with its vertex set, in withhold (that is, key) order, with no
empty bucket, so a delete that frees capacity at a head vertex swaps in
unit key - count of the first edge listed there, without a scan.

Copies whose slacks decide alike (``Hop.decides_alike``: equal
ceil(eta/2) below eta 4, equal eta from 4 on; the clamped low guesses
and the first guesses above them) share one Hop object, so one insert or
delete serves them all.  Each copy keeps its own slack, computed once,
for its subset query, the only answer that reads eta itself.  Sharing is
exact: a Hop's choices depend only on how its slack decides and on its
operations, and a copy that has never withheld an edge has received
every operation its run's Hop has, with no pending edge to swap in.
Sharing copies form a contiguous run, and only its lowest member can
withhold, since it has the smallest threshold over the same loads.  It
forks only when it would withhold a unit while two or more below the
index: it takes a clone of the run's Hop, withholds, and goes on alone.
One below the index it keeps sharing and takes the unit, so it holds
every live unit, as the copy at the index does.  No query reads it
unless a retreat falls onto it, and then it answers from a Hop that
holds every unit, with a subset certified as ``Hop.query_subset`` says.
In an insert-only stream the index never falls, so the estimates are
those of a copy at the index that never shared with a lower one, and the
Hop work a forked copy one below would take is not done.  A copy never
rejoins a run.

An insert walks the runs upward, each through all of the edge's units,
rather than each unit through all copies, and a copy that withholds a
unit withholds the rest of the edge in one step (``_insert_units`` says
why this is exact).  Deletes go unit by unit.

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

The runs below the index are kept only so that the index can fall back
onto them after deletes, so a copy that owns its Hop and lies two or more
below the index is deferred: it takes no update until a retreat reaches
it, and then replays the log of the updates it missed before it is read
(a delete is logged as one entry per unit, since a retreat can reach a
copy between two units of a delete).  This is exact.  A copy below the
index makes every choice from its own Hop and withheld units alone: an
insert takes units until every member's load is at least 2**j and
withholds the rest of the edge, and a delete unpends the unit or deletes
it and swaps in the first withheld unit at the head.  Nothing else reads
it: queries read the copy at the index, an insert moves the index only by
reading copies at or above it, and a retreat reads each copy it falls
onto, which it has caught up first.  So the replay makes the choices the
copy would have made, in the same order.  Only copies that own their Hop
are deferred, and such a copy withholds by the same rule wherever it
lies, so the replay needs no fork rule: copies that share a run's Hop are
never deferred, nor are runs above the index.  A copy is deferred at
two below rather than one because an index that moves between two
adjacent levels would otherwise catch up the lower one at every fall; at
two below such an oscillation never reaches a deferred copy.  The retreat
that reaches a deferred copy pays for replaying every update it missed.

The log is bounded by the peak units, the most units live at once so
far: an update that leaves it longer replays its oldest entries into the
copies that have not taken them, until it fits.  So the log, and what a
deferred copy keeps of edges deleted since it was deferred, stay within
what the structure held at its fullest, and a catch-up takes at most
about three times as many unit operations as the peak (each unit an
insert in the log carries is live or deleted later in the log).  A replay
makes the Hop calls the copy would have made had it taken each update as
it came, so deferring never adds Hop work.  Once a stream whose index
stays high has filled the log, each update replays about as many entries
into each lagging copy as it logs, so a window stream saves at most one
log per deferred copy; an insert-only stream logs one entry per edge and
gains at least one live unit, so it catches no copy up and saves every
deferred insert.  The bound is the peak rather than the live count since
a live-count bound would grow the excess by two or more entries per
deleted unit while the live count falls, and every delete would replay
that many entries into each lagging copy.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List, Set, Tuple

from .hop import Hop
from .model import EdgeVerts, canonical_edge, log2c

DUPLICATION_CONSTANT = 64.0
# a copy that owns its Hop is deferred once it lies this many levels below
# the active index (the module docstring says why not one)
DEFER_BELOW = 2


class Udshp:
    """Fully dynamic (1+epsilon)-approximate densest subset, unit weights.

    w_star is a promised lower bound on the max edge multiplicity of the
    inputs; larger promises shrink the duplication factor.  The
    duplication constant is configurable for desk-scale runs (default
    matches the conservative analysis constant).  ``insert(verts, c)``
    adds c unit copies of one edge under one handle, which is how an
    integer weight c enters a unit-weight structure.  The duplication
    factor times m_bound must not exceed ``sys.maxsize``, since unit
    handles must fit a machine-size range (ValueError otherwise); a large
    finite factor below that limit is still slow, as every logical edge
    costs up to dup Hop inserts per copy.

    ``copies`` holds the built copies only, 1 up to the top of the
    highest built run; the module docstring says when runs are built and
    copies deferred.  ``stats()`` counts the deferrals and replays, the
    query copy's withheld units, the forks and how subset queries ended.
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
        if self.dup * m_bound > sys.maxsize:
            raise ValueError(
                f"duplication factor {self.dup:.3g} times m_bound {m_bound} exceeds "
                f"{sys.maxsize}: unit handles must fit a machine-size range"
            )
        self.num_copies = max(math.ceil(math.log2(m_bound * self.dup)), 1)
        self.slack_constant = slack_constant
        self._slacks = {i: self._slack(i) for i in range(1, self.num_copies + 1)}
        # the built copies, 1 up to the top of the highest built run; copies
        # whose slacks decide alike share one Hop until one of them forks
        self.copies: Dict[int, Hop] = {}
        # per built copy: {edge key: withheld count}, and vertex -> {key of
        # a withheld edge containing it: its vertex set}, in withhold order
        self._withheld: Dict[int, Dict[int, int]] = {}
        self._pending_at: Dict[int, Dict[int, Dict[int, EdgeVerts]]] = {}
        self.active = 0
        # public handle -> (vertex set, its internal handles)
        self._public: Dict[int, Tuple[EdgeVerts, range]] = {}
        self._next_public = 0
        self._next_internal = 0
        self._live_units = 0
        # the most units live at once so far
        self._peak_units = 0
        # deferred copy -> the first log entry it has not taken; the log holds
        # (insert?, units, vertex set) from the oldest deferred copy's
        # position on: an insert's units, or the range from a deleted unit to
        # its edge's key; between updates it holds at most _peak_units entries
        self._deferred: Dict[int, int] = {}
        self._log: List[Tuple[bool, range, EdgeVerts]] = []
        self._catch_ups = 0
        self._replayed = 0
        self._forks = 0
        # how each subset query ended (Hop.query_subset's outcome)
        self._subsets = dict.fromkeys(Hop.SUBSET_OUTCOMES, 0)
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
        return self.active or 1

    # -- active index maintenance --------------------------------------

    def _retreat_active(self) -> None:
        """Lower the index while its copy is at most half full, catching up
        each deferred copy it falls onto before it is read."""
        while (
            self.active >= 1
            and self.copies[self.active].max_in_degree() <= 2 ** (self.active - 1)
        ):
            self.active -= 1
            if self.active in self._deferred:
                self._catch_up(self.active)

    # -- deferred copies -----------------------------------------------

    def _replay(self, j: int, end: int) -> None:
        """Replay into deferred copy j the log entries from its position to `end`.

        Each is applied as an update applies it to a copy below the index
        (the module docstring says how).  The copy stays deferred, at `end`.
        """
        deferred = self._deferred
        start = deferred[j]
        copy = self.copies[j]
        load = copy.loads().__getitem__
        full = 2 ** j
        for inserting, units, verts in self._log[start:end]:
            if not inserting:
                self._delete_from(j, copy, units.start, units.stop, verts, True)
                continue
            for k, h in enumerate(units):
                if min(map(load, verts)) >= full:
                    self._withhold(j, units[k:], verts)
                    break
                copy.insert(h, verts)
        deferred[j] = end
        self._catch_ups += 1
        self._replayed += end - start

    def _trim_log(self) -> None:
        """Drop the log entries every deferred copy has taken."""
        log = self._log
        deferred = self._deferred
        oldest = min(deferred.values(), default=len(log))
        if oldest:
            del log[:oldest]
            for i in deferred:
                deferred[i] -= oldest

    def _catch_up(self, j: int) -> None:
        """Replay the whole log into deferred copy j, which is deferred no more."""
        self._replay(j, len(self._log))
        del self._deferred[j]
        self._trim_log()

    def _bound_log(self) -> None:
        """Replay the log's oldest entries until the log fits the peak units.

        Each copy that has not taken the entries beyond the bound takes just
        those.
        """
        deferred = self._deferred
        while len(self._log) > self._peak_units:
            oldest = min(deferred, key=deferred.__getitem__)
            self._replay(oldest, len(self._log) - self._peak_units)
            self._trim_log()

    def _catch_up_all(self) -> None:
        """Catch every deferred copy up, so that each copy's state is current."""
        for j in list(self._deferred):
            self._catch_up(j)

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
            self._withheld[j] = {}
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
        withholds every later unit of the edge as well.  The lowest member
        of a shared run one below `level` takes the unit instead of forking,
        so the run's Hop takes it for every member; two or more below, it
        forks and withholds.  An unbuilt run is built when `level` has
        reached its lowest copy, before it takes any unit of the edge; if
        `level` stops below it, that run and every run above it would only
        take the units, so the walk stops there.
        """
        copies = self.copies
        log = self._log
        deferred = self._deferred
        entry = (True, handles, verts)
        if deferred:
            log.append(entry)
        num_copies = self.num_copies
        level, reach = self.active, 0
        j = 1
        while j <= num_copies:
            if j in deferred:
                j += 1
                continue
            if j not in copies:
                if level < j:
                    break  # no index has reached this run or any above it
                self._build_run(j)
            hop = copies[j]
            top = j
            while copies.get(top + 1) is hop:
                top += 1
            if top == j and j + DEFER_BELOW <= level:
                # a copy of its own far enough below the index: this update
                # and the later ones wait in the log for a retreat to reach it
                if not deferred:
                    log.append(entry)
                deferred[j] = len(log) - 1
                j += 1
                continue
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
                        if low + 1 >= level:
                            break  # one below the index: keep sharing
                        # the lowest member of a shared run withholds
                        # first: fork it off with the state the run has
                        copies[low] = hop.clone()
                        self._forks += 1
                    self._withhold(low, handles[k:], verts)
                    low += 1
                if low > top:
                    break
                hop.insert(h, verts)
            j = top + 1
        self.active = level

    def _withhold(self, j: int, rest: range, verts: EdgeVerts) -> None:
        """Copy j withholds `rest`, the last units of one edge: O(r)."""
        self._withheld[j][rest.stop] = len(rest)
        index = self._pending_at[j]
        for v in verts:
            index.setdefault(v, {})[rest.stop] = verts

    def _unpend(self, j: int, key: int, verts: EdgeVerts) -> None:
        """Count down copy j's withheld units of edge `key`; at 0 unlist it."""
        counts = self._withheld[j]
        counts[key] -= 1
        if not counts[key]:
            del counts[key]
            index = self._pending_at[j]
            for v in verts:
                bucket = index[v]
                del bucket[key]
                if not bucket:
                    del index[v]

    def _delete_from(
        self, j: int, copy: Hop, handle: int, key: int, verts: EdgeVerts, swap: bool
    ) -> bool:
        """Remove unit `handle` of edge `key` from copy j; True if its Hop held it.

        With `swap` (copy j at or below the index), deleting frees capacity
        at the copy's head vertex, and the first withheld unit of the first
        edge listed at that head, if any, is pulled in.
        """
        counts = self._withheld[j]
        if handle >= key - counts.get(key, 0):
            self._unpend(j, key, verts)
            return False
        head = copy.delete(handle)
        if swap:
            bucket = self._pending_at[j].get(head)
            if bucket is not None:
                swapped, swapped_verts = next(iter(bucket.items()))
                copy.insert(swapped - counts[swapped], swapped_verts)
                self._unpend(j, swapped, swapped_verts)
        return True

    def _delete_internal(self, handle: int, key: int, verts: EdgeVerts) -> None:
        self._retreat_active()
        active = self.active
        deferred = self._deferred
        if deferred:
            self._log.append((False, range(handle, key), verts))
        deleted = None
        for j, copy in self.copies.items():
            if j in deferred:
                continue
            if copy is deleted:
                continue  # a shared Hop, already done; shared copies withhold nothing
            if self._delete_from(j, copy, handle, key, verts, j <= active):
                deleted = copy

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
        if self._live_units > self._peak_units:
            self._peak_units = self._live_units
        if len(self._log) > self._peak_units:
            self._bound_log()
        return handle

    def delete(self, handle: int) -> None:
        if handle not in self._public:
            raise ValueError(f"unknown edge handle {handle}")
        verts, internals = self._public.pop(handle)
        self._live_units -= len(internals)
        for ih in internals:
            self._delete_internal(ih, internals.stop, verts)
        if len(self._log) > self._peak_units:
            self._bound_log()

    def max_density(self) -> float:
        """Current (1+eps)-approximate max density of the logical multiset."""
        if not self._public:
            return 0.0
        return self.copies[self._query_copy_index()].query_density() / self.dup

    def densest_subset(self) -> Set[int]:
        if not self._public:
            raise ValueError("densest-subset query on an empty structure")
        q = self._query_copy_index()
        copy = self.copies[q]
        subset = copy.query_subset(self._slacks[q])
        self._subsets[copy.last_subset] += 1
        return subset

    def stats(self) -> Dict[str, int]:
        """Deferral, fork and subset-query counters, and the query copy's
        withheld units.

        ``deferred`` copies deferred now; ``catch_ups`` the replays into
        deferred copies so far, whole (a retreat's) or in part (the log
        bound's), and ``replayed`` the log entries they took; ``log`` the
        log's current length; ``query_withheld`` the units the query copy
        withholds now, summed from its counts; ``forks`` the copies that
        have left a shared run; ``subsets_kept``, ``subsets_walked`` and
        ``subsets_uncertified`` the subset queries whose peeled set was
        certified, that walked on to a lower certified set, and that found
        none (``Hop.query_subset``).
        """
        return {
            "deferred": len(self._deferred),
            "catch_ups": self._catch_ups,
            "replayed": self._replayed,
            "log": len(self._log),
            "query_withheld": sum(self._withheld[self._query_copy_index()].values()),
            "forks": self._forks,
            **{f"subsets_{outcome}": count for outcome, count in self._subsets.items()},
        }

    # -- invariant checks (test support) -------------------------------

    def check_wrapper_invariants(self, strict_above_active: bool = True) -> None:
        """Each copy's Hop and withheld counts must partition the live units.

        A copy's Hop must hold only live units and lack of each live edge a
        suffix of its units, as long as the copy's count for the edge, which
        is positive or absent; per vertex, the pending index must list by key
        exactly the counted edges that contain the vertex, with their vertex
        sets, in key order, with no empty bucket.  Each copy's Hop must
        decide as a Hop at the copy's slack would, and copies sharing a Hop
        must be contiguous and withhold nothing.  The built copies must be 1
        up to the top of a whole run, with the active index below the first
        unbuilt copy, and the live unit count must match the public table.
        With strict_above_active, copies above the active index must
        withhold nothing; that holds whenever the active index has never
        retreated past a copy with pending edges (e.g. insertion-only runs).
        Each deferred copy must own its Hop and lie below the index, the log
        must start at the oldest deferred copy's position, hold no more
        entries than the most units live at once so far and be empty when
        no copy is deferred; the copies are then caught up and checked.
        """
        copies = self.copies
        for j, start in self._deferred.items():
            assert copies.get(j - 1) is not copies[j] is not copies.get(j + 1), (
                f"deferred copy {j} shares its Hop"
            )
            assert j < self.active, f"deferred copy {j} at or above active={self.active}"
            assert 0 <= start <= len(self._log), f"copy {j}: log position {start}"
        assert min(self._deferred.values(), default=0) == 0, (
            "log holds entries no deferred copy needs"
        )
        assert self._deferred or not self._log, "log kept with no copy deferred"
        assert len(self._log) <= self._peak_units, "log longer than the peak units"
        self._catch_up_all()
        live = {ih for _, internals in self._public.values() for ih in internals}
        assert self._live_units == len(live), "live unit count diverged"
        built = len(copies)
        assert (list(copies) == list(self._withheld) == list(self._pending_at)
                == list(range(1, built + 1)))
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
            assert inserted <= live, f"copy {j}: Hop holds a dead handle"
            counts: Dict[int, int] = {}
            expected: Dict[int, List[Tuple[int, EdgeVerts]]] = {}
            for verts, internals in self._public.values():
                key = internals.stop
                lacked = [ih for ih in internals if ih not in inserted]
                assert lacked == list(range(key - len(lacked), key)), (
                    f"copy {j}: edge {key} withholds units that are no suffix"
                )
                if lacked:
                    counts[key] = len(lacked)
                    for v in verts:
                        expected.setdefault(v, []).append((key, verts))
            assert list(self._withheld[j].items()) == list(counts.items()), (
                f"copy {j}: withheld counts diverged"
            )
            assert all(key in counts for bucket in index.values() for key in bucket), (
                f"copy {j}: pending index lists an edge it does not withhold"
            )
            actual = {v: list(bucket.items()) for v, bucket in index.items()}
            assert actual == expected, f"copy {j}: pending index diverged"
            if strict_above_active and j > self.active:
                assert not counts, (
                    f"copy {j} above active={self.active} must hold all live edges"
                )
