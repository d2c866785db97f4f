"""Dynamic hypergraph orientation with bounded head slack (HOP).

Maintains, for a fixed load estimate d_tilde, an assignment of one head
vertex per hyperedge such that the head's in-degree never exceeds any
member's in-degree by more than the slack eta.  Inserts and deletes
trigger chains of head rotations; stale knowledge of neighbor loads is
refreshed lazily, a few edges per update, round-robin.

Supporting structures per vertex:

* the edges headed here (In(v)).  For eta >= 4 they form an ordered
  dict whose order is the round-robin cursor: the first key is the next
  edge to probe or inform, a probed or informed edge moves to the end,
  and a new edge enters last.  Below that they are grouped by vertex
  set, since a probe covers all of In(v) and tightness depends only on
  the vertex set;
* the edges containing the vertex but headed elsewhere (Out(v)), in the
  order they entered it, so the fresh delete chain's argmax gives a tie
  to the edge that entered last; paired with a lazy max-heap
  keyed by the locally-known head load (heap entries are created on
  demand from a dirty set and stale ones are discarded when popped);
* one locally-known ("mirror") load per edge: the load of its head as
  last told to its members.  All members of an edge are informed
  together, so one cell serves every observer.

Mirrors, heaps and dirty sets exist only for eta >= 4.  Below that the
probe budget ceil(4 d / eta) covers all of In(v), so every mirror would
equal the true load: probes read true loads and nothing is informed.

A global degree->vertices bucket index supplies the max load and the
level sets used by the subset query.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .model import EdgeVerts, log2c


class _DegreeBuckets:
    """Multiset of per-vertex in-degrees with O(1) max tracking.

    Degrees change by +-1 only, which keeps the max current without a
    search tree; level sets are enumerated by walking buckets downward.
    """

    def __init__(self, n: int) -> None:
        self.deg = [0] * n
        self.buckets: Dict[int, Set[int]] = {0: set(range(n))}
        self.max_deg = 0

    def shift(self, v: int, delta: int) -> None:
        old = self.deg[v]
        new = old + delta
        self.deg[v] = new
        b = self.buckets[old]
        b.discard(v)
        if not b and old != 0:
            del self.buckets[old]
        self.buckets.setdefault(new, set()).add(v)
        if new > self.max_deg:
            self.max_deg = new
        elif old == self.max_deg and old not in self.buckets:
            self.max_deg = old - 1 if new < old else new

    def clone(self) -> "_DegreeBuckets":
        c = _DegreeBuckets.__new__(_DegreeBuckets)
        c.deg = list(self.deg)
        c.buckets = {d: set(b) for d, b in self.buckets.items()}
        c.max_deg = self.max_deg
        return c

    def at_least(self, threshold: float) -> Set[int]:
        out: Set[int] = set()
        d = self.max_deg
        while d >= threshold and d >= 0:
            out |= self.buckets.get(d, set())
            d -= 1
        return out


class Hop:
    """Orientation maintainer for one load-estimate guess d_tilde.

    d_tilde only sets the default eta and is not kept, so Hops with equal
    eta behave alike whatever guess they were built for.

    eta defaults to epsilon^2 * d_tilde / (32 log2 n); callers that need
    integral loads below that formula's validity range (or tests pinning
    exact slack) pass eta_override.  Inserting requires eta >= 1.
    """

    def __init__(
        self,
        n: int,
        epsilon: float,
        d_tilde: float,
        eta_override: Optional[float] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("vertex count must be positive")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        if d_tilde <= 0:
            raise ValueError("d_tilde must be positive")
        self.n = n
        self.epsilon = epsilon
        if eta_override is not None:
            if eta_override <= 0:
                raise ValueError("eta_override must be positive")
            self.eta = float(eta_override)
        else:
            self.eta = epsilon * epsilon * d_tilde / (32.0 * log2c(n))

        self._verts: Dict[int, EdgeVerts] = {}
        self._head: Dict[int, int] = {}
        # Out(v): {handle: None} in entry order
        self._out: List[Dict[int, None]] = [{} for _ in range(n)]
        # With eta < 4 the probe budget ceil(4 d / eta) exceeds d, so it
        # covers all of In(v) (at most d + 1 edges) at every load change and
        # mirrors would always equal the true loads.  In that regime nothing
        # is informed and probes read true loads; the lazy machinery (the
        # cursor-ordered In(v), mirrors, heaps, dirty sets) exists only for
        # eta >= 4.  A fresh In(v) is {vertex set: {handle: attach seq}}, no
        # group empty, so a probe tests each distinct set once; attach
        # sequence numbers keep the answer that of a scan in attach order.
        self._fresh = self.eta < 4.0
        self._in: List[Union[Dict[EdgeVerts, Dict[int, int]], OrderedDict[int, None]]]
        self._in = [{} if self._fresh else OrderedDict() for _ in range(n)]
        self._attach_seq = 0
        lazy_n = 0 if self._fresh else n
        self._heap: List[List[Tuple[int, int]]] = [[] for _ in range(lazy_n)]
        # edges of Out(v) whose key changed since their last heap push
        self._dirty: List[Set[int]] = [set() for _ in range(lazy_n)]
        # _mir[h] = d_in(head of h) as last told to the members of edge h
        self._mir: Dict[int, int] = {}
        self._degs = _DegreeBuckets(n)
        self.last_rotations = 0

    def clone(self) -> "Hop":
        """An independent Hop in the same state, answering as this one would.

        Every container is copied one by one rather than through
        ``__dict__``, so only the state is copied: attributes set on the
        instance (such as patched methods) stay with this one.  Copied
        dicts keep their order, so Out(v) ties and the In(v) cursor and
        attach order carry over.
        """
        c = Hop.__new__(Hop)
        c.n, c.epsilon, c.eta, c._fresh = self.n, self.epsilon, self.eta, self._fresh
        c._verts = dict(self._verts)
        c._head = dict(self._head)
        c._out = [dict(out) for out in self._out]
        if self._fresh:
            c._in = [{vs: dict(g) for vs, g in groups.items()} for groups in self._in]
        else:
            c._in = [OrderedDict(rr) for rr in self._in]
        c._attach_seq = self._attach_seq
        c._heap = [list(heap) for heap in self._heap]
        c._dirty = [set(dirty) for dirty in self._dirty]
        c._mir = dict(self._mir)
        c._degs = self._degs.clone()
        c.last_rotations = self.last_rotations
        return c

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._verts)

    def __contains__(self, handle: int) -> bool:
        return handle in self._verts

    def head_of(self, handle: int) -> int:
        return self._head[handle]

    def d_in(self, v: int) -> int:
        return self._degs.deg[v]

    def max_in_degree(self) -> int:
        return self._degs.max_deg

    def edges(self) -> Iterable[Tuple[int, EdgeVerts]]:
        return self._verts.items()

    # -- internal helpers ----------------------------------------------

    def _argmin_vertex(self, verts: EdgeVerts) -> int:
        # verts is sorted and the comparison strict, so ties resolve to
        # the smallest vertex id
        deg = self._degs.deg
        best = verts[0]
        bd = deg[best]
        for u in verts[1:]:
            d = deg[u]
            if d < bd:
                best, bd = u, d
        return best

    def _probe_count(self, v: int) -> int:
        d = self._degs.deg[v]
        if d == 0:
            return 0
        return min(len(self._in[v]), math.ceil(4.0 * d / self.eta))

    def _attach(self, handle: int, verts: EdgeVerts, head: int) -> None:
        """Register edge under `head`; lazily, set its mirror to the true load."""
        self._head[handle] = head
        out = self._out
        if self._fresh:
            seq = self._attach_seq
            self._attach_seq = seq + 1
            groups = self._in[head]
            group = groups.get(verts)
            if group is None:
                groups[verts] = {handle: seq}
            else:
                group[handle] = seq
            for u in verts:
                if u != head:
                    out[u][handle] = None
            return
        self._in[head][handle] = None
        self._mir[handle] = self._degs.deg[head]
        dirty = self._dirty
        for u in verts:
            if u != head:
                out[u][handle] = None
                dirty[u].add(handle)

    def _detach(self, handle: int) -> None:
        head = self._head.pop(handle)
        verts = self._verts[handle]
        if self._fresh:
            groups = self._in[head]
            group = groups[verts]
            del group[handle]
            if not group:
                del groups[verts]
        else:
            del self._in[head][handle]
            del self._mir[handle]
        for u in verts:
            if u != head:
                del self._out[u][handle]

    def _rotate(self, handle: int, v: int) -> None:
        verts = self._verts[handle]
        assert v in verts and v != self._head[handle]
        self._detach(handle)
        self._attach(handle, verts, v)
        self.last_rotations += 1

    def _tight_in_edge(self, v: int) -> Optional[int]:
        """Probe edges headed at v for a slack violation risk.

        Returns the first probed edge whose min-load member sits at
        least eta/2 below d_in(v).  A fresh Hop probes all of In(v) in
        attach order; a lazy one probes the next few edges of the
        cursor order through the inform step, so every probed edge is
        also informed of v's current load and probe passes never starve
        the round-robin inform schedule.  The violation test uses true
        loads.
        """
        deg = self._degs.deg
        limit = deg[v] - self.eta / 2.0
        if not self._fresh:
            return self._inform(v, self._probe_count(v), limit)
        # the budget covers In(v) and tightness depends only on the vertex
        # set: test each group once and return the oldest attached edge of
        # the tight groups, the one a scan of In(v) in attach order would
        # meet first
        best_h = None
        best_seq = math.inf
        for vs, group in self._in[v].items():
            bd = deg[vs[0]]
            for u in vs[1:]:
                d = deg[u]
                if d < bd:
                    bd = d
            if bd <= limit:
                for h, seq in group.items():  # the group's oldest edge
                    break
                if seq < best_seq:
                    best_h, best_seq = h, seq
        return best_h

    def _tight_out_edge(self, v: int) -> Optional[int]:
        """Peek the max-mirror-key edge of Out(v); lazily drops stale entries.

        Edges whose key changed since their last push sit in the dirty
        set and get (re)pushed here, so informs stay O(1) per observer.
        """
        out = self._out[v]
        if self._fresh:
            # mirrors are definitionally current: argmax over true loads,
            # the latest entry of Out(v) winning a tie
            head = self._head
            deg = self._degs.deg
            best_h = None
            best = -1
            for h in out:
                k = deg[head[h]]
                if k >= best:
                    best, best_h = k, h
            if best_h is not None and best >= deg[v] + self.eta / 2.0:
                return best_h
            return None
        heap = self._heap[v]
        dirty = self._dirty[v]
        mir = self._mir
        if dirty:
            for h in dirty:
                if h in out:
                    heapq.heappush(heap, (-mir[h], h))
            dirty.clear()
            self._maybe_compact(v)
            heap = self._heap[v]
        while heap:
            negkey, h = heap[0]
            if h not in out:
                heapq.heappop(heap)
                continue
            cur = mir[h]
            if -negkey != cur:
                heapq.heappop(heap)
                continue
            if cur >= self._degs.deg[v] + self.eta / 2.0:
                return h
            return None
        return None

    def _inform(self, v: int, count: int, limit: float = -1.0) -> Optional[int]:
        """Tell the members of the next `count` In(v) edges v's load.

        Each informed edge moves to the end of the cursor order, takes
        d_in(v) as its mirror and is marked dirty at its other members.
        Stops at, and returns, the first informed edge with another
        member whose load is at most `limit` (by default none can be).
        """
        deg = self._degs.deg
        deg_v = deg[v]
        rr = self._in[v]
        mir = self._mir
        dirty = self._dirty
        verts_map = self._verts
        move_to_end = rr.move_to_end
        # count <= len(In(v)), so the first `count` keys, taken before any
        # move, are the ones that reach the front one after another
        for h in list(itertools.islice(rr, count)):
            move_to_end(h)
            mir[h] = deg_v
            tight = False
            for u in verts_map[h]:
                if u != v:
                    dirty[u].add(h)
                    if deg[u] <= limit:
                        tight = True
            if tight:
                return h
        return None

    def _maybe_compact(self, v: int) -> None:
        heap = self._heap[v]
        out = self._out[v]
        if len(heap) > 4 * len(out) + 16:
            mir = self._mir
            self._heap[v] = [(-mir[h], h) for h in out]
            heapq.heapify(self._heap[v])
            self._dirty[v].clear()

    def _shift(self, v: int, delta: int) -> None:
        self._degs.shift(v, delta)
        if not self._fresh:
            d = max(self._degs.deg[v], 1)
            self._inform(v, min(len(self._in[v]), math.ceil(4.0 * d / self.eta)))

    # -- public operations ---------------------------------------------

    def insert(self, handle: int, verts: EdgeVerts) -> None:
        if self.eta < 1.0:
            raise ValueError(
                f"eta={self.eta:.4g} < 1: integral loads need more slack "
                "(duplicate edges or pass eta_override)"
            )
        if handle in self._verts:
            raise ValueError(f"duplicate edge handle {handle}")
        self.last_rotations = 0
        self._verts[handle] = verts
        v = self._argmin_vertex(verts)
        self._attach(handle, verts, v)
        while True:
            f = self._tight_in_edge(v)
            if f is None:
                break
            v = self._argmin_vertex(self._verts[f])
            self._rotate(f, v)
        self._shift(v, +1)

    def delete(self, handle: int) -> None:
        if handle not in self._verts:
            raise ValueError(f"unknown edge handle {handle}")
        self.last_rotations = 0
        v = self._head[handle]
        self._detach(handle)
        del self._verts[handle]
        while True:
            f = self._tight_out_edge(v)
            if f is None:
                break
            w = self._head[f]
            self._rotate(f, v)
            v = w
        if self._degs.deg[v] < 1:
            raise AssertionError(f"decrement of vertex {v} at in-degree 0")
        self._shift(v, -1)

    # -- queries -------------------------------------------------------

    def query_density(self) -> float:
        """Max load discounted by (1 - eps/2); 0 on the empty structure."""
        return self._degs.max_deg * (1.0 - self.epsilon / 2.0)

    def query_subset(self) -> Set[int]:
        if not self._verts:
            raise ValueError("subset query on an empty structure")
        d_hat = self._degs.max_deg
        eta = self.eta
        gamma = math.sqrt(2.0 * eta * log2c(self.n) / d_hat)
        level = float(d_hat)
        a = self._degs.at_least(level)
        b = self._degs.at_least(level - eta)
        while len(b) >= (1.0 + gamma) * len(a):
            level -= eta
            a = b
            b = self._degs.at_least(level - eta)
        if level - eta < 1:
            # a threshold this low can reach bucket 0, which holds every
            # vertex of the instance: keep only those on a live edge
            # (dropping the others raises density)
            deg, out = self._degs.deg, self._out
            b = {v for v in b if deg[v] or out[v]}
        return b

    # -- invariant checks (test support) -------------------------------

    def check_slack(self) -> None:
        """Full scan of the local condition d_in(head) <= d_in(u) + eta."""
        deg = self._degs.deg
        for h, verts in self._verts.items():
            v = self._head[h]
            for u in verts:
                if u != v and deg[v] > deg[u] + self.eta + 1e-9:
                    raise AssertionError(
                        f"slack violated on edge {h}: d_in({v})={deg[v]} > "
                        f"d_in({u})={deg[u]} + {self.eta}"
                    )

    def check_staleness(self) -> None:
        """Mirrors of every head's load must be within eta/4 of the truth."""
        if self._fresh:
            # every load change informs all of In(v), so the effective
            # mirrors are the true loads: staleness is identically zero
            return
        deg = self._degs.deg
        bound = self.eta / 4.0 + 1e-9
        for h, verts in self._verts.items():
            v = self._head[h]
            believed = self._mir[h]
            if len(verts) > 1 and abs(deg[v] - believed) > bound:
                raise AssertionError(
                    f"stale mirror on edge {h}: true d_in({v})={deg[v]}, "
                    f"members believe {believed}, bound {self.eta / 4}"
                )

    def check_consistency(self) -> None:
        """Membership and degree bookkeeping agree with a fresh rebuild.

        A fresh In(v) must hold no empty group, file each edge headed at v
        under its own vertex set, and number each group's edges in
        increasing attach order.
        """
        counts = [0] * self.n
        for h, verts in self._verts.items():
            v = self._head[h]
            assert v in verts, f"head of {h} not a member"
            counts[v] += 1
            in_v = self._in[v].get(verts, ()) if self._fresh else self._in[v]
            assert h in in_v, f"edge {h} missing from In({v})"
            for u in verts:
                if u != v:
                    assert h in self._out[u], f"edge {h} missing from Out({u})"
        assert counts == self._degs.deg, "in-degree counters diverged"
        assert sum(counts) == len(self._verts)
        for v in range(self.n):
            if self._fresh:
                groups = self._in[v]
                assert sum(map(len, groups.values())) == counts[v]
                for key, group in groups.items():
                    assert group, f"empty group {key} in In({v})"
                    for h in group:
                        assert self._verts[h] == key and self._head[h] == v, (
                            f"edge {h} filed under {key} in In({v})"
                        )
                    seqs = list(group.values())
                    assert all(a < b for a, b in zip(seqs, seqs[1:])), (
                        f"group {key} in In({v}) out of attach order"
                    )
            else:
                assert len(self._in[v]) == counts[v]
            for h in self._out[v]:
                assert h in self._verts and self._head[h] != v
