"""Dynamic hypergraph orientation with bounded head slack (HOP).

Maintains an assignment of one head vertex per hyperedge such that the
head's in-degree never exceeds any member's in-degree by more than the
slack eta.  The caller sets eta (the ensemble derives it from the load
guess a copy serves); the Hop keeps no slack formula.  Inserts and
deletes trigger chains of head rotations.  Every step reads true loads:
the analysis allows each vertex a copy of its neighbours' loads up to
eta/4 stale, and a copy that is never stale meets that bound.

Supporting structures per vertex:

* the edges headed here (In(v)), grouped by vertex set: tightness
  depends only on the group, so a probe costs one step per group
  however many parallel copies it holds.  The group order is the
  round-robin cursor of the insert probe: when ceil(4 d_in(v) / eta)
  groups fall short of In(v), the probe tests that many from the front
  and moves them to the end, and a new group enters last.  Below eta 4
  the budget covers In(v) whenever d_in(v) >= 1, so nothing moves;
* the groups that contain the vertex but are headed elsewhere (Out(v)),
  keyed by (head, vertex set) and mapped to that group's In(head) dict.
  Out(v) changes only when a group is created or emptied, so an edge
  that joins a live group touches no Out(v), and the delete chain's
  argmax costs one step per group.  A tie at the highest head load goes
  to the group holding the most recently attached edge, which is
  returned; no answer depends on the order of Out(v).

A global degree->vertices bucket index supplies the max load, and the
level sets and load sums that the subset query peels and certifies.

Below eta 4 a Hop's choices read eta only through ceil(eta/2), so Hops
at slacks 1.0 and 2.0, say, go through the same states
(``decides_alike``).  The subset query, which reads eta itself, takes
the slack it answers for.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import EdgeVerts, log2c

# (head, vertex set): names the group of In(head) holding the edges
# headed at `head` with that vertex set
_GroupKey = Tuple[int, EdgeVerts]


class _DegreeBuckets:
    """Multiset of per-vertex in-degrees with O(1) max tracking.

    Degrees change by +-1 only, which keeps the max current without a
    search tree; the subset query walks the buckets downward from it.
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


class Hop:
    """Orientation maintainer with slack eta, set by the caller.

    A Hop's state depends only on its operations and on eta through
    decides_alike, so Hops whose slacks decide alike behave alike
    whatever load guess they serve.  eta must be
    positive; inserting requires eta >= 1, since loads are integers.
    """

    # how the last subset query ended (query_subset says what each means)
    SUBSET_OUTCOMES = ("kept", "walked", "uncertified")
    last_subset: Optional[str] = None

    def __init__(self, n: int, epsilon: float, eta: float) -> None:
        if n <= 0:
            raise ValueError("vertex count must be positive")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.n = n
        self.epsilon = epsilon
        self.eta = float(eta)

        self._verts: Dict[int, EdgeVerts] = {}
        self._head: Dict[int, int] = {}
        # In(v): {vertex set: {handle: attach seq}}, no group empty, so a
        # probe tests each distinct set once; attach sequence numbers pick
        # the oldest edge among the tight groups probed
        self._in: List[Dict[EdgeVerts, Dict[int, int]]] = [{} for _ in range(n)]
        # Out(v): {(head, vertex set): In(head)[vertex set]} for the live
        # groups that hold v but are headed elsewhere
        self._out: List[Dict[_GroupKey, Dict[int, int]]] = [{} for _ in range(n)]
        self._attach_seq = 0
        self._degs = _DegreeBuckets(n)
        self.last_rotations = 0

    def clone(self) -> "Hop":
        """An independent Hop in the same state, answering as this one would.

        Every container is copied one by one rather than through
        ``__dict__``, so only the state is copied: attributes set on the
        instance (such as patched methods) stay with this one.  Copied
        dicts keep their order, so the probe cursor and attach order of
        In(v) carry over; Out(v) is rebuilt from the copied groups, since
        no answer depends on its order.
        """
        c = Hop.__new__(Hop)
        c.n, c.epsilon, c.eta = self.n, self.epsilon, self.eta
        c._verts = dict(self._verts)
        c._head = dict(self._head)
        c._in = [{vs: dict(g) for vs, g in groups.items()} for groups in self._in]
        c._out = [{} for _ in range(self.n)]
        for head, groups in enumerate(c._in):
            for vs, group in groups.items():
                c._file_out((head, vs), group)
        c._attach_seq = self._attach_seq
        c._degs = self._degs.clone()
        c.last_rotations = self.last_rotations
        return c

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._verts)

    def head_of(self, handle: int) -> int:
        return self._head[handle]

    def d_in(self, v: int) -> int:
        return self._degs.deg[v]

    def loads(self) -> List[int]:
        """Every vertex's in-degree, indexed by vertex; read only.

        The list is updated in place, so one read serves a caller's loop.
        """
        return self._degs.deg

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

    def _file_out(self, key: _GroupKey, group: Dict[int, int]) -> None:
        head, verts = key
        out = self._out
        for u in verts:
            if u != head:
                out[u][key] = group

    def _attach(self, handle: int, verts: EdgeVerts, head: int) -> None:
        """File edge under `head` in its vertex set's group.

        A new group enters Out(u) at each other member u; an edge that
        joins a live group shares that group's entries.
        """
        self._head[handle] = head
        seq = self._attach_seq
        self._attach_seq = seq + 1
        groups = self._in[head]
        group = groups.get(verts)
        if group is not None:
            group[handle] = seq
            return
        group = groups[verts] = {handle: seq}
        self._file_out((head, verts), group)

    def _detach(self, handle: int) -> None:
        head = self._head.pop(handle)
        verts = self._verts[handle]
        groups = self._in[head]
        group = groups[verts]
        del group[handle]
        if not group:
            del groups[verts]
            key = (head, verts)
            out = self._out
            for u in verts:
                if u != head:
                    del out[u][key]

    def _rotate(self, handle: int, v: int) -> None:
        verts = self._verts[handle]
        assert v in verts and v != self._head[handle]
        self._detach(handle)
        self._attach(handle, verts, v)
        self.last_rotations += 1

    def _tight_in_edge(self, v: int) -> Optional[int]:
        """Probe edges headed at v for a slack violation risk.

        Probes ceil(4 d_in(v) / eta) groups of In(v) in cursor order,
        moving each probed group to the end, or every group in place
        when the budget covers In(v) (moving all of them would leave the
        order as it is).  Returns the oldest attached edge of the probed
        groups with a member at least eta/2 below d_in(v), the one a scan
        of those groups in attach order would meet first.
        """
        deg = self._degs.deg
        budget = math.ceil(4.0 * deg[v] / self.eta)
        if not budget:
            return None  # d_in(v) = 0: no member can sit eta/2 below v
        limit = deg[v] - self.eta / 2.0
        groups = self._in[v]
        if budget < len(groups):
            probed = [(vs, groups.pop(vs)) for vs in list(itertools.islice(groups, budget))]
            groups.update(probed)
        else:
            probed = groups.items()
        # tightness depends only on the vertex set: test each group once
        best_h, best_seq = None, math.inf
        for vs, group in probed:
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

    def decides_alike(self, eta: float) -> bool:
        """Whether a Hop at slack eta makes every choice this one makes.

        Loads are integers, so the tightness tests read eta only through
        ceil(eta/2): x <= d - eta/2 holds exactly when x <= d - ceil(eta/2),
        and x < d + eta/2 exactly when x < d + ceil(eta/2).  Below eta 4
        the insert probe's budget covers In(v), so the budget does not
        depend on eta either.  From eta 4 on it does, and only equal
        slacks are known to decide alike.  Only query_subset and
        check_slack read eta itself.
        """
        if self.eta < 4.0 and eta < 4.0:
            return math.ceil(self.eta / 2.0) == math.ceil(eta / 2.0)
        return eta == self.eta

    def _tight_out_edge(self, v: int) -> Optional[int]:
        """An edge of Out(v) whose head is loaded enough to take v's slot.

        Nothing qualifies below d_in(v) + eta/2.  When even the highest
        load of any vertex is below that, the answer is None without
        looking at Out(v).  Otherwise the first pass finds the highest
        head load over the groups of Out(v), and most calls end there, so
        ties are broken only afterwards: among the groups at that load,
        the most recently attached edge is returned.
        """
        deg = self._degs.deg
        limit = deg[v] + self.eta / 2.0
        if self._degs.max_deg < limit:
            return None
        out = self._out[v]
        # plain loops: Out(v) is often a handful of groups, where building
        # a list or a bound method for max() costs more than the scan; an
        # empty Out(v) leaves best at -1, below the limit
        best = -1
        for head, _ in out:
            d = deg[head]
            if d > best:
                best = d
        if best < limit:
            return None
        best_h, best_seq = None, -1
        for (head, _), group in out.items():
            if deg[head] == best:
                h, seq = next(reversed(group.items()))
                if seq > best_seq:
                    best_h, best_seq = h, seq
        return best_h

    # -- public operations ---------------------------------------------

    def insert(self, handle: int, verts: EdgeVerts) -> None:
        if self.eta < 1.0:
            raise ValueError(
                f"eta={self.eta:.4g} < 1: integral loads need more slack"
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
        self._degs.shift(v, +1)

    def delete(self, handle: int) -> int:
        """Remove an edge; returns the head it had, where capacity was freed."""
        if handle not in self._verts:
            raise ValueError(f"unknown edge handle {handle}")
        self.last_rotations = 0
        head = v = self._head[handle]
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
        self._degs.shift(v, -1)
        return head

    # -- queries -------------------------------------------------------

    def query_density(self) -> float:
        """Max load discounted by (1 - eps/2); 0 on the empty structure."""
        return self._degs.max_deg * (1.0 - self.epsilon / 2.0)

    def query_subset(self, eta: Optional[float] = None) -> Set[int]:
        """Level-set subset at slack eta (default: this Hop's own), certified
        from the loads where it can be.

        With S_x = {u: d_in(u) >= x} and d^ the max load, the peel lowers a
        level from d^ by eta while S_{level-eta} has at least 1+gamma times
        as many vertices as S_level, gamma = sqrt(2 eta log n / d^), and
        stops at S_{level-eta}.  A Hop shared by copies that decide alike
        answers each copy's query at that copy's slack.

        The certificate: by the slack invariant every member of an edge
        headed at v has load at least d_in(v) - eta', eta' the larger of
        eta and this Hop's own slack, so for every t, S_{t-eta'} induces at
        least the load sum of S_t.  S_{level-eta'} is kept when the load sum
        of S_level is at least |S_{level-eta'}| d^/(1+eps).  Otherwise the
        walk goes on down the loads t below the level and returns the first
        S_{t-eta'} so certified; it ends once the mean load of S_t falls
        below d^/(1+eps), since the mean only falls and no lower t can
        certify.  If no level certifies, S_{level-eta} is returned as the
        peel left it.  The count includes every vertex at load 0, the answer
        only those on a live edge, so a certified answer has density at
        least d^/(1+eps).  As every orientation of a multiset has a max load
        at least its max density, a certified answer of a Hop that holds
        the whole multiset is a (1+eps)-approximate densest subset.
        ``last_subset`` names how the last query ended: "kept", "walked" or
        "uncertified".

        One walk down the degree buckets carries |S_x| and the load sum of
        S_x, with a trailing walk for S_t; the set itself is built once, at
        the end.
        """
        if not self._verts:
            raise ValueError("subset query on an empty structure")
        degs = self._degs
        buckets = degs.buckets
        d_hat = degs.max_deg
        if eta is None:
            eta = self.eta
        reach = eta if eta >= self.eta else self.eta
        ceil = math.ceil
        grow = 1.0 + math.sqrt(2.0 * eta * log2c(self.n) / d_hat)
        # the lead walks down the buckets holding S_x: x, |S_x| and its
        # load sum; the peel keeps those of S_level
        x = d_hat
        size = len(buckets[x])
        total = x * size
        level = float(d_hat)
        level_x, level_size, level_total = x, size, total
        while True:
            low = ceil(level - eta)
            if low < 0:
                low = 0
            while x > low:
                x -= 1
                bucket = buckets.get(x)
                if bucket:
                    count = len(bucket)
                    size += count
                    total += x * count
            if size < grow * level_size:
                break
            level -= eta
            level_x, level_size, level_total = x, size, total
        # the certificate, first of S_{level-reach}
        target = d_hat / (1.0 + self.epsilon)
        if reach != eta:
            low = ceil(level - reach)
            if low < 0:
                low = 0
            while x > low:
                x -= 1
                bucket = buckets.get(x)
                if bucket:
                    size += len(bucket)
        if level_total >= size * target:
            outcome, stop = "kept", level - reach
        else:
            # then of S_{t-reach} for each load t below the level, while
            # the mean load of S_t can still certify; an integer t has
            # ceil(t - reach) = t - lag
            outcome, stop = "uncertified", level - eta
            lag = int(reach)
            t, t_size, t_total = level_x, level_size, level_total
            while t > 1 and t_total >= t_size * target:
                t -= 1
                bucket = buckets.get(t)
                if not bucket:
                    continue
                count = len(bucket)
                t_size += count
                t_total += t * count
                while x > t - lag and x:
                    x -= 1
                    bucket = buckets.get(x)
                    if bucket:
                        size += len(bucket)
                if t_total >= size * target:
                    outcome, stop = "walked", t - reach
                    break
        self.last_subset = outcome
        out: Set[int] = set()
        for d in range(d_hat, max(ceil(stop), 1) - 1, -1):
            bucket = buckets.get(d)
            if bucket:
                out |= bucket
        if stop <= 0:
            # bucket 0 holds every vertex of the instance at load 0: keep
            # only those on a live edge (dropping the others raises density)
            live = self._out
            out.update([v for v in buckets[0] if live[v]])
        return out

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
        """The delete chain reads true loads: staleness 0, within eta/4.

        For each vertex u, _tight_out_edge(u) must answer as a scan of
        the live edges does: None exactly when no other head of an edge
        through u reaches d_in(u) + eta/2, and otherwise an edge through
        u whose head has the highest such load.
        """
        deg = self._degs.deg
        top = [-1] * self.n
        for h, verts in self._verts.items():
            head = self._head[h]
            for u in verts:
                if u != head and deg[head] > top[u]:
                    top[u] = deg[head]
        for u in range(self.n):
            f = self._tight_out_edge(u)
            if top[u] < deg[u] + self.eta / 2.0:
                assert f is None, f"Out({u}) named edge {f} with no head at the threshold"
            else:
                assert f is not None and u in self._verts[f] and self._head[f] != u and (
                    deg[self._head[f]] == top[u]
                ), f"Out({u}) named edge {f}, not one headed at the top load {top[u]}"

    def check_consistency(self) -> None:
        """Membership and degree bookkeeping agree with a fresh rebuild.

        In(v) must hold no empty group, file each edge headed at v under
        its own vertex set, and number each group's edges in increasing
        attach order.  Out(v) must hold exactly the live groups that
        contain v and are headed elsewhere, each as the very dict In(head)
        keeps.
        """
        counts = [0] * self.n
        for h, verts in self._verts.items():
            v = self._head[h]
            assert v in verts, f"head of {h} not a member"
            counts[v] += 1
            assert h in self._in[v].get(verts, ()), f"edge {h} missing from In({v})"
        assert counts == self._degs.deg, "in-degree counters diverged"
        assert sum(counts) == len(self._verts)
        out: List[Dict[_GroupKey, Dict[int, int]]] = [{} for _ in range(self.n)]
        for v in range(self.n):
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
                for u in key:
                    if u != v:
                        out[u][(v, key)] = group
        for v in range(self.n):
            assert self._out[v].keys() == out[v].keys(), f"Out({v}) diverged from the live groups"
            for key, group in self._out[v].items():
                assert group is out[v][key], f"Out({v}) holds a copy of group {key}"
