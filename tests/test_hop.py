import collections
import hashlib
import math
import random

import pytest

from dynadense.hop import Hop, _DegreeBuckets
from dynadense.model import log2c


def fill(hop, edges):
    for k, verts in enumerate(edges):
        hop.insert(k, tuple(sorted(verts)))
    return hop


class TestDegreeBuckets:
    def test_matches_naive_under_random_shifts(self):
        rng = random.Random(2)
        n = 12
        b = _DegreeBuckets(n)
        naive = [0] * n
        for _ in range(500):
            v = rng.randrange(n)
            delta = 1 if naive[v] == 0 or rng.random() < 0.6 else -1
            naive[v] += delta
            b.shift(v, delta)
            assert b.max_deg == max(naive)
            assert {d: vs for d, vs in b.buckets.items() if vs} == {
                d: {v for v in range(n) if naive[v] == d} for d in set(naive)}


class TestInsert:
    def test_first_edge_head_is_smallest_id(self):
        h = Hop(2, 0.5, 2.0)
        h.insert(0, (0, 1))
        assert h.head_of(0) == 0
        assert (h.d_in(0), h.d_in(1)) == (1, 0)

    def test_second_copy_balances(self):
        h = Hop(2, 0.5, 2.0)
        h.insert(0, (0, 1))
        h.insert(1, (0, 1))
        assert h.head_of(1) == 1
        assert (h.d_in(0), h.d_in(1)) == (1, 1)

    def test_no_chain_within_slack(self):
        # d_in=(2,1) from three {0,1} edges; a fourth heads at 1 with no
        # rotations because 2 <= 1 + eta
        h = Hop(2, 0.5, 2.0)
        for k in range(3):
            h.insert(k, (0, 1))
        assert (h.d_in(0), h.d_in(1)) == (2, 1)
        h.insert(3, (0, 1))
        assert (h.d_in(0), h.d_in(1)) == (2, 2)
        assert h.last_rotations == 0

    def test_requires_unit_slack(self):
        h = Hop(64, 0.3, 0.5)
        assert h.eta < 1
        with pytest.raises(ValueError):
            h.insert(0, (0, 1))

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_rejects_nonpositive_slack(self, eta):
        with pytest.raises(ValueError):
            Hop(4, 0.5, eta)

    def test_duplicate_handle_rejected(self):
        h = Hop(3, 0.5, 2.0)
        h.insert(0, (0, 1))
        with pytest.raises(ValueError):
            h.insert(0, (1, 2))


class TestDelete:
    def test_single_edge_round_trip(self):
        h = Hop(2, 0.5, 2.0)
        h.insert(0, (0, 1))
        h.delete(0)
        assert len(h) == 0
        assert (h.d_in(0), h.d_in(1)) == (0, 0)

    def test_copies_any_order(self):
        rng = random.Random(4)
        h = Hop(2, 0.5, 2.0)
        ks = list(range(9))
        for k in ks:
            h.insert(k, (0, 1))
        rng.shuffle(ks)
        for k in ks:
            head = h.head_of(k)
            assert h.delete(k) == head  # the head whose edge left
        assert h.max_in_degree() == 0

    def test_unknown_handle_rejected(self):
        h = Hop(2, 0.5, 2.0)
        with pytest.raises(ValueError):
            h.delete(13)


class TestRotate:
    def test_bookkeeping(self):
        h = Hop(3, 0.5, 2.0)
        h.insert(0, (0, 1, 2))
        assert h.head_of(0) == 0
        before = sum(h.d_in(v) for v in range(3))
        h._rotate(0, 2)
        assert h.head_of(0) == 2
        group = h._in[2][(0, 1, 2)]
        assert 0 in group and h._out[0] == h._out[1] == {(2, (0, 1, 2)): group}
        assert not h._out[2]
        assert sum(h.d_in(v) for v in range(3)) == before
        h._rotate(0, 0)
        assert h.head_of(0) == 0
        group = h._in[0][(0, 1, 2)]
        assert 0 in group and h._out[1] == h._out[2] == {(0, (0, 1, 2)): group}
        assert not h._out[0] and not h._in[2]
        h.check_consistency()


class TestTightEdges:
    def test_tight_in_nothing_to_scan(self):
        h = Hop(3, 0.5, 2.0)
        assert h._tight_in_edge(0) is None

    @staticmethod
    def _skewed_state():
        # hand-built orientation the public chain would never leave in
        # place: d_in(0)=5 from four rank-1 edges plus edge 10={0,3}
        h = Hop(4, 0.5, 2.0)
        for k in range(4):
            h._verts[k] = (0,)
            h._attach(k, (0,), 0)
            h._degs.shift(0, +1)
        h._verts[10] = (0, 3)
        h._attach(10, (0, 3), 0)
        h._degs.shift(0, +1)
        return h

    def test_tight_in_fires_on_large_gap(self):
        h = self._skewed_state()
        # the only In(0) edge with a member at degree <= d_in(0) - eta/2
        assert h._tight_in_edge(0) == 10

    def test_tight_out_empty(self):
        h = Hop(3, 0.5, 2.0)
        assert h._tight_out_edge(0) is None

    def test_tight_out_threshold(self):
        h = self._skewed_state()
        # Out(3) holds edge 10 keyed by d_in(0)=5 >= d_in(3) + eta/2
        assert h._tight_out_edge(3) == 10
        # balanced pair: key 1 < 1 + eta/2, nothing tight
        h2 = Hop(2, 0.5, 2.0)
        h2.insert(0, (0, 1))
        h2.insert(1, (0, 1))
        assert h2._tight_out_edge(1) is None


def check_all(h: Hop):
    h.check_slack()
    h.check_staleness()
    h.check_consistency()


@pytest.mark.parametrize("eta", [1.0, 2.0, 4.0, 6.0])
def test_random_mixed_sequences_keep_invariants(eta):
    # eta values on both sides of 4, where the insert probe's budget
    # ceil(4 d / eta) starts to fall short of In(v)
    rng = random.Random(int(eta * 10))
    n, r = 10, 3
    h = Hop(n, 0.4, eta)
    live = []
    next_handle = 0
    for step in range(400):
        if live and rng.random() < 0.4:
            k = live.pop(rng.randrange(len(live)))
            h.delete(k)
        else:
            verts = tuple(sorted(rng.sample(range(n), rng.randint(2, r))))
            h.insert(next_handle, verts)
            live.append(next_handle)
            next_handle += 1
        # chain-length bound against the post-operation max load
        d_hat = max(h.max_in_degree(), 1)
        assert h.last_rotations <= math.ceil(d_hat / h.eta) + 1
        if step % 20 == 19:
            check_all(h)
    check_all(h)
    for k in live:
        h.delete(k)
    assert h.max_in_degree() == 0 and len(h) == 0


@pytest.mark.parametrize("eta", [1.0, 3.9, 4.0, 6.0])
def test_insert_probe_moves_budget_groups_to_the_end(eta):
    # vertex 0 heads nine single-edge groups {0, i} whose other members are
    # loaded well above it, so nothing is tight; inserting {0, 10} probes
    # ceil(4 * 9 / eta) groups of In(0).  When that falls short of In(0)
    # (eta 4.0 and 6.0) exactly that many groups move from the front to
    # the end; otherwise (eta 1.0 and 3.9) In(0) keeps its order.  No load
    # change moves the cursor.
    h = Hop(11, 0.4, eta)
    heavy = [(i, j) for i in range(1, 11) for j in range(i + 1, 11)] * 5
    fill(h, heavy)
    assert min(h.d_in(u) for u in range(1, 11)) >= 10
    for i in range(1, 10):
        h.insert(len(heavy) + i, (0, i))
    assert h.d_in(0) == 9
    before = [*h._in[0], (0, 10)]
    h.insert(len(heavy) + 10, (0, 10))
    assert h.last_rotations == 0 and h.d_in(0) == 10
    budget = math.ceil(4 * 9 / eta)
    if budget < len(before):
        assert list(h._in[0]) == before[budget:] + before[:budget]
    else:
        assert list(h._in[0]) == before
    h.check_consistency()


@pytest.mark.parametrize("eta", [2.0, 6.0])
def test_parallel_copies_share_one_out_entry_per_group(eta):
    # 40 copies each of two vertex sets: Out(u) names each live
    # (head, vertex set) group once, however many copies it holds, and
    # drops it only when its last copy leaves
    h = Hop(3, 0.4, eta)
    for k in range(80):
        h.insert(k, (0, 1) if k % 2 else (0, 1, 2))

    def check():
        for u in range(3):
            live = {(h.head_of(k), vs) for k, vs in h.edges() if u in vs and h.head_of(k) != u}
            assert set(h._out[u]) == live
        h.check_consistency()

    check()
    for k in [*range(0, 80, 3), *range(1, 80, 3)]:
        h.delete(k)
        check()


# sha256 over every step's (head of each live edge, last_rotations), captured
# when the delete chain's ties first went to the latest attached edge of
# Out(v) (1.0, 2.3; unchanged since).  4.0 and 6.0 were recaptured when the
# delete chain began to read true head loads at every slack (it read
# mirrors, ties to the smallest group key) and the insert probe began to
# return the oldest tight edge of all the groups it moves, with no further
# cursor move after a load change
BURST_DIGESTS = {
    1.0: "370ad060d48a455764acd02e1e2c76377bbcbab67e4517ee302cb2fadd99c9a4",
    2.3: "5d242e0f7ee1fd995db26b9f6725edbb4e6d69e20aecac06ddcfda7af8d3149e",
    4.0: "7f593dce5ee25a8aa78f4da8566f9849bdd38307d6c9704141c85066d7d67c72",
    6.0: "0da36d69a0757a744e96dade600f900dc798f45f4a986d9689cad7930a84414b",
}


@pytest.mark.parametrize("eta", sorted(BURST_DIGESTS))
def test_repeated_vertex_set_bursts_are_pinned(eta):
    # bursts of 5-20 copies of a few vertex sets, as Udshp's duplication
    # makes them, with bursts of deletes; heads and chain lengths must not
    # depend on how In(v) is stored, with or without a budgeted probe.
    # Repeated sets are the only path where an edge joins a live group, so
    # the invariants are checked after every step.  Grouped, eta 6.0 made
    # 263 rotations in 120 rounds, so the runs at eta >= 4 are longer to
    # keep the rotation floor.
    rng = random.Random(int(eta * 100))
    n = 8
    h = Hop(n, 0.4, eta)
    pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(16)]
    live = []
    next_handle = rotations = deletes = 0
    digest = hashlib.sha256()

    def step():
        nonlocal rotations
        rotations += h.last_rotations
        digest.update(repr(([h.head_of(k) for k in live], h.last_rotations)).encode())
        check_all(h)

    for _ in range(120 if eta < 4.0 else 160):
        if len(live) > 40 and rng.random() < 0.45:
            for _ in range(rng.randint(1, 15)):
                if not live:
                    break
                h.delete(live.pop(rng.randrange(len(live))))
                deletes += 1
                step()
        else:
            verts = rng.choice(pool)
            for _ in range(rng.randint(5, 20)):
                h.insert(next_handle, verts)
                live.append(next_handle)
                next_handle += 1
                step()
    assert rotations > 300 and deletes > 300
    assert digest.hexdigest() == BURST_DIGESTS[eta]


@pytest.mark.parametrize("eta", [1.5, 6.0])
def test_clone_runs_in_lock_step(eta):
    # a clone taken mid-stream answers every later operation as its
    # original does, with a probe that covers In(v) (1.5) and with a
    # budgeted one (6.0), and shares no container with it.  At 6.0 this
    # stream made 37 rotations in 80 rounds once the delete chain read
    # true loads (43 with mirrors), so that run is longer to keep the
    # rotation floor.
    rng = random.Random(int(eta * 10))
    n = 10
    pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(12)]
    h = Hop(n, 0.4, eta)
    live = []
    next_handle = 0

    def burst(hops):
        nonlocal next_handle
        if len(live) > 30 and rng.random() < 0.45:
            for k in [live.pop(rng.randrange(len(live))) for _ in range(rng.randint(1, 8))]:
                yield [hop.delete(k) for hop in hops]
        else:
            verts = rng.choice(pool)
            for _ in range(rng.randint(1, 8)):
                yield [hop.insert(next_handle, verts) for hop in hops]
                live.append(next_handle)
                next_handle += 1

    def state(hop):
        subset = hop.query_subset() if live else None
        heads = {k: hop.head_of(k) for k in live}
        return heads, [hop.d_in(v) for v in range(n)], hop.last_rotations, subset

    for _ in range(40):
        for _ in burst([h]):
            pass
    twin = h.clone()
    assert state(twin) == state(h)
    rotations = 0
    for _ in range(80 if eta < 4.0 else 110):
        for _ in burst([h, twin]):
            assert state(twin) == state(h)
            rotations += h.last_rotations
        check_all(h)
        check_all(twin)
    assert rotations > 40
    before = state(h)
    for k in live[: len(live) // 2]:
        twin.delete(k)
    for k in range(next_handle, next_handle + 20):
        twin.insert(k, pool[k % len(pool)])
    check_all(twin)
    assert state(h) == before
    check_all(h)


def _decision_state(hop):
    """Everything a Hop's later choices can read, apart from eta."""
    heads = {k: hop.head_of(k) for k, _ in hop.edges()}
    in_order = [[(vs, list(group.items())) for vs, group in groups.items()] for groups in hop._in]
    return heads, in_order, hop._attach_seq, list(hop.loads())


def _churn_lock_step(hops, seed):
    """Drive the same bursts of repeated vertex sets through every Hop;
    returns whether their decision states ever differed, and the count of
    rotations the first Hop made."""
    rng = random.Random(seed)
    n = hops[0].n
    pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(10)]
    live = []
    next_handle = rotations = 0
    diverged = False
    for _ in range(150):
        if len(live) > 30 and rng.random() < 0.45:
            ops = [("delete", live.pop(rng.randrange(len(live)))) for _ in range(rng.randint(1, 10))]
        else:
            verts = rng.choice(pool)
            ops = [("insert", next_handle + i, verts) for i in range(rng.randint(1, 10))]
            live.extend(next_handle + i for i in range(len(ops)))
            next_handle += len(ops)
        for op, *args in ops:
            for hop in hops:
                getattr(hop, op)(*args)
            rotations += hops[0].last_rotations
            states = [_decision_state(hop) for hop in hops]
            diverged |= any(state != states[0] for state in states)
    for hop in hops:
        check_all(hop)
    return diverged, rotations


@pytest.mark.parametrize("etas", [(1.0, 1.051, 2.0), (2.1, 3.9)])
def test_slacks_that_decide_alike_keep_identical_state(etas):
    # below eta 4 a Hop reads eta only through ceil(eta/2): heads, In(v)
    # order, attach sequence numbers and loads stay equal under churn
    hops = [Hop(10, 0.4, eta) for eta in etas]
    assert all(hops[0].decides_alike(eta) for eta in etas)
    diverged, rotations = _churn_lock_step(hops, seed=8)
    assert not diverged and rotations > 50


def test_slacks_that_decide_unlike_diverge():
    # the negative control: ceil(1.0/2) = 1, ceil(2.1/2) = 2
    hops = [Hop(10, 0.4, 1.0), Hop(10, 0.4, 2.1)]
    assert not hops[0].decides_alike(2.1)
    diverged, _ = _churn_lock_step(hops, seed=8)
    assert diverged


@pytest.mark.parametrize("eta,other,alike", [
    (1.0, 2.0, True),
    (2.0, 2.1, False),
    (2.1, 3.99, True),
    (3.9, 4.0, False),   # the budgeted probe starts at eta 4
    (4.0, 4.0, True),
    (4.2, 4.3, False),
    (6.0, 6.0, True),
])
def test_decides_alike(eta, other, alike):
    assert Hop(4, 0.5, eta).decides_alike(other) is alike
    assert Hop(4, 0.5, other).decides_alike(eta) is alike


class TestQueries:
    def test_density_empty(self):
        h = Hop(4, 0.5, 2.0)
        assert h.query_density() == 0.0

    def test_density_formula(self):
        h = Hop(2, 0.5, 2.0)
        for k in range(7):
            h.insert(k, (0, 1))
        assert h.query_density() == h.max_in_degree() * 0.75

    def test_subset_empty_rejected(self):
        h = Hop(4, 0.5, 2.0)
        with pytest.raises(ValueError):
            h.query_subset()

    def test_subset_single_cluster(self):
        h = Hop(4, 0.5, 2.0)
        h.insert(0, (0, 1))
        s = h.query_subset()
        assert s and s <= {0, 1, 2, 3}


def _induced_units(hop, subset):
    return sum(set(verts) <= subset for _, verts in hop.edges())


def _reference_subset(hop, eta):
    """query_subset's answer and outcome, from level sets built one by one."""
    deg, n, eps = hop.loads(), hop.n, hop.epsilon
    reach = max(eta, hop.eta)
    on_edge = {v for _, verts in hop.edges() for v in verts}

    def size(x):
        # the peel and the certificate count every vertex at load 0
        return sum(d >= x for d in deg)

    def level_set(x):
        # the answer keeps only the vertices on a live edge
        return {v for v in range(n) if deg[v] >= x and (deg[v] or v in on_edge)}

    def load_sum(x):
        return sum(d for d in deg if d >= x)

    d_hat = max(deg)
    gamma = math.sqrt(2.0 * eta * log2c(n) / d_hat)
    level = float(d_hat)
    while size(level - eta) >= (1.0 + gamma) * size(level):
        level -= eta
    target = d_hat / (1.0 + eps)
    if load_sum(level) >= size(level - reach) * target:
        return level_set(level - reach), "kept"
    for t in sorted({d for d in deg if 1 <= d < math.ceil(level)}, reverse=True):
        if load_sum(t) >= size(t - reach) * target:
            return level_set(t - reach), "walked"
    return level_set(level - eta), "uncertified"


@pytest.mark.parametrize("eta", [1.0, 1.5, 2.0, 3.2, 4.0, 6.5])
def test_subset_certificate_is_sound(eta):
    # random Hops under inserts and deletes: for every t, S_{t-eta} (the
    # vertices at load >= t - eta) induces at least the load sum of S_t,
    # and a certified answer induces at least |S| d^/(1+eps) units; the
    # answer matches a reference built from level sets, also when the
    # query's slack is below the Hop's own
    rng = random.Random(int(eta * 10))
    outcomes = collections.Counter()
    for trial in range(30):
        n = rng.randint(4, 12)
        h = Hop(n, rng.choice([0.1, 0.3, 0.6]), eta)
        pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, min(3, n)))))
                for _ in range(rng.randint(2, 8))]
        live, next_handle = [], 0
        for _ in range(rng.randint(5, 120)):
            if live and rng.random() < 0.3:
                h.delete(live.pop(rng.randrange(len(live))))
            else:
                h.insert(next_handle, rng.choice(pool))
                live.append(next_handle)
                next_handle += 1
        if not live:
            continue
        check_all(h)
        deg = h.loads()
        for t in range(max(deg) + 2):
            loads = sum(d for d in deg if d >= t)
            assert _induced_units(h, {v for v in range(n) if deg[v] >= t - eta}) >= loads
        for query_eta in (eta, max(1.0, eta / 2)):
            subset = h.query_subset(query_eta)
            assert (subset, h.last_subset) == _reference_subset(h, query_eta)
            outcomes[h.last_subset] += 1
            if h.last_subset != "uncertified":
                bound = len(subset) * max(deg) / (1.0 + h.epsilon)
                assert _induced_units(h, subset) >= bound - 1e-9
    assert set(outcomes) == set(Hop.SUBSET_OUTCOMES), outcomes
