import hashlib
import math
import random

import pytest

from dynadense.hop import Hop, _DegreeBuckets


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
            t = rng.randint(0, max(naive))
            assert b.at_least(t) == {v for v in range(n) if naive[v] >= t}


class TestInsert:
    def test_first_edge_head_is_smallest_id(self):
        h = Hop(2, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1))
        assert h.head_of(0) == 0
        assert (h.d_in(0), h.d_in(1)) == (1, 0)

    def test_second_copy_balances(self):
        h = Hop(2, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1))
        h.insert(1, (0, 1))
        assert h.head_of(1) == 1
        assert (h.d_in(0), h.d_in(1)) == (1, 1)

    def test_no_chain_within_slack(self):
        # d_in=(2,1) from three {0,1} edges; a fourth heads at 1 with no
        # rotations because 2 <= 1 + eta
        h = Hop(2, 0.5, 4.0, eta_override=2.0)
        for k in range(3):
            h.insert(k, (0, 1))
        assert (h.d_in(0), h.d_in(1)) == (2, 1)
        h.insert(3, (0, 1))
        assert (h.d_in(0), h.d_in(1)) == (2, 2)
        assert h.last_rotations == 0

    def test_requires_unit_slack(self):
        h = Hop(64, 0.3, 1.0)  # formula eta is far below 1
        assert h.eta < 1
        with pytest.raises(ValueError):
            h.insert(0, (0, 1))

    def test_duplicate_handle_rejected(self):
        h = Hop(3, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1))
        with pytest.raises(ValueError):
            h.insert(0, (1, 2))


class TestDelete:
    def test_single_edge_round_trip(self):
        h = Hop(2, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1))
        h.delete(0)
        assert len(h) == 0
        assert (h.d_in(0), h.d_in(1)) == (0, 0)

    def test_copies_any_order(self):
        rng = random.Random(4)
        h = Hop(2, 0.5, 8.0, eta_override=2.0)
        ks = list(range(9))
        for k in ks:
            h.insert(k, (0, 1))
        rng.shuffle(ks)
        for k in ks:
            h.delete(k)
        assert h.max_in_degree() == 0

    def test_unknown_handle_rejected(self):
        h = Hop(2, 0.5, 4.0, eta_override=2.0)
        with pytest.raises(ValueError):
            h.delete(13)


class TestRotate:
    def test_bookkeeping(self):
        h = Hop(3, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1, 2))
        assert h.head_of(0) == 0
        before = sum(h.d_in(v) for v in range(3))
        h._rotate(0, 2)
        assert h.head_of(0) == 2
        assert 0 in h._in[2][(0, 1, 2)] and 0 in h._out[0] and 0 in h._out[1]
        assert sum(h.d_in(v) for v in range(3)) == before
        h._rotate(0, 0)
        assert h.head_of(0) == 0
        assert 0 in h._in[0][(0, 1, 2)] and 0 in h._out[1] and 0 in h._out[2]
        h.check_consistency()


class TestTightEdges:
    def test_tight_in_nothing_to_scan(self):
        h = Hop(3, 0.5, 4.0, eta_override=2.0)
        assert h._tight_in_edge(0) is None

    @staticmethod
    def _skewed_state():
        # hand-built orientation the public chain would never leave in
        # place: d_in(0)=5 from four rank-1 edges plus edge 10={0,3}
        h = Hop(4, 0.5, 8.0, eta_override=2.0)
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
        h = Hop(3, 0.5, 4.0, eta_override=2.0)
        assert h._tight_out_edge(0) is None

    def test_tight_out_threshold(self):
        h = self._skewed_state()
        # Out(3) holds edge 10 keyed by d_in(0)=5 >= d_in(3) + eta/2
        assert h._tight_out_edge(3) == 10
        # balanced pair: key 1 < 1 + eta/2, nothing tight
        h2 = Hop(2, 0.5, 4.0, eta_override=2.0)
        h2.insert(0, (0, 1))
        h2.insert(1, (0, 1))
        assert h2._tight_out_edge(1) is None


def check_all(h: Hop):
    h.check_slack()
    h.check_staleness()
    h.check_consistency()


@pytest.mark.parametrize("eta_override", [1.0, 2.0, 4.0, 6.0])
def test_random_mixed_sequences_keep_invariants(eta_override):
    # eta values on both sides of the always-informs-everything boundary;
    # 4.0 is the smallest slack on the lazy side
    rng = random.Random(int(eta_override * 10))
    n, r = 10, 3
    h = Hop(n, 0.4, 32.0, eta_override=eta_override)
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


@pytest.mark.parametrize("eta_override", [1.0, 3.9, 4.0, 6.0])
def test_mirrors_exist_only_in_lazy_regime(eta_override):
    # below eta 4 probes cover In(v), so no mirror, heap or dirty entry is
    # ever written; from eta 4 on every live edge carries its mirrors
    rng = random.Random(5)
    h = Hop(8, 0.4, 32.0, eta_override=eta_override)
    assert h._fresh == (eta_override < 4.0)
    live = []
    rotations = deletes = 0
    for k in range(300):
        if live and rng.random() < 0.4:
            h.delete(live.pop(rng.randrange(len(live))))
            deletes += 1
        else:
            h.insert(k, tuple(sorted(rng.sample(range(8), rng.randint(2, 3)))))
            live.append(k)
        rotations += h.last_rotations
        if h._fresh:
            assert not h._mir and not any(h._heap) and not any(h._dirty)
        else:
            assert set(h._mir) == set(live)
    assert rotations > 0 and deletes > 0


# sha256 over every step's (head of each live edge, last_rotations), captured
# when Out(v) began to keep entry order (1.0, 2.3: the fresh delete chain's
# ties go to the latest entry) and before the lazy In(v) became an ordered
# dict (4.0, 6.0)
BURST_DIGESTS = {
    1.0: "370ad060d48a455764acd02e1e2c76377bbcbab67e4517ee302cb2fadd99c9a4",
    2.3: "5d242e0f7ee1fd995db26b9f6725edbb4e6d69e20aecac06ddcfda7af8d3149e",
    4.0: "fd0ab06f47247151df949fa15b049df99224bb07b5244d2252ef0812133ec974",
    6.0: "fbd8db9b1a5cff8f54c4b36750a208fa54d9f4160b5f63041bf8f668163902e0",
}


@pytest.mark.parametrize("eta_override", sorted(BURST_DIGESTS))
def test_repeated_vertex_set_bursts_are_pinned(eta_override):
    # bursts of 5-20 copies of a few vertex sets, as Udshp's duplication
    # makes them, with bursts of deletes; heads and chain lengths must not
    # depend on how In(v) is stored, in either regime
    rng = random.Random(int(eta_override * 100))
    n = 8
    h = Hop(n, 0.4, 64.0, eta_override=eta_override)
    assert h._fresh == (eta_override < 4.0)
    pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(16)]
    live = []
    next_handle = rotations = deletes = 0
    digest = hashlib.sha256()

    def step():
        nonlocal rotations
        rotations += h.last_rotations
        digest.update(repr(([h.head_of(k) for k in live], h.last_rotations)).encode())

    for _ in range(120):
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
    check_all(h)
    assert rotations > 300 and deletes > 300
    assert digest.hexdigest() == BURST_DIGESTS[eta_override]


@pytest.mark.parametrize("eta_override", [1.5, 6.0])
def test_clone_runs_in_lock_step(eta_override):
    # a clone taken mid-stream answers every later operation as its
    # original does, in the fresh (1.5) and the lazy (6.0) regime, and
    # shares no container with it
    rng = random.Random(int(eta_override * 10))
    n = 10
    pool = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(12)]
    h = Hop(n, 0.4, 64.0, eta_override=eta_override)
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
    for _ in range(80):
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


class TestQueries:
    def test_density_empty(self):
        h = Hop(4, 0.5, 4.0, eta_override=2.0)
        assert h.query_density() == 0.0

    def test_density_formula(self):
        h = Hop(2, 0.5, 8.0, eta_override=2.0)
        for k in range(7):
            h.insert(k, (0, 1))
        assert h.query_density() == h.max_in_degree() * 0.75

    def test_subset_empty_rejected(self):
        h = Hop(4, 0.5, 4.0, eta_override=2.0)
        with pytest.raises(ValueError):
            h.query_subset()

    def test_subset_single_cluster(self):
        h = Hop(4, 0.5, 4.0, eta_override=2.0)
        h.insert(0, (0, 1))
        s = h.query_subset()
        assert s and s <= {0, 1, 2, 3}
