import collections
import hashlib
import math
import random

import pytest

from dynadense.hop import Hop
from dynadense.model import WeightedHypergraph, density, log2c
from dynadense.oracles import exact_densest_bruteforce
from dynadense.udshp import Udshp


def test_duplication_formula():
    u = Udshp(16, m_bound=10, r=3, epsilon=0.3, w_star=1.0, dup_constant=64.0)
    expected = math.ceil(64.0 * 3 * log2c(16) / (0.3 * 0.3))
    assert u.dup == expected
    assert u.num_copies == math.ceil(math.log2(10 * expected))


def test_dup_floor_is_one():
    u = Udshp(16, m_bound=10, r=3, epsilon=0.3, dup_constant=0.0)
    assert u.dup == 1


def test_first_edge_lands_in_all_copies():
    u = Udshp(6, m_bound=8, r=3, epsilon=0.5, dup_constant=0.0)
    u.insert((0, 1, 2))
    for j, copy in u.copies.items():
        assert len(copy) == 1, f"copy {j} missing the edge"
        assert not u._pending[j]
    u.check_wrapper_invariants()


def test_single_pair_edge_with_dup_8():
    # dup factor 8 on a single {0,1} edge: exact optimum is 1/2
    u = Udshp(6, m_bound=4, r=2, epsilon=0.5, dup_constant=0.3868)
    assert u.dup == 8
    h = u.insert((0, 1))
    est = u.max_density()
    assert 1 / 2 / 1.5 - 1e-12 <= est <= 1 / 2 + 1e-12
    assert u.densest_subset() >= {0, 1}
    u.delete(h)
    assert u.max_density() == 0.0 and u.active == 0


def test_identical_edges_accumulate_pendings_below_active():
    u = Udshp(4, m_bound=64, r=2, epsilon=0.5, dup_constant=0.0)
    for _ in range(40):
        u.insert((0, 1))
    assert u.active >= 2
    low = [j for j in u.copies if j < u.active]
    assert any(u._pending[j] for j in low), "overloaded low copies should defer edges"
    u.check_wrapper_invariants()


def test_delete_of_pending_twin_leaves_copy_untouched():
    u = Udshp(4, m_bound=64, r=2, epsilon=0.5, dup_constant=0.0)
    handles = [u.insert((0, 1)) for _ in range(40)]
    j = next(j for j in u.copies if u._pending[j])
    pending_handle = next(iter(u._pending[j]))
    public = next(h for h, (_, inns) in u._public.items() if pending_handle in inns)
    before = len(u.copies[j])
    u.delete(public)
    assert pending_handle not in u._pending[j]
    # the copy lost only twins that were actually inserted there
    assert len(u.copies[j]) >= before - u.dup
    u.check_wrapper_invariants(strict_above_active=False)


def test_insert_delete_round_trip_resets_everything():
    rng = random.Random(1)
    u = Udshp(8, m_bound=30, r=3, epsilon=0.4, dup_constant=0.2)
    handles = []
    for _ in range(25):
        verts = tuple(sorted(rng.sample(range(8), rng.randint(2, 3))))
        handles.append(u.insert(verts))
    rng.shuffle(handles)
    for h in handles:
        u.delete(h)
    assert len(u) == 0 and u.active == 0
    assert u.live_internal_count() == 0
    for j, copy in u.copies.items():
        assert len(copy) == 0 and copy.max_in_degree() == 0
        assert not u._pending[j]


def test_capacity_enforced():
    u = Udshp(4, m_bound=2, r=2, epsilon=0.5, dup_constant=0.0)
    u.insert((0, 1))
    u.insert((1, 2))
    with pytest.raises(ValueError):
        u.insert((2, 3))


def test_unknown_delete_rejected():
    u = Udshp(4, m_bound=2, r=2, epsilon=0.5, dup_constant=0.0)
    with pytest.raises(ValueError):
        u.delete(0)


def test_duplication_transparency():
    # the wrapper's answer, rescaled by dup, is a (1+eps) answer for the
    # duplicated multiset, whose optimum is exactly dup * rho*(H)
    eps = 0.4
    g = WeightedHypergraph(6, 3)
    u = Udshp(6, m_bound=10, r=3, epsilon=eps, dup_constant=0.25)
    for verts in [(0, 1), (1, 2), (0, 2), (0, 1, 2), (3, 4)]:
        g.insert(verts)
        u.insert(verts)
    rho = float(exact_densest_bruteforce(g).best_density)
    est = u.max_density()
    assert rho / (1 + eps) - 1e-9 <= est <= rho + 1e-9
    scaled_opt = u.dup * rho
    assert scaled_opt / (1 + eps) - 1e-9 <= est * u.dup <= scaled_opt + 1e-9


def test_mixed_run_sandwich_and_invariants():
    rng = random.Random(17)
    n, r, eps = 12, 3, 0.3
    u = Udshp(n, m_bound=200, r=r, epsilon=eps, w_star=1.0, dup_constant=0.15)
    g = WeightedHypergraph(n, r)
    pairs = []
    for step in range(150):
        if pairs and rng.random() < 0.35:
            ph, gh = pairs.pop(rng.randrange(len(pairs)))
            u.delete(ph)
            g.delete(gh)
        else:
            verts = tuple(sorted(rng.sample(range(n), rng.randint(2, r))))
            pairs.append((u.insert(verts), g.insert(verts)))
        if step % 10 == 9 and len(g):
            rho = float(exact_densest_bruteforce(g).best_density)
            est = u.max_density()
            assert rho / (1 + eps) - 1e-9 <= est <= rho + 1e-9
            sub = u.densest_subset()
            assert float(density(g, sub)) >= rho / (1 + eps) - 1e-9
            u.check_wrapper_invariants(strict_above_active=False)


def _udshp_state(u):
    """Everything an insert or delete can change, per Hop copy."""
    return u.active, {
        j: (
            {h: copy.head_of(h) for h, _ in copy.edges()},
            [copy.d_in(v) for v in range(u.n)],
            list(u._pending[j].items()),
        )
        for j, copy in u.copies.items()
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_copies_match_repeated_single_inserts(seed):
    # counted inserts run the same internal operations as c single inserts
    args = dict(n=6, m_bound=120, r=3, epsilon=0.5, dup_constant=0.1)
    counted, single = Udshp(**args), Udshp(**args)
    assert counted.dup > 1
    rng = random.Random(seed)
    live = {}  # counted handle -> the single-insert handles of its copies
    for _ in range(40):
        if live and rng.random() < 0.4:
            h = rng.choice(sorted(live))
            counted.delete(h)
            for hs in live.pop(h):
                single.delete(hs)
        else:
            verts = tuple(sorted(rng.sample(range(6), rng.randint(2, 3))))
            c = rng.randint(1, 4)
            if len(counted) + c > args["m_bound"]:
                continue
            live[counted.insert(verts, c)] = [single.insert(verts) for _ in range(c)]
        assert _udshp_state(counted) == _udshp_state(single)
        assert len(counted) == len(single) == sum(len(hs) for hs in live.values())
        assert counted.max_density() == single.max_density()
    assert counted.active > 1


def test_copies_count_toward_length_and_capacity():
    u = Udshp(4, m_bound=5, r=2, epsilon=0.5, dup_constant=0.0)
    h = u.insert((0, 1), copies=3)
    assert len(u) == 3 and h in u
    with pytest.raises(ValueError):
        u.insert((1, 2), copies=3)
    assert len(u) == 3 and u.live_internal_count() == 3
    for bad in (0, -1):
        with pytest.raises(ValueError):
            u.insert((1, 2), copies=bad)
    u.delete(h)
    assert len(u) == 0 and h not in u


def test_core_heavy_insert_stream_is_pinned():
    # half the edges inside a 12-vertex core at dup 10: long runs of
    # identical vertex sets in every copy; the per-step answers were
    # captured before Hop grouped In(v) by vertex set
    rng = random.Random(7)
    n = 60
    u = Udshp(n, m_bound=400, r=3, epsilon=0.3, dup_constant=0.05)
    assert u.dup == 10
    digest = hashlib.sha256()
    for _ in range(300):
        if rng.random() < 0.5:
            verts = rng.sample(range(12), rng.randint(2, 3))
        else:
            verts = rng.sample(range(n), rng.randint(2, 3))
        u.insert(verts)
        digest.update(repr((u.max_density(), sorted(u.densest_subset()))).encode())
    assert u.active == 8
    assert digest.hexdigest() == (
        "17c9bef7c0d283b01c291107e1b39bc21469d25e1d5c4ec5378324b65460b097"
    )


def test_window_churn_stream_is_pinned(monkeypatch):
    # sliding-window churn at dup 10 whose live count swings 120 <-> 8:
    # low copies withhold core edges, deletes swap them back in and the
    # active index advances and retreats; the per-step state was captured
    # when Out(v) began to keep entry order
    rng = random.Random(11)
    n = 60
    u = Udshp(n, m_bound=400, r=3, epsilon=0.3, dup_constant=0.05)
    assert u.dup == 10
    deleting = False
    swap_ins = 0

    insert = Hop.insert

    def counted(hop, handle, verts):
        # on the class, so copies forked off later are counted too
        nonlocal swap_ins
        swap_ins += deleting
        insert(hop, handle, verts)

    monkeypatch.setattr(Hop, "insert", counted)
    window = collections.deque()
    retreats = top = 0
    digest = hashlib.sha256()
    for target in (120, 8) * 3:
        for _ in range(110):
            if len(window) < target:
                core = rng.random() < 0.6
                verts = rng.sample(range(8 if core else n), rng.randint(2, 3))
                window.append(u.insert(verts))
                top = max(top, u.active)
            if len(window) > target or (len(window) > 1 and rng.random() < 0.3):
                before = u.active
                deleting = True
                u.delete(window.popleft())
                deleting = False
                retreats += u.active < before
            pending = [list(u._pending[j]) for j in u.copies]
            state = (u.active, u.max_density(), sorted(u.densest_subset()), pending)
            digest.update(repr(state).encode())
    u.check_wrapper_invariants(strict_above_active=False)
    assert digest.hexdigest() == (
        "31c34ba9dc444a1be86aa165ce67b8e0a2964e23bf946f90a2d946fe2da7bcec"
    )
    assert top >= 7 and retreats >= 15 and swap_ins >= 8000, swap_ins


@pytest.mark.parametrize("dup_constant,slack_constant", [(0.0, 32.0), (0.05, 1.0)])
def test_shared_copies_match_unshared_copies(dup_constant, slack_constant, monkeypatch):
    # copies with equal slack share one Hop until one of them withholds; a
    # twin whose copies each own a Hop from the start must stay in lock-step
    # through grow/shrink churn with withholds, swap-ins and retreats.  At
    # dup 9 the small slack constant leaves the top copies unclamped, with
    # a Hop each, two of them lazy
    args = dict(n=30, m_bound=100, r=3, epsilon=0.3, dup_constant=dup_constant,
                slack_constant=slack_constant)
    shared, reference = Udshp(**args), Udshp(**args)
    assert shared.dup == (1 if dup_constant == 0.0 else 9)
    for j, copy in reference.copies.items():
        reference.copies[j] = copy.clone()
    hops = len({id(copy) for copy in shared.copies.values()})
    assert hops < shared.num_copies
    assert len({id(copy) for copy in reference.copies.values()}) == shared.num_copies
    deleting = False
    swap_ins = 0
    insert = Hop.insert

    def counted(hop, handle, verts):
        # swap-ins of both twins
        nonlocal swap_ins
        swap_ins += deleting
        insert(hop, handle, verts)

    monkeypatch.setattr(Hop, "insert", counted)
    rng = random.Random(5)
    window = collections.deque()
    retreats = 0
    for target in (90, 4) * 2:
        for _ in range(110):
            if len(window) < target:
                core = rng.random() < 0.6
                verts = rng.sample(range(6 if core else args["n"]), rng.randint(2, 3))
                window.append((shared.insert(verts), reference.insert(verts)))
            if len(window) > target or (len(window) > 1 and rng.random() < 0.3):
                before = shared.active
                hs, hr = window.popleft()
                deleting = True
                shared.delete(hs)
                reference.delete(hr)
                deleting = False
                retreats += shared.active < before
            assert _udshp_state(shared) == _udshp_state(reference)
            assert shared.max_density() == reference.max_density()
            assert shared.densest_subset() == reference.densest_subset()
            shared.check_wrapper_invariants(strict_above_active=False)
    forked = len({id(copy) for copy in shared.copies.values()})
    assert forked > hops and retreats >= 10 and swap_ins >= 100
