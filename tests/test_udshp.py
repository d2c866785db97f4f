import hashlib
import math
import random

import pytest

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
