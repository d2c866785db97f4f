import collections
import hashlib
import math
import random
import sys

import pytest

from dynadense.hop import Hop
from dynadense.model import WeightedHypergraph, density, log2c
from dynadense.oracles import exact_densest_bruteforce
import dynadense.udshp as udshp_module
from dynadense.udshp import Udshp


def _units(counts, key, verts):
    """The withheld (unit handle, vertex set) pairs of edge `key`: its last
    `counts[key]` units."""
    return [(ih, verts) for ih in range(key - counts[key], key)]


def _withheld(u, j):
    """Copy j's withheld (unit handle, vertex set) pairs, in handle order."""
    u._catch_up_all()
    edges = {key: vs for bucket in u._pending_at[j].values() for key, vs in bucket.items()}
    counts = u._withheld[j]
    return [unit for key in sorted(counts) for unit in _units(counts, key, edges[key])]


def test_duplication_formula():
    u = Udshp(16, m_bound=10, r=3, epsilon=0.3, w_star=1.0, dup_constant=64.0)
    expected = math.ceil(64.0 * 3 * log2c(16) / (0.3 * 0.3))
    assert u.dup == expected
    assert u.num_copies == math.ceil(math.log2(10 * expected))


def test_dup_floor_is_one():
    u = Udshp(16, m_bound=10, r=3, epsilon=0.3, dup_constant=0.0)
    assert u.dup == 1


def test_first_edge_lands_in_all_copies():
    # every built copy takes the first edge; at the default slack constant
    # every slack is clamped to 1, so one run spans every copy and is built
    # with the structure, while at slack constant 0.25 copies 4 (eta 3.1),
    # 5 and 6 form runs of their own, which the index (0 until an insert
    # reads a load) has not reached
    for slack_constant, built in ((32.0, 6), (0.25, 3)):
        u = Udshp(6, m_bound=64, r=3, epsilon=0.5, dup_constant=0.0,
                  slack_constant=slack_constant)
        assert u.num_copies == 6
        u.insert((0, 1, 2))
        assert u.active == 0
        assert list(u.copies) == list(range(1, built + 1))
        for j, copy in u.copies.items():
            assert len(copy) == 1, f"built copy {j} missing the edge"
            assert not u._pending_at[j]
        assert len({id(copy) for copy in u.copies.values()}) == 1
        u.check_wrapper_invariants()
    assert not u.copies[3].decides_alike(u._slacks[4])


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
    assert any(u._pending_at[j] for j in low), "overloaded low copies should defer edges"
    u.check_wrapper_invariants()


def test_delete_of_pending_twin_leaves_copy_untouched():
    u = Udshp(4, m_bound=64, r=2, epsilon=0.5, dup_constant=0.0)
    handles = [u.insert((0, 1)) for _ in range(40)]
    j = next(j for j in u.copies if u._pending_at[j])
    pending_handle = _withheld(u, j)[0][0]
    public = next(h for h, (_, inns) in u._public.items() if pending_handle in inns)
    before = len(u.copies[j])
    u.delete(public)
    assert pending_handle not in dict(_withheld(u, j))
    # the copy lost only twins that were actually inserted there
    assert len(u.copies[j]) >= before - u.dup
    u.check_wrapper_invariants(strict_above_active=False)


def test_wrapper_invariants_catch_a_corrupt_pending_index():
    # the counts must equal the live units the Hop lacks, and the index must
    # list, in key order, exactly the edges with a count; at dup 3 a count
    # one less can still leave units withheld
    for dup_constant, dup, inserts in ((0.0, 1, 40), (0.1, 3, 15)):
        rng = random.Random(3)
        u = Udshp(5, m_bound=64, r=3, epsilon=0.5, dup_constant=dup_constant)
        assert u.dup == dup
        for _ in range(inserts):
            u.insert(rng.sample(range(5), rng.randint(2, 3)))
        u.check_wrapper_invariants()
        j = max(u.copies, key=lambda j: len(_withheld(u, j)))
        counts, index = u._withheld[j], u._pending_at[j]
        v, bucket = max(index.items(), key=lambda item: len(item[1]))
        assert len(bucket) >= 2
        held_key, held_verts = next(
            (internals.stop, verts) for verts, internals in u._public.values()
            if internals.stop not in counts)
        withheld = next(iter(bucket))
        most = max(counts, key=counts.get)
        assert dup == 1 or counts[most] >= 2

        def also_list_held():
            bucket[held_key] = held_verts

        def drop_withheld():
            for w in bucket[withheld]:
                del index[w][withheld]
                if not index[w]:
                    del index[w]

        def drop_from_one_bucket():
            del bucket[withheld]

        def reorder():
            items = list(bucket.items())[::-1]
            bucket.clear()
            bucket.update(items)

        def count_one_more():
            counts[withheld] += 1

        def count_one_less():
            counts[most] -= 1

        for corrupt in (also_list_held, drop_withheld, drop_from_one_bucket, reorder,
                        count_one_more, count_one_less):
            saved = dict(counts), {w: dict(b) for w, b in index.items()}
            corrupt()
            with pytest.raises(AssertionError):
                u.check_wrapper_invariants()
            counts.clear()
            counts.update(saved[0])
            index.clear()
            index.update(saved[1])
            bucket = index[v]
            u.check_wrapper_invariants()


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
        assert not u._pending_at[j]


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


def test_mixed_runs_over_twenty_seeds_stay_in_the_sandwich():
    # the mixed run above over seeds 0-19: every estimate within
    # [rho*/(1+eps), rho*] and every subset at least rho*/(1+eps) dense;
    # the query copy's subset outcomes count every subset query
    n, r, eps = 12, 3, 0.3
    outcomes = collections.Counter()
    for seed in range(20):
        rng = random.Random(seed)
        u = Udshp(n, m_bound=200, r=r, epsilon=eps, w_star=1.0, dup_constant=0.15)
        assert u.dup == 18
        g = WeightedHypergraph(n, r)
        pairs = []
        queries = 0
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
                assert rho / (1 + eps) - 1e-9 <= est <= rho + 1e-9, (seed, step)
                sub = u.densest_subset()
                queries += 1
                assert float(density(g, sub)) >= rho / (1 + eps) - 1e-9, (seed, step)
        stats = u.stats()
        counts = {k: stats[f"subsets_{k}"] for k in Hop.SUBSET_OUTCOMES}
        assert sum(counts.values()) == queries
        outcomes.update(counts)
    assert outcomes["kept"] and outcomes["walked"], outcomes


def test_shared_copies_one_below_the_index_make_no_hop_calls(monkeypatch):
    # insert-only at dup 9, where every slack is clamped to 1 and one run
    # spans every copy: a copy one below the index keeps sharing the run's
    # Hop and takes every unit, and a copy forks only two or more below,
    # after which it is deferred, so each update calls only the Hop that
    # the copy at the index holds
    rng = random.Random(3)
    u = Udshp(40, m_bound=300, r=3, epsilon=0.3, dup_constant=0.05)
    assert u.dup == 9 and len({id(copy) for copy in u.copies.values()}) == 1
    called = set()
    insert, clone = Hop.insert, Hop.clone
    clones = []

    def counted(hop, handle, verts):
        called.add(id(hop))
        insert(hop, handle, verts)

    def cloned(hop):
        clones.append(clone(hop))
        return clones[-1]

    monkeypatch.setattr(Hop, "insert", counted)
    monkeypatch.setattr(Hop, "clone", cloned)
    shared_below = 0
    for _ in range(200):
        verts = rng.sample(range(8 if rng.random() < 0.6 else 40), rng.randint(2, 3))
        called.clear()
        u.insert(verts)
        query = u.copies[max(u.active, 1)]
        assert called <= {id(query)}, (u.active, len(called))
        below = u.copies.get(u.active - 1)
        if below is query:
            shared_below += 1
            assert not u._withheld[u.active - 1]
    assert u.active >= 5 and shared_below >= 100
    assert u.stats()["forks"] == len(clones) >= u.active - 2
    assert set(u._deferred) == set(range(1, u.active - 1))
    u.check_wrapper_invariants()


def test_unit_handles_must_fit_a_machine_size_range():
    # dup 8 on a rank-2 edge set: m_bound up to sys.maxsize // 8 is accepted
    m_bound = sys.maxsize // 8
    u = Udshp(2, m_bound=m_bound, r=2, epsilon=0.5, dup_constant=1.0)
    assert u.dup == 8 and u.dup * m_bound <= sys.maxsize
    u.insert((0, 1))
    with pytest.raises(ValueError, match="machine-size"):
        Udshp(2, m_bound=m_bound + 1, r=2, epsilon=0.5, dup_constant=1.0)


def _udshp_state(u):
    """Everything an insert or delete can change, per Hop copy."""
    u._catch_up_all()
    return u.active, {
        j: (
            {h: copy.head_of(h) for h, _ in copy.edges()},
            [copy.d_in(v) for v in range(u.n)],
            _withheld(u, j),
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
    # identical vertex sets in every copy; the per-step estimates have not
    # moved since before Hop grouped In(v) by vertex set, and the subsets
    # were captured again when the subset query began to certify them
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
        "1bbc1f2626645d0ea72c46931128da1c37e796254add7b8045548144303fb442"
    )


def test_window_churn_stream_is_pinned(monkeypatch):
    # sliding-window churn at dup 10 whose live count swings 120 <-> 8:
    # low copies withhold core edges, deletes swap them back in and the
    # active index advances and retreats; the per-step state was captured
    # when a shared copy one below the index began to keep sharing rather
    # than fork, and the subset query began to certify its answers
    rng = random.Random(11)
    n = 60
    u = Udshp(n, m_bound=400, r=3, epsilon=0.3, dup_constant=0.05)
    assert u.dup == 10
    deleting = False
    swap_ins = 0

    insert = Hop.insert
    delete_from = Udshp._delete_from

    def counted(hop, handle, verts):
        # on the class, so copies forked off later are counted too
        nonlocal swap_ins
        swap_ins += deleting
        insert(hop, handle, verts)

    def deleting_from(*args):
        # a swap-in is an insert made by a copy's delete, whether the delete
        # runs in the update or in a deferred copy's catch-up
        nonlocal deleting
        deleting = True
        try:
            return delete_from(*args)
        finally:
            deleting = False

    monkeypatch.setattr(Hop, "insert", counted)
    monkeypatch.setattr(Udshp, "_delete_from", deleting_from)
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
                u.delete(window.popleft())
                retreats += u.active < before
            pending = [[h for h, _ in _withheld(u, j)] for j in u.copies]
            query = u.copies[max(u.active, 1)]
            live = {ih for _, internals in u._public.values() for ih in internals}
            assert u.stats()["query_withheld"] == len(live - {h for h, _ in query.edges()})
            state = (u.active, u.max_density(), sorted(u.densest_subset()), pending)
            digest.update(repr(state).encode())
    u.check_wrapper_invariants(strict_above_active=False)
    assert digest.hexdigest() == (
        "7b192e8db6b5ee3ced5fc8b427d3395d8a4f4723dbab28a40d6cf18cde604cbe"
    )
    assert top >= 7 and retreats >= 15 and swap_ins >= 8000, swap_ins
    assert swap_ins == 9493


class _UnitByUnit(Udshp):
    """The reference insert: every unit in turn, through every copy.

    The active index advances before each unit, building each run it
    reaches, and each built copy then withholds the unit or inserts it; a
    higher member of a shared run skips a unit its lowest member inserted.
    The lowest member of a shared run inserts rather than withholds while
    it lies one below the index, and forks when it first withholds.
    Counts in `seen` which cases a stream reached.
    """

    # the units of the edge being inserted that every built copy has taken
    _taken = range(0)
    _taken_verts = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = collections.Counter()

    def _build_run(self, j):
        # a run the index reaches mid-edge has taken the edge's earlier
        # units too, since no copy of it was below the index
        super()._build_run(j)
        hop = self.copies[j]
        for ih in self._taken:
            hop.insert(ih, self._taken_verts)
        if self._taken:
            self.seen["run built mid-edge"] += 1

    def _shares(self, j):
        """Whether copy j shares its Hop with copy j + 1."""
        return self.copies.get(j + 1) is self.copies[j]

    def _fork(self, j):
        """Copy j leaves its run, with the state the run has."""
        self.copies[j] = self.copies[j].clone()

    def _advance_active(self):
        start = self.active
        while True:
            probe = max(self.active, 1)
            if probe not in self.copies:
                self._build_run(probe)
            if (self.active == self.num_copies
                    or self.copies[probe].max_in_degree() < 2 ** self.active):
                break
            self.active += 1
        if self.active - start >= 2:
            self.seen["cascade within one unit"] += 1

    def _insert_internal(self, handle, key, verts, k, withholding):
        self._advance_active()
        active = self.active
        copies = self.copies
        inserted = None
        for j, copy in copies.items():
            if copy is inserted:
                continue
            if j < active and min(copy.d_in(u) for u in verts) >= 2 ** j:
                if self._shares(j):
                    if j + 1 == active:
                        self.seen["shared insert one below"] += 1
                        copy.insert(handle, verts)
                        inserted = copy
                        continue
                    self._fork(j)
                    if k > 0:
                        self.seen["fork mid-edge"] += 1
                elif k > 0 and j not in withholding:
                    self.seen["unshared withhold from k > 0"] += 1
                withholding.add(j)
                counts = self._withheld[j]
                counts[key] = counts.get(key, 0) + 1
                for v in verts:
                    self._pending_at[j].setdefault(v, {})[key] = verts
            else:
                copy.insert(handle, verts)
                inserted = copy

    def _insert_units(self, handles, verts):
        if self.active == 0:
            self.seen["start at active 0"] += 1
        withholding = set()
        self._taken_verts = verts
        for k, ih in enumerate(handles):
            self._taken = handles[:k]
            self._insert_internal(ih, handles.stop, verts, k, withholding)
        self._taken = range(0)


def _pending_order(u):
    """Per copy and vertex, the withheld (unit handle, vertex set) pairs in
    withhold order."""
    u._catch_up_all()
    return {j: {v: [unit for key, vs in bucket.items()
                    for unit in _units(u._withheld[j], key, vs)]
                for v, bucket in index.items()}
            for j, index in u._pending_at.items()}


def test_run_by_run_insert_matches_unit_by_unit():
    # the run-by-run insert against the unit loop it replaced, at dup 11
    # with counted inserts (33 units for copies=3), under grow/shrink
    # churn; the small slack constant gives the top copies eta >= 4
    args = dict(n=8, m_bound=120, r=3, epsilon=0.3, dup_constant=0.1,
                slack_constant=0.3)
    runs, units = Udshp(**args), _UnitByUnit(**args)
    assert runs.dup == 11 and max(runs._slacks.values()) >= 4.0
    rng = random.Random(23)
    window = collections.deque()
    for target in (100, 6) * 2:
        # an index that lags the loads is rare in a stream (a retreat
        # leaves the copy above it at most half full), so to reach an
        # advance over several levels and runs in one unit, and a run the
        # index reaches only at a later unit, it is set back to a random
        # level in both twins: the insert must carry any index alike
        for step in range(90):
            if step % 10 == 0:
                runs.active = units.active = rng.randint(0, runs.active)
            if len(window) < target:
                core = rng.random() < 0.6
                verts = rng.sample(range(3 if core else args["n"]), rng.randint(2, 3))
                c = rng.randint(1, 3)
                if len(runs) + c <= args["m_bound"]:
                    window.append((runs.insert(verts, c), units.insert(verts, c)))
            if len(window) > target or (len(window) > 1 and rng.random() < 0.3):
                hr, hu = window.popleft()
                runs.delete(hr)
                units.delete(hu)
            assert _udshp_state(runs) == _udshp_state(units)
            assert _pending_order(runs) == _pending_order(units)
            assert runs.active == units.active
            assert runs.max_density() == units.max_density()
            # a set-back index can leave the query copy empty
            if len(runs.copies[max(runs.active, 1)]):
                assert runs.densest_subset() == units.densest_subset()
        runs.check_wrapper_invariants(strict_above_active=False)
    assert set(units.seen) == {
        "cascade within one unit", "fork mid-edge", "unshared withhold from k > 0",
        "start at active 0", "run built mid-edge", "shared insert one below",
    }, units.seen


class _Unshared(_UnitByUnit):
    """Builds each copy of a run with a Hop of its own, at its own slack.

    It applies the rules that read whether a copy shares its Hop to the
    copies that would share one: each run, as built, is a block, and a
    copy leaves its block when it forks.
    """

    def __init__(self, *args, **kwargs):
        self._block = {}  # copy -> the lowest copy of the run it was built in
        super().__init__(*args, **kwargs)

    def _build_run(self, j):
        super()._build_run(j)
        run, low = self.copies[j], j
        while self.copies.get(j) is run:
            hop = self.copies[j] = Hop(self.n, self.epsilon, self._slacks[j])
            for verts, internals in self._public.values():
                for ih in internals:
                    hop.insert(ih, verts)
            for ih in self._taken:
                hop.insert(ih, self._taken_verts)
            self._block[j] = low
            j += 1

    def _shares(self, j):
        block = self._block.get(j)
        return block is not None and self._block.get(j + 1) == block

    def _fork(self, j):
        del self._block[j]


@pytest.mark.parametrize("dup_constant,slack_constant", [(0.0, 32.0), (0.05, 1.0)])
def test_shared_copies_match_unshared_copies(dup_constant, slack_constant, monkeypatch):
    # copies whose slacks decide alike share one Hop until one of them
    # forks; a twin whose copies each own a Hop at their own slack from
    # the moment their run is built, and insert unit by unit, must stay in
    # lock-step through grow/shrink churn with withholds, swap-ins and
    # retreats.  At dup 9 the
    # small slack constant leaves the top copies unclamped: copy 7 (eta
    # 1.17) shares the slack-1 run's Hop, and the three above it (eta 2.3,
    # 4.7 and 9.4) are runs of their own that the index, at most 7 here,
    # never reaches, so they are never built
    args = dict(n=30, m_bound=100, r=3, epsilon=0.3, dup_constant=dup_constant,
                slack_constant=slack_constant)
    shared, reference = Udshp(**args), _Unshared(**args)
    assert shared.dup == (1 if dup_constant == 0.0 else 9)
    hops = len({id(copy) for copy in shared.copies.values()})
    assert hops < len(shared.copies)
    if dup_constant:
        assert shared.copies[7] is shared.copies[1] and shared._slacks[7] > 1.0
        assert list(shared.copies) == list(range(1, 8))
    assert len({id(copy) for copy in reference.copies.values()}) == len(reference.copies)
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
    # the twin's copies that would share took units one below the index
    assert reference.seen["shared insert one below"], reference.seen
    # at dup 1 the copies are 1-7, all of them in one run
    assert list(shared.copies) == list(reference.copies) == list(range(1, 8))


def _hop_decisions(hop):
    """Everything a Hop's later choices can read, apart from eta."""
    heads = {k: hop.head_of(k) for k, _ in hop.edges()}
    in_order = [[(vs, list(group.items())) for vs, group in groups.items()] for groups in hop._in]
    return heads, in_order, hop._attach_seq, list(hop.loads())


class _Eager(Udshp):
    """Builds every run with the structure."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for j in range(2, self.num_copies + 1):
            if j not in self.copies:
                self._build_run(j)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_runs_built_on_first_reach_match_runs_built_up_front(seed):
    # insert-only: a run built when the index first reaches it holds the
    # state it would have had had it been built with the structure, attach
    # sequence numbers included.  The small slack constant leaves copies 5-12
    # unclamped (eta 1.1 to 142), each from copy 6 on a run of its own
    args = dict(n=20, m_bound=400, r=3, epsilon=0.3, dup_constant=0.05,
                slack_constant=0.3)
    lazy, eager = Udshp(**args), _Eager(**args)
    assert list(lazy.copies) == list(range(1, 6))
    assert len(eager.copies) == eager.num_copies == 12
    built = []  # (copy, live units) at each build
    build = lazy._build_run

    def counted(j):
        built.append((j, lazy.live_internal_count()))
        build(j)

    lazy._build_run = counted
    rng = random.Random(seed)
    for _ in range(150):
        core = rng.random() < 0.5
        verts = rng.sample(range(5 if core else args["n"]), rng.randint(2, 3))
        c = rng.randint(1, 2)
        lazy.insert(verts, c)
        eager.insert(verts, c)
        assert lazy.active == eager.active
        lazy_pending, eager_pending = _pending_order(lazy), _pending_order(eager)
        for j, copy in lazy.copies.items():
            twin = eager.copies[j]
            assert _hop_decisions(copy) == _hop_decisions(twin), f"copy {j}"
            assert (copy is lazy.copies.get(j + 1)) == (twin is eager.copies.get(j + 1))
            assert lazy_pending[j] == eager_pending[j]
        assert lazy.max_density() == eager.max_density()
        assert lazy.densest_subset() == eager.densest_subset()
        lazy.check_wrapper_invariants()
    assert sum(live > 0 for _, live in built) >= 2, built
    assert len(lazy.copies) < lazy.num_copies


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_runs_built_after_deletes_hold_every_live_unit(seed):
    # the live count grows in phases of 12, 25 and 50 edges with a fall to 3
    # between them, so the index reaches runs that no earlier phase
    # reached, and builds them after deletes: from the live units alone,
    # which the built run then holds in full.  The density sandwich is not
    # checked here: a retreat can leave the query copy withholding edges
    n = 12
    u = Udshp(n, m_bound=60, r=3, epsilon=0.3, dup_constant=0.2, slack_constant=0.3)
    assert u.dup == 24
    deletes = 0
    after_deletes = []
    build = u._build_run

    def checked(j):
        build(j)
        live = {ih for _, internals in u._public.values() for ih in internals}
        assert {h for h, _ in u.copies[j].edges()} == live
        assert all(not u._pending_at[i] for i in range(j, len(u.copies) + 1))
        if deletes:
            after_deletes.append(j)

    u._build_run = checked
    rng = random.Random(seed)
    window = collections.deque()
    for target in (12, 3, 25, 3, 50, 3):
        for _ in range(60):
            if len(window) < target:
                core = rng.random() < 0.6
                verts = rng.sample(range(5 if core else n), rng.randint(2, 3))
                window.append(u.insert(verts))
            if len(window) > target or (len(window) > 1 and rng.random() < 0.3):
                u.delete(window.popleft())
                deletes += 1
            u.check_wrapper_invariants(strict_above_active=False)
    assert after_deletes


class _NeverDefers(Udshp):
    """Defers no copy, so every copy takes each update as it comes."""

    def _insert_units(self, handles, verts):
        defer_below = udshp_module.DEFER_BELOW
        udshp_module.DEFER_BELOW = self.num_copies + 1
        try:
            super()._insert_units(handles, verts)
        finally:
            udshp_module.DEFER_BELOW = defer_below


@pytest.mark.parametrize("dup_constant,seed", [(0.0, 6), (0.05, 3)])
def test_deferred_copies_match_copies_never_deferred(dup_constant, seed):
    # grow/shrink churn whose live count swings 120 <-> 8, with counted
    # inserts: the copies two or more below the index are deferred and
    # caught up when a retreat reaches them, or here every 25 steps, so a
    # replay spans many updates; the twin defers no copy.
    # A retreat over two levels in one delete is rare, and each seed is
    # one whose stream makes one
    args = dict(n=30, m_bound=400, r=3, epsilon=0.3, dup_constant=dup_constant)
    lazy, eager = Udshp(**args), _NeverDefers(**args)
    assert lazy.dup == (1 if dup_constant == 0.0 else 9)
    replays = []  # log entries each replay into a copy of `lazy` took
    replay = lazy._replay

    def recorded(j, end):
        replays.append(end - lazy._deferred[j])
        replay(j, end)

    lazy._replay = recorded
    rng = random.Random(seed)
    window = collections.deque()
    multi_level = deferred = 0
    step = 0
    for target in (120, 8) * 2:
        for _ in range(110):
            if len(window) < target:
                core = rng.random() < 0.6
                verts = rng.sample(range(8 if core else args["n"]), rng.randint(2, 3))
                c = rng.randint(1, 3)
                if len(lazy) + c <= args["m_bound"]:
                    window.append((lazy.insert(verts, c), eager.insert(verts, c)))
                deferred = max(deferred, lazy.stats()["deferred"])
            if len(window) > target or (len(window) > 1 and rng.random() < 0.3):
                hl, he = window.popleft()
                before = lazy.active
                lazy.delete(hl)
                eager.delete(he)
                multi_level += before - lazy.active >= 2
            assert lazy.active == eager.active
            assert lazy.max_density() == eager.max_density()
            if len(lazy):
                assert lazy.densest_subset() == eager.densest_subset()
            step += 1
            if step % 25 == 0:
                lazy.check_wrapper_invariants(strict_above_active=False)
                assert _udshp_state(lazy) == _udshp_state(eager)
                assert _pending_order(lazy) == _pending_order(eager)
                for j, copy in lazy.copies.items():
                    assert _hop_decisions(copy) == _hop_decisions(eager.copies[j]), j
                assert lazy.stats()["deferred"] == lazy.stats()["log"] == 0
    stats = lazy.stats()
    assert stats["catch_ups"] == len(replays) and stats["replayed"] == sum(replays)
    assert eager.stats()["deferred"] == 0
    assert deferred >= 1 and multi_level >= 1 and max(replays) >= 50, (
        deferred, multi_level, sorted(replays)[-5:])


def test_deferred_copies_take_no_inserts(monkeypatch):
    # insert-only: no retreat catches a deferred copy up, so its Hop takes no
    # insert after it is deferred, and the structure makes fewer Hop inserts
    # than a twin that defers no copy
    args = dict(n=12, m_bound=300, r=3, epsilon=0.3, dup_constant=0.05)
    lazy, eager = Udshp(**args), _NeverDefers(**args)
    calls = collections.Counter()
    insert = Hop.insert

    def counted(hop, handle, verts):
        # on the class, so copies forked off later are counted too
        calls[hop] += 1
        insert(hop, handle, verts)

    monkeypatch.setattr(Hop, "insert", counted)
    at_deferral = {}  # deferred copy -> its Hop's inserts when deferred
    rng = random.Random(4)
    for _ in range(120):
        verts = rng.sample(range(4 if rng.random() < 0.5 else args["n"]), rng.randint(2, 3))
        lazy.insert(verts)
        eager.insert(verts)
        assert lazy.active == eager.active
        assert lazy.max_density() == eager.max_density()
        for j in lazy._deferred:
            at_deferral.setdefault(j, calls[lazy.copies[j]])
    assert lazy.active >= 4 and at_deferral
    assert lazy.stats()["catch_ups"] == 0
    for j, count in at_deferral.items():
        assert calls[lazy.copies[j]] == count, f"deferred copy {j} took inserts"

    def total(u):
        return sum(calls[hop] for hop in set(u.copies.values()))

    assert total(lazy) < total(eager), (total(lazy), total(eager))


# the digest of each (dup constant, seed) case, kept out of the test ids
_LOG_DIGESTS = {
    (0.0, 0): "b7b38ff78f201fc4d5d4babbd8fc9d4ccaa8b8ec2e8e41f743466fa55715ed10",
    (0.05, 1): "12dbb8df66369b8d92c8eefb9c6735dbcbe08b94dc279620d3ca4e71e31be915",
}


@pytest.mark.parametrize("dup_constant,seed", list(_LOG_DIGESTS))
def test_log_stays_within_the_peak_units(dup_constant, seed):
    # a long window stream whose index stays high, so copies stay deferred
    # for many turnovers of the live edges, then a shrink whose retreats
    # reach them: the log never holds more entries than the most units live
    # at once so far, so the bound replays into deferred copies while the
    # index stays put. The digest reads only what a user sees after each
    # step and was taken from a structure that defers no copy
    args = dict(n=30, m_bound=400, r=3, epsilon=0.3, dup_constant=dup_constant)
    u = Udshp(**args)
    rng = random.Random(seed)
    window = collections.deque()
    digest_of = hashlib.sha256()
    bounded = retreated = 0  # replays made by the bound and by retreats
    peak = 0
    low = u.num_copies  # lowest index once the window is full
    for step in range(1800):
        target = 60 if step < 1500 else 4
        catch_ups, active = u.stats()["catch_ups"], u.active
        if len(window) < target:
            core = rng.random() < 0.6
            verts = rng.sample(range(8 if core else args["n"]), rng.randint(2, 3))
            window.append(u.insert(verts, rng.randint(1, 3)))
            peak = max(peak, u.live_internal_count())
        if len(window) > target or (len(window) > 1 and rng.random() < 0.5):
            u.delete(window.popleft())
        caught_up = u.stats()["catch_ups"] - catch_ups
        if u.active < active:
            retreated += caught_up
        else:
            bounded += caught_up
        if 200 <= step < 1500:
            low = min(low, u.active)
        assert u.stats()["log"] <= peak, (step, peak, u.stats())
        subset = sorted(u.densest_subset()) if len(u) else []
        digest_of.update(repr((u.active, u.max_density(), subset)).encode())
    assert digest_of.hexdigest() == _LOG_DIGESTS[dup_constant, seed]
    assert low >= 3 and bounded >= 1000 and retreated >= 50, (low, bounded, retreated)
    u.check_wrapper_invariants(strict_above_active=False)
