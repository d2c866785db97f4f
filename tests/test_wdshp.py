import itertools
import math
import random

import numpy as np
import pytest

from dynadense.hop import Hop
from dynadense.model import WeightedHypergraph, density
from dynadense.oracles import exact_densest_bruteforce
from dynadense.udshp import Udshp
from dynadense.wdshp import Wdshp, epsilon_from_delta


class TestEpsilonFromDelta:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.5, 0.9])
    def test_satisfies_inequality(self, delta):
        eps = epsilon_from_delta(delta)
        assert 0 < eps <= delta / 5 + 1e-12
        assert (1 - 2 * eps) * (1 + delta) >= (1 + eps) ** 3 - 1e-9

    def test_known_value(self):
        assert epsilon_from_delta(0.5) == pytest.approx(0.0800443, abs=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            epsilon_from_delta(0.0)
        with pytest.raises(ValueError):
            epsilon_from_delta(1.0)


def small_instance(**kw):
    args = dict(
        n=8, m_bound=8, r=3, delta=0.5, w_max=20, c=8.0, seed=0, dup_constant=0.0
    )
    args.update(kw)
    return Wdshp(**args)


# a small sampling constant puts the upper guesses below rate 1
SUBUNIT = dict(c=0.5, w_max=100)


class TestConfig:
    def test_guess_grid_covers_range(self):
        w = small_instance()
        assert w.rho_guesses[0] == pytest.approx(w.w_max / w.r)
        assert w.rho_guesses[-1] >= w.r * w.m_bound  # top guess past m*w_max/.. bound
        ratios = [b / a for a, b in zip(w.rho_guesses, w.rho_guesses[1:])]
        assert all(r == pytest.approx(1 + w.epsilon) for r in ratios)

    def test_q_clamped_to_one(self):
        w = small_instance()
        assert all(0 < q <= 1 for q in w.q)

    def test_weight_class_rounding(self):
        w = small_instance()
        eps = w.epsilon
        for wt in [1, 2, 5, 13, 20]:
            j = w.weight_class(wt)
            size = w.class_sizes[j]
            # rounded-up class size is within a (1+eps) factor above wt
            assert wt <= size <= (1 + eps) * wt + 1e-9

    def test_weight_bounds_enforced(self):
        w = small_instance()
        with pytest.raises(ValueError):
            w.insert((0, 1), 0)
        with pytest.raises(ValueError):
            w.insert((0, 1), 21)


class TestSampler:
    def test_q_one_is_deterministic(self):
        w = small_instance()
        i = 0  # smallest guess: q = 1 at this scale
        assert w.q[i] == 1.0
        j = w.weight_class(13)
        assert all(w.sample_count(i, j) == w.class_sizes[j] for _ in range(5))

    def test_out_of_range_rejected(self):
        w = small_instance()
        with pytest.raises(ValueError):
            w.sample_count(-1, 0)
        with pytest.raises(ValueError):
            w.sample_count(0, 99)

    def test_subunit_rate_mean(self):
        # tiny sampling constant forces q < 1; draws track the mean N*q
        w = small_instance(c=0.05, w_max=100)
        i = next(k for k, q in enumerate(w.q) if q < 0.9)
        j = w.num_weight_classes - 1
        size, q = w.class_sizes[j], w.q[i]
        draws = [w.sample_count(i, j) for _ in range(4000)]
        assert all(0 <= s <= size for s in draws)
        mean = sum(draws) / len(draws)
        sigma = math.sqrt(size * q * (1 - q) / len(draws))
        assert abs(mean - size * q) <= 4 * sigma + 1e-9

    def test_replay_by_seed(self):
        a = small_instance(seed=7, c=0.05, w_max=100)
        b = small_instance(seed=7, c=0.05, w_max=100)
        i = next(k for k, q in enumerate(a.q) if q < 0.9)
        j = a.num_weight_classes - 1
        assert [a.sample_count(i, j) for _ in range(50)] == [
            b.sample_count(i, j) for _ in range(50)
        ]


class TestUpdates:
    def test_rate_one_guesses_hold_exact_rounded_expansion(self):
        w = small_instance()
        weights = [3, 7, 20, 1]
        expected = 0
        for k, wt in enumerate(weights):
            w.insert((k % 4, (k + 1) % 4 + 4), wt)
            expected += w.class_sizes[w.weight_class(wt)]
        for i, q in enumerate(w.q):
            if q == 1.0:
                assert len(w.ensembles[i]) == expected

    def test_delete_restores_all_ensembles(self):
        rng = random.Random(3)
        w = small_instance()
        handles = []
        for _ in range(6):
            verts = tuple(sorted(rng.sample(range(8), rng.randint(2, 3))))
            handles.append(w.insert(verts, rng.randint(1, 20)))
        rng.shuffle(handles)
        for h in handles:
            w.delete(h)
        assert len(w) == 0
        for ensemble in w.ensembles:
            assert len(ensemble) == 0 and ensemble.active == 0

    def test_copy_conservation(self):
        for w in (small_instance(), small_instance(**SUBUNIT)):
            handles = [w.insert((k % 4, 4 + k % 3, 7), 2 * k + 1) for k in range(5)]
            w.delete(handles[1])
            w.delete(handles[3])
            distinct = [ensemble for _, ensemble in w._distinct]
            # the registry's slots cover every ensemble any guess uses
            assert {id(e) for e in w.ensembles} == {id(e) for e in distinct}
            for slot, ensemble in enumerate(distinct):
                recorded = [
                    per_ensemble[slot]
                    for _, _, per_ensemble in w._registry.values()
                    if per_ensemble[slot] is not None
                ]
                # one inner handle per drawn edge, and nothing else live
                assert sorted(ensemble._public) == sorted(recorded)

    def test_unknown_delete_rejected(self):
        w = small_instance()
        with pytest.raises(ValueError):
            w.delete(5)


class TestSharedEnsemble:
    @pytest.mark.parametrize("kw", [{}, SUBUNIT])
    def test_rate_one_guesses_alias_one_ensemble(self, kw):
        w = small_instance(**kw)
        assert len(w.ensembles) == w.num_guesses
        rate1 = [i for i, q in enumerate(w.q) if q >= 1.0]
        subunit = [i for i, q in enumerate(w.q) if q < 1.0]
        assert rate1
        shared = w.ensembles[rate1[0]]
        assert all(w.ensembles[i] is shared for i in rate1)
        ids = {id(w.ensembles[i]) for i in subunit} | {id(shared)}
        assert len(ids) == len(subunit) + 1 == len(w._distinct)
        if kw:
            assert subunit

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_ensemble_matches_standalone_udshp(self, seed):
        # a nonzero duplication constant makes the inner dup depend on w_star
        w = small_instance(dup_constant=0.02)
        ref = Udshp(
            w.n,
            m_bound=w.m_bound * max(w.class_sizes),
            r=w.r,
            epsilon=w.epsilon,
            w_star=max(w.w_max / 2.0, 1.0),
            dup_constant=0.02,
        )
        shared = w.ensembles[0]
        assert shared.dup == ref.dup > 1
        rng = random.Random(seed)
        live = {}  # Wdshp handle -> the reference's handles for its copies
        for _ in range(40):
            if live and rng.random() < 0.35:
                h = rng.choice(sorted(live))
                w.delete(h)
                for ih in live.pop(h):
                    ref.delete(ih)
            elif len(live) < w.m_bound:
                verts = tuple(sorted(rng.sample(range(w.n), rng.randint(2, 3))))
                wt = rng.randint(1, w.w_max)
                copies = w.class_sizes[w.weight_class(wt)]
                live[w.insert(verts, wt)] = [ref.insert(verts) for _ in range(copies)]
            assert len(shared) == len(ref)
            assert shared.max_density() == ref.max_density()
            if len(ref):
                assert shared.densest_subset() == ref.densest_subset()

    def test_sampler_streams_pinned_to_spawn_children(self):
        seed = 11
        w = small_instance(seed=seed, **SUBUNIT)
        G, W = w.num_guesses, w.num_weight_classes
        children = np.random.SeedSequence(seed).spawn(G * W)
        subunit = [i for i, q in enumerate(w.q) if q < 1.0]
        cells = [(subunit[0], 0), (subunit[0], W - 1), (subunit[-1], W // 2)]
        # interleave the cells: each keeps its own stream
        got = {cell: [] for cell in cells}
        for _ in range(30):
            for i, j in cells:
                got[(i, j)].append(w.sample_count(i, j))
        for i, j in cells:
            rng = np.random.Generator(np.random.PCG64(children[i * W + j]))
            want = [int(rng.binomial(w.class_sizes[j], w.q[i])) for _ in range(30)]
            assert got[(i, j)] == want


class TestQueries:
    def test_empty(self):
        w = small_instance()
        assert w.max_density() == 0.0
        with pytest.raises(ValueError):
            w.densest_subset()

    def test_selection_matches_linear_scan(self):
        selected = set()
        for kw in ({}, SUBUNIT):
            for seed in range(6):
                rng = random.Random(seed)
                w = small_instance(seed=seed, **kw)
                handles = []
                for step in range(8):
                    if step in (6, 7):
                        w.delete(handles.pop(rng.randrange(len(handles))))
                    else:
                        verts = tuple(sorted(rng.sample(range(8), rng.randint(2, 3))))
                        handles.append(w.insert(verts, rng.randint(1, w.w_max)))
                    # reference: the last guess whose sampled density reaches
                    # (1-eps) * q_i * rho_i, found by a linear pass
                    linear = None
                    for i in range(w.num_guesses):
                        threshold = (1 - w.epsilon) * w.q[i] * w.rho_guesses[i]
                        if w.ensembles[i].max_density() >= threshold:
                            linear = i
                    assert w._select_guess() == linear, (kw, seed, step)
                    selected.add(linear)
        # the runs reach past the lowest guess, and sometimes none qualifies
        assert None in selected and max(i for i in selected if i is not None) > 0

    def test_single_weighted_edge_sandwich(self):
        delta = 0.5
        w = small_instance(delta=delta)
        w.insert((0, 1, 2), 18)
        rho = 18 / 3
        est = w.max_density()
        assert rho / (1 + delta) - 1e-9 <= est <= rho + 1e-9
        sub = w.densest_subset()
        assert sub >= {0, 1, 2}

    def test_mixed_run_tracks_oracle(self):
        rng = random.Random(21)
        delta = 0.5
        w = small_instance(n=10, m_bound=10, delta=delta, w_max=50)
        g = WeightedHypergraph(10, 3)
        pairs = []
        for _ in range(8):
            verts = tuple(sorted(rng.sample(range(10), rng.randint(2, 3))))
            wt = rng.randint(1, 50)
            pairs.append((w.insert(verts, wt), g.insert(verts, wt)))
        for _ in range(3):
            ph, gh = pairs.pop(rng.randrange(len(pairs)))
            w.delete(ph)
            g.delete(gh)
        rho = float(exact_densest_bruteforce(g).best_density)
        est = w.max_density()
        assert rho / (1 + delta) - 1e-9 <= est <= rho + 1e-9
        sub = w.densest_subset()
        assert float(density(g, sub)) >= rho / (1 + delta) - 1e-9



@pytest.mark.parametrize("kind", ["hop", "udshp", "wdshp"])
def test_subset_lies_in_live_support(kind):
    # a subset threshold reaching in-degree 0 used to add every vertex of
    # the instance; the answer may hold only vertices on live edges, from
    # the first edge (all three start with one edge among 50 vertices)
    n = 50
    if kind == "hop":
        hop = Hop(n, 0.5, 4.0, eta_override=2.0)
        handles = itertools.count()

        def insert(verts, _weight):
            h = next(handles)
            hop.insert(h, verts)
            return h

        delete, subset = hop.delete, hop.query_subset
    elif kind == "udshp":
        u = Udshp(n, m_bound=40, r=3, epsilon=0.5, dup_constant=0.0)
        insert, delete, subset = u.insert, u.delete, u.densest_subset
    else:
        w = small_instance(n=n, m_bound=40)
        insert, delete, subset = w.insert, w.delete, w.densest_subset
    rng = random.Random(3)
    live = {}
    for _ in range(60):
        if len(live) >= 12 or (len(live) > 1 and rng.random() < 0.4):
            h = rng.choice(sorted(live))
            delete(h)
            del live[h]
        else:
            verts = tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
            live[insert(verts, rng.randint(1, 3))] = verts
        assert subset() <= set().union(*live.values())
