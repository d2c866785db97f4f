"""Acceptance gate: end-to-end property, statistical and scaling checks.

Every test prints exactly one summary line

    [ACCEPTANCE] <criterion>: PASS|FAIL (<details>)

and then asserts, so the verdicts stay visible in the normal test run.
All tolerances, sizes and seeds are pinned here; nothing is tuned at
runtime.  The heavier checks (weighted statistical sandwich, scaling
measurement) take a few minutes combined.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from dynadense.hop import Hop
from dynadense.io import TemporalEvent, load_benson
from dynadense.model import WeightedHypergraph, density, log2c
from dynadense.oracles import exact_densest_bruteforce, greedy_peel
from dynadense.stream import RunConfig, run_stream, write_csv
from dynadense.udshp import Udshp
from dynadense.wdshp import Wdshp

FIXTURES = Path(__file__).parent / "fixtures"


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# -- criteria 1 + 2: orientation slack and load staleness --------------------


def _formula_hop(n: int, epsilon: float, d_tilde: float) -> Hop:
    eta = epsilon * epsilon * d_tilde / (32.0 * log2c(n))
    return Hop(n, epsilon, max(eta, 1.0))


@functools.lru_cache(maxsize=1)
def _orientation_run():
    """10^5 mixed operations, n=200, r=5, eps=0.5, load estimate doubling.

    Returns (slack_violations, staleness_violations, checkpoints, seconds).
    Violations are counted, not raised, so both criteria can report.
    """
    n, r, eps, ops = 200, 5, 0.5, 100_000
    rng = random.Random(7)
    d_tilde = 1.0
    hop = _formula_hop(n, eps, d_tilde)
    live: dict[int, tuple[int, ...]] = {}
    handles: list[int] = []
    next_h = 0
    slack_bad = stale_bad = checkpoints = 0
    t0 = time.perf_counter()
    for i in range(1, ops + 1):
        if not handles or rng.random() < 0.53:
            verts = tuple(sorted(rng.sample(range(n), r)))
            hop.insert(next_h, verts)
            live[next_h] = verts
            handles.append(next_h)
            next_h += 1
        else:
            k = rng.randrange(len(handles))
            handles[k], handles[-1] = handles[-1], handles[k]
            h = handles.pop()
            hop.delete(h)
            del live[h]
        if hop.max_in_degree() >= 2 * d_tilde:
            while hop.max_in_degree() >= 2 * d_tilde:
                d_tilde *= 2
            hop = _formula_hop(n, eps, d_tilde)
            for h, verts in live.items():
                hop.insert(h, verts)
        if i % 100 == 0 or i == ops:
            checkpoints += 1
            try:
                hop.check_slack()
            except AssertionError:
                slack_bad += 1
            try:
                hop.check_staleness()
            except AssertionError:
                stale_bad += 1
    return slack_bad, stale_bad, checkpoints, time.perf_counter() - t0


@functools.lru_cache(maxsize=1)
def _budgeted_probe_run():
    """2*10^4 mixed operations at fixed slack 8 (budgeted insert probe)."""
    n, r = 200, 5
    rng = random.Random(11)
    hop = Hop(n, 0.5, 8.0)
    short_probes = 0
    probe = hop._tight_in_edge

    def counted_probe(v):
        # count the probes whose budget ceil(4 d / eta) falls short of In(v)
        nonlocal short_probes
        if math.ceil(4 * hop.d_in(v) / hop.eta) < len(hop._in[v]):
            short_probes += 1
        return probe(v)

    hop._tight_in_edge = counted_probe
    handles: list[int] = []
    next_h = 0
    slack_bad = stale_bad = checkpoints = 0
    for i in range(1, 20_001):
        if not handles or rng.random() < 0.53:
            hop.insert(next_h, tuple(sorted(rng.sample(range(n), r))))
            handles.append(next_h)
            next_h += 1
        else:
            k = rng.randrange(len(handles))
            handles[k], handles[-1] = handles[-1], handles[k]
            hop.delete(handles.pop())
        if i % 100 == 0:
            checkpoints += 1
            try:
                hop.check_slack()
            except AssertionError:
                slack_bad += 1
            try:
                hop.check_staleness()
            except AssertionError:
                stale_bad += 1
    assert short_probes > 0, "the run must exercise the budgeted probe"
    return slack_bad, stale_bad, checkpoints


def test_criterion_1_orientation_invariant():
    slack_bad, _, checkpoints, seconds = _orientation_run()
    probe_slack_bad, _, probe_checkpoints = _budgeted_probe_run()
    ok = slack_bad == 0 and probe_slack_bad == 0 and seconds < 60.0
    _verdict(
        "criterion 1, orientation slack invariant",
        ok,
        f"{slack_bad} violations over {checkpoints} full-scan checkpoints, "
        f"{probe_slack_bad} over {probe_checkpoints} budgeted-probe checkpoints, "
        f"main run {seconds:.1f}s (limit 60s)",
    )


def test_criterion_2_staleness_bound():
    _, stale_bad, checkpoints, _ = _orientation_run()
    _, probe_stale_bad, probe_checkpoints = _budgeted_probe_run()
    ok = stale_bad == 0 and probe_stale_bad == 0
    _verdict(
        "criterion 2, mirror staleness within eta/4",
        ok,
        f"{stale_bad} violations over {checkpoints} checkpoints (covering "
        f"regime), {probe_stale_bad} over {probe_checkpoints} (budgeted probe)",
    )


# -- criterion 3: rotation chain length --------------------------------------


def test_criterion_3_chain_length_bound():
    n, eta = 50, 2.0
    rng = random.Random(13)
    hop = Hop(n, 0.5, eta)
    worst_margin = -math.inf
    bad = 0
    for i in range(10_000):
        others = rng.sample(range(1, n), 2)
        hop.insert(i, tuple(sorted([0] + others)))
        bound = math.ceil(hop.max_in_degree() / eta) + 1
        worst_margin = max(worst_margin, hop.last_rotations - bound)
        if hop.last_rotations > bound:
            bad += 1
    ok = bad == 0
    _verdict(
        "criterion 3, rotation chains within ceil(max_load/eta)+1",
        ok,
        f"{bad} violations over 10000 single-hub insertions, worst "
        f"rotations-minus-bound = {worst_margin}",
    )


# -- criterion 4: deterministic sandwich (unit weights) ----------------------


def test_criterion_4_unit_weight_sandwich():
    eps = 0.3
    total = ok = 0
    t0 = time.perf_counter()
    dup = None
    for seed in range(10):
        rng = random.Random(1000 + seed)
        u = Udshp(16, m_bound=60, r=4, epsilon=eps, dup_constant=0.2)
        dup = u.dup
        g = WeightedHypergraph(16, 4)
        pairs: list[tuple[int, int]] = []
        for step in range(1, 501):
            if pairs and (len(pairs) >= 60 or rng.random() < 0.4):
                k = rng.randrange(len(pairs))
                pairs[k], pairs[-1] = pairs[-1], pairs[k]
                uh, gh = pairs.pop()
                u.delete(uh)
                g.delete(gh)
            else:
                verts = tuple(sorted(rng.sample(range(16), rng.randint(2, 4))))
                pairs.append((u.insert(verts), g.insert(verts, 1)))
            if step % 10 == 0 and pairs:
                rho = float(exact_densest_bruteforce(g).best_density)
                est = u.max_density()
                sub_rho = float(density(g, u.densest_subset()))
                total += 1
                if (
                    rho / (1 + eps) - 1e-9 <= est <= rho + 1e-9
                    and sub_rho >= rho / (1 + eps) - 1e-9
                ):
                    ok += 1
    seconds = time.perf_counter() - t0
    good = ok == total and seconds < 120.0
    _verdict(
        "criterion 4, deterministic density sandwich",
        good,
        f"{ok}/{total} oracle checks inside [rho/(1+eps), rho] with "
        f"duplication {dup}, {seconds:.1f}s (limit 120s)",
    )


# -- criterion 5: statistical sandwich (weighted) ----------------------------


def test_criterion_5_weighted_statistical_sandwich():
    total = ok = 0
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(30):
        rng = random.Random(2000 + seed)
        w = Wdshp(
            12, m_bound=16, r=3, delta=0.5, w_max=100, c=8.0, seed=seed,
            dup_constant=0.0,
        )
        g = WeightedHypergraph(12, 3)
        pairs: list[tuple[int, int]] = []
        for _ in range(14):
            verts = tuple(sorted(rng.sample(range(12), rng.randint(2, 3))))
            wt = rng.randint(1, 100)
            pairs.append((w.insert(verts, wt), g.insert(verts, wt)))
        for _ in range(2):
            rho = float(exact_densest_bruteforce(g).best_density)
            rel = abs(w.max_density() - rho) / rho
            worst = max(worst, rel)
            total += 1
            ok += rel <= 0.5 + 1e-9
            for _ in range(4):
                k = rng.randrange(len(pairs))
                pairs[k], pairs[-1] = pairs[-1], pairs[k]
                wh, gh = pairs.pop()
                w.delete(wh)
                g.delete(gh)
    seconds = time.perf_counter() - t0
    good = ok >= 0.9 * total and seconds < 600.0
    _verdict(
        "criterion 5, weighted statistical sandwich",
        good,
        f"{ok}/{total} (seed, report) pairs with relative error <= 50% "
        f"(need >= 90%), worst {100 * worst:.1f}%, {seconds:.0f}s (limit 600s)",
    )


# -- criterion 6: reversibility ----------------------------------------------


def _assert_hop_empty(hop: Hop) -> None:
    assert len(hop) == 0 and hop.max_in_degree() == 0
    assert not hop._head
    assert all(len(rr) == 0 for rr in hop._in)
    assert all(not s for s in hop._out)
    assert all(d == 0 for d in hop._degs.deg)
    hop.check_consistency()


def _assert_udshp_empty(u: Udshp) -> None:
    assert len(u) == 0 and u.live_internal_count() == 0 and u.active == 0
    assert not u._public
    for j, copy in u.copies.items():
        assert len(copy) == 0, f"copy {j} not empty"
        assert not u._pending_at[j] and not u._withheld[j]
        _assert_hop_empty(copy)
    u.check_wrapper_invariants()


def _assert_wdshp_empty(w: Wdshp) -> None:
    assert len(w) == 0 and not w._registry
    for ensemble in w.ensembles:
        _assert_udshp_empty(ensemble)


def test_criterion_6_reversibility():
    rng = random.Random(31)
    sequences = 0
    for trial in range(100):
        kind = trial % 4
        if kind == 0 or kind == 1:
            eta = 1.5 if kind == 0 else 6.0
            hop = Hop(12, 0.4, eta)
            handles = []
            for h in range(rng.randint(5, 30)):
                hop.insert(h, tuple(sorted(rng.sample(range(12), rng.randint(2, 4)))))
                handles.append(h)
            rng.shuffle(handles)
            for h in handles:
                hop.delete(h)
            _assert_hop_empty(hop)
        elif kind == 2:
            u = Udshp(10, m_bound=30, r=3, epsilon=0.35, dup_constant=0.2)
            handles = [
                u.insert(rng.sample(range(10), rng.randint(2, 3)))
                for _ in range(rng.randint(5, 25))
            ]
            rng.shuffle(handles)
            for h in handles:
                u.delete(h)
            _assert_udshp_empty(u)
        else:
            w = Wdshp(
                8, m_bound=6, r=3, delta=0.5, w_max=10, c=8.0, seed=trial,
                dup_constant=0.0,
            )
            handles = [
                w.insert(rng.sample(range(8), rng.randint(2, 3)), rng.randint(1, 10))
                for _ in range(rng.randint(4, 6))
            ]
            rng.shuffle(handles)
            for h in handles:
                w.delete(h)
            _assert_wdshp_empty(w)
        sequences += 1
    _verdict(
        "criterion 6, insert/delete reversibility",
        sequences == 100,
        f"{sequences}/100 random sequences returned every structure "
        "(orientation copies, ensembles, pending lists, registries) to empty",
    )


# -- criterion 7: binomial sampler exactness ---------------------------------


def test_criterion_7_binomial_sampler_chi_square():
    # Route 10^5 draws through the structure's own sampler stream, with
    # the (guess, weight-class) cell pinned to the target shape Bin(16, 1/4).
    w = Wdshp(8, m_bound=8, r=3, delta=0.5, w_max=20, c=8.0, seed=123, dup_constant=0.0)
    w.q[0] = 0.25
    w.class_sizes[0] = 16
    draws = np.array([w.sample_count(0, 0) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=17)
    pmf = np.array(
        [math.comb(16, k) * 0.25**k * 0.75 ** (16 - k) for k in range(17)]
    )
    expected = pmf * draws.size
    # merge adjacent bins until each expectation reaches 5
    obs_m: list[float] = []
    exp_m: list[float] = []
    co = ce = 0.0
    for o, e in zip(counts, expected):
        co += o
        ce += e
        if ce >= 5.0:
            obs_m.append(co)
            exp_m.append(ce)
            co = ce = 0.0
    if ce > 0:
        obs_m[-1] += co
        exp_m[-1] += ce
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs_m, exp_m))
    dof = len(obs_m) - 1
    p = float(scipy.stats.chi2.sf(chi2, dof))
    ok = p > 0.01
    _verdict(
        "criterion 7, binomial sampler goodness of fit",
        ok,
        f"chi-square {chi2:.2f} on {dof} dof vs exact Bin(16, 0.25) pmf, "
        f"p = {p:.4f} (need > 0.01), 100000 draws",
    )


# -- criterion 8: harness replay and determinism -----------------------------


def _random_stream(rng: random.Random, count: int, n: int) -> list[TemporalEvent]:
    events = []
    t = 0
    for _ in range(count):
        t += rng.randrange(3)
        verts = tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
        events.append(TemporalEvent(t, verts, 1))
    return events


def test_criterion_8_window_replay_and_deterministic_csv(tmp_path):
    window, divergences = 50, 0
    config = RunConfig(
        mode="window", window_length=window, report_interval=5, algo="greedy"
    )
    for seed in range(20):
        events = _random_stream(random.Random(4000 + seed), 1000, 30)
        seen: dict[int, Counter] = {}

        def observer(t, mirror):
            seen[t] = Counter((verts, wt) for _, verts, wt in mirror.edges())

        run_stream(events, config, observer=observer)
        assert seen
        for t, live in seen.items():
            naive = Counter(
                (e.vertices, e.weight)
                for e in events
                if t - window < e.timestamp <= t
            )
            divergences += live != naive
    # byte-identical reports for a repeated run under --no-timing
    events = _random_stream(random.Random(4321), 1000, 30)
    blobs = []
    for name in ("a.csv", "b.csv"):
        points, _ = run_stream(events, config)
        path = tmp_path / name
        write_csv(points, path, no_timing=True)
        blobs.append(path.read_bytes())
    ok = divergences == 0 and blobs[0] == blobs[1]
    _verdict(
        "criterion 8, sliding-window replay fidelity",
        ok,
        f"{divergences} live-multiset divergences vs naive replay over 20 "
        f"seeds x 1000 events; repeated CSV byte-identical: {blobs[0] == blobs[1]}",
    )


# -- criterion 9: qualitative scalability ------------------------------------


def _timed_dynamic_inserts(m: int) -> float:
    rng = random.Random(42)
    u = Udshp(
        1000, m_bound=m, r=3, epsilon=0.5, dup_constant=0.0, slack_constant=0.03
    )
    t0 = time.perf_counter()
    for _ in range(m):
        u.insert(rng.sample(range(1000), 3))
    return (time.perf_counter() - t0) / m * 1e6


def _timed_greedy_reports(m: int) -> float:
    rng = random.Random(42)
    g = WeightedHypergraph(1000, 3)
    marks = {m * k // 10 for k in range(1, 11)}
    spent = 0.0
    for i in range(1, m + 1):
        g.insert(tuple(sorted(rng.sample(range(1000), 3))), 1)
        if i in marks:
            t0 = time.perf_counter()
            greedy_peel(g)
            spent += time.perf_counter() - t0
    return spent / len(marks) * 1e3


def test_criterion_9_update_time_scaling():
    dyn_small = _timed_dynamic_inserts(10_000)
    dyn_large = _timed_dynamic_inserts(100_000)
    peel_small = _timed_greedy_reports(10_000)
    peel_large = _timed_greedy_reports(100_000)
    dyn_growth = dyn_large / dyn_small
    peel_growth = peel_large / peel_small
    ok = dyn_growth < 3.0 and peel_growth > 5.0
    _verdict(
        "criterion 9, qualitative update-time scaling",
        ok,
        f"dynamic per-update {dyn_small:.0f} -> {dyn_large:.0f} us, growth "
        f"{dyn_growth:.2f}x (need < 3); greedy re-peel per report "
        f"{peel_small:.0f} -> {peel_large:.0f} ms, growth {peel_growth:.1f}x "
        "(need > 5) for 10x more edges",
    )


# -- criterion 10: loader fidelity -------------------------------------------


def test_criterion_10_loader_fidelity():
    events, report = load_benson(
        FIXTURES / "mini-nverts.txt",
        FIXTURES / "mini-simplices.txt",
        FIXTURES / "mini-times.txt",
    )
    fixture_ok = (
        (report.n, report.m, report.r) == (6, 5, 4)
        and report.rejected_duplicate_vertex == 1
        and [e.timestamp for e in events] == sorted(e.timestamp for e in events)
    )
    # full-size public datasets are checked only when present locally
    dataset_note = "real-dataset check skipped (datasets not supplied)"
    for root in (Path(__file__).parent.parent / "data", Path("/root/data")):
        triple = [
            root / "dawn" / f"dawn-{part}.txt"
            for part in ("nverts", "simplices", "times")
        ]
        if all(p.exists() for p in triple):
            _, rep = load_benson(*triple)
            match = (
                abs(rep.n - 2500) <= 100
                and abs(rep.m - 834_000) <= 10_000
                and rep.r == 16
            )
            dataset_note = (
                f"dawn dataset: n={rep.n} m={rep.m} r={rep.r}, "
                f"matches published shape: {match}"
            )
            fixture_ok = fixture_ok and match
            break
    _verdict(
        "criterion 10, loader fidelity",
        fixture_ok,
        f"fixture round-trip n=6 m=5 r=4 with 1 duplicate-vertex rejection; "
        f"{dataset_note}",
    )
