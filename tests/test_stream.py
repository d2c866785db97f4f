import random
from collections import Counter

import pytest

import dynadense.stream as stream
from dynadense.io import TemporalEvent
from dynadense.stream import (
    ConfigError,
    ReportPoint,
    RunConfig,
    assign_weights,
    run_stream,
    write_csv,
)


def ev(t, verts, w=1):
    return TemporalEvent(t, tuple(sorted(verts)), w)


def random_events(rng, count, n=20, r=3, t_step=2):
    events = []
    t = 0
    for _ in range(count):
        t += rng.randrange(t_step)
        events.append(ev(t, rng.sample(range(n), rng.randint(2, r))))
    return events


def greedy_config(**kw):
    args = dict(algo="greedy", report_interval=5)
    args.update(kw)
    return RunConfig(**args)


class TestAssignWeights:
    def test_unit(self):
        out = assign_weights([ev(0, (0, 1), 9)], ("unit",))
        assert out[0].weight == 1

    def test_degenerate_uniform(self):
        out = assign_weights([ev(0, (0, 1))] * 10, ("uniform", 1, 1, 3))
        assert all(e.weight == 1 for e in out)

    def test_uniform_mean(self):
        events = [ev(0, (0, 1))] * 100_000
        out = assign_weights(events, ("uniform", 1, 100, 12))
        mean = sum(e.weight for e in out) / len(out)
        assert abs(mean - 50.5) <= 0.3

    def test_replayable(self):
        events = [ev(0, (0, 1))] * 50
        a = assign_weights(events, ("uniform", 1, 100, 5))
        b = assign_weights(events, ("uniform", 1, 100, 5))
        assert [e.weight for e in a] == [e.weight for e in b]

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            assign_weights([ev(0, (0, 1))], ("uniform", 5, 2, 0))


class TestConfigValidation:
    def test_window_needs_length(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="window").validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(mode="replay").validate()

    def test_bad_algo(self):
        with pytest.raises(ConfigError):
            RunConfig(algo="magic").validate()

    def test_bad_report_interval(self):
        with pytest.raises(ConfigError):
            RunConfig(report_interval=0).validate()

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            RunConfig(algo="udshp", epsilon=2.0).validate()


class TestRunStream:
    def test_empty_stream(self):
        points, summary = run_stream([], greedy_config())
        assert points == [] and summary.total_updates == 0

    def test_unsorted_rejected(self):
        events = [ev(5, (0, 1)), ev(1, (1, 2))]
        with pytest.raises(ConfigError):
            run_stream(events, greedy_config())

    def test_insertion_only_counts(self):
        events = [ev(t, (t % 3, t % 3 + 1)) for t in range(10)]
        points, summary = run_stream(events, greedy_config(report_interval=4))
        assert summary.total_updates == 10
        assert summary.max_live_edges == 10
        assert points[-1].report_time == 9

    def test_window_replay_small(self):
        # 10 events, window 3, report 1: live multiset matches naive replay
        rng = random.Random(0)
        events = random_events(rng, 10, n=6, t_step=3)
        seen = {}
        def observer(t, mirror):
            seen[t] = Counter((v, w) for _, v, w in mirror.edges())
        run_stream(
            events,
            greedy_config(mode="window", window_length=3, report_interval=1),
            observer=observer,
        )
        assert seen
        for t, live in seen.items():
            expected = Counter(
                (e.vertices, e.weight)
                for e in events
                if e.timestamp <= t and e.timestamp > t - 3
            )
            assert live == expected, f"divergence at report time {t}"

    def test_udshp_reports_within_sandwich(self):
        rng = random.Random(1)
        eps = 0.3
        events = random_events(rng, 120, n=12)
        config = RunConfig(
            algo="udshp", epsilon=eps, report_interval=10, dup_constant=0.15
        )
        points, summary = run_stream(events, config)
        assert points
        for p in points:
            assert p.exact_density is not None
            assert p.relative_error_pct <= 100 * (1 - 1 / (1 + eps)) + 1e-6
        assert summary.avg_relative_error_pct is not None

    def test_wdshp_runs_and_is_seeded(self):
        rng = random.Random(2)
        events = assign_weights(
            random_events(rng, 12, n=8), ("uniform", 1, 30, 4)
        )
        config = RunConfig(
            algo="wdshp", delta=0.5, report_interval=50, seed=9, dup_constant=0.0
        )
        points_a, _ = run_stream(events, config)
        points_b, _ = run_stream(events, config)
        assert [p.density_estimate for p in points_a] == [
            p.density_estimate for p in points_b
        ]
        assert points_a[-1].density_estimate > 0

    def test_exact_beyond_support_limit_is_marked(self):
        events = [ev(t, (2 * t, 2 * t + 1)) for t in range(8)]
        config = greedy_config(algo="exact", oracle_support_limit=4)
        points, _ = run_stream(events, config)
        assert points[-1].density_estimate is None
        assert points[-1].exact_density is None

    @pytest.mark.parametrize("algo", ["exact", "greedy"])
    def test_oracle_runs_once_per_report(self, algo, monkeypatch):
        calls = []
        real = stream.exact_densest_bruteforce

        def counting(graph):
            calls.append(len(graph))
            return real(graph)

        monkeypatch.setattr(stream, "exact_densest_bruteforce", counting)
        rng = random.Random(5)
        events = random_events(rng, 60, n=10)
        points, _ = run_stream(events, greedy_config(algo=algo))
        assert len(points) > 3
        assert len(calls) == len(points)
        for p in points:
            assert p.exact_density is not None
            if algo == "exact":
                assert p.density_estimate == p.exact_density

    def test_dedupe_collapses_identical_sets(self):
        events = [ev(0, (0, 1)), ev(1, (1, 0)), ev(2, (0, 1)), ev(3, (2, 3))]
        seen = {}
        def observer(t, mirror):
            seen[t] = sorted(v for _, v, _ in mirror.edges())
        config = greedy_config(report_interval=10, dedupe_edges=True)
        points, summary = run_stream(events, config, observer=observer)
        assert seen[3] == [(0, 1), (2, 3)]
        assert summary.total_updates == 2  # only first-of-set insertions

    def test_dedupe_window_keeps_edge_until_last_copy_expires(self):
        events = [ev(0, (0, 1)), ev(4, (0, 1)), ev(6, (2, 3)), ev(9, (2, 3))]
        seen = {}
        def observer(t, mirror):
            seen[t] = sorted(v for _, v, _ in mirror.edges())
        config = greedy_config(
            mode="window", window_length=5, report_interval=1, dedupe_edges=True
        )
        run_stream(events, config, observer=observer)
        # at t=6 the t=0 copy expired but the t=4 copy is inside the window
        assert seen[6] == [(0, 1), (2, 3)]
        # at t=9 both (0,1) copies are out of the window
        assert seen[9] == [(2, 3)]


class TestCsv:
    def test_header_and_determinism(self, tmp_path):
        rng = random.Random(3)
        events = random_events(rng, 25, n=8)
        config = greedy_config(report_interval=3)
        out = []
        for name in ("a.csv", "b.csv"):
            points, _ = run_stream(events, config)
            path = tmp_path / name
            write_csv(points, path, no_timing=True)
            out.append(path.read_bytes())
        assert out[0] == out[1]
        first = out[0].decode().splitlines()[0]
        assert first == (
            "report_time,density_estimate,exact_density,relative_error_pct,"
            "subset_size,updates,avg_update_us,max_update_us"
        )
        # the relative_error_pct column: |estimate - exact| / exact, blank
        # without an exact density
        with_exact = ReportPoint(0, 0.9, set(), 5, 10.0, 20.0, exact_density=1.0)
        assert with_exact.relative_error_pct == pytest.approx(10.0)
        assert ReportPoint(0, 0.9, set(), 5, 1.0, 2.0).relative_error_pct is None
