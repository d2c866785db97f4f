import random
from collections import Counter
from pathlib import Path

import pytest

import dynadense.cli as cli
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


FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_exact_window_stream_is_pinned(self):
        # the first reports span two to four connected components, and the
        # first two answers are unions of tied components; reports 6 and 8
        # have supports above the oracle limit
        events = random_events(random.Random(1), 60, n=24, t_step=3)
        config = RunConfig(
            algo="exact", mode="window", window_length=8, report_interval=1
        )
        points, _ = run_stream(events, config)
        got = [(p.report_time, p.exact_density, tuple(sorted(p.subset)))
               for p in points[:10]]
        assert got == [
            (1, 1 / 2, (0, 3, 8, 12, 15, 20)),
            (2, 1 / 2, (0, 3, 8, 12, 15, 19, 20, 22)),
            (3, 3 / 5, (0, 12, 15, 17, 20)),
            (5, 3 / 5, (0, 12, 15, 17, 20)),
            (6, None, ()),
            (8, None, ()),
            (9, 9 / 14, (0, 3, 6, 7, 10, 11, 13, 15, 16, 17, 18, 20, 21, 23)),
            (10, 4 / 5, (7, 15, 16, 18, 23)),
            (12, 3 / 4, (7, 15, 16, 18)),
            (13, 5 / 9, (2, 6, 7, 9, 14, 15, 16, 18, 21)),
        ]

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


_CSV_HEADER = (
    b"report_time,density_estimate,exact_density,relative_error_pct,"
    b"subset_size,updates,avg_update_us,max_update_us\r\n"
)

# report.csv bytes of the bundled mini fixture, pinned so that internal
# restructuring of Hop, Udshp and Wdshp cannot change an answer unnoticed
MINI_GOLDEN = {
    "exact": (
        ["--algo", "exact"],
        _CSV_HEADER
        + b"2001,0.750000,0.750000,0.000000,4,3,0.000000,0.000000\r\n"
        b"2002,1.000000,1.000000,0.000000,1,1,0.000000,0.000000\r\n"
        b"2003,1.000000,1.000000,0.000000,1,1,0.000000,0.000000\r\n",
    ),
    "udshp": (
        ["--algo", "udshp", "--dup-constant", "0.2"],
        _CSV_HEADER
        + b"2001,0.665217,0.750000,11.304348,4,3,0.000000,0.000000\r\n"
        b"2002,0.850000,1.000000,15.000000,1,1,0.000000,0.000000\r\n"
        b"2003,0.850000,1.000000,15.000000,1,1,0.000000,0.000000\r\n",
    ),
    # the analysis constants: dup 7353, the four top copies at eta >= 4,
    # where the insert probe's budget can fall short of In(v); the index
    # reaches copy 13, so the lowest of the four is the only one built
    "udshp-default": (
        ["--algo", "udshp"],
        _CSV_HEADER
        + b"2001,0.637644,0.750000,14.980733,4,3,0.000000,0.000000\r\n"
        b"2002,0.850000,1.000000,15.000000,1,1,0.000000,0.000000\r\n"
        b"2003,0.850000,1.000000,15.000000,1,1,0.000000,0.000000\r\n",
    ),
    "wdshp": (
        ["--algo", "wdshp", "--mode", "window", "--window", "2",
         "--weights", "uniform:1:4:3", "--dup-constant", "0.2"],
        _CSV_HEADER
        + b"2001,1.333162,1.750000,23.819317,4,3,0.000000,0.000000\r\n"
        b"2002,3.109856,4.000000,22.253610,1,3,0.000000,0.000000\r\n"
        b"2003,3.109856,4.000000,22.253610,1,2,0.000000,0.000000\r\n",
    ),
}


@pytest.mark.parametrize("algo", sorted(MINI_GOLDEN))
def test_cli_mini_fixture_report_is_pinned(algo, tmp_path):
    flags, want = MINI_GOLDEN[algo]
    argv = ["--input", str(FIXTURES / "mini"), "--format", "benson",
            "--no-timing", "--out", str(tmp_path), *flags]
    assert cli.main(argv) == 0
    assert (tmp_path / "report.csv").read_bytes() == want


def test_cli_missing_input_exits_2(tmp_path, capsys):
    argv = ["--input", str(tmp_path / "absent"), "--format", "benson",
            "--algo", "greedy", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unreadable_input_exits_2(tmp_path, capsys):
    # a directory where the events file should be
    argv = ["--input", str(tmp_path), "--algo", "greedy", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["blocker", "blocker/out"])
def test_cli_out_blocked_by_a_file_exits_3_before_the_replay(out, tmp_path, capsys, monkeypatch):
    (tmp_path / "blocker").write_text("")
    monkeypatch.setattr(cli, "run_stream", lambda *a: pytest.fail("replay ran"))
    argv = ["--input", str(FIXTURES / "mini"), "--format", "benson",
            "--algo", "greedy", "--out", str(tmp_path / out)]
    assert cli.main(argv) == 3
    assert "config error" in capsys.readouterr().err
    assert (tmp_path / "blocker").read_text() == ""


@pytest.mark.parametrize("flags", [
    ["--dup-constant", "-1"],
    ["--dup-constant", "nan"],
    ["--dup-constant", "inf"],
    # finite, but the duplication factor it gives overflows a float
    ["--dup-constant", "1e308"],
    ["--algo", "wdshp", "--dup-constant", "1e308"],
    # finite, but dup times m_bound exceeds the range of unit handles
    ["--dup-constant", "1e300"],
    ["--algo", "wdshp", "--dup-constant", "1e300"],
    ["--epsilon", "1.5"],
    # past the exhaustive oracle's MAX_SUPPORT (24), or below 0
    ["--oracle-limit", "25"],
    ["--algo", "exact", "--oracle-limit", "-1"],
])
def test_cli_bad_constant_exits_3(flags, tmp_path, capsys):
    argv = ["--input", str(FIXTURES / "mini"), "--format", "benson",
            "--algo", "udshp", "--out", str(tmp_path / "out"), *flags]
    assert cli.main(argv) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
