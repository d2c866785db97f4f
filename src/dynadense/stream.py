"""Temporal stream driver, metrics, and report serialization.

Replays a timestamp-sorted event stream against one of the maintained
structures (or a from-scratch baseline), either insertion-only or with
a sliding window that deletes events older than a fixed horizon before
each arrival.  Reports are emitted after the first processed timestamp
that reaches each interval boundary, and once more after the final
timestamp if it did not coincide with a report; each report carries the
density estimate, the reported subset size, the exact density when the
live support is small enough for the exhaustive oracle, and per-update
timing for the interval.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from .io import TemporalEvent
from .model import WeightedHypergraph
from .oracles import MAX_SUPPORT, exact_densest_bruteforce, greedy_peel
from .udshp import DUPLICATION_CONSTANT, Udshp
from .wdshp import Wdshp

CSV_HEADER = (
    "report_time,density_estimate,exact_density,relative_error_pct,"
    "subset_size,updates,avg_update_us,max_update_us"
)

ALGOS = ("udshp", "wdshp", "exact", "greedy")
WEIGHT_MODES = ("unit", "uniform")
DEFAULT_ORACLE_SUPPORT_LIMIT = 18


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    mode: str = "insert"  # "insert" | "window"
    window_length: Optional[int] = None
    report_interval: int = 1
    algo: str = "udshp"
    epsilon: float = 0.3
    delta: float = 0.5
    weight_mode: Tuple = ("unit",)  # or ("uniform", lo, hi, seed)
    seed: int = 0
    dedupe_edges: bool = False
    rank: Optional[int] = None
    # desk-scale knobs
    oracle_support_limit: int = DEFAULT_ORACLE_SUPPORT_LIMIT
    dup_constant: float = DUPLICATION_CONSTANT

    def validate(self) -> None:
        if self.mode not in ("insert", "window"):
            raise ConfigError(f"mode must be 'insert' or 'window', got {self.mode!r}")
        if self.mode == "window":
            if self.window_length is None or self.window_length <= 0:
                raise ConfigError("window mode requires a positive window length")
        if self.report_interval <= 0:
            raise ConfigError("report interval must be positive")
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.algo == "udshp" and not 0 < self.epsilon < 1:
            raise ConfigError(f"epsilon must be in (0,1), got {self.epsilon}")
        if self.algo == "wdshp" and not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0,1), got {self.delta}")
        if not self.weight_mode or self.weight_mode[0] not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight mode {self.weight_mode!r}")
        if self.weight_mode[0] == "uniform":
            if len(self.weight_mode) != 4:
                raise ConfigError("uniform weights need (lo, hi, seed)")
            _, lo, hi, _ = self.weight_mode
            if lo < 1 or lo > hi:
                raise ConfigError(f"bad uniform weight range [{lo}, {hi}]")
        if self.rank is not None and self.rank < 1:
            raise ConfigError("rank bound must be positive")
        if not (math.isfinite(self.dup_constant) and self.dup_constant >= 0):  # 0: dup 1
            raise ConfigError(f"dup constant must be finite and >= 0, got {self.dup_constant}")
        if not 0 <= self.oracle_support_limit <= MAX_SUPPORT:
            raise ConfigError(
                f"oracle support limit must be in [0, {MAX_SUPPORT}], "
                f"got {self.oracle_support_limit}"
            )


@dataclass
class ReportPoint:
    report_time: int
    density_estimate: Optional[float]
    subset: Set[int]
    updates_in_interval: int
    avg_update_micros: float
    max_update_micros: float
    exact_density: Optional[float] = None

    @property
    def relative_error_pct(self) -> Optional[float]:
        if (
            self.exact_density is None
            or self.density_estimate is None
            or self.exact_density <= 0
        ):
            return None
        return abs(self.density_estimate - self.exact_density) / self.exact_density * 100.0


@dataclass
class RunSummary:
    total_updates: int
    avg_update_micros: float
    max_update_micros: float
    max_live_edges: int
    avg_relative_error_pct: Optional[float] = None
    max_relative_error_pct: Optional[float] = None
    n: int = 0
    r: int = 0
    num_events: int = 0


def assign_weights(
    events: Sequence[TemporalEvent], weight_mode: Tuple
) -> List[TemporalEvent]:
    """Unit weights, or independent uniform integers reproducible by seed."""
    kind = weight_mode[0]
    if kind == "unit":
        # events are frozen, so one already at weight 1 is kept as it is
        return [
            e if e.weight == 1 else TemporalEvent(e.timestamp, e.vertices, 1)
            for e in events
        ]
    if kind == "uniform":
        _, lo, hi, seed = weight_mode
        if lo > hi or lo < 1:
            raise ConfigError(f"bad uniform weight range [{lo}, {hi}]")
        rng = random.Random(seed)
        return [
            TemporalEvent(e.timestamp, e.vertices, rng.randint(lo, hi))
            for e in events
        ]
    raise ConfigError(f"unknown weight mode {weight_mode!r}")


class _Driver:
    """Uniform insert/delete/query facade over the four algorithms.

    The mirror weighted hypergraph is always maintained (it is cheap)
    and serves the exhaustive oracle at report points and the baseline
    algorithms directly.
    """

    def __init__(self, config: RunConfig, n: int, r: int, m_bound: int, w_max: int):
        self.config = config
        self.mirror = WeightedHypergraph(n, r)
        self.algo = config.algo
        self._struct: Optional[Udshp | Wdshp] = None
        try:
            if self.algo == "udshp":
                self._struct = Udshp(
                    n,
                    m_bound=max(m_bound * max(w_max, 1), 1),
                    r=r,
                    epsilon=config.epsilon,
                    dup_constant=config.dup_constant,
                )
            elif self.algo == "wdshp":
                self._struct = Wdshp(
                    n,
                    m_bound=max(m_bound, 1),
                    r=r,
                    delta=config.delta,
                    w_max=max(w_max, 1),
                    seed=config.seed,
                    dup_constant=config.dup_constant,
                )
        except ValueError as exc:
            # parameters that pass validate() alone, such as a duplication
            # constant whose factor overflows for this n, r and epsilon
            raise ConfigError(str(exc)) from exc

    def insert(self, verts: Tuple[int, ...], weight: int) -> Tuple[int, object]:
        """Insert into the mirror and the structure; returns both handles."""
        gh = self.mirror.insert(verts, weight)
        inner = None if self._struct is None else self._struct.insert(verts, weight)
        return gh, inner

    def delete(self, handles: Tuple[int, object]) -> None:
        gh, inner = handles
        self.mirror.delete(gh)
        if self._struct is not None:
            self._struct.delete(inner)

    def live_edges(self) -> int:
        return len(self.mirror)

    def report(self) -> Tuple[Optional[float], Set[int], Optional[float]]:
        """Estimate, reported subset and exact density at a report point.

        The exhaustive oracle runs at most once per report: within the
        support limit its optimum fills the exact column and, for the
        exact algorithm, the estimate and subset as well.
        """
        if len(self.mirror) == 0:
            return 0.0, set(), 0.0
        est: Optional[float] = None
        subset: Set[int] = set()
        if self.algo == "udshp":
            est, subset = self._struct.max_density(), set(self._struct.densest_subset())
        elif self.algo == "wdshp":
            est = self._struct.max_density()
            if est > 0.0:
                subset = set(self._struct.densest_subset())
        elif self.algo == "greedy":
            res = greedy_peel(self.mirror)
            est, subset = float(res.best_density), set(res.best_set)
        if self.algo == "wdshp" and est <= 0.0:
            # no guess qualifies: fall back to the full support
            subset = self.mirror.support()
        if _support_exceeds(self.mirror, self.config.oracle_support_limit):
            # past the oracle's support limit the exact column, and the
            # exact algorithm's answer, stay empty
            return est, subset, None
        oracle = exact_densest_bruteforce(self.mirror)
        exact = float(oracle.best_density)
        if self.algo == "exact":
            est, subset = exact, set(oracle.best_set)
        return est, subset, exact


def _support_exceeds(graph: WeightedHypergraph, limit: int) -> bool:
    """Whether more than ``limit`` vertices touch a live edge.

    Stops at the first edge that takes the count past the limit, so a
    large window costs a few edges rather than a full support build.
    """
    seen: Set[int] = set()
    for _, verts, _ in graph.edges():
        seen.update(verts)
        if len(seen) > limit:
            return True
    return False


def run_stream(
    events: Sequence[TemporalEvent],
    config: RunConfig,
    observer=None,
) -> Tuple[List[ReportPoint], RunSummary]:
    """Replay ``events`` (sorted by timestamp) under ``config``.

    Per-update wall time covers only the structure calls, not ingestion
    or report-point queries.  With dedupe_edges, events sharing a vertex
    set with a live event do not touch the structure (the first live
    copy's weight stands for the group) and are not counted as updates.

    ``observer(report_time, mirror)`` is called at each report point with
    the live mirror hypergraph; tests use it to audit the live multiset.
    """
    config.validate()
    events = list(events)
    for a, b in zip(events, events[1:]):
        if a.timestamp > b.timestamp:
            raise ConfigError("events must be sorted by timestamp")

    n = max((max(e.vertices) for e in events), default=0) + 1
    r = max((len(e.vertices) for e in events), default=1)
    if config.rank is not None:
        if any(len(e.vertices) > config.rank for e in events):
            raise ConfigError("an event exceeds the configured rank bound")
        r = config.rank
    w_max = max((e.weight for e in events), default=1)
    driver = _Driver(config, n, r, len(events), w_max)

    points: List[ReportPoint] = []
    # (ts, driver handles or None under dedupe, verts)
    window: Deque[Tuple[int, Optional[Tuple[int, object]], Tuple[int, ...]]] = deque()
    live_sets: Dict[Tuple[int, ...], int] = {}  # dedupe refcounts
    handles_of_set: Dict[Tuple[int, ...], Tuple[int, object]] = {}
    interval_updates = 0
    interval_time_ns = 0
    interval_max_ns = 0
    total_updates = 0
    total_time_ns = 0
    overall_max_ns = 0
    max_live = 0

    def timed(fn, *args):
        nonlocal interval_updates, interval_time_ns, interval_max_ns
        nonlocal total_updates, total_time_ns, overall_max_ns
        t0 = time.perf_counter_ns()
        out = fn(*args)
        dt = time.perf_counter_ns() - t0
        interval_updates += 1
        interval_time_ns += dt
        interval_max_ns = max(interval_max_ns, dt)
        total_updates += 1
        total_time_ns += dt
        overall_max_ns = max(overall_max_ns, dt)
        return out

    def do_insert(ev: TemporalEvent) -> None:
        if config.dedupe_edges:
            count = live_sets.get(ev.vertices, 0)
            live_sets[ev.vertices] = count + 1
            if count == 0:
                handles_of_set[ev.vertices] = timed(driver.insert, ev.vertices, ev.weight)
            window.append((ev.timestamp, None, ev.vertices))
            return
        handles = timed(driver.insert, ev.vertices, ev.weight)
        window.append((ev.timestamp, handles, ev.vertices))

    def do_expire(handles: Optional[Tuple[int, object]], verts: Tuple[int, ...]) -> None:
        if config.dedupe_edges:
            live_sets[verts] -= 1
            if live_sets[verts] > 0:
                return
            del live_sets[verts]
            handles = handles_of_set.pop(verts)
        timed(driver.delete, handles)

    def emit(report_time: int) -> None:
        nonlocal interval_updates, interval_time_ns, interval_max_ns
        if observer is not None:
            observer(report_time, driver.mirror)
        est, subset, exact = driver.report()
        avg_us = (
            interval_time_ns / interval_updates / 1000.0 if interval_updates else 0.0
        )
        points.append(
            ReportPoint(
                report_time=report_time,
                density_estimate=est,
                subset=subset,
                updates_in_interval=interval_updates,
                avg_update_micros=avg_us,
                max_update_micros=interval_max_ns / 1000.0,
                exact_density=exact,
            )
        )
        interval_updates = 0
        interval_time_ns = 0
        interval_max_ns = 0

    idx = 0
    due: Optional[int] = None
    last_ts: Optional[int] = None
    while idx < len(events):
        ts = events[idx].timestamp
        if due is None:
            due = ts + config.report_interval
        if config.mode == "window":
            horizon = ts - config.window_length
            while window and window[0][0] <= horizon:
                _, handles, verts = window.popleft()
                do_expire(handles, verts)
        while idx < len(events) and events[idx].timestamp == ts:
            do_insert(events[idx])
            idx += 1
        max_live = max(max_live, driver.live_edges())
        if ts >= due:
            emit(ts)
            due = ts + config.report_interval
        last_ts = ts
    if last_ts is not None and (not points or points[-1].report_time != last_ts):
        emit(last_ts)

    errors = [p.relative_error_pct for p in points if p.relative_error_pct is not None]
    summary = RunSummary(
        total_updates=total_updates,
        avg_update_micros=(
            total_time_ns / total_updates / 1000.0 if total_updates else 0.0
        ),
        max_update_micros=overall_max_ns / 1000.0,
        max_live_edges=max_live,
        avg_relative_error_pct=sum(errors) / len(errors) if errors else None,
        max_relative_error_pct=max(errors) if errors else None,
        n=n,
        r=r,
        num_events=len(events),
    )
    return points, summary


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def write_csv(points: Sequence[ReportPoint], path: str | Path, no_timing: bool = False) -> None:
    """One row per report point under the pinned header.

    ``no_timing`` zeroes the timing columns so fixed-seed runs are
    byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for p in points:
            writer.writerow(
                [
                    p.report_time,
                    _fmt(p.density_estimate),
                    _fmt(p.exact_density),
                    _fmt(p.relative_error_pct),
                    len(p.subset),
                    p.updates_in_interval,
                    _fmt(0.0 if no_timing else p.avg_update_micros),
                    _fmt(0.0 if no_timing else p.max_update_micros),
                ]
            )


def write_summary_json(
    summary: RunSummary, path: str | Path, no_timing: bool = False
) -> None:
    payload = {
        "total_updates": summary.total_updates,
        "avg_update_us": 0.0 if no_timing else round(summary.avg_update_micros, 6),
        "max_update_us": 0.0 if no_timing else round(summary.max_update_micros, 6),
        "max_live_edges": summary.max_live_edges,
        "n": summary.n,
        "r": summary.r,
        "num_events": summary.num_events,
    }
    if summary.avg_relative_error_pct is not None:
        payload["avg_relative_error_pct"] = round(summary.avg_relative_error_pct, 6)
        payload["max_relative_error_pct"] = round(summary.max_relative_error_pct, 6)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
