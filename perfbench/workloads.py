"""Seeded workload streams and the CLI flags each workload replays with.

Every generator is a pure function of its seed: the same seed writes the
same input files.  Sizes and the number of streams are fixed per
workload (not scaled with the run length), so a seed is always the same
work.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence, Tuple

Event = Tuple[int, Tuple[int, ...], int]  # (timestamp, vertices, weight)


def _distinct(draw, k: int) -> Tuple[int, ...]:
    out: set = set()
    while len(out) < k:
        out.add(draw())
    return tuple(sorted(out))


def planted_insert(seed: int, p: dict) -> List[Event]:
    """Uniform background with a share of edges inside a small core."""
    rng = random.Random(seed)
    events = []
    for i in range(p["events"]):
        pool = p["core"] if rng.random() < p["core_share"] else p["vertices"]
        k = rng.randint(2, p["rank"])
        events.append((i // p["events_per_ts"], _distinct(lambda: rng.randrange(pool), k), 1))
    return events


def bursty_window(seed: int, p: dict) -> List[Event]:
    """Zipf vertex popularity, repeated vertex sets, dense/sparse phases."""
    rng = random.Random(seed)
    cum = list(itertools.accumulate((k + 1) ** -p["zipf"] for k in range(p["vertices"])))
    verts = range(p["vertices"])
    draw = lambda: rng.choices(verts, cum_weights=cum)[0]  # noqa: E731
    recent: deque = deque(maxlen=p["repeat_pool"])
    events, ts = [], 0
    phases = itertools.cycle(p["phases"])  # (events in phase, arrival gap)
    while len(events) < p["events"]:
        count, gap = next(phases)
        for _ in range(min(count, p["events"] - len(events))):
            if recent and rng.random() < p["repeat_share"]:
                e = rng.choice(recent)
            else:
                e = _distinct(draw, rng.randint(2, p["rank"]))
            recent.append(e)
            events.append((ts, e, 1))
            ts += gap
    return events


def fixture(seed: int, p: dict) -> List[Event]:
    """A bundled stream, the same for every seed."""
    from dynadense.io import load_benson

    prefix = Path(__file__).resolve().parent.parent / p["prefix"]
    events, _ = load_benson(*(f"{prefix}-{part}.txt" for part in ("nverts", "simplices", "times")))
    return [(e.timestamp, e.vertices, e.weight) for e in events]


WORKLOADS: Dict[str, dict] = {
    "planted-insert": {
        "generator": planted_insert,
        "params": {"events": 800, "vertices": 2000, "core": 40, "core_share": 0.3,
                   "rank": 3, "events_per_ts": 8},
        "format": "benson",
        "flags": ["--algo", "udshp", "--epsilon", "0.3", "--dup-constant", "0.05"],
        "top": "udshp",
        "slack": 0.3,
        "streams": 6,
        "check_every": 4,
    },
    "bursty-window": {
        "generator": bursty_window,
        "params": {"events": 4500, "vertices": 2000, "zipf": 1.2, "rank": 3,
                   "repeat_share": 0.44, "repeat_pool": 500,
                   "phases": [[2000, 1], [250, 8]]},
        "format": "events",
        "flags": ["--mode", "window", "--window", "2000", "--report", "4",
                  "--dup-constant", "0"],
        "top": "udshp",
        "slack": 0.3,
        "streams": 7,
        "check_every": 60,
    },
    "weighted-window": {
        "generator": planted_insert,
        "params": {"events": 240, "vertices": 200, "core": 20, "core_share": 0.3,
                   "rank": 3, "events_per_ts": 1},
        "format": "events",
        "flags": ["--mode", "window", "--window", "100", "--algo", "wdshp",
                  "--delta", "0.9", "--dup-constant", "0", "--weights", "uniform:1:4:{seed}"],
        "top": "wdshp",
        "slack": 0.9,
        "streams": 4,
        "check_every": 4,
    },
    # quick end-to-end smoke test, not a benchmark workload
    "smoke": {
        "generator": fixture,
        "params": {"prefix": "tests/fixtures/mini"},
        "format": "benson",
        "flags": ["--dup-constant", "0.2"],
        "top": "udshp",
        "slack": 0.3,
        "streams": 1,
        "check_every": 1,
    },
}


def write_input(events: Sequence[Event], fmt: str, base: Path) -> str:
    """Write ``events`` in the CLI's input format; returns the --input value."""
    if fmt == "benson":
        prefix = base / "stream"
        with open(f"{prefix}-nverts.txt", "w") as nv, open(f"{prefix}-simplices.txt", "w") as sx, \
                open(f"{prefix}-times.txt", "w") as tm:
            for ts, verts, _ in events:
                nv.write(f"{len(verts)}\n")
                sx.writelines(f"{v}\n" for v in verts)
                tm.write(f"{ts}\n")
        return str(prefix)
    path = base / "stream.events"
    with open(path, "w") as fh:
        fh.writelines(f"{ts} {w} {' '.join(map(str, verts))}\n" for ts, verts, w in events)
    return str(path)


def describe(events: Sequence[Event], window: int | None) -> dict:
    """Input properties the structures' cost depends on."""
    live: Dict[Tuple[int, ...], int] = {}
    queue: deque = deque()
    repeats = 0
    for ts, verts, _ in events:
        if window is not None:
            while queue and queue[0][0] <= ts - window:
                old = queue.popleft()[1]
                live[old] -= 1
        repeats += live.get(verts, 0) > 0
        live[verts] = live.get(verts, 0) + 1
        queue.append((ts, verts))
    return {
        "events": len(events),
        "distinct_timestamps": len({ts for ts, _, _ in events}),
        "distinct_vertex_sets": len({v for _, v, _ in events}),
        "repeat_live_set_share": repeats / len(events) if events else 0.0,
        "median_rank": median(len(v) for _, v, _ in events) if events else 0,
    }
