"""Timing probes wrapped around the package's public functions.

Nothing in the package is modified: each probe replaces a name where
its caller looks it up (a class attribute, or a module global such as
``dynadense.cli.run_stream``) and puts the original back afterwards.

Three kinds of probe:

* ``install_sampler`` (untraced replays) wraps only the top structure's
  public calls and records one sample per update and per report query.
* ``install_setup_stop`` ends a set-up-only pass of ``cli.main`` at the
  top structure's first update, which is where set-up time stops.
* ``Tracer`` (traced replays) wraps every layer.  Each call is a span
  with a parent; a layer's self time is its span time minus its child
  spans.  Spans of calls made from inside a structure (Udshp inside
  Wdshp, Hop inside Udshp) are too many to keep one by one, so they are
  aggregated per parent span; all other spans are kept in memory and
  written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import dynadense.cli as cli
import dynadense.stream as stream
from dynadense.hop import Hop
from dynadense.model import WeightedHypergraph
from dynadense.udshp import Udshp
from dynadense.wdshp import Wdshp

ns = time.perf_counter_ns

STRUCTURES = {"udshp": Udshp, "wdshp": Wdshp}
_NESTING = {"hop", "udshp", "wdshp"}


class Patch:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def wrap(self, owner, name: str, make: Callable) -> None:
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def undo(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)


class Replay:
    """What one pass of ``cli.main`` left behind, outside any timed interval."""

    def __init__(self, traced: bool, snapshot_every: int) -> None:
        self.traced = traced
        self.snapshot_every = snapshot_every
        self.entry_ns = 0
        self.first_update_ns: Optional[int] = None
        self.run_ns = 0
        self.observer_ns = 0
        self.wall_ns = 0
        self.reports = 0
        self.updates: List[int] = []
        self.queries: List[int] = []
        self.query_acc = 0
        self.snapshots: Dict[int, list] = {}
        self.instance = None
        self.points = None
        self.summary = None

    def observe(self, report_time: int, mirror: WeightedHypergraph) -> None:
        """run_stream observer: closes the previous report's query sample
        and snapshots the live edges at sampled reports."""
        t0 = ns()
        if self.query_acc:
            self.queries.append(self.query_acc)
            self.query_acc = 0
        idx = self.reports
        self.reports += 1
        if self.snapshot_every and idx % self.snapshot_every == 0 and len(mirror):
            self.snapshots[idx] = [(v, w) for _, v, w in mirror.edges()]
        self.observer_ns += ns() - t0


def install_capture(patch: Patch, rep: Replay, top: str) -> None:
    """Hand run_stream the observer, time it, and keep its result and the
    top structure instance."""

    def make_run(orig):
        def run_stream(events, config, observer=None):
            t0 = ns()
            points, summary = orig(events, config, observer=rep.observe)
            rep.run_ns = ns() - t0
            if rep.query_acc:
                rep.queries.append(rep.query_acc)
                rep.query_acc = 0
            rep.points, rep.summary = points, summary
            return points, summary
        return run_stream

    def make_init(orig):
        def __init__(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            if rep.instance is None:
                rep.instance = self
        return __init__

    patch.wrap(cli, "run_stream", make_run)
    patch.wrap(STRUCTURES[top], "__init__", make_init)


def install_sampler(patch: Patch, rep: Replay, top: str) -> None:
    cls = STRUCTURES[top]
    updates = rep.updates

    def make_update(orig):
        def update(*args, **kwargs):
            t0 = ns()
            out = orig(*args, **kwargs)
            updates.append(ns() - t0)
            if rep.first_update_ns is None:
                rep.first_update_ns = t0
            return out
        return update

    def make_query(orig):
        def query(*args, **kwargs):
            t0 = ns()
            out = orig(*args, **kwargs)
            rep.query_acc += ns() - t0
            return out
        return query

    for name in ("insert", "delete"):
        patch.wrap(cls, name, make_update)
    for name in ("max_density", "densest_subset"):
        patch.wrap(cls, name, make_query)


class SetupDone(Exception):
    """Ends a set-up-only pass of cli.main at the first structure update."""


def install_setup_stop(patch: Patch, top: str) -> list:
    """Make the top structure's first insert record its start time and
    raise SetupDone; returns the list that receives the time."""
    stamp: list = []

    def make_insert(orig):
        def insert(*args, **kwargs):
            stamp.append(ns())
            raise SetupDone
        return insert

    patch.wrap(STRUCTURES[top], "insert", make_insert)
    return stamp


class Tracer:
    """Span recorder shared by all traced replays of a run."""

    def __init__(self) -> None:
        self.stack: list = []  # frames: [child_ns, span id, name, layer]
        self.stats: Dict[str, List[int]] = {}  # name -> [calls, total ns, self ns]
        self.pairs: Dict[tuple, int] = defaultdict(int)  # (parent, child) -> calls
        self.spans: list = []  # (id, parent id, name, start ns, end ns)
        self.aggregated: Dict[tuple, List[int]] = {}  # (parent id, name) -> [calls, ns]
        self.rotations = 0
        self.rotations_max = 0
        self.fill_slots = 0  # sum of dup * num_copies over Udshp inserts
        self._ids = itertools.count(1)

    def span(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        stack, pairs, spans, aggregated, ids = (
            self.stack, self.pairs, self.spans, self.aggregated, self._ids)
        stat = self.stats.setdefault(name, [0, 0, 0])
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, next(ids), name, layer]
            stack.append(frame)
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = ns()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d
                stat[2] += d - frame[0]
                if parent is None:
                    spans.append((frame[1], None, name, t0, t1))
                else:
                    parent[0] += d
                    pairs[(parent[2], name)] += 1
                    if parent[3] in _NESTING:
                        agg = aggregated.get((parent[1], name))
                        if agg is None:
                            aggregated[(parent[1], name)] = [1, d]
                        else:
                            agg[0] += 1
                            agg[1] += d
                    else:
                        spans.append((frame[1], parent[1], name, t0, t1))
                if post is not None:
                    post(args)
        return traced

    def _hop_post(self, args) -> None:
        rot = args[0].last_rotations
        self.rotations += rot
        if rot > self.rotations_max:
            self.rotations_max = rot

    def _udshp_insert_post(self, args) -> None:
        self.fill_slots += args[0].dup * args[0].num_copies

    def install(self, patch: Patch, rep: Replay) -> None:
        def on(owner, attr, name, post=None):
            patch.wrap(owner, attr, lambda orig: self.span(name, orig, post))

        on(cli, "load_benson", "io.load_benson")
        on(cli, "load_events", "io.load_events")
        on(cli, "assign_weights", "stream.assign_weights")
        on(cli, "run_stream", "stream.run_stream")
        on(cli, "write_csv", "cli.write_csv")
        on(cli, "write_summary_json", "cli.write_summary_json")
        on(stream, "exact_densest_bruteforce", "oracles.exact_densest_bruteforce")
        on(stream, "greedy_peel", "oracles.greedy_peel")
        for attr in ("insert", "delete", "support"):
            on(WeightedHypergraph, attr, f"model.{attr}")
        for attr in ("__init__", "query_density", "query_subset"):
            on(Hop, attr, f"hop.{attr}")
        for attr in ("insert", "delete"):
            on(Hop, attr, f"hop.{attr}", self._hop_post)
        for cls, layer in ((Udshp, "udshp"), (Wdshp, "wdshp")):
            for attr in ("__init__", "insert", "delete", "max_density", "densest_subset"):
                post = self._udshp_insert_post if (cls, attr) == (Udshp, "insert") else None
                on(cls, attr, f"{layer}.{attr}", post)
        rep.observe = self.span("bench.observer", rep.observe)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")
            for (parent, name), (calls, total) in self.aggregated.items():
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "total_ns": total}) + "\n")
