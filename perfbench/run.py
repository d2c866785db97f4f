"""Seeded end-to-end and per-layer benchmark of the dynadense CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted-insert --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36   # every workload, one table
    python3 perfbench/run.py --workload smoke --seconds 1  # bundled fixture

A run generates the workload's fixed number of streams from --seed and
replays them through ``dynadense.cli.main`` in this process,
single-threaded and closed-loop: a set-up-only warm-up pass, then
every stream in turn, once each and then on in turn until about --seconds
have passed since the warm-up.  The first
replay of each stream snapshots the live edges at sampled reports, and
the exact checker compares those reports with rho* outside every timed
interval.  Every later replay of a stream must reproduce its report
sequence exactly (determinism digest).  --trace 0 times only the top
structure and reports the end-to-end metrics; --trace 1 replays each
stream of the first half untraced and then fully traced and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``attempted`` is the number of
checked reports and ``failed`` the number whose estimate or subset lies
outside the structure's approximation guarantee.  ``correct`` is false
when the run's outputs are malformed or not reproducible, or the exact
checker contradicts itself.  A full run record goes to
.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
# set-up-only passes after each timed replay: set-up takes tens of ms on
# the unit workloads, so one sample per replay is too few for a median
EXTRA_SETUPS = 2

def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(math.ceil(p / 100.0 * len(sorted_values)), 1)
    return float(sorted_values[k - 1])


def digest_lines(points) -> list:
    return [f"{p.report_time},{p.density_estimate!r},{len(p.subset)}" for p in points]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def replay_once(probes, spec, argv, traced, tracer, snapshot_every):
    rep = probes.Replay(traced, snapshot_every)
    patch = probes.Patch()
    probes.install_capture(patch, rep, spec["top"])
    if traced:
        tracer.install(patch, rep)
        main = tracer.span("cli.main", probes.cli.main)
    else:
        probes.install_sampler(patch, rep, spec["top"])
        main = probes.cli.main
    gc.collect()
    gc.freeze()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rep.entry_ns = probes.ns()
            code = main(argv)
            rep.wall_ns = probes.ns() - rep.entry_ns
    finally:
        patch.undo()
    if code != 0:
        raise RuntimeError(f"dynadense CLI exited with {code}")
    return rep


def setup_once(probes, spec, argv) -> float:
    """Seconds from cli.main entry to the first structure update; the
    pass stops there."""
    patch = probes.Patch()
    stamp = probes.install_setup_stop(patch, spec["top"])
    gc.collect()
    gc.freeze()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            entry = probes.ns()
            probes.cli.main(argv)
    except probes.SetupDone:
        pass
    finally:
        patch.undo()
    return (stamp[0] - entry) / 1e9


def structure_descriptors(inst) -> dict:
    if hasattr(inst, "ensembles"):
        first = inst.ensembles[0]
        return {"dup": first.dup, "num_copies": first.num_copies,
                "num_guesses": inst.num_guesses,
                "rate1_guesses": sum(1 for q in inst.q if q >= 1.0)}
    return {"dup": inst.dup, "num_copies": inst.num_copies,
            "num_guesses": None, "rate1_guesses": None}


def replay_s(rep) -> float:
    """Replay wall time: run_stream minus the checker's observer."""
    return (rep.run_ns - rep.observer_ns) / 1e9


def events_per_s(reps) -> float:
    """Events over replay time, pooled over ``reps``: one slow or fast
    replay moves it by its share of the time, not by a rank."""
    return sum(r.summary.num_events for r in reps) / sum(replay_s(r) for r in reps)


def end_to_end(reps, setups, checks) -> dict:
    timed = [r for r in reps if not r.traced]
    updates = sorted(x for r in timed for x in r.updates)
    queries = sorted(x for r in timed for x in r.queries)
    errors = sorted(c["rel_error_pct"] for c in checks)
    ratios = sorted(c["subset_ratio"] for c in checks)
    ok_pct = 100.0 * sum(c["ok"] for c in checks) / len(checks)
    m = {
        "setup_s": (median(setups), "s", len(setups)),
        "events_per_s": (events_per_s(timed), "1/s", len(timed)),
        "update_us_p50": (percentile(updates, 50) / 1e3, "us", len(updates)),
        "update_us_p99": (percentile(updates, 99) / 1e3, "us", len(updates)),
        "query_us_p50": (percentile(queries, 50) / 1e3, "us", len(queries)),
        "query_us_p90": (percentile(queries, 90) / 1e3, "us", len(queries)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "guarantee_ok_pct": (ok_pct, "%", len(checks)),
        # recorded, not gated: see README.md
        "guarantee_fail_pct": (100.0 - ok_pct, "%", len(checks)),
        "rel_error_pct_p50": (median(errors), "%", len(errors)),
        "rel_error_pct_max": (errors[-1], "%", len(errors)),
        "subset_ratio_min": (ratios[0], "ratio", len(ratios)),
        "subset_ratio_p10": (percentile(ratios, 10), "ratio", len(ratios)),
    }
    return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in m.items()}


def per_layer(reps, tracer) -> dict:
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    k = len(traced)
    st = tracer.stats
    pairs = tracer.pairs

    def calls(*names):
        return sum(st.get(n, (0, 0, 0))[0] for n in names)

    def total_s(*names):
        return sum(st.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(layer):
        return sum(v[2] for n, v in st.items() if n.split(".", 1)[0] == layer) / 1e9

    def pair(parents, children):
        return sum(pairs.get((p, c), 0) for p in parents for c in children)

    def ratio(a, b):
        return a / b if b else 0.0

    hop_ops = ("hop.insert", "hop.delete")
    u_upd = ("udshp.insert", "udshp.delete")
    u_q = ("udshp.max_density", "udshp.densest_subset")
    w_upd = ("wdshp.insert", "wdshp.delete")
    w_q = ("wdshp.max_density", "wdshp.densest_subset")
    model_ops = ("model.insert", "model.delete")
    oracle = ("oracles.exact_densest_bruteforce", "oracles.greedy_peel")
    wall = sum(r.wall_ns for r in traced) / 1e9
    self_total = sum(v[2] for v in st.values()) / 1e9
    m = {
        "hop.ops": (calls(*hop_ops) / k, "count"),
        "hop.op_us_mean": (1e6 * ratio(total_s(*hop_ops), calls(*hop_ops)), "us"),
        "hop.self_s": (self_s("hop") / k, "s"),
        "hop.rotations_per_op": (ratio(tracer.rotations, calls(*hop_ops)), "count"),
        "hop.rotations_max": (tracer.rotations_max, "count"),
        "udshp.ctor_s": (total_s("udshp.__init__") / k, "s"),
        "udshp.self_s": (self_s("udshp") / k, "s"),
        "udshp.update_us_mean": (1e6 * ratio(total_s(*u_upd), calls(*u_upd)), "us"),
        "udshp.hop_ops_per_update": (ratio(pair(u_upd, hop_ops), calls(*u_upd)), "count"),
        "udshp.hop_insert_fill": (ratio(pair(["udshp.insert"], ["hop.insert"]),
                                        tracer.fill_slots), "ratio"),
        "udshp.swap_ins_per_delete": (ratio(pair(["udshp.delete"], ["hop.insert"]),
                                            calls("udshp.delete")), "count"),
        "udshp.query_us_mean": (1e6 * ratio(total_s(*u_q), calls(*u_q)), "us"),
        "wdshp.ctor_s": (total_s("wdshp.__init__") / k, "s"),
        "wdshp.self_s": (self_s("wdshp") / k, "s"),
        "wdshp.udshp_ops_per_update": (ratio(pair(w_upd, u_upd), calls(*w_upd)), "count"),
        "wdshp.udshp_queries_per_query": (ratio(pair(w_q, u_q), calls(*w_q)), "count"),
        "wdshp.query_us_mean": (1e6 * ratio(total_s(*w_q), calls(*w_q)), "us"),
        "model.mirror_op_us_mean": (1e6 * ratio(total_s(*model_ops), calls(*model_ops)), "us"),
        "model.support_calls": (calls("model.support") / k, "count"),
        "model.support_s": (total_s("model.support") / k, "s"),
        "stream.self_s": (self_s("stream") / k, "s"),
        "stream.reports": (sum(r.reports for r in traced) / k, "count"),
        "stream.updates": (sum(r.summary.total_updates for r in traced) / k, "count"),
        "io.load_s": (total_s("io.load_benson", "io.load_events") / k, "s"),
        "io.events_loaded": (sum(r.summary.num_events for r in traced) / k, "count"),
        "cli.write_s": (total_s("cli.write_csv", "cli.write_summary_json") / k, "s"),
        "cli.total_s": (total_s("cli.main") / k, "s"),
        "oracles.calls": (calls(*oracle) / k, "count"),
        "oracles.s": (total_s(*oracle) / k, "s"),
        "trace.overhead_pct": (100.0 * (events_per_s(untraced) / events_per_s(traced) - 1.0), "%"),
        "trace.accounted_pct": (100.0 * self_total / wall, "%"),
    }
    return {name: {"value": float(v), "unit": u, "samples": k} for name, (v, u) in m.items()}


def check_csv(path: Path, lines: list) -> bool:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    return len(rows) == len(lines) and all(
        row.split(",", 1)[0] == line.split(",", 1)[0] for row, line in zip(rows, lines))


def run(args) -> int:
    if not (ROOT / "src" / "dynadense").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'dynadense'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import probes  # noqa: E402  (needs the package on sys.path)
    from checker import check_point  # noqa: E402
    from workloads import WORKLOADS, describe, write_input  # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = OUT / f"{tag}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        streams = []  # per stream: (argv, events)
        for k in range(spec["streams"]):
            sub_seed = args.seed * 1000 + k
            events = spec["generator"](sub_seed, spec["params"])
            base = work / f"stream{k}"
            base.mkdir()
            flags = [f.format(seed=sub_seed) for f in spec["flags"]]
            argv = ["--input", write_input(events, spec["format"], base),
                    "--format", spec["format"], "--out", str(base / "out"),
                    "--seed", str(sub_seed)] + flags
            streams.append((argv, events))
        window = int(flags[flags.index("--window") + 1]) if "--window" in flags else None

        # A set-up-only pass of stream 0 warms up (imports, input parsing,
        # the first large allocations); a whole warm-up replay measured no
        # slower than later replays of the same stream.  Then the streams
        # take turns: the first full pass always completes, so every run of
        # a seed checks the same streams, and the turns go on to the step end
        # nearest to --seconds after the warm-up.  A traced run replays half
        # the streams, each untraced and then traced, and stops only after
        # such a pair.
        steps = ([[(k, False), (k, True)] for k in range(max(len(streams) // 2, 1))]
                 if args.trace else [[(k, False)] for k in range(len(streams))])
        tracer = probes.Tracer()
        reps, setups, first_seen, pending = [], [], {}, []
        setup_once(probes, spec, streams[0][0])
        start = probes.ns()
        for n, step in enumerate(itertools.cycle(steps), 1):
            for k, traced in step:
                argv, events = streams[k]
                first = k not in first_seen
                rep = replay_once(probes, spec, argv, traced, tracer,
                                  spec["check_every"] if first else 0)
                lines = digest_lines(rep.points)
                rep.stream, rep.digest = k, hashlib.sha256("\n".join(lines).encode()).hexdigest()
                if first:
                    sizes = [len(p.subset) for p in rep.points]
                    first_seen[k] = {
                        "digest": rep.digest,
                        "csv_ok": check_csv(
                            Path(argv[argv.index("--out") + 1]) / "report.csv", lines),
                        "descriptors": dict(describe(events, window),
                                            **structure_descriptors(rep.instance),
                                            reports=len(rep.points),
                                            updates=rep.summary.total_updates,
                                            peak_live_edges=rep.summary.max_live_edges,
                                            median_subset_size=median(sizes) if sizes else 0),
                    }
                    # checked after the last replay, so no replay follows a check
                    pending += [(k, idx, edges, rep.points[idx].density_estimate,
                                 rep.points[idx].subset)
                                for idx, edges in sorted(rep.snapshots.items())]
                # report subsets, snapshots and the structure are large
                rep.points = rep.instance = rep.snapshots = None
                reps.append(rep)
                if not args.trace:
                    setups.append((rep.first_update_ns - rep.entry_ns) / 1e9)
                    setups += [setup_once(probes, spec, argv) for _ in range(EXTRA_SETUPS)]
            if n >= len(steps):
                # stop at the step end nearest to --seconds
                now = probes.ns() - start
                if now + 0.5 * now / n >= args.seconds * 1e9:
                    break
        measured_s = (probes.ns() - start) / 1e9

        check_start = probes.ns()
        checks = [dict(check_point(edges, estimate, subset, spec["slack"]), stream=k, report=idx)
                  for k, idx, edges, estimate, subset in pending]
        check_s = (probes.ns() - check_start) / 1e9
        reproducible = all(r.digest == first_seen[r.stream]["digest"] for r in reps)
        csv_ok = all(s["csv_ok"] for s in first_seen.values())
        correct = (reproducible and csv_ok and bool(checks)
                   and all(c["consistent"] for c in checks))
        failed = sum(not c["ok"] for c in checks)
        replayed = sorted(first_seen)
        digest = hashlib.sha256("".join(first_seen[k]["digest"] for k in replayed).encode()).hexdigest()
        per_stream = [first_seen[k]["descriptors"] for k in replayed]
        descriptors = {key: (None if per_stream[0][key] is None
                             else sum(d[key] for d in per_stream) / len(per_stream))
                       for key in per_stream[0]}

        if args.trace:
            metrics = per_layer(reps, tracer)
            tracer.dump(OUT / f"trace-{tag}.jsonl")
        else:
            metrics = end_to_end(reps, setups, checks)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "generator": spec["generator"].__name__,
            "params": spec["params"], "streams": len(replayed), "cli_flags": spec["flags"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "digest": digest, "reproducible": reproducible, "csv_matches": csv_ok,
            "descriptors_mean_per_stream": descriptors,
            "measured_s": measured_s, "check_s": check_s,
            "replays": [{"stream": r.stream, "traced": r.traced, "replay_s": replay_s(r),
                         "setup_s": ((r.first_update_ns or r.entry_ns) - r.entry_ns) / 1e9}
                        for r in reps],
            "checked_reports": len(checks), "failed_reports": failed,
            "failures": [c for c in checks if not c["ok"]][:20],
            "metrics": metrics,
        }
        with open(OUT / f"BENCH_{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, default=str)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} replays={len(reps)} digest={digest[:16]} "
          f"checked={len(checks)} failed={failed}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']:6s} n={m['samples']}")
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": correct, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in listed},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in (w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        status = status or proc.returncode
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every benchmarked workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload or --all is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
