"""Benchmark command line: load a temporal hypergraph, replay it, emit CSV.

Exit codes: 0 success, 2 malformed input data, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .io import FormatError, load_benson, load_events
from .stream import (
    DEFAULT_ORACLE_SUPPORT_LIMIT,
    ConfigError,
    RunConfig,
    assign_weights,
    run_stream,
    write_csv,
    write_summary_json,
)
from .udshp import DUPLICATION_CONSTANT


def _parse_weights(spec: str) -> Tuple:
    if spec == "unit":
        return ("unit",)
    if spec.startswith("uniform:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ConfigError(f"--weights uniform needs LO:HI:SEED, got {spec!r}")
        try:
            lo, hi, seed = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError(f"--weights uniform needs integers, got {spec!r}") from None
        return ("uniform", lo, hi, seed)
    raise ConfigError(f"--weights must be 'unit' or 'uniform:LO:HI:SEED', got {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynadense",
        description=(
            "Maintain an approximate densest subhypergraph over a temporal "
            "event stream and report density/timing series as CSV."
        ),
    )
    p.add_argument(
        "--input",
        required=True,
        help=(
            "dataset path: for --format benson, the prefix of "
            "<prefix>-nverts.txt / -simplices.txt / -times.txt; for "
            "--format events, a file of 't w v1 v2 ... vk' lines"
        ),
    )
    p.add_argument("--format", choices=("benson", "events"), default="events")
    p.add_argument("--mode", choices=("insert", "window"), default="insert")
    p.add_argument("--window", type=int, default=None, metavar="N",
                   help="sliding-window length in timestamp units")
    p.add_argument("--report", type=int, default=1, metavar="N",
                   help="reporting interval in timestamp units")
    p.add_argument("--algo", choices=("udshp", "wdshp", "exact", "greedy"),
                   default="udshp")
    p.add_argument("--epsilon", type=float, default=0.3, metavar="F")
    p.add_argument("--delta", type=float, default=0.5, metavar="F")
    p.add_argument("--weights", default="unit", metavar="MODE",
                   help="unit | uniform:LO:HI:SEED")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--dedupe-edges", action="store_true",
                   help="collapse events sharing a vertex set into one live edge")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory for report.csv and summary.json")
    p.add_argument("--no-timing", action="store_true",
                   help="zero the timing columns (for reproducible output)")
    p.add_argument("--rank", type=int, default=None, metavar="R",
                   help="rank bound; larger events are rejected at load time")
    # desk-scale tuning knobs
    p.add_argument("--dup-constant", type=float, default=DUPLICATION_CONSTANT,
                   metavar="F",
                   help="duplication constant (default: %(default)s, the analysis value)")
    p.add_argument("--w-star", type=float, default=1.0, metavar="F",
                   help="promised lower bound on max edge multiplicity")
    p.add_argument("--oracle-limit", type=int,
                   default=DEFAULT_ORACLE_SUPPORT_LIMIT, metavar="N",
                   help="max live support for exact-density columns")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        weight_mode = _parse_weights(args.weights)
        config = RunConfig(
            mode=args.mode,
            window_length=args.window,
            report_interval=args.report,
            algo=args.algo,
            epsilon=args.epsilon,
            delta=args.delta,
            weight_mode=weight_mode,
            seed=args.seed,
            dedupe_edges=args.dedupe_edges,
            rank=args.rank,
            no_timing=args.no_timing,
            oracle_support_limit=args.oracle_limit,
            w_star=args.w_star,
            dup_constant=args.dup_constant,
        )
        config.validate()

        if args.format == "benson":
            prefix = args.input
            events, report = load_benson(
                f"{prefix}-nverts.txt",
                f"{prefix}-simplices.txt",
                f"{prefix}-times.txt",
                rank_bound=args.rank,
            )
        else:
            events, report = load_events(args.input, rank_bound=args.rank)
        events = assign_weights(events, weight_mode)

        points, summary = run_stream(events, config)

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "report.csv"
        json_path = out_dir / "summary.json"
        write_csv(points, csv_path, no_timing=args.no_timing)
        write_summary_json(summary, json_path, no_timing=args.no_timing)
        rejected = report.rejected_duplicate_vertex + report.rejected_rank
        print(
            f"loaded n={report.n} m={report.m} r={report.r} "
            f"(rejected {rejected}); {len(points)} report points -> {csv_path}"
        )
        return 0
    except (FormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
