"""Fully dynamic approximate densest subhypergraph maintenance.

Layers, bottom up:

* :mod:`dynadense.model` — hypergraph value types and exact density;
* :mod:`dynadense.hop` — bounded-slack head orientation for one load guess;
* :mod:`dynadense.udshp` — unit-weight densest-subset maintenance over
  doubling load guesses;
* :mod:`dynadense.wdshp` — weighted maintenance via sampled unweighted
  copies per density guess (rate-1 guesses share one ensemble);
* :mod:`dynadense.oracles` — exhaustive and greedy baselines;
* :mod:`dynadense.io` / :mod:`dynadense.stream` / :mod:`dynadense.cli`
  — temporal-stream benchmark harness.
"""

from .hop import Hop
from .io import FormatError, LoadReport, TemporalEvent, load_benson, load_events
from .model import WeightedHypergraph, canonical_edge, density
from .oracles import (
    OracleResult,
    exact_densest_bruteforce,
    exact_densest_graycode,
    greedy_peel,
)
from .stream import (
    ConfigError,
    ReportPoint,
    RunConfig,
    RunSummary,
    assign_weights,
    run_stream,
    write_csv,
    write_summary_json,
)
from .udshp import Udshp
from .wdshp import Wdshp, epsilon_from_delta

__all__ = [
    "Hop",
    "Udshp",
    "Wdshp",
    "WeightedHypergraph",
    "OracleResult",
    "TemporalEvent",
    "LoadReport",
    "FormatError",
    "ConfigError",
    "RunConfig",
    "ReportPoint",
    "RunSummary",
    "canonical_edge",
    "density",
    "epsilon_from_delta",
    "exact_densest_bruteforce",
    "exact_densest_graycode",
    "greedy_peel",
    "load_benson",
    "load_events",
    "assign_weights",
    "run_stream",
    "write_csv",
    "write_summary_json",
]

__version__ = "0.1.0"
