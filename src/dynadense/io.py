"""Temporal hypergraph ingestion.

Two input formats:

* the three-file simplicial format (``<prefix>-nverts.txt``,
  ``<prefix>-simplices.txt``, ``<prefix>-times.txt``): line k of the
  nverts file gives the size of simplex k, the simplices file lists all
  vertex ids consecutively, and the times file has one timestamp per
  simplex;
* a plain ``events`` format: one line per event, ``t w v1 v2 ... vk``.

Loaded vertex ids are remapped to a dense [0, n) universe in order of
first appearance; events are returned in file order, stably sorted by
timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple


class FormatError(ValueError):
    """Malformed input data; message carries file and line context."""


@dataclass(frozen=True)
class TemporalEvent:
    timestamp: int
    vertices: Tuple[int, ...]
    weight: int = 1


@dataclass(frozen=True)
class LoadReport:
    """What the loader saw: dataset shape plus rejection counters."""

    n: int
    m: int
    r: int
    rejected_duplicate_vertex: int = 0
    rejected_rank: int = 0


def _read_int_tokens(path: Path) -> List[Tuple[int, int]]:
    """All integer tokens of a text file as (value, line_number) pairs."""
    out: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            for tok in line.split():
                try:
                    out.append((int(tok), lineno))
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: expected an integer, got {tok!r}"
                    ) from None
    return out


def _finish_load(
    raw: List[Tuple[int, Tuple[int, ...], int]],
    rejected_dup: int,
    rejected_rank: int,
) -> Tuple[List[TemporalEvent], LoadReport]:
    """Dense-relabel vertices by first appearance, stable sort by time,
    and report the dataset shape with the rejection counters."""
    relabel: Dict[int, int] = {}
    events: List[TemporalEvent] = []
    for timestamp, verts, weight in raw:
        mapped = []
        for v in verts:
            if v not in relabel:
                relabel[v] = len(relabel)
            mapped.append(relabel[v])
        events.append(TemporalEvent(timestamp, tuple(sorted(mapped)), weight))
    events.sort(key=lambda e: e.timestamp)
    return events, LoadReport(
        n=len(relabel),
        m=len(events),
        r=max((len(e.vertices) for e in events), default=0),
        rejected_duplicate_vertex=rejected_dup,
        rejected_rank=rejected_rank,
    )


def load_benson(
    nverts_path: str | Path,
    simplices_path: str | Path,
    times_path: str | Path,
    rank_bound: Optional[int] = None,
) -> Tuple[List[TemporalEvent], LoadReport]:
    """Load the three-file simplicial format.

    Simplices with a repeated vertex, or larger than ``rank_bound`` when
    one is given, are dropped and counted in the report.  Length
    mismatches among the files raise :class:`FormatError` with the line
    where the shortfall was noticed.
    """
    nverts_path, simplices_path, times_path = (
        Path(nverts_path), Path(simplices_path), Path(times_path),
    )
    sizes = _read_int_tokens(nverts_path)
    vertex_ids = _read_int_tokens(simplices_path)
    times = _read_int_tokens(times_path)

    if len(times) != len(sizes):
        short = times_path if len(times) < len(sizes) else nverts_path
        count = min(len(times), len(sizes))
        line = (times if len(times) < len(sizes) else sizes)[-1][1] if count else 0
        raise FormatError(
            f"{short}:{line}: {len(sizes)} simplex sizes but {len(times)} "
            "timestamps"
        )
    total = sum(s for s, _ in sizes)
    if total != len(vertex_ids):
        line = vertex_ids[-1][1] if vertex_ids else 0
        raise FormatError(
            f"{simplices_path}:{line}: simplex sizes sum to {total} vertex "
            f"ids but the file holds {len(vertex_ids)}"
        )

    raw: List[Tuple[int, Tuple[int, ...], int]] = []
    rejected_dup = 0
    rejected_rank = 0
    pos = 0
    for (size, size_line), (timestamp, _) in zip(sizes, times):
        if size < 1:
            raise FormatError(
                f"{nverts_path}:{size_line}: simplex size must be positive, "
                f"got {size}"
            )
        chunk = tuple(v for v, _ in vertex_ids[pos : pos + size])
        pos += size
        if len(set(chunk)) != len(chunk):
            rejected_dup += 1
            continue
        if rank_bound is not None and size > rank_bound:
            rejected_rank += 1
            continue
        raw.append((timestamp, chunk, 1))

    return _finish_load(raw, rejected_dup, rejected_rank)


def load_events(
    path: str | Path, rank_bound: Optional[int] = None
) -> Tuple[List[TemporalEvent], LoadReport]:
    """Load the plain format: one ``t w v1 v2 ... vk`` line per event.

    Blank lines and lines starting with ``#`` are skipped.
    """
    path = Path(path)
    raw: List[Tuple[int, Tuple[int, ...], int]] = []
    rejected_dup = 0
    rejected_rank = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = stripped.split()
            if len(toks) < 3:
                raise FormatError(
                    f"{path}:{lineno}: need at least 't w v1', got {stripped!r}"
                )
            try:
                nums = [int(t) for t in toks]
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: non-integer token in {stripped!r}"
                ) from None
            timestamp, weight, verts = nums[0], nums[1], tuple(nums[2:])
            if weight < 1:
                raise FormatError(
                    f"{path}:{lineno}: weight must be positive, got {weight}"
                )
            if len(set(verts)) != len(verts):
                rejected_dup += 1
                continue
            if rank_bound is not None and len(verts) > rank_bound:
                rejected_rank += 1
                continue
            raw.append((timestamp, verts, weight))

    return _finish_load(raw, rejected_dup, rejected_rank)
