"""Span recorder for the traced (``--trace 1``) benchmark run.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing under ``src/`` is edited and
``src/`` reads no switch.  A span is the dict written to
``results/trace_F16.json``::

    {"name", "layer", "start", "end", "id", "parent", "op"}

``start``/``end`` are ``time.perf_counter()`` seconds; ``parent`` is the
id of the span that was open when this one started (``None`` for a
root); spans of one operation share ``op``.  Spans are kept in memory
and written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects nested spans for one traced run."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._op: Optional[str] = None

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """Tag every span opened inside the block with operation ``name``."""
        previous, self._op = self._op, name
        try:
            yield
        finally:
            self._op = previous

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[dict]:
        record = {
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "op": self._op,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def write_trace(path: Path, spans: List[dict], extra: Optional[dict] = None) -> None:
    """Write spans (of one or several runs) with their conditions."""
    payload = dict(extra or {})
    payload["spans"] = spans
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1))


def covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its direct children cover.  Children that overlap each
    other (parallel parts) are counted once, and a child reaching past
    its parent is clipped to the parent's interval."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span["id"], [])
            if min(e, end) > max(s, start)
        ]
        out[span["id"]] = (end - start) - covered(clipped)
    return out


def self_time_by_name(spans: List[dict], op: Optional[str] = None) -> Dict[str, float]:
    """Σ self time per span name, optionally restricted to one ``op``."""
    selfs = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if op is not None and span["op"] != op:
            continue
        totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]]
    return totals
