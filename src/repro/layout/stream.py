"""Layout streaming: the one door every layout file is read through.

Each format has a single reader, a two-pass cursor living next to its
writer: :class:`~repro.layout.gdsii.GdsiiStream` and
:class:`~repro.layout.cif.CifStream`.  Pass 1 builds a *skeleton*
library (cells, references, units — no polygons) plus per-cell byte
spans; geometry is re-read lazily from those spans, so
:meth:`~repro.layout.cursor.LayoutStream.iter_flat` yields the
flattened polygons in :func:`~repro.layout.flatten.flatten_cell` order
while holding the placement index and at most one cell's geometry.  The resident read
(``read_gdsii``/``loads_gdsii``/``read_cif``/``loads_cif``, or
:meth:`~repro.layout.cursor.LayoutStream.materialize` on an open
stream) is the same cursor run to completion — not a second parser —
so resident and out-of-core preparation see the same cells, the same
polygons and the same errors on every input, and every downstream
artifact (`.ebj`, `.ebp`) is byte-identical whichever mode produced it.

This module gathers the streaming surface in one import path: the
cursor protocol (:class:`LayoutStream`, :class:`MemoryStream`), the
two readers, the incremental :class:`GdsiiStreamWriter`, and
:func:`open_layout_stream`, which picks the reader by file suffix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.layout.cursor import (
    GEOM_CACHE_MAX_BYTES,
    LayoutStream,
    MemoryStream,
)
from repro.layout.gdsii import GdsiiStream, GdsiiStreamWriter

__all__ = [
    "GEOM_CACHE_MAX_BYTES",
    "LayoutStream",
    "MemoryStream",
    "GdsiiStream",
    "CifStream",
    "GdsiiStreamWriter",
    "open_layout_stream",
]


def open_layout_stream(path: Union[str, Path]) -> LayoutStream:
    """Open a layout file as a stream, choosing the reader by suffix
    (``.cif`` is CIF, anything else GDSII)."""
    if Path(path).suffix.lower() == ".cif":
        from repro.layout.cif import CifStream

        return CifStream(path)
    return GdsiiStream(path)


def __getattr__(name: str):
    # The CIF reader is imported on first use: a GDSII run never calls it.
    if name == "CifStream":
        from repro.layout.cif import CifStream

        return CifStream
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
