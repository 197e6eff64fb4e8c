"""Hierarchical layout database and mask-data formats.

The layout package provides the pattern-source side of the pipeline:

* :class:`~repro.layout.layer.Layer` — (layer, datatype) identification.
* :class:`~repro.layout.cell.Cell` — a named container of polygons per layer
  plus references to child cells.
* :class:`~repro.layout.reference.CellReference` /
  :class:`~repro.layout.reference.CellArray` — placements with the GDSII
  transform parameterization.
* :class:`~repro.layout.library.Library` — a set of cells with units,
  cycle checking and top-cell discovery.
* :mod:`~repro.layout.gdsii` — binary GDSII stream files: the writers
  (whole-library and incremental) and the one reader, a two-pass cursor
  that ``read_gdsii``/``loads_gdsii`` run to completion.
* :mod:`~repro.layout.cif` — Caltech Intermediate Form (the
  period-appropriate interchange format): writer and the one reader,
  built the same way.
* :mod:`~repro.layout.flatten` — hierarchy flattening.
* :mod:`~repro.layout.cursor` — the cursor protocol the readers
  implement: lazy flattening in bounded memory, over files or resident
  libraries alike.
* :mod:`~repro.layout.stream` — the streaming import surface and
  :func:`~repro.layout.stream.open_layout_stream`, the one door layout
  files are opened through (resident and out-of-core preparation both).
* :mod:`~repro.layout.generators` — synthetic workload generators used by
  the reconstructed evaluation.
"""

from repro.layout.layer import Layer
from repro.layout.cell import Cell
from repro.layout.reference import CellReference, CellArray
from repro.layout.library import Library
from repro.layout.flatten import flatten_cell, flatten_library
from repro.layout.stream import (
    CifStream,
    GdsiiStream,
    GdsiiStreamWriter,
    LayoutStream,
    MemoryStream,
    open_layout_stream,
)
from repro.layout import generators

__all__ = [
    "Layer",
    "Cell",
    "CellReference",
    "CellArray",
    "Library",
    "flatten_cell",
    "flatten_library",
    "LayoutStream",
    "GdsiiStream",
    "CifStream",
    "MemoryStream",
    "GdsiiStreamWriter",
    "open_layout_stream",
    "generators",
]
