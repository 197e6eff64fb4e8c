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

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "Layer": "layer",
        "Cell": "cell",
        "CellReference": "reference",
        "CellArray": "reference",
        "Library": "library",
        "flatten_cell": "flatten",
        "LayoutStream": "cursor",
        "GdsiiStream": "gdsii",
        "CifStream": "cif",
        "MemoryStream": "cursor",
        "GdsiiStreamWriter": "gdsii",
        "open_layout_stream": "stream",
        "generators": None,
    },
)
