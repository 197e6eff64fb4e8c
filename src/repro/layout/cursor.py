"""The layout cursor protocol: one lazy flattening walk over any source.

:class:`LayoutStream` is what the pipeline reads a layout through.  A
stream exposes a :class:`~repro.layout.library.Library` of cells with
their references and hands out each cell's own polygons on demand;
:meth:`LayoutStream.iter_flat` reads the hierarchy through
:func:`repro.layout.flatten.expand`, the expansion every door shares,
and yields the flattened polygons lazily, in
:func:`~repro.layout.flatten.flatten_cell`'s order and with
bit-identical coordinates.  It holds the placement index (one affine
row and one rank per instance, 56 bytes) and at most one cell's
geometry plus one bounded chunk of its placed rings.

* :class:`MemoryStream` — the cursor interface over an
  already-materialized library or cell, so pipeline code can treat every
  source uniformly.
* :class:`FileStream` — the shared half of the file-format readers
  (:class:`~repro.layout.gdsii.GdsiiStream`,
  :class:`~repro.layout.cif.CifStream`): pass 1 over the file or
  in-memory buffer builds a *skeleton* library (cells, references,
  units — no polygons) plus per-cell byte spans; geometry is re-read
  from those spans on demand.  :meth:`FileStream.materialize` is that
  lazy read run to completion, and it is how ``loads_*``/``read_*`` read
  a layout — a format has one parser, whichever mode asks.
"""

from __future__ import annotations

import io
import itertools
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform, identity_rows
from repro.geometry.vertex_array import transform_polygons
from repro.layout.cell import Cell
from repro.layout.flatten import expand, layer_order
from repro.layout.layer import Layer
from repro.layout.library import Library

#: Geometry of the most recently walked cell placed more than once is
#: memoized up to this many coordinate bytes (16 per vertex), and its
#: placed rings are moved in chunks of as many bytes; a cell placed
#: once, or a larger one, is re-read once per layer and instance,
#: keeping residency bounded.
GEOM_CACHE_MAX_BYTES = 1 << 22


class LayoutStream:
    """Common cursor interface over a layout source.

    Subclasses expose a skeleton :class:`Library` (cells with references
    but, for file-backed streams, no resident polygons) and lazy per-cell
    geometry.  The flattening walk here reads
    :func:`~repro.layout.flatten.expand` — the rows are
    :func:`~repro.layout.flatten.flatten_cell`'s transform products, the
    ranks its order, the cycle check its text — so its output is
    float-identical to materializing and flattening.
    """

    library: Optional[Library] = None

    # -- subclass hooks ----------------------------------------------------

    def _cell_layer_list(self, cell: Cell) -> List[Layer]:
        """Layers of ``cell``'s own geometry, in first-encounter order."""
        raise NotImplementedError

    def _held_layer(
        self, cell: Cell, layer: Layer, repeated: bool
    ) -> Optional[Sequence[Polygon]]:
        """The cell's own polygons on ``layer`` when the walk may hold
        them whole (``repeated``: the cell has more than one instance);
        ``None`` streams them through :meth:`_iter_cell_layer`."""
        raise NotImplementedError

    def _iter_cell_layer(self, cell: Cell, layer: Layer) -> Iterator[Polygon]:
        """The cell's own polygons on ``layer``, in stream order."""
        raise NotImplementedError

    def materialize(self) -> Library:
        """Load everything and return the full library."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the underlying file handle (no-op for memory streams)."""

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "LayoutStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- flattening walk ---------------------------------------------------

    def top_cell(self) -> Cell:
        """The unique top cell of the skeleton hierarchy."""
        if self.library is None:
            raise ValueError("stream has no library")
        return self.library.top_cell()

    def _resolve_top(self, top: Union[None, str, Cell]) -> Cell:
        if isinstance(top, Cell):
            return top
        if isinstance(top, str):
            if self.library is None:
                raise ValueError("stream has no library to look cells up in")
            return self.library[top]
        return self.top_cell()

    def iter_flat(
        self,
        top: Union[None, str, Cell] = None,
        layers: Optional[Set[Layer]] = None,
    ) -> Iterator[Polygon]:
        """Yield the flattened polygons of the hierarchy, lazily.

        Order and coordinates match concatenating the per-layer lists of
        :func:`~repro.layout.flatten.flatten_cell` in dict order — the
        exact sequence the materialized pipeline feeds to fracturing.
        Per layer, each run of consecutive instances of one cell is
        placed by :func:`~repro.geometry.vertex_array.transform_polygons`
        in chunks of at most :data:`GEOM_CACHE_MAX_BYTES` of
        coordinates; a cell the stream does not hold whole is streamed
        polygon by polygon through :meth:`Polygon.transformed`.
        """
        return itertools.chain.from_iterable(self._placed_runs(top, layers))

    def _placed_runs(
        self, top: Union[None, str, Cell], layers: Optional[Set[Layer]]
    ) -> Iterator[Iterable[Polygon]]:
        """Per layer in walk order, each run of consecutive instances of
        one cell, placed.  :meth:`iter_flat` chains them rather than
        re-yielding, so a run that is all identity rows (a flat file's
        top) hands over its stored polygons through no Python frame."""
        placed = list(expand(self._resolve_top(top)))
        for layer in layer_order(placed, self._cell_layer_list):
            if layers is not None and layer not in layers:
                continue
            having = [p for p in placed if layer in self._cell_layer_list(p[0])]
            walk = np.concatenate([ranks for _, _, ranks in having])
            walk.sort()
            runs = []  # (first place in the layer's walk, cell, rows, repeated)
            for cell, rows, ranks in having:
                at = np.searchsorted(walk, ranks)  # each instance's place in it
                cuts = (np.flatnonzero(at[1:] - at[:-1] > 1) + 1).tolist()
                for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
                    runs.append((int(at[lo]), cell, rows[lo:hi], len(rows) > 1))
            for _, cell, batch, repeated in sorted(runs, key=lambda run: run[0]):
                yield self._place(cell, layer, batch, repeated)

    def _place(
        self, cell: Cell, layer: Layer, rows: np.ndarray, repeated: bool
    ) -> Iterable[Polygon]:
        """The cell's own polygons on ``layer`` under each of ``rows``."""
        held = self._held_layer(cell, layer, repeated)
        if held is None:
            return self._streamed(cell, layer, rows)
        step = len(rows)  # a single row is one chunk, whatever the cell's size
        if step > 1:
            step = max(1, GEOM_CACHE_MAX_BYTES // max(1, 16 * sum(map(len, held))))
        return itertools.chain.from_iterable(
            transform_polygons(held, rows[start : start + step])
            for start in range(0, len(rows), step)
        )

    def _streamed(
        self, cell: Cell, layer: Layer, rows: np.ndarray
    ) -> Iterator[Polygon]:
        """:meth:`_place` for a cell not held whole: re-read per row."""
        for row, identity in zip(rows.tolist(), identity_rows(rows).tolist()):
            t = Transform(*row)
            for poly in self._iter_cell_layer(cell, layer):
                yield poly if identity else poly.transformed(t)


class MemoryStream(LayoutStream):
    """The cursor interface over an already-materialized source.

    Lets the pipeline and the service run in streaming mode on workload
    libraries without touching the filesystem: the walk is lazy even
    though the geometry is resident.
    """

    def __init__(self, source: Union[Library, Cell]) -> None:
        if isinstance(source, Library):
            self.library = source
            self._top: Optional[Cell] = None
        else:
            self.library = None
            self._top = source

    def top_cell(self) -> Cell:
        if self._top is not None:
            return self._top
        return super().top_cell()

    def _cell_layer_list(self, cell: Cell) -> List[Layer]:
        return list(cell.polygons)

    def _held_layer(self, cell: Cell, layer: Layer, repeated: bool) -> List[Polygon]:
        return cell.polygons.get(layer, [])

    def materialize(self) -> Library:
        if self.library is not None:
            return self.library
        assert self._top is not None
        return Library().add(self._top)


class _FileGeometryCache:
    """One-cell polygon memo shared by the file-backed streams."""

    def __init__(self) -> None:
        self.cell_name: Optional[str] = None
        self.geometry: Optional[Dict[Layer, List[Polygon]]] = None
        self.uncacheable: Set[str] = set()


class FileStream(LayoutStream):
    """Shared machinery of the file-backed streams: the open source,
    layer-order side tables, and the one-cell geometry memo.

    ``source`` is a file path, or the file's content as ``bytes`` (what
    ``loads_*`` hands over — read in place, never through a temp file).
    """

    def __init__(self, source: Union[str, Path, bytes]) -> None:
        self._layer_order: Dict[str, List[Layer]] = {}
        self._geom = _FileGeometryCache()
        self._materialized = False
        if isinstance(source, bytes):
            self.path: Optional[Path] = None
            self._fh = io.BytesIO(source)
        else:
            self.path = Path(source)
            self._fh = open(self.path, "rb")
        try:
            self._scan()
        except BaseException:
            self._fh.close()
            raise

    @classmethod
    def load(cls, source: Union[str, Path, bytes]) -> Library:
        """Read ``source`` to completion: open, materialize, close."""
        with cls(source) as stream:
            return stream.materialize()

    def close(self) -> None:
        self._fh.close()

    def _scan(self) -> None:
        """Pass 1: build the skeleton library and the per-cell spans."""
        raise NotImplementedError

    def _iter_cell_geometry(self, name: str) -> Iterator[Tuple[Layer, Polygon]]:
        """The cell's own geometry in file-stream order."""
        raise NotImplementedError

    def _cell_layer_list(self, cell: Cell) -> List[Layer]:
        if self._materialized:
            return list(cell.polygons)
        return self._layer_order.get(cell.name, [])

    def _held_layer(
        self, cell: Cell, layer: Layer, repeated: bool
    ) -> Optional[List[Polygon]]:
        if self._materialized:
            return cell.polygons.get(layer, [])
        geometry = self._cell_geometry(cell.name, repeated)
        return None if geometry is None else geometry.get(layer, [])

    def _iter_cell_layer(self, cell: Cell, layer: Layer) -> Iterator[Polygon]:
        for found, poly in self._iter_cell_geometry(cell.name):
            if found == layer:
                yield poly

    def _cell_geometry(
        self, name: str, repeated: bool
    ) -> Optional[Dict[Layer, List[Polygon]]]:
        """The memoized geometry of ``name`` (None when it is placed
        once or over the cap)."""
        if self._geom.cell_name == name:
            return self._geom.geometry
        if name in self._geom.uncacheable or not repeated:
            return None
        geometry: Dict[Layer, List[Polygon]] = {}
        size = 0
        for layer, poly in self._iter_cell_geometry(name):
            size += 16 * len(poly)
            if size > GEOM_CACHE_MAX_BYTES:
                self._geom.uncacheable.add(name)
                return None
            geometry.setdefault(layer, []).append(poly)
        self._geom.cell_name = name
        self._geom.geometry = geometry
        return geometry

    def materialize(self) -> Library:
        """Fill the skeleton cells with geometry and return the library.

        Cells keep their stream order, each cell's layers their
        first-encounter order and its polygons their stream order.
        Mutates the skeleton in place (idempotent).
        """
        assert self.library is not None
        if not self._materialized:
            for cell in self.library:
                for layer, poly in self._iter_cell_geometry(cell.name):
                    cell.add_polygon(poly, layer)
            self._materialized = True
        return self.library
