"""The layout cursor protocol: one lazy flattening walk over any source.

:class:`LayoutStream` is what the pipeline reads a layout through.  A
stream exposes a :class:`~repro.layout.library.Library` of cells with
their references and hands out each cell's own polygons on demand;
:meth:`LayoutStream.iter_flat` walks the hierarchy exactly like
:func:`repro.layout.flatten.flatten_cell` and yields the flattened
polygons one at a time, in the identical order and with bit-identical
coordinates, without ever holding more than one cell's geometry.

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
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.layout.library import Library

#: Geometry of the most recently walked cell placed more than once is
#: memoized up to this many coordinate bytes (16 per vertex), so array
#: references expand in O(parse once); a cell placed once, or a larger
#: one, is re-read once per layer, keeping residency bounded.
GEOM_CACHE_MAX_BYTES = 1 << 22


class LayoutStream:
    """Common cursor interface over a layout source.

    Subclasses expose a skeleton :class:`Library` (cells with references
    but, for file-backed streams, no resident polygons) and lazy per-cell
    geometry.  The flattening walk here replicates
    :func:`~repro.layout.flatten.flatten_cell` — same traversal order,
    same transform composition, same cycle detection — so its output is
    float-identical to materializing and flattening.
    """

    library: Optional[Library] = None

    # -- subclass hooks ----------------------------------------------------

    def _cell_layer_list(self, cell: Cell) -> List[Layer]:
        """Layers of ``cell``'s own geometry, in first-encounter order."""
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

    def flat_layer_order(self, top: Union[None, str, Cell] = None) -> List[Layer]:
        """Layers in the order the flatten walk first encounters them.

        This is exactly the key order of
        :func:`~repro.layout.flatten.flatten_cell`'s result dict, which
        downstream code relies on for deterministic polygon ordering.
        """
        cell = self._resolve_top(top)
        memo: Dict[str, Tuple[Layer, ...]] = {}

        def subtree(c: Cell, path: Tuple[str, ...]) -> Tuple[Layer, ...]:
            if c.name in path:
                cycle = " -> ".join(path + (c.name,))
                raise ValueError(f"reference cycle while flattening: {cycle}")
            cached = memo.get(c.name)
            if cached is not None:
                return cached
            local: Dict[Layer, None] = {}
            for layer in self._cell_layer_list(c):
                local.setdefault(layer)
            for ref in c.references:
                for layer in subtree(ref.cell, path + (c.name,)):
                    local.setdefault(layer)
            result = tuple(local)
            memo[c.name] = result
            return result

        return list(subtree(cell, ()))

    def iter_flat(
        self,
        top: Union[None, str, Cell] = None,
        layers: Optional[Set[Layer]] = None,
    ) -> Iterator[Polygon]:
        """Yield the flattened polygons of the hierarchy, lazily.

        Order and coordinates match concatenating the per-layer lists of
        :func:`~repro.layout.flatten.flatten_cell` in dict order — the
        exact sequence the materialized pipeline feeds to fracturing.
        """
        cell = self._resolve_top(top)
        for layer in self.flat_layer_order(cell):
            if layers is not None and layer not in layers:
                continue
            yield from self._walk_layer(cell, Transform.identity(), layer, ())

    def _walk_layer(
        self,
        cell: Cell,
        transform: Transform,
        layer: Layer,
        path: Tuple[str, ...],
    ) -> Iterator[Polygon]:
        if cell.name in path:
            cycle = " -> ".join(path + (cell.name,))
            raise ValueError(f"reference cycle while flattening: {cycle}")
        identity = transform.is_identity()
        if layer in self._cell_layer_list(cell):
            for poly in self._iter_cell_layer(cell, layer):
                yield poly if identity else poly.transformed(transform)
        for ref in cell.references:
            for placement in ref.placements():
                yield from self._walk_layer(
                    ref.cell,
                    transform @ placement,
                    layer,
                    path + (cell.name,),
                )


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

    def _iter_cell_layer(self, cell: Cell, layer: Layer) -> Iterator[Polygon]:
        return iter(cell.polygons.get(layer, ()))

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
        #: Cells placed more than once under the current walk's top —
        #: the only ones worth memoizing.
        self.repeated: Set[str] = set()


def _repeated_cells(top: Cell) -> Set[str]:
    """Names of the cells placed more than once under ``top``, array
    elements and parent placements multiplied out."""
    seen: Set[str] = set()
    repeated: Set[str] = set()

    def visit(cell: Cell, many: bool) -> None:
        if cell.name in repeated:
            return
        if many or cell.name in seen:
            repeated.add(cell.name)
            many = True
        seen.add(cell.name)
        for ref in cell.references:
            visit(ref.cell, many or ref.placement_count() > 1)

    visit(top, False)
    return repeated


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

    def iter_flat(
        self,
        top: Union[None, str, Cell] = None,
        layers: Optional[Set[Layer]] = None,
    ) -> Iterator[Polygon]:
        """:meth:`LayoutStream.iter_flat`, memoizing only the cells
        placed more than once under ``top``."""
        cell = self._resolve_top(top)
        self._geom.repeated = _repeated_cells(cell)
        return super().iter_flat(cell, layers)

    def _iter_cell_layer(self, cell: Cell, layer: Layer) -> Iterator[Polygon]:
        if self._materialized:
            yield from cell.polygons.get(layer, ())
            return
        geometry = self._cell_geometry(cell.name)
        if geometry is not None:
            yield from geometry.get(layer, ())
            return
        for found, poly in self._iter_cell_geometry(cell.name):
            if found == layer:
                yield poly

    def _cell_geometry(self, name: str) -> Optional[Dict[Layer, List[Polygon]]]:
        """The memoized geometry of ``name`` (None when it is placed
        once or over the cap)."""
        if self._geom.cell_name == name:
            return self._geom.geometry
        if name in self._geom.uncacheable or name not in self._geom.repeated:
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
