"""GDSII stream files: the writers and the one reader.

Supports the geometry subset this toolchain needs: BOUNDARY and PATH
elements, SREF/AREF references with full STRANS transforms, and library
units.  Round-trips :class:`~repro.layout.library.Library` objects
losslessly up to database-unit quantization.

* :func:`dumps_gdsii` / :func:`write_gdsii` serialize a resident
  library; :class:`GdsiiStreamWriter` emits the same bytes cell by
  cell, so a synthetic reticle far larger than RAM can be generated
  without materializing it.
* :class:`GdsiiStream` is the reader — a two-pass cursor that scans the
  structure first and re-reads geometry lazily.  :func:`loads_gdsii` /
  :func:`read_gdsii` are that cursor run to completion, so the resident
  and the out-of-core read cannot disagree on any input.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import ring_collapses
from repro.layout.cell import Cell
from repro.layout.cursor import FileStream
from repro.layout.layer import Layer
from repro.layout.library import Library
from repro.layout.reference import CellArray, CellReference
from repro.layout.gdsii_records import (
    DataType,
    GdsiiError,
    RecordType,
    int32_count,
    iter_record_headers,
    pack_ascii,
    pack_bitarray,
    pack_int16,
    pack_int32,
    pack_real8,
    pack_record,
    unpack_ascii,
    unpack_int16,
    unpack_int32,
    unpack_real8,
)

#: Fixed timestamp used in BGNLIB/BGNSTR so output is byte-reproducible.
_TIMESTAMP = [1979, 6, 25, 0, 0, 0, 1979, 6, 25, 0, 0, 0]

#: Maximum XY pairs per BOUNDARY record (GDSII limit is 8191 bytes/record).
_MAX_BOUNDARY_VERTICES = 600


def write_gdsii(library: Library, path: Union[str, Path]) -> int:
    """Write a library as a GDSII stream file.

    Polygons are quantized to the library's database unit.  Polygons with
    more vertices than a single XY record can hold, or with zero area on
    that grid, are rejected (:class:`GdsiiError`).

    Returns:
        The number of bytes written.
    """
    data = dumps_gdsii(library)
    Path(path).write_bytes(data)
    return len(data)


def dumps_gdsii(library: Library) -> bytes:
    """Serialize a library to GDSII stream bytes."""
    library.check_acyclic()
    chunks = [_dump_header(library.name, library.unit, library.precision)]
    scale = 1.0 / library.grid  # user units -> database units
    for cell in library:
        chunks.append(_dump_cell(cell, scale))
    chunks.append(pack_record(RecordType.ENDLIB, DataType.NONE))
    return b"".join(chunks)


def _dump_header(name: str, unit: float, precision: float) -> bytes:
    """The four records that open every library."""
    return b"".join(
        [
            pack_int16(RecordType.HEADER, [600]),
            pack_int16(RecordType.BGNLIB, _TIMESTAMP),
            pack_ascii(RecordType.LIBNAME, name),
            pack_real8(RecordType.UNITS, [precision / unit, precision]),
        ]
    )


def _dump_cell_open(name: str) -> bytes:
    return pack_int16(RecordType.BGNSTR, _TIMESTAMP) + pack_ascii(
        RecordType.STRNAME, name
    )


def _dump_cell(cell: Cell, scale: float) -> bytes:
    chunks: List[bytes] = [_dump_cell_open(cell.name)]
    for layer in sorted(cell.polygons):
        for poly in cell.polygons[layer]:
            chunks.append(_dump_boundary(poly, layer, scale))
    for ref in cell.references:
        chunks.append(_dump_reference(ref, scale))
    chunks.append(pack_record(RecordType.ENDSTR, DataType.NONE))
    return b"".join(chunks)


def _dump_boundary(poly: Polygon, layer: Layer, scale: float) -> bytes:
    verts = poly.vertices
    if len(verts) + 1 > _MAX_BOUNDARY_VERTICES:
        raise GdsiiError(
            f"polygon with {len(verts)} vertices exceeds GDSII record capacity"
        )
    xy: List[int] = []
    for v in verts:
        xy.append(int(round(v.x * scale)))
        xy.append(int(round(v.y * scale)))
    if ring_collapses(xy):
        raise GdsiiError(
            f"polygon with bounding box {poly.bounding_box()} has zero area "
            f"on the database grid ({1.0 / scale:g} user units)"
        )
    # GDSII closes the ring explicitly.
    xy.append(xy[0])
    xy.append(xy[1])
    return b"".join(
        [
            pack_record(RecordType.BOUNDARY, DataType.NONE),
            pack_int16(RecordType.LAYER, [layer.number]),
            pack_int16(RecordType.DATATYPE, [layer.datatype]),
            pack_int32(RecordType.XY, xy),
            pack_record(RecordType.ENDEL, DataType.NONE),
        ]
    )


def _dump_reference(ref: CellReference, scale: float) -> bytes:
    is_array = isinstance(ref, CellArray)
    chunks: List[bytes] = [
        pack_record(
            RecordType.AREF if is_array else RecordType.SREF, DataType.NONE
        ),
        pack_ascii(RecordType.SNAME, ref.cell.name),
    ]
    if ref.x_reflection or ref.magnification != 1.0 or ref.rotation_deg != 0.0:
        chunks.append(
            pack_bitarray(RecordType.STRANS, 0x8000 if ref.x_reflection else 0)
        )
        if ref.magnification != 1.0:
            chunks.append(pack_real8(RecordType.MAG, [ref.magnification]))
        if ref.rotation_deg != 0.0:
            chunks.append(pack_real8(RecordType.ANGLE, [ref.rotation_deg]))
    if is_array:
        chunks.append(pack_int16(RecordType.COLROW, [ref.columns, ref.rows]))
        corners = ref.corner_positions()
        xy: List[int] = []
        for corner in corners:
            xy.append(int(round(corner.x * scale)))
            xy.append(int(round(corner.y * scale)))
        chunks.append(pack_int32(RecordType.XY, xy))
    else:
        chunks.append(
            pack_int32(
                RecordType.XY,
                [int(round(ref.origin.x * scale)), int(round(ref.origin.y * scale))],
            )
        )
    chunks.append(pack_record(RecordType.ENDEL, DataType.NONE))
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Incremental GDSII writer
# ---------------------------------------------------------------------------


class GdsiiStreamWriter:
    """Write a GDSII stream file cell by cell, in bounded memory.

    The emitted bytes are identical to :func:`dumps_gdsii` of a library
    holding the same cells in the same order — the header, per-cell and
    trailer records come from the same serializers.  The one thing an
    incremental writer cannot do is check the full hierarchy for cycles
    up front; callers stream cells they know to be acyclic.

    Cells can be written whole (:meth:`write_cell`) or opened with
    :meth:`begin_cell` and filled incrementally — the caller is then
    responsible for the canonical order (polygons sorted by layer, then
    references) if byte identity with the materialized writer matters.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str = "LIB",
        unit: float = 1e-6,
        precision: float = 1e-9,
    ) -> None:
        if unit <= 0 or precision <= 0:
            raise ValueError("unit and precision must be positive")
        if precision > unit:
            raise ValueError("precision must not exceed unit")
        self.path = Path(path)
        self.name = name
        self.unit = unit
        self.precision = precision
        self._scale = 1.0 / (precision / unit)  # user units -> db units
        self._fh = open(self.path, "wb")
        self.bytes_written = 0
        self._in_cell = False
        self._closed = False
        self._write(_dump_header(name, unit, precision))

    def _write(self, data: bytes) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        self._fh.write(data)
        self.bytes_written += len(data)

    def write_cell(self, cell: Cell) -> None:
        """Emit one whole cell (canonical record order, like dumps)."""
        if self._in_cell:
            raise ValueError("finish the open cell before writing another")
        self._write(_dump_cell(cell, self._scale))

    def begin_cell(self, name: str) -> None:
        """Open a structure for incremental geometry/reference writes."""
        if self._in_cell:
            raise ValueError("finish the open cell before beginning another")
        self._write(_dump_cell_open(name))
        self._in_cell = True

    def write_polygon(self, polygon: Polygon, layer: Layer) -> None:
        """Emit one BOUNDARY into the open structure."""
        if not self._in_cell:
            raise ValueError("no open cell to write a polygon into")
        self._write(_dump_boundary(polygon, Layer.of(layer), self._scale))

    def write_reference(self, reference) -> None:
        """Emit one SREF/AREF into the open structure."""
        if not self._in_cell:
            raise ValueError("no open cell to write a reference into")
        self._write(_dump_reference(reference, self._scale))

    def end_cell(self) -> None:
        """Close the structure opened by :meth:`begin_cell`."""
        if not self._in_cell:
            raise ValueError("no open cell to end")
        self._write(pack_record(RecordType.ENDSTR, DataType.NONE))
        self._in_cell = False

    def close(self) -> int:
        """Write ENDLIB, close the file; returns total bytes written."""
        if self._closed:
            return self.bytes_written
        if self._in_cell:
            self.end_cell()
        self._write(pack_record(RecordType.ENDLIB, DataType.NONE))
        self._closed = True
        self._fh.close()
        return self.bytes_written

    def __enter__(self) -> "GdsiiStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def read_gdsii(path: Union[str, Path]) -> Library:
    """Read a GDSII stream file into a :class:`Library`."""
    return GdsiiStream.load(Path(path))


def loads_gdsii(data: bytes) -> Library:
    """Parse GDSII stream bytes into a :class:`Library`.

    Raises:
        GdsiiError: on structural violations (missing UNITS, dangling
            references, truncated records, elements outside structures).
    """
    return GdsiiStream.load(bytes(data))


_GEOMETRY_KINDS = (RecordType.BOUNDARY, RecordType.PATH)
_REFERENCE_KINDS = (RecordType.SREF, RecordType.AREF)
#: Elements that must sit inside a structure the moment they open.
_PLACED_KINDS = _GEOMETRY_KINDS + _REFERENCE_KINDS
_ELEMENT_KINDS = _PLACED_KINDS + (RecordType.TEXT,)

#: Records that organize the library around its elements.
_LIBRARY_RECORDS = (
    RecordType.HEADER,
    RecordType.LIBNAME,
    RecordType.UNITS,
    RecordType.ENDLIB,
    RecordType.BGNSTR,
    RecordType.STRNAME,
    RecordType.ENDSTR,
)

#: The records that describe an element: record type → (field, payload
#: decoder, whether the field is the record's first value).  Any other
#: record inside an element (TEXT's strings, properties, …) is skipped.
_ELEMENT_FIELDS = {
    RecordType.LAYER: ("layer", unpack_int16, True),
    RecordType.DATATYPE: ("datatype", unpack_int16, True),
    RecordType.WIDTH: ("width", unpack_int32, True),
    RecordType.XY: ("xy", unpack_int32, False),
    RecordType.SNAME: ("sname", unpack_ascii, False),
    RecordType.STRANS: ("strans", lambda data: int.from_bytes(data, "big"), False),
    RecordType.MAG: ("mag", unpack_real8, True),
    RecordType.ANGLE: ("angle", unpack_real8, True),
    RecordType.COLROW: ("colrow", unpack_int16, False),
}


class GdsiiStream(FileStream):
    """Cursor-based GDSII reader — the only GDSII parser.

    Pass 1 (the constructor) walks the file once, reading only the
    small structural records (cell names, references, units) and
    seeking past every geometry ``XY`` payload; what it keeps is a
    skeleton :class:`Library` plus, per cell, the byte spans holding its
    elements and the first-encounter order of its geometry layers.
    Geometry is re-read from the spans on demand, through the same
    record → element routine (:meth:`_iter_events`) and the same
    BOUNDARY/PATH rule (:func:`_build_shape`) pass 1 checked it with.

    A cell's span opens at the ``STRNAME`` that names it and closes at
    the next ``BGNSTR``/``STRNAME``/``ENDSTR``/``ENDLIB`` or the end of
    the file, so a structure missing its ``BGNSTR`` or ``ENDSTR`` still
    owns its geometry; an element cut short by one of those records is
    an error, never a silently dropped polygon.
    """

    def __init__(self, source: Union[str, Path, bytes]) -> None:
        self._spans: Dict[str, List[Tuple[int, int]]] = {}
        super().__init__(source)

    def _payload(self, length: int) -> bytes:
        return self._fh.read(length - 4)

    def _iter_events(
        self, start: int = 0, end: Optional[int] = None, geometry: bool = True
    ) -> Iterator[Tuple[int, int, int, Optional[dict]]]:
        """Fold the records of ``[start, end)`` into elements.

        Yields ``(offset, length, record_type, element)`` for every
        record that is not an element's field: ``element`` is the
        finished field dict on the ``ENDEL`` that closes one and
        ``None`` otherwise (after such a yield the caller may read the
        record's payload).  With ``geometry`` off, the ``XY`` payload
        of a BOUNDARY/PATH is sized and seeked past instead of read.
        """
        element: Optional[dict] = None
        for offset, length, record_type, _ in iter_record_headers(
            self._fh, self._size, start, end
        ):
            finished = None
            if record_type in _ELEMENT_KINDS:
                element = {"kind": record_type}
            elif element is not None:
                if record_type == RecordType.ENDEL:
                    finished, element = element, None
                elif record_type in _LIBRARY_RECORDS:
                    raise GdsiiError(
                        f"{RecordType.NAMES[record_type]} inside an unfinished "
                        f"{RecordType.NAMES[element['kind']]} element"
                    )
                else:
                    self._read_field(element, record_type, length, geometry)
                    continue
            yield offset, length, record_type, finished

    def _read_field(
        self, element: dict, record_type: int, length: int, geometry: bool
    ) -> None:
        spec = _ELEMENT_FIELDS.get(record_type)
        if spec is None:
            return
        field, decode, first = spec
        if field == "xy" and element["kind"] in _GEOMETRY_KINDS:
            element["xy_count"] = int32_count(length - 4)
            if geometry:
                # Decoded as one array by _build_shape.
                element["xy"] = self._payload(length)
            return
        value = decode(self._payload(length))
        if first:
            if not value:
                raise GdsiiError(
                    f"{RecordType.NAMES[record_type]} record holds no value"
                )
            value = value[0]
        element[field] = value

    # -- pass 1: skeleton --------------------------------------------------

    def _scan(self) -> None:
        self._size = self._fh.seek(0, os.SEEK_END)
        library: Optional[Library] = None
        lib_name = "LIB"
        cells: Dict[str, Cell] = {}
        pending_refs: List[Tuple[Cell, dict]] = []
        saw_header = False
        current_cell: Optional[Cell] = None
        span_start = scan_end = 0

        def close_span(end: int) -> None:
            nonlocal current_cell
            if current_cell is not None:
                self._spans.setdefault(current_cell.name, []).append(
                    (span_start, end)
                )
            current_cell = None

        for offset, length, record_type, element in self._iter_events(
            geometry=False
        ):
            scan_end = offset + length
            if element is not None:
                if library is None:
                    raise GdsiiError("element before UNITS record")
                if current_cell is None:
                    raise GdsiiError("ENDEL outside a structure")
                if element["kind"] in _REFERENCE_KINDS:
                    if "sname" not in element or "xy" not in element:
                        raise GdsiiError("reference without SNAME or XY")
                    pending_refs.append((current_cell, element))
                elif element["kind"] in _GEOMETRY_KINDS:
                    shape = _build_shape(element, library.grid)
                    if shape is not None:
                        order = self._layer_order.setdefault(current_cell.name, [])
                        if shape[0] not in order:
                            order.append(shape[0])
                # TEXT: silently skipped.
            elif record_type in _PLACED_KINDS:
                if current_cell is None:
                    raise GdsiiError(
                        f"{RecordType.NAMES[record_type]} outside a structure"
                    )
            elif record_type == RecordType.HEADER:
                saw_header = True
            elif record_type == RecordType.LIBNAME:
                lib_name = unpack_ascii(self._payload(length))
            elif record_type == RecordType.UNITS:
                values = unpack_real8(self._payload(length))
                if len(values) != 2:
                    raise GdsiiError("UNITS record must hold two reals")
                db_in_user, db_in_meters = values
                if db_in_user <= 0:
                    raise GdsiiError("UNITS record must hold positive reals")
                unit = db_in_meters / db_in_user
                library = Library(lib_name, unit=unit, precision=db_in_meters)
            elif record_type in (RecordType.BGNSTR, RecordType.ENDSTR):
                close_span(offset)
            elif record_type == RecordType.STRNAME:
                close_span(offset)
                name = unpack_ascii(self._payload(length))
                current_cell = cells.setdefault(name, Cell(name))
                span_start = scan_end
            elif record_type == RecordType.ENDLIB:
                break
        # A structure left open (no ENDSTR before ENDLIB/EOF) keeps the
        # elements read so far.
        close_span(scan_end)

        if not saw_header:
            raise GdsiiError("missing HEADER record")
        if library is None:
            raise GdsiiError("missing UNITS record")

        for parent, ref_spec in pending_refs:
            target = cells.get(ref_spec["sname"])
            if target is None:
                raise GdsiiError(f"reference to undefined cell {ref_spec['sname']!r}")
            parent.add_reference(_build_reference(target, ref_spec, library.grid))

        # Register cells one by one so the library preserves stream order
        # (a batched add pushes through a LIFO work list and would reverse
        # it, making write→read→write oscillate instead of round-tripping).
        for cell in cells.values():
            library.add(cell, include_descendants=False)
        self.library = library

    # -- pass 2+: lazy geometry --------------------------------------------

    def _iter_cell_geometry(self, name: str) -> Iterator[Tuple[Layer, Polygon]]:
        assert self.library is not None
        grid = self.library.grid
        for start, end in self._spans.get(name, ()):
            for *_, element in self._iter_events(start, end):
                if element is not None and element["kind"] in _GEOMETRY_KINDS:
                    shape = _build_shape(element, grid)
                    if shape is not None:
                        yield shape


def _build_shape(
    element: dict, grid: float
) -> Optional[Tuple[Layer, Optional[Polygon]]]:
    """The BOUNDARY/PATH rule, shared by both passes.

    Returns the element's layer and polygon, or ``None`` for an element
    that prints nothing (a zero-width PATH).  The polygon is ``None``
    when the ``XY`` payload was not read (pass 1 checks its size only).
    """
    boundary = element["kind"] == RecordType.BOUNDARY
    count = element.get("xy_count", 0)
    if boundary:
        if count < 8 or count % 2:
            raise GdsiiError("BOUNDARY without a valid XY record")
    else:
        if count < 4 or count % 2:
            raise GdsiiError("PATH without a valid XY record")
        width = element.get("width", 0) * grid
        if width <= 0:
            # Zero-width paths carry no printable geometry.
            return None
    layer = Layer(element.get("layer", 0), element.get("datatype", 0))
    xy = element.get("xy")
    if xy is None:
        return layer, None
    # Each int32 times the grid: the one IEEE multiply ``xy[i] * grid``
    # is, for every coordinate at once.
    ring = np.frombuffer(xy, ">i4").reshape(-1, 2) * grid
    if boundary:
        # GDSII closes the ring explicitly: drop the repeat, and only a
        # repeat; from_array then applies the constructor's own rule.
        if (ring[0] == ring[-1]).all():
            ring = ring[:-1]
        return layer, Polygon.from_array(ring)
    return layer, Polygon.from_path(ring.tolist(), width)


def _build_reference(target: Cell, spec: dict, grid: float) -> CellReference:
    xy = spec["xy"]
    if len(xy) < 2:
        raise GdsiiError("reference XY record holds no point")
    x_reflection = bool(spec.get("strans", 0) & 0x8000)
    mag = spec.get("mag", 1.0)
    angle = spec.get("angle", 0.0)
    origin = (xy[0] * grid, xy[1] * grid)
    if spec["kind"] == RecordType.SREF:
        return CellReference(
            target, origin, rotation_deg=angle, magnification=mag,
            x_reflection=x_reflection,
        )
    colrow = spec.get("colrow")
    if not colrow or len(colrow) != 2 or len(xy) != 6:
        raise GdsiiError("AREF needs COLROW and three XY corners")
    columns, rows = colrow
    if columns < 1 or rows < 1:
        raise GdsiiError(f"AREF COLROW must be at least 1 x 1, got {columns} x {rows}")
    col_end = Point(xy[2] * grid, xy[3] * grid)
    row_end = Point(xy[4] * grid, xy[5] * grid)
    origin_pt = Point(*origin)
    column_vector = (col_end - origin_pt) / columns
    row_vector = (row_end - origin_pt) / rows
    return CellArray(
        target,
        columns,
        rows,
        column_vector=column_vector,
        row_vector=row_vector,
        origin=origin,
        rotation_deg=angle,
        magnification=mag,
        x_reflection=x_reflection,
    )
