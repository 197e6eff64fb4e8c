"""Caltech Intermediate Form (CIF 2.0): the writer and the one reader.

CIF was *the* interchange format of late-1970s university/industry mask
flows (Mead–Conway era), so the data-volume experiment (T3) compares GDSII
binary streams against CIF text.  Supported commands:

======== =====================================================
``DS/DF`` symbol definition (cells)
``9``     symbol name extension (common convention)
``L``     layer selection (written as ``L<layer>D<datatype>``)
``B``     axis-aligned box
``P``     polygon
``C``     symbol call with ``T`` (translate), ``R`` (rotate by
          direction vector) and ``M X`` / ``M Y`` (mirror)
``E``     end marker
======== =====================================================

Coordinates are written in centimicrons (10 nm), the CIF convention.
Files are UTF-8: ``;``, ``(`` and ``)`` never occur inside a multi-byte
sequence, so statements are split on bytes and decoded one at a time.

:class:`CifStream` is the reader — a two-pass cursor that interprets
the statements once for structure and re-reads geometry lazily;
:func:`loads_cif` / :func:`read_cif` are that cursor run to completion.
"""

from __future__ import annotations

import math
import os
import re
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.geometry.polygon import Polygon
from repro.geometry.predicates import ring_collapses
from repro.layout.cell import Cell
from repro.layout.cursor import FileStream
from repro.layout.layer import Layer
from repro.layout.library import Library
from repro.layout.reference import CellArray, CellReference

#: CIF base unit: one centimicron, in micrometres.
CENTIMICRON = 0.01


class CifError(ValueError):
    """Raised for malformed CIF text or unrepresentable layouts."""


def write_cif(library: Library, path: Union[str, Path]) -> int:
    """Write a library as CIF text; returns the number of bytes written."""
    data = dumps_cif(library).encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)


def dumps_cif(library: Library) -> str:
    """Serialize a library to CIF text.

    Raises:
        CifError: for references with non-unit magnification (CIF cannot
            represent scaling in calls) and for polygons with zero area
            on the centimicron grid.
    """
    library.check_acyclic()
    numbering: Dict[str, int] = {
        cell.name: index + 1 for index, cell in enumerate(library)
    }
    lines: List[str] = [f"( CIF written by repro-ebl: library {library.name} );"]
    for cell in library:
        lines.append(f"DS {numbering[cell.name]} 1 1;")
        lines.append(f"9 {cell.name};")
        for layer in sorted(cell.polygons):
            lines.append(f"L L{layer.number}D{layer.datatype};")
            for poly in cell.polygons[layer]:
                lines.append(_dump_polygon(poly))
        for ref in cell.references:
            lines.extend(_dump_call(ref, numbering))
        lines.append("DF;")
    tops = library.top_cells()
    for top in tops:
        lines.append(f"C {numbering[top.name]};")
    lines.append("E")
    return "\n".join(lines) + "\n"


def _to_cu(value: float) -> int:
    return int(round(value / CENTIMICRON))


def _dump_polygon(poly: Polygon) -> str:
    xy = [_to_cu(c) for c in poly.ring.ravel().tolist()]
    if ring_collapses(xy):
        raise CifError(
            f"polygon with bounding box {poly.bounding_box()} has zero area "
            "on the centimicron grid"
        )
    return f"P {' '.join(map(str, xy))};"


def _dump_call(ref: CellReference, numbering: Dict[str, int]) -> List[str]:
    if ref.magnification != 1.0:
        raise CifError("CIF calls cannot carry magnification")
    if ref.cell.name not in numbering:
        raise CifError(f"reference to cell outside library: {ref.cell.name!r}")
    symbol = numbering[ref.cell.name]
    ops = _transform_ops(ref)
    lines = []
    if isinstance(ref, CellArray):
        # CIF has no array construct: expand to individual calls.
        for row in range(ref.rows):
            for col in range(ref.columns):
                offset = ref.column_vector * col + ref.row_vector * row
                shifted = (
                    ops
                    + f" T {_to_cu(ref.origin.x + offset.x)}"
                    + f" {_to_cu(ref.origin.y + offset.y)}"
                )
                lines.append(f"C {symbol}{shifted};")
    else:
        shifted = ops + f" T {_to_cu(ref.origin.x)} {_to_cu(ref.origin.y)}"
        lines.append(f"C {symbol}{shifted};")
    return lines


def _transform_ops(ref: CellReference) -> str:
    ops = ""
    if ref.x_reflection:
        ops += " M Y"  # CIF 'M Y' negates y, matching GDSII x_reflection.
    if ref.rotation_deg:
        angle = math.radians(ref.rotation_deg)
        a = int(round(math.cos(angle) * 10000))
        b = int(round(math.sin(angle) * 10000))
        ops += f" R {a} {b}"
    return ops


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_LAYER_RE = re.compile(r"^L(\d+)(?:D(\d+))?$")


def _parse_layer_token(token: str) -> Layer:
    """Fold an ``L`` command's token into a :class:`Layer`.

    Tokens in the writer's ``L<layer>D<datatype>`` convention map exactly;
    any other name is folded into the 0–255 layer space by its CRC-32,
    so a named layer gets the same number in every process (pool
    workers, ``work`` daemons and warm re-runs included).
    """
    match = _LAYER_RE.match(token)
    if match:
        return Layer(int(match.group(1)), int(match.group(2) or 0))
    return Layer(zlib.crc32(token.encode("utf-8")) % 256, 0, name=token)


def read_cif(path: Union[str, Path]) -> Library:
    """Read a CIF file (UTF-8) into a :class:`Library`."""
    return CifStream.load(Path(path))


def loads_cif(text: str) -> Library:
    """Parse CIF text into a :class:`Library`.

    Top-level geometry (outside any ``DS``) is placed in a cell named
    ``TOP`` if present.
    """
    return CifStream.load(text.encode("utf-8"))


#: Byte span of statements plus the layer selected when it begins (the
#: CIF layer state persists across symbol boundaries, so a lazy re-scan
#: must restore it).
_CifSpan = Tuple[int, int, Layer]

_CIF_CHUNK = 1 << 16


class CifStream(FileStream):
    """Cursor-based CIF reader — the only CIF parser.

    Pass 1 (the constructor) interprets every statement up to ``E`` and
    records, per symbol, the byte span of its ``DS``…``DF`` block and
    the layer in effect when the block begins (CIF layer state is
    global, not per-symbol); geometry statements are only counted,
    never parsed.  Geometry is re-read from the spans on demand.
    """

    def __init__(self, source: Union[str, Path, bytes]) -> None:
        self._cell_spans: Dict[str, List[_CifSpan]] = {}
        super().__init__(source)

    # -- statement cursor --------------------------------------------------

    def _iter_statements(
        self, start: int = 0, end: Optional[int] = None
    ) -> Iterator[Tuple[int, str]]:
        """Yield ``(offset, stripped_statement)`` pairs.

        Comments ``( … )`` are replaced by one space, so a ``;``
        inside a comment never splits a statement; a comment still open
        at the end of the file is an error.  Statements are decoded as
        UTF-8 one at a time.  ``start`` must be a statement boundary
        previously yielded by this cursor.
        """
        fh = self._fh
        fh.seek(start)
        offset = start
        statement_start = start
        parts: List[bytes] = []
        comment_start: Optional[int] = None

        def decode() -> str:
            try:
                return b"".join(parts).decode("utf-8").strip()
            except UnicodeDecodeError:
                raise CifError(
                    f"statement at byte {statement_start} is not valid UTF-8"
                ) from None

        remaining = None if end is None else end - start
        while remaining is None or remaining > 0:
            size = _CIF_CHUNK if remaining is None else min(_CIF_CHUNK, remaining)
            chunk = fh.read(size)
            if not chunk:
                break
            if remaining is not None:
                remaining -= len(chunk)
            cursor = 0
            while cursor < len(chunk):
                if comment_start is not None:
                    close = chunk.find(b")", cursor)
                    if close < 0:
                        break
                    comment_start = None
                    cursor = close + 1
                    continue
                stop = len(chunk)
                semi = chunk.find(b";", cursor)
                paren = chunk.find(b"(", cursor)
                if semi >= 0:
                    stop = min(stop, semi)
                if paren >= 0:
                    stop = min(stop, paren)
                if stop > cursor:
                    parts.append(chunk[cursor:stop])
                if stop == semi and semi >= 0:
                    yield statement_start, decode()
                    parts = []
                    statement_start = offset + semi + 1
                    cursor = semi + 1
                elif stop == paren and paren >= 0:
                    parts.append(b" ")
                    comment_start = offset + paren
                    cursor = paren + 1
                else:
                    cursor = stop
            offset += len(chunk)
        if comment_start is not None:
            raise CifError(f"unterminated comment opened at byte {comment_start}")
        tail = decode()
        if tail:
            yield statement_start, tail

    # -- pass 1: skeleton --------------------------------------------------

    def _scan(self) -> None:
        library = Library("CIF", unit=1e-6, precision=1e-8)
        cells: Dict[int, Cell] = {}
        names: Dict[int, str] = {}
        deferred_calls: List[Tuple[Optional[int], int, List[str]]] = []
        symbol_spans: Dict[int, List[_CifSpan]] = {}
        top_spans: List[_CifSpan] = []
        layer_orders: Dict[Optional[int], List[Layer]] = {}

        current: Optional[Cell] = None
        current_number: Optional[int] = None
        layer = Layer(0, 0)

        span_start = 0
        span_layer = layer

        def close_span(end_offset: int) -> None:
            nonlocal span_start, span_layer
            span = (span_start, end_offset, span_layer)
            if span_start < end_offset:
                if current_number is None:
                    top_spans.append(span)
                else:
                    symbol_spans.setdefault(current_number, []).append(span)
            span_start = end_offset
            span_layer = layer

        for offset, statement in self._iter_statements():
            if not statement:
                continue
            if statement == "E" or statement.startswith("E "):
                close_span(offset)
                break
            command = statement[0]
            if command == "D":
                parts = statement.split()
                if parts[0] == "DS":
                    if len(parts) < 2:
                        raise CifError(f"malformed DS: {statement!r}")
                    close_span(offset)
                    current_number = int(parts[1])
                    current = cells.setdefault(
                        current_number, Cell(f"SYMBOL_{current_number}")
                    )
                elif parts[0] == "DF":
                    # The DF statement itself carries no geometry; close
                    # the symbol span at its start.
                    close_span(offset)
                    current = None
                    current_number = None
                elif parts[0] == "DD":
                    continue
                else:
                    raise CifError(f"unknown D command: {statement!r}")
            elif command == "9":
                name = statement[1:].strip()
                if current_number is not None and name:
                    names[current_number] = name
            elif command == "L":
                layer = _parse_layer_token(statement[1:].strip())
            elif command in ("B", "P"):
                order = layer_orders.setdefault(current_number, [])
                if layer not in order:
                    order.append(layer)
            elif command == "C":
                callee, ops = _parse_call(statement)
                deferred_calls.append((current_number, callee, ops))
            else:
                # Unknown user extensions are ignored per the CIF spec.
                continue
        else:
            # No E marker: the file simply ends.
            close_span(self._fh.seek(0, os.SEEK_END))

        for number, name in names.items():
            if number in cells:
                cells[number].name = name

        top_cell = Cell("TOP")
        for owner_number, callee, ops in deferred_calls:
            child = cells.get(callee)
            if child is None:
                raise CifError(f"call to undefined symbol {callee}")
            parent = top_cell if owner_number is None else cells[owner_number]
            parent.add_reference(_reference_from_ops(child, ops))

        for cell in cells.values():
            library.add(cell, include_descendants=False)
        top_geometry = None in layer_orders
        top_used = top_geometry or bool(top_cell.references)
        if top_used and not _is_redundant_wrapper(top_cell, top_geometry):
            if top_cell.name in library:
                top_cell.name = "CIF_TOP"
            library.add(top_cell, include_descendants=False)
        else:
            top_spans = []

        # Re-key spans and layer order (collected by symbol number while
        # scanning — names are only applied at the end) by cell name.
        for number, spans in symbol_spans.items():
            self._cell_spans[cells[number].name] = spans
        if top_spans:
            self._cell_spans[top_cell.name] = top_spans
        for owner, order in layer_orders.items():
            owner_cell = top_cell if owner is None else cells[owner]
            self._layer_order[owner_cell.name] = order
        self.library = library

    # -- pass 2+: lazy geometry --------------------------------------------

    def _iter_cell_geometry(self, name: str) -> Iterator[Tuple[Layer, Polygon]]:
        for start, end, entry_layer in self._cell_spans.get(name, ()):
            layer = entry_layer
            for _, statement in self._iter_statements(start, end):
                if not statement:
                    continue
                command = statement[0]
                if command == "L":
                    layer = _parse_layer_token(statement[1:].strip())
                elif command == "B":
                    yield layer, _parse_box(statement)
                elif command == "P":
                    yield layer, _parse_polygon(statement)
                # DS/DF/9/C and extensions carry no geometry.


def _is_redundant_wrapper(top_cell: Cell, has_geometry: bool) -> bool:
    """True when top-level content is just one untransformed symbol call
    (``has_geometry``: the file holds top-level ``B``/``P`` statements).

    The writer emits ``C <top>;`` to mark the top symbol; reading that back
    as a wrapper cell would change the hierarchy on every round trip.
    """
    if has_geometry or len(top_cell.references) != 1:
        return False
    ref = top_cell.references[0]
    return (
        ref.origin.x == 0.0
        and ref.origin.y == 0.0
        and ref.rotation_deg % 360.0 == 0.0
        and not ref.x_reflection
    )


def _parse_box(statement: str) -> Polygon:
    parts = statement.split()
    if len(parts) < 5:
        raise CifError(f"malformed B: {statement!r}")
    width = int(parts[1]) * CENTIMICRON
    height = int(parts[2]) * CENTIMICRON
    cx = int(parts[3]) * CENTIMICRON
    cy = int(parts[4]) * CENTIMICRON
    poly = Polygon.rectangle(
        cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2
    )
    if len(parts) >= 7:
        a, b = int(parts[5]), int(parts[6])
        angle = math.atan2(b, a)
        poly = poly.rotated(angle, about=(cx, cy))
    return poly


def _parse_polygon(statement: str) -> Polygon:
    values = [int(v) for v in statement[1:].split()]
    if len(values) < 6 or len(values) % 2:
        raise CifError(f"malformed P: {statement!r}")
    pts = [
        (values[i] * CENTIMICRON, values[i + 1] * CENTIMICRON)
        for i in range(0, len(values), 2)
    ]
    return Polygon(pts)


def _parse_call(statement: str) -> Tuple[int, List[str]]:
    tokens = statement[1:].split()
    if not tokens:
        raise CifError(f"malformed C: {statement!r}")
    callee = int(tokens[0])
    return callee, tokens[1:]


def _reference_from_ops(child: Cell, ops: List[str]) -> CellReference:
    """Fold a CIF transformation list into GDSII-style parameters.

    CIF applies operators left to right; this library's references apply
    mirror, then rotation, then translation.  The fold tracks the composite
    as (mirror, angle, translation) which is exact for the operator set the
    writer emits.
    """
    mirrored = False
    angle = 0.0
    tx = 0.0
    ty = 0.0
    index = 0
    while index < len(ops):
        op = ops[index]
        if op not in ("T", "R", "M"):
            raise CifError(f"unknown call operator {op!r}")
        need = 1 if op == "M" else 2
        operands = ops[index + 1 : index + 1 + need]
        if len(operands) < need:
            raise CifError(
                f"call operator {op!r} needs {need} operand(s) in {' '.join(ops)!r}"
            )
        index += 1 + need
        if op == "T":
            tx += int(operands[0]) * CENTIMICRON
            ty += int(operands[1]) * CENTIMICRON
        elif op == "R":
            a, b = int(operands[0]), int(operands[1])
            delta = math.degrees(math.atan2(b, a))
            angle += delta
            rad = math.radians(delta)
            cos_d, sin_d = math.cos(rad), math.sin(rad)
            tx, ty = tx * cos_d - ty * sin_d, tx * sin_d + ty * cos_d
        elif operands[0] == "Y":
            mirrored = not mirrored
            angle = -angle
            ty = -ty
        elif operands[0] == "X":
            mirrored = not mirrored
            angle = 180.0 - angle
            tx = -tx
        else:
            raise CifError(f"unknown mirror axis {operands[0]!r}")
    return CellReference(
        child, (tx, ty), rotation_deg=angle % 360.0, x_reflection=mirrored
    )
