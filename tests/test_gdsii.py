"""Tests for the GDSII stream reader/writer, including failure injection."""

import io
import math
import struct

import pytest
from hypothesis import given, settings

import layout_strategies
from layout_doors import mutants, read_through_all_doors, rejected, small_hierarchy
from layout_strategies import flat_perimeter
from repro.geometry.polygon import Polygon
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.gdsii import (
    GdsiiStreamWriter,
    dumps_gdsii,
    loads_gdsii,
    read_gdsii,
    write_gdsii,
)
from repro.layout.gdsii_records import (
    DataType,
    GdsiiError,
    RecordType,
    decode_real8,
    encode_real8,
    iter_record_headers,
    pack_ascii,
    pack_int16,
    pack_int32,
    pack_real8,
    pack_record,
)
from repro.layout.library import Library
from repro.layout.reference import CellArray
from repro.layout.stream import open_layout_stream
from repro.layout import generators


def flat_area(cell):
    flat = flatten_cell(cell)
    return sum(p.area() for v in flat.values() for p in v)


def flat_vertices(cell):
    flat = flatten_cell(cell)
    return sorted(
        (round(v.x, 6), round(v.y, 6))
        for polys in flat.values()
        for p in polys
        for v in p.vertices
    )


class TestReal8:
    @pytest.mark.parametrize(
        "value",
        [0.0, 1.0, -1.0, 1e-9, 1e-6, 0.001, 3.14159265, 12345.678, -2.5e-4],
    )
    def test_roundtrip(self, value):
        assert decode_real8(encode_real8(value)) == pytest.approx(value, rel=1e-14)

    def test_zero_encoding(self):
        assert encode_real8(0.0) == b"\x00" * 8

    def test_sign_bit(self):
        assert encode_real8(-1.0)[0] & 0x80

    def test_decode_validates_length(self):
        with pytest.raises(GdsiiError):
            decode_real8(b"\x00" * 4)


class TestRecords:
    def test_pack_and_iter(self):
        data = pack_int16(RecordType.HEADER, [600]) + pack_record(
            RecordType.ENDLIB, DataType.NONE
        )
        records = list(iter_record_headers(io.BytesIO(data), len(data)))
        assert records[0][2] == RecordType.HEADER
        assert records[1][2] == RecordType.ENDLIB

    def test_odd_payload_rejected(self):
        with pytest.raises(GdsiiError):
            pack_record(RecordType.LIBNAME, DataType.ASCII, b"abc")

    def test_ascii_pads_to_even(self):
        record = pack_ascii(RecordType.LIBNAME, "abc")
        assert len(record) % 2 == 0

    def test_truncated_header_raises(self):
        with pytest.raises(GdsiiError, match="truncated"):
            list(iter_record_headers(io.BytesIO(b"\x00\x08\x00"), 3))

    def test_truncated_payload_raises(self):
        bad = struct.pack(">HBB", 100, 0x02, 6) + b"xy"
        with pytest.raises(GdsiiError, match="truncated"):
            list(iter_record_headers(io.BytesIO(bad), len(bad)))

    def test_zero_padding_tail_tolerated(self):
        data = pack_int16(RecordType.HEADER, [600]) + b"\x00\x00\x00\x00"
        assert len(list(iter_record_headers(io.BytesIO(data), len(data)))) == 1


class TestRoundTrip:
    def test_simple_polygon(self):
        lib = Library("T")
        cell = Cell("TOP")
        lib.add(cell)
        cell.add_polygon(Polygon([(0, 0), (10, 0), (5, 8)]), layer=(3, 1))
        lib2 = loads_gdsii(dumps_gdsii(lib))
        assert lib2.name == "T"
        cell2 = lib2["TOP"]
        assert cell2.layers()[0].key() == (3, 1)
        assert flat_area(cell2) == pytest.approx(40.0, abs=1e-6)

    def test_units_roundtrip(self):
        lib = Library("U", unit=1e-6, precision=1e-9)
        lib.add(Cell("TOP").add_rectangle(0, 0, 1, 1))
        lib2 = loads_gdsii(dumps_gdsii(lib))
        assert lib2.unit == pytest.approx(1e-6)
        assert lib2.precision == pytest.approx(1e-9)

    def test_sref_with_transform(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 2, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (5, 5), rotation_deg=90, x_reflection=True)
        lib2 = loads_gdsii(dumps_gdsii(lib))
        assert flat_vertices(lib2.top_cell()) == flat_vertices(top)

    def test_sref_with_magnification(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 2, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (0, 0), magnification=3.0)
        lib2 = loads_gdsii(dumps_gdsii(lib))
        assert flat_area(lib2.top_cell()) == pytest.approx(18.0, abs=1e-6)

    def test_aref_roundtrip(self):
        lib = generators.memory_array()
        lib2 = loads_gdsii(dumps_gdsii(lib))
        assert flat_area(lib2.top_cell()) == pytest.approx(
            flat_area(lib.top_cell()), rel=1e-9
        )
        top2 = lib2.top_cell()
        assert isinstance(top2.references[0], CellArray)

    def test_file_roundtrip(self, tmp_path):
        lib = generators.contact_array(columns=4, rows=4, hierarchical=True)
        path = tmp_path / "test.gds"
        n = write_gdsii(lib, path)
        assert path.stat().st_size == n
        lib2 = read_gdsii(path)
        assert flat_area(lib2.top_cell()) == pytest.approx(16.0, abs=1e-6)

    def test_coordinates_snap_to_precision(self):
        lib = Library("T", unit=1e-6, precision=1e-9)
        lib.add(Cell("TOP").add_rectangle(0, 0, 1.0000004, 1))
        lib2 = loads_gdsii(dumps_gdsii(lib))
        box = lib2.top_cell().bounding_box()
        assert box[2] == pytest.approx(1.0, abs=1e-9)


class TestMalformedStreams:
    def test_missing_header(self):
        lib = Library("T")
        lib.add(Cell("TOP").add_rectangle(0, 0, 1, 1))
        data = dumps_gdsii(lib)
        # Strip the HEADER record (6 bytes).
        with pytest.raises(GdsiiError, match="HEADER"):
            loads_gdsii(data[6:])

    def test_missing_units(self):
        data = pack_int16(RecordType.HEADER, [600]) + pack_record(
            RecordType.ENDLIB, DataType.NONE
        )
        with pytest.raises(GdsiiError, match="UNITS"):
            loads_gdsii(data)

    def test_boundary_outside_structure(self):
        from repro.layout.gdsii_records import pack_real8

        data = (
            pack_int16(RecordType.HEADER, [600])
            + pack_real8(RecordType.UNITS, [1e-3, 1e-9])
            + pack_record(RecordType.BOUNDARY, DataType.NONE)
        )
        with pytest.raises(GdsiiError, match="outside a structure"):
            loads_gdsii(data)

    def test_dangling_reference(self):
        lib = Library("T")
        child = Cell("CHILD")
        child.add_rectangle(0, 0, 1, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (0, 0))
        # CHILD was never registered, so it is absent from the stream.
        data = dumps_gdsii(lib)
        with pytest.raises(GdsiiError, match="undefined cell"):
            loads_gdsii(data)

    def test_oversized_polygon_rejected_on_write(self):
        lib = Library("T")
        angles = [2 * math.pi * i / 700 for i in range(700)]
        big = Polygon([(10 * math.cos(t), 10 * math.sin(t)) for t in angles])
        lib.add(Cell("TOP").add_polygon(big))
        with pytest.raises(GdsiiError, match="exceeds"):
            dumps_gdsii(lib)

    def test_garbage_bytes(self):
        with pytest.raises(GdsiiError):
            loads_gdsii(b"\x00\x01\x02")


class TestWriterRejectsCollapsedPolygons:
    """One rule for every writer: a polygon with zero area on the
    file's grid is an error, never a silently degenerate record."""

    #: 4e-15 µm tall (random_logic's old edge-clipping artefact), a
    #: repeated-point triangle, and a collinear "spike".
    COLLAPSED = [
        Polygon.rectangle(18.0, 20.0, 20.000000000000004, 20.000000000000004),
        Polygon([(0, 0), (3, 0), (3, 0.0004)]),
        Polygon([(0, 0), (1, 0), (2, 0), (1, 0)]),
    ]

    @pytest.mark.parametrize("poly", COLLAPSED)
    def test_dumps_and_stream_writer_raise_alike(self, poly, tmp_path):
        library = Library("T")
        library.add(Cell("A").add_polygon(poly))
        with pytest.raises(GdsiiError, match="zero area on the database grid"):
            dumps_gdsii(library)
        with GdsiiStreamWriter(tmp_path / "out.gds") as writer:
            writer.begin_cell("A")
            with pytest.raises(GdsiiError, match="zero area on the database grid"):
                writer.write_polygon(poly, (1, 0))

    def test_a_bow_tie_whose_lobes_cancel_is_a_figure(self, tmp_path):
        # Zero signed area, yet the fracturer fills both 1 µm² lobes.
        bow_tie = Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
        library = Library("T")
        library.add(Cell("A").add_polygon(bow_tie))
        with GdsiiStreamWriter(tmp_path / "out.gds", name="T") as writer:
            writer.begin_cell("A")
            writer.write_polygon(bow_tie, (0, 0))
            writer.end_cell()
        data = dumps_gdsii(library)
        assert (tmp_path / "out.gds").read_bytes() == data
        ((polygon,),) = flatten_cell(loads_gdsii(data).top_cell()).values()
        assert polygon.vertices == bow_tie.vertices

    def test_one_grid_step_is_enough(self):
        library = Library("T")
        library.add(Cell("A").add_rectangle(0.0, 0.0, 5.0, 0.001))
        assert len(loads_gdsii(dumps_gdsii(library))["A"].polygons) == 1

    def test_coarser_library_grid_collapses_sooner(self):
        library = Library("T", precision=1e-8)  # 10 nm database unit
        library.add(Cell("A").add_rectangle(0.0, 0.0, 5.0, 0.004))
        with pytest.raises(GdsiiError, match="zero area"):
            dumps_gdsii(library)


class TestWriteReadWriteProperty:
    """Hypothesis sweep: the writer is idempotent over its own output.

    The first write quantizes coordinates to the database grid; reading
    that stream preserves cell order and exact (integer) coordinates,
    so writing the parsed library again must reproduce the stream byte
    for byte, across every workload family the generators produce
    (hierarchies, AREFs, curved data).
    """

    @given(library=layout_strategies.generated_libraries())
    @settings(max_examples=25, deadline=None)
    def test_write_read_write_identical_bytes(self, library):
        first = dumps_gdsii(library)
        second = dumps_gdsii(loads_gdsii(first))
        assert first == second

    @given(library=layout_strategies.generated_libraries())
    @settings(max_examples=10, deadline=None)
    def test_round_trip_preserves_flat_geometry(self, library):
        loaded = loads_gdsii(dumps_gdsii(library))
        original = flat_area(library.top_cell())
        # Quantizing to the database grid moves each vertex by at most
        # half a grid step, so the area drift is bounded by the total
        # flat perimeter times the grid (with slack for corner cases).
        budget = library.grid * flat_perimeter(library.top_cell()) + 1e-9
        assert abs(flat_area(loaded.top_cell()) - original) <= budget


# ---------------------------------------------------------------------------
# Frozen reader corpus: small hand-built streams, read through every door
# ---------------------------------------------------------------------------


def rec(record_type, payload=b"", data_type=DataType.NONE):
    return pack_record(record_type, data_type, payload)


ENDEL = rec(RecordType.ENDEL)
HEAD = (
    pack_int16(RecordType.HEADER, [600])
    + pack_int16(RecordType.BGNLIB, [0] * 12)
    + pack_ascii(RecordType.LIBNAME, "T")
)
UNITS = pack_real8(RecordType.UNITS, [1e-3, 1e-9])
SQUARE = [0, 0, 2000, 0, 2000, 1000, 0, 1000, 0, 0]
LINE = [0, 0, 4000, 0]
#: A foreign writer's sub-grid sliver: a rectangle snapped flat.
SLIVER = [18000, 20000, 20000, 20000, 20000, 20000, 18000, 20000, 18000, 20000]
#: A foreign writer's BOUNDARY that does not repeat its first pair: the
#: last pair is a real vertex (a square with a peak on its top edge).
UNCLOSED = [0, 0, 10000, 0, 10000, 10000, 0, 10000, 5000, 15000]


def lib(*chunks, head=HEAD + UNITS, endlib=True):
    tail = rec(RecordType.ENDLIB) if endlib else b""
    return head + b"".join(chunks) + tail


def structure(name, *elements, bgnstr=True, endstr=True):
    return (
        (pack_int16(RecordType.BGNSTR, [0] * 12) if bgnstr else b"")
        + pack_ascii(RecordType.STRNAME, name)
        + b"".join(elements)
        + (rec(RecordType.ENDSTR) if endstr else b"")
    )


def element(kind, *fields):
    return rec(kind) + b"".join(fields) + ENDEL


def on_layer(layer, datatype=0):
    return pack_int16(RecordType.LAYER, [layer]) + pack_int16(
        RecordType.DATATYPE, [datatype]
    )


def xy(values):
    return pack_int32(RecordType.XY, values)


def boundary(values=SQUARE, layer=1, datatype=0):
    return element(RecordType.BOUNDARY, on_layer(layer, datatype), xy(values))


def path(values=LINE, *fields):
    return element(RecordType.PATH, on_layer(1), *fields, xy(values))


def sref(name, values, *fields):
    return element(
        RecordType.SREF, pack_ascii(RecordType.SNAME, name), *fields, xy(values)
    )


def aref(name, colrow, values):
    return element(
        RecordType.AREF,
        pack_ascii(RecordType.SNAME, name),
        pack_int16(RecordType.COLROW, colrow),
        xy(values),
    )


WIDTH = pack_int32(RecordType.WIDTH, [1000])
TEXT = element(
    RecordType.TEXT,
    on_layer(4),
    rec(0x16, b"\x00\x00", DataType.INT16),  # TEXTTYPE
    xy([0, 0]),
    rec(0x19, b"hi", DataType.ASCII),  # STRING
)
CHILD = structure("CHILD", boundary())
GRID_CORNERS = [0, 0, 10000, 0, 0, 18000]

GDSII_CORPUS = {
    # -- well-formed --------------------------------------------------------
    "boundary": lib(structure("A", boundary())),
    "path": lib(structure("A", path(LINE, WIDTH))),
    "zero_width_path": lib(
        structure(
            "A",
            path(LINE, pack_int32(RecordType.WIDTH, [0])),
            path(LINE),
            boundary(layer=2),
        )
    ),
    "text_skipped": lib(structure("A", TEXT, boundary())),
    "zero_area_boundary": lib(structure("A", boundary(SLIVER), boundary())),
    "unclosed_boundary": lib(structure("A", boundary(UNCLOSED))),
    "sref_with_transform": lib(
        CHILD,
        structure(
            "TOP",
            sref(
                "CHILD",
                [3000, 4000],
                rec(RecordType.STRANS, b"\x80\x00", DataType.BITARRAY),
                pack_real8(RecordType.MAG, [2.0]),
                pack_real8(RecordType.ANGLE, [90.0]),
            ),
        ),
    ),
    "aref": lib(CHILD, structure("TOP", aref("CHILD", [2, 3], GRID_CORNERS))),
    "forward_reference": lib(structure("TOP", sref("CHILD", [0, 0])), CHILD),
    "empty_child": lib(
        structure("EMPTY"), structure("TOP", sref("EMPTY", [0, 0]), boundary())
    ),
    "same_cell_twice": lib(
        structure("A", boundary(layer=2)),
        structure("A", boundary([0, 0, 500, 0, 500, 500, 0, 0], layer=1)),
    ),
    "layer_order_is_first_encounter": lib(
        structure(
            "A",
            boundary(layer=5),
            boundary(layer=2, datatype=1),
            boundary(layer=5),
            boundary(layer=9),
        )
    ),
    "structure_open_at_endlib": lib(structure("A", boundary(), endstr=False)),
    "no_endlib": lib(structure("A", boundary()), endlib=False),
    "tail_padding": lib(structure("A", boundary())) + b"\x00" * 6,
    "records_after_endlib": lib(structure("A", boundary())) + structure("B", TEXT),
    "unknown_records_skipped": lib(
        rec(0x22, b"\x00\x03", DataType.INT16),  # GENERATIONS
        structure(
            "A",
            element(
                RecordType.BOUNDARY,
                rec(0x26, b"\x00\x01", DataType.BITARRAY),  # ELFLAGS
                on_layer(1),
                xy(SQUARE),
                rec(0x2B, b"\x00\x01", DataType.INT16),  # PROPATTR
            ),
        ),
    ),
    "first_layer_value_wins": lib(
        structure(
            "A",
            element(
                RecordType.BOUNDARY,
                pack_int16(RecordType.LAYER, [7, 9]),
                xy(SQUARE),
            ),
        )
    ),
    "strname_without_bgnstr": lib(structure("A", boundary(), bgnstr=False)),
    # -- malformed ----------------------------------------------------------
    "missing_header": lib(structure("A", boundary()), head=UNITS),
    "missing_units": lib(head=HEAD),
    "units_one_real": lib(head=HEAD + pack_real8(RecordType.UNITS, [1e-3])),
    "units_zero": lib(head=HEAD + pack_real8(RecordType.UNITS, [0.0, 1e-9])),
    "element_before_units": lib(structure("A", boundary()), UNITS, head=HEAD),
    "boundary_outside_structure": lib(boundary()),
    "text_outside_structure": lib(TEXT),
    "dangling_reference": lib(structure("TOP", sref("GHOST", [0, 0]))),
    "reference_without_sname": lib(
        structure("TOP", element(RecordType.SREF, xy([0, 0])))
    ),
    "aref_without_colrow": lib(
        CHILD,
        structure(
            "TOP",
            element(
                RecordType.AREF,
                pack_ascii(RecordType.SNAME, "CHILD"),
                xy(GRID_CORNERS),
            ),
        ),
    ),
    "aref_colrow_zero": lib(
        CHILD, structure("TOP", aref("CHILD", [0, 3], GRID_CORNERS))
    ),
    "sref_xy_one_int": lib(CHILD, structure("TOP", sref("CHILD", [5]))),
    "boundary_short_xy": lib(structure("A", boundary([0, 0, 1000, 0, 0, 0]))),
    "boundary_odd_xy": lib(structure("A", boundary(SQUARE[:-1]))),
    "boundary_without_xy": lib(
        structure("A", element(RecordType.BOUNDARY, on_layer(1)))
    ),
    "path_one_point": lib(structure("A", path([0, 0], WIDTH))),
    "path_odd_xy": lib(structure("A", path([0, 0, 4000, 0, 4000], WIDTH))),
    "xy_not_int32": lib(
        structure(
            "A",
            element(
                RecordType.BOUNDARY, rec(RecordType.XY, b"\x00" * 6, DataType.INT32)
            ),
        )
    ),
    "odd_int16_payload": lib(
        structure(
            "A",
            rec(RecordType.BOUNDARY) + struct.pack(">HBB", 7, RecordType.LAYER, 2),
        )
    )
    + b"\x00" * 3,
    "truncated_header": lib(structure("A", boundary()))[:-2],
    "truncated_payload": lib(structure("A", boundary()), endlib=False)[:-10],
    "record_length_2": lib(structure("A", b"\x00\x02\x00\x00")),
    "strname_inside_element": lib(
        structure(
            "A",
            rec(RecordType.BOUNDARY),
            on_layer(1),
            xy(SQUARE),
            endstr=False,
        ),
        structure("B", ENDEL, bgnstr=False),
    ),
    "non_ascii_strname": lib(
        rec(RecordType.STRNAME, b"caf\xe9", DataType.ASCII), boundary()
    ),
    **{
        f"empty_{RecordType.NAMES[record_type].lower()}": lib(
            structure(
                "A",
                element(
                    RecordType.PATH, on_layer(1), rec(record_type), WIDTH, xy(LINE)
                ),
            )
        )
        for record_type in (
            RecordType.LAYER,
            RecordType.DATATYPE,
            RecordType.WIDTH,
            RecordType.MAG,
            RecordType.ANGLE,
        )
    },
}


UNITS_UM = ("T", 1e-06, 1e-09)
SQUARE_UM = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
UNCLOSED_UM = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (5.0, 15.0))

#: What reading each corpus entry answers (``layout_doors.describe`` of
#: the library, or the error).  The literals are the parent commit's
#: ``loads_gdsii`` answers, generated by running it — from before the
#: cursor reader became the only parser — except for GDSII_CHANGED.
GDSII_EXPECTED = {
    "boundary": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "path": (
        UNITS_UM,
        {"A": ([((1, 0), [((0.0, 0.5), (4.0, 0.5), (4.0, -0.5), (0.0, -0.5))])], [])},
    ),
    "zero_width_path": (UNITS_UM, {"A": ([((2, 0), [SQUARE_UM])], [])}),
    "text_skipped": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    # Read as written (readers do not judge geometry); the fracturers
    # turn it into no figure, and our own writers refuse to re-emit it.
    "zero_area_boundary": (
        UNITS_UM,
        {
            "A": (
                [((1, 0), [((18.0, 20.0), (20.0, 20.0), (20.0, 20.0)), SQUARE_UM])],
                [],
            )
        },
    ),
    "unclosed_boundary": (UNITS_UM, {"A": ([((1, 0), [UNCLOSED_UM])], [])}),
    "sref_with_transform": (
        UNITS_UM,
        {
            "CHILD": ([((1, 0), [SQUARE_UM])], []),
            "TOP": ([], [("CHILD", (3.0, 4.0), 90.0, 2.0, True)]),
        },
    ),
    "aref": (
        UNITS_UM,
        {
            "CHILD": ([((1, 0), [SQUARE_UM])], []),
            "TOP": (
                [],
                [("CHILD", (0.0, 0.0), 0.0, 1.0, False, 2, 3, (5.0, 0.0), (0.0, 6.0))],
            ),
        },
    ),
    "forward_reference": (
        UNITS_UM,
        {
            "TOP": ([], [("CHILD", (0.0, 0.0), 0.0, 1.0, False)]),
            "CHILD": ([((1, 0), [SQUARE_UM])], []),
        },
    ),
    "empty_child": (
        UNITS_UM,
        {
            "EMPTY": ([], []),
            "TOP": ([((1, 0), [SQUARE_UM])], [("EMPTY", (0.0, 0.0), 0.0, 1.0, False)]),
        },
    ),
    "same_cell_twice": (
        UNITS_UM,
        {
            "A": (
                [
                    ((2, 0), [SQUARE_UM]),
                    ((1, 0), [((0.0, 0.0), (0.5, 0.0), (0.5, 0.5))]),
                ],
                [],
            ),
        },
    ),
    "layer_order_is_first_encounter": (
        UNITS_UM,
        {
            "A": (
                [
                    ((5, 0), [SQUARE_UM, SQUARE_UM]),
                    ((2, 1), [SQUARE_UM]),
                    ((9, 0), [SQUARE_UM]),
                ],
                [],
            ),
        },
    ),
    "structure_open_at_endlib": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "no_endlib": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "tail_padding": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "records_after_endlib": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "unknown_records_skipped": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "first_layer_value_wins": (UNITS_UM, {"A": ([((7, 0), [SQUARE_UM])], [])}),
    "strname_without_bgnstr": (UNITS_UM, {"A": ([((1, 0), [SQUARE_UM])], [])}),
    "missing_header": (GdsiiError, "missing HEADER record"),
    "missing_units": (GdsiiError, "missing UNITS record"),
    "units_one_real": (GdsiiError, "UNITS record must hold two reals"),
    "units_zero": (GdsiiError, "UNITS record must hold positive reals"),
    "element_before_units": (GdsiiError, "element before UNITS record"),
    "boundary_outside_structure": (GdsiiError, "BOUNDARY outside a structure"),
    "text_outside_structure": (GdsiiError, "ENDEL outside a structure"),
    "dangling_reference": (GdsiiError, "reference to undefined cell 'GHOST'"),
    "reference_without_sname": (GdsiiError, "reference without SNAME or XY"),
    "aref_without_colrow": (GdsiiError, "AREF needs COLROW and three XY corners"),
    "aref_colrow_zero": (GdsiiError, "AREF COLROW must be at least 1 x 1, got 0 x 3"),
    "sref_xy_one_int": (GdsiiError, "reference XY record holds no point"),
    "boundary_short_xy": (GdsiiError, "BOUNDARY without a valid XY record"),
    "boundary_odd_xy": (GdsiiError, "BOUNDARY without a valid XY record"),
    "boundary_without_xy": (GdsiiError, "BOUNDARY without a valid XY record"),
    "path_one_point": (GdsiiError, "PATH without a valid XY record"),
    "path_odd_xy": (GdsiiError, "PATH without a valid XY record"),
    "xy_not_int32": (GdsiiError, "int32 payload length not a multiple of 4"),
    "odd_int16_payload": (GdsiiError, "odd int16 payload length"),
    "truncated_header": (GdsiiError, "truncated record header at byte 162"),
    "truncated_payload": (GdsiiError, "truncated record payload at byte 110"),
    "record_length_2": (GdsiiError, "record length 2 < 4 at byte 94"),
    "strname_inside_element": (
        GdsiiError,
        "STRNAME inside an unfinished BOUNDARY element",
    ),
    "non_ascii_strname": (GdsiiError, "non-ASCII byte in a string record"),
    "empty_layer": (GdsiiError, "LAYER record holds no value"),
    "empty_datatype": (GdsiiError, "DATATYPE record holds no value"),
    "empty_width": (GdsiiError, "WIDTH record holds no value"),
    "empty_mag": (GdsiiError, "MAG record holds no value"),
    "empty_angle": (GdsiiError, "ANGLE record holds no value"),
}


#: Entries whose answer was changed on purpose, with what the old
#: ``loads_gdsii`` did: interpreter errors became ``GdsiiError``, and
#: input on which the old streamed reader silently lost geometry is
#: either read in full or rejected.
GDSII_CHANGED = {
    "units_zero": "ZeroDivisionError",
    "aref_colrow_zero": "ZeroDivisionError",
    "sref_xy_one_int": "IndexError",
    "path_odd_xy": "IndexError",
    "boundary_odd_xy": "read, ignoring the unpaired int",
    "unclosed_boundary": "read as the square, its last real vertex dropped",
    "strname_inside_element": "polygon read into B (streamed: dropped)",
    "non_ascii_strname": "UnicodeDecodeError",
    "empty_layer": "IndexError",
    "empty_datatype": "IndexError",
    "empty_width": "IndexError",
    "empty_mag": "IndexError",
    "empty_angle": "IndexError",
}


class TestReaderCorpus:
    """Every corpus entry reads the same through all three doors —
    ``loads_gdsii``, ``open_layout_stream(...).materialize()`` and the
    lazy ``iter_flat()`` walk — and answers its frozen literal."""

    def test_expectations_cover_the_corpus(self):
        assert set(GDSII_EXPECTED) == set(GDSII_CORPUS)
        assert set(GDSII_CHANGED) <= set(GDSII_CORPUS)

    @pytest.mark.parametrize("case", sorted(GDSII_CORPUS))
    def test_reads_as_frozen_through_every_door(self, case, tmp_path):
        answer = read_through_all_doors(
            GDSII_CORPUS[case], tmp_path / "case.gds", loads_gdsii
        )
        assert answer == GDSII_EXPECTED[case]

    def test_strname_without_bgnstr_keeps_its_geometry_when_streamed(self, tmp_path):
        # A cell's span opens at the STRNAME that names it, so the lazy
        # read finds the polygon even with no BGNSTR before it.
        path = tmp_path / "headless.gds"
        path.write_bytes(GDSII_CORPUS["strname_without_bgnstr"])
        with open_layout_stream(path) as stream:
            assert len(list(stream.iter_flat())) == 1

    def test_mutations_raise_gdsii_errors_or_read_alike(self, tmp_path):
        """Seeded byte flips, truncations and cuts of one small file:
        every door returns or raises a ``ValueError`` (anything else
        escapes ``read_through_all_doors`` and fails), and all agree."""
        data = dumps_gdsii(small_hierarchy())
        failures = 0
        for mutated in mutants(data, 300, flip_to=range(256)):
            answer = read_through_all_doors(
                mutated, tmp_path / "mutant.gds", loads_gdsii, same_walk_error=False
            )
            failures += rejected(answer)
        assert 0 < failures < 300
