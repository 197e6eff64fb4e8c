"""Tests for the CIF writer/reader."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

import layout_strategies
from layout_doors import mutants, read_through_all_doors, rejected, small_hierarchy
from layout_strategies import flat_perimeter
from repro.geometry.polygon import Polygon
from repro.layout.cif import CifError, dumps_cif, loads_cif, read_cif, write_cif
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.library import Library
from repro.layout.stream import open_layout_stream
from repro.layout import generators


def flat_area(cell):
    flat = flatten_cell(cell)
    return sum(p.area() for v in flat.values() for p in v)


def flat_vertices(cell):
    flat = flatten_cell(cell)
    return sorted(
        (round(v.x, 4), round(v.y, 4))
        for polys in flat.values()
        for p in polys
        for v in p.vertices
    )


class TestWriter:
    def test_contains_symbol_definitions(self):
        lib = Library("T")
        lib.add(Cell("TOP").add_rectangle(0, 0, 1, 1))
        text = dumps_cif(lib)
        assert "DS 1 1 1;" in text
        assert "9 TOP;" in text
        assert text.rstrip().endswith("E")

    def test_layer_commands(self):
        lib = Library("T")
        lib.add(Cell("TOP").add_rectangle(0, 0, 1, 1, layer=(8, 2)))
        assert "L L8D2;" in dumps_cif(lib)

    def test_magnified_reference_rejected(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 1, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (0, 0), magnification=2.0)
        with pytest.raises(CifError, match="magnification"):
            dumps_cif(lib)

    @pytest.mark.parametrize(
        "box",
        [
            (18.0, 20.0, 20.000000000000004, 20.000000000000004),
            (0.0, 0.0, 5.0, 0.004),  # a figure in GDSII (4 dbu), not on 10 nm
        ],
    )
    def test_polygon_collapsing_on_the_centimicron_grid_rejected(self, box):
        # The GDSII writers' rule (tests/test_gdsii.py), on CIF's grid.
        lib = Library("T")
        lib.add(Cell("TOP").add_rectangle(*box))
        with pytest.raises(CifError, match="zero area on the centimicron grid"):
            dumps_cif(lib)

    def test_a_bow_tie_whose_lobes_cancel_is_a_figure(self):
        # Zero signed area: the GDSII writers' bow-tie, on CIF's grid.
        bow_tie = Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])
        lib = Library("T")
        lib.add(Cell("TOP").add_polygon(bow_tie))
        text = dumps_cif(lib)
        assert "P 0 0 200 200 200 0 0 200;" in text
        ((polygon,),) = flatten_cell(loads_cif(text).top_cell()).values()
        assert polygon.vertices == bow_tie.vertices

    def test_one_centimicron_is_enough(self):
        lib = Library("T")
        lib.add(Cell("TOP").add_rectangle(0.0, 0.0, 5.0, 0.01))
        assert "P 0 0 500 0 500 1 0 1;" in dumps_cif(lib)

    def test_array_expanded_to_calls(self):
        lib = generators.contact_array(columns=3, rows=2, hierarchical=True)
        text = dumps_cif(lib)
        assert text.count("C 2") >= 6 or text.count("C 1") >= 6


class TestRoundTrip:
    def test_polygon_roundtrip(self):
        lib = Library("T")
        triangle = Polygon([(0, 0), (10, 0), (5, 8)])
        lib.add(Cell("TOP").add_polygon(triangle))
        lib2 = loads_cif(dumps_cif(lib))
        assert flat_area(lib2.top_cell()) == pytest.approx(40.0, abs=1e-3)

    def test_cell_names_preserved(self):
        lib = Library("T")
        lib.add(Cell("MYCELL").add_rectangle(0, 0, 1, 1))
        lib2 = loads_cif(dumps_cif(lib))
        assert "MYCELL" in lib2

    def test_reference_with_rotation(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 2, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (5, 5), rotation_deg=90)
        lib2 = loads_cif(dumps_cif(lib))
        assert flat_vertices(lib2.top_cell()) == flat_vertices(top)

    def test_reference_with_mirror(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 2, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (3, -2), x_reflection=True)
        lib2 = loads_cif(dumps_cif(lib))
        assert flat_vertices(lib2.top_cell()) == flat_vertices(top)

    def test_mirror_plus_rotation(self):
        lib = Library("T")
        child = Cell("CHILD")
        lib.add(child)
        child.add_rectangle(0, 0, 2, 1)
        top = Cell("TOP")
        lib.add(top)
        top.instantiate(child, (1, 2), rotation_deg=270, x_reflection=True)
        lib2 = loads_cif(dumps_cif(lib))
        assert flat_vertices(lib2.top_cell()) == flat_vertices(top)

    def test_hierarchical_array_flat_area(self):
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 2))
        lib2 = loads_cif(dumps_cif(lib))
        assert flat_area(lib2.top_cell()) == pytest.approx(
            flat_area(lib.top_cell()), rel=1e-6
        )

    def test_file_roundtrip(self, tmp_path):
        lib = generators.grating(lines=5)
        path = tmp_path / "test.cif"
        n = write_cif(lib, path)
        assert path.stat().st_size == n
        lib2 = read_cif(path)
        assert flat_area(lib2.top_cell()) == pytest.approx(
            flat_area(lib.top_cell()), abs=1e-3
        )


class TestReader:
    def test_box_command(self):
        text = "DS 1 1 1;\n9 TOP;\nB 200 100 100 50;\nDF;\nC 1;\nE\n"
        lib = loads_cif(text)
        cell = lib["TOP"]
        assert cell.polygon_count() == 1
        assert cell.area() == pytest.approx(2.0)  # 2 µm x 1 µm

    def test_rotated_box(self):
        text = "DS 1 1 1;\n9 TOP;\nB 200 100 0 0 0 1;\nDF;\nC 1;\nE\n"
        lib = loads_cif(text)
        box = lib["TOP"].bounding_box()
        # Rotated 90 degrees: now 1 µm x 2 µm.
        assert box[2] - box[0] == pytest.approx(1.0)
        assert box[3] - box[1] == pytest.approx(2.0)

    def test_comments_stripped(self):
        text = "( a comment ); DS 1 1 1; 9 TOP; B 100 100 0 0; DF; C 1; E"
        lib = loads_cif(text)
        assert lib["TOP"].polygon_count() == 1

    def test_call_to_undefined_symbol(self):
        text = "DS 1 1 1;\n9 TOP;\nC 99;\nDF;\nC 1;\nE\n"
        with pytest.raises(CifError, match="undefined symbol"):
            loads_cif(text)

    def test_malformed_polygon(self):
        text = "DS 1 1 1;\nP 0 0 10;\nDF;\nE\n"
        with pytest.raises(CifError, match="malformed P"):
            loads_cif(text)

    def test_malformed_box(self):
        text = "DS 1 1 1;\nB 100;\nDF;\nE\n"
        with pytest.raises(CifError, match="malformed B"):
            loads_cif(text)

    def test_top_level_geometry_goes_to_top_cell(self):
        text = "B 100 100 0 0;\nE\n"
        lib = loads_cif(text)
        assert "TOP" in lib
        assert lib["TOP"].polygon_count() == 1


class TestWriteReadWriteProperty:
    """Hypothesis sweep: CIF write→read→write is byte-stable.

    The first write expands arrays into individual calls and quantizes
    coordinates to centimicrons; the first read canonicalizes what CIF
    cannot represent (the library name survives only in the header
    comment).  The text written from that first round trip must be a
    fixed point of write→read→write for every generated workload
    family, and even the very first write may differ only in the header
    comment line.
    """

    @given(library=layout_strategies.generated_libraries())
    @settings(max_examples=25, deadline=None)
    def test_write_read_write_is_byte_stable(self, library):
        canonical = dumps_cif(loads_cif(dumps_cif(library)))
        rewritten = dumps_cif(loads_cif(canonical))
        assert rewritten == canonical

    @given(library=layout_strategies.generated_libraries())
    @settings(max_examples=25, deadline=None)
    def test_write_read_write_body_identical(self, library):
        def body(text):
            return text.split("\n", 1)[1]

        first = dumps_cif(library)
        second = dumps_cif(loads_cif(first))
        assert body(second) == body(first)

    @given(library=layout_strategies.generated_libraries())
    @settings(max_examples=10, deadline=None)
    def test_round_trip_preserves_flat_geometry(self, library):
        loaded = loads_cif(dumps_cif(library))
        original = flat_area(library.top_cell())
        # CIF quantizes to centimicrons (a 10 nm grid): the area drift
        # is bounded by the flat perimeter times the quantum.
        budget = 0.01 * flat_perimeter(library.top_cell()) + 1e-9
        assert abs(flat_area(loaded.top_cell()) - original) <= budget


# ---------------------------------------------------------------------------
# Frozen reader corpus: small hand-written files, read through every door
# ---------------------------------------------------------------------------

BOX = "B 200 100 100 50;"
LEAF = f"DS 1 1 1; {BOX} DF;"

CIF_CORPUS = {
    # -- well-formed --------------------------------------------------------
    "box": f"DS 1 1 1;\n9 CHIP;\nL L3D1;\n{BOX}\nDF;\nC 1;\nE\n",
    "rotated_box": "DS 1 1 1; B 200 100 0 0 0 1; DF; C 1; E",
    "polygon": "DS 1 1 1; P 0 0 100 0 100 100; DF; C 1; E",
    "unnamed_symbol": f"DS 5 1 1; {BOX} DF; C 5; E",
    "top_level_geometry": f"L L2D0; {BOX}\nE\n",
    "layer_state_crosses_ds": (
        f"L L7D0; DS 1 1 1; {BOX} L L8D1; DF; DS 2 1 1; {BOX} DF;"
        " C 1; C 2 T 500 0; E"
    ),
    "redundant_top_wrapper": f"DS 1 1 1; 9 CHIP; {BOX} DF; C 1; E",
    "translated_top_call": f"{LEAF} C 1 T 100 0; E",
    "geometry_and_call_at_top": f"{LEAF} B 100 100 900 0; C 1; E",
    "top_name_collision": f"DS 1 1 1; 9 TOP; {BOX} DF; B 100 100 900 0; C 1; E",
    "ds_inside_ds": (
        f"DS 1 1 1; {BOX} DS 2 1 1; B 100 100 0 0; DF; B 300 300 0 0; DF;"
        " C 1; C 2; E"
    ),
    "geometry_after_e": f"{LEAF} C 1; E; B 900 900 0 0; C 7;",
    "symbol_defined_twice": f"DS 1 1 1; L L2D0; {BOX} DF; {LEAF} C 1; E",
    "semicolon_in_comment": f"( a; b ); DS 1 1 1; (x;y) {BOX} DF; C (z) 1; E",
    "named_layers": f"DS 1 1 1; L NM; {BOX} L POLY; {BOX} L NM; {BOX} DF; C 1; E",
    "utf8_cell_name": f"DS 1 1 1; 9 café; {BOX} DF; C 1; E",
    "call_operators": (
        f"{LEAF} DS 2 1 1; C 1 M Y R 0 10000 T 300 400; C 1 M X; C 1 R -1 0;"
        " C 1 T 100 0 T 0 50; DF; C 2; E"
    ),
    "forward_call": f"DS 2 1 1; C 1 T 100 0; DF; {LEAF} C 2; E",
    "no_end_marker": f"{LEAF} C 1;",
    "extensions_ignored": (
        f"DS 1 1 1; 4N sig 0 0; 0V 1 2; DD 3; {BOX} W 10 0 0 100 0; DF;"
        " C 1; E"
    ),
    # -- malformed ----------------------------------------------------------
    "unterminated_comment": f"{LEAF} (oops; DS 2 1 1; {BOX} DF; C 1; C 2; E",
    "translate_cut_short": f"{LEAF} C 1 T 4; E",
    "mirror_cut_short": f"{LEAF} C 1 M; E",
    "unknown_call_operator": f"{LEAF} C 1 Q 3; E",
    "unknown_mirror_axis": f"{LEAF} C 1 M Z; E",
    "malformed_call": f"{LEAF} C; E",
    "call_to_undefined_symbol": f"{LEAF} C 99; E",
    "malformed_ds": "DS; E",
    "unknown_d_command": "DX 1; E",
    "malformed_polygon": "DS 1 1 1; P 0 0 10; DF; C 1; E",
    "malformed_box": "DS 1 1 1; B 100; DF; C 1; E",
    "coordinate_not_an_integer": "DS 1 1 1; B 100 x 0 0; DF; C 1; E",
}


UNITS_UM = ("CIF", 1e-06, 1e-08)
BOX_UM = ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))

#: What reading each corpus entry answers (``layout_doors.describe`` of
#: the library, or the error).  The literals are the parent commit's
#: ``loads_cif`` answers, generated by running it — from before the
#: cursor reader became the only parser — except for CIF_CHANGED.
CIF_EXPECTED = {
    "box": (UNITS_UM, {"CHIP": ([((3, 1), [BOX_UM])], [])}),
    "rotated_box": (
        UNITS_UM,
        {
            "SYMBOL_1": (
                [
                    (
                        (0, 0),
                        [
                            (
                                (0.49999999999999994, -1.0),
                                (0.5000000000000001, 1.0),
                                (-0.49999999999999994, 1.0),
                                (-0.5000000000000001, -1.0),
                            ),
                        ],
                    ),
                ],
                [],
            ),
        },
    ),
    "polygon": (
        UNITS_UM,
        {"SYMBOL_1": ([((0, 0), [((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))])], [])},
    ),
    "unnamed_symbol": (UNITS_UM, {"SYMBOL_5": ([((0, 0), [BOX_UM])], [])}),
    "top_level_geometry": (UNITS_UM, {"TOP": ([((2, 0), [BOX_UM])], [])}),
    "layer_state_crosses_ds": (
        UNITS_UM,
        {
            "SYMBOL_1": ([((7, 0), [BOX_UM])], []),
            "SYMBOL_2": ([((8, 1), [BOX_UM])], []),
            "TOP": (
                [],
                [
                    ("SYMBOL_1", (0.0, 0.0), 0.0, 1.0, False),
                    ("SYMBOL_2", (5.0, 0.0), 0.0, 1.0, False),
                ],
            ),
        },
    ),
    "redundant_top_wrapper": (UNITS_UM, {"CHIP": ([((0, 0), [BOX_UM])], [])}),
    "translated_top_call": (
        UNITS_UM,
        {
            "SYMBOL_1": ([((0, 0), [BOX_UM])], []),
            "TOP": ([], [("SYMBOL_1", (1.0, 0.0), 0.0, 1.0, False)]),
        },
    ),
    "geometry_and_call_at_top": (
        UNITS_UM,
        {
            "SYMBOL_1": ([((0, 0), [BOX_UM])], []),
            "TOP": (
                [((0, 0), [((8.5, -0.5), (9.5, -0.5), (9.5, 0.5), (8.5, 0.5))])],
                [("SYMBOL_1", (0.0, 0.0), 0.0, 1.0, False)],
            ),
        },
    ),
    "top_name_collision": (
        UNITS_UM,
        {
            "TOP": ([((0, 0), [BOX_UM])], []),
            "CIF_TOP": (
                [((0, 0), [((8.5, -0.5), (9.5, -0.5), (9.5, 0.5), (8.5, 0.5))])],
                [("TOP", (0.0, 0.0), 0.0, 1.0, False)],
            ),
        },
    ),
    "ds_inside_ds": (
        UNITS_UM,
        {
            "SYMBOL_1": ([((0, 0), [BOX_UM])], []),
            "SYMBOL_2": (
                [((0, 0), [((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))])],
                [],
            ),
            "TOP": (
                [((0, 0), [((-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5))])],
                [
                    ("SYMBOL_1", (0.0, 0.0), 0.0, 1.0, False),
                    ("SYMBOL_2", (0.0, 0.0), 0.0, 1.0, False),
                ],
            ),
        },
    ),
    "geometry_after_e": (UNITS_UM, {"SYMBOL_1": ([((0, 0), [BOX_UM])], [])}),
    "symbol_defined_twice": (
        UNITS_UM,
        {"SYMBOL_1": ([((2, 0), [BOX_UM, BOX_UM])], [])},
    ),
    "semicolon_in_comment": (UNITS_UM, {"SYMBOL_1": ([((0, 0), [BOX_UM])], [])}),
    "named_layers": (
        UNITS_UM,
        {"SYMBOL_1": ([((89, 0), [BOX_UM, BOX_UM]), ((26, 0), [BOX_UM])], [])},
    ),
    "utf8_cell_name": (UNITS_UM, {"café": ([((0, 0), [BOX_UM])], [])}),
    "call_operators": (
        UNITS_UM,
        {
            "SYMBOL_1": ([((0, 0), [BOX_UM])], []),
            "SYMBOL_2": (
                [],
                [
                    ("SYMBOL_1", (3.0, 4.0), 90.0, 1.0, True),
                    ("SYMBOL_1", (-0.0, 0.0), 180.0, 1.0, True),
                    ("SYMBOL_1", (-0.0, 0.0), 180.0, 1.0, False),
                    ("SYMBOL_1", (1.0, 0.5), 0.0, 1.0, False),
                ],
            ),
        },
    ),
    "forward_call": (
        UNITS_UM,
        {
            "SYMBOL_2": ([], [("SYMBOL_1", (1.0, 0.0), 0.0, 1.0, False)]),
            "SYMBOL_1": ([((0, 0), [BOX_UM])], []),
        },
    ),
    "no_end_marker": (UNITS_UM, {"SYMBOL_1": ([((0, 0), [BOX_UM])], [])}),
    "extensions_ignored": (UNITS_UM, {"SYMBOL_1": ([((0, 0), [BOX_UM])], [])}),
    "unterminated_comment": (CifError, "unterminated comment opened at byte 32"),
    "translate_cut_short": (CifError, "call operator 'T' needs 2 operand(s) in 'T 4'"),
    "mirror_cut_short": (CifError, "call operator 'M' needs 1 operand(s) in 'M'"),
    "unknown_call_operator": (CifError, "unknown call operator 'Q'"),
    "unknown_mirror_axis": (CifError, "unknown mirror axis 'Z'"),
    "malformed_call": (CifError, "malformed C: 'C'"),
    "call_to_undefined_symbol": (CifError, "call to undefined symbol 99"),
    "malformed_ds": (CifError, "malformed DS: 'DS'"),
    "unknown_d_command": (CifError, "unknown D command: 'DX 1'"),
    "malformed_polygon": (CifError, "malformed P: 'P 0 0 10'"),
    "malformed_box": (CifError, "malformed B: 'B 100'"),
    "coordinate_not_an_integer": (
        ValueError,
        "invalid literal for int() with base 10: 'x'",
    ),
}


#: Entries whose answer was changed on purpose, with what the old
#: ``loads_cif`` did.
CIF_CHANGED = {
    "named_layers": "layer numbers from the per-process salted hash()",
    "unterminated_comment": "read (streamed: everything after the '(' lost)",
    "translate_cut_short": "IndexError",
    "mirror_cut_short": "IndexError",
}


def loads_cif_bytes(data):
    return loads_cif(data.decode("utf-8"))


class TestReaderCorpus:
    """Every corpus entry reads the same through all three doors —
    ``loads_cif``, ``open_layout_stream(...).materialize()`` and the
    lazy ``iter_flat()`` walk — and answers its frozen literal."""

    def test_expectations_cover_the_corpus(self):
        assert set(CIF_EXPECTED) == set(CIF_CORPUS)
        assert set(CIF_CHANGED) <= set(CIF_CORPUS)

    @pytest.mark.parametrize("case", sorted(CIF_CORPUS))
    def test_reads_as_frozen_through_every_door(self, case, tmp_path):
        answer = read_through_all_doors(
            CIF_CORPUS[case].encode("utf-8"), tmp_path / "case.cif", loads_cif_bytes
        )
        assert answer == CIF_EXPECTED[case]

    def test_bytes_that_are_not_utf8_are_rejected(self, tmp_path):
        # One decoding rule for every door — UTF-8, strict — whatever
        # the locale; a stray byte is never a replacement character.
        path = tmp_path / "latin1.cif"
        path.write_bytes(CIF_CORPUS["utf8_cell_name"].encode("latin-1"))
        with pytest.raises(CifError, match="statement at byte 9 is not valid UTF-8"):
            read_cif(path)
        with pytest.raises(CifError, match="statement at byte 9 is not valid UTF-8"):
            open_layout_stream(path)

    def test_non_ascii_names_survive_the_file_round_trip(self, tmp_path):
        library = Library("T")
        library.add(Cell("café").add_rectangle(0, 0, 1, 1))
        path = tmp_path / "names.cif"
        assert write_cif(library, path) == path.stat().st_size
        assert [cell.name for cell in read_cif(path)] == ["café"]

    def test_named_layer_numbers_do_not_depend_on_the_hash_seed(self):
        # hash(str) is salted per process; pool workers, work daemons
        # and warm re-runs must all fold a layer name alike.
        script = (
            "from repro.layout.cif import loads_cif;"
            "print(list(loads_cif('L NM; B 100 100 0 0; E')['TOP'].polygons))"
        )
        answers = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                check=True,
                capture_output=True,
                text=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert answers == {"[Layer(89/0 'NM')]\n"}

    def test_mutations_raise_value_errors_or_read_alike(self, tmp_path):
        """Seeded character flips, truncations and cuts of one small
        file: every door returns or raises a ``ValueError`` (anything
        else escapes ``read_through_all_doors`` and fails), and all
        agree.  Flips stay ASCII so ``loads_cif`` can take the text."""
        data = dumps_cif(small_hierarchy()).encode("ascii")
        failures = 0
        for mutated in mutants(data, 300, flip_to=range(32, 127)):
            answer = read_through_all_doors(
                mutated, tmp_path / "mutant.cif", loads_cif_bytes, same_walk_error=False
            )
            failures += rejected(answer)
        assert 0 < failures < 300
