"""Tests for hierarchical fracturing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import (
    fracture_hierarchical,
    preserves_horizontal,
    transform_trapezoid,
)
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.transform import Transform, compose
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import trapezoid_array
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.layer import Layer
from repro.layout.reference import CellArray, CellReference


class TestTransformTrapezoid:
    TRAP = Trapezoid(0, 2, 0, 10, 2, 8)

    def test_translation(self):
        t = transform_trapezoid(self.TRAP, Transform.translation(5, 7))
        assert t.y_bottom == 7
        assert t.x_bottom_left == 5
        assert t.area() == pytest.approx(self.TRAP.area())

    def test_mirror_x_flips_vertically(self):
        t = transform_trapezoid(self.TRAP, Transform.mirror_x())
        assert t.y_bottom == -2
        assert t.y_top == 0
        # The (wider) bottom edge is now on top.
        assert t.x_top_right - t.x_top_left == pytest.approx(10.0)
        assert t.area() == pytest.approx(self.TRAP.area())

    def test_mirror_y_flips_horizontally(self):
        t = transform_trapezoid(self.TRAP, Transform.mirror_y())
        assert t.x_bottom_left == -10
        assert t.x_bottom_right == 0
        assert t.area() == pytest.approx(self.TRAP.area())

    def test_rotation_180(self):
        t = transform_trapezoid(
            self.TRAP, Transform.rotation(math.pi)
        )
        assert t.area() == pytest.approx(self.TRAP.area())
        assert t.y_bottom == pytest.approx(-2.0)

    def test_magnification_scales_area(self):
        t = transform_trapezoid(self.TRAP, Transform.scaling(2.0))
        assert t.area() == pytest.approx(4 * self.TRAP.area())

    def test_rotation_90_rejected(self):
        with pytest.raises(ValueError):
            transform_trapezoid(self.TRAP, Transform.rotation(math.pi / 2))

    def test_preserves_horizontal_predicate(self):
        assert preserves_horizontal(Transform.translation(1, 2))
        assert preserves_horizontal(Transform.mirror_x())
        assert preserves_horizontal(Transform.rotation(math.pi))
        assert not preserves_horizontal(Transform.rotation(math.pi / 2))
        assert not preserves_horizontal(Transform.rotation(0.3))


class TestHierarchicalFracture:
    def test_matches_flat_on_memory_array(self):
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 2))
        hier = fracture_hierarchical(lib)
        flat = flatten_cell(lib.top_cell())
        polys = [p for v in flat.values() for p in v]
        flat_figs = TrapezoidFracturer().fracture(polys)
        assert hier.figure_count() == len(flat_figs)
        assert hier.total_area() == pytest.approx(
            sum(f.area() for f in flat_figs), rel=1e-9
        )

    def test_caches_once_per_cell(self):
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 2))
        hier = fracture_hierarchical(lib)
        # Only the BIT cell holds polygons.
        assert hier.cells_fractured == 1
        assert hier.instances_reused == 4 * 4 * 2 * 2 - 1
        assert hier.instances_fallback == 0

    def test_rotated_instances_fall_back(self):
        child = Cell("CHILD")
        child.add_rectangle(0, 0, 3, 1)
        top = Cell("TOP")
        top.instantiate(child, (0, 0))
        top.instantiate(child, (10, 0), rotation_deg=90)
        result = fracture_hierarchical(top)
        assert result.instances_fallback == 1
        assert result.total_area() == pytest.approx(6.0)

    def test_mirrored_instances_reuse_cache(self):
        child = Cell("CHILD")
        child.add_rectangle(0, 0, 3, 1)
        top = Cell("TOP")
        top.instantiate(child, (0, 0))
        top.instantiate(child, (10, 0), x_reflection=True)
        top.instantiate(child, (20, 0), rotation_deg=180)
        result = fracture_hierarchical(top)
        assert result.instances_fallback == 0
        assert result.instances_reused == 2
        assert result.total_area() == pytest.approx(9.0)

    def test_own_polygons_of_parent_included(self):
        child = Cell("CHILD")
        child.add_rectangle(0, 0, 1, 1)
        top = Cell("TOP")
        top.add_rectangle(5, 5, 7, 7)
        top.instantiate(child, (0, 0))
        result = fracture_hierarchical(top)
        assert result.total_area() == pytest.approx(5.0)

    def test_cycle_detection(self):
        a, b = Cell("A"), Cell("B")
        a.instantiate(b, (0, 0))
        b.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match="cycle"):
            fracture_hierarchical(a)

    def test_layers_kept_separate(self):
        cell = Cell("C")
        cell.add_rectangle(0, 0, 1, 1, layer=1)
        cell.add_rectangle(2, 0, 3, 1, layer=2)
        result = fracture_hierarchical(cell)
        assert len(result.figures) == 2

    def test_layer_filter(self):
        cell = Cell("C")
        cell.add_rectangle(0, 0, 1, 1, layer=1)
        cell.add_rectangle(2, 0, 3, 1, layer=2)
        layer_one = next(iter(fracture_hierarchical(cell).figures))
        result = fracture_hierarchical(cell, layers={layer_one})
        assert set(result.figures) == {layer_one}
        assert result.source_polygons == 1

    def test_source_polygon_accounting(self):
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 2))
        hier = fracture_hierarchical(lib)
        flat = flatten_cell(lib.top_cell())
        flat_counts = {layer: len(v) for layer, v in flat.items()}
        assert hier.source_polygons_by_layer == flat_counts
        assert hier.source_polygons == sum(flat_counts.values())

    def test_faster_than_flat_on_large_array(self):
        # "Faster" as work done, not as a one-shot clock reading (the
        # speed floors are measured with repeats in F12a and F8c): the
        # kernel is handed a small fraction of the polygons a flat run
        # would fracture.
        class CountingFracturer(TrapezoidFracturer):
            polygons_seen = 0

            def fracture(self, polygons):
                polygons = list(polygons)
                self.polygons_seen += len(polygons)
                return super().fracture(polygons)

        lib = generators.memory_array(words=8, bits=8, blocks=(4, 4))
        fracturer = CountingFracturer()
        hier = fracture_hierarchical(lib, fracturer=fracturer)
        flat = flatten_cell(lib.top_cell())
        flat_polygons = sum(len(v) for v in flat.values())
        assert hier.source_polygons == flat_polygons
        assert fracturer.polygons_seen <= flat_polygons / 10
        assert hier.cells_fractured <= flat_polygons / 100
        assert hier.instances_reused > 0
        assert hier.instances_fallback == 0


# -- the expansion against the walk it replaced --------------------------------

coordinate = st.floats(-40.0, 40.0, allow_nan=False)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def as_row(t):
    return np.array([(t.a, t.b, t.c, t.d, t.e, t.f)])


@st.composite
def placement(draw, child):
    """An SREF or AREF of ``child``: mirrored, 180° and magnified."""
    pose = dict(
        origin=(draw(coordinate), draw(coordinate)),
        rotation_deg=draw(st.sampled_from([0.0, 180.0])),
        magnification=draw(st.sampled_from([1.0, 0.5, 1.5])),
        x_reflection=draw(st.booleans()),
    )
    if not draw(st.booleans()):
        return CellReference(child, **pose)
    columns, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    steps = [(draw(coordinate), draw(coordinate)) for _ in range(2)]
    return CellArray(child, columns, rows, *steps, **pose)


@st.composite
def hierarchies(draw):
    """TOP over an optional MID over leaves ``A`` and ``B`` on layers 1
    and 2.  ``A`` (always on layer 2) is placed by TOP and, with MID, by
    MID too; TOP's 90° placement of it sits between its other ones."""
    leaves = []
    for name, layers in (("A", [2]), ("B", [])):
        leaf = Cell(name)
        for layer in layers + draw(st.lists(st.sampled_from([1, 2]), max_size=2)):
            x, y, w = draw(coordinate), draw(coordinate), draw(st.floats(0.5, 4.0))
            leaf.add_polygon(Polygon([(x, y), (x + w, y), (x + w / 3, y + w)]), layer)
        leaves.append(leaf)
    top = Cell("TOP")
    top.add_rectangle(0.0, 0.0, 2.0, 1.0, layer=2)
    if draw(st.booleans()):
        mid = Cell("MID")
        mid.add_rectangle(0.0, 0.0, 1.0, 3.0, layer=1)
        for child in draw(st.permutations(leaves)):
            mid.add_reference(draw(placement(child)))
        top.add_reference(draw(placement(mid)))
    for child in [leaves[0], *draw(st.lists(st.sampled_from(leaves), max_size=2))]:
        top.add_reference(draw(placement(child)))
    top.instantiate(leaves[0], (draw(coordinate), 0.0), rotation_deg=90.0)
    top.add_reference(draw(placement(leaves[0])))
    return top


def walked(top, layers, merge_layers):
    """The per-placement walk: ``placements()``, ``Transform @`` and
    the scalar :func:`transform_trapezoid`, figure by figure."""
    fracturer = TrapezoidFracturer()
    figures, blocks, by_layer = {}, {}, {}
    counters = dict(cells_fractured=0, instances_reused=0, instances_fallback=0)
    fallbacks = KernelFallbacks()

    def fracture(polygons):
        out = fracturer.fracture(polygons)
        fallbacks.add(fracturer.last_fallbacks)
        return out

    def visit(cell, t):
        own = [
            (layer, polys)
            for layer, polys in cell.polygons.items()
            if polys and (layers is None or layer in layers)
        ]
        for layer, polys in own:
            by_layer[layer] = by_layer.get(layer, 0) + len(polys)
        if merge_layers and own:
            own = [(None, [poly for _, polys in own for poly in polys])]
        for key, polys in own:
            if preserves_horizontal(t):
                if (cell.name, key) in blocks:
                    counters["instances_reused"] += 1
                else:
                    blocks[cell.name, key] = fracture(polys)
                    counters["cells_fractured"] += 1
                block = blocks[cell.name, key]
                if not t.is_identity():
                    block = [transform_trapezoid(trap, t) for trap in block]
            else:
                counters["instances_fallback"] += 1
                block = fracture([poly.transformed(t) for poly in polys])
            figures.setdefault(key, []).extend(block)
        for ref in cell.references:
            for p in ref.placements():
                visit(ref.cell, t @ p)

    visit(top, Transform.identity())
    return figures, counters, by_layer, fallbacks


class TestExpansionIsTheWalk:
    @given(hierarchies(), st.booleans(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_figures_and_counters(self, top, merge_layers, filtered):
        layers = {Layer(2)} if filtered else None
        result = fracture_hierarchical(top, layers=layers, merge_layers=merge_layers)
        figures, counters, by_layer, fallbacks = walked(top, layers, merge_layers)
        assert list(result.figures) == list(figures)
        for key, figs in figures.items():
            assert result.figures[key].rows.tobytes() == trapezoid_array(figs).tobytes()
        for name, value in counters.items():
            assert getattr(result, name) == value, name
        assert list(result.source_polygons_by_layer.items()) == list(by_layer.items())
        assert result.source_polygons == sum(by_layer.values())
        assert result.kernel_fallbacks == fallbacks
        assert result.instances_fallback > 0 and result.instances_reused > 0

    @given(st.lists(finite, min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_compose_is_matmul_bit_for_bit(self, values):
        outer, inner = Transform(*values[:6]), Transform(*values[6:])
        composed = compose(as_row(outer), as_row(inner))
        assert composed.tobytes() == as_row(outer @ inner).tobytes()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_placement_matrix_is_the_point_arithmetic(self, data):
        ref = data.draw(placement(Cell("C")))
        expected = [ref.transform()]
        if isinstance(ref, CellArray):
            expected = [
                Transform.translation(offset.x, offset.y) @ expected[0]
                for r in range(ref.rows)
                for c in range(ref.columns)
                for offset in [ref.column_vector * c + ref.row_vector * r]
            ]
        rows = np.concatenate([as_row(t) for t in expected])
        assert ref.placement_matrix().tobytes() == rows.tobytes()
        assert list(ref.placements()) == expected
