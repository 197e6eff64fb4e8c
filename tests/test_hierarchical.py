"""Tests for hierarchical fracturing."""

import math

import pytest

from repro.core.hierarchical import (
    fracture_hierarchical,
    preserves_horizontal,
    transform_trapezoid,
)
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.transform import Transform
from repro.geometry.trapezoid import Trapezoid
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell


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
