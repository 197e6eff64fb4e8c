"""Tests for the scanline boolean engine."""

import math

import numpy as np
import pytest

from repro.geometry.boolean import (
    boolean_polygons,
    boolean_trapezoids,
    trapezoids_to_polygons,
    union,
)
from repro.geometry.polygon import Polygon


def area_of(traps):
    return sum(t.area() for t in traps)


@pytest.fixture
def a():
    return Polygon.rectangle(0, 0, 10, 10)


@pytest.fixture
def b():
    return Polygon.rectangle(5, 5, 15, 15)


class TestRectanglePairs:
    def test_union_area(self, a, b):
        assert area_of(boolean_trapezoids([a], [b], "or")) == pytest.approx(175.0)

    def test_intersection_area(self, a, b):
        assert area_of(boolean_trapezoids([a], [b], "and")) == pytest.approx(25.0)

    def test_difference_area(self, a, b):
        assert area_of(boolean_trapezoids([a], [b], "sub")) == pytest.approx(75.0)

    def test_xor_area(self, a, b):
        assert area_of(boolean_trapezoids([a], [b], "xor")) == pytest.approx(150.0)

    def test_inclusion_exclusion(self, a, b):
        u = area_of(boolean_trapezoids([a], [b], "or"))
        i = area_of(boolean_trapezoids([a], [b], "and"))
        assert u + i == pytest.approx(a.area() + b.area())

    def test_disjoint_rectangles(self):
        p = Polygon.rectangle(0, 0, 1, 1)
        q = Polygon.rectangle(5, 5, 6, 6)
        assert area_of(boolean_trapezoids([p], [q], "or")) == pytest.approx(2.0)
        assert boolean_trapezoids([p], [q], "and") == []

    def test_identical_rectangles(self, a):
        assert area_of(boolean_trapezoids([a], [a], "or")) == pytest.approx(100.0)
        assert area_of(boolean_trapezoids([a], [a], "xor")) == pytest.approx(0.0)

    def test_contained_rectangle_difference_is_donut(self, a):
        inner = Polygon.rectangle(3, 3, 7, 7)
        traps = boolean_trapezoids([a], [inner], "sub")
        assert area_of(traps) == pytest.approx(84.0)


class TestNonRectilinear:
    def test_triangle_area_preserved(self):
        t = Polygon([(0, 0), (10, 0), (5, 8)])
        assert area_of(boolean_trapezoids([t], [], "or")) == pytest.approx(
            t.area(), rel=1e-6
        )

    def test_rotated_square_self_union(self):
        sq = Polygon.rectangle(0, 0, 10, 10).rotated(math.radians(30))
        assert area_of(boolean_trapezoids([sq], [], "or")) == pytest.approx(
            100.0, rel=1e-4
        )

    def test_triangle_rect_intersection(self):
        t = Polygon([(0, 0), (10, 0), (5, 10)])
        r = Polygon.rectangle(0, 0, 10, 2)
        # Trapezoid with parallel sides 10 (y=0) and 8 (y=2).
        assert area_of(boolean_trapezoids([t], [r], "and")) == pytest.approx(
            18.0, rel=1e-6
        )

    def test_circle_approx_minus_half_plane_box(self):
        angles = [2 * math.pi * i / 128 for i in range(128)]
        circle = Polygon([(5 * math.cos(t), 5 * math.sin(t)) for t in angles])
        box = Polygon.rectangle(-6, 0, 6, 6)
        top = area_of(boolean_trapezoids([circle], [box], "and"))
        assert top == pytest.approx(circle.area() / 2, rel=1e-3)


class TestFillRules:
    def test_overlapping_same_group_nonzero_counts_once(self):
        p = Polygon.rectangle(0, 0, 10, 10)
        q = Polygon.rectangle(5, 0, 15, 10)
        assert area_of(boolean_trapezoids([p, q], [], "or")) == pytest.approx(150.0)

    def test_evenodd_cancels_overlap(self):
        p = Polygon.rectangle(0, 0, 10, 10)
        q = Polygon.rectangle(5, 0, 15, 10)
        traps = boolean_trapezoids([p, q], [], "or", fill_rule="evenodd")
        assert area_of(traps) == pytest.approx(100.0)

    def test_unknown_operation_raises(self, a):
        with pytest.raises(ValueError, match="unknown operation"):
            boolean_trapezoids([a], [], "nand")

    def test_unknown_fill_rule_raises(self, a):
        with pytest.raises(ValueError, match="fill rule"):
            boolean_trapezoids([a], [], "or", fill_rule="winding")


class TestEdgeCases:
    def test_empty_inputs(self):
        assert boolean_trapezoids([], [], "or") == []

    def test_empty_second_operand_difference(self, a):
        assert area_of(boolean_trapezoids([a], [], "sub")) == pytest.approx(100.0)

    def test_difference_with_self_is_empty(self, a):
        assert area_of(boolean_trapezoids([a], [a], "sub")) == pytest.approx(0.0)

    def test_corner_touching_squares(self):
        p = Polygon.rectangle(0, 0, 5, 5)
        q = Polygon.rectangle(5, 5, 10, 10)
        assert area_of(boolean_trapezoids([p], [q], "or")) == pytest.approx(50.0)
        assert area_of(boolean_trapezoids([p], [q], "and")) == pytest.approx(0.0)

    def test_edge_touching_squares_union_merges(self):
        p = Polygon.rectangle(0, 0, 5, 10)
        q = Polygon.rectangle(5, 0, 10, 10)
        traps = boolean_trapezoids([p], [q], "or")
        assert area_of(traps) == pytest.approx(100.0)
        assert len(traps) == 1  # merged into one rectangle

    def test_sub_micron_grid_snapping(self):
        # Features below half a database unit vanish by snapping.
        tiny = Polygon.rectangle(0, 0, 4e-4, 4e-4)
        assert boolean_trapezoids([tiny], [], "or", grid=1e-3) == []

    def test_trapezoids_are_disjoint(self, a, b):
        traps = boolean_trapezoids([a], [b], "or")
        # Pairwise interior-disjoint: sample midpoints cannot be inside
        # another trapezoid.
        polys = [t.to_polygon() for t in traps]
        for i, t in enumerate(traps):
            c = t.centroid()
            for j, p in enumerate(polys):
                if i != j:
                    assert not p.contains_point(c, include_boundary=False)


class TestPolygonReassembly:
    def test_union_single_polygon(self, a, b):
        polys = boolean_polygons([a], [b], "or")
        assert len(polys) == 1
        assert polys[0].area() == pytest.approx(175.0)

    def test_donut_produces_hole(self, a):
        inner = Polygon.rectangle(3, 3, 7, 7)
        polys = boolean_polygons([a], [inner], "sub")
        signed = sorted(p.signed_area() for p in polys)
        assert signed[0] == pytest.approx(-16.0)  # CW hole
        assert signed[1] == pytest.approx(100.0)  # CCW outer

    def test_net_signed_area_equals_trap_area(self, a, b):
        traps = boolean_trapezoids([a], [b], "xor")
        polys = trapezoids_to_polygons(traps)
        assert sum(p.signed_area() for p in polys) == pytest.approx(
            area_of(traps), rel=1e-9
        )

    def test_reassembly_of_checkerboard_corners(self):
        squares = [
            Polygon.rectangle(i * 5, j * 5, i * 5 + 5, j * 5 + 5)
            for i in range(4)
            for j in range(4)
            if (i + j) % 2 == 0
        ]
        traps = boolean_trapezoids(squares, [], "or")
        polys = trapezoids_to_polygons(traps)
        assert sum(p.signed_area() for p in polys) == pytest.approx(8 * 25.0)

    def test_empty_input(self):
        assert trapezoids_to_polygons([]) == []


class TestConvenienceWrappers:
    def test_union_wrapper(self, a, b):
        polys = union([a, b])
        assert sum(p.signed_area() for p in polys) == pytest.approx(175.0)


RING_AREA = {"or": 175.0, "and": 25.0, "sub": 75.0, "xor": 150.0}


def ring_area(polys):
    return sum(p.signed_area() for p in polys)


class TestPolygonResult:
    """``boolean_polygons`` reassembles the engine's trapezoids into
    rings: outer rings counter-clockwise, holes clockwise."""

    @pytest.mark.parametrize("kernel", ["fast", "exact"])
    @pytest.mark.parametrize("operation", sorted(RING_AREA))
    def test_ring_area_per_operation(self, a, b, operation, kernel):
        polys = boolean_polygons([a], [b], operation, kernel=kernel)
        assert ring_area(polys) == pytest.approx(RING_AREA[operation])

    def test_chained_operations(self, a, b):
        both = boolean_polygons([a], [b], "and")
        ring = boolean_polygons(union([a, b]), both, "sub")
        assert ring_area(ring) == pytest.approx(150.0)

    def test_or_with_empty_operand_keeps_first(self, a):
        assert ring_area(boolean_polygons([a], [], "or")) == pytest.approx(100.0)

    def test_and_with_empty_operand_is_empty(self, a):
        assert boolean_polygons([a], [], "and") == []

    def test_empty_operands_give_no_ring(self):
        assert boolean_polygons([], [], "xor") == []

    def test_identical_pair_counts_once(self, a):
        assert ring_area(union([a, a])) == pytest.approx(100.0)

    def test_overlap_resolved_into_one_ring(self):
        p = Polygon.rectangle(0, 0, 10, 10)
        q = Polygon.rectangle(5, 0, 15, 10)
        polys = union([p, q])
        assert len(polys) == 1
        assert polys[0].area() == pytest.approx(150.0)
        assert polys[0].bounding_box() == pytest.approx((0, 0, 15, 10))

    def test_union_bounding_box(self, a, b):
        (ring,) = union([a, b])
        assert ring.bounding_box() == pytest.approx((0, 0, 15, 15))

    def test_union_ring_contains_both_operands(self, a, b):
        (ring,) = union([a, b])
        assert ring.contains_point((2, 2))
        assert ring.contains_point((12, 12))
        assert not ring.contains_point((12, 2))

    def test_disjoint_union_keeps_two_rings(self):
        polys = union(
            [Polygon.rectangle(0, 0, 1, 1), Polygon.rectangle(2, 2, 3, 3)]
        )
        assert len(polys) == 2
        assert ring_area(polys) == pytest.approx(2.0)

    def test_hole_is_a_clockwise_ring(self, a):
        polys = boolean_polygons([a], [Polygon.rectangle(3, 3, 7, 7)], "sub")
        areas = sorted(p.signed_area() for p in polys)
        assert areas == pytest.approx([-16.0, 100.0])

    def test_operands_are_not_mutated(self, a, b):
        before = (a.ring.copy(), b.ring.copy())
        boolean_polygons([a], [b], "xor")
        assert np.array_equal(a.ring, before[0])
        assert np.array_equal(b.ring, before[1])

    def test_rotated_operand_keeps_area(self, a):
        polys = union([a.rotated(math.radians(45))])
        assert ring_area(polys) == pytest.approx(100.0, rel=1e-4)

    def test_translating_operands_translates_result(self, a, b):
        here = boolean_polygons([a], [b], "and")
        there = boolean_polygons(
            [a.translated(100, -40)], [b.translated(100, -40)], "and"
        )
        assert there[0].bounding_box() == pytest.approx(
            tuple(v + d for v, d in zip(here[0].bounding_box(), (100, -40, 100, -40)))
        )


class TestClipToWindow:
    """Clipping a polygon to a window is an ``"and"`` with the window."""

    def test_triangle_clipped_inside_window(self):
        triangle = Polygon([(0, 0), (4, 0), (0, 3)])
        clipped = boolean_polygons(
            [triangle], [Polygon.rectangle(0, 0, 2, 2)], "and"
        )
        assert 0 < ring_area(clipped) < triangle.area()
        for poly in clipped:
            x0, y0, x1, y1 = poly.bounding_box()
            assert x0 >= -1e-9 and y0 >= -1e-9
            assert x1 <= 2 + 1e-9 and y1 <= 2 + 1e-9

    def test_window_beyond_polygon_is_empty(self):
        unit = Polygon.rectangle(0, 0, 1, 1)
        far = Polygon.rectangle(10, 10, 20, 20)
        assert boolean_polygons([unit], [far], "and") == []

    def test_window_around_polygon_keeps_it(self):
        unit = Polygon.rectangle(0, 0, 1, 1)
        clipped = boolean_polygons([unit], [Polygon.rectangle(-1, -1, 2, 2)], "and")
        assert ring_area(clipped) == pytest.approx(1.0)

    def test_half_plane_keeps_inside_half(self):
        unit = Polygon.rectangle(0, 0, 1, 1)
        right = Polygon.rectangle(0.5, -100, 100, 100)
        assert ring_area(boolean_polygons([unit], [right], "and")) == pytest.approx(0.5)

    def test_half_plane_beyond_polygon_is_empty(self):
        unit = Polygon.rectangle(0, 0, 1, 1)
        right = Polygon.rectangle(5, -100, 100, 100)
        assert boolean_polygons([unit], [right], "and") == []
