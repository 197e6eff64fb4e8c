"""Tests for repro.geometry.predicates (exact integer predicates)."""

from fractions import Fraction

import pytest

from repro.geometry.predicates import (
    bounding_boxes_overlap,
    on_segment,
    orientation,
    point_in_polygon,
    ring_collapses,
    segment_intersection_ys,
    segments_intersect,
    snap,
    x_at_y,
)


class TestOrientation:
    def test_ccw(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1

    def test_cw(self):
        assert orientation((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_exact_for_huge_coordinates(self):
        big = 10**15
        assert orientation((0, 0), (big, 1), (2 * big, 2)) == 0
        assert orientation((0, 0), (big, 1), (2 * big, 3)) == 1


class TestSegments:
    def test_proper_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_shared_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (4, 0), (2, 0), (6, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_on_segment(self):
        assert on_segment((0, 0), (1, 1), (2, 2))
        assert not on_segment((0, 0), (3, 3), (2, 2))


class TestIntersectionYs:
    def test_proper_crossing_midpoint(self):
        ys = segment_intersection_ys((0, 0), (2, 2), (0, 2), (2, 0))
        assert ys == [Fraction(1)]

    def test_non_crossing_empty(self):
        assert segment_intersection_ys((0, 0), (1, 1), (5, 5), (6, 6)) == []

    def test_fractional_crossing_is_exact(self):
        ys = segment_intersection_ys((0, 0), (3, 1), (1, 1), (1, -1))
        assert ys == [Fraction(1, 3)]

    def test_collinear_overlap_returns_extremes(self):
        ys = segment_intersection_ys((0, 0), (0, 4), (0, 2), (0, 6))
        assert ys == [Fraction(2), Fraction(4)]


class TestXAtY:
    def test_interpolation(self):
        assert x_at_y((0, 0), (4, 2), Fraction(1)) == Fraction(2)

    def test_exact_fraction(self):
        assert x_at_y((0, 0), (1, 3), Fraction(1)) == Fraction(1, 3)

    def test_horizontal_raises(self):
        with pytest.raises(ValueError):
            x_at_y((0, 0), (4, 0), Fraction(0))


class TestPointInPolygon:
    SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]

    def test_inside(self):
        assert point_in_polygon((5, 5), self.SQUARE) == 1

    def test_outside(self):
        assert point_in_polygon((15, 5), self.SQUARE) == 0

    def test_on_edge(self):
        assert point_in_polygon((5, 0), self.SQUARE) == -1

    def test_on_vertex(self):
        assert point_in_polygon((0, 0), self.SQUARE) == -1

    def test_cw_polygon_nonzero(self):
        cw = list(reversed(self.SQUARE))
        assert point_in_polygon((5, 5), cw) == 1


class TestSnap:
    def test_rounds_half_up(self):
        assert snap(0.5, 1.0) == 1
        assert snap(0.49, 1.0) == 0

    def test_negative_symmetric(self):
        assert snap(-0.5, 1.0) == -1
        assert snap(-0.49, 1.0) == 0

    def test_nanometre_grid(self):
        assert snap(1.2345678, 1e-3) == 1235


class TestBBoxOverlap:
    def test_overlapping(self):
        assert bounding_boxes_overlap((0, 0), (2, 2), (1, 1), (3, 3))

    def test_touching_edges_count(self):
        assert bounding_boxes_overlap((0, 0), (1, 1), (1, 0), (2, 1))

    def test_disjoint(self):
        assert not bounding_boxes_overlap((0, 0), (1, 1), (2, 2), (3, 3))


class TestRingCollapses:
    @pytest.mark.parametrize(
        "xy, collapses",
        [
            ([0, 0, 2, 2, 2, 0, 0, 2], False),  # a bow-tie: both lobes fill
            ([0, 0, 2, 2, 2, 0, 0, 2, 0, 0], False),  # the same, closed
            # a box, then the same box reversed: winding 0 everywhere
            ([0, 0, 2, 0, 2, 1, 0, 1, 0, 0, 0, 1, 2, 1, 2, 0], True),
        ],
    )
    def test_zero_signed_area_asks_the_fill_rule(self, xy, collapses):
        assert ring_collapses(xy) == collapses
