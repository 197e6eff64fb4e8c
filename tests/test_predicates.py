"""Tests for repro.geometry.predicates (exact integer predicates)."""

from fractions import Fraction

import pytest

from repro.geometry.predicates import (
    orientation,
    ring_collapses,
    segment_intersection_ys,
    snap,
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


class TestSnap:
    def test_rounds_half_up(self):
        assert snap(0.5, 1.0) == 1
        assert snap(0.49, 1.0) == 0

    def test_negative_symmetric(self):
        assert snap(-0.5, 1.0) == -1
        assert snap(-0.49, 1.0) == 0

    def test_nanometre_grid(self):
        assert snap(1.2345678, 1e-3) == 1235


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


class TestIntersectionYsCases:
    def test_shared_endpoint(self):
        assert segment_intersection_ys((0, 0), (1, 1), (1, 1), (2, 0)) == [
            Fraction(1)
        ]

    def test_t_junction_on_interior(self):
        assert segment_intersection_ys((0, 0), (4, 0), (2, 0), (2, 5)) == [
            Fraction(0)
        ]

    def test_collinear_disjoint_is_empty(self):
        assert segment_intersection_ys((0, 0), (1, 1), (2, 2), (3, 3)) == []

    def test_parallel_is_empty(self):
        assert segment_intersection_ys((0, 0), (2, 2), (0, 1), (2, 3)) == []

    def test_lines_crossing_beyond_the_segments_is_empty(self):
        assert segment_intersection_ys((0, 0), (1, 1), (3, 0), (2, 1)) == []

    def test_order_of_operands_does_not_matter(self):
        p1, p2, q1, q2 = (0, 0), (7, 3), (1, 5), (6, -2)
        assert segment_intersection_ys(p1, p2, q1, q2) == segment_intersection_ys(
            q1, q2, p1, p2
        )

    def test_exact_for_huge_coordinates(self):
        big = 10**15
        ys = segment_intersection_ys((0, 0), (2 * big, 2 * big + 2), (0, 2), (2, 0))
        # x + y = 2 meets the long segment at t = 1 / (2·big + 1).
        assert ys == [Fraction(2 * big + 2, 2 * big + 1)]
