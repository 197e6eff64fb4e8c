"""Tests for repro.geometry.trapezoid."""


import pytest

from repro.geometry.trapezoid import Trapezoid


@pytest.fixture
def rect():
    return Trapezoid.from_rectangle(0, 0, 4, 2)


@pytest.fixture
def slanted():
    # Bottom [0, 10], top [2, 8]: an isosceles trapezoid of height 2.
    return Trapezoid(0, 2, 0, 10, 2, 8)


class TestConstruction:
    def test_validates_height(self):
        with pytest.raises(ValueError):
            Trapezoid(1, 1, 0, 1, 0, 1)
        with pytest.raises(ValueError):
            Trapezoid(2, 1, 0, 1, 0, 1)

    def test_validates_x_order(self):
        with pytest.raises(ValueError):
            Trapezoid(0, 1, 5, 0, 0, 1)

    def test_rectangle_constructor_sorts(self):
        t = Trapezoid.from_rectangle(4, 2, 0, 0)
        assert t.bounding_box() == (0, 0, 4, 2)


class TestMeasures:
    def test_rect_area(self, rect):
        assert rect.area() == 8.0

    def test_slanted_area(self, slanted):
        assert slanted.area() == (10 + 6) / 2 * 2

    def test_triangle_degenerate_top(self):
        t = Trapezoid(0, 3, 0, 6, 3, 3)
        assert t.area() == 9.0

    def test_bounding_box(self, slanted):
        assert slanted.bounding_box() == (0, 0, 10, 2)

    def test_centroid_of_rect(self, rect):
        c = rect.centroid()
        assert c.almost_equals((2, 1))

    def test_is_rectangle(self, rect, slanted):
        assert rect.is_rectangle()
        assert not slanted.is_rectangle()

    def test_is_degenerate(self):
        t = Trapezoid(0, 1, 5, 5, 5, 5)
        assert t.is_degenerate()


class TestOperations:
    def test_to_polygon_area_matches(self, slanted):
        assert slanted.to_polygon().area() == pytest.approx(slanted.area())

    def test_to_polygon_collapses_triangle_tip(self):
        t = Trapezoid(0, 3, 0, 6, 3, 3)
        assert len(t.to_polygon()) == 3

    def test_translated(self, rect):
        t = rect.translated(10, 5)
        assert t.bounding_box() == (10, 5, 14, 7)
        assert t.area() == rect.area()

    def test_split_at_y_preserves_area(self, slanted):
        lower, upper = slanted.split_at_y(0.75)
        assert lower.area() + upper.area() == pytest.approx(slanted.area())
        assert lower.y_top == 0.75
        assert upper.y_bottom == 0.75
        # The cut edge widths must agree.
        assert lower.x_top_left == upper.x_bottom_left
        assert lower.x_top_right == upper.x_bottom_right

    def test_split_outside_raises(self, rect):
        with pytest.raises(ValueError):
            rect.split_at_y(5.0)

    def test_equality_and_hash(self, rect):
        same = Trapezoid.from_rectangle(0, 0, 4, 2)
        assert rect == same
        assert hash(rect) == hash(same)


class TestAgreesWithItsPolygon:
    """A trapezoid's measures are those of the ring it stands for."""

    @pytest.mark.parametrize(
        "fields",
        [(0, 2, 0, 10, 2, 8), (1, 4, -3, 5, 0, 9), (0, 3, 0, 6, 3, 3)],
    )
    def test_bounding_box_and_centroid(self, fields):
        t = Trapezoid(*fields)
        ring = t.to_polygon()
        assert t.bounding_box() == pytest.approx(ring.bounding_box())
        assert t.centroid().almost_equals(ring.centroid(), tol=1e-9)

    def test_split_pieces_cover_the_bounding_box(self, slanted):
        lower, upper = slanted.split_at_y(1.5)
        boxes = (lower.bounding_box(), upper.bounding_box())
        x0, y0, x1, y1 = slanted.bounding_box()
        assert min(b[0] for b in boxes) == x0
        assert max(b[2] for b in boxes) == x1
        assert (boxes[0][1], boxes[1][3]) == (y0, y1)
