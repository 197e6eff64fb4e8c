"""Tests for repro.layout.cell."""

import pytest

from repro.geometry.polygon import Polygon
from repro.layout.cell import Cell
from repro.layout.layer import Layer


@pytest.fixture
def leaf():
    cell = Cell("LEAF")
    cell.add_rectangle(0, 0, 2, 1)
    return cell


class TestBuilding:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Cell("")

    def test_add_polygon_chains(self):
        cell = Cell("A")
        result = cell.add_polygon(Polygon.rectangle(0, 0, 1, 1))
        assert result is cell
        assert cell.polygon_count() == 1

    def test_layer_coercion(self):
        cell = Cell("A")
        cell.add_rectangle(0, 0, 1, 1, layer=3)
        assert cell.layers() == [Layer(3, 0)]

    def test_instantiate(self, leaf):
        top = Cell("TOP")
        top.instantiate(leaf, (10, 0), rotation_deg=90)
        assert top.reference_count() == 1
        assert top.instance_count() == 1

    def test_instantiate_array(self, leaf):
        top = Cell("TOP")
        top.instantiate_array(leaf, 4, 3, 5.0, 5.0)
        assert top.reference_count() == 1
        assert top.instance_count() == 12


class TestQueries:
    def test_vertex_count(self, leaf):
        assert leaf.vertex_count() == 4

    def test_children_unique(self, leaf):
        top = Cell("TOP")
        top.instantiate(leaf, (0, 0))
        top.instantiate(leaf, (5, 0))
        assert len(top.children()) == 1

    def test_area_by_layer(self):
        cell = Cell("A")
        cell.add_rectangle(0, 0, 2, 2, layer=1)
        cell.add_rectangle(0, 0, 3, 1, layer=2)
        assert cell.area(layer=1) == pytest.approx(4.0)
        assert cell.area(layer=2) == pytest.approx(3.0)
        assert cell.area() == pytest.approx(7.0)


class TestBoundingBox:
    def test_empty_cell_has_no_bbox(self):
        assert Cell("EMPTY").bounding_box() is None

    def test_direct_polygons(self, leaf):
        assert leaf.bounding_box() == (0, 0, 2, 1)

    def test_includes_translated_reference(self, leaf):
        top = Cell("TOP")
        top.instantiate(leaf, (10, 10))
        assert top.bounding_box() == (10, 10, 12, 11)

    def test_includes_rotated_reference(self, leaf):
        top = Cell("TOP")
        top.instantiate(leaf, (0, 0), rotation_deg=90)
        x0, y0, x1, y1 = top.bounding_box()
        assert (x0, y0) == pytest.approx((-1, 0))
        assert (x1, y1) == pytest.approx((0, 2))

    def test_includes_array_extent(self, leaf):
        top = Cell("TOP")
        top.instantiate_array(leaf, 3, 2, 10.0, 10.0)
        assert top.bounding_box() == (0, 0, 22, 11)

    def test_reference_to_empty_child_ignored(self):
        top = Cell("TOP")
        top.instantiate(Cell("EMPTY"), (5, 5))
        assert top.bounding_box() is None
