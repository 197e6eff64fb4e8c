"""Tests for repro.layout.flatten."""

import pytest

from repro.layout.cell import Cell
from repro.layout.flatten import flat_area, flatten_cell
from repro.layout.layer import Layer


@pytest.fixture
def two_level():
    leaf = Cell("LEAF")
    leaf.add_rectangle(0, 0, 2, 1, layer=1)
    leaf.add_rectangle(0, 2, 1, 3, layer=2)
    top = Cell("TOP")
    top.add_rectangle(-5, -5, -4, -4, layer=1)
    top.instantiate(leaf, (10, 0))
    top.instantiate(leaf, (0, 10), rotation_deg=90)
    return top


class TestFlattening:
    def test_counts(self, two_level):
        flat = flatten_cell(two_level)
        assert sum(map(len, flat.values())) == 5
        assert sum(len(p) for polys in flat.values() for p in polys) == 20

    def test_layers_preserved(self, two_level):
        flat = flatten_cell(two_level)
        assert Layer(1) in flat
        assert Layer(2) in flat
        assert len(flat[Layer(1)]) == 3

    def test_area_preserved(self, two_level):
        flat = flatten_cell(two_level)
        assert flat_area(flat) == pytest.approx(1 + 2 * 3.0)
        assert flat_area(flat, Layer(2)) == pytest.approx(2.0)

    def test_transform_applied(self, two_level):
        flat = flatten_cell(two_level)
        boxes = [p.bounding_box() for p in flat[Layer(1)]]
        assert any(b == pytest.approx((10, 0, 12, 1)) for b in boxes)
        # Rotated placement: rectangle rotated 90° about (0, 10).
        assert any(b == pytest.approx((-1, 10, 0, 12)) for b in boxes)

    def test_layer_filter(self, two_level):
        flat = flatten_cell(two_level, layers={Layer(2)})
        assert list(flat) == [Layer(2)]

    def test_cycle_detection(self):
        a, b = Cell("A"), Cell("B")
        a.instantiate(b, (0, 0))
        b.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match="cycle"):
            flatten_cell(a)

    def test_nested_arrays_expand(self):
        leaf = Cell("LEAF")
        leaf.add_rectangle(0, 0, 1, 1)
        mid = Cell("MID")
        mid.instantiate_array(leaf, 3, 1, 2.0, 2.0)
        top = Cell("TOP")
        top.instantiate_array(mid, 1, 4, 10.0, 10.0)
        flat = flatten_cell(top)
        assert sum(map(len, flat.values())) == 12
