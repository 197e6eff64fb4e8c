"""Tests for repro.layout.library."""

import pytest

from repro.layout.cell import Cell
from repro.layout.library import Library


def make_chain(depth: int):
    """A linear hierarchy CHAIN_0 -> CHAIN_1 -> ... of given depth."""
    cells = [Cell(f"CHAIN_{i}") for i in range(depth)]
    for parent, child in zip(cells, cells[1:]):
        parent.instantiate(child, (0, 0))
    cells[-1].add_rectangle(0, 0, 1, 1)
    return cells


class TestUnits:
    def test_defaults_micron_nanometre(self):
        lib = Library()
        assert lib.unit == 1e-6
        assert lib.precision == 1e-9
        assert lib.grid == pytest.approx(1e-3)

    def test_validates_units(self):
        with pytest.raises(ValueError):
            Library(unit=0)
        with pytest.raises(ValueError):
            Library(unit=1e-9, precision=1e-6)


class TestCellManagement:
    def test_add_includes_descendants(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        assert len(lib) == 3
        assert "CHAIN_2" in lib

    def test_add_rejects_name_collision(self):
        lib = Library()
        lib.add(Cell("X"))
        with pytest.raises(ValueError, match="collision"):
            lib.add(Cell("X"))

    def test_add_same_object_idempotent(self):
        lib = Library()
        cell = Cell("X")
        lib.add(cell)
        lib.add(cell)
        assert len(lib) == 1

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            Library()["NOPE"]


class TestHierarchy:
    def test_top_cells(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        tops = lib.top_cells()
        assert [c.name for c in tops] == ["CHAIN_0"]
        assert lib.top_cell() is cells[0]

    def test_multiple_tops_raises(self):
        lib = Library()
        lib.add(Cell("A"), Cell("B"))
        with pytest.raises(ValueError, match="one top cell"):
            lib.top_cell()

    def test_depth(self):
        cells = make_chain(4)
        lib = Library()
        lib.add(cells[0])
        assert lib.depth() == 4

    def test_depth_flat(self):
        lib = Library()
        lib.add(Cell("ONLY"))
        assert lib.depth() == 1

    def test_check_acyclic_passes(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        lib.check_acyclic()

    def test_check_acyclic_detects_cycle(self):
        a, b = Cell("A"), Cell("B")
        a.instantiate(b, (0, 0))
        lib = Library()
        lib.add(a)
        # Introduce the cycle after adding to dodge add()'s traversal.
        b.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match="cycle"):
            lib.check_acyclic()

    def test_hierarchy_graph_edges(self):
        cells = make_chain(3)
        lib = Library()
        lib.add(cells[0])
        graph = lib.hierarchy_graph()
        assert "CHAIN_1" in graph["CHAIN_0"]
        assert "CHAIN_2" in graph["CHAIN_1"]
        assert "CHAIN_0" not in graph["CHAIN_2"]

    def test_cycle_report_is_a_closed_path_of_real_references(self):
        cells = {name: Cell(name) for name in "ABCDE"}
        lib = Library()
        lib.add(*cells.values())
        # E -> A -> B -> C -> D -> B: the cycle is B -> C -> D -> B, and
        # it is entered from outside (A, E are not on it).
        for parent, child in ["EA", "AB", "BC", "CD", "DB"]:
            cells[parent].instantiate(cells[child], (0, 0))
        with pytest.raises(ValueError) as info:
            lib.check_acyclic()
        prefix = "reference cycle in library: "
        assert str(info.value).startswith(prefix)
        path = str(info.value)[len(prefix) :].split(" -> ")
        assert len(path) >= 4 and path[0] == path[-1]
        for parent, child in zip(path, path[1:]):
            assert child in {r.cell.name for r in cells[parent].references}
        with pytest.raises(ValueError, match="cycle"):
            lib.depth()

    def test_self_reference_is_a_cycle(self):
        a = Cell("A")
        lib = Library()
        lib.add(a)
        a.instantiate(a, (0, 0))
        with pytest.raises(ValueError, match="A -> A"):
            lib.check_acyclic()
        assert lib.top_cells() == []

    def test_depth_of_diamond(self):
        # TOP -> L -> LEAF and TOP -> R -> MID -> LEAF: longest chain 4.
        top, left, right, mid, leaf = (
            Cell(n) for n in ("TOP", "L", "R", "MID", "LEAF")
        )
        top.instantiate(left, (0, 0))
        top.instantiate(right, (0, 0))
        left.instantiate(leaf, (0, 0))
        right.instantiate(mid, (0, 0))
        mid.instantiate(leaf, (0, 0))
        lib = Library()
        lib.add(top)
        lib.check_acyclic()
        assert lib.depth() == 4
        assert lib.top_cells() == [top]

    def test_depth_empty(self):
        assert Library().depth() == 0

    def test_two_tops_in_insertion_order(self):
        shared = Cell("SHARED")
        first, second = Cell("Z_FIRST"), Cell("A_SECOND")
        first.instantiate(shared, (0, 0))
        second.instantiate(shared, (0, 0))
        second.instantiate(shared, (5, 0))
        lib = Library()
        lib.add(first, include_descendants=False)
        lib.add(shared, second)
        assert [c.name for c in lib.top_cells()] == ["Z_FIRST", "A_SECOND"]
        assert lib.depth() == 2

    def test_reference_outside_library_is_a_leaf(self):
        parent, outside = Cell("PARENT"), Cell("OUTSIDE")
        parent.instantiate(outside, (0, 0))
        lib = Library()
        lib.add(parent, include_descendants=False)
        assert lib.top_cells() == [parent]
        assert lib.depth() == 2

    def test_deep_chain_does_not_recurse(self):
        cells = make_chain(2000)
        lib = Library()
        lib.add(cells[0])
        lib.check_acyclic()
        assert lib.depth() == 2000
        assert lib.top_cell() is cells[0]
