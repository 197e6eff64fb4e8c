"""Hierarchy and data-volume statistics for layouts."""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.flatten import expand
from repro.layout.library import Library


@dataclass
class HierarchyStats:
    """Summary statistics of a layout hierarchy.

    Attributes:
        cell_count: distinct cells in the library.
        reference_count: total reference records (arrays count once).
        instance_count: total expanded cell instances.
        hierarchical_polygons: polygon records stored in cells.
        flat_polygons: polygons after full flattening.
        hierarchical_vertices: vertices stored in cells.
        flat_vertices: vertices after full flattening.
        depth: longest reference chain (1 = flat).
        compaction_ratio: flat/hierarchical polygon ratio — the data
            explosion a flat machine format suffers.
    """

    cell_count: int
    reference_count: int
    instance_count: int
    hierarchical_polygons: int
    flat_polygons: int
    hierarchical_vertices: int
    flat_vertices: int
    depth: int

    @property
    def compaction_ratio(self) -> float:
        if self.hierarchical_polygons == 0:
            return 1.0
        return self.flat_polygons / self.hierarchical_polygons


def library_stats(library: Library) -> HierarchyStats:
    """Compute :class:`HierarchyStats` for a library's unique top cell,
    the flat counts from the hierarchy's expansion (each cell's own
    counts times its instances)."""
    instances = flat_polygons = flat_vertices = 0
    for cell, rows, _ in expand(library.top_cell()):
        instances += len(rows)
        flat_polygons += len(rows) * cell.polygon_count()
        flat_vertices += len(rows) * cell.vertex_count()
    return HierarchyStats(
        cell_count=len(library),
        reference_count=sum(c.reference_count() for c in library),
        instance_count=instances,
        hierarchical_polygons=sum(c.polygon_count() for c in library),
        flat_polygons=flat_polygons,
        hierarchical_vertices=sum(c.vertex_count() for c in library),
        flat_vertices=flat_vertices,
        depth=library.depth(),
    )
