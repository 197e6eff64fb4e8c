"""Hierarchy expansion: every cell instance of a hierarchy as arrays.

:func:`expand` is the one expansion every door reads — the cells door
(:func:`~repro.core.hierarchical.fracture_hierarchical`), the resident
and streamed flat doors (:meth:`~repro.layout.cursor.LayoutStream.iter_flat`)
and :func:`~repro.layout.stats.library_stats`.  It builds no
:class:`Transform` per placement: each reference edge, visited once
parents first, carries all of its instances as one ``(n, 6)`` array of
affine rows.  :func:`flatten_cell` is the per-placement walk it
replaces, kept as its oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform, compose
from repro.layout.cell import Cell
from repro.layout.layer import Layer

FlatLayers = Dict[Layer, List[Polygon]]

#: ``(cell, rows, ranks)``: one cell's instances (see :func:`expand`).
Placed = Tuple[Cell, np.ndarray, np.ndarray]


def expand(top: Cell) -> Iterator[Placed]:
    """Every instance under ``top``, one cell at a time, parents first.

    Yields ``(cell, rows, ranks)`` for each cell of the hierarchy:
    ``rows`` are its instances' ``(n, 6)`` affine rows ``(a, b, c, d,
    e, f)``, the placement matrices composed along each path
    (:func:`~repro.geometry.transform.compose`, bit for bit the
    :class:`Transform` products of :func:`flatten_cell`'s walk), and
    ``ranks`` their sorted positions in that walk's pre-order (``top``
    is rank 0).  The instances a cell's subtree holds fix each child's
    rank, so no placement is visited one by one.

    Raises:
        ValueError: if the hierarchy contains a reference cycle (with
            :func:`flatten_cell`'s text).
    """
    sizes: Dict[int, int] = {}  # per cell, the instances of one placed subtree
    cells: List[Cell] = []  # in first-completion order: children first

    def size(cell: Cell, path: Tuple[str, ...]) -> int:
        if cell.name in path:
            cycle = " -> ".join(path + (cell.name,))
            raise ValueError(f"reference cycle while flattening: {cycle}")
        if id(cell) not in sizes:
            below = path + (cell.name,)
            sizes[id(cell)] = 1 + sum(
                ref.placement_count() * size(ref.cell, below) for ref in cell.references
            )
            cells.append(cell)
        return sizes[id(cell)]

    size(top, ())
    # Per cell, the (rows, ranks) of its instances from every parent edge.
    identity = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    arrivals = {id(top): [(identity, np.zeros(1, np.int64))]}
    for cell in reversed(cells):
        (rows, ranks), *more = arrivals.pop(id(cell))
        if more:  # one edge's instances come in rank order already
            rows, ranks = map(np.concatenate, zip((rows, ranks), *more))
            order = np.argsort(ranks)
            rows, ranks = rows[order], ranks[order]
        yield cell, rows, ranks
        rank = ranks + 1
        for ref in cell.references:
            span, matrix = sizes[id(ref.cell)], ref.placement_matrix()
            child = compose(rows[:, None], matrix[None]).reshape(-1, 6)
            at = rank[:, None] + span * np.arange(len(matrix))
            arrivals.setdefault(id(ref.cell), []).append((child, at.ravel()))
            rank = rank + span * len(matrix)


def layer_order(placed: Sequence[Placed], layers_of: Callable[[Cell], list]) -> list:
    """The layers of ``placed`` cells (``layers_of(cell)`` each) in the
    order :func:`flatten_cell`'s walk first meets them: by the first
    rank of a cell that holds one, then by its place in that cell's list."""
    first: Dict[object, Tuple[int, int]] = {}
    for cell, _, ranks in placed:
        for place, layer in enumerate(layers_of(cell)):
            met = (int(ranks[0]), place)
            first[layer] = min(first.get(layer, met), met)
    return sorted(first, key=first.__getitem__)


def flatten_cell(cell: Cell, layers: Optional[Set[Layer]] = None) -> FlatLayers:
    """Flatten ``cell`` and descendants into per-layer polygon lists.

    The per-placement walk, kept as the oracle of :func:`expand` and
    of the doors that read it.

    Args:
        cell: root of the (sub)hierarchy to flatten.
        layers: restrict output to these layers (all when ``None``).

    Returns:
        Mapping of layer to transformed polygons.

    Raises:
        ValueError: if the hierarchy contains a reference cycle.
    """
    result: FlatLayers = {}
    _flatten_into(cell, Transform.identity(), result, layers, path=())
    return result


def _flatten_into(
    cell: Cell,
    transform: Transform,
    result: FlatLayers,
    layers: Optional[Set[Layer]],
    path: Tuple[str, ...],
) -> None:
    if cell.name in path:
        cycle = " -> ".join(path + (cell.name,))
        raise ValueError(f"reference cycle while flattening: {cycle}")
    identity = transform.is_identity()
    for layer, polys in cell.polygons.items():
        if layers is not None and layer not in layers:
            continue
        bucket = result.setdefault(layer, [])
        if identity:
            bucket.extend(polys)
        else:
            bucket.extend(p.transformed(transform) for p in polys)
    for ref in cell.references:
        for placement in ref.placements():
            _flatten_into(
                ref.cell, transform @ placement, result, layers, path + (cell.name,)
            )


def flat_area(flat: FlatLayers, layer: Optional[Layer] = None) -> float:
    """Raw polygon area of a flattened result (overlaps counted multiply)."""
    if layer is not None:
        return sum(p.area() for p in flat.get(layer, []))
    return sum(p.area() for v in flat.values() for p in v)
