"""Library: a named collection of cells with physical units."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.layout.cell import Cell


class Library:
    """A collection of uniquely named cells plus unit metadata.

    Attributes:
        name: library name (GDSII ``LIBNAME``).
        unit: size of one user unit in metres (1e-6 = µm, the default).
        precision: size of one database unit in metres (1e-9 = nm).
    """

    __slots__ = ("name", "unit", "precision", "cells")

    def __init__(
        self,
        name: str = "LIB",
        unit: float = 1e-6,
        precision: float = 1e-9,
    ) -> None:
        if unit <= 0 or precision <= 0:
            raise ValueError("unit and precision must be positive")
        if precision > unit:
            raise ValueError("precision must not exceed unit")
        self.name = name
        self.unit = unit
        self.precision = precision
        self.cells: Dict[str, Cell] = {}

    @property
    def grid(self) -> float:
        """Database unit expressed in user units (the boolean-engine grid)."""
        return self.precision / self.unit

    # -- cell management -----------------------------------------------

    def add(self, *cells: Cell, include_descendants: bool = True) -> "Library":
        """Add cells (and by default their descendants) to the library.

        Raises:
            ValueError: on a name collision with a *different* cell object.
        """
        pending: List[Cell] = list(cells)
        while pending:
            cell = pending.pop()
            existing = self.cells.get(cell.name)
            if existing is not None and existing is not cell:
                raise ValueError(f"cell name collision: {cell.name!r}")
            self.cells[cell.name] = cell
            if include_descendants:
                pending.extend(
                    c for c in cell.children() if self.cells.get(c.name) is not c
                )
        return self

    def __getitem__(self, name: str) -> Cell:
        return self.cells[name]

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def __len__(self) -> int:
        return len(self.cells)

    # -- hierarchy ---------------------------------------------------------

    def hierarchy_graph(self) -> Dict[str, Tuple[str, ...]]:
        """Parent → referenced cell names, one entry per library cell.

        Children are distinct and in first-reference order; a child
        that is not itself in the library has no entry (it is a leaf).
        """
        return {
            name: tuple(dict.fromkeys(ref.cell.name for ref in cell.references))
            for name, cell in self.cells.items()
        }

    def _chain_lengths(self) -> Dict[str, int]:
        """Longest reference chain starting at each cell (1 for a leaf).

        One iterative depth-first walk (a deep hierarchy must not hit
        the recursion limit) that memoises per cell and raises
        ``ValueError`` on the first back edge, naming the closed path.
        """
        graph = self.hierarchy_graph()
        length: Dict[str, int] = {}
        for root in graph:
            if root in length:
                continue
            path = [root]
            on_path = {root}
            pending = [iter(graph[root])]
            while pending:
                for child in pending[-1]:
                    if child in on_path:
                        cycle = path[path.index(child) :] + [child]
                        raise ValueError(
                            "reference cycle in library: " + " -> ".join(cycle)
                        )
                    if child not in length:
                        path.append(child)
                        on_path.add(child)
                        pending.append(iter(graph.get(child, ())))
                        break
                else:
                    pending.pop()
                    done = path.pop()
                    on_path.remove(done)
                    length[done] = 1 + max(
                        (length[c] for c in graph.get(done, ())), default=0
                    )
        return length

    def check_acyclic(self) -> None:
        """Raise ``ValueError`` if any reference cycle exists."""
        self._chain_lengths()

    def top_cells(self) -> List[Cell]:
        """Cells that are not referenced by any other cell."""
        referenced = {
            child
            for children in self.hierarchy_graph().values()
            for child in children
        }
        return [cell for name, cell in self.cells.items() if name not in referenced]

    def top_cell(self) -> Cell:
        """The unique top cell.

        Raises:
            ValueError: if the library has zero or multiple top cells.
        """
        tops = self.top_cells()
        if len(tops) != 1:
            names = [c.name for c in tops]
            raise ValueError(f"expected exactly one top cell, found {names}")
        return tops[0]

    def depth(self) -> int:
        """Longest reference chain (1 for a flat library)."""
        return max(self._chain_lengths().values(), default=0)

    def __repr__(self) -> str:
        return (
            f"Library({self.name!r}, cells={len(self.cells)}, "
            f"unit={self.unit:g}, precision={self.precision:g})"
        )
