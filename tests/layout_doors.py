"""One layout input read through every door, for the frozen reader
corpora and mutation sweeps in ``test_gdsii.py`` / ``test_cif.py``.

The three doors are ``loads_*`` on the bytes, ``open_layout_stream`` on
a file run to completion with ``materialize()``, and the lazy
``iter_flat()`` walk over that file.  A *reading* is what a door
answered, as plain literals: :func:`describe` of the library it
returned, or ``(exception type, message)`` for a ``ValueError`` it
raised.  Any other exception escapes and fails the test — a malformed
file must never surface as ``IndexError``/``ZeroDivisionError``.
"""

import random

from repro.layout.cell import Cell
from repro.layout.flatten import flatten_cell
from repro.layout.library import Library
from repro.layout.reference import CellArray
from repro.layout.stream import open_layout_stream


def small_hierarchy():
    """The library the mutation sweeps write and then damage: two cells,
    three layers, a transformed SREF and an AREF."""
    library = Library("T")
    child = Cell("CHILD")
    library.add(child)
    child.add_rectangle(0, 0, 1, 1, 3).add_rectangle(2, 2, 3, 3, (1, 2))
    top = Cell("TOP")
    library.add(top)
    top.add_rectangle(0, 0, 5, 1, 1)
    top.instantiate(child, (3, 4), rotation_deg=90.0, x_reflection=True)
    top.instantiate_array(child, 2, 3, 5.0, 6.0, origin=(1, 1))
    return library


def mutants(data, count, flip_to, seed=1979):
    """``count`` seeded single faults of ``data``: mostly one byte set to
    a value drawn from ``flip_to``, else a truncation or a short cut."""
    rng = random.Random(seed)
    for _ in range(count):
        at = rng.randrange(len(data))
        kind = rng.random()
        if kind < 0.7:
            yield data[:at] + bytes([rng.choice(flip_to)]) + data[at + 1 :]
        elif kind < 0.9:
            yield data[:at]
        else:
            yield data[:at] + data[at + rng.randrange(1, 8) :]


def describe(library):
    """A library as nested literals: units, then per cell (in library
    order) its layers in first-encounter order with exact vertex tuples,
    and its references with every placement parameter."""
    cells = {}
    for cell in library:
        polygons = [
            (layer.key(), vertices(polys)) for layer, polys in cell.polygons.items()
        ]
        references = []
        for ref in cell.references:
            placed = (
                ref.cell.name,
                ref.origin.as_tuple(),
                ref.rotation_deg,
                ref.magnification,
                ref.x_reflection,
            )
            if isinstance(ref, CellArray):
                placed += (
                    ref.columns,
                    ref.rows,
                    ref.column_vector.as_tuple(),
                    ref.row_vector.as_tuple(),
                )
            references.append(placed)
        cells[cell.name] = (polygons, references)
    return (library.name, library.unit, library.precision), cells


def vertices(polygons):
    return [tuple(v.as_tuple() for v in poly.vertices) for poly in polygons]


def reading(door):
    """What ``door()`` answered: its value, or the ValueError it raised."""
    try:
        return door()
    except ValueError as exc:
        return type(exc), str(exc)


def rejected(answer):
    """True when a reading is a raised ``(exception type, message)``."""
    return isinstance(answer, tuple) and isinstance(answer[0], type)


def read_through_all_doors(data, path, loads, same_walk_error=True):
    """Write ``data`` to ``path``, read it through all three doors,
    assert they agree, and return the (described) reading.

    The walk is lazy: it looks the top cell up before it parses any
    polygon, so on a file with several faults it may stop at another
    ``ValueError`` than the complete read does.  The mutation sweeps
    pass ``same_walk_error=False`` to ask only that it is rejected too.
    """

    def streamed():
        with open_layout_stream(path) as stream:
            return describe(stream.materialize())

    def walked():
        with open_layout_stream(path) as stream:
            return vertices(stream.iter_flat())

    def flattened():
        flat = flatten_cell(loads(data).top_cell())
        return vertices(poly for polys in flat.values() for poly in polys)

    path.write_bytes(data)
    resident = reading(lambda: describe(loads(data)))
    assert reading(streamed) == resident
    if rejected(resident) and not same_walk_error:
        assert rejected(reading(walked))
    else:
        assert reading(walked) == reading(flattened)
    return resident
