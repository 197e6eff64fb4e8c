"""Hypothesis strategies that draw whole layouts from the workload
generators (:mod:`repro.layout.generators`), plus shared geometry test
helpers.

Shared by the writer round-trip property tests: instead of hand-rolled
random polygons, these sweep the *parameter spaces* of the canonical
pattern families — gratings, contact arrays (flat and hierarchical),
serpentines, checkerboards, zone plates and random logic — so format
round-trips are exercised on realistic hierarchies, AREFs and curved
data rather than toy rectangles.
"""

import numpy as np
from hypothesis import strategies as st

from repro.geometry.polygon import Polygon
from repro.layout import generators
from repro.layout.flatten import flatten_cell


def flat_perimeter(cell):
    """Total perimeter of a cell's flattened polygons — the scale factor
    for quantization-induced area drift in format round-trip tests."""
    flat = flatten_cell(cell)
    return sum(
        float(np.hypot(*(np.roll(p.ring, -1, axis=0) - p.ring).T).sum())
        for v in flat.values()
        for p in v
    )


def grid_of_squares(cols, rows, pitch=10.0, side=4.0):
    """A disjoint ``cols × rows`` square array — the canonical cleanly
    shardable layout for executor/cache tests."""
    return [
        Polygon.rectangle(
            c * pitch, r * pitch, c * pitch + side, r * pitch + side
        )
        for r in range(rows)
        for c in range(cols)
    ]


@st.composite
def grating_libraries(draw):
    return generators.grating(
        pitch=draw(st.floats(min_value=0.5, max_value=4.0)),
        duty=draw(st.floats(min_value=0.1, max_value=0.9)),
        lines=draw(st.integers(min_value=1, max_value=12)),
        length=draw(st.floats(min_value=1.0, max_value=40.0)),
    )


@st.composite
def contact_libraries(draw):
    size = draw(st.floats(min_value=0.5, max_value=2.0))
    return generators.contact_array(
        size=size,
        pitch=size * draw(st.floats(min_value=1.0, max_value=4.0)),
        columns=draw(st.integers(min_value=1, max_value=6)),
        rows=draw(st.integers(min_value=1, max_value=6)),
        hierarchical=draw(st.booleans()),
    )


@st.composite
def serpentine_libraries(draw):
    width = draw(st.floats(min_value=0.5, max_value=1.5))
    return generators.serpentine(
        wire_width=width,
        pitch=width * draw(st.floats(min_value=2.0, max_value=5.0)),
        turns=draw(st.integers(min_value=1, max_value=10)),
        length=draw(st.floats(min_value=5.0, max_value=40.0)),
    )


@st.composite
def checkerboard_libraries(draw):
    return generators.checkerboard(
        cells=draw(st.integers(min_value=1, max_value=6)),
        square=draw(st.floats(min_value=1.0, max_value=8.0)),
    )


@st.composite
def zone_plate_libraries(draw):
    return generators.fresnel_zone_plate(
        zones=draw(st.integers(min_value=2, max_value=8)),
        points_per_arc=draw(st.integers(min_value=8, max_value=24)),
    )


@st.composite
def logic_libraries(draw):
    return generators.random_logic(
        chip_size=draw(st.floats(min_value=20.0, max_value=60.0)),
        target_density=draw(st.floats(min_value=0.05, max_value=0.25)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@st.composite
def memory_libraries(draw):
    return generators.memory_array(
        words=draw(st.integers(min_value=1, max_value=4)),
        bits=draw(st.integers(min_value=1, max_value=4)),
        blocks=(
            draw(st.integers(min_value=1, max_value=3)),
            draw(st.integers(min_value=1, max_value=3)),
        ),
    )


def flat_libraries():
    """Workload families that produce a single flat cell (no references
    or arrays) — layouts with no serialization-order freedom."""
    return st.one_of(
        grating_libraries(),
        serpentine_libraries(),
        checkerboard_libraries(),
        zone_plate_libraries(),
        logic_libraries(),
    )


def generated_libraries():
    """Any workload family, any parameters: the full sweep."""
    return st.one_of(
        flat_libraries(),
        contact_libraries(),
        memory_libraries(),
    )


# ---------------------------------------------------------------------------
# Raw polygon strategies for the fast-kernel regimes
# ---------------------------------------------------------------------------

#: Offsets that put geometry in each of the kernel's order-embedding
#: regimes: at/above the old 2**24 fall-back boundary, the wide-crossing
#: limit (2**29), the int64-key range (<= 2**31 - 1), and the
#: big-integer range up to the 2**53 limit (an extent of up to 2**54
#: with the mirrored group of :func:`large_coordinate_polygons`).
#: Values are database units (tests pass ``grid=1.0``).
LARGE_COORD_OFFSETS = (
    (1 << 24) - 100,
    (1 << 24) + 1,
    1 << 26,
    (1 << 29) + 1,
    (1 << 31) - 1000,
    (1 << 31) + 1,
    1 << 40,
    1 << 48,
    (1 << 53) - 1000,
)


@st.composite
def _triangle_batch(draw, span, count):
    """``count`` integer-vertex triangles within ``±span`` of origin,
    heavy on slanted edges (every edge is a candidate crossing)."""
    polys = []
    for _ in range(count):
        x = draw(st.integers(min_value=-span, max_value=span))
        y = draw(st.integers(min_value=-span, max_value=span))
        w1 = draw(st.integers(min_value=1, max_value=60))
        h1 = draw(st.integers(min_value=-40, max_value=40))
        w2 = draw(st.integers(min_value=-30, max_value=30))
        h2 = draw(st.integers(min_value=1, max_value=50))
        polys.append(Polygon([(x, y), (x + w1, y + h1), (x + w2, y + h2)]))
    return polys


@st.composite
def large_coordinate_polygons(draw):
    """Overlapping slanted polygons translated deep into the kernel's
    widened coordinate range (database units; use ``grid=1.0``).

    Draws an offset from :data:`LARGE_COORD_OFFSETS` — every regime
    boundary of the order embedding — with random signs per axis, so
    the fast kernel must stay exact where the old 2**24 embedding gave
    up.  The kernel sweeps the rings moved to their minimum corner, so
    its regime follows the layout's extent: every other triangle stays
    at the origin or goes to the mirrored offset, which makes the
    extent about ``off`` or ``2 * off``.
    """
    off = draw(st.sampled_from(LARGE_COORD_OFFSETS))
    sx = draw(st.sampled_from((-1, 1)))
    sy = draw(st.sampled_from((-1, 1)))
    polys = draw(_triangle_batch(span=120, count=draw(
        st.integers(min_value=2, max_value=12)
    )))
    other = draw(st.sampled_from((0, -1)))
    return [
        Polygon([(v.x + m * sx * off, v.y + m * sy * off) for v in p.vertices])
        for i, p in enumerate(polys)
        for m in [other if i % 2 else 1]
    ]


@st.composite
def crossing_dense_polygons(draw):
    """Many mutually overlapping slanted triangles in a tight window —
    maximal edge/edge crossing density, so nearly every slab is bounded
    by a rational crossing y (database units; use ``grid=1.0``)."""
    count = draw(st.integers(min_value=6, max_value=24))
    return draw(_triangle_batch(span=50, count=count))
