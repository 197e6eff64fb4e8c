"""Property-based tests for the extension modules.

Covers: offset monotonicity/containment, RLE round-trips, job-file
round-trips, field-partition area conservation, and the hierarchical
fracture equivalence.
"""


import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fields import order_shots, partition_fields
from repro.core.hierarchical import fracture_hierarchical, transform_trapezoid
from repro.core.job import MachineJob
from repro.core.jobfile import dumps_job, loads_job
from repro.fracture.base import Shot
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.boolean import boolean_polygons
from repro.geometry.offset import offset
from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.geometry.trapezoid import Trapezoid
from repro.layout.cell import Cell
from repro.machine.rle import encode_runs, runs_by_line

coords = st.integers(min_value=-40, max_value=40)


@st.composite
def rectangles(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(min_value=2, max_value=25))
    h = draw(st.integers(min_value=2, max_value=25))
    return Polygon.rectangle(x0, y0, x0 + w, y0 + h)


@st.composite
def rectangle_sets(draw, max_size=4):
    return draw(st.lists(rectangles(), min_size=1, max_size=max_size))


def net_area(polys):
    return sum(p.signed_area() for p in polys)


class TestOffsetProperties:
    @given(rectangle_sets(), st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_grow_contains_original(self, polys, delta):
        grown = offset(polys, delta)
        remains = boolean_polygons(polys, grown, "sub")
        assert net_area(remains) == pytest.approx(0.0, abs=1e-6)

    @given(rectangle_sets(), st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_shrink_contained_in_original(self, polys, delta):
        shrunk = offset(polys, -delta)
        outside = boolean_polygons(shrunk, polys, "sub")
        assert net_area(outside) == pytest.approx(0.0, abs=1e-6)

    @given(rectangle_sets(), st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=15, deadline=None)
    def test_grow_monotone_in_delta(self, polys, delta):
        small = net_area(offset(polys, delta))
        large = net_area(offset(polys, delta * 1.5))
        assert large >= small - 1e-6

    @given(rectangles(), st.floats(min_value=0.25, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_single_rectangle_grow_exact(self, rect, delta):
        bbox = rect.bounding_box()
        w = bbox[2] - bbox[0]
        h = bbox[3] - bbox[1]
        grown = offset(rect, delta)
        expected = (w + 2 * delta) * (h + 2 * delta)
        # Database-grid snapping moves each edge by up to half a grid.
        slack = 2 * (w + h + 4 * delta) * 1e-3
        assert net_area(grown) == pytest.approx(expected, abs=slack)

    @given(rectangles(), st.floats(min_value=0.25, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_single_rectangle_shrink_exact(self, rect, delta):
        bbox = rect.bounding_box()
        w = bbox[2] - bbox[0]
        h = bbox[3] - bbox[1]
        shrunk = offset(rect, -delta)
        expected = max(0.0, w - 2 * delta) * max(0.0, h - 2 * delta)
        slack = 2 * (w + h) * 1e-3 + 1e-6
        assert net_area(shrunk) == pytest.approx(expected, abs=slack)


class TestRleProperties:
    @given(rectangle_sets(max_size=3), st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_written_addresses_approximate_area(self, polys, unit):
        figures = TrapezoidFracturer().fracture(polys)
        assume(figures)
        _, _, runs = encode_runs(figures, address_unit=unit)
        area = runs[:, 2].sum() * unit * unit
        expected = sum(f.area() for f in figures)
        perimeter_slack = sum(
            2 * ((f.bounding_box()[2] - f.bounding_box()[0])
                 + (f.bounding_box()[3] - f.bounding_box()[1]))
            for f in figures
        ) * unit
        assert abs(area - expected) <= perimeter_slack + unit * unit

    @given(rectangle_sets(max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_runs_sorted_and_disjoint(self, polys):
        figures = TrapezoidFracturer().fracture(polys)
        assume(figures)
        _, _, runs = encode_runs(figures, address_unit=0.5)
        for line_runs in runs_by_line(runs).values():
            for (s0, l0), (s1, _) in zip(line_runs, line_runs[1:]):
                assert s0 + l0 < s1  # disjoint with a gap


class TestJobFileProperties:
    @given(
        st.lists(
            st.tuples(
                coords, coords,
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=1, max_value=20),
                st.floats(min_value=0.1, max_value=8.0),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.5, max_value=100.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, specs, base_dose):
        shots = [
            Shot(Trapezoid.from_rectangle(x, y, x + w, y + h), round(d, 3))
            for x, y, w, h, d in specs
        ]
        job = MachineJob(shots, base_dose=base_dose)
        restored = loads_job(dumps_job(job))
        assert restored.figure_count() == job.figure_count()
        assert restored.pattern_area() == pytest.approx(
            job.pattern_area(), rel=1e-3
        )
        for a, b in zip(job.shots, restored.shots):
            assert b.dose == pytest.approx(a.dose, abs=5e-4)


class TestFieldProperties:
    @given(rectangle_sets(max_size=4), st.sampled_from([10.0, 25.0, 60.0]))
    @settings(max_examples=20, deadline=None)
    def test_partition_conserves_area(self, polys, field_size):
        shots = TrapezoidFracturer().fracture_to_shots(polys)
        assume(shots)
        job = MachineJob(shots)
        fielded = partition_fields(job, field_size)
        total = sum(
            s.area() for group in fielded.fields.values() for s in group
        )
        assert total == pytest.approx(job.pattern_area(), rel=1e-9)

    @given(rectangle_sets(max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_ordering_is_permutation(self, polys):
        # Materialised once: the ids below are of these objects.
        shots = list(TrapezoidFracturer().fracture_to_shots(polys))
        assume(len(shots) >= 2)
        for strategy in ("scanline", "nearest"):
            ordered = order_shots(shots, strategy)
            assert sorted(id(s) for s in ordered) == sorted(id(s) for s in shots)


class TestHierarchicalProperties:
    @given(
        rectangle_sets(max_size=3),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 180.0]),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_flat_fracture_area(self, polys, cols, rows, rot, mirror):
        child = Cell("CHILD")
        for p in polys:
            child.add_polygon(p)
        top = Cell("TOP")
        # Pitch larger than the child extent so instances stay disjoint.
        pitch = 220.0
        for c in range(cols):
            for r in range(rows):
                top.instantiate(
                    child,
                    (c * pitch, r * pitch),
                    rotation_deg=rot,
                    x_reflection=mirror,
                )
        result = fracture_hierarchical(top)
        child_area = sum(
            t.area() for t in TrapezoidFracturer().fracture(polys)
        )
        assert result.total_area() == pytest.approx(
            child_area * cols * rows, rel=1e-9
        )
        assert result.instances_fallback == 0

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.sampled_from([0.0, 180.0]),
        st.booleans(),
        st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_transform_trapezoid_matches_polygon_transform(
        self, dx, dy, rot, mirror, mag
    ):
        trap = Trapezoid(0, 2, 0, 10, 2, 8)
        t = Transform.gdsii(
            origin=(dx, dy), rotation_deg=rot, magnification=mag,
            x_reflection=mirror,
        )
        via_trap = transform_trapezoid(trap, t)
        via_poly = trap.to_polygon().transformed(t)
        assert via_trap.area() == pytest.approx(via_poly.area(), rel=1e-9)
        assert via_trap.bounding_box() == pytest.approx(
            via_poly.bounding_box(), abs=1e-9
        )
