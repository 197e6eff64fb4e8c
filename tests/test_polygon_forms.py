"""The two forms of a :class:`Polygon`: points-backed and array-backed.

A polygon read from bytes holds its ring as one float64 array until
someone reads ``vertices``.  Pinned here:

* both forms of one ring agree on everything a caller can observe —
  ``vertices``, ``len``, ``==``, ``repr``, ``bounding_box``, ``area``,
  the ``EBS1`` ring record, stacking, batch transforms, the shard
  cache key and the geometry fingerprint — and the array form follows
  the constructor's rule;
* one source of truth: once ``vertices`` is read, in-place edits of
  the list are what the hot path sees;
* pickles of polygons made before the array form existed still load.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import fingerprint, shard_cache_key
from repro.core.jobfile import dumps_ring, loads_ring
from repro.core.plan import Shard
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.geometry.vertex_array import stack_polygons, transform_polygons

#: Finite doubles near and far from the origin, signed zeros included.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e12, 1e12, allow_nan=False).map(lambda v: v + 3e9),
)
points = st.tuples(coordinates, coordinates)


@st.composite
def rings(draw):
    """3–8 ``(x, y)`` pairs, sometimes closed by a repeat of the first."""
    ring = draw(st.lists(points, min_size=3, max_size=8))
    if draw(st.booleans()):
        ring.append(ring[0])
    return ring


def constructible(ring):
    try:
        Polygon(ring)
    except ValueError:
        return False
    return True


def arrayed(ring):
    """A fresh array-backed polygon of ``ring`` (the constructor's rule)."""
    return Polygon.from_array(np.array(ring, dtype=np.float64).reshape(-1, 2))


def bits(coords):
    """Coordinates as their IEEE bit patterns (``-0.0 != 0.0`` here)."""
    return np.ascontiguousarray(coords, dtype=np.float64).view(np.int64).tolist()


def outcome(transform, *args):
    """The ring records of the polygons ``transform(*args)`` returns, or
    the message it is refused with (a ring that still closes on itself
    after the constructor's rule can collapse below three vertices)."""
    try:
        return [dumps_ring(p) for p in transform(*args)]
    except ValueError as refused:
        return str(refused)


TRANSFORMS = (
    Transform.translation(-7.25, 1e6),
    Transform.rotation(math.pi / 2) @ Transform.mirror_x(),
    Transform.scaling(0.5, 3.0),
)
CLOSING_TWICE = [(10, 0), (11, 0), (10, 0), (10, 0)]


class TestBothFormsAgree:
    @settings(max_examples=80, deadline=None)
    @given(rings())
    @example([(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 0.0)])
    @example(CLOSING_TWICE)
    @example([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    def test_one_ring(self, ring):
        try:
            built = Polygon(ring)
        except ValueError as refused:
            with pytest.raises(ValueError, match=str(refused)):
                arrayed(ring)
            return
        # What the hot path reads, each on a fresh array-backed polygon
        # (reading ``vertices`` would turn it into points).
        assert arrayed(ring).ring is not None
        assert len(arrayed(ring)) == len(built)
        assert arrayed(ring).bounding_box() == built.bounding_box()
        assert dumps_ring(arrayed(ring)) == dumps_ring(built)
        fracturer = TrapezoidFracturer()
        assert shard_cache_key(
            Shard((2, -3), (arrayed(ring),)), fracturer
        ) == shard_cache_key(Shard((2, -3), (built,)), fracturer)
        for t in TRANSFORMS:
            moved = outcome(transform_polygons, [arrayed(ring)], t)
            assert moved == outcome(transform_polygons, [built], t)
            assert moved == outcome(lambda: [built.transformed(t)])
        # Then what a caller reads through the points.
        assert fingerprint(arrayed(ring)) == fingerprint(built)
        polygon = arrayed(ring)
        assert repr(polygon) == repr(built)
        assert polygon.area() == built.area()
        assert polygon == built and built == polygon
        assert polygon.vertices == built.vertices
        assert polygon.ring is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(rings().filter(constructible), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    def test_stacking_mixed_lists(self, drawn):
        built = [Polygon(ring) for ring, _ in drawn]
        mixed = [arrayed(r) if as_array else Polygon(r) for r, as_array in drawn]
        coords, offsets = stack_polygons(built)
        for polygons in (mixed, [arrayed(ring) for ring, _ in drawn]):
            got, got_offsets = stack_polygons(polygons)
            assert bits(got) == bits(coords)
            assert got_offsets.tolist() == offsets.tolist()
        assert all(p.ring is not None for p, (_, a) in zip(mixed, drawn) if a)

    def test_a_moved_ring_stays_an_array(self):
        triangle = [(0, 0), (1, 0), (3, 4)]
        for polygon in (Polygon(triangle), arrayed(triangle)):
            moved = transform_polygons([polygon], TRANSFORMS[1])
            assert moved[0].ring is not None

    def test_a_stored_ring_keeps_its_second_closing_vertex(self):
        stored = dumps_ring(Polygon(CLOSING_TWICE))
        assert len(Polygon(CLOSING_TWICE)) == 3
        polygon = loads_ring(stored)
        assert len(polygon) == 3 and dumps_ring(polygon) == stored
        assert len(arrayed(CLOSING_TWICE)) == 3


class TestOneSourceOfTruth:
    def test_edits_to_the_read_vertices_are_what_the_hot_path_sees(self):
        polygon = arrayed([(0, 0), (4, 0), (4, 3)])
        vertices = polygon.vertices
        assert polygon.ring is None
        vertices[1] = Point(5.0, -1.0)
        vertices.append(Point(0.0, 3.0))
        edited = Polygon([(0, 0), (5, -1), (4, 3), (0, 3)])
        assert len(polygon) == 4
        assert polygon.bounding_box() == (0.0, -1.0, 5.0, 3.0)
        assert dumps_ring(polygon) == dumps_ring(edited)
        assert bits(stack_polygons([polygon])[0]) == bits(
            stack_polygons([edited])[0]
        )
        assert polygon.vertices is vertices

    def test_an_unset_ring_or_vertices_is_an_attribute_error(self):
        blank = Polygon.__new__(Polygon)
        assert blank.ring is None
        with pytest.raises(AttributeError):
            blank.vertices
        with pytest.raises(AttributeError):
            blank.perimeter_cache


#: ``pickle.dumps(Polygon([(0, 0), (1.5, -0.0), (2.25, 3e9)]))`` made
#: at the commit before polygons had an array form.
PARENT_PICKLE = (
    b"\x80\x04\x95\xa6\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.geometry.polygon"
    b"\x94\x8c\x07Polygon\x94\x93\x94)\x81\x94N}\x94\x8c\x08vertices\x94]\x94("
    b"\x8c\x14repro.geometry.point\x94\x8c\x05Point\x94\x93\x94G\x00\x00\x00\x00"
    b"\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86\x94R\x94h\tG?\xf8\x00"
    b"\x00\x00\x00\x00\x00G\x80\x00\x00\x00\x00\x00\x00\x00\x86\x94R\x94h\tG@\x02"
    b"\x00\x00\x00\x00\x00\x00GA\xe6Z\x0b\xc0\x00\x00\x00\x86\x94R\x94es\x86\x94b."
)


class TestPickles:
    def test_a_pickle_from_before_the_array_form_still_loads(self):
        expected = Polygon([(0, 0), (1.5, -0.0), (2.25, 3e9)])
        loaded = pickle.loads(PARENT_PICKLE)
        assert loaded.ring is None
        assert loaded == expected and len(loaded) == 3
        assert dumps_ring(loaded) == dumps_ring(expected)
        stacked = [stack_polygons([p])[0] for p in (loaded, expected)]
        assert bits(stacked[0]) == bits(stacked[1])

    @pytest.mark.parametrize("form", ["array", "points"])
    def test_both_forms_round_trip(self, form):
        ring = [(0.0, -0.0), (1.5, 2.0), (-3e9, 4.0)]
        polygon = arrayed(ring) if form == "array" else Polygon(ring)
        again = pickle.loads(pickle.dumps(polygon))
        assert (again.ring is not None) == (form == "array")
        assert dumps_ring(again) == dumps_ring(Polygon(ring))
        assert again == Polygon(ring)
