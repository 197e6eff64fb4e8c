"""The one form of a :class:`Polygon`: a read-only float64 ring array.

Pinned here:

* the constructor's rule — one closing duplicate dropped by exact
  ``==``, at least three vertices, the refusal text — for pairs,
  points and :meth:`Polygon.from_array` alike, and ``vertices`` is the
  ring's doubles as points;
* the ``EBS1`` ring record round-trips bit for bit, a stored ring that
  still closes on itself included, and stacking is the rings
  concatenated;
* ``transformed`` and ``transform_polygons`` are the scalar
  :meth:`Transform.apply` per vertex, bit for bit (``-0.0`` included),
  reversed for mirrors, then the constructor's rule;
* ``vertices`` and ``ring`` are read-only;
* pickles made before the array form, and of the array form, load.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.jobfile import dumps_ring, loads_ring
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


def ruled(pairs):
    """The constructor's rule on plain pairs: the kept pairs, or the
    refusal text."""
    if len(pairs) >= 2 and pairs[0] == pairs[-1]:
        pairs = pairs[:-1]
    if len(pairs) < 3:
        return f"polygon needs at least 3 vertices, got {len(pairs)}"
    return bits(pairs)


def bits(coords):
    """Coordinates as their IEEE bit patterns (``-0.0 != 0.0`` here)."""
    return np.ascontiguousarray(coords, dtype=np.float64).view(np.int64).tolist()


def outcome(build, *args):
    """The ring bits of the polygons ``build(*args)`` returns, or the
    message it is refused with."""
    try:
        return [bits(p.ring) for p in build(*args)]
    except ValueError as refused:
        return str(refused)


TRANSFORMS = (
    Transform.translation(-7.25, 1e6),
    Transform.rotation(math.pi / 2) @ Transform.mirror_x(),
    Transform.scaling(0.5, 3.0),
)
CLOSING_TWICE = [(10, 0), (11, 0), (10, 0), (10, 0)]


def scalar_moved(polygon, t):
    """The oracle: ``Transform.apply`` per vertex, reversed for a
    mirror, through the constructor."""
    moved = [t.apply(v) for v in polygon.vertices]
    if not t.is_orientation_preserving():
        moved.reverse()
    return [Polygon(moved)]


class TestOneForm:
    @settings(max_examples=80, deadline=None)
    @given(rings())
    @example([(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 0.0)])
    @example(CLOSING_TWICE)
    @example([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    def test_the_constructor_rule(self, ring):
        expected = ruled(ring)
        array = np.array(ring, dtype=np.float64)
        for build in (
            lambda: Polygon(ring),
            lambda: Polygon([Point(x, y) for x, y in ring]),
            lambda: Polygon.from_array(array),
        ):
            got = outcome(lambda: [build()])
            assert got == (expected if isinstance(expected, str) else [expected])
        if isinstance(expected, str):
            return
        polygon = Polygon(ring)
        assert polygon.ring.dtype == np.float64 and len(polygon) == len(expected)
        assert bits([(v.x, v.y) for v in polygon.vertices]) == expected
        assert polygon.bounding_box() == (*polygon.ring.min(0), *polygon.ring.max(0))

    @settings(max_examples=80, deadline=None)
    @given(rings())
    @example([(-0.0, 0.0), (1.0, -0.0), (0.0, 1.0), (-0.0, 0.0)])
    @example(CLOSING_TWICE)
    def test_transforms_are_the_scalar_apply_per_vertex(self, ring):
        try:
            polygon = Polygon(ring)
        except ValueError:
            return
        for t in TRANSFORMS:
            expected = outcome(scalar_moved, polygon, t)
            assert outcome(lambda: [polygon.transformed(t)]) == expected
            row = np.array([[t.a, t.b, t.c, t.d, t.e, t.f]])
            assert outcome(transform_polygons, [polygon], row) == expected

    def test_ring_records_round_trip(self):
        ring = [(0.0, -0.0), (1.5, 2.0), (-3e9, 4.0)]
        polygon = Polygon(ring)
        again = loads_ring(dumps_ring(polygon))
        assert bits(again.ring) == bits(ring) and again == polygon
        # A stored ring that still closes on itself comes back as stored.
        stored = dumps_ring(Polygon(CLOSING_TWICE))
        assert len(Polygon(CLOSING_TWICE)) == 3
        closing = loads_ring(stored)
        assert len(closing) == 3 and dumps_ring(closing) == stored
        assert len(Polygon.from_array(np.array(CLOSING_TWICE, float))) == 3

    def test_stacking_is_the_rings_concatenated(self):
        polygons = [Polygon(CLOSING_TWICE), Polygon.rectangle(-0.0, 0, 2, 1)]
        coords, offsets = stack_polygons(polygons)
        assert bits(coords) == bits(np.concatenate([p.ring for p in polygons]))
        assert offsets.tolist() == [0, 3, 7]
        empty, offsets = stack_polygons([])
        assert empty.shape == (0, 2) and offsets.tolist() == [0]


class TestReadOnly:
    def test_vertices_and_ring_cannot_be_edited(self):
        polygon = Polygon([(0, 0), (4, 0), (4, 3)])
        with pytest.raises(TypeError):
            polygon.vertices[1] = Point(5.0, -1.0)
        with pytest.raises(AttributeError):
            polygon.vertices = [Point(0.0, 0.0)] * 3
        with pytest.raises(ValueError):
            polygon.ring[1, 0] = 5.0
        assert polygon == Polygon([(0, 0), (4, 0), (4, 3)])

    def test_from_array_leaves_the_callers_array_writeable(self):
        ring = np.array([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)])
        Polygon.from_array(ring)
        ring[0, 0] = 1.0  # still the caller's to write


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

#: The same polygon array-backed (``Polygon.from_array``), pickled at
#: the commit before the array became the only form.
ARRAY_PICKLE = (
    b"\x80\x04\x95\xf2\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.geometry.polygon"
    b"\x94\x8c\x07Polygon\x94\x93\x94)\x81\x94N}\x94\x8c\x05_ring\x94\x8c\x16"
    b"numpy._core.multiarray\x94\x8c\x0c_reconstruct\x94\x93\x94\x8c\x05numpy"
    b"\x94\x8c\x07ndarray\x94\x93\x94K\x00\x85\x94C\x01b\x94\x87\x94R\x94(K\x01"
    b"K\x03K\x02\x86\x94h\t\x8c\x05dtype\x94\x93\x94\x8c\x02f8\x94\x89\x88\x87"
    b"\x94R\x94(K\x03\x8c\x01<\x94NNNJ\xff\xff\xff\xffJ\xff\xff\xff\xffK\x00t\x94"
    b"b\x89C0\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x00\xf8?\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00"
    b"\x00\x00\x02@\x00\x00\x00\xc0\x0bZ\xe6A\x94t\x94bs\x86\x94b."
)


class TestPickles:
    @pytest.mark.parametrize(
        "made", [PARENT_PICKLE, ARRAY_PICKLE], ids=["points", "array"]
    )
    def test_older_pickles_load(self, made):
        expected = Polygon([(0, 0), (1.5, -0.0), (2.25, 3e9)])
        loaded = pickle.loads(made)
        assert bits(loaded.ring) == bits(expected.ring) and len(loaded) == 3
        assert not loaded.ring.flags.writeable

    def test_round_trip(self):
        polygon = Polygon([(0.0, -0.0), (1.5, 2.0), (-3e9, 4.0)])
        again = pickle.loads(pickle.dumps(polygon))
        assert bits(again.ring) == bits(polygon.ring)
        assert not again.ring.flags.writeable
