"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic identities that unit tests cannot sweep:
boolean-op area identities, fracture area preservation, transform
round-trips, format round-trips, PSF normalization and dose positivity.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fracture.rectangles import RectangleFracturer
from repro.fracture.shots import ShotFracturer
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.boolean import boolean_trapezoids, trapezoids_to_polygons
from repro.geometry.polygon import Polygon
from repro.geometry.transform import Transform
from repro.layout.cell import Cell
from repro.layout.gdsii import dumps_gdsii, loads_gdsii
from repro.layout.gdsii_records import decode_real8, encode_real8
from repro.layout.library import Library
from repro.physics.psf import DoubleGaussianPSF


def area_of(traps):
    return sum(t.area() for t in traps)


# -- strategies -------------------------------------------------------------

coords = st.integers(min_value=-50, max_value=50)


@st.composite
def rectangles(draw):
    x0 = draw(coords)
    y0 = draw(coords)
    w = draw(st.integers(min_value=1, max_value=30))
    h = draw(st.integers(min_value=1, max_value=30))
    return Polygon.rectangle(x0, y0, x0 + w, y0 + h)


@st.composite
def rectangle_sets(draw, max_size=5):
    return draw(st.lists(rectangles(), min_size=1, max_size=max_size))


@st.composite
def convex_polygons(draw):
    """Random well-conditioned convex polygon via angles around a centre.

    Vertices sit on a circle at angles drawn from a 10° grid (so no two
    can collide or go collinear after duplicate-point collapse) and must
    span more than a half turn (centre strictly inside), which keeps the
    hull fat enough that fracture never produces degenerate slivers.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    radius = draw(st.integers(min_value=2, max_value=20))
    cx = draw(coords)
    cy = draw(coords)
    steps = draw(
        st.lists(
            st.integers(min_value=0, max_value=35),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    angles = sorted(2.0 * math.pi * step / 36.0 for step in steps)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(2.0 * math.pi - angles[-1] + angles[0])
    assume(max(gaps) < math.pi)
    pts = [
        (cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles
    ]
    poly = Polygon(pts)
    assume(poly.area() > 1.0)
    return poly


# -- boolean algebra ---------------------------------------------------------


class TestBooleanProperties:
    @given(rectangle_sets(), rectangle_sets())
    @settings(max_examples=40, deadline=None)
    def test_inclusion_exclusion(self, a, b):
        union = area_of(boolean_trapezoids(a, b, "or"))
        inter = area_of(boolean_trapezoids(a, b, "and"))
        area_a = area_of(boolean_trapezoids(a, [], "or"))
        area_b = area_of(boolean_trapezoids(b, [], "or"))
        assert union + inter == pytest.approx(area_a + area_b, abs=1e-6)

    @given(rectangle_sets(), rectangle_sets())
    @settings(max_examples=40, deadline=None)
    def test_xor_is_union_minus_intersection(self, a, b):
        xor = area_of(boolean_trapezoids(a, b, "xor"))
        union = area_of(boolean_trapezoids(a, b, "or"))
        inter = area_of(boolean_trapezoids(a, b, "and"))
        assert xor == pytest.approx(union - inter, abs=1e-6)

    @given(rectangle_sets(), rectangle_sets())
    @settings(max_examples=40, deadline=None)
    def test_difference_partition(self, a, b):
        # A = (A \ B) ∪ (A ∩ B), disjointly.
        diff = area_of(boolean_trapezoids(a, b, "sub"))
        inter = area_of(boolean_trapezoids(a, b, "and"))
        area_a = area_of(boolean_trapezoids(a, [], "or"))
        assert diff + inter == pytest.approx(area_a, abs=1e-6)

    @given(rectangle_sets(), rectangle_sets())
    @settings(max_examples=40, deadline=None)
    def test_operation_symmetry(self, a, b):
        assert area_of(boolean_trapezoids(a, b, "or")) == pytest.approx(
            area_of(boolean_trapezoids(b, a, "or")), abs=1e-6
        )
        assert area_of(boolean_trapezoids(a, b, "and")) == pytest.approx(
            area_of(boolean_trapezoids(b, a, "and")), abs=1e-6
        )

    @given(rectangle_sets())
    @settings(max_examples=40, deadline=None)
    def test_union_idempotent(self, a):
        once = area_of(boolean_trapezoids(a, [], "or"))
        twice = area_of(boolean_trapezoids(a, a, "or"))
        assert once == pytest.approx(twice, abs=1e-6)

    @given(convex_polygons())
    @settings(max_examples=30, deadline=None)
    def test_trapezoidation_preserves_convex_area(self, poly):
        traps = boolean_trapezoids([poly], [], "or")
        assert area_of(traps) == pytest.approx(poly.area(), rel=1e-3, abs=1e-4)

    @given(rectangle_sets(max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_polygon_reassembly_preserves_signed_area(self, a):
        traps = boolean_trapezoids(a, [], "or")
        polys = trapezoids_to_polygons(traps)
        assert sum(p.signed_area() for p in polys) == pytest.approx(
            area_of(traps), rel=1e-6, abs=1e-6
        )


# -- fracture ----------------------------------------------------------------


class TestFractureProperties:
    @given(rectangle_sets())
    @settings(max_examples=30, deadline=None)
    def test_trapezoid_fracture_preserves_area(self, polys):
        reference = area_of(boolean_trapezoids(polys, [], "or"))
        figs = TrapezoidFracturer().fracture(polys)
        assert area_of(figs) == pytest.approx(reference, abs=1e-6)

    @given(rectangle_sets())
    @settings(max_examples=30, deadline=None)
    def test_rectangle_fracture_exact_for_rectilinear(self, polys):
        reference = area_of(boolean_trapezoids(polys, [], "or"))
        figs = RectangleFracturer(address_unit=0.5).fracture(polys)
        assert area_of(figs) == pytest.approx(reference, abs=1e-6)
        assert all(f.is_rectangle(tol=1e-9) for f in figs)

    @given(rectangle_sets(max_size=3), st.floats(min_value=0.8, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_vsb_shots_respect_max_size(self, polys, max_shot):
        figs = ShotFracturer(max_shot=max_shot).fracture(polys)
        reference = area_of(boolean_trapezoids(polys, [], "or"))
        assert area_of(figs) == pytest.approx(reference, rel=1e-6, abs=1e-6)
        for f in figs:
            bbox = f.bounding_box()
            assert bbox[2] - bbox[0] <= max_shot + 1e-6
            assert bbox[3] - bbox[1] <= max_shot + 1e-6

    @given(convex_polygons())
    @settings(max_examples=20, deadline=None)
    def test_fracture_figures_disjoint(self, poly):
        figs = TrapezoidFracturer().fracture([poly])
        for i, f in enumerate(figs):
            c = f.centroid()
            for j, g in enumerate(figs):
                if i != j:
                    assert not g.to_polygon().contains_point(
                        c, include_boundary=False
                    )


# -- transforms ----------------------------------------------------------------


class TestTransformProperties:
    @given(st.floats(0, 360), st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_area_scales_with_det(self, rot, mag):
        t = Transform.gdsii(rotation_deg=rot, magnification=mag)
        poly = Polygon.rectangle(0, 0, 3, 2)
        assert poly.transformed(t).area() == pytest.approx(
            6.0 * mag * mag, rel=1e-9
        )


# -- formats ---------------------------------------------------------------


class TestFormatProperties:
    @given(
        st.floats(
            min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_real8_roundtrip(self, value):
        assert decode_real8(encode_real8(value)) == pytest.approx(
            value, rel=1e-13
        )

    @given(rectangle_sets(max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_gdsii_roundtrip_vertices(self, polys):
        lib = Library("P")
        cell = Cell("TOP")
        lib.add(cell)
        for p in polys:
            cell.add_polygon(p)
        lib2 = loads_gdsii(dumps_gdsii(lib))
        original = sorted(
            (round(v.x, 6), round(v.y, 6))
            for p in polys
            for v in p.vertices
        )
        restored = sorted(
            (round(v.x, 6), round(v.y, 6))
            for plist in lib2["TOP"].polygons.values()
            for p in plist
            for v in p.vertices
        )
        assert original == restored


# -- physics ------------------------------------------------------------------


class TestPhysicsProperties:
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=1.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_psf_kernel_normalized(self, alpha, beta, eta):
        psf = DoubleGaussianPSF(alpha=alpha, beta=beta, eta=eta)
        kernel = psf.kernel(pixel=beta / 8.0)
        assert kernel.sum() == pytest.approx(1.0, abs=5e-3)
        assert (kernel >= 0).all()


# -- PEC -----------------------------------------------------------------------


class TestPecProperties:
    @given(rectangle_sets(max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_dose_correction_positive_and_bounded(self, polys):
        from repro.pec.dose_iter import IterativeDoseCorrector
        from repro.fracture.trapezoidal import TrapezoidFracturer

        psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
        shots = TrapezoidFracturer().fracture_to_shots(polys)
        assume(shots)
        corrector = IterativeDoseCorrector(dose_limits=(0.1, 8.0))
        corrected = corrector.correct(shots, psf)
        for shot in corrected:
            assert 0.1 <= shot.dose <= 8.0

    @given(rectangle_sets(max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_correction_never_worsens_uniformity(self, polys):
        from repro.pec.dose_iter import IterativeDoseCorrector
        from repro.pec.report import correction_report
        from repro.fracture.trapezoidal import TrapezoidFracturer

        psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
        shots = TrapezoidFracturer().fracture_to_shots(polys)
        assume(len(shots) >= 2)
        before = correction_report(shots, psf)
        after = correction_report(
            IterativeDoseCorrector().correct(shots, psf), psf
        )
        assert after.spread <= before.spread + 1e-6
