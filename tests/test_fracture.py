"""Tests for the fracturing package."""


import pytest

from repro.fracture.base import Shot, total_area
from repro.fracture.quality import analyze_figures
from repro.fracture.rectangles import RectangleFracturer
from repro.fracture.shots import ShotFracturer, _split_spans
from repro.fracture.trapezoidal import TrapezoidFracturer, slice_to_height
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid


@pytest.fixture
def triangle():
    return Polygon([(0, 0), (10, 0), (5, 8)])


@pytest.fixture
def l_shape():
    return Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])


class TestShot:
    def test_dose_validation(self):
        with pytest.raises(ValueError):
            Shot(Trapezoid.from_rectangle(0, 0, 1, 1), dose=-1)

    def test_area(self):
        assert Shot(Trapezoid.from_rectangle(0, 0, 2, 3)).area() == 6.0


class TestTrapezoidFracturer:
    def test_rectangle_is_one_figure(self):
        figs = TrapezoidFracturer().fracture([Polygon.rectangle(0, 0, 10, 5)])
        assert len(figs) == 1
        assert figs[0].is_rectangle()

    def test_triangle_area_preserved(self, triangle):
        figs = TrapezoidFracturer().fracture([triangle])
        assert total_area(figs) == pytest.approx(triangle.area(), rel=1e-6)

    def test_l_shape_fractures_to_two(self, l_shape):
        figs = TrapezoidFracturer().fracture([l_shape])
        assert len(figs) == 2
        assert total_area(figs) == pytest.approx(l_shape.area())

    def test_overlapping_input_merged(self):
        polys = [Polygon.rectangle(0, 0, 10, 10), Polygon.rectangle(5, 0, 15, 10)]
        figs = TrapezoidFracturer().fracture(polys)
        assert total_area(figs) == pytest.approx(150.0)

    def test_max_height_respected(self):
        frac = TrapezoidFracturer(max_height=2.0)
        figs = frac.fracture([Polygon.rectangle(0, 0, 5, 9)])
        assert all(f.height <= 2.0 + 1e-9 for f in figs)
        assert total_area(figs) == pytest.approx(45.0)

    def test_max_height_validation(self):
        with pytest.raises(ValueError):
            TrapezoidFracturer(max_height=0)

    def test_merge_ablation_increases_count(self):
        # Two stacked rectangles of the same width: merging joins them.
        polys = [
            Polygon.rectangle(0, 0, 10, 5),
            Polygon.rectangle(0, 5, 10, 10),
            Polygon.rectangle(20, 2, 21, 8),  # forces foreign slab breaks
        ]
        merged = TrapezoidFracturer(merge=True).fracture(polys)
        unmerged = TrapezoidFracturer(merge=False).fracture(polys)
        assert len(merged) < len(unmerged)
        assert total_area(merged) == pytest.approx(total_area(unmerged))


class TestSliceToHeight:
    def test_no_slicing_needed(self):
        t = Trapezoid.from_rectangle(0, 0, 1, 1)
        assert slice_to_height([t], 2.0) == [t]

    def test_equal_slices(self):
        t = Trapezoid.from_rectangle(0, 0, 1, 10)
        pieces = slice_to_height([t], 3.0)
        assert len(pieces) == 4
        assert all(p.height == pytest.approx(2.5) for p in pieces)

    def test_validation(self):
        with pytest.raises(ValueError):
            slice_to_height([], 0.0)

    def test_slices_tile_parent_exactly(self):
        # Boundaries are computed by index, not by accumulating
        # ``y_bottom + step`` — adjacent slices must share their
        # boundary coordinates bit-for-bit and the outer edges must
        # reproduce the parent exactly, even for drift-prone heights.
        parent = Trapezoid(0.1, 0.1 + 1.0, 0.3, 9.7, 2.3, 7.1)
        pieces = slice_to_height([parent], 1.0 / 7.0)
        assert len(pieces) == int(-(-parent.height // (1.0 / 7.0)))
        assert pieces[0].y_bottom == parent.y_bottom
        assert pieces[0].x_bottom_left == parent.x_bottom_left
        assert pieces[0].x_bottom_right == parent.x_bottom_right
        assert pieces[-1].y_top == parent.y_top
        assert pieces[-1].x_top_left == parent.x_top_left
        assert pieces[-1].x_top_right == parent.x_top_right
        for lower, upper in zip(pieces, pieces[1:]):
            assert upper.y_bottom == lower.y_top
            assert upper.x_bottom_left == lower.x_top_left
            assert upper.x_bottom_right == lower.x_top_right

    def test_no_drift_on_many_equal_slices(self):
        # The old accumulating implementation let rounding drift pile
        # up across hundreds of additions, skewing slice heights; the
        # index form keeps every slice within an ulp of the ideal step.
        parent = Trapezoid.from_rectangle(0.0, 0.0, 1.0, 300.0)
        max_height = 300.0 / 299.0  # forces hundreds of inexact steps
        pieces = slice_to_height([parent], max_height)
        n = int(-(-parent.height // max_height))
        assert len(pieces) == n
        heights = [p.height for p in pieces]
        step = 300.0 / n
        assert max(heights) <= max_height * (1.0 + 1e-12)
        assert max(abs(h - step) for h in heights) <= 2e-12
        assert sum(heights) == pytest.approx(300.0, abs=1e-9)


class TestRectangleFracturer:
    def test_rectilinear_is_exact(self, l_shape):
        figs = RectangleFracturer(address_unit=0.5).fracture([l_shape])
        assert all(f.is_rectangle() for f in figs)
        assert total_area(figs) == pytest.approx(l_shape.area())

    def test_triangle_staircased(self, triangle):
        frac = RectangleFracturer(address_unit=0.1)
        figs = frac.fracture([triangle])
        assert all(f.is_rectangle() for f in figs)
        assert total_area(figs) == pytest.approx(triangle.area(), rel=0.02)

    def test_finer_address_unit_more_figures(self, triangle):
        coarse = RectangleFracturer(address_unit=1.0).fracture([triangle])
        fine = RectangleFracturer(address_unit=0.05).fracture([triangle])
        assert len(fine) > len(coarse)

    def test_finer_address_unit_more_accurate_inner_mode(self, triangle):
        # Midpoint mode is area-balanced by construction, so measure the
        # discretization error with the one-sided (inner) approximation.
        coarse = RectangleFracturer(address_unit=1.0, mode="inner").fracture(
            [triangle]
        )
        fine = RectangleFracturer(address_unit=0.05, mode="inner").fracture(
            [triangle]
        )
        err_coarse = triangle.area() - total_area(coarse)
        err_fine = triangle.area() - total_area(fine)
        assert 0 < err_fine < err_coarse

    def test_inner_mode_underestimates(self, triangle):
        figs = RectangleFracturer(address_unit=0.5, mode="inner").fracture(
            [triangle]
        )
        assert total_area(figs) < triangle.area()

    def test_outer_mode_overestimates(self, triangle):
        figs = RectangleFracturer(address_unit=0.5, mode="outer").fracture(
            [triangle]
        )
        assert total_area(figs) > triangle.area()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RectangleFracturer(mode="diagonal")

    def test_address_unit_validation(self):
        with pytest.raises(ValueError):
            RectangleFracturer(address_unit=0)


class TestShotFracturer:
    def test_small_rect_single_shot(self):
        figs = ShotFracturer(max_shot=5.0).fracture([Polygon.rectangle(0, 0, 2, 2)])
        assert len(figs) == 1

    def test_large_rect_tiled(self):
        figs = ShotFracturer(max_shot=2.0).fracture([Polygon.rectangle(0, 0, 7, 5)])
        assert total_area(figs) == pytest.approx(35.0)
        for f in figs:
            assert f.height <= 2.0 + 1e-9
            widths = (f.x_bottom_right - f.x_bottom_left, f.x_top_right - f.x_top_left)
            assert min(widths) <= 2.0 + 1e-9

    def test_sliver_avoidance_balances(self):
        # 5 µm span with 2 µm shots: greedy gives [2, 2, 1]; balanced [5/3]*3.
        balanced = _split_spans(5.0, 2.0, balanced=True)
        greedy = _split_spans(5.0, 2.0, balanced=False)
        assert min(balanced) == pytest.approx(5.0 / 3.0)
        assert min(greedy) == pytest.approx(1.0)
        assert sum(balanced) == pytest.approx(5.0)
        assert sum(greedy) == pytest.approx(5.0)

    def test_sliver_metrics_differ(self):
        rect = [Polygon.rectangle(0, 0, 2.1, 2.1)]
        smart = ShotFracturer(max_shot=2.0, avoid_slivers=True).fracture(rect)
        greedy = ShotFracturer(max_shot=2.0, avoid_slivers=False).fracture(rect)
        smart_report = analyze_figures(smart, sliver_threshold=0.5)
        greedy_report = analyze_figures(greedy, sliver_threshold=0.5)
        assert smart_report.sliver_count == 0
        assert greedy_report.sliver_count > 0

    def test_trapezoid_tiling_preserves_area(self, triangle):
        figs = ShotFracturer(max_shot=1.5).fracture([triangle])
        assert total_area(figs) == pytest.approx(triangle.area(), rel=1e-6)

    def test_staircase_fallback_when_no_trapezoid_apertures(self, triangle):
        figs = ShotFracturer(max_shot=1.5, allow_trapezoids=False).fracture(
            [triangle]
        )
        assert all(f.is_rectangle() for f in figs)
        assert total_area(figs) == pytest.approx(triangle.area(), rel=0.05)

    def test_fracture_to_shots_dose(self, triangle):
        shots = ShotFracturer(max_shot=2.0).fracture_to_shots([triangle], dose=1.5)
        assert all(s.dose == 1.5 for s in shots)

    def test_max_shot_validation(self):
        with pytest.raises(ValueError):
            ShotFracturer(max_shot=0)


class TestZeroAreaInput:
    """A zero-area polygon (a foreign file's snapped sliver, a collinear
    spike) yields no figure from any fracturer or kernel, and does not
    disturb its neighbours."""

    DEGENERATE = [
        Polygon([(18.0, 20.0), (20.0, 20.0), (20.0, 20.0)]),
        Polygon([(0, 0), (1, 0), (2, 0), (1, 0)]),
    ]
    FRACTURERS = [
        TrapezoidFracturer(),
        TrapezoidFracturer(kernel="exact"),
        RectangleFracturer(),
        ShotFracturer(),
        ShotFracturer(kernel="exact"),
    ]

    @pytest.mark.parametrize("fracturer", FRACTURERS, ids=repr)
    @pytest.mark.parametrize("degenerate", DEGENERATE, ids=["sliver", "spike"])
    def test_no_figure(self, fracturer, degenerate):
        assert fracturer.fracture([degenerate]) == []
        square = Polygon.rectangle(30, 30, 31, 31)
        assert fracturer.fracture([degenerate, square]) == fracturer.fracture([square])


class TestQuality:
    def test_empty_report(self):
        report = analyze_figures([])
        assert report.figure_count == 0
        assert report.total_area == 0.0

    def test_counts_and_area(self):
        figs = [
            Trapezoid.from_rectangle(0, 0, 2, 2),
            Trapezoid.from_rectangle(3, 0, 5, 2),
        ]
        report = analyze_figures(figs, reference_area=8.0)
        assert report.figure_count == 2
        assert report.total_area == pytest.approx(8.0)
        assert report.rectangle_fraction == 1.0
        assert report.area_error == pytest.approx(0.0)
        assert report.mean_area == pytest.approx(4.0)

    def test_sliver_detection(self):
        figs = [
            Trapezoid.from_rectangle(0, 0, 10, 10),
            Trapezoid.from_rectangle(20, 0, 20.05, 10),
        ]
        report = analyze_figures(figs, sliver_threshold=0.1)
        assert report.sliver_count == 1
        assert report.sliver_fraction == pytest.approx(0.5)

    def test_area_error_against_reference(self):
        figs = [Trapezoid.from_rectangle(0, 0, 2, 2)]
        report = analyze_figures(figs, reference_area=5.0)
        assert report.area_error == pytest.approx(0.2)

    def test_row_renders(self):
        figs = [Trapezoid.from_rectangle(0, 0, 2, 2)]
        assert "1" in analyze_figures(figs).row()
