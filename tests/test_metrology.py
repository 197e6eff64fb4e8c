"""Tests for metrology on simulated images."""

import numpy as np
import pytest

from repro.geometry.rasterize import RasterFrame
from repro.physics.metrology import (
    dose_latitude,
    edge_positions,
    measure_linewidth,
    profile_along_x,
)


def synthetic_line_image(frame, x_left, x_right, blur=1.0):
    """Smooth image of a vertical line from x_left to x_right."""
    from scipy.special import erf

    xs = frame.x_centers()
    profile = 0.5 * (erf((xs - x_left) / blur) - erf((xs - x_right) / blur))
    return np.tile(profile, (frame.ny, 1))


@pytest.fixture
def frame():
    return RasterFrame(0, 0, 0.1, 200, 50)


class TestProfiles:
    def test_profile_along_x_shape(self, frame):
        image = np.random.default_rng(0).random((frame.ny, frame.nx))
        xs, values = profile_along_x(image, frame, y=2.5)
        assert len(xs) == frame.nx
        assert len(values) == frame.nx

    def test_profile_interpolates_rows(self, frame):
        image = np.zeros((frame.ny, frame.nx))
        image[10, :] = 1.0
        # Exactly on row 10's centre.
        _, v_on = profile_along_x(image, frame, y=(10 + 0.5) * frame.pixel)
        assert v_on[0] == pytest.approx(1.0)
        # Halfway between rows 10 and 11.
        _, v_half = profile_along_x(image, frame, y=(11.0) * frame.pixel)
        assert v_half[0] == pytest.approx(0.5)


class TestEdgePositions:
    def test_single_step(self):
        x = np.arange(10, dtype=float)
        v = np.where(x < 5, 0.0, 1.0)
        crossings = edge_positions(x, v, 0.5)
        assert len(crossings) == 1
        assert 4.0 <= crossings[0] <= 5.0

    def test_subpixel_interpolation(self):
        x = np.array([0.0, 1.0])
        v = np.array([0.0, 1.0])
        assert edge_positions(x, v, 0.25) == [pytest.approx(0.25)]

    def test_no_crossings(self):
        x = np.arange(5, dtype=float)
        assert edge_positions(x, np.zeros(5), 0.5) == []


class TestLinewidth:
    def test_measures_designed_width(self, frame):
        image = synthetic_line_image(frame, 8.0, 12.0, blur=0.5)
        width = measure_linewidth(image, frame, threshold=0.5, cut_y=2.5)
        assert width == pytest.approx(4.0, abs=0.05)

    def test_threshold_moves_edges(self, frame):
        image = synthetic_line_image(frame, 8.0, 12.0, blur=1.0)
        wide = measure_linewidth(image, frame, threshold=0.3, cut_y=2.5)
        narrow = measure_linewidth(image, frame, threshold=0.7, cut_y=2.5)
        assert wide > narrow

    def test_none_when_nothing_prints(self, frame):
        image = np.zeros((frame.ny, frame.nx))
        assert measure_linewidth(image, frame, 0.5, cut_y=2.5) is None

    def test_near_x_selects_feature(self, frame):
        image = synthetic_line_image(frame, 3.0, 5.0, blur=0.3)
        image += synthetic_line_image(frame, 14.0, 15.0, blur=0.3)
        w_left = measure_linewidth(image, frame, 0.5, cut_y=2.5, near_x=4.0)
        w_right = measure_linewidth(image, frame, 0.5, cut_y=2.5, near_x=14.5)
        assert w_left == pytest.approx(2.0, abs=0.05)
        assert w_right == pytest.approx(1.0, abs=0.05)

    def test_default_picks_widest(self, frame):
        image = synthetic_line_image(frame, 3.0, 8.0, blur=0.3)
        image += synthetic_line_image(frame, 14.0, 15.0, blur=0.3)
        assert measure_linewidth(image, frame, 0.5, cut_y=2.5) == pytest.approx(
            5.0, abs=0.05
        )


class TestDoseLatitude:
    def test_window(self):
        doses = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
        widths = [0.85, 0.93, 1.0, 1.05, 1.2, 1.4]
        latitude = dose_latitude(doses, widths, target_cd=1.0, tolerance=0.1)
        # In-spec doses: 0.9..1.1 (widths within 0.9-1.1).
        assert latitude == pytest.approx((1.1 - 0.9) / 1.0)

    def test_zero_when_never_in_spec(self):
        assert dose_latitude([1.0], [5.0], target_cd=1.0) == 0.0

    def test_none_widths_skipped(self):
        latitude = dose_latitude(
            [0.5, 1.0, 1.5], [None, 1.0, None], target_cd=1.0
        )
        assert latitude == pytest.approx(0.0)


class TestCutsAndEdges:
    def test_profile_on_a_row_centre_is_that_row(self, frame):
        image = np.random.default_rng(1).random((frame.ny, frame.nx))
        _, values = profile_along_x(image, frame, y=(7 + 0.5) * frame.pixel)
        assert np.array_equal(values, image[7])

    def test_profile_below_the_frame_clamps_to_first_row(self, frame):
        image = np.random.default_rng(2).random((frame.ny, frame.nx))
        _, values = profile_along_x(image, frame, y=-5.0)
        assert np.allclose(values, image[0])

    def test_falling_edge_found(self):
        xs = np.arange(6, dtype=float)
        values = np.array([1.0, 1.0, 0.8, 0.2, 0.0, 0.0])
        assert edge_positions(xs, values, 0.5) == pytest.approx([2.5])

    def test_line_edges_straddle_its_centre(self, frame):
        image = synthetic_line_image(frame, 6.0, 10.0, blur=0.4)
        xs, values = profile_along_x(image, frame, 2.5)
        left, right = edge_positions(xs, values, 0.5)
        assert (left + right) / 2 == pytest.approx(8.0, abs=0.01)

    def test_threshold_above_peak_prints_nothing(self, frame):
        image = synthetic_line_image(frame, 8.0, 12.0, blur=0.5)
        assert measure_linewidth(image, frame, threshold=1.5, cut_y=2.5) is None
