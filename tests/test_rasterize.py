"""Tests for repro.geometry.rasterize."""

import math

import numpy as np
import pytest

from repro.geometry.polygon import Polygon
from repro.geometry.rasterize import RasterFrame, rasterize_polygons


class TestRasterFrame:
    def test_validates_pixel(self):
        with pytest.raises(ValueError):
            RasterFrame(0, 0, 0, 10, 10)

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            RasterFrame(0, 0, 1.0, 0, 10)

    def test_around_covers_bbox(self):
        f = RasterFrame.around((0, 0, 9.7, 4.2), pixel=1.0)
        x0, y0, x1, y1 = f.extent()
        assert x0 <= 0 and y0 <= 0
        assert x1 >= 9.7 and y1 >= 4.2

    def test_around_margin(self):
        f = RasterFrame.around((0, 0, 10, 10), pixel=1.0, margin=5.0)
        assert f.x0 == -5.0
        assert f.extent()[2] >= 15.0

    def test_centers(self):
        f = RasterFrame(0, 0, 1.0, 4, 2)
        assert np.allclose(f.x_centers(), [0.5, 1.5, 2.5, 3.5])


class TestCoverage:
    def test_pixel_aligned_rectangle_exact(self):
        f = RasterFrame(0, 0, 1.0, 10, 10)
        cover = rasterize_polygons([Polygon.rectangle(2, 2, 6, 5)], f)
        assert cover.sum() * f.pixel**2 == pytest.approx(12.0)
        assert cover[3, 3] == pytest.approx(1.0)
        assert cover[0, 0] == pytest.approx(0.0)

    def test_subpixel_rectangle(self):
        f = RasterFrame(0, 0, 1.0, 10, 10)
        cover = rasterize_polygons([Polygon.rectangle(2.25, 2.0, 2.75, 3.0)], f)
        assert cover.sum() * f.pixel**2 == pytest.approx(0.5, abs=1e-6)
        assert cover[2, 2] == pytest.approx(0.5, abs=1e-6)

    def test_half_covered_pixel_row(self):
        f = RasterFrame(0, 0, 1.0, 4, 4)
        cover = rasterize_polygons([Polygon.rectangle(0, 0, 4, 0.5)], f, supersample=8)
        assert np.allclose(cover[0, :], 0.5, atol=0.07)
        assert np.allclose(cover[1:, :], 0.0)

    def test_triangle_area_converges(self):
        f = RasterFrame(0, 0, 0.25, 48, 48)
        t = Polygon([(1, 1), (11, 1), (6, 9)])
        cover = rasterize_polygons([t], f, supersample=8)
        assert cover.sum() * f.pixel**2 == pytest.approx(t.area(), rel=0.01)

    def test_circle_area_converges(self):
        f = RasterFrame(-6, -6, 0.25, 48, 48)
        angles = [2 * math.pi * i / 128 for i in range(128)]
        c = Polygon([(5 * math.cos(t), 5 * math.sin(t)) for t in angles])
        cover = rasterize_polygons([c], f, supersample=8)
        assert cover.sum() * f.pixel**2 == pytest.approx(c.area(), rel=0.01)

    def test_overlap_saturates(self):
        f = RasterFrame(0, 0, 1.0, 10, 10)
        p = Polygon.rectangle(0, 0, 5, 5)
        cover = rasterize_polygons([p, p], f)
        assert cover.max() == pytest.approx(1.0)
        assert cover.sum() * f.pixel**2 == pytest.approx(25.0)

    def test_polygon_outside_frame(self):
        f = RasterFrame(0, 0, 1.0, 10, 10)
        cover = rasterize_polygons([Polygon.rectangle(100, 100, 110, 110)], f)
        assert cover.sum() == 0.0


SHAPES = {
    "rectangle": Polygon.rectangle(1.2, 0.7, 6.9, 4.1),
    "triangle": Polygon([(1, 1), (9, 1), (4, 8)]),
    "l-shape": Polygon([(1, 1), (8, 1), (8, 3), (3, 3), (3, 9), (1, 9)]),
}


class TestFracturedCoverage:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_trapezoid_pieces_raster_like_their_polygon(self, shape):
        # The pieces tile the polygon: their summed coverage is the
        # polygon's, pixel by pixel.
        from repro.geometry.boolean import boolean_trapezoids

        f = RasterFrame(0, 0, 0.5, 22, 22)
        pieces = [t.to_polygon() for t in boolean_trapezoids([SHAPES[shape]], [], "or")]
        whole = rasterize_polygons([SHAPES[shape]], f, supersample=8)
        summed = sum(rasterize_polygons([p], f, supersample=8) for p in pieces)
        assert np.allclose(summed, whole, atol=1e-9)


class TestFrameGeometry:
    def test_extent_spans_the_pixels(self):
        f = RasterFrame(-1.5, 2.0, 0.25, 8, 4)
        assert f.extent() == pytest.approx((-1.5, 2.0, 0.5, 3.0))

    def test_polygon_across_frame_edge_covers_inside_part(self):
        f = RasterFrame(0, 0, 1.0, 10, 10)
        cover = rasterize_polygons([Polygon.rectangle(-5, 2, 4, 6)], f)
        assert cover.sum() * f.pixel**2 == pytest.approx(16.0)
