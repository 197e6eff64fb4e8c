"""Tests for the raster RLE datapath encoder."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.rasterize import RasterFrame, rasterize_polygons
from repro.geometry.trapezoid import Trapezoid
from repro.machine.rle import (
    decode_to_coverage,
    encode_runs,
    merge_runs,
    runs_by_line,
)


def reference_coverage(figures, address_unit, origin, width, line_count):
    """Independent pixel-centre membership oracle (vectorized, no runs).

    A pixel is covered iff its centre satisfies ``y_bottom <= y < y_top``
    and ``left <= x < right`` on the figure's interpolated x-span — the
    encoder's half-open contract, computed without any run/merge/index
    arithmetic.
    """
    x0, y0 = origin
    xs = x0 + (np.arange(width) + 0.5) * address_unit
    ys = y0 + (np.arange(line_count) + 0.5) * address_unit
    grid = np.zeros((line_count, width), dtype=bool)
    for f in figures:
        if f.height <= 0:
            continue
        inside_y = (ys >= f.y_bottom) & (ys < f.y_top)
        t = (ys - f.y_bottom) / f.height
        left = f.x_bottom_left + t * (f.x_top_left - f.x_bottom_left)
        right = f.x_bottom_right + t * (f.x_top_right - f.x_bottom_right)
        grid |= (
            inside_y[:, None]
            & (xs[None, :] >= left[:, None])
            & (xs[None, :] < right[:, None])
        )
    return grid


def pattern_width(figures, origin, address_unit):
    x_max = max(f.bounding_box()[2] for f in figures)
    return max(1, int(math.ceil((x_max - origin[0]) / address_unit)))


#: Quarter-unit grid coordinates so figure edges frequently land exactly
#: on pixel centres and pixel boundaries of the sampled address units
#: (0.25-grid points coincide with pixel centres of 0.5 µm addresses).
_GRID = 0.25


@st.composite
def quantized_trapezoids(draw):
    y0 = draw(st.integers(0, 20)) * _GRID
    height = draw(st.integers(1, 12)) * _GRID
    xbl = draw(st.integers(0, 20)) * _GRID
    bottom = draw(st.integers(0, 12)) * _GRID
    xtl = draw(st.integers(0, 20)) * _GRID
    top = draw(st.integers(1, 12)) * _GRID
    return Trapezoid(y0, y0 + height, xbl, xbl + bottom, xtl, xtl + top)


class TestEncoding:
    def test_empty(self):
        _, line_count, runs = encode_runs([], 0.5)
        assert (line_count, len(runs)) == (0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_runs([Trapezoid.from_rectangle(0, 0, 1, 1)], 0.0)

    def test_single_rectangle_runs(self):
        rect = Trapezoid.from_rectangle(0, 0, 4, 2)
        _, line_count, runs = encode_runs([rect], address_unit=0.5)
        # 4 scanlines of one 8-address run each.
        assert line_count == 4
        assert len(runs) == 4
        for line_runs in runs_by_line(runs).values():
            assert line_runs == [(0, 8)]

    def test_written_addresses_match_area(self):
        rect = Trapezoid.from_rectangle(0, 0, 10, 6)
        _, _, runs = encode_runs([rect], address_unit=0.5)
        assert runs[:, 2].sum() == (10 / 0.5) * (6 / 0.5)

    def test_adjacent_figures_merge_runs(self):
        left = Trapezoid.from_rectangle(0, 0, 2, 1)
        right = Trapezoid.from_rectangle(2, 0, 4, 1)
        _, _, runs = encode_runs([left, right], address_unit=0.5)
        for line_runs in runs_by_line(runs).values():
            assert len(line_runs) == 1

    def test_disjoint_figures_keep_separate_runs(self):
        a = Trapezoid.from_rectangle(0, 0, 1, 1)
        b = Trapezoid.from_rectangle(5, 0, 6, 1)
        _, _, runs = encode_runs([a, b], address_unit=0.5)
        for line_runs in runs_by_line(runs).values():
            assert len(line_runs) == 2

    def test_triangle_runs_shrink_with_height(self):
        tri = Trapezoid(0, 4, 0, 8, 4, 4)  # triangle tip at top
        _, _, runs = encode_runs([tri], address_unit=0.5)
        lines = runs_by_line(runs)
        lengths = [sum(l for _, l in lines[j]) for j in sorted(lines)]
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))


class _DegenerateFigure:
    """Duck-typed zero-height figure (Trapezoid itself forbids it)."""

    y_bottom = 1.0
    y_top = 1.0
    height = 0.0
    x_bottom_left = 0.0
    x_bottom_right = 2.0
    x_top_left = 0.0
    x_top_right = 2.0

    def bounding_box(self):
        return (0.0, 1.0, 2.0, 1.0)


class TestDegenerateAndOrigin:
    def test_zero_height_figure_is_skipped(self):
        # Regression: ``t = (y - y_bottom) / height`` used to raise
        # ZeroDivisionError for degenerate figures.
        _, _, runs = encode_runs([_DegenerateFigure()], 0.5)
        assert len(runs) == 0

    def test_zero_height_figure_among_real_ones(self):
        rect = Trapezoid.from_rectangle(0, 0, 2, 1)
        origin, _, runs = encode_runs([rect, _DegenerateFigure()], 0.5)
        _, _, only = encode_runs([rect], 0.5, origin=origin)
        assert runs.tobytes() == only.tobytes()

    def test_explicit_origin_above_figure_raises(self):
        rect = Trapezoid.from_rectangle(0, 0, 2, 2)
        with pytest.raises(ValueError, match="origin"):
            encode_runs([rect], 0.5, origin=(0.0, 1.0))

    def test_explicit_origin_right_of_figure_raises(self):
        rect = Trapezoid.from_rectangle(0, 0, 2, 2)
        with pytest.raises(ValueError, match="origin"):
            encode_runs([rect], 0.5, origin=(1.0, 0.0))

    def test_explicit_origin_below_extends_grid(self):
        rect = Trapezoid.from_rectangle(0, 0, 2, 1)
        _, base_count, base = encode_runs([rect], 0.5, origin=(0.0, 0.0))
        _, shifted_count, shifted = encode_runs([rect], 0.5, origin=(-1.0, -1.0))
        assert shifted_count == base_count + 2
        assert shifted.tolist() == [
            [line + 2, start + 2, length] for line, start, length in base.tolist()
        ]

    def test_runs_stay_within_line_count(self):
        figs = [
            Trapezoid.from_rectangle(0, 0, 3, 1.3),
            Trapezoid(1.3, 2.9, 0.1, 2.7, 1.0, 1.9),
        ]
        _, line_count, runs = encode_runs(figs, 0.5, origin=(-2.0, -1.5))
        assert len(runs)
        assert ((0 <= runs[:, 0]) & (runs[:, 0] < line_count)).all()


class TestHalfOpenConvention:
    def test_edge_on_centre_rows_stay_within_estimate(self):
        # Bottom edge half an address below a centre, height exactly two
        # address units: the inclusive convention wrote three scanlines
        # (> ceil(h/a)); half-open writes exactly ceil(h/a).
        f = Trapezoid.from_rectangle(0, 0.5, 3, 2.5)
        _, _, runs = encode_runs([f], 1.0, origin=(0.0, 0.0))
        assert len(runs) == 2

    def test_abutting_edge_on_centre_column_written_once(self):
        # Shared vertical edge at x = 1.5, exactly the centre of column
        # 1 at a 1 µm address: the column belongs to the right-hand
        # figure only, so even without run merging (e.g. the two figures
        # in different machine-program shards) nothing double-writes.
        left = Trapezoid.from_rectangle(0, 0, 1.5, 1)
        right = Trapezoid.from_rectangle(1.5, 0, 4, 1)
        _, _, only_left = encode_runs([left], 1.0, origin=(0.0, 0.0))
        _, _, only_right = encode_runs([right], 1.0, origin=(0.0, 0.0))
        assert only_left.tolist() == [[0, 0, 1]]
        assert only_right.tolist() == [[0, 1, 3]]
        _, _, both = encode_runs([left, right], 1.0, origin=(0.0, 0.0))
        assert both.tolist() == [[0, 0, 4]]

    def test_abutting_edge_on_centre_row_written_once(self):
        lower = Trapezoid.from_rectangle(0, 0, 4, 1.5)
        upper = Trapezoid.from_rectangle(0, 1.5, 4, 3.5)
        _, line_count, runs = encode_runs([lower, upper], 1.0, origin=(0.0, 0.0))
        # The shared edge sits exactly on the centre of row 1; it belongs
        # to the upper figure alone, so every row is one 4-address run
        # and nothing double-counts.
        lines = runs_by_line(runs)
        assert all(line_runs == [(0, 4)] for line_runs in lines.values())
        ref = reference_coverage([lower, upper], 1.0, (0.0, 0.0), 4, line_count)
        assert (decode_to_coverage(lines, line_count, 4) == ref).all()


class TestPropertyOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(quantized_trapezoids(), min_size=1, max_size=6),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_encode_matches_membership_oracle(self, figs, address_unit):
        origin, line_count, runs = encode_runs(figs, address_unit)
        width = pattern_width(figs, origin, address_unit)
        grid = decode_to_coverage(runs_by_line(runs), line_count, width)
        ref = reference_coverage(figs, address_unit, origin, width, line_count)
        assert (grid == ref).all()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(quantized_trapezoids(), min_size=1, max_size=4),
        st.sampled_from([0.25, 0.5]),
    )
    # A pair that overlaps at a 4 µm band pitch, narrower than a
    # figure's y extent.
    @example(
        [Trapezoid(3.75, 4.25, 0, 0, 0, 0.5), Trapezoid(0, 0.25, 0, 0, 0, 2)],
        0.5,
    )
    def test_encode_consistent_with_rasterizer(self, figs, address_unit):
        # One figure per y-band: encode_runs' contract is *disjoint*
        # figures, and the rasterizer's additive-then-clipped coverage
        # would count overlapping duplicates twice.  quantized_trapezoids
        # spans y in [0, 8], so 10 µm bands never meet.
        figs = [
            Trapezoid(
                t.y_bottom + i * 10.0,
                t.y_top + i * 10.0,
                t.x_bottom_left,
                t.x_bottom_right,
                t.x_top_left,
                t.x_top_right,
            )
            for i, t in enumerate(figs)
        ]
        origin, line_count, runs = encode_runs(figs, address_unit)
        width = pattern_width(figs, origin, address_unit)
        grid = decode_to_coverage(runs_by_line(runs), line_count, width)
        frame = RasterFrame(
            origin[0], origin[1], address_unit, width, max(1, line_count)
        )
        polygons = [f.to_polygon() for f in figs]
        cover = rasterize_polygons(polygons, frame, supersample=4)
        # A pixel the anti-aliased rasterizer sees as fully covered must
        # be written by the runs (no holes in fully exposed regions).
        # The converse is deliberately not asserted: a steep slanted
        # sliver can cover a pixel's centre row while contributing
        # almost no area, so low coverage does not imply "unwritten".
        assert grid[cover > 0.99].all()

    def test_fractured_layout_matches_oracle(self):
        polys = [
            Polygon.rectangle(0, 0, 6, 3),
            Polygon([(8, 0), (14, 0), (11, 5)]),
            Polygon([(0, 4), (5, 4), (5, 6.5), (0, 6.5)]),
        ]
        figs = TrapezoidFracturer().fracture(polys)
        origin, line_count, runs = encode_runs(figs, 0.25)
        width = pattern_width(figs, origin, 0.25)
        grid = decode_to_coverage(runs_by_line(runs), line_count, width)
        ref = reference_coverage(figs, 0.25, origin, width, line_count)
        assert (grid == ref).all()


class TestDecode:
    def test_roundtrip_against_rasterizer(self):
        polys = [
            Polygon.rectangle(0, 0, 6, 3),
            Polygon([(8, 0), (14, 0), (11, 5)]),
        ]
        figures = TrapezoidFracturer().fracture(polys)
        a = 0.25
        _, line_count, runs = encode_runs(figures, address_unit=a)
        width = int(np.ceil(14 / a))
        grid = decode_to_coverage(runs_by_line(runs), line_count, width)
        # Compare covered address count against exact area within half an
        # address of boundary discretization.
        area = grid.sum() * a * a
        expected = sum(f.area() for f in figures)
        assert area == pytest.approx(expected, rel=0.05)

    def test_decode_respects_width_clip(self):
        rect = Trapezoid.from_rectangle(0, 0, 10, 1)
        _, line_count, runs = encode_runs([rect], address_unit=1.0)
        grid = decode_to_coverage(runs_by_line(runs), line_count, width_addresses=5)
        assert grid.shape[1] == 5
        assert grid[0].all()


class TestRunHelpers:
    def test_runs_by_line_groups_rows(self):
        runs = np.array([[0, 1, 2], [0, 5, 1], [2, 0, 4]])
        assert runs_by_line(runs) == {0: [(1, 2), (5, 1)], 2: [(0, 4)]}

    def test_merge_joins_overlaps_and_neighbours_only(self):
        runs = np.array([[1, 6, 2], [0, 0, 3], [0, 3, 2], [0, 9, 1], [0, 2, 2]])
        assert merge_runs(runs).tolist() == [[0, 0, 5], [0, 9, 1], [1, 6, 2]]

    def test_merge_keeps_lines_apart(self):
        # Same addresses on two scanlines never merge across them.
        runs = np.array([[0, 0, 4], [1, 0, 4]])
        assert merge_runs(runs).tolist() == [[0, 0, 4], [1, 0, 4]]

    def test_merge_of_nothing(self):
        assert len(merge_runs(np.empty((0, 3), dtype=np.int64))) == 0

    def test_decode_ignores_lines_past_the_count(self):
        grid = decode_to_coverage({0: [(1, 2)], 5: [(0, 3)]}, 2, 4)
        assert grid.tolist() == [[False, True, True, False], [False] * 4]
