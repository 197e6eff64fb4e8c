"""The shard planner against oracles written here.

One planner (:func:`repro.core.plan._plan_tiles`) turns an ``(N, 4)``
block of bounding boxes into the tiles every mode runs; these tests pin
it — and its three callers and the overlap advisory that reads the same
block — against scalar, object-by-object references:

* the array index routine against :func:`field_index_of`;
* ``plan_shards``/``plan_figure_shards`` against dict bucketing;
* the streamed spool's windows against the resident plan;
* the advisory's candidate pairs against an O(n²) enumeration, and its
  exact check against box intersections and the reference engine;
* the pitch range rule in every execution mode.
"""

from __future__ import annotations

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import executor, plan
from repro.core.executor import (
    ShardOverlapWarning,
    _spooled_windows,
    plan_figure_shards,
    plan_shards,
    shutdown_worker_pool,
)
from repro.core.fields import box_field_indices, field_index_of
from repro.core.hierarchical import fracture_hierarchical
from repro.core.jobfile import dumps_job
from repro.core.pipeline import PreparationPipeline
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import FigureView
from repro.layout import generators

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def centre_index(box, x0, y0, pitch):
    return field_index_of(
        (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0, x0, y0, pitch
    )


def oracle_plan(items, pitch):
    """Dict bucketing, object by object: ``[(index, [items])]`` row-major."""
    boxes = [item.bounding_box() for item in items]
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    buckets = {}
    for item, box in zip(items, boxes):
        buckets.setdefault(centre_index(box, x0, y0, pitch), []).append(item)
    return [
        (index, buckets[index])
        for index in sorted(buckets, key=lambda ij: (ij[1], ij[0]))
    ]


def oracle_crossers(items, pitch):
    """``(boxes, tiles, crosser flags)``, item by item: a crosser's box
    escapes the tile its centre falls in."""
    boxes = [item.bounding_box() for item in items]
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    tiles = [centre_index(box, x0, y0, pitch) for box in boxes]

    def crosses(box, tile):
        tx, ty = x0 + tile[0] * pitch, y0 + tile[1] * pitch
        return (
            box[0] < tx
            or box[1] < ty
            or box[2] > tx + pitch
            or box[3] > ty + pitch
        )

    return boxes, tiles, [crosses(b, t) for b, t in zip(boxes, tiles)]


def oracle_pairs(items, pitch):
    """Every cross-tile pair the exact test must see, by brute force:
    different tiles, at least one crosser, and boxes intersecting in
    positive width and height."""
    boxes, tiles, crosser = oracle_crossers(items, pitch)
    pairs = set()
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = boxes[i], boxes[j]
            if (
                tiles[i] != tiles[j]
                and (crosser[i] or crosser[j])
                and min(a[2], b[2]) > max(a[0], b[0])
                and min(a[3], b[3]) > max(a[1], b[1])
            ):
                pairs.add(frozenset((a, b)))
    return pairs


def record_exact_test(monkeypatch, verdict=False):
    """Stub the exact interior test; returns the list of box pairs it
    was handed."""
    calls = []

    def stub(a, b):
        calls.append(frozenset((a.bounding_box(), b.bounding_box())))
        return verdict

    monkeypatch.setattr(plan, "_interiors_overlap", stub)
    return calls


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

PITCHES = st.floats(1e-3, 1e3, allow_nan=False)
COORDS = st.floats(-1e4, 1e4, allow_nan=False)


@st.composite
def box_blocks(draw):
    """``(boxes, x0, y0, pitch)`` with some centres exactly on tile
    edges and the origin anywhere (so quotients of both signs)."""
    pitch = draw(PITCHES)
    x0, y0 = draw(COORDS), draw(COORDS)

    def centre(origin):
        on_edge = draw(st.booleans())
        if on_edge:
            return origin + draw(st.integers(-1000, 1000)) * pitch
        return draw(COORDS)

    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        cx, cy = centre(x0), centre(y0)
        half_w, half_h = draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 50.0))
        boxes.append((cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    return boxes, x0, y0, pitch


#: Distinct-box rectangles on a coarse lattice: overlap, abutment and
#: containment across tile edges are all common.
LATTICE = st.integers(-40, 40).map(lambda k: k * 0.5)


@st.composite
def rectangle_layouts(draw, max_size=14):
    boxes = draw(
        st.lists(
            st.tuples(
                LATTICE, LATTICE, st.integers(1, 24), st.integers(1, 24)
            ),
            min_size=1,
            max_size=max_size,
            unique=True,
        )
    )
    pitch = draw(st.sampled_from([1.5, 4.0, 7.0, 16.0]))
    polygons = [
        Polygon.rectangle(x, y, x + w * 0.5, y + h * 0.5)
        for x, y, w, h in boxes
    ]
    return polygons, pitch


def as_figures(polygons):
    """One slanted trapezoid per rectangle, same bounding box."""
    figures = []
    for poly in polygons:
        x0, y0, x1, y1 = poly.bounding_box()
        inset = (x1 - x0) / 4.0
        figures.append(Trapezoid(y0, y1, x0, x1, x0 + inset, x1 - inset))
    return figures


def vertices(poly):
    return [(v.x, v.y) for v in poly.vertices]


# ---------------------------------------------------------------------------
# (a) the array index routine
# ---------------------------------------------------------------------------


class TestBoxFieldIndices:
    @settings(deadline=None, max_examples=300)
    @given(box_blocks())
    def test_equals_the_scalar_routine_element_for_element(self, block):
        boxes, x0, y0, pitch = block
        indices = box_field_indices(
            np.array(boxes, dtype=np.float64).reshape(-1, 4), x0, y0, pitch
        )
        assert indices.dtype == np.int64 and indices.shape == (len(boxes), 2)
        assert [tuple(index) for index in indices.tolist()] == [
            centre_index(box, x0, y0, pitch) for box in boxes
        ]

    @staticmethod
    def block_with_quotient(q):
        """One box whose x quotient is exactly ``q`` at pitch 2**-20."""
        centre = q * 2.0**-20
        return np.array([[centre - 0.125, 0.0, centre + 0.125, 0.25]])

    @pytest.mark.parametrize("q", [2.0**31 - 0.5, -(2.0**31) - 0.5, 0.0])
    def test_indices_at_the_int32_edges_are_legal(self, q):
        ((col, row),) = box_field_indices(
            self.block_with_quotient(q), 0.0, 0.0, 2.0**-20
        ).tolist()
        assert (col, row) == field_index_of(
            q * 2.0**-20, 0.125, 0.0, 0.0, 2.0**-20
        )
        assert -(2**31) <= col <= 2**31 - 1

    @pytest.mark.parametrize("q", [2.0**31, 2.0**31 + 0.5, -(2.0**31) - 1.0])
    def test_an_index_outside_int32_is_a_value_error(self, q):
        with pytest.raises(ValueError, match="field size 9.5367431640625e-07"):
            box_field_indices(self.block_with_quotient(q), 0.0, 0.0, 2.0**-20)

    @pytest.mark.parametrize(
        "boxes, pitch",
        [
            ([[0.0, 0.0, 1.0, 1.0], [99.0, 0.0, 100.0, 1.0]], 1e-320),
            ([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, float("inf"), 1.0]], 10.0),
            ([[0.0, 0.0, 1.0, 1.0], [0.0, float("nan"), 1.0, 1.0]], 10.0),
            ([[0.0, 0.0, 1.0, 1.0]], float("nan")),
        ],
    )
    def test_a_non_finite_quotient_is_a_value_error(self, boxes, pitch):
        # Never OverflowError, never a RuntimeWarning (an error here).
        with pytest.raises(ValueError, match="cannot tile"):
            box_field_indices(np.array(boxes), 0.0, 0.0, pitch)

    def test_the_error_names_the_pitch_and_the_layout_extent(self):
        boxes = np.array([[5.0, 5.0, 6.0, 6.0], [3004.0, 204.0, 3005.0, 205.0]])
        with pytest.raises(ValueError) as excinfo:
            box_field_indices(boxes, 5.0, 5.0, 1e-6)
        assert "1e-06" in str(excinfo.value)
        assert "3000 x 200" in str(excinfo.value)


# ---------------------------------------------------------------------------
# (b) the resident planners
# ---------------------------------------------------------------------------


def assert_same_plan(shards, items, expected, kind=tuple, same=operator.is_):
    assert [shard.index for shard in shards] == [index for index, _ in expected]
    for shard, (_, members) in zip(shards, expected):
        assert isinstance(items(shard), kind)
        assert len(items(shard)) == len(members)
        assert all(same(a, b) for a, b in zip(items(shard), members))
        assert all(type(i) is int for i in shard.index)


class TestResidentPlanners:
    @settings(deadline=None, max_examples=200)
    @given(rectangle_layouts())
    def test_plan_shards_equals_dict_bucketing(self, layout):
        polygons, pitch = layout
        expected = oracle_plan(polygons, pitch)
        for policy in ("ignore", "warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ShardOverlapWarning)
                shards = plan_shards(polygons, pitch, overlap_policy=policy)
            assert_same_plan(shards, lambda s: s.polygons, expected)
            assert all(shard.figures is None for shard in shards)

    @settings(deadline=None, max_examples=200)
    @given(rectangle_layouts())
    def test_plan_figure_shards_equals_dict_bucketing(self, layout):
        polygons, pitch = layout
        figures = as_figures(polygons)
        expected = oracle_plan(figures, pitch)
        for policy in ("ignore", "warn"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ShardOverlapWarning)
                shards = plan_figure_shards(
                    figures, pitch, overlap_policy=policy
                )
            # Figure shards carry rows, not the objects they were given.
            assert_same_plan(
                shards, lambda s: s.figures, expected, FigureView, operator.eq
            )
            assert all(shard.polygons == () for shard in shards)

    def test_boxes_are_one_reduction_over_the_stacked_rings(self, monkeypatch):
        stacked, planned = [], []
        real_stack, real_tiles = plan.stack_polygons, plan._plan_tiles

        def stacking(polygons):
            stacked.append(list(polygons))
            return real_stack(polygons)

        def tiling(boxes, field_size):
            planned.append(boxes)
            return real_tiles(boxes, field_size)

        monkeypatch.setattr(plan, "stack_polygons", stacking)
        monkeypatch.setattr(plan, "_plan_tiles", tiling)
        angles = [i * 2.0 * math.pi / 7 for i in range(7)]
        polygons = [
            Polygon.rectangle(0.0, 0.0, 18.0, 6.0),
            Polygon([(19.0, -0.0), (30.0, 0.5), (25.0, 6.0), (19.5, 3.0)]),
            Polygon([(2 + 2 * math.cos(t), 32 + 2 * math.sin(t)) for t in angles]),
        ]
        plan_shards(polygons, 20.0)
        assert len(stacked) == 1 and stacked[0] == polygons
        expected = np.array([p.bounding_box() for p in polygons])
        assert planned[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("planner", [plan_shards, plan_figure_shards])
    @pytest.mark.parametrize(
        "pitch", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_the_planner_rejects_an_illegal_pitch(self, planner, pitch):
        polygons = [Polygon.rectangle(0.0, 0.0, 1.0, 1.0)]
        items = polygons if planner is plan_shards else as_figures(polygons)
        with pytest.raises(ValueError, match="field size must be"):
            planner(items, pitch)

    @pytest.mark.parametrize("planner", [plan_shards, plan_figure_shards])
    def test_the_origin_parameter_is_gone(self, planner):
        with pytest.raises(TypeError):
            planner([], 10.0, origin=(0.0, 0.0))


# ---------------------------------------------------------------------------
# (c) the streamed source
# ---------------------------------------------------------------------------


def spooled(polygons, pitch):
    """Drain the spool source: ``(source_polygons, total, windows)``."""
    with _spooled_windows(iter(polygons), pitch) as (count, total, windows):
        return count, total, list(windows)


class TestSpooledWindows:
    @settings(deadline=None, max_examples=150)
    @given(rectangle_layouts())
    def test_windows_equal_the_resident_plan(self, layout):
        polygons, pitch = layout
        # A few non-rectangles, so records differ in length.
        polygons = polygons + [
            Polygon([(0.0, 0.0), (3.0, 0.5), (1.0, 4.0)]),
            Polygon([(9.0, -3.0), (12.0, -3.0), (13.0, 0.0), (10.0, 2.0), (8.0, 0.0)]),
        ]
        resident = plan_shards(polygons, pitch, overlap_policy="ignore")
        count, total, windows = spooled(polygons, pitch)
        assert count == len(polygons)
        assert total == len(resident)
        streamed = [shard for shards, _ in windows for shard in shards]
        assert [s.index for s in streamed] == [s.index for s in resident]
        for mine, theirs in zip(streamed, resident):
            assert [vertices(p) for p in mine.polygons] == [
                vertices(p) for p in theirs.polygons
            ]
        # One window per shard row, bottom to top, charged exactly the
        # records it re-read.
        rows = [sorted({s.index[1] for s in shards}) for shards, _ in windows]
        assert all(len(row) == 1 for row in rows)
        assert rows == sorted(rows)
        assert len({row[0] for row in rows}) == len(rows)
        for shards, source_bytes in windows:
            assert source_bytes == sum(
                16 * len(p.vertices) for s in shards for p in s.polygons
            )

    def test_unsharded_and_empty_streams(self):
        polygons = [
            Polygon.rectangle(0.0, 0.0, 1.0, 1.0),
            Polygon.rectangle(50.0, 50.0, 51.0, 51.0),
        ]
        count, total, windows = spooled(polygons, None)
        assert (count, total, len(windows)) == (2, 1, 1)
        (shard,) = windows[0][0]
        assert shard.index == (0, 0)
        assert [vertices(p) for p in shard.polygons] == [
            vertices(p) for p in polygons
        ]
        assert spooled([], 10.0) == (0, 0, [])
        assert spooled([], None) == (0, 0, [])

    def test_each_window_opens_the_spool_once(self, monkeypatch):
        # One open writes the spool and one reads each window, just
        # before the window is handed out.
        opened = []

        def counting_open(path, mode="r", *args, **kwargs):
            opened.append(mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(executor, "open", counting_open, raising=False)
        grid = [
            Polygon.rectangle(x, y, x + 1.0, y + 1.0)
            for y in (0.0, 10.0, 20.0)
            for x in (0.0, 10.0, 20.0)
        ]
        with _spooled_windows(iter(grid), 10.0) as (_, total, windows):
            assert opened == ["r+b"]
            for n, (shards, _) in enumerate(windows, 1):
                assert len(shards) == 3 and opened == ["r+b"] + ["rb"] * n
            assert (total, n) == (9, 3)


# ---------------------------------------------------------------------------
# (d) the overlap advisory's candidates
# ---------------------------------------------------------------------------


class TestOverlapCandidates:
    @settings(deadline=None, max_examples=300)
    @given(rectangle_layouts())
    def test_pairs_equal_a_brute_force_enumeration(self, layout):
        polygons, pitch = layout
        expected = oracle_pairs(polygons, pitch)
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_test(patch)
            plan_shards(polygons, pitch)
        assert len(calls) == len(set(calls))  # each pair met once
        assert set(calls) == expected

    @settings(deadline=None, max_examples=150)
    @given(rectangle_layouts())
    def test_figures_convert_only_members_of_candidate_pairs(self, layout):
        polygons, pitch = layout
        figures = as_figures(polygons)
        expected = oracle_pairs(figures, pitch)
        converted = []
        real = Trapezoid.to_polygon
        with pytest.MonkeyPatch.context() as patch:
            calls = record_exact_test(patch)
            patch.setattr(
                Trapezoid,
                "to_polygon",
                lambda self: converted.append(self.bounding_box()) or real(self),
            )
            plan_figure_shards(figures, pitch)
        assert set(calls) == expected
        assert set(converted) == {box for pair in expected for box in pair}

    def many_crossers(self):
        """Six long bars, three per tile, the right three reaching back
        over the left three: nine candidate pairs."""
        return [
            Polygon.rectangle(x0, 2.0 * i, x1, 2.0 * i + 6.0)
            for x0, x1 in ((0.0, 16.0), (12.0, 40.0))
            for i in range(3)
        ]

    def test_the_cap_still_ends_in_the_conservative_warning(self, monkeypatch):
        polygons = self.many_crossers()
        assert len(oracle_pairs(polygons, 20.0)) == 9
        calls = record_exact_test(monkeypatch)
        monkeypatch.setattr(plan, "_OVERLAP_CHECK_CAP", 4)
        with pytest.warns(ShardOverlapWarning, match="too many"):
            shards = plan_shards(polygons, 20.0)
        assert len(calls) == 4  # the budget, then the warning
        assert [len(s.polygons) for s in shards] == [3, 3]

    def test_a_budget_that_covers_every_pair_stays_silent(self, monkeypatch):
        calls = record_exact_test(monkeypatch)
        monkeypatch.setattr(plan, "_OVERLAP_CHECK_CAP", 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            plan_shards(self.many_crossers(), 20.0)
        assert len(calls) == 9

    def test_enumeration_stops_at_the_first_positive(self, monkeypatch):
        calls = record_exact_test(monkeypatch, verdict=True)
        with pytest.warns(ShardOverlapWarning, match=r"shards \(\d, 0\) and"):
            plan_shards(self.many_crossers(), 20.0)
        assert len(calls) == 1

    def test_memory_array_runs_no_exact_test(self, monkeypatch):
        """The F16 cells layout: figures cross field edges, none of them
        overlaps a figure of another field — so neither the exact test
        nor a single ``to_polygon`` runs."""
        chip = generators.memory_array(blocks=(4, 4)).top_cell()
        hier = fracture_hierarchical(
            chip, TrapezoidFracturer(), merge_layers=True
        )
        figures = [t for traps in hier.figures.values() for t in traps]
        # Not vacuous: the advisory has crossers to rule out.
        assert sum(oracle_crossers(figures, 100.0)[2]) == 64

        def forbidden(*args):
            raise AssertionError("exact overlap machinery ran")

        monkeypatch.setattr(plan, "_interiors_overlap", forbidden)
        monkeypatch.setattr(Trapezoid, "to_polygon", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            shards = plan_figure_shards(figures, 100.0)
        assert len(shards) == 9
        assert sum(len(s.figures) for s in shards) == len(figures) == 16384


#: Rectangle edges in nm: a 0.5 µm lattice nudged by at most 1 nm, so
#: overlap, abutment and a one-grid-step overlap or gap are all common.
EDGES_NM = st.builds(
    lambda k, nudge: 500 * k + nudge, st.integers(-4, 4), st.integers(-1, 1)
)


@st.composite
def nm_rectangles(draw):
    x0, x1 = sorted(draw(st.lists(EDGES_NM, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(EDGES_NM, min_size=2, max_size=2, unique=True)))
    return x0, y0, x1, y1


@st.composite
def convex_polygons(draw):
    """A regular polygon near the origin, its vertices on the 1 nm grid
    or off it."""
    cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    radius = draw(st.floats(0.01, 2.0))
    sides = draw(st.integers(3, 9))
    phase = draw(st.floats(0.0, 6.3))
    step = 2.0 * math.pi / sides
    angles = [phase + i * step for i in range(sides)]
    polygon = Polygon(
        [(cx + radius * math.cos(t), cy + radius * math.sin(t)) for t in angles]
    )
    if draw(st.booleans()):
        polygon = Polygon([(round(v.x, 3), round(v.y, 3)) for v in polygon.vertices])
    return polygon


class TestExactOverlapCheck:
    """``_interiors_overlap`` against answers it does not compute:
    positive area on the 1 nm database grid."""

    @settings(deadline=None, max_examples=200)
    @given(nm_rectangles(), nm_rectangles())
    def test_rectangles_overlap_iff_their_box_intersection_has_area(self, a, b):
        width = min(a[2], b[2]) - max(a[0], b[0])
        height = min(a[3], b[3]) - max(a[1], b[1])
        polygons = [Polygon.rectangle(*(c / 1000.0 for c in box)) for box in (a, b)]
        assert plan._interiors_overlap(*polygons) == (width > 0 and height > 0)

    @settings(deadline=None, max_examples=100)
    @given(convex_polygons(), convex_polygons())
    def test_convex_pairs_agree_with_the_reference_intersection(self, a, b):
        reference = boolean_trapezoids([a], [b], "and", kernel="exact")
        assert plan._interiors_overlap(a, b) == (len(reference) > 0)

    @pytest.mark.parametrize(
        "polygon",
        [
            Polygon.rectangle(0.0, 0.0, 2.0, 1.0),
            Polygon([(0.0, 0.0), (3.0, 0.5), (1.0, 4.0)]),
        ],
    )
    def test_coincident_polygons_overlap(self, polygon):
        # Every edge lies on the other's boundary: no edge crosses one
        # of the other's, no boundary point is strictly inside it, and
        # all of the area is shared.
        twin = Polygon(polygon.vertices)
        assert plan._interiors_overlap(polygon, twin)


# ---------------------------------------------------------------------------
# The pitch range rule, mode by mode
# ---------------------------------------------------------------------------

#: An exactly representable pitch, so "just inside" is exact.
TINY = 2.0**-20


def two_rectangles(last_col):
    """Two small rectangles whose second centre sits mid-tile in column
    ``last_col`` of a ``TINY`` mosaic anchored at the first."""

    def rect(x0):
        return Polygon.rectangle(x0, 0.0, x0 + 0.25, 0.25)

    return [rect(0.0), rect((last_col + 0.5) * TINY - 0.125)]


@pytest.fixture
def no_pool():
    shutdown_worker_pool()
    yield
    shutdown_worker_pool()


def run_modes(tmp_path):
    """name → callable(polygons, pitch) returning the job, for every
    local mode (the distributed one lives in tests/test_dist.py)."""
    cache_dir = tmp_path / "cache"

    def resident(**kwargs):
        return lambda polygons, pitch: PreparationPipeline(
            field_size=pitch, **kwargs
        ).run(polygons).job

    return {
        "serial": resident(),
        "pooled": resident(workers=2),
        "cached": resident(cache_dir=cache_dir),
        "streamed": lambda polygons, pitch: PreparationPipeline(
            field_size=pitch
        ).run_streaming(iter(polygons)).job,
    }


class TestPitchRange:
    def test_an_unrepresentable_pitch_fails_alike_in_every_mode(
        self, tmp_path, no_pool
    ):
        messages = set()
        for name, run in run_modes(tmp_path).items():
            with pytest.raises(ValueError, match="cannot tile") as excinfo:
                run(two_rectangles(2**31), TINY)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_the_issue_case_fails_alike_in_every_mode(self, tmp_path, no_pool):
        polygons = [
            Polygon.rectangle(0.0, 0.0, 1.0, 1.0),
            Polygon.rectangle(3000.0, 0.0, 3001.0, 1.0),
        ]
        for name, run in run_modes(tmp_path).items():
            with pytest.raises(ValueError, match="field size 1e-06"):
                run(polygons, 1e-6)

    def test_the_last_representable_column_runs_in_every_mode(
        self, tmp_path, no_pool
    ):
        polygons = two_rectangles(2**31 - 1)
        plan = plan_shards(polygons, TINY)
        assert [s.index[0] for s in plan] == [2**17, 2**31 - 1]
        modes = run_modes(tmp_path)
        reference = modes["serial"](polygons, TINY)
        assert len(reference.shots) == 2
        for name in ("pooled", "cached", "cached"):  # cold, then warm
            assert dumps_job(modes[name](polygons, TINY)) == dumps_job(
                reference
            ), name
        assert modes["streamed"](polygons, TINY).digest() == reference.digest()

    @pytest.mark.parametrize(
        "extra",
        [[], ["--workers", "2"], ["--stream"], ["--cache-dir", "CACHE"]],
    )
    @pytest.mark.parametrize("pitch", ["1e-09", "1e-320"])
    def test_cli_prints_one_error_line(
        self, pitch, extra, tmp_path, capsys, no_pool
    ):
        extra = [str(tmp_path / "cache") if a == "CACHE" else a for a in extra]
        code = main(
            ["demo", "--workload", "grating", "--field-size", pitch] + extra
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: field size {pitch} cannot tile")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
