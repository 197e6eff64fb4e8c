"""Parallel field-sharded execution engine for the preparation pipeline.

Large layouts are prepared field by field: the writing-field mosaic that
the machine exposes one field at a time also partitions the *data
preparation* into independent work units, the same way conflict-avoiding
codes partition transmissions into difference classes that never collide.
Each shard (one mosaic tile's polygons) is fractured and proximity-
corrected on its own, so shards can run concurrently on a process pool;
the merge step then reassembles one :class:`~repro.core.job.MachineJob`
in deterministic row-major field order.

Determinism contract
--------------------
The shard plan depends only on the geometry and the ``field_size``
argument — never on the worker count.  Each shard is processed by pure
deterministic code, and shard results are merged in shard-plan order, so
``workers=N`` produces a shot-for-shot identical job to ``workers=1``
for every ``N``.

Sharding semantics
------------------
* ``field_size=None`` (the default) plans a single shard covering the
  whole layout — exactly the historical single-pass pipeline, including
  global proximity correction.
* With a ``field_size``, polygons are assigned to mosaic tiles by their
  bounding-box centre (the convention of
  :func:`repro.core.fields.field_index_of`, shared with post-fracture
  shot partitioning).  Proximity correction becomes field-local (no
  cross-field dose coupling), the standard mosaic approximation when
  the field pitch is large against the backscatter range β.
* The plan is a pure function of the items' bounding boxes, so one
  planner (:func:`_plan_tiles`) reads them as one ``(N, 4)`` block for
  resident polygons, pre-fractured figures and the streamed spool
  alike; the overlap advisory below reads the same block.  A pitch
  whose tile indices would not fit a shard header's int32 is a
  ``ValueError`` at plan time, in every mode.

Overlap semantics
-----------------
The boolean union that dedupes overlapping input polygons runs per
shard, so overlaps *between polygons of different shards* would be
exposed twice (their area double-counts).  The shard planner therefore
enforces an ``overlap_policy``:

* ``"warn"`` (default) — detect polygons whose interiors overlap across
  shard boundaries and emit a :class:`ShardOverlapWarning`; the plan is
  kept as-is (the historical behaviour, now audible).
* ``"union"`` — boolean-union the layout before bucketing, which makes
  sharding exact for arbitrary overlap-heavy data at the cost of one
  global union pass.
* ``"ignore"`` — skip the check (for callers that guarantee disjoint
  inputs, e.g. the hierarchical flattener's per-layer merge).

This matters doubly with the shard cache: a silently double-counted
shard would be double-counted on every warm run as well.

One shard loop
--------------
Every entry point of :class:`ShardedExecutor` runs the same loop
(:meth:`ShardedExecutor._run_shards`): a *source* supplies windows of
shards, the loop does cache lookup → dispatch → store → recovery
attribution per window, and a *sink* receives each result in row-major
order.  Resident sequences are one window whose results are held for
the merge; a one-shot polygon cursor is spooled to disk and arrives as
one window per shard row whose results are spilled
(:class:`StreamingExecution`).  Which pair runs follows from the input,
never from a knob, and both produce the same bytes and counters.

Caching
-------
With a :class:`~repro.core.cache.ShardCache` attached, every shard's
content address (polygons + field index + fracturer/corrector/PSF
configuration) is computed before dispatch; hits skip fracture and
proximity correction entirely and misses are stored after processing.
Cache keys never depend on worker count or shard arrival order, and
payloads store exact doubles, so a warm run is byte-identical to a cold
serial run.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import math
import os
import shutil
import struct
import tempfile
import threading
import time
import warnings
from array import array
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import (
    wait as futures_wait,
)
from dataclasses import dataclass, field, fields
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.cache import ContainedStore, ShardCache
from repro.core.faults import FaultPlan
from repro.core.fields import FieldIndex, box_field_indices
from repro.core.recipe import check_knobs, choice, number_complaint, require
from repro.core.stats import ExecutionStats
from repro.fracture.base import Fracturer, Shot, ShotView, dosed, shot_rows
from repro.fracture.quality import FractureReport, analyze_figures, merge_reports
from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import FigureView, trapezoid_array, trapezoid_bounds
from repro.pec.base import ProximityCorrector
from repro.physics.psf import DoubleGaussianPSF


class ShardOverlapWarning(UserWarning):
    """Polygons of different shards overlap — their area double-counts."""


class SpillDegradedWarning(UserWarning):
    """A streamed run stopped spilling shard results after a store failure.

    Emitted once per run by :meth:`ShardedExecutor.execute_stream` when a
    spill ``put_blob`` fails (ENOSPC, read-only filesystem): the run
    continues with the affected shard results held in memory — results
    are unaffected, only the bounded-memory guarantee degrades.  Degraded
    runs also count ``spill_fallbacks`` on their :class:`ExecutionStats`,
    so a degraded run never looks like a clean one.
    """


#: Pairwise interior-overlap checks budgeted per plan; beyond this the
#: planner warns conservatively instead of scaling quadratically.
_OVERLAP_CHECK_CAP = 20000
#: Penetration depth [µm] below which edges count as tangent, not
#: crossing — 1 pm, far under the 1 nm database grid.
_TANGENT_EPS = 1e-6


@dataclass(frozen=True)
class Shard:
    """One work unit: the polygons of a single writing-field tile.

    Attributes:
        index: field index ``(col, row)`` on the mosaic; ``(0, 0)`` for
            the unsharded single-tile plan.
        polygons: the tile's polygons, in layout order.
        figures: pre-fractured machine figures instead of polygons —
            set by hierarchy-aware runs, where each cell was fractured
            once up front and the executor only applies proximity
            correction per shard.  When set, ``polygons`` is empty and
            the fracturer is never invoked.  The planner sets a
            :class:`~repro.geometry.vertex_array.FigureView` (one array
            to pickle, compared by value); any figure sequence works.
    """

    index: FieldIndex
    polygons: Tuple[Polygon, ...]
    figures: Optional[Sequence[Trapezoid]] = None


@dataclass
class ShardResult:
    """What one shard produced: its shots and fracture bookkeeping.

    ``kernel_fallbacks`` records how often the fast scanline kernel
    degraded to a slower exact path while fracturing this shard.  It is
    a property of the shard's geometry, so it is persisted with the
    cached payload (warm runs report the same counters as cold runs)
    but never enters the cache key.

    ``shots`` is a read-only :class:`~repro.fracture.base.ShotView`
    (a plain shot list is stacked into one on construction); its block,
    :attr:`rows`, is the form every serializer and packer reads.

    A result has one serialized form — its ``EBC1`` payload
    (:func:`repro.core.jobfile.dumps_shard_result`) — on every boundary
    it crosses: the pool's return pickle (:meth:`__reduce__`), the cache
    entry, the spill blob and the fleet commit.
    """

    index: FieldIndex
    shots: Sequence[Shot]
    report: FractureReport
    reference_area: float
    kernel_fallbacks: KernelFallbacks = field(default_factory=KernelFallbacks)

    def __post_init__(self) -> None:
        if not isinstance(self.shots, ShotView):
            self.shots = ShotView(shot_rows(self.shots))

    @property
    def rows(self) -> np.ndarray:
        """The shots' ``(N, 7)`` block."""
        return self.shots.rows

    def __reduce__(self):
        from repro.core.jobfile import dumps_shard_result, loads_shard_result

        return loads_shard_result, (dumps_shard_result(self),)


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries shard work when infrastructure misbehaves.

    Attributes:
        max_attempts: total dispatch attempts per shard (1 = never
            retry).  Pool dispatches that infrastructure faults keep
            eating beyond this escalate to the in-process serial rung;
            a shard whose *own* transient exception survives
            ``max_attempts`` raises.
        backoff_base: delay [s] before the first retry; doubles per
            further retry.
        backoff_cap: delay ceiling [s].  The whole sequence is
            deterministic (no jitter), so fault-injection schedules
            replay identically.
        shard_timeout: per-shard hang watchdog [s]; ``None`` (default)
            disables it.  When *nothing* completes for this long, the
            in-flight shards count as hung: the pool is recycled with
            its workers killed and the victims re-enqueued.

    Classification (:meth:`is_transient`): ``BrokenExecutor``/``OSError``
    are infrastructure trouble and retry; anything else — above all
    ``ValueError`` from bad shard data — is deterministic, and retrying
    a pure function cannot change its outcome, so it fails fast.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    shard_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, int)
            or self.max_attempts < 1
        ):
            raise ValueError(
                f"max_attempts must be an int >= 1, "
                f"got {self.max_attempts!r}"
            )
        for name in ("backoff_base", "backoff_cap"):
            why = number_complaint(getattr(self, name), positive=False)
            if why:
                raise ValueError(f"{name} {why}, got {getattr(self, name)!r}")
        if self.shard_timeout is not None:
            why = number_complaint(self.shard_timeout)
            if why:
                raise ValueError(
                    f"shard_timeout {why} or None, got {self.shard_timeout!r}"
                )

    def backoff(self, retry_number: int) -> float:
        """Delay [s] before retry ``retry_number`` (1-based): a capped
        exponential ``min(cap, base * 2**(n-1))`` — deterministic by
        design."""
        if retry_number < 1:
            raise ValueError("retry_number is 1-based")
        return min(
            self.backoff_cap,
            self.backoff_base * 2.0 ** (retry_number - 1),
        )

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """True for infrastructure faults worth retrying.  The one
        classifier: the shard ladder, the distributed workers and the
        service's whole-job retry all ask it."""
        return isinstance(exc, (BrokenExecutor, OSError))


class Deadline:
    """A run's time budget, narrowed as it is handed down.

    One object carries "how long may this still take" from the job
    through the run to each shard attempt and lease: ``at`` is an
    absolute :func:`time.monotonic` instant (``None`` = unbounded, the
    default), ``check`` an optional cooperative-cancel hook that raises
    to abort (a service's ``JobCancelled``), and ``error`` builds the
    exception an expired budget raises (``TimeoutError`` by default; a
    service's ``JobTimeoutError``).

    * :meth:`check` raises the cancel or the expiry, whichever landed;
    * :meth:`wait` is the engine's interruptible sleep — it checks
      before and after, never sleeps past ``at``, and wakes at once
      when :meth:`interrupt` fires;
    * :meth:`narrowed` returns the earlier of this deadline and one
      ``seconds`` from now (a shard attempt's watchdog), sharing the
      cancel hook and the interrupt.
    """

    def __init__(
        self,
        seconds: Optional[float] = None,
        check: Optional[Callable[[], None]] = None,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> None:
        self.at = None if seconds is None else time.monotonic() + seconds
        self._check = check
        self.error = error or (lambda: TimeoutError("the run's time budget ran out"))
        self._event = threading.Event()

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative); ``None`` when unbounded."""
        return None if self.at is None else max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        return self.remaining() == 0.0

    def check(self) -> None:
        if self._check is not None:
            self._check()
        if self.expired():
            raise self.error()

    def interrupt(self) -> None:
        """Wake every pending (and future) :meth:`wait` immediately."""
        self._event.set()

    def wait(self, delay: float) -> None:
        self.check()
        remaining = self.remaining()
        self._event.wait(delay if remaining is None else min(delay, remaining))
        self.check()

    def narrowed(self, seconds: Optional[float], now: Optional[float] = None):
        """The earlier of this deadline and ``seconds`` after ``now``
        (default: the present; ``None`` seconds = no narrower budget:
        this very deadline)."""
        if seconds is None:
            return self
        at = (time.monotonic() if now is None else now) + seconds
        if self.at is not None and self.at <= at:
            return self
        child = copy.copy(self)
        child.at = at
        return child


@dataclass
class ShardRecovery:
    """One map call's recovery log, keyed by work-list position.

    All-zero/empty on a clean run — the counters behind the
    "a degraded run can never look like a clean one" contract.

    ``timeouts`` counts hang-watchdog victims per shard, including
    shards that were merely queued behind a hung worker when the
    watchdog fired (a conservative overcount: every re-enqueued
    in-flight shard is a victim).
    """

    retries: Dict[int, int] = field(default_factory=dict)
    salvaged: Set[int] = field(default_factory=set)
    timeouts: Dict[int, int] = field(default_factory=dict)
    pool_restarts: int = 0

    @property
    def retry_total(self) -> int:
        return sum(self.retries.values())

    def rekeyed(self, positions: Sequence[int]) -> "ShardRecovery":
        """This log with every position ``i`` renamed ``positions[i]``.

        A map over a sub-list (the cache misses of a window, the shards
        a fleet left unfinished) logs sub-list positions; its caller
        reads the log in its own.  Every position-keyed field is
        translated, whatever fields the log has.
        """

        def rename(log):
            if isinstance(log, dict):
                return {positions[i]: count for i, count in log.items()}
            if isinstance(log, set):
                return {positions[i] for i in log}
            return log

        return ShardRecovery(
            **{f.name: rename(getattr(self, f.name)) for f in fields(self)}
        )


@dataclass
class ExecutionResult:
    """Merged output of all shards, in deterministic shard order.

    ``shots`` is the shard results' blocks stacked in plan order;
    ``shard_results`` keeps the per-shard results so downstream
    consumers — the machine-program exporter above all — can stream per
    shard without re-partitioning the merged list.
    """

    shots: ShotView = field(default_factory=lambda: ShotView.concat([]))
    report: FractureReport = field(
        default_factory=lambda: analyze_figures([])
    )
    corrected: bool = False
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    shard_results: List[ShardResult] = field(default_factory=list)


#: Cross-shard overlap handling: the planners' and the engine's rule.
_OVERLAP_POLICY = choice(("warn", "union", "ignore"))


def _plan_tiles(boxes: np.ndarray, field_size: float) -> tuple:
    """The shard planner: a non-empty ``(N, 4)`` block of item bounding
    boxes (``x0, y0, x1, y1``) → the mosaic tiles that hold them.

    A plan is a pure function of the boxes: the mosaic is anchored at
    the lower-left of the combined bounding box and every item goes
    whole to the tile containing its box centre
    (:func:`repro.core.fields.box_field_indices`, which also rejects a
    pitch whose tile indices are not representable).  Resident polygon
    and figure lists and the streamed spool all plan through here, so
    they shard identically.

    Returns ``(tiles, tile_of, origin)``: ``tiles`` lists ``(field
    index, member positions)`` row-major (bottom row first, left to
    right — the merge order) with positions in input order;
    ``tile_of`` is every item's own ``(col, row)`` as an ``(N, 2)``
    block and ``origin`` the mosaic anchor, for the overlap advisory.
    """
    why = number_complaint(field_size)
    if why:
        raise ValueError(f"field size {why}, got {field_size!r}")
    origin = boxes[:, :2].min(axis=0)
    tile_of = box_field_indices(boxes, *origin, field_size)
    # lexsort is stable and its last key is primary: row-major tile
    # order, input order inside a tile.
    order = np.lexsort(tile_of.T)
    ordered = tile_of[order]
    starts = np.flatnonzero(
        np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    )
    tiles = [
        (tuple(index), members.tolist())
        for index, members in zip(
            ordered[starts].tolist(), np.split(order, starts[1:])
        )
    ]
    return tiles, tile_of, origin


def plan_shards(
    polygons: Sequence[Polygon],
    field_size: Optional[float] = None,
    overlap_policy: str = "warn",
) -> List[Shard]:
    """Partition a flattened polygon list into writing-field shards.

    Polygons are assigned whole to the tile containing their bounding-box
    centre (no polygon is split, so a shard's fracture is exact); the
    mosaic is anchored at the lower-left of the combined bounding box.
    Shards come back sorted row-major (bottom row first, left to right)
    — the merge order.

    ``field_size=None`` returns one shard with everything.

    ``overlap_policy`` governs polygons whose interiors overlap across
    shard boundaries (their area would double-count): ``"warn"`` emits a
    :class:`ShardOverlapWarning`, ``"union"`` boolean-unions the layout
    before bucketing, ``"ignore"`` skips the check.
    """
    require(_OVERLAP_POLICY, "overlap_policy", overlap_policy)
    polygons = list(polygons)
    if not polygons:
        return []
    if field_size is None:
        return [Shard(index=(0, 0), polygons=tuple(polygons))]
    if overlap_policy == "union" and len(polygons) > 1:
        from repro.geometry.boolean import union

        polygons = union(polygons)
    boxes = np.array(
        [poly.bounding_box() for poly in polygons], dtype=np.float64
    )
    tiles, tile_of, origin = _plan_tiles(boxes, field_size)
    if overlap_policy == "warn":
        _warn_on_cross_shard_overlap(
            polygons, boxes, tile_of, origin, field_size, lambda poly: poly
        )
    return [
        Shard(index=index, polygons=tuple(polygons[i] for i in members))
        for index, members in tiles
    ]


def plan_figure_shards(
    figures: Sequence[Trapezoid],
    field_size: Optional[float] = None,
    overlap_policy: str = "warn",
) -> List[Shard]:
    """Partition pre-fractured machine figures into writing-field shards.

    The figure-level counterpart of :func:`plan_shards` for
    hierarchy-aware runs: each figure is assigned whole to the tile
    containing its bounding-box centre, shards come back row-major.

    Figures of one fracture are disjoint, but figures of *different*
    instances (or ill-formed overlapping placements) may overlap —
    exactly like input polygons in :func:`plan_shards` — so
    ``overlap_policy="warn"`` runs the same cross-shard interior check.
    ``"union"`` is rejected: pre-unioning would require re-fracturing,
    which is what a pre-fractured run exists to avoid — run flat or
    choose ``"warn"``/``"ignore"`` instead.
    """
    require(_OVERLAP_POLICY, "overlap_policy", overlap_policy)
    if overlap_policy == "union":
        raise ValueError(
            "overlap_policy='union' is incompatible with "
            "pre-fractured figure shards (it would re-fracture the "
            "layout); use hierarchy='flat' or overlap_policy "
            "'warn'/'ignore'"
        )
    block = trapezoid_array(figures)
    if not len(block):
        return []
    figures = FigureView(block)
    if field_size is None:
        return [Shard(index=(0, 0), polygons=(), figures=figures)]
    boxes = np.column_stack(trapezoid_bounds(block))
    tiles, tile_of, origin = _plan_tiles(boxes, field_size)
    if overlap_policy == "warn":
        _warn_on_cross_shard_overlap(
            figures, boxes, tile_of, origin, field_size, Trapezoid.to_polygon
        )
    return [
        Shard(index, (), figures=figures.take(members))
        for index, members in tiles
    ]


def _window_edges(
    poly: Polygon, window: Tuple[float, float, float, float]
) -> List[Tuple[float, float, float, float]]:
    """Edges of ``poly`` whose bounding box meets the window, as
    ``(x1, y1, x2, y2)`` tuples — two overlapping polygons can only
    interact inside the intersection of their bounding boxes."""
    wx0, wy0, wx1, wy1 = window
    verts = poly.vertices
    edges = []
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        if (
            max(a.x, b.x) >= wx0
            and min(a.x, b.x) <= wx1
            and max(a.y, b.y) >= wy0
            and min(a.y, b.y) <= wy1
        ):
            edges.append((a.x, a.y, b.x, b.y))
    return edges


def _interiors_overlap(
    a: Polygon,
    b: Polygon,
    bb_a: Tuple[float, float, float, float],
    bb_b: Tuple[float, float, float, float],
) -> bool:
    """True iff the interiors of two simple polygons share positive area.

    Two simple polygons overlap with positive area iff an edge of one
    properly crosses an edge of the other, or a boundary point of one
    lies strictly inside the other (containment without crossings).
    Both tests are strict with a sub-nanometre tolerance — well under
    the 1 nm database grid — so abutting or corner-touching polygons
    (the normal mosaic case, including nearly-collinear shared edges
    with last-ulp trigonometric jitter) are not flagged.  Much cheaper
    than a boolean intersection: edges are pruned to the shared
    bounding-box window first.
    """
    window = (
        max(bb_a[0], bb_b[0]),
        max(bb_a[1], bb_b[1]),
        min(bb_a[2], bb_b[2]),
        min(bb_a[3], bb_b[3]),
    )
    edges_a = _window_edges(a, window)
    edges_b = _window_edges(b, window)

    def cross(ox, oy, px, py, qx, qy):
        return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

    # A crossing is "proper" only if each segment's endpoints sit on
    # strictly opposite sides of the other segment's line by more than
    # _TANGENT_EPS (the cross products below are point-to-line distances
    # scaled by the segment length).
    for ax1, ay1, ax2, ay2 in edges_a:
        len_a = math.hypot(ax2 - ax1, ay2 - ay1)
        tol_a = _TANGENT_EPS * len_a
        for bx1, by1, bx2, by2 in edges_b:
            d1 = cross(ax1, ay1, ax2, ay2, bx1, by1)
            d2 = cross(ax1, ay1, ax2, ay2, bx2, by2)
            if not (
                (d1 > tol_a and d2 < -tol_a)
                or (d1 < -tol_a and d2 > tol_a)
            ):
                continue
            tol_b = _TANGENT_EPS * math.hypot(bx2 - bx1, by2 - by1)
            d3 = cross(bx1, by1, bx2, by2, ax1, ay1)
            d4 = cross(bx1, by1, bx2, by2, ax2, ay2)
            if (d3 > tol_b and d4 < -tol_b) or (
                d3 < -tol_b and d4 > tol_b
            ):
                return True

    for edges, other in ((edges_a, b), (edges_b, a)):
        for x1, y1, x2, y2 in edges:
            if other.contains_point((x1, y1), include_boundary=False):
                return True
            mid = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
            if other.contains_point(mid, include_boundary=False):
                return True
    return False


def _warn_on_cross_shard_overlap(
    items: Sequence,
    boxes: np.ndarray,
    tile_of: np.ndarray,
    origin: np.ndarray,
    field_size: float,
    as_polygon,
) -> None:
    """Emit :class:`ShardOverlapWarning` if items of different shards
    have positive-area interior overlap.

    Reads the block the plan was made from (``boxes`` and
    :func:`_plan_tiles`' ``tile_of``/``origin``).  ``as_polygon``
    converts an item to a :class:`Polygon` for the exact interior test
    (identity for polygon shards, ``to_polygon`` for pre-fractured
    figure shards).  Two items each contained in their own tile cannot
    overlap, so every overlapping cross-shard pair involves a *crosser*
    — an item whose bounding box escapes its tile — and the candidates
    are enumerated from the crossers: each against the items of other
    tiles whose boxes overlap its box with positive area, a
    crosser–crosser pair visited once.  Fully tile-contained layouts
    return before any pairing.
    """
    lower, upper = boxes[:, :2], boxes[:, 2:]
    tile_lower = origin + tile_of * field_size
    crosser = (
        (lower < tile_lower) | (upper > tile_lower + field_size)
    ).any(axis=1)
    if not crosser.any():
        return
    # In x0 order, the boxes reaching past a crosser's left edge start
    # at the first position whose running-max x1 exceeds that edge, and
    # the boxes starting before its right edge end at that edge's
    # insertion point: only this window is compared, as arrays.
    order = np.argsort(boxes[:, 0], kind="stable")
    positions = np.flatnonzero(crosser[order])
    window_lo = np.searchsorted(
        np.maximum.accumulate(upper[order, 0]),
        lower[order[positions], 0],
        "right",
    )
    window_hi = np.searchsorted(
        lower[order, 0], upper[order[positions], 0], "left"
    )
    checked = 0
    for position, lo, hi in zip(
        positions.tolist(), window_lo.tolist(), window_hi.tolist()
    ):
        a = order[position]
        window = order[lo:hi]
        partners = window[
            # the two boxes intersect in positive width and height,
            (
                np.minimum(upper[window], upper[a])
                > np.maximum(lower[window], lower[a])
            ).all(axis=1)
            # in different tiles,
            & (tile_of[window] != tile_of[a]).any(axis=1)
            # and no earlier crosser has already met this one.
            & ~(crosser[window] & (np.arange(lo, hi) <= position))
        ]
        for b in partners.tolist():
            checked += 1
            if checked > _OVERLAP_CHECK_CAP:
                trouble = (
                    "too many boundary-crossing polygon pairs to verify "
                    "exactly; layout may overlap across shards and "
                    "double-count exposed area"
                )
            elif _interiors_overlap(
                as_polygon(items[a]),
                as_polygon(items[b]),
                tuple(boxes[a].tolist()),
                tuple(boxes[b].tolist()),
            ):
                trouble = (
                    f"polygons of shards {tuple(tile_of[a].tolist())} and "
                    f"{tuple(tile_of[b].tolist())} overlap; their overlap "
                    "area is exposed twice (and would be replayed from "
                    "the shard cache)"
                )
            else:
                continue
            warnings.warn(
                f"{trouble} — pre-union the layout, pass "
                "overlap_policy='union', or run with field_size=None",
                ShardOverlapWarning,
                stacklevel=3,
            )
            return


def _process_shard(
    shard: Shard,
    fracturer: Fracturer,
    corrector: Optional[ProximityCorrector],
    psf: Optional[DoubleGaussianPSF],
) -> ShardResult:
    """Fracture and (optionally) proximity-correct one shard.

    Pre-fractured shards (``shard.figures`` set) skip the fracturer and
    go straight to dosing/correction.  Module-level so the process pool
    can pickle it; must stay pure — the determinism contract of the
    engine rests on it.
    """
    if shard.figures is not None:
        shots = dosed(shard.figures)
        fallbacks = KernelFallbacks()
    else:
        shots = ShotView(shot_rows(fracturer.fracture_to_shots(shard.polygons)))
        fallbacks = fracturer.last_fallbacks.copy()
    report = analyze_figures(shots.figures)
    if corrector is not None and shots:
        shots = corrector.correct(shots, psf)
    return ShardResult(
        index=shard.index,
        shots=shots,
        report=report,
        # The fracture is a disjoint cover, so its own area — the
        # report's one sum — is the reference for downstream
        # bookkeeping.
        reference_area=report.total_area,
        kernel_fallbacks=fallbacks,
    )


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        check_knobs(workers=workers)
    return workers or os.cpu_count() or 1


# The persistent worker pool, shared by every executor in the process.
# Spawning a pool costs a fork+import per worker — dominant on small
# workloads — so the pool outlives individual runs and is only rebuilt
# when a different size is requested.  Shard-processing configuration is
# bound per map call (pickled once per chunk, not per shard), so the
# same warm pool serves runs with different fracturer/corrector/PSF
# configurations.
#
# Concurrent runs (a job server's worker threads) share the pool too:
# every run holds a lease for the duration of its map, and a lease-held
# pool is never torn down — a run requesting a different size simply
# reuses the live pool (worker count is a wall-clock knob, never a
# correctness knob), so one tenant's ``workers`` setting cannot cancel
# another tenant's in-flight shards.
_pool_lock = threading.Lock()
_shared_pool: Optional[ProcessPoolExecutor] = None
_shared_pool_size: int = 0
_pool_leases: int = 0


def _lease_pool(pool_size: int) -> ProcessPoolExecutor:
    """Acquire the shared pool for one map, creating/resizing if safe.

    The pool is rebuilt at the requested size only when no other run is
    using it; while leases are held the live pool is reused regardless
    of the size asked for.  Every call must be paired with
    :func:`_release_pool` (use ``try/finally``).
    """
    global _shared_pool, _shared_pool_size, _pool_leases
    with _pool_lock:
        if (
            _shared_pool is not None
            and _shared_pool_size != pool_size
            and _pool_leases == 0
        ):
            _shutdown_pool_locked()
        if _shared_pool is None:
            _shared_pool = ProcessPoolExecutor(max_workers=pool_size)
            _shared_pool_size = pool_size
        _pool_leases += 1
        return _shared_pool


def _release_pool() -> None:
    global _pool_leases
    with _pool_lock:
        _pool_leases = max(0, _pool_leases - 1)


def _shutdown_pool_locked() -> None:
    """Tear down the pool; caller holds ``_pool_lock``."""
    global _shared_pool, _shared_pool_size
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True, cancel_futures=True)
        _shared_pool = None
        _shared_pool_size = 0


def shutdown_worker_pool() -> None:
    """Tear down the shared worker pool (tests, benchmarks, atexit).

    Concurrent runs still holding a lease fall back to their serial
    path (their in-flight futures are cancelled) — results are
    unchanged, only wall-clock suffers.
    """
    with _pool_lock:
        _shutdown_pool_locked()


def _reset_pool_if_unleased() -> None:
    """Drop the shared pool unless another run still holds a lease.

    The consistent failure path for pool setup/warm-up errors: a pool
    we failed to use may be half-spawned or dead, but tearing it down
    under a concurrent tenant would cancel their in-flight shards — so
    the reset only happens when nobody is leasing.
    """
    with _pool_lock:
        if _pool_leases == 0:
            _shutdown_pool_locked()


def _recycle_pool(pool, kill_workers: bool = False) -> None:
    """Tear down a broken/hung shared pool so the next lease spawns a
    fresh one.

    ``kill_workers`` SIGKILLs the pool's worker processes first — a
    hung worker never honours a cooperative shutdown, so a plain
    ``shutdown()`` would block on it forever.  Held leases do *not*
    defer the recycle: a broken pool is unusable for every tenant, and
    each concurrent run recovers through its own retry ladder.  A pool
    that was already replaced (another run recycled first) is left
    alone.
    """
    with _pool_lock:
        if _shared_pool is not pool:
            return
        if kill_workers:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except (AttributeError, OSError):
                    pass
        _shutdown_pool_locked()


def worker_pool_status() -> dict:
    """A snapshot of the shared pool for monitoring endpoints.

    Returns a mapping with ``size`` (configured worker count, 0 when no
    pool is alive) and ``alive`` (whether a pool currently exists) —
    what a service's ``/stats`` endpoint reports as "pool state".
    """
    with _pool_lock:
        return {
            "size": _shared_pool_size if _shared_pool is not None else 0,
            "alive": _shared_pool is not None,
        }


def warm_worker_pool(workers: Optional[int] = None) -> int:
    """Pre-spawn the shared pool's worker processes.

    Benchmarks call this so their timings report pool-warm numbers —
    the steady state of a long-running service — instead of charging
    one-off process spawn cost to the first measured run.  Returns the
    pool size (0 when ``workers <= 1`` means no pool is used).
    """
    workers = _resolve_workers(workers)
    if workers <= 1:
        return 0
    try:
        pool = _lease_pool(workers)
    except (OSError, PermissionError, BrokenExecutor):
        _reset_pool_if_unleased()
        return 0
    try:
        try:
            # One blocking task per worker forces every process to spawn.
            list(pool.map(_noop, range(workers), chunksize=1))
        finally:
            _release_pool()
    except (
        OSError,
        PermissionError,
        BrokenExecutor,
        CancelledError,
        RuntimeError,
    ):
        # Warm-up failed or the pool was shut down under us
        # (CancelledError/RuntimeError).  Either way the pool's state
        # is dubious — never leave a half-warmed or dead pool behind in
        # the globals for the next run to trip over.  Unless a
        # concurrent tenant still leases it, that is: their run is
        # live, the reset is theirs to make.
        _reset_pool_if_unleased()
        return 0
    return workers


def _noop(value):
    return value


def _process_shard_task(
    config: tuple, faults: Optional[FaultPlan], task: tuple
) -> ShardResult:
    """Pool/serial entry point for one ``(position, attempt, shard)``
    work item: fire any scheduled injection fault, then process the
    shard.  ``config``/``faults`` are bound via ``functools.partial``
    so they pickle once per submission batch, not once per shard."""
    position, attempt, shard = task
    if faults is not None:
        faults.fire(position, attempt)
    return _process_shard(shard, *config)


@dataclass
class _Ladder:
    """One map call's recovery state and the two local rungs over it.

    ``results`` and ``attempts`` are indexed by work-list position,
    ``recovery`` is the log the caller attributes and ``pooled`` says
    whether any result came off a pool.  :meth:`pool_rounds` dispatches
    the unfinished shards to the shared pool round after round;
    :meth:`serial` runs one shard in-process — the last rung, where only
    the shard's own exceptions remain.
    """

    shards: List[Shard]
    task: Callable[[tuple], ShardResult]
    retry: RetryPolicy
    deadline: Deadline
    tick: Optional[Callable[[], None]]

    def __post_init__(self) -> None:
        self.results: List[Optional[ShardResult]] = [None] * len(self.shards)
        self.attempts = [0] * len(self.shards)
        self.recovery = ShardRecovery()
        self.pooled = False

    def _spent(self, position: int) -> bool:
        return self.attempts[position] >= self.retry.max_attempts

    def _start(self, position: int) -> tuple:
        """Count one more attempt at ``position``; its work item."""
        attempt = self.attempts[position]
        self.attempts[position] = attempt + 1
        if attempt > 0:
            self.recovery.retries[position] = self.recovery.retries.get(position, 0) + 1
        return position, attempt, self.shards[position]

    def _finish(self, position: int, result: ShardResult) -> None:
        self.results[position] = result
        if self.tick is not None:
            self.tick()

    def _backoff(self, retry_number: int) -> None:
        """The deterministic backoff before retry ``retry_number`` (none
        before the first try), cut short by a cancel or the deadline."""
        self.deadline.wait(self.retry.backoff(retry_number) if retry_number else 0.0)

    def serial(self, position: int) -> None:
        """Run one shard in-process, retrying its own transient
        exceptions under the attempt budget.  The deadline is observed
        between attempts, never inside one."""
        while True:
            item = self._start(position)
            self._backoff(item[1])
            try:
                result = self.task(item)
            except Exception as exc:
                if self.retry.is_transient(exc) and not self._spent(position):
                    continue
                raise
            self._finish(position, result)
            return

    def pool_rounds(self, workers: int) -> List[int]:
        """Pool rounds until every shard is done or the serial rung
        must take over; returns the positions still unfinished."""
        pending = list(range(len(self.shards)))
        round_no = 0
        while pending:
            self._backoff(round_no)
            round_no += 1
            try:
                # Sized by the workers setting, not the shard count, so
                # consecutive runs with the same setting reuse it.
                pool = _lease_pool(workers)
            except (OSError, PermissionError, BrokenExecutor):
                # The platform refuses to spawn workers (restricted
                # sandboxes): straight to the serial rung.
                _reset_pool_if_unleased()
                break
            to_serial = self._pool_round(pool, pending)
            pending = [p for p in pending if self.results[p] is None]
            if to_serial:
                break
        return pending

    def _pool_round(self, pool, pending: List[int]) -> bool:
        """Dispatch ``pending`` to ``pool`` once and harvest; returns
        whether the rest must go to the serial rung.

        A broken pool keeps every completed result and is recycled.
        Each wait is bounded by the deadline narrowed by
        ``retry.shard_timeout``: when nothing completes in time, the
        in-flight shards are hung and the pool is recycled with its
        workers killed — the victims re-enqueue when the shard watchdog
        fired, the job's own error is raised when its budget ran out.
        """
        futures: Dict = {}
        rebuild = kill_workers = to_serial = False
        failure: Optional[BaseException] = None
        try:
            try:
                for position in pending:
                    if self._spent(position):
                        # Infrastructure kept eating this shard's pool
                        # dispatches (the shard itself never raised).
                        # Escalate to the serial rung instead of
                        # spinning pool rounds forever.
                        to_serial = True
                        continue
                    item = self._start(position)
                    futures[pool.submit(self.task, item)] = position
            except BrokenExecutor:
                rebuild = True
            except (CancelledError, RuntimeError):
                # The pool was shut down under us (another tenant's
                # explicit shutdown): don't spawn a fresh one just for
                # this run — finish on the serial rung.  CancelledError
                # is a BaseException on supported Pythons, so catching
                # it here keeps it from escaping a plain ``except
                # Exception`` in callers (a service's queue worker).
                to_serial = True
            outstanding = set(futures)
            while outstanding and failure is None:
                watchdog = self.deadline.narrowed(self.retry.shard_timeout)
                done, outstanding = futures_wait(
                    outstanding, watchdog.remaining(), FIRST_COMPLETED
                )
                if not done:
                    rebuild = kill_workers = True
                    failure = (
                        self.deadline.error()
                        if self.deadline.expired()
                        else self._hung(futures, outstanding)
                    )
                    break
                for future in done:
                    position = futures[future]
                    try:
                        exc = future.exception()
                    except CancelledError as cancelled:
                        exc = cancelled
                    if exc is None:
                        self.pooled = True
                        self._finish(position, future.result())
                    elif isinstance(exc, BrokenExecutor):
                        # A worker died; completed siblings keep their
                        # results, this shard re-enqueues on the fresh
                        # pool.
                        rebuild = True
                    elif isinstance(exc, CancelledError):
                        to_serial = True
                    elif not self.retry.is_transient(exc) or self._spent(position):
                        failure = exc
        finally:
            for future in futures:
                future.cancel()
            _release_pool()
            if self.deadline.expired() and not all(f.done() for f in futures):
                # The budget is spent (however the run is leaving) with
                # shards of it still running: no worker may keep them.
                rebuild = kill_workers = True
            if rebuild:
                self.recovery.pool_restarts += 1
                self.recovery.salvaged.update(
                    position
                    for position, result in enumerate(self.results)
                    if result is not None
                )
                _recycle_pool(pool, kill_workers=kill_workers)
        if failure is not None:
            raise failure
        return to_serial

    def _hung(self, futures: Dict, outstanding) -> Optional[TimeoutError]:
        """Nothing in the pool completed within the shard timeout: count
        every in-flight shard a victim; the error when a victim has no
        attempt left."""
        failure = None
        for future in outstanding:
            victim = futures[future]
            self.recovery.timeouts[victim] = self.recovery.timeouts.get(victim, 0) + 1
            if self._spent(victim):
                failure = TimeoutError(
                    f"shard {victim} timed out on all "
                    f"{self.attempts[victim]} attempts "
                    f"({self.retry.shard_timeout:g} s each)"
                )
        return failure


def _map_shards(
    shards: List[Shard],
    config: tuple,
    workers: int,
    tick: Optional[Callable[[], None]] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[List[ShardResult], bool, ShardRecovery]:
    """Run shards through ``config = (fracturer, corrector, psf)`` on
    the shared persistent process pool when it pays off, surviving
    worker deaths, hangs and transient failures.

    Returns ``(results, pooled, recovery)``: results in shard order,
    whether any result actually came off a pool, and the recovery log
    (all-zero on a clean run).

    The local recovery ladder (:class:`_Ladder`), governed by ``retry``
    and bounded by ``deadline`` (unbounded by default):

    * a broken pool (worker death) keeps every *completed* result and
      re-enqueues only unfinished shards on a fresh pool;
    * when nothing completes within ``retry.shard_timeout``, the
      in-flight shards count as hung — the pool is recycled with its
      workers killed and the victims re-enqueued;
    * when the ``deadline`` runs out first, the pool is recycled the
      same way and the deadline's own error raises;
    * transient shard exceptions (``retry.is_transient``) re-dispatch
      up to ``retry.max_attempts`` total attempts with deterministic
      capped backoff, then raise; deterministic exceptions raise
      immediately (retrying a pure function cannot change its outcome);
    * shards whose pool dispatches infrastructure keeps eating (pool
      refused to spawn, shut down externally, or broken at every
      attempt) escalate to the in-process serial rung — the last rung,
      which observes the deadline only between shards.

    ``tick`` is invoked once per completed shard (in completion order,
    which is nondeterministic on a pool) — it feeds progress reporting
    only and must never influence results.  Exceptions it raises (a
    service's cooperative cancellation) propagate after cleanup.
    """
    task = functools.partial(_process_shard_task, config, faults)
    ladder = _Ladder(shards, task, retry or RetryPolicy(), deadline or Deadline(), tick)
    local = workers <= 1 or len(shards) <= 1
    for position in range(len(shards)) if local else ladder.pool_rounds(workers):
        ladder.serial(position)
    return ladder.results, ladder.pooled, ladder.recovery


def merge_shard_results(
    results: Sequence[ShardResult], corrected: bool, stats: ExecutionStats
) -> ExecutionResult:
    """Stack the shard shot blocks in shard order and merge the
    reports."""
    shots = ShotView.concat([result.rows for result in results])
    reference = sum(r.reference_area for r in results)
    report = merge_reports(
        [r.report for r in results], reference_area=reference
    )
    return ExecutionResult(
        shots=shots,
        report=report,
        corrected=corrected,
        stats=stats,
        shard_results=list(results),
    )



#: Spool record framing: a big-endian vertex count followed by that many
#: ``(x, y)`` float64 pairs.  Doubles round-trip exactly, so a polygon
#: re-read from the spool is vertex-identical to the one spooled.
_SPOOL_COUNT = struct.Struct(">I")


def _read_spooled(spool) -> Tuple[float, ...]:
    """The spool record at the current position, as its ``x0, y0, x1,
    y1, …`` coordinates."""
    (count,) = _SPOOL_COUNT.unpack(spool.read(_SPOOL_COUNT.size))
    return struct.unpack(f">{2 * count}d", spool.read(16 * count))


@contextlib.contextmanager
def _spooled_windows(polygons, field_size: Optional[float]):
    """The spool source: a one-shot polygon cursor as shard-row windows.

    Consumes ``polygons`` exactly once without materializing the layout
    and yields ``(source_polygons, total_shards, windows)``:

    1. **Spool** — every polygon is written to a flat temp file as exact
       doubles; its bounding box and its record's offset (sizes are
       known as they are written) are kept, 40 bytes a polygon.
    2. **Plan** — the boxes go through :func:`_plan_tiles`, the planner
       :func:`plan_shards` uses, so the spool shards as the resident
       layout would.  The spool is not read for this.
    3. **Window** — ``windows`` yields one ``(shards, owners,
       source_bytes)`` triple per shard row, bottom to top, reading
       only that row's polygons from their offsets; every shard belongs
       to owner 0.

    The spool file is removed when the context exits, however it exits.
    """
    spool_fd, spool_path = tempfile.mkstemp(prefix="repro-spool-")
    try:
        boxes = array("d")
        offsets = array("q")
        offset = 0
        with os.fdopen(spool_fd, "wb", buffering=1 << 20) as spool:
            for poly in polygons:
                verts = poly.vertices
                spool.write(_SPOOL_COUNT.pack(len(verts)))
                spool.write(
                    struct.pack(
                        f">{2 * len(verts)}d",
                        *(c for v in verts for c in (v.x, v.y)),
                    )
                )
                boxes.extend(poly.bounding_box())
                offsets.append(offset)
                offset += _SPOOL_COUNT.size + 16 * len(verts)
        source_polygons = len(offsets)
        if not source_polygons:
            tiles = []
        elif field_size is None:
            tiles = [((0, 0), range(source_polygons))]
        else:
            tiles = _plan_tiles(
                np.frombuffer(boxes).reshape(-1, 4), field_size
            )[0]

        def windows(spool):
            for _, row in itertools.groupby(tiles, lambda tile: tile[0][1]):
                shards: List[Shard] = []
                source_bytes = 0
                for index, members in row:
                    bucket: List[Polygon] = []
                    for i in members:
                        spool.seek(offsets[i])
                        values = _read_spooled(spool)
                        bucket.append(
                            Polygon(list(zip(values[0::2], values[1::2])))
                        )
                        source_bytes += _SPOOL_COUNT.size + 8 * len(values)
                    shards.append(Shard(index=index, polygons=tuple(bucket)))
                yield shards, [0] * len(shards), source_bytes

        with open(spool_path, "rb") as spool:
            yield source_polygons, len(tiles), windows(spool)
    finally:
        try:
            os.unlink(spool_path)
        except OSError:
            pass


class _HeldResults:
    """The hold-and-merge sink: every result stays resident, grouped by
    owner in arrival (row-major) order, for :func:`merge_shard_results`.
    Touches neither the spool nor any spill store."""

    streamed = False

    def __init__(self, owners: int) -> None:
        self.grouped: List[List[ShardResult]] = [[] for _ in range(owners)]

    def add(self, owner, key, result: ShardResult, stats) -> int:
        self.grouped[owner].append(result)
        return 0


class StreamingExecution:
    """Handle on one out-of-core execution — the spill-and-iterate sink.

    While :meth:`ShardedExecutor.execute_stream` runs, the shard loop
    hands every result to :meth:`add`, which spills it to the cache's
    content-addressed blob family (:meth:`~repro.core.cache.ShardCache.
    spill_key_for`; a private spill directory when no cache is
    configured) and keeps only the blob key.  Afterwards the handle
    carries the merged :class:`~repro.fracture.quality.FractureReport`,
    the :class:`ExecutionStats` (streaming witness counters live) and a
    *re-iterable* row-major cursor over the shard results —
    :meth:`iter_results` re-reads each spilled result one at a time, so
    job assembly never holds more than one shard's shots resident.

    A failed spill store degrades that shard (and the rest of the run)
    to being held resident, with one :class:`SpillDegradedWarning` —
    never a crash.

    Use as a context manager (or call :meth:`close`) so a run without a
    configured cache can remove its private spill directory;
    ``execute_stream`` closes the handle itself when it does not return
    one.
    """

    streamed = True

    def __init__(self, cache: Optional[ShardCache] = None) -> None:
        # Set by execute_stream once the loop has drained into the sink.
        self.stats: Optional[ExecutionStats] = None
        self.report: Optional[FractureReport] = None
        self.corrected = False
        self.source_polygons = 0
        self.total_shots = 0
        self._entries: List[Tuple[Optional[str], Optional[ShardResult]]] = []
        self._reports: List[FractureReport] = []
        self._reference = 0.0
        self._store = ContainedStore(
            SpillDegradedWarning,
            "shard-result spilling degraded to the in-memory merge for "
            "the rest of this run ({reason}); results are unaffected, but "
            "memory is no longer bounded by one shard row",
            stacklevel=5,
        )
        self._closed = False
        self._spill_dir = (
            tempfile.mkdtemp(prefix="repro-spill-") if cache is None else None
        )
        self._spill_cache = (
            ShardCache(self._spill_dir) if cache is None else cache
        )

    def add(
        self,
        owner: int,
        key: Optional[str],
        result: ShardResult,
        stats: ExecutionStats,
    ) -> int:
        """Spill one result (engine-facing); returns its serialized
        size, the result's share of the window's resident bytes."""
        from repro.core.jobfile import dumps_shard_result

        self._reports.append(result.report)
        self._reference += result.reference_area
        self.total_shots += len(result.shots)
        payload = dumps_shard_result(result)
        blob_key = self._spill_cache.spill_key_for(
            key or f"stream-position:{len(self._entries)}"
        )
        if self._store(self._spill_cache.put_blob, blob_key, payload):
            stats.shards_spilled += 1
            stats.spill_bytes += len(payload)
            self._entries.append((blob_key, None))
        else:
            stats.spill_fallbacks += 1
            self._entries.append((None, result))
        return len(payload)

    def iter_results(self):
        """Yield every :class:`ShardResult` in row-major shard order.

        Spilled results are re-read from the blob store one at a time
        (without touching the cache's hit/miss accounting); results that
        degraded to the in-memory fallback are yielded directly.  The
        cursor is re-iterable — the machine-program exporter and the job
        writer each take their own pass.
        """
        from repro.core.jobfile import loads_shard_result

        for key, resident in self._entries:
            if resident is not None:
                yield resident
                continue
            if self._closed:
                raise RuntimeError(
                    "streaming execution is closed; its spilled shard "
                    "results are no longer readable"
                )
            payload = self._spill_cache.get_blob(key, record=False)
            if payload is None:
                raise RuntimeError(
                    f"spilled shard result {key} vanished from the cache "
                    "before job assembly (cache pruned concurrently?)"
                )
            yield loads_shard_result(payload)

    def close(self) -> None:
        """Release the private spill directory (idempotent).

        Spills into a caller-configured :class:`ShardCache` are left in
        place: they are content-addressed blobs a concurrent run may
        share, and ordinary cache maintenance prunes them.
        """
        if self._closed:
            return
        self._closed = True
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def __enter__(self) -> "StreamingExecution":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedExecutor:
    """Runs fracture + proximity correction over a field-shard plan.

    One engine, :meth:`_run_shards`, serves every entry point: a
    *source* supplies windows of shards, the loop does cache lookup →
    dispatch → store → recovery attribution per window, and a *sink*
    receives each result in row-major order.

    * :meth:`execute`, :meth:`execute_figures` and :meth:`execute_many`
      take resident sequences: the source is one window holding every
      layout's shards (with an owner index per shard), the sink holds
      results for the per-owner merge.  Nothing touches disk.
    * :meth:`execute_stream` takes a one-shot cursor: the source spools
      it and yields one window per shard row, the sink
      (:class:`StreamingExecution`) spills each result and keeps only
      its blob key.

    Args:
        fracturer: fracturing strategy applied per shard.
        corrector: optional proximity corrector (field-local per shard).
        psf: exposure PSF (required with a corrector).
        workers: default worker-pool size; 1 = serial, ``None``/0 = all
            cores.  Never affects results, only wall-clock.
        field_size: default mosaic pitch [µm]; ``None`` = one shard.
        cache: optional shard-result cache consulted before dispatching
            a shard and updated after.  Never affects results, only
            wall-clock (payloads are exact; keys cover the full shard
            input).
        overlap_policy: cross-shard overlap handling for the planner —
            ``"warn"`` (default), ``"union"`` or ``"ignore"``.
        progress: optional per-shard completion callback
            ``progress(done, total)`` — invoked with ``done=0`` once the
            shard plan is known, then with the running completion count
            (cache hits report immediately).  Feeds progress reporting
            (e.g. a job server's status endpoint); it runs outside the
            shard computation and never influences results.
        retry: the :class:`RetryPolicy` governing shard-level fault
            recovery (per-shard retries, backoff, hang watchdog);
            defaults to ``RetryPolicy()``.  Never affects results —
            an injected-fault run that ends in success is byte-identical
            to a clean run.
        faults: an optional :class:`~repro.core.faults.FaultPlan` of
            injected shard faults (chaos testing); armed with this
            process's pid at execution time.  ``None`` in production.
        dispatch: shard scheduling — ``"local"`` (default: this
            process's pool/serial ladder) or ``"distributed"`` (lease
            out shards to the worker fleet on ``endpoint`` via
            :mod:`repro.dist`; unfinished work still falls back to the
            local ladder).  Never changes results, only where the work
            runs — distributed output is byte-identical to serial.
        endpoint: coordinator ``host:port`` for distributed dispatch.
        dist_policy: :class:`~repro.dist.coordinator.DistPolicy`
            scheduling knobs for distributed dispatch (heartbeats,
            speculation); defaults apply when ``None``.
        deadline: the run's :class:`Deadline` — its time budget and
            cooperative cancel, handed down to every backoff, pool wait
            and lease (a service's job budget); unbounded when ``None``.
    """

    def __init__(
        self,
        fracturer: Fracturer,
        corrector: Optional[ProximityCorrector] = None,
        psf: Optional[DoubleGaussianPSF] = None,
        workers: int = 1,
        field_size: Optional[float] = None,
        cache: Optional[ShardCache] = None,
        overlap_policy: str = "warn",
        progress: Optional[Callable[[int, int], None]] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        dispatch: str = "local",
        endpoint: Optional[str] = None,
        dist_policy=None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if corrector is not None and psf is None:
            raise ValueError("a corrector requires a PSF")
        _resolve_workers(workers)
        check_knobs(field_size=field_size, dispatch=dispatch)
        require(_OVERLAP_POLICY, "overlap_policy", overlap_policy)
        self.fracturer = fracturer
        self.corrector = corrector
        self.psf = psf
        self.workers = workers
        self.field_size = field_size
        self.cache = cache
        self.overlap_policy = overlap_policy
        self.progress = progress
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        if dispatch == "distributed" and not endpoint:
            raise ValueError(
                "distributed dispatch requires an endpoint (host:port)"
            )
        self.dispatch = dispatch
        self.endpoint = endpoint
        self.dist_policy = dist_policy
        self.deadline = deadline if deadline is not None else Deadline()

    def _map(
        self,
        shards: List[Shard],
        config: tuple,
        workers: int,
        tick: Optional[Callable[[], None]],
        faults: Optional[FaultPlan],
        cache_keys: Optional[List[str]],
    ) -> tuple:
        """Route one shard map to the configured dispatch path.

        Returns ``(results, pooled, recovery, dist)``; ``dist`` is the
        map's :class:`~repro.dist.coordinator.DistRunStats`, ``None``
        when nothing was mapped remotely.
        """
        if self.dispatch == "distributed" and shards:
            from repro.dist.run import map_shards_distributed

            return map_shards_distributed(
                shards,
                config,
                workers,
                endpoint=self.endpoint,
                tick=tick,
                retry=self.retry,
                faults=faults,
                policy=self.dist_policy,
                cache_keys=cache_keys,
                deadline=self.deadline,
            )
        results, pooled, recovery = _map_shards(
            shards,
            config,
            workers,
            tick=tick,
            retry=self.retry,
            faults=faults,
            deadline=self.deadline,
        )
        return results, pooled, recovery, None

    def _progress_tick(self, total: int) -> Optional[Callable[[], None]]:
        """A thread-safe per-shard tick feeding ``self.progress``.

        Announces ``(0, total)`` up front so callers learn the shard
        count before any work completes; returns ``None`` when no
        progress callback is configured.
        """
        if self.progress is None:
            return None
        progress = self.progress
        lock = threading.Lock()
        done = 0
        progress(0, total)

        def tick() -> None:
            nonlocal done
            with lock:
                done += 1
                current = done
            progress(current, total)

        return tick

    def _resolve(
        self,
        workers: Optional[int],
        field_size: Optional[float],
        cache: Union[ShardCache, bool, None],
    ) -> tuple:
        """Per-call ``(workers, field_size, cache)`` overrides resolved
        against the executor's defaults.  ``cache``: ``None`` = the
        default, ``False`` = off, ``True`` = require the configured
        default, or an explicit cache."""
        if cache is True and self.cache is None:
            raise ValueError(
                "cache=True requested but no cache is configured"
            )
        if cache is None or cache is True:
            cache = self.cache
        elif cache is False:
            cache = None
        check_knobs(field_size=field_size)
        return (
            _resolve_workers(self.workers if workers is None else workers),
            self.field_size if field_size is None else field_size,
            cache,
        )

    # -- the shard loop ---------------------------------------------------

    def _run_shards(
        self,
        windows,
        total: int,
        sink,
        prefractured: Sequence[bool],
        workers: int,
        field_size: Optional[float],
        cache: Optional[ShardCache],
    ) -> List[ExecutionStats]:
        """The one shard loop: lookup → dispatch → store → attribute.

        ``windows`` yields ``(shards, owners, source_bytes)`` triples
        (``owners[i]`` is the layout shard ``i`` belongs to;
        ``source_bytes`` what the source re-read to build the window);
        ``total`` is the shard count over all windows, announced to the
        progress callback up front.  Each window's shards are looked up
        in ``cache``, the misses dispatched through :meth:`_map` and
        stored, and every ``(owner, key, result)`` handed to
        ``sink.add`` in window order — row-major per owner.

        Returns one :class:`ExecutionStats` per owner
        (``prefractured[owner]`` says whether its shards carry figures).
        Per-shard counters land on the owning layout by plain
        arithmetic; each window's run-level values (pool restarts,
        cache degradation, every distributed counter, the window
        witness of a streamed sink) are gathered on one record and
        merged onto every owner by the schema's rules
        (:meth:`~repro.core.stats.ExecutionStats.merge`).

        Injected fault schedules key positions into the run's
        dispatched work list: each window sees the plan rebased by the
        shards dispatched before it, so a plan means the same thing
        however the run is windowed.
        """
        config = (self.fracturer, self.corrector, self.psf)
        faults = self.faults.arm() if self.faults is not None else None
        tick = self._progress_tick(total)
        tallies = [
            ExecutionStats(
                shard_count=0,
                occupied_shards=0,
                workers=workers,
                field_size=field_size,
                cache_enabled=cache is not None,
                hierarchy="cells" if figures else "flat",
                # The configured mode even when a warm cache left
                # nothing to map remotely — an all-hit run on a
                # distributed executor is still a distributed run.
                dispatch=self.dispatch,
                streamed=sink.streamed,
            )
            for figures in prefractured
        ]
        kernel = [KernelFallbacks() for _ in tallies]
        store = ContainedStore.for_cache(stacklevel=4)
        dispatched = 0
        for shards, owners, window_bytes in windows:
            keys: List[Optional[str]] = [None] * len(shards)
            results: List[Optional[ShardResult]] = [None] * len(shards)
            if cache is not None:
                # Keys are computed for the whole window up front,
                # before any processing can touch corrector state, so
                # hit/miss decisions never depend on execution order.
                keys = [cache.key_for(shard, *config) for shard in shards]
                for i, key in enumerate(keys):
                    stats = tallies[owners[i]]
                    results[i], evicted = cache.lookup(key)
                    stats.cache_evictions += evicted
                    if results[i] is not None:
                        stats.cache_hits += 1
                        if tick is not None:
                            tick()
            pending = [i for i, hit in enumerate(results) if hit is None]
            computed, pooled, recovery, dist = self._map(
                [shards[i] for i in pending],
                config,
                workers,
                tick,
                faults.rebased(dispatched) if faults is not None else None,
                [keys[i] for i in pending] if cache is not None else None,
            )
            dispatched += len(pending)
            for i, result in zip(pending, computed):
                results[i] = result
                if cache is None:
                    continue
                stats = tallies[owners[i]]
                stats.cache_misses += 1
                if not store.degraded and not store(cache.put, keys[i], result):
                    stats.cache_write_failures += 1
            # The recovery log indexes the dispatched sub-list.
            recovery = recovery.rekeyed(pending)
            for i, count in recovery.retries.items():
                tallies[owners[i]].shard_retries += count
            for i, count in recovery.timeouts.items():
                tallies[owners[i]].shard_timeouts += count
            for i in recovery.salvaged:
                tallies[owners[i]].shards_salvaged += 1
            for owner, key, result in zip(owners, keys, results):
                stats = tallies[owner]
                stats.shard_count += 1
                if result.shots:
                    stats.occupied_shards += 1
                kernel[owner].add(result.kernel_fallbacks)
                window_bytes += sink.add(owner, key, result, stats)
            window = ExecutionStats(
                parallel=pooled,
                pool_restarts=recovery.pool_restarts,
                cache_degraded=store.degraded,
                stream_windows=int(sink.streamed),
                peak_window_bytes=window_bytes,
            )
            if dist is not None:
                window.fold(dist)
            for stats in tallies:
                stats.merge(window, scope="run")
        for stats, fallbacks in zip(tallies, kernel):
            stats.fold(fallbacks)
        return tallies

    # -- resident layouts -------------------------------------------------

    def execute(
        self,
        polygons: Sequence[Polygon],
        workers: Optional[int] = None,
        field_size: Optional[float] = None,
        cache: Union[ShardCache, bool, None] = None,
    ) -> ExecutionResult:
        """Shard, process (serially or on a pool) and merge one layout."""
        results = self.execute_many(
            [polygons], workers=workers, field_size=field_size, cache=cache
        )
        return results[0]

    def execute_figures(
        self,
        figures: Sequence[Trapezoid],
        workers: Optional[int] = None,
        field_size: Optional[float] = None,
        cache: Union[ShardCache, bool, None] = None,
    ) -> ExecutionResult:
        """Shard, dose/correct and merge a pre-fractured figure list.

        The hierarchy-aware entry point: fracture already happened (once
        per cell), so shards carry figures and only proximity correction
        runs per shard.  Caching, pooling and the determinism contract
        work exactly as for :meth:`execute`.
        """
        results = self.execute_many(
            [figures],
            workers=workers,
            field_size=field_size,
            cache=cache,
            prefractured=True,
        )
        return results[0]

    def execute_many(
        self,
        polygon_sets: Sequence[Sequence[Polygon]],
        workers: Optional[int] = None,
        field_size: Optional[float] = None,
        cache: Union[ShardCache, bool, None] = None,
        prefractured: Union[bool, Sequence[bool]] = False,
    ) -> List[ExecutionResult]:
        """Process several resident layouts through one shared loop.

        Shards from all layouts are interleaved into a single window of
        the shard loop (:meth:`_run_shards`), so a batch of small layers
        keeps every worker busy; results are held and come back per
        input layout, each merged in its own shard order.  With a cache,
        shards whose content address is already stored skip the work
        list entirely.

        ``prefractured`` marks input sets that hold
        :class:`~repro.geometry.trapezoid.Trapezoid` figures instead of
        polygons (see :meth:`execute_figures`) — one flag for the whole
        batch, or one per set for a mixed batch (a list of any other
        length is a ``ValueError``).
        """
        workers, field_size, active_cache = self._resolve(
            workers, field_size, cache
        )
        if isinstance(prefractured, bool):
            prefractured = [prefractured] * len(polygon_sets)
        if len(prefractured) != len(polygon_sets):
            raise ValueError(
                f"prefractured has {len(prefractured)} flags for "
                f"{len(polygon_sets)} layouts"
            )
        plans = [
            (plan_figure_shards if figures else plan_shards)(
                geometry, field_size, overlap_policy=self.overlap_policy
            )
            for geometry, figures in zip(polygon_sets, prefractured)
        ]
        shards = [shard for plan in plans for shard in plan]
        owners = [which for which, plan in enumerate(plans) for _ in plan]
        held = _HeldResults(len(plans))
        corrected = self.corrector is not None
        tallies = self._run_shards(
            [(shards, owners, 0)],
            len(shards),
            held,
            prefractured,
            workers,
            field_size,
            active_cache,
        )
        return [
            merge_shard_results(
                results,
                corrected=corrected and stats.occupied_shards > 0,
                stats=stats,
            )
            for results, stats in zip(held.grouped, tallies)
        ]

    # -- out-of-core streaming --------------------------------------------

    def execute_stream(
        self,
        polygons,
        workers: Optional[int] = None,
        field_size: Optional[float] = None,
        cache: Union[ShardCache, bool, None] = None,
    ) -> StreamingExecution:
        """Shard, process and spill one layout in bounded memory.

        The out-of-core counterpart of :meth:`execute`: ``polygons`` may
        be any iterable (a :meth:`~repro.layout.stream.LayoutStream.iter_flat`
        cursor above all) and is consumed exactly once by the spool
        source (:func:`_spooled_windows`); the same shard loop
        (:meth:`_run_shards`) then runs one shard row at a time and the
        returned :class:`StreamingExecution` is its sink.

        Because shards, their order and every per-shard computation are
        identical to the resident plan, a streamed run is byte-identical
        to :meth:`execute` at any worker count, cold or warm cache, local
        or distributed dispatch.

        Differences from the resident path, by construction:

        * ``overlap_policy="union"`` is rejected — a global boolean
          union needs the whole layout resident.  The ``"warn"``
          advisory check is skipped (it is pairwise across shards and
          purely advisory; it never changes bytes).
        * Results are spilled: with a configured cache they land in its
          content-addressed blob family (and stay there — concurrent
          identical runs may share them); without one a private spill
          directory is used and removed by
          :meth:`StreamingExecution.close` — or here, on every exit
          that does not return the handle (a failing shard, a service
          cancel or timeout raised through the progress tick).
        """
        if self.overlap_policy == "union":
            raise ValueError(
                "overlap_policy='union' is incompatible with streamed "
                "execution (the global union needs the whole layout "
                "resident); pre-union the layout or use 'warn'/'ignore'"
            )
        workers, field_size, active_cache = self._resolve(
            workers, field_size, cache
        )
        execution = StreamingExecution(active_cache)
        try:
            with _spooled_windows(polygons, field_size) as spooled:
                execution.source_polygons, total_shards, windows = spooled
                (execution.stats,) = self._run_shards(
                    windows,
                    total_shards,
                    execution,
                    [False],
                    workers,
                    field_size,
                    active_cache,
                )
        except BaseException:
            execution.close()
            raise
        execution.report = merge_reports(
            execution._reports, reference_area=execution._reference
        )
        execution.corrected = (
            self.corrector is not None and execution.total_shots > 0
        )
        return execution
