"""Parallel field-sharded execution for the preparation pipeline.

Large layouts are prepared field by field: the writing-field mosaic that
the machine exposes one field at a time also partitions the *data
preparation* into independent work units, the same way conflict-avoiding
codes partition transmissions into difference classes that never collide.
Each shard (one mosaic tile's polygons) is fractured and proximity-
corrected on its own, so shards can run concurrently on a process pool;
the merge step then reassembles one :class:`~repro.core.job.MachineJob`
in deterministic row-major field order.

The execution is four modules: :mod:`repro.core.plan` turns a layout
into shards (sharding and overlap semantics live there),
:mod:`repro.core.ladder` keeps one map call's shards alive through
worker deaths, hangs and transient faults (fleet → pool → serial),
:class:`~repro.core.pipeline.PreparationPipeline` holds the run's
configuration and runs the shard loop, and this module holds what the
loop maps and where its results land.

Determinism contract
--------------------
The shard plan depends only on the geometry and the ``field_size``
argument — never on the worker count.  Each shard is processed by pure
deterministic code, and shard results are merged in shard-plan order, so
``workers=N`` produces a shot-for-shot identical job to ``workers=1``
for every ``N``.

One shard loop, two doors
-------------------------
Both doors of the pipeline run the same loop
(:meth:`~repro.core.pipeline.PreparationPipeline._run_shards`): a
*source* supplies windows of shards, the loop does cache lookup →
dispatch (:func:`_map_shards`) → store → recovery attribution per
window, and a *sink* receives each result in row-major order.  A
resident layout (``run``) is one window whose results are held; a
one-shot polygon cursor (``run_streaming``) is spooled to disk
(:func:`_spooled_windows`) and arrives as one window per shard row
whose results are spilled.  Both land in one sink class,
:class:`ExecutionResult`, which merges the reports and re-reads what it
spilled.  What a streamed run puts on disk — source polygons and
spilled results alike — goes through one :class:`_Spool`.  Which source
runs, and whether its sink holds or spills, follows from the door,
never from a knob, and both produce the same bytes and counters.

Caching
-------
With a :class:`~repro.core.cache.ShardCache` attached, every shard's
content address (polygons + field index + fracturer/corrector/PSF
configuration) is computed before dispatch; hits skip fracture and
proximity correction entirely and misses are stored after processing.
Cache keys never depend on worker count or shard arrival order, and
payloads store exact doubles, so a warm run is byte-identical to a cold
serial run.  A store that fails — a cache entry, a program segment or a
spill record — degrades the rest of the run through this module's one
store-failure policy, :class:`ContainedStore`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.core.fields import FieldIndex
from repro.core.jobfile import dumps_ring, dumps_shard_result
from repro.core.jobfile import loads_ring, loads_shard_result
from repro.core.ladder import Deadline, RetryPolicy, _Ladder
from repro.core.plan import Shard, _plan_tiles, warn_at_caller
from repro.core.stats import ExecutionStats
from repro.fracture.base import Fracturer, Shot, ShotView, dosed, shot_rows
from repro.fracture.quality import FractureReport, analyze_figures, merge_reports
from repro.geometry.scanline_fast import KernelFallbacks
from repro.geometry.vertex_array import sequential_sum

# Re-exported: the names callers have always imported from here.
from repro.core.ladder import shutdown_worker_pool as shutdown_worker_pool
from repro.core.ladder import warm_worker_pool as warm_worker_pool
from repro.core.ladder import worker_pool_status as worker_pool_status
from repro.core.plan import ShardOverlapWarning as ShardOverlapWarning
from repro.core.plan import plan_figure_shards as plan_figure_shards
from repro.core.plan import plan_shards as plan_shards

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import FaultPlan
    from repro.pec.base import ProximityCorrector
    from repro.physics.psf import DoubleGaussianPSF


class CacheDegradedWarning(UserWarning):
    """A run stopped storing cache entries after a write failure.

    Emitted once per run by the execution layer when a ``put`` fails
    (ENOSPC, read-only filesystem): the run continues — reads included —
    but computed results are no longer stored, so later runs recompute
    them.  Degraded runs also flag ``cache_degraded`` on their
    :class:`ExecutionStats` — a degraded run never looks like a clean
    one.
    """


class SpillDegradedWarning(UserWarning):
    """A streamed run stopped spilling shard results after a store failure.

    Emitted once per run by
    :meth:`~repro.core.pipeline.PreparationPipeline.run_streaming` when a
    spill append fails (ENOSPC, read-only filesystem): the run
    continues with the affected shard results held in memory — results
    are unaffected, only the bounded-memory guarantee degrades.  Degraded
    runs also count ``spill_fallbacks`` on their :class:`ExecutionStats`,
    so a degraded run never looks like a clean one.
    """


@dataclass
class ContainedStore:
    """The one store-failure policy: cache entries, spilled shard
    results and machine-program segment blobs.

    A computed result must never be lost to storage trouble: the first
    store that raises ``OSError`` or reports a refused publish (ENOSPC,
    read-only filesystem) degrades the *rest of the run* — ``degraded``
    flips, ``warning`` is emitted once with the reason, and no further
    store is attempted.  The caller keeps the result either way and
    counts what the failure means to it.  The warning names the line
    that called the pipeline's door (:func:`~repro.core.plan.warn_at_caller`).
    It lives beside :class:`ExecutionResult`, which builds both of a
    run's policies, so a run without a cache loads no file store.
    """

    warning: type
    message: str
    degraded: bool = False

    @classmethod
    def for_cache(cls) -> "ContainedStore":
        """The policy of a store into the shard cache, whichever key
        family it writes (shard results, program segments)."""
        return cls(
            CacheDegradedWarning,
            "shard cache degraded to read-only for the rest of this run "
            "({reason}); results are unaffected, but what was not stored "
            "will be recomputed by later runs",
        )

    def __call__(self, put, *args) -> bool:
        """``put(*args)`` unless already degraded; True iff the value
        was stored."""
        if self.degraded:
            return False
        try:
            stored = put(*args)
        except OSError as exc:
            stored = False
            reason = f"{type(exc).__name__}: {exc}"
        else:
            reason = "the filesystem refused the store"
        if not stored:
            self.degraded = True
            warn_at_caller(self.message.format(reason=reason), self.warning)
        return bool(stored)


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
    entry, the spill record and the fleet commit.
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
        return loads_shard_result, (dumps_shard_result(self),)


class _Spool:
    """An append-only temp file of byte records, read back by index —
    what a streamed run puts on disk: the source polygons
    (:func:`_spooled_windows`) and the spilled shard results
    (:class:`ExecutionResult`).

    No descriptor outlives a call: the shared pool is forked lazily
    inside a pool round, so a spool open across dispatch would be
    inherited by every worker and held, unlinked, for the pool's
    lifetime.  :meth:`append` and :meth:`read` each open the file once
    and close it; :meth:`close` removes it.
    """

    def __init__(self, prefix: str) -> None:
        fd, self.path = tempfile.mkstemp(prefix=prefix)
        os.close(fd)
        #: Record ``i`` spans bytes ``[ends[i], ends[i + 1])``.
        self._ends = array("q", [0])

    def __len__(self) -> int:
        return len(self._ends) - 1

    def append(self, records: Iterable[bytes]) -> bool:
        """Write ``records`` after the last complete one; True, as a
        :class:`ContainedStore` store returns.  A write that raises
        leaves the record count as it was."""
        ends = array("q")
        end = self._ends[-1]
        with open(self.path, "r+b", buffering=1 << 20) as spool:
            spool.seek(end)
            for record in records:
                spool.write(record)
                end += len(record)
                ends.append(end)
        self._ends.extend(ends)
        return True

    def read(self, indices: Iterable[int]) -> List[bytes]:
        """The records at ``indices``, in that order."""
        with open(self.path, "rb") as spool:
            records = []
            for i in indices:
                spool.seek(self._ends[i])
                records.append(spool.read(self._ends[i + 1] - self._ends[i]))
            return records

    def close(self) -> None:
        """Remove the file (idempotent)."""
        with contextlib.suppress(OSError):
            os.unlink(self.path)


class ExecutionResult:
    """One layout's shard results in row-major shard order — the sink
    both doors of :class:`~repro.core.pipeline.PreparationPipeline` end
    in.

    The shard loop hands it every result through :meth:`add`.  A
    resident run (``run``) holds each result; a streamed run
    (``run_streaming``) spills its ``EBC1`` payload to a private
    :class:`_Spool` and keeps only the record index.  A failed spill
    append degrades that shard (and the rest of the run) to being held,
    with one :class:`SpillDegradedWarning` — never a crash.

    Either way it answers the same questions, once: the merged
    :attr:`report`, :attr:`corrected`, :attr:`total_shots`, the
    :attr:`stats` and :meth:`results`, a re-iterable row-major cursor
    that re-reads spilled results one at a time, so assembling a
    streamed job never holds more than one shard's shots.

    Use as a context manager (or call :meth:`close`) so a streamed run
    removes its spool.
    """

    def __init__(
        self,
        correcting: bool = False,
        stats: Optional[ExecutionStats] = None,
        spill: bool = False,
    ) -> None:
        self.stats = stats if stats is not None else ExecutionStats()
        #: Polygons the streamed door's spool read (set by the pipeline
        #: for a resident run).
        self.source_polygons = 0
        self.total_shots = 0
        self._correcting = correcting
        #: A held result, or the spool index of a spilled one.
        self._entries: List[Union[ShardResult, int]] = []
        self._reports: List[FractureReport] = []
        self._areas: List[float] = []
        self._closed = False
        #: The run's one cache-store policy: the shard loop's stores and
        #: the machine-program export's segment blobs degrade together;
        #: the pipeline reads its degradation once, when the run is
        #: assembled.
        self.cache_store = ContainedStore.for_cache()
        self._spool: Optional[_Spool] = None
        if spill:
            self._spool = _Spool("repro-spill-")
            self._store = ContainedStore(
                SpillDegradedWarning,
                "shard-result spilling degraded to the in-memory merge for "
                "the rest of this run ({reason}); results are unaffected, but "
                "memory is no longer bounded by one shard row",
            )

    @property
    def streamed(self) -> bool:
        """Results are spilled, not held."""
        return self._spool is not None

    def add(self, result: ShardResult) -> int:
        """Take the next result (the shard loop's); returns its serialized
        size when spilled — its share of the window's resident bytes —
        else 0."""
        self._reports.append(result.report)
        self._areas.append(result.reference_area)
        self.total_shots += len(result.shots)
        if self._spool is None:
            self._entries.append(result)
            return 0
        payload = dumps_shard_result(result)
        if self._store(self._spool.append, [payload]):
            self.stats.shards_spilled += 1
            self.stats.spill_bytes += len(payload)
            self._entries.append(len(self._spool) - 1)
        else:
            self.stats.spill_fallbacks += 1
            self._entries.append(result)
        return len(payload)

    @property
    def report(self) -> FractureReport:
        """The shard reports merged, against the shards' reference
        areas added left to right."""
        return merge_reports(
            self._reports, reference_area=sequential_sum(self._areas)
        )

    @property
    def corrected(self) -> bool:
        """Proximity correction ran on at least one shot."""
        return self._correcting and self.total_shots > 0

    def results(self) -> Iterator[ShardResult]:
        """Yield every :class:`ShardResult` in row-major shard order.

        Held results are yielded directly; spilled ones are re-read from
        the spool one at a time.  The cursor is re-iterable — job
        assembly and the machine-program export each take their own
        pass.
        """
        for entry in self._entries:
            if isinstance(entry, ShardResult):
                yield entry
                continue
            if self._closed:
                raise RuntimeError(
                    "execution is closed; its spilled shard results are "
                    "no longer readable"
                )
            yield loads_shard_result(self._spool.read([entry])[0])

    @property
    def shard_results(self) -> List[ShardResult]:
        """Every result, resident."""
        return list(self.results())

    @property
    def shots(self) -> ShotView:
        """Every result's shots, stacked in shard order."""
        return ShotView.concat([result.rows for result in self.results()])

    def close(self) -> None:
        """Remove the spool (idempotent)."""
        self._closed = True
        if self._spool is not None:
            self._spool.close()

    def __enter__(self) -> "ExecutionResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
    sharded run rests on it.
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


def _process_shard_task(
    config: tuple, faults: Optional[FaultPlan], task: tuple
) -> ShardResult:
    """Every rung's entry point for one ``(position, attempt, shard)``
    work item — pool, serial and remote worker alike: fire any scheduled
    injection fault, then process the shard.  ``config``/``faults`` are
    bound via ``functools.partial``, which a pool pickles with every
    submission — one shard's task carries its whole configuration."""
    position, attempt, shard = task
    if faults is not None:
        faults.fire(position, attempt)
    return _process_shard(shard, *config)


def _map_shards(
    shards: List[Shard],
    config: tuple,
    workers: int,
    tick: Optional[Callable[[], None]] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    deadline: Optional[Deadline] = None,
    fleet: Optional[Callable] = None,
) -> _Ladder:
    """Run shards through ``config = (fracturer, corrector, psf)`` down
    one recovery ladder (:mod:`repro.core.ladder`), governed by ``retry``
    and bounded by ``deadline`` (unbounded by default).

    The rungs, each over what the one above left unfinished: ``fleet``
    (a bound :func:`repro.dist.run.fleet_rung`, ``fleet(ladder, config,
    faults) -> pending``) when the run is distributed; the shared
    process pool when ``workers`` and the shards left make it pay off;
    the in-process serial rung for the rest.  ``faults`` positions are
    the work list's on every rung.

    Returns the ladder: ``results`` in shard order, ``attempts`` per
    position and ``stats``, the map's counters — ``parallel`` (some
    result came off a pool or a remote worker), the recovery events
    (all-zero on a clean run) and the fleet's ``dist`` group.

    ``tick`` is invoked once per completed shard (in completion order,
    which is nondeterministic on a pool or a fleet) — it feeds progress
    reporting only and must never influence results.  Exceptions it
    raises (a service's cooperative cancellation) propagate after
    cleanup.
    """
    task = functools.partial(_process_shard_task, config, faults)
    ladder = _Ladder(shards, task, retry or RetryPolicy(), deadline or Deadline(), tick)
    pending = list(range(len(shards)))
    if fleet is not None and shards:
        pending = fleet(ladder, config, faults)
    if workers > 1 and len(pending) > 1:
        pending = ladder.pool_rounds(workers, pending)
    for position in pending:
        ladder.serial(position)
    return ladder


def merge_shard_results(
    results: Sequence[ShardResult], corrected: bool, stats: ExecutionStats
) -> ExecutionResult:
    """Hold ``results`` (in shard order) as one layout's execution."""
    merged = ExecutionResult(corrected, stats)
    for result in results:
        merged.add(result)
    return merged


@contextlib.contextmanager
def _spooled_windows(polygons, field_size: Optional[float]):
    """The spool source: a one-shot polygon cursor as shard-row windows.

    Consumes ``polygons`` exactly once without materializing the layout
    and yields ``(source_polygons, total_shards, windows)``:

    1. **Spool** — every polygon is one :class:`_Spool` record, its
       ``EBS1`` ring (:func:`~repro.core.jobfile.dumps_ring`, exact
       doubles, re-read vertex for vertex, so a re-read polygon is the
       one spooled); its bounding box is kept, 32 bytes a polygon
       beside the spool's 8-byte span.
    2. **Plan** — the boxes go through :func:`_plan_tiles`, the planner
       :func:`plan_shards` uses, so the spool shards as the resident
       layout would.  The spool is not read for this.
    3. **Window** — ``windows`` yields one ``(shards, source_bytes)``
       pair per shard row, bottom to top, reading only that row's
       records, in one read.

    The spool is removed when the context exits, however it exits.
    """
    boxes = array("d")

    def encoded():
        for poly in polygons:
            boxes.extend(poly.bounding_box())
            yield dumps_ring(poly)

    with contextlib.closing(_Spool("repro-spool-")) as spool:
        spool.append(encoded())
        source_polygons = len(spool)
        if not source_polygons:
            tiles = []
        elif field_size is None:
            tiles = [((0, 0), range(source_polygons))]
        else:
            tiles = _plan_tiles(
                np.frombuffer(boxes).reshape(-1, 4), field_size
            )[0]

        def windows():
            for _, row in itertools.groupby(tiles, lambda tile: tile[0][1]):
                row = list(row)
                records = spool.read(i for _, members in row for i in members)
                rebuilt = map(loads_ring, records)
                shards = [
                    Shard(
                        index=index,
                        polygons=tuple(itertools.islice(rebuilt, len(members))),
                    )
                    for index, members in row
                ]
                yield shards, sum(map(len, records))

        yield source_polygons, len(tiles), windows()
