"""The data-preparation pipeline.

Gather polygons from the source, run them through the field-sharded
shard loop (fracture → proximity correction, over the pieces in
:mod:`repro.core.executor`), then assemble every run — resident or
streamed — in one pass over its shard results: the
:class:`~repro.core.job.MachineJob`, the ``.ebj`` job file, the
write-time estimates and the machine program.  A pipeline is one run's
configuration: every knob is set and checked in its constructor and
read-only after it, and the entry points take only what a run reads and
writes (source, layer, name, output paths); a different configuration
is a second pipeline.  A run prepares one layout into one job; a
per-layer sweep is one :meth:`PreparationPipeline.run` per layer, all on
the one shared worker pool.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.executor import (
    ExecutionResult,
    ExecutionStats,
    ShardResult,
    _map_shards,
    _spooled_windows,
)
from repro.core.ladder import Deadline, RetryPolicy, _resolve_workers
from repro.core.job import MachineJob, ShotFold
from repro.core.plan import _OVERLAP_POLICY, plan_figure_shards, plan_shards
from repro.core.recipe import POSITIVE, check_knobs, check_rules, require
from repro.fracture.base import Fracturer
from repro.fracture.quality import FractureReport
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.layout.library import Library
from repro.layout.stream import (
    LayoutStream,
    MemoryStream,
    open_layout_stream,
)
from repro.machine.base import Machine, WriteTimeBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.cache import ShardCache
    from repro.core.faults import FaultPlan
    from repro.machine.program import MachineProgram
    from repro.pec.base import ProximityCorrector
    from repro.physics.psf import DoubleGaussianPSF

def _program_slug(name: str) -> str:
    """A filesystem-safe stem for per-job program files."""
    cleaned = "".join(
        ch if (ch.isalnum() or ch in "._-") else "-" for ch in name
    ).strip("-.")
    return cleaned or "job"


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one layer.

    Attributes:
        job: the writable machine job.
        fracture_report: quality metrics of the fracture step.
        write_times: per-machine write-time breakdowns (name → breakdown).
        source_polygons: flattened polygon count before fracture.
        corrected: True if proximity correction ran.
        execution: how the shard loop ran (shards, workers, pool).
        machine_program: the exported machine data stream when the
            run had a ``machine`` mode.
        job_bytes: size of the ``.ebj`` job file the run wrote to its
            ``job_path`` (0 when none was requested), resident and
            streamed alike.
    """

    job: MachineJob
    fracture_report: FractureReport
    write_times: Dict[str, WriteTimeBreakdown] = field(default_factory=dict)
    source_polygons: int = 0
    corrected: bool = False
    execution: Optional[ExecutionStats] = None
    machine_program: Optional["MachineProgram"] = None
    job_bytes: int = 0

    def total_write_time(self, machine_name: str) -> float:
        """Convenience: total seconds on a named machine."""
        return self.write_times[machine_name].total


class PreparationPipeline:
    """Layout → fractured, corrected, timed machine job.

    Every argument is checked here, once, and kept as the attribute of
    the same name (read-only afterwards: assigning one raises
    ``AttributeError``); to run under a different configuration, build a
    second pipeline — passing one :class:`~repro.core.cache.ShardCache`
    to both when they must share a cache.  Both doors run one body on
    these knobs, :meth:`_door`, in three blocks: read and plan the
    source (closing a layout file it opened), the one shard loop
    :meth:`_run_shards`, and :meth:`_assemble`.

    Args:
        fracturer: fracturing strategy (trapezoids by default).
        corrector: optional proximity corrector; needs a ``psf`` (a
            :data:`~repro.core.recipe.RULES` row).
        psf: exposure PSF used by the corrector.
        machines: machines to estimate writing time on.
        base_dose: physical base dose [µC/cm²].
        workers: worker-pool size for the shard loop; 1 = serial,
            ``None``/0 = one per core.  The worker count never changes
            the result, only the wall-clock (see
            :mod:`repro.core.executor`).
        field_size: writing-field pitch [µm] for layout
            sharding; ``None`` processes the layout as one shard.
        cache_dir: directory for the content-addressed shard cache;
            ``None`` disables caching.  Editing one field of a cached
            layout re-computes only that field's shards; a warm full-hit
            re-run skips fracture and PEC entirely and is byte-identical
            to a cold serial run.
        cache: an explicit :class:`~repro.core.cache.ShardCache` to use
            instead of building one from ``cache_dir`` — how two
            pipelines share one cache.
        overlap_policy: cross-shard overlap handling when sharding —
            ``"warn"`` (default), ``"union"`` or ``"ignore"`` (see
            :mod:`repro.core.plan`).
        hierarchy: how hierarchical sources are fractured —
            ``"flat"`` (default: expand every placement, fracture per
            shard) or ``"cells"`` (fracture each cell once, replicate
            the figures per placement, then dose/correct per shard; see
            :mod:`repro.core.hierarchical`).  On array-dominated
            layouts ``"cells"`` avoids re-fracturing identical
            instances; figures from different instances are not merged,
            so overlapping placements would double-expose (the same
            contract as :func:`fracture_hierarchical`).  Raw polygon
            sources carry no hierarchy and always run flat.
        machine: lower every prepared job into an on-disk machine
            program — ``"raster"`` (per-scanline RLE runs), ``"vsb"`` or
            ``"vector"`` (per-shot dose/flash records); ``None`` (the
            default) skips program export.  Programs stream one shard at
            a time and are byte-identical across worker counts and
            cold/warm cache runs (see :mod:`repro.machine.program`).
        address_unit: raster address pitch [µm] for program export.
        program_dir: directory for exported programs (default: the
            working directory); files are named
            ``<job-name>.<mode>.ebp``.
        progress: optional per-shard completion callback
            ``progress(done, total)`` — invoked with ``done=0`` once the
            shard plan is known, then with the running completion count
            (cache hits report immediately); how a long-running
            front-end (the prep service's job status endpoint) observes
            a run advancing.  It runs outside the shard computation and
            never influences results.
        retry: the shard loop's :class:`~repro.core.ladder.RetryPolicy`
            (per-shard retries, deterministic backoff, hang watchdog);
            defaults to ``RetryPolicy()``.  Never changes results, only
            what survives: a run that finishes under faults is
            byte-identical to a clean run.
        faults: an optional :class:`~repro.core.faults.FaultPlan` of
            injected faults (chaos testing; usually arrives via the
            ``REPRO_FAULTS`` environment variable through the recipe),
            armed with this process's pid when a run starts.  A plan
            with ``enospc_puts`` wraps the cache in a
            :class:`~repro.core.faults.FaultyCache` so store faults hit
            both shard results and program segment blobs.
        dispatch: shard scheduling — ``"local"`` (default) or
            ``"distributed"`` (lease shards to the worker fleet on
            ``workers_endpoint`` via :mod:`repro.dist`; byte-identical
            to local; the fleet is the recovery ladder's top rung, its
            pool and serial rungs finish what the fleet cannot).
            ``"distributed"`` needs a ``workers_endpoint`` (a
            :data:`~repro.core.recipe.RULES` row).
        workers_endpoint: coordinator ``host:port`` for distributed
            dispatch, checked by the recipe's kind: a malformed one is
            refused here, whatever the dispatch.
        dist_policy: optional
            :class:`~repro.dist.coordinator.DistPolicy` scheduling
            knobs for distributed dispatch (heartbeats, speculation);
            defaults apply when ``None``.
        deadline: optional :class:`~repro.core.ladder.Deadline` —
            the run's time budget and cooperative cancel (the service's
            job budget), handed down to every backoff, pool wait and
            lease; unbounded when ``None``.

    Example:
        >>> from repro.layout import generators
        >>> from repro.machine import RasterScanWriter
        >>> pipe = PreparationPipeline(machines=[RasterScanWriter()])
        >>> result = pipe.run(generators.grating(lines=5))
        >>> result.job.figure_count()
        5
    """

    #: Set last in ``__init__``: from then on every knob is read-only.
    _fixed = False

    def __init__(
        self,
        fracturer: Optional[Fracturer] = None,
        corrector: Optional[ProximityCorrector] = None,
        psf: Optional[DoubleGaussianPSF] = None,
        machines: Sequence[Machine] = (),
        base_dose: float = 1.0,
        workers: int = 1,
        field_size: Optional[float] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ShardCache] = None,
        overlap_policy: str = "warn",
        hierarchy: str = "flat",
        machine: Optional[str] = None,
        address_unit: float = 0.5,
        program_dir: Optional[Union[str, Path]] = None,
        progress=None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        dispatch: str = "local",
        workers_endpoint: Optional[str] = None,
        dist_policy=None,
        deadline=None,
    ) -> None:
        require(POSITIVE, "base_dose", base_dose)
        knobs = dict(
            hierarchy=hierarchy,
            machine=machine,
            address_unit=address_unit,
            field_size=field_size,
            dispatch=dispatch,
            workers_endpoint=workers_endpoint,
        )
        check_knobs(**knobs)
        require(_OVERLAP_POLICY, "overlap_policy", overlap_policy)
        # The source decides whether ``hierarchy`` applies (raw polygons
        # run flat) and the door whether the run streams, so the rows
        # that read them with ``overlap_policy`` are checked by the door
        # body, :meth:`_door`.
        check_rules(corrector=corrector is not None, psf=psf, **knobs)
        if cache is None and cache_dir is not None:
            from repro.core.cache import ShardCache

            cache = ShardCache(cache_dir)
        if faults is not None and faults.enospc_puts and cache is not None:
            # Injected store faults apply to every store this pipeline
            # makes — shard results and program segment blobs share one
            # put-ordinal counter, so a schedule can target either.
            from repro.core.faults import FaultyCache

            cache = FaultyCache(cache, faults)
        self.fracturer = fracturer if fracturer is not None else TrapezoidFracturer()
        self.corrector = corrector
        self.psf = psf
        self.cache = cache
        self.machines = list(machines)
        self.base_dose = base_dose
        self.hierarchy = hierarchy
        self.machine = machine
        self.address_unit = address_unit
        self.program_dir = Path(program_dir) if program_dir is not None else None
        self.workers = _resolve_workers(workers)
        self.field_size = field_size
        self.overlap_policy = overlap_policy
        self.progress = progress
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.dispatch = dispatch
        self.workers_endpoint = workers_endpoint
        self.dist_policy = dist_policy
        self.deadline = deadline if deadline is not None else Deadline()
        self._fixed = True

    def __setattr__(self, name: str, value) -> None:
        if self._fixed:
            kind = type(self).__name__
            raise AttributeError(
                f"{kind}.{name} is fixed at construction; build a second "
                f"{kind} for a different value"
            )
        object.__setattr__(self, name, value)

    # -- entry points --------------------------------------------------------

    def run(
        self,
        source: Union[LayoutStream, Library, Cell, str, Path, Iterable[Polygon]],
        layer: Optional[Layer] = None,
        name: Optional[str] = None,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Run the full pipeline on a layout file, stream, library, cell
        or raw polygon list, holding the layout and its results.

        Args:
            source: the pattern source; a layout file path
                (``.gds``/``.cif``) or a
                :class:`~repro.layout.stream.LayoutStream` is read to
                completion (a stream passed in is not closed),
                libraries use their unique top cell, cells are flattened
                with descendants, raw polygons are one job named
                ``"job"``.
            layer: restrict to one layer (all layers merged otherwise).
            name: job name (defaults to the cell/library name).
            program_path: explicit program file path (defaults to
                ``<program_dir>/<job-name>.<mode>.ebp``).
            job_path: write the job's ``.ebj`` file here.

        A cells + ``overlap_policy="union"`` pipeline refuses a layout
        source before reading it (a :data:`~repro.core.recipe.RULES`
        row); raw polygons carry no hierarchy and run flat.
        """
        return self._door(source, layer, name, program_path, job_path, False)

    def run_streaming(
        self,
        source: Union[LayoutStream, Library, Cell, str, Path, Iterable[Polygon]],
        layer: Optional[Layer] = None,
        name: Optional[str] = None,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Run the full pipeline out of core, in bounded memory.

        The streaming counterpart of :meth:`run`, on the same sources
        and outputs: polygons are drawn from a lazy cursor (a layout
        file is opened as a :class:`~repro.layout.stream.LayoutStream`,
        a resident library/cell is wrapped in a
        :class:`~repro.layout.stream.MemoryStream`; a raw polygon
        iterable is consumed once) into a temp spool, and a layout
        file the door opened is closed before any shard is dispatched;
        the shard loop spills per-shard results instead of holding
        them, and the same assembly pass as :meth:`run` folds the
        aggregates, digest and — with ``job_path`` — the ``.ebj`` bytes
        one shard at a time.

        Byte-identity contract: the ``.ebj`` file (``job_path``) and the
        machine program (``machine``/``program_path``) are byte-identical
        to the materialized :meth:`run` path for any worker count,
        cold or warm cache, and local or distributed dispatch.  The
        resulting :class:`PipelineResult` carries an aggregate job whose
        accounting, digest and dose range match the materialized job
        exactly; only the resident shot list is absent.

        Args:
            source: a :class:`~repro.layout.stream.LayoutStream` (not
                closed here), a layout file path (``.gds``/``.cif``), a
                library/cell, or a raw polygon iterable (consumed once).
            layer: restrict to one layer (all layers merged otherwise).
            name: job name (defaults to the top cell's name).
            program_path: explicit program file path.
            job_path: write the job's ``.ebj`` file here.

        Always runs flat.  Hierarchy ``"cells"`` prefracture is a
        materializing transform, so a cells pipeline refuses a layout
        source, and an ``overlap_policy="union"`` pipeline every source
        — both :data:`~repro.core.recipe.RULES` rows, checked before
        anything is read; a raw polygon iterable carries no hierarchy
        and runs flat, as on :meth:`run`.
        """
        return self._door(source, layer, name, program_path, job_path, True)

    def _door(self, source, layer, name, program_path, job_path, streaming):
        """The one body of :meth:`run` and :meth:`run_streaming`: the
        whole run, in three blocks.

        Resolves the source and checks the door's
        :data:`~repro.core.recipe.RULES` rows before anything is opened:
        a layout (file, stream, library or cell) runs under the
        pipeline's ``hierarchy``, raw polygons flat.  Then:

        1. **Source.**  A resident door materializes the layout and, on
           a cells pipeline, fractures each cell once, then plans its
           shards (with the pipeline's ``overlap_policy``) as one
           window; a streamed door drains the flat cursor into the
           spool source (:func:`~repro.core.executor._spooled_windows`),
           one window per shard row of the same plan, without the
           ``"warn"`` overlap advisory.  A layout file the door opened is
           closed here, so no pool forked by the loop inherits it (a
           stream passed in is never closed).
        2. **Shard loop.**  :meth:`_run_shards` over those windows; the
           source spool is removed when the loop ends.
        3. **Assembly.**  :meth:`_assemble` writes the results.

        The run's :class:`~repro.core.executor.ExecutionResult` holds
        (resident) or spills (streamed) the results; its one ``with``
        removes its spool on every exit (a failing shard, a service
        cancel or timeout raised through the progress tick).
        """
        layout = isinstance(source, (LayoutStream, str, Path, Library, Cell))
        check_rules(
            streaming=streaming,
            hierarchy=self.hierarchy if layout else "flat",
            overlap_policy=self.overlap_policy,
        )
        selected = {layer} if layer is not None else None
        opens = isinstance(source, (str, Path))
        reader = open_layout_stream if opens else contextlib.nullcontext
        hier = None
        execution = ExecutionResult(self.corrector is not None, spill=streaming)
        with execution, contextlib.ExitStack() as source_spool:
            with reader(source) as stream:
                if isinstance(stream, (Library, Cell)):
                    stream = MemoryStream(stream)
                if not layout:
                    inferred, geometry = "job", source if streaming else list(source)
                else:
                    top = stream.top_cell()
                    inferred = top.name
                    if not streaming and not isinstance(stream, MemoryStream):
                        stream.materialize()
                    if streaming:
                        geometry = stream.iter_flat(top, selected)
                    elif self.hierarchy == "cells":
                        # Each cell's selected layers are fractured as one
                        # union, mirroring the flat path, which fractures
                        # the union of every requested layer in one pass.
                        from repro.core.hierarchical import fracture_hierarchical

                        hier = fracture_hierarchical(
                            top, self.fracturer, layers=selected, merge_layers=True
                        )
                        geometry = hier.figures.get(None, [])
                    else:
                        geometry = list(stream.iter_flat(top, selected))
                if streaming:
                    spooled = _spooled_windows(geometry, self.field_size)
                    execution.source_polygons, total, windows = (
                        source_spool.enter_context(spooled)
                    )
                else:
                    planner = plan_shards if hier is None else plan_figure_shards
                    shards = planner(
                        geometry, self.field_size, overlap_policy=self.overlap_policy
                    )
                    windows, total = [(shards, 0)], len(shards)
                    execution.source_polygons = len(geometry)
            self._run_shards(windows, total, execution, hier is not None)
            source_spool.close()  # with the loop, not after assembly
            if hier is not None:
                # Cells-mode shards are prefractured, so their per-shard
                # kernel counters are zero; the kernel ran during the
                # hierarchy walk instead.
                execution.source_polygons = hier.source_polygons
                execution.stats.fold(hier)
                execution.stats.fold(hier.kernel_fallbacks)
            return self._assemble(execution, name or inferred, program_path, job_path)

    # -- the shard loop ---------------------------------------------------

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

    def _run_shards(
        self, windows, total: int, sink: ExecutionResult, prefractured: bool
    ) -> None:
        """The one shard loop: lookup → dispatch → store → attribute.

        ``windows`` yields ``(shards, source_bytes)`` pairs
        (``source_bytes`` is what the source re-read to build the
        window); ``total`` is the shard count over all windows,
        announced to the progress callback up front.  Each window's
        shards are looked up in the cache, the misses sent down one
        ladder (:func:`~repro.core.executor._map_shards`, with the fleet
        as its top rung on a distributed pipeline) and stored, and every
        result handed to ``sink.add`` in window order — row-major.

        The sink gets the run's one :class:`ExecutionStats`
        (``prefractured`` says whether the shards carry figures).
        Per-shard counters land on it by plain arithmetic, each result's
        kernel counters by :meth:`~repro.core.stats.ExecutionStats.fold`;
        each window's ladder counts its recovery events and fleet
        counters onto its own record, merged here by the schema's rules
        (:meth:`~repro.core.stats.ExecutionStats.merge`).  Stores go
        through the sink's one cache-store policy, whose degradation
        :meth:`_assemble` reads once the program's blobs are stored too.

        Injected fault schedules key positions into the run's
        dispatched work list: each window sees the plan rebased by the
        shards dispatched before it, so a plan means the same thing
        however the run is windowed.
        """
        config = (self.fracturer, self.corrector, self.psf)
        cache = self.cache
        faults = self.faults.arm() if self.faults is not None else None
        tick = self._progress_tick(total)
        stats = sink.stats = ExecutionStats(
            shard_count=0,
            occupied_shards=0,
            workers=self.workers,
            field_size=self.field_size,
            cache_enabled=cache is not None,
            hierarchy="cells" if prefractured else "flat",
            # The configured mode even when a warm cache left nothing to
            # map remotely — an all-hit run on a distributed pipeline is
            # still a distributed run.
            dispatch=self.dispatch,
            streamed=sink.streamed,
        )
        fleet = None
        if self.dispatch == "distributed":
            from repro.dist.run import fleet_rung

            fleet = functools.partial(
                fleet_rung, endpoint=self.workers_endpoint, policy=self.dist_policy
            )
        dispatched = 0
        for shards, window_bytes in windows:
            keys: List[Optional[str]] = [None] * len(shards)
            results: List[Optional[ShardResult]] = [None] * len(shards)
            if cache is not None:
                # Keys are computed for the whole window up front,
                # before any processing can touch corrector state, so
                # hit/miss decisions never depend on execution order.
                keys = [cache.key_for(shard, *config) for shard in shards]
                for i, key in enumerate(keys):
                    results[i], evicted = cache.lookup(key)
                    stats.cache_evictions += evicted
                    if results[i] is not None:
                        stats.cache_hits += 1
                        if tick is not None:
                            tick()
            pending = [i for i, hit in enumerate(results) if hit is None]
            ladder = _map_shards(
                [shards[i] for i in pending],
                config,
                self.workers,
                tick,
                self.retry,
                faults.rebased(dispatched) if faults is not None else None,
                self.deadline,
                fleet,
            )
            dispatched += len(pending)
            stats.merge(ladder.stats)
            for i, result in zip(pending, ladder.results):
                results[i] = result
                if cache is not None:
                    stats.cache_misses += 1
                    sink.cache_store(cache.put, keys[i], result)
            for result in results:
                stats.shard_count += 1
                if result.shots:
                    stats.occupied_shards += 1
                stats.fold(result.kernel_fallbacks)
                window_bytes += sink.add(result)
            stats.stream_windows += int(sink.streamed)
            stats.peak_window_bytes = max(stats.peak_window_bytes, window_bytes)

    # -- helpers ----------------------------------------------------------

    def _default_program_path(self, name: str, mode: str) -> Path:
        """``<program_dir>/<slug>.<mode>.ebp``."""
        base = self.program_dir if self.program_dir is not None else Path(".")
        return base / f"{_program_slug(name)}.{mode}.ebp"

    def _assemble(
        self,
        execution: ExecutionResult,
        name: str,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Assemble one execution into a result — the tail of every run.

        One pass over its results folds each shard's shot block, in the
        merged shot order, into a :class:`~repro.core.job.ShotFold`
        (bounding box, exposure sums, dose range, digest) and, with
        ``job_path``, writes its ``.ebj`` records.  A resident run keeps
        the blocks as its job's shots; a streamed run gets the aggregate
        job, so it never holds more than one shard's shots.  Write times
        are then estimated on the job and, with a machine mode, the
        program is exported from a second pass (the run's occupied
        shards are its segments) through the pipeline's cache.  Last,
        the run's cache degradation is read off its one store, which
        stops at its first failure: a degraded run failed exactly one
        store, shard result or program segment.  The caller closes the
        execution.
        """
        fold = ShotFold(self.base_dose)
        blocks = None if execution.streamed else []
        writer = None
        if job_path is not None:
            from repro.core.jobfile import JobFileWriter

            writer = JobFileWriter(
                job_path, execution.total_shots, base_dose=self.base_dose
            )
        with writer or contextlib.nullcontext():
            for shard in execution.results():
                fold.add_rows(shard.rows)
                if blocks is not None:
                    blocks.append(shard.rows)
                if writer is not None:
                    writer.write_rows(shard.rows)
        job = fold.job(name, blocks)
        result = PipelineResult(
            job=job,
            fracture_report=execution.report,
            write_times={m.name: m.write_time(job) for m in self.machines},
            source_polygons=execution.source_polygons,
            corrected=execution.corrected,
            execution=execution.stats,
            job_bytes=writer.close() if writer is not None else 0,
        )
        mode = self.machine
        if mode is not None:
            from repro.machine.program import MachineSpec, export_program

            if program_path is None:
                program_path = self._default_program_path(name, mode)
            result.machine_program = export_program(
                execution.results(),
                job,
                MachineSpec(mode=mode, address_unit=self.address_unit),
                program_path,
                cache=self.cache,
                segment_count=execution.stats.occupied_shards,
                store=execution.cache_store,
            )
        degraded = execution.cache_store.degraded
        execution.stats.cache_degraded = degraded
        execution.stats.cache_write_failures = int(degraded)
        return result
