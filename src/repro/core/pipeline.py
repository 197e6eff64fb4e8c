"""The data-preparation pipeline.

Thin orchestration over :mod:`repro.core.executor`: gather polygons
from the source, hand them to the field-sharded execution engine
(fracture → proximity correction), then assemble every run — resident
or streamed — in one pass over its shard results: the
:class:`~repro.core.job.MachineJob`, the ``.ebj`` job file, the
write-time estimates and the machine program.  A pipeline is one run's
configuration: every knob is set in its constructor and read-only after
it, the engine is built there once, and the entry points take only what
a run reads and writes (source, layer, name, output paths); a different
configuration is a second pipeline.  A run prepares one layout into one
job; a per-layer sweep is one :meth:`PreparationPipeline.run` per layer,
all on the one shared worker pool.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Union,
)

from repro.core.cache import ShardCache
from repro.core.executor import ExecutionResult, ExecutionStats, ShardedExecutor
from repro.core.ladder import RetryPolicy
from repro.core.job import MachineJob, ShotFold
from repro.core.recipe import POSITIVE, FixedKnobs, check_knobs, require
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
        execution: how the sharded engine ran (shards, workers, pool).
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


class PreparationPipeline(FixedKnobs):
    """Layout → fractured, corrected, timed machine job.

    Every argument is checked here, and the knobs are read-only
    afterwards (assigning one raises ``AttributeError``): to run under a
    different configuration, build a second pipeline — passing one
    :class:`~repro.core.cache.ShardCache` to both when they must share a
    cache.  The execution engine is :attr:`engine`, built once.

    Args:
        fracturer: fracturing strategy (trapezoids by default).
        corrector: optional proximity corrector.
        psf: exposure PSF used by the corrector (required with one).
        machines: machines to estimate writing time on.
        base_dose: physical base dose [µC/cm²].
        workers: worker-pool size for the execution engine;
            1 = serial, ``None``/0 = one per core.  The worker count
            never changes the result, only the wall-clock (see
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
            ``progress(done, total)`` threaded into the execution
            engine — how a long-running front-end (the prep service's
            job status endpoint) observes a run advancing.  Never
            influences results.
        retry: the engine's :class:`~repro.core.ladder.RetryPolicy`
            (per-shard retries, deterministic backoff, hang watchdog);
            defaults to ``RetryPolicy()``.  Never changes results, only
            what survives: a run that finishes under faults is
            byte-identical to a clean run.
        faults: an optional :class:`~repro.core.faults.FaultPlan` of
            injected faults (chaos testing; usually arrives via the
            ``REPRO_FAULTS`` environment variable through the recipe).
            A plan with ``enospc_puts`` wraps the cache in a
            :class:`~repro.core.faults.FaultyCache` so store faults hit
            both shard results and program segment blobs.
        dispatch: shard scheduling — ``"local"`` (default) or
            ``"distributed"`` (lease shards to the worker fleet on
            ``workers_endpoint`` via :mod:`repro.dist`; byte-identical
            to local; the fleet is the recovery ladder's top rung, its
            pool and serial rungs finish what the fleet cannot).
        workers_endpoint: coordinator ``host:port`` for distributed
            dispatch.
        dist_policy: optional
            :class:`~repro.dist.coordinator.DistPolicy` scheduling
            knobs for distributed dispatch.
        deadline: optional :class:`~repro.core.ladder.Deadline` —
            the run's time budget and cooperative cancel (the service's
            job budget); unbounded when ``None``.

    Example:
        >>> from repro.layout import generators
        >>> from repro.machine import RasterScanWriter
        >>> pipe = PreparationPipeline(machines=[RasterScanWriter()])
        >>> result = pipe.run(generators.grating(lines=5))
        >>> result.job.figure_count()
        5
    """

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
        check_knobs(hierarchy=hierarchy, machine=machine, address_unit=address_unit)
        if cache is None and cache_dir is not None:
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
        #: The run's execution engine, built (and its knobs checked) once,
        #: here; every door runs on it.  Its cache is also the run's
        #: program-segment cache.
        self.engine = ShardedExecutor(
            self.fracturer,
            corrector=corrector,
            psf=psf,
            workers=workers,
            field_size=field_size,
            cache=cache,
            overlap_policy=overlap_policy,
            progress=progress,
            retry=retry,
            faults=faults,
            dispatch=dispatch,
            endpoint=workers_endpoint,
            dist_policy=dist_policy,
            deadline=deadline,
        )
        self._fixed = True

    # -- entry points --------------------------------------------------------

    def run(
        self,
        source: Union[Library, Cell, str, Path, Iterable[Polygon]],
        layer: Optional[Layer] = None,
        name: Optional[str] = None,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Run the full pipeline on a library, cell, layout file or raw
        polygon list.

        Args:
            source: the pattern source; libraries use their unique top
                cell, cells are flattened with descendants, a layout
                file path (``.gds``/``.cif``) is read to completion,
                raw polygons are one job named ``"job"``.
            layer: restrict to one layer (all layers merged otherwise).
            name: job name (defaults to the cell/library name).
            program_path: explicit program file path (defaults to
                ``<program_dir>/<job-name>.<mode>.ebp``).
            job_path: write the job's ``.ebj`` file here.
        """
        if isinstance(source, (str, Path)):
            with open_layout_stream(source) as stream:
                source = stream.materialize()
        geometry, inferred, source_polygons, hier = self._work_item(source, layer)
        execution = self.engine.execute(geometry, prefractured=hier is not None)
        execution.source_polygons = source_polygons
        if hier is not None:
            # Cells-mode shards are prefractured, so their per-shard
            # kernel counters are zero; the kernel ran during the
            # hierarchy walk instead.
            execution.stats.fold(hier)
            execution.stats.fold(hier.kernel_fallbacks)
        return self._assemble(execution, name or inferred, program_path, job_path)

    def run_streaming(
        self,
        source: Union[LayoutStream, Library, Cell, str, Path, Iterable[Polygon]],
        layer: Optional[Layer] = None,
        name: Optional[str] = None,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ) -> PipelineResult:
        """Run the full pipeline out of core, in bounded memory.

        The streaming counterpart of :meth:`run`: polygons are drawn
        from a lazy cursor (a layout file is opened as a
        :class:`~repro.layout.stream.LayoutStream`, a resident
        library/cell is wrapped in a
        :class:`~repro.layout.stream.MemoryStream`), the execution
        engine spills per-shard results to a temp spool instead of
        holding them, and the same assembly pass as :meth:`run` folds
        the aggregates, digest and — with ``job_path`` — the ``.ebj``
        bytes one shard at a time.

        Byte-identity contract: the ``.ebj`` file (``job_path``) and the
        machine program (``machine``/``program_path``) are byte-identical
        to the materialized :meth:`run` path for any worker count,
        cold or warm cache, and local or distributed dispatch.  The
        resulting :class:`PipelineResult` carries an aggregate job whose
        accounting, digest and dose range match the materialized job
        exactly; only the resident shot list is absent.

        Args:
            source: a :class:`~repro.layout.stream.LayoutStream`, a
                layout file path (``.gds``/``.cif``), a
                library/cell, or a raw polygon iterable (consumed once).
            layer: restrict to one layer (all layers merged otherwise).
            name: job name (defaults to the top cell's name).
            program_path: explicit program file path.
            job_path: write the job's ``.ebj`` file here.

        Always runs flat — hierarchy ``"cells"`` prefracture is a
        materializing transform and is rejected by the streaming recipe.
        """
        stream, owned = self._resolve_stream(source)
        try:
            if stream is not None:
                inferred = stream.top_cell().name
                polygons: Iterable[Polygon] = stream.iter_flat(
                    layers={layer} if layer is not None else None
                )
            else:
                inferred = "job"
                polygons = iter(source)  # type: ignore[arg-type]
            execution = self.engine.execute_stream(polygons)
        finally:
            if owned and stream is not None:
                stream.close()
        return self._assemble(execution, name or inferred, program_path, job_path)

    def _work_item(
        self, source: Union[Library, Cell, Iterable[Polygon]], layer: Optional[Layer]
    ) -> tuple:
        """The one job a resident source makes.

        ``(geometry, name, source_polygons, hier)``: the selected layer's
        geometry (every layer merged when ``layer`` is ``None``).
        ``hier`` is the per-cell fracture the geometry came from when it
        holds pre-fractured figures (hierarchy ``"cells"`` on a
        library/cell), else ``None`` and the geometry is polygons; raw
        polygon sources carry no hierarchy and always run flat.
        """
        if not isinstance(source, (Library, Cell)):
            polygons = list(source)
            return polygons, "job", len(polygons), None
        cell = source.top_cell() if isinstance(source, Library) else source
        selected = {layer} if layer is not None else None
        if self.hierarchy == "cells":
            # Each cell's selected layers are fractured as one union,
            # mirroring the flat path, which fractures the union of
            # every requested layer's polygons in one pass.
            from repro.core.hierarchical import fracture_hierarchical

            hier = fracture_hierarchical(
                cell, self.fracturer, layers=selected, merge_layers=True
            )
            return hier.figures.get(None, []), cell.name, hier.source_polygons, hier
        merged = list(MemoryStream(cell).iter_flat(layers=selected))
        return merged, cell.name, len(merged), None

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
        shards are its segments) through the pipeline's cache.  The
        execution is closed on the way out.
        """
        with execution:
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
                # A failed segment-blob store degrades the run like a
                # failed shard store does.
                execution.read_cache_store()
        return result

    @staticmethod
    def _resolve_stream(source) -> tuple:
        """``(stream, owned)`` for a streaming source; raw polygon
        iterables return ``(None, False)`` and stream as-is."""
        if isinstance(source, LayoutStream):
            return source, False
        if isinstance(source, (str, Path)):
            return open_layout_stream(source), True
        if isinstance(source, (Library, Cell)):
            return MemoryStream(source), True
        return None, False
