"""Staged replay: one workload's input pushed through each layer's
public functions, one timed call at a time.

The pipeline under ``src/`` records no durations, so the traced run
re-drives the same public calls the pipeline makes — in the same order,
with the same configuration objects (taken from
``PrepRecipe.build_pipeline``) — and wraps each in a span.  The replay
writes its own ``.ebj``/``.ebp``; the caller checks they are
byte-identical to the pipeline's, which is what makes the stage timings
attributable to the real run.

Everything here runs in the benchmark's own process and imports
``repro`` directly; the end-to-end (``--trace 0``) numbers never touch
this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.executor import (
    ExecutionStats,
    ShardResult,
    merge_shard_results,
    plan_figure_shards,
    plan_shards,
    shutdown_worker_pool,
)
from repro.core.hierarchical import fracture_hierarchical
from repro.core.job import MachineJob
from repro.core.jobfile import write_job
from repro.core.pipeline import PipelineResult
from repro.core.recipe import PrepRecipe
from repro.fracture.base import Shot
from repro.fracture.quality import analyze_figures
from repro.geometry.scanline_fast import KernelFallbacks
from repro.layout.flatten import flatten_cell
from repro.layout.gdsii import read_gdsii
from repro.layout.library import Library
from repro.layout.stream import open_layout_stream
from repro.machine.program import MachineSpec, export_program

from tracing import Recorder

Source = Union[str, Path, Library]


def artifact_paths(out_dir: Path, recipe: PrepRecipe) -> Tuple[Path, Optional[Path]]:
    """Where a run under ``out_dir`` puts its ``.ebj`` and ``.ebp``."""
    job_path = out_dir / "out.ebj"
    program_path = (
        out_dir / f"out.{recipe.machine}.ebp" if recipe.machine else None
    )
    return job_path, program_path


def run_pipeline(
    recipe: PrepRecipe,
    source: Source,
    out_dir: Path,
    cache_dir: Optional[Path] = None,
) -> Tuple[PipelineResult, float]:
    """What ``repro.cli prep`` does after argument parsing, in process
    and untraced: read, run, write.  Returns the result (whose
    ``execution`` carries the public counters) and the wall-clock."""
    out_dir.mkdir(parents=True, exist_ok=True)
    job_path, program_path = artifact_paths(out_dir, recipe)
    start = time.perf_counter()
    pipeline = recipe.build_pipeline(cache_dir=cache_dir)
    if recipe.streaming:
        result = pipeline.run_streaming(
            source, program_path=program_path, job_path=job_path
        )
    else:
        library = source if isinstance(source, Library) else read_gdsii(source)
        result = pipeline.run(library, program_path=program_path)
        write_job(result.job, job_path)
    wall = time.perf_counter() - start
    if recipe.workers != 1:
        # The shared pool outlives the run; reap it so its CPU lands in
        # RUSAGE_CHILDREN and no worker survives the benchmark.
        shutdown_worker_pool()
    return result, wall


@dataclass
class Replay:
    """Counts and per-shard busy times of one staged replay (durations
    live in the recorder's spans)."""

    wall: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    shard_busy: List[Tuple[str, float]] = field(default_factory=list)


def _dir_bytes(root: Optional[Path]) -> int:
    if root is None or not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def staged_replay(
    recipe: PrepRecipe,
    source: Source,
    out_dir: Path,
    rec: Recorder,
    cache_dir: Optional[Path] = None,
) -> Replay:
    """Drive ``source`` through the layers one public call at a time.

    Mirrors ``PreparationPipeline.run`` → ``ShardedExecutor.execute_many``
    → ``_process_shard`` → ``_finish``.  A streaming recipe reads through
    the cursor (``open_layout_stream().iter_flat``) but is otherwise
    replayed materialized: the streamed and in-memory paths promise the
    same bytes, and the window/spill machinery has no public seam to
    time — it shows up as ``stream.overhead_s`` instead.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    job_path, program_path = artifact_paths(out_dir, recipe)
    replay = Replay()
    counts = replay.counts
    pipe = recipe.build_pipeline(cache_dir=cache_dir)
    fracturer, corrector, psf = pipe.fracturer, pipe.corrector, pipe.psf
    cache = pipe.cache
    span = rec.span

    with span("replay", "executor") as root:
        figures = None
        if recipe.streaming:
            with span("layout.stream_iter", "layout"):
                with open_layout_stream(source) as stream:
                    name = stream.top_cell().name
                    polygons = list(stream.iter_flat())
            counts["layout.flat_polygons"] = len(polygons)
        else:
            if isinstance(source, Library):
                library = source
            else:
                with span("layout.read", "layout"):
                    library = read_gdsii(source)
            top = library.top_cell()
            name = top.name
            counts["layout.read_polygons"] = sum(
                len(polys)
                for cell in library.cells.values()
                for polys in cell.polygons.values()
            )
            if recipe.hierarchy == "cells":
                with span("fracture.hier_prefracture", "fracture"):
                    hier = fracture_hierarchical(
                        library, fracturer, merge_layers=True
                    )
                figures = hier.figures.get(None, [])
                counts["fracture.hier_cells_fractured"] = hier.cells_fractured
                counts["layout.flat_polygons"] = hier.source_polygons
            else:
                with span("layout.flatten", "layout"):
                    flat = flatten_cell(top)
                    polygons = [p for polys in flat.values() for p in polys]
                counts["layout.flat_polygons"] = len(polygons)

        with span("executor.plan", "executor"):
            if figures is not None:
                shards = plan_figure_shards(figures, recipe.field_size)
            else:
                shards = plan_shards(polygons, recipe.field_size)
        counts["executor.shards"] = len(shards)

        results: List[Optional[ShardResult]] = [None] * len(shards)
        keys: List[str] = []
        if cache is not None:
            with span("cache.key", "cache"):
                keys = [
                    cache.key_for(shard, fracturer, corrector, psf)
                    for shard in shards
                ]
            with span("cache.get", "cache"):
                results = [cache.get(key) for key in keys]

        fallbacks = 0
        pec_shots = 0
        largest_pec_shard = 0
        for i, shard in enumerate(shards):
            if results[i] is not None:
                continue
            busy_start = time.perf_counter()
            if shard.figures is not None:
                shots = [Shot(t) for t in shard.figures]
                shard_fallbacks = KernelFallbacks()
            else:
                with span("fracture.fracture", "fracture"):
                    shots = fracturer.fracture_to_shots(shard.polygons)
                shard_fallbacks = fracturer.last_fallbacks.copy()
            with span("fracture.quality", "fracture"):
                trapezoids = [s.trapezoid for s in shots]
                reference_area = sum(t.area() for t in trapezoids)
                report = analyze_figures(
                    trapezoids, reference_area=reference_area
                )
            if corrector is not None and shots:
                with span("pec.correct", "pec"):
                    shots = corrector.correct(shots, psf)
                pec_shots += len(shots)
                largest_pec_shard = max(largest_pec_shard, len(shots))
            results[i] = ShardResult(
                index=shard.index,
                shots=shots,
                report=report,
                reference_area=reference_area,
                kernel_fallbacks=shard_fallbacks,
            )
            fallbacks += (
                shard_fallbacks.coord_limit + shard_fallbacks.rational_slab
            )
            replay.shard_busy.append(
                (f"{shard.index[0]},{shard.index[1]}",
                 time.perf_counter() - busy_start)
            )
            if cache is not None:
                with span("cache.put", "cache"):
                    cache.put(keys[i], results[i])
        counts["fracture.kernel_fallbacks"] = fallbacks
        counts["pec.shots"] = pec_shots
        if recipe.pec and recipe.pec_matrix == "dense":
            # Computed, not measured: the dense operator is one n×n
            # float64 matrix per shard; the largest shard sets the peak.
            counts["pec.matrix_mb"] = largest_pec_shard**2 * 8 / 2**20

        with span("executor.merge", "executor"):
            merged = merge_shard_results(
                results, corrected=corrector is not None, stats=ExecutionStats()
            )
        counts["fracture.figures"] = len(merged.shots)

        with span("job.build", "core"):
            job = MachineJob(merged.shots, base_dose=pipe.base_dose, name=name)
        with span("machine.write_time_model", "machine"):
            for writer in pipe.machines:
                writer.write_time(job)
        if program_path is not None:
            with span("machine.export", "machine"):
                export_program(
                    merged.shard_results,
                    job,
                    MachineSpec(
                        mode=recipe.machine, address_unit=recipe.address_unit
                    ),
                    program_path,
                    cache=cache,
                )
            counts["machine.program_bytes"] = program_path.stat().st_size
        with span("jobfile.write", "core"):
            counts["jobfile.bytes"] = write_job(job, job_path)

    replay.wall = root["end"] - root["start"]
    if cache is not None:
        counts["cache.hits"] = cache.stats.hits
        counts["cache.misses"] = cache.stats.misses
        counts["cache.bytes"] = _dir_bytes(cache_dir)
    return replay
