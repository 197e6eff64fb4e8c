"""Runs one accepted job through the preparation pipeline.

The runner is where the service meets the existing engine: it builds
the pipeline from the job's :class:`~repro.core.recipe.PrepRecipe`
(the same builder the CLI uses), attaches the server's *shared*
content-addressed :class:`~repro.core.cache.ShardCache` — one cache
for all tenants, so identical shards are never computed twice for
anyone — and streams per-shard completion into the job store while the
engine works.

Artifacts land under ``<work_dir>/jobs/<job-id>/``: the ``.ebj``
machine job always, plus the ``.ebp`` machine program when the recipe
asks for one.  Both are written by the exact functions the CLI uses,
so HTTP and CLI runs of the same recipe are byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.cache import ShardCache
from repro.core.ladder import Deadline, RetryPolicy
from repro.service.jobs import Job, JobCancelled, JobStore


class JobTimeoutError(Exception):
    """Raised inside a run when the job's wall-clock budget expires."""


class JobRunner:
    """Executes jobs against one shared cache and one artifact tree.

    Args:
        store: job store receiving progress and results.
        work_dir: artifact root; each job gets its own subdirectory.
        cache: the shared shard cache (``None`` disables caching).
    """

    def __init__(
        self,
        store: JobStore,
        work_dir: Union[str, Path],
        cache: Optional[ShardCache] = None,
    ) -> None:
        self.store = store
        self.work_dir = Path(work_dir)
        self.cache = cache

    def workload_library(self, name: str):
        """Resolve a workload name to its library (fresh per job, so
        every run sees the identical deterministic geometry)."""
        from repro.layout import generators

        return generators.workload(name)()

    def job_dir(self, job_id: str) -> Path:
        return self.work_dir / "jobs" / job_id

    def __call__(self, job: Job) -> None:
        """Run ``job`` to completion, honouring its spec's fault knobs.

        Each attempt runs under its own
        :class:`~repro.core.ladder.Deadline`, attached to the job in the
        store: it carries the per-job wall-clock ``timeout`` and the
        cancel a ``DELETE`` sends down (:meth:`JobStore.cancel`), both
        observed at every shard completion, backoff, pool wait and
        lease.  A cancelled run lands the job in ``cancelled`` here; a
        timed-out run raises (never retried) and the queue worker
        records the failure.  Any other exception is put to the
        engine's one classifier
        (:meth:`~repro.core.ladder.RetryPolicy.is_transient`): an
        infrastructure fault re-runs the job up to ``spec.retries``
        extra times before propagating; a deterministic failure (bad
        shard data, an injected permanent fault) cannot change on a
        re-run and propagates at once.
        """
        spec = job.spec
        while True:
            deadline = Deadline(
                spec.timeout,
                error=lambda: JobTimeoutError(
                    f"job {job.id} exceeded its {spec.timeout:g} s budget"
                ),
            )
            attempt = self.store.attach(job.id, deadline)
            try:
                self._run_once(job, deadline)
                return
            except JobCancelled:
                self.store.move(job.id, "cancelled", "running")
                self.store.count("faults", "cancelled_while_running")
                return
            except JobTimeoutError:
                self.store.count("faults", "job_timeouts")
                raise
            except Exception as exc:
                if attempt > spec.retries or not RetryPolicy.is_transient(exc):
                    raise
                self.store.count("faults", "jobs_retried")

    def _run_once(self, job: Job, deadline: Deadline) -> None:
        """One attempt under ``deadline``: run the pipeline and mark the
        job done.

        Exceptions propagate to :meth:`__call__` (retries) and then the
        queue worker (failure record) — this method only handles the
        success path.
        """
        spec = job.spec
        library = self.workload_library(spec.workload)
        job_dir = self.job_dir(job.id)
        job_dir.mkdir(parents=True, exist_ok=True)

        def progress(done: int, total: int) -> None:
            self.store.update_progress(job.id, done, total)
            deadline.check()

        pipeline = spec.recipe.build_pipeline(
            cache=self.cache, progress=progress, deadline=deadline
        )
        program_path = None
        if spec.recipe.machine is not None:
            program_path = job_dir / f"program.{spec.recipe.machine}.ebp"
        job_path = job_dir / "job.ebj"
        result = spec.recipe.prepare(
            pipeline,
            library,
            name=spec.job_name,
            program_path=program_path,
            job_path=job_path,
        )

        execution = result.execution.to_json()
        summary = {
            "digest": result.job.digest(),
            "figure_count": result.fracture_report.figure_count,
            "source_polygons": result.source_polygons,
            "corrected": result.corrected,
            "job_bytes": result.job_bytes,
            "execution": execution,
        }
        self.store.record_run(result.execution)
        if "dist" in execution:
            self.store.count("dist", "distributed_jobs")
        program = result.machine_program
        if program is not None:
            summary["program"] = {
                "mode": program.mode,
                "digest": program.digest,
                "stream_bytes": program.stream_bytes,
                "file_bytes": program.file_bytes,
                "segment_count": program.segment_count,
                "cache_hits": program.cache_hits,
                "cache_misses": program.cache_misses,
            }
        self.store.move(
            job.id,
            "done",
            ("queued", "running"),
            result=summary,
            job_path=str(job_path),
            program_path=str(program_path) if program_path else None,
        )
