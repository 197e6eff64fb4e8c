"""The priority job queue: admission control for the shared pipeline.

Jobs are drained by a fixed pool of worker threads — the service's
concurrency limit.  Each worker runs one job at a time through the
runner; the heavy lifting inside a job still lands on the persistent
*process* pool of :mod:`repro.core.ladder` (when the job's recipe
asks for workers), so the thread here is an orchestrator, not a
compute unit.

Ordering: highest priority first, FIFO within a priority class
(ties broken by submission sequence).  Cancellation purges the job's
heap entry eagerly, so ``depth()`` drops at once — a heap never holds
entries for jobs that will not run.

A job that raises does not take a worker thread down: the exception is
captured on the job record (``"ExcType: message"``) and the worker
moves on — one poisoned submission never makes the server unhealthy.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import CancelledError
from typing import Callable, List, Optional

from repro.service.jobs import Job, JobStore


class JobQueue:
    """Priority queue + worker threads over a :class:`JobStore`.

    Args:
        store: the job store transitions go through.
        runner: ``runner(job)`` — runs one job to completion; raising
            marks the job failed.
        concurrency: worker-thread count — the maximum number of jobs
            in the ``running`` state at once.
    """

    def __init__(
        self,
        store: JobStore,
        runner: Callable[[Job], None],
        concurrency: int = 2,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.store = store
        self.runner = runner
        self.concurrency = concurrency
        self._cv = threading.Condition()
        self._heap: List[tuple] = []
        self._running: set = set()
        self._stopping = False
        self._threads: List[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._cv:
            if self._threads:
                return
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    name=f"prep-queue-{i}",
                    daemon=True,
                )
                for i in range(self.concurrency)
            ]
        for thread in self._threads:
            thread.start()

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; queued jobs stay queued (and resubmittable
        by a future queue over the same store)."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        with self._cv:
            self._threads = []

    # -- submission / cancellation ----------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue a stored job (higher ``priority`` runs earlier)."""
        with self._cv:
            heapq.heappush(self._heap, (-job.priority, job.sequence, job.id))
            self._cv.notify()

    def cancel(self, job_id: str) -> str:
        """:meth:`JobStore.cancel` the job (its disposition is returned),
        purging a cancelled job's heap entry."""
        disposition = self.store.cancel(job_id)
        if disposition == "cancelled":
            with self._cv:
                self._heap = [e for e in self._heap if e[2] != job_id]
                heapq.heapify(self._heap)
        return disposition

    # -- introspection -----------------------------------------------------

    def depth(self) -> int:
        """Jobs waiting in the queue (cancelled stragglers excluded)."""
        with self._cv:
            ids = [entry[2] for entry in self._heap]
        return sum(
            1
            for job_id in ids
            if (job := self.store.get(job_id)) is not None
            and job.state == "queued"
        )

    def running_count(self) -> int:
        with self._cv:
            return len(self._running)

    def workers_alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    # -- the worker loop ---------------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Pop the best runnable job, skipping cancelled entries;
        blocks until one arrives or the queue stops.  The stop flag is
        checked *before* every pop so shutdown() never drains queued
        work — queued jobs stay queued, as its docstring promises."""
        with self._cv:
            while True:
                while self._heap and not self._stopping:
                    _, _, job_id = heapq.heappop(self._heap)
                    if self.store.move(job_id, "running", "queued"):
                        job = self.store.get(job_id)
                        self._running.add(job_id)
                        return job
                    # Cancelled while queued — skip.
                if self._stopping:
                    return None
                self._cv.wait()

    def _worker(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            try:
                self.runner(job)
            except (Exception, CancelledError) as exc:
                # noqa: BLE001 — captured on the job.  CancelledError
                # is listed explicitly: on supported Pythons it derives
                # from BaseException, and a cancellation leaking out of
                # the engine must fail the one job, not kill the worker
                # thread (which would silently shrink concurrency and
                # flip /readyz to 503 forever).
                error = f"{type(exc).__name__}: {exc}"
                self.store.move(job.id, "failed", ("queued", "running"), error=error)
            finally:
                with self._cv:
                    self._running.discard(job.id)
