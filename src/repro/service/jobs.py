"""The job store: every submission's state machine, thread-safe.

A job moves ``queued → running → done | failed``.  A ``DELETE`` lands a
queued job in ``cancelled`` at once; on a running job it cancels the
run's :class:`~repro.core.ladder.Deadline` — the one channel that also
carries the job's ``timeout`` — so the run raises :class:`JobCancelled`
at its next shard boundary, backoff, pool wait or lease, and the runner
lands the job in ``cancelled``.

Every state change is one :meth:`JobStore.move` under the store's one
lock, so the HTTP threads, the queue workers and the progress callbacks
from the execution engine can never observe a torn job record.
Terminal states are final: a finished job's record (and its artifacts
on disk) stay addressable until the server goes away.
"""

from __future__ import annotations

import copy
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.core.ladder import Deadline
from repro.core.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.schemas import JobSpec

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: The states each state may be entered from (:meth:`JobStore.move`):
#: the queue starts a queued job, a ``DELETE`` cancels a queued one and
#: the runner a running one; a runner called on a job outside the queue
#: finishes it from ``queued``.
MOVES = {
    "running": ("queued",),
    "cancelled": ("queued", "running"),
    "done": ("queued", "running"),
    "failed": ("queued", "running"),
}


class JobCancelled(Exception):
    """Raised inside a run when a ``DELETE`` cancels its deadline."""


@dataclass
class Job:
    """One submission's full record.

    Attributes:
        id: opaque job handle (URL-safe hex).
        spec: the parsed submission (workload + recipe + priority).
        state: one of :data:`JOB_STATES`.
        sequence: submission order — the FIFO tie-break within a
            priority class.
        submitted_at / started_at / finished_at: wall-clock timestamps
            (unix seconds; ``None`` until reached).
        shards_done / shards_total: per-shard completion progress,
            reported live by the execution engine while running.
        error: ``"ExcType: message"`` for failed jobs.
        result: summary mapping of a done job (digest, figure count,
            cache hits/misses, stream stats).
        job_path / program_path: on-disk artifacts of a done job.
        cancel_requested: a ``DELETE`` arrived while the job was
            running; the run's deadline is cancelled and the run stops
            at the next shard boundary, backoff, pool wait or lease.
        attempts: how many times the runner has started this job
            (> 1 after per-job retries).
        deadline: the current attempt's deadline (:meth:`JobStore.attach`)
            — what :meth:`JobStore.cancel` cancels.
    """

    id: str
    spec: "JobSpec"
    state: str = "queued"
    sequence: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    shards_done: int = 0
    shards_total: int = 0
    error: Optional[str] = None
    result: Optional[dict] = None
    job_path: Optional[str] = None
    program_path: Optional[str] = None
    cancel_requested: bool = False
    attempts: int = 0
    deadline: Optional[Deadline] = None

    @property
    def priority(self) -> int:
        return self.spec.priority


class JobStore:
    """Thread-safe in-memory registry of every job the server has seen.

    It also keeps the server-wide run totals behind ``GET /stats``: one
    :class:`~repro.core.stats.ExecutionStats` every finished run is
    merged into, read back through the schema's ``totals`` sections —
    no counter is named here.
    """

    #: Events only the service can count (whole-job retries, timeouts,
    #: cancels, how many jobs ran distributed), by ``GET /stats``
    #: section.  Everything else in a section is an engine counter the
    #: stats schema assigns to it (``stat(..., totals=section)``).
    SERVICE_KEYS = {
        "faults": ("jobs_retried", "job_timeouts", "cancelled_while_running"),
        "dist": ("distributed_jobs",),
    }

    #: The keys of the ``faults`` / ``dist`` sections of ``GET /stats``
    #: (always all present): schema-declared, then service-only.
    FAULT_KEYS = (*ExecutionStats().select("totals", "faults"), *SERVICE_KEYS["faults"])
    DIST_KEYS = (*ExecutionStats().select("totals", "dist"), *SERVICE_KEYS["dist"])

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._sequence = 0
        self._run_totals = ExecutionStats()
        self._service_totals = {
            section: dict.fromkeys(keys, 0)
            for section, keys in self.SERVICE_KEYS.items()
        }

    # -- creation / lookup -------------------------------------------------

    def create(self, spec: "JobSpec") -> Job:
        """Register a new queued job and return its record."""
        with self._lock:
            self._sequence += 1
            job = Job(
                id=uuid.uuid4().hex[:12],
                spec=spec,
                sequence=self._sequence,
            )
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        """The *live* record — for code that will transition it next.

        Readers that only render a job (HTTP views) must use
        :meth:`snapshot` instead: a live record can be mutated by a
        worker mid-read, e.g. ``state == "done"`` observed before
        ``result``/``job_path`` are assigned.
        """
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self, job_id: str) -> Optional[Job]:
        """A consistent point-in-time copy of one job, made under the
        store lock — never a torn record.  Field values are shared with
        the live record but every terminal field (``result``,
        ``job_path``, …) is assigned together with ``state`` under the
        same lock, so the copy is internally coherent."""
        with self._lock:
            job = self._jobs.get(job_id)
            return copy.copy(job) if job is not None else None

    def list(self) -> List[Job]:
        """Consistent copies of all jobs, in submission order."""
        with self._lock:
            live = sorted(self._jobs.values(), key=lambda j: j.sequence)
            return [copy.copy(job) for job in live]

    def counts(self) -> Dict[str, int]:
        """How many jobs are in each state (every state always keyed)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    # -- state machine -----------------------------------------------------

    def move(
        self, job_id: str, state: str, frm: Union[str, Tuple[str, ...]], **values
    ) -> bool:
        """The one transition: ``frm → state``, setting ``values`` and
        the state's timestamp (``started_at`` for ``running``, else
        ``finished_at``) under one lock.  False, with nothing changed,
        when the job is missing or not in ``frm``.

        Raises:
            ValueError: ``frm`` names a state :data:`MOVES` does not
                allow into ``state``.
        """
        frm = (frm,) if isinstance(frm, str) else frm
        if not set(frm) <= set(MOVES.get(state, ())):
            raise ValueError(f"no job moves from {frm} to {state!r}")
        stamp = "started_at" if state == "running" else "finished_at"
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state not in frm:
                return False
            for name, value in {**values, "state": state, stamp: time.time()}.items():
                setattr(job, name, value)
            return True

    def cancel(self, job_id: str) -> str:
        """A ``DELETE``; returns the job's disposition: ``"cancelled"``
        (was queued — gone immediately), ``"cancelling"`` (running —
        its deadline is cancelled and the run stops at its next check),
        ``"finished"`` (already terminal) or ``"missing"``."""
        if self.move(job_id, "cancelled", "queued"):
            return "cancelled"
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return "missing"
            if job.state != "running":
                return "finished"
            job.cancel_requested = True
            if job.deadline is not None:
                job.deadline.cancel(_cancelled(job_id))
            return "cancelling"

    def attach(self, job_id: str, deadline: Deadline) -> int:
        """Start one runner attempt under ``deadline``: count it and
        make the deadline the one :meth:`cancel` cancels (at once, when
        a cancel already landed).  Returns the attempt's number."""
        with self._lock:
            job = self._jobs[job_id]
            job.attempts += 1
            job.deadline = deadline
            if job.cancel_requested:
                deadline.cancel(_cancelled(job_id))
            return job.attempts

    # -- fault accounting --------------------------------------------------

    def record_run(self, stats: ExecutionStats) -> None:
        """Fold one finished run's statistics into the server-wide
        totals, by the schema's merge rules."""
        with self._lock:
            self._run_totals.merge(stats)

    def count(self, section: str, key: str) -> None:
        """Count one service-only event (a :data:`SERVICE_KEYS` entry)."""
        with self._lock:
            self._service_totals[section][key] += 1

    def totals(self, section: str) -> Dict[str, int]:
        """The ``section`` (``"faults"``/``"dist"``) body of ``GET
        /stats``: the schema's counters for it summed over every run,
        plus the service-only events (all keys always present)."""
        with self._lock:
            return {
                **self._run_totals.select("totals", section),
                **self._service_totals[section],
            }

    def update_progress(self, job_id: str, done: int, total: int) -> None:
        """Per-shard progress from the execution engine (monotonic;
        late out-of-order callbacks never move the counter backwards)."""
        with self._lock:
            job = self._jobs[job_id]
            job.shards_total = max(job.shards_total, total)
            job.shards_done = max(job.shards_done, done)


def _cancelled(job_id: str):
    return lambda: JobCancelled(f"job {job_id} cancelled while running")
