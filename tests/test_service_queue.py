"""Job-queue semantics: priority, concurrency, cancellation, failure.

These tests drive :class:`~repro.service.queue.JobQueue` with
controllable fake runners (events instead of real pipeline runs), so
every scheduling property is asserted deterministically.
"""

import copy
import threading
import time

import pytest

from repro.core.recipe import PrepRecipe
from repro.service.jobs import JOB_STATES, MOVES, JobStore
from repro.service.queue import JobQueue
from repro.service.schemas import JobSpec

_TIMEOUT = 10.0


def make_spec(priority=0, workload="grating"):
    return JobSpec(workload=workload, recipe=PrepRecipe(), priority=priority)


class RecordingRunner:
    """Runner that logs execution order and optionally blocks."""

    def __init__(self, store, gate=None):
        self.store = store
        self.gate = gate
        self.order = []
        self.started = threading.Semaphore(0)

    def __call__(self, job):
        self.order.append(job.id)
        self.started.release()
        if self.gate is not None:
            assert self.gate.wait(_TIMEOUT)
        assert self.store.move(job.id, "done", "running", result={"ok": True})


@pytest.fixture
def store():
    return JobStore()


def wait_idle(queue):
    """Poll the counters the service's stats endpoint reports until
    nothing is queued or running."""
    deadline = time.monotonic() + _TIMEOUT
    while queue.depth() or queue.running_count():
        assert time.monotonic() < deadline, "the queue never went idle"
        time.sleep(0.001)


def drain(queue):
    wait_idle(queue)
    queue.shutdown()


class TestPriorityOrdering:
    def test_higher_priority_runs_first(self, store):
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=1)
        # Occupy the single worker so the rest queue up.
        blocker = store.create(make_spec())
        queue.start()
        queue.submit(blocker)
        assert runner.started.acquire(timeout=_TIMEOUT)
        low = store.create(make_spec(priority=0))
        high = store.create(make_spec(priority=5))
        mid = store.create(make_spec(priority=1))
        for job in (low, high, mid):
            queue.submit(job)
        gate.set()
        drain(queue)
        assert runner.order == [blocker.id, high.id, mid.id, low.id]

    def test_fifo_within_a_priority_class(self, store):
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=1)
        blocker = store.create(make_spec())
        queue.start()
        queue.submit(blocker)
        assert runner.started.acquire(timeout=_TIMEOUT)
        same = [store.create(make_spec(priority=3)) for _ in range(4)]
        for job in same:
            queue.submit(job)
        gate.set()
        drain(queue)
        assert runner.order[1:] == [job.id for job in same]


class TestConcurrencyLimit:
    def test_never_more_than_concurrency_running(self, store):
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=2)
        queue.start()
        jobs = [store.create(make_spec()) for _ in range(5)]
        for job in jobs:
            queue.submit(job)
        # Exactly two start; the other three wait in the queue.
        assert runner.started.acquire(timeout=_TIMEOUT)
        assert runner.started.acquire(timeout=_TIMEOUT)
        assert not runner.started.acquire(timeout=0.2)
        assert queue.running_count() == 2
        assert queue.depth() == 3
        assert store.counts()["running"] == 2
        gate.set()
        drain(queue)
        assert sorted(runner.order) == sorted(job.id for job in jobs)

    def test_concurrency_must_be_positive(self, store):
        with pytest.raises(ValueError):
            JobQueue(store, lambda job: None, concurrency=0)


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, store):
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=1)
        blocker = store.create(make_spec())
        victim = store.create(make_spec())
        queue.start()
        queue.submit(blocker)
        assert runner.started.acquire(timeout=_TIMEOUT)
        queue.submit(victim)
        assert queue.cancel(victim.id) == "cancelled"
        assert store.get(victim.id).state == "cancelled"
        gate.set()
        drain(queue)
        assert victim.id not in runner.order
        assert store.get(victim.id).state == "cancelled"
        assert store.get(victim.id).finished_at is not None

    def test_cancel_running_job_requests_cooperative_stop(self, store):
        """Cancelling a *running* job flags it for cooperative stop:
        the queue answers "cancelling" and sets the store flag; it's
        the run's deadline that carries the cancel (this fake runner
        attaches none, so the job still lands done)."""
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=1)
        job = store.create(make_spec())
        queue.start()
        queue.submit(job)
        assert runner.started.acquire(timeout=_TIMEOUT)
        assert queue.cancel(job.id) == "cancelling"
        assert store.get(job.id).state == "running"
        assert store.get(job.id).cancel_requested
        gate.set()
        drain(queue)
        assert store.get(job.id).state == "done"

    def test_cancel_finished_and_missing(self, store):
        runner = RecordingRunner(store)
        queue = JobQueue(store, runner, concurrency=1)
        job = store.create(make_spec())
        queue.start()
        queue.submit(job)
        drain(queue)
        assert queue.cancel(job.id) == "finished"
        assert queue.cancel("nope") == "missing"


class TestFailureCapture:
    def test_exception_marks_failed_and_worker_survives(self, store):
        calls = []

        def runner(job):
            calls.append(job.id)
            if len(calls) == 1:
                raise RuntimeError("shard exploded")
            store.move(job.id, "done", "running", result={"ok": True})

        queue = JobQueue(store, runner, concurrency=1)
        bad = store.create(make_spec())
        good = store.create(make_spec())
        queue.start()
        queue.submit(bad)
        queue.submit(good)
        drain(queue)
        assert store.get(bad.id).state == "failed"
        assert store.get(bad.id).error == "RuntimeError: shard exploded"
        # The worker survived the poisoned job and ran the next one.
        assert store.get(good.id).state == "done"
        assert queue.workers_alive() == 0  # after shutdown


class TestJobStore:
    def test_sequence_orders_submissions(self, store):
        a, b = store.create(make_spec()), store.create(make_spec())
        assert a.sequence < b.sequence
        assert [j.id for j in store.list()] == [a.id, b.id]

    def test_state_machine_guards(self, store):
        job = store.create(make_spec())
        assert store.move(job.id, "running", "queued")
        assert not store.move(job.id, "running", "queued")
        assert store.cancel(job.id) == "cancelling"
        assert store.move(job.id, "done", "running", result={"ok": True})
        assert store.get(job.id).state == "done"
        assert not store.move("nope", "running", "queued")

    @pytest.mark.parametrize("current", JOB_STATES)
    @pytest.mark.parametrize(
        "target, frm",
        [
            (target, frm)
            for target, sources in MOVES.items()
            for frm in (*sources, sources)
        ],
    )
    def test_every_move(self, store, current, target, frm):
        """An allowed move sets the state, its timestamp and the fields;
        a refused one returns False and leaves the record as it was.
        No move leaves a terminal state."""
        job = store.create(make_spec())
        job.state = current
        before = copy.copy(job)
        moved = store.move(job.id, target, frm, error="E", result={"ok": 1})
        sources = (frm,) if isinstance(frm, str) else frm
        assert moved == (current in sources)
        if current in ("done", "failed", "cancelled"):
            assert not moved
        if not moved:
            assert store.get(job.id) == before
            return
        stamp = "started_at" if target == "running" else "finished_at"
        after = store.get(job.id)
        assert (after.state, after.error, after.result) == (target, "E", {"ok": 1})
        assert getattr(after, stamp) is not None

    @pytest.mark.parametrize(
        "target, frm",
        [("queued", "running"), ("running", "running"), ("done", ("queued", "done"))],
    )
    def test_undeclared_moves_raise(self, store, target, frm):
        job = store.create(make_spec())
        with pytest.raises(ValueError, match="no job moves"):
            store.move(job.id, target, frm)
        assert store.get(job.id).state == "queued"

    def test_progress_is_monotonic(self, store):
        job = store.create(make_spec())
        store.update_progress(job.id, 3, 10)
        store.update_progress(job.id, 2, 10)
        assert store.get(job.id).shards_done == 3
        assert store.get(job.id).shards_total == 10

    def test_counts_key_every_state(self, store):
        counts = store.counts()
        assert set(counts) == {
            "queued",
            "running",
            "done",
            "failed",
            "cancelled",
        }


class TestShutdownSemantics:
    def test_shutdown_does_not_drain_queued_jobs(self, store):
        """shutdown() promises queued jobs stay queued — workers must
        exit at the stop flag instead of draining the heap first."""
        gate = threading.Event()
        runner = RecordingRunner(store, gate=gate)
        queue = JobQueue(store, runner, concurrency=1)
        blocker = store.create(make_spec())
        queue.start()
        queue.submit(blocker)
        assert runner.started.acquire(timeout=_TIMEOUT)
        queued = [store.create(make_spec()) for _ in range(3)]
        for job in queued:
            queue.submit(job)
        stopper = threading.Thread(target=queue.shutdown)
        stopper.start()
        # Release the running job only once the stop flag is set, so
        # the worker's next pickup attempt observes it.
        deadline = threading.Event()
        for _ in range(1000):
            if queue._stopping:
                break
            deadline.wait(0.01)
        assert queue._stopping
        gate.set()
        stopper.join(timeout=_TIMEOUT)
        assert not stopper.is_alive()
        assert runner.order == [blocker.id]
        for job in queued:
            assert store.get(job.id).state == "queued"


class TestCancelPurgesHeap:
    def test_cancel_purges_heap_entry(self, store):
        """A cancelled entry must not linger in the heap, without
        relying on some future submission to wake a worker."""
        queue = JobQueue(store, lambda job: None, concurrency=1)
        victim = store.create(make_spec())
        queue.submit(victim)  # workers never started — nothing drains
        assert queue.cancel(victim.id) == "cancelled"
        assert queue.depth() == 0
        assert queue._heap == []


class TestCancellationErrorCapture:
    def test_cancelled_error_fails_job_but_worker_survives(self, store):
        """CancelledError is a BaseException on supported Pythons; it
        must be captured on the job like any failure, not kill the
        worker thread (which would silently shrink concurrency and
        wedge /readyz at 503)."""
        from concurrent.futures import CancelledError

        calls = []

        def runner(job):
            calls.append(job.id)
            if len(calls) == 1:
                raise CancelledError("pool torn down mid-map")
            store.move(job.id, "done", "running", result={"ok": True})

        queue = JobQueue(store, runner, concurrency=1)
        bad = store.create(make_spec())
        good = store.create(make_spec())
        queue.start()
        queue.submit(bad)
        queue.submit(good)
        wait_idle(queue)
        assert queue.workers_alive() == 1
        queue.shutdown()
        assert store.get(bad.id).state == "failed"
        assert "CancelledError" in store.get(bad.id).error
        assert store.get(good.id).state == "done"


class TestStoreSnapshots:
    def test_snapshot_is_a_point_in_time_copy(self, store):
        job = store.create(make_spec())
        snap = store.snapshot(job.id)
        assert store.move(job.id, "running", "queued")
        store.move(
            job.id, "done", "running", result={"ok": True}, job_path="/tmp/x.ebj"
        )
        assert snap.state == "queued"
        assert snap.result is None
        done = store.snapshot(job.id)
        assert done.state == "done"
        assert done.result == {"ok": True}
        assert done.job_path == "/tmp/x.ebj"
        assert store.snapshot("nope") is None

    def test_list_returns_copies(self, store):
        job = store.create(make_spec())
        listed = store.list()[0]
        assert store.move(job.id, "running", "queued")
        assert listed.state == "queued"
