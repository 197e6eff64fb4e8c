"""The recovery ladder: how one map call's shards survive misbehaving
infrastructure.

A map call's shards climb down one ladder (:class:`_Ladder`), governed
by one :class:`RetryPolicy` and bounded by one :class:`Deadline`:

1. **the fleet** — with distributed dispatch,
   :func:`repro.dist.run.fleet_rung` leases the shards to remote worker
   daemons and hands back the positions it could not finish (attempt
   budgets spent, no live workers);
2. **the pool** (:meth:`_Ladder.pool_rounds`) — the shared persistent
   process pool, round after round: a broken pool keeps every completed
   result and re-enqueues only unfinished shards on a fresh pool; when
   nothing completes within ``retry.shard_timeout`` the in-flight
   shards count as hung and the pool is recycled with its workers
   killed; when the deadline runs out first, the pool is recycled the
   same way and the deadline's own error raises;
3. **serial** (:meth:`_Ladder.serial`) — in-process, the last rung,
   where only a shard's own exceptions remain and the deadline is
   observed between shards.

Transient shard exceptions (:meth:`RetryPolicy.is_transient`)
re-dispatch up to ``retry.max_attempts`` total attempts with
deterministic capped backoff, then raise; deterministic exceptions
raise immediately (retrying a pure function cannot change its outcome).
Every rung writes the same ``results``, ticks the same progress
callback once per shard and counts its recovery events onto the same
:class:`~repro.core.stats.ExecutionStats` (``_Ladder.stats``); shards
are keyed by their position in the map's work list — so an injected
fault plan names the same shard on every rung.

The shard task is injected (``_Ladder(task=…)``): this module knows how
to keep work alive, not what the work computes.
"""

from __future__ import annotations

import contextlib
import copy
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
)
from concurrent.futures import (
    wait as futures_wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.core.plan import Shard
from repro.core.recipe import check_knobs, number_complaint
from repro.core.stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor


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
    """A run's time budget and its cancel, narrowed as it is handed down.

    One object carries "how long may this still take, and is it still
    wanted" from the job through the run to each shard attempt and
    lease: ``at`` is an absolute :func:`time.monotonic` instant
    (``None`` = unbounded, the default), and ``error`` builds the
    exception an expired budget raises (``TimeoutError`` by default; a
    service's ``JobTimeoutError``).

    * :meth:`cancel` aborts the run from any thread: every later
      :meth:`check` raises the cancel's error (a service's
      ``JobCancelled``), and every pending or future :meth:`wait`
      wakes at once;
    * :meth:`check` raises the cancel or the expiry, whichever landed;
    * :meth:`wait` is the engine's interruptible sleep — it checks
      before and after and never sleeps past ``at``;
    * :meth:`narrowed` returns the earlier of this deadline and one
      ``seconds`` from now (a shard attempt's watchdog), sharing the
      cancel with its parent, whichever is cancelled and whenever.
    """

    def __init__(
        self,
        seconds: Optional[float] = None,
        error: Optional[Callable[[], BaseException]] = None,
    ) -> None:
        self.at = None if seconds is None else time.monotonic() + seconds
        self.error = error or (lambda: TimeoutError("the run's time budget ran out"))
        self._event = threading.Event()
        # The cancel's error builder, shared (like the event) by every
        # narrowed copy.
        self._cancelled: List[Callable[[], BaseException]] = []

    def remaining(self) -> Optional[float]:
        """Seconds left (never negative); ``None`` when unbounded."""
        return None if self.at is None else max(0.0, self.at - time.monotonic())

    def expired(self) -> bool:
        return self.remaining() == 0.0

    def check(self) -> None:
        if self._cancelled:
            raise self._cancelled[0]()
        if self.expired():
            raise self.error()

    def cancel(self, error: Callable[[], BaseException]) -> None:
        """Abort the run: later checks raise ``error()`` (the first
        cancel's), and every wait wakes now."""
        self._cancelled.append(error)
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


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        check_knobs(workers=workers)
    return workers or os.cpu_count() or 1


#: What a pool that is dead, half-spawned or shut down under its user
#: raises out of a lease.
_POOL_TROUBLE = (OSError, BrokenExecutor, CancelledError, RuntimeError)


class _SharedPool:
    """The persistent worker pool, shared by every executor in the process.

    Spawning a pool costs a fork+import per worker — dominant on small
    workloads — so the pool outlives individual runs and is only rebuilt
    when a different size is requested.  Shard-processing configuration
    travels with the work: it is bound into the task per map call and
    pickled with every submission, so the same warm pool serves runs
    with different fracturer/corrector/PSF configurations.

    Concurrent runs (a job server's worker threads) share the pool too:
    every run holds a :meth:`lease` for the duration of its pool round,
    and a lease-held pool is never torn down for a resize — a run
    requesting a different size simply reuses the live pool (worker
    count is a wall-clock knob, never a correctness knob), so one
    tenant's ``workers`` setting cannot cancel another tenant's
    in-flight shards.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._size = 0
        self._leases = 0

    @contextlib.contextmanager
    def lease(self, size: int):
        """Hold the pool for one block, creating it — or rebuilding it
        at ``size`` when no other run holds a lease.

        Yields ``None`` when the platform refuses to spawn workers
        (restricted sandboxes).  A pool that refuses, or whose use
        raises pool trouble out of the block, is dubious — half-spawned
        or dead — and is dropped so the next run does not trip over it,
        unless another run still holds a lease: tearing it down under a
        live tenant would cancel their in-flight shards.
        """
        pool = None
        trouble = False
        try:
            with self._lock:
                if self._pool is not None and self._size != size and not self._leases:
                    self._shutdown_locked()
                if self._pool is None:
                    # The process pool (and multiprocessing with it) is
                    # imported here: a serial run never builds one.
                    from concurrent.futures import ProcessPoolExecutor

                    self._pool = ProcessPoolExecutor(max_workers=size)
                    self._size = size
                self._leases += 1
                pool = self._pool
        except (OSError, BrokenExecutor):
            trouble = True
        try:
            yield pool
        except _POOL_TROUBLE:
            trouble = True
            raise
        finally:
            with self._lock:
                if pool is not None:
                    self._leases -= 1
                if trouble and not self._leases:
                    self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._size = 0

    def shutdown(self) -> None:
        """Tear down the shared worker pool (tests, benchmarks, atexit).

        Concurrent runs still holding a lease fall back to their serial
        path (their in-flight futures are cancelled) — results are
        unchanged, only wall-clock suffers.
        """
        with self._lock:
            self._shutdown_locked()

    def recycle(self, pool, kill_workers: bool = False) -> None:
        """Tear down a broken/hung shared pool so the next lease spawns
        a fresh one.

        ``kill_workers`` SIGKILLs the pool's worker processes first — a
        hung worker never honours a cooperative shutdown, so a plain
        ``shutdown()`` would block on it forever.  Held leases do *not*
        defer the recycle: a broken pool is unusable for every tenant,
        and each concurrent run recovers through its own retry ladder.
        A pool that was already replaced (another run recycled first) is
        left alone.
        """
        with self._lock:
            if self._pool is not pool:
                return
            if kill_workers:
                processes = getattr(pool, "_processes", None) or {}
                for process in list(processes.values()):
                    try:
                        process.kill()
                    except (AttributeError, OSError):
                        pass
            self._shutdown_locked()

    def status(self) -> dict:
        """A snapshot of the shared pool for monitoring endpoints.

        Returns a mapping with ``size`` (configured worker count, 0 when
        no pool is alive) and ``alive`` (whether a pool currently
        exists) — what a service's ``/stats`` endpoint reports as "pool
        state".
        """
        with self._lock:
            return {"size": self._size, "alive": self._pool is not None}


_shared_pool = _SharedPool()
shutdown_worker_pool = _shared_pool.shutdown
worker_pool_status = _shared_pool.status


def warm_worker_pool(workers: Optional[int] = None) -> int:
    """Pre-spawn the shared pool's worker processes.

    Benchmarks call this so their timings report pool-warm numbers —
    the steady state of a long-running service — instead of charging
    one-off process spawn cost to the first measured run.  Returns the
    pool size (0 when ``workers <= 1`` means no pool is used, or when
    the pool could not be spawned or was shut down under the warm-up).
    """
    workers = _resolve_workers(workers)
    if workers <= 1:
        return 0
    try:
        with _shared_pool.lease(workers) as pool:
            if pool is None:
                return 0
            # One blocking task per worker forces every process to spawn.
            list(pool.map(_noop, range(workers), chunksize=1))
    except _POOL_TROUBLE:
        return 0
    return workers


def _noop(value):
    return value


@dataclass
class _Ladder:
    """One map call's recovery state and the local rungs over it.

    ``results`` and ``attempts`` are indexed by work-list position;
    ``stats`` is the map's :class:`~repro.core.stats.ExecutionStats`,
    its shard counts zero, onto which every rung counts what it saw:
    retries, pool restarts, salvaged shards (each position once),
    hang-watchdog victims, ``parallel`` once a pooled or leased result
    lands, and the fleet rung's ``dist`` counters.  All-zero on a clean
    run — a degraded run can never look like a clean one.
    :meth:`finish` is how every rung lands a result; :meth:`pool_rounds`
    dispatches unfinished shards to the shared pool round after round;
    :meth:`serial` runs one shard in-process.

    ``shard_timeouts`` counts every in-flight shard when the watchdog
    fires, including shards merely queued behind a hung worker (a
    conservative overcount: every re-enqueued in-flight shard is a
    victim).
    """

    shards: List[Shard]
    task: Callable[[tuple], object]
    retry: RetryPolicy
    deadline: Deadline
    tick: Optional[Callable[[], None]]

    def __post_init__(self) -> None:
        self.results: List = [None] * len(self.shards)
        self.attempts = [0] * len(self.shards)
        self.stats = ExecutionStats(shard_count=0, occupied_shards=0)
        self._salvaged: Set[int] = set()

    def _spent(self, position: int) -> bool:
        return self.attempts[position] >= self.retry.max_attempts

    def _start(self, position: int) -> tuple:
        """Count one more attempt at ``position``; its work item."""
        attempt = self.attempts[position]
        self.attempts[position] = attempt + 1
        if attempt > 0:
            self.stats.shard_retries += 1
        return position, attempt, self.shards[position]

    def finish(self, position: int, result) -> None:
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
            self.finish(position, result)
            return

    def pool_rounds(self, workers: int, pending: List[int]) -> List[int]:
        """Pool rounds over ``pending`` until every shard is done or the
        serial rung must take over; returns the positions still
        unfinished."""
        round_no = 0
        while pending:
            self._backoff(round_no)
            round_no += 1
            # Sized by the workers setting, not the shard count, so
            # consecutive runs with the same setting reuse it.
            with _shared_pool.lease(workers) as pool:
                if pool is None:
                    break  # no pool can be spawned: straight to serial
                to_serial, failure = self._pool_round(pool, pending)
            if failure is not None:
                raise failure
            pending = [p for p in pending if self.results[p] is None]
            if to_serial:
                break
        return pending

    def _pool_round(self, pool, pending: List[int]) -> tuple:
        """Dispatch ``pending`` to ``pool`` once and harvest; returns
        ``(to_serial, failure)``: whether the rest must go to the serial
        rung, and the exception the run must raise.

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
                        self.stats.parallel = True
                        self.finish(position, future.result())
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
            if self.deadline.expired() and not all(f.done() for f in futures):
                # The budget is spent (however the run is leaving) with
                # shards of it still running: no worker may keep them.
                rebuild = kill_workers = True
            if rebuild:
                self.stats.pool_restarts += 1
                self._salvaged.update(
                    position
                    for position, result in enumerate(self.results)
                    if result is not None
                )
                self.stats.shards_salvaged = len(self._salvaged)
                _shared_pool.recycle(pool, kill_workers=kill_workers)
        return to_serial, failure

    def _hung(self, futures: Dict, outstanding) -> Optional[TimeoutError]:
        """Nothing in the pool completed within the shard timeout: count
        every in-flight shard a victim; the error when a victim has no
        attempt left."""
        failure = None
        for future in outstanding:
            victim = futures[future]
            self.stats.shard_timeouts += 1
            if self._spent(victim):
                failure = TimeoutError(
                    f"shard {victim} timed out on all "
                    f"{self.attempts[victim]} attempts "
                    f"({self.retry.shard_timeout:g} s each)"
                )
        return failure
