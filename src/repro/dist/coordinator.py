"""The lease coordinator: a shard work queue remote workers pull from.

One :class:`CoordinatorServer` listens on a TCP endpoint and schedules
*batches* of shards.  A batch is one shard-loop window's cache misses:
a resident run submits one, a streamed run one per shard row.  Workers
pull **leases** — ``(position, attempt, lease_id)`` — execute the
shard, and commit the serialized result back.  The batch is the top
rung of the recovery ladder (:func:`repro.dist.run.fleet_rung`), and
its scheduling rules are the network mirror of the ladder's local
rungs in :mod:`repro.core.ladder`:

* a worker that stops contacting the coordinator (death, partition) has
  its leases **reclaimed** and re-queued under the batch's
  :class:`~repro.core.ladder.RetryPolicy` attempt budget;
* a lease its holder stops heartbeating (a dropped commit, a silenced
  lease) is reclaimed the same way, even while the worker keeps polling;
* a lease that outlives its deadline (the run's
  :class:`~repro.core.ladder.Deadline` narrowed by
  ``RetryPolicy.shard_timeout``; none when neither bounds it) is
  reclaimed too — the remote analogue of the hung-worker watchdog;
* when the queue runs dry but leases are still in flight, the
  coordinator grants **speculative** duplicate leases for the oldest
  stragglers; the first committed result wins and the loser's commit is
  discarded (results are byte-deterministic, so both carry identical
  bytes — the race has no observable outcome besides wall-clock);
* a position whose remote attempt budget is exhausted is marked
  *spent* and handed back to the ladder, whose pool and serial rungs
  finish it — a run never fails because every worker died.

Commits are accepted **idempotently**: a commit for an uncommitted
position is taken even if its lease was already reclaimed (the bytes
are correct regardless of who computed them), an identical duplicate is
counted and discarded, and a commit whose bytes differ from the
already-committed ones poisons the batch — that can only mean the
determinism contract itself is broken, which must never be papered
over.

:class:`LeaseQueue` is the pure scheduling state machine (every method
takes ``now`` explicitly, so property tests drive it with simulated
time); :class:`CoordinatorServer` wraps it in a threaded TCP server
speaking :mod:`repro.dist.protocol`.
"""

from __future__ import annotations

import socketserver
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.ladder import Deadline, RetryPolicy
from repro.core.recipe import FLAG, number_complaint, require
from repro.core.stats import ExecutionStats
from repro.dist.protocol import ProtocolError, recv_frame, send_frame

#: The fleet's one interval [s]: the coordinator's wait granularity and
#: every worker daemon's retry, after a ``wait`` reply and after a
#: refused connection alike.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class DistPolicy:
    """Scheduling knobs of the distributed layer.

    A lease's hang watchdog is not one of them: it is the run's
    deadline narrowed by ``RetryPolicy.shard_timeout``, as on the pool.

    Attributes:
        heartbeat_interval: how often workers heartbeat while executing
            a lease [s].
        heartbeat_timeout: a lease not heartbeated this long [s] is
            reclaimed; a lease-holding worker silent this long counts
            as dead.
        worker_grace: how long the coordinator waits with work pending
            but no live workers [s] before handing the remainder to the
            ladder's pool and serial rungs.
        speculate: grant end-of-queue duplicate leases for stragglers.
        speculate_after: minimum lease age [s] before it is eligible
            for speculative duplication.
    """

    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.5
    worker_grace: float = 5.0
    speculate: bool = True
    speculate_after: float = 1.0

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.name != "speculate"):
            why = number_complaint(getattr(self, name), positive=False)
            if why:
                raise ValueError(f"{name} {why}, got {getattr(self, name)!r}")
        require(FLAG, "speculate", self.speculate)


@dataclass
class _Lease:
    lease_id: int
    position: int
    attempt: int
    worker: str
    granted_at: float
    deadline: Optional[float]
    last_beat: float
    speculative: bool = False


@dataclass
class _Worker:
    last_contact: float
    silent_flagged: bool = False


@dataclass(frozen=True)
class _QueueState:
    """What the run loop needs to decide its next step."""

    finished: bool
    error: Optional[str]
    live_workers: int
    outstanding: int
    pending: int


class LeaseQueue:
    """The scheduling state machine for one batch of ``n`` shards.

    Thread-safe; every public method takes the current monotonic time
    explicitly so tests replay schedules deterministically.  Positions
    end up either *committed* (result bytes held) or *spent* (remote
    attempt budget exhausted or the batch abandoned) — the caller
    finishes spent positions on the local ladder.

    ``stats`` is an :class:`~repro.core.stats.ExecutionStats` whose
    ``dist`` group the queue increments: all-zero except
    ``dist_workers`` / ``leases_granted`` on a clean run — reclaims,
    deaths, missed heartbeats and duplicates are the network layer's
    "a degraded run can never look like a clean one" witnesses.  It
    counts no shards, so the shard loop merges it whole.
    """

    def __init__(
        self,
        n: int,
        retry: Optional[RetryPolicy] = None,
        policy: Optional[DistPolicy] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"shard count must be >= 0, got {n}")
        self.n = n
        self.retry = retry if retry is not None else RetryPolicy()
        self.policy = policy if policy is not None else DistPolicy()
        self.deadline = deadline if deadline is not None else Deadline()
        self.stats = ExecutionStats(shard_count=0, occupied_shards=0)
        self._lock = threading.Lock()
        self._pending: Deque[Tuple[int, int]] = deque(
            (position, 0) for position in range(n)
        )
        self._leases: Dict[int, _Lease] = {}
        self._committed: Dict[int, bytes] = {}
        self._delivered: Set[int] = set()
        self._attempts_used: List[int] = [0] * n
        self._spent: Set[int] = set()
        self._workers: Dict[str, _Worker] = {}
        self._workers_seen: Set[str] = set()
        self._error: Optional[str] = None
        self._closed = False
        self._lease_seq = 0

    # -- scheduling --------------------------------------------------------

    def _touch_locked(self, worker: str, now: float) -> None:
        state = self._workers.get(worker)
        if state is None:
            self._workers[worker] = _Worker(last_contact=now)
            if worker not in self._workers_seen:
                self._workers_seen.add(worker)
                self.stats.dist_workers = len(self._workers_seen)
        else:
            state.last_contact = now
            state.silent_flagged = False

    def grant(self, worker: str, now: float) -> Optional[_Lease]:
        """Hand ``worker`` a lease, or ``None`` when nothing is grantable.

        Pending work is granted first; with the queue dry and
        speculation on, the oldest sufficiently-aged in-flight position
        without a duplicate (and with attempt budget left) is granted a
        speculative second lease.
        """
        with self._lock:
            self._touch_locked(worker, now)
            if self._error is not None or self._closed:
                return None
            if self._pending:
                position, attempt = self._pending.popleft()
                return self._grant_locked(
                    worker, position, attempt, now, speculative=False
                )
            if not self.policy.speculate:
                return None
            duplicated = {
                lease.position
                for lease in self._leases.values()
                if lease.speculative
            }
            candidates = [
                lease
                for lease in self._leases.values()
                if not lease.speculative
                and lease.position not in duplicated
                and lease.position not in self._committed
                and now - lease.granted_at >= self.policy.speculate_after
                and self._attempts_used[lease.position]
                < self.retry.max_attempts
            ]
            if not candidates:
                return None
            straggler = min(candidates, key=lambda lease: lease.granted_at)
            position = straggler.position
            attempt = self._attempts_used[position]
            return self._grant_locked(
                worker, position, attempt, now, speculative=True
            )

    def _grant_locked(
        self,
        worker: str,
        position: int,
        attempt: int,
        now: float,
        speculative: bool,
    ) -> _Lease:
        self._lease_seq += 1
        lease = _Lease(
            lease_id=self._lease_seq,
            position=position,
            attempt=attempt,
            worker=worker,
            granted_at=now,
            deadline=self.deadline.narrowed(self.retry.shard_timeout, now).at,
            last_beat=now,
            speculative=speculative,
        )
        self._leases[lease.lease_id] = lease
        self._attempts_used[position] = max(
            self._attempts_used[position], attempt + 1
        )
        self.stats.leases_granted += 1
        return lease

    def heartbeat(self, worker: str, lease_id: int, now: float) -> bool:
        """A worker's I-am-alive while executing ``lease_id``; returns
        whether the lease is still considered live (a reclaimed lease's
        worker may as well stop — its commit would be redundant)."""
        with self._lock:
            self._touch_locked(worker, now)
            lease = self._leases.get(lease_id)
            if lease is not None:
                lease.last_beat = now
            return lease is not None

    def _requeue_locked(self, position: int) -> None:
        """Put ``position`` back in line exactly once, or mark it spent.

        Guarded so a position can never be queued twice: nothing to do
        if it is committed, already pending, already spent, or still
        covered by another outstanding lease (the speculative sibling
        *is* the retry in flight).
        """
        if position in self._committed or position in self._spent:
            return
        if any(entry[0] == position for entry in self._pending):
            return
        if any(
            lease.position == position for lease in self._leases.values()
        ):
            return
        next_attempt = self._attempts_used[position]
        if next_attempt >= self.retry.max_attempts:
            self._spent.add(position)
        else:
            self._pending.append((position, next_attempt))

    def commit(
        self,
        lease_id: int,
        worker: str,
        position: int,
        payload: bytes,
        now: float,
    ) -> str:
        """Accept a result; returns ``"accepted"``, ``"duplicate"`` or
        ``"conflict"``.

        Accepted even when the lease was already reclaimed — the bytes
        of a deterministic shard are correct no matter which attempt
        produced them (at-least-once delivery).  Identical re-commits
        are discarded; differing bytes poison the batch.
        """
        with self._lock:
            self._touch_locked(worker, now)
            lease = self._leases.pop(lease_id, None)
            if not 0 <= position < self.n:
                self._poison_locked(
                    f"commit for position {position} outside batch of "
                    f"{self.n} shards"
                )
                return "conflict"
            previous = self._committed.get(position)
            if previous is not None:
                if previous == payload:
                    self.stats.duplicate_commits += 1
                    return "duplicate"
                self._poison_locked(
                    f"conflicting commit for shard {position}: two "
                    "attempts produced different bytes — the determinism "
                    "contract is broken"
                )
                return "conflict"
            self._committed[position] = payload
            self._spent.discard(position)
            self._pending = deque(
                entry for entry in self._pending if entry[0] != position
            )
            if lease is not None and lease.speculative:
                self.stats.speculative_wins += 1
            for other_id, other in list(self._leases.items()):
                if other.position == position:
                    del self._leases[other_id]
                    if other.speculative:
                        self.stats.speculative_losses += 1
            return "accepted"

    def fail(
        self,
        lease_id: int,
        worker: str,
        position: int,
        transient: bool,
        message: str,
        now: float,
    ) -> None:
        """A worker reports its shard raised.

        Transient failures re-enter the queue under the attempt budget;
        deterministic ones poison the batch — retrying a pure function
        cannot change its outcome, so the run must fail fast.
        """
        with self._lock:
            self._touch_locked(worker, now)
            self._leases.pop(lease_id, None)
            if position in self._committed:
                return
            if not transient:
                self._poison_locked(message)
                return
            self._requeue_locked(position)

    def _poison_locked(self, message: str) -> bool:
        if self._error is None:
            self._error = message
        return True

    def scan(self, now: float) -> None:
        """Count silent and dead workers, then reclaim every lease not
        heartbeated for ``heartbeat_timeout`` or past its deadline.

        A dead worker's leases are silent too (a heartbeat is contact),
        so one pass over the leases reclaims them all."""
        with self._lock:
            holders = {lease.worker for lease in self._leases.values()}
            for worker, state in list(self._workers.items()):
                age = now - state.last_contact
                if age > self.policy.heartbeat_timeout:
                    if worker in holders:
                        self.stats.worker_deaths += 1
                    del self._workers[worker]
                elif (
                    worker in holders
                    and age > 2.0 * self.policy.heartbeat_interval
                    and not state.silent_flagged
                ):
                    self.stats.heartbeats_missed += 1
                    state.silent_flagged = True
            for lease_id, lease in list(self._leases.items()):
                if now - lease.last_beat > self.policy.heartbeat_timeout or (
                    lease.deadline is not None and lease.deadline < now
                ):
                    del self._leases[lease_id]
                    self.stats.leases_reclaimed += 1
                    self._requeue_locked(lease.position)

    def abandon_remaining(self) -> None:
        """Mark every unfinished position spent and stop granting.

        The no-live-workers escape hatch: the caller's local ladder
        finishes spent positions, so the run completes even when the
        whole fleet is gone.  Late commits for spent positions are
        still accepted (identical bytes either way)."""
        with self._lock:
            self._closed = True
            for position, _ in self._pending:
                if position not in self._committed:
                    self._spent.add(position)
            self._pending.clear()
            for lease in self._leases.values():
                if lease.position not in self._committed:
                    self._spent.add(lease.position)
            self._leases.clear()

    # -- observation -------------------------------------------------------

    def take_new_commits(self) -> List[Tuple[int, bytes]]:
        """Committed payloads not yet handed to the caller, by position."""
        with self._lock:
            fresh = sorted(
                position
                for position in self._committed
                if position not in self._delivered
            )
            self._delivered.update(fresh)
            return [
                (position, self._committed[position]) for position in fresh
            ]

    def state(self, now: float) -> _QueueState:
        with self._lock:
            finished = self._error is not None or (
                not self._pending
                and not self._leases
                and all(
                    position in self._committed or position in self._spent
                    for position in range(self.n)
                )
            )
            live = sum(
                1
                for state in self._workers.values()
                if now - state.last_contact <= self.policy.heartbeat_timeout
            )
            return _QueueState(
                finished=finished,
                error=self._error,
                live_workers=live,
                outstanding=len(self._leases),
                pending=len(self._pending),
            )

    @property
    def error(self) -> Optional[str]:
        with self._lock:
            return self._error


@dataclass
class _Batch:
    """One batch — a shard-loop window's cache misses — as the server
    schedules it."""

    id: str
    seq: int
    queue: LeaseQueue
    config_blob: bytes
    shard_blobs: List[bytes]
    progress: threading.Event = field(default_factory=threading.Event)


class _CoordinatorHandler(socketserver.BaseRequestHandler):
    """One request frame, one reply frame, close."""

    server: "CoordinatorServer"

    def handle(self) -> None:
        try:
            header, payload = recv_frame(self.request)
            reply, reply_payload = self.server.dispatch(header, payload)
            send_frame(self.request, reply, reply_payload)
        except (OSError, ProtocolError):
            # A dropped/garbled connection is the *worker's* problem to
            # retry; the coordinator's state machine is only advanced by
            # complete frames.
            pass


class CoordinatorServer(socketserver.ThreadingTCPServer):
    """TCP front of the lease queue(s); one server may schedule several
    concurrent batches (a job server running distributed jobs)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__(address, _CoordinatorHandler)
        self._lock = threading.Lock()
        self._batches: Dict[str, _Batch] = {}
        self._batch_seq = 0
        # Batch ids are namespaced by a per-server nonce: a worker
        # daemon outliving this coordinator must never mistake a
        # successor's batch for one it already fetched the config of
        # (sequential ids restart at 1 in every server process).
        self._batch_nonce = uuid.uuid4().hex[:12]
        self._thread: Optional[threading.Thread] = None

    # -- batch lifecycle ---------------------------------------------------

    def submit_batch(
        self,
        shard_blobs: List[bytes],
        config_blob: bytes,
        retry: Optional[RetryPolicy] = None,
        policy: Optional[DistPolicy] = None,
        deadline: Optional[Deadline] = None,
    ) -> _Batch:
        """Register a batch of shards for workers to pull."""
        with self._lock:
            self._batch_seq += 1
            batch = _Batch(
                id=f"{self._batch_nonce}-{self._batch_seq}",
                seq=self._batch_seq,
                queue=LeaseQueue(
                    len(shard_blobs), retry=retry, policy=policy, deadline=deadline
                ),
                config_blob=config_blob,
                shard_blobs=shard_blobs,
            )
            self._batches[batch.id] = batch
            return batch

    def finish_batch(self, batch_id: str) -> None:
        with self._lock:
            self._batches.pop(batch_id, None)

    def _batch(self, batch_id) -> Optional[_Batch]:
        """The live batch ``batch_id`` names; ``None`` for an unknown
        id, and for an id that is not a string (no batch has one)."""
        if not isinstance(batch_id, str):
            return None
        with self._lock:
            return self._batches.get(batch_id)

    def _batches_in_order(self) -> List[_Batch]:
        with self._lock:
            return sorted(self._batches.values(), key=lambda b: b.seq)

    # -- protocol dispatch -------------------------------------------------

    def dispatch(self, header: dict, payload: bytes) -> Tuple[dict, bytes]:
        """Route one request frame; returns the reply frame."""
        kind = header.get("type")
        now = time.monotonic()
        if kind == "ping":
            return {"type": "pong"}, b""
        if kind == "lease":
            return self._handle_lease(header, now)
        # The queue pops a lease before it looks at the position: a
        # malformed id would drop the lease and orphan its shard.
        ids = ("lease",) if kind == "heartbeat" else ("lease", "position")
        if kind in ("heartbeat", "commit", "fail") and any(
            type(header.get(key)) is not int for key in ids
        ):
            return {"type": "error", "message": f"{kind} needs integer {ids}"}, b""
        if kind == "config":
            batch = self._batch(header.get("batch"))
            if batch is None:
                return {"type": "gone"}, b""
            return {"type": "config"}, batch.config_blob
        if kind == "heartbeat":
            batch = self._batch(header.get("batch"))
            alive = False
            if batch is not None:
                alive = batch.queue.heartbeat(
                    str(header.get("worker")), header["lease"], now
                )
            return {"type": "ok", "live": alive}, b""
        if kind == "commit":
            batch = self._batch(header.get("batch"))
            if batch is None:
                return {"type": "gone"}, b""
            outcome = batch.queue.commit(
                header["lease"],
                str(header.get("worker")),
                header["position"],
                payload,
                now,
            )
            batch.progress.set()
            return {"type": "ok", "outcome": outcome}, b""
        if kind == "fail":
            batch = self._batch(header.get("batch"))
            if batch is not None:
                batch.queue.fail(
                    header["lease"],
                    str(header.get("worker")),
                    header["position"],
                    bool(header.get("transient")),
                    str(header.get("error", "worker reported a failure")),
                    now,
                )
                batch.progress.set()
            return {"type": "ok"}, b""
        return {
            "type": "error",
            "message": f"unknown message type {kind!r}",
        }, b""

    def _handle_lease(self, header: dict, now: float) -> Tuple[dict, bytes]:
        worker = str(header.get("worker"))
        for batch in self._batches_in_order():
            batch.queue.scan(now)
            lease = batch.queue.grant(worker, now)
            if lease is None:
                continue
            batch.progress.set()
            return (
                {
                    "type": "task",
                    "batch": batch.id,
                    "lease": lease.lease_id,
                    "position": lease.position,
                    "attempt": lease.attempt,
                    "heartbeat": batch.queue.policy.heartbeat_interval,
                    "speculative": lease.speculative,
                },
                batch.shard_blobs[lease.position],
            )
        return {"type": "wait"}, b""

    # -- serving -----------------------------------------------------------

    def start(self) -> None:
        """Serve in a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self.serve_forever,
                kwargs={"poll_interval": POLL_INTERVAL},
                daemon=True,
                name="repro-dist-coordinator",
            )
            self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# One coordinator per requested endpoint, shared process-wide — the
# same pattern as the executor's shared process pool: a job server
# running several distributed jobs multiplexes them as concurrent
# batches on one listener instead of fighting over the port.
_registry_lock = threading.Lock()
_servers: Dict[str, CoordinatorServer] = {}


def coordinator_for(endpoint: str) -> CoordinatorServer:
    """Get or create the serving coordinator bound to ``endpoint``
    (``"host:port"``; port 0 binds an ephemeral port — read the real
    one off ``server.server_address``)."""
    from repro.dist.protocol import parse_endpoint

    address = parse_endpoint(endpoint)
    with _registry_lock:
        server = _servers.get(endpoint)
        if server is None:
            server = CoordinatorServer(address)
            server.start()
            _servers[endpoint] = server
            # A ":0" request bound an ephemeral port; register the
            # resolved address too so pipelines handed the real
            # endpoint find this server instead of re-binding the port.
            host, port = server.server_address[:2]
            _servers.setdefault(f"{host}:{port}", server)
        return server


def shutdown_coordinators() -> None:
    """Stop every registry coordinator (tests, benchmarks, atexit)."""
    with _registry_lock:
        servers = list(_servers.values())
        _servers.clear()
    for server in servers:
        server.stop()
