"""The distributed execution layer: protocol, lease queue, fleet runs.

Three levels, cheapest first:

* wire-protocol framing (socketpairs, no server);
* the :class:`~repro.dist.coordinator.LeaseQueue` state machine driven
  with simulated clocks — including hypothesis properties over random
  grant/commit/reclaim schedules;
* full pipeline runs against in-process worker threads under every
  injected network fault, each held to the reference run of the
  conformance-matrix column it runs on (that a clean fleet run equals
  it — in every other mode too — is the matrix's ``dispatch`` axis).
"""

from __future__ import annotations

import contextlib
import json
import pickle
import socket
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import conformance
from chaos import faulted
from repro.core.executor import (
    Deadline,
    RetryPolicy,
    _process_shard,
    shutdown_worker_pool,
)
from repro.core.faults import FaultPlan
from repro.core.jobfile import (
    dumps_job,
    dumps_shard,
    dumps_shard_result,
    loads_shard,
)
from repro.core.pipeline import PreparationPipeline
from repro.core.plan import Shard
from repro.core.stats import ExecutionStats
from repro.dist import (
    CoordinatorServer,
    DistPolicy,
    LeaseQueue,
    ProtocolError,
    WorkerDaemon,
    coordinator_for,
    parse_endpoint,
    shutdown_coordinators,
)
from repro.dist.coordinator import POLL_INTERVAL
from repro.dist.protocol import (
    _FRAME,
    MAX_PART,
    recv_frame,
    request,
    send_frame,
)
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon

#: Sixteen one-square shards: every scenario's fault position exists.
COLUMN = conformance.COLUMNS["checkerboard-sparse"]
FAST_RETRY = RetryPolicy(max_attempts=4, backoff_base=0.0)
FAST_POLICY = DistPolicy(
    heartbeat_interval=0.1,
    heartbeat_timeout=0.5,
    worker_grace=2.0,
    speculate_after=0.3,
)


@pytest.fixture(autouse=True)
def clean_slate():
    shutdown_worker_pool()
    yield
    shutdown_coordinators()
    shutdown_worker_pool()


@pytest.fixture
def endpoint():
    server = coordinator_for("127.0.0.1:0")
    host, port = server.server_address[:2]
    return f"{host}:{port}"


@pytest.fixture
def fleet(endpoint):
    workers = []
    threads = []

    def spawn(n=2, **kwargs):
        spawned = []
        for _ in range(n):
            daemon = WorkerDaemon(
                endpoint, worker_id=f"w{len(workers)}", **kwargs
            )
            workers.append(daemon)
            spawned.append(daemon)
            thread = threading.Thread(target=daemon.run, daemon=True)
            thread.start()
            threads.append(thread)
        return spawned

    yield spawn
    for daemon in workers:
        daemon.stop()
    for thread in threads:
        thread.join(timeout=5.0)


def leased(endpoint, faults=None, policy=FAST_POLICY, cache_dir=None):
    """``COLUMN`` on the fleet at ``endpoint``, under a network-fault
    plan and a lease policy the matrix has no axis values for."""
    return faulted(
        COLUMN,
        faults,
        FAST_RETRY,
        policy=policy,
        cache_dir=cache_dir,
        dispatch="distributed",
        workers_endpoint=endpoint,
    )


def reference_job():
    return conformance.reference(COLUMN).ebj


class StubCoordinator:
    """A coordinator whose batch is decided at submission: every
    position ``commits(position)`` admits is computed and committed at
    once, the rest are spent for the local ladder."""

    def __init__(self, commits):
        self.commits = commits

    def submit_batch(self, shard_blobs, config_blob, **kwargs):
        config, _ = pickle.loads(config_blob)
        queue = LeaseQueue(len(shard_blobs), kwargs["retry"], kwargs["policy"])
        for position, blob in enumerate(shard_blobs):
            if self.commits(position):
                result = _process_shard(loads_shard(blob), *config)
                payload = dumps_shard_result(result)
                queue.commit(0, "stub", position, payload, time.monotonic())
        queue.abandon_remaining()
        return SimpleNamespace(id="stub", queue=queue, progress=threading.Event())

    def finish_batch(self, batch_id):
        pass


class RecordingStop:
    """A daemon's ``stop_event`` that records each ``wait(timeout)``
    without sleeping and is set after ``waits`` of them."""

    def __init__(self, waits):
        self.waits = waits
        self.timeouts = []

    def is_set(self):
        return len(self.timeouts) >= self.waits

    def wait(self, timeout):
        self.timeouts.append(timeout)
        return self.is_set()


@contextlib.contextmanager
def stand_in_coordinator(reply, connections=None):
    """Yield ``(endpoint, served)``: a listener that answers every
    request with the header ``reply`` and appends the request's header
    to ``served``, closing after ``connections`` requests (``None``:
    when the block exits).  ``reply=None`` yields a closed port, which
    refuses every connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    served = []
    if reply is None:
        listener.close()
        yield f"{host}:{port}", served
        return
    done = threading.Event()

    def serve():
        with listener:
            listener.settimeout(0.05)
            while not done.is_set() and len(served) != connections:
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    conn.settimeout(5.0)
                    header, _ = recv_frame(conn)
                    send_frame(conn, reply)
                    served.append(header)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"{host}:{port}", served
    finally:
        done.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert parse_endpoint("node-3.rack:0") == ("node-3.rack", 0)

    @pytest.mark.parametrize(
        "bad", ["", "nocolon", ":8765", "host:", "host:http", "host:70000"]
    )
    def test_parse_endpoint_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)

    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "commit", "lease": 7}, b"payload")
            header, payload = recv_frame(right)
            assert header == {"type": "commit", "lease": 7}
            assert payload == b"payload"
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_protocol_error(self):
        left, right = socket.socketpair()
        try:
            head = json.dumps({"type": "commit"}).encode()
            # Declare a 10-byte payload but deliver only 3, then close.
            left.sendall(_FRAME.pack(len(head), 10) + head + b"abc")
            left.close()
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            right.close()

    def test_protocol_error_is_transient_to_retry_policy(self):
        # Garbled conversations must be retried like dropped ones.
        assert isinstance(ProtocolError("half a frame"), OSError)
        assert RetryPolicy().is_transient(ProtocolError("half a frame"))

    def test_oversized_frame_part_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(_FRAME.pack(MAX_PART + 1, 0))
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_header_rejected(self):
        left, right = socket.socketpair()
        try:
            head = b"[1, 2]"
            left.sendall(_FRAME.pack(len(head), 0) + head)
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_server_answers_ping(self, endpoint):
        reply, payload = request(parse_endpoint(endpoint), {"type": "ping"})
        assert reply == {"type": "pong"}
        assert payload == b""

    def test_server_rejects_unknown_type(self, endpoint):
        reply, _ = request(parse_endpoint(endpoint), {"type": "gossip"})
        assert reply["type"] == "error"
        assert "gossip" in reply["message"]

    def test_an_idle_worker_is_told_to_wait_one_poll(self, endpoint):
        # No batch to lease from: the reply names no interval, the
        # daemon waits the fleet's own.
        reply, payload = request(
            parse_endpoint(endpoint), {"type": "lease", "worker": "idle"}
        )
        assert reply == {"type": "wait"}
        assert payload == b""

    @pytest.mark.parametrize(
        "reply", [None, {"type": "wait"}, {"type": "wait", "hint": 1e9}]
    )
    def test_a_daemon_without_a_lease_waits_one_poll(self, reply):
        # Refused (no coordinator yet) or told to wait, a daemon asks
        # again after POLL_INTERVAL, whatever a reply's hint says.
        stop = RecordingStop(waits=3)
        with stand_in_coordinator(reply) as (endpoint, _):
            daemon = WorkerDaemon(endpoint, stop_event=stop)
            assert daemon.run() == 0
        assert stop.timeouts == [POLL_INTERVAL] * 3

    def test_a_malformed_wait_reply_does_not_kill_the_daemon(self):
        with stand_in_coordinator(
            {"type": "wait", "hint": "soon"}, connections=1
        ) as (endpoint, served):
            daemon = WorkerDaemon(endpoint, idle_exit=0.2)
            assert daemon.run() == 0
        assert [header["type"] for header in served] == ["lease"]


class TestDistPolicy:
    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            DistPolicy(heartbeat_timeout=-0.1)

    def test_defaults_are_valid(self):
        policy = DistPolicy()
        assert policy.heartbeat_timeout > policy.heartbeat_interval > 0
        assert policy.speculate

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="speculate"):
            DistPolicy(speculate="yes")
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            DistPolicy(heartbeat_timeout=-2)


# ---------------------------------------------------------------------------
# LeaseQueue state machine (simulated clock)
# ---------------------------------------------------------------------------


class TestLeaseQueue:
    def make(self, n=4, max_attempts=3, shard_timeout=10.0, **policy_kwargs):
        policy = DistPolicy(
            heartbeat_interval=1.0,
            heartbeat_timeout=5.0,
            speculate_after=2.0,
            **policy_kwargs,
        )
        retry = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base=0.0,
            shard_timeout=shard_timeout,
        )
        return LeaseQueue(n, retry=retry, policy=policy)

    def test_grants_positions_in_order_with_deadlines(self):
        queue = self.make(n=3)
        leases = [queue.grant("w0", now=0.0) for _ in range(3)]
        assert [lease.position for lease in leases] == [0, 1, 2]
        assert all(lease.attempt == 0 for lease in leases)
        assert all(lease.deadline == 10.0 for lease in leases)
        assert queue.grant("w0", now=0.0) is None  # dry, too young to spec
        assert queue.stats.leases_granted == 3

    def test_counters_are_an_execution_record_dist_group(self):
        queue = self.make(n=2)
        a = queue.grant("w0", now=0.0)
        b = queue.grant("w1", now=0.0)
        queue.commit(a.lease_id, "w0", a.position, b"ra", now=1.0)
        queue.commit(b.lease_id, "w1", b.position, b"rb", now=1.0)
        stats = queue.stats
        assert isinstance(stats, ExecutionStats)
        # A clean batch moves its workers and grants, nothing else; the
        # record counts no shards, so the shard loop can merge it whole.
        fresh = ExecutionStats(shard_count=0, occupied_shards=0)
        moved = {
            name: value
            for name, value in vars(stats).items()
            if value != getattr(fresh, name)
        }
        assert moved == {"dist_workers": 2, "leases_granted": 2}
        assert set(moved) <= set(stats.select("group", "dist"))
        assert stats.fault_events == 0

    def test_commit_finishes_the_batch(self):
        queue = self.make(n=2)
        a = queue.grant("w0", now=0.0)
        b = queue.grant("w1", now=0.0)
        queue.commit(a.lease_id, "w0", a.position, b"ra", now=1.0)
        queue.commit(b.lease_id, "w1", b.position, b"rb", now=1.0)
        state = queue.state(now=1.0)
        assert state.finished and state.error is None
        assert queue.take_new_commits() == [(0, b"ra"), (1, b"rb")]
        assert queue.take_new_commits() == []  # delivered exactly once

    def test_duplicate_identical_commit_discarded_and_counted(self):
        queue = self.make(n=1)
        lease = queue.grant("w0", now=0.0)
        assert queue.commit(lease.lease_id, "w0", 0, b"r", now=1.0) == (
            "accepted"
        )
        assert queue.commit(lease.lease_id, "w0", 0, b"r", now=1.1) == (
            "duplicate"
        )
        assert queue.stats.duplicate_commits == 1
        assert queue.error is None

    def test_conflicting_commit_poisons_the_batch(self):
        queue = self.make(n=1)
        lease = queue.grant("w0", now=0.0)
        queue.commit(lease.lease_id, "w0", 0, b"r", now=1.0)
        outcome = queue.commit(999, "w1", 0, b"DIFFERENT", now=1.1)
        assert outcome == "conflict"
        assert "determinism" in queue.error

    def test_out_of_range_commit_poisons(self):
        queue = self.make(n=2)
        queue.grant("w0", now=0.0)
        assert queue.commit(1, "w0", 7, b"r", now=0.5) == "conflict"
        assert "outside batch" in queue.error

    def test_commit_after_reclaim_still_accepted(self):
        # At-least-once delivery: the reclaimed lease's bytes are just
        # as correct as the retry's.
        queue = self.make(n=1)
        lease = queue.grant("w0", now=0.0)
        queue.scan(now=11.0)  # silent and past its deadline → reclaimed
        assert queue.stats.leases_reclaimed == 1
        assert queue.commit(lease.lease_id, "w0", 0, b"r", now=11.5) == (
            "accepted"
        )
        # The requeued retry is cancelled by the commit.
        assert queue.grant("w9", now=11.6) is None
        assert queue.state(now=11.6).finished

    def test_expired_lease_requeues_exactly_once(self):
        queue = self.make(n=1)
        queue.grant("w0", now=0.0)
        queue.scan(now=11.0)
        queue.scan(now=11.0)  # a second scan must not double-queue
        retry = queue.grant("w1", now=11.0)
        assert (retry.position, retry.attempt) == (0, 1)
        assert queue.grant("w2", now=11.0) is None
        assert queue.stats.leases_reclaimed == 1

    def test_attempt_budget_exhaustion_marks_spent(self):
        queue = self.make(n=1, max_attempts=2)
        queue.grant("w0", now=0.0)
        queue.scan(now=11.0)
        queue.grant("w0", now=11.0)
        queue.scan(now=22.0)
        assert queue.grant("w0", now=22.0) is None
        assert queue.state(now=22.0).finished
        assert queue.take_new_commits() == []  # position 0 goes local

    def test_transient_failure_requeues_permanent_poisons(self):
        queue = self.make(n=2)
        a = queue.grant("w0", now=0.0)
        queue.grant("w1", now=0.0)
        queue.fail(a.lease_id, "w0", a.position, True, "flaky", now=0.5)
        retry = queue.grant("w0", now=0.6)
        assert (retry.position, retry.attempt) == (0, 1)
        queue.fail(retry.lease_id, "w0", 0, False, "deterministic", now=0.7)
        assert queue.error == "deterministic"

    def test_dead_worker_reclaims_all_its_leases(self):
        queue = self.make(n=3)
        queue.grant("dying", now=0.0)
        queue.grant("dying", now=0.0)
        kept = queue.grant("healthy", now=0.0)
        assert queue.heartbeat("healthy", kept.lease_id, now=6.0)
        queue.scan(now=6.0)  # "dying" silent past heartbeat_timeout
        assert queue.stats.worker_deaths == 1
        assert queue.stats.leases_reclaimed == 2
        positions = {
            queue.grant("healthy", now=6.0).position for _ in range(2)
        }
        assert positions == {0, 1}

    def test_missed_heartbeat_flagged_once_per_silence(self):
        queue = self.make(n=1)
        lease = queue.grant("w0", now=0.0)
        queue.scan(now=3.0)  # silent > 2×interval, < timeout
        queue.scan(now=3.5)
        assert queue.stats.heartbeats_missed == 1
        assert queue.heartbeat("w0", lease.lease_id, now=4.0)  # contact clears the flag
        queue.scan(now=7.0)
        assert queue.stats.heartbeats_missed == 2

    def test_silent_lease_of_a_polling_worker_is_reclaimed_once(self):
        # A dropped commit: the worker lives on and keeps polling, but
        # the lease it walked away from is never heartbeated again.  No
        # shard_timeout: silence is the only rule that can reclaim it.
        queue = self.make(n=1, max_attempts=2, shard_timeout=None, speculate=False)
        lease = queue.grant("w0", now=0.0)
        assert lease.deadline is None
        for now in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert queue.grant("w0", now=now) is None  # alive, queue dry
            queue.scan(now=now)
        assert queue.stats.leases_reclaimed == 0  # silent, not yet > 5 s
        queue.grant("w0", now=5.5)
        queue.scan(now=5.5)
        queue.scan(now=5.6)
        assert queue.stats.leases_reclaimed == 1
        assert queue.stats.worker_deaths == 0  # the worker never went quiet
        assert not queue.heartbeat("w0", lease.lease_id, now=5.7)
        retry = queue.grant("w0", now=5.7)
        assert (retry.position, retry.attempt) == (0, 1)
        # The retry falls silent too: the attempt budget is spent and
        # the local ladder gets the position.
        assert queue.grant("w0", now=11.0) is None  # still polling
        queue.scan(now=11.0)
        assert queue.stats.leases_reclaimed == 2
        assert queue.grant("w0", now=11.0) is None
        assert queue.state(now=11.0).finished
        assert queue.take_new_commits() == []  # position 0 goes local

    def test_heartbeated_lease_has_no_watchdog_without_a_budget(self):
        # No shard_timeout and no job deadline: a lease its worker keeps
        # heartbeating is never reclaimed, however long it runs.
        queue = self.make(n=1, shard_timeout=None, speculate=False)
        lease = queue.grant("w0", now=0.0)
        for now in range(1, 101):
            assert queue.heartbeat("w0", lease.lease_id, now=float(now))
            queue.scan(now=float(now))
        assert queue.stats.leases_reclaimed == 0

    def test_lease_watchdog_is_the_run_deadline_narrowed(self):
        now = time.monotonic()
        retry = RetryPolicy(shard_timeout=10.0)
        job = Deadline(3.0)
        queue = LeaseQueue(2, retry=retry, deadline=job)
        assert queue.grant("w0", now=now).deadline == job.at  # job first
        queue = LeaseQueue(2, retry=retry, deadline=Deadline(60.0))
        assert queue.grant("w0", now=now).deadline == now + 10.0

    def test_heartbeat_reports_reclaimed_lease_dead(self):
        queue = self.make(n=1)
        lease = queue.grant("w0", now=0.0)
        assert queue.heartbeat("w0", lease.lease_id, now=1.0)
        queue.scan(now=12.0)
        assert not queue.heartbeat("w0", lease.lease_id, now=12.1)

    def test_speculation_duplicates_the_oldest_straggler(self):
        queue = self.make(n=2)
        slow = queue.grant("w0", now=0.0)
        queue.grant("w1", now=1.0)
        # Queue dry; w2 asks before the straggler is old enough.
        assert queue.grant("w2", now=1.5) is None
        spec = queue.grant("w2", now=2.5)
        assert spec is not None and spec.speculative
        assert spec.position == slow.position
        # Only one duplicate per position (and position 1 is too young).
        assert queue.grant("w3", now=2.6) is None

    def test_speculative_win_and_loss_accounting(self):
        queue = self.make(n=1)
        queue.grant("slow", now=0.0)
        spec = queue.grant("fast", now=3.0)
        queue.commit(spec.lease_id, "fast", 0, b"r", now=3.5)
        assert queue.stats.speculative_wins == 1
        assert queue.stats.speculative_losses == 0

        queue = self.make(n=1)
        slow = queue.grant("slow", now=0.0)
        queue.grant("fast", now=3.0)
        queue.commit(slow.lease_id, "slow", 0, b"r", now=3.5)
        assert queue.stats.speculative_wins == 0
        assert queue.stats.speculative_losses == 1

    def test_speculation_can_be_disabled(self):
        queue = self.make(n=1, speculate=False)
        queue.grant("w0", now=0.0)
        assert queue.grant("w1", now=100.0) is None

    def test_abandon_remaining_spends_everything_unfinished(self):
        queue = self.make(n=3)
        lease = queue.grant("w0", now=0.0)
        queue.commit(lease.lease_id, "w0", lease.position, b"r", now=0.5)
        queue.abandon_remaining()
        assert queue.state(now=1.0).finished
        # Positions 1 and 2 go to the local ladder.
        assert [position for position, _ in queue.take_new_commits()] == [0]
        assert queue.grant("w1", now=1.0) is None

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            LeaseQueue(-1)


# ---------------------------------------------------------------------------
# Property tests: arbitrary schedules against the state machine
# ---------------------------------------------------------------------------


def payload_for(position: int) -> bytes:
    """The deterministic 'result bytes' of a simulated shard."""
    return b"result-%d" % position


class LeaseQueueMachine(RuleBasedStateMachine):
    """Any interleaving of grants, heartbeats, contacts, honest, duplicate
    and late commits, transient and permanent failures, clock jumps,
    scans and an abandon keeps the queue's promises: a position is
    delivered at most once, a committed position is never pending or
    leased again, attempt budgets hold, honest commits never poison the
    batch, and a finished batch has every position delivered exactly
    once or spent."""

    # Small on purpose — two attempts, three shards, three workers — so
    # budgets run out and leases collide within a few steps.
    RETRY = RetryPolicy(max_attempts=2, backoff_base=0.0, shard_timeout=10.0)
    POLICY = DistPolicy(
        heartbeat_interval=1.0,
        heartbeat_timeout=5.0,
        speculate_after=2.0,
    )
    workers = st.sampled_from(["w0", "w1", "w2"])

    @initialize(n=st.integers(min_value=1, max_value=3))
    def batch(self, n):
        self.queue = LeaseQueue(n, retry=self.RETRY, policy=self.POLICY)
        self.clock = 0.0
        self.held = []  # leases some worker still believes it holds
        self.committed = []  # leases whose honest commit was sent
        self.delivered = {}
        self.poisoned = False  # a permanent failure was reported
        self.steps = 0

    def _take(self, data):
        return self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))

    @rule(worker=workers)
    def grant(self, worker):
        with self.queue._lock:
            leased = {lease.position for lease in self.queue._leases.values()}
            done = set(self.queue._committed)
        lease = self.queue.grant(worker, now=self.clock)
        if lease is None:
            return
        assert not self.poisoned and lease.position not in done
        assert lease.attempt < self.RETRY.max_attempts
        # Twice in flight only as a speculative duplicate of a straggler.
        assert lease.speculative == (lease.position in leased)
        self.held.append(lease)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def heartbeat(self, data):
        lease = data.draw(st.sampled_from(self.held))
        live = self.queue.heartbeat(lease.worker, lease.lease_id, now=self.clock)
        with self.queue._lock:
            assert live == (lease.lease_id in self.queue._leases)

    def _reclaimed(self):
        with self.queue._lock:
            return [x for x in self.held if x.lease_id not in self.queue._leases]

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def commit(self, data):
        self._commit(self._take(data))

    @precondition(lambda self: self._reclaimed())
    @rule(data=st.data())
    def commit_after_reclaim(self, data):
        # At-least-once delivery: the lease is gone, the bytes arrive.
        lease = data.draw(st.sampled_from(self._reclaimed()))
        self.held.remove(lease)
        self._commit(lease)

    def _commit(self, lease):
        outcome = self.queue.commit(
            lease.lease_id,
            lease.worker,
            lease.position,
            payload_for(lease.position),
            now=self.clock,
        )
        first = lease.position not in {done.position for done in self.committed}
        assert outcome == ("accepted" if first else "duplicate")
        self.committed.append(lease)

    @precondition(lambda self: self.committed)
    @rule(data=st.data())
    def commit_again(self, data):
        lease = data.draw(st.sampled_from(self.committed))
        before = self.queue.stats.duplicate_commits
        outcome = self.queue.commit(
            lease.lease_id,
            lease.worker,
            lease.position,
            payload_for(lease.position),
            now=self.clock,
        )
        assert outcome == "duplicate"
        assert self.queue.stats.duplicate_commits == before + 1

    # The two rules that end a batch wait until it has had a life.
    ENDGAME = 15

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def fail_transiently(self, data):
        self._fail(self._take(data), transient=True)

    @precondition(lambda self: self.held and self.steps >= self.ENDGAME)
    @rule(data=st.data())
    def fail_permanently(self, data):
        self._fail(self._take(data), transient=False)

    def _fail(self, lease, transient):
        with self.queue._lock:
            moot = lease.position in self.queue._committed
        self.queue.fail(
            lease.lease_id,
            lease.worker,
            lease.position,
            transient,
            "the shard raised",
            now=self.clock,
        )
        self.poisoned |= not transient and not moot

    @rule(seconds=st.sampled_from([3.0, 6.0, 11.0]), scans=st.integers(0, 2))
    def advance(self, seconds, scans):
        # Past speculate_after, heartbeat_timeout (a lease nobody
        # heartbeats) and the shard timeout (one heartbeated throughout)
        # in turn; the run loop scans on every wake, sometimes twice.
        self.clock += seconds
        for _ in range(scans):
            self.queue.scan(now=self.clock)

    @rule()
    def scan(self):
        self.queue.scan(now=self.clock)

    @precondition(lambda self: self.steps >= self.ENDGAME)
    @rule()
    def abandon_remaining(self):
        self.queue.abandon_remaining()

    def _deliver(self):
        for position, payload in self.queue.take_new_commits():
            assert position not in self.delivered
            assert payload == payload_for(position)
            self.delivered[position] = payload

    @invariant()
    def promises_hold(self):
        self.steps += 1
        assert (self.queue.error is not None) == self.poisoned
        with self.queue._lock:
            pending = [position for position, _ in self.queue._pending]
            leased = {lease.position for lease in self.queue._leases.values()}
            assert len(pending) == len(set(pending))
            for position in self.queue._committed:
                assert position not in pending and position not in leased
            for position in pending:
                assert position not in self.queue._spent
            assert max(self.queue._attempts_used) <= self.RETRY.max_attempts
        self._deliver()

    def teardown(self):
        # One diligent worker finishes whatever an open batch has left.
        n = self.queue.n
        for _ in range(10 * n * (self.RETRY.max_attempts + 1)):
            if self.queue.state(self.clock).finished:
                break
            lease = self.queue.grant("closer", now=self.clock)
            if lease is None:
                self.clock += 11.0  # silence what walked-away workers hold
                self.queue.scan(now=self.clock)
                continue
            self.queue.commit(
                lease.lease_id,
                "closer",
                lease.position,
                payload_for(lease.position),
                now=self.clock,
            )
        self._deliver()
        state = self.queue.state(self.clock)
        assert state.finished and (state.error is not None) == self.poisoned
        if not self.poisoned:
            # Every position carries its honest bytes or went to the
            # local ladder — never both, never neither.
            with self.queue._lock:
                spent = self.queue._spent - self.queue._committed.keys()
            assert spent.isdisjoint(self.delivered)
            assert spent | set(self.delivered) == set(range(n))


TestLeaseQueueMachine = LeaseQueueMachine.TestCase
TestLeaseQueueMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


@settings(max_examples=60, deadline=None)
@given(
    wrong=st.integers(min_value=0, max_value=4),
    n=st.integers(min_value=1, max_value=5),
)
def test_lease_queue_detects_any_nondeterministic_commit(wrong, n):
    """Committing different bytes for an already-committed position
    always poisons the batch, whatever the position."""
    wrong %= n
    queue = LeaseQueue(n, retry=RetryPolicy(backoff_base=0.0))
    leases = [queue.grant("w0", now=0.0) for _ in range(n)]
    for lease in leases:
        queue.commit(
            lease.lease_id,
            "w0",
            lease.position,
            payload_for(lease.position),
            now=1.0,
        )
    assert queue.error is None
    assert (
        queue.commit(0, "evil", wrong, b"different-bytes", now=2.0)
        == "conflict"
    )
    assert "determinism" in queue.error


# ---------------------------------------------------------------------------
# Fleet integration: in-process worker threads against a real server
# ---------------------------------------------------------------------------


class TestDistributedRuns:
    def test_pitch_range_rule_holds_for_a_fleet(self, endpoint, fleet):
        """The distributed leg of tests/test_shard_plan.py::TestPitchRange:
        the last int32 column crosses the wire, one past it is the same
        ValueError the local modes raise."""
        from repro.geometry.polygon import Polygon

        pitch = 2.0**-20

        def layout(last_col):
            return [
                Polygon.rectangle(x0, 0.0, x0 + 0.25, 0.25)
                for x0 in (0.0, (last_col + 0.5) * pitch - 0.125)
            ]

        def pipeline(**kwargs):
            return PreparationPipeline(field_size=pitch, **kwargs)

        distributed = dict(
            dispatch="distributed",
            workers_endpoint=endpoint,
            dist_policy=FAST_POLICY,
            retry=FAST_RETRY,
        )
        fleet(2)
        inside = layout(2**31 - 1)
        result = pipeline(**distributed).run(inside)
        assert result.execution.dist_local_fallbacks == 0
        assert dumps_job(result.job) == dumps_job(
            pipeline().run(inside).job
        )
        with pytest.raises(ValueError, match="cannot tile") as local:
            pipeline().run(layout(2**31))
        with pytest.raises(ValueError, match="cannot tile") as remote:
            pipeline(**distributed).run(layout(2**31))
        assert str(remote.value) == str(local.value)

    def test_no_workers_falls_back_to_local_ladder(self, endpoint):
        policy = DistPolicy(worker_grace=0.3)
        result = leased(endpoint, policy=policy)
        assert dumps_job(result.job) == reference_job()
        stats = result.execution
        assert stats.dist_local_fallbacks == stats.shard_count
        assert stats.dist_workers == 0

    def test_fleet_leftovers_keep_their_fault_positions(self, monkeypatch):
        """The fleet is the ladder's top rung: what it leaves unfinished
        goes down the same ladder at its batch position, so a fault plan
        names the same shard remote and local."""
        from repro.dist import run

        k = 5
        # Every position but ``k`` commits at once; ``k`` is spent.
        stub = StubCoordinator(lambda position: position != k)
        monkeypatch.setattr(run, "coordinator_for", lambda endpoint: stub)
        result = faulted(
            COLUMN,
            FaultPlan(transient={(k, 0)}),
            RetryPolicy(max_attempts=2, backoff_base=0),
            dispatch="distributed",
            workers_endpoint="127.0.0.1:1",
        )
        assert dumps_job(result.job) == reference_job()
        stats = result.execution
        assert stats.dist_local_fallbacks == 1
        # The local rung met the plan's (k, 0) on shard k and retried it.
        assert stats.shard_retries == 1

    @pytest.mark.parametrize("remote", [0, 3])
    def test_only_a_landed_commit_makes_the_run_parallel(self, monkeypatch, remote):
        # The first ``remote`` positions commit on the fleet; the serial
        # local rung (workers=1) finishes the rest.
        from repro.dist import run

        stub = StubCoordinator(lambda position: position < remote)
        monkeypatch.setattr(run, "coordinator_for", lambda endpoint: stub)
        result = faulted(
            COLUMN, dispatch="distributed", workers_endpoint="127.0.0.1:1"
        )
        assert dumps_job(result.job) == reference_job()
        stats = result.execution
        assert stats.parallel == (remote > 0)
        assert stats.dist_local_fallbacks == stats.shard_count - remote

    def test_dead_worker_is_reclaimed_and_byte_identical(
        self, endpoint, fleet
    ):
        fleet(2)
        faults = FaultPlan(dead_worker=frozenset({(0, 0)}))
        # Speculation off so the recovery must come from death
        # detection + lease reclaim, not a speculative duplicate.
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
            worker_grace=3.0,
            speculate=False,
        )
        result = leased(endpoint, faults=faults, policy=policy)
        assert dumps_job(result.job) == reference_job()
        stats = result.execution
        assert stats.leases_reclaimed >= 1
        assert stats.worker_deaths >= 1

    def test_a_work_process_that_exits_mid_lease_is_reclaimed(self, tmp_path):
        # The one death a thread cannot die: a real ``work`` daemon
        # meets ``dead_worker`` with ``os._exit``.  Its sibling finishes.
        faults = FaultPlan(dead_worker=frozenset({(0, 0)}))
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=0.5,
            worker_grace=5.0,
            speculate=False,
        )
        with conformance.Fleet(tmp_path) as processes:
            result = leased(processes.endpoint, faults=faults, policy=policy)
        assert dumps_job(result.job) == reference_job()
        stats = result.execution
        assert stats.worker_deaths >= 1 and stats.leases_reclaimed >= 1
        assert stats.dist_local_fallbacks == 0

    def test_dropped_commit_connection_recovers(self, endpoint, fleet):
        fleet(2)
        faults = FaultPlan(drop_conn=frozenset({(1, 0)}))
        # Speculation off and no shard timeout: the lost commit must
        # surface as a lease nobody heartbeats any more (its worker
        # keeps polling) and a reclaimed retry.
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
            worker_grace=3.0,
            speculate=False,
        )
        result = leased(endpoint, faults=faults, policy=policy)
        assert dumps_job(result.job) == reference_job()
        assert result.execution.leases_reclaimed >= 1
        assert result.execution.dist_local_fallbacks == 0

    def test_duplicate_commit_discarded(self, endpoint, fleet):
        fleet(2)
        faults = FaultPlan(duplicate_commit=frozenset({(2, 0)}))
        result = leased(endpoint, faults=faults)
        assert dumps_job(result.job) == reference_job()
        assert result.execution.duplicate_commits >= 1

    def test_late_heartbeat_counted_and_recovered(self, endpoint, fleet):
        fleet(2)
        faults = FaultPlan(late_heartbeat=frozenset({(3, 0)}))
        result = leased(endpoint, faults=faults)
        assert dumps_job(result.job) == reference_job()
        # The silent shard is either reclaimed (slow) or its commit
        # lands first (fast) — both end byte-identical; degraded runs
        # surface in the counters when the reclaim happened.
        stats = result.execution
        assert stats.heartbeats_missed + stats.leases_reclaimed >= 0

    def test_straggler_speculation_wins(self, endpoint):
        stalled = threading.Event()
        release = threading.Event()

        def throttle(position, attempt):
            # The straggler stalls on shard 0 until the run is over;
            # speculation must route the shard around it.
            if position == 0:
                stalled.set()
                release.wait(timeout=30.0)

        slow = WorkerDaemon(endpoint, worker_id="slow", throttle=throttle)
        fast = WorkerDaemon(endpoint, worker_id="fast")

        def fast_runner():
            # Let the straggler claim shard 0 first (grants follow
            # position order), so the stall is deterministic.
            stalled.wait(timeout=30.0)
            fast.run()

        threads = [
            threading.Thread(target=slow.run, daemon=True),
            threading.Thread(target=fast_runner, daemon=True),
        ]
        for thread in threads:
            thread.start()
        # No shard timeout: the straggler is *slow*, not hung.
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=5.0,
            worker_grace=10.0,
            speculate_after=0.2,
        )
        try:
            result = leased(endpoint, policy=policy)
        finally:
            release.set()
            slow.stop()
            fast.stop()
            for thread in threads:
                thread.join(timeout=5.0)
        assert dumps_job(result.job) == reference_job()
        assert result.execution.speculative_wins >= 1

    def test_cancel_lands_while_the_fleet_stalls(self, endpoint, fleet):
        """A fleet that heartbeats but never commits must not hide a
        cancel (or an expired job budget) from the waiting coordinator:
        the poll loop waits on the batch's event, not the deadline's,
        so it is every wake's ``check()`` that sees the cancel."""

        class Cancelled(Exception):
            pass

        leased = threading.Event()
        release = threading.Event()
        deadline = Deadline()
        cancelled_at = []

        def throttle(position, attempt):
            leased.set()
            release.wait(timeout=30.0)

        def request_cancel():
            leased.wait(timeout=30.0)
            cancelled_at.append(time.monotonic())
            deadline.cancel(Cancelled)

        fleet(2, throttle=throttle)
        # No shard timeout: stalled, not hung — no reclaim helps.
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=5.0,
            worker_grace=60.0,
            speculate=False,
        )
        pipeline = COLUMN.pipeline(
            dispatch="distributed",
            workers_endpoint=endpoint,
            dist_policy=policy,
            deadline=deadline,
            machine=None,
        )
        canceller = threading.Thread(target=request_cancel, daemon=True)
        canceller.start()
        try:
            with pytest.raises(Cancelled):
                pipeline.run(COLUMN.layout())
            landed = time.monotonic() - cancelled_at[0]
        finally:
            release.set()
            canceller.join(timeout=5.0)
        assert landed < 1.0
        # The abandoned batch is finished, not left for workers to pull.
        assert coordinator_for(endpoint)._batches_in_order() == []

    def test_cacheless_fleet_results_fill_the_preparing_cache(
        self, endpoint, fleet, tmp_path
    ):
        cache_dir = tmp_path / "shard-cache"
        fleet(2)
        first = leased(endpoint, cache_dir=cache_dir)
        assert first.execution.cache_misses == first.execution.shard_count
        assert first.execution.dist_local_fallbacks == 0
        # The workers hold no cache: the preparing process stored every
        # shard the fleet computed, so a local re-run hits them all.
        second = faulted(COLUMN, cache_dir=cache_dir)
        assert second.execution.cache_hits == second.execution.shard_count
        assert dumps_job(first.job) == dumps_job(second.job)

    def test_coordinator_registry_reuses_and_resolves_port_zero(self):
        server = coordinator_for("127.0.0.1:0")
        host, port = server.server_address[:2]
        assert coordinator_for(f"{host}:{port}") is server
        assert coordinator_for("127.0.0.1:0") is server

    def test_worker_daemon_idle_exit(self, endpoint):
        daemon = WorkerDaemon(endpoint, idle_exit=0.2, worker_id="loner")
        assert daemon.run() == 0  # no batches → drains away on its own

    def test_concurrent_batches_share_one_fleet(self, endpoint, fleet):
        fleet(2)
        results = [None, None]
        errors = []

        def go(slot):
            try:
                results[slot] = leased(endpoint)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=go, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        for result in results:
            assert result is not None
            assert dumps_job(result.job) == reference_job()


class TestRecipeAndServerPlumbing:
    def test_recipe_validates_dispatch(self):
        from repro.core.recipe import PrepRecipe

        with pytest.raises(ValueError):
            PrepRecipe(dispatch="cloud")
        with pytest.raises(ValueError):
            PrepRecipe(dispatch="distributed")  # endpoint required
        with pytest.raises(ValueError):
            PrepRecipe(
                dispatch="distributed", workers_endpoint="not-an-endpoint"
            )
        recipe = PrepRecipe(
            dispatch="distributed", workers_endpoint="127.0.0.1:9999"
        )
        assert recipe.dispatch == "distributed"

    def test_pipeline_requires_endpoint_for_distributed(self):
        with pytest.raises(ValueError, match="requires a workers_endpoint"):
            PreparationPipeline(field_size=4.0, dispatch="distributed")
        with pytest.raises(ValueError, match="dispatch must be one of"):
            PreparationPipeline(field_size=4.0, dispatch="teleport")

    def test_server_stop_is_clean(self):
        server = CoordinatorServer(("127.0.0.1", 0))
        server.start()
        host, port = server.server_address[:2]
        reply, _ = request((host, port), {"type": "ping"})
        assert reply["type"] == "pong"
        server.stop()
        with pytest.raises(OSError):
            request((host, port), {"type": "ping"}, timeout=0.5)

    def test_malformed_frame_keeps_its_lease(self):
        # Regression: a commit whose position was not an int popped its
        # lease, then raised — the shard was orphaned and the batch never
        # finished.  The frame is refused before the queue is touched.
        server = CoordinatorServer(("127.0.0.1", 0))
        try:
            batch = server.submit_batch([b"a", b"b"], b"cfg")
            first, second = (
                server.dispatch({"type": "lease", "worker": "w"}, b"")[0]
                for _ in range(2)
            )
            def commit(task, **header):
                frame = {"type": "commit", "batch": batch.id, "worker": "w"}
                frame.update(lease=task["lease"], position=task["position"])
                return server.dispatch({**frame, **header}, b"shots")[0]

            assert commit(first)["outcome"] == "accepted"
            for bad in ("0", 3.0, [1], True, None):
                assert commit(second, position=bad)["type"] == "error"
                assert commit(second, type="fail", position=bad)["type"] == "error"
                assert commit(second, type="heartbeat", lease=bad)["type"] == "error"
            state = batch.queue.state(time.monotonic())
            assert (state.finished, state.outstanding, state.error) == (False, 1, None)
            assert commit(second)["outcome"] == "accepted"
            assert batch.queue.state(time.monotonic()).finished
        finally:
            server.server_close()

    def test_a_batch_id_that_is_not_a_string_names_no_batch(self):
        # Regression: a JSON array or object as ``batch`` made the batch
        # lookup raise ``TypeError: unhashable type`` in the handler
        # thread — a traceback, and the connection closed unanswered.
        # It is an unknown batch: each kind gets its usual reply.
        server = CoordinatorServer(("127.0.0.1", 0))
        errors = []
        server.handle_error = lambda request, address: errors.append(address)
        server.start()
        address = server.server_address[:2]
        replies = {
            "config": {"type": "gone"},
            "heartbeat": {"type": "ok", "live": False},
            "commit": {"type": "gone"},
            "fail": {"type": "ok"},
        }
        try:
            server.submit_batch([b"a"], b"cfg")
            for batch in ([1], {}, [], {"id": 1}):
                for kind, reply in replies.items():
                    frame = {"type": kind, "batch": batch, "worker": "w"}
                    frame.update(lease=1, position=0)
                    assert request(address, frame)[0] == reply, (kind, batch)
            assert errors == []
        finally:
            server.stop()

    def test_a_payload_the_worker_cannot_decode_fails_its_batch(self):
        # Regression: a lease blob (or batch config) the daemon could
        # not decode raised out of its loop — no ``fail`` was sent, the
        # daemon died and the batch waited on a reclaim.  It is reported
        # as permanent (the batch is poisoned), and the daemon serves on.
        server = CoordinatorServer(("127.0.0.1", 0))
        server.start()
        host, port = server.server_address[:2]
        daemon = WorkerDaemon(f"{host}:{port}", worker_id="w")
        thread = threading.Thread(target=daemon.run, daemon=True)
        shard = Shard((0, 0), (Polygon.rectangle(0, 0, 2, 1),))
        config = pickle.dumps(((TrapezoidFracturer(), None, None), None))

        def outcome(shard_blob, config_blob):
            batch = server.submit_batch([shard_blob], config_blob)
            wait_until = time.monotonic() + 10.0
            while not batch.queue.state(time.monotonic()).finished:
                assert time.monotonic() < wait_until, "batch never finished"
                time.sleep(0.01)
            return batch.queue.error, batch.queue.take_new_commits()

        try:
            thread.start()
            error, _ = outcome(dumps_shard(shard)[:-1], config)
            assert error.startswith("JobFileError: input-shard size")
            error, _ = outcome(dumps_shard(shard), b"not a pickle")
            assert error.startswith("UnpicklingError")
            error, commits = outcome(dumps_shard(shard), config)
            assert error is None and [p for p, _ in commits] == [0]
            assert thread.is_alive() and daemon.leases_executed == 1
        finally:
            daemon.stop()
            thread.join(timeout=5.0)
            server.stop()

    def test_batch_ids_unique_across_server_instances(self):
        # Sequential numbering restarts in every coordinator process; a
        # long-lived worker keys its config cache by batch id, so the
        # first batches of two coordinators must not collide.
        s1 = CoordinatorServer(("127.0.0.1", 0))
        s2 = CoordinatorServer(("127.0.0.1", 0))
        try:
            b1 = s1.submit_batch([b"x"], b"cfg")
            b2 = s2.submit_batch([b"x"], b"cfg")
            assert b1.id != b2.id
        finally:
            s1.server_close()
            s2.server_close()

    def test_worker_outliving_a_coordinator_fetches_fresh_config(self):
        # Regression: a worker daemon that served coordinator A once
        # reused A's cached (config, faults) bundle for coordinator B's
        # batch of the same sequential id — silently running B's shards
        # with A's fault plan (and pipeline config).  The worker must
        # see B's dead_worker schedule and die.
        server = coordinator_for("127.0.0.1:0")
        host, port = server.server_address[:2]
        endpoint = f"{host}:{port}"
        daemon = WorkerDaemon(endpoint, worker_id="survivor")
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            clean = leased(endpoint)
            assert dumps_job(clean.job) == reference_job()
            # Coordinator dies; its successor binds the same port, so
            # the worker reconnects to a server whose batch numbering
            # restarts at 1.
            shutdown_coordinators()
            coordinator_for(endpoint)
            faults = FaultPlan(dead_worker=frozenset({(0, 0)}))
            policy = DistPolicy(
                heartbeat_interval=0.02,
                heartbeat_timeout=0.1,
                worker_grace=0.2,
                speculate=False,
            )
            result = leased(endpoint, faults=faults, policy=policy)
            assert dumps_job(result.job) == reference_job()
            assert result.execution.worker_deaths >= 1
        finally:
            daemon.stop()
            thread.join(timeout=5.0)
