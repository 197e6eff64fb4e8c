"""The worker daemon: pulls leases, executes shards, commits results.

``python -m repro.cli work --connect host:port`` runs one of these per
process; tests run them as in-process threads.  The execution path is
*exactly* the single-host one — the daemon calls
:func:`repro.core.executor._process_shard_task`, the entry point of
every rung of the recovery ladder, on the lease's ``EBS1`` shard
(:func:`repro.core.jobfile.loads_shard`) with the pickled ``(config,
faults)`` it fetched once per batch, so every injected shard fault
(kill, hang, transient, permanent) fires with identical ``(position,
attempt)`` semantics — positions are the batch's — whether the shard
runs on the fleet or on the ladder's local pool or serial rung.

The daemon only computes — an ``EBS1`` lease in, an ``EBC1`` commit out.
It holds no shard cache: the preparing process stores every result it
lands, fleet results included, under one store policy.

Network fault kinds from the same :class:`~repro.core.faults.FaultPlan`
are consulted *here*, corrupting the scheduling conversation instead of
the computation:

* ``dead_worker`` — a daemon in its own process ``os._exit``\\ s while
  holding the lease; an in-process (same pid as the coordinator) daemon
  simulates death by silencing its heartbeats and abandoning the lease
  uncommitted, which is indistinguishable on the wire.
* ``drop_conn`` — the commit connection is cut mid-frame; the result
  never lands and the lease, no longer heartbeated, is reclaimed.
* ``late_heartbeat`` — no heartbeats are sent for this shard, so the
  coordinator presumes the worker dead and reclaims the lease; the
  (late) commit is then accepted idempotently or discarded.
* ``duplicate_commit`` — the commit frame is sent twice; the second is
  counted and discarded.

All of these end in a byte-identical run: results are deterministic and
commits are idempotent, so the faults only change *who* computes a
shard and *how often* — never what the batch merges.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import threading
import time
from typing import Callable, Optional, Tuple

from repro.core.executor import _process_shard_task
from repro.core.ladder import RetryPolicy
from repro.core.jobfile import dumps_shard_result, loads_shard
from repro.dist.coordinator import POLL_INTERVAL
from repro.dist.protocol import parse_endpoint, request


class WorkerDaemon:
    """One lease-pulling shard worker.

    Args:
        endpoint: coordinator ``host:port``.
        idle_exit: exit after this many seconds without being granted a
            lease (``None`` = run until stopped) — lets smoke scripts
            start workers before the coordinator exists and have them
            drain away afterwards.
        stop_event: external stop switch (in-process workers).
        throttle: optional ``throttle(position, attempt)`` hook invoked
            before executing a shard — how straggler tests and
            benchmarks make one worker slow without touching results.
    """

    def __init__(
        self,
        endpoint: str,
        idle_exit: Optional[float] = None,
        stop_event: Optional[threading.Event] = None,
        throttle: Optional[Callable[[int, int], None]] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        self.address = parse_endpoint(endpoint)
        self.idle_exit = idle_exit
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self.throttle = throttle
        self.worker_id = (
            worker_id
            if worker_id is not None
            else f"{socket.gethostname()}-{os.getpid()}-{id(self):x}"
        )
        self.leases_executed = 0
        self.commits_sent = 0
        self._configs: dict = {}
        self._simulated_dead = False

    # -- plumbing ----------------------------------------------------------

    def _request(self, header: dict, payload: bytes = b"") -> Tuple[dict, bytes]:
        header = dict(header)
        header["worker"] = self.worker_id
        return request(self.address, header, payload)

    def _config_for(self, batch: str) -> Optional[tuple]:
        """The batch's ``(config, faults)``, fetched once and cached.

        Batch ids are namespaced by a per-coordinator nonce, so a
        daemon that outlives a coordinator never replays a dead
        server's config against its successor's batches.
        """
        if batch not in self._configs:
            reply, payload = self._request({"type": "config", "batch": batch})
            if reply.get("type") != "config":
                return None
            while len(self._configs) >= 32:
                self._configs.pop(next(iter(self._configs)))
            self._configs[batch] = pickle.loads(payload)
        return self._configs[batch]

    def _heartbeat_loop(
        self, batch: int, lease: int, interval: float, done: threading.Event
    ) -> None:
        while not done.wait(interval):
            if self._simulated_dead:
                return
            try:
                reply, _ = self._request(
                    {"type": "heartbeat", "batch": batch, "lease": lease}
                )
            except OSError:
                continue
            if not reply.get("live", True):
                # The lease was reclaimed — stop advertising it.
                return

    def _fail(self, lease: dict, exc: Exception) -> None:
        """Report that ``lease``'s shard raised ``exc``: a transient
        fault re-enters the queue, anything else — a payload this daemon
        cannot decode included — fails the batch, and the daemon keeps
        serving either way."""
        with contextlib.suppress(OSError):
            self._request(
                {
                    "type": "fail",
                    "batch": lease["batch"],
                    "lease": lease["lease"],
                    "position": lease["position"],
                    "transient": RetryPolicy.is_transient(exc),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )

    # -- fault-injection helpers ------------------------------------------

    def _die(self, faults) -> None:
        """Abrupt worker death: real for a standalone process, simulated
        (silence + abandonment) for an in-process thread worker."""
        if (
            faults is not None
            and faults.coordinator_pid is not None
            and os.getpid() != faults.coordinator_pid
        ):
            os._exit(1)
        self._simulated_dead = True
        self.stop_event.set()

    def _drop_conn_commit(self, header: dict, payload: bytes) -> None:
        """Start a commit frame, then cut the connection mid-payload."""
        import json

        from repro.dist.protocol import _FRAME

        header = dict(header)
        header["worker"] = self.worker_id
        encoded = json.dumps(header).encode("utf-8")
        # Declare the full payload length but stop one byte short, then
        # close: the coordinator's recv_exact comes up empty-handed and
        # the half-frame is discarded without advancing the queue.
        frame = (
            _FRAME.pack(len(encoded), len(payload))
            + encoded
            + payload[: max(0, len(payload) - 1)]
        )
        try:
            with socket.create_connection(self.address, timeout=10.0) as sock:
                sock.sendall(frame)
        except OSError:
            pass

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Pull and execute leases until stopped; returns leases executed.

        Without a lease to run — no coordinator yet, or nothing to
        lease — the daemon asks again after the fleet's one interval,
        ``POLL_INTERVAL``, so a fresh coordinator meets its fleet within
        one poll.
        """
        last_work = time.monotonic()
        while not self.stop_event.is_set():
            try:
                reply, payload = self._request({"type": "lease"})
            except OSError:
                reply, payload = {}, b""
            if reply.get("type") == "task":
                self._execute(reply, payload)
                last_work = time.monotonic()
            elif self._idle_expired(last_work) or self.stop_event.wait(POLL_INTERVAL):
                break
        return self.leases_executed

    def _idle_expired(self, last_work: float) -> bool:
        return (
            self.idle_exit is not None
            and time.monotonic() - last_work > self.idle_exit
        )

    def _execute(self, lease: dict, shard_blob: bytes) -> None:
        batch = lease["batch"]
        lease_id = lease["lease"]
        position = lease["position"]
        attempt = lease["attempt"]
        try:
            bundle = self._config_for(batch)
        except Exception as exc:
            self._fail(lease, exc)
            return
        if bundle is None:
            return
        config, faults = bundle
        key = (position, attempt)
        heartbeats_on = not (
            faults is not None and key in faults.late_heartbeat
        )
        done = threading.Event()
        beat: Optional[threading.Thread] = None
        if heartbeats_on:
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(
                    batch,
                    lease_id,
                    max(0.05, float(lease.get("heartbeat", 0.5))),
                    done,
                ),
                daemon=True,
            )
            beat.start()
        try:
            if self.throttle is not None:
                self.throttle(position, attempt)
            try:
                shard = loads_shard(shard_blob)
                result = _process_shard_task(
                    config, faults, (position, attempt, shard)
                )
            except Exception as exc:
                self._fail(lease, exc)
                return
            self.leases_executed += 1
            if faults is not None and key in faults.dead_worker:
                self._die(faults)
                return
            payload = dumps_shard_result(result)
            header = {
                "type": "commit",
                "batch": batch,
                "lease": lease_id,
                "position": position,
                "attempt": attempt,
            }
            if faults is not None and key in faults.drop_conn:
                self._drop_conn_commit(header, payload)
                return
            sends = (
                2
                if faults is not None and key in faults.duplicate_commit
                else 1
            )
            for _ in range(sends):
                try:
                    self._request(header, payload)
                    self.commits_sent += 1
                except OSError:
                    # The coordinator will reclaim the lease; another
                    # attempt (or the local ladder) recomputes the same
                    # bytes.
                    return
        finally:
            done.set()
            if beat is not None:
                beat.join(timeout=2.0)

    def stop(self) -> None:
        self.stop_event.set()


def run_worker(endpoint: str, idle_exit: Optional[float] = None) -> int:
    """CLI entry: run one worker daemon until stopped/idle-expired."""
    daemon = WorkerDaemon(endpoint, idle_exit=idle_exit)
    try:
        executed = daemon.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        executed = daemon.leases_executed
    print(
        f"worker {daemon.worker_id}: {executed} lease(s) executed, "
        f"{daemon.commits_sent} commit(s)"
    )
    return 0
