"""Deterministic fault injection for the execution layer.

The fault-tolerance machinery of :mod:`repro.core.ladder` (per-shard
retry, pool recycling, hung-worker timeouts, cache degradation) is only
trustworthy if every failure mode can be reproduced on demand.  This
module is that harness: a :class:`FaultPlan` describes *exactly* which
shard attempts misbehave and how, keyed by ``(position, attempt)`` —
the shard's 0-based index in the run's computed-work list and the
0-based dispatch attempt — with no wall-clock or RNG anywhere in the
schedule, so a chaos test that passes once passes always.  Positions
are run-global: a run that dispatches its work in several windows
(streamed execution) hands each window the plan rebased by the shards
dispatched before it (:meth:`FaultPlan.rebased`), so one plan means
the same thing resident, streamed or distributed.

Fault kinds
-----------
* ``kill_worker`` — the worker process SIGKILLs itself mid-shard (the
  pool observes :class:`~concurrent.futures.process.BrokenProcessPool`).
* ``transient`` — the shard raises :class:`TransientFaultError` (an
  ``OSError``, so the default :class:`~repro.core.ladder.RetryPolicy`
  classifies it as retryable infrastructure trouble).
* ``hang`` — the shard sleeps ``hang_seconds`` (far past any sane
  per-shard timeout), exercising the hung-worker watchdog.
* ``permanent`` — the shard raises :class:`InjectedFaultError` (a
  ``ValueError``: deterministic shard failures must fail fast, retrying
  a pure function cannot change its outcome).
* ``enospc_puts`` — cache stores fail with ``ENOSPC``; applied by
  wrapping the cache in :class:`FaultyCache`, counted by put ordinal.

Network fault kinds (distributed execution, :mod:`repro.dist`)
--------------------------------------------------------------
These are consulted by the *worker daemon*, not by :meth:`FaultPlan.fire`
— they corrupt the scheduling conversation between a worker and the
lease coordinator, never the shard computation itself:

* ``dead_worker`` — the worker daemon dies abruptly while holding the
  lease (process workers ``os._exit``; in-process test workers stop
  heartbeating and abandon every connection, which is indistinguishable
  to the coordinator).
* ``drop_conn`` — the worker's commit connection drops mid-frame; the
  result never lands, and the lease, no longer heartbeated, is
  reclaimed after ``heartbeat_timeout``.
* ``late_heartbeat`` — the worker skips every heartbeat while executing
  this shard, so the coordinator presumes it dead and reclaims; the
  worker's late commit is then discarded by cache idempotency.
* ``duplicate_commit`` — the worker commits the same result twice
  (at-least-once delivery made visible); the second commit must be
  discarded without altering a byte.

Kill and hang faults are *armed* with the coordinating process id
(:meth:`FaultPlan.arm`) and only fire in pool workers — a serial or
degraded-to-serial run skips them (the coordinator must survive to
finish the run), which is exactly the pool → fresh-pool → serial
degradation ladder the chaos suite asserts.

Plans travel to CLI subprocesses and service jobs through the
``REPRO_FAULTS`` environment variable as JSON, e.g.::

    REPRO_FAULTS='{"kill_worker": [[1, 0]], "transient": [[0, 0]],
                   "enospc_puts": [0]}'
"""

from __future__ import annotations

import errno
import os
import signal
import time
from dataclasses import dataclass, field, fields, replace
from typing import FrozenSet, Optional, Tuple

from repro.core.recipe import (
    COUNT,
    FAULTS_ENV_VAR,
    POSITIVE,
    from_mapping,
    json_object,
    require,
)


class TransientFaultError(OSError):
    """An injected transient infrastructure failure (retryable)."""


class InjectedFaultError(ValueError):
    """An injected deterministic shard failure (never retried)."""


def _pairs(value, kind: str) -> FrozenSet[Tuple[int, int]]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(
            f"fault schedule {kind!r} must be a list of "
            f"[position, attempt] pairs, got {value!r}"
        )
    pairs = set()
    for item in value:
        if isinstance(item, (str, bytes)) or not hasattr(item, "__iter__"):
            raise ValueError(
                f"fault schedule {kind!r} entries must be "
                f"[position, attempt] pairs of non-negative ints, "
                f"got {item!r}"
            )
        pair = tuple(item)
        if len(pair) != 2 or not all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 0
            for x in pair
        ):
            raise ValueError(
                f"fault schedule {kind!r} entries must be "
                f"[position, attempt] pairs of non-negative ints, "
                f"got {item!r}"
            )
        pairs.add(pair)
    return frozenset(pairs)


def _ordinals(value) -> FrozenSet[int]:
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise ValueError(
            "'enospc_puts' must be a list of non-negative store "
            f"ordinals, got {value!r}"
        )
    ordinals = list(value)
    if any(COUNT.rule(x) for x in ordinals):
        raise ValueError(
            "'enospc_puts' must be non-negative store ordinals, "
            f"got {value!r}"
        )
    return frozenset(ordinals)


def _schedule():
    """A ``(position, attempt)`` fault kind.  The field list is the only
    list of kinds."""
    return field(default=frozenset(), metadata={"schedule": True})


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults.

    Attributes:
        kill_worker / transient / hang / permanent: ``(position,
            attempt)`` pairs at which the corresponding fault fires.
        enospc_puts: 0-based cache-store ordinals (counted per
            :class:`FaultyCache` instance) whose ``put``/``put_blob``
            raises ``OSError(ENOSPC)``.
        dead_worker / drop_conn / late_heartbeat / duplicate_commit:
            ``(position, attempt)`` pairs at which the distributed
            worker daemon misbehaves on the network (see the module
            docstring); consulted by :mod:`repro.dist.worker`, never by
            :meth:`fire`.
        hang_seconds: how long a hung shard sleeps — large against any
            realistic shard timeout, small against a test-suite budget.
        coordinator_pid: pid of the coordinating process, set by
            :meth:`arm`; kill/hang faults fire only in *other*
            processes (pool workers), so degraded serial replays of the
            same schedule complete instead of killing the run.
    """

    kill_worker: FrozenSet[Tuple[int, int]] = _schedule()
    transient: FrozenSet[Tuple[int, int]] = _schedule()
    hang: FrozenSet[Tuple[int, int]] = _schedule()
    permanent: FrozenSet[Tuple[int, int]] = _schedule()
    enospc_puts: FrozenSet[int] = frozenset()
    dead_worker: FrozenSet[Tuple[int, int]] = _schedule()
    drop_conn: FrozenSet[Tuple[int, int]] = _schedule()
    late_heartbeat: FrozenSet[Tuple[int, int]] = _schedule()
    duplicate_commit: FrozenSet[Tuple[int, int]] = _schedule()
    hang_seconds: float = 60.0
    coordinator_pid: Optional[int] = field(
        default=None, metadata={"internal": True}
    )

    def __post_init__(self) -> None:
        # Both doors (keyword arguments, JSON lists) are normalised and
        # checked here: schedules become frozensets of checked entries.
        for kind in self._kinds():
            object.__setattr__(self, kind, _pairs(getattr(self, kind), kind))
        object.__setattr__(self, "enospc_puts", _ordinals(self.enospc_puts))
        require(POSITIVE, "hang_seconds", self.hang_seconds)
        object.__setattr__(self, "hang_seconds", float(self.hang_seconds))

    @classmethod
    def _kinds(cls) -> Tuple[str, ...]:
        """The ``(position, attempt)`` kinds."""
        return tuple(f.name for f in fields(cls) if "schedule" in f.metadata)

    def arm(self) -> "FaultPlan":
        """Bind the plan to the current process as the coordinator."""
        return replace(self, coordinator_pid=os.getpid())

    def rebased(self, dispatched: int) -> "FaultPlan":
        """The plan as a work list starting ``dispatched`` shards into
        the run sees it: every ``(position, attempt)`` kind shifted
        down, entries already behind the list dropped.  This is what
        keeps positions run-global when a run dispatches its work in
        several windows."""
        return replace(
            self,
            **{
                kind: frozenset(
                    (position - dispatched, attempt)
                    for position, attempt in getattr(self, kind)
                    if position >= dispatched
                )
                for kind in self._kinds()
            },
        )

    def fire(self, position: int, attempt: int) -> None:
        """Raise/kill/hang if the schedule names this shard attempt.

        Called at the top of every shard computation (pool worker or
        serial path).  Kill and hang only act outside the coordinator
        process; transient and permanent faults fire anywhere.
        """
        key = (position, attempt)
        in_worker = (
            self.coordinator_pid is not None
            and os.getpid() != self.coordinator_pid
        )
        if key in self.kill_worker and in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        if key in self.hang and in_worker:
            time.sleep(self.hang_seconds)
        if key in self.transient:
            raise TransientFaultError(
                f"injected transient fault at shard {position} "
                f"attempt {attempt}"
            )
        if key in self.permanent:
            raise InjectedFaultError(
                f"injected permanent fault at shard {position} "
                f"attempt {attempt}"
            )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON form (see module docstring)."""
        return from_mapping(cls, json_object(text, "fault plan"), "fault plan key")

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or ``None`` when unset.

        This is how the CLI and the service inherit an injection
        schedule without any code path knowing about chaos testing.
        """
        environ = os.environ if environ is None else environ
        text = environ.get(FAULTS_ENV_VAR)
        if not text:
            return None
        return cls.from_json(text)


@dataclass
class FaultyCache:
    """A :class:`~repro.core.cache.ShardCache` proxy with failing stores.

    Reads pass straight through; ``put``/``put_blob`` raise
    ``OSError(ENOSPC)`` on the store ordinals named by the plan's
    ``enospc_puts`` (counted across both entry points, in call order)
    and delegate otherwise.  Everything else — keys, stats, paths — is
    the wrapped cache's, so degraded runs share the real store.
    """

    inner: object
    plan: FaultPlan
    puts_seen: int = field(default=0)

    def _maybe_fail(self) -> None:
        ordinal = self.puts_seen
        self.puts_seen += 1
        if ordinal in self.plan.enospc_puts:
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC on cache store {ordinal}",
            )

    def put(self, key, result):
        self._maybe_fail()
        return self.inner.put(key, result)

    def put_blob(self, key, payload):
        self._maybe_fail()
        return self.inner.put_blob(key, payload)

    def __getattr__(self, name):
        return getattr(self.inner, name)
