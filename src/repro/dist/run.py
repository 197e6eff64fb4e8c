"""Drive one batch of shards through the lease coordinator.

:func:`map_shards_distributed` is the distributed counterpart of
:func:`repro.core.executor._map_shards` — same inputs, same
``(results, pooled, recovery)`` contract plus the batch's
:class:`~repro.dist.coordinator.DistRunStats`.  It publishes the batch
on the endpoint's coordinator, folds committed results in as workers
deliver them, and finishes whatever the fleet could not (exhausted
attempt budgets, no live workers) on the local pool → serial ladder —
the top rung of the recovery ladder, so a distributed run never fails
for scheduling reasons the single-host engine would have survived.
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, List, Optional, Tuple

from repro.core.executor import (
    Deadline,
    RetryPolicy,
    Shard,
    ShardRecovery,
    ShardResult,
    _map_shards,
)
from repro.core.faults import FaultPlan
from repro.core.jobfile import loads_shard_result
from repro.dist.coordinator import (
    DistPolicy,
    DistRunStats,
    coordinator_for,
)


def map_shards_distributed(
    shards: List[Shard],
    config: tuple,
    workers: int,
    endpoint: str,
    tick: Optional[Callable[[], None]] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
    policy: Optional[DistPolicy] = None,
    cache_keys: Optional[List[str]] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[List[ShardResult], bool, ShardRecovery, DistRunStats]:
    """Run ``shards`` across the worker fleet on ``endpoint``.

    Results come back in shard order and are byte-identical to a serial
    run: workers execute the exact per-shard entry point, commits are
    idempotent, and the merge ignores arrival order.  ``cache_keys``
    (parallel to ``shards``) ride the leases so workers with a shared
    cache can store results at the source.  ``deadline`` (unbounded by
    default) bounds the wait and every lease, and is handed on to the
    local ladder with the leftovers.
    """
    retry = retry or RetryPolicy()
    deadline = deadline or Deadline()
    if policy is None:
        # REPRO_DIST overrides scheduling knobs the same way
        # REPRO_FAULTS injects faults; an explicit policy wins.
        policy = DistPolicy.from_env() or DistPolicy()
    n = len(shards)
    results: List[Optional[ShardResult]] = [None] * n
    recovery = ShardRecovery()
    stats = DistRunStats()
    if n == 0:
        return [], False, recovery, stats

    server = coordinator_for(endpoint)
    batch = server.submit_batch(
        [pickle.dumps(shard) for shard in shards],
        pickle.dumps((config, faults)),
        retry=retry,
        policy=policy,
        cache_keys=cache_keys,
        deadline=deadline,
    )
    queue = batch.queue
    try:
        grace_deadline: Optional[float] = None
        while True:
            now = time.monotonic()
            queue.scan(now)
            for position, payload in queue.take_new_commits():
                results[position] = loads_shard_result(payload)
                if tick is not None:
                    tick()
            state = queue.state(now)
            if state.error is not None:
                raise ValueError(state.error)
            if state.finished:
                break
            if state.live_workers == 0:
                if grace_deadline is None:
                    grace_deadline = now + policy.worker_grace
                elif now > grace_deadline:
                    queue.abandon_remaining()
            else:
                grace_deadline = None
            batch.progress.wait(policy.poll_interval)
            batch.progress.clear()
            # Each wake observes a cancel or an expired budget, whether
            # or not any shard has committed.
            deadline.check()
        # Late commits that raced the loop's last pass.
        for position, payload in queue.take_new_commits():
            results[position] = loads_shard_result(payload)
            if tick is not None:
                tick()
        stats = queue.stats.copy()
    finally:
        server.finish_batch(batch.id)

    leftover = [
        position for position in range(n) if results[position] is None
    ]
    pooled = False
    if leftover:
        stats.local_fallbacks = len(leftover)
        local_results, pooled, local_recovery = _map_shards(
            [shards[position] for position in leftover],
            config,
            workers,
            tick=tick,
            retry=retry,
            faults=faults,
            deadline=deadline,
        )
        for position, result in zip(leftover, local_results):
            results[position] = result
        recovery = local_recovery.rekeyed(leftover)
    return results, pooled or stats.remote_commits > 0, recovery, stats
