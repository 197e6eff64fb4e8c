"""The fleet: the recovery ladder's top rung.

:func:`fleet_rung` is the distributed rung of
:class:`repro.core.ladder._Ladder`.  It publishes the ladder's shards as
one batch on the endpoint's coordinator, lands committed results in the
ladder as workers deliver them, and hands back the positions the fleet
could not finish (exhausted attempt budgets, no live workers) — the
same ladder's pool and serial rungs then finish them, so a distributed
run never fails for scheduling reasons the single-host engine would
have survived.  Positions are the batch's on every rung, so one fault
plan names the same shard remote and local.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, List, Optional

from repro.core.jobfile import dumps_shard, loads_shard_result
from repro.core.ladder import _Ladder
from repro.dist.coordinator import POLL_INTERVAL, DistPolicy, coordinator_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.faults import FaultPlan


def fleet_rung(
    ladder: _Ladder,
    config: tuple,
    faults: Optional[FaultPlan],
    endpoint: str,
    policy: Optional[DistPolicy] = None,
) -> List[int]:
    """Run ``ladder.shards`` across the worker fleet on ``endpoint``;
    returns the positions left unfinished, sorted.

    Results are byte-identical to a serial run: workers execute the
    exact per-shard entry point, commits are idempotent, and every
    commit lands through :meth:`~repro.core.ladder._Ladder.finish` at
    its own position (one progress tick each).  The fleet only
    computes: the preparing process stores every result in its cache,
    fleet results included.  The ladder's deadline bounds the wait and
    every lease; its retry policy is the fleet's attempt budget.  The
    batch's counters — the ``dist`` group, with ``dist_local_fallbacks``
    the positions handed back — are merged into ``ladder.stats``.

    Each shard is published as its ``EBS1`` payload
    (:func:`~repro.core.jobfile.dumps_shard`); only the batch's
    ``(config, faults)`` is pickled.
    """
    server = coordinator_for(endpoint)
    batch = server.submit_batch(
        [dumps_shard(shard) for shard in ladder.shards],
        pickle.dumps((config, faults)),
        retry=ladder.retry,
        policy=policy,
        deadline=ladder.deadline,
    )
    queue = batch.queue

    def land_commits() -> None:
        for position, payload in queue.take_new_commits():
            ladder.stats.parallel = True
            ladder.finish(position, loads_shard_result(payload))

    try:
        grace_deadline: Optional[float] = None
        while True:
            now = time.monotonic()
            queue.scan(now)
            land_commits()
            state = queue.state(now)
            if state.error is not None:
                raise ValueError(state.error)
            if state.finished:
                break
            if state.live_workers == 0:
                if grace_deadline is None:
                    grace_deadline = now + queue.policy.worker_grace
                elif now > grace_deadline:
                    queue.abandon_remaining()
            else:
                grace_deadline = None
            batch.progress.wait(POLL_INTERVAL)
            batch.progress.clear()
            # Each wake observes a cancel or an expired budget, whether
            # or not any shard has committed.
            ladder.deadline.check()
        # Late commits that raced the loop's last pass.
        land_commits()
        ladder.stats.merge(queue.stats)
    finally:
        server.finish_batch(batch.id)
    leftover = [p for p, result in enumerate(ladder.results) if result is None]
    ladder.stats.dist_local_fallbacks = len(leftover)
    return leftover
