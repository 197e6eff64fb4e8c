"""Helpers for the deterministic fault suites (:mod:`tests.test_chaos`,
:mod:`tests.test_dist`).

Fault schedules live in :class:`repro.core.faults.FaultPlan`, keyed by
``(position, attempt)``, with no wall-clock or RNG anywhere, so every
scenario replays identically run after run.  :func:`faulted` runs one
on a column of the conformance matrix (whose reference run is the clean
run to compare with); the rest mutates *on-disk* cache state only.
"""

from pathlib import Path
from typing import List, Sequence

from repro.core.executor import RetryPolicy

#: Zero backoff keeps retry scenarios fast; determinism is unaffected
#: (backoff shapes wall-clock, never results).
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def faulted(
    column, faults=None, retry=FAST_RETRY, program_path=None, policy=None, **execution
):
    """Run matrix column ``column`` under a fault plan, retry policy or
    lease policy the matrix has no axis value for: its pipeline
    (``Column.pipeline(**execution)``) built with those.  The machine
    program is written only when ``program_path`` says where."""
    if not program_path:
        execution["machine"] = None
    pipeline = column.pipeline(
        faults=faults, retry=retry, dist_policy=policy, **execution
    )
    return pipeline.run(column.layout(), program_path=program_path)

#: Bytes no cache reader accepts: wrong magic, wrong framing, too short
#: to be a valid payload of either entry family.
GARBAGE = b"\x00CHAOS-corrupted-entry\x00"


def cache_entry_paths(cache_root) -> List[Path]:
    """Every cache entry under ``cache_root``, in sorted (deterministic)
    order."""
    return sorted(Path(cache_root).glob("??/*.ebc"))


def corrupt_entries(paths: Sequence[Path]) -> int:
    """Overwrite each entry with garbage the reader must evict.

    Returns how many entries were corrupted.  Pass an explicit path
    list (from :func:`cache_entry_paths`, captured when you know what
    kind of entries the store holds) so a test corrupts shard results
    and program blobs intentionally, never by accident.
    """
    for path in paths:
        path.write_bytes(GARBAGE)
    return len(paths)
