"""The run-statistics schema: every counter a prep run reports, once.

:class:`ExecutionStats` is a flat dataclass whose field list *is* the
schema.  Each field is declared through :func:`stat` with a JSON group
(:data:`GROUPS`) and the schema keys of :data:`SCHEMA_DEFAULTS` — the
facts that used to be re-typed by hand wherever the counter was copied.
The fault total, the merge, the service's JSON view, the server-wide
``GET /stats`` totals and the CLI block (:data:`LINES`) are all
generated from those declarations, so adding a counter is one
:func:`stat` line plus the line that increments it.

The declarations are read in one place: :func:`schema` compiles a
class's fields into one table (names grouped by merge rule, fold
sources, JSON layout) on first use, and ``merge``, ``fold``,
``select`` and ``to_json`` read that table, never a field's metadata.
A field declared ``observed`` may differ between two runs of identical
input (a timing-dependent count), so a record's content — what
compares across runs, modes and commits — is ``select("observed",
False)``.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

#: JSON groups in view order: name → (nested under its own key, the
#: condition under which the group is reported at all).
GROUPS = {
    "run": (False, lambda stats: True),
    "cells": (False, lambda stats: stats.hierarchy == "cells"),
    "faults": (True, lambda stats: True),
    "memory": (True, lambda stats: stats.streamed),
    "dist": (True, lambda stats: stats.dispatch == "distributed"),
}

#: What a field's schema entry may say beyond its group, with defaults.
SCHEMA_DEFAULTS = {
    # How two records combine: "sum", "max", "any", or "keep" (the
    # record's own value stands; :data:`_MERGE` has no rule for it).
    "merge": "sum",
    # Its name inside the JSON group, when that is not the field name.
    "alias": None,
    # A recovery event: counts toward ``fault_events``.
    "fault": False,
    # The ``GET /stats`` section ("faults"/"dist") summing it across jobs.
    "totals": None,
    # The engine record it is folded from: "KernelFallbacks.total", or
    # a bare record name when the attribute has the field's own name.
    "source": None,
    # Its value may differ between two runs of identical input (it
    # depends on timing: which daemon polled first, a duration), so it
    # is not part of the record's content — comparisons across runs,
    # modes or commits read ``select("observed", False)``.
    "observed": False,
}

_MERGE = {
    "sum": operator.add,
    "max": max,
    "any": lambda mine, theirs: mine or theirs,
}


#: One class's compiled declarations (:func:`schema`): ``entries``, each
#: field's ``(name, schema entry)`` in declaration order; ``merge``,
#: ``{rule: [names]}`` for the rules that combine two records (``keep``
#: fields are absent); ``fold``, ``{source record name: [(field,
#: attribute, rule), ...]}`` (a ``source`` field needs a rule, so it is
#: never ``keep``); ``json``, ``{group: ((field, JSON key), ...)}`` in
#: :data:`GROUPS` order.
_Schema = namedtuple("_Schema", "entries merge fold json")


@functools.cache
def schema(cls) -> _Schema:
    """The table that ``merge``, ``fold``, ``select`` and ``to_json``
    read for ``cls`` — built from its :func:`stat` declarations on first
    use and cached per class (a subclass gets its own), so nothing else
    in the program reads a field's metadata."""
    entries = tuple((f.name, f.metadata) for f in fields(cls))
    table = _Schema(entries, {}, {}, dict.fromkeys(GROUPS, ()))
    for name, entry in entries:
        rule = _MERGE.get(entry["merge"])  # "keep" has none
        if rule:
            table.merge.setdefault(rule, []).append(name)
        source, _, attribute = (entry["source"] or "").partition(".")
        if source:
            table.fold.setdefault(source, []).append((name, attribute or name, rule))
        table.json[entry["group"]] += ((name, entry["alias"] or name),)
    return table


def stat(default, group: str = "run", **entry):
    """Declare one :class:`ExecutionStats` field: its default, its JSON
    group and any :data:`SCHEMA_DEFAULTS` keys that differ from theirs."""
    if group not in GROUPS or not entry.keys() <= SCHEMA_DEFAULTS.keys():
        raise TypeError(f"not a stats group / schema key: {group!r}, {sorted(entry)}")
    return field(default=default, metadata={"group": group, **SCHEMA_DEFAULTS, **entry})


#: The two families whose members share everything but a flag: the
#: per-cell reuse counters of a ``"cells"`` run, and the lease
#: coordinator's counters (run-level sums, summed again in ``/stats``).
_cells = functools.partial(stat, 0, "cells", source="HierarchicalFractureResult")
_dist = functools.partial(stat, 0, "dist", totals="dist")


@dataclass
class ExecutionStats:
    """How an execution ran (for logs, benchmarks, the CLI, the service).

    Attributes:
        shard_count: shards in the plan (1 for an unsharded run).
        occupied_shards: shards that produced at least one shot.
        workers: the resolved worker-pool size the run was given.
        parallel: some shard result actually came off a pool (or a
            remote worker) rather than the in-process serial path.
        field_size: the mosaic pitch [µm]; ``None`` = one shard.
        cache_enabled: a shard cache was consulted for this run.
        cache_hits: shards answered from the cache (skipped entirely).
        cache_misses: shards computed (and stored) this run.
        hierarchy: how the figures were produced — ``"flat"`` (fracture
            per shard) or ``"cells"`` (each cell fractured once, figures
            replicated per placement, PEC per shard).
        cells_fractured: distinct (cell, layer) fracture computations
            in a ``"cells"`` run.
        instances_reused: placements served from the per-cell figure
            cache in a ``"cells"`` run.
        instances_fallback: placements that required re-fracturing
            (90°/270° rotations) in a ``"cells"`` run.
        kernel_fallbacks: total times the fast scanline kernel degraded
            to a slower exact path across all shards (0 means every
            sweep ran fully vectorized).  Split by reason into
            ``kernel_coord_fallbacks``, ``kernel_slab_fallbacks`` and
            ``kernel_merge_fallbacks``.
        kernel_coord_fallbacks: sweeps handed whole to the reference
            engine because a coordinate was beyond the kernel's exact
            range.
        kernel_slab_fallbacks: sweeps handed whole to the reference
            engine because a rational-slab key needed more digit words
            than the kernel's bound (unreachable by construction).
        kernel_merge_fallbacks: sweeps whose trapezoids were merged
            object by object because the array merge declined them.
        shard_retries: shard dispatches re-run after a transient fault
            (worker death, transient exception, hang-watchdog victim).
        shards_salvaged: completed shard results preserved across pool
            restarts instead of being recomputed — the "re-enqueue,
            not a failed job" half of the fault-tolerance contract.
        pool_restarts: times the shared worker pool was torn down and
            rebuilt (broken or hung) during this run.
        shard_timeouts: shard dispatches abandoned by the hung-worker
            watchdog (see ``RetryPolicy.shard_timeout``).
        cache_write_failures: failed cache stores this run observed
            before degrading to read-only — shard results in the shard
            loop, segment blobs in the machine-program export.  The
            run's one store stops at its first failure, so this is
            ``int(cache_degraded)``.
        cache_degraded: the run stopped storing cache entries after a
            write failure (ENOSPC, read-only filesystem) — shard results
            and the export's segment blobs alike, since one store policy
            covers the whole run; lookups continue.
        cache_evictions: corrupt cache entries evicted by this run's
            own lookups (each also counts as a miss).
        dispatch: how shards were scheduled — ``"local"`` (this
            process's pool/serial ladder) or ``"distributed"`` (the
            lease coordinator of :mod:`repro.dist`; the ``dist`` group
            is then live).
        dist_workers: distinct worker daemons that contacted the
            coordinator during this run (the most any window saw).
        leases_granted: shard leases handed to workers (including
            re-grants after reclaims and speculative duplicates).
        leases_reclaimed: leases taken back when no longer heartbeated
            (dead workers, dropped commits) or past their deadline (hung
            shards) and re-queued.
        worker_deaths: workers that went silent while holding leases.
        heartbeats_missed: silence episodes past two heartbeat
            intervals from a lease-holding worker.
        speculative_wins: straggler re-executions whose result landed
            first (the duplicate beat the original lease).
        speculative_losses: speculative leases whose original finished
            first (the duplicate's work was discarded).
        duplicate_commits: byte-identical re-commits discarded by the
            coordinator (at-least-once delivery made visible).
        dist_local_fallbacks: shards the fleet — the recovery
            ladder's top rung — could not finish (attempt budget spent,
            no live workers) that the same ladder's pool and serial
            rungs completed instead.
        streamed: the run used the out-of-core field-window path
            (:meth:`~repro.core.pipeline.PreparationPipeline.run_streaming`)
            — source polygons were spooled to disk and only one shard
            row was resident at a time; the ``memory`` group is then
            live.
        stream_windows: shard-row windows dispatched by a streamed run.
        peak_window_bytes: high-water mark of one window's resident
            bytes (spooled source geometry read back for the window
            plus its serialized shard results) — the streamed
            counterpart of the machine-program writer's
            ``peak_segment_bytes`` witness.
        shards_spilled: completed shard results spilled to the run's
            spool instead of being held for the merge.
        spill_bytes: total serialized bytes spilled.
        spill_fallbacks: shard results held in memory because a spill
            store failed (ENOSPC, read-only filesystem) — the run
            degrades to an in-memory merge for those shards with one
            :class:`~repro.core.executor.SpillDegradedWarning`, never a
            crash.
    """

    shard_count: int = stat(1)
    occupied_shards: int = stat(1)
    workers: int = stat(1, merge="keep")
    parallel: bool = stat(False, merge="any")
    field_size: Optional[float] = stat(None, merge="keep")
    cache_enabled: bool = stat(False, merge="keep")
    cache_hits: int = stat(0)
    cache_misses: int = stat(0)
    hierarchy: str = stat("flat", merge="keep")
    cells_fractured: int = _cells()
    instances_reused: int = _cells()
    instances_fallback: int = _cells()
    kernel_fallbacks: int = stat(0, source="KernelFallbacks.total")
    kernel_coord_fallbacks: int = stat(0, source="KernelFallbacks.coord_limit")
    kernel_slab_fallbacks: int = stat(0, source="KernelFallbacks.rational_slab")
    kernel_merge_fallbacks: int = stat(0, source="KernelFallbacks.scalar_merge")
    shard_retries: int = stat(0, "faults", fault=True, totals="faults")
    shards_salvaged: int = stat(0, "faults", fault=True, totals="faults")
    pool_restarts: int = stat(0, "faults", fault=True, totals="faults")
    shard_timeouts: int = stat(0, "faults", fault=True, totals="faults")
    cache_write_failures: int = stat(0, "faults", fault=True, totals="faults")
    cache_degraded: bool = stat(False, "faults", merge="any", fault=True)
    cache_evictions: int = stat(0, "faults", totals="faults")
    dispatch: str = stat("local", merge="keep")
    dist_workers: int = _dist(merge="max", alias="workers", totals=None, observed=True)
    leases_granted: int = _dist()
    leases_reclaimed: int = _dist(fault=True)
    worker_deaths: int = _dist(fault=True)
    heartbeats_missed: int = _dist(fault=True)
    speculative_wins: int = _dist()
    speculative_losses: int = _dist()
    duplicate_commits: int = _dist()
    dist_local_fallbacks: int = _dist(alias="local_fallbacks")
    streamed: bool = stat(False, "memory", merge="keep")
    stream_windows: int = stat(0, "memory")
    peak_window_bytes: int = stat(0, "memory", merge="max")
    shards_spilled: int = stat(0, "memory")
    spill_bytes: int = stat(0, "memory")
    spill_fallbacks: int = stat(0, "memory", fault=True, totals="faults")

    def select(self, key: str, value) -> Dict[str, object]:
        """``{name: value}`` of the fields whose schema entry has
        ``key == value``, in declaration order — ``select("totals",
        "faults")`` is the ``faults`` body of ``GET /stats``, and
        ``select("observed", False)`` the record's content, what two
        runs of identical input agree on."""
        return {
            name: getattr(self, name)
            for name, entry in schema(type(self)).entries
            if entry[key] == value
        }

    @property
    def fault_events(self) -> int:
        """Total recovery events — nonzero iff the run degraded
        anywhere (the CLI prints its ``faults:`` line exactly then).
        Clean-run distributed counters (workers, granted leases,
        speculation outcomes) are not ``fault`` fields; reclaims, deaths
        and missed heartbeats are degradation and count."""
        return sum(int(count) for count in self.select("fault", True).values())

    def merge(self, other: "ExecutionStats") -> None:
        """Fold ``other`` into this record by each field's merge rule —
        a ladder's record, a fleet batch's, the service's cross-job
        totals."""
        # Through the instance dicts: half the time of a getattr/setattr
        # loop (≈ 3 µs a merge of the whole record).
        mine, theirs = vars(self), vars(other)
        for rule, names in schema(type(self)).merge.items():
            for name in names:
                mine[name] = rule(mine[name], theirs[name])

    def fold(self, record) -> None:
        """Fold one engine record (``KernelFallbacks``,
        ``HierarchicalFractureResult``) into the fields that name it as
        their ``source``, by their merge rule."""
        folded = schema(type(self)).fold.get(type(record).__name__, ())
        for name, attribute, rule in folded:
            value = getattr(record, attribute)
            value = value() if callable(value) else value
            setattr(self, name, rule(getattr(self, name), value))

    def to_json(self) -> dict:
        """The JSON view of the run — the service's ``execution``
        object: every live group, nested or not as :data:`GROUPS` says."""
        view: dict = {}
        layout = schema(type(self)).json
        for group, (nested, live) in GROUPS.items():
            if live(self):
                target = view.setdefault(group, {}) if nested else view
                target.update((key, getattr(self, name)) for name, key in layout[group])
        return view

    def lines(self) -> List[str]:
        """The CLI's run-statistics block (:data:`LINES`), one string
        per printed line.  A line appears only when it has something to
        say, so a clean unsharded run prints none."""
        lookups = self.cache_hits + self.cache_misses
        spilled = f"{self.shards_spilled} shards spilled ({self.spill_bytes:,} bytes)"
        held = f", {self.spill_fallbacks} held resident (spill degraded)"
        values = dict(
            vars(self),
            mode="parallel" if self.parallel else "serial",
            hit_rate=self.cache_hits / lookups if lookups else 0.0,
            evicted=f", {self.cache_evictions} evicted" if self.cache_evictions else "",
            spill=spilled if self.shards_spilled else "no shards spilled",
            held=held if self.spill_fallbacks else "",
            degraded=" (cache degraded to read-only)" if self.cache_degraded else "",
        )
        dist = self.select("group", "dist").values()
        return [text.format(*dist, **values) for shown, text in LINES if shown(self)]


#: The CLI block in print order: when a line is shown, and its text —
#: formatted with the record's fields plus the derived values
#: :meth:`ExecutionStats.lines` computes.  The ``dist`` line is exactly
#: its group's counters in declaration order and takes them
#: positionally.  ``ci.yml`` greps this text; it is a frozen contract.
LINES = (
    (
        lambda stats: stats.shard_count > 1,
        "  shards:    {occupied_shards}/{shard_count} occupied "
        "({field_size:g} µm fields, {workers} workers, {mode})",
    ),
    (
        GROUPS["cells"][1],
        "  hierarchy: {cells_fractured} cells fractured, "
        "{instances_reused} instances reused, {instances_fallback} fallback",
    ),
    (
        lambda stats: stats.cache_enabled,
        "  cache:     {cache_hits} hits, {cache_misses} misses "
        "({hit_rate:.0%} hit rate){evicted}",
    ),
    (
        GROUPS["memory"][1],
        "  memory:    streamed in {stream_windows} windows, "
        "peak {peak_window_bytes:,} bytes resident, {spill}{held}",
    ),
    (
        lambda stats: stats.fault_events,
        "  faults:    {shard_retries} shard retries, {shards_salvaged} salvaged, "
        "{pool_restarts} pool restarts, {shard_timeouts} timeouts, "
        "{cache_write_failures} cache write failures{degraded}",
    ),
    (
        GROUPS["dist"][1],
        "  dist:      {} workers, {} leases granted, {} reclaimed, {} deaths, "
        "{} heartbeats missed, {}/{} speculative wins/losses, "
        "{} duplicate commits, {} local fallbacks",
    ),
    (
        lambda stats: stats.kernel_fallbacks,
        "  kernel:    {kernel_fallbacks} fast-path fallbacks "
        "({kernel_coord_fallbacks} coord-limit, "
        "{kernel_slab_fallbacks} rational-slab, "
        "{kernel_merge_fallbacks} scalar-merge)",
    ),
)
