"""Tests for the parallel field-sharded execution."""

import contextlib
import dataclasses
import operator
import re
import warnings

import pytest

from repro.core.executor import (
    ExecutionStats,
    ShardOverlapWarning,
    merge_shard_results,
    plan_shards,
    _process_shard,
)
from repro.core.hierarchical import HierarchicalFractureResult
from repro.core.pipeline import PreparationPipeline
from repro.core.stats import stat
from repro.fracture.quality import analyze_figures, merge_reports
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.scanline_fast import KernelFallbacks
from repro.layout import generators
from repro.layout.flatten import flatten_cell
from repro.layout.layer import Layer
from repro.pec.dose_iter import IterativeDoseCorrector


def shot_key(shot):
    t = shot.trapezoid
    return (
        t.y_bottom,
        t.y_top,
        t.x_bottom_left,
        t.x_bottom_right,
        t.x_top_left,
        t.x_top_right,
        shot.dose,
    )


def grid_of_squares(cols, rows, pitch=10.0, side=4.0):
    return [
        Polygon.rectangle(
            c * pitch, r * pitch, c * pitch + side, r * pitch + side
        )
        for r in range(rows)
        for c in range(cols)
    ]


class TestPlanShards:
    def test_no_field_size_gives_single_shard(self):
        polys = grid_of_squares(3, 3)
        plan = plan_shards(polys)
        assert len(plan) == 1
        assert plan[0].index == (0, 0)
        assert len(plan[0].polygons) == 9

    def test_empty_input(self):
        assert plan_shards([], field_size=10.0) == []

    def test_sharding_covers_all_polygons(self):
        polys = grid_of_squares(4, 4)
        plan = plan_shards(polys, field_size=20.0)
        assert sum(len(s.polygons) for s in plan) == len(polys)
        assert len(plan) == 4

    def test_row_major_order(self):
        polys = grid_of_squares(4, 4)
        plan = plan_shards(polys, field_size=20.0)
        indices = [s.index for s in plan]
        assert indices == sorted(indices, key=lambda ij: (ij[1], ij[0]))

    def test_rejects_bad_field_size(self):
        with pytest.raises(ValueError):
            plan_shards(grid_of_squares(1, 1), field_size=0.0)


class TestDeterminism:
    """The plan is the worker count's to leave alone; that the bytes are
    too is the conformance matrix's ``workers`` axis."""

    def test_worker_count_never_changes_plan(self):
        polys = grid_of_squares(5, 5)
        for workers in (1, 2, 5):
            result = PreparationPipeline(workers=workers, field_size=25.0).run(polys)
            assert result.execution.shard_count == 4


class TestShardMerge:
    def test_merge_preserves_shard_order(self):
        polys = grid_of_squares(4, 2, pitch=20.0, side=6.0)
        plan = plan_shards(polys, field_size=20.0)
        fracturer = TrapezoidFracturer()
        results = [
            _process_shard(shard, fracturer, None, None) for shard in plan
        ]
        merged = merge_shard_results(
            results, corrected=False, stats=None
        )
        expected = [k for r in results for k in map(shot_key, r.shots)]
        assert [shot_key(s) for s in merged.shots] == expected

    def test_merged_report_matches_unsharded_totals(self):
        polys = grid_of_squares(4, 4)
        whole = PreparationPipeline().run(polys)
        sharded = PreparationPipeline(field_size=20.0).run(polys)
        assert (
            sharded.fracture_report.figure_count
            == whole.fracture_report.figure_count
        )
        assert sharded.fracture_report.total_area == pytest.approx(
            whole.fracture_report.total_area
        )

    def test_merge_reports_adds_left_to_right(self):
        # A compensated sum (builtin ``sum`` on CPython >= 3.12) gives
        # 1.0000000000000002 here; left to right it is 1.0 everywhere.
        empty = analyze_figures([])
        reports = [
            dataclasses.replace(empty, figure_count=1, total_area=area)
            for area in (1.0, 1e-16, 1e-16)
        ]
        assert merge_reports(reports).total_area == 1.0

    def test_resident_and_streamed_reports_are_equal(self):
        # One sink merges both doors' reports, against one reference sum.
        die = generators.fresnel_zone_plate().top_cell()
        polys = [poly for polys in flatten_cell(die).values() for poly in polys]
        pipe = PreparationPipeline(field_size=5.0)
        resident = pipe.run(polys)
        streamed = pipe.run_streaming(iter(polys))
        assert resident.execution.shard_count > 1
        assert streamed.fracture_report == resident.fracture_report

    def test_merge_reports_empty(self):
        report = merge_reports([])
        assert report.figure_count == 0
        merged_with_empty = merge_reports(
            [analyze_figures([]), analyze_figures([])]
        )
        assert merged_with_empty.figure_count == 0


class TestWorkersFallback:
    def test_workers_one_never_uses_pool(self):
        polys = grid_of_squares(4, 4)
        result = PreparationPipeline(workers=1, field_size=20.0).run(polys)
        assert result.execution.parallel is False
        assert result.execution.workers == 1

    def test_single_shard_never_uses_pool(self):
        polys = grid_of_squares(3, 3)
        result = PreparationPipeline(workers=4).run(polys)
        assert result.execution.shard_count == 1
        assert result.execution.parallel is False

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            PreparationPipeline(workers=-2)

    def test_default_run_is_single_shard_serial(self):
        result = PreparationPipeline().run(generators.grating(lines=5))
        assert result.execution.shard_count == 1
        assert result.execution.parallel is False
        assert result.job.figure_count() == 5


class TestPerRunSources:
    def test_pooled_runs_match_serial_runs(self):
        sources = [generators.grating(lines=4), generators.grating(lines=7)]
        pooled = PreparationPipeline(workers=2, field_size=15.0)
        serial = PreparationPipeline(workers=1, field_size=15.0)
        for source in sources:
            assert [shot_key(x) for x in pooled.run(source).job.shots] == [
                shot_key(x) for x in serial.run(source).job.shots
            ]

    def test_run_takes_a_name(self):
        result = PreparationPipeline().run(generators.grating(lines=3), name="custom")
        assert result.job.name == "custom"

    def test_one_run_per_layer_prepares_each_layer(self):
        from repro.layout.cell import Cell

        cell = Cell("TWO_LAYERS")
        cell.add_rectangle(0, 0, 5, 5, Layer(1))
        cell.add_rectangle(10, 0, 25, 5, Layer(2))
        pipe = PreparationPipeline(workers=2)
        for layer, area in ((Layer(1), 25.0), (Layer(2), 75.0)):
            result = pipe.run(cell, layer=layer, name=f"TWO_LAYERS:{layer}")
            assert result.job.figure_count() == 1
            assert result.job.name == f"TWO_LAYERS:{layer}"
            assert result.fracture_report.total_area == area


class TestOverlapPolicy:
    """Regression: cross-shard overlaps must not double-count silently.

    The PR 1 engine documented (docstring caveat) that overlaps between
    polygons of different shards are exposed twice; with cached shard
    results such a layout would replay the double-count on every warm
    run.  Sharded planning now warns on it, or unions it away.
    """

    def overlapping_layout(self):
        """Two overlapping rectangles whose bbox centres land in
        different 20 µm fields."""
        return [
            Polygon.rectangle(0.0, 0.0, 18.0, 6.0),
            Polygon.rectangle(14.0, 0.0, 30.0, 6.0),
        ]

    def test_cross_shard_overlap_warns(self):
        with pytest.warns(ShardOverlapWarning):
            plan = plan_shards(self.overlapping_layout(), field_size=20.0)
        assert len(plan) == 2  # plan itself is unchanged by the warning

    def test_pipeline_run_surfaces_the_warning(self):
        with pytest.warns(ShardOverlapWarning):
            PreparationPipeline(field_size=20.0).run(self.overlapping_layout())

    def test_union_policy_removes_double_count(self):
        polys = self.overlapping_layout()
        whole = PreparationPipeline().run(polys)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            sharded = PreparationPipeline(
                field_size=20.0, overlap_policy="union"
            ).run(polys)
        assert sharded.fracture_report.total_area == pytest.approx(
            whole.fracture_report.total_area
        )

    def test_warn_policy_double_counts_as_documented(self):
        polys = self.overlapping_layout()
        whole = PreparationPipeline().run(polys)
        with pytest.warns(ShardOverlapWarning):
            sharded = PreparationPipeline(field_size=20.0).run(polys)
        overlap_area = 4.0 * 6.0  # x in [14, 18], y in [0, 6]
        assert sharded.fracture_report.total_area == pytest.approx(
            whole.fracture_report.total_area + overlap_area
        )

    def test_disjoint_layout_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            plan_shards(grid_of_squares(6, 6), field_size=20.0)

    def test_abutting_polygons_do_not_warn(self):
        """Edge- and corner-touching across a field boundary is the
        normal mosaic case, not an overlap."""
        polys = [
            Polygon.rectangle(0.0, 0.0, 18.0, 6.0),
            Polygon.rectangle(18.0, 0.0, 36.0, 6.0),  # shares the x=18 edge
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            plan_shards(polys, field_size=18.0)

    def test_ignore_policy_skips_check(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            plan_shards(
                self.overlapping_layout(),
                field_size=20.0,
                overlap_policy="ignore",
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(grid_of_squares(2, 2), overlap_policy="explode")

    def test_same_shard_overlap_is_fine(self):
        """Overlap inside one shard is unioned by the fracture step."""
        polys = [
            Polygon.rectangle(0.0, 0.0, 6.0, 6.0),
            Polygon.rectangle(4.0, 0.0, 10.0, 6.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardOverlapWarning)
            result = PreparationPipeline(field_size=50.0).run(polys)
        assert result.fracture_report.total_area == pytest.approx(
            10.0 * 6.0
        )


class TestPipelineRun:
    def test_corrector_requires_psf(self):
        with pytest.raises(ValueError, match="a corrector requires a PSF"):
            PreparationPipeline(corrector=IterativeDoseCorrector())

    def test_execute_empty(self):
        outcome = PreparationPipeline().run([])
        assert outcome.job.shots == []
        assert outcome.fracture_report.figure_count == 0
        assert outcome.corrected is False


class TestProgressCallback:
    """Per-shard progress reporting (the service's job status feed)."""

    def _run(self, polygons, **knobs):
        events = []
        pipe = PreparationPipeline(
            progress=lambda done, total: events.append((done, total)), **knobs
        )
        return pipe.run(polygons), events

    def test_serial_progress_counts_every_shard(self):
        result, events = self._run(grid_of_squares(3, 2), field_size=10.0)
        total = result.execution.shard_count
        assert events[0] == (0, total)
        assert events[1:] == [(i + 1, total) for i in range(total)]

    def test_progress_never_changes_results(self):
        polygons = grid_of_squares(3, 3)
        silent = PreparationPipeline(field_size=10.0).run(polygons)
        result, events = self._run(polygons, field_size=10.0)
        assert [shot_key(s) for s in result.job.shots] == [
            shot_key(s) for s in silent.job.shots
        ]
        assert events  # the callback really fired

    def test_cache_hits_report_progress_immediately(self, tmp_path):
        from repro.core.cache import ShardCache

        cache = ShardCache(tmp_path / "cache")
        polygons = grid_of_squares(2, 2)
        self._run(polygons, field_size=10.0, cache=cache)  # cold: fill the cache
        result, events = self._run(polygons, field_size=10.0, cache=cache)  # warm
        total = result.execution.shard_count
        assert result.execution.cache_hits == total
        assert events == [(0, total)] + [
            (i + 1, total) for i in range(total)
        ]

    def test_single_shard_still_reports(self):
        _, events = self._run(grid_of_squares(2, 1))
        assert events == [(0, 1), (1, 1)]

    def test_pipeline_threads_progress_through(self):
        events = []
        pipeline = PreparationPipeline(
            field_size=15.0,
            progress=lambda done, total: events.append((done, total)),
        )
        result = pipeline.run(generators.fresnel_zone_plate(), name="fzp")
        total = result.execution.shard_count
        assert events[0] == (0, total)
        assert events[-1] == (total, total)
        assert len(events) == total + 1

    def test_pooled_progress_reports_every_shard(self):
        result, events = self._run(grid_of_squares(4, 2), field_size=10.0, workers=2)
        total = result.execution.shard_count
        # Pool completion order is nondeterministic, but the running
        # count is: one tick per shard, monotonically increasing.
        assert events[0] == (0, total)
        assert [done for done, _ in events[1:]] == list(range(1, total + 1))
        assert all(t == total for _, t in events)


def lend(monkeypatch, *pools):
    """Make the shared pool's lease hand out ``pools`` in turn; returns
    the list every returned lease is appended to."""
    from repro.core import ladder

    returned = []

    @contextlib.contextmanager
    def lease(size):
        pool = pools[min(len(returned), len(pools) - 1)]
        try:
            yield pool
        finally:
            returned.append(pool)

    monkeypatch.setattr(ladder._shared_pool, "lease", lease)
    return returned


class TestSharedPoolLifecycle:
    """The shared pool under concurrent use: leases and cancellation.

    A job server's worker threads hit the pool concurrently with
    per-job ``workers`` settings; a resize must never tear the pool
    down under another run, and a cancellation leaking out of the pool
    must degrade to the serial path instead of escaping (it is a
    BaseException on supported Pythons, so an escape would kill a
    service's queue-worker thread for good).
    """

    def test_resize_request_reuses_pool_while_leased(self):
        from repro.core.ladder import _shared_pool, worker_pool_status

        _shared_pool.shutdown()
        try:
            with _shared_pool.lease(2) as first:
                # A concurrent run asking for a different size must not
                # shut the leased pool down — it reuses the live one.
                with _shared_pool.lease(3) as second:
                    assert second is first
                    assert worker_pool_status() == {"size": 2, "alive": True}
            # With every lease returned, a new size rebuilds the pool.
            with _shared_pool.lease(3) as rebuilt:
                assert rebuilt is not first
                assert worker_pool_status() == {"size": 3, "alive": True}
        finally:
            _shared_pool.shutdown()
        assert worker_pool_status() == {"size": 0, "alive": False}

    @pytest.mark.parametrize("with_tick", [False, True])
    def test_cancelled_mid_map_falls_back_to_serial(
        self, monkeypatch, with_tick
    ):
        from concurrent.futures import CancelledError

        from repro.core import executor as ex

        class CancellingPool:
            def map(self, *args, **kwargs):
                raise CancelledError()

            def submit(self, *args, **kwargs):
                raise CancelledError()

        returned = lend(monkeypatch, CancellingPool())
        shards = plan_shards(grid_of_squares(4, 2), field_size=10.0)
        config = (TrapezoidFracturer(), None, None)
        ticks = []
        tick = (lambda: ticks.append(1)) if with_tick else None
        ladder = ex._map_shards(shards, config, workers=2, tick=tick)
        assert not ladder.stats.parallel
        assert len(returned) == 1
        assert ladder.stats.pool_restarts == 0
        expected = [_process_shard(s, *config) for s in shards]
        assert [
            [shot_key(shot) for shot in r.shots] for r in ladder.results
        ] == [[shot_key(shot) for shot in r.shots] for r in expected]
        if with_tick:
            assert len(ticks) == len(shards)

    def test_explicit_shutdown_is_safe_and_idempotent(self):
        from repro.core import executor as ex

        ex.shutdown_worker_pool()
        ex.shutdown_worker_pool()
        assert ex.worker_pool_status() == {"size": 0, "alive": False}


class TestFaultRecovery:
    """Shard-level recovery: salvage on pool death, transient retry,
    fail-fast on deterministic failures — all with byte-identical
    results versus a clean serial run."""

    def _shards_and_config(self):
        shards = plan_shards(grid_of_squares(4, 2), field_size=10.0)
        config = (TrapezoidFracturer(), None, None)
        return shards, config

    def _keys(self, results):
        return [[shot_key(shot) for shot in r.shots] for r in results]

    def test_pool_death_salvages_completed_shards(self, monkeypatch):
        from concurrent.futures import BrokenExecutor, Future

        from repro.core import executor as ex
        from repro.core import ladder

        shards, config = self._shards_and_config()
        n = len(shards)
        k = 3

        class InlinePool:
            def __init__(self):
                self.computed = 0

            def submit(self, fn, task):
                self.computed += 1
                future = Future()
                future.set_result(fn(task))
                return future

        class BreakingPool(InlinePool):
            """Completes k submissions, then the pool is broken."""

            def submit(self, fn, task):
                if self.computed >= k:
                    raise BrokenExecutor("worker died mid-shard")
                return super().submit(fn, task)

        pools = [BreakingPool(), InlinePool()]
        recycled = []
        lend(monkeypatch, *pools)
        monkeypatch.setattr(
            ladder._shared_pool,
            "recycle",
            lambda pool, kill_workers=False: recycled.append(pool),
        )
        outcome = ex._map_shards(
            shards,
            config,
            workers=2,
            retry=ex.RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        stats = outcome.stats
        assert stats.parallel
        assert recycled == [pools[0]]
        assert stats.pool_restarts == 1
        # Salvage contract: completed shards keep their results; only
        # the unfinished remainder lands on the fresh pool.
        assert stats.shards_salvaged == k
        assert pools[0].computed == k
        assert pools[1].computed == n - k
        # Only the shard whose submit broke was dispatched twice.
        assert stats.shard_retries == 1
        assert outcome.attempts == [1] * k + [2] + [1] * (n - k - 1)
        expected = [_process_shard(s, *config) for s in shards]
        assert self._keys(outcome.results) == self._keys(expected)

    def test_transient_fault_is_one_retry_of_that_shard(self, monkeypatch):
        from concurrent.futures import Future

        from repro.core import executor as ex
        from repro.core.faults import FaultPlan

        shards, config = self._shards_and_config()

        class InlinePool:
            def submit(self, fn, task):
                future = Future()
                try:
                    future.set_result(fn(task))
                except Exception as exc:
                    future.set_exception(exc)
                return future

        lend(monkeypatch, InlinePool())
        plan = FaultPlan(transient=frozenset({(2, 0)})).arm()
        outcome = ex._map_shards(
            shards,
            config,
            workers=2,
            faults=plan,
            retry=ex.RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        assert outcome.stats.parallel and len(outcome.results) == len(shards)
        assert outcome.attempts[2] == 2
        assert outcome.attempts[:2] + outcome.attempts[3:] == [1] * (len(shards) - 1)
        assert outcome.stats.shard_retries == 1
        assert outcome.stats.pool_restarts == 0

    def test_permanent_fault_fails_fast(self):
        from repro.core import executor as ex
        from repro.core.faults import FaultPlan, InjectedFaultError

        shards, config = self._shards_and_config()
        plan = FaultPlan(permanent=frozenset({(1, 0)})).arm()
        with pytest.raises(InjectedFaultError):
            ex._map_shards(
                shards,
                config,
                workers=1,
                faults=plan,
                retry=ex.RetryPolicy(max_attempts=3, backoff_base=0.0),
            )

    def test_exhausted_transient_raises(self):
        from repro.core import executor as ex
        from repro.core.faults import FaultPlan, TransientFaultError

        shards, config = self._shards_and_config()
        plan = FaultPlan(
            transient=frozenset({(0, 0), (0, 1)})
        ).arm()
        with pytest.raises(TransientFaultError):
            ex._map_shards(
                shards,
                config,
                workers=1,
                faults=plan,
                retry=ex.RetryPolicy(max_attempts=2, backoff_base=0.0),
            )


class TestWarmPoolFailureConsistency:
    """warm_worker_pool's failure paths must leave the shared pool in a
    consistent state: every lease returned, the pool reset unless a
    concurrent tenant still holds a lease."""

    def _dead_map(self, *args, **kwargs):
        from concurrent.futures import CancelledError

        raise CancelledError()

    def test_warm_failure_releases_and_resets(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.core import ladder

        ladder.shutdown_worker_pool()
        monkeypatch.setattr(ProcessPoolExecutor, "map", self._dead_map)
        assert ladder.warm_worker_pool(2) == 0
        assert ladder._shared_pool._leases == 0
        assert ladder.worker_pool_status() == {"size": 0, "alive": False}

    def test_warm_lease_failure_returns_zero(self, monkeypatch):
        import concurrent.futures
        from concurrent.futures import BrokenExecutor

        from repro.core import ladder

        ladder.shutdown_worker_pool()

        def refuse(max_workers):
            raise BrokenExecutor("platform refuses to spawn")

        # The ladder imports the pool class where it builds the pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert ladder.warm_worker_pool(2) == 0
        assert ladder._shared_pool._leases == 0
        assert ladder.worker_pool_status() == {"size": 0, "alive": False}

    def test_warm_failure_spares_leased_tenant(self, monkeypatch):
        from repro.core import ladder

        ladder.shutdown_worker_pool()
        try:
            # A concurrent run's live lease on the pool warm-up will use.
            with ladder._shared_pool.lease(2) as tenant:
                monkeypatch.setattr(tenant, "map", self._dead_map)
                assert ladder.warm_worker_pool(2) == 0
                # The tenant's pool must survive the warm-up failure.
                assert ladder.worker_pool_status() == {"size": 2, "alive": True}
            assert ladder._shared_pool._leases == 0
        finally:
            ladder.shutdown_worker_pool()


# ---------------------------------------------------------------------------
# The stats schema is the single source of every counter's plumbing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _WithWidget(ExecutionStats):
    """The schema plus one fault counter, declared like any other."""

    widget_faults: int = stat(0, "faults", fault=True, totals="faults")


#: One distinct value per counter, so a swapped or dropped field shows.
_POPULATED = dict(
    shard_count=12,
    occupied_shards=11,
    workers=4,
    parallel=True,
    field_size=25.0,
    cache_enabled=True,
    cache_hits=7,
    cache_misses=5,
    cells_fractured=3,
    instances_reused=40,
    instances_fallback=2,
    kernel_fallbacks=10,
    kernel_coord_fallbacks=6,
    kernel_slab_fallbacks=3,
    kernel_merge_fallbacks=1,
    shard_retries=13,
    shards_salvaged=14,
    pool_restarts=15,
    shard_timeouts=16,
    cache_write_failures=17,
    cache_degraded=True,
    cache_evictions=18,
    dist_workers=19,
    leases_granted=20,
    leases_reclaimed=21,
    worker_deaths=22,
    heartbeats_missed=23,
    speculative_wins=24,
    speculative_losses=25,
    duplicate_commits=26,
    dist_local_fallbacks=27,
    stream_windows=28,
    peak_window_bytes=29000,
    shards_spilled=30,
    spill_bytes=31000,
    spill_fallbacks=32,
)

#: The mode switches of the four record kinds.
_MODES = {
    "resident": {},
    "streamed": {"streamed": True},
    "cells": {"hierarchy": "cells"},
    "distributed": {"dispatch": "distributed"},
}

#: The per-field loops ``merge`` and ``fold`` ran before the schema was
#: compiled: every field's metadata, read on every call.
_RULES = {
    "sum": operator.add,
    "max": max,
    "any": lambda mine, theirs: mine or theirs,
    "keep": lambda mine, theirs: mine,
}


def _merge_oracle(stats, other):
    for f in dataclasses.fields(stats):
        rule = _RULES[f.metadata["merge"]]
        setattr(stats, f.name, rule(getattr(stats, f.name), getattr(other, f.name)))


def _fold_oracle(stats, record):
    for f in dataclasses.fields(stats):
        source, _, attr = (f.metadata["source"] or "").partition(".")
        if source == type(record).__name__:
            value = getattr(record, attr or f.name)
            value = value() if callable(value) else value
            rule = _RULES[f.metadata["merge"]]
            setattr(stats, f.name, rule(getattr(stats, f.name), value))


#: Frozen contract: the service's ``execution`` view as the hand-written
#: ``_stats_view`` produced it before the schema generated it.  The part
#: every record has, then what each mode adds.
_VIEW_COMMON = {
    "shard_count": 12,
    "occupied_shards": 11,
    "workers": 4,
    "parallel": True,
    "field_size": 25.0,
    "cache_enabled": True,
    "cache_hits": 7,
    "cache_misses": 5,
    "kernel_fallbacks": 10,
    "kernel_coord_fallbacks": 6,
    "kernel_slab_fallbacks": 3,
    "kernel_merge_fallbacks": 1,
    "faults": {
        "shard_retries": 13,
        "shards_salvaged": 14,
        "pool_restarts": 15,
        "shard_timeouts": 16,
        "cache_write_failures": 17,
        "cache_degraded": True,
        "cache_evictions": 18,
    },
}
_VIEW = {
    "resident": {"hierarchy": "flat", "dispatch": "local"},
    "streamed": {
        "hierarchy": "flat",
        "dispatch": "local",
        "memory": {
            "streamed": True,
            "stream_windows": 28,
            "peak_window_bytes": 29000,
            "shards_spilled": 30,
            "spill_bytes": 31000,
            "spill_fallbacks": 32,
        },
    },
    "cells": {
        "hierarchy": "cells",
        "dispatch": "local",
        "cells_fractured": 3,
        "instances_reused": 40,
        "instances_fallback": 2,
    },
    "distributed": {
        "hierarchy": "flat",
        "dispatch": "distributed",
        "dist": {
            "workers": 19,
            "leases_granted": 20,
            "leases_reclaimed": 21,
            "worker_deaths": 22,
            "heartbeats_missed": 23,
            "speculative_wins": 24,
            "speculative_losses": 25,
            "duplicate_commits": 26,
            "local_fallbacks": 27,
        },
    },
}

#: Frozen contract: the CLI block as ``_print_result`` printed it.
_SHARDS = "  shards:    11/12 occupied (25 µm fields, 4 workers, parallel)"
_CACHE = "  cache:     7 hits, 5 misses (58% hit rate), 18 evicted"
_FAULTS = (
    "  faults:    13 shard retries, 14 salvaged, 15 pool restarts, "
    "16 timeouts, 17 cache write failures (cache degraded to read-only)"
)
_KERNEL = (
    "  kernel:    10 fast-path fallbacks "
    "(6 coord-limit, 3 rational-slab, 1 scalar-merge)"
)
_LINES = {
    "resident": [_SHARDS, _CACHE, _FAULTS, _KERNEL],
    "streamed": [
        _SHARDS,
        _CACHE,
        "  memory:    streamed in 28 windows, peak 29,000 bytes resident, "
        "30 shards spilled (31,000 bytes), 32 held resident (spill degraded)",
        _FAULTS,
        _KERNEL,
    ],
    "cells": [
        _SHARDS,
        "  hierarchy: 3 cells fractured, 40 instances reused, 2 fallback",
        _CACHE,
        _FAULTS,
        _KERNEL,
    ],
    "distributed": [
        _SHARDS,
        _CACHE,
        _FAULTS,
        "  dist:      19 workers, 20 leases granted, 21 reclaimed, 22 deaths, "
        "23 heartbeats missed, 24/25 speculative wins/losses, "
        "26 duplicate commits, 27 local fallbacks",
        _KERNEL,
    ],
}


class TestStatsSchema:
    def test_executor_reexports_the_schema(self):
        from repro.core import executor, stats

        assert executor.ExecutionStats is stats.ExecutionStats

    def test_new_counter_is_one_declaration(self):
        total = _WithWidget(shard_retries=1, widget_faults=2)
        assert total.fault_events == 3
        total.merge(_WithWidget(widget_faults=3))
        assert total.widget_faults == 5
        assert total.to_json()["faults"]["widget_faults"] == 5
        # What GET /stats would report under ``faults``.
        assert total.select("totals", "faults")["widget_faults"] == 5
        assert "widget_faults" not in ExecutionStats().to_json()["faults"]

    @pytest.mark.parametrize("kind", sorted(_MODES))
    def test_json_view_matches_frozen_contract(self, kind):
        stats = ExecutionStats(**_POPULATED, **_MODES[kind])
        assert stats.to_json() == {**_VIEW_COMMON, **_VIEW[kind]}

    @pytest.mark.parametrize("kind", sorted(_MODES))
    def test_cli_block_matches_frozen_contract(self, kind):
        stats = ExecutionStats(**_POPULATED, **_MODES[kind])
        assert stats.lines() == _LINES[kind]

    def test_clean_unsharded_run_prints_nothing(self):
        assert ExecutionStats().lines() == []
        assert ExecutionStats().fault_events == 0

    @pytest.mark.parametrize("kind", [*sorted(_MODES), "widget"])
    def test_merge_and_fold_equal_the_per_field_loop(self, kind):
        cls = _WithWidget if kind == "widget" else ExecutionStats
        mine = dict(_POPULATED, **_MODES.get(kind, {}))
        # Every count tripled and every flag left at its default, so each
        # rule — ``keep`` and ``max`` included — picks a side that shows.
        theirs = {
            name: value * 3 for name, value in mine.items() if type(value) is int
        }
        if kind == "widget":
            mine["widget_faults"], theirs["widget_faults"] = 2, 5
        for a, b in ((mine, theirs), (theirs, mine)):
            got, want = cls(**a), cls(**a)
            got.merge(cls(**b))
            _merge_oracle(want, cls(**b))
            assert got == want
        records = (
            KernelFallbacks(coord_limit=6, rational_slab=3, scalar_merge=1),
            HierarchicalFractureResult(
                cells_fractured=3, instances_reused=40, instances_fallback=2
            ),
        )
        got, want = cls(**mine), cls(**mine)
        for record in records:
            got.fold(record)
            _fold_oracle(want, record)
        assert got == want != cls(**mine)

    def test_observed_fields_are_not_content(self):
        base = ExecutionStats(
            **_POPULATED, streamed=True, hierarchy="cells", dispatch="distributed"
        )
        content = base.select("observed", False)
        # The fields reruns of one fleet scenario were seen to move.
        assert list(base.select("observed", True)) == ["dist_workers"]
        moved = dataclasses.replace(base, dist_workers=1)
        assert moved != base and moved.select("observed", False) == content
        defaults = ExecutionStats()
        for name in content:
            changed = dataclasses.replace(base, **{name: getattr(defaults, name)})
            assert changed.select("observed", False) != content, name
        assert stat(0, observed=True).metadata["observed"] is True
        with pytest.raises(TypeError):
            stat(0, observable=True)

    def test_every_field_is_declared_and_documented(self):
        documented = set(
            re.findall(r"^ {8}(\w+):", ExecutionStats.__doc__, re.MULTILINE)
        )
        for f in dataclasses.fields(ExecutionStats):
            assert f.name in documented, f"{f.name} has no Attributes: entry"
            assert f.metadata.get("group"), f"{f.name} is outside the schema"
