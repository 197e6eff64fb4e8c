"""Deterministic chaos suite: every fault mode, byte-identical output.

The load-bearing invariant of the fault-tolerance layer: any injected
fault schedule that ends in success produces artifacts byte-identical
to a clean run's, with the recovery visible in the stats counters —
never silently absorbed, never altering a single output byte.  Fault
schedules are keyed by ``(position, attempt)`` with no wall-clock or
RNG, so each scenario replays identically.

The clean run is not made here: scenarios run on columns of the
conformance matrix (``tools/conformance.py``) and must equal that
column's reference.  The matrix's own ``faults`` axis already holds a
transient fault and a killed pool worker to it in every mode; what is
left here is the counter arithmetic and the fault kinds the axis does
not have (hangs, permanent faults, cache corruption, ENOSPC, and the
two gauntlets that stack them).
"""

import os
import random
import struct
import threading
import time

import pytest

import conformance
from chaos import FAST_RETRY, cache_entry_paths, corrupt_entries, faulted
from repro.core.cache import CacheDegradedWarning, ShardCache
from repro.core.executor import Deadline, RetryPolicy, shutdown_worker_pool
from repro.core.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultyCache,
    InjectedFaultError,
    TransientFaultError,
)
from repro.core.jobfile import dumps_job

@pytest.fixture(autouse=True)
def fresh_pool():
    """Chaos scenarios break/kill the shared pool on purpose — start
    and leave every test with no pool so scenarios never interact."""
    shutdown_worker_pool()
    yield
    shutdown_worker_pool()


#: Three shards of Manhattan data, and six of PEC-corrected curves.
GRATING = conformance.COLUMNS["grating-vsb-fracture"]
FZP = conformance.COLUMNS["fzp-pec-vsb"]


def clean_job(column):
    return conformance.reference(column).ebj


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.2)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.2)
        assert policy.backoff(10) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            policy.backoff(0)

    def test_classification_transient_vs_permanent(self):
        from concurrent.futures import BrokenExecutor

        policy = RetryPolicy()
        assert policy.is_transient(BrokenExecutor("worker died"))
        assert policy.is_transient(OSError("infra trouble"))
        assert policy.is_transient(TransientFaultError("injected"))
        assert not policy.is_transient(ValueError("bad shard data"))
        assert not policy.is_transient(InjectedFaultError("injected"))

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_attempts": 0},
            {"max_attempts": 1.5},
            {"max_attempts": True},
            {"backoff_base": -0.1},
            {"backoff_cap": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -2.0},
            {"shard_timeout": True},
        ],
    )
    def test_bad_values_raise(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)


class TestFaultPlan:
    def test_from_json_roundtrip(self):
        plan = FaultPlan.from_json(
            '{"kill_worker": [[1, 0]], "transient": [[0, 0], [0, 1]], '
            '"enospc_puts": [0, 3], "hang_seconds": 2.5}'
        )
        assert plan.kill_worker == frozenset({(1, 0)})
        assert plan.transient == frozenset({(0, 0), (0, 1)})
        assert plan.enospc_puts == frozenset({0, 3})
        assert plan.hang_seconds == 2.5
        assert plan.coordinator_pid is None

    def test_rebased_shifts_every_pair_kind(self):
        plan = FaultPlan(
            transient=frozenset({(0, 0), (3, 1)}),
            dead_worker=frozenset({(4, 0)}),
            enospc_puts=frozenset({2}),
        )
        later = plan.rebased(3)
        # Positions behind the window drop out; the rest shift down.
        assert later.transient == frozenset({(0, 1)})
        assert later.dead_worker == frozenset({(1, 0)})
        # Store ordinals are not work-list positions.
        assert later.enospc_puts == frozenset({2})
        assert plan.rebased(0) == plan

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"explode": [[0, 0]]}',
            '{"transient": [[0]]}',
            '{"transient": [[0, -1]]}',
            '{"enospc_puts": [-1]}',
            '{"hang_seconds": 0}',
        ],
    )
    def test_bad_plans_rejected(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_json(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV_VAR, '{"transient": [[2, 0]]}')
        plan = FaultPlan.from_env()
        assert plan.transient == frozenset({(2, 0)})

    def test_cli_arms_a_plan_from_the_environment(self, monkeypatch, capsys):
        # The CLI imports the injector only when the variable is set;
        # the conformance matrix's faults axis checks the bytes.
        from repro.cli import main

        monkeypatch.setenv(FAULTS_ENV_VAR, '{"transient": [[0, 0]]}')
        assert main(["demo", "--workload", "grating", "--field-size", "50"]) == 0
        assert "  faults:    1 shard retries," in capsys.readouterr().out

    def test_kill_and_hang_never_fire_in_coordinator(self):
        # The armed coordinator must survive its own kill/hang schedule
        # (serial replays of a pool schedule run in-process) — if this
        # assertion is reachable, the guard works.
        plan = FaultPlan(
            kill_worker=frozenset({(0, 0)}),
            hang=frozenset({(1, 0)}),
            hang_seconds=60.0,
        ).arm()
        assert plan.coordinator_pid == os.getpid()
        plan.fire(0, 0)
        plan.fire(1, 0)

    def test_transient_fires_anywhere(self):
        plan = FaultPlan(transient=frozenset({(0, 0)})).arm()
        with pytest.raises(TransientFaultError):
            plan.fire(0, 0)
        plan.fire(0, 1)  # other attempts untouched


class TestShardFaultScenarios:
    """Each fault kind against a real worker pool: identical bytes,
    the recovery visible in the counters."""

    def test_transient_fault_is_exactly_one_retry(self):
        stats = faulted(
            GRATING, FaultPlan(transient=frozenset({(0, 0)})), workers=2
        ).execution
        assert stats.shard_retries == 1
        assert stats.pool_restarts == 0
        assert stats.shard_timeouts == 0

    def test_hung_worker_times_out_and_matches(self):
        plan = FaultPlan(hang=frozenset({(0, 0)}), hang_seconds=30.0)
        retry = RetryPolicy(
            max_attempts=3, backoff_base=0.0, shard_timeout=0.75
        )
        result = faulted(GRATING, plan, retry, workers=2)
        stats = result.execution
        assert stats.shard_timeouts >= 1
        assert stats.pool_restarts >= 1
        assert stats.shard_retries >= 1
        assert dumps_job(result.job) == clean_job(GRATING)

    def test_permanent_fault_fails_fast(self):
        plan = FaultPlan(permanent=frozenset({(0, 0)}))
        with pytest.raises(InjectedFaultError):
            faulted(GRATING, plan, workers=2)

    def test_exhausted_transient_raises(self):
        plan = FaultPlan(
            transient=frozenset({(0, 0), (0, 1), (0, 2)})
        )
        with pytest.raises(TransientFaultError):
            faulted(GRATING, plan, workers=2)


class TestCacheFaultScenarios:
    def test_corrupt_entry_evicts_recomputes_and_matches(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = faulted(GRATING, cache_dir=cache_dir)
        entries = cache_entry_paths(cache_dir)
        assert len(entries) == cold.execution.shard_count
        assert corrupt_entries(entries[:1]) == 1
        warm = faulted(GRATING, cache_dir=cache_dir)
        stats = warm.execution
        assert stats.cache_evictions == 1
        assert stats.cache_misses == 1
        assert stats.cache_hits == stats.shard_count - 1
        assert dumps_job(warm.job) == clean_job(GRATING)
        # The evicted entry was recomputed and re-stored.
        assert len(cache_entry_paths(cache_dir)) == len(entries)

    def test_entry_that_is_not_a_shot_list_is_an_evicted_miss(self, tmp_path):
        """Same size, right magic, but a record whose ``y_top`` lies
        below its ``y_bottom``: the reader must call that corruption
        (an evicted miss), not let the geometry constructor raise
        through the run."""
        cache_dir = tmp_path / "cache"
        faulted(GRATING, cache_dir=cache_dir)
        entry = cache_entry_paths(cache_dir)[0]
        data = bytearray(entry.read_bytes())
        records = len(data) - 56 * struct.unpack_from(">I", data, 8)[0]
        y_bottom, y_top = struct.unpack_from(">dd", data, records)
        struct.pack_into(">d", data, records + 8, y_bottom - (y_top - y_bottom))
        entry.write_bytes(data)
        warm = faulted(GRATING, cache_dir=cache_dir)
        assert warm.execution.cache_evictions == 1
        assert warm.execution.cache_misses == 1
        assert dumps_job(warm.job) == clean_job(GRATING)

    def test_any_single_byte_flip_is_a_hit_or_an_evicted_miss(self, tmp_path):
        """Seeded sweep: one random bit flipped in every byte of one
        entry, one byte at a time.  A flip the format cannot see (a
        mantissa bit of a dose) reads as a hit; every other flip must be
        evicted and recomputed — none may raise."""
        cache_dir = tmp_path / "cache"
        faulted(GRATING, cache_dir=cache_dir)
        cache = ShardCache(cache_dir)
        entry = cache_entry_paths(cache_dir)[0]
        key = entry.parent.name + entry.stem
        pristine = entry.read_bytes()
        rng = random.Random(18)
        evicted = 0
        for offset in range(len(pristine)):
            flipped = bytearray(pristine)
            flipped[offset] ^= 1 << rng.randrange(8)
            entry.write_bytes(flipped)
            result, was_evicted = cache.lookup(key)
            assert (result is None) == was_evicted
            assert was_evicted != entry.exists()
            evicted += was_evicted
        # Header, counters and geometry invariants all catch flips; the
        # sweep is not vacuous in either direction.
        assert 0 < evicted < len(pristine)
        # And a run over a flipped entry recomputes the clean bytes.
        entry.write_bytes(bytes([pristine[0] ^ 0x01]) + pristine[1:])
        warm = faulted(GRATING, cache_dir=cache_dir)
        assert warm.execution.cache_evictions == 1
        assert dumps_job(warm.job) == clean_job(GRATING)

    def test_concurrent_eviction_is_not_charged_to_this_run(self, tmp_path):
        """The service shares one ShardCache between concurrent jobs: a
        corrupt entry another job evicts in the middle of this run's
        lookup moves the shared counter but not this run's tally."""
        foreign_key = "f" * 64

        class SharedCache(ShardCache):
            def lookup(self, key):
                if self.path_for(foreign_key).exists():
                    # Another job's lookup lands inside this one.
                    assert super().lookup(foreign_key) == (None, True)
                return super().lookup(key)

        cache = SharedCache(tmp_path / "cache")
        cache.path_for(foreign_key).parent.mkdir(parents=True)
        cache.path_for(foreign_key).write_bytes(b"garbage")
        pipeline = GRATING.pipeline(cache=cache, machine=None)
        stats = pipeline.run(GRATING.layout()).execution
        assert cache.stats.evictions == 1
        assert stats.cache_evictions == 0
        assert stats.cache_misses == stats.shard_count

    def test_enospc_degrades_to_read_only_with_one_warning(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = FaultPlan(enospc_puts=frozenset({0}))
        with pytest.warns(CacheDegradedWarning) as caught:
            result = faulted(GRATING, plan, cache_dir=cache_dir)
        assert len(caught) == 1
        stats = result.execution
        assert stats.cache_write_failures == 1
        assert stats.cache_degraded
        assert stats.cache_write_failures == int(stats.cache_degraded)
        assert dumps_job(result.job) == clean_job(GRATING)
        # Degraded means read-only: every later put was skipped too.
        assert cache_entry_paths(cache_dir) == []

    def test_degraded_run_exports_no_segment_blob(self, tmp_path):
        """A run that degraded in its shard loop stays read-only through
        the machine-program export: one warning, one failure, and not a
        single entry of either family on disk."""
        clean = conformance.reference(GRATING)
        cache_dir = tmp_path / "cache"
        inner = ShardCache(cache_dir)
        pipeline = GRATING.pipeline(
            faults=FaultPlan(enospc_puts=frozenset({0})),
            retry=FAST_RETRY,
            cache=inner,
        )
        with pytest.warns(CacheDegradedWarning) as caught:
            result = pipeline.run(GRATING.layout(), program_path=tmp_path / "chaos.ebp")
        assert len(caught) == 1
        stats = result.execution
        assert stats.cache_write_failures == 1
        assert stats.cache_degraded
        assert stats.cache_write_failures == int(stats.cache_degraded)
        # The first shard store was the only store attempted: no later
        # shard result and no segment blob reached the cache.
        assert pipeline.cache.puts_seen == 1
        assert inner.stats.stores == 0
        program = result.machine_program
        assert program.cache_misses == program.segment_count > 0
        assert cache_entry_paths(cache_dir) == []
        assert dumps_job(result.job) == clean.ebj
        assert (tmp_path / "chaos.ebp").read_bytes() == clean.ebp

    def test_failed_segment_store_degrades_the_run_audibly(self, tmp_path):
        """The store after the last shard result is the first
        program-segment blob: its failure must warn, count and flag
        exactly like a failed shard store — and leave the artifacts
        untouched."""
        clean = conformance.reference(FZP)
        shards = clean.stats.shard_count
        assert shards > 1
        inner = ShardCache(tmp_path / "chaos-cache")
        pipeline = FZP.pipeline(
            faults=FaultPlan(enospc_puts=frozenset({shards})),
            retry=FAST_RETRY,
            cache=inner,
        )
        with pytest.warns(CacheDegradedWarning) as caught:
            chaos = pipeline.run(FZP.layout(), program_path=tmp_path / "chaos.ebp")
        assert len(caught) == 1
        # Every shard result was stored; the store that failed is the
        # one after them — the export's first segment blob — and it was
        # the last one attempted.
        assert inner.stats.stores == shards
        assert pipeline.cache.puts_seen == shards + 1
        stats = chaos.execution
        assert stats.cache_misses == shards
        assert stats.cache_write_failures == 1
        assert stats.cache_degraded
        assert stats.cache_write_failures == int(stats.cache_degraded)
        assert stats.fault_events == 2
        (faults_line,) = [line for line in stats.lines() if "faults:" in line]
        assert "1 cache write failures (cache degraded to read-only)" in faults_line
        assert dumps_job(chaos.job) == clean.ebj
        assert (tmp_path / "chaos.ebp").read_bytes() == clean.ebp
        # Degraded means the rest of the export stored nothing: the
        # shard results are there, no segment blob is.
        assert len(cache_entry_paths(tmp_path / "chaos-cache")) == shards

    def test_faulty_cache_counts_puts_across_entry_points(self, tmp_path):
        inner = ShardCache(tmp_path / "cache")
        plan = FaultPlan(enospc_puts=frozenset({1}))
        cache = FaultyCache(inner, plan)
        assert cache.put_blob("ab" + "0" * 62, b"payload")  # ordinal 0
        with pytest.raises(OSError):
            cache.put_blob("cd" + "0" * 62, b"payload")  # ordinal 1
        assert cache.put_blob("ef" + "0" * 62, b"payload")  # ordinal 2
        assert inner.stats.stores == 2


class TestFullGauntlet:
    """The acceptance gate: one FZP run through a SIGKILL, a transient
    fault, two corrupt cache entries and an ENOSPC — ``.ebj`` and
    ``.ebp`` byte-identical to the column's reference, every counter
    accounted for."""

    def test_chaos_run_matches_the_reference_byte_for_byte(self, tmp_path):
        cache_dir = tmp_path / "cache"
        # Learn which cache entries hold shard results (the program
        # export below adds segment blobs to the same store).
        scout = faulted(FZP, cache_dir=cache_dir)
        shard_entries = cache_entry_paths(cache_dir)
        assert len(shard_entries) == scout.execution.shard_count > 2
        warm = faulted(FZP, cache_dir=cache_dir, program_path=tmp_path / "warm.ebp")
        assert warm.execution.fault_events == 0

        # Two corrupt shard entries -> two evictions -> exactly two
        # recomputed shards, which the shard-fault schedule targets:
        # pending position 0 fails transiently once, position 1 kills
        # its worker, and the first re-store hits ENOSPC.
        assert corrupt_entries(shard_entries[:2]) == 2
        plan = FaultPlan(
            transient=frozenset({(0, 0)}),
            kill_worker=frozenset({(1, 0)}),
            enospc_puts=frozenset({0}),
        )
        with pytest.warns(CacheDegradedWarning):
            chaos = faulted(
                FZP,
                plan,
                workers=2,
                cache_dir=cache_dir,
                program_path=tmp_path / "chaos.ebp",
            )
        clean = conformance.reference(FZP)
        assert dumps_job(chaos.job) == clean.ebj
        assert (tmp_path / "chaos.ebp").read_bytes() == clean.ebp

        stats = chaos.execution
        assert stats.cache_evictions == 2
        assert stats.cache_misses == 2
        assert stats.cache_hits == stats.shard_count - 2
        assert stats.cache_write_failures == 1
        assert stats.cache_degraded
        assert stats.cache_write_failures == int(stats.cache_degraded)
        assert stats.shard_retries >= 1
        assert stats.pool_restarts >= 1
        assert stats.fault_events > 0

    def test_clean_run_reports_zero_fault_counters(self, tmp_path):
        result = faulted(
            FZP,
            workers=2,
            cache_dir=tmp_path / "cache",
            program_path=tmp_path / "clean.ebp",
        )
        stats = result.execution
        assert stats.fault_events == 0
        assert stats.shard_retries == 0
        assert stats.shards_salvaged == 0
        assert stats.pool_restarts == 0
        assert stats.shard_timeouts == 0
        assert stats.cache_write_failures == 0
        assert not stats.cache_degraded
        assert stats.cache_evictions == 0


class TestMalformedFaultPlans:
    """Satellite regression: a malformed ``REPRO_FAULTS`` must die with
    one line naming the offending key — never a ``TypeError``
    traceback out of frozenset/tuple conversion."""

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"kill_worker": 5}', "kill_worker"),
            ('{"transient": "0,0"}', "transient"),
            ('{"dead_worker": 7}', "dead_worker"),
            ('{"drop_conn": {"0": 0}}', "drop_conn"),
            ('{"enospc_puts": 3}', "enospc_puts"),
        ],
    )
    def test_non_list_schedules_name_the_key(self, text, key):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json(text)
        assert key in str(excinfo.value)

    def test_network_kinds_round_trip(self):
        plan = FaultPlan.from_json(
            '{"dead_worker": [[0, 0]], "drop_conn": [[1, 0]], '
            '"late_heartbeat": [[2, 0]], "duplicate_commit": [[3, 1]]}'
        )
        assert plan.dead_worker == frozenset({(0, 0)})
        assert plan.drop_conn == frozenset({(1, 0)})
        assert plan.late_heartbeat == frozenset({(2, 0)})
        assert plan.duplicate_commit == frozenset({(3, 1)})

    def test_cli_exits_2_with_one_line_error(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(FAULTS_ENV_VAR, '{"kill_worker": 5}')
        assert main(["demo", "--workload", "grating"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "kill_worker" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestDeadline:
    """One deadline bounds a run: retry backoff sleeps on an
    interruptible event, so a cooperative cancel or an expired budget
    aborts a *pending* backoff instead of waiting it out, and the same
    budget, narrowed, bounds every pool wait."""

    def test_cancel_wakes_wait_early(self):
        class Cancelled(Exception):
            pass

        deadline = Deadline()
        timer = threading.Timer(0.1, deadline.cancel, (Cancelled,))
        start = time.monotonic()
        timer.start()
        try:
            with pytest.raises(Cancelled):
                deadline.wait(30.0)
        finally:
            timer.cancel()
        assert time.monotonic() - start < 5.0

    def test_cancel_raises_at_every_later_check(self):
        class Cancelled(Exception):
            pass

        class Later(Exception):
            pass

        deadline = Deadline(0.0)
        with pytest.raises(TimeoutError):
            deadline.check()
        deadline.cancel(Cancelled)
        deadline.cancel(Later)  # the first cancel's error stands
        for _ in range(2):
            with pytest.raises(Cancelled):
                deadline.check()
        start = time.monotonic()
        with pytest.raises(Cancelled):
            deadline.wait(30.0)
        assert time.monotonic() - start < 1.0

    def test_wait_never_sleeps_past_the_budget_then_raises(self):
        deadline = Deadline(0.05)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            deadline.wait(30.0)
        assert time.monotonic() - start < 5.0

    def test_narrowed_is_the_earlier_of_the_two(self):
        unbounded = Deadline()
        assert unbounded.remaining() is None
        assert unbounded.narrowed(None) is unbounded
        assert 0 < unbounded.narrowed(5.0).remaining() <= 5.0
        job = Deadline(2.0)
        assert job.narrowed(60.0) is job  # the job's budget is tighter
        shard = job.narrowed(0.5)
        assert shard.at < job.at

    def test_narrowed_copies_share_the_cancel(self):
        """A narrowed deadline made before the cancel, and one made
        after it, both raise it — and the parent does too."""
        class Cancelled(Exception):
            pass

        job = Deadline(60.0)
        before = job.narrowed(30.0)
        job.cancel(Cancelled)
        after = job.narrowed(30.0)
        assert before is not job and after is not job
        start = time.monotonic()
        for deadline in (job, before, after):
            with pytest.raises(Cancelled):
                deadline.check()
            with pytest.raises(Cancelled):
                deadline.wait(30.0)
        assert time.monotonic() - start < 1.0
        # A child's cancel reaches its parent as well.
        other = Deadline()
        other.narrowed(5.0).cancel(Cancelled)
        with pytest.raises(Cancelled):
            other.check()

    def test_cancel_mid_backoff_aborts_the_run_promptly(self):
        """A run whose shard is waiting out a 30 s backoff must abort
        within moments of the cancel, not at the backoff's end."""
        class Cancelled(Exception):
            pass

        deadline = Deadline()
        pipeline = GRATING.pipeline(
            workers=2,
            faults=FaultPlan(transient=frozenset({(0, 0), (0, 1)})),
            retry=RetryPolicy(max_attempts=3, backoff_base=30.0),
            deadline=deadline,
            machine=None,
        )
        timer = threading.Timer(0.3, deadline.cancel, (Cancelled,))
        start = time.monotonic()
        timer.start()
        try:
            with pytest.raises(Cancelled):
                pipeline.run(GRATING.layout())
        finally:
            timer.cancel()
        assert time.monotonic() - start < 15.0


    def test_job_budget_bounds_a_hung_pool_shard(self, tmp_path, monkeypatch):
        """No ``shard_timeout``, a 1 s job budget, a pool shard hung for
        30 s: the job fails with its own timeout within the budget (the
        pool wait is bounded by the job's deadline, not only by the shard
        watchdog), and the hung worker is killed so the next job on the
        shared pool completes with the clean bytes."""
        from repro.service.jobs import JobStore
        from repro.service.runner import JobRunner, JobTimeoutError
        from repro.service.schemas import parse_job_spec

        column = conformance.COLUMNS["grating-raster"]
        knobs = {"workload": column.workload, **dict(column.knobs), "workers": 2}
        store = JobStore()
        runner = JobRunner(store, tmp_path)
        monkeypatch.setenv(
            FAULTS_ENV_VAR, '{"hang": [[0, 0]], "hang_seconds": 30}'
        )
        hung = store.create(parse_job_spec({**knobs, "timeout": 1}))
        start = time.monotonic()
        with pytest.raises(JobTimeoutError):
            runner(hung)
        assert time.monotonic() - start < 1.0 + 2.0
        assert store.totals("faults")["job_timeouts"] == 1

        monkeypatch.delenv(FAULTS_ENV_VAR)
        clean = store.create(parse_job_spec(knobs))
        runner(clean)
        job = store.get(clean.id)
        assert job.state == "done"
        assert job.result["execution"]["faults"]["pool_restarts"] == 0
        assert (runner.job_dir(clean.id) / "job.ebj").read_bytes() == clean_job(
            column
        )


class TestDistributedGauntlet:
    """The distributed acceptance gate: dead worker + dropped commit
    connection + duplicate commit + silenced heartbeats + a straggler,
    all in one run — ``.ebj`` and ``.ebp`` byte-identical to serial,
    every degradation visible in the counters."""

    def test_distributed_gauntlet_matches_the_reference_byte_for_byte(
        self, tmp_path
    ):
        from repro.dist import (
            WorkerDaemon,
            coordinator_for,
            shutdown_coordinators,
        )
        from repro.dist.coordinator import DistPolicy

        # The fault schedule targets four distinct positions.
        clean = conformance.reference(FZP)
        assert clean.stats.shard_count >= 4

        server = coordinator_for("127.0.0.1:0")
        host, port = server.server_address[:2]
        endpoint = f"{host}:{port}"
        release = threading.Event()
        first_visit = threading.Event()

        def throttle(position, attempt):
            # The straggler stalls on shard 0; speculation must finish
            # the shard on another worker.
            if position == 0:
                first_visit.set()
                release.wait(timeout=60.0)

        straggler = WorkerDaemon(
            endpoint, worker_id="straggler", throttle=throttle
        )
        workers = [
            straggler,
            WorkerDaemon(endpoint, worker_id="w1"),
            WorkerDaemon(endpoint, worker_id="w2"),
        ]

        def gated_run(daemon):
            # The straggler, running alone, claims shard 0 first
            # (grants follow position order) — the stall is then
            # deterministic, not a race against the healthy workers.
            first_visit.wait(timeout=60.0)
            daemon.run()

        threads = [threading.Thread(target=straggler.run, daemon=True)]
        threads += [
            threading.Thread(target=gated_run, args=(daemon,), daemon=True)
            for daemon in workers[1:]
        ]
        for thread in threads:
            thread.start()

        plan = FaultPlan(
            dead_worker=frozenset({(1, 0)}),
            drop_conn=frozenset({(2, 0)}),
            duplicate_commit=frozenset({(3, 0)}),
            late_heartbeat=frozenset({(1, 1)}),
        )
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
            worker_grace=5.0,
            speculate_after=0.3,
        )
        chaos_ebp = tmp_path / "chaos.ebp"
        try:
            chaos = faulted(
                FZP,
                plan,
                RetryPolicy(max_attempts=5, backoff_base=0.0),
                chaos_ebp,
                policy,
                workers=2,
                dispatch="distributed",
                workers_endpoint=endpoint,
            )
        finally:
            release.set()
            for daemon in workers:
                daemon.stop()
            for thread in threads:
                thread.join(timeout=5.0)
            shutdown_coordinators()
        assert dumps_job(chaos.job) == clean.ebj
        assert chaos_ebp.read_bytes() == clean.ebp

        stats = chaos.execution
        assert stats.dispatch == "distributed"
        assert stats.leases_granted > stats.shard_count
        assert stats.speculative_wins >= 1
        assert stats.duplicate_commits >= 1
        # Whether each lost shard was rescued by a reclaim-and-retry or
        # a speculative duplicate is a race; that *several* rescues
        # happened is not.
        rescues = (
            stats.leases_reclaimed
            + stats.worker_deaths
            + stats.heartbeats_missed
            + stats.speculative_wins
        )
        assert rescues >= 2
