"""F14 — Distributed shard execution: scaling, fault floors, speculation.

Three sections, all against an in-process coordinator and worker
daemons (the same code path ``python -m repro.cli work`` runs across
real hosts — the conformance matrix, ``tools/conformance.py``, runs the
multi-process variant):

* **scaling** — the full preparation pipeline (fracture + iterative
  proximity correction) dispatched over 1/2/4 worker daemons, each run
  checked byte-for-byte against the local serial reference.  The
  determinism contract is asserted on every row; speedup numbers are
  recorded, not gated (socket + pickle overhead makes small workloads
  scheduler-bound by design).
* **single-worker death** — one of two workers dies mid-lease
  (``dead_worker`` fault) with speculation disabled, so the run must
  survive through heartbeat-silence detection and lease reclaim.
  Floors (asserted in quick mode too): the run completes, the bytes
  are identical to serial, and ``leases_reclaimed >= 1``.
* **straggler speculation** — one worker stalls on its first attempt
  at shard 0.  With speculation on, the end-of-queue duplicate lease
  finishes the shard while the straggler sleeps; with it off, the run
  waits out the stall.  Floors: ``speculative_wins >= 1`` and the
  speculative run beats the non-speculative one on wall-clock.
"""

import threading
import time

from repro.analysis.tables import Table
from repro.core.executor import RetryPolicy, shutdown_worker_pool
from repro.core.faults import FaultPlan
from repro.core.jobfile import dumps_job
from repro.core.pipeline import PreparationPipeline
from repro.dist import (
    DistPolicy,
    WorkerDaemon,
    coordinator_for,
    shutdown_coordinators,
)
from repro.layout import generators
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

WORKER_COUNTS_QUICK = (1, 2)
WORKER_COUNTS_FULL = (1, 2, 4)
#: How long the straggler sleeps on its first attempt at shard 0 [s].
STALL_S = 1.5
#: Small fault-scenario workload: 6 field shards at field_size=4.0.
FAULT_FIELD_SIZE = 4.0


class Fleet:
    """A set of in-process worker daemons against one endpoint."""

    def __init__(self, endpoint, count, throttle=None):
        self.daemons = []
        self.threads = []
        for index in range(count):
            daemon = WorkerDaemon(
                endpoint,
                worker_id=f"bench-w{index}",
                throttle=throttle,
            )
            thread = threading.Thread(target=daemon.run, daemon=True)
            thread.start()
            self.daemons.append(daemon)
            self.threads.append(thread)

    def stop(self):
        for daemon in self.daemons:
            daemon.stop()
        for thread in self.threads:
            thread.join(timeout=10.0)


def scaling_workload(quick: bool):
    if quick:
        return generators.grating(lines=40, length=40.0), 20.0
    return generators.grating(lines=300, length=200.0), 25.0


def fault_workload():
    return generators.grating(pitch=2.0, duty=0.5, lines=12, length=24.0)


def scaling_pipeline(field_size, **kwargs):
    return PreparationPipeline(
        corrector=IterativeDoseCorrector(),
        psf=DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74),
        field_size=field_size,
        **kwargs,
    )


def run_scaling(endpoint, quick, table, records):
    library, field_size = scaling_workload(quick)
    start = time.perf_counter()
    serial = scaling_pipeline(field_size).run(library)
    serial_time = time.perf_counter() - start
    reference = dumps_job(serial.job)
    table.add_row(
        [
            "scaling",
            "local-serial",
            1,
            f"{serial_time:.3f}",
            "1.00x",
            "-",
            "-",
        ]
    )
    records.append(
        {
            "scenario": "scaling",
            "mode": "local-serial",
            "workers": 1,
            "time_s": serial_time,
            "speedup": 1.0,
        }
    )
    counts = WORKER_COUNTS_QUICK if quick else WORKER_COUNTS_FULL
    for workers in counts:
        fleet = Fleet(endpoint, workers)
        try:
            start = time.perf_counter()
            result = scaling_pipeline(
                field_size,
                dispatch="distributed",
                workers_endpoint=endpoint,
            ).run(library)
            elapsed = time.perf_counter() - start
        finally:
            fleet.stop()
        assert dumps_job(result.job) == reference, (
            f"distributed run with {workers} worker(s) diverged "
            "from the serial reference"
        )
        execution = result.execution
        assert execution.dispatch == "distributed"
        speedup = serial_time / elapsed
        table.add_row(
            [
                "scaling",
                "distributed",
                workers,
                f"{elapsed:.3f}",
                f"{speedup:.2f}x",
                execution.leases_granted,
                execution.leases_reclaimed,
            ]
        )
        records.append(
            {
                "scenario": "scaling",
                "mode": "distributed",
                "workers": workers,
                "time_s": elapsed,
                "speedup": speedup,
                "leases_granted": execution.leases_granted,
                "leases_reclaimed": execution.leases_reclaimed,
                "dist_workers": execution.dist_workers,
            }
        )


def run_worker_death(endpoint, table, records):
    library = fault_workload()
    reference = dumps_job(
        PreparationPipeline(field_size=FAULT_FIELD_SIZE).run(library).job
    )
    # Speculation off: survival must come from heartbeat-silence death
    # detection and lease reclaim, the slow path worth benchmarking.  The
    # shard timeout is only a hang watchdog behind it.
    policy = DistPolicy(
        heartbeat_interval=0.1,
        heartbeat_timeout=0.8,
        worker_grace=10.0,
        speculate=False,
    )
    fleet = Fleet(endpoint, 2)
    try:
        start = time.perf_counter()
        result = PreparationPipeline(
            field_size=FAULT_FIELD_SIZE,
            dispatch="distributed",
            workers_endpoint=endpoint,
            dist_policy=policy,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.0, shard_timeout=8.0),
            faults=FaultPlan(dead_worker=frozenset({(0, 0)})),
        ).run(library)
        elapsed = time.perf_counter() - start
    finally:
        fleet.stop()
    execution = result.execution
    assert dumps_job(result.job) == reference, (
        "run under a worker death diverged from the serial reference"
    )
    assert execution.leases_reclaimed >= 1, (
        "worker death left no reclaimed lease"
    )
    assert execution.worker_deaths >= 1
    table.add_row(
        [
            "worker-death",
            "distributed",
            2,
            f"{elapsed:.3f}",
            "-",
            execution.leases_granted,
            execution.leases_reclaimed,
        ]
    )
    records.append(
        {
            "scenario": "worker-death",
            "workers": 2,
            "time_s": elapsed,
            "leases_granted": execution.leases_granted,
            "leases_reclaimed": execution.leases_reclaimed,
            "worker_deaths": execution.worker_deaths,
            "bytes_identical": True,
        }
    )


def run_straggler(endpoint, table, records):
    library = fault_workload()
    reference = dumps_job(
        PreparationPipeline(field_size=FAULT_FIELD_SIZE).run(library).job
    )

    def stall_first_attempt(position, attempt):
        # Attempt 0 of shard 0 stalls; the speculative re-execution
        # (attempt 1) and every other shard run at full speed.
        if position == 0 and attempt == 0:
            time.sleep(STALL_S)

    timings = {}
    for speculate in (False, True):
        # No shard timeout: the straggler is slow, not hung.
        policy = DistPolicy(
            heartbeat_interval=0.1,
            heartbeat_timeout=5.0,
            worker_grace=10.0,
            speculate=speculate,
            speculate_after=0.25,
        )
        fleet = Fleet(endpoint, 2, throttle=stall_first_attempt)
        try:
            start = time.perf_counter()
            result = PreparationPipeline(
                field_size=FAULT_FIELD_SIZE,
                dispatch="distributed",
                workers_endpoint=endpoint,
                dist_policy=policy,
            ).run(library)
            elapsed = time.perf_counter() - start
        finally:
            fleet.stop()
        execution = result.execution
        assert dumps_job(result.job) == reference, (
            f"straggler run (speculate={speculate}) diverged from serial"
        )
        if speculate:
            assert execution.speculative_wins >= 1, (
                "speculation never beat the straggler"
            )
        timings[speculate] = elapsed
        label = "speculate-on" if speculate else "speculate-off"
        table.add_row(
            [
                "straggler",
                label,
                2,
                f"{elapsed:.3f}",
                "-",
                execution.leases_granted,
                execution.leases_reclaimed,
            ]
        )
        records.append(
            {
                "scenario": "straggler",
                "speculate": speculate,
                "workers": 2,
                "time_s": elapsed,
                "stall_s": STALL_S,
                "speculative_wins": execution.speculative_wins,
                "speculative_losses": execution.speculative_losses,
                "bytes_identical": True,
            }
        )
    assert timings[True] < timings[False], (
        f"speculation did not trim the tail: on={timings[True]:.3f}s "
        f"off={timings[False]:.3f}s (stall={STALL_S}s)"
    )


def test_f14_distributed(save_table, quick):
    table = Table(
        [
            "scenario",
            "mode",
            "workers",
            "time [s]",
            "speedup",
            "leases",
            "reclaims",
        ],
        title=f"F14: distributed shard execution (quick={quick})",
    )
    records = []
    endpoint_server = coordinator_for("127.0.0.1:0")
    host, port = endpoint_server.server_address[:2]
    endpoint = f"{host}:{port}"
    try:
        run_scaling(endpoint, quick, table, records)
        run_worker_death(endpoint, table, records)
        run_straggler(endpoint, table, records)
    finally:
        shutdown_coordinators()
        shutdown_worker_pool()
    save_table(
        "f14_distributed",
        table.render(),
        data={"stall_s": STALL_S, "runs": records},
    )
