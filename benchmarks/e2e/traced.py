"""The traced (``--trace 1``) run of one workload: per-layer metrics.

A separate, in-process run.  It (1) runs the workload's recipe through
the real pipeline, untraced, for the wall-clock and the public
``PipelineResult.execution`` counters, (2) replays the same input one
public call at a time under a span recorder (:mod:`replay`), requiring
byte-identical artifacts, and (3) adds what only a mode comparison can
show — stream vs in-memory, pool vs serial, fleet vs serial, two
service clients vs one.

Metric names are ``<layer>.<what>``; a layer the workload does not
exercise reports 0.  Each name and the end-to-end number it should move
is listed in the README.
"""

from __future__ import annotations

import filecmp
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.recipe import PrepRecipe
from repro.layout import generators

import workloads as wl
from endtoend import SetupError, artifact_hashes, start_fleet, start_server
from harness import Harness, Speed, daemons_cpu_s, host_cores, host_spin
from prepare import write_input
from replay import Replay, run_pipeline, staged_replay
from service_client import JobTimeline, ServiceClient
from tracing import Recorder, self_time_by_name

#: Replay span name → metric name.
STAGE_METRICS = {
    "layout.read": "layout.read_s",
    "layout.flatten": "layout.flatten_s",
    "layout.stream_iter": "layout.stream_iter_s",
    "executor.plan": "executor.plan_s",
    "executor.merge": "executor.merge_s",
    "fracture.fracture": "fracture.fracture_s",
    "fracture.quality": "fracture.quality_s",
    "fracture.hier_prefracture": "fracture.hier_prefracture_s",
    "pec.correct": "pec.correct_s",
    "cache.key": "cache.key_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "job.build": "job.build_s",
    "jobfile.write": "jobfile.write_s",
    "machine.write_time_model": "machine.write_time_model_s",
    "machine.export": "machine.export_s",
}

#: Ratios that are only meaningful with two cores to run on.
NEEDS_TWO_CORES = (
    "pool.speedup",
    "pool.efficiency",
    "pool.cpu_inflation",
    "dist.speedup",
    "service.concurrency_gain",
)

#: Jobs in the two-client concurrency probe (whole shuffled blocks of
#: the recipe table, so the mix equals the one-client timeline's).
PROBE_JOBS = 18


class Traced:
    """What one traced run produced."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.skipped: List[str] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.recorder = Recorder()
        self.slowest_shards: List[Tuple[str, float]] = []
        self.samples = 0  # service jobs behind the latency percentiles
        self.host: Dict[str, float] = {}  # what the speed sampler saw
        # Σ over replays: staged self time, replay wall, and the
        # untraced serial pipeline wall they are measured against.
        self.staged_s = 0.0
        self.replay_wall_s = 0.0
        self.serial_wall_s = 0.0


def _cpu_now() -> float:
    """CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _same_artifacts(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return bool(names) and names == sorted(p.name for p in b.iterdir()) and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names
    )


def _fold_replay(
    out: Traced, replay: Replay, op: str, serial_wall: float, factor: float
) -> None:
    """Add one replay's spans and counts to the metrics.  ``factor``
    normalizes the replay's clock to the host's nominal speed;
    ``serial_wall`` is the untraced serial pipeline run of the same
    input (already normalized) — what the replayed stages are measured
    against."""
    m = out.metrics
    stages = self_time_by_name(out.recorder.spans, op=op)
    stages.pop("replay")
    for span_name, seconds in stages.items():
        name = STAGE_METRICS[span_name]
        m[name] = m.get(name, 0.0) + seconds * factor
    for name, value in replay.counts.items():
        m[name] = m.get(name, 0.0) + value
    out.staged_s += sum(stages.values()) * factor
    out.replay_wall_s += replay.wall * factor
    out.serial_wall_s += serial_wall


def _derive(out: Traced) -> None:
    """Ratios of the folded sums."""
    m = out.metrics
    if out.serial_wall_s:
        m["executor.unattributed_s"] = out.serial_wall_s - out.staged_s
        m["trace.coverage"] = out.staged_s / out.serial_wall_s
        m["trace.overhead_share"] = (
            out.replay_wall_s - out.serial_wall_s
        ) / out.serial_wall_s
    if m.get("fracture.fracture_s"):
        m["fracture.figures_per_s"] = m["fracture.figures"] / m["fracture.fracture_s"]
    if m.get("pec.correct_s"):
        m["pec.shots_per_s"] = m["pec.shots"] / m["pec.correct_s"]
    lookups = m.get("cache.hits", 0) + m.get("cache.misses", 0)
    if lookups:
        m["cache.hit_ratio"] = m["cache.hits"] / lookups
    if host_cores() < 2:
        for name in NEEDS_TWO_CORES:
            if m.pop(name, None) is not None:
                out.skipped.append(name)


def _host(out: Traced, h: Harness, speed: Speed) -> None:
    out.metrics.update(host_spin())
    starts = []
    for _ in range(3):
        start = time.perf_counter()
        result = h.run_op(["--help"])
        end = time.perf_counter()
        starts.append(result.wall_s * speed.factor(start, end))
    out.metrics["cli.startup_s"] = statistics.median(starts)


# -- CLI workloads --------------------------------------------------------------


def _trace_cli(
    h: Harness, w: wl.Workload, sizes: wl.Sizes, seed: int, out: Traced,
    speed: Speed,
) -> None:
    root = h.dir / "trace"
    root.mkdir()
    gds = root / "in.gds"
    write_input(w.layout, sizes, seed, gds)
    knobs = dict(w.knobs)
    daemons: List[subprocess.Popen] = []
    if w.fleet:
        knobs["workers_endpoint"], daemons = start_fleet(h, w.fleet)
    recipe = PrepRecipe(**knobs)
    serial = PrepRecipe(
        **{**w.knobs, "workers": 1, "dispatch": "local"}
    )

    def cache_for(purpose: str) -> Optional[Path]:
        """Warm: one filled directory.  Cold: an empty one per pass."""
        if w.cache is None:
            return None
        if w.cache == "warm" and purpose != "warmup":
            return root / "cache"
        return root / f"cache-{purpose}"

    def timed(fn):
        """Run one pass; returns its value and the factor that
        normalizes its clock."""
        start = time.perf_counter()
        value = fn()
        return value, speed.factor(start, time.perf_counter())

    def pipeline_pass(which: PrepRecipe, name: str):
        """One untraced pipeline run → (result, wall, cpu), normalized."""

        def one_pass():
            cpu = _cpu_now()
            result, wall = run_pipeline(
                which, gds, root / name, cache_dir=cache_for(name)
            )
            return result, wall, _cpu_now() - cpu

        (result, wall, cpu), factor = timed(one_pass)
        return result, wall * factor, cpu * factor

    # The first full-size run in a process pays for lazy imports and
    # for growing the heap (an 86 MiB dense operator is all page
    # faults the first time); later passes would look faster than the
    # pipeline for that reason alone.  Spend it on an untimed pass.
    run_pipeline(recipe, gds, root / "warmup", cache_dir=cache_for("warmup"))
    if w.cache == "warm":
        run_pipeline(recipe, gds, root / "fill", cache_dir=cache_for("fill"))

    out.attempted = 2
    daemon_cpu = daemons_cpu_s(daemons)
    result, wall, cpu = pipeline_pass(recipe, "pipe")
    daemon_cpu = daemons_cpu_s(daemons) - daemon_cpu
    stats = result.execution
    m = out.metrics
    if w.layout == "reticle":
        golden = wl.load_golden()[wl.golden_key(sizes, seed)]
        got = {
            **artifact_hashes(root / "pipe" / "out.ebj"),
            "figures": result.fracture_report.figure_count,
        }
        if got != golden:
            out.failures.append("pipeline artifacts differ from the committed golden")

    serial_wall, serial_cpu = wall, cpu
    if recipe != serial:
        _, serial_wall, serial_cpu = pipeline_pass(serial, "serial")
        if not _same_artifacts(root / "pipe", root / "serial"):
            out.failures.append("parallel run differs from its serial run")

    with out.recorder.op(w.name):
        replay, factor = timed(
            lambda: staged_replay(
                recipe, gds, root / "replay", out.recorder,
                cache_dir=cache_for("replay"),
            )
        )
    if not _same_artifacts(root / "pipe", root / "replay"):
        out.failures.append("replay artifacts differ from the pipeline's")
    _fold_replay(out, replay, w.name, serial_wall, factor)

    busy = [seconds * factor for _, seconds in replay.shard_busy]
    if busy:
        m["executor.shard_busy_p50_s"] = statistics.median(busy)
        m["executor.shard_busy_max_s"] = max(busy)
        m["executor.shard_imbalance"] = max(busy) / statistics.mean(busy)
        out.slowest_shards = sorted(
            replay.shard_busy, key=lambda item: -item[1]
        )[:5]

    if stats.streamed:
        inmem = PrepRecipe(**{**w.knobs, "workers": 1, "streaming": False})
        _, inmem_wall, _ = pipeline_pass(inmem, "inmem")
        if not _same_artifacts(root / "pipe", root / "inmem"):
            out.failures.append("streamed run differs from the in-memory run")
        out.attempted += 1
        m["stream.serial_wall_s"] = serial_wall
        m["stream.overhead_s"] = serial_wall - inmem_wall
        m["stream.windows"] = stats.stream_windows
        m["stream.peak_window_bytes"] = stats.peak_window_bytes
        m["stream.shards_spilled"] = stats.shards_spilled
        m["stream.spill_bytes"] = stats.spill_bytes
        m["stream.spill_fallbacks"] = stats.spill_fallbacks
        m["pool.speedup"] = serial_wall / wall
        m["pool.efficiency"] = serial_wall / wall / recipe.workers
        m["pool.cpu_inflation"] = cpu / serial_cpu
    if stats.dispatch == "distributed":
        m["dist.speedup"] = serial_wall / wall
        m["dist.leases"] = stats.leases_granted
        m["dist.reclaims"] = stats.leases_reclaimed
        m["dist.speculative_wins"] = stats.speculative_wins
        m["dist.fallback_shards"] = stats.dist_local_fallbacks
        m["dist.worker_cpu_s"] = daemon_cpu
    for daemon in daemons:
        h.stop(daemon)


# -- service workload -----------------------------------------------------------


def _client_loop(
    port: int, payloads: List[dict], sink: List[JobTimeline], errors: List[str]
) -> None:
    client = ServiceClient(port)
    try:
        for payload in payloads:
            sink.append(client.run_job(payload))
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        client.close()


def _jobs_per_s(port: int, payloads: List[dict], clients: int, out: Traced) -> float:
    """Throughput of ``clients`` closed-loop clients sharing ``payloads``."""
    sink: List[JobTimeline] = []
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(port, payloads[i::clients], sink, out.failures),
        )
        for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return len(sink) / (time.perf_counter() - start)


def _trace_service(
    h: Harness, w: wl.Workload, seed: int, seconds: float, out: Traced,
    speed: Speed,
) -> None:
    root = h.dir / "trace"
    root.mkdir()
    m = out.metrics

    # Layer view: every recipe of the table, replayed warm in process.
    libraries = dict(generators.all_workloads())
    cache_dir = root / "replay-cache"
    for index, payload in enumerate(wl.SERVICE_RECIPES):
        recipe = PrepRecipe(
            **{k: v for k, v in payload.items() if k != "workload"}
        )
        library = libraries[payload["workload"]]
        base = root / f"recipe{index}"
        op = f"{w.name}:{payload['workload']}"
        start = time.perf_counter()
        run_pipeline(recipe, library, base / "fill", cache_dir=cache_dir)
        _, wall = run_pipeline(recipe, library, base / "pipe", cache_dir=cache_dir)
        with out.recorder.op(op):
            replay = staged_replay(
                recipe, library, base / "replay", out.recorder, cache_dir=cache_dir
            )
        # The three passes take 0.3 s together: one factor for all.
        factor = speed.factor(start, time.perf_counter())
        out.attempted += 1
        if not _same_artifacts(base / "pipe", base / "replay"):
            out.failures.append(f"{op}: replay differs from the pipeline")
        _fold_replay(out, replay, op, wall * factor, factor)

    # Served view: the client's and the server's clocks for each job.
    server, port = start_server(h, root)
    client = ServiceClient(port)
    client.wait_ready()
    for payload in wl.SERVICE_RECIPES:
        client.run_job(payload)
    sequence = wl.service_sequence(seed, blocks=400)
    before = client.get_json("/stats")["cache"]
    jobs: List[JobTimeline] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(jobs) < 3:
        jobs.append(client.run_job(wl.SERVICE_RECIPES[sequence[len(jobs)]]))
    elapsed = time.perf_counter() - start
    after = client.get_json("/stats")["cache"]
    client.close()
    out.attempted += len(jobs)
    out.samples = len(jobs)

    def med(values) -> float:
        return statistics.median(values)

    m["service.submit_s"] = med(j.accepted_at - j.posted_at for j in jobs)
    m["service.queue_wait_s"] = med(
        j.view["started_at"] - j.view["submitted_at"] for j in jobs
    )
    m["service.run_s"] = med(
        j.view["finished_at"] - j.view["started_at"] for j in jobs
    )
    m["service.notify_lag_s"] = med(
        j.seen_done_at - j.view["finished_at"] for j in jobs
    )
    m["service.download_s"] = med(j.downloaded_at - j.seen_done_at for j in jobs)
    latencies = sorted(j.latency_s for j in jobs)
    m["service.job_latency_p90_s"] = latencies[
        min(len(latencies) - 1, int(0.9 * len(latencies)))
    ]
    m["service.jobs_per_s"] = len(jobs) / elapsed
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    if lookups:
        m["service.cache_hit_ratio"] = (after["hits"] - before["hits"]) / lookups

    if host_cores() >= 2:
        probe = [wl.SERVICE_RECIPES[i] for i in sequence[:PROBE_JOBS]]
        two_clients = _jobs_per_s(port, probe, 2, out)
        out.attempted += PROBE_JOBS
        m["service.concurrency_gain"] = two_clients / m["service.jobs_per_s"]
    else:
        out.skipped.append("service.concurrency_gain")
    h.stop(server)


def run(
    h: Harness, w: wl.Workload, sizes: wl.Sizes, seed: int, seconds: float
) -> Traced:
    out = Traced()
    speed = Speed()
    try:
        _host(out, h, speed)
        if w.layout:
            _trace_cli(h, w, sizes, seed, out, speed)
        else:
            _trace_service(h, w, seed, seconds, out, speed)
    except SetupError as exc:
        out.failures.append(str(exc))
    finally:
        speed.stop()
    out.host = speed.summary()
    _derive(out)
    return out
