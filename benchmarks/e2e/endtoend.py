"""The end-to-end (``--trace 0``) run of one workload.

Set-up builds everything an op needs — input file, expected artifact
hashes, worker daemons or the serve process, a filled or empty cache —
and is itself timed (``setup_s``).  The measured window then runs ops
in a closed loop, one at a time, each a real ``python -m repro.cli
prep`` process (or one HTTP job), and checks every op's artifacts
byte-for-byte before its timing counts.
"""

from __future__ import annotations

import hashlib
import http.client
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import workloads as wl
from harness import (
    HERE,
    Harness,
    Speed,
    daemons_cpu_s,
    daemons_hwm_mb,
    free_port,
    proc_cpu_s,
    proc_hwm_mb,
    sha256_file,
)
from service_client import ServiceClient, ServiceError

#: Ops per window at least; the median needs them even if one op
#: outlasts a very short ``--seconds``.
MIN_OPS = 3


class SetupError(RuntimeError):
    """Set-up could not bring the workload to a measurable state."""


@dataclass
class Sample:
    """One op, as seen from outside."""

    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    why: str = ""
    kind: int = 0  # which recipe of the service table; 0 for CLI ops


@dataclass
class Context:
    """A workload that has been set up: ``op(i)`` runs its i-th op."""

    dir: Path
    op: Callable[[int], Sample]
    daemons: List[subprocess.Popen] = field(default_factory=list)
    server: Optional[subprocess.Popen] = None
    client: Optional[ServiceClient] = None


def artifact_hashes(job_path: Path) -> Dict[str, str]:
    """SHA-256 of the ``.ebj`` and of the ``.ebp`` the CLI derives next
    to it."""
    hashes = {"ebj": sha256_file(job_path)}
    for program in job_path.parent.glob(job_path.stem + ".*.ebp"):
        hashes["ebp"] = sha256_file(program)
    return hashes


def printed_figures(stdout: str) -> Optional[int]:
    """The ``figures:`` count of the CLI's report."""
    for line in stdout.splitlines():
        if line.strip().startswith("figures:"):
            return int(line.split(":")[1])
    return None


def prepare(h: Harness, *args: object) -> None:
    """Run ``prepare.py`` — the set-up work that imports the program —
    as a child, so this process stays small (see that file)."""
    result = h.run_child(
        [sys.executable, str(HERE / "prepare.py"), *map(str, args)]
    )
    if not result.ok:
        raise SetupError(f"prepare {args[0]} failed: {result.stderr[-500:]}")


# -- worker fleet ---------------------------------------------------------------


def start_fleet(h: Harness, count: int) -> Tuple[str, List[subprocess.Popen]]:
    """Start ``count`` persistent ``repro.cli work`` daemons on a free
    endpoint and wait until each is ready for leases."""
    endpoint = f"127.0.0.1:{free_port()}"
    daemons = [
        h.spawn_cli(
            ["work", "--connect", endpoint],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(count)
    ]
    prepare(h, "fleet", endpoint, count)
    return endpoint, daemons


# -- CLI workloads --------------------------------------------------------------


def _set_up_cli(
    h: Harness, w: wl.Workload, sizes: wl.Sizes, seed: int, root: Path
) -> Context:
    gds = root / "in.gds"
    prepare(h, "input", w.layout, sizes.label, seed, gds)
    endpoint: Optional[str] = None
    daemons: List[subprocess.Popen] = []
    if w.fleet:
        endpoint, daemons = start_fleet(h, w.fleet)
    elif w.cache is None:
        # No child of this set-up has started the CLI yet: one start
        # warms its .pyc files and the page cache before the clock does.
        h.run_op(["--help"])
    cache_dir = root / "cache" if w.cache else None

    expected_figures: Optional[int] = None
    if w.layout == "reticle":
        golden = wl.load_golden()[wl.golden_key(sizes, seed)]
        expected = {"ebj": golden["ebj"], "ebp": golden["ebp"]}
        expected_figures = golden["figures"]
    else:
        # Float doses depend on the numpy build, so PEC artifacts are
        # checked against a reference made here: serial and uncached for
        # the cold workload; for the warm one the run that fills the
        # cache (cold ≡ warm).
        ref_job = root / "ref" / "out.ebj"
        ref_job.parent.mkdir()
        argv = wl.prep_argv(
            w, gds, ref_job, cache_dir if w.cache == "warm" else None
        )
        if w.cache == "cold":
            argv.append("--no-cache")
        result = h.run_op(argv)
        if not result.ok:
            raise SetupError(f"reference run failed: {result.stderr[-500:]}")
        expected = artifact_hashes(ref_job)

    out_dir = root / "op"

    def op(index: int) -> Sample:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        if w.cache == "cold":
            shutil.rmtree(cache_dir, ignore_errors=True)
        job_path = out_dir / "out.ebj"
        daemon_cpu = daemons_cpu_s(daemons)
        result = h.run_op(
            wl.prep_argv(w, gds, job_path, cache_dir, endpoint)
        )
        daemon_cpu = daemons_cpu_s(daemons) - daemon_cpu
        if result.timed_out:
            return Sample(False, why="timed out")
        if result.returncode != 0:
            return Sample(
                False, why=f"exit {result.returncode}: {result.stderr[-300:]}"
            )
        if artifact_hashes(job_path) != expected:
            return Sample(False, why="artifact bytes differ from expected")
        if expected_figures is not None:
            if printed_figures(result.stdout) != expected_figures:
                return Sample(False, why="figure count differs from golden")
        return Sample(
            True,
            wall_s=result.wall_s,
            cpu_s=result.cpu_s + daemon_cpu,
            rss_mb=max(result.rss_mb, daemons_hwm_mb(daemons)),
        )

    return Context(dir=root, op=op, daemons=daemons)


# -- service workload -----------------------------------------------------------


def start_server(h: Harness, root: Path) -> "tuple[subprocess.Popen, int]":
    """Start ``repro.cli serve`` on a free port; returns it and the port
    it reports on its first stdout line."""
    log = root / "serve.stdout"
    with open(log, "wb") as out:
        server = h.spawn_cli(
            ["serve", "--port", "0", "--work-dir", str(root / "svc"),
             "--concurrency", "2"],
            stdout=out,
            stderr=subprocess.DEVNULL,
        )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise SetupError(f"serve exited with {server.returncode}")
        first = log.read_text().split("\n", 1)
        if len(first) == 2 and "listening on" in first[0]:
            return server, int(first[0].rsplit(":", 1)[1])
        time.sleep(0.02)
    raise SetupError("serve never reported its port")


def _set_up_service(
    h: Harness, w: wl.Workload, sizes: wl.Sizes, seed: int, root: Path
) -> Context:
    server, port = start_server(h, root)
    client = ServiceClient(port)
    client.wait_ready()
    # One job per recipe fills the shared cache and yields the bytes
    # every later (warm) job of that recipe must reproduce.
    expected = []
    try:
        for payload in wl.SERVICE_RECIPES:
            first = client.run_job(payload)
            expected.append(
                (
                    hashlib.sha256(first.artifact).hexdigest(),
                    hashlib.sha256(first.program or b"").hexdigest(),
                )
            )
    except (ServiceError, OSError, http.client.HTTPException) as exc:
        raise SetupError(f"service warm-up failed: {exc}") from exc
    sequence = wl.service_sequence(seed, blocks=400)

    def op(index: int) -> Sample:
        which = sequence[index % len(sequence)]
        try:
            job = client.run_job(wl.SERVICE_RECIPES[which])
        except (ServiceError, OSError, http.client.HTTPException) as exc:
            # A dead or hung server is a failed op, not a dead run; the
            # next op starts on a fresh connection.
            client.close()
            return Sample(False, why=f"{type(exc).__name__}: {exc}")
        got = (
            hashlib.sha256(job.artifact).hexdigest(),
            hashlib.sha256(job.program or b"").hexdigest(),
        )
        if got != expected[which]:
            return Sample(False, why=f"recipe {which}: bytes differ from first run")
        return Sample(True, wall_s=job.latency_s, kind=which)

    return Context(dir=root, op=op, server=server, client=client)


# -- set-up / tear-down / window ------------------------------------------------


def set_up(h: Harness, w: wl.Workload, sizes: wl.Sizes, seed: int) -> Context:
    root = h.dir / "e2e"
    root.mkdir()
    if w.layout:
        return _set_up_cli(h, w, sizes, seed, root)
    return _set_up_service(h, w, sizes, seed, root)


def tear_down(h: Harness, ctx: Context) -> None:
    if ctx.client is not None:
        ctx.client.close()
    for proc in ctx.daemons + ([ctx.server] if ctx.server else []):
        h.stop(proc)
    shutil.rmtree(ctx.dir, ignore_errors=True)


@dataclass
class Window:
    attempted: int
    failures: List[str]
    metrics: Dict[str, float]  # the declared metrics; times normalized
    raw: Dict[str, float]  # the same medians as the clock read them
    ops: List[dict]  # every ok op as the clock read it, for the suite file


def measure(ctx: Context, seconds: float, speed: Speed) -> Window:
    """Closed loop, one op in flight, for about ``seconds``: a new op
    starts only if a typical one would still finish inside the window
    (and always until ``MIN_OPS`` have run).  ``speed`` has been
    sampling the host all along, so each op's time can be normalized
    to the host's nominal speed."""
    timed: List[Tuple[Sample, float, float]] = []  # (ok sample, start, end)
    failures: List[str] = []
    server_cpu = proc_cpu_s(ctx.server.pid) if ctx.server else 0.0
    start = time.perf_counter()
    attempted = 0
    while True:
        op_start = time.perf_counter()
        sample = ctx.op(attempted)
        op_end = time.perf_counter()
        attempted += 1
        if sample.ok:
            timed.append((sample, op_start, op_end))
        else:
            failures.append(sample.why)
        elapsed = time.perf_counter() - start
        if attempted >= MIN_OPS and elapsed + elapsed / attempted > seconds:
            break
    if not timed:
        raise SetupError(f"every op failed: {failures[:3]}")
    if ctx.server is not None:
        # /proc ticks are 10 ms — too coarse per 0.3 s job — so the
        # server's CPU is taken over the whole window and shared out
        # (the job order keeps every prefix's recipe mix balanced).
        server_cpu = (proc_cpu_s(ctx.server.pid) - server_cpu) / attempted
        for sample, _, _ in timed:
            sample.cpu_s = server_cpu
        peak_rss = proc_hwm_mb(ctx.server.pid)
    else:
        peak_rss = statistics.median(s.rss_mb for s, _, _ in timed)

    ops = []
    for sample, op_start, op_end in timed:
        factor = speed.factor(op_start, op_end)
        ops.append(
            (
                sample.kind,
                {
                    "op_wall_s": sample.wall_s,
                    "op_cpu_s": sample.cpu_s,
                    "op_wall_norm_s": speed.normalize(
                        sample.wall_s, sample.cpu_s, factor
                    ),
                    "op_cpu_norm_s": sample.cpu_s * factor,
                    "factor": factor,
                },
            )
        )
    kinds = sorted({kind for kind, _ in ops})

    def typical(name: str) -> float:
        """Mean over op kinds of the median op of that kind (the CLI
        workloads have one kind; the service has one per recipe, so the
        number does not depend on which recipes the window happened to
        hold)."""
        return statistics.mean(
            statistics.median(op[name] for k, op in ops if k == kind)
            for kind in kinds
        )

    return Window(
        attempted,
        failures,
        metrics={
            "op_wall_norm_s": typical("op_wall_norm_s"),
            "op_cpu_norm_s": typical("op_cpu_norm_s"),
            "peak_rss_mb": peak_rss,
        },
        raw={"op_wall_s": typical("op_wall_s"), "op_cpu_s": typical("op_cpu_s")},
        ops=[{"kind": kind, **op} for kind, op in ops],
    )
