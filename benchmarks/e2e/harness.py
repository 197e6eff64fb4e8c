"""Process hygiene and outside-in accounting for the e2e benchmark.

Everything the end-to-end (``--trace 0``) run knows about the system
under test it learns here, from outside: a child's wall-clock between
spawn and exit, its ``wait4`` rusage (CPU and peak RSS of the whole
``prep`` process tree), and ``/proc/<pid>`` counters of the long-lived
server and worker daemons.

A :class:`Harness` owns one run-scoped scratch directory under
``results/`` and every process it started.  ``close()`` — also wired to
``atexit`` and SIGTERM/SIGINT — kills each child's process group, waits
for it and removes the directory, so a crashed run leaves neither
daemons nor files behind.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Dense PEC otherwise fans out BLAS threads and the numbers measure the
#: scheduler on a 2-core host.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A child still running after this long is killed and counted failed.
OP_TIMEOUT_S = 30.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cli_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def host_cores() -> int:
    """Cores this process may run on (affinity, not just ``nproc``)."""
    return len(os.sched_getaffinity(0))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU of ``pid`` and its reaped children, from
    ``/proc/<pid>/stat`` (10 ms ticks)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # comm may contain spaces/parens; fields resume after the last ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    utime, stime, cutime, cstime = (int(fields[i]) for i in (11, 12, 13, 14))
    return (utime + stime + cutime + cstime) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Resident high-water mark (``VmHWM``) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_spin() -> Dict[str, float]:
    """``host.spin_s`` / ``host.spin_spread``: nine laps of a fixed
    pure-Python loop — median lap (the core's speed right now) and
    inter-quartile spread (the host's noise floor for the
    single-threaded interpreter work every workload is made of)."""
    laps = []
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        laps.append(time.perf_counter() - start)
    q = quartiles(laps)
    return {"host.spin_s": q["median"], "host.spin_spread": q["spread"]}


@dataclass
class OpResult:
    """One timed child process, as seen from its parent."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


#: CPU seconds one ``_chunk()`` takes on a quiet host of this class.  It
#: fixes the unit of the ``*_norm_s`` metrics — seconds on a host where
#: the chunk takes this long — and is written into every results file;
#: ``compare.py`` refuses two files whose constant, or whose fastest
#: chunks, differ.
NOMINAL_CHUNK_S = 0.00066

#: Pause between two chunks of one sampler thread: the sampler takes
#: about 1.5 % of its vCPU.
SAMPLE_PERIOD_S = 0.05


def _chunk() -> None:
    """The host-speed probe: a fixed piece of interpreter, allocator and
    memory work (~0.7 ms).  Of the mixes tried, this one's CPU time
    followed a ``prep`` op's most closely as the host slowed down and
    recovered (README, "Normalized seconds")."""
    pairs = [(i, i + 1.0) for i in range(2500)]
    by_index = {i: pair for i, pair in enumerate(pairs)}
    sorted(pairs, key=lambda pair: -pair[0])
    del by_index


class Speed:
    """The host's speed, sampled while the ops run.

    The sandbox shares its cores.  The same ``prep`` takes 3.8 s or
    6.3 s of wall *and* of CPU time depending on the neighbours (the
    slowdown is not accounted as steal): each vCPU flips between a fast
    and a ~1.5× slower state every few hundred milliseconds, and how
    much of the time it is slow changes over minutes.  Ten runs of one
    commit spread (inter-quartile range over median) 8–22 % as the
    clock reads them, and no statistic over a run's window (median,
    minimum) helps because whole runs are slow.

    So one thread per vCPU the workload runs on — pinned to it, like
    the workload's own processes — times a fixed chunk of work twenty
    times a second, in thread CPU time (so waiting for the vCPU or the
    GIL does not count).  An interval's slowdown is the mean chunk time
    inside it over the nominal one.  Sampling *during* the op on *its*
    vCPU is what makes this track: a reference process run before and
    after each op (the first design) saw two instants of a state that
    flips several times per op, and left a spread of 3–19 %; an
    unpinned loop between ops tracked nothing.
    """

    def __init__(self) -> None:
        # A workload that ``run_workload`` pinned has one vCPU, one with
        # two busy processes has two.
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.samples: List[Tuple[float, float]] = []  # (when, chunk CPU s)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]
        for thread in self._threads:
            thread.start()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0: the calling thread
        while not self._stop.is_set():
            start = time.thread_time()
            _chunk()
            took = time.thread_time() - start
            self.samples.append((time.perf_counter(), took))
            self._stop.wait(SAMPLE_PERIOD_S)

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self, start: float, end: float) -> float:
        """Nominal ÷ measured speed over ``[start, end]``."""
        inside = [took for when, took in self.samples if start <= when <= end]
        if not inside:
            # Shorter than the sampling period: the nearest sample.
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return NOMINAL_CHUNK_S / statistics.mean(inside)

    @staticmethod
    def normalize(wall_s: float, busy_s: float, factor: float) -> float:
        """Wall seconds at the host's nominal speed.  ``busy_s`` is the
        CPU time the system under test spent in the interval: at most
        that much of the wall-clock (all of it for a CLI op, about two
        thirds of a service job, whose polls and HTTP stalls are
        timers) ran at the host's speed; the rest would have taken as
        long on any host."""
        busy = min(wall_s, busy_s)
        return wall_s - busy + busy * factor

    def summary(self) -> Dict[str, float]:
        """What the sampler saw over the run, for the results file."""
        took = sorted(t for _, t in self.samples)
        return {
            "fastest_s": took[len(took) // 20],  # 5th percentile
            "median_s": statistics.median(took),
            "samples": len(took),
        }


class Harness:
    """One run's scratch directory and child processes."""

    def __init__(self, tag: str) -> None:
        self.dir = RESULTS / f"run-{os.getpid()}-{tag}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update(THREAD_PINS)
        self.env["PYTHONPATH"] = str(SRC)
        # The pipeline spools and spills through tempfile; keep that
        # inside the run directory (and so inside the checkout).
        self.env["TMPDIR"] = str(self.dir / "tmp")
        tempfile.tempdir = self.env["TMPDIR"]  # the traced run is in-process
        self._children: List[subprocess.Popen] = []
        self._closed = False
        atexit.register(self.close)
        self._old_handlers = {
            signum: signal.signal(signum, self._on_signal)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }

    def _on_signal(self, signum, frame) -> None:
        self.close()
        sys.exit(128 + signum)

    # -- children ----------------------------------------------------------

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        """Start a child in its own process group (so a timeout or
        teardown reaches pool workers too) and remember it."""
        proc = subprocess.Popen(
            list(argv),
            env=self.env,
            cwd=self.dir,
            start_new_session=True,
            **kwargs,
        )
        self._children.append(proc)
        return proc

    def spawn_cli(self, args: Sequence[str], **kwargs) -> subprocess.Popen:
        return self.spawn(cli_argv(args), **kwargs)

    @staticmethod
    def _kill_group(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self, proc: subprocess.Popen) -> None:
        """Kill ``proc``'s group and wait until it has ended.  An
        unreaped leader (even a zombie) pins its pid, so the group id
        cannot have been recycled; a reaped one is left alone."""
        if proc.returncode is None:
            self._kill_group(proc)
            proc.wait()
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self._children:
            self._children.remove(proc)

    def run_op(
        self, args: Sequence[str], timeout: float = OP_TIMEOUT_S
    ) -> OpResult:
        """Run ``python -m repro.cli <args>`` to completion."""
        return self.run_child(cli_argv(args), timeout)

    def run_child(
        self, argv: Sequence[str], timeout: float = OP_TIMEOUT_S
    ) -> OpResult:
        """Run a child to completion, timed and accounted from outside.
        stdout/stderr go to files so a chatty child can never block on
        a pipe inside the timed region."""
        out_path = self.dir / "tmp" / "op.stdout"
        err_path = self.dir / "tmp" / "op.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(argv, stdout=out, stderr=err)
            timed_out = threading.Event()

            def expire() -> None:
                timed_out.set()
                self._kill_group(proc)

            timer = threading.Timer(timeout, expire)
            timer.start()
            try:
                # Wait without reaping: the zombie keeps the group id
                # valid, so workers a crashed child left behind can be
                # killed before wait4 collects the tree's rusage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            self._kill_group(proc)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.stop(proc)
        return OpResult(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            timed_out=timed_out.is_set(),
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for proc in list(self._children):
            self.stop(proc)
        tempfile.tempdir = None
        for signum, handler in self._old_handlers.items():
            signal.signal(signum, handler)
        atexit.unregister(self.close)
        shutil.rmtree(self.dir, ignore_errors=True)


def daemons_cpu_s(daemons: Sequence[subprocess.Popen]) -> float:
    return sum(proc_cpu_s(d.pid) for d in daemons)


def daemons_hwm_mb(daemons: Sequence[subprocess.Popen]) -> float:
    return max((proc_hwm_mb(d.pid) for d in daemons), default=0.0)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and inter-quartile spread the way the driver takes them
    (``statistics.quantiles(values, n=4)``)."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }
