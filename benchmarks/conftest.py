"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table or figure of the reconstructed
evaluation (see DESIGN.md).  Result tables are printed to stdout and
written to ``benchmarks/results/<experiment>.txt`` so that EXPERIMENTS.md
can reference them; every saved table also writes a machine-readable
``benchmarks/results/BENCH_<experiment>.json`` sidecar (workload
numbers, timings, peak RSS, and the conditions they were measured
under) so the performance trajectory is trackable across PRs without
parsing text tables.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

import numpy
import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: Where a ``--quick`` run writes (git-ignored): reduced-workload numbers
#: never overwrite the tracked full-size results.
QUICK_RESULTS_DIR = RESULTS_DIR / "quick"


def pytest_addoption(parser):
    """``--quick``: reduced workloads for the CI smoke job."""
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks on reduced workloads (CI smoke mode)",
    )


@pytest.fixture(scope="session")
def quick(request):
    """True when the suite runs in ``--quick`` (reduced) mode."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def cold_sweep():
    """``cold_sweep(fn)``: ``fn`` with the fast kernel's kept sweep
    forgotten before every call.  A bench that times one input over and
    over would otherwise time the re-emission of a kept sweep, not the
    kernel (:func:`repro.geometry.scanline_fast.clear_sweep_slot`)."""
    # Imported here: ``benchmarks/e2e`` runs its tests without ``src``
    # on the path and must not import the program under test.
    from repro.geometry.scanline_fast import clear_sweep_slot

    def wrap(fn):
        def call(*args, **kwargs):
            clear_sweep_slot()
            return fn(*args, **kwargs)

        return call

    return wrap


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far [KiB]."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        usage //= 1024
    return int(usage)


@pytest.fixture(scope="session")
def save_table(request):
    """Persist (and echo) an experiment's result table.

    ``save_table(experiment_id, text, data=...)`` writes the rendered
    table to ``results/<experiment_id>.txt`` and a JSON record to
    ``results/BENCH_<experiment_id>.json`` (under ``results/quick/``
    with ``--quick``).  ``data`` carries the experiment's structured
    numbers (workloads, times, speedups); the table text, the host
    conditions (cores, Python and numpy versions) and the process's
    peak RSS are always included.
    """
    is_quick = request.config.getoption("--quick")
    results = QUICK_RESULTS_DIR if is_quick else RESULTS_DIR
    results.mkdir(parents=True, exist_ok=True)

    def _save(experiment_id: str, text: str, data=None) -> None:
        path = results / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        record = {
            "experiment": experiment_id,
            "quick": is_quick,
            "conditions": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "peak_rss_kb": peak_rss_kb(),
            "table": text.splitlines(),
            "data": data,
        }
        json_path = results / f"BENCH_{experiment_id}.json"
        json_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\n=== {experiment_id} ===")
        print(text)

    return _save
