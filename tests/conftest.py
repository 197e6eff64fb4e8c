"""Shared test configuration.

Adds the ``--update-golden`` flag used by the golden-job regression
suite (:mod:`tests.test_golden_jobs`) to re-snapshot the reference
digests after an intentional behaviour change.
"""

import sys
from pathlib import Path

import pytest

# ``import conformance`` (tools/conformance.py): the one cross-mode
# matrix, its reference runs and its fleet, shared by every suite that
# compares a run with "the same layout, run plainly".
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden job snapshots instead of comparing",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def dense_matrix_does_not_fit(monkeypatch, tmp_path):
    """Fail the dense exposure matrix's allocation — the one anonymous
    ``mmap`` in :mod:`repro.pec.base` — the way the kernel refuses a
    58,300-shot shard's 25 GiB mapping: ``OSError(ENOMEM)``.  The worker
    pool is re-forked around the patch so pooled shards meet it too (and
    later tests do not); yields a function returning the pids of the
    processes that tried.
    """
    import errno
    import mmap
    import os

    from repro.core.executor import shutdown_worker_pool
    from repro.pec import base

    attempts = tmp_path / "dense-allocation.pids"
    attempts.touch()

    class MmapWithoutRoom:
        def __getattr__(self, name):
            return getattr(mmap, name)

        @staticmethod
        def mmap(fileno, length, *args, **kwargs):
            with attempts.open("a") as log:
                log.write(f"{os.getpid()}\n")
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    shutdown_worker_pool()
    monkeypatch.setattr(base, "mmap", MmapWithoutRoom())
    yield lambda: {int(pid) for pid in attempts.read_text().split()}
    shutdown_worker_pool()
