"""Golden-job regression suite.

Snapshots the fully prepared :class:`~repro.core.job.MachineJob` (shot
list + dose map digests) and both machine programs for three small
canonical layouts.  Any change to fracture order, PEC dosing, shard
planning or the program container that alters the prepared job —
intentionally or not — fails here first.  The pin is on the plain run;
that a warm cache, a pool, a fleet or a fault reproduce it byte for byte
is the conformance matrix's ``golden-*`` columns
(``tools/conformance.py``, whose layouts and pipeline these are).

After an intentional change, refresh the snapshots with::

    pytest tests/test_golden_jobs.py --update-golden

Digests are ``portable_digest`` values (9 significant digits) so they
survive last-ulp drift in transcendental library routines across
platforms.
"""

import json
from pathlib import Path

import pytest

from conformance import COLUMNS

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The three canonical layouts: a line/space grating (machine-friendly
#: Manhattan data), a Fresnel zone-plate ring (curved, fracture-hostile)
#: and a pseudo-random logic cell (overlap-heavy wiring, pre-unioned by
#: the ``union`` overlap policy) — the matrix's ``golden-*`` columns.
CANONICAL_LAYOUTS = {
    name.removeprefix("golden-"): column
    for name, column in COLUMNS.items()
    if name.startswith("golden-")
}


def snapshot_of(result):
    job = result.job
    return {
        "figure_count": job.figure_count(),
        "job_digest": job.portable_digest(),
        "dose_digest": job.dose_digest(),
    }


#: Every key a golden snapshot may carry; an unknown (e.g. renamed and
#: orphaned) key in a committed file is an error, not silently ignored.
GOLDEN_KEYS = {
    "figure_count",
    "job_digest",
    "dose_digest",
    "raster_program_digest",
    "vsb_program_digest",
}


def golden_path(name):
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name):
    path = golden_path(name)
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path}; generate it with "
            f"`pytest tests/test_golden_jobs.py --update-golden`"
        )
    golden = json.loads(path.read_text())
    stale = set(golden) - GOLDEN_KEYS
    assert not stale, f"golden snapshot {path} carries unknown keys {stale}"
    return golden


@pytest.mark.parametrize("name", sorted(CANONICAL_LAYOUTS))
def test_prepared_job_matches_golden(name, update_golden):
    column = CANONICAL_LAYOUTS[name]
    record = snapshot_of(column.pipeline(machine=None).run(column.layout()))

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        merged = {}
        if golden_path(name).exists():
            merged = json.loads(golden_path(name).read_text())
        merged.update(record)
        golden_path(name).write_text(json.dumps(merged, indent=2) + "\n")
        return
    golden = load_golden(name)
    assert record == {k: golden.get(k) for k in record}, (
        f"prepared job for {name!r} diverged from the golden snapshot; "
        f"if the change is intentional, re-run with --update-golden"
    )


@pytest.mark.parametrize("name", sorted(CANONICAL_LAYOUTS))
def test_machine_programs_match_golden(name, update_golden, tmp_path):
    """Raster and VSB machine-program stream digests are pinned: any
    change to fracture order, dosing, shard planning, RLE encoding or
    the program container fails here."""
    column = CANONICAL_LAYOUTS[name]
    record = {}
    for mode in ("raster", "vsb"):
        pipe = column.pipeline(cache_dir=tmp_path / "cache", machine=mode)
        path = tmp_path / f"{mode}.ebp"
        cold, warm = (
            pipe.run(column.layout(), program_path=path).machine_program
            for _ in range(2)
        )
        assert cold.stream_bytes > 0
        # The warm export answers every segment from the program cache.
        assert (warm.cache_hits, warm.cache_misses) == (warm.segment_count, 0)
        record[f"{mode}_program_digest"] = cold.digest

    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        merged = {}
        if golden_path(name).exists():
            merged = json.loads(golden_path(name).read_text())
        merged.update(record)
        golden_path(name).write_text(json.dumps(merged, indent=2) + "\n")
        return
    golden = load_golden(name)
    assert record == {k: golden.get(k) for k in record}, (
        f"machine programs for {name!r} diverged from the golden "
        f"snapshot; if the change is intentional, re-run with "
        f"--update-golden"
    )


def test_golden_snapshots_are_committed():
    """Every canonical layout has a snapshot on disk (guards against a
    fresh checkout silently skipping the comparison)."""
    for name in CANONICAL_LAYOUTS:
        assert golden_path(name).exists(), (
            f"tests/golden/{name}.json is missing from the repository"
        )


def test_snapshots_distinguish_layouts():
    """The three goldens are genuinely different jobs."""
    digests = [load_golden(name)["job_digest"] for name in CANONICAL_LAYOUTS]
    assert len(set(digests)) == len(digests)
