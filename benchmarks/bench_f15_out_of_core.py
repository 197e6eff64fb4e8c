"""F15 — Out-of-core preparation: bounded memory at full-reticle scale.

One synthetic full reticle (a ``tiles x tiles`` array of the F7 Fresnel
zone plate die, written flat through the incremental GDSII writer) is
prepared twice in *separate subprocesses*:

* **materialized** — ``read_gdsii`` + :meth:`PreparationPipeline.run`,
  the whole flat layout and every shot resident;
* **streaming** — :meth:`PreparationPipeline.run_streaming` over a
  cursor on the same file: one shard row resident, shard results
  spilled to a temp spool, artifacts assembled shard by shard.

Each subprocess reports its own ``ru_maxrss`` twice: once right after
imports + pipeline construction (the *baseline* — interpreter, numpy,
scipy and the geometry stack are ~120 MiB before any work) and once at
exit.  The **delta** is the memory the preparation itself held, which
is what the out-of-core contract bounds; subprocess isolation is
required because ``ru_maxrss`` is a per-process high-water mark that
never goes down.

Floors (asserted in quick mode too, gated again by CI's bench-smoke
job from the JSON sidecar):

* the ``.ebj`` and ``.ebp`` artifacts are byte-identical across the
  two paths (``cmp``-level, not digest-level);
* the streaming peak-RSS delta is at most **0.5x** the materialized
  one;
* the streaming run reports its memory witness (windows, peak window
  bytes, spilled shards) on :class:`ExecutionStats`.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.tables import Table
from repro.layout.generators import write_full_reticle

#: One writing field per die tile (the die pitch), so every shard row
#: is one row of dies — the streaming window the executor keeps.
FIELD_SIZE = 100.0
#: Pool workers for both paths (identical bytes at any worker count).
WORKERS = 2
TILES_QUICK = 10
TILES_FULL = 14
#: The bounded-memory floor: streaming delta <= 0.5x materialized.
RSS_RATIO_FLOOR = 0.5

_DRIVER = """\
import json, resource, sys, time

def kb():
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage // 1024 if sys.platform == "darwin" else usage

mode, gds, outdir, field, workers = (
    sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]),
    int(sys.argv[5]),
)
from repro.core.jobfile import write_job
from repro.core.pipeline import PreparationPipeline

pipe = PreparationPipeline(field_size=field, machine="vsb", workers=workers)
baseline = kb()
start = time.perf_counter()
extra = {}
if mode == "stream":
    res = pipe.run_streaming(
        gds,
        program_path=outdir + "/job.ebp",
        job_path=outdir + "/job.ebj",
    )
    stats = res.execution
    extra = {
        "stream_windows": stats.stream_windows,
        "peak_window_bytes": stats.peak_window_bytes,
        "shards_spilled": stats.shards_spilled,
        "spill_bytes": stats.spill_bytes,
        "spill_fallbacks": stats.spill_fallbacks,
    }
else:
    from repro.layout.gdsii import read_gdsii

    lib = read_gdsii(gds)
    res = pipe.run(lib, program_path=outdir + "/job.ebp")
    write_job(res.job, outdir + "/job.ebj")
elapsed = time.perf_counter() - start
peak = kb()
print(json.dumps({
    "mode": mode,
    "baseline_kb": baseline,
    "peak_rss_kb": peak,
    "delta_kb": peak - baseline,
    "seconds": round(elapsed, 3),
    "figures": res.job.figure_count(),
    "digest": res.job.digest(),
    **extra,
}))
"""


def _run_driver(mode: str, gds: Path, outdir: Path, driver: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, str(driver), mode, str(gds), str(outdir),
            str(FIELD_SIZE), str(WORKERS),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_f15_out_of_core(save_table, quick, tmp_path):
    tiles = TILES_QUICK if quick else TILES_FULL
    gds = tmp_path / "reticle.gds"
    gds_bytes = write_full_reticle(gds, tiles=tiles)
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)

    runs = {
        mode: _run_driver(mode, gds, tmp_path / mode, driver)
        for mode in ("materialize", "stream")
    }
    mat, stream = runs["materialize"], runs["stream"]

    # Determinism floor: cmp-identical artifacts, not just equal digests.
    identical = all(
        filecmp.cmp(
            tmp_path / "materialize" / name,
            tmp_path / "stream" / name,
            shallow=False,
        )
        for name in ("job.ebj", "job.ebp")
    )
    assert identical, "streaming artifacts differ from the in-memory path"
    assert stream["digest"] == mat["digest"]
    assert stream["figures"] == mat["figures"]

    # The memory witness must be present and meaningful.
    assert stream["stream_windows"] == tiles
    assert stream["shards_spilled"] >= tiles * tiles
    assert stream["peak_window_bytes"] > 0
    assert stream["spill_fallbacks"] == 0

    # The bounded-memory floor.
    ratio = stream["delta_kb"] / mat["delta_kb"]
    assert ratio <= RSS_RATIO_FLOOR, (
        f"streaming held {stream['delta_kb']} KiB over baseline vs "
        f"{mat['delta_kb']} KiB materialized (ratio {ratio:.2f} > "
        f"{RSS_RATIO_FLOOR})"
    )
    assert stream["peak_rss_kb"] < mat["peak_rss_kb"]

    table = Table(
        ["path", "peak RSS [MiB]", "prep RSS [MiB]", "time [s]", "figures"],
        title=(
            f"F15 — out-of-core full-reticle prep ({tiles}x{tiles} FZP "
            f"dies, {gds_bytes:,} B GDSII, field {FIELD_SIZE:g} um, "
            f"{WORKERS} workers)"
        ),
    )
    for label, run in (("materialized", mat), ("streaming", stream)):
        table.add_row([
            label,
            run["peak_rss_kb"] // 1024,
            run["delta_kb"] // 1024,
            run["seconds"],
            run["figures"],
        ])
    table.add_row(["ratio", "", f"{ratio:.2f} (floor <= {RSS_RATIO_FLOOR})", "", ""])
    save_table(
        "F15_out_of_core",
        table.render(),
        data={
            "tiles": tiles,
            "gds_bytes": gds_bytes,
            "field_size": FIELD_SIZE,
            "workers": WORKERS,
            "identical": identical,
            "rss_delta_ratio": round(ratio, 4),
            "rss_ratio_floor": RSS_RATIO_FLOOR,
            "materialized": mat,
            "streaming": stream,
        },
    )
