"""F15 — Out-of-core preparation: bounded memory at full-reticle scale.

A synthetic full reticle (a ``tiles x tiles`` array of the F7 Fresnel
zone plate die, written flat through the incremental GDSII writer) is
prepared at two sizes, each twice in *separate subprocesses*:

* **materialized** — ``read_gdsii`` + :meth:`PreparationPipeline.run`,
  the whole flat layout and every shot resident;
* **streaming** — :meth:`PreparationPipeline.run_streaming` over a
  cursor on the same file: one shard row resident, shard results
  spilled to a temp spool, artifacts assembled shard by shard.

Each subprocess reports its own peak RSS twice: once right after
imports + pipeline construction (the *baseline* — interpreter, numpy
and the geometry stack before any work) and once at exit.  The
**delta** is the memory the preparation itself held, which is what the
out-of-core contract bounds.  The peak is a per-process high-water mark
that never goes down, hence one subprocess per run.  On Linux the
driver reads ``VmHWM`` and restarts it at the baseline
(``/proc/self/clear_refs``): ``ru_maxrss`` would also keep the forking
parent's image and any import transient, floors a streamed run's
working set now stays under.

Floors (asserted in quick mode too, gated again by CI's bench-smoke
job from the JSON sidecar):

* the ``.ebj`` and ``.ebp`` artifacts are byte-identical across the
  two paths (``cmp``-level, not digest-level);
* the streaming peak-RSS delta is at most **0.5x** the materialized
  one, at both sizes;
* from the smaller size to the larger the streaming delta grows at most
  **1.5x** — like one shard row (x1.4 from 10 to 14 tiles), not like
  the layout (x1.96): a streamed run holds one row of dies, whatever
  the reticle's size;
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
#: The two reticle sizes, smaller first: die rows grow x1.43 / x1.4.
TILES_QUICK = (7, 10)
TILES_FULL = (10, 14)
#: The bounded-memory floor: streaming delta <= 0.5x materialized.
RSS_RATIO_FLOOR = 0.5
#: The streaming delta may grow like a shard row between the two sizes,
#: not like the layout.
RSS_GROWTH_CEILING = 1.5

_DRIVER = """\
import json, resource, sys, time

def kb():
    # VmHWM is this image's own peak; ru_maxrss also keeps the pre-exec
    # image's (the forking parent's), a floor a lean run never passes.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage // 1024 if sys.platform == "darwin" else usage

mode, gds, outdir, field, workers = (
    sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]),
    int(sys.argv[5]),
)
from repro.core.jobfile import write_job
from repro.core.pipeline import PreparationPipeline

pipe = PreparationPipeline(field_size=field, machine="vsb", workers=workers)
try:
    # Restart the high-water mark at the current RSS (Linux >= 4.0).
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")
except OSError:
    pass
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


def _prepare(tiles: int, tmp_path: Path, driver: Path) -> dict:
    """One reticle size, materialized and streamed, checked."""
    gds = tmp_path / f"reticle{tiles}.gds"
    gds_bytes = write_full_reticle(gds, tiles=tiles)
    runs = {
        mode: _run_driver(mode, gds, tmp_path / f"{mode}{tiles}", driver)
        for mode in ("materialize", "stream")
    }
    mat, stream = runs["materialize"], runs["stream"]

    # Determinism floor: cmp-identical artifacts, not just equal digests.
    identical = all(
        filecmp.cmp(
            tmp_path / f"materialize{tiles}" / name,
            tmp_path / f"stream{tiles}" / name,
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
        f"{tiles}x{tiles}: streaming held {stream['delta_kb']} KiB over "
        f"baseline vs {mat['delta_kb']} KiB materialized (ratio "
        f"{ratio:.2f} > {RSS_RATIO_FLOOR})"
    )
    assert stream["peak_rss_kb"] < mat["peak_rss_kb"]
    return {
        "tiles": tiles,
        "gds_bytes": gds_bytes,
        "identical": identical,
        "rss_delta_ratio": round(ratio, 4),
        "materialized": mat,
        "streaming": stream,
    }


def test_f15_out_of_core(save_table, quick, tmp_path):
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)
    sizes = [
        _prepare(tiles, tmp_path, driver)
        for tiles in (TILES_QUICK if quick else TILES_FULL)
    ]
    small, large = sizes
    growth = large["streaming"]["delta_kb"] / small["streaming"]["delta_kb"]
    assert growth <= RSS_GROWTH_CEILING, (
        f"streaming delta grew x{growth:.2f} from {small['tiles']} to "
        f"{large['tiles']} tiles (> x{RSS_GROWTH_CEILING}): it follows the "
        "layout, not one shard row"
    )

    table = Table(
        ["path", "peak RSS [MiB]", "prep RSS [MiB]", "time [s]", "figures"],
        title=(
            f"F15 — out-of-core full-reticle prep ({small['tiles']}x"
            f"{small['tiles']} and {large['tiles']}x{large['tiles']} FZP "
            f"dies, field {FIELD_SIZE:g} um, {WORKERS} workers)"
        ),
    )
    for size in sizes:
        mat, stream = size["materialized"], size["streaming"]
        for label, run in (("materialized", mat), ("streaming", stream)):
            table.add_row([
                f"{size['tiles']}x{size['tiles']} {label}",
                run["peak_rss_kb"] // 1024,
                run["delta_kb"] // 1024,
                run["seconds"],
                run["figures"],
            ])
        table.add_row([
            f"{size['tiles']}x{size['tiles']} ratio",
            "",
            f"{size['rss_delta_ratio']:.2f} (floor <= {RSS_RATIO_FLOOR})",
            "",
            "",
        ])
    table.add_row([
        "streamed growth",
        "",
        f"x{growth:.2f} (ceiling <= {RSS_GROWTH_CEILING})",
        "",
        "",
    ])
    save_table(
        "F15_out_of_core",
        table.render(),
        data={
            "field_size": FIELD_SIZE,
            "workers": WORKERS,
            "identical": all(size["identical"] for size in sizes),
            "rss_delta_ratio": max(size["rss_delta_ratio"] for size in sizes),
            "rss_ratio_floor": RSS_RATIO_FLOOR,
            "streamed_growth": round(growth, 4),
            "rss_growth_ceiling": RSS_GROWTH_CEILING,
            "sizes": sizes,
        },
    )
