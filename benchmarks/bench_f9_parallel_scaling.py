"""F9 — Parallel field-sharded pipeline scaling.

Serial-vs-parallel wall-clock of the full preparation pipeline
(fracture + iterative proximity correction) through the sharded
execution engine (:mod:`repro.core.executor`), on the two standard
workloads:

* **grating** — a wide line/space grating; shards cleanly by field
  columns (the machine-friendly case).
* **fzp** — a sectored Fresnel zone plate; all-curves fracture-hostile
  geometry (the machine-hostile case).

Every run is also checked shot-for-shot against the serial reference —
the engine's determinism contract (``workers`` never changes the
result) is asserted, not assumed.  The speedup floor is only asserted
with enough physical cores and in full (non ``--quick``) mode; the
table records the measured numbers either way.

Timings are **pool-warm**: the persistent worker pool is spawned (and
its processes forced up) before the clock starts, so the numbers
reflect the steady state of a long-running service rather than
charging one-off process spawn cost to small workloads — the
historical source of a misleading multi-worker "slowdown" on the quick
configurations.
"""

import math
import os
import time

from repro.analysis.tables import Table
from repro.core.executor import shutdown_worker_pool, warm_worker_pool
from repro.core.pipeline import PreparationPipeline
from repro.geometry.polygon import Polygon
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.layout.library import Library
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR_AT_4 = 1.5


def effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sectored_zone_plate(
    zones: int = 16, sectors: int = 8, points_per_arc: int = 24
) -> Library:
    """Zone plate with each ring split into ``sectors`` arc polygons.

    Sectoring is what a mask shop does to curved data anyway, and it
    gives the field sharder spatially compact work units (the stock
    half-annulus polygons all straddle the plate centre).
    """
    wavelength, focal_length = 0.532, 150.0
    top = Cell("FZP_SECTORED")

    def radius(n: int) -> float:
        return math.sqrt(
            n * wavelength * focal_length + (n * wavelength / 2.0) ** 2
        )

    step = 2.0 * math.pi / sectors
    for n in range(1, zones, 2):
        for k in range(sectors):
            top.add_polygon(
                Polygon.annulus_sector(
                    (0.0, 0.0),
                    radius(n),
                    radius(n + 1),
                    k * step,
                    (k + 1) * step,
                    points_per_arc,
                ),
                Layer(1),
            )
    lib = Library("FZP_SECTORED_LIB")
    lib.add(top)
    return lib


def workloads(quick: bool):
    from repro.layout import generators

    if quick:
        return [
            ("grating", generators.grating(lines=40, length=40.0), 20.0),
            ("fzp", sectored_zone_plate(zones=8), 15.0),
        ]
    return [
        ("grating", generators.grating(lines=300, length=200.0), 25.0),
        ("fzp", sectored_zone_plate(zones=28, sectors=12), 15.0),
    ]


def shot_key(shot):
    t = shot.trapezoid
    return (
        t.y_bottom,
        t.y_top,
        t.x_bottom_left,
        t.x_bottom_right,
        t.x_top_left,
        t.x_top_right,
        shot.dose,
    )


def run_scaling(quick: bool):
    psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
    cores = effective_cores()
    table = Table(
        ["workload", "shots", "shards", "workers", "time [s]", "speedup"],
        title=(
            f"F9: serial vs. parallel preparation, pool-warm "
            f"({cores} cores, quick={quick})"
        ),
    )
    speedups = {}
    records = []
    for name, lib, field_size in workloads(quick):
        serial_time = None
        reference = None
        for workers in WORKER_COUNTS:
            if workers > 1:
                warm_worker_pool(workers)
            pipe = PreparationPipeline(
                corrector=IterativeDoseCorrector(),
                psf=psf,
                workers=workers,
                field_size=field_size,
            )
            start = time.perf_counter()
            result = pipe.run(lib)
            elapsed = time.perf_counter() - start
            keys = [shot_key(s) for s in result.job.shots]
            if workers == 1:
                serial_time = elapsed
                reference = keys
            else:
                assert keys == reference, (
                    f"{name}: workers={workers} diverged from serial"
                )
            speedup = serial_time / elapsed
            speedups[(name, workers)] = speedup
            records.append(
                {
                    "workload": name,
                    "shots": len(keys),
                    "shards": result.execution.occupied_shards,
                    "workers": workers,
                    "time_s": elapsed,
                    "speedup": speedup,
                    "pool_warm": workers > 1,
                }
            )
            table.add_row(
                [
                    name,
                    len(keys),
                    result.execution.occupied_shards,
                    workers,
                    elapsed,
                    f"{speedup:.2f}x",
                ]
            )
    return table.render(), speedups, records


def test_f9_parallel_scaling(save_table, quick):
    try:
        text, speedups, records = run_scaling(quick)
    finally:
        shutdown_worker_pool()
    save_table(
        "f9_parallel_scaling",
        text,
        data={"cores": effective_cores(), "runs": records},
    )
    if not quick and effective_cores() >= 4:
        best = max(
            speedups[(name, 4)] for name, _, _ in workloads(quick)
        )
        assert best >= SPEEDUP_FLOOR_AT_4, (
            f"expected >= {SPEEDUP_FLOOR_AT_4}x at 4 workers, "
            f"got {best:.2f}x"
        )


def test_f9_determinism_smoke(quick):
    """Cheap standalone guard: parallel == serial on a small workload."""
    from repro.layout import generators

    lib = generators.grating(lines=20, length=30.0)
    serial = PreparationPipeline(workers=1, field_size=10.0).run(lib)
    parallel = PreparationPipeline(workers=2, field_size=10.0).run(lib)
    assert [shot_key(s) for s in serial.job.shots] == [
        shot_key(s) for s in parallel.job.shots
    ]
