"""F10 — Incremental re-runs through the content-addressed shard cache.

Measures the three workflows the cache exists for, on the FZP case
study (the fracture-hostile, PEC-heavy workload of F7/F9):

* **cold** — empty cache: every shard fractured and corrected, results
  stored.
* **warm** — unchanged layout: every shard answered from the cache;
  fracture and PEC are skipped entirely.
* **edited** — one polygon of one field nudged: exactly that field's
  shard is re-computed, every other shard hits.

Correctness is asserted, not assumed: warm and edited runs must be
byte-identical (exact job digests) to cold runs of the same geometry,
the warm run must hit on every shard, and the edited run must miss on
exactly one.  The headline speedup floor (warm ≥ 5× cold) is asserted
in full mode; ``--quick`` keeps the assertions on hit counts and
determinism only, since sub-second runs make wall-clock ratios noisy.
"""

import time

from bench_f9_parallel_scaling import sectored_zone_plate

from repro.analysis.tables import Table
from repro.core.pipeline import PreparationPipeline
from repro.geometry.polygon import Polygon
from repro.layout.flatten import flatten_cell
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF

FIELD_SIZE = 15.0
WARM_SPEEDUP_FLOOR = 5.0


def fzp_polygons(quick: bool):
    lib = sectored_zone_plate(
        zones=10 if quick else 24, sectors=8 if quick else 12
    )
    flat = flatten_cell(lib.top_cell())
    polygons = []
    for polys in flat.values():
        polygons.extend(polys)
    return polygons


def edit_one_polygon(polygons):
    """Nudge one vertex of one polygon, staying inside its field.

    A ~20 nm vertex move is an edit a designer would actually make; it
    must invalidate exactly the one shard that owns the polygon.  The
    vertex moves radially *toward* the plate centre, so the sector can
    only retreat into an empty gap zone (or slide along a shared radial
    edge) — the edit never creates a new cross-shard overlap.
    """
    edited = list(polygons)
    victim = edited[len(edited) // 2]
    vertices = [(p.x, p.y) for p in victim.vertices]
    vx, vy = vertices[0]
    vertices[0] = (vx * (1.0 - 1e-3), vy * (1.0 - 1e-3))
    edited[len(edited) // 2] = Polygon(vertices)
    return edited


def run_incremental(quick: bool, cache_dir):
    psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)

    def pipeline(cache_dir):
        return PreparationPipeline(
            corrector=IterativeDoseCorrector(),
            psf=psf,
            field_size=FIELD_SIZE,
            cache_dir=cache_dir,
        )

    cached = pipeline(cache_dir)
    polygons = fzp_polygons(quick)

    def timed(polys, pipe=cached):
        start = time.perf_counter()
        result = pipe.run(polys)
        return result, time.perf_counter() - start

    cold, cold_time = timed(polygons)
    warm, warm_time = timed(polygons)
    edited_polys = edit_one_polygon(polygons)
    edited, edited_time = timed(edited_polys)
    # Reference for the edited geometry, from an uncached pipeline.
    edited_ref, edited_ref_time = timed(edited_polys, pipeline(None))

    rows = [
        ("cold", cold, cold_time),
        ("warm", warm, warm_time),
        ("one-field edit", edited, edited_time),
        ("edit, no cache", edited_ref, edited_ref_time),
    ]
    table = Table(
        ["run", "shards", "hits", "misses", "time [s]", "vs cold"],
        title=f"F10: incremental FZP re-runs (quick={quick})",
    )
    for label, result, elapsed in rows:
        stats = result.execution
        table.add_row(
            [
                label,
                stats.shard_count,
                stats.cache_hits,
                stats.cache_misses,
                elapsed,
                f"{cold_time / elapsed:.1f}x",
            ]
        )
    return table.render(), rows, (cold, warm, edited, edited_ref)


def test_f10_incremental_rerun(save_table, quick, tmp_path):
    text, rows, (cold, warm, edited, edited_ref) = run_incremental(
        quick, tmp_path / "shard-cache"
    )
    save_table("f10_incremental", text)

    shard_count = cold.execution.shard_count
    assert cold.execution.cache_hits == 0
    assert cold.execution.cache_misses == shard_count

    # Warm full-hit re-run: no shard computed, byte-identical output.
    assert warm.execution.cache_hits == shard_count
    assert warm.execution.cache_misses == 0
    assert warm.job.digest() == cold.job.digest()

    # One-field edit: exactly one shard re-computed, and the cached run
    # is byte-identical to an uncached run of the edited geometry.
    assert edited.execution.cache_misses == 1
    assert edited.execution.cache_hits == shard_count - 1
    assert edited.job.digest() == edited_ref.job.digest()
    assert edited.job.digest() != cold.job.digest()

    cold_time = rows[0][2]
    warm_time = rows[1][2]
    if not quick:
        assert cold_time / warm_time >= WARM_SPEEDUP_FLOOR, (
            f"warm re-run only {cold_time / warm_time:.1f}x faster "
            f"than cold (floor {WARM_SPEEDUP_FLOOR}x)"
        )
