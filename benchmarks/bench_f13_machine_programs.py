"""F13 — Machine-program export: exact stream sizes, streamed memory.

The tutorial's data-volume argument is about what a machine actually
streams, so the export backend is measured on the workloads whose data
the figure-level estimate mis-prices most: a dense grating (many
figures sharing scanlines — runs merge) and the memory array (shard
fan-out).  Four claims are asserted on every run, ``--quick`` included:

* **exact ≤ estimate** — on a single-shard export the exact RLE stream
  never exceeds :func:`repro.machine.datapath.rle_bytes_estimate` (the
  half-open scanline convention plus run merging guarantee it).
* **bounded memory** — a multi-shard export never materializes more
  than one shard's runs at a time (``peak_segment_bytes`` strictly
  below the total stream).
* **determinism** — ``workers=2`` and warm-cache exports are
  byte-identical to the cold serial program (file digests compared).
* **cache effectiveness** — the warm export answers every segment from
  the program cache.

Full mode additionally reports export throughput (MB of stream per
second of export time).
"""

import time

from repro.analysis.tables import Table
from repro.core.pipeline import PreparationPipeline
from repro.layout import generators

FIELD_SIZE = 20.0
ADDRESS_UNIT = 0.5


def workloads(quick: bool):
    return [
        (
            "grating",
            generators.grating(
                pitch=2.0, duty=0.5, lines=16 if quick else 64, length=40.0
            ),
        ),
        (
            "memory",
            generators.memory_array(
                words=2 if quick else 4,
                bits=2 if quick else 4,
                # Big enough to span several 20 µm writing fields even
                # in quick mode (the bounded-memory assert needs >1
                # segment).
                blocks=(3, 3) if quick else (4, 4),
            ),
        ),
    ]


def export_case(library, name, tmp_path, mode="raster"):
    def pipeline(**knobs):
        return PreparationPipeline(
            address_unit=ADDRESS_UNIT, overlap_policy="ignore", machine=mode, **knobs
        )

    sharded = pipeline(field_size=FIELD_SIZE, cache_dir=tmp_path / "cache")
    runs = {}
    for which, pipe in (
        ("single", pipeline()),
        ("cold", sharded),
        ("warm", sharded),
        ("workers2", pipeline(field_size=FIELD_SIZE, workers=2)),
    ):
        path = tmp_path / f"{name}.{which}.{mode}.ebp"
        start = time.perf_counter()
        result = pipe.run(library, program_path=path)
        elapsed = time.perf_counter() - start
        runs[which] = (result.machine_program, elapsed, path)
    return runs


def test_f13_machine_program_export(save_table, quick, tmp_path):
    table = Table(
        [
            "workload",
            "segments",
            "exact [B]",
            "estimate [B]",
            "ratio",
            "peak seg [B]",
            "export [s]",
        ],
        title=f"F13: machine-program export (quick={quick})",
    )
    data = []
    for name, library in workloads(quick):
        runs = export_case(library, name, tmp_path)
        single, single_time, _ = runs["single"]
        cold, cold_time, cold_path = runs["cold"]
        warm, _, warm_path = runs["warm"]
        par, _, par_path = runs["workers2"]

        # Exact ≤ estimate on the single-shard stream.
        assert 0 < single.stream_bytes <= single.estimate_bytes, (
            f"{name}: exact stream {single.stream_bytes} exceeds the "
            f"estimate {single.estimate_bytes}"
        )
        # Bounded memory: the sharded export streams one shard at a time.
        assert cold.segment_count > 1
        assert 0 < cold.peak_segment_bytes < cold.stream_bytes, (
            f"{name}: peak segment {cold.peak_segment_bytes} not below "
            f"total stream {cold.stream_bytes} — export is not streamed"
        )
        # Determinism: cold = warm = workers2, byte for byte.
        cold_bytes = cold_path.read_bytes()
        assert cold_bytes == warm_path.read_bytes()
        assert cold_bytes == par_path.read_bytes()
        assert cold.digest == warm.digest == par.digest
        # Warm export fully served by the program cache.
        assert warm.cache_hits == warm.segment_count
        assert warm.cache_misses == 0

        table.add_row(
            [
                name,
                cold.segment_count,
                cold.stream_bytes,
                cold.estimate_bytes,
                f"{cold.stream_bytes / cold.estimate_bytes:.2f}",
                cold.peak_segment_bytes,
                cold_time,
            ]
        )
        data.append(
            {
                "workload": name,
                "segments": cold.segment_count,
                "stream_bytes": cold.stream_bytes,
                "estimate_bytes": cold.estimate_bytes,
                "single_shard_stream_bytes": single.stream_bytes,
                "single_shard_estimate_bytes": single.estimate_bytes,
                "peak_segment_bytes": cold.peak_segment_bytes,
                "run_count": cold.run_count,
                "line_count": cold.line_count,
                "cold_export_s": cold_time,
                "single_export_s": single_time,
                "digest": cold.digest,
            }
        )
    save_table("f13_machine_programs", table.render(), data={"cases": data})
