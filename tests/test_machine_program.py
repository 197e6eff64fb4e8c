"""Tests for the machine-program export backend.

Covers the container round-trip, the per-mode segment encodings, the
determinism contract (workers / cache / cold-warm byte identity), the
segment cache, the bounded-memory streaming witness and the pipeline /
CLI threading.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.core.cache import CACHE_SCHEMA_VERSION, ShardCache
from repro.core.executor import ExecutionResult, merge_shard_results
from repro.core.jobfile import JobFileError, loads_program
from repro.core.pipeline import PreparationPipeline
from repro.core.plan import plan_shards
from repro.fracture.base import Shot, with_doses
from repro.geometry.polygon import Polygon
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.machine.datapath import BYTES_PER_FIGURE
from repro.machine.program import (
    MachineProgramError,
    MachineSpec,
    SHOT_RECORD_BYTES,
    decode_raster_segment,
    decode_shot_segment,
    export_program,
    raster_coverage_lines,
)
from repro.machine.rle import (
    BYTES_PER_LINE,
    BYTES_PER_RUN,
    decode_to_coverage,
    encode_runs,
    runs_by_line,
)
from repro.machine.vsb import ShapedBeamWriter


def grating_polygons(lines=8):
    return [
        Polygon.rectangle(i * 2.0, 0.0, i * 2.0 + 1.0, 16.0)
        for i in range(lines)
    ]


def fractured(polygons, field_size=None):
    """The polygons' shard results, held in shard order: what a
    resident run's shard loop hands its assembly."""
    shards = plan_shards(polygons, field_size)
    execution = ExecutionResult()
    pipe = PreparationPipeline(field_size=field_size)
    pipe._run_shards([(shards, 0)], len(shards), execution, False)
    return execution


class TestMachineSpec:
    def test_validation(self):
        with pytest.raises(MachineProgramError):
            MachineSpec(mode="mebes")
        with pytest.raises(MachineProgramError):
            MachineSpec(mode="raster", address_unit=0.0)
        with pytest.raises(MachineProgramError):
            MachineSpec(mode="raster", channel_rate=0.0)

    def test_machine_matches_mode(self):
        assert MachineSpec("raster", address_unit=0.25).machine().address_unit == 0.25
        assert MachineSpec("vsb").machine().name == "shaped-beam"
        assert MachineSpec("vector").machine().name == "vector"


class TestRasterExport:
    def test_roundtrip_matches_direct_encode(self, tmp_path):
        result = fractured(grating_polygons())
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, name="g")
        spec = MachineSpec("raster", address_unit=0.5)
        program = export_program(result.shard_results, job, spec, tmp_path / "g.ebp")
        image = loads_program((tmp_path / "g.ebp").read_bytes())
        assert image.mode == "raster"
        assert image.address_unit == 0.5
        assert image.origin == (job.bounding_box[0], job.bounding_box[1])

        # The program's merged scanlines equal a direct global encode.
        _, line_count, runs = encode_runs(
            [s.trapezoid for s in result.shots], 0.5, origin=image.origin
        )
        assert raster_coverage_lines(image) == runs_by_line(runs)
        assert program.run_count == len(runs)
        assert program.stream_bytes == (
            len(runs) * BYTES_PER_RUN + line_count * BYTES_PER_LINE
        )
        assert program.digest
        assert program.file_bytes == (tmp_path / "g.ebp").stat().st_size

    def test_sharded_coverage_equals_unsharded(self, tmp_path):
        polys = grating_polygons()
        single = fractured(polys)
        sharded = fractured(polys, field_size=5.0)
        from repro.core.job import MachineJob

        spec = MachineSpec("raster", address_unit=0.5)
        p1 = export_program(
            single.shard_results,
            MachineJob(single.shots, name="s"),
            spec,
            tmp_path / "one.ebp",
        )
        p2 = export_program(
            sharded.shard_results,
            MachineJob(sharded.shots, name="m"),
            spec,
            tmp_path / "many.ebp",
        )
        img1 = loads_program((tmp_path / "one.ebp").read_bytes())
        img2 = loads_program((tmp_path / "many.ebp").read_bytes())
        lines1 = raster_coverage_lines(img1)
        lines2 = raster_coverage_lines(img2)
        assert lines1 == lines2
        assert p1.run_count == p2.run_count
        # The sharded stream re-announces scanlines per shard column.
        assert p2.segment_count > 1
        assert p2.line_count >= p1.line_count

    def test_exact_bytes_bounded_by_estimate_single_shard(self, tmp_path):
        result = fractured(grating_polygons())
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, name="g")
        program = export_program(
            result.shard_results,
            job,
            MachineSpec("raster", address_unit=0.5),
            tmp_path / "g.ebp",
        )
        assert 0 < program.stream_bytes <= program.estimate_bytes

    def test_bounded_memory_witness(self, tmp_path):
        result = fractured(grating_polygons(), field_size=5.0)
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, name="g")
        program = export_program(
            result.shard_results,
            job,
            MachineSpec("raster", address_unit=0.5),
            tmp_path / "g.ebp",
        )
        assert program.segment_count > 1
        # Streaming: no more than one shard's runs ever in memory.
        assert 0 < program.peak_segment_bytes < program.stream_bytes

    def test_cross_shard_abutting_column_not_double_written(self, tmp_path):
        # Two rectangles abutting at x = 11.0 — exactly a pixel centre at
        # a 1 µm address unit — land in different 10 µm shards, so no run
        # merging can dedupe them: the half-open x convention must keep
        # the segments disjoint (the shared column belongs to the
        # right-hand shard only).
        from repro.core.job import MachineJob

        polys = [
            Polygon.rectangle(0.5, 0.0, 11.0, 3.0),
            Polygon.rectangle(11.0, 0.0, 19.5, 3.0),
        ]
        sharded = fractured(polys, field_size=10.0)
        single = fractured(polys)
        spec = MachineSpec("raster", address_unit=1.0)
        p_sharded = export_program(
            sharded.shard_results,
            MachineJob(sharded.shots, name="s"),
            spec,
            tmp_path / "sharded.ebp",
        )
        p_single = export_program(
            single.shard_results,
            MachineJob(single.shots, name="u"),
            spec,
            tmp_path / "single.ebp",
        )
        assert p_sharded.segment_count == 2
        image = loads_program((tmp_path / "sharded.ebp").read_bytes())
        per_line: dict = {}
        for seg in image.segments:
            first, seg_lines = decode_raster_segment(seg.payload)
            for k, runs in enumerate(seg_lines):
                for start, length in runs:
                    cells = per_line.setdefault(first + k, set())
                    span = set(range(start, start + length))
                    assert not (cells & span), (
                        f"line {first + k}: addresses {cells & span} "
                        "written by two shards"
                    )
                    cells |= span
        # And the sharded stream writes exactly the unsharded addresses.
        total = sum(len(cells) for cells in per_line.values())
        unsharded = loads_program((tmp_path / "single.ebp").read_bytes())
        single_lines = raster_coverage_lines(unsharded)
        single_total = sum(
            length for runs in single_lines.values() for _, length in runs
        )
        assert p_single.segment_count == 1
        assert total == single_total

    def test_decode_raster_segment_rejects_garbage(self):
        with pytest.raises(JobFileError):
            decode_raster_segment(
                b"\x00\x00\x00\x00\x00\x00\x00\x01\x00\x02garbage"
            )


class TestShotExport:
    def _program(self, tmp_path, mode, base_dose=1.0, doses=None):
        result = fractured(grating_polygons(lines=3))
        if doses is not None:
            # Results are read-only: a different dose is a new result.
            (shard,) = result.shard_results
            dosed = dataclasses.replace(
                shard, shots=with_doses(shard.shots, doses[: len(shard.shots)])
            )
            result = merge_shard_results([dosed], result.corrected, result.stats)
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, base_dose=base_dose, name="g")
        spec = MachineSpec(mode)
        program = export_program(
            result.shard_results, job, spec, tmp_path / f"g.{mode}.ebp"
        )
        return program, loads_program((tmp_path / f"g.{mode}.ebp").read_bytes()), job

    def test_vsb_records_roundtrip(self, tmp_path):
        program, image, job = self._program(tmp_path, "vsb")
        records = [
            r for seg in image.segments for r in decode_shot_segment(seg.payload)
        ]
        assert len(records) == len(job.shots) == program.figure_count
        assert program.stream_bytes == len(records) * SHOT_RECORD_BYTES
        writer = ShapedBeamWriter()
        flash_ns = writer.flash_time(job.base_dose) * 1e9
        for record, shot in zip(records, job.shots):
            t = shot.trapezoid
            assert record.y_bottom == round(t.y_bottom / 1e-3)
            assert record.x_bottom_left == round(t.x_bottom_left / 1e-3)
            assert record.dose_milli == round(shot.dose * 1000)
            assert record.beam_ns == round(flash_ns * shot.dose)

    def test_vector_dwell_scales_with_area(self, tmp_path):
        program, image, job = self._program(tmp_path, "vector")
        records = [
            r for seg in image.segments for r in decode_shot_segment(seg.payload)
        ]
        areas = [s.trapezoid.area() for s in job.shots]
        times = [r.beam_ns for r in records]
        ratios = {round(t / a) for t, a in zip(times, areas)}
        assert len(ratios) == 1  # ns per µm² constant at uniform dose

    def test_dosed_records_carry_dose(self, tmp_path):
        program, image, job = self._program(
            tmp_path, "vsb", doses=[0.5, 1.25, 2.0] * 20
        )
        records = [
            r for seg in image.segments for r in decode_shot_segment(seg.payload)
        ]
        assert {r.dose_milli for r in records} == {500, 1250, 2000}

    def test_estimate_uses_record_size(self, tmp_path):
        program, image, job = self._program(tmp_path, "vsb")
        assert program.estimate_bytes == len(job.shots) * SHOT_RECORD_BYTES
        assert SHOT_RECORD_BYTES > BYTES_PER_FIGURE  # exact record is richer


class TestContainer:
    def test_bad_magic_and_truncation(self, tmp_path):
        with pytest.raises(JobFileError):
            loads_program(b"NOPE" + b"\x00" * 64)
        result = fractured(grating_polygons(lines=2))
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, name="g")
        path = tmp_path / "g.ebp"
        export_program(result.shard_results, job, MachineSpec("raster"), path)
        data = path.read_bytes()
        with pytest.raises(JobFileError):
            loads_program(data[:-3])
        with pytest.raises(JobFileError):
            loads_program(data + b"\x00")


class TestProgramCache:
    def test_second_export_hits_every_segment(self, tmp_path):
        cache = ShardCache(tmp_path / "cache")
        result = fractured(grating_polygons(), field_size=5.0)
        from repro.core.job import MachineJob

        job = MachineJob(result.shots, name="g")
        spec = MachineSpec("raster")
        cold = export_program(
            result.shard_results, job, spec, tmp_path / "a.ebp", cache=cache
        )
        warm = export_program(
            result.shard_results, job, spec, tmp_path / "b.ebp", cache=cache
        )
        assert cold.cache_misses == cold.segment_count > 0
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.segment_count
        assert warm.cache_misses == 0
        assert (tmp_path / "a.ebp").read_bytes() == (tmp_path / "b.ebp").read_bytes()
        assert cold.digest == warm.digest

    def test_corrupt_blob_is_evicted(self, tmp_path):
        cache = ShardCache(tmp_path / "cache")
        cache.put_blob("ab" + "0" * 62, b"payload")
        path = cache.path_for("ab" + "0" * 62)
        path.write_bytes(b"torn")
        assert cache.get_blob("ab" + "0" * 62) is None
        assert not path.exists()

    def test_blob_roundtrip(self, tmp_path):
        cache = ShardCache(tmp_path / "cache")
        key = "cd" + "1" * 62
        cache.put_blob(key, b"\x01\x02\x03")
        assert cache.get_blob(key) == b"\x01\x02\x03"

    def test_key_sensitivity(self, tmp_path):
        cache = ShardCache(tmp_path / "cache")
        result = fractured(grating_polygons(lines=2))
        shard = result.shard_results[0]
        base = cache.program_key_for(shard, MachineSpec("raster"), (0.0, 0.0), 1.0)
        assert base == cache.program_key_for(
            shard, MachineSpec("raster"), (0.0, 0.0), 1.0
        )
        assert base != cache.program_key_for(
            shard, MachineSpec("vsb"), (0.0, 0.0), 1.0
        )
        assert base != cache.program_key_for(
            shard, MachineSpec("raster", address_unit=0.25), (0.0, 0.0), 1.0
        )
        assert base != cache.program_key_for(
            shard, MachineSpec("raster"), (0.5, 0.0), 1.0
        )
        assert base != cache.program_key_for(
            shard, MachineSpec("raster"), (0.0, 0.0), 2.0
        )
        # A result's shots are read-only once built; a different dose
        # is a different result.
        first, *rest = shard.shots
        redosed = dataclasses.replace(
            shard, shots=[Shot(first.trapezoid, first.dose + 0.25), *rest]
        )
        assert base != cache.program_key_for(
            redosed, MachineSpec("raster"), (0.0, 0.0), 1.0
        )

    def test_schema_version_bumped_for_programs(self):
        assert CACHE_SCHEMA_VERSION >= 3


class TestPipelineThreading:
    def test_run_exports_and_records_stats(self, tmp_path):
        pipe = PreparationPipeline(
            machine="raster", program_dir=tmp_path, field_size=6.0
        )
        result = pipe.run(grating_polygons(), name="grating job")
        program = result.machine_program
        assert program is not None
        assert program.path.exists()
        assert program.path.parent == tmp_path
        assert program.mode == "raster"
        assert program.stream_bytes > 0
        assert program.breakdown.total > 0
        assert program.channel.channel_rate > 0

    def test_machine_mode_is_the_pipelines(self, tmp_path):
        polys = grating_polygons(lines=2)
        none = PreparationPipeline(program_dir=tmp_path).run(polys, name="n")
        assert none.machine_program is None
        pipe = PreparationPipeline(machine="vector", program_dir=tmp_path)
        assert pipe.run(polys, name="n").machine_program.mode == "vector"
        with pytest.raises(AttributeError, match="fixed at construction"):
            pipe.machine = None
        assert pipe.run(polys, name="n").machine_program.mode == "vector"

    def test_program_dir_created_on_demand(self, tmp_path):
        # The documented program_dir usage must work even when the
        # directory does not exist yet.
        pipe = PreparationPipeline(
            machine="raster", program_dir=tmp_path / "programs" / "nested"
        )
        result = pipe.run(grating_polygons(lines=2), name="n")
        assert result.machine_program.path.exists()

    def test_failed_export_preserves_existing_program(self, tmp_path):
        from repro.core.job import MachineJob

        result = fractured(grating_polygons(lines=2))
        job = MachineJob(result.shots, name="g")
        path = tmp_path / "g.ebp"
        export_program(result.shard_results, job, MachineSpec("vsb"), path)
        good = path.read_bytes()
        first, *rest = result.shard_results[0].shots
        overflowing = dataclasses.replace(
            result.shard_results[0],
            shots=[Shot(first.trapezoid, 100.0), *rest],  # dose‰ overflows u16
        )
        with pytest.raises(MachineProgramError):
            export_program([overflowing], job, MachineSpec("vsb"), path)
        # The previous good program survives and no staging file leaks.
        assert path.read_bytes() == good
        assert list(tmp_path.glob(".*.tmp-*")) == []

    def test_invalid_machine_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            PreparationPipeline(machine="ebes")

    def test_one_program_per_layer_run(self, tmp_path):
        cell = Cell("TWO_LAYERS")
        cell.add_rectangle(0, 0, 5, 5, Layer(1))
        cell.add_rectangle(10, 0, 15, 5, Layer(2))
        pipe = PreparationPipeline(machine="raster", program_dir=tmp_path)
        results = [
            pipe.run(cell, layer=layer, name=f"TWO_LAYERS:{layer}")
            for layer in (Layer(1), Layer(2))
        ]
        paths = {r.machine_program.path for r in results}
        assert len(paths) == 2
        for r in results:
            assert r.machine_program.path.parent == tmp_path
            assert r.machine_program.path.exists()

    def test_library_source_with_machine(self, tmp_path):
        lib = generators.grating(lines=4)
        pipe = PreparationPipeline(machine="raster", program_dir=tmp_path)
        result = pipe.run(lib)
        image = loads_program(result.machine_program.path.read_bytes())
        merged = raster_coverage_lines(image)
        width = max(
            start + length
            for runs in merged.values()
            for start, length in runs
        )
        grid = np.zeros((max(merged) + 1, width), dtype=bool)
        for j, runs in merged.items():
            for start, length in runs:
                grid[j, start : start + length] = True
        _, line_count, runs = encode_runs(
            [s.trapezoid for s in result.job.shots],
            0.5,
            origin=image.origin,
        )
        direct = decode_to_coverage(runs_by_line(runs), line_count, width)
        assert (grid == direct[: grid.shape[0]]).all()


class TestCli:
    def test_demo_machine_raster(self, tmp_path, capsys):
        out_path = tmp_path / "prog.ebp"
        assert (
            main(
                [
                    "demo",
                    "--workload",
                    "grating",
                    "--machine",
                    "raster",
                    "--machine-output",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "machine:   raster program" in out
        assert "bytes exact" in out
        assert "channel:" in out
        assert "write:" in out
        assert out_path.exists()
        assert loads_program(out_path.read_bytes()).mode == "raster"

    def test_demo_machine_default_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["demo", "--workload", "grating", "--machine", "vsb"]) == 0
        assert (tmp_path / "grating.vsb.ebp").exists()

    def test_machine_output_derived_from_output(self, tmp_path, capsys):
        out = tmp_path / "job.ebj"
        assert (
            main(
                [
                    "demo",
                    "--workload",
                    "grating",
                    "--machine",
                    "vector",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        assert (tmp_path / "job.vector.ebp").exists()

    def test_machine_output_requires_machine(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "demo",
                    "--workload",
                    "grating",
                    "--machine-output",
                    str(tmp_path / "x.ebp"),
                ]
            )
        assert "--machine-output requires --machine" in capsys.readouterr().err

    def test_address_unit_flag(self, tmp_path, capsys):
        coarse = tmp_path / "coarse.ebp"
        fine = tmp_path / "fine.ebp"
        for path, unit in ((coarse, "1.0"), (fine, "0.25")):
            assert (
                main(
                    [
                        "demo",
                        "--workload",
                        "grating",
                        "--machine",
                        "raster",
                        "--address-unit",
                        unit,
                        "--machine-output",
                        str(path),
                    ]
                )
                == 0
            )
        assert loads_program(fine.read_bytes()).address_unit == 0.25
        assert fine.stat().st_size > coarse.stat().st_size
