"""Out-of-core preparation: streaming readers, the incremental writers,
the spilling executor's witnesses and its failure paths.

That a streamed run writes the bytes a resident one does — for any
worker count, cold or warm cache, local or leased, from a library or a
file, from Python, the CLI or the service — is the conformance matrix's
``streaming`` axis (``tests/test_conformance.py``).  Here: reader
equivalence, swept with hypothesis over the generator parameter space;
the job-file writer against ``write_job``; the sources the matrix has
no axis value for (raw iterables, a cells/raw pair); what a streamed run
reports and how it degrades.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from repro import cli
from repro.core import ladder
from repro.core.cache import CacheDegradedWarning
from repro.core.executor import (
    ExecutionResult,
    RetryPolicy,
    SpillDegradedWarning,
    _Spool,
    _spooled_windows,
    shutdown_worker_pool,
)
from repro.core.faults import FaultPlan
from repro.core.jobfile import (
    JobFileError,
    JobFileWriter,
    dumps_job,
    dumps_shard_result,
    job_file_bytes,
    write_job,
)
from repro.core.pipeline import PreparationPipeline
from repro.core.plan import ShardOverlapWarning, plan_shards
from repro.core.recipe import FAULTS_ENV_VAR, RULES, PrepRecipe
from repro.fracture.base import shot_rows
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout import cursor
from repro.layout.cif import dumps_cif, loads_cif
from repro.layout.flatten import expand, flatten_cell
from repro.layout.gdsii import dumps_gdsii, loads_gdsii, write_gdsii
from repro.layout.library import Library
from repro.layout.stream import (
    CifStream,
    GdsiiStream,
    GdsiiStreamWriter,
    MemoryStream,
    open_layout_stream,
)
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import psf_for

from layout_strategies import generated_libraries

FIELD_SIZE = 15.0


def _flat_sequence(library):
    """The exact polygon sequence the materialized pipeline prepares:
    flatten_cell's per-layer lists concatenated in dict order."""
    flat = flatten_cell(library.top_cell())
    return [poly for polys in flat.values() for poly in polys]


def _vertices(polys):
    return [tuple(v.as_tuple() for v in p.vertices) for p in polys]


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc"
)


def _open_paths(pid="self"):
    """The paths process ``pid`` holds a descriptor on (Linux /proc)."""
    held = []
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        with contextlib.suppress(OSError):
            held.append(os.readlink(fd))
    return held


# ---------------------------------------------------------------------------
# Cursor readers: the lazy walk equals flattening the complete read
# ---------------------------------------------------------------------------


class TestStreamingReaders:
    @given(library=generated_libraries())
    # Once red from a local .hypothesis database only: the chip edge is
    # 4e-15 µm past a routing track, and the clipped wire was written as
    # a zero-area BOUNDARY that did not re-write byte for byte.
    @example(
        library=generators.random_logic(
            chip_size=20.000000000000004, target_density=0.25, seed=0
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_gdsii_stream_matches_materialized(self, library, tmp_path_factory):
        path = tmp_path_factory.mktemp("gds") / "lib.gds"
        write_gdsii(library, path)
        materialized = loads_gdsii(path.read_bytes())
        with GdsiiStream(path) as stream:
            streamed = list(stream.iter_flat())
            assert _vertices(streamed) == _vertices(_flat_sequence(materialized))
            # loads_gdsii is this cursor run to completion, so
            # materialize() is checked against the independent writer:
            # same cells, same order, same polygons as were written.
            assert dumps_gdsii(stream.materialize()) == path.read_bytes()

    @given(library=generated_libraries())
    @settings(max_examples=25, deadline=None)
    def test_cif_stream_matches_materialized(self, library, tmp_path_factory):
        path = tmp_path_factory.mktemp("cif") / "lib.cif"
        text = dumps_cif(library)
        path.write_text(text)
        materialized = loads_cif(text)
        with CifStream(path) as stream:
            streamed = list(stream.iter_flat())
            assert _vertices(streamed) == _vertices(_flat_sequence(materialized))
            # Likewise against the writer: re-writing the materialized
            # library changes only the header comment (the library name
            # is the one thing CIF does not carry).
            rewritten = dumps_cif(stream.materialize())
            assert rewritten.split("\n", 1)[1] == text.split("\n", 1)[1]

    def test_memory_stream_walks_like_flatten(self):
        library = generators.memory_array(words=2, bits=2, blocks=(2, 2))
        stream = MemoryStream(library)
        assert _vertices(list(stream.iter_flat())) == _vertices(_flat_sequence(library))

    def test_open_layout_stream_picks_reader_by_suffix(self, tmp_path):
        library = generators.grating(lines=3)
        gds = tmp_path / "a.gds"
        cif = tmp_path / "a.cif"
        write_gdsii(library, gds)
        cif.write_text(dumps_cif(library))
        with open_layout_stream(gds) as stream:
            assert isinstance(stream, GdsiiStream)
        with open_layout_stream(cif) as stream:
            assert isinstance(stream, CifStream)

    def test_layer_filter_matches_flatten(self, tmp_path):
        from repro.layout.layer import Layer

        top = Cell("TWO_LAYERS")
        top.add_rectangle(0, 0, 2, 2, Layer(1, 0))
        top.add_rectangle(5, 5, 8, 8, Layer(2, 0))
        library = Library("L").add(top)
        path = tmp_path / "two.gds"
        write_gdsii(library, path)
        with GdsiiStream(path) as stream:
            only = list(stream.iter_flat(layers={Layer(2, 0)}))
        flat = flatten_cell(loads_gdsii(path.read_bytes()).top_cell())
        assert _vertices(only) == _vertices(flat[Layer(2, 0)])

    @pytest.mark.parametrize("reader", [GdsiiStream, CifStream])
    def test_only_a_repeated_cell_is_memoized(self, reader):
        # A cell walked once is re-read from the file, never held: the
        # cursor over a flat layout must not keep the layout resident.
        dumps = {GdsiiStream: dumps_gdsii, CifStream: dumps_cif}[reader]
        flat = generators.fresnel_zone_plate()
        arrayed = generators.memory_array(words=2, bits=2, blocks=(2, 2))
        for library, memoized in ((flat, None), (arrayed, "BIT")):
            data = dumps(library)
            with reader(data if isinstance(data, bytes) else data.encode()) as stream:
                walked = sum(1 for _ in stream.iter_flat())
                assert walked == len(_flat_sequence(library))
                assert stream._geom.cell_name == memoized
                assert (stream._geom.geometry is None) == (memoized is None)

    @pytest.mark.parametrize(
        "shape, repeated",
        [
            ("flat", set()),
            ("chain", set()),
            ("two_placements", {"LEAF"}),
            ("one_array", {"LEAF"}),
            ("parent_twice", {"MID", "LEAF"}),
        ],
    )
    def test_placement_count_multiplies_arrays_and_parents(self, shape, repeated):
        leaf = Cell("LEAF").add_rectangle(0, 0, 1, 1)
        mid = Cell("MID").add_rectangle(0, 0, 3, 3)
        top = Cell("TOP").add_rectangle(0, 0, 9, 9)
        if shape == "chain":
            mid.instantiate(leaf)
            top.instantiate(mid)
        elif shape == "two_placements":
            top.instantiate(leaf).instantiate(leaf, origin=(5.0, 0.0))
        elif shape == "one_array":
            top.instantiate_array(leaf, 2, 1, 2.0, 2.0)
        elif shape == "parent_twice":
            mid.instantiate(leaf)
            top.instantiate(mid).instantiate(mid, origin=(5.0, 0.0))
        # The file cursor memoizes a cell with more than one row.
        assert {cell.name for cell, rows, _ in expand(top) if len(rows) > 1} == repeated

    @pytest.mark.parametrize("reader", [GdsiiStream, CifStream])
    def test_memo_is_bounded_in_coordinate_bytes(self, reader, monkeypatch):
        library = generators.memory_array(words=2, bits=2, blocks=(2, 2))
        bit = library.cells["BIT"]
        bit_bytes = sum(
            16 * len(p.vertices) for polys in bit.polygons.values() for p in polys
        )
        dumps, loads = {
            GdsiiStream: (dumps_gdsii, loads_gdsii),
            CifStream: (dumps_cif, loads_cif),
        }[reader]
        data = dumps(library)
        expected = _vertices(_flat_sequence(loads(data)))
        data = data if isinstance(data, bytes) else data.encode()
        for cap, kept in ((bit_bytes, True), (bit_bytes - 1, False)):
            monkeypatch.setattr(cursor, "GEOM_CACHE_MAX_BYTES", cap)
            with reader(data) as stream:
                assert _vertices(stream.iter_flat()) == expected
                assert ("BIT" in stream._geom.uncacheable) is not kept
                assert (stream._geom.cell_name == "BIT") is kept


# ---------------------------------------------------------------------------
# Incremental GDSII writer
# ---------------------------------------------------------------------------


class TestStreamWriter:
    def test_incremental_cell_matches_dumps(self, tmp_path):
        library = generators.contact_array(columns=2, rows=2)
        path = tmp_path / "inc.gds"
        with GdsiiStreamWriter(path, name=library.name) as writer:
            for cell in library:
                writer.begin_cell(cell.name)
                for layer in sorted(cell.polygons):
                    for poly in cell.polygons[layer]:
                        writer.write_polygon(poly, layer)
                writer.end_cell()
        assert path.read_bytes() == dumps_gdsii(library)

    def test_full_reticle_flat_writer_matches_dumps(self, tmp_path):
        tiles, pitch = 2, 100.0
        path = tmp_path / "reticle.gds"
        n = generators.write_full_reticle(path, tiles=tiles, pitch=pitch)
        assert n == path.stat().st_size
        die = generators.fresnel_zone_plate().top_cell()
        top = Cell("RETICLE")
        for layer in sorted(die.polygons):
            for row in range(tiles):
                for col in range(tiles):
                    for poly in die.polygons[layer]:
                        top.add_polygon(
                            poly.translated(col * pitch, row * pitch), layer
                        )
        reference = Library("RETICLE_LIB").add(top)
        assert path.read_bytes() == dumps_gdsii(reference)


# ---------------------------------------------------------------------------
# The sized synthetic reticle
# ---------------------------------------------------------------------------


class TestFullReticle:
    def test_default_is_100x_the_single_die(self):
        die = generators.fresnel_zone_plate().top_cell()
        die_polys = sum(len(v) for v in flatten_cell(die).values())
        reticle = generators.full_reticle()
        flat = sum(len(v) for v in flatten_cell(reticle.top_cell()).values())
        assert die_polys == 20
        assert flat == 100 * die_polys

    def test_size_is_a_parameter(self):
        flat = flatten_cell(generators.full_reticle(tiles=3).top_cell())
        assert sum(len(v) for v in flat.values()) == 9 * 20

    def test_hierarchical_file_round_trips(self, tmp_path):
        path = tmp_path / "h.gds"
        generators.write_full_reticle(path, tiles=2, flat=False)
        back = loads_gdsii(path.read_bytes())
        assert sum(len(v) for v in flatten_cell(back.top_cell()).values()) == 4 * 20

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generators.full_reticle(tiles=0)
        with pytest.raises(ValueError):
            generators.write_full_reticle(tmp_path / "x.gds", pitch=0.0)


# ---------------------------------------------------------------------------
# Incremental job-file writer
# ---------------------------------------------------------------------------


class TestJobFileWriter:
    def _shots(self):
        polys = _flat_sequence(generators.grating(lines=4))
        return PreparationPipeline().run(polys).job.shots

    def test_byte_identical_to_write_job(self, tmp_path):
        from repro.core.job import MachineJob

        shots = self._shots()
        write_job(MachineJob(shots, base_dose=1.5), tmp_path / "whole.ebj")
        with JobFileWriter(tmp_path / "inc.ebj", len(shots), base_dose=1.5) as writer:
            # One block per shot, then the rest at once: the cut into
            # blocks never shows in the bytes.
            writer.write_rows(shot_rows(shots[:1]))
            writer.write_rows(shot_rows(shots[1:]))
        whole, incremental = tmp_path / "whole.ebj", tmp_path / "inc.ebj"
        assert incremental.read_bytes() == whole.read_bytes()

    def test_undercount_raises_and_discards(self, tmp_path):
        shots = self._shots()
        writer = JobFileWriter(tmp_path / "short.ebj", len(shots))
        writer.write_rows(shot_rows(shots[:1]))
        with pytest.raises(JobFileError, match="wrote 1"):
            writer.close()
        assert not (tmp_path / "short.ebj").exists()
        assert not list(tmp_path.iterdir())

    def test_overcount_raises_immediately(self, tmp_path):
        shots = self._shots()
        writer = JobFileWriter(tmp_path / "over.ebj", 1)
        writer.write_rows(shot_rows(shots[:1]))
        with pytest.raises(JobFileError, match="declared 1"):
            writer.write_rows(shot_rows(shots[1:2]))
        writer.abort()
        assert not list(tmp_path.iterdir())

    def test_two_writers_of_one_path_each_publish_a_whole_file(self, tmp_path):
        """Two writers of one path stage in files of their own: each
        close publishes a whole, readable job, the last close wins, and
        no staging file is left behind."""
        from repro.core.jobfile import read_job

        shots = self._shots()
        path = tmp_path / "shared.ebj"
        first = JobFileWriter(path, 3, base_dose=1.0)
        second = JobFileWriter(path, 2, base_dose=2.0)
        first.write_rows(shot_rows(shots[:3]))
        second.write_rows(shot_rows(shots[:2]))
        assert second.close() == job_file_bytes(2)
        job = read_job(path)
        assert (job.figure_count(), job.base_dose) == (2, 2.0)
        assert first.close() == job_file_bytes(3)
        job = read_job(path)
        assert (job.figure_count(), job.base_dose) == (3, 1.0)
        assert [p.name for p in tmp_path.iterdir()] == ["shared.ebj"]

    def test_exception_aborts_staging(self, tmp_path):
        shots = self._shots()
        with pytest.raises(RuntimeError):
            with JobFileWriter(tmp_path / "boom.ebj", len(shots)) as writer:
                writer.write_rows(shot_rows(shots[:1]))
                raise RuntimeError("mid-stream failure")
        assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Streaming pipeline: byte identity with the in-memory path
# ---------------------------------------------------------------------------


class _FailingFracturer(TrapezoidFracturer):
    """Raises on its ``fail_at``-th shard (in-process runs only)."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.calls = 0

    def fracture_to_shots(self, polygons):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError("injected shard failure")
        return super().fracture_to_shots(polygons)


class TestStreamingPipeline:
    @pytest.fixture(autouse=True)
    def _clean_pool(self):
        yield
        shutdown_worker_pool()

    def test_corrected_aggregates_match(self, tmp_path):
        library = generators.fresnel_zone_plate(zones=8)
        pipe = PreparationPipeline(
            corrector=IterativeDoseCorrector(max_iterations=3),
            psf=psf_for(20.0),
            field_size=FIELD_SIZE,
        )
        mat = pipe.run(library)
        res = pipe.run_streaming(library)
        assert res.corrected and mat.corrected
        assert res.job.digest() == mat.job.digest()
        assert res.job.dose_range() == mat.job.dose_range()
        assert res.job.figure_count() == mat.job.figure_count()
        assert res.job.pattern_area() == mat.job.pattern_area()
        assert res.job.dose_weighted_area() == mat.job.dose_weighted_area()
        assert res.job.dose_weighted_count() == mat.job.dose_weighted_count()
        assert res.job.bounding_box == mat.job.bounding_box
        for name, breakdown in mat.write_times.items():
            assert res.write_times[name].total == breakdown.total

    def test_memory_witness_on_stats(self, tmp_path):
        res = PreparationPipeline(field_size=FIELD_SIZE).run_streaming(
            generators.fresnel_zone_plate(), job_path=tmp_path / "w.ebj"
        )
        stats = res.execution
        assert stats.streamed
        assert stats.stream_windows > 1
        assert stats.peak_window_bytes > 0
        assert stats.shards_spilled >= stats.occupied_shards > 0
        assert stats.spill_bytes > 0
        assert stats.spill_fallbacks == 0

    def test_raw_polygon_iterable_source(self, tmp_path):
        polys = _flat_sequence(generators.grating(lines=6))
        pipe = PreparationPipeline(field_size=4.0)
        mat = pipe.run(polys)
        res = pipe.run_streaming(iter(polys), job_path=tmp_path / "raw.ebj")
        assert (tmp_path / "raw.ebj").read_bytes() == dumps_job(mat.job)
        assert res.source_polygons == len(polys)

    def test_both_doors_take_a_layout_file_and_a_job_path(self, tmp_path):
        path = tmp_path / "fzp.gds"
        write_gdsii(generators.fresnel_zone_plate(), path)
        pipe = PreparationPipeline(field_size=FIELD_SIZE)
        resident = pipe.run(path, job_path=tmp_path / "run.ebj")
        streamed = pipe.run_streaming(path, job_path=tmp_path / "stream.ebj")
        ebj = (tmp_path / "run.ebj").read_bytes()
        assert ebj == (tmp_path / "stream.ebj").read_bytes()
        assert resident.job_bytes == streamed.job_bytes == len(ebj)
        assert resident.job.name == streamed.job.name
        assert dumps_job(resident.job) == ebj

    def test_a_ring_closing_twice_runs_through_every_door(self):
        # Regression: ``Polygon`` drops one closing duplicate, so this
        # ring is held as (10, 0), (11, 0), (10, 0).  The resident door
        # ran it; the spool rebuilt it through the constructor, which
        # dropped a second one and raised.  Two shards, so ``workers=2``
        # sends both through the pool's decode too.
        sliver = Polygon([(10, 0), (11, 0), (10, 0), (10, 0)])
        assert len(sliver.vertices) == 3
        top = Cell("TOP").add_rectangle(0, 0, 4, 4).add_polygon(sliver)
        library = Library("SLIVER").add(top)
        digests = set()
        for workers in (1, 2):
            pipe = PreparationPipeline(field_size=5.0, workers=workers)
            resident = pipe.run(library)
            streamed = pipe.run_streaming(library)
            assert resident.execution.shard_count == 2
            assert resident.execution.parallel == (workers == 2)
            digests |= {resident.job.digest(), streamed.job.digest()}
        assert len(digests) == 1

    def test_union_overlap_policy_rejected(self):
        pipe = PreparationPipeline(field_size=FIELD_SIZE, overlap_policy="union")
        with pytest.raises(ValueError, match="union"):
            pipe.run_streaming(generators.fresnel_zone_plate())

    def test_fault_positions_are_run_global_across_windows(self):
        # Fault positions index the run's dispatched work list, so the
        # (0, 0) fault fires once however many windows the run takes.
        one_row = generators.grating(pitch=2.0, duty=0.5, lines=12, length=3.0)
        multi_row = generators.fresnel_zone_plate()
        for library, field_size, windows in (
            (one_row, 4.0, 1),
            (multi_row, FIELD_SIZE, 4),
        ):
            pipe = PreparationPipeline(
                field_size=field_size,
                faults=FaultPlan(transient=frozenset({(0, 0)})),
                retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            )
            mat = pipe.run(library).execution
            res = pipe.run_streaming(library).execution
            assert mat.shard_count > 1 and res.stream_windows == windows
            assert mat.shard_retries == res.shard_retries == 1
            assert mat.fault_events == res.fault_events == 1

    def test_mixed_cells_and_raw_runs_match_single_runs(self, tmp_path):
        library = generators.memory_array(blocks=(2, 2))
        polygons = _flat_sequence(generators.grating(lines=6))

        def pipeline():
            return PreparationPipeline(
                field_size=FIELD_SIZE,
                hierarchy="cells",
                machine="vsb",
                program_dir=tmp_path / "pair",
            )

        (tmp_path / "pair").mkdir()
        shared = pipeline()
        pair = [
            shared.run(source, name=name)
            for source, name in ((library, "cells"), (polygons, "raw"))
        ]
        assert [r.execution.hierarchy for r in pair] == ["cells", "flat"]
        assert pair[0].execution.cells_fractured > 0
        for result, source in zip(pair, (library, polygons)):
            name = result.job.name
            single = pipeline().run(
                source, name=name, program_path=tmp_path / f"{name}.ebp"
            )
            assert dumps_job(result.job) == dumps_job(single.job)
            assert (
                result.machine_program.path.read_bytes()
                == (tmp_path / f"{name}.ebp").read_bytes()
            )
            assert result.source_polygons == single.source_polygons
            assert result.execution.shard_count == single.execution.shard_count

    @pytest.mark.parametrize("failure", ["shard", "progress"])
    def test_failed_run_leaves_no_temp_files(self, tmp_path, monkeypatch, failure):
        # Regression: the private spill directory (and every blob already
        # spilled into it) used to survive any failing streamed run.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        polys = _flat_sequence(generators.fresnel_zone_plate())

        def cancel_late(done, total):
            if done == 3:
                raise KeyboardInterrupt("cancelled at a shard boundary")

        if failure == "shard":
            pipe = PreparationPipeline(
                _FailingFracturer(fail_at=4), field_size=FIELD_SIZE
            )
            expected = ValueError
        else:
            pipe = PreparationPipeline(field_size=FIELD_SIZE, progress=cancel_late)
            expected = KeyboardInterrupt
        with pytest.raises(expected):
            pipe.run_streaming(polys)
        assert list(tmp_path.iterdir()) == []
        # A run that succeeds removes both spools once it is assembled.
        PreparationPipeline(field_size=FIELD_SIZE).run_streaming(polys)
        assert list(tmp_path.iterdir()) == []

    def test_cached_run_leaves_one_entry_per_shard(self, tmp_path):
        # Regression: spills used to land in the cache as a second key
        # family and stay there, doubling what a resident run leaves.
        pipe = PreparationPipeline(field_size=20.0, cache_dir=tmp_path / "cache")
        stats = pipe.run_streaming(generators.fresnel_zone_plate()).execution
        assert stats.shards_spilled == stats.shard_count > 1
        assert pipe.cache.entry_count() == stats.shard_count

    def test_the_doors_share_one_cache(self, tmp_path):
        # The spill keeps out of the cache, so what one door stores is
        # exactly what the other looks up.
        library = generators.fresnel_zone_plate()
        pipe = PreparationPipeline(field_size=20.0, cache_dir=tmp_path / "cache")
        cold = pipe.run_streaming(library).execution
        warm = pipe.run(library).execution
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.cache_hits == cold.cache_misses and warm.cache_misses == 0
        assert pipe.cache.entry_count() == warm.shard_count

    @needs_proc
    @pytest.mark.parametrize("from_file", [False, True], ids=["library", "file"])
    def test_pool_workers_hold_no_spool(self, from_file, tmp_path):
        # Regression: a pool forked during a streamed run inherited the
        # open input spool, and from a path the layout file too, and
        # kept them for its lifetime.
        source = generators.full_reticle(tiles=4)
        layout = tmp_path / "reticle.gds"
        if from_file:
            write_gdsii(source, layout)
            source = layout
        shutdown_worker_pool()  # cold: the pool forks inside the run
        pipe = PreparationPipeline(field_size=100.0, workers=2)
        stats = pipe.run_streaming(source).execution
        assert stats.parallel
        held = [
            path
            for pid in ladder._shared_pool._pool._processes
            for path in _open_paths(pid)
        ]
        assert held
        leaked = ("repro-spool-", "repro-spill-", os.path.realpath(layout))
        assert not [p for p in held if any(name in p for name in leaked)]

    def test_closed_execution_refuses_reads(self):
        pipe = PreparationPipeline(field_size=FIELD_SIZE)
        polys = _flat_sequence(generators.fresnel_zone_plate())
        execution = ExecutionResult(spill=True)
        with _spooled_windows(polys, FIELD_SIZE) as (_, total, windows):
            pipe._run_shards(windows, total, execution, False)
        execution.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(execution.results())


# ---------------------------------------------------------------------------
# The spool: the one on-disk record file of a streamed run
# ---------------------------------------------------------------------------


def _held_results():
    """The FZP's shard results, held, in row-major order."""
    shards = plan_shards(_flat_sequence(generators.fresnel_zone_plate()), FIELD_SIZE)
    held = ExecutionResult()
    pipe = PreparationPipeline(field_size=FIELD_SIZE)
    pipe._run_shards([(shards, 0)], len(shards), held, False)
    return held.shard_results


class TestSpool:
    @pytest.fixture
    def spool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spool = _Spool("repro-test-")
        yield spool
        spool.close()

    def test_records_read_back_by_index(self, spool):
        records = [b"alpha", b"", b"gamma", b"delta"]
        assert spool.append(records[:3])
        assert spool.append(iter(records[3:]))
        assert len(spool) == 4
        order = [3, 0, 1, 2, 0]
        assert spool.read(order) == [records[i] for i in order]
        assert spool.read([]) == []

    def test_an_empty_append_adds_no_record(self, spool):
        assert spool.append([]) and len(spool) == 0
        assert spool.read([]) == []
        spool.append([b"first"])
        assert spool.read([0]) == [b"first"]

    def test_a_failed_append_keeps_the_record_count(self, spool):
        spool.append([b"kept"])

        def torn():
            yield b"written, then lost"
            raise OSError(errno.ENOSPC, "injected ENOSPC")

        with pytest.raises(OSError):
            spool.append(torn())
        assert len(spool) == 1
        # The next append writes over what the torn one left behind.
        spool.append([b"next"])
        assert spool.read([0, 1]) == [b"kept", b"next"]

    @needs_proc
    def test_no_descriptor_outlives_a_call(self, spool):
        path = os.path.realpath(spool.path)
        assert path not in _open_paths()
        spool.append([b"record"])
        assert path not in _open_paths()
        assert spool.read([0]) == [b"record"]
        assert path not in _open_paths()

    def test_close_removes_the_file(self, spool, tmp_path):
        spool.append([b"record"])
        (entry,) = tmp_path.iterdir()
        assert entry.name.startswith("repro-test-")
        spool.close()
        spool.close()  # idempotent
        assert list(tmp_path.iterdir()) == []

    def test_spilled_results_read_back_as_held(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        held = _held_results()
        payloads = [dumps_shard_result(result) for result in held]
        with ExecutionResult(spill=True) as spilled:
            sizes = [spilled.add(result) for result in held]
            assert spilled.streamed
            assert sizes == [len(payload) for payload in payloads]
            assert spilled.stats.shards_spilled == len(held) > 1
            assert spilled.stats.spill_bytes == sum(sizes)
            for _ in range(2):  # the cursor is re-iterable
                assert list(map(dumps_shard_result, spilled.results())) == payloads
            assert spilled.total_shots == sum(len(r.shots) for r in held)
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Spill degradation: ENOSPC during spill never kills the run
# ---------------------------------------------------------------------------


class TestSpillDegradation:
    @pytest.mark.parametrize("fail_at", [0, 2])
    def test_a_failed_spill_holds_the_rest_of_the_run(self, monkeypatch, fail_at):
        held = _held_results()
        append, calls = _Spool.append, []

        def filling(spool, records):
            calls.append(spool.path)
            if len(calls) > fail_at:
                raise OSError(errno.ENOSPC, "injected ENOSPC on the spill")
            return append(spool, records)

        monkeypatch.setattr(_Spool, "append", filling)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ExecutionResult(spill=True) as spilled:
                for result in held:
                    spilled.add(result)
                stats = spilled.stats
                assert stats.shards_spilled == fail_at
                assert stats.spill_fallbacks == len(held) - fail_at
                # Spilled and held results interleave in shard order.
                assert list(map(dumps_shard_result, spilled.results())) == [
                    dumps_shard_result(result) for result in held
                ]
        # No append is tried after the first that fails.
        assert len(calls) == fail_at + 1
        assert [w.category for w in caught] == [SpillDegradedWarning]

    def test_enospc_spill_degrades_to_resident(self, tmp_path, monkeypatch):
        library = generators.fresnel_zone_plate()
        pipe = PreparationPipeline(field_size=FIELD_SIZE)
        mat = pipe.run(library)
        append = _Spool.append

        def full_spill(spool, records):
            if "repro-spill-" in spool.path:
                raise OSError(errno.ENOSPC, "injected ENOSPC on the spill")
            return append(spool, records)

        monkeypatch.setattr(_Spool, "append", full_spill)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = pipe.run_streaming(library, job_path=tmp_path / "deg.ebj")
        spill_warnings = [
            w for w in caught if issubclass(w.category, SpillDegradedWarning)
        ]
        assert len(spill_warnings) == 1
        stats = res.execution
        assert stats.shards_spilled == 0
        assert stats.spill_fallbacks >= stats.occupied_shards > 0
        assert (tmp_path / "deg.ebj").read_bytes() == dumps_job(mat.job)


def _overlapping(cells: bool):
    """Two rectangles sharing area across the 10 µm field at x = 10:
    raw polygons, or two placements of one cell (figure shards)."""
    if not cells:
        return [Polygon.rectangle(0, 0, 8, 4), Polygon.rectangle(7, 0, 15, 4)]
    bar = Cell("BAR").add_rectangle(0, 0, 8, 4)
    top = Cell("TOP").instantiate(bar).instantiate(bar, origin=(7.0, 0.0))
    return Library("OVERLAP").add(top)


@pytest.mark.parametrize(
    "door, failure, category",
    [
        ("run", "shard store", CacheDegradedWarning),
        ("run_streaming", "shard store", CacheDegradedWarning),
        ("run_streaming", "spill", SpillDegradedWarning),
        ("run", "segment store", CacheDegradedWarning),
        ("run", "overlap", ShardOverlapWarning),
        ("run", "cells overlap", ShardOverlapWarning),
        ("plan_shards", "overlap", ShardOverlapWarning),
        ("cli", "shard store", CacheDegradedWarning),
    ],
)
def test_a_degradation_warning_names_the_caller(
    door, failure, category, tmp_path, monkeypatch
):
    # Like export_program's own store, each degraded store and the
    # overlap advisory point at the line that called the pipeline's door
    # (the planner, called directly), never inside repro; the CLI's
    # names the CLI.  One shard: put 0 is its result, put 1 the
    # program's first segment.
    puts = {"shard store": {0}, "segment store": {1}}.get(failure)
    overlap = failure.endswith("overlap")
    pipe = PreparationPipeline(
        cache_dir=tmp_path / "cache",
        faults=FaultPlan(enospc_puts=frozenset(puts)) if puts else None,
        machine="raster" if failure == "segment store" else None,
        program_dir=tmp_path,
        field_size=10.0 if overlap else None,
        hierarchy="cells" if failure == "cells overlap" else "flat",
    )
    source = _overlapping(failure == "cells overlap") if overlap else (
        generators.grating(lines=3)
    )
    if failure == "spill":
        append = _Spool.append

        def full_spill(spool, records):
            if "repro-spill-" in spool.path:
                raise OSError(errno.ENOSPC, "injected ENOSPC on the spill")
            return append(spool, records)

        monkeypatch.setattr(_Spool, "append", full_spill)
    if door == "cli":
        monkeypatch.setenv(FAULTS_ENV_VAR, '{"enospc_puts": [0]}')
        monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if door == "cli":
            cli.main(["demo", "--workload", "grating", "--cache-dir", "cache"])
        elif door == "plan_shards":
            plan_shards(source, 10.0)
        else:
            getattr(pipe, door)(source)
    named = cli.__file__ if door == "cli" else __file__
    assert [(w.category, w.filename) for w in caught] == [(category, named)]


# ---------------------------------------------------------------------------
# Recipe and service wiring
# ---------------------------------------------------------------------------


class _CloseWatched(GdsiiStream):
    """A file stream that records whether anything closed it."""

    closed = False

    def close(self) -> None:
        self.closed = True
        super().close()


class TestStreamingWiring:
    def test_recipe_streaming_round_trips(self):
        recipe = PrepRecipe(streaming=True)
        assert PrepRecipe.from_dict(recipe.to_dict()) == recipe

    def test_recipe_rejects_streaming_cells(self):
        with pytest.raises(ValueError, match="hierarchy='flat'"):
            PrepRecipe(streaming=True, hierarchy="cells")

    @pytest.mark.parametrize("kind", ["file", "stream", "library", "cell"])
    def test_a_cells_pipeline_refuses_a_streamed_layout(self, kind, tmp_path):
        # The streamed door runs flat, so a cells pipeline would write
        # other bytes than its own run; it refuses, before reading, with
        # the recipe's reason.  The file is not written yet: a read would
        # fail with FileNotFoundError instead.  Once it is, each kind of
        # source gives both doors of a flat pipeline the bytes of
        # ``run(path)``, and neither door closes a stream passed in.
        library = generators.grating(lines=3)
        path = tmp_path / "grating.gds"

        def source():
            if kind == "stream":
                return _CloseWatched(path) if path.exists() else MemoryStream(library)
            return {"file": path, "library": library, "cell": library.top_cell()}[kind]

        with pytest.raises(ValueError) as refused:
            PrepRecipe(streaming=True, hierarchy="cells")
        reason = str(refused.value).split(": ", 1)[1]
        pipe = PreparationPipeline(hierarchy="cells", field_size=FIELD_SIZE)
        with pytest.raises(ValueError, match=re.escape(reason)):
            pipe.run_streaming(source())
        write_gdsii(library, path)
        flat = PreparationPipeline(field_size=FIELD_SIZE, machine="raster")

        def written(door, given, stem):
            door(given, job_path=tmp_path / f"{stem}.ebj",
                 program_path=tmp_path / f"{stem}.ebp")
            return [(tmp_path / f"{stem}.{ext}").read_bytes() for ext in ("ebj", "ebp")]

        expected = written(flat.run, path, "path")
        given = source()
        # Streamed first: it reads the file through the stream, so a
        # stream it closed would fail the resident door's read.
        assert written(flat.run_streaming, given, "streamed") == expected
        assert written(flat.run, given, "resident") == expected
        assert not getattr(given, "closed", False)
        if kind == "stream":
            given.close()

    @pytest.mark.parametrize(
        "hierarchy, door, row",
        [
            ("cells", "run", {"hierarchy": "cells", "overlap_policy": "union"}),
            ("flat", "run_streaming", {"streaming": True, "overlap_policy": "union"}),
        ],
    )
    def test_a_union_pipeline_refuses_a_layout_unread(
        self, hierarchy, door, row, tmp_path
    ):
        # The row is checked before the door opens its source: the file
        # is never written, so a read would raise FileNotFoundError.
        reason = next(why for refused, why in RULES if refused == row)
        pipe = PreparationPipeline(
            hierarchy=hierarchy, overlap_policy="union", field_size=FIELD_SIZE
        )
        with pytest.raises(ValueError, match=re.escape(reason)):
            getattr(pipe, door)(tmp_path / "absent.gds")

    def test_a_cells_pipeline_streams_raw_polygons_flat(self, tmp_path):
        polygons = _flat_sequence(generators.grating(lines=3))
        pipe = PreparationPipeline(hierarchy="cells", field_size=FIELD_SIZE)
        held = pipe.run(polygons, job_path=tmp_path / "held.ebj")
        streamed = pipe.run_streaming(polygons, job_path=tmp_path / "streamed.ebj")
        assert held.execution.hierarchy == streamed.execution.hierarchy == "flat"
        assert (tmp_path / "held.ebj").read_bytes() == (
            tmp_path / "streamed.ebj"
        ).read_bytes()

    def test_recipe_rejects_non_bool_streaming(self):
        with pytest.raises(ValueError, match="streaming"):
            PrepRecipe(streaming="yes")

    def test_service_runner_reports_the_memory_group(self, tmp_path):
        from repro.service.jobs import JobStore
        from repro.service.runner import JobRunner
        from repro.service.schemas import JobSpec

        store = JobStore()
        assert "spill_fallbacks" in store.FAULT_KEYS
        recipe = PrepRecipe(field_size=20.0, machine="vsb", streaming=True)
        job = store.create(JobSpec(workload="fzp", recipe=recipe))
        JobRunner(store, tmp_path, cache=None)(job)
        record = store.get(job.id)
        assert record.state == "done", record.error
        memory = record.result["execution"]["memory"]
        assert memory["streamed"]
        assert memory["stream_windows"] > 0
        assert memory["peak_window_bytes"] > 0
        assert record.result["job_bytes"] == Path(record.job_path).stat().st_size
