"""Tests for the binary machine job-file format and the exact input-
shard payload (``EBS1``)."""

import hashlib
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import CACHE_SCHEMA_VERSION, _update, shard_cache_key
from repro.core.job import MachineJob, ShotFold
from repro.core.jobfile import (
    JobFileError,
    JobFileWriter,
    dumps_job,
    dumps_ring,
    dumps_shard,
    job_file_bytes,
    loads_job,
    loads_ring,
    loads_shard,
    read_job,
    write_job,
)
from repro.core.plan import Shard, plan_shards
from repro.fracture.base import Shot, shot_rows
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import FigureView
from repro.layout.flatten import flatten_cell

from layout_strategies import flat_libraries


def sample_job():
    shots = [
        Shot(Trapezoid.from_rectangle(0, 0, 2.5, 1.25), dose=1.0),
        Shot(Trapezoid(1.0, 3.0, 5.0, 9.0, 6.0, 8.0), dose=1.732),
        Shot(Trapezoid.from_rectangle(-4, -2, -1, 0), dose=0.25),
    ]
    return MachineJob(shots, base_dose=5.0, name="sample")


class TestRoundTrip:
    def test_shot_geometry_and_doses(self):
        job = sample_job()
        restored = loads_job(dumps_job(job))
        assert restored.base_dose == pytest.approx(5.0)
        assert restored.figure_count() == 3
        for original, loaded in zip(job.shots, restored.shots):
            ot, lt = original.trapezoid, loaded.trapezoid
            assert lt.y_bottom == pytest.approx(ot.y_bottom, abs=1e-3)
            assert lt.y_top == pytest.approx(ot.y_top, abs=1e-3)
            assert lt.x_bottom_left == pytest.approx(ot.x_bottom_left, abs=1e-3)
            assert lt.x_top_right == pytest.approx(ot.x_top_right, abs=1e-3)
            assert loaded.dose == pytest.approx(original.dose, abs=1e-3)

    def test_area_preserved(self):
        job = sample_job()
        restored = loads_job(dumps_job(job))
        assert restored.pattern_area() == pytest.approx(
            job.pattern_area(), rel=1e-3
        )

    def test_file_roundtrip(self, tmp_path):
        job = sample_job()
        path = tmp_path / "job.ebj"
        n = write_job(job, path)
        assert path.stat().st_size == n
        restored = read_job(path)
        assert restored.name == "job"
        assert restored.figure_count() == 3

    def test_fractured_pattern_roundtrip(self):
        polys = [Polygon([(0, 0), (10, 0), (5, 8)])]
        shots = TrapezoidFracturer().fracture_to_shots(polys, dose=2.0)
        job = MachineJob(shots, base_dose=1.0)
        restored = loads_job(dumps_job(job))
        assert restored.pattern_area() == pytest.approx(40.0, rel=1e-3)

    def test_size_accounting(self):
        job = sample_job()
        assert len(dumps_job(job)) == job_file_bytes(3)


class TestFailureModes:
    def test_bad_magic(self):
        data = bytearray(dumps_job(sample_job()))
        data[:4] = b"XXXX"
        with pytest.raises(JobFileError, match="magic"):
            loads_job(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(JobFileError, match="header"):
            loads_job(b"EB")

    def test_truncated_records(self):
        data = dumps_job(sample_job())
        with pytest.raises(JobFileError, match="truncated records"):
            loads_job(data[:-4])

    @pytest.mark.parametrize("tail", ["junk", "record"])
    def test_trailing_bytes(self, tail):
        """Bytes after the last declared record — junk, or a whole
        duplicated record — are refused, as EBP1/EBC1/EBS1 refuse them."""
        data = dumps_job(sample_job())
        record = job_file_bytes(1) - job_file_bytes(0)
        extra = b"\x00" * 7 if tail == "junk" else data[-record:]
        with pytest.raises(JobFileError, match=f"trailing bytes.*{len(extra)}"):
            loads_job(data + extra)

    def test_unit_validation(self):
        with pytest.raises(JobFileError):
            dumps_job(sample_job(), unit=0.0)

    def test_dose_range_enforced(self):
        job = MachineJob(
            [Shot(Trapezoid.from_rectangle(0, 0, 1, 1), dose=100.0)]
        )
        with pytest.raises(JobFileError, match="dose"):
            dumps_job(job)

    def test_extreme_slant_rejected(self):
        trapezoid = Trapezoid(0, 0.001, 0, 0.5, 100.0, 100.5)
        job = MachineJob([Shot(trapezoid)])
        with pytest.raises(JobFileError, match="slant"):
            dumps_job(job)

    def test_writer_reports_a_size_only_for_a_file_it_published(self, tmp_path):
        """A second ``close()`` returns the size again only when the
        first published the file: after ``abort()``, or after a close
        that refused a short shot count, nothing is at the path and
        ``close()`` raises instead of reporting bytes."""
        rows = shot_rows(sample_job().shots)[:2]
        aborted = JobFileWriter(tmp_path / "aborted.ebj", 2)
        aborted.write_rows(rows)
        aborted.abort()
        with pytest.raises(JobFileError, match="without publishing"):
            aborted.close()
        short = JobFileWriter(tmp_path / "short.ebj", 2)
        short.write_rows(rows[:1])
        with pytest.raises(JobFileError, match="declared 2 shots but wrote 1"):
            short.close()
        with pytest.raises(JobFileError, match="without publishing"):
            short.close()
        assert not (tmp_path / "aborted.ebj").exists()
        assert not (tmp_path / "short.ebj").exists()
        published = JobFileWriter(tmp_path / "job.ebj", 2)
        published.write_rows(rows)
        assert published.close() == published.close() == job_file_bytes(2)
        assert (tmp_path / "job.ebj").stat().st_size == job_file_bytes(2)


class TestAggregateJobs:
    """A job described only by its aggregates counts shots it does not
    carry: it must say so and refuse to be written, not publish a
    valid empty file."""

    def aggregates(self):
        fold = ShotFold(base_dose=5.0)
        fold.add_rows(shot_rows(sample_job().shots))
        return [
            MachineJob.synthetic(1000, 10.0, (0, 0, 10, 10), name="synthetic"),
            fold.job("streamed"),
        ]

    def test_len_and_repr_read_the_figure_count(self):
        synthetic, streamed = self.aggregates()
        assert len(synthetic) == synthetic.figure_count() == 1000
        assert "figures=1000" in repr(synthetic)
        assert len(streamed) == streamed.figure_count() == 3
        assert "figures=3" in repr(streamed)
        assert len(sample_job()) == 3 and "figures=3" in repr(sample_job())

    def test_writing_one_is_an_error_naming_the_streamed_writer(self, tmp_path):
        for job in self.aggregates():
            with pytest.raises(JobFileError, match="JobFileWriter.*prep --stream"):
                dumps_job(job)
            with pytest.raises(JobFileError, match=job.name):
                write_job(job, tmp_path / "aggregate.ebj")
        assert list(tmp_path.iterdir()) == []  # nothing published or left staged

    def test_resident_jobs_write_the_bytes_they_did(self, tmp_path):
        # Literals computed at the commit before aggregate jobs were refused.
        assert hashlib.sha256(dumps_job(sample_job())).hexdigest() == (
            "c45f904536a5bd5bb2b04ebd58b0cdea597d98ea10b4f4cd51dd2b9bf8e6ba52"
        )
        empty = dumps_job(MachineJob([]))
        assert len(empty) == job_file_bytes(0)
        assert hashlib.sha256(empty).hexdigest() == (
            "37449349112720829cc37ae505f82547833b58222a6a8f7bf21ab4c391417c2e"
        )
        for job in (sample_job(), MachineJob([])):
            write_job(job, tmp_path / "resident.ebj")
            assert (tmp_path / "resident.ebj").read_bytes() == dumps_job(job)


# ---------------------------------------------------------------------------
# Input-shard payloads (EBS1)
# ---------------------------------------------------------------------------

#: Held as (10, 0), (11, 0), (10, 0): the constructor drops one closing
#: duplicate, and a second pass through it would drop another.
CLOSING_TWICE = Polygon([(10, 0), (11, 0), (10, 0), (10, 0)])

#: Any double but NaN, ``-0.0`` included.
coordinates = st.floats(allow_nan=False, width=64)
indices = st.tuples(
    st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1)
)


@st.composite
def ring_shards(draw):
    rings = st.lists(st.tuples(coordinates, coordinates), min_size=4, max_size=9)
    polygons = [Polygon(ring) for ring in draw(st.lists(rings, max_size=5))]
    return Shard(draw(indices), tuple(polygons))


@st.composite
def figure_shards(draw):
    rows = draw(st.lists(st.lists(coordinates, min_size=6, max_size=6), max_size=6))
    block = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return Shard(draw(indices), (), figures=FigureView(block))


def bits(shard):
    """Everything a shard carries, as bytes compared bit for bit (so a
    ``-0.0`` that came back as ``0.0`` differs)."""
    rings = [
        b"".join(struct.pack(">dd", v.x, v.y) for v in polygon.vertices)
        for polygon in shard.polygons
    ]
    figures = None if shard.figures is None else shard.figures.rows.tobytes()
    return shard.index, rings, figures


def small_payloads():
    """A polygon shard with the degenerate ring and a figure shard."""
    polygons = (Polygon.rectangle(-1, 0, 2, 1), CLOSING_TWICE)
    block = np.array([[0.0, 1.0, -0.0, 2.0, 0.5, 1.5]])
    return [
        dumps_shard(Shard((3, -4), polygons)),
        dumps_shard(Shard((0, 0), (), figures=FigureView(block))),
    ]


class TestInputShardPayload:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(ring_shards(), figure_shards()))
    @example(Shard((0, 0), (CLOSING_TWICE, Polygon([(-0.0, 0), (1, 0), (0, 1)]))))
    @example(Shard((1, 2), ()))
    def test_round_trips_bit_for_bit(self, shard):
        data = dumps_shard(shard)
        assert bits(loads_shard(data)) == bits(shard)
        # The pool carries the payload and names no geometry class.
        pickled = pickle.dumps(shard)
        assert data in pickled and b"repro.geometry" not in pickled
        assert bits(pickle.loads(pickled)) == bits(shard)

    @settings(max_examples=10, deadline=None)
    @given(flat_libraries())
    def test_planned_shards_round_trip(self, library):
        flat = flatten_cell(library.top_cell())
        polygons = [p for polys in flat.values() for p in polys]
        for shard in plan_shards(polygons, 10.0, overlap_policy="ignore"):
            assert bits(loads_shard(dumps_shard(shard))) == bits(shard)

    @settings(max_examples=60, deadline=None)
    @given(ring_shards())
    @example(Shard((0, 0), (CLOSING_TWICE, Polygon([(-0.0, 0), (1, 0), (0, 1)]))))
    def test_cache_key_hashes_what_the_vertex_stream_did(self, shard):
        # The key's polygon part is the stream the per-vertex hash of a
        # polygon list wrote: "l{P}:", then per ring "G{n}:" and each
        # vertex's x, y as big-endian doubles.
        h = hashlib.sha256()
        _update(h, ("repro-shard", CACHE_SCHEMA_VERSION))
        _update(h, shard.index)
        h.update(b"l%d:" % len(shard.polygons))
        for polygon in shard.polygons:
            h.update(b"G%d:" % len(polygon.vertices))
            for v in polygon.vertices:
                h.update(struct.pack("!d", v.x) + struct.pack("!d", v.y))
        for part in (TrapezoidFracturer(), None, None):
            _update(h, part)
        assert shard_cache_key(shard, TrapezoidFracturer()) == h.hexdigest()

    def test_every_truncated_prefix_is_refused(self):
        for data in small_payloads():
            for end in range(len(data)):
                with pytest.raises(JobFileError):
                    loads_shard(data[:end])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: b"EBC1" + d[4:], "magic"),
            (lambda d: d[:4] + struct.pack(">I", 2) + d[8:], "version"),
            (lambda d: d + b"\0", "size"),
        ],
    )
    def test_corrupt_headers_and_trailing_bytes_are_refused(self, corrupt, message):
        for data in small_payloads():
            with pytest.raises(JobFileError, match=message):
                loads_shard(corrupt(data))

    def test_a_ring_of_fewer_than_three_vertices_is_refused(self):
        data = dumps_shard(Shard((0, 0), (Polygon([(0, 0), (1, 0), (0, 1)]),)))
        # The same payload with its one ring declared and cut to two
        # vertices: every size agrees, only the ring is short.
        header, body = data[:21], data[25:]
        short = header + struct.pack(">I", 2) + body[:32]
        with pytest.raises(JobFileError, match="3 or more"):
            loads_shard(short)
        with pytest.raises(JobFileError, match="3 or more"):
            loads_ring(dumps_ring(CLOSING_TWICE)[:32])
