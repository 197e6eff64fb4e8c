"""Tests for the binary machine job-file format."""

import hashlib

import pytest

from repro.core.job import MachineJob, ShotFold
from repro.core.jobfile import (
    JobFileError,
    dumps_job,
    job_file_bytes,
    loads_job,
    read_job,
    write_job,
)
from repro.fracture.base import Shot, shot_rows
from repro.fracture.trapezoidal import TrapezoidFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid


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
