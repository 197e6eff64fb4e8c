"""Tests for the core pipeline, job, metrics and comparison harness."""

import pytest

from repro.core.job import MachineJob, ShotFold
from repro.core.metrics import fidelity_report
from repro.core.pipeline import PreparationPipeline
from repro.fracture.base import Shot, shot_rows
from repro.fracture.shots import ShotFracturer
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.layout import generators
from repro.layout.cell import Cell
from repro.layout.layer import Layer
from repro.machine.raster import RasterScanWriter
from repro.machine.vector import VectorScanWriter
from repro.machine.vsb import ShapedBeamWriter
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF, psf_for
from repro.physics.resist import Resist


@pytest.fixture
def psf():
    return DoubleGaussianPSF(alpha=0.15, beta=2.0, eta=0.74)


class TestMachineJob:
    def test_bbox_from_shots(self):
        shots = [
            Shot(Trapezoid.from_rectangle(0, 0, 2, 2)),
            Shot(Trapezoid.from_rectangle(8, 8, 10, 10)),
        ]
        job = MachineJob(shots)
        assert job.bounding_box == (0, 0, 10, 10)
        assert job.chip_area() == 100.0

    def test_explicit_bbox(self):
        job = MachineJob(
            [Shot(Trapezoid.from_rectangle(0, 0, 1, 1))],
            bounding_box=(0, 0, 10, 10),
        )
        assert job.pattern_density() == pytest.approx(0.01)

    def test_dose_accounting(self):
        shots = [
            Shot(Trapezoid.from_rectangle(0, 0, 2, 2), dose=1.0),
            Shot(Trapezoid.from_rectangle(3, 0, 5, 2), dose=2.0),
        ]
        job = MachineJob(shots)
        assert job.pattern_area() == pytest.approx(8.0)
        assert job.dose_weighted_area() == pytest.approx(4.0 + 8.0)
        assert job.dose_weighted_count() == pytest.approx(3.0)
        assert job.dose_range() == (1.0, 2.0)

    def test_empty_job(self):
        job = MachineJob([])
        assert job.figure_count() == 0
        assert job.pattern_density() == 0.0
        assert job.dose_range() == (0.0, 0.0)

    def test_base_dose_validation(self):
        with pytest.raises(ValueError):
            MachineJob([], base_dose=0)

    def test_resident_and_streamed_jobs_share_one_fold(self):
        shots = [
            Shot(
                Trapezoid.from_rectangle(
                    0.1 * k, 0.3 * k, 0.1 * k + 0.7, 0.3 * k + 1.1
                ),
                dose=0.1 * (k + 1),
            )
            for k in range(10)
        ]
        resident = MachineJob(shots, base_dose=3.0)
        fold = ShotFold(3.0)
        # Uneven blocks, one of them empty: the cut must not matter.
        for block in (shots[:3], [], shots[3:4], shots[4:]):
            fold.add_rows(shot_rows(block))
        streamed = fold.job("streamed")
        assert streamed.shots == [] and streamed.name == "streamed"
        # Literals: what MachineJob answered before the fold existed
        # (built-in sum() on 3.11 — plain left-to-right addition).
        for job in (resident, streamed):
            assert job.digest() == (
                "05684563c04b9382b9fbcb790fd8c974f2ad4c2aec058b321545b7e1c909e105"
            )
            assert job.bounding_box == (0.0, 0.0, 1.6, 3.8)
            assert job.figure_count() == 10
            assert job.pattern_area() == 7.7
            assert job.dose_weighted_area() == 4.235000000000001
            assert job.dose_weighted_count() == 5.500000000000001
            assert job.dose_range() == (0.1, 1.0)

    def test_accessors_fold_the_shot_list_once(self, monkeypatch):
        import repro.core.job as job_module

        walks = []

        def counted(shots):
            walks.append(len(shots))
            return shot_rows(shots)

        monkeypatch.setattr(job_module, "shot_rows", counted)
        job = MachineJob(
            [Shot(Trapezoid.from_rectangle(k, 0, k + 1, 1)) for k in range(4)]
        )
        for _ in range(3):
            job.pattern_area(), job.dose_weighted_area(), job.pattern_density()
            job.dose_weighted_count(), job.dose_range(), job.digest()
            job.portable_digest(), job.dose_digest()
        assert walks == [4]


class TestPipeline:
    def test_runs_on_library(self):
        pipe = PreparationPipeline(machines=[RasterScanWriter()])
        result = pipe.run(generators.grating(lines=5))
        assert result.job.figure_count() == 5
        assert "raster" in result.write_times
        assert result.job.name == "GRATING"

    def test_runs_on_cell(self):
        cell = Cell("X")
        cell.add_rectangle(0, 0, 10, 10)
        result = PreparationPipeline().run(cell)
        assert result.job.figure_count() == 1

    def test_runs_on_polygons(self):
        result = PreparationPipeline().run([Polygon.rectangle(0, 0, 1, 1)])
        assert result.job.figure_count() == 1
        assert result.source_polygons == 1

    def test_layer_filter(self):
        cell = Cell("X")
        cell.add_rectangle(0, 0, 1, 1, layer=1)
        cell.add_rectangle(2, 0, 3, 1, layer=2)
        result = PreparationPipeline().run(cell, layer=Layer(2))
        assert result.job.figure_count() == 1

    def test_correction_requires_psf(self):
        with pytest.raises(ValueError, match="PSF"):
            PreparationPipeline(corrector=IterativeDoseCorrector())

    def test_correction_applied(self, psf):
        pipe = PreparationPipeline(
            corrector=IterativeDoseCorrector(), psf=psf
        )
        result = pipe.run(generators.isolated_line_with_pad())
        assert result.corrected
        lo, hi = result.job.dose_range()
        assert hi > lo

    def test_vsb_fracturer(self):
        pipe = PreparationPipeline(
            fracturer=ShotFracturer(max_shot=2.0),
            machines=[ShapedBeamWriter(max_shot=2.0)],
        )
        result = pipe.run(generators.grating(lines=3))
        for shot in result.job.shots:
            bbox = shot.trapezoid.bounding_box()
            assert bbox[2] - bbox[0] <= 2.0 + 1e-9
            assert bbox[3] - bbox[1] <= 2.0 + 1e-9

    def test_fracture_report_attached(self):
        result = PreparationPipeline().run(generators.grating(lines=7))
        assert result.fracture_report.figure_count == 7
        assert result.fracture_report.area_error == pytest.approx(0.0)

    def test_total_write_time_accessor(self):
        pipe = PreparationPipeline(machines=[VectorScanWriter()])
        result = pipe.run(generators.grating(lines=3))
        assert result.total_write_time("vector") > 0


class TestFidelity:
    def test_perfect_dose_prints_accurately(self, psf):
        design = [Polygon.rectangle(0, 0, 10, 10)]
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 10, 10), dose=1.0)]
        job = MachineJob(shots)
        report = fidelity_report(job, design, psf, pixel=0.2)
        # A 10 µm pad at threshold 0.5 prints close to nominal.
        assert report.error_fraction < 0.15
        assert report.area_ratio == pytest.approx(1.0, abs=0.15)

    def test_underdose_shrinks_pattern(self, psf):
        design = [Polygon.rectangle(0, 0, 10, 10)]
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 10, 10), dose=0.55)]
        job = MachineJob(shots)
        report = fidelity_report(job, design, psf, pixel=0.2)
        assert report.area_ratio < 1.0

    def test_resist_threshold_used(self, psf):
        design = [Polygon.rectangle(0, 0, 10, 10)]
        shots = [Shot(Trapezoid.from_rectangle(0, 0, 10, 10))]
        job = MachineJob(shots, base_dose=2.0)
        resist = Resist("t", tone="negative", sensitivity=1.0, contrast=2.0)
        report = fidelity_report(job, design, psf, resist=resist, pixel=0.2)
        assert report.threshold_level == pytest.approx(
            resist.threshold_dose / 2.0
        )

    def test_empty_job_raises(self, psf):
        with pytest.raises(ValueError):
            fidelity_report(MachineJob([]), [], psf)

    def test_pec_equalizes_cd_across_density(self):
        """The PEC claim: dense and sparse features print the same CD.

        Raw exposure prints lines inside a dense pad wider than isolated
        ones (backscatter fog); dose correction closes that gap even
        though the absolute CD may shift slightly.
        """
        from repro.geometry.rasterize import RasterFrame
        from repro.physics.exposure import ExposureSimulator, shot_dose_map
        from repro.physics.metrology import measure_linewidth

        psf = psf_for(20.0)
        # One 0.6 µm line inside a dense grating, one isolated.
        line_w = 0.6
        polys = [Polygon.rectangle(i * 1.2, 0, i * 1.2 + line_w, 12)
                 for i in range(9)]
        polys.append(Polygon.rectangle(25, 0, 25 + line_w, 12))
        dense_center = 4 * 1.2 + line_w / 2
        iso_center = 25 + line_w / 2

        def measure(job):
            frame = RasterFrame.around((0, 0, 26, 12), 0.05, margin=6.0)
            sim = ExposureSimulator(psf, frame)
            image = sim.absorbed_energy(shot_dose_map(job.shots, frame))
            dense = measure_linewidth(
                image, frame, 0.5, cut_y=6.0, near_x=dense_center
            )
            iso = measure_linewidth(
                image, frame, 0.5, cut_y=6.0, near_x=iso_center
            )
            assert dense is not None and iso is not None
            return abs(dense - iso)

        raw = PreparationPipeline().run(polys)
        pec = PreparationPipeline(
            corrector=IterativeDoseCorrector(), psf=psf
        ).run(polys)
        assert measure(pec.job) < measure(raw.job)


class TestJobDigests:
    def shots(self, dose=1.0):
        return [
            Shot(Trapezoid.from_rectangle(0, 0, 2, 1), dose),
            Shot(Trapezoid.from_rectangle(3, 0, 5, 1), dose),
        ]

    def test_digest_is_deterministic(self):
        a = MachineJob(self.shots(), name="a")
        b = MachineJob(self.shots(), name="b")  # name is not content
        assert a.digest() == b.digest()
        assert a.portable_digest() == b.portable_digest()
        assert a.dose_digest() == b.dose_digest()

    def test_digest_sees_geometry_and_dose(self):
        base = MachineJob(self.shots())
        moved = MachineJob(
            [Shot(Trapezoid.from_rectangle(0, 0, 2.0001, 1), 1.0)]
            + self.shots()[1:]
        )
        dosed = MachineJob(self.shots(dose=1.5))
        rebased = MachineJob(self.shots(), base_dose=2.0)
        assert base.digest() != moved.digest()
        assert base.digest() != dosed.digest()
        assert base.digest() != rebased.digest()
        assert base.dose_digest() != dosed.dose_digest()
        # The dose map alone ignores geometry.
        assert base.dose_digest() == moved.dose_digest()

    def test_digest_sees_shot_order(self):
        shots = self.shots()
        assert (
            MachineJob(shots).digest()
            != MachineJob(list(reversed(shots))).digest()
        )

    def test_portable_digest_absorbs_last_ulp_noise(self):
        shots = self.shots()
        wobble = [
            Shot(s.trapezoid, s.dose * (1.0 + 2e-16)) for s in shots
        ]
        assert (
            MachineJob(shots).portable_digest()
            == MachineJob(wobble).portable_digest()
        )
