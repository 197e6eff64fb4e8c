"""Integration tests: full flows across subsystems."""

import math

import pytest

from repro.core.job import MachineJob
from repro.core.metrics import fidelity_report
from repro.core.pipeline import PreparationPipeline
from repro.fracture.shots import ShotFracturer
from repro.layout import generators
from repro.layout.flatten import flat_area, flatten_cell
from repro.layout.gdsii import dumps_gdsii, loads_gdsii
from repro.machine.raster import RasterScanWriter
from repro.machine.vector import VectorScanWriter
from repro.machine.vsb import ShapedBeamWriter
from repro.pec.dose_iter import IterativeDoseCorrector
from repro.physics.psf import DoubleGaussianPSF


PSF = DoubleGaussianPSF(alpha=0.15, beta=2.0, eta=0.74)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "name,lib_factory",
        [
            ("grating", lambda: generators.grating(lines=10)),
            ("contacts", lambda: generators.contact_array(columns=8, rows=8)),
            ("fzp", lambda: generators.fresnel_zone_plate(zones=6)),
            ("serpentine", lambda: generators.serpentine(turns=6)),
            ("checkerboard", lambda: generators.checkerboard(cells=4)),
            ("memory", lambda: generators.memory_array(words=4, bits=4, blocks=(2, 2))),
        ],
    )
    def test_pipeline_preserves_area_on_all_workloads(self, name, lib_factory):
        lib = lib_factory()
        flat = flatten_cell(lib.top_cell())
        design_area = flat_area(flat)
        pipe = PreparationPipeline(
            machines=[RasterScanWriter(), VectorScanWriter(), ShapedBeamWriter()]
        )
        result = pipe.run(lib)
        # Fractured area equals the merged design area (overlaps collapse,
        # so allow the fractured area to be at most the raw area).
        assert result.job.pattern_area() <= design_area * (1 + 1e-4)
        assert result.job.pattern_area() > 0.5 * design_area
        for breakdown in result.write_times.values():
            assert breakdown.total > 0

    def test_gdsii_to_machine_job(self, tmp_path):
        """The production flow: GDSII in, timed machine job out."""
        lib = generators.memory_array(words=4, bits=4, blocks=(2, 2))
        data = dumps_gdsii(lib)
        restored = loads_gdsii(data)
        pipe = PreparationPipeline(machines=[ShapedBeamWriter()])
        result = pipe.run(restored)
        expected_polys = 3 * 4 * 4 * 2 * 2
        assert result.source_polygons == expected_polys
        assert result.write_times["shaped-beam"].total > 0

    def test_vsb_flow_with_pec_and_fidelity(self):
        """Fracture → PEC → simulate → verify for a proximity-critical case."""
        lib = generators.isolated_line_with_pad(
            line_width=0.6, line_length=15.0, pad_size=10.0, separation=1.5
        )
        flat = flatten_cell(lib.top_cell())
        polys = [p for v in flat.values() for p in v]
        pipe = PreparationPipeline(
            fracturer=ShotFracturer(max_shot=2.5),
            corrector=IterativeDoseCorrector(),
            psf=PSF,
            machines=[ShapedBeamWriter(max_shot=2.5)],
        )
        result = pipe.run(polys)
        assert result.corrected
        report = fidelity_report(result.job, polys, PSF, pixel=0.1)
        assert report.error_fraction < 0.35
        # Write time reflects the dose boost.
        assert result.write_times["shaped-beam"].exposure > 0

    def test_machine_crossover_raster_wins_dense_vector_wins_sparse(self):
        """The headline T1 shape: writing time vs. pattern density.

        Raster time is fixed by chip area; vector time grows with the
        figure count (per-figure deflection settling) and exposed area.
        Dense IC-like levels therefore hand the win to raster while
        sparse levels favour vector — the tutorial's central comparison.
        """
        raster = RasterScanWriter(address_unit=0.5, calibration_time=0.0)
        vector = VectorScanWriter(
            spot_size=0.5, field_calibration=0.0, figure_settle=2.0e-6
        )
        chip = 500.0
        feature = 2.0  # µm feature size
        from repro.fracture.base import Shot
        from repro.geometry.trapezoid import Trapezoid

        def job(density):
            count = int(density * chip * chip / (feature * feature))
            cols = int(math.sqrt(count)) + 1
            shots = []
            pitch = chip / cols
            for k in range(count):
                x = (k % cols) * pitch
                y = (k // cols) * pitch
                shots.append(
                    Shot(Trapezoid.from_rectangle(x, y, x + feature, y + feature))
                )
            return MachineJob(
                shots, base_dose=20.0, bounding_box=(0, 0, chip, chip)
            )

        sparse_r = raster.write_time(job(0.02)).total
        sparse_v = vector.write_time(job(0.02)).total
        dense_r = raster.write_time(job(0.6)).total
        dense_v = vector.write_time(job(0.6)).total
        assert sparse_v < sparse_r  # vector wins sparse
        assert dense_r < dense_v  # raster wins dense
        # Raster time is density-independent.
        assert sparse_r == pytest.approx(dense_r, rel=0.05)

    def test_mc_derived_psf_agrees_with_empirical_beta(self):
        from repro.physics.montecarlo import (
            MonteCarloSimulator,
            fit_double_gaussian,
        )
        from repro.physics.psf import backscatter_range

        sim = MonteCarloSimulator(energy_kev=20.0, seed=11)
        result = sim.run(electrons=3000)
        fit = fit_double_gaussian(result.bin_centers(), result.density)
        expected_beta = backscatter_range(20.0)
        assert fit.beta == pytest.approx(expected_beta, rel=0.5)

    def test_cif_and_gdsii_agree(self):
        from repro.layout.cif import dumps_cif, loads_cif

        lib = generators.contact_array(columns=3, rows=3, hierarchical=True)
        via_gds = loads_gdsii(dumps_gdsii(lib))
        via_cif = loads_cif(dumps_cif(lib))
        area_gds = flat_area(flatten_cell(via_gds.top_cell()))
        area_cif = flat_area(flatten_cell(via_cif.top_cell()))
        assert area_gds == pytest.approx(area_cif, rel=1e-6)

    def test_correction_cost_reflected_in_write_time(self):
        lib = generators.isolated_line_with_pad()
        flat = flatten_cell(lib.top_cell())
        polys = [p for v in flat.values() for p in v]
        vsb = ShapedBeamWriter()
        raw = PreparationPipeline(machines=[vsb]).run(polys)
        pec = PreparationPipeline(
            corrector=IterativeDoseCorrector(), psf=PSF, machines=[vsb]
        ).run(polys)
        assert (
            pec.write_times["shaped-beam"].exposure
            > raw.write_times["shaped-beam"].exposure
        )
