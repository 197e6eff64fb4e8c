"""Tests for the three machine writer models and the datapath."""

import math

import pytest

from repro.core.job import MachineJob
from repro.fracture.base import Shot
from repro.geometry.trapezoid import Trapezoid
from repro.machine.base import WriteTimeBreakdown
from repro.machine.column import Column, LAB6
from repro.machine.datapath import (
    ChannelCheck,
    bitmap_bytes,
    data_volume_report,
    figure_stream_bytes,
    raster_channel_check,
    rle_bytes_estimate,
    vector_channel_check,
)
from repro.machine.raster import RasterScanWriter
from repro.machine.vector import VectorScanWriter
from repro.machine.vsb import ShapedBeamWriter


def job_with_density(density: float, chip: float = 1000.0, n: int = 100):
    """A job of n equal square shots at the requested pattern density."""
    side = (density * chip * chip / n) ** 0.5
    pitch = chip / int(n**0.5)
    shots = []
    k = int(n**0.5)
    for i in range(k):
        for j in range(k):
            x = i * pitch
            y = j * pitch
            shots.append(Shot(Trapezoid.from_rectangle(x, y, x + side, y + side)))
    return MachineJob(shots, base_dose=1.0, bounding_box=(0, 0, chip, chip))


class TestWriteTimeBreakdown:
    def test_total_sums_components(self):
        bd = WriteTimeBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
        assert bd.total == 15.0

    def test_addition(self):
        a = WriteTimeBreakdown(exposure=1.0)
        b = WriteTimeBreakdown(stage=2.0)
        assert (a + b).total == 3.0


class TestRasterWriter:
    def test_density_independence(self):
        writer = RasterScanWriter(calibration_time=0.0)
        sparse = writer.write_time(job_with_density(0.05))
        dense = writer.write_time(job_with_density(0.5))
        assert sparse.exposure == pytest.approx(dense.exposure, rel=1e-6)

    def test_time_scales_with_chip_area(self):
        writer = RasterScanWriter(calibration_time=0.0)
        small = writer.write_time(job_with_density(0.2, chip=500.0))
        large = writer.write_time(job_with_density(0.2, chip=1000.0))
        assert large.exposure == pytest.approx(4 * small.exposure, rel=0.01)

    def test_finer_address_slower(self):
        coarse = RasterScanWriter(address_unit=0.5, calibration_time=0.0)
        fine = RasterScanWriter(address_unit=0.25, calibration_time=0.0)
        job = job_with_density(0.2)
        assert fine.write_time(job).exposure > coarse.write_time(job).exposure

    def test_current_limit_slows_rate_for_slow_resist(self):
        writer = RasterScanWriter(address_unit=0.25)
        fast_rate = writer.effective_pixel_rate(1.0)
        slow_rate = writer.effective_pixel_rate(1e4)  # PMMA-class dose
        assert slow_rate < fast_rate
        assert fast_rate == writer.pixel_rate

    def test_required_current_formula(self):
        writer = RasterScanWriter(address_unit=0.5, pixel_rate=2e7)
        # D = 1 µC/cm² over (0.5 µm)² at 20 MHz: I = D·f·a².
        expected = 1.0 * 1e-6 / 1e8 * 2e7 * 0.25
        assert writer.required_current(1.0, 2e7) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            RasterScanWriter(address_unit=0)
        with pytest.raises(ValueError):
            RasterScanWriter(stripe_addresses=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("knob", ["address_unit", "pixel_rate"])
    def test_validation_refuses_non_finite(self, knob, value):
        with pytest.raises(ValueError, match="must be"):
            RasterScanWriter(**{knob: value})


class TestVectorWriter:
    def test_time_proportional_to_density(self):
        writer = VectorScanWriter(field_calibration=0.0, figure_settle=0.0)
        sparse = writer.write_time(job_with_density(0.05))
        dense = writer.write_time(job_with_density(0.5))
        assert dense.exposure == pytest.approx(10 * sparse.exposure, rel=0.01)

    def test_figure_overhead_scales_with_count(self):
        writer = VectorScanWriter(figure_settle=1e-5)
        few = writer.write_time(job_with_density(0.2, n=100))
        many = writer.write_time(job_with_density(0.2, n=400))
        assert many.figure_overhead == pytest.approx(
            4 * few.figure_overhead, rel=0.01
        )

    def test_corrected_doses_cost_time(self):
        writer = VectorScanWriter(field_calibration=0.0, figure_settle=0.0)
        job = job_with_density(0.2)
        boosted = MachineJob(
            [Shot(s.trapezoid, 2.0) for s in job.shots],
            base_dose=1.0,
            bounding_box=job.bounding_box,
        )
        assert writer.write_time(boosted).exposure == pytest.approx(
            2 * writer.write_time(job).exposure, rel=1e-6
        )

    def test_beam_current_derated(self):
        column = Column(LAB6)
        full = VectorScanWriter(column=column, current_derating=1.0)
        half = VectorScanWriter(column=column, current_derating=0.5)
        assert half.beam_current() == pytest.approx(full.beam_current() / 2)

    def test_field_grid_calibration(self):
        writer = VectorScanWriter(field_size=500.0, field_calibration=0.1)
        bd = writer.write_time(job_with_density(0.1, chip=1000.0))
        assert bd.calibration == pytest.approx(4 * 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorScanWriter(spot_size=0)
        with pytest.raises(ValueError):
            VectorScanWriter(current_derating=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("knob", ["spot_size", "field_size"])
    def test_validation_refuses_non_finite(self, knob, value):
        with pytest.raises(ValueError, match="must be"):
            VectorScanWriter(**{knob: value})


class TestShapedBeamWriter:
    def test_flash_time_size_independent(self):
        writer = ShapedBeamWriter(current_density=20.0)
        assert writer.flash_time(10.0) == pytest.approx(10.0 * 1e-6 / 20.0)

    def test_time_scales_with_shot_count_not_area(self):
        writer = ShapedBeamWriter(field_calibration=0.0, shot_settle=1e-6)
        few_large = writer.write_time(job_with_density(0.3, n=100))
        many_small = writer.write_time(job_with_density(0.3, n=2500))
        assert many_small.figure_overhead > few_large.figure_overhead
        # Flash time identical (same dose, same shot count scaling).
        assert many_small.exposure == pytest.approx(
            25 * few_large.exposure, rel=0.01
        )

    def test_beam_current_from_density(self):
        writer = ShapedBeamWriter(max_shot=2.0, current_density=20.0)
        assert writer.beam_current() == pytest.approx(20.0 * 4.0 / 1e8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapedBeamWriter(max_shot=0)
        with pytest.raises(ValueError):
            ShapedBeamWriter(current_density=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("knob", ["max_shot", "current_density"])
    def test_validation_refuses_non_finite(self, knob, value):
        with pytest.raises(ValueError, match="must be"):
            ShapedBeamWriter(**{knob: value})


class TestDatapath:
    def test_figure_stream_bytes(self):
        figs = [Trapezoid.from_rectangle(0, 0, 1, 1)] * 10
        assert figure_stream_bytes(figs) == 120

    def test_bitmap_bytes(self):
        assert bitmap_bytes(100.0, 100.0, 0.5) == (200 * 200 + 7) // 8

    def test_rle_smaller_than_bitmap_for_sparse(self):
        figs = [Trapezoid.from_rectangle(0, 0, 10, 10)]
        rle = rle_bytes_estimate(figs, height=1000.0, address_unit=0.5)
        bmp = bitmap_bytes(1000.0, 1000.0, 0.5)
        assert rle < bmp

    def test_data_volume_report(self):
        figs = [Trapezoid.from_rectangle(0, 0, 1, 1)] * 5
        report = data_volume_report(figs, source_bytes=30, width=10, height=10,
                                    address_unit=0.5)
        assert report.figure_count == 5
        assert report.expansion_ratio == pytest.approx(60 / 30)

    def test_channel_check_limited(self):
        check = ChannelCheck(required_rate=10e6, channel_rate=5e6)
        assert check.limited
        assert check.slowdown == pytest.approx(2.0)

    def test_channel_check_unlimited(self):
        check = ChannelCheck(required_rate=1e6, channel_rate=5e6)
        assert not check.limited
        assert check.slowdown == 1.0

    def test_raster_channel_check(self):
        check = raster_channel_check(
            pixel_rate=2e7, rle_bytes_total=1_000_000, write_time=0.1
        )
        assert check.required_rate == pytest.approx(1e7)
        assert check.limited

    def test_vector_channel_check(self):
        check = vector_channel_check(figures_per_second=1e5)
        assert check.required_rate == pytest.approx(1.2e6)
        assert not check.limited

    def test_validation(self):
        with pytest.raises(ValueError):
            bitmap_bytes(10, 10, 0)
        with pytest.raises(ValueError):
            raster_channel_check(1e7, 100, 0.0)
