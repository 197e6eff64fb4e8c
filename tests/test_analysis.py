"""Tests for throughput analysis and tables."""

import pytest

from repro.analysis.tables import Table
from repro.analysis.throughput import ThroughputModel
from repro.core.job import MachineJob
from repro.fracture.base import Shot
from repro.geometry.trapezoid import Trapezoid
from repro.machine.raster import RasterScanWriter
from repro.machine.vector import VectorScanWriter


def simple_job(chip=2000.0, density=0.2, dose=1.0):
    side = (density * chip * chip) ** 0.5
    return MachineJob(
        [Shot(Trapezoid.from_rectangle(0, 0, side, side))],
        base_dose=dose,
        bounding_box=(0, 0, chip, chip),
    )


class TestThroughputModel:
    def test_chips_per_wafer(self):
        model = ThroughputModel()
        chips = model.chips_per_wafer(5000.0, 5000.0)
        assert 50 < chips < 200  # 5x5 mm chips on a 3-inch wafer

    def test_chips_validation(self):
        with pytest.raises(ValueError):
            ThroughputModel().chips_per_wafer(0, 100)

    def test_wafer_time_includes_overheads(self):
        model = ThroughputModel(load_time=100.0, global_alignment_time=50.0)
        report = model.report(RasterScanWriter(), simple_job(), chips=1)
        assert report.wafer_time > 150.0

    def test_wafers_per_hour_inverse(self):
        model = ThroughputModel()
        report = model.report(RasterScanWriter(), simple_job(), chips=10)
        assert report.wafers_per_hour == pytest.approx(3600.0 / report.wafer_time)

    def test_raster_insensitive_to_dose_until_ceiling(self):
        model = ThroughputModel()
        fast = model.report(RasterScanWriter(), simple_job(dose=0.5), chips=10)
        slow = model.report(RasterScanWriter(), simple_job(dose=2.0), chips=10)
        assert fast.chip_time == pytest.approx(slow.chip_time, rel=0.01)

    def test_raster_slows_for_insensitive_resist(self):
        model = ThroughputModel()
        fast = model.report(RasterScanWriter(), simple_job(dose=1.0), chips=10)
        pmma = model.report(RasterScanWriter(), simple_job(dose=5e4), chips=10)
        assert pmma.chip_time > fast.chip_time * 2

    def test_vector_scales_with_dose(self):
        model = ThroughputModel()
        writer = VectorScanWriter(field_calibration=0.0, figure_settle=0.0)
        d1 = model.report(writer, simple_job(dose=1.0), chips=1)
        d2 = model.report(writer, simple_job(dose=2.0), chips=1)
        # Exposure dominates at these densities; chip time ~ doubles.
        assert d2.chip_time > d1.chip_time * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputModel(wafer_diameter=0)


class TestTables:
    def test_render_alignment(self):
        table = Table(["name", "value"])
        table.add_row(["a", 1])
        table.add_row(["bb", 2.5])
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        table = Table(["x"], title="T1")
        table.add_row([1])
        assert table.render().startswith("T1")

    def test_number_formats(self):
        table = Table(["v"])
        table.add_row([1234567.0])
        table.add_row([0.00001])
        table.add_row([0])
        table.add_row([True])
        text = table.render()
        assert "1.235e+06" in text
        assert "1.000e-05" in text
        assert "yes" in text

    def test_long_cell_widens_its_column(self):
        table = Table(["n"])
        table.add_row(["a-long-name"])
        header, rule, row = table.render().splitlines()
        assert len(header) == len(rule) == len(row) == len("a-long-name")

    def test_numbers_right_aligned(self):
        table = Table(["value"])
        table.add_row([7])
        assert table.render().splitlines()[-1] == "    7"

    def test_str_is_render(self):
        table = Table(["a", "b"], title="t")
        table.add_row(["x", 0.5])
        assert str(table) == table.render()

    @pytest.mark.parametrize(
        "cell, text",
        [(-2.5, "-2.5"), (123.456, "123.5"), (False, "no"), (-7, "-7"), ("s", "s")],
    )
    def test_cell_format(self, cell, text):
        table = Table(["c"])
        table.add_row([cell])
        assert table.render().splitlines()[-1].strip() == text
