"""Tests for the exposure simulator."""

import numpy as np
import pytest

from repro.fracture.base import Shot
from repro.geometry.rasterize import RasterFrame
from repro.geometry.trapezoid import Trapezoid
from repro.physics.exposure import ExposureSimulator, shot_dose_map
from repro.physics.psf import DoubleGaussianPSF


@pytest.fixture
def psf():
    return DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)


def big_pad_shots(size=40.0):
    return [Shot(Trapezoid.from_rectangle(0, 0, size, size))]


class TestDoseMap:
    def test_charge_conservation(self):
        frame = RasterFrame(0, 0, 0.25, 80, 80)
        shots = [
            Shot(Trapezoid.from_rectangle(2, 2, 8, 8), dose=2.0),
            Shot(Trapezoid.from_rectangle(10, 10, 12, 14), dose=0.5),
        ]
        dose = shot_dose_map(shots, frame)
        total = dose.sum() * frame.pixel**2
        expected = 36.0 * 2.0 + 8.0 * 0.5
        assert total == pytest.approx(expected, rel=0.01)

    def test_doses_add_in_overlap(self):
        frame = RasterFrame(0, 0, 0.5, 20, 20)
        t = Trapezoid.from_rectangle(0, 0, 10, 10)
        dose = shot_dose_map([Shot(t, 1.0), Shot(t, 0.5)], frame)
        assert dose.max() == pytest.approx(1.5, rel=0.01)


class TestExposure:
    def test_large_pad_interior_level_is_one(self, psf):
        frame = RasterFrame.around((0, 0, 40, 40), 0.5, margin=8.0)
        sim = ExposureSimulator(psf, frame)
        image = sim.expose_shots(big_pad_shots())
        center = sim.sample(image, 20.0, 20.0)
        assert center == pytest.approx(1.0, abs=0.02)

    def test_pad_edge_level_is_half(self, psf):
        frame = RasterFrame.around((0, 0, 40, 40), 0.25, margin=8.0)
        sim = ExposureSimulator(psf, frame)
        image = sim.expose_shots(big_pad_shots())
        # Long straight edge of a huge pad: exactly half the interior.
        edge = sim.sample(image, 0.0, 20.0)
        assert edge == pytest.approx(0.5, abs=0.03)

    def test_isolated_small_feature_below_one(self, psf):
        frame = RasterFrame.around((0, 0, 1, 1), 0.1, margin=8.0)
        sim = ExposureSimulator(psf, frame)
        image = sim.expose_shots([Shot(Trapezoid.from_rectangle(0, 0, 0.5, 0.5))])
        peak = sim.sample(image, 0.25, 0.25)
        # A feature smaller than beta misses nearly all backscatter.
        assert peak < 1.0 / (1.0 + psf.eta) + 0.1

    def test_dose_scales_linearly(self, psf):
        frame = RasterFrame.around((0, 0, 10, 10), 0.5, margin=6.0)
        sim = ExposureSimulator(psf, frame)
        pad = Trapezoid.from_rectangle(0, 0, 10, 10)
        one = sim.expose_shots([Shot(pad, 1.0)])
        two = sim.expose_shots([Shot(pad, 2.0)])
        assert np.allclose(two, 2.0 * one, atol=1e-9)

    def test_shape_mismatch_raises(self, psf):
        frame = RasterFrame(0, 0, 0.5, 10, 10)
        sim = ExposureSimulator(psf, frame)
        with pytest.raises(ValueError, match="shape"):
            sim.absorbed_energy(np.zeros((5, 5)))

    def test_sample_bilinear(self, psf):
        frame = RasterFrame(0, 0, 1.0, 4, 4)
        sim = ExposureSimulator(psf, frame)
        image = np.zeros((4, 4))
        image[1, 1] = 1.0
        # At the exact pixel centre the sample is the pixel value.
        assert sim.sample(image, 1.5, 1.5) == pytest.approx(1.0)
        # Halfway to the next centre: average.
        assert sim.sample(image, 2.0, 1.5) == pytest.approx(0.5)

    def test_proximity_between_neighbours(self, psf):
        # Two pads 1 µm apart: the gap sees backscatter from both.
        frame = RasterFrame.around((0, 0, 21, 10), 0.25, margin=8.0)
        sim = ExposureSimulator(psf, frame)
        shots = [
            Shot(Trapezoid.from_rectangle(0, 0, 10, 10)),
            Shot(Trapezoid.from_rectangle(11, 0, 21, 10)),
        ]
        image = sim.expose_shots(shots)
        gap = sim.sample(image, 10.5, 5.0)
        far = sim.sample(image, -5.0, 5.0)
        assert gap > 0.3
        assert far < 0.1
