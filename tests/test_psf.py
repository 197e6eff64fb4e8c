"""Tests for the double-Gaussian PSF model."""

import math

import numpy as np
import pytest

from repro.fracture.base import Shot
from repro.geometry.rasterize import RasterFrame
from repro.geometry.trapezoid import Trapezoid
from repro.pec.operator import HybridExposureOperator
from repro.physics.exposure import ExposureSimulator, shot_dose_map
from repro.physics.materials import GAAS, SILICON
from repro.physics.psf import (
    DoubleGaussianPSF,
    backscatter_coefficient,
    backscatter_range,
    convolve_same,
    forward_range,
    psf_for,
)


@pytest.fixture
def psf():
    return DoubleGaussianPSF(alpha=0.1, beta=2.0, eta=0.74)


class TestValidation:
    def test_positive_ranges(self):
        with pytest.raises(ValueError):
            DoubleGaussianPSF(alpha=0, beta=1, eta=0.5)
        with pytest.raises(ValueError):
            DoubleGaussianPSF(alpha=1, beta=-1, eta=0.5)

    def test_non_negative_eta(self):
        with pytest.raises(ValueError):
            DoubleGaussianPSF(alpha=1, beta=2, eta=-0.1)


class TestNormalization:
    def test_radial_integral_is_one(self, psf):
        r = np.linspace(0, 30, 60000)
        integral = np.trapezoid(psf.radial(r) * 2 * np.pi * r, r)
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_kernel_sums_to_one(self, psf):
        kernel = psf.kernel(pixel=0.1)
        assert kernel.sum() == pytest.approx(1.0, abs=1e-3)

    def test_kernel_odd_and_symmetric(self, psf):
        kernel = psf.kernel(pixel=0.25)
        assert kernel.shape[0] % 2 == 1
        assert np.allclose(kernel, kernel.T)
        assert np.allclose(kernel, kernel[::-1, ::-1])

    def test_kernel_resolves_narrow_alpha(self):
        # Alpha below the pixel: pixel integration must keep the sum at 1.
        psf = DoubleGaussianPSF(alpha=0.02, beta=2.0, eta=0.74)
        assert psf.kernel(pixel=0.2).sum() == pytest.approx(1.0, abs=1e-3)

    def test_kernel_pixel_validation(self, psf):
        with pytest.raises(ValueError):
            psf.kernel(pixel=0)


class TestDerivedQuantities:
    def test_encircled_energy_limits(self, psf):
        assert psf.encircled_energy(0.0) == pytest.approx(0.0)
        assert psf.encircled_energy(100.0) == pytest.approx(1.0)

    def test_encircled_energy_monotone(self, psf):
        radii = np.linspace(0.01, 10, 50)
        values = [psf.encircled_energy(r) for r in radii]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_encircled_validates(self, psf):
        with pytest.raises(ValueError):
            psf.encircled_energy(-1.0)

    def test_background_level(self, psf):
        assert psf.background_level() == pytest.approx(0.74 / 1.74)

    def test_proximity_ratio(self, psf):
        assert psf.proximity_ratio() == pytest.approx(1.74)

    def test_with_blur_quadrature(self, psf):
        blurred = psf.with_blur(0.1)
        assert blurred.alpha == pytest.approx(math.hypot(0.1, 0.1))
        assert blurred.beta == psf.beta

    def test_scalar_and_array_radial(self, psf):
        scalar = psf.radial(1.0)
        array = psf.radial(np.array([1.0, 2.0]))
        assert isinstance(scalar, float)
        assert array.shape == (2,)
        assert array[0] == pytest.approx(scalar)


class TestEmpiricalParameters:
    def test_beta_anchor_at_20kv_si(self):
        assert backscatter_range(20.0, SILICON) == pytest.approx(2.0, rel=1e-6)

    def test_beta_grows_with_energy(self):
        assert backscatter_range(50.0) > backscatter_range(10.0)

    def test_beta_power_law(self):
        ratio = backscatter_range(40.0) / backscatter_range(20.0)
        assert ratio == pytest.approx(2**1.75, rel=1e-6)

    def test_eta_anchor_si(self):
        assert backscatter_coefficient(SILICON) == pytest.approx(0.74, rel=0.01)

    def test_eta_grows_with_z(self):
        assert backscatter_coefficient(GAAS) > backscatter_coefficient(SILICON)

    def test_forward_range_shrinks_with_energy(self):
        assert forward_range(50.0, 0.5) < forward_range(10.0, 0.5)

    def test_forward_range_grows_with_thickness(self):
        assert forward_range(20.0, 1.0) > forward_range(20.0, 0.3)

    def test_forward_range_includes_beam_size(self):
        thick = forward_range(20.0, 0.5, beam_size=0.5)
        assert thick >= 0.5

    def test_psf_for_sane_at_20kv(self):
        psf = psf_for(20.0)
        assert 0.05 < psf.alpha < 0.5
        assert 1.5 < psf.beta < 2.5
        assert 0.6 < psf.eta < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            backscatter_range(0.0)
        with pytest.raises(ValueError):
            forward_range(-1.0)


def random_pair(image_shape, kernel_shape, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    image = (rng.random(image_shape) * 7.0).astype(dtype)
    return image, rng.random(kernel_shape)


def pad_shots():
    return [
        Shot(Trapezoid.from_rectangle(0.0, 0.0, 6.0, 4.0), dose=1.3),
        Shot(Trapezoid.from_rectangle(7.0, 1.0, 7.5, 9.0)),
    ]


def hybrid_grid_pair():
    """The β grid and kernel a real hybrid operator convolves."""
    shots = pad_shots()
    points = np.array([[3.0, 2.0], [7.25, 5.0], [12.0, -3.0]])
    psf = DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74)
    op = HybridExposureOperator(points, shots, psf)
    grid = (op._scatter @ np.array([1.1, 0.9])).reshape(op._grid_shape)
    return grid, op._kernel


def exposure_dose_pair():
    """The dose map and kernel of a real exposure frame."""
    frame = RasterFrame.around((0.0, 0.0, 9.0, 9.0), 0.25, margin=3.0)
    sim = ExposureSimulator(DoubleGaussianPSF(0.1, 1.5, 0.74), frame)
    return shot_dose_map(pad_shots(), frame), sim._kernel


CONVOLUTION_CASES = {
    "odd": lambda: random_pair((31, 47), (7, 9)),
    "even": lambda: random_pair((32, 48), (6, 8)),
    "kernel-wider-on-one-axis": lambda: random_pair((5, 40), (11, 3)),
    "kernel-larger-on-both": lambda: random_pair((4, 6), (9, 13)),
    "image-length-1-axis": lambda: random_pair((1, 30), (5, 5)),
    "kernel-length-1-axis": lambda: random_pair((20, 17), (1, 7)),
    "no-transformed-axis": lambda: random_pair((1, 9), (6, 1)),
    "int64-image": lambda: random_pair((13, 22), (5, 7), np.int64),
    "bool-image": lambda: random_pair((18, 14), (7, 7), bool),
    "float32-image": lambda: random_pair((21, 24), (9, 5), np.float32),
    "hybrid-grid": hybrid_grid_pair,
    "exposure-frame": exposure_dose_pair,
}


class TestConvolveSame:
    """The one FFT convolution both the hybrid PEC backend and the
    exposure simulator call is SciPy's ``fftconvolve(mode="same")`` to
    the byte, dtype and shape included."""

    @pytest.mark.parametrize("case", CONVOLUTION_CASES)
    def test_matches_fftconvolve_bit_for_bit(self, case):
        # Imported here, not at collection: the tests that run before
        # this one, and the workers they fork, do without its ≈ 400
        # modules.
        from scipy.signal import fftconvolve

        image, kernel = CONVOLUTION_CASES[case]()
        got = convolve_same(image, kernel)
        want = fftconvolve(image, kernel, mode="same")
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
