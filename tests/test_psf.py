"""Tests for the double-Gaussian PSF model."""

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
    def test_background_level(self, psf):
        assert psf.background_level() == pytest.approx(0.74 / 1.74)

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


def enclosed_energy(psf, radius, samples=40000):
    """∫₀ᴿ f(r) 2πr dr by the trapezoid rule."""
    r = np.linspace(0.0, radius, samples)
    return np.trapezoid(psf.radial(r) * 2 * np.pi * r, r)


class TestRadialShape:
    def test_single_gaussian_encloses_analytic_energy(self):
        psf = DoubleGaussianPSF(alpha=0.5, beta=2.0, eta=0.0)
        for radius in (0.25, 0.5, 1.0):
            assert enclosed_energy(psf, radius) == pytest.approx(
                1.0 - np.exp(-(radius**2) / 0.25), abs=1e-6
            )

    def test_forward_peak_holds_its_share(self, psf):
        # Within 5α nearly all forward energy and little backscatter lie.
        inner = enclosed_energy(psf, 5 * psf.alpha)
        back_inside = 1.0 - np.exp(-((5 * psf.alpha) ** 2) / psf.beta**2)
        want = (1.0 + psf.eta * back_inside) / (1.0 + psf.eta)
        assert inner == pytest.approx(want, abs=1e-4)

    def test_enclosed_energy_grows_to_one(self, psf):
        radii = [0.05, 0.2, 1.0, 3.0, 10.0]
        energies = [enclosed_energy(psf, r) for r in radii]
        assert energies == sorted(energies)
        assert 0.0 < energies[0] and energies[-1] == pytest.approx(1.0, abs=1e-4)

    def test_radial_decreases_outward(self, psf):
        values = psf.radial(np.linspace(0.0, 8.0, 200))
        assert np.all(np.diff(values) < 0)

    def test_peak_value(self, psf):
        want = (1 / psf.alpha**2 + psf.eta / psf.beta**2) / (np.pi * (1 + psf.eta))
        assert psf.radial(0.0) == pytest.approx(want)

    def test_wider_forward_range_lowers_kernel_peak(self):
        sharp = DoubleGaussianPSF(alpha=0.1, beta=2.0, eta=0.74).kernel(pixel=0.1)
        blurred = DoubleGaussianPSF(alpha=0.3, beta=2.0, eta=0.74).kernel(pixel=0.1)
        centre = sharp.shape[0] // 2
        assert blurred[centre, centre] < sharp[centre, centre]
        assert blurred.sum() == pytest.approx(sharp.sum(), abs=1e-9)
