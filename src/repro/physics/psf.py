"""Point-spread functions for electron-beam exposure.

The canonical proximity model (Chang 1975) writes the energy density
deposited in the resist at radius ``r`` from a point exposure as a sum of
two Gaussians::

    f(r) = 1 / (π (1 + η)) · [ 1/α² · exp(−r²/α²) + η/β² · exp(−r²/β²) ]

``α`` is the forward-scattering range (plus beam blur), ``β`` the
backscattering range, and ``η`` the ratio of backscattered to forward
energy.  ``f`` is normalized: ``∫ f(r) 2πr dr = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.physics.materials import Material, SILICON


@dataclass(frozen=True)
class DoubleGaussianPSF:
    """Two-Gaussian proximity point-spread function.

    Attributes:
        alpha: forward-scatter range [µm].
        beta: backscatter range [µm].
        eta: backscattered/forward deposited-energy ratio.
    """

    alpha: float
    beta: float
    eta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")

    # -- evaluation ------------------------------------------------------

    def radial(self, r: "float | np.ndarray") -> "float | np.ndarray":
        """Energy density f(r) [1/µm²] at radius ``r`` [µm]."""
        r2 = np.asarray(r, dtype=float) ** 2
        norm = 1.0 / (math.pi * (1.0 + self.eta))
        value = norm * (
            np.exp(-r2 / self.alpha**2) / self.alpha**2
            + self.eta * np.exp(-r2 / self.beta**2) / self.beta**2
        )
        if np.isscalar(r):
            return float(value)
        return value

    def kernel(self, pixel: float, radius_factor: float = 3.5) -> np.ndarray:
        """Pixel-integrated convolution kernel on a square grid.

        Each Gaussian is integrated exactly over pixel areas using erf
        differences, so narrow forward peaks are not undersampled even
        when ``alpha`` is below the pixel pitch.

        Args:
            pixel: pixel pitch [µm].
            radius_factor: kernel half-width in units of ``beta``.

        Returns:
            A square array of odd side length that sums to ~1.
        """
        if pixel <= 0:
            raise ValueError("pixel must be positive")
        half = max(1, int(math.ceil(radius_factor * self.beta / pixel)))
        edges = (np.arange(-half, half + 2) - 0.5) * pixel

        def gauss_1d(sigma_like: float) -> np.ndarray:
            from scipy.special import erf

            scaled = edges / sigma_like
            cdf = 0.5 * (1.0 + erf(scaled))
            return np.diff(cdf)

        fwd = gauss_1d(self.alpha)
        back = gauss_1d(self.beta)
        kernel_fwd = np.outer(fwd, fwd)
        kernel_back = np.outer(back, back)
        return (kernel_fwd + self.eta * kernel_back) / (1.0 + self.eta)

    # -- derived quantities -------------------------------------------------

    def background_level(self) -> float:
        """Fractional exposure a point inside a large pad receives from
        backscatter: ``η / (1 + η)`` of total deposited energy."""
        return self.eta / (1.0 + self.eta)


def convolve_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """SciPy's ``fftconvolve(image, kernel, mode="same")``, bit for bit,
    on ``scipy.fft`` alone (non-empty inputs of equal rank).

    It takes fftconvolve's own steps: an axis where either input has
    length 1 is not transformed (the product broadcasts), every other
    axis is padded to ``next_fast_len(n, True)`` with ``n`` the full
    ``s1 + s2 − 1``, and the full convolution is cut to the image's
    shape, centred by ``(full − s1) // 2``, and copied.  Importing the
    signal package instead would load ``scipy.stats``, ``scipy.linalg``,
    ``scipy.ndimage`` and five more (0.4–0.75 s, ≈ 45 MiB) for one
    function; ``tests/test_psf.py`` keeps fftconvolve as the oracle.
    """
    s1, s2 = image.shape, kernel.shape
    axes = [a for a in range(image.ndim) if s1[a] != 1 and s2[a] != 1]
    full = [
        s1[a] + s2[a] - 1 if a in axes else max(s1[a], s2[a])
        for a in range(image.ndim)
    ]
    if not axes:
        out = image * kernel
    else:
        # rfftn reads integer and bool inputs as float64, as
        # fftconvolve's own cast of integer inputs does.
        from scipy.fft import irfftn, next_fast_len, rfftn

        fshape = [next_fast_len(full[a], True) for a in axes]
        spectrum = rfftn(image, fshape, axes=axes) * rfftn(kernel, fshape, axes=axes)
        out = irfftn(spectrum, fshape, axes=axes)
    start = [(n - s) // 2 for n, s in zip(full, s1)]
    return out[tuple(slice(b, b + s) for b, s in zip(start, s1))].copy()


def backscatter_range(energy_kev: float, substrate: Material = SILICON) -> float:
    """Empirical backscatter range β(E) [µm].

    Uses the Grün-range-style power law β ≈ k·E^1.75/ρ with k chosen to
    match the measured β ≈ 2.0 µm for Si at 20 keV (Chang 1975 era
    numbers); the 1.75 exponent follows the electron range scaling.
    """
    if energy_kev <= 0:
        raise ValueError("energy must be positive")
    k = 2.0 * 2.329 / (20.0**1.75)
    return k * energy_kev**1.75 / substrate.density


def backscatter_coefficient(substrate: Material = SILICON) -> float:
    """Empirical deposited-energy backscatter ratio η(Z).

    Fit η ≈ 0.0832·Z^0.83, anchored at η ≈ 0.74 for Si — the classic
    20 kV PMMA-on-Si value.  Weakly energy dependent, treated constant.
    """
    return 0.0832 * substrate.atomic_number**0.83


def forward_range(
    energy_kev: float, resist_thickness: float = 0.5, beam_size: float = 0.05
) -> float:
    """Forward-scattering range α(E, t) [µm] plus beam blur.

    The forward broadening of a resist film of thickness ``t`` scales as
    α_fs ≈ 0.9·(t/E)^1.5 (t in µm... empirical Rishton–Kern form with t
    in nm: 0.9·(t_nm/E)^1.5 nm); beam size adds in quadrature.
    """
    if energy_kev <= 0:
        raise ValueError("energy must be positive")
    if resist_thickness < 0 or beam_size < 0:
        raise ValueError("thickness and beam size must be non-negative")
    t_nm = resist_thickness * 1e3
    alpha_fs_um = 0.9 * (t_nm / energy_kev) ** 1.5 * 1e-3
    return math.hypot(alpha_fs_um, beam_size)


def psf_for(
    energy_kev: float,
    substrate: Material = SILICON,
    resist_thickness: float = 0.5,
    beam_size: float = 0.05,
) -> DoubleGaussianPSF:
    """Standard PSF for an exposure condition.

    Combines the empirical :func:`forward_range`,
    :func:`backscatter_range` and :func:`backscatter_coefficient` models.
    The Monte-Carlo module regenerates these parameters from first
    principles (experiment F3).
    """
    return DoubleGaussianPSF(
        alpha=forward_range(energy_kev, resist_thickness, beam_size),
        beta=backscatter_range(energy_kev, substrate),
        eta=backscatter_coefficient(substrate),
    )
