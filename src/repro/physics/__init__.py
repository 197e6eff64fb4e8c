"""Electron-beam exposure physics.

The proximity effect — dose smearing by forward- and back-scattered
electrons — is the central physical phenomenon in e-beam lithography data
preparation.  This package models it end to end:

* :mod:`~repro.physics.constants` / :mod:`~repro.physics.materials` —
  physical constants and target materials.
* :class:`~repro.physics.psf.DoubleGaussianPSF` — the classic
  two-Gaussian point-spread function with (α, β, η) parameters.
* :mod:`~repro.physics.montecarlo` — single-scattering Monte-Carlo
  simulation (screened Rutherford + Bethe slowing) that *derives* the PSF
  parameters from first principles.
* :mod:`~repro.physics.exposure` — FFT convolution of shot doses with the
  PSF over a raster frame.
* :mod:`~repro.physics.resist` — resist response: contrast curves and
  threshold development for positive and negative tones.
* :mod:`~repro.physics.metrology` — critical-dimension extraction, edge
  placement error and dose-latitude measurements on simulated images.
"""

from repro._facade import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "DoubleGaussianPSF": "psf",
        "psf_for": "psf",
        "ExposureSimulator": "exposure",
        "Resist": "resist",
        "PMMA": "resist",
        "PBS": "resist",
        "COP": "resist",
        "MonteCarloSimulator": "montecarlo",
        "fit_double_gaussian": "montecarlo",
        "measure_linewidth": "metrology",
        "edge_positions": "metrology",
        "dose_latitude": "metrology",
    },
)
