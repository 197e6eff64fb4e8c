"""Exposure simulation: dose maps and PSF convolution.

The absorbed-energy image is the convolution of the written dose map with
the proximity point-spread function.  Dose maps are built by rasterizing
shots (area-coverage weighted by each shot's dose factor); convolution uses
FFTs with a pixel-integrated kernel.

Normalization: an infinitely large pad written at relative dose 1.0 yields
an absorbed level of exactly 1.0, so developed thresholds are expressed as
fractions of the large-area dose — the convention proximity-correction
literature uses.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.fracture.base import Shot
from repro.geometry.rasterize import RasterFrame, _scanline_coverage_rows
from repro.geometry.trapezoid import Trapezoid
from repro.physics.psf import DoubleGaussianPSF, convolve_same


def shot_dose_map(
    shots: Iterable[Shot],
    frame: RasterFrame,
    supersample: int = 4,
) -> np.ndarray:
    """Rasterize shots into a dose map (coverage × dose, additive).

    Each shot is rasterized only over the rows its bounding box touches,
    keeping large shot lists affordable.
    """
    dose = np.zeros((frame.ny, frame.nx), dtype=np.float64)
    for shot in shots:
        _add_trapezoid(dose, frame, shot.trapezoid, shot.dose, supersample)
    return dose


def _add_trapezoid(
    target: np.ndarray,
    frame: RasterFrame,
    trap: Trapezoid,
    weight: float,
    supersample: int,
) -> None:
    """Accumulate one trapezoid's coverage into ``target`` (bbox-local)."""
    bbox = trap.bounding_box()
    row0 = max(0, int((bbox[1] - frame.y0) / frame.pixel))
    row1 = min(frame.ny, int(np.ceil((bbox[3] - frame.y0) / frame.pixel)) + 1)
    if row1 <= row0:
        return
    sub = RasterFrame(
        frame.x0,
        frame.y0 + row0 * frame.pixel,
        frame.pixel,
        frame.nx,
        row1 - row0,
    )
    cover = _scanline_coverage_rows(trap.to_polygon().ring, sub, supersample)
    target[row0:row1, :] += weight * cover


class ExposureSimulator:
    """Convolve dose maps with a proximity PSF over a raster frame.

    Args:
        psf: the proximity point-spread function.
        frame: raster frame (pixel pitch should resolve ``psf.alpha``;
            a warning margin of ``3.5 β`` around the pattern is the
            caller's responsibility — use ``RasterFrame.around`` with
            ``margin >= 2 β``).
    """

    def __init__(self, psf: DoubleGaussianPSF, frame: RasterFrame) -> None:
        self.psf = psf
        self.frame = frame
        self._kernel = psf.kernel(frame.pixel)

    def absorbed_energy(self, dose_map: np.ndarray) -> np.ndarray:
        """Absorbed-energy image for a dose map on this frame."""
        if dose_map.shape != (self.frame.ny, self.frame.nx):
            raise ValueError(
                f"dose map shape {dose_map.shape} does not match frame "
                f"({self.frame.ny}, {self.frame.nx})"
            )
        return convolve_same(dose_map, self._kernel)

    def expose_shots(
        self, shots: Iterable[Shot], supersample: int = 4
    ) -> np.ndarray:
        """Dose-map + convolution convenience for a shot list."""
        dose = shot_dose_map(shots, self.frame, supersample)
        return self.absorbed_energy(dose)

    def sample(
        self, image: np.ndarray, x: float, y: float
    ) -> float:
        """Bilinear sample of an image at layout coordinates ``(x, y)``."""
        fx = (x - self.frame.x0) / self.frame.pixel - 0.5
        fy = (y - self.frame.y0) / self.frame.pixel - 0.5
        ix = int(np.floor(fx))
        iy = int(np.floor(fy))
        tx = fx - ix
        ty = fy - iy
        ix0 = np.clip(ix, 0, self.frame.nx - 1)
        ix1 = np.clip(ix + 1, 0, self.frame.nx - 1)
        iy0 = np.clip(iy, 0, self.frame.ny - 1)
        iy1 = np.clip(iy + 1, 0, self.frame.ny - 1)
        return float(
            image[iy0, ix0] * (1 - tx) * (1 - ty)
            + image[iy0, ix1] * tx * (1 - ty)
            + image[iy1, ix0] * (1 - tx) * ty
            + image[iy1, ix1] * tx * ty
        )
