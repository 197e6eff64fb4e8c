"""GHOST background-equalization correction.

GHOST exposes the *complement* of the pattern with a defocused beam whose
blur matches the backscatter range β, at reduced dose ``η/(1+η)``.  Every
point then sees the same total background regardless of local density, so
a single threshold prints uniformly.  The cost is reduced contrast and
extra writing time (the complement area), both reported by experiment F1.

(The technique was published by Owen & Rissman in 1983; it is included as
the natural "fixed-dose" endpoint of the correction spectrum the tutorial
era explored.)
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.fracture.base import Shot, ShotView, dosed, shot_rows
from repro.geometry.boolean import boolean_trapezoids
from repro.geometry.polygon import Polygon
from repro.geometry.rasterize import RasterFrame
from repro.geometry.vertex_array import trapezoid_bounds
from repro.pec.base import ProximityCorrector
from repro.physics.exposure import ExposureSimulator, shot_dose_map
from repro.physics.psf import DoubleGaussianPSF


class GhostCorrector(ProximityCorrector):
    """Build the complementary (GHOST) exposure for a shot list.

    Args:
        margin: how far beyond the pattern bounding box the correction
            exposure extends [µm]; should exceed ~2 β.
        dose_scale: override for the ghost dose factor (defaults to the
            theoretical η/(1+η)).
    """

    def __init__(self, margin: float = 10.0, dose_scale: float | None = None) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = margin
        self.dose_scale = dose_scale

    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> ShotView:
        """Pattern shots (unchanged) plus complement shots at ghost dose.

        The returned list is the pattern followed by the ghost shots; use
        :func:`split_ghost` or :class:`GhostExposure` to simulate the two
        passes with their different beam blurs.
        """
        pattern = shot_rows(shots)
        if not len(pattern):
            return ShotView(pattern)
        return ShotView.concat([pattern, self.ghost_shots(shots, psf).rows])

    def ghost_shots(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> ShotView:
        """The complement figures at the ghost dose."""
        bx0, by0, bx1, by1 = trapezoid_bounds(shot_rows(shots))
        window = Polygon.rectangle(
            float(bx0.min()) - self.margin,
            float(by0.min()) - self.margin,
            float(bx1.max()) + self.margin,
            float(by1.max()) + self.margin,
        )
        pattern_polys = [s.trapezoid.to_polygon() for s in shots]
        complement = boolean_trapezoids([window], pattern_polys, "sub")
        dose = (
            self.dose_scale
            if self.dose_scale is not None
            else psf.eta / (1.0 + psf.eta)
        )
        return dosed(complement, dose)


def split_ghost(
    corrected: Sequence[Shot], original_count: int
) -> Tuple[Sequence[Shot], Sequence[Shot]]:
    """Split a :meth:`GhostCorrector.correct` result into its two passes."""
    return corrected[:original_count], corrected[original_count:]


class GhostExposure:
    """Two-pass exposure simulation for GHOST-corrected jobs.

    The pattern pass uses the full PSF; the correction pass uses a beam
    defocused to the backscatter range, i.e. a PSF whose forward term is
    broadened to β.
    """

    def __init__(self, psf: DoubleGaussianPSF, frame: RasterFrame) -> None:
        self.psf = psf
        self.frame = frame
        self._pattern_sim = ExposureSimulator(psf, frame)
        ghost_psf = DoubleGaussianPSF(alpha=psf.beta, beta=psf.beta, eta=psf.eta)
        self._ghost_sim = ExposureSimulator(ghost_psf, frame)

    def absorbed(
        self,
        pattern_shots: Sequence[Shot],
        ghost_shots: Sequence[Shot],
        supersample: int = 4,
    ) -> np.ndarray:
        """Total absorbed-energy image of both passes."""
        image = self._pattern_sim.absorbed_energy(
            shot_dose_map(pattern_shots, self.frame, supersample)
        )
        if ghost_shots:
            image = image + self._ghost_sim.absorbed_energy(
                shot_dose_map(ghost_shots, self.frame, supersample)
            )
        return image
