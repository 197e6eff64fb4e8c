"""Geometric shape-bias correction.

Machines without dose modulation (notably fixed-dose raster writers)
corrected proximity by *pre-biasing geometry*: figures in dense
surroundings are shrunk so that backscatter fog grows them back to size.

The bias for a figure is derived from the absorbed-level model: with
background level ``E_bg`` above the isolated case, the printed edge moves
outward by approximately::

    Δ ≈ (E_bg − E_iso_bg) / |dE/dx|_edge ,  |dE/dx|_edge ≈ 1/(α·√π·(1+η))

(the forward-Gaussian edge slope), so each edge is inset by Δ.  Bias is
clamped so figures never invert.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.fracture.base import Shot, ShotView, shot_rows, shots_from_rows
from repro.geometry.vertex_array import trapezoid_areas
from repro.pec.base import ProximityCorrector, exposure_at_points, shot_sample_points
from repro.physics.psf import DoubleGaussianPSF


class ShapeBiasCorrector(ProximityCorrector):
    """Fixed-dose geometric pre-bias.

    Args:
        reference_level: absorbed level of the isolated reference feature
            (whose size is taken as correct without bias).
        gain: multiplier on the analytic bias (1.0 = nominal model).
        max_bias_fraction: cap on the inset as a fraction of the figure's
            half-minimum-dimension (prevents inversion).
    """

    def __init__(
        self,
        reference_level: float = 0.5,
        gain: float = 1.0,
        max_bias_fraction: float = 0.45,
    ) -> None:
        if gain <= 0:
            raise ValueError("gain must be positive")
        if not (0.0 < max_bias_fraction < 0.5):
            raise ValueError("max_bias_fraction must be in (0, 0.5)")
        self.reference_level = reference_level
        self.gain = gain
        self.max_bias_fraction = max_bias_fraction

    def correct(
        self, shots: Sequence[Shot], psf: DoubleGaussianPSF
    ) -> ShotView:
        """Return geometry-biased copies of ``shots`` (doses unchanged)."""
        rows = shot_rows(shots)
        if not len(rows):
            return ShotView(rows)
        points = shot_sample_points(shots, "centroid")
        # Sparse operator: entries are bit-identical to dense, but the
        # n × n matrix never materializes on large shot lists.
        exposure = exposure_at_points(
            points, shots, psf, matrix_mode="sparse"
        )
        # Edge slope of the forward Gaussian at a feature edge.
        edge_slope = 1.0 / (psf.alpha * math.sqrt(math.pi) * (1.0 + psf.eta))
        bias = self.gain * np.fmax(0.0, exposure - self.reference_level) / edge_slope
        inset = _inset(rows[:, :6], bias, self.max_bias_fraction)
        return shots_from_rows(np.column_stack((inset, rows[:, 6])))


def _inset(block: np.ndarray, bias: np.ndarray, max_fraction: float) -> np.ndarray:
    """Shrink each trapezoid of an ``(N, 6)`` block by its ``bias`` on
    every side, with inversion guard; rows without a positive bias are
    kept as they are."""
    yb, yt, xbl, xbr, xtl, xtr = block.T
    height = yt - yb
    narrow_edge = np.minimum(xbr - xbl, xtr - xtl)
    min_dim = np.minimum(
        height, np.maximum(narrow_edge, trapezoid_areas(block) / height)
    )
    bias = np.minimum(bias, max_fraction * min_dim)
    y0 = yb + bias
    y1 = yt - bias
    pinched = y1 <= y0
    mid = (yb + yt) / 2.0
    y0 = np.where(pinched, mid - 1e-9, y0)
    y1 = np.where(pinched, mid + 1e-9, y1)

    # Interpolate the side x positions at the new heights, then inset in x.
    def x_at(xb: np.ndarray, xt: np.ndarray, y: np.ndarray) -> np.ndarray:
        return xb + (y - yb) / height * (xt - xb)

    sides = []
    for y in (y0, y1):
        left = x_at(xbl, xtl, y) + bias
        right = x_at(xbr, xtr, y) - bias
        crossed = right < left
        centre = (right + left) / 2.0
        sides += [
            np.where(crossed, centre, left),
            np.where(crossed, centre, right),
        ]
    inset = np.column_stack((y0, y1, *sides))
    return np.where((bias > 0)[:, None], inset, block)
