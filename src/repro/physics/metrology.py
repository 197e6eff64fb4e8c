"""Metrology on simulated exposure images.

Provides the observables the reconstructed evaluation reports: developed
linewidth (CD) with sub-pixel threshold interpolation, and dose latitude.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rasterize import RasterFrame


def profile_along_x(
    image: np.ndarray, frame: RasterFrame, y: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract a horizontal cut of ``image`` at height ``y``.

    Returns:
        ``(x_coordinates, values)`` with linear interpolation between the
        two neighbouring pixel rows.
    """
    fy = (y - frame.y0) / frame.pixel - 0.5
    row = int(np.floor(fy))
    frac = fy - row
    row0 = int(np.clip(row, 0, frame.ny - 1))
    row1 = int(np.clip(row + 1, 0, frame.ny - 1))
    values = image[row0, :] * (1.0 - frac) + image[row1, :] * frac
    return frame.x_centers(), values


def edge_positions(
    coordinates: np.ndarray, values: np.ndarray, threshold: float
) -> List[float]:
    """Sub-pixel positions where ``values`` crosses ``threshold``.

    Linear interpolation between samples; crossings are returned in
    coordinate order with alternating rising/falling sense implied by the
    data.
    """
    crossings: List[float] = []
    above = values >= threshold
    for i in range(len(values) - 1):
        if above[i] != above[i + 1]:
            v0, v1 = values[i], values[i + 1]
            t = (threshold - v0) / (v1 - v0)
            crossings.append(
                float(coordinates[i] + t * (coordinates[i + 1] - coordinates[i]))
            )
    return crossings


def measure_linewidth(
    image: np.ndarray,
    frame: RasterFrame,
    threshold: float,
    cut_y: float,
    near_x: Optional[float] = None,
) -> Optional[float]:
    """Measure the printed linewidth on a horizontal cut.

    Args:
        image: absorbed-energy (or thickness) image.
        frame: raster frame of the image.
        threshold: print threshold in image units.
        cut_y: height of the measurement cut.
        near_x: when several features cross the cut, measure the feature
            whose centre is closest to this x (else the widest feature).

    Returns:
        The linewidth, or ``None`` if no feature prints on the cut.
    """
    xs, values = profile_along_x(image, frame, cut_y)
    crossings = edge_positions(xs, values, threshold)
    if len(crossings) < 2:
        return None
    spans: List[Tuple[float, float]] = []
    # Pair up entries/exits: feature spans are where values exceed threshold.
    start = None
    above_start = values[0] >= threshold
    if above_start:
        start = xs[0]
    for crossing in crossings:
        if start is None:
            start = crossing
        else:
            spans.append((start, crossing))
            start = None
    if not spans:
        return None
    if near_x is None:
        best = max(spans, key=lambda s: s[1] - s[0])
    else:
        best = min(spans, key=lambda s: abs((s[0] + s[1]) / 2.0 - near_x))
    return best[1] - best[0]


def dose_latitude(
    doses: Sequence[float],
    linewidths: Sequence[Optional[float]],
    target_cd: float,
    tolerance: float = 0.1,
) -> float:
    """Fractional dose window keeping CD within ``±tolerance·target_cd``.

    Args:
        doses: swept relative doses (ascending).
        linewidths: measured CD at each dose (None = did not print).
        target_cd: nominal CD.
        tolerance: allowed relative CD deviation.

    Returns:
        ``(D_max − D_min) / D_nominal`` over the in-spec window; 0.0 when
        no dose prints in spec.  ``D_nominal`` is the dose whose CD is
        closest to target.
    """
    in_spec = [
        (d, w)
        for d, w in zip(doses, linewidths)
        if w is not None and abs(w - target_cd) <= tolerance * target_cd
    ]
    if not in_spec:
        return 0.0
    best_dose = min(in_spec, key=lambda t: abs(t[1] - target_cd))[0]
    d_lo = min(d for d, _ in in_spec)
    d_hi = max(d for d, _ in in_spec)
    if best_dose == 0:
        return 0.0
    return (d_hi - d_lo) / best_dose
