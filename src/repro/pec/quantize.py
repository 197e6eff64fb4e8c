"""Dose-class quantization.

Real writers could not set an arbitrary dose per shot: the blanking
hardware offered a fixed set of *dose classes* (typically 8–64 discrete
levels).  After correction, each shot's computed dose is snapped to the
nearest class.  The residual exposure error this introduces — and how
many classes are enough — is the ablation `bench_f2a` runs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.fracture.base import Shot, ShotView, shot_rows, with_doses


def dose_classes(
    levels: int, lo: float = 0.5, hi: float = 4.0, geometric: bool = True
) -> np.ndarray:
    """The writer's available dose classes.

    Args:
        levels: number of classes (≥ 2).
        lo, hi: dose range covered.
        geometric: geometric spacing (constant ratio — matches how dwell
            clocks divided) vs. linear spacing.
    """
    if levels < 2:
        raise ValueError("need at least two dose classes")
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if geometric:
        return np.geomspace(lo, hi, levels)
    return np.linspace(lo, hi, levels)


def quantize_doses(
    shots: Sequence[Shot], classes: np.ndarray
) -> Tuple[ShotView, float]:
    """Snap every shot dose to the nearest available class.

    Returns:
        ``(quantized_shots, max_relative_step)`` where the second value
        is the largest relative dose change the snapping caused.
    """
    classes = np.sort(np.asarray(classes, dtype=float))
    if classes.ndim != 1 or len(classes) < 1:
        raise ValueError("classes must be a non-empty 1-D array")
    doses = shot_rows(shots)[:, 6]
    snapped = classes[np.abs(classes - doses[:, None]).argmin(axis=1)]
    exposed = doses > 0
    steps = np.abs(snapped - doses)[exposed] / doses[exposed]
    return with_doses(shots, snapped), float(steps.max(initial=0.0))
