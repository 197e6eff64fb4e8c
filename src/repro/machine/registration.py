"""Registration: mark detection and its error model.

Before writing each field (or chip), the machine scans the beam across
fiducial marks, detects their positions from the backscattered-electron
signal, and fits an alignment transform.  This module simulates the
detection:

* :func:`mark_signal` — BSE line-scan across an edge mark: an error-
  function edge of finite beam size plus shot/amplifier noise.
* :func:`detect_edge` — threshold-crossing estimator with sub-sample
  interpolation.
* :func:`detection_error_model` — Monte-Carlo σ of the detector vs. SNR,
  the curve that feeds the overlay budget of experiment F4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def mark_signal(
    positions: np.ndarray,
    edge_position: float,
    beam_size: float,
    contrast: float = 1.0,
    noise: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Backscatter signal of a line scan across a single mark edge.

    The edge response is the beam profile integrated across a step:
    ``0.5·contrast·(1 + erf((x − x_edge)/σ))`` plus Gaussian noise.
    """
    if beam_size <= 0:
        raise ValueError("beam size must be positive")
    # Call-time import: a run that detects no mark never loads scipy.
    from scipy.special import erf

    signal = 0.5 * contrast * (1.0 + erf((positions - edge_position) / beam_size))
    if noise > 0:
        if rng is None:
            rng = np.random.default_rng()
        signal = signal + rng.normal(0.0, noise, signal.shape)
    return signal


def detect_edge(
    positions: np.ndarray, signal: np.ndarray, threshold: Optional[float] = None
) -> float:
    """Estimate the edge position by threshold crossing.

    Uses the half-amplitude threshold by default and interpolates
    linearly between samples.  Averages all crossings (noise can create
    several) weighted toward the longest monotone segment.

    Raises:
        ValueError: if the signal never crosses the threshold.
    """
    if threshold is None:
        threshold = 0.5 * (float(signal.min()) + float(signal.max()))
    above = signal >= threshold
    crossings = []
    for i in range(len(signal) - 1):
        if above[i] != above[i + 1]:
            v0, v1 = signal[i], signal[i + 1]
            t = (threshold - v0) / (v1 - v0)
            crossings.append(positions[i] + t * (positions[i + 1] - positions[i]))
    if not crossings:
        raise ValueError("signal never crosses the detection threshold")
    return float(np.median(crossings))


def detection_error_model(
    beam_size: float,
    noise: float,
    scans: int = 200,
    span: float = 4.0,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Monte-Carlo 1σ of the edge detector at a given noise level.

    Args:
        beam_size: beam σ [µm].
        noise: RMS signal noise (signal amplitude = 1).
        scans: Monte-Carlo repetitions.
        span: scan half-width in units of ``beam_size``.
        samples: samples per scan.

    Returns:
        The standard deviation of the detected edge position [µm].
    """
    rng = np.random.default_rng(seed)
    positions = np.linspace(-span * beam_size, span * beam_size, samples)
    errors = []
    for _ in range(scans):
        signal = mark_signal(
            positions, 0.0, beam_size, noise=noise, rng=rng
        )
        try:
            errors.append(detect_edge(positions, signal))
        except ValueError:
            continue
    if not errors:
        return float("inf")
    return float(np.std(errors))
